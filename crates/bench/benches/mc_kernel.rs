//! The batched adaptive Monte-Carlo kernel against its two ablations: a
//! fixed sampling budget on the same tight-window config (what the adaptive
//! stopping rule saves), and the scalar row-by-row Gaussian path (what the
//! structure-of-arrays `NormalSource::fill` kernel saves). Every row draws
//! its normals from the ziggurat sampler behind `NormalSource`; the
//! Box–Muller reference kernel lives in
//! `crates/sim/tests/kernel_agreement.rs`. A counting
//! global allocator reports the steady-state allocations per sampling call,
//! pinning the scratch-reuse contract: chunk buffers live on the engine's
//! worker threads, not in the inner loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use decoder_sim::{
    DisturbanceModel, EngineConfig, ExecutionEngine, GaussianDisturbance, MonteCarloConfig,
    NormalSource, SimConfig, SimulationPlatform, DEFAULT_CHUNK_SIZE,
};
use device_physics::Volts;
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
use rand::rngs::StdRng;

/// Counts every heap allocation so the bench can report a per-call figure.
/// Lives in the bench target (the `mspt-bench` library itself stays under
/// `#![forbid(unsafe_code)]`).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A Gaussian disturbance that deliberately does **not** override
/// [`DisturbanceModel::sample_matrix`]: every deviation goes through the
/// provided row-by-row loop, so benching it against [`GaussianDisturbance`]
/// isolates the batched `NormalSource::fill` kernel from everything else.
#[derive(Debug)]
struct ScalarGaussian;

impl DisturbanceModel for ScalarGaussian {
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]) {
        GaussianDisturbance.sample_regions(sigmas, draws, out);
    }
}

/// Paper defaults with the decision window tightened well below the 0.25 V
/// half-width: addressability probabilities collapse toward zero, which is
/// exactly when sequential confidence stopping pays off.
fn tight_window_config() -> SimConfig {
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).expect("code");
    SimConfig::paper_defaults(code)
        .expect("config")
        .with_window(Volts::new(0.1))
}

fn engine() -> ExecutionEngine {
    ExecutionEngine::new(EngineConfig {
        threads: 1,
        chunk_size: DEFAULT_CHUNK_SIZE,
    })
}

const FIXED_SAMPLES: usize = 20_000;
const KERNEL_SAMPLES: usize = 8_000;
const TARGET_HALF_WIDTH: f64 = 0.05;

/// Steady-state allocations per sampling call: one warmup call, then the
/// counter delta across `calls` further calls. With engine-owned scratch
/// the deviation matrices cost nothing per chunk; what remains is chunk
/// bookkeeping (one small per-chunk counts vector — the engine's
/// chunk-ordered reduction protocol) plus the outcome itself, so the
/// figure grows with the *chunk count*, never with `samples × nanowires ×
/// regions` the way the pre-SoA kernel did.
fn allocations_per_call(
    engine: &ExecutionEngine,
    config: &SimConfig,
    samples: usize,
    calls: u64,
) -> u64 {
    let mc = |seed: u64| MonteCarloConfig::fixed(samples, seed);
    engine
        .monte_carlo_for_config(config, mc(u64::MAX - samples as u64))
        .expect("warmup outcome");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for seed in 0..calls {
        black_box(
            engine
                .monte_carlo_for_config(config, mc(seed))
                .expect("outcome"),
        );
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) / calls
}

fn bench_mc_kernel(c: &mut Criterion) {
    let config = tight_window_config();
    let engine = engine();
    let platform = SimulationPlatform::new(config.clone());
    let variability = platform.variability().expect("variability");
    let model = config.variability_model().expect("model");
    let window = config.decision_window().expect("window");

    // Scratch-reuse evidence, printed ahead of the timing rows: doubling
    // the budget must not double the allocation count by anything close
    // to the per-sample deviation volume (each sample fills a
    // nanowires × regions matrix — reused scratch, zero allocations).
    let allocs_1x = allocations_per_call(&engine, &config, KERNEL_SAMPLES, 8);
    let allocs_2x = allocations_per_call(&engine, &config, 2 * KERNEL_SAMPLES, 8);
    eprintln!(
        "mc_kernel: {allocs_1x} heap allocations per {KERNEL_SAMPLES}-sample call, \
         {allocs_2x} per {}-sample call (chunk bookkeeping only)",
        2 * KERNEL_SAMPLES
    );

    let mut group = c.benchmark_group("mc_kernel");
    group.sample_size(10);

    // The adaptive stopping rule on a tight window vs the same run forced
    // to draw its full budget. A fresh seed every iteration keeps the
    // Monte-Carlo stage a genuine miss (variability stays a stage hit).
    group.bench_function("fixed_20k_tight_window", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            engine
                .monte_carlo_for_config(
                    black_box(&config),
                    MonteCarloConfig::fixed(FIXED_SAMPLES, seed),
                )
                .expect("fixed outcome")
        });
    });
    group.bench_function("adaptive_20k_tight_window", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            engine
                .monte_carlo_for_config(
                    black_box(&config),
                    MonteCarloConfig::fixed(FIXED_SAMPLES, seed)
                        .with_target_half_width(TARGET_HALF_WIDTH),
                )
                .expect("adaptive outcome")
        });
    });

    // The structure-of-arrays fill kernel vs the scalar row loop, same
    // fixed budget, no stage cache in the way: both go straight through
    // `monte_carlo_with_disturbance`.
    group.bench_function("batched_fill_8k", |b| {
        b.iter(|| {
            engine
                .monte_carlo_with_disturbance(
                    black_box(&variability),
                    &model,
                    window,
                    MonteCarloConfig::fixed(KERNEL_SAMPLES, 17),
                    &GaussianDisturbance,
                )
                .expect("batched outcome")
        });
    });
    group.bench_function("scalar_rows_8k", |b| {
        b.iter(|| {
            engine
                .monte_carlo_with_disturbance(
                    black_box(&variability),
                    &model,
                    window,
                    MonteCarloConfig::fixed(KERNEL_SAMPLES, 17),
                    &ScalarGaussian,
                )
                .expect("scalar outcome")
        });
    });

    group.finish();
}

criterion_group!(benches, bench_mc_kernel);
criterion_main!(benches);
