//! The two defect layers of the request path, drawing one map and counting
//! its usable crosspoints, plus the end-to-end cost of a defect-composed
//! report: map sampling + composition on top of the decoder evaluation.
//! A map is drawn inline by `DefectModel::sample_map`, 64 crosspoints per
//! packed word, so the bench has one serial row per map size and no
//! thread-count rows.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use crossbar_array::DefectModel;
use decoder_sim::{DefectKind, EngineConfig, ExecutionEngine, SimConfig, DEFAULT_CHUNK_SIZE};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

/// A larger crossbar edge than the served one: 768 × 768 crosspoints, a
/// whole number of packed words per row.
const EDGE: usize = 768;

/// Crossbar edge a defect-configured report samples: the paper's 10-bit
/// balanced-Gray design serves 363 × 363 crosspoints.
const SERVED_EDGE: usize = 363;

fn bench_defect_map(c: &mut Criterion) {
    let model = DefectModel::new(0.02, 0.01).expect("model");
    let mut group = c.benchmark_group(format!("defect_map_{EDGE}x{EDGE}"));
    group.sample_size(10);
    group.bench_function("serial_sample_map", |b| {
        b.iter(|| model.sample_map(EDGE, EDGE, 42).expect("map"))
    });
    group.finish();
}

/// The defect layers of one report-cache miss at the served edge: the
/// serial draw of the map and the popcount tally composition reads.
fn bench_served_defect_map(c: &mut Criterion) {
    let model = DefectModel::new(0.02, 0.01).expect("model");
    let mut group = c.benchmark_group(format!("defect_map_{SERVED_EDGE}x{SERVED_EDGE}"));
    group.sample_size(20);
    group.bench_function("serial_sample_map", |b| {
        b.iter(|| {
            model
                .sample_map(SERVED_EDGE, SERVED_EDGE, black_box(42))
                .expect("map")
        })
    });
    let map = model.sample_map(SERVED_EDGE, SERVED_EDGE, 42).expect("map");
    group.bench_function("usable_fraction", |b| {
        b.iter(|| black_box(&map).usable_fraction())
    });
    group.finish();
}

/// The report-path cost of the defect dimension: evaluating the paper's
/// best balanced-Gray configuration defect-free vs with a sampled defect
/// map composed in (363 × 363 crosspoints sampled + composed per cold
/// evaluation). Caching is disabled so every iteration pays the full cost.
fn bench_defect_report(c: &mut Criterion) {
    let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).expect("code");
    let base = SimConfig::paper_defaults(code).expect("config");
    let defective = base
        .clone()
        .with_defects(DefectKind::sampled(0.02, 0.01, 2_009).expect("rates"));
    let engine = ExecutionEngine::with_cache(
        EngineConfig {
            threads: 2,
            chunk_size: DEFAULT_CHUNK_SIZE,
        },
        decoder_sim::CacheConfig::unsharded(0),
    );
    let mut group = c.benchmark_group("defect_report");
    group.sample_size(10);
    group.bench_function("defect_free", |b| {
        b.iter(|| engine.report_for(black_box(&base)).expect("report"))
    });
    group.bench_function("defect_composed", |b| {
        b.iter(|| engine.report_for(black_box(&defective)).expect("report"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_defect_map,
    bench_served_defect_map,
    bench_defect_report
);
criterion_main!(benches);
