//! The repository benchmark: three closed-loop workloads against the
//! workspace's public entry points, end-to-end metrics from an untraced
//! run, and per-layer metrics from a separate traced run. See `README.md`
//! in this directory for the workloads, the metrics and what each layer
//! metric is expected to move.

pub mod cli;
pub mod hist;
pub mod host;
pub mod mc;
pub mod probes;
pub mod report;
pub mod serving;
pub mod stream;
pub mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use decoder_sim::{
    CacheConfig, CacheStats, EngineConfig, ExecutionEngine, SimConfig, Stage, StageStats,
    DEFAULT_CACHE_CAPACITY, DEFAULT_CACHE_SHARDS, DEFAULT_CHUNK_SIZE,
};
use mspt_experiments::{paper_base_config, DISTURBANCE_CODE_LENGTH};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

use crate::cli::{Args, Workload};
use crate::hist::Histogram;
use crate::host::Usage;
use crate::report::{Metric, Outcome};
use crate::trace::{SpanLog, ALLOC};

/// Set-ups per invocation: at least this many, and more until
/// [`SETUP_SECONDS`] have passed; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Wall time set-up is repeated for at least, so a cheap set-up is
/// measured many times.
const SETUP_SECONDS: f64 = 0.5;
/// Directory, relative to the working directory, of results and spans.
pub const OUT_DIR: &str = ".perfbench-out";
/// Tolerance of the serving reconciliation: the per-layer medians must add
/// up to the client's median within this share. Medians of skewed parts
/// add up to less than the median of their sum (by 5–9 % in testing), so
/// the check has room for that; a layer left out of the attribution shows
/// as a larger gap.
const RECONCILE_TOLERANCE_PCT: f64 = 25.0;
/// Estimates timed on a 1-thread and an `nproc`-thread engine.
const SPEEDUP_ESTIMATES: usize = 24;
/// Most configs replayed by the report-miss and defect probes.
const PROBE_CONFIGS: usize = 16;

/// An engine of `threads` threads with the default chunk size and the
/// default report-cache capacity. The capacity is given explicitly:
/// `ExecutionEngine::new` would read `MSPT_CACHE_CAPACITY`, which would
/// change what the workloads measure.
#[must_use]
pub fn engine(threads: usize) -> ExecutionEngine {
    ExecutionEngine::with_cache(
        EngineConfig {
            threads,
            chunk_size: DEFAULT_CHUNK_SIZE,
        },
        CacheConfig {
            capacity: DEFAULT_CACHE_CAPACITY,
            shards: DEFAULT_CACHE_SHARDS,
        },
    )
}

/// Available parallelism of the host: engine threads and the bound on
/// load-generating threads.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs the benchmark with the process's command line and prints the
/// result line last.
#[must_use]
pub fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.trace && !ALLOC.is_installed() {
        eprintln!("perfbench: --trace 1 runs in the perfbench-traced binary");
        return ExitCode::from(2);
    }
    let threads = nproc();
    let connections = match args.workload {
        Workload::McEstimate => 1,
        workload => serving::connections(workload),
    };
    let measured = match (args.workload, args.trace) {
        (Workload::McEstimate, false) => timed_mc(&args, threads),
        (Workload::McEstimate, true) => traced_mc(&args, threads),
        (_, false) => timed_serving(&args, threads),
        (_, true) => traced_serving(&args, threads),
    };
    let (outcome, spans) = match measured {
        Ok(measured) => measured,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let provenance = report::provenance(&args, threads, connections);
    for (key, value) in &provenance {
        println!("# {key}: {value}");
    }
    for metric in &outcome.metrics {
        let samples = metric
            .samples
            .map_or_else(String::new, |n| format!(" (n={n})"));
        println!(
            "{:<40} {:>18.6} {}{samples}",
            metric.name, metric.value, metric.unit
        );
    }
    for failure in &outcome.failures {
        println!("# failure: {failure}");
    }
    if let Err(error) = write_outputs(&args, &outcome, spans.as_ref(), &provenance) {
        eprintln!("perfbench: writing results: {error}");
    }
    println!("{}", report::result_line(&outcome, args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_outputs(
    args: &Args,
    outcome: &Outcome,
    spans: Option<&SpanLog>,
    provenance: &[(&str, String)],
) -> std::io::Result<()> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    std::fs::write(
        dir.join(format!("{stem}-trace{}.json", u8::from(args.trace))),
        report::results_json(outcome, args.trace, provenance),
    )?;
    if let Some(spans) = spans {
        spans.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    Ok(())
}

/// Median set-up cost: process CPU seconds (the gated `setup_s`) and wall
/// seconds, over `repeats` set-ups.
#[derive(Debug, Clone, Copy)]
struct SetUpTimes {
    cpu_s: f64,
    wall_s: f64,
    repeats: u64,
}

/// Builds a fixture repeatedly (see [`SETUP_REPEATS`]), discarding all but
/// the last, and returns it with the median set-up times.
fn set_up<T>(
    mut build: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, SetUpTimes), String> {
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    let mut fixture = None;
    let begin = Instant::now();
    while cpu.len() < SETUP_REPEATS || begin.elapsed().as_secs_f64() < SETUP_SECONDS {
        if let Some(previous) = fixture.take() {
            discard(previous);
        }
        let (cpu_start, start) = (host::process_cpu_ns(), Instant::now());
        fixture = Some(build()?);
        wall.push(start.elapsed().as_secs_f64());
        cpu.push((host::process_cpu_ns() - cpu_start) as f64 / 1e9);
    }
    let fixture = fixture.expect("at least one set-up ran");
    let times = SetUpTimes {
        cpu_s: host::median(&cpu),
        wall_s: host::median(&wall),
        repeats: cpu.len() as u64,
    };
    Ok((fixture, times))
}

fn us(histogram: &Histogram, q: f64) -> f64 {
    histogram.quantile_ns(q) / 1e3
}

fn merged(histograms: &[Histogram]) -> Histogram {
    let mut all = Histogram::new();
    for histogram in histograms {
        all.merge(histogram);
    }
    all
}

/// The figures every workload reports: the gated CPU cost, set-up time and
/// peak RSS, and the wall-clock throughput and latency measured with them.
fn common_metrics(
    outcome: &mut Outcome,
    verified: u64,
    (usage, cpu_windows): (&Usage, &[f64]),
    latency: &Histogram,
    setup: SetUpTimes,
    (peak_rss_mb, peak_rss_end_mb): (Option<f64>, f64),
) {
    if peak_rss_mb.is_none() {
        println!("# note: the RSS checkpoint was not reached; peak_rss_mb is read at the end");
    }
    outcome.metrics.extend([
        Metric::timing(
            "cpu_us_per_op",
            host::median(cpu_windows),
            "us",
            cpu_windows.len() as u64,
        ),
        Metric::timing("setup_s", setup.cpu_s, "s", setup.repeats),
        Metric::timing("setup_wall_s", setup.wall_s, "s", setup.repeats),
        Metric::new("peak_rss_mb", peak_rss_mb.unwrap_or(peak_rss_end_mb), "MB"),
        Metric::new("peak_rss_end_mb", peak_rss_end_mb, "MB"),
        Metric::new("ops_per_s", verified as f64 / usage.wall_s, "1/s"),
        Metric::timing("op_p50_us", us(latency, 0.5), "us", latency.count()),
        Metric::timing("op_p99_us", us(latency, 0.99), "us", latency.count()),
        Metric::new(
            "ops_per_cpu_s",
            verified as f64 / usage.cpu_s.max(1e-9),
            "1/s",
        ),
        Metric::new("steal_pct", 100.0 * usage.steal_share, "%"),
    ]);
}

fn fail_ratio(outcome: &Outcome) -> Metric {
    Metric::new(
        "fail_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "ratio",
    )
}

fn timed_serving(args: &Args, threads: usize) -> Result<(Outcome, Option<SpanLog>), String> {
    let (mut fixture, setup) = set_up(
        || serving::setup(args.workload, threads, false),
        serving::teardown,
    )?;
    let run = serving::run(
        &mut fixture,
        args.seed,
        Duration::from_secs(args.seconds),
        Some(serving::rss_checkpoint(args.workload)),
    );
    let peak_rss_end_mb = host::peak_rss_mb();
    serving::teardown(fixture);
    let tally = run.tally;
    let mut outcome = Outcome::default();
    outcome.add_phase(tally.attempted, tally.failed, &tally.failures);
    outcome.fail_all(serving::recompute_checks(&tally.checks));
    let (cache_before, cache_after) = &run.cache;
    let misses = cache_after.misses - cache_before.misses;
    if args.workload == Workload::ServeHot && misses > 0 {
        outcome.fail_all(vec![format!(
            "{misses} serve_hot requests missed the warm report cache"
        )]);
    }
    let verified = outcome.attempted - outcome.failed;
    common_metrics(
        &mut outcome,
        verified,
        (&run.usage, &run.cpu_windows),
        &merged(&tally.latency),
        setup,
        (tally.peak_rss_mb, peak_rss_end_mb),
    );
    let [json, bin] = &tally.latency;
    outcome.metrics.extend([
        Metric::timing("json_p50_us", us(json, 0.5), "us", json.count()),
        Metric::timing("json_p99_us", us(json, 0.99), "us", json.count()),
        Metric::timing("bin_p50_us", us(bin, 0.5), "us", bin.count()),
        Metric::timing("bin_p99_us", us(bin, 0.99), "us", bin.count()),
        fail_ratio(&outcome),
        Metric::new("serial_rechecks", tally.checks.len() as f64, "count"),
    ]);
    Ok((outcome, None))
}

fn timed_mc(args: &Args, threads: usize) -> Result<(Outcome, Option<SpanLog>), String> {
    let (fixture, setup) = set_up(|| mc::setup(threads), drop)?;
    let run = mc::run(
        &fixture,
        args.seed,
        Duration::from_secs(args.seconds),
        false,
    );
    let peak_rss_end_mb = host::peak_rss_mb();
    let mut outcome = Outcome::default();
    outcome.add_phase(run.attempted, run.failed, &run.failures);
    outcome.fail_all(mc::recompute(&fixture.grid, &run.recompute));
    common_metrics(
        &mut outcome,
        run.verified,
        (&run.usage, &run.cpu_windows),
        &run.latency,
        setup,
        (run.peak_rss_mb, peak_rss_end_mb),
    );
    let n = run.latency.count();
    outcome.metrics.extend([
        Metric::timing(
            "estimate_p50_ms",
            run.latency.quantile_ns(0.5) / 1e6,
            "ms",
            n,
        ),
        Metric::timing(
            "estimate_p99_ms",
            run.latency.quantile_ns(0.99) / 1e6,
            "ms",
            n,
        ),
        Metric::new(
            "mc_samples_per_s",
            run.samples_used as f64 / run.usage.wall_s,
            "1/s",
        ),
        fail_ratio(&outcome),
        Metric::new("grid_passes", run.passes as f64, "count"),
        Metric::new("thread_rechecks", run.recompute.len() as f64, "count"),
    ]);
    Ok((outcome, None))
}

/// Report-cache and stage figures of one traced phase.
fn cache_metrics(
    metrics: &mut Vec<Metric>,
    (before, after): &(CacheStats, CacheStats),
    (stages_before, stages_after): &(Vec<StageStats>, Vec<StageStats>),
) {
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    metrics.push(Metric::new(
        "cache.report_hit_ratio",
        ratio(after.hits - before.hits, after.misses - before.misses),
        "ratio",
    ));
    metrics.push(Metric::new(
        "cache.report_evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    ));
    for stage in Stage::ALL {
        let find = |rows: &[StageStats]| {
            rows.iter()
                .find(|row| row.stage == stage)
                .map(|row| row.stats)
                .unwrap_or_default()
        };
        let (b, a) = (find(stages_before), find(stages_after));
        let (hits, misses) = (a.hits - b.hits, a.misses - b.misses);
        // A stage the phase never looked up has no hit ratio.
        if hits + misses > 0 {
            metrics.push(Metric::new(
                format!("stage.{}.hit_ratio", stage.name()),
                ratio(hits, misses),
                "ratio",
            ));
        }
    }
    let entries: usize = stages_after.iter().map(|row| row.stats.entries).sum();
    metrics.push(Metric::new("stage.entries", entries as f64, "count"));
}

/// Tracing overhead: how much lower the traced throughput and how much
/// higher the traced median are than the untraced reference phase's.
fn overhead_metrics(metrics: &mut Vec<Metric>, untraced: (f64, f64), traced: (f64, f64)) {
    metrics.push(Metric::new(
        "trace.overhead_ops_pct",
        100.0 * (untraced.0 - traced.0) / untraced.0,
        "%",
    ));
    metrics.push(Metric::new(
        "trace.overhead_p50_pct",
        100.0 * (traced.1 - untraced.1) / untraced.1,
        "%",
    ));
}

fn distinct(configs: impl IntoIterator<Item = SimConfig>, limit: usize) -> Vec<SimConfig> {
    let mut unique: Vec<SimConfig> = Vec::new();
    for config in configs {
        if unique.len() == limit {
            break;
        }
        if !unique.contains(&config) {
            unique.push(config);
        }
    }
    unique
}

fn traced_serving(args: &Args, threads: usize) -> Result<(Outcome, Option<SpanLog>), String> {
    let half = Duration::from_millis(args.seconds * 500);

    // Untraced reference phase, for the tracing overhead.
    let mut fixture = serving::setup(args.workload, threads, false)?;
    let untraced = serving::run(&mut fixture, args.seed, half, None);
    serving::teardown(fixture);

    // Traced phase on a fresh fixture: same seed, same op stream.
    let mut fixture = serving::setup(args.workload, threads, true)?;
    let traced = serving::run(&mut fixture, args.seed, half, None);
    let mix_configs: Vec<SimConfig> = fixture.mix.iter().map(|r| r.effective_config()).collect();
    serving::teardown(fixture);

    // Allocation phase: counting contends on shared counters, so it runs
    // apart from the span phase, on a fresh fixture with the same stream.
    let mut fixture = serving::setup(args.workload, threads, false)?;
    let allocations_before = ALLOC.allocations();
    ALLOC.set_counting(true);
    let counted = serving::run(&mut fixture, args.seed, half / 2, None);
    ALLOC.set_counting(false);
    let allocations = ALLOC.allocations() - allocations_before;
    serving::teardown(fixture);

    let mut outcome = Outcome::default();
    for tally in [&untraced.tally, &traced.tally, &counted.tally] {
        outcome.add_phase(tally.attempted, tally.failed, &tally.failures);
    }
    let metrics = &mut outcome.metrics;
    let tally = &traced.tally;
    let trace = tally
        .trace
        .as_ref()
        .ok_or("traced phase recorded no trace")?;

    metrics.extend([
        Metric::timing(
            "net.roundtrip_json_us",
            us(&trace.roundtrip[0], 0.5),
            "us",
            trace.roundtrip[0].count(),
        ),
        Metric::timing(
            "net.roundtrip_bin_us",
            us(&trace.roundtrip[1], 0.5),
            "us",
            trace.roundtrip[1].count(),
        ),
        Metric::timing(
            "net.wire_self_us",
            us(&trace.wire_self, 0.5),
            "us",
            trace.wire_self.count(),
        ),
        Metric::timing(
            "handler.serve_us",
            us(&trace.handler, 0.5),
            "us",
            trace.handler.count(),
        ),
        Metric::new(
            "alloc.per_request",
            allocations as f64 / counted.tally.attempted.max(1) as f64,
            "count",
        ),
        Metric::new("trace.unmatched_spans", trace.unmatched as f64, "count"),
    ]);

    // Reconciliation: encode + handler + wire self + decode against the
    // client's whole operation, medians.
    let encode = merged(&trace.encode);
    let decode = merged(&trace.decode);
    let parts =
        us(&encode, 0.5) + us(&trace.handler, 0.5) + us(&trace.wire_self, 0.5) + us(&decode, 0.5);
    let whole = us(&trace.op, 0.5);
    let gap_pct = 100.0 * (parts - whole) / whole;
    metrics.push(Metric::new("trace.reconcile_gap_pct", gap_pct, "%"));
    metrics.extend([
        Metric::timing("client.encode_us", us(&encode, 0.5), "us", encode.count()),
        Metric::timing("client.decode_us", us(&decode, 0.5), "us", decode.count()),
        Metric::timing("client.op_us", whole, "us", trace.op.count()),
    ]);

    let p50 = |tally: &serving::Tally| us(&merged(&tally.latency), 0.5);
    overhead_metrics(
        metrics,
        (
            untraced.tally.verified() as f64 / untraced.usage.wall_s,
            p50(&untraced.tally),
        ),
        (tally.verified() as f64 / traced.usage.wall_s, p50(tally)),
    );
    cache_metrics(metrics, &traced.cache, &traced.stages);

    // Probes over the workload's own requests and replies.
    let codec = probes::codecs(&tally.pairs);
    for (codec_name, times) in ["json", "bin"].iter().zip(codec.times_us) {
        for (call, time) in [
            "request_encode",
            "request_decode",
            "reply_encode",
            "reply_decode",
        ]
        .iter()
        .zip(times)
        {
            metrics.push(Metric::new(
                format!("codec.{codec_name}_{call}_us"),
                time,
                "us",
            ));
        }
    }
    metrics.push(Metric::new(
        "codec.json_bytes_per_op",
        codec.bytes_per_op[0],
        "bytes",
    ));
    metrics.push(Metric::new(
        "codec.bin_bytes_per_op",
        codec.bytes_per_op[1],
        "bytes",
    ));
    let pair_configs: Vec<SimConfig> = tally
        .pairs
        .iter()
        .map(|(r, _)| r.effective_config())
        .collect();
    metrics.push(Metric::new(
        "cache.fingerprint_us",
        probes::fingerprint_us(&pair_configs),
        "us",
    ));
    let replay = match args.workload {
        Workload::ServeHot => mix_configs,
        _ => distinct(pair_configs, PROBE_CONFIGS),
    };
    let defect_configs: Vec<SimConfig> = replay
        .iter()
        .filter(|config| !config.defects().is_none())
        .cloned()
        .collect();
    let defect = probes::defects(&engine(threads), &defect_configs)?;
    metrics.extend([
        Metric::new("defect.sample_map_us", defect.sample_map_us, "us"),
        Metric::new("defect.usable_fraction_us", defect.usable_fraction_us, "us"),
        Metric::new("defect.map_bytes", defect.map_bytes, "bytes"),
    ]);
    let (miss, miss_self) = probes::report_miss_us(threads, &replay)?;
    metrics.push(Metric::new("eval.report_for_miss_us", miss, "us"));
    metrics.push(Metric::new("eval.report_for_miss_self_us", miss_self, "us"));
    if args.workload == Workload::ServeDefectSweep {
        metrics.push(Metric::new(
            "engine.speedup_1_to_n",
            probes::defect_speedup(&defect_configs, threads)?,
            "ratio",
        ));
    }

    let mut checks = Vec::new();
    if codec.mismatches > 0 {
        checks.push(format!("{} codec round trips differ", codec.mismatches));
    }
    if trace.unmatched > 0 {
        checks.push(format!(
            "{} handler spans outside their round trip",
            trace.unmatched
        ));
    }
    if gap_pct.abs() > RECONCILE_TOLERANCE_PCT {
        checks.push(format!(
            "per-layer medians add up to {parts:.2} us against a {whole:.2} us client median \
             ({gap_pct:+.1} %, tolerance {RECONCILE_TOLERANCE_PCT} %)"
        ));
    }
    outcome.fail_all(checks);
    Ok((outcome, traced.tally.trace.and_then(|trace| trace.log)))
}

fn traced_mc(args: &Args, threads: usize) -> Result<(Outcome, Option<SpanLog>), String> {
    let half = Duration::from_millis(args.seconds * 500);

    let fixture = mc::setup(threads)?;
    let untraced = mc::run(&fixture, args.seed, half, false);
    drop(fixture);

    // Fresh engine: the same seed replays the same estimates, which would
    // otherwise hit the Monte-Carlo stage.
    let fixture = mc::setup(threads)?;
    let cache_before = fixture.engine.cache_stats();
    let stages_before = fixture.engine.stage_stats();
    let mut traced = mc::run(&fixture, args.seed, half, true);
    let cache = (cache_before, fixture.engine.cache_stats());
    let stages = (stages_before, fixture.engine.stage_stats());

    let mut outcome = Outcome::default();
    for run in [&untraced, &traced] {
        outcome.add_phase(run.attempted, run.failed, &run.failures);
    }
    let metrics = &mut outcome.metrics;
    overhead_metrics(
        metrics,
        (
            untraced.verified as f64 / untraced.usage.wall_s,
            us(&untraced.latency, 0.5),
        ),
        (
            traced.verified as f64 / traced.usage.wall_s,
            us(&traced.latency, 0.5),
        ),
    );
    metrics.push(Metric::timing(
        "mc.estimate_us",
        us(&traced.latency, 0.5),
        "us",
        traced.latency.count(),
    ));
    cache_metrics(metrics, &cache, &stages);

    let code = CodeSpec::new(
        CodeKind::BalancedGray,
        LogicLevel::BINARY,
        DISTURBANCE_CODE_LENGTH,
    )
    .map_err(|error| error.to_string())?;
    let kernel_config = paper_base_config()
        .map_err(|error| error.to_string())?
        .with_code(code);
    let kernel = probes::kernel_ns_per_cell(&kernel_config)?;
    for ((name, _), ns) in stream::MC_DISTURBANCES.iter().zip(kernel) {
        metrics.push(Metric::new(
            format!("mc.kernel_ns_per_cell.{name}"),
            ns,
            "ns",
        ));
    }

    let replay_engine = engine(threads);
    mc::warm(&replay_engine, &fixture.grid)?;
    let sampling = probes::sampling(&replay_engine, &fixture.grid, args.seed)?;
    metrics.extend([
        Metric::new(
            "mc.samples_used_per_estimate.fixed",
            sampling.samples_used[0],
            "count",
        ),
        Metric::new(
            "mc.samples_used_per_estimate.adaptive",
            sampling.samples_used[1],
            "count",
        ),
        Metric::new("mc.sampling_spend_ratio", sampling.spend_ratio, "ratio"),
        Metric::new("alloc.per_estimate.fixed", sampling.allocations[0], "count"),
        Metric::new(
            "alloc.per_estimate.adaptive",
            sampling.allocations[1],
            "count",
        ),
        Metric::new(
            "engine.speedup_1_to_n",
            probes::estimate_speedup(&fixture.grid, args.seed, threads, SPEEDUP_ESTIMATES)?,
            "ratio",
        ),
    ]);
    let report_configs = distinct(
        fixture.grid.cells.iter().map(|cell| {
            cell.config
                .clone()
                .with_disturbance(stream::MC_DISTURBANCES[cell.disturbance].1)
        }),
        PROBE_CONFIGS,
    );
    let (miss, miss_self) = probes::report_miss_us(threads, &report_configs)?;
    metrics.push(Metric::new("eval.report_for_miss_us", miss, "us"));
    metrics.push(Metric::new("eval.report_for_miss_self_us", miss_self, "us"));
    Ok((outcome, traced.log.take()))
}
