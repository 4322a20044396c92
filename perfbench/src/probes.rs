//! Per-layer probes of the traced run. Each probe replays the workload's
//! own inputs through one layer's public entry points and times the calls
//! from here. The probes are independent of each other, so deleting an
//! entry point from the program removes exactly one probe.

use std::hint::black_box;
use std::time::Instant;

use crossbar_array::DefectModel;

use decoder_sim::{
    DefectKind, DisturbanceModel, ExecutionEngine, NormalSource, PlatformReport, ReportCache,
    SimConfig, SimulationPlatform, DEFAULT_CHUNK_SIZE,
};
use mspt_serve::{
    ok_response, ok_response_bin, parse_reply_any, request_from_bin, request_to_bin, ReportRequest,
    WireReply,
};

use crate::engine;
use crate::host::median;
use crate::mc;
use crate::stream::{McGrid, McMode, McStream, MC_DISTURBANCES};
use crate::trace::ALLOC;

/// Timed batches per probe; the probe reports the median batch. The
/// probes keep every sample and take exact medians: they have few samples,
/// and a histogram would round each median to its bucket.
const BATCHES: usize = 15;
/// Times each defect map is sampled and composed.
const DEFECT_REPEATS: usize = 5;

/// Median over [`BATCHES`] batches of the mean time per call, in
/// microseconds, of `call` over every item.
fn per_call_us<T>(items: &[T], mut call: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for item in items {
            call(item);
        }
        batches.push(micros(start) / items.len() as f64);
    }
    median(&batches)
}

/// Microseconds since `start`.
fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Codec figures over the workload's request/reply pairs.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecFigures {
    /// `[json, bin]` × (request encode, request decode, reply encode,
    /// reply decode), microseconds per call.
    pub times_us: [[f64; 4]; 2],
    /// `[json, bin]` request plus reply payload bytes per operation.
    pub bytes_per_op: [f64; 2],
    /// Decoded values that differed from the encoded ones.
    pub mismatches: u64,
}

/// Replays the pairs through both codecs' encoders and decoders: the
/// client side (`to_json_string`, `request_to_bin`, `parse_reply_any`) and
/// the server side (`from_json_str`, `request_from_bin`, `ok_response`,
/// `ok_response_bin`) of every request.
#[must_use]
pub fn codecs(pairs: &[(ReportRequest, PlatformReport)]) -> CodecFigures {
    let mut figures = CodecFigures::default();
    if pairs.is_empty() {
        return figures;
    }
    let json_requests: Vec<String> = pairs.iter().map(|(r, _)| r.to_json_string()).collect();
    let bin_requests: Vec<Vec<u8>> = pairs.iter().map(|(r, _)| request_to_bin(r)).collect();
    let json_replies: Vec<String> = pairs.iter().map(|(_, p)| ok_response(p)).collect();
    let bin_replies: Vec<Vec<u8>> = pairs.iter().map(|(_, p)| ok_response_bin(p)).collect();
    for (index, (request, report)) in pairs.iter().enumerate() {
        let same_request = |decoded: Option<ReportRequest>| decoded.as_ref() == Some(request);
        let same_report = |bytes: &[u8]| matches!(parse_reply_any(bytes), Ok(WireReply::Report(ref decoded)) if decoded == report);
        let ok = same_request(ReportRequest::from_json_str(&json_requests[index]).ok())
            && same_request(request_from_bin(&bin_requests[index]).ok())
            && same_report(json_replies[index].as_bytes())
            && same_report(&bin_replies[index]);
        figures.mismatches += u64::from(!ok);
    }
    figures.times_us[0] = [
        per_call_us(pairs, |(r, _)| {
            black_box(r.to_json_string());
        }),
        per_call_us(&json_requests, |s| {
            let _ = black_box(ReportRequest::from_json_str(s));
        }),
        per_call_us(pairs, |(_, p)| {
            black_box(ok_response(p));
        }),
        per_call_us(&json_replies, |s| {
            let _ = black_box(parse_reply_any(s.as_bytes()));
        }),
    ];
    figures.times_us[1] = [
        per_call_us(pairs, |(r, _)| {
            black_box(request_to_bin(r));
        }),
        per_call_us(&bin_requests, |b| {
            let _ = black_box(request_from_bin(b));
        }),
        per_call_us(pairs, |(_, p)| {
            black_box(ok_response_bin(p));
        }),
        per_call_us(&bin_replies, |b| {
            let _ = black_box(parse_reply_any(b));
        }),
    ];
    let n = pairs.len() as f64;
    let json_bytes: usize = (0..pairs.len())
        .map(|i| json_requests[i].len() + json_replies[i].len())
        .sum();
    let bin_bytes: usize = (0..pairs.len())
        .map(|i| bin_requests[i].len() + bin_replies[i].len())
        .sum();
    figures.bytes_per_op = [json_bytes as f64 / n, bin_bytes as f64 / n];
    figures
}

/// `ReportCache::fingerprint` per config, in microseconds.
#[must_use]
pub fn fingerprint_us(configs: &[SimConfig]) -> f64 {
    per_call_us(configs, |config| {
        black_box(ReportCache::fingerprint(config));
    })
}

/// Defect-layer figures over the configs that sample a defect map.
#[derive(Debug, Default, Clone, Copy)]
pub struct DefectFigures {
    /// Median `ExecutionEngine::sample_defect_map`, microseconds.
    pub sample_map_us: f64,
    /// Median `DefectMap::usable_fraction`, microseconds.
    pub usable_fraction_us: f64,
    /// Heap bytes one sampled map keeps alive.
    pub map_bytes: f64,
}

/// Samples the defect map of each config on `engine` and composes it,
/// [`DEFECT_REPEATS`] times each.
///
/// # Errors
///
/// Returns a message when sampling fails.
pub fn defects(engine: &ExecutionEngine, configs: &[SimConfig]) -> Result<DefectFigures, String> {
    let (mut sample, mut usable) = (Vec::new(), Vec::new());
    let mut map_bytes = 0.0;
    for parameters in configs.iter().filter_map(map_parameters) {
        let (model, edge, seed) = parameters?;
        for _ in 0..DEFECT_REPEATS {
            let live_before = ALLOC.live_bytes();
            ALLOC.set_counting(true);
            let start = Instant::now();
            let map = engine
                .sample_defect_map(&model, edge, edge, seed)
                .map_err(|error| format!("sample_defect_map: {error}"));
            sample.push(micros(start));
            ALLOC.set_counting(false);
            let map = map?;
            map_bytes = (ALLOC.live_bytes() - live_before) as f64;
            let start = Instant::now();
            black_box(map.usable_fraction());
            usable.push(micros(start));
        }
    }
    Ok(DefectFigures {
        sample_map_us: median(&sample),
        usable_fraction_us: median(&usable),
        map_bytes,
    })
}

/// `report_for` on a fresh engine over `configs` (each a report-cache
/// miss), and its self time: what is left after subtracting the same
/// config's defect-map sampling and composition. Microseconds, medians.
///
/// # Errors
///
/// Returns a message when an evaluation fails.
pub fn report_miss_us(threads: usize, configs: &[SimConfig]) -> Result<(f64, f64), String> {
    let fresh = engine(threads);
    let defect_engine = engine(threads);
    let (mut total, mut own) = (Vec::new(), Vec::new());
    for config in configs {
        let start = Instant::now();
        fresh
            .report_for(config)
            .map_err(|error| format!("report_for: {error}"))?;
        let elapsed = micros(start);
        total.push(elapsed);
        let defect = defects(&defect_engine, std::slice::from_ref(config))?;
        own.push((elapsed - defect.sample_map_us - defect.usable_fraction_us).max(0.0));
    }
    Ok((median(&total), median(&own)))
}

/// `DisturbanceModel::sample_matrix` over one chunk of samples of the
/// paper's balanced-Gray decoder, in nanoseconds per matrix cell, for each
/// disturbance model of the grid.
///
/// # Errors
///
/// Returns a message when the configuration fails to evaluate.
pub fn kernel_ns_per_cell(config: &SimConfig) -> Result<[f64; 3], String> {
    let variability = SimulationPlatform::new(config.clone())
        .variability()
        .map_err(|error| error.to_string())?;
    let model = config
        .variability_model()
        .map_err(|error| error.to_string())?;
    let regions = variability.region_count();
    let mut sigmas = Vec::with_capacity(variability.nanowire_count() * regions);
    for wire in 0..variability.nanowire_count() {
        for region in 0..regions {
            let doses = variability
                .dose_counts()
                .count(wire, region)
                .map_err(|error| error.to_string())?;
            sigmas.push(model.sigma_after_doses(doses).value());
        }
    }
    let mut out = vec![0.0; sigmas.len()];
    let mut figures = [0.0; 3];
    for (slot, (_, kind)) in MC_DISTURBANCES.iter().enumerate() {
        let disturbance: Box<dyn DisturbanceModel> =
            kind.model().map_err(|error| error.to_string())?;
        let mut draws = NormalSource::from_seed(0x6b65_726e_656c);
        let mut chunks = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start = Instant::now();
            for _ in 0..DEFAULT_CHUNK_SIZE {
                disturbance.sample_matrix(&sigmas, regions, &mut draws, &mut out);
                black_box(&out);
            }
            chunks.push(micros(start) * 1e3);
        }
        figures[slot] = median(&chunks) / (DEFAULT_CHUNK_SIZE * sigmas.len()) as f64;
    }
    Ok(figures)
}

/// Sampling figures of one full pass over the grid.
#[derive(Debug, Default, Clone, Copy)]
pub struct SamplingFigures {
    /// Mean samples drawn per estimate, `[fixed, adaptive]`.
    pub samples_used: [f64; 2],
    /// Samples drawn over the sample ceilings requested (`SamplingStats`).
    pub spend_ratio: f64,
    /// Mean allocations per estimate, `[fixed, adaptive]`.
    pub allocations: [f64; 2],
}

/// Replays the first full pass of the seeded grid order on `engine`. The
/// counts repeat exactly for a given seed.
///
/// # Errors
///
/// Returns a message when an estimate fails.
pub fn sampling(
    engine: &ExecutionEngine,
    grid: &McGrid,
    seed: u64,
) -> Result<SamplingFigures, String> {
    let mut stream = McStream::new(seed, grid.cells.len());
    let before = engine.sampling_stats();
    let mut used = [0u64; 2];
    let mut allocations = [0u64; 2];
    let mut counts = [0u64; 2];
    for _ in 0..grid.cells.len() {
        let (index, sampling_seed) = stream.next_op();
        let cell = &grid.cells[index];
        let mode = usize::from(cell.mode == McMode::Adaptive);
        let allocations_before = ALLOC.allocations();
        ALLOC.set_counting(true);
        let outcome = mc::estimate(engine, cell, cell.mode.config(sampling_seed));
        ALLOC.set_counting(false);
        allocations[mode] += ALLOC.allocations() - allocations_before;
        used[mode] += outcome?.samples_used as u64;
        counts[mode] += 1;
    }
    let after = engine.sampling_stats();
    let mean = |total: [u64; 2]| [0, 1].map(|mode| total[mode] as f64 / counts[mode].max(1) as f64);
    Ok(SamplingFigures {
        samples_used: mean(used),
        spend_ratio: (after.samples_used - before.samples_used) as f64
            / (after.samples_requested - before.samples_requested).max(1) as f64,
        allocations: mean(allocations),
    })
}

/// The first `count` estimates of the seeded grid order timed on a warm
/// 1-thread engine and on a warm `threads`-thread engine: the ratio of the
/// two totals.
///
/// # Errors
///
/// Returns a message when an estimate fails.
pub fn estimate_speedup(
    grid: &McGrid,
    seed: u64,
    threads: usize,
    count: usize,
) -> Result<f64, String> {
    let mut totals = [0.0; 2];
    for (slot, engine_threads) in [1, threads].into_iter().enumerate() {
        let engine = engine(engine_threads);
        mc::warm(&engine, grid)?;
        let mut stream = McStream::new(seed, grid.cells.len());
        let start = Instant::now();
        for _ in 0..count {
            let (index, sampling_seed) = stream.next_op();
            let cell = &grid.cells[index];
            mc::estimate(&engine, cell, cell.mode.config(sampling_seed))?;
        }
        totals[slot] = start.elapsed().as_secs_f64();
    }
    Ok(totals[0] / totals[1])
}

/// The defect maps of `configs` sampled on a 1-thread engine and on a
/// `threads`-thread engine: the ratio of the two totals.
///
/// # Errors
///
/// Returns a message when sampling fails.
pub fn defect_speedup(configs: &[SimConfig], threads: usize) -> Result<f64, String> {
    let maps = configs
        .iter()
        .filter_map(map_parameters)
        .collect::<Result<Vec<_>, String>>()?;
    let mut totals = [0.0; 2];
    for (slot, engine_threads) in [1, threads].into_iter().enumerate() {
        let engine = engine(engine_threads);
        let start = Instant::now();
        for (model, edge, seed) in &maps {
            engine
                .sample_defect_map(model, *edge, *edge, *seed)
                .map_err(|error| format!("sample_defect_map: {error}"))?;
        }
        totals[slot] = start.elapsed().as_secs_f64();
    }
    Ok(totals[0] / totals[1])
}

/// The defect model, map edge and map seed of a config that samples a
/// defect map.
fn map_parameters(config: &SimConfig) -> Option<Result<(DefectModel, usize, u64), String>> {
    let DefectKind::Sampled(defects) = config.defects() else {
        return None;
    };
    Some(
        config
            .crossbar_spec()
            .map(|spec| (defects.model(), spec.nanowires_per_layer(), defects.seed()))
            .map_err(|error| error.to_string()),
    )
}
