//! The benchmark's own contract: seeded streams, the size of the defect
//! sweep's working set, and metric names that match `BENCHMARK.json`.

use std::collections::HashSet;
use std::path::Path;

use decoder_sim::{Stage, DEFAULT_CACHE_CAPACITY};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::stream::{code_configs, hot_mix, HotStream, McGrid, McStream, SweepStream};

fn hot_ops(seed: u64, connection: usize, count: usize) -> Vec<(usize, bool)> {
    let mut stream = HotStream::new(seed, connection, hot_mix().len());
    (0..count)
        .map(|_| {
            let (index, codec) = stream.next_op();
            (index, codec == mspt_serve::WireCodec::Binary)
        })
        .collect()
}

fn sweep_ops(seed: u64, count: usize) -> Vec<String> {
    let mut stream = SweepStream::new(seed, 0);
    (0..count)
        .map(|_| format!("{:?}", stream.next_op()))
        .collect()
}

fn mc_ops(seed: u64, count: usize) -> Vec<(usize, u64)> {
    let mut stream = McStream::new(seed, McGrid::new().cells.len());
    (0..count).map(|_| stream.next_op()).collect()
}

#[test]
fn the_same_seed_gives_the_same_stream_and_another_seed_another() {
    assert_eq!(hot_ops(7, 0, 500), hot_ops(7, 0, 500));
    assert_ne!(hot_ops(7, 0, 500), hot_ops(8, 0, 500));
    assert_ne!(hot_ops(7, 0, 500), hot_ops(7, 1, 500));
    assert_eq!(sweep_ops(7, 300), sweep_ops(7, 300));
    assert_ne!(sweep_ops(7, 300), sweep_ops(8, 300));
    assert_eq!(mc_ops(7, 300), mc_ops(7, 300));
    assert_ne!(mc_ops(7, 300), mc_ops(8, 300));
}

#[test]
fn serve_hot_draws_a_zipf_mix_of_both_codecs() {
    let ops = hot_ops(3, 0, 20_000);
    let mut counts = vec![0usize; hot_mix().len()];
    for (index, _) in &ops {
        counts[*index] += 1;
    }
    assert!(counts.iter().all(|&count| count > 0), "{counts:?}");
    assert!(counts[0] > 3 * counts[counts.len() - 1], "{counts:?}");
    let binary = ops.iter().filter(|(_, binary)| *binary).count();
    assert!((9_000..11_000).contains(&binary), "{binary}");
}

#[test]
fn serve_defect_sweep_outgrows_the_default_cache() {
    // 8000 requests: 20 s at 400 req/s, below the throughput of a
    // contended 2-core host.
    let mut stream = SweepStream::new(1, 0);
    let mut distinct = HashSet::new();
    let mut repeats = 0;
    for _ in 0..8_000 {
        let op = stream.next_op();
        repeats += usize::from(op.repeat_of.is_some());
        assert!(op.request.defects.is_some());
        distinct.insert(format!("{:?}", op.request));
    }
    assert!(
        distinct.len() > DEFAULT_CACHE_CAPACITY,
        "{} distinct configs",
        distinct.len()
    );
    assert!((1_800..2_200).contains(&repeats), "{repeats} repeats");
}

#[test]
fn the_mc_grid_covers_every_cell_once_per_pass() {
    let grid = McGrid::new();
    assert_eq!(code_configs().len(), 12);
    assert_eq!(grid.cells.len(), 12 * 3 * 2 * 2);
    let pass: HashSet<usize> = mc_ops(5, grid.cells.len())
        .into_iter()
        .map(|(cell, _)| cell)
        .collect();
    assert_eq!(pass.len(), grid.cells.len());
}

/// `(name, unit)` pairs of one metric array of `BENCHMARK.json`, read with
/// a small scanner because the benchmark carries no JSON dependency.
fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array end")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("key") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("value start") + 1;
        let close = open + rest[open..].find('"').expect("value end");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn pairs(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(name, unit)| ((*name).to_string(), (*unit).to_string()))
        .collect()
}

#[test]
fn emitted_metric_names_match_benchmark_json() {
    assert_eq!(benchmark_metrics("end_to_end"), pairs(&END_TO_END));
    assert_eq!(benchmark_metrics("per_layer"), pairs(&PER_LAYER));
    for stage in Stage::ALL {
        let name = format!("stage.{}.hit_ratio", stage.name());
        assert!(
            PER_LAYER.iter().any(|(metric, _)| *metric == name),
            "{name} missing from PER_LAYER"
        );
    }
}
