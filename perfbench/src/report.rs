//! Metric names, the result line, provenance and the results file.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::cli::Args;

/// The end-to-end metrics every workload prints with `--trace 0`, in
/// `BENCHMARK.json` order: name and unit. Wall-clock throughput and
/// latency are measured and written to the results file too, but on a
/// shared host they swing with the CPU time other guests take, so the
/// gated figures are the ones that do not.
pub const END_TO_END: [(&str, &str); 3] = [
    ("cpu_us_per_op", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload prints with `--trace 1`, in
/// `BENCHMARK.json` order: name and unit. A workload that does not drive
/// a layer reports 0 for it and lists it under `not_applicable` in its
/// results file.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("net.roundtrip_json_us", "us"),
    ("net.roundtrip_bin_us", "us"),
    ("net.wire_self_us", "us"),
    ("handler.serve_us", "us"),
    ("codec.json_request_encode_us", "us"),
    ("codec.json_request_decode_us", "us"),
    ("codec.json_reply_encode_us", "us"),
    ("codec.json_reply_decode_us", "us"),
    ("codec.bin_request_encode_us", "us"),
    ("codec.bin_request_decode_us", "us"),
    ("codec.bin_reply_encode_us", "us"),
    ("codec.bin_reply_decode_us", "us"),
    ("codec.json_bytes_per_op", "bytes"),
    ("codec.bin_bytes_per_op", "bytes"),
    ("cache.fingerprint_us", "us"),
    ("cache.report_hit_ratio", "ratio"),
    ("cache.report_evictions", "count"),
    ("stage.variability.hit_ratio", "ratio"),
    ("stage.addressability.hit_ratio", "ratio"),
    ("stage.contact-layout.hit_ratio", "ratio"),
    ("stage.cave-yield.hit_ratio", "ratio"),
    ("stage.crossbar-area.hit_ratio", "ratio"),
    ("stage.defect-map.hit_ratio", "ratio"),
    ("stage.composite.hit_ratio", "ratio"),
    ("stage.monte-carlo.hit_ratio", "ratio"),
    ("stage.entries", "count"),
    ("defect.sample_map_us", "us"),
    ("defect.usable_fraction_us", "us"),
    ("defect.map_bytes", "bytes"),
    ("eval.report_for_miss_us", "us"),
    ("eval.report_for_miss_self_us", "us"),
    ("mc.kernel_ns_per_cell.gaussian", "ns"),
    ("mc.kernel_ns_per_cell.laplace", "ns"),
    ("mc.kernel_ns_per_cell.correlated", "ns"),
    ("mc.samples_used_per_estimate.fixed", "count"),
    ("mc.samples_used_per_estimate.adaptive", "count"),
    ("mc.sampling_spend_ratio", "ratio"),
    ("engine.speedup_1_to_n", "ratio"),
    ("alloc.per_request", "count"),
    ("alloc.per_estimate.fixed", "count"),
    ("alloc.per_estimate.adaptive", "count"),
    ("trace.overhead_ops_pct", "%"),
    ("trace.overhead_p50_pct", "%"),
    ("trace.reconcile_gap_pct", "%"),
    ("trace.unmatched_spans", "count"),
];

/// One measured figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Number of samples behind a timing, when it is one.
    pub samples: Option<u64>,
}

impl Metric {
    /// A figure without a sample count.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    /// A timing with its sample count.
    #[must_use]
    pub fn timing(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            samples: Some(samples),
            ..Metric::new(name, value, unit)
        }
    }
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, including failed post-run checks.
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// Every figure measured, contract metrics and details alike.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds the operations of one measured phase.
    pub fn add_phase(&mut self, attempted: u64, failed: u64, failures: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(failures.iter().take(room).cloned());
    }

    /// Records failures found after the timed phase.
    pub fn fail_all(&mut self, messages: Vec<String>) {
        self.failed += messages.len() as u64;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(messages.into_iter().take(room));
    }

    /// Whether every operation and check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|metric| metric.name == name)
            .map(|metric| metric.value)
    }
}

/// Renders `value` as a JSON number.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Renders `text` as a JSON string.
fn string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The metric set of a mode: end-to-end or per-layer.
#[must_use]
pub fn contract(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The result line: `correct`, `attempted`, `failed` and exactly the
/// contract metrics of the mode, a metric the workload does not measure
/// reading 0.
#[must_use]
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = contract(trace)
        .iter()
        .map(|(name, unit)| {
            let value = outcome.value(name).unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(name),
                number(value),
                string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Contract metrics of the mode that the workload does not measure.
#[must_use]
pub fn not_applicable(outcome: &Outcome, trace: bool) -> Vec<&'static str> {
    contract(trace)
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| outcome.value(name).is_none())
        .collect()
}

/// Where and on what the benchmark ran.
#[must_use]
pub fn provenance(
    args: &Args,
    engine_threads: usize,
    connections: usize,
) -> Vec<(&'static str, String)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", crate::nproc().to_string()),
        ("cpu_model", cpu_model),
        ("rustc", command_output("rustc", &["--version"])),
        ("git_commit", git_commit()),
        ("engine_threads", engine_threads.to_string()),
        ("connections", connections.to_string()),
        ("mspt_env", mspt_env()),
    ]
}

/// The `MSPT_*` environment variables that are set, as `NAME=value`
/// pairs. The benchmark passes every engine, cache and server setting
/// explicitly, so none of them shapes a workload; they are recorded so
/// that a run made with one set can still be told apart.
fn mspt_env() -> String {
    let mut set: Vec<String> = std::env::vars()
        .filter(|(name, _)| name.starts_with("MSPT_"))
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    set.sort();
    if set.is_empty() {
        "none".to_string()
    } else {
        set.join(" ")
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |text| text.trim().to_string())
}

/// The commit of the working directory, when it is a git checkout of its
/// own (never one of an enclosing directory).
fn git_commit() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(Path::to_path_buf));
    let mut command = Command::new("git");
    command.args(["rev-parse", "HEAD"]);
    if let Some(ceiling) = ceiling {
        command.env("GIT_CEILING_DIRECTORIES", ceiling);
    }
    command
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |text| text.trim().to_string(),
        )
}

/// The results file: provenance, verdict, every metric with its sample
/// count, and the contract metrics the workload does not measure.
#[must_use]
pub fn results_json(outcome: &Outcome, trace: bool, provenance: &[(&str, String)]) -> String {
    let provenance: Vec<String> = provenance
        .iter()
        .map(|(key, value)| format!("    {}: {}", string(key), string(value)))
        .collect();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|metric| {
            let samples = metric
                .samples
                .map_or_else(String::new, |n| format!(", \"samples\": {n}"));
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}{samples}}}",
                string(&metric.name),
                number(metric.value),
                string(metric.unit)
            )
        })
        .collect();
    let failures: Vec<String> = outcome.failures.iter().map(|f| string(f)).collect();
    let missing: Vec<String> = not_applicable(outcome, trace)
        .into_iter()
        .map(string)
        .collect();
    format!(
        "{{\n  \"machine\": {{\n{}\n  }},\n  \"correct\": {},\n  \"attempted\": {},\n  \
         \"failed\": {},\n  \"failures\": [{}],\n  \"metrics\": {{\n{}\n  }},\n  \
         \"not_applicable\": [{}]\n}}\n",
        provenance.join(",\n"),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        failures.join(", "),
        metrics.join(",\n"),
        missing.join(", ")
    )
}
