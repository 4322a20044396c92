//! The `mc_estimate` workload: one in-process caller running addressability
//! estimates through `Evaluation::builder(..).monte_carlo(..).run(&engine)`.

use std::time::{Duration, Instant};

use decoder_sim::{
    Evaluation, ExecutionEngine, MonteCarloConfig, MonteCarloOutcome, SimulationPlatform,
};
use rand::Rng;

use crate::engine;
use crate::hist::Histogram;
use crate::host::{self, Snapshot, Usage};
use crate::stream::{self, McCell, McGrid, McMode, McStream, CHECK_DOMAIN, MC_DISTURBANCES};
use crate::trace::SpanLog;

/// Significance of the exact binomial test a Gaussian estimate's nanowire
/// count must pass against the analytic profile. A run makes about 10⁴
/// such tests, so a false alarm is expected once in 10⁵ runs.
const ANALYTIC_CHECK_ALPHA: f64 = 1e-9;
/// Slack for floating-point rounding when an estimate is compared with its
/// own confidence interval: at p̂ = 1 the Wilson upper bound can round to
/// one ulp below 1.
const ROUNDING_SLACK: f64 = 1e-12;
/// Share of estimates recomputed on a 1-thread engine after the run.
const RECOMPUTE_SHARE: f64 = 1.0 / 32.0;
/// Most estimates recomputed after the run.
const MAX_RECOMPUTES: usize = 12;
/// Estimates whose spans are written out.
const SPAN_OPS: u64 = 2_000;

/// The engine and grid, warm and ready for the first estimate.
#[derive(Debug)]
pub struct McFixture {
    /// The engine the estimates run on.
    pub engine: ExecutionEngine,
    /// The grid of cells.
    pub grid: McGrid,
    /// Analytic addressability per (code, window) config.
    analytic: Vec<Vec<f64>>,
    /// `ln k!` for every sample count an estimate can use.
    ln_factorials: Vec<f64>,
}

/// Builds the engine, warms its report cache and variability stage for
/// every grid configuration, and computes the analytic profiles the
/// Gaussian estimates are checked against.
///
/// # Errors
///
/// Returns a message when an evaluation fails.
pub fn setup(threads: usize) -> Result<McFixture, String> {
    let engine = engine(threads);
    let grid = McGrid::new();
    warm(&engine, &grid)?;
    let analytic = grid
        .windows
        .iter()
        .map(|config| {
            SimulationPlatform::new(config.clone())
                .addressability()
                .map(|profile| profile.probabilities().to_vec())
        })
        .collect::<decoder_sim::Result<_>>()
        .map_err(|error| format!("analytic profile: {error}"))?;
    let mut ln_factorials =
        vec![0.0; stream::MC_ADAPTIVE_MAX_SAMPLES.max(stream::MC_FIXED_SAMPLES) + 1];
    for k in 1..ln_factorials.len() {
        ln_factorials[k] = ln_factorials[k - 1] + (k as f64).ln();
    }
    Ok(McFixture {
        engine,
        grid,
        analytic,
        ln_factorials,
    })
}

/// Evaluates every grid configuration once, so estimates hit the report
/// cache and the variability stage.
///
/// # Errors
///
/// Returns a message when an evaluation fails.
pub fn warm(engine: &ExecutionEngine, grid: &McGrid) -> Result<(), String> {
    for config in &grid.windows {
        for (_, kind) in MC_DISTURBANCES {
            Evaluation::builder(config.clone())
                .disturbance(kind)
                .run(engine)
                .map_err(|error| format!("warm-up: {error}"))?;
        }
    }
    Ok(())
}

/// Runs one estimate of `cell` with sampling seed `seed`.
///
/// # Errors
///
/// Returns a message when the evaluation fails or returns no estimate.
pub fn estimate(
    engine: &ExecutionEngine,
    cell: &McCell,
    sampling: MonteCarloConfig,
) -> Result<MonteCarloOutcome, String> {
    let outcome = Evaluation::builder(cell.config.clone())
        .disturbance(MC_DISTURBANCES[cell.disturbance].1)
        .monte_carlo(sampling)
        .run(engine)
        .map_err(|error| format!("estimate: {error}"))?;
    if outcome.report.is_none() {
        return Err("estimate returned no report".to_string());
    }
    outcome
        .monte_carlo
        .ok_or_else(|| "estimate returned no Monte-Carlo outcome".to_string())
}

/// Checks an estimate's internal consistency, and each nanowire of a
/// Gaussian estimate against the analytic profile with an exact binomial
/// test. The check does not depend on which random stream the kernel
/// draws from, only on the distribution it samples.
///
/// # Errors
///
/// Returns a message describing the first violation.
pub fn check(
    fixture: &McFixture,
    cell: &McCell,
    sampling: &MonteCarloConfig,
    outcome: &MonteCarloOutcome,
) -> Result<(), String> {
    let used = outcome.samples_used;
    let cap = sampling.sample_cap();
    if used == 0 || used > cap || (cell.mode == McMode::Fixed && used != cap) {
        return Err(format!("{used} samples used of a {cap}-sample budget"));
    }
    let analytic = &fixture.analytic[cell.window_config];
    let probabilities = outcome.profile.probabilities();
    let n = probabilities.len();
    if n != analytic.len() || outcome.ci_lower.len() != n || outcome.ci_upper.len() != n {
        return Err(format!(
            "estimate covers {n} nanowires, the analytic profile {}",
            analytic.len()
        ));
    }
    for (wire, &p) in probabilities.iter().enumerate() {
        let (lower, upper) = (outcome.ci_lower[wire], outcome.ci_upper[wire]);
        if !(lower - ROUNDING_SLACK <= p && p <= upper + ROUNDING_SLACK) {
            return Err(format!(
                "nanowire {wire}: p = {p} outside its own interval [{lower}, {upper}]"
            ));
        }
        if MC_DISTURBANCES[cell.disturbance].0 == "gaussian" {
            let successes = (p * used as f64).round() as usize;
            let exact = analytic[wire];
            if !binomial_consistent(&fixture.ln_factorials, successes, used, exact) {
                return Err(format!(
                    "nanowire {wire}: {successes} of {used} Gaussian samples addressable is \
                     inconsistent with the analytic {exact} (two-sided p < {ANALYTIC_CHECK_ALPHA})"
                ));
            }
        }
    }
    Ok(())
}

/// Exact two-sided binomial test: whether `x` successes in `n` trials are
/// consistent with success probability `q` at [`ANALYTIC_CHECK_ALPHA`].
/// Sums the tail from `x` away from the mean until it exceeds `α/2` or
/// stops growing.
fn binomial_consistent(ln_factorials: &[f64], x: usize, n: usize, q: f64) -> bool {
    if q <= 0.0 || q >= 1.0 {
        return (q <= 0.0 && x == 0) || (q >= 1.0 && x == n);
    }
    let half_alpha = ANALYTIC_CHECK_ALPHA / 2.0;
    let odds = q / (1.0 - q);
    let ln_pmf = ln_factorials[n] - ln_factorials[x] - ln_factorials[n - x]
        + x as f64 * q.ln()
        + (n - x) as f64 * (-q).ln_1p();
    let upward = x as f64 >= q * n as f64;
    let (mut k, mut term) = (x, ln_pmf.exp());
    let mut tail = term;
    while tail <= half_alpha {
        if upward && k < n {
            term *= (n - k) as f64 / (k + 1) as f64 * odds;
            k += 1;
        } else if !upward && k > 0 {
            term *= k as f64 / (n - k + 1) as f64 / odds;
            k -= 1;
        } else {
            break;
        }
        tail += term;
        if term <= tail * 1e-17 && tail > 0.0 {
            break;
        }
    }
    tail > half_alpha
}

/// What one `mc_estimate` phase observed.
#[derive(Debug, Default)]
pub struct McRun {
    /// Wall time, CPU time and steal over the measured passes.
    pub usage: Usage,
    /// CPU microseconds per verified estimate in each measured pass.
    pub cpu_windows: Vec<f64>,
    /// Whole passes over the grid measured.
    pub passes: u64,
    /// Estimates started.
    pub attempted: u64,
    /// Failed estimates and failed checks.
    pub failed: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// Verified estimates of the measured passes.
    pub verified: u64,
    /// Time per verified estimate of the measured passes.
    pub latency: Histogram,
    /// Samples drawn by the verified estimates of the measured passes.
    pub samples_used: u64,
    /// Estimates kept for the 1-thread recomputation: cell, sampling,
    /// outcome.
    pub recompute: Vec<(usize, MonteCarloConfig, MonteCarloOutcome)>,
    /// Spans of the first estimates (traced runs).
    pub log: Option<SpanLog>,
    /// Peak RSS in MiB at the end of the first pass: the same work on
    /// every run. Every estimate has a fresh seed, so the Monte-Carlo memo
    /// keeps one more outcome per estimate, and a reading at the end of
    /// the run would grow with the estimates a run completes.
    pub peak_rss_mb: Option<f64>,
}

impl McRun {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }
}

/// The figures of one pass in progress.
#[derive(Debug)]
struct Pass {
    start: Snapshot,
    verified: u64,
    latency: Histogram,
    samples_used: u64,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            start: Snapshot::now(),
            verified: 0,
            latency: Histogram::new(),
            samples_used: 0,
        }
    }

    /// Adds the pass to the run's figures and starts the next one.
    fn close(&mut self, run: &mut McRun, run_start: &Snapshot) {
        let now = Snapshot::now();
        let pass = self.start.until(&now);
        run.cpu_windows
            .push(1e6 * pass.cpu_s / self.verified.max(1) as f64);
        run.verified += self.verified;
        run.latency.merge(&self.latency);
        run.samples_used += self.samples_used;
        run.usage = run_start.until(&now);
        *self = Pass::new();
    }
}

/// Runs estimates until `duration` has passed and at least one pass over
/// the grid is complete. Only whole passes are measured, so every run
/// times the same mix of cells. When `traced`, records a span per estimate.
pub fn run(fixture: &McFixture, seed: u64, duration: Duration, traced: bool) -> McRun {
    let pass_len = fixture.grid.cells.len() as u64;
    let mut stream = McStream::new(seed, fixture.grid.cells.len());
    let mut check_rng = stream::seeded(seed, CHECK_DOMAIN, 0);
    let snapshot = Snapshot::now();
    let start = Instant::now();
    let deadline = start + duration;
    let mut run = McRun {
        log: traced.then(|| SpanLog::new(start, SPAN_OPS)),
        ..McRun::default()
    };
    let mut pass = Pass::new();
    for op in 0u64.. {
        let (index, sampling_seed) = stream.next_op();
        let cell = &fixture.grid.cells[index];
        let sampling = cell.mode.config(sampling_seed);
        let t0 = Instant::now();
        let outcome = estimate(&fixture.engine, cell, sampling);
        let t1 = Instant::now();
        run.attempted += 1;
        if let Some(log) = run.log.as_mut().filter(|log| log.keeps(op)) {
            log.push(op, 0, None, "mc.estimate", t0, t1);
        }
        match outcome
            .and_then(|outcome| check(fixture, cell, &sampling, &outcome).map(|()| outcome))
        {
            Ok(outcome) => {
                pass.verified += 1;
                pass.latency.record(t1 - t0);
                pass.samples_used += outcome.samples_used as u64;
                if run.recompute.len() < MAX_RECOMPUTES && check_rng.gen::<f64>() < RECOMPUTE_SHARE
                {
                    run.recompute.push((index, sampling, outcome));
                }
            }
            Err(message) => run.fail(message),
        }
        if (op + 1) % pass_len == 0 {
            pass.close(&mut run, &snapshot);
            run.passes += 1;
            if run.passes == 1 {
                run.peak_rss_mb = Some(host::peak_rss_mb());
            }
        }
        if t1 >= deadline && run.passes > 0 {
            break;
        }
    }
    run
}

/// Recomputes the kept estimates on a fresh 1-thread engine and returns a
/// message per estimate that is not bit-identical.
#[must_use]
pub fn recompute(
    grid: &McGrid,
    kept: &[(usize, MonteCarloConfig, MonteCarloOutcome)],
) -> Vec<String> {
    let serial = engine(1);
    kept.iter()
        .filter_map(|(index, sampling, outcome)| {
            match estimate(&serial, &grid.cells[*index], *sampling) {
                Ok(again) if again == *outcome => None,
                Ok(_) => Some(format!(
                    "cell {index}: the 1-thread engine gives a different estimate"
                )),
                Err(error) => Some(format!("cell {index}: 1-thread recomputation: {error}")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ln_factorials(n: usize) -> Vec<f64> {
        let mut table = vec![0.0; n + 1];
        for k in 1..=n {
            table[k] = table[k - 1] + (k as f64).ln();
        }
        table
    }

    #[test]
    fn the_binomial_test_accepts_likely_and_rejects_impossible_counts() {
        let table = ln_factorials(4_096);
        // One failure in 4096 at a 4.6e-6 failure rate happens 1.9 % of
        // the time: consistent, although a z = 6 Wilson interval rejects it.
        assert!(binomial_consistent(&table, 4_095, 4_096, 0.999_995_4));
        assert!(binomial_consistent(&table, 2_048, 4_096, 0.5));
        assert!(binomial_consistent(&table, 2_150, 4_096, 0.5));
        assert!(!binomial_consistent(&table, 2_500, 4_096, 0.5));
        assert!(!binomial_consistent(&table, 4_000, 4_096, 0.999_995_4));
        assert!(!binomial_consistent(&table, 10, 4_096, 0.5));
        assert!(binomial_consistent(&table, 4_096, 4_096, 1.0));
        assert!(!binomial_consistent(&table, 4_095, 4_096, 1.0));
    }
}
