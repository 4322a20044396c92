//! Statistical proof of the ziggurat sampling kernels against reference
//! kernels built on the classic transforms.
//!
//! The stock disturbances draw from the 256-layer ziggurat inside
//! `NormalSource`. The reference kernels below draw from the same uniform
//! stream through the public `NormalSource::uniform`: Box–Muller for the
//! Gaussian and correlated models, the inverse CDF for the Laplace. Over a
//! grid of codes × windows × disturbances, every nanowire's estimate must
//! agree with its reference estimate by a two-proportion test, and every
//! Gaussian estimate must pass an exact binomial test against the analytic
//! `AddressabilityProfile`.

use crossbar_array::AddressabilityProfile;
use decoder_sim::{
    DisturbanceKind, DisturbanceModel, ExecutionEngine, MonteCarloConfig, NormalSource,
};
use device_physics::{DopingLadder, ThresholdModel, VariabilityModel, Volts};
use mspt_fabrication::{PatternMatrix, VariabilityMatrix};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};
use rand::rngs::StdRng;

/// Samples per estimate.
const SAMPLES: usize = 4_096;
/// Largest two-proportion |z| accepted between a kernel and its reference.
const MAX_Z: f64 = 6.0;
/// Significance of the exact binomial test against the analytic profile.
const ALPHA: f64 = 1e-6;
/// Shared variance fraction of the correlated model on the grid.
const SHARED_FRACTION: f64 = 0.5;

/// Box–Muller over [`NormalSource::uniform`], serving both halves of each
/// transform in turn. A half still cached when the generator is dropped is
/// discarded, which leaves every served value an exact standard normal.
struct BoxMuller<'a> {
    draws: &'a mut NormalSource<StdRng>,
    cached: Option<f64>,
}

impl<'a> BoxMuller<'a> {
    fn new(draws: &'a mut NormalSource<StdRng>) -> Self {
        BoxMuller {
            draws,
            cached: None,
        }
    }

    fn next(&mut self) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        loop {
            let u1 = self.draws.uniform();
            let u2 = self.draws.uniform();
            if u1 > f64::MIN_POSITIVE {
                let radius = (-2.0 * u1.ln()).sqrt();
                let angle = 2.0 * std::f64::consts::PI * u2;
                self.cached = Some(radius * angle.sin());
                return radius * angle.cos();
            }
        }
    }
}

/// Reference Gaussian: `σ · Z` with `Z` from Box–Muller.
#[derive(Debug)]
struct BoxMullerGaussian;

impl DisturbanceModel for BoxMullerGaussian {
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]) {
        let mut normals = BoxMuller::new(draws);
        for (slot, &sigma) in out.iter_mut().zip(sigmas) {
            *slot = sigma * normals.next();
        }
    }
}

/// Reference correlated model: one shared Box–Muller offset per nanowire
/// plus one independent Box–Muller normal per region.
#[derive(Debug)]
struct BoxMullerCorrelated;

impl DisturbanceModel for BoxMullerCorrelated {
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]) {
        let mut normals = BoxMuller::new(draws);
        let shared = normals.next();
        let shared_weight = SHARED_FRACTION.sqrt();
        let local_weight = (1.0 - SHARED_FRACTION).sqrt();
        for (slot, &sigma) in out.iter_mut().zip(sigmas) {
            *slot = sigma * (shared_weight * shared + local_weight * normals.next());
        }
    }
}

/// Reference Laplace: the inverse CDF of the centred Laplace with scale
/// `b = σ/√2`, one uniform per region.
#[derive(Debug)]
struct InverseCdfLaplace;

impl DisturbanceModel for InverseCdfLaplace {
    fn sample_regions(&self, sigmas: &[f64], draws: &mut NormalSource<StdRng>, out: &mut [f64]) {
        for (slot, &sigma) in out.iter_mut().zip(sigmas) {
            // x = −b·sgn(t)·ln(1 − 2|t|), t = u − ½ ∈ [−½, ½).
            let t = draws.uniform() - 0.5;
            let scale = sigma / std::f64::consts::SQRT_2;
            let arg = (1.0 - 2.0 * t.abs()).max(f64::MIN_POSITIVE);
            *slot = -scale * t.signum() * arg.ln();
        }
    }
}

fn variability(kind: CodeKind) -> VariabilityMatrix {
    let seq = CodeSpec::new(kind, LogicLevel::BINARY, 8)
        .unwrap()
        .generate()
        .unwrap()
        .take_cyclic(16)
        .unwrap();
    let ladder = DopingLadder::from_model(
        &ThresholdModel::default_mspt(),
        2,
        (Volts::new(0.0), Volts::new(1.0)),
    )
    .unwrap();
    VariabilityMatrix::from_pattern(
        &PatternMatrix::from_sequence(&seq).unwrap(),
        &ladder,
        &VariabilityModel::paper_default(),
    )
    .unwrap()
}

/// Per-nanowire success counts of one estimate.
fn counts(
    variability: &VariabilityMatrix,
    window: Volts,
    seed: u64,
    disturbance: &dyn DisturbanceModel,
) -> Vec<usize> {
    ExecutionEngine::serial()
        .monte_carlo_with_disturbance(
            variability,
            &VariabilityModel::paper_default(),
            window,
            MonteCarloConfig::fixed(SAMPLES, seed),
            disturbance,
        )
        .unwrap()
        .profile
        .probabilities()
        .iter()
        .map(|p| (p * SAMPLES as f64).round() as usize)
        .collect()
}

/// The pooled two-proportion z statistic of `a` and `b` successes, each out
/// of [`SAMPLES`]; zero when both proportions sit at the same boundary.
fn two_proportion_z(a: usize, b: usize) -> f64 {
    let n = SAMPLES as f64;
    let pooled = (a + b) as f64 / (2.0 * n);
    let se = (pooled * (1.0 - pooled) * 2.0 / n).sqrt();
    if se == 0.0 {
        0.0
    } else {
        (a as f64 - b as f64) / n / se
    }
}

/// Exact two-sided binomial test at [`ALPHA`]: whether `x` successes of
/// [`SAMPLES`] are consistent with success probability `q`.
fn binomial_consistent(x: usize, q: f64) -> bool {
    let n = SAMPLES;
    if q <= 0.0 || q >= 1.0 {
        return (q <= 0.0 && x == 0) || (q >= 1.0 && x == n);
    }
    let mut ln_factorial = vec![0.0f64; n + 1];
    for k in 1..=n {
        ln_factorial[k] = ln_factorial[k - 1] + (k as f64).ln();
    }
    let pmf = |k: usize| {
        (ln_factorial[n] - ln_factorial[k] - ln_factorial[n - k]
            + k as f64 * q.ln()
            + (n - k) as f64 * (-q).ln_1p())
        .exp()
    };
    let tail: f64 = if x as f64 >= q * n as f64 {
        (x..=n).map(pmf).sum()
    } else {
        (0..=x).map(pmf).sum()
    };
    tail > ALPHA / 2.0
}

#[test]
fn ziggurat_kernels_agree_with_their_reference_kernels() {
    let references: [(DisturbanceKind, &dyn DisturbanceModel); 3] = [
        (DisturbanceKind::Gaussian, &BoxMullerGaussian),
        (DisturbanceKind::Laplace, &InverseCdfLaplace),
        (
            DisturbanceKind::Correlated {
                shared_fraction: SHARED_FRACTION,
            },
            &BoxMullerCorrelated,
        ),
    ];
    let mut compared = 0;
    for (index, kind) in CodeKind::ALL.into_iter().enumerate() {
        let variability = variability(kind);
        for window in [Volts::new(0.1), Volts::new(0.25)] {
            for (stock, reference) in references {
                let seed = 1_000 + index as u64;
                let model = stock.model().unwrap();
                let zig = counts(&variability, window, seed, model.as_ref());
                // A different seed, so the two estimates are independent.
                let classic = counts(&variability, window, seed + 500, reference);
                for (wire, (&a, &b)) in zig.iter().zip(&classic).enumerate() {
                    let z = two_proportion_z(a, b);
                    assert!(
                        z.abs() < MAX_Z,
                        "{kind:?} {stock} window {window}: nanowire {wire} \
                         ziggurat {a} vs reference {b} of {SAMPLES} (z = {z:.2})"
                    );
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(compared, CodeKind::ALL.len() * 2 * 3 * 16);
}

#[test]
fn gaussian_estimates_pass_an_exact_binomial_test_against_the_analytic_model() {
    let model = VariabilityModel::paper_default();
    for (index, kind) in CodeKind::ALL.into_iter().enumerate() {
        let variability = variability(kind);
        for window in [Volts::new(0.1), Volts::new(0.25)] {
            let analytic =
                AddressabilityProfile::from_variability(&variability, &model, window).unwrap();
            let seed = 2_000 + index as u64;
            for (label, disturbance) in [
                (
                    "ziggurat",
                    &decoder_sim::GaussianDisturbance as &dyn DisturbanceModel,
                ),
                ("box-muller", &BoxMullerGaussian),
            ] {
                let sampled = counts(&variability, window, seed, disturbance);
                for (wire, (&x, &q)) in sampled.iter().zip(analytic.probabilities()).enumerate() {
                    assert!(
                        binomial_consistent(x, q),
                        "{label} {kind:?} window {window}: nanowire {wire} has {x} of \
                         {SAMPLES} addressable, analytic {q} (two-sided p < {ALPHA})"
                    );
                }
            }
        }
    }
}

#[test]
fn box_muller_reference_serves_both_halves_of_a_transform() {
    // The cosine and sine halves of one transform come from the same two
    // uniforms: together they have the transform's radius, and the pair
    // advances the underlying stream by exactly two uniforms.
    let mut paired = NormalSource::from_seed(99);
    let mut raw = NormalSource::from_seed(99);
    let mut normals = BoxMuller::new(&mut paired);
    let first = normals.next();
    let second = normals.next();
    let u1 = raw.uniform();
    let _u2 = raw.uniform();
    let radius = (-2.0 * u1.ln()).sqrt();
    assert!((first.hypot(second) - radius).abs() < 1e-12);
    // The third value starts a new transform, so two transforms have taken
    // four uniforms and the next uniform is the fifth.
    assert_ne!(normals.next(), first);
    for _ in 0..2 {
        raw.uniform();
    }
    assert_eq!(paired.uniform(), raw.uniform());
}
