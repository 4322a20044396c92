//! The seeded operation streams of the three workloads.
//!
//! Every stream is a pure function of the workload seed (and the
//! connection index): the program under test only ever sees the requests
//! and estimates these produce.

use std::collections::VecDeque;

use decoder_sim::{chunk_seed, DefectKind, DisturbanceKind, MonteCarloConfig, SimConfig};
use device_physics::Volts;
use mspt_experiments::{stress_mix, DEFECT_RATE_AXIS};
use mspt_serve::{ReportRequest, WireCodec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed domains keep the streams of one seed decorrelated.
const HOT_DOMAIN: u64 = 0x9e1f_0b5e_0000_0001;
const SWEEP_DOMAIN: u64 = 0x9e1f_0b5e_0000_0002;
const MC_DOMAIN: u64 = 0x9e1f_0b5e_0000_0003;
/// Domain of the choices of which answers get recomputed after the run.
pub const CHECK_DOMAIN: u64 = 0x9e1f_0b5e_0000_0004;

/// Share of `serve_defect_sweep` requests that repeat a recent config.
pub const SWEEP_REPEAT_SHARE: f64 = 0.25;
/// How many recently issued sweep configs a repeat is drawn from.
pub const SWEEP_RECENT: usize = 64;

/// Decision half-width of the `mc_estimate` tight window, in volts (the
/// paper window is the configuration's own, 0.25 V).
pub const MC_TIGHT_WINDOW_V: f64 = 0.1;
/// Sample budget of a fixed-budget estimate.
pub const MC_FIXED_SAMPLES: usize = 4_096;
/// Wilson half-width target of an adaptive estimate.
pub const MC_ADAPTIVE_TARGET: f64 = 0.01;
/// Sample ceiling of an adaptive estimate.
pub const MC_ADAPTIVE_MAX_SAMPLES: usize = 16_384;

/// A generator seeded from the workload seed, a domain and a stream index.
#[must_use]
pub fn seeded(seed: u64, domain: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(chunk_seed(seed ^ domain, index))
}

/// A uniform index below `n` (`n > 0`).
pub fn below(rng: &mut StdRng, n: usize) -> usize {
    (rng.gen::<u64>() % n as u64) as usize
}

fn coin_codec(rng: &mut StdRng) -> WireCodec {
    if rng.gen::<bool>() {
        WireCodec::Binary
    } else {
        WireCodec::Json
    }
}

/// The stress mix of the serving layer (14 requests).
///
/// # Panics
///
/// Panics if the paper configuration fails to validate.
#[must_use]
pub fn hot_mix() -> Vec<ReportRequest> {
    stress_mix().expect("the stress mix validates")
}

/// The 12 plain code configurations of the stress mix: four code families
/// at three lengths each, with no disturbance or defect override.
#[must_use]
pub fn code_configs() -> Vec<SimConfig> {
    hot_mix()
        .into_iter()
        .filter(|request| request.disturbance.is_none() && request.defects.is_none())
        .map(|request| request.config)
        .collect()
}

/// `serve_hot`: Zipf-ranked indices into the stress mix, each with a codec
/// drawn by a fair coin.
#[derive(Debug, Clone)]
pub struct HotStream {
    rng: StdRng,
    cumulative: Vec<f64>,
}

impl HotStream {
    /// The stream of one connection.
    #[must_use]
    pub fn new(seed: u64, connection: usize, mix_len: usize) -> Self {
        let mut total = 0.0;
        let cumulative = (0..mix_len)
            .map(|rank| {
                total += 1.0 / (rank as f64 + 1.0);
                total
            })
            .collect();
        HotStream {
            rng: seeded(seed, HOT_DOMAIN, connection as u64),
            cumulative,
        }
    }

    /// The next request's mix index and codec.
    pub fn next_op(&mut self) -> (usize, WireCodec) {
        let total = *self.cumulative.last().expect("non-empty mix");
        let draw = self.rng.gen::<f64>() * total;
        let index = self
            .cumulative
            .iter()
            .position(|&bound| draw < bound)
            .unwrap_or(self.cumulative.len() - 1);
        (index, coin_codec(&mut self.rng))
    }
}

/// One `serve_defect_sweep` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOp {
    /// Position of the op in the stream.
    pub id: u64,
    /// The request: a code config with a sampled defect selection.
    pub request: ReportRequest,
    /// Codec of the request frame.
    pub codec: WireCodec,
    /// For a repeat, the id of the op that first issued this config.
    pub repeat_of: Option<u64>,
}

/// `serve_defect_sweep`: a defect-rate sweep over the 12 code configs.
/// Each fresh request draws a code, a rate from the Fig. 7 defect axis and
/// a fresh map seed; [`SWEEP_REPEAT_SHARE`] of requests instead repeat one
/// of the last [`SWEEP_RECENT`] fresh ones.
#[derive(Debug, Clone)]
pub struct SweepStream {
    rng: StdRng,
    codes: Vec<SimConfig>,
    rates: Vec<f64>,
    recent: VecDeque<(u64, ReportRequest)>,
    next_id: u64,
}

impl SweepStream {
    /// The stream of one connection.
    #[must_use]
    pub fn new(seed: u64, connection: usize) -> Self {
        SweepStream {
            rng: seeded(seed, SWEEP_DOMAIN, connection as u64),
            codes: code_configs(),
            rates: DEFECT_RATE_AXIS
                .iter()
                .copied()
                .filter(|&rate| rate > 0.0)
                .collect(),
            recent: VecDeque::with_capacity(SWEEP_RECENT),
            next_id: 0,
        }
    }

    /// The next op.
    ///
    /// # Panics
    ///
    /// Panics if an axis rate fails to validate (none does).
    pub fn next_op(&mut self) -> SweepOp {
        let id = self.next_id;
        self.next_id += 1;
        let repeat = !self.recent.is_empty() && self.rng.gen::<f64>() < SWEEP_REPEAT_SHARE;
        let (request, repeat_of) = if repeat {
            let (first, request) = &self.recent[below(&mut self.rng, self.recent.len())];
            (request.clone(), Some(*first))
        } else {
            let code = self.codes[below(&mut self.rng, self.codes.len())].clone();
            let rate = self.rates[below(&mut self.rng, self.rates.len())];
            let defects = DefectKind::sampled(rate, rate / 2.0, self.rng.gen::<u64>())
                .expect("axis rates are valid probabilities");
            let request = ReportRequest::builder(code).defects(defects).build();
            if self.recent.len() == SWEEP_RECENT {
                self.recent.pop_front();
            }
            self.recent.push_back((id, request.clone()));
            (request, None)
        };
        SweepOp {
            id,
            request,
            codec: coin_codec(&mut self.rng),
            repeat_of,
        }
    }
}

/// Sampling mode of an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McMode {
    /// A fixed budget of [`MC_FIXED_SAMPLES`].
    Fixed,
    /// Wilson-score stopping at [`MC_ADAPTIVE_TARGET`].
    Adaptive,
}

impl McMode {
    /// Lowercase name, as used in metric names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            McMode::Fixed => "fixed",
            McMode::Adaptive => "adaptive",
        }
    }

    /// The sampling configuration of this mode with `seed`.
    #[must_use]
    pub fn config(self, seed: u64) -> MonteCarloConfig {
        match self {
            McMode::Fixed => MonteCarloConfig::fixed(MC_FIXED_SAMPLES, seed),
            McMode::Adaptive => MonteCarloConfig::fixed(MC_ADAPTIVE_MAX_SAMPLES, seed)
                .with_target_half_width(MC_ADAPTIVE_TARGET),
        }
    }
}

/// The three disturbance models of the grid, in metric-name order.
pub const MC_DISTURBANCES: [(&str, DisturbanceKind); 3] = [
    ("gaussian", DisturbanceKind::Gaussian),
    ("laplace", DisturbanceKind::Laplace),
    (
        "correlated",
        DisturbanceKind::Correlated {
            shared_fraction: 0.5,
        },
    ),
];

/// One cell of the `mc_estimate` grid.
#[derive(Debug, Clone, PartialEq)]
pub struct McCell {
    /// Code config with its window (paper or tight) applied.
    pub config: SimConfig,
    /// Index into [`McGrid::windows`]: the (code, window) pair.
    pub window_config: usize,
    /// Index into [`MC_DISTURBANCES`].
    pub disturbance: usize,
    /// Fixed or adaptive sampling.
    pub mode: McMode,
}

/// The `mc_estimate` grid: 12 codes × 2 windows × 3 disturbances × 2 modes.
#[derive(Debug, Clone)]
pub struct McGrid {
    /// The 24 (code, window) configurations.
    pub windows: Vec<SimConfig>,
    /// The 144 cells.
    pub cells: Vec<McCell>,
}

impl McGrid {
    /// Builds the grid.
    #[must_use]
    pub fn new() -> Self {
        let mut windows = Vec::new();
        for code in code_configs() {
            windows.push(code.clone());
            windows.push(code.with_window(Volts::new(MC_TIGHT_WINDOW_V)));
        }
        let mut cells = Vec::new();
        for (window_config, config) in windows.iter().enumerate() {
            for disturbance in 0..MC_DISTURBANCES.len() {
                for mode in [McMode::Fixed, McMode::Adaptive] {
                    cells.push(McCell {
                        config: config.clone(),
                        window_config,
                        disturbance,
                        mode,
                    });
                }
            }
        }
        McGrid { windows, cells }
    }
}

impl Default for McGrid {
    fn default() -> Self {
        McGrid::new()
    }
}

/// `mc_estimate`: the grid's cells in a fresh seeded order per pass, each
/// estimate with a fresh sampling seed. Whole passes keep the mix of cells
/// the same from run to run.
#[derive(Debug, Clone)]
pub struct McStream {
    rng: StdRng,
    order: Vec<usize>,
    position: usize,
}

impl McStream {
    /// The stream over a grid of `cells` cells.
    #[must_use]
    pub fn new(seed: u64, cells: usize) -> Self {
        McStream {
            rng: seeded(seed, MC_DOMAIN, 0),
            order: (0..cells).collect(),
            position: cells,
        }
    }

    /// The next cell index and its sampling seed.
    pub fn next_op(&mut self) -> (usize, u64) {
        if self.position == self.order.len() {
            for i in (1..self.order.len()).rev() {
                let j = below(&mut self.rng, i + 1);
                self.order.swap(i, j);
            }
            self.position = 0;
        }
        let cell = self.order[self.position];
        self.position += 1;
        (cell, self.rng.gen::<u64>())
    }
}
