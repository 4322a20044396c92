//! The stage graph of the evaluation pipeline: incremental,
//! dependency-aware recomputation.
//!
//! [`SimulationPlatform::evaluate_with_defect_map`] used to be a monolith —
//! any one-field configuration change re-ran everything. This module splits
//! it into explicit stages, each memoized under a **canonical per-stage
//! fingerprint** derived from only the [`SimConfig`] fields the stage
//! actually reads:
//!
//! ```text
//! Variability ──────► Addressability ──► CaveYield ──┐
//!   (Σ matrix + Φ)       (window)           ▲        │
//! ContactLayout ─────────────────────────────┘        ├─► Composite
//!   └─────────► CrossbarArea ─────────────────────────┤   (PlatformReport)
//! DefectMap ──────────────────────────────────────────┘
//! Variability ──────► MonteCarlo   (+ Disturbance, MonteCarlo knobs, chunk)
//! ```
//!
//! Changing only the defect seed therefore re-runs only the `DefectMap` and
//! `Composite` stages; changing only the disturbance kind re-runs only the
//! `MonteCarlo` stage — every other stage is a cache hit, with its own
//! hit/miss/eviction counters.
//!
//! # Key rules
//!
//! A stage's memo key is built from its [`Stage::reads`] entry and nothing
//! else: [`Stage::key`] writes the stage's tag word, then asks each field
//! of the read set to append its exact words ([`ConfigField::write`]). A
//! key therefore follows its declared read set by construction. Each field
//! is a fixed number of `u64` words: `f64::to_bits`, integers widened to
//! `u64`, and enum and `Option` tags, so the encoding is injective across
//! field boundaries. The fingerprint ([`StageKey::fingerprint`]) is a
//! word-at-a-time fold of the key, finalized through [`chunk_seed`] under
//! its own domain tag at the stage's index, so stage keys never collide
//! with sampling seeds. A memo slot stores the words and compares them in
//! full on every hit.
//!
//! [`StageCache`] holds one [`MemoCache`] slot per stage, each with the
//! same per-shard LRU bounds, single-flight semantics and counters. The
//! `Composite` slot is the [`ReportCache`], which adds snapshot
//! persistence — the only memo layer between a request and the pipeline.

use crossbar_array::{
    chunk_seed, AddressabilityProfile, CaveYield, ContactGroupLayout, CrossbarArea, DefectTally,
};
use mspt_fabrication::{FabricationCost, VariabilityMatrix};

use crate::bincodec::code_kind_tag;
use crate::cache::{CacheConfig, CacheStats, MemoCache, ReportCache};
use crate::config::SimConfig;
use crate::defect::DefectKind;
use crate::disturbance::DisturbanceKind;
use crate::error::Result;
use crate::monte_carlo::{MonteCarloConfig, MonteCarloOutcome};
use crate::platform::PlatformReport;

/// Domain-separation tag mixed into stage-key fingerprints before the
/// [`chunk_seed`] finalizer. Keeps the stage memo keys decorrelated from
/// [`ReportCache::fingerprint`] and from every sampling seed domain.
const STAGE_KEY_DOMAIN: u64 = 0x57a6_e1fd_9b3c_5a21;

/// The [`SimConfig`] fields a stage can declare in its read set — one
/// variant per public accessor that is part of a configuration's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigField {
    /// [`SimConfig::code`].
    Code,
    /// [`SimConfig::nanowires_per_half_cave`].
    NanowiresPerHalfCave,
    /// [`SimConfig::raw_bits`].
    RawBits,
    /// [`SimConfig::layout`].
    Layout,
    /// [`SimConfig::threshold_model`].
    ThresholdModel,
    /// [`SimConfig::sigma_per_dose`].
    SigmaPerDose,
    /// [`SimConfig::supply_range`].
    SupplyRange,
    /// [`SimConfig::window_override`].
    WindowOverride,
    /// [`SimConfig::code_budgets`].
    CodeBudgets,
    /// [`SimConfig::disturbance`].
    Disturbance,
    /// [`SimConfig::defects`].
    Defects,
    /// [`SimConfig::monte_carlo`].
    MonteCarlo,
}

impl ConfigField {
    /// Every field, in declaration order — what the stage-invalidation
    /// matrix test iterates over.
    pub const ALL: [ConfigField; 12] = [
        ConfigField::Code,
        ConfigField::NanowiresPerHalfCave,
        ConfigField::RawBits,
        ConfigField::Layout,
        ConfigField::ThresholdModel,
        ConfigField::SigmaPerDose,
        ConfigField::SupplyRange,
        ConfigField::WindowOverride,
        ConfigField::CodeBudgets,
        ConfigField::Disturbance,
        ConfigField::Defects,
        ConfigField::MonteCarlo,
    ];

    /// Appends the field's words for `config` to `key`: a fixed number of
    /// words per field, with `f64`s as their exact bits and every enum and
    /// `Option` as a tag word followed by its (zero-padded) payload.
    pub(crate) fn write(self, config: &SimConfig, key: &mut StageKey) {
        match self {
            ConfigField::Code => {
                let code = config.code();
                key.push(u64::from(code_kind_tag(code.kind())));
                key.push(u64::from(code.radix().radix()));
                key.push(code.code_length() as u64);
            }
            ConfigField::NanowiresPerHalfCave => key.push(config.nanowires_per_half_cave() as u64),
            ConfigField::RawBits => key.push(config.raw_bits()),
            ConfigField::Layout => {
                let layout = config.layout();
                key.push_f64(layout.litho_pitch().value());
                key.push_f64(layout.nanowire_pitch().value());
                key.push_f64(layout.min_contact_width_factor());
                key.push_f64(layout.contact_alignment_tolerance().value());
            }
            ConfigField::ThresholdModel => {
                let threshold = config.threshold_model();
                key.push_f64(threshold.oxide_thickness().value());
                key.push_f64(threshold.flat_band_voltage().value());
            }
            ConfigField::SigmaPerDose => key.push_f64(config.sigma_per_dose().value()),
            ConfigField::SupplyRange => {
                let (low, high) = config.supply_range();
                key.push_f64(low.value());
                key.push_f64(high.value());
            }
            ConfigField::WindowOverride => {
                key.push_option(
                    config
                        .window_override()
                        .map(|window| window.value().to_bits()),
                );
            }
            ConfigField::CodeBudgets => {
                let budgets = config.code_budgets();
                key.push(budgets.balance.max_nodes_per_limit);
                key.push(budgets.balance.max_limit_slack as u64);
                key.push(budgets.arranged_hot.max_nodes);
                key.push(budgets.arranged_hot.fallback.max_nodes);
                key.push(u64::from(budgets.arranged_hot.fallback.max_two_opt_sweeps));
            }
            ConfigField::Disturbance => match config.disturbance() {
                DisturbanceKind::Gaussian => key.push_words(&[0, 0]),
                DisturbanceKind::Laplace => key.push_words(&[1, 0]),
                DisturbanceKind::Correlated { shared_fraction } => {
                    key.push_words(&[2, shared_fraction.to_bits()]);
                }
            },
            ConfigField::Defects => match config.defects() {
                DefectKind::None => key.push_words(&[0, 0, 0, 0]),
                DefectKind::Sampled(defects) => key.push_words(&[
                    1,
                    defects.nanowire_breakage().to_bits(),
                    defects.crosspoint_defect().to_bits(),
                    defects.seed(),
                ]),
            },
            ConfigField::MonteCarlo => key.push_monte_carlo(config.monte_carlo()),
        }
    }
}

/// The most words a [`StageKey`] holds: the Monte-Carlo slot's key (its
/// tag, nine fields and the appended sampling parameters and chunk size).
const KEY_WORDS: usize = 34;

/// The exact memo key of one stage for one configuration: the stage's tag
/// word followed by the words of every field in its read set. Lives on the
/// stack, so building and looking up a key allocates nothing; a memo slot
/// copies the words out only when it stores a new entry. Words past `len`
/// stay zero, so the derived equality compares exactly the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageKey {
    len: usize,
    words: [u64; KEY_WORDS],
}

impl StageKey {
    fn new(stage: Stage) -> Self {
        let mut key = StageKey {
            len: 0,
            words: [0; KEY_WORDS],
        };
        key.push(stage.index());
        key
    }

    fn push(&mut self, word: u64) {
        self.words[self.len] = word;
        self.len += 1;
    }

    fn push_words(&mut self, words: &[u64]) {
        for &word in words {
            self.push(word);
        }
    }

    fn push_f64(&mut self, value: f64) {
        self.push(value.to_bits());
    }

    fn push_option(&mut self, value: Option<u64>) {
        match value {
            Some(value) => self.push_words(&[1, value]),
            None => self.push_words(&[0, 0]),
        }
    }

    /// The words of a Monte-Carlo configuration: samples, seed, target
    /// half-width, confidence and sample cap.
    fn push_monte_carlo(&mut self, mc: MonteCarloConfig) {
        self.push(mc.samples as u64);
        self.push(mc.seed);
        self.push_option(mc.target_half_width.map(f64::to_bits));
        self.push_f64(mc.confidence);
        self.push_option(mc.max_samples.map(|max| max as u64));
    }

    /// The key's words: the stage tag, then each read field's words.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words[..self.len]
    }

    /// The memo fingerprint of the key: a word-at-a-time multiply-rotate
    /// fold of its words, finalized through the workspace-wide
    /// `chunk_seed` under `STAGE_KEY_DOMAIN` at the stage's index (the tag
    /// word).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let hash = self.words().iter().fold(0u64, |hash, &word| {
            (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
        });
        chunk_seed(hash ^ STAGE_KEY_DOMAIN, self.words[0])
    }
}

/// One stage of the evaluation pipeline — the unit of memoization and
/// invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The variability matrix `Σ` and fabrication complexity `Φ` of the
    /// configured half cave (one stage: both derive from the same pattern
    /// and doping ladder).
    Variability,
    /// The analytic per-nanowire addressability profile.
    Addressability,
    /// The contact-group layout of the half cave.
    ContactLayout,
    /// Cave and crossbar yield from addressability and contact layout.
    CaveYield,
    /// The crossbar area model (raw and effective bit area inputs).
    CrossbarArea,
    /// The sampled fabrication-defect map, memoized as its
    /// [`DefectTally`] (`None` for a defect-free configuration).
    DefectMap,
    /// The fully composed [`PlatformReport`] — everything the report
    /// carries except Monte-Carlo results.
    Composite,
    /// The Monte-Carlo addressability estimation under the configured
    /// disturbance (keyed additionally by samples, seed and chunk size).
    MonteCarlo,
}

impl Stage {
    /// Every stage, in pipeline order — the order
    /// [`StageCache::stats`] reports rows in.
    pub const ALL: [Stage; 8] = [
        Stage::Variability,
        Stage::Addressability,
        Stage::ContactLayout,
        Stage::CaveYield,
        Stage::CrossbarArea,
        Stage::DefectMap,
        Stage::Composite,
        Stage::MonteCarlo,
    ];

    /// The stable kebab-case name of the stage — the `stage` label of
    /// per-stage stats rows in the serve stress artifact.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Variability => "variability",
            Stage::Addressability => "addressability",
            Stage::ContactLayout => "contact-layout",
            Stage::CaveYield => "cave-yield",
            Stage::CrossbarArea => "crossbar-area",
            Stage::DefectMap => "defect-map",
            Stage::Composite => "composite",
            Stage::MonteCarlo => "monte-carlo",
        }
    }

    /// The stages whose outputs this stage consumes — the dependency edges
    /// of the module-level diagram. A stage's read set is the union of its
    /// dependencies' read sets plus its own direct reads, so invalidation
    /// propagates downstream by construction.
    #[must_use]
    pub fn depends_on(self) -> &'static [Stage] {
        match self {
            Stage::Variability | Stage::ContactLayout | Stage::DefectMap => &[],
            Stage::Addressability | Stage::MonteCarlo => &[Stage::Variability],
            Stage::CaveYield => &[Stage::Addressability, Stage::ContactLayout],
            Stage::CrossbarArea => &[Stage::ContactLayout],
            Stage::Composite => &[
                Stage::Variability,
                Stage::CaveYield,
                Stage::CrossbarArea,
                Stage::DefectMap,
            ],
        }
    }

    /// The [`SimConfig`] fields the stage (transitively) reads — exactly
    /// the fields its [`Stage::key`] is built from, so a configuration
    /// change re-runs the stage iff it touches one of these.
    #[must_use]
    pub fn reads(self) -> &'static [ConfigField] {
        match self {
            Stage::Variability => &[
                ConfigField::Code,
                ConfigField::NanowiresPerHalfCave,
                ConfigField::ThresholdModel,
                ConfigField::SigmaPerDose,
                ConfigField::SupplyRange,
                ConfigField::CodeBudgets,
            ],
            Stage::Addressability => &[
                ConfigField::Code,
                ConfigField::NanowiresPerHalfCave,
                ConfigField::ThresholdModel,
                ConfigField::SigmaPerDose,
                ConfigField::SupplyRange,
                ConfigField::CodeBudgets,
                ConfigField::WindowOverride,
            ],
            Stage::ContactLayout => &[
                ConfigField::Code,
                ConfigField::NanowiresPerHalfCave,
                ConfigField::Layout,
            ],
            Stage::CaveYield => &[
                ConfigField::Code,
                ConfigField::NanowiresPerHalfCave,
                ConfigField::Layout,
                ConfigField::ThresholdModel,
                ConfigField::SigmaPerDose,
                ConfigField::SupplyRange,
                ConfigField::CodeBudgets,
                ConfigField::WindowOverride,
            ],
            Stage::CrossbarArea => &[
                ConfigField::Code,
                ConfigField::NanowiresPerHalfCave,
                ConfigField::RawBits,
                ConfigField::Layout,
            ],
            Stage::DefectMap => &[
                ConfigField::NanowiresPerHalfCave,
                ConfigField::RawBits,
                ConfigField::Layout,
                ConfigField::Defects,
            ],
            Stage::Composite => &[
                ConfigField::Code,
                ConfigField::NanowiresPerHalfCave,
                ConfigField::RawBits,
                ConfigField::Layout,
                ConfigField::ThresholdModel,
                ConfigField::SigmaPerDose,
                ConfigField::SupplyRange,
                ConfigField::WindowOverride,
                ConfigField::CodeBudgets,
                ConfigField::Defects,
            ],
            Stage::MonteCarlo => &[
                ConfigField::Code,
                ConfigField::NanowiresPerHalfCave,
                ConfigField::ThresholdModel,
                ConfigField::SigmaPerDose,
                ConfigField::SupplyRange,
                ConfigField::CodeBudgets,
                ConfigField::WindowOverride,
                ConfigField::Disturbance,
                ConfigField::MonteCarlo,
            ],
        }
    }

    /// The position of the stage in [`Stage::ALL`] — a key's tag word and
    /// its fingerprint stream index.
    fn index(self) -> u64 {
        Stage::ALL
            .iter()
            .position(|&stage| stage == self)
            .expect("every stage appears in ALL") as u64
    }

    /// The memo key of the stage for a configuration: the stage's tag
    /// word, then the words of each field in [`Stage::reads`], in order.
    /// ([`Stage::MonteCarlo`] keys carry additional sampling parameters —
    /// see [`StageCache`]'s Monte-Carlo slot — appended by the cache.)
    #[must_use]
    pub fn key(self, config: &SimConfig) -> StageKey {
        let mut key = StageKey::new(self);
        for field in self.reads() {
            field.write(config, &mut key);
        }
        key
    }
}

/// The memoized product of the [`Stage::Variability`] stage: the
/// variability matrix and the fabrication cost ride together because both
/// derive from the same pattern and doping ladder.
#[derive(Debug, Clone)]
pub(crate) struct VariabilityStage {
    /// The variability matrix `Σ` of the configured half cave.
    pub variability: VariabilityMatrix,
    /// The fabrication complexity `Φ` of the configured half cave.
    pub cost: FabricationCost,
}

/// The counters of one stage's memo slot — a per-stage [`CacheStats`] row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// The stage the counters belong to.
    pub stage: Stage,
    /// Hit/miss/eviction counters and current entry count of the stage's
    /// memo slot.
    pub stats: CacheStats,
}

/// The per-stage memo table of the evaluation pipeline: one
/// `MemoCache` slot per [`Stage`], each with fingerprint sharding, bounded
/// LRU, single-flight semantics and hit/miss/eviction counters. The
/// [`Stage::Composite`] slot is a [`ReportCache`]
/// ([`StageCache::reports`]), so reports persist as snapshots.
///
/// The [`ExecutionEngine`](crate::ExecutionEngine) owns one — its only
/// memo; [`SimulationPlatform::evaluate`](crate::SimulationPlatform::evaluate)
/// routes through a [`StageCache::disabled`] instance, so its behaviour
/// (including every defect-map validation error) is unchanged.
#[derive(Debug)]
pub struct StageCache {
    variability: MemoCache<VariabilityStage>,
    addressability: MemoCache<AddressabilityProfile>,
    contact_layout: MemoCache<ContactGroupLayout>,
    cave_yield: MemoCache<CaveYield>,
    crossbar_area: MemoCache<CrossbarArea>,
    defect_map: MemoCache<Option<DefectTally>>,
    composite: ReportCache,
    monte_carlo: MemoCache<MonteCarloOutcome>,
}

impl Default for StageCache {
    fn default() -> Self {
        StageCache::new(CacheConfig::default())
    }
}

impl StageCache {
    /// Creates a stage cache where every stage's memo slot uses `config`
    /// (shards clamped to `1..=capacity`, capacity `0` disables storage).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        StageCache {
            variability: MemoCache::new(config),
            addressability: MemoCache::new(config),
            contact_layout: MemoCache::new(config),
            cave_yield: MemoCache::new(config),
            crossbar_area: MemoCache::new(config),
            defect_map: MemoCache::new(config),
            composite: ReportCache::new(config),
            monte_carlo: MemoCache::new(config),
        }
    }

    /// A cache that stores nothing: every stage lookup is a leader-path
    /// miss that recomputes — the configuration behind the platform's
    /// uncached `evaluate*` methods, which must stay bit- and
    /// error-identical to the pre-stage monolith.
    #[must_use]
    pub fn disabled() -> Self {
        StageCache::new(CacheConfig {
            capacity: 0,
            shards: 1,
        })
    }

    /// The per-stage counters, one row per [`Stage`] in [`Stage::ALL`]
    /// order — what `cache_stats` extensions and the serve stress artifact
    /// report.
    #[must_use]
    pub fn stats(&self) -> Vec<StageStats> {
        Stage::ALL
            .iter()
            .map(|&stage| StageStats {
                stage,
                stats: match stage {
                    Stage::Variability => self.variability.stats(),
                    Stage::Addressability => self.addressability.stats(),
                    Stage::ContactLayout => self.contact_layout.stats(),
                    Stage::CaveYield => self.cave_yield.stats(),
                    Stage::CrossbarArea => self.crossbar_area.stats(),
                    Stage::DefectMap => self.defect_map.stats(),
                    Stage::Composite => self.composite.stats(),
                    Stage::MonteCarlo => self.monte_carlo.stats(),
                },
            })
            .collect()
    }

    /// The [`Stage::Composite`] slot: the report cache, with its snapshot
    /// persistence.
    #[must_use]
    pub fn reports(&self) -> &ReportCache {
        &self.composite
    }

    /// Total entries stored across every stage slot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stats().iter().map(|row| row.stats.entries).sum()
    }

    /// Whether no stage slot stores anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn variability<F>(&self, config: &SimConfig, compute: F) -> Result<VariabilityStage>
    where
        F: FnOnce() -> Result<VariabilityStage>,
    {
        self.variability
            .get_or_compute(&Stage::Variability.key(config), compute)
    }

    pub(crate) fn addressability<F>(
        &self,
        config: &SimConfig,
        compute: F,
    ) -> Result<AddressabilityProfile>
    where
        F: FnOnce() -> Result<AddressabilityProfile>,
    {
        self.addressability
            .get_or_compute(&Stage::Addressability.key(config), compute)
    }

    pub(crate) fn contact_layout<F>(
        &self,
        config: &SimConfig,
        compute: F,
    ) -> Result<ContactGroupLayout>
    where
        F: FnOnce() -> Result<ContactGroupLayout>,
    {
        self.contact_layout
            .get_or_compute(&Stage::ContactLayout.key(config), compute)
    }

    pub(crate) fn cave_yield<F>(&self, config: &SimConfig, compute: F) -> Result<CaveYield>
    where
        F: FnOnce() -> Result<CaveYield>,
    {
        self.cave_yield
            .get_or_compute(&Stage::CaveYield.key(config), compute)
    }

    pub(crate) fn crossbar_area<F>(&self, config: &SimConfig, compute: F) -> Result<CrossbarArea>
    where
        F: FnOnce() -> Result<CrossbarArea>,
    {
        self.crossbar_area
            .get_or_compute(&Stage::CrossbarArea.key(config), compute)
    }

    /// The defect-map slot keeps only what [`Stage::Composite`] reads of a
    /// sampled map, its [`DefectTally`], so a hit copies three words
    /// instead of cloning the map.
    pub(crate) fn defect_map<F>(
        &self,
        config: &SimConfig,
        compute: F,
    ) -> Result<Option<DefectTally>>
    where
        F: FnOnce() -> Result<Option<DefectTally>>,
    {
        self.defect_map
            .get_or_compute(&Stage::DefectMap.key(config), compute)
    }

    pub(crate) fn composite<F>(&self, config: &SimConfig, compute: F) -> Result<PlatformReport>
    where
        F: FnOnce() -> Result<PlatformReport>,
    {
        self.composite.get_or_compute(config, compute)
    }

    /// The Monte-Carlo slot keys on the stage key **plus** the sampling
    /// parameters that are part of an outcome's identity: sample count,
    /// run seed, the adaptive-stopping knobs (target half-width,
    /// confidence, sample cap), and the engine chunk size (outcomes are
    /// bit-identical across thread counts but depend on the chunk size).
    pub(crate) fn monte_carlo<F>(
        &self,
        config: &SimConfig,
        mc: MonteCarloConfig,
        chunk_size: usize,
        compute: F,
    ) -> Result<MonteCarloOutcome>
    where
        F: FnOnce() -> Result<MonteCarloOutcome>,
    {
        let mut key = Stage::MonteCarlo.key(config);
        key.push_monte_carlo(mc);
        key.push(chunk_size as u64);
        self.monte_carlo.get_or_compute(&key, compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbar_array::LayoutRules;
    use device_physics::{Nanometers, ThresholdModel, Volts};
    use nanowire_codes::{
        ArrangedHotBudget, BalanceBudget, CodeBudgets, CodeKind, CodeSpec, LogicLevel,
    };

    fn base() -> SimConfig {
        let code = CodeSpec::new(CodeKind::Tree, LogicLevel::BINARY, 8).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    /// A configuration differing from [`base`] in exactly `field`.
    fn varied(field: ConfigField) -> SimConfig {
        let base = base();
        match field {
            ConfigField::Code => {
                base.with_code(CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap())
            }
            ConfigField::NanowiresPerHalfCave => base.with_nanowires_per_half_cave(24).unwrap(),
            ConfigField::RawBits => rebuild(&base, 2 * base.raw_bits(), *base.layout(), None, None),
            ConfigField::Layout => rebuild(
                &base,
                base.raw_bits(),
                LayoutRules::new(
                    Nanometers::new(45.0),
                    Nanometers::new(10.0),
                    1.5,
                    Nanometers::new(16.0),
                )
                .unwrap(),
                None,
                None,
            ),
            ConfigField::ThresholdModel => rebuild(
                &base,
                base.raw_bits(),
                *base.layout(),
                Some(ThresholdModel::new(Nanometers::new(3.0), Volts::new(-1.0)).unwrap()),
                None,
            ),
            ConfigField::SigmaPerDose => base
                .with_sigma_per_dose(Volts::from_millivolts(40.0))
                .unwrap(),
            ConfigField::SupplyRange => rebuild(
                &base,
                base.raw_bits(),
                *base.layout(),
                None,
                Some((Volts::new(0.0), Volts::new(1.2))),
            ),
            ConfigField::WindowOverride => base.with_window(Volts::new(0.2)),
            ConfigField::CodeBudgets => base.with_code_budgets(CodeBudgets {
                balance: BalanceBudget {
                    max_nodes_per_limit: 1_000,
                    max_limit_slack: 2,
                },
                arranged_hot: ArrangedHotBudget::default(),
            }),
            ConfigField::Disturbance => base.with_disturbance(DisturbanceKind::Laplace),
            ConfigField::Defects => {
                base.with_defects(DefectKind::sampled(0.02, 0.01, 2_009).unwrap())
            }
            ConfigField::MonteCarlo => base.with_monte_carlo(MonteCarloConfig::fixed(123, 9)),
        }
    }

    /// Rebuilds [`base`] through [`SimConfig::new`] with selected
    /// parameters swapped (the fields without `with_` builders).
    fn rebuild(
        base: &SimConfig,
        raw_bits: u64,
        layout: LayoutRules,
        threshold: Option<ThresholdModel>,
        supply: Option<(Volts, Volts)>,
    ) -> SimConfig {
        SimConfig::new(
            base.code(),
            base.nanowires_per_half_cave(),
            raw_bits,
            layout,
            threshold.unwrap_or(*base.threshold_model()),
            base.sigma_per_dose(),
            supply.unwrap_or(base.supply_range()),
        )
        .unwrap()
    }

    #[test]
    fn keys_change_iff_the_field_is_in_the_read_set() {
        let base = base();
        for field in ConfigField::ALL {
            let varied = varied(field);
            assert_ne!(base, varied, "varied({field:?}) must differ from base");
            for stage in Stage::ALL {
                let declared = stage.reads().contains(&field);
                let changed = stage.key(&base) != stage.key(&varied);
                assert_eq!(
                    declared, changed,
                    "{stage:?} key change={changed} but reads declares {declared} for {field:?}"
                );
            }
        }
    }

    #[test]
    fn stage_fingerprints_are_domain_and_index_separated() {
        let config = base();
        // The stages of one configuration never share a fingerprint...
        let mut fingerprints: Vec<u64> = Stage::ALL
            .iter()
            .map(|stage| stage.key(&config).fingerprint())
            .collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), Stage::ALL.len());
        // ...and never equal the full-config fingerprint of the same
        // configuration (different domain tags).
        let report = crate::cache::ReportCache::fingerprint(&config);
        for stage in Stage::ALL {
            assert_ne!(stage.key(&config).fingerprint(), report);
        }
    }

    /// The words `field` writes for `config`, without a stage tag.
    fn field_words(field: ConfigField, config: &SimConfig) -> Vec<u64> {
        let mut key = StageKey::new(Stage::Composite);
        field.write(config, &mut key);
        key.words()[1..].to_vec()
    }

    #[test]
    fn varying_one_field_changes_its_words_and_no_others() {
        let base = base();
        for field in ConfigField::ALL {
            let varied = varied(field);
            for other in ConfigField::ALL {
                let (before, after) = (field_words(other, &base), field_words(other, &varied));
                assert_eq!(
                    before.len(),
                    after.len(),
                    "{other:?} is not fixed-width under varied({field:?})"
                );
                assert_eq!(
                    before != after,
                    other == field,
                    "varied({field:?}) moved the words of {other:?}: {before:?} -> {after:?}"
                );
            }
        }
    }

    /// Asserts that `configs` are pairwise distinguished by `field`'s words
    /// and by the key of every stage that reads `field`.
    fn assert_separated(field: ConfigField, configs: &[SimConfig]) {
        for (index, a) in configs.iter().enumerate() {
            for b in &configs[index + 1..] {
                assert_ne!(
                    field_words(field, a),
                    field_words(field, b),
                    "{field:?} words collide"
                );
                for stage in Stage::ALL {
                    if stage.reads().contains(&field) {
                        assert_ne!(stage.key(a), stage.key(b), "{stage:?} keys collide");
                    }
                }
            }
        }
    }

    #[test]
    fn tags_separate_variants_and_options() {
        let base = base();
        assert_separated(
            ConfigField::WindowOverride,
            &[
                base.clone(),
                base.clone().with_window(Volts::new(0.0)),
                base.clone().with_window(Volts::new(-0.0)),
            ],
        );
        assert_separated(
            ConfigField::Disturbance,
            &[
                base.clone(),
                base.clone().with_disturbance(DisturbanceKind::Laplace),
                base.clone().with_disturbance(DisturbanceKind::Correlated {
                    shared_fraction: 0.0,
                }),
                base.clone().with_disturbance(DisturbanceKind::Correlated {
                    shared_fraction: 1.0,
                }),
            ],
        );
        assert_separated(
            ConfigField::Defects,
            &[
                base.clone(),
                base.clone()
                    .with_defects(DefectKind::sampled(0.0, 0.0, 0).unwrap()),
            ],
        );
        let fixed = MonteCarloConfig::fixed(100, 1);
        assert_separated(
            ConfigField::MonteCarlo,
            &[
                base.clone().with_monte_carlo(fixed),
                base.clone()
                    .with_monte_carlo(fixed.with_target_half_width(f64::MIN_POSITIVE)),
                base.clone()
                    .with_monte_carlo(fixed.with_target_half_width(0.05)),
                base.clone().with_monte_carlo(fixed.with_max_samples(1)),
                base.clone().with_monte_carlo(fixed.with_max_samples(100)),
            ],
        );
    }

    #[test]
    fn equal_configs_built_different_ways_share_keys() {
        let defects = DefectKind::sampled(0.02, 0.01, 2_009).unwrap();
        let correlated = DisturbanceKind::Correlated {
            shared_fraction: 0.5,
        };
        let adaptive = MonteCarloConfig::fixed(400, 7)
            .with_target_half_width(0.05)
            .with_max_samples(2_000);
        let built = base()
            .with_window(Volts::new(0.2))
            .with_defects(defects)
            .with_disturbance(correlated)
            .with_monte_carlo(adaptive);
        let base = base();
        let rebuilt = rebuild(&base, base.raw_bits(), *base.layout(), None, None)
            .with_monte_carlo(adaptive)
            .with_disturbance(correlated)
            .with_defects(defects)
            .with_window(Volts::from_millivolts(200.0));
        let json = crate::codec::render(|out| crate::codec::config_to_json(&built, out));
        let from_json =
            crate::codec::config_from_json(crate::codec::JsonTape::parse(&json).unwrap().root())
                .unwrap();
        let from_bin =
            crate::bincodec::config_from_bin(&crate::bincodec::config_to_bin(&built)).unwrap();
        for other in [&rebuilt, &from_json, &from_bin] {
            assert_eq!(&built, other);
            for stage in Stage::ALL {
                assert_eq!(stage.key(&built), stage.key(other), "{stage:?}");
            }
        }
    }

    #[test]
    fn every_stage_key_fits_the_inline_words() {
        let mut widest = 0;
        for stage in Stage::ALL {
            widest = widest.max(stage.key(&base()).words().len());
        }
        // The Monte-Carlo slot appends the sampling parameters (7 words)
        // and the chunk size to its stage key.
        let monte_carlo = Stage::MonteCarlo.key(&base()).words().len() + 8;
        assert_eq!(widest.max(monte_carlo), KEY_WORDS);
    }

    #[test]
    fn read_sets_cover_dependencies() {
        // A stage's read set must contain every field its dependencies
        // read, or invalidation would not propagate downstream.
        for stage in Stage::ALL {
            for &dependency in stage.depends_on() {
                for field in dependency.reads() {
                    assert!(
                        stage.reads().contains(field),
                        "{stage:?} misses {field:?} read by its dependency {dependency:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn disabled_cache_always_recomputes() {
        let cache = StageCache::disabled();
        let config = base();
        let mut computed = 0;
        for _ in 0..2 {
            cache
                .contact_layout(&config, || {
                    computed += 1;
                    Ok(ContactGroupLayout::new(
                        config.nanowires_per_half_cave(),
                        config.code().space_size(),
                        *config.layout(),
                    )?)
                })
                .unwrap();
        }
        assert_eq!(computed, 2);
        assert!(cache.is_empty());
        let rows = cache.stats();
        let contact = rows
            .iter()
            .find(|row| row.stage == Stage::ContactLayout)
            .unwrap();
        assert_eq!((contact.stats.hits, contact.stats.misses), (0, 2));
    }

    #[test]
    fn enabled_cache_hits_on_repeats_and_counts_per_stage() {
        let cache = StageCache::new(CacheConfig::unsharded(16));
        let config = base();
        for _ in 0..3 {
            cache
                .cave_yield(&config, || {
                    let platform = crate::platform::SimulationPlatform::new(config.clone());
                    platform.cave_yield()
                })
                .unwrap();
        }
        let rows = cache.stats();
        let cave = rows
            .iter()
            .find(|row| row.stage == Stage::CaveYield)
            .unwrap();
        assert_eq!((cave.stats.hits, cave.stats.misses), (2, 1));
        // Other stages are untouched.
        let variability = rows
            .iter()
            .find(|row| row.stage == Stage::Variability)
            .unwrap();
        assert_eq!(variability.stats, CacheStats::default());
    }

    #[test]
    fn monte_carlo_keys_include_sampling_parameters() {
        let cache = StageCache::new(CacheConfig::unsharded(16));
        let config = base();
        let outcome = MonteCarloOutcome {
            profile: crossbar_array::AddressabilityProfile::new(vec![1.0]).unwrap(),
            samples: 1,
            samples_used: 1,
            ci_lower: vec![0.0],
            ci_upper: vec![1.0],
        };
        let mc = MonteCarloConfig::fixed(100, 1);
        let variants = [
            MonteCarloConfig::fixed(100, 1),
            MonteCarloConfig::fixed(200, 1),
            MonteCarloConfig::fixed(100, 2),
            MonteCarloConfig::fixed(100, 1).with_target_half_width(0.05),
            MonteCarloConfig::fixed(100, 1).with_confidence(0.99),
            MonteCarloConfig::fixed(100, 1).with_max_samples(5_000),
        ];
        for (index, variant) in variants.into_iter().enumerate() {
            let chunk = if index == 0 { 128 } else { 256 };
            cache
                .monte_carlo(&config, variant, 256, || Ok(outcome.clone()))
                .unwrap();
            cache
                .monte_carlo(&config, variant, chunk, || Ok(outcome.clone()))
                .unwrap();
        }
        // Every sampling knob (samples, seed, target, confidence, max) and
        // the chunk size are part of the key: seven distinct keys above, and
        // the five repeats with identical (config, chunk) pairs hit.
        let rows = cache.stats();
        let mc_row = rows
            .iter()
            .find(|row| row.stage == Stage::MonteCarlo)
            .unwrap();
        assert_eq!((mc_row.stats.hits, mc_row.stats.misses), (5, 7));
        // And a repeat of the first configuration hits again.
        cache
            .monte_carlo(&config, mc, 256, || Ok(outcome.clone()))
            .unwrap();
        let rows = cache.stats();
        let mc_row = rows
            .iter()
            .find(|row| row.stage == Stage::MonteCarlo)
            .unwrap();
        assert_eq!((mc_row.stats.hits, mc_row.stats.misses), (6, 7));
    }
}
