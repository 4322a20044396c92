//! Defect injection — an extension beyond the paper's scope.
//!
//! The paper explicitly neglects broken nanowires ("we actually noticed that
//! the fabricated nanowires had a yield close to unit") and molecular-switch
//! defects. Real MSPT arrays of very high aspect ratio will eventually break
//! some spacers, so this module models the two first-order defect mechanisms
//! and composes them with the decoder yield:
//!
//! * **broken nanowires** — a nanowire that is mechanically interrupted can
//!   never conduct, independent of its decoder pattern;
//! * **stuck crosspoints** — a crosspoint whose molecular/phase-change layer
//!   is shorted or open, independent of the decoders.
//!
//! Both defect types are independent of the decoder-induced losses, so the
//! composite crossbar yield is the product of the three factors.
//!
//! # Chunked map layout (determinism contract)
//!
//! [`DefectModel::sample_map`] draws a map not from one long RNG stream but
//! from **independently seeded chunks**, so map generation can be sharded
//! across threads (see `decoder_sim::ExecutionEngine::sample_defect_map`)
//! while staying bit-identical for any thread count:
//!
//! * chunk `0` — the row-breakage vector;
//! * chunk `1` — the column-breakage vector;
//! * chunk `2 + b` — band `b` of the crosspoint-defect matrix, covering rows
//!   `b · DEFECT_BAND_ROWS .. (b + 1) · DEFECT_BAND_ROWS`.
//!
//! Chunk `c` is seeded [`chunk_seed`]`(seed ^ DOMAIN, c)`, where `DOMAIN` is
//! a fixed defect-map tag: a Monte-Carlo estimation and a defect map sharing
//! one run seed therefore draw from *decorrelated* streams instead of
//! replaying each other's uniforms.
//!
//! Every chunk consumes a fixed number of uniforms (one per nanowire or
//! crosspoint it covers), so the map depends only on `(rates, rows, columns,
//! seed)` — never on which thread samples which chunk, and never on the
//! defect rates steering RNG consumption. One uniform per crosspoint, always.
//!
//! # Packed layout
//!
//! The crosspoint-defect matrix is stored as `u64` bit rows: with
//! `w = columns.div_ceil(64)` words per row, row `r` is words
//! `r · w .. (r + 1) · w`, column `c` is bit `c % 64` of that row's word
//! `c / 64`, and the padding bits past the last column are zero. A band
//! chunk fills each word in registers, 64 draws at a time, and
//! [`DefectMap::usable_fraction`] counts the usable crosspoints of an intact
//! row as `Σ popcount(!defective & live_columns)` over its words.
//!
//! # Integer-threshold draws
//!
//! A draw used to be `rng.gen::<f64>() < rate`, where the uniform is
//! `u = x · 2⁻⁵³` for `x = next_u64() >> 11`, an integer in `[0, 2⁵³)`. Both
//! scalings by `2⁻⁵³` and `2⁵³` are exact in `f64`, so `u < rate` holds
//! exactly when `x < rate · 2⁵³`, and for an integer `x` that is
//! `x < ⌈rate · 2⁵³⌉ = T`. Each crosspoint therefore draws
//! `(next_u64() >> 11) < T` with `T` computed once per chunk: the same
//! uniforms, the same outcomes, bit-identical maps, and no float conversion
//! in the inner loop. Rate `0` gives `T = 0` (never defective), rate `1`
//! gives `T = 2⁵³` (always), and the smallest subnormal rate gives `T = 1`
//! (defective only for `x = 0`, exactly as `0.0 < rate`).

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::{CrossbarError, Result};
use crate::yield_model::CaveYield;

/// Derives the RNG seed of one deterministic work chunk from a run seed and
/// the chunk index — a SplitMix64-style finalizer, so neighbouring chunks get
/// well-separated generator states and the mapping depends on nothing else.
///
/// This is the workspace-wide stream-splitting primitive: the Monte-Carlo
/// sampler in `decoder-sim` seeds its sample chunks with it directly, and
/// [`DefectModel::sample_map`] seeds its map chunks with it through a
/// defect-map domain tag (see the module docs), so the two samplers never
/// replay each other's streams for a shared run seed. Both contracts
/// ("bit-identical for any thread count") rest on this function being pure in
/// `(seed, chunk_index)`.
#[must_use]
pub fn chunk_seed(seed: u64, chunk_index: u64) -> u64 {
    let mut z = seed.wrapping_add(
        chunk_index
            .wrapping_add(1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Number of crossbar rows per defect-map band — the fixed chunk size of the
/// chunked map layout. Fixed (rather than derived from the machine) so maps
/// are reproducible across hosts; like the Monte-Carlo `chunk_size`, maps
/// depend on this value but never on the thread count.
pub const DEFECT_BAND_ROWS: usize = 64;

/// Number of [`DEFECT_BAND_ROWS`]-row bands a `rows`-row defect map is
/// sampled in (the last band may be shorter).
#[must_use]
pub fn defect_band_count(rows: usize) -> usize {
    rows.div_ceil(DEFECT_BAND_ROWS)
}

/// Domain-separation tag mixed into the run seed before defect-map chunk
/// derivation. Without it, chunk `c` of a defect map and chunk `c` of a
/// Monte-Carlo estimation sharing one run seed would consume the *same*
/// uniform stream, statistically coupling broken-nanowire placement to the
/// sampled dose disturbances in combined studies.
const DEFECT_SEED_DOMAIN: u64 = 0xdefe_c7ed_0000_0001;

/// The generator of chunk `chunk` of the map layout — the defect-map
/// instance of the chunk-seeding contract,
/// `chunk_seed(seed ^ DEFECT_SEED_DOMAIN, chunk)`.
fn defect_chunk_rng(seed: u64, chunk: u64) -> StdRng {
    StdRng::seed_from_u64(chunk_seed(seed ^ DEFECT_SEED_DOMAIN, chunk))
}

/// The integer threshold `T = ⌈rate · 2⁵³⌉` of the module docs: the draw
/// `(next_u64() >> 11) < T` is exactly `gen::<f64>() < rate`. A NaN or
/// negative rate saturates to `0` and a rate above `1` to at least `2⁵³`,
/// matching the float compare there too.
fn defect_threshold(rate: f64) -> u64 {
    (rate * (1u64 << 53) as f64).ceil() as u64
}

/// One draw of a chunk stream against a [`defect_threshold`].
fn draw(rng: &mut StdRng, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

/// Words of one packed row of a `columns`-column map.
fn row_words(columns: usize) -> usize {
    columns.div_ceil(64)
}

/// Number of `u64` words in the packed crosspoint matrix of a
/// `rows × columns` defect map (`rows · ⌈columns / 64⌉`, see the module
/// docs).
///
/// # Errors
///
/// Returns [`CrossbarError::InvalidSpec`] when either dimension is zero, or
/// when the matrix and its two breakage vectors together would not fit in
/// `isize::MAX` bytes — the check that lets a sampler reject an oversize map
/// before it allocates or draws anything.
pub fn defect_map_words(rows: usize, columns: usize) -> Result<usize> {
    if rows == 0 || columns == 0 {
        return Err(CrossbarError::InvalidSpec {
            reason: format!("defect map dimensions {rows}x{columns} must be positive"),
        });
    }
    let words = rows.checked_mul(row_words(columns));
    let bytes = words
        .and_then(|words| words.checked_mul(8))
        .and_then(|bytes| bytes.checked_add(rows))
        .and_then(|bytes| bytes.checked_add(columns));
    match (words, bytes) {
        (Some(words), Some(bytes)) if isize::try_from(bytes).is_ok() => Ok(words),
        _ => Err(CrossbarError::InvalidSpec {
            reason: format!("defect map dimensions {rows}x{columns} are too large"),
        }),
    }
}

/// The defect rates of the crossbar, all as independent probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DefectModel {
    /// Probability that a nanowire is mechanically broken.
    nanowire_breakage: f64,
    /// Probability that a crosspoint's switching layer is defective.
    crosspoint_defect: f64,
}

impl DefectModel {
    /// Creates a defect model.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidProbability`] when either rate is
    /// outside `[0, 1]`.
    pub fn new(nanowire_breakage: f64, crosspoint_defect: f64) -> Result<Self> {
        for value in [nanowire_breakage, crosspoint_defect] {
            if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                return Err(CrossbarError::InvalidProbability { value });
            }
        }
        Ok(DefectModel {
            nanowire_breakage,
            crosspoint_defect,
        })
    }

    /// The paper's assumption: no breakage, no switch defects.
    #[must_use]
    pub fn ideal() -> Self {
        DefectModel {
            nanowire_breakage: 0.0,
            crosspoint_defect: 0.0,
        }
    }

    /// The nanowire breakage probability.
    #[must_use]
    pub fn nanowire_breakage(&self) -> f64 {
        self.nanowire_breakage
    }

    /// The crosspoint defect probability.
    #[must_use]
    pub fn crosspoint_defect(&self) -> f64 {
        self.crosspoint_defect
    }

    /// The probability that a given crosspoint survives both of its nanowires
    /// being intact and its own switching layer being functional —
    /// independent of the decoder.
    #[must_use]
    pub fn crosspoint_survival(&self) -> f64 {
        let wire_ok = 1.0 - self.nanowire_breakage;
        wire_ok * wire_ok * (1.0 - self.crosspoint_defect)
    }

    /// Composes the decoder yield with the defect model: the fraction of
    /// crosspoints that are both addressable (decoder) and functional
    /// (defects).
    #[must_use]
    pub fn compose_with(&self, decoder_yield: &CaveYield) -> CompositeYield {
        let crossbar_yield = decoder_yield.crossbar_yield() * self.crosspoint_survival();
        CompositeYield {
            decoder_yield: decoder_yield.crossbar_yield(),
            defect_survival: self.crosspoint_survival(),
            crossbar_yield,
        }
    }

    /// Samples a defect map for a `rows × columns` crossbar with a
    /// deterministic seed: which nanowires are broken and which crosspoints
    /// are defective.
    ///
    /// The map is assembled from the independently seeded chunks of the
    /// module-level layout, so this serial reference implementation is
    /// bit-identical to a sharded assembly of the same chunks at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidSpec`] when either dimension is zero
    /// or the map is too large to allocate (see [`defect_map_words`]).
    pub fn sample_map(&self, rows: usize, columns: usize, seed: u64) -> Result<DefectMap> {
        let mut defective = Vec::with_capacity(defect_map_words(rows, columns)?);
        for band in 0..defect_band_count(rows) {
            defective.extend(self.sample_defective_band(band, rows, columns, seed));
        }
        DefectMap::from_parts(
            rows,
            columns,
            self.sample_row_breakage(rows, seed),
            self.sample_column_breakage(columns, seed),
            defective,
        )
    }

    /// Samples chunk `0` of the map layout: the row-breakage vector (`rows`
    /// uniforms from the chunk-0 generator of the domain-tagged layout).
    #[must_use]
    pub fn sample_row_breakage(&self, rows: usize, seed: u64) -> Vec<bool> {
        self.sample_breakage(rows, defect_chunk_rng(seed, 0))
    }

    /// Samples chunk `1` of the map layout: the column-breakage vector
    /// (`columns` uniforms from the chunk-1 generator of the domain-tagged
    /// layout).
    #[must_use]
    pub fn sample_column_breakage(&self, columns: usize, seed: u64) -> Vec<bool> {
        self.sample_breakage(columns, defect_chunk_rng(seed, 1))
    }

    /// Samples chunk `2 + band` of the map layout: the packed crosspoint-
    /// defect rows of `band` (the layout of the module docs, one uniform per
    /// crosspoint in row-major order, from the chunk-`2 + band` generator of
    /// the domain-tagged layout).
    ///
    /// Bands past the end of the map (`band ≥ defect_band_count(rows)`) are
    /// empty.
    #[must_use]
    pub fn sample_defective_band(
        &self,
        band: usize,
        rows: usize,
        columns: usize,
        seed: u64,
    ) -> Vec<u64> {
        let start = band.saturating_mul(DEFECT_BAND_ROWS);
        let band_rows = rows.saturating_sub(start).min(DEFECT_BAND_ROWS);
        let threshold = defect_threshold(self.crosspoint_defect);
        let mut rng = defect_chunk_rng(seed, 2 + band as u64);
        let mut words = Vec::new();
        for _ in 0..band_rows {
            for first in (0..columns).step_by(64) {
                let bits = (columns - first).min(64);
                words.push((0..bits).fold(0u64, |word, bit| {
                    word | u64::from(draw(&mut rng, threshold)) << bit
                }));
            }
        }
        words
    }

    fn sample_breakage(&self, count: usize, mut rng: StdRng) -> Vec<bool> {
        let threshold = defect_threshold(self.nanowire_breakage);
        (0..count).map(|_| draw(&mut rng, threshold)).collect()
    }
}

impl Default for DefectModel {
    fn default() -> Self {
        DefectModel::ideal()
    }
}

/// The decoder yield combined with the defect survival.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompositeYield {
    /// The decoder-limited crossbar yield `Y²`.
    pub decoder_yield: f64,
    /// The defect survival probability of a crosspoint.
    pub defect_survival: f64,
    /// The composite crossbar yield (product of the two).
    pub crossbar_yield: f64,
}

impl CompositeYield {
    /// The effective number of usable bits of a crossbar with `raw_bits`
    /// crosspoints.
    #[must_use]
    pub fn effective_bits(&self, raw_bits: u64) -> f64 {
        raw_bits as f64 * self.crossbar_yield
    }
}

/// A sampled defect map of one crossbar instance: the breakage vectors and
/// the packed crosspoint-defect matrix of the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefectMap {
    rows: usize,
    columns: usize,
    broken_rows: Vec<bool>,
    broken_columns: Vec<bool>,
    defective: Vec<u64>,
}

impl DefectMap {
    /// Assembles a map from sampled chunks: the breakage vectors and the
    /// packed crosspoint-defect rows (the concatenated bands of the
    /// module-level layout, [`defect_map_words`] words in all).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidSpec`] when either dimension is zero,
    /// the map is too large (see [`defect_map_words`]), or a part's length
    /// does not match the dimensions.
    pub fn from_parts(
        rows: usize,
        columns: usize,
        broken_rows: Vec<bool>,
        broken_columns: Vec<bool>,
        defective: Vec<u64>,
    ) -> Result<Self> {
        let words = defect_map_words(rows, columns)?;
        if broken_rows.len() != rows || broken_columns.len() != columns || defective.len() != words
        {
            return Err(CrossbarError::InvalidSpec {
                reason: format!(
                    "defect map parts ({}, {}, {} words) do not match dimensions {rows}x{columns}",
                    broken_rows.len(),
                    broken_columns.len(),
                    defective.len()
                ),
            });
        }
        Ok(DefectMap {
            rows,
            columns,
            broken_rows,
            broken_columns,
            defective,
        })
    }

    /// Number of row nanowires.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of column nanowires.
    #[must_use]
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Whether a row nanowire is broken.
    #[must_use]
    pub fn row_broken(&self, row: usize) -> bool {
        self.broken_rows.get(row).copied().unwrap_or(true)
    }

    /// Whether a column nanowire is broken.
    #[must_use]
    pub fn column_broken(&self, column: usize) -> bool {
        self.broken_columns.get(column).copied().unwrap_or(true)
    }

    /// Whether a crosspoint's switching layer is defective.
    #[must_use]
    pub fn crosspoint_defective(&self, row: usize, column: usize) -> bool {
        if row >= self.rows || column >= self.columns {
            return true;
        }
        let word = self.defective[row * row_words(self.columns) + column / 64];
        word >> (column % 64) & 1 == 1
    }

    /// Whether a crosspoint is usable under this defect map (both nanowires
    /// intact and the switching layer functional).
    #[must_use]
    pub fn crosspoint_usable(&self, row: usize, column: usize) -> bool {
        !self.row_broken(row)
            && !self.column_broken(column)
            && !self.crosspoint_defective(row, column)
    }

    /// Counts the usable crosspoints: over every intact row,
    /// `Σ popcount(!defective & live_columns)` of its packed words.
    #[must_use]
    pub fn tally(&self) -> DefectTally {
        let mut live = vec![0u64; row_words(self.columns)];
        for (column, &broken) in self.broken_columns.iter().enumerate() {
            live[column / 64] |= u64::from(!broken) << (column % 64);
        }
        let usable = self
            .defective
            .chunks_exact(live.len())
            .zip(&self.broken_rows)
            .filter(|(_, &broken)| !broken)
            .map(|(row, _)| {
                row.iter()
                    .zip(&live)
                    .map(|(&defective, &live)| (!defective & live).count_ones() as usize)
                    .sum::<usize>()
            })
            .sum();
        DefectTally {
            rows: self.rows,
            columns: self.columns,
            usable,
        }
    }

    /// The fraction of usable crosspoints of the sampled instance.
    #[must_use]
    pub fn usable_fraction(&self) -> f64 {
        self.tally().usable_fraction()
    }
}

/// What composition reads of a sampled [`DefectMap`]: its dimensions and
/// its usable-crosspoint count. `Copy` and three words wide, so a memo can
/// keep it in place of the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefectTally {
    rows: usize,
    columns: usize,
    usable: usize,
}

impl DefectTally {
    /// Number of row nanowires of the tallied map.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of column nanowires of the tallied map.
    #[must_use]
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Number of usable crosspoints of the tallied map.
    #[must_use]
    pub fn usable(&self) -> usize {
        self.usable
    }

    /// The fraction of usable crosspoints of the tallied map.
    #[must_use]
    pub fn usable_fraction(&self) -> f64 {
        self.usable as f64 / (self.rows * self.columns) as f64
    }

    /// Composes the sampled instance with the decoder yield: the sampled
    /// counterpart of [`DefectModel::compose_with`], using the instance's
    /// [`usable_fraction`](DefectTally::usable_fraction) instead of the
    /// expected survival — what one concrete fabricated crossbar would
    /// deliver rather than the ensemble average.
    #[must_use]
    pub fn compose_with(&self, decoder_yield: &CaveYield) -> CompositeYield {
        let defect_survival = self.usable_fraction();
        CompositeYield {
            decoder_yield: decoder_yield.crossbar_yield(),
            defect_survival,
            crossbar_yield: decoder_yield.crossbar_yield() * defect_survival,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::ContactGroupLayout;
    use crate::geometry::LayoutRules;
    use crate::yield_model::AddressabilityProfile;
    use rand::Rng;

    fn decoder_yield() -> CaveYield {
        let layout = ContactGroupLayout::new(20, 32, LayoutRules::paper_default()).unwrap();
        let profile = AddressabilityProfile::new(vec![0.9; 20]).unwrap();
        CaveYield::compute(&profile, &layout).unwrap()
    }

    #[test]
    fn construction_validates_probabilities() {
        assert!(DefectModel::new(-0.1, 0.0).is_err());
        assert!(DefectModel::new(0.0, 1.5).is_err());
        assert!(DefectModel::new(f64::NAN, 0.0).is_err());
        assert!(DefectModel::new(0.02, 0.01).is_ok());
        assert_eq!(DefectModel::default(), DefectModel::ideal());
    }

    #[test]
    fn ideal_model_does_not_change_the_decoder_yield() {
        let decoder = decoder_yield();
        let composite = DefectModel::ideal().compose_with(&decoder);
        assert_eq!(composite.defect_survival, 1.0);
        assert!((composite.crossbar_yield - decoder.crossbar_yield()).abs() < 1e-12);
        assert!((composite.effective_bits(1_000) - decoder.effective_bits(1_000)).abs() < 1e-9);
    }

    #[test]
    fn defects_compose_multiplicatively() {
        let decoder = decoder_yield();
        let model = DefectModel::new(0.05, 0.02).unwrap();
        let composite = model.compose_with(&decoder);
        let expected_survival = 0.95 * 0.95 * 0.98;
        assert!((composite.defect_survival - expected_survival).abs() < 1e-12);
        assert!(
            (composite.crossbar_yield - decoder.crossbar_yield() * expected_survival).abs() < 1e-12
        );
        assert!(composite.crossbar_yield < composite.decoder_yield);
    }

    #[test]
    fn sampled_maps_match_the_rates_statistically() {
        let model = DefectModel::new(0.1, 0.05).unwrap();
        let map = model.sample_map(200, 200, 42).unwrap();
        assert_eq!(map.rows(), 200);
        assert_eq!(map.columns(), 200);
        let usable = map.usable_fraction();
        let expected = model.crosspoint_survival();
        assert!(
            (usable - expected).abs() < 0.05,
            "sampled {usable}, expected {expected}"
        );
        // Determinism: the same seed gives the same map.
        assert_eq!(map, model.sample_map(200, 200, 42).unwrap());
        assert_ne!(map, model.sample_map(200, 200, 43).unwrap());
    }

    #[test]
    fn sampled_maps_compose_with_the_decoder_yield() {
        let decoder = decoder_yield();
        let model = DefectModel::new(0.1, 0.05).unwrap();
        let map = model.sample_map(100, 100, 42).unwrap();
        let composite = map.tally().compose_with(&decoder);
        assert_eq!(composite.defect_survival, map.usable_fraction());
        assert_eq!(composite.decoder_yield, decoder.crossbar_yield());
        assert!(
            (composite.crossbar_yield - decoder.crossbar_yield() * map.usable_fraction()).abs()
                < 1e-15
        );
        // An ideal map composes to exactly the decoder yield.
        let ideal = DefectModel::ideal().sample_map(10, 10, 1).unwrap();
        let unchanged = ideal.tally().compose_with(&decoder);
        assert_eq!(unchanged.defect_survival, 1.0);
        assert_eq!(unchanged.crossbar_yield, decoder.crossbar_yield());
    }

    #[test]
    fn out_of_range_lookups_count_as_defective() {
        let map = DefectModel::ideal().sample_map(4, 4, 1).unwrap();
        assert!(map.crosspoint_defective(10, 0));
        assert!(map.row_broken(10));
        assert!(map.column_broken(10));
        assert!(!map.crosspoint_usable(10, 0));
        assert!(map.crosspoint_usable(1, 1));
        assert_eq!(map.usable_fraction(), 1.0);
    }

    #[test]
    fn zero_sized_maps_are_rejected() {
        assert!(DefectModel::ideal().sample_map(0, 4, 1).is_err());
        assert!(DefectModel::ideal().sample_map(4, 0, 1).is_err());
    }

    #[test]
    fn chunk_seeds_are_distinct_and_stable() {
        assert_eq!(chunk_seed(42, 0), chunk_seed(42, 0));
        assert_ne!(chunk_seed(42, 0), chunk_seed(42, 1));
        assert_ne!(chunk_seed(42, 0), chunk_seed(43, 0));
    }

    #[test]
    fn maps_assemble_from_independently_sampled_chunks() {
        // Spanning multiple bands (150 rows > DEFECT_BAND_ROWS), reassembling
        // the chunks in any grouping must reproduce sample_map exactly — the
        // property the execution engine's sharded assembly relies on.
        let model = DefectModel::new(0.1, 0.05).unwrap();
        let (rows, columns, seed) = (150usize, 40usize, 42u64);
        assert_eq!(defect_band_count(rows), 3);
        let mut defective = Vec::new();
        // Deliberately sample the bands out of order to mimic scheduling.
        let mut bands: Vec<(usize, Vec<u64>)> = (0..defect_band_count(rows))
            .rev()
            .map(|band| (band, model.sample_defective_band(band, rows, columns, seed)))
            .collect();
        bands.sort_by_key(|(band, _)| *band);
        for (_, band) in bands {
            defective.extend(band);
        }
        let assembled = DefectMap::from_parts(
            rows,
            columns,
            model.sample_row_breakage(rows, seed),
            model.sample_column_breakage(columns, seed),
            defective,
        )
        .unwrap();
        assert_eq!(assembled, model.sample_map(rows, columns, seed).unwrap());
    }

    #[test]
    fn from_parts_validates_lengths() {
        // A 2x2 map packs into one word per row.
        assert!(DefectMap::from_parts(2, 2, vec![false; 2], vec![false; 2], vec![0; 2]).is_ok());
        assert!(DefectMap::from_parts(2, 2, vec![false; 3], vec![false; 2], vec![0; 2]).is_err());
        assert!(DefectMap::from_parts(2, 2, vec![false; 2], vec![false; 1], vec![0; 2]).is_err());
        assert!(DefectMap::from_parts(2, 2, vec![false; 2], vec![false; 2], vec![0; 4]).is_err());
        assert!(DefectMap::from_parts(0, 2, vec![], vec![false; 2], vec![]).is_err());
        assert_eq!(defect_map_words(3, 65).unwrap(), 6);
    }

    #[test]
    fn oversize_maps_are_rejected_without_allocating() {
        for (rows, columns) in [
            (usize::MAX / 2, 4),
            (4, usize::MAX / 2),
            (usize::MAX, usize::MAX),
        ] {
            assert!(
                matches!(
                    DefectModel::ideal().sample_map(rows, columns, 1),
                    Err(CrossbarError::InvalidSpec { .. })
                ),
                "{rows}x{columns}"
            );
            assert!(DefectMap::from_parts(rows, columns, vec![], vec![], vec![]).is_err());
        }
    }

    #[test]
    fn threshold_draws_equal_float_draws() {
        let scale = 1.0 / (1u64 << 53) as f64;
        let rates = [
            0.0,
            1.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            scale,
            0.01,
            0.025,
            0.05,
            0.5,
            1.0 - f64::EPSILON / 2.0,
        ];
        for rate in rates {
            let threshold = defect_threshold(rate);
            // The compare flips exactly between x = T - 1 and x = T.
            let edges = [
                0,
                1,
                threshold.saturating_sub(1),
                threshold,
                threshold + 1,
                (1 << 53) - 1,
            ];
            for x in edges.into_iter().filter(|&x| x < 1 << 53) {
                assert_eq!(
                    x < threshold,
                    (x as f64 * scale) < rate,
                    "rate {rate}, x {x}"
                );
            }
            // And the two draws agree on a whole stream.
            let mut packed = defect_chunk_rng(7, 3);
            let mut float = defect_chunk_rng(7, 3);
            for _ in 0..4_096 {
                assert_eq!(draw(&mut packed, threshold), float.gen::<f64>() < rate);
            }
        }
        assert_eq!(defect_threshold(0.0), 0);
        assert_eq!(defect_threshold(1.0), 1 << 53);
        assert_eq!(defect_threshold(f64::from_bits(1)), 1);
    }

    #[test]
    fn packed_rows_handle_word_edges() {
        let edges = [1usize, 63, 64, 65, 363];
        for columns in edges {
            let rows = 70;
            let clean = DefectModel::ideal().sample_map(rows, columns, 3).unwrap();
            assert_eq!(clean.usable_fraction(), 1.0, "{columns} columns");
            assert_eq!(clean.tally().usable(), rows * columns);

            let stuck = DefectModel::new(0.0, 1.0).unwrap();
            let map = stuck.sample_map(rows, columns, 3).unwrap();
            assert_eq!(map.usable_fraction(), 0.0, "{columns} columns");
            assert!(map.crosspoint_defective(rows - 1, columns - 1));

            let broken = DefectModel::new(1.0, 0.0).unwrap();
            let map = broken.sample_map(rows, columns, 3).unwrap();
            assert!((0..columns).all(|column| map.column_broken(column)));
            assert_eq!(map.usable_fraction(), 0.0, "{columns} columns");

            // All columns broken but every row intact: the padding bits of
            // the live-column mask must not count as usable crosspoints.
            let map = DefectMap::from_parts(
                rows,
                columns,
                vec![false; rows],
                vec![true; columns],
                vec![0; defect_map_words(rows, columns).unwrap()],
            )
            .unwrap();
            assert_eq!(map.usable_fraction(), 0.0, "{columns} columns");

            for map in [clean, map] {
                assert!(map.crosspoint_defective(rows, 0));
                assert!(map.crosspoint_defective(0, columns));
                assert!(map.row_broken(rows));
                assert!(map.column_broken(columns));
                assert!(!map.crosspoint_usable(0, columns));
            }
        }
    }

    #[test]
    fn packed_lookups_agree_with_the_popcount_tally() {
        let model = DefectModel::new(0.05, 0.3).unwrap();
        for columns in [1usize, 63, 64, 65, 130] {
            let map = model.sample_map(67, columns, 11).unwrap();
            let counted = (0..map.rows())
                .flat_map(|row| (0..columns).map(move |column| (row, column)))
                .filter(|&(row, column)| map.crosspoint_usable(row, column))
                .count();
            assert_eq!(map.tally().usable(), counted, "{columns} columns");
        }
    }
}
