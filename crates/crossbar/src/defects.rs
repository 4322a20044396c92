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
//! # Packed layout
//!
//! The crosspoint-defect matrix is stored as `u64` bit rows: with
//! `w = columns.div_ceil(64)` words per row, row `r` is words
//! `r · w .. (r + 1) · w`, column `c` is bit `c % 64` of that row's word
//! `c / 64`, and the padding bits past the last column are zero.
//! [`DefectMap::usable_fraction`] counts the usable crosspoints of an intact
//! row as `Σ popcount(!defective & live_columns)` over its words.
//!
//! # Bit-plane draws
//!
//! Every nanowire and every crosspoint owns one uniform `U` in `[0, 1)` and
//! is defective exactly when `U < rate`. [`DefectModel::sample_map`] decides
//! 64 of them at once, one packed word at a time (Knuth & Yao, "The
//! complexity of nonuniform random number generation", 1976):
//!
//! * **Lanes.** Lane `l` of a word stands for the uniform whose binary
//!   digits `u_1 u_2 …` are bit `l` of the word's random planes `1, 2, …`.
//! * **Compare digit by digit.** Write the rate's binary digits, read
//!   exactly from the `f64` mantissa and exponent (subnormals included), as
//!   `p_1 p_2 …`. A lane is decided at its first digit `k` with
//!   `u_k ≠ p_k`: defective when `p_k = 1` (so `u_k = 0` and `U < rate`),
//!   intact when `p_k = 0`. Lanes that still match after the rate's last
//!   1-digit have `U ≥ rate` and are intact.
//! * **Stop early.** The word stops drawing planes once every live lane is
//!   decided, so it takes about `log₂ 64 + 1.3 ≈ 7.3` planes at any rate
//!   instead of one generator step per crosspoint. Rate `0` and rate `1`
//!   draw nothing.
//!
//! `P(defective) = rate` holds exactly, with no rounding of the rate.
//!
//! # Determinism contract
//!
//! A map has three vectors of words: vector `0` is the row breakage (lane
//! `l` of word `w` is row `64 w + l`), vector `1` the column breakage (the
//! same for columns) and vector `2` the packed crosspoint matrix above.
//! Word `w` of vector `v` is keyed
//! `chunk_seed(chunk_seed(seed ^ DOMAIN, v), w)`, and plane `k` of a word is
//! [`chunk_seed`]`(word key, k)` — counter-based SplitMix64 (Steele, Lea &
//! Flood, OOPSLA 2014), where `DOMAIN` is a fixed defect-map tag, so a
//! Monte-Carlo estimation and a defect map sharing one run seed draw from
//! decorrelated streams instead of replaying each other's words.
//!
//! Every plane is thus a pure function of `(seed, vector, word, plane)`:
//!
//! * a map depends only on `(rates, rows, columns, seed)`, never on the
//!   order in which words are drawn or on a thread count;
//! * maps are **nested in the rates**: each nanowire's and crosspoint's `U`
//!   is the same at every rate (the rates decide only how many of its digits
//!   are read), so under one seed every defect at lower rates is also a
//!   defect at higher rates. A sweep along the defect axis damages one
//!   fabricated crossbar further instead of drawing unrelated ones.

use serde::{Deserialize, Serialize};

use crate::error::{CrossbarError, Result};
use crate::yield_model::CaveYield;

/// Derives the RNG seed of one deterministic work chunk from a run seed and
/// the chunk index — a SplitMix64-style finalizer, so neighbouring chunks get
/// well-separated generator states and the mapping depends on nothing else.
///
/// This is the workspace-wide stream-splitting primitive: the Monte-Carlo
/// sampler in `decoder-sim` seeds its sample chunks with it directly, and
/// [`DefectModel::sample_map`] derives its word keys and random planes with
/// it through a defect-map domain tag (see the module docs), so the two
/// samplers never replay each other's streams for a shared run seed. Both
/// contracts ("bit-identical for any thread count") rest on this function
/// being pure in `(seed, chunk_index)`.
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

/// Domain-separation tag mixed into the run seed before defect-map word
/// keys are derived. Without it, the words of a defect map and the chunks of
/// a Monte-Carlo estimation sharing one run seed would start from the *same*
/// keys, statistically coupling broken-nanowire placement to the sampled
/// dose disturbances in combined studies.
const DEFECT_SEED_DOMAIN: u64 = 0xdefe_c7ed_0000_0001;

/// The vectors of a map's word layout (see the module docs).
const ROW_BREAKAGE: u64 = 0;
const COLUMN_BREAKAGE: u64 = 1;
const CROSSPOINTS: u64 = 2;

/// Decides the live `lanes` of one word: bit `l` of the result is set when
/// lane `l`'s uniform is below `rate`, where `plane(k)` is the word's random
/// plane `k ≥ 1` (bit `l` of it is digit `k` of lane `l`'s uniform). See
/// the module docs for the comparison; bits outside `lanes` stay zero.
fn bernoulli_word(rate: f64, lanes: u64, plane: impl Fn(u64) -> u64) -> u64 {
    if rate.is_nan() || rate <= 0.0 {
        return 0;
    }
    if rate >= 1.0 {
        return lanes;
    }
    // rate = mantissa · 2^-scale with an odd mantissa, so digit k of the
    // rate is bit `scale - k` of the mantissa and digit `scale` is its last
    // 1-digit. A subnormal has no implicit leading bit and exponent -1074.
    let bits = rate.to_bits();
    let biased = bits >> 52;
    let fraction = bits & ((1 << 52) - 1);
    let (mantissa, scale) = if biased == 0 {
        (fraction, 1074)
    } else {
        (fraction | 1 << 52, 1075 - biased)
    };
    let zeros = u64::from(mantissa.trailing_zeros());
    let (mantissa, scale) = (mantissa >> zeros, scale - zeros);
    let mut defective = 0;
    let mut undecided = lanes;
    let mut digit = 1;
    while undecided != 0 && digit <= scale {
        let random = plane(digit);
        let shift = scale - digit;
        if shift < 64 && mantissa >> shift & 1 == 1 {
            defective |= undecided & !random;
            undecided &= random;
        } else {
            undecided &= !random;
        }
        digit += 1;
    }
    defective
}

/// The live lanes of word `word` of a vector of `count` bits: all 64, or
/// the low `count % 64` of a partial last word.
fn live_lanes(count: usize, word: usize) -> u64 {
    let bits = count - 64 * word;
    if bits >= 64 {
        u64::MAX
    } else {
        (1 << bits) - 1
    }
}

/// Draws the first `words` words of vector `vector` of the map layout:
/// word `w` decides its lanes `live(w)` at `rate` from its own keyed planes.
fn sample_words(
    rate: f64,
    seed: u64,
    vector: u64,
    words: usize,
    live: impl Fn(usize) -> u64,
) -> impl Iterator<Item = u64> {
    let vector_key = chunk_seed(seed ^ DEFECT_SEED_DOMAIN, vector);
    (0..words).map(move |word| {
        let word_key = chunk_seed(vector_key, word as u64);
        bernoulli_word(rate, live(word), |digit| chunk_seed(word_key, digit))
    })
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
/// `isize::MAX` bytes — the check that lets [`DefectModel::sample_map`]
/// reject an oversize map before it allocates or draws anything.
fn defect_map_words(rows: usize, columns: usize) -> Result<usize> {
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
    /// Each of the three vectors of the map is drawn 64 decisions per word
    /// with the bit-plane comparison of the module docs, from planes that
    /// are a pure function of `(seed, vector, word, plane)`: the map depends
    /// only on the rates, the dimensions and the seed, and under one seed it
    /// is nested in the rates.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidSpec`] when either dimension is zero
    /// or the map is too large to allocate (checked before anything is
    /// drawn).
    pub fn sample_map(&self, rows: usize, columns: usize, seed: u64) -> Result<DefectMap> {
        let words = defect_map_words(rows, columns)?;
        let per_row = row_words(columns);
        Ok(DefectMap {
            rows,
            columns,
            broken_rows: self.sample_breakage(rows, seed, ROW_BREAKAGE),
            broken_columns: self.sample_breakage(columns, seed, COLUMN_BREAKAGE),
            defective: sample_words(self.crosspoint_defect, seed, CROSSPOINTS, words, |word| {
                live_lanes(columns, word % per_row)
            })
            .collect(),
        })
    }

    /// Draws the breakage vector `vector` of `count` nanowires, unpacked.
    fn sample_breakage(&self, count: usize, seed: u64, vector: u64) -> Vec<bool> {
        let (rate, words) = (self.nanowire_breakage, count.div_ceil(64));
        sample_words(rate, seed, vector, words, |word| live_lanes(count, word))
            .flat_map(|bits| (0..64).map(move |lane| bits >> lane & 1 == 1))
            .take(count)
            .collect()
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
        // A 65-column row packs into two words.
        assert_eq!(defect_map_words(3, 65).unwrap(), 6);
    }

    #[test]
    fn chunk_seeds_are_distinct_and_stable() {
        assert_eq!(chunk_seed(42, 0), chunk_seed(42, 0));
        assert_ne!(chunk_seed(42, 0), chunk_seed(42, 1));
        assert_ne!(chunk_seed(42, 0), chunk_seed(43, 0));
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
        }
    }

    /// Words per rate in the sampler statistics test: 2²² lanes.
    const STATISTICS_WORDS: usize = 1 << 16;

    /// Whether `count` successes of `trials` lie within 6 binomial standard
    /// errors of probability `p`.
    fn assert_binomial(count: u64, trials: usize, p: f64, context: &str) {
        let mean = trials as f64 * p;
        let se = (mean * (1.0 - p)).sqrt();
        assert!(
            (count as f64 - mean).abs() <= 6.0 * se,
            "{context}: {count} of {trials}, expected {mean} ± 6 · {se}"
        );
    }

    #[test]
    fn bernoulli_words_match_the_rate_in_every_lane() {
        for rate in [0.5, 0.3, 0.01, 1e-4, f64::MIN_POSITIVE] {
            let mut lanes = [0u64; 64];
            let mut adjacent = 0;
            for bits in sample_words(rate, 7, CROSSPOINTS, STATISTICS_WORDS, |_| u64::MAX) {
                for (lane, count) in lanes.iter_mut().enumerate() {
                    *count += bits >> lane & 1;
                }
                // Bit l of this is set when lanes l and l + 1 both are.
                adjacent += u64::from((bits & bits >> 1).count_ones());
            }
            let context = format!("rate {rate}");
            let total = lanes.iter().sum();
            assert_binomial(total, 64 * STATISTICS_WORDS, rate, &context);
            for (lane, &count) in lanes.iter().enumerate() {
                let context = format!("{context}, lane {lane}");
                assert_binomial(count, STATISTICS_WORDS, rate, &context);
            }
            let context = format!("{context}, adjacent lanes");
            assert_binomial(adjacent, 63 * STATISTICS_WORDS, rate * rate, &context);
        }
        // Rates 0 and 1 decide without drawing, and only live lanes are set.
        let live = live_lanes(100, 1);
        assert_eq!(live, (1 << 36) - 1);
        let no_plane = |_| -> u64 { unreachable!("rates 0 and 1 draw no plane") };
        assert_eq!(bernoulli_word(0.0, live, no_plane), 0);
        assert_eq!(bernoulli_word(1.0, live, no_plane), live);
        for bits in sample_words(0.5, 7, CROSSPOINTS, 1_024, |_| live) {
            assert_eq!(bits & !live, 0);
        }
        // Padding bits past the last column stay zero in a stuck map.
        let columns = 363;
        let stuck = DefectModel::new(0.0, 1.0).unwrap();
        let map = stuck.sample_map(5, columns, 3).unwrap();
        let padding = !live_lanes(columns, row_words(columns) - 1);
        for row in map.defective.chunks_exact(row_words(columns)) {
            assert_eq!(row[..row.len() - 1], [u64::MAX; 5]);
            assert_eq!(row[row.len() - 1] & padding, 0);
        }
    }

    #[test]
    fn bit_plane_draws_compare_the_uniform_with_the_rate_exactly() {
        let rates = [
            0.5,
            0.3,
            0.75,
            0.01,
            1e-4,
            1.0 - f64::EPSILON / 2.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
        ];
        for rate in rates {
            // With every digit past the 64th zero, lane l's uniform is
            // exactly u_l / 2⁶⁴, which is below the rate when
            // u_l < ⌈rate · 2⁶⁴⌉ (the scaling by 2⁶⁴ is exact).
            let threshold = (rate * 2f64.powi(64)).ceil() as u128;
            let edge = u64::try_from(threshold).unwrap();
            let mut uniforms = vec![0, 1, edge - 1, edge, edge + 1, u64::MAX];
            uniforms.extend((0..58).map(|lane| chunk_seed(11, lane)));
            let plane = |digit: u64| {
                if digit > 64 {
                    return 0;
                }
                let digits = uniforms.iter().map(|&u| u >> (64 - digit) & 1);
                digits
                    .enumerate()
                    .fold(0, |plane, (lane, bit)| plane | bit << lane)
            };
            let bits = bernoulli_word(rate, u64::MAX, plane);
            for (lane, &u) in uniforms.iter().enumerate() {
                assert_eq!(
                    bits >> lane & 1 == 1,
                    u128::from(u) < threshold,
                    "rate {rate}, uniform {u:#018x}"
                );
            }
        }
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
            let map = DefectMap {
                rows,
                columns,
                broken_rows: vec![false; rows],
                broken_columns: vec![true; columns],
                defective: vec![0; defect_map_words(rows, columns).unwrap()],
            };
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
