//! Pinned defect maps at the served crossbar edge (363 × 363 crosspoints).
//!
//! The usable-crosspoint counts and the exact `usable_fraction` bits below
//! were captured from the bit-plane draws of packed words. Any change to how
//! maps are stored must reproduce them bit for bit, and a change to how they
//! are drawn must re-pin them on purpose: a defect-configured report is
//! built from these numbers, so a drift here is a drift in every served
//! defect reply.

use crossbar_array::{DefectMap, DefectModel};

/// The crossbar edge the paper's 10-bit balanced-Gray design serves.
const EDGE: usize = 363;

fn usable_count(map: &DefectMap) -> usize {
    (0..map.rows())
        .map(|row| {
            (0..map.columns())
                .filter(|&column| map.crosspoint_usable(row, column))
                .count()
        })
        .sum()
}

fn assert_pinned(breakage: f64, crosspoint: f64, seed: u64, usable: usize, bits: u64) {
    let map = DefectModel::new(breakage, crosspoint)
        .unwrap()
        .sample_map(EDGE, EDGE, seed)
        .unwrap();
    assert_eq!(
        usable_count(&map),
        usable,
        "({breakage}, {crosspoint}) seed {seed}"
    );
    assert_eq!(
        map.usable_fraction().to_bits(),
        bits,
        "({breakage}, {crosspoint}) seed {seed}: usable fraction {}",
        map.usable_fraction()
    );
}

#[test]
fn low_rate_map_is_pinned() {
    assert_pinned(0.02, 0.01, 42, 125_399, 0x3fee_73fb_1ca7_7dfd);
}

#[test]
fn high_rate_map_is_pinned() {
    assert_pinned(0.1, 0.05, 42, 101_525, 0x3fe8_a7bf_a39d_c3bb);
}

#[test]
fn mid_rate_map_under_another_seed_is_pinned() {
    assert_pinned(0.05, 0.025, 7, 114_329, 0x3feb_c3c3_ffae_6f0a);
}
