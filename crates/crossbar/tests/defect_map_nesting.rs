//! Defect maps are nested in their rates: under one seed, every broken
//! nanowire and every defective crosspoint at lower rates is also broken or
//! defective at higher rates.
//!
//! This is the common-random-numbers property of the sampler: each
//! nanowire and each crosspoint owns one uniform that does not depend on the
//! rates, and it is defective exactly when that uniform falls below its
//! rate. A sweep along the defect axis therefore moves one fabricated
//! crossbar through increasing damage instead of drawing unrelated ones, so
//! its usable fraction falls monotonically.

use crossbar_array::{DefectMap, DefectModel};

/// Increasing `(nanowire breakage, crosspoint defect)` rates, from none to
/// certain.
const RATES: [(f64, f64); 7] = [
    (0.0, 0.0),
    (1e-4, 5e-5),
    (0.01, 0.005),
    (0.02, 0.01),
    (0.1, 0.05),
    (0.5, 0.3),
    (1.0, 1.0),
];

/// Whether every defect of `lower` is also a defect of `higher`, returning
/// the number of defects `lower` has.
fn assert_nested(lower: &DefectMap, higher: &DefectMap, context: &str) -> usize {
    let mut defects = 0;
    for row in 0..lower.rows() {
        if lower.row_broken(row) {
            defects += 1;
            assert!(higher.row_broken(row), "{context}: row {row}");
        }
    }
    for column in 0..lower.columns() {
        if lower.column_broken(column) {
            defects += 1;
            assert!(higher.column_broken(column), "{context}: column {column}");
        }
    }
    for row in 0..lower.rows() {
        for column in 0..lower.columns() {
            if lower.crosspoint_defective(row, column) {
                defects += 1;
                assert!(
                    higher.crosspoint_defective(row, column),
                    "{context}: crosspoint ({row}, {column})"
                );
            }
        }
    }
    defects
}

#[test]
fn defect_maps_are_nested_in_the_rates() {
    // 100 × 80 spans a partial packed word per row; 363 × 363 is the
    // crossbar edge the paper's 10-bit balanced-Gray design serves.
    for (rows, columns, seed) in [(100usize, 80usize, 42u64), (363, 363, 7)] {
        let maps: Vec<DefectMap> = RATES
            .iter()
            .map(|&(breakage, crosspoint)| {
                DefectModel::new(breakage, crosspoint)
                    .unwrap()
                    .sample_map(rows, columns, seed)
                    .unwrap()
            })
            .collect();
        let mut previous_usable = rows * columns;
        for (pair, (lower, higher)) in maps.iter().zip(&maps[1..]).enumerate() {
            let context = format!(
                "{rows}x{columns} seed {seed}: {:?} < {:?}",
                RATES[pair],
                RATES[pair + 1]
            );
            let defects = assert_nested(lower, higher, &context);
            // From the 1 % rates on, the lower map is not vacuously nested.
            assert!(pair < 2 || defects > 0, "{context}: no defects");
            let usable = higher.tally().usable();
            assert!(usable <= previous_usable, "{context}: usable count grew");
            previous_usable = usable;
        }
    }
}
