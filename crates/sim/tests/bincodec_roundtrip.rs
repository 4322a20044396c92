//! Differential property battery for the binary codec: for every encodable
//! type, randomly generated values must survive JSON→binary→JSON and
//! binary→JSON→binary **bit-identically** — same rendered JSON text, same
//! binary bytes, same float bits — and the cache fingerprint of a
//! configuration must be invariant under which codec carried it.
//!
//! The generators stay inside each constructor's validation envelope
//! (positive pitches, nanowire pitch ≤ litho pitch, defect rates in
//! `[0, 1]`, family-legal code lengths) so every generated value is one a
//! real process could hold; within that envelope the floats are arbitrary
//! finite values, negative zero and subnormals included.

use proptest::prelude::*;

use crossbar_array::LayoutRules;
use decoder_sim::bincodec::{
    code_spec_from_bin, code_spec_to_bin, config_from_bin, config_to_bin, defect_from_bin,
    defect_to_bin, disturbance_from_bin, disturbance_to_bin, report_from_bin, report_to_bin,
    wire_error_kind_from_bin, wire_error_kind_to_bin,
};
use decoder_sim::codec::{
    code_spec_from_json, code_spec_to_json, config_from_json, config_to_json, defect_from_json,
    defect_to_json, disturbance_from_json, disturbance_to_json, render, report_from_json,
    report_to_json, wire_error_kind_from_json, wire_error_kind_to_json, JsonCursor, JsonTape,
};
use decoder_sim::{
    DefectKind, DisturbanceKind, PlatformReport, ReportCache, SimConfig, WireErrorKind,
};
use device_physics::{Nanometers, ThresholdModel, Volts};
use nanowire_codes::{
    ArrangedHotBudget, BalanceBudget, CodeBudgets, CodeKind, CodeSpec, LogicLevel, SearchBudget,
};

/// Arbitrary finite floats across the full bit domain — negative zero and
/// subnormals included. Non-finite draws (all-ones exponents) collapse to
/// zero: the codecs reject non-finite values by contract, which the
/// corruption battery covers separately.
fn finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let value = f64::from_bits(bits);
        if value.is_finite() {
            value
        } else {
            0.0
        }
    })
}

fn code_spec_strategy() -> impl Strategy<Value = CodeSpec> {
    (0usize..CodeKind::ALL.len(), 2u8..=4, 1usize..5).prop_map(|(kind_index, radix, blocks)| {
        let kind = CodeKind::ALL[kind_index];
        let radix = LogicLevel::new(radix).unwrap();
        // Tree-family lengths must be even; hot-family lengths must be a
        // multiple of the radix.
        let length = if kind.is_tree_family() {
            2 * blocks
        } else {
            usize::from(radix.radix()) * blocks
        };
        CodeSpec::new(kind, radix, length).unwrap()
    })
}

fn disturbance_strategy() -> impl Strategy<Value = DisturbanceKind> {
    prop_oneof![
        Just(DisturbanceKind::Gaussian),
        Just(DisturbanceKind::Laplace),
        (0.0f64..1.0).prop_map(|shared_fraction| DisturbanceKind::Correlated { shared_fraction }),
    ]
}

fn defect_strategy() -> impl Strategy<Value = DefectKind> {
    prop_oneof![
        Just(DefectKind::None),
        (0.0f64..0.5, 0.0f64..0.5, any::<u64>()).prop_map(|(breakage, crosspoint, seed)| {
            DefectKind::sampled(breakage, crosspoint, seed).unwrap()
        }),
    ]
}

fn layout_strategy() -> impl Strategy<Value = LayoutRules> {
    (10.0f64..100.0, 0.1f64..1.0, 1.0f64..3.0, 0.0f64..10.0).prop_map(
        |(litho, nanowire_fraction, width_factor, tolerance)| {
            // The nanowire pitch may not exceed the litho pitch.
            LayoutRules::new(
                Nanometers::new(litho),
                Nanometers::new(litho * nanowire_fraction),
                width_factor,
                Nanometers::new(tolerance),
            )
            .unwrap()
        },
    )
}

fn threshold_strategy() -> impl Strategy<Value = ThresholdModel> {
    (0.5f64..10.0, -1.0f64..1.0).prop_map(|(oxide, flat_band)| {
        ThresholdModel::new(Nanometers::new(oxide), Volts::new(flat_band)).unwrap()
    })
}

fn budgets_strategy() -> impl Strategy<Value = CodeBudgets> {
    (
        (1u64..1_000_000, 0usize..16),
        (1u64..1_000_000, 1u64..1_000_000, 0u32..64),
    )
        .prop_map(
            |((balance_nodes, balance_slack), (arranged_nodes, fallback_nodes, sweeps))| {
                CodeBudgets {
                    balance: BalanceBudget {
                        max_nodes_per_limit: balance_nodes,
                        max_limit_slack: balance_slack,
                    },
                    arranged_hot: ArrangedHotBudget {
                        max_nodes: arranged_nodes,
                        fallback: SearchBudget {
                            max_nodes: fallback_nodes,
                            max_two_opt_sweeps: sweeps,
                        },
                    },
                }
            },
        )
}

fn window_strategy() -> impl Strategy<Value = Option<Volts>> {
    prop_oneof![
        Just(None),
        (0.01f64..1.0).prop_map(|window| Some(Volts::new(window))),
    ]
}

fn config_strategy() -> impl Strategy<Value = SimConfig> {
    (
        (code_spec_strategy(), 1usize..64, 1u64..(1 << 40)),
        (layout_strategy(), threshold_strategy(), 0.0f64..0.2),
        (-0.5f64..0.5, 0.1f64..2.0, window_strategy()),
        (
            budgets_strategy(),
            disturbance_strategy(),
            defect_strategy(),
        ),
    )
        .prop_map(
            |(
                (code, nanowires, raw_bits),
                (layout, threshold, sigma),
                (supply_low, supply_span, window),
                (budgets, disturbance, defects),
            )| {
                let mut config = SimConfig::new(
                    code,
                    nanowires,
                    raw_bits,
                    layout,
                    threshold,
                    Volts::new(sigma),
                    (Volts::new(supply_low), Volts::new(supply_low + supply_span)),
                )
                .unwrap()
                .with_code_budgets(budgets)
                .with_disturbance(disturbance)
                .with_defects(defects);
                if let Some(window) = window {
                    config = config.with_window(window);
                }
                config
            },
        )
}

fn report_strategy() -> impl Strategy<Value = PlatformReport> {
    (
        (code_spec_strategy(), 1usize..64, 0usize..64, 0usize..64),
        (finite_f64(), finite_f64(), finite_f64(), finite_f64()),
        (finite_f64(), finite_f64(), finite_f64()),
        (defect_strategy(), finite_f64(), finite_f64(), finite_f64()),
    )
        .prop_map(
            |(
                (code, nanowires, steps, groups),
                (mean_variability, max_normalized_sigma, cave_yield, crossbar_yield),
                (effective_bits, raw_bit_area, effective_bit_area),
                (defects, defect_survival, composite_yield, composite_effective_bits),
            )| {
                PlatformReport {
                    code,
                    nanowires_per_half_cave: nanowires,
                    fabrication_steps: steps,
                    mean_variability,
                    max_normalized_sigma,
                    cave_yield,
                    crossbar_yield,
                    effective_bits,
                    raw_bit_area,
                    effective_bit_area,
                    contact_groups: groups,
                    defects,
                    defect_survival,
                    composite_yield,
                    composite_effective_bits,
                }
            },
        )
}

/// Renders with `encode`, reparses and decodes with `decode` — the full
/// pipeline a snapshot row or wire frame traverses.
fn through_json<T>(
    encode: impl FnOnce(&mut String),
    decode: impl FnOnce(JsonCursor<'_>) -> decoder_sim::Result<T>,
) -> T {
    let text = render(encode);
    decode(JsonTape::parse(&text).unwrap().root()).unwrap()
}

fn config_through_json_text(config: &SimConfig) -> SimConfig {
    through_json(|out| config_to_json(config, out), config_from_json)
}

fn report_through_json_text(report: &PlatformReport) -> PlatformReport {
    through_json(|out| report_to_json(report, out), report_from_json)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Binary round trips are exact: the decoded value re-encodes to the
    /// same bytes (byte equality is stronger than `PartialEq`, which treats
    /// `-0.0 == 0.0`).
    #[test]
    fn config_binary_round_trip_is_byte_exact(config in config_strategy()) {
        let bytes = config_to_bin(&config);
        let decoded = config_from_bin(&bytes).unwrap();
        prop_assert_eq!(&decoded, &config);
        prop_assert_eq!(config_to_bin(&decoded), bytes);
    }

    /// JSON→binary→JSON re-renders identically, binary→JSON→binary
    /// re-encodes identically, and the cache fingerprint never depends on
    /// which codec carried the configuration.
    #[test]
    fn config_codecs_are_differentially_equal(config in config_strategy()) {
        let json = render(|out| config_to_json(&config, out));
        let via_bin = config_from_bin(&config_to_bin(&config_through_json_text(&config))).unwrap();
        prop_assert_eq!(render(|out| config_to_json(&via_bin, out)), json);

        let bytes = config_to_bin(&config);
        let via_json = config_through_json_text(&config_from_bin(&bytes).unwrap());
        prop_assert_eq!(config_to_bin(&via_json), bytes);

        prop_assert_eq!(
            ReportCache::fingerprint(&via_bin),
            ReportCache::fingerprint(&config)
        );
        prop_assert_eq!(
            ReportCache::fingerprint(&via_json),
            ReportCache::fingerprint(&config)
        );
    }

    #[test]
    fn report_binary_round_trip_is_byte_exact(report in report_strategy()) {
        let bytes = report_to_bin(&report);
        let decoded = report_from_bin(&bytes).unwrap();
        prop_assert_eq!(&decoded, &report);
        prop_assert_eq!(report_to_bin(&decoded), bytes);
    }

    /// The report float fields round-trip bit-exactly through both codec
    /// chains, negative zero and subnormals included.
    #[test]
    fn report_codecs_are_differentially_equal(report in report_strategy()) {
        let json = render(|out| report_to_json(&report, out));
        let via_bin = report_from_bin(&report_to_bin(&report_through_json_text(&report))).unwrap();
        prop_assert_eq!(render(|out| report_to_json(&via_bin, out)), json);
        prop_assert_eq!(
            via_bin.crossbar_yield.to_bits(),
            report.crossbar_yield.to_bits()
        );
        prop_assert_eq!(
            via_bin.composite_effective_bits.to_bits(),
            report.composite_effective_bits.to_bits()
        );

        let bytes = report_to_bin(&report);
        let via_json = report_through_json_text(&report_from_bin(&bytes).unwrap());
        prop_assert_eq!(report_to_bin(&via_json), bytes);
    }

    #[test]
    fn code_spec_codecs_agree(code in code_spec_strategy()) {
        let bytes = code_spec_to_bin(code);
        prop_assert_eq!(code_spec_from_bin(&bytes).unwrap(), code);
        let via_json = through_json(|out| code_spec_to_json(code, out), code_spec_from_json);
        prop_assert_eq!(code_spec_to_bin(via_json), bytes);
    }

    #[test]
    fn disturbance_codecs_agree(kind in disturbance_strategy()) {
        let bytes = disturbance_to_bin(kind);
        let decoded = disturbance_from_bin(&bytes).unwrap();
        prop_assert_eq!(disturbance_to_bin(decoded), bytes.clone());
        let via_json = through_json(|out| disturbance_to_json(kind, out), disturbance_from_json);
        prop_assert_eq!(disturbance_to_bin(via_json), bytes);
    }

    #[test]
    fn defect_codecs_agree(kind in defect_strategy()) {
        let bytes = defect_to_bin(kind);
        let decoded = defect_from_bin(&bytes).unwrap();
        prop_assert_eq!(defect_to_bin(decoded), bytes.clone());
        let via_json = through_json(|out| defect_to_json(kind, out), defect_from_json);
        prop_assert_eq!(defect_to_bin(via_json), bytes);
    }
}

#[test]
fn wire_error_kinds_agree_across_codecs() {
    for kind in WireErrorKind::ALL {
        let bytes = wire_error_kind_to_bin(kind);
        assert_eq!(wire_error_kind_from_bin(&bytes).unwrap(), kind);
        let via_json = through_json(
            |out| wire_error_kind_to_json(kind, out),
            wire_error_kind_from_json,
        );
        assert_eq!(wire_error_kind_to_bin(via_json), bytes);
    }
}
