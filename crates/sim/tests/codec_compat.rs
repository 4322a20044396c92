//! Forward-compatibility coverage for the additive dimensions of the codec:
//! documents written before `SimConfig` carried a `DefectKind` or the
//! Monte-Carlo sampling knobs (and before `PlatformReport` carried
//! composite quantities) must keep decoding with the pre-field defaults,
//! and mixed-version round trips must stay bit-identical to a fresh
//! evaluation.

use decoder_sim::codec::{
    config_from_json, config_to_json, render, report_from_json, report_to_json, write_array,
    write_object, JsonTape,
};
use decoder_sim::{
    CacheConfig, DefectKind, MonteCarloConfig, PlatformReport, ReportCache, SimConfig,
    SimulationPlatform, CACHE_SCHEMA_VERSION,
};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

fn config(kind: CodeKind, length: usize) -> SimConfig {
    let code = CodeSpec::new(kind, LogicLevel::BINARY, length).unwrap();
    SimConfig::paper_defaults(code).unwrap()
}

/// Strips top-level keys from an object document — the shape of a
/// document written by a build that predates those fields.
fn without_keys(document: &str, keys: &[&str]) -> String {
    let tape = JsonTape::parse(document).unwrap();
    render(|out| {
        write_object(out, |fields| {
            for (name, value) in tape.root().members().unwrap() {
                if !keys.contains(&name) {
                    fields.value(name, |out| out.push_str(value.source()));
                }
            }
        });
    })
}

fn config_json(config: &SimConfig) -> String {
    render(|out| config_to_json(config, out))
}

fn report_json(report: &PlatformReport) -> String {
    render(|out| report_to_json(report, out))
}

fn decode_config(document: &str) -> SimConfig {
    config_from_json(JsonTape::parse(document).unwrap().root()).unwrap()
}

fn decode_report(document: &str) -> PlatformReport {
    report_from_json(JsonTape::parse(document).unwrap().root()).unwrap()
}

/// Whether a document's top-level object holds `key`.
fn has_key(document: &str, key: &str) -> bool {
    let tape = JsonTape::parse(document).unwrap();
    tape.root().get_opt(key).unwrap().is_some()
}

const REPORT_DEFECT_KEYS: [&str; 4] = [
    "defects",
    "defect_survival",
    "composite_yield",
    "composite_effective_bits",
];

#[test]
fn pre_defect_configs_decode_as_defect_free() {
    let expected = config(CodeKind::BalancedGray, 10);
    let legacy = without_keys(&config_json(&expected), &["defects"]);
    assert!(!has_key(&legacy, "defects"));
    let decoded = decode_config(&legacy);
    assert_eq!(decoded.defects(), DefectKind::None);
    // The decoded configuration is indistinguishable from a fresh one —
    // same identity, same cache fingerprint.
    assert_eq!(decoded, expected);
    assert_eq!(
        ReportCache::fingerprint(&decoded),
        ReportCache::fingerprint(&expected)
    );
}

#[test]
fn pre_adaptive_configs_decode_with_fixed_sampling_defaults() {
    // The byte shape a PR 8-era writer produced: no "monte_carlo" key on
    // the config object at all. It must decode to the historical
    // fixed-sample default and stay identity-equal to a fresh config.
    let expected = config(CodeKind::BalancedGray, 10);
    let legacy = without_keys(&config_json(&expected), &["monte_carlo"]);
    assert!(!has_key(&legacy, "monte_carlo"));
    let decoded = decode_config(&legacy);
    assert_eq!(decoded.monte_carlo(), MonteCarloConfig::default());
    assert!(!decoded.monte_carlo().is_adaptive());
    assert_eq!(decoded, expected);
    assert_eq!(
        ReportCache::fingerprint(&decoded),
        ReportCache::fingerprint(&expected)
    );
    // A config stripped of *both* additive dimensions — the oldest wire
    // shape still in the field — decodes too.
    let oldest = without_keys(&config_json(&expected), &["defects", "monte_carlo"]);
    assert_eq!(decode_config(&oldest), expected);
}

#[test]
fn pre_defect_reports_decode_with_defect_free_composites() {
    let expected = SimulationPlatform::new(config(CodeKind::Tree, 8))
        .evaluate()
        .unwrap();
    let legacy = without_keys(&report_json(&expected), &REPORT_DEFECT_KEYS);
    let decoded = decode_report(&legacy);
    assert_eq!(decoded, expected);
    assert_eq!(decoded.defects, DefectKind::None);
    assert_eq!(decoded.defect_survival, 1.0);
    assert_eq!(
        decoded.composite_yield.to_bits(),
        expected.crossbar_yield.to_bits()
    );
    assert_eq!(
        decoded.composite_effective_bits.to_bits(),
        expected.effective_bits.to_bits()
    );
}

#[test]
fn mixed_version_round_trips_stay_bit_identical() {
    // old JSON → decode → re-encode (new format) → decode: every value,
    // float bits included, survives both generations.
    let fresh = SimulationPlatform::new(config(CodeKind::Gray, 10))
        .evaluate()
        .unwrap();
    let legacy = without_keys(&report_json(&fresh), &REPORT_DEFECT_KEYS);
    let first = decode_report(&legacy);
    let second = decode_report(&report_json(&first));
    assert_eq!(first, second);
    assert_eq!(
        first.crossbar_yield.to_bits(),
        second.crossbar_yield.to_bits()
    );
    assert_eq!(
        first.composite_yield.to_bits(),
        second.composite_yield.to_bits()
    );

    // And the new format round-trips defect-composed reports exactly too.
    let defective = SimulationPlatform::new(
        config(CodeKind::Gray, 10).with_defects(DefectKind::sampled(0.05, 0.02, 2_009).unwrap()),
    )
    .evaluate()
    .unwrap();
    let decoded = decode_report(&report_json(&defective));
    assert_eq!(decoded, defective);
    assert_eq!(
        decoded.composite_yield.to_bits(),
        defective.composite_yield.to_bits()
    );
    assert!(decoded.defect_survival < 1.0);
}

#[test]
fn pr4_era_cache_snapshots_load_and_serve_bit_identically() {
    // Build a snapshot, then strip the defect fields from every row — the
    // exact byte shape a PR 4-era process would have persisted (same
    // schema_version; the defect fields are additive, not a format bump).
    let warm = ReportCache::new(CacheConfig::default());
    let configs = [
        config(CodeKind::Tree, 8),
        config(CodeKind::BalancedGray, 10),
    ];
    for entry in &configs {
        warm.get_or_compute(entry, || SimulationPlatform::new(entry.clone()).evaluate())
            .unwrap();
    }
    let snapshot_text = warm.snapshot_json();
    let snapshot = JsonTape::parse(&snapshot_text).unwrap();
    assert_eq!(
        snapshot
            .root()
            .get("schema_version")
            .unwrap()
            .as_u64()
            .unwrap(),
        CACHE_SCHEMA_VERSION
    );
    let rows = snapshot.root().get("entries").unwrap().as_array().unwrap();
    let legacy_snapshot = render(|out| {
        write_object(out, |fields| {
            fields.u64("schema_version", CACHE_SCHEMA_VERSION);
            fields.value("entries", |out| {
                write_array(out, rows, |out, row| {
                    write_object(out, |legacy| {
                        let config = row.get("config").unwrap().source();
                        let report = row.get("report").unwrap().source();
                        legacy.value("config", |out| {
                            out.push_str(&without_keys(config, &["defects", "monte_carlo"]));
                        });
                        legacy.value("report", |out| {
                            out.push_str(&without_keys(report, &REPORT_DEFECT_KEYS));
                        });
                    });
                });
            });
        });
    });

    let restored = ReportCache::new(CacheConfig::default());
    assert_eq!(restored.load_snapshot(&legacy_snapshot).unwrap(), 2);
    for entry in &configs {
        assert!(restored.contains(entry), "legacy snapshot lost an entry");
        let original = warm.get_or_compute(entry, || unreachable!("warm")).unwrap();
        let reloaded = restored
            .get_or_compute(entry, || unreachable!("warm"))
            .unwrap();
        assert_eq!(reloaded, original);
        assert_eq!(
            reloaded.composite_yield.to_bits(),
            original.composite_yield.to_bits()
        );
    }
}
