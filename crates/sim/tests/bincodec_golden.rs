//! Golden-fixture pinning for both codecs: the exact bytes (binary) and
//! text (JSON) of a hand-built configuration and report are committed under
//! `tests/fixtures/` and asserted byte-for-byte. Any layout change — a
//! reordered section, a widened integer, a renamed key — fails these tests
//! until the schema version is bumped **and** the fixtures are deliberately
//! re-blessed with `MSPT_BLESS=1 cargo test --test bincodec_golden`.
//!
//! The golden report is built from literal field values rather than an
//! evaluation, so the fixtures pin only the *codec* layout, never the
//! numerics of the simulation itself.

use std::fs;
use std::path::PathBuf;

use decoder_sim::bincodec::{
    config_from_bin, config_to_bin, report_from_bin, report_to_bin, BIN_MAGIC, BIN_SCHEMA_VERSION,
    DOC_CONFIG, DOC_REPORT,
};
use decoder_sim::codec::{config_to_json, render, report_to_json};
use decoder_sim::{DefectKind, DisturbanceKind, PlatformReport, ReportCache, SimConfig};
use device_physics::Volts;
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

fn golden_config() -> SimConfig {
    let code = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap();
    SimConfig::paper_defaults(code)
        .unwrap()
        .with_disturbance(DisturbanceKind::Correlated {
            shared_fraction: 0.25,
        })
        .with_defects(DefectKind::sampled(0.05, 0.02, 2_009).unwrap())
        .with_window(Volts::new(0.375))
}

/// Literal field values only — exactly representable floats, so the fixture
/// can never drift with the simulation numerics.
fn golden_report() -> PlatformReport {
    PlatformReport {
        code: CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap(),
        nanowires_per_half_cave: 20,
        fabrication_steps: 7,
        mean_variability: 0.031_25,
        max_normalized_sigma: 1.5,
        cave_yield: 0.875,
        crossbar_yield: 0.765_625,
        effective_bits: 98_304.0,
        raw_bit_area: 1_024.0,
        effective_bit_area: 1_337.5,
        contact_groups: 4,
        defects: DefectKind::sampled(0.05, 0.02, 2_009).unwrap(),
        defect_survival: 0.937_5,
        composite_yield: 0.717_773_437_5,
        composite_effective_bits: 92_160.0,
    }
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn assert_fixture(name: &str, actual: &[u8]) {
    let path = fixture_path(name);
    if std::env::var_os("MSPT_BLESS").is_some() {
        fs::write(&path, actual).unwrap();
    }
    let expected = fs::read(&path).unwrap_or_else(|error| {
        panic!(
            "missing fixture {} ({error}); create it with MSPT_BLESS=1 cargo test --test bincodec_golden",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "fixture {name} drifted from the encoder output; an intentional layout change needs a \
         schema-version bump and a deliberate re-bless (MSPT_BLESS=1)"
    );
}

#[test]
fn golden_config_binary_bytes_are_pinned() {
    let config = golden_config();
    let bytes = config_to_bin(&config);
    assert_fixture("golden_config.bin", &bytes);

    // Envelope spot checks directly against the committed bytes.
    let pinned = fs::read(fixture_path("golden_config.bin")).unwrap();
    assert_eq!(&pinned[..4], &BIN_MAGIC);
    assert_eq!(
        u16::from_le_bytes([pinned[4], pinned[5]]),
        BIN_SCHEMA_VERSION
    );
    assert_eq!(pinned[6], DOC_CONFIG);

    // The committed bytes decode to the golden value and re-encode to
    // themselves.
    let decoded = config_from_bin(&pinned).unwrap();
    assert_eq!(decoded, config);
    assert_eq!(config_to_bin(&decoded), pinned);
}

#[test]
fn golden_config_json_text_is_pinned() {
    assert_fixture(
        "golden_config.json",
        render(|out| config_to_json(&golden_config(), out)).as_bytes(),
    );
}

#[test]
fn golden_report_binary_bytes_are_pinned() {
    let report = golden_report();
    let bytes = report_to_bin(&report);
    assert_fixture("golden_report.bin", &bytes);

    let pinned = fs::read(fixture_path("golden_report.bin")).unwrap();
    assert_eq!(&pinned[..4], &BIN_MAGIC);
    assert_eq!(pinned[6], DOC_REPORT);
    let decoded = report_from_bin(&pinned).unwrap();
    assert_eq!(decoded, report);
    assert_eq!(report_to_bin(&decoded), pinned);
}

#[test]
fn golden_report_json_text_is_pinned() {
    assert_fixture(
        "golden_report.json",
        render(|out| report_to_json(&golden_report(), out)).as_bytes(),
    );
}

/// Both committed fixtures describe the same configuration: decoding the
/// binary fixture must fingerprint identically to the golden value (the
/// JSON fixture is covered by the differential battery; this pins the
/// cross-codec identity to the committed bytes themselves).
#[test]
fn pinned_fixtures_agree_across_codecs() {
    let pinned = fs::read(fixture_path("golden_config.bin")).unwrap();
    let from_bin = config_from_bin(&pinned).unwrap();
    assert_eq!(
        ReportCache::fingerprint(&from_bin),
        ReportCache::fingerprint(&golden_config())
    );
    // The binary fixture is meaningfully smaller than the JSON one.
    let json_len = fs::read(fixture_path("golden_config.json")).unwrap().len();
    assert!(
        pinned.len() * 2 < json_len,
        "binary fixture ({} B) is not under half the JSON fixture ({json_len} B)",
        pinned.len()
    );
}
