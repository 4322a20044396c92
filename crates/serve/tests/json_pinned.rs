//! Pinned behaviour of the JSON decoder, table-driven. Every case is a
//! document and either the exact value it decodes to or the exact error
//! it fails with. The cases go through the string-level entry points
//! (`ReportRequest::from_json_str`, `parse_reply`, `ReportCache::load_snapshot`,
//! `error_response`), so the table pins what a peer or a snapshot file sees,
//! whatever the codec looks like inside.

use decoder_sim::codec::canonical_config_string;
use decoder_sim::{
    CacheConfig, DefectKind, DisturbanceKind, MonteCarloConfig, PlatformReport, ReportCache,
    SimConfig, SimError, WireErrorKind,
};
use device_physics::Volts;
use mspt_serve::{error_response, parse_reply, ReportRequest, WireError, WireReply};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

/// The committed golden configuration document (compact, key order of the
/// encoder).
const GOLDEN_CONFIG_JSON: &str = include_str!("../../sim/tests/fixtures/golden_config.json");
/// The committed golden report document.
const GOLDEN_REPORT_JSON: &str = include_str!("../../sim/tests/fixtures/golden_report.json");

/// The configuration `GOLDEN_CONFIG_JSON` encodes.
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

/// The report `GOLDEN_REPORT_JSON` encodes.
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

fn request(config: SimConfig) -> ReportRequest {
    ReportRequest::builder(config).build()
}

/// A wire request around a configuration document.
fn request_doc(config_json: &str) -> String {
    format!(r#"{{"schema_version":1,"config":{config_json},"disturbance":null,"defects":null}}"#)
}

/// `text` with `from` replaced exactly once (panics if absent, so a case
/// can never silently test the unmodified document).
fn replace_once(text: &str, from: &str, to: &str) -> String {
    assert_eq!(text.matches(from).count(), 1, "{from:?} in {text}");
    text.replacen(from, to, 1)
}

/// `text` with whitespace inserted around every structural token. The
/// golden documents hold no structural characters inside strings.
fn spaced(text: &str) -> String {
    let mut out = String::from(" \n");
    for ch in text.chars() {
        if matches!(ch, '{' | '}' | '[' | ']' | ':' | ',') {
            out.push_str(" \t");
            out.push(ch);
            out.push_str("\r\n ");
        } else {
            out.push(ch);
        }
    }
    out.push('\t');
    out
}

enum Expect<T> {
    Value(T),
    /// The exact `SimError::Persistence` reason.
    Persistence(String),
}

fn check<T: PartialEq + std::fmt::Debug>(
    name: &str,
    actual: Result<T, SimError>,
    expect: Expect<T>,
) {
    match (actual, expect) {
        (Ok(value), Expect::Value(expected)) => {
            assert_eq!(value, expected, "case {name}: wrong decoded value");
        }
        (Err(SimError::Persistence { reason }), Expect::Persistence(expected)) => {
            assert_eq!(reason, expected, "case {name}: wrong error");
        }
        (Ok(value), Expect::Persistence(expected)) => {
            panic!("case {name}: decoded {value:?}, expected the error {expected:?}")
        }
        (Err(error), Expect::Value(_)) => panic!("case {name}: failed with {error:?}"),
        (Err(error), Expect::Persistence(expected)) => {
            panic!("case {name}: failed with {error:?}, expected persistence error {expected:?}")
        }
    }
}

/// A reordered rendering of the golden configuration: top-level keys in a
/// different order, nested objects reordered too.
const REORDERED_CONFIG_JSON: &str = concat!(
    r#"{"monte_carlo":{"max_samples":null,"confidence":0.95,"target_half_width":null,"seed":1592642302,"samples":2000},"#,
    r#""defects":{"seed":2009,"crosspoint_defect":0.02,"nanowire_breakage":0.05,"kind":"sampled"},"#,
    r#""disturbance":{"shared_fraction":0.25,"kind":"correlated"},"#,
    r#""code_budgets":{"arranged_hot":{"fallback":{"max_two_opt_sweeps":64,"max_nodes":2000000},"max_nodes":4000000},"balance":{"max_limit_slack":4,"max_nodes_per_limit":4000000}},"#,
    r#""window_override_v":0.375,"supply_range_v":[0,1],"sigma_per_dose_v":0.05,"#,
    r#""threshold_model":{"flat_band_voltage_v":-1,"oxide_thickness_nm":2},"#,
    r#""layout":{"contact_alignment_tolerance_nm":16,"min_contact_width_factor":1.5,"nanowire_pitch_nm":10,"litho_pitch_nm":32},"#,
    r#""raw_bits":131072,"nanowires_per_half_cave":20,"code":{"length":8,"radix":2,"kind":"gray"}}"#,
);

#[test]
fn request_documents_decode_as_pinned() {
    let golden = golden_config();
    let golden_request = request_doc(GOLDEN_CONFIG_JSON);
    let depth = |arrays: usize| {
        // The request object is one level; the unknown key adds `arrays`.
        let nested = format!("{}{}", "[".repeat(arrays), "]".repeat(arrays));
        replace_once(
            &golden_request,
            r#""defects":null"#,
            &format!(r#""defects":null,"deep":{nested}"#),
        )
    };
    let cases: Vec<(&str, String, Expect<ReportRequest>)> = vec![
        ("golden", golden_request.clone(), Expect::Value(request(golden.clone()))),
        (
            "reordered keys",
            format!(
                r#"{{"defects":null,"disturbance":null,"config":{REORDERED_CONFIG_JSON},"schema_version":1}}"#
            ),
            Expect::Value(request(golden.clone())),
        ),
        (
            "unknown keys, nested arrays and objects included",
            replace_once(
                &request_doc(&replace_once(
                    GOLDEN_CONFIG_JSON,
                    r#""raw_bits":131072"#,
                    r#""raw_bits":131072,"comment":"from a newer writer","grid":[[1,2.5],[[-3e2]],[],{"a":[null,true,false]}]"#,
                )),
                r#""schema_version":1"#,
                r#""schema_version":1,"client":{"name":"x","tags":[]}"#,
            ),
            Expect::Value(request(golden.clone())),
        ),
        (
            "unknown key holding an invalid number literal",
            replace_once(&golden_request, r#""defects":null"#, r#""defects":null,"extra":1.2.3"#),
            Expect::Persistence(r#"invalid number literal "1.2.3""#.to_string()),
        ),
        (
            "unknown key holding a lone minus sign",
            replace_once(&golden_request, r#""defects":null"#, r#""defects":null,"extra":[-]"#),
            Expect::Persistence(r#"invalid number literal "-""#.to_string()),
        ),
        (
            "duplicate keys: the first wins",
            request_doc(&replace_once(
                GOLDEN_CONFIG_JSON,
                r#""raw_bits":131072"#,
                r#""raw_bits":131072,"raw_bits":4096,"code":{"kind":"tree","radix":2,"length":6}"#,
            )),
            Expect::Value(request(golden.clone())),
        ),
        (
            "duplicate top-level keys: the first wins",
            replace_once(
                &golden_request,
                r#""defects":null"#,
                r#""defects":null,"schema_version":7,"disturbance":{"kind":"laplace"}"#,
            ),
            Expect::Value(request(golden.clone())),
        ),
        ("whitespace between every token", spaced(&golden_request), Expect::Value(request(golden.clone()))),
        (
            "escaped key",
            request_doc(&replace_once(GOLDEN_CONFIG_JSON, r#""raw_bits""#, r#""r\u0061w_bits""#)),
            Expect::Value(request(golden.clone())),
        ),
        (
            "escaped string value",
            request_doc(&replace_once(GOLDEN_CONFIG_JSON, r#""gray""#, r#""gr\u0061y""#)),
            Expect::Value(request(golden.clone())),
        ),
        ("nesting depth 128", depth(127), Expect::Value(request(golden.clone()))),
        (
            "nesting depth 129",
            depth(128),
            Expect::Persistence("JSON nesting exceeds the supported depth of 128".to_string()),
        ),
        (
            "trailing whitespace",
            format!("{golden_request} \n\t\r"),
            Expect::Value(request(golden.clone())),
        ),
        (
            "trailing bytes",
            format!("{golden_request} {{}}"),
            Expect::Persistence(format!(
                "trailing characters after JSON document at byte {}",
                golden_request.len() + 1
            )),
        ),
        (
            "1.0 where a u64 is read",
            request_doc(&replace_once(GOLDEN_CONFIG_JSON, r#""raw_bits":131072"#, r#""raw_bits":1.0"#)),
            Expect::Persistence(r#"number literal "1.0" is not a u64"#.to_string()),
        ),
        (
            "-1 where a u64 is read",
            request_doc(&replace_once(GOLDEN_CONFIG_JSON, r#""seed":2009"#, r#""seed":-1"#)),
            Expect::Persistence(r#"number literal "-1" is not a u64"#.to_string()),
        ),
        (
            "u64::MAX + 1 where a u64 is read",
            request_doc(&replace_once(GOLDEN_CONFIG_JSON, r#""seed":2009"#, r#""seed":18446744073709551616"#)),
            Expect::Persistence(r#"number literal "18446744073709551616" is not a u64"#.to_string()),
        ),
        (
            "null where a float is read",
            request_doc(&replace_once(GOLDEN_CONFIG_JSON, r#""sigma_per_dose_v":0.05"#, r#""sigma_per_dose_v":null"#)),
            Expect::Persistence("expected a number, got null".to_string()),
        ),
        (
            "an overflowing float literal",
            request_doc(&replace_once(GOLDEN_CONFIG_JSON, r#""sigma_per_dose_v":0.05"#, r#""sigma_per_dose_v":1e999"#)),
            Expect::Persistence(r#"number literal "1e999" is not a finite f64"#.to_string()),
        ),
        (
            "a string where a number is read",
            request_doc(&replace_once(GOLDEN_CONFIG_JSON, r#""raw_bits":131072"#, r#""raw_bits":"131072""#)),
            Expect::Persistence("expected a number, got a string".to_string()),
        ),
        (
            "a missing key",
            request_doc(&replace_once(GOLDEN_CONFIG_JSON, r#""raw_bits":131072,"#, "")),
            Expect::Persistence(r#"missing object key "raw_bits""#.to_string()),
        ),
        (
            "legacy config without defects",
            request_doc(&replace_once(
                GOLDEN_CONFIG_JSON,
                r#","defects":{"kind":"sampled","nanowire_breakage":0.05,"crosspoint_defect":0.02,"seed":2009}"#,
                "",
            )),
            Expect::Value(request(golden.clone().with_defects(DefectKind::None))),
        ),
        (
            "legacy config without defects or monte_carlo",
            request_doc(
                &replace_once(
                    GOLDEN_CONFIG_JSON,
                    r#","defects":{"kind":"sampled","nanowire_breakage":0.05,"crosspoint_defect":0.02,"seed":2009}"#,
                    "",
                )
                .replacen(
                    r#","monte_carlo":{"samples":2000,"seed":1592642302,"target_half_width":null,"confidence":0.95,"max_samples":null}"#,
                    "",
                    1,
                ),
            ),
            Expect::Value(request(
                golden
                    .clone()
                    .with_defects(DefectKind::None)
                    .with_monte_carlo(MonteCarloConfig::default()),
            )),
        ),
        (
            "legacy monte_carlo without the adaptive keys",
            request_doc(&replace_once(
                GOLDEN_CONFIG_JSON,
                r#""monte_carlo":{"samples":2000,"seed":1592642302,"target_half_width":null,"confidence":0.95,"max_samples":null}"#,
                r#""monte_carlo":{"samples":500,"seed":42}"#,
            )),
            Expect::Value(request(golden.clone().with_monte_carlo(MonteCarloConfig::fixed(500, 42)))),
        ),
        (
            "legacy request without the defects override",
            format!(r#"{{"schema_version":1,"config":{GOLDEN_CONFIG_JSON},"disturbance":{{"kind":"laplace"}}}}"#),
            Expect::Value(
                ReportRequest::builder(golden.clone())
                    .disturbance(DisturbanceKind::Laplace)
                    .build(),
            ),
        ),
        (
            "request with both overrides",
            format!(
                r#"{{"schema_version":1,"config":{GOLDEN_CONFIG_JSON},"disturbance":{{"kind":"gaussian"}},"defects":{{"kind":"none"}}}}"#
            ),
            Expect::Value(
                ReportRequest::builder(golden.clone())
                    .disturbance(DisturbanceKind::Gaussian)
                    .defects(DefectKind::None)
                    .build(),
            ),
        ),
        (
            "a mismatched schema version",
            replace_once(&golden_request, r#""schema_version":1"#, r#""schema_version":2"#),
            Expect::Persistence(
                "request schema version 2 does not match supported version 1".to_string(),
            ),
        ),
        (
            "an unknown enum tag",
            request_doc(&replace_once(GOLDEN_CONFIG_JSON, r#""correlated""#, r#""cauchy""#)),
            Expect::Persistence(r#"unknown disturbance kind "cauchy""#.to_string()),
        ),
        (
            "supply range with three entries",
            request_doc(&replace_once(GOLDEN_CONFIG_JSON, "[0,1]", "[0,1,2]")),
            Expect::Persistence("supply_range_v must have exactly two entries".to_string()),
        ),
        (
            "a root that is not an object",
            "[1]".to_string(),
            Expect::Persistence(r#"expected an object with key "schema_version", got an array"#.to_string()),
        ),
        ("an empty document", String::new(), Expect::Persistence("unexpected character at byte 0".to_string())),
        (
            "a truncated document",
            golden_request[..golden_request.len() - 1].to_string(),
            Expect::Persistence(format!("expected ',' or '}}' at byte {}", golden_request.len() - 1)),
        ),
        (
            "a raw control character inside a string",
            request_doc(&replace_once(GOLDEN_CONFIG_JSON, r#""gray""#, "\"gr\u{1}ay\"")),
            Expect::Persistence("unterminated string".to_string()),
        ),
    ];
    for (name, document, expect) in cases {
        check(name, ReportRequest::from_json_str(&document), expect);
    }
}

#[test]
fn reply_documents_decode_as_pinned() {
    let golden = golden_report();
    let without_composites = GOLDEN_REPORT_JSON
        .replacen(
            r#","defects":{"kind":"sampled","nanowire_breakage":0.05,"crosspoint_defect":0.02,"seed":2009}"#,
            "",
            1,
        )
        .replacen(r#","defect_survival":0.9375"#, "", 1)
        .replacen(r#","composite_yield":0.7177734375"#, "", 1)
        .replacen(r#","composite_effective_bits":92160"#, "", 1);
    assert!(!without_composites.contains("composite"));
    let ok = |report: &str| format!(r#"{{"schema_version":1,"status":"ok","report":{report}}}"#);
    let error = |reason: &str| {
        format!(
            r#"{{"schema_version":1,"status":"error","error":{{"kind":"bad_request","reason":"{reason}"}},"reason":"{reason}"}}"#
        )
    };
    let typed = |kind: WireErrorKind, reason: &str| {
        Expect::Value(WireReply::Error(WireError::new(kind, reason)))
    };
    let cases: Vec<(&str, String, Expect<WireReply>)> = vec![
        (
            "golden report",
            ok(GOLDEN_REPORT_JSON),
            Expect::Value(WireReply::Report(golden.clone())),
        ),
        (
            "report without composite keys",
            ok(&without_composites),
            Expect::Value(WireReply::Report(PlatformReport {
                defects: DefectKind::None,
                defect_survival: 1.0,
                composite_yield: golden.crossbar_yield,
                composite_effective_bits: golden.effective_bits,
                ..golden.clone()
            })),
        ),
        (
            "report with spaced tokens",
            spaced(&ok(GOLDEN_REPORT_JSON)),
            Expect::Value(WireReply::Report(golden.clone())),
        ),
        (
            "escaped characters in a reason",
            error(r#"a\"b\\c\/d\b\f\n\r\t\u0001\u001fé"#),
            typed(
                WireErrorKind::BadRequest,
                "a\"b\\c/d\u{8}\u{c}\n\r\t\u{1}\u{1f}\u{e9}",
            ),
        ),
        (
            "a surrogate pair",
            error(r#"\ud83d\ude00 and \uD834\uDD1E"#),
            typed(WireErrorKind::BadRequest, "\u{1F600} and \u{1D11E}"),
        ),
        (
            "raw non-BMP text",
            error("\u{1F600}\u{10FFFF}"),
            typed(WireErrorKind::BadRequest, "\u{1F600}\u{10FFFF}"),
        ),
        (
            "a lone high surrogate",
            error(r#"\ud83d"#),
            Expect::Persistence("unpaired high surrogate escape".to_string()),
        ),
        (
            "a high surrogate before a plain escape",
            error(r#"\ud83d\n"#),
            Expect::Persistence("unpaired high surrogate escape".to_string()),
        ),
        (
            "a high surrogate before a non-low escape",
            error(r#"\ud83d\u0041"#),
            Expect::Persistence(
                "high surrogate escape not followed by a low surrogate".to_string(),
            ),
        ),
        (
            "a high surrogate before a plain character",
            error(r#"\ud83dA"#),
            Expect::Persistence("unpaired high surrogate escape".to_string()),
        ),
        (
            "a lone low surrogate",
            error(r#"\ude00"#),
            Expect::Persistence("unpaired low surrogate escape".to_string()),
        ),
        (
            "a bad escape",
            error(r#"\x"#),
            Expect::Persistence(r"unknown escape '\x'".to_string()),
        ),
        (
            "bad hex digits",
            error(r#"\u12g4"#),
            Expect::Persistence(r"invalid \u escape digits".to_string()),
        ),
        (
            "legacy error with a reason only",
            r#"{"schema_version":1,"status":"error","reason":"boom"}"#.to_string(),
            typed(WireErrorKind::Internal, "boom"),
        ),
        (
            "an unknown error kind",
            r#"{"schema_version":1,"status":"error","error":{"kind":"toasted","reason":"x"}}"#
                .to_string(),
            Expect::Persistence(r#"unknown wire error kind "toasted""#.to_string()),
        ),
        (
            "an unknown status",
            r#"{"schema_version":1,"status":"maybe"}"#.to_string(),
            Expect::Persistence(r#"unknown response status "maybe""#.to_string()),
        ),
        (
            "a mismatched schema version",
            r#"{"schema_version":3,"status":"ok"}"#.to_string(),
            Expect::Persistence(
                "response schema version 3 does not match supported version 1".to_string(),
            ),
        ),
        (
            "1.0 where a u64 is read",
            ok(&replace_once(
                GOLDEN_REPORT_JSON,
                r#""contact_groups":4"#,
                r#""contact_groups":4.0"#,
            )),
            Expect::Persistence(r#"number literal "4.0" is not a u64"#.to_string()),
        ),
        (
            "null where a float is read",
            ok(&replace_once(
                GOLDEN_REPORT_JSON,
                r#""cave_yield":0.875"#,
                r#""cave_yield":null"#,
            )),
            Expect::Persistence("expected a number, got null".to_string()),
        ),
    ];
    for (name, document, expect) in cases {
        check(name, parse_reply(&document), expect);
    }
}

#[test]
fn error_replies_encode_as_pinned() {
    let reason =
        "tab\there \"quoted\" back\\slash\nnul\u{0}bell\u{7}esc\u{1b}del\u{7f} \u{e9} \u{1F600}";
    let encoded = error_response(&WireError::new(WireErrorKind::Internal, reason));
    let escaped = r#"tab\there \"quoted\" back\\slash\nnul\u0000bell\u0007esc\u001bdel"#
        .to_string()
        + "\u{7f} \u{e9} \u{1F600}";
    assert_eq!(
        encoded,
        format!(
            r#"{{"schema_version":1,"status":"error","error":{{"kind":"internal","reason":"{escaped}"}},"reason":"{escaped}"}}"#
        )
    );
    assert_eq!(
        parse_reply(&encoded).unwrap(),
        WireReply::Error(WireError::new(WireErrorKind::Internal, reason))
    );
}

#[test]
fn golden_config_identity_is_pinned() {
    let golden = golden_config();
    assert_eq!(canonical_config_string(&golden), GOLDEN_CONFIG_JSON);
    assert_eq!(ReportCache::fingerprint(&golden), 0xfcf0_f95c_f087_9b9c);
}

#[test]
fn snapshot_documents_load_as_pinned() {
    let snapshot = |rows: &str| format!(r#"{{"schema_version":1,"entries":[{rows}]}}"#);
    let row = format!(r#"{{"config":{GOLDEN_CONFIG_JSON},"report":{GOLDEN_REPORT_JSON}}}"#);
    let cases: Vec<(&str, String, Expect<usize>)> = vec![
        ("one row", snapshot(&row), Expect::Value(1)),
        (
            "a repeated row",
            snapshot(&format!("{row},{row}")),
            Expect::Value(1),
        ),
        ("no rows", snapshot(""), Expect::Value(0)),
        ("spaced", spaced(&snapshot(&row)), Expect::Value(1)),
        (
            "a future schema",
            r#"{"schema_version":2,"entries":[]}"#.to_string(),
            Expect::Persistence(
                "cache snapshot schema version 2 does not match supported version 1".to_string(),
            ),
        ),
        (
            "entries that are not an array",
            r#"{"schema_version":1,"entries":{}}"#.to_string(),
            Expect::Persistence("expected an array, got an object".to_string()),
        ),
    ];
    for (name, document, expect) in cases {
        let cache = ReportCache::new(CacheConfig::default());
        check(name, cache.load_snapshot(&document), expect);
    }
    let cache = ReportCache::new(CacheConfig::default());
    cache.load_snapshot(&snapshot(&row)).unwrap();
    let served = cache
        .get_or_compute(&golden_config(), || unreachable!("the row is loaded"))
        .unwrap();
    assert_eq!(served, golden_report());
}
