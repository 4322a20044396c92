//! Corruption sweep for the JSON codec, the counterpart of
//! `bincodec_corruption.rs`: every truncation and every single-bit flip of
//! the committed golden documents must either fail with a typed
//! [`SimError`] or decode to a value — never panic — and every accepted
//! mutant must re-encode to a document that decodes to the same value.
//! (The wire request and replies get the same sweep in the serve crate's
//! `wire_json_corruption.rs`.)

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use decoder_sim::codec::{
    config_from_json, config_to_json, render, report_from_json, report_to_json, JsonCursor,
    JsonTape,
};
use decoder_sim::{Result, SimError};

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|error| panic!("{}: {error}", path.display()))
}

/// Every proper prefix, then every single-bit flip, of `document`.
fn mutants(document: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let truncations = (0..document.len())
        .map(|take| (format!("prefix of {take} bytes"), document[..take].to_vec()));
    let flips = (0..document.len() * 8).map(|bit| {
        let mut mutated = document.to_vec();
        mutated[bit / 8] ^= 1 << (bit % 8);
        (format!("bit {} of byte {}", bit % 8, bit / 8), mutated)
    });
    truncations.chain(flips)
}

/// Decodes raw bytes the way a snapshot or wire reader does: UTF-8 first.
fn decode<T>(bytes: &[u8], decoder: fn(JsonCursor<'_>) -> Result<T>) -> Result<T> {
    let text = std::str::from_utf8(bytes).map_err(|_| SimError::Persistence {
        reason: "document is not UTF-8".to_string(),
    })?;
    decoder(JsonTape::parse(text)?.root())
}

/// Sweeps every mutant of `document`; returns (accepted, rejected).
fn sweep<T: PartialEq + Debug>(
    document: &[u8],
    decoder: fn(JsonCursor<'_>) -> Result<T>,
    encoder: fn(&T, &mut String),
) -> (usize, usize) {
    let (mut accepted, mut rejected) = (0, 0);
    for (name, mutant) in mutants(document) {
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(&mutant, decoder)))
            .unwrap_or_else(|_| panic!("{name}: the decoder panicked"));
        match outcome {
            Ok(value) => {
                let encoded = render(|out| encoder(&value, out));
                let again = decode(encoded.as_bytes(), decoder)
                    .unwrap_or_else(|error| panic!("{name}: re-encoded mutant fails: {error}"));
                assert_eq!(
                    again, value,
                    "{name}: re-encoded mutant decodes differently"
                );
                accepted += 1;
            }
            // The error type is the typed `SimError` by construction; what
            // matters is that the decoder returned instead of panicking.
            Err(_) => rejected += 1,
        }
    }
    (accepted, rejected)
}

#[test]
fn golden_config_json_survives_every_truncation_and_bit_flip() {
    let document = fixture("golden_config.json");
    let (accepted, rejected) = sweep(&document, config_from_json, config_to_json);
    // Flipped digits inside numbers are legitimately accepted; most other
    // mutants (keys, punctuation, truncations) must be rejected.
    assert!(
        accepted > 0 && rejected > accepted,
        "{accepted} accepted, {rejected} rejected"
    );
    // The unmutated document round-trips byte-identically.
    let golden = decode(&document, config_from_json).unwrap();
    assert_eq!(
        render(|out| config_to_json(&golden, out)).as_bytes(),
        document
    );
}

#[test]
fn golden_report_json_survives_every_truncation_and_bit_flip() {
    let document = fixture("golden_report.json");
    let (accepted, rejected) = sweep(&document, report_from_json, |report, out| {
        report_to_json(report, out);
    });
    assert!(
        accepted > 0 && rejected > accepted,
        "{accepted} accepted, {rejected} rejected"
    );
    let golden = decode(&document, report_from_json).unwrap();
    assert_eq!(
        render(|out| report_to_json(&golden, out)).as_bytes(),
        document
    );
}

#[test]
fn every_truncation_of_a_golden_document_is_rejected() {
    // No proper prefix of a compact object is itself a complete document.
    for name in ["golden_config.json", "golden_report.json"] {
        let document = fixture(name);
        for take in 0..document.len() {
            assert!(
                decode(&document[..take], config_from_json).is_err()
                    && decode(&document[..take], report_from_json).is_err(),
                "{name}: prefix of {take} bytes decoded"
            );
        }
    }
}
