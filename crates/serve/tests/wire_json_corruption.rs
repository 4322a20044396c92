//! Corruption sweep for the JSON wire documents, the serve-side half of
//! `decoder-sim`'s `json_corruption.rs`: every truncation and every
//! single-bit flip of one wire request, one `ok` reply and one `error`
//! reply must either fail with a typed [`SimError`] or decode to a value —
//! never panic — and every accepted mutant must re-encode to a document
//! that decodes to the same value.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use decoder_sim::{
    DefectKind, DisturbanceKind, Result, SimConfig, SimError, SimulationPlatform, WireErrorKind,
};
use device_physics::Volts;
use mspt_serve::{error_response, ok_response, parse_reply, ReportRequest, WireError, WireReply};
use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

/// A request exercising both overrides and a window override.
fn request() -> ReportRequest {
    let code = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap();
    let config = SimConfig::paper_defaults(code)
        .unwrap()
        .with_window(Volts::new(0.375));
    ReportRequest::builder(config)
        .disturbance(DisturbanceKind::Correlated {
            shared_fraction: 0.25,
        })
        .defects(DefectKind::sampled(0.05, 0.02, 2_009).unwrap())
        .build()
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

/// Decodes raw frame bytes the way the server does: UTF-8 first.
fn decode<T>(bytes: &[u8], decoder: fn(&str) -> Result<T>) -> Result<T> {
    let text = std::str::from_utf8(bytes).map_err(|_| SimError::Persistence {
        reason: "frame is not UTF-8".to_string(),
    })?;
    decoder(text)
}

/// Sweeps every mutant of `document`; returns (accepted, rejected).
fn sweep<T: PartialEq + Debug>(
    document: &str,
    decoder: fn(&str) -> Result<T>,
    encoder: fn(&T) -> String,
) -> (usize, usize) {
    assert_eq!(encoder(&decoder(document).unwrap()), document);
    let (mut accepted, mut rejected) = (0, 0);
    for (name, mutant) in mutants(document.as_bytes()) {
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(&mutant, decoder)))
            .unwrap_or_else(|_| panic!("{name}: the decoder panicked"));
        match outcome {
            Ok(value) => {
                let again = decoder(&encoder(&value))
                    .unwrap_or_else(|error| panic!("{name}: re-encoded mutant fails: {error}"));
                assert_eq!(
                    again, value,
                    "{name}: re-encoded mutant decodes differently"
                );
                accepted += 1;
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(
        accepted > 0 && rejected > accepted,
        "{accepted} accepted, {rejected} rejected"
    );
    (accepted, rejected)
}

fn encode_reply(reply: &WireReply) -> String {
    match reply {
        WireReply::Report(report) => ok_response(report),
        WireReply::Error(error) => error_response(error),
    }
}

#[test]
fn a_wire_request_survives_every_truncation_and_bit_flip() {
    sweep(
        &request().to_json_string(),
        ReportRequest::from_json_str,
        ReportRequest::to_json_string,
    );
}

#[test]
fn an_ok_reply_survives_every_truncation_and_bit_flip() {
    let report = SimulationPlatform::new(request().effective_config())
        .evaluate()
        .unwrap();
    sweep(&ok_response(&report), parse_reply, encode_reply);
}

#[test]
fn an_error_reply_survives_every_truncation_and_bit_flip() {
    let error = WireError::new(
        WireErrorKind::BadRequest,
        "bad \"request\"\n\tcontrol \u{1} and non-BMP \u{1F600}",
    );
    sweep(&error_response(&error), parse_reply, encode_reply);
}
