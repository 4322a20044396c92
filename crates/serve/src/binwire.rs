//! The binary half of the wire protocol: the same request/reply documents
//! as the JSON wire, encoded through [`decoder_sim::bincodec`].
//!
//! # Negotiation
//!
//! Both codecs travel inside the same 4-byte length-prefixed frames; the
//! **first byte of each frame's payload** is the discriminator. Binary
//! documents open with `0xB1` (not a legal first byte of any JSON document
//! or of UTF-8 text), JSON with `{`. The server inspects each request frame
//! and answers in the codec the request arrived in, so one connection may
//! even mix codecs per frame and a JSON-era client keeps working against a
//! binary-capable server unchanged. The one exception is the accept-time
//! `overloaded` shed, which is written *before* the client has revealed a
//! codec and is therefore always JSON — binary clients route every received
//! frame through [`parse_reply_any`], which dispatches on the same first
//! byte.
//!
//! ```text
//! request  = document(DOC_REQUEST,
//!              section(0x01, config document)
//!              [section(0x02, disturbance body)]
//!              [section(0x03, defect body)])
//! reply    = document(DOC_REPLY,
//!              section(0x01, report document)      -- status: ok
//!            | section(0x02, kind:u8 reason:str))  -- status: error
//! ```

use decoder_sim::bincodec::{
    self, config_from_bin, config_to_bin, defect_from_bin, defect_to_bin, disturbance_from_bin,
    disturbance_to_bin, report_from_bin, report_to_bin, wire_error_kind_from_bin,
    wire_error_kind_to_bin, BinReader, BinWriter,
};
use decoder_sim::{PlatformReport, Result, WireErrorKind};

use crate::wire::{parse_reply, wire_err, WireError, WireReply};
use crate::{Handler, ReportRequest};

/// Request section holding the nested [`SimConfig`](decoder_sim::SimConfig)
/// document. Required.
const TAG_REQUEST_CONFIG: u8 = 0x01;
/// Request section holding a disturbance-override body. Optional: absent
/// means "no override", mirroring JSON `null`.
const TAG_REQUEST_DISTURBANCE: u8 = 0x02;
/// Request section holding a defect-override body. Optional, like the
/// disturbance override.
const TAG_REQUEST_DEFECTS: u8 = 0x03;

/// Reply section holding the nested report document (`status: ok`).
const TAG_REPLY_REPORT: u8 = 0x01;
/// Reply section holding a typed failure: kind byte + reason string
/// (`status: error`).
const TAG_REPLY_ERROR: u8 = 0x02;

/// Encodes a request as a binary wire document.
#[must_use]
pub fn request_to_bin(request: &ReportRequest) -> Vec<u8> {
    let mut payload = BinWriter::new();
    payload.section(TAG_REQUEST_CONFIG, &config_to_bin(&request.config));
    if let Some(kind) = request.disturbance {
        payload.section(TAG_REQUEST_DISTURBANCE, &disturbance_to_bin(kind));
    }
    if let Some(kind) = request.defects {
        payload.section(TAG_REQUEST_DEFECTS, &defect_to_bin(kind));
    }
    bincodec::document(bincodec::DOC_REQUEST, &payload.into_bytes())
}

/// Decodes a binary wire request. The override sections are optional
/// (absent means "no override"); unknown sections are skipped for forward
/// compatibility.
///
/// # Errors
///
/// Returns [`decoder_sim::SimError::Persistence`] on malformed bytes, a
/// mismatched schema version, a missing config section, or a duplicated
/// section, or propagates configuration validation errors.
pub fn request_from_bin(bytes: &[u8]) -> Result<ReportRequest> {
    let payload = bincodec::document_payload(bytes, bincodec::DOC_REQUEST)?;
    let mut reader = BinReader::new(payload);
    let mut config = None;
    let mut disturbance = None;
    let mut defects = None;
    fn store<T>(slot: &mut Option<T>, value: T, what: &str) -> Result<()> {
        if slot.replace(value).is_some() {
            return Err(wire_err(format!(
                "duplicate {what} section in binary request"
            )));
        }
        Ok(())
    }
    while let Some((tag, body)) = reader.next_section()? {
        match tag {
            TAG_REQUEST_CONFIG => store(&mut config, config_from_bin(body)?, "config")?,
            TAG_REQUEST_DISTURBANCE => {
                store(&mut disturbance, disturbance_from_bin(body)?, "disturbance")?;
            }
            TAG_REQUEST_DEFECTS => store(&mut defects, defect_from_bin(body)?, "defects")?,
            _ => {} // Forward compatibility: skip sections a later writer added.
        }
    }
    Ok(ReportRequest {
        config: config.ok_or_else(|| wire_err("binary request is missing its config section"))?,
        disturbance,
        defects,
    })
}

/// Encodes a typed reply as a binary wire document.
#[must_use]
pub fn reply_to_bin(reply: &WireReply) -> Vec<u8> {
    let mut payload = BinWriter::new();
    match reply {
        WireReply::Report(report) => {
            payload.section(TAG_REPLY_REPORT, &report_to_bin(report));
        }
        WireReply::Error(error) => {
            let mut body = BinWriter::new();
            body.put_bytes(&wire_error_kind_to_bin(error.kind));
            body.put_str(&error.reason);
            payload.section(TAG_REPLY_ERROR, &body.into_bytes());
        }
    }
    bincodec::document(bincodec::DOC_REPLY, &payload.into_bytes())
}

/// Decodes a binary wire reply. Exactly one of the report/error sections
/// must be present; unknown sections are skipped.
///
/// # Errors
///
/// Returns [`decoder_sim::SimError::Persistence`] on malformed bytes, a
/// mismatched schema version, or a reply carrying neither or both sections.
pub fn reply_from_bin(bytes: &[u8]) -> Result<WireReply> {
    let payload = bincodec::document_payload(bytes, bincodec::DOC_REPLY)?;
    let mut reader = BinReader::new(payload);
    let mut reply = None;
    while let Some((tag, body)) = reader.next_section()? {
        let decoded = match tag {
            TAG_REPLY_REPORT => WireReply::Report(report_from_bin(body)?),
            TAG_REPLY_ERROR => {
                let mut section = BinReader::new(body);
                let kind = wire_error_kind_from_bin(section.take_bytes(1)?)?;
                let reason = section.take_str()?.to_string();
                section.finish()?;
                WireReply::Error(WireError { kind, reason })
            }
            _ => continue, // Forward compatibility.
        };
        if reply.replace(decoded).is_some() {
            return Err(wire_err(
                "binary reply carries more than one report/error section",
            ));
        }
    }
    reply.ok_or_else(|| wire_err("binary reply carries neither a report nor an error section"))
}

/// Encodes a successful binary response — the counterpart of
/// [`crate::wire::ok_response`].
#[must_use]
pub fn ok_response_bin(report: &PlatformReport) -> Vec<u8> {
    reply_to_bin(&WireReply::Report(report.clone()))
}

/// Encodes a typed binary error response — the counterpart of
/// [`crate::wire::error_response`].
#[must_use]
pub fn error_response_bin(error: &WireError) -> Vec<u8> {
    reply_to_bin(&WireReply::Error(error.clone()))
}

/// The binary front end over any [`Handler`]: bytes in, bytes out. Like
/// [`crate::handle_json`] it never panics and never returns `Err` —
/// malformed requests become typed `bad_request` replies and evaluation
/// failures become typed `internal` replies.
#[must_use]
pub fn handle_bin(handler: &dyn Handler, request: &[u8]) -> Vec<u8> {
    match request_from_bin(request) {
        Err(error) => error_response_bin(&WireError::new(
            WireErrorKind::BadRequest,
            error.to_string(),
        )),
        Ok(request) => match handler.serve(&request) {
            Ok(report) => ok_response_bin(&report),
            Err(error) => {
                error_response_bin(&WireError::new(WireErrorKind::Internal, error.to_string()))
            }
        },
    }
}

/// Decodes a reply frame in **either** codec, dispatching on the first
/// byte — what every client should route received frames through, because
/// accept-time `overloaded` sheds are always JSON even on binary
/// connections.
///
/// # Errors
///
/// Returns [`decoder_sim::SimError::Persistence`] on malformed bytes in
/// either codec or a non-UTF-8 frame that is not a binary document.
pub fn parse_reply_any(bytes: &[u8]) -> Result<WireReply> {
    if bincodec::is_binary(bytes) {
        return reply_from_bin(bytes);
    }
    let text = std::str::from_utf8(bytes)
        .map_err(|_| wire_err("reply frame is neither a binary document nor UTF-8 JSON"))?;
    parse_reply(text)
}

/// [`parse_reply_any`] collapsed to a report, turning a typed server
/// failure into an error — the counterpart of [`crate::parse_response`].
///
/// # Errors
///
/// Returns [`decoder_sim::SimError::Persistence`] on malformed bytes or an
/// error reply (the server-side reason is quoted in the error).
pub fn parse_response_any(bytes: &[u8]) -> Result<PlatformReport> {
    match parse_reply_any(bytes)? {
        WireReply::Report(report) => Ok(report),
        WireReply::Error(error) => Err(wire_err(format!("server error: {}", error.reason))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoder_sim::{DisturbanceKind, SimConfig};
    use nanowire_codes::{CodeKind, CodeSpec, LogicLevel};

    fn request() -> ReportRequest {
        let code = CodeSpec::new(CodeKind::Gray, LogicLevel::BINARY, 8).unwrap();
        ReportRequest::builder(SimConfig::paper_defaults(code).unwrap())
            .disturbance(DisturbanceKind::Laplace)
            .build()
    }

    #[test]
    fn requests_round_trip_through_binary() {
        let typed = request();
        let bytes = request_to_bin(&typed);
        assert!(bincodec::is_binary(&bytes));
        assert_eq!(request_from_bin(&bytes).unwrap(), typed);

        // Overrides are genuinely optional sections, not nulls.
        let bare = ReportRequest::builder(typed.config.clone()).build();
        let bare_bytes = request_to_bin(&bare);
        assert!(bare_bytes.len() < bytes.len());
        assert_eq!(request_from_bin(&bare_bytes).unwrap(), bare);
    }

    #[test]
    fn error_replies_round_trip_with_their_kind() {
        for kind in WireErrorKind::ALL {
            let reply = WireReply::Error(WireError::new(kind, "queue full"));
            assert_eq!(reply_from_bin(&reply_to_bin(&reply)).unwrap(), reply);
        }
    }

    #[test]
    fn parse_reply_any_dispatches_on_the_first_byte() {
        let error = WireError::new(WireErrorKind::Overloaded, "queue full");
        let json = crate::wire::error_response(&error);
        let bin = error_response_bin(&error);
        let from_json = parse_reply_any(json.as_bytes()).unwrap();
        let from_bin = parse_reply_any(&bin).unwrap();
        assert_eq!(from_json, from_bin);
        assert!(matches!(
            from_bin,
            WireReply::Error(ref e) if e.is_retryable()
        ));
    }

    #[test]
    fn truncated_requests_fail_except_at_the_one_section_boundary() {
        let typed = request();
        let bytes = request_to_bin(&typed);
        let mut boundary_decodes = 0;
        for take in 0..bytes.len() {
            if let Ok(decoded) = request_from_bin(&bytes[..take]) {
                // The only decodable proper prefix ends exactly between the
                // config and disturbance sections, and decodes as the
                // override-free request — never as a corrupted one.
                assert_eq!(
                    decoded,
                    ReportRequest::builder(typed.config.clone()).build()
                );
                boundary_decodes += 1;
            }
        }
        assert_eq!(boundary_decodes, 1);
    }
}
