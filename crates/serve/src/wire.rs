//! The response half of the versioned JSON wire format, shared by every
//! transport front end.
//!
//! A response is either a report or a **typed** failure: the legacy
//! free-form `reason` string is still emitted (clients built against PR 4/5
//! keep parsing), but every error response now also carries a structured
//! `error` object whose `kind` is one of the
//! [`WireErrorKind`] tags —
//! `bad_request` / `overloaded` / `internal` — so clients can branch on the
//! failure class (retry an `overloaded`, fix a `bad_request`) without
//! string-matching reasons.
//!
//! ```text
//! {"schema_version":1,"status":"ok","report":{…}}
//! {"schema_version":1,"status":"error",
//!  "error":{"kind":"overloaded","reason":"…"},"reason":"…"}
//! ```

use decoder_sim::codec::{
    report_from_json, report_to_json, wire_error_kind_from_json, wire_error_kind_to_json,
    write_object, JsonTape, ObjectWriter,
};
use decoder_sim::{PlatformReport, Result, SimError, WireErrorKind};

/// Schema version of the wire format. Requests and responses carry it;
/// mismatched versions are rejected, never reinterpreted. The typed `error`
/// object was added *within* version 1 as a forward-compatible field: old
/// clients ignore it and read the legacy `reason`, new clients prefer it.
pub const WIRE_SCHEMA_VERSION: u64 = 1;

pub(crate) fn wire_err(reason: impl Into<String>) -> SimError {
    SimError::Persistence {
        reason: reason.into(),
    }
}

/// A typed wire-level failure: the class of the failure plus the
/// human-readable reason the server attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The failure class (`bad_request` / `overloaded` / `internal`).
    pub kind: WireErrorKind,
    /// Human-readable detail, quoted verbatim from the server.
    pub reason: String,
}

impl WireError {
    /// A typed failure with a reason.
    #[must_use]
    pub fn new(kind: WireErrorKind, reason: impl Into<String>) -> Self {
        WireError {
            kind,
            reason: reason.into(),
        }
    }

    /// Whether a client may safely retry the request later (only
    /// [`WireErrorKind::Overloaded`] — the request was never evaluated).
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        self.kind == WireErrorKind::Overloaded
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_wire_str(), self.reason)
    }
}

/// A decoded wire response: the report, or the server's typed failure.
#[derive(Debug, Clone, PartialEq)]
pub enum WireReply {
    /// `status: ok` — the evaluated report.
    Report(PlatformReport),
    /// `status: error` — the typed failure.
    Error(WireError),
}

/// Bytes reserved for an encoded response: a report reply is about 600.
const REPLY_CAPACITY: usize = 768;

/// Renders a response object: the schema version, then `fields`.
fn versioned(fields: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
    let mut out = String::with_capacity(REPLY_CAPACITY);
    write_object(&mut out, |members| {
        members.u64("schema_version", WIRE_SCHEMA_VERSION);
        fields(members);
    });
    out
}

/// Encodes a successful response.
#[must_use]
pub fn ok_response(report: &PlatformReport) -> String {
    versioned(|fields| {
        fields.str("status", "ok");
        fields.value("report", |out| report_to_json(report, out));
    })
}

/// Encodes a typed error response. The legacy top-level `reason` is kept so
/// clients that predate the typed `error` object still see the failure.
#[must_use]
pub fn error_response(error: &WireError) -> String {
    versioned(|fields| {
        fields.str("status", "error");
        fields.object("error", |typed| {
            typed.value("kind", |out| wire_error_kind_to_json(error.kind, out));
            typed.str("reason", &error.reason);
        });
        fields.str("reason", &error.reason);
    })
}

/// Decodes a wire response into the typed reply — the client half of the
/// protocol for callers that need to branch on the failure class (the TCP
/// loadgen counts `overloaded` sheds separately from mismatches).
///
/// Responses from servers that predate the typed `error` object (legacy
/// top-level `reason` only) decode as [`WireErrorKind::Internal`].
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON, a mismatched
/// `schema_version`, or an unknown status/kind tag.
pub fn parse_reply(response_json: &str) -> Result<WireReply> {
    let tape = JsonTape::parse(response_json)?;
    let value = tape.root();
    let version = value.get("schema_version")?.as_u64()?;
    if version != WIRE_SCHEMA_VERSION {
        return Err(wire_err(format!(
            "response schema version {version} does not match supported version {WIRE_SCHEMA_VERSION}"
        )));
    }
    match value.get("status")?.as_str()? {
        "ok" => Ok(WireReply::Report(report_from_json(value.get("report")?)?)),
        "error" => match value.get_opt("error")? {
            Some(typed) => Ok(WireReply::Error(WireError {
                kind: wire_error_kind_from_json(typed.get("kind")?)?,
                reason: typed.get("reason")?.as_str()?.to_string(),
            })),
            None => Ok(WireReply::Error(WireError::new(
                WireErrorKind::Internal,
                value.get("reason")?.as_str()?,
            ))),
        },
        other => Err(wire_err(format!("unknown response status {other:?}"))),
    }
}

/// Parses a wire response back into a report, collapsing any server-side
/// failure into an error — the convenient client half for callers that do
/// not branch on the failure class.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON, a mismatched
/// `schema_version`, or an error response (the server-side reason is quoted
/// in the error).
pub fn parse_response(response_json: &str) -> Result<PlatformReport> {
    match parse_reply(response_json)? {
        WireReply::Report(report) => Ok(report),
        WireReply::Error(error) => Err(wire_err(format!("server error: {}", error.reason))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_responses_carry_both_typed_and_legacy_fields() {
        let encoded = error_response(&WireError::new(WireErrorKind::Overloaded, "queue full"));
        let tape = JsonTape::parse(&encoded).unwrap();
        let value = tape.root();
        assert_eq!(value.get("status").unwrap().as_str().unwrap(), "error");
        assert_eq!(
            value
                .get("error")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str()
                .unwrap(),
            "overloaded"
        );
        // The legacy free-form reason is still present for old clients.
        assert_eq!(value.get("reason").unwrap().as_str().unwrap(), "queue full");

        match parse_reply(&encoded).unwrap() {
            WireReply::Error(error) => {
                assert_eq!(error.kind, WireErrorKind::Overloaded);
                assert!(error.is_retryable());
                assert_eq!(error.to_string(), "overloaded: queue full");
            }
            WireReply::Report(_) => panic!("an error response decoded as a report"),
        }
    }

    #[test]
    fn legacy_reason_only_error_responses_decode_as_internal() {
        let legacy = format!(
            "{{\"schema_version\":{WIRE_SCHEMA_VERSION},\"status\":\"error\",\"reason\":\"boom\"}}"
        );
        match parse_reply(&legacy).unwrap() {
            WireReply::Error(error) => {
                assert_eq!(error.kind, WireErrorKind::Internal);
                assert_eq!(error.reason, "boom");
                assert!(!error.is_retryable());
            }
            WireReply::Report(_) => panic!("a legacy error response decoded as a report"),
        }
        // And the collapsing client path still quotes the reason.
        let collapsed = parse_response(&legacy).unwrap_err();
        assert!(collapsed.to_string().contains("server error: boom"));
    }
}
