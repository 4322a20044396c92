//! Std-only JSON codec for the types that cross process boundaries: the
//! serve layer's wire format and the report cache's warm-cache persistence.
//!
//! The vendored `serde` stand-in is marker-traits only (no data model, no
//! serializers — crates.io is unreachable in this build environment), so this
//! module hand-rolls the small amount of JSON the workspace needs, without
//! an intermediate value tree in either direction:
//!
//! * **Encoding** appends straight into one caller-owned `String`.
//!   [`write_object`] hands an [`ObjectWriter`] whose typed field methods
//!   (`f64`, `u64`, `str`, `object`, …) write `"key":value` members in call
//!   order, so a value rendered twice is byte-identical.
//! * **Decoding** makes one pass over the input and records a flat
//!   [`JsonTape`]: one node per value in document order, each container
//!   knowing where its subtree ends. Keys, strings and number literals are
//!   byte ranges into the input; every number literal is validated and
//!   parsed exactly once, its value kept in the node. Only strings holding
//!   escapes are copied, into one side buffer per document. [`JsonCursor`]
//!   walks the tape with the accessors the decoders use (`get`, `get_opt`,
//!   `as_f64`, `as_u64`, `as_str`, `as_array`, …).
//! * Explicit encode/decode functions for [`SimConfig`], [`PlatformReport`],
//!   [`DisturbanceKind`] and [`DefectKind`] — every decoded configuration
//!   passes through the same validating constructors as a hand-built one.
//!
//! # Versioning discipline
//!
//! Fields added after a format shipped (the defect selection and the
//! composite report quantities) are encoded unconditionally but decoded
//! through [`JsonCursor::get_opt`] with the pre-field behaviour as the
//! default, so snapshots and wire messages written before the field existed
//! keep loading; unknown *keys* are skipped (the first of duplicate keys
//! wins), unknown *values* (an unrecognised kind tag) are still rejected
//! loudly.
//!
//! # Float round-tripping
//!
//! Finite `f64`s are written with Rust's shortest-roundtrip `Display`
//! formatting and parsed back with `str::parse::<f64>`, which restores the
//! **bit-identical** value. That is what lets a warm cache loaded from disk
//! serve byte-for-byte the same [`PlatformReport`]s the original process
//! computed. Non-finite floats are not representable in JSON; the encoder
//! maps them to `null` and the decoder rejects `null` where a number is
//! required, so corruption fails loudly instead of silently.

use std::fmt::Write as _;

use nanowire_codes::{
    ArrangedHotBudget, BalanceBudget, CodeBudgets, CodeKind, CodeSpec, LogicLevel, SearchBudget,
};

use crossbar_array::LayoutRules;
use device_physics::{Nanometers, ThresholdModel, Volts};

use crate::config::SimConfig;
use crate::defect::{DefectConfig, DefectKind};
use crate::disturbance::DisturbanceKind;
use crate::error::{Result, SimError};
use crate::monte_carlo::MonteCarloConfig;
use crate::platform::PlatformReport;

fn err(reason: impl Into<String>) -> SimError {
    SimError::Persistence {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------- writer --

/// Runs an appending encoder into a fresh buffer and returns the document.
#[must_use]
pub fn render(encode: impl FnOnce(&mut String)) -> String {
    let mut out = String::with_capacity(1024);
    encode(&mut out);
    out
}

/// Appends one JSON object to `out`; `fields` writes its members.
pub fn write_object(out: &mut String, fields: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    fields(&mut ObjectWriter {
        out: &mut *out,
        first: true,
    });
    out.push('}');
}

/// Appends one JSON array to `out`, one element per item.
pub fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut element: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (index, item) in items.into_iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        element(out, item);
    }
    out.push(']');
}

/// Appends a finite `f64` with shortest-roundtrip formatting (Rust's
/// `Display`), or `null` for a non-finite value (which JSON cannot
/// represent).
pub fn write_f64(out: &mut String, value: f64) {
    if !value.is_finite() {
        out.push_str("null");
    } else if value.fract() == 0.0 && value.abs() < 9_007_199_254_740_992.0 && value != 0.0 {
        // An integral value below 2^53 displays as exactly its integer
        // digits; the integer formatter writes them several times faster
        // than the float one.
        if value < 0.0 {
            out.push('-');
        }
        write_u64(out, value.abs() as u64);
    } else {
        let _ = write!(out, "{value}");
    }
}

/// Appends a `u64` exactly.
pub fn write_u64(out: &mut String, value: u64) {
    // Formatting into a `String` cannot fail.
    let _ = write!(out, "{value}");
}

/// Appends a string literal, escaping quotes, backslashes and control
/// characters; everything else (non-BMP text included) passes through as
/// UTF-8.
pub fn write_str(out: &mut String, mut text: &str) {
    out.push('"');
    while let Some(index) = text
        .bytes()
        .position(|byte| byte == b'"' || byte == b'\\' || byte < 0x20)
    {
        // Every escaped byte is ASCII, so `index` is a char boundary.
        out.push_str(&text[..index]);
        match text.as_bytes()[index] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            byte => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        text = &text[index + 1..];
    }
    out.push_str(text);
    out.push('"');
}

/// Appends `value` through `encode`, or `null` when it is `None`.
pub fn write_opt<T>(out: &mut String, value: Option<T>, encode: impl FnOnce(T, &mut String)) {
    match value {
        Some(value) => encode(value, out),
        None => out.push_str("null"),
    }
}

/// Writes the members of one JSON object, in call order; see
/// [`write_object`].
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl ObjectWriter<'_> {
    /// Writes the separator and `"key":`, returning the buffer the value
    /// goes into.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_str(self.out, key);
        self.out.push(':');
        &mut *self.out
    }

    /// A member whose value `encode` appends (a nested encoder, an array).
    pub fn value(&mut self, key: &str, encode: impl FnOnce(&mut String)) {
        encode(self.key(key));
    }

    /// A nested object member.
    pub fn object(&mut self, key: &str, fields: impl FnOnce(&mut ObjectWriter<'_>)) {
        write_object(self.key(key), fields);
    }

    /// A float member ([`write_f64`]).
    pub fn f64(&mut self, key: &str, value: f64) {
        write_f64(self.key(key), value);
    }

    /// A nullable float member.
    pub fn opt_f64(&mut self, key: &str, value: Option<f64>) {
        write_opt(self.key(key), value, |value, out| write_f64(out, value));
    }

    /// An unsigned integer member.
    pub fn u64(&mut self, key: &str, value: u64) {
        write_u64(self.key(key), value);
    }

    /// A `usize` member.
    pub fn usize(&mut self, key: &str, value: usize) {
        write_u64(self.key(key), value as u64);
    }

    /// A nullable `usize` member.
    pub fn opt_usize(&mut self, key: &str, value: Option<usize>) {
        write_opt(self.key(key), value, |value, out| {
            write_u64(out, value as u64);
        });
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) {
        write_str(self.key(key), value);
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, value: bool) {
        self.key(key).push_str(if value { "true" } else { "false" });
    }
}

// ------------------------------------------------------------------ tape --

/// Maximum container-nesting depth the parser accepts. The recursive-descent
/// parser recurses once per nesting level, so without a bound a hostile wire
/// request of repeated `[`s would overflow the stack and abort the serving
/// process; every legitimate document in this workspace nests a handful of
/// levels.
const MAX_JSON_DEPTH: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    Null,
    Bool,
    /// A literal of ASCII digits only that fits a `u64`.
    Integer,
    /// Any other number literal; its value may be non-finite.
    Float,
    String,
    Array,
    Object,
}

/// One value of a [`JsonTape`].
#[derive(Debug, Clone, Copy)]
struct Node {
    kind: NodeKind,
    /// Strings: the content holds escapes and lives in the side buffer.
    escaped: bool,
    /// Byte range of the value's text in the input (quotes and brackets
    /// included).
    start: u32,
    end: u32,
    /// Index of the first node after this value's subtree.
    next: u32,
    /// `Bool`: 0/1. `Integer`: the value. `Float`: the `f64` bits. Escaped
    /// `String`: the side-buffer range, `start << 32 | end`. `Array`: the
    /// element count; `Object`: the member count.
    payload: u64,
}

/// A parsed JSON document: a flat tape of nodes borrowing the input text.
/// Navigate it through [`JsonTape::root`].
#[derive(Debug, Clone)]
pub struct JsonTape<'a> {
    input: &'a str,
    nodes: Vec<Node>,
    /// Decoded contents of the strings that hold escapes.
    unescaped: String,
}

impl<'a> JsonTape<'a> {
    /// Parses a JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on any syntax error (including an
    /// invalid number literal anywhere in the document), with the byte
    /// offset in the reason where one applies.
    pub fn parse(input: &'a str) -> Result<JsonTape<'a>> {
        if u32::try_from(input.len()).is_err() {
            return Err(err(format!(
                "JSON document of {} bytes exceeds the 4 GiB limit",
                input.len()
            )));
        }
        let mut parser = Parser {
            input,
            bytes: input.as_bytes(),
            position: 0,
            depth: 0,
            nodes: Vec::with_capacity(input.len() / 8 + 4),
            unescaped: String::new(),
        };
        parser.skip_whitespace();
        parser.parse_value()?;
        parser.skip_whitespace();
        if parser.position != parser.bytes.len() {
            return Err(err(format!(
                "trailing characters after JSON document at byte {}",
                parser.position
            )));
        }
        Ok(JsonTape {
            input,
            nodes: parser.nodes,
            unescaped: parser.unescaped,
        })
    }

    /// The decoded content of a string node.
    fn string_content(&self, node: &Node) -> &str {
        if node.escaped {
            let start = (node.payload >> 32) as usize;
            let end = (node.payload & u64::from(u32::MAX)) as usize;
            &self.unescaped[start..end]
        } else {
            &self.input[node.start as usize + 1..node.end as usize - 1]
        }
    }

    /// Whether a string node decodes to `text`: for the usual unescaped
    /// key, a length check and one byte comparison against the input.
    fn string_is(&self, node: &Node, text: &str) -> bool {
        if node.escaped {
            return self.string_content(node) == text;
        }
        let (start, end) = (node.start as usize + 1, node.end as usize - 1);
        end - start == text.len() && &self.input.as_bytes()[start..end] == text.as_bytes()
    }

    /// The document's top-level value.
    #[must_use]
    pub fn root(&self) -> JsonCursor<'_> {
        JsonCursor {
            tape: self,
            index: 0,
        }
    }
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    position: usize,
    depth: usize,
    nodes: Vec<Node>,
    unescaped: String,
}

impl Parser<'_> {
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_JSON_DEPTH {
            return Err(err(format!(
                "JSON nesting exceeds the supported depth of {MAX_JSON_DEPTH}"
            )));
        }
        Ok(())
    }

    fn skip_whitespace(&mut self) {
        while let Some(&byte) = self.bytes.get(self.position) {
            if matches!(byte, b' ' | b'\t' | b'\n' | b'\r') {
                self.position += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.position).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.position += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected {:?} at byte {}",
                byte as char, self.position
            )))
        }
    }

    fn consume_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.position..].starts_with(literal.as_bytes()) {
            self.position += literal.len();
            true
        } else {
            false
        }
    }

    /// Appends a node spanning `start..position` (offsets fit a `u32`: the
    /// input length was checked) whose subtree is just itself.
    fn push(&mut self, kind: NodeKind, start: usize, payload: u64) {
        let next = self.nodes.len() as u32 + 1;
        self.nodes.push(Node {
            kind,
            escaped: false,
            start: start as u32,
            end: self.position as u32,
            next,
            payload,
        });
    }

    /// Closes the container opened at node `index`: its text ends here and
    /// its subtree is every node pushed since.
    fn close(&mut self, index: usize, members: u64) {
        self.depth -= 1;
        let next = self.nodes.len() as u32;
        let node = &mut self.nodes[index];
        node.end = self.position as u32;
        node.next = next;
        node.payload = members;
    }

    fn parse_value(&mut self) -> Result<()> {
        self.skip_whitespace();
        let start = self.position;
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => self.parse_string(),
            Some(b't') if self.consume_literal("true") => {
                self.push(NodeKind::Bool, start, 1);
                Ok(())
            }
            Some(b'f') if self.consume_literal("false") => {
                self.push(NodeKind::Bool, start, 0);
                Ok(())
            }
            Some(b'n') if self.consume_literal("null") => {
                self.push(NodeKind::Null, start, 0);
                Ok(())
            }
            Some(byte) if byte == b'-' || byte.is_ascii_digit() => self.parse_number(),
            _ => Err(err(format!(
                "unexpected character at byte {}",
                self.position
            ))),
        }
    }

    fn parse_object(&mut self) -> Result<()> {
        self.descend()?;
        let index = self.nodes.len();
        self.push(NodeKind::Object, self.position, 0);
        self.expect(b'{')?;
        let mut members = 0;
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.position += 1;
            self.close(index, members);
            return Ok(());
        }
        loop {
            self.skip_whitespace();
            self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.parse_value()?;
            members += 1;
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.position += 1,
                Some(b'}') => {
                    self.position += 1;
                    self.close(index, members);
                    return Ok(());
                }
                _ => {
                    return Err(err(format!(
                        "expected ',' or '}}' at byte {}",
                        self.position
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<()> {
        self.descend()?;
        let index = self.nodes.len();
        self.push(NodeKind::Array, self.position, 0);
        self.expect(b'[')?;
        let mut elements = 0;
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.position += 1;
            self.close(index, elements);
            return Ok(());
        }
        loop {
            self.parse_value()?;
            elements += 1;
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.position += 1,
                Some(b']') => {
                    self.position += 1;
                    self.close(index, elements);
                    return Ok(());
                }
                _ => {
                    return Err(err(format!(
                        "expected ',' or ']' at byte {}",
                        self.position
                    )))
                }
            }
        }
    }

    /// Advances over the longest plain (unescaped, non-quote, non-control)
    /// run. Runs end at ASCII bytes, so they are whole UTF-8 sequences.
    fn skip_plain_run(&mut self) {
        self.position += self.bytes[self.position..]
            .iter()
            .position(|&byte| byte == b'"' || byte == b'\\' || byte < 0x20)
            .unwrap_or(self.bytes.len() - self.position);
    }

    fn parse_string(&mut self) -> Result<()> {
        let start = self.position;
        self.expect(b'"')?;
        self.skip_plain_run();
        match self.peek() {
            Some(b'"') => {
                self.position += 1;
                self.push(NodeKind::String, start, 0);
                Ok(())
            }
            Some(b'\\') => self.parse_escaped_string(start),
            _ => Err(err("unterminated string")),
        }
    }

    /// The slow path of [`Parser::parse_string`]: the string holds escapes,
    /// so its decoded content is appended to the side buffer.
    fn parse_escaped_string(&mut self, start: usize) -> Result<()> {
        let buffer_start = self.unescaped.len();
        self.unescaped
            .push_str(&self.input[start + 1..self.position]);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.position += 1;
                    let range = ((buffer_start as u64) << 32) | self.unescaped.len() as u64;
                    self.push(NodeKind::String, start, range);
                    if let Some(node) = self.nodes.last_mut() {
                        node.escaped = true;
                    }
                    return Ok(());
                }
                Some(b'\\') => {
                    self.position += 1;
                    let ch = self.parse_escape()?;
                    self.unescaped.push(ch);
                }
                _ => return Err(err("unterminated string")),
            }
            let run = self.position;
            self.skip_plain_run();
            self.unescaped.push_str(&self.input[run..self.position]);
        }
    }

    /// Decodes one escape sequence (the backslash is already consumed).
    fn parse_escape(&mut self) -> Result<char> {
        let escape = self
            .peek()
            .ok_or_else(|| err("unterminated escape sequence"))?;
        self.position += 1;
        match escape {
            b'"' => Ok('"'),
            b'\\' => Ok('\\'),
            b'/' => Ok('/'),
            b'b' => Ok('\u{0008}'),
            b'f' => Ok('\u{000c}'),
            b'n' => Ok('\n'),
            b'r' => Ok('\r'),
            b't' => Ok('\t'),
            b'u' => {
                let unit = self.parse_hex_unit()?;
                let code = match unit {
                    // High surrogate: JSON escapes non-BMP characters as a
                    // \uD8xx\uDCxx pair; combine the two units into one
                    // scalar value.
                    0xD800..=0xDBFF => {
                        if self.peek() != Some(b'\\') {
                            return Err(err("unpaired high surrogate escape"));
                        }
                        self.position += 1;
                        if self.peek() != Some(b'u') {
                            return Err(err("unpaired high surrogate escape"));
                        }
                        self.position += 1;
                        let low = self.parse_hex_unit()?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(err(
                                "high surrogate escape not followed by a low surrogate",
                            ));
                        }
                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                    }
                    0xDC00..=0xDFFF => {
                        return Err(err("unpaired low surrogate escape"));
                    }
                    code => code,
                };
                char::from_u32(code).ok_or_else(|| err("\\u escape is not a scalar value"))
            }
            other => Err(err(format!("unknown escape '\\{}'", other as char))),
        }
    }

    /// Reads the four hex digits of one `\u` escape code unit (the `\u` is
    /// already consumed) and advances past them.
    fn parse_hex_unit(&mut self) -> Result<u32> {
        let end = self.position + 4;
        let digits = self
            .bytes
            .get(self.position..end)
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .ok_or_else(|| err("truncated \\u escape"))?;
        let unit = u32::from_str_radix(digits, 16).map_err(|_| err("invalid \\u escape digits"))?;
        self.position = end;
        Ok(unit)
    }

    /// Scans a number literal and parses it once: an all-digit literal
    /// that fits a `u64` is accumulated exactly during the scan, anything
    /// else is parsed as an `f64`.
    fn parse_number(&mut self) -> Result<()> {
        let start = self.position;
        if self.peek() == Some(b'-') {
            self.position += 1;
        }
        let mut integer = Some(0u64);
        while let Some(byte) = self.peek() {
            if byte.is_ascii_digit() {
                integer = integer
                    .and_then(|value| value.checked_mul(10))
                    .and_then(|value| value.checked_add(u64::from(byte - b'0')));
            } else if matches!(byte, b'.' | b'e' | b'E' | b'+' | b'-') {
                integer = None;
            } else {
                break;
            }
            self.position += 1;
        }
        if let (Some(value), false) = (integer, self.bytes[start] == b'-') {
            self.push(NodeKind::Integer, start, value);
            return Ok(());
        }
        let literal = &self.input[start..self.position];
        match literal.parse::<f64>() {
            Ok(value) => {
                self.push(NodeKind::Float, start, value.to_bits());
                Ok(())
            }
            Err(_) => Err(err(format!("invalid number literal {literal:?}"))),
        }
    }
}

// ---------------------------------------------------------------- cursor --

/// A position on a [`JsonTape`]: one value of the document. Cheap to copy;
/// every accessor is a lookup on the tape.
#[derive(Debug, Clone, Copy)]
pub struct JsonCursor<'t> {
    tape: &'t JsonTape<'t>,
    index: usize,
}

impl<'t> JsonCursor<'t> {
    fn node(self) -> &'t Node {
        &self.tape.nodes[self.index]
    }

    fn at(self, index: usize) -> JsonCursor<'t> {
        JsonCursor {
            tape: self.tape,
            index,
        }
    }

    fn kind_name(self) -> &'static str {
        match self.node().kind {
            NodeKind::Null => "null",
            NodeKind::Bool => "a bool",
            NodeKind::Integer | NodeKind::Float => "a number",
            NodeKind::String => "a string",
            NodeKind::Array => "an array",
            NodeKind::Object => "an object",
        }
    }

    /// The value's text in the input document (quotes and brackets
    /// included).
    #[must_use]
    pub fn source(self) -> &'t str {
        let node = self.node();
        &self.tape.input[node.start as usize..node.end as usize]
    }

    /// Whether the value is `null`.
    #[must_use]
    pub fn is_null(self) -> bool {
        self.node().kind == NodeKind::Null
    }

    /// The value, or `None` when it is `null` — the reader of nullable
    /// fields.
    #[must_use]
    pub fn non_null(self) -> Option<JsonCursor<'t>> {
        (!self.is_null()).then_some(self)
    }

    /// The value as a finite `f64`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not a number (in
    /// particular the `null` the encoder emits for non-finite floats) or
    /// its literal overflows to a non-finite value.
    pub fn as_f64(self) -> Result<f64> {
        let node = self.node();
        match node.kind {
            // Correctly rounded, exactly as `str::parse::<f64>` would be.
            NodeKind::Integer => Ok(node.payload as f64),
            NodeKind::Float => Some(f64::from_bits(node.payload))
                .filter(|value| value.is_finite())
                .ok_or_else(|| {
                    err(format!(
                        "number literal {:?} is not a finite f64",
                        self.source()
                    ))
                }),
            _ => Err(err(format!("expected a number, got {}", self.kind_name()))),
        }
    }

    /// The value as a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not an unsigned
    /// integer literal that fits a `u64`.
    pub fn as_u64(self) -> Result<u64> {
        let node = self.node();
        match node.kind {
            NodeKind::Integer => Ok(node.payload),
            NodeKind::Float => Err(err(format!(
                "number literal {:?} is not a u64",
                self.source()
            ))),
            _ => Err(err(format!("expected a number, got {}", self.kind_name()))),
        }
    }

    /// The value as a `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not an unsigned
    /// integer literal that fits a `usize`.
    pub fn as_usize(self) -> Result<usize> {
        usize::try_from(self.as_u64()?).map_err(|_| err("integer does not fit a usize"))
    }

    /// The value as a string slice, escapes decoded.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not a string.
    pub fn as_str(self) -> Result<&'t str> {
        let node = self.node();
        if node.kind == NodeKind::String {
            Ok(self.tape.string_content(node))
        } else {
            Err(err(format!("expected a string, got {}", self.kind_name())))
        }
    }

    /// The elements of an array, in document order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not an array.
    pub fn as_array(self) -> Result<JsonItems<'t>> {
        let node = self.node();
        if node.kind != NodeKind::Array {
            return Err(err(format!("expected an array, got {}", self.kind_name())));
        }
        Ok(JsonItems {
            cursor: self.at(self.index + 1),
            remaining: node.payload as usize,
        })
    }

    /// The members of an object as `(key, value)` pairs, in document order
    /// (duplicates included).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not an object.
    pub fn members(self) -> Result<JsonMembers<'t>> {
        let node = self.node();
        if node.kind != NodeKind::Object {
            return Err(err(format!("expected an object, got {}", self.kind_name())));
        }
        Ok(JsonMembers {
            cursor: self.at(self.index + 1),
            remaining: node.payload as usize,
        })
    }

    /// Looks up a key of an object (the first, if the key repeats).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not an object or
    /// the key is absent.
    pub fn get(self, key: &str) -> Result<JsonCursor<'t>> {
        self.get_opt(key)?
            .ok_or_else(|| err(format!("missing object key {key:?}")))
    }

    /// Looks up a key of an object, `None` when absent — the accessor
    /// behind fields added after a format shipped, so documents written
    /// before the field existed still decode.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] when the value is not an object.
    pub fn get_opt(self, key: &str) -> Result<Option<JsonCursor<'t>>> {
        let node = self.node();
        if node.kind != NodeKind::Object {
            return Err(err(format!(
                "expected an object with key {key:?}, got {}",
                self.kind_name()
            )));
        }
        let nodes = &self.tape.nodes;
        let mut index = self.index + 1;
        for _ in 0..node.payload {
            if self.tape.string_is(&nodes[index], key) {
                return Ok(Some(self.at(index + 1)));
            }
            index = nodes[index + 1].next as usize;
        }
        Ok(None)
    }
}

/// The elements of a JSON array; see [`JsonCursor::as_array`].
#[derive(Debug, Clone)]
pub struct JsonItems<'t> {
    cursor: JsonCursor<'t>,
    remaining: usize,
}

impl<'t> Iterator for JsonItems<'t> {
    type Item = JsonCursor<'t>;

    fn next(&mut self) -> Option<JsonCursor<'t>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let item = self.cursor;
        self.cursor = item.at(item.node().next as usize);
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for JsonItems<'_> {}

/// The members of a JSON object; see [`JsonCursor::members`].
#[derive(Debug, Clone)]
pub struct JsonMembers<'t> {
    cursor: JsonCursor<'t>,
    remaining: usize,
}

impl<'t> Iterator for JsonMembers<'t> {
    type Item = (&'t str, JsonCursor<'t>);

    fn next(&mut self) -> Option<(&'t str, JsonCursor<'t>)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let key = self.cursor;
        let value = key.at(key.index + 1);
        self.cursor = value.at(value.node().next as usize);
        Some((key.tape.string_content(key.node()), value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

// ---------------------------------------------------------- type codecs --

fn volts_from(value: JsonCursor<'_>) -> Result<Volts> {
    Ok(Volts::new(value.as_f64()?))
}

fn code_kind_name(kind: CodeKind) -> &'static str {
    match kind {
        CodeKind::Tree => "tree",
        CodeKind::Gray => "gray",
        CodeKind::BalancedGray => "balanced_gray",
        CodeKind::Hot => "hot",
        CodeKind::ArrangedHot => "arranged_hot",
    }
}

fn code_kind_from(name: &str) -> Result<CodeKind> {
    CodeKind::ALL
        .into_iter()
        .find(|&kind| code_kind_name(kind) == name)
        .ok_or_else(|| err(format!("unknown code kind {name:?}")))
}

/// Appends a [`CodeSpec`] as `{"kind","radix","length"}`.
pub fn code_spec_to_json(code: CodeSpec, out: &mut String) {
    write_object(out, |fields| {
        fields.str("kind", code_kind_name(code.kind()));
        fields.u64("radix", u64::from(code.radix().radix()));
        fields.usize("length", code.code_length());
    });
}

/// Decodes a [`CodeSpec`], re-validating length against the family.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON, or propagates the
/// code layer's validation errors.
pub fn code_spec_from_json(value: JsonCursor<'_>) -> Result<CodeSpec> {
    let kind = code_kind_from(value.get("kind")?.as_str()?)?;
    let radix =
        u8::try_from(value.get("radix")?.as_u64()?).map_err(|_| err("radix does not fit a u8"))?;
    let radix = LogicLevel::new(radix)?;
    Ok(CodeSpec::new(
        kind,
        radix,
        value.get("length")?.as_usize()?,
    )?)
}

/// Appends a [`DisturbanceKind`] as a tagged object (`{"kind":"gaussian"}`,
/// `{"kind":"correlated","shared_fraction":0.5}`, ...).
pub fn disturbance_to_json(kind: DisturbanceKind, out: &mut String) {
    write_object(out, |fields| match kind {
        DisturbanceKind::Gaussian => fields.str("kind", "gaussian"),
        DisturbanceKind::Laplace => fields.str("kind", "laplace"),
        DisturbanceKind::Correlated { shared_fraction } => {
            fields.str("kind", "correlated");
            fields.f64("shared_fraction", shared_fraction);
        }
    });
}

/// Decodes a [`DisturbanceKind`].
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON or an unknown kind.
pub fn disturbance_from_json(value: JsonCursor<'_>) -> Result<DisturbanceKind> {
    match value.get("kind")?.as_str()? {
        "gaussian" => Ok(DisturbanceKind::Gaussian),
        "laplace" => Ok(DisturbanceKind::Laplace),
        "correlated" => Ok(DisturbanceKind::Correlated {
            shared_fraction: value.get("shared_fraction")?.as_f64()?,
        }),
        other => Err(err(format!("unknown disturbance kind {other:?}"))),
    }
}

/// Appends a [`MonteCarloConfig`] as an object carrying the fixed-mode
/// fields plus the adaptive knobs (`target_half_width` / `max_samples`
/// render as `null` when unset).
pub fn monte_carlo_to_json(config: MonteCarloConfig, out: &mut String) {
    write_object(out, |fields| {
        fields.usize("samples", config.samples);
        fields.u64("seed", config.seed);
        fields.opt_f64("target_half_width", config.target_half_width);
        fields.f64("confidence", config.confidence);
        fields.opt_usize("max_samples", config.max_samples);
    });
}

/// Decodes a [`MonteCarloConfig`]. The adaptive knobs are optional *keys*
/// as well as nullable values: documents written before adaptive stopping
/// existed (bare `{"samples":…,"seed":…}`) decode to the fixed behaviour.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON.
pub fn monte_carlo_from_json(value: JsonCursor<'_>) -> Result<MonteCarloConfig> {
    let mut config = MonteCarloConfig::fixed(
        value.get("samples")?.as_usize()?,
        value.get("seed")?.as_u64()?,
    );
    if let Some(target) = value
        .get_opt("target_half_width")?
        .and_then(JsonCursor::non_null)
    {
        config = config.with_target_half_width(target.as_f64()?);
    }
    if let Some(confidence) = value.get_opt("confidence")?.and_then(JsonCursor::non_null) {
        config = config.with_confidence(confidence.as_f64()?);
    }
    if let Some(max) = value.get_opt("max_samples")?.and_then(JsonCursor::non_null) {
        config = config.with_max_samples(max.as_usize()?);
    }
    Ok(config)
}

/// Appends a [`DefectKind`] as a tagged object (`{"kind":"none"}` or
/// `{"kind":"sampled","nanowire_breakage":…,"crosspoint_defect":…,"seed":…}`).
pub fn defect_to_json(kind: DefectKind, out: &mut String) {
    write_object(out, |fields| match kind {
        DefectKind::None => fields.str("kind", "none"),
        DefectKind::Sampled(config) => {
            fields.str("kind", "sampled");
            fields.f64("nanowire_breakage", config.nanowire_breakage());
            fields.f64("crosspoint_defect", config.crosspoint_defect());
            fields.u64("seed", config.seed());
        }
    });
}

/// Decodes a [`DefectKind`], re-validating the rates through
/// [`DefectConfig::new`].
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON or an unknown kind,
/// or propagates the defect layer's rate-validation errors.
pub fn defect_from_json(value: JsonCursor<'_>) -> Result<DefectKind> {
    match value.get("kind")?.as_str()? {
        "none" => Ok(DefectKind::None),
        "sampled" => Ok(DefectKind::Sampled(DefectConfig::new(
            value.get("nanowire_breakage")?.as_f64()?,
            value.get("crosspoint_defect")?.as_f64()?,
            value.get("seed")?.as_u64()?,
        )?)),
        other => Err(err(format!("unknown defect kind {other:?}"))),
    }
}

/// Appends a full [`SimConfig`] — every field, including the disturbance
/// kind, the defect selection and the Monte-Carlo sampling knobs, so two
/// configurations differing only in any of them never serialize (or
/// cache-key) identically.
pub fn config_to_json(config: &SimConfig, out: &mut String) {
    let layout = config.layout();
    let threshold = config.threshold_model();
    let budgets = config.code_budgets();
    let (supply_low, supply_high) = config.supply_range();
    write_object(out, |fields| {
        fields.value("code", |out| code_spec_to_json(config.code(), out));
        fields.usize("nanowires_per_half_cave", config.nanowires_per_half_cave());
        fields.u64("raw_bits", config.raw_bits());
        fields.object("layout", |layout_fields| {
            layout_fields.f64("litho_pitch_nm", layout.litho_pitch().value());
            layout_fields.f64("nanowire_pitch_nm", layout.nanowire_pitch().value());
            layout_fields.f64(
                "min_contact_width_factor",
                layout.min_contact_width_factor(),
            );
            layout_fields.f64(
                "contact_alignment_tolerance_nm",
                layout.contact_alignment_tolerance().value(),
            );
        });
        fields.object("threshold_model", |threshold_fields| {
            threshold_fields.f64("oxide_thickness_nm", threshold.oxide_thickness().value());
            threshold_fields.f64("flat_band_voltage_v", threshold.flat_band_voltage().value());
        });
        fields.f64("sigma_per_dose_v", config.sigma_per_dose().value());
        fields.value("supply_range_v", |out| {
            write_array(out, [supply_low.value(), supply_high.value()], write_f64);
        });
        fields.opt_f64(
            "window_override_v",
            config.window_override().map(Volts::value),
        );
        fields.object("code_budgets", |budget_fields| {
            budget_fields.object("balance", |balance| {
                balance.u64("max_nodes_per_limit", budgets.balance.max_nodes_per_limit);
                balance.usize("max_limit_slack", budgets.balance.max_limit_slack);
            });
            budget_fields.object("arranged_hot", |arranged| {
                arranged.u64("max_nodes", budgets.arranged_hot.max_nodes);
                arranged.object("fallback", |fallback| {
                    fallback.u64("max_nodes", budgets.arranged_hot.fallback.max_nodes);
                    fallback.u64(
                        "max_two_opt_sweeps",
                        u64::from(budgets.arranged_hot.fallback.max_two_opt_sweeps),
                    );
                });
            });
        });
        fields.value("disturbance", |out| {
            disturbance_to_json(config.disturbance(), out);
        });
        fields.value("defects", |out| defect_to_json(config.defects(), out));
        fields.value("monte_carlo", |out| {
            monte_carlo_to_json(config.monte_carlo(), out);
        });
    });
}

/// Decodes a [`SimConfig`], passing every field through the same validating
/// constructors a hand-built configuration uses.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON, or propagates the
/// validation errors of the reconstructed layers.
pub fn config_from_json(value: JsonCursor<'_>) -> Result<SimConfig> {
    let code = code_spec_from_json(value.get("code")?)?;
    let layout_value = value.get("layout")?;
    let layout = LayoutRules::new(
        Nanometers::new(layout_value.get("litho_pitch_nm")?.as_f64()?),
        Nanometers::new(layout_value.get("nanowire_pitch_nm")?.as_f64()?),
        layout_value.get("min_contact_width_factor")?.as_f64()?,
        Nanometers::new(
            layout_value
                .get("contact_alignment_tolerance_nm")?
                .as_f64()?,
        ),
    )?;
    let threshold_value = value.get("threshold_model")?;
    let threshold = ThresholdModel::new(
        Nanometers::new(threshold_value.get("oxide_thickness_nm")?.as_f64()?),
        volts_from(threshold_value.get("flat_band_voltage_v")?)?,
    )?;
    let mut supply = value.get("supply_range_v")?.as_array()?;
    let (Some(supply_low), Some(supply_high), None) = (supply.next(), supply.next(), supply.next())
    else {
        return Err(err("supply_range_v must have exactly two entries"));
    };
    let budgets_value = value.get("code_budgets")?;
    let balance_value = budgets_value.get("balance")?;
    let arranged_value = budgets_value.get("arranged_hot")?;
    let fallback_value = arranged_value.get("fallback")?;
    let budgets = CodeBudgets {
        balance: BalanceBudget {
            max_nodes_per_limit: balance_value.get("max_nodes_per_limit")?.as_u64()?,
            max_limit_slack: balance_value.get("max_limit_slack")?.as_usize()?,
        },
        arranged_hot: ArrangedHotBudget {
            max_nodes: arranged_value.get("max_nodes")?.as_u64()?,
            fallback: SearchBudget {
                max_nodes: fallback_value.get("max_nodes")?.as_u64()?,
                max_two_opt_sweeps: u32::try_from(
                    fallback_value.get("max_two_opt_sweeps")?.as_u64()?,
                )
                .map_err(|_| err("max_two_opt_sweeps does not fit a u32"))?,
            },
        },
    };
    let mut config = SimConfig::new(
        code,
        value.get("nanowires_per_half_cave")?.as_usize()?,
        value.get("raw_bits")?.as_u64()?,
        layout,
        threshold,
        volts_from(value.get("sigma_per_dose_v")?)?,
        (volts_from(supply_low)?, volts_from(supply_high)?),
    )?
    .with_code_budgets(budgets)
    .with_disturbance(disturbance_from_json(value.get("disturbance")?)?);
    // Absent in documents written before the defect dimension existed; the
    // default (defect-free) is exactly the pre-field behaviour.
    if let Some(defects) = value.get_opt("defects")? {
        config = config.with_defects(defect_from_json(defects)?);
    }
    // Absent in documents written before the sampling knobs moved into the
    // configuration; the default is the historical fixed-sample behaviour.
    if let Some(monte_carlo) = value.get_opt("monte_carlo")? {
        config = config.with_monte_carlo(monte_carlo_from_json(monte_carlo)?);
    }
    if let Some(window) = value.get("window_override_v")?.non_null() {
        config = config.with_window(volts_from(window)?);
    }
    Ok(config)
}

/// Appends a [`PlatformReport`].
pub fn report_to_json(report: &PlatformReport, out: &mut String) {
    write_object(out, |fields| {
        fields.value("code", |out| code_spec_to_json(report.code, out));
        fields.usize("nanowires_per_half_cave", report.nanowires_per_half_cave);
        fields.usize("fabrication_steps", report.fabrication_steps);
        fields.f64("mean_variability", report.mean_variability);
        fields.f64("max_normalized_sigma", report.max_normalized_sigma);
        fields.f64("cave_yield", report.cave_yield);
        fields.f64("crossbar_yield", report.crossbar_yield);
        fields.f64("effective_bits", report.effective_bits);
        fields.f64("raw_bit_area", report.raw_bit_area);
        fields.f64("effective_bit_area", report.effective_bit_area);
        fields.usize("contact_groups", report.contact_groups);
        fields.value("defects", |out| defect_to_json(report.defects, out));
        fields.f64("defect_survival", report.defect_survival);
        fields.f64("composite_yield", report.composite_yield);
        fields.f64("composite_effective_bits", report.composite_effective_bits);
    });
}

/// Decodes a [`PlatformReport`] bit-identically (floats round-trip exactly).
///
/// Reports written before the defect dimension existed decode with the
/// defect-free defaults — [`DefectKind::None`], survival `1`, composite
/// quantities equal to the decoder quantities — which is exactly what a
/// fresh evaluation of their (necessarily defect-free) configuration
/// produces.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON.
pub fn report_from_json(value: JsonCursor<'_>) -> Result<PlatformReport> {
    let crossbar_yield = value.get("crossbar_yield")?.as_f64()?;
    let effective_bits = value.get("effective_bits")?.as_f64()?;
    let defects = match value.get_opt("defects")? {
        Some(kind) => defect_from_json(kind)?,
        None => DefectKind::None,
    };
    let defect_survival = match value.get_opt("defect_survival")? {
        Some(survival) => survival.as_f64()?,
        None => 1.0,
    };
    let composite_yield = match value.get_opt("composite_yield")? {
        Some(composite) => composite.as_f64()?,
        None => crossbar_yield,
    };
    let composite_effective_bits = match value.get_opt("composite_effective_bits")? {
        Some(bits) => bits.as_f64()?,
        None => effective_bits,
    };
    Ok(PlatformReport {
        code: code_spec_from_json(value.get("code")?)?,
        nanowires_per_half_cave: value.get("nanowires_per_half_cave")?.as_usize()?,
        fabrication_steps: value.get("fabrication_steps")?.as_usize()?,
        mean_variability: value.get("mean_variability")?.as_f64()?,
        max_normalized_sigma: value.get("max_normalized_sigma")?.as_f64()?,
        cave_yield: value.get("cave_yield")?.as_f64()?,
        crossbar_yield,
        effective_bits,
        raw_bit_area: value.get("raw_bit_area")?.as_f64()?,
        effective_bit_area: value.get("effective_bit_area")?.as_f64()?,
        contact_groups: value.get("contact_groups")?.as_usize()?,
        defects,
        defect_survival,
        composite_yield,
        composite_effective_bits,
    })
}

/// The class of a wire-level failure, shared by every transport front end
/// (in-process JSON and framed TCP alike) so clients can react to the
/// *category* — retry an `overloaded`, fix a `bad_request`, report an
/// `internal` — without parsing free-form reason strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireErrorKind {
    /// The request never reached evaluation: malformed JSON, a mismatched
    /// schema version, or a configuration that failed validation.
    BadRequest,
    /// The server shed the request because its bounded accept/dispatch
    /// queue was full. The request was *not* evaluated; retrying later is
    /// safe and expected.
    Overloaded,
    /// The request was well-formed but evaluation failed on the server.
    Internal,
}

impl WireErrorKind {
    /// Every kind, in wire-tag order.
    pub const ALL: [WireErrorKind; 3] = [
        WireErrorKind::BadRequest,
        WireErrorKind::Overloaded,
        WireErrorKind::Internal,
    ];

    /// The stable wire tag (`"bad_request"` / `"overloaded"` /
    /// `"internal"`).
    #[must_use]
    pub fn as_wire_str(self) -> &'static str {
        match self {
            WireErrorKind::BadRequest => "bad_request",
            WireErrorKind::Overloaded => "overloaded",
            WireErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire tag back into a kind.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Persistence`] on an unknown tag.
    pub fn from_wire_str(tag: &str) -> Result<WireErrorKind> {
        WireErrorKind::ALL
            .into_iter()
            .find(|kind| kind.as_wire_str() == tag)
            .ok_or_else(|| err(format!("unknown wire error kind {tag:?}")))
    }
}

/// Appends a [`WireErrorKind`] as its JSON wire tag.
pub fn wire_error_kind_to_json(kind: WireErrorKind, out: &mut String) {
    write_str(out, kind.as_wire_str());
}

/// Decodes a [`WireErrorKind`] from its JSON wire tag.
///
/// # Errors
///
/// Returns [`SimError::Persistence`] on malformed JSON or an unknown tag.
pub fn wire_error_kind_from_json(value: JsonCursor<'_>) -> Result<WireErrorKind> {
    WireErrorKind::from_wire_str(value.as_str()?)
}

/// The canonical serialized form of a configuration: the deterministic
/// rendering of [`config_to_json`]. Equal configurations produce identical
/// strings; configurations differing in **any** field — including the
/// disturbance kind and the defect selection — produce different strings.
/// [`ReportCache::fingerprint`](crate::ReportCache::fingerprint) hashes this
/// string, so a configuration's fingerprint is the same whichever codec
/// carried it.
#[must_use]
pub fn canonical_config_string(config: &SimConfig) -> String {
    render(|out| config_to_json(config, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::SimulationPlatform;

    fn base_config() -> SimConfig {
        let code = CodeSpec::new(CodeKind::BalancedGray, LogicLevel::BINARY, 10).unwrap();
        SimConfig::paper_defaults(code).unwrap()
    }

    fn config_via_text(config: &SimConfig) -> Result<SimConfig> {
        config_from_json(JsonTape::parse(&canonical_config_string(config))?.root())
    }

    #[test]
    fn tape_navigates_and_reports_sources() {
        let text = r#"{"a":[1,2.5,-3e2,{"x":[]}],"b":"q\"\\\né","c":null,"d":true,"e":false}"#;
        let tape = JsonTape::parse(text).unwrap();
        let root = tape.root();
        let items: Vec<&str> = root
            .get("a")
            .unwrap()
            .as_array()
            .unwrap()
            .map(JsonCursor::source)
            .collect();
        assert_eq!(items, ["1", "2.5", "-3e2", r#"{"x":[]}"#]);
        assert_eq!(root.get("a").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(root.get("b").unwrap().as_str().unwrap(), "q\"\\\né");
        assert!(root.get("c").unwrap().is_null());
        assert!(root.get("c").unwrap().non_null().is_none());
        assert_eq!(root.get("d").unwrap().source(), "true");
        let keys: Vec<&str> = root.members().unwrap().map(|(key, _)| key).collect();
        assert_eq!(keys, ["a", "b", "c", "d", "e"]);
        assert_eq!(root.source(), text);
        assert_eq!(
            root.get("a")
                .unwrap()
                .as_array()
                .unwrap()
                .nth(2)
                .unwrap()
                .as_f64()
                .unwrap(),
            -300.0
        );
    }

    #[test]
    fn writer_output_is_reparsed_identically() {
        let text = render(|out| {
            write_object(out, |fields| {
                fields.str("s", "q\"\\\né\u{1}\u{1F600}");
                fields.bool("t", true);
                fields.opt_usize("n", None);
                fields.u64("max", u64::MAX);
                fields.value("list", |out| write_array(out, [1.5, -0.0], write_f64));
            });
        });
        assert_eq!(
            text,
            "{\"s\":\"q\\\"\\\\\\né\\u0001\u{1F600}\",\"t\":true,\"n\":null,\"max\":18446744073709551615,\"list\":[1.5,-0]}"
        );
        let tape = JsonTape::parse(&text).unwrap();
        let root = tape.root();
        assert_eq!(
            root.get("s").unwrap().as_str().unwrap(),
            "q\"\\\né\u{1}\u{1F600}"
        );
        assert_eq!(root.get("max").unwrap().as_u64().unwrap(), u64::MAX);
        assert!(root.get("n").unwrap().is_null());
    }

    #[test]
    fn wire_error_kinds_round_trip_and_reject_unknown_tags() {
        for kind in WireErrorKind::ALL {
            let encoded = render(|out| wire_error_kind_to_json(kind, out));
            let tape = JsonTape::parse(&encoded).unwrap();
            assert_eq!(wire_error_kind_from_json(tape.root()).unwrap(), kind);
        }
        assert_eq!(
            WireErrorKind::from_wire_str("overloaded").unwrap(),
            WireErrorKind::Overloaded
        );
        assert!(WireErrorKind::from_wire_str("toasted").is_err());
        assert!(wire_error_kind_from_json(JsonTape::parse("null").unwrap().root()).is_err());
    }

    #[test]
    fn json_parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{\"a\":1} trailing",
            "1e",
            "[1.2.3]",
        ] {
            assert!(JsonTape::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn surrogate_pair_escapes_decode_and_lone_surrogates_fail() {
        // Standards-compliant encoders escape non-BMP characters as a
        // surrogate pair; U+1F600 (😀) is the pair D83D + DE00.
        let tape = JsonTape::parse(r#""\ud83d\ude00!""#).unwrap();
        assert_eq!(tape.root().as_str().unwrap(), "\u{1F600}!");
        // Unescaped non-BMP UTF-8 passes through too.
        let tape = JsonTape::parse("\"\u{1F600}\"").unwrap();
        assert_eq!(tape.root().as_str().unwrap(), "\u{1F600}");
        // Lone or malformed halves are rejected, not mangled.
        for bad in [
            r#""\ud83d""#,
            r#""\ud83d\n""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
        ] {
            assert!(JsonTape::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn hostile_nesting_depth_is_rejected_not_a_stack_overflow() {
        // A remote client can send arbitrarily nested JSON; the parser must
        // reject it with an error instead of recursing off the stack.
        let bomb = "[".repeat(1_000_000);
        let error = JsonTape::parse(&bomb).unwrap_err();
        assert!(error.to_string().contains("depth"));
        let object_bomb = "{\"k\":".repeat(500_000);
        assert!(JsonTape::parse(&object_bomb).is_err());
        // Reasonable nesting still parses.
        let fine = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(JsonTape::parse(&fine).is_ok());
    }

    #[test]
    fn floats_round_trip_bit_identically() {
        for value in [
            0.0,
            -0.0,
            1.0 / 3.0,
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            1e300,
            32.0,
            2f64.powi(70),
        ] {
            let encoded = render(|out| write_f64(out, value));
            let decoded = JsonTape::parse(&encoded).unwrap().root().as_f64().unwrap();
            assert_eq!(decoded.to_bits(), value.to_bits(), "value {value}");
        }
        // Non-finite floats encode to null and fail loudly on decode.
        assert_eq!(render(|out| write_f64(out, f64::NAN)), "null");
        let infinite = render(|out| write_f64(out, f64::INFINITY));
        assert!(JsonTape::parse(&infinite).unwrap().root().as_f64().is_err());
    }

    #[test]
    fn number_text_is_exactly_the_display_text() {
        // The writer's integer shortcuts must be byte-identical to the
        // `Display` formatting the fixtures and fingerprints were made with.
        for value in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            32.0,
            1e15,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            -9_007_199_254_740_994.0,
            2f64.powi(70),
            0.05,
            -1e-7,
            123_456.5,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
        ] {
            assert_eq!(render(|out| write_f64(out, value)), format!("{value}"));
        }
        for value in [0, 7, 10, 1_592_642_302, u64::MAX] {
            assert_eq!(render(|out| write_u64(out, value)), value.to_string());
        }
    }

    #[test]
    fn integer_literals_read_as_floats_match_the_float_parser() {
        // All-digit literals keep their exact integer; read as a float they
        // must round exactly as `str::parse::<f64>` does, large ones
        // included.
        for literal in [
            "0",
            "7",
            "9007199254740993",
            "18446744073709551615",
            "123456789012345678901",
        ] {
            let tape = JsonTape::parse(literal).unwrap();
            assert_eq!(
                tape.root().as_f64().unwrap().to_bits(),
                literal.parse::<f64>().unwrap().to_bits(),
                "{literal}"
            );
        }
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = base_config();
        assert_eq!(config_via_text(&config).unwrap(), config);

        // Every override survives, including a window override, a
        // non-default disturbance, a defect selection and adaptive
        // Monte-Carlo sampling knobs.
        let tuned = base_config()
            .with_window(Volts::new(0.21))
            .with_disturbance(DisturbanceKind::Correlated {
                shared_fraction: 0.25,
            })
            .with_defects(DefectKind::sampled(0.02, 0.01, 77).unwrap())
            .with_monte_carlo(
                MonteCarloConfig::fixed(4_096, 17)
                    .with_target_half_width(0.05)
                    .with_confidence(0.99)
                    .with_max_samples(65_536),
            );
        assert_eq!(config_via_text(&tuned).unwrap(), tuned);
    }

    #[test]
    fn monte_carlo_documents_without_adaptive_keys_decode_to_fixed_mode() {
        // The wire shape of a fixed-sample request written before adaptive
        // stopping existed: bare samples + seed, no adaptive keys at all.
        let legacy = JsonTape::parse(r#"{"samples":500,"seed":42}"#).unwrap();
        let decoded = monte_carlo_from_json(legacy.root()).unwrap();
        assert_eq!(decoded, MonteCarloConfig::fixed(500, 42));
        assert!(!decoded.is_adaptive());
        // Explicit nulls mean the same thing as absent keys.
        let nulled = JsonTape::parse(
            r#"{"samples":500,"seed":42,"target_half_width":null,"confidence":0.95,"max_samples":null}"#,
        )
        .unwrap();
        assert_eq!(monte_carlo_from_json(nulled.root()).unwrap(), decoded);
    }

    #[test]
    fn canonical_strings_separate_monte_carlo_knobs() {
        let fixed = base_config();
        let adaptive = base_config()
            .with_monte_carlo(MonteCarloConfig::default().with_target_half_width(0.05));
        assert_ne!(
            canonical_config_string(&fixed),
            canonical_config_string(&adaptive)
        );
    }

    #[test]
    fn report_round_trips_bit_identically() {
        let report = SimulationPlatform::new(base_config()).evaluate().unwrap();
        let text = render(|out| report_to_json(&report, out));
        let decoded = report_from_json(JsonTape::parse(&text).unwrap().root()).unwrap();
        assert_eq!(decoded, report);
        assert_eq!(
            decoded.crossbar_yield.to_bits(),
            report.crossbar_yield.to_bits()
        );
    }

    #[test]
    fn defect_kinds_round_trip_and_reject_bad_rates() {
        for kind in [
            DefectKind::None,
            DefectKind::sampled(0.0, 0.0, 0).unwrap(),
            DefectKind::sampled(0.05, 0.02, u64::MAX).unwrap(),
        ] {
            let text = render(|out| defect_to_json(kind, out));
            let tape = JsonTape::parse(&text).unwrap();
            assert_eq!(defect_from_json(tape.root()).unwrap(), kind);
        }
        // Out-of-range rates in a hostile document are rejected by the same
        // validating constructor a hand-built configuration uses.
        let hostile = JsonTape::parse(
            r#"{"kind":"sampled","nanowire_breakage":1.5,"crosspoint_defect":0.0,"seed":1}"#,
        )
        .unwrap();
        assert!(defect_from_json(hostile.root()).is_err());
        let unknown = JsonTape::parse(r#"{"kind":"clustered"}"#).unwrap();
        assert!(defect_from_json(unknown.root()).is_err());
    }

    #[test]
    fn canonical_strings_separate_defect_kinds() {
        let clean = base_config();
        let defective = base_config().with_defects(DefectKind::sampled(0.02, 0.01, 1).unwrap());
        assert_ne!(
            canonical_config_string(&clean),
            canonical_config_string(&defective)
        );
        // Same rates, different seed: still distinct identities.
        let reseeded = base_config().with_defects(DefectKind::sampled(0.02, 0.01, 2).unwrap());
        assert_ne!(
            canonical_config_string(&defective),
            canonical_config_string(&reseeded)
        );
    }

    #[test]
    fn canonical_strings_separate_disturbance_kinds() {
        let gaussian = base_config();
        let laplace = base_config().with_disturbance(DisturbanceKind::Laplace);
        assert_ne!(
            canonical_config_string(&gaussian),
            canonical_config_string(&laplace)
        );
        // And equal configurations render identically (determinism).
        assert_eq!(
            canonical_config_string(&gaussian),
            canonical_config_string(&base_config())
        );
    }

    #[test]
    fn unknown_enum_tags_are_rejected() {
        let text = canonical_config_string(&base_config()).replacen(
            r#"{"kind":"gaussian"}"#,
            r#"{"kind":"cauchy"}"#,
            1,
        );
        assert!(text.contains("cauchy"));
        assert!(config_from_json(JsonTape::parse(&text).unwrap().root()).is_err());
        assert!(code_kind_from("mystery").is_err());
    }
}
