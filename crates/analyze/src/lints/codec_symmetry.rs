//! `codec-symmetry`: every key a `*_to_json` encoder writes must be read by
//! its paired `*_from_json` decoder, and every `TAG_*` section a `*_to_bin`
//! encoder writes must be handled by its paired `*_from_bin` decoder — and
//! vice versa.
//!
//! Both wire codecs are hand-rolled (the workspace is dependency-free on
//! the wire path), so nothing structurally ties an encoder's key set to its
//! decoder's. A key written but never read is silent payload rot; a key read
//! but never written is a latent decode error on every round-trip. This lint
//! pairs `foo_to_json` with `foo_from_json` (and `foo_to_bin` with
//! `foo_from_bin`) **in the same file** and compares their key sets:
//!
//! * JSON encoder keys — string literals in `("key", …)` tuple position,
//!   i.e. a `Str` token preceded by `(` and followed by `,`, restricted to
//!   snake_case identifiers so error-message strings never match;
//! * JSON decoder keys — the sole string argument of `get("key")` /
//!   `get_opt("key")` calls;
//! * binary keys, both sides — `TAG_*` section-tag identifiers referenced
//!   in the body. Leaf codecs that write a fixed layout with no sections
//!   have empty sets on both sides and compare clean.
//!
//! An unpaired `*_to_json`/`*_from_json`/`*_to_bin`/`*_from_bin` is also a
//! finding: one-way wire types silently lose round-trip coverage.

use std::collections::BTreeSet;

use crate::diagnostics::Finding;
use crate::lexer::{Token, TokenKind};
use crate::lint::Lint;
use crate::lints::function_bodies;
use crate::source::{SourceFile, Workspace};

/// See the module docs.
pub struct CodecSymmetry;

fn is_snake_case_key(text: &str) -> bool {
    !text.is_empty()
        && text
            .chars()
            .next()
            .is_some_and(|ch| ch.is_ascii_lowercase() || ch == '_')
        && text
            .chars()
            .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_')
}

/// Keys the encoder writes: `("key", …)` tuple heads.
fn encoder_keys(tokens: &[Token], open: usize, close: usize) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for index in open..close {
        let token = &tokens[index];
        if token.kind == TokenKind::Str
            && is_snake_case_key(&token.text)
            && index > 0
            && tokens[index - 1].is_punct('(')
            && tokens.get(index + 1).is_some_and(|next| next.is_punct(','))
        {
            keys.insert(token.text.clone());
        }
    }
    keys
}

/// Keys the decoder reads: sole string argument of `get(…)`/`get_opt(…)`.
fn decoder_keys(tokens: &[Token], open: usize, close: usize) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for index in open..close {
        let token = &tokens[index];
        if !(token.is_ident("get") || token.is_ident("get_opt")) {
            continue;
        }
        if !tokens.get(index + 1).is_some_and(|next| next.is_punct('(')) {
            continue;
        }
        if let Some(argument) = tokens.get(index + 2) {
            if argument.kind == TokenKind::Str
                && tokens.get(index + 3).is_some_and(|next| next.is_punct(')'))
            {
                keys.insert(argument.text.clone());
            }
        }
    }
    keys
}

/// One encoder/decoder naming convention with its key extractors.
struct CodecPass {
    to_suffix: &'static str,
    from_suffix: &'static str,
    /// What a mismatched entry is called in the finding ("key", "section tag").
    unit: &'static str,
    encoder: fn(&[Token], usize, usize) -> BTreeSet<String>,
    decoder: fn(&[Token], usize, usize) -> BTreeSet<String>,
}

const PASSES: &[CodecPass] = &[
    CodecPass {
        to_suffix: "_to_json",
        from_suffix: "_from_json",
        unit: "key",
        encoder: encoder_keys,
        decoder: decoder_keys,
    },
    CodecPass {
        to_suffix: "_to_bin",
        from_suffix: "_from_bin",
        unit: "section tag",
        encoder: tag_idents,
        decoder: tag_idents,
    },
];

/// Section-tag identifiers (`TAG_*`, SCREAMING_SNAKE_CASE) referenced in a
/// binary codec body — both sides of a `*_to_bin`/`*_from_bin` pair use the
/// same named constants, so the referenced sets must match. Leaf codecs with
/// a fixed layout reference none and compare clean.
fn tag_idents(tokens: &[Token], open: usize, close: usize) -> BTreeSet<String> {
    let mut tags = BTreeSet::new();
    for token in &tokens[open..close] {
        if token.kind == TokenKind::Ident
            && token.text.len() > 4
            && token.text.starts_with("TAG_")
            && token
                .text
                .chars()
                .all(|ch| ch.is_ascii_uppercase() || ch.is_ascii_digit() || ch == '_')
        {
            tags.insert(token.text.clone());
        }
    }
    tags
}

fn check_file(lint_name: &'static str, file: &SourceFile, findings: &mut Vec<Finding>) {
    let path = file.path.to_string_lossy().into_owned();
    let tokens = &file.tokens;
    let bodies = function_bodies(tokens);
    for pass in PASSES {
        for (name, open, close, line, col) in &bodies {
            if file.is_test_token(*open) {
                continue;
            }
            let Some(base) = name.strip_suffix(pass.to_suffix) else {
                continue;
            };
            let partner = format!("{base}{}", pass.from_suffix);
            let Some((_, from_open, from_close, _, _)) =
                bodies.iter().find(|(other, ..)| *other == partner)
            else {
                findings.push(Finding::deny(
                    lint_name,
                    path.clone(),
                    *line,
                    *col,
                    format!(
                        "`{name}` has no `{partner}` in this file; one-way wire types \
                             lose round-trip coverage"
                    ),
                ));
                continue;
            };
            let written = (pass.encoder)(tokens, *open, *close);
            let read = (pass.decoder)(tokens, *from_open, *from_close);
            for key in written.difference(&read) {
                findings.push(Finding::deny(
                    lint_name,
                    path.clone(),
                    *line,
                    *col,
                    format!(
                        "`{name}` writes {} \"{key}\" that `{partner}` never reads",
                        pass.unit
                    ),
                ));
            }
            for key in read.difference(&written) {
                findings.push(Finding::deny(
                    lint_name,
                    path.clone(),
                    *line,
                    *col,
                    format!(
                        "`{partner}` reads {} \"{key}\" that `{name}` never writes",
                        pass.unit
                    ),
                ));
            }
        }
        for (name, open, _, line, col) in &bodies {
            if file.is_test_token(*open) {
                continue;
            }
            if let Some(base) = name.strip_suffix(pass.from_suffix) {
                let partner = format!("{base}{}", pass.to_suffix);
                if !bodies.iter().any(|(other, ..)| *other == partner) {
                    findings.push(Finding::deny(
                        lint_name,
                        path.clone(),
                        *line,
                        *col,
                        format!(
                            "`{name}` has no `{partner}` in this file; one-way wire \
                                 types lose round-trip coverage"
                        ),
                    ));
                }
            }
        }
    }
}

impl Lint for CodecSymmetry {
    fn name(&self) -> &'static str {
        "codec-symmetry"
    }

    fn description(&self) -> &'static str {
        "every *_to_json key and *_to_bin section tag must round-trip through its paired decoder"
    }

    fn check(&self, workspace: &Workspace, findings: &mut Vec<Finding>) {
        for file in &workspace.files {
            check_file(self.name(), file, findings);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(source: &str) -> Vec<Finding> {
        let workspace = Workspace {
            files: vec![SourceFile::from_source("x.rs", "sim", source)],
        };
        let mut findings = Vec::new();
        CodecSymmetry.check(&workspace, &mut findings);
        findings
    }

    #[test]
    fn symmetric_pairs_are_clean() {
        let source = r#"
            pub fn spec_to_json(s: &Spec, out: &mut String) {
                write_object(out, |fields| {
                    fields.u64("rows", s.rows);
                    fields.u64("cols", s.cols);
                });
            }
            pub fn spec_from_json(v: JsonCursor<'_>) -> Result<Spec, E> {
                Ok(Spec { rows: v.get("rows")?, cols: v.get("cols")? })
            }
        "#;
        assert!(check(source).is_empty(), "{:?}", check(source));
    }

    #[test]
    fn asymmetric_keys_fire_in_both_directions() {
        let source = r#"
            pub fn spec_to_json(s: &Spec, out: &mut String) {
                write_object(out, |fields| {
                    fields.u64("rows", s.rows);
                    fields.u64("cols", s.cols);
                });
            }
            pub fn spec_from_json(v: JsonCursor<'_>) -> Result<Spec, E> {
                Ok(Spec { rows: v.get("rows")?, depth: v.get_opt("depth")? })
            }
        "#;
        let findings = check(source);
        assert!(
            findings.iter().any(|f| f.message.contains("\"cols\"")),
            "{findings:?}"
        );
        assert!(
            findings.iter().any(|f| f.message.contains("\"depth\"")),
            "{findings:?}"
        );
    }

    #[test]
    fn error_message_strings_are_not_keys() {
        let source = r#"
            pub fn spec_to_json(s: &Spec, out: &mut String) {
                write_object(out, |fields| fields.u64("rows", s.rows));
            }
            pub fn spec_from_json(v: JsonCursor<'_>) -> Result<Spec, E> {
                let rows = v.get("rows").ok_or_else(|| err("missing rows field"))?;
                Ok(Spec { rows })
            }
        "#;
        assert!(check(source).is_empty(), "{:?}", check(source));
    }

    #[test]
    fn unpaired_codec_functions_fire() {
        let findings =
            check("pub fn spec_to_json(s: &Spec, out: &mut String) { write_object(out, |_| {}) }");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no `spec_from_json`"));
    }

    #[test]
    fn symmetric_binary_pairs_are_clean() {
        let source = r#"
            pub fn spec_to_bin(s: &Spec) -> Vec<u8> {
                let mut w = BinWriter::new();
                w.section(TAG_ROWS, &rows);
                w.section(TAG_COLS, &cols);
                w.into_bytes()
            }
            pub fn spec_from_bin(bytes: &[u8]) -> Result<Spec, E> {
                while let Some((tag, body)) = reader.next_section()? {
                    match tag {
                        TAG_ROWS => {}
                        TAG_COLS => {}
                        _ => {}
                    }
                }
                Ok(spec)
            }
        "#;
        assert!(check(source).is_empty(), "{:?}", check(source));
    }

    #[test]
    fn asymmetric_section_tags_fire_in_both_directions() {
        let source = r#"
            pub fn spec_to_bin(s: &Spec) -> Vec<u8> {
                let mut w = BinWriter::new();
                w.section(TAG_ROWS, &rows);
                w.section(TAG_COLS, &cols);
                w.into_bytes()
            }
            pub fn spec_from_bin(bytes: &[u8]) -> Result<Spec, E> {
                while let Some((tag, body)) = reader.next_section()? {
                    match tag {
                        TAG_ROWS => {}
                        TAG_DEPTH => {}
                        _ => {}
                    }
                }
                Ok(spec)
            }
        "#;
        let findings = check(source);
        assert!(
            findings.iter().any(|f| f.message.contains("\"TAG_COLS\"")),
            "{findings:?}"
        );
        assert!(
            findings.iter().any(|f| f.message.contains("\"TAG_DEPTH\"")),
            "{findings:?}"
        );
    }

    #[test]
    fn leaf_binary_pairs_with_fixed_layouts_are_clean() {
        // No TAG_* constants at all — a fixed-layout leaf codec.
        let source = r#"
            pub fn level_to_bin(level: Level) -> Vec<u8> {
                let mut w = BinWriter::new();
                w.put_u8(level.radix());
                w.into_bytes()
            }
            pub fn level_from_bin(bytes: &[u8]) -> Result<Level, E> {
                let mut r = BinReader::new(bytes);
                let level = Level::new(r.take_u8()?)?;
                r.finish()?;
                Ok(level)
            }
        "#;
        assert!(check(source).is_empty(), "{:?}", check(source));
    }

    #[test]
    fn unpaired_binary_codec_functions_fire() {
        let findings =
            check("pub fn spec_from_bin(bytes: &[u8]) -> Result<Spec, E> { decode(bytes) }");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no `spec_to_bin`"));
    }
}
