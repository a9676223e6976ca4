//! Machine-readable (JSON) report output for CI integration.
//!
//! The writer is hand-rolled (the report types are tiny and flat), so
//! the crate keeps its zero-dependency core. Output shape:
//!
//! ```json
//! {
//!   "app": "ConnectBot",
//!   "summary": { "loc": 42, "ec": 3, "pc": 3, "threads": 1,
//!                "potential": 2, "after_sound": 2, "after_unsound": 2 },
//!   "warnings": [
//!     { "fingerprint": "…", "pair_type": "PC-PC", "field": "…",
//!       "use_site": "…", "free_site": "…",
//!       "use_lineage": "…", "free_lineage": "…" }
//!   ]
//! }
//! ```

use crate::report::RenderedWarning;
use crate::Analysis;
use nadroid_ir::Fnv64;
use std::fmt::Write as _;
use std::hash::Hasher as _;

/// Escape a string for a JSON string literal. Public because the serve
/// layer encodes its wire protocol with the same conventions as the
/// report writers in this module.
#[must_use]
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    esc_into(&mut out, s);
    out
}

/// [`esc`], appending to `out` instead of returning a new string, so a
/// writer escapes straight into the line it builds.
///
/// Each run of bytes that needs no escape is copied whole. Every byte
/// that does is ASCII, so no run ends inside a multi-byte character.
pub fn esc_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// A parsed JSON value. The workspace's documents (run reports,
/// provenance files, the `nadroid-serve/1` wire protocol) are all small
/// and tree-shaped, so a boxed enum with linear object lookup is
/// entirely adequate — and keeps the crate dependency-free.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (first match; `None` on non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer (truncating), if this
    /// is a non-negative number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            JsonValue::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The deepest nesting of arrays and objects [`parse_json`] accepts.
/// The parser recurses once per level, so untrusted input (a serve
/// request line) must not choose the depth. The deepest documents this
/// workspace and its benchmark write nest 9 levels (a provenance
/// sidecar's derivation trees); the limit leaves room far above that.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parse a JSON document. Strict on structure (balanced, single
/// top-level value, at most [`MAX_JSON_DEPTH`] levels of nesting) but
/// tolerant of surrounding whitespace.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first malformed
/// construct, or of the array or object that nests too deep.
pub fn parse_json(src: &str) -> Result<JsonValue, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(src, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse one value that sits inside `depth` arrays and objects.
fn parse_value(
    src: &str,
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_JSON_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} levels at byte {pos}"
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
        Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => parse_string(src, bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(src, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(src, bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(src, bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < bytes.len()
                && (bytes[*pos].is_ascii_digit()
                    || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                *pos += 1;
            }
            src[start..*pos]
                .parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("bad number at byte {start}"))
        }
        Some(c) => Err(format!("unexpected byte `{}` at {pos}", *c as char)),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

/// Parse one string literal. Each run of bytes up to the next quote or
/// backslash is copied whole; both are ASCII, so every run ends on a
/// char boundary of `src`.
fn parse_string(src: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .map_or(bytes.len(), |n| *pos + n);
        out.push_str(&src[*pos..run]);
        *pos = run;
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped at a backslash.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = src
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                        // Surrogates are not produced by this workspace's
                        // writers; map them to the replacement character.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
        }
    }
}

/// A stable identity for a warning across runs of the same model:
/// field plus both site descriptions (instruction ids are stable for an
/// unchanged program; the descriptions stay readable in baselines).
#[must_use]
pub fn fingerprint(w: &RenderedWarning) -> String {
    format!("{}|{}|{}|{}", w.pair_type, w.field, w.use_site, w.free_site)
}

/// Content hash of a program: `p:` plus 16 hex digits of FNV-1a 64 over
/// its printed form. Recorded in provenance documents so `explain` can
/// tell whether a `.provenance.json` sibling still describes the source
/// it sits next to — comparing content, not mtimes.
#[must_use]
pub fn program_hash(program: &nadroid_ir::Program) -> String {
    let h = Fnv64::hash(nadroid_ir::print_program(program).as_bytes());
    format!("p:{h:016x}")
}

/// Content hash of a warning population: `wp:` plus 16 hex digits of
/// FNV-1a 64 over the *sorted* warning ids, newline-joined — so the
/// digest is independent of report order, thread count, and rerun
/// interleavings (warning ids already are). The figure5 driver prints
/// one per app and the run ledger records them, which is what lets
/// `nadroid perf gate` catch a silently changed warning population
/// without storing every id forever.
#[must_use]
pub fn warning_population_digest<S: AsRef<str>>(ids: &[S]) -> String {
    let mut sorted: Vec<&str> = ids.iter().map(AsRef::as_ref).collect();
    sorted.sort_unstable();
    let mut h = Fnv64::default();
    for id in sorted {
        h.write(id.as_bytes());
        h.write_u8(b'\n');
    }
    format!("wp:{:016x}", h.finish())
}

/// Render the analysis as a JSON document.
#[must_use]
pub fn render_json(analysis: &Analysis<'_>) -> String {
    let s = analysis.summary();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"app\": \"{}\",", esc(analysis.program().name()));
    let _ = writeln!(
        out,
        "  \"summary\": {{ \"loc\": {}, \"ec\": {}, \"pc\": {}, \"threads\": {}, \
         \"potential\": {}, \"after_sound\": {}, \"after_unsound\": {}, \
         \"refuted\": {}, \"after_refutation\": {} }},",
        s.loc,
        s.ec,
        s.pc,
        s.threads,
        s.potential,
        s.after_sound,
        s.after_unsound,
        s.refuted,
        s.after_refutation
    );
    out.push_str("  \"warnings\": [");
    let warnings = analysis.rendered_survivors();
    for (i, w) in warnings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    { ");
        let _ = write!(out, "\"fingerprint\": \"{}\", ", esc(&fingerprint(w)));
        let _ = write!(out, "\"pair_type\": \"{}\", ", w.pair_type);
        let _ = write!(out, "\"field\": \"{}\", ", esc(&w.field));
        let _ = write!(out, "\"use_site\": \"{}\", ", esc(&w.use_site));
        let _ = write!(out, "\"free_site\": \"{}\", ", esc(&w.free_site));
        let _ = write!(out, "\"use_lineage\": \"{}\", ", esc(&w.use_lineage));
        let _ = write!(out, "\"free_lineage\": \"{}\"", esc(&w.free_lineage));
        out.push_str(" }");
    }
    if warnings.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

/// Render the full run-report JSON: the app summary and everything the
/// recorder captured (wall/busy seconds, counters — including the
/// per-filter `filter.<NAME>.examined`/`.killed` Figure 5 inputs —
/// gauges, and span aggregates, whose `modeling`, `hb`, `detection`,
/// `pointsto`, `escape`, `detect` and `filtering` totals are the §8.8
/// phase times).
#[must_use]
pub fn render_run_report(analysis: &Analysis<'_>, recorder: &nadroid_obs::Recorder) -> String {
    let s = analysis.summary();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"app\": \"{}\",", esc(analysis.program().name()));
    let _ = writeln!(
        out,
        "  \"summary\": {{ \"loc\": {}, \"ec\": {}, \"pc\": {}, \"threads\": {}, \
         \"potential\": {}, \"after_sound\": {}, \"after_unsound\": {}, \
         \"refuted\": {}, \"after_refutation\": {} }},",
        s.loc,
        s.ec,
        s.pc,
        s.threads,
        s.potential,
        s.after_sound,
        s.after_unsound,
        s.refuted,
        s.after_refutation
    );
    out.push_str(&recorder.report_fields("  "));
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisConfig};
    use nadroid_ir::parse_program;

    #[test]
    fn json_contains_summary_and_warnings() {
        let p = parse_program(
            r#"
            app J
            activity M {
                field f: M
                cb onCreate { f = new M }
                cb onClick { use f }
                cb onPause { f = null }
            }
            "#,
        )
        .unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let json = render_json(&a);
        assert!(json.contains("\"app\": \"J\""), "{json}");
        assert!(json.contains("\"after_unsound\": 1"), "{json}");
        assert!(json.contains("\"pair_type\": \"EC-EC\""), "{json}");
        assert!(json.contains("\"fingerprint\""), "{json}");
        // Shallow well-formedness: balanced braces/brackets, no raw newline
        // inside strings.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escaping_handles_special_characters() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn parser_handles_nesting_numbers_and_escapes() {
        let v = parse_json(
            r#"{ "a": [1, -2.5, 1e3], "s": "x\n\"y\"", "t": true, "n": null, "o": {} }"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(1000.0)
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("t").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("n"), Some(&JsonValue::Null));
        assert_eq!(v.get("o"), Some(&JsonValue::Obj(Vec::new())));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("nul").is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"k\":".repeat(n), "}".repeat(n));
        assert!(parse_json(&arrays(MAX_JSON_DEPTH)).is_ok());
        assert!(parse_json(&objects(MAX_JSON_DEPTH)).is_ok());
        assert_eq!(
            parse_json(&arrays(MAX_JSON_DEPTH + 1)).unwrap_err(),
            "nesting deeper than 128 levels at byte 128"
        );
        assert_eq!(
            parse_json(&objects(MAX_JSON_DEPTH + 1)).unwrap_err(),
            "nesting deeper than 128 levels at byte 640"
        );
        // Far past any thread's stack: an unbounded descent would abort.
        let err = parse_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }

    #[test]
    fn escaped_strings_round_trip_through_the_parser() {
        let original = "line1\nline2\t\"quoted\" \\ \u{1}";
        let doc = format!("{{ \"k\": \"{}\" }}", esc(original));
        let v = parse_json(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(original));
    }

    /// The string codec as first written, one `char` at a time: the
    /// references the run-copying [`esc`] and [`parse_string`] must
    /// match byte for byte, errors included.
    mod reference {
        use std::fmt::Write as _;

        pub fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }

        pub fn parse_string(src: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
            if bytes.get(*pos) != Some(&b'"') {
                return Err(format!("expected string at byte {pos}"));
            }
            *pos += 1;
            let mut out = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let hex = src
                                    .get(*pos + 1..*pos + 5)
                                    .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                                let cp = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                                out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        let c = src[*pos..].chars().next().expect("in-bounds char");
                        out.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
    }

    /// Every character class the codec treats apart: the quote, the
    /// backslash, every byte below 0x20, DEL, multi-byte UTF-8 of two,
    /// three and four bytes, and plain letters.
    fn char_pool() -> Vec<char> {
        let mut pool = vec!['"', '\\', '\u{7f}', 'é', '€', '𝄞', 'a', 'Z', ' ', '/'];
        pool.extend((0u8..0x20).map(char::from));
        pool
    }

    /// The char pool as strings, plus every escape the decoder reads and
    /// malformed ones: an unknown escape letter, short, non-hex and
    /// signed `\u` digits, a surrogate, and a `\u` cut by a multi-byte
    /// character.
    fn fragment_pool() -> Vec<String> {
        let escapes = [
            "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u0041", "\\u00e9",
            "\\u20ac", "\\ud834", "\\q", "\\u12", "\\u12g4", "\\u+041", "\\u€00",
        ];
        char_pool()
            .into_iter()
            .map(String::from)
            .chain(escapes.into_iter().map(String::from))
            .collect()
    }

    /// Decode `src` as one string literal from byte 0, returning the
    /// result and where the decoder stopped.
    fn decode_with(
        decode: fn(&str, &[u8], &mut usize) -> Result<String, String>,
        src: &str,
    ) -> (Result<String, String>, usize) {
        let mut pos = 0;
        let result = decode(src, src.as_bytes(), &mut pos);
        (result, pos)
    }

    proptest::proptest! {
        #[test]
        fn esc_matches_the_reference_and_round_trips(
            chars in proptest::collection::vec(proptest::sample::select(char_pool()), 0..48),
        ) {
            let s: String = chars.into_iter().collect();
            let escaped = esc(&s);
            proptest::prop_assert_eq!(&escaped, &reference::esc(&s));
            let quoted = format!("\"{escaped}\"");
            proptest::prop_assert_eq!(parse_json(&quoted), Ok(JsonValue::Str(s)));
        }

        #[test]
        fn string_decoding_matches_the_reference_errors_included(
            fragments in proptest::collection::vec(
                proptest::sample::select(fragment_pool()),
                0..24,
            ),
            close in proptest::sample::select(vec!["", "\"", "\\"]),
        ) {
            // Without a closing quote the literal is unterminated, or,
            // with a trailing backslash, ends on a cut escape.
            let src = format!("\"{}{close}", fragments.concat());
            proptest::prop_assert_eq!(
                decode_with(parse_string, &src),
                decode_with(reference::parse_string, &src),
                "{:?}",
                src
            );
        }
    }

    #[test]
    fn string_errors_keep_their_messages() {
        let err = |src: &str| decode_with(parse_string, src).0.unwrap_err();
        assert_eq!(err("\"abc"), "unterminated string");
        assert_eq!(err("\"ab\\"), "bad escape at byte 4");
        assert_eq!(err("\"é\\q\""), "bad escape at byte 4");
        assert_eq!(err("\"\\u12\""), "bad \\u escape at byte 2");
        assert_eq!(err("\"\\u12g4\""), "bad \\u escape at byte 2");
        assert_eq!(err("x"), "expected string at byte 0");
    }

    #[test]
    fn parser_reads_this_crates_own_reports() {
        let p = parse_program(
            r#"
            app P
            activity M {
                field f: M
                cb onClick { use f }
                cb onPause { f = null }
            }
            "#,
        )
        .unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let v = parse_json(&render_json(&a)).unwrap();
        assert_eq!(v.get("app").unwrap().as_str(), Some("P"));
        assert!(
            v.get("summary")
                .unwrap()
                .get("potential")
                .unwrap()
                .as_u64()
                .unwrap()
                >= 1
        );
        let prov = parse_json(&crate::render_provenance_json(&a)).unwrap();
        assert_eq!(
            prov.get("schema").unwrap().as_str(),
            Some("nadroid-provenance/4")
        );
        assert_eq!(
            prov.get("program_hash").unwrap().as_str(),
            Some(program_hash(&p).as_str())
        );
        assert!(!prov.get("warnings").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn population_digest_is_order_invariant_and_content_sensitive() {
        let a = warning_population_digest(&["w:0000000000000001", "w:0000000000000002"]);
        let b = warning_population_digest(&["w:0000000000000002", "w:0000000000000001"]);
        assert_eq!(a, b, "sorted before hashing");
        assert!(a.starts_with("wp:") && a.len() == 19, "{a}");
        let c = warning_population_digest(&["w:0000000000000001", "w:0000000000000003"]);
        assert_ne!(a, c, "a changed id changes the digest");
        // The separator keeps concatenation ambiguity out: {"ab"} != {"a","b"}.
        assert_ne!(
            warning_population_digest(&["ab"]),
            warning_population_digest(&["a", "b"])
        );
        let empty: [&str; 0] = [];
        assert_eq!(warning_population_digest(&empty).len(), 19);
    }

    #[test]
    fn run_report_embeds_summary_timings_and_metrics() {
        let p = parse_program(
            r#"
            app R
            activity M {
                field f: M
                cb onClick { use f }
                cb onPause { f = null }
            }
            "#,
        )
        .unwrap();
        let rec = nadroid_obs::Recorder::new();
        let a = {
            let _g = rec.install();
            analyze(&p, &AnalysisConfig::default())
        };
        let report = render_run_report(&a, &rec);
        assert!(report.contains("\"app\": \"R\""), "{report}");
        for phase in ["modeling", "hb", "detection", "filtering"] {
            assert!(
                report.contains(&format!("{{\"name\": \"{phase}\", \"count\": 1,")),
                "{report}"
            );
        }
        assert!(report.contains("\"filter.MHB.examined\""), "{report}");
        assert!(report.contains("\"detector.racy_pairs\""), "{report}");
        assert!(report.contains("\"wall_secs\""), "{report}");
        assert_eq!(report.matches('{').count(), report.matches('}').count());
        assert_eq!(report.matches('[').count(), report.matches(']').count());
    }

    #[test]
    fn fingerprints_are_stable_across_runs() {
        let src = r#"
            app S
            activity M {
                field f: M
                cb onClick { use f }
                cb onPause { f = null }
            }
        "#;
        let p1 = parse_program(src).unwrap();
        let p2 = parse_program(src).unwrap();
        let a1 = analyze(&p1, &AnalysisConfig::default());
        let a2 = analyze(&p2, &AnalysisConfig::default());
        let f1: Vec<String> = a1.rendered_survivors().iter().map(fingerprint).collect();
        let f2: Vec<String> = a2.rendered_survivors().iter().map(fingerprint).collect();
        assert_eq!(f1, f2);
    }
}
