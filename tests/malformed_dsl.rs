//! Malformed DSL at corpus scale: seeded truncations, splices and byte
//! flips of the 27 printed Table 1 apps and the hand-written `apps/*.dsl`
//! models. The parser must never panic, must blame a line inside the
//! text, and whatever still parses must round-trip. What it answers on
//! each mutant, message and line included, is pinned by one digest.

use nadroid::corpus::{generate, spec_for, table1_rows};
use nadroid::ir::{parse_program, print_program, Fnv64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// FNV-1a digest of every mutant's outcome, in mutant order: the
/// error's `Display`, or the printed program. A change to the lexer or
/// the grammar must leave each message, each line and each precedence
/// between errors (a lexical error anywhere outranks a grammar error,
/// every syntax error outranks every name error) as it is.
const OUTCOME_DIGEST: u64 = 0xdaad_3b05_ea47_766a;

/// Mutations per kind per input text.
const MUTANTS_PER_KIND: usize = 6;

/// Tokens and Unicode fragments spliced into the text.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "{", "}", "(", ")", "=", "==", "!=", "!", "/", "//", "?", ":", ".", ",", "null", "cb", "if",
    "else", "sync", "t1", "t65536", "this", "outer.", "field", "activity", "$", "4294967296", "é",
    "ß1", "Ω.f", "٣", "\u{a0}", "\u{2028}", "\u{200b}", "\r\n", "\n", "€", "#",
];

fn texts() -> Vec<(String, String)> {
    let mut texts: Vec<(String, String)> = table1_rows()
        .iter()
        .map(|row| {
            let text = print_program(&generate(&spec_for(row)).program);
            (row.name.to_owned(), text)
        })
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/apps");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("apps/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable app");
        texts.push((path.display().to_string(), text));
    }
    texts
}

/// The largest char boundary at or below `pos`.
fn floor_boundary(s: &str, mut pos: usize) -> usize {
    while !s.is_char_boundary(pos) {
        pos -= 1;
    }
    pos
}

/// The three kinds of mutant of `text`, `MUTANTS_PER_KIND` of each.
fn mutants(text: &str, rng: &mut StdRng) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for _ in 0..MUTANTS_PER_KIND {
        let at = floor_boundary(text, rng.gen_range(0..=text.len()));
        out.push((format!("truncated at {at}"), text[..at].to_owned()));

        let at = floor_boundary(text, rng.gen_range(0..=text.len()));
        let frag = FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())];
        let spliced = format!("{} {frag} {}", &text[..at], &text[at..]);
        out.push((format!("{frag:?} spliced at {at}"), spliced));

        let mut bytes = text.as_bytes().to_vec();
        let at = rng.gen_range(0..bytes.len());
        if bytes[at].is_ascii() {
            bytes[at] = rng.gen_range(0..128u8);
        }
        let flipped = String::from_utf8(bytes).expect("an ASCII byte for an ASCII byte");
        out.push((format!("byte {at} flipped"), flipped));
    }
    out
}

#[test]
fn corpus_mutants_error_cleanly_or_round_trip() {
    let mut rng = StdRng::seed_from_u64(16);
    let (mut parsed, mut rejected) = (0, 0);
    for (name, text) in texts() {
        for (how, src) in mutants(&text, &mut rng) {
            let result = catch_unwind(AssertUnwindSafe(|| parse_program(&src)))
                .unwrap_or_else(|_| panic!("{name}, {how}: the parser panicked"));
            match result {
                Ok(p) => {
                    parsed += 1;
                    let again = parse_program(&print_program(&p))
                        .unwrap_or_else(|e| panic!("{name}, {how}: printed form fails: {e}"));
                    assert!(again == p, "{name}, {how}: parse(print(p)) != p");
                }
                Err(e) => {
                    rejected += 1;
                    let lines = src.lines().count() as u32;
                    assert!(
                        e.line() <= lines + 1,
                        "{name}, {how}: {e} past {lines} lines"
                    );
                }
            }
        }
    }
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}

#[test]
fn corpus_mutant_outcomes_match_their_pinned_digest() {
    let mut rng = StdRng::seed_from_u64(16);
    let mut outcomes = String::new();
    for (_, text) in texts() {
        for (how, src) in mutants(&text, &mut rng) {
            match parse_program(&src) {
                Ok(p) => {
                    let _ = writeln!(outcomes, "{how}: ok\n{}", print_program(&p));
                }
                Err(e) => {
                    let _ = writeln!(outcomes, "{how}: {e}");
                }
            }
        }
    }
    let digest = Fnv64::hash(outcomes.as_bytes());
    assert_eq!(
        digest, OUTCOME_DIGEST,
        "the parser's answers drifted: {digest:#018x}"
    );
}
