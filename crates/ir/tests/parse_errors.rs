//! Golden table of parse errors: every malformed input below, and the
//! exact `Display` of the error the parser returns for it.

use nadroid_ir::{parse_program, print_program};

/// `(input, error)` pairs. The inputs cover each error the lexer, the
/// parser and the lowering pass can raise, plus the lexical corners:
/// Unicode identifiers and whitespace, `\r\n` line endings and comments.
#[rustfmt::skip]
const CASES: &[(&str, &str)] = &[
    // Lexer.
    ("app A\n/", "parse error at line 2: unexpected `/` (use `//` for comments)"),
    ("app A\nactivity M { / }", "parse error at line 2: unexpected `/` (use `//` for comments)"),
    ("app A !", "parse error at line 1: unexpected `!`"),
    ("app A\nactivity M {\n  fn f(params=4294967296) { }\n}", "parse error at line 3: integer literal too large"),
    ("app A\nactivity M {\n  fn f(params=4294967295) { }\n}", "parse error at line 3: too many parameters"),
    ("app A #", "parse error at line 1: unexpected character '#'"),
    ("app A\n\n  €", "parse error at line 3: unexpected character '€'"),
    ("app A\n٣", "parse error at line 2: unexpected character '٣'"),
    ("app A\u{200b}B", "parse error at line 1: unexpected character '\\u{200b}'"),
    // Unicode identifiers and whitespace; only `\n` advances the line.
    ("app é\nactivity é { cb onClick { use ß1 } }", "parse error at line 2: unknown field `ß1`"),
    ("app A\nactivity M { cb onClick { é } }", "parse error at line 2: expected `=`, found `}`"),
    ("app A\nactivity M { cb onClick { Ω.f = null } }", "parse error at line 2: unknown class `Ω`"),
    ("app A\nactivity M { cb onClick { use x٣ } }", "parse error at line 2: unknown field `x٣`"),
    ("app\u{a0}A\nactivity\u{a0}M {\n  cb bogus { }\n}", "parse error at line 3: `bogus` is not a known callback for role `activity`"),
    ("app A\u{2028}activity M {\u{2028}  cb bogus { }\u{2028}}", "parse error at line 1: `bogus` is not a known callback for role `activity`"),
    ("app A\u{85}activity M {\u{3000}cb bogus { } }", "parse error at line 1: `bogus` is not a known callback for role `activity`"),
    ("app A\x0bactivity M {\x0c\r\tcb bogus { } }", "parse error at line 1: `bogus` is not a known callback for role `activity`"),
    // `\r\n` line endings and comments.
    ("app A\r\nactivity M {\r\n  cb onClick { use missing }\r\n}", "parse error at line 3: unknown field `missing`"),
    ("app A\r\n// é comment\r\nactivity M {\r\n  field f\r\n  field f\r\n}", "parse error at line 3: duplicate field `f`"),
    ("app A\nactivity M {\n// comment at EOF", "parse error at line 2: unexpected end of input"),
    ("app A // c\nactivity M { // c\n cb onClick { use missing } // c\n} // end", "parse error at line 3: unknown field `missing`"),
    // Truncated input.
    ("", "parse error at line 0: program must start with `app <Name>`"),
    ("   \n\n", "parse error at line 0: program must start with `app <Name>`"),
    ("app", "parse error at line 1: unexpected end of input"),
    ("app A\nactivity M { cb onClick { use", "parse error at line 2: unexpected end of input"),
    ("app A\nactivity M { cb onClick { t1 = } }", "parse error at line 2: expected identifier, found `}`"),
    ("app A\nactivity M {", "parse error at line 2: unexpected end of input"),
    ("app A\nactivity M { fn f(params", "parse error at line 2: unexpected end of input"),
    // Trailing input.
    ("app A trailing", "parse error at line 1: unknown declaration keyword `trailing`"),
    ("app A\nactivity M { }\n}", "parse error at line 3: expected class or manifest, found `}`"),
    ("app A\nactivity M { }\n42", "parse error at line 3: expected class or manifest, found `42`"),
    ("app A B", "parse error at line 1: unknown declaration keyword `B`"),
    // Grammar.
    ("activity M { }", "parse error at line 1: program must start with `app <Name>`"),
    ("app {", "parse error at line 1: expected identifier, found `{`"),
    ("app A\nactivity { }", "parse error at line 2: expected identifier, found `{`"),
    ("app A\nmanifest { launcher M }", "parse error at line 2: unknown manifest entry `launcher`"),
    ("app A\nactivity M { widget w }", "parse error at line 2: unknown class member `widget` (expected field/cb/fn)"),
    ("app A\nactivity M { fn f(depth=1) { } }", "parse error at line 2: unknown method attribute `depth`"),
    ("app A\nactivity M { fn f(params=70000) { } }", "parse error at line 2: too many parameters"),
    ("app A\nactivity M { fn f(locals=70000) { } }", "parse error at line 2: too many locals"),
    // The local limit: a method has at most u16::MAX slots, `this` included.
    ("app A\nactivity M {\n  fn f(params=65535) { }\n}", "parse error at line 3: too many parameters"),
    ("app A\nactivity M {\n  cb onClick {\n    t65535 = null\n  }\n}", "parse error at line 4: too many locals"),
    ("app A\nactivity M {\n  cb onClick {\n    t1 = move t99999999999999999999\n  }\n}", "parse error at line 4: too many locals"),
    ("app A\nactivity M {\n  field f\n  fn g(locals=65535) {\n    use f\n  }\n}", "parse error at line 4: too many locals"),
    ("app A\nactivity M { fn f(params=x) { } }", "parse error at line 2: expected integer, found `x`"),
    ("app A\nactivity M { fn f(params 1) { } }", "parse error at line 2: expected `=`, found `1`"),
    ("app A\nactivity M { cb onClick { t1 = load x M.f } }", "parse error at line 2: expected local (`this`/`tN`), found `x`"),
    ("app A\nactivity M { cb onClick { t1 = load this M } }", "parse error at line 2: expected `.`, found `}`"),
    ("app A\nactivity M { cb onClick { t1 = frob M } }", "parse error at line 2: unknown assignment rhs `frob`"),
    ("app A\nactivity M { cb onClick { call M.f } }", "parse error at line 2: expected `(`, found `}`"),
    ("app A\nactivity M { cb onClick { call f() } }", "parse error at line 2: canonical calls need a qualified target (`Class.method`) or `opaque`"),
    ("app A\nactivity M { cb onClick { t1 = call f } }", "parse error at line 2: sugar `call <name>` cannot assign to a local"),
    ("app A\nactivity M { cb onClick { call opaque(t1 t2) } }", "parse error at line 2: expected `,`, found `t2`"),
    ("app A\nactivity M { field f\n cb onClick { f = t1 } }", "parse error at line 3: locals cannot be assigned to fields in sugar; use canonical `store`"),
    ("app A\nactivity M { field f\n cb onClick { if f = null { } } }", "parse error at line 3: expected `!=` or `==`, found `=`"),
    ("app A\nactivity M { field f\n cb onClick { if f != nil { } } }", "parse error at line 3: null-check conditions must compare against `null`"),
    ("app A\nactivity M { cb onClick { listen setOnDragListener L } }", "parse error at line 2: unknown listener-registration API `setOnDragListener`"),
    ("app A\nactivity M { cb onClick { post } }", "parse error at line 2: expected identifier, found `}`"),
    ("app A\nactivity M { cb onClick { loop } }", "parse error at line 2: expected `{`, found `}`"),
    ("app A\nactivity M { cb onClick { if ? { } else } }", "parse error at line 2: expected `{`, found `}`"),
    // Lowering: unknown names.
    ("app A\nactivity M {\n  cb onCreate {\n    t1 = new Nope\n  }\n}", "parse error at line 4: unknown class `Nope`"),
    ("app A\nactivity M {\n  cb onClick {\n    use missing\n  }\n}", "parse error at line 4: unknown field `missing`"),
    ("app A\nactivity M {\n  cb onClick {\n    call nope\n  }\n}", "parse error at line 4: unknown method `nope`"),
    ("app A\nactivity M {\n  cb onClick {\n    call M.nope()\n  }\n}", "parse error at line 4: unknown method `M.nope`"),
    ("app A\nactivity M {\n  cb onClick {\n    t1 = call Nope.f()\n  }\n}", "parse error at line 4: unknown class `Nope`"),
    ("app A\nactivity M {\n  field f\n  cb onClick {\n    f = call nope\n  }\n}", "parse error at line 5: unknown method `nope`"),
    ("app A\nactivity M {\n  field f: Nope\n}", "parse error at line 2: unknown class `Nope`"),
    ("app A\nactivity M in Nope { }", "parse error at line 2: unknown class `Nope`"),
    ("app A\nactivity M { cb onClick { post R } }", "parse error at line 2: unknown class `R`"),
    ("app A\nactivity M { cb onClick { post f } }", "parse error at line 2: unknown field `f`"),
    ("app A\nactivity M { cb onClick { Nope.f = null } }", "parse error at line 2: unknown class `Nope`"),
    ("app A\nactivity M { }\nmanifest { main Nope }", "parse error at line 0: unknown class `Nope`"),
    ("app A\nactivity M { }\nmanifest { receiver Nope }", "parse error at line 0: unknown class `Nope`"),
    // Lowering: duplicates and bad references.
    ("app A\nactivity M { }\nactivity M { }", "parse error at line 3: duplicate class `M`"),
    ("app A\nactivity M {\n  field f\n  field f\n}", "parse error at line 2: duplicate field `f`"),
    ("app A\nactivity M {\n  fn g { }\n  fn g { }\n}", "parse error at line 4: duplicate method `g`"),
    ("app A\nactivity M {\n  field f\n  cb bogusCallback { }\n}", "parse error at line 4: `bogusCallback` is not a known callback for role `activity`"),
    ("app A\nactivity M { cb onClick { use outer.f } }", "parse error at line 2: `outer.` used in a class without an `in <Outer>` clause"),
    ("app A\nclass C { }\nclass D in C { fn g { use outer.f } }", "parse error at line 3: class has no `$outer` field (is it a framework helper?)"),
    ("app A\nactivity M { cb onClick { post R } }\nrunnable R in M { cb run { use outer.missing } }", "parse error at line 3: unknown field `missing`"),
    ("app A\nactivity M { }\nhandler H on M { cb handleMessage { } }", "parse error at line 3: `on M`: target must be a looperthread class"),
    ("app A\nhandler H on Nope { }", "parse error at line 2: unknown class `Nope`"),
];

#[test]
fn every_malformed_input_gives_its_pinned_error() {
    let mut wrong = Vec::new();
    for (src, want) in CASES {
        let got = match parse_program(src) {
            Ok(p) => format!("parsed as:\n{}", print_program(&p)),
            Err(e) => e.to_string(),
        };
        if got != *want {
            wrong.push(format!("input {src:?}\n  want {want:?}\n   got {got:?}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// The lexical corners of the golden table, in inputs that parse: each
/// keeps its names and round-trips through the canonical form.
#[test]
fn lexical_corners_parse_and_round_trip() {
    let cases: &[(&str, &[&str])] = &[
        (
            "app é\nactivity é { field ß1\n cb onClick { use ß1 } }",
            &["é"],
        ),
        ("app A // comment at EOF, no newline", &[]),
        ("app\u{a0}A\u{2028}activity\u{3000}M\u{85}{ }", &["M"]),
        ("app A\r\nactivity M {\r\n  field f\r\n}\r\n", &["M"]),
        (
            "app $_x\nclass _C$ { field $f: Ωx٣ }\nclass Ωx٣ { }",
            &["_C$", "Ωx٣"],
        ),
    ];
    for (src, classes) in cases {
        let p = parse_program(src).unwrap_or_else(|e| panic!("{src:?}: {e}"));
        let names: Vec<_> = p.classes().map(|(_, c)| c.name()).collect();
        assert_eq!(names, *classes, "{src:?}");
        assert_eq!(parse_program(&print_program(&p)), Ok(p), "{src:?}");
    }
}

/// The last valid slot at the local limit parses and round-trips: 65,534
/// parameters after `this`, local `t65534`, and a `locals=65535` header.
#[test]
fn the_local_limit_admits_its_last_slot() {
    for src in [
        "app A\nactivity M { fn f(params=65534) { } }",
        "app A\nactivity M { cb onClick { t65534 = null } }",
        "app A\nactivity M { fn f(locals=65535) { t1 = null } }",
    ] {
        let p = parse_program(src).unwrap_or_else(|e| panic!("{src:?}: {e}"));
        let (_, m) = p.methods().next().expect("one method");
        assert_eq!(m.num_locals(), u16::MAX, "{src:?}");
        assert_eq!(parse_program(&print_program(&p)), Ok(p), "{src:?}");
    }
}
