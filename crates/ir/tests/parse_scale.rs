//! The parser's cost grows linearly with a class's members. The builder
//! once scanned every member of a class for each field or method it
//! added, and a helper's fields for each `post` of it, which made these
//! shapes quadratic.

use nadroid_ir::{parse_program, OUTER_FIELD};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const MEMBERS: usize = 50_000;

/// About ten times what each shape takes in a debug build on a 2-vCPU
/// host (0.10–0.21 s); the quadratic scans took 17.6 s and more there.
const BOUND: Duration = Duration::from_millis(1500);

/// A class of [`MEMBERS`] fields, one of as many methods, and as many
/// `post R` of a runnable with as many fields.
fn shapes() -> [(&'static str, String); 3] {
    let mut fields = String::from("app A\nactivity M {\n");
    let mut methods = fields.clone();
    let mut posts = String::from("app A\nactivity M {\n  cb onClick {\n");
    let mut runnable = String::from("}\nrunnable R in M {\n");
    for i in 0..MEMBERS {
        let _ = writeln!(fields, "  field f{i}");
        let _ = writeln!(methods, "  fn m{i} {{ }}");
        posts.push_str("    post R\n");
        let _ = writeln!(runnable, "  field f{i}");
    }
    fields.push_str("}\n");
    methods.push_str("}\n");
    posts.push_str("  }\n");
    posts.push_str(&runnable);
    posts.push_str("}\n");
    [("fields", fields), ("methods", methods), ("posts", posts)]
}

#[test]
fn member_heavy_classes_parse_in_linear_time() {
    for (shape, src) in shapes() {
        let start = Instant::now();
        let p = parse_program(&src).unwrap_or_else(|e| panic!("{shape}: {e}"));
        let took = start.elapsed();
        assert!(
            took < BOUND,
            "{shape}: {MEMBERS} members took {took:?} (bound {BOUND:?})"
        );
        // Members keep their numbering: in declaration order, with a
        // helper's `$outer` after its declared fields.
        let last = MEMBERS - 1;
        match shape {
            "fields" => {
                let (id, f) = p.fields().last().expect("fields");
                assert_eq!((id.index(), f.name()), (last, format!("f{last}").as_str()));
            }
            "methods" => {
                let (id, m) = p.methods().last().expect("methods");
                assert_eq!((id.index(), m.name()), (last, format!("m{last}").as_str()));
            }
            _ => {
                let r = p.class_by_name("R").expect("runnable R");
                let outer = p.field_by_name(r, OUTER_FIELD).expect("R.$outer");
                assert_eq!(outer.index(), MEMBERS);
                // Each `post R` is `new R`, `store $outer` and `post`.
                assert_eq!(p.instr_count(), 3 * MEMBERS);
            }
        }
    }
}
