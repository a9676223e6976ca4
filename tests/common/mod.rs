//! The app set the digest tests pin: the 27 Table 1 apps, the 6
//! refutation-study apps, the Figure 4 gallery, the hand-written
//! `apps/*.dsl` models and [`DEEP_CONTEXTS`].

use nadroid::corpus::{generate, paper, refute_specs, spec_for, table1_rows};
use nadroid::ir::{parse_program, Program};

/// Every corpus population has the same points-to at k = 1 and k = 2.
/// Here two activities each allocate their own `Outer`, whose shared
/// `mk` allocates a `Mid`, whose shared `mk` allocates the `Leaf` each
/// activity keeps: k = 0 has one `Mid` and one `Leaf`, k = 1 a `Mid` per
/// `Outer` but one `Leaf` (its context is the `Mid` site alone), and
/// k = 2 a `Leaf` per `Outer`.
pub const DEEP_CONTEXTS: &str = r#"
    app DeepContexts
    activity A1 {
        field p: Leaf
        cb onCreate {
            t1 = new Outer
            t2 = call Outer.mk(recv=t1)
            store this A1.p = t2
        }
        cb onClick { use p }
    }
    activity A2 {
        field p: Leaf
        cb onCreate {
            t1 = new Outer
            t2 = call Outer.mk(recv=t1)
            store this A2.p = t2
        }
        cb onClick { use p }
    }
    class Outer {
        fn mk(params=0, locals=3) {
            t1 = new Mid
            t2 = call Mid.mk(recv=t1)
            return t2
        }
    }
    class Mid {
        fn mk(params=0, locals=2) {
            t1 = new Leaf
            return t1
        }
    }
    class Leaf { }
"#;

/// The apps, in pinned order: Table 1, the refutation study, the
/// Figure 4 gallery, `apps/*.dsl` by file name, then [`DEEP_CONTEXTS`].
pub fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = table1_rows()
        .iter()
        .map(spec_for)
        .chain(refute_specs())
        .map(|spec| (spec.name.clone(), generate(&spec).program))
        .collect();
    out.push(("Figure4Gallery".to_owned(), paper::figure4_gallery()));
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/apps");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("apps/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable app");
        let name = path.file_name().expect("a file").to_string_lossy();
        let program = parse_program(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push((name.into_owned(), program));
    }
    let deep = parse_program(DEEP_CONTEXTS).expect("the fixture parses");
    out.push(("DeepContexts".to_owned(), deep));
    out
}
