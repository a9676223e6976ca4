//! Ablation studies for the DESIGN.md design decisions:
//!
//! 1. points-to sensitivity sweep (k = 0..3) — precision vs cost;
//! 2. eager lockset pruning (the §5 modification the paper argues
//!    against) — how many real UAFs it would hide;
//! 3. filter stages on/off — detector-only vs sound vs sound+unsound.
//!
//! Run with `cargo run --release -p nadroid-bench --bin ablate`.

use nadroid_bench::render_table;
use nadroid_core::{analyze, AnalysisConfig};
use nadroid_corpus::{generate, spec_for, table1_rows, AppGroup};
use nadroid_detector::DetectorOptions;
use nadroid_filters::FilterKind;
use std::time::Instant;

fn main() {
    let rows = table1_rows();
    let apps: Vec<_> = rows
        .iter()
        .filter(|r| r.group == AppGroup::Test)
        .map(|r| generate(&spec_for(r)))
        .collect();

    // --- 1. k sweep -------------------------------------------------------
    // A shared-factory workload: N activities all obtain their payload
    // through one Factory class. Context-insensitive analysis merges all
    // payloads (cross-activity pairs explode); k >= 2 clones them apart.
    println!("Ablation 1 — points-to sensitivity sweep (shared-factory workload, 8 activities):");
    let factory_app = shared_factory_app(8);
    let mut out = Vec::new();
    for k in 0..=3u32 {
        let cfg = AnalysisConfig {
            k,
            ..AnalysisConfig::default()
        };
        let t = Instant::now();
        let s = analyze(&factory_app, &cfg).summary();
        out.push(vec![
            k.to_string(),
            s.potential.to_string(),
            s.after_unsound.to_string(),
            format!("{:?}", t.elapsed()),
        ]);
    }
    println!(
        "{}",
        render_table(&["k", "potential pairs", "survivors", "time"], &out)
    );
    println!("(k=0 merges the factory products: quadratic cross-activity pairs; k>=2 keeps one pair per activity.)");
    println!();

    // --- 2. eager lockset ---------------------------------------------------
    // A harmful locked UAF: both accesses hold the same lock, but locks
    // provide atomicity, not ordering — the free can still precede the
    // use. Eager lockset pruning (what §5 removes from Chord) hides it.
    println!("Ablation 2 — eager lockset pruning (§5 argues against it):");
    let locked = locked_uaf_app();
    let mut out = Vec::new();
    for eager in [false, true] {
        let cfg = AnalysisConfig {
            detector: DetectorOptions {
                eager_lockset: eager,
            },
            ..AnalysisConfig::default()
        };
        let s = analyze(&locked, &cfg).summary();
        out.push(vec![
            if eager {
                "eager (Chord default)".into()
            } else {
                "off (paper)".into()
            },
            s.potential.to_string(),
            s.after_unsound.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(&["lockset", "potential pairs", "survivors"], &out)
    );
    println!("(the locked pair is a real UAF; eager lockset pruning is a false negative.)");
    println!();

    // --- 3. filter stages -----------------------------------------------------
    println!("Ablation 3 — filter stages:");
    let stages: Vec<(&str, Vec<FilterKind>, Vec<FilterKind>)> = vec![
        ("detector only", vec![], vec![]),
        ("sound only", FilterKind::sound().to_vec(), vec![]),
        (
            "sound + unsound",
            FilterKind::sound().to_vec(),
            FilterKind::unsound().to_vec(),
        ),
    ];
    let mut out = Vec::new();
    for (name, sound, unsound) in stages {
        let cfg = AnalysisConfig {
            sound_filters: sound,
            unsound_filters: unsound,
            ..AnalysisConfig::default()
        };
        let mut reported = 0usize;
        for app in &apps {
            reported += analyze(&app.program, &cfg).summary().after_unsound;
        }
        out.push(vec![name.to_owned(), reported.to_string()]);
    }
    println!(
        "{}",
        render_table(&["configuration", "reported pairs"], &out)
    );
}

/// N activities sharing one factory; each activity uses its own product
/// while another callback frees it.
fn shared_factory_app(n: usize) -> nadroid_ir::Program {
    use std::fmt::Write as _;
    let mut src = String::from(
        "app SharedFactory
",
    );
    for i in 0..n {
        let _ = write!(
            src,
            r"
            activity A{i} {{
                field fac{i}: Factory
                field p{i}: Prod
                cb onCreate {{
                    fac{i} = new Factory
                    t3 = load this A{i}.fac{i}
                    t4 = call Factory.make(recv=t3)
                    store this A{i}.p{i} = t4
                    t5 = new Obj
                    store t4 Prod.v = t5
                }}
                cb onClick {{
                    t3 = load this A{i}.p{i}
                    t4 = load t3 Prod.v
                    call opaque(recv=t4)
                }}
                cb onStop {{
                    t3 = load this A{i}.p{i}
                    free t3 Prod.v
                }}
            }}
            "
        );
    }
    src.push_str(
        r"
        class Factory {
            fn make(params=0, locals=2) {
                t1 = new Prod
                return t1
            }
        }
        class Prod { field v: Obj }
        class Obj { }
        ",
    );
    nadroid_ir::parse_program(&src).expect("factory workload parses")
}

/// A real UAF where both accesses hold the same lock.
fn locked_uaf_app() -> nadroid_ir::Program {
    nadroid_ir::parse_program(
        r"
        app LockedUaf
        activity Main {
            field f: Main
            field lock: Obj
            cb onCreate { f = new Main  lock = new Obj  spawn W }
            cb onClick { sync lock { use f } }
        }
        thread W in Main {
            cb run {
                t1 = load this W.$outer
                t2 = load t1 Main.lock
                sync t2 {
                    free t1 Main.f
                }
            }
        }
        class Obj { }
        ",
    )
    .expect("locked workload parses")
}
