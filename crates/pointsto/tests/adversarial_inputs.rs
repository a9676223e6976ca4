//! Inputs that break a naive dense design of the points-to tables: a
//! method's declared local count and one variable's points-to set are
//! both unbounded by the rest of the program. Each test bounds the time
//! of points-to plus escape at k = 2 at least 50 times above what the
//! tables need in a debug build, and well below what the naive design
//! takes.

use nadroid_ir::{parse_program, Local, Program};
use nadroid_pointsto::{Escape, PointsTo};
use nadroid_threadify::ThreadModel;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Solve points-to and escape at k = 2 and return how long it took.
fn solve(program: &Program) -> (PointsTo, Escape, Duration) {
    let threads = ThreadModel::build(program);
    let start = Instant::now();
    let pts = PointsTo::run(program, &threads, 2);
    let escape = Escape::compute(program, &threads, &pts);
    (pts, escape, start.elapsed())
}

/// 300 methods each declaring the maximum of 65,535 locals and using the
/// last one: escape visits the one populated local of each, not all 19.7
/// million declared ones, and no table grows with the declared count.
/// About 2 ms in a debug build; visiting every declared local took 10 s.
#[test]
fn declared_locals_cost_nothing_until_used() {
    let mut src = String::from("app Wide\nactivity Main {\n  cb onCreate {\n");
    for i in 0..300 {
        let _ = writeln!(src, "    call m{i}");
    }
    src.push_str("  }\n");
    for i in 0..300 {
        let _ = writeln!(src, "  fn m{i}(locals=65535) {{ t65534 = new Obj }}");
    }
    src.push_str("}\nclass Obj { }\n");
    let program = parse_program(&src).unwrap_or_else(|e| panic!("{e}"));
    let (pts, escape, took) = solve(&program);
    let main = program.class_by_name("Main").unwrap();
    let m0 = program.method_by_name(main, "m0").unwrap();
    assert_eq!(program.method(m0).num_locals(), u16::MAX);
    let objs = pts.pts(m0, Local(65534));
    assert_eq!(objs.len(), 1);
    assert_eq!(escape.reach_count(objs[0]), 1, "one thread reaches it");
    assert!(
        took < Duration::from_secs(1),
        "{took:?} for {} bytes",
        src.len()
    );
}

/// One local assigned 20,000 distinct allocations, then copied through
/// three more: every fact insertion is a membership test against a set
/// that grows to 20,000, so the test must not scan the set. About 0.1 s
/// in a debug build; scanning the set took 11 s.
#[test]
fn a_large_points_to_set_grows_in_linear_time() {
    let mut src = String::from("app Tall\nactivity Main {\n  cb onCreate {\n");
    for _ in 0..20_000 {
        src.push_str("    t1 = new Obj\n");
    }
    src.push_str("    t2 = move t1\n    t3 = move t2\n    t4 = move t3\n  }\n}\nclass Obj { }\n");
    let program = parse_program(&src).unwrap_or_else(|e| panic!("{e}"));
    let (pts, _, took) = solve(&program);
    let main = program.class_by_name("Main").unwrap();
    let create = program.method_by_name(main, "onCreate").unwrap();
    assert_eq!(pts.pts(create, Local(1)), pts.pts(create, Local(4)));
    assert_eq!(pts.pts(create, Local(4)).len(), 20_000);
    assert!(
        took < Duration::from_secs(5),
        "{took:?} for {} bytes",
        src.len()
    );
}
