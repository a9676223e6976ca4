//! Regenerate the §8.8 phase-time breakdown: modeling vs detection vs
//! filtering, summed over the whole suite, with the detection sub-phases
//! (points-to / escape / pair enumeration) broken out — and commit the
//! run as `BENCH_timing.json` at the repo root.
//!
//! The paper reports modeling at 1.19%, static detection at 95.73%, and
//! filtering at 3.08% of the analysis time. Our detection phase (the
//! k-object-sensitive points-to + escape + pair enumeration) similarly
//! dominates; absolute times are not comparable (simulator substrate).
//!
//! `BENCH_timing.json` is one `nadroid-ledger/1` record of kind
//! `timing`, also appended to `Result/ledger.jsonl`; its keys are
//! listed in the "Run ledger & perf gate" section of
//! `docs/observability.md`.
//!
//! Run with `cargo run --release -p nadroid-bench --bin timing`; add
//! `--scale [N]` to (re-)measure the corpus-scale thread curve too (a
//! plain run carries the committed `scale.*` keys forward unchanged —
//! the curve is far more expensive than the suite). `nadroid perf gate
//! --against BENCH_timing.json` is the CI regression guard.

use nadroid_bench::measure::{commit_bench_record, measure_suite};
use nadroid_ledger as ledger;

/// The inner-thread counts the scaling curve covers. Thread counts
/// beyond the machine's cores are deliberately included: they prove the
/// determinism claim under real oversubscription, and the record's
/// `env.cores` tells readers which rows could physically speed up.
const CURVE_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Measure the corpus-scale thread-scaling curve into `rec`: one
/// `scale.wall_secs_t<N>` time per thread count and one `scale.*`
/// counter per deterministic aggregate.
///
/// Asserts the deterministic-counter invariant on the spot: the
/// aggregate `detector.pairs_examined` and `pointsto.queue_pops` (and
/// the warning total) must be identical at every thread count.
fn measure_scale(total: usize, rec: &mut ledger::Record) {
    let mut runs = Vec::new();
    for &t in &CURVE_THREADS {
        let run = nadroid_bench::run_scale(total, t);
        println!(
            "scale: {} apps at threads={t}: {:?} wall, {} pairs examined, {} queue pops, {} warnings",
            run.apps, run.wall, run.pairs_examined, run.queue_pops, run.warnings
        );
        rec.times
            .insert(format!("scale.wall_secs_t{t}"), run.wall.as_secs_f64());
        runs.push(run);
    }
    let first = &runs[0];
    for run in &runs[1..] {
        assert_eq!(
            (run.pairs_examined, run.queue_pops, run.warnings),
            (first.pairs_examined, first.queue_pops, first.warnings),
            "thread count changed a deterministic aggregate (threads={})",
            run.threads
        );
    }
    for (name, v) in [
        ("apps", total as u64),
        ("pairs_examined", first.pairs_examined),
        ("queue_pops", first.queue_pops),
        ("warnings", first.warnings),
    ] {
        rec.counters.insert(format!("scale.{name}"), v);
    }
}

fn main() {
    const USAGE: &str = "usage: timing [--scale [N]]";
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale_apps = match args.as_slice() {
        [] => None,
        [flag] if flag == "--scale" => Some(1000),
        [flag, n] if flag == "--scale" => Some(n.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("{USAGE}");
            std::process::exit(2);
        })),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    let m = measure_suite();
    println!("Phase times per app:");
    println!("{}", m.table);
    print!("{}", m.breakdown);

    let mut rec = m.record;
    rec.note = "timing driver".to_string();
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_timing.json");
    if let Some(n) = scale_apps {
        measure_scale(n, &mut rec);
    } else if let Some(committed) = ledger::read(&out).ok().and_then(|mut r| r.pop()) {
        println!("carrying forward the committed scale curve (re-measure with --scale)");
        let is_scale = |k: &String| k.starts_with("scale.");
        rec.times
            .extend(committed.times.into_iter().filter(|(k, _)| is_scale(k)));
        rec.counters
            .extend(committed.counters.into_iter().filter(|(k, _)| is_scale(k)));
    }
    if let Err(e) = commit_bench_record(&rec, &out) {
        eprintln!("timing: {e}");
        std::process::exit(1);
    }
}
