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
//! Run with `cargo run --release -p nadroid-bench --bin timing` (it
//! takes no arguments). `nadroid perf gate --against BENCH_timing.json`
//! is the CI regression guard.

use nadroid_bench::measure::{commit_bench_record, measure_suite};

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: timing");
        std::process::exit(2);
    }

    let m = measure_suite();
    println!("Phase times per app:");
    println!("{}", m.table);
    print!("{}", m.breakdown);

    let mut rec = m.record;
    rec.note = "timing driver".to_string();
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_timing.json");
    if let Err(e) = commit_bench_record(&rec, &out) {
        eprintln!("timing: {e}");
        std::process::exit(1);
    }
}
