//! End-to-end `nadroid perf` gate through the real binary: a canned
//! ledger with one injected counter change and one warning-population
//! change must exit nonzero with a verdict naming the regressed
//! counter and the exact warning ids that moved; identical records
//! must pass; `perf diff` must read a BENCH file on either side; a
//! counter the current record stopped reporting must fail; and every
//! committed BENCH file, itself a ledger record, must pass when gated
//! against its own copy in a ledger.

use nadroid_ledger::{AppPopulation, Env, Kind, Population, Record};
use std::process::Command;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nadroid_{}_{}", name, std::process::id()));
    if dir.exists() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn fixed_env() -> Env {
    Env {
        cores: 8,
        threads: 1,
        profile: "release".to_string(),
    }
}

fn population(ids: &[&str]) -> Population {
    let ids = ids.iter().map(|s| (*s).to_string()).collect();
    Population {
        apps: vec![AppPopulation::new("connectbot", ids)],
        tallies: std::collections::BTreeMap::new(),
    }
}

/// Two records: #1 the baseline, #2 with a counter change and one
/// warning swapped for another in connectbot's population.
fn seeded_ledger(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("ledger.jsonl");
    let mut base = Record::new(Kind::Timing);
    base.ts = 1_754_000_000;
    base.env = fixed_env();
    base.counters
        .insert("pointsto.queue_pops".to_string(), 12_677);
    base.population = Some(population(&["w:00000000000000aa", "w:00000000000000bb"]));
    let mut cur = base.clone();
    cur.kind = Kind::Ci;
    cur.ts = 1_754_000_100;
    cur.counters
        .insert("pointsto.queue_pops".to_string(), 13_000);
    cur.population = Some(population(&["w:00000000000000aa", "w:00000000000000cc"]));
    nadroid_ledger::append(&path, &base).expect("append baseline");
    nadroid_ledger::append(&path, &cur).expect("append drifted record");
    path
}

fn gate(ledger: &std::path::Path, extra: &[&str]) -> std::process::Output {
    let mut argv = vec!["perf", "gate", "--ledger", ledger.to_str().unwrap()];
    argv.extend_from_slice(extra);
    Command::new(env!("CARGO_BIN_EXE_nadroid"))
        .args(&argv)
        .output()
        .expect("spawn nadroid")
}

#[test]
fn seeded_drift_fails_the_gate_with_a_named_verdict() {
    let dir = temp_dir("perf_gate_drift");
    let ledger = seeded_ledger(&dir);
    let out = gate(&ledger, &["--against", "1", "--current", "2"]);
    assert!(
        !out.status.success(),
        "gate must exit nonzero on seeded drift:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    // The verdict names the regressed counter with exact values...
    assert!(err.contains("counters.pointsto.queue_pops"), "{err}");
    assert!(err.contains("12677 -> 13000 (+323)"), "{err}");
    // ...and the population drift down to the individual warning ids.
    assert!(err.contains("population.connectbot"), "{err}");
    assert!(err.contains("added [w:00000000000000cc]"), "{err}");
    assert!(err.contains("removed [w:00000000000000bb]"), "{err}");
    assert!(
        err.contains("FAIL: 2 blocking difference(s) (0 regression(s), 2 drift(s))"),
        "{err}"
    );
}

#[test]
fn identical_records_pass_the_gate() {
    let dir = temp_dir("perf_gate_pass");
    let ledger = seeded_ledger(&dir);
    let out = gate(&ledger, &["--against", "1", "--current", "1"]);
    assert!(
        out.status.success(),
        "self-gate must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("no differences beyond noise"), "{text}");
    assert!(text.contains("PASS: no regressions, no drift"), "{text}");
}

/// `perf diff` resolves each side as `perf gate` does: a path to a
/// file is a one-record `BENCH_*.json` artifact, anything else a ledger
/// selector. The BENCH copy of the baseline diffed against the drifted
/// ledger record reports the seeded counter change.
#[test]
fn diff_reads_a_bench_file_against_a_ledger_record() {
    let dir = temp_dir("perf_diff_bench");
    let ledger = seeded_ledger(&dir);
    let baseline = nadroid_ledger::read(&ledger).expect("read seeded ledger")[0].clone();
    let bench = dir.join("BENCH_timing.json");
    std::fs::write(&bench, baseline.to_json_line() + "\n").expect("write BENCH file");
    let out = Command::new(env!("CARGO_BIN_EXE_nadroid"))
        .args([
            "perf",
            "diff",
            bench.to_str().unwrap(),
            "last",
            "--ledger",
            ledger.to_str().unwrap(),
        ])
        .output()
        .expect("spawn nadroid");
    assert!(
        out.status.success(),
        "perf diff must accept a BENCH file: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.starts_with(&format!("perf diff: {} -> #2 (ci)\n", bench.display())),
        "{text}"
    );
    assert!(
        text.contains("counters.pointsto.queue_pops: 12677 -> 13000 (+323)"),
        "{text}"
    );
}

/// A current record that lacks a counter the baseline pins fails the
/// gate: the committed timing record less `pointsto.queue_pops`, gated
/// against the committed file, names the missing counter.
#[test]
fn a_counter_missing_from_the_current_record_fails_the_gate() {
    let dir = temp_dir("perf_gate_missing");
    let ledger = dir.join("ledger.jsonl");
    let bench = format!("{}/../../BENCH_timing.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&bench).expect("read BENCH_timing.json");
    let mut cur = nadroid_ledger::parse_record_line(text.trim()).expect("one ledger record");
    let pops = cur
        .counters
        .remove("pointsto.queue_pops")
        .expect("the timing record counts points-to queue pops");
    nadroid_ledger::append(&ledger, &cur).expect("append current record");
    let out = gate(&ledger, &["--against", &bench, "--current", "last"]);
    assert!(
        !out.status.success(),
        "a vanished counter must fail the gate:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("counters.pointsto.queue_pops: {pops} -> (absent)")),
        "{err}"
    );
    assert!(
        err.contains("FAIL: 1 blocking difference(s) (0 regression(s), 1 drift(s))"),
        "{err}"
    );
}

/// Every committed `BENCH_*.json` is one `nadroid-ledger/1` record
/// written by its driver: `perf record --from` copies it as exactly one
/// record of that driver's kind, and `perf gate --against <file>
/// --current last` passes, since both sides hold the same record.
#[test]
fn every_bench_file_gates_cleanly_against_its_own_record() {
    for (file, kind) in [
        ("BENCH_timing.json", "timing"),
        ("BENCH_serve.json", "serve_bench"),
        ("BENCH_confirm.json", "confirm"),
        ("BENCH_refute.json", "refute"),
    ] {
        let dir = temp_dir(&format!("perf_gate_{kind}"));
        let ledger = dir.join("ledger.jsonl");
        let bench = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));

        let rec = Command::new(env!("CARGO_BIN_EXE_nadroid"))
            .args([
                "perf",
                "record",
                "--from",
                &bench,
                "--ledger",
                ledger.to_str().unwrap(),
            ])
            .output()
            .expect("spawn nadroid");
        assert!(
            rec.status.success(),
            "{file}: record --from failed: {}",
            String::from_utf8_lossy(&rec.stderr)
        );
        let listed = Command::new(env!("CARGO_BIN_EXE_nadroid"))
            .args(["perf", "list", "--ledger", ledger.to_str().unwrap()])
            .output()
            .expect("spawn nadroid");
        let listing = String::from_utf8_lossy(&listed.stdout);
        assert!(listing.contains(": 1 record(s)"), "{file}: {listing}");
        assert!(
            listing.contains(&format!("#1 {kind} ")),
            "{file}: {listing}"
        );

        let out = gate(&ledger, &["--against", &bench, "--current", "last"]);
        assert!(
            out.status.success(),
            "{file}: gate against the source record must pass: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("PASS: no regressions, no drift"),
            "{file}: {text}"
        );
    }
}
