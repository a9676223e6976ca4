//! Regenerate Table 1: the per-app result of nAdroid's UAF analysis —
//! filters, type of remaining UAFs, true harmful UAFs, and false-positive
//! causes — over the 27-app suite.
//!
//! The harmful and FP-cause columns are measured by `nadroid-confirm`
//! (`pair_verdicts`); the planted labels are only their oracle, which
//! `confirm_bench` checks.
//!
//! Run with `cargo run --release -p nadroid-bench --bin table1`.

use nadroid_bench::{analyze_program, render_table, run_rows_parallel, write_csv, write_reports};
use nadroid_confirm::{confirm_survivors, pair_verdicts, ConfirmConfig};
use nadroid_corpus::{table1_rows, AppGroup};

fn main() {
    let rows = table1_rows();
    eprintln!("analyzing {} apps in parallel ...", rows.len());
    let runs = run_rows_parallel(&rows);
    eprintln!("confirming their surviving pairs ...");
    let verdicts: Vec<_> = runs
        .iter()
        .map(|run| {
            let analysis = analyze_program(&run.app.program);
            pair_verdicts(
                &analysis,
                &confirm_survivors(&analysis, &ConfirmConfig::default()),
            )
        })
        .collect();
    let mut out_rows = Vec::new();
    let mut totals = (0usize, 0usize, 0usize, 0usize);
    for ((row, run), v) in rows.iter().zip(&runs).zip(&verdicts) {
        let types = run
            .types
            .iter()
            .map(|(t, n)| format!("{t}:{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        let fp =
            v.fp.iter()
                .map(|(c, n)| format!("{c}:{n}"))
                .collect::<Vec<_>>()
                .join(" ");
        totals.0 += run.summary.potential;
        totals.1 += run.summary.after_sound;
        totals.2 += run.summary.after_unsound;
        totals.3 += v.harmful;
        out_rows.push(vec![
            match row.group {
                AppGroup::Train => "train".to_owned(),
                AppGroup::Test => "test".to_owned(),
            },
            row.name.to_owned(),
            run.summary.loc.to_string(),
            run.summary.ec.to_string(),
            run.summary.pc.to_string(),
            run.summary.threads.to_string(),
            format!("{} ({})", run.summary.potential, row.potential),
            format!("{} ({})", run.summary.after_sound, row.after_sound),
            format!("{} ({})", run.summary.after_unsound, row.after_unsound),
            format!("{} ({})", v.harmful, row.harmful),
            types,
            fp,
        ]);
    }
    println!("Table 1 — nAdroid's UAF analysis per app.");
    println!(
        "Counts are on the sqrt-scaled synthetic models; the paper's values are in parentheses."
    );
    println!();
    println!(
        "{}",
        render_table(
            &[
                "grp",
                "app",
                "LOC",
                "EC",
                "PC",
                "T",
                "potential",
                "after-sound",
                "after-unsound",
                "harmful",
                "types",
                "FP causes"
            ],
            &out_rows
        )
    );
    println!(
        "totals: potential={} after-sound={} after-unsound={} harmful={} (paper harmful: 88)",
        totals.0, totals.1, totals.2, totals.3
    );
    let csv = std::path::Path::new("Result/ResultAnalysis.csv");
    let harmful: Vec<usize> = verdicts.iter().map(|v| v.harmful).collect();
    match write_csv(&runs, &harmful, csv) {
        Ok(()) => println!("wrote {}", csv.display()),
        Err(e) => eprintln!("could not write {}: {e}", csv.display()),
    }
    let reports = std::path::Path::new("Result/reports");
    match write_reports(&runs, reports) {
        Ok(()) => println!(
            "wrote {} per-app run reports under {}",
            runs.len(),
            reports.display()
        ),
        Err(e) => eprintln!("could not write reports under {}: {e}", reports.display()),
    }
}
