//! Schedule-synthesis bench: confirm every surviving warning of the
//! 27-app Table 1 corpus and write `BENCH_confirm.json`, one
//! `nadroid-ledger/1` record of kind `confirm` (also appended to
//! `Result/ledger.jsonl`; its keys are listed in the "Run ledger & perf
//! gate" section of `docs/observability.md`).
//!
//! The record holds the corpus-wide verdict tally, total explored
//! states, wall clock, each app's verdict counts and wall time under
//! `app.<App>.*`, and the `wp:`-digested population of *confirmed*
//! warning ids per app — counts and populations are deterministic, so
//! the perf gate compares them exactly.
//!
//! Self-checks (exit nonzero on violation):
//! - at least one warning corpus-wide is `confirmed`,
//! - at least one warning corpus-wide is `infeasible`,
//! - every confirmed witness schedule, replayed from scratch on a
//!   freshly generated program, reproduces an NPE whose null load and
//!   null store are exactly the warning's use and free instructions,
//! - each app's Table 1 verdict columns (`pair_verdicts`) equal its
//!   planted labels (`GeneratedApp::planted_verdicts`).
//!
//! Usage: `confirm_bench [--threads <N>] [--out <file>] [--only <substr>]`
//! (`--only` restricts the sweep to matching app names for debugging;
//! restricted runs write `--out` but skip the corpus-wide self-checks
//! and the ledger.)

use nadroid_bench::analyze_program;
use nadroid_bench::measure::commit_bench_record;
use nadroid_confirm::{confirm_survivors, pair_verdicts, ConfirmConfig, ConfirmOutcome};
use nadroid_corpus::{generate, spec_for, table1_rows, PaperRow};
use nadroid_detector::warning_id;
use nadroid_dynamic::{decode_schedule, replay};
use nadroid_ledger::{AppPopulation, Kind, Population, Record};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One app's confirmation sweep.
struct AppRow {
    name: &'static str,
    survivors: usize,
    confirmed: usize,
    unconfirmed: usize,
    infeasible: usize,
    states: u64,
    micros: u128,
    /// The confirmed warning ids.
    population: AppPopulation,
    /// Set when the verdict columns differ from the planted labels.
    oracle_mismatch: Option<String>,
}

/// Confirm one corpus row, replay-verify every confirmed witness and
/// check the verdict columns against the planted labels. Returns the
/// row plus any replay failures (empty on a clean run).
fn run_app(row: &PaperRow, cfg: &ConfirmConfig) -> (AppRow, Vec<String>) {
    let app = generate(&spec_for(row));
    let start = Instant::now();
    let analysis = analyze_program(&app.program);
    let outcome: ConfirmOutcome = confirm_survivors(&analysis, cfg);
    let micros = start.elapsed().as_micros();

    let (measured, planted) = (pair_verdicts(&analysis, &outcome), app.planted_verdicts());
    let oracle_mismatch = (measured != planted)
        .then(|| format!("{}: measured {measured:?}, planted {planted:?}", row.name));

    let mut failures = Vec::new();
    let mut confirmed_ids = Vec::new();
    let (mut confirmed, mut unconfirmed, mut infeasible) = (0usize, 0usize, 0usize);
    let mut states = 0u64;
    for r in &outcome.results {
        states += r.confirmation.states_explored;
        match r.confirmation.verdict {
            nadroid_core::ConfirmVerdict::Confirmed => {
                confirmed += 1;
                confirmed_ids.push(r.id.clone());
                // Cross-check the witness: the attached schedule must
                // replay to the exact (use, free) pair it claims.
                if let Err(e) = verify_replay(&analysis, r) {
                    failures.push(format!("{}/{}: {e}", row.name, r.id));
                }
            }
            nadroid_core::ConfirmVerdict::Unconfirmed => unconfirmed += 1,
            nadroid_core::ConfirmVerdict::Infeasible => infeasible += 1,
        }
    }
    (
        AppRow {
            name: row.name,
            survivors: outcome.results.len(),
            confirmed,
            unconfirmed,
            infeasible,
            states,
            micros,
            population: AppPopulation::new(row.name, confirmed_ids),
            oracle_mismatch,
        },
        failures,
    )
}

/// Replay one confirmed witness schedule and check the manifested NPE
/// against the warning's static use/free sites.
fn verify_replay(
    analysis: &nadroid_core::Analysis<'_>,
    r: &nadroid_confirm::WarningConfirmation,
) -> Result<(), String> {
    let program = analysis.program();
    let threads = analysis.threads();
    let w = analysis
        .warnings()
        .iter()
        .find(|w| warning_id(program, threads, w) == r.id)
        .ok_or("confirmed id not among the analysis warnings")?;
    let text = r
        .confirmation
        .schedule
        .as_deref()
        .ok_or("confirmed verdict without a schedule")?;
    let steps = decode_schedule(text).map_err(|e| format!("schedule does not decode: {e}"))?;
    let world = replay(program, &steps);
    let npe = world
        .npe
        .ok_or_else(|| format!("schedule replayed {} step(s) without an NPE", steps.len()))?;
    if npe.loaded_from != Some(w.use_access.instr) || npe.freed_by != Some(w.free_access.instr) {
        return Err(format!(
            "NPE does not match the warning: loaded_from {:?} freed_by {:?}, \
             expected use {:?} / free {:?}",
            npe.loaded_from, npe.freed_by, w.use_access.instr, w.free_access.instr
        ));
    }
    Ok(())
}

fn main() {
    let mut threads = 1usize;
    let mut out_path = "BENCH_confirm.json".to_owned();
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads <N>");
            }
            "--out" => out_path = args.next().expect("--out <file>"),
            "--only" => only = Some(args.next().expect("--only <substr>")),
            other => panic!("unknown argument `{other}`"),
        }
    }

    let mut rows = table1_rows();
    if let Some(pat) = &only {
        rows.retain(|r| {
            r.name
                .to_ascii_lowercase()
                .contains(&pat.to_ascii_lowercase())
        });
        assert!(!rows.is_empty(), "--only {pat:?} matched no corpus app");
    }
    let cfg = ConfirmConfig::default();
    eprintln!("confirm_bench: {} apps, threads {threads}", rows.len());

    let wall_start = Instant::now();
    let (apps, failures): (Vec<AppRow>, Vec<Vec<String>>) =
        nadroid_par::with_threads(threads, || {
            rows.iter()
                .map(|row| {
                    let (a, f) = run_app(row, &cfg);
                    eprintln!(
                        "  {}: {} survivor(s) -> {}/{}/{} c/u/i, {} state(s), {}ms",
                        a.name,
                        a.survivors,
                        a.confirmed,
                        a.unconfirmed,
                        a.infeasible,
                        a.states,
                        a.micros / 1000
                    );
                    (a, f)
                })
                .unzip()
        });
    let wall_secs = wall_start.elapsed().as_secs_f64();
    let failures: Vec<String> = failures.into_iter().flatten().collect();

    let confirmed: usize = apps.iter().map(|a| a.confirmed).sum();
    let unconfirmed: usize = apps.iter().map(|a| a.unconfirmed).sum();
    let infeasible: usize = apps.iter().map(|a| a.infeasible).sum();
    let survivors: usize = apps.iter().map(|a| a.survivors).sum();
    let states: u64 = apps.iter().map(|a| a.states).sum();
    let replays_verified = confirmed - failures.len();

    let mut rec = Record::new(Kind::Confirm);
    rec.note = format!("confirm_bench --threads {threads}");
    rec.env.threads = threads as u64;
    rec.times.insert("confirm.wall_secs".into(), wall_secs);
    rec.counters.insert("apps".into(), apps.len() as u64);
    let mut tallies = BTreeMap::new();
    for (k, n) in [
        ("confirmed", confirmed),
        ("unconfirmed", unconfirmed),
        ("infeasible", infeasible),
    ] {
        rec.counters.insert(format!("confirm.{k}"), n as u64);
        tallies.insert(k.to_string(), n as u64);
    }
    for (k, n) in [
        ("survivors", survivors as u64),
        ("states", states),
        ("replays_verified", replays_verified as u64),
    ] {
        rec.counters.insert(format!("confirm.{k}"), n);
    }
    let mut populations = Vec::new();
    for a in &apps {
        let app = |k: &str| format!("app.{}.{k}", a.name);
        rec.times.insert(app("wall_secs"), a.micros as f64 / 1e6);
        for (k, n) in [
            ("survivors", a.survivors),
            ("confirmed", a.confirmed),
            ("unconfirmed", a.unconfirmed),
            ("infeasible", a.infeasible),
        ] {
            rec.counters.insert(app(k), n as u64);
        }
        rec.counters.insert(app("states"), a.states);
        populations.push(a.population.clone());
    }
    populations.sort_by(|a, b| a.app.cmp(&b.app));
    rec.population = Some(Population {
        apps: populations,
        tallies,
    });

    // Restricted (`--only`) runs never land in the ledger — their
    // tallies are not comparable to full sweeps.
    let committed = if only.is_some() {
        eprintln!("confirm_bench: --only run, skipping the ledger");
        std::fs::write(&out_path, rec.to_json_line() + "\n")
            .map_err(|e| format!("write {out_path}: {e}"))
    } else {
        commit_bench_record(&rec, Path::new(&out_path))
    };
    if let Err(e) = committed {
        eprintln!("confirm_bench: {e}");
        std::process::exit(1);
    }

    let throughput = if wall_secs > 0.0 {
        survivors as f64 / wall_secs
    } else {
        0.0
    };
    eprintln!(
        "confirm_bench: {confirmed} confirmed / {unconfirmed} unconfirmed / {infeasible} infeasible \
         over {survivors} survivor(s), {states} state(s), {wall_secs:.2}s ({throughput:.2} warnings/s)"
    );

    let mut failed = false;
    for f in &failures {
        eprintln!("confirm_bench: FAIL — replay mismatch: {f}");
        failed = true;
    }
    for m in apps.iter().filter_map(|a| a.oracle_mismatch.as_ref()) {
        eprintln!("confirm_bench: FAIL — {m}");
        failed = true;
    }
    if only.is_none() && confirmed == 0 {
        eprintln!("confirm_bench: FAIL — no warning confirmed anywhere in the corpus");
        failed = true;
    }
    if only.is_none() && infeasible == 0 {
        eprintln!("confirm_bench: FAIL — no warning proven infeasible anywhere in the corpus");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
