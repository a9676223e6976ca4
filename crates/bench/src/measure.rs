//! Suite measurement shared by the `timing` driver and the `nadroid
//! perf` family: the §8.8 phase-time breakdown as a `timing` ledger
//! record, full `suite` records for the run ledger, and the one-step
//! write every bench driver ends with.

use crate::{render_table, run_row, run_row_timed, AppRun};
use nadroid_core::PhaseTimings;
use nadroid_corpus::table1_rows;
use nadroid_ledger as ledger;
use nadroid_obs::Histogram;
use std::path::Path;
use std::time::{Duration, Instant};

/// A §8.8 phase: its ledger name and how to read it from the timings.
type Phase = (&'static str, fn(&PhaseTimings) -> Duration);

/// The §8.8 phases, in report order.
const PHASES: [Phase; 7] = [
    ("modeling", |t| t.modeling),
    ("hb", |t| t.hb),
    ("detection", |t| t.detection),
    ("pointsto", |t| t.pointsto),
    ("escape", |t| t.escape),
    ("detect", |t| t.detect),
    ("filtering", |t| t.filtering),
];

fn sum_timings(runs: &[AppRun]) -> PhaseTimings {
    let mut sum = PhaseTimings::default();
    for run in runs {
        sum.modeling += run.timings.modeling;
        sum.hb += run.timings.hb;
        sum.detection += run.timings.detection;
        sum.filtering += run.timings.filtering;
        sum.pointsto += run.timings.pointsto;
        sum.escape += run.timings.escape;
        sum.detect += run.timings.detect;
    }
    sum
}

/// A ledger record of `kind` holding what every suite run measures:
/// wall and CPU seconds, per-phase seconds summed across the app runs,
/// the app count, and every recorder counter summed over the apps.
/// Time-valued `*_micros` counters are folded into `times` so the
/// counter section stays exactly comparable.
fn suite_record(kind: ledger::Kind, runs: &[AppRun], wall: Duration) -> ledger::Record {
    let sum = sum_timings(runs);
    let mut rec = ledger::Record::new(kind);
    rec.times
        .insert("suite.wall_secs".into(), wall.as_secs_f64());
    rec.times
        .insert("suite.cpu_secs".into(), sum.total().as_secs_f64());
    for (name, pick) in PHASES {
        rec.times
            .insert(format!("phase.{name}"), pick(&sum).as_secs_f64());
    }
    rec.times
        .insert("phase.total".into(), sum.total().as_secs_f64());

    rec.counters.insert("apps".into(), runs.len() as u64);
    let mut counter_totals: std::collections::BTreeMap<String, u64> = Default::default();
    for run in runs {
        for (name, v) in run.recorder.counters() {
            *counter_totals.entry(name).or_insert(0) += v;
        }
    }
    for (name, v) in counter_totals {
        if let Some(stem) = name.strip_suffix("_micros") {
            rec.times.insert(format!("{stem}_secs"), v as f64 / 1e6);
        } else {
            rec.counters.insert(name, v);
        }
    }
    rec
}

/// The result of one timed suite run: its `timing` ledger record plus
/// human-readable renderings.
pub struct SuiteMeasurement {
    /// The record the `timing` driver commits as `BENCH_timing.json`.
    pub record: ledger::Record,
    /// Per-app phase-time table.
    pub table: String,
    /// The §8.8 percentage breakdown.
    pub breakdown: String,
}

/// Run the timed suite (provenance off, MHP pre-prune on — the §8.8
/// baseline workload) and record it. The `timing` driver commits this
/// record as `BENCH_timing.json`, and the gate's fresh measurements use
/// it too, so current and baseline always describe the same workload.
///
/// The apps run one after another, so each phase time is that layer's
/// own time, not time spent preempted by the other apps' threads.
#[must_use]
pub fn measure_suite() -> SuiteMeasurement {
    let suite_start = Instant::now();
    // The timed variant skips provenance capture: wall_secs guards the
    // analysis pipeline, not the post-run debugging exporter.
    let runs: Vec<AppRun> = table1_rows().iter().map(run_row_timed).collect();
    let suite_wall = suite_start.elapsed();
    let record = suite_record(ledger::Kind::Timing, &runs, suite_wall);

    let header: Vec<&str> = std::iter::once("app")
        .chain(PHASES.iter().map(|&(name, _)| name))
        .collect();
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            std::iter::once(run.row.name.to_owned())
                .chain(
                    PHASES
                        .iter()
                        .map(|(_, pick)| format!("{:?}", pick(&run.timings))),
                )
                .collect()
        })
        .collect();
    let table = render_table(&header, &rows);

    let sum = sum_timings(&runs);
    let total = sum.total();
    let pct = |d: Duration| d.as_secs_f64() / total.as_secs_f64() * 100.0;
    let mut breakdown = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        breakdown,
        "§8.8 breakdown over the {}-app suite (paper: 1.19% / 95.73% / 3.08%):",
        runs.len()
    );
    for (name, pick) in PHASES {
        // Detection's sub-phases are indented under it.
        let label = if matches!(name, "pointsto" | "escape" | "detect") {
            format!("    {name:<8}")
        } else {
            format!("  {name:<10}")
        };
        let d = pick(&sum);
        let _ = writeln!(breakdown, "{label}: {d:>12?}  {:5.2}%", pct(d));
    }
    let _ = writeln!(
        breakdown,
        "  total(cpu): {total:>12?}  (suite wall-clock {suite_wall:?}, sequential)"
    );

    SuiteMeasurement {
        record,
        table,
        breakdown,
    }
}

/// Run the full suite (provenance *on*, so surviving warning ids are
/// available) and build a complete ledger record: the suite record
/// [`measure_suite`] also starts from, plus per-phase latency
/// histograms across the 27 apps and the warning population with
/// per-app digests and the Figure-5 tallies. The apps run one after
/// another, as in [`measure_suite`].
#[must_use]
pub fn suite_ledger_record(kind: ledger::Kind) -> ledger::Record {
    let start = Instant::now();
    let runs: Vec<AppRun> = table1_rows().iter().map(run_row).collect();
    let mut rec = suite_record(kind, &runs, start.elapsed());

    for (name, pick) in PHASES {
        let mut h = Histogram::new();
        for run in &runs {
            h.record(u64::try_from(pick(&run.timings).as_micros()).unwrap_or(u64::MAX));
        }
        rec.hists.insert(format!("phase_us.{name}"), h);
    }

    let mut tallies = std::collections::BTreeMap::new();
    for (name, pick) in [
        (
            "potential",
            (|r: &AppRun| r.summary.potential) as fn(&AppRun) -> usize,
        ),
        ("after_sound", |r| r.summary.after_sound),
        ("after_unsound", |r| r.summary.after_unsound),
    ] {
        tallies.insert(name.to_string(), runs.iter().map(|r| pick(r) as u64).sum());
    }
    for (name, v) in &rec.counters {
        if name.starts_with("filter.") && name.ends_with(".killed") {
            tallies.insert(name.clone(), *v);
        }
    }
    let apps = runs
        .iter()
        .map(|run| {
            let mut ids = run.surviving_ids.clone();
            ids.sort_unstable();
            ledger::AppPopulation {
                app: run.row.name.to_string(),
                digest: nadroid_core::warning_population_digest(&ids),
                ids,
            }
        })
        .collect();
    rec.population = Some(ledger::Population { apps, tallies });
    rec
}

/// Write `rec` as the one-line `BENCH_*.json` artifact at `out`, then
/// append the same record to the repository's run ledger
/// ([`ledger::DEFAULT_PATH`] under the repo root): refreshing a
/// baseline and recording it in the history are one step.
///
/// # Errors
///
/// Names the file that could not be written.
pub fn commit_bench_record(rec: &ledger::Record, out: &Path) -> Result<(), String> {
    std::fs::write(out, rec.to_json_line() + "\n")
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    let ledger_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(ledger::DEFAULT_PATH);
    ledger::append(&ledger_path, rec)?;
    println!(
        "appended {} record to {}",
        rec.kind.as_str(),
        ledger_path.display()
    );
    Ok(())
}
