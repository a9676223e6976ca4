//! Suite measurement shared by the `timing` driver and the `nadroid
//! perf` family: the §8.8 phase-time breakdown as a `timing` ledger
//! record, full `suite` records for the run ledger, and the one-step
//! write every bench driver ends with.

use crate::{render_table, run_row, run_row_timed, AppRun};
use nadroid_corpus::table1_rows;
use nadroid_ledger as ledger;
use nadroid_obs::Histogram;
use std::path::Path;
use std::time::{Duration, Instant};

/// The §8.8 phases, in report order, each named as its span and its
/// `phase.<name>` ledger time. Detection's sub-phases follow it.
const PHASES: [&str; 7] = [
    "modeling",
    "hb",
    "detection",
    "pointsto",
    "escape",
    "detect",
    "filtering",
];

/// The phases that partition a pipeline run; `phase.total` is their sum.
const TOP_PHASES: [&str; 4] = ["modeling", "hb", "detection", "filtering"];

/// Times from spans outside the phase table: the ledger key and the span.
const LAYER_TIMES: [(&str, &str); 2] = [
    ("ir.parse_secs", "parse"),
    ("hb.closure_secs", "hb.closure"),
];

/// One span's time summed over the app runs.
fn span_sum(runs: &[AppRun], name: &str) -> Duration {
    runs.iter().map(|run| run.recorder.span_total(name)).sum()
}

/// A ledger record of `kind` holding what every suite run measures:
/// wall and CPU seconds, per-phase seconds summed across the app runs,
/// the app count, and every recorder counter summed over the apps.
/// Every time but the suite's wall clock is a sum of the apps' span
/// totals.
fn suite_record(kind: ledger::Kind, runs: &[AppRun], wall: Duration) -> ledger::Record {
    let total: Duration = TOP_PHASES.iter().map(|name| span_sum(runs, name)).sum();
    let mut rec = ledger::Record::new(kind);
    rec.times
        .insert("suite.wall_secs".into(), wall.as_secs_f64());
    rec.times
        .insert("suite.cpu_secs".into(), total.as_secs_f64());
    for name in PHASES {
        rec.times
            .insert(format!("phase.{name}"), span_sum(runs, name).as_secs_f64());
    }
    rec.times.insert("phase.total".into(), total.as_secs_f64());
    for (key, span) in LAYER_TIMES {
        rec.times
            .insert(key.into(), span_sum(runs, span).as_secs_f64());
    }

    rec.counters.insert("apps".into(), runs.len() as u64);
    for run in runs {
        for (name, v) in run.recorder.counters() {
            *rec.counters.entry(name).or_insert(0) += v;
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

/// Run the timed suite (provenance off — the §8.8 baseline workload)
/// and record it. The `timing` driver commits this record as
/// `BENCH_timing.json`, and the gate's fresh measurements use it too,
/// so current and baseline always describe the same workload.
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

    let header: Vec<&str> = std::iter::once("app").chain(PHASES).collect();
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            std::iter::once(run.row.name.to_owned())
                .chain(
                    PHASES
                        .iter()
                        .map(|name| format!("{:?}", run.recorder.span_total(name))),
                )
                .collect()
        })
        .collect();
    let table = render_table(&header, &rows);

    let total: Duration = TOP_PHASES.iter().map(|name| span_sum(&runs, name)).sum();
    let pct = |d: Duration| d.as_secs_f64() / total.as_secs_f64() * 100.0;
    let mut breakdown = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        breakdown,
        "§8.8 breakdown over the {}-app suite (paper: 1.19% / 95.73% / 3.08%):",
        runs.len()
    );
    for name in PHASES {
        // Detection's sub-phases are indented under it.
        let label = if TOP_PHASES.contains(&name) {
            format!("  {name:<10}")
        } else {
            format!("    {name:<8}")
        };
        let d = span_sum(&runs, name);
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

    for name in PHASES {
        let mut h = Histogram::new();
        for run in &runs {
            h.record(u64::try_from(run.recorder.span_total(name).as_micros()).unwrap_or(u64::MAX));
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The timing record and the ledger's suite record analyze one
    /// population with one configuration: their counters agree key for
    /// key, and the detector's racy pairs are Table 1's potential count.
    #[test]
    fn timing_and_suite_records_count_one_population() {
        let timing = measure_suite().record;
        let suite = suite_ledger_record(ledger::Kind::Suite);
        assert_eq!(timing.counters, suite.counters);
        let potential = suite.population.expect("suite population").tallies["potential"];
        assert_eq!(potential, 2320, "Table 1's potential total");
        assert_eq!(timing.counters["detector.racy_pairs"], potential);
    }

    /// Every suite time is read from the apps' spans. On K-9 the
    /// detection sub-phases each take time and nest inside detection,
    /// and the record's total is its four phases' sum.
    #[test]
    fn suite_times_are_span_totals() {
        let row = table1_rows().into_iter().find(|r| r.name == "K-9").unwrap();
        let run = run_row_timed(&row);
        let span = |name: &str| run.recorder.span_total(name);
        for sub in ["pointsto", "escape", "detect"] {
            assert!(span(sub) > Duration::ZERO, "{sub}");
        }
        assert!(span("pointsto") + span("escape") + span("detect") <= span("detection"));

        let rec = suite_record(
            ledger::Kind::Timing,
            std::slice::from_ref(&run),
            Duration::ZERO,
        );
        let phases: f64 = TOP_PHASES
            .iter()
            .map(|p| rec.times[&format!("phase.{p}")])
            .sum();
        assert!(
            (rec.times["phase.total"] - phases).abs() < 1e-9,
            "{:?}",
            rec.times
        );
        assert_eq!(rec.times["suite.cpu_secs"], rec.times["phase.total"]);
        for (key, name) in LAYER_TIMES {
            assert!(rec.times[key] > 0.0, "{key}");
            assert_eq!(rec.times[key], span(name).as_secs_f64());
        }
        assert_eq!(rec.times["phase.escape"], span("escape").as_secs_f64());
    }
}
