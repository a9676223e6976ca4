//! The `timing` driver's suite measurement: the §8.8 phase-time
//! breakdown and Table 1's warning population as one `timing` ledger
//! record, plus the one-step write every bench driver ends with.

use crate::{render_table, run_row_timed, AppRun};
use nadroid_core::Summary;
use nadroid_corpus::table1_rows;
use nadroid_ledger as ledger;
use std::collections::BTreeMap;
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

/// The `timing` ledger record of a suite run: wall and CPU seconds,
/// per-phase seconds summed across the app runs, the app count, every
/// recorder counter summed over the apps, and the warning population
/// (each app's surviving ids, and the Figure-5 tallies). Every time but
/// the suite's wall clock is a sum of the apps' span totals.
fn suite_record(runs: &[AppRun], wall: Duration) -> ledger::Record {
    let total: Duration = TOP_PHASES.iter().map(|name| span_sum(runs, name)).sum();
    let mut rec = ledger::Record::new(ledger::Kind::Timing);
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

    let mut tallies: BTreeMap<String, u64> = rec
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("filter.") && name.ends_with(".killed"))
        .map(|(name, &v)| (name.clone(), v))
        .collect();
    let sum = |stage: fn(&Summary) -> usize| -> u64 {
        runs.iter().map(|run| stage(&run.summary) as u64).sum()
    };
    tallies.insert("potential".into(), sum(|s| s.potential));
    tallies.insert("after_sound".into(), sum(|s| s.after_sound));
    tallies.insert("after_unsound".into(), sum(|s| s.after_unsound));
    let mut apps: Vec<ledger::AppPopulation> = runs
        .iter()
        .map(|run| ledger::AppPopulation::new(run.row.name, run.surviving_ids.clone()))
        .collect();
    apps.sort_by(|a, b| a.app.cmp(&b.app));
    rec.population = Some(ledger::Population { apps, tallies });
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
/// `BENCH_timing.json`.
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
    let record = suite_record(&runs, suite_wall);

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
    use crate::analyze_program;
    use nadroid_corpus::{generate, spec_for};

    /// The timing record pins Table 1's population: the suite totals,
    /// the detector's racy pairs as the potential count, no histograms,
    /// and for each app the ids its provenance reports as surviving.
    #[test]
    fn timing_record_pins_the_table1_population() {
        let rec = measure_suite().record;
        assert!(rec.hists.is_empty(), "{:?}", rec.hists.keys());
        let pop = rec.population.expect("timing population");
        let totals = [
            ("potential", 2320),
            ("after_sound", 481),
            ("after_unsound", 120),
        ];
        for (stage, n) in totals {
            assert_eq!(pop.tallies[stage], n, "Table 1's {stage} total");
        }
        assert_eq!(rec.counters["detector.racy_pairs"], 2320);
        let mhb = "filter.MHB.killed";
        assert_eq!(pop.tallies[mhb], rec.counters[mhb]);

        let rows = table1_rows();
        assert_eq!(pop.apps.len(), rows.len());
        for row in &rows {
            let app = generate(&spec_for(row));
            let analysis = analyze_program(&app.program);
            let ids = analysis
                .warning_provenances()
                .into_iter()
                .filter(|p| p.survived)
                .map(|p| p.id)
                .collect();
            let recorded = pop.apps.iter().find(|a| a.app == row.name);
            assert_eq!(recorded, Some(&ledger::AppPopulation::new(row.name, ids)));
        }
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

        let rec = suite_record(std::slice::from_ref(&run), Duration::ZERO);
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
