//! Shared harness for the evaluation binaries: suite execution,
//! Figure 5 tallies, and plain-text table and CSV rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;

use nadroid_core::{analyze, Analysis, AnalysisConfig, PairType, Summary};
use nadroid_corpus::{generate, spec_for, GeneratedApp, PaperRow};
use nadroid_detector::{warning_id, UafWarning};
use nadroid_filters::FilterKind;
use nadroid_ir::{parse_program, print_program, Program};
use nadroid_obs as obs;

/// One evaluated application: the generated program, its planted ground
/// truth, and the static pipeline's results.
pub struct AppRun {
    /// The Table 1 reference row.
    pub row: PaperRow,
    /// The generated app (program + planted patterns).
    pub app: GeneratedApp,
    /// The analysis summary.
    pub summary: Summary,
    /// Surviving pair types.
    pub types: Vec<(PairType, usize)>,
    /// This app's recorder (installed around the parse of the app's
    /// printed text and `analyze`, on the running thread only, so
    /// parallel rows never share metrics). Its span totals are the
    /// app's phase times.
    pub recorder: obs::Recorder,
    /// The rendered JSON run report for this app.
    pub report: String,
    /// The `nadroid-provenance/4` JSON document: stable warning ids,
    /// derivation trees, per-filter audit trail, and HB evidence.
    pub provenance: String,
    /// Stable ids of the warnings no §6 filter pruned, in report order.
    pub surviving_ids: Vec<String>,
}

/// Generate one Table 1 app, parse its printed text back and analyze it,
/// capturing spans and metrics into a per-app recorder, plus the
/// warning-provenance summary.
#[must_use]
pub fn run_row(row: &PaperRow) -> AppRun {
    run_row_inner(row, true)
}

/// [`run_row`] minus the provenance capture: auditing and rendering
/// every warning's derivation is real work, and the §8.8 timing
/// baseline measures the analysis pipeline, not the debugging exporter.
/// `provenance` comes back empty. The analysis runs the same default
/// configuration as [`run_row`], so the timed record counts the
/// Table 1 / Figure 5 populations, and `surviving_ids` is the same.
#[must_use]
pub fn run_row_timed(row: &PaperRow) -> AppRun {
    run_row_inner(row, false)
}

fn run_row_inner(row: &PaperRow, capture_provenance: bool) -> AppRun {
    let app = generate(&spec_for(row));
    let text = print_program(&app.program);
    let recorder = obs::Recorder::new();
    let (summary, types, report, provenance, surviving_ids) = {
        let analysis = {
            let _guard = recorder.install();
            // The parse of the app's printed text is timed beside the
            // §8.8 phases, and must give back the generated program.
            let parsed =
                parse_program(&text).unwrap_or_else(|e| panic!("{}: printed text: {e}", row.name));
            assert!(
                parsed == app.program,
                "{}: the printed text parses to another program",
                row.name
            );
            drop(parsed);
            analyze(&app.program, &AnalysisConfig::default())
        };
        // The ids and the provenance are taken after the recorder is
        // uninstalled, so they add to no phase time; the timing driver
        // skips the provenance entirely.
        let surviving_ids = analysis
            .unsound_outcomes()
            .iter()
            .filter(|o| o.survives())
            .map(|o| warning_id(analysis.program(), analysis.threads(), &o.warning))
            .collect();
        let provenance = if capture_provenance {
            nadroid_core::render_provenance_json(&analysis)
        } else {
            String::new()
        };
        (
            analysis.summary(),
            analysis.survivor_types(),
            nadroid_core::render_run_report(&analysis, &recorder),
            provenance,
            surviving_ids,
        )
    };
    AppRun {
        row: row.clone(),
        app,
        summary,
        types,
        recorder,
        report,
        provenance,
        surviving_ids,
    }
}

/// Write each app's JSON run report and provenance summary under `dir`
/// (`<app>.report.json` and `<app>.provenance.json` per app; the app
/// name is sanitized to a filesystem-safe slug).
///
/// # Errors
///
/// Propagates I/O errors from creating the directory or writing a file.
pub fn write_reports(runs: &[AppRun], dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for run in runs {
        let slug = app_slug(run.row.name);
        std::fs::write(dir.join(format!("{slug}.report.json")), &run.report)?;
        std::fs::write(dir.join(format!("{slug}.provenance.json")), &run.provenance)?;
    }
    Ok(())
}

/// Filesystem-safe slug for an app name (non-alphanumerics become `_`).
#[must_use]
pub fn app_slug(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Run all suite rows in parallel (one OS thread per row; the analyses
/// are independent). Results come back in row order.
#[must_use]
pub fn run_rows_parallel(rows: &[PaperRow]) -> Vec<AppRun> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = rows
            .iter()
            .map(|row| scope.spawn(move || run_row(row)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analysis thread panicked"))
            .collect()
    })
}

/// Run the analysis (without the reporting extras) on a program under
/// the default configuration.
#[must_use]
pub fn analyze_program(program: &Program) -> Analysis<'_> {
    analyze(program, &AnalysisConfig::default())
}

/// Individual-filter effectiveness over a set of analyses (Figure 5):
/// for each filter, the number of distinct pairs it would prune on its
/// own, over the relevant base population.
///
/// Built on [`nadroid_filters::tally_outcomes`] — the same accounting
/// `analyze` records as `filter.<NAME>.killed` counters — so the
/// figure's bars and the run-report metrics agree by construction.
#[must_use]
pub fn filter_effectiveness(analyses: &[Analysis<'_>]) -> FilterEffect {
    let mut potential = 0usize;
    let mut after_sound = 0usize;
    let mut after_unsound = 0usize;
    let mut sound_counts = vec![0usize; FilterKind::sound().len()];
    let mut unsound_counts = vec![0usize; FilterKind::unsound().len()];
    let mut mayhb = 0usize;

    for a in analyses {
        let s = a.summary();
        potential += s.potential;
        after_sound += s.after_sound;
        after_unsound += s.after_unsound;
        // Individual sound filters over all potential pairs.
        let sound = nadroid_filters::tally_outcomes(a.sound_outcomes(), FilterKind::sound());
        for (i, t) in sound.iter().enumerate() {
            sound_counts[i] += t.killed;
        }
        // Individual unsound filters over the sound survivors.
        let unsound = nadroid_filters::tally_outcomes(a.unsound_outcomes(), FilterKind::unsound());
        for (i, t) in unsound.iter().enumerate() {
            unsound_counts[i] += t.killed;
        }
        mayhb +=
            nadroid_filters::distinct_killed_by_any(a.unsound_outcomes(), FilterKind::may_hb());
    }
    FilterEffect {
        potential,
        after_sound,
        after_unsound,
        sound_counts,
        unsound_counts,
        mayhb,
    }
}

/// Aggregated Figure 5 data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterEffect {
    /// Total potential pairs.
    pub potential: usize,
    /// Pairs after the sound filters.
    pub after_sound: usize,
    /// Pairs after all filters.
    pub after_unsound: usize,
    /// Individual prune counts for MHB, IG, IA (over potential).
    pub sound_counts: Vec<usize>,
    /// Individual prune counts for RHB, CHB, PHB, MA, UR, TT (over the
    /// sound survivors).
    pub unsound_counts: Vec<usize>,
    /// mayHB = RHB ∪ CHB ∪ PHB prune count (over the sound survivors).
    pub mayhb: usize,
}

impl FilterEffect {
    /// Percentage helper.
    #[must_use]
    pub fn pct(num: usize, den: usize) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64 * 100.0
        }
    }
}

/// Map a warning back to its planted cluster index: pattern fields are
/// named `<x><idx>`, so the trailing digits of the racy field identify
/// the cluster.
#[must_use]
pub fn cluster_of(program: &Program, w: &UafWarning) -> Option<usize> {
    let name = program.field(w.field).name();
    let digits: String = name
        .chars()
        .rev()
        .take_while(char::is_ascii_digit)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    digits.parse().ok()
}

/// Render a plain-text table: a header row plus aligned data rows.
#[must_use]
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Write the Table 1 results as CSV — the shape of the original
/// artifact's `ResultAnalysis.csv` (appendix A.5). `harmful` holds each
/// run's confirmed count, in `runs` order.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_csv(
    runs: &[AppRun],
    harmful: &[usize],
    path: &std::path::Path,
) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "group,app,loc,ec,pc,threads,potential,after_sound,after_unsound,harmful,paper_potential,paper_after_sound,paper_after_unsound,paper_harmful"
    )?;
    for (run, harmful) in runs.iter().zip(harmful) {
        writeln!(
            f,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            match run.row.group {
                nadroid_corpus::AppGroup::Train => "train",
                nadroid_corpus::AppGroup::Test => "test",
            },
            run.row.name,
            run.summary.loc,
            run.summary.ec,
            run.summary.pc,
            run.summary.threads,
            run.summary.potential,
            run.summary.after_sound,
            run.summary.after_unsound,
            harmful,
            run.row.potential,
            run.row.after_sound,
            run.row.after_unsound,
            run.row.harmful,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadroid_corpus::{AppSpec, Expectation, PatternKind};

    #[test]
    fn run_row_matches_planted_ground_truth() {
        // A small real suite row end-to-end.
        let rows = nadroid_corpus::table1_rows();
        let row = rows.iter().find(|r| r.name == "Dns66").unwrap();
        let run = run_row(row);
        let detected_planted = run.app.planted.iter().filter(|k| k.detected()).count();
        assert_eq!(run.summary.potential, detected_planted);
        let surviving_planted = run
            .app
            .planted
            .iter()
            .filter(|k| {
                matches!(
                    k.expectation(),
                    Expectation::Harmful(_) | Expectation::FalsePositive(_)
                )
            })
            .count();
        assert_eq!(run.summary.after_unsound, surviving_planted);
    }

    #[test]
    fn figure5_counts_match_recorded_counters() {
        // The Figure 5 driver numbers and the `filter.<NAME>.*` counters
        // must agree exactly: both sides go through `tally_outcomes`.
        let rows = nadroid_corpus::table1_rows();
        let row = rows.iter().find(|r| r.name == "Dns66").unwrap();
        let run = run_row(row);
        let app = generate(&spec_for(row));
        let analysis = analyze_program(&app.program);
        let eff = filter_effectiveness(std::slice::from_ref(&analysis));
        for (i, &k) in FilterKind::sound().iter().enumerate() {
            assert_eq!(
                run.recorder.counter_value(&format!("filter.{k}.killed")),
                eff.sound_counts[i] as u64,
                "sound filter {k}"
            );
        }
        for (i, &k) in FilterKind::unsound().iter().enumerate() {
            assert_eq!(
                run.recorder.counter_value(&format!("filter.{k}.killed")),
                eff.unsound_counts[i] as u64,
                "unsound filter {k}"
            );
        }
        assert_eq!(
            run.recorder.counter_value("filter.mayHB.killed"),
            eff.mayhb as u64
        );
    }

    #[test]
    fn run_reports_write_one_file_per_app() {
        let rows = nadroid_corpus::table1_rows();
        let runs: Vec<AppRun> = rows
            .iter()
            .filter(|r| r.name == "Dns66")
            .map(run_row)
            .collect();
        let dir = std::env::temp_dir().join("nadroid_reports_test");
        write_reports(&runs, &dir).unwrap();
        let text = std::fs::read_to_string(dir.join("Dns66.report.json")).unwrap();
        assert!(text.contains("\"app\": \"Dns66\""), "{text}");
        assert!(text.contains("\"filter.MHB.examined\""), "{text}");
        assert!(text.contains("{\"name\": \"detection\""), "{text}");
        let prov = std::fs::read_to_string(dir.join("Dns66.provenance.json")).unwrap();
        assert!(
            prov.contains("\"schema\": \"nadroid-provenance/4\""),
            "{prov}"
        );
        assert!(prov.contains("racyPair"), "{prov}");
    }

    #[test]
    fn surviving_ids_are_stable_and_listed_in_the_provenance() {
        let rows = nadroid_corpus::table1_rows();
        let row = rows.iter().find(|r| r.name == "Dns66").unwrap();
        let a = run_row(row);
        let b = run_row(row);
        assert!(!a.surviving_ids.is_empty(), "Dns66 has survivors");
        assert_eq!(a.surviving_ids, b.surviving_ids, "ids survive reruns");
        let timed = run_row_timed(row);
        assert!(timed.provenance.is_empty());
        assert_eq!(timed.surviving_ids, a.surviving_ids, "either mode");
        for id in &a.surviving_ids {
            assert!(id.starts_with("w:") && id.len() == 18, "bad id {id}");
            assert!(a.provenance.contains(id), "{id} missing from JSON");
        }
    }

    #[test]
    fn cluster_mapping_round_trips() {
        let app = generate(
            &AppSpec::new("C", 5)
                .with(PatternKind::HarmfulEcPc, 2)
                .with(PatternKind::Ig, 1),
        );
        let analysis = analyze_program(&app.program);
        for w in analysis.warnings() {
            let idx = cluster_of(&app.program, w).expect("cluster index");
            assert!(idx < app.planted.len());
        }
    }

    #[test]
    fn csv_writer_produces_one_row_per_app() {
        let rows = nadroid_corpus::table1_rows();
        let runs: Vec<AppRun> = rows
            .iter()
            .filter(|r| r.name == "Dns66" || r.name == "Aard")
            .map(run_row)
            .collect();
        let path = std::env::temp_dir()
            .join("nadroid_csv_test")
            .join("out.csv");
        write_csv(&runs, &[8, 0], &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3, "header + 2 rows:\n{text}");
        assert!(text.starts_with("group,app,loc"));
        assert!(text.contains("test,Aard"));
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["app", "n"],
            &[
                vec!["Music".into(), "7".into()],
                vec!["K-9".into(), "123".into()],
            ],
        );
        assert!(t.contains("Music"));
        assert!(t.lines().count() == 4);
    }
}
