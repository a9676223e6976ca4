//! The nAdroid-rs pipeline (Figure 2 of the paper): modeling →
//! detection → filtering → reporting, plus the false-positive taxonomy.
//! The pipeline is static: dynamic confirmation of its surviving
//! warnings sits on top of it, in `nadroid-confirm`.
//!
//! ```text
//! APK  ──►  threadified program  ──►  potential UAFs  ──►  remaining UAFs
//!      §4 modeling           §5 detection          §6 filtering
//! ```
//!
//! # Example
//!
//! ```
//! use nadroid_core::{analyze, AnalysisConfig};
//! use nadroid_ir::parse_program;
//!
//! let p = parse_program(
//!     r#"
//!     app Demo
//!     activity Console {
//!         field bound: Console
//!         cb onCreate { bind this }
//!         cb onServiceConnected { bound = new Console }
//!         cb onServiceDisconnected { bound = null }
//!         cb onCreateContextMenu { use bound }
//!     }
//!     "#,
//! ).unwrap();
//! let analysis = analyze(&p, &AnalysisConfig::default());
//! let summary = analysis.summary();
//! assert_eq!(summary.after_unsound, 1, "the ConnectBot UAF survives");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fpclass;
pub mod json;
pub mod provenance;
pub mod render;
pub mod report;

pub use fpclass::{classify_fp, FpCause, VerdictColumns};
pub use json::{
    esc, esc_into, fingerprint, parse_json, program_hash, render_json, render_run_report,
    warning_population_digest, JsonValue,
};
pub use provenance::{
    render_explain, render_explain_from_json, render_provenance_json, render_provenance_json_with,
    ConfirmVerdict, Confirmation, DerivationNode, WarningProvenance, PROVENANCE_SCHEMA,
};
pub use render::render_report;
pub use report::{classify_pair, rank_key, render_warning, Endpoint, PairType, RenderedWarning};

use nadroid_detector::{detect, distinct_pairs, DetectorOptions, UafWarning};
use nadroid_filters::refute::{Refutation, Refuter};
use nadroid_filters::{FilterKind, FilterOutcome, Filters};
use nadroid_hb::HbGraph;
use nadroid_ir::{InstrId, Program};
use nadroid_obs as obs;
use nadroid_pointsto::{Escape, PointsTo};
use nadroid_threadify::ThreadModel;

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Points-to sensitivity (the paper uses k = 2).
    pub k: u32,
    /// Detector options (§5's Chord modifications).
    pub detector: DetectorOptions,
    /// Sound filters to apply, in order.
    pub sound_filters: Vec<FilterKind>,
    /// Unsound filters to apply after the sound ones.
    pub unsound_filters: Vec<FilterKind>,
    /// Worker threads for the parallel phases (detection and
    /// filtering). `1` (the default) keeps every phase on the
    /// calling thread; any value produces byte-identical output — see
    /// `docs/parallelism.md`. The default honors the `NADROID_THREADS`
    /// environment variable so whole test suites can be swept across
    /// thread counts without plumbing.
    pub threads: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        let threads = std::env::var("NADROID_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map_or(1, |n| n.clamp(1, nadroid_par::MAX_THREADS));
        AnalysisConfig {
            k: 2,
            detector: DetectorOptions::default(),
            sound_filters: FilterKind::sound().to_vec(),
            unsound_filters: FilterKind::unsound().to_vec(),
            threads,
        }
    }
}

/// Aggregate counts of one analysis — the per-app row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Approximate source lines.
    pub loc: usize,
    /// Static entry-callback count.
    pub ec: usize,
    /// Static posted-callback count.
    pub pc: usize,
    /// Static thread count (dummy main + task bodies + native threads).
    pub threads: usize,
    /// Potential UAF pairs detected (§5).
    pub potential: usize,
    /// Pairs remaining after the sound filters.
    pub after_sound: usize,
    /// Pairs remaining after sound + unsound filters.
    pub after_unsound: usize,
    /// Unsound-pass survivors the sound reachability refuter refuted
    /// (distinct pairs; zero whenever the program uses no summarized
    /// enable/disable API).
    pub refuted: usize,
    /// Pairs remaining after the refutation pass — what the report
    /// actually shows. Equals `after_unsound - refuted`.
    pub after_refutation: usize,
}

/// The result of running the pipeline on one program.
#[derive(Debug)]
pub struct Analysis<'p> {
    program: &'p Program,
    config: AnalysisConfig,
    threads: ThreadModel,
    pts: PointsTo,
    escape: Escape,
    /// Raw warnings (per thread-pair granularity).
    warnings: Vec<UafWarning>,
    /// Outcome of the sound-filter pass over every warning.
    sound_outcomes: Vec<FilterOutcome>,
    /// Outcome of the unsound-filter pass over the sound survivors.
    unsound_outcomes: Vec<FilterOutcome>,
    /// Refutations of unsound-pass survivors, aligned with the
    /// surviving subset of `unsound_outcomes` (empty when nothing
    /// refutes).
    refutations: Vec<(UafWarning, Refutation)>,
    /// The materialized happens-before relation every HB-family filter
    /// query was answered from.
    hb: HbGraph,
}

/// Run the full pipeline.
///
/// Each phase (§8.8: `modeling`, `hb`, `detection`, `filtering`) and
/// each detection sub-phase (`pointsto`, `escape`, `detect`) runs under
/// an [`nadroid_obs`] span, the only clock the pipeline keeps, and every
/// layer feeds the installed recorder's counters — see
/// `docs/observability.md` for the naming scheme. With no recorder
/// installed the instrumentation is a thread-local check. The
/// sub-phase spans nest inside the `detection` span, so their totals
/// never exceed it.
#[must_use]
pub fn analyze<'p>(program: &'p Program, config: &AnalysisConfig) -> Analysis<'p> {
    // The thread budget is ambient (thread-local) rather than plumbed
    // through every phase signature; the parallel phases read it via
    // `nadroid_par::current()` and fall back to sequential at 1.
    nadroid_par::with_threads(config.threads, || analyze_inner(program, config))
}

fn analyze_inner<'p>(program: &'p Program, config: &AnalysisConfig) -> Analysis<'p> {
    let _span = obs::span("analyze");

    let threads = {
        let _s = obs::span("modeling");
        ThreadModel::build(program)
    };
    if obs::recording() {
        obs::counter("model.threads", threads.thread_count() as u64);
        obs::counter(
            "model.entry_callbacks",
            threads.entry_callback_count() as u64,
        );
        obs::counter(
            "model.posted_callbacks",
            threads.posted_callback_count() as u64,
        );
    }

    let hb = {
        let _s = obs::span("hb");
        HbGraph::build(program, &threads)
    };

    let _detection_span = obs::span("detection");
    let pts = {
        let _s = obs::span("pointsto");
        PointsTo::run(program, &threads, config.k)
    };
    let escape = {
        let _s = obs::span("escape");
        Escape::compute(program, &threads, &pts)
    };
    let warnings = {
        let _s = obs::span("detect");
        detect(program, &threads, &pts, &escape, config.detector)
    };
    drop(_detection_span);

    let _filtering_span = obs::span("filtering");
    let filters = Filters::with_hb(program, &threads, &pts, &escape, &hb);
    let sound_outcomes = filters.pipeline(warnings.clone(), &config.sound_filters);
    let survivors: Vec<UafWarning> = sound_outcomes
        .iter()
        .filter(|o| o.survives())
        .map(|o| o.warning.clone())
        .collect();
    let unsound_outcomes = filters.pipeline(survivors, &config.unsound_filters);
    nadroid_filters::record_tallies(&sound_outcomes, &config.sound_filters);
    nadroid_filters::record_tallies(&unsound_outcomes, &config.unsound_filters);
    // The sound refutation pass (predicate-extended ordering) runs last,
    // over the unsound survivors only — mirroring where a human would
    // triage. It is a no-op unless the program uses a summarized
    // enable/disable API, so the §6 populations above are untouched.
    let refutations = {
        let _s = obs::span("refute");
        let refuter = Refuter::new(program, &threads, &hb);
        let mut refutations = Vec::new();
        for o in unsound_outcomes.iter().filter(|o| o.survives()) {
            if let Some(r) = refuter.refute(&o.warning) {
                refutations.push((o.warning.clone(), r));
            }
        }
        if obs::recording() {
            obs::counter("filters.refuted", refutations.len() as u64);
        }
        refutations
    };
    drop(_filtering_span);

    Analysis {
        program,
        config: config.clone(),
        threads,
        pts,
        escape,
        warnings,
        sound_outcomes,
        unsound_outcomes,
        refutations,
        hb,
    }
}

impl<'p> Analysis<'p> {
    /// The analyzed program.
    #[must_use]
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The configuration the pipeline ran with.
    #[must_use]
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The threadification model.
    #[must_use]
    pub fn threads(&self) -> &ThreadModel {
        &self.threads
    }

    /// The points-to result.
    #[must_use]
    pub fn pts(&self) -> &PointsTo {
        &self.pts
    }

    /// The escape result.
    #[must_use]
    pub fn escape(&self) -> &Escape {
        &self.escape
    }

    /// All raw warnings (per thread-pair granularity).
    #[must_use]
    pub fn warnings(&self) -> &[UafWarning] {
        &self.warnings
    }

    /// Sound-filter outcomes over all warnings.
    #[must_use]
    pub fn sound_outcomes(&self) -> &[FilterOutcome] {
        &self.sound_outcomes
    }

    /// Unsound-filter outcomes over the sound survivors.
    #[must_use]
    pub fn unsound_outcomes(&self) -> &[FilterOutcome] {
        &self.unsound_outcomes
    }

    /// Warnings surviving both filter stages and the refutation pass —
    /// the reported set.
    #[must_use]
    pub fn survivors(&self) -> Vec<&UafWarning> {
        self.unsound_outcomes
            .iter()
            .filter(|o| o.survives())
            .map(|o| &o.warning)
            .filter(|w| self.refutation_of(w).is_none())
            .collect()
    }

    /// Unsound-pass survivors the refuter refuted, with the
    /// contradiction evidence.
    #[must_use]
    pub fn refutations(&self) -> &[(UafWarning, Refutation)] {
        &self.refutations
    }

    /// The refutation of one warning, if the refuter refuted it.
    #[must_use]
    pub fn refutation_of(&self, w: &UafWarning) -> Option<&Refutation> {
        self.refutations
            .iter()
            .find(|(rw, _)| rw == w)
            .map(|(_, r)| r)
    }

    /// The happens-before graph the pipeline built and queried.
    #[must_use]
    pub fn hb(&self) -> &HbGraph {
        &self.hb
    }

    /// The filter engine, for ad-hoc queries. Borrows the analysis's own
    /// [`HbGraph`] rather than rebuilding one.
    #[must_use]
    pub fn filters(&self) -> Filters<'_> {
        Filters::with_hb(
            self.program,
            &self.threads,
            &self.pts,
            &self.escape,
            &self.hb,
        )
    }

    /// Aggregate counts (one Table 1 row), at distinct (use, free) pair
    /// granularity.
    #[must_use]
    pub fn summary(&self) -> Summary {
        let survivors_sound: Vec<UafWarning> = self
            .sound_outcomes
            .iter()
            .filter(|o| o.survives())
            .map(|o| o.warning.clone())
            .collect();
        let survivors_unsound: Vec<UafWarning> = self
            .unsound_outcomes
            .iter()
            .filter(|o| o.survives())
            .map(|o| o.warning.clone())
            .collect();
        let survivors_all: Vec<UafWarning> = self.survivors().into_iter().cloned().collect();
        let after_unsound = distinct_pairs(&survivors_unsound);
        let after_refutation = distinct_pairs(&survivors_all);
        Summary {
            loc: self.program.loc(),
            ec: self.threads.entry_callback_count(),
            pc: self.threads.posted_callback_count(),
            threads: self.threads.thread_count(),
            potential: distinct_pairs(&self.warnings),
            after_sound: distinct_pairs(&survivors_sound),
            after_unsound,
            refuted: after_unsound - after_refutation,
            after_refutation,
        }
    }

    /// Distribution of surviving pairs over Table 1's type columns
    /// (distinct pairs; a pair racing under several thread pairs counts
    /// once, under its highest-ranked type).
    #[must_use]
    pub fn survivor_types(&self) -> Vec<(PairType, usize)> {
        use std::collections::HashMap;
        let mut best: HashMap<(InstrId, InstrId), PairType> = HashMap::new();
        for w in self.survivors() {
            let ty = classify_pair(&self.threads, w);
            best.entry(w.pair())
                .and_modify(|t| {
                    if rank_key(ty) < rank_key(*t) {
                        *t = ty;
                    }
                })
                .or_insert(ty);
        }
        let mut counts: Vec<(PairType, usize)> = PairType::all()
            .iter()
            .map(|&t| (t, best.values().filter(|&&v| v == t).count()))
            .collect();
        counts.retain(|(_, n)| *n > 0);
        counts
    }

    /// Run the no-sleep energy-bug client (§9) over the same analysis
    /// results: wake-lock acquires with no release ordered after them.
    #[must_use]
    pub fn no_sleep_warnings(&self) -> Vec<nadroid_filters::nosleep::NoSleepWarning> {
        nadroid_filters::nosleep::detect_no_sleep(self.program, &self.threads, &self.pts, &self.hb)
    }

    /// Render surviving warnings for the programmer, ranked by the §7
    /// hypotheses (PC- and NT-involved pairs first).
    #[must_use]
    pub fn rendered_survivors(&self) -> Vec<RenderedWarning> {
        let mut out: Vec<RenderedWarning> = self
            .survivors()
            .into_iter()
            .map(|w| render_warning(self.program, &self.threads, w))
            .collect();
        out.sort_by_key(|r| {
            (
                rank_key(r.pair_type),
                r.use_site.clone(),
                r.free_site.clone(),
            )
        });
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadroid_ir::parse_program;

    const FIG1A: &str = r#"
        app Fig1a
        activity Console {
            field bound: Console
            cb onCreate { bind this }
            cb onServiceConnected { bound = new Console }
            cb onServiceDisconnected { bound = null }
            cb onCreateContextMenu { use bound }
        }
    "#;

    #[test]
    fn pipeline_detects_and_survives_fig1a() {
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let s = a.summary();
        assert!(s.potential >= 1);
        assert_eq!(s.after_unsound, 1);
        let types = a.survivor_types();
        assert_eq!(types, vec![(PairType::EcPc, 1)]);
    }

    #[test]
    fn filtered_program_reports_zero() {
        let p = parse_program(
            r#"
            app Clean
            activity M {
                field f: M
                cb onClick { if f != null { use f } }
                cb onLongClick { f = null }
            }
            "#,
        )
        .unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let s = a.summary();
        assert!(s.potential >= 1, "detected before filtering");
        assert_eq!(s.after_sound, 0, "IG prunes it");
    }

    #[test]
    fn fp_taxonomy_flags_path_insensitivity() {
        let p = parse_program(
            r#"
            app Fp
            activity M {
                field f: M
                cb onCreate { f = new M }
                cb onClick {
                    if ? { } else { use f }
                }
                cb onLongClick {
                    if ? { f = null  f = new M } else { }
                }
            }
            "#,
        )
        .unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        // The free is immediately followed by a re-allocation on the same
        // path, so no NPE is reachable (`nadroid-confirm` checks that on
        // this program); the taxonomy blames the opaque branches.
        let survivors = a.survivors();
        assert!(!survivors.is_empty());
        assert!(survivors
            .iter()
            .all(|w| classify_fp(&p, a.pts(), w) == FpCause::PathInsensitivity));
    }

    // Figure 1a with a dialog listener gated by a show/dismiss pair:
    // the warning survives every §6 filter, but the refuter proves the
    // onShow callback can never be delivered after onStop's dismiss.
    const DIALOG_DISMISS: &str = r#"
        app Dlg
        activity Main {
            field f: Main
            field dlg: Dlg
            cb onCreate {
                dlg = new Dlg
                show dlg
                f = new Main
            }
            cb onStop { dismiss dlg }
            cb onDestroy { f = null }
        }
        dialog Dlg in Main {
            cb onShow { use outer.f }
        }
    "#;

    #[test]
    fn refutation_prunes_the_disabled_dialog_warning() {
        let p = parse_program(DIALOG_DISMISS).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let s = a.summary();
        assert_eq!(s.after_unsound, 1, "every §6 filter keeps it");
        assert_eq!(s.refuted, 1, "the refuter proves it infeasible");
        assert_eq!(s.after_refutation, 0);
        assert!(a.survivors().is_empty(), "reported set is post-refutation");
        assert_eq!(a.refutations().len(), 1);
        let (w, r) = &a.refutations()[0];
        assert!(a.refutation_of(w).is_some());
        assert!(!r.chain.is_empty(), "contradiction chain recorded");
    }

    #[test]
    fn refutation_never_touches_summarized_api_free_programs() {
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let s = a.summary();
        assert_eq!(s.refuted, 0, "no summarized enable/disable API in play");
        assert_eq!(s.after_refutation, s.after_unsound);
    }

    #[test]
    fn every_phase_runs_under_its_span() {
        let p = parse_program(FIG1A).unwrap();
        let rec = nadroid_obs::Recorder::new();
        {
            let _g = rec.install();
            let _a = analyze(&p, &AnalysisConfig::default());
        }
        let spans = rec.spans();
        let depth = |name: &str| {
            let mut found = spans.iter().filter(|s| s.name == name);
            let span = found.next().unwrap_or_else(|| panic!("no {name} span"));
            assert!(found.next().is_none(), "one {name} span");
            span.depth
        };
        for phase in ["modeling", "hb", "detection", "filtering"] {
            assert_eq!(depth(phase), depth("analyze") + 1, "{phase}");
        }
        for sub in ["pointsto", "escape", "detect"] {
            assert_eq!(depth(sub), depth("detection") + 1, "{sub}");
        }
        assert_eq!(depth("refute"), depth("filtering") + 1);
    }

    #[test]
    fn sound_only_config() {
        let p = parse_program(FIG1A).unwrap();
        let cfg = AnalysisConfig {
            unsound_filters: Vec::new(),
            ..Default::default()
        };
        let a = analyze(&p, &cfg);
        assert_eq!(a.summary().after_sound, a.summary().after_unsound);
    }

    #[test]
    fn ranked_rendering_dedups_pairs() {
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let rendered = a.rendered_survivors();
        assert_eq!(rendered.len(), 1);
        assert!(rendered[0].use_lineage.starts_with("main > "));
        assert_eq!(rendered[0].pair_type, PairType::EcPc);
        assert!(rendered[0].field.contains("bound"));
    }
}
