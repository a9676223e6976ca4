//! The static-analysis workloads, `paper27` and `fleet`.
//!
//! One operation is one app: `parse_program` of its printed text, then
//! `analyze`, then the Table 1 summary. Traced passes make the same
//! calls layer by layer, each inside its own span.

use crate::inputs::{self, App, Counts};
use crate::passes::Passes;
use crate::speed::{self, Timed};
use crate::stats::{self, Tail};
use crate::trace::{Profile, Tracer};
use crate::{Opts, Outcome, SETUPS};
use nadroid_core::{analyze, AnalysisConfig, Summary};
use nadroid_corpus::AppSpec;
use nadroid_detector::{detect_with, distinct_pairs, UafWarning};
use nadroid_filters::refute::Refuter;
use nadroid_filters::{FilterOutcome, Filters};
use nadroid_hb::HbGraph;
use nadroid_ir::parse_program;
use nadroid_obs as obs;
use nadroid_pointsto::{Escape, PointsTo};
use nadroid_threadify::ThreadModel;
use std::collections::BTreeMap;
use std::time::Instant;

/// The 27 Table 1 apps. Points-to on the few heavy apps sets the tail.
pub fn paper27(opts: &Opts) -> Outcome {
    run(opts, "paper27", inputs::paper_specs, Tail::Max)
}

/// 1000 seeded small-to-heavy apps plus the six refutation apps: many
/// small apps weigh per-app fixed costs, and only this workload gives
/// the predicate and refutation layers work.
pub fn fleet(opts: &Opts) -> Outcome {
    run(opts, "fleet", inputs::fleet_specs, Tail::P99)
}

fn config() -> AnalysisConfig {
    AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    }
}

/// Counts the traced passes add up layer by layer.
#[derive(Default)]
struct Tally {
    bytes: usize,
    threads: usize,
    callbacks: usize,
    potential: usize,
    reported: usize,
    refuted: usize,
}

/// The operation as users call it.
fn analyze_text(text: &str, cfg: &AnalysisConfig) -> Result<Counts, String> {
    let program = parse_program(text).map_err(|e| format!("parse error: {e}"))?;
    let counts = Counts::from(analyze(&program, cfg).summary());
    Ok(counts)
}

fn survivors(outcomes: &[FilterOutcome]) -> Vec<UafWarning> {
    outcomes
        .iter()
        .filter(|o| o.survives())
        .map(|o| o.warning.clone())
        .collect()
}

/// The operation made layer by layer through each layer's public entry
/// point, in `analyze`'s order, each call inside a span.
fn analyze_layered(
    text: &str,
    cfg: &AnalysisConfig,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<Counts, String> {
    t.span("bench.app", |t| {
        let program = t
            .span("ir.parse", |_| parse_program(text))
            .map_err(|e| format!("parse error: {e}"))?;
        let threads = t.span("threadify.build", |_| ThreadModel::build(&program));
        let hb = t.span("hb.build", |_| HbGraph::build(&program, &threads));
        let pts = t.span("pointsto.solve", |_| {
            PointsTo::run(&program, &threads, cfg.k)
        });
        let escape = t.span("pointsto.escape", |_| {
            Escape::compute(&program, &threads, &pts)
        });
        let warnings = t.span("detector.detect", |_| {
            detect_with(&program, &threads, &pts, &escape, cfg.detector, None)
        });
        let filters = Filters::with_hb(&program, &threads, &pts, &escape, &hb);
        let sound = t.span("filters.sound", |_| {
            filters.pipeline(warnings.clone(), &cfg.sound_filters)
        });
        let unsound = t.span("filters.unsound", |_| {
            filters.pipeline(survivors(&sound), &cfg.unsound_filters)
        });
        let reported: Vec<UafWarning> = t.span("filters.refute", |_| {
            let refuter = Refuter::new(&program, &threads, &hb);
            survivors(&unsound)
                .into_iter()
                .filter(|w| refuter.refute(w).is_none())
                .collect()
        });
        // `Analysis::summary`'s fields, from the same calls it makes.
        let summary = t.span("core.summary", |_| {
            let after_unsound = distinct_pairs(&survivors(&unsound));
            let after_refutation = distinct_pairs(&reported);
            Summary {
                loc: program.loc(),
                ec: threads.entry_callback_count(),
                pc: threads.posted_callback_count(),
                threads: threads.thread_count(),
                potential: distinct_pairs(&warnings),
                after_sound: distinct_pairs(&survivors(&sound)),
                after_unsound,
                refuted: after_unsound - after_refutation,
                after_refutation,
            }
        });
        tally.bytes += text.len();
        tally.threads += summary.threads;
        tally.callbacks += summary.ec + summary.pc;
        tally.potential += summary.potential;
        tally.reported += summary.after_refutation;
        tally.refuted += summary.refuted;
        Ok(Counts::from(summary))
    })
}

/// One pass over every app: each op's time and result.
fn pass(
    apps: &[App],
    cfg: &AnalysisConfig,
    t: &mut Tracer,
    tally: &mut Tally,
    traced: bool,
) -> Vec<(Timed, Result<Counts, String>)> {
    apps.iter()
        .map(|app| {
            speed::time(|| {
                if traced {
                    analyze_layered(&app.text, cfg, t, tally)
                } else {
                    analyze_text(&app.text, cfg)
                }
            })
        })
        .collect()
}

fn check(apps: &[App], results: &[(Timed, Result<Counts, String>)], out: &mut Outcome) {
    for (app, (_, got)) in apps.iter().zip(results) {
        out.attempted += 1;
        match got {
            Ok(c) if *c == app.expected => {}
            Ok(c) => out.fail(format!(
                "{}: got {c:?}, planted {:?}",
                app.name, app.expected
            )),
            Err(e) => out.fail(format!("{}: {e}", app.name)),
        }
    }
}

fn run(opts: &Opts, workload: &str, specs: fn(u64, bool) -> Vec<AppSpec>, tail: Tail) -> Outcome {
    let (setup_s, apps) = stats::timed_setup(SETUPS, || {
        let (t, list) = speed::time(|| specs(opts.seed, opts.smoke));
        let mut secs = t.secs;
        let apps = list
            .iter()
            .map(|s| {
                let (t, app) = speed::time(|| inputs::build(s).1);
                secs += t.secs;
                app
            })
            .collect::<Vec<App>>();
        (secs, apps)
    });
    let cfg = config();
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(0, Instant::now());
    let mut tally = Tally::default();
    let warm = pass(&apps, &cfg, &mut tracer, &mut tally, false);
    check(&apps, &warm, &mut out);

    let recorder = obs::Recorder::new();
    let passes = Passes::run(
        opts,
        |traced| {
            tracer.set_on(traced);
            let _installed = traced.then(|| recorder.install());
            let results = pass(&apps, &cfg, &mut tracer, &mut tally, traced);
            tracer.set_on(false);
            results
        },
        |_, results| check(&apps, &results, &mut out),
    );
    if !opts.trace {
        passes.end_to_end(&mut out, setup_s, tail);
        return out;
    }

    let traced_passes = passes.traced_passes();
    let mut profile = Profile::default();
    let run_id = crate::run_id(workload, opts.seed);
    profile.add(&tracer, &run_id);
    let parse = profile.self_time("ir.parse").as_secs_f64();
    let per_pass = |v: usize| v as f64 / traced_passes;
    let counter = |name: &str| recorder.counter_value(name) as f64 / traced_passes;
    let extra = BTreeMap::from([
        (
            "ir.parse_mb_per_s",
            tally.bytes as f64 / 1e6 / parse.max(1e-9),
        ),
        ("threadify.threads", per_pass(tally.threads)),
        ("threadify.callbacks", per_pass(tally.callbacks)),
        ("hb.edges", counter("hb.edges")),
        ("pointsto.queue_pops", counter("pointsto.queue_pops")),
        (
            "detector.pairs_examined",
            counter("detector.pairs_examined"),
        ),
        ("detector.racy_pairs", counter("detector.racy_pairs")),
        ("filters.refuted", per_pass(tally.refuted)),
        (
            "filters.survival_ratio",
            tally.reported as f64 / (tally.potential as f64).max(1.0),
        ),
    ]);
    out.per_layer(
        workload,
        &run_id,
        &profile,
        passes.traced_time(),
        passes.overhead(),
        extra,
    );
    // The layers must account for the end-to-end time.
    let unattributed = out.metrics["trace.unattributed_share"];
    if unattributed > crate::MAX_UNATTRIBUTED {
        out.fail(format!(
            "layer self times leave {:.1}% of the traced time unattributed (limit {:.0}%)",
            unattributed * 100.0,
            crate::MAX_UNATTRIBUTED * 100.0
        ));
    }
    out
}
