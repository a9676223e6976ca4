//! The confirmation workloads, `confirm_witness` and `confirm_exhaust`.
//!
//! One operation is one verdict on a distinct surviving (use, free)
//! pair: `confirm_warning`, as `confirm_survivors` runs it for each
//! pair. The apps are generated and analyzed during set-up. Traced
//! passes make the same calls step by step: the fast-path triage, the
//! directed and fallback `explore_guided` searches, `minimize_schedule`
//! on a witness, and `replay` of the result.

use crate::passes::Passes;
use crate::speed::{self, Timed};
use crate::stats::{self, Tail};
use crate::trace::{Profile, Tracer};
use crate::{Opts, Outcome, SETUPS};
use nadroid_bench::cluster_of;
use nadroid_confirm::{confirm_warning, ConfirmConfig, EvidenceGuide};
use nadroid_core::{analyze, Analysis, AnalysisConfig, ConfirmVerdict};
use nadroid_corpus::{generate, Expectation, GeneratedApp};
use nadroid_detector::UafWarning;
use nadroid_dynamic::{
    decode_schedule, encode_schedule, explore_guided, minimize_schedule, replay, Exploration, Goal,
};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::time::Instant;

/// Apps whose every survivor is a planted harmful UAF, so each pair is
/// confirmed: witness minimization and verify replays dominate.
const WITNESS_APPS: [&str; 3] = ["ConnectBot", "QKSMS", "Aard"];
/// Apps without a planted harmful UAF: every survivor ends unconfirmed
/// or infeasible, so budget-exhausting searches dominate and nothing is
/// minimized.
const EXHAUST_APPS: [&str; 4] = ["Music", "KissLauncher", "Dns66", "Mms"];

pub fn witness(opts: &Opts) -> Outcome {
    let apps: &[&str] = if opts.smoke { &["Aard"] } else { &WITNESS_APPS };
    run(opts, "confirm_witness", apps, ConfirmConfig::default())
}

/// The searches run on a quarter of the default state budgets: each
/// still exhausts its budget, and a pass takes seconds, not tens of
/// seconds, so that a run makes several.
pub fn exhaust(opts: &Opts) -> Outcome {
    let apps: &[&str] = if opts.smoke {
        &["Dns66"]
    } else {
        &EXHAUST_APPS
    };
    let mut cfg = ConfirmConfig::default();
    cfg.directed.max_states /= 4;
    cfg.fallback.max_states /= 4;
    run(opts, "confirm_exhaust", apps, cfg)
}

/// A verdict as the oracle checks it.
struct Verdict {
    verdict: ConfirmVerdict,
    states: u64,
    schedule: Option<String>,
    /// Witness and minimized schedule lengths (traced passes only).
    witness_len: usize,
    min_len: usize,
}

/// One distinct surviving pair to give a verdict on.
struct Pair<'a> {
    app: usize,
    analysis: &'a Analysis<'a>,
    warning: &'a UafWarning,
}

/// The operation as `confirm_survivors` makes it for one pair.
fn confirm_pair(p: &Pair<'_>, cfg: &ConfirmConfig) -> Verdict {
    let c = confirm_warning(p.analysis, p.warning, cfg);
    Verdict {
        verdict: c.verdict,
        states: c.states_explored,
        schedule: c.schedule,
        witness_len: 0,
        min_len: 0,
    }
}

/// `confirm_warning`'s fast paths: an unreachable component or a mustHb
/// ordering of the use before the free rules out every schedule.
fn ruled_out(analysis: &Analysis<'_>, w: &UafWarning) -> bool {
    let program = analysis.program();
    let threads = analysis.threads();
    [w.use_thread, w.free_thread].into_iter().any(|tid| {
        threads
            .thread(tid)
            .component()
            .is_some_and(|c| !program.component_reachable(program.outermost_class(c)))
    }) || analysis.hb().must_hb(w.use_thread, w.free_thread)
}

/// The operation made step by step, each call inside a span.
fn confirm_layered(p: &Pair<'_>, cfg: &ConfirmConfig, t: &mut Tracer) -> Verdict {
    t.span("bench.pair", |t| {
        let (analysis, w) = (p.analysis, p.warning);
        let program = analysis.program();
        let mut v = Verdict {
            verdict: ConfirmVerdict::Infeasible,
            states: 0,
            schedule: None,
            witness_len: 0,
            min_len: 0,
        };
        if t.span("confirm.triage", |_| ruled_out(analysis, w)) {
            return v;
        }
        let goal = Goal::Pair {
            use_instr: w.use_access.instr,
            free_instr: w.free_access.instr,
        };
        let mut witness = None;
        for (prune, budget) in [(true, cfg.directed), (false, cfg.fallback)] {
            let guide = t.span("confirm.guide", |_| {
                EvidenceGuide::from_warning(analysis, w, prune)
            });
            match t.span("dynamic.search", |_| {
                explore_guided(program, goal, budget, Some(&guide))
            }) {
                Exploration::Witness(found) => {
                    witness = Some(found);
                    break;
                }
                Exploration::Exhausted { states, complete } => {
                    v.states += states as u64;
                    // Only the unpruned fallback's complete drain proves
                    // infeasibility.
                    v.verdict = if !prune && complete {
                        ConfirmVerdict::Infeasible
                    } else {
                        ConfirmVerdict::Unconfirmed
                    };
                }
            }
        }
        if let Some(found) = witness {
            let min = t.span("dynamic.minimize", |_| {
                minimize_schedule(program, &found.schedule, &found.npe)
            });
            let world = t.span("dynamic.replay", |_| replay(program, &min));
            t.span("confirm.verdict", |_| {
                v.states += found.states_explored as u64;
                v.witness_len = found.schedule.len();
                v.min_len = min.len();
                if world.npe.as_ref() == Some(&found.npe) {
                    v.verdict = ConfirmVerdict::Confirmed;
                    v.schedule = Some(encode_schedule(&min));
                } else {
                    v.verdict = ConfirmVerdict::Unconfirmed;
                }
            });
        }
        v
    })
}

fn pass(
    pairs: &[Pair<'_>],
    cfg: &ConfirmConfig,
    t: &mut Tracer,
    traced: bool,
) -> Vec<(Timed, Verdict)> {
    pairs
        .iter()
        .map(|p| {
            speed::time(|| {
                if traced {
                    confirm_layered(p, cfg, t)
                } else {
                    confirm_pair(p, cfg)
                }
            })
        })
        .collect()
}

/// Check one pass against the planted clusters: a pair is confirmed iff
/// its cluster is a planted harmful UAF, every planted harmful cluster
/// is confirmed, and every witness replays to the warning's own use and
/// free instructions.
fn check(
    apps: &[GeneratedApp],
    pairs: &[Pair<'_>],
    results: &[(Timed, Verdict)],
    out: &mut Outcome,
) {
    let mut confirmed: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); apps.len()];
    for (p, (_, v)) in pairs.iter().zip(results) {
        out.attempted += 1;
        let program = &apps[p.app].program;
        let name = program.name();
        let Some(cluster) = cluster_of(program, p.warning) else {
            out.fail(format!("{name}: a survivor outside every planted cluster"));
            continue;
        };
        let harmful = matches!(
            apps[p.app].planted.get(cluster).map(|k| k.expectation()),
            Some(Expectation::Harmful(_))
        );
        match (v.verdict, harmful) {
            (ConfirmVerdict::Confirmed, true) => {
                confirmed[p.app].insert(cluster);
                if let Err(e) = replays(program, p.warning, v.schedule.as_deref()) {
                    out.fail(format!("{name} cluster {cluster}: {e}"));
                }
            }
            (ConfirmVerdict::Confirmed, false) => {
                out.fail(format!(
                    "{name} cluster {cluster}: a planted false positive was confirmed"
                ));
            }
            (verdict, true) => {
                out.fail(format!(
                    "{name} cluster {cluster}: planted harmful, verdict {verdict}"
                ));
            }
            (_, false) => {}
        }
    }
    for (app, got) in apps.iter().zip(&confirmed) {
        let planted: BTreeSet<usize> = app
            .planted
            .iter()
            .enumerate()
            .filter(|(_, k)| matches!(k.expectation(), Expectation::Harmful(_)))
            .map(|(i, _)| i)
            .collect();
        if *got != planted {
            out.fail(format!(
                "{}: confirmed clusters {got:?}, planted harmful {planted:?}",
                app.program.name()
            ));
        }
    }
}

fn replays(
    program: &nadroid_ir::Program,
    w: &UafWarning,
    schedule: Option<&str>,
) -> Result<(), String> {
    let steps = decode_schedule(schedule.ok_or("confirmed without a schedule")?)?;
    let npe = replay(program, &steps)
        .npe
        .ok_or("the witness replays without an NPE")?;
    if npe.loaded_from == Some(w.use_access.instr) && npe.freed_by == Some(w.free_access.instr) {
        Ok(())
    } else {
        Err(format!(
            "the witness NPE loads {:?} freed by {:?}, not the warning's use {:?} / free {:?}",
            npe.loaded_from, npe.freed_by, w.use_access.instr, w.free_access.instr
        ))
    }
}

fn run(opts: &Opts, workload: &str, names: &[&str], cfg: ConfirmConfig) -> Outcome {
    let specs = crate::inputs::named_paper_specs(names, opts.seed);
    let analysis_cfg = AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    };
    let (setup_s, apps) = stats::timed_setup(SETUPS, || {
        let mut secs = 0.0;
        let apps: Vec<GeneratedApp> = specs
            .iter()
            .map(|spec| {
                let (t, app) = speed::time(|| generate(spec));
                let (u, analysis) = speed::time(|| analyze(&app.program, &analysis_cfg));
                drop(analysis);
                secs += t.secs + u.secs;
                app
            })
            .collect();
        (secs, apps)
    });
    // The set-up analyses above are timed; these are the ones kept.
    let analyses: Vec<Analysis<'_>> = apps
        .iter()
        .map(|a| analyze(&a.program, &analysis_cfg))
        .collect();
    let mut pairs = Vec::new();
    for (app, analysis) in analyses.iter().enumerate() {
        let mut seen = HashSet::new();
        let mut distinct: Vec<&UafWarning> = analysis
            .survivors()
            .into_iter()
            .filter(|w| seen.insert(w.pair()))
            .collect();
        distinct.sort_by_key(|w| w.pair());
        pairs.extend(distinct.into_iter().map(|warning| Pair {
            app,
            analysis,
            warning,
        }));
    }

    let mut out = Outcome::default();
    let mut tracer = Tracer::new(0, Instant::now());
    // A pass takes seconds, so the warm-up is one verdict per app.
    for (i, p) in pairs.iter().enumerate() {
        if i == 0 || pairs[i - 1].app != p.app {
            confirm_pair(p, &cfg);
        }
    }

    let mut traced_results = Vec::new();
    let passes = Passes::run(
        opts,
        |traced| {
            tracer.set_on(traced);
            let results = pass(&pairs, &cfg, &mut tracer, traced);
            tracer.set_on(false);
            results
        },
        |traced, results| {
            check(&apps, &pairs, &results, &mut out);
            if traced {
                traced_results.extend(results.into_iter().map(|(_, v)| v));
            }
        },
    );
    if !opts.trace {
        passes.end_to_end(&mut out, setup_s, Tail::P90);
        return out;
    }

    let traced_passes = passes.traced_passes();
    let mut profile = Profile::default();
    let run_id = crate::run_id(workload, opts.seed);
    profile.add(&tracer, &run_id);
    let count = |verdict| {
        traced_results
            .iter()
            .filter(|v| v.verdict == verdict)
            .count() as f64
    };
    let states: u64 = traced_results.iter().map(|v| v.states).sum();
    let witness_len: usize = traced_results.iter().map(|v| v.witness_len).sum();
    let min_len: usize = traced_results.iter().map(|v| v.min_len).sum();
    let search = profile.self_time("dynamic.search").as_secs_f64();
    let extra = BTreeMap::from([
        ("confirm.states", states as f64 / traced_passes),
        (
            "confirm.confirmed",
            count(ConfirmVerdict::Confirmed) / traced_passes,
        ),
        (
            "confirm.unconfirmed",
            count(ConfirmVerdict::Unconfirmed) / traced_passes,
        ),
        (
            "confirm.infeasible",
            count(ConfirmVerdict::Infeasible) / traced_passes,
        ),
        (
            "confirm.confirmed_ratio",
            count(ConfirmVerdict::Confirmed) / (traced_results.len() as f64).max(1.0),
        ),
        (
            "dynamic.minimize_keep_ratio",
            min_len as f64 / (witness_len as f64).max(1.0),
        ),
        ("dynamic.states_per_s", states as f64 / search.max(1e-9)),
    ]);
    out.per_layer(
        workload,
        &run_id,
        &profile,
        passes.traced_time(),
        passes.overhead(),
        extra,
    );
    out
}
