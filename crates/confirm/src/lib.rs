//! Dynamic confirmation of surviving warnings: schedule synthesis that
//! manifests static use-after-free hypotheses as concrete NPEs.
//!
//! nAdroid stops at statically-filtered warnings; §7 of the paper
//! validates them by *manually* constructing schedules. This crate
//! closes that loop automatically (the APEChecker move — Fan et al. —
//! applied to nAdroid's warnings). For each surviving warning it
//!
//! 1. derives a **directed search** from the warning's evidence: the
//!    threads of the use and the free, their spawn lineage, and the
//!    happens-before facts between them induce an [`EvidenceGuide`]
//!    that prunes the event space to the warning's components and
//!    explores free-side steps before use-side steps (the interleaving
//!    the warning claims — free first, then use — is tried first);
//! 2. falls back to **bounded full exploration** (priorities kept,
//!    pruning off) when the directed phase exhausts its budget, so no
//!    witness reachable within the model's bounds is missed; and
//! 3. classifies the warning [`ConfirmVerdict::Confirmed`] (a
//!    minimized, replay-verified witness schedule is attached),
//!    [`ConfirmVerdict::Infeasible`] (a proof that no HB-consistent
//!    interleaving reaches the use after the free — a `mustHb`
//!    ordering, an unreachable component, or a complete drain of the
//!    bounded state space), or [`ConfirmVerdict::Unconfirmed`] (the
//!    state budget or the path bounds stopped the search, inconclusive).
//!
//! It is the one answer to "is this warning harmful?": the CLI, serve
//! and Table 1's verdict columns ([`pair_verdicts`]) all ask it.
//!
//! Verdicts are recorded in the provenance document (the
//! `nadroid-provenance/4` `confirmation` block, see
//! [`attach_confirmations`]) and reported under the `nadroid-confirm/1`
//! schema ([`render_confirm_json`]). Batch confirmation
//! ([`confirm_survivors`]) runs one search per *distinct* (use, free)
//! pair on the ambient [`nadroid_par`] thread budget and merges in pair
//! order, so verdicts, schedules, and tallies are byte-identical at any
//! thread count. Nothing in the search consults a clock or randomness,
//! and the interpreter offers its enabled steps in one order per
//! program, so they are byte-identical across processes too.

use nadroid_core::{
    classify_fp, warning_population_digest, Analysis, ConfirmVerdict, Confirmation, VerdictColumns,
};
use nadroid_detector::{warning_id, UafWarning};
use nadroid_dynamic::{
    encode_schedule, explore_guided, minimize_schedule, replay, Exploration, ExploreConfig, Guide,
    Step, Witness, World,
};
use nadroid_ir::{ClassId, InstrId, MethodId, Program};
use nadroid_threadify::callback_method;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

pub use nadroid_core::{ConfirmVerdict as Verdict, Confirmation as CoreConfirmation};

/// The `nadroid-confirm/1` report schema identifier.
pub const SCHEMA: &str = "nadroid-confirm/1";

/// Search budgets for the two confirmation phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfirmConfig {
    /// Budget of the directed (evidence-pruned) phase. Smaller than the
    /// fallback: the pruned space is tiny when the evidence is good,
    /// and a miss costs only this budget before the full search runs.
    pub directed: ExploreConfig,
    /// Budget of the bounded fallback exploration. A drain of this
    /// search without budget truncation is the infeasibility proof.
    pub fallback: ExploreConfig,
}

impl Default for ConfirmConfig {
    fn default() -> Self {
        // Real witnesses fall out of the directed phase within a few
        // hundred states; the budgets exist to bound the *unconfirmed*
        // cost, which is paid in full for every warning that never
        // manifests. 4k + 8k keeps a full-corpus sweep interactive
        // while leaving two orders of magnitude of headroom over the
        // observed witness depths.
        ConfirmConfig {
            directed: ExploreConfig {
                max_states: 4_000,
                ..ExploreConfig::default()
            },
            fallback: ExploreConfig {
                max_states: 8_000,
                ..ExploreConfig::default()
            },
        }
    }
}

/// The evidence-derived scheduling guide for one warning: dense score
/// tables, indexed by class and by method id, that mark the classes and
/// methods of the use/free threads and their spawn lineage relevant and
/// explore the claimed interleaving — free before use — first.
///
/// In pruning mode only *dispatch* steps are filtered (an admitted
/// event may legitimately call through helper code, so task advancement
/// is never blocked); rejecting any event voids the completeness of an
/// exhausted search, which is why infeasibility proofs come from the
/// unpruned fallback phase alone.
pub struct EvidenceGuide<'p> {
    program: &'p Program,
    /// 3 for the free's owner, 2 for the use's owner, 1 for a relevant
    /// class, otherwise 0.
    class_scores: Vec<i32>,
    /// 3 for the free, 2 for the use, 1 for a relevant method,
    /// otherwise its owner's class score.
    method_scores: Vec<i32>,
    prune: bool,
}

impl<'p> EvidenceGuide<'p> {
    /// Build the guide from a warning's provenance evidence.
    #[must_use]
    pub fn from_warning(analysis: &Analysis<'p>, w: &UafWarning, prune: bool) -> Self {
        let program = analysis.program();
        let threads = analysis.threads();
        let mut class_scores = vec![0; program.class_ids().count()];
        let mut method_scores = vec![0; program.method_ids().count()];
        for tid in [w.use_thread, w.free_thread] {
            for anc in threads.lineage(tid) {
                let th = threads.thread(anc);
                if let Some(c) = th.class() {
                    class_scores[c.index()] = 1;
                    class_scores[program.outermost_class(c).index()] = 1;
                }
                if let Some(c) = th.component() {
                    class_scores[c.index()] = 1;
                }
                for &m in threads.methods_of(anc) {
                    method_scores[m.index()] = 1;
                    class_scores[program.method(m).owner().index()] = 1;
                }
            }
        }
        let (use_method, free_method) = (w.use_access.method, w.free_access.method);
        class_scores[program.method(use_method).owner().index()] = 2;
        class_scores[program.method(free_method).owner().index()] = 3;
        for (m, method) in program.methods() {
            let score = &mut method_scores[m.index()];
            if *score == 0 {
                *score = class_scores[method.owner().index()];
            }
        }
        method_scores[use_method.index()] = 2;
        method_scores[free_method.index()] = 3;
        EvidenceGuide {
            program,
            class_scores,
            method_scores,
            prune,
        }
    }
}

impl Guide for EvidenceGuide<'_> {
    fn score(&self, world: &World<'_>, step: &Step) -> Option<i32> {
        use nadroid_dynamic::Event;
        let class = |c: ClassId| self.class_scores[c.index()];
        let method = |m: MethodId| self.method_scores[m.index()];
        let score = match step {
            Step::Advance { task, .. } => world
                .tasks
                .get(task.0 as usize)
                .into_iter()
                .flat_map(|t| &t.frames)
                .map(|f| method(f.method))
                .max()
                .unwrap_or(0),
            Step::Dispatch(e) => match e {
                // The owner of every scored method scores, so an
                // unscored class has no scored callback.
                Event::Lifecycle { activity, kind } => match class(*activity) {
                    0 => 0,
                    c => callback_method(self.program, *activity, *kind)
                        .map_or(c, |m| method(m).max(c)),
                },
                Event::Entry { method: m, .. } => method(*m),
                Event::DequeuePost { looper } => world
                    .posts
                    .get(looper.0 as usize)
                    .and_then(std::collections::VecDeque::front)
                    .map_or(0, |p| method(p.method)),
                Event::ServiceConnect { conn } | Event::ServiceDisconnect { conn } => {
                    class(world.heap.class_of(*conn))
                }
                Event::Broadcast { receiver } => class(world.heap.class_of(*receiver)),
                Event::TaskPost { run } => world
                    .async_runs
                    .get(*run)
                    .map_or(0, |r| class(world.heap.class_of(r.obj))),
            },
        };
        // Only events are pruned: blocking a mid-execution task would
        // strand admitted work inside helper methods.
        let admitted = !self.prune || score > 0 || matches!(step, Step::Advance { .. });
        admitted.then_some(score)
    }
}

/// The confirmation of one warning, with the report fields the
/// `nadroid-confirm/1` row carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarningConfirmation {
    /// The warning's stable id (`w:` + 16 hex digits).
    pub id: String,
    /// The racy field, as `Class.field`.
    pub field: String,
    /// The use site, as `Class.method#instr`.
    pub use_site: String,
    /// The free site.
    pub free_site: String,
    /// The verdict, reason, search statistics, and witness schedule.
    pub confirmation: Confirmation,
}

/// Per-verdict counts over a batch confirmation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Warnings with a replay-verified witness schedule.
    pub confirmed: usize,
    /// Warnings whose search ended inconclusively.
    pub unconfirmed: usize,
    /// Warnings proven unmanifestable within the model's bounds.
    pub infeasible: usize,
}

impl Tally {
    /// Count a verdict.
    pub fn add(&mut self, v: ConfirmVerdict) {
        match v {
            ConfirmVerdict::Confirmed => self.confirmed += 1,
            ConfirmVerdict::Unconfirmed => self.unconfirmed += 1,
            ConfirmVerdict::Infeasible => self.infeasible += 1,
        }
    }

    /// Total warnings tallied.
    #[must_use]
    pub fn total(&self) -> usize {
        self.confirmed + self.unconfirmed + self.infeasible
    }
}

/// A batch confirmation: one row per surviving warning (verdicts are
/// computed once per distinct (use, free) pair and shared), in the
/// analysis's deterministic warning order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfirmOutcome {
    /// Per-warning confirmations.
    pub results: Vec<WarningConfirmation>,
    /// Verdict counts over `results`.
    pub tally: Tally,
}

/// Confirm one warning: HB and reachability fast paths, then the
/// directed phase, then the bounded fallback. A fired ambient cancel
/// token (a serve deadline) answers `Unconfirmed` before any search.
#[must_use]
pub fn confirm_warning(
    analysis: &Analysis<'_>,
    w: &UafWarning,
    cfg: &ConfirmConfig,
) -> Confirmation {
    if nadroid_obs::cancel::should_stop() {
        return unconfirmed("cancelled before the search ran".to_owned(), 0);
    }
    let c = confirm_uncounted(analysis, w, cfg);
    nadroid_obs::counter(&format!("confirm.{}", c.verdict), 1);
    nadroid_obs::counter("confirm.states", c.states_explored);
    c
}

fn confirm_uncounted(analysis: &Analysis<'_>, w: &UafWarning, cfg: &ConfirmConfig) -> Confirmation {
    let program = analysis.program();
    let threads = analysis.threads();

    // Fast path 1: a component that no intent reaches never receives
    // events, so callbacks on its threads can never execute — the model
    // enables no schedule containing the access.
    let reachable = program.reachable_components();
    for (what, tid) in [("use", w.use_thread), ("free", w.free_thread)] {
        if let Some(c) = threads.thread(tid).component() {
            if !reachable[program.outermost_class(c).index()] {
                return infeasible(
                    format!(
                        "component {} is unreachable: no intent starts it, so the {what} callback never executes",
                        program.class(c).name()
                    ),
                    0,
                );
            }
        }
    }

    // Fast path 2: a sound mustHb ordering of the use thread before the
    // free thread rules out every interleaving that places the free
    // first. (Rare for survivors — the MHB filter prunes these — but
    // load-bearing when the filter pipeline is configured off.)
    if analysis.hb().must_hb(w.use_thread, w.free_thread) {
        return infeasible(
            "mustHb orders the use thread before the free thread: no interleaving places the free first"
                .to_owned(),
            0,
        );
    }

    let goal = nadroid_dynamic::Goal::Pair {
        use_instr: w.use_access.instr,
        free_instr: w.free_access.instr,
    };
    let search = |span: &str, prune: bool, bounds: ExploreConfig| {
        let _span = nadroid_obs::span(span);
        let guide = EvidenceGuide::from_warning(analysis, w, prune);
        explore_guided(program, goal, bounds, Some(&guide))
    };

    // Directed phase: evidence-pruned, free-side-first search.
    let directed_states = match search("confirm.directed", true, cfg.directed) {
        Exploration::Witness(witness) => {
            return confirmed(program, w, &witness, 0, "directed search");
        }
        // A pruned search can never prove infeasibility; fall through
        // to the complete phase either way.
        Exploration::Exhausted { states, .. } => states as u64,
    };

    // Fallback: full bounded exploration, evidence priorities kept.
    match search("confirm.fallback", false, cfg.fallback) {
        Exploration::Witness(witness) => {
            confirmed(program, w, &witness, directed_states, "bounded fallback")
        }
        Exploration::Exhausted {
            states,
            complete: true,
        } => infeasible(
            format!(
                "bounded exploration drained the reachable state space ({states} states) without manifesting the pair"
            ),
            directed_states + states as u64,
        ),
        Exploration::Exhausted {
            states,
            complete: false,
        } => {
            // The fallback admits every step, so only its state budget
            // or its per-path bounds can leave it incomplete.
            let f = &cfg.fallback;
            let limit = if states == f.max_states {
                format!("the {}-state budget", f.max_states)
            } else {
                format!("the {}-event and {}-step path bounds", f.max_events, f.max_steps)
            };
            let total = directed_states + states as u64;
            unconfirmed(
                format!("{limit} stopped the fallback without a witness ({total} states in total)"),
                total,
            )
        }
    }
}

fn infeasible(reason: String, states: u64) -> Confirmation {
    Confirmation {
        verdict: ConfirmVerdict::Infeasible,
        reason,
        states_explored: states,
        schedule: None,
        npe_at: None,
    }
}

fn unconfirmed(reason: String, states: u64) -> Confirmation {
    Confirmation {
        verdict: ConfirmVerdict::Unconfirmed,
        reason,
        states_explored: states,
        schedule: None,
        npe_at: None,
    }
}

fn confirmed(
    program: &Program,
    w: &UafWarning,
    witness: &Witness,
    prior_states: u64,
    phase: &str,
) -> Confirmation {
    let min = {
        let _span = nadroid_obs::span("confirm.minimize");
        minimize_schedule(program, &witness.schedule, &witness.npe)
    };
    // The minimizer asserts every pass, but the verdict's contract is
    // stronger: the *attached* schedule replays to the warning's exact
    // NPE from a fresh world.
    let final_world = {
        let _span = nadroid_obs::span("confirm.verify");
        replay(program, &min)
    };
    assert_eq!(
        final_world.npe.as_ref(),
        Some(&witness.npe),
        "minimized schedule must reproduce the witness NPE"
    );
    assert_eq!(witness.npe.loaded_from, Some(w.use_access.instr));
    assert_eq!(witness.npe.freed_by, Some(w.free_access.instr));
    Confirmation {
        verdict: ConfirmVerdict::Confirmed,
        reason: format!(
            "{phase} manifested the pair ({} steps minimized to {})",
            witness.schedule.len(),
            min.len()
        ),
        states_explored: prior_states + witness.states_explored as u64,
        schedule: Some(encode_schedule(&min)),
        npe_at: Some(program.describe_instr(witness.npe.at)),
    }
}

/// Confirm every surviving warning. One search per distinct (use, free)
/// pair, run on the ambient [`nadroid_par`] thread budget and merged in
/// sorted pair order — results are byte-identical at any thread count.
#[must_use]
pub fn confirm_survivors(analysis: &Analysis<'_>, cfg: &ConfirmConfig) -> ConfirmOutcome {
    let survivors = analysis.survivors();
    let mut pairs: Vec<(InstrId, InstrId)> = survivors.iter().map(|w| w.pair()).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut repr: HashMap<(InstrId, InstrId), &UafWarning> = HashMap::new();
    for w in &survivors {
        repr.entry(w.pair()).or_insert(w);
    }
    let verdicts: Vec<Confirmation> = nadroid_par::map_chunks(pairs.len(), 1, |range| {
        range
            .map(|i| confirm_warning(analysis, repr[&pairs[i]], cfg))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let by_pair: HashMap<(InstrId, InstrId), &Confirmation> =
        pairs.iter().copied().zip(verdicts.iter()).collect();
    let program = analysis.program();
    let threads = analysis.threads();
    let mut results = Vec::with_capacity(survivors.len());
    let mut tally = Tally::default();
    for w in &survivors {
        let confirmation = (*by_pair[&w.pair()]).clone();
        tally.add(confirmation.verdict);
        results.push(WarningConfirmation {
            id: warning_id(program, threads, w),
            field: format!(
                "{}.{}",
                program.class(program.field(w.field).owner()).name(),
                program.field(w.field).name()
            ),
            use_site: program.describe_instr(w.use_access.instr),
            free_site: program.describe_instr(w.free_access.instr),
            confirmation,
        });
    }
    ConfirmOutcome { results, tally }
}

/// Table 1's verdict columns for a batch: each distinct (use, free)
/// pair is harmful when confirmed, and otherwise, unconfirmed or
/// infeasible alike, counted under its [`classify_fp`] cause.
#[must_use]
pub fn pair_verdicts(analysis: &Analysis<'_>, outcome: &ConfirmOutcome) -> VerdictColumns {
    let survivors = analysis.survivors();
    assert_eq!(survivors.len(), outcome.results.len());
    let mut seen = HashSet::new();
    let mut harmful = 0;
    let mut causes = Vec::new();
    for (w, r) in survivors.into_iter().zip(&outcome.results) {
        if !seen.insert(w.pair()) {
            continue;
        }
        if r.confirmation.verdict == ConfirmVerdict::Confirmed {
            harmful += 1;
        } else {
            causes.push(classify_fp(analysis.program(), analysis.pts(), w));
        }
    }
    VerdictColumns::new(harmful, &causes)
}

/// Confirm the single warning with the given id (surviving or pruned —
/// a pruned warning can still be probed). `None` when no warning has
/// that id.
#[must_use]
pub fn confirm_by_id(
    analysis: &Analysis<'_>,
    id: &str,
    cfg: &ConfirmConfig,
) -> Option<WarningConfirmation> {
    let program = analysis.program();
    let threads = analysis.threads();
    let w = analysis
        .warnings()
        .iter()
        .find(|w| warning_id(program, threads, w) == id)?;
    Some(WarningConfirmation {
        id: id.to_owned(),
        field: format!(
            "{}.{}",
            program.class(program.field(w.field).owner()).name(),
            program.field(w.field).name()
        ),
        use_site: program.describe_instr(w.use_access.instr),
        free_site: program.describe_instr(w.free_access.instr),
        confirmation: confirm_warning(analysis, w, cfg),
    })
}

/// Copy the batch verdicts into the matching provenance entries (the
/// `nadroid-provenance/4` `confirmation` block). Entries without a
/// verdict — pruned warnings — keep `confirmation: None`. Returns how
/// many entries were filled.
pub fn attach_confirmations(
    provenances: &mut [nadroid_core::WarningProvenance],
    outcome: &ConfirmOutcome,
) -> usize {
    let by_id: HashMap<&str, &Confirmation> = outcome
        .results
        .iter()
        .map(|r| (r.id.as_str(), &r.confirmation))
        .collect();
    let mut filled = 0;
    for p in provenances {
        if let Some(c) = by_id.get(p.id.as_str()) {
            p.confirmation = Some((*c).clone());
            filled += 1;
        }
    }
    filled
}

/// Serialize a batch confirmation as the `nadroid-confirm/1` document.
///
/// The `population` digest covers the *surviving-warning ids* (the same
/// digest the static drivers report), so a reader can check at a glance
/// that confirmation ran against unchanged static results.
#[must_use]
pub fn render_confirm_json(analysis: &Analysis<'_>, outcome: &ConfirmOutcome) -> String {
    let ids: Vec<String> = outcome.results.iter().map(|r| r.id.clone()).collect();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(
        out,
        "  \"app\": \"{}\",",
        nadroid_core::esc(analysis.program().name())
    );
    let _ = writeln!(
        out,
        "  \"program_hash\": \"{}\",",
        nadroid_core::esc(&nadroid_core::program_hash(analysis.program()))
    );
    let _ = writeln!(
        out,
        "  \"population\": \"{}\",",
        warning_population_digest(&ids)
    );
    let _ = writeln!(
        out,
        "  \"tally\": {{ \"confirmed\": {}, \"unconfirmed\": {}, \"infeasible\": {} }},",
        outcome.tally.confirmed, outcome.tally.unconfirmed, outcome.tally.infeasible
    );
    out.push_str("  \"results\": [");
    for (i, r) in outcome.results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        let _ = writeln!(out, "      \"id\": \"{}\",", nadroid_core::esc(&r.id));
        let _ = writeln!(out, "      \"field\": \"{}\",", nadroid_core::esc(&r.field));
        let _ = writeln!(
            out,
            "      \"use_site\": \"{}\",",
            nadroid_core::esc(&r.use_site)
        );
        let _ = writeln!(
            out,
            "      \"free_site\": \"{}\",",
            nadroid_core::esc(&r.free_site)
        );
        let c = &r.confirmation;
        let _ = writeln!(out, "      \"verdict\": \"{}\",", c.verdict);
        let _ = writeln!(
            out,
            "      \"reason\": \"{}\",",
            nadroid_core::esc(&c.reason)
        );
        let _ = writeln!(out, "      \"states_explored\": {},", c.states_explored);
        match &c.schedule {
            Some(s) => {
                let _ = writeln!(out, "      \"schedule\": \"{}\",", nadroid_core::esc(s));
            }
            None => out.push_str("      \"schedule\": null,\n"),
        }
        match &c.npe_at {
            Some(s) => {
                let _ = writeln!(out, "      \"npe_at\": \"{}\"", nadroid_core::esc(s));
            }
            None => out.push_str("      \"npe_at\": null\n"),
        }
        out.push_str("    }");
    }
    if outcome.results.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadroid_core::{analyze, render_provenance_json_with, AnalysisConfig};
    use nadroid_dynamic::decode_schedule;
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

    /// A surviving warning in a component no intent reaches: the model
    /// never starts it, so confirmation must prove infeasibility.
    const UNREACHABLE: &str = r#"
        app Ghosted
        activity Hub { cb onCreate { } }
        activity Ghost {
            field f: Ghost
            cb onCreate { f = new Ghost }
            cb onClick { use f }
            cb onStop { f = null }
        }
        manifest { main Hub }
    "#;

    /// `run`'s result and the distinct names of the spans it records.
    fn span_names<T>(run: impl FnOnce() -> T) -> (T, Vec<String>) {
        let recorder = nadroid_obs::Recorder::new();
        let out = {
            let _guard = recorder.install();
            run()
        };
        let mut names: Vec<String> = recorder.spans().into_iter().map(|s| s.name).collect();
        names.sort();
        names.dedup();
        (out, names)
    }

    fn confirm_app(src: &str) -> ConfirmOutcome {
        let p = parse_program(src).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        confirm_survivors(&a, &ConfirmConfig::default())
    }

    #[test]
    fn fig1a_is_confirmed_with_a_replayable_minimized_schedule() {
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let (outcome, spans) = span_names(|| confirm_survivors(&a, &ConfirmConfig::default()));
        assert!(outcome.tally.confirmed >= 1, "{outcome:?}");
        // The directed phase finds the witness, so no fallback runs.
        assert_eq!(
            spans,
            ["confirm.directed", "confirm.minimize", "confirm.verify"]
        );
        let r = outcome
            .results
            .iter()
            .find(|r| r.confirmation.verdict == ConfirmVerdict::Confirmed)
            .expect("a confirmed result");
        let encoded = r.confirmation.schedule.as_ref().expect("schedule attached");
        let steps = decode_schedule(encoded).expect("schedule decodes");
        let world = replay(&p, &steps);
        let npe = world.npe.expect("replay reproduces the NPE");
        // The NPE is the *warning's*: null loaded at its use site.
        let w = a
            .survivors()
            .into_iter()
            .find(|w| warning_id(&p, a.threads(), w) == r.id)
            .unwrap()
            .clone();
        assert_eq!(npe.loaded_from, Some(w.use_access.instr));
        assert_eq!(npe.freed_by, Some(w.free_access.instr));
        assert!(r.confirmation.npe_at.is_some());
    }

    #[test]
    fn a_cancelled_token_stops_every_search_before_it_runs() {
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let token = nadroid_obs::cancel::CancelToken::new();
        token.cancel();
        let outcome = {
            let _scope = token.install();
            confirm_survivors(&a, &ConfirmConfig::default())
        };
        assert!(!outcome.results.is_empty(), "{outcome:?}");
        assert_eq!(
            outcome.tally.unconfirmed,
            outcome.results.len(),
            "{outcome:?}"
        );
        for r in &outcome.results {
            let c = &r.confirmation;
            assert_eq!(c.verdict, ConfirmVerdict::Unconfirmed, "{r:?}");
            assert_eq!(c.reason, "cancelled before the search ran");
            assert_eq!(c.states_explored, 0);
            assert!(c.schedule.is_none());
        }
    }

    #[test]
    fn unreachable_component_is_infeasible() {
        let outcome = confirm_app(UNREACHABLE);
        assert!(outcome.tally.infeasible >= 1, "{outcome:?}");
        assert_eq!(outcome.tally.confirmed, 0, "{outcome:?}");
        let r = &outcome.results[0];
        assert!(
            r.confirmation.reason.contains("unreachable"),
            "{:?}",
            r.confirmation.reason
        );
        assert!(r.confirmation.schedule.is_none());
    }

    /// The one warning whose use is in `use_cb` and whose free is in
    /// `free_cb`.
    fn warning_between<'a>(a: &'a Analysis<'_>, use_cb: &str, free_cb: &str) -> &'a UafWarning {
        let p = a.program();
        let mut found = a.warnings().iter().filter(|w| {
            p.method(w.use_access.method).name() == use_cb
                && p.method(w.free_access.method).name() == free_cb
        });
        let w = found.next().expect("the warning exists");
        assert!(found.next().is_none(), "one warning per pair");
        w
    }

    #[test]
    fn must_hb_answers_the_pairs_the_model_drains() {
        // A free in onDestroy can never precede a UI use: MHB-Lifecycle
        // prunes the warning, so batch confirmation never searches it.
        let p = parse_program(
            r#"
            app Drained
            activity Main {
                field f: Main
                cb onCreate { f = new Main }
                cb onClick { use f }
                cb onDestroy { f = null }
            }
            "#,
        )
        .unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let w = warning_between(&a, "onClick", "onDestroy");
        let outcome = a.sound_outcomes().iter().find(|o| &o.warning == w).unwrap();
        assert_eq!(
            outcome.pruned_by.map(|k| k.name()),
            Some("MHB"),
            "{outcome:?}"
        );
        assert!(a.survivors().is_empty());
        assert!(confirm_survivors(&a, &ConfirmConfig::default())
            .results
            .is_empty());

        // A service that uses its field in onCreate and frees it in
        // onDestroy: the bounded state space drains completely without
        // the free preceding the use, but confirm_warning proves the
        // pair infeasible from mustHb before any search runs, so its
        // drain verdict is not reached here.
        let p = parse_program(
            r#"
            app SvcOnly
            service Svc {
                field f: Svc
                cb onCreate { f = new Svc
                              use f }
                cb onDestroy { f = null }
            }
            "#,
        )
        .unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let w = warning_between(&a, "onCreate", "onDestroy");
        let goal = nadroid_dynamic::Goal::Pair {
            use_instr: w.use_access.instr,
            free_instr: w.free_access.instr,
        };
        assert_eq!(
            explore_guided(&p, goal, ExploreConfig::default(), None),
            Exploration::Exhausted {
                states: 10,
                complete: true
            }
        );
        let c = confirm_warning(&a, w, &ConfirmConfig::default());
        assert_eq!(c.verdict, ConfirmVerdict::Infeasible, "{c:?}");
        assert!(
            c.reason.starts_with("mustHb orders the use thread"),
            "{c:?}"
        );
        assert_eq!(c.states_explored, 0);
    }

    #[test]
    fn a_complete_drain_proves_a_fifo_post_pair_infeasible() {
        // onCreate posts the use before the free to the main looper, so
        // FIFO delivery runs the use first on every schedule. No filter,
        // refutation or fast path sees that order: only a complete drain
        // of the bounded state space proves the pair infeasible.
        for (component, drained) in [("service", 30), ("activity", 70)] {
            let p = parse_program(&format!(
                r#"
                app FifoPost
                {component} Main {{
                    field f: Main
                    cb onCreate {{ f = new Main  post UseR  post FreeR }}
                }}
                runnable UseR in Main {{ cb run {{ use outer.f }} }}
                runnable FreeR in Main {{ cb run {{ outer.f = null }} }}
                "#
            ))
            .unwrap();
            let a = analyze(&p, &AnalysisConfig::default());
            let s = a.summary();
            assert_eq!(
                (s.after_unsound, s.refuted, s.after_refutation),
                (1, 0, 1),
                "{component}: survives every filter, not refuted"
            );
            let w = a.survivors()[0];
            assert!(!a.hb().must_hb(w.use_thread, w.free_thread), "{component}");
            let (c, spans) = span_names(|| confirm_warning(&a, w, &ConfirmConfig::default()));
            assert_eq!(c.verdict, ConfirmVerdict::Infeasible, "{component}: {c:?}");
            assert_eq!(
                c.reason,
                format!(
                    "bounded exploration drained the reachable state space ({drained} states) \
                     without manifesting the pair"
                ),
                "{component}"
            );
            // The directed phase drains the same space first, but a pruned
            // search proves nothing.
            assert_eq!(c.states_explored, 2 * drained, "{component}");
            assert_eq!(spans, ["confirm.directed", "confirm.fallback"]);
        }
    }

    #[test]
    fn the_path_bounds_stop_the_path_insensitive_search() {
        // The free is re-allocated on its own path, so no NPE is
        // reachable; the static taxonomy blames the opaque branches. Each
        // search ends on the 8-event bound, far short of the budget.
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
        let outcome = confirm_survivors(&a, &ConfirmConfig::default());
        assert!(!outcome.results.is_empty());
        for r in &outcome.results {
            let c = &r.confirmation;
            assert_eq!(c.verdict, ConfirmVerdict::Unconfirmed, "{c:?}");
            assert_eq!(
                c.reason,
                "the 8-event and 400-step path bounds stopped the fallback without a witness \
                 (174 states in total)"
            );
        }
        let v = pair_verdicts(&a, &outcome);
        assert_eq!(v.harmful, 0);
        assert_eq!(
            v.fp,
            vec![(
                nadroid_core::FpCause::PathInsensitivity,
                outcome.results.len()
            )]
        );
    }

    #[test]
    fn the_state_budget_stops_a_corpus_path_insensitive_search() {
        let row = nadroid_corpus::table1_rows()
            .into_iter()
            .find(|r| r.name == "Dns66")
            .unwrap();
        let app = nadroid_corpus::generate(&nadroid_corpus::spec_for(&row));
        let a = analyze(&app.program, &AnalysisConfig::default());
        let p = a.program();
        let w = a
            .survivors()
            .into_iter()
            .find(|w| p.class(p.field(w.field).owner()).name().starts_with("FpP"))
            .expect("Dns66 plants a path-insensitivity pair");
        let c = confirm_warning(&a, w, &ConfirmConfig::default());
        assert_eq!(c.verdict, ConfirmVerdict::Unconfirmed, "{c:?}");
        assert_eq!(
            c.reason,
            "the 8000-state budget stopped the fallback without a witness (8087 states in total)"
        );
        assert_eq!(c.states_explored, 8087);
    }

    #[test]
    fn frees_that_differ_only_in_the_writer_are_both_confirmed() {
        // Both arms null `f`, so the two states after `onLongClick` differ
        // only in which free wrote the null. A search that merges them
        // can never attribute the later NPE to the arm it dropped.
        let outcome = confirm_app(
            r#"
            app TwoFrees
            activity Main {
                field f: Main
                cb onCreate { f = new Main }
                cb onClick { use f }
                cb onLongClick { if ? { f = null } else { f = null } }
            }
            "#,
        );
        assert_eq!(outcome.results.len(), 2, "{outcome:?}");
        for r in &outcome.results {
            assert_eq!(
                r.confirmation.verdict,
                ConfirmVerdict::Confirmed,
                "{}: {}",
                r.free_site,
                r.confirmation.reason
            );
        }
    }

    #[test]
    fn verdicts_are_identical_across_thread_counts_and_reruns() {
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let cfg = ConfirmConfig::default();
        let base = confirm_survivors(&a, &cfg);
        for threads in [1usize, 2, 4] {
            let got = nadroid_par::with_threads(threads, || confirm_survivors(&a, &cfg));
            assert_eq!(got, base, "threads={threads}");
            assert_eq!(
                render_confirm_json(&a, &got),
                render_confirm_json(&a, &base),
                "threads={threads}"
            );
        }
        assert_eq!(confirm_survivors(&a, &cfg), base, "rerun");
    }

    #[test]
    fn confirm_json_is_balanced_and_carries_the_schema() {
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let outcome = confirm_survivors(&a, &ConfirmConfig::default());
        let json = render_confirm_json(&a, &outcome);
        assert!(json.contains("\"schema\": \"nadroid-confirm/1\""), "{json}");
        assert!(json.contains("\"tally\""), "{json}");
        assert!(json.contains("\"population\": \"wp:"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let v = nadroid_core::parse_json(&json).expect("parses");
        assert_eq!(
            v.get("schema").and_then(nadroid_core::JsonValue::as_str),
            Some(SCHEMA)
        );
    }

    #[test]
    fn attaching_confirmations_never_changes_static_results() {
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let before = a.warning_provenances();
        let outcome = confirm_survivors(&a, &ConfirmConfig::default());
        let mut after = before.clone();
        let filled = attach_confirmations(&mut after, &outcome);
        assert_eq!(filled, outcome.results.len());
        // Static content is untouched: stripping the confirmation back
        // out yields the original provenances byte-for-byte.
        let mut stripped = after.clone();
        for p in &mut stripped {
            p.confirmation = None;
        }
        assert_eq!(stripped, before);
        let doc = render_provenance_json_with(&a, &after);
        assert!(doc.contains("\"verdict\": \"confirmed\""), "{doc}");
    }

    #[test]
    fn confirm_by_id_finds_known_ids_only() {
        let p = parse_program(FIG1A).unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let outcome = confirm_survivors(&a, &ConfirmConfig::default());
        let id = &outcome.results[0].id;
        let one = confirm_by_id(&a, id, &ConfirmConfig::default()).expect("known id");
        assert_eq!(&one, &outcome.results[0]);
        assert!(confirm_by_id(&a, "w:0000000000000000", &ConfirmConfig::default()).is_none());
    }

    #[test]
    fn directed_phase_finds_the_witness_cheaper_than_fallback_alone() {
        // The evidence guide prunes irrelevant components: planting a
        // noisy unrelated activity must not blow up the directed phase.
        let p = parse_program(
            r#"
            app Noisy
            activity Console {
                field bound: Console
                cb onCreate { bind this }
                cb onServiceConnected { bound = new Console }
                cb onServiceDisconnected { bound = null }
                cb onCreateContextMenu { use bound }
            }
            activity Busy {
                field x: Busy
                cb onCreate { x = new Busy }
                cb onClick { use x }
                cb onLongClick { x = new Busy }
            }
            "#,
        )
        .unwrap();
        let a = analyze(&p, &AnalysisConfig::default());
        let w = a
            .survivors()
            .into_iter()
            .find(|w| a.program().class(a.program().field(w.field).owner()).name() == "Console")
            .unwrap()
            .clone();
        let c = confirm_warning(&a, &w, &ConfirmConfig::default());
        assert_eq!(c.verdict, ConfirmVerdict::Confirmed, "{c:?}");
        assert!(c.reason.contains("directed search"), "{c:?}");
    }
}
