//! Refutation-study bench: analyze the dedicated refutation corpus
//! ([`nadroid_corpus::refute_specs`]) and write `BENCH_refute.json`,
//! one `nadroid-ledger/1` record of kind `refute` (also appended to
//! `Result/ledger.jsonl`; its keys are listed in the "Run ledger & perf
//! gate" section of `docs/observability.md`).
//!
//! The record holds a Figure-5-style stage tally extended by the
//! refutation stage (potential → after sound → after unsound →
//! refuted → after refutation), the per-reason refutation counts, each
//! app's stage counts and wall time under `app.<App>.*`, and each
//! app's post-refutation surviving warning ids with their `wp:` digest
//! — counts and populations are deterministic, so the perf gate
//! compares them exactly.
//!
//! Self-checks (exit nonzero on violation):
//! - every planted `Refute*` cluster is refuted, with exactly the
//!   reason its certified expectation declares,
//! - every kept control and harmful cluster survives refutation,
//! - all six refutable pattern kinds are exercised corpus-wide.
//!
//! Usage: `refute_bench [--threads <N>] [--out <file>]`

use nadroid_bench::analyze_program;
use nadroid_bench::measure::commit_bench_record;
use nadroid_corpus::{generate, refute_specs, AppSpec, Expectation, PatternKind};
use nadroid_detector::warning_id;
use nadroid_filters::refute::RefutationReason;
use nadroid_ledger::{AppPopulation, Kind, Population, Record};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One app's refutation sweep.
struct AppRow {
    name: String,
    potential: usize,
    after_sound: usize,
    after_unsound: usize,
    refuted: usize,
    after_refutation: usize,
    reasons: BTreeMap<&'static str, usize>,
    micros: u128,
    /// The post-refutation surviving ids.
    population: AppPopulation,
}

/// What a spec's certified expectations predict for its sweep.
struct Expected {
    refuted: usize,
    survivors: usize,
    reasons: BTreeMap<&'static str, usize>,
    refute_kinds: Vec<PatternKind>,
}

fn expected_of(spec: &AppSpec) -> Expected {
    let mut e = Expected {
        refuted: 0,
        survivors: 0,
        reasons: BTreeMap::new(),
        refute_kinds: Vec::new(),
    };
    for &(kind, n) in &spec.counts {
        match kind.expectation() {
            Expectation::Refuted(reason) => {
                e.refuted += n;
                *e.reasons.entry(reason.name()).or_insert(0) += n;
                e.refute_kinds.push(kind);
            }
            Expectation::Harmful(_) | Expectation::FalsePositive(_) => e.survivors += n,
            _ => {}
        }
    }
    e
}

/// Analyze one refutation-corpus app and check it against its spec's
/// certified expectations. Returns the row plus any violations.
fn run_app(spec: &AppSpec) -> (AppRow, Vec<String>) {
    let app = generate(spec);
    let start = Instant::now();
    let analysis = analyze_program(&app.program);
    let micros = start.elapsed().as_micros();
    let s = analysis.summary();

    let mut reasons: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (_, r) in analysis.refutations() {
        *reasons.entry(r.reason.name()).or_insert(0) += 1;
    }
    let program = analysis.program();
    let threads = analysis.threads();
    let surviving_ids = analysis
        .survivors()
        .iter()
        .map(|w| warning_id(program, threads, w))
        .collect();

    let expected = expected_of(spec);
    let mut violations = Vec::new();
    if s.refuted != expected.refuted {
        violations.push(format!(
            "{}: {} warning(s) refuted, expected {} (one per planted Refute* cluster)",
            spec.name, s.refuted, expected.refuted
        ));
    }
    if s.after_refutation != expected.survivors {
        violations.push(format!(
            "{}: {} survivor(s) after refutation, expected {} (kept controls must stand)",
            spec.name, s.after_refutation, expected.survivors
        ));
    }
    if reasons != expected.reasons {
        violations.push(format!(
            "{}: refutation reasons {reasons:?}, expected {:?}",
            spec.name, expected.reasons
        ));
    }

    (
        AppRow {
            name: spec.name.clone(),
            potential: s.potential,
            after_sound: s.after_sound,
            after_unsound: s.after_unsound,
            refuted: s.refuted,
            after_refutation: s.after_refutation,
            reasons,
            micros,
            population: AppPopulation::new(spec.name.clone(), surviving_ids),
        },
        violations,
    )
}

fn main() {
    let mut threads = 1usize;
    let mut out_path = "BENCH_refute.json".to_owned();
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
            other => panic!("unknown argument `{other}`"),
        }
    }

    let specs = refute_specs();
    eprintln!("refute_bench: {} apps, threads {threads}", specs.len());

    let wall_start = Instant::now();
    let (apps, violations): (Vec<AppRow>, Vec<Vec<String>>) =
        nadroid_par::with_threads(threads, || {
            specs
                .iter()
                .map(|spec| {
                    let (a, v) = run_app(spec);
                    eprintln!(
                        "  {}: {} potential -> {} after unsound -> {} refuted -> {} reported, {}ms",
                        a.name,
                        a.potential,
                        a.after_unsound,
                        a.refuted,
                        a.after_refutation,
                        a.micros / 1000
                    );
                    (a, v)
                })
                .unzip()
        });
    let wall_secs = wall_start.elapsed().as_secs_f64();
    let mut violations: Vec<String> = violations.into_iter().flatten().collect();

    // Corpus-wide coverage: every refutable pattern kind must actually
    // be exercised, or the study quantifies less than it claims.
    let exercised: Vec<PatternKind> = specs
        .iter()
        .flat_map(|s| expected_of(s).refute_kinds)
        .collect();
    for &kind in PatternKind::all() {
        if matches!(kind.expectation(), Expectation::Refuted(_)) && !exercised.contains(&kind) {
            violations.push(format!(
                "pattern {kind:?} is never planted in refute_specs()"
            ));
        }
    }

    let potential: usize = apps.iter().map(|a| a.potential).sum();
    let after_sound: usize = apps.iter().map(|a| a.after_sound).sum();
    let after_unsound: usize = apps.iter().map(|a| a.after_unsound).sum();
    let refuted: usize = apps.iter().map(|a| a.refuted).sum();
    let after_refutation: usize = apps.iter().map(|a| a.after_refutation).sum();
    let mut reasons: BTreeMap<&'static str, usize> = BTreeMap::new();
    for r in RefutationReason::ALL {
        reasons.insert(r.name(), 0);
    }
    for a in &apps {
        for (k, n) in &a.reasons {
            *reasons.entry(k).or_insert(0) += n;
        }
    }

    let mut rec = Record::new(Kind::Refute);
    rec.note = format!("refute_bench --threads {threads}");
    rec.env.threads = threads as u64;
    rec.times.insert("refute.wall_secs".into(), wall_secs);
    rec.counters.insert("apps".into(), apps.len() as u64);
    let mut tallies = BTreeMap::new();
    for (k, n) in [
        ("potential", potential),
        ("after_sound", after_sound),
        ("after_unsound", after_unsound),
        ("refuted", refuted),
        ("after_refutation", after_refutation),
    ] {
        rec.counters.insert(format!("refute.{k}"), n as u64);
        tallies.insert(k.to_string(), n as u64);
    }
    for (k, n) in &reasons {
        rec.counters.insert(format!("refute.reason.{k}"), *n as u64);
        tallies.insert(format!("reason.{k}"), *n as u64);
    }
    let mut populations = Vec::new();
    for a in &apps {
        let app = |k: &str| format!("app.{}.{k}", a.name);
        rec.times.insert(app("wall_secs"), a.micros as f64 / 1e6);
        for (k, n) in [
            ("potential", a.potential),
            ("after_sound", a.after_sound),
            ("after_unsound", a.after_unsound),
            ("refuted", a.refuted),
            ("after_refutation", a.after_refutation),
        ] {
            rec.counters.insert(app(k), n as u64);
        }
        populations.push(a.population.clone());
    }
    populations.sort_by(|a, b| a.app.cmp(&b.app));
    rec.population = Some(Population {
        apps: populations,
        tallies,
    });
    if let Err(e) = commit_bench_record(&rec, Path::new(&out_path)) {
        eprintln!("refute_bench: {e}");
        std::process::exit(1);
    }

    eprintln!(
        "refute_bench: {potential} potential -> {after_sound} after sound -> {after_unsound} \
         after unsound -> {refuted} refuted -> {after_refutation} reported, {wall_secs:.2}s"
    );

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("refute_bench: FAIL — {v}");
        }
        std::process::exit(1);
    }
}
