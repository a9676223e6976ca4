//! Soundness fuzzer: generate random applications and check the paper's
//! central claim — the sound filters (MHB, IG, IA) never prune a
//! (use, free) pair the schedule explorer can witness.
//!
//! Run with `cargo run --release -p nadroid-bench --bin soundness_fuzz [iterations]`.

use nadroid_core::{analyze, AnalysisConfig};
use nadroid_corpus::{generate, AppSpec, PatternKind};
use nadroid_dynamic::{explore, replay, ExploreConfig, Goal};
use rand::{Rng, SeedableRng};

fn main() {
    let iterations: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xda7a);
    let mut pairs_checked = 0usize;
    let mut violations = 0usize;

    for i in 0..iterations {
        // Random small app: a mix of every pattern kind, 0-2 instances.
        let mut spec = AppSpec::new(format!("Fuzz{i}"), rng.r#gen());
        for &kind in PatternKind::all() {
            spec = spec.with(kind, rng.gen_range(0..=1));
        }
        let app = generate(&spec);
        let analysis = analyze(&app.program, &AnalysisConfig::default());
        for outcome in analysis.sound_outcomes() {
            let Some(filter) = outcome.pruned_by else {
                continue;
            };
            let w = &outcome.warning;
            pairs_checked += 1;
            let witness = explore(
                &app.program,
                Goal::Pair {
                    use_instr: w.use_access.instr,
                    free_instr: w.free_access.instr,
                },
                ExploreConfig::default(),
            );
            if let Some(witness) = witness {
                violations += 1;
                eprintln!(
                    "SOUNDNESS VIOLATION: {filter} pruned {} / {} but a witness exists:",
                    app.program.describe_instr(w.use_access.instr),
                    app.program.describe_instr(w.free_access.instr)
                );
                for line in replay(&app.program, &witness.schedule).trace() {
                    eprintln!("  {line}");
                }
            }
        }
        if (i + 1) % 10 == 0 {
            println!(
                "{} apps fuzzed, {pairs_checked} sound-pruned pairs checked ...",
                i + 1
            );
        }
    }
    println!(
        "done: {iterations} apps, {pairs_checked} sound-pruned pairs, {violations} violation(s)"
    );
    assert_eq!(violations, 0, "the sound filters must be sound");
}
