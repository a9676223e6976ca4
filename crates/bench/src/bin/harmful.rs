//! §8.4 / §7 demonstration: dynamically confirm the harmful UAFs of the
//! paper-example models by searching for NullPointerException witnesses,
//! and print the callback/thread lineage report a programmer would see.
//!
//! Run with `cargo run --release -p nadroid-bench --bin harmful`.

use nadroid_bench::render_table;
use nadroid_core::{analyze, AnalysisConfig};
use nadroid_corpus::paper;
use nadroid_dynamic::{minimize_schedule, replay, ExploreConfig};

fn main() {
    for program in [paper::connectbot(), paper::firefox()] {
        println!("=== {} ===", program.name());
        let analysis = analyze(&program, &AnalysisConfig::default());
        let s = analysis.summary();
        println!(
            "potential={} after-sound={} after-unsound={}",
            s.potential, s.after_sound, s.after_unsound
        );

        let rendered = analysis.rendered_survivors();
        let rows: Vec<Vec<String>> = rendered
            .iter()
            .map(|r| {
                vec![
                    r.field.clone(),
                    r.use_site.clone(),
                    r.free_site.clone(),
                    r.pair_type.to_string(),
                    r.use_lineage.clone(),
                    r.free_lineage.clone(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &[
                    "field",
                    "use",
                    "free",
                    "type",
                    "use lineage",
                    "free lineage"
                ],
                &rows
            )
        );

        let v = analysis.validate_survivors(ExploreConfig::default());
        println!(
            "dynamic validation: {} harmful, {} unconfirmed",
            v.harmful(),
            v.false_positives.len()
        );
        for (w, witness) in &v.confirmed {
            let min = minimize_schedule(&program, &witness.schedule, &witness.npe);
            let minimal = replay(&program, &min);
            println!(
                "  CONFIRMED {} / {} — minimal schedule ({} of {} steps, {} states explored):",
                program.describe_instr(w.use_access.instr),
                program.describe_instr(w.free_access.instr),
                min.len(),
                witness.schedule.len(),
                witness.states_explored
            );
            for line in minimal.trace() {
                println!("    {line}");
            }
        }
        println!();
    }
}
