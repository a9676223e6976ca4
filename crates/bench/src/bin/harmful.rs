//! §8.4 / §7 demonstration: dynamically confirm the harmful UAFs of the
//! paper-example models with `nadroid-confirm`, and print the
//! callback/thread lineage report a programmer would see plus the trace
//! of each minimized witness schedule.
//!
//! Run with `cargo run --release -p nadroid-bench --bin harmful`.

use nadroid_bench::render_table;
use nadroid_confirm::{confirm_survivors, ConfirmConfig};
use nadroid_core::{analyze, AnalysisConfig};
use nadroid_corpus::paper;
use nadroid_dynamic::{decode_schedule, replay};

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

        let outcome = confirm_survivors(&analysis, &ConfirmConfig::default());
        let t = outcome.tally;
        println!(
            "confirmed {}, unconfirmed {}, infeasible {}",
            t.confirmed, t.unconfirmed, t.infeasible
        );
        for r in &outcome.results {
            let c = &r.confirmation;
            println!(
                "  {} {} / {}: {} ({} states explored)",
                c.verdict, r.use_site, r.free_site, c.reason, c.states_explored
            );
            if let Some(schedule) = &c.schedule {
                let steps = decode_schedule(schedule).expect("confirm emits decodable schedules");
                for line in replay(&program, &steps).trace() {
                    println!("    {line}");
                }
            }
        }
        println!();
    }
}
