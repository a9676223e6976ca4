//! Audit the paper's motivating application models (Figure 1): the
//! ConnectBot service-disconnect UAFs and the FireFox thread UAF —
//! detection, filtering, ranking, DEvA comparison, and dynamic witnesses.
//!
//! Run with `cargo run --example connectbot_audit`.

use nadroid::confirm::{confirm_survivors, ConfirmConfig};
use nadroid::core::{analyze, AnalysisConfig};
use nadroid::corpus::paper;
use nadroid::deva::run_deva;
use nadroid::dynamic::{decode_schedule, replay};

fn main() {
    for program in [paper::connectbot(), paper::firefox()] {
        println!("===== {} =====", program.name());
        let analysis = analyze(&program, &AnalysisConfig::default());
        let s = analysis.summary();
        println!(
            "pipeline: {} potential -> {} after sound -> {} after unsound",
            s.potential, s.after_sound, s.after_unsound
        );

        println!("ranked report (§7: PC- and NT-involved pairs first):");
        for w in analysis.rendered_survivors() {
            println!("  [{}] {}", w.pair_type, w.field);
            println!("      use : {}  via {}", w.use_site, w.use_lineage);
            println!("      free: {}  via {}", w.free_site, w.free_lineage);
        }

        // The state-of-the-art baseline misses the cross-class races.
        let deva = run_deva(&program);
        println!(
            "DEvA finds {} warning(s) here (limitations: intra-class scope, no threads)",
            deva.len()
        );

        // Dynamic confirmation (§7, automated): a minimized witness
        // schedule per confirmed warning.
        let outcome = confirm_survivors(&analysis, &ConfirmConfig::default());
        println!(
            "dynamic confirmation: {}/{} confirmed harmful",
            outcome.tally.confirmed,
            outcome.tally.total()
        );
        for r in &outcome.results {
            let c = &r.confirmation;
            println!(
                "  {} {} / {} ({} states):",
                c.verdict, r.use_site, r.free_site, c.states_explored
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
