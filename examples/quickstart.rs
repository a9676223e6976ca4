//! Quickstart: author a tiny Android app model in the DSL, run the full
//! nAdroid pipeline, and print the surviving warnings.
//!
//! Run with `cargo run --example quickstart`.

use nadroid::confirm::{confirm_survivors, ConfirmConfig};
use nadroid::core::{analyze, AnalysisConfig};
use nadroid::dynamic::{decode_schedule, replay};
use nadroid::ir::parse_program;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A minimal app with the classic service-disconnect UAF: the context
    // menu uses `bound` without ensuring the service is still connected.
    let program = parse_program(
        r#"
        app Quickstart
        activity Console {
            field bound: Manager
            cb onCreate { bind this }
            cb onServiceConnected    { bound = new Manager }
            cb onServiceDisconnected { bound = null }
            cb onCreateContextMenu   { use bound }
        }
        class Manager { }
        manifest { main Console }
        "#,
    )?;

    // Threadification -> detection -> filtering (Figure 2 of the paper).
    let analysis = analyze(&program, &AnalysisConfig::default());
    let s = analysis.summary();
    println!("LOC={} EC={} PC={} T={}", s.loc, s.ec, s.pc, s.threads);
    println!(
        "potential UAF pairs: {}  after sound filters: {}  after unsound filters: {}",
        s.potential, s.after_sound, s.after_unsound
    );

    // The §7 report: pair type plus callback/thread lineage.
    for w in analysis.rendered_survivors() {
        println!(
            "warning [{}] {}: use {} ({}) / free {} ({})",
            w.pair_type, w.field, w.use_site, w.use_lineage, w.free_site, w.free_lineage
        );
    }

    // Dynamic confirmation: search schedules for a NullPointerException
    // caused by exactly this (use, free) pair, then print the minimized
    // witness schedule's trace.
    let outcome = confirm_survivors(&analysis, &ConfirmConfig::default());
    println!("confirmed harmful: {}", outcome.tally.confirmed);
    for r in &outcome.results {
        let c = &r.confirmation;
        println!(
            "{} / {}: {} — {}",
            r.use_site, r.free_site, c.verdict, c.reason
        );
        if let Some(schedule) = &c.schedule {
            for line in replay(&program, &decode_schedule(schedule)?).trace() {
                println!("  {line}");
            }
        }
    }
    Ok(())
}
