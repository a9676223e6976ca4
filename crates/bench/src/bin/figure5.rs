//! Regenerate Figure 5: effectiveness of the sound and unsound filters,
//! each applied individually, over the 20 test applications.
//!
//! Run with `cargo run --release -p nadroid-bench --bin figure5`.

use nadroid_bench::{analyze_program, filter_effectiveness, render_table, FilterEffect};
use nadroid_corpus::{generate, spec_for, table1_rows, AppGroup};
use nadroid_detector::warning_id;
use nadroid_filters::FilterKind;
use nadroid_ledger::AppPopulation;

fn main() {
    let rows = table1_rows();
    let test_rows: Vec<_> = rows.iter().filter(|r| r.group == AppGroup::Test).collect();
    // Generate, then analyze, each app on its own thread — apps are
    // independent, and the two scopes keep `apps` alive for the
    // program-borrowing `Analysis` values.
    let apps: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = test_rows
            .iter()
            .map(|r| {
                scope.spawn(move || {
                    eprintln!("generating {} ...", r.name);
                    generate(&spec_for(r))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generation thread panicked"))
            .collect::<Vec<_>>()
    });
    let analyses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = apps
            .iter()
            .map(|a| scope.spawn(move || analyze_program(&a.program)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analysis thread panicked"))
            .collect::<Vec<_>>()
    });
    let eff = filter_effectiveness(&analyses);

    println!("Figure 5 — filter effectiveness (20 test apps, each filter applied individually).");
    println!();
    println!(
        "(a) Sound filters, % of {} potential UAF pairs (paper: MHB 21, IG 66, IA 13, all 88):",
        eff.potential
    );
    let mut rows_a = Vec::new();
    for (i, &k) in FilterKind::sound().iter().enumerate() {
        rows_a.push(vec![
            k.to_string(),
            eff.sound_counts[i].to_string(),
            format!(
                "{:.1}%",
                FilterEffect::pct(eff.sound_counts[i], eff.potential)
            ),
        ]);
    }
    let all_sound = eff.potential - eff.after_sound;
    rows_a.push(vec![
        "All".into(),
        all_sound.to_string(),
        format!("{:.1}%", FilterEffect::pct(all_sound, eff.potential)),
    ]);
    println!("{}", render_table(&["filter", "pruned", "share"], &rows_a));

    println!(
        "(b) Unsound filters, % of {} remaining pairs (paper: mayHB 13, MA 26, UR 29, TT 15, all 70):",
        eff.after_sound
    );
    let mut rows_b = Vec::new();
    rows_b.push(vec![
        "mayHB".into(),
        eff.mayhb.to_string(),
        format!("{:.1}%", FilterEffect::pct(eff.mayhb, eff.after_sound)),
    ]);
    for (i, &k) in FilterKind::unsound().iter().enumerate() {
        if FilterKind::may_hb().contains(&k) {
            continue; // folded into the mayHB bar, as in the paper
        }
        rows_b.push(vec![
            k.to_string(),
            eff.unsound_counts[i].to_string(),
            format!(
                "{:.1}%",
                FilterEffect::pct(eff.unsound_counts[i], eff.after_sound)
            ),
        ]);
    }
    let all_unsound = eff.after_sound - eff.after_unsound;
    rows_b.push(vec![
        "All".into(),
        all_unsound.to_string(),
        format!("{:.1}%", FilterEffect::pct(all_unsound, eff.after_sound)),
    ]);
    println!("{}", render_table(&["filter", "pruned", "share"], &rows_b));

    println!(
        "combined reduction: {:.1}% of potential pairs pruned (paper: 96%)",
        FilterEffect::pct(eff.potential - eff.after_unsound, eff.potential)
    );

    // Stable ids of the surviving warnings — the handles `nadroid
    // explain` and the provenance JSON key everything on. Content-hashed,
    // so they are identical across reruns and parallel orderings.
    println!();
    println!("surviving warning ids (explain with `nadroid explain <app.dsl> <id>`):");
    for (app, analysis) in apps.iter().zip(&analyses) {
        for w in analysis.survivors() {
            println!(
                "  {}  {}",
                warning_id(&app.program, analysis.threads(), w),
                app.program.name()
            );
        }
    }

    // Per-app population digests — the same order-invariant hash the
    // run ledger records, so a `perf gate` population-drift verdict can
    // be matched against this driver's output by eye.
    println!();
    println!("per-app population digests (as recorded in Result/ledger.jsonl):");
    for (app, analysis) in apps.iter().zip(&analyses) {
        let ids = analysis
            .survivors()
            .iter()
            .map(|w| warning_id(&app.program, analysis.threads(), w))
            .collect();
        let p = AppPopulation::new(app.program.name(), ids);
        println!("  {}  {} ({} warning(s))", p.digest, p.app, p.ids.len());
    }
}
