//! Plain-text rendering of a complete analysis report — the artifact a
//! programmer would read (§7): summary, ranked surviving warnings with
//! lineages, and filter attribution.

use crate::report::rank_key;
use crate::Analysis;
use nadroid_filters::FilterKind;
use std::fmt::Write as _;

/// Render the static report for an analysis. Dynamic confirmation
/// verdicts are not part of it: `nadroid analyze --validate` appends
/// `nadroid-confirm`'s verdicts after it.
#[must_use]
pub fn render_report(analysis: &Analysis<'_>) -> String {
    let mut out = String::new();
    let p = analysis.program();
    let s = analysis.summary();
    let _ = writeln!(out, "nAdroid report for `{}`", p.name());
    let _ = writeln!(
        out,
        "  {} LOC | {} entry callbacks | {} posted callbacks | {} threads",
        s.loc, s.ec, s.pc, s.threads
    );
    if s.refuted == 0 {
        let _ = writeln!(
            out,
            "  {} potential UAF pairs -> {} after sound filters -> {} reported",
            s.potential, s.after_sound, s.after_unsound
        );
    } else {
        let _ = writeln!(
            out,
            "  {} potential UAF pairs -> {} after sound filters -> {} after unsound \
             filters -> {} refuted -> {} reported",
            s.potential, s.after_sound, s.after_unsound, s.refuted, s.after_refutation
        );
    }
    out.push('\n');

    // Filter attribution.
    let mut counts: Vec<(FilterKind, usize)> = Vec::new();
    for outcome in analysis
        .sound_outcomes()
        .iter()
        .chain(analysis.unsound_outcomes())
    {
        if let Some(f) = outcome.pruned_by {
            match counts.iter_mut().find(|(k, _)| *k == f) {
                Some((_, n)) => *n += 1,
                None => counts.push((f, 1)),
            }
        }
    }
    counts.sort_by_key(|&(k, _)| FilterKind::all().iter().position(|&x| x == k));
    if !counts.is_empty() {
        let _ = writeln!(out, "pruned warnings by filter (warning granularity):");
        for (k, n) in counts {
            let _ = writeln!(
                out,
                "  {k:<4} {n:>5}  [{}]",
                if k.is_sound() { "sound" } else { "unsound" }
            );
        }
        out.push('\n');
    }

    // Ranked survivors.
    let rendered = analysis.rendered_survivors();
    if rendered.is_empty() {
        let _ = writeln!(out, "no surviving warnings.");
    } else {
        let _ = writeln!(
            out,
            "{} surviving warning(s), ranked by the PC/NT hypotheses:",
            rendered.len()
        );
        let mut sorted = rendered;
        sorted.sort_by_key(|r| rank_key(r.pair_type));
        for (i, r) in sorted.iter().enumerate() {
            let _ = writeln!(out, "  #{:<3} [{}] {}", i + 1, r.pair_type, r.field);
            let _ = writeln!(out, "       use : {}", r.use_site);
            let _ = writeln!(out, "             {}", r.use_lineage);
            let _ = writeln!(out, "       free: {}", r.free_site);
            let _ = writeln!(out, "             {}", r.free_lineage);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisConfig};
    use nadroid_ir::parse_program;

    #[test]
    fn report_contains_all_sections() {
        let p = parse_program(
            r#"
            app Rep
            activity M {
                field f: M
                field g: M
                cb onCreate { f = new M  g = new M }
                cb onClick { use f  if g != null { use g } }
                cb onPause { f = null  g = null }
            }
            "#,
        )
        .unwrap();
        let analysis = analyze(&p, &AnalysisConfig::default());
        let report = render_report(&analysis);
        assert!(report.contains("nAdroid report for `Rep`"), "{report}");
        assert!(report.contains("pruned warnings by filter"), "{report}");
        assert!(
            report.contains("IG"),
            "the guarded pair is attributed: {report}"
        );
        assert!(report.contains("surviving warning"), "{report}");
    }

    #[test]
    fn clean_app_reports_no_survivors() {
        let p = parse_program("app Clean\nactivity M { cb onClick { } }").unwrap();
        let analysis = analyze(&p, &AnalysisConfig::default());
        let report = render_report(&analysis);
        assert!(report.contains("no surviving warnings"), "{report}");
    }
}
