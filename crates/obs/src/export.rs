//! Exporters: Chrome `trace_event` JSON, a flat JSON run-report, and
//! the human `--stats` text tree.
//!
//! All three render from the same [`Recorder`] snapshot, so a trace, a
//! report, and the on-terminal stats of one run always agree.

use crate::Recorder;
use std::fmt::Write as _;

/// Escape a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Aggregate of all spans sharing one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAgg {
    /// Span name.
    pub name: String,
    /// How many spans carried the name.
    pub count: u64,
    /// Summed wall duration, microseconds.
    pub total_us: u64,
    /// Longest single span, microseconds.
    pub max_us: u64,
}

impl Recorder {
    /// Spans aggregated by name, ordered by descending total time.
    #[must_use]
    pub fn span_aggregates(&self) -> Vec<SpanAgg> {
        let mut by_name: std::collections::BTreeMap<String, SpanAgg> =
            std::collections::BTreeMap::new();
        for s in self.spans() {
            let e = by_name.entry(s.name.clone()).or_insert_with(|| SpanAgg {
                name: s.name.clone(),
                count: 0,
                total_us: 0,
                max_us: 0,
            });
            e.count += 1;
            e.total_us += s.dur_us;
            e.max_us = e.max_us.max(s.dur_us);
        }
        let mut out: Vec<SpanAgg> = by_name.into_values().collect();
        out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
        out
    }

    /// Summed duration of each thread's top-level spans — the "busy"
    /// (cpu-like) time of the run, which exceeds wall time when work ran
    /// on parallel threads.
    #[must_use]
    pub fn busy(&self) -> std::time::Duration {
        let us: u64 = self
            .spans()
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.dur_us)
            .sum();
        std::time::Duration::from_micros(us)
    }

    /// Render the Chrome `trace_event` JSON document: one complete
    /// (`"ph": "X"`) event per span, timestamps in microseconds since
    /// the recorder's epoch. Load the file in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("{\n\"traceEvents\": [");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n  {{\"name\": \"{}\", \"cat\": \"nadroid\", \"ph\": \"X\", \
                 \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
                esc(&s.name),
                s.start_us,
                s.dur_us,
                s.tid
            );
        }
        if !spans.is_empty() {
            out.push('\n');
        }
        out.push_str("],\n\"displayTimeUnit\": \"ms\"\n}\n");
        out
    }

    /// Render the metric/span portion of a run report as JSON object
    /// *fields* (no surrounding braces), for embedding into a larger
    /// document. `indent` prefixes every line.
    #[must_use]
    pub fn report_fields(&self, indent: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{indent}\"wall_secs\": {:.6},",
            self.wall().as_secs_f64()
        );
        let _ = writeln!(
            out,
            "{indent}\"busy_secs\": {:.6},",
            self.busy().as_secs_f64()
        );
        let _ = write!(out, "{indent}\"counters\": {{");
        let counters = self.counters();
        for (i, (k, v)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n{indent}  \"{}\": {v}", esc(k));
        }
        if counters.is_empty() {
            out.push_str("},\n");
        } else {
            let _ = write!(out, "\n{indent}}},\n");
        }
        let _ = write!(out, "{indent}\"gauges\": {{");
        let gauges = self.gauges();
        for (i, (k, v)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n{indent}  \"{}\": {v}", esc(k));
        }
        if gauges.is_empty() {
            out.push_str("},\n");
        } else {
            let _ = write!(out, "\n{indent}}},\n");
        }
        let _ = write!(out, "{indent}\"histograms\": {{");
        let hists = self.histograms();
        for (i, (k, h)) in hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{indent}  \"{}\": {{\"count\": {}, \"p50_us\": {}, \"p90_us\": {}, \
                 \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                esc(k),
                h.count(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.95),
                h.percentile(0.99),
                h.max()
            );
        }
        if hists.is_empty() {
            out.push_str("},\n");
        } else {
            let _ = write!(out, "\n{indent}}},\n");
        }
        let _ = write!(out, "{indent}\"spans\": [");
        let aggs = self.span_aggregates();
        for (i, a) in aggs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{indent}  {{\"name\": \"{}\", \"count\": {}, \"total_secs\": {:.6}, \
                 \"max_secs\": {:.6}}}",
                esc(&a.name),
                a.count,
                a.total_us as f64 / 1e6,
                a.max_us as f64 / 1e6
            );
        }
        if aggs.is_empty() {
            out.push(']');
        } else {
            let _ = write!(out, "\n{indent}]");
        }
        out
    }

    /// Render a standalone flat JSON run-report (wall/busy seconds,
    /// counters, gauges, per-name span aggregates).
    #[must_use]
    pub fn report_json(&self) -> String {
        format!("{{\n{}\n}}\n", self.report_fields("  "))
    }

    /// Render the human-readable stats tree: spans nested per thread,
    /// then counters and gauges.
    #[must_use]
    pub fn stats_tree(&self) -> String {
        let spans = self.spans();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run stats: wall {:.3}ms, busy {:.3}ms",
            self.wall().as_secs_f64() * 1e3,
            self.busy().as_secs_f64() * 1e3
        );
        let mut tid = None;
        let many_tids = spans
            .first()
            .is_some_and(|f| spans.iter().any(|s| s.tid != f.tid));
        for s in &spans {
            if many_tids && tid != Some(s.tid) {
                tid = Some(s.tid);
                let _ = writeln!(out, "thread {}:", s.tid);
            }
            let pad = "  ".repeat(s.depth as usize + 1);
            let _ = writeln!(
                out,
                "{pad}{:<width$} {:>10.3}ms",
                s.name,
                s.dur_us as f64 / 1e3,
                width = 34usize.saturating_sub(pad.len())
            );
        }
        let counters = self.counters();
        if !counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (k, v) in &counters {
                let _ = writeln!(out, "  {k:<40} {v:>12}");
            }
        }
        let gauges = self.gauges();
        if !gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (k, v) in &gauges {
                let _ = writeln!(out, "  {k:<40} {v:>12}");
            }
        }
        let hists = self.histograms();
        if !hists.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (k, h) in &hists {
                let _ = writeln!(
                    out,
                    "  {k:<40} n={} p50={}us p99={}us max={}us",
                    h.count(),
                    h.percentile(0.50),
                    h.percentile(0.99),
                    h.max()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, gauge, span};

    fn sample() -> Recorder {
        let rec = Recorder::new();
        {
            let _g = rec.install();
            let _a = span("analyze");
            {
                let _d = span("detection");
                let _p = span("pointsto");
                counter("pointsto.queue_pops", 3);
            }
            gauge("pointsto.max_worklist", 9);
        }
        rec
    }

    #[test]
    fn chrome_trace_has_complete_events() {
        let trace = sample().chrome_trace();
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        assert!(trace.contains("\"ph\": \"X\""), "{trace}");
        assert!(trace.contains("\"name\": \"pointsto\""), "{trace}");
        assert_eq!(trace.matches("\"ph\": \"X\"").count(), 3);
    }

    #[test]
    fn report_json_is_balanced_and_flat() {
        let json = sample().report_json();
        assert!(json.contains("\"pointsto.queue_pops\": 3"), "{json}");
        assert!(json.contains("\"pointsto.max_worklist\": 9"), "{json}");
        assert!(json.contains("\"wall_secs\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn stats_tree_nests_by_depth() {
        let tree = sample().stats_tree();
        let analyze_line = tree.lines().find(|l| l.contains("analyze")).unwrap();
        let pointsto_line = tree.lines().find(|l| l.contains("pointsto ")).unwrap();
        let indent = |l: &str| l.len() - l.trim_start().len();
        assert!(indent(pointsto_line) > indent(analyze_line), "{tree}");
        assert!(tree.contains("counters:"), "{tree}");
    }

    #[test]
    fn empty_recorder_exports_cleanly() {
        let rec = Recorder::new();
        let trace = rec.chrome_trace();
        assert!(trace.contains("\"traceEvents\": []"), "{trace}");
        let json = rec.report_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"histograms\": {}"), "{json}");
        assert!(rec.span_aggregates().is_empty());
        assert!(rec.histograms().is_empty());
        assert!(rec.stats_tree().contains("run stats:"));
    }

    #[test]
    fn histograms_appear_in_report_and_stats_tree() {
        let rec = Recorder::new();
        {
            let _g = rec.install();
            for v in [100u64, 200, 300] {
                crate::hist("serve.latency.analyze.miss", v);
            }
        }
        let json = rec.report_json();
        assert!(json.contains("\"serve.latency.analyze.miss\""), "{json}");
        assert!(json.contains("\"p99_us\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let tree = rec.stats_tree();
        assert!(tree.contains("histograms:"), "{tree}");
        assert!(tree.contains("n=3"), "{tree}");
    }
}
