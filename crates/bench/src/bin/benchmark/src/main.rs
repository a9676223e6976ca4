//! The repository benchmark: five workloads checked against planted
//! ground truth, their end-to-end metrics, and a per-layer trace taken
//! from outside the program.
//!
//! ```text
//! benchmark [<workload>] [--workload <w>] [--seed <n>] [--seconds <s>] [--trace [0|1]]
//! benchmark agree <a.json> <b.json> [--bounds <BENCHMARK.json>]
//! ```
//!
//! One named workload runs in this process and prints, as the last line
//! of standard output, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics, or with `--trace` the per-layer ones (and the
//! trace goes to `target/benchmark/<workload>.trace.json`). With no
//! workload named, every workload runs in a child process of its own, so
//! that each reports its own peak memory. See `README.md`.

mod analysis;
mod confirm;
mod inputs;
mod passes;
mod serve;
mod speed;
mod stats;
mod trace;

use nadroid_core::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Measured passes (serve: cycles) a run makes at the least, however
/// short `--seconds`: per-item medians need three samples to reject one
/// disturbed pass.
pub const MIN_PASSES: usize = 3;
/// Largest share of a traced `paper27` or `fleet` run the layer self
/// times may leave unexplained.
pub const MAX_UNATTRIBUTED: f64 = 0.10;
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 15.0;

type Workload = (&'static str, fn(&Opts) -> Outcome);

/// Every workload, in the order an all-workload run takes them.
const WORKLOADS: [Workload; 5] = [
    ("paper27", analysis::paper27),
    ("fleet", analysis::fleet),
    ("serve_mixed", serve::serve_mixed),
    ("confirm_witness", confirm::witness),
    ("confirm_exhaust", confirm::exhaust),
];

/// End-to-end metrics and their units; every workload reports each.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer self-time shares: the spans whose self times each sums.
const SHARES: [(&str, &[&str]); 14] = [
    ("ir.self_share", &["ir.parse"]),
    ("threadify.self_share", &["threadify.build"]),
    ("hb.self_share", &["hb.build"]),
    ("pointsto.self_share", &["pointsto.solve"]),
    ("pointsto.escape_share", &["pointsto.escape"]),
    ("detector.self_share", &["detector.detect"]),
    ("filters.self_share", &["filters.sound", "filters.unsound"]),
    ("filters.refute_share", &["filters.refute"]),
    ("core.self_share", &["core.summary"]),
    (
        "confirm.self_share",
        &["confirm.triage", "confirm.guide", "confirm.verdict"],
    ),
    ("dynamic.search_share", &["dynamic.search"]),
    ("dynamic.minimize_share", &["dynamic.minimize"]),
    ("dynamic.replay_share", &["dynamic.replay"]),
    ("serve.codec_share", &["serve.codec"]),
];

/// Per-layer metrics and their units; every traced workload reports
/// each, 0 for a layer the workload does not reach.
const PER_LAYER: [(&str, &str); 40] = [
    ("ir.self_share", "share"),
    ("ir.parse_mb_per_s", "MB/s"),
    ("threadify.self_share", "share"),
    ("threadify.threads", "count"),
    ("threadify.callbacks", "count"),
    ("hb.self_share", "share"),
    ("hb.edges", "count"),
    ("pointsto.self_share", "share"),
    ("pointsto.escape_share", "share"),
    ("pointsto.queue_pops", "count"),
    ("detector.self_share", "share"),
    ("detector.pairs_examined", "count"),
    ("detector.racy_pairs", "count"),
    ("filters.self_share", "share"),
    ("filters.refute_share", "share"),
    ("filters.survival_ratio", "ratio"),
    ("filters.refuted", "count"),
    ("core.self_share", "share"),
    ("core.provenance_share", "share"),
    ("confirm.self_share", "share"),
    ("confirm.states", "count"),
    ("confirm.confirmed", "count"),
    ("confirm.unconfirmed", "count"),
    ("confirm.infeasible", "count"),
    ("confirm.confirmed_ratio", "ratio"),
    ("dynamic.search_share", "share"),
    ("dynamic.minimize_share", "share"),
    ("dynamic.replay_share", "share"),
    ("dynamic.minimize_keep_ratio", "ratio"),
    ("dynamic.states_per_s", "1/s"),
    ("serve.codec_share", "share"),
    ("serve.analyze_share", "share"),
    ("serve.service_share", "share"),
    ("serve.queue_share", "share"),
    ("serve.wire_share", "share"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.rejected", "count"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_share", "share"),
    ("host.slowdown", "ratio"),
];

/// How one workload runs.
pub struct Opts {
    pub seed: u64,
    /// How long the measured passes run at the least; the last pass
    /// always finishes, and at least [`MIN_PASSES`] run.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the tests.
    pub smoke: bool,
}

/// What one workload run measured and found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    trace: Option<String>,
    table: Option<String>,
}

/// The id every span of one run carries.
pub fn run_id(workload: &str, seed: u64) -> String {
    format!("{workload}-s{seed}-p{}", std::process::id())
}

impl Outcome {
    /// Count one failed operation.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(error);
        }
    }

    /// Record the end-to-end metrics from one latency per operation or
    /// per input item: the throughput is their count over their sum.
    pub fn end_to_end(&mut self, setup_s: f64, latencies_ms: &[f64], tail: stats::Tail) {
        let busy_s = latencies_ms.iter().sum::<f64>() / 1e3;
        self.metrics.insert("setup_s", setup_s);
        self.metrics
            .insert("ops_per_s", latencies_ms.len() as f64 / busy_s);
        self.metrics
            .insert("op_p50_ms", stats::median(latencies_ms));
        self.metrics.insert("op_tail_ms", tail.of(latencies_ms));
        match stats::peak_rss_mb() {
            Ok(mb) => {
                self.metrics.insert("peak_rss_mb", mb);
            }
            Err(e) => self.fail(e),
        }
    }

    /// Record the per-layer metrics of a traced run whose load threads
    /// spent `e2e` in traced operations: each layer's share of it, the
    /// unattributed rest, the tracing overhead, and the workload's own
    /// counters in `extra`. Also renders the table and the trace.
    pub fn per_layer(
        &mut self,
        workload: &str,
        run_id: &str,
        profile: &trace::Profile,
        e2e: Duration,
        overhead: f64,
        mut extra: BTreeMap<&'static str, f64>,
    ) {
        let share = |d: Duration| d.as_secs_f64() / e2e.as_secs_f64().max(1e-9);
        for (metric, spans) in SHARES {
            extra.insert(
                metric,
                share(spans.iter().map(|s| profile.self_time(s)).sum()),
            );
        }
        extra.insert(
            "trace.unattributed_share",
            1.0 - share(profile.attributed()),
        );
        extra.insert("trace.overhead_share", overhead);
        extra.insert("host.slowdown", speed::slowdown());
        for (name, _) in PER_LAYER {
            self.metrics
                .insert(name, extra.get(name).copied().unwrap_or(0.0));
        }
        let mut rows: Vec<Vec<String>> = profile
            .by_name()
            .map(|(name, d)| {
                vec![
                    name.to_owned(),
                    format!("{:.1}", stats::ms(d)),
                    format!("{:.1}%", share(d) * 100.0),
                ]
            })
            .collect();
        rows.push(vec![
            "(traced wall)".to_owned(),
            format!("{:.1}", stats::ms(e2e)),
            "100.0%".to_owned(),
        ]);
        let mut table = nadroid_bench::render_table(&["span", "self ms", "share"], &rows);
        let reached: Vec<Vec<String>> = PER_LAYER
            .iter()
            .filter(|(name, _)| self.metrics[name] != 0.0)
            .map(|(name, unit)| {
                vec![
                    (*name).to_owned(),
                    format!("{:.4}", self.metrics[name]),
                    (*unit).to_owned(),
                ]
            })
            .collect();
        table.push('\n');
        table.push_str(&nadroid_bench::render_table(
            &["metric", "value", "unit"],
            &reached,
        ));
        self.table = Some(table);
        self.trace = Some(profile.chrome_trace(run_id, workload));
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    fn json(&self, spec: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = spec
            .iter()
            .filter_map(|(name, unit)| {
                let v = self.metrics.get(name).filter(|v| v.is_finite())?;
                Some(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ))
            })
            .collect();
        let correct = self.failed == 0
            && self.attempted > 0
            && spec
                .iter()
                .all(|(n, _)| self.metrics.get(n).is_some_and(|v| v.is_finite()));
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            // A set-up that fails before any operation is one failed attempt.
            self.attempted.max(self.failed).max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("benchmark: {msg}");
    eprintln!(
        "usage: benchmark [<workload>] [--workload <w>] [--seed <n>] [--seconds <s>] [--trace [0|1]]\n       \
         benchmark agree <a.json> <b.json> [--bounds <BENCHMARK.json>]\n\
         workloads: {}",
        WORKLOADS.map(|(n, _)| n).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // The corpus reads these; the seed alone must fix every input, and
    // the analysis thread count is pinned per workload.
    std::env::remove_var("NADROID_SCALE_EXP");
    std::env::remove_var("NADROID_THREADS");

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("agree") {
        return agree(&args[1..]);
    }
    let mut workload: Option<String> = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" | "--seed" | "--seconds" => {
                let Some(v) = it.next() else {
                    return usage(&format!("{a} needs a value"));
                };
                match a.as_str() {
                    "--workload" => workload = Some(v.clone()),
                    "--seed" => match v.parse() {
                        Ok(n) => seed = n,
                        Err(_) => return usage(&format!("bad seed `{v}`")),
                    },
                    _ => match v.parse::<f64>() {
                        Ok(s) if s.is_finite() && s >= 0.0 => seconds = s,
                        _ => return usage(&format!("bad seconds `{v}`")),
                    },
                }
            }
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            w if !w.starts_with('-') && workload.is_none() => workload = Some(w.to_owned()),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(workload) = workload else {
        return run_all(seed, seconds, trace);
    };
    let Some(&(name, run)) = WORKLOADS.iter().find(|(n, _)| *n == workload) else {
        return usage(&format!("unknown workload `{workload}`"));
    };
    match speed::pin_to_this_cpu() {
        Some(cpu) => eprintln!("{name}: pinned to CPU {cpu}"),
        None => eprintln!("{name}: cannot pin to one CPU; running unpinned"),
    }
    let mut out = run(&Opts {
        seed,
        seconds,
        trace,
        smoke: false,
    });
    let slowdown = speed::slowdown();
    if !slowdown.is_finite() {
        out.fail("the host-speed sampler took no samples, so times are uncorrected".to_owned());
    }
    if let (Some(doc), Some(table)) = (&out.trace, &out.table) {
        let dir = std::path::Path::new("target").join("benchmark");
        let path = dir.join(format!("{name}.trace.json"));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => eprintln!("{name}: wrote {}", path.display()),
            Err(e) => eprintln!("{name}: cannot write {}: {e}", path.display()),
        }
        eprintln!("{table}");
    }
    eprintln!(
        "{name}: the host ran {slowdown:.2} times slower than nominal; times are corrected to nominal speed"
    );
    for e in &out.errors {
        eprintln!("{name}: FAIL {e}");
    }
    if out.failed > 0 {
        eprintln!(
            "{name}: {} of {} operations failed",
            out.failed, out.attempted
        );
    }
    let spec: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", out.json(spec));
    ExitCode::SUCCESS
}

/// Run every workload in a child process of its own and print each
/// result line, labeled with its workload, then every metric by name.
fn run_all(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return usage(&format!("cannot find this executable: {e}")),
    };
    let mut ok = true;
    let mut listing = String::new();
    for (name, _) in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let line = output.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .map(str::to_owned)
        });
        let parsed = line.as_deref().map(parse_json);
        let Some(Ok(v)) = parsed else {
            eprintln!("{name}: no result");
            ok = false;
            continue;
        };
        let line = line.unwrap_or_default();
        println!("{{\"workload\": \"{name}\", {}", &line[1..]);
        ok &= v.get("correct").and_then(JsonValue::as_bool) == Some(true);
        if let Some(JsonValue::Obj(metrics)) = v.get("metrics") {
            for (metric, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                listing.push_str(&format!("{name:<16} {metric:<28} {value:>14.4} {unit}\n"));
            }
        }
    }
    eprint!("{listing}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `benchmark agree`: compare two result files metric by metric and
/// name each end-to-end metric whose values differ by more than its
/// bound in `BENCHMARK.json`. Result lines pair up by their `workload`
/// label, or by position when unlabeled.
fn agree(args: &[String]) -> ExitCode {
    let (mut files, mut bounds_path) = (Vec::new(), "BENCHMARK.json".to_owned());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match (a.as_str(), it.clone().next()) {
            ("--bounds", Some(p)) => {
                bounds_path = p.clone();
                it.next();
            }
            _ => files.push(a.clone()),
        }
    }
    let [a, b] = files.as_slice() else {
        return usage("agree needs two result files");
    };
    let bounds = match read_json(&bounds_path).and_then(|v| end_to_end_bounds(&v)) {
        Ok(b) => b,
        Err(e) => return usage(&e),
    };
    let (ra, rb) = match (results(a), results(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => return usage(&e),
    };
    let mut outside = 0;
    for (i, (label, va)) in ra.iter().enumerate() {
        let vb = match label {
            Some(l) => rb
                .iter()
                .find(|(m, _)| m.as_ref() == Some(l))
                .map(|(_, v)| v),
            None => rb.get(i).map(|(_, v)| v),
        };
        let label = label.clone().unwrap_or_else(|| format!("result {}", i + 1));
        let Some(vb) = vb else {
            println!("{label}: missing from {b}");
            outside += 1;
            continue;
        };
        for v in [va, vb] {
            if v.get("correct").and_then(JsonValue::as_bool) != Some(true) {
                println!("{label}: a result is not correct");
                outside += 1;
            }
        }
        for (metric, bound) in &bounds {
            let value = |v: &JsonValue| v.get("metrics")?.get(metric)?.get("value")?.as_f64();
            let (Some(x), Some(y)) = (value(va), value(vb)) else {
                continue;
            };
            let diff = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            if diff > *bound {
                println!(
                    "{label}: {metric} {x} vs {y} differs by {:.1}% (bound {:.1}%)",
                    diff * 100.0,
                    bound * 100.0
                );
                outside += 1;
            }
        }
    }
    if outside == 0 {
        println!("agree: every metric within its bound");
        ExitCode::SUCCESS
    } else {
        println!("agree: {outside} metric(s) outside their bounds");
        ExitCode::FAILURE
    }
}

fn read_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(name, bound)` of every end-to-end metric in a `BENCHMARK.json`.
fn end_to_end_bounds(spec: &JsonValue) -> Result<Vec<(String, f64)>, String> {
    spec.get("end_to_end")
        .and_then(JsonValue::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let bound = m.get("bound").and_then(JsonValue::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_owned(), b))
                .ok_or_else(|| "an end_to_end metric without name or bound".to_owned())
        })
        .collect()
}

/// The result objects in a file: every line that is a JSON object with
/// `metrics`, with its `workload` label when it has one.
fn results(path: &str) -> Result<Vec<(Option<String>, JsonValue)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let found: Vec<_> = text
        .lines()
        .filter_map(|l| parse_json(l.trim()).ok())
        .filter(|v| v.get("metrics").is_some())
        .map(|v| {
            (
                v.get("workload")
                    .and_then(JsonValue::as_str)
                    .map(str::to_owned),
                v,
            )
        })
        .collect();
    if found.is_empty() {
        Err(format!("{path} holds no result line"))
    } else {
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(spec: &JsonValue, key: &str) -> Vec<String> {
        let mut v: Vec<String> = spec
            .get(key)
            .and_then(JsonValue::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        v.sort();
        v
    }

    fn sorted(spec: &[(&str, &str)]) -> Vec<String> {
        let mut v: Vec<String> = spec.iter().map(|(n, _)| (*n).to_owned()).collect();
        v.sort();
        v
    }

    /// Every workload at smoke size, untraced and traced: each emits
    /// every metric `BENCHMARK.json` lists, and no operation fails.
    #[test]
    fn every_workload_emits_every_metric_without_failures() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let spec = read_json(path).expect("BENCHMARK.json");
        assert_eq!(names(&spec, "end_to_end"), sorted(&END_TO_END));
        assert_eq!(names(&spec, "per_layer"), sorted(&PER_LAYER));
        let listed: Vec<String> = spec
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(listed, WORKLOADS.map(|(n, _)| n.to_owned()));
        for (name, run) in WORKLOADS {
            for trace in [false, true] {
                let out = run(&Opts {
                    seed: 7,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                });
                assert_eq!(out.failed, 0, "{name} trace={trace}: {:?}", out.errors);
                assert!(out.attempted > 0, "{name}");
                let spec: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
                let line = parse_json(&out.json(spec)).expect("result line parses");
                assert_eq!(
                    line.get("correct").and_then(JsonValue::as_bool),
                    Some(true),
                    "{name}"
                );
                for (metric, _) in spec {
                    assert!(
                        line.get("metrics").and_then(|m| m.get(metric)).is_some(),
                        "{name}: {metric}"
                    );
                }
                if !trace {
                    for (metric, _) in END_TO_END {
                        assert!(out.metrics[metric] > 0.0, "{name}: {metric} is 0");
                    }
                }
            }
        }
    }

    #[test]
    fn agree_flags_only_metrics_outside_their_bounds() {
        let dir = std::env::temp_dir().join(format!("nadroid-agree-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, text: &str| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p.to_string_lossy().into_owned()
        };
        let bounds = write(
            "bounds.json",
            r#"{"end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        );
        let line = |v: f64| {
            format!(
                r#"{{"correct": true, "attempted": 1, "failed": 0, "metrics": {{"a": {{"value": {v}, "unit": "s"}}}}}}"#
            )
        };
        let base = write("base.json", &line(1.0));
        let near = write("near.json", &format!("noise\n{}", line(1.05)));
        let far = write("far.json", &line(1.5));
        let run = |x: &str, y: &str| {
            agree(&[
                x.to_owned(),
                y.to_owned(),
                "--bounds".to_owned(),
                bounds.clone(),
            ])
        };
        assert_eq!(run(&base, &near), ExitCode::SUCCESS);
        assert_eq!(run(&base, &far), ExitCode::FAILURE);
        std::fs::remove_dir_all(&dir).ok();
    }
}
