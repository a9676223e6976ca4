//! Command implementations behind the `nadroid` binary.
//!
//! The CLI takes an application model in the textual DSL (the
//! reproduction's stand-in for an APK) and runs the pipeline:
//!
//! ```console
//! $ nadroid analyze app.dsl              # full report
//! $ nadroid analyze app.dsl --validate   # + the `confirm` verdicts
//! $ nadroid analyze app.dsl --sound-only # skip the unsound ranking tier
//! $ nadroid nosleep app.dsl              # the §9 energy-bug client
//! $ nadroid deva app.dsl                 # the DEvA baseline, for contrast
//! $ nadroid dot app.dsl                  # threadification forest as DOT
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nadroid_core::{analyze, render_report, AnalysisConfig};
use nadroid_filters::FilterKind;
use nadroid_ir::{parse_program, Program};
use nadroid_ledger as ledger;
use nadroid_serve::{AnalyzeOpts, Client, Request, Response, ServeConfig, Server};
use nadroid_threadify::ThreadModel;
use std::fmt;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Run the full pipeline and print the report.
    Analyze {
        /// Path to the DSL file.
        path: String,
        /// Also append the `confirm` verdicts on the survivors.
        validate: bool,
        /// Skip the unsound filter tier.
        sound_only: bool,
        /// Points-to sensitivity.
        k: u32,
        /// Emit JSON instead of the text report.
        json: bool,
        /// Baseline file: suppress fingerprints listed there; created or
        /// refreshed when `update_baseline` is set.
        baseline: Option<String>,
        /// Write the current warning fingerprints to the baseline file.
        update_baseline: bool,
        /// Write a Chrome `trace_event` JSON file of the run (load it in
        /// chrome://tracing or Perfetto).
        trace: Option<String>,
        /// Write a flat JSON run-report (counters, gauges and span
        /// aggregates, whose totals are the phase times) to this file.
        report: Option<String>,
        /// Write the `nadroid-provenance/4` JSON document (stable warning
        /// ids, derivation trees, filter audit, HB evidence) to this file.
        provenance: Option<String>,
        /// Append the human-readable span/metric tree to the output.
        stats: bool,
        /// Worker threads for the parallel phases; `None` inherits the
        /// `NADROID_THREADS` environment default (falling back to 1).
        /// Output is byte-identical at every thread count.
        threads: Option<usize>,
    },
    /// Explain warnings: derivation tree, filter audit, lineages.
    Explain {
        /// Path to the DSL file.
        path: String,
        /// Stable warning id (`w:` + 16 hex digits); `None` explains all.
        warning_id: Option<String>,
    },
    /// Dynamically confirm surviving warnings: directed schedule
    /// synthesis that manifests each one as a concrete NPE (or proves
    /// it infeasible within the model's bounds).
    Confirm {
        /// Path to the DSL file.
        path: String,
        /// Stable warning id (`w:` + 16 hex digits); `None` confirms
        /// every surviving warning.
        warning_id: Option<String>,
        /// Emit the `nadroid-confirm/1` JSON document instead of text.
        json: bool,
        /// Worker threads for the analysis and the batch confirmation;
        /// verdicts are byte-identical at every thread count.
        threads: Option<usize>,
        /// Also write the `nadroid-provenance/4` document with the
        /// confirmation verdicts attached to this file.
        provenance: Option<String>,
    },
    /// Replay an encoded witness schedule against an app model and
    /// verify it reproduces an NPE (the cross-process check behind a
    /// `confirmed` verdict).
    Replay {
        /// Path to the DSL file.
        path: String,
        /// The encoded schedule (the `schedule` field of a confirm
        /// row), e.g. `"a2.1 l0.onCreate q0"`.
        schedule: String,
        /// Require the NPE to match this warning's use and free sites.
        warning_id: Option<String>,
    },
    /// Run the no-sleep energy-bug client.
    NoSleep {
        /// Path to the DSL file.
        path: String,
    },
    /// Run the DEvA baseline.
    Deva {
        /// Path to the DSL file.
        path: String,
    },
    /// Print the threadification forest as Graphviz DOT.
    Dot {
        /// Path to the DSL file.
        path: String,
    },
    /// Run the long-lived analysis service (`nadroid-serve/1`).
    Serve {
        /// Listen address; port 0 picks an ephemeral port.
        addr: String,
        /// Analysis worker threads.
        workers: usize,
        /// Inner analysis threads per worker (clamped so that
        /// `workers x threads` never exceeds the machine's cores).
        threads: usize,
        /// Result-cache byte budget.
        cache_bytes: usize,
        /// Default per-request deadline (`None` = unlimited).
        deadline_ms: Option<u64>,
        /// JSONL access-log path (`None` = no access log).
        access_log: Option<String>,
        /// Slow-request capture threshold in microseconds; requests at
        /// or above it get their span tree serialized next to the
        /// access log (`None` = capture off).
        slow_us: Option<u64>,
        /// Log every n-th request to the access log (1 = all).
        log_sample: u64,
    },
    /// Send one request to a running service.
    Request {
        /// Path to the DSL file (needed by analyze, explain and confirm).
        path: Option<String>,
        /// Server address.
        addr: String,
        /// What to ask the server for.
        mode: RequestMode,
        /// Stable warning id for explain (`--id`).
        id: Option<String>,
        /// Points-to sensitivity.
        k: u32,
        /// Per-request deadline override.
        deadline_ms: Option<u64>,
    },
    /// Validate that a file is well-formed JSON (or JSONL with
    /// `--lines`), using the same parser the pipeline ships. Lets CI
    /// gate access logs and trace files without external tooling.
    CheckJson {
        /// File to validate.
        path: String,
        /// Treat the file as JSONL: one JSON value per non-empty line.
        lines: bool,
        /// Require the top-level `schema` member to equal this exact
        /// string — on every line when `lines` is set. CI pins BENCH
        /// documents and the run ledger to their schemas with this.
        expect_schema: Option<String>,
    },
    /// Run-ledger operations (`nadroid-ledger/1`): record runs, list
    /// them, diff two of them under the noise model, gate regressions.
    Perf(PerfCommand),
    /// Print usage.
    Help,
}

/// What `nadroid request` asks the server for. A request takes one
/// mode; with no mode flag it analyzes the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestMode {
    /// Analyze the file.
    Analyze,
    /// `--explain` (or `--id <warning-id>` for one warning).
    Explain,
    /// `--confirm`: dynamically confirm the surviving warnings; the
    /// response carries the `nadroid-confirm/1` document.
    Confirm,
    /// `--stats`: the server's counters.
    Stats,
    /// `--metrics`: the `nadroid-serve-metrics/1` document as raw JSON.
    Metrics,
    /// `--metrics-text`: the metrics document rendered as
    /// Prometheus-style exposition text.
    MetricsText,
    /// `--shutdown`: ask the server to shut down gracefully.
    Shutdown,
}

impl RequestMode {
    /// The mode a `request` flag selects, if it is a mode flag.
    fn of_flag(flag: &str) -> Option<RequestMode> {
        Some(match flag {
            "--explain" | "--id" => RequestMode::Explain,
            "--confirm" => RequestMode::Confirm,
            "--stats" => RequestMode::Stats,
            "--metrics" => RequestMode::Metrics,
            "--metrics-text" => RequestMode::MetricsText,
            "--shutdown" => RequestMode::Shutdown,
            _ => return None,
        })
    }
}

/// A `nadroid perf` subcommand. All variants read or write the run
/// ledger, `Result/ledger.jsonl` unless `--ledger` overrides it; see
/// docs/observability.md for the record schema and diff semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfCommand {
    /// Append one record: a fresh 27-app suite measurement, or the
    /// record a committed `BENCH_*.json` artifact holds.
    Record {
        /// BENCH file to copy the record from; `None` measures the
        /// suite afresh.
        from: Option<String>,
        /// Override the record kind (`timing`, `serve_bench`, `suite`,
        /// `ci`, `confirm`, `refute`). Defaults to `suite` for fresh
        /// measurements and to the BENCH record's own kind.
        kind: Option<String>,
        /// Free-form annotation stored on the record.
        note: Option<String>,
        /// Ledger path override.
        ledger: Option<String>,
    },
    /// Print one summary line per ledger record.
    List {
        /// Ledger path override.
        ledger: Option<String>,
    },
    /// Noise-aware comparison of two records.
    Diff {
        /// Baseline: a `BENCH_*.json` path or a ledger selector (`last`,
        /// `prev`, 1-based index, or `-N`).
        base: String,
        /// Current record, same syntax.
        current: String,
        /// Extra relative effect size required of latency moves, on
        /// top of the histogram quantization bound (raw user string,
        /// validated at parse time; default 0.05).
        min_effect: Option<String>,
        /// Ledger path override.
        ledger: Option<String>,
    },
    /// Regression gate: nonzero exit on any timing regression beyond
    /// the noise model or any unacknowledged counter/population drift.
    Gate {
        /// Baseline: a `BENCH_*.json` path or a ledger selector.
        against: String,
        /// Current record, same syntax; `None` measures the suite
        /// afresh (the same workload `BENCH_timing.json` records).
        current: Option<String>,
        /// Also append the current record to the ledger.
        record: bool,
        /// Extra relative effect size for latency moves, as in
        /// `perf diff` (raw user string, validated at parse time).
        min_effect: Option<String>,
        /// Ledger path override.
        ledger: Option<String>,
    },
}

/// A CLI error with a user-facing message.
#[derive(Debug)]
pub struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError(s)
    }
}

/// Usage text.
pub const USAGE: &str = "\
nadroid — static UAF ordering-violation detector for Android app models

USAGE:
    nadroid analyze <app.dsl> [--validate] [--sound-only] [--k <N>] [--json]
                              [--baseline <file>] [--update-baseline]
                              [--trace <file>] [--report <file>]
                              [--provenance <file>] [--stats]
                              [--threads <N>]
    nadroid explain <app.dsl> [<warning-id>]
    nadroid confirm <app.dsl> [<warning-id>] [--all] [--json]
                    [--threads <N>] [--provenance <file>]
    nadroid replay  <app.dsl> <schedule> [--id <warning-id>]
    nadroid nosleep <app.dsl>
    nadroid deva    <app.dsl>
    nadroid dot     <app.dsl>
    nadroid serve   [--addr <host:port>] [--workers <N>] [--threads <N>]
                    [--cache-bytes <B>] [--deadline-ms <D>]
                    [--access-log <file>] [--slow-us <T>] [--log-sample <N>]
    nadroid request [<app.dsl>] [--addr <host:port>] [--k <N>]
                    [--deadline-ms <D>] [--explain | --id <warning-id>
                    | --confirm | --stats | --metrics | --metrics-text
                    | --shutdown]
    nadroid check-json <file> [--lines] [--expect-schema <name>]
    nadroid perf record [--from <BENCH.json>] [--kind <k>] [--note <s>]
    nadroid perf list
    nadroid perf diff <a> <b> [--min-effect <frac>]
    nadroid perf gate --against <ref> [--current <ref>] [--record]
                      [--min-effect <frac>]

`analyze` may be omitted when the first argument is a flag or a .dsl
file: `nadroid --trace out.json app.dsl`.

SERVING (see docs/serving.md):
    `serve` runs a concurrent analysis daemon: a bounded worker pool
    with admission control, a content-addressed result cache (warm
    requests are a lookup, not a re-solve), and per-request deadlines.
    `request` is the matching client; repeated requests for the same
    app and options report `cached: true`. It takes at most one mode
    flag (two are an error); with none it analyzes. Every response
    carries a server-minted `request id` (also printed by `request`)
    that links it to the server's access log and slow-request traces.

SERVE TELEMETRY (see docs/observability.md):
    --access-log <f>  JSONL access log: one line per request with id,
                      endpoint, outcome, queue/service micros, cache
                      key, and thread count (sample with --log-sample)
    --slow-us <T>     capture the full span tree of any request whose
                      service time is >= T microseconds, written as
                      slow-<id>.trace.json next to the access log
    --metrics         (on `request`) fetch the nadroid-serve-metrics/1
                      JSON document: counters, rolling 1s/10s/60s rps
                      and error-rate windows, per-endpoint latency and
                      queue-wait histograms with percentile readouts
    --metrics-text    same data, rendered Prometheus-style
    check-json <f>    validate JSON (or JSONL with --lines) with the
                      in-repo parser — CI gates logs/traces with it;
                      --expect-schema <name> additionally pins the
                      top-level `schema` member (every line in JSONL)

RUN LEDGER (see docs/observability.md):
    `perf` manages the append-only run ledger (nadroid-ledger/1 JSONL,
    default Result/ledger.jsonl; override with --ledger <file>). Each
    record carries an environment fingerprint, wall/CPU and per-phase
    timings, the deterministic counters, histogram snapshots, and the
    per-app warning-population digests. Record selectors are `last`,
    `prev`, a 1-based index from the oldest, or `-N` from the newest.
    perf record       append a record: a fresh 27-app suite
                      measurement, or --from <BENCH.json> to copy the
                      record a committed BENCH_*.json artifact holds
    perf list         one summary line per ledger record
    perf diff <a> <b> compare two records, each a BENCH_*.json path or
                      a selector: counters and populations exactly,
                      timings/latencies under the noise model
                      (histogram quantization bound + --min-effect)
    perf gate         diff --against <ref> vs --current <ref> (each a
                      BENCH_*.json path or a selector; default current:
                      a fresh suite measurement); exits nonzero on regression
                      or unacknowledged drift, naming the exact
                      counter, percentile, or warning ids that moved;
                      --record also appends the current record

OBSERVABILITY (see docs/observability.md):
    --trace <file>    Chrome trace_event JSON — open in chrome://tracing
                      or https://ui.perfetto.dev
    --report <file>   flat JSON run-report: counters (incl. per-filter
                      examined/killed) and span aggregates, whose
                      totals are the phase times
    --provenance <f>  nadroid-provenance/4 JSON: stable warning ids,
                      Datalog derivation trees, per-filter audit trail,
                      happens-before evidence, and the program hash
    --stats           append the span/metric tree to the text report
    --threads <N>     worker threads for the parallel phases (detection,
                      filtering), 1 to 256 (as for confirm and serve);
                      output is byte-identical at every N. Defaults to
                      the NADROID_THREADS environment variable, then 1

CONFIRMATION (see docs/confirm.md):
    `confirm` closes the static→dynamic loop: for each surviving
    warning it synthesizes schedules from the warning's evidence
    (directed, evidence-pruned search first; bounded full exploration
    as fallback) and classifies it `confirmed` (a minimized witness
    schedule is attached, replayable with `nadroid replay`),
    `infeasible` (proof that no interleaving within the model's bounds
    manifests the pair), or `unconfirmed` (the state budget or the
    path bounds stopped the search). A <warning-id> probes that one
    warning (pruned ones included); --all / no id confirms every
    survivor, as `analyze --validate` does. --json emits the
    nadroid-confirm/1 document; --provenance <f> writes the
    nadroid-provenance/4 document with verdicts attached. `replay`
    re-executes an emitted schedule in a fresh process and fails unless
    the NPE reproduces (and, with --id, matches that warning's sites).

`explain` prints each warning's racy-pair derivation tree, the verdict
and evidence of every filter that examined it, and the use/free thread
lineages. With no <warning-id> it explains every warning (pruned ones
included); ids are stable across reruns and printed by the drivers.
When a `<app>.provenance.json` sits next to the DSL file (write one
with `analyze --provenance`) and its recorded program hash matches the
DSL content, `explain` renders from it instead of re-running the
pipeline.
";

/// Parse command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the malformed argument.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, CliError> {
    let mut args = args.into_iter();
    let Some(cmd) = args.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "analyze" => parse_analyze(args),
        // Implicit analyze: a leading flag or .dsl path means the
        // subcommand was omitted (`nadroid --trace out.json app.dsl`).
        // Anything else is still an unknown-command error.
        first if first.starts_with("--") || first.ends_with(".dsl") => {
            parse_analyze(std::iter::once(first.to_owned()).chain(args))
        }
        "explain" => {
            let path = args
                .next()
                .ok_or_else(|| CliError("explain needs a file".into()))?;
            let warning_id = args.next();
            if let Some(extra) = args.next() {
                return Err(CliError(format!("unexpected argument `{extra}`")));
            }
            Ok(Command::Explain { path, warning_id })
        }
        "confirm" => parse_confirm(args),
        "replay" => {
            let mut path = None;
            let mut schedule = None;
            let mut warning_id = None;
            let mut args = args;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--id" => {
                        warning_id = Some(
                            args.next()
                                .ok_or_else(|| CliError("--id needs a warning id".into()))?,
                        );
                    }
                    other if !other.starts_with("--") && path.is_none() => {
                        path = Some(other.to_owned());
                    }
                    other if !other.starts_with("--") && schedule.is_none() => {
                        schedule = Some(other.to_owned());
                    }
                    other => return Err(CliError(format!("unexpected argument `{other}`"))),
                }
            }
            let path = path.ok_or_else(|| CliError("replay needs a file".into()))?;
            let schedule = schedule.ok_or_else(|| {
                CliError("replay needs a schedule (quote the token string)".into())
            })?;
            Ok(Command::Replay {
                path,
                schedule,
                warning_id,
            })
        }
        "serve" => parse_serve(args),
        "request" => parse_request(args),
        "check-json" => {
            let mut path = None;
            let mut lines = false;
            let mut expect_schema = None;
            let mut args = args;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--lines" => lines = true,
                    "--expect-schema" => {
                        expect_schema = Some(
                            args.next()
                                .ok_or_else(|| CliError("--expect-schema needs a name".into()))?,
                        );
                    }
                    other if !other.starts_with('-') && path.is_none() => {
                        path = Some(other.to_owned());
                    }
                    other => return Err(CliError(format!("unexpected argument `{other}`"))),
                }
            }
            let path = path.ok_or_else(|| CliError("check-json needs a file".into()))?;
            Ok(Command::CheckJson {
                path,
                lines,
                expect_schema,
            })
        }
        "perf" => parse_perf(args),
        "nosleep" | "deva" | "dot" => {
            let path = args
                .next()
                .ok_or_else(|| CliError(format!("{cmd} needs a file")))?;
            if let Some(extra) = args.next() {
                return Err(CliError(format!("unexpected argument `{extra}`")));
            }
            Ok(match cmd.as_str() {
                "nosleep" => Command::NoSleep { path },
                "deva" => Command::Deva { path },
                _ => Command::Dot { path },
            })
        }
        other => Err(CliError(format!("unknown command `{other}`\n{USAGE}"))),
    }
}

fn parse_analyze(args: impl Iterator<Item = String>) -> Result<Command, CliError> {
    let mut args = args;
    let mut path = None;
    let mut validate = false;
    let mut sound_only = false;
    let mut k = 2u32;
    let mut json = false;
    let mut baseline = None;
    let mut update_baseline = false;
    let mut trace = None;
    let mut report = None;
    let mut provenance = None;
    let mut stats = false;
    let mut threads = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--validate" => validate = true,
            "--sound-only" => sound_only = true,
            "--json" => json = true,
            "--update-baseline" => update_baseline = true,
            "--stats" => stats = true,
            "--baseline" => {
                baseline = Some(
                    args.next()
                        .ok_or_else(|| CliError("--baseline needs a file".into()))?,
                );
            }
            "--trace" => {
                trace = Some(
                    args.next()
                        .ok_or_else(|| CliError("--trace needs a file".into()))?,
                );
            }
            "--report" => {
                report = Some(
                    args.next()
                        .ok_or_else(|| CliError("--report needs a file".into()))?,
                );
            }
            "--provenance" => {
                provenance = Some(
                    args.next()
                        .ok_or_else(|| CliError("--provenance needs a file".into()))?,
                );
            }
            "--k" => {
                let v = args
                    .next()
                    .ok_or_else(|| CliError("--k needs a value".into()))?;
                k = v
                    .parse()
                    .map_err(|_| CliError(format!("bad k value `{v}`")))?;
            }
            "--threads" => {
                let v = args
                    .next()
                    .ok_or_else(|| CliError("--threads needs a value".into()))?;
                threads = Some(parse_count("--threads", &v)?);
            }
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(other.to_owned());
            }
            other => return Err(CliError(format!("unexpected argument `{other}`"))),
        }
    }
    if update_baseline && baseline.is_none() {
        return Err(CliError("--update-baseline needs --baseline <file>".into()));
    }
    let path = path.ok_or_else(|| CliError("analyze needs a file".into()))?;
    Ok(Command::Analyze {
        path,
        validate,
        sound_only,
        k,
        json,
        baseline,
        update_baseline,
        trace,
        report,
        provenance,
        stats,
        threads,
    })
}

/// A `--threads` or `--workers` value: a count in `1..=MAX_THREADS`,
/// the same bound the `NADROID_THREADS` default is clamped to.
fn parse_count(flag: &str, v: &str) -> Result<usize, CliError> {
    match v.parse::<usize>() {
        Ok(n) if (1..=nadroid_par::MAX_THREADS).contains(&n) => Ok(n),
        _ => Err(CliError(format!(
            "{flag} takes a count from 1 to {}, not `{v}`",
            nadroid_par::MAX_THREADS
        ))),
    }
}

fn parse_serve(args: impl Iterator<Item = String>) -> Result<Command, CliError> {
    let mut args = args;
    let mut addr = "127.0.0.1:7911".to_owned();
    let mut workers = 4usize;
    let mut threads = 1usize;
    let mut cache_bytes = 64usize << 20;
    let mut deadline_ms = None;
    let mut access_log = None;
    let mut slow_us = None;
    let mut log_sample = 1u64;
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| CliError(format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--addr" => addr = value("--addr")?,
            "--access-log" => access_log = Some(value("--access-log")?),
            "--slow-us" => {
                let v = value("--slow-us")?;
                slow_us = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("bad slow threshold `{v}`")))?,
                );
            }
            "--log-sample" => {
                let v = value("--log-sample")?;
                log_sample = v
                    .parse()
                    .map_err(|_| CliError(format!("bad sample rate `{v}`")))?;
                if log_sample == 0 {
                    return Err(CliError("--log-sample must be at least 1".into()));
                }
            }
            "--workers" => workers = parse_count("--workers", &value("--workers")?)?,
            "--threads" => threads = parse_count("--threads", &value("--threads")?)?,
            "--cache-bytes" => {
                let v = value("--cache-bytes")?;
                cache_bytes = v
                    .parse()
                    .map_err(|_| CliError(format!("bad byte budget `{v}`")))?;
            }
            "--deadline-ms" => {
                let v = value("--deadline-ms")?;
                deadline_ms = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("bad deadline `{v}`")))?,
                );
            }
            other => return Err(CliError(format!("unexpected argument `{other}`"))),
        }
    }
    Ok(Command::Serve {
        addr,
        workers,
        threads,
        cache_bytes,
        deadline_ms,
        access_log,
        slow_us,
        log_sample,
    })
}

fn parse_request(args: impl Iterator<Item = String>) -> Result<Command, CliError> {
    let mut args = args;
    let mut path = None;
    let mut addr = "127.0.0.1:7911".to_owned();
    // The mode and the flag that first chose it.
    let mut mode: Option<(RequestMode, String)> = None;
    let mut id = None;
    let mut k = None;
    let mut deadline_ms = None;
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| CliError(format!("{flag} needs a value")))
        };
        if let Some(next) = RequestMode::of_flag(&a) {
            match &mode {
                Some((chosen, flag)) if *chosen != next => {
                    return Err(CliError(format!(
                        "{flag} conflicts with {a}: a request takes one mode"
                    )));
                }
                Some(_) => {}
                None => mode = Some((next, a.clone())),
            }
            if a == "--id" {
                id = Some(value("--id")?);
            }
            continue;
        }
        match a.as_str() {
            "--addr" => addr = value("--addr")?,
            "--k" => {
                let v = value("--k")?;
                k = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("bad k value `{v}`")))?,
                );
            }
            "--deadline-ms" => {
                let v = value("--deadline-ms")?;
                deadline_ms = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("bad deadline `{v}`")))?,
                );
            }
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(other.to_owned());
            }
            other => return Err(CliError(format!("unexpected argument `{other}`"))),
        }
    }
    let (mode, mode_flag) = mode.unwrap_or((RequestMode::Analyze, String::new()));
    let needs_file = matches!(
        mode,
        RequestMode::Analyze | RequestMode::Explain | RequestMode::Confirm
    );
    if needs_file && path.is_none() {
        return Err(CliError(
            "request needs a file (or --stats / --metrics / --metrics-text / --shutdown)".into(),
        ));
    }
    if !needs_file {
        // These modes send no program, so a file, `--k` or
        // `--deadline-ms` would be dropped without effect.
        let unused = path
            .as_ref()
            .map(|p| format!("file `{p}`"))
            .or_else(|| k.map(|_| "--k".to_owned()))
            .or_else(|| deadline_ms.map(|_| "--deadline-ms".to_owned()));
        if let Some(arg) = unused {
            return Err(CliError(format!("{mode_flag} takes no {arg}")));
        }
    }
    Ok(Command::Request {
        path,
        addr,
        mode,
        id,
        k: k.unwrap_or(2),
        deadline_ms,
    })
}

fn parse_perf(args: impl Iterator<Item = String>) -> Result<Command, CliError> {
    const PERF_USAGE: &str =
        "perf needs a subcommand: record | list | diff <a> <b> | gate --against <ref>";
    let mut args = args;
    let Some(sub) = args.next() else {
        return Err(CliError(PERF_USAGE.into()));
    };
    let allowed: &[&str] = match sub.as_str() {
        "record" => &["--from", "--kind", "--note", "--ledger"],
        "list" => &["--ledger"],
        "diff" => &["--min-effect", "--ledger"],
        "gate" => &[
            "--against",
            "--current",
            "--record",
            "--min-effect",
            "--ledger",
        ],
        other => {
            return Err(CliError(format!(
                "unknown perf subcommand `{other}`\n{PERF_USAGE}"
            )))
        }
    };
    let mut positionals: Vec<String> = Vec::new();
    let mut from = None;
    let mut kind = None;
    let mut note = None;
    let mut ledger_over = None;
    let mut against = None;
    let mut current = None;
    let mut record = false;
    let mut min_effect = None;
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| CliError(format!("{flag} needs a value")))
        };
        if a.starts_with('-') && !allowed.contains(&a.as_str()) {
            return Err(CliError(format!(
                "unexpected argument `{a}` for `perf {sub}`"
            )));
        }
        match a.as_str() {
            "--from" => from = Some(value("--from")?),
            "--kind" => {
                let v = value("--kind")?;
                ledger::Kind::from_str(&v).map_err(CliError::from)?;
                kind = Some(v);
            }
            "--note" => note = Some(value("--note")?),
            "--ledger" => ledger_over = Some(value("--ledger")?),
            "--against" => against = Some(value("--against")?),
            "--current" => current = Some(value("--current")?),
            "--record" => record = true,
            "--min-effect" => {
                let v = value("--min-effect")?;
                let parsed: f64 = v
                    .parse()
                    .map_err(|_| CliError(format!("bad min effect `{v}`")))?;
                if !parsed.is_finite() || parsed < 0.0 {
                    return Err(CliError(format!(
                        "min effect must be a non-negative fraction, got `{v}`"
                    )));
                }
                min_effect = Some(v);
            }
            other => positionals.push(other.to_owned()),
        }
    }
    let no_positionals = |positionals: &[String]| -> Result<(), CliError> {
        match positionals.first() {
            Some(extra) => Err(CliError(format!("unexpected argument `{extra}`"))),
            None => Ok(()),
        }
    };
    match sub.as_str() {
        "record" => {
            no_positionals(&positionals)?;
            Ok(Command::Perf(PerfCommand::Record {
                from,
                kind,
                note,
                ledger: ledger_over,
            }))
        }
        "list" => {
            no_positionals(&positionals)?;
            Ok(Command::Perf(PerfCommand::List {
                ledger: ledger_over,
            }))
        }
        "diff" => {
            if positionals.len() != 2 {
                return Err(CliError(
                    "perf diff needs two records: perf diff <a> <b>".into(),
                ));
            }
            let mut it = positionals.into_iter();
            Ok(Command::Perf(PerfCommand::Diff {
                base: it.next().expect("length checked"),
                current: it.next().expect("length checked"),
                min_effect,
                ledger: ledger_over,
            }))
        }
        _ => {
            no_positionals(&positionals)?;
            let against =
                against.ok_or_else(|| CliError("perf gate needs --against <ref>".into()))?;
            Ok(Command::Perf(PerfCommand::Gate {
                against,
                current,
                record,
                min_effect,
                ledger: ledger_over,
            }))
        }
    }
}

fn parse_confirm(args: impl Iterator<Item = String>) -> Result<Command, CliError> {
    let mut args = args;
    let mut path = None;
    let mut warning_id = None;
    let mut all = false;
    let mut json = false;
    let mut threads = None;
    let mut provenance = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--all" => all = true,
            "--json" => json = true,
            "--threads" => {
                let v = args
                    .next()
                    .ok_or_else(|| CliError("--threads needs a value".into()))?;
                threads = Some(parse_count("--threads", &v)?);
            }
            "--provenance" => {
                provenance = Some(
                    args.next()
                        .ok_or_else(|| CliError("--provenance needs a file".into()))?,
                );
            }
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(other.to_owned());
            }
            other if !other.starts_with('-') && warning_id.is_none() => {
                warning_id = Some(other.to_owned());
            }
            other => return Err(CliError(format!("unexpected argument `{other}`"))),
        }
    }
    let path = path.ok_or_else(|| CliError("confirm needs a file".into()))?;
    if all && warning_id.is_some() {
        return Err(CliError(
            "--all conflicts with an explicit warning id".into(),
        ));
    }
    if provenance.is_some() && warning_id.is_some() {
        return Err(CliError(
            "--provenance needs the full batch (drop the warning id)".into(),
        ));
    }
    Ok(Command::Confirm {
        path,
        warning_id,
        json,
        threads,
        provenance,
    })
}

fn load(path: &str) -> Result<Program, CliError> {
    let src =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    parse_program(&src).map_err(|e| CliError(format!("{path}: {e}")))
}

/// Execute a command, returning the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] for unreadable or unparsable inputs.
pub fn run(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_owned()),
        Command::Analyze {
            path,
            validate,
            sound_only,
            k,
            json,
            baseline,
            update_baseline,
            trace,
            report,
            provenance,
            stats,
            threads,
        } => {
            // Any observability output wants a recorder installed for the
            // duration of the parse, the analysis and the confirmation;
            // observing never changes the work.
            let observing = trace.is_some() || report.is_some() || *stats;
            let config = AnalysisConfig {
                k: *k,
                unsound_filters: if *sound_only {
                    Vec::new()
                } else {
                    FilterKind::unsound().to_vec()
                },
                ..AnalysisConfig::default()
            };
            let config = match threads {
                Some(n) => AnalysisConfig {
                    threads: *n,
                    ..config
                },
                None => config,
            };
            let recorder = nadroid_obs::Recorder::new();
            let guard = observing.then(|| recorder.install());
            let program = load(path)?;
            let analysis = analyze(&program, &config);
            let confirmation = (*validate && !*json).then(|| {
                let cfg = nadroid_confirm::ConfirmConfig::default();
                on_threads(*threads, || {
                    nadroid_confirm::confirm_survivors(&analysis, &cfg)
                })
            });
            drop(guard);
            if let Some(trace_path) = trace {
                std::fs::write(trace_path, recorder.chrome_trace())
                    .map_err(|e| CliError(format!("cannot write {trace_path}: {e}")))?;
            }
            if let Some(report_path) = report {
                std::fs::write(
                    report_path,
                    nadroid_core::render_run_report(&analysis, &recorder),
                )
                .map_err(|e| CliError(format!("cannot write {report_path}: {e}")))?;
            }
            if let Some(prov_path) = provenance {
                std::fs::write(prov_path, nadroid_core::render_provenance_json(&analysis))
                    .map_err(|e| CliError(format!("cannot write {prov_path}: {e}")))?;
            }

            // Baseline workflow: suppress already-acknowledged warnings.
            let mut suppressed = 0usize;
            let mut fresh = Vec::new();
            let rendered = analysis.rendered_survivors();
            if let Some(bl_path) = baseline {
                let known: std::collections::BTreeSet<String> =
                    match std::fs::read_to_string(bl_path) {
                        Ok(s) => s.lines().map(str::to_owned).collect(),
                        Err(_) => std::collections::BTreeSet::new(),
                    };
                for w in &rendered {
                    if known.contains(&nadroid_core::fingerprint(w)) {
                        suppressed += 1;
                    } else {
                        fresh.push(w.clone());
                    }
                }
                if *update_baseline {
                    let all: Vec<String> = rendered.iter().map(nadroid_core::fingerprint).collect();
                    std::fs::write(
                        bl_path,
                        all.join(
                            "
",
                        ) + "
",
                    )
                    .map_err(|e| CliError(format!("cannot write {bl_path}: {e}")))?;
                }
            }

            if *json {
                return Ok(nadroid_core::render_json(&analysis));
            }
            let mut out = render_report(&analysis);
            if let Some(outcome) = confirmation {
                out.push('\n');
                out.push_str(&render_confirm_text(&outcome.results, Some(&outcome.tally)));
            }
            if *stats {
                out.push('\n');
                out.push_str(&recorder.stats_tree());
            }
            if baseline.is_some() {
                out.push_str(&format!(
                    "
baseline: {suppressed} suppressed, {} new
",
                    fresh.len()
                ));
                for w in &fresh {
                    out.push_str(&format!(
                        "  NEW [{}] {}
",
                        w.pair_type, w.field
                    ));
                }
            }
            Ok(out)
        }
        Command::Explain { path, warning_id } => {
            // A provenance export next to the DSL file already holds
            // everything `explain` prints — render from it instead of
            // re-running the whole pipeline, but only when its recorded
            // program hash matches the current source content (mtimes
            // lie under copies, checkouts and touch(1)). A stale, corrupt,
            // or older-schema document falls through to a live solve.
            let program = load(path)?;
            let want_hash = nadroid_core::program_hash(&program);
            if let Some((prov_path, doc)) = fresh_provenance_sibling(path, &want_hash) {
                if let Ok(text) =
                    nadroid_core::render_explain_from_json(&doc, warning_id.as_deref())
                {
                    return Ok(format!("(from cached provenance: {prov_path})\n{text}"));
                }
            }
            let analysis = analyze(&program, &AnalysisConfig::default());
            Ok(nadroid_core::render_explain(
                &analysis,
                warning_id.as_deref(),
            ))
        }
        Command::Confirm {
            path,
            warning_id,
            json,
            threads,
            provenance,
        } => {
            let program = load(path)?;
            let config = match threads {
                Some(n) => AnalysisConfig {
                    threads: *n,
                    ..AnalysisConfig::default()
                },
                None => AnalysisConfig::default(),
            };
            let analysis = analyze(&program, &config);
            let cfg = nadroid_confirm::ConfirmConfig::default();
            if let Some(id) = warning_id {
                let one = on_threads(*threads, || {
                    nadroid_confirm::confirm_by_id(&analysis, id, &cfg)
                });
                let Some(r) = one else {
                    let mut out = format!("no warning with id {id}; known ids:\n");
                    for w in analysis.warnings() {
                        out.push_str(&format!(
                            "  {}\n",
                            nadroid_detector::warning_id(&program, analysis.threads(), w)
                        ));
                    }
                    return Ok(out);
                };
                if *json {
                    let mut tally = nadroid_confirm::Tally::default();
                    tally.add(r.confirmation.verdict);
                    let outcome = nadroid_confirm::ConfirmOutcome {
                        results: vec![r],
                        tally,
                    };
                    return Ok(nadroid_confirm::render_confirm_json(&analysis, &outcome));
                }
                return Ok(render_confirm_text(std::slice::from_ref(&r), None));
            }
            let outcome = on_threads(*threads, || {
                nadroid_confirm::confirm_survivors(&analysis, &cfg)
            });
            if let Some(prov_path) = provenance {
                let mut provs = analysis.warning_provenances();
                nadroid_confirm::attach_confirmations(&mut provs, &outcome);
                std::fs::write(
                    prov_path,
                    nadroid_core::render_provenance_json_with(&analysis, &provs),
                )
                .map_err(|e| CliError(format!("cannot write {prov_path}: {e}")))?;
            }
            if *json {
                return Ok(nadroid_confirm::render_confirm_json(&analysis, &outcome));
            }
            Ok(render_confirm_text(&outcome.results, Some(&outcome.tally)))
        }
        Command::Replay {
            path,
            schedule,
            warning_id,
        } => {
            let program = load(path)?;
            let steps = nadroid_dynamic::decode_schedule(schedule)
                .map_err(|e| CliError(format!("bad schedule: {e}")))?;
            let world = nadroid_dynamic::replay(&program, &steps);
            let Some(npe) = &world.npe else {
                return Err(CliError(format!(
                    "schedule replayed {} step(s) without an NPE",
                    steps.len()
                )));
            };
            let mut out = format!(
                "NPE reproduced at {} ({} step(s))\n",
                program.describe_instr(npe.at),
                steps.len()
            );
            if let Some(u) = npe.loaded_from {
                out.push_str(&format!(
                    "  null loaded at  {}\n",
                    program.describe_instr(u)
                ));
            }
            if let Some(f) = npe.freed_by {
                out.push_str(&format!(
                    "  null written at {}\n",
                    program.describe_instr(f)
                ));
            }
            if let Some(id) = warning_id {
                let analysis = analyze(&program, &AnalysisConfig::default());
                let w = analysis
                    .warnings()
                    .iter()
                    .find(|w| &nadroid_detector::warning_id(&program, analysis.threads(), w) == id)
                    .cloned()
                    .ok_or_else(|| CliError(format!("no warning with id {id}")))?;
                if npe.loaded_from != Some(w.use_access.instr)
                    || npe.freed_by != Some(w.free_access.instr)
                {
                    return Err(CliError(format!(
                        "NPE does not match warning {id}: expected use {} / free {}",
                        program.describe_instr(w.use_access.instr),
                        program.describe_instr(w.free_access.instr)
                    )));
                }
                out.push_str(&format!("  matches warning {id}\n"));
            }
            Ok(out)
        }
        Command::NoSleep { path } => {
            let program = load(path)?;
            let analysis = analyze(&program, &AnalysisConfig::default());
            let warnings = analysis.no_sleep_warnings();
            let mut out = format!("{} no-sleep warning(s)\n", warnings.len());
            for w in &warnings {
                out.push_str(&format!(
                    "  acquire at {}",
                    program.describe_instr(w.acquire.instr)
                ));
                if w.unordered_releases.is_empty() {
                    out.push_str(" — never released\n");
                } else {
                    out.push_str(&format!(
                        " — only racy releases at {}\n",
                        w.unordered_releases
                            .iter()
                            .map(|r| program.describe_instr(r.instr))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
            }
            Ok(out)
        }
        Command::Deva { path } => {
            let program = load(path)?;
            let warnings = nadroid_deva::run_deva(&program);
            let mut out = format!("DEvA: {} event anomaly warning(s)\n", warnings.len());
            for w in &warnings {
                out.push_str(&format!(
                    "  {} — use in {}, free in {}\n",
                    program.field(w.field).name(),
                    program.method(w.use_handler).name(),
                    program.method(w.free_handler).name()
                ));
            }
            Ok(out)
        }
        Command::Dot { path } => {
            let program = load(path)?;
            let threads = ThreadModel::build(&program);
            Ok(threads.to_dot(&program))
        }
        Command::Serve {
            addr,
            workers,
            threads,
            cache_bytes,
            deadline_ms,
            access_log,
            slow_us,
            log_sample,
        } => {
            let mut server = Server::start(ServeConfig {
                addr: addr.clone(),
                workers: *workers,
                threads: *threads,
                cache_bytes: *cache_bytes,
                queue_cap: workers.saturating_mul(4).max(4),
                default_deadline_ms: *deadline_ms,
                telemetry: nadroid_serve::TelemetryConfig {
                    access_log: access_log.clone(),
                    slow_us: *slow_us,
                    log_sample: *log_sample,
                },
                ..ServeConfig::default()
            })
            .map_err(|e| CliError(format!("cannot start server on {addr}: {e}")))?;
            // Announce readiness before blocking; scripts poll for this
            // line, and stdout is block-buffered when redirected.
            println!("nadroid-serve listening on {}", server.local_addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            let fields = server.run_until_shutdown();
            let mut out = String::from("final server stats:\n");
            for (name, value) in fields {
                out.push_str(&format!("  \"{name}\": {value}\n"));
            }
            Ok(out)
        }
        Command::CheckJson {
            path,
            lines,
            expect_schema,
        } => {
            let content = std::fs::read_to_string(path)
                .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
            let check_schema = |v: &nadroid_core::JsonValue, loc: &str| -> Result<(), CliError> {
                let Some(want) = expect_schema else {
                    return Ok(());
                };
                match v.get("schema").and_then(nadroid_core::JsonValue::as_str) {
                    Some(got) if got == want => Ok(()),
                    Some(got) => Err(CliError(format!(
                        "{loc}: schema is `{got}`, expected `{want}`"
                    ))),
                    None => Err(CliError(format!(
                        "{loc}: missing top-level `schema` member (expected `{want}`)"
                    ))),
                }
            };
            let mut checked = 0usize;
            if *lines {
                for (i, line) in content.lines().enumerate() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    let v = nadroid_core::parse_json(line)
                        .map_err(|e| CliError(format!("{path}:{}: {e}", i + 1)))?;
                    check_schema(&v, &format!("{path}:{}", i + 1))?;
                    checked += 1;
                }
            } else {
                let v = nadroid_core::parse_json(&content)
                    .map_err(|e| CliError(format!("{path}: {e}")))?;
                check_schema(&v, path)?;
                checked = 1;
            }
            let schema_note = expect_schema
                .as_deref()
                .map_or_else(String::new, |s| format!(", schema {s}"));
            Ok(format!(
                "{path}: OK ({checked} JSON value(s){schema_note})\n"
            ))
        }
        Command::Perf(perf) => run_perf(perf),
        Command::Request {
            path,
            addr,
            mode,
            id,
            k,
            deadline_ms,
        } => {
            let program = || -> Result<String, CliError> {
                let path = path.as_ref().expect("parse_request guarantees a path here");
                std::fs::read_to_string(path)
                    .map_err(|e| CliError(format!("cannot read {path}: {e}")))
            };
            let opts = AnalyzeOpts {
                k: *k,
                sound_only: false,
                deadline_ms: *deadline_ms,
            };
            let request = match mode {
                RequestMode::Analyze => Request::Analyze {
                    program: program()?,
                    opts,
                },
                RequestMode::Explain => Request::Explain {
                    program: program()?,
                    id: id.clone(),
                    opts,
                },
                RequestMode::Confirm => Request::Confirm {
                    program: program()?,
                    opts,
                },
                RequestMode::Stats => Request::Stats,
                RequestMode::Metrics | RequestMode::MetricsText => Request::Metrics,
                RequestMode::Shutdown => Request::Shutdown,
            };
            let mut client = Client::connect(addr)
                .map_err(|e| CliError(format!("cannot connect to {addr}: {e}")))?;
            let response = client.request(&request).map_err(CliError)?;
            let mut out = match (&response, mode) {
                (Response::Metrics { json }, RequestMode::MetricsText) => {
                    render_metrics_text(json)?
                }
                _ => render_response(&response)?,
            };
            if let Some(rid) = client.last_request_id() {
                out.push_str(&format!("request id: {rid}\n"));
            }
            Ok(out)
        }
    }
}

fn ledger_path(over: Option<&str>) -> std::path::PathBuf {
    std::path::PathBuf::from(over.unwrap_or(ledger::DEFAULT_PATH))
}

/// `--min-effect`'s value, or the ledger's default when it is absent or
/// not a number.
fn min_effect_of(arg: Option<&str>) -> f64 {
    arg.and_then(|v| v.parse().ok())
        .unwrap_or(ledger::DEFAULT_MIN_EFFECT)
}

/// The one record a committed `BENCH_*.json` artifact holds.
fn bench_record(path: &str) -> Result<ledger::Record, CliError> {
    let mut records = ledger::read(std::path::Path::new(path)).map_err(CliError::from)?;
    match records.pop() {
        Some(rec) if records.is_empty() => Ok(rec),
        _ => Err(CliError(format!(
            "{path}: expected exactly one nadroid-ledger/1 record"
        ))),
    }
}

/// The record `sel` names, with its label: a path to an existing file
/// is a `BENCH_*.json` artifact, and anything else selects a record of
/// the ledger at `ledger_path`.
fn resolve_record(
    ledger_path: &std::path::Path,
    sel: &str,
) -> Result<(ledger::Record, String), CliError> {
    if std::path::Path::new(sel).is_file() {
        return Ok((bench_record(sel)?, sel.to_owned()));
    }
    let mut records = ledger::read(ledger_path).map_err(CliError::from)?;
    let i = ledger::select(records.len(), sel).map_err(CliError::from)?;
    let rec = records.swap_remove(i);
    let label = format!("#{} ({})", i + 1, rec.kind.as_str());
    Ok((rec, label))
}

fn run_perf(perf: &PerfCommand) -> Result<String, CliError> {
    match perf {
        PerfCommand::Record {
            from,
            kind,
            note,
            ledger: over,
        } => {
            let mut rec = match from {
                Some(f) => {
                    let mut rec = bench_record(f)?;
                    rec.note = format!("perf record --from {f}");
                    rec
                }
                None => {
                    let mut rec = nadroid_bench::measure::suite_ledger_record(ledger::Kind::Suite);
                    rec.note = "perf record (fresh suite measurement)".to_string();
                    rec
                }
            };
            if let Some(k) = kind {
                rec.kind = ledger::Kind::from_str(k).map_err(CliError::from)?;
            }
            if let Some(n) = note {
                rec.note.clone_from(n);
            }
            let path = ledger_path(over.as_deref());
            ledger::append(&path, &rec).map_err(CliError::from)?;
            let count = ledger::read(&path).map_err(CliError::from)?.len();
            Ok(format!(
                "appended to {} ({count} record(s)):\n{}\n",
                path.display(),
                rec.summary_line(count)
            ))
        }
        PerfCommand::List { ledger: over } => {
            let path = ledger_path(over.as_deref());
            let records = ledger::read(&path).map_err(CliError::from)?;
            let mut out = format!("{}: {} record(s)\n", path.display(), records.len());
            for (i, r) in records.iter().enumerate() {
                out.push_str(&r.summary_line(i + 1));
                out.push('\n');
            }
            Ok(out)
        }
        PerfCommand::Diff {
            base,
            current,
            min_effect,
            ledger: over,
        } => {
            let path = ledger_path(over.as_deref());
            let (base, base_label) = resolve_record(&path, base)?;
            let (cur, cur_label) = resolve_record(&path, current)?;
            let deltas = ledger::diff(&base, &cur, min_effect_of(min_effect.as_deref()));
            Ok(ledger::render_diff(&base_label, &cur_label, &deltas))
        }
        PerfCommand::Gate {
            against,
            current,
            record,
            min_effect,
            ledger: over,
        } => {
            let path = ledger_path(over.as_deref());
            let (base, base_label) = resolve_record(&path, against)?;
            // The current side: a chosen record, or a fresh measurement
            // of the same workload the timing driver records, so
            // counters line up exactly with BENCH_timing.
            let (cur, cur_label) = match current {
                Some(sel) => resolve_record(&path, sel)?,
                None => {
                    let mut rec = nadroid_bench::measure::measure_suite().record;
                    rec.kind = ledger::Kind::Ci;
                    rec.note = format!("perf gate --against {against}");
                    (rec, "fresh suite measurement".to_string())
                }
            };
            if *record {
                ledger::append(&path, &cur).map_err(CliError::from)?;
            }
            let verdict = ledger::gate(&base, &cur, min_effect_of(min_effect.as_deref()));
            let mut out = ledger::render_diff(&base_label, &cur_label, &verdict.deltas);
            out.push_str(&verdict.summary());
            out.push('\n');
            if verdict.pass() {
                Ok(out)
            } else {
                Err(CliError(out))
            }
        }
    }
}

/// Run `f` on `threads` workers when given, else on the ambient budget.
fn on_threads<R>(threads: Option<usize>, f: impl FnOnce() -> R) -> R {
    match threads {
        Some(n) => nadroid_par::with_threads(n, f),
        None => f(),
    }
}

/// Render confirmation results for the terminal, mirroring the
/// confirmation section `explain` prints.
fn render_confirm_text(
    results: &[nadroid_confirm::WarningConfirmation],
    tally: Option<&nadroid_confirm::Tally>,
) -> String {
    let mut out = String::new();
    if let Some(t) = tally {
        out.push_str(&format!(
            "confirmed {}, unconfirmed {}, infeasible {} ({} warning(s))\n",
            t.confirmed,
            t.unconfirmed,
            t.infeasible,
            t.total()
        ));
    }
    for r in results {
        let c = &r.confirmation;
        out.push_str(&format!(
            "\nwarning {}\n  field:   {}\n  use at:  {}\n  free at: {}\n  verdict: {}\n  reason:  {}\n  states:  {}\n",
            r.id, r.field, r.use_site, r.free_site, c.verdict, c.reason, c.states_explored
        ));
        if let Some(at) = &c.npe_at {
            out.push_str(&format!("  npe at:  {at}\n"));
        }
        if let Some(s) = &c.schedule {
            out.push_str(&format!("  witness schedule:\n    {s}\n"));
        }
    }
    out
}

/// Render a server response for the terminal. Protocol-level outcomes
/// (`rejected`, `deadline exceeded`) are ordinary output; only server
/// errors and transport failures become a non-zero exit.
fn render_response(response: &Response) -> Result<String, CliError> {
    match response {
        Response::Analyze {
            app,
            cached,
            micros,
            summary,
            warnings,
        } => {
            let mut out = format!(
                "app: {app}\ncached: {cached}\nmicros: {micros}\n\
                 summary: potential={} after_sound={} after_unsound={}\n\
                 warnings: {}\n",
                summary.potential,
                summary.after_sound,
                summary.after_unsound,
                warnings.len()
            );
            for w in warnings {
                out.push_str(&format!("  {w}\n"));
            }
            Ok(out)
        }
        Response::Explain {
            cached,
            micros,
            text,
        } => Ok(format!("cached: {cached}\nmicros: {micros}\n{text}")),
        Response::Confirm {
            cached,
            micros,
            json,
        } => Ok(format!("cached: {cached}\nmicros: {micros}\n{json}")),
        Response::Stats { fields } => {
            let mut out = String::from("server stats:\n");
            for (name, value) in fields {
                out.push_str(&format!("  \"{name}\": {value}\n"));
            }
            Ok(out)
        }
        Response::Metrics { json } => Ok(format!("{json}\n")),
        Response::Shutdown => Ok("shutdown acknowledged\n".to_owned()),
        Response::Rejected { retry_after_ms } => {
            Ok(format!("rejected (retry after {retry_after_ms} ms)\n"))
        }
        Response::DeadlineExceeded { deadline_ms } => {
            Ok(format!("deadline exceeded ({deadline_ms} ms)\n"))
        }
        Response::Error { message } => Err(CliError(format!("server error: {message}"))),
    }
}

/// Render a `nadroid-serve-metrics/1` document as Prometheus-style
/// exposition text: one `name{labels} value` line per counter, window,
/// and histogram quantile.
fn render_metrics_text(json: &str) -> Result<String, CliError> {
    let doc = nadroid_core::parse_json(json)
        .map_err(|e| CliError(format!("malformed metrics document: {e}")))?;
    let num = |v: &nadroid_core::JsonValue| v.as_f64().unwrap_or(0.0);
    let mut out = String::from("# nadroid-serve-metrics/1\n");
    if let Some(v) = doc.get("uptime_secs") {
        out.push_str(&format!("nadroid_serve_uptime_seconds {}\n", num(v)));
    }
    if let Some(v) = doc.get("requests_total") {
        out.push_str(&format!("nadroid_serve_requests_total {}\n", num(v)));
    }
    if let Some(nadroid_core::JsonValue::Obj(members)) = doc.get("counters") {
        for (name, v) in members {
            out.push_str(&format!(
                "nadroid_serve_counter{{name=\"{name}\"}} {}\n",
                num(v)
            ));
        }
    }
    if let Some(nadroid_core::JsonValue::Obj(members)) = doc.get("windows") {
        for (name, v) in members {
            out.push_str(&format!(
                "nadroid_serve_window{{name=\"{name}\"}} {}\n",
                num(v)
            ));
        }
    }
    if let Some(nadroid_core::JsonValue::Obj(hists)) = doc.get("histograms") {
        for (series, h) in hists {
            for (field, quantile) in [
                ("p50_us", "0.50"),
                ("p90_us", "0.90"),
                ("p95_us", "0.95"),
                ("p99_us", "0.99"),
            ] {
                if let Some(v) = h.get(field) {
                    out.push_str(&format!(
                        "nadroid_serve_latency_us{{series=\"{series}\",quantile=\"{quantile}\"}} {}\n",
                        num(v)
                    ));
                }
            }
            if let Some(v) = h.get("count") {
                out.push_str(&format!(
                    "nadroid_serve_latency_us_count{{series=\"{series}\"}} {}\n",
                    num(v)
                ));
            }
            if let Some(v) = h.get("max_us") {
                out.push_str(&format!(
                    "nadroid_serve_latency_us_max{{series=\"{series}\"}} {}\n",
                    num(v)
                ));
            }
        }
    }
    Ok(out)
}

/// The `<app>.provenance.json` sibling of `path`, when it exists and
/// records `want_hash` as its `program_hash` — validation by content,
/// not mtime, so a document that merely *looks* newer than the DSL file
/// can never answer for a program whose text changed. (A sibling in an
/// older schema is turned away by `render_explain_from_json`.)
fn fresh_provenance_sibling(path: &str, want_hash: &str) -> Option<(String, String)> {
    let prov = std::path::Path::new(path).with_extension("provenance.json");
    let doc = std::fs::read_to_string(&prov).ok()?;
    let recorded = nadroid_core::parse_json(&doc).ok()?;
    if recorded
        .get("program_hash")
        .and_then(nadroid_core::JsonValue::as_str)
        != Some(want_hash)
    {
        return None;
    }
    Some((prov.to_string_lossy().into_owned(), doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn parses_analyze_flags() {
        let cmd = parse_args(args(&[
            "analyze",
            "app.dsl",
            "--validate",
            "--k",
            "3",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Analyze {
                path: "app.dsl".into(),
                validate: true,
                sound_only: false,
                k: 3,
                json: true,
                baseline: None,
                update_baseline: false,
                trace: None,
                report: None,
                provenance: None,
                stats: false,
                threads: None,
            }
        );
        assert!(parse_args(args(&["analyze", "a.dsl", "--update-baseline"])).is_err());
    }

    #[test]
    fn parses_explain_and_provenance() {
        assert_eq!(
            parse_args(args(&["explain", "app.dsl"])).unwrap(),
            Command::Explain {
                path: "app.dsl".into(),
                warning_id: None,
            }
        );
        assert_eq!(
            parse_args(args(&["explain", "app.dsl", "w:0011223344556677"])).unwrap(),
            Command::Explain {
                path: "app.dsl".into(),
                warning_id: Some("w:0011223344556677".into()),
            }
        );
        assert!(parse_args(args(&["explain"])).is_err());
        assert!(parse_args(args(&["explain", "a.dsl", "w:1", "extra"])).is_err());

        match parse_args(args(&["analyze", "app.dsl", "--provenance", "p.json"])).unwrap() {
            Command::Analyze { provenance, .. } => {
                assert_eq!(provenance.as_deref(), Some("p.json"));
            }
            other => panic!("expected Analyze, got {other:?}"),
        }
        assert!(parse_args(args(&["analyze", "a.dsl", "--provenance"])).is_err());
    }

    #[test]
    fn every_threads_flag_takes_one_to_max_threads() {
        assert_eq!(nadroid_par::MAX_THREADS, 256);
        let inputs = [
            ("analyze", "--threads"),
            ("confirm", "--threads"),
            ("serve", "--threads"),
            ("serve", "--workers"),
        ];
        for (cmd, flag) in inputs {
            let parse = |n: &str| {
                let mut a = vec![cmd];
                if cmd != "serve" {
                    a.push("a.dsl");
                }
                a.extend([flag, n]);
                parse_args(args(&a))
            };
            for bad in ["0", "257"] {
                let err = parse(bad).unwrap_err();
                assert!(
                    err.0
                        .contains(&format!("{flag} takes a count from 1 to 256")),
                    "{cmd} {flag} {bad}: {err}"
                );
            }
            for n in [4, 256] {
                match parse(&n.to_string()).unwrap() {
                    Command::Analyze { threads, .. } | Command::Confirm { threads, .. } => {
                        assert_eq!(threads, Some(n), "{cmd}");
                    }
                    Command::Serve {
                        threads, workers, ..
                    } => {
                        let parsed = if flag == "--workers" {
                            workers
                        } else {
                            threads
                        };
                        assert_eq!(parsed, n, "{cmd} {flag}");
                    }
                    other => panic!("{cmd} parsed as {other:?}"),
                }
            }
        }
    }

    #[test]
    fn parses_confirm_and_replay() {
        assert_eq!(
            parse_args(args(&["confirm", "app.dsl"])).unwrap(),
            Command::Confirm {
                path: "app.dsl".into(),
                warning_id: None,
                json: false,
                threads: None,
                provenance: None,
            }
        );
        assert_eq!(
            parse_args(args(&[
                "confirm",
                "app.dsl",
                "w:0011223344556677",
                "--json",
                "--threads",
                "2",
            ]))
            .unwrap(),
            Command::Confirm {
                path: "app.dsl".into(),
                warning_id: Some("w:0011223344556677".into()),
                json: true,
                threads: Some(2),
                provenance: None,
            }
        );
        assert!(parse_args(args(&["confirm"])).is_err());
        assert!(parse_args(args(&["confirm", "a.dsl", "w:1", "--all"])).is_err());
        assert!(parse_args(args(&["confirm", "a.dsl", "w:1", "--provenance", "p"])).is_err());
        assert!(parse_args(args(&["confirm", "a.dsl", "--threads", "zero"])).is_err());

        assert_eq!(
            parse_args(args(&[
                "replay",
                "app.dsl",
                "l0.onCreate a0.0",
                "--id",
                "w:1"
            ]))
            .unwrap(),
            Command::Replay {
                path: "app.dsl".into(),
                schedule: "l0.onCreate a0.0".into(),
                warning_id: Some("w:1".into()),
            }
        );
        assert!(parse_args(args(&["replay", "app.dsl"])).is_err());
        assert!(parse_args(args(&["replay"])).is_err());
    }

    #[test]
    fn confirm_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("nadroid_cli_confirm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("app.dsl");
        std::fs::write(
            &path,
            r#"
            app CliConfirm
            activity Console {
                field bound: Console
                cb onCreate { bind this }
                cb onServiceConnected { bound = new Console }
                cb onServiceDisconnected { bound = null }
                cb onCreateContextMenu { use bound }
            }
            "#,
        )
        .unwrap();
        let p = path.to_string_lossy().to_string();

        let text = run(&Command::Confirm {
            path: p.clone(),
            warning_id: None,
            json: false,
            threads: None,
            provenance: None,
        })
        .unwrap();
        assert!(text.contains("verdict: confirmed"), "{text}");
        assert!(text.contains("witness schedule:"), "{text}");

        // The printed schedule replays to the NPE in a fresh command,
        // and matches the warning it confirms.
        let schedule = text
            .lines()
            .skip_while(|l| !l.contains("witness schedule:"))
            .nth(1)
            .unwrap()
            .trim()
            .to_owned();
        let id = text
            .lines()
            .find_map(|l| l.strip_prefix("warning "))
            .unwrap()
            .to_owned();
        let replayed = run(&Command::Replay {
            path: p.clone(),
            schedule: schedule.clone(),
            warning_id: Some(id.clone()),
        })
        .unwrap();
        assert!(replayed.contains("NPE reproduced"), "{replayed}");
        assert!(
            replayed.contains(&format!("matches warning {id}")),
            "{replayed}"
        );

        // A truncated schedule fails replay instead of passing silently.
        let first = schedule.split_whitespace().next().unwrap().to_owned();
        assert!(run(&Command::Replay {
            path: p.clone(),
            schedule: first,
            warning_id: None,
        })
        .is_err());

        // JSON mode emits the nadroid-confirm/1 document; the attached
        // provenance export carries the verdicts.
        let prov_path = dir.join("confirm.provenance.json");
        let json = run(&Command::Confirm {
            path: p.clone(),
            warning_id: None,
            json: true,
            threads: Some(2),
            provenance: Some(prov_path.to_string_lossy().into_owned()),
        })
        .unwrap();
        assert!(json.contains("\"schema\": \"nadroid-confirm/1\""), "{json}");
        let prov = std::fs::read_to_string(&prov_path).unwrap();
        assert!(
            prov.contains("\"schema\": \"nadroid-provenance/4\""),
            "{prov}"
        );
        assert!(prov.contains("\"verdict\": \"confirmed\""), "{prov}");

        // Unknown ids list the known ones instead of erroring.
        let miss = run(&Command::Confirm {
            path: p,
            warning_id: Some("w:0000000000000000".into()),
            json: false,
            threads: None,
            provenance: None,
        })
        .unwrap();
        assert!(miss.contains("no warning with id"), "{miss}");
        assert!(miss.contains(&id), "{miss}");
    }

    #[test]
    fn rejects_unknown_flags() {
        assert!(parse_args(args(&["analyze", "app.dsl", "--wat"])).is_err());
        assert!(parse_args(args(&["frobnicate"])).is_err());
        assert!(parse_args(args(&["analyze"])).is_err());
        assert!(parse_args(args(&["dot"])).is_err());
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(Vec::new()).unwrap(), Command::Help);
        assert!(run(&Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn end_to_end_on_a_temp_file() {
        let dir = std::env::temp_dir().join("nadroid_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("app.dsl");
        std::fs::write(
            &path,
            r#"
            app Cli
            activity M {
                field f: M
                cb onCreate { f = new M }
                cb onClick { use f }
                cb onPause { f = null }
            }
            "#,
        )
        .unwrap();
        let p = path.to_string_lossy().to_string();

        let report = run(&Command::Analyze {
            path: p.clone(),
            validate: true,
            sound_only: false,
            k: 2,
            json: false,
            baseline: None,
            update_baseline: false,
            trace: None,
            report: None,
            provenance: None,
            stats: false,
            threads: None,
        })
        .unwrap();
        assert!(report.contains("nAdroid report for `Cli`"), "{report}");
        // --validate appends `confirm`'s verdicts after the report.
        assert!(
            report.contains("confirmed 1, unconfirmed 0, infeasible 0 (1 warning(s))"),
            "{report}"
        );
        assert!(report.contains("verdict: confirmed"), "{report}");
        assert!(report.contains("witness schedule:"), "{report}");

        let dot = run(&Command::Dot { path: p.clone() }).unwrap();
        assert!(dot.starts_with("digraph threadification"), "{dot}");
        assert!(dot.contains("M.onClick"), "{dot}");

        let deva = run(&Command::Deva { path: p.clone() }).unwrap();
        assert!(deva.contains("1 event anomaly"), "{deva}");

        let ns = run(&Command::NoSleep { path: p }).unwrap();
        assert!(ns.contains("0 no-sleep"), "{ns}");
    }

    #[test]
    fn baseline_suppresses_known_warnings() {
        let dir = std::env::temp_dir().join("nadroid_cli_baseline");
        std::fs::create_dir_all(&dir).unwrap();
        let app = dir.join("app.dsl");
        std::fs::write(
            &app,
            r#"
            app B
            activity M {
                field f: M
                cb onCreate { f = new M }
                cb onClick { use f }
                cb onPause { f = null }
            }
            "#,
        )
        .unwrap();
        let bl = dir.join("baseline.txt");
        let _ = std::fs::remove_file(&bl);
        let analyze_cmd = |update| Command::Analyze {
            path: app.to_string_lossy().into_owned(),
            validate: false,
            sound_only: false,
            k: 2,
            json: false,
            baseline: Some(bl.to_string_lossy().into_owned()),
            update_baseline: update,
            trace: None,
            report: None,
            provenance: None,
            stats: false,
            threads: None,
        };
        // First run: everything is new; write the baseline.
        let out = run(&analyze_cmd(true)).unwrap();
        assert!(out.contains("baseline: 0 suppressed, 1 new"), "{out}");
        // Second run: the known warning is suppressed.
        let out = run(&analyze_cmd(false)).unwrap();
        assert!(out.contains("baseline: 1 suppressed, 0 new"), "{out}");
    }

    #[test]
    fn json_output_mode() {
        let dir = std::env::temp_dir().join("nadroid_cli_json");
        std::fs::create_dir_all(&dir).unwrap();
        let app = dir.join("app.dsl");
        std::fs::write(
            &app,
            "app J
activity M { cb onClick { } }",
        )
        .unwrap();
        let out = run(&Command::Analyze {
            path: app.to_string_lossy().into_owned(),
            validate: false,
            sound_only: false,
            k: 2,
            json: true,
            baseline: None,
            update_baseline: false,
            trace: None,
            report: None,
            provenance: None,
            stats: false,
            threads: None,
        })
        .unwrap();
        assert!(out.trim_start().starts_with('{'), "{out}");
        assert!(out.contains("\"app\": \"J\""), "{out}");
    }

    #[test]
    fn implicit_analyze_accepts_flags_and_dsl_paths() {
        let cmd = parse_args(args(&["--trace", "out.json", "app.dsl"])).unwrap();
        match cmd {
            Command::Analyze { path, trace, .. } => {
                assert_eq!(path, "app.dsl");
                assert_eq!(trace.as_deref(), Some("out.json"));
            }
            other => panic!("expected Analyze, got {other:?}"),
        }
        let cmd = parse_args(args(&["app.dsl", "--stats"])).unwrap();
        match cmd {
            Command::Analyze { path, stats, .. } => {
                assert_eq!(path, "app.dsl");
                assert!(stats);
            }
            other => panic!("expected Analyze, got {other:?}"),
        }
        // Bare unknown words are still unknown commands.
        assert!(parse_args(args(&["frobnicate"])).is_err());
        assert!(
            parse_args(args(&["--trace"])).is_err(),
            "--trace needs a file"
        );
    }

    #[test]
    fn trace_report_and_stats_outputs() {
        let dir = std::env::temp_dir().join("nadroid_cli_obs");
        std::fs::create_dir_all(&dir).unwrap();
        let app = dir.join("app.dsl");
        std::fs::write(
            &app,
            r#"
            app Obs
            activity M {
                field f: M
                cb onCreate { f = new M }
                cb onClick { use f }
                cb onPause { f = null }
            }
            "#,
        )
        .unwrap();
        let trace_path = dir.join("trace.json");
        let report_path = dir.join("report.json");
        let out = run(&Command::Analyze {
            path: app.to_string_lossy().into_owned(),
            validate: false,
            sound_only: false,
            k: 2,
            json: false,
            baseline: None,
            update_baseline: false,
            trace: Some(trace_path.to_string_lossy().into_owned()),
            report: Some(report_path.to_string_lossy().into_owned()),
            provenance: None,
            stats: true,
            threads: None,
        })
        .unwrap();
        assert!(
            out.contains("run stats:"),
            "--stats appends the tree:\n{out}"
        );
        assert!(out.contains("analyze"), "{out}");
        // The HB graph reports its edges and predicate facts, and its
        // closures run in a span of their own.
        for counter in ["hb.edges", "hb.predicate_edges"] {
            assert!(out.contains(counter), "missing {counter}:\n{out}");
        }
        assert!(
            out.lines()
                .any(|l| l.split_whitespace().next() == Some("hb.closure")),
            "no hb.closure span:\n{out}"
        );

        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        // The four pipeline phases, the HB graph and the detection
        // sub-phases all appear as spans.
        for name in [
            "analyze",
            "modeling",
            "hb",
            "hb.closure",
            "detection",
            "pointsto",
            "escape",
            "detect",
            "filtering",
        ] {
            assert!(
                trace.contains(&format!("\"name\": \"{name}\"")),
                "missing {name}:\n{trace}"
            );
        }

        let report = std::fs::read_to_string(&report_path).unwrap();
        assert!(report.contains("\"app\": \"Obs\""), "{report}");
        assert!(report.contains("\"filter.MHB.killed\""), "{report}");
        assert!(report.contains("\"pointsto.queue_pops\""), "{report}");
    }

    #[test]
    fn parses_serve_and_request() {
        assert_eq!(
            parse_args(args(&["serve"])).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7911".into(),
                workers: 4,
                threads: 1,
                cache_bytes: 64 << 20,
                deadline_ms: None,
                access_log: None,
                slow_us: None,
                log_sample: 1,
            }
        );
        assert_eq!(
            parse_args(args(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--cache-bytes",
                "1024",
                "--deadline-ms",
                "500",
                "--access-log",
                "access.jsonl",
                "--slow-us",
                "250000",
                "--log-sample",
                "10",
            ]))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                threads: 1,
                cache_bytes: 1024,
                deadline_ms: Some(500),
                access_log: Some("access.jsonl".into()),
                slow_us: Some(250_000),
                log_sample: 10,
            }
        );
        assert!(parse_args(args(&["serve", "--workers"])).is_err());
        assert!(parse_args(args(&["serve", "app.dsl"])).is_err());
        assert!(parse_args(args(&["serve", "--log-sample", "0"])).is_err());
        assert!(parse_args(args(&["serve", "--slow-us", "soon"])).is_err());

        assert_eq!(
            parse_args(args(&[
                "request",
                "app.dsl",
                "--addr",
                "127.0.0.1:9",
                "--k",
                "3"
            ]))
            .unwrap(),
            Command::Request {
                path: Some("app.dsl".into()),
                addr: "127.0.0.1:9".into(),
                mode: RequestMode::Analyze,
                id: None,
                k: 3,
                deadline_ms: None,
            }
        );
        // Every mode flag selects its mode (--id implies --explain, in
        // either order); --stats, --metrics, --metrics-text and
        // --shutdown need no file, and repeating one mode is no conflict.
        use RequestMode as M;
        for (line, want, want_id) in [
            ("app.dsl --id w:1", M::Explain, Some("w:1")),
            ("app.dsl --explain --id w:1", M::Explain, Some("w:1")),
            ("app.dsl --id w:1 --explain", M::Explain, Some("w:1")),
            ("app.dsl --explain", M::Explain, None),
            ("app.dsl --confirm", M::Confirm, None),
            ("--stats", M::Stats, None),
            ("--metrics", M::Metrics, None),
            ("--metrics-text", M::MetricsText, None),
            ("--shutdown", M::Shutdown, None),
            ("--stats --stats", M::Stats, None),
        ] {
            let argv: Vec<&str> = std::iter::once("request").chain(line.split(' ')).collect();
            match parse_args(args(&argv)).unwrap() {
                Command::Request { mode, id, .. } => {
                    assert_eq!((mode, id.as_deref()), (want, want_id), "{line}");
                }
                other => panic!("expected Request, got {other:?}"),
            }
        }
        // Any two modes are a parse error, naming both flags.
        let modes = [
            vec!["--explain"],
            vec!["--id", "w:1"],
            vec!["--confirm"],
            vec!["--stats"],
            vec!["--metrics"],
            vec!["--metrics-text"],
            vec!["--shutdown"],
        ];
        for (i, a) in modes.iter().enumerate() {
            for b in &modes[i + 1..] {
                if a[0] == "--explain" && b[0] == "--id" {
                    continue; // both select explain
                }
                let mut argv = vec!["request", "app.dsl"];
                argv.extend(a);
                argv.extend(b);
                let err = parse_args(args(&argv)).expect_err(&argv.join(" "));
                assert!(
                    err.0.contains(a[0]) && err.0.contains(b[0]) && err.0.contains("one mode"),
                    "{argv:?}: {}",
                    err.0
                );
            }
        }
        assert_eq!(
            parse_args(args(&["request", "--stats", "--shutdown"]))
                .unwrap_err()
                .0,
            "--stats conflicts with --shutdown: a request takes one mode"
        );
        assert!(parse_args(args(&["request", "--metrics", "--confirm", "app.dsl"])).is_err());
        // The modes that send no program reject a file, --k and
        // --deadline-ms, naming the argument and the mode.
        for mode in ["--stats", "--metrics", "--metrics-text", "--shutdown"] {
            for (extra, named) in [
                (["app.dsl"].as_slice(), "file `app.dsl`"),
                (&["--k", "3"], "--k"),
                (&["--deadline-ms", "50"], "--deadline-ms"),
            ] {
                let mut argv = vec!["request", mode];
                argv.extend(extra);
                assert_eq!(
                    parse_args(args(&argv)).unwrap_err().0,
                    format!("{mode} takes no {named}"),
                    "{argv:?}"
                );
            }
        }
        for mode in ["--explain", "--confirm"] {
            assert!(
                parse_args(args(&["request", mode])).is_err(),
                "{mode} needs a file"
            );
        }
        assert!(parse_args(args(&["request"])).is_err(), "needs a file");

        assert_eq!(
            parse_args(args(&["check-json", "f.json", "--lines"])).unwrap(),
            Command::CheckJson {
                path: "f.json".into(),
                lines: true,
                expect_schema: None,
            }
        );
        assert_eq!(
            parse_args(args(&[
                "check-json",
                "ledger.jsonl",
                "--lines",
                "--expect-schema",
                "nadroid-ledger/1",
            ]))
            .unwrap(),
            Command::CheckJson {
                path: "ledger.jsonl".into(),
                lines: true,
                expect_schema: Some("nadroid-ledger/1".into()),
            }
        );
        assert!(parse_args(args(&["check-json"])).is_err(), "needs a file");
        assert!(
            parse_args(args(&["check-json", "f.json", "--expect-schema"])).is_err(),
            "--expect-schema needs a name"
        );
    }

    #[test]
    fn parses_perf_subcommands() {
        assert_eq!(
            parse_args(args(&["perf", "record", "--from", "BENCH_timing.json"])).unwrap(),
            Command::Perf(PerfCommand::Record {
                from: Some("BENCH_timing.json".into()),
                kind: None,
                note: None,
                ledger: None,
            })
        );
        assert_eq!(
            parse_args(args(&[
                "perf", "record", "--kind", "ci", "--note", "nightly", "--ledger", "l.jsonl",
            ]))
            .unwrap(),
            Command::Perf(PerfCommand::Record {
                from: None,
                kind: Some("ci".into()),
                note: Some("nightly".into()),
                ledger: Some("l.jsonl".into()),
            })
        );
        assert_eq!(
            parse_args(args(&["perf", "list"])).unwrap(),
            Command::Perf(PerfCommand::List { ledger: None })
        );
        assert_eq!(
            parse_args(args(&[
                "perf",
                "diff",
                "prev",
                "last",
                "--min-effect",
                "0.1"
            ]))
            .unwrap(),
            Command::Perf(PerfCommand::Diff {
                base: "prev".into(),
                current: "last".into(),
                min_effect: Some("0.1".into()),
                ledger: None,
            })
        );
        assert_eq!(
            parse_args(args(&[
                "perf",
                "gate",
                "--against",
                "BENCH_timing.json",
                "--record",
            ]))
            .unwrap(),
            Command::Perf(PerfCommand::Gate {
                against: "BENCH_timing.json".into(),
                current: None,
                record: true,
                min_effect: None,
                ledger: None,
            })
        );
        // Malformed invocations are rejected at parse time.
        assert!(parse_args(args(&["perf"])).is_err(), "needs a subcommand");
        assert!(parse_args(args(&["perf", "frobnicate"])).is_err());
        assert!(
            parse_args(args(&["perf", "diff", "last"])).is_err(),
            "two selectors"
        );
        assert!(
            parse_args(args(&["perf", "gate"])).is_err(),
            "needs --against"
        );
        assert!(parse_args(args(&["perf", "record", "--kind", "wat"])).is_err());
        assert!(parse_args(args(&["perf", "diff", "a", "b", "--min-effect", "-1"])).is_err());
        assert!(
            parse_args(args(&["perf", "list", "--from", "x"])).is_err(),
            "--from is not a list flag"
        );
    }

    #[test]
    fn check_json_validates_documents_and_jsonl() {
        let dir = std::env::temp_dir().join("nadroid_cli_checkjson");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        std::fs::write(&good, "{\"a\": [1, 2, 3]}\n").unwrap();
        let out = run(&Command::CheckJson {
            path: good.to_string_lossy().into_owned(),
            lines: false,
            expect_schema: None,
        })
        .unwrap();
        assert!(out.contains("OK (1 JSON value(s))"), "{out}");

        let jsonl = dir.join("log.jsonl");
        std::fs::write(&jsonl, "{\"id\":\"r1\"}\n\n{\"id\":\"r2\"}\n").unwrap();
        let out = run(&Command::CheckJson {
            path: jsonl.to_string_lossy().into_owned(),
            lines: true,
            expect_schema: None,
        })
        .unwrap();
        assert!(out.contains("OK (2 JSON value(s))"), "{out}");

        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"ok\":1}\nnot json\n").unwrap();
        let err = run(&Command::CheckJson {
            path: bad.to_string_lossy().into_owned(),
            lines: true,
            expect_schema: None,
        })
        .unwrap_err();
        assert!(err.to_string().contains(":2:"), "line number in: {err}");
    }

    #[test]
    fn check_json_pins_schemas() {
        let dir = std::env::temp_dir().join("nadroid_cli_expect_schema");
        std::fs::create_dir_all(&dir).unwrap();

        // A whole-document schema match, mismatch, and absence.
        let doc = dir.join("prov.json");
        std::fs::write(
            &doc,
            "{\"schema\": \"nadroid-provenance/4\", \"apps\": 27}\n",
        )
        .unwrap();
        let check = |path: &std::path::Path, lines: bool, want: &str| {
            run(&Command::CheckJson {
                path: path.to_string_lossy().into_owned(),
                lines,
                expect_schema: Some(want.to_owned()),
            })
        };
        let out = check(&doc, false, "nadroid-provenance/4").unwrap();
        assert!(
            out.contains("OK (1 JSON value(s), schema nadroid-provenance/4)"),
            "{out}"
        );
        let err = check(&doc, false, "nadroid-provenance/3")
            .unwrap_err()
            .to_string();
        assert!(err.contains("schema is `nadroid-provenance/4`"), "{err}");
        assert!(err.contains("expected `nadroid-provenance/3`"), "{err}");

        let bare = dir.join("bare.json");
        std::fs::write(&bare, "{\"apps\": 27}\n").unwrap();
        let err = check(&bare, false, "nadroid-provenance/4")
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing top-level `schema`"), "{err}");

        // JSONL: every line is pinned, and the failing line is named.
        let ledger = dir.join("ledger.jsonl");
        std::fs::write(
            &ledger,
            "{\"schema\": \"nadroid-ledger/1\", \"kind\": \"ci\"}\n\
             {\"schema\": \"nadroid-ledger/2\", \"kind\": \"ci\"}\n",
        )
        .unwrap();
        let err = check(&ledger, true, "nadroid-ledger/1")
            .unwrap_err()
            .to_string();
        assert!(err.contains(":2:"), "failing line named: {err}");
        assert!(err.contains("schema is `nadroid-ledger/2`"), "{err}");
    }

    /// Golden rendering for `perf diff` on a canned two-record ledger:
    /// a counter drift and a latency regression beyond the noise
    /// budget, regressions sorted first, exact byte-for-byte output.
    #[test]
    fn perf_diff_renders_golden_output() {
        let dir = std::env::temp_dir().join("nadroid_cli_perf_diff");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut base = ledger::Record::new(ledger::Kind::Timing);
        base.ts = 1_754_000_000;
        base.note = "baseline".into();
        base.env = ledger::Env {
            cores: 8,
            threads: 1,
            profile: "release".into(),
        };
        base.counters
            .insert("detector.pairs_examined".into(), 666_419);
        base.times.insert("suite.wall_secs".into(), 0.40);
        base.percentiles.insert("warm.server_p99_us".into(), 1000);
        let mut cur = base.clone();
        cur.kind = ledger::Kind::Ci;
        cur.ts = 1_754_000_100;
        cur.counters
            .insert("detector.pairs_examined".into(), 666_500);
        cur.percentiles.insert("warm.server_p99_us".into(), 1200);
        ledger::append(&path, &base).unwrap();
        ledger::append(&path, &cur).unwrap();

        let diff_cmd = |base: &str, current: &str| {
            run(&Command::Perf(PerfCommand::Diff {
                base: base.into(),
                current: current.into(),
                min_effect: None,
                ledger: Some(path.to_string_lossy().into_owned()),
            }))
            .unwrap()
        };
        assert_eq!(
            diff_cmd("1", "2"),
            "perf diff: #1 (timing) -> #2 (ci)\n\
             \x20 [regression ] percentiles.warm.server_p99_us: \
             1000us -> 1200us (beyond 6.3% noise + 5.0% min effect)\n\
             \x20 [drift      ] counters.detector.pairs_examined: 666419 -> 666500 (+81)\n"
        );
        // Self-diff is empty, and selector sugar resolves.
        assert_eq!(
            diff_cmd("prev", "prev"),
            "perf diff: #1 (timing) -> #1 (timing)\n  no differences beyond noise\n"
        );
    }

    #[test]
    fn serve_round_trip_through_the_cli_layer() {
        // Drive the server directly (CLI `serve` blocks on stdin-less
        // run_until_shutdown; the smoke gate in ci.sh covers that path)
        // and exercise `request` end to end via `run`.
        let server = nadroid_serve::Server::start(nadroid_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..nadroid_serve::ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();

        let dir = std::env::temp_dir().join("nadroid_cli_serve");
        std::fs::create_dir_all(&dir).unwrap();
        let app = dir.join("app.dsl");
        std::fs::write(
            &app,
            r#"
            app Req
            activity M {
                field f: M
                cb onCreate { f = new M }
                cb onClick { use f }
                cb onPause { f = null }
            }
            "#,
        )
        .unwrap();
        let request = |extra: &[&str]| {
            let mut argv = vec!["request", app.to_str().unwrap(), "--addr", &addr];
            argv.extend_from_slice(extra);
            run(&parse_args(args(&argv)).unwrap()).unwrap()
        };

        let cold = request(&[]);
        assert!(cold.contains("app: Req"), "{cold}");
        assert!(cold.contains("cached: false"), "{cold}");
        assert!(cold.contains("request id: r"), "id echoed:\n{cold}");
        let warm = request(&[]);
        assert!(warm.contains("cached: true"), "{warm}");

        let timed_out = request(&["--k", "3", "--deadline-ms", "0"]);
        assert!(timed_out.contains("deadline exceeded"), "{timed_out}");

        // The analyze entry holds no provenance, so the first explain
        // derives it and upgrades the entry; the second reads it.
        let explain = request(&["--explain"]);
        assert!(explain.contains("filter audit:"), "{explain}");
        assert!(explain.contains("cached: false"), "{explain}");
        let explain = request(&["--explain"]);
        assert!(explain.contains("cached: true"), "{explain}");

        let stats =
            run(&parse_args(args(&["request", "--stats", "--addr", &addr])).unwrap()).unwrap();
        // cold = miss, warm = hit, deadline (k=3) = miss, first explain
        // = miss, second explain = hit
        assert!(stats.contains("\"cache_hits\": 2"), "{stats}");
        assert!(stats.contains("\"cache_misses\": 3"), "{stats}");
        assert!(stats.contains("\"deadline_exceeded\": 1"), "{stats}");

        let metrics =
            run(&parse_args(args(&["request", "--metrics", "--addr", &addr])).unwrap()).unwrap();
        assert!(
            metrics.contains("\"schema\":\"nadroid-serve-metrics/1\""),
            "{metrics}"
        );
        let raw = metrics
            .lines()
            .next()
            .expect("metrics document on the first line");
        assert!(nadroid_core::parse_json(raw).is_ok(), "{raw}");

        let text = run(&parse_args(args(&["request", "--metrics-text", "--addr", &addr])).unwrap())
            .unwrap();
        assert!(text.contains("nadroid_serve_requests_total"), "{text}");
        assert!(
            text.contains("nadroid_serve_window{name=\"rps_1s\"}"),
            "{text}"
        );
        assert!(
            text.contains(
                "nadroid_serve_latency_us{series=\"serve.latency.analyze.miss\",quantile=\"0.99\"}"
            ),
            "{text}"
        );

        let bye =
            run(&parse_args(args(&["request", "--shutdown", "--addr", &addr])).unwrap()).unwrap();
        assert!(bye.contains("shutdown acknowledged"), "{bye}");
    }

    #[test]
    fn explain_prefers_a_fresh_provenance_sibling() {
        let dir = std::env::temp_dir().join("nadroid_cli_prov_sibling");
        std::fs::create_dir_all(&dir).unwrap();
        let app = dir.join("app.dsl");
        std::fs::write(
            &app,
            r#"
            app Sib
            activity M {
                field f: M
                cb onCreate { f = new M }
                cb onClick { use f }
                cb onPause { f = null }
            }
            "#,
        )
        .unwrap();
        let prov = dir.join("app.provenance.json");
        let _ = std::fs::remove_file(&prov);
        let path = app.to_string_lossy().into_owned();
        let explain_cmd = Command::Explain {
            path: path.clone(),
            warning_id: None,
        };

        // No sibling: live solve.
        let live = run(&explain_cmd).unwrap();
        assert!(!live.contains("from cached provenance"), "{live}");

        // Export provenance, then explain again: served from the file,
        // with identical content after the provenance note.
        run(&Command::Analyze {
            path: path.clone(),
            validate: false,
            sound_only: false,
            k: 2,
            json: false,
            baseline: None,
            update_baseline: false,
            trace: None,
            report: None,
            provenance: Some(prov.to_string_lossy().into_owned()),
            stats: false,
            threads: None,
        })
        .unwrap();
        let cached = run(&explain_cmd).unwrap();
        assert!(cached.contains("from cached provenance"), "{cached}");
        let (_, body) = cached.split_once('\n').unwrap();
        assert_eq!(body, live, "cached rendering must match the live one");

        // A document whose recorded program hash no longer matches the
        // DSL content is ignored, even though its mtime is *newer* than
        // the source — the freshness check is content, not timestamps.
        let stale = std::fs::read_to_string(&prov)
            .unwrap()
            .replace("\"program_hash\": \"p:", "\"program_hash\": \"p:dead");
        std::fs::write(&prov, stale).unwrap();
        let refreshed = run(&explain_cmd).unwrap();
        assert!(!refreshed.contains("from cached provenance"), "{refreshed}");
        assert_eq!(refreshed, live);

        // A corrupt document falls back to the live solve.
        std::fs::write(&prov, "not json").unwrap();
        let fallback = run(&explain_cmd).unwrap();
        assert!(!fallback.contains("from cached provenance"), "{fallback}");
        assert_eq!(fallback, live);
    }

    #[test]
    fn explain_reanalyzes_past_a_stale_provenance_schema() {
        let dir = std::env::temp_dir().join("nadroid_cli_prov_stale_schema");
        std::fs::create_dir_all(&dir).unwrap();
        let app = dir.join("app.dsl");
        std::fs::write(
            &app,
            r#"
            app Stale
            activity M {
                field f: M
                cb onCreate { f = new M }
                cb onClick { use f }
                cb onPause { f = null }
            }
            "#,
        )
        .unwrap();
        let prov = dir.join("app.provenance.json");
        let path = app.to_string_lossy().into_owned();
        run(&Command::Analyze {
            path: path.clone(),
            validate: false,
            sound_only: false,
            k: 2,
            json: false,
            baseline: None,
            update_baseline: false,
            trace: None,
            report: None,
            provenance: Some(prov.to_string_lossy().into_owned()),
            stats: false,
            threads: None,
        })
        .unwrap();
        let explain_cmd = Command::Explain {
            path,
            warning_id: None,
        };

        // Current schema: served from the sibling.
        let fresh = run(&explain_cmd).unwrap();
        assert!(fresh.contains("from cached provenance"), "{fresh}");
        let (_, live) = fresh.split_once('\n').unwrap();

        // A sibling in an older schema is stale, like a hash mismatch:
        // it is ignored and the program re-analyzed.
        let doc = std::fs::read_to_string(&prov)
            .unwrap()
            .replace("nadroid-provenance/4", "nadroid-provenance/3");
        std::fs::write(&prov, doc).unwrap();
        let stale = run(&explain_cmd).unwrap();
        assert!(!stale.contains("from cached provenance"), "{stale}");
        assert_eq!(stale, live);
    }

    #[test]
    fn missing_file_errors_cleanly() {
        let e = run(&Command::Dot {
            path: "/nonexistent/x.dsl".into(),
        })
        .unwrap_err();
        assert!(e.to_string().contains("cannot read"));
    }
}
