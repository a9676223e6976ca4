//! Append-only run ledger and the statistics-aware perf gate.
//!
//! Every benchmark or CI run appends one JSONL [`Record`] (schema
//! [`SCHEMA`], default path `Result/ledger.jsonl`) capturing what kind
//! of run it was, the environment it ran on, wall/CPU and per-phase
//! timings, the deterministic obs counters, latency histogram
//! snapshots in the `obs::hist` bucket encoding, and a digest of the
//! warning population per app. The bench drivers commit the same
//! record, as a single line, as their `BENCH_*.json` artifact, so a
//! committed baseline is read back with [`read`] like any ledger.
//! [`diff`] compares two records with a noise model instead of a
//! blanket tolerance:
//!
//! - **counters and populations are exact** — the analysis is
//!   deterministic, so any change is drift worth explaining;
//! - **latency percentiles** carry the histogram encoder's quantization
//!   error, so a delta only counts when it clears the combined
//!   two-sided bound [`HIST_NOISE`] plus a configurable minimum effect
//!   size ([`DiffOptions::min_effect`]);
//! - **wall/CPU seconds** from one-shot timers are the noisiest signal
//!   of all and only flag past a multiplicative tolerance plus an
//!   absolute slack ([`DiffOptions`]).
//!
//! [`gate`] turns a diff into a CI verdict: any regression or
//! unacknowledged drift fails with a message naming the exact counter,
//! percentile, or warning ids that moved. Both halves of every rule use
//! strict inequalities guarded by direction, so `diff(a, a)` is empty
//! at *any* threshold — the property suite pins this.
//!
//! Ledger numbers are JSON numbers and therefore exact only up to
//! 2^53; counters, microsecond latencies, and histogram bucket bounds
//! all live far below that in practice.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nadroid_core::{esc, parse_json, JsonValue};
use nadroid_obs::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Schema tag written on (and required of) every ledger line.
pub const SCHEMA: &str = "nadroid-ledger/1";

/// Default ledger location, relative to the repo root.
pub const DEFAULT_PATH: &str = "Result/ledger.jsonl";

/// Combined two-sided quantization noise bound for comparing two
/// percentile readouts that each came through the log-linear histogram
/// encoder (`SUB_BITS = 5`): each readout overshoots its true order
/// statistic by at most `1/32` relative, so two readouts of the same
/// underlying latency can differ by up to
/// `(1 + 1/32)^2 - 1 = 2/32 + 1/1024`.
pub const HIST_NOISE: f64 = 2.0 / 32.0 + 1.0 / 1024.0;

/// What produced a ledger record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The `timing` bench driver (the §8.8 suite breakdown).
    Timing,
    /// The `serve_bench` end-to-end serving driver.
    ServeBench,
    /// A fresh 27-app suite run recorded directly (e.g. `perf record`).
    Suite,
    /// A CI gate run.
    Ci,
    /// The `confirm_bench` schedule-synthesis driver.
    Confirm,
    /// The `refute_bench` refutation-study driver.
    Refute,
}

impl Kind {
    /// Wire name, as written in the `kind` field.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Timing => "timing",
            Kind::ServeBench => "serve_bench",
            Kind::Suite => "suite",
            Kind::Ci => "ci",
            Kind::Confirm => "confirm",
            Kind::Refute => "refute",
        }
    }

    /// Parse a wire name. (Inherent rather than `std::str::FromStr` so
    /// call sites keep the `String` error type the ledger uses
    /// throughout.)
    ///
    /// # Errors
    ///
    /// Returns the offending string when it names no kind.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Result<Kind, String> {
        match s {
            "timing" => Ok(Kind::Timing),
            "serve_bench" => Ok(Kind::ServeBench),
            "suite" => Ok(Kind::Suite),
            "ci" => Ok(Kind::Ci),
            "confirm" => Ok(Kind::Confirm),
            "refute" => Ok(Kind::Refute),
            other => Err(format!("unknown run kind {other:?}")),
        }
    }
}

/// Environment fingerprint: enough to explain why two records are not
/// comparable before blaming the code. Differences are reported as
/// informational, never as failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Env {
    /// Detected hardware parallelism.
    pub cores: u64,
    /// Effective `NADROID_THREADS`: the analysis default, 1 when unset
    /// and clamped to `1..=nadroid_par::MAX_THREADS`.
    pub threads: u64,
    /// `release` or `debug`.
    pub profile: String,
}

impl Env {
    /// Fingerprint the current process.
    #[must_use]
    pub fn capture() -> Env {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        let threads = nadroid_core::AnalysisConfig::default().threads as u64;
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        Env {
            cores,
            threads,
            profile: profile.to_string(),
        }
    }
}

/// One app's warning population: the sorted warning ids and their
/// order-invariant digest (`nadroid_core::warning_population_digest`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppPopulation {
    /// App slug.
    pub app: String,
    /// `wp:`-prefixed FNV-1a digest of the sorted ids.
    pub digest: String,
    /// The surviving warning ids themselves (sorted), kept so a digest
    /// change can be explained as concrete added/removed ids.
    pub ids: Vec<String>,
}

/// The suite-wide warning population: per-app id sets plus the
/// Figure-5 filter tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Population {
    /// Per-app populations, sorted by app slug.
    pub apps: Vec<AppPopulation>,
    /// Figure-5 tallies (`potential`, `filter.<K>.killed`, ...).
    pub tallies: BTreeMap<String, u64>,
}

/// One ledger line.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// What produced this record.
    pub kind: Kind,
    /// Wall-clock epoch seconds at record time.
    pub ts: u64,
    /// Free-form annotation (why the run happened).
    pub note: String,
    /// Environment fingerprint.
    pub env: Env,
    /// Wall/CPU/phase timings, in seconds.
    pub times: BTreeMap<String, f64>,
    /// Deterministic counters (time-valued `*_micros` counters are
    /// folded into [`Record::times`] instead, so these compare exact).
    pub counters: BTreeMap<String, u64>,
    /// Point latency readouts in microseconds (bench percentiles).
    pub percentiles: BTreeMap<String, u64>,
    /// Full latency histogram snapshots, by series name.
    pub hists: BTreeMap<String, Histogram>,
    /// Warning population, when the run analyzed the suite.
    pub population: Option<Population>,
}

/// Current wall clock as epoch seconds (0 if the clock is before 1970).
#[must_use]
pub fn epoch_secs() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

impl Record {
    /// A fresh record of `kind`, stamped with the current wall clock
    /// and environment.
    #[must_use]
    pub fn new(kind: Kind) -> Record {
        Record {
            kind,
            ts: epoch_secs(),
            note: String::new(),
            env: Env::capture(),
            times: BTreeMap::new(),
            counters: BTreeMap::new(),
            percentiles: BTreeMap::new(),
            hists: BTreeMap::new(),
            population: None,
        }
    }

    /// Encode as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"schema\":\"{}\",\"kind\":\"{}\",\"ts\":{},\"note\":\"{}\"",
            SCHEMA,
            self.kind.as_str(),
            self.ts,
            esc(&self.note)
        );
        let _ = write!(
            out,
            ",\"env\":{{\"cores\":{},\"threads\":{},\"profile\":\"{}\"}}",
            self.env.cores,
            self.env.threads,
            esc(&self.env.profile)
        );
        out.push_str(",\"times\":{");
        for (i, (k, v)) in self.times.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":{v:.6}", esc(k));
        }
        out.push_str("},\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":{v}", esc(k));
        }
        out.push_str("},\"percentiles\":{");
        for (i, (k, v)) in self.percentiles.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":{v}", esc(k));
        }
        out.push_str("},\"hists\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let buckets = h
                .buckets()
                .map(|(lo, hi, c)| format!("[{lo},{hi},{c}]"))
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"total\":{},\"min\":{},\"max\":{},\"buckets\":[{buckets}]}}",
                esc(k),
                h.total(),
                h.min(),
                h.max()
            );
        }
        out.push('}');
        if let Some(pop) = &self.population {
            out.push_str(",\"population\":{\"apps\":[");
            for (i, app) in pop.apps.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let ids = app
                    .ids
                    .iter()
                    .map(|id| format!("\"{}\"", esc(id)))
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = write!(
                    out,
                    "{sep}{{\"app\":\"{}\",\"digest\":\"{}\",\"ids\":[{ids}]}}",
                    esc(&app.app),
                    esc(&app.digest)
                );
            }
            out.push_str("],\"tallies\":{");
            for (i, (k, v)) in pop.tallies.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{}\":{v}", esc(k));
            }
            out.push_str("}}");
        }
        out.push('}');
        out
    }

    /// Decode a parsed ledger line.
    ///
    /// # Errors
    ///
    /// Rejects documents whose `schema` is not [`SCHEMA`] or whose
    /// shape deviates from what [`Record::to_json_line`] writes.
    pub fn from_json(v: &JsonValue) -> Result<Record, String> {
        let schema = v
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing schema")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
        }
        let kind = Kind::from_str(
            v.get("kind")
                .and_then(JsonValue::as_str)
                .ok_or("missing kind")?,
        )?;
        let ts = v
            .get("ts")
            .and_then(JsonValue::as_u64)
            .ok_or("missing ts")?;
        let note = v
            .get("note")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string();
        let env_v = v.get("env").ok_or("missing env")?;
        let env = Env {
            cores: env_v
                .get("cores")
                .and_then(JsonValue::as_u64)
                .ok_or("missing env.cores")?,
            threads: env_v
                .get("threads")
                .and_then(JsonValue::as_u64)
                .ok_or("missing env.threads")?,
            profile: env_v
                .get("profile")
                .and_then(JsonValue::as_str)
                .unwrap_or("release")
                .to_string(),
        };
        let times = obj_map(v.get("times"), |x| x.as_f64())?;
        let counters = obj_map(v.get("counters"), JsonValue::as_u64)?;
        let percentiles = obj_map(v.get("percentiles"), JsonValue::as_u64)?;
        let mut hists = BTreeMap::new();
        if let Some(JsonValue::Obj(members)) = v.get("hists") {
            for (name, hv) in members {
                hists.insert(
                    name.clone(),
                    hist_from_json(hv).map_err(|e| format!("hist {name:?}: {e}"))?,
                );
            }
        }
        let population = match v.get("population") {
            None | Some(JsonValue::Null) => None,
            Some(pv) => Some(population_from_json(pv)?),
        };
        Ok(Record {
            kind,
            ts,
            note,
            env,
            times,
            counters,
            percentiles,
            hists,
            population,
        })
    }

    /// One-line human rendering for `perf list`.
    #[must_use]
    pub fn summary_line(&self, index: usize) -> String {
        let pop = self.population.as_ref().map_or(0, |p| p.apps.len());
        format!(
            "#{index} {kind:<11} ts={ts} env={cores}c/{threads}t/{profile} times={nt} counters={nc} percentiles={np} hists={nh} pop_apps={pop}{note}",
            kind = self.kind.as_str(),
            ts = self.ts,
            cores = self.env.cores,
            threads = self.env.threads,
            profile = self.env.profile,
            nt = self.times.len(),
            nc = self.counters.len(),
            np = self.percentiles.len(),
            nh = self.hists.len(),
            note = if self.note.is_empty() {
                String::new()
            } else {
                format!(" note={:?}", self.note)
            },
        )
    }
}

fn obj_map<T>(
    v: Option<&JsonValue>,
    f: impl Fn(&JsonValue) -> Option<T>,
) -> Result<BTreeMap<String, T>, String> {
    let mut out = BTreeMap::new();
    if let Some(JsonValue::Obj(members)) = v {
        for (k, mv) in members {
            out.insert(
                k.clone(),
                f(mv).ok_or_else(|| format!("bad value for {k:?}"))?,
            );
        }
    }
    Ok(out)
}

fn hist_from_json(v: &JsonValue) -> Result<Histogram, String> {
    let total = v
        .get("total")
        .and_then(JsonValue::as_u64)
        .ok_or("missing total")?;
    let min = v
        .get("min")
        .and_then(JsonValue::as_u64)
        .ok_or("missing min")?;
    let max = v
        .get("max")
        .and_then(JsonValue::as_u64)
        .ok_or("missing max")?;
    let mut triples = Vec::new();
    for b in v
        .get("buckets")
        .and_then(JsonValue::as_arr)
        .ok_or("missing buckets")?
    {
        let t = b.as_arr().ok_or("bucket is not an array")?;
        if t.len() != 3 {
            return Err("bucket is not a [lo,hi,count] triple".to_string());
        }
        let lo = t[0].as_u64().ok_or("bad bucket lo")?;
        let hi = t[1].as_u64().ok_or("bad bucket hi")?;
        let c = t[2].as_u64().ok_or("bad bucket count")?;
        triples.push((lo, hi, c));
    }
    Histogram::from_snapshot(total, min, max, triples)
}

fn population_from_json(v: &JsonValue) -> Result<Population, String> {
    let mut apps = Vec::new();
    for av in v
        .get("apps")
        .and_then(JsonValue::as_arr)
        .ok_or("population missing apps")?
    {
        apps.push(AppPopulation {
            app: av
                .get("app")
                .and_then(JsonValue::as_str)
                .ok_or("population app missing name")?
                .to_string(),
            digest: av
                .get("digest")
                .and_then(JsonValue::as_str)
                .ok_or("population app missing digest")?
                .to_string(),
            ids: av
                .get("ids")
                .and_then(JsonValue::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(JsonValue::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
        });
    }
    let tallies = obj_map(v.get("tallies"), JsonValue::as_u64)?;
    Ok(Population { apps, tallies })
}

/// Parse one ledger line.
///
/// # Errors
///
/// Propagates JSON and shape errors from [`Record::from_json`].
pub fn parse_record_line(line: &str) -> Result<Record, String> {
    Record::from_json(&parse_json(line)?)
}

/// Append `rec` to the ledger at `path`, creating parent directories
/// and the file as needed.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn append(path: &Path, rec: &Record) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(f, "{}", rec.to_json_line()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Read every record in the ledger at `path`, oldest first.
///
/// # Errors
///
/// Reports the first unreadable line with its 1-based line number.
pub fn read(path: &Path) -> Result<Vec<Record>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(
            parse_record_line(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?,
        );
    }
    Ok(out)
}

/// Resolve a record selector against a ledger of `len` records:
/// `last` (newest), `prev` (second newest), a 1-based index from the
/// oldest (`1`, `2`, ...), or a negative index from the newest
/// (`-1` == `last`). Returns a 0-based index.
///
/// # Errors
///
/// Rejects unknown selector syntax and out-of-range indices.
pub fn select(len: usize, sel: &str) -> Result<usize, String> {
    let fail = |why: &str| Err(format!("selector {sel:?}: {why}"));
    if len == 0 {
        return fail("ledger is empty");
    }
    match sel {
        "last" => Ok(len - 1),
        "prev" => {
            if len < 2 {
                fail("ledger has no previous record")
            } else {
                Ok(len - 2)
            }
        }
        _ => {
            let n: i64 = match sel.parse() {
                Ok(n) => n,
                Err(_) => return fail("expected last, prev, or an integer"),
            };
            let idx = if n > 0 {
                n - 1
            } else if n < 0 {
                len as i64 + n
            } else {
                return fail("indices are 1-based");
            };
            if idx < 0 || idx as usize >= len {
                return fail(&format!("out of range for {len} record(s)"));
            }
            Ok(idx as usize)
        }
    }
}

/// Severity of one observed difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A timing or latency got worse beyond the noise model. Fails the
    /// gate.
    Regression,
    /// A deterministic quantity (counter, warning population, tally,
    /// histogram count) changed at all. Fails the gate until the
    /// baseline is re-recorded to acknowledge it.
    Drift,
    /// A timing or latency got *better* beyond the noise model.
    /// Reported so wins get recorded, never fails.
    Improvement,
    /// Context only (environment fingerprint differences).
    Info,
}

impl Severity {
    /// Render tag, bracketed in diff output.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Severity::Regression => "regression",
            Severity::Drift => "drift",
            Severity::Improvement => "improvement",
            Severity::Info => "info",
        }
    }
}

/// One observed difference between two records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// How bad it is.
    pub severity: Severity,
    /// Dotted key naming exactly what moved (`counters.hb.edges`,
    /// `percentiles.warm.server_p99_us`, `population.connectbot`, ...).
    pub key: String,
    /// Human-readable old → new detail.
    pub detail: String,
}

/// Thresholds for the noise-aware comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Minimum relative effect size for latency percentiles, *on top
    /// of* [`HIST_NOISE`]. 0.05 means "ignore latency moves under
    /// quantization noise + 5%".
    pub min_effect: f64,
    /// Multiplicative tolerance for one-shot wall/CPU seconds; a time
    /// only regresses when `cur > base * time_tolerance + slack_secs`.
    pub time_tolerance: f64,
    /// Absolute slack for one-shot timings, absorbing scheduler noise
    /// on sub-second measurements.
    pub slack_secs: f64,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            min_effect: 0.05,
            time_tolerance: 3.0,
            slack_secs: 0.25,
        }
    }
}

/// Whether two latency readouts (µs) differ beyond quantization noise
/// plus the configured minimum effect, with a 1 µs absolute floor.
/// Symmetric in its arguments and strict, so equal values never flag.
#[must_use]
pub fn latency_changed(a: u64, b: u64, min_effect: f64) -> bool {
    let lo = a.min(b);
    let hi = a.max(b);
    #[allow(clippy::cast_precision_loss)]
    let gap = (hi - lo) as f64;
    #[allow(clippy::cast_precision_loss)]
    let budget = ((lo as f64) * (HIST_NOISE + min_effect.max(0.0))).max(1.0);
    hi > lo && gap > budget
}

fn time_beyond(budget_base: f64, cur: f64, opts: &DiffOptions) -> bool {
    cur > budget_base.mul_add(opts.time_tolerance, opts.slack_secs)
}

/// Compare two records under the noise model. Keys present in only one
/// record are skipped (records of different kinds, or from before a key
/// was added, compare on the keys both carry); environment differences
/// are informational. Histogram tail percentiles gate only
/// when both sides hold enough samples for the quantile to be an estimate
/// (`count >= 5/(1-p)`: 10 for p50, 50 for p90, 500 for p99) —
/// under-sampled tail moves are reported as info, because a p99 over a
/// handful of one-shot wall times is just the max and tracks scheduler
/// noise, not the code. `diff(a, a)` is empty for every `a` and every
/// option set — all rules pair a strict threshold with a direction
/// guard.
#[must_use]
pub fn diff(base: &Record, cur: &Record, opts: &DiffOptions) -> Vec<Delta> {
    let mut out = Vec::new();

    for (k, &b) in &base.counters {
        if let Some(&c) = cur.counters.get(k) {
            if b != c {
                let delta = i128::from(c) - i128::from(b);
                out.push(Delta {
                    severity: Severity::Drift,
                    key: format!("counters.{k}"),
                    detail: format!("{b} -> {c} ({delta:+})"),
                });
            }
        }
    }

    for (k, &b) in &base.times {
        if let Some(&c) = cur.times.get(k) {
            if c > b && time_beyond(b, c, opts) {
                out.push(Delta {
                    severity: Severity::Regression,
                    key: format!("times.{k}"),
                    detail: format!(
                        "{b:.6}s -> {c:.6}s (beyond {t:.2}x + {s:.2}s budget)",
                        t = opts.time_tolerance,
                        s = opts.slack_secs
                    ),
                });
            } else if c < b && time_beyond(c, b, opts) {
                out.push(Delta {
                    severity: Severity::Improvement,
                    key: format!("times.{k}"),
                    detail: format!("{b:.6}s -> {c:.6}s"),
                });
            }
        }
    }

    for (k, &b) in &base.percentiles {
        if let Some(&c) = cur.percentiles.get(k) {
            if latency_changed(b, c, opts.min_effect) {
                out.push(Delta {
                    severity: if c > b {
                        Severity::Regression
                    } else {
                        Severity::Improvement
                    },
                    key: format!("percentiles.{k}"),
                    detail: format!(
                        "{b}us -> {c}us (beyond {:.1}% noise + {:.1}% min effect)",
                        HIST_NOISE * 100.0,
                        opts.min_effect.max(0.0) * 100.0
                    ),
                });
            }
        }
    }

    for (k, hb) in &base.hists {
        if let Some(hc) = cur.hists.get(k) {
            if hb.count() != hc.count() {
                out.push(Delta {
                    severity: Severity::Drift,
                    key: format!("hists.{k}.count"),
                    detail: format!("{} -> {} samples", hb.count(), hc.count()),
                });
            }
            // An empirical p-quantile is only an estimate when enough
            // samples land beyond it (at least 5 expected events, i.e.
            // count >= 5/(1-p)): a p99 over 27 one-shot per-app wall
            // times is just the max, and scheduler noise moves it by
            // orders of magnitude. Under-sampled tails are reported but
            // never gate.
            for (label, p, need) in [("p50", 0.50, 10), ("p90", 0.90, 50), ("p99", 0.99, 500)] {
                let (b, c) = (hb.percentile(p), hc.percentile(p));
                if latency_changed(b, c, opts.min_effect) {
                    let n = hb.count().min(hc.count());
                    if n < need {
                        out.push(Delta {
                            severity: Severity::Info,
                            key: format!("hists.{k}.{label}"),
                            detail: format!(
                                "{b}us -> {c}us (moved, but {n} sample(s) < {need} needed to gate {label})"
                            ),
                        });
                    } else {
                        out.push(Delta {
                            severity: if c > b {
                                Severity::Regression
                            } else {
                                Severity::Improvement
                            },
                            key: format!("hists.{k}.{label}"),
                            detail: format!(
                                "{b}us -> {c}us (beyond {:.1}% noise + {:.1}% min effect)",
                                HIST_NOISE * 100.0,
                                opts.min_effect.max(0.0) * 100.0
                            ),
                        });
                    }
                }
            }
        }
    }

    if let (Some(pb), Some(pc)) = (&base.population, &cur.population) {
        diff_population(pb, pc, &mut out);
    }

    let env_pairs: [(&str, String, String); 3] = [
        (
            "cores",
            base.env.cores.to_string(),
            cur.env.cores.to_string(),
        ),
        (
            "threads",
            base.env.threads.to_string(),
            cur.env.threads.to_string(),
        ),
        ("profile", base.env.profile.clone(), cur.env.profile.clone()),
    ];
    for (k, b, c) in env_pairs {
        if b != c {
            out.push(Delta {
                severity: Severity::Info,
                key: format!("env.{k}"),
                detail: format!("{b} -> {c} (records may not be comparable)"),
            });
        }
    }

    out
}

fn diff_population(base: &Population, cur: &Population, out: &mut Vec<Delta>) {
    let by_app = |p: &Population| -> BTreeMap<String, AppPopulation> {
        p.apps.iter().map(|a| (a.app.clone(), a.clone())).collect()
    };
    let b_apps = by_app(base);
    let c_apps = by_app(cur);
    for (app, b) in &b_apps {
        match c_apps.get(app) {
            None => out.push(Delta {
                severity: Severity::Drift,
                key: format!("population.{app}"),
                detail: format!("app disappeared ({} warning(s))", b.ids.len()),
            }),
            Some(c) if b.digest != c.digest => {
                let added: Vec<&str> = c
                    .ids
                    .iter()
                    .filter(|id| !b.ids.contains(id))
                    .map(String::as_str)
                    .collect();
                let removed: Vec<&str> = b
                    .ids
                    .iter()
                    .filter(|id| !c.ids.contains(id))
                    .map(String::as_str)
                    .collect();
                let mut detail = format!("digest {} -> {}", b.digest, c.digest);
                if !added.is_empty() {
                    let _ = write!(detail, "; added [{}]", added.join(", "));
                }
                if !removed.is_empty() {
                    let _ = write!(detail, "; removed [{}]", removed.join(", "));
                }
                out.push(Delta {
                    severity: Severity::Drift,
                    key: format!("population.{app}"),
                    detail,
                });
            }
            Some(_) => {}
        }
    }
    for (app, c) in &c_apps {
        if !b_apps.contains_key(app) {
            out.push(Delta {
                severity: Severity::Drift,
                key: format!("population.{app}"),
                detail: format!("app appeared ({} warning(s))", c.ids.len()),
            });
        }
    }
    let keys: std::collections::BTreeSet<&String> =
        base.tallies.keys().chain(cur.tallies.keys()).collect();
    for k in keys {
        let b = base.tallies.get(k);
        let c = cur.tallies.get(k);
        if b != c {
            let show = |v: Option<&u64>| v.map_or("(absent)".to_string(), u64::to_string);
            out.push(Delta {
                severity: Severity::Drift,
                key: format!("population.tallies.{k}"),
                detail: format!("{} -> {}", show(b), show(c)),
            });
        }
    }
}

/// Render a diff for humans: one bracketed-severity line per delta,
/// regressions first.
#[must_use]
pub fn render_diff(base_label: &str, cur_label: &str, deltas: &[Delta]) -> String {
    let mut out = format!("perf diff: {base_label} -> {cur_label}\n");
    if deltas.is_empty() {
        out.push_str("  no differences beyond noise\n");
        return out;
    }
    let mut sorted: Vec<&Delta> = deltas.iter().collect();
    sorted.sort_by(|a, b| a.severity.cmp(&b.severity).then_with(|| a.key.cmp(&b.key)));
    for d in sorted {
        let _ = writeln!(out, "  [{:<11}] {}: {}", d.severity.tag(), d.key, d.detail);
    }
    out
}

/// A gate decision: the full diff plus the count of blocking deltas.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Everything the diff found.
    pub deltas: Vec<Delta>,
    /// Number of regressions among the deltas.
    pub regressions: usize,
    /// Number of drift findings among the deltas.
    pub drifts: usize,
}

impl Verdict {
    /// Whether the gate passes (no regression, no unacknowledged
    /// drift).
    #[must_use]
    pub fn pass(&self) -> bool {
        self.regressions == 0 && self.drifts == 0
    }

    /// Final PASS/FAIL line.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.pass() {
            "PASS: no regressions, no drift".to_string()
        } else {
            format!(
                "FAIL: {} blocking difference(s) ({} regression(s), {} drift(s))",
                self.regressions + self.drifts,
                self.regressions,
                self.drifts
            )
        }
    }
}

/// Run the regression gate: diff `cur` against `base` and classify.
#[must_use]
pub fn gate(base: &Record, cur: &Record, opts: &DiffOptions) -> Verdict {
    let deltas = diff(base, cur, opts);
    let regressions = deltas
        .iter()
        .filter(|d| d.severity == Severity::Regression)
        .count();
    let drifts = deltas
        .iter()
        .filter(|d| d.severity == Severity::Drift)
        .count();
    Verdict {
        deltas,
        regressions,
        drifts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> Record {
        let mut r = Record::new(Kind::Suite);
        r.ts = 1_755_000_000;
        r.note = "canned".into();
        r.env = Env {
            cores: 8,
            threads: 4,
            profile: "release".into(),
        };
        r.times.insert("suite.wall_secs".into(), 0.414548);
        r.times.insert("phase.hb".into(), 0.004872);
        r.counters.insert("hb.edges".into(), 1134);
        r.counters.insert("pointsto.queue_pops".into(), 12677);
        r.percentiles.insert("warm.server_p99_us".into(), 411);
        let mut h = Histogram::new();
        for v in [3u64, 17, 500, 12_345, 700_000] {
            h.record(v);
        }
        r.hists.insert("phase_us.detect".into(), h);
        r.population = Some(Population {
            apps: vec![AppPopulation {
                app: "connectbot".into(),
                digest: "wp:0011223344556677".into(),
                ids: vec!["w:aaaa".into(), "w:bbbb".into()],
            }],
            tallies: BTreeMap::from([("potential".into(), 460), ("after_sound".into(), 127)]),
        });
        r
    }

    #[test]
    fn json_line_round_trips() {
        let r = sample_record();
        let line = r.to_json_line();
        assert!(
            line.starts_with("{\"schema\":\"nadroid-ledger/1\""),
            "{line}"
        );
        let back = parse_record_line(&line).expect("round trip");
        assert_eq!(back, r);
        // And a record without optional sections.
        let empty = Record::new(Kind::Ci);
        let back2 = parse_record_line(&empty.to_json_line()).expect("empty round trip");
        assert_eq!(back2, empty);
    }

    #[test]
    fn diff_of_identical_records_is_empty() {
        let r = sample_record();
        for opts in [
            DiffOptions::default(),
            DiffOptions {
                min_effect: 0.0,
                time_tolerance: 0.0,
                slack_secs: 0.0,
            },
            DiffOptions {
                min_effect: 0.5,
                time_tolerance: 0.1,
                slack_secs: 0.0,
            },
        ] {
            assert!(diff(&r, &r, &opts).is_empty(), "{opts:?}");
        }
    }

    #[test]
    fn under_sampled_tails_inform_but_never_gate() {
        let hist_of = |values: &[u64]| {
            let mut h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h
        };
        let opts = DiffOptions::default();

        // 27 one-shot samples a side (the per-app suite case): a huge
        // p99 move is reported as info — p99 needs 500 samples to gate
        // — and the verdict stays green.
        let mut small = vec![100u64; 26];
        let (mut a, mut b) = (Record::new(Kind::Suite), Record::new(Kind::Suite));
        small.push(300);
        a.hists.insert("lat".into(), hist_of(&small));
        *small.last_mut().unwrap() = 120_000;
        b.hists.insert("lat".into(), hist_of(&small));
        let deltas = diff(&a, &b, &opts);
        assert!(
            deltas
                .iter()
                .all(|d| d.severity == Severity::Info && d.key == "hists.lat.p99"),
            "{deltas:?}"
        );
        assert!(!deltas.is_empty(), "the tail move must still be reported");
        assert!(
            deltas[0].detail.contains("27 sample(s) < 500 needed"),
            "{}",
            deltas[0].detail
        );
        assert!(gate(&a, &b, &opts).pass());

        // With real tail mass (1000 samples) the same relative move is
        // a blocking regression.
        let mut big = vec![100u64; 980];
        big.extend(std::iter::repeat_n(1000u64, 20));
        let (mut a, mut b) = (Record::new(Kind::Suite), Record::new(Kind::Suite));
        a.hists.insert("lat".into(), hist_of(&big));
        for v in big.iter_mut().rev().take(20) {
            *v = 2000;
        }
        b.hists.insert("lat".into(), hist_of(&big));
        let deltas = diff(&a, &b, &opts);
        assert!(
            deltas
                .iter()
                .any(|d| d.severity == Severity::Regression && d.key == "hists.lat.p99"),
            "{deltas:?}"
        );
        assert!(!gate(&a, &b, &opts).pass());
    }

    #[test]
    fn counter_changes_are_exact_drift() {
        let a = sample_record();
        let mut b = a.clone();
        b.counters.insert("hb.edges".into(), 1135);
        let ds = diff(&a, &b, &DiffOptions::default());
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].severity, Severity::Drift);
        assert_eq!(ds[0].key, "counters.hb.edges");
        assert!(ds[0].detail.contains("1134 -> 1135"), "{}", ds[0].detail);
    }

    #[test]
    fn latency_rule_respects_noise_floor() {
        // 411us -> 434us is ~5.6%, inside 6.3% noise + 5% min effect.
        assert!(!latency_changed(411, 434, 0.05));
        // 411us -> 470us is ~14%, outside.
        assert!(latency_changed(411, 470, 0.05));
        // The 1us absolute floor: tiny values never flag on 1us jitter.
        assert!(!latency_changed(3, 4, 0.0));
        assert!(latency_changed(3, 5, 0.0));
        // Symmetric.
        assert_eq!(
            latency_changed(470, 411, 0.05),
            latency_changed(411, 470, 0.05)
        );
    }

    #[test]
    fn time_rule_needs_direction_and_budget() {
        let a = sample_record();
        let mut b = a.clone();
        // 0.414548 * 3 + 0.25 = 1.49; 1.4 is inside budget.
        b.times.insert("suite.wall_secs".into(), 1.4);
        assert!(diff(&a, &b, &DiffOptions::default()).is_empty());
        b.times.insert("suite.wall_secs".into(), 1.6);
        let ds = diff(&a, &b, &DiffOptions::default());
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].severity, Severity::Regression);
        assert_eq!(ds[0].key, "times.suite.wall_secs");
        // And the reverse direction reads as an improvement.
        let ds = diff(&b, &a, &DiffOptions::default());
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].severity, Severity::Improvement);
    }

    #[test]
    fn population_drift_names_the_ids() {
        let a = sample_record();
        let mut b = a.clone();
        let pop = b.population.as_mut().unwrap();
        pop.apps[0].digest = "wp:ffeeddccbbaa9988".into();
        pop.apps[0].ids = vec!["w:aaaa".into(), "w:cccc".into()];
        let ds = diff(&a, &b, &DiffOptions::default());
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].severity, Severity::Drift);
        assert_eq!(ds[0].key, "population.connectbot");
        assert!(ds[0].detail.contains("added [w:cccc]"), "{}", ds[0].detail);
        assert!(
            ds[0].detail.contains("removed [w:bbbb]"),
            "{}",
            ds[0].detail
        );
    }

    #[test]
    fn missing_keys_are_skipped_not_flagged() {
        let a = sample_record();
        let mut b = Record::new(Kind::Ci);
        b.env = a.env.clone();
        b.counters.insert("hb.edges".into(), 1134);
        // b lacks everything else a has; nothing flags.
        assert!(diff(&a, &b, &DiffOptions::default()).is_empty());
    }

    #[test]
    fn env_changes_are_informational() {
        let a = sample_record();
        let mut b = a.clone();
        b.env.threads = 8;
        b.env.profile = "debug".into();
        let ds = diff(&a, &b, &DiffOptions::default());
        assert_eq!(ds.len(), 2, "{ds:?}");
        assert!(ds.iter().all(|d| d.severity == Severity::Info));
        let v = gate(&a, &b, &DiffOptions::default());
        assert!(v.pass(), "env-only differences must not fail the gate");
    }

    #[test]
    fn selectors_resolve() {
        assert_eq!(select(5, "last").unwrap(), 4);
        assert_eq!(select(5, "prev").unwrap(), 3);
        assert_eq!(select(5, "1").unwrap(), 0);
        assert_eq!(select(5, "-2").unwrap(), 3);
        assert!(select(5, "6").is_err());
        assert!(select(5, "0").is_err());
        assert!(select(0, "last").is_err());
        assert!(select(1, "prev").is_err());
        assert!(select(5, "nope").is_err());
    }

    #[test]
    fn append_read_and_gate_through_a_file() {
        let dir = std::env::temp_dir().join(format!("nadroid-ledger-test-{}", std::process::id()));
        let path = dir.join("sub").join("ledger.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        let a = sample_record();
        let mut b = a.clone();
        b.counters.insert("hb.edges".into(), 9999);
        append(&path, &a).unwrap();
        append(&path, &b).unwrap();
        let records = read(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], a);
        let v = gate(
            &records[select(records.len(), "prev").unwrap()],
            &records[select(records.len(), "last").unwrap()],
            &DiffOptions::default(),
        );
        assert!(!v.pass());
        assert_eq!(v.drifts, 1);
        assert!(v.summary().starts_with("FAIL"), "{}", v.summary());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_diff_sorts_regressions_first() {
        let deltas = vec![
            Delta {
                severity: Severity::Info,
                key: "env.threads".into(),
                detail: "1 -> 2".into(),
            },
            Delta {
                severity: Severity::Regression,
                key: "times.suite.wall_secs".into(),
                detail: "0.4s -> 2.0s".into(),
            },
        ];
        let text = render_diff("#1", "#2", &deltas);
        let reg = text.find("[regression").unwrap();
        let info = text.find("[info").unwrap();
        assert!(reg < info, "{text}");
        assert!(render_diff("#1", "#1", &[]).contains("no differences beyond noise"));
    }
}
