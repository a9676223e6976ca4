//! Per-request production telemetry for the serving layer.
//!
//! Everything here is *attribution* machinery — the data an operator
//! needs to explain a p99 outlier after the fact:
//!
//! - **Request ids** ([`Telemetry::next_id`]): a monotonic sequence
//!   minted at accept time (`r` + 8 hex digits), echoed in every
//!   response line as `request_id`, threaded through the worker and
//!   the cancel token, and used to name slow-request trace files.
//! - **Latency histograms**: every completed request records its
//!   service time into `serve.latency.<endpoint>.<outcome>` and its
//!   queue wait into `serve.queue_wait.<endpoint>` (log-bucketed
//!   [`nadroid_obs::hist`] histograms on the server's shared
//!   recorder), exposed by the `metrics` op.
//! - **Rolling windows**: per-second request/error rings aggregated
//!   into 1s/10s/60s rps and error-rate readouts.
//! - **Access log**: one JSONL line per (sampled) request — id,
//!   endpoint, outcome, queue/service micros, cache key, threads.
//! - **Slow-request capture**: when a request's service time crosses
//!   the configured threshold, its full obs span tree is serialized as
//!   `slow-<id>.trace.json` next to the access log.

use crate::cache::CacheKey;
use nadroid_obs as obs;
use std::io;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Telemetry knobs, carried inside `ServeConfig`.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// JSONL access-log path (`serve --access-log`); `None` disables
    /// the log (histograms and windows still record).
    pub access_log: Option<String>,
    /// Service-time threshold in microseconds at which a request's span
    /// tree is written as a slow trace (`serve --slow-us`); `None`
    /// writes none. `Some(0)` writes one for every request a worker
    /// handles.
    pub slow_us: Option<u64>,
    /// Log every `n`-th request (`serve --log-sample`); 0 and 1 both
    /// mean every request. Sampling applies to the access log only —
    /// histograms and windows always see every request.
    pub log_sample: u64,
}

/// One request's outcome, as reported to [`Telemetry::observe`].
#[derive(Debug)]
pub struct RequestEvent<'a> {
    /// The request id minted at accept time.
    pub id: &'a str,
    /// `analyze` / `explain` / `confirm` / `stats` / `metrics` /
    /// `shutdown` / `unknown`.
    pub endpoint: &'a str,
    /// `hit` / `miss` / `rejected` / `deadline` / `error` / `ok`.
    pub outcome: &'a str,
    /// Micros between pool submission and a worker picking the job up
    /// (0 for inline-answered requests).
    pub queue_us: u64,
    /// Micros the server spent handling the request.
    pub service_us: u64,
    /// The content-addressed cache key, for requests that consulted
    /// the cache.
    pub cache_key: Option<CacheKey>,
    /// Effective inner analysis threads.
    pub threads: usize,
}

const WINDOW_SLOTS: usize = 61;

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    second: u64,
    requests: u64,
    errors: u64,
}

/// A ring of per-second buckets covering the last 60 seconds. Writes
/// re-stamp a slot when its second has rolled over, so the ring never
/// needs a background sweeper.
#[derive(Debug)]
struct Windows {
    slots: [Slot; WINDOW_SLOTS],
}

impl Windows {
    fn new() -> Windows {
        Windows {
            slots: [Slot::default(); WINDOW_SLOTS],
        }
    }

    fn bump(&mut self, sec: u64, error: bool) {
        #[allow(clippy::cast_possible_truncation)]
        let slot = &mut self.slots[(sec % WINDOW_SLOTS as u64) as usize];
        if slot.second != sec {
            *slot = Slot {
                second: sec,
                requests: 0,
                errors: 0,
            };
        }
        slot.requests += 1;
        if error {
            slot.errors += 1;
        }
    }

    /// `(rps, error_rate)` over the trailing `window` seconds ending
    /// at `now_sec` (inclusive of the current partial second).
    fn rate(&self, now_sec: u64, window: u64) -> (f64, f64) {
        let (mut requests, mut errors) = (0u64, 0u64);
        for s in &self.slots {
            if s.requests > 0 && s.second <= now_sec && now_sec - s.second < window {
                requests += s.requests;
                errors += s.errors;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let rps = requests as f64 / window.max(1) as f64;
        #[allow(clippy::cast_precision_loss)]
        let error_rate = if requests > 0 {
            errors as f64 / requests as f64
        } else {
            0.0
        };
        (rps, error_rate)
    }
}

/// The server's telemetry hub: id mint, rolling windows, access-log
/// sink, and slow-capture policy. One per [`crate::server::Server`].
#[derive(Debug)]
pub struct Telemetry {
    started: Instant,
    seq: AtomicU64,
    slow_us: Option<u64>,
    log_sample: u64,
    log_seq: AtomicU64,
    sink: Option<Mutex<io::BufWriter<std::fs::File>>>,
    trace_dir: PathBuf,
    windows: Mutex<Windows>,
}

impl Telemetry {
    /// Build the hub; opens (creates/truncates) the access log when one
    /// is configured.
    ///
    /// # Errors
    ///
    /// Propagates the access-log open failure.
    pub fn new(cfg: &TelemetryConfig) -> io::Result<Telemetry> {
        let trace_dir = cfg
            .access_log
            .as_deref()
            .and_then(|p| {
                let parent = std::path::Path::new(p).parent()?;
                (!parent.as_os_str().is_empty()).then(|| parent.to_path_buf())
            })
            .unwrap_or_else(|| PathBuf::from("."));
        let sink = match cfg.access_log.as_deref() {
            Some(path) => Some(Mutex::new(io::BufWriter::new(std::fs::File::create(path)?))),
            None => None,
        };
        Ok(Telemetry {
            started: Instant::now(),
            seq: AtomicU64::new(0),
            slow_us: cfg.slow_us,
            log_sample: cfg.log_sample.max(1),
            log_seq: AtomicU64::new(0),
            sink,
            trace_dir,
            windows: Mutex::new(Windows::new()),
        })
    }

    /// Mint the next request id: `r` + 8 lowercase hex digits of a
    /// monotonic per-server sequence (filename-safe — slow traces are
    /// named after it).
    pub fn next_id(&self) -> String {
        let n = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        format!("r{n:08x}")
    }

    /// Whole seconds since the server started.
    #[must_use]
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Current wall clock as epoch seconds — the `ts` field of
    /// access-log lines and the `metrics` document, so serve telemetry
    /// can be correlated with the run ledger and logs from other
    /// processes (uptime alone cannot be).
    #[must_use]
    pub fn epoch_secs() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    }

    /// Whether a request with this service time crosses the slow
    /// threshold.
    #[must_use]
    pub fn is_slow(&self, service_us: u64) -> bool {
        self.slow_us.is_some_and(|t| service_us >= t)
    }

    /// Record one finished request: latency + queue-wait histograms
    /// (into the recorder installed on the calling thread), the
    /// rolling windows, and a (sampled) access-log line.
    pub fn observe(&self, ev: &RequestEvent<'_>) {
        obs::hist(
            &format!("serve.latency.{}.{}", ev.endpoint, ev.outcome),
            ev.service_us,
        );
        obs::hist(&format!("serve.queue_wait.{}", ev.endpoint), ev.queue_us);
        let error = matches!(ev.outcome, "error" | "rejected" | "deadline");
        let sec = self.started.elapsed().as_secs();
        self.windows.lock().expect("windows lock").bump(sec, error);
        if let Some(sink) = &self.sink {
            let n = self.log_seq.fetch_add(1, Ordering::Relaxed);
            if n.is_multiple_of(self.log_sample) {
                let mut line = format!(
                    "{{\"id\":\"{}\",\"ts\":{},\"endpoint\":\"{}\",\"outcome\":\"{}\",\
                     \"queue_us\":{},\"service_us\":{}",
                    ev.id,
                    Telemetry::epoch_secs(),
                    ev.endpoint,
                    ev.outcome,
                    ev.queue_us,
                    ev.service_us
                );
                if let Some(key) = ev.cache_key {
                    use std::fmt::Write as _;
                    let _ = write!(
                        line,
                        ",\"program_hash\":\"{:016x}\",\"config_hash\":\"{:016x}\"",
                        key.program_hash, key.config_hash
                    );
                }
                use std::fmt::Write as _;
                let _ = write!(line, ",\"threads\":{}}}", ev.threads);
                let mut w = sink.lock().expect("access log lock");
                let _ = writeln!(w, "{line}");
                let _ = w.flush();
            }
        }
    }

    /// `(window_secs, rps, error_rate)` for the 1s/10s/60s windows.
    #[must_use]
    pub fn window_rates(&self) -> [(u64, f64, f64); 3] {
        let now = self.started.elapsed().as_secs();
        let windows = self.windows.lock().expect("windows lock");
        [1u64, 10, 60].map(|w| {
            let (rps, er) = windows.rate(now, w);
            (w, rps, er)
        })
    }

    /// Serialize a slow request's trace next to the access log (or the
    /// working directory) as `slow-<id>.trace.json`; returns the path
    /// written.
    pub fn write_slow_trace(&self, id: &str, trace_json: &str) -> Option<PathBuf> {
        let path = self.trace_dir.join(format!("slow-{id}.trace.json"));
        std::fs::write(&path, trace_json).ok()?;
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub(cfg: &TelemetryConfig) -> Telemetry {
        Telemetry::new(cfg).expect("telemetry hub")
    }

    #[test]
    fn ids_are_monotonic_and_filename_safe() {
        let t = hub(&TelemetryConfig::default());
        let a = t.next_id();
        let b = t.next_id();
        assert_eq!(a, "r00000001");
        assert_eq!(b, "r00000002");
        assert!(a.chars().all(|c| c.is_ascii_alphanumeric()));
    }

    #[test]
    fn slow_policy_follows_slow_us() {
        let off = hub(&TelemetryConfig::default());
        assert!(!off.is_slow(u64::MAX));
        let on = hub(&TelemetryConfig {
            slow_us: Some(1000),
            ..TelemetryConfig::default()
        });
        assert!(on.is_slow(1000));
        assert!(!on.is_slow(999));
    }

    #[test]
    fn windows_roll_and_rate() {
        let mut w = Windows::new();
        for _ in 0..30 {
            w.bump(5, false);
        }
        w.bump(5, true);
        let (rps, er) = w.rate(5, 1);
        assert!((rps - 31.0).abs() < 1e-9);
        assert!((er - 1.0 / 31.0).abs() < 1e-9);
        // Ten seconds later the same counts average over the window…
        let (rps10, _) = w.rate(5, 10);
        assert!((rps10 - 3.1).abs() < 1e-9);
        // …and a slot re-stamped after the ring wraps drops the old data.
        w.bump(5 + WINDOW_SLOTS as u64, false);
        let (rps_new, _) = w.rate(5 + WINDOW_SLOTS as u64, 1);
        assert!((rps_new - 1.0).abs() < 1e-9);
    }

    #[test]
    fn access_log_lines_are_jsonl_and_sampled() {
        let dir = std::env::temp_dir().join("nadroid_telemetry_log");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("access.jsonl");
        let t = hub(&TelemetryConfig {
            access_log: Some(log.to_string_lossy().into_owned()),
            slow_us: None,
            log_sample: 2,
        });
        for i in 0..4u64 {
            let id = t.next_id();
            t.observe(&RequestEvent {
                id: &id,
                endpoint: "analyze",
                outcome: if i == 3 { "error" } else { "miss" },
                queue_us: 10 + i,
                service_us: 100 + i,
                cache_key: Some(CacheKey {
                    program_hash: 0xdead_beef,
                    config_hash: 7,
                }),
                threads: 2,
            });
        }
        let text = std::fs::read_to_string(&log).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "sample=2 logs every other request:\n{text}");
        for line in &lines {
            let v = nadroid_core::parse_json(line).expect("access log line parses");
            assert!(v.get("id").is_some());
            // Wall-clock stamp, correlating the line with ledger
            // records and other processes' logs.
            let ts = v
                .get("ts")
                .and_then(nadroid_core::JsonValue::as_u64)
                .expect("ts field");
            assert!(ts > 1_500_000_000, "epoch seconds, not uptime: {ts}");
            assert_eq!(
                v.get("endpoint").and_then(nadroid_core::JsonValue::as_str),
                Some("analyze")
            );
            assert_eq!(
                v.get("program_hash")
                    .and_then(nadroid_core::JsonValue::as_str),
                Some("00000000deadbeef")
            );
        }
        // Histograms and windows saw all four requests, not just the
        // sampled two.
        let rates = t.window_rates();
        assert!(
            (rates[0].1 - 4.0).abs() < 1e-9,
            "rps_1s counts all: {rates:?}"
        );
    }

    #[test]
    fn slow_trace_lands_next_to_the_access_log() {
        let dir = std::env::temp_dir().join("nadroid_telemetry_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("access.jsonl");
        let t = hub(&TelemetryConfig {
            access_log: Some(log.to_string_lossy().into_owned()),
            slow_us: Some(0),
            log_sample: 1,
        });
        let path = t
            .write_slow_trace("r0000002a", "{\"traceEvents\": []}\n")
            .expect("trace written");
        assert_eq!(path.parent(), log.parent());
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .contains("r0000002a"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(nadroid_core::parse_json(&body).is_ok());
    }
}
