//! The analysis server: a TCP accept loop in front of a [`Pool`] of
//! analysis workers and a shared [`ResultCache`].
//!
//! Request lifecycle:
//!
//! 1. A connection thread decodes one `nadroid-serve/1` line.
//! 2. `stats`/`metrics`/`shutdown` are answered inline (they never
//!    touch the solver). `analyze`/`explain`/`confirm` are wrapped into
//!    a job and offered to the pool; a full queue is answered
//!    `rejected` immediately — admission control, not buffering.
//! 3. On a worker, the job first consults the content-addressed cache
//!    (warm path: a lookup and a reference-count bump). It is a hit
//!    only when the entry holds what the job needs: a `confirm` needs
//!    the confirmation document, which `analyze` never computes. On a
//!    miss it installs the request's [`CancelToken`] and runs the full
//!    pipeline (plus, for `confirm`, the schedule synthesis); a
//!    deadline firing unwinds at the next solver checkpoint, is caught
//!    at the job boundary, and becomes a structured
//!    `deadline_exceeded` response — the worker thread survives.
//!
//! Every stage reports through [`nadroid_obs`]: per-request spans,
//! `serve.*` counters, and queue-depth/inflight/cache-bytes gauges.
//! The `serve.*` counters on the shared recorder are the only copy of
//! the request and cache counts; `stats` and `metrics` read them.

use crate::cache::{CacheKey, CachedResult, ResultCache};
use crate::pool::{Pool, Submit};
use crate::protocol::{AnalyzeOpts, Request, Response};
use crate::telemetry::{RequestEvent, Telemetry, TelemetryConfig};
use nadroid_core::{
    analyze, render_explain_from_json, render_provenance_json_with, AnalysisConfig,
};
use nadroid_detector::warning_id;
use nadroid_ir::parse_program;
use nadroid_obs::{self as obs, cancel::CancelToken, Recorder};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Analysis worker threads; [`Server::start`] refuses 0.
    pub workers: usize,
    /// Requested inner analysis threads per worker (the `--threads`
    /// flag). The effective value is clamped so that
    /// `workers x threads` never exceeds the machine's cores — see
    /// [`ServeConfig::effective_threads`]. Results are byte-identical
    /// at every value, so the clamp never changes a response.
    pub threads: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Submission-queue bound; past it requests are rejected.
    pub queue_cap: usize,
    /// Deadline applied when a request carries none (`None` = no limit).
    pub default_deadline_ms: Option<u64>,
    /// Backoff suggested to rejected clients.
    pub retry_after_ms: u64,
    /// Access log / slow capture / sampling knobs.
    pub telemetry: TelemetryConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7911".to_owned(),
            workers: 4,
            threads: 1,
            cache_bytes: 64 << 20,
            queue_cap: 16,
            default_deadline_ms: None,
            retry_after_ms: 50,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl ServeConfig {
    /// The inner thread count each worker actually runs with: the
    /// requested `threads`, clamped so the pool's total concurrency
    /// (`workers x threads`) stays within the machine's core budget.
    /// Admission control already bounds the number of jobs in flight;
    /// this keeps inner parallelism from oversubscribing beneath it.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let per_worker = cores / self.workers.max(1);
        self.threads.max(1).min(per_worker.max(1))
    }
}

struct Shared {
    cfg: ServeConfig,
    cache: Mutex<ResultCache>,
    recorder: Recorder,
    pool: Pool,
    telemetry: Telemetry,
    stopping: Arc<AtomicBool>,
}

/// Per-request context minted on the connection thread and carried into
/// the worker: the request id and (once a worker picks the job up) the
/// time the job spent queued.
struct ReqCtx {
    id: String,
    queue_us: u64,
}

/// A running analysis service. Dropping it shuts the service down.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

fn micros_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn config_for(opts: &AnalyzeOpts, threads: usize) -> AnalysisConfig {
    let mut cfg = AnalysisConfig {
        k: opts.k,
        threads,
        ..AnalysisConfig::default()
    };
    if opts.sound_only {
        cfg.unsound_filters.clear();
    }
    cfg
}

/// Record per-phase latency histograms from one analysis's phase
/// timings (`serve.phase.*`, microseconds), into whatever recorder the
/// calling thread has installed.
fn record_phase_hists(timings: &nadroid_core::PhaseTimings) {
    let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
    obs::hist("serve.phase.hb", us(timings.hb));
    obs::hist("serve.phase.pointsto", us(timings.pointsto));
    obs::hist("serve.phase.escape", us(timings.escape));
    obs::hist("serve.phase.detect", us(timings.detect));
    obs::hist("serve.phase.filter", us(timings.filtering));
}

/// The telemetry outcome label for a response.
fn outcome_of(resp: &Response) -> &'static str {
    match resp {
        Response::Analyze { cached, .. }
        | Response::Explain { cached, .. }
        | Response::Confirm { cached, .. } => {
            if *cached {
                "hit"
            } else {
                "miss"
            }
        }
        Response::Stats { .. } | Response::Metrics { .. } | Response::Shutdown => "ok",
        Response::Rejected { .. } => "rejected",
        Response::DeadlineExceeded { .. } => "deadline",
        Response::Error { .. } => "error",
    }
}

/// The three endpoints that consult the cache. They share one
/// fetch-or-compute path and differ in what they need from an entry
/// and in how they render it.
enum Job {
    Analyze,
    /// Explain one warning id, or every warning.
    Explain(Option<String>),
    Confirm,
}

impl Job {
    /// The endpoint label of telemetry and the access log.
    fn endpoint(&self) -> &'static str {
        match self {
            Job::Analyze => "analyze",
            Job::Explain(_) => "explain",
            Job::Confirm => "confirm",
        }
    }

    /// Whether the job needs the entry's confirmation document.
    fn confirms(&self) -> bool {
        matches!(self, Job::Confirm)
    }

    /// The response to this job, from an entry that holds what it needs.
    fn respond(&self, result: &CachedResult, cached: bool, micros: u64) -> Response {
        match self {
            Job::Analyze => Response::Analyze {
                app: result.app.clone(),
                cached,
                micros,
                summary: result.summary,
                warnings: result.warning_ids.clone(),
            },
            Job::Explain(id) => {
                match render_explain_from_json(&result.provenance_json, id.as_deref()) {
                    Ok(text) => Response::Explain {
                        cached,
                        micros,
                        text,
                    },
                    Err(message) => Response::Error { message },
                }
            }
            Job::Confirm => Response::Confirm {
                cached,
                micros,
                json: result
                    .confirm_json
                    .clone()
                    .expect("a confirm lookup only returns confirmed entries"),
            },
        }
    }
}

// The `Err` of these fetch-or-compute helpers *is* the ready-to-send
// failure `Response`; it only exists on the cold path, where one enum's
// worth of stack is immaterial next to a pipeline run.
#[allow(clippy::result_large_err)]
impl Shared {
    /// Fetch-or-compute the cache entry for `(source, opts)` under a
    /// precomputed `(config, key)` pair. A lookup is a hit only when the
    /// entry holds what the job needs: a confirm that finds an entry
    /// `analyze` wrote is a miss, and its result *upgrades* that entry
    /// in place (confirmation filled in, provenance re-rendered with
    /// verdicts), so later explain queries see the verdicts for free.
    /// `Ok` carries `(result, came_from_cache)`; `Err` is a ready-to-send
    /// failure response.
    fn fetch_or_compute(
        &self,
        source: &str,
        opts: &AnalyzeOpts,
        config: &AnalysisConfig,
        key: CacheKey,
        confirm: bool,
        rid: &str,
    ) -> Result<(Arc<CachedResult>, bool), Response> {
        let entry = self.cache.lock().expect("cache lock").get(&key);
        if let Some(hit) = entry.filter(|e| !confirm || e.confirm_json.is_some()) {
            obs::counter("serve.cache.hits", 1);
            return Ok((hit, true));
        }
        obs::counter("serve.cache.misses", 1);
        let result = self.compute(source, opts, config, confirm, rid)?;
        let mut cache = self.cache.lock().expect("cache lock");
        let before = cache.stats().evictions;
        let result = cache.insert(key, result);
        let evicted = cache.stats().evictions - before;
        if evicted > 0 {
            obs::counter("serve.cache.evictions", evicted);
        }
        obs::gauge("serve.cache.bytes", cache.bytes() as u64);
        Ok((result, false))
    }

    /// The cold path: parse, run the pipeline under the request's
    /// cancel token (and, for a confirm, the schedule synthesis over
    /// every survivor), and package everything a response (or a later
    /// `explain`) needs. A deadline firing mid-sweep is *not* cached:
    /// partial verdicts ("cancelled before the search ran") must never
    /// be served as the app's confirmation.
    fn compute(
        &self,
        source: &str,
        opts: &AnalyzeOpts,
        config: &AnalysisConfig,
        confirm: bool,
        rid: &str,
    ) -> Result<CachedResult, Response> {
        let deadline_ms = opts.deadline_ms.or(self.cfg.default_deadline_ms);
        let deadline = || Response::DeadlineExceeded {
            deadline_ms: deadline_ms.unwrap_or(0),
        };
        // The request id rides the token: a cancellation observed deep
        // in a solver loop stays attributable to this request.
        let token = match deadline_ms {
            Some(ms) => CancelToken::with_deadline_tagged(Duration::from_millis(ms), rid),
            None => CancelToken::tagged(rid),
        };
        let program = parse_program(source).map_err(|e| Response::Error {
            message: format!("parse error: {e}"),
        })?;
        // A zero (or already-elapsed) deadline must not reach the
        // solver at all.
        if token.is_cancelled() {
            return Err(deadline());
        }
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _scope = token.install();
            let _span = obs::span(if confirm {
                "serve.confirm"
            } else {
                "serve.analyze"
            });
            let analysis = analyze(&program, config);
            record_phase_hists(analysis.timings());
            let confirmed = confirm.then(|| {
                let cfg = nadroid_confirm::ConfirmConfig::default();
                nadroid_confirm::confirm_survivors(&analysis, &cfg)
            });
            let mut provenances = analysis.warning_provenances();
            if let Some(outcome) = &confirmed {
                nadroid_confirm::attach_confirmations(&mut provenances, outcome);
            }
            let warning_ids = analysis
                .survivors()
                .iter()
                .map(|w| warning_id(&program, analysis.threads(), w))
                .collect();
            CachedResult {
                app: program.name().to_owned(),
                summary: analysis.summary(),
                warning_ids,
                provenance_json: render_provenance_json_with(&analysis, &provenances),
                confirm_json: confirmed
                    .map(|outcome| nadroid_confirm::render_confirm_json(&analysis, &outcome)),
                compute_micros: 0,
            }
        }));
        match outcome {
            // A should_stop() observed between per-warning searches
            // returns normally with placeholder verdicts; surface the
            // deadline instead of caching them.
            Ok(_) if confirm && token.is_cancelled() => Err(deadline()),
            Ok(mut result) => {
                result.compute_micros = micros_since(t);
                Ok(result)
            }
            Err(payload) if obs::cancel::was_cancelled(&*payload) => Err(deadline()),
            Err(_) => Err(Response::Error {
                message: if confirm {
                    "confirmation panicked"
                } else {
                    "analysis panicked"
                }
                .to_owned(),
            }),
        }
    }

    fn handle(&self, job: &Job, source: &str, opts: &AnalyzeOpts, ctx: &ReqCtx) -> Response {
        let t = Instant::now();
        let config = config_for(opts, self.cfg.effective_threads());
        let key = CacheKey::of(source, &config);
        // When slow capture is armed, the whole computation records into
        // a per-request recorder so a slow request's span tree can be
        // serialized on its own; the metrics fold back into the shared
        // recorder afterwards (`merge_from` — spans stay per-request).
        let capture = self.telemetry.capture_enabled().then(Recorder::new);
        let outcome = {
            let _guard = capture.as_ref().map(Recorder::install);
            let _span = obs::span("serve.request");
            self.fetch_or_compute(source, opts, &config, key, job.confirms(), &ctx.id)
        };
        // One clock read feeds both the response's `micros` and the
        // telemetry `service_us`, so client- and server-side latency
        // distributions are comparable sample for sample.
        let micros = micros_since(t);
        let resp = match outcome {
            Ok((result, cached)) => job.respond(&result, cached, micros),
            Err(resp) => resp,
        };
        self.account(&resp);
        self.observe(ctx, job.endpoint(), &resp, micros, Some(key));
        self.finish_capture(ctx, capture.as_ref(), micros);
        resp
    }

    /// Record one finished request into the telemetry hub.
    fn observe(
        &self,
        ctx: &ReqCtx,
        endpoint: &str,
        resp: &Response,
        service_us: u64,
        cache_key: Option<CacheKey>,
    ) {
        self.telemetry.observe(&RequestEvent {
            id: &ctx.id,
            endpoint,
            outcome: outcome_of(resp),
            queue_us: ctx.queue_us,
            service_us,
            cache_key,
            threads: self.cfg.effective_threads(),
        });
    }

    /// Fold a per-request capture recorder back into the shared one and
    /// serialize its span tree when the request crossed the slow
    /// threshold.
    fn finish_capture(&self, ctx: &ReqCtx, capture: Option<&Recorder>, service_us: u64) {
        if let Some(rec) = capture {
            self.recorder.merge_from(rec);
            if self.telemetry.is_slow(service_us) {
                let _ = self
                    .telemetry
                    .write_slow_trace(&ctx.id, &rec.chrome_trace());
            }
        }
    }

    /// Count a finished job's response, or an error response however it
    /// arose: every `Response::Error` lands in `serve.errors` once.
    fn account(&self, resp: &Response) {
        let name = match resp {
            Response::DeadlineExceeded { .. } => "serve.deadline_exceeded",
            Response::Error { .. } => "serve.errors",
            _ => "serve.completed",
        };
        obs::counter(name, 1);
    }

    /// Every count here is read from the shared recorder, the one place
    /// the server keeps them: the `stats` op, the metrics document and
    /// the `serve.*` counters cannot disagree.
    fn stats_fields(&self) -> Vec<(String, u64)> {
        let (cache_bytes, cache_entries) = {
            let cache = self.cache.lock().expect("cache lock");
            (cache.bytes() as u64, cache.entries() as u64)
        };
        let f = |name: &str, value: u64| (name.to_owned(), value);
        let counter = |name: &str| self.recorder.counter_value(name);
        // Both fields count the same accepted lines, from one counter.
        let requests = counter("serve.requests");
        vec![
            f("requests", requests),
            f("requests_total", requests),
            f("uptime_secs", self.telemetry.uptime_secs()),
            f("completed", counter("serve.completed")),
            f("rejected", counter("serve.rejected")),
            f("deadline_exceeded", counter("serve.deadline_exceeded")),
            f("errors", counter("serve.errors")),
            f("cache_hits", counter("serve.cache.hits")),
            f("cache_misses", counter("serve.cache.misses")),
            f("cache_evictions", counter("serve.cache.evictions")),
            f("cache_bytes", cache_bytes),
            f("cache_entries", cache_entries),
            f("queue_depth", self.pool.queue_depth()),
            f("inflight", self.pool.inflight()),
            f("workers", self.cfg.workers as u64),
            // Inner analysis parallelism: the clamped value each worker
            // runs with, plus the raw request so operators can see when
            // the core budget reduced it.
            f("threads", self.cfg.effective_threads() as u64),
            f("threads_requested", self.cfg.threads.max(1) as u64),
            // HB-graph aggregates across every analysis the workers ran
            // (worker threads install the shared recorder, so the hb.*
            // counters accumulate here).
            f("hb.edges", counter("hb.edges")),
            f("hb.closure_micros", counter("hb.closure_micros")),
            f("detector.mhp_prepruned", counter("detector.mhp_prepruned")),
            // Confirmation verdict counters, accumulated across every
            // confirm request the workers ran (shared recorder again).
            f("confirm.confirmed", counter("confirm.confirmed")),
            f("confirm.unconfirmed", counter("confirm.unconfirmed")),
            f("confirm.infeasible", counter("confirm.infeasible")),
            f("confirm.states", counter("confirm.states")),
        ]
    }

    /// Render the `nadroid-serve-metrics/1` document: the stats
    /// counters, rolling rps / error-rate windows, and every histogram
    /// on the shared recorder (per-endpoint latency, queue wait, solver
    /// phases) with percentile readouts and full bucket detail.
    fn metrics_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"nadroid-serve-metrics/1\",\"ts\":{},\"uptime_secs\":{},\"requests_total\":{}",
            Telemetry::epoch_secs(),
            self.telemetry.uptime_secs(),
            self.recorder.counter_value("serve.requests")
        );
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.stats_fields().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{v}", nadroid_core::esc(k));
        }
        out.push_str("},\"windows\":{");
        for (i, (secs, rps, error_rate)) in self.telemetry.window_rates().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"rps_{secs}s\":{rps:.3},\"error_rate_{secs}s\":{error_rate:.4}"
            );
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.recorder.histograms().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"total_us\":{},\"p50_us\":{},\"p90_us\":{},\
                 \"p95_us\":{},\"p99_us\":{},\"max_us\":{},\"buckets\":[",
                nadroid_core::esc(name),
                h.count(),
                h.total(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.95),
                h.percentile(0.99),
                h.max()
            );
            for (j, (lo, hi, c)) in h.buckets().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lo},{hi},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

impl Server {
    /// Bind `cfg.addr` and start accepting connections.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidInput`] when `cfg.workers`
    /// is 0, before anything is opened, bound or spawned; otherwise the
    /// bind error when the address is unavailable, or the open error
    /// for a configured access log.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        if cfg.workers == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a server needs at least one worker",
            ));
        }
        // Cancellation unwinds are routine here; keep them off stderr.
        obs::cancel::install_quiet_hook();
        let telemetry = Telemetry::new(&cfg.telemetry)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let recorder = Recorder::new();
        let stopping = Arc::new(AtomicBool::new(false));
        let pool = {
            let recorder = recorder.clone();
            Pool::new(cfg.workers, cfg.queue_cap, move || {
                Box::new(recorder.install())
            })
        };
        let shared = Arc::new(Shared {
            cache: Mutex::new(ResultCache::new(cfg.cache_bytes)),
            recorder,
            pool,
            telemetry,
            stopping: Arc::clone(&stopping),
            cfg,
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("nadroid-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");

        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The recorder all request spans and `serve.*` metrics feed.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// Current counters, as served by the `stats` op.
    #[must_use]
    pub fn stats_fields(&self) -> Vec<(String, u64)> {
        self.shared.stats_fields()
    }

    /// The `nadroid-serve-metrics/1` document, as served by the
    /// `metrics` op.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.shared.metrics_json()
    }

    /// Request a graceful shutdown: stop accepting, drain queued work.
    pub fn shutdown(&self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
    }

    /// Wait for the accept loop and all workers to finish.
    pub fn join(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.shared.pool.shutdown();
        self.shared.pool.join();
    }

    /// Block until a `shutdown` request (or [`Server::shutdown`]) lands,
    /// then drain and return the final counters. The CLI's `serve` mode.
    pub fn run_until_shutdown(&mut self) -> Vec<(String, u64)> {
        while !self.shared.stopping.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.join();
        self.shared.stats_fields()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("nadroid-serve-conn".to_owned())
                    .spawn(move || serve_connection(stream, &shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _installed = shared.recorder.install();
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return, // client closed
            Ok(_) => {}
        }
        // A line that is not UTF-8 has still been consumed whole, so it
        // is answered like any other malformed request and the
        // connection keeps serving.
        let line = match std::str::from_utf8(&buf) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => Ok(line.trim_end()),
            Err(e) => Err(format!("request line is not valid UTF-8: {e}")),
        };
        obs::counter("serve.requests", 1);
        // Mint the request id at accept time; every path below echoes
        // it back in the response envelope.
        let rid = shared.telemetry.next_id();
        let t = Instant::now();
        let inline = |sh: &Shared, endpoint: &str, resp: Response| {
            sh.observe(
                &ReqCtx {
                    id: rid.clone(),
                    queue_us: 0,
                },
                endpoint,
                &resp,
                micros_since(t),
                None,
            );
            resp
        };
        let response = match line.and_then(Request::decode) {
            Err(message) => {
                let resp = Response::Error { message };
                shared.account(&resp);
                inline(shared, "unknown", resp)
            }
            Ok(Request::Stats) => {
                let resp = Response::Stats {
                    fields: shared.stats_fields(),
                };
                inline(shared, "stats", resp)
            }
            Ok(Request::Metrics) => {
                let resp = Response::Metrics {
                    json: shared.metrics_json(),
                };
                inline(shared, "metrics", resp)
            }
            Ok(Request::Shutdown) => {
                let resp = inline(shared, "shutdown", Response::Shutdown);
                let _ = write_response(reader.get_mut(), &resp, &rid);
                shared.stopping.store(true, Ordering::SeqCst);
                return;
            }
            Ok(Request::Analyze { program, opts }) => {
                dispatch(shared, Job::Analyze, program, opts, rid.clone())
            }
            Ok(Request::Explain { program, id, opts }) => {
                dispatch(shared, Job::Explain(id), program, opts, rid.clone())
            }
            Ok(Request::Confirm { program, opts }) => {
                dispatch(shared, Job::Confirm, program, opts, rid.clone())
            }
        };
        if write_response(reader.get_mut(), &response, &rid).is_err() {
            return;
        }
    }
}

/// Offer a compute job to the pool and wait for its reply; a full queue
/// becomes an immediate `rejected` without blocking the connection. The
/// job clocks its own queue wait: the gap between submission here and a
/// worker actually picking it up.
fn dispatch(
    shared: &Arc<Shared>,
    job: Job,
    program: String,
    opts: AnalyzeOpts,
    rid: String,
) -> Response {
    let endpoint = job.endpoint();
    let (tx, rx) = mpsc::channel::<Response>();
    let job_shared = Arc::clone(shared);
    let job_rid = rid.clone();
    let submitted_at = Instant::now();
    let work = Box::new(move || {
        let ctx = ReqCtx {
            id: job_rid,
            queue_us: micros_since(submitted_at),
        };
        let _ = tx.send(job_shared.handle(&job, &program, &opts, &ctx));
    });
    let submitted = shared.pool.try_submit(work);
    obs::gauge("serve.queue_depth", shared.pool.queue_depth());
    obs::gauge("serve.inflight", shared.pool.inflight());
    match submitted {
        Submit::Accepted => rx.recv().unwrap_or_else(|_| {
            let resp = Response::Error {
                message: "worker dropped the reply".to_owned(),
            };
            shared.account(&resp);
            resp
        }),
        Submit::Full(_) => {
            obs::counter("serve.rejected", 1);
            let resp = Response::Rejected {
                retry_after_ms: shared.cfg.retry_after_ms,
            };
            shared.observe(
                &ReqCtx {
                    id: rid,
                    queue_us: 0,
                },
                endpoint,
                &resp,
                micros_since(submitted_at),
                None,
            );
            resp
        }
    }
}

fn write_response(stream: &mut TcpStream, response: &Response, rid: &str) -> std::io::Result<()> {
    let mut line = response.encode_with_request_id(rid);
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}
