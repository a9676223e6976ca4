//! Load generator for `nadroid serve`: replay the 27-app Table 1 corpus
//! against an in-process server, cold then warm, from N concurrent
//! clients — and write `BENCH_serve.json` at the repo root. Each pass
//! sends every app [`ROUNDS`] times under distinct app names, so every
//! latency series holds at least 100 samples and its p99 is not simply
//! its largest sample.
//!
//! Measured quantities:
//!
//! - **client latency** (wall µs around each round trip, per pass):
//!   p50/p95/p99 and throughput, computed with the same log-bucketed
//!   [`Histogram`] the server uses (relative error ≤ 1/32);
//! - **server handling time** (the `micros` field of each response):
//!   for the warm pass this is the cache-lookup cost — the
//!   "warm requests in microseconds" claim;
//! - **server-side distributions** from the `metrics` op: per-endpoint
//!   latency and queue-wait percentiles as the server itself saw them;
//! - **cache hit rate** from the server's `stats` op;
//! - **ConnectBot cold vs warm**: the gate. The warm request must be at
//!   least 20× faster (server handling time) than the cold solve, or
//!   the binary exits nonzero.
//!
//! Two self-checks also gate the run:
//!
//! 1. warm `client_p50 >= server_p50` — a round trip can never be
//!    faster than the handling time it contains;
//! 2. the `serve.latency.analyze.miss` percentiles reported by the
//!    `metrics` op must **exactly** equal a histogram this bench builds
//!    from the cold responses' `micros` fields. The server records the
//!    same value it echoes, into the same histogram implementation, so
//!    any drift means the telemetry plumbing is lying.
//!
//! `BENCH_serve.json` is one `nadroid-ledger/1` record of kind
//! `serve_bench` (all latencies in microseconds, with the host
//! fingerprint in `env`), also appended to `Result/ledger.jsonl`; its
//! keys are listed in the "Run ledger & perf gate" section of
//! `docs/observability.md`. Derived ratios — throughput, hit rate, the
//! ConnectBot speedup — are printed, not stored.
//!
//! Run with `cargo run --release -p nadroid-bench --bin serve_bench`
//! (`--concurrency <N>`, `--out <file>`).

use nadroid_bench::measure::commit_bench_record;
use nadroid_core::{parse_json, JsonValue};
use nadroid_corpus::{generate, spec_for, table1_rows};
use nadroid_ir::print_program;
use nadroid_ledger::{Kind, Record};
use nadroid_obs::Histogram;
use nadroid_serve::client::Client;
use nadroid_serve::protocol::{AnalyzeOpts, Request, Response};
use nadroid_serve::server::{ServeConfig, Server};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How many times a pass sends each app, renamed each time after the
/// first so that every send of the cold pass misses the cache: 4 × 27
/// apps gives every client and server series at least 100 samples.
const ROUNDS: usize = 4;

/// One request's measurement.
#[derive(Debug)]
struct Sample {
    app: usize,
    client_us: u64,
    server_us: u64,
    cached: bool,
}

fn hist_of<I: IntoIterator<Item = u64>>(values: I) -> Histogram {
    let mut h = Histogram::new();
    for v in values {
        h.record(v);
    }
    h
}

/// Send every program once across `concurrency` client connections.
fn run_pass(
    addr: std::net::SocketAddr,
    programs: &Arc<Vec<String>>,
    concurrency: usize,
) -> (Vec<Sample>, f64) {
    let next = Arc::new(AtomicUsize::new(0));
    let samples = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..concurrency.max(1) {
            let next = Arc::clone(&next);
            let samples = Arc::clone(&samples);
            let programs = Arc::clone(programs);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect to bench server");
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(program) = programs.get(i) else {
                        break;
                    };
                    let req = Request::Analyze {
                        program: program.clone(),
                        opts: AnalyzeOpts::default(),
                    };
                    let t = Instant::now();
                    let resp = client
                        .request_with_retry(&req, 1000)
                        .expect("analyze request");
                    let client_us = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
                    let Response::Analyze { micros, cached, .. } = resp else {
                        panic!("unexpected response for app {i}: {resp:?}");
                    };
                    samples.lock().expect("samples lock").push(Sample {
                        app: i,
                        client_us,
                        server_us: micros,
                        cached,
                    });
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let samples = Arc::try_unwrap(samples)
        .expect("all threads joined")
        .into_inner()
        .expect("samples lock");
    (samples, wall)
}

/// Record one pass: request count, wall seconds, and client/server
/// latency percentiles. Returns the pass throughput for the summary.
fn record_pass(rec: &mut Record, label: &str, samples: &[Sample], wall_secs: f64) -> f64 {
    rec.counters
        .insert(format!("{label}.requests"), samples.len() as u64);
    rec.times.insert(format!("{label}.wall_secs"), wall_secs);
    for (side, h) in [
        ("client", hist_of(samples.iter().map(|s| s.client_us))),
        ("server", hist_of(samples.iter().map(|s| s.server_us))),
    ] {
        for (p, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            rec.percentiles
                .insert(format!("{label}.{side}_{p}_us"), h.percentile(q));
        }
    }
    if wall_secs > 0.0 {
        samples.len() as f64 / wall_secs
    } else {
        0.0
    }
}

/// Pull `count`/percentile fields for one histogram series out of the
/// parsed `nadroid-serve-metrics/1` document.
fn series_stats(metrics: &JsonValue, name: &str) -> Option<(u64, u64, u64, u64, u64)> {
    let h = metrics.get("histograms")?.get(name)?;
    let f = |k: &str| h.get(k).and_then(JsonValue::as_u64);
    Some((
        f("count")?,
        f("p50_us")?,
        f("p95_us")?,
        f("p99_us")?,
        f("max_us")?,
    ))
}

/// Record the server's own per-endpoint distributions from the
/// `metrics` op.
fn record_server(rec: &mut Record, metrics: &JsonValue) {
    for name in [
        "serve.latency.analyze.miss",
        "serve.latency.analyze.hit",
        "serve.queue_wait.analyze",
    ] {
        let (count, p50, p95, p99, max) = series_stats(metrics, name)
            .unwrap_or_else(|| panic!("metrics series `{name}` missing"));
        rec.counters.insert(format!("{name}.count"), count);
        for (p, v) in [
            ("p50_us", p50),
            ("p95_us", p95),
            ("p99_us", p99),
            ("max_us", max),
        ] {
            rec.percentiles.insert(format!("{name}.{p}"), v);
        }
    }
}

fn main() {
    let mut concurrency = 4usize;
    let mut out_path = "BENCH_serve.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--concurrency" => {
                concurrency = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--concurrency <N>");
            }
            "--out" => out_path = args.next().expect("--out <file>"),
            other => panic!("unknown argument `{other}`"),
        }
    }

    let rows = table1_rows();
    let texts: Vec<String> = rows
        .iter()
        .map(|row| print_program(&generate(&spec_for(row)).program))
        .collect();
    let programs: Arc<Vec<String>> = Arc::new(
        (0..ROUNDS)
            .flat_map(|round| {
                texts.iter().map(move |text| {
                    if round == 0 {
                        return text.clone();
                    }
                    let (head, body) = text.split_once('\n').expect("a printed app has lines");
                    format!("{head}_{round}\n{body}")
                })
            })
            .collect(),
    );
    // Round 0 keeps each app's own name, so this is ConnectBot itself.
    let connectbot = rows
        .iter()
        .position(|r| r.name.eq_ignore_ascii_case("connectbot"))
        .expect("ConnectBot row in the corpus");

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: concurrency.max(1),
        queue_cap: concurrency.max(1) * 4,
        ..ServeConfig::default()
    })
    .expect("start bench server");
    let addr = server.local_addr();

    eprintln!(
        "serve_bench: {} apps × {ROUNDS} rounds, concurrency {concurrency}, server {addr}",
        rows.len()
    );
    let (cold, cold_wall) = run_pass(addr, &programs, concurrency);
    assert!(
        cold.iter().all(|s| !s.cached),
        "first pass must be all cache misses"
    );
    let (warm, warm_wall) = run_pass(addr, &programs, concurrency);
    assert!(
        warm.iter().all(|s| s.cached),
        "second pass must be all cache hits"
    );

    let (stats, metrics) = {
        let mut client = Client::connect(addr).expect("connect");
        let Response::Stats { fields } = client.stats().expect("stats op") else {
            panic!("expected stats response");
        };
        let Response::Metrics { json } = client.metrics().expect("metrics op") else {
            panic!("expected metrics response");
        };
        let _ = client.shutdown();
        let metrics = parse_json(&json).expect("metrics document parses");
        (fields, metrics)
    };
    let stat = |name: &str| stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
    let hits = stat("cache_hits");
    let lookups = hits + stat("cache_misses");
    let hit_rate = if lookups > 0 {
        hits as f64 / lookups as f64
    } else {
        0.0
    };

    let cb_cold = cold
        .iter()
        .find(|s| s.app == connectbot)
        .expect("connectbot cold sample")
        .server_us;
    let cb_warm = warm
        .iter()
        .find(|s| s.app == connectbot)
        .expect("connectbot warm sample")
        .server_us;
    let speedup = cb_cold as f64 / (cb_warm.max(1)) as f64;

    let mut rec = Record::new(Kind::ServeBench);
    rec.note = format!("serve_bench --concurrency {concurrency}");
    // Serve latencies are only comparable across runs when the thread
    // config is on record: the server's effective inner threads.
    rec.env.threads = stat("threads");
    rec.counters.insert("apps".into(), rows.len() as u64);
    rec.counters
        .insert("concurrency".into(), concurrency as u64);
    rec.counters.insert("workers".into(), stat("workers"));
    let cold_rps = record_pass(&mut rec, "cold", &cold, cold_wall);
    let warm_rps = record_pass(&mut rec, "warm", &warm, warm_wall);
    record_server(&mut rec, &metrics);
    for k in [
        "cache_bytes",
        "cache_entries",
        "cache_evictions",
        "rejected",
    ] {
        rec.counters.insert(k.into(), stat(k));
    }
    rec.percentiles.insert("connectbot.cold_us".into(), cb_cold);
    rec.percentiles.insert("connectbot.warm_us".into(), cb_warm);
    if let Err(e) = commit_bench_record(&rec, Path::new(&out_path)) {
        eprintln!("serve_bench: {e}");
        std::process::exit(1);
    }

    let cold_server = hist_of(cold.iter().map(|s| s.server_us));
    let warm_client = hist_of(warm.iter().map(|s| s.client_us));
    let warm_server = hist_of(warm.iter().map(|s| s.server_us));
    eprintln!(
        "serve_bench: cold p50 {}us ({cold_rps:.2} req/s), warm p50 {}us ({warm_rps:.2} req/s), \
         hit rate {:.0}%, connectbot {cb_cold}us -> {cb_warm}us ({speedup:.0}x)",
        cold_server.percentile(0.5),
        warm_server.percentile(0.5),
        hit_rate * 100.0
    );

    let mut failed = false;
    if speedup < 20.0 {
        eprintln!(
            "serve_bench: FAIL — warm ConnectBot only {speedup:.1}x faster than cold (< 20x)"
        );
        failed = true;
    }

    // Self-check 1: a round trip contains the handling time it reports.
    let (cp50, sp50) = (warm_client.percentile(0.5), warm_server.percentile(0.5));
    if cp50 < sp50 {
        eprintln!("serve_bench: FAIL — warm client_p50 {cp50}us < server_p50 {sp50}us");
        failed = true;
    }

    // Self-check 2: the server's own `serve.latency.analyze.miss`
    // histogram must agree exactly with one rebuilt from the cold
    // responses — same samples, same histogram implementation.
    let (count, p50, p95, p99, max) = series_stats(&metrics, "serve.latency.analyze.miss")
        .expect("metrics exposes serve.latency.analyze.miss");
    let want = (
        cold_server.count(),
        cold_server.percentile(0.50),
        cold_server.percentile(0.95),
        cold_server.percentile(0.99),
        cold_server.max(),
    );
    if (count, p50, p95, p99, max) != want {
        eprintln!(
            "serve_bench: FAIL — metrics analyze.miss (count {count}, p50 {p50}, p95 {p95}, p99 {p99}, max {max}) \
             != bench-side {want:?}"
        );
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
}
