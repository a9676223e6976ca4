//! End-to-end telemetry tests over a real TCP connection: request-id
//! echo, the `metrics` exposition document, the JSONL access log, and
//! forced slow-request capture (`slow_us = 0`).

use nadroid_core::{parse_json, JsonValue};
use nadroid_serve::client::Client;
use nadroid_serve::protocol::{AnalyzeOpts, Response};
use nadroid_serve::server::{ServeConfig, Server};
use nadroid_serve::telemetry::TelemetryConfig;

const CONNECTBOT: &str = include_str!("../../../apps/connectbot.dsl");

fn test_server(telemetry: TelemetryConfig) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        telemetry,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nadroid_{}_{}", name, std::process::id()));
    if dir.exists() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn every_response_echoes_a_monotonic_request_id() {
    let server = test_server(TelemetryConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(client.last_request_id(), None, "no response yet");

    client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap();
    let first = client.last_request_id().expect("id echoed").to_owned();
    assert!(first.starts_with('r'), "{first}");

    client.stats().unwrap();
    let second = client.last_request_id().expect("id echoed").to_owned();
    assert!(second > first, "ids are monotonic: {first} then {second}");

    client.metrics().unwrap();
    assert!(client.last_request_id().expect("id echoed") > second.as_str());
}

#[test]
fn metrics_op_exposes_per_endpoint_histograms_and_windows() {
    let server = test_server(TelemetryConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap(); // miss
    client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap(); // hit

    // The analyze entry holds no provenance: the first explain derives
    // it, and the second reads it.
    for _ in 0..2 {
        client
            .explain(CONNECTBOT, None, AnalyzeOpts::default())
            .unwrap(); // miss, then hit
    }

    let Response::Metrics { json } = client.metrics().unwrap() else {
        panic!("expected metrics response");
    };
    let doc = parse_json(&json).expect("metrics document parses");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("nadroid-serve-metrics/1")
    );
    let ts = doc.get("ts").and_then(JsonValue::as_u64).expect("ts field");
    assert!(ts > 1_500_000_000, "ts is wall-clock epoch seconds: {ts}");
    assert_eq!(
        doc.get("requests_total").and_then(JsonValue::as_u64),
        Some(5),
        "4 analyses/explains + this metrics request"
    );
    let counters = doc.get("counters").expect("counters section");
    assert_eq!(
        counters.get("cache_hits").and_then(JsonValue::as_u64),
        Some(2)
    );
    assert_eq!(
        counters.get("cache_misses").and_then(JsonValue::as_u64),
        Some(2)
    );

    let windows = doc.get("windows").expect("windows section");
    for key in [
        "rps_1s",
        "rps_10s",
        "rps_60s",
        "error_rate_1s",
        "error_rate_60s",
    ] {
        assert!(windows.get(key).is_some(), "window `{key}` missing: {json}");
    }
    // All five requests landed within the last minute.
    let rps_60 = windows.get("rps_60s").and_then(JsonValue::as_f64).unwrap();
    assert!(rps_60 > 0.0, "rps_60s must see the traffic: {rps_60}");

    let hists = doc.get("histograms").expect("histograms section");
    for name in [
        "serve.latency.analyze.miss",
        "serve.latency.analyze.hit",
        "serve.latency.explain.miss",
        "serve.latency.explain.hit",
        "serve.queue_wait.analyze",
        "serve.phase.hb",
        "serve.phase.pointsto",
        "serve.phase.detect",
    ] {
        let h = hists
            .get(name)
            .unwrap_or_else(|| panic!("histogram `{name}` missing: {json}"));
        assert!(h.get("count").and_then(JsonValue::as_u64).unwrap() >= 1);
        for field in ["p50_us", "p90_us", "p95_us", "p99_us", "max_us", "buckets"] {
            assert!(h.get(field).is_some(), "`{name}` lacks `{field}`");
        }
    }
    // Each miss histogram holds exactly its one cold request, so its
    // percentiles collapse onto that sample's bucket.
    for name in ["serve.latency.analyze.miss", "serve.latency.explain.miss"] {
        let miss = hists.get(name).unwrap();
        assert_eq!(miss.get("count").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            miss.get("p50_us").and_then(JsonValue::as_u64),
            miss.get("p99_us").and_then(JsonValue::as_u64)
        );
    }
}

#[test]
fn access_log_and_forced_slow_capture_produce_parseable_artifacts() {
    let dir = temp_dir("telemetry_e2e");
    let log = dir.join("access.jsonl");
    let server = test_server(TelemetryConfig {
        access_log: Some(log.to_string_lossy().into_owned()),
        slow_us: Some(0), // every computed request counts as slow
        log_sample: 1,
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap();
    let slow_id = client.last_request_id().expect("id echoed").to_owned();
    client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap();
    client.stats().unwrap();

    // Three JSONL lines, every one parseable, ids matching the echoes.
    let text = std::fs::read_to_string(&log).expect("access log exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one line per request:\n{text}");
    for line in &lines {
        let v = parse_json(line).expect("access log line parses");
        for key in [
            "id",
            "endpoint",
            "outcome",
            "queue_us",
            "service_us",
            "threads",
        ] {
            assert!(v.get(key).is_some(), "access line lacks `{key}`: {line}");
        }
    }
    let outcomes: Vec<String> = lines
        .iter()
        .map(|l| {
            parse_json(l)
                .unwrap()
                .get("outcome")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_owned()
        })
        .collect();
    assert_eq!(outcomes, ["miss", "hit", "ok"], "{text}");

    // slow_us = 0 forces capture: the cold request's span tree landed
    // next to the access log and is valid trace JSON.
    let trace = dir.join(format!("slow-{slow_id}.trace.json"));
    let body = std::fs::read_to_string(&trace)
        .unwrap_or_else(|e| panic!("slow trace {} missing: {e}", trace.display()));
    let doc = parse_json(&body).expect("slow trace parses");
    assert!(doc.get("traceEvents").is_some(), "{body}");
    assert!(body.contains("serve.analyze"), "span tree captured: {body}");

    // Capture isolates spans per request, but the shared recorder still
    // aggregates the metrics (merge_from folds them back).
    assert!(server.recorder().counter_value("serve.cache.misses") >= 1);
    assert!(server
        .recorder()
        .histogram("serve.latency.analyze.miss")
        .is_some());
}

/// Every request records into a recorder of its own, with or without a
/// slow threshold, and the shared recorder ends up holding all of it:
/// each request's `serve.request` span, each computed request's
/// pipeline spans nested inside it on one renumbered thread, one
/// `serve.phase.*` sample per computed request, and a `serve.cache.bytes`
/// gauge that follows the cache down after an eviction.
#[test]
fn the_shared_recorder_holds_every_request_with_or_without_a_slow_threshold() {
    let dir = temp_dir("shared_recorder");
    for slow_us in [None, Some(0)] {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            // Room for one analyze-only ConnectBot entry (212 bytes plus
            // the app name) but not two, so the second miss evicts.
            cache_bytes: 400,
            telemetry: TelemetryConfig {
                access_log: Some(dir.join("access.jsonl").to_string_lossy().into_owned()),
                slow_us,
                log_sample: 1,
            },
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let long = CONNECTBOT.replacen("app ConnectBot", "app ConnectBotUnderALongerName", 1);
        let short = CONNECTBOT.replacen("app ConnectBot", "app C", 1);
        client.analyze(&long, AnalyzeOpts::default()).unwrap(); // miss
        client.analyze(&long, AnalyzeOpts::default()).unwrap(); // hit
        client.analyze(&short, AnalyzeOpts::default()).unwrap(); // miss, evicts

        let rec = server.recorder();
        let spans = rec.spans();
        let named = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
        let requests = named("serve.request");
        assert_eq!(requests.len(), 3, "{slow_us:?}: {spans:?}");
        let analyses = named("analyze");
        assert_eq!(analyses.len(), 2, "{slow_us:?}: {spans:?}");
        for a in &analyses {
            assert!(
                requests.iter().any(|r| r.tid == a.tid
                    && r.start_us <= a.start_us
                    && a.start_us + a.dur_us <= r.start_us + r.dur_us),
                "{slow_us:?}: analyze {a:?} outside its request"
            );
        }
        for phase in [
            "modeling",
            "hb",
            "hb.closure",
            "detection",
            "pointsto",
            "escape",
            "detect",
            "filtering",
        ] {
            assert_eq!(named(phase).len(), 2, "{slow_us:?}: {phase}");
        }
        for hist in ["serve.phase.hb", "serve.phase.detect", "serve.phase.filter"] {
            assert_eq!(
                rec.histogram(hist).map(|h| h.count()),
                Some(2),
                "{slow_us:?}: {hist}"
            );
        }

        let Response::Stats { fields } = client.stats().unwrap() else {
            panic!("expected stats response");
        };
        let stat = |name: &str| fields.iter().find(|(n, _)| n == name).unwrap().1;
        assert_eq!(stat("cache_evictions"), 1, "{slow_us:?}");
        let gauge = rec
            .gauges()
            .into_iter()
            .find(|(n, _)| n == "serve.cache.bytes")
            .map(|(_, v)| v);
        assert_eq!(gauge, Some(stat("cache_bytes")), "{slow_us:?}");
    }
}
