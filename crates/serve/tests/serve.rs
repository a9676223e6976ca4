//! End-to-end tests over a real TCP connection: cold/warm round trips,
//! structured deadline timeouts that leave the worker healthy, counter
//! consistency between the `stats` op, the metrics document and the obs
//! recorder, and malformed or mutated protocol lines that must each get
//! one structured answer without harming the connection.

use nadroid_core::{parse_json, JsonValue, Summary};
use nadroid_serve::client::Client;
use nadroid_serve::protocol::{AnalyzeOpts, Request, Response};
use nadroid_serve::server::{ServeConfig, Server};
use nadroid_serve::telemetry::TelemetryConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const CONNECTBOT: &str = include_str!("../../../apps/connectbot.dsl");

fn test_server(workers: usize) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

fn stat(fields: &[(String, u64)], name: &str) -> u64 {
    fields
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("stats field `{name}` missing"))
        .1
}

/// Write one raw request line, adding the newline when it lacks one.
fn send_line(reader: &mut BufReader<TcpStream>, line: &[u8]) {
    let stream = reader.get_mut();
    stream.write_all(line).unwrap();
    if !line.ends_with(b"\n") {
        stream.write_all(b"\n").unwrap();
    }
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut reply = String::new();
    let n = reader.read_line(&mut reply).expect("read response line");
    assert!(n > 0, "server closed the connection");
    Response::decode(reply.trim_end()).expect("response decodes")
}

/// The cache's `(hits, misses)` as the `stats` op, the metrics
/// document's `counters` and the recorder's `serve.cache.*` report
/// them, after checking that all three agree.
fn cache_counts(server: &Server, client: &mut Client) -> (u64, u64) {
    let Response::Stats { fields } = client.stats().unwrap() else {
        panic!("expected stats response");
    };
    let Response::Metrics { json } = client.metrics().unwrap() else {
        panic!("expected metrics response");
    };
    let doc = parse_json(&json).expect("metrics document parses");
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("metrics counter `{name}` missing: {json}"))
    };
    let rec = server.recorder();
    let recorder = (
        rec.counter_value("serve.cache.hits"),
        rec.counter_value("serve.cache.misses"),
    );
    let stats = (stat(&fields, "cache_hits"), stat(&fields, "cache_misses"));
    assert_eq!(stats, recorder, "stats op against the recorder");
    let metrics = (counter("cache_hits"), counter("cache_misses"));
    assert_eq!(metrics, recorder, "metrics document against the recorder");
    recorder
}

/// The pool runs at least one thread, so a 0-worker server would serve
/// while its `stats` report 0 workers: `start` refuses the config
/// before it opens the access log or binds.
#[test]
fn a_server_with_zero_workers_is_refused_before_it_starts() {
    let log =
        std::env::temp_dir().join(format!("nadroid_zero_workers_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let started = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 0,
        telemetry: TelemetryConfig {
            access_log: Some(log.to_string_lossy().into_owned()),
            ..TelemetryConfig::default()
        },
        ..ServeConfig::default()
    });
    let Err(err) = started else {
        panic!("a server with 0 workers started");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert!(!log.exists(), "the refused server opened its access log");
}

#[test]
fn cold_then_warm_round_trip_with_identical_warnings() {
    let server = test_server(2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let cold = client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap();
    let Response::Analyze {
        app,
        cached,
        summary,
        warnings,
        ..
    } = cold
    else {
        panic!("expected analyze response, got {cold:?}");
    };
    assert_eq!(app, "ConnectBot");
    assert!(!cached, "first request must compute");
    assert!(summary.after_unsound >= 1, "ConnectBot plants real UAFs");
    assert!(!warnings.is_empty());
    assert!(warnings.iter().all(|w| w.starts_with("w:")));

    let warm = client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap();
    let Response::Analyze {
        cached: warm_cached,
        warnings: warm_warnings,
        ..
    } = warm
    else {
        panic!("expected analyze response");
    };
    assert!(warm_cached, "second identical request must hit the cache");
    assert_eq!(warnings, warm_warnings, "cache returns the same ids");

    // A different config is a different cache key.
    let k3 = client
        .analyze(
            CONNECTBOT,
            AnalyzeOpts {
                k: 3,
                ..AnalyzeOpts::default()
            },
        )
        .unwrap();
    let Response::Analyze {
        cached: k3_cached, ..
    } = k3
    else {
        panic!("expected analyze response");
    };
    assert!(!k3_cached, "k=3 must not alias the k=2 entry");
}

#[test]
fn explain_is_served_from_cached_provenance() {
    let server = test_server(1);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let Response::Analyze { warnings, .. } =
        client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap()
    else {
        panic!("expected analyze response");
    };
    let id = warnings.first().expect("at least one warning").clone();

    let explained = client
        .explain(CONNECTBOT, Some(&id), AnalyzeOpts::default())
        .unwrap();
    let Response::Explain { cached, text, .. } = explained else {
        panic!("expected explain response, got {explained:?}");
    };
    assert!(cached, "explain after analyze reuses the cached provenance");
    assert!(text.contains(&id));
    assert!(text.contains("filter audit:"), "audit trail present");
    assert!(text.contains("(base fact)"), "derivation tree present");

    // Unknown id renders the same informative note the CLI prints.
    let missing = client
        .explain(
            CONNECTBOT,
            Some("w:ffffffffffffffff"),
            AnalyzeOpts::default(),
        )
        .unwrap();
    let Response::Explain { text, .. } = missing else {
        panic!("expected explain response, got {missing:?}");
    };
    assert!(text.contains("no warning with id"), "{text}");
    assert!(text.contains(&id), "known ids are listed");
}

#[test]
fn confirm_op_round_trips_caches_and_upgrades_provenance() {
    let server = test_server(1);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Prime the cache with a plain analysis: the later confirm must
    // upgrade this entry rather than duplicate it.
    client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap();

    let cold = client.confirm(CONNECTBOT, AnalyzeOpts::default()).unwrap();
    let Response::Confirm { cached, json, .. } = cold else {
        panic!("expected confirm response, got {cold:?}");
    };
    assert!(!cached, "first confirm must run the searches");
    assert!(json.contains("\"schema\": \"nadroid-confirm/1\""), "{json}");
    assert!(json.contains("\"verdict\": \"confirmed\""), "{json}");
    assert!(json.contains("\"schedule\": \""), "{json}");

    let warm = client.confirm(CONNECTBOT, AnalyzeOpts::default()).unwrap();
    let Response::Confirm {
        cached: warm_cached,
        json: warm_json,
        ..
    } = warm
    else {
        panic!("expected confirm response");
    };
    assert!(warm_cached, "second identical confirm must hit the cache");
    assert_eq!(json, warm_json, "cache returns the same document");

    // The upgraded entry now answers explain with verdicts attached.
    let explained = client
        .explain(CONNECTBOT, None, AnalyzeOpts::default())
        .unwrap();
    let Response::Explain { cached, text, .. } = explained else {
        panic!("expected explain response, got {explained:?}");
    };
    assert!(cached, "explain reuses the upgraded cache entry");
    assert!(text.contains("confirmation:"), "{text}");
    assert!(text.contains("witness schedule:"), "{text}");

    // One upgraded entry, not an analyze entry plus a confirm entry.
    let fields = server.stats_fields();
    assert_eq!(stat(&fields, "cache_entries"), 1);
    assert!(stat(&fields, "confirm.confirmed") >= 1);

    // A zero deadline times out structurally instead of caching a
    // partial document, and the worker stays healthy. (`sound_only`
    // changes the cache key, so this one is a genuine cold path.)
    let timed_out = client
        .confirm(
            CONNECTBOT,
            AnalyzeOpts {
                sound_only: true,
                deadline_ms: Some(0),
                ..AnalyzeOpts::default()
            },
        )
        .unwrap();
    assert!(
        matches!(timed_out, Response::DeadlineExceeded { deadline_ms: 0 }),
        "zero deadline must time out, got {timed_out:?}"
    );
    let after = client.confirm(CONNECTBOT, AnalyzeOpts::default()).unwrap();
    assert!(matches!(after, Response::Confirm { cached: true, .. }));
}

#[test]
fn deadline_exceeded_is_structured_and_does_not_poison_the_worker() {
    // One worker: if the timed-out job broke it, the follow-up would
    // hang instead of answering.
    let server = test_server(1);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let timed_out = client
        .analyze(
            CONNECTBOT,
            AnalyzeOpts {
                deadline_ms: Some(0),
                ..AnalyzeOpts::default()
            },
        )
        .unwrap();
    assert!(
        matches!(timed_out, Response::DeadlineExceeded { deadline_ms: 0 }),
        "zero deadline must time out, got {timed_out:?}"
    );

    let after = client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap();
    assert!(
        matches!(after, Response::Analyze { cached: false, .. }),
        "the same worker must still serve fresh work, got {after:?}"
    );

    let fields = server.stats_fields();
    assert_eq!(stat(&fields, "deadline_exceeded"), 1);
    assert_eq!(stat(&fields, "completed"), 1);
}

#[test]
fn stats_op_matches_recorder_counters() {
    let server = test_server(2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap(); // miss
    client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap(); // hit
    client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap(); // hit

    let Response::Stats { fields } = client.stats().unwrap() else {
        panic!("expected stats response");
    };
    assert_eq!(stat(&fields, "cache_hits"), 2);
    assert_eq!(stat(&fields, "cache_misses"), 1);
    assert_eq!(stat(&fields, "completed"), 3);
    // The stats request itself is the 4th.
    assert_eq!(stat(&fields, "requests"), 4);
    assert!(stat(&fields, "cache_bytes") > 0);
    assert_eq!(stat(&fields, "cache_entries"), 1);

    // The obs counters tell the same story as the cache's own ledger.
    let rec = server.recorder();
    assert_eq!(rec.counter_value("serve.cache.hits"), 2);
    assert_eq!(rec.counter_value("serve.cache.misses"), 1);
    assert_eq!(rec.counter_value("serve.completed"), 3);
    assert_eq!(
        rec.counter_value("serve.requests"),
        stat(&fields, "requests")
    );

    // A confirm that lands on an entry `analyze` wrote has to run the
    // searches, so every count calls it a miss; only a confirm that
    // finds the confirmation document is a hit.
    let server = test_server(1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap();
    let first = client.confirm(CONNECTBOT, AnalyzeOpts::default()).unwrap();
    assert!(
        matches!(first, Response::Confirm { cached: false, .. }),
        "{first:?}"
    );
    assert_eq!(cache_counts(&server, &mut client), (0, 2));
    let second = client.confirm(CONNECTBOT, AnalyzeOpts::default()).unwrap();
    assert!(
        matches!(second, Response::Confirm { cached: true, .. }),
        "{second:?}"
    );
    assert_eq!(cache_counts(&server, &mut client), (1, 2));
}

#[test]
fn malformed_requests_get_structured_errors() {
    let server = test_server(1);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let bad_dsl = client.analyze("app {{{", AnalyzeOpts::default()).unwrap();
    let Response::Error { message } = bad_dsl else {
        panic!("expected error, got {bad_dsl:?}");
    };
    assert!(message.contains("parse error"), "{message}");

    // The connection survives a protocol-level error too.
    let bad_line = client
        .request(&Request::Analyze {
            program: String::new(),
            opts: AnalyzeOpts::default(),
        })
        .unwrap();
    assert!(matches!(bad_line, Response::Error { .. }));

    let still_alive = client.analyze(CONNECTBOT, AnalyzeOpts::default()).unwrap();
    assert!(matches!(still_alive, Response::Analyze { .. }));
}

#[test]
fn garbage_lines_get_one_error_each_and_the_connection_keeps_serving() {
    let server = test_server(1);
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream);

    let analyze = Request::Analyze {
        program: CONNECTBOT.to_owned(),
        opts: AnalyzeOpts::default(),
    }
    .encode();
    let garbage: [&[u8]; 3] = [
        b"\xff\xfe\x00garbage\xc3\n",
        &analyze.as_bytes()[..analyze.len() / 2],
        b"{",
    ];
    for line in garbage {
        send_line(&mut reader, line);
        let resp = read_response(&mut reader);
        assert!(
            matches!(resp, Response::Error { .. }),
            "{:?} must get an error, got {resp:?}",
            String::from_utf8_lossy(line)
        );
    }

    send_line(&mut reader, analyze.as_bytes());
    let resp = read_response(&mut reader);
    let Response::Analyze { app, .. } = resp else {
        panic!("expected analyze response, got {resp:?}");
    };
    assert_eq!(app, "ConnectBot");
}

#[test]
fn every_error_response_counts_once_in_stats_metrics_and_the_recorder() {
    let server = test_server(1);
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream);

    // Two lines that never decode, answered on the connection thread,
    // and one that decodes but fails on a worker.
    let analyze = |program: &str| {
        Request::Analyze {
            program: program.to_owned(),
            opts: AnalyzeOpts::default(),
        }
        .encode()
    };
    let (whole, bad_dsl) = (analyze(CONNECTBOT), analyze("app {{{"));
    let lines: [&[u8]; 3] = [
        b"\xff\xfe\x00garbage\xc3",
        &whole.as_bytes()[..whole.len() / 2],
        bad_dsl.as_bytes(),
    ];
    for line in lines {
        send_line(&mut reader, line);
        let resp = read_response(&mut reader);
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
    }

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let Response::Stats { fields } = client.stats().unwrap() else {
        panic!("expected stats response");
    };
    let Response::Metrics { json } = client.metrics().unwrap() else {
        panic!("expected metrics response");
    };
    let metrics = parse_json(&json)
        .expect("metrics document parses")
        .get("counters")
        .and_then(|c| c.get("errors"))
        .and_then(JsonValue::as_u64);
    assert_eq!(stat(&fields, "errors"), 3, "stats op");
    assert_eq!(metrics, Some(3), "metrics counters: {json}");
    assert_eq!(server.recorder().counter_value("serve.errors"), 3);
}

#[test]
fn a_deeply_nested_line_gets_one_error_and_the_connection_keeps_serving() {
    let server = test_server(1);
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream);

    // An unbounded recursive descent overflows the connection thread's
    // stack on this line and aborts the whole process.
    send_line(&mut reader, "[".repeat(200_000).as_bytes());
    let resp = read_response(&mut reader);
    let Response::Error { message } = resp else {
        panic!("expected an error, got {resp:?}");
    };
    assert!(message.starts_with("nesting deeper than"), "{message}");

    // The next line on the same connection gets its own answer, so the
    // nested line got exactly one.
    send_line(&mut reader, Request::Stats.encode().as_bytes());
    let resp = read_response(&mut reader);
    let Response::Stats { fields } = resp else {
        panic!("expected stats response, got {resp:?}");
    };
    assert_eq!(stat(&fields, "requests"), 2);
}

/// One line for every request op and one for every response variant
/// (so every status), each plain ASCII.
fn codec_lines() -> Vec<String> {
    let program = "app X\nactivity M {\n  field f: M\n  cb onCreate { f = new M }\n  \
                   cb onClick { use f }\n  cb onPause { f = null }\n}\n";
    let opts = AnalyzeOpts {
        k: 3,
        sound_only: true,
        deadline_ms: Some(250),
    };
    let requests = [
        Request::Analyze {
            program: program.into(),
            opts: opts.clone(),
        },
        Request::Explain {
            program: program.into(),
            id: Some("w:0011223344556677".into()),
            opts: opts.clone(),
        },
        Request::Confirm {
            program: program.into(),
            opts,
        },
        Request::Stats,
        Request::Metrics,
        Request::Shutdown,
    ];
    let summary = Summary {
        loc: 10,
        ec: 2,
        pc: 1,
        threads: 3,
        potential: 5,
        after_sound: 2,
        after_unsound: 1,
        refuted: 0,
        after_refutation: 1,
    };
    let responses = [
        Response::Analyze {
            app: "X".into(),
            cached: true,
            micros: 42,
            summary,
            warnings: vec!["w:0011223344556677".into()],
        },
        Response::Explain {
            cached: false,
            micros: 9,
            text: "warning w:0011223344556677\n  field: f\n".into(),
        },
        Response::Confirm {
            cached: true,
            micros: 77,
            json: "{\"schema\":\"nadroid-confirm/1\",\"tally\":{\"confirmed\":1}}".into(),
        },
        Response::Stats {
            fields: vec![("cache_hits".into(), 3), ("requests".into(), 4)],
        },
        Response::Metrics {
            json: "{\"schema\":\"nadroid-serve-metrics/1\",\"counters\":{}}".into(),
        },
        Response::Shutdown,
        Response::Rejected { retry_after_ms: 50 },
        Response::DeadlineExceeded { deadline_ms: 100 },
        Response::Error {
            message: "parse error: line 3".into(),
        },
    ];
    let lines: Vec<String> = requests
        .iter()
        .map(Request::encode)
        .chain(
            responses
                .iter()
                .map(|r| r.encode_with_request_id("r0000002a")),
        )
        .collect();
    assert!(lines.iter().all(|l| l.is_ascii()), "{lines:?}");
    lines
}

/// Every truncation of every codec line, then `FLIPS` single-bit flips
/// per line at seeded positions. Flipping one of the low seven bits
/// keeps a byte ASCII, so every mutant is still a `&str`.
fn mutated_lines() -> Vec<String> {
    const FLIPS: usize = 64;
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = Vec::new();
    for line in codec_lines() {
        out.extend((0..line.len()).map(|end| line[..end].to_owned()));
        for _ in 0..FLIPS {
            let mut bytes = line.clone().into_bytes();
            let at = usize::try_from(next() % bytes.len() as u64).unwrap();
            bytes[at] ^= 1 << (next() % 7);
            out.push(String::from_utf8(bytes).expect("ASCII stays UTF-8"));
        }
    }
    out
}

#[test]
fn mutated_protocol_lines_decode_without_panicking_and_get_one_response_each() {
    let mutants = mutated_lines();
    // Both decoders must return, error or not, on every mutant.
    for line in &mutants {
        let _ = Request::decode(line);
        let _ = Response::decode(line);
    }

    // A sample goes over the wire. A blank line gets no answer and a
    // line holding a newline is two lines, so those stay local, as do
    // mutants still read as `shutdown`.
    let server = test_server(1);
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream);
    let sent: Vec<&String> = mutants
        .iter()
        .step_by(37)
        .filter(|l| !l.trim().is_empty() && !l.contains('\n'))
        .filter(|l| !matches!(Request::decode(l), Ok(Request::Shutdown)))
        .collect();
    assert!(sent.len() >= 20, "only {} mutants sent", sent.len());
    for line in &sent {
        send_line(&mut reader, line.as_bytes());
        let resp = read_response(&mut reader);
        if Request::decode(line).is_err() {
            assert!(
                matches!(resp, Response::Error { .. }),
                "{line:?} must get an error, got {resp:?}"
            );
        }
    }
    // Exactly one answer each: the next line's answer is its own.
    send_line(&mut reader, Request::Stats.encode().as_bytes());
    let resp = read_response(&mut reader);
    let Response::Stats { fields } = resp else {
        panic!("expected stats response, got {resp:?}");
    };
    assert_eq!(stat(&fields, "requests"), sent.len() as u64 + 1);
}

#[test]
fn shutdown_is_acknowledged_and_stops_the_server() {
    let mut server = test_server(1);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(client.shutdown().unwrap(), Response::Shutdown));
    // run_until_shutdown returns promptly once the flag is set.
    let fields = server.run_until_shutdown();
    assert_eq!(stat(&fields, "requests"), 1);
}
