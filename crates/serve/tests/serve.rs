//! End-to-end tests over a real TCP connection: cold/warm round trips,
//! structured deadline timeouts that leave the worker healthy, and
//! counter consistency between the `stats` op and the obs recorder.

use nadroid_serve::client::Client;
use nadroid_serve::protocol::{AnalyzeOpts, Request, Response};
use nadroid_serve::server::{ServeConfig, Server};

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
    let Response::Analyze { cached: k3_cached, .. } = k3 else {
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
        .explain(CONNECTBOT, Some("w:ffffffffffffffff"), AnalyzeOpts::default())
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
    use std::io::{BufRead, BufReader, Write};

    fn read_response(reader: &mut BufReader<std::net::TcpStream>) -> Response {
        let mut reply = String::new();
        let n = reader.read_line(&mut reply).expect("read response line");
        assert!(n > 0, "server closed the connection");
        Response::decode(reply.trim_end()).expect("response decodes")
    }

    let server = test_server(1);
    let stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
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
        let stream = reader.get_mut();
        stream.write_all(line).unwrap();
        if !line.ends_with(b"\n") {
            stream.write_all(b"\n").unwrap();
        }
        let resp = read_response(&mut reader);
        assert!(
            matches!(resp, Response::Error { .. }),
            "{:?} must get an error, got {resp:?}",
            String::from_utf8_lossy(line)
        );
    }

    let stream = reader.get_mut();
    stream.write_all(analyze.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let resp = read_response(&mut reader);
    let Response::Analyze { app, .. } = resp else {
        panic!("expected analyze response, got {resp:?}");
    };
    assert_eq!(app, "ConnectBot");
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
