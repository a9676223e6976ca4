//! Serve round trip: start the analysis service on an ephemeral port,
//! submit the ConnectBot model twice, and print the stable warning ids
//! — the second request is answered from the content-addressed cache.
//!
//! Run with `cargo run --example serve_roundtrip`.

use nadroid::serve::client::Client;
use nadroid::serve::protocol::{AnalyzeOpts, Response};
use nadroid::serve::server::{ServeConfig, Server};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Port 0 = ephemeral: no collisions, works anywhere.
    let mut server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })?;
    let addr = server.local_addr();
    println!("serving on {addr}");

    let program =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/apps/connectbot.dsl"))?;
    let mut client = Client::connect(addr)?;

    for round in ["cold", "warm"] {
        match client.analyze(&program, AnalyzeOpts::default()) {
            Ok(Response::Analyze {
                app,
                cached,
                micros,
                summary,
                warnings,
            }) => {
                println!(
                    "{round}: {app} in {micros} us (cached: {cached}) — \
                     {} survivors of {} potential pairs",
                    summary.after_unsound, summary.potential
                );
                for id in &warnings {
                    println!("  {id}");
                }
            }
            other => return Err(format!("unexpected response: {other:?}").into()),
        }
    }

    // An `analyze` entry holds no provenance, so the first `explain`
    // derives it and upgrades the entry; the second is a lookup.
    for round in ["cold", "warm"] {
        if let Ok(Response::Explain { cached, text, .. }) =
            client.explain(&program, None, AnalyzeOpts::default())
        {
            assert_eq!(cached, round == "warm", "explain {round}");
            let first_line = text.lines().next().unwrap_or("");
            println!("explain {round} (cached: {cached}): {first_line} ...");
        }
    }

    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    server.run_until_shutdown();
    Ok(())
}
