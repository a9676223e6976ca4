//! The serving workload, `serve_mixed`.
//!
//! An in-process `nadroid-serve` server with one worker of one analysis
//! thread, driven as a closed loop by one client connection: the client
//! sends its next `analyze` request when the previous response arrives.
//! One request in five is a miss, a paper app under a name no earlier
//! request used, so a new cache key; the four hits after it repeat the
//! texts of the client's last four misses, so every miss is hit four
//! times. Misses write the cache and hits read it, so a gain on one path
//! that costs the other shows here.
//!
//! The benchmark process is pinned to one CPU, and the server's threads
//! share it with the client: the speed samples taken while the server
//! works on a request measure the CPU that does the work, no hand-off
//! between client and server waits for another CPU to wake, and one
//! client keeps the load within that CPU.
//!
//! The benchmark speaks the protocol itself (`Request::encode`, a line
//! on the socket, `Response::decode`) so that codec time and the round
//! trip can be told apart.

use crate::inputs::{self, Counts};
use crate::speed;
use crate::stats::{self, Tail};
use crate::trace::{Profile, Tracer};
use crate::{Opts, Outcome, MIN_PASSES, SETUPS};
use nadroid_core::{parse_json, JsonValue};
use nadroid_serve::protocol::{AnalyzeOpts, Request, Response};
use nadroid_serve::server::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const WORKERS: usize = 1;
/// Hits after each miss; they target the client's last this-many
/// misses, which the cache's LRU budget always still holds.
const HITS_PER_MISS: usize = 4;

/// A generated paper app whose printed text misses rename, for a new
/// cache key each.
struct Template {
    ident: String,
    body: String,
    expected: Counts,
}

/// A request's kind: the paper app it sends, and whether it is a hit.
type Kind = (usize, bool);

/// One request as the oracle checks it.
struct Req {
    text: String,
    expected: Counts,
    kind: Kind,
}

/// The client's seeded request sequence.
struct Plan<'a> {
    templates: &'a [Template],
    seed: u64,
    sent: usize,
    cycles: u64,
    /// This cycle's misses still to send, last first, with their app.
    queue: Vec<(usize, &'a Template)>,
    recent: VecDeque<Req>,
}

impl<'a> Plan<'a> {
    fn new(templates: &'a [Template], seed: u64) -> Self {
        Plan {
            templates,
            seed,
            sent: 0,
            cycles: 0,
            queue: Vec::new(),
            recent: VecDeque::new(),
        }
    }

    /// Requests in one cycle: every app missed once, each miss followed
    /// by its hits.
    fn cycle_len(&self) -> usize {
        self.templates.len() * (HITS_PER_MISS + 1)
    }

    fn next(&mut self) -> Req {
        self.sent += 1;
        let slot = (self.sent - 1) % (HITS_PER_MISS + 1);
        if slot != 0 {
            // Newest miss first; before four misses exist, the oldest.
            let miss = &self.recent[self.recent.len().saturating_sub(slot)];
            return Req {
                text: miss.text.clone(),
                expected: miss.expected,
                kind: (miss.kind.0, true),
            };
        }
        // A cycle misses every app once, in a seeded order, and runs end
        // on a cycle boundary: each run draws the same mix of apps.
        if self.queue.is_empty() {
            let mut rng =
                StdRng::seed_from_u64(self.seed ^ self.cycles.wrapping_mul(0x2545_f491_4f6c_dd1d));
            self.cycles += 1;
            let mut order: Vec<usize> = (0..self.templates.len()).collect();
            order.shuffle(&mut rng);
            self.queue = order
                .into_iter()
                .map(|app| (app, &self.templates[app]))
                .collect();
        }
        let (app, t) = self.queue.pop().expect("refilled above");
        let miss = Req {
            text: format!("app {}_{}\n{}", t.ident, self.sent, t.body),
            expected: t.expected,
            kind: (app, false),
        };
        if self.recent.len() == HITS_PER_MISS {
            self.recent.pop_front();
        }
        self.recent.push_back(Req {
            text: miss.text.clone(),
            ..miss
        });
        miss
    }
}

/// Every paper app, and the corrected time taken.
fn templates(seed: u64, smoke: bool) -> (f64, Vec<Template>) {
    let mut secs = 0.0;
    let templates = inputs::paper_specs(seed, smoke)
        .iter()
        .map(|spec| {
            let (t, template) = speed::time(|| {
                let (generated, app) = inputs::build(spec);
                let body = app.text.split_once('\n').map_or("", |(_, b)| b).to_owned();
                Template {
                    ident: generated.program.name().to_owned(),
                    body,
                    expected: app.expected,
                }
            });
            secs += t.secs;
            template
        })
        .collect();
    (secs, templates)
}

/// What the client saw in one phase.
#[derive(Default)]
struct Log {
    /// Each request's kind and corrected round-trip time in ms.
    requests: Vec<(Kind, f64)>,
    /// Summed raw round-trip time.
    raw: Duration,
    service_us: u64,
    hits: usize,
}

impl Log {
    /// Each request's latency taken as the median latency of its kind
    /// over the phase, as the pass workloads take each item's median
    /// over passes.
    fn typical_ms(&self) -> Vec<f64> {
        let mut by_kind: HashMap<Kind, Vec<f64>> = HashMap::new();
        for (kind, ms) in &self.requests {
            by_kind.entry(*kind).or_default().push(*ms);
        }
        let medians: HashMap<Kind, f64> = by_kind
            .into_iter()
            .map(|(kind, v)| (kind, stats::median(&v)))
            .collect();
        self.requests
            .iter()
            .map(|(kind, _)| medians[kind])
            .collect()
    }

    fn mean_ms(&self) -> f64 {
        self.requests.iter().map(|(_, ms)| ms).sum::<f64>() / (self.requests.len() as f64).max(1.0)
    }
}

/// Send one request and read its response, each step inside a span.
fn round_trip(
    conn: &mut BufReader<TcpStream>,
    t: &mut Tracer,
    program: String,
) -> Result<Response, String> {
    t.span("bench.request", |t| {
        let line = t.span("serve.codec", |_| {
            let mut line = Request::Analyze {
                program,
                opts: AnalyzeOpts::default(),
            }
            .encode();
            line.push('\n');
            line
        });
        let reply = t.span("serve.rpc", |_| {
            conn.get_mut()
                .write_all(line.as_bytes())
                .map_err(|e| format!("send failed: {e}"))?;
            let mut reply = String::new();
            match conn.read_line(&mut reply) {
                Ok(0) => Err("the server closed the connection".to_owned()),
                Ok(_) => Ok(reply),
                Err(e) => Err(format!("receive failed: {e}")),
            }
        })?;
        t.span("serve.codec", |_| Response::decode(reply.trim_end()))
    })
}

/// The client: its connection, its request sequence, and its spans.
struct Client<'a> {
    conn: BufReader<TcpStream>,
    plan: Plan<'a>,
    tracer: Tracer,
}

impl Client<'_> {
    /// Send `cycles` whole cycles, or else whole cycles until one ends
    /// past `until` (and not before [`MIN_PASSES`] cycles). A broken
    /// connection ends the phase.
    fn phase(
        &mut self,
        traced: bool,
        cycles: Option<usize>,
        until: Duration,
        out: &mut Outcome,
    ) -> Log {
        let mut log = Log::default();
        let start = Instant::now();
        self.tracer.set_on(traced);
        for cycle in 0.. {
            let done = match cycles {
                Some(n) => cycle == n,
                None => cycle >= MIN_PASSES && start.elapsed() >= until,
            };
            if done || !self.cycle(&mut log, out) {
                break;
            }
        }
        self.tracer.set_on(false);
        log
    }

    /// Send one cycle of requests; false if the connection broke.
    fn cycle(&mut self, log: &mut Log, out: &mut Outcome) -> bool {
        for _ in 0..self.plan.cycle_len() {
            let req = self.plan.next();
            let (conn, tracer) = (&mut self.conn, &mut self.tracer);
            let (took, resp) = speed::time(|| round_trip(conn, tracer, req.text));
            out.attempted += 1;
            log.requests.push((req.kind, took.secs * 1e3));
            log.raw += took.raw;
            let hit = req.kind.1;
            match resp {
                Ok(Response::Analyze {
                    cached,
                    micros,
                    summary,
                    ..
                }) => {
                    log.service_us += micros;
                    log.hits += usize::from(cached);
                    let got = Counts::from(summary);
                    if got != req.expected || cached != hit {
                        out.fail(format!(
                            "got {got:?} cached={cached}, planted {:?} cached={hit}",
                            req.expected
                        ));
                    }
                }
                Ok(other) => out.fail(format!("{other:?}")),
                Err(e) => {
                    out.fail(e);
                    return false;
                }
            }
        }
        true
    }
}

/// Summed queue wait of every `analyze` request so far, from the
/// server's own metrics document.
fn queue_wait_us(server: &Server) -> u64 {
    parse_json(&server.metrics_json())
        .ok()
        .and_then(|m| {
            m.get("histograms")?
                .get("serve.queue_wait.analyze")?
                .get("total_us")
                .and_then(JsonValue::as_u64)
        })
        .unwrap_or(0)
}

pub fn serve_mixed(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, (templates, server)) = stats::timed_setup(SETUPS, || {
        let (secs, templates) = templates(opts.seed, opts.smoke);
        let (t, server) = speed::time(|| {
            Server::start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                workers: WORKERS,
                threads: 1,
                queue_cap: 4 * WORKERS,
                ..ServeConfig::default()
            })
        });
        (secs + t.secs, (templates, server))
    });
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("server start failed: {e}"));
            return out;
        }
    };
    let conn = TcpStream::connect(server.local_addr()).and_then(|s| {
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(BufReader::new(s))
    });
    let conn = match conn {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("connect failed: {e}"));
            return out;
        }
    };
    let mut client = Client {
        conn,
        plan: Plan::new(&templates, opts.seed),
        tracer: Tracer::new(0, Instant::now()),
    };
    let run = Duration::from_secs_f64(opts.seconds);
    // The first cycle is the warm-up.
    client.phase(false, Some(1), run, &mut out);

    if !opts.trace {
        let log = client.phase(false, None, run, &mut out);
        out.end_to_end(setup_s, &log.typical_ms(), Tail::P99);
        return out;
    }

    // Half the run untraced, half traced, for the overhead share.
    let half = run / 2;
    let plain = client.phase(false, None, half, &mut out);
    let queue_before = queue_wait_us(&server);
    let traced_from = server.recorder().wall();
    let traced = client.phase(true, None, half, &mut out);
    let queue = Duration::from_micros(queue_wait_us(&server) - queue_before);
    drop(client.conn);
    // The server's own spans split its service time: `serve.analyze`
    // wraps the `analyze` pipeline plus the provenance derivation.
    let server_spans = server.recorder().spans();
    let server_time = |name: &str| {
        Duration::from_micros(
            server_spans
                .iter()
                .filter(|s| s.name == name && Duration::from_micros(s.start_us) >= traced_from)
                .map(|s| s.dur_us)
                .sum(),
        )
    };
    let pipeline = server_time("analyze");
    let provenance = server_time("serve.analyze").saturating_sub(pipeline);

    let run_id = crate::run_id("serve_mixed", opts.seed);
    let mut profile = Profile::default();
    profile.add(&client.tracer, &run_id);
    let e2e = traced.raw;
    let service = Duration::from_micros(traced.service_us);
    let wire = profile
        .self_time("serve.rpc")
        .saturating_sub(service + queue);
    let share = |d: Duration| d.as_secs_f64() / e2e.as_secs_f64().max(1e-9);
    let rejected = server
        .stats_fields()
        .into_iter()
        .find(|(n, _)| n == "rejected")
        .map_or(0, |(_, v)| v);
    let extra = BTreeMap::from([
        ("serve.analyze_share", share(pipeline)),
        ("core.provenance_share", share(provenance)),
        (
            "serve.service_share",
            share(service.saturating_sub(pipeline + provenance)),
        ),
        ("serve.queue_share", share(queue)),
        ("serve.wire_share", share(wire)),
        (
            "serve.cache_hit_rate",
            traced.hits as f64 / (traced.requests.len() as f64).max(1.0),
        ),
        ("serve.rejected", rejected as f64),
    ]);
    let overhead = traced.mean_ms() / plain.mean_ms() - 1.0;
    out.per_layer("serve_mixed", &run_id, &profile, e2e, overhead, extra);
    out
}
