//! Benchmark-side spans around every call into a layer.
//!
//! A span is named `<layer>.<step>`. Each records its start, its end,
//! the span that was open when it started, and the run id shared by
//! every span of one run. A span's *self time* is its duration minus the
//! time its child spans cover; summed per name, self times attribute a
//! traced run's wall time to layers. Spans are kept in memory and
//! written once, as a Chrome `trace_event` document, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Stop keeping span records for the trace file past this many per load
/// thread; self times keep accumulating. One traced pass of the largest
/// workload stays under it.
const MAX_RECORDS: usize = 20_000;

struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    children: Duration,
}

struct Record {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Duration,
    dur: Duration,
}

/// One load thread's spans. Off, [`Tracer::span`] only calls its body.
pub struct Tracer {
    on: bool,
    tid: u32,
    epoch: Instant,
    stack: Vec<Open>,
    next_id: u64,
    records: Vec<Record>,
    self_time: BTreeMap<&'static str, Duration>,
}

impl Tracer {
    /// A tracer for load thread `tid`; spans are timed from `epoch`.
    pub fn new(tid: u32, epoch: Instant) -> Self {
        Tracer {
            on: false,
            tid,
            epoch,
            stack: Vec::new(),
            next_id: 0,
            records: Vec::new(),
            self_time: BTreeMap::new(),
        }
    }

    /// Turn span recording on or off (between operations only).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Run `body` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return body(self);
        }
        self.next_id += 1;
        self.stack.push(Open {
            id: self.next_id,
            name,
            start: Instant::now(),
            children: Duration::ZERO,
        });
        let out = body(self);
        let open = self.stack.pop().expect("span stack balanced");
        let dur = open.start.elapsed();
        *self.self_time.entry(open.name).or_default() += dur.saturating_sub(open.children);
        let parent = self.stack.last_mut().map(|p| {
            p.children += dur;
            p.id
        });
        if self.records.len() < MAX_RECORDS {
            self.records.push(Record {
                id: open.id,
                parent,
                name: open.name,
                start: open.start.duration_since(self.epoch),
                dur,
            });
        }
        out
    }
}

/// Self times and span records merged over a run's load threads.
#[derive(Default)]
pub struct Profile {
    self_time: BTreeMap<&'static str, Duration>,
    events: String,
}

impl Profile {
    /// Merge one load thread's self times and span records; span ids
    /// carry the thread in their high bits, so they stay unique.
    pub fn add(&mut self, t: &Tracer, run_id: &str) {
        for (name, d) in &t.self_time {
            *self.self_time.entry(name).or_default() += *d;
        }
        for r in &t.records {
            if !self.events.is_empty() {
                self.events.push_str(",\n");
            }
            let layer = r.name.split('.').next().unwrap_or(r.name);
            let _ = write!(
                self.events,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"run_id\":\"{run_id}\",\"span\":{},\"parent\":{}}}}}",
                r.name,
                t.tid,
                r.start.as_secs_f64() * 1e6,
                r.dur.as_secs_f64() * 1e6,
                (u64::from(t.tid) << 40) | r.id,
                r.parent
                    .map_or("null".to_owned(), |p| ((u64::from(t.tid) << 40) | p).to_string()),
            );
        }
    }

    /// Summed self time of the spans called `name`.
    pub fn self_time(&self, name: &str) -> Duration {
        self.self_time.get(name).copied().unwrap_or_default()
    }

    /// Summed self time of every span whose layer (the name's first
    /// component) is not `bench`, the benchmark's own glue.
    pub fn attributed(&self) -> Duration {
        self.self_time
            .iter()
            .filter(|(name, _)| !name.starts_with("bench."))
            .map(|(_, d)| *d)
            .sum()
    }

    /// Self time per span name, in name order.
    pub fn by_name(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        self.self_time.iter().map(|(n, d)| (*n, *d))
    }

    /// The Chrome `trace_event` document (load it in Perfetto or
    /// `chrome://tracing`).
    pub fn chrome_trace(&self, run_id: &str, workload: &str) -> String {
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"run_id\":\"{run_id}\",\"workload\":\"{workload}\"}},\
             \"traceEvents\":[\n{}\n]}}\n",
            self.events
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_links_parents() {
        let mut t = Tracer::new(0, Instant::now());
        t.set_on(true);
        t.span("bench.op", |t| {
            t.span("a.x", |_| std::thread::sleep(Duration::from_millis(5)));
            t.span("b.y", |_| std::thread::sleep(Duration::from_millis(5)));
        });
        t.set_on(false);
        t.span("a.x", |_| ());
        let mut p = Profile::default();
        p.add(&t, "r");
        assert!(p.self_time("bench.op") < Duration::from_millis(5));
        assert!(p.self_time("a.x") >= Duration::from_millis(5));
        assert_eq!(p.attributed(), p.self_time("a.x") + p.self_time("b.y"));
        let doc = p.chrome_trace("r", "w");
        assert_eq!(
            doc.matches("\"ph\":\"X\"").count(),
            3,
            "untraced span not recorded"
        );
        assert_eq!(doc.matches("\"parent\":null").count(), 1);
        assert!(nadroid_core::parse_json(&doc).is_ok(), "{doc}");
    }
}
