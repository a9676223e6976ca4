//! The measured passes of the pass workloads (`paper27`, `fleet` and the
//! confirm workloads): each pass makes one operation per input item.

use crate::speed::Timed;
use crate::stats::{self, Tail};
use crate::{Opts, Outcome, MIN_PASSES};
use std::time::{Duration, Instant};

/// Each item's untraced operation times and every pass's time.
pub struct Passes {
    /// Per item, its corrected times in untraced passes, in ms.
    latencies: Vec<Vec<f64>>,
    /// Per pass, its operations' summed corrected time in seconds.
    untraced: Vec<f64>,
    traced: Vec<f64>,
    /// The traced passes' summed raw operation time.
    traced_raw: Duration,
}

impl Passes {
    /// Run passes until `opts.seconds` have passed and at least
    /// [`MIN_PASSES`] ran. A trace run alternates untraced and traced
    /// passes, so that both meet the same conditions. `pass(traced)`
    /// makes one pass and returns each item's time and output, which
    /// `check(traced, outputs)` then takes.
    pub fn run<R>(
        opts: &Opts,
        mut pass: impl FnMut(bool) -> Vec<(Timed, R)>,
        mut check: impl FnMut(bool, Vec<(Timed, R)>),
    ) -> Passes {
        let mut p = Passes {
            latencies: Vec::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            traced_raw: Duration::ZERO,
        };
        let start = Instant::now();
        for i in 0.. {
            let traced = opts.trace && i % 2 == 1;
            let results = pass(traced);
            let secs = results.iter().map(|(t, _)| t.secs).sum();
            if traced {
                p.traced.push(secs);
                p.traced_raw += results.iter().map(|(t, _)| t.raw).sum::<Duration>();
            } else {
                p.untraced.push(secs);
                p.latencies.resize(results.len(), Vec::new());
                for (lat, (t, _)) in p.latencies.iter_mut().zip(&results) {
                    lat.push(t.secs * 1e3);
                }
            }
            check(traced, results);
            if start.elapsed().as_secs_f64() >= opts.seconds && i + 1 >= MIN_PASSES {
                break;
            }
        }
        p
    }

    /// Record the end-to-end metrics: an item's latency is its median
    /// time over passes, and the throughput is the items over the sum of
    /// those latencies.
    pub fn end_to_end(&self, out: &mut Outcome, setup_s: f64, tail: Tail) {
        let per_item: Vec<f64> = self.latencies.iter().map(|l| stats::median(l)).collect();
        out.end_to_end(setup_s, &per_item, tail);
    }

    /// How many traced passes ran.
    pub fn traced_passes(&self) -> f64 {
        self.traced.len() as f64
    }

    /// Raw time of the traced passes' operations, which their spans
    /// divide among the layers.
    pub fn traced_time(&self) -> Duration {
        self.traced_raw
    }

    /// Median traced pass time over median untraced pass time, minus 1.
    pub fn overhead(&self) -> f64 {
        stats::median(&self.traced) / stats::median(&self.untraced) - 1.0
    }
}
