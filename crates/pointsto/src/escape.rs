//! Thread-escape analysis: which abstract objects are reachable from more
//! than one modeled thread.
//!
//! Chord's race detector only reports pairs on *escaped* objects; after
//! threadification the same check applies with modeled threads (§5). An
//! object is shared when at least two modeled threads can reach it — from
//! a local of one of the thread's methods, or transitively through heap
//! field edges.

use crate::analysis::PointsTo;
use crate::tables::ObjId;
use nadroid_ir::{Local, Program};
use nadroid_threadify::{ThreadId, ThreadModel};

/// Result of the thread-escape analysis.
#[derive(Debug, Clone)]
pub struct Escape {
    /// Number of distinct modeled threads reaching each object.
    reach_count: Vec<u32>,
}

impl Escape {
    /// Compute reachability of every object from every modeled thread.
    #[must_use]
    pub fn compute(program: &Program, threads: &ThreadModel, pts: &PointsTo) -> Escape {
        let nobjs = pts.objs().len();
        let mut reach_count = vec![0u32; nobjs];

        // Field identity is irrelevant to escape, so collapse the heap
        // into one adjacency list per object up front. The previous
        // formulation probed (object × every program field) in a hash
        // map per traversal step — by far the suite's hottest loop.
        let mut heap_succ: Vec<Vec<ObjId>> = vec![Vec::new(); nobjs];
        for (o, targets) in pts.heap_entries() {
            heap_succ[o.0 as usize].extend_from_slice(targets);
        }

        let mut seen = vec![false; nobjs];
        let mut stack: Vec<ObjId> = Vec::new();
        for (tid, _) in threads.threads() {
            seen.fill(false);
            Self::reach_of(
                program, threads, pts, tid, &heap_succ, &mut seen, &mut stack,
            );
            for (o, s) in seen.iter().enumerate() {
                reach_count[o] += u32::from(*s);
            }
        }
        if nadroid_obs::recording() {
            nadroid_obs::counter("escape.objects", nobjs as u64);
            let shared = reach_count.iter().filter(|&&c| c >= 2).count();
            nadroid_obs::counter("escape.shared", shared as u64);
        }
        Escape { reach_count }
    }

    /// Mark the objects one thread can reach in `seen` (pre-cleared).
    fn reach_of(
        program: &Program,
        threads: &ThreadModel,
        pts: &PointsTo,
        tid: ThreadId,
        heap_succ: &[Vec<ObjId>],
        seen: &mut [bool],
        stack: &mut Vec<ObjId>,
    ) {
        for &m in threads.methods_of(tid) {
            let n = program.method(m).num_locals();
            for l in 0..n {
                for &o in pts.pts(m, Local(l)) {
                    if !seen[o.0 as usize] {
                        seen[o.0 as usize] = true;
                        stack.push(o);
                    }
                }
            }
        }
        while let Some(o) = stack.pop() {
            for &o2 in &heap_succ[o.0 as usize] {
                if !seen[o2.0 as usize] {
                    seen[o2.0 as usize] = true;
                    stack.push(o2);
                }
            }
        }
    }

    /// Whether an object is reachable from at least two modeled threads
    /// (thread-escaping).
    #[must_use]
    pub fn is_shared(&self, o: ObjId) -> bool {
        self.reach_count.get(o.0 as usize).copied().unwrap_or(0) >= 2
    }

    /// Number of modeled threads reaching the object.
    #[must_use]
    pub fn reach_count(&self, o: ObjId) -> u32 {
        self.reach_count.get(o.0 as usize).copied().unwrap_or(0)
    }
}
