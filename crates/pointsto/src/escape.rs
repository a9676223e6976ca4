//! Thread-escape analysis: which abstract objects are reachable from more
//! than one modeled thread.
//!
//! Chord's race detector only reports pairs on *escaped* objects; after
//! threadification the same check applies with modeled threads (§5). An
//! object is shared when at least two modeled threads can reach it — from
//! a local of one of the thread's methods, or transitively through heap
//! field edges. Only populated locals are visited, so the walk costs what
//! the points-to result holds, not what the methods declare.

use crate::analysis::PointsTo;
use crate::tables::ObjId;
use nadroid_ir::Program;
use nadroid_threadify::{ThreadId, ThreadModel};

/// Result of the thread-escape analysis.
#[derive(Debug, Clone)]
pub struct Escape {
    /// Number of distinct modeled threads reaching each object.
    reach_count: Vec<u32>,
}

impl Escape {
    /// Compute reachability of every object from every modeled thread.
    /// The program itself is not consulted: the points-to result already
    /// holds every populated local of every method.
    #[must_use]
    pub fn compute(_program: &Program, threads: &ThreadModel, pts: &PointsTo) -> Escape {
        let nobjs = pts.objs().len();
        let mut reach_count = vec![0u32; nobjs];
        let mut seen = vec![false; nobjs];
        let mut stack: Vec<ObjId> = Vec::new();
        for (tid, _) in threads.threads() {
            seen.fill(false);
            Self::reach_of(threads, pts, tid, &mut seen, &mut stack);
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
        threads: &ThreadModel,
        pts: &PointsTo,
        tid: ThreadId,
        seen: &mut [bool],
        stack: &mut Vec<ObjId>,
    ) {
        for &m in threads.methods_of(tid) {
            for &o in pts.method_objs(m) {
                if !seen[o.0 as usize] {
                    seen[o.0 as usize] = true;
                    stack.push(o);
                }
            }
        }
        while let Some(o) = stack.pop() {
            for &o2 in pts.heap_succ(o) {
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
