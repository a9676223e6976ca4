//! Public points-to API.
//!
//! nAdroid runs Chord's k-object-sensitive points-to analysis (k = 2 by
//! default) on the threadified program (§5). [`PointsTo::run`] delegates
//! to the context-sensitive worklist solver (`solver` module);
//! `tests/pointsto_baseline.rs` states the same constraints
//! context-insensitively as Datalog rules and asserts both agree at
//! k = 0 — the architecture-validation role bddbddb played for Chord.

use crate::solver;
use crate::tables::{ObjId, ObjTable};
use nadroid_ir::{Local, MethodId, Program};
use nadroid_threadify::ThreadModel;
use std::collections::HashMap;

/// Result of the points-to analysis.
#[derive(Debug)]
pub struct PointsTo {
    objs: ObjTable,
    var_pts: HashMap<(MethodId, Local), Vec<ObjId>>,
    heap: HashMap<(ObjId, u32), Vec<ObjId>>,
    k: u32,
}

impl PointsTo {
    /// Run the analysis at sensitivity `k` (0 = context-insensitive; the
    /// paper's default is 2).
    #[must_use]
    pub fn run(program: &Program, threads: &ThreadModel, k: u32) -> PointsTo {
        let s = solver::solve(program, threads, k);
        PointsTo {
            objs: s.objs,
            var_pts: s.var_pts,
            heap: s.heap,
            k,
        }
    }

    /// The sensitivity the analysis ran at.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The abstract-object table.
    #[must_use]
    pub fn objs(&self) -> &ObjTable {
        &self.objs
    }

    /// Objects a method-local may point to (merged over receiver
    /// contexts).
    #[must_use]
    pub fn pts(&self, method: MethodId, local: Local) -> &[ObjId] {
        self.var_pts
            .get(&(method, local))
            .map_or(&[], Vec::as_slice)
    }

    /// Objects stored in field `f` of object `o`.
    #[must_use]
    pub fn field_pts(&self, o: ObjId, field: u32) -> &[ObjId] {
        self.heap.get(&(o, field)).map_or(&[], Vec::as_slice)
    }

    /// All populated heap cells, for clients (like the escape analysis)
    /// that need the object graph without caring about field identity.
    pub(crate) fn heap_entries(&self) -> impl Iterator<Item = (ObjId, &[ObjId])> + '_ {
        self.heap.iter().map(|(&(o, _), v)| (o, v.as_slice()))
    }

    /// Whether two locals may point to a common object.
    #[must_use]
    pub fn may_alias(&self, a: (MethodId, Local), b: (MethodId, Local)) -> bool {
        let pa = self.pts(a.0, a.1);
        let pb = self.pts(b.0, b.1);
        pa.iter().any(|o| pb.contains(o))
    }

    /// The common objects of two locals' points-to sets.
    #[must_use]
    pub fn common_objs(&self, a: (MethodId, Local), b: (MethodId, Local)) -> Vec<ObjId> {
        let pb = self.pts(b.0, b.1);
        self.pts(a.0, a.1)
            .iter()
            .copied()
            .filter(|o| pb.contains(o))
            .collect()
    }

    /// The *must* lock object of a lock variable: defined only when the
    /// variable's points-to set is a singleton (Chord's selective lockset
    /// use in the IG filter requires must-alias on locks).
    #[must_use]
    pub fn must_lock(&self, method: MethodId, lock: Local) -> Option<ObjId> {
        match self.pts(method, lock) {
            [only] => Some(*only),
            _ => None,
        }
    }
}
