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

/// Sorted `(key, object)` pairs grouped by an owner index, stored as two
/// parallel columns: owner `i`'s pairs are `keys[offsets[i]..offsets[i +
/// 1]]` beside `objs` at the same positions. One key's objects are then a
/// contiguous, sorted slice of `objs`.
#[derive(Debug)]
struct Runs<K> {
    offsets: Vec<u32>,
    keys: Vec<K>,
    objs: Vec<ObjId>,
}

impl<K: Copy + Ord> Runs<K> {
    /// Group `(owner, key, object)` triples, sorted and free of
    /// duplicates, for owners `0..owners`.
    fn new(owners: usize, triples: impl ExactSizeIterator<Item = (usize, K, ObjId)>) -> Self {
        let mut offsets = vec![0u32; owners + 1];
        let mut keys = Vec::with_capacity(triples.len());
        let mut objs = Vec::with_capacity(triples.len());
        for (owner, key, obj) in triples {
            offsets[owner + 1] += 1;
            keys.push(key);
            objs.push(obj);
        }
        for i in 0..owners {
            offsets[i + 1] += offsets[i];
        }
        Runs {
            offsets,
            keys,
            objs,
        }
    }

    /// The range of owner `i`'s pairs (empty for an unknown owner).
    fn run(&self, owner: usize) -> std::ops::Range<usize> {
        match self.offsets.get(owner..owner + 2) {
            Some(&[start, end]) => start as usize..end as usize,
            _ => 0..0,
        }
    }

    /// The objects paired with `key` under `owner`.
    fn get(&self, owner: usize, key: K) -> &[ObjId] {
        let run = self.run(owner);
        let keys = &self.keys[run.clone()];
        let lo = keys.partition_point(|&k| k < key);
        let hi = keys.partition_point(|&k| k <= key);
        &self.objs[run.start + lo..run.start + hi]
    }

    /// Every object paired with any key under `owner`.
    fn all(&self, owner: usize) -> &[ObjId] {
        &self.objs[self.run(owner)]
    }
}

/// Result of the points-to analysis.
#[derive(Debug)]
pub struct PointsTo {
    objs: ObjTable,
    /// Per method, its populated locals' objects merged over contexts.
    vars: Runs<Local>,
    /// Per object, its populated fields' objects.
    heap: Runs<u32>,
    k: u32,
}

impl PointsTo {
    /// Run the analysis at sensitivity `k` (0 = context-insensitive; the
    /// paper's default is 2).
    #[must_use]
    pub fn run(program: &Program, threads: &ThreadModel, k: u32) -> PointsTo {
        let s = solver::solve(program, threads, k);
        let methods = program.method_ids().count();
        let vars = s.vars.into_iter().map(|(m, l, o)| (m.index(), l, o));
        let heap = s.heap.into_iter().map(|(o, f, t)| (o.0 as usize, f, t));
        PointsTo {
            vars: Runs::new(methods, vars),
            heap: Runs::new(s.objs.len(), heap),
            objs: s.objs,
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
    /// contexts), sorted.
    #[must_use]
    pub fn pts(&self, method: MethodId, local: Local) -> &[ObjId] {
        self.vars.get(method.index(), local)
    }

    /// Objects stored in field `f` of object `o`, sorted.
    #[must_use]
    pub fn field_pts(&self, o: ObjId, field: u32) -> &[ObjId] {
        self.heap.get(o.0 as usize, field)
    }

    /// The objects of all of a method's populated locals, one local's
    /// sorted set after another, for clients (like the escape analysis)
    /// that need every object a method reaches without caring which
    /// local holds it.
    pub(crate) fn method_objs(&self, method: MethodId) -> &[ObjId] {
        self.vars.all(method.index())
    }

    /// The objects stored in any field of `o`, for clients (like the
    /// escape analysis) that need the object graph without caring about
    /// field identity.
    pub(crate) fn heap_succ(&self, o: ObjId) -> &[ObjId] {
        self.heap.all(o.0 as usize)
    }

    /// Whether two locals may point to a common object.
    #[must_use]
    pub fn may_alias(&self, a: (MethodId, Local), b: (MethodId, Local)) -> bool {
        let pb = self.pts(b.0, b.1);
        self.pts(a.0, a.1)
            .iter()
            .any(|o| pb.binary_search(o).is_ok())
    }

    /// The common objects of two locals' points-to sets.
    #[must_use]
    pub fn common_objs(&self, a: (MethodId, Local), b: (MethodId, Local)) -> Vec<ObjId> {
        let pb = self.pts(b.0, b.1);
        self.pts(a.0, a.1)
            .iter()
            .copied()
            .filter(|o| pb.binary_search(o).is_ok())
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
