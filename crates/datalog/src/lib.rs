//! A semi-naive, bottom-up Datalog engine with compiled join plans and
//! column indexes.
//!
//! Chord — the static race detector nAdroid builds on — expresses its
//! analyses (call graph, k-object-sensitive points-to, thread escape) as
//! Datalog programs solved by the bddbddb engine. nAdroid-rs runs them
//! as direct solvers instead (the points-to worklist, the detector, the
//! happens-before graph's closures), and no analysis path links this
//! crate. It is their executable specification: relations over dense
//! `u32` terms, positive Horn rules and semi-naive fixpoint evaluation,
//! which the tests use to state a rule set and compare a solver with
//! its solve:
//!
//! - the §5 `racyPair` encoding against the detector and its
//!   derivation trees (`tests/provenance_parity.rs`);
//! - a context-insensitive points-to baseline against the worklist
//!   solver at k = 0 (`tests/pointsto_baseline.rs`);
//! - the `mustHb`, `postHb` and `predHb` rules against the
//!   happens-before graph (`tests/hb_parity.rs`).
//!
//! # Architecture
//!
//! Tuples are interned into a flat per-relation arena (`Vec<u32>`, one
//! row per tuple) and never re-allocated afterwards. Each [`Rule`] is
//! compiled once per [`Database::run`] into a fixed sequence of column
//! actions over dense variable slots, so the inner join loop works on a
//! stack-allocated binding array instead of a per-tuple hash map. Body
//! atoms with bound columns probe per-relation hash indexes keyed on the
//! projection of those columns; indexes are built lazily per
//! `(relation, bound-column mask)`, extended incrementally as tuples are
//! derived, and shared between full and delta scans (a delta is just a
//! contiguous row range of the arena). Re-running the same rules resumes
//! from a per-relation high-water mark, so a second [`Database::run`]
//! with unchanged facts does near-zero work.
//!
//! The naive evaluator the engine replaced is retained as
//! [`reference::NaiveDatabase`] and the property suite asserts both derive
//! identical relation contents *in identical first-derivation order*.
//!
//! # Provenance
//!
//! The engine records contents, not derivations. The one derivation tree
//! the analysis shows, a warning's `racyPair` fact under the two rules
//! that state §5 (`nadroid explain`), has a shape those rules fix, so
//! `nadroid-core` builds it straight from the detector's warning.
//!
//! # Example: transitive closure
//!
//! ```
//! use nadroid_datalog::{Database, RuleSet, Term};
//!
//! let mut db = Database::new();
//! let edge = db.relation("edge", 2);
//! let path = db.relation("path", 2);
//! db.insert(edge, &[1, 2]);
//! db.insert(edge, &[2, 3]);
//! db.insert(edge, &[3, 4]);
//!
//! let mut rules = RuleSet::new();
//! // path(x, y) :- edge(x, y).
//! rules.add(path, vec![Term::var(0), Term::var(1)])
//!     .when(edge, vec![Term::var(0), Term::var(1)]);
//! // path(x, z) :- path(x, y), edge(y, z).
//! rules.add(path, vec![Term::var(0), Term::var(2)])
//!     .when(path, vec![Term::var(0), Term::var(1)])
//!     .when(edge, vec![Term::var(1), Term::var(2)]);
//!
//! db.run(&rules);
//! assert!(db.contains(path, &[1, 4]));
//! assert_eq!(db.len(path), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reference;

use std::collections::{HashMap, HashSet};
use std::fmt;

/// Identifier of a relation within a [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelId(u32);

impl RelId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A term in a rule atom: either a variable (identified by a small index,
/// scoped to the rule) or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// A rule-scoped variable.
    Var(u8),
    /// A constant value.
    Const(u32),
}

impl Term {
    /// Shorthand for [`Term::Var`].
    #[must_use]
    pub fn var(i: u8) -> Term {
        Term::Var(i)
    }

    /// Shorthand for [`Term::Const`].
    #[must_use]
    pub fn val(v: u32) -> Term {
        Term::Const(v)
    }
}

/// One atom of a rule body or head: a relation applied to terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    pub(crate) rel: RelId,
    pub(crate) terms: Vec<Term>,
}

impl Atom {
    /// Construct an atom.
    #[must_use]
    pub fn new(rel: RelId, terms: Vec<Term>) -> Self {
        Atom { rel, terms }
    }

    /// The relation this atom ranges over.
    #[must_use]
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// The atom's terms, one per column.
    #[must_use]
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }
}

/// A positive Horn rule: `head :- body₀, body₁, ...`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    pub(crate) head: Atom,
    pub(crate) body: Vec<Atom>,
}

impl Rule {
    /// The head atom.
    #[must_use]
    pub fn head(&self) -> &Atom {
        &self.head
    }

    /// The body atoms, in evaluation order.
    #[must_use]
    pub fn body(&self) -> &[Atom] {
        &self.body
    }
}

/// A collection of rules evaluated together to fixpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleSet {
    pub(crate) rules: Vec<Rule>,
}

/// Builder handle returned by [`RuleSet::add`]; chain [`RuleBuilder::when`]
/// to append body atoms.
#[derive(Debug)]
pub struct RuleBuilder<'a> {
    rules: &'a mut Vec<Rule>,
    index: usize,
}

impl RuleBuilder<'_> {
    /// Append a body atom to the rule.
    #[allow(clippy::return_self_not_must_use)]
    pub fn when(self, rel: RelId, terms: Vec<Term>) -> Self {
        self.rules[self.index].body.push(Atom::new(rel, terms));
        self
    }
}

impl RuleSet {
    /// An empty rule set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a rule with the given head; returns a builder to append body
    /// atoms. A rule with an empty body is a fact template (head must then
    /// be all-constant).
    pub fn add(&mut self, head_rel: RelId, head_terms: Vec<Term>) -> RuleBuilder<'_> {
        let index = self.rules.len();
        self.rules.push(Rule {
            head: Atom::new(head_rel, head_terms),
            body: Vec::new(),
        });
        RuleBuilder {
            rules: &mut self.rules,
            index,
        }
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rules, in evaluation order.
    #[must_use]
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }
}

/// Counters of the most recent [`Database::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Fixpoint iterations executed (at least 1 for a non-trivial run).
    pub iterations: u64,
    /// Tuples newly derived and admitted into relations.
    pub derived: u64,
    /// Candidate head tuples produced before deduplication.
    pub considered: u64,
    /// Hash-index probes performed by compiled joins.
    pub index_probes: u64,
    /// `(relation, column-mask)` indexes materialized or extended.
    pub indexes_built: u64,
}

/// One lazily built hash index over a relation: the projection of the
/// columns in a bound-column mask, mapped to the (ascending) rows whose
/// projection hashes there. Hash collisions are harmless — probes verify
/// candidate rows against the arena.
#[derive(Debug, Default)]
struct ColumnIndex {
    /// Rows `[0, rows_indexed)` of the arena are reflected in `map`.
    rows_indexed: u32,
    map: HashMap<u64, Vec<u32>>,
}

#[derive(Debug, Default)]
struct RelationData {
    name: String,
    arity: usize,
    /// Flat tuple arena: row `i` is `data[i*arity .. (i+1)*arity]`, in
    /// first-derivation order (this *is* the `tuples()` order).
    data: Vec<u32>,
    /// Full-tuple hash -> rows with that hash (deduplication).
    dedup: HashMap<u64, Vec<u32>>,
    /// Bound-column mask -> lazily maintained index.
    indexes: HashMap<u32, ColumnIndex>,
    /// Rows already at fixpoint after the last completed `run`.
    hwm: u32,
}

impl RelationData {
    #[allow(clippy::cast_possible_truncation)]
    fn rows(&self) -> u32 {
        debug_assert!(self.arity > 0);
        (self.data.len() / self.arity) as u32
    }

    fn row(&self, r: u32) -> &[u32] {
        let start = r as usize * self.arity;
        &self.data[start..start + self.arity]
    }

    /// Insert a tuple if absent; returns true when new.
    fn insert_row(&mut self, tuple: &[u32]) -> bool {
        let h = hash_vals(tuple.iter().copied());
        let rows = self.rows();
        let candidates = self.dedup.entry(h).or_default();
        let arity = self.arity;
        if candidates
            .iter()
            .any(|&r| &self.data[r as usize * arity..r as usize * arity + arity] == tuple)
        {
            return false;
        }
        candidates.push(rows);
        self.data.extend_from_slice(tuple);
        true
    }

    fn contains_row(&self, tuple: &[u32]) -> bool {
        let h = hash_vals(tuple.iter().copied());
        self.dedup
            .get(&h)
            .is_some_and(|rows| rows.iter().any(|&r| self.row(r) == tuple))
    }

    /// Extend the index for `mask` to cover rows `[0, upto)`.
    fn ensure_index(&mut self, mask: u32, upto: u32) -> bool {
        let arity = self.arity;
        let idx = self.indexes.entry(mask).or_default();
        if idx.rows_indexed >= upto {
            return false;
        }
        for r in idx.rows_indexed..upto {
            let start = r as usize * arity;
            let row = &self.data[start..start + arity];
            let h = hash_vals((0..arity).filter(|c| mask & (1 << c) != 0).map(|c| row[c]));
            idx.map.entry(h).or_default().push(r);
        }
        idx.rows_indexed = upto;
        true
    }
}

/// FNV-1a over a value stream; the basis of both deduplication and the
/// column indexes.
fn hash_vals(vals: impl Iterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in vals {
        h ^= u64::from(v);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How one column of a compiled atom constrains or extends the bindings.
#[derive(Debug, Clone, Copy)]
enum ColAction {
    /// The column must equal this constant.
    Const(u32),
    /// The column must equal an already-bound slot (bound by an earlier
    /// atom, or by an earlier column of this atom — repeated variables).
    Eq(u8),
    /// The column binds a fresh slot.
    Bind(u8),
}

/// One part of a probe key or head template.
#[derive(Debug, Clone, Copy)]
enum KeyPart {
    Const(u32),
    Slot(u8),
}

#[derive(Debug)]
struct CompiledAtom {
    rel: RelId,
    /// Bitmask of columns bound before this atom is scanned (constants
    /// plus variables bound by earlier atoms). Zero means full scan.
    mask: u32,
    /// Probe-key parts for the mask's columns, in ascending column order.
    key: Vec<KeyPart>,
    /// Per-column verification/binding program.
    actions: Vec<ColAction>,
}

#[derive(Debug)]
struct CompiledRule {
    head_rel: RelId,
    head: Vec<KeyPart>,
    atoms: Vec<CompiledAtom>,
    n_slots: usize,
}

/// Binding slots kept on the stack for rules with up to this many
/// distinct variables (the common case by far); larger rules fall back
/// to one heap allocation per (rule, delta-position) evaluation.
const STACK_SLOTS: usize = 16;

/// A deductive database: named relations plus fixpoint evaluation.
#[derive(Debug, Default)]
pub struct Database {
    relations: Vec<RelationData>,
    /// The rules of the last completed `run`, for high-water-mark reuse:
    /// re-running an identical rule set resumes from each relation's
    /// fixpoint instead of re-deriving from scratch.
    last_rules: Option<RuleSet>,
    stats: EngineStats,
}

impl Database {
    /// An empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a relation with a fixed arity.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is zero or a relation with this name exists.
    #[allow(clippy::cast_possible_truncation)]
    pub fn relation(&mut self, name: impl Into<String>, arity: usize) -> RelId {
        let name = name.into();
        assert!(arity > 0, "relations must have positive arity");
        assert!(
            arity <= 32,
            "relations are limited to 32 columns (bound-column masks are u32)"
        );
        assert!(
            !self.relations.iter().any(|r| r.name == name),
            "duplicate relation name {name:?}"
        );
        let id = RelId(self.relations.len() as u32);
        self.relations.push(RelationData {
            name,
            arity,
            ..Default::default()
        });
        id
    }

    /// Insert a base (EDB) tuple. Returns true if it was new.
    ///
    /// # Panics
    ///
    /// Panics if the tuple arity does not match the relation.
    pub fn insert(&mut self, rel: RelId, tuple: &[u32]) -> bool {
        let r = &mut self.relations[rel.index()];
        assert_eq!(
            tuple.len(),
            r.arity,
            "arity mismatch inserting into {}",
            r.name
        );
        r.insert_row(tuple)
    }

    /// Whether a tuple is present.
    #[must_use]
    pub fn contains(&self, rel: RelId, tuple: &[u32]) -> bool {
        self.relations[rel.index()].contains_row(tuple)
    }

    /// Number of tuples in a relation.
    #[must_use]
    pub fn len(&self, rel: RelId) -> usize {
        self.relations[rel.index()].rows() as usize
    }

    /// Whether a relation is empty.
    #[must_use]
    pub fn is_empty(&self, rel: RelId) -> bool {
        self.len(rel) == 0
    }

    /// Iterate the tuples of a relation in first-derivation order.
    pub fn tuples(&self, rel: RelId) -> impl Iterator<Item = &[u32]> + '_ {
        let r = &self.relations[rel.index()];
        r.data.chunks_exact(r.arity)
    }

    /// The declared name of a relation.
    #[must_use]
    pub fn name(&self, rel: RelId) -> &str {
        &self.relations[rel.index()].name
    }

    /// Counters of the most recent [`Database::run`].
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Run the rules to fixpoint with semi-naive evaluation.
    ///
    /// Newly derived tuples are added to the head relations; evaluation
    /// stops when an iteration derives nothing new. Running twice with the
    /// same rules is a no-op (fixpoints are idempotent) and, thanks to the
    /// per-relation high-water mark, near-zero cost; facts inserted
    /// between runs are treated as the semi-naive delta of the rerun.
    ///
    /// # Panics
    ///
    /// Panics if a rule's head contains a variable that does not occur in
    /// its body, or atom arities mismatch their relations.
    pub fn run(&mut self, rules: &RuleSet) {
        for rule in &rules.rules {
            self.check_rule(rule);
        }
        let compiled: Vec<CompiledRule> = rules.rules.iter().map(compile_rule).collect();
        let mut stats = EngineStats::default();

        // With unchanged rules the previous fixpoint still holds, so only
        // rows inserted since then are delta; a rule change invalidates
        // the mark and everything becomes delta again.
        let same_rules = self.last_rules.as_ref() == Some(rules);
        let mut delta_lo: Vec<u32> = self
            .relations
            .iter()
            .map(|r| if same_rules { r.hwm } else { 0 })
            .collect();

        // The (relation, mask) indexes the compiled plans will probe.
        let mut needed: Vec<(RelId, u32)> = compiled
            .iter()
            .flat_map(|r| r.atoms.iter())
            .filter(|a| a.mask != 0)
            .map(|a| (a.rel, a.mask))
            .collect();
        needed.sort_unstable();
        needed.dedup();

        let mut scratch: Vec<u32> = Vec::new();
        loop {
            stats.iterations += 1;
            let snapshot: Vec<u32> = self.relations.iter().map(RelationData::rows).collect();
            for &(rel, mask) in &needed {
                if self.relations[rel.index()].ensure_index(mask, snapshot[rel.index()]) {
                    stats.indexes_built += 1;
                }
            }

            let mut grew = false;
            for crule in &compiled {
                if crule.atoms.is_empty() {
                    // Fact template: all-constant head (checked).
                    scratch.clear();
                    scratch.extend(crule.head.iter().map(|p| match p {
                        KeyPart::Const(c) => *c,
                        KeyPart::Slot(_) => unreachable!("checked: no unbound head vars"),
                    }));
                    stats.considered += 1;
                    if self.relations[crule.head_rel.index()].insert_row(&scratch) {
                        stats.derived += 1;
                        grew = true;
                    }
                    continue;
                }
                for delta_pos in 0..crule.atoms.len() {
                    let drel = crule.atoms[delta_pos].rel.index();
                    if delta_lo[drel] >= snapshot[drel] {
                        continue; // empty delta: this occurrence derives nothing new
                    }
                    scratch.clear();
                    let mut stack_buf = [0u32; STACK_SLOTS];
                    let mut heap_buf;
                    let bindings: &mut [u32] = if crule.n_slots <= STACK_SLOTS {
                        &mut stack_buf[..]
                    } else {
                        heap_buf = vec![0u32; crule.n_slots];
                        &mut heap_buf[..]
                    };
                    self.join(
                        crule,
                        0,
                        delta_pos,
                        &delta_lo,
                        &snapshot,
                        bindings,
                        &mut scratch,
                        &mut stats,
                    );
                    let head_idx = crule.head_rel.index();
                    for tuple in scratch.chunks_exact(crule.head.len()) {
                        if self.relations[head_idx].insert_row(tuple) {
                            stats.derived += 1;
                            grew = true;
                        }
                    }
                }
            }

            // Next iteration's delta: exactly the rows derived just now.
            delta_lo.copy_from_slice(&snapshot);
            if !grew {
                break;
            }
        }

        for r in &mut self.relations {
            r.hwm = r.rows();
        }
        self.last_rules = Some(rules.clone());
        self.stats = stats;
    }

    /// Enumerate matches of `crule.atoms[pos..]`, with the atom at
    /// `delta_pos` restricted to its relation's delta row range, emitting
    /// head tuples into `out`. Candidate rows are visited in arena
    /// (first-derivation) order, which keeps the emission order identical
    /// to the naive engine's.
    #[allow(clippy::too_many_arguments)]
    fn join(
        &self,
        crule: &CompiledRule,
        pos: usize,
        delta_pos: usize,
        delta_lo: &[u32],
        snapshot: &[u32],
        bindings: &mut [u32],
        out: &mut Vec<u32>,
        stats: &mut EngineStats,
    ) {
        if pos == crule.atoms.len() {
            out.extend(crule.head.iter().map(|p| match p {
                KeyPart::Const(c) => *c,
                KeyPart::Slot(s) => bindings[*s as usize],
            }));
            stats.considered += 1;
            return;
        }
        let atom = &crule.atoms[pos];
        let r = &self.relations[atom.rel.index()];
        let lo = if pos == delta_pos {
            delta_lo[atom.rel.index()]
        } else {
            0
        };
        let hi = snapshot[atom.rel.index()];

        let visit = |row_id: u32,
                     this: &Self,
                     bindings: &mut [u32],
                     out: &mut Vec<u32>,
                     stats: &mut EngineStats| {
            let row = r.row(row_id);
            for (col, action) in atom.actions.iter().enumerate() {
                match *action {
                    ColAction::Const(c) => {
                        if row[col] != c {
                            return;
                        }
                    }
                    ColAction::Eq(slot) => {
                        if row[col] != bindings[slot as usize] {
                            return;
                        }
                    }
                    ColAction::Bind(slot) => bindings[slot as usize] = row[col],
                }
            }
            this.join(
                crule,
                pos + 1,
                delta_pos,
                delta_lo,
                snapshot,
                bindings,
                out,
                stats,
            );
        };

        if atom.mask == 0 {
            for row_id in lo..hi {
                visit(row_id, self, bindings, out, stats);
            }
        } else {
            stats.index_probes += 1;
            let h = hash_vals(atom.key.iter().map(|p| match p {
                KeyPart::Const(c) => *c,
                KeyPart::Slot(s) => bindings[*s as usize],
            }));
            let idx = &r.indexes[&atom.mask];
            debug_assert!(idx.rows_indexed >= hi, "index extended before evaluation");
            if let Some(rows) = idx.map.get(&h) {
                // Rows are ascending; restrict to [lo, hi).
                let start = rows.partition_point(|&row| row < lo);
                for &row_id in &rows[start..] {
                    if row_id >= hi {
                        break;
                    }
                    visit(row_id, self, bindings, out, stats);
                }
            }
        }
    }

    fn check_rule(&self, rule: &Rule) {
        let mut body_vars = HashSet::new();
        for atom in &rule.body {
            let r = &self.relations[atom.rel.index()];
            assert_eq!(
                atom.terms.len(),
                r.arity,
                "arity mismatch in body atom of {}",
                r.name
            );
            for t in &atom.terms {
                if let Term::Var(v) = t {
                    body_vars.insert(*v);
                }
            }
        }
        let hr = &self.relations[rule.head.rel.index()];
        assert_eq!(
            rule.head.terms.len(),
            hr.arity,
            "arity mismatch in head atom of {}",
            hr.name
        );
        for t in &rule.head.terms {
            if let Term::Var(v) = t {
                assert!(
                    body_vars.contains(v),
                    "head variable v{v} of rule for {} is unbound in the body",
                    hr.name
                );
            }
        }
    }
}

/// Compile one rule: dense slot assignment in order of first occurrence,
/// then a per-column action program and probe key for each body atom.
fn compile_rule(rule: &Rule) -> CompiledRule {
    let mut slot_of: HashMap<u8, u8> = HashMap::new();
    let slot = |v: u8, slot_of: &mut HashMap<u8, u8>| -> u8 {
        let next = slot_of.len() as u8;
        *slot_of.entry(v).or_insert(next)
    };

    let mut bound: HashSet<u8> = HashSet::new(); // slots bound by earlier atoms
    let mut atoms = Vec::with_capacity(rule.body.len());
    for atom in &rule.body {
        let mut mask = 0u32;
        let mut key = Vec::new();
        let mut actions = Vec::with_capacity(atom.terms.len());
        let mut bound_here: HashSet<u8> = HashSet::new();
        for (col, term) in atom.terms.iter().enumerate() {
            match *term {
                Term::Const(c) => {
                    mask |= 1 << col;
                    key.push(KeyPart::Const(c));
                    actions.push(ColAction::Const(c));
                }
                Term::Var(v) => {
                    let s = slot(v, &mut slot_of);
                    if bound.contains(&s) {
                        // Bound by an earlier atom: part of the probe key.
                        mask |= 1 << col;
                        key.push(KeyPart::Slot(s));
                        actions.push(ColAction::Eq(s));
                    } else if bound_here.contains(&s) {
                        // Repeated within this atom: post-fetch equality.
                        actions.push(ColAction::Eq(s));
                    } else {
                        bound_here.insert(s);
                        actions.push(ColAction::Bind(s));
                    }
                }
            }
        }
        bound.extend(bound_here);
        atoms.push(CompiledAtom {
            rel: atom.rel,
            mask,
            key,
            actions,
        });
    }

    let head = rule
        .head
        .terms
        .iter()
        .map(|t| match *t {
            Term::Const(c) => KeyPart::Const(c),
            Term::Var(v) => KeyPart::Slot(slot(v, &mut slot_of)),
        })
        .collect();

    CompiledRule {
        head_rel: rule.head.rel,
        head,
        atoms,
        n_slots: slot_of.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u8) -> Term {
        Term::var(i)
    }

    #[test]
    fn transitive_closure() {
        let mut db = Database::new();
        let edge = db.relation("edge", 2);
        let path = db.relation("path", 2);
        for e in [[0u32, 1], [1, 2], [2, 3], [3, 4]] {
            db.insert(edge, &e);
        }
        let mut rules = RuleSet::new();
        rules
            .add(path, vec![v(0), v(1)])
            .when(edge, vec![v(0), v(1)]);
        rules
            .add(path, vec![v(0), v(2)])
            .when(path, vec![v(0), v(1)])
            .when(edge, vec![v(1), v(2)]);
        db.run(&rules);
        assert_eq!(db.len(path), 10); // 4+3+2+1
        assert!(db.contains(path, &[0, 4]));
        assert!(!db.contains(path, &[4, 0]));
    }

    #[test]
    fn fixpoint_is_idempotent() {
        let mut db = Database::new();
        let edge = db.relation("edge", 2);
        let path = db.relation("path", 2);
        db.insert(edge, &[0, 1]);
        db.insert(edge, &[1, 0]); // cycle
        let mut rules = RuleSet::new();
        rules
            .add(path, vec![v(0), v(1)])
            .when(edge, vec![v(0), v(1)]);
        rules
            .add(path, vec![v(0), v(2)])
            .when(path, vec![v(0), v(1)])
            .when(path, vec![v(1), v(2)]);
        db.run(&rules);
        let n = db.len(path);
        assert_eq!(n, 4); // {0,1}²
        db.run(&rules);
        assert_eq!(db.len(path), n);
    }

    #[test]
    fn constants_filter_joins() {
        let mut db = Database::new();
        let edge = db.relation("edge", 2);
        let from_zero = db.relation("fromZero", 1);
        db.insert(edge, &[0, 1]);
        db.insert(edge, &[5, 6]);
        let mut rules = RuleSet::new();
        rules
            .add(from_zero, vec![v(0)])
            .when(edge, vec![Term::val(0), v(0)]);
        db.run(&rules);
        assert_eq!(db.len(from_zero), 1);
        assert!(db.contains(from_zero, &[1]));
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let mut db = Database::new();
        let edge = db.relation("edge", 2);
        let self_loop = db.relation("selfLoop", 1);
        db.insert(edge, &[3, 3]);
        db.insert(edge, &[3, 4]);
        let mut rules = RuleSet::new();
        rules
            .add(self_loop, vec![v(0)])
            .when(edge, vec![v(0), v(0)]);
        db.run(&rules);
        assert_eq!(db.len(self_loop), 1);
        assert!(db.contains(self_loop, &[3]));
    }

    #[test]
    fn fact_rules_insert_constants() {
        let mut db = Database::new();
        let marker = db.relation("marker", 1);
        let mut rules = RuleSet::new();
        rules.add(marker, vec![Term::val(42)]);
        db.run(&rules);
        assert!(db.contains(marker, &[42]));
    }

    #[test]
    #[should_panic(expected = "unbound in the body")]
    fn unbound_head_var_panics() {
        let mut db = Database::new();
        let a = db.relation("a", 1);
        let b = db.relation("b", 1);
        let mut rules = RuleSet::new();
        rules.add(a, vec![v(1)]).when(b, vec![v(0)]);
        db.run(&rules);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut db = Database::new();
        let a = db.relation("a", 2);
        db.insert(a, &[1]);
    }

    #[test]
    fn three_way_join() {
        // grandparent(x, z) :- parent(x, y), parent(y, z), person(z).
        let mut db = Database::new();
        let parent = db.relation("parent", 2);
        let person = db.relation("person", 1);
        let gp = db.relation("grandparent", 2);
        db.insert(parent, &[1, 2]);
        db.insert(parent, &[2, 3]);
        db.insert(person, &[3]);
        let mut rules = RuleSet::new();
        rules
            .add(gp, vec![v(0), v(2)])
            .when(parent, vec![v(0), v(1)])
            .when(parent, vec![v(1), v(2)])
            .when(person, vec![v(2)]);
        db.run(&rules);
        assert_eq!(db.len(gp), 1);
        assert!(db.contains(gp, &[1, 3]));
    }

    #[test]
    fn incremental_inserts_then_rerun() {
        let mut db = Database::new();
        let edge = db.relation("edge", 2);
        let path = db.relation("path", 2);
        let mut rules = RuleSet::new();
        rules
            .add(path, vec![v(0), v(1)])
            .when(edge, vec![v(0), v(1)]);
        rules
            .add(path, vec![v(0), v(2)])
            .when(path, vec![v(0), v(1)])
            .when(edge, vec![v(1), v(2)]);
        db.insert(edge, &[0, 1]);
        db.run(&rules);
        assert_eq!(db.len(path), 1);
        db.insert(edge, &[1, 2]);
        db.run(&rules);
        assert!(db.contains(path, &[0, 2]));
        assert_eq!(db.len(path), 3);
    }

    #[test]
    fn deterministic_iteration_order() {
        let mut db = Database::new();
        let r = db.relation("r", 1);
        for i in (0..10).rev() {
            db.insert(r, &[i]);
        }
        let order: Vec<u32> = db.tuples(r).map(|t| t[0]).collect();
        assert_eq!(order, (0..10).rev().collect::<Vec<_>>());
    }

    #[test]
    fn diamond_derivations_deduplicate() {
        let mut db = Database::new();
        let e = db.relation("e", 2);
        let p = db.relation("p", 2);
        // two paths from 0 to 3
        for t in [[0u32, 1], [0, 2], [1, 3], [2, 3]] {
            db.insert(e, &t);
        }
        let mut rules = RuleSet::new();
        rules.add(p, vec![v(0), v(1)]).when(e, vec![v(0), v(1)]);
        rules
            .add(p, vec![v(0), v(2)])
            .when(p, vec![v(0), v(1)])
            .when(e, vec![v(1), v(2)]);
        db.run(&rules);
        assert!(db.contains(p, &[0, 3]));
        assert_eq!(db.len(p), 5); // 4 edges + (0,3) once
    }

    // ------- index/plan-specific coverage (new engine) -------

    #[test]
    fn rerun_with_unchanged_facts_is_near_zero_work() {
        let mut db = Database::new();
        let edge = db.relation("edge", 2);
        let path = db.relation("path", 2);
        for i in 0..50u32 {
            db.insert(edge, &[i, i + 1]);
        }
        let mut rules = RuleSet::new();
        rules
            .add(path, vec![v(0), v(1)])
            .when(edge, vec![v(0), v(1)]);
        rules
            .add(path, vec![v(0), v(2)])
            .when(path, vec![v(0), v(1)])
            .when(edge, vec![v(1), v(2)]);
        db.run(&rules);
        let first = *db.stats();
        assert!(first.derived > 0);
        db.run(&rules);
        let second = *db.stats();
        assert_eq!(second.derived, 0, "high-water mark skips re-derivation");
        assert_eq!(
            second.considered, 0,
            "empty deltas produce no candidate tuples at all"
        );
        assert_eq!(second.iterations, 1);
    }

    #[test]
    fn changing_rules_resets_the_high_water_mark() {
        let mut db = Database::new();
        let edge = db.relation("edge", 2);
        let path = db.relation("path", 2);
        let rev = db.relation("rev", 2);
        db.insert(edge, &[1, 2]);
        let mut rules = RuleSet::new();
        rules
            .add(path, vec![v(0), v(1)])
            .when(edge, vec![v(0), v(1)]);
        db.run(&rules);
        assert_eq!(db.len(path), 1);
        // A different rule set must see the *existing* facts as delta.
        let mut rules2 = RuleSet::new();
        rules2
            .add(rev, vec![v(1), v(0)])
            .when(edge, vec![v(0), v(1)]);
        db.run(&rules2);
        assert!(db.contains(rev, &[2, 1]));
    }

    #[test]
    fn constants_probe_indexes_correctly() {
        // Two constant columns + one variable: the probe key mixes
        // constants and bound slots.
        let mut db = Database::new();
        let t = db.relation("t", 3);
        let out = db.relation("out", 1);
        db.insert(t, &[1, 10, 100]);
        db.insert(t, &[1, 20, 100]);
        db.insert(t, &[2, 10, 100]);
        db.insert(t, &[1, 10, 200]);
        let mut rules = RuleSet::new();
        // out(z) :- t(1, 10, z).
        rules
            .add(out, vec![v(0)])
            .when(t, vec![Term::val(1), Term::val(10), v(0)]);
        db.run(&rules);
        let zs: Vec<u32> = db.tuples(out).map(|r| r[0]).collect();
        assert_eq!(zs, vec![100, 200]);
    }

    #[test]
    fn repeated_variable_across_atoms_probes_bound_slot() {
        // second(y) :- a(x, y), b(y, x): both columns of b are bound.
        let mut db = Database::new();
        let a = db.relation("a", 2);
        let b = db.relation("b", 2);
        let out = db.relation("second", 1);
        db.insert(a, &[1, 2]);
        db.insert(a, &[3, 4]);
        db.insert(b, &[2, 1]);
        db.insert(b, &[4, 9]); // mismatched x: must not join
        let mut rules = RuleSet::new();
        rules
            .add(out, vec![v(1)])
            .when(a, vec![v(0), v(1)])
            .when(b, vec![v(1), v(0)]);
        db.run(&rules);
        assert_eq!(db.len(out), 1);
        assert!(db.contains(out, &[2]));
    }

    #[test]
    fn triple_repeated_variable_within_atom() {
        let mut db = Database::new();
        let t = db.relation("t", 3);
        let out = db.relation("diag", 1);
        db.insert(t, &[7, 7, 7]);
        db.insert(t, &[7, 7, 8]);
        db.insert(t, &[1, 2, 3]);
        let mut rules = RuleSet::new();
        rules.add(out, vec![v(0)]).when(t, vec![v(0), v(0), v(0)]);
        db.run(&rules);
        assert_eq!(db.len(out), 1);
        assert!(db.contains(out, &[7]));
    }

    #[test]
    fn stats_reflect_index_usage() {
        let mut db = Database::new();
        let edge = db.relation("edge", 2);
        let path = db.relation("path", 2);
        for i in 0..20u32 {
            db.insert(edge, &[i, i + 1]);
        }
        let mut rules = RuleSet::new();
        rules
            .add(path, vec![v(0), v(1)])
            .when(edge, vec![v(0), v(1)]);
        rules
            .add(path, vec![v(0), v(2)])
            .when(path, vec![v(0), v(1)])
            .when(edge, vec![v(1), v(2)]);
        db.run(&rules);
        let s = *db.stats();
        assert!(
            s.index_probes > 0,
            "the closure rule probes edge by column 0"
        );
        assert!(s.indexes_built > 0);
        assert!(s.derived >= 20 * 21 / 2);
        assert!(s.iterations > 2);
    }

    #[test]
    fn wide_rules_fall_back_to_heap_bindings() {
        // 17 distinct variables exceed the stack-slot budget.
        let mut db = Database::new();
        let wide = db.relation("wide", 17);
        let out = db.relation("out", 17);
        let tuple: Vec<u32> = (0..17).collect();
        db.insert(wide, &tuple);
        let mut rules = RuleSet::new();
        #[allow(clippy::cast_possible_truncation)]
        let vars: Vec<Term> = (0..17).map(|i| v(i as u8)).collect();
        rules.add(out, vars.clone()).when(wide, vars);
        db.run(&rules);
        assert!(db.contains(out, &tuple));
    }
}
