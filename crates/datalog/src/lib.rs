//! A semi-naive, bottom-up Datalog evaluator with one index per column.
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
//! # Evaluation
//!
//! Each relation keeps its tuples in first-derivation order, a set of
//! them for deduplication and, per column, each value's ascending row
//! ids; an insert updates all three. Every [`Database::run`] starts with
//! every tuple as the delta. A round evaluates each rule once per body
//! atom, with that atom restricted to the rows the previous round added,
//! and the run stops after a round that adds nothing. A body atom probes
//! the column of its first known term (a constant or a variable an
//! earlier atom bound) within its row range, and checks the other
//! columns against an array of bindings indexed by variable.
//!
//! [`reference::NaiveDatabase`] evaluates the same rounds by nested scans
//! over a map of bindings, and the differential suite asserts that both
//! derive identical relation contents *in identical first-derivation
//! order*.
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
use std::ops::Range;

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

#[derive(Debug, Default)]
struct RelationData {
    name: String,
    arity: usize,
    /// Row `i` is `data[i*arity .. (i+1)*arity]`, in first-derivation
    /// order (the `tuples()` order).
    data: Vec<u32>,
    /// Every tuple once, for deduplication and `contains`.
    set: HashSet<Box<[u32]>>,
    /// Per column, each value's row ids in ascending order.
    columns: Vec<HashMap<u32, Vec<u32>>>,
}

impl RelationData {
    #[allow(clippy::cast_possible_truncation)]
    fn rows(&self) -> u32 {
        (self.data.len() / self.arity) as u32
    }

    fn row(&self, r: u32) -> &[u32] {
        let start = r as usize * self.arity;
        &self.data[start..start + self.arity]
    }

    /// Insert a tuple if absent; returns true when new.
    fn insert(&mut self, tuple: &[u32]) -> bool {
        if self.set.contains(tuple) {
            return false;
        }
        let row = self.rows();
        self.set.insert(tuple.into());
        self.data.extend_from_slice(tuple);
        for (column, &value) in self.columns.iter_mut().zip(tuple) {
            column.entry(value).or_default().push(row);
        }
        true
    }

    /// The ids of the rows in `range` whose column `col` holds `value`,
    /// ascending.
    fn rows_with(&self, col: usize, value: u32, range: &Range<u32>) -> &[u32] {
        let rows = self.columns[col].get(&value).map_or(&[][..], Vec::as_slice);
        let lo = rows.partition_point(|&r| r < range.start);
        let hi = rows.partition_point(|&r| r < range.end);
        &rows[lo..hi]
    }
}

/// A rule's variable bindings during a join, indexed by variable.
type Bindings = [Option<u32>; 1 << u8::BITS];

/// The value of a term under `env`, if it has one yet.
fn value(term: Term, env: &Bindings) -> Option<u32> {
    match term {
        Term::Const(c) => Some(c),
        Term::Var(v) => env[usize::from(v)],
    }
}

/// A deductive database: named relations plus fixpoint evaluation.
#[derive(Debug, Default)]
pub struct Database {
    relations: Vec<RelationData>,
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
            !self.relations.iter().any(|r| r.name == name),
            "duplicate relation name {name:?}"
        );
        let id = RelId(self.relations.len() as u32);
        self.relations.push(RelationData {
            name,
            arity,
            columns: vec![HashMap::new(); arity],
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
        r.insert(tuple)
    }

    /// Whether a tuple is present.
    #[must_use]
    pub fn contains(&self, rel: RelId, tuple: &[u32]) -> bool {
        self.relations[rel.index()].set.contains(tuple)
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

    /// Run the rules to fixpoint with semi-naive evaluation.
    ///
    /// Newly derived tuples are added to the head relations; evaluation
    /// stops when a round derives nothing new. Every run starts with all
    /// tuples as the delta, so facts inserted between runs are seen, and
    /// running twice with the same rules derives nothing the second time.
    ///
    /// # Panics
    ///
    /// Panics if a rule's head contains a variable that does not occur in
    /// its body, or atom arities mismatch their relations.
    pub fn run(&mut self, rules: &RuleSet) {
        for rule in &rules.rules {
            self.check_rule(rule);
        }
        let mut delta_lo = vec![0; self.relations.len()];
        let mut env: Bindings = [None; 1 << u8::BITS];
        let mut out = Vec::new();
        loop {
            let snapshot: Vec<u32> = self.relations.iter().map(RelationData::rows).collect();
            let mut grew = false;
            for rule in &rules.rules {
                // Once per body atom, that atom restricted to the delta;
                // a fact template (no body) once.
                for delta_pos in 0..rule.body.len().max(1) {
                    let ranges: Vec<Range<u32>> = rule
                        .body
                        .iter()
                        .enumerate()
                        .map(|(pos, atom)| {
                            let rel = atom.rel.index();
                            let lo = if pos == delta_pos { delta_lo[rel] } else { 0 };
                            lo..snapshot[rel]
                        })
                        .collect();
                    if ranges.iter().any(Range::is_empty) {
                        continue; // an empty range matches nothing
                    }
                    self.join(rule, &ranges, 0, &mut env, &mut out);
                    let head = &mut self.relations[rule.head.rel.index()];
                    for tuple in out.chunks_exact(head.arity) {
                        grew |= head.insert(tuple);
                    }
                    out.clear();
                }
            }
            if !grew {
                break;
            }
            // Next round's delta: exactly the rows derived in this one.
            delta_lo = snapshot;
        }
    }

    /// Append to `out` the head tuple of every match of `rule.body[pos..]`,
    /// atom `i` ranging over rows `ranges[i]` of its relation. Rows are
    /// visited in ascending (first-derivation) order, so the emission
    /// order is the reference engine's.
    fn join(
        &self,
        rule: &Rule,
        ranges: &[Range<u32>],
        pos: usize,
        env: &mut Bindings,
        out: &mut Vec<u32>,
    ) {
        let Some(atom) = rule.body.get(pos) else {
            out.extend(
                rule.head
                    .terms
                    .iter()
                    .map(|&t| value(t, env).expect("checked: head variables are bound")),
            );
            return;
        };
        let r = &self.relations[atom.rel.index()];
        // The variables this atom binds, unbound again after each row.
        let fresh: Vec<usize> = atom
            .terms
            .iter()
            .filter_map(|&t| match t {
                Term::Var(v) if env[usize::from(v)].is_none() => Some(usize::from(v)),
                _ => None,
            })
            .collect();
        // Probe the column of the first known term, or scan the range.
        let probe = atom
            .terms
            .iter()
            .enumerate()
            .find_map(|(col, &t)| Some((col, value(t, env)?)));
        let (probed, scanned) = match probe {
            Some((col, v)) => (r.rows_with(col, v, &ranges[pos]), 0..0),
            None => (&[][..], ranges[pos].clone()),
        };
        for row in probed.iter().copied().chain(scanned) {
            let matches = atom.terms.iter().zip(r.row(row)).all(|(&t, &v)| match t {
                Term::Const(c) => c == v,
                Term::Var(x) => *env[usize::from(x)].get_or_insert(v) == v,
            });
            if matches {
                self.join(rule, ranges, pos + 1, env, out);
            }
            for &x in &fresh {
                env[x] = None;
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

    #[test]
    fn a_new_rule_set_sees_the_facts_of_earlier_runs() {
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
    fn wide_rules_bind_every_column() {
        // 17 columns, each bound to its own variable.
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
