//! The naive semi-naive evaluator, retained as a differential-testing
//! oracle for the column-indexed one.
//!
//! [`NaiveDatabase`] mirrors the [`Database`](crate::Database) API but
//! evaluates joins by nested scans with a `HashMap` binding environment —
//! the original (pre-index) implementation, kept byte-for-byte in
//! behavior. The property suite in `tests/differential.rs` asserts the
//! indexed engine derives exactly the same relation contents *in the
//! same first-derivation order* on randomized programs, batch runs and
//! reruns alike; any divergence is a bug in the index, never in this
//! module.
//!
//! This module is test infrastructure: it trades all performance for
//! obviousness, and nothing in the analysis pipeline should use it.

use crate::{RelId, Rule, RuleSet, Term};
use std::collections::{HashMap, HashSet};

#[derive(Debug, Default)]
struct RelationData {
    name: String,
    arity: usize,
    /// All derived tuples.
    all: HashSet<Box<[u32]>>,
    /// Insertion-ordered copy for deterministic iteration.
    ordered: Vec<Box<[u32]>>,
    /// Tuples derived in the previous semi-naive iteration.
    delta: Vec<Box<[u32]>>,
}

/// The original naive engine, API-compatible with
/// [`Database`](crate::Database) for the operations the differential
/// tests exercise.
#[derive(Debug, Default)]
pub struct NaiveDatabase {
    relations: Vec<RelationData>,
}

impl NaiveDatabase {
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
        let boxed: Box<[u32]> = tuple.into();
        if r.all.insert(boxed.clone()) {
            r.ordered.push(boxed.clone());
            r.delta.push(boxed);
            true
        } else {
            false
        }
    }

    /// Whether a tuple is present.
    #[must_use]
    pub fn contains(&self, rel: RelId, tuple: &[u32]) -> bool {
        self.relations[rel.index()].all.contains(tuple)
    }

    /// Number of tuples in a relation.
    #[must_use]
    pub fn len(&self, rel: RelId) -> usize {
        self.relations[rel.index()].all.len()
    }

    /// Whether a relation is empty.
    #[must_use]
    pub fn is_empty(&self, rel: RelId) -> bool {
        self.len(rel) == 0
    }

    /// Iterate the tuples of a relation in first-derivation order.
    pub fn tuples(&self, rel: RelId) -> impl Iterator<Item = &[u32]> + '_ {
        self.relations[rel.index()]
            .ordered
            .iter()
            .map(AsRef::as_ref)
    }

    /// Run the rules to fixpoint with semi-naive evaluation (every run
    /// restarts with the full database as delta, as the indexed engine's
    /// does).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`Database::run`](crate::Database::run).
    pub fn run(&mut self, rules: &RuleSet) {
        for rule in &rules.rules {
            self.check_rule(rule);
        }
        // Initially, everything already present counts as delta.
        for r in &mut self.relations {
            r.delta = r.ordered.clone();
        }
        loop {
            let mut new_tuples: Vec<(RelId, Box<[u32]>)> = Vec::new();
            for rule in &rules.rules {
                self.eval_rule(rule, &mut new_tuples);
            }
            for r in &mut self.relations {
                r.delta.clear();
            }
            let mut grew = false;
            for (rel, t) in new_tuples {
                let r = &mut self.relations[rel.index()];
                if r.all.insert(t.clone()) {
                    r.ordered.push(t.clone());
                    r.delta.push(t);
                    grew = true;
                }
            }
            if !grew {
                break;
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

    /// Evaluate one rule semi-naively: once per body position, restrict
    /// that atom to the delta of its relation.
    fn eval_rule(&self, rule: &Rule, out: &mut Vec<(RelId, Box<[u32]>)>) {
        if rule.body.is_empty() {
            // Fact template: all-constant head (checked).
            let tuple: Box<[u32]> = rule
                .head
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => *c,
                    Term::Var(_) => unreachable!("checked: no unbound head vars"),
                })
                .collect();
            out.push((rule.head.rel, tuple));
            return;
        }
        for delta_pos in 0..rule.body.len() {
            if self.relations[rule.body[delta_pos].rel.index()]
                .delta
                .is_empty()
            {
                continue;
            }
            let mut bindings: HashMap<u8, u32> = HashMap::new();
            self.join(rule, 0, delta_pos, &mut bindings, out);
        }
    }

    fn join(
        &self,
        rule: &Rule,
        pos: usize,
        delta_pos: usize,
        bindings: &mut HashMap<u8, u32>,
        out: &mut Vec<(RelId, Box<[u32]>)>,
    ) {
        if pos == rule.body.len() {
            let tuple: Box<[u32]> = rule
                .head
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => *c,
                    Term::Var(v) => bindings[v],
                })
                .collect();
            out.push((rule.head.rel, tuple));
            return;
        }
        let atom = &rule.body[pos];
        let r = &self.relations[atom.rel.index()];
        let source: &[Box<[u32]>] = if pos == delta_pos {
            &r.delta
        } else {
            &r.ordered
        };
        'tuples: for tuple in source {
            let mut local_bound: Vec<u8> = Vec::new();
            for (term, &value) in atom.terms.iter().zip(tuple.iter()) {
                match term {
                    Term::Const(c) => {
                        if *c != value {
                            for v in local_bound.drain(..) {
                                bindings.remove(&v);
                            }
                            continue 'tuples;
                        }
                    }
                    Term::Var(v) => match bindings.get(v) {
                        Some(&bound) if bound != value => {
                            for v in local_bound.drain(..) {
                                bindings.remove(&v);
                            }
                            continue 'tuples;
                        }
                        Some(_) => {}
                        None => {
                            bindings.insert(*v, value);
                            local_bound.push(*v);
                        }
                    },
                }
            }
            self.join(rule, pos + 1, delta_pos, bindings, out);
            for v in local_bound {
                bindings.remove(&v);
            }
        }
    }
}
