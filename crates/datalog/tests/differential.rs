//! Differential tests: the column-indexed engine against the retained
//! naive evaluator ([`nadroid_datalog::reference::NaiveDatabase`]).
//!
//! On randomized schemas, facts, and rule sets the two engines must
//! derive exactly the same relation contents in exactly the same
//! first-derivation order, because downstream consumers (tuple →
//! dense-ID maps in the points-to baseline) depend on `tuples()` order
//! being an implementation-stable part of the API.
//!
//! Both engines start every run from a full delta, so an incremental
//! rerun after extra facts must agree on that order too.

use nadroid_datalog::reference::NaiveDatabase;
use nadroid_datalog::{Database, RelId, RuleSet, Term};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Fixed differential schema: enough arity variety to exercise probe
/// keys of one, two, and three columns.
const ARITIES: [usize; 4] = [2, 2, 1, 3];

/// A rule in generator form: head relation, head term picks, body atoms.
/// Terms are encoded as small integers and decoded against the schema so
/// a single strategy covers variables, repeated variables, and constants.
#[derive(Debug, Clone)]
struct RuleSpec {
    head_rel: usize,
    head_picks: Vec<u32>,
    body: Vec<(usize, Vec<u32>)>,
}

/// Decode a body-term pick: 0..8 → Var(pick % 4) (variables repeat often,
/// exercising intra- and inter-atom equality), 8..12 → Const(pick - 8).
fn body_term(pick: u32) -> Term {
    if pick < 8 {
        Term::var((pick % 4) as u8)
    } else {
        Term::val(pick - 8)
    }
}

fn build_rules(specs: &[RuleSpec], rels: &[RelId]) -> RuleSet {
    let mut rules = RuleSet::new();
    for spec in specs {
        // Collect the variables the body binds, in a deterministic order.
        let mut bound: Vec<u8> = Vec::new();
        for (rel, picks) in &spec.body {
            for &p in picks.iter().take(ARITIES[*rel]) {
                if let Term::Var(v) = body_term(p) {
                    if !bound.contains(&v) {
                        bound.push(v);
                    }
                }
            }
        }
        // Head terms draw from bound variables when any exist (satisfying
        // the range-restriction check), else fall back to constants.
        let head_terms: Vec<Term> = spec
            .head_picks
            .iter()
            .take(ARITIES[spec.head_rel])
            .map(|&p| {
                if !bound.is_empty() && p < 8 {
                    Term::var(bound[p as usize % bound.len()])
                } else {
                    Term::val(p % 6)
                }
            })
            .collect();
        let mut b = rules.add(rels[spec.head_rel], head_terms);
        for (rel, picks) in &spec.body {
            let terms: Vec<Term> = picks
                .iter()
                .take(ARITIES[*rel])
                .map(|&p| body_term(p))
                .collect();
            b = b.when(rels[*rel], terms);
        }
        let _ = b;
    }
    rules
}

fn rule_spec_strategy() -> impl Strategy<Value = RuleSpec> {
    (
        0usize..ARITIES.len(),
        prop::collection::vec(0u32..12, 3..=3),
        prop::collection::vec(
            (
                0usize..ARITIES.len(),
                prop::collection::vec(0u32..12, 3..=3),
            ),
            1..4,
        ),
    )
        .prop_map(|(head_rel, head_picks, body)| RuleSpec {
            head_rel,
            head_picks,
            body,
        })
}

fn facts_strategy() -> impl Strategy<Value = Vec<(usize, Vec<u32>)>> {
    prop::collection::vec(
        (0usize..ARITIES.len(), prop::collection::vec(0u32..6, 3..=3)),
        0..30,
    )
}

fn setup(
    facts: &[(usize, Vec<u32>)],
    specs: &[RuleSpec],
) -> (Database, NaiveDatabase, Vec<RelId>, RuleSet) {
    let mut fast = Database::new();
    let mut naive = NaiveDatabase::new();
    let rels: Vec<RelId> = ARITIES
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let id = fast.relation(format!("r{i}"), a);
            assert_eq!(id, naive.relation(format!("r{i}"), a));
            id
        })
        .collect();
    for (rel, vals) in facts {
        let tuple = &vals[..ARITIES[*rel]];
        assert_eq!(
            fast.insert(rels[*rel], tuple),
            naive.insert(rels[*rel], tuple)
        );
    }
    let rules = build_rules(specs, &rels);
    (fast, naive, rels, rules)
}

fn ordered_tuples(db: &Database, rel: RelId) -> Vec<Vec<u32>> {
    db.tuples(rel).map(<[u32]>::to_vec).collect()
}

fn naive_ordered_tuples(db: &NaiveDatabase, rel: RelId) -> Vec<Vec<u32>> {
    db.tuples(rel).map(<[u32]>::to_vec).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Batch run: identical contents in identical first-derivation order.
    #[test]
    fn indexed_engine_matches_naive_engine_exactly(
        facts in facts_strategy(),
        specs in prop::collection::vec(rule_spec_strategy(), 1..5),
    ) {
        let (mut fast, mut naive, rels, rules) = setup(&facts, &specs);
        fast.run(&rules);
        naive.run(&rules);
        for &rel in &rels {
            prop_assert_eq!(
                ordered_tuples(&fast, rel),
                naive_ordered_tuples(&naive, rel),
                "relation {} diverged (contents or order)", rel
            );
        }
    }

    /// Incremental rerun after extra facts: identical contents in
    /// identical first-derivation order, and a further rerun changes
    /// nothing.
    #[test]
    fn incremental_rerun_matches_naive_contents(
        facts in facts_strategy(),
        extra in facts_strategy(),
        specs in prop::collection::vec(rule_spec_strategy(), 1..4),
    ) {
        let (mut fast, mut naive, rels, rules) = setup(&facts, &specs);
        fast.run(&rules);
        naive.run(&rules);
        for (rel, vals) in &extra {
            let tuple = &vals[..ARITIES[*rel]];
            fast.insert(rels[*rel], tuple);
            naive.insert(rels[*rel], tuple);
        }
        fast.run(&rules);
        naive.run(&rules);
        for &rel in &rels {
            let f: BTreeSet<Vec<u32>> = fast.tuples(rel).map(<[u32]>::to_vec).collect();
            let n: BTreeSet<Vec<u32>> = naive.tuples(rel).map(<[u32]>::to_vec).collect();
            prop_assert_eq!(f, n, "relation {} contents diverged after rerun", rel);
            prop_assert_eq!(
                ordered_tuples(&fast, rel),
                naive_ordered_tuples(&naive, rel),
                "relation {} order diverged after rerun", rel
            );
        }
        // And rerunning a fixpoint derives nothing.
        let all = |db: &Database| -> Vec<Vec<Vec<u32>>> {
            rels.iter().map(|&rel| ordered_tuples(db, rel)).collect()
        };
        let before = all(&fast);
        fast.run(&rules);
        prop_assert_eq!(before, all(&fast));
    }
}

/// Deterministic regression cases that have historically been the sharp
/// edges of index-backed evaluation.
mod fixed_cases {
    use super::*;

    fn both() -> (Database, NaiveDatabase) {
        (Database::new(), NaiveDatabase::new())
    }

    #[test]
    fn constant_only_probe_key() {
        let (mut fast, mut naive) = both();
        let t_f = fast.relation("t", 2);
        let o_f = fast.relation("o", 1);
        let t_n = naive.relation("t", 2);
        let o_n = naive.relation("o", 1);
        for tup in [[5u32, 1], [5, 2], [6, 3]] {
            fast.insert(t_f, &tup);
            naive.insert(t_n, &tup);
        }
        let v = Term::var;
        let mut rules = RuleSet::new();
        rules
            .add(o_f, vec![v(0)])
            .when(t_f, vec![Term::val(5), v(0)]);
        fast.run(&rules);
        let mut nrules = RuleSet::new();
        nrules
            .add(o_n, vec![v(0)])
            .when(t_n, vec![Term::val(5), v(0)]);
        naive.run(&nrules);
        assert_eq!(
            fast.tuples(o_f).collect::<Vec<_>>(),
            naive.tuples(o_n).collect::<Vec<_>>()
        );
    }

    #[test]
    fn repeated_variables_inside_and_across_atoms() {
        let (mut fast, mut naive) = both();
        let a_f = fast.relation("a", 3);
        let b_f = fast.relation("b", 2);
        let o_f = fast.relation("o", 2);
        let a_n = naive.relation("a", 3);
        let b_n = naive.relation("b", 2);
        let o_n = naive.relation("o", 2);
        for tup in [[1u32, 1, 2], [1, 2, 2], [3, 3, 4]] {
            fast.insert(a_f, &tup);
            naive.insert(a_n, &tup);
        }
        for tup in [[2u32, 1], [4, 3], [4, 9]] {
            fast.insert(b_f, &tup);
            naive.insert(b_n, &tup);
        }
        let v = Term::var;
        // o(x, y) :- a(x, x, y), b(y, x).
        let mut rules = RuleSet::new();
        rules
            .add(o_f, vec![v(0), v(1)])
            .when(a_f, vec![v(0), v(0), v(1)])
            .when(b_f, vec![v(1), v(0)]);
        fast.run(&rules);
        let mut nrules = RuleSet::new();
        nrules
            .add(o_n, vec![v(0), v(1)])
            .when(a_n, vec![v(0), v(0), v(1)])
            .when(b_n, vec![v(1), v(0)]);
        naive.run(&nrules);
        assert_eq!(
            fast.tuples(o_f).collect::<Vec<_>>(),
            naive.tuples(o_n).collect::<Vec<_>>()
        );
        assert!(fast.contains(o_f, &[1, 2]));
    }

    #[test]
    fn empty_delta_relations_are_skipped_without_derivation() {
        let (mut fast, _) = both();
        let a = fast.relation("a", 1);
        let b = fast.relation("b", 1);
        let o = fast.relation("o", 1);
        fast.insert(a, &[1]);
        // b stays empty: the two-atom rule can never fire, and the run
        // must still terminate after one sterile iteration.
        let v = Term::var;
        let mut rules = RuleSet::new();
        rules
            .add(o, vec![v(0)])
            .when(a, vec![v(0)])
            .when(b, vec![v(0)]);
        fast.run(&rules);
        assert!(fast.is_empty(o));
    }
}
