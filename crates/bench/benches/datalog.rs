//! Datalog engine scaling: semi-naive transitive closure over chains and
//! random graphs of growing size. No analysis runs on the engine; the
//! tests solve their reference rule sets with it, so this bounds what
//! those parity checks cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nadroid_datalog::{Database, RuleSet, Term};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn closure(edges: &[(u32, u32)]) -> usize {
    let mut db = Database::new();
    let edge = db.relation("edge", 2);
    let path = db.relation("path", 2);
    for &(a, b) in edges {
        db.insert(edge, &[a, b]);
    }
    let v = Term::var;
    let mut rules = RuleSet::new();
    rules
        .add(path, vec![v(0), v(1)])
        .when(edge, vec![v(0), v(1)]);
    rules
        .add(path, vec![v(0), v(2)])
        .when(path, vec![v(0), v(1)])
        .when(edge, vec![v(1), v(2)]);
    db.run(&rules);
    db.len(path)
}

fn bench_datalog(c: &mut Criterion) {
    let mut g = c.benchmark_group("datalog_closure");
    g.sample_size(10);
    for n in [50usize, 100, 200] {
        // Chain: worst-case iteration count for semi-naive evaluation.
        let chain: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, i + 1)).collect();
        g.bench_with_input(BenchmarkId::new("chain", n), &chain, |b, edges| {
            b.iter(|| black_box(closure(edges)));
        });
        // Sparse random graph.
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let random: Vec<(u32, u32)> = (0..2 * n)
            .map(|_| {
                (
                    rng.gen_range(0..n as u32 * 4),
                    rng.gen_range(0..n as u32 * 4),
                )
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("random", n), &random, |b, edges| {
            b.iter(|| black_box(closure(edges)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_datalog);
criterion_main!(benches);
