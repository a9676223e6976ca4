//! Seeded synthetic application generator.
//!
//! An [`AppSpec`] lists how many instances of each pattern to plant; the
//! generator emits DSL text (a hub activity referencing every reachable
//! pattern activity, the pattern clusters in a seeded shuffle order, and
//! a manifest) and parses it into a [`Program`]. Because clusters race
//! only on their own fields, the app's expected analysis outcome is the
//! multiset union of its patterns' certified expectations.

use crate::patterns::{Expectation, PatternKind};
use nadroid_core::VerdictColumns;
use nadroid_ir::{parse_program, Program};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt::Write as _;

/// How many instances of each pattern an app contains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppSpec {
    /// Application name.
    pub name: String,
    /// Shuffle seed (layout only; the planted multiset fixes semantics).
    pub seed: u64,
    /// (pattern, instance count) pairs.
    pub counts: Vec<(PatternKind, usize)>,
}

impl AppSpec {
    /// A new empty spec.
    #[must_use]
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        AppSpec {
            name: name.into(),
            seed,
            counts: Vec::new(),
        }
    }

    /// Add `n` instances of a pattern (builder style).
    #[must_use]
    pub fn with(mut self, kind: PatternKind, n: usize) -> Self {
        if n > 0 {
            self.counts.push((kind, n));
        }
        self
    }

    /// Total planted pattern instances.
    #[must_use]
    pub fn total(&self) -> usize {
        self.counts.iter().map(|(_, n)| n).sum()
    }
}

/// A generated app with its planted ground truth.
#[derive(Debug)]
pub struct GeneratedApp {
    /// The parsed program.
    pub program: Program,
    /// The planted patterns, in cluster-index order (cluster `i` used
    /// suffix `i` for its names).
    pub planted: Vec<PatternKind>,
}

impl GeneratedApp {
    /// Table 1's verdict columns by construction: the planted harmful
    /// UAFs, and the causes of the planted false positives.
    #[must_use]
    pub fn planted_verdicts(&self) -> VerdictColumns {
        let mut harmful = 0;
        let mut causes = Vec::new();
        for k in &self.planted {
            match k.expectation() {
                Expectation::Harmful(_) => harmful += 1,
                Expectation::FalsePositive(c) => causes.push(c),
                _ => {}
            }
        }
        VerdictColumns::new(harmful, &causes)
    }
}

impl PatternKind {
    /// The name of the pattern's primary activity for suffix `n`.
    #[must_use]
    pub fn activity_name(self, n: usize) -> String {
        let prefix = match self {
            PatternKind::HarmfulEcEc => "EcEc",
            PatternKind::HarmfulEcPc => "EcPc",
            PatternKind::HarmfulPcPc => "PcPc",
            PatternKind::HarmfulCRt => "CRt",
            PatternKind::HarmfulCNt => "CNt",
            PatternKind::Mhb => "Mhb",
            PatternKind::Ig => "Ig",
            PatternKind::Ia => "Ia",
            PatternKind::MhbIg => "MhbIg",
            PatternKind::MhbIa => "MhbIa",
            PatternKind::Rhb => "Rhb",
            PatternKind::Chb => "Chb",
            PatternKind::Phb => "Phb",
            PatternKind::Ma => "Ma",
            PatternKind::Ur => "Ur",
            PatternKind::MaUr => "MaUr",
            PatternKind::Tt => "Tt",
            PatternKind::FpPath => "FpP",
            PatternKind::FpPointsTo => "FpQ",
            PatternKind::FpUnreachable => "FpU",
            PatternKind::FpMissingHb => "FpH",
            PatternKind::HarmfulMultiLooper => "Ml",
            PatternKind::RefuteDialogDismiss => "Rdd",
            PatternKind::RefuteAlarmCancel => "Rac",
            PatternKind::RefuteReceiverUnregister => "Rru",
            PatternKind::RefuteBindUnbind => "Rbu",
            PatternKind::RefuteFragmentLifecycle => "Rfl",
            PatternKind::RefuteTaskStack => "Rts",
            PatternKind::PredicateKeptSkipPath => "Pks",
            PatternKind::PredicateKeptLateDisable => "Pkl",
            PatternKind::MissedOpaque => "Mo",
            PatternKind::ChbFalseNegative => "Cf",
            PatternKind::Benign => "Noise",
        };
        format!("{prefix}{n}")
    }
}

/// Generate the program for a spec.
///
/// # Panics
///
/// Panics if the generated DSL fails to parse — a bug in the pattern
/// library, not in the caller.
#[must_use]
pub fn generate(spec: &AppSpec) -> GeneratedApp {
    let mut planted: Vec<PatternKind> = Vec::with_capacity(spec.total());
    for &(kind, n) in &spec.counts {
        planted.extend(std::iter::repeat_n(kind, n));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed);
    planted.shuffle(&mut rng);

    // App names go through the DSL, which only allows identifier
    // characters; sanitize (e.g. "K-9" becomes "K_9").
    let ident: String = spec
        .name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let mut src = format!("app {ident}\n");
    // Hub activity referencing every reachable pattern activity, so the
    // manifest's reachability analysis sees them; FpUnreachable clusters
    // are deliberately left unreferenced.
    src.push_str("activity Hub {\n  cb onCreate {\n");
    for (i, kind) in planted.iter().enumerate() {
        if *kind != PatternKind::FpUnreachable {
            let _ = writeln!(src, "    t1 = static {}", kind.activity_name(i));
        }
    }
    src.push_str("  }\n}\n");

    for (i, kind) in planted.iter().enumerate() {
        src.push_str(&kind.dsl(i));
    }
    src.push_str("manifest { main Hub }\n");

    let program =
        parse_program(&src).unwrap_or_else(|e| panic!("generated DSL must parse: {e}\n{src}"));
    GeneratedApp { program, planted }
}

/// Distribute `total` units over `weights` with the largest-remainder
/// method (each count is ≥ 0 and the counts sum to `total`).
#[must_use]
pub fn distribute(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    if total == 0 || sum <= 0.0 {
        return vec![0; weights.len()];
    }
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = exact[a] - exact[a].floor();
        let rb = exact[b] - exact[b].floor();
        rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut i = 0;
    while assigned < total {
        counts[order[i % order.len()]] += 1;
        assigned += 1;
        i += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = AppSpec::new("Det", 7)
            .with(PatternKind::Ig, 3)
            .with(PatternKind::HarmfulEcPc, 1)
            .with(PatternKind::Benign, 2);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.program, b.program);
        assert_eq!(a.planted, b.planted);
    }

    #[test]
    fn different_seeds_shuffle_layout_but_not_multiset() {
        let s1 = AppSpec::new("S", 1)
            .with(PatternKind::Ig, 2)
            .with(PatternKind::Ia, 2);
        let s2 = AppSpec {
            seed: 2,
            ..s1.clone()
        };
        let a = generate(&s1);
        let b = generate(&s2);
        let mut ma = a.planted.clone();
        let mut mb = b.planted.clone();
        ma.sort();
        mb.sort();
        assert_eq!(ma, mb);
    }

    #[test]
    fn hub_references_make_patterns_reachable() {
        let spec = AppSpec::new("R", 3)
            .with(PatternKind::Ig, 1)
            .with(PatternKind::FpUnreachable, 1);
        let app = generate(&spec);
        let p = &app.program;
        for (i, kind) in app.planted.iter().enumerate() {
            let act = p
                .class_by_name(&kind.activity_name(i))
                .expect("activity exists");
            let expect_reachable = *kind != PatternKind::FpUnreachable;
            assert_eq!(p.component_reachable(act), expect_reachable, "{kind:?}");
        }
    }

    #[test]
    fn distribute_sums_and_respects_zero() {
        assert_eq!(distribute(10, &[1.0, 1.0]), vec![5, 5]);
        let d = distribute(7, &[0.6, 0.3, 0.1]);
        assert_eq!(d.iter().sum::<usize>(), 7);
        assert_eq!(distribute(0, &[1.0]), vec![0]);
        assert_eq!(distribute(5, &[0.0, 0.0]), vec![0, 0]);
    }
}
