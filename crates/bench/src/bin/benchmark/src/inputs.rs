//! Seeded inputs and their ground truth.
//!
//! Every input is a generated corpus app. The seed XORs each
//! `AppSpec.seed` and shuffles app order: that changes the layout of
//! the program text only, while the planted pattern multiset, and so
//! the expected analysis outcome, stays fixed. The oracle is computed
//! from the planted patterns' certified expectations, never from an
//! earlier run of the analyzer.

use nadroid_core::Summary;
use nadroid_corpus::{
    generate, refute_specs, scale_specs, spec_for, table1_rows, AppSpec, Expectation, GeneratedApp,
    PatternKind,
};
use nadroid_filters::FilterKind;
use nadroid_ir::print_program;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

/// The per-app counts the oracle checks: one Table 1 row plus the
/// refuter's tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub potential: usize,
    pub after_sound: usize,
    pub after_unsound: usize,
    pub refuted: usize,
}

impl From<Summary> for Counts {
    fn from(s: Summary) -> Self {
        Counts {
            potential: s.potential,
            after_sound: s.after_sound,
            after_unsound: s.after_unsound,
            refuted: s.refuted,
        }
    }
}

impl Counts {
    /// The counts the planted patterns' expectations add up to.
    pub fn expected(planted: &[PatternKind]) -> Counts {
        let mut c = Counts::default();
        for kind in planted {
            match kind.expectation() {
                Expectation::Benign | Expectation::Undetected => {}
                Expectation::PrunedBy(f) => {
                    c.potential += 1;
                    c.after_sound += usize::from(!FilterKind::sound().contains(&f));
                }
                Expectation::Harmful(_) | Expectation::FalsePositive(_) => {
                    c.potential += 1;
                    c.after_sound += 1;
                    c.after_unsound += 1;
                }
                Expectation::Refuted(_) => {
                    c.potential += 1;
                    c.after_sound += 1;
                    c.after_unsound += 1;
                    c.refuted += 1;
                }
            }
        }
        c
    }
}

/// One generated app as the benchmark feeds it to the program: its
/// printed DSL text and the counts the oracle expects.
pub struct App {
    pub name: String,
    pub text: String,
    pub expected: Counts,
}

/// The layout seed for `seed`: the same for every app of a run.
fn layout_mask(seed: u64) -> u64 {
    StdRng::seed_from_u64(seed).next_u64()
}

/// `spec` with its layout reseeded by `seed`.
fn reseed(spec: AppSpec, seed: u64) -> AppSpec {
    AppSpec {
        seed: spec.seed ^ layout_mask(seed),
        ..spec
    }
}

/// Generate one spec and print it.
pub fn build(spec: &AppSpec) -> (GeneratedApp, App) {
    let generated = generate(spec);
    let app = App {
        name: spec.name.clone(),
        text: print_program(&generated.program),
        expected: Counts::expected(&generated.planted),
    };
    (generated, app)
}

/// Reseed and shuffle `specs` for `seed`.
fn seeded(mut specs: Vec<AppSpec>, seed: u64) -> Vec<AppSpec> {
    specs = specs.into_iter().map(|s| reseed(s, seed)).collect();
    specs.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed));
    specs
}

/// The 27 Table 1 apps (`smoke`: three small ones).
pub fn paper_specs(seed: u64, smoke: bool) -> Vec<AppSpec> {
    let rows = table1_rows()
        .into_iter()
        .filter(|r| !smoke || ["Dns66", "Aard", "Solitaire"].contains(&r.name));
    seeded(rows.map(|r| spec_for(&r)).collect(), seed)
}

/// The paper apps named in `names`, in that order, reseeded.
pub fn named_paper_specs(names: &[&str], seed: u64) -> Vec<AppSpec> {
    let rows = table1_rows();
    names
        .iter()
        .map(|n| {
            let row = rows.iter().find(|r| r.name == *n).expect("a Table 1 app");
            reseed(spec_for(row), seed)
        })
        .collect()
}

/// `scale_specs(1000)` plus the six refutation apps (`smoke`: 20 + 6).
pub fn fleet_specs(seed: u64, smoke: bool) -> Vec<AppSpec> {
    let mut specs = scale_specs(if smoke { 20 } else { 1000 });
    specs.extend(refute_specs());
    seeded(specs, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reseeding_changes_layout_but_not_ground_truth() {
        let spec = paper_specs(1, true).remove(0);
        let (a, app_a) = build(&spec);
        let (b, app_b) = build(&reseed(spec, 2));
        assert_ne!(app_a.text, app_b.text, "layout moved");
        assert_eq!(app_a.expected, app_b.expected);
        let (mut pa, mut pb) = (a.planted, b.planted);
        pa.sort();
        pb.sort();
        assert_eq!(pa, pb);
    }
}
