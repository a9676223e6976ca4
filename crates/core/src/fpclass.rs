//! The §8.5 false-positive taxonomy.
//!
//! Surviving warnings that cannot be confirmed harmful fall into four
//! buckets in the paper, all inherent limitations of static analysis
//! rather than of the happens-before filters:
//!
//! - **path insensitivity**: a flag-guarded path makes the pair
//!   infeasible;
//! - **points-to imprecision**: merged abstract objects that are distinct
//!   at runtime;
//! - **not reachable**: a component no intent ever reaches;
//! - **missing happens-before**: UI enable/disable semantics the analysis
//!   does not model.

use nadroid_detector::UafWarning;
use nadroid_ir::Program;
use nadroid_pointsto::PointsTo;
use std::fmt;

/// §8.5 false-positive cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FpCause {
    /// One access sits under an opaque (flag) branch.
    PathInsensitivity,
    /// The accesses' base points-to sets are imprecise (non-singleton).
    PointsTo,
    /// An endpoint lives in a component unreachable from the manifest.
    NotReachable,
    /// None of the above: a happens-before order the analysis misses.
    MissingHappensBefore,
}

impl FpCause {
    /// All causes in Table 1 column order.
    #[must_use]
    pub fn all() -> &'static [FpCause] {
        &[
            FpCause::PathInsensitivity,
            FpCause::PointsTo,
            FpCause::NotReachable,
            FpCause::MissingHappensBefore,
        ]
    }
}

impl fmt::Display for FpCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FpCause::PathInsensitivity => "path-insens.",
            FpCause::PointsTo => "points-to",
            FpCause::NotReachable => "not-reach.",
            FpCause::MissingHappensBefore => "missing-HB",
        })
    }
}

/// Classify a surviving-but-unconfirmed warning into its most likely
/// false-positive cause, mirroring the paper's manual inspection order:
/// path insensitivity first (the most common source), then points-to,
/// then reachability, then missing HB.
#[must_use]
pub fn classify_fp(program: &Program, pts: &PointsTo, w: &UafWarning) -> FpCause {
    if w.use_access.ctx.opaque_depth > 0 || w.free_access.ctx.opaque_depth > 0 {
        return FpCause::PathInsensitivity;
    }
    let use_pts = pts.pts(w.use_access.method, w.use_access.base);
    let free_pts = pts.pts(w.free_access.method, w.free_access.base);
    if use_pts.len() > 1 || free_pts.len() > 1 {
        return FpCause::PointsTo;
    }
    let use_comp = program.outermost_class(program.method(w.use_access.method).owner());
    let free_comp = program.outermost_class(program.method(w.free_access.method).owner());
    let reachable = program.reachable_components();
    if !reachable[use_comp.index()] || !reachable[free_comp.index()] {
        return FpCause::NotReachable;
    }
    FpCause::MissingHappensBefore
}

/// Table 1's verdict columns for one app, over distinct (use, free)
/// pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictColumns {
    /// Harmful UAFs.
    pub harmful: usize,
    /// The other pairs by §8.5 cause, in [`FpCause::all`] order, absent
    /// causes left out.
    pub fp: Vec<(FpCause, usize)>,
}

impl VerdictColumns {
    /// `harmful` harmful pairs, and one other pair per entry of `causes`.
    #[must_use]
    pub fn new(harmful: usize, causes: &[FpCause]) -> Self {
        let fp = FpCause::all()
            .iter()
            .map(|&c| (c, causes.iter().filter(|&&x| x == c).count()))
            .filter(|&(_, n)| n > 0)
            .collect();
        VerdictColumns { harmful, fp }
    }
}

#[cfg(test)]
mod tests {
    use nadroid_ir::parse_program;

    #[test]
    fn reachability_via_manifest_and_references() {
        let p = parse_program(
            r#"
            app R
            activity Main { cb onCreate { t1 = static Second } }
            activity Second { }
            activity Orphan { }
            manifest { main Main }
            "#,
        )
        .unwrap();
        let main = p.class_by_name("Main").unwrap();
        let second = p.class_by_name("Second").unwrap();
        let orphan = p.class_by_name("Orphan").unwrap();
        assert!(p.component_reachable(main));
        assert!(p.component_reachable(second), "statically referenced");
        assert!(!p.component_reachable(orphan));
    }

    #[test]
    fn no_manifest_means_everything_reachable() {
        let p = parse_program("app R\nactivity A { }").unwrap();
        let a = p.class_by_name("A").unwrap();
        assert!(p.component_reachable(a));
    }
}
