//! The 27-application evaluation suite, calibrated to Table 1.
//!
//! We cannot ship the original APKs (no Android runtime in this
//! reproduction), so each app is a synthetic model whose *pattern mix*
//! is derived from its Table 1 row: the potential-UAF count is scaled by
//! a square root (45k warnings in K-9 Mail become ~213 planted
//! clusters), the per-app sound/unsound pruning ratios are preserved,
//! the confirmed-harmful counts are planted verbatim (they are small),
//! and the pruned mass is split across filters with the global Figure 5
//! proportions. DESIGN.md documents this substitution.

use crate::generator::{distribute, AppSpec};
use crate::patterns::PatternKind;

/// Train/test split of §8.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppGroup {
    /// The 7 CAFA applications used to design the unsound filters.
    Train,
    /// The 20 applications all headline results are computed on.
    Test,
}

/// One application's reference row from Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperRow {
    /// Application name.
    pub name: &'static str,
    /// Train or test group.
    pub group: AppGroup,
    /// Lines of code (paper).
    pub loc: usize,
    /// Entry callbacks (paper).
    pub ec: usize,
    /// Posted callbacks (paper).
    pub pc: usize,
    /// Threads (paper).
    pub threads: usize,
    /// Potential UAFs detected (paper).
    pub potential: usize,
    /// Remaining after sound filters (paper).
    pub after_sound: usize,
    /// Remaining after unsound filters (paper).
    pub after_unsound: usize,
    /// True harmful UAFs (paper).
    pub harmful: usize,
    /// Harmful pair-type mix `(EC-EC, EC-PC, PC-PC, C-RT, C-NT)` weights.
    pub harmful_mix: [f64; 5],
    /// False-positive cause mix `(path, points-to, not-reach, missing-HB)`.
    pub fp_mix: [f64; 4],
}

/// Default harmful mix (§8.4: most true UAFs involve PCs and NTs).
const HARMFUL_DEFAULT: [f64; 5] = [0.05, 0.30, 0.35, 0.05, 0.25];
/// Default FP-cause mix (§8.5: path insensitivity dominates).
const FP_DEFAULT: [f64; 4] = [0.50, 0.25, 0.10, 0.15];

macro_rules! row {
    ($name:literal, $group:ident, $loc:literal, $ec:literal, $pc:literal, $t:literal,
     $pot:literal, $sound:literal, $unsound:literal, $harm:literal) => {
        PaperRow {
            name: $name,
            group: AppGroup::$group,
            loc: $loc,
            ec: $ec,
            pc: $pc,
            threads: $t,
            potential: $pot,
            after_sound: $sound,
            after_unsound: $unsound,
            harmful: $harm,
            harmful_mix: HARMFUL_DEFAULT,
            fp_mix: FP_DEFAULT,
        }
    };
}

/// The 27 rows of Table 1.
#[must_use]
pub fn table1_rows() -> Vec<PaperRow> {
    vec![
        // --- train group (CAFA apps) ---
        row!("ToDoList", Train, 2637, 45, 1, 1, 54, 32, 0, 0),
        row!("Zxing", Train, 6453, 65, 15, 14, 263, 6, 2, 0),
        row!("Music", Train, 10518, 271, 41, 1, 19167, 2491, 207, 0),
        PaperRow {
            harmful_mix: [0.02, 0.05, 0.35, 0.08, 0.50],
            ..row!("MyTracks_1", Train, 27080, 280, 58, 38, 825, 173, 80, 29)
        },
        row!("Browser", Train, 30675, 216, 47, 53, 34185, 8077, 0, 0),
        PaperRow {
            // Table 1: 12 of 13 are PC-PC, 1 is EC-PC.
            harmful_mix: [0.0, 0.08, 0.92, 0.0, 0.0],
            ..row!("ConnectBot", Train, 32645, 105, 31, 19, 197, 33, 13, 13)
        },
        PaperRow {
            harmful_mix: [0.0, 0.0, 0.0, 0.0, 1.0],
            ..row!("FireFox", Train, 102_658, 748, 28, 135, 16546, 10004, 1540, 1)
        },
        // --- test group ---
        row!("SoundRecorder", Test, 1194, 14, 0, 1, 9, 0, 0, 0),
        row!("Swiftnotes", Test, 1571, 32, 1, 1, 0, 0, 0, 0),
        row!("PhotoAffix", Test, 1924, 52, 9, 2, 84, 10, 4, 0),
        row!("MLManager", Test, 2073, 153, 11, 10, 304, 38, 0, 0),
        row!("InstaMaterial", Test, 2248, 42, 29, 4, 6496, 544, 0, 0),
        row!("Tomdroid", Test, 2372, 24, 4, 3, 0, 0, 0, 0),
        row!("SGT_Puzzles", Test, 2944, 60, 14, 5, 591, 0, 0, 0),
        PaperRow {
            harmful_mix: [0.0, 0.2, 0.8, 0.0, 0.0],
            ..row!("Aard", Test, 3684, 53, 20, 25, 216, 111, 48, 8)
        },
        row!("ClipStack", Test, 3948, 106, 18, 2, 4, 0, 0, 0),
        row!("KissLauncher", Test, 5210, 66, 7, 13, 264, 42, 36, 0),
        row!("DashClock", Test, 10147, 67, 13, 1, 74, 1, 0, 0),
        row!("Dns66", Test, 10423, 22, 4, 6, 99, 13, 13, 0),
        row!("CleanMaster", Test, 11014, 117, 38, 12, 7, 0, 0, 0),
        row!("OmniNotes", Test, 13720, 764, 19, 22, 10360, 32, 0, 0),
        row!("Solitaire", Test, 15478, 47, 70, 2, 48, 31, 1, 0),
        row!("Mms", Test, 27578, 413, 37, 52, 10439, 3990, 1207, 0),
        PaperRow {
            harmful_mix: [0.0, 0.15, 0.85, 0.0, 0.0],
            ..row!("MyTracks_2", Test, 37031, 1029, 59, 52, 1104, 145, 71, 27)
        },
        row!("MiMangaNu", Test, 37827, 24, 9, 10, 10, 1, 0, 0),
        PaperRow {
            harmful_mix: [0.0, 0.0, 1.0, 0.0, 0.0],
            ..row!("QKSMS", Test, 56082, 225, 37, 35, 536, 171, 19, 10)
        },
        row!("K-9", Test, 78437, 499, 27, 20, 45336, 4143, 918, 0),
    ]
}

/// Scale a paper warning count to a planted-cluster count.
///
/// The default exponent is 0.5 (square root: K-9's 45k warnings become
/// ~213 clusters). Set the `NADROID_SCALE_EXP` environment variable to
/// run the suite closer to paper scale (e.g. `0.75` ≈ 3k clusters for
/// K-9; `1.0` is full scale).
#[must_use]
pub fn scale(paper: usize) -> usize {
    if paper == 0 {
        return 0;
    }
    let exp = std::env::var("NADROID_SCALE_EXP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|e| (0.1..=1.0).contains(e))
        .unwrap_or(0.5);
    (paper as f64).powf(exp).round().max(1.0) as usize
}

/// Sound-pruned mass split across sound patterns, tuned so each filter's
/// *individual* effectiveness over the suite approximates Figure 5(a)
/// (MHB 21%, IG 66%, IA 13% of potential, with the reported overlaps).
const SOUND_SPLIT: [(PatternKind, f64); 5] = [
    (PatternKind::Ig, 0.601),
    (PatternKind::Mhb, 0.084),
    (PatternKind::Ia, 0.063),
    (PatternKind::MhbIg, 0.059),
    (PatternKind::MhbIa, 0.067),
];

/// Unsound-pruned mass split, tuned to Figure 5(b) (mayHB 13% with PHB
/// dominating, MA 26%, UR 29%, TT 15%, with small overlaps).
const UNSOUND_SPLIT: [(PatternKind, f64); 7] = [
    (PatternKind::Phb, 0.09),
    (PatternKind::Rhb, 0.01),
    (PatternKind::Chb, 0.02),
    (PatternKind::Ma, 0.18),
    (PatternKind::Ur, 0.21),
    (PatternKind::MaUr, 0.07),
    (PatternKind::Tt, 0.14),
];

const HARMFUL_KINDS: [PatternKind; 5] = [
    PatternKind::HarmfulEcEc,
    PatternKind::HarmfulEcPc,
    PatternKind::HarmfulPcPc,
    PatternKind::HarmfulCRt,
    PatternKind::HarmfulCNt,
];

const FP_KINDS: [PatternKind; 4] = [
    PatternKind::FpPath,
    PatternKind::FpPointsTo,
    PatternKind::FpUnreachable,
    PatternKind::FpMissingHb,
];

/// Derive the generator spec for one Table 1 row.
#[must_use]
pub fn spec_for(row: &PaperRow) -> AppSpec {
    let potential = scale(row.potential);
    // Per-app ratios, preserved from the paper.
    let sound_ratio = if row.potential == 0 {
        0.0
    } else {
        row.after_sound as f64 / row.potential as f64
    };
    let unsound_ratio = if row.after_sound == 0 {
        0.0
    } else {
        row.after_unsound as f64 / row.after_sound as f64
    };
    let mut after_sound = (potential as f64 * sound_ratio).round() as usize;
    let mut survivors = (after_sound as f64 * unsound_ratio).round() as usize;
    // Harmful counts are planted verbatim (they are small). To keep the
    // app's pruning *ratios* intact, back-compute the earlier stages from
    // the survivor floor instead of just clamping.
    if row.harmful > survivors {
        survivors = row.harmful;
        if unsound_ratio > 0.0 {
            after_sound = after_sound.max((survivors as f64 / unsound_ratio).round() as usize);
        }
    }
    after_sound = after_sound.max(survivors);
    let mut potential = potential.max(after_sound);
    if sound_ratio > 0.0 {
        potential = potential.max((after_sound as f64 / sound_ratio).round() as usize);
    }

    let sound_pruned = potential - after_sound;
    let unsound_pruned = after_sound - survivors;
    let fp_count = survivors - row.harmful;

    let mut spec = AppSpec::new(row.name, fxhash(row.name));
    let weights: Vec<f64> = SOUND_SPLIT.iter().map(|(_, w)| *w).collect();
    for (i, n) in distribute(sound_pruned, &weights).into_iter().enumerate() {
        spec = spec.with(SOUND_SPLIT[i].0, n);
    }
    let weights: Vec<f64> = UNSOUND_SPLIT.iter().map(|(_, w)| *w).collect();
    for (i, n) in distribute(unsound_pruned, &weights).into_iter().enumerate() {
        spec = spec.with(UNSOUND_SPLIT[i].0, n);
    }
    for (i, n) in distribute(row.harmful, &row.harmful_mix)
        .into_iter()
        .enumerate()
    {
        spec = spec.with(HARMFUL_KINDS[i], n);
    }
    for (i, n) in distribute(fp_count, &row.fp_mix).into_iter().enumerate() {
        spec = spec.with(FP_KINDS[i], n);
    }
    // Background noise proportional to the app's (paper) size.
    spec = spec.with(PatternKind::Benign, (row.loc / 4000).max(1));
    spec
}

/// The synthetic population of the repository benchmark's `fleet`
/// workload (nominally 1000 apps).
///
/// Everything is a pure function of the app's index: the name, the seed
/// (via [`fxhash`] of the name, like the Table 1 suite), and a
/// heavy-tailed size class — one in 200 apps is K-9-sized (~60 planted
/// clusters), one in 50 is mid-sized, one in 10 is small-but-real, and
/// the rest are the 2–5-cluster long tail that dominates real app
/// stores. Pattern mixes reuse the Figure 5 splits so population-level
/// filter tallies stay comparable to the suite's. Calling this twice
/// (or on different machines) yields byte-identical specs; the
/// benchmark leans on that to compare runs, and the determinism suite
/// to compare thread counts.
#[must_use]
pub fn scale_specs(total: usize) -> Vec<AppSpec> {
    (0..total)
        .map(|i| {
            let name = format!("scale_{i:04}");
            let seed = fxhash(&name);
            let clusters = if i % 200 == 0 {
                60
            } else if i % 50 == 0 {
                25
            } else if i % 10 == 0 {
                12
            } else {
                2 + (seed as usize) % 4
            };
            // Roughly the suite's global shape: most planted mass is
            // sound-pruned, a band is unsound-pruned, a sliver survives.
            let sound = clusters * 6 / 10;
            let unsound = clusters * 3 / 10;
            let harmful = usize::from(i % 25 == 0);
            let fp = usize::from(i % 7 == 0);
            let mut spec = AppSpec::new(&name, seed);
            let weights: Vec<f64> = SOUND_SPLIT.iter().map(|(_, w)| *w).collect();
            for (k, n) in distribute(sound, &weights).into_iter().enumerate() {
                spec = spec.with(SOUND_SPLIT[k].0, n);
            }
            let weights: Vec<f64> = UNSOUND_SPLIT.iter().map(|(_, w)| *w).collect();
            for (k, n) in distribute(unsound, &weights).into_iter().enumerate() {
                spec = spec.with(UNSOUND_SPLIT[k].0, n);
            }
            if harmful > 0 {
                spec = spec.with(HARMFUL_KINDS[(seed >> 8) as usize % HARMFUL_KINDS.len()], 1);
            }
            if fp > 0 {
                spec = spec.with(FP_KINDS[(seed >> 16) as usize % FP_KINDS.len()], 1);
            }
            spec.with(PatternKind::Benign, 1 + (seed >> 24) as usize % 3)
        })
        .collect()
}

/// Deterministic name hash for per-app seeds.
fn fxhash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The 8 DroidRacer apps of the Table 2 false-negative study, with the
/// injected-UAF mix `(EC-EC, EC-PC, PC-PC, C-RT, C-NT)` from the table
/// and how many injections fall into the two §8.6 miss categories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedRow {
    /// Application name.
    pub name: &'static str,
    /// Injected UAFs per pair type (Table 2 columns).
    pub injected: [usize; 5],
    /// Injections replaced by the framework-laundering shape (missed by
    /// detection; Table 2 reports 2, both in Mms).
    pub missed_by_detection: usize,
    /// Injections replaced by the error-path `finish()` shape (pruned by
    /// the unsound CHB; Table 2 reports 3: 2 in Browser, 1 in Puzzles).
    pub pruned_by_unsound: usize,
}

/// The Table 2 injection study rows (28 injected UAFs in total).
#[must_use]
pub fn table2_rows() -> Vec<InjectedRow> {
    vec![
        InjectedRow {
            name: "Tomdroid",
            injected: [0, 1, 0, 0, 0],
            missed_by_detection: 0,
            pruned_by_unsound: 0,
        },
        InjectedRow {
            name: "Puzzles",
            injected: [0, 5, 0, 0, 4],
            missed_by_detection: 0,
            pruned_by_unsound: 1,
        },
        InjectedRow {
            name: "Aard",
            injected: [0, 1, 0, 0, 0],
            missed_by_detection: 0,
            pruned_by_unsound: 0,
        },
        InjectedRow {
            name: "Music",
            injected: [2, 4, 0, 0, 0],
            missed_by_detection: 0,
            pruned_by_unsound: 0,
        },
        InjectedRow {
            name: "Mms",
            injected: [0, 2, 3, 0, 1],
            missed_by_detection: 2,
            pruned_by_unsound: 0,
        },
        InjectedRow {
            name: "Browser",
            injected: [2, 0, 1, 0, 0],
            missed_by_detection: 0,
            pruned_by_unsound: 2,
        },
        InjectedRow {
            name: "MyTracks_2",
            injected: [0, 0, 1, 0, 0],
            missed_by_detection: 0,
            pruned_by_unsound: 0,
        },
        InjectedRow {
            name: "K-9",
            injected: [0, 0, 0, 1, 0],
            missed_by_detection: 0,
            pruned_by_unsound: 0,
        },
    ]
}

impl InjectedRow {
    /// Total injected UAFs.
    #[must_use]
    pub fn total(&self) -> usize {
        self.injected.iter().sum()
    }

    /// The generator spec for the injected variant of this app: the
    /// planted UAFs plus a little benign background.
    #[must_use]
    pub fn spec(&self) -> AppSpec {
        let mut spec = AppSpec::new(format!("{}_injected", self.name), fxhash(self.name));
        let mut remaining = self.injected;
        // Replace some injections with the special §8.6 miss shapes.
        let mut missed = self.missed_by_detection;
        let mut chb = self.pruned_by_unsound;
        // Misses replace PC-PC/EC-PC slots first (the Mms IBinder cases
        // were handler-mediated), CHB misses replace EC-EC/EC-PC slots.
        for slot in [2, 1, 4, 0, 3] {
            while missed > 0 && remaining[slot] > 0 {
                remaining[slot] -= 1;
                missed -= 1;
                spec = spec.with(PatternKind::MissedOpaque, 1);
            }
        }
        for slot in [0, 1, 4, 2, 3] {
            while chb > 0 && remaining[slot] > 0 {
                remaining[slot] -= 1;
                chb -= 1;
                spec = spec.with(PatternKind::ChbFalseNegative, 1);
            }
        }
        for (i, &n) in remaining.iter().enumerate() {
            spec = spec.with(HARMFUL_KINDS[i], n);
        }
        spec.with(PatternKind::Benign, 2)
    }
}

/// The refutation study corpus: six apps exercising every predicate
/// family the reachability-refutation filter can contradict, mixed
/// with kept controls and classic patterns so a Figure-5-style tally
/// shows exactly what the refutation stage prunes *beyond* the §6
/// filters. Deliberately disjoint from [`table1_rows`] — the 27 paper
/// apps contain no summarized-API calls and stay byte-identical.
#[must_use]
pub fn refute_specs() -> Vec<AppSpec> {
    vec![
        AppSpec::new("RefuteDialogs", 101)
            .with(PatternKind::RefuteDialogDismiss, 3)
            .with(PatternKind::PredicateKeptSkipPath, 1)
            .with(PatternKind::Ig, 2)
            .with(PatternKind::Benign, 1),
        AppSpec::new("RefuteAlarms", 102)
            .with(PatternKind::RefuteAlarmCancel, 2)
            .with(PatternKind::RefuteReceiverUnregister, 2)
            .with(PatternKind::Mhb, 1)
            .with(PatternKind::Benign, 1),
        AppSpec::new("RefuteServices", 103)
            .with(PatternKind::RefuteBindUnbind, 2)
            .with(PatternKind::HarmfulEcPc, 1)
            .with(PatternKind::Benign, 1),
        AppSpec::new("RefuteFragments", 104)
            .with(PatternKind::RefuteFragmentLifecycle, 3)
            .with(PatternKind::PredicateKeptLateDisable, 1)
            .with(PatternKind::Benign, 1),
        AppSpec::new("RefuteStacks", 105)
            .with(PatternKind::RefuteTaskStack, 3)
            .with(PatternKind::Ia, 1)
            .with(PatternKind::Benign, 1),
        AppSpec::new("RefuteMixed", 106)
            .with(PatternKind::RefuteDialogDismiss, 1)
            .with(PatternKind::RefuteAlarmCancel, 1)
            .with(PatternKind::RefuteReceiverUnregister, 1)
            .with(PatternKind::RefuteBindUnbind, 1)
            .with(PatternKind::RefuteFragmentLifecycle, 1)
            .with(PatternKind::RefuteTaskStack, 1)
            .with(PatternKind::PredicateKeptSkipPath, 1)
            .with(PatternKind::HarmfulEcEc, 1)
            .with(PatternKind::Ig, 1)
            .with(PatternKind::Benign, 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_seven_rows_with_correct_groups() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 27);
        assert_eq!(
            rows.iter().filter(|r| r.group == AppGroup::Train).count(),
            7
        );
        assert_eq!(
            rows.iter().filter(|r| r.group == AppGroup::Test).count(),
            20
        );
    }

    #[test]
    fn paper_harmful_total_is_88() {
        let total: usize = table1_rows().iter().map(|r| r.harmful).sum();
        assert_eq!(total, 88);
    }

    #[test]
    fn specs_reserve_room_for_harmful() {
        for row in table1_rows() {
            let spec = spec_for(&row);
            let harmful_planted: usize = spec
                .counts
                .iter()
                .filter(|(k, _)| k.is_real_uaf() && *k != PatternKind::ChbFalseNegative)
                .map(|(_, n)| n)
                .sum();
            assert_eq!(harmful_planted, row.harmful, "{}", row.name);
        }
    }

    #[test]
    fn injection_study_has_28_uafs() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 8);
        let total: usize = rows.iter().map(InjectedRow::total).sum();
        assert_eq!(total, 28);
        let missed: usize = rows.iter().map(|r| r.missed_by_detection).sum();
        let pruned: usize = rows.iter().map(|r| r.pruned_by_unsound).sum();
        assert_eq!(missed, 2);
        assert_eq!(pruned, 3);
    }

    #[test]
    fn injected_specs_preserve_totals() {
        for row in table2_rows() {
            let spec = row.spec();
            let uafs: usize = spec
                .counts
                .iter()
                .filter(|(k, _)| k.is_real_uaf() || *k == PatternKind::MissedOpaque)
                .map(|(_, n)| n)
                .sum();
            assert_eq!(uafs, row.total(), "{}", row.name);
        }
    }

    #[test]
    fn scaling_is_monotone_and_small() {
        assert_eq!(scale(0), 0);
        assert_eq!(scale(1), 1);
        assert!(scale(45336) < 250);
        assert!(scale(19167) < scale(45336));
    }

    #[test]
    fn scale_population_is_deterministic_and_heavy_tailed() {
        let a = scale_specs(1000);
        let b = scale_specs(1000);
        assert_eq!(a, b, "the population is a pure function of the index");
        assert_eq!(a.len(), 1000);
        assert_eq!(a[0].name, "scale_0000");
        // The size classes land where the index arithmetic says.
        let totals: Vec<usize> = a.iter().map(AppSpec::total).collect();
        assert!(totals[0] > totals[50], "i%200 apps dominate i%50 apps");
        assert!(totals[50] > totals[10], "i%50 apps dominate i%10 apps");
        assert!(totals[10] > totals[1], "i%10 apps dominate the tail");
        assert!(
            (2..=8).contains(&totals[1]),
            "tail apps stay small: {}",
            totals[1]
        );
        // A prefix is a prefix: growing the population never changes
        // the apps already in it.
        let small = scale_specs(100);
        assert_eq!(&a[..100], &small[..]);
    }
}
