//! Static UAF ordering-violation detection (§5).
//!
//! After threadification, nAdroid applies a Chord-style static race
//! detector restricted to use-after-free pairs:
//!
//! - a **use** is a `getfield` ([`nadroid_ir::Op::Load`]);
//! - a **free** is a `putfield null` ([`nadroid_ir::Op::StoreNull`]);
//! - a pair is racy when the two accesses target the same field of a
//!   possibly-aliased, thread-escaping object from two different modeled
//!   threads.
//!
//! Following §5's modifications to Chord: lockset analysis is *not*
//! applied up front (locks provide atomicity, not ordering — UAFs happen
//! with or without locks) and MHP analysis is replaced by the
//! Android-specific happens-before filters of the filter crate. Eager
//! lockset pruning is still available behind [`DetectorOptions`] for
//! ablation studies.
//!
//! Each [`UafWarning`] is its own witness: its two accesses, their
//! threads and the objects they share are every fact the warning's
//! Datalog derivation (`nadroid explain`) is built from, in
//! `nadroid-core`'s `provenance` module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nadroid_ir::walk::{self, InstrCtx};
use nadroid_ir::{FieldId, Fnv64, InstrId, Local, MethodId, Op, Program};
use nadroid_pointsto::{Escape, ObjId, PointsTo};
use nadroid_threadify::{ThreadId, ThreadModel};
use std::hash::Hasher as _;

/// Whether an access reads (use) or nulls (free) the field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// `getfield` — reads the field.
    Use,
    /// `putfield null` — frees the field.
    Free,
}

/// How the value loaded by a use is consumed inside its method — the
/// information behind the unsound used-for-return (UR) filter (§6.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UseConsumption {
    /// The loaded value is dereferenced (a method is invoked on it):
    /// a null here throws `NullPointerException`.
    Dereferenced,
    /// The value only flows to `return` and/or argument positions —
    /// commonly benign (the UR filter prunes these).
    ReturnOrArgOnly,
    /// The value is never consumed.
    Unused,
}

/// One field access with its structured context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// The access instruction.
    pub instr: InstrId,
    /// Its enclosing method.
    pub method: MethodId,
    /// The accessed field.
    pub field: FieldId,
    /// The local holding the base object.
    pub base: Local,
    /// Use or free.
    pub kind: AccessKind,
    /// Guards and locks dominating the access.
    pub ctx: InstrCtx,
    /// How a use's loaded value is consumed (always `Dereferenced` for
    /// frees, which have no loaded value).
    pub consumption: UseConsumption,
}

/// A potential UAF ordering violation: a racy (use, free) pair together
/// with the modeled threads the two accesses run on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UafWarning {
    /// The racy field.
    pub field: FieldId,
    /// The use access.
    pub use_access: Access,
    /// The free access.
    pub free_access: Access,
    /// The modeled thread executing the use.
    pub use_thread: ThreadId,
    /// The modeled thread executing the free.
    pub free_thread: ThreadId,
    /// The common (aliased), thread-escaping base objects of the two
    /// accesses, ascending. Never empty. The first is the witness object
    /// of the warning's derivation.
    pub shared_objs: Vec<ObjId>,
}

impl UafWarning {
    /// The (use instr, free instr) pair identifying this warning
    /// independent of thread origins — Table 1 counts distinct pairs.
    #[must_use]
    pub fn pair(&self) -> (InstrId, InstrId) {
        (self.use_access.instr, self.free_access.instr)
    }
}

/// Detector configuration (§5's Chord modifications, exposed for
/// ablation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorOptions {
    /// Apply lockset pruning up front: drop pairs whose accesses hold a
    /// common must-lock. The paper argues this is wrong for UAFs
    /// (§5, second modification); default false, available for ablation.
    pub eager_lockset: bool,
}

/// Collect every use and free access of a program, with contexts.
#[must_use]
pub fn collect_accesses(program: &Program) -> Vec<Access> {
    let mut out = Vec::new();
    for (mid, _) in program.methods() {
        walk::walk_method(program, mid, &mut |instr, ctx| match instr.op {
            Op::Load { dst, base, field } => {
                out.push(Access {
                    instr: instr.id,
                    method: mid,
                    field,
                    base,
                    kind: AccessKind::Use,
                    ctx: ctx.clone(),
                    consumption: consumption_of(program, mid, dst),
                });
            }
            Op::StoreNull { base, field } => {
                out.push(Access {
                    instr: instr.id,
                    method: mid,
                    field,
                    base,
                    kind: AccessKind::Free,
                    ctx: ctx.clone(),
                    consumption: UseConsumption::Dereferenced,
                });
            }
            _ => {}
        });
    }
    out
}

/// Classify how `local` (the destination of a use) is consumed in its
/// method.
fn consumption_of(program: &Program, method: MethodId, local: Local) -> UseConsumption {
    let mut deref = false;
    let mut ret_or_arg = false;
    program
        .method(method)
        .body()
        .for_each_instr(&mut |i| match &i.op {
            Op::Invoke { recv, args, .. } => {
                if *recv == Some(local) {
                    deref = true;
                }
                if args.contains(&local) {
                    ret_or_arg = true;
                }
            }
            Op::Return { val: Some(v) } if *v == local => ret_or_arg = true,
            Op::Load { base, .. } | Op::StoreNull { base, .. } if *base == local => deref = true,
            Op::Store { base, src, .. } => {
                if *base == local {
                    deref = true;
                }
                if *src == local {
                    ret_or_arg = true;
                }
            }
            _ => {}
        });
    if deref {
        UseConsumption::Dereferenced
    } else if ret_or_arg {
        UseConsumption::ReturnOrArgOnly
    } else {
        UseConsumption::Unused
    }
}

/// Uses per parallel chunk of the pair scan. Small enough that the big
/// suite apps (hundreds of uses) split across workers, large enough
/// that per-chunk bookkeeping stays invisible next to the O(uses ×
/// frees) scan each chunk performs.
const PAIR_CHUNK_USES: usize = 32;

/// Run UAF detection: every racy (use, free, use-thread, free-thread)
/// combination that survives aliasing, escape, and (optionally) lockset
/// checks.
#[must_use]
pub fn detect(
    program: &Program,
    threads: &ThreadModel,
    pts: &PointsTo,
    escape: &Escape,
    options: DetectorOptions,
) -> Vec<UafWarning> {
    let accesses = collect_accesses(program);
    let uses: Vec<&Access> = accesses
        .iter()
        .filter(|a| a.kind == AccessKind::Use)
        .collect();
    let frees: Vec<&Access> = accesses
        .iter()
        .filter(|a| a.kind == AccessKind::Free)
        .collect();

    // The candidate pair space is partitioned by use index into
    // contiguous chunks; each worker scans its chunk against the shared
    // immutable points-to and escape state and the per-chunk results are
    // concatenated in chunk order — byte-identical to the sequential
    // nested loop at any thread count (see docs/parallelism.md).
    let chunks = nadroid_par::map_chunks(uses.len(), PAIR_CHUNK_USES, |range| {
        let mut pairs_examined = 0u64;
        let mut out = Vec::new();
        for u in &uses[range] {
            for f in &frees {
                pairs_examined += 1;
                if u.field != f.field || u.instr == f.instr {
                    continue;
                }
                let shared: Vec<ObjId> = pts
                    .common_objs((u.method, u.base), (f.method, f.base))
                    .into_iter()
                    .filter(|&o| escape.is_shared(o))
                    .collect();
                if shared.is_empty() {
                    continue;
                }
                if options.eager_lockset && common_must_lock(pts, u, f) {
                    continue;
                }
                for &tu in threads.threads_of_method(u.method) {
                    for &tf in threads.threads_of_method(f.method) {
                        if tu == tf {
                            continue;
                        }
                        out.push(UafWarning {
                            field: u.field,
                            use_access: (*u).clone(),
                            free_access: (*f).clone(),
                            use_thread: tu,
                            free_thread: tf,
                            shared_objs: shared.clone(),
                        });
                    }
                }
            }
        }
        (out, pairs_examined)
    });
    let mut pairs_examined = 0u64;
    let mut out = Vec::new();
    for (warnings, pairs) in chunks {
        out.extend(warnings);
        pairs_examined += pairs;
    }
    if nadroid_obs::recording() {
        nadroid_obs::counter("detector.uses", uses.len() as u64);
        nadroid_obs::counter("detector.frees", frees.len() as u64);
        nadroid_obs::counter("detector.pairs_examined", pairs_examined);
        nadroid_obs::counter("detector.warnings", out.len() as u64);
        nadroid_obs::counter("detector.racy_pairs", distinct_pairs(&out) as u64);
    }
    out
}

/// [`detect`], kept only because the repository benchmark calls it with
/// `None` as its last argument. No value can be passed there, so it
/// always forwards to [`detect`]. Delete it with the next change under
/// the benchmark's path.
#[must_use]
pub fn detect_with(
    program: &Program,
    threads: &ThreadModel,
    pts: &PointsTo,
    escape: &Escape,
    options: DetectorOptions,
    _never: Option<std::convert::Infallible>,
) -> Vec<UafWarning> {
    detect(program, threads, pts, escape, options)
}

/// Whether two accesses hold a common must-lock object.
#[must_use]
pub fn common_must_lock(pts: &PointsTo, a: &Access, b: &Access) -> bool {
    let la: Vec<_> = a
        .ctx
        .locks
        .iter()
        .filter_map(|&l| pts.must_lock(a.method, l))
        .collect();
    b.ctx
        .locks
        .iter()
        .filter_map(|&l| pts.must_lock(b.method, l))
        .any(|o| la.contains(&o))
}

/// Count distinct (use, free) instruction pairs among warnings — the
/// granularity of Table 1's potential-UAF column.
#[must_use]
pub fn distinct_pairs(warnings: &[UafWarning]) -> usize {
    let mut pairs: Vec<(InstrId, InstrId)> = warnings.iter().map(UafWarning::pair).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs.len()
}

/// A stable, content-derived warning identifier: `w:` plus 16 hex digits
/// of an FNV-1a hash over the racy field, the rendered use/free sites,
/// and both thread lineages. Built from rendered names rather than raw
/// ids, so the same warning keeps its id across reruns, parallel suite
/// ordering, and unrelated program edits that renumber instructions.
#[must_use]
pub fn warning_id(program: &Program, threads: &ThreadModel, w: &UafWarning) -> String {
    let field = format!(
        "{}.{}",
        program.class(program.field(w.field).owner()).name(),
        program.field(w.field).name()
    );
    let mut h = Fnv64::default();
    for part in [
        field.as_str(),
        &program.describe_instr(w.use_access.instr),
        &program.describe_instr(w.free_access.instr),
        &threads.lineage_string(program, w.use_thread),
        &threads.lineage_string(program, w.free_thread),
    ] {
        h.write(part.as_bytes());
        // Separate components so ("ab","c") and ("a","bc") differ.
        h.write_u8(0x1f);
    }
    format!("w:{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadroid_ir::parse_program;
    use nadroid_ir::Program;

    fn run(src: &str) -> (Program, ThreadModel, Vec<UafWarning>) {
        let p = parse_program(src).unwrap_or_else(|e| panic!("{e}"));
        let t = ThreadModel::build(&p);
        let pts = PointsTo::run(&p, &t, 2);
        let esc = Escape::compute(&p, &t, &pts);
        let w = detect(&p, &t, &pts, &esc, DetectorOptions::default());
        (p, t, w)
    }

    const CONNECTBOT_A: &str = r#"
        app ConnectBotA
        activity Console {
            field bound: Console
            cb onCreate              { bind this }
            cb onServiceConnected    { bound = new Console }
            cb onServiceDisconnected { bound = null }
            cb onCreateContextMenu   { use bound }
        }
    "#;

    #[test]
    fn detects_figure1a_uaf() {
        let (_p, _t, w) = run(CONNECTBOT_A);
        assert!(!w.is_empty(), "the ConnectBot UAF must be detected");
        assert_eq!(distinct_pairs(&w), 1);
    }

    #[test]
    fn different_fields_do_not_pair() {
        let (_p, _t, w) = run(r#"
            app D
            activity Main {
                field a: Main
                field b: Main
                cb onClick { use a }
                cb onPause { b = null }
            }
            "#);
        assert!(w.is_empty());
    }

    #[test]
    fn unaliased_bases_do_not_pair() {
        // Two different holder objects: freeing one's field cannot break
        // uses of the other's.
        let (_p, _t, w) = run(r#"
            app U
            activity Main {
                field x: Holder
                field y: Holder
                cb onCreate {
                    x = new Holder
                    y = new Holder
                }
                cb onClick {
                    t2 = load this Main.x
                    t3 = load t2 Holder.v
                    call opaque(recv=t3)
                }
                cb onPause {
                    t2 = load this Main.y
                    free t2 Holder.v
                }
            }
            class Holder { field v }
            "#);
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn same_thread_accesses_do_not_pair() {
        let (_p, _t, w) = run(r#"
            app S
            activity Main {
                field f: Main
                cb onClick { use f  f = null }
            }
            "#);
        assert!(w.is_empty(), "use and free in one callback are ordered");
    }

    #[test]
    fn cross_class_uaf_detected() {
        // The FireFox Figure 1(c) shape: a background thread frees a field
        // of the activity while a callback uses it.
        let (p, t, w) = run(r#"
            app FF
            activity Main {
                field jClient: Main
                cb onResume { spawn W }
                cb onPause {
                    if jClient != null { use jClient }
                }
            }
            thread W in Main {
                cb run { outer.jClient = null }
            }
            "#);
        assert!(!w.is_empty());
        let warning = &w[0];
        let free_thread = t.thread(warning.free_thread);
        assert_eq!(free_thread.kind(), nadroid_threadify::ThreadKind::Native);
        let _ = p;
    }

    #[test]
    fn consumption_classification() {
        let (p, _t, w) = run(r#"
            app C
            activity Main {
                field f: Main
                cb onClick  { useret f }
                cb onPause  { f = null }
            }
            "#);
        assert!(!w.is_empty());
        assert_eq!(w[0].use_access.consumption, UseConsumption::ReturnOrArgOnly);
        let _ = p;
    }

    #[test]
    fn guard_context_is_attached() {
        let (_p, _t, w) = run(r#"
            app G
            activity Main {
                field f: Main
                cb onClick { if f != null { use f } }
                cb onPause { f = null }
            }
            "#);
        assert!(!w.is_empty());
        let u = &w[0].use_access;
        assert!(u.ctx.guarded_non_null(u.base, u.field));
    }

    #[test]
    fn eager_lockset_prunes_locked_pairs() {
        let src = r#"
            app L
            activity Main {
                field f: Main
                field lock: Main
                cb onCreate { lock = new Main  f = new Main }
                cb onResume { spawn W }
                cb onClick { sync lock { use f } }
            }
            thread W in Main {
                cb run {
                    t1 = load this W.$outer
                    t2 = load t1 Main.lock
                    sync t2 {
                        free t1 Main.f
                    }
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        let t = ThreadModel::build(&p);
        let pts = PointsTo::run(&p, &t, 2);
        let esc = Escape::compute(&p, &t, &pts);
        let with = detect(&p, &t, &pts, &esc, DetectorOptions::default());
        let without = detect(
            &p,
            &t,
            &pts,
            &esc,
            DetectorOptions {
                eager_lockset: true,
            },
        );
        assert!(
            !with.is_empty(),
            "default keeps locked pairs (locks don't stop UAFs)"
        );
        assert!(
            without.len() < with.len(),
            "eager lockset prunes the locked pair"
        );
    }

    #[test]
    fn shared_helpers_attribute_accesses_to_every_caller() {
        // A use inside a plain helper called from two callbacks races the
        // free from *both* modeled threads.
        let (_p, t, w) = run(r#"
            app H
            activity M {
                field f: M
                fn helper { use f }
                cb onClick { call helper }
                cb onLongClick { call helper }
                cb onPause { f = null }
            }
            "#);
        assert_eq!(distinct_pairs(&w), 1, "one (use, free) instruction pair");
        let use_threads: std::collections::BTreeSet<_> = w.iter().map(|x| x.use_thread).collect();
        assert_eq!(
            use_threads.len(),
            2,
            "attributed to onClick and onLongClick"
        );
        let _ = t;
    }

    #[test]
    fn escape_requirement_prunes_confined_objects() {
        // An object reachable from only one modeled thread cannot race.
        let src = r#"
            app E
            activity Main {
                cb onClick {
                    t1 = new Holder
                    t2 = load t1 Holder.v
                    call opaque(recv=t2)
                    free t1 Holder.v
                }
            }
            class Holder { field v }
        "#;
        let p = parse_program(src).unwrap();
        let t = ThreadModel::build(&p);
        let pts = PointsTo::run(&p, &t, 2);
        let esc = Escape::compute(&p, &t, &pts);
        let w = detect(&p, &t, &pts, &esc, DetectorOptions::default());
        assert!(w.is_empty());
    }

    #[test]
    fn warning_ids_are_stable_and_distinct() {
        let (p1, t1, w1) = run(CONNECTBOT_A);
        let (p2, t2, w2) = run(CONNECTBOT_A);
        assert_eq!(w1.len(), w2.len());
        let ids1: Vec<String> = w1.iter().map(|x| warning_id(&p1, &t1, x)).collect();
        let ids2: Vec<String> = w2.iter().map(|x| warning_id(&p2, &t2, x)).collect();
        assert_eq!(ids1, ids2, "ids survive a full rerun");
        let unique: std::collections::BTreeSet<_> = ids1.iter().collect();
        assert_eq!(unique.len(), ids1.len(), "distinct warnings, distinct ids");
        for id in &ids1 {
            assert!(id.starts_with("w:") && id.len() == 18, "bad id shape {id}");
        }
    }
}
