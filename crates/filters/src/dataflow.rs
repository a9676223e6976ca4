//! Intra-procedural must-allocation dataflow for the IA and MA filters.
//!
//! The intra-allocation (IA) filter prunes a UAF warning when the use's
//! callback *must* have assigned a fresh allocation to the field before
//! the use, with no intervening free (§6.1.3). The unsound
//! maybe-allocation (MA) filter additionally treats values returned by
//! custom getter methods as allocations, assuming getters never return
//! null (§6.2.2).

use nadroid_ir::{Block, Callee, FieldId, InstrId, Local, MethodId, Op, Program, Stmt};
use nadroid_pointsto::PointsTo;
use std::collections::HashSet;

/// The must-state of the tracked field at a program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Unknown,
    Alloc,
    Freed,
}

impl St {
    fn merge(self, other: St) -> St {
        if self == other {
            self
        } else {
            St::Unknown
        }
    }
}

#[derive(Debug, Clone)]
struct Flow {
    /// Locals definitely holding a fresh allocation (or non-null getter
    /// result in MA mode).
    fresh: HashSet<Local>,
    state: St,
}

impl Flow {
    fn merge(mut self, other: &Flow) -> Flow {
        self.fresh.retain(|l| other.fresh.contains(l));
        self.state = self.state.merge(other.state);
        self
    }
}

/// Configuration distinguishing IA (sound) from MA (unsound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSources {
    /// Treat results of custom getter calls as allocations (MA).
    pub getters: bool,
}

/// Whether the field access at `use_instr` (reading `base.field` inside
/// `method`) is dominated by a must-allocation of that field with no
/// intervening free.
///
/// Base locals are matched exactly or by equal non-empty points-to sets
/// (so `outer.f` patterns, which load the base into a fresh temp each
/// time, still match).
#[must_use]
pub fn must_alloc_before(
    program: &Program,
    pts: &PointsTo,
    method: MethodId,
    use_instr: InstrId,
    base: Local,
    field: FieldId,
    sources: AllocSources,
) -> bool {
    let mut walker = Walker {
        program,
        pts,
        method,
        use_instr,
        base,
        field,
        sources,
        verdict: None,
    };
    let mut flow = Flow {
        fresh: HashSet::new(),
        state: St::Unknown,
    };
    walker.block(program.method(method).body(), &mut flow);
    walker.verdict.unwrap_or(false)
}

struct Walker<'p> {
    program: &'p Program,
    pts: &'p PointsTo,
    method: MethodId,
    use_instr: InstrId,
    base: Local,
    field: FieldId,
    sources: AllocSources,
    verdict: Option<bool>,
}

impl Walker<'_> {
    fn same_base(&self, other: Local) -> bool {
        if other == self.base {
            return true;
        }
        let a = self.pts.pts(self.method, self.base);
        let b = self.pts.pts(self.method, other);
        !a.is_empty() && a == b
    }

    fn block(&mut self, block: &Block, flow: &mut Flow) {
        for stmt in block {
            if self.verdict.is_some() {
                return;
            }
            match stmt {
                Stmt::Instr(i) => self.instr(i.id, &i.op, flow),
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    let mut t = flow.clone();
                    let mut e = flow.clone();
                    self.block(then_blk, &mut t);
                    if self.verdict.is_some() {
                        return;
                    }
                    self.block(else_blk, &mut e);
                    if self.verdict.is_some() {
                        return;
                    }
                    *flow = t.merge(&e);
                }
                Stmt::Loop { body } => {
                    let mut b = flow.clone();
                    self.block(body, &mut b);
                    if self.verdict.is_some() {
                        return;
                    }
                    // The loop may run zero times.
                    *flow = b.merge(flow);
                }
                Stmt::Sync { body, .. } => self.block(body, flow),
            }
        }
    }

    fn instr(&mut self, id: InstrId, op: &Op, flow: &mut Flow) {
        if id == self.use_instr {
            self.verdict = Some(flow.state == St::Alloc);
            return;
        }
        match op {
            Op::New { dst, .. } => {
                flow.fresh.insert(*dst);
            }
            Op::Move { dst, src } => {
                if flow.fresh.contains(src) {
                    flow.fresh.insert(*dst);
                } else {
                    flow.fresh.remove(dst);
                }
            }
            Op::Store { base, field, src } => {
                if *field == self.field && self.same_base(*base) {
                    flow.state = if flow.fresh.contains(src) {
                        St::Alloc
                    } else {
                        St::Unknown
                    };
                }
                flow.fresh.remove(base); // storing into it doesn't unfresh, but be safe
            }
            Op::StoreNull { base, field } if *field == self.field && self.same_base(*base) => {
                flow.state = St::Freed;
            }
            Op::Load { dst, .. } => {
                flow.fresh.remove(dst);
            }
            Op::Null { dst } => {
                flow.fresh.remove(dst);
            }
            Op::LoadStatic { dst, .. } => {
                flow.fresh.remove(dst);
            }
            Op::Invoke { dst, callee, .. } => {
                if let Some(d) = dst {
                    let getter_result = self.sources.getters
                        && matches!(callee, Callee::Method(m)
                            if self.program.method(*m).getter_of().is_some());
                    if getter_result {
                        flow.fresh.insert(*d);
                    } else {
                        flow.fresh.remove(d);
                    }
                }
                // A call into analyzed code that may free the tracked
                // field clobbers the must-state.
                if let Callee::Method(m) = callee {
                    if may_free_field(self.program, *m, self.field) {
                        flow.state = St::Unknown;
                    }
                }
            }
            _ => {}
        }
    }
}

/// Whether `method` (or a plain method it transitively calls) contains a
/// free of `field`.
fn may_free_field(program: &Program, method: MethodId, field: FieldId) -> bool {
    let methods = nadroid_threadify::own_methods(program, method);
    methods.iter().any(|&m| {
        let mut found = false;
        program.method(m).body().for_each_instr(&mut |i| {
            if let Op::StoreNull { field: f, .. } = i.op {
                if f == field {
                    found = true;
                }
            }
        });
        found
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nadroid_ir::parse_program;

    const NO_GETTERS: AllocSources = AllocSources { getters: false };
    const WITH_GETTERS: AllocSources = AllocSources { getters: true };

    /// Find the first Load of the named field in the named method.
    fn find_use(p: &Program, class: &str, method: &str) -> (MethodId, InstrId, Local, FieldId) {
        let c = p.class_by_name(class).unwrap();
        let m = p.method_by_name(c, method).unwrap();
        let mut found = None;
        p.method(m).body().for_each_instr(&mut |i| {
            if found.is_none() {
                if let Op::Load { base, field, .. } = i.op {
                    if p.field(field).name() != nadroid_ir::OUTER_FIELD {
                        found = Some((i.id, base, field));
                    }
                }
            }
        });
        let (id, base, field) = found.expect("no load found");
        (m, id, base, field)
    }

    fn pts_of(p: &Program) -> PointsTo {
        let t = nadroid_threadify::ThreadModel::build(p);
        PointsTo::run(p, &t, 2)
    }

    #[test]
    fn straight_line_alloc_dominates() {
        let p = parse_program(
            r#"
            app A
            activity M {
                field f: M
                cb onClick { f = new M  use f }
            }
            "#,
        )
        .unwrap();
        let pts = pts_of(&p);
        let (m, id, base, field) = find_use(&p, "M", "onClick");
        assert!(must_alloc_before(&p, &pts, m, id, base, field, NO_GETTERS));
    }

    #[test]
    fn alloc_on_one_branch_only_is_not_must() {
        let p = parse_program(
            r#"
            app A
            activity M {
                field f: M
                cb onClick {
                    if ? { f = new M } else { }
                    use f
                }
            }
            "#,
        )
        .unwrap();
        let pts = pts_of(&p);
        let (m, id, base, field) = find_use(&p, "M", "onClick");
        assert!(!must_alloc_before(&p, &pts, m, id, base, field, NO_GETTERS));
    }

    #[test]
    fn alloc_on_both_branches_is_must() {
        let p = parse_program(
            r#"
            app A
            activity M {
                field f: M
                cb onClick {
                    if ? { f = new M } else { f = new M }
                    use f
                }
            }
            "#,
        )
        .unwrap();
        let pts = pts_of(&p);
        let (m, id, base, field) = find_use(&p, "M", "onClick");
        assert!(must_alloc_before(&p, &pts, m, id, base, field, NO_GETTERS));
    }

    #[test]
    fn intervening_free_kills_alloc() {
        let p = parse_program(
            r#"
            app A
            activity M {
                field f: M
                cb onClick { f = new M  f = null  use f }
            }
            "#,
        )
        .unwrap();
        let pts = pts_of(&p);
        let (m, id, base, field) = find_use(&p, "M", "onClick");
        assert!(!must_alloc_before(&p, &pts, m, id, base, field, NO_GETTERS));
    }

    #[test]
    fn loop_may_skip_alloc() {
        let p = parse_program(
            r#"
            app A
            activity M {
                field f: M
                cb onClick {
                    loop { f = new M }
                    use f
                }
            }
            "#,
        )
        .unwrap();
        let pts = pts_of(&p);
        let (m, id, base, field) = find_use(&p, "M", "onClick");
        assert!(!must_alloc_before(&p, &pts, m, id, base, field, NO_GETTERS));
    }

    #[test]
    fn getter_counts_only_in_ma_mode() {
        let p = parse_program(
            r#"
            app A
            activity M {
                field f: M
                field src: M
                fn getF { useret src }
                cb onClick { f = call getF  use f }
            }
            "#,
        )
        .unwrap();
        let pts = pts_of(&p);
        // The first load in onClick is the getter's `useret src`? No — the
        // getter body belongs to getF. In onClick the first load is `use f`.
        let (m, id, base, field) = find_use(&p, "M", "onClick");
        assert_eq!(p.field(field).name(), "f");
        assert!(!must_alloc_before(&p, &pts, m, id, base, field, NO_GETTERS));
        assert!(must_alloc_before(
            &p,
            &pts,
            m,
            id,
            base,
            field,
            WITH_GETTERS
        ));
    }

    #[test]
    fn callee_that_frees_clobbers() {
        let p = parse_program(
            r#"
            app A
            activity M {
                field f: M
                fn clear { f = null }
                cb onClick { f = new M  call clear  use f }
            }
            "#,
        )
        .unwrap();
        let pts = pts_of(&p);
        let (m, id, base, field) = find_use(&p, "M", "onClick");
        assert!(!must_alloc_before(&p, &pts, m, id, base, field, NO_GETTERS));
    }
}
