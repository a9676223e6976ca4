//! Chord-style static analyses for the threadified program (§5):
//! k-object-sensitive points-to, heap modeling, lock must-aliasing, and
//! thread-escape analysis. Points-to is a worklist solver over the
//! program's copy, load and store constraints (see `solver`), and the
//! escape analysis walks the object graph it computes.
//!
//! Both work on index tables rather than hashed keys. The solver keeps
//! one record per propagation node — its points-to set in insertion
//! order, its copy-edge successors, and its load, store and invoke use
//! lists — in a `Vec` indexed by node id, with one integer-keyed set
//! each for (node, object) facts and (from, to) edges. [`PointsTo`]
//! keeps the merged result as sorted runs: per method, its populated
//! locals with their objects; per object, its populated fields with
//! theirs. [`Escape`] walks those runs, so it visits only populated
//! locals. No table is sized by a method's declared local count.
//!
//! # Example
//!
//! ```
//! use nadroid_ir::{parse_program, Local};
//! use nadroid_threadify::ThreadModel;
//! use nadroid_pointsto::{Escape, PointsTo};
//!
//! let p = parse_program(
//!     r#"
//!     app Pts
//!     activity Main {
//!         field worker: Work
//!         cb onCreate { worker = new Work }
//!         cb onClick  { use worker }
//!     }
//!     thread Work in Main { cb run { } }
//!     "#,
//! ).unwrap();
//! let threads = ThreadModel::build(&p);
//! let pts = PointsTo::run(&p, &threads, 2);
//! let esc = Escape::compute(&p, &threads, &pts);
//! // The Work object is stored in an activity field: both callbacks reach
//! // it, so it escapes.
//! let main = p.class_by_name("Main").unwrap();
//! let on_click = p.method_by_name(main, "onClick").unwrap();
//! let loaded = pts.pts(on_click, Local(1));
//! assert_eq!(loaded.len(), 1);
//! assert!(esc.is_shared(loaded[0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod escape;
mod solver;
mod tables;

pub use analysis::PointsTo;
pub use escape::Escape;
pub use tables::{AllocKey, ObjId, ObjTable};

#[cfg(test)]
mod tests {
    use super::*;
    use nadroid_ir::{parse_program, Local, Program};
    use nadroid_threadify::ThreadModel;

    fn setup(src: &str, k: u32) -> (Program, ThreadModel, PointsTo) {
        let p = parse_program(src).unwrap_or_else(|e| panic!("{e}"));
        let t = ThreadModel::build(&p);
        let pts = PointsTo::run(&p, &t, k);
        (p, t, pts)
    }

    const FIELD_FLOW: &str = r#"
        app F
        activity Main {
            field a: Helper
            field b: Helper
            cb onCreate { a = new Helper  b = a }
            cb onClick  { use a }
            cb onPause  { use b }
        }
        class Helper { }
    "#;

    #[test]
    fn field_flow_aliases() {
        let (p, _t, pts) = setup(FIELD_FLOW, 0);
        let main = p.class_by_name("Main").unwrap();
        let click = p.method_by_name(main, "onClick").unwrap();
        let pause = p.method_by_name(main, "onPause").unwrap();
        // Both `use` loads read the same Helper object.
        assert!(pts.may_alias((click, Local(1)), (pause, Local(1))));
    }

    #[test]
    fn distinct_allocations_do_not_alias() {
        let (p, _t, pts) = setup(
            r#"
            app D
            activity Main {
                field a: Helper
                field b: Helper
                cb onCreate { a = new Helper  b = new Helper }
                cb onClick  { use a }
                cb onPause  { use b }
            }
            class Helper { }
            "#,
            0,
        );
        let main = p.class_by_name("Main").unwrap();
        let click = p.method_by_name(main, "onClick").unwrap();
        let pause = p.method_by_name(main, "onPause").unwrap();
        assert!(!pts.may_alias((click, Local(1)), (pause, Local(1))));
    }

    #[test]
    fn callback_this_binds_to_component_singleton() {
        let (p, _t, pts) = setup(FIELD_FLOW, 0);
        let main = p.class_by_name("Main").unwrap();
        let click = p.method_by_name(main, "onClick").unwrap();
        let this_pts = pts.pts(click, Local::THIS);
        assert_eq!(this_pts.len(), 1);
        assert_eq!(pts.objs().key(this_pts[0]), AllocKey::Singleton(main));
    }

    #[test]
    fn posted_runnable_this_binds_to_allocation() {
        let (p, _t, pts) = setup(
            r#"
            app P
            activity Main {
                field f: Main
                cb onClick { post R }
            }
            runnable R in Main { cb run { use outer.f } }
            "#,
            0,
        );
        let r = p.class_by_name("R").unwrap();
        let run = p.method_by_name(r, "run").unwrap();
        let this_pts = pts.pts(run, Local::THIS);
        assert_eq!(this_pts.len(), 1, "run's this = the posted R instance");
        assert_eq!(pts.objs().class(this_pts[0]), Some(r));
        // outer.f load resolves through the $outer edge to Main's singleton.
        let outer_local = Local(1); // first temp: load of $outer
        let outer_pts = pts.pts(run, outer_local);
        let main = p.class_by_name("Main").unwrap();
        assert_eq!(outer_pts.len(), 1);
        assert_eq!(pts.objs().key(outer_pts[0]), AllocKey::Singleton(main));
    }

    /// A factory helper shared by two components: context-insensitive
    /// analysis merges the two products; k ≥ 1 clones them apart.
    const FACTORY: &str = r#"
        app K
        activity A1 {
            field p: Prod
            cb onCreate { p = call make }
            fn make(params=0, locals=2) {
                t1 = new Prod
                return t1
            }
        }
        activity A2 {
            field p: Prod
            cb onCreate { p = call make }
            fn make(params=0, locals=2) {
                t1 = new Prod
                return t1
            }
        }
        class Prod { }
    "#;

    // NOTE: each activity has its own `make`, so even k=0 keeps them apart.
    // The interesting case is a *shared* helper class:
    const SHARED_FACTORY: &str = r#"
        app K2
        activity A1 {
            field fac: Factory
            field p: Prod
            cb onCreate {
                fac = new Factory
                t3 = load this A1.fac
                t4 = call Factory.make(recv=t3)
                store this A1.p = t4
            }
            cb onClick { use p }
        }
        activity A2 {
            field fac: Factory
            field p: Prod
            cb onCreate {
                fac = new Factory
                t3 = load this A2.fac
                t4 = call Factory.make(recv=t3)
                store this A2.p = t4
            }
            cb onClick { use p }
        }
        class Factory {
            fn make(params=0, locals=2) {
                t1 = new Prod
                return t1
            }
        }
        class Prod { }
    "#;

    #[test]
    fn k0_merges_shared_factory_products() {
        let (p, _t, pts) = setup(SHARED_FACTORY, 0);
        let a1 = p.class_by_name("A1").unwrap();
        let a2 = p.class_by_name("A2").unwrap();
        let c1 = p.method_by_name(a1, "onClick").unwrap();
        let c2 = p.method_by_name(a2, "onClick").unwrap();
        assert!(pts.may_alias((c1, Local(1)), (c2, Local(1))));
    }

    #[test]
    fn k2_clones_shared_factory_products() {
        let (p, _t, pts) = setup(SHARED_FACTORY, 2);
        let a1 = p.class_by_name("A1").unwrap();
        let a2 = p.class_by_name("A2").unwrap();
        let c1 = p.method_by_name(a1, "onClick").unwrap();
        let c2 = p.method_by_name(a2, "onClick").unwrap();
        assert!(
            !pts.may_alias((c1, Local(1)), (c2, Local(1))),
            "k=2 separates products by their creating factory's creator"
        );
    }

    #[test]
    fn per_activity_factories_separate_even_at_k0() {
        let (p, _t, pts) = setup(FACTORY, 0);
        let a1 = p.class_by_name("A1").unwrap();
        let a2 = p.class_by_name("A2").unwrap();
        let m1 = p.method_by_name(a1, "make").unwrap();
        let m2 = p.method_by_name(a2, "make").unwrap();
        assert!(!pts.may_alias((m1, Local(1)), (m2, Local(1))));
    }

    #[test]
    fn escape_marks_shared_fields_not_locals() {
        let (p, t, pts) = setup(
            r#"
            app E
            activity Main {
                field shared: Obj
                cb onCreate { shared = new Obj }
                cb onClick {
                    t2 = new Obj
                    use shared
                }
            }
            class Obj { }
            "#,
            0,
        );
        let esc = Escape::compute(&p, &t, &pts);
        let main = p.class_by_name("Main").unwrap();
        let create = p.method_by_name(main, "onCreate").unwrap();
        let click = p.method_by_name(main, "onClick").unwrap();
        let shared_obj = pts.pts(create, Local(1))[0];
        let local_obj = pts.pts(click, Local(2))[0];
        assert!(esc.is_shared(shared_obj), "field-stored object escapes");
        assert!(
            !esc.is_shared(local_obj),
            "never-stored local stays confined"
        );
    }

    #[test]
    fn must_lock_requires_singleton_pts() {
        let (p, _t, pts) = setup(
            r#"
            app L
            activity Main {
                field lock: Obj
                field dual: Obj
                cb onCreate {
                    lock = new Obj
                    if ? { dual = new Obj } else { dual = new Obj }
                }
                cb onClick {
                    sync lock { use lock }
                    sync dual { }
                }
            }
            class Obj { }
            "#,
            0,
        );
        let main = p.class_by_name("Main").unwrap();
        let click = p.method_by_name(main, "onClick").unwrap();
        // first sync lock local is t1 (load of `lock`), second is t3.
        assert!(pts.must_lock(click, Local(1)).is_some());
        assert!(
            pts.must_lock(click, Local(3)).is_none(),
            "two-site field is not must-alias"
        );
    }

    #[test]
    fn heap_field_edges_are_queryable() {
        let (p, _t, pts) = setup(FIELD_FLOW, 0);
        let main = p.class_by_name("Main").unwrap();
        let create = p.method_by_name(main, "onCreate").unwrap();
        let singleton = pts.pts(create, Local::THIS)[0];
        let fa = p.field_by_name(main, "a").unwrap();
        let fb = p.field_by_name(main, "b").unwrap();
        let a_objs = pts.field_pts(singleton, fa.raw());
        let b_objs = pts.field_pts(singleton, fb.raw());
        assert_eq!(a_objs, b_objs, "b = a aliases the heap cells");
        assert_eq!(a_objs.len(), 1);
    }

    #[test]
    fn outer_chain_resolves_at_k2() {
        // runnable -> $outer -> activity singleton -> field, two hops.
        let (p, _t, pts) = setup(
            r#"
            app O2
            activity Main {
                field data: Holder
                cb onCreate { data = new Holder }
                cb onClick { post R }
            }
            runnable R in Main {
                cb run { use outer.data }
            }
            class Holder { }
            "#,
            2,
        );
        let r = p.class_by_name("R").unwrap();
        let run = p.method_by_name(r, "run").unwrap();
        // run body: t1 = load $outer; t2 = load t1.data; deref t2.
        let holder = pts.pts(run, Local(2));
        assert_eq!(holder.len(), 1);
        let holder_class = p.class_by_name("Holder").unwrap();
        assert_eq!(pts.objs().class(holder[0]), Some(holder_class));
    }

    #[test]
    fn singletons_are_identical_across_methods() {
        let (p, _t, pts) = setup(FIELD_FLOW, 2);
        let main = p.class_by_name("Main").unwrap();
        let click = p.method_by_name(main, "onClick").unwrap();
        let pause = p.method_by_name(main, "onPause").unwrap();
        assert_eq!(
            pts.pts(click, Local::THIS),
            pts.pts(pause, Local::THIS),
            "one framework-managed instance per component"
        );
    }

    #[test]
    fn opaque_call_results_are_unknown() {
        let (p, _t, pts) = setup(
            r#"
            app O
            activity Main {
                cb onClick {
                    t1 = call opaque()
                }
            }
            "#,
            0,
        );
        let main = p.class_by_name("Main").unwrap();
        let click = p.method_by_name(main, "onClick").unwrap();
        assert!(pts.pts(click, Local(1)).is_empty());
    }
}
