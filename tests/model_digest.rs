//! Pinned thread models and happens-before graphs: one digest per app of
//! everything [`ThreadModel`] and [`HbGraph`] answer.
//!
//! The rendering holds every thread in id order (kind, root, class,
//! parent, component, origin site, via, looper) with its methods and
//! sites, the threads of each method, the unresolved sites, the direct
//! edges, the predicate edges, the `enables` facts, and every thread
//! pair that `mustHb`, `predHb`, `mustNotHb`, `enables` or `disables`
//! relates, plus every `unreachable` callback. Covers the same apps as
//! `tests/pointsto_digest.rs`. A change to how the model or the graph
//! is built must leave every digest as it is: thread numbering and edge
//! order included, both are part of the output.

mod common;

use common::programs;
use nadroid::hb::HbGraph;
use nadroid::ir::{Fnv64, Program};
use nadroid::threadify::{ThreadId, ThreadModel};
use std::fmt::Write as _;

/// FNV-1a digests of [`render`], per app. A change that alters the
/// model or the graph on purpose re-pins these and states why; the
/// failure message prints the full current table.
#[rustfmt::skip]
const MODEL_DIGESTS: [(&str, u64); 39] = [
    ("ToDoList", 0x55d7_87e1_0592_f37a),
    ("Zxing", 0x3270_57c8_c96d_2f59),
    ("Music", 0xf780_a2b8_d358_f0a9),
    ("MyTracks_1", 0x637e_1eaa_e4f8_08ce),
    ("Browser", 0xf111_b9b2_f708_4be7),
    ("ConnectBot", 0x6e1a_1c31_b741_10d8),
    ("FireFox", 0xd5ec_443e_e9a3_3f80),
    ("SoundRecorder", 0x7909_eef7_ea99_c4ac),
    ("Swiftnotes", 0x5790_b155_750c_508a),
    ("PhotoAffix", 0xd77f_a2d6_34ed_4b79),
    ("MLManager", 0x537b_7e6e_e454_27db),
    ("InstaMaterial", 0xf2cb_5cc7_292c_b346),
    ("Tomdroid", 0x5790_b155_750c_508a),
    ("SGT_Puzzles", 0xf8b8_a185_3dde_97fd),
    ("Aard", 0xe4f4_319f_f964_5caf),
    ("ClipStack", 0x9845_0e10_587a_377e),
    ("KissLauncher", 0xf64a_0bf3_35a0_1cf7),
    ("DashClock", 0x65a1_dc6f_f851_28c4),
    ("Dns66", 0xa9e1_80f6_1a20_17c7),
    ("CleanMaster", 0x6ef3_f34d_17ac_a073),
    ("OmniNotes", 0x5b3d_43eb_1453_c009),
    ("Solitaire", 0x3842_cc2c_ec17_1c99),
    ("Mms", 0x0b9b_742c_090a_99eb),
    ("MyTracks_2", 0xe2ec_fc9b_9d0f_4ace),
    ("MiMangaNu", 0x3e10_3150_a3c6_eb12),
    ("QKSMS", 0xcdf1_3bca_d976_acc8),
    ("K-9", 0x5a66_d5b8_2f22_80e2),
    ("RefuteDialogs", 0xc288_dc8d_c7d3_7129),
    ("RefuteAlarms", 0x52a9_da07_365e_8f49),
    ("RefuteServices", 0xa47a_dc9b_8a88_bf23),
    ("RefuteFragments", 0x3e11_54d4_49a8_b7d0),
    ("RefuteStacks", 0xe932_86a5_6446_06a8),
    ("RefuteMixed", 0x91c2_3964_bc2f_3d73),
    ("Figure4Gallery", 0x5d08_4d37_e47f_6ac3),
    ("connectbot.dsl", 0xc095_3237_d057_37ea),
    ("downloader.dsl", 0x8e37_07e1_fdeb_2710),
    ("firefox.dsl", 0x914f_82ed_fa45_5ec0),
    ("gallery.dsl", 0xb8c6_252c_f630_46ab),
    ("DeepContexts", 0x83be_7a5e_5ad7_4ebb),
];

/// The thread model and the HB graph of `program` as text.
fn render(program: &Program) -> String {
    let threads = ThreadModel::build(program);
    let hb = HbGraph::build(program, &threads);
    let mut out = String::new();
    for (t, mt) in threads.threads() {
        let _ = writeln!(
            out,
            "thread {} {:?} root={:?} class={:?} parent={:?} component={:?} origin={:?} via={:?} looper={:?}",
            t.raw(),
            mt.kind(),
            mt.root(),
            mt.class(),
            mt.parent(),
            mt.component(),
            mt.origin_site(),
            mt.via(),
            mt.looper()
        );
        let _ = writeln!(out, "  methods {:?}", threads.methods_of(t));
        for site in threads.sites_of(t) {
            let _ = writeln!(out, "  site {site:?}");
        }
    }
    for m in program.method_ids() {
        let of = threads.threads_of_method(m);
        if !of.is_empty() {
            let _ = writeln!(out, "method {m:?} threads {of:?}");
        }
    }
    let _ = writeln!(out, "unresolved {:?}", threads.unresolved_sites());
    for e in hb.edges() {
        let _ = writeln!(out, "edge {e:?}");
    }
    for e in hb.pred_edges() {
        let _ = writeln!(out, "pred {e:?}");
    }
    for (a, b, site) in hb.enables_facts() {
        let _ = writeln!(out, "enables {} {} {site:?}", a.raw(), b.raw());
    }
    let ids: Vec<ThreadId> = threads.threads().map(|(t, _)| t).collect();
    for &a in &ids {
        if hb.unreachable_cb(a) {
            let _ = writeln!(out, "unreachable {} {:?}", a.raw(), hb.unreachable_prov(a));
        }
        for &b in &ids {
            let facts = [
                ("mustHb", hb.must_hb(a, b)),
                ("predHb", hb.pred_must_hb(a, b)),
                ("mustNotHb", hb.must_not_hb(a, b)),
                ("enables", hb.enables(a, b).is_some()),
                ("disables", hb.disables(a, b).is_some()),
            ];
            if facts.iter().any(|&(_, holds)| holds) {
                let _ = write!(out, "pair {} {}", a.raw(), b.raw());
                for (name, holds) in facts {
                    if holds {
                        let _ = write!(out, " {name}");
                    }
                }
                let _ = writeln!(out, " {:?}", hb.must_not_prov(a, b));
            }
        }
    }
    out
}

#[test]
fn thread_models_and_hb_graphs_match_their_pinned_digests() {
    let actual: Vec<(String, u64)> = programs()
        .into_iter()
        .map(|(name, program)| {
            let digest = Fnv64::hash(render(&program).as_bytes());
            (name, digest)
        })
        .collect();
    let pinned: Vec<(String, u64)> = MODEL_DIGESTS
        .iter()
        .map(|&(name, digest)| (name.to_owned(), digest))
        .collect();
    if actual != pinned {
        let mut table = String::new();
        for (name, digest) in &actual {
            let hex = format!("{digest:016x}");
            let groups: Vec<&str> = (0..4).map(|i| &hex[i * 4..i * 4 + 4]).collect();
            let _ = writeln!(table, "    (\"{name}\", 0x{}),", groups.join("_"));
        }
        panic!("thread models or HB graphs drifted; the current digests are:\n{table}");
    }
}
