//! Pinned points-to results: one digest per app and sensitivity k of
//! everything [`PointsTo`] answers — the object chains in `ObjId` order,
//! every non-empty `pts(method, local)` and every heap cell.
//!
//! Covers the 27 Table 1 apps, the 6 refutation-study apps, the Figure 4
//! gallery, the hand-written `apps/*.dsl` models and
//! [`common::DEEP_CONTEXTS`], at k = 0, 1 and 2; the last must tell the
//! three apart. A change to the solver's data structures must leave
//! every digest as it is: object numbering included, the result is part
//! of the output.

mod common;

use common::programs;
use nadroid::ir::{Fnv64, Local, Program};
use nadroid::pointsto::{AllocKey, PointsTo};
use nadroid::threadify::ThreadModel;
use std::fmt::Write as _;

/// FNV-1a digests of [`render`] at k = 0, 1 and 2, per app. A change
/// that alters points-to on purpose re-pins these and states why; the
/// failure message prints the full current table.
#[rustfmt::skip]
const POINTSTO_DIGESTS: [(&str, [u64; 3]); 39] = [
    ("ToDoList", [0x8433_aa94_7e26_d5cc, 0xdd2f_d15b_5a95_4f41, 0xdd2f_d15b_5a95_4f41]),
    ("Zxing", [0x0df4_c1cc_52c4_8df4, 0x0fcd_62f0_3da9_1c03, 0x0fcd_62f0_3da9_1c03]),
    ("Music", [0x64b2_bcd1_a028_0916, 0x2524_f9ba_728b_a9a4, 0x2524_f9ba_728b_a9a4]),
    ("MyTracks_1", [0xac9f_cd20_e60e_8520, 0x0ce3_3577_8a57_6321, 0x0ce3_3577_8a57_6321]),
    ("Browser", [0xcf5b_7f1d_4628_47e3, 0x2039_37d3_b587_c921, 0x2039_37d3_b587_c921]),
    ("ConnectBot", [0xf4ff_e4ab_0dda_1b96, 0xf853_1038_9f90_c83c, 0xf853_1038_9f90_c83c]),
    ("FireFox", [0xdb3b_216f_6bdc_85ab, 0x1328_230a_df49_871b, 0x1328_230a_df49_871b]),
    ("SoundRecorder", [0x65ea_5a9f_dfe2_4ce1, 0x038d_bdf4_a515_c338, 0x038d_bdf4_a515_c338]),
    ("Swiftnotes", [0xc7c3_57a5_32c6_caa3, 0x5ab0_0f88_bcda_3a4f, 0x5ab0_0f88_bcda_3a4f]),
    ("PhotoAffix", [0x00c2_3621_e837_1789, 0x2ef4_c2ce_bc4d_05a7, 0x2ef4_c2ce_bc4d_05a7]),
    ("MLManager", [0x442d_e8ad_b40d_df18, 0x69fc_249f_67d1_7e60, 0x69fc_249f_67d1_7e60]),
    ("InstaMaterial", [0x92d3_3a1b_3a67_d0cc, 0x2885_5572_c4fa_b17c, 0x2885_5572_c4fa_b17c]),
    ("Tomdroid", [0xc7c3_57a5_32c6_caa3, 0x5ab0_0f88_bcda_3a4f, 0x5ab0_0f88_bcda_3a4f]),
    ("SGT_Puzzles", [0x15b3_25d6_b252_8222, 0xcbe8_3258_f053_2f48, 0xcbe8_3258_f053_2f48]),
    ("Aard", [0x2bb6_aa1e_c8f4_7ee4, 0x6850_e137_6404_90d7, 0x6850_e137_6404_90d7]),
    ("ClipStack", [0x085f_e633_dc5c_fb64, 0xc1f8_1d24_84d8_2d26, 0xc1f8_1d24_84d8_2d26]),
    ("KissLauncher", [0x709d_f07c_ac3d_126d, 0x26bd_946f_e5b3_8675, 0x26bd_946f_e5b3_8675]),
    ("DashClock", [0x4257_2da8_23c0_6ad3, 0x4dcd_94f4_4008_0170, 0x4dcd_94f4_4008_0170]),
    ("Dns66", [0xe4ee_105b_c13f_9a03, 0xa2d5_a921_1632_9eb0, 0xa2d5_a921_1632_9eb0]),
    ("CleanMaster", [0x1124_424e_562b_6c46, 0xb5bb_c1c7_ddeb_13eb, 0xb5bb_c1c7_ddeb_13eb]),
    ("OmniNotes", [0xcdc5_729f_eb0d_3cb9, 0xd553_a652_ff82_1402, 0xd553_a652_ff82_1402]),
    ("Solitaire", [0xdd82_eedd_d33c_ad9f, 0x90be_6846_c34b_4f9f, 0x90be_6846_c34b_4f9f]),
    ("Mms", [0x8899_816c_8f63_a147, 0x95ed_b300_7748_be25, 0x95ed_b300_7748_be25]),
    ("MyTracks_2", [0x8625_5449_3781_fd8a, 0xda28_b0cc_637e_c36d, 0xda28_b0cc_637e_c36d]),
    ("MiMangaNu", [0x668e_7de2_87f7_4401, 0x5154_20db_35bd_6a73, 0x5154_20db_35bd_6a73]),
    ("QKSMS", [0x6457_16fc_6519_44c6, 0x6c33_3238_d8c3_f67f, 0x6c33_3238_d8c3_f67f]),
    ("K-9", [0x5065_5268_3808_f29b, 0xccd3_db70_a4ea_737f, 0xccd3_db70_a4ea_737f]),
    ("RefuteDialogs", [0x292c_76e7_6b68_49bd, 0x124d_ddcf_0e99_f16f, 0x124d_ddcf_0e99_f16f]),
    ("RefuteAlarms", [0xe957_ceea_d240_1c34, 0x5ed9_d247_5601_5dfd, 0x5ed9_d247_5601_5dfd]),
    ("RefuteServices", [0x842d_a17b_8878_05cb, 0x999e_8ef3_96e0_8245, 0x999e_8ef3_96e0_8245]),
    ("RefuteFragments", [0xe494_588d_4c68_fc88, 0xbf97_37e3_fad6_f78a, 0xbf97_37e3_fad6_f78a]),
    ("RefuteStacks", [0x5282_92e0_983c_7868, 0x94ac_f8eb_a869_79a9, 0x94ac_f8eb_a869_79a9]),
    ("RefuteMixed", [0x68e0_ffd5_8a2a_ff89, 0xd807_610f_0bad_ca24, 0xd807_610f_0bad_ca24]),
    ("Figure4Gallery", [0xa2f7_4ac8_b174_888f, 0x1ebd_9458_0559_5acb, 0x1ebd_9458_0559_5acb]),
    ("connectbot.dsl", [0xd76d_6e20_0035_6b3d, 0xf2bd_b3c8_fbeb_221c, 0xf2bd_b3c8_fbeb_221c]),
    ("downloader.dsl", [0xd1d8_f9ac_97dc_1646, 0x02da_9056_64f2_2b90, 0x02da_9056_64f2_2b90]),
    ("firefox.dsl", [0x7e8f_7b55_c355_1654, 0x51d2_939f_ac64_d9f6, 0x51d2_939f_ac64_d9f6]),
    ("gallery.dsl", [0x7c2b_e1b3_4671_8bfe, 0xd007_148f_6693_97c4, 0xd007_148f_6693_97c4]),
    ("DeepContexts", [0xe699_fd61_3b31_775e, 0x3f08_a78f_e9ea_4337, 0x1291_1c3c_23b6_0091]),
];

fn key(k: AllocKey) -> String {
    match k {
        AllocKey::Site(i) => format!("i{}", i.raw()),
        AllocKey::Singleton(c) => format!("c{}", c.raw()),
    }
}

/// The whole points-to result as text: objects with their chains and
/// classes, then the populated variables, then the populated heap cells.
fn render(program: &Program, pts: &PointsTo) -> String {
    let mut out = String::new();
    let objs = pts.objs();
    for o in objs.iter() {
        let chain: Vec<String> = objs.chain(o).iter().copied().map(key).collect();
        let class = objs.class(o).map(|c| c.raw());
        let _ = writeln!(out, "obj {} [{}] {class:?}", o.0, chain.join(" "));
    }
    for (m, method) in program.methods() {
        for l in 0..method.num_locals() {
            let set = pts.pts(m, Local(l));
            if !set.is_empty() {
                let _ = writeln!(out, "pts m{} t{l} {set:?}", m.raw());
            }
        }
    }
    for o in objs.iter() {
        for f in program.field_ids() {
            let set = pts.field_pts(o, f.raw());
            if !set.is_empty() {
                let _ = writeln!(out, "heap {} f{} {set:?}", o.0, f.raw());
            }
        }
    }
    out
}

#[test]
fn pointsto_results_match_their_pinned_digests() {
    let mut actual: Vec<(String, [u64; 3])> = Vec::new();
    for (name, program) in programs() {
        let threads = ThreadModel::build(&program);
        let digests = [0, 1, 2].map(|k| {
            let pts = PointsTo::run(&program, &threads, k);
            Fnv64::hash(render(&program, &pts).as_bytes())
        });
        if name == "DeepContexts" {
            let [d0, d1, d2] = digests;
            assert!(
                d0 != d1 && d1 != d2 && d0 != d2,
                "DeepContexts must tell k = 0, 1 and 2 apart: {digests:#018x?}"
            );
        }
        actual.push((name, digests));
    }
    let pinned: Vec<(String, [u64; 3])> = POINTSTO_DIGESTS
        .iter()
        .map(|&(name, digests)| (name.to_owned(), digests))
        .collect();
    if actual != pinned {
        let mut table = String::new();
        for (name, [d0, d1, d2]) in &actual {
            let _ = writeln!(
                table,
                "    (\"{name}\", [{d0:#018x}, {d1:#018x}, {d2:#018x}]),"
            );
        }
        panic!("points-to results drifted; the current digests are:\n{table}");
    }
}
