//! Golden-shape test for warning provenance: `nadroid explain` and the
//! `--provenance` JSON exporter on the ConnectBot corpus app. The JSON
//! is read with the workspace's own strict parser, and the derivation
//! trees are pinned down to the rule encoding: every warning's tree is
//! rooted at `racyPair`, goes through `aliasedPair`, and bottoms out in
//! the EDB facts of the §5 encoding.

use nadroid_cli::{run, Command};
use nadroid_core::{parse_json, JsonValue};

fn parse(s: &str) -> JsonValue {
    parse_json(s).unwrap_or_else(|e| panic!("malformed JSON: {e}"))
}

fn corpus_app() -> String {
    format!("{}/../../apps/connectbot.dsl", env!("CARGO_MANIFEST_DIR"))
}

fn is_warning_id(s: &str) -> bool {
    s.len() == 18 && s.starts_with("w:") && s[2..].bytes().all(|b| b.is_ascii_hexdigit())
}

/// Assert the derivation tree pins the §5 rule encoding: `racyPair` at
/// the root, `aliasedPair` below it, EDB leaves with `rule: null`.
fn check_tree(node: &JsonValue, depth: usize) {
    let relation = node.get("relation").and_then(JsonValue::as_str).unwrap();
    let premises = match node.get("premises") {
        Some(JsonValue::Arr(p)) => p,
        other => panic!("premises missing: {other:?}"),
    };
    match depth {
        0 => {
            assert_eq!(relation, "racyPair");
            let names: Vec<&str> = premises
                .iter()
                .map(|p| p.get("relation").and_then(JsonValue::as_str).unwrap())
                .collect();
            assert_eq!(
                names,
                ["aliasedPair", "runsOn", "runsOn", "distinctThreads"],
                "racyPair rule body order"
            );
        }
        1 if relation == "aliasedPair" => {
            let names: Vec<&str> = premises
                .iter()
                .map(|p| p.get("relation").and_then(JsonValue::as_str).unwrap())
                .collect();
            assert_eq!(
                names,
                ["useAt", "freeAt", "ptsUse", "ptsFree", "sharedObj"],
                "aliasedPair rule body order"
            );
        }
        _ => {}
    }
    if premises.is_empty() {
        assert_eq!(
            node.get("rule"),
            Some(&JsonValue::Null),
            "leaves are EDB facts"
        );
    } else {
        assert!(
            node.get("rule").and_then(JsonValue::as_str).is_some(),
            "inner nodes carry their deriving rule"
        );
        for p in premises {
            check_tree(p, depth + 1);
        }
    }
    // Every node is rendered in source terms, prefixed by its relation.
    let fact = node.get("fact").and_then(JsonValue::as_str).unwrap();
    assert!(fact.starts_with(&format!("{relation}(")), "fact: {fact}");
}

#[test]
fn provenance_json_golden_shape_on_connectbot() {
    let dir = std::env::temp_dir().join("nadroid_explain_golden");
    std::fs::create_dir_all(&dir).unwrap();
    let prov_path = dir.join("provenance.json");
    run(&Command::Analyze {
        path: corpus_app(),
        validate: false,
        sound_only: false,
        k: 2,
        json: false,
        baseline: None,
        update_baseline: false,
        trace: None,
        report: None,
        provenance: Some(prov_path.to_string_lossy().into_owned()),
        stats: false,
        mhp_preprune: false,
        threads: None,
    })
    .unwrap();

    let doc = parse(&std::fs::read_to_string(&prov_path).unwrap());
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("nadroid-provenance/4")
    );
    assert_eq!(
        doc.get("app").and_then(JsonValue::as_str),
        Some("ConnectBot")
    );
    let warnings = match doc.get("warnings") {
        Some(JsonValue::Arr(w)) => w,
        other => panic!("warnings missing: {other:?}"),
    };
    assert!(!warnings.is_empty(), "ConnectBot produces warnings");

    let mut fields = std::collections::BTreeSet::new();
    let mut survived = 0usize;
    for w in warnings {
        let id = w.get("id").and_then(JsonValue::as_str).unwrap();
        assert!(is_warning_id(id), "bad id {id}");
        fields.insert(
            w.get("field")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_owned(),
        );
        // §7 lineage chains ride along with each warning.
        for key in ["use_lineage", "free_lineage"] {
            let lineage = w.get(key).and_then(JsonValue::as_str).unwrap();
            assert!(lineage.starts_with("main"), "{key}: {lineage}");
        }
        if w.get("survived").and_then(JsonValue::as_bool).unwrap() {
            survived += 1;
            assert_eq!(w.get("pruned_by"), Some(&JsonValue::Null));
        }
        let audit = match w.get("audit") {
            Some(JsonValue::Arr(a)) => a,
            other => panic!("audit missing: {other:?}"),
        };
        assert!(!audit.is_empty());
        for entry in audit {
            assert!(entry.get("filter").and_then(JsonValue::as_str).is_some());
            assert!(entry.get("pruned").and_then(JsonValue::as_bool).is_some());
            assert!(!entry
                .get("evidence")
                .and_then(JsonValue::as_str)
                .unwrap()
                .is_empty());
        }
        let tree = w.get("derivation").expect("derivation present");
        assert_ne!(tree, &JsonValue::Null, "every warning is explainable");
        check_tree(tree, 0);
    }
    // Figure 1(a) and 1(b): both ConnectBot fields are racy and at least
    // one warning survives the full pipeline.
    assert!(fields.contains("ConsoleActivity.bound"), "{fields:?}");
    assert!(fields.contains("ConsoleActivity.hostBridge"), "{fields:?}");
    assert!(survived >= 1);
}

/// Golden shape for the confirmation surface: `nadroid confirm
/// --provenance` must write a `nadroid-provenance/4` document whose
/// surviving warnings carry verdict blocks with replayable witness
/// schedules, and the explain rendering of that document must show the
/// confirmation section verbatim.
#[test]
fn confirmation_golden_on_connectbot() {
    let dir = std::env::temp_dir().join("nadroid_confirm_golden");
    std::fs::create_dir_all(&dir).unwrap();
    let prov_path = dir.join("provenance.json");
    run(&Command::Confirm {
        path: corpus_app(),
        warning_id: None,
        json: false,
        threads: None,
        provenance: Some(prov_path.to_string_lossy().into_owned()),
    })
    .unwrap();

    let text = std::fs::read_to_string(&prov_path).unwrap();
    let doc = parse(&text);
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("nadroid-provenance/4")
    );
    let warnings = match doc.get("warnings") {
        Some(JsonValue::Arr(w)) => w,
        other => panic!("warnings missing: {other:?}"),
    };
    let mut confirmed = 0usize;
    for w in warnings {
        let survived = w.get("survived").and_then(JsonValue::as_bool).unwrap();
        let confirmation = w.get("confirmation").expect("confirmation key present");
        if !survived {
            // Pruned warnings are never searched.
            assert_eq!(confirmation, &JsonValue::Null);
            continue;
        }
        let verdict = confirmation
            .get("verdict")
            .and_then(JsonValue::as_str)
            .expect("survivors carry a verdict");
        assert!(
            matches!(verdict, "confirmed" | "unconfirmed" | "infeasible"),
            "bad verdict {verdict}"
        );
        if verdict == "confirmed" {
            confirmed += 1;
            let schedule = confirmation
                .get("schedule")
                .and_then(JsonValue::as_str)
                .expect("confirmed verdicts attach a schedule");
            assert!(!schedule.is_empty());
            assert!(
                confirmation
                    .get("npe_at")
                    .and_then(JsonValue::as_str)
                    .is_some(),
                "confirmed verdicts name the NPE site"
            );
        }
    }
    assert!(confirmed >= 1, "ConnectBot confirms at least one warning");

    // The explain renderer shows the verdict block for the same doc.
    let rendered = nadroid_core::render_explain_from_json(&text, None).unwrap();
    for needle in [
        "confirmation:",
        "verdict: confirmed",
        "states:  ",
        "npe at:  ",
        "witness schedule:",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }
}

/// Golden shape for the refutation surface on the Gallery corpus app:
/// two of its three warnings are soundly refuted (one per reason kind
/// the app plants — family-disabled dialog, fragment extended order)
/// and `nadroid explain` renders each `refutation:` block with its
/// full contradiction chain, while the skippable-onPause dialog
/// rightly survives. The `--provenance` JSON carries the same blocks
/// under the `nadroid-provenance/4` schema.
#[test]
fn refutation_golden_on_gallery() {
    let app = format!("{}/../../apps/gallery.dsl", env!("CARGO_MANIFEST_DIR"));
    let all = run(&Command::Explain {
        path: app.clone(),
        warning_id: None,
    })
    .unwrap();
    for needle in [
        "field:  UploadActivity.session",
        "status: refuted (disabled)",
        "field:  AlbumActivity.cache",
        "status: refuted (extended-order)",
        "field:  PreviewActivity.bitmap",
        "status: survived all filters",
        "refutation:",
        "reason: disabled",
        "reason: extended-order",
        "is gated by the dialog family",
        "every dialog enabler sits in a once-only onCreate",
        "fragment automaton: onAttach first, onDetach last",
        "no witness exists",
    ] {
        assert!(all.contains(needle), "missing {needle:?} in:\n{all}");
    }
    // Exactly the two refutable warnings carry a refutation block.
    assert_eq!(all.matches("\n  refutation:\n").count(), 2, "{all}");

    // The JSON document round-trips the same blocks.
    let dir = std::env::temp_dir().join("nadroid_refute_golden");
    std::fs::create_dir_all(&dir).unwrap();
    let prov_path = dir.join("provenance.json");
    run(&Command::Analyze {
        path: app,
        validate: false,
        sound_only: false,
        k: 2,
        json: false,
        baseline: None,
        update_baseline: false,
        trace: None,
        report: None,
        provenance: Some(prov_path.to_string_lossy().into_owned()),
        stats: false,
        mhp_preprune: false,
        threads: None,
    })
    .unwrap();
    let doc = parse(&std::fs::read_to_string(&prov_path).unwrap());
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("nadroid-provenance/4")
    );
    let warnings = match doc.get("warnings") {
        Some(JsonValue::Arr(w)) => w,
        other => panic!("warnings missing: {other:?}"),
    };
    assert_eq!(warnings.len(), 3, "Gallery has three potential pairs");
    let mut reasons = Vec::new();
    for w in warnings {
        let refutation = w.get("refutation").expect("refutation key present");
        if refutation == &JsonValue::Null {
            continue;
        }
        // Refutation only applies to warnings every filter passed.
        assert_eq!(w.get("survived"), Some(&JsonValue::Bool(true)));
        reasons.push(
            refutation
                .get("reason")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_owned(),
        );
        let chain = match refutation.get("chain") {
            Some(JsonValue::Arr(c)) => c,
            other => panic!("chain missing: {other:?}"),
        };
        assert!(chain.len() >= 2, "chains state premise and contradiction");
        let last = chain.last().unwrap().as_str().unwrap();
        assert!(last.contains("no witness exists"), "{last}");
    }
    reasons.sort();
    assert_eq!(reasons, ["disabled", "extended-order"]);
}

#[test]
fn explain_text_golden_on_connectbot() {
    let all = run(&Command::Explain {
        path: corpus_app(),
        warning_id: None,
    })
    .unwrap();
    for needle in [
        "warning w:",
        "field:  ConsoleActivity.bound",
        "field:  ConsoleActivity.hostBridge",
        "status: survived all filters",
        "derivation:",
        "racyPair(",
        "aliasedPair(",
        "(base fact)",
        "filter audit:",
        "MHB",
        "no must-happens-before edge",
        "[main",
    ] {
        assert!(all.contains(needle), "missing {needle:?} in:\n{all}");
    }

    // Single-id mode explains exactly that warning; ids are stable, so
    // the id extracted from one run selects in the next.
    let id = all
        .lines()
        .find_map(|l| l.strip_prefix("warning "))
        .unwrap()
        .to_owned();
    assert!(is_warning_id(&id), "{id}");
    let one = run(&Command::Explain {
        path: corpus_app(),
        warning_id: Some(id.clone()),
    })
    .unwrap();
    assert!(one.contains(&id), "{one}");
    assert_eq!(
        one.matches("warning w:").count(),
        1,
        "exactly one warning explained:\n{one}"
    );

    let miss = run(&Command::Explain {
        path: corpus_app(),
        warning_id: Some("w:0000000000000000".into()),
    })
    .unwrap();
    assert!(miss.contains("no warning with id"), "{miss}");
    assert!(
        miss.contains(&id),
        "unknown-id note lists known ids:\n{miss}"
    );
}
