//! Integration tests for the CLI on the shipped sample app models.

use nadroid_cli::{parse_args, run, Command};

fn app(p: &str) -> String {
    format!("{}/apps/{p}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn connectbot_report_has_both_figure1_warnings() {
    let out = run(&Command::Analyze {
        path: app("connectbot.dsl"),
        validate: false,
        sound_only: false,
        k: 2,
        json: false,
        baseline: None,
        update_baseline: false,
        trace: None,
        report: None,
        provenance: None,
        stats: false,
        threads: None,
    })
    .unwrap();
    assert!(out.contains("2 surviving warning(s)"), "{out}");
    assert!(out.contains("[PC-PC] ConsoleActivity.hostBridge"), "{out}");
    assert!(out.contains("[EC-PC] ConsoleActivity.bound"), "{out}");
}

/// `--stats` installs its recorder before the file is parsed, so the
/// tree shows the parse beside the analysis, with the bytes it read.
#[test]
fn stats_report_the_parse() {
    let path = app("connectbot.dsl");
    let bytes = std::fs::read(&path).unwrap().len();
    let out = run(&Command::Analyze {
        path,
        validate: false,
        sound_only: false,
        k: 2,
        json: false,
        baseline: None,
        update_baseline: false,
        trace: None,
        report: None,
        provenance: None,
        stats: true,
        threads: None,
    })
    .unwrap();
    let stats = &out[out.find("run stats:").expect("a stats tree")..];
    let depth = |name: &str| {
        let line = stats
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("no `{name}` span in:\n{stats}"));
        line.len() - line.trim_start().len()
    };
    assert_eq!(depth("parse"), depth("analyze"), "{stats}");
    let counter = |name: &str| {
        stats
            .lines()
            .find_map(|l| l.trim().strip_prefix(name))
            .map(str::trim)
            .unwrap_or_else(|| panic!("no `{name}` counter in:\n{stats}"))
            .to_owned()
    };
    assert_eq!(counter("ir.parse_bytes"), bytes.to_string(), "{stats}");
}

#[test]
fn validate_confirms_every_planted_harmful_uaf_of_the_generated_aard() {
    // The generated Aard is a printed corpus app: each of its 8
    // survivors is a planted harmful UAF, and `--validate` must confirm
    // all of them.
    use nadroid::corpus::{generate, spec_for, table1_rows};
    let row = table1_rows()
        .into_iter()
        .find(|r| r.name == "Aard")
        .unwrap();
    let app = generate(&spec_for(&row));
    let dir = std::env::temp_dir().join(format!("nadroid_cli_aard_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("aard.dsl");
    std::fs::write(&path, nadroid::ir::print_program(&app.program)).unwrap();
    let out = run(&Command::Analyze {
        path: path.to_string_lossy().into_owned(),
        validate: true,
        sound_only: false,
        k: 2,
        json: false,
        baseline: None,
        update_baseline: false,
        trace: None,
        report: None,
        provenance: None,
        stats: false,
        threads: None,
    })
    .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(out.contains("-> 8 reported"), "{out}");
    assert!(
        out.contains("confirmed 8, unconfirmed 0, infeasible 0"),
        "{out}"
    );
}

#[test]
fn firefox_dot_shows_the_thread() {
    let out = run(&Command::Dot {
        path: app("firefox.dsl"),
    })
    .unwrap();
    assert!(out.contains("AbortTask.run"), "{out}");
    assert!(
        out.contains("shape=ellipse"),
        "native threads are ellipses: {out}"
    );
    assert!(out.contains("Spawn"), "{out}");
}

#[test]
fn downloader_nosleep_finds_both_acquires() {
    let out = run(&Command::NoSleep {
        path: app("downloader.dsl"),
    })
    .unwrap();
    assert!(out.contains("2 no-sleep warning(s)"), "{out}");
}

#[test]
fn sound_only_mode_reports_more() {
    // ConnectBot's two harmful pairs survive either way; compare on the
    // figure-4-style app where the unsound tier prunes.
    let full = run(&parse_args(vec!["analyze".into(), app("connectbot.dsl")]).unwrap()).unwrap();
    let sound = run(&parse_args(vec![
        "analyze".into(),
        app("connectbot.dsl"),
        "--sound-only".into(),
    ])
    .unwrap())
    .unwrap();
    assert!(full.contains("-> 2 reported"));
    assert!(sound.contains("-> 2 reported"));
}
