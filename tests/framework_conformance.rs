//! Conformance between the static statement of Android's callback rules
//! and the interpreter that plays the framework.
//!
//! `nadroid-android` states the rules once: `lifecycle_mhb`,
//! `must_precede_execution`, `once_only` and `fragment_mhb`, and the
//! `PredicateFamily` table of which API arms or silences which callbacks.
//! The interpreter (`nadroid-dynamic`'s `World`) keeps its own lifecycle
//! and per-family state, so the two can be held against each other. This
//! test enumerates every dispatch sequence the interpreter allows on small
//! fixtures, up to `MAX_DISPATCHES` events and without state dedup, and
//! checks every fact the rules claim on every sequence. Each fact ends up
//! exercised, contradicted, or never exercised; the contradicted and
//! never-exercised facts are grouped into disagreements, and the list of
//! disagreements is pinned exactly, so a fix must shrink it and any new
//! disagreement fails.

use nadroid::android::fragment::fragment_mhb;
use nadroid::android::lifecycle::{lifecycle_mhb, must_precede_execution, once_only};
use nadroid::android::{CallbackKind, ClassRole, PredicateFamily};
use nadroid::dynamic::{Event, Step, TaskId, World};
use nadroid::ir::{parse_program, ClassId, Program};
use std::fmt::Write as _;

/// Dispatches per enumerated sequence. Seven is the shortest sequence in
/// which a hosted fragment's `onResume` can follow its host's
/// `onDestroy`, and the shortest that delivers the host's `onClick`
/// before its `onDestroy`.
const MAX_DISPATCHES: usize = 7;

/// A callback of one class: what a dispatch delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cb {
    class: ClassId,
    kind: CallbackKind,
}

/// What a fact claims about every dispatch sequence.
#[derive(Debug, Clone, Copy)]
enum Claim {
    /// Every delivery of the first precedes every delivery of the second.
    Order(Cb, Cb),
    /// Every delivery of the second follows some delivery of the first.
    Precedes(Cb, Cb),
    /// The callback is delivered at most once.
    Once(Cb),
    /// Once the first (the disabler's callback) has run, the second is
    /// never delivered again.
    Silenced(Cb, Cb),
}

impl Claim {
    fn cbs(self) -> Vec<Cb> {
        match self {
            Claim::Order(a, b) | Claim::Precedes(a, b) | Claim::Silenced(a, b) => vec![a, b],
            Claim::Once(a) => vec![a],
        }
    }

    /// Whether `trace` exercises the claim, and the length of its
    /// shortest prefix that contradicts it, if any.
    fn check(self, trace: &[Cb]) -> (bool, Option<usize>) {
        let at = |c: Cb| trace.iter().enumerate().filter(move |&(_, &d)| d == c);
        let first = |c: Cb| at(c).map(|(i, _)| i).next();
        match self {
            Claim::Order(a, b) => {
                let exercised = first(a).is_some_and(|i| at(b).any(|(j, _)| j > i));
                let broken = first(b).and_then(|i| at(a).map(|(j, _)| j).find(|&j| j > i));
                (exercised, broken.map(|j| j + 1))
            }
            Claim::Precedes(a, b) => {
                let broken = first(b).filter(|&j| first(a).is_none_or(|i| i > j));
                (first(b).is_some(), broken.map(|j| j + 1))
            }
            Claim::Once(a) => (first(a).is_some(), at(a).nth(1).map(|(j, _)| j + 1)),
            Claim::Silenced(d, g) => {
                let off = first(d);
                let exercised =
                    off.is_some_and(|i| i + 1 < trace.len() && first(g).is_some_and(|j| j < i));
                let broken = off.and_then(|i| at(g).map(|(j, _)| j).find(|&j| j > i));
                (exercised, broken.map(|j| j + 1))
            }
        }
    }
}

/// One fact: the rule it comes from and what it claims.
struct Fact {
    rule: &'static str,
    claim: Claim,
}

/// One fixture program and the facts the rules claim on it.
struct Fixture {
    name: &'static str,
    program: Program,
    facts: Vec<Fact>,
}

fn parse(src: &str) -> Program {
    parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

fn cb(p: &Program, class: &str, kind: CallbackKind) -> Cb {
    Cb {
        class: p.class_by_name(class).expect("fixture class"),
        kind,
    }
}

fn show(p: &Program, c: Cb) -> String {
    format!("{}.{}", p.class(c.class).name(), c.kind)
}

/// Every callback a program declares.
fn declared(p: &Program) -> Vec<Cb> {
    let mut out = Vec::new();
    for (class, c) in p.classes() {
        for &m in c.methods() {
            if let Some(kind) = p.method(m).callback() {
                out.push(Cb { class, kind });
            }
        }
    }
    out
}

fn cbs_of(kinds: impl Iterator<Item = CallbackKind>) -> String {
    kinds.map(|k| format!("cb {k} {{ }}\n")).collect()
}

/// An activity declaring every lifecycle kind plus a UI callback,
/// hosting a fragment that declares the four fragment kinds and
/// `onResume`.
fn host_fixture() -> Fixture {
    let lifecycle = CallbackKind::all()
        .iter()
        .copied()
        .filter(|k| k.is_lifecycle());
    let fragment = CallbackKind::all()
        .iter()
        .copied()
        .filter(|k| k.is_fragment_lifecycle());
    let program = parse(&format!(
        "app Host\nactivity Host {{\n{}cb onClick {{ }}\n}}\nfragment Frag in Host {{\n{}cb onResume {{ }}\n}}\nmanifest {{ main Host }}",
        cbs_of(lifecycle),
        cbs_of(fragment),
    ));
    let p = &program;
    let cbs = declared(p);
    let mut facts = Vec::new();
    for &a in &cbs {
        if once_only(a.kind) {
            facts.push(Fact {
                rule: "once_only",
                claim: Claim::Once(a),
            });
        }
        for &b in &cbs {
            if p.outermost_class(a.class) == p.outermost_class(b.class)
                && lifecycle_mhb(a.kind, b.kind)
            {
                facts.push(Fact {
                    rule: "lifecycle_mhb",
                    claim: Claim::Order(a, b),
                });
            }
            let activity = p.class(a.class).role() == ClassRole::Activity;
            if a.class == b.class && activity && must_precede_execution(a.kind, b.kind) {
                facts.push(Fact {
                    rule: "must_precede_execution",
                    claim: Claim::Precedes(a, b),
                });
            }
            if a.class == b.class && fragment_mhb(a.kind, b.kind) {
                facts.push(Fact {
                    rule: "fragment_mhb",
                    claim: Claim::Order(a, b),
                });
            }
        }
    }
    Fixture {
        name: "host",
        program,
        facts,
    }
}

/// One activity per family with a disabler: it enables the family on
/// `T` in `onCreate` and disables it in `onStop`; `T` declares the
/// family's gated kinds.
fn family_fixture(family: PredicateFamily) -> Fixture {
    let (target, enable, disable) = match family {
        PredicateFamily::Connection => ("connection T in Main", "bind", "unbind"),
        PredicateFamily::Receiver => ("receiver T", "register", "unregister"),
        PredicateFamily::Dialog => ("dialog T in Main", "show", "dismiss"),
        PredicateFamily::Alarm => ("receiver T", "schedule", "cancelalarm"),
        PredicateFamily::Task => unreachable!("the launch fixture covers Task"),
    };
    let program = parse(&format!(
        "app F\nactivity Main {{\nfield t: T\ncb onCreate {{ t = new T  {enable} t }}\ncb onStop {{ {disable} t }}\n}}\n{target} {{\n{}}}\nmanifest {{ main Main }}",
        cbs_of(family.gated_kinds().iter().copied()),
    ));
    let on = cb(&program, "Main", CallbackKind::OnCreate);
    let off = cb(&program, "Main", CallbackKind::OnStop);
    let mut facts = Vec::new();
    for &k in family.gated_kinds() {
        let g = cb(&program, "T", k);
        facts.push(Fact {
            rule: "family arm",
            claim: Claim::Precedes(on, g),
        });
        facts.push(Fact {
            rule: "family silence",
            claim: Claim::Silenced(off, g),
        });
    }
    Fixture {
        name: family.name(),
        program,
        facts,
    }
}

/// A launch-gated activity `T`, started by the main activity's
/// `onCreate`: the Task family gates `T`'s whole lifecycle.
fn launch_fixture() -> Fixture {
    let program = parse(&format!(
        "app L\nactivity Main {{ cb onCreate {{ startactivity T }} }}\nactivity T {{\n{}}}\nmanifest {{ main Main }}",
        cbs_of(PredicateFamily::Task.gated_kinds().iter().copied()),
    ));
    let launch = cb(&program, "Main", CallbackKind::OnCreate);
    let facts = PredicateFamily::Task
        .gated_kinds()
        .iter()
        .map(|&k| Fact {
            rule: "launch gating",
            claim: Claim::Precedes(launch, cb(&program, "T", k)),
        })
        .collect();
    Fixture {
        name: "task",
        program,
        facts,
    }
}

/// Every maximal dispatch sequence of the interpreter on `program`, up
/// to `MAX_DISPATCHES` events, as the callbacks the events deliver. A
/// lifecycle transition counts even when its callback is not declared.
fn sequences(program: &Program) -> Vec<Vec<Cb>> {
    let mut out = Vec::new();
    let mut stack = vec![(World::new(program), Vec::new())];
    while let Some((mut world, trace)) = stack.pop() {
        // Fixture callbacks are straight-line and start no thread, so
        // the looper runs each delivered callback to completion.
        while !world.looper_idle() {
            let advance = Step::Advance {
                task: TaskId::LOOPER,
                choice: false,
            };
            assert!(world.step(&advance), "a fixture callback blocked");
        }
        assert!(world.npe.is_none(), "fixtures free nothing");
        let events = if trace.len() < MAX_DISPATCHES {
            world.enabled_events()
        } else {
            Vec::new()
        };
        if events.is_empty() {
            out.push(trace);
            continue;
        }
        for event in events {
            let mut next = world.clone();
            assert!(next.step(&Step::Dispatch(event.clone())), "{event}");
            let delivered = match (&event, next.tasks[0].frames.first()) {
                (_, Some(frame)) => {
                    let m = program.method(frame.method);
                    Cb {
                        class: m.owner(),
                        kind: m.callback().expect("a dispatched callback"),
                    }
                }
                (&Event::Lifecycle { activity, kind }, None) => Cb {
                    class: activity,
                    kind,
                },
                (event, None) => panic!("{event} ran no callback"),
            };
            let mut trace = trace.clone();
            trace.push(delivered);
            stack.push((next, trace));
        }
    }
    out
}

/// Where one fact ended up over all sequences.
#[derive(Default)]
struct Outcome {
    exercised: bool,
    /// The shortest contradicting prefix.
    witness: Option<Vec<Cb>>,
}

/// Check every fact of a fixture; print the per-rule report and return
/// the fixture's disagreements.
fn disagreements(fx: &Fixture, report: &mut String) -> Vec<String> {
    let p = &fx.program;
    let seqs = sequences(p);
    let mut outcomes: Vec<Outcome> = fx.facts.iter().map(|_| Outcome::default()).collect();
    for trace in &seqs {
        for (fact, out) in fx.facts.iter().zip(&mut outcomes) {
            let (exercised, broken) = fact.claim.check(trace);
            out.exercised |= exercised;
            if let Some(len) = broken {
                if out.witness.as_ref().is_none_or(|w| len < w.len()) {
                    out.witness = Some(trace[..len].to_vec());
                }
            }
        }
    }
    let describe = |f: &Fact| {
        let cbs: Vec<String> = f.claim.cbs().into_iter().map(|c| show(p, c)).collect();
        format!("{} {}", f.rule, cbs.join(" < "))
    };

    let mut rules: Vec<&'static str> = Vec::new();
    for f in &fx.facts {
        if !rules.contains(&f.rule) {
            rules.push(f.rule);
        }
    }
    let _ = writeln!(report, "{} ({} sequences):", fx.name, seqs.len());
    for rule in rules {
        let (mut ok, mut broken, mut never) = (0, 0, 0);
        for (f, o) in fx.facts.iter().zip(&outcomes) {
            if f.rule == rule {
                match (o.witness.is_some(), o.exercised) {
                    (true, _) => broken += 1,
                    (false, true) => ok += 1,
                    (false, false) => never += 1,
                }
            }
        }
        let _ = writeln!(
            report,
            "  {rule}: {ok} exercised, {broken} contradicted, {never} never exercised"
        );
    }

    let delivered: Vec<Cb> = seqs.iter().flatten().copied().collect();
    let undelivered: Vec<Cb> = declared(p)
        .into_iter()
        .filter(|c| !delivered.contains(c))
        .collect();
    let mut out = Vec::new();
    let mut contradicted = Vec::new();
    let mut unexercised = Vec::new();
    for (f, o) in fx.facts.iter().zip(&outcomes) {
        if let Some(w) = &o.witness {
            let w: Vec<String> = w.iter().map(|&c| show(p, c)).collect();
            let _ = writeln!(
                report,
                "  contradicted: {} by [{}]",
                describe(f),
                w.join(", ")
            );
            contradicted.push(describe(f));
        } else if !o.exercised {
            let _ = writeln!(report, "  never exercised: {}", describe(f));
            if f.claim.cbs().iter().any(|c| undelivered.contains(c)) {
                unexercised.push(describe(f));
            } else {
                out.push(format!(
                    "{}: {} is never exercised within {MAX_DISPATCHES} dispatches",
                    fx.name,
                    describe(f)
                ));
            }
        }
    }
    if !undelivered.is_empty() {
        let names: Vec<String> = undelivered.iter().map(|&c| show(p, c)).collect();
        out.push(format!(
            "{}: the interpreter never delivers {}, so {} facts are never exercised",
            fx.name,
            names.join(", "),
            unexercised.len()
        ));
    }
    if !contradicted.is_empty() {
        out.push(format!(
            "{}: the interpreter contradicts {}",
            fx.name,
            contradicted.join("; ")
        ));
    }
    out
}

/// The disagreements the interpreter and the static rules have today,
/// each with the ROADMAP item that owns its fix.
const KNOWN: &[(&str, &str)] = &[
    (
        "host: the interpreter never delivers Frag.onAttach, Frag.onCreateView, \
         Frag.onDestroyView, Frag.onDetach, so 7 facts are never exercised",
        "ROADMAP item 1: hosted fragments run the activity Lifecycle, not FragmentLifecycle",
    ),
    (
        "host: the interpreter contradicts lifecycle_mhb Host.onCreate < Frag.onResume; \
         lifecycle_mhb Frag.onResume < Host.onDestroy",
        "ROADMAP item 1: a hosted fragment's lifecycle is not bounded by its host's",
    ),
    (
        "dialog: the interpreter never delivers T.onDismiss, so 2 facts are never exercised",
        "ROADMAP item 1: Dialog onDismiss is modeled statically only",
    ),
];

#[test]
fn static_framework_rules_agree_with_the_interpreter_except_the_known_disagreements() {
    let mut fixtures = vec![host_fixture()];
    fixtures.extend(
        PredicateFamily::all()
            .iter()
            .filter(|f| f.disabler_api().is_some())
            .map(|&f| family_fixture(f)),
    );
    fixtures.push(launch_fixture());

    let mut report = String::new();
    let found: Vec<String> = fixtures
        .iter()
        .flat_map(|fx| disagreements(fx, &mut report))
        .collect();
    println!("{report}");
    let known: Vec<&str> = KNOWN.iter().map(|&(d, _)| d).collect();
    let owners: String = KNOWN
        .iter()
        .map(|(d, item)| format!("  {d}\n    fixed by {item}\n"))
        .collect();
    assert_eq!(
        found, known,
        "the disagreements between the static rules and the interpreter moved; \
         the known ones:\n{owners}\n{report}"
    );
}
