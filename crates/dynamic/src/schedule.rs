//! A compact, stable text codec for [`Step`] sequences.
//!
//! Confirmed warnings carry their minimized witness schedule in the
//! provenance document (`nadroid-provenance/4`), and CI replays that
//! schedule from a *separate process* to verify the NPE reproduces —
//! so schedules need a serialization that survives a round trip
//! through JSON and the shell. The encoding is a space-separated token
//! stream, one token per step:
//!
//! | token | step |
//! |---|---|
//! | `a<task>.<0\|1>` | [`Step::Advance`] (choice 0 = fall through) |
//! | `l<class>.<callback>` | [`Event::Lifecycle`] |
//! | `e<target>.<method>` | [`Event::Entry`] |
//! | `q<looper>` | [`Event::DequeuePost`] |
//! | `c<conn>` | [`Event::ServiceConnect`] |
//! | `d<conn>` | [`Event::ServiceDisconnect`] |
//! | `b<receiver>` | [`Event::Broadcast`] |
//! | `t<run>` | [`Event::TaskPost`] |
//!
//! All ids are the deterministic arena/heap indices of the program the
//! schedule was recorded against: [`crate::World::new`] allocates component
//! singletons in class order, so a decoded schedule replays exactly on
//! the same program. [`crate::replay`] additionally validates every
//! step against the interpreter's dispatchability rules, so a schedule
//! decoded against the *wrong* program stops at the first illegal step
//! instead of executing nonsense.

use crate::machine::HeapRef;
use crate::world::{Event, Step, TaskId};
use nadroid_android::CallbackKind;
use nadroid_ir::{ClassId, MethodId};
use std::fmt::Write as _;

/// Encode a step sequence as one space-separated token line.
#[must_use]
pub fn encode_schedule(schedule: &[Step]) -> String {
    let mut out = String::new();
    for (i, step) in schedule.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        match step {
            Step::Advance { task, choice } => {
                let _ = write!(out, "a{}.{}", task.0, u8::from(*choice));
            }
            Step::Dispatch(e) => match e {
                Event::Lifecycle { activity, kind } => {
                    let _ = write!(out, "l{}.{}", activity.raw(), kind.method_name());
                }
                Event::Entry { target, method } => {
                    let _ = write!(out, "e{}.{}", target.0, method.raw());
                }
                Event::DequeuePost { looper } => {
                    let _ = write!(out, "q{}", looper.0);
                }
                Event::ServiceConnect { conn } => {
                    let _ = write!(out, "c{}", conn.0);
                }
                Event::ServiceDisconnect { conn } => {
                    let _ = write!(out, "d{}", conn.0);
                }
                Event::Broadcast { receiver } => {
                    let _ = write!(out, "b{}", receiver.0);
                }
                Event::TaskPost { run } => {
                    let _ = write!(out, "t{run}");
                }
            },
        }
    }
    out
}

fn parse_u32(s: &str, what: &str, token: &str) -> Result<u32, String> {
    s.parse()
        .map_err(|_| format!("bad {what} in schedule token {token:?}"))
}

fn lifecycle_kind(name: &str, token: &str) -> Result<CallbackKind, String> {
    CallbackKind::all()
        .iter()
        .copied()
        .find(|k| k.is_lifecycle() && k.method_name() == name)
        .ok_or_else(|| format!("unknown lifecycle callback in schedule token {token:?}"))
}

/// Decode a schedule previously produced by [`encode_schedule`].
///
/// # Errors
///
/// Returns a message naming the first malformed token.
pub fn decode_schedule(text: &str) -> Result<Vec<Step>, String> {
    let mut out = Vec::new();
    for token in text.split_whitespace() {
        // The tag is the first character, which need not be one byte.
        let (tag, rest) = token.split_at(token.chars().next().map_or(0, char::len_utf8));
        let step = match tag {
            "a" => {
                let (task, choice) = rest
                    .split_once('.')
                    .ok_or_else(|| format!("malformed advance token {token:?}"))?;
                let choice = match choice {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad choice in schedule token {token:?}")),
                };
                Step::Advance {
                    task: TaskId(parse_u32(task, "task", token)?),
                    choice,
                }
            }
            "l" => {
                let (class, kind) = rest
                    .split_once('.')
                    .ok_or_else(|| format!("malformed lifecycle token {token:?}"))?;
                Step::Dispatch(Event::Lifecycle {
                    activity: ClassId::from_raw(parse_u32(class, "class", token)?),
                    kind: lifecycle_kind(kind, token)?,
                })
            }
            "e" => {
                let (target, method) = rest
                    .split_once('.')
                    .ok_or_else(|| format!("malformed entry token {token:?}"))?;
                Step::Dispatch(Event::Entry {
                    target: HeapRef(parse_u32(target, "target", token)?),
                    method: MethodId::from_raw(parse_u32(method, "method", token)?),
                })
            }
            "q" => Step::Dispatch(Event::DequeuePost {
                looper: TaskId(parse_u32(rest, "looper", token)?),
            }),
            "c" => Step::Dispatch(Event::ServiceConnect {
                conn: HeapRef(parse_u32(rest, "connection", token)?),
            }),
            "d" => Step::Dispatch(Event::ServiceDisconnect {
                conn: HeapRef(parse_u32(rest, "connection", token)?),
            }),
            "b" => Step::Dispatch(Event::Broadcast {
                receiver: HeapRef(parse_u32(rest, "receiver", token)?),
            }),
            "t" => Step::Dispatch(Event::TaskPost {
                run: parse_u32(rest, "run", token)? as usize,
            }),
            _ => return Err(format!("unknown schedule token {token:?}")),
        };
        out.push(step);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, find_any_npe, minimize_schedule, replay, ExploreConfig, Goal};
    use nadroid_ir::parse_program;

    const CONNECTBOT: &str = r#"
        app Mini
        activity Main {
            field svc: Main
            cb onCreate { bind this }
            cb onServiceConnected    { svc = new Main }
            cb onServiceDisconnected { svc = null }
            cb onCreateContextMenu   { use svc }
        }
    "#;

    #[test]
    fn witness_schedules_round_trip() {
        let p = parse_program(CONNECTBOT).unwrap();
        let w = find_any_npe(&p).expect("witness");
        let encoded = encode_schedule(&w.schedule);
        let decoded = decode_schedule(&encoded).expect("decode");
        assert_eq!(decoded, w.schedule);
        // And the decoded schedule replays to the same NPE.
        let world = replay(&p, &decoded);
        assert_eq!(world.npe.as_ref(), Some(&w.npe));
    }

    #[test]
    fn minimized_schedules_round_trip_and_replay() {
        let p = parse_program(CONNECTBOT).unwrap();
        let w = explore(&p, Goal::AnyNpe, ExploreConfig::default()).expect("witness");
        let min = minimize_schedule(&p, &w.schedule, &w.npe);
        let decoded = decode_schedule(&encode_schedule(&min)).expect("decode");
        assert_eq!(decoded, min);
        assert_eq!(replay(&p, &decoded).npe.as_ref(), Some(&w.npe));
    }

    #[test]
    fn decode_rejects_malformed_tokens() {
        for bad in ["z9", "a3", "a3.7", "l0.onFrobnicate", "exyz", "q", "a.1"] {
            assert!(decode_schedule(bad).is_err(), "{bad:?} should not decode");
        }
        // A tag that is not one byte long is an error, not a panic.
        assert!(decode_schedule("é1").is_err());
        assert_eq!(decode_schedule("").unwrap(), Vec::new());
        assert_eq!(decode_schedule("  \n ").unwrap(), Vec::new());
    }

    #[test]
    fn every_event_form_encodes_distinctly() {
        use crate::world::{Event, Step, TaskId};
        use nadroid_android::CallbackKind;
        let steps = vec![
            Step::Advance {
                task: TaskId(2),
                choice: true,
            },
            Step::Dispatch(Event::Lifecycle {
                activity: ClassId::from_raw(0),
                kind: CallbackKind::OnCreate,
            }),
            Step::Dispatch(Event::Entry {
                target: HeapRef(1),
                method: MethodId::from_raw(4),
            }),
            Step::Dispatch(Event::DequeuePost { looper: TaskId(0) }),
            Step::Dispatch(Event::ServiceConnect { conn: HeapRef(3) }),
            Step::Dispatch(Event::ServiceDisconnect { conn: HeapRef(3) }),
            Step::Dispatch(Event::Broadcast {
                receiver: HeapRef(5),
            }),
            Step::Dispatch(Event::TaskPost { run: 7 }),
        ];
        let text = encode_schedule(&steps);
        assert_eq!(text, "a2.1 l0.onCreate e1.4 q0 c3 d3 b5 t7");
        assert_eq!(decode_schedule(&text).unwrap(), steps);
    }
}
