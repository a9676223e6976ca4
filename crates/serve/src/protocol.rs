//! The `nadroid-serve/1` wire protocol: newline-delimited JSON over
//! TCP, one request object per line, one response object per line.
//!
//! Encoding reuses `nadroid_core::json::esc`; decoding reuses
//! `nadroid_core::parse_json`, so the serving layer introduces no new
//! serialization machinery. See `docs/serving.md` for the schema.

use nadroid_core::{esc, esc_into, parse_json, JsonValue, Summary};
use std::fmt::Write as _;

/// Protocol identifier carried by every message.
pub const SCHEMA: &str = "nadroid-serve/1";

/// Per-request analysis options (the cache key covers all of them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeOpts {
    /// Points-to sensitivity.
    pub k: u32,
    /// Skip the unsound filter tier.
    pub sound_only: bool,
    /// Per-request deadline override in milliseconds; `None` uses the
    /// server default (which may be unlimited).
    pub deadline_ms: Option<u64>,
}

impl Default for AnalyzeOpts {
    fn default() -> Self {
        AnalyzeOpts {
            k: 2,
            sound_only: false,
            deadline_ms: None,
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run (or serve from cache) the full pipeline over a DSL program.
    Analyze {
        /// DSL source text.
        program: String,
        /// Analysis options.
        opts: AnalyzeOpts,
    },
    /// Explain one warning (or all) — served from cached provenance
    /// once an earlier `explain` or `confirm` of the program derived
    /// it; an `analyze` caches no provenance.
    Explain {
        /// DSL source text.
        program: String,
        /// Stable warning id; `None` explains every warning.
        id: Option<String>,
        /// Analysis options (part of the cache key).
        opts: AnalyzeOpts,
    },
    /// Dynamically confirm every surviving warning of a DSL program
    /// (schedule synthesis; see `docs/confirm.md`). The rendered
    /// `nadroid-confirm/1` document is cached alongside the provenance,
    /// so repeat confirmations are a lookup.
    Confirm {
        /// DSL source text.
        program: String,
        /// Analysis options (part of the cache key).
        opts: AnalyzeOpts,
    },
    /// Server counters snapshot.
    Stats,
    /// Machine-readable metrics document (`nadroid-serve-metrics/1`):
    /// counters, rolling rps/error-rate windows, and per-endpoint
    /// latency histograms with bucket detail.
    Metrics,
    /// Graceful shutdown: drain the queue, then exit.
    Shutdown,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful analysis.
    Analyze {
        /// App name.
        app: String,
        /// Whether the result came from the cache.
        cached: bool,
        /// Server-side handling time.
        micros: u64,
        /// The Table 1 row counts.
        summary: Summary,
        /// Stable ids of warnings surviving all filters.
        warnings: Vec<String>,
    },
    /// Successful explain.
    Explain {
        /// Whether the provenance came from the cache.
        cached: bool,
        /// Server-side handling time.
        micros: u64,
        /// The `nadroid explain` text.
        text: String,
    },
    /// Successful confirmation: the `nadroid-confirm/1` document,
    /// transported as a string field (like `Metrics`).
    Confirm {
        /// Whether the document came from the cache.
        cached: bool,
        /// Server-side handling time.
        micros: u64,
        /// The `nadroid-confirm/1` document.
        json: String,
    },
    /// Counters snapshot, in stable name order.
    Stats {
        /// `(name, value)` pairs.
        fields: Vec<(String, u64)>,
    },
    /// Metrics exposition: a complete `nadroid-serve-metrics/1` JSON
    /// document, transported as a string field (the in-repo JSON layer
    /// has no generic renderer, so the server builds the document and
    /// the envelope carries it opaquely).
    Metrics {
        /// The `nadroid-serve-metrics/1` document.
        json: String,
    },
    /// Shutdown acknowledged.
    Shutdown,
    /// Admission control: the submission queue is full. Retry after the
    /// indicated backoff instead of buffering unboundedly server-side.
    Rejected {
        /// Suggested client backoff.
        retry_after_ms: u64,
    },
    /// The request's deadline expired before the analysis finished; the
    /// worker unwound at a cancellation checkpoint and stays healthy.
    DeadlineExceeded {
        /// The deadline that was exceeded.
        deadline_ms: u64,
    },
    /// Malformed request or failed analysis.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// Append `,"key":"value"`, escaping `value` straight into `out`.
fn push_str_member(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, ",\"{key}\":\"");
    esc_into(out, value);
    out.push('"');
}

/// Move the string member `key` out of an object, leaving `""` behind.
fn take_str(v: &mut JsonValue, key: &str) -> Option<String> {
    let JsonValue::Obj(members) = v else {
        return None;
    };
    match members.iter_mut().find(|(k, _)| k == key) {
        Some((_, JsonValue::Str(s))) => Some(std::mem::take(s)),
        _ => None,
    }
}

fn push_opts(out: &mut String, opts: &AnalyzeOpts) {
    let _ = write!(out, "\"k\":{},\"sound_only\":{}", opts.k, opts.sound_only);
    if let Some(d) = opts.deadline_ms {
        let _ = write!(out, ",\"deadline_ms\":{d}");
    }
}

impl Request {
    /// Encode as one protocol line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        let text_len = match self {
            Request::Analyze { program, .. }
            | Request::Explain { program, .. }
            | Request::Confirm { program, .. } => program.len(),
            _ => 0,
        };
        let mut out = String::with_capacity(text_len + 128);
        let _ = write!(out, "{{\"schema\":\"{SCHEMA}\",");
        match self {
            Request::Analyze { program, opts } => {
                out.push_str("\"op\":\"analyze\",");
                push_opts(&mut out, opts);
                push_str_member(&mut out, "program", program);
            }
            Request::Explain { program, id, opts } => {
                out.push_str("\"op\":\"explain\",");
                push_opts(&mut out, opts);
                if let Some(id) = id {
                    push_str_member(&mut out, "id", id);
                }
                push_str_member(&mut out, "program", program);
            }
            Request::Confirm { program, opts } => {
                out.push_str("\"op\":\"confirm\",");
                push_opts(&mut out, opts);
                push_str_member(&mut out, "program", program);
            }
            Request::Stats => out.push_str("\"op\":\"stats\""),
            Request::Metrics => out.push_str("\"op\":\"metrics\""),
            Request::Shutdown => out.push_str("\"op\":\"shutdown\""),
        }
        out.push('}');
        out
    }

    /// Decode one protocol line.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a wrong schema, a
    /// missing/unknown `op`, or a present field (`k`, `sound_only`,
    /// `deadline_ms`, `id`) whose value has the wrong type or range; an
    /// absent option takes its default.
    pub fn decode(line: &str) -> Result<Request, String> {
        let mut v = parse_json(line)?;
        check_schema(&v)?;
        // The program text is moved out, not copied; nothing below reads
        // the member again.
        let text = take_str(&mut v, "program");
        let op = v
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "request has no op".to_owned())?;
        let opts = || -> Result<AnalyzeOpts, String> {
            let default = AnalyzeOpts::default();
            let k = |x: &JsonValue| whole(x).and_then(|n| u32::try_from(n).ok());
            Ok(AnalyzeOpts {
                k: field(&v, "k", "an integer from 0 to 4294967295", k)?.unwrap_or(default.k),
                sound_only: field(&v, "sound_only", "true or false", JsonValue::as_bool)?
                    .unwrap_or(default.sound_only),
                deadline_ms: field(
                    &v,
                    "deadline_ms",
                    "a non-negative integer below 2^64",
                    whole,
                )?,
            })
        };
        let program = || text.ok_or_else(|| format!("{op} request has no program"));
        match op {
            "analyze" => Ok(Request::Analyze {
                program: program()?,
                opts: opts()?,
            }),
            "explain" => Ok(Request::Explain {
                program: program()?,
                id: field(&v, "id", "a string", |x| x.as_str().map(str::to_owned))?,
                opts: opts()?,
            }),
            "confirm" => Ok(Request::Confirm {
                program: program()?,
                opts: opts()?,
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// Request field `name` of `v`: `None` when absent, an error naming the
/// field when it is present but `read` rejects its value.
fn field<T>(
    v: &JsonValue,
    name: &str,
    expected: &str,
    read: impl Fn(&JsonValue) -> Option<T>,
) -> Result<Option<T>, String> {
    v.get(name)
        .map(|x| read(x).ok_or_else(|| format!("`{name}` must be {expected}")))
        .transpose()
}

/// A number with no fractional part that fits in `u64`.
fn whole(v: &JsonValue) -> Option<u64> {
    let n = v.as_f64()?;
    // `u64::MAX as f64` rounds up to 2^64, the first value that does
    // not fit.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
}

/// The `request_id` a response line carries, if any. Every response
/// from a `nadroid-serve` daemon carries one (minted at accept time);
/// responses encoded by other tooling may not.
#[must_use]
pub fn request_id_of(line: &str) -> Option<String> {
    let v = parse_json(line).ok()?;
    v.get("request_id")
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
}

fn check_schema(v: &JsonValue) -> Result<(), String> {
    match v.get("schema").and_then(JsonValue::as_str) {
        Some(SCHEMA) => Ok(()),
        Some(other) => Err(format!("unsupported schema `{other}`")),
        None => Err("message has no schema".into()),
    }
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"loc\":{},\"ec\":{},\"pc\":{},\"threads\":{},\"potential\":{},\"after_sound\":{},\"after_unsound\":{},\"refuted\":{},\"after_refutation\":{}}}",
        s.loc,
        s.ec,
        s.pc,
        s.threads,
        s.potential,
        s.after_sound,
        s.after_unsound,
        s.refuted,
        s.after_refutation
    )
}

fn summary_from_json(v: &JsonValue) -> Result<Summary, String> {
    let field = |key: &str| -> Result<usize, String> {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .map(|n| usize::try_from(n).unwrap_or(usize::MAX))
            .ok_or_else(|| format!("summary missing `{key}`"))
    };
    // The refutation fields arrived with nadroid-provenance/4-era
    // builds; default them to the no-refutation reading so documents
    // from older peers still parse.
    let after_unsound = field("after_unsound")?;
    let opt = |key: &str| -> Option<usize> {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .map(|n| usize::try_from(n).unwrap_or(usize::MAX))
    };
    Ok(Summary {
        loc: field("loc")?,
        ec: field("ec")?,
        pc: field("pc")?,
        threads: field("threads")?,
        potential: field("potential")?,
        after_sound: field("after_sound")?,
        after_unsound,
        refuted: opt("refuted").unwrap_or(0),
        after_refutation: opt("after_refutation").unwrap_or(after_unsound),
    })
}

impl Response {
    /// Encode as one protocol line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = format!("{{\"schema\":\"{SCHEMA}\",");
        match self {
            Response::Analyze {
                app,
                cached,
                micros,
                summary,
                warnings,
            } => {
                let ids: Vec<String> = warnings.iter().map(|w| format!("\"{}\"", esc(w))).collect();
                let _ = write!(
                    out,
                    "\"status\":\"ok\",\"op\":\"analyze\",\"app\":\"{}\",\"cached\":{cached},\
                     \"micros\":{micros},\"summary\":{},\"warnings\":[{}]",
                    esc(app),
                    summary_json(summary),
                    ids.join(",")
                );
            }
            Response::Explain {
                cached,
                micros,
                text,
            } => {
                let _ = write!(
                    out,
                    "\"status\":\"ok\",\"op\":\"explain\",\"cached\":{cached},\
                     \"micros\":{micros},\"text\":\"{}\"",
                    esc(text)
                );
            }
            Response::Confirm {
                cached,
                micros,
                json,
            } => {
                let _ = write!(
                    out,
                    "\"status\":\"ok\",\"op\":\"confirm\",\"cached\":{cached},\
                     \"micros\":{micros},\"confirm_json\":\"{}\"",
                    esc(json)
                );
            }
            Response::Stats { fields } => {
                out.push_str("\"status\":\"ok\",\"op\":\"stats\",\"stats\":{");
                for (i, (name, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":{value}", esc(name));
                }
                out.push('}');
            }
            Response::Metrics { json } => {
                let _ = write!(
                    out,
                    "\"status\":\"ok\",\"op\":\"metrics\",\"metrics_json\":\"{}\"",
                    esc(json)
                );
            }
            Response::Shutdown => out.push_str("\"status\":\"ok\",\"op\":\"shutdown\""),
            Response::Rejected { retry_after_ms } => {
                let _ = write!(
                    out,
                    "\"status\":\"rejected\",\"retry_after_ms\":{retry_after_ms}"
                );
            }
            Response::DeadlineExceeded { deadline_ms } => {
                let _ = write!(
                    out,
                    "\"status\":\"deadline_exceeded\",\"deadline_ms\":{deadline_ms}"
                );
            }
            Response::Error { message } => {
                let _ = write!(out, "\"status\":\"error\",\"message\":\"{}\"", esc(message));
            }
        }
        out.push('}');
        out
    }

    /// [`Response::encode`], with the server-minted request id spliced
    /// in as a trailing `"request_id"` member. Decoding ignores the
    /// field (it is attribution metadata, not payload); clients read it
    /// via [`request_id_of`].
    #[must_use]
    pub fn encode_with_request_id(&self, request_id: &str) -> String {
        let mut out = self.encode();
        debug_assert!(out.ends_with('}'));
        out.pop();
        let _ = write!(out, ",\"request_id\":\"{}\"}}", esc(request_id));
        out
    }

    /// Decode one protocol line.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a wrong schema, or an
    /// unknown status/op combination.
    pub fn decode(line: &str) -> Result<Response, String> {
        let v = parse_json(line)?;
        check_schema(&v)?;
        let status = v
            .get("status")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "response has no status".to_owned())?;
        match status {
            "rejected" => Ok(Response::Rejected {
                retry_after_ms: v
                    .get("retry_after_ms")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
            }),
            "deadline_exceeded" => Ok(Response::DeadlineExceeded {
                deadline_ms: v
                    .get("deadline_ms")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
            }),
            "error" => Ok(Response::Error {
                message: v
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unknown error")
                    .to_owned(),
            }),
            "ok" => {
                let op = v
                    .get("op")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| "ok response has no op".to_owned())?;
                let micros = v.get("micros").and_then(JsonValue::as_u64).unwrap_or(0);
                let cached = v
                    .get("cached")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false);
                match op {
                    "analyze" => Ok(Response::Analyze {
                        app: v
                            .get("app")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_owned(),
                        cached,
                        micros,
                        summary: summary_from_json(
                            v.get("summary")
                                .ok_or_else(|| "analyze response has no summary".to_owned())?,
                        )?,
                        warnings: v
                            .get("warnings")
                            .and_then(JsonValue::as_arr)
                            .unwrap_or(&[])
                            .iter()
                            .filter_map(JsonValue::as_str)
                            .map(str::to_owned)
                            .collect(),
                    }),
                    "explain" => Ok(Response::Explain {
                        cached,
                        micros,
                        text: v
                            .get("text")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_owned(),
                    }),
                    "confirm" => Ok(Response::Confirm {
                        cached,
                        micros,
                        json: v
                            .get("confirm_json")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_owned(),
                    }),
                    "stats" => Ok(Response::Stats {
                        fields: match v.get("stats") {
                            Some(JsonValue::Obj(members)) => members
                                .iter()
                                .filter_map(|(k, val)| val.as_u64().map(|n| (k.clone(), n)))
                                .collect(),
                            _ => Vec::new(),
                        },
                    }),
                    "metrics" => Ok(Response::Metrics {
                        json: v
                            .get("metrics_json")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_owned(),
                    }),
                    "shutdown" => Ok(Response::Shutdown),
                    other => Err(format!("unknown response op `{other}`")),
                }
            }
            other => Err(format!("unknown status `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) {
        let line = req.encode();
        assert!(!line.contains('\n'), "one line per message: {line}");
        assert_eq!(&Request::decode(&line).unwrap(), req);
    }

    fn round_trip_response(resp: &Response) {
        let line = resp.encode();
        assert!(!line.contains('\n'), "one line per message: {line}");
        assert_eq!(&Response::decode(&line).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip_including_multiline_programs() {
        round_trip_request(&Request::Analyze {
            program: "app X\nactivity M {\n  cb onClick { }\n}\n".into(),
            opts: AnalyzeOpts::default(),
        });
        round_trip_request(&Request::Analyze {
            program: "app \"quoted\"".into(),
            opts: AnalyzeOpts {
                k: 3,
                sound_only: true,
                deadline_ms: Some(250),
            },
        });
        round_trip_request(&Request::Explain {
            program: "app Y".into(),
            id: Some("w:0011223344556677".into()),
            opts: AnalyzeOpts::default(),
        });
        round_trip_request(&Request::Explain {
            program: "app Y".into(),
            id: None,
            opts: AnalyzeOpts::default(),
        });
        round_trip_request(&Request::Confirm {
            program: "app Z\nactivity M {\n  cb onClick { }\n}\n".into(),
            opts: AnalyzeOpts {
                k: 2,
                sound_only: false,
                deadline_ms: Some(5000),
            },
        });
        round_trip_request(&Request::Stats);
        round_trip_request(&Request::Metrics);
        round_trip_request(&Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(&Response::Analyze {
            app: "ConnectBot".into(),
            cached: true,
            micros: 42,
            summary: Summary {
                loc: 10,
                ec: 2,
                pc: 1,
                threads: 3,
                potential: 5,
                after_sound: 2,
                after_unsound: 1,
                refuted: 0,
                after_refutation: 1,
            },
            warnings: vec!["w:0011223344556677".into(), "w:8899aabbccddeeff".into()],
        });
        round_trip_response(&Response::Explain {
            cached: false,
            micros: 9,
            text: "warning w:..\n  field: x\n".into(),
        });
        round_trip_response(&Response::Confirm {
            cached: true,
            micros: 77,
            json: "{\"schema\":\"nadroid-confirm/1\",\"tally\":{\"confirmed\":1}}".into(),
        });
        round_trip_response(&Response::Stats {
            fields: vec![("cache_hits".into(), 3), ("requests".into(), 4)],
        });
        round_trip_response(&Response::Metrics {
            json: "{\"schema\":\"nadroid-serve-metrics/1\",\"counters\":{}}".into(),
        });
        round_trip_response(&Response::Shutdown);
        round_trip_response(&Response::Rejected { retry_after_ms: 50 });
        round_trip_response(&Response::DeadlineExceeded { deadline_ms: 100 });
        round_trip_response(&Response::Error {
            message: "parse error: line 3".into(),
        });
    }

    #[test]
    fn request_ids_ride_the_envelope_without_breaking_decode() {
        let resp = Response::Shutdown;
        let line = resp.encode_with_request_id("r0000002a");
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(request_id_of(&line).as_deref(), Some("r0000002a"));
        assert_eq!(Response::decode(&line).unwrap(), resp, "id is metadata");
        assert_eq!(request_id_of(&resp.encode()), None);
        // The embedded metrics document survives the splice intact.
        let m = Response::Metrics {
            json: "{\"schema\":\"nadroid-serve-metrics/1\"}".into(),
        };
        let line = m.encode_with_request_id("r00000001");
        match Response::decode(&line).unwrap() {
            Response::Metrics { json } => {
                assert!(nadroid_core::parse_json(&json).is_ok(), "{json}");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// Decode an `analyze` request carrying the given extra members.
    fn analyze_with(members: &str) -> Result<Request, String> {
        Request::decode(&format!(
            "{{\"schema\":\"{SCHEMA}\",\"op\":\"analyze\",\"program\":\"app X\"{members}}}"
        ))
    }

    #[test]
    fn absent_options_take_their_defaults() {
        assert_eq!(
            analyze_with(""),
            Ok(Request::Analyze {
                program: "app X".into(),
                opts: AnalyzeOpts::default(),
            })
        );
    }

    #[test]
    fn a_string_k_is_rejected() {
        assert_eq!(
            analyze_with(",\"k\":\"3\""),
            Err("`k` must be an integer from 0 to 4294967295".into())
        );
    }

    #[test]
    fn a_fractional_k_is_rejected() {
        assert_eq!(
            analyze_with(",\"k\":2.9"),
            Err("`k` must be an integer from 0 to 4294967295".into())
        );
    }

    #[test]
    fn a_k_past_u32_is_rejected() {
        assert_eq!(
            analyze_with(",\"k\":4294967299"),
            Err("`k` must be an integer from 0 to 4294967295".into())
        );
        assert!(analyze_with(",\"k\":-1").is_err());
        assert!(analyze_with(",\"k\":4294967295").is_ok());
    }

    #[test]
    fn a_string_deadline_is_rejected() {
        assert_eq!(
            analyze_with(",\"deadline_ms\":\"50\""),
            Err("`deadline_ms` must be a non-negative integer below 2^64".into())
        );
        assert!(analyze_with(",\"deadline_ms\":18446744073709551616").is_err());
        assert!(analyze_with(",\"deadline_ms\":null").is_err());
    }

    #[test]
    fn a_string_sound_only_is_rejected() {
        assert_eq!(
            analyze_with(",\"sound_only\":\"yes\""),
            Err("`sound_only` must be true or false".into())
        );
    }

    #[test]
    fn an_explain_id_that_is_not_a_string_is_rejected() {
        let line = format!(
            "{{\"schema\":\"{SCHEMA}\",\"op\":\"explain\",\"program\":\"app X\",\"id\":7}}"
        );
        assert_eq!(Request::decode(&line), Err("`id` must be a string".into()));
    }

    #[test]
    fn wrong_schema_and_ops_are_rejected() {
        assert!(
            Request::decode("{\"op\":\"analyze\"}").is_err(),
            "no schema"
        );
        assert!(
            Request::decode("{\"schema\":\"nadroid-serve/2\",\"op\":\"stats\"}").is_err(),
            "future schema"
        );
        assert!(Request::decode("{\"schema\":\"nadroid-serve/1\",\"op\":\"frobnicate\"}").is_err());
        assert!(
            Request::decode("{\"schema\":\"nadroid-serve/1\",\"op\":\"analyze\"}").is_err(),
            "analyze needs a program"
        );
        assert!(Response::decode("{\"schema\":\"nadroid-serve/1\"}").is_err());
    }
}
