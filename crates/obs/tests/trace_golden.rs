//! Golden-shape test for the Chrome trace exporter: the emitted
//! document must parse as JSON (checked by a small recursive-descent
//! parser — no serde in the workspace) and every event must carry
//! well-formed `ph`/`ts`/`dur` fields.

use nadroid_obs as obs;

/// Minimal JSON value for validation.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) {
        assert_eq!(
            self.peek(),
            Some(b),
            "expected {:?} at {}",
            b as char,
            self.pos
        );
        self.pos += 1;
    }

    fn value(&mut self) -> Json {
        match self.peek().expect("unexpected end of input") {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.bytes[self.pos..].starts_with(word.as_bytes()),
            "bad literal at {}",
            self.pos
        );
        self.pos += word.len();
        v
    }

    fn object(&mut self) -> Json {
        self.expect(b'{');
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Json::Obj(fields);
        }
        loop {
            self.skip_ws();
            let key = self.string();
            self.expect(b':');
            fields.push((key, self.value()));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Json::Obj(fields);
                }
                other => panic!("bad object separator {other:?} at {}", self.pos),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.expect(b'[');
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Json::Arr(items);
                }
                other => panic!("bad array separator {other:?} at {}", self.pos),
            }
        }
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            match self
                .bytes
                .get(self.pos)
                .copied()
                .expect("unterminated string")
            {
                b'"' => {
                    self.pos += 1;
                    return out;
                }
                b'\\' => {
                    self.pos += 1;
                    let e = self.bytes[self.pos];
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).unwrap();
                            let code = u32::from_str_radix(hex, 16).expect("bad \\u escape");
                            out.push(char::from_u32(code).expect("bad code point"));
                            self.pos += 4;
                        }
                        other => panic!("unsupported escape \\{}", other as char),
                    }
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let s = std::str::from_utf8(&self.bytes[self.pos..]).unwrap();
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number `{text}`")),
        )
    }
}

fn parse(s: &str) -> Json {
    let mut p = Parser::new(s);
    let v = p.value();
    p.skip_ws();
    assert_eq!(p.pos, p.bytes.len(), "trailing garbage after JSON value");
    v
}

/// The span names a traced sample run must produce — the golden list.
const GOLDEN_NAMES: &[&str] = &["analyze", "modeling", "detection", "pointsto", "escape"];

fn traced_sample() -> obs::Recorder {
    let rec = obs::Recorder::new();
    {
        let _g = rec.install();
        let _a = obs::span("analyze");
        {
            let _m = obs::span("modeling");
        }
        {
            let _d = obs::span("detection");
            {
                let _p = obs::span("pointsto");
                obs::counter("pointsto.queue_pops", 5);
            }
            let _e = obs::span("escape");
        }
    }
    rec
}

#[test]
fn chrome_trace_parses_and_events_are_well_formed() {
    let rec = traced_sample();
    let doc = parse(&rec.chrome_trace());
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };
    assert_eq!(events.len(), GOLDEN_NAMES.len());

    let mut names: Vec<String> = Vec::new();
    for ev in events {
        assert_eq!(
            ev.get("ph").and_then(Json::as_str),
            Some("X"),
            "complete events only: {ev:?}"
        );
        let ts = ev.get("ts").and_then(Json::as_num).expect("numeric ts");
        let dur = ev.get("dur").and_then(Json::as_num).expect("numeric dur");
        assert!(ts >= 0.0 && dur >= 0.0, "non-negative timestamps: {ev:?}");
        assert!(
            ts.fract() == 0.0 && dur.fract() == 0.0,
            "integral µs: {ev:?}"
        );
        assert!(ev.get("pid").is_some() && ev.get("tid").is_some());
        names.push(ev.get("name").and_then(Json::as_str).unwrap().to_owned());
    }
    let mut sorted = names.clone();
    sorted.sort();
    let mut golden: Vec<String> = GOLDEN_NAMES.iter().map(|s| (*s).to_owned()).collect();
    golden.sort();
    assert_eq!(sorted, golden, "span names match the golden list");

    // Containment: children lie within their parent's [ts, ts+dur] —
    // exact, because durations are differences of epoch-relative
    // truncated offsets, so quantized ends are monotone.
    let ts_of = |name: &str| {
        events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .map(|e| {
                (
                    e.get("ts").and_then(Json::as_num).unwrap(),
                    e.get("dur").and_then(Json::as_num).unwrap(),
                )
            })
            .unwrap()
    };
    let (a_ts, a_dur) = ts_of("analyze");
    let (p_ts, p_dur) = ts_of("pointsto");
    assert!(a_ts <= p_ts && p_ts + p_dur <= a_ts + a_dur);
}

#[test]
fn report_json_parses_with_expected_fields() {
    let rec = traced_sample();
    let doc = parse(&rec.report_json());
    assert!(doc.get("wall_secs").and_then(Json::as_num).is_some());
    assert!(doc.get("busy_secs").and_then(Json::as_num).is_some());
    let counters = doc.get("counters").expect("counters object");
    assert_eq!(
        counters.get("pointsto.queue_pops").and_then(Json::as_num),
        Some(5.0)
    );
    match doc.get("spans") {
        Some(Json::Arr(spans)) => assert_eq!(spans.len(), GOLDEN_NAMES.len()),
        other => panic!("spans missing: {other:?}"),
    }
}

#[test]
fn escaped_span_names_round_trip() {
    let rec = obs::Recorder::new();
    {
        let _g = rec.install();
        let _s = obs::span("weird \"name\"\twith\nescapes\\");
    }
    let doc = parse(&rec.chrome_trace());
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(e)) => e,
        _ => panic!("no events"),
    };
    assert_eq!(
        events[0].get("name").and_then(Json::as_str),
        Some("weird \"name\"\twith\nescapes\\")
    );
}
