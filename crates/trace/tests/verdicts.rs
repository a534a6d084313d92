//! Validator verdicts and render round trips.
//!
//! Every malformed or edge-case document below is pinned to the exact
//! `Ok(Summary)` or error message `chrome::validate` returns for it, so a
//! change to the scanner cannot silently move a verdict. The round trip
//! renders a few thousand seeded random events and checks the validator's
//! counts against counts computed from the events themselves.

use std::collections::{BTreeSet, HashSet};
use std::fmt::Write as _;

use snitch_riscv::inst::Inst;
use snitch_trace::chrome::{self, Doc, Summary};
use snitch_trace::{EventKind, Lane, StallCause, TraceEvent, CLUSTER_HART};

/// A one-event document around `event`.
fn doc_with(event: &str) -> String {
    format!("{{\"traceEvents\":[{event}]}}")
}

fn summary(events: usize, complete: usize, counters: usize, instants: usize) -> Summary {
    Summary {
        events,
        complete,
        counters,
        instants,
        metadata: events - complete - counters - instants,
    }
}

fn err(msg: &str) -> Result<Summary, String> {
    Err(msg.to_string())
}

#[test]
fn escaped_keys_decode_before_matching() {
    // `\p\h` decodes to `ph`: an escape keeps the byte after the backslash.
    let v = chrome::validate(&doc_with(r#"{"\p\h":"i","pid":0,"ts":1,"n\ame":"x"}"#));
    assert_eq!(v, Ok(summary(1, 0, 0, 1)));
    // `"\"ph\""` is the five-byte key `"ph"`, so the event has no phase.
    let v = chrome::validate(&doc_with(r#"{"\"ph\"":"i","pid":0,"ts":1,"name":"x"}"#));
    assert_eq!(v, err("unknown event phase ``"));
    // `\uXXXX` decodes to `?`, never to the code point.
    let v = chrome::validate(&doc_with(r#"{"p\u0068":"i","pid":0,"ts":1,"name":"x"}"#));
    assert_eq!(v, err("unknown event phase ``"));
    let v = chrome::validate(&doc_with(r#"{"ph":"\u0058","pid":0,"ts":1,"name":"x"}"#));
    assert_eq!(v, err("unknown event phase `?`"));
    let v = chrome::validate(&doc_with(r#"{"ph":"\X","pid":0,"tid":0,"ts":1,"dur":1,"name":"x"}"#));
    assert_eq!(v, Ok(summary(1, 1, 0, 0)));
    // An escaped top-level key still finds the event array.
    assert_eq!(chrome::validate(r#"{"trace\Events":[]}"#), Ok(Summary::default()));
}

#[test]
fn truncated_escapes_and_unterminated_strings_are_rejected() {
    assert_eq!(chrome::validate(r#"{"traceEvents":[],"x":"\u00"#), err("truncated \\u escape"));
    assert_eq!(chrome::validate(r#"{"traceEvents":[],"x":"\u004"#), err("truncated \\u escape"));
    // Four bytes after `u` are enough; the string then runs off the end.
    assert_eq!(chrome::validate(r#"{"traceEvents":[],"x":"\u0041"#), err("unterminated string"));
    assert_eq!(chrome::validate(r#"{"traceEvents":[],"x":"\"#), err("truncated escape"));
    assert_eq!(chrome::validate(r#"{"traceEvents":[],"x":"abc"#), err("unterminated string"));
    assert_eq!(chrome::validate(r#"{"traceEv"#), err("unterminated string"));
    assert_eq!(chrome::validate("{\"traceEvents\":[{\"ph"), err("unterminated string"));
}

#[test]
fn trailing_bytes_and_framing_errors_are_pinned() {
    assert_eq!(chrome::validate("{\"traceEvents\":[]} \n\t"), Ok(Summary::default()));
    assert_eq!(chrome::validate("{\"traceEvents\":[]} x"), err("trailing bytes at offset 19"));
    assert_eq!(chrome::validate("{\"traceEvents\":[]}{}"), err("trailing bytes at offset 18"));
    assert_eq!(chrome::validate("{}"), err("document lacks a `traceEvents` array"));
    assert_eq!(chrome::validate(""), err("expected `{` at offset 0, found None"));
    assert_eq!(chrome::validate("[]"), err("expected `{` at offset 0, found Some('[')"));
    assert_eq!(
        chrome::validate("{\"traceEvents\":{}}"),
        err("expected `[` at offset 15, found Some('{')")
    );
    assert_eq!(
        chrome::validate("{\"traceEvents\":[1]}"),
        err("expected `{` at offset 16, found Some('1')")
    );
    assert_eq!(
        chrome::validate("{\"traceEvents\":[] \"x\":1}"),
        err("bad object at offset 18: Some(34)")
    );
    assert_eq!(
        chrome::validate("{\"traceEvents\":[}"),
        err("expected `{` at offset 16, found Some('}')")
    );
    assert_eq!(
        chrome::validate(&doc_with(r#"{"ph":"i","pid":0,"ts":1,"name":"x"} {}"#)),
        err("bad traceEvents at offset 53: Some(123)")
    );
    assert_eq!(
        chrome::validate("{\"traceEvents\":[],\"x\":[1 2]}"),
        err("bad array at offset 25: Some(50)")
    );
    assert_eq!(chrome::validate("{\"traceEvents\":[],\"x\":tru}"), err("bad literal at offset 22"));
    assert_eq!(
        chrome::validate("{\"traceEvents\":[],\"x\":}"),
        err("unexpected Some(125) at offset 22")
    );
    assert_eq!(
        chrome::validate("{\"traceEvents\" []}"),
        err("expected `:` at offset 15, found Some('[')")
    );
    assert_eq!(
        chrome::validate(&doc_with(r#"{"ph":1,"pid":0}"#)),
        err("expected `\"` at offset 22, found Some('1')")
    );
    // Syntax is checked inside skipped values too, and whitespace is free.
    let nested = " { \"otherData\" : { \"a\" : [ 1 , -2.5e+3 , true , false , null , \
                  { } , [ ] , \"s\" ] } , \"traceEvents\" : [ ] } ";
    assert_eq!(chrome::validate(nested), Ok(Summary::default()));
}

#[test]
fn duplicate_keys_count_once_and_the_last_phase_wins() {
    let v = chrome::validate(&doc_with(r#"{"ph":"X","ph":"i","pid":0,"ts":0,"name":"n"}"#));
    assert_eq!(v, Ok(summary(1, 0, 0, 1)));
    let v = chrome::validate(&doc_with(r#"{"ph":"i","ph":"X","pid":0,"ts":0,"name":"n"}"#));
    assert_eq!(v, err("`X` event #0 lacks key `tid`"));
    let v = chrome::validate(&doc_with(r#"{"ph":"i","pid":0,"pid":1,"ts":0,"ts":2,"name":"n"}"#));
    assert_eq!(v, Ok(summary(1, 0, 0, 1)));
    // A repeated `traceEvents` array is walked every time it appears.
    let two = r#"{"traceEvents":[{"ph":"i","pid":0,"ts":0,"name":"a"}],
                  "traceEvents":[{"ph":"i","pid":0,"ts":1,"name":"b"}]}"#;
    assert_eq!(chrome::validate(two), Ok(summary(2, 0, 0, 2)));
}

#[test]
fn non_ascii_bytes_pass_through_names_and_messages() {
    let v = chrome::validate(&doc_with(r#"{"ph":"i","pid":0,"ts":0,"name":"héllo ✓ 名前"}"#));
    assert_eq!(v, Ok(summary(1, 0, 0, 1)));
    let v =
        chrome::validate(&doc_with(r#"{"ph":"M","pid":0,"name":"ü","args":{"ключ":"значение"}}"#));
    assert_eq!(v, Ok(summary(1, 0, 0, 0)));
    // Messages render a scanned string one char per byte.
    let v = chrome::validate(&doc_with(r#"{"ph":"é","pid":0}"#));
    assert_eq!(v, err("unknown event phase `\u{c3}\u{a9}`"));
}

#[test]
fn each_phase_requires_each_of_its_keys() {
    let phases: [(&str, &[&str]); 4] = [
        ("X", &["pid", "tid", "ts", "dur", "name"]),
        ("C", &["pid", "ts", "name", "args"]),
        ("i", &["pid", "ts", "name"]),
        ("M", &["pid", "name", "args"]),
    ];
    let value = |key: &str| {
        if key == "name" {
            "\"n\""
        } else if key == "args" {
            "{}"
        } else {
            "0"
        }
    };
    for (ph, keys) in phases {
        // One complete event first, so the failing one is `#1`.
        let members = |skip: Option<&str>| -> String {
            let mut obj = format!("{{\"ph\":\"{ph}\"");
            for key in keys.iter().filter(|&&k| Some(k) != skip) {
                let _ = write!(obj, ",\"{key}\":{}", value(key));
            }
            obj.push('}');
            obj
        };
        let full = members(None);
        let ok = chrome::validate(&doc_with(&format!("{full},{full}")))
            .unwrap_or_else(|e| panic!("complete `{ph}` event rejected: {e}"));
        assert_eq!(ok.events, 2);
        for &missing in keys {
            let doc = doc_with(&format!("{full},{}", members(Some(missing))));
            assert_eq!(
                chrome::validate(&doc),
                Err(format!("`{ph}` event #1 lacks key `{missing}`")),
                "`{ph}` without `{missing}`"
            );
        }
    }
    assert_eq!(chrome::validate(&doc_with("{}")), err("unknown event phase ``"));
    assert_eq!(
        chrome::validate(&doc_with(r#"{"ph":"Z","pid":0}"#)),
        err("unknown event phase `Z`")
    );
}

/// A small deterministic generator (xorshift64*), so the round trip needs
/// no external crate and every failure reproduces.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn inst(&mut self) -> Inst {
        loop {
            if let Ok(inst) = Inst::decode(self.next() as u32) {
                return inst;
            }
        }
    }
}

fn random_events(seed: u64, count: usize) -> Vec<TraceEvent> {
    let mut rng = Rng(seed);
    let lanes = [Lane::Int, Lane::FpCore, Lane::FpSeq];
    let causes = StallCause::all();
    (0..count)
        .map(|_| {
            let hart = match rng.below(9) {
                8 => CLUSTER_HART,
                h => h as u8,
            };
            let kind = match rng.below(9) {
                0 => EventKind::Issue {
                    lane: lanes[rng.below(3) as usize],
                    pc: (rng.below(2) == 0).then(|| rng.next() as u32),
                    inst: rng.inst(),
                },
                1 => EventKind::Retire { lane: lanes[rng.below(3) as usize], inst: rng.inst() },
                2 => EventKind::Stall {
                    cause: causes[rng.below(causes.len() as u64) as usize],
                    cycles: 1 + rng.below(20) as u32,
                },
                3 => EventKind::SsrBeat { ssr: rng.below(3) as u8, count: rng.below(4) as u32 },
                4 => EventKind::BankConflicts { count: rng.below(8) as u32 },
                5 => EventKind::DmaActive { count: rng.below(8) as u32 },
                6 => EventKind::BarrierArrive,
                7 => EventKind::BarrierRelease,
                _ => EventKind::Stall { cause: StallCause::Branch, cycles: 2 },
            };
            // A narrow cycle range so counter samples often land on
            // consecutive cycles and suppress each other's zero sample.
            TraceEvent { cycle: rng.below(600), hart, kind }
        })
        .collect()
}

/// The counter series key of an event, if it samples one.
fn series(kind: &EventKind) -> Option<(u8, u8)> {
    match *kind {
        EventKind::SsrBeat { ssr, .. } => Some((0, ssr)),
        EventKind::BankConflicts { .. } => Some((1, 0)),
        EventKind::DmaActive { .. } => Some((2, 0)),
        _ => None,
    }
}

/// The summary `validate` must report for `render(events)`, counted from
/// the events: one metadata record per hart plus four thread names per
/// compute hart, and a zero sample after every counter sample whose
/// series is idle on the next cycle.
fn expected_summary(events: &[TraceEvent]) -> Summary {
    let harts: BTreeSet<u8> = events.iter().map(|e| e.hart).collect();
    let sampled: HashSet<(u8, (u8, u8), u64)> =
        events.iter().filter_map(|e| series(&e.kind).map(|s| (e.hart, s, e.cycle))).collect();
    let mut s = Summary {
        metadata: harts.len() + 4 * harts.iter().filter(|&&h| h != CLUSTER_HART).count(),
        ..Summary::default()
    };
    for e in events {
        match e.kind {
            EventKind::Issue { .. } | EventKind::Retire { .. } | EventKind::Stall { .. } => {
                s.complete += 1;
            }
            EventKind::BarrierArrive | EventKind::BarrierRelease => s.instants += 1,
            EventKind::SsrBeat { .. }
            | EventKind::BankConflicts { .. }
            | EventKind::DmaActive { .. } => {
                s.counters += 1;
            }
        }
        if let Some(key) = series(&e.kind) {
            if !sampled.contains(&(e.hart, key, e.cycle + 1)) {
                s.counters += 1;
            }
        }
    }
    s.events = s.complete + s.counters + s.instants + s.metadata;
    s
}

#[test]
fn random_event_streams_round_trip_through_render_and_validate() {
    for seed in [1, 0x5eed, 0xdead_beef] {
        let events = random_events(seed, 3000);
        let json = chrome::render(&events);
        let got = chrome::validate(&json).unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        assert_eq!(got, expected_summary(&events), "seed {seed:#x}");
        // Every hart and lane shows up, so the stream covers the track layout.
        assert!(json.contains("\"name\":\"cluster\"") && json.contains("\"name\":\"hart7\""));
        assert_eq!(json.lines().count(), got.events + 2, "one event per line between the framing");
    }
}

#[test]
fn random_streams_cover_every_event_kind() {
    let events = random_events(1, 3000);
    let kinds: BTreeSet<u8> = events
        .iter()
        .map(|e| match e.kind {
            EventKind::Issue { .. } => 0,
            EventKind::Retire { .. } => 1,
            EventKind::Stall { .. } => 2,
            EventKind::SsrBeat { .. } => 3,
            EventKind::BankConflicts { .. } => 4,
            EventKind::DmaActive { .. } => 5,
            EventKind::BarrierArrive => 6,
            EventKind::BarrierRelease => 7,
        })
        .collect();
    assert_eq!(kinds.len(), 8);
    let harts: BTreeSet<u8> = events.iter().map(|e| e.hart).collect();
    assert_eq!(harts.into_iter().collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5, 6, 7, CLUSTER_HART]);
}

#[test]
fn doc_names_with_specials_escape_byte_exactly() {
    let name = "q\"b\\s\nt\tc\u{1}\u{1f} é✓";
    let mut doc = Doc::new();
    doc.process_name(3, name);
    doc.thread_name(3, 1, name);
    doc.complete(3, 1, 7, 2, name, Some("{\"k\":1}"));
    doc.instant(3, 1, 8, name);
    doc.counter(3, 9, name, "v", 4);
    let json = doc.finish("cycle");
    let esc = r#""q\"b\\s\u000at\u0009c\u0001\u001f é✓""#;
    let expected = format!(
        "{{\"traceEvents\":[\n\
         {{\"ph\":\"M\",\"pid\":3,\"name\":\"process_name\",\"args\":{{\"name\":{esc}}}}},\n\
         {{\"ph\":\"M\",\"pid\":3,\"tid\":1,\"name\":\"thread_name\",\"args\":{{\"name\":{esc}}}}},\n\
         {{\"ph\":\"X\",\"pid\":3,\"tid\":1,\"ts\":7,\"dur\":2,\"name\":{esc},\"args\":{{\"k\":1}}}},\n\
         {{\"ph\":\"i\",\"pid\":3,\"tid\":1,\"ts\":8,\"s\":\"t\",\"name\":{esc}}},\n\
         {{\"ph\":\"C\",\"pid\":3,\"ts\":9,\"name\":{esc},\"args\":{{\"v\":4}}}}\n\
         ],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"timeUnit\":\"cycle\"}}}}\n"
    );
    assert_eq!(json, expected);
    assert_eq!(chrome::validate(&json), Ok(summary(5, 1, 1, 1)));
}

#[test]
fn pushed_events_and_empty_documents_keep_the_framing() {
    let mut doc = Doc::default();
    doc.push("{\"ph\":\"i\",\"pid\":0,\"ts\":0,\"name\":\"a\"}");
    doc.push("{\"ph\":\"i\",\"pid\":0,\"ts\":1,\"name\":\"b\"}");
    let json = doc.finish("us");
    assert!(json.starts_with("{\"traceEvents\":[\n{\"ph\":\"i\""));
    assert!(json.contains("\"name\":\"a\"},\n{\"ph\""));
    assert_eq!(chrome::validate(&json), Ok(summary(2, 0, 0, 2)));
    let empty = Doc::with_capacity(0).finish("cycle");
    assert_eq!(
        empty,
        "{\"traceEvents\":[\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"timeUnit\":\"cycle\"}}\n"
    );
    assert_eq!(chrome::validate(&empty), Ok(Summary::default()));
}
