//! Chrome trace-event JSON sink (the format Perfetto and `chrome://tracing`
//! load) plus a dependency-free schema validator.
//!
//! Track layout: one *process* per hart (`pid` = hart id, `pid` 255 = the
//! cluster-shared units) and one *thread* per lane:
//!
//! | tid | track        | events                                   |
//! |-----|--------------|------------------------------------------|
//! | 0   | `core issue` | every core-slot issue (`X`, 1 cycle) and barrier instants (`i`) |
//! | 1   | `frep`       | every sequencer replay (`X`, 1 cycle)    |
//! | 2   | `fpu retire` | FPU completions (`X`, 1 cycle)           |
//! | 3   | `stall`      | lost issue slots (`X`, duration = lost cycles, name = cause) |
//!
//! SSR beats, DMA activity and TCDM bank conflicts render as counter (`C`)
//! series. Timestamps are cycles (1 cycle = 1 "µs" on the Perfetto axis).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};

use snitch_riscv::inst::Inst;

use crate::event::{EventKind, TraceEvent, CLUSTER_HART};

const TID_CORE: u8 = 0;
const TID_FREP: u8 = 1;
const TID_RETIRE: u8 = 2;
const TID_STALL: u8 = 3;

/// Incremental Chrome trace-event document builder: the shared assembly
/// layer under every trace-event sink in the workspace (the cycle-trace
/// [`render`] here and the host-span export in `snitch-telemetry`).
///
/// The builder owns the document framing — the `traceEvents` array, the
/// one-event-per-line layout, separators, and the closing `otherData`
/// stanza — so every sink produces documents with identical framing that
/// [`validate`] and Perfetto both accept. Event helpers emit keys in the
/// fixed order the golden tests pin (`ph`, `pid`, `tid`, `ts`, ...) and
/// write straight into the document buffer: no event allocates.
#[derive(Debug)]
pub struct Doc {
    out: String,
    first: bool,
}

impl Default for Doc {
    fn default() -> Self {
        Doc::new()
    }
}

impl Doc {
    /// An empty document (header written, no events).
    #[must_use]
    pub fn new() -> Self {
        Doc::with_capacity(256)
    }

    /// An empty document with a pre-sized output buffer.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut out = String::with_capacity(capacity);
        out.push_str("{\"traceEvents\":[");
        Doc { out, first: true }
    }

    /// Writes the separator before the next event and returns the buffer
    /// to write the event into.
    fn next_event(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.out.push('\n');
        self.first = false;
        &mut self.out
    }

    /// Appends one pre-rendered event object (a complete `{...}` JSON
    /// value, no trailing separator).
    pub fn push(&mut self, event_json: &str) {
        self.next_event().push_str(event_json);
    }

    /// Emits a `process_name` metadata record for `pid`.
    pub fn process_name(&mut self, pid: u32, name: &str) {
        let out = self.next_event();
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":"
        );
        escape_into(out, name);
        out.push_str("}}");
    }

    /// Emits a `thread_name` metadata record for `(pid, tid)`.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        let out = self.next_event();
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":"
        );
        escape_into(out, name);
        out.push_str("}}");
    }

    /// Emits a complete (`ph:"X"`) duration event. `args_json`, when given,
    /// must be a rendered JSON object (e.g. `{"job":"exp/base"}`).
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        ts: u64,
        dur: u64,
        name: &str,
        args_json: Option<&str>,
    ) {
        let out = self.next_event();
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\"name\":"
        );
        escape_into(out, name);
        if let Some(args) = args_json {
            out.push_str(",\"args\":");
            out.push_str(args);
        }
        out.push('}');
    }

    /// Emits a thread-scoped instant (`ph:"i"`, `s:"t"`) event.
    pub fn instant(&mut self, pid: u32, tid: u32, ts: u64, name: &str) {
        let out = self.next_event();
        let _ = write!(
            out,
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\"name\":"
        );
        escape_into(out, name);
        out.push('}');
    }

    /// Emits a counter (`ph:"C"`) sample: series `name`, one `field: value`
    /// argument.
    pub fn counter(&mut self, pid: u32, ts: u64, name: &str, field: &str, value: u64) {
        let out = self.next_event();
        let _ = write!(out, "{{\"ph\":\"C\",\"pid\":{pid},\"ts\":{ts},\"name\":");
        escape_into(out, name);
        let _ = write!(out, ",\"args\":{{\"{field}\":{value}}}}}");
    }

    /// Closes the document, labeling the timestamp unit in `otherData`
    /// (cycle traces use `"cycle"`, host-span traces `"us"`).
    #[must_use]
    pub fn finish(mut self, time_unit: &str) -> String {
        let _ = write!(
            self.out,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"timeUnit\":\"{time_unit}\"}}}}\n"
        );
        self.out
    }
}

/// Renders an event stream as a complete Chrome trace-event JSON document.
#[must_use]
pub fn render(events: &[TraceEvent]) -> String {
    let mut doc = Doc::with_capacity(events.len() * 96 + 256);

    // Metadata: name every hart process and lane thread that appears.
    let mut harts: Vec<u8> = events.iter().map(|e| e.hart).collect();
    harts.sort_unstable();
    harts.dedup();
    for &h in &harts {
        let pname = if h == CLUSTER_HART { "cluster".to_string() } else { format!("hart{h}") };
        doc.process_name(u32::from(h), &pname);
        if h == CLUSTER_HART {
            continue;
        }
        for (tid, tname) in [
            (TID_CORE, "core issue"),
            (TID_FREP, "frep"),
            (TID_RETIRE, "fpu retire"),
            (TID_STALL, "stall"),
        ] {
            doc.thread_name(u32::from(h), u32::from(tid), tname);
        }
    }

    // Counter samples are only emitted on active cycles; Perfetto holds a
    // counter at its last value, so each series needs a zero sample on the
    // first inactive cycle after activity or idle spans render as busy.
    let sampled: HashSet<(u8, CounterSeries, u64), FxBuild> = events
        .iter()
        .filter_map(|e| counter_series(&e.kind).map(|s| (e.hart, s, e.cycle)))
        .collect();

    // A trace repeats a few hundred distinct instructions many times over,
    // so each is disassembled once. Scratch buffers reused across events
    // hold the counter-series name and the `args` object.
    let mut disasm: HashMap<Inst, String, FxBuild> = HashMap::default();
    let mut name = String::new();
    let mut args = String::new();
    for ev in events {
        let (cycle, hart) = (ev.cycle, u32::from(ev.hart));
        let sample = match ev.kind {
            EventKind::Issue { lane, pc, inst } => {
                let tid = if lane.is_core_slot() { TID_CORE } else { TID_FREP };
                let text = disasm.entry(inst).or_insert_with(|| inst.to_string());
                let args_json = pc.map(|pc| {
                    args.clear();
                    let _ = write!(args, "{{\"pc\":\"{pc:#010x}\"}}");
                    args.as_str()
                });
                doc.complete(hart, u32::from(tid), cycle, 1, text, args_json);
                None
            }
            EventKind::Retire { lane, inst } => {
                let text = disasm.entry(inst).or_insert_with(|| inst.to_string());
                args.clear();
                let _ = write!(args, "{{\"lane\":\"{}\"}}", lane.tag());
                doc.complete(hart, u32::from(TID_RETIRE), cycle, 1, text, Some(&args));
                None
            }
            EventKind::Stall { cause, cycles } => {
                let dur = u64::from(cycles);
                doc.complete(hart, u32::from(TID_STALL), cycle, dur, cause.name(), None);
                None
            }
            EventKind::SsrBeat { ssr, count } => Some((CounterSeries::Ssr(ssr), count)),
            EventKind::BankConflicts { count } => Some((CounterSeries::Conflicts, count)),
            EventKind::DmaActive { count } => Some((CounterSeries::Dma, count)),
            EventKind::BarrierArrive => {
                doc.instant(hart, u32::from(TID_CORE), cycle, "barrier arrive");
                None
            }
            EventKind::BarrierRelease => {
                doc.instant(hart, u32::from(TID_CORE), cycle, "barrier release");
                None
            }
        };
        if let Some((series, count)) = sample {
            let field = series.labels(&mut name);
            doc.counter(hart, cycle, &name, field, u64::from(count));
            if !sampled.contains(&(ev.hart, series, cycle + 1)) {
                doc.counter(hart, cycle + 1, &name, field, 0);
            }
        }
    }
    doc.finish("cycle")
}

/// Identity of one counter series (per hart).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum CounterSeries {
    Ssr(u8),
    Conflicts,
    Dma,
}

impl CounterSeries {
    /// Writes the series' track name into `name` (replacing its contents)
    /// and returns the `args` field of its samples.
    fn labels(self, name: &mut String) -> &'static str {
        name.clear();
        match self {
            CounterSeries::Ssr(i) => {
                let _ = write!(name, "ssr{i}");
                "beats"
            }
            CounterSeries::Conflicts => {
                name.push_str("tcdm_conflicts");
                "new"
            }
            CounterSeries::Dma => {
                name.push_str("dma");
                "beats"
            }
        }
    }
}

/// The counter series an event samples, if it is a counter event.
fn counter_series(kind: &EventKind) -> Option<CounterSeries> {
    match *kind {
        EventKind::SsrBeat { ssr, .. } => Some(CounterSeries::Ssr(ssr)),
        EventKind::BankConflicts { .. } => Some(CounterSeries::Conflicts),
        EventKind::DmaActive { .. } => Some(CounterSeries::Dma),
        _ => None,
    }
}

/// The multiply-rotate hash of the Firefox/rustc `FxHasher`, for
/// [`render`]'s small fixed-width keys (zero-sample lookups, instructions):
/// deterministic and far cheaper than the default `SipHash`. It only picks
/// buckets; lookups still compare whole keys.
#[derive(Default)]
struct FxHasher(u64);

type FxBuild = BuildHasherDefault<FxHasher>;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Appends `s` to `out` as a JSON string literal (quotes included),
/// escaping `"`, `\` and control characters. Strings that need no escape —
/// every disassembly line and label — are copied in one piece.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// What [`validate`] found in a well-formed trace document.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Summary {
    /// Total entries in `traceEvents`.
    pub events: usize,
    /// Complete (`ph:"X"`) duration events.
    pub complete: usize,
    /// Counter (`ph:"C"`) samples.
    pub counters: usize,
    /// Instant (`ph:"i"`) events.
    pub instants: usize,
    /// Metadata (`ph:"M"`) records.
    pub metadata: usize,
}

/// Validates a Chrome trace-event document: the whole string must be
/// syntactically valid JSON, the top level must carry a `traceEvents`
/// array, and every event object must carry the keys its phase requires
/// (`X`: `pid`/`tid`/`ts`/`dur`/`name`; `C`: `pid`/`ts`/`name`/`args`;
/// `i`: `pid`/`ts`/`name`; `M`: `pid`/`name`/`args`).
///
/// # Errors
///
/// Returns a description of the first syntax or schema violation.
pub fn validate(json: &str) -> Result<Summary, String> {
    let mut p = Parser { s: json.as_bytes(), i: 0 };
    let summary = p.document()?;
    p.end()?;
    Ok(summary)
}

/// Scans `json` as exactly one JSON object (whitespace around it allowed)
/// and calls `on_member(key, value)` for each top-level member in document
/// order. `value` is the member's string value, or `None` when the value
/// is not a string; nested values are syntax-checked and skipped.
///
/// Keys and values are borrowed from `json` unless they hold escapes. The
/// decoding is [`validate`]'s: an escape keeps the byte after the
/// backslash, and `\uXXXX` decodes to `?`.
///
/// # Errors
///
/// Returns a description of the first syntax violation, in [`validate`]'s
/// wording.
pub fn walk_object(
    json: &str,
    mut on_member: impl FnMut(&[u8], Option<&[u8]>),
) -> Result<(), String> {
    let mut p = Parser { s: json.as_bytes(), i: 0 };
    p.object(|key, p| {
        let value = if p.peek() == Some(b'"') {
            Some(p.string()?)
        } else {
            p.value()?;
            None
        };
        on_member(key, value.as_deref());
        Ok(())
    })?;
    p.end()
}

/// Renders scanned string bytes for a message, one char per byte.
fn bytes_text(bytes: &[u8]) -> String {
    bytes.iter().map(|&b| char::from(b)).collect()
}

/// The event keys a phase can require, one bit each, in the order
/// [`Parser::event`] reports a missing one.
const EVENT_KEYS: [&str; 6] = ["pid", "tid", "ts", "dur", "name", "args"];
const PID: u8 = 1 << 0;
const TID: u8 = 1 << 1;
const TS: u8 = 1 << 2;
const DUR: u8 = 1 << 3;
const NAME: u8 = 1 << 4;
const ARGS: u8 = 1 << 5;

/// A zero-copy JSON scanner: strings come back borrowed from the input
/// unless they hold escapes, and objects report each key to a callback
/// instead of collecting them.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == want => {
                self.i += 1;
                Ok(())
            }
            other => Err(format!(
                "expected `{}` at offset {}, found {:?}",
                want as char,
                self.i,
                other.map(|b| b as char)
            )),
        }
    }

    /// Rejects anything but whitespace after the parsed value.
    fn end(&mut self) -> Result<(), String> {
        self.ws();
        if self.i != self.s.len() {
            return Err(format!("trailing bytes at offset {}", self.i));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<Cow<'a, [u8]>, String> {
        self.eat(b'"')?;
        let s = self.s;
        let start = self.i;
        match s[start..].iter().position(|&b| b == b'"' || b == b'\\') {
            None => Err("unterminated string".to_string()),
            Some(n) if s[start + n] == b'"' => {
                self.i = start + n + 1;
                Ok(Cow::Borrowed(&s[start..start + n]))
            }
            Some(n) => {
                self.i = start + n;
                self.unescape(s[start..start + n].to_vec()).map(Cow::Owned)
            }
        }
    }

    /// Decodes the rest of a string that holds an escape, appending to
    /// `out` (the bytes before the first backslash).
    fn unescape(&mut self, mut out: Vec<u8>) -> Result<Vec<u8>, String> {
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.s.get(self.i) {
                        Some(b'u') => {
                            if self.i + 4 >= self.s.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            self.i += 5;
                            out.push(b'?');
                        }
                        Some(&c) => {
                            self.i += 1;
                            out.push(c);
                        }
                        None => return Err("truncated escape".to_string()),
                    }
                }
                Some(&c) => {
                    self.i += 1;
                    out.push(c);
                }
            }
        }
    }

    /// Skips any JSON value, validating its syntax.
    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(|_, _| Ok(())),
            Some(b'[') => {
                self.eat(b'[')?;
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(());
                }
                loop {
                    self.value()?;
                    match self.peek() {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(());
                        }
                        other => return Err(format!("bad array at offset {}: {other:?}", self.i)),
                    }
                }
            }
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                self.i += 1;
                while self.s.get(self.i).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
                }) {
                    self.i += 1;
                }
                Ok(())
            }
            other => Err(format!("unexpected {other:?} at offset {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    /// Parses an object, invoking `on_key(key, parser)` positioned at each
    /// value; the callback may consume the value (default: `value()`).
    fn object(
        &mut self,
        mut on_key: impl FnMut(&[u8], &mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let before = self.i;
            on_key(&key, self)?;
            if self.i == before {
                self.value()?;
            }
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                other => return Err(format!("bad object at offset {}: {other:?}", self.i)),
            }
        }
    }

    fn document(&mut self) -> Result<Summary, String> {
        let mut summary = Summary::default();
        let mut saw_trace_events = false;
        self.object(|key, p| {
            if key == b"traceEvents" {
                saw_trace_events = true;
                p.eat(b'[')?;
                if p.peek() == Some(b']') {
                    p.i += 1;
                    return Ok(());
                }
                loop {
                    p.event(&mut summary)?;
                    match p.peek() {
                        Some(b',') => p.i += 1,
                        Some(b']') => {
                            p.i += 1;
                            return Ok(());
                        }
                        other => {
                            return Err(format!("bad traceEvents at offset {}: {other:?}", p.i))
                        }
                    }
                }
            }
            Ok(())
        })?;
        if !saw_trace_events {
            return Err("document lacks a `traceEvents` array".to_string());
        }
        Ok(summary)
    }

    fn event(&mut self, summary: &mut Summary) -> Result<(), String> {
        let mut ph = Cow::Borrowed(&b""[..]);
        let mut seen = 0u8;
        self.object(|key, p| {
            if key == b"ph" {
                ph = p.string()?;
            } else if let Some(bit) = EVENT_KEYS.iter().position(|k| k.as_bytes() == key) {
                seen |= 1 << bit;
            }
            Ok(())
        })?;
        let (required, count) = match &*ph {
            b"X" => (PID | TID | TS | DUR | NAME, &mut summary.complete),
            b"C" => (PID | TS | NAME | ARGS, &mut summary.counters),
            b"i" => (PID | TS | NAME, &mut summary.instants),
            b"M" => (PID | NAME | ARGS, &mut summary.metadata),
            other => return Err(format!("unknown event phase `{}`", bytes_text(other))),
        };
        let missing = required & !seen;
        if missing != 0 {
            return Err(format!(
                "`{}` event #{} lacks key `{}`",
                bytes_text(&ph),
                summary.events,
                EVENT_KEYS[missing.trailing_zeros() as usize]
            ));
        }
        *count += 1;
        summary.events += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Lane, StallCause};

    #[test]
    fn rendered_trace_validates() {
        let events = [
            TraceEvent {
                cycle: 0,
                hart: 0,
                kind: EventKind::Issue { lane: Lane::Int, pc: Some(0x8000_0000), inst: Inst::NOP },
            },
            TraceEvent {
                cycle: 1,
                hart: 0,
                kind: EventKind::Issue { lane: Lane::FpSeq, pc: None, inst: Inst::NOP },
            },
            TraceEvent {
                cycle: 1,
                hart: 0,
                kind: EventKind::Stall { cause: StallCause::Branch, cycles: 2 },
            },
            TraceEvent { cycle: 2, hart: 0, kind: EventKind::SsrBeat { ssr: 1, count: 1 } },
            TraceEvent { cycle: 2, hart: CLUSTER_HART, kind: EventKind::DmaActive { count: 4 } },
            TraceEvent { cycle: 3, hart: 0, kind: EventKind::BarrierArrive },
            TraceEvent { cycle: 4, hart: 0, kind: EventKind::BarrierRelease },
            TraceEvent {
                cycle: 5,
                hart: CLUSTER_HART,
                kind: EventKind::BankConflicts { count: 2 },
            },
            TraceEvent {
                cycle: 6,
                hart: 0,
                kind: EventKind::Retire { lane: Lane::FpSeq, inst: Inst::NOP },
            },
        ];
        let json = render(&events);
        let summary = validate(&json).expect("rendered trace must validate");
        assert_eq!(summary.complete, 4, "two issues, one stall, one retire");
        assert_eq!(summary.counters, 6, "each active sample is followed by a zero sample");
        assert_eq!(summary.instants, 2);
        assert!(summary.metadata >= 5, "process + 4 thread names for hart 0, plus cluster");
        assert!(json.contains("\"name\":\"frep\""), "one track per hart lane");
        assert!(json.contains("{\"beats\":0}"), "idle cycles drop the counter back to zero");
    }

    #[test]
    fn counter_series_zero_only_after_activity_ends() {
        // Active on cycles 1 and 2, idle from 3: one zero sample at 3, none
        // between the consecutive active samples.
        let events = [
            TraceEvent { cycle: 1, hart: 0, kind: EventKind::SsrBeat { ssr: 0, count: 1 } },
            TraceEvent { cycle: 2, hart: 0, kind: EventKind::SsrBeat { ssr: 0, count: 2 } },
        ];
        let json = render(&events);
        assert_eq!(validate(&json).unwrap().counters, 3);
        assert!(json.contains("\"ts\":3,\"name\":\"ssr0\",\"args\":{\"beats\":0}"));
        assert!(!json.contains("\"ts\":2,\"name\":\"ssr0\",\"args\":{\"beats\":0}"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate("{}").is_err(), "missing traceEvents");
        assert!(validate("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err(), "X without ts");
        assert!(validate("{\"traceEvents\":[").is_err(), "truncated");
        assert!(validate("{\"traceEvents\":[{\"ph\":\"Z\",\"pid\":0}]}").is_err(), "unknown phase");
        let ok = "{\"traceEvents\":[],\"otherData\":{\"x\":[1,2,null,true,-3.5e2]}}";
        assert_eq!(validate(ok).unwrap().events, 0);
    }

    #[test]
    fn escape_handles_specials() {
        let mut out = String::from("x");
        escape_into(&mut out, "a\"b\\c");
        escape_into(&mut out, "plain");
        assert_eq!(out, "x\"a\\\"b\\\\c\"\"plain\"");
    }
}
