//! Deterministic exporters: JSONL event log and Chrome trace-event
//! output, plus a dependency-free JSON validator used by tests and CI.
//!
//! Both documents are rendered as strings from already-deterministic
//! in-memory telemetry, so byte-for-byte equality across runs follows
//! from the determinism of [`SpanLog`] / [`Timeline`] /
//! [`StageProfile`]. Floats are formatted with Rust's shortest
//! round-trip representation (`{:?}`), which is stable across
//! platforms; non-finite values are rendered as `null`.

use crate::event::{SpanLog, NO_BATCH, NO_WORKER};
use crate::profile::StageProfile;
use crate::timeseries::{Histogram, Timeline};
use argus_models::GpuArch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema version stamped into the JSONL header (and every
/// `BENCH_*.json`); bump on any breaking format change.
pub const JSONL_SCHEMA_VERSION: u32 = 2;

/// Renders an `f64` as a JSON number (shortest round-trip form), or
/// `null` when non-finite.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding inside JSON quotes.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn hist_json(h: &Histogram) -> String {
    let bounds: Vec<String> = h.bounds().iter().map(|&b| json_f64(b)).collect();
    let counts: Vec<String> = h.counts().iter().map(|c| c.to_string()).collect();
    let extrema = match (h.min(), h.max()) {
        (Some(lo), Some(hi)) => {
            format!(",\"min\":{},\"max\":{}", json_f64(lo), json_f64(hi))
        }
        _ => String::new(),
    };
    format!(
        "{{\"bounds\":[{}],\"counts\":[{}],\"count\":{},\"sum\":{}{}}}",
        bounds.join(","),
        counts.join(","),
        h.count(),
        json_f64(h.sum()),
        extrema
    )
}

pub(crate) fn str_list(names: &[&'static str]) -> String {
    names
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect::<Vec<_>>()
        .join(",")
}

// ------------------------------------------------------------------ //
// Per-line renderers, shared verbatim by the buffered document below
// and the incremental `JsonlStream` sink — byte-identity of the two
// paths holds by construction. None emit a trailing newline.
// ------------------------------------------------------------------ //

/// Renders the JSONL header line from pre-rendered name lists (each the
/// comma-joined quoted series names, or empty).
pub(crate) fn jsonl_header_line(
    lifecycle_sample: u32,
    counter_names: &str,
    gauge_names: &str,
    hist_names: &str,
) -> String {
    format!(
        "{{\"schema_version\":{JSONL_SCHEMA_VERSION},\"kind\":\"header\",\
         \"source\":\"argus_obs\",\"lifecycle_sample\":{lifecycle_sample},\
         \"counters\":[{counter_names}],\"gauges\":[{gauge_names}],\"hists\":[{hist_names}]}}"
    )
}

/// The header's name lists: the timeline's series names when sampling
/// is enabled, empty lists otherwise.
pub(crate) fn jsonl_header_names(timeline: Option<&Timeline>) -> (String, String, String) {
    match timeline {
        Some(tl) => (
            str_list(&tl.counter_names),
            str_list(&tl.gauge_names),
            str_list(&tl.hist_names),
        ),
        None => (String::new(), String::new(), String::new()),
    }
}

/// Renders one span line.
pub(crate) fn jsonl_span_line(ev: &crate::event::SpanEvent) -> String {
    let mut extra = String::new();
    if let Some(level) = ev.level {
        let _ = write!(extra, ",\"level\":\"{}\"", json_escape(&level.to_string()));
    }
    if let Some(pool) = ev.pool {
        let _ = write!(extra, ",\"pool\":\"{}\"", json_escape(pool.name()));
    }
    if ev.worker != NO_WORKER {
        let _ = write!(extra, ",\"worker\":{}", ev.worker);
    }
    if ev.batch != NO_BATCH {
        let _ = write!(extra, ",\"batch\":{}", ev.batch);
    }
    format!(
        "{{\"kind\":\"span\",\"t_us\":{},\"job\":{},\"event\":\"{}\"{}}}",
        ev.t_us,
        ev.job,
        ev.kind.as_str(),
        extra
    )
}

/// Renders one tick line.
pub(crate) fn jsonl_tick_line(s: &crate::timeseries::TickSample) -> String {
    let counters: Vec<String> = s.counters.iter().map(|c| c.to_string()).collect();
    let gauges: Vec<String> = s.gauges.iter().map(|&g| json_f64(g)).collect();
    let hists: Vec<String> = s.hists.iter().map(hist_json).collect();
    format!(
        "{{\"kind\":\"tick\",\"minute\":{},\"t_us\":{},\"counters\":[{}],\
         \"gauges\":[{}],\"hists\":[{}]}}",
        s.minute,
        s.t_us,
        counters.join(","),
        gauges.join(","),
        hists.join(",")
    )
}

/// The numeric keys [`jsonl_stage_line`] writes; the validator requires
/// each of them.
const STAGE_KEYS: [&str; 4] = ["processed", "replies", "sent", "mailbox_hwm"];

/// Renders one stage-profile line.
pub(crate) fn jsonl_stage_line(p: &StageProfile) -> String {
    format!(
        "{{\"kind\":\"stage\",\"stage\":\"{}\",\"processed\":{},\"replies\":{},\
         \"sent\":{},\"mailbox_hwm\":{}}}",
        json_escape(p.stage),
        p.counters.processed,
        p.counters.replies,
        p.sent,
        p.mailbox_hwm
    )
}

/// Renders the footer line.
pub(crate) fn jsonl_footer_line(
    spans: u64,
    spans_dropped: u64,
    ticks: u64,
    ticks_dropped: u64,
    stages: usize,
) -> String {
    format!(
        "{{\"kind\":\"footer\",\"spans\":{spans},\"spans_dropped\":{spans_dropped},\
         \"ticks\":{ticks},\"ticks_dropped\":{ticks_dropped},\"stages\":{stages}}}"
    )
}

/// Renders the full JSONL telemetry document: one header line, then
/// span lines, tick lines, stage lines, and a footer with totals.
pub fn jsonl_document(
    lifecycle_sample: u32,
    spans: Option<&SpanLog>,
    timeline: Option<&Timeline>,
    profiles: &[StageProfile],
) -> String {
    let mut out = String::new();
    let (counter_names, gauge_names, hist_names) = jsonl_header_names(timeline);
    let _ = writeln!(
        out,
        "{}",
        jsonl_header_line(lifecycle_sample, &counter_names, &gauge_names, &hist_names)
    );

    let mut span_lines = 0u64;
    if let Some(log) = spans {
        for ev in &log.events {
            let _ = writeln!(out, "{}", jsonl_span_line(ev));
            span_lines += 1;
        }
    }

    let mut tick_lines = 0u64;
    if let Some(tl) = timeline {
        for s in &tl.samples {
            let _ = writeln!(out, "{}", jsonl_tick_line(s));
            tick_lines += 1;
        }
    }

    for p in profiles {
        let _ = writeln!(out, "{}", jsonl_stage_line(p));
    }

    let (spans_dropped, ticks_dropped) = (
        spans.map_or(0, |s| s.dropped),
        timeline.map_or(0, |t| t.dropped),
    );
    let _ = writeln!(
        out,
        "{}",
        jsonl_footer_line(
            span_lines,
            spans_dropped,
            tick_lines,
            ticks_dropped,
            profiles.len()
        )
    );
    out
}

fn pool_pid(pool: Option<GpuArch>) -> u32 {
    match pool {
        // pid 0 is reserved for the timeline counters.
        Some(g) => 1 + GpuArch::ALL.iter().position(|&a| a == g).unwrap_or(0) as u32,
        None => 1 + GpuArch::ALL.len() as u32,
    }
}

/// Renders a Chrome trace-event (`chrome://tracing` / Perfetto) JSON
/// document.
///
/// Field mapping (DESIGN.md §12): executed jobs become complete (`X`)
/// events — `ts` at dispatch, `dur` to the terminal event, `pid` the
/// GPU pool, `tid` the worker, name the approximation level; every
/// sampled job also gets an async `b`/`e` pair (id = job) spanning
/// arrival → terminal; lost jobs become instant (`i`) events; timeline
/// gauges become counter (`C`) events on pid 0.
pub fn chrome_trace_document(spans: Option<&SpanLog>, timeline: Option<&Timeline>) -> String {
    let mut events: Vec<String> = Vec::new();
    events.push(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\
         \"args\":{\"name\":\"timeline\"}}"
            .to_string(),
    );
    for (i, g) in GpuArch::ALL.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\
             \"args\":{{\"name\":\"pool {}\"}}}}",
            i + 1,
            g.name()
        ));
    }

    if let Some(log) = spans {
        // Pair each job's latest dispatch with its terminal event. A job
        // re-dispatched after a worker fault keeps only the surviving
        // attempt, matching what actually completed.
        let mut open: BTreeMap<u32, &crate::event::SpanEvent> = BTreeMap::new();
        let mut arrivals: BTreeMap<u32, u64> = BTreeMap::new();
        for ev in &log.events {
            use crate::event::SpanKind::*;
            match ev.kind {
                Arrive => {
                    arrivals.insert(ev.job, ev.t_us);
                    events.push(format!(
                        "{{\"ph\":\"b\",\"cat\":\"job\",\"name\":\"job\",\"id\":{},\
                         \"ts\":{},\"pid\":0,\"tid\":0}}",
                        ev.job, ev.t_us
                    ));
                }
                Dispatch => {
                    open.insert(ev.job, ev);
                }
                Complete | Violation => {
                    if let Some(start) = open.remove(&ev.job) {
                        let name = start
                            .level
                            .map(|l| l.to_string())
                            .unwrap_or_else(|| "exec".to_string());
                        let batch = if start.batch == NO_BATCH {
                            String::new()
                        } else {
                            format!(",\"batch\":{}", start.batch)
                        };
                        events.push(format!(
                            "{{\"ph\":\"X\",\"cat\":\"exec\",\"name\":\"{}\",\"ts\":{},\
                             \"dur\":{},\"pid\":{},\"tid\":{},\
                             \"args\":{{\"job\":{},\"slo_violation\":{}{}}}}}",
                            json_escape(&name),
                            start.t_us,
                            ev.t_us.saturating_sub(start.t_us),
                            pool_pid(start.pool),
                            if start.worker == NO_WORKER {
                                0
                            } else {
                                start.worker
                            },
                            ev.job,
                            ev.kind == Violation,
                            batch
                        ));
                    }
                    if arrivals.remove(&ev.job).is_some() {
                        events.push(format!(
                            "{{\"ph\":\"e\",\"cat\":\"job\",\"name\":\"job\",\"id\":{},\
                             \"ts\":{},\"pid\":0,\"tid\":0}}",
                            ev.job, ev.t_us
                        ));
                    }
                }
                Lost => {
                    events.push(format!(
                        "{{\"ph\":\"i\",\"cat\":\"job\",\"name\":\"lost\",\"ts\":{},\
                         \"pid\":0,\"tid\":0,\"s\":\"t\",\"args\":{{\"job\":{}}}}}",
                        ev.t_us, ev.job
                    ));
                    if arrivals.remove(&ev.job).is_some() {
                        events.push(format!(
                            "{{\"ph\":\"e\",\"cat\":\"job\",\"name\":\"job\",\"id\":{},\
                             \"ts\":{},\"pid\":0,\"tid\":0}}",
                            ev.job, ev.t_us
                        ));
                    }
                }
                _ => {}
            }
        }
    }

    if let Some(tl) = timeline {
        for s in &tl.samples {
            let series: Vec<String> = tl
                .gauge_names
                .iter()
                .zip(&s.gauges)
                .map(|(n, &v)| format!("\"{}\":{}", json_escape(n), json_f64(v)))
                .collect();
            events.push(format!(
                "{{\"ph\":\"C\",\"name\":\"argus\",\"ts\":{},\"pid\":0,\
                 \"args\":{{{}}}}}",
                s.t_us,
                series.join(",")
            ));
        }
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

// ---------------------------------------------------------------------
// Minimal JSON parser + JSONL schema validator (no external deps).
// ---------------------------------------------------------------------

/// A parsed JSON value (dependency-free; used for validation only).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf8 in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number `{text}`")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf8 in string"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses one complete JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// Counts produced by [`validate_jsonl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Span lines seen.
    pub spans: u64,
    /// Tick lines seen.
    pub ticks: u64,
    /// Stage lines seen.
    pub stages: u64,
}

const SPAN_KINDS: &[&str] = &[
    "arrive",
    "assign",
    "cache_hit",
    "cache_miss",
    "cache_failed",
    "dispatch",
    "escalate",
    "complete",
    "violation",
    "lost",
];

fn field_u64(obj: &Json, key: &str, line_no: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("line {line_no}: missing numeric `{key}`"))
}

/// Validates a telemetry JSONL document against the schema
/// (DESIGN.md §12): header first with the current schema version, every
/// line a well-formed object of a known kind, tick vectors aligned with
/// the header's series names, span timestamps non-decreasing, and a
/// footer whose counts match the body.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header_line) = lines.next().ok_or("empty document")?;
    let header = parse_json(header_line).map_err(|e| format!("header: {e}"))?;
    if header.get("kind").and_then(Json::as_str) != Some("header") {
        return Err("first line is not a header".into());
    }
    let version = header
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("header missing schema_version")?;
    if version as u32 != JSONL_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != {JSONL_SCHEMA_VERSION}"
        ));
    }
    let n_counters = header
        .get("counters")
        .and_then(Json::as_arr)
        .ok_or("header missing counters")?
        .len();
    let n_gauges = header
        .get("gauges")
        .and_then(Json::as_arr)
        .ok_or("header missing gauges")?
        .len();
    let n_hists = header
        .get("hists")
        .and_then(Json::as_arr)
        .ok_or("header missing hists")?
        .len();

    let mut summary = JsonlSummary {
        spans: 0,
        ticks: 0,
        stages: 0,
    };
    let mut footer: Option<Json> = None;
    let mut last_span_t = 0u64;
    for (idx, line) in lines {
        let line_no = idx + 1;
        if footer.is_some() {
            return Err(format!("line {line_no}: content after footer"));
        }
        let v = parse_json(line).map_err(|e| format!("line {line_no}: {e}"))?;
        match v.get("kind").and_then(Json::as_str) {
            Some("span") => {
                let t = field_u64(&v, "t_us", line_no)?;
                field_u64(&v, "job", line_no)?;
                let ev = v
                    .get("event")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {line_no}: span missing event"))?;
                if !SPAN_KINDS.contains(&ev) {
                    return Err(format!("line {line_no}: unknown span event `{ev}`"));
                }
                if t < last_span_t {
                    return Err(format!(
                        "line {line_no}: span t_us went backwards ({t} < {last_span_t})"
                    ));
                }
                last_span_t = t;
                summary.spans += 1;
            }
            Some("tick") => {
                field_u64(&v, "minute", line_no)?;
                field_u64(&v, "t_us", line_no)?;
                for (key, want) in [
                    ("counters", n_counters),
                    ("gauges", n_gauges),
                    ("hists", n_hists),
                ] {
                    let got = v
                        .get(key)
                        .and_then(Json::as_arr)
                        .ok_or_else(|| format!("line {line_no}: tick missing {key}"))?
                        .len();
                    if got != want {
                        return Err(format!(
                            "line {line_no}: tick has {got} {key}, header declares {want}"
                        ));
                    }
                }
                summary.ticks += 1;
            }
            Some("stage") => {
                v.get("stage")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {line_no}: stage missing name"))?;
                for key in STAGE_KEYS {
                    field_u64(&v, key, line_no)?;
                }
                summary.stages += 1;
            }
            Some("footer") => footer = Some(v),
            Some(k) => return Err(format!("line {line_no}: unknown kind `{k}`")),
            None => return Err(format!("line {line_no}: missing kind")),
        }
    }
    let footer = footer.ok_or("missing footer")?;
    for (key, want) in [
        ("spans", summary.spans),
        ("ticks", summary.ticks),
        ("stages", summary.stages),
    ] {
        let got = field_u64(&footer, key, 0).map_err(|_| format!("footer missing `{key}`"))?;
        if got != want {
            return Err(format!("footer says {got} {key}, body has {want}"));
        }
    }
    Ok(summary)
}

/// Validates a Chrome trace document: parses it, checks the
/// `traceEvents` array exists and every event has a `ph`. Returns the
/// event count.
pub fn validate_chrome_trace(text: &str) -> Result<u64, String> {
    let v = parse_json(text)?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    for (i, ev) in events.iter().enumerate() {
        ev.get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} missing ph"))?;
    }
    Ok(events.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{SpanEvent, SpanKind};
    use crate::profile::StageCounters;
    use crate::timeseries::Registry;
    use argus_des::SimTime;
    use argus_models::{ApproxLevel, Strategy};

    fn sample_log() -> SpanLog {
        let level = ApproxLevel::ladder(Strategy::Ac)[0];
        let mut log = SpanLog::new(1, usize::MAX);
        let t = |s: f64| SimTime::from_secs(s);
        log.record(SpanEvent::new(t(1.0), 0, SpanKind::Arrive));
        log.record(
            SpanEvent::new(t(1.0), 0, SpanKind::Assign)
                .with_level(level)
                .with_pool(GpuArch::A100)
                .with_worker(2),
        );
        log.record(
            SpanEvent::new(t(1.5), 0, SpanKind::Dispatch)
                .with_level(level)
                .with_pool(GpuArch::A100)
                .with_worker(2)
                .with_batch(0),
        );
        log.record(SpanEvent::new(t(4.0), 0, SpanKind::Complete).with_worker(2));
        log.record(SpanEvent::new(t(5.0), 1, SpanKind::Arrive));
        log.record(SpanEvent::new(t(5.0), 1, SpanKind::Lost));
        log
    }

    fn sample_timeline() -> Timeline {
        const B: &[f64] = &[0.1, 1.0];
        let mut r = Registry::new(16);
        r.counter_set("arrivals", 2);
        r.gauge_set("backlog", 3.5);
        r.hist_record("lat", B, 0.05);
        r.sample(0, 60_000_000);
        r.finish()
    }

    #[test]
    fn jsonl_round_trips_through_the_validator() {
        let log = sample_log();
        let tl = sample_timeline();
        let profiles = [StageProfile::new(
            "metrics",
            StageCounters {
                processed: 10,
                replies: 1,
            },
        )];
        let doc = jsonl_document(1, Some(&log), Some(&tl), &profiles);
        let summary = validate_jsonl(&doc).expect("valid document");
        assert_eq!(
            summary,
            JsonlSummary {
                spans: 6,
                ticks: 1,
                stages: 1
            }
        );
        // Optional span fields only appear when set.
        assert!(doc.contains("\"event\":\"dispatch\""));
        assert!(doc.contains("\"pool\":\"A100\""));
        let arrive_line = doc.lines().nth(1).unwrap();
        assert!(!arrive_line.contains("worker"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        let profiles = [StageProfile::new("planner", StageCounters::default())];
        let ok = jsonl_document(1, Some(&sample_log()), None, &profiles);
        assert!(validate_jsonl(&ok).is_ok());
        // Header tampering.
        let bad = ok.replacen("\"schema_version\":2", "\"schema_version\":99", 1);
        assert!(validate_jsonl(&bad).unwrap_err().contains("schema_version"));
        // A stage line missing any key the exporter writes.
        for key in STAGE_KEYS {
            let missing = ok.replacen(&format!(",\"{key}\":0"), "", 1);
            assert_ne!(missing, ok, "{key} not in the stage line");
            let err = validate_jsonl(&missing).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
        // Dropped footer.
        let no_footer: String = ok
            .lines()
            .filter(|l| !l.contains("\"footer\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_jsonl(&no_footer).unwrap_err().contains("footer"));
        // Unknown span kind.
        let bad_kind = ok.replacen("\"event\":\"arrive\"", "\"event\":\"nope\"", 1);
        assert!(validate_jsonl(&bad_kind).unwrap_err().contains("nope"));
        assert!(validate_jsonl("").is_err());
    }

    #[test]
    fn chrome_trace_pairs_dispatch_with_terminal() {
        let doc = chrome_trace_document(Some(&sample_log()), Some(&sample_timeline()));
        let n = validate_chrome_trace(&doc).expect("valid trace");
        // 4 metadata + b/X/e for job 0 + b/i/e for job 1 + 1 counter.
        assert_eq!(n, 11);
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"dur\":2500000"));
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("pool A100"));
    }

    #[test]
    fn parser_handles_numbers_strings_and_nesting() {
        let v = parse_json(r#"{"a":[1,-2.5,1e3],"b":"x\"yA","c":{"d":null,"e":true}}"#)
            .expect("parses");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(1e3));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"yA"));
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Json::Null));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2").is_err());
        assert!(parse_json("true false").is_err());
    }

    #[test]
    fn floats_render_shortest_round_trip() {
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
