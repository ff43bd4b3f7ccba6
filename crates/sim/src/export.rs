//! Standard-format exporters: Chrome trace-event JSON and Prometheus text.
//!
//! The trace ring and the registries are only reachable from inside the
//! process; this module renders them in the two formats standard tooling
//! consumes:
//!
//! * [`chrome_trace`] emits catapult `traceEvents` JSON — one async-span
//!   track per [`CorrelationId`](crate::trace::CorrelationId), so loading
//!   the file in Perfetto (ui.perfetto.dev) or `chrome://tracing` shows
//!   each fault chain as one row of hops, and a `ph:"C"` counter track
//!   per queue whose depth a span recorded on opening.
//! * [`prometheus_from`] emits the text exposition format (`# TYPE` lines,
//!   counters, and cumulative histogram buckets from the log2
//!   [`Histogram`](crate::trace::Histogram)).
//!
//! Both are pure functions over snapshots, so a remote client that fetched
//! a `host_statistics` reply over IPC can render the same text locally.
//! The module also carries minimal parsers ([`parse_json`],
//! [`parse_prometheus`]) used by the export smoke test to round-trip the
//! rendered output — no external JSON/metrics crates exist in this tree.

use crate::machine::Machine;
use crate::trace::{EventKind, Histogram, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

// ----- Chrome trace-event (catapult) JSON -----

/// Escapes `s` as the contents of a JSON string literal.
fn json_escape(s: &str) -> String {
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

/// Microsecond timestamp with sub-microsecond precision (catapult `ts` is
/// in microseconds; simulated clocks are in nanoseconds).
fn ts_us(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1_000, ts_ns % 1_000)
}

/// The JSON args fragment carrying span identity, or "" for plain events.
fn span_args(e: &TraceEvent) -> String {
    e.span.map_or_else(String::new, |s| {
        format!(",\"span\":{},\"span_parent\":{}", s.id, s.parent)
    })
}

/// Renders trace events as a catapult (`chrome://tracing` / Perfetto)
/// JSON document.
///
/// Every host becomes a process (`pid` + `process_name` metadata). Every
/// correlated chain becomes one async track (`ph:"b"` … `ph:"n"` hops …
/// `ph:"e"` sharing `cat`/`id`/`pid`), so the canonical fault chain shows
/// its six hops on a single row. Uncorrelated events render as thread
/// instants. A span open that carries a queue depth also renders as one
/// `ph:"C"` sample of the counter `<span>.depth` on its host's process,
/// so Perfetto draws each queue's depth above the chains it delayed.
/// `dropped` (from `TraceBuffer::dropped`) is recorded under `otherData`
/// so silent ring overflow is visible in the artifact itself.
pub fn chrome_trace(events: &[TraceEvent], dropped: u64) -> String {
    // Stable pid per host, in order of first appearance.
    let mut hosts: Vec<Arc<str>> = Vec::new();
    for e in events {
        if !hosts.contains(&e.host) {
            hosts.push(e.host.clone());
        }
    }
    let pid_of =
        |host: &Arc<str>| -> usize { hosts.iter().position(|h| h == host).map_or(0, |i| i + 1) };

    let mut records: Vec<String> = Vec::new();
    for (i, host) in hosts.iter().enumerate() {
        records.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            i + 1,
            json_escape(host)
        ));
    }

    // Group correlated events into chains, preserving sequence order; a
    // span that opened at a queue also samples that queue's depth.
    let mut chains: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        if let (EventKind::SpanOpen(name), Some(depth)) = (e.kind, e.span.and_then(|s| s.depth)) {
            records.push(format!(
                "{{\"name\":\"{}.depth\",\"cat\":\"depth\",\"ph\":\"C\",\"ts\":{},\
                 \"pid\":{},\"tid\":0,\"args\":{{\"value\":{depth}}}}}",
                json_escape(name),
                ts_us(e.ts_ns),
                pid_of(&e.host)
            ));
        }
        if let Some(cid) = e.correlation_id {
            chains.entry(cid.raw()).or_default().push(e);
        } else {
            // Uncorrelated: a plain thread-scoped instant event.
            records.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                 \"pid\":{},\"tid\":0,\"args\":{{\"actor\":\"{}\",\"seq\":{}{}}}}}",
                json_escape(&e.kind.to_string()),
                ts_us(e.ts_ns),
                pid_of(&e.host),
                json_escape(e.actor),
                e.seq,
                span_args(e)
            ));
        }
    }

    for (cid, chain) in &chains {
        let first = chain.first().expect("chains are non-empty");
        let last = chain.last().expect("chains are non-empty");
        // The whole chain renders on one async track: catapult groups
        // async events by (cat, id, pid), so every hop uses the first
        // event's pid and carries its true host in args.
        let pid = pid_of(&first.host);
        records.push(format!(
            "{{\"name\":\"cid#{cid}\",\"cat\":\"chain\",\"ph\":\"b\",\"id\":{cid},\
             \"ts\":{},\"pid\":{pid},\"tid\":{cid}}}",
            ts_us(first.ts_ns)
        ));
        for e in chain {
            records.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"chain\",\"ph\":\"n\",\"id\":{cid},\"ts\":{},\
                 \"pid\":{pid},\"tid\":{cid},\
                 \"args\":{{\"actor\":\"{}\",\"host\":\"{}\",\"seq\":{}{}}}}}",
                json_escape(&e.kind.to_string()),
                ts_us(e.ts_ns),
                json_escape(e.actor),
                json_escape(&e.host),
                e.seq,
                span_args(e)
            ));
        }
        records.push(format!(
            "{{\"name\":\"cid#{cid}\",\"cat\":\"chain\",\"ph\":\"e\",\"id\":{cid},\
             \"ts\":{},\"pid\":{pid},\"tid\":{cid}}}",
            ts_us(last.ts_ns)
        ));
    }

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(&records.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    let _ = write!(
        out,
        "\"trace.dropped_events\":\"{dropped}\",\"clock\":\"simulated-ns\""
    );
    out.push_str("}}\n");
    out
}

/// Renders `machine`'s trace ring as catapult JSON (see
/// [`chrome_trace`]).
pub fn chrome_trace_for(machine: &Machine) -> String {
    chrome_trace(&machine.trace.snapshot(), machine.trace.dropped())
}

// ----- Prometheus text exposition -----

/// Maps a dotted counter/histogram name onto a Prometheus metric name.
pub fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Histogram material decoupled from a live [`Histogram`] — what a
/// snapshot fetched over IPC carries.
#[derive(Clone, Debug)]
pub struct HistogramData {
    /// Dotted histogram name ("vm.fault_to_resolution").
    pub name: String,
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u64,
    /// Non-empty buckets as `(inclusive_upper_bound_ns, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramData {
    /// Snapshots a live histogram.
    pub fn of(name: &str, h: &Histogram) -> Self {
        HistogramData {
            name: name.to_string(),
            count: h.count(),
            sum_ns: h.sum_ns(),
            buckets: h.buckets(),
        }
    }
}

/// Renders counter and histogram snapshots in the Prometheus text
/// exposition format.
///
/// Counters keep their dotted name in a `# HELP` line and expose a
/// sanitized metric name. Histograms render cumulative `_bucket{le=...}`
/// lines from the log2 buckets plus `_sum`/`_count`, with bucket bounds in
/// nanoseconds. `dropped` is exported as `trace_dropped_events` so ring
/// overflow is never silent.
pub fn prometheus_from(
    counters: &[(String, u64)],
    histograms: &[HistogramData],
    dropped: u64,
) -> String {
    let mut out = String::new();
    for (name, value) in counters {
        let metric = prom_name(name);
        let _ = writeln!(out, "# HELP {metric} {name}");
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }
    let _ = writeln!(
        out,
        "# HELP trace_dropped_events trace.dropped_events\n\
         # TYPE trace_dropped_events counter\n\
         trace_dropped_events {dropped}"
    );
    for h in histograms {
        let metric = format!("{}_ns", prom_name(&h.name));
        let _ = writeln!(out, "# HELP {metric} {} (log2 buckets, ns)", h.name);
        let _ = writeln!(out, "# TYPE {metric} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in &h.buckets {
            cumulative += count;
            let _ = writeln!(out, "{metric}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{metric}_sum {}", h.sum_ns);
        let _ = writeln!(out, "{metric}_count {}", h.count);
    }
    out
}

/// The process-wide lock-contention profile as exporter material:
/// per-class `lock.contended.<class>` counters plus `lock.wait.<class>`
/// histograms (wall-ns — host diagnostics, kept apart from any sim-time
/// latency registry; see [`crate::lockdep`]).
pub fn lock_contention_data() -> (Vec<(String, u64)>, Vec<HistogramData>) {
    let mut counters = Vec::new();
    let mut histograms = Vec::new();
    for c in crate::lockdep::contention_snapshot() {
        let class = c.class.name();
        counters.push((format!("lock.contended.{class}"), c.contended));
        histograms.push(HistogramData::of(&format!("lock.wait.{class}"), c.wait_ns));
    }
    (counters, histograms)
}

/// Renders `machine`'s registries in Prometheus text format, including
/// the per-LockClass contention profile.
pub fn prometheus_for(machine: &Machine) -> String {
    let (lock_counters, lock_histograms) = lock_contention_data();
    let mut counters: Vec<(String, u64)> = machine
        .stats
        .snapshot()
        .iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    counters.extend(lock_counters);
    let mut histograms: Vec<HistogramData> = machine
        .latency
        .snapshot()
        .map(|(name, h)| HistogramData::of(name, h))
        .collect();
    histograms.extend(lock_histograms);
    prometheus_from(&counters, &histograms, machine.trace.dropped())
}

// ----- minimal JSON parser (for export validation) -----

/// A parsed JSON value (validation-grade; numbers are `f64`).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` when this value is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements when this value is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents when this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found '{}'",
                b as char, self.pos, self.bytes[self.pos] as char
            ))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Ok(JsonValue::Str(self.parse_string()?)),
            b't' => self.parse_keyword("true", JsonValue::Bool(true)),
            b'f' => self.parse_keyword("false", JsonValue::Bool(false)),
            b'n' => self.parse_keyword("null", JsonValue::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or("unterminated string")?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Validation-grade: surrogate pairs are not
                            // recombined (the exporter never emits them).
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found '{}'", other as char)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found '{}'", other as char)),
            }
        }
    }
}

/// Parses a JSON document (objects, arrays, strings, numbers, keywords).
///
/// Validation-grade: exists so the export smoke test can prove the
/// [`chrome_trace`] output is well-formed without an external JSON crate.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let mut p = JsonParser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Validates a catapult document rendered by [`chrome_trace`]: it parses,
/// has a `traceEvents` array, and every event carries `ts`, `ph` and
/// `pid`. Returns the number of events.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let doc = parse_json(json)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;
    for (i, e) in events.iter().enumerate() {
        for field in ["ts", "ph", "pid"] {
            if e.get(field).is_none() {
                return Err(format!("event {i} lacks required field '{field}'"));
            }
        }
    }
    Ok(events.len())
}

/// Parses Prometheus text exposition into `metric{labels} -> value`.
///
/// The inverse of [`prometheus_from`] as far as the smoke test needs: comments
/// are skipped, each sample line must be `name[{labels}] value`.
pub fn parse_prometheus(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value", lineno + 1))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("line {}: bad value ({e})", lineno + 1))?;
        let name = name.trim();
        let bare = name.split('{').next().unwrap_or(name);
        if bare.is_empty()
            || !bare
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name '{name}'", lineno + 1));
        }
        out.insert(name.to_string(), value);
    }
    Ok(out)
}

// ----- tests -----

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CorrelationId, TraceBuffer};

    fn ev(
        ts: u64,
        host: &str,
        actor: &'static str,
        kind: EventKind,
        cid: Option<CorrelationId>,
    ) -> TraceEvent {
        TraceEvent::new(ts, Arc::from(host), actor, kind, cid)
    }

    fn fault_chain(cid: CorrelationId) -> Vec<TraceEvent> {
        [
            (10, EventKind::SpanOpen("fault.submit"), "fault.submit"),
            (20, EventKind::SpanOpen("ipc.queued"), "ipc.queued"),
            (30, EventKind::SpanOpen("pager.service"), "pager.service"),
            (40, EventKind::Mark("disk_read"), "disk"),
            (50, EventKind::SpanOpen("pager.reply"), "pager.reply"),
            (60, EventKind::SpanClose("fault.submit"), "fault.submit"),
        ]
        .into_iter()
        .map(|(ts, k, a)| ev(ts, "local", a, k, Some(cid)))
        .collect()
    }

    #[test]
    fn chrome_trace_is_valid_and_keeps_chain_on_one_track() {
        let cid = CorrelationId::allocate();
        let mut events = fault_chain(cid);
        events.push(ev(
            70,
            "local",
            "daemon",
            EventKind::Mark("disk_write"),
            None,
        ));
        let json = chrome_trace(&events, 3);
        let n = validate_chrome_trace(&json).expect("valid catapult JSON");
        // 1 process_name + 1 uncorrelated instant + b + 6 hops + e.
        assert_eq!(n, 10);
        let doc = parse_json(&json).unwrap();
        let te = doc.get("traceEvents").unwrap().as_array().unwrap();
        // All chain events share one (cat, id, pid) async track.
        let chain_events: Vec<_> = te
            .iter()
            .filter(|e| e.get("cat").and_then(JsonValue::as_str) == Some("chain"))
            .collect();
        assert_eq!(chain_events.len(), 8);
        let id0 = chain_events[0].get("id").cloned();
        assert!(chain_events.iter().all(|e| e.get("id").cloned() == id0));
        let hop_names: Vec<&str> = chain_events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("n"))
            .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(
            hop_names,
            vec![
                "fault.submit:open",
                "ipc.queued:open",
                "pager.service:open",
                "disk_read",
                "pager.reply:open",
                "fault.submit:close"
            ]
        );
        // Dropped-event count is visible in the artifact.
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("trace.dropped_events"))
                .and_then(JsonValue::as_str),
            Some("3")
        );
    }

    #[test]
    fn chrome_trace_assigns_pids_per_host() {
        let a = ev(1, "alpha", "x", EventKind::Mark("send"), None);
        let b = ev(2, "beta", "y", EventKind::Mark("recv"), None);
        let json = chrome_trace(&[a, b], 0);
        validate_chrome_trace(&json).unwrap();
        let doc = parse_json(&json).unwrap();
        let te = doc.get("traceEvents").unwrap().as_array().unwrap();
        let names: Vec<&str> = te
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")))
            .filter_map(JsonValue::as_str)
            .collect();
        assert_eq!(names, vec!["alpha", "beta"]);
    }

    #[test]
    fn chrome_trace_escapes_awkward_names() {
        let e = ev(
            1,
            "h",
            "actor \"quoted\"\nnewline\\slash",
            EventKind::Mark("m"),
            None,
        );
        let json = chrome_trace(&[e], 0);
        assert_eq!(validate_chrome_trace(&json).unwrap(), 2);
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let json = chrome_trace(&[], 0);
        assert_eq!(validate_chrome_trace(&json).unwrap(), 0);
    }

    #[test]
    fn prometheus_round_trips_through_parser() {
        let m = Machine::default_machine();
        m.stats.add(crate::stats::keys::VM_FAULTS, 42);
        m.stats.add(crate::stats::keys::DISK_READS, 7);
        m.latency
            .record(crate::trace::keys::FAULT_TO_RESOLUTION, 900);
        m.latency
            .record(crate::trace::keys::FAULT_TO_RESOLUTION, 100_000);
        let text = prometheus_for(&m);
        assert!(text.contains("# TYPE vm_faults counter"));
        assert!(text.contains("# TYPE vm_fault_to_resolution_ns histogram"));
        assert!(text.contains("vm_fault_to_resolution_ns_bucket{le=\"1023\"} 1"));
        assert!(text.contains("trace_dropped_events 0"));
        let parsed = parse_prometheus(&text).expect("parsable");
        assert_eq!(parsed.get("vm_faults"), Some(&42.0));
        assert_eq!(parsed.get("disk_reads"), Some(&7.0));
        assert_eq!(parsed.get("vm_fault_to_resolution_ns_count"), Some(&2.0));
        assert_eq!(
            parsed.get("vm_fault_to_resolution_ns_bucket{le=\"+Inf\"}"),
            Some(&2.0)
        );
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let h = Histogram::new();
        for ns in [1u64, 2, 500, 100_000] {
            h.record(ns);
        }
        let text = prometheus_from(&[], &[HistogramData::of("lat", &h)], 0);
        let parsed = parse_prometheus(&text).unwrap();
        let mut bucket_values: Vec<f64> = parsed
            .iter()
            .filter(|(k, _)| k.starts_with("lat_ns_bucket"))
            .map(|(_, v)| *v)
            .collect();
        bucket_values.sort_by(f64::total_cmp);
        assert!(
            bucket_values.windows(2).all(|w| w[0] <= w[1]),
            "cumulative counts never decrease: {bucket_values:?}"
        );
        assert_eq!(*bucket_values.last().unwrap(), 4.0);
    }

    #[test]
    fn chrome_trace_carries_span_args_and_depth_counters() {
        let alpha = Machine::named(crate::cost::CostModel::default(), "alpha");
        let beta = Machine::named(crate::cost::CostModel::default(), "beta");
        let cid = CorrelationId::allocate();
        let _scope = crate::trace::CorrelationScope::enter(cid);
        let root = alpha.span_open_under("fault.submit", 0);
        alpha.clock.charge(1_000);
        let parked = alpha.span_open_with("fault.parked", root, Some(cid), Some(3));
        let queued = beta.span_open_with("ipc.queued", root, Some(cid), Some(7));
        beta.span_close("ipc.queued", queued);
        alpha.span_close("fault.parked", parked);
        alpha.span_close("fault.submit", root);
        let mut events = alpha.trace.snapshot();
        events.extend(beta.trace.snapshot());
        let json = chrome_trace(&events, 0);
        validate_chrome_trace(&json).expect("valid with spans and depth counters");
        let doc = parse_json(&json).expect("export parses");
        let te = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        let opens: Vec<_> = te
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("fault.submit:open"))
            .collect();
        assert_eq!(opens.len(), 1);
        assert_eq!(
            opens[0].get("args").and_then(|a| a.get("span")),
            Some(&JsonValue::Num(root as f64))
        );
        // One counter sample per depth-bearing open, on its own host's
        // process: closes and the depthless root render none.
        let counters: Vec<(&str, Option<&JsonValue>, Option<&JsonValue>)> = te
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C"))
            .map(|e| {
                (
                    e.get("name").and_then(JsonValue::as_str).unwrap_or(""),
                    e.get("args").and_then(|a| a.get("value")),
                    e.get("pid"),
                )
            })
            .collect();
        assert_eq!(
            counters,
            vec![
                (
                    "fault.parked.depth",
                    Some(&JsonValue::Num(3.0)),
                    Some(&JsonValue::Num(1.0))
                ),
                (
                    "ipc.queued.depth",
                    Some(&JsonValue::Num(7.0)),
                    Some(&JsonValue::Num(2.0))
                ),
            ]
        );
        let ts_of = |name: &str| {
            te.iter()
                .find(|e| e.get("name").and_then(JsonValue::as_str) == Some(name))
                .and_then(|e| e.get("ts"))
        };
        assert_eq!(ts_of("fault.parked.depth"), Some(&JsonValue::Num(1.0)));
        assert_eq!(ts_of("fault.parked.depth"), ts_of("fault.parked:open"));
    }

    #[test]
    fn prometheus_includes_lock_contention() {
        let m = Machine::default_machine();
        // Touch a classified lock so at least one class has traffic.
        let lock = crate::lockdep::ClassMutex::new(crate::lockdep::LockClass::Queues, ());
        drop(lock.lock());
        let text = prometheus_for(&m);
        assert!(
            text.contains("# TYPE lock_wait_queues_ns histogram"),
            "per-class wait histogram exported"
        );
        assert!(text.contains("lock_contended_queues"));
        let parsed = parse_prometheus(&text).expect("parsable");
        assert!(parsed.contains_key("lock_wait_queues_ns_count"));
    }

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(
            prom_name("vm.fault_to_resolution"),
            "vm_fault_to_resolution"
        );
        assert_eq!(prom_name("ipc.messages_sent"), "ipc_messages_sent");
        assert_eq!(prom_name("9lives"), "_9lives");
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("nul").is_err());
    }

    #[test]
    fn json_parser_accepts_the_usual_shapes() {
        let v = parse_json("{\"a\":[1,2.5,-3e2],\"b\":{\"c\":null,\"d\":true},\"e\":\"x\\ny\"}")
            .unwrap();
        assert_eq!(v.get("e").and_then(JsonValue::as_str), Some("x\ny"));
        assert_eq!(
            v.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("d")),
            Some(&JsonValue::Bool(true))
        );
    }

    #[test]
    fn dropped_counter_survives_ring_overflow() {
        let t = TraceBuffer::new(2);
        for i in 0..5u64 {
            t.record(ev(i, "h", "a", EventKind::Mark("m"), None));
        }
        let json = chrome_trace(&t.snapshot(), t.dropped());
        let doc = parse_json(&json).unwrap();
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("trace.dropped_events"))
                .and_then(JsonValue::as_str),
            Some("3")
        );
    }
}
