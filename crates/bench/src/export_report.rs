//! The `report chrome-trace` / `report prom` / `report export-smoke`
//! modes: run the canonical externally paged fault demo and render its
//! trace ring and registries in standard interchange formats.
//!
//! `chrome-trace` writes catapult JSON loadable in Perfetto
//! (ui.perfetto.dev) or `chrome://tracing`; `prom` prints Prometheus text
//! exposition. `export-smoke` renders both, round-trips each through the
//! parsers in `machsim::export`, and checks the canonical fault chain —
//! `fault.submit` open → `ipc.queued` open → `pager.service` open →
//! `disk_read` → `pager.reply` open → `fault.submit` close — landed on a
//! single async track and that some queue's depth rendered as a
//! `ph:"C"` counter, exiting nonzero otherwise (wired into
//! `scripts/check.sh`).

use crate::trace_report;
use machsim::export::{self, JsonValue};
use std::collections::BTreeMap;

/// The six hops of an externally paged fault, in causal order (the
/// Section 5.5 round-trip the observability layer exists to show): the
/// fault's root span, the request's queue span, the manager's service
/// span, its disk read, the kernel's reply span, and the root's close.
const CANONICAL_HOPS: [&str; 6] = [
    "fault.submit:open",
    "ipc.queued:open",
    "pager.service:open",
    "disk_read",
    "pager.reply:open",
    "fault.submit:close",
];

/// Runs the demo scenario and renders its trace ring as catapult JSON.
pub fn chrome_trace() -> String {
    export::chrome_trace_for(&trace_report::demo_machine())
}

/// Runs the demo scenario and renders its counters and latency
/// histograms in Prometheus text exposition format.
pub fn prometheus() -> String {
    export::prometheus_for(&trace_report::demo_machine())
}

/// Validates both export formats end to end against a real run.
///
/// Returns a one-line summary on success; on failure the error says which
/// property of which format broke.
pub fn smoke() -> Result<String, String> {
    let machine = trace_report::demo_machine();

    let json = export::chrome_trace_for(&machine);
    let n_events = export::validate_chrome_trace(&json)?;
    if n_events == 0 {
        return Err("chrome trace rendered zero events".into());
    }
    check_canonical_track(&json)?;
    let counters = json.matches("\"ph\":\"C\"").count();
    if counters == 0 {
        return Err("chrome trace carries no queue-depth counter (ph:\"C\")".into());
    }

    let prom = export::prometheus_for(&machine);
    let metrics = export::parse_prometheus(&prom)?;
    if !metrics.contains_key("vm_faults") {
        return Err("prometheus export lacks the vm_faults counter".into());
    }
    if !metrics
        .keys()
        .any(|k| k.starts_with("vm_fault_to_resolution_ns_bucket{le="))
    {
        return Err("prometheus export lacks vm.fault_to_resolution bucket lines".into());
    }
    if !metrics.contains_key("trace_dropped_events") {
        return Err("prometheus export lacks trace_dropped_events".into());
    }

    Ok(format!(
        "export smoke ok: {n_events} chrome events (canonical chain on one track, \
         {counters} depth samples), {} prometheus samples",
        metrics.len()
    ))
}

/// Checks that some async track of the rendered document carries all six
/// canonical hops, in order — i.e. one fault's whole causal chain renders
/// as a single Perfetto row rather than scattered fragments.
fn check_canonical_track(json: &str) -> Result<(), String> {
    let doc = export::parse_json(json)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;
    let mut tracks: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(JsonValue::as_str) != Some("n") {
            continue;
        }
        let (Some(JsonValue::Num(id)), Some(name)) =
            (e.get("id"), e.get("name").and_then(JsonValue::as_str))
        else {
            continue;
        };
        tracks
            .entry(format!("{id}"))
            .or_default()
            .push(name.to_string());
    }
    // A real chain carries extra hops (closes, nested spans, per-cluster
    // disk reads…); the six must appear in causal order as a subsequence.
    let found = tracks.values().any(|hops| {
        let mut next = 0;
        for hop in hops {
            if next < CANONICAL_HOPS.len() && hop == CANONICAL_HOPS[next] {
                next += 1;
            }
        }
        next == CANONICAL_HOPS.len()
    });
    if found {
        Ok(())
    } else {
        Err(format!(
            "no async track carries the canonical chain {CANONICAL_HOPS:?} \
             ({} tracks rendered)",
            tracks.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_smoke_passes_on_demo_run() {
        let summary = smoke().expect("export smoke should pass");
        assert!(summary.contains("canonical chain on one track"));
    }

    #[test]
    fn chrome_trace_mode_is_valid_catapult() {
        let json = chrome_trace();
        let n = export::validate_chrome_trace(&json).unwrap();
        assert!(n > 0);
    }

    #[test]
    fn prom_mode_parses_and_has_fault_histogram() {
        let text = prometheus();
        let metrics = export::parse_prometheus(&text).unwrap();
        assert!(metrics.contains_key("vm_fault_to_resolution_ns_count"));
        assert!(metrics.contains_key("trace_dropped_events"));
    }
}
