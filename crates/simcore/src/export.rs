//! Telemetry exporters: JSONL, Chrome trace-event JSON, metrics tables.
//!
//! All three render a [`MergedTelemetry`] — a traced sweep, a forensic
//! capture (a traced sweep of labelled replays) or a single run wrapped
//! via [`MergedTelemetry::from_single`]. JSON is emitted by hand — the
//! formats are flat and fixed, and keeping serde out of the export path
//! means the exporters work identically in every build configuration.
//!
//! The Chrome trace-event output follows the documented JSON array
//! format (`{"traceEvents": [...]}`) understood by `chrome://tracing`
//! and <https://ui.perfetto.dev>:
//!
//! - each run becomes a *process* (`pid` = run index), named by its
//!   label when it has one,
//! - each component becomes a named *thread* within it (`tid` derived
//!   from the [`ComponentId`], labelled via `thread_name` metadata),
//! - air exchanges ([`TraceKind::TxStart`]) become duration (`"X"`)
//!   slices using the recorded exchange time,
//! - queue admissions emit counter (`"C"`) tracks of queue depth,
//! - everything else becomes thread-scoped instants (`"i"`),
//! - a run whose ring evicted events gets a warning instant in its own
//!   process.

use std::fmt::Write as _;

use crate::metrics::{MetricValue, MetricsRegistry};
use crate::telemetry::{MergedTelemetry, SweepEvent};
use crate::trace::{ComponentId, TraceDetail, TraceEvent, TraceKind};

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Append the detail payload as a JSON object fragment (no braces).
fn detail_fields(d: &TraceDetail, out: &mut String) {
    match *d {
        TraceDetail::None => {}
        TraceDetail::Seq(seq) => {
            let _ = write!(out, "\"seq\":{seq}");
        }
        TraceDetail::Queue { seq, depth, cap } => {
            let _ = write!(out, "\"seq\":{seq},\"depth\":{depth},\"cap\":{cap}");
        }
        TraceDetail::Drop { seq, head } => {
            let _ = write!(out, "\"seq\":{seq},\"head\":{head}");
        }
        TraceDetail::Air { seq, attempts, dur_us } => {
            let _ = write!(out, "\"seq\":{seq},\"attempts\":{attempts},\"dur_us\":{dur_us}");
        }
        TraceDetail::Link { to_secondary } => {
            let _ = write!(out, "\"to_secondary\":{to_secondary}");
        }
        TraceDetail::Power { sleeping } => {
            let _ = write!(out, "\"sleeping\":{sleeping}");
        }
        TraceDetail::Decision { kind, seq } => {
            let _ = write!(out, "\"decision\":\"{}\",\"seq\":{seq}", kind.name());
        }
        TraceDetail::Transport { seq, flight } => {
            let _ = write!(out, "\"seq\":{seq},\"flight\":{flight}");
        }
        TraceDetail::Value(v) => {
            let _ = write!(out, "\"value\":{v}");
        }
        TraceDetail::Fault { window, edge } => {
            let _ = write!(out, "\"window\":{window},\"edge\":\"{}\"", edge.name());
        }
    }
}

/// Render the merged trace as JSON Lines: one self-contained object per
/// event, in merge order — the grep/jq-friendly dump. `ord` is the
/// within-run emission counter (the merge tiebreaker); `seq`, when
/// present, is the packet sequence number from the event detail.
///
/// The events follow a preamble, in run order: a labelled run's header
/// (`{"run":r,"label":…}`), and for every run whose ring evicted events a
/// warning naming it (`{"warning":"ring_overflow","run":r,"dropped":n}`)
/// instead of a silent truncation. An unlabelled sweep that evicted
/// nothing has no preamble.
pub fn jsonl(merged: &MergedTelemetry) -> String {
    let mut out = String::with_capacity(merged.events.len() * 96);
    for (r, info) in merged.runs.iter().enumerate() {
        if !info.label.is_empty() {
            let _ = write!(out, "{{\"run\":{r},\"label\":\"");
            json_escape(&info.label, &mut out);
            out.push_str("\"}\n");
        }
        if info.dropped > 0 {
            let _ = writeln!(
                out,
                "{{\"warning\":\"ring_overflow\",\"run\":{r},\"dropped\":{}}}",
                info.dropped
            );
        }
    }
    let mut fields = String::new();
    for SweepEvent { run, seq, event } in &merged.events {
        let _ = write!(
            out,
            "{{\"at_ns\":{},\"run\":{run},\"ord\":{seq},\"kind\":\"{}\",\"who\":\"{}\"",
            event.at.as_nanos(),
            event.kind.name(),
            event.who,
        );
        fields.clear();
        detail_fields(&event.detail, &mut fields);
        if !fields.is_empty() {
            out.push(',');
            out.push_str(&fields);
        }
        out.push_str("}\n");
    }
    out
}

/// Stable Chrome-trace thread id for a component (kinds are spaced so
/// indexed components get contiguous tids).
fn tid(who: ComponentId) -> u32 {
    (who.kind as u32) * 16 + u32::from(who.index)
}

fn push_common(out: &mut String, name: &str, ph: char, ts_us: f64, run: u32, tid_: u32) {
    let _ = write!(out, "{{\"name\":\"");
    json_escape(name, out);
    let _ = write!(out, "\",\"ph\":\"{ph}\",\"ts\":{ts_us:.3},\"pid\":{run},\"tid\":{tid_}");
}

fn chrome_sep(out: &mut String, first: &mut bool) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
}

/// Render one trace event in Chrome trace-event form. `run` is the pid,
/// `emit_seq` the within-run emission counter.
fn push_chrome_event(out: &mut String, first: &mut bool, run: u32, emit_seq: u64, event: &TraceEvent) {
    let ts_us = event.at.as_nanos() as f64 / 1e3;
    let t = tid(event.who);
    chrome_sep(out, first);
    match event.detail {
        // Air exchanges render as duration slices.
        TraceDetail::Air { seq: pkt, attempts, dur_us } if event.kind == TraceKind::TxStart => {
            push_common(out, &format!("tx seq={pkt}"), 'X', ts_us, run, t);
            let _ = write!(
                out,
                ",\"dur\":{dur_us},\"args\":{{\"seq\":{pkt},\"attempts\":{attempts}}}}}"
            );
        }
        // Queue admissions double as counter samples of queue depth.
        TraceDetail::Queue { seq: pkt, depth, cap } => {
            push_common(out, &format!("{} depth", event.who), 'C', ts_us, run, t);
            let _ = write!(out, ",\"args\":{{\"depth\":{depth}}}}}");
            chrome_sep(out, first);
            push_common(out, event.kind.name(), 'i', ts_us, run, t);
            let _ = write!(
                out,
                ",\"s\":\"t\",\"args\":{{\"seq\":{pkt},\"depth\":{depth},\"cap\":{cap}}}}}"
            );
        }
        _ => {
            push_common(out, event.kind.name(), 'i', ts_us, run, t);
            out.push_str(",\"s\":\"t\",\"args\":{");
            let mut fields = String::new();
            detail_fields(&event.detail, &mut fields);
            out.push_str(&fields);
            let _ = write!(out, ",\"detail\":\"{}\",\"emit_seq\":{emit_seq}}}}}", event.detail);
        }
    }
}

/// Render the merged trace in Chrome trace-event JSON, loadable in
/// `chrome://tracing` and <https://ui.perfetto.dev>. A labelled run's
/// process carries its label as `process_name`; a run whose ring evicted
/// events gets a process-scoped warning instant at t=0 in its own pid, so
/// the missing window is visible rather than silently absent.
pub fn chrome_trace(merged: &MergedTelemetry) -> String {
    let mut out = String::with_capacity(merged.events.len() * 160 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;

    for (r, info) in merged.runs.iter().enumerate() {
        let pid = r as u32;
        if !info.label.is_empty() {
            chrome_sep(&mut out, &mut first);
            push_common(&mut out, "process_name", 'M', 0.0, pid, 0);
            out.push_str(",\"args\":{\"name\":\"");
            json_escape(&info.label, &mut out);
            out.push_str("\"}}");
        }
        if info.dropped > 0 {
            let dropped = info.dropped;
            chrome_sep(&mut out, &mut first);
            let name = format!("ring overflow: {dropped} events evicted");
            push_common(&mut out, &name, 'i', 0.0, pid, 0);
            let _ = write!(out, ",\"s\":\"p\",\"args\":{{\"dropped\":{dropped}}}}}");
        }
    }

    // thread_name metadata: one entry per (run, component) pair seen.
    let mut named: Vec<(u32, u32)> = Vec::new();
    for SweepEvent { run, event, .. } in &merged.events {
        let t = tid(event.who);
        if !named.contains(&(*run, t)) {
            named.push((*run, t));
            chrome_sep(&mut out, &mut first);
            push_common(&mut out, "thread_name", 'M', 0.0, *run, t);
            let _ = write!(out, ",\"args\":{{\"name\":\"{}\"}}}}", event.who);
        }
    }

    for SweepEvent { run, seq, event } in &merged.events {
        push_chrome_event(&mut out, &mut first, *run, *seq, event);
    }
    out.push_str("\n]}\n");
    out
}

/// Render a metrics registry as an aligned text table; histograms show
/// count / mean / p50 / p90 / p99 / max.
pub fn metrics_table(metrics: &MetricsRegistry) -> String {
    let mut rows: Vec<[String; 3]> = Vec::with_capacity(metrics.len());
    for row in metrics.rows() {
        let value = match &row.value {
            MetricValue::Counter(n) => format!("{n}"),
            MetricValue::Gauge { sum, n } => {
                format!("{:.3}", if *n == 0 { 0.0 } else { sum / *n as f64 })
            }
            MetricValue::Histogram(h) => format!(
                "n={} mean={:.1} p50={} p90={} p99={} max={}",
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
                h.max()
            ),
        };
        rows.push([row.who.to_string(), row.name.to_string(), value]);
    }
    let mut widths = [9usize, 6, 5]; // headers: component, metric, value
    for r in &rows {
        for (w, cell) in widths.iter_mut().zip(r.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<w0$}  {:<w1$}  value",
        "component",
        "metric",
        w0 = widths[0],
        w1 = widths[1]
    );
    let _ = writeln!(out, "{}", "-".repeat(widths[0] + widths[1] + widths[2] + 4));
    for r in &rows {
        let _ = writeln!(out, "{:<w0$}  {:<w1$}  {}", r[0], r[1], r[2], w0 = widths[0], w1 = widths[1]);
    }
    out
}

/// Render a full sweep report: metrics table plus profile and drop-count
/// footer — what `repro --capture` writes to `metrics.txt`.
pub fn sweep_report(merged: &MergedTelemetry) -> String {
    let mut out = metrics_table(&merged.metrics);
    out.push('\n');
    let _ = writeln!(out, "events: {} recorded, {} evicted", merged.events.len(), merged.dropped);
    if merged.dropped > 0 {
        let _ = writeln!(
            out,
            "warning: ring overflow — {} events evicted before export (raise the ring capacity)",
            merged.dropped
        );
    }
    let _ = writeln!(out, "profile: {}", merged.profile.summary());
    out
}

/// Write a rendered artifact atomically: the text lands in
/// `path + ".tmp"` first and is renamed into place, so a crash (or a
/// full disk) mid-write leaves either the old artifact or none — never a
/// truncated one. Parent directories are created as needed. Errors are
/// propagated, not panicked: artifact IO failing must degrade the run
/// (skip the artifact, report the error), not kill it. A failed write or
/// rename removes the temp file it made. `repro`'s artifacts (through
/// `report::write_json` or directly) and campaign checkpoints are all
/// written through here.
pub fn write_text_atomic(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let written = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LogHistogram;
    use crate::telemetry::TelemetrySession;
    use crate::time::SimTime;
    use crate::trace::{DecisionKind, FaultEdge, TraceEvent};

    fn merged_fixture() -> MergedTelemetry {
        let events = vec![
            TraceEvent {
                at: SimTime::from_micros(100),
                kind: TraceKind::Enqueue,
                who: ComponentId::ap(0),
                detail: TraceDetail::Queue { seq: 1, depth: 2, cap: 64 },
            },
            TraceEvent {
                at: SimTime::from_micros(200),
                kind: TraceKind::TxStart,
                who: ComponentId::ap(0),
                detail: TraceDetail::Air { seq: 1, attempts: 2, dur_us: 850 },
            },
            TraceEvent {
                at: SimTime::from_micros(1050),
                kind: TraceKind::Delivery,
                who: ComponentId::client(0),
                detail: TraceDetail::Seq(1),
            },
            TraceEvent {
                at: SimTime::from_micros(1100),
                kind: TraceKind::Decision,
                who: ComponentId::client(0),
                detail: TraceDetail::Decision { kind: DecisionKind::MiddleboxStart, seq: 2 },
            },
            TraceEvent {
                at: SimTime::from_micros(1200),
                kind: TraceKind::Fault,
                who: ComponentId::world(),
                detail: TraceDetail::Fault { window: 0, edge: FaultEdge::Onset },
            },
        ];
        let mut metrics = MetricsRegistry::new();
        metrics.counter(ComponentId::ap(0), "drops", 3);
        metrics.gauge(ComponentId::tcp(), "cwnd", 7.0);
        let mut h = LogHistogram::new();
        h.record(5);
        h.record(900);
        metrics.histogram(ComponentId::ap(0), "queue_depth", &h);
        MergedTelemetry::from_single(TelemetrySession {
            events,
            metrics,
            ..TelemetrySession::default()
        })
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let m = merged_fixture();
        let out = jsonl(&m);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"kind\":\"enqueue\""));
        assert!(lines[0].contains("\"who\":\"ap:0\""));
        assert!(lines[0].contains("\"depth\":2"));
        assert!(lines[1].contains("\"dur_us\":850"));
        assert!(lines[3].contains("\"decision\":\"middlebox_start\""));
        assert!(lines[4].contains("\"kind\":\"fault\""));
        assert!(lines[4].contains("\"edge\":\"onset\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let m = merged_fixture();
        let out = chrome_trace(&m);
        assert!(out.starts_with("{\"displayTimeUnit\""));
        assert!(out.contains("\"traceEvents\":["));
        // Duration slice for the air exchange.
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"dur\":850"));
        // Counter track for queue depth.
        assert!(out.contains("\"ph\":\"C\""));
        // Thread name metadata for both components.
        assert!(out.contains("\"thread_name\""));
        assert!(out.contains("{\"name\":\"ap:0\"}"));
        assert!(out.contains("{\"name\":\"client\"}"));
        // Balanced braces/brackets — cheap structural sanity.
        let open = out.matches('{').count();
        let close = out.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(out.matches('[').count(), out.matches(']').count());
    }

    #[test]
    fn metrics_table_lists_all_rows() {
        let m = merged_fixture();
        let table = metrics_table(&m.metrics);
        assert!(table.contains("drops"));
        assert!(table.contains("queue_depth"));
        assert!(table.contains("p90="));
        assert!(table.contains("cwnd"));
        assert!(table.contains("7.000"));
        let report = sweep_report(&m);
        assert!(report.contains("events: 5 recorded, 0 evicted"));
        assert!(report.contains("profile:"));
    }

    #[test]
    fn json_escaping() {
        let mut s = String::new();
        json_escape("a\"b\\c\nd", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd");
    }

    /// A capture-shaped merge: two labelled replays of the fixture's
    /// events, the second of which evicted 9 events from its ring.
    fn captures_fixture() -> MergedTelemetry {
        let events: Vec<TraceEvent> =
            merged_fixture().events.into_iter().map(|e| e.event).collect();
        let mut m = MergedTelemetry::default();
        m.absorb(0, TelemetrySession { events: events.clone(), ..TelemetrySession::default() });
        m.absorb(1, TelemetrySession { events, dropped: 9, ..TelemetrySession::default() });
        m.finish();
        m.runs[0].label = "diversifi/call-000042 score=2.25 seed=0x7".into();
        m.runs[1].label = "primary-only/call-000007 score=2.5 seed=0x7".into();
        m
    }

    #[test]
    fn ring_overflow_is_surfaced_not_silent() {
        // An unlabelled sweep whose one run evicted 17 events.
        let events: Vec<TraceEvent> =
            merged_fixture().events.into_iter().map(|e| e.event).collect();
        let m = MergedTelemetry::from_single(TelemetrySession {
            events: events.clone(),
            dropped: 17,
            ..TelemetrySession::default()
        });

        let out = jsonl(&m);
        let first = out.lines().next().unwrap();
        assert_eq!(first, "{\"warning\":\"ring_overflow\",\"run\":0,\"dropped\":17}");
        assert_eq!(out.lines().count(), 6, "warning line plus the 5 events");
        assert!(out.lines().nth(1).unwrap().contains("\"ord\":17"), "ord continues after eviction");

        let chrome = chrome_trace(&m);
        assert!(chrome.contains("ring overflow: 17 events evicted"));
        assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());

        let report = sweep_report(&m);
        assert!(report.contains("events: 5 recorded, 17 evicted"));
        assert!(report.contains("warning: ring overflow"));

        // A second evicting run, labelled, beside a labelled clean one and
        // the unlabelled one above: every eviction names its own run.
        let mut m = captures_fixture();
        m.absorb(2, TelemetrySession { events, dropped: 4, ..TelemetrySession::default() });
        m.finish();
        let out = jsonl(&m);
        let warnings: Vec<&str> = out.lines().filter(|l| l.contains("ring_overflow")).collect();
        assert_eq!(
            warnings,
            vec![
                "{\"warning\":\"ring_overflow\",\"run\":1,\"dropped\":9}",
                "{\"warning\":\"ring_overflow\",\"run\":2,\"dropped\":4}",
            ]
        );
        let chrome = chrome_trace(&m);
        assert!(chrome.contains(
            "{\"name\":\"ring overflow: 9 events evicted\",\"ph\":\"i\",\"ts\":0.000,\"pid\":1,"
        ));
        assert!(chrome.contains(
            "{\"name\":\"ring overflow: 4 events evicted\",\"ph\":\"i\",\"ts\":0.000,\"pid\":2,"
        ));
        assert!(!chrome.contains("\"pid\":0,\"tid\":0,\"s\":\"p\""), "run 0 evicted nothing");
        assert!(sweep_report(&m).contains("events: 15 recorded, 13 evicted"));

        // And with nothing dropped, none of the three mention overflow.
        let clean = merged_fixture();
        assert!(!jsonl(&clean).contains("ring_overflow"));
        assert!(!chrome_trace(&clean).contains("ring overflow"));
        assert!(!sweep_report(&clean).contains("warning"));
    }

    #[test]
    fn flight_jsonl_headers_then_events() {
        let out = jsonl(&captures_fixture());
        let lines: Vec<&str> = out.lines().collect();
        // Preamble: header 0; header 1 + its warning. Then 2 × 5 events.
        assert_eq!(lines.len(), 3 + 10);
        assert_eq!(lines[0], "{\"run\":0,\"label\":\"diversifi/call-000042 score=2.25 seed=0x7\"}");
        assert_eq!(
            lines[1],
            "{\"run\":1,\"label\":\"primary-only/call-000007 score=2.5 seed=0x7\"}"
        );
        assert!(lines[2].contains("\"warning\":\"ring_overflow\""));
        // Events interleave by time; run 1's ord continues from its
        // evicted prefix.
        assert!(lines[3].contains("\"run\":0") && lines[3].contains("\"ord\":0"));
        assert!(lines[4].contains("\"run\":1") && lines[4].contains("\"ord\":9"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn flight_chrome_trace_is_one_process_per_capture() {
        let out = chrome_trace(&captures_fixture());
        assert!(out.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"diversifi/call-000042 score=2.25 seed=0x7\"}}"
        ));
        assert!(out.contains("\"pid\":1,\"tid\":0,\"args\":{\"name\":\"primary-only/call-000007"));
        assert!(out.contains("ring overflow: 9 events evicted"));
        // Events of capture 1 carry pid 1.
        assert!(out.contains("\"ph\":\"X\",\"ts\":200.000,\"pid\":1"));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        assert_eq!(out.matches('[').count(), out.matches(']').count());
        let parsed: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        assert!(parsed.get("traceEvents").is_some());
    }

    #[test]
    fn write_text_atomic_creates_dirs_replaces_and_propagates_errors() {
        let dir = std::env::temp_dir()
            .join(format!("diversifi-export-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/artifact.json");
        write_text_atomic(&path, "{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        // Overwrite in place; no .tmp litter survives.
        write_text_atomic(&path, "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        assert!(!dir.join("nested/artifact.json.tmp").exists());
        // A directory squatting on the temp path surfaces as Err, not a
        // panic (the full-disk / unwritable-path degradation contract).
        let blocked = dir.join("blocked.json");
        std::fs::create_dir_all(dir.join("blocked.json.tmp")).unwrap();
        assert!(write_text_atomic(&blocked, "x").is_err());
        // A directory squatting on the target itself: the temp file is
        // written, the rename fails, and the temp file is removed again.
        let squatted = dir.join("squatted.json");
        std::fs::create_dir_all(squatted.join("inner")).unwrap();
        assert!(write_text_atomic(&squatted, "x").is_err());
        assert!(!dir.join("squatted.json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
