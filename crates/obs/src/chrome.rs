//! Chrome trace-event JSON exporter (Perfetto / `chrome://tracing`).
//!
//! Output follows the Trace Event Format's JSON-object flavour:
//! `{"traceEvents": [...]}` with
//!
//! * `"ph":"X"` complete slices — one per SM per epoch, on one track
//!   (`tid`) per SM, labelled with the epoch index and the SM's
//!   active/target block counts;
//! * `"ph":"i"` instant events — one per VF transition, on the track of
//!   the regulator that moved;
//! * `"ph":"C"` counter tracks — one per registered series metric;
//! * `"ph":"M"` metadata naming the processes and threads.
//!
//! Timestamps are microseconds (the format's unit), converted from the
//! simulator's femtoseconds with three decimal places — nanosecond
//! resolution, formatted deterministically so identical runs export
//! identical bytes.

use equalizer_sim::config::Femtos;
use equalizer_sim::engine::VfDomain;

use crate::json::escape_json;
use crate::observer::MetricsObserver;
use crate::registry::MetricKind;

/// The machine process id (SM tracks live here).
const PID_MACHINE: u64 = 0;
/// The metrics process id (counter tracks live here).
const PID_METRICS: u64 = 1;

/// Femtoseconds to trace microseconds, fixed three decimals.
fn ts(fs: Femtos) -> String {
    format!("{:.3}", fs as f64 / 1e9)
}

fn push_event(out: &mut String, body: String) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push_str("\n  {");
    out.push_str(&body);
    out.push('}');
}

/// Renders the observer's run as a complete trace-event JSON document.
pub fn chrome_trace(obs: &MetricsObserver) -> String {
    let mut out = String::from("{\"traceEvents\": [");

    // --- Metadata: name the processes and the per-SM tracks.
    push_event(
        &mut out,
        format!(
            "\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {PID_MACHINE}, \
             \"args\": {{\"name\": \"gpu machine\"}}"
        ),
    );
    push_event(
        &mut out,
        format!(
            "\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {PID_METRICS}, \
             \"args\": {{\"name\": \"metrics\"}}"
        ),
    );
    let num_sms = obs
        .epoch_slices()
        .iter()
        .map(|s| s.sm + 1)
        .max()
        .unwrap_or(0);
    push_event(
        &mut out,
        format!(
            "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {PID_MACHINE}, \"tid\": 0, \
             \"args\": {{\"name\": \"memory domain\"}}"
        ),
    );
    for sm in 0..num_sms {
        push_event(
            &mut out,
            format!(
                "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {PID_MACHINE}, \
                 \"tid\": {}, \"args\": {{\"name\": \"SM {sm}\"}}",
                sm + 1
            ),
        );
    }

    // --- Epoch slices, one SM track each.
    for slice in obs.epoch_slices() {
        let dur = slice.end_fs.saturating_sub(slice.start_fs);
        push_event(
            &mut out,
            format!(
                "\"name\": \"{}\", \"cat\": \"epoch\", \"ph\": \"X\", \"pid\": {PID_MACHINE}, \
                 \"tid\": {}, \"ts\": {}, \"dur\": {}",
                escape_json(&slice.label),
                slice.sm + 1,
                ts(slice.start_fs),
                ts(dur)
            ),
        );
    }

    // --- VF transitions as instant events on the moving regulator.
    for ev in obs.vf_events() {
        let (tid, what) = match ev.domain {
            VfDomain::Sm(i) => (i as u64 + 1, format!("sm{i}")),
            VfDomain::Memory => (0, "mem".to_string()),
        };
        push_event(
            &mut out,
            format!(
                "\"name\": \"{}: {:?} -> {:?}\", \"cat\": \"vf\", \"ph\": \"i\", \
                 \"pid\": {PID_MACHINE}, \"tid\": {tid}, \"ts\": {}, \"s\": \"t\"",
                escape_json(&what),
                ev.from,
                ev.to,
                ts(ev.at_fs)
            ),
        );
    }

    // --- Counter tracks, one per series metric, registration order.
    for metric in obs.registry().metrics() {
        if matches!(metric.kind, MetricKind::Histogram { .. }) {
            continue;
        }
        let name = escape_json(&metric.name);
        for p in &metric.points {
            push_event(
                &mut out,
                format!(
                    "\"name\": \"{name}\", \"ph\": \"C\", \"pid\": {PID_METRICS}, \
                     \"ts\": {}, \"args\": {{\"value\": {}}}",
                    ts(p.t_fs),
                    fmt_value(p.value)
                ),
            );
        }
    }

    out.push_str("\n]}\n");
    out
}

/// Deterministic JSON number for a metric value (finite; NaN/inf would
/// not be valid JSON, so they are clamped to 0).
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.000000".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn femtos_convert_to_microseconds() {
        assert_eq!(ts(0), "0.000");
        assert_eq!(ts(1_000_000_000), "1.000");
        assert_eq!(ts(1_500_000), "0.002", "rounds to ns resolution");
    }

    #[test]
    fn non_finite_values_do_not_break_json() {
        assert_eq!(fmt_value(f64::NAN), "0.000000");
        assert_eq!(fmt_value(1.25), "1.250000");
    }
}
