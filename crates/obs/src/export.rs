//! Exporters: Prometheus text exposition format (version 0.0.4).
//!
//! JSON export is just `serde_json::to_string(&hub.snapshot())` at the
//! call site; this module owns the hand-rolled text format because the
//! workspace vendors no Prometheus client.

use crate::metrics::{MetricsSnapshot, SampleValue};
use std::fmt::Write;

/// Renders a snapshot in the Prometheus text exposition format:
/// `# HELP` / `# TYPE` headers once per metric name, then one line per
/// series, with histogram series expanded into cumulative `_bucket`
/// lines plus `_sum` and `_count`.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    // Snapshot order groups equal names only if registered adjacently;
    // sort indices by name so HELP/TYPE headers are emitted once each.
    let mut order: Vec<usize> = (0..snapshot.metrics.len()).collect();
    order.sort_by(|&a, &b| snapshot.metrics[a].name.cmp(&snapshot.metrics[b].name));
    for i in order {
        let m = &snapshot.metrics[i];
        if last_name != Some(m.name.as_str()) {
            let _ = writeln!(out, "# HELP {} {}", m.name, escape_help(&m.help));
            let _ = writeln!(out, "# TYPE {} {}", m.name, m.kind.as_str());
            last_name = Some(m.name.as_str());
        }
        match &m.value {
            SampleValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {v}", m.name, render_labels(&m.labels, None));
            }
            SampleValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    m.name,
                    render_labels(&m.labels, None),
                    fmt_f64(*v)
                );
            }
            SampleValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (j, c) in h.counts.iter().enumerate() {
                    cumulative += c;
                    let le = match h.bounds.get(j) {
                        Some(b) => fmt_f64(*b),
                        None => "+Inf".to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {cumulative}",
                        m.name,
                        render_labels(&m.labels, Some(&le))
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    m.name,
                    render_labels(&m.labels, None),
                    fmt_f64(h.sum)
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    m.name,
                    render_labels(&m.labels, None),
                    h.count
                );
            }
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Prometheus-friendly float rendering: integers print bare, everything
/// else via the shortest roundtrip `{}` formatting.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::DURATION_BUCKETS;

    #[test]
    fn exposition_has_headers_series_and_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        let c = reg.counter_with("pinnsoc_ticks_total", "Ticks.", &[("pool", "fleet")]);
        let g = reg.gauge("pinnsoc_cells", "Cells tracked.");
        let h = reg.histogram("pinnsoc_pass_seconds", "Pass wall time.", &[0.1, 1.0]);
        reg.add(c, 7);
        reg.set(g, 1234.0);
        reg.observe(h, 0.05);
        reg.observe(h, 0.5);
        reg.observe(h, 2.0);
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("# HELP pinnsoc_ticks_total Ticks."));
        assert!(text.contains("# TYPE pinnsoc_ticks_total counter"));
        assert!(text.contains("pinnsoc_ticks_total{pool=\"fleet\"} 7"));
        assert!(text.contains("pinnsoc_cells 1234"));
        assert!(text.contains("pinnsoc_pass_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("pinnsoc_pass_seconds_bucket{le=\"1\"} 2"));
        assert!(text.contains("pinnsoc_pass_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("pinnsoc_pass_seconds_sum 2.55"));
        assert!(text.contains("pinnsoc_pass_seconds_count 3"));
    }

    #[test]
    fn help_and_type_emitted_once_per_name_across_label_sets() {
        let reg = MetricsRegistry::new();
        for stage in ["gather", "gemm"] {
            let id = reg.histogram_with(
                "pinnsoc_fleet_stage_seconds",
                "Stage time.",
                &[("stage", stage)],
                DURATION_BUCKETS,
            );
            reg.observe(id, 0.001);
        }
        let text = prometheus_text(&reg.snapshot());
        assert_eq!(
            text.matches("# TYPE pinnsoc_fleet_stage_seconds").count(),
            1
        );
        assert!(text.contains("stage=\"gather\""));
        assert!(text.contains("stage=\"gemm\""));
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        let c = reg.counter_with("pinnsoc_x_total", "h", &[("name", "a\"b\\c")]);
        reg.add(c, 1);
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("name=\"a\\\"b\\\\c\""));
    }
}
