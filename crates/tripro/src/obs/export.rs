//! Prometheus text-format exposition (and a validator for it).
//!
//! Histograms are stored internally in nanoseconds but exported in
//! **seconds** against a fixed canonical `le` ladder (1µs … 10s, +Inf),
//! per Prometheus base-unit conventions. Cumulative bucket counts come
//! from the fine log-linear buckets ([`Histogram::count_le`]), so the
//! exported ladder is a lossless coarsening — `_sum`/`_count` are exact.

use super::histogram::{Histogram, HistogramSnapshot};
use super::registry::{render_labels, Metric, MetricsRegistry};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;

/// Canonical latency ladder in nanoseconds: 1µs .. 10s, decade steps with
/// 2.5×/5× intermediates. `+Inf` is appended by the renderer.
pub const LE_LADDER_NS: &[u64] = &[
    1_000,
    10_000,
    100_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_500_000_000,
    5_000_000_000,
    10_000_000_000,
];

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// `name_suffix{labels,le="…"}`, braces only when there is a label.
fn sample_name(name: &str, suffix: &str, labels: &str, le: Option<&str>) -> String {
    let le = le.map(|v| format!("le=\"{v}\""));
    let all: Vec<&str> = [labels, le.as_deref().unwrap_or("")]
        .into_iter()
        .filter(|l| !l.is_empty())
        .collect();
    if all.is_empty() {
        format!("{name}{suffix}")
    } else {
        format!("{name}{suffix}{{{}}}", all.join(","))
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    for &bound in LE_LADDER_NS {
        let le = format!("{}", seconds(bound));
        let sample = sample_name(name, "_bucket", labels, Some(&le));
        let _ = writeln!(out, "{sample} {}", h.count_le(bound));
    }
    let inf = sample_name(name, "_bucket", labels, Some("+Inf"));
    let _ = writeln!(out, "{inf} {}", h.count());
    let sum = sample_name(name, "_sum", labels, None);
    let _ = writeln!(out, "{sum} {}", seconds(h.sum()));
    let count = sample_name(name, "_count", labels, None);
    let _ = writeln!(out, "{count} {}", h.count());
}

/// Plain-data value of one series: the wire-transferable form.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Full bucket image (exact-mergeable, see [`HistogramSnapshot`]).
    Histogram(HistogramSnapshot),
}

/// Plain-data image of one registered series. Unlike the registry (which
/// interns `&'static` names), snapshots carry owned strings so they can
/// cross a process boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name (`tripro_*`).
    pub name: String,
    /// Canonical rendered label set (may be empty).
    pub labels: String,
    /// `# HELP` text.
    pub help: String,
    /// Current value.
    pub value: MetricValue,
}

/// Snapshot every registered series as plain data — what a node answers a
/// `Metrics` frame with. Families and series appear in sorted name/label
/// order.
#[must_use]
pub fn snapshot_registry(reg: &MetricsRegistry) -> Vec<MetricSnapshot> {
    let mut out = Vec::new();
    for fam in reg.families() {
        for (labels, metric) in &fam.samples {
            out.push(MetricSnapshot {
                name: fam.name.to_string(),
                labels: labels.clone(),
                help: fam.help.to_string(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            });
        }
    }
    out
}

/// Render series as Prometheus text exposition (`text/plain;
/// version=0.0.4`) — the one renderer, whether the snapshot is a local
/// registry's, a node's `Metrics` reply or a [`federate`]d cluster view.
/// Families are grouped by name (series keep their order within one) and
/// declared once; a series whose type disagrees with its family's first
/// series is skipped rather than corrupting the family.
#[must_use]
pub fn render_snapshots(snaps: &[MetricSnapshot]) -> String {
    let mut series: Vec<&MetricSnapshot> = snaps.iter().collect();
    series.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = String::new();
    let mut family: Option<&MetricSnapshot> = None;
    for s in series {
        let first = match family {
            Some(f) if f.name == s.name => f,
            _ => {
                let kind = match s.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# HELP {} {}", s.name, s.help);
                let _ = writeln!(out, "# TYPE {} {kind}", s.name);
                family = Some(s);
                s
            }
        };
        match (&s.value, &first.value) {
            (MetricValue::Counter(v), MetricValue::Counter(_)) => {
                let _ = writeln!(out, "{} {v}", sample_name(&s.name, "", &s.labels, None));
            }
            (MetricValue::Histogram(h), MetricValue::Histogram(_)) => {
                render_histogram(&mut out, &s.name, &s.labels, &h.to_histogram());
            }
            _ => {}
        }
    }
    out
}

/// Node-label value of the exact-merged cluster aggregate series in a
/// federated snapshot.
pub const CLUSTER_NODE: &str = "cluster";

/// One node's scrape: the `node` label value plus every series it exported.
pub type NodeSnapshot = (String, Vec<MetricSnapshot>);

fn with_node_label(labels: &str, node: &str) -> String {
    let node_label = render_labels(&[("node", node)]);
    if labels.is_empty() {
        node_label
    } else {
        format!("{labels},{node_label}")
    }
}

/// Merge per-node scrapes into one cluster-wide snapshot. Every series
/// gains a `node` label; per family and base label set, an exact aggregate
/// series comes first with `node="cluster"` — counters by integer
/// addition, histograms by lossless bucket merge
/// ([`Histogram::merge_snapshot`]), so aggregate counts equal the sum of
/// the per-node counts *exactly*. A series whose type disagrees with the
/// family's first-seen type is dropped.
#[must_use]
pub fn federate(nodes: &[NodeSnapshot]) -> Vec<MetricSnapshot> {
    use std::collections::BTreeMap;
    enum Agg {
        Counter(u64),
        Histogram(Histogram),
    }
    struct Fam<'a> {
        help: &'a str,
        is_hist: bool,
        /// base labels -> exact cross-node aggregate
        agg: BTreeMap<&'a str, Agg>,
        /// (base labels, node) -> as-scraped value
        series: BTreeMap<(&'a str, &'a str), &'a MetricValue>,
    }
    let mut fams: BTreeMap<&str, Fam<'_>> = BTreeMap::new();
    for (node, snaps) in nodes {
        for s in snaps {
            let is_hist = matches!(s.value, MetricValue::Histogram(_));
            let fam = fams.entry(&s.name).or_insert_with(|| Fam {
                help: &s.help,
                is_hist,
                agg: BTreeMap::new(),
                series: BTreeMap::new(),
            });
            if fam.is_hist != is_hist {
                continue;
            }
            let slot = fam.agg.entry(&s.labels);
            match &s.value {
                MetricValue::Counter(v) => {
                    if let Agg::Counter(acc) = slot.or_insert(Agg::Counter(0)) {
                        *acc = acc.saturating_add(*v);
                    }
                }
                MetricValue::Histogram(hs) => {
                    if let Agg::Histogram(acc) =
                        slot.or_insert_with(|| Agg::Histogram(Histogram::new()))
                    {
                        acc.merge_snapshot(hs);
                    }
                }
            }
            fam.series.insert((&s.labels, node), &s.value);
        }
    }
    let mut out = Vec::new();
    for (name, fam) in fams {
        let mut push = |labels: &str, node: &str, value: MetricValue| {
            out.push(MetricSnapshot {
                name: name.to_string(),
                labels: with_node_label(labels, node),
                help: fam.help.to_string(),
                value,
            });
        };
        for (labels, agg) in &fam.agg {
            let value = match agg {
                Agg::Counter(v) => MetricValue::Counter(*v),
                Agg::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            };
            push(labels, CLUSTER_NODE, value);
        }
        for ((labels, node), value) in &fam.series {
            push(labels, node, (*value).clone());
        }
    }
    out
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn base_name(sample: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(b) = sample.strip_suffix(suffix) {
            return b;
        }
    }
    sample
}

/// Structurally validate Prometheus text exposition: every sample line
/// must parse as `name[{labels}] value`, the value must be a finite
/// number (or `+Inf` bucket bounds), and every sample must belong to a
/// family declared by a preceding `# TYPE` line. Returns the first
/// problem found, with its 1-based line number.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    use std::collections::BTreeSet;
    let mut declared: BTreeSet<String> = BTreeSet::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let (Some(name), Some(kind)) = (it.next(), it.next()) else {
                    return Err(format!("line {n}: malformed TYPE declaration"));
                };
                if !valid_name(name) {
                    return Err(format!("line {n}: invalid metric name {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {n}: unknown metric type {kind:?}"));
                }
                if !declared.insert(name.to_string()) {
                    // A federation bug that re-declares a family per node
                    // would otherwise scrape fine and break aggregation
                    // downstream; reject it here.
                    return Err(format!("line {n}: duplicate TYPE for family {name:?}"));
                }
            } else if !rest.starts_with("HELP ") && !rest.is_empty() {
                // Plain comments are legal; nothing to check.
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.find('}') {
            Some(close) => {
                let (head, tail) = line.split_at(close + 1);
                let Some(open) = head.find('{') else {
                    return Err(format!("line {n}: '}}' without '{{'"));
                };
                let labels = &head[open + 1..close];
                if labels.matches('"').count() % 2 != 0 {
                    return Err(format!("line {n}: unbalanced quotes in labels"));
                }
                (&head[..open], tail.trim())
            }
            None => {
                let mut it = line.splitn(2, ' ');
                let name = it.next().unwrap_or("");
                (name, it.next().unwrap_or("").trim())
            }
        };
        if !valid_name(name_part) {
            return Err(format!("line {n}: invalid sample name {name_part:?}"));
        }
        let value = value_part.split_whitespace().next().unwrap_or("");
        let numeric_ok = value.parse::<f64>().map(f64::is_finite).unwrap_or(false)
            || matches!(value, "+Inf" | "-Inf" | "NaN");
        if !numeric_ok {
            return Err(format!("line {n}: unparseable sample value {value:?}"));
        }
        if !declared.contains(base_name(name_part)) && !declared.contains(name_part) {
            return Err(format!(
                "line {n}: sample {name_part:?} has no preceding # TYPE declaration"
            ));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::registry::MetricsRegistry;

    fn populated() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        let c = reg.counter(
            "tripro_cache_hits_total",
            "Decode cache hits.",
            &[("shard", "0")],
        );
        c.fetch_add(41, Ordering::Relaxed);
        let h = reg.histogram(
            "tripro_query_latency_seconds",
            "Query latency.",
            &[("kind", "intersect"), ("paradigm", "FPR")],
        );
        h.record(3_000_000); // 3ms
        h.record(700_000_000); // 700ms
        reg
    }

    #[test]
    fn rendered_output_validates() {
        let text = render_snapshots(&snapshot_registry(&populated()));
        assert!(text.contains("# TYPE tripro_cache_hits_total counter"));
        assert!(text.contains("tripro_cache_hits_total{shard=\"0\"} 41"));
        assert!(text.contains("# TYPE tripro_query_latency_seconds histogram"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("tripro_query_latency_seconds_count"));
        validate_exposition(&text).expect("self-rendered exposition validates");
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_seconds() {
        let text = render_snapshots(&snapshot_registry(&populated()));
        // 3ms lands under le=0.005; 700ms only under le=1 and above.
        let line = text
            .lines()
            .find(|l| l.contains("le=\"0.005\""))
            .expect("0.005 bucket");
        assert!(line.ends_with(" 1"), "one sample <= 5ms: {line}");
        let line = text
            .lines()
            .find(|l| l.contains("le=\"1\""))
            .expect("1s bucket");
        assert!(line.ends_with(" 2"), "both samples <= 1s: {line}");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_exposition("").is_err(), "empty exposition");
        assert!(
            validate_exposition("tripro_x_total 1\n").is_err(),
            "sample without TYPE"
        );
        assert!(
            validate_exposition("# TYPE tripro_x_total counter\ntripro_x_total abc\n").is_err(),
            "non-numeric value"
        );
        assert!(
            validate_exposition("# TYPE tripro_x_total wibble\ntripro_x_total 1\n").is_err(),
            "unknown type"
        );
        assert!(
            validate_exposition("# TYPE tripro_x_total counter\ntripro_x_total{a=\"1} 1\n")
                .is_err(),
            "unbalanced label quotes"
        );
        assert!(validate_exposition("# TYPE t counter\nt{a=\"1\"} 2.5\n").is_ok());
    }

    #[test]
    fn bucket_and_sum_suffixes_resolve_to_declared_family() {
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 0.5\nh_count 1\n";
        validate_exposition(text).expect("suffix resolution");
    }

    #[test]
    fn validator_rejects_duplicate_family_declarations() {
        let text = "# TYPE t counter\nt 1\n# TYPE t counter\nt{node=\"1\"} 2\n";
        let err = validate_exposition(text).expect_err("duplicate TYPE");
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn snapshot_registry_captures_every_series() {
        let snaps = snapshot_registry(&populated());
        assert_eq!(snaps.len(), 2);
        let c = snaps
            .iter()
            .find(|s| s.name == "tripro_cache_hits_total")
            .expect("counter series");
        assert_eq!(c.labels, "shard=\"0\"");
        assert_eq!(c.value, MetricValue::Counter(41));
        let h = snaps
            .iter()
            .find(|s| s.name == "tripro_query_latency_seconds")
            .expect("histogram series");
        match &h.value {
            MetricValue::Histogram(hs) => assert_eq!(hs.count, 2),
            MetricValue::Counter(_) => panic!("histogram expected"),
        }
    }

    #[test]
    fn federated_rendering_merges_exactly_and_validates() {
        let nodes: Vec<NodeSnapshot> = vec![
            ("shard0".to_string(), snapshot_registry(&populated())),
            ("shard1".to_string(), snapshot_registry(&populated())),
            ("coordinator".to_string(), Vec::new()),
        ];
        let text = render_snapshots(&federate(&nodes));
        validate_exposition(&text).expect("federated exposition validates");
        // One declaration per family, node labels on every series.
        assert_eq!(text.matches("# TYPE tripro_cache_hits_total").count(), 1);
        assert!(text.contains("tripro_cache_hits_total{shard=\"0\",node=\"cluster\"} 82"));
        assert!(text.contains("tripro_cache_hits_total{shard=\"0\",node=\"shard0\"} 41"));
        assert!(text.contains("tripro_cache_hits_total{shard=\"0\",node=\"shard1\"} 41"));
        // Histogram aggregate counts are the exact per-node sum.
        let count_of = |needle: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with(needle))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok())
                .expect("series present")
        };
        let agg = count_of(
            "tripro_query_latency_seconds_count{kind=\"intersect\",paradigm=\"FPR\",node=\"cluster\"}",
        );
        let s0 = count_of(
            "tripro_query_latency_seconds_count{kind=\"intersect\",paradigm=\"FPR\",node=\"shard0\"}",
        );
        let s1 = count_of(
            "tripro_query_latency_seconds_count{kind=\"intersect\",paradigm=\"FPR\",node=\"shard1\"}",
        );
        assert_eq!(agg, s0 + s1, "merged count equals per-node sum exactly");
        // Same exactness on an individual bucket bound.
        let b = |node: &str| {
            text.lines()
                .filter(|l| {
                    l.starts_with("tripro_query_latency_seconds_bucket")
                        && l.contains(&format!("node=\"{node}\""))
                        && l.contains("le=\"1\"")
                })
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum::<u64>()
        };
        assert_eq!(b("cluster"), b("shard0") + b("shard1"));
    }
}
