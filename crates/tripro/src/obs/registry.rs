//! A process-global metrics registry: named counters and histograms with
//! Prometheus-style labels.
//!
//! Handles are `Arc`s — call sites resolve a metric **once** (typically
//! into a `OnceLock` or a struct field) and then update it with plain
//! atomic operations; the registry mutex is only taken at registration and
//! scrape time, never on the per-sample hot path.
//!
//! Label sets are rendered to a canonical string at registration
//! (`k1="v1",k2="v2"`, keys sorted, values escaped), so the same
//! name+labels always resolves to the same underlying metric.

use super::histogram::Histogram;
use crate::sync::{lock, Mutex};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};

/// A handle to a registered metric.
#[derive(Clone)]
pub enum Metric {
    /// Monotonic counter.
    Counter(Arc<AtomicU64>),
    /// Log-linear latency histogram (nanosecond samples).
    Histogram(Arc<Histogram>),
}

struct Entry {
    help: &'static str,
    metric: Metric,
}

/// One metric name with all its labelled samples, in label order.
pub struct MetricFamily {
    /// Metric name (`tripro_*`).
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// `(rendered_labels, handle)` pairs; the label string is empty for
    /// unlabelled metrics.
    pub samples: Vec<(String, Metric)>,
}

/// Registry of named metrics. See the module docs for the access pattern.
#[derive(Default)]
pub struct MetricsRegistry {
    // LOCK-RANK(95): registration/scrape map; leaf lock of the obs plane,
    // taken with nothing else held (hot-path updates go through the
    // pre-registered atomic handles, never this mutex).
    entries: Mutex<BTreeMap<(&'static str, String), Entry>>,
}

/// Render a label set canonically: keys sorted, values escaped per the
/// Prometheus text format (`\\`, `\"`, `\n`).
#[must_use]
pub fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

impl MetricsRegistry {
    /// An empty registry (use [`global`] for the process-wide one).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name{labels}`. If the key is already
    /// registered as a different metric type, a detached (unexported)
    /// counter is returned rather than panicking — the lint-visible
    /// failure mode for a naming collision is a missing series, not an
    /// abort on the query path.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<AtomicU64> {
        let key = (name, render_labels(labels));
        let mut entries = lock(&self.entries);
        let entry = entries.entry(key).or_insert_with(|| Entry {
            help,
            metric: Metric::Counter(Arc::new(AtomicU64::new(0))),
        });
        match &entry.metric {
            Metric::Counter(c) => Arc::clone(c),
            Metric::Histogram(_) => Arc::new(AtomicU64::new(0)),
        }
    }

    /// Get or create the histogram `name{labels}`. Same collision policy
    /// as [`MetricsRegistry::counter`].
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let key = (name, render_labels(labels));
        let mut entries = lock(&self.entries);
        let entry = entries.entry(key).or_insert_with(|| Entry {
            help,
            metric: Metric::Histogram(Arc::new(Histogram::new())),
        });
        match &entry.metric {
            Metric::Histogram(h) => Arc::clone(h),
            Metric::Counter(_) => Arc::new(Histogram::new()),
        }
    }

    /// Snapshot every registered metric, grouped by name in sorted order.
    /// Handles are cloned `Arc`s: values read from them are live.
    #[must_use]
    pub fn families(&self) -> Vec<MetricFamily> {
        let entries = lock(&self.entries);
        let mut out: Vec<MetricFamily> = Vec::new();
        for ((name, labels), entry) in entries.iter() {
            match out.last_mut() {
                Some(fam) if fam.name == *name => {
                    fam.samples.push((labels.clone(), entry.metric.clone()));
                }
                _ => out.push(MetricFamily {
                    name,
                    help: entry.help,
                    samples: vec![(labels.clone(), entry.metric.clone())],
                }),
            }
        }
        out
    }

    /// Number of registered series (for tests).
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// True if nothing has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide registry used by all engine and service
/// instrumentation.
#[must_use]
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn same_key_resolves_to_same_counter() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("t_total", "h", &[("shard", "3")]);
        let b = reg.counter("t_total", "h", &[("shard", "3")]);
        a.fetch_add(2, Ordering::Relaxed);
        b.fetch_add(1, Ordering::Relaxed);
        assert_eq!(a.load(Ordering::Relaxed), 3);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("t", "h", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("t", "h", &[("b", "2"), ("a", "1")]);
        a.fetch_add(1, Ordering::Relaxed);
        assert_eq!(b.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let s = render_labels(&[("k", "a\"b\\c\nd")]);
        assert_eq!(s, "k=\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn kind_collision_returns_detached_handle() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("m", "h", &[]);
        let h = reg.histogram("m", "h", &[]);
        h.record(5);
        // The registered entry is still the counter; the histogram handle
        // is detached and the registry is unchanged.
        c.fetch_add(1, Ordering::Relaxed);
        assert_eq!(reg.len(), 1);
        let fams = reg.families();
        assert_eq!(fams.len(), 1);
        assert!(matches!(fams[0].samples[0].1, Metric::Counter(_)));
    }

    #[test]
    fn families_group_by_name_in_order() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total", "bees", &[("x", "1")]);
        reg.counter("b_total", "bees", &[("x", "2")]);
        reg.counter("a_total", "ays", &[]);
        let fams = reg.families();
        assert_eq!(fams.len(), 2);
        assert_eq!(fams[0].name, "a_total");
        assert_eq!(fams[1].name, "b_total");
        assert_eq!(fams[1].samples.len(), 2);
    }
}
