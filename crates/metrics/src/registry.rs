//! Named counters and gauges with lock-free hot paths.
//!
//! A [`MetricRegistry`] hands out cloneable [`Counter`] / [`Gauge`] handles
//! keyed by name. Handles are fetched once at setup time (the registry
//! lookup takes a lock) and then incremented lock-free from any thread —
//! each handle is an `Arc<Atomic*>` shared with the registry, so a
//! [`MetricsSnapshot`] always sees the latest values.
//!
//! Naming convention used across the workspace: `snake_case.dotted` — a
//! lowercase `<subsystem>` prefix, a dot, and a lowercase `snake_case`
//! metric name, e.g. `engine.cache_hits`, `sim.evictions`,
//! `analysis.gap_us` (see the crate-root docs and the README's
//! Observability section). [`is_canonical_metric_name`] is the machine
//! check; the registry debug-asserts it on every registration.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// Monotonic counter. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (queue depth, thread count…).
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.cell.fetch_add(d, Ordering::Relaxed);
    }

    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

enum Cell {
    Counter(Counter),
    Gauge(Gauge),
}

/// Whether `name` follows the workspace metric naming convention:
/// dot-separated lowercase `snake_case` segments with a subsystem prefix
/// (at least two segments), each starting with a letter —
/// `engine.cache_hits` yes, `workerPanics`, `Engine.hits`, or a bare
/// `worker_panics` no.
pub fn is_canonical_metric_name(name: &str) -> bool {
    name.contains('.')
        && name.split('.').all(|seg| {
            seg.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Registry of named metrics. `counter`/`gauge` are get-or-create: two
/// callers asking for the same name share one cell.
#[derive(Default)]
pub struct MetricRegistry {
    cells: Mutex<Vec<(String, Cell)>>,
}

impl MetricRegistry {
    pub fn new() -> MetricRegistry {
        MetricRegistry::default()
    }

    /// Get or create the counter named `name`. Panics if `name` already
    /// names a gauge.
    pub fn counter(&self, name: &str) -> Counter {
        debug_assert!(
            is_canonical_metric_name(name),
            "metric name {name:?} violates the snake_case.dotted convention"
        );
        let mut cells = self.cells.lock().unwrap_or_else(|e| e.into_inner());
        for (n, c) in cells.iter() {
            if n == name {
                match c {
                    Cell::Counter(c) => return c.clone(),
                    Cell::Gauge(_) => panic!("metric {name:?} is registered as a gauge"),
                }
            }
        }
        let counter = Counter::new();
        cells.push((name.to_string(), Cell::Counter(counter.clone())));
        counter
    }

    /// Get or create the gauge named `name`. Panics if `name` already
    /// names a counter.
    pub fn gauge(&self, name: &str) -> Gauge {
        debug_assert!(
            is_canonical_metric_name(name),
            "metric name {name:?} violates the snake_case.dotted convention"
        );
        let mut cells = self.cells.lock().unwrap_or_else(|e| e.into_inner());
        for (n, c) in cells.iter() {
            if n == name {
                match c {
                    Cell::Gauge(g) => return g.clone(),
                    Cell::Counter(_) => panic!("metric {name:?} is registered as a counter"),
                }
            }
        }
        let gauge = Gauge::new();
        cells.push((name.to_string(), Cell::Gauge(gauge.clone())));
        gauge
    }

    /// Current value of a counter, or `None` if no counter has that name.
    /// Convenience for tests and invariant checks.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let cells = self.cells.lock().unwrap_or_else(|e| e.into_inner());
        cells.iter().find_map(|(n, c)| match c {
            Cell::Counter(c) if n == name => Some(c.value()),
            _ => None,
        })
    }

    /// Point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let cells = self.cells.lock().unwrap_or_else(|e| e.into_inner());
        let mut entries: Vec<MetricEntry> = cells
            .iter()
            .map(|(name, cell)| match cell {
                Cell::Counter(c) => MetricEntry {
                    name: name.clone(),
                    kind: "counter".to_string(),
                    value: c.value() as i64,
                },
                Cell::Gauge(g) => MetricEntry {
                    name: name.clone(),
                    kind: "gauge".to_string(),
                    value: g.value(),
                },
            })
            .collect();
        // Names are unique (a name is a counter or a gauge, never both), so
        // the name alone is a total order.
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { entries }
    }
}

/// One metric in a snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricEntry {
    pub name: String,
    pub kind: String,
    pub value: i64,
}

/// Immutable point-in-time view of a registry, sorted by metric name.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct MetricsSnapshot {
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    pub fn get(&self, name: &str) -> Option<i64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.value)
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Plain-text exposition, one `name value` line per metric.
    pub fn to_text(&self) -> String {
        let width = self.entries.iter().map(|e| e.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!("{:<width$}  {}\n", e.name, e.value, width = width));
        }
        out
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot render")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_handles_share_one_cell() {
        let reg = MetricRegistry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter_value("x.hits"), Some(3));
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let reg = MetricRegistry::new();
        let c = reg.counter("x.n");
        thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let reg = MetricRegistry::new();
        reg.counter("b.count").add(7);
        reg.gauge("a.depth").set(-3);
        let snap = reg.snapshot();
        assert_eq!(snap.entries[0].name, "a.depth");
        assert_eq!(snap.entries[0].kind, "gauge");
        assert_eq!(snap.entries[1].name, "b.count");
        assert_eq!(snap.get("b.count"), Some(7));
        assert_eq!(snap.get("a.depth"), Some(-3));
        assert!(snap.to_text().contains("a.depth"));
    }

    #[test]
    #[should_panic(expected = "registered as a gauge")]
    fn name_collision_across_kinds_panics() {
        let reg = MetricRegistry::new();
        reg.gauge("x.v");
        reg.counter("x.v");
    }

    #[test]
    fn canonical_name_check_matches_the_convention() {
        for good in [
            "engine.cache_hits",
            "sim.evictions",
            "analysis.gap_us",
            "a.b.c_2",
        ] {
            assert!(is_canonical_metric_name(good), "{good}");
        }
        for bad in [
            "worker_panics",   // no subsystem prefix
            "Engine.hits",     // uppercase
            "engine.cacheHit", // camelCase
            "engine..hits",    // empty segment
            ".hits",
            "engine.",
            "",
            "engine.2fast", // segment starts with a digit
        ] {
            assert!(!is_canonical_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn snapshot_order_is_independent_of_registration_order() {
        // Regression test for sidecar / BENCH stability: two registries fed
        // the same metrics in different orders (as racing threads would)
        // must render byte-identical snapshots.
        let a = MetricRegistry::new();
        a.counter("engine.fetches").add(3);
        a.gauge("engine.queue_depth").set(2);
        a.counter("engine.retries").add(1);

        let b = MetricRegistry::new();
        b.counter("engine.retries").add(1);
        b.gauge("engine.queue_depth").set(2);
        b.counter("engine.fetches").add(3);

        assert_eq!(a.snapshot().to_json(), b.snapshot().to_json());
        assert_eq!(a.snapshot().to_text(), b.snapshot().to_text());

        let names: Vec<String> = a
            .snapshot()
            .entries
            .iter()
            .map(|e| e.name.clone())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "entries render in sorted-name order");
    }

    #[test]
    fn snapshot_json_parses_back() {
        let reg = MetricRegistry::new();
        reg.counter("engine.fetches").add(5);
        let v: serde_json::Value = serde_json::from_str(&reg.snapshot().to_json()).unwrap();
        assert_eq!(v["entries"][0]["name"].as_str().unwrap(), "engine.fetches");
        assert_eq!(v["entries"][0]["value"].as_i64().unwrap(), 5);
    }
}
