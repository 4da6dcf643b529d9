//! The metrics registry: named counters, gauges, and histograms with a
//! deterministic (sorted-key) serialization.
//!
//! Metric names are `.`-separated paths (`solver.iters`,
//! `mem.bytes.l2`, `comm.msgs`); the registry stores them in a
//! `BTreeMap`, so serialization order never depends on insertion order
//! and two identical runs serialize to identical bytes.

use std::collections::BTreeMap;

use crate::json::Json;

/// Histogram with explicit upper bounds: `counts[i]` holds samples
/// `<= bounds[i]`, `counts[bounds.len()]` the overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub bounds: Vec<f64>,
    pub counts: Vec<u64>,
    pub sum: f64,
    pub n: u64,
}

impl Histogram {
    pub fn new(bounds: Vec<f64>) -> Self {
        let counts = vec![0; bounds.len() + 1];
        Histogram { bounds, counts, sum: 0.0, n: 0 }
    }

    pub fn observe(&mut self, v: f64) {
        let i = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[i] += 1;
        self.sum += v;
        self.n += 1;
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotone count.
    Counter(u64),
    /// Last-set value.
    Gauge(f64),
    /// Bucketed distribution.
    Hist(Histogram),
}

/// The registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    map: BTreeMap<String, Metric>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `delta` to counter `name` (created at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.map.entry(name.to_string()).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += delta,
            other => panic!("metric '{name}' is not a counter: {other:?}"),
        }
    }

    /// Set gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        match self.map.entry(name.to_string()).or_insert(Metric::Gauge(v)) {
            Metric::Gauge(g) => *g = v,
            other => panic!("metric '{name}' is not a gauge: {other:?}"),
        }
    }

    /// Observe `v` in histogram `name` (created with `bounds` on first
    /// use).
    pub fn observe(&mut self, name: &str, bounds: &[f64], v: f64) {
        match self
            .map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Hist(Histogram::new(bounds.to_vec())))
        {
            Metric::Hist(h) => h.observe(v),
            other => panic!("metric '{name}' is not a histogram: {other:?}"),
        }
    }

    /// Look up a metric.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.map.get(name)
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.map.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// All metrics in sorted-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serialize to a JSON object (sorted keys; deterministic).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.map
                .iter()
                .map(|(name, m)| {
                    let v = match m {
                        Metric::Counter(c) => Json::obj(vec![
                            ("type", Json::Str("counter".into())),
                            ("value", Json::Num(*c as f64)),
                        ]),
                        Metric::Gauge(g) => Json::obj(vec![
                            ("type", Json::Str("gauge".into())),
                            ("value", Json::Num(*g)),
                        ]),
                        Metric::Hist(h) => Json::obj(vec![
                            ("type", Json::Str("histogram".into())),
                            ("bounds", Json::Arr(h.bounds.iter().map(|&b| Json::Num(b)).collect())),
                            (
                                "counts",
                                Json::Arr(h.counts.iter().map(|&c| Json::Num(c as f64)).collect()),
                            ),
                            ("sum", Json::Num(h.sum)),
                            ("n", Json::Num(h.n as f64)),
                        ]),
                    };
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrip() {
        let mut m = Metrics::new();
        // Counters accumulate; gauges hold the last value set.
        m.counter_add("solver.iters", 40);
        m.counter_add("solver.iters", 2);
        m.gauge_set("clock.cray_opt_s", 9.0);
        m.gauge_set("clock.cray_opt_s", 1.25);
        m.observe("msg.delay_s", &[0.1, 1.0], 0.05);
        m.observe("msg.delay_s", &[0.1, 1.0], 5.0);
        assert_eq!(m.counter("solver.iters"), 42);
        assert_eq!(m.get("clock.cray_opt_s"), Some(&Metric::Gauge(1.25)));
    }

    #[test]
    fn serialization_order_is_name_sorted() {
        let mut a = Metrics::new();
        a.counter_add("z", 1);
        a.counter_add("a", 1);
        let mut b = Metrics::new();
        b.counter_add("a", 1);
        b.counter_add("z", 1);
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(vec![1.0, 10.0]);
        for v in [0.5, 2.0, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![1, 2, 1]);
        assert_eq!(h.n, 4);
    }
}
