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

    /// Fold a rank-scheduler launch snapshot into the registry under
    /// the `sched.*` namespace: `dispatches` (rank hand-offs) and
    /// `quiescences` (empty-ready-queue resolutions: exact timeouts or
    /// deadlock verdicts).  Both are schedule-deterministic, so reports
    /// carrying them gate bit-for-bit like any modeled quantity.
    pub fn record_sched(&mut self, dispatches: u64, quiescences: u64) {
        self.counter_add("sched.dispatches", dispatches);
        self.counter_add("sched.quiescences", quiescences);
    }

    /// Fold a superinstruction-fusion snapshot into the registry under
    /// the `sve.fuse.*` namespace: `chains` (fused chains formed at
    /// decode), `fused_ops` (dynamic instructions executed inside fused
    /// chains), and `total_ops` (all dynamic instructions of the same
    /// runs).  All three are decode/schedule-deterministic, so reports
    /// carrying them gate exactly like any modeled quantity.
    pub fn record_fuse(&mut self, chains: u64, fused_ops: u64, total_ops: u64) {
        self.counter_add("sve.fuse.chains", chains);
        self.counter_add("sve.fuse.fused_ops", fused_ops);
        self.counter_add("sve.fuse.total_ops", total_ops);
    }

    /// Fold a run supervisor's recovery ledger into the registry under
    /// the `supervise.*` namespace: counters for kills observed,
    /// rollback cycles, shrinking re-decompositions, steps replayed,
    /// and launches made, plus gauges for the accumulated virtual
    /// backoff and the virtual-time MTTR.  The whole ledger is a pure
    /// function of spec × policy × fault plan, so reports carrying it
    /// gate bit-for-bit like any modeled quantity.
    #[allow(clippy::too_many_arguments)]
    pub fn record_supervise(
        &mut self,
        kills: u64,
        rollbacks: u64,
        redecompositions: u64,
        steps_replayed: u64,
        attempts: u64,
        backoff_secs: f64,
        mttr_secs: f64,
    ) {
        self.counter_add("supervise.kills", kills);
        self.counter_add("supervise.rollbacks", rollbacks);
        self.counter_add("supervise.redecompositions", redecompositions);
        self.counter_add("supervise.steps_replayed", steps_replayed);
        self.counter_add("supervise.attempts", attempts);
        self.gauge_set("supervise.backoff_s", backoff_secs);
        self.gauge_set("supervise.mttr_s", mttr_secs);
    }

    /// Fold one problem-family validation report into the registry
    /// under the `scenario.<family>.*` namespace: the three relative
    /// error norms as gauges plus a 0/1 pass counter.  On modeled
    /// clocks every norm is a pure function of the scenario coordinates,
    /// so reports carrying them gate like any modeled quantity.
    pub fn record_scenario(&mut self, family: &str, l1: f64, l2: f64, linf: f64, pass: bool) {
        self.gauge_set(&format!("scenario.{family}.l1"), l1);
        self.gauge_set(&format!("scenario.{family}.l2"), l2);
        self.gauge_set(&format!("scenario.{family}.linf"), linf);
        self.counter_add(&format!("scenario.{family}.pass"), pass as u64);
    }

    /// Fold a service-layer admission snapshot into the registry under
    /// the `serve.*` namespace: requests admitted, rejected at parse,
    /// deduped onto an in-flight job, served from the memoized result
    /// cache, scheduled as fresh jobs, completed, failed, and
    /// subscriber cancellations.  Under the scripted (gated) admission
    /// mode every one of these is a pure function of the request
    /// script, so reports carrying them gate bit-for-bit.
    #[allow(clippy::too_many_arguments)]
    pub fn record_serve(
        &mut self,
        admitted: u64,
        rejected: u64,
        deduped: u64,
        result_hits: u64,
        scheduled: u64,
        completed: u64,
        failed: u64,
        cancelled: u64,
    ) {
        self.counter_add("serve.admitted", admitted);
        self.counter_add("serve.rejected", rejected);
        self.counter_add("serve.deduped", deduped);
        self.counter_add("serve.cache.result_hits", result_hits);
        self.counter_add("serve.scheduled", scheduled);
        self.counter_add("serve.completed", completed);
        self.counter_add("serve.failed", failed);
        self.counter_add("serve.cancelled", cancelled);
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

    /// Rebuild from [`Metrics::to_json`] output.
    pub fn from_json(v: &Json) -> Option<Metrics> {
        let mut out = Metrics::new();
        for (name, m) in v.as_obj()? {
            let metric = match m.get("type")?.as_str()? {
                "counter" => Metric::Counter(m.get("value")?.as_u64()?),
                "gauge" => Metric::Gauge(m.get("value")?.as_f64()?),
                "histogram" => Metric::Hist(Histogram {
                    bounds: m
                        .get("bounds")?
                        .as_arr()?
                        .iter()
                        .map(|b| b.as_f64())
                        .collect::<Option<_>>()?,
                    counts: m
                        .get("counts")?
                        .as_arr()?
                        .iter()
                        .map(|c| c.as_u64())
                        .collect::<Option<_>>()?,
                    sum: m.get("sum")?.as_f64()?,
                    n: m.get("n")?.as_u64()?,
                }),
                _ => return None,
            };
            out.map.insert(name.clone(), metric);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrip() {
        let mut m = Metrics::new();
        m.counter_add("solver.iters", 42);
        m.gauge_set("clock.cray_opt_s", 1.25);
        m.observe("msg.delay_s", &[0.1, 1.0], 0.05);
        m.observe("msg.delay_s", &[0.1, 1.0], 5.0);
        let j = m.to_json();
        assert_eq!(Metrics::from_json(&j).unwrap(), m);
        assert_eq!(m.counter("solver.iters"), 42);
    }

    #[test]
    fn sched_snapshot_lands_in_its_namespace_and_accumulates() {
        let mut m = Metrics::new();
        m.record_sched(120, 2);
        m.record_sched(30, 0);
        assert_eq!(m.counter("sched.dispatches"), 150);
        assert_eq!(m.counter("sched.quiescences"), 2);
    }

    #[test]
    fn fuse_snapshot_lands_in_its_namespace_and_accumulates() {
        let mut m = Metrics::new();
        m.record_fuse(7, 700, 900);
        m.record_fuse(1, 50, 100);
        assert_eq!(m.counter("sve.fuse.chains"), 8);
        assert_eq!(m.counter("sve.fuse.fused_ops"), 750);
        assert_eq!(m.counter("sve.fuse.total_ops"), 1000);
    }

    #[test]
    fn supervise_ledger_lands_in_its_namespace() {
        let mut m = Metrics::new();
        m.record_supervise(1, 1, 1, 3, 2, 1.0, 1.15);
        m.record_supervise(0, 1, 0, 2, 1, 0.5, 0.0);
        assert_eq!(m.counter("supervise.kills"), 1);
        assert_eq!(m.counter("supervise.rollbacks"), 2);
        assert_eq!(m.counter("supervise.redecompositions"), 1);
        assert_eq!(m.counter("supervise.steps_replayed"), 5);
        assert_eq!(m.counter("supervise.attempts"), 3);
        // Gauges hold the latest snapshot, not a sum.
        assert_eq!(m.get("supervise.backoff_s"), Some(&Metric::Gauge(0.5)));
        assert_eq!(m.get("supervise.mttr_s"), Some(&Metric::Gauge(0.0)));
    }

    #[test]
    fn scenario_report_lands_in_its_namespace() {
        let mut m = Metrics::new();
        m.record_scenario("sedov", 1e-14, 2e-14, 3.4e-3, true);
        m.record_scenario("sod", 1.4e-2, 2.0e-2, 0.4, false);
        assert_eq!(m.get("scenario.sedov.l2"), Some(&Metric::Gauge(2e-14)));
        assert_eq!(m.counter("scenario.sedov.pass"), 1);
        assert_eq!(m.get("scenario.sod.linf"), Some(&Metric::Gauge(0.4)));
        assert_eq!(m.counter("scenario.sod.pass"), 0);
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
