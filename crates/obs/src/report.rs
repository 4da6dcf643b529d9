//! The versioned per-run report: metadata, per-step snapshots, and the
//! final metrics registry.
//!
//! Schema (version [`crate::SCHEMA_VERSION`]):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "kind": "run_report",
//!   "meta":  { "problem": "gaussian-pulse", ... },
//!   "steps": [ { "step": 0, "values": { "iters": 24, ... } }, ... ],
//!   "totals": { "solver.iters": {"type":"counter","value":288}, ... }
//! }
//! ```
//!
//! Step snapshots are flat name → number maps (sorted keys); run-wide
//! aggregates live in the [`Metrics`] registry under `totals`.  All
//! numbers are modeled (virtual-clock) quantities, so a report is a
//! deterministic function of the configuration and fault plan.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::Metrics;

/// One step's snapshot: flat named values (sorted on serialization).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepRecord {
    pub step: u64,
    pub values: BTreeMap<String, f64>,
}

/// The run report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    pub meta: Vec<(String, String)>,
    pub steps: Vec<StepRecord>,
    pub totals: Metrics,
}

impl RunReport {
    /// A fresh report with `meta` key/value context.
    pub fn new(meta: Vec<(String, String)>) -> Self {
        RunReport { meta, steps: Vec::new(), totals: Metrics::new() }
    }

    /// Append one step snapshot.
    pub fn record_step(&mut self, step: u64, values: BTreeMap<String, f64>) {
        self.steps.push(StepRecord { step, values });
    }

    /// Serialize (pretty, deterministic).
    pub fn to_json_string(&self) -> String {
        Json::obj(vec![
            ("schema_version", Json::Num(crate::SCHEMA_VERSION as f64)),
            ("kind", Json::Str("run_report".into())),
            (
                "meta",
                Json::Obj(
                    self.meta.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect(),
                ),
            ),
            (
                "steps",
                Json::Arr(
                    self.steps
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("step", Json::Num(s.step as f64)),
                                (
                                    "values",
                                    Json::Obj(
                                        s.values
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("totals", self.totals.to_json()),
        ])
        .to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrip_and_determinism() {
        let mut r = RunReport::new(vec![("problem".into(), "gauss".into())]);
        let mut v = BTreeMap::new();
        v.insert("iters".to_string(), 24.0);
        v.insert("clock.cray_opt_s".to_string(), 0.1234567890123456);
        r.record_step(0, v);
        r.totals.counter_add("solver.iters", 24);
        let text = r.to_json_string();
        assert_eq!(text, r.to_json_string());
    }
}
