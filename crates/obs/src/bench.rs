//! Canonical benchmark reports and the regression-gate comparison.
//!
//! A [`BenchReport`] is a flat map of metric name → ([`f64`] value,
//! unit, [`Gate`]).  The checked-in `bench/baseline.json` is one; a CI
//! run produces a fresh one and [`compare`]s the two:
//!
//! * [`Gate::Exact`] — bit-for-bit equality.  Used for every *modeled*
//!   quantity (virtual clocks, instruction counts, checksums): they are
//!   deterministic functions of the code, so any drift is a real
//!   behaviour change.
//! * [`Gate::Band`] — relative band `|fresh-base| ≤ rel·|base|`.
//!
//! The gate stored in the **baseline** governs the comparison; a fresh
//! report's gates are only carried so it can be promoted to the new
//! baseline verbatim.

use std::collections::BTreeMap;

use crate::json::Json;

/// The `kind` tag of a serialized [`BenchReport`] (a file-format
/// constant: `bench/baseline.json` carries it).
const KIND: &str = "bench_report";

/// Per-metric tolerance policy (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    Exact,
    Band { rel: f64 },
}

impl Gate {
    fn to_json(self) -> Json {
        match self {
            Gate::Exact => Json::obj(vec![("kind", Json::Str("exact".into()))]),
            Gate::Band { rel } => {
                Json::obj(vec![("kind", Json::Str("band".into())), ("rel", Json::Num(rel))])
            }
        }
    }

    fn from_json(v: &Json) -> Result<Gate, String> {
        match v.get("kind").and_then(Json::as_str) {
            Some("exact") => Ok(Gate::Exact),
            Some("band") => v
                .get("rel")
                .and_then(Json::as_f64)
                .map(|rel| Gate::Band { rel })
                .ok_or_else(|| "band gate missing rel".to_string()),
            Some(kind) => Err(format!("unknown gate kind '{kind}'")),
            None => Err("gate missing kind".to_string()),
        }
    }

    /// Does `fresh` pass this gate against `base`?
    pub fn passes(self, base: f64, fresh: f64) -> bool {
        match self {
            Gate::Exact => base.to_bits() == fresh.to_bits(),
            Gate::Band { rel } => (fresh - base).abs() <= rel * base.abs(),
        }
    }

    /// Short policy description for the delta table.
    fn describe(self) -> String {
        match self {
            Gate::Exact => "exact".to_string(),
            Gate::Band { rel } => format!("±{rel:e}"),
        }
    }
}

/// One benchmark entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    pub value: f64,
    pub unit: String,
    pub gate: Gate,
}

/// A canonical set of benchmark numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    pub meta: Vec<(String, String)>,
    pub entries: BTreeMap<String, BenchEntry>,
}

impl BenchReport {
    pub fn new(meta: Vec<(String, String)>) -> Self {
        BenchReport { meta, entries: BTreeMap::new() }
    }

    /// Register one metric.
    pub fn add(&mut self, name: &str, value: f64, unit: &str, gate: Gate) {
        let prev = self
            .entries
            .insert(name.to_string(), BenchEntry { value, unit: unit.to_string(), gate });
        assert!(prev.is_none(), "duplicate bench metric '{name}'");
    }

    /// Serialize (pretty, deterministic: sorted metric names).
    pub fn to_json_string(&self) -> String {
        Json::obj(vec![
            ("schema_version", Json::Num(crate::SCHEMA_VERSION as f64)),
            ("kind", Json::Str(KIND.into())),
            (
                "meta",
                Json::Obj(
                    self.meta.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect(),
                ),
            ),
            (
                "entries",
                Json::Obj(
                    self.entries
                        .iter()
                        .map(|(name, e)| {
                            (
                                name.clone(),
                                Json::obj(vec![
                                    ("value", Json::Num(e.value)),
                                    ("unit", Json::Str(e.unit.clone())),
                                    ("gate", e.gate.to_json()),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .to_pretty()
    }

    /// Parse a serialized report; `Err` explains what was wrong.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let ver =
            doc.get("schema_version").and_then(Json::as_u64).ok_or("missing schema_version")?;
        if ver != crate::SCHEMA_VERSION {
            return Err(format!("schema_version {ver}, expected {}", crate::SCHEMA_VERSION));
        }
        if doc.get("kind").and_then(Json::as_str) != Some(KIND) {
            return Err(format!("kind is not '{KIND}'"));
        }
        let meta = doc
            .get("meta")
            .and_then(Json::as_obj)
            .ok_or("missing meta")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_str().ok_or("non-string meta value")?.to_string())))
            .collect::<Result<_, &str>>()?;
        let mut entries = BTreeMap::new();
        for (name, e) in doc.get("entries").and_then(Json::as_obj).ok_or("missing entries")? {
            let entry = BenchEntry {
                value: e.get("value").and_then(Json::as_f64).ok_or("entry missing value")?,
                unit: e.get("unit").and_then(Json::as_str).ok_or("entry missing unit")?.to_string(),
                gate: e
                    .get("gate")
                    .ok_or_else(|| "missing gate".to_string())
                    .and_then(Gate::from_json)
                    .map_err(|why| format!("entry '{name}': {why}"))?,
            };
            entries.insert(name.clone(), entry);
        }
        Ok(BenchReport { meta, entries })
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    pub name: String,
    pub unit: String,
    pub base: f64,
    pub fresh: f64,
    pub gate: Gate,
    pub ok: bool,
}

/// The outcome of [`compare`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    pub deltas: Vec<Delta>,
    /// Baseline metrics the fresh run did not produce (always failures).
    pub missing: Vec<String>,
    /// Fresh metrics absent from the baseline (schema drift: failures
    /// until the baseline is regenerated).
    pub extra: Vec<String>,
}

impl Comparison {
    /// Did every metric pass?
    pub fn pass(&self) -> bool {
        self.missing.is_empty() && self.extra.is_empty() && self.deltas.iter().all(|d| d.ok)
    }

    /// Number of failing metrics.
    pub fn failures(&self) -> usize {
        self.missing.len() + self.extra.len() + self.deltas.iter().filter(|d| !d.ok).count()
    }

    /// Human-readable delta table.  With `only_failures`, passing rows
    /// are elided (the CI log shows what broke, not 80 green lines).
    pub fn table(&self, only_failures: bool) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>18} {:>18} {:>12} {:>8}  {}\n",
            "metric", "baseline", "current", "delta", "gate", "status"
        ));
        for d in &self.deltas {
            if only_failures && d.ok {
                continue;
            }
            let delta = d.fresh - d.base;
            let rel = if d.base != 0.0 {
                format!(" ({:+.2}%)", 100.0 * delta / d.base)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{:<44} {:>18} {:>18} {:>12}{} {:>8}  {}\n",
                d.name,
                format!("{:.6e}", d.base),
                format!("{:.6e}", d.fresh),
                format!("{:+.3e}", delta),
                rel,
                d.gate.describe(),
                if d.ok { "ok" } else { "FAIL" }
            ));
        }
        for name in &self.missing {
            out.push_str(&format!("{name:<44} missing from current run  FAIL\n"));
        }
        for name in &self.extra {
            out.push_str(&format!(
                "{name:<44} not in baseline (regenerate bench/baseline.json)  FAIL\n"
            ));
        }
        out
    }

    /// GitHub-flavoured markdown table for the CI step summary.
    pub fn markdown(&self) -> String {
        let mut out = String::from(
            "| metric | baseline | current | delta | gate | status |\n|---|---|---|---|---|---|\n",
        );
        for d in &self.deltas {
            if d.ok {
                continue;
            }
            out.push_str(&format!(
                "| `{}` | {:.6e} | {:.6e} | {:+.3e} | {} | ❌ |\n",
                d.name,
                d.base,
                d.fresh,
                d.fresh - d.base,
                d.gate.describe()
            ));
        }
        for name in &self.missing {
            out.push_str(&format!("| `{name}` | — | missing | — | — | ❌ |\n"));
        }
        for name in &self.extra {
            out.push_str(&format!("| `{name}` | not in baseline | — | — | — | ❌ |\n"));
        }
        if self.pass() {
            out.push_str(&format!("| all {} metrics | | | | | ✅ |\n", self.deltas.len()));
        }
        out
    }
}

/// Compare a fresh report against the baseline, gate by gate (the
/// baseline's gates govern).
pub fn compare(base: &BenchReport, fresh: &BenchReport) -> Comparison {
    let mut out = Comparison::default();
    for (name, b) in &base.entries {
        match fresh.entries.get(name) {
            None => out.missing.push(name.clone()),
            Some(f) => out.deltas.push(Delta {
                name: name.clone(),
                unit: b.unit.clone(),
                base: b.value,
                fresh: f.value,
                gate: b.gate,
                ok: b.gate.passes(b.value, f.value),
            }),
        }
    }
    for name in fresh.entries.keys() {
        if !base.entries.contains_key(name) {
            out.extra.push(name.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        let mut r = BenchReport::new(vec![("suite".into(), "test".into())]);
        r.add("modeled/x_s", 0.12345678901234567, "s", Gate::Exact);
        r.add("norm/y", 2.0, "norm", Gate::Band { rel: 1e-9 });
        r.add("speedup/z", 8.0, "x", Gate::Band { rel: 0.5 });
        r
    }

    #[test]
    fn roundtrip_bit_exact() {
        let r = report();
        let back = BenchReport::parse(&r.to_json_string()).expect("parses");
        assert_eq!(back, r);
        // Bit-exactness survives serialization: a round-tripped report
        // compares clean against itself at zero tolerance.
        let cmp = compare(&r, &back);
        assert!(cmp.pass(), "{}", cmp.table(false));
    }

    #[test]
    fn exact_gate_trips_on_one_ulp() {
        let base = report();
        let mut fresh = report();
        let e = fresh.entries.get_mut("modeled/x_s").unwrap();
        e.value = f64::from_bits(e.value.to_bits() + 1);
        let cmp = compare(&base, &fresh);
        assert!(!cmp.pass());
        assert_eq!(cmp.failures(), 1);
        assert!(cmp.table(true).contains("modeled/x_s"));
        assert!(cmp.markdown().contains("modeled/x_s"));
    }

    #[test]
    fn banded_gates() {
        assert!(Gate::Band { rel: 0.1 }.passes(10.0, 10.9));
        assert!(!Gate::Band { rel: 0.1 }.passes(10.0, 11.1));
        assert!(Gate::Band { rel: 0.1 }.passes(-10.0, -9.1));
    }

    #[test]
    fn a_band_is_described_by_its_own_bound() {
        assert_eq!(Gate::Band { rel: 1e-9 }.describe(), "±1e-9");
        assert_eq!(Gate::Band { rel: 0.05 }.describe(), "±5e-2");
        let base = report();
        let mut fresh = report();
        fresh.entries.get_mut("norm/y").unwrap().value = 2.1;
        let cmp = compare(&base, &fresh);
        assert!(cmp.table(true).contains("±1e-9"), "{}", cmp.table(true));
        assert!(cmp.markdown().contains("±1e-9"), "{}", cmp.markdown());
    }

    #[test]
    fn unknown_gate_kind_is_a_parse_error_naming_the_entry() {
        let text = report().to_json_string().replacen("\"band\"", "\"floor\"", 1);
        let err = BenchReport::parse(&text).unwrap_err();
        assert!(err.contains("norm/y") && err.contains("floor"), "{err}");
    }

    #[test]
    fn missing_and_extra_fail() {
        let base = report();
        let mut fresh = report();
        fresh.entries.remove("speedup/z");
        fresh.add("new/metric", 1.0, "s", Gate::Exact);
        let cmp = compare(&base, &fresh);
        assert!(!cmp.pass());
        assert_eq!(cmp.missing, vec!["speedup/z".to_string()]);
        assert_eq!(cmp.extra, vec!["new/metric".to_string()]);
    }

    #[test]
    fn wrong_schema_is_a_readable_error() {
        let text =
            report().to_json_string().replace("\"schema_version\": 1", "\"schema_version\": 2");
        let err = BenchReport::parse(&text).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }
}
