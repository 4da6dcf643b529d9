//! The retired thread-per-rank engine's last verdict, frozen.
//!
//! `engine_fingerprints.txt` was generated at the last commit that
//! still carried both rank engines, where the cross-engine equivalence
//! suite vouched that they agree: every line was computed on the event
//! engine and, for every timeout-free case, again on the thread engine
//! with identical values.  (Which waiter a timeout elects was engine
//! policy, so seeds 12, 21, 23, 24 and 30 — the five that time out —
//! pin the event engine alone; the thread engine happened to match on
//! them too when the table was cut.)  Any rewrite of the rank scheduler
//! is held to these bits: final fields, outcomes, fault logs, per-lane
//! virtual clocks and the full trace of every rank.

use v2d_core::problems::Family;
use v2d_obs::trace::{Attr, Event};
use v2d_serve::fnv64;
use v2d_testkit::{fuzz_spec, run_mini_observed, stable, MiniSpec, RankObservation};

const TABLE: &str = include_str!("engine_fingerprints.txt");

fn put(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_event(buf: &mut Vec<u8>, e: &Event) {
    put_str(buf, &e.name);
    put(buf, e.lane as u64);
    put(buf, e.ph as u64);
    put(buf, e.begin_cycles);
    put(buf, e.dur_cycles);
    put(buf, e.attrs.len() as u64);
    for (key, val) in &e.attrs {
        put_str(buf, key);
        match val {
            Attr::U64(x) => {
                put(buf, 0);
                put(buf, *x);
            }
            Attr::I64(x) => {
                put(buf, 1);
                put(buf, *x as u64);
            }
            Attr::F64(x) => {
                put(buf, 2);
                put(buf, x.to_bits());
            }
            Attr::Str(s) => {
                put(buf, 3);
                put_str(buf, s);
            }
            Attr::Bool(b) => {
                put(buf, 4);
                put(buf, u64::from(*b));
            }
        }
    }
}

/// FNV-64 over a length-prefixed little-endian encoding of every rank's
/// stable outcome, final lane clocks and trace.
fn fingerprint(outs: &[RankObservation]) -> u64 {
    let mut buf = Vec::new();
    put(&mut buf, outs.len() as u64);
    for o in outs {
        let run = stable(&o.run);
        put(&mut buf, run.bits.len() as u64);
        for &b in &run.bits {
            put(&mut buf, b);
        }
        put(&mut buf, u64::from(run.recoveries));
        put(&mut buf, run.steps_done as u64);
        match &run.error {
            None => put(&mut buf, 0),
            Some(e) => {
                put(&mut buf, 1);
                put_str(&mut buf, e);
            }
        }
        put(&mut buf, run.log.len() as u64);
        for rec in &run.log {
            put(&mut buf, rec.step);
            put(&mut buf, rec.rank as u64);
            put_str(&mut buf, &rec.what);
        }
        put(&mut buf, o.clock_cycles.len() as u64);
        for &c in &o.clock_cycles {
            put(&mut buf, c);
        }
        put(&mut buf, o.trace.len() as u64);
        for e in &o.trace {
            put_event(&mut buf, e);
        }
    }
    fnv64(&buf)
}

/// The frozen cases: the fuzzer's smoke band plus the four registry
/// families the fuzzer only samples at random.
fn cases() -> Vec<(String, MiniSpec)> {
    let mut cases: Vec<(String, MiniSpec)> =
        (0..32u64).map(|seed| (format!("seed:{seed}"), fuzz_spec(seed))).collect();
    for family in [Family::Sedov, Family::KelvinHelmholtz, Family::RadShock, Family::Multigroup] {
        let spec = MiniSpec::linear(16, 8, 3).tiled(2, 1).with_scenario(family);
        cases.push((format!("family:{family}"), spec));
    }
    cases
}

#[test]
fn rank_engine_reproduces_the_frozen_two_engine_fingerprints() {
    let fresh: String = cases()
        .iter()
        .map(|(name, spec)| format!("{name} {:016x}\n", fingerprint(&run_mini_observed(spec))))
        .collect();
    assert!(
        fresh == TABLE,
        "fingerprints drifted from engine_fingerprints.txt; fresh table:\n{fresh}"
    );
}
