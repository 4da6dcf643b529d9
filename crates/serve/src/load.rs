//! The synthetic load generator behind the `serve.*` regression gates.
//!
//! [`script`] derives a seeded request mix — repeated decks (dedupe and
//! result-cache material), novel decks, priority submissions, paired
//! submit+cancel, one rank-kill spec, and a status probe per phase —
//! and [`run`] drives it through [`Service::run_script`].  Because the
//! script is a pure function of the [`LoadProfile`] and scripted
//! admission is deterministic, every `serve.*` counter and the folded
//! response checksum are exact-gate material.  Host throughput is not
//! measured here; that is `bench/e2e`'s `serve_warm`/`serve_cold`.

use v2d_machine::fault::SplitMix64;
use v2d_machine::FaultKind;
use v2d_obs::Metrics;

use crate::fnv64;
use crate::proto::{FaultSpec, Request, Response, Submit};
use crate::service::{ServeOpts, Service};

/// Shape of one synthetic campaign.
#[derive(Debug, Clone, Copy)]
pub struct LoadProfile {
    /// Seed for the request mix (decks, priorities, cancellations).
    pub seed: u64,
    /// Phases, separated by barriers (later phases hit the result
    /// cache on decks computed earlier).
    pub phases: usize,
    /// Submissions per phase (cancels, the kill spec, and status probes
    /// ride on top).
    pub per_phase: usize,
    /// Include the rank-kill spec in phase 0.
    pub kills: bool,
}

impl LoadProfile {
    /// The regression-gate shape: small enough for a gate step, large
    /// enough that every admission path fires.
    pub fn quick() -> Self {
        LoadProfile { seed: 0x5EED_0009, phases: 3, per_phase: 6, kills: true }
    }
}

/// A small linear-opacity deck.  `novelty > 0` perturbs the second
/// scattering opacity in the ninth decimal — physically irrelevant,
/// but a distinct canonical form, which is exactly what "novel
/// request" means to the content-hashed cache.
pub fn make_deck(
    n1: usize,
    n2: usize,
    steps: usize,
    np1: usize,
    np2: usize,
    every: usize,
    novelty: u64,
) -> String {
    let ks2 = 2.0 + novelty as f64 * 1e-9;
    format!(
        "# synthetic load deck\n[grid]\nn1 = {n1}\nn2 = {n2}\nx1 = 0.0 2.0\nx2 = 0.0 1.0\n\
         [run]\ndt = 0.01\nn_steps = {steps}\nnprx1 = {np1}\nnprx2 = {np2}\n\
         checkpoint_every = {every}\n\
         [radiation]\nlimiter = none\nkappa_a = 0.0 0.0\nkappa_s = 2.0 {ks2}\n"
    )
}

/// The fixed pool of "hot" decks repeated submissions draw from.
fn repeat_pool() -> Vec<String> {
    vec![
        make_deck(16, 8, 3, 1, 1, 0, 0),
        make_deck(16, 8, 4, 1, 1, 0, 0),
        make_deck(20, 10, 3, 1, 1, 0, 0),
        make_deck(24, 12, 3, 1, 1, 0, 0),
    ]
}

/// Derive the request script: a pure function of the profile.
pub fn script(p: &LoadProfile) -> Vec<Request> {
    let mut rng = SplitMix64::new(p.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(9));
    let pool = repeat_pool();
    let mut reqs = Vec::new();
    let mut novelty = 0u64;
    for phase in 0..p.phases {
        if p.kills && phase == 0 {
            // The rank-loss path: 2 ranks, rank 0 killed at step 2,
            // checkpoint every step — recovers by shrinking.
            reqs.push(Request::Submit(Submit {
                id: "kill-0".into(),
                deck: make_deck(16, 8, 4, 2, 1, 1, 0),
                priority: 0,
                faults: vec![FaultSpec { step: 2, rank: Some(0), kind: FaultKind::RankKill }],
            }));
        }
        for i in 0..p.per_phase {
            let id = format!("p{phase}-{i}");
            let roll = rng.next_u64() % 100;
            if roll < 45 {
                // Repeated deck at default priority.
                let deck = pool[(rng.next_u64() % pool.len() as u64) as usize].clone();
                reqs.push(Request::Submit(Submit { id, deck, priority: 0, faults: Vec::new() }));
            } else if roll < 60 {
                // Repeated deck, elevated priority.
                let deck = pool[(rng.next_u64() % pool.len() as u64) as usize].clone();
                let priority = 1 + (rng.next_u64() % 3) as i64;
                reqs.push(Request::Submit(Submit { id, deck, priority, faults: Vec::new() }));
            } else if roll < 85 {
                // Novel deck.
                novelty += 1;
                let deck = make_deck(16, 8, 3, 1, 1, 0, novelty);
                reqs.push(Request::Submit(Submit { id, deck, priority: 0, faults: Vec::new() }));
            } else {
                // Novel deck, cancelled before it can dispatch.
                novelty += 1;
                let deck = make_deck(20, 10, 4, 1, 1, 0, novelty);
                reqs.push(Request::Submit(Submit {
                    id: id.clone(),
                    deck,
                    priority: 0,
                    faults: Vec::new(),
                }));
                reqs.push(Request::Cancel { id: format!("{id}-c"), target: id });
            }
        }
        reqs.push(Request::Status { id: format!("p{phase}-status") });
        reqs.push(Request::Barrier);
    }
    reqs
}

/// Fold the deterministic responses (results, cancel acks, errors —
/// not status snapshots, which carry scheduling telemetry like the
/// queue depth) into a 32-bit checksum, exact-gate material.
pub fn results_checksum(responses: &[Response]) -> u64 {
    let mut text = String::new();
    for r in responses {
        match r {
            Response::Result { .. } | Response::CancelAck { .. } | Response::Error { .. } => {
                text.push_str(&r.to_line());
                text.push('\n');
            }
            _ => {}
        }
    }
    let h = fnv64(text.as_bytes());
    (h >> 32) ^ (h & 0xffff_ffff)
}

/// One finished campaign.
pub struct LoadOutcome {
    /// Non-barrier requests driven.
    pub n_requests: usize,
    pub responses: Vec<Response>,
    /// Final `serve.*` registry snapshot.
    pub metrics: Metrics,
    /// [`results_checksum`] over the responses.
    pub checksum: u64,
}

/// Drive a profile through a fresh scripted service.
pub fn run(p: &LoadProfile, opts: ServeOpts) -> LoadOutcome {
    let script = script(p);
    let n_requests = script.iter().filter(|r| !matches!(r, Request::Barrier)).count();
    let (responses, svc) = Service::run_script(&script, opts);
    let metrics = svc.metrics();
    svc.shutdown();
    let checksum = results_checksum(&responses);
    LoadOutcome { n_requests, responses, metrics, checksum }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_pure_in_the_profile() {
        let p = LoadProfile::quick();
        assert_eq!(script(&p), script(&p));
        let other = LoadProfile { seed: 99, ..p };
        assert_ne!(script(&p), script(&other));
    }

    #[test]
    fn quick_profile_exercises_every_admission_path() {
        let p = LoadProfile::quick();
        let reqs = script(&p);
        let submits = reqs.iter().filter(|r| matches!(r, Request::Submit(_))).count();
        let cancels = reqs.iter().filter(|r| matches!(r, Request::Cancel { .. })).count();
        let kills =
            reqs.iter().filter(|r| matches!(r, Request::Submit(s) if !s.faults.is_empty())).count();
        let prio =
            reqs.iter().filter(|r| matches!(r, Request::Submit(s) if s.priority > 0)).count();
        assert!(submits > 10 && cancels >= 1 && kills == 1 && prio >= 1, "degenerate mix: {submits} submits, {cancels} cancels, {kills} kills, {prio} prioritized");
    }

    #[test]
    fn replayed_campaigns_checksum_identically_and_hit_caches() {
        let p = LoadProfile { seed: 7, phases: 2, per_phase: 4, kills: false };
        let a = run(&p, ServeOpts::default());
        let b = run(&p, ServeOpts::default());
        assert_eq!(a.checksum, b.checksum, "replay must be bit-identical");
        for name in [
            "serve.admitted",
            "serve.deduped",
            "serve.cache.result_hits",
            "serve.scheduled",
            "serve.completed",
            "serve.cancelled",
        ] {
            assert_eq!(a.metrics.counter(name), b.metrics.counter(name), "{name} drifted");
        }
        // Phase 2 resubmits pool decks computed in phase 1: with only 4
        // hot decks and 8 draws, dedupe or the result tier must fire.
        assert!(
            a.metrics.counter("serve.deduped") + a.metrics.counter("serve.cache.result_hits") > 0,
            "the mix must exercise the shared tiers"
        );
    }
}
