//! The service request-mix fuzz axis: each seed deterministically
//! derives a load campaign (phases × request mix × worker count ×
//! result-cache capacity, occasionally with a rank-kill spec) and
//! drives it through a scripted [`Service`], asserting the service's
//! harness-wide properties:
//!
//! * **replay determinism** — the `"result"` payload of every
//!   never-cancelled submission is byte-identical across replays (the
//!   soundness claim behind result caching: no tier may change an
//!   answer), and on campaigns whose caches never evict, the folded
//!   response checksum and every admission counter replay exactly.
//!   Eviction order is a completion-order race, so which decks still
//!   sit in a too-small cache at the next phase — and therefore the
//!   `source` labels — is deliberately NOT asserted;
//! * **conservation** — every submit is answered exactly once, and the
//!   admitted requests partition exactly into scheduled + deduped +
//!   result-cache hits; the cache inserts at most once per scheduled
//!   job and never beyond its capacity minus evictions;
//! * **cancellation hygiene** — a deck whose only submission was
//!   cancelled is answered `cancelled` and never enters the result
//!   cache: a follow-up submission of the same deck on the same service
//!   must compute it fresh.
//!
//! Small derived cache capacities (2–8 entries) force evictions under
//! concurrent insertion, exercising the shared tier's locking.

use std::collections::{HashMap, HashSet};

use v2d_machine::fault::SplitMix64;
use v2d_serve::load::{results_checksum, script, LoadOutcome, LoadProfile};
use v2d_serve::proto::Source;
use v2d_serve::{Request, Response, ServeOpts, Service, Submit};

/// The counters that are pure functions of the script under gated
/// admission (the same set the bench gate pins).
pub const DETERMINISTIC_COUNTERS: [&str; 12] = [
    "serve.admitted",
    "serve.rejected",
    "serve.deduped",
    "serve.scheduled",
    "serve.completed",
    "serve.failed",
    "serve.cancelled",
    "serve.status_served",
    "serve.cache.result_hits",
    "serve.cache.result_misses",
    "serve.cache.result_insertions",
    "serve.cache.result_evictions",
];

/// Derive the campaign for `seed`.  Pure function of the seed.
pub fn serve_fuzz_case(seed: u64) -> (LoadProfile, ServeOpts) {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93).wrapping_add(7));
    let profile = LoadProfile {
        seed: rng.next_u64(),
        phases: 1 + (rng.next_u64() % 3) as usize,
        per_phase: 3 + (rng.next_u64() % 6) as usize,
        // Rank-kill specs run a full supervised recovery; sample them
        // at low rate so a campaign stays CI-sized.
        kills: rng.next_u64().is_multiple_of(4),
    };
    let opts = ServeOpts {
        workers: 1 + (rng.next_u64() % 4) as usize,
        result_cache_cap: 2 + (rng.next_u64() % 7) as usize,
        ..ServeOpts::default()
    };
    (profile, opts)
}

/// Run one seed's campaign and check every property; `Err` describes
/// the first violated one.  Returns the (replay-verified) outcome so
/// callers can assert coverage across a campaign of seeds.
pub fn check_serve_seed(seed: u64) -> Result<LoadOutcome, String> {
    let (profile, opts) = serve_fuzz_case(seed);
    let reqs = script(&profile);

    let run_once = || {
        let (responses, svc) = Service::run_script(&reqs, opts.clone());
        let metrics = svc.metrics();
        let checksum = results_checksum(&responses);
        let n_requests = reqs.iter().filter(|r| !matches!(r, Request::Barrier)).count();
        (LoadOutcome { n_requests, responses, metrics, checksum }, svc)
    };

    let (first, svc) = run_once();

    // Property: conservation.  One response per non-barrier request, in
    // script order; admitted requests partition into the three paths.
    if first.responses.len() != first.n_requests {
        svc.shutdown();
        return Err(format!(
            "seed {seed}: {} requests but {} responses [{profile:?}]",
            first.n_requests,
            first.responses.len()
        ));
    }
    let m = &first.metrics;
    let (admitted, scheduled, deduped, hits) = (
        m.counter("serve.admitted"),
        m.counter("serve.scheduled"),
        m.counter("serve.deduped"),
        m.counter("serve.cache.result_hits"),
    );
    if admitted != scheduled + deduped + hits {
        svc.shutdown();
        return Err(format!(
            "seed {seed}: admitted {admitted} ≠ scheduled {scheduled} + deduped {deduped} + \
             hits {hits} [{profile:?}]"
        ));
    }
    if m.counter("serve.rejected") != 0 {
        svc.shutdown();
        return Err(format!("seed {seed}: the script generated an invalid deck [{profile:?}]"));
    }
    let (ins, evic) =
        (m.counter("serve.cache.result_insertions"), m.counter("serve.cache.result_evictions"));
    if ins > scheduled || evic > ins || ins - evic > opts.result_cache_cap as u64 {
        svc.shutdown();
        return Err(format!(
            "seed {seed}: cache accounting broken: {ins} insertions, {evic} evictions, \
             capacity {} [{profile:?}]",
            opts.result_cache_cap
        ));
    }

    // Property: cancellation hygiene.  Decks whose only submission was
    // cancelled must compute fresh when resubmitted on the SAME service
    // (the cancelled job must not have populated the result cache).
    let mut deck_of: HashMap<&str, &str> = HashMap::new();
    let mut submits_of_deck: HashMap<&str, usize> = HashMap::new();
    for r in &reqs {
        if let Request::Submit(s) = r {
            deck_of.insert(&s.id, &s.deck);
            *submits_of_deck.entry(&s.deck).or_default() += 1;
        }
    }
    let cancelled_ids: HashSet<&str> = first
        .responses
        .iter()
        .filter_map(|r| match r {
            Response::Result { id, source: Source::Cancelled, .. } => Some(id.as_str()),
            _ => None,
        })
        .collect();
    for (probe, id) in cancelled_ids.iter().enumerate() {
        let deck = deck_of[id];
        if submits_of_deck[deck] > 1 {
            continue; // another subscriber may have kept the job alive
        }
        let resp = svc
            .handle(Request::Submit(Submit {
                id: format!("hygiene-{probe}"),
                deck: deck.to_string(),
                priority: 0,
                faults: Vec::new(),
            }))
            .wait();
        match resp {
            Response::Result { source: Source::Computed, result, .. }
                if result.outcome() == "done" => {}
            other => {
                svc.shutdown();
                return Err(format!(
                    "seed {seed}: cancelled deck `{id}` poisoned the cache: resubmission \
                     answered {} [{profile:?}]",
                    other.to_line()
                ));
            }
        }
    }
    svc.shutdown();

    // Property: replay determinism.
    let (second, svc2) = run_once();
    svc2.shutdown();
    // (a) Payload bytes.  Whatever tier answered — computed, dedup, or
    // result cache — the `"result"` member of a never-cancelled
    // submission must replay byte-identically, because the modeled
    // clocks make every run bit-reproducible.  Cancel-targeted ids are
    // excluded: whether a cancel still finds its target in flight
    // depends on cache state, which evictions make schedule-dependent.
    let cancel_targets: HashSet<&str> = reqs
        .iter()
        .filter_map(|r| match r {
            Request::Cancel { target, .. } => Some(target.as_str()),
            _ => None,
        })
        .collect();
    let payloads = |out: &LoadOutcome| -> HashMap<String, String> {
        out.responses
            .iter()
            .filter_map(|r| match r {
                Response::Result { id, result, .. } if !cancel_targets.contains(id.as_str()) => {
                    Some((id.clone(), result.to_json().to_pretty()))
                }
                _ => None,
            })
            .collect()
    };
    let (pa, pb) = (payloads(&first), payloads(&second));
    if pa != pb {
        let id = pa
            .iter()
            .find(|(k, v)| pb.get(*k) != Some(v))
            .map(|(k, _)| k.clone())
            .unwrap_or_default();
        return Err(format!("seed {seed}: replay changed the payload of `{id}` [{profile:?}]"));
    }
    // (b) On eviction-free campaigns the whole trajectory is a pure
    // function of the script: fold checksum and every gated counter.
    if first.metrics.counter("serve.cache.result_evictions") == 0
        && second.metrics.counter("serve.cache.result_evictions") == 0
    {
        if first.checksum != second.checksum {
            return Err(format!(
                "seed {seed}: replay checksum drift {:#010x} vs {:#010x} [{profile:?}]",
                first.checksum, second.checksum
            ));
        }
        for name in DETERMINISTIC_COUNTERS {
            if first.metrics.counter(name) != second.metrics.counter(name) {
                return Err(format!(
                    "seed {seed}: replay drift in {name}: {} vs {} [{profile:?}]",
                    first.metrics.counter(name),
                    second.metrics.counter(name)
                ));
            }
        }
    }
    Ok(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_campaign_of_seeds_holds_every_property() {
        let mut admitted = 0u64;
        let mut shared = 0u64;
        let mut evictions = 0u64;
        let mut cancels = 0u64;
        for seed in 0..12 {
            let out = check_serve_seed(seed).unwrap_or_else(|e| panic!("{e}"));
            admitted += out.metrics.counter("serve.admitted");
            shared += out.metrics.counter("serve.deduped")
                + out.metrics.counter("serve.cache.result_hits");
            evictions += out.metrics.counter("serve.cache.result_evictions");
            cancels += out.metrics.counter("serve.cancelled");
        }
        // The campaign as a whole must exercise the interesting paths:
        // shared-tier answers, evictions out of the small caches, and
        // cancellations.
        assert!(admitted > 50, "campaign too small: {admitted} admitted");
        assert!(shared > 0, "no dedupe or result-cache traffic");
        assert!(evictions > 0, "no evictions — caches never filled");
        assert!(cancels > 0, "no cancellations sampled");
    }

    #[test]
    fn the_derived_case_is_a_pure_function_of_the_seed() {
        for seed in [0u64, 1, 17, 0xFFFF_FFFF] {
            let (pa, oa) = serve_fuzz_case(seed);
            let (pb, ob) = serve_fuzz_case(seed);
            assert_eq!(format!("{pa:?}"), format!("{pb:?}"));
            assert_eq!(oa.workers, ob.workers);
            assert_eq!(oa.result_cache_cap, ob.result_cache_cap);
        }
    }
}
