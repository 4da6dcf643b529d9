//! The seeded schedule/fault fuzzer, in two sizes: an always-on smoke
//! band, and the `#[ignore]`d full campaign the scheduled CI job runs
//! (≥ 200 scenarios, wall-clock bounded per case by the watchdog).
//!
//! A failure names the seed — reproduce locally with
//! `v2d_testkit::check_seed(seed, ...)`; the derived spec is printed in
//! the diagnosis.

use std::time::Duration;

use v2d_testkit::{campaign, fuzz_spec};

/// Per-case real-time budget.  Generous: a case is a few steps of a
/// ≤ 24×12 mini-sim, milliseconds when healthy; the budget only matters
/// when a scenario hangs, and then the campaign eats it once per
/// failing seed.
const CASE_DEADLINE: Duration = Duration::from_secs(60);

fn report(failures: &[(u64, String)]) -> String {
    failures.iter().map(|(_, msg)| msg.as_str()).collect::<Vec<_>>().join("\n---\n")
}

#[test]
fn fuzz_smoke_band_is_deadlock_free_and_replays() {
    let failures = campaign(0..32, CASE_DEADLINE);
    assert!(failures.is_empty(), "{} failing seed(s):\n{}", failures.len(), report(&failures));
}

#[test]
fn fuzz_spec_is_a_pure_function_of_the_seed() {
    for seed in 0..64 {
        let a = format!("{:?}", fuzz_spec(seed));
        let b = format!("{:?}", fuzz_spec(seed));
        assert_eq!(a, b, "seed {seed} derived two different scenarios");
    }
}

/// The full campaign: 200 seeded scenarios across grids × tilings ×
/// fault schedules × recovery policies.  Scheduled-CI only; run with
/// `cargo test -p v2d-testkit -- --ignored`.
#[test]
#[ignore = "slow: 200-scenario campaign for the scheduled CI job"]
fn fuzz_full_campaign_200_scenarios() {
    let failures = campaign(0..200, CASE_DEADLINE);
    assert!(failures.is_empty(), "{} failing seed(s):\n{}", failures.len(), report(&failures));
}
