//! The always-on rank-kill/recovery fuzz band: seeds sweep supervised
//! scenarios over 0–2 kills × retry budgets × shrink on/off (see
//! `v2d_testkit::supfuzz`), under a real-time watchdog.  Each seed asserts completion-or-typed-error,
//! bit-identical replay of the whole recovery trajectory, and zero-kill
//! bit-identity against the checkpoint cadence.

use std::time::Duration;

use v2d_testkit::check_supervise_seed;

#[test]
fn supervised_recovery_smoke_band_holds_the_three_properties() {
    let mut failures = Vec::new();
    for seed in 0..20u64 {
        if let Err(msg) = check_supervise_seed(seed, Duration::from_secs(60)) {
            failures.push(msg);
        }
    }
    assert!(failures.is_empty(), "supervised fuzz failures:\n{}", failures.join("\n"));
}
