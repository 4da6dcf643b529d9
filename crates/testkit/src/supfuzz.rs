//! The rank-kill/recovery fuzz axis: each seed deterministically derives
//! a supervised scenario (grid × tiling × 0–2 kills × checkpoint cadence
//! × retry budget × shrink on/off) and asserts the supervisor's
//! harness-wide properties:
//!
//! * **completion or typed error** — `run_supervised` always returns,
//!   either a [`SuperviseReport`] or a typed [`SuperviseError`] carrying
//!   the full recovery ledger; never a hang or a panic;
//! * **bit-identical replay** — the same seed reproduces the same
//!   `Result` (ledger, final fields, decomposition, error) twice in a
//!   row, structurally compared;
//! * **zero-kill bit-identity** — a seed whose plan schedules no kills
//!   makes exactly one attempt with an empty ledger, and its final
//!   fields do not depend on the checkpoint cadence.

use std::path::PathBuf;
use std::time::Duration;

use v2d_core::problems::{Family, GaussianPulse};
use v2d_core::supervise::{run_supervised, RetryPolicy, SuperviseReport, SuperviseSpec};
use v2d_core::SuperviseError;
use v2d_machine::fault::SplitMix64;
use v2d_machine::{FaultKind, FaultPlan};

use crate::fuzz::{GRIDS, TILINGS};
use crate::watchdog::{run_with_watchdog, Verdict};

/// Derive the supervised scenario for `seed`.  Pure function of the
/// seed (plus a process-unique scratch directory, which never affects
/// the trajectory: the supervisor clears it before the first attempt).
pub fn supervise_fuzz_case(seed: u64) -> (SuperviseSpec, RetryPolicy) {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(3));
    let (n1, n2) = GRIDS[(rng.next_u64() % GRIDS.len() as u64) as usize];
    let (np1, np2) = TILINGS[(rng.next_u64() % TILINGS.len() as u64) as usize];
    let steps = 4 + (rng.next_u64() % 3) as usize;
    let n_kills = (rng.next_u64() % 3) as usize; // 0 ⇒ the zero-kill control case
    let mut plan = FaultPlan::empty();
    for i in 0..n_kills {
        let step = rng.next_u64() % steps as u64;
        let rank = (rng.next_u64() % (np1 * np2) as u64) as usize;
        let kind =
            if i.is_multiple_of(2) { FaultKind::RankKill } else { FaultKind::RankStallForever };
        plan = plan.with_event(step, Some(rank), kind);
    }
    let spec = SuperviseSpec {
        cfg: GaussianPulse::linear_config(n1, n2, steps),
        scenario: Family::Gaussian,
        np1,
        np2,
        plan,
        checkpoint_every: (rng.next_u64() % 3) as usize,
        checkpoint_keep: 1 + (rng.next_u64() % 3) as usize,
        dir: scratch_dir(seed, "main"),
    };
    let policy = RetryPolicy {
        max_retries: (rng.next_u64() % 4) as u32,
        backoff_base_secs: 0.5,
        allow_shrink: rng.next_u64().is_multiple_of(2),
    };
    (spec, policy)
}

fn scratch_dir(seed: u64, tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("v2d_supfuzz_{seed}_{tag}_{}", std::process::id()))
}

/// One seed's supervised outcome, checked against every property under
/// the real-time watchdog.  Returns the (replay-verified) outcome.
pub fn check_supervise_seed(
    seed: u64,
    deadline: Duration,
) -> Result<Result<SuperviseReport, SuperviseError>, String> {
    let (spec, policy) = supervise_fuzz_case(seed);
    let run = |spec: SuperviseSpec,
               policy: RetryPolicy|
     -> Verdict<Result<SuperviseReport, SuperviseError>> {
        run_with_watchdog(deadline, move || run_supervised(&spec, policy))
    };
    // Property 1: the supervisor returns — completion or typed error.
    let first = match run(spec.clone(), policy) {
        Verdict::Completed(res) => res,
        Verdict::Panicked(msg) => {
            return Err(format!("seed {seed}: supervised run panicked: {msg} [{spec:?}]"))
        }
        Verdict::TimedOut => {
            return Err(format!("seed {seed}: supervised DEADLOCK (watchdog) [{spec:?}]"))
        }
    };
    // Property 2: bit-identical replay of the whole Result.
    let second = match run(spec.clone(), policy) {
        Verdict::Completed(res) => res,
        other => return Err(format!("seed {seed}: replay did not complete: {other:?}")),
    };
    if first != second {
        return Err(format!(
            "seed {seed}: supervised replay drift [{spec:?}]\nfirst:  {first:?}\nsecond: {second:?}"
        ));
    }
    // Property 3: a kill-free plan is one clean attempt, and its fields
    // are invariant under the checkpoint cadence.
    if spec.plan.events.is_empty() {
        let report = match &first {
            Ok(r) => r,
            Err(e) => return Err(format!("seed {seed}: kill-free run failed: {e} [{spec:?}]")),
        };
        if report.ledger.attempts != 1
            || report.ledger.rollbacks != 0
            || report.ledger.kills != 0
            || !report.ledger.events.is_empty()
        {
            return Err(format!(
                "seed {seed}: kill-free ledger not trivial: {:?} [{spec:?}]",
                report.ledger
            ));
        }
        let control_spec =
            SuperviseSpec { checkpoint_every: 0, dir: scratch_dir(seed, "ctl"), ..spec.clone() };
        let control_dir = control_spec.dir.clone();
        let control = match run(control_spec, policy) {
            Verdict::Completed(Ok(r)) => r,
            other => return Err(format!("seed {seed}: control run failed: {other:?}")),
        };
        let _ = std::fs::remove_dir_all(control_dir);
        if report.final_bits != control.final_bits {
            return Err(format!(
                "seed {seed}: checkpoint cadence changed the final fields [{spec:?}]"
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&spec.dir);
    Ok(first)
}
