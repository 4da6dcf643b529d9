//! The seeded schedule/fault fuzzer: each seed deterministically derives
//! a mini-simulation (grid × tiling × physics × fault schedule ×
//! recovery policy) and runs it under the watchdog, asserting the three
//! harness-wide properties:
//!
//! * **no deadlock** — every run ends in convergence or a typed error
//!   before the watchdog's real-time deadline;
//! * **bit-identical replay** — the same seed reproduces the same final
//!   field bits, fault log, and outcome, twice in a row;
//! * **zero-fault bit-identity** — a seed whose derived plan has no
//!   events produces exactly the bits of an injector-free run.

use std::time::Duration;

use v2d_core::problems::FAMILIES;
use v2d_core::RecoveryPolicy;
use v2d_machine::fault::SplitMix64;
use v2d_machine::FaultPlan;

use crate::mini::{merged_log, run_mini, MiniSpec, RankRun};
use crate::watchdog::{run_with_watchdog, Verdict};

/// Cut the scheduler-policy-dependent tail off a timeout diagnostic:
/// the blocked-rank snapshot in `Timeout`/`CollectiveTimeout`
/// renderings depends on which waiter the scheduler elects as the
/// reporter.  Everything up to and including " timed out" is a property
/// of the program; replay comparisons use this normalized form (same
/// convention as `ablation_faults`' golden).
pub fn stable_text(what: &str) -> String {
    match what.split_once(" timed out") {
        Some((head, _)) => format!("{head} timed out …"),
        None => what.to_string(),
    }
}

/// A [`RankRun`] with timeout diagnostics normalized for bit-exact
/// replay comparison.
pub fn stable(run: &RankRun) -> RankRun {
    let mut out = run.clone();
    out.error = out.error.map(|e| stable_text(&e));
    for rec in &mut out.log {
        rec.what = stable_text(&rec.what);
    }
    out
}

/// Grids the fuzzer samples from: small enough for CI, varied enough to
/// hit uneven tile splits in both directions.
pub(crate) const GRIDS: &[(usize, usize)] = &[(16, 8), (24, 12), (12, 12), (20, 10), (8, 16)];

/// Rank tilings: single rank, both strip orientations, and a 2×2 square.
pub(crate) const TILINGS: &[(usize, usize)] = &[(1, 1), (2, 1), (1, 2), (2, 2)];

/// Derive the scenario for `seed`.  Pure function of the seed: the
/// replay property leans on this.
pub fn fuzz_spec(seed: u64) -> MiniSpec {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
    let (n1, n2) = GRIDS[(rng.next_u64() % GRIDS.len() as u64) as usize];
    let (np1, np2) = TILINGS[(rng.next_u64() % TILINGS.len() as u64) as usize];
    let steps = 3 + (rng.next_u64() % 3) as usize;
    let nonlinear = rng.next_u64().is_multiple_of(2);
    let n_events = (rng.next_u64() % 4) as usize; // 0 ⇒ a zero-fault control case
    let base = if nonlinear {
        MiniSpec::nonlinear(n1, n2, steps)
    } else {
        MiniSpec::linear(n1, n2, steps)
    };
    let mut spec = base.tiled(np1, np2);
    if n_events > 0 {
        let plan = FaultPlan::campaign(seed, steps as u64, spec.ranks(), n_events);
        spec = spec.with_plan(plan);
    }
    let mut spec =
        spec.with_policy(RecoveryPolicy { max_dt_halvings: 1 + (rng.next_u64() % 3) as u32 });
    // Scenario axis, drawn *last* so every pre-registry seed derives the
    // exact same spec it always did up to this point.  Half the seeds
    // keep the legacy pulse pair; the other half drive one of the
    // registry families (config + init swapped in, fault plan and
    // policy unchanged).
    let draw = rng.next_u64() % (2 * FAMILIES.len() as u64);
    if let Some(family) = FAMILIES.get(draw as usize) {
        spec = spec.with_scenario(*family);
    }
    spec
}

/// One seed's outcome, or a message describing which property failed.
/// Every run sits under the real-time watchdog: a deadlocked schedule
/// is supposed to come back as a typed
/// [`v2d_comm::CommError::Deadlock`], and the watchdog is what turns a
/// scheduler bug that hangs instead into a named failing seed.
pub fn check_seed(seed: u64, deadline: Duration) -> Result<Vec<RankRun>, String> {
    let spec = fuzz_spec(seed);
    let run = |spec: MiniSpec| run_with_watchdog(deadline, move || run_mini(&spec));
    let first = match run(spec.clone()) {
        Verdict::Completed(outs) => outs,
        Verdict::Panicked(msg) => {
            return Err(format!("seed {seed}: run panicked: {msg} [{spec:?}]"))
        }
        Verdict::TimedOut => return Err(format!("seed {seed}: DEADLOCK (watchdog) [{spec:?}]")),
    };
    // Every rank must either converge or end in a typed error.
    for (rank, out) in first.iter().enumerate() {
        if out.error.is_none() && out.steps_done != spec.steps {
            return Err(format!(
                "seed {seed}: rank {rank} stopped at step {} of {} without an error [{spec:?}]",
                out.steps_done, spec.steps
            ));
        }
    }
    // Replay must be bit-identical (fields, logs, outcomes).
    let second = match run(spec.clone()) {
        Verdict::Completed(outs) => outs,
        Verdict::Panicked(msg) => {
            return Err(format!("seed {seed}: replay panicked: {msg} [{spec:?}]"))
        }
        Verdict::TimedOut => {
            return Err(format!("seed {seed}: replay DEADLOCK (watchdog) [{spec:?}]"))
        }
    };
    let (a, b): (Vec<RankRun>, Vec<RankRun>) =
        (first.iter().map(stable).collect(), second.iter().map(stable).collect());
    if a != b {
        return Err(format!(
            "seed {seed}: replay drift [{spec:?}]\nfirst log:\n{}\nsecond log:\n{}",
            merged_log(&first),
            merged_log(&second)
        ));
    }
    // A zero-fault plan must be bit-invisible next to no injector at all.
    if spec.plan.as_ref().is_none_or(|p| p.events.is_empty()) {
        let bare = MiniSpec { plan: None, ..spec.clone() };
        let control = match run(bare) {
            Verdict::Completed(outs) => outs,
            other => return Err(format!("seed {seed}: control run failed: {other:?}")),
        };
        for (rank, (a, b)) in first.iter().zip(&control).enumerate() {
            if a.bits != b.bits {
                return Err(format!(
                    "seed {seed}: rank {rank}: zero-fault run differs from injector-free bits \
                     [{spec:?}]"
                ));
            }
        }
    }
    Ok(first)
}

/// Check `seeds` sequentially, collecting every failing seed with its
/// diagnosis.  Runs stay sequential on purpose: wall-clock budgeting
/// is per case, and a case's ranks run one at a time whatever carries
/// them.
pub fn campaign(seeds: impl IntoIterator<Item = u64>, deadline: Duration) -> Vec<(u64, String)> {
    let mut failures = Vec::new();
    for seed in seeds {
        if let Err(msg) = check_seed(seed, deadline) {
            failures.push((seed, msg));
        }
    }
    failures
}
