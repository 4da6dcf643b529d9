//! End-to-end supervised recovery: a rank killed mid-run is detected as
//! typed peer death, the supervisor rolls back to the newest checkpoint,
//! shrinks onto the survivors, and the run completes — with a
//! bit-identical recovery ledger and final fields on every replay.

use std::path::PathBuf;

use v2d_core::problems::{Family, GaussianPulse};
use v2d_core::{run_supervised, RetryPolicy, SuperviseError, SuperviseSpec};
use v2d_machine::{FaultKind, FaultPlan};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("v2d_supervise_{tag}_{}", std::process::id()))
}

/// The pinned scenario: 24×12 zones on 2×1 ranks, five steps,
/// checkpoint after every step.
fn pinned_spec(tag: &str, plan: FaultPlan, checkpoint_every: usize) -> SuperviseSpec {
    SuperviseSpec {
        cfg: GaussianPulse::linear_config(24, 12, 5),
        scenario: Family::Gaussian,
        np1: 2,
        np2: 1,
        plan,
        checkpoint_every,
        checkpoint_keep: 4,
        dir: temp_dir(tag),
    }
}

#[test]
fn rank_kill_recovers_via_rollback_and_shrink() {
    let plan = FaultPlan::empty().with_event(2, Some(0), FaultKind::RankKill);
    let spec = pinned_spec("pin", plan, 1);
    let report = run_supervised(&spec, RetryPolicy::default()).expect("run must recover");

    assert_eq!(report.ledger.kills, 1);
    assert_eq!(report.ledger.rollbacks, 1);
    assert_eq!(report.ledger.redecompositions, 1);
    assert_eq!(report.ledger.attempts, 2);
    // Checkpoint cadence 1 means the newest checkpoint sits exactly at
    // the kill step: nothing to replay, only backoff in the MTTR.
    assert_eq!(report.ledger.steps_replayed, 0);
    assert!((report.ledger.backoff_virtual_secs - 1.0).abs() < 1e-12);
    assert!((report.mttr_virtual_secs - 1.0).abs() < 1e-12);
    assert_eq!(report.final_np, (1, 1), "one survivor => 1x1 decomposition");
    assert!(!report.final_bits.is_empty());
    assert!(report.final_bits.iter().all(|b| f64::from_bits(*b).is_finite()));
    let events = report.ledger.events.join("\n");
    assert!(events.contains("rank 0 lost (rank-kill) at step 2"), "ledger:\n{events}");
    assert!(events.contains("shrink 2x1 -> 1x1"), "ledger:\n{events}");

    // Bit-identical replay: same spec, same policy, same trajectory.
    let replay = run_supervised(&spec, RetryPolicy::default()).expect("replay must recover");
    assert_eq!(report, replay, "recovery trajectory must replay bit-identically");
}

#[test]
fn shrink_keeps_hydro_tiles_at_least_two_zones_wide() {
    // Sod on a 4×4 grid at 2×2 loses rank 3.  Three survivors would tile
    // as 3×1 with one-zone-wide tiles, too narrow for the two-deep hydro
    // ghosts; the supervisor must shrink to 2×1 and finish.
    let plan = FaultPlan::empty().with_event(1, Some(3), FaultKind::RankKill);
    let spec = SuperviseSpec {
        cfg: Family::Sod.scenario().config(4, 4, 3),
        scenario: Family::Sod,
        np1: 2,
        np2: 2,
        plan,
        checkpoint_every: 1,
        checkpoint_keep: 2,
        dir: temp_dir("narrow"),
    };
    let report = run_supervised(&spec, RetryPolicy::default()).expect("run must recover");
    assert_eq!(report.final_np, (2, 1));
    let events = report.ledger.events.join("\n");
    assert!(events.contains("shrink 2x2 -> 2x1"), "ledger:\n{events}");
    assert!(report.final_bits.iter().all(|b| f64::from_bits(*b).is_finite()));
}

#[test]
fn stall_forever_recovers_without_checkpoints_by_restarting() {
    // No checkpoints: the rollback target is the initial condition, so
    // every completed step is replayed.
    let plan = FaultPlan::empty().with_event(3, Some(1), FaultKind::RankStallForever);
    let spec = pinned_spec("nock", plan, 0);
    let report = run_supervised(&spec, RetryPolicy::default()).expect("run must recover");

    assert_eq!(report.ledger.kills, 1);
    assert_eq!(report.ledger.rollbacks, 1);
    assert_eq!(report.ledger.steps_replayed, 3, "restart replays every completed step");
    let events = report.ledger.events.join("\n");
    assert!(events.contains("rank 1 lost (rank-stall-forever) at step 3"), "ledger:\n{events}");
    assert!(events.contains("rollback to step 0"), "ledger:\n{events}");
}

#[test]
fn shrink_disabled_relaunches_at_full_width() {
    let plan = FaultPlan::empty().with_event(2, Some(0), FaultKind::RankKill);
    let spec = pinned_spec("wide", plan, 1);
    let policy = RetryPolicy { allow_shrink: false, ..RetryPolicy::default() };
    let report = run_supervised(&spec, policy).expect("run must recover");

    assert_eq!(report.ledger.kills, 1);
    assert_eq!(report.ledger.rollbacks, 1);
    assert_eq!(report.ledger.redecompositions, 0, "shrink disabled");
    assert_eq!(report.final_np, (2, 1), "replacement-node semantics keep the width");
}

#[test]
fn exhausted_retry_budget_returns_the_full_ledger() {
    let plan = FaultPlan::empty().with_event(2, Some(0), FaultKind::RankKill);
    let spec = pinned_spec("budget", plan, 1);
    let policy = RetryPolicy { max_retries: 0, ..RetryPolicy::default() };
    match run_supervised(&spec, policy) {
        Err(SuperviseError::RetriesExhausted { ledger, last_error }) => {
            assert_eq!(ledger.attempts, 1);
            assert_eq!(ledger.kills, 1);
            assert_eq!(ledger.rollbacks, 0, "budget of zero permits no rollback");
            assert!(last_error.contains("rank 0 lost (rank-kill) at step 2"), "{last_error}");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

#[test]
fn kill_free_supervision_is_one_attempt_and_cadence_invariant() {
    let a = run_supervised(&pinned_spec("clean_a", FaultPlan::empty(), 0), RetryPolicy::default())
        .expect("clean run");
    let b = run_supervised(&pinned_spec("clean_b", FaultPlan::empty(), 2), RetryPolicy::default())
        .expect("clean run");

    for r in [&a, &b] {
        assert_eq!(r.ledger.attempts, 1);
        assert_eq!(r.ledger.rollbacks, 0);
        assert_eq!(r.ledger.kills, 0);
        assert!(r.ledger.events.is_empty());
        assert_eq!(r.mttr_virtual_secs, 0.0);
    }
    assert_eq!(a.final_bits, b.final_bits, "checkpoint cadence must be bit-invisible");
}

#[test]
fn rollback_of_a_coupled_run_restores_the_gas_temperature() {
    // Marshak evolves the gas temperature alongside radiation; a
    // rollback that restored only the radiation would restart the gas
    // from its initial condition and finish on different fields.
    let spec = |tag: &str, plan: FaultPlan| SuperviseSpec {
        cfg: Family::Marshak.scenario().config(8, 8, 12),
        scenario: Family::Marshak,
        np1: 2,
        np2: 1,
        plan,
        checkpoint_every: 1,
        checkpoint_keep: 2,
        dir: temp_dir(tag),
    };
    let policy = RetryPolicy { allow_shrink: false, ..RetryPolicy::default() };
    let healthy = run_supervised(&spec("marshak_ok", FaultPlan::empty()), policy)
        .expect("healthy run completes");
    let plan = FaultPlan::empty().with_event(4, Some(0), FaultKind::RankKill);
    let killed = run_supervised(&spec("marshak_kill", plan), policy).expect("run must recover");

    let events = killed.ledger.events.join("\n");
    assert!(events.contains("rollback to step 4"), "ledger:\n{events}");
    assert_eq!(healthy.final_bits.len(), 2 * 8 * 8);
    assert_eq!(killed.final_bits, healthy.final_bits, "rollback must resume the same trajectory");
}

/// A failure no relaunch can change on a fault-free plan — a hydro step
/// that can never finish, or a flow that blows up — ends the run at once
/// instead of being replayed through the whole retry budget.
#[test]
fn a_failure_with_no_rank_lost_is_unrecoverable_at_once() {
    let sc = Family::Sedov.scenario();
    for (tag, n, cfl, gamma, want) in [
        ("cfl", 4, 1e-300, 1.4, "hydro exceeded"),
        ("gamma", 12, 0.4, 1e300, "unphysical hydro state"),
    ] {
        let mut cfg = sc.config(n, n, 2);
        let hydro = cfg.hydro.as_mut().expect("sedov runs hydro");
        (hydro.cfl, hydro.gamma) = (cfl, gamma);
        let spec = SuperviseSpec {
            cfg,
            scenario: Family::Sedov,
            np1: 2,
            np2: 1,
            plan: FaultPlan::empty(),
            checkpoint_every: 1,
            checkpoint_keep: 2,
            dir: temp_dir(tag),
        };
        match run_supervised(&spec, RetryPolicy::default()) {
            Err(SuperviseError::Unrecoverable { ledger, reason }) => {
                assert_eq!(ledger.attempts, 1, "{tag}");
                assert_eq!(ledger.rollbacks, 0, "{tag}");
                assert_eq!(ledger.kills, 0, "{tag}");
                assert_eq!(ledger.backoff_virtual_secs, 0.0, "{tag}");
                assert!(reason.contains(want), "{tag}: {reason}");
            }
            other => panic!("{tag}: expected Unrecoverable, got {other:?}"),
        }
    }
}
