//! End-to-end fault injection through the simulation driver: every
//! fault class must be *detected* and *recovered from*, and an injector
//! over an empty plan must be bit-invisible.
//!
//! Scenario plumbing (mini-sim construction, per-rank outcome
//! collection, log merging) lives in `v2d-testkit`; this file only owns
//! the per-fault-class assertions.

use std::time::Duration;

use v2d_comm::{Spmd, TileMap};
use v2d_core::problems::Family;
use v2d_core::sim::{StepError, V2dSim, MAX_HYDRO_SUBSTEPS};
use v2d_machine::{CompilerProfile, FaultKind, FaultPlan};
use v2d_testkit::{merged_log, run_mini, run_with_watchdog, MiniSpec, RankRun};

/// The canonical 2-rank linear pulse these tests run under `plan`.
fn run_with_plan(plan: Option<FaultPlan>, ranks: usize, steps: usize) -> Vec<RankRun> {
    let mut spec = MiniSpec::linear(16, 8, steps).tiled(ranks, 1);
    if let Some(plan) = plan {
        spec = spec.with_plan(plan);
    }
    run_mini(&spec)
}

#[test]
fn empty_plan_is_bit_identical_to_no_injector() {
    let plain = run_with_plan(None, 2, 3);
    let empty = run_with_plan(Some(FaultPlan::empty()), 2, 3);
    for (rank, (p, e)) in plain.iter().zip(&empty).enumerate() {
        assert_eq!(p.bits, e.bits, "rank {rank}: field bits differ under an empty plan");
        assert_eq!(e.recoveries, 0, "rank {rank}: empty plan must trigger no recoveries");
        assert!(e.log.is_empty(), "rank {rank}: empty plan must log nothing");
    }
}

#[test]
fn field_nan_fault_is_scrubbed_and_the_run_completes() {
    let plan = FaultPlan::empty().with_event(1, Some(0), FaultKind::FieldNan);
    let outs = run_with_plan(Some(plan), 2, 3);
    let log = merged_log(&outs);
    assert!(log.contains("inject field-nan"), "detection missing:\n{log}");
    assert!(log.contains("scrubbed"), "recovery missing:\n{log}");
    let total: u32 = outs.iter().map(|o| o.recoveries).sum();
    assert!(total >= 1, "recoveries must be recorded:\n{log}");
    for (rank, out) in outs.iter().enumerate() {
        for (i, b) in out.bits.iter().enumerate() {
            assert!(f64::from_bits(*b).is_finite(), "rank {rank} cell {i} not finite");
        }
    }
}

#[test]
fn field_inf_fault_is_scrubbed_and_the_run_completes() {
    let plan = FaultPlan::empty().with_event(1, Some(1), FaultKind::FieldInf);
    let outs = run_with_plan(Some(plan), 2, 3);
    let log = merged_log(&outs);
    assert!(log.contains("inject field-inf"), "detection missing:\n{log}");
    assert!(log.contains("scrubbed"), "recovery missing:\n{log}");
    for out in &outs {
        assert!(out.bits.iter().all(|b| f64::from_bits(*b).is_finite()));
    }
}

#[test]
fn injected_solver_breakdown_recovers_in_solver() {
    let plan = FaultPlan::empty().with_event(1, None, FaultKind::SolverBreakdown { count: 1 });
    let outs = run_with_plan(Some(plan), 2, 3);
    let log = merged_log(&outs);
    assert!(log.contains("inject solver-breakdown"), "detection missing:\n{log}");
    assert!(log.contains("restart"), "in-solver restart missing:\n{log}");
    let total: u32 = outs.iter().map(|o| o.recoveries).sum();
    assert!(total >= 1, "solver restarts must surface in the outcome:\n{log}");
}

#[test]
fn dropped_halo_message_times_out_and_holds_stale_ghost() {
    let plan = FaultPlan::empty().with_event(1, Some(0), FaultKind::DropMessage { nth: 0 });
    let outs = run_with_plan(Some(plan), 2, 3);
    let log = merged_log(&outs);
    assert!(log.contains("inject drop-message"), "detection missing:\n{log}");
    assert!(log.contains("holding stale ghost"), "recovery missing:\n{log}");
}

#[test]
fn rank_stall_charges_time_but_completes() {
    let plan = FaultPlan::empty().with_event(1, Some(0), FaultKind::RankStall { secs: 0.75 });
    let outs = run_with_plan(Some(plan), 2, 3);
    let log = merged_log(&outs);
    assert!(log.contains("inject rank-stall"), "detection missing:\n{log}");
    // Collectives synchronize conservatively, so the whole machine ran
    // — nothing more to assert beyond completion and the log.
}

#[test]
fn delayed_message_completes_deterministically() {
    let plan =
        FaultPlan::empty().with_event(1, Some(0), FaultKind::DelayMessage { nth: 0, secs: 0.5 });
    let a = run_with_plan(Some(plan.clone()), 2, 3);
    let b = run_with_plan(Some(plan), 2, 3);
    assert!(merged_log(&a).contains("inject delay-message"), "detection missing");
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.bits, rb.bits, "fault replay must be deterministic");
        assert_eq!(ra.log, rb.log, "fault logs must replay identically");
    }
}

/// A hydro step that could never finish (a vanishing CFL number makes
/// every sub-step negligible) is a typed error on every rank, raised on
/// the same sub-step, instead of a hang.
#[test]
fn a_vanishing_cfl_is_a_typed_step_error_not_a_hang() {
    let verdict = run_with_watchdog(Duration::from_secs(60), || {
        let sc = Family::Sedov.scenario();
        let mut cfg = sc.config(16, 16, 1);
        cfg.hydro.as_mut().expect("sedov runs hydro").cfl = 1e-300;
        Spmd::new(2).with_profiles(vec![CompilerProfile::cray_opt()]).run(move |ctx| {
            let mut sim = V2dSim::new(cfg, &ctx.comm, TileMap::new(16, 16, 2, 1));
            sc.init(&mut sim);
            match sim.try_step(&ctx.comm, &mut ctx.sink) {
                Err(e @ StepError::HydroSubsteps { istep: 0, advanced, .. }) => {
                    Ok((advanced.to_bits(), sim.istep(), e.to_string()))
                }
                other => Err(format!("{other:?}")),
            }
        })
    });
    let outs = verdict.expect_completed("cfl = 1e-300");
    for (rank, out) in outs.iter().enumerate() {
        let (advanced, istep, msg) = out.as_ref().unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        assert_eq!(*istep, 0, "rank {rank}: a failed step must not advance");
        assert_eq!(Some(advanced), outs[0].as_ref().ok().map(|o| &o.0), "ranks disagree");
        let want = format!("hydro exceeded {MAX_HYDRO_SUBSTEPS} CFL sub-steps");
        assert!(msg.contains(&want), "rank {rank}: {msg}");
    }
}
