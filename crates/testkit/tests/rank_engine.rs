//! Typed-verdict contracts of the rank engine at mini-sim scale: rank
//! death, the registry families, and exact deadlock detection.  (The
//! bit-level contract — fields, clocks, traces — is frozen separately
//! in `engine_fingerprint.rs`.)

use v2d_comm::{CommError, Spmd, WaitOn};
use v2d_machine::{CompilerProfile, FaultKind, FaultPlan};
use v2d_testkit::{run_mini_observed, MiniSpec};

/// Every post-registry scenario family at a small multi-rank tiling
/// converges, and replays bit-for-bit: final field bits (radiation
/// *and*, where the family carries one, the conserved hydro state
/// appended by the mini harness), virtual clocks, and traces.  The fuzz
/// band samples families at random; this pins each new one
/// deterministically so a divergence names the family, not a seed.
#[test]
fn registry_scenarios_converge_and_replay_bit_identically() {
    use v2d_core::problems::Family;
    for family in [Family::Sedov, Family::KelvinHelmholtz, Family::RadShock, Family::Multigroup] {
        let spec = MiniSpec::linear(16, 8, 3).tiled(2, 1).with_scenario(family);
        let run = run_mini_observed(&spec);
        let replay = run_mini_observed(&spec);
        assert_eq!(run.len(), spec.ranks(), "{family}: rank count");
        for (rank, (a, b)) in run.iter().zip(&replay).enumerate() {
            assert!(a.run.converged(&spec), "{family}: rank {rank} did not converge");
            assert_eq!(a, b, "{family}: rank {rank} observation diverges on replay");
        }
    }
}

/// A rank killed by its fault plan surfaces typed verdicts: the victim
/// reports `StepError::Lost`, the survivor's wait on the dead peer
/// resolves into a typed `CommError::RankDead` through the scheduler's
/// dead-rank registry — no deadline involved.  Death charges no virtual
/// time, so clocks and traces replay bit-identically too.
#[test]
fn rank_kill_produces_typed_death() {
    // Two ranks: the survivor observes the victim directly, so the
    // verdict does not depend on cascade ordering.
    let plan = FaultPlan::empty().with_event(2, Some(0), FaultKind::RankKill);
    let spec = MiniSpec::linear(16, 8, 4).tiled(2, 1).with_plan(plan);
    let outs = run_mini_observed(&spec);
    let killed = outs[0].run.error.as_deref().unwrap_or("");
    assert!(killed.contains("rank killed by fault plan"), "victim verdict: {killed}");
    assert_eq!(outs[0].run.steps_done, 2, "the kill lands at the top of step 2");
    let survivor = outs[1].run.error.as_deref().unwrap_or("");
    assert!(survivor.contains("peer rank 0 is dead"), "survivor verdict: {survivor}");
    assert_eq!(outs, run_mini_observed(&spec), "kill observation diverges on replay");
}

/// The ROADMAP deadlock-regression coordinates (24×12 grid, 2×1
/// tiling), driven into an actual cyclic wait: the scheduler proves
/// quiescence and hands every rank the complete wait graph as a typed
/// error.  No watchdog wraps this test — exact deadlock detection *is*
/// the deadline.
#[test]
fn exact_deadlock_reports_the_wait_graph_at_regression_coordinates() {
    let spec = MiniSpec::nonlinear(24, 12, 4).tiled(2, 1);
    const TAG: u32 = 0x0dead;
    let outs =
        Spmd::new(spec.ranks()).with_profiles(vec![CompilerProfile::cray_opt()]).run(|ctx| {
            // Both ranks wait on a message the partner never sends: the
            // cross-recv cycle the historic FieldNan deadlock reduced to.
            let partner = 1 - ctx.rank();
            ctx.comm.recv(&mut ctx.sink, partner, TAG).expect_err("schedule must deadlock")
        });
    assert_eq!(outs.len(), 2);
    for (rank, err) in outs.iter().enumerate() {
        match err {
            CommError::Deadlock { rank: r, waiting } => {
                assert_eq!(*r, rank, "the error names the rank it unblocked");
                assert_eq!(waiting.len(), 2, "both ranks appear in the wait graph");
                for edge in waiting {
                    match edge.on {
                        WaitOn::Recv { src, tag } => {
                            assert_eq!(src, 1 - edge.rank, "each edge points at the partner");
                            assert_eq!(tag, TAG);
                        }
                        ref other => panic!("unexpected wait edge kind: {other:?}"),
                    }
                }
            }
            other => panic!("expected CommError::Deadlock, got: {other}"),
        }
    }
}
