//! Breakdown-path tests of the solver resilience layer: constructed and
//! injected BiCGSTAB breakdowns, in-solver true-residual restarts, and
//! the BiCGSTAB → GMRES → CG fallback cascade.

use v2d_comm::{CartComm, Spmd, TileMap};
use v2d_linalg::{
    bicgstab, solve_cascade, BlockJacobi, BreakdownReason, Identity, LinearOp, SolveOpts,
    SolverKind, SolverWorkspace, StencilCoeffs, StencilOp, TileVec,
};
use v2d_machine::{CompilerProfile, ExecCtx, FaultInjector, FaultKind, FaultPlan};

fn profiles() -> Vec<CompilerProfile> {
    vec![CompilerProfile::cray_opt()]
}

/// An injector whose plan forces `count` solver breakdowns, armed for
/// step 0.
fn breakdown_injector(count: u32) -> FaultInjector {
    let plan = FaultPlan::empty().with_event(0, None, FaultKind::SolverBreakdown { count });
    let mut inj = FaultInjector::new(plan, 0);
    inj.begin_step(0);
    inj
}

#[test]
fn nonfinite_rhs_is_detected_not_iterated() {
    // A NaN in the right-hand side must surface as a NonFinite
    // breakdown immediately — not spin max_iters on poisoned data and
    // not panic.
    Spmd::new(1).with_profiles(profiles()).run(|ctx| {
        let (n1, n2) = (8, 8);
        let cart = CartComm::new(&ctx.comm, TileMap::new(n1, n2, 1, 1));
        let mut op = StencilOp::new(StencilCoeffs::laplacian_like(n1, n2), cart);
        let mut b = TileVec::new(n1, n2);
        b.fill_interior(1.0);
        b.set(0, 3, 3, f64::NAN);
        let mut m = Identity;
        let mut x = TileVec::new(n1, n2);
        let mut wks = SolverWorkspace::new(n1, n2);
        let st = bicgstab(
            &ctx.comm,
            &mut ExecCtx::new(&mut ctx.sink),
            &mut op,
            &mut m,
            &b,
            &mut x,
            &mut wks,
            &SolveOpts::default(),
        )
        .unwrap();
        assert!(!st.converged);
        assert_eq!(st.breakdown, Some(BreakdownReason::NonFinite));
        assert_eq!(st.iters, 0, "poison must be caught before iterating");
    });
}

#[test]
fn injected_breakdown_recovers_via_true_residual_restart() {
    // One forced ρ → 0: the solver restarts from the true residual and
    // still converges, recording the recovery.
    Spmd::new(1).with_profiles(profiles()).run(|ctx| {
        let (n1, n2) = (10, 10);
        let cart = CartComm::new(&ctx.comm, TileMap::new(n1, n2, 1, 1));
        let mut op = StencilOp::new(StencilCoeffs::laplacian_like(n1, n2), cart);
        let mut b = TileVec::new(n1, n2);
        b.fill_with(|s, i1, i2| ((s * 3 + i1 + 2 * i2) as f64 * 0.23).sin());
        let mut m = BlockJacobi::new(&op);
        let mut x = TileVec::new(n1, n2);
        let mut wks = SolverWorkspace::new(n1, n2);
        let mut inj = breakdown_injector(1);
        let st = bicgstab(
            &ctx.comm,
            &mut ExecCtx::with_parts(&mut ctx.sink, None, Some(&mut inj), None),
            &mut op,
            &mut m,
            &b,
            &mut x,
            &mut wks,
            &SolveOpts { tol: 1e-10, ..Default::default() },
        )
        .unwrap();
        assert!(st.converged, "restart should rescue a single breakdown: {st:?}");
        assert_eq!(st.breakdown, None);
        assert!(st.recoveries >= 1, "the restart must be recorded: {st:?}");
        assert!(!inj.log.is_empty(), "injection and restart should be logged");
    });
}

#[test]
fn exhausted_restarts_surface_the_breakdown_reason() {
    // More forced breakdowns than its two restarts: BiCGSTAB alone must
    // give up with the classified reason instead of looping.
    Spmd::new(1).with_profiles(profiles()).run(|ctx| {
        let (n1, n2) = (10, 10);
        let cart = CartComm::new(&ctx.comm, TileMap::new(n1, n2, 1, 1));
        let mut op = StencilOp::new(StencilCoeffs::laplacian_like(n1, n2), cart);
        let mut b = TileVec::new(n1, n2);
        b.fill_interior(1.0);
        let mut m = Identity;
        let mut x = TileVec::new(n1, n2);
        let mut wks = SolverWorkspace::new(n1, n2);
        let opts = SolveOpts::default();
        let mut inj = breakdown_injector(3);
        let st = bicgstab(
            &ctx.comm,
            &mut ExecCtx::with_parts(&mut ctx.sink, None, Some(&mut inj), None),
            &mut op,
            &mut m,
            &b,
            &mut x,
            &mut wks,
            &opts,
        )
        .unwrap();
        assert!(!st.converged);
        assert_eq!(st.breakdown, Some(BreakdownReason::RhoZero));
        assert_eq!(st.recoveries, 2, "both restarts spent: {st:?}");
    });
}

#[test]
fn cascade_falls_back_and_converges() {
    // Enough forced breakdowns to sink BiCGSTAB (3) — the cascade must
    // rescue the solve with GMRES, and with one more (4) with CG.
    for (count, min_fallbacks) in [(3u32, 1u32), (4, 2)] {
        Spmd::new(1).with_profiles(profiles()).run(move |ctx| {
            let (n1, n2) = (10, 10);
            let cart = CartComm::new(&ctx.comm, TileMap::new(n1, n2, 1, 1));
            let mut op = StencilOp::new(StencilCoeffs::laplacian_like(n1, n2), cart);
            let mut b = TileVec::new(n1, n2);
            b.fill_with(|s, i1, i2| ((s + i1 * 2 + i2) as f64 * 0.31).cos());
            let mut m = BlockJacobi::new(&op);
            let mut x = TileVec::new(n1, n2);
            let mut wks = SolverWorkspace::new(n1, n2);
            let mut inj = breakdown_injector(count);
            let st = solve_cascade(
                &ctx.comm,
                &mut ExecCtx::with_parts(&mut ctx.sink, None, Some(&mut inj), None),
                &mut op,
                &mut m,
                &b,
                &mut x,
                &mut wks,
                &SolveOpts { tol: 1e-10, ..Default::default() },
            )
            .unwrap_or_else(|e| panic!("cascade must converge for count {count}: {e}"));
            assert!(st.converged);
            assert!(
                st.recoveries >= min_fallbacks,
                "count {count}: expected ≥{min_fallbacks} recoveries, got {st:?}"
            );
            // The fallback solved the same system: check the residual.
            let mut ax = TileVec::new(n1, n2);
            op.apply(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &mut x, &mut ax);
            let worst = ax
                .interior_to_vec()
                .iter()
                .zip(b.interior_to_vec())
                .map(|(a, w)| (a - w).abs())
                .fold(0.0, f64::max);
            assert!(worst < 1e-7, "count {count}: residual {worst} too large");
        });
    }
}

#[test]
fn cascade_exhaustion_reports_every_attempt_and_restores_x() {
    // Five forced breakdowns sink all three solvers; the error must
    // name each attempt in order and leave the initial guess untouched.
    Spmd::new(1).with_profiles(profiles()).run(|ctx| {
        let (n1, n2) = (8, 8);
        let cart = CartComm::new(&ctx.comm, TileMap::new(n1, n2, 1, 1));
        let mut op = StencilOp::new(StencilCoeffs::laplacian_like(n1, n2), cart);
        let mut b = TileVec::new(n1, n2);
        b.fill_interior(1.0);
        let mut m = Identity;
        let mut x = TileVec::new(n1, n2);
        x.fill_with(|s, i1, i2| (s + i1 + i2) as f64 * 0.5);
        let x_before = x.interior_to_vec();
        let mut wks = SolverWorkspace::new(n1, n2);
        let mut inj = breakdown_injector(5);
        let err = solve_cascade(
            &ctx.comm,
            &mut ExecCtx::with_parts(&mut ctx.sink, None, Some(&mut inj), None),
            &mut op,
            &mut m,
            &b,
            &mut x,
            &mut wks,
            &SolveOpts::default(),
        )
        .expect_err("five breakdowns must exhaust the cascade");
        let kinds: Vec<SolverKind> = err.attempts.iter().map(|a| a.solver).collect();
        assert_eq!(kinds, [SolverKind::BicgStab, SolverKind::Gmres, SolverKind::Cg]);
        assert_eq!(err.attempts[1].stats.breakdown, Some(BreakdownReason::Injected));
        assert_eq!(err.attempts[2].stats.breakdown, Some(BreakdownReason::Injected));
        let msg = err.to_string();
        for needle in ["BicgStab", "Gmres", "Cg"] {
            assert!(msg.contains(needle), "error should name {needle}: {msg}");
        }
        assert_eq!(x.interior_to_vec(), x_before, "failed cascade must restore x");
    });
}

#[test]
fn empty_plan_injector_is_bit_invisible_to_the_solver() {
    // The same solve with no injector and with an empty-plan injector
    // must agree bit-for-bit in both solution and statistics.
    Spmd::new(1).with_profiles(profiles()).run(|ctx| {
        let (n1, n2) = (12, 10);
        let cart = CartComm::new(&ctx.comm, TileMap::new(n1, n2, 1, 1));
        let mut b = TileVec::new(n1, n2);
        b.fill_with(|s, i1, i2| ((s * 7 + i1 * 3 + i2 * 5) as f64 * 0.17).sin());
        let opts = SolveOpts { tol: 1e-11, ..Default::default() };

        let mut run = |inj: Option<&mut FaultInjector>| {
            let mut op = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
            let mut m = BlockJacobi::new(&op);
            let mut x = TileVec::new(n1, n2);
            let mut wks = SolverWorkspace::new(n1, n2);
            let st = bicgstab(
                &ctx.comm,
                &mut ExecCtx::with_parts(&mut ctx.sink, None, inj, None),
                &mut op,
                &mut m,
                &b,
                &mut x,
                &mut wks,
                &opts,
            )
            .unwrap();
            (st, x.interior_to_vec().iter().map(|v| v.to_bits()).collect::<Vec<u64>>())
        };

        let (st_plain, x_plain) = run(None);
        let mut inj = FaultInjector::new(FaultPlan::empty(), 0);
        inj.begin_step(0);
        let (st_inj, x_inj) = run(Some(&mut inj));
        assert_eq!(st_plain, st_inj, "stats must match bitwise");
        assert_eq!(x_plain, x_inj, "solution must match bitwise");
        assert!(inj.log.is_empty(), "an empty plan must log nothing");
    });
}
