//! The implicit radiation stepper: three linear solves per timestep.
//!
//! The paper's Table I workload "time-evolves the radiation energy
//! density for 100 time steps.  Each time step requires the solution of
//! three unique x1 × x2 × 2 linear systems via the BiCGSTAB algorithm."
//! The three systems here are the fixed-point sweeps of V2D-style
//! nonlinear handling of the flux limiter and the energy-exchange
//! coupling, all full steps from `Eⁿ` with successively re-linearized
//! coefficients:
//!
//! 1. **Predictor** — coefficients frozen at `Eⁿ`;
//! 2. **Corrector** — coefficients re-evaluated at the predictor state;
//! 3. **Coupling/limiter sweep** — one more re-evaluation at the
//!    corrector state (for a linear problem the three matrices coincide;
//!    for the nonlinear problem each sweep tightens the linearization).
//!
//! Every sweep starts from the beginning-of-step field, as V2D does —
//! which is why the paper's Arm MAP analysis sees the three BiCGSTAB
//! call sites at nearly equal thirds of the runtime.
//!
//! Each stage assembles fresh stencil coefficients (Physics work),
//! rebuilds the preconditioner, and calls the ganged-reduction BiCGSTAB.

use v2d_comm::{CartComm, Comm};
use v2d_linalg::{
    solve_cascade, BlockJacobi, Identity, Jacobi, SolveError, SolveOpts, SolveStats,
    SolverWorkspace, Spai, TileVec,
};
use v2d_machine::ExecCtx;

use crate::grid::LocalGrid;
use crate::limiter::Limiter;
use crate::opacity::OpacityModel;
use crate::rad::coeffs::assemble_system;
use crate::sim::PrecondKind;

/// Per-step radiation statistics: one [`SolveStats`] per stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadStepStats {
    pub stages: [SolveStats; 3],
}

impl RadStepStats {
    /// Total BiCGSTAB iterations across the three stages.
    pub fn total_iters(&self) -> usize {
        self.stages.iter().map(|s| s.iters).sum()
    }

    /// Whether every stage converged.
    pub fn all_converged(&self) -> bool {
        self.stages.iter().all(|s| s.converged)
    }
}

/// A radiation stage whose entire solver cascade (BiCGSTAB → restarted
/// GMRES → CG) failed.  The stepped field is left at its
/// beginning-of-step value, so the caller can retry — e.g. with a
/// smaller `dt` — without rebuilding state.
#[derive(Debug)]
pub struct RadStepError {
    /// Which of the three sweeps failed (0 = predictor).
    pub stage: usize,
    /// The profiler name of the failed stage.
    pub stage_name: &'static str,
    /// The per-solver attempt record of the cascade.
    pub error: SolveError,
}

impl std::fmt::Display for RadStepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "radiation stage {} ({}) failed: {}", self.stage, self.stage_name, self.error)
    }
}

impl std::error::Error for RadStepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Configuration of the radiation update.
#[derive(Debug, Clone, Copy)]
pub struct RadStepper {
    pub limiter: Limiter,
    pub opacity: OpacityModel,
    pub c_light: f64,
    pub precond: PrecondKind,
    pub solve: SolveOpts,
}

/// Scratch the radiation stepper reuses across timesteps: the Krylov
/// solvers' [`SolverWorkspace`] plus the stepper's own stage fields.
/// One per rank, owned by the simulation — after the first step at a
/// given tile shape, stepping performs no `TileVec` allocations outside
/// system assembly.
#[derive(Debug)]
pub struct RadWorkspace {
    pub solver: SolverWorkspace,
    e_stage: TileVec,
    lin_state: TileVec,
}

impl RadWorkspace {
    /// A workspace for an `n1 × n2` tile.
    pub fn new(n1: usize, n2: usize) -> Self {
        RadWorkspace {
            solver: SolverWorkspace::new(n1, n2),
            e_stage: TileVec::new(n1, n2),
            lin_state: TileVec::new(n1, n2),
        }
    }

    /// Reshape if the tile shape changed (allocation-free when it has
    /// not).
    pub fn ensure(&mut self, n1: usize, n2: usize) {
        self.solver.ensure(n1, n2);
        if (self.e_stage.n1(), self.e_stage.n2()) != (n1, n2) {
            self.e_stage = TileVec::new(n1, n2);
            self.lin_state = TileVec::new(n1, n2);
        }
    }
}

impl RadStepper {
    /// Advance `erad` by one timestep `dt`; `source` is the emission
    /// term.  The three BiCGSTAB call sites are recorded in the
    /// context's profiler scope (when one is attached), as the paper did
    /// with Arm MAP; all scratch comes from `wks`.
    ///
    /// Each stage runs the full fallback cascade (BiCGSTAB → restarted
    /// GMRES → CG); a stage that fails through all of it surfaces as a
    /// typed [`RadStepError`].  `erad` is only committed once all three
    /// stages have converged, so on `Err` the field still holds the
    /// beginning-of-step state and the caller may retry with different
    /// parameters.
    #[allow(clippy::too_many_arguments)]
    pub fn try_step(
        &self,
        comm: &Comm,
        cx: &mut ExecCtx,
        cart: &CartComm,
        grid: &LocalGrid,
        dt: f64,
        erad: &mut TileVec,
        source: &TileVec,
        wks: &mut RadWorkspace,
    ) -> Result<RadStepStats, RadStepError> {
        let (n1, n2) = (grid.n1, grid.n2);
        wks.ensure(n1, n2);
        let mut stats = Vec::with_capacity(3);

        // Three full-step sweeps re-linearized at the latest iterate.
        let stage_name = ["bicgstab_predictor", "bicgstab_corrector", "bicgstab_coupling"];

        // The state the coefficients are evaluated at; starts at Eⁿ.
        // The right-hand side always carries Eⁿ (full steps from the
        // beginning-of-step data; only the linearization improves).
        wks.lin_state.copy_from(erad);

        for (stage, name) in stage_name.into_iter().enumerate() {
            let (mut op, rhs) = assemble_system(
                comm,
                cx,
                cart,
                grid,
                self.limiter,
                &self.opacity,
                self.c_light,
                dt,
                &mut wks.lin_state,
                erad,
                source,
            );

            // Initial guess: the beginning-of-step field, for every
            // stage — V2D solves each of its three systems cold, which
            // is why the paper's Arm MAP analysis shows the three
            // BiCGSTAB call sites at nearly equal thirds of the runtime.
            wks.e_stage.copy_from(erad);

            let e_stage = &mut wks.e_stage;
            let swks = &mut wks.solver;
            let st = cx.routine(name, |cx| match self.precond {
                PrecondKind::None => {
                    let mut m = Identity;
                    solve_cascade(comm, cx, &mut op, &mut m, &rhs, e_stage, swks, &self.solve)
                }
                PrecondKind::Jacobi => {
                    let mut m = Jacobi::new(&op);
                    solve_cascade(comm, cx, &mut op, &mut m, &rhs, e_stage, swks, &self.solve)
                }
                PrecondKind::BlockJacobi => {
                    let mut m = BlockJacobi::new(&op);
                    solve_cascade(comm, cx, &mut op, &mut m, &rhs, e_stage, swks, &self.solve)
                }
                PrecondKind::Spai => {
                    op.exchange_coeff_halos(comm, cx);
                    let mut m = Spai::new(&op, comm, cx);
                    solve_cascade(comm, cx, &mut op, &mut m, &rhs, e_stage, swks, &self.solve)
                }
            });
            let st = match st {
                Ok(st) => st,
                Err(error) => return Err(RadStepError { stage, stage_name: name, error }),
            };
            stats.push(st);

            // Re-linearize the coefficients around the stage solution;
            // the rhs keeps carrying Eⁿ.
            wks.lin_state.copy_from(&wks.e_stage);
        }

        erad.copy_from(&wks.e_stage);
        Ok(RadStepStats { stages: [stats[0], stats[1], stats[2]] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Geometry, Grid2};
    use crate::sim::PrecondKind;
    use v2d_comm::{Spmd, TileMap};
    use v2d_linalg::NSPEC;
    use v2d_machine::CompilerProfile;
    use v2d_perf::Profiler;

    fn profiles() -> Vec<CompilerProfile> {
        vec![CompilerProfile::cray_opt()]
    }

    fn stepper(precond: PrecondKind) -> RadStepper {
        RadStepper {
            limiter: Limiter::None,
            opacity: OpacityModel { kappa_a: [0.0, 0.0], kappa_s: [1.5, 1.5], kappa_x: 0.0 },
            c_light: 1.0,
            precond,
            solve: SolveOpts { tol: 1e-10, ..Default::default() },
        }
    }

    #[test]
    fn step_performs_three_solves_and_converges() {
        let (n1, n2) = (16, 12);
        let g = Grid2::new(n1, n2, (0.0, 1.0), (0.0, 0.75), Geometry::Cartesian);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let grid = LocalGrid::new(g, cart.tile());
            let mut e = TileVec::new(n1, n2);
            e.fill_with(|_, i1, i2| {
                let (x, y) = grid.center(i1, i2);
                (-((x - 0.5).powi(2) + (y - 0.375).powi(2)) / 0.01).exp()
            });
            let src = TileVec::new(n1, n2);
            let mut wks = RadWorkspace::new(n1, n2);
            let st = stepper(PrecondKind::BlockJacobi)
                .try_step(
                    &ctx.comm,
                    &mut ExecCtx::new(&mut ctx.sink),
                    &cart,
                    &grid,
                    0.003,
                    &mut e,
                    &src,
                    &mut wks,
                )
                .expect("radiation step");
            assert!(st.all_converged());
            // The first solve always iterates; later stages may converge
            // instantly when the warm start already satisfies the
            // (nearly) identical system.
            assert!(st.stages[0].iters >= 1);
            assert!(st.total_iters() >= 2);
        });
    }

    #[test]
    fn diffusion_conserves_energy_without_absorption() {
        // Pure scattering (κ_a = 0), pulse far from the boundary:
        // total energy is conserved to solver tolerance.
        let (n1, n2) = (24, 24);
        let g = Grid2::new(n1, n2, (0.0, 1.0), (0.0, 1.0), Geometry::Cartesian);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let grid = LocalGrid::new(g, cart.tile());
            let mut e = TileVec::new(n1, n2);
            e.fill_with(|_, i1, i2| {
                let (x, y) = grid.center(i1, i2);
                (-((x - 0.5).powi(2) + (y - 0.5).powi(2)) / 0.005).exp()
            });
            let vol = g.volume(0, 0);
            let total0: f64 = e.interior_to_vec().iter().sum::<f64>() * vol;
            let src = TileVec::new(n1, n2);
            let mut wks = RadWorkspace::new(n1, n2);
            let s = stepper(PrecondKind::Jacobi);
            for _ in 0..5 {
                let st = s
                    .try_step(
                        &ctx.comm,
                        &mut ExecCtx::new(&mut ctx.sink),
                        &cart,
                        &grid,
                        1e-3,
                        &mut e,
                        &src,
                        &mut wks,
                    )
                    .expect("radiation step");
                assert!(st.all_converged());
            }
            let total1: f64 = e.interior_to_vec().iter().sum::<f64>() * vol;
            assert!(
                ((total1 - total0) / total0).abs() < 1e-6,
                "energy drifted: {total0} → {total1}"
            );
            // And the pulse actually spread: center decreased.
            let c = e.get(0, 12, 12);
            assert!(c < 1.0, "pulse did not diffuse (center {c})");
        });
    }

    #[test]
    fn absorption_removes_energy() {
        let (n1, n2) = (12, 12);
        let g = Grid2::new(n1, n2, (0.0, 1.0), (0.0, 1.0), Geometry::Cartesian);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let grid = LocalGrid::new(g, cart.tile());
            let mut e = TileVec::new(n1, n2);
            e.fill_interior(1.0);
            let src = TileVec::new(n1, n2);
            // Large scattering keeps D ≈ 0, so the only evolution is
            // local absorption and the backward-Euler decay is exact.
            let s = RadStepper {
                opacity: OpacityModel { kappa_a: [0.5, 0.5], kappa_s: [1e4, 1e4], kappa_x: 0.0 },
                ..stepper(PrecondKind::Jacobi)
            };
            let before: f64 = e.interior_to_vec().iter().sum();
            let mut wks = RadWorkspace::new(n1, n2);
            s.try_step(
                &ctx.comm,
                &mut ExecCtx::new(&mut ctx.sink),
                &cart,
                &grid,
                0.1,
                &mut e,
                &src,
                &mut wks,
            )
            .expect("radiation step");
            let after: f64 = e.interior_to_vec().iter().sum();
            assert!(after < before, "absorption did not remove energy");
            // Backward Euler of dE/dt = −κc E: E₁ = E₀/(1 + κ c dt).
            let expect = before / (1.0 + 0.5 * 0.1);
            assert!(((after - expect) / expect).abs() < 1e-3, "decay {after} far from {expect}");
        });
    }

    #[test]
    fn species_exchange_relaxes_toward_equilibrium() {
        let (n1, n2) = (10, 10);
        let g = Grid2::new(n1, n2, (0.0, 1.0), (0.0, 1.0), Geometry::Cartesian);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let grid = LocalGrid::new(g, cart.tile());
            let mut e = TileVec::new(n1, n2);
            // Species 0 hot, species 1 cold.
            e.fill_with(|s, _, _| if s == 0 { 2.0 } else { 0.5 });
            let src = TileVec::new(n1, n2);
            let s = RadStepper {
                opacity: OpacityModel { kappa_a: [0.0, 0.0], kappa_s: [1e4, 1e4], kappa_x: 0.8 },
                ..stepper(PrecondKind::BlockJacobi)
            };
            let mut wks = RadWorkspace::new(n1, n2);
            for _ in 0..30 {
                s.try_step(
                    &ctx.comm,
                    &mut ExecCtx::new(&mut ctx.sink),
                    &cart,
                    &grid,
                    0.2,
                    &mut e,
                    &src,
                    &mut wks,
                )
                .expect("radiation step");
            }
            let e0 = e.get(0, 5, 5);
            let e1 = e.get(1, 5, 5);
            assert!((e0 - e1).abs() < 0.05, "species did not equilibrate: {e0} vs {e1}");
            // Exchange conserves the species sum.
            assert!((e0 + e1 - 2.5).abs() < 1e-6, "exchange lost energy: {}", e0 + e1);
        });
    }

    #[test]
    fn profiler_sees_three_bicgstab_call_sites() {
        let (n1, n2) = (8, 8);
        let g = Grid2::new(n1, n2, (0.0, 1.0), (0.0, 1.0), Geometry::Cartesian);
        let map = TileMap::new(n1, n2, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let grid = LocalGrid::new(g, cart.tile());
            let mut e = TileVec::new(n1, n2);
            e.fill_interior(1.0);
            let src = TileVec::new(n1, n2);
            let mut prof = Profiler::new();
            let mut wks = RadWorkspace::new(n1, n2);
            stepper(PrecondKind::Jacobi)
                .try_step(
                    &ctx.comm,
                    &mut ExecCtx::with_parts(&mut ctx.sink, Some(&mut prof), None, None),
                    &cart,
                    &grid,
                    0.01,
                    &mut e,
                    &src,
                    &mut wks,
                )
                .expect("radiation step");
            for name in ["bicgstab_predictor", "bicgstab_corrector", "bicgstab_coupling"] {
                assert_eq!(prof.routine(name).expect(name).calls, 1);
            }
        });
    }

    #[test]
    fn multirank_step_matches_single_rank() {
        let (n1, n2) = (16, 8);
        let g = Grid2::new(n1, n2, (0.0, 2.0), (0.0, 1.0), Geometry::Cartesian);
        let run = |np1: usize, np2: usize| {
            let map = TileMap::new(n1, n2, np1, np2);
            let outs = Spmd::new(np1 * np2).with_profiles(profiles()).run(|ctx| {
                let cart = CartComm::new(&ctx.comm, map);
                let t = cart.tile();
                let grid = LocalGrid::new(g, t);
                let mut e = TileVec::new(t.n1, t.n2);
                e.fill_with(|_, i1, i2| {
                    let (x, y) = grid.center(i1, i2);
                    (-((x - 1.0).powi(2) + (y - 0.5).powi(2)) / 0.02).exp()
                });
                let src = TileVec::new(t.n1, t.n2);
                let s = RadStepper {
                    limiter: Limiter::LevermorePomraning,
                    ..stepper(PrecondKind::Jacobi)
                };
                let mut wks = RadWorkspace::new(t.n1, t.n2);
                for _ in 0..3 {
                    s.try_step(
                        &ctx.comm,
                        &mut ExecCtx::new(&mut ctx.sink),
                        &cart,
                        &grid,
                        2e-3,
                        &mut e,
                        &src,
                        &mut wks,
                    )
                    .expect("radiation step");
                }
                let mut out = Vec::new();
                for s in 0..NSPEC {
                    for i2 in 0..t.n2 {
                        for i1 in 0..t.n1 {
                            out.push((
                                (s, t.i1_start + i1, t.i2_start + i2),
                                e.get(s, i1 as isize, i2 as isize),
                            ));
                        }
                    }
                }
                out
            });
            let mut all: Vec<_> = outs.into_iter().flatten().collect();
            all.sort_by_key(|&((s, a, b), _)| (s, b, a));
            all.into_iter().map(|(_, v)| v).collect::<Vec<f64>>()
        };
        let single = run(1, 1);
        let multi = run(2, 2);
        for (i, (a, b)) in single.iter().zip(&multi).enumerate() {
            assert!((a - b).abs() < 1e-7 * (1.0 + a.abs()), "field differs at {i}: {a} vs {b}");
        }
    }
}
