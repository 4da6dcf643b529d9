//! A multi-group opacity step: the two radiation species act as two
//! frequency groups whose scattering opacity differs by a factor of
//! four, so the same initial pulse diffuses at two distinct rates
//! simultaneously.
//!
//! With `Limiter::None`, no absorption, and no exchange, each group `s`
//! obeys independent linear diffusion with its own coefficient
//! `D_s = c/(3κ_s,s)` — the Gaussian closed form holds *per group*.
//! This pins down the species-block structure of the assembled system:
//! any cross-group leakage (mixed blocks, wrong off-diagonals) shows up
//! as one group diffusing at the other's rate.

use v2d_comm::Comm;
use v2d_linalg::{SolveOpts, NSPEC};
use v2d_machine::MultiCostSink;

use crate::grid::{Geometry, Grid2};
use crate::limiter::Limiter;
use crate::opacity::OpacityModel;
use crate::sim::{PrecondKind, V2dConfig, V2dSim};

use super::gaussian::{GaussianPulse, T_GAUSSIAN};
use super::scenario::{
    Convergence, ConvergenceMode, Family, NormAccum, Refinement, Scenario, ValidationReport,
};

/// Per-group scattering opacities: the "opacity step" across the
/// frequency axis (group 1 is 4× more opaque → diffuses 4× slower).
pub const KAPPA_GROUPS: [f64; 2] = [2.0, 8.0];

/// The multi-group opacity-step scenario.
pub struct MultigroupScenario;

impl MultigroupScenario {
    /// Group `s`'s diffusion coefficient.
    pub fn diffusion(cfg: &V2dConfig, s: usize) -> f64 {
        cfg.c_light / (3.0 * cfg.opacity.kappa_s[s])
    }
}

impl Scenario for MultigroupScenario {
    fn family(&self) -> Family {
        Family::Multigroup
    }

    fn describe(&self) -> &'static str {
        "two groups crossing an opacity step: per-group analytic diffusion rates"
    }

    fn smoke(&self) -> (usize, usize, usize) {
        (40, 20, 24)
    }

    fn config(&self, n1: usize, n2: usize, steps: usize) -> V2dConfig {
        let grid = Grid2::new(n1, n2, (0.0, 2.0), (0.0, 1.0), Geometry::Cartesian);
        V2dConfig {
            grid,
            limiter: Limiter::None,
            opacity: OpacityModel { kappa_a: [0.0, 0.0], kappa_s: KAPPA_GROUPS, kappa_x: 0.0 },
            c_light: 1.0,
            dt: T_GAUSSIAN / steps as f64,
            n_steps: steps,
            precond: PrecondKind::BlockJacobi,
            solve: SolveOpts::default(),
            hydro: None,
            coupling: None,
        }
    }

    fn init(&self, sim: &mut V2dSim) {
        // Both groups start from the standard pulse; their evolutions
        // diverge through the opacity step alone.
        GaussianPulse::standard().init(sim);
    }

    fn validate(&self, sim: &V2dSim, comm: &Comm, sink: &mut MultiCostSink) -> ValidationReport {
        let pulse = GaussianPulse::standard();
        let cfg = sim.config();
        let t = sim.time();
        let grid = sim.grid();
        let mut acc = NormAccum::default();
        for s in 0..NSPEC {
            let d = Self::diffusion(cfg, s);
            for i2 in 0..grid.n2 {
                for i1 in 0..grid.n1 {
                    let (x, y) = grid.center(i1, i2);
                    acc.push(
                        sim.erad().get(s, i1 as isize, i2 as isize),
                        pulse.analytic(d, x, y, t),
                    );
                }
            }
        }
        let (l1, l2, linf) = acc.reduce(comm, sink);
        let tolerance = 0.05;
        ValidationReport {
            family: self.family().name(),
            l1,
            l2,
            linf,
            tolerance,
            pass: l2 < tolerance,
            detail: format!(
                "per-group diffusion (D0={:.4}, D1={:.4}) at t={t:.4}",
                Self::diffusion(cfg, 0),
                Self::diffusion(cfg, 1)
            ),
        }
    }

    fn convergence(&self) -> Convergence {
        Convergence {
            mode: ConvergenceMode::Analytic,
            refine: Refinement::SpaceTime,
            base: (32, 16, 12),
            min_order: 1.5,
        }
    }
}
