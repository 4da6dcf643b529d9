//! The paper's radiation test problem: diffusion of a 2-D Gaussian pulse.
//!
//! §II-A: "The test diffusive radiation transport problem … involves the
//! diffusion of a 2-D Gaussian pulse of radiation and does not involve
//! hydrodynamic evolution. … The linear system … consists of
//! x1 × x2 × 2 coupled linear equations, where the spatial dimensions
//! are x1 = 200 and x2 = 100 zones respectively, and the number of
//! radiation species is 2."  The Table I workload evolves it for 100
//! timesteps — 300 BiCGSTAB solves.
//!
//! [`GaussianPulse::linear_config`] additionally provides the
//! verification setting (no limiter, pure scattering) where the pulse
//! has the closed-form solution
//!
//! ```text
//! E(r, t) = E_bg + A·σ²/(σ² + 4Dt) · exp(−r²/(σ² + 4Dt)),  D = c/(3κ_t)
//! ```
//!
//! and the [`Scenario`] impl grades a run against it.

use v2d_comm::Comm;
use v2d_linalg::SolveOpts;
use v2d_machine::MultiCostSink;

use crate::grid::{Geometry, Grid2};
use crate::limiter::Limiter;
use crate::opacity::OpacityModel;
use crate::sim::{PrecondKind, V2dConfig, V2dSim};

use super::scenario::{
    Convergence, ConvergenceMode, Family, NormAccum, Refinement, Scenario, ValidationReport,
};

/// Physical end time of the registry scenario (chosen so the proven
/// 40×20×24 verification setting falls out at `dt = 0.00125`).
pub const T_GAUSSIAN: f64 = 0.03;

/// The Gaussian pulse initial condition.
#[derive(Debug, Clone, Copy)]
pub struct GaussianPulse {
    /// Peak amplitude above background.
    pub amplitude: f64,
    /// Gaussian width σ (same units as the grid).
    pub sigma: f64,
    /// Pulse center.
    pub center: (f64, f64),
    /// Background energy density (keeps the limiter argument finite in
    /// the far field).
    pub background: f64,
}

impl GaussianPulse {
    /// The standard pulse: centered, σ = 10 zones of the paper grid.
    pub const fn standard() -> Self {
        GaussianPulse { amplitude: 1.0, sigma: 0.1, center: (1.0, 0.5), background: 1e-4 }
    }

    /// The paper's Table I configuration: 200 × 100 zones, 2 species,
    /// 100 steps, SPAI-preconditioned ganged BiCGSTAB.
    pub fn paper_config() -> V2dConfig {
        Self::scaled_config(200, 100, 100)
    }

    /// The same problem scaled to an arbitrary grid and step count (for
    /// tests and quick examples).  The timestep is scaled with the zone
    /// width so the implicit systems stay comparably stiff: ~400× the
    /// explicit diffusion limit, the regime where the radiation update
    /// earns its implicit solver (and its Krylov iteration counts).
    pub fn scaled_config(n1: usize, n2: usize, n_steps: usize) -> V2dConfig {
        let grid = Grid2::new(n1, n2, (0.0, 2.0), (0.0, 1.0), Geometry::Cartesian);
        let opacity = OpacityModel::test_problem();
        let (c_light, kappa_t) = (1.0, 2.0);
        let d_est = c_light / (3.0 * kappa_t);
        let dx = grid.dx1().min(grid.dx2());
        let dt_explicit = dx * dx / (4.0 * d_est);
        V2dConfig {
            grid,
            limiter: Limiter::LevermorePomraning,
            opacity,
            c_light,
            dt: 400.0 * dt_explicit,
            n_steps,
            // The sparse-approximate-inverse preconditioner on the
            // species-block-diagonal pattern (SPAI(0) in ref [7]'s
            // terms): its application is an order of magnitude cheaper
            // than the operator, matching the paper's 141 s matvec vs
            // 14 s preconditioning breakdown.  The full stencil-pattern
            // SPAI(1) is exercised by the preconditioner ablation.
            precond: PrecondKind::BlockJacobi,
            solve: SolveOpts::default(),
            hydro: None,
            coupling: None,
        }
    }

    /// A *linear* configuration (no limiter, pure scattering, no species
    /// exchange) on the same grid, where [`GaussianPulse::analytic`]
    /// holds exactly.
    pub fn linear_config(n1: usize, n2: usize, n_steps: usize) -> V2dConfig {
        let mut cfg = Self::scaled_config(n1, n2, n_steps);
        cfg.limiter = Limiter::None;
        cfg.opacity = OpacityModel { kappa_a: [0.0, 0.0], kappa_s: [2.0, 2.0], kappa_x: 0.0 };
        cfg
    }

    /// The closed-form linear-diffusion solution at time `t` with
    /// diffusion coefficient `d` (valid for [`Self::linear_config`]).
    pub fn analytic(&self, d: f64, x: f64, y: f64, t: f64) -> f64 {
        let s2 = self.sigma * self.sigma;
        let s2t = s2 + 4.0 * d * t;
        let r2 = (x - self.center.0).powi(2) + (y - self.center.1).powi(2);
        self.background + self.amplitude * s2 / s2t * (-r2 / s2t).exp()
    }

    /// The species-0 diffusion coefficient `c/(3κ_t)` of the linear
    /// configuration.
    pub fn linear_diffusion_coefficient(cfg: &V2dConfig) -> f64 {
        cfg.c_light / (3.0 * cfg.opacity.kappa_t(0))
    }
}

/// The registry scenario: the *linear* configuration (no limiter, pure
/// scattering) where the closed-form diffusion solution grades the run.
impl Scenario for GaussianPulse {
    fn family(&self) -> Family {
        Family::Gaussian
    }

    fn describe(&self) -> &'static str {
        "2-D Gaussian radiation pulse vs the closed-form linear-diffusion solution"
    }

    fn smoke(&self) -> (usize, usize, usize) {
        (40, 20, 24)
    }

    fn config(&self, n1: usize, n2: usize, steps: usize) -> V2dConfig {
        let mut cfg = Self::linear_config(n1, n2, steps);
        cfg.dt = T_GAUSSIAN / steps as f64;
        cfg
    }

    /// Set the initial radiation field (both species identical, as the
    /// paper's pulse).
    fn init(&self, sim: &mut V2dSim) {
        let grid = *sim.grid();
        let (cx, cy) = self.center;
        let (a, s2) = (self.amplitude, self.sigma * self.sigma);
        let bg = self.background;
        sim.erad_mut().fill_with(|_, i1, i2| {
            let (x, y) = grid.center(i1, i2);
            let r2 = (x - cx).powi(2) + (y - cy).powi(2);
            bg + a * (-r2 / s2).exp()
        });
    }

    fn validate(&self, sim: &V2dSim, comm: &Comm, sink: &mut MultiCostSink) -> ValidationReport {
        let d = Self::linear_diffusion_coefficient(sim.config());
        let t = sim.time();
        let grid = sim.grid();
        let mut acc = NormAccum::default();
        for s in 0..v2d_linalg::NSPEC {
            for i2 in 0..grid.n2 {
                for i1 in 0..grid.n1 {
                    let (x, y) = grid.center(i1, i2);
                    acc.push(
                        sim.erad().get(s, i1 as isize, i2 as isize),
                        self.analytic(d, x, y, t),
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
            detail: format!("field vs analytic diffusion at t={t:.4}"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use v2d_comm::{Spmd, TileMap};
    use v2d_machine::CompilerProfile;

    #[test]
    fn paper_config_matches_study_parameters() {
        let cfg = GaussianPulse::paper_config();
        assert_eq!((cfg.grid.n1, cfg.grid.n2), (200, 100));
        assert_eq!(cfg.n_steps, 100);
        assert_eq!(cfg.precond, PrecondKind::BlockJacobi);
        assert!(cfg.hydro.is_none(), "the paper's test does not evolve hydro");
        // 100 steps × 3 solves = the paper's 300 linear systems.
    }

    #[test]
    fn both_species_initialized_identically() {
        let cfg = GaussianPulse::linear_config(16, 8, 1);
        Spmd::new(1).with_profiles(vec![CompilerProfile::cray_opt()]).run(|ctx| {
            let map = TileMap::new(16, 8, 1, 1);
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            GaussianPulse::standard().init(&mut sim);
            for i2 in 0..8isize {
                for i1 in 0..16isize {
                    assert_eq!(sim.erad().get(0, i1, i2), sim.erad().get(1, i1, i2));
                }
            }
        });
    }

    #[test]
    fn analytic_solution_conserves_energy() {
        // ∫E dA is time-independent for the closed form (σ²/s2t scaling
        // balances the spreading).
        let p = GaussianPulse::standard();
        let integrate = |t: f64| {
            let n = 400;
            let mut sum = 0.0;
            for j in 0..n {
                for i in 0..n {
                    let x = 2.0 * (i as f64 + 0.5) / n as f64;
                    let y = (j as f64 + 0.5) / n as f64;
                    sum += p.analytic(0.1, x, y, t) - p.background;
                }
            }
            sum * (2.0 / n as f64) * (1.0 / n as f64)
        };
        let e0 = integrate(0.0);
        let e1 = integrate(0.02);
        assert!(((e1 - e0) / e0).abs() < 1e-3, "{e0} vs {e1}");
    }
}
