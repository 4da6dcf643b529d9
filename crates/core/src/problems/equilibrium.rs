//! Two-species radiative relaxation: the species-coupling verification.
//!
//! With spatially uniform fields (no gradients → no diffusion) and pure
//! exchange opacity, the FLD equations reduce to the ODE pair
//!
//! ```text
//! dE₀/dt = c·κ_x (E₁ − E₀),   dE₁/dt = c·κ_x (E₀ − E₁)
//! ```
//!
//! whose difference decays exactly as `ΔE(t) = ΔE(0)·e^(−2κ_x c t)` while
//! the sum is conserved.  This pins down the sign, symmetry and
//! magnitude of the off-diagonal species blocks in the assembled system.

use v2d_linalg::SolveOpts;

use crate::grid::{Geometry, Grid2};
use crate::limiter::Limiter;
use crate::opacity::OpacityModel;
use crate::sim::{PrecondKind, V2dConfig, V2dSim};

/// Uniform two-temperature initial condition.
#[derive(Debug, Clone, Copy)]
pub struct RadiativeRelaxation {
    pub e0: f64,
    pub e1: f64,
    pub kappa_x: f64,
}

impl RadiativeRelaxation {
    /// A configuration with exchange-only coupling.
    pub fn config(&self, n1: usize, n2: usize, dt: f64, n_steps: usize) -> V2dConfig {
        V2dConfig {
            grid: Grid2::new(n1, n2, (0.0, 1.0), (0.0, 1.0), Geometry::Cartesian),
            limiter: Limiter::None,
            // Huge scattering opacity makes D = c/(3κ_t) negligible, so
            // the uniform field sees no boundary leakage and the pure
            // exchange ODE is realized on every zone.
            opacity: OpacityModel {
                kappa_a: [0.0, 0.0],
                kappa_s: [1e4, 1e4],
                kappa_x: self.kappa_x,
            },
            c_light: 1.0,
            dt,
            n_steps,
            precond: PrecondKind::BlockJacobi,
            solve: SolveOpts { tol: 1e-12, ..Default::default() },
            hydro: None,
            coupling: None,
        }
    }

    /// Set the uniform two-species field.
    pub fn init(&self, sim: &mut V2dSim) {
        let (e0, e1) = (self.e0, self.e1);
        sim.erad_mut().fill_with(|s, _, _| if s == 0 { e0 } else { e1 });
    }

    /// The analytic species difference at time `t`.
    pub fn analytic_difference(&self, c_light: f64, t: f64) -> f64 {
        (self.e0 - self.e1) * (-2.0 * self.kappa_x * c_light * t).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2d_comm::{Spmd, TileMap};
    use v2d_machine::CompilerProfile;

    #[test]
    fn relaxation_rate_matches_analytic_solution() {
        let prob = RadiativeRelaxation { e0: 2.0, e1: 1.0, kappa_x: 0.5 };
        // Small dt so the backward-Euler rate error stays below the
        // assertion tolerance.
        let cfg = prob.config(8, 8, 0.01, 50);
        Spmd::new(1).with_profiles(vec![CompilerProfile::cray_opt()]).run(|ctx| {
            let map = TileMap::new(8, 8, 1, 1);
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            prob.init(&mut sim);
            sim.run(&ctx.comm, &mut ctx.sink);
            let got = sim.erad().get(0, 4, 4) - sim.erad().get(1, 4, 4);
            let want = prob.analytic_difference(1.0, sim.time());
            assert!((got - want).abs() < 0.02 * prob.e0, "ΔE = {got}, analytic {want}");
            // The sum is conserved exactly by the exchange operator.
            let sum = sim.erad().get(0, 4, 4) + sim.erad().get(1, 4, 4);
            assert!((sum - 3.0).abs() < 1e-9, "sum drifted: {sum}");
        });
    }
}
