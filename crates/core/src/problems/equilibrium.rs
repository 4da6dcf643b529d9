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
//!
//! The registry scenario grades every zone's ΔE against the decay law
//! and the sum against conservation.

use v2d_comm::{Comm, ReduceOp};
use v2d_linalg::SolveOpts;
use v2d_machine::MultiCostSink;

use crate::grid::{Geometry, Grid2};
use crate::limiter::Limiter;
use crate::opacity::OpacityModel;
use crate::sim::{PrecondKind, V2dConfig, V2dSim};

use super::scenario::{
    Convergence, ConvergenceMode, Family, NormAccum, Refinement, Scenario, ValidationReport,
};

/// Physical end time of the registry scenario (the proven 8×8×50
/// verification setting falls out at `dt = 0.01`).
pub const T_RELAX: f64 = 0.5;

/// Uniform two-temperature initial condition.
#[derive(Debug, Clone, Copy)]
pub struct RadiativeRelaxation {
    pub e0: f64,
    pub e1: f64,
    pub kappa_x: f64,
}

impl RadiativeRelaxation {
    /// The registry's setup: species 0 twice as hot as species 1.
    pub const fn standard() -> Self {
        RadiativeRelaxation { e0: 2.0, e1: 1.0, kappa_x: 0.5 }
    }

    /// The analytic species difference at time `t`.
    pub fn analytic_difference(&self, c_light: f64, t: f64) -> f64 {
        (self.e0 - self.e1) * (-2.0 * self.kappa_x * c_light * t).exp()
    }
}

impl Scenario for RadiativeRelaxation {
    fn family(&self) -> Family {
        Family::Relax
    }

    fn describe(&self) -> &'static str {
        "uniform two-species exchange relaxation vs the exponential decay law"
    }

    fn smoke(&self) -> (usize, usize, usize) {
        (8, 8, 50)
    }

    /// Exchange-only coupling.
    fn config(&self, n1: usize, n2: usize, steps: usize) -> V2dConfig {
        V2dConfig {
            grid: Grid2::new(n1, n2, (0.0, 1.0), (0.0, 1.0), Geometry::Cartesian),
            limiter: Limiter::None,
            // Huge scattering opacity makes D = c/(3κ_t) negligible, so
            // the uniform field sees no boundary leakage and the pure
            // exchange ODE is realized on every zone: κ_s = 1e8 keeps
            // the Dirichlet-0 wall leak below 1e-6 in the first zone
            // over T_RELAX, so the per-zone sum-conservation gate stays
            // sharp.
            opacity: OpacityModel {
                kappa_a: [0.0, 0.0],
                kappa_s: [1e8, 1e8],
                kappa_x: self.kappa_x,
            },
            c_light: 1.0,
            dt: T_RELAX / steps as f64,
            n_steps: steps,
            precond: PrecondKind::BlockJacobi,
            solve: SolveOpts { tol: 1e-12, ..Default::default() },
            hydro: None,
            coupling: None,
        }
    }

    /// Set the uniform two-species field.
    fn init(&self, sim: &mut V2dSim) {
        let (e0, e1) = (self.e0, self.e1);
        sim.erad_mut().fill_with(|s, _, _| if s == 0 { e0 } else { e1 });
    }

    fn validate(&self, sim: &V2dSim, comm: &Comm, sink: &mut MultiCostSink) -> ValidationReport {
        let want = self.analytic_difference(sim.config().c_light, sim.time());
        let de0 = self.e0 - self.e1;
        let sum0 = self.e0 + self.e1;
        let grid = sim.grid();
        // The fields are uniform; grade ΔE per zone against the decay
        // law (normalized by ΔE(0)) and the sum against conservation.
        let mut acc = NormAccum::default();
        let mut sum_drift = 0.0f64;
        for i2 in 0..grid.n2 {
            for i1 in 0..grid.n1 {
                let a = sim.erad().get(0, i1 as isize, i2 as isize);
                let b = sim.erad().get(1, i1 as isize, i2 as isize);
                acc.push((a - b) / de0, want / de0);
                sum_drift = sum_drift.max(((a + b) - sum0).abs() / sum0);
            }
        }
        let (l1, l2, linf) = acc.reduce(comm, sink);
        let sum_drift = comm.allreduce_scalar(sink, ReduceOp::Max, sum_drift);
        let tolerance = 0.02;
        ValidationReport {
            family: self.family().name(),
            l1,
            l2,
            linf,
            tolerance,
            pass: l2 < tolerance && sum_drift < 1e-6,
            detail: format!("ΔE decay vs exp(-2κxc t); sum drift {sum_drift:.2e}"),
        }
    }

    fn convergence(&self) -> Convergence {
        Convergence {
            mode: ConvergenceMode::Analytic,
            refine: Refinement::Time,
            base: (8, 8, 25),
            min_order: 0.85,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2d_comm::{Spmd, TileMap};
    use v2d_machine::CompilerProfile;

    #[test]
    fn relaxation_rate_matches_analytic_solution() {
        let prob = RadiativeRelaxation::standard();
        // Small dt (T_RELAX / 50 = 0.01) so the backward-Euler rate
        // error stays below the assertion tolerance.
        let cfg = prob.config(8, 8, 50);
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
