//! The Sod shock tube: the hydro module's standard verification problem,
//! graded against the exact Riemann solution (density L1).

use v2d_comm::Comm;
use v2d_machine::MultiCostSink;

use crate::hydro::eos::Prim;
use crate::hydro::{GammaLaw, HydroBc};
use crate::sim::{V2dConfig, V2dSim};

use super::scenario::{
    hydro_config, hydro_rho, riemann_exact, Convergence, ConvergenceMode, Family, NormAccum,
    Refinement, Scenario, ValidationReport,
};

/// Physical end time of the registry scenario: waves stay well inside
/// the unit tube.
pub const T_SOD: f64 = 0.12;

/// Sod tube initial condition along x1.
#[derive(Debug, Clone, Copy)]
pub struct SodTube {
    /// Diaphragm position as a fraction of the x1 extent.
    pub interface: f64,
    /// Left / right primitive states.
    pub left: Prim,
    pub right: Prim,
}

impl SodTube {
    /// The classic configuration.
    pub const fn standard() -> Self {
        SodTube {
            interface: 0.5,
            left: Prim { rho: 1.0, u1: 0.0, u2: 0.0, p: 1.0 },
            right: Prim { rho: 0.125, u1: 0.0, u2: 0.0, p: 0.1 },
        }
    }
}

impl Scenario for SodTube {
    fn family(&self) -> Family {
        Family::Sod
    }

    fn describe(&self) -> &'static str {
        "Sod shock tube vs the exact Riemann solution (density L1)"
    }

    fn smoke(&self) -> (usize, usize, usize) {
        (64, 4, 12)
    }

    /// Hydro enabled on a unit tube with outflow walls, radiation
    /// passive.
    fn config(&self, n1: usize, n2: usize, steps: usize) -> V2dConfig {
        hydro_config(
            n1,
            n2,
            steps,
            T_SOD / steps as f64,
            [(0.0, 1.0), (0.0, n2 as f64 / n1 as f64)],
            1.4,
            HydroBc::outflow(),
        )
    }

    /// Set the hydro initial condition (requires hydro enabled).
    fn init(&self, sim: &mut V2dSim) {
        let grid = *sim.grid();
        // The problem's own config() always enables hydro; a caller who
        // disabled it gets only the radiation background below.
        let Some(hcfg) = sim.config().hydro else {
            sim.erad_mut().fill_interior(1e-6);
            return;
        };
        let eos = GammaLaw::new(hcfg.gamma);
        let (iface, left, right) = (self.interface, self.left, self.right);
        let (x1min, x1span) = (grid.global.x1min, grid.global.x1max - grid.global.x1min);
        let Some(state) = sim.hydro_mut() else {
            return;
        };
        for i2 in 0..grid.n2 {
            for i1 in 0..grid.n1 {
                let (g1, _) = grid.to_global(i1, i2);
                let x = (grid.global.x1c(g1) - x1min) / x1span;
                let w = if x < iface { left } else { right };
                state.set_cons(i1 as isize, i2 as isize, eos.to_cons(w));
            }
        }
        // Faint radiation background so the limiter argument is finite.
        sim.erad_mut().fill_interior(1e-6);
    }

    fn validate(&self, sim: &V2dSim, comm: &Comm, sink: &mut MultiCostSink) -> ValidationReport {
        let gamma = sim.config().hydro.map_or(1.4, |h| h.gamma);
        let t = sim.time();
        let grid = sim.grid();
        let x1span = grid.global.x1max - grid.global.x1min;
        let x0 = grid.global.x1min + self.interface * x1span;
        let mut acc = NormAccum::default();
        if let Some(state) = sim.hydro() {
            for i2 in 0..grid.n2 {
                for i1 in 0..grid.n1 {
                    let (g1, _) = grid.to_global(i1, i2);
                    let x = grid.global.x1c(g1);
                    let (rho, _, _) = riemann_exact(self.left, self.right, gamma, (x - x0) / t);
                    acc.push(state.rho.get(0, i1 as isize, i2 as isize), rho);
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
            pass: l1 < tolerance,
            detail: format!("rho vs exact Riemann at t={t:.4} (leading norm: l1)"),
        }
    }

    fn convergence(&self) -> Convergence {
        Convergence {
            mode: ConvergenceMode::Analytic,
            refine: Refinement::Space,
            base: (32, 4, 12),
            min_order: 0.6,
        }
    }

    fn study_field(&self, sim: &V2dSim) -> Vec<f64> {
        hydro_rho(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2;
    use v2d_comm::{Spmd, TileMap};
    use v2d_machine::CompilerProfile;

    #[test]
    fn coupled_sod_run_develops_a_shock() {
        let (n1, n2) = (64, 4);
        let mut cfg = SodTube::standard().config(n1, n2, 10);
        cfg.dt = 2e-3;
        Spmd::new(2).with_profiles(vec![CompilerProfile::cray_opt()]).run(|ctx| {
            let map = TileMap::new(n1, n2, 2, 1);
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            SodTube::standard().init(&mut sim);
            let agg = sim.run(&ctx.comm, &mut ctx.sink);
            assert_eq!(agg.steps, 10);
            // Gas is moving somewhere on this rank's tile or the
            // other's; check the local max velocity via the fields.
            let grid = *sim.grid();
            let st = sim.hydro().unwrap();
            let mut max_u = 0.0f64;
            for i2 in 0..grid.n2 as isize {
                for i1 in 0..grid.n1 as isize {
                    max_u = max_u.max((st.m1.get(0, i1, i2) / st.rho.get(0, i1, i2)).abs());
                }
            }
            let global_max =
                ctx.comm.allreduce_scalar(&mut ctx.sink, v2d_comm::ReduceOp::Max, max_u);
            assert!(global_max > 0.2, "no flow developed: {global_max}");
        });
    }

    #[test]
    fn sod_diaphragm_sits_mid_domain_on_a_grid_not_starting_at_zero() {
        // `x1 = 1.0 2.0`: init must place the diaphragm at x1 = 1.5,
        // where the scenario's validation expects it.
        let tube = SodTube::standard();
        let (n1, n2, steps) = tube.smoke();
        let mut cfg = tube.config(n1, n2, steps);
        cfg.grid =
            Grid2::new(n1, n2, (1.0, 2.0), (cfg.grid.x2min, cfg.grid.x2max), cfg.grid.geometry);
        Spmd::new(1).with_profiles(vec![CompilerProfile::cray_opt()]).run(|ctx| {
            let map = TileMap::new(n1, n2, 1, 1);
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            tube.init(&mut sim);
            let rho = &sim.hydro().expect("sod runs hydro").rho;
            for i1 in 0..n1 {
                let want = if i1 < n1 / 2 { 1.0 } else { 0.125 };
                assert_eq!(rho.get(0, i1 as isize, 0), want, "zone {i1} starts in the wrong state");
            }
            sim.run(&ctx.comm, &mut ctx.sink);
            let rep = tube.validate(&sim, &ctx.comm, &mut ctx.sink);
            assert!(rep.pass, "shifted sod fails its own validation: {rep}");
        });
    }
}
