//! The Sod shock tube: the hydro module's standard verification problem.

use v2d_linalg::SolveOpts;

use crate::grid::{Geometry, Grid2};
use crate::hydro::eos::Prim;
use crate::limiter::Limiter;
use crate::opacity::OpacityModel;
use crate::sim::{HydroConfig, PrecondKind, V2dConfig, V2dSim};

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
    pub fn standard() -> Self {
        SodTube {
            interface: 0.5,
            left: Prim { rho: 1.0, u1: 0.0, u2: 0.0, p: 1.0 },
            right: Prim { rho: 0.125, u1: 0.0, u2: 0.0, p: 0.1 },
        }
    }

    /// A V2D configuration with hydro enabled and a passive radiation
    /// field (the radiation update still runs — it is part of the code
    /// path — but with negligible energy).
    pub fn config(n1: usize, n2: usize, n_steps: usize, dt: f64) -> V2dConfig {
        V2dConfig {
            grid: Grid2::new(n1, n2, (0.0, 1.0), (0.0, n2 as f64 / n1 as f64), Geometry::Cartesian),
            limiter: Limiter::LevermorePomraning,
            opacity: OpacityModel::test_problem(),
            c_light: 1.0,
            dt,
            n_steps,
            precond: PrecondKind::BlockJacobi,
            solve: SolveOpts::default(),
            hydro: Some(HydroConfig { gamma: 1.4, cfl: 0.4, bc: crate::hydro::HydroBc::outflow() }),
            coupling: None,
        }
    }

    /// Set the hydro initial condition (requires hydro enabled).
    pub fn init(&self, sim: &mut V2dSim) {
        let grid = *sim.grid();
        // The problem's own config() always enables hydro; a caller who
        // disabled it gets only the radiation background below.
        let Some(hcfg) = sim.config().hydro else {
            sim.erad_mut().fill_interior(1e-6);
            return;
        };
        let eos = crate::hydro::GammaLaw::new(hcfg.gamma);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2d_comm::{Spmd, TileMap};
    use v2d_machine::CompilerProfile;

    #[test]
    fn coupled_sod_run_develops_a_shock() {
        let (n1, n2) = (64, 4);
        let cfg = SodTube::config(n1, n2, 10, 2e-3);
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
}
