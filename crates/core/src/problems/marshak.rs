//! Matter–radiation relaxation ("Marshak-style" thermalization): a
//! closed, optically thick box where cold gas and hot radiation relax
//! toward the joint equilibrium
//!
//! ```text
//! E_s^eq = f_s · a · (T^eq)⁴,   c_v T^eq + a (T^eq)⁴ = c_v T⁰ + Σ_s E_s⁰
//! ```
//!
//! (total energy conservation plus emission/absorption balance).  This
//! exercises the full V2D code path the Table I benchmark freezes: the
//! emission source feeds the implicit radiation solve and the Newton
//! matter update closes the exchange.
//!
//! The registry scenario grades every zone's `(E₀, E₁, T)` against a
//! fine-step RK4 integration of the 0-D coupling ODE.

use v2d_comm::Comm;
use v2d_linalg::SolveOpts;
use v2d_machine::MultiCostSink;

use crate::grid::{Geometry, Grid2};
use crate::limiter::Limiter;
use crate::opacity::OpacityModel;
use crate::rad::coupling::MatterCoupling;
use crate::sim::{PrecondKind, V2dConfig, V2dSim};

use super::scenario::{
    coupling_ode_reference, Convergence, ConvergenceMode, Family, NormAccum, Refinement, Scenario,
    ValidationReport,
};

/// Physical end time of the registry scenario (the proven 8×8×300
/// verification setting integrates to t = 6).
pub const T_MARSHAK: f64 = 6.0;

/// Uniform initial state for the thermalization problem.
#[derive(Debug, Clone, Copy)]
pub struct MatterRelaxation {
    /// Initial radiation energy per species.
    pub e0: [f64; 2],
    /// Initial gas temperature.
    pub t0: f64,
    /// The coupling closure.
    pub coupling: MatterCoupling,
}

impl MatterRelaxation {
    /// A standard hot-radiation / cold-gas setup.
    pub const fn standard() -> Self {
        MatterRelaxation {
            e0: [1.0, 1.0],
            t0: 0.5,
            coupling: MatterCoupling { cv: 1.0, a_rad: 1.0, split: [0.5, 0.5] },
        }
    }

    /// The equilibrium temperature: solves
    /// `c_v T + a T⁴ = c_v T⁰ + ΣE⁰` by bisection.
    pub fn equilibrium_temperature(&self) -> f64 {
        let cp = &self.coupling;
        let budget = cp.cv * self.t0 + self.e0.iter().sum::<f64>();
        let f = |t: f64| cp.cv * t + cp.a_rad * t.powi(4) - budget;
        let (mut lo, mut hi) = (0.0, budget / cp.cv + 1.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if f(mid) > 0.0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

impl Scenario for MatterRelaxation {
    fn family(&self) -> Family {
        Family::Marshak
    }

    fn describe(&self) -> &'static str {
        "matter-radiation thermalization vs the 0-D coupling ODE (RK4 reference)"
    }

    fn smoke(&self) -> (usize, usize, usize) {
        (8, 8, 120)
    }

    /// Optically thick (huge scattering kills boundary diffusion
    /// losses), moderate absorption driving the exchange.
    fn config(&self, n1: usize, n2: usize, steps: usize) -> V2dConfig {
        V2dConfig {
            grid: Grid2::new(n1, n2, (0.0, 1.0), (0.0, 1.0), Geometry::Cartesian),
            limiter: Limiter::None,
            // κ_s = 1e8 suppresses the Dirichlet-0 wall leak, a
            // dt-independent error floor that would flatten the
            // time-refinement convergence study.
            opacity: OpacityModel { kappa_a: [0.4, 0.4], kappa_s: [1e8, 1e8], kappa_x: 0.0 },
            c_light: 1.0,
            dt: T_MARSHAK / steps as f64,
            n_steps: steps,
            precond: PrecondKind::BlockJacobi,
            solve: SolveOpts { tol: 1e-12, ..Default::default() },
            hydro: None,
            coupling: Some(self.coupling),
        }
    }

    /// Set the uniform initial fields.
    fn init(&self, sim: &mut V2dSim) {
        let e0 = self.e0;
        sim.erad_mut().fill_with(|s, _, _| e0[s]);
        let t0 = self.t0;
        // The problem's own config() always enables coupling; a caller
        // who disabled it gets radiation-only initial conditions.
        if let Some(temp) = sim.temperature_mut() {
            temp.fill_interior(t0);
        }
    }

    fn validate(&self, sim: &V2dSim, comm: &Comm, sink: &mut MultiCostSink) -> ValidationReport {
        let cfg = sim.config();
        let (e_ref, t_ref) = coupling_ode_reference(
            self.e0,
            self.t0,
            cfg.c_light,
            cfg.opacity.kappa_a,
            &self.coupling,
            sim.time(),
            20_000,
        );
        let grid = sim.grid();
        // Uniform fields: grade every zone's (E0, E1, T) triple against
        // the ODE reference.
        let mut acc = NormAccum::default();
        for i2 in 0..grid.n2 {
            for i1 in 0..grid.n1 {
                let (i1, i2) = (i1 as isize, i2 as isize);
                acc.push(sim.erad().get(0, i1, i2), e_ref[0]);
                acc.push(sim.erad().get(1, i1, i2), e_ref[1]);
                if let Some(temp) = sim.temperature() {
                    acc.push(temp.get(0, i1, i2), t_ref);
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
                "(E0,E1,T) vs RK4 ODE; T_eq analytic {:.4}",
                self.equilibrium_temperature()
            ),
        }
    }

    fn convergence(&self) -> Convergence {
        Convergence {
            mode: ConvergenceMode::Analytic,
            refine: Refinement::Time,
            base: (8, 8, 60),
            min_order: 0.8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2d_comm::{Spmd, TileMap};
    use v2d_machine::CompilerProfile;

    #[test]
    fn equilibrium_temperature_solves_the_budget() {
        let p = MatterRelaxation::standard();
        let t = p.equilibrium_temperature();
        let cp = &p.coupling;
        let budget = cp.cv * p.t0 + 2.0;
        assert!((cp.cv * t + cp.a_rad * t.powi(4) - budget).abs() < 1e-10);
    }

    #[test]
    fn gas_and_radiation_thermalize_and_conserve_energy() {
        let p = MatterRelaxation::standard();
        // Small dt (T_MARSHAK / 300 = 0.02) keeps the first-order
        // splitting error in the energy budget below the assertion
        // tolerance.
        let cfg = p.config(8, 8, 300);
        Spmd::new(1).with_profiles(vec![CompilerProfile::cray_opt()]).run(|ctx| {
            let map = TileMap::new(8, 8, 1, 1);
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            p.init(&mut sim);
            let total0 = p.coupling.cv * p.t0 + p.e0.iter().sum::<f64>();
            sim.run(&ctx.comm, &mut ctx.sink);

            let t = sim.temperature().unwrap().get(0, 4, 4);
            let e0 = sim.erad().get(0, 4, 4);
            let e1 = sim.erad().get(1, 4, 4);
            let t_eq = p.equilibrium_temperature();
            assert!(
                (t - t_eq).abs() < 0.02 * t_eq,
                "gas did not thermalize: T = {t}, expected {t_eq}"
            );
            // Radiation must sit on the Planck curve per species.
            for (s, e) in [e0, e1].into_iter().enumerate() {
                let want = p.coupling.emission(s, t);
                assert!(
                    (e - want).abs() < 0.03 * want,
                    "species {s} off the emission curve: {e} vs {want}"
                );
            }
            // Total (gas + radiation) energy conserved up to the tiny
            // boundary diffusion loss.
            let total1 = p.coupling.cv * t + e0 + e1;
            assert!(
                ((total1 - total0) / total0).abs() < 0.015,
                "energy budget broken: {total0} → {total1}"
            );
        });
    }

    #[test]
    fn cold_radiation_heats_from_hot_gas() {
        // Reverse direction: hot gas, cold radiation.
        let p = MatterRelaxation {
            e0: [1e-4, 1e-4],
            t0: 1.5,
            coupling: MatterCoupling::new(2.0, 0.5, [0.7, 0.3]),
        };
        let mut cfg = p.config(6, 6, 150);
        cfg.dt = 0.05;
        Spmd::new(1).with_profiles(vec![CompilerProfile::cray_opt()]).run(|ctx| {
            let map = TileMap::new(6, 6, 1, 1);
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            p.init(&mut sim);
            sim.run(&ctx.comm, &mut ctx.sink);
            let t = sim.temperature().unwrap().get(0, 3, 3);
            assert!(t < p.t0, "gas should cool while radiating: T = {t}");
            let e0 = sim.erad().get(0, 3, 3);
            let e1 = sim.erad().get(1, 3, 3);
            assert!(e0 > 1e-3 && e1 > 1e-3, "radiation field did not heat: {e0}, {e1}");
            // Uneven split: species 0 receives more.
            assert!(e0 > e1, "split ordering violated: {e0} vs {e1}");
        });
    }
}
