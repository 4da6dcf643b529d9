//! The Sedov–Taylor blast: a point-like energy deposition driving a
//! self-similar cylindrical shock through a cold uniform medium, run in
//! a closed (reflecting) box.
//!
//! In 2-D planar geometry the similarity solution predicts the shock
//! radius
//!
//! ```text
//! R(t) = ξ₀ (E t² / ρ)^(1/4)
//! ```
//!
//! with ξ₀ an O(1) constant (≈ 1.0 for γ = 1.4).  Validation grades
//! three things: exact mass conservation and near-exact total-energy
//! conservation (the closed box makes both invariants of the scheme up
//! to roundoff), and the swept-shell radius against the similarity law
//! within a generous band (the blast is only a few zones wide at smoke
//! resolution).  The convergence study self-converges the density field
//! under spatial refinement.

use v2d_comm::{Comm, ReduceOp};
use v2d_machine::MultiCostSink;

use crate::hydro::eos::Prim;
use crate::hydro::{GammaLaw, HydroBc};
use crate::sim::{V2dConfig, V2dSim};

use super::scenario::{
    hydro_config, hydro_rho, Convergence, ConvergenceMode, Family, Refinement, Scenario,
    ValidationReport,
};

/// Physical end time: the shock reaches R ≈ 0.22, well inside the unit
/// box.
pub const T_SEDOV: f64 = 0.05;

/// Blast energy (per unit length — 2-D planar).
pub const E_BLAST: f64 = 1.0;

/// Initial deposition radius (resolution-independent, so refinement
/// studies converge to one solution).
pub const R_DEPOSIT: f64 = 0.12;

/// Ambient density / pressure.
pub const RHO_AMBIENT: f64 = 1.0;
/// Ambient pressure (small but finite: the EOS needs p > 0 everywhere).
pub const P_AMBIENT: f64 = 1e-4;

/// Similarity constant ξ₀ for γ = 1.4 in 2-D planar geometry.
pub const XI_SEDOV: f64 = 1.0;

/// The Sedov–Taylor blast scenario.
pub struct SedovScenario;

impl SedovScenario {
    /// The blast-region overpressure realizing `E_BLAST` inside
    /// `R_DEPOSIT`: `p = (γ−1) E / (π r₀²)`.
    pub fn blast_pressure(gamma: f64) -> f64 {
        (gamma - 1.0) * E_BLAST / (std::f64::consts::PI * R_DEPOSIT * R_DEPOSIT)
    }

    /// The similarity shock radius at time `t`.
    pub fn shock_radius(t: f64) -> f64 {
        XI_SEDOV * (E_BLAST * t * t / RHO_AMBIENT).powf(0.25)
    }
}

impl Scenario for SedovScenario {
    fn family(&self) -> Family {
        Family::Sedov
    }

    fn describe(&self) -> &'static str {
        "Sedov-Taylor blast in a closed box: conservation + similarity radius"
    }

    fn smoke(&self) -> (usize, usize, usize) {
        (48, 48, 5)
    }

    fn config(&self, n1: usize, n2: usize, steps: usize) -> V2dConfig {
        hydro_config(
            n1,
            n2,
            steps,
            T_SEDOV / steps as f64,
            [(0.0, 1.0), (0.0, 1.0)],
            1.4,
            HydroBc::closed_box(),
        )
    }

    fn init(&self, sim: &mut V2dSim) {
        let grid = *sim.grid();
        let Some(hcfg) = sim.config().hydro else {
            sim.erad_mut().fill_interior(1e-6);
            return;
        };
        let eos = GammaLaw::new(hcfg.gamma);
        let p_in = Self::blast_pressure(hcfg.gamma);
        if let Some(state) = sim.hydro_mut() {
            for i2 in 0..grid.n2 {
                for i1 in 0..grid.n1 {
                    let (x, y) = grid.center(i1, i2);
                    let r = ((x - 0.5).powi(2) + (y - 0.5).powi(2)).sqrt();
                    let p = if r < R_DEPOSIT { p_in } else { P_AMBIENT };
                    state.set_cons(
                        i1 as isize,
                        i2 as isize,
                        eos.to_cons(Prim { rho: RHO_AMBIENT, u1: 0.0, u2: 0.0, p }),
                    );
                }
            }
        }
        sim.erad_mut().fill_interior(1e-6);
    }

    fn validate(&self, sim: &V2dSim, comm: &Comm, sink: &mut MultiCostSink) -> ValidationReport {
        let grid = sim.grid();
        let (mut mass, mut etot) = (0.0f64, 0.0f64);
        // Swept-shell radius: density-excess-weighted mean radius.  A
        // thin shell carries nearly all the excess, so this tracks the
        // shock position (slightly inside it — the band absorbs that).
        let (mut wsum, mut wr) = (0.0f64, 0.0f64);
        if let Some(state) = sim.hydro() {
            for i2 in 0..grid.n2 {
                for i1 in 0..grid.n1 {
                    let (g1, g2) = grid.to_global(i1, i2);
                    let vol = grid.global.volume(g1, g2);
                    let rho = state.rho.get(0, i1 as isize, i2 as isize);
                    mass += rho * vol;
                    etot += state.etot.get(0, i1 as isize, i2 as isize) * vol;
                    let (x, y) = grid.center(i1, i2);
                    let r = ((x - 0.5).powi(2) + (y - 0.5).powi(2)).sqrt();
                    let w = (rho - RHO_AMBIENT).max(0.0) * vol;
                    wsum += w;
                    wr += w * r;
                }
            }
        }
        let sum = |sink: &mut MultiCostSink, v: f64| comm.allreduce_scalar(sink, ReduceOp::Sum, v);
        let mass = sum(sink, mass);
        let etot = sum(sink, etot);
        let wsum = sum(sink, wsum).max(f64::MIN_POSITIVE);
        let wr = sum(sink, wr);
        // Initial invariants are known in closed form up to the grid
        // sampling of the deposition circle — so compare against the
        // *sampled* initial values, which validate() reconstructs by
        // replaying init's arithmetic on the global grid.
        let gamma = sim.config().hydro.map_or(1.4, |h| h.gamma);
        let p_in = Self::blast_pressure(gamma);
        let g = &grid.global;
        let (mut mass0, mut etot0) = (0.0f64, 0.0f64);
        for g2 in 0..g.n2 {
            for g1 in 0..g.n1 {
                let (x, y) = (g.x1c(g1), g.x2c(g2));
                let r = ((x - 0.5).powi(2) + (y - 0.5).powi(2)).sqrt();
                let p = if r < R_DEPOSIT { p_in } else { P_AMBIENT };
                let vol = g.volume(g1, g2);
                mass0 += RHO_AMBIENT * vol;
                etot0 += p / (gamma - 1.0) * vol;
            }
        }
        let l1 = ((mass - mass0) / mass0).abs();
        let l2 = ((etot - etot0) / etot0).abs();
        let r_shell = wr / wsum;
        let r_sedov = Self::shock_radius(sim.time());
        let linf = ((r_shell - r_sedov) / r_sedov).abs();
        let tolerance = 1e-10;
        ValidationReport {
            family: self.family().name(),
            l1,
            l2,
            linf,
            tolerance,
            pass: l1 < tolerance && l2 < tolerance && linf < 0.35,
            detail: format!(
                "mass drift {l1:.2e}, energy drift {l2:.2e}; shell r={r_shell:.3} vs Sedov {r_sedov:.3}"
            ),
        }
    }

    fn convergence(&self) -> Convergence {
        Convergence {
            mode: ConvergenceMode::SelfConvergence,
            refine: Refinement::Space,
            base: (24, 24, 5),
            min_order: 0.5,
        }
    }

    fn study_field(&self, sim: &V2dSim) -> Vec<f64> {
        hydro_rho(sim)
    }
}
