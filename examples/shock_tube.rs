//! The Sod shock tube through the coupled V2D driver: explicit
//! MUSCL/HLL hydrodynamics subcycled under the implicit radiation
//! update — the full multi-physics code path of V2D (which the paper's
//! radiation benchmark deliberately freezes).
//!
//! Prints the density, velocity, and pressure profile at t ≈ 0.2 with
//! the classic Sod wave structure annotated.
//!
//! Run with: `cargo run --release --example shock_tube`

use v2d::comm::{Spmd, TileMap};
use v2d::core::hydro::GammaLaw;
use v2d::core::problems::{Scenario, SodTube};
use v2d::core::sim::V2dSim;

fn main() {
    let (n1, n2) = (200, 4);
    let (dt, steps) = (2.5e-3, 80); // t_final = 0.2
    let tube = SodTube::standard();
    let mut cfg = tube.config(n1, n2, steps);
    cfg.dt = dt;

    println!("Sod shock tube — {n1} zones, γ = 1.4, t = {}\n", dt * steps as f64);

    let rows = Spmd::new(2).run(|ctx| {
        let map = TileMap::new(n1, n2, 2, 1);
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        tube.init(&mut sim);
        sim.run(&ctx.comm, &mut ctx.sink);
        let eos = GammaLaw::new(1.4);
        let grid = *sim.grid();
        let st = sim.hydro().expect("hydro enabled");
        let mut out = Vec::new();
        for i1 in (0..grid.n1).step_by(5) {
            let w = eos.to_prim(st.cons(i1 as isize, 1)).expect("a physical state");
            let (x, _) = grid.center(i1, 1);
            out.push((x, w.rho, w.u1, w.p));
        }
        out
    });

    println!("{:>7} {:>9} {:>9} {:>9}", "x", "rho", "u", "p");
    let mut all: Vec<_> = rows.into_iter().flatten().collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (x, rho, u, p) in &all {
        let marker = if *u > 0.05 && *rho > 0.9 {
            "  ← rarefaction fan"
        } else if *u > 0.5 && (*rho - 0.426).abs() < 0.08 {
            "  ← post-contact"
        } else if *u > 0.5 && (*rho - 0.266).abs() < 0.05 {
            "  ← post-shock"
        } else {
            ""
        };
        println!("{x:>7.3} {rho:>9.4} {u:>9.4} {p:>9.4}{marker}");
    }

    // Exact Sod reference values for the intermediate states.
    println!("\nexact reference: post-contact rho ≈ 0.4263, post-shock rho ≈ 0.2656,");
    println!("                 plateau u ≈ 0.9274, plateau p ≈ 0.3031");
}
