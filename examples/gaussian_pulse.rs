//! The paper's radiation test problem, with verification against the
//! closed-form linear-diffusion solution.
//!
//! Runs the linear variant (no limiter, constant scattering opacity) of
//! the 2-D Gaussian pulse, prints the radial profile next to the
//! analytic solution, and reports the relative L2 error — then runs the
//! full nonlinear variant (Levermore–Pomraning limiter, absorption and
//! species exchange) and shows how the physics changes the pulse.
//!
//! Run with: `cargo run --release --example gaussian_pulse`

use v2d::comm::{coll_site, Spmd, TileMap};
use v2d::core::problems::{GaussianPulse, Scenario};
use v2d::core::sim::V2dSim;

fn main() {
    let (n1, n2) = (100, 50);

    // ---- linear variant: verify against the analytic solution ----
    let mut cfg = GaussianPulse::linear_config(n1, n2, 40);
    cfg.dt = 0.002;
    let pulse = GaussianPulse { sigma: 0.15, ..GaussianPulse::standard() };

    println!("LINEAR GAUSSIAN PULSE — {n1}×{n2}, {} steps of dt = {}", cfg.n_steps, cfg.dt);
    let (profile, err, t) = Spmd::new(2)
        .run(|ctx| {
            let map = TileMap::new(n1, n2, 2, 1);
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            pulse.init(&mut sim);
            sim.run(&ctx.comm, &mut ctx.sink);
            let d = GaussianPulse::linear_diffusion_coefficient(&cfg);
            let grid = *sim.grid();
            let t = sim.time();
            // Radial profile along y = 0.5 (global row), plus L2 error.
            let mut prof = Vec::new();
            let mut num = 0.0;
            let mut den = 0.0;
            for i2 in 0..grid.n2 {
                for i1 in 0..grid.n1 {
                    let (x, y) = grid.center(i1, i2);
                    let got = sim.erad().get(0, i1 as isize, i2 as isize);
                    let want = pulse.analytic(d, x, y, t);
                    num += (got - want) * (got - want);
                    den += want * want;
                    if (y - 0.51).abs() < 0.02 && i1 % 5 == 0 {
                        prof.push((x, got, want));
                    }
                }
            }
            let num = ctx.comm.allreduce_scalar(&mut ctx.sink, v2d::comm::ReduceOp::Sum, num);
            let den = ctx.comm.allreduce_scalar(&mut ctx.sink, v2d::comm::ReduceOp::Sum, den);
            let prof_flat: Vec<f64> = prof.iter().flat_map(|&(a, b, c)| [a, b, c]).collect();
            let all = ctx
                .comm
                .try_allgatherv(&mut ctx.sink, coll_site::UNTAGGED, &prof_flat)
                .expect("gather");
            ((num / den).sqrt(), all, t)
        })
        .into_iter()
        .next()
        .map(|(e, p, t)| (p, e, t))
        .expect("rank 0 output");

    println!("  t = {t:.4}, relative L2 error vs analytic: {err:.2e}\n");
    println!("  {:>7} {:>12} {:>12}", "x", "numerical", "analytic");
    for chunk in profile.chunks(3) {
        println!("  {:>7.3} {:>12.6} {:>12.6}", chunk[0], chunk[1], chunk[2]);
    }

    // ---- the study's nonlinear configuration ----
    let cfg_full = GaussianPulse::scaled_config(n1, n2, 20);
    println!("\nNONLINEAR VARIANT (Levermore–Pomraning, absorption + exchange), 20 steps:");
    let summary = Spmd::new(2).run(|ctx| {
        let map = TileMap::new(n1, n2, 2, 1);
        let mut sim = V2dSim::new(cfg_full, &ctx.comm, map);
        GaussianPulse::standard().init(&mut sim);
        let e0 = sim.total_radiation_energy(&ctx.comm, &mut ctx.sink);
        let agg = sim.run(&ctx.comm, &mut ctx.sink);
        let e1 = sim.total_radiation_energy(&ctx.comm, &mut ctx.sink);
        (e0, e1, agg.total_iters as f64 / agg.total_solves as f64)
    });
    let (e0, e1, iters) = summary[0];
    println!("  energy {e0:.5} → {e1:.5} (absorbed), mean {iters:.1} BiCGSTAB iters/solve");
}
