//! Quickstart: solve one implicit radiation step and inspect everything
//! the stack gives you — the solution, the solver statistics, and the
//! simulated A64FX timings under all four compiler models.
//!
//! Run with: `cargo run --release --example quickstart`

use v2d::comm::{Spmd, TileMap};
use v2d::core::problems::{GaussianPulse, Scenario};
use v2d::core::sim::V2dSim;

fn main() {
    // The paper's test problem, scaled down to a laptop-friendly size:
    // a 2-D Gaussian radiation pulse, two species, implicit diffusion.
    let (n1, n2, steps) = (80, 40, 5);
    let cfg = GaussianPulse::scaled_config(n1, n2, steps);

    println!("V2D quickstart — {n1}×{n2} zones × 2 species, {steps} steps");
    println!("(each step solves three x1·x2·2 systems with ganged-reduction BiCGSTAB)\n");

    // Four ranks in a 2×2 Cartesian topology, exactly like an MPI run.
    let results = Spmd::new(4).run(|ctx| {
        let map = TileMap::new(n1, n2, 2, 2);
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        GaussianPulse::standard().init(&mut sim);

        let e0 = sim.total_radiation_energy(&ctx.comm, &mut ctx.sink);
        let starts: Vec<_> = ctx.sink.lanes.iter().map(|l| l.clock.now()).collect();
        let agg = sim.run(&ctx.comm, &mut ctx.sink);
        let times: Vec<(String, f64)> = starts
            .into_iter()
            .zip(&ctx.sink.lanes)
            .map(|(start, lane)| {
                let secs = (lane.clock.now() - start).as_secs();
                (lane.profile.id.label().to_string(), secs)
            })
            .collect();
        let e1 = sim.total_radiation_energy(&ctx.comm, &mut ctx.sink);
        (agg, e0, e1, times, sim.profiler_report(&ctx.sink))
    });

    let (agg, e0, e1, times, profile) = &results[0];
    println!(
        "solves: {} ({} BiCGSTAB iterations, {} global reductions)",
        agg.total_solves, agg.total_iters, agg.total_reductions
    );
    println!("radiation energy: {e0:.6} → {e1:.6} (absorption + boundary losses)\n");

    println!("simulated wall time on the modeled A64FX (4 ranks):");
    for (label, secs) in times {
        println!("  {label:<14} {secs:8.3} s");
    }

    // The profiler times lane 0, the first row of the list above.
    println!("\nTAU-style profile of rank 0 ({} lane):", times[0].0);
    println!("{profile}");
}
