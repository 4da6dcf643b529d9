//! A miniature of the paper's Table I methodology: vary the process
//! count and topology at fixed problem size and watch the
//! compute/communication trade-off per compiler model.
//!
//! Run with: `cargo run --release --example scaling_study`
//! (a few native minutes; pass a smaller step count to go faster, e.g.
//! `-- 5`)

use v2d::comm::{Spmd, TileMap};
use v2d::core::problems::{GaussianPulse, Scenario};
use v2d::core::sim::V2dSim;
use v2d::machine::CompilerId;

fn main() {
    let steps: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(10);
    let (n1, n2) = (200, 100);
    let cfg = GaussianPulse::scaled_config(n1, n2, steps);

    println!("scaling study — {n1}×{n2}×2, {steps} steps (3 solves each)\n");
    println!(
        "{:>4} {:>9} | {:>10} {:>10} {:>10} | {:>10}",
        "Np", "topology", "GNU", "Fujitsu", "Cray(opt)", "Cray MPI s"
    );

    for (nx1, nx2) in [(1, 1), (4, 1), (2, 2), (10, 1), (5, 2), (20, 1), (5, 4)] {
        let np = nx1 * nx2;
        let map = TileMap::new(n1, n2, nx1, nx2);
        let outs = Spmd::new(np).run(move |ctx| {
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            GaussianPulse::standard().init(&mut sim);
            sim.run(&ctx.comm, &mut ctx.sink);
            let t = |id: CompilerId| {
                ctx.sink
                    .lanes
                    .iter()
                    .find(|l| l.profile.id == id)
                    .map(|l| l.elapsed_secs())
                    .unwrap_or(f64::NAN)
            };
            let mpi = ctx
                .sink
                .lanes
                .iter()
                .find(|l| l.profile.id == CompilerId::CrayOpt)
                .map(|l| l.mpi_secs())
                .unwrap_or(0.0);
            (t(CompilerId::Gnu), t(CompilerId::Fujitsu), t(CompilerId::CrayOpt), mpi)
        });
        type RankTimes = (f64, f64, f64, f64);
        let fold = |f: &dyn Fn(&RankTimes) -> f64| outs.iter().map(f).fold(0.0f64, f64::max);
        println!(
            "{:>4} {:>6}×{:<2} | {:>10.2} {:>10.2} {:>10.2} | {:>10.2}",
            np,
            nx1,
            nx2,
            fold(&|o| o.0),
            fold(&|o| o.1),
            fold(&|o| o.2),
            fold(&|o| o.3),
        );
    }

    println!("\nObservations to look for (cf. Table I of the paper):");
    println!(" * all compilers gain from more ranks until communication bites;");
    println!(" * squarer topologies beat strips at equal Np (smaller halo volume);");
    println!(" * the Fujitsu model's MPI stays flat while Cray/GNU grow with Np.");
}
