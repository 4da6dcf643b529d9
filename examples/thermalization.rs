//! Matter–radiation thermalization: the multi-physics exchange the
//! paper's benchmark deliberately freezes, run live.  Cold gas sits in a
//! hot two-species radiation bath; emission (`c·κ_a·f_s·aT⁴`) feeds the
//! implicit radiation solves and an implicit Newton update closes the
//! gas energy equation each step.  The run prints the approach to the
//! analytic joint equilibrium.
//!
//! Run with: `cargo run --release --example thermalization`

use v2d::comm::{Spmd, TileMap};
use v2d::core::problems::{MatterRelaxation, Scenario};
use v2d::core::sim::V2dSim;

fn main() {
    let prob = MatterRelaxation::standard();
    let (n1, n2) = (16, 16);
    let mut cfg = prob.config(n1, n2, 200); // stepped manually below
    cfg.dt = 0.02;
    let t_eq = prob.equilibrium_temperature();

    println!("matter–radiation thermalization — {n1}×{n2}, 2 ranks");
    println!(
        "initial: T = {}, E = {:?};  analytic equilibrium: T_eq = {t_eq:.6}, E_s^eq = f_s·a·T_eq⁴\n",
        prob.t0, prob.e0
    );

    let history = Spmd::new(2).run(|ctx| {
        let map = TileMap::new(n1, n2, 2, 1);
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        prob.init(&mut sim);
        let mut rows = Vec::new();
        for step in 0..=200 {
            if step % 20 == 0 {
                let t = sim.temperature().unwrap().get(0, 4, 8);
                let e0 = sim.erad().get(0, 4, 8);
                let e1 = sim.erad().get(1, 4, 8);
                rows.push((sim.time(), t, e0, e1));
            }
            if step < 200 {
                sim.step(&ctx.comm, &mut ctx.sink);
            }
        }
        rows
    });

    println!("{:>8} {:>10} {:>10} {:>10} {:>12}", "time", "T_gas", "E_0", "E_1", "total energy");
    for (t, tg, e0, e1) in &history[0] {
        println!(
            "{t:>8.2} {tg:>10.6} {e0:>10.6} {e1:>10.6} {:>12.6}",
            prob.coupling.cv * tg + e0 + e1
        );
    }
    let (_, tg, ..) = history[0].last().unwrap();
    println!("\nfinal T = {tg:.6} vs analytic {t_eq:.6} ({:+.3}%)", 100.0 * (tg - t_eq) / t_eq);
    println!("total energy column is conserved: the exchange only moves energy");
    println!("between the gas and the two radiation species.");
}
