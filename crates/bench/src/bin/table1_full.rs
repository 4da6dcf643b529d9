//! The full ≤ 50-rank Table I grid plus the O(1000)-rank weak-scaling
//! curve — the two sweeps the discrete-event rank scheduler unlocks.
//!
//! Usage: `table1_full`
//!
//! Unlike `table1` (the paper's twelve topologies at full problem
//! size), this sweeps *every* NX1×NX2 factorization up to 50 ranks on a
//! quarter-size pulse, then holds per-rank work fixed while scaling a
//! strip topology to 1024 ranks.  All times are modeled virtual clocks:
//! deterministic, bit-identical across invocations, independent of the
//! host.  The whole run fits in a CI smoke budget (well under a
//! minute).

use v2d_bench::table1;
use v2d_core::problems::GaussianPulse;

/// Ranks of the grid sweep (the paper's Table I maximum).
const MAX_NP: usize = 50;

/// Grid-sweep problem: a reduced 50×50 Gaussian pulse (the smallest
/// square on which every ≤ 50-rank factorization still gives each rank
/// at least one zone per direction), one timestep — three BiCGSTAB
/// solves per topology, enough to exercise halo exchange and ganged
/// reductions on every tiling while the 207-topology sweep stays
/// inside a CI smoke budget.
const GRID_N1: usize = 50;
const GRID_N2: usize = 50;
const GRID_STEPS: usize = 1;

/// Timesteps of each weak-scaling point (one is enough: the curve
/// reads per-rank efficiency off the modeled clocks, which a single
/// step already fixes bit-for-bit).
const WEAK_STEPS: usize = 1;

fn main() {
    let grid = table1::full_grid(MAX_NP);
    let cfg = GaussianPulse::scaled_config(GRID_N1, GRID_N2, GRID_STEPS);
    eprintln!(
        "running {} topologies of the {GRID_N1}×{GRID_N2}×2 pulse, {GRID_STEPS} step(s) each…",
        grid.len()
    );
    let t0 = std::time::Instant::now();
    let rows: Vec<table1::Row> =
        grid.iter().map(|&(nx1, nx2)| table1::run_topology(&cfg, nx1, nx2)).collect();
    eprintln!("grid sweep: {:.1} s wall", t0.elapsed().as_secs_f64());
    println!("{}", table1::format_full(&rows));

    eprintln!("running {} weak-scaling points up to 1024 ranks…", table1::WEAK_RANKS.len());
    let t0 = std::time::Instant::now();
    let weak: Vec<table1::Row> =
        table1::WEAK_RANKS.iter().map(|&np| table1::run_weak_point(np, WEAK_STEPS)).collect();
    eprintln!("weak-scaling sweep: {:.1} s wall", t0.elapsed().as_secs_f64());
    println!("{}", table1::format_weak(&weak));
}
