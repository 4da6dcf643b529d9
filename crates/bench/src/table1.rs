//! Table I — "Times by Compiler".
//!
//! For each process topology of the paper, run the Gaussian-pulse
//! problem natively under the SPMD substrate; every kernel and message
//! charges all four compiler lanes at once, so a single run yields the
//! whole row.  The reported time per cell is the per-rank maximum of the
//! simulated clocks — what `perf stat -e duration_time` measured on the
//! slowest process.

use v2d_comm::{Spmd, TileMap};
use v2d_core::problems::{GaussianPulse, Scenario};
use v2d_core::sim::{V2dConfig, V2dSim};
use v2d_machine::ALL_COMPILERS;

/// One reproduced row.
#[derive(Debug, Clone)]
pub struct Row {
    pub np: usize,
    pub nx1: usize,
    pub nx2: usize,
    /// Simulated seconds per compiler, in [`ALL_COMPILERS`] order
    /// (GNU, Fujitsu, Cray-opt, Cray-no-opt).
    pub secs: [f64; 4],
    /// Mean BiCGSTAB iterations per solve (sanity metadata).
    pub iters_per_solve: f64,
}

/// The paper's twelve `(NX1, NX2)` topologies, in Table I order.
pub const TOPOLOGIES: [(usize, usize); 12] = [
    (1, 1),
    (10, 1),
    (20, 1),
    (10, 2),
    (5, 4),
    (25, 1),
    (40, 1),
    (20, 2),
    (10, 4),
    (50, 1),
    (25, 2),
    (10, 5),
];

/// Run one topology of the study under `cfg`.
pub fn run_topology(cfg: &V2dConfig, nx1: usize, nx2: usize) -> Row {
    let np = nx1 * nx2;
    let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, nx1, nx2);
    let cfg = *cfg;
    let outs = Spmd::new(np).run(move |ctx| {
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        GaussianPulse::standard().init(&mut sim);
        let starts: Vec<_> = ctx.sink.lanes.iter().map(|l| l.clock.now()).collect();
        let agg = sim.run(&ctx.comm, &mut ctx.sink);
        let secs: Vec<f64> = starts
            .into_iter()
            .zip(&ctx.sink.lanes)
            .map(|(start, lane)| (lane.clock.now() - start).as_secs())
            .collect();
        (secs, agg.total_iters, agg.total_solves)
    });
    // Per-compiler max over ranks (the job finishes with its slowest
    // process), iteration metadata from rank 0.
    let mut secs = [0.0f64; 4];
    for (rank_secs, _, _) in &outs {
        for (a, &b) in secs.iter_mut().zip(rank_secs) {
            *a = a.max(b);
        }
    }
    let (_, iters, solves) = &outs[0];
    Row { np, nx1, nx2, secs, iters_per_solve: *iters as f64 / *solves as f64 }
}

/// Every `(NX1, NX2)` factorization with `NX1 · NX2 ≤ max_np`, ordered
/// by rank count then NX1 — the *full* Table I grid, of which the
/// paper's twelve [`TOPOLOGIES`] are a subset.  Exhausting it (≈ 200
/// topologies at `max_np = 50`, many of them 30+ ranks) was impractical
/// with free-running rank threads; under the discrete-event scheduler
/// every blocked rank is just a heap entry.
pub fn full_grid(max_np: usize) -> Vec<(usize, usize)> {
    let mut grid = Vec::new();
    for np in 1..=max_np {
        for nx1 in 1..=np {
            if np % nx1 == 0 {
                grid.push((nx1, np / nx1));
            }
        }
    }
    grid
}

/// Weak-scaling rank counts: ×4 steps from serial up to 1024 ranks —
/// the O(1000)-rank curve the event-driven scheduler unlocks.
pub const WEAK_RANKS: [usize; 6] = [1, 4, 16, 64, 256, 1024];

/// Cells per rank along each axis for the weak-scaling curve.
pub const WEAK_TILE: usize = 8;

/// One point of the weak-scaling curve: `np` ranks in a strip, each
/// owning a [`WEAK_TILE`]² tile, for `steps` timesteps.
pub fn run_weak_point(np: usize, steps: usize) -> Row {
    let cfg = GaussianPulse::scaled_config(WEAK_TILE * np, WEAK_TILE, steps);
    run_topology(&cfg, np, 1)
}

/// Run the full table.  `progress` is called after each topology.
pub fn run_full(cfg: &V2dConfig, mut progress: impl FnMut(&Row)) -> Vec<Row> {
    TOPOLOGIES
        .iter()
        .map(|&(nx1, nx2)| {
            let row = run_topology(cfg, nx1, nx2);
            progress(&row);
            row
        })
        .collect()
}

/// Format the reproduced rows side-by-side with the paper's numbers.
pub fn format(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE I — TIMES BY COMPILER (simulated seconds; paper values in parentheses)"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>4} {:>4} | {:>18} {:>18} {:>18} {:>18}",
        "Np", "NX1", "NX2", "GNU", "Fujitsu", "Cray (opt)", "Cray (no-opt)"
    );
    for row in rows {
        let paper = crate::paper::TABLE1
            .iter()
            .find(|&&(np, nx1, nx2, ..)| (np, nx1, nx2) == (row.np, row.nx1, row.nx2));
        let cell = |i: usize| -> String {
            let p: Option<f64> = paper.and_then(|&(_, _, _, g, f, c, n)| [g, f, c, n][i]);
            match p {
                Some(v) => format!("{:>8.2} ({:>7.2})", row.secs[i], v),
                None => format!("{:>8.2} (      –)", row.secs[i]),
            }
        };
        let _ = writeln!(
            out,
            "{:>4} {:>4} {:>4} | {} {} {} {}",
            row.np,
            row.nx1,
            row.nx2,
            cell(0),
            cell(1),
            cell(2),
            cell(3)
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "compiler lane order: {:?}", ALL_COMPILERS.map(|c| c.label()));
    out
}

/// Format full-grid rows (no paper reference — most of the grid has
/// none): one line per topology, all four compiler lanes.
pub fn format_full(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "TABLE I (FULL GRID) — every NX1×NX2 factorization, Np ≤ {} (simulated seconds)",
        rows.iter().map(|r| r.np).max().unwrap_or(0)
    );
    let _ = writeln!(
        out,
        "{:>4} {:>4} {:>4} | {:>9} {:>9} {:>10} {:>13} | {:>11}",
        "Np", "NX1", "NX2", "GNU", "Fujitsu", "Cray (opt)", "Cray (no-opt)", "iters/solve"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:>4} {:>4} {:>4} | {:>9.3} {:>9.3} {:>10.3} {:>13.3} | {:>11.2}",
            row.np,
            row.nx1,
            row.nx2,
            row.secs[0],
            row.secs[1],
            row.secs[2],
            row.secs[3],
            row.iters_per_solve
        );
    }
    out
}

/// Format the weak-scaling curve: per-rank work fixed at
/// [`WEAK_TILE`]², efficiency relative to the serial point on the
/// Cray-opt lane.
pub fn format_weak(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "WEAK SCALING — {WEAK_TILE}×{WEAK_TILE} cells per rank, strip topology (simulated seconds)"
    );
    let _ = writeln!(
        out,
        "{:>5} {:>11} | {:>10} {:>13} | {:>10}",
        "Np", "grid", "Cray (opt)", "Cray (no-opt)", "efficiency"
    );
    let t1 = rows.first().map(|r| r.secs[2]).unwrap_or(f64::NAN);
    for row in rows {
        let _ = writeln!(
            out,
            "{:>5} {:>11} | {:>10.3} {:>13.3} | {:>10.3}",
            row.np,
            format!("{}×{}", row.nx1 * WEAK_TILE, row.nx2 * WEAK_TILE),
            row.secs[2],
            row.secs[3],
            t1 / row.secs[2]
        );
    }
    out
}

/// `v2d-bench table1 [--quick]` — the paper's Table I.
///
/// The default runs the full study — the 200×100×2 Gaussian pulse for
/// 100 timesteps (300 BiCGSTAB solves) over all twelve process
/// topologies; expect a few native minutes.  `--quick` runs 10 timesteps
/// and scales nothing (the printed times are then ~1/10 of the paper's,
/// with identical ordering).
pub fn print(args: &[String]) -> Result<(), crate::UsageError> {
    let quick = crate::quick_flag(args)?;
    let cfg = if quick {
        GaussianPulse::scaled_config(200, 100, 10)
    } else {
        GaussianPulse::paper_config()
    };
    eprintln!(
        "running {} topologies of the {}×{}×2 Gaussian pulse, {} steps each…",
        TOPOLOGIES.len(),
        cfg.grid.n1,
        cfg.grid.n2,
        cfg.n_steps
    );
    let rows = run_full(&cfg, |row| {
        eprintln!(
            "  {:>2}×{:<2} (Np {:>2}) done: cray-opt {:.2} s ({:.0} iters/solve)",
            row.nx1, row.nx2, row.np, row.secs[2], row.iters_per_solve
        );
    });
    println!("{}", format(&rows));
    if quick {
        println!("(--quick: 10 of 100 timesteps; multiply by ~10 to compare with the paper)");
    }
    Ok(())
}

/// Ranks of the full-grid sweep (the paper's Table I maximum).
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

/// `v2d-bench table1_full` — the full ≤ 50-rank Table I grid plus the
/// O(1000)-rank weak-scaling curve.
///
/// Unlike `table1` (the paper's twelve topologies at full problem
/// size), this sweeps *every* NX1×NX2 factorization up to 50 ranks on a
/// quarter-size pulse, then holds per-rank work fixed while scaling a
/// strip topology to 1024 ranks.  All times are modeled virtual clocks:
/// deterministic, bit-identical across invocations, independent of the
/// host.
pub fn print_full(args: &[String]) -> Result<(), crate::UsageError> {
    crate::no_args(args)?;
    let grid = full_grid(MAX_NP);
    let cfg = GaussianPulse::scaled_config(GRID_N1, GRID_N2, GRID_STEPS);
    eprintln!(
        "running {} topologies of the {GRID_N1}×{GRID_N2}×2 pulse, {GRID_STEPS} step(s) each…",
        grid.len()
    );
    let t0 = std::time::Instant::now();
    let rows: Vec<Row> = grid.iter().map(|&(nx1, nx2)| run_topology(&cfg, nx1, nx2)).collect();
    eprintln!("grid sweep: {:.1} s wall", t0.elapsed().as_secs_f64());
    println!("{}", format_full(&rows));

    eprintln!("running {} weak-scaling points up to 1024 ranks…", WEAK_RANKS.len());
    let t0 = std::time::Instant::now();
    let weak: Vec<Row> = WEAK_RANKS.iter().map(|&np| run_weak_point(np, WEAK_STEPS)).collect();
    eprintln!("weak-scaling sweep: {:.1} s wall", t0.elapsed().as_secs_f64());
    println!("{}", format_weak(&weak));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature Table I: tiny grid, few steps — verifies the harness
    /// plumbing end-to-end (full-size runs are `v2d-bench table1`).
    #[test]
    fn mini_table_has_sane_shape() {
        // Big enough that four ranks beat one despite collective costs.
        let cfg = GaussianPulse::scaled_config(48, 24, 2);
        let serial = run_topology(&cfg, 1, 1);
        let par = run_topology(&cfg, 2, 2);
        // Serial ordering of the paper's first row.
        let [gnu, fuj, cray, noopt] = serial.secs;
        assert!(gnu > fuj && fuj > cray, "serial ordering broken: {:?}", serial.secs);
        assert!(noopt > cray);
        // Parallel compute share shrinks.
        assert!(par.secs[2] < serial.secs[2], "4 ranks should beat 1");
        assert!(serial.iters_per_solve >= 1.0);
    }

    #[test]
    fn format_includes_paper_reference() {
        let cfg = GaussianPulse::scaled_config(20, 10, 1);
        let rows = vec![run_topology(&cfg, 1, 1)];
        let text = format(&rows);
        assert!(text.contains("363.91"), "paper serial GNU value missing:\n{text}");
        assert!(text.contains("Cray (no-opt)"));
    }
}
