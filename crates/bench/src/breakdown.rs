//! §II-E — the timing analysis behind Table I.
//!
//! The paper reports, for the Cray-opt executable:
//!
//! * at Np = 1: "the majority of time was spent in the matrix-vector
//!   multiplications, approximately 141 seconds out of 181, with
//!   preconditioning taking about 14 additional seconds", and Arm MAP
//!   showing "the three calls to the BiCGSTAB routine each took
//!   approximately 31–33 % of the total time";
//! * at Np = 20 in a 5 × 4 configuration: "approximately 7.5 seconds out
//!   of 15 were spent in the matrix-vector multiplications at maximum
//!   per processor, with preconditioning taking about 0.8 seconds at
//!   maximum", plus "a significant amount of time … taken by MPI calls".
//!
//! This module reruns the study with the PAPI-like class counters and
//! the TAU-like profiler attached and reports the same quantities.

use v2d_comm::{Spmd, TileMap};
use v2d_core::problems::{GaussianPulse, Scenario};
use v2d_core::sim::{V2dConfig, V2dSim};
use v2d_machine::{CompilerId, KernelClass, FREQ_HZ};

/// The measured breakdown of one configuration (per-rank maxima, Cray-opt
/// lane, seconds).
#[derive(Debug, Clone)]
pub struct Breakdown {
    pub np: usize,
    pub total: f64,
    pub matvec: f64,
    pub precond: f64,
    pub mpi: f64,
    /// The three BiCGSTAB call sites' inclusive-time *fractions* of the
    /// profiled run (rank 0).
    pub bicgstab_sites: [f64; 3],
    /// Full per-class report text (rank 0).
    pub class_report: String,
    /// TAU/ParaProf-style routine report (rank 0).
    pub routine_report: String,
}

/// Per-rank raw measurement tuple gathered by [`run`].
type RankMeasurement = (f64, f64, f64, f64, [f64; 3], String, String);

/// Run the breakdown for one topology.
pub fn run(cfg: &V2dConfig, nx1: usize, nx2: usize) -> Breakdown {
    let np = nx1 * nx2;
    let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, nx1, nx2);
    let cfg = *cfg;
    let outs = Spmd::new(np).run(move |ctx| {
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        GaussianPulse::standard().init(&mut sim);
        sim.run(&ctx.comm, &mut ctx.sink);
        let lane = ctx
            .sink
            .lanes
            .iter()
            .find(|l| l.profile.id == CompilerId::CrayOpt)
            .expect("cray-opt lane present");
        // The TAU-style profiler runs on lane 0; normalize its site
        // times by that lane's own elapsed time so the reported
        // percentages are compiler-independent fractions.
        let lane0_total = ctx.sink.lanes[0].elapsed_secs().max(1e-30);
        let site = |name: &str| {
            sim.profiler.routine(name).map_or(0.0, |r| r.inclusive.as_secs()) / lane0_total
        };
        (
            lane.elapsed_secs(),
            lane.counters.cycles[KernelClass::MatVec.index()] as f64 / FREQ_HZ,
            lane.counters.cycles[KernelClass::Precond.index()] as f64 / FREQ_HZ,
            lane.mpi_secs(),
            [site("bicgstab_predictor"), site("bicgstab_corrector"), site("bicgstab_coupling")],
            v2d_perf::class_breakdown(lane),
            sim.profiler_report(&ctx.sink),
        )
    });
    let max = |f: &dyn Fn(&RankMeasurement) -> f64| outs.iter().map(f).fold(0.0f64, f64::max);
    Breakdown {
        np,
        total: max(&|o| o.0),
        matvec: max(&|o| o.1),
        precond: max(&|o| o.2),
        mpi: max(&|o| o.3),
        bicgstab_sites: outs[0].4,
        class_report: outs[0].5.clone(),
        routine_report: outs[0].6.clone(),
    }
}

/// Human-readable summary next to the paper's claims.
pub fn format(b: &Breakdown) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "§II-E BREAKDOWN — Np = {} (Cray-opt lane, per-rank maxima)", b.np);
    let _ = writeln!(out, "  total            {:8.2} s", b.total);
    let _ = writeln!(
        out,
        "  matvec           {:8.2} s  ({:.0}% of total)",
        b.matvec,
        100.0 * b.matvec / b.total
    );
    let _ = writeln!(out, "  preconditioning  {:8.2} s", b.precond);
    let _ = writeln!(out, "  MPI              {:8.2} s", b.mpi);
    let tot_sites: f64 = b.bicgstab_sites.iter().sum();
    let _ = writeln!(
        out,
        "  BiCGSTAB sites   {:.1}% / {:.1}% / {:.1}% of run time (sum {:.1}%)",
        100.0 * b.bicgstab_sites[0],
        100.0 * b.bicgstab_sites[1],
        100.0 * b.bicgstab_sites[2],
        100.0 * tot_sites,
    );
    let _ = writeln!(out, "\nper-class counters (rank 0):\n{}", b.class_report);
    let _ = writeln!(out, "TAU-style routine profile (rank 0):\n{}", b.routine_report);
    out
}

/// `v2d-bench breakdown [--quick]` — the §II-E analysis at Np = 1 and
/// at Np = 20 (5×4); `--quick` runs 10 of the 100 timesteps.
pub fn print(args: &[String]) -> Result<(), crate::UsageError> {
    let steps = if crate::quick_flag(args)? { 10 } else { 100 };
    let cfg = GaussianPulse::scaled_config(200, 100, steps);
    for (nx1, nx2) in [(1, 1), (5, 4)] {
        eprintln!("running {nx1}×{nx2}…");
        let b = run(&cfg, nx1, nx2);
        println!("{}", format(&b));
    }
    println!("paper reference: serial matvec ≈ 141 s of 181 s total, precond ≈ 14 s;");
    println!("Np=20 (5×4): matvec ≈ 7.5 s of ≈ 15 s, precond ≈ 0.8 s.");
    Ok(())
}

/// `v2d-bench calibrate [steps]` (default 100 = the paper's workload) —
/// documents (and re-measures) the calibration of the compiler
/// profiles: the reproduced serial Table I column and the §II-E
/// breakdown targets next to the paper's values.  Run after touching
/// any constant in `v2d_machine::profile`.
pub fn calibrate(args: &[String]) -> Result<(), crate::UsageError> {
    use crate::paper;
    let steps = crate::count_arg(args, 100)?;
    let cfg = GaussianPulse::scaled_config(200, 100, steps);
    let scale = steps as f64 / 100.0;
    eprintln!("serial calibration run ({steps} steps)…");
    let map = TileMap::new(200, 100, 1, 1);
    let outs = Spmd::new(1).run(move |ctx| {
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        GaussianPulse::standard().init(&mut sim);
        let agg = sim.run(&ctx.comm, &mut ctx.sink);
        (ctx.sink.elapsed_secs(), agg.total_iters, agg.total_solves)
    });
    let (secs, iters, solves) = &outs[0];
    let (_, _, _, gnu, fujitsu, cray_opt, cray_noopt) = paper::TABLE1[0];
    let paper_serial =
        [gnu, fujitsu, cray_opt, cray_noopt].map(|s| s.expect("the serial row has every cell"));
    println!("serial Table I column ({} BiCGSTAB iters over {} solves):", iters, solves);
    println!("{:<14} {:>10} {:>10} {:>7}", "compiler", "model s", "paper s", "err");
    for ((id, got), want) in v2d_machine::ALL_COMPILERS.iter().zip(secs).zip(paper_serial) {
        let scaled_want = want * scale;
        println!(
            "{:<14} {:>10.2} {:>10.2} {:>6.1}%",
            id.label(),
            got,
            scaled_want,
            100.0 * (got - scaled_want) / scaled_want
        );
    }

    println!("\n§II-E serial breakdown targets:");
    let b = run(&cfg, 1, 1);
    println!(
        "  matvec share: {:.2} (paper {:.2})",
        b.matvec / b.total,
        paper::SERIAL_MATVEC_SECS / paper::SERIAL_TOTAL_SECS
    );
    println!(
        "  precond share: {:.3} (paper {:.3})",
        b.precond / b.total,
        paper::SERIAL_PRECOND_SECS / paper::SERIAL_TOTAL_SECS
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_breakdown_is_matvec_dominated() {
        // Mini version of the §II-E serial analysis.
        let cfg = GaussianPulse::scaled_config(24, 12, 2);
        let b = run(&cfg, 1, 1);
        assert!(b.total > 0.0);
        let share = b.matvec / b.total;
        assert!(
            (0.5..=0.95).contains(&share),
            "matvec share {share} outside the paper's ballpark (~0.78)"
        );
        assert!(b.precond < b.matvec / 3.0, "preconditioner should be far cheaper");
        assert_eq!(b.mpi, 0.0, "no MPI time on one rank");
        // Three call sites of roughly equal weight (paper: 31–33 % each),
        // summing to essentially the whole run.
        let s = b.bicgstab_sites;
        let mean = (s[0] + s[1] + s[2]) / 3.0;
        for v in s {
            assert!((v - mean).abs() < 0.25 * mean, "sites unbalanced: {s:?}");
        }
        assert!((s[0] + s[1] + s[2]) > 0.8, "sites should cover most of the run: {s:?}");
    }

    #[test]
    fn parallel_breakdown_reports_mpi_time() {
        let cfg = GaussianPulse::scaled_config(24, 12, 2);
        let b = run(&cfg, 2, 2);
        assert!(b.mpi > 0.0, "4 ranks must accumulate MPI time");
        assert!(b.class_report.contains("MPI"));
    }
}
