//! The paper's §II-F driver program: exercise the five V2D BiCGSTAB
//! kernels on the simulated A64FX core, with and without SVE, and watch
//! how the speedup depends on vector length and on where the working
//! set lives in the memory hierarchy.
//!
//! Run with: `cargo run --release --example sve_driver`

use v2d::machine::{MemLevel, FREQ_HZ};
use v2d::sve::kernels::{run_routine, Routine, Variant};
use v2d::sve::ExecConfig;

fn main() {
    let n = 1000;

    println!("V2D kernel driver on the simulated A64FX (n = {n}, L1-resident)\n");
    println!(
        "{:<8} {:>12} {:>12} {:>8}   {:>10} {:>10}",
        "routine", "scalar cyc", "SVE cyc", "ratio", "scalar f/c", "SVE f/c"
    );
    for r in Routine::ALL {
        let cfg = ExecConfig::a64fx_l1();
        let s = run_routine(r, n, Variant::Scalar, &cfg);
        let v = run_routine(r, n, Variant::Sve, &cfg);
        println!(
            "{:<8} {:>12} {:>12} {:>8.3}   {:>10.2} {:>10.2}",
            r.name(),
            s.cycles,
            v.cycles,
            v.cycles as f64 / s.cycles as f64,
            s.flops_per_cycle(),
            v.flops_per_cycle()
        );
    }

    println!("\nDynamic opcode mix of one DAXPY repetition (SVE):");
    let mix = run_routine(Routine::Daxpy, n, Variant::Sve, &ExecConfig::a64fx_l1()).mix;
    for (op, count) in mix.iter() {
        println!("  {op:<12} {count:>6}");
    }

    println!("\nVector-length-agnostic scaling of DAXPY (same program, different VL):");
    println!("{:>8} {:>12} {:>14}", "VL bits", "SVE cycles", "µs @1.8 GHz");
    for vl in [128u32, 256, 512, 1024, 2048] {
        let cfg = ExecConfig::a64fx_l1().with_vl(vl);
        let v = run_routine(Routine::Daxpy, n, Variant::Sve, &cfg);
        println!("{:>8} {:>12} {:>14.2}", vl, v.cycles, 1e6 * v.cycles as f64 / FREQ_HZ);
    }

    println!("\nWhy the full code speeds up less than the driver (MATVEC, n = {n}):");
    println!("{:>6} {:>14} {:>12} {:>8}", "level", "scalar cyc", "SVE cyc", "ratio");
    for level in [MemLevel::L1, MemLevel::L2, MemLevel::Hbm] {
        let cfg = ExecConfig::a64fx_l1().with_level(level);
        let s = run_routine(Routine::Matvec, n, Variant::Scalar, &cfg);
        let v = run_routine(Routine::Matvec, n, Variant::Sve, &cfg);
        println!(
            "{:>6} {:>14} {:>12} {:>8.3}",
            format!("{level:?}"),
            s.cycles,
            v.cycles,
            v.cycles as f64 / s.cycles as f64
        );
    }
    println!("\nOut of L1 the kernel is memory-bandwidth-bound and the SVE");
    println!("advantage collapses toward parity — and the full V2D working set");
    println!("lives in L2/HBM while the driver's 24 KB stay in L1.  That is the");
    println!("paper's gap between Table II (4–6×) and Table I (~1.45×).");
}
