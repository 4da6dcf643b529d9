//! The V2D command-line driver: run a simulation from a runtime
//! parameter file, exactly the way the original code is driven.
//!
//! ```text
//! v2d <file.par>            run the given parameter deck
//! v2d --paper               run the paper's benchmark deck (serial)
//! v2d --print-paper         print the built-in benchmark deck and exit
//! v2d --print-deck <family> print a registry scenario's canonical deck
//!                           at its smoke resolution and exit
//! ```
//!
//! The run reports solver statistics, the per-compiler simulated A64FX
//! times, the TAU-style routine profile, and writes a final checkpoint
//! (`v2d_final.h5l`) from rank 0.

use std::sync::Mutex;

use v2d::comm::{Spmd, TileMap};
use v2d::core::checkpoint::{write_checkpoint, CheckpointStore};
use v2d::core::config_file::{ParFile, PAPER_PAR};
use v2d::core::problems::Family;
use v2d::core::sim::{RunStats, V2dSim};

/// The final checkpoint rank 0's state is written to.
const FINAL: &str = "v2d_final.h5l";
/// The rolling checkpoint store's directory.
const CK_DIR: &str = "v2d_ck";

fn usage() -> ! {
    eprintln!(
        "usage: v2d <file.par> | v2d --paper | v2d --print-paper | v2d --print-deck <family>"
    );
    std::process::exit(2);
}

/// An output the run cannot write is one error line and exit status 1,
/// never a panic.
fn cannot_write(path: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("v2d: cannot write {path}: {e}");
    std::process::exit(1);
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| usage());
    let par = match arg.as_str() {
        "--print-paper" => {
            print!("{PAPER_PAR}");
            return;
        }
        "--print-deck" => {
            // A registry scenario's canonical deck at its smoke
            // resolution — feed it back to `v2d <file.par>` verbatim.
            let name = std::env::args().nth(2).unwrap_or_else(|| usage());
            let Some(family) = Family::parse(&name) else {
                eprintln!(
                    "v2d: unknown problem family `{name}` (valid: {})",
                    Family::valid_names()
                );
                std::process::exit(2);
            };
            let sc = family.scenario();
            let (n1, n2, steps) = sc.smoke();
            print!("{}", sc.deck(n1, n2, steps, 1, 1));
            return;
        }
        "--paper" => ParFile::parse(PAPER_PAR).expect("built-in deck parses"),
        "-h" | "--help" => usage(),
        path => match ParFile::open(path) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("v2d: cannot read {path}: {e}");
                std::process::exit(1);
            }
        },
    };
    let (cfg, (np1, np2)) = match par.to_config() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("v2d: bad parameter file: {e}");
            std::process::exit(1);
        }
    };
    // Rolling-checkpoint cadence (`run.checkpoint_every` /
    // `run.checkpoint_keep`); 0 (the default) disables the store and
    // leaves the run loop — and the report — exactly as before.
    let (ck_every, ck_keep) = match par.checkpoint_policy() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("v2d: bad parameter file: {e}");
            std::process::exit(1);
        }
    };
    // `[problem] family = <name>` selects the scenario from the
    // registry; absent, decks keep driving the legacy standard pulse.
    let family = match par.problem() {
        Ok(f) => f.unwrap_or(Family::Gaussian),
        Err(e) => {
            eprintln!("v2d: bad parameter file: {e}");
            std::process::exit(1);
        }
    };

    // The rolling store is made before the launch, so a directory it
    // cannot use fails the run before any step is spent.
    let store = match (ck_every > 0).then(|| CheckpointStore::new(CK_DIR, ck_keep)).transpose() {
        Ok(store) => Mutex::new(store),
        Err(e) => cannot_write(CK_DIR, e),
    };

    println!(
        "V2D: {}×{}×2 zones, {} steps of dt = {}, topology {}×{} ({} ranks)",
        cfg.grid.n1,
        cfg.grid.n2,
        cfg.n_steps,
        cfg.dt,
        np1,
        np2,
        np1 * np2
    );
    println!("problem: {family} — {}", family.scenario().describe());

    let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, np1, np2);
    let mut outs = Spmd::new(np1 * np2).run(move |ctx| {
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        family.scenario().init(&mut sim);
        let e0 = sim.total_radiation_energy(&ctx.comm, &mut ctx.sink);
        // A failed rolling save is remembered, not raised: rank 0 keeps
        // stepping so no peer is stranded in a collective.
        let mut ck_err = None;
        let agg = if ck_every > 0 {
            // Stepwise run with a rotating on-disk checkpoint store
            // (rank 0 owns the files; the gather is collective).
            let mut store = if ctx.rank() == 0 {
                store.lock().unwrap_or_else(|e| e.into_inner()).take()
            } else {
                None
            };
            let mut agg = RunStats::default();
            for _ in 0..cfg.n_steps {
                let st = sim.step(&ctx.comm, &mut ctx.sink);
                agg.absorb(&st);
                if sim.istep().is_multiple_of(ck_every) && sim.istep() < cfg.n_steps {
                    let f = write_checkpoint(&ctx.comm, &mut ctx.sink, &sim)
                        .expect("checkpoint gather");
                    if let Some(store) = store.as_mut().filter(|_| ck_err.is_none()) {
                        ck_err = store.save(&f, sim.istep()).err();
                    }
                }
            }
            agg
        } else {
            sim.run(&ctx.comm, &mut ctx.sink)
        };
        let e1 = sim.total_radiation_energy(&ctx.comm, &mut ctx.sink);
        let report = family.scenario().validate(&sim, &ctx.comm, &mut ctx.sink);
        let ck = write_checkpoint(&ctx.comm, &mut ctx.sink, &sim).expect("checkpoint gather");
        // Rank 0 hands the final state out; `main` writes it.
        let ck = (ctx.rank() == 0).then_some(ck);
        let times: Vec<(String, f64, f64)> = ctx
            .sink
            .lanes
            .iter()
            .map(|l| (l.profile.id.label().to_string(), l.elapsed_secs(), l.mpi_secs()))
            .collect();
        (agg, e0, e1, times, sim.profiler_report(&ctx.sink), report, ck, ck_err)
    });

    if let Some(e) = outs[0].7.take() {
        cannot_write(CK_DIR, e);
    }
    if let Some(Err(e)) = outs[0].6.take().map(|ck| ck.save(FINAL)) {
        cannot_write(FINAL, e);
    }

    // Report per-rank maxima (the job is as slow as its slowest rank).
    let (agg, e0, e1, _, profile, report, ..) = &outs[0];
    println!(
        "\nsolves: {} | BiCGSTAB iterations: {} ({:.1}/solve) | reductions: {}",
        agg.total_solves,
        agg.total_iters,
        agg.total_iters as f64 / agg.total_solves as f64,
        agg.total_reductions
    );
    println!("radiation energy: {e0:.6e} → {e1:.6e}");
    println!("validation: {report}");
    println!("\nsimulated A64FX times (max over ranks):");
    println!("{:<16} {:>12} {:>12}", "compiler", "total s", "MPI s");
    for i in 0..outs[0].3.len() {
        let label = &outs[0].3[i].0;
        let t = outs.iter().map(|o| o.3[i].1).fold(0.0f64, f64::max);
        let m = outs.iter().map(|o| o.3[i].2).fold(0.0f64, f64::max);
        println!("{label:<16} {t:>12.2} {m:>12.2}");
    }
    println!("\nrank-0 routine profile (Cray-opt lane):\n{profile}");
    if ck_every > 0 {
        println!("rolling checkpoints every {ck_every} steps in {CK_DIR}/ (keeping {ck_keep})");
    }
    println!("final state written to {FINAL}");
}
