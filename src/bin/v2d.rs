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
use v2d::core::config_file::{ParFile, FAMILY, PAPER_PAR};
use v2d::core::problems::Family;
use v2d::core::sim::V2dSim;

/// The final checkpoint rank 0's state is written to.
const FINAL: &str = "v2d_final.h5l";
/// The rolling checkpoint store's directory.
const CK_DIR: &str = "v2d_ck";
const BAD_DECK: &str = "bad parameter file";

fn usage() -> ! {
    eprintln!(
        "usage: v2d <file.par> | v2d --paper | v2d --print-paper | v2d --print-deck <family>"
    );
    std::process::exit(2);
}

/// A deck that cannot be read, a run that fails and an output that
/// cannot be written are each one `v2d: <what>: <error>` line and exit
/// status 1, never a panic.
fn fail(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("v2d: {what}: {e}");
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
            let Some(family) = FAMILY.parse(&name) else {
                eprintln!("v2d: {}", FAMILY.unknown(&name));
                std::process::exit(2);
            };
            let sc = family.scenario();
            let (n1, n2, steps) = sc.smoke();
            print!("{}", sc.deck(n1, n2, steps, 1, 1));
            return;
        }
        "--paper" => ParFile::parse(PAPER_PAR).expect("built-in deck parses"),
        "-h" | "--help" => usage(),
        path => ParFile::open(path).unwrap_or_else(|e| fail(&format!("cannot read {path}"), e)),
    };
    let (cfg, (np1, np2)) = par.to_config().unwrap_or_else(|e| fail(BAD_DECK, e));
    // Rolling-checkpoint cadence (`run.checkpoint_every` /
    // `run.checkpoint_keep`); 0 (the default) disables the store, and
    // the run writes no rolling checkpoint and reports none.
    let (ck_every, ck_keep) = par.checkpoint_policy().unwrap_or_else(|e| fail(BAD_DECK, e));
    // `[problem] family = <name>` selects the scenario from the
    // registry; absent, decks drive the standard Gaussian pulse.
    let family = par.problem().unwrap_or_else(|e| fail(BAD_DECK, e)).unwrap_or(Family::Gaussian);

    // The rolling store is made before the launch, so a directory it
    // cannot use fails the run before any step is spent.
    let store = match (ck_every > 0).then(|| CheckpointStore::new(CK_DIR, ck_keep)).transpose() {
        Ok(store) => Mutex::new(store),
        Err(e) => fail(&format!("cannot write {CK_DIR}"), e),
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
    let outs = Spmd::new(np1 * np2).run(move |ctx| {
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        family.scenario().init(&mut sim);
        let e0 = sim.total_radiation_energy(&ctx.comm, &mut ctx.sink);
        // Rank 0 owns the rotating store's files; the gather is
        // collective.
        let rank0 = ctx.rank() == 0;
        let mut store =
            rank0.then(|| store.lock().unwrap_or_else(|e| e.into_inner()).take()).flatten();
        let end = sim.run_checkpointed(&ctx.comm, &mut ctx.sink, ck_every, store.as_mut());
        if let Some(e) = end.error {
            return Err(e.to_string());
        }
        let e1 = sim.total_radiation_energy(&ctx.comm, &mut ctx.sink);
        let report = family.scenario().validate(&sim, &ctx.comm, &mut ctx.sink);
        let ck = write_checkpoint(&ctx.comm, &mut ctx.sink, &sim).map_err(|e| e.to_string())?;
        // Rank 0 hands the final state out; `main` writes it.
        let ck = rank0.then_some(ck);
        let times: Vec<(String, f64, f64)> = ctx
            .sink
            .lanes
            .iter()
            .map(|l| (l.profile.id.label().to_string(), l.elapsed_secs(), l.mpi_secs()))
            .collect();
        Ok((end.stats, e0, e1, times, sim.profiler_report(&ctx.sink), report, ck, end.save_error))
    });
    // A step whose recovery ladder ran out fails the run on every rank.
    let mut outs: Vec<_> =
        outs.into_iter().collect::<Result<_, _>>().unwrap_or_else(|e| fail("run failed", e));

    if let Some(e) = outs[0].7.take() {
        fail(&format!("cannot write {CK_DIR}"), e);
    }
    if let Some(Err(e)) = outs[0].6.take().map(|ck| ck.save(FINAL)) {
        fail(&format!("cannot write {FINAL}"), e);
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
    // The profiler times lane 0, the first row of the table above.
    println!("\nrank-0 routine profile ({} lane):\n{profile}", outs[0].3[0].0);
    if ck_every > 0 {
        println!("rolling checkpoints every {ck_every} steps in {CK_DIR}/ (keeping {ck_keep})");
    }
    println!("final state written to {FINAL}");
}
