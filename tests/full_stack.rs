//! Cross-crate integration tests: the whole stack from the facade crate
//! down — problem setup, decomposed solves, instrumentation, checkpoint
//! I/O, and the experiment harness invariants.

use v2d::comm::{ReduceOp, Spmd, TileMap};
use v2d::core::checkpoint::{restore_checkpoint, write_checkpoint};
use v2d::core::problems::{GaussianPulse, RadiativeRelaxation, Scenario};
use v2d::core::sim::V2dSim;
use v2d::machine::{CompilerId, CompilerProfile};

fn cray() -> Vec<CompilerProfile> {
    vec![CompilerProfile::cray_opt()]
}

#[test]
fn gaussian_pulse_runs_identically_on_any_topology() {
    let (n1, n2) = (24, 16);
    let cfg = GaussianPulse::scaled_config(n1, n2, 2);
    let field_for = |np1: usize, np2: usize| -> Vec<f64> {
        let map = TileMap::new(n1, n2, np1, np2);
        let outs = Spmd::new(np1 * np2).with_profiles(cray()).run(|ctx| {
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            GaussianPulse::standard().init(&mut sim);
            sim.run(&ctx.comm, &mut ctx.sink);
            let g = sim.grid();
            let mut out = Vec::new();
            for s in 0..2 {
                for i2 in 0..g.n2 {
                    for i1 in 0..g.n1 {
                        out.push((
                            (s, g.i1_start + i1, g.i2_start + i2),
                            sim.erad().get(s, i1 as isize, i2 as isize),
                        ));
                    }
                }
            }
            out
        });
        let mut all: Vec<_> = outs.into_iter().flatten().collect();
        all.sort_by_key(|&((s, a, b), _)| (s, b, a));
        all.into_iter().map(|(_, v)| v).collect()
    };
    let single = field_for(1, 1);
    for (np1, np2) in [(3, 1), (2, 2), (4, 4)] {
        let multi = field_for(np1, np2);
        for (i, (a, b)) in single.iter().zip(&multi).enumerate() {
            assert!(
                (a - b).abs() < 1e-7 * (1.0 + a.abs()),
                "{np1}×{np2} differs from serial at {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn simulated_times_are_deterministic_across_runs() {
    let cfg = GaussianPulse::scaled_config(16, 12, 2);
    let run = || {
        let map = TileMap::new(16, 12, 2, 2);
        Spmd::new(4).run(|ctx| {
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            GaussianPulse::standard().init(&mut sim);
            sim.run(&ctx.comm, &mut ctx.sink);
            ctx.sink.lanes.iter().map(|l| l.clock.now().cycles()).collect::<Vec<u64>>()
        })
    };
    assert_eq!(run(), run(), "virtual clocks must not depend on host scheduling");
}

#[test]
fn compiler_ordering_holds_serially_on_small_problems() {
    let cfg = GaussianPulse::scaled_config(20, 10, 2);
    let times = Spmd::new(1).run(|ctx| {
        let map = TileMap::new(20, 10, 1, 1);
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        GaussianPulse::standard().init(&mut sim);
        sim.run(&ctx.comm, &mut ctx.sink);
        let t = |id: CompilerId| {
            ctx.sink.lanes.iter().find(|l| l.profile.id == id).expect("lane").elapsed_secs()
        };
        (
            t(CompilerId::Gnu),
            t(CompilerId::Fujitsu),
            t(CompilerId::CrayOpt),
            t(CompilerId::CrayNoOpt),
        )
    });
    let (gnu, fuj, cray, noopt) = times[0];
    assert!(gnu > fuj, "GNU {gnu} should be slowest (Fujitsu {fuj})");
    assert!(fuj > cray, "Fujitsu {fuj} should trail Cray-opt {cray}");
    assert!(noopt > cray, "no-opt {noopt} must trail opt {cray}");
    assert!(
        (1.2..2.0).contains(&(noopt / cray)),
        "no-opt/opt ratio {} outside Table I's ≈1.45 band",
        noopt / cray
    );
}

#[test]
fn checkpoint_roundtrips_through_disk_and_topologies() {
    let (n1, n2) = (16, 8);
    let cfg = GaussianPulse::linear_config(n1, n2, 4);
    let dir = std::env::temp_dir().join("v2d_integration_ck");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("state.h5l");

    // Run 2 steps on 4 ranks, checkpoint to disk.
    {
        let map = TileMap::new(n1, n2, 2, 2);
        let path = path.clone();
        Spmd::new(4).with_profiles(cray()).run(move |ctx| {
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            GaussianPulse::standard().init(&mut sim);
            sim.step(&ctx.comm, &mut ctx.sink);
            sim.step(&ctx.comm, &mut ctx.sink);
            let ck = write_checkpoint(&ctx.comm, &mut ctx.sink, &sim).expect("checkpoint gather");
            if ctx.rank() == 0 {
                ck.save(&path).expect("save checkpoint");
            }
        });
    }

    // Restore on a *different* topology (2 ranks) and keep going; then
    // compare with an uninterrupted serial run.
    let restored = {
        let map = TileMap::new(n1, n2, 2, 1);
        let path = path.clone();
        let outs = Spmd::new(2).with_profiles(cray()).run(move |ctx| {
            let file = v2d::io::File::open(&path).expect("open checkpoint");
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            restore_checkpoint(&mut sim, &file).expect("valid checkpoint");
            assert_eq!(sim.istep(), 2);
            sim.step(&ctx.comm, &mut ctx.sink);
            sim.step(&ctx.comm, &mut ctx.sink);
            let g = sim.grid();
            let mut out = Vec::new();
            for s in 0..2 {
                for i2 in 0..g.n2 {
                    for i1 in 0..g.n1 {
                        out.push((
                            (s, g.i1_start + i1, g.i2_start + i2),
                            sim.erad().get(s, i1 as isize, i2 as isize),
                        ));
                    }
                }
            }
            out
        });
        let mut all: Vec<_> = outs.into_iter().flatten().collect();
        all.sort_by_key(|&((s, a, b), _)| (s, b, a));
        all.into_iter().map(|(_, v)| v).collect::<Vec<f64>>()
    };

    let reference = {
        let map = TileMap::new(n1, n2, 1, 1);
        let outs = Spmd::new(1).with_profiles(cray()).run(|ctx| {
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            GaussianPulse::standard().init(&mut sim);
            for _ in 0..4 {
                sim.step(&ctx.comm, &mut ctx.sink);
            }
            sim.erad().interior_to_vec()
        });
        outs.into_iter().next().expect("serial run")
    };

    assert_eq!(reference.len(), restored.len());
    for (i, (a, b)) in reference.iter().zip(&restored).enumerate() {
        assert!((a - b).abs() < 1e-7 * (1.0 + a.abs()), "restored run diverged at {i}: {a} vs {b}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mpi_time_grows_with_rank_count() {
    let cfg = GaussianPulse::scaled_config(32, 16, 2);
    let mpi_for = |np1: usize, np2: usize| -> f64 {
        let map = TileMap::new(32, 16, np1, np2);
        let outs = Spmd::new(np1 * np2).with_profiles(cray()).run(|ctx| {
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            GaussianPulse::standard().init(&mut sim);
            sim.run(&ctx.comm, &mut ctx.sink);
            ctx.sink.lanes[0].mpi_secs()
        });
        outs.into_iter().fold(0.0, f64::max)
    };
    let two = mpi_for(2, 1);
    let eight = mpi_for(4, 2);
    assert!(two > 0.0);
    assert!(eight > two, "8 ranks ({eight}) should spend more MPI time than 2 ({two})");
}

#[test]
fn species_relaxation_and_global_reductions_agree_across_ranks() {
    let prob = RadiativeRelaxation { e0: 3.0, e1: 1.0, kappa_x: 0.25 };
    let mut cfg = prob.config(12, 12, 20);
    cfg.dt = 0.02;
    let outs = Spmd::new(3).with_profiles(cray()).run(|ctx| {
        let map = TileMap::new(12, 12, 3, 1);
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        prob.init(&mut sim);
        sim.run(&ctx.comm, &mut ctx.sink);
        let total = sim.total_radiation_energy(&ctx.comm, &mut ctx.sink);
        let local_diff = sim.erad().get(0, 2, 2) - sim.erad().get(1, 2, 2);
        let global_max_diff = ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Max, local_diff);
        (total, global_max_diff)
    });
    let want = prob.analytic_difference(1.0, 0.4);
    for (total, diff) in outs {
        // Sum conserved up to the (tiny but nonzero) Dirichlet boundary
        // leakage: (3 + 1) × area 1.
        assert!((total - 4.0).abs() < 1e-2, "energy sum drifted: {total}");
        assert!((diff - want).abs() < 0.05, "relaxation off: {diff} vs {want}");
    }
}
