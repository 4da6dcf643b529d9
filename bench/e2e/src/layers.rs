//! Per-layer probes: each layer timed from outside, through its public
//! functions.  Counts are exact; times are medians over a few passes.
//!
//! Only functions later changes are expected to keep are called (see
//! README.md, "What the probes may touch").

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use v2d_comm::topology::Dir;
use v2d_comm::{CartComm, ReduceOp, Spmd, TileMap};
use v2d_core::checkpoint::CheckpointStore;
use v2d_core::config_file::ParFile;
use v2d_core::problems::Family;
use v2d_core::sim::V2dSim;
use v2d_core::supervise::{run_supervised, RetryPolicy, SuperviseSpec};
use v2d_io::{Dataset, File, Value};
use v2d_linalg::backend::native;
use v2d_linalg::solver::bicgstab;
use v2d_linalg::{
    BlockJacobi, LinearOp, SolveOpts, SolverWorkspace, StencilCoeffs, StencilOp, TileVec,
};
use v2d_machine::{ExecCtx, FaultKind, FaultPlan, KernelClass, KernelShape, MultiCostSink};
use v2d_obs::{Json, Tracer};
use v2d_serve::{fnv64, parse_request, ServeOpts, Service};
use v2d_sve::kernels::{decoded_routine, prepare_routine, run_routine, Routine, Variant};
use v2d_sve::{DecodedProgram, ExecConfig, Executor};

use crate::client;
use crate::decks;
use crate::stats;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Median seconds of `passes` calls of `f`.
fn median_s(passes: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..passes)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&xs)
}

/// Median seconds per call: each pass times `reps` calls.
fn per_call_s(passes: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    median_s(passes, || (0..reps).for_each(|_| f())) / reps as f64
}

/// How much each probe repeats: `full` for a traced benchmark run,
/// `check` for the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub passes: usize,
    pub charge_calls: usize,
    pub rounds_20: usize,
    pub rounds_256: usize,
    pub wide_ranks: usize,
}

impl Effort {
    pub fn full() -> Self {
        Effort {
            passes: 5,
            charge_calls: 10_000_000,
            rounds_20: 1000,
            rounds_256: 100,
            wide_ranks: 256,
        }
    }

    pub fn check() -> Self {
        Effort { passes: 2, charge_calls: 100_000, rounds_20: 50, rounds_256: 5, wide_ranks: 32 }
    }
}

/// `core`: deck parsing, canonicalisation, supervision, hydro.
pub fn core(m: &mut Metrics, e: &Effort, scratch: &Path) -> Result<(), String> {
    let deck = decks::smoke_deck(Family::Sedov);
    m.insert(
        "core.deck_parse_us",
        1e6 * per_call_s(e.passes, 200, || {
            let par = ParFile::parse(&deck).expect("generated deck parses");
            std::hint::black_box((par.to_config().is_ok(), par.problem().is_ok()));
        }),
    );
    let par = ParFile::parse(&deck).map_err(|e| e.to_string())?;
    m.insert(
        "core.canonical_us",
        1e6 * per_call_s(e.passes, 200, || {
            std::hint::black_box(fnv64(par.canonical().as_bytes()));
        }),
    );

    // Supervision: the rank-loss deck run plain, supervised without a
    // fault, and supervised with rank 0 killed at step 2.
    let kill = ParFile::parse(&decks::kill_deck()).map_err(|e| e.to_string())?;
    let (cfg, (np1, np2)) = kill.to_config().map_err(|e| e.to_string())?;
    let (every, keep) = kill.checkpoint_policy().map_err(|e| e.to_string())?;
    let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, np1, np2);
    let plain_s = median_s(e.passes, || {
        Spmd::new(np1 * np2).run(|ctx| {
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            Family::Gaussian.scenario().init(&mut sim);
            sim.run(&ctx.comm, &mut ctx.sink).steps
        });
    });
    let spec = |plan: FaultPlan| SuperviseSpec {
        cfg,
        scenario: Family::Gaussian,
        np1,
        np2,
        plan,
        checkpoint_every: every,
        checkpoint_keep: keep,
        dir: scratch.join("supervise"),
    };
    let mut failed = None;
    let mut supervised = |plan: FaultPlan| {
        let spec = spec(plan);
        median_s(e.passes, || {
            if let Err(e) = run_supervised(&spec, RetryPolicy::default()) {
                failed = Some(e.to_string());
            }
        })
    };
    let clean_s = supervised(FaultPlan::empty());
    let killed_s = supervised(FaultPlan::empty().with_event(2, Some(0), FaultKind::RankKill));
    if let Some(e) = failed {
        return Err(format!("supervised probe run failed: {e}"));
    }
    m.insert("core.supervise_overhead_ratio", clean_s / plain_s);
    // The whole supervised run that loses a rank: detect, roll back,
    // shrink onto the survivor, replay.  (Not a difference against the
    // clean run: one rank finishes this small deck faster than two.)
    m.insert("core.recover_ms", 1e3 * killed_s);

    // Hydro: the sedov level-1 deck, host µs per zone per step.
    let sedov = ParFile::parse(&decks::family_deck(Family::Sedov, 1)).map_err(|e| e.to_string())?;
    let (cfg, _) = sedov.to_config().map_err(|e| e.to_string())?;
    let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, 1, 1);
    let run_s = Spmd::new(1).run(|ctx| {
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        Family::Sedov.scenario().init(&mut sim);
        let t = Instant::now();
        sim.run(&ctx.comm, &mut ctx.sink);
        t.elapsed().as_secs_f64()
    })[0];
    let zone_steps = (cfg.grid.n1 * cfg.grid.n2 * cfg.n_steps) as f64;
    m.insert("core.hydro_step_us_per_zone", 1e6 * run_s / zone_steps);
    Ok(())
}

/// Host µs per BiCGSTAB iteration on one `n1 × n2 × 2` tile (the
/// manufactured operator, block-Jacobi preconditioned, as the paper deck).
pub fn bicgstab_us_per_iter(n1: usize, n2: usize, passes: usize) -> f64 {
    let map = TileMap::new(n1, n2, 1, 1);
    Spmd::new(1).run(|ctx| {
        let cart = CartComm::new(&ctx.comm, map);
        let mut op = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
        let mut pre = BlockJacobi::new(&op);
        let mut b = TileVec::new(n1, n2);
        b.fill_with(|s, i1, i2| ((i1 * 3 + i2 * 5 + s * 17) as f64 * 0.119).sin() + 0.2);
        let mut wks = SolverWorkspace::new(n1, n2);
        let mut iters = 0usize;
        // Small tiles solve in microseconds: repeat to a measurable span.
        let solves = (40_000 / (n1 * n2)).max(1);
        let secs = median_s(passes, || {
            iters = 0;
            for _ in 0..solves {
                let mut x = TileVec::new(n1, n2);
                let st = bicgstab(
                    &ctx.comm,
                    &mut ExecCtx::new(&mut ctx.sink),
                    &mut op,
                    &mut pre,
                    &b,
                    &mut x,
                    &mut wks,
                    &SolveOpts::default(),
                );
                iters += st.map_or(0, |s| s.iters);
            }
        });
        1e6 * secs / iters.max(1) as f64
    })[0]
}

/// `linalg`: solver iteration, operator application, the native kernels.
pub fn linalg(m: &mut Metrics, e: &Effort) {
    m.insert("linalg.bicgstab_us_per_iter_large", bicgstab_us_per_iter(200, 100, e.passes));
    m.insert("linalg.bicgstab_us_per_iter_small", bicgstab_us_per_iter(8, 8, e.passes));
    let (n1, n2) = (200, 100);
    let map = TileMap::new(n1, n2, 1, 1);
    let (matvec_s, precond_s) = Spmd::new(1).run(|ctx| {
        let cart = CartComm::new(&ctx.comm, map);
        let mut op = StencilOp::new(StencilCoeffs::manufactured(n1, n2, 0, 0), cart);
        let mut x = TileVec::new(n1, n2);
        x.fill_interior(1.0);
        let mut y = TileVec::new(n1, n2);
        let matvec = per_call_s(e.passes, 20, || {
            op.apply(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &mut x, &mut y);
        });
        let precond = median_s(e.passes, || {
            std::hint::black_box(BlockJacobi::new(&op));
        });
        (matvec, precond)
    })[0];
    m.insert("linalg.matvec_ns_per_zone", 1e9 * matvec_s / (n1 * n2) as f64);
    m.insert("linalg.precond_build_ms", 1e3 * precond_s);
    let len = n1 * n2 * 2;
    let x: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y: Vec<f64> = (0..len).map(|i| (i as f64 * 0.51).cos()).collect();
    let dprod = per_call_s(e.passes, 50, || {
        std::hint::black_box(native::dprod(std::hint::black_box(&x), &y));
    });
    let daxpy =
        per_call_s(e.passes, 50, || native::daxpy(1.000_000_1, &x, std::hint::black_box(&mut y)));
    m.insert("linalg.dprod_ns_per_elem", 1e9 * dprod / len as f64);
    m.insert("linalg.daxpy_ns_per_elem", 1e9 * daxpy / len as f64);
}

/// Host µs per round of empty-compute allreduce and halo exchange on
/// `np1 × np2` ranks, and host µs per scheduler dispatch.
fn comm_rounds(np1: usize, np2: usize, n1: usize, n2: usize, rounds: usize) -> (f64, f64, f64) {
    let map = TileMap::new(n1, n2, np1, np2);
    let (outs, sched) = Spmd::new(np1 * np2).run_observed(|ctx| {
        let t = Instant::now();
        for _ in 0..rounds {
            let mut v = [1.0];
            ctx.comm.allreduce(&mut ctx.sink, ReduceOp::Sum, &mut v);
        }
        t.elapsed().as_secs_f64()
    });
    let allreduce_s = outs[0];
    let host_us_per_dispatch = 1e6 * allreduce_s / sched.dispatches.max(1) as f64;
    let halo_s = Spmd::new(np1 * np2).run(|ctx| {
        let cart = CartComm::new(&ctx.comm, map);
        let tile = cart.tile();
        let strip = |d: Dir| match d {
            Dir::West | Dir::East => vec![0.5; 2 * tile.n2],
            Dir::South | Dir::North => vec![0.5; 2 * tile.n1],
        };
        let mut buf = Vec::new();
        let t = Instant::now();
        for _ in 0..rounds {
            for d in Dir::ALL {
                cart.post(&ctx.comm, &mut ctx.sink, d, &strip(d));
            }
            for d in Dir::ALL {
                let _ = cart.collect_into(&ctx.comm, &mut ctx.sink, d, &mut buf);
            }
        }
        t.elapsed().as_secs_f64()
    })[0];
    (1e6 * allreduce_s / rounds as f64, 1e6 * halo_s / rounds as f64, host_us_per_dispatch)
}

/// `comm`: launch, collectives, halo exchange, at 20 and at many ranks.
pub fn comm(m: &mut Metrics, e: &Effort) {
    let launch = |n: usize| 1e3 * median_s(e.passes, || drop(Spmd::new(n).run(|_| ())));
    m.insert("comm.spmd_launch_ms_20", launch(20));
    m.insert("comm.spmd_launch_ms_256", launch(e.wide_ranks));
    let (allreduce, halo, dispatch) = comm_rounds(5, 4, 200, 100, e.rounds_20);
    m.insert("comm.allreduce_us_20", allreduce);
    m.insert("comm.halo_us_20", halo);
    m.insert("comm.host_us_per_dispatch", dispatch);
    let (allreduce, halo, _) = comm_rounds(e.wide_ranks, 1, 8 * e.wide_ranks, 8, e.rounds_256);
    m.insert("comm.allreduce_us_256", allreduce);
    m.insert("comm.halo_us_256", halo);
}

/// `machine`: the cost of one charge across the four compiler lanes.
pub fn machine(m: &mut Metrics, e: &Effort) {
    let mut sink = MultiCostSink::all_compilers();
    let shape = KernelShape::streaming(KernelClass::Daxpy, 40_000, 2, 2, 1, 3 * 320_000);
    let secs = median_s(e.passes.min(3), || {
        for _ in 0..e.charge_calls {
            sink.charge(std::hint::black_box(&shape));
        }
    });
    std::hint::black_box(sink.elapsed_secs());
    m.insert("machine.charge_ns", 1e9 * secs / e.charge_calls as f64);
}

/// `sve`: the bare executor, the decoder, and one sweep's counters.
pub fn sve(m: &mut Metrics, e: &Effort, n: usize) {
    let cfg = ExecConfig::a64fx_l1();
    let exec = Executor::new(cfg.clone());
    for (name, variant) in [
        ("sve.exec_minstr_per_s_scalar", Variant::Scalar),
        ("sve.exec_minstr_per_s_sve", Variant::Sve),
    ] {
        let states: Vec<_> = Routine::ALL
            .iter()
            .map(|&r| (decoded_routine(r, variant, &cfg), prepare_routine(r, n, &cfg)))
            .collect();
        let mut instrs = 0u64;
        let secs = median_s(e.passes, || {
            instrs = 0;
            for (dp, (regs, mem)) in &states {
                let (mut regs, mut mem) = (regs.clone(), mem.clone());
                instrs += exec.run_decoded(dp, &mut regs, &mut mem).instrs;
            }
        });
        m.insert(name, instrs as f64 / secs * 1e-6);
    }
    let programs: Vec<_> = Routine::ALL
        .iter()
        .flat_map(|&r| {
            [Variant::Scalar, Variant::Sve].map(|v| decoded_routine(r, v, &cfg).instrs())
        })
        .collect();
    let decode_s = median_s(e.passes, || {
        for p in &programs {
            std::hint::black_box(DecodedProgram::decode(p, &cfg));
        }
    });
    m.insert("sve.decode_us_per_program", 1e6 * decode_s / programs.len() as f64);

    // One warm sweep through `run_routine`, with the counters around it.
    let cells = crate::workloads::sve_cells();
    let sweep = |f: &mut dyn FnMut(Routine, Variant, &ExecConfig)| {
        for &(r, v, vl) in &cells {
            f(r, v, &ExecConfig::a64fx_l1().with_vl(vl));
        }
    };
    sweep(&mut |r, v, c| drop(run_routine(r, n, v, c)));
    let hits0 = (
        v2d_sve::cache::cache_hit_count(),
        v2d_sve::cache::cache_shared_hit_count() + v2d_sve::cache::cache_miss_count(),
    );
    let fuse0 = (v2d_sve::fuse::fused_dyn_count(), v2d_sve::fuse::dyn_total_count());
    let (mut instrs, mut cycles) = (0u64, 0u64);
    let t = Instant::now();
    sweep(&mut |r, v, c| {
        let st = run_routine(r, n, v, c);
        instrs += st.instrs;
        cycles += st.cycles;
    });
    let sweep_s = t.elapsed().as_secs_f64();
    let hits = v2d_sve::cache::cache_hit_count() - hits0.0;
    let other =
        v2d_sve::cache::cache_shared_hit_count() + v2d_sve::cache::cache_miss_count() - hits0.1;
    let fused = v2d_sve::fuse::fused_dyn_count() - fuse0.0;
    let dynamic = v2d_sve::fuse::dyn_total_count() - fuse0.1;
    let t = Instant::now();
    sweep(&mut |r, _, c| drop(std::hint::black_box(prepare_routine(r, n, c))));
    let prep_s = t.elapsed().as_secs_f64();
    m.insert("sve.instrs", instrs as f64);
    m.insert("sve.cycles", cycles as f64);
    m.insert("sve.sim_minstr_per_s", instrs as f64 / sweep_s * 1e-6);
    m.insert("sve.state_prep_share", prep_s / sweep_s);
    m.insert("sve.cache_hit_ratio", hits as f64 / (hits + other).max(1) as f64);
    m.insert("sve.fused_dyn_ratio", fused as f64 / dynamic.max(1) as f64);
}

/// `io`: the checkpoint file of the paper grid, encoded, decoded, saved.
pub fn io(m: &mut Metrics, e: &Effort, scratch: &Path) -> Result<(), String> {
    let (n1, n2) = (200usize, 100usize);
    let mut f = File::new();
    f.set_attr("time", Value::F64(0.6));
    f.set_attr("istep", Value::I64(10));
    let erad: Vec<f64> = (0..2 * n1 * n2).map(|i| (i as f64 * 0.013).sin()).collect();
    f.write_dataset("radiation/erad", Dataset::f64(vec![2, n2, n1], erad));
    let bytes = f.to_bytes();
    let mb = bytes.len() as f64 / 1e6;
    let encode_s = per_call_s(e.passes, 10, || drop(std::hint::black_box(f.to_bytes())));
    let mut decoded_ok = true;
    let decode_s = per_call_s(e.passes, 10, || decoded_ok &= File::from_bytes(&bytes).is_ok());
    if !decoded_ok {
        return Err("checkpoint bytes did not decode".into());
    }
    let dir = scratch.join("io");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut saved_ok = true;
    let save_s = per_call_s(e.passes, 5, || saved_ok &= f.save(dir.join("probe.h5l")).is_ok());
    let mut store = CheckpointStore::new(dir.join("store"), 2).map_err(|e| e.to_string())?;
    let mut istep = 0;
    let store_s = per_call_s(e.passes, 5, || {
        istep += 1;
        saved_ok &= store.save(&f, istep).is_ok();
    });
    if !saved_ok {
        return Err("checkpoint save failed".into());
    }
    m.insert("io.encode_mb_per_s", mb / encode_s);
    m.insert("io.decode_mb_per_s", mb / decode_s);
    m.insert("io.save_ms", 1e3 * save_s);
    m.insert("io.store_save_ms", 1e3 * store_s);
    Ok(())
}

/// `serve`, in process: parse, admit (hit and miss), serialise.  Returns
/// a result line and a status line as the daemon would send them.
pub fn serve(m: &mut Metrics, e: &Effort, scratch: &Path) -> Result<(String, String), String> {
    let dir = scratch.join("serve_probe");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let svc = Service::new(ServeOpts { workers: 2, scratch: dir, ..ServeOpts::default() });
    let deck = decks::smoke_deck(Family::Gaussian);
    let line = client::submit_line("probe", &deck, None);
    m.insert(
        "serve.parse_request_us",
        1e6 * per_call_s(e.passes, 200, || drop(std::hint::black_box(parse_request(&line)))),
    );
    let req = parse_request(&line)?;
    let first = svc.handle(req.clone()).wait();
    // `handle` consumes its request; clone them outside the timed loop.
    let hits: Vec<_> = (0..200).map(|_| req.clone()).collect();
    let t = Instant::now();
    for r in hits {
        std::hint::black_box(svc.handle(r).wait());
    }
    m.insert("serve.handle_hit_us", 1e6 * t.elapsed().as_secs_f64() / 200.0);
    m.insert(
        "serve.to_line_us",
        1e6 * per_call_s(e.passes, 200, || drop(std::hint::black_box(first.to_line()))),
    );
    let mut novelty = 0;
    let miss_s = median_s(e.passes.max(3), || {
        novelty += 1;
        let line = client::submit_line("miss", &decks::novel(&deck, novelty), None);
        let req = parse_request(&line).expect("generated request parses");
        std::hint::black_box(svc.handle(req).wait());
    });
    m.insert("serve.handle_miss_ms", 1e3 * miss_s);
    let status = svc.status_response("probe").to_line();
    svc.shutdown();
    Ok((first.to_line(), status))
}

/// `obs`: the JSON codec on the documents the daemon really sends, and
/// the cost of an attached virtual-clock tracer.
pub fn obs(
    m: &mut Metrics,
    e: &Effort,
    result_line: &str,
    status_line: &str,
) -> Result<(), String> {
    let docs = [result_line, status_line];
    let mb = docs.iter().map(|d| d.len()).sum::<usize>() as f64 / 1e6;
    let parsed: Vec<Json> =
        docs.iter().map(|d| Json::parse(d).map_err(|e| e.to_string())).collect::<Result<_, _>>()?;
    let parse_s = per_call_s(e.passes, 100, || {
        for d in docs {
            std::hint::black_box(Json::parse(d).is_ok());
        }
    });
    let encode_s = per_call_s(e.passes, 100, || {
        for j in &parsed {
            std::hint::black_box(j.to_compact());
        }
    });
    m.insert("obs.json_parse_mb_per_s", mb / parse_s);
    m.insert("obs.json_encode_mb_per_s", mb / encode_s);

    let par =
        ParFile::parse(&decks::family_deck(Family::Gaussian, 1)).map_err(|e| e.to_string())?;
    let (cfg, _) = par.to_config().map_err(|e| e.to_string())?;
    let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, 1, 1);
    let run_s = |traced: bool| {
        median_s(e.passes.min(3), || {
            Spmd::new(1).run(|ctx| {
                let mut sim = V2dSim::new(cfg, &ctx.comm, map);
                Family::Gaussian.scenario().init(&mut sim);
                if traced {
                    sim.set_tracer(Tracer::new(0, &ctx.sink));
                }
                sim.run(&ctx.comm, &mut ctx.sink).steps
            });
        })
    };
    let plain = run_s(false);
    m.insert("obs.tracer_overhead_ratio", run_s(true) / plain);
    Ok(())
}
