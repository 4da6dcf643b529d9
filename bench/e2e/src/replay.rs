//! The traced pass: each workload once more, *in process*, with the
//! harness recording a span around each of its own calls into a layer.
//!
//! The replay of a `v2d` workload runs the stages `src/bin/v2d.rs` runs,
//! in its order, through the same public functions.  Spans inside the
//! program are a later change; until then the stage boundaries are the
//! finest attribution host time has.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use v2d_comm::{msg_buf_alloc_count, Spmd, TileMap};
use v2d_core::checkpoint::write_checkpoint;
use v2d_core::config_file::ParFile;
use v2d_core::problems::Family;
use v2d_core::sim::V2dSim;
use v2d_linalg::tilevec_alloc_count;
use v2d_serve::{parse_request, ServeOpts, Service};
use v2d_sve::kernels::{decoded_routine, prepare_routine, Routine, Variant};
use v2d_sve::{ExecConfig, Executor};

use crate::spans::{Recorder, Span, SpanId};
use crate::stats;
use crate::sys;

/// A finished replay: its spans, its wall time (the root span), and the
/// layer metrics that fall out of it.
pub struct Replay {
    pub spans: Vec<Span>,
    pub wall_s: f64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Ranks and tile extents of a `v2d` replay (zero otherwise).
    pub ranks: usize,
    pub tile: (usize, usize),
}

impl Replay {
    fn new(spans: Vec<Span>) -> Replay {
        let wall_s = spans.first().map_or(0.0, |root| root.dur_ns() as f64 * 1e-9);
        Replay { spans, wall_s, metrics: BTreeMap::new(), ranks: 0, tile: (0, 0) }
    }

    /// Total duration of the spans called `name`, in seconds.
    fn stage_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 * 1e-9).sum()
    }
}

/// What each rank of a `v2d` replay hands back.
struct RankOut {
    step_ms: Vec<f64>,
    iters: usize,
    reductions: usize,
    validation_pass: bool,
    /// `(compiler slug, simulated seconds)` per lane.
    sim_s: Vec<(&'static str, f64)>,
    /// Kernel charges, messages and bytes this rank accounted (lane 0).
    charges: u64,
    msgs: u64,
    bytes: u64,
    checkpoint_bytes: usize,
}

/// Replay one `v2d <deck>` run.  `dir` receives the final checkpoint.
pub fn v2d(workload: &str, deck: &str, dir: &Path) -> Result<Replay, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let rec = Recorder::new(workload);
    let root = rec.begin("bench.replay", 0, None);
    let parsed = rec.span("core.deck_parse", 0, Some(root), || {
        let par = ParFile::parse(deck).map_err(|e| e.to_string())?;
        let (cfg, np) = par.to_config().map_err(|e| e.to_string())?;
        let family = par.problem().map_err(|e| e.to_string())?.unwrap_or(Family::Gaussian);
        Ok::<_, String>((cfg, np, family))
    });
    let (cfg, (np1, np2), family) = parsed?;
    let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, np1, np2);
    let final_path = dir.join("v2d_final.h5l");

    let allocs0 = (tilevec_alloc_count(), msg_buf_alloc_count());
    let (user0, sys0, ctx0) = sys::self_usage();
    let run_span = rec.begin("comm.spmd_run", 0, Some(root));
    let launch = rec.begin("comm.spmd_launch", 0, Some(run_span));
    let rec_ref = &rec;
    let final_path_ref = &final_path;
    let (outs, sched) = Spmd::new(np1 * np2).run_observed(move |ctx| {
        // Every rank runs every stage; rank 0 alone records them.
        let tracing = (ctx.rank() == 0).then_some((rec_ref, run_span));
        if tracing.is_some() {
            rec_ref.end(launch);
        }
        let mut sim = stage(tracing, "core.sim_new", || V2dSim::new(cfg, &ctx.comm, map));
        stage(tracing, "core.scenario_init", || family.scenario().init(&mut sim));
        stage(tracing, "core.total_energy", || {
            sim.total_radiation_energy(&ctx.comm, &mut ctx.sink)
        });
        let mut out = RankOut {
            step_ms: Vec::with_capacity(cfg.n_steps),
            iters: 0,
            reductions: 0,
            validation_pass: false,
            sim_s: Vec::new(),
            charges: 0,
            msgs: 0,
            bytes: 0,
            checkpoint_bytes: 0,
        };
        for i in 0..cfg.n_steps {
            let t = Instant::now();
            let st =
                stage(tracing, &format!("core.step[{i}]"), || sim.step(&ctx.comm, &mut ctx.sink));
            out.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.iters += st.rad.total_iters();
            out.reductions += st.rad.stages.iter().map(|s| s.reductions).sum::<usize>();
        }
        stage(tracing, "core.total_energy", || {
            sim.total_radiation_energy(&ctx.comm, &mut ctx.sink)
        });
        out.validation_pass = stage(tracing, "core.validate", || {
            family.scenario().validate(&sim, &ctx.comm, &mut ctx.sink).pass
        });
        let ck = stage(tracing, "core.checkpoint_gather", || {
            write_checkpoint(&ctx.comm, &mut ctx.sink, &sim)
        });
        if tracing.is_some() {
            if let Ok(ck) = &ck {
                // The program encodes inside `save`; the replay encodes
                // once more on its own so the two costs show separately.
                out.checkpoint_bytes = stage(tracing, "io.encode", || ck.to_bytes().len());
                let _ = stage(tracing, "io.save", || ck.save(final_path_ref));
            }
            stage(tracing, "perf.profiler_report", || sim.profiler_report(&ctx.sink).len());
        }
        out.sim_s =
            ctx.sink.lanes.iter().map(|l| (l.profile.id.slug(), l.elapsed_secs())).collect();
        let lane0 = &ctx.sink.lanes[0];
        out.charges = lane0.counters.calls.iter().sum();
        out.msgs = lane0.comm_msgs;
        out.bytes = lane0.comm_bytes;
        out
    });
    rec.end(run_span);
    rec.end(root);
    let (user1, sys1, ctx1) = sys::self_usage();

    let mut r = Replay::new(rec.into_spans());
    r.ranks = np1 * np2;
    r.tile = (map.tile(0).n1, map.tile(0).n2);
    let rank0 = &outs[0];
    let m = &mut r.metrics;
    let sorted_steps = stats::sorted(&rank0.step_ms);
    m.insert("core.run_s", rank0.step_ms.iter().sum::<f64>() * 1e-3);
    m.insert("core.step_ms_p50", stats::percentile(&sorted_steps, 50.0));
    m.insert("core.step_ms_max", sorted_steps.last().copied().unwrap_or(0.0));
    m.insert("core.validation_pass", f64::from(u8::from(rank0.validation_pass)));
    m.insert("core.iters_total", rank0.iters as f64);
    m.insert("core.solves_total", 3.0 * cfg.n_steps as f64);
    m.insert("core.reductions_total", rank0.reductions as f64);
    m.insert("comm.dispatches", sched.dispatches as f64);
    m.insert("comm.msgs", outs.iter().map(|o| o.msgs).sum::<u64>() as f64);
    m.insert("comm.bytes", outs.iter().map(|o| o.bytes).sum::<u64>() as f64);
    m.insert("comm.msg_buf_allocs", (msg_buf_alloc_count() - allocs0.1) as f64);
    m.insert("comm.ctx_switches", (ctx1 - ctx0) as f64);
    let cpu = (user1 - user0) + (sys1 - sys0);
    m.insert("comm.sys_cpu_share", if cpu > 0.0 { (sys1 - sys0) / cpu } else { 0.0 });
    m.insert("linalg.tilevec_allocs", (tilevec_alloc_count() - allocs0.0) as f64);
    m.insert("machine.charges", outs.iter().map(|o| o.charges).sum::<u64>() as f64);
    m.insert("io.checkpoint_bytes", rank0.checkpoint_bytes as f64);
    for (name, slug) in [
        ("machine.sim_s_gnu", "gnu"),
        ("machine.sim_s_fujitsu", "fujitsu"),
        ("machine.sim_s_cray_opt", "cray_opt"),
        ("machine.sim_s_cray_noopt", "cray_noopt"),
    ] {
        // The job is as slow as its slowest rank.
        let secs = outs
            .iter()
            .filter_map(|o| o.sim_s.iter().find(|(s, _)| *s == slug).map(|(_, t)| *t))
            .fold(0.0, f64::max);
        m.insert(name, secs);
    }
    for (name, span, scale) in [
        ("core.sim_new_ms", "core.sim_new", 1e3),
        ("core.scenario_init_ms", "core.scenario_init", 1e3),
        ("core.validate_ms", "core.validate", 1e3),
        ("core.checkpoint_gather_ms", "core.checkpoint_gather", 1e3),
        ("perf.profiler_report_us", "perf.profiler_report", 1e6),
    ] {
        let secs = r.stage_s(span);
        r.metrics.insert(name, secs * scale);
    }
    Ok(r)
}

/// Run `f`, as a child span of the rank's run span when this rank records.
fn stage<T>(tracing: Option<(&Recorder, SpanId)>, name: &str, f: impl FnOnce() -> T) -> T {
    match tracing {
        Some((rec, parent)) => rec.span(name, 0, Some(parent), f),
        None => f(),
    }
}

/// Replay a request campaign against an in-process [`Service`]:
/// `preload` lines are answered unrecorded, then each of `lines` is
/// parsed, handled to completion and serialised, one span per stage.
pub fn serve(
    workload: &str,
    preload: &[String],
    lines: &[String],
    scratch: &Path,
) -> Result<Replay, String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let svc = Service::new(ServeOpts {
        workers: 2,
        scratch: scratch.to_path_buf(),
        ..ServeOpts::default()
    });
    for line in preload {
        svc.handle(parse_request(line)?).wait();
    }
    let rec = Recorder::new(workload);
    let root = rec.begin("bench.replay", 0, None);
    let mut bad = 0usize;
    for (i, line) in lines.iter().enumerate() {
        let op = i as u64 + 1;
        let req = rec.span("serve.parse_request", op, Some(root), || parse_request(line))?;
        let resp = rec.span("serve.handle", op, Some(root), || svc.handle(req).wait());
        let text = rec.span("serve.to_line", op, Some(root), || resp.to_line());
        bad += usize::from(!text.contains("\"outcome\":\"done\""));
    }
    rec.end(root);
    svc.shutdown();
    if bad > 0 {
        return Err(format!("{bad} replayed requests did not finish `done`"));
    }
    Ok(Replay::new(rec.into_spans()))
}

/// Replay kernel-driver sweeps: per cell, fetch the decoded program,
/// build the machine state, run it.
pub fn sve(workload: &str, cells: &[(Routine, Variant, u32)], n: usize, sweeps: usize) -> Replay {
    let rec = Recorder::new(workload);
    let root = rec.begin("bench.replay", 0, None);
    for sweep in 0..sweeps {
        for (c, &(routine, variant, vl)) in cells.iter().enumerate() {
            let op = (sweep * cells.len() + c) as u64 + 1;
            let cfg = ExecConfig::a64fx_l1().with_vl(vl);
            let dp = rec.span("sve.decoded_routine", op, Some(root), || {
                decoded_routine(routine, variant, &cfg)
            });
            let (mut regs, mut mem) = rec
                .span("sve.prepare_routine", op, Some(root), || prepare_routine(routine, n, &cfg));
            let exec = Executor::new(cfg);
            rec.span("sve.run_decoded", op, Some(root), || {
                std::hint::black_box(exec.run_decoded(&dp, &mut regs, &mut mem))
            });
        }
    }
    rec.end(root);
    Replay::new(rec.into_spans())
}
