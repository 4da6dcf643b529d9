//! Canonical benchmark collection for the CI regression gate.
//!
//! [`collect`] runs a fixed set of fast experiments and packs every
//! result into a [`BenchReport`].  Every entry is a **modeled
//! quantity** — Table II kernel clocks and instruction counts, Fig. 1
//! matrix statistics, a miniature Table I sweep, the 50-rank corner of
//! the full Table I grid, the rank scheduler's dispatch counters, the
//! totals of 2-rank fault-recovery runs, the supervised-recovery ledger,
//! the scenario registry and the scripted service counters — and
//! carries [`Gate::Exact`] (or a 1e-9 [`Gate::Band`] for validation
//! norms): deterministic functions of the code, gated bit-for-bit.
//! Host time is not measured here; that is `bench/e2e/run.sh`'s job.
//!
//! [`gate`] (`v2d-bench gate`) regenerates the report and diffs it
//! against the checked-in `bench/baseline.json`, or with `--write`
//! replaces that file.

use v2d_comm::{ReduceOp, Spmd};
use v2d_core::problems::{Family, GaussianPulse};
use v2d_core::supervise::{run_supervised, RetryPolicy, SuperviseSpec};
use v2d_linalg::sparsity;
use v2d_machine::{FaultKind, FaultPlan, ALL_COMPILERS};
use v2d_obs::{compare, BenchEntry, BenchReport, Gate, Metric, RunReport, Tracer};
use v2d_sve::kernels::{decoded_routine, prepare_routine, Routine, Variant};
use v2d_sve::{ExecConfig, Executor};
use v2d_testkit::MiniSpec;

use crate::{fig1, table1, table2, UsageError};

/// FNV-1a over `data`, folded to 32 bits so the value is exact in f64.
fn fnv32(data: &[u8]) -> u64 {
    let h = v2d_serve::fnv64(data);
    (h >> 32) ^ (h & 0xffff_ffff)
}

/// Table II rows → exact modeled entries (clocks + instruction counts).
pub fn add_table2(report: &mut BenchReport, rows: &[table2::Row]) {
    for row in rows {
        let name = row.routine.name().to_lowercase();
        report.add(&format!("table2.{name}.no_sve_s"), row.no_sve, "s", Gate::Exact);
        report.add(&format!("table2.{name}.sve_s"), row.sve, "s", Gate::Exact);
        report.add(
            &format!("table2.{name}.instrs_scalar"),
            row.instrs.0 as f64,
            "count",
            Gate::Exact,
        );
        report.add(&format!("table2.{name}.instrs_sve"), row.instrs.1 as f64, "count", Gate::Exact);
    }
}

/// Fig. 1 matrix statistics + a checksum of the rendered bitmap.
pub fn add_fig1(report: &mut BenchReport, pbm: &str) {
    let dim = sparsity::dimension(fig1::N1, fig1::N2, fig1::NSPEC);
    let nnz = sparsity::nnz(fig1::N1, fig1::N2, fig1::NSPEC);
    let window = sparsity::nonzeros_in_window(
        fig1::N1,
        fig1::N2,
        fig1::NSPEC,
        0..fig1::WINDOW,
        0..fig1::WINDOW,
    )
    .len();
    report.add("fig1.dim", dim as f64, "count", Gate::Exact);
    report.add("fig1.nnz", nnz as f64, "count", Gate::Exact);
    report.add("fig1.window_nnz", window as f64, "count", Gate::Exact);
    report.add("fig1.pbm_fnv32", fnv32(pbm.as_bytes()) as f64, "hash", Gate::Exact);
}

/// A miniature Table I: the Gaussian-pulse study at 48×24, serial and
/// 2×2, all four compiler lanes.  Exercises the full simulation stack
/// (halo exchange, ganged reductions, preconditioned BiCGSTAB) so any
/// modeled-clock drift anywhere in it trips the gate.
pub fn add_table1_mini(report: &mut BenchReport) {
    let cfg = GaussianPulse::scaled_config(48, 24, 2);
    for (nx1, nx2) in [(1, 1), (2, 2)] {
        let row = table1::run_topology(&cfg, nx1, nx2);
        let np = nx1 * nx2;
        for (i, id) in ALL_COMPILERS.iter().enumerate() {
            report.add(
                &format!("table1_mini.np{np}.{}_s", id.slug()),
                row.secs[i],
                "s",
                Gate::Exact,
            );
        }
        report.add(
            &format!("table1_mini.np{np}.iters_per_solve"),
            row.iters_per_solve,
            "iters",
            Gate::Exact,
        );
    }
}

/// Representative coordinates of the full ≤ 50-rank Table I grid (the
/// `table1_full` sweep): the three 50-rank factorizations of a reduced 50×50 pulse,
/// plus one 64-rank weak-scaling point at fixed per-rank work.  All
/// exact — the full 207-topology sweep lives in the `table1_full`
/// golden; these entries give the regression gate a bit-for-bit grip
/// on its highest-rank corner without the minute of wall clock.
pub fn add_table1_full(report: &mut BenchReport) {
    let cfg = GaussianPulse::scaled_config(50, 50, 1);
    for (nx1, nx2) in [(50, 1), (25, 2), (10, 5)] {
        let row = table1::run_topology(&cfg, nx1, nx2);
        for (i, id) in ALL_COMPILERS.iter().enumerate() {
            report.add(
                &format!("table1_full.np50.{nx1}x{nx2}.{}_s", id.slug()),
                row.secs[i],
                "s",
                Gate::Exact,
            );
        }
    }
    let weak = table1::run_weak_point(64, 1);
    report.add("table1_full.weak.np64.cray_opt_s", weak.secs[2], "s", Gate::Exact);
    report.add("table1_full.weak.np64.gnu_s", weak.secs[0], "s", Gate::Exact);
}

/// The rank scheduler's own launch counters, pinned by the gate: a
/// fixed 8-rank ring exchange + ganged reduction.  Dispatch and
/// quiescence counts are schedule-deterministic, so an exact gate on
/// them notices any change to the engine's dispatch policy — the one
/// quantity the clock gates cannot see, because the charging code does
/// not depend on who is dispatched when.
pub fn add_sched(report: &mut BenchReport) {
    let (_, stats) = Spmd::new(8).run_observed(|ctx| {
        let rank = ctx.rank();
        let n = ctx.comm.n_ranks();
        let mut acc = rank as f64;
        for step in 0..4u32 {
            let dst = (rank + 1) % n;
            let src = (rank + n - 1) % n;
            ctx.comm.send(&mut ctx.sink, dst, step, &[acc]);
            let got = ctx.comm.recv(&mut ctx.sink, src, step).expect("ring recv");
            acc += got[0];
            acc = ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Max, acc);
        }
        acc
    });
    report.add("sched.dispatches", stats.dispatches as f64, "count", Gate::Exact);
    report.add("sched.quiescences", stats.quiescences as f64, "count", Gate::Exact);
}

/// Dispatch-group coverage, pinned by the gate under `sve.fuse.*`:
/// multi-op groups (basic blocks of two or more ops) over the ten kernel
/// programs (a decode-time property — any change to the partition moves
/// it), plus the dynamic counts of ops run inside such groups by a
/// dedicated serial run of the five SVE kernels on the calling thread.
/// The dynamic counts come from the thread-local per-run snapshot rather
/// than the process-wide counters, so concurrent test threads cannot
/// perturb them.
pub fn add_fuse(report: &mut BenchReport) {
    let cfg = ExecConfig::a64fx_l1();
    let mut chains = 0u64;
    for r in Routine::ALL {
        for v in [Variant::Scalar, Variant::Sve] {
            chains += decoded_routine(r, v, &cfg).chain_count() as u64;
        }
    }
    let (mut fused_ops, mut total_ops) = (0u64, 0u64);
    for r in Routine::ALL {
        let (mut regs, mut mem) = prepare_routine(r, 96, &cfg);
        let dp = decoded_routine(r, Variant::Sve, &cfg);
        let _ = Executor::new(cfg.clone()).run_decoded(&dp, &mut regs, &mut mem);
        let (f, t) = v2d_sve::fuse::last_run_fuse_counts();
        fused_ops += f;
        total_ops += t;
    }
    report.add("sve.fuse.chains", chains as f64, "count", Gate::Exact);
    report.add("sve.fuse.fused_ops", fused_ops as f64, "count", Gate::Exact);
    report.add("sve.fuse.total_ops", total_ops as f64, "count", Gate::Exact);
}

/// The deterministic 2-rank fault-recovery run behind the `faults.*`
/// entries: a NaN landing in the field, an injected solver breakdown,
/// and a delayed halo message, all recovered from.  The coordinates
/// (linear 16×8 pulse, 2×1 tiling) mirror the `ablation_faults`
/// campaign, whose golden pins them down.
pub fn fault_mini_plan() -> FaultPlan {
    FaultPlan::empty()
        .with_event(1, Some(0), FaultKind::FieldNan)
        .with_event(4, None, FaultKind::SolverBreakdown { count: 1 })
        .with_event(6, Some(1), FaultKind::DelayMessage { nth: 1, secs: 0.25 })
}

/// The mini campaign's scenario in `v2d-testkit` terms (one spec, so
/// the golden's coordinates are stated once).
pub fn fault_mini_spec() -> MiniSpec {
    MiniSpec::linear(16, 8, 12).tiled(2, 1).with_plan(fault_mini_plan())
}

/// The nonlinear (flux-limited) sibling of [`fault_mini_spec`]: the
/// exact formerly-deadlocking ROADMAP coordinates — 24×12 scaled
/// pulse, 2×1 tiling, FieldNan into rank 0 at step 2 — now gated under
/// `faults_nl.*` entries since the scrub rung recovers it.
pub fn fault_mini_nl_spec() -> MiniSpec {
    let plan = FaultPlan::empty().with_event(2, Some(0), FaultKind::FieldNan).with_event(
        4,
        Some(1),
        FaultKind::FieldInf,
    );
    MiniSpec::nonlinear(24, 12, 6).tiled(2, 1).with_plan(plan)
}

/// Run a fault-recovery mini campaign with a tracer attached and
/// return rank 0's [`RunReport`] plus both ranks' tracers (for trace
/// export and determinism tests).
pub fn fault_mini_run_with(spec: MiniSpec, suite: &str) -> (RunReport, Vec<Tracer>) {
    let meta = vec![("suite".to_string(), suite.to_string())];
    let outs = Spmd::new(spec.ranks()).run(move |ctx| {
        let mut sim = spec.build(&ctx.comm);
        sim.set_tracer(Tracer::new(ctx.comm.rank(), &ctx.sink).without_kernel_spans());
        let (_, report) = sim.run_observed(&ctx.comm, &mut ctx.sink, meta.clone());
        (report, sim.take_tracer().expect("tracer attached"))
    });
    let mut reports = Vec::new();
    let mut tracers = Vec::new();
    for (r, t) in outs {
        reports.push(r);
        tracers.push(t);
    }
    (reports.swap_remove(0), tracers)
}

/// The linear mini campaign (legacy name; the `faults.*` gate entries).
pub fn fault_mini_run() -> (RunReport, Vec<Tracer>) {
    fault_mini_run_with(fault_mini_spec(), "fault_mini")
}

/// Fault-recovery totals → exact entries under `prefix.`.
fn add_fault_totals(report: &mut BenchReport, prefix: &str, rr: &RunReport) {
    for (name, m) in rr.totals.iter() {
        let v = match m {
            Metric::Counter(c) => *c as f64,
            Metric::Gauge(g) => *g,
            Metric::Hist(_) => continue,
        };
        let unit = if name.ends_with("_s") { "s" } else { "count" };
        report.add(&format!("{prefix}.{name}"), v, unit, Gate::Exact);
    }
}

/// Fault-recovery totals → exact entries under `faults.`.
pub fn add_fault_mini(report: &mut BenchReport) {
    let (rr, _) = fault_mini_run();
    add_fault_totals(report, "faults", &rr);
}

/// Nonlinear fault-recovery totals → exact entries under `faults_nl.`
/// (unpinned from the linear pulse now that the ROADMAP deadlock is
/// fixed).
pub fn add_fault_mini_nl(report: &mut BenchReport) {
    let (rr, _) = fault_mini_run_with(fault_mini_nl_spec(), "fault_mini_nl");
    add_fault_totals(report, "faults_nl", &rr);
}

/// The pinned supervised-recovery scenario behind the `supervise.*`
/// entries: the `supervise_recovery` regression coordinates — linear
/// 24×12 pulse on 2×1 ranks, rank 0 killed at the top of step 2,
/// checkpoint after every step, shrink allowed.  The whole recovery ledger (kills, rollbacks,
/// re-decompositions, steps replayed, attempts, virtual backoff, MTTR)
/// plus a checksum of the recovered global field gate bit-for-bit.
pub fn add_supervise(report: &mut BenchReport) {
    use std::sync::atomic::{AtomicU64, Ordering};
    // Unique scratch dir per call: report collections run concurrently
    // inside one test binary.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "v2d_bench_supervise_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let spec = SuperviseSpec {
        cfg: GaussianPulse::linear_config(24, 12, 5),
        scenario: Family::Gaussian,
        np1: 2,
        np2: 1,
        plan: FaultPlan::empty().with_event(2, Some(0), FaultKind::RankKill),
        checkpoint_every: 1,
        checkpoint_keep: 4,
        dir: dir.clone(),
    };
    let run = run_supervised(&spec, RetryPolicy::default())
        .expect("the pinned supervised scenario must recover");
    let _ = std::fs::remove_dir_all(&dir);
    let l = &run.ledger;
    for (name, count) in [
        ("supervise.kills", l.kills),
        ("supervise.rollbacks", l.rollbacks),
        ("supervise.redecompositions", l.redecompositions),
        ("supervise.steps_replayed", l.steps_replayed),
        ("supervise.attempts", l.attempts),
    ] {
        report.add(name, count as f64, "count", Gate::Exact);
    }
    report.add("supervise.backoff_s", l.backoff_virtual_secs, "s", Gate::Exact);
    report.add("supervise.mttr_s", run.mttr_virtual_secs, "s", Gate::Exact);
    let bytes: Vec<u8> = run.final_bits.iter().flat_map(|b| b.to_le_bytes()).collect();
    report.add("supervise.final_fnv32", fnv32(&bytes) as f64, "hash", Gate::Exact);
}

/// The service-layer gate family (`serve.*`): drive the quick
/// synthetic load profile through a scripted (gate-closed admission)
/// service and pin every deterministic admission counter bit-for-bit —
/// requests admitted, deduped onto in-flight jobs, served from the
/// memoized result tier, scheduled, completed, cancelled, rejected —
/// plus a checksum over the result/cancel response bytes and the
/// rank-kill spec's recovery ledger.  Scripted admission makes all of
/// these pure functions of the load profile, so `Exact` gates hold on
/// any machine.
pub fn add_serve(report: &mut BenchReport) {
    use v2d_serve::load::{run, LoadProfile};
    use v2d_serve::{Response, ServeOpts};
    let out = run(&LoadProfile::quick(), ServeOpts::default());
    // The admission and result-cache counters are the gate material;
    // `serve.pool.executed` and the depth gauge are live telemetry.
    const GATED: [&str; 12] = [
        "serve.admitted",
        "serve.rejected",
        "serve.deduped",
        "serve.scheduled",
        "serve.completed",
        "serve.failed",
        "serve.cancelled",
        "serve.status_served",
        "serve.cache.result_hits",
        "serve.cache.result_misses",
        "serve.cache.result_insertions",
        "serve.cache.result_evictions",
    ];
    for name in GATED {
        report.add(name, out.metrics.counter(name) as f64, "count", Gate::Exact);
    }
    report.add("serve.results_fnv32", out.checksum as f64, "hash", Gate::Exact);
    let kill = out
        .responses
        .iter()
        .find_map(|r| match r {
            Response::Result { id, result, .. } if id == "kill-0" => Some(result),
            _ => None,
        })
        .expect("the load profile's rank-kill spec must be answered");
    let ledger = kill.ledger().expect("a kill response carries its recovery ledger");
    report.add("serve.kill.kills", ledger.kills as f64, "count", Gate::Exact);
    report.add("serve.kill.rollbacks", ledger.rollbacks as f64, "count", Gate::Exact);
    report.add("serve.kill.attempts", ledger.attempts as f64, "count", Gate::Exact);
}

/// One problem family's smoke-resolution outcome: the validation
/// report plus an FNV checksum over the final field bits (radiation
/// and, where the family carries one, the conserved hydro state).
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    pub family: Family,
    pub smoke: (usize, usize, usize),
    pub report: v2d_core::problems::ValidationReport,
    pub field_fnv32: u64,
}

/// Run every registry family at its own smoke resolution, single rank,
/// one Cray-opt lane, and collect the validation report + field
/// checksum rows.  On modeled clocks every number here is a pure
/// function of the scenario coordinates, so the `table_scenarios`
/// golden and the `scenario.*` gate family both pin these rows.
pub fn scenario_rows() -> Vec<ScenarioRow> {
    use v2d_comm::TileMap;
    use v2d_core::problems::FAMILIES;
    use v2d_core::sim::V2dSim;
    use v2d_machine::CompilerProfile;
    FAMILIES
        .iter()
        .map(|&family| {
            let sc = family.scenario();
            let (n1, n2, steps) = sc.smoke();
            let out = std::sync::Mutex::new(None);
            Spmd::new(1).with_profiles(vec![CompilerProfile::cray_opt()]).run(|ctx| {
                let mut sim =
                    V2dSim::new(sc.config(n1, n2, steps), &ctx.comm, TileMap::new(n1, n2, 1, 1));
                sc.init(&mut sim);
                sim.run(&ctx.comm, &mut ctx.sink);
                let report = sc.validate(&sim, &ctx.comm, &mut ctx.sink);
                let mut bits: Vec<u64> =
                    sim.erad().interior_to_vec().iter().map(|v| v.to_bits()).collect();
                if let Some(state) = sim.hydro() {
                    let g = sim.grid();
                    for field in [&state.rho, &state.m1, &state.m2, &state.etot] {
                        for i2 in 0..g.n2 {
                            for i1 in 0..g.n1 {
                                bits.push(field.get(0, i1 as isize, i2 as isize).to_bits());
                            }
                        }
                    }
                }
                *out.lock().expect("scenario row mutex") = Some((report, bits));
            });
            let (report, bits) =
                out.into_inner().expect("scenario row mutex").expect("rank 0 reported");
            let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
            ScenarioRow { family, smoke: (n1, n2, steps), report, field_fnv32: fnv32(&bytes) }
        })
        .collect()
}

/// `v2d-bench table_scenarios` — the scenario zoo table: every registry
/// problem family run at its own smoke resolution, single rank, with
/// the validation norms, the pass verdict, and a bit-exact checksum of
/// the final fields.  On modeled clocks every printed number is a pure
/// function of the code, so the whole table is a golden and its rows
/// also back the `scenario.*` entries of the regression gate.
pub fn print_scenarios(args: &[String]) -> Result<(), UsageError> {
    crate::no_args(args)?;
    println!("Scenario zoo — every registry family at smoke resolution, 1 rank");
    println!(
        "{:<18} {:>12} {:>11} {:>11} {:>11} {:>6}   {:<18}",
        "family", "grid×steps", "l1", "l2", "linf", "pass", "field checksum"
    );
    let rows = scenario_rows();
    for row in &rows {
        let (n1, n2, steps) = row.smoke;
        let r = &row.report;
        println!(
            "{:<18} {:>12} {:>11.4e} {:>11.4e} {:>11.4e} {:>6}   {:#010x}",
            r.family,
            format!("{n1}x{n2}x{steps}"),
            r.l1,
            r.l2,
            r.linf,
            if r.pass { "yes" } else { "NO" },
            row.field_fnv32,
        );
    }
    println!("\ndetails:");
    for row in &rows {
        println!("  {:<18} {}", row.report.family, row.report.detail);
    }
    let failed: Vec<&str> =
        rows.iter().filter(|r| !r.report.pass).map(|r| r.report.family).collect();
    assert!(failed.is_empty(), "families failing their own validation: {failed:?}");
    println!("\nall {} families pass their own validation", rows.len());
    Ok(())
}

/// The problem-family gate (`scenario.*`): every registry scenario's
/// smoke-resolution validation norms (tight `Band` — the norms are
/// deterministic, but the band leaves room for an intentional
/// last-digit change in a future analytic reference), its 0/1 pass
/// counter, and a bit-exact checksum of the final fields.
pub fn add_scenarios(report: &mut BenchReport) {
    for row in scenario_rows() {
        let r = &row.report;
        let name = |leaf: &str| format!("scenario.{}.{leaf}", r.family);
        for (leaf, norm) in [("l1", r.l1), ("l2", r.l2), ("linf", r.linf)] {
            report.add(&name(leaf), norm, "norm", Gate::Band { rel: 1e-9 });
        }
        report.add(&name("pass"), u64::from(r.pass) as f64, "count", Gate::Exact);
        report.add(&name("field_fnv32"), row.field_fnv32 as f64, "hash", Gate::Exact);
    }
}

/// Collect the canonical report.
pub fn collect() -> BenchReport {
    let mut report = BenchReport::new(vec![
        ("suite".to_string(), "v2d regression gate".to_string()),
        ("generator".to_string(), "bench_report".to_string()),
    ]);

    add_table2(&mut report, &table2::run_full());
    add_fig1(&mut report, &fig1::artifacts(100).pbm);

    add_table1_mini(&mut report);
    add_table1_full(&mut report);
    add_sched(&mut report);
    add_fuse(&mut report);
    add_fault_mini(&mut report);
    add_fault_mini_nl(&mut report);
    add_supervise(&mut report);
    add_scenarios(&mut report);
    add_serve(&mut report);
    report
}

/// The first entry, in name order, of gate family `family` — the name
/// segment before the first dot (`table2`, `supervise`, `scenario`, …).
/// A family with no entry in `report` is a usage error.
fn family_head<'r>(
    report: &'r mut BenchReport,
    family: &str,
) -> Result<&'r mut BenchEntry, UsageError> {
    let prefix = format!("{family}.");
    report
        .entries
        .iter_mut()
        .find(|(name, _)| name.starts_with(&prefix))
        .map(|(_, e)| e)
        .ok_or(UsageError)
}

/// `v2d-bench gate` — regenerate the canonical report and compare it
/// with the checked-in baseline, gate by gate.  `Ok(false)` when any
/// gate fails; the delta table goes to stdout and (in markdown form) is
/// appended to `--summary PATH` or, when set, the file named by
/// `$GITHUB_STEP_SUMMARY`.
///
/// * `--baseline PATH` — baseline report (default `bench/baseline.json`);
/// * `--write PATH` — write the fresh report to PATH instead of
///   comparing it: commit the output to refresh the baseline;
/// * `--perturb FAMILY` — add one to the first entry (in name order)
///   of gate family FAMILY in the fresh report: the red-run
///   demonstration that a single count of drift fails the gate.  An
///   unknown family is a usage error;
/// * `--summary PATH` — append the markdown delta table there.
pub fn gate(args: &[String]) -> Result<bool, UsageError> {
    use std::io::Write as _;
    let mut baseline = "bench/baseline.json";
    let mut write = None;
    let mut perturb = None;
    let mut summary = std::env::var("GITHUB_STEP_SUMMARY").ok();
    for (flag, value) in crate::flag_values(args)? {
        match flag {
            "--baseline" => baseline = value,
            "--write" => write = Some(value),
            "--perturb" => perturb = Some(value),
            "--summary" => summary = Some(value.to_string()),
            _ => return Err(UsageError),
        }
    }
    let collect_perturbed = || {
        let mut fresh = collect();
        if let Some(family) = perturb {
            family_head(&mut fresh, family)?.value += 1.0;
        }
        Ok(fresh)
    };

    if let Some(path) = write {
        eprintln!("collecting canonical bench report …");
        let fresh = collect_perturbed()?;
        std::fs::write(path, fresh.to_json_string())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("{} metrics written to {path}", fresh.entries.len());
        return Ok(true);
    }

    let text = std::fs::read_to_string(baseline)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline}: {e}"));
    let mut base = BenchReport::parse(&text)
        .unwrap_or_else(|e| panic!("cannot parse baseline {baseline}: {e}"));
    // Check the family against the baseline before spending a collection.
    if let Some(family) = perturb {
        family_head(&mut base, family)?;
    }
    eprintln!("regenerating bench report …");
    let cmp = compare(&base, &collect_perturbed()?);
    if cmp.pass() {
        println!("regression gate: all {} metrics within tolerance", cmp.deltas.len());
    } else {
        println!("regression gate: {} of {} metrics FAILED", cmp.failures(), cmp.deltas.len());
        print!("{}", cmp.table(true));
    }
    if let Some(path) = summary {
        let md = format!(
            "### Bench regression gate: {}\n\n{}\n",
            if cmp.pass() { "✅ pass" } else { "❌ FAIL" },
            cmp.markdown()
        );
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("cannot open summary {path}: {e}"));
        f.write_all(md.as_bytes()).expect("write summary");
    }
    Ok(cmp.pass())
}

/// Table II rows → a [`RunReport`] whose totals carry the modeled
/// clocks, bit-for-bit equal to the values behind the golden text.
pub fn table2_run_report(rows: &[table2::Row]) -> RunReport {
    let mut rr = RunReport::new(vec![
        ("suite".to_string(), "table2".to_string()),
        ("n_equations".to_string(), table2::N_EQUATIONS.to_string()),
        ("reps".to_string(), table2::REPS.to_string()),
    ]);
    for row in rows {
        let name = row.routine.name().to_lowercase();
        rr.totals.gauge_set(&format!("table2.{name}.no_sve_s"), row.no_sve);
        rr.totals.gauge_set(&format!("table2.{name}.sve_s"), row.sve);
        rr.totals.counter_add(&format!("table2.{name}.instrs_scalar"), row.instrs.0);
        rr.totals.counter_add(&format!("table2.{name}.instrs_sve"), row.instrs.1);
    }
    // Program-cache effectiveness at the time of the snapshot.  The
    // counters are process-cumulative (they grow with repeated sweeps),
    // so they inform the report but are never gate entries.
    rr.totals.counter_add("sve.cache.hits", v2d_sve::cache::cache_hit_count());
    rr.totals.counter_add("sve.cache.misses", v2d_sve::cache::cache_miss_count());
    rr.totals.counter_add("sve.cache.assembles", v2d_sve::cache::assemble_count());
    rr
}

/// Table II rows → a synthetic two-lane trace: lane 0 is the scalar
/// timeline, lane 1 the SVE timeline, one span per routine laid
/// back-to-back (cycles are per-repetition × `REPS`).
pub fn table2_tracer(rows: &[table2::Row]) -> Tracer {
    let mut tr = Tracer::with_lanes(0, vec!["no-SVE".to_string(), "SVE".to_string()]);
    let (mut t0, mut t1) = (0u64, 0u64);
    for row in rows {
        let scalar = row.cycles.0 * table2::REPS as u64;
        let sve = row.cycles.1 * table2::REPS as u64;
        tr.push_span(0, row.routine.name(), t0, scalar, &[]);
        tr.push_span(1, row.routine.name(), t1, sve, &[]);
        t0 += scalar;
        t1 += sve;
    }
    tr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_and_self_compares_clean() {
        let report = collect();
        let back = BenchReport::parse(&report.to_json_string()).expect("parses");
        let cmp = compare(&report, &back);
        assert!(cmp.pass(), "round-trip drift:\n{}", cmp.table(true));
        // The exact families are all present.
        for prefix in [
            "table2.",
            "fig1.",
            "table1_mini.",
            "table1_full.",
            "sched.",
            "faults.",
            "sve.fuse.",
            "supervise.",
            "scenario.",
            "serve.",
        ] {
            assert!(report.entries.keys().any(|k| k.starts_with(prefix)), "no {prefix} entries");
        }
        // Grouping actually fires: every coverage counter is nonzero, and
        // the dedicated run spends most of its dynamic instructions
        // inside multi-op groups.
        let fuse = |k: &str| report.entries[k].value;
        assert!(fuse("sve.fuse.chains") > 0.0);
        let (fused, total) = (fuse("sve.fuse.fused_ops"), fuse("sve.fuse.total_ops"));
        assert!(fused > 0.0 && total >= fused);
        assert!(fused / total > 0.5, "fused fraction {fused}/{total} too low");
    }

    #[test]
    fn perturbing_any_family_fails_exactly_its_first_metric() {
        let base = collect();
        let mut families: Vec<&str> =
            base.entries.keys().filter_map(|k| k.split_once('.')).map(|(f, _)| f).collect();
        families.dedup();
        for family in ["table2", "supervise", "scenario", "serve"] {
            assert!(families.contains(&family), "no {family} entries");
        }
        for family in families {
            let mut fresh = base.clone();
            family_head(&mut fresh, family).expect("family has entries").value += 1.0;
            let cmp = compare(&base, &fresh);
            assert!(!cmp.pass(), "a one-count bump in {family} must not pass the gate");
            assert_eq!(cmp.failures(), 1, "{family}:\n{}", cmp.table(true));
        }
        let mut fresh = base.clone();
        assert!(family_head(&mut fresh, "warp").is_err(), "an unknown family is a usage error");
        assert!(family_head(&mut fresh, "table").is_err(), "a family is a whole name segment");
    }

    #[test]
    fn the_pinned_supervised_scenario_recovers() {
        let mut report = BenchReport::new(Vec::new());
        add_supervise(&mut report);
        // One kill, one rollback, one shrink, checksum present.
        for (key, want) in [
            ("supervise.kills", 1.0),
            ("supervise.rollbacks", 1.0),
            ("supervise.redecompositions", 1.0),
            ("supervise.attempts", 2.0),
        ] {
            assert_eq!(report.entries[key].value, want, "{key}");
        }
        assert!(report.entries.contains_key("supervise.final_fnv32"));
    }

    #[test]
    fn every_family_passes_its_own_validation_in_the_gate() {
        let mut report = BenchReport::new(Vec::new());
        add_scenarios(&mut report);
        for family in v2d_core::problems::FAMILIES {
            let pass = &format!("scenario.{family}.pass");
            assert_eq!(report.entries[pass].value, 1.0, "{family} fails validation");
            assert!(report.entries.contains_key(&format!("scenario.{family}.l2")));
            assert!(report.entries.contains_key(&format!("scenario.{family}.field_fnv32")));
        }
    }

    #[test]
    fn the_quick_load_profile_exercises_the_whole_admission_surface() {
        let mut report = BenchReport::new(Vec::new());
        add_serve(&mut report);
        let entry = |k: &str| report.entries[k].value;
        assert!(entry("serve.admitted") > 10.0);
        assert!(entry("serve.deduped") >= 1.0);
        assert!(entry("serve.cache.result_hits") >= 1.0);
        assert!(entry("serve.cancelled") >= 1.0);
        assert_eq!(entry("serve.kill.kills"), 1.0);
        assert!(report.entries.contains_key("serve.results_fnv32"));
    }

    #[test]
    fn table2_run_report_matches_rows_bit_for_bit() {
        let rows = table2::run_full();
        let rr = table2_run_report(&rows);
        for row in &rows {
            let name = row.routine.name().to_lowercase();
            let no_sve = rr.totals.get(&format!("table2.{name}.no_sve_s"));
            let sve = rr.totals.get(&format!("table2.{name}.sve_s"));
            match (no_sve, sve) {
                (Some(Metric::Gauge(a)), Some(Metric::Gauge(b))) => {
                    assert_eq!(a.to_bits(), row.no_sve.to_bits());
                    assert_eq!(b.to_bits(), row.sve.to_bits());
                }
                other => panic!("missing gauges for {name}: {other:?}"),
            }
        }
    }

    #[test]
    fn fault_mini_recovers_and_counts_it() {
        let (rr, tracers) = fault_mini_run();
        assert!(rr.totals.counter("recoveries") > 0, "campaign must exercise recovery");
        assert!(rr.totals.counter("comm.msgs") > 0);
        assert_eq!(tracers.len(), 2);
        // The injected breakdown shows up as a traced solver event.
        let traced = tracers[0]
            .events()
            .iter()
            .any(|e| e.name == "solver_restart" || e.name == "solver_fallback");
        assert!(traced, "no solver recovery event in the trace");
    }
}
