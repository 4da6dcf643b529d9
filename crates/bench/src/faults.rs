//! `v2d-bench ablation_faults` — a deterministic campaign of every fault
//! class through the full driver — field poisoning, forced solver
//! breakdowns, dropped/delayed halo messages, a rank stall, and a
//! corrupted checkpoint — with the recovery log and the checkpoint
//! fallback reported.  Doubles as the executable statement of the
//! zero-fault contract: an injector over an empty plan must be
//! bit-invisible (asserted here against a no-injector baseline).

use std::path::PathBuf;

use v2d_comm::{Spmd, TileMap};
use v2d_core::checkpoint::{restore_checkpoint, write_checkpoint, CheckpointStore};
use v2d_core::problems::{Family, GaussianPulse, Scenario};
use v2d_core::sim::V2dSim;
use v2d_core::supervise::{run_supervised, RetryPolicy, SuperviseSpec};
use v2d_machine::{FaultInjector, FaultKind, FaultPlan, FaultRecord};

const N1: usize = 16;
const N2: usize = 8;
const RANKS: usize = 2;
const STEPS: usize = 12;
/// Checkpoint cadence (steps between saves).
const CK_EVERY: usize = 3;

/// One fault of every class, spread over the quiet middle of the run.
/// The corrupt-checkpoint event is aimed at step 11 so it lands on the
/// *last* save (after step 12 the injector is one step behind the
/// istep counter) and the fallback walk has something to skip.
fn campaign_plan() -> FaultPlan {
    FaultPlan::empty()
        .with_event(1, Some(0), FaultKind::FieldNan)
        .with_event(2, Some(1), FaultKind::FieldInf)
        .with_event(3, Some(0), FaultKind::FieldBitFlip)
        .with_event(4, None, FaultKind::SolverBreakdown { count: 1 })
        .with_event(5, Some(0), FaultKind::DropMessage { nth: 0 })
        .with_event(6, Some(1), FaultKind::DelayMessage { nth: 1, secs: 0.25 })
        .with_event(7, Some(1), FaultKind::RankStall { secs: 0.5 })
        .with_event(11, Some(0), FaultKind::CorruptCheckpoint { byte_frac: 0.55 })
}

/// Flip one byte at fractional offset `frac` of `path` (what the
/// corrupt-checkpoint fault models: silent media corruption after a
/// successful atomic write).
fn corrupt_file(path: &std::path::Path, frac: f64) {
    let mut bytes = std::fs::read(path).expect("read checkpoint to corrupt");
    let at = ((bytes.len() as f64 * frac) as usize).min(bytes.len() - 1);
    bytes[at] ^= 0x10;
    std::fs::write(path, &bytes).expect("re-write corrupted checkpoint");
}

/// FNV-1a over the raw field bits: one stable word summarizing a run.
fn checksum(bits: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = bits.into_iter().flat_map(u64::to_le_bytes).collect();
    v2d_serve::fnv64(&bytes)
}

/// Cut the wall-clock-dependent tail off a timeout note (the
/// blocked-rank snapshot depends on where the other threads happened to
/// be at expiry; everything before "timed out" is deterministic).
fn stable_note(what: &str) -> String {
    match what.split_once(" timed out") {
        Some((head, _)) => format!("{head} timed out …); holding stale ghost"),
        None => what.to_string(),
    }
}

/// Run a campaign (or a faultless baseline) over the given problem
/// configuration and return per-rank `(field bits, recoveries, fault log)`.
fn run_cfg(
    cfg: v2d_core::sim::V2dConfig,
    n1: usize,
    n2: usize,
    steps: usize,
    plan: Option<FaultPlan>,
    ckdir: Option<PathBuf>,
) -> Vec<(Vec<u64>, u32, Vec<FaultRecord>)> {
    Spmd::new(RANKS).run(move |ctx| {
        let map = TileMap::new(n1, n2, RANKS, 1);
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        GaussianPulse::standard().init(&mut sim);
        if let Some(plan) = &plan {
            sim.set_fault_injector(FaultInjector::new(plan.clone(), ctx.comm.rank()));
        }
        // The checkpoint file is assembled collectively; rank 0 owns the
        // on-disk store (and is where the corruption fault is aimed).
        let mut store = match (&ckdir, ctx.comm.rank()) {
            (Some(dir), 0) => Some(CheckpointStore::new(dir, 8).expect("checkpoint store")),
            _ => None,
        };
        let mut recoveries = 0u32;
        for _ in 0..steps {
            let st = sim.step(&ctx.comm, &mut ctx.sink);
            recoveries += st.all_recoveries();
            if ckdir.is_some() && sim.istep().is_multiple_of(CK_EVERY) {
                let f =
                    write_checkpoint(&ctx.comm, &mut ctx.sink, &sim).expect("checkpoint gather");
                if let Some(store) = &mut store {
                    let path = store.save(&f, sim.istep()).expect("save checkpoint");
                    if let Some(frac) = sim.fault_injector_mut().and_then(|i| i.poll_checkpoint()) {
                        corrupt_file(&path, frac);
                    }
                }
            }
        }
        let bits = sim.erad().interior_to_vec().iter().map(|v| v.to_bits()).collect();
        (bits, recoveries, sim.take_fault_log())
    })
}

/// The linear-pulse campaign run.
fn run(plan: Option<FaultPlan>, ckdir: Option<PathBuf>) -> Vec<(Vec<u64>, u32, Vec<FaultRecord>)> {
    run_cfg(GaussianPulse::linear_config(N1, N2, STEPS), N1, N2, STEPS, plan, ckdir)
}

/// Nonlinear (limiter-on `scaled_config`) campaign coordinates: the
/// grid/tiling/fault placement that used to deadlock (ROADMAP) before
/// the preconditioner learned to NaN-poison instead of panicking.
const NL_N1: usize = 24;
const NL_N2: usize = 12;
const NL_STEPS: usize = 6;

fn nonlinear_plan() -> FaultPlan {
    FaultPlan::empty()
        // The exact formerly-deadlocking event: a NaN into rank 0's
        // field on the nonlinear path, step 2.
        .with_event(2, Some(0), FaultKind::FieldNan)
        .with_event(4, Some(1), FaultKind::FieldInf)
}

/// The nonlinear-pulse campaign run.
fn run_nl(plan: Option<FaultPlan>) -> Vec<(Vec<u64>, u32, Vec<FaultRecord>)> {
    run_cfg(
        GaussianPulse::scaled_config(NL_N1, NL_N2, NL_STEPS),
        NL_N1,
        NL_N2,
        NL_STEPS,
        plan,
        None,
    )
}

/// Run the whole campaign and print its log (the `ablation_faults`
/// golden); every contract it states is asserted on the way.
pub fn print(args: &[String]) -> Result<(), crate::UsageError> {
    crate::no_args(args)?;
    println!("Fault-injection ablation — {N1}×{N2}×2 Gaussian pulse, {RANKS} ranks, {STEPS} steps");
    println!("campaign: one fault of every class; checkpoints every {CK_EVERY} steps\n");

    let ckdir = std::env::temp_dir().join(format!("v2d_ablation_faults_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckdir);

    let baseline = run(None, None);
    let empty = run(Some(FaultPlan::empty()), None);
    let campaign = run(Some(campaign_plan()), Some(ckdir.clone()));

    println!("{:<22} {:>10}   {:<18} {:>6}", "run", "recoveries", "field checksum", "finite");
    for (name, outs) in
        [("baseline", &baseline), ("empty-plan injector", &empty), ("fault campaign", &campaign)]
    {
        let recoveries: u32 = outs.iter().map(|o| o.1).sum();
        let sum = checksum(outs.iter().flat_map(|o| o.0.iter().copied()));
        let finite = outs.iter().all(|o| o.0.iter().all(|b| f64::from_bits(*b).is_finite()));
        println!(
            "{name:<22} {recoveries:>10}   {sum:#018x} {:>6}",
            if finite { "yes" } else { "NO" }
        );
        assert!(finite, "{name}: non-finite cells survived");
    }

    // The zero-fault contract, asserted bit-for-bit.
    let identical = baseline.iter().zip(&empty).all(|(b, e)| b.0 == e.0)
        && empty.iter().all(|e| e.1 == 0 && e.2.is_empty());
    println!(
        "\nzero-fault contract (empty plan bit-identical to baseline): {}",
        if identical { "PASS" } else { "FAIL" }
    );
    assert!(identical, "an empty-plan injector perturbed the run");
    let recovered: u32 = campaign.iter().map(|o| o.1).sum();
    assert!(recovered >= 3, "campaign should exercise the recovery ladder");

    println!("\ncampaign fault log (step | rank | event):");
    let mut lines: Vec<String> = campaign
        .iter()
        .flat_map(|(_, _, log)| log.iter())
        .map(|r| format!("  {:>2} | {} | {}", r.step, r.rank, stable_note(&r.what)))
        .collect();
    lines.sort();
    for line in &lines {
        println!("{line}");
    }

    // The corrupted newest checkpoint must be skipped; the previous one
    // must restore into a fresh (single-rank) simulation.
    println!("\ncheckpoint fallback:");
    let store = CheckpointStore::new(&ckdir, 8).expect("checkpoint store");
    let (file, path, skipped) = store.load_latest().expect("a checkpoint should survive");
    for note in &skipped {
        println!("  skipped {note}");
    }
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string();
    assert_eq!(skipped.len(), 1, "exactly the corrupted newest file should be skipped");
    let restored = Spmd::new(1).run(move |ctx| {
        let cfg = GaussianPulse::linear_config(N1, N2, STEPS);
        let mut sim = V2dSim::new(cfg, &ctx.comm, TileMap::new(N1, N2, 1, 1));
        GaussianPulse::standard().init(&mut sim);
        restore_checkpoint(&mut sim, &file).expect("fallback checkpoint should restore");
        (sim.istep(), sim.time())
    });
    let (istep, time) = restored[0];
    println!("  restored {name}: istep {istep}, t = {time:.6e}");

    let _ = std::fs::remove_dir_all(&ckdir);

    // The nonlinear (flux-limited) pulse, formerly pinned out of this
    // campaign because a FieldNan desynchronized the ranks' collectives
    // and deadlocked (ROADMAP).  Now the preconditioner NaN-poisons, the
    // solver surfaces a collective NonFinite verdict, and the scrub rung
    // recovers — assert exactly that, at the exact coordinates.
    println!(
        "\nnonlinear pulse — {NL_N1}×{NL_N2}×2 scaled_config, {RANKS} ranks, {NL_STEPS} steps"
    );
    println!("campaign: FieldNan at step 2 rank 0 (the formerly-deadlocking event) + FieldInf\n");
    let nl_baseline = run_nl(None);
    let nl_campaign = run_nl(Some(nonlinear_plan()));
    println!("{:<22} {:>10}   {:<18} {:>6}", "run", "recoveries", "field checksum", "finite");
    for (name, outs) in [("nl baseline", &nl_baseline), ("nl fault campaign", &nl_campaign)] {
        let recoveries: u32 = outs.iter().map(|o| o.1).sum();
        let sum = checksum(outs.iter().flat_map(|o| o.0.iter().copied()));
        let finite = outs.iter().all(|o| o.0.iter().all(|b| f64::from_bits(*b).is_finite()));
        println!(
            "{name:<22} {recoveries:>10}   {sum:#018x} {:>6}",
            if finite { "yes" } else { "NO" }
        );
        assert!(finite, "{name}: non-finite cells survived");
    }
    let nl_recovered: u32 = nl_campaign.iter().map(|o| o.1).sum();
    assert!(nl_recovered >= 1, "the nonlinear campaign must exercise the scrub rung");

    println!("\nnonlinear fault log (step | rank | event):");
    let mut lines: Vec<String> = nl_campaign
        .iter()
        .flat_map(|(_, _, log)| log.iter())
        .map(|r| format!("  {:>2} | {} | {}", r.step, r.rank, stable_note(&r.what)))
        .collect();
    lines.sort();
    for line in &lines {
        println!("{line}");
    }

    rank_kill_campaign();
    sedov_kill_campaign();
    Ok(())
}

/// Supervised rank-kill campaign coordinates: the `supervise_recovery`
/// regression scenario and its variants.
const SUP_N1: usize = 24;
const SUP_N2: usize = 12;
const SUP_STEPS: usize = 5;

/// The rank-kill campaign: permanent rank deaths pushed through the run
/// supervisor — checkpoint rollback, deterministic virtual-clock
/// backoff, shrinking re-decomposition — with each scenario's recovery
/// ledger reported.  Everything printed is a pure function of spec ×
/// policy × plan, so the section extends the golden.
fn rank_kill_campaign() {
    println!("\nrank-kill campaign — {SUP_N1}×{SUP_N2}×2 linear pulse, {RANKS}×1 ranks, {SUP_STEPS} steps");
    println!("supervisor: 3 retries, backoff base 1s (virtual), doubling; shrink onto survivors\n");

    let dir = std::env::temp_dir().join(format!("v2d_ablation_kills_{}", std::process::id()));
    let scenario = |plan: FaultPlan, checkpoint_every: usize| SuperviseSpec {
        cfg: GaussianPulse::linear_config(SUP_N1, SUP_N2, SUP_STEPS),
        scenario: Family::Gaussian,
        np1: RANKS,
        np2: 1,
        plan,
        checkpoint_every,
        checkpoint_keep: 4,
        dir: dir.clone(),
    };
    let cases = [
        ("clean (no kills)", scenario(FaultPlan::empty(), 1), RetryPolicy::default()),
        (
            "kill rank 0 @ step 2",
            scenario(FaultPlan::empty().with_event(2, Some(0), FaultKind::RankKill), 1),
            RetryPolicy::default(),
        ),
        (
            "stall rank 1 @ step 3, no checkpoints",
            scenario(FaultPlan::empty().with_event(3, Some(1), FaultKind::RankStallForever), 0),
            RetryPolicy::default(),
        ),
        (
            "kill rank 0 @ step 2, shrink off",
            scenario(FaultPlan::empty().with_event(2, Some(0), FaultKind::RankKill), 1),
            RetryPolicy { allow_shrink: false, ..RetryPolicy::default() },
        ),
    ];

    let (clean_bits, ledgers) = run_kill_cases(cases);
    println!("\nrecovery ledgers:");
    for (name, events) in &ledgers {
        println!("  {name}:");
        for ev in events {
            println!("    {ev}");
        }
    }
    let sum = checksum(clean_bits.iter().flatten().copied());
    println!("\nhealthy global field checksum: {sum:#018x}");
    println!("same-width kill recovery bit-identical to the healthy trajectory: PASS");
    println!("shrunk kill recovery within reduction-reordering tolerance: PASS");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sedov rank-kill coordinates: small enough for CI, coarse enough
/// that the blast still sits well inside the box at the final step.
const SED_N: usize = 24;
const SED_STEPS: usize = 4;

/// The rank-kill campaign on the Sedov–Taylor scenario: a registry
/// family with a full conserved hydro state riding the checkpoints.
/// The supervised gather appends the hydro fields to `final_bits`, so
/// the same-width assertion covers mass/momentum/energy bit-for-bit —
/// any checkpoint or restore path dropping a hydro dataset trips here
/// before it could silently corrupt a recovered run.
fn sedov_kill_campaign() {
    println!(
        "\nsedov rank-kill campaign — {SED_N}×{SED_N} blast (registry scenario), {RANKS}×1 ranks, {SED_STEPS} steps"
    );
    println!("supervisor: checkpoint every step; same-width retry, then shrink onto survivors\n");

    let dir = std::env::temp_dir().join(format!("v2d_ablation_sedov_{}", std::process::id()));
    let scenario = |plan: FaultPlan| SuperviseSpec {
        cfg: Family::Sedov.scenario().config(SED_N, SED_N, SED_STEPS),
        scenario: Family::Sedov,
        np1: RANKS,
        np2: 1,
        plan,
        checkpoint_every: 1,
        checkpoint_keep: 4,
        dir: dir.clone(),
    };
    let cases = [
        ("clean (no kills)", scenario(FaultPlan::empty()), RetryPolicy::default()),
        (
            "kill rank 0 @ step 2",
            scenario(FaultPlan::empty().with_event(2, Some(0), FaultKind::RankKill)),
            RetryPolicy::default(),
        ),
        (
            "kill rank 0 @ step 2, shrink off",
            scenario(FaultPlan::empty().with_event(2, Some(0), FaultKind::RankKill)),
            RetryPolicy { allow_shrink: false, ..RetryPolicy::default() },
        ),
    ];

    let (clean_bits, _) = run_kill_cases(cases);
    let sum = checksum(clean_bits.iter().flatten().copied());
    println!("\nhealthy sedov field checksum (radiation + hydro): {sum:#018x}");
    println!("same-width sedov kill recovery bit-identical (hydro included): PASS");
    println!("shrunk sedov kill recovery within reduction-reordering tolerance: PASS");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Case names with their non-empty recovery ledgers, in case order.
type Ledgers<'a> = Vec<(&'a str, Vec<String>)>;

/// The table of one supervised kill campaign: run each case, print its
/// ledger row, and hold every recovered field to the healthy (kill-free)
/// case before it — bit for bit at the same width, within 1e-9 after a
/// shrink, which re-gangs the reductions.  Returns the healthy field's
/// bits and the recovery ledgers.
fn run_kill_cases<'a>(
    cases: impl IntoIterator<Item = (&'a str, SuperviseSpec, RetryPolicy)>,
) -> (Option<Vec<u64>>, Ledgers<'a>) {
    println!(
        "{:<38} {:>8} {:>9} {:>7} {:>8} {:>8} {:>6}",
        "scenario", "attempts", "rollbacks", "shrinks", "replayed", "mttr_s", "ranks"
    );
    let mut ledgers = Vec::new();
    let mut clean_bits = None;
    for (name, spec, policy) in cases {
        let report = run_supervised(&spec, policy)
            .unwrap_or_else(|e| panic!("{name}: supervised run failed: {e}"));
        let l = &report.ledger;
        println!(
            "{name:<38} {:>8} {:>9} {:>7} {:>8} {:>8.3} {:>5}x{}",
            l.attempts,
            l.rollbacks,
            l.redecompositions,
            l.steps_replayed,
            report.mttr_virtual_secs,
            report.final_np.0,
            report.final_np.1,
        );
        assert!(
            report.final_bits.iter().all(|b| f64::from_bits(*b).is_finite()),
            "{name}: non-finite cells survived recovery"
        );
        if l.kills == 0 {
            clean_bits = Some(report.final_bits.clone());
        } else if let Some(clean) = &clean_bits {
            if l.redecompositions == 0 {
                // Checkpoint gather/scatter moves bits, not arithmetic.
                assert_eq!(
                    &report.final_bits, clean,
                    "{name}: same-width recovery must be bit-identical to the healthy run"
                );
            } else {
                for (a, b) in report.final_bits.iter().zip(clean) {
                    let (x, y) = (f64::from_bits(*a), f64::from_bits(*b));
                    assert!(
                        (x - y).abs() < 1e-9,
                        "{name}: shrunk recovery drifted from the healthy run: {x} vs {y}"
                    );
                }
            }
        }
        if !l.events.is_empty() {
            ledgers.push((name, l.events.clone()));
        }
    }
    (clean_bits, ledgers)
}
