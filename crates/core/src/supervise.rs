//! The deterministic run supervisor: checkpoint rollback, bounded
//! retries with virtual-clock backoff, and shrinking re-decomposition
//! after permanent rank loss.
//!
//! [`run_supervised`] wraps a whole multi-rank launch the way a batch
//! scheduler wraps an MPI job.  Each *attempt* is one [`Spmd`] launch;
//! inside it every rank runs [`V2dSim::run_checkpointed`], the same rank
//! loop the `v2d` driver runs, and rank 0 saves rotating checkpoints on
//! the spec's cadence into the run's one [`CheckpointStore`], lent to it
//! for the attempt (a failed save does not fail the attempt, and no
//! later save of that attempt is tried).  When an attempt ends in a
//! fatal [`StepError`] — a rank
//! killed by its fault plan ([`StepError::Lost`]), a peer observed dead
//! ([`v2d_comm::CommError::RankDead`]), or an exhausted in-step
//! recovery ladder — the supervisor
//!
//! 1. charges a deterministic exponential backoff to the *virtual*
//!    recovery clock (never the wall clock: replays must be
//!    bit-identical),
//! 2. rolls back to the newest checkpoint that decodes cleanly
//!    ([`CheckpointStore::load_latest`] skips corrupt files), or to the
//!    initial condition when none exists,
//! 3. when ranks died permanently and the policy allows, *shrinks* the
//!    decomposition onto the surviving rank count — a fresh
//!    [`TileMap`] topology; fields re-scatter from the checkpoint,
//!    which is topology-independent by construction — and
//! 4. relaunches, with the fired kill events removed from the working
//!    fault plan (the node is gone; it cannot die twice).
//!
//! Everything the supervisor decides is a pure function of the spec,
//! the policy, and the fault plan, so the same inputs produce a
//! bit-identical [`RecoveryLedger`] and final fields on every replay —
//! and a kill-free plan makes exactly one attempt whose outputs match
//! an unsupervised run.  An attempt that fails with no rank lost is not
//! relaunched: nothing a relaunch changes (plan, width, restart point)
//! could change its outcome.  Exhausted budgets and such failures return
//! a typed [`SuperviseError`] still carrying the full ledger.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use v2d_comm::{Spmd, TileMap};
use v2d_io::File;
use v2d_machine::{CompilerProfile, FaultInjector, FaultKind, FaultPlan};

use crate::checkpoint::{restore_checkpoint, write_checkpoint, CheckpointStore};
use crate::problems::Family;
use crate::sim::{StepError, V2dConfig, V2dSim};

/// Coordinates of one supervised run: the solver configuration, the
/// problem family whose initial condition seeds every attempt, the
/// initial rank decomposition, the fault plan every rank replays, and
/// the checkpoint cadence.
#[derive(Debug, Clone)]
pub struct SuperviseSpec {
    pub cfg: V2dConfig,
    /// The registry scenario initializing each attempt's fields
    /// ([`Family::Gaussian`] is `GaussianPulse::standard()`).
    pub scenario: Family,
    /// Initial process grid (`np1 × np2` ranks).
    pub np1: usize,
    pub np2: usize,
    /// The seeded fault schedule (an empty plan supervises a healthy
    /// run: one attempt, no ledger activity).
    pub plan: FaultPlan,
    /// Write a checkpoint after every `checkpoint_every`-th completed
    /// step; `0` disables checkpointing (recovery restarts from the
    /// initial condition).
    pub checkpoint_every: usize,
    /// On-disk rotation bound for the checkpoint store.
    pub checkpoint_keep: usize,
    /// Directory the checkpoint store owns.  Cleared at supervisor
    /// start so stale files from an earlier run cannot be rolled back
    /// into.
    pub dir: PathBuf,
}

/// Retry budget and recovery knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum rollback-and-relaunch cycles after the first attempt.
    pub max_retries: u32,
    /// First backoff, in virtual seconds; doubles on every subsequent
    /// rollback (`base * 2^(rollbacks-1)`).
    pub backoff_base_secs: f64,
    /// Permit shrinking re-decomposition onto the surviving ranks after
    /// a permanent kill.  When `false` the relaunch reuses the original
    /// rank count (replacement-node semantics).
    pub allow_shrink: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, backoff_base_secs: 1.0, allow_shrink: true }
    }
}

/// The full recovery history of one supervised run.  Every field is a
/// deterministic function of spec + policy + plan; replay equality is
/// asserted structurally (`PartialEq`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryLedger {
    /// Permanent rank deaths observed (`RankKill` + `RankStallForever`).
    pub kills: u64,
    /// Rollback-and-relaunch cycles performed.
    pub rollbacks: u64,
    /// Rollbacks that also shrank the decomposition.
    pub redecompositions: u64,
    /// Completed steps discarded and re-run across all rollbacks.
    pub steps_replayed: u64,
    /// Launches made (1 on a clean run).
    pub attempts: u64,
    /// Total virtual backoff charged across rollbacks, in seconds.
    pub backoff_virtual_secs: f64,
    /// Human-readable recovery log, one line per supervisor decision,
    /// in decision order.
    pub events: Vec<String>,
}

impl RecoveryLedger {
    /// Virtual-time mean-time-to-repair: backoff plus replayed work
    /// (`steps × dt`), averaged over the rollbacks.  Zero on a clean run.
    pub fn mttr_secs(&self, dt: f64) -> f64 {
        if self.rollbacks == 0 {
            0.0
        } else {
            (self.backoff_virtual_secs + self.steps_replayed as f64 * dt) / self.rollbacks as f64
        }
    }
}

/// A supervised run that completed, plus how it got there.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperviseReport {
    pub ledger: RecoveryLedger,
    /// Raw bits of the final *global* radiation field, assembled by the
    /// end-of-run checkpoint gather (decomposition-agnostic layout:
    /// species-major over the full grid).
    pub final_bits: Vec<u64>,
    /// Virtual-time mean-time-to-repair (see [`RecoveryLedger::mttr_secs`]).
    pub mttr_virtual_secs: f64,
    /// The decomposition the run finished on.
    pub final_np: (usize, usize),
}

/// A supervised run that could not complete.  Both variants carry the
/// full ledger accumulated up to the failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SuperviseError {
    /// The retry budget ran out with the run still failing.
    RetriesExhausted { ledger: RecoveryLedger, last_error: String },
    /// No recovery path exists: every rank died, the checkpoint store
    /// itself is unusable, or an attempt failed with no rank lost (a
    /// relaunch would replay the same failure).
    Unrecoverable { ledger: RecoveryLedger, reason: String },
}

impl std::fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuperviseError::RetriesExhausted { ledger, last_error } => write!(
                f,
                "retry budget exhausted after {} attempts ({} rollbacks, {} kills): {last_error}",
                ledger.attempts, ledger.rollbacks, ledger.kills
            ),
            SuperviseError::Unrecoverable { ledger, reason } => {
                write!(f, "unrecoverable after {} attempts: {reason}", ledger.attempts)
            }
        }
    }
}

impl std::error::Error for SuperviseError {}

/// What one rank of one attempt came back with.
enum RankOutcome {
    /// Every step completed; `bits` is the global field from the final
    /// checkpoint gather.
    Done { bits: Vec<u64> },
    /// This rank was killed by the fault plan after completing `istep`
    /// steps.
    Lost { istep: usize, stalled: bool },
    /// A fatal error (peer death, exhausted recovery ladder, checkpoint
    /// failure) after completing `istep` steps.
    Failed { istep: usize, what: String },
}

/// Deterministic factorization of up to `n_ranks` ranks into a process
/// grid of at most `max1 × max2` (see
/// [`crate::sim::V2dConfig::max_ranks_along`]): the largest rank count
/// that has a fitting factor pair, as its most square pair, larger
/// factor along the larger axis.
pub fn decompose(n_ranks: usize, max1: usize, max2: usize) -> (usize, usize) {
    for n in (1..=n_ranks).rev() {
        let mut a = n.isqrt();
        while a >= 1 {
            if n.is_multiple_of(a) {
                let b = n / a;
                let (np1, np2) = if max1 >= max2 { (b, a) } else { (a, b) };
                if np1 <= max1 && np2 <= max2 {
                    return (np1, np2);
                }
            }
            a -= 1;
        }
    }
    (1, 1)
}

/// Supervise a run: launch, and on a fatal attempt roll back, back off,
/// shrink and relaunch until it completes or the budget is spent.
pub fn run_supervised(
    spec: &SuperviseSpec,
    policy: RetryPolicy,
) -> Result<SuperviseReport, SuperviseError> {
    let mut ledger = RecoveryLedger::default();
    let mut store = match CheckpointStore::new(&spec.dir, spec.checkpoint_keep) {
        Ok(st) => st,
        Err(e) => {
            return Err(SuperviseError::Unrecoverable {
                ledger,
                reason: format!("checkpoint store unusable: {e}"),
            })
        }
    };
    store.clear();
    let mut working_plan = spec.plan.clone();
    let mut np = (spec.np1, spec.np2);
    let mut resume: Option<Arc<File>> = None;
    loop {
        ledger.attempts += 1;
        let outcomes = launch(spec, &working_plan, np, resume.clone(), &mut store);
        // A clean attempt: every rank finished and assembled the same
        // global field.
        if outcomes.iter().all(|o| matches!(o, RankOutcome::Done { .. })) {
            let final_bits = match outcomes.into_iter().next() {
                Some(RankOutcome::Done { bits }) => bits,
                _ => Vec::new(),
            };
            let mttr_virtual_secs = ledger.mttr_secs(spec.cfg.dt);
            return Ok(SuperviseReport { ledger, final_bits, mttr_virtual_secs, final_np: np });
        }
        // The attempt failed.  Harvest the authoritative facts: which
        // ranks died (their own `Lost` verdicts — which dead peer a
        // survivor names depends on cascade order and never enters
        // the ledger), and how far the attempt got.
        let victims: Vec<(usize, usize, bool)> = outcomes
            .iter()
            .enumerate()
            .filter_map(|(r, o)| match o {
                RankOutcome::Lost { istep, stalled } => Some((r, *istep, *stalled)),
                _ => None,
            })
            .collect();
        let progress = outcomes
            .iter()
            .map(|o| match o {
                RankOutcome::Done { .. } => usize::MAX, // cannot happen with a failure present
                RankOutcome::Lost { istep, .. } | RankOutcome::Failed { istep, .. } => *istep,
            })
            .filter(|&i| i != usize::MAX)
            .max()
            .unwrap_or(0);
        let kind_name = |stalled: bool| {
            let kind = if stalled { FaultKind::RankStallForever } else { FaultKind::RankKill };
            kind.name()
        };
        let last_error = if let Some(&(rank, istep, stalled)) = victims.first() {
            format!("rank {rank} lost ({}) at step {istep}", kind_name(stalled))
        } else {
            outcomes
                .iter()
                .enumerate()
                .find_map(|(r, o)| match o {
                    RankOutcome::Failed { what, .. } => Some(format!("rank {r}: {what}")),
                    _ => None,
                })
                .unwrap_or_else(|| "attempt failed".to_string())
        };
        ledger.kills += victims.len() as u64;
        for &(rank, istep, stalled) in &victims {
            ledger.events.push(format!(
                "attempt {}: rank {rank} lost ({}) at step {istep}",
                ledger.attempts,
                kind_name(stalled)
            ));
        }
        // With no rank lost, a relaunch would run the same plan at the
        // same width from a checkpoint this attempt itself reached, and
        // replay the same failure.
        if victims.is_empty() {
            ledger.events.push(format!(
                "attempt {}: no rank lost, a relaunch would replay the failure",
                ledger.attempts
            ));
            return Err(SuperviseError::Unrecoverable { ledger, reason: last_error });
        }
        // Budget check before committing to another cycle.
        if ledger.rollbacks >= u64::from(policy.max_retries) {
            ledger.events.push(format!(
                "attempt {}: retry budget ({}) exhausted",
                ledger.attempts, policy.max_retries
            ));
            return Err(SuperviseError::RetriesExhausted { ledger, last_error });
        }
        ledger.rollbacks += 1;
        let backoff = policy.backoff_base_secs * f64::powi(2.0, ledger.rollbacks as i32 - 1);
        ledger.backoff_virtual_secs += backoff;
        // The fired kill events are consumed: the node is gone and
        // cannot die again on the replayed steps.  Other fault classes
        // deliberately re-fire on replay — the plan is the environment,
        // not a one-shot script.
        working_plan.events.retain(|ev| {
            !(matches!(ev.kind, FaultKind::RankKill | FaultKind::RankStallForever)
                && victims.iter().any(|&(rank, istep, _)| {
                    ev.step == istep as u64 && ev.rank.is_none_or(|r| r == rank)
                }))
        });
        // Shrink onto the survivors when allowed; otherwise relaunch at
        // the same width (replacement-node semantics).
        let n_ranks = np.0 * np.1;
        if !victims.is_empty() && policy.allow_shrink {
            let survivors = n_ranks - victims.len();
            if survivors == 0 {
                ledger.events.push(format!("attempt {}: no survivors", ledger.attempts));
                return Err(SuperviseError::Unrecoverable {
                    ledger,
                    reason: "every rank died".to_string(),
                });
            }
            let cfg = &spec.cfg;
            let new_np = decompose(
                survivors,
                cfg.max_ranks_along(cfg.grid.n1),
                cfg.max_ranks_along(cfg.grid.n2),
            );
            ledger.redecompositions += 1;
            ledger.events.push(format!(
                "attempt {}: shrink {}x{} -> {}x{}",
                ledger.attempts, np.0, np.1, new_np.0, new_np.1
            ));
            np = new_np;
        }
        // Roll back to the newest checkpoint that decodes cleanly, or
        // to the initial condition when none exists.
        let (next_resume, resume_step) = match store.load_latest() {
            Ok((file, _path, _skipped)) => {
                let istep = crate::checkpoint::attr_i64(&file, "istep").unwrap_or(0) as usize;
                (Some(Arc::new(file)), istep)
            }
            Err(_) => (None, 0),
        };
        let replayed = progress.saturating_sub(resume_step) as u64;
        ledger.steps_replayed += replayed;
        ledger.events.push(format!(
            "attempt {}: rollback to step {resume_step} ({replayed} steps replayed, \
             backoff {backoff:.3}s)",
            ledger.attempts
        ));
        resume = next_resume;
    }
}

/// One attempt: launch `np.0 × np.1` ranks, restore from `resume` when
/// present, and run [`V2dSim::run_checkpointed`] into `store`, then
/// gather the final global field.  Every error path retires the rank's
/// comm endpoint first, so peers resolve into typed `RankDead` instead
/// of waiting on a rank that will never communicate again.
fn launch(
    spec: &SuperviseSpec,
    plan: &FaultPlan,
    np: (usize, usize),
    resume: Option<Arc<File>>,
    store: &mut CheckpointStore,
) -> Vec<RankOutcome> {
    let cfg = spec.cfg;
    let scenario = spec.scenario;
    let every = spec.checkpoint_every;
    let n_ranks = np.0 * np.1;
    // Rank 0 borrows the run's store for the attempt; pruning is
    // deterministic, and once any rank dies no further checkpoint gather
    // can complete, so the store never needs to move mid-attempt.
    let store = &Mutex::new(Some(store));
    Spmd::new(n_ranks).with_profiles(vec![CompilerProfile::cray_opt()]).run(move |ctx| {
        let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, np.0, np.1);
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        scenario.scenario().init(&mut sim);
        sim.set_fault_injector(FaultInjector::new(plan.clone(), ctx.comm.rank()));
        if let Some(ck) = &resume {
            if let Err(e) = restore_checkpoint(&mut sim, ck) {
                ctx.comm.retire();
                return RankOutcome::Failed { istep: 0, what: format!("restore failed: {e}") };
            }
        }
        let store = (ctx.comm.rank() == 0)
            .then(|| store.lock().unwrap_or_else(|e| e.into_inner()).take())
            .flatten();
        // A failed save is best-effort: it must not kill a healthy
        // attempt, so `save_error` is not read.
        match sim.run_checkpointed(&ctx.comm, &mut ctx.sink, every, store).error {
            Some(StepError::Lost { istep, stalled }) => {
                return RankOutcome::Lost { istep, stalled }
            }
            Some(e) => return RankOutcome::Failed { istep: sim.istep(), what: e.to_string() },
            None => {}
        }
        // Final gather: every rank assembles the same global field,
        // giving the report decomposition-agnostic bits.
        match write_checkpoint(&ctx.comm, &mut ctx.sink, &sim) {
            Ok(file) => {
                // Radiation first (the legacy layout, so hydro-free
                // specs keep byte-identical reports), then the hydro
                // fields when the scenario evolves them.
                let mut bits: Vec<u64> = file
                    .dataset("radiation/erad")
                    .ok()
                    .and_then(|d| d.as_f64())
                    .map(|v| v.iter().map(|x| x.to_bits()).collect())
                    .unwrap_or_default();
                for name in ["hydro/rho", "hydro/m1", "hydro/m2", "hydro/etot"] {
                    if let Some(v) = file.dataset(name).ok().and_then(|d| d.as_f64()) {
                        bits.extend(v.iter().map(|x| x.to_bits()));
                    }
                }
                RankOutcome::Done { bits }
            }
            Err(e) => {
                ctx.comm.retire();
                RankOutcome::Failed {
                    istep: sim.istep(),
                    what: format!("final gather failed: {e}"),
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompose_prefers_square_and_respects_grid() {
        assert_eq!(decompose(4, 16, 8), (2, 2));
        assert_eq!(decompose(3, 16, 8), (3, 1));
        assert_eq!(decompose(3, 8, 16), (1, 3));
        assert_eq!(decompose(6, 16, 8), (3, 2));
        assert_eq!(decompose(1, 16, 8), (1, 1));
        // Larger factor hugs the larger axis.
        assert_eq!(decompose(2, 8, 16), (1, 2));
        // Three survivors cannot split an axis of at most two ranks (a
        // 4×4 hydro grid): the largest count that fits is two.
        assert_eq!(decompose(3, 2, 2), (2, 1));
        assert_eq!(decompose(5, 2, 2), (2, 2));
    }

    #[test]
    fn ledger_mttr_is_zero_without_rollbacks() {
        let ledger = RecoveryLedger::default();
        assert_eq!(ledger.mttr_secs(0.1), 0.0);
        let ledger = RecoveryLedger {
            rollbacks: 2,
            steps_replayed: 4,
            backoff_virtual_secs: 3.0,
            ..RecoveryLedger::default()
        };
        assert!((ledger.mttr_secs(0.5) - (3.0 + 4.0 * 0.5) / 2.0).abs() < 1e-12);
    }
}
