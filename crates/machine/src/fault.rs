//! Deterministic, seeded fault injection.
//!
//! Production V2D runs live or die on what happens when a solve breaks
//! down, a rank stalls, or a restart file is corrupt.  This module
//! provides the *test harness* side of that story: a [`FaultPlan`] is a
//! seeded, pre-computed schedule of fault events (NaN/Inf/bit-flip
//! poisoning of a field, forced solver breakdowns, dropped or delayed
//! messages, rank stalls, checkpoint corruption) that a per-rank
//! [`FaultInjector`] replays at exact `(step, rank)` coordinates.
//!
//! Determinism is the whole point: the same plan against the same build
//! produces the same faults, the same recoveries, and the same recovery
//! report, so resilience behaviour can be golden-tested like any other
//! output.  Conversely an *empty* plan must be invisible — every hook
//! below is a pure host-side branch that charges no simulated cost, so
//! a zero-fault run is bit-identical to a run with no injector at all.
//!
//! The injector rides in [`crate::ExecCtx`] next to the cost lanes and
//! profiler scope, so solver, comm, and checkpoint layers all see the
//! same clock-ordered fault stream without new plumbing.

/// One class of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Overwrite one interior cell of the stepped field with NaN.
    FieldNan,
    /// Overwrite one interior cell with +Inf.
    FieldInf,
    /// Flip one mantissa/exponent bit of one interior cell.
    FieldBitFlip,
    /// Force the iterative solver to break down (rho -> 0) on the next
    /// `count` solve attempts of this step, on every rank at once (a
    /// per-rank breakdown would desynchronize collective call order).
    SolverBreakdown { count: u32 },
    /// Drop the `nth` point-to-point message sent by this rank during
    /// this step (0-based).
    DropMessage { nth: u32 },
    /// Delay the `nth` point-to-point message sent by this rank during
    /// this step by `secs` of virtual time.
    DelayMessage { nth: u32, secs: f64 },
    /// Stall this rank for `secs` of virtual time at the top of the
    /// step (models an OS jitter / slow-node event).
    RankStall { secs: f64 },
    /// Corrupt the checkpoint written at this step: flip one byte at a
    /// fractional offset `byte_frac` in (0, 1) of the serialized file.
    CorruptCheckpoint { byte_frac: f64 },
    /// Kill this rank permanently at the top of the step: the rank body
    /// returns with a fatal error, its comm endpoint is retired, and
    /// every peer wait satisfiable only by it resolves into
    /// `CommError::RankDead`.  Models a node loss.
    RankKill,
    /// The rank never makes progress again but (conceptually) keeps its
    /// endpoint open.  At the comm layer this is indistinguishable from
    /// a kill — the rank retires before its first blocking site of the
    /// step — but the recovery report records the distinct cause.
    RankStallForever,
}

impl FaultKind {
    /// Short stable name used in recovery reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::FieldNan => "field-nan",
            FaultKind::FieldInf => "field-inf",
            FaultKind::FieldBitFlip => "field-bitflip",
            FaultKind::SolverBreakdown { .. } => "solver-breakdown",
            FaultKind::DropMessage { .. } => "drop-message",
            FaultKind::DelayMessage { .. } => "delay-message",
            FaultKind::RankStall { .. } => "rank-stall",
            FaultKind::CorruptCheckpoint { .. } => "corrupt-checkpoint",
            FaultKind::RankKill => "rank-kill",
            FaultKind::RankStallForever => "rank-stall-forever",
        }
    }
}

/// A fault scheduled at a `(step, rank)` coordinate.  `rank: None`
/// means *every* rank fires the event (required for faults that must
/// stay collectively synchronized, e.g. [`FaultKind::SolverBreakdown`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub step: u64,
    pub rank: Option<usize>,
    pub kind: FaultKind,
}

/// A seeded schedule of fault events plus the recovery-policy knobs the
/// comm layer needs (timeouts only apply when an injector is present;
/// a fault-free run never arms a deadline).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all derived randomness (fault positions, bit indices).
    pub seed: u64,
    /// The schedule, in no particular order; matched by `(step, rank)`.
    pub events: Vec<FaultEvent>,
    /// Virtual seconds charged to the MPI clock when a receive times
    /// out (the modeled cost of the timeout + recovery protocol).
    pub timeout_virtual_secs: f64,
}

impl FaultPlan {
    /// An empty plan: no events.  An injector over this plan must be
    /// bit-invisible to the simulation.
    pub fn empty() -> Self {
        FaultPlan { seed: 0, events: Vec::new(), timeout_virtual_secs: 1.0 }
    }

    /// Schedule one event.
    pub fn with_event(mut self, step: u64, rank: Option<usize>, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { step, rank, kind });
        self
    }

    /// A deterministic seeded campaign touching every fault class:
    /// spread `n_events` events over `steps` steps and `ranks` ranks
    /// using a splitmix64 stream of `seed`.  Checkpoint-corruption and
    /// solver-breakdown events are scheduled collectively (rank
    /// `None`); the rest target a pseudo-random single rank.
    pub fn campaign(seed: u64, steps: u64, ranks: usize, n_events: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan { seed, ..FaultPlan::empty() };
        for i in 0..n_events {
            // Steps 0 and steps-1 are left quiet so start-up and the
            // final report are fault-free.
            let step = 1 + rng.next_u64() % steps.saturating_sub(2).max(1);
            let rank = Some(rng.next_u64() as usize % ranks.max(1));
            let kind = match i % 7 {
                0 => FaultKind::FieldNan,
                1 => FaultKind::SolverBreakdown { count: 1 + (rng.next_u64() % 2) as u32 },
                2 => FaultKind::DropMessage { nth: (rng.next_u64() % 4) as u32 },
                3 => FaultKind::FieldBitFlip,
                4 => FaultKind::DelayMessage {
                    nth: (rng.next_u64() % 4) as u32,
                    secs: 0.25 + (rng.next_u64() % 4) as f64 * 0.25,
                },
                5 => FaultKind::RankStall { secs: 0.5 + (rng.next_u64() % 3) as f64 * 0.5 },
                _ => FaultKind::FieldInf,
            };
            let rank = match kind {
                FaultKind::SolverBreakdown { .. } | FaultKind::CorruptCheckpoint { .. } => None,
                _ => rank,
            };
            plan.events.push(FaultEvent { step, rank, kind });
        }
        plan
    }
}

/// What a send-side poll decided for one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendFault {
    /// Deliver normally.
    None,
    /// Silently swallow the message.
    Drop,
    /// Deliver, but stamped `secs` later on the virtual clock.
    Delay { secs: f64 },
}

/// A field-poisoning instruction: which corruption, plus two raw random
/// words the owner maps onto a cell index (and, for bit flips, a bit
/// index) in whatever field it guards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldFault {
    pub kind: FaultKind,
    pub r1: u64,
    pub r2: u64,
}

/// One line of the recovery report: something fired or something
/// recovered.  Virtual-time ordered per rank; the report merges ranks
/// deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    pub step: u64,
    pub rank: usize,
    pub what: String,
}

/// Per-rank replayer of a [`FaultPlan`].  Owned by the simulation
/// object of one rank; carried by reference in `ExecCtx` so the layers
/// underneath can poll it.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rank: usize,
    step: u64,
    /// Events already consumed (fired at most once per rank).
    fired: Vec<bool>,
    /// Messages sent by this rank during the current step.
    msgs_this_step: u32,
    /// Forced solver breakdowns still pending for the current step.
    breakdowns_pending: u32,
    rng: SplitMix64,
    /// Fired-fault and recovery log, in program order.
    pub log: Vec<FaultRecord>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan, rank: usize) -> Self {
        let fired = vec![false; plan.events.len()];
        // Decorrelate the per-rank random streams without breaking
        // determinism: the derived seed depends only on plan + rank.
        let rng =
            SplitMix64::new(plan.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rank as u64 + 1)));
        FaultInjector {
            plan,
            rank,
            step: 0,
            fired,
            msgs_this_step: 0,
            breakdowns_pending: 0,
            rng,
            log: Vec::new(),
        }
    }

    /// The plan this injector replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// This injector's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// True when the plan schedules nothing — the bit-invisible case.
    pub fn is_empty(&self) -> bool {
        self.plan.events.is_empty()
    }

    /// Reset per-step state and arm the events of `step`.
    pub fn begin_step(&mut self, step: u64) {
        self.step = step;
        self.msgs_this_step = 0;
        self.breakdowns_pending = 0;
        for i in 0..self.plan.events.len() {
            if self.fired[i] {
                continue;
            }
            let ev = self.plan.events[i];
            if ev.step == step && ev.rank.is_none_or(|r| r == self.rank) {
                if let FaultKind::SolverBreakdown { count } = ev.kind {
                    self.breakdowns_pending += count;
                    self.fired[i] = true;
                    self.note(format!("inject solver-breakdown x{count}"));
                }
            }
        }
    }

    /// Match-and-consume helper for events of the current step.
    fn take_event(&mut self, pred: impl Fn(&FaultKind) -> bool) -> Option<FaultKind> {
        for i in 0..self.plan.events.len() {
            if self.fired[i] {
                continue;
            }
            let ev = self.plan.events[i];
            if ev.step == self.step && ev.rank.is_none_or(|r| r == self.rank) && pred(&ev.kind) {
                self.fired[i] = true;
                return Some(ev.kind);
            }
        }
        None
    }

    /// A field fault scheduled for this `(step, rank)`, if any.  The
    /// caller maps the raw random words onto a cell of its field.
    pub fn poll_field(&mut self) -> Option<FieldFault> {
        let kind = self.take_event(|k| {
            matches!(k, FaultKind::FieldNan | FaultKind::FieldInf | FaultKind::FieldBitFlip)
        })?;
        let (r1, r2) = (self.rng.next_u64(), self.rng.next_u64());
        self.note(format!("inject {}", kind.name()));
        Some(FieldFault { kind, r1, r2 })
    }

    /// True when the solver must be forced to break down on this solve
    /// attempt (consumes one pending breakdown).
    pub fn poll_solver_breakdown(&mut self) -> bool {
        if self.breakdowns_pending > 0 {
            self.breakdowns_pending -= 1;
            true
        } else {
            false
        }
    }

    /// Decide the fate of the next message sent by this rank.
    pub fn poll_send(&mut self) -> SendFault {
        let nth = self.msgs_this_step;
        self.msgs_this_step += 1;
        if let Some(kind) = self.take_event(|k| match k {
            FaultKind::DropMessage { nth: n } => *n == nth,
            FaultKind::DelayMessage { nth: n, .. } => *n == nth,
            _ => false,
        }) {
            match kind {
                FaultKind::DropMessage { .. } => {
                    self.note(format!("inject drop-message (msg #{nth})"));
                    return SendFault::Drop;
                }
                FaultKind::DelayMessage { secs, .. } => {
                    self.note(format!("inject delay-message (msg #{nth}, {secs:.2}s)"));
                    return SendFault::Delay { secs };
                }
                _ => {}
            }
        }
        SendFault::None
    }

    /// Virtual seconds this rank must stall at the top of the step.
    pub fn poll_stall(&mut self) -> Option<f64> {
        if let Some(FaultKind::RankStall { secs }) =
            self.take_event(|k| matches!(k, FaultKind::RankStall { .. }))
        {
            self.note(format!("inject rank-stall ({secs:.2}s)"));
            return Some(secs);
        }
        None
    }

    /// A whole-rank death scheduled for this `(step, rank)`, if any.
    /// Polled at the very top of the step, before any other fault class
    /// — a dead rank injects nothing else.
    pub fn poll_kill(&mut self) -> Option<FaultKind> {
        let kind =
            self.take_event(|k| matches!(k, FaultKind::RankKill | FaultKind::RankStallForever))?;
        self.note(format!("inject {}", kind.name()));
        Some(kind)
    }

    /// Byte-fraction at which to corrupt the checkpoint written this
    /// step, if one is scheduled.
    pub fn poll_checkpoint(&mut self) -> Option<f64> {
        if let Some(FaultKind::CorruptCheckpoint { byte_frac }) =
            self.take_event(|k| matches!(k, FaultKind::CorruptCheckpoint { .. }))
        {
            self.note(format!("inject corrupt-checkpoint (@{byte_frac:.3})"));
            return Some(byte_frac);
        }
        None
    }

    /// Append a recovery-report line at the current step.
    pub fn note(&mut self, what: String) {
        let (step, rank) = (self.step, self.rank);
        self.log.push(FaultRecord { step, rank, what });
    }

    /// Virtual seconds a timed-out receive charges to the MPI clock.
    pub fn timeout_virtual_secs(&self) -> f64 {
        self.plan.timeout_virtual_secs
    }
}

/// The splitmix64 generator (public-domain constants): small, seedable,
/// and plenty for decorrelating fault coordinates.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "collisions in 8 draws are wildly unlikely");
    }

    #[test]
    fn empty_plan_polls_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::empty(), 0);
        for step in 0..16 {
            inj.begin_step(step);
            assert!(inj.poll_field().is_none());
            assert!(!inj.poll_solver_breakdown());
            assert_eq!(inj.poll_send(), SendFault::None);
            assert!(inj.poll_stall().is_none());
            assert!(inj.poll_checkpoint().is_none());
            assert!(inj.poll_kill().is_none());
        }
        assert!(inj.log.is_empty());
        assert!(inj.is_empty());
    }

    #[test]
    fn events_fire_once_at_their_coordinates() {
        let plan = FaultPlan::empty()
            .with_event(3, Some(1), FaultKind::FieldNan)
            .with_event(3, Some(0), FaultKind::DropMessage { nth: 1 })
            .with_event(5, None, FaultKind::SolverBreakdown { count: 2 });
        let mut r0 = FaultInjector::new(plan.clone(), 0);
        let mut r1 = FaultInjector::new(plan, 1);

        r0.begin_step(3);
        r1.begin_step(3);
        assert!(r0.poll_field().is_none(), "rank 0 has no field fault");
        let f = r1.poll_field().expect("rank 1 poisons its field at step 3");
        assert_eq!(f.kind, FaultKind::FieldNan);
        assert!(r1.poll_field().is_none(), "fires once");

        // Message 0 passes, message 1 drops, message 2 passes.
        assert_eq!(r0.poll_send(), SendFault::None);
        assert_eq!(r0.poll_send(), SendFault::Drop);
        assert_eq!(r0.poll_send(), SendFault::None);
        assert_eq!(r1.poll_send(), SendFault::None);

        // Collective breakdown: both ranks see two forced attempts.
        for inj in [&mut r0, &mut r1] {
            inj.begin_step(5);
            assert!(inj.poll_solver_breakdown());
            assert!(inj.poll_solver_breakdown());
            assert!(!inj.poll_solver_breakdown());
        }
    }

    #[test]
    fn rank_kill_fires_once_at_its_coordinates() {
        let plan = FaultPlan::empty().with_event(2, Some(0), FaultKind::RankKill).with_event(
            4,
            Some(1),
            FaultKind::RankStallForever,
        );
        let mut r0 = FaultInjector::new(plan.clone(), 0);
        let mut r1 = FaultInjector::new(plan, 1);
        r0.begin_step(2);
        r1.begin_step(2);
        assert_eq!(r0.poll_kill(), Some(FaultKind::RankKill));
        assert!(r0.poll_kill().is_none(), "fires once");
        assert!(r1.poll_kill().is_none(), "wrong rank");
        r1.begin_step(4);
        assert_eq!(r1.poll_kill(), Some(FaultKind::RankStallForever));
        assert_eq!(r0.log.len(), 1);
        assert!(r0.log[0].what.contains("rank-kill"));
    }

    #[test]
    fn campaign_is_deterministic_and_collective_where_required() {
        let a = FaultPlan::campaign(7, 12, 2, 10);
        let b = FaultPlan::campaign(7, 12, 2, 10);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 10);
        for ev in &a.events {
            assert!(ev.step >= 1 && ev.step < 12);
            if matches!(ev.kind, FaultKind::SolverBreakdown { .. }) {
                assert!(ev.rank.is_none(), "breakdowns must be collective");
            }
        }
    }
}
