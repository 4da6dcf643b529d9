//! Point-to-point messaging and data-carrying collectives.

use std::sync::Arc;

use v2d_machine::{AttrVal, CostLanes, MultiCostSink, SendFault, SimDuration};

use crate::sched::{CollKind, EventCore};

/// A rank observed blocked in a receive when a timeout fired: who, on
/// which source, on which tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedRank {
    pub rank: usize,
    pub src: usize,
    pub tag: u32,
}

/// One edge of a deadlock wait graph: which rank is blocked, and on
/// what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    pub rank: usize,
    pub on: WaitOn,
}

/// What a deadlocked rank was waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOn {
    /// Blocked in a point-to-point receive.
    Recv { src: usize, tag: u32 },
    /// Blocked inside a collective, holding this lockstep ticket.
    Collective { ticket: CollTicket },
}

impl std::fmt::Display for WaitEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.on {
            WaitOn::Recv { src, tag } => {
                write!(f, "rank {} waits recv(src {}, tag {:#x})", self.rank, src, tag)
            }
            WaitOn::Collective { ticket } => {
                write!(f, "rank {} waits collective {}", self.rank, ticket)
            }
        }
    }
}

/// Stable identifiers for the collective call sites in the library, so
/// a lockstep mismatch names the two diverged sites instead of printing
/// opaque integers.  `0` is reserved for untagged (legacy) calls.
pub mod coll_site {
    /// Legacy / untagged collective (the infallible `allreduce` family).
    pub const UNTAGGED: u32 = 0;
    /// Ganged inner-product reduction inside the Krylov solvers.
    pub const SOLVER_REDUCE: u32 = 1;
    /// Hydro CFL `max_dt` speed reduction.
    pub const HYDRO_CFL: u32 = 2;
    /// The recovery ladder's global scrub/halve decision.
    pub const SCRUB_DECISION: u32 = 3;
    /// Diagnostic total-radiation-energy reduction.
    pub const TOTAL_ENERGY: u32 = 4;
    /// Checkpoint field allgather.
    pub const CHECKPOINT_GATHER: u32 = 5;
    /// Scratch site ids for tests/harnesses (`TEST_BASE + k`).
    pub const TEST_BASE: u32 = 100;

    /// Human-readable name of a site id.
    pub fn name(site: u32) -> &'static str {
        match site {
            UNTAGGED => "untagged",
            SOLVER_REDUCE => "solver-reduce",
            HYDRO_CFL => "hydro-cfl",
            SCRUB_DECISION => "scrub-decision",
            TOTAL_ENERGY => "total-energy",
            CHECKPOINT_GATHER => "checkpoint-gather",
            s if s >= TEST_BASE => "test-site",
            _ => "unknown",
        }
    }
}

/// The lockstep verifier's per-call ticket: which call site a rank is
/// entering, and how many collectives it has entered before this one.
/// Ranks in lockstep present identical tickets; any divergence is a
/// control-flow bug that would otherwise deadlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollTicket {
    /// Stable call-site id (see [`coll_site`]).
    pub site: u32,
    /// This rank's collective-entry counter at the call.
    pub epoch: u64,
}

impl std::fmt::Display for CollTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(site {})#{}", coll_site::name(self.site), self.site, self.epoch)
    }
}

/// Typed communication failures.  The blocking paths only surface these
/// on genuine faults (a peer rank died, a deadline fired, a tag stream
/// desynchronized) — a healthy run never sees one.
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// A receive deadline expired.  `blocked` is the deadlock
    /// diagnostic: every rank that was itself inside a blocking receive
    /// at that moment, with the `(src, tag)` it was waiting on.
    Timeout { rank: usize, src: usize, tag: u32, blocked: Vec<BlockedRank> },
    /// The next message from `src` carried a different tag than the
    /// receive expected — the point-to-point stream desynchronized.
    TagMismatch { rank: usize, src: usize, expected: u32, got: u32 },
    /// The lockstep verifier caught two ranks entering *different*
    /// collectives in the same round: `expected` is the ticket the first
    /// depositor stamped, `got` is what `rank` presented.  Once raised,
    /// the communicator's collectives are poisoned — every in-flight and
    /// future collective returns this error rather than waiting on a
    /// group that can never reassemble.
    CollectiveMismatch { rank: usize, expected: CollTicket, got: CollTicket },
    /// Two ranks entered the same reduction (equal tickets) with
    /// contributions of different lengths: `expected` is the first
    /// depositor's length, `got` is what `rank` presented.  Poisons the
    /// communicator exactly as [`CommError::CollectiveMismatch`] does.
    CollectiveLengthMismatch { rank: usize, ticket: CollTicket, expected: usize, got: usize },
    /// A collective deadline expired: `rank` waited at `ticket` but the
    /// group never completed the round (a peer died or diverged).
    /// `blocked` is the same deadlock diagnostic p2p timeouts carry —
    /// every rank sitting in a blocking point-to-point receive at that
    /// moment.
    CollectiveTimeout { rank: usize, ticket: CollTicket, blocked: Vec<BlockedRank> },
    /// The scheduler proved the run deadlocked: every live rank is
    /// blocked, no message is in flight, and no fault-injector deadline
    /// could explain the wait set.  `waiting` is the complete wait
    /// graph at quiescence.
    Deadlock { rank: usize, waiting: Vec<WaitEdge> },
    /// Rank `rank` retired permanently (a `RankKill` /
    /// `RankStallForever` fault) and the caller's wait could only have
    /// been satisfied by it.  `site` is the p2p tag for receives or the
    /// collective call-site id for collectives.  Messages the dead rank
    /// posted before dying stay deliverable, it never sends again, and
    /// the error carries no virtual-time charge.
    RankDead { rank: usize, site: u32 },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { rank, src, tag, blocked } => {
                write!(f, "rank {rank}: recv from {src} tag {tag:#x} timed out")?;
                if blocked.is_empty() {
                    write!(f, " (no other rank blocked in a receive)")
                } else {
                    write!(f, "; blocked ranks:")?;
                    for b in blocked {
                        write!(f, " [{} on src {} tag {:#x}]", b.rank, b.src, b.tag)?;
                    }
                    Ok(())
                }
            }
            CommError::TagMismatch { rank, src, expected, got } => {
                write!(
                    f,
                    "rank {rank}: tag mismatch from rank {src}: expected {expected:#x}, got {got:#x}"
                )
            }
            CommError::CollectiveMismatch { rank, expected, got } => {
                write!(
                    f,
                    "rank {rank}: collective lockstep mismatch: group entered {expected}, \
                     this rank entered {got}"
                )
            }
            CommError::CollectiveLengthMismatch { rank, ticket, expected, got } => {
                write!(
                    f,
                    "rank {rank}: collective {ticket}: this rank reduces {got} values, \
                     the group {expected}"
                )
            }
            CommError::CollectiveTimeout { rank, ticket, blocked } => {
                write!(f, "rank {rank}: collective {ticket} timed out waiting for the group")?;
                if blocked.is_empty() {
                    write!(f, " (no rank blocked in a p2p receive)")
                } else {
                    write!(f, "; ranks blocked in p2p receives:")?;
                    for b in blocked {
                        write!(f, " [{} on src {} tag {:#x}]", b.rank, b.src, b.tag)?;
                    }
                    Ok(())
                }
            }
            CommError::Deadlock { rank, waiting } => {
                write!(f, "rank {rank}: deadlock: every live rank is blocked; wait graph:")?;
                for e in waiting {
                    write!(f, " [{e}]")?;
                }
                Ok(())
            }
            CommError::RankDead { rank, site } => {
                write!(f, "peer rank {rank} is dead (observed at site {site:#x})")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Reduction operators for collectives.  Sums are evaluated in rank order,
/// so results are bitwise deterministic for a fixed topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

impl ReduceOp {
    pub(crate) fn fold(self, acc: f64, v: f64) -> f64 {
        match self {
            ReduceOp::Sum => acc + v,
            ReduceOp::Min => acc.min(v),
            ReduceOp::Max => acc.max(v),
        }
    }

    pub(crate) fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Min => f64::INFINITY,
            ReduceOp::Max => f64::NEG_INFINITY,
        }
    }
}

/// A point-to-point message: payload plus the sender's per-lane virtual
/// clocks at send time.
pub(crate) struct Message {
    pub(crate) tag: u32,
    pub(crate) data: Vec<f64>,
    pub(crate) send_clocks: Vec<SimDuration>,
}

/// A rank's handle to the communicator (analogous to `MPI_COMM_WORLD`).
///
/// All methods that move data also advance the virtual clocks in the
/// caller's [`MultiCostSink`] (or the sink inside their
/// `v2d_machine::ExecCtx` — anything implementing [`CostLanes`]); every
/// rank must call collectives in the same order with the same lane
/// profiles (the usual MPI contract).
pub struct Comm {
    rank: usize,
    /// The discrete-event scheduler every rank of the launch shares:
    /// transport, blocking and quiescence resolution live there (see
    /// [`crate::sched`]); the clock charging lives here.
    core: Arc<EventCore>,
}

impl Comm {
    /// One handle per rank of `core`'s launch.
    pub(crate) fn create(core: &Arc<EventCore>) -> Vec<Comm> {
        (0..core.n_ranks()).map(|rank| Comm { rank, core: Arc::clone(core) }).collect()
    }

    /// This rank's id in `0..n_ranks()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    pub fn n_ranks(&self) -> usize {
        self.core.n_ranks()
    }

    /// Retire this rank permanently: the endpoint is marked dead and
    /// every peer wait satisfiable only by it resolves into
    /// [`CommError::RankDead`].  Called by the rank itself when a
    /// `RankKill` / `RankStallForever` fault fires, *before* its body
    /// returns — messages already sent stay deliverable, nothing else
    /// will ever be sent.  Idempotent; charges no virtual time.
    pub fn retire(&self) {
        self.core.kill(self.rank);
    }

    /// The caller's scheduling priority while blocked: its lane-0
    /// virtual clock.  Ties break by rank id in the event core.
    fn sched_key(sink: &MultiCostSink) -> u64 {
        sink.lanes[0].clock.now().cycles()
    }

    /// Send `data` to `dst` with `tag`.  Non-blocking (buffered): the
    /// sender's clocks advance only by the per-message software overhead;
    /// transfer time is charged on the receiving side.
    ///
    /// When a fault injector rides in `sink` it may drop the message
    /// (never enters the mailbox) or delay it (stamped later on the
    /// virtual clock).  Without an injector the path is untouched.
    pub fn send(&self, sink: &mut impl CostLanes, dst: usize, tag: u32, data: &[f64]) {
        let fate = match sink.fault_injector() {
            Some(inj) => inj.poll_send(),
            None => SendFault::None,
        };
        assert!(dst < self.n_ranks(), "send to nonexistent rank {dst}");
        assert_ne!(dst, self.rank, "self-sends are not supported (use local copies)");
        // Per-lane send overhead: half the latency (the classic
        // overhead/latency split), then record post-send clocks.  An
        // injected delay stamps the message that much later, so the
        // receiver's arrival-time wait models the late delivery.
        let delay = match fate {
            SendFault::Delay { secs } => secs,
            _ => 0.0,
        };
        for lane in &mut sink.cost_lanes().lanes {
            let overhead = lane.send_overhead();
            lane.charge_mpi(overhead);
            lane.count_send(data.len() * 8);
        }
        sink.trace_instant(
            "msg_send",
            &[
                ("dst", AttrVal::U64(dst as u64)),
                ("tag", AttrVal::U64(tag as u64)),
                ("bytes", AttrVal::U64(data.len() as u64 * 8)),
                ("dropped", AttrVal::Bool(fate == SendFault::Drop)),
                ("delay_s", AttrVal::F64(delay)),
            ],
        );
        if fate == SendFault::Drop {
            return; // the NIC ate it: the sender paid its overhead, nothing arrives
        }
        let stamps = sink.cost_lanes().lanes.iter().map(|lane| {
            let now = lane.clock.now();
            if delay > 0.0 {
                now.saturating_add(SimDuration::from_secs(delay))
            } else {
                now
            }
        });
        self.core.post(self.rank, dst, tag, data, stamps);
    }

    /// Receive the next message from `src`; its tag must equal `tag`
    /// (messages from one source arrive in order, as in MPI).
    ///
    /// The receiver's clock per lane becomes
    /// `max(own, sender_send_time + latency + bytes/bandwidth)`.
    ///
    /// Blocks indefinitely — unless a fault injector rides in `sink`,
    /// in which case the wait is armed and a timeout surfaces as
    /// [`CommError::Timeout`] with a deadlock diagnostic (plus the
    /// injector's virtual timeout cost on the MPI clocks).
    ///
    /// The returned vector leaves the group's buffer pool for good; hot
    /// loops should prefer [`Comm::recv_into`], which recycles it.
    pub fn recv(
        &self,
        sink: &mut impl CostLanes,
        src: usize,
        tag: u32,
    ) -> Result<Vec<f64>, CommError> {
        let timeout = Self::armed_timeout(sink);
        let msg = self.recv_msg(sink.cost_lanes(), src, tag, timeout)?;
        self.trace_recv(sink, src, tag, msg.data.len());
        Ok(msg.data)
    }

    /// Allocation-free receive: the payload is copied into `out`
    /// (cleared first) and the transport buffer goes back to the pool,
    /// so a steady-state exchange loop performs no heap allocation.
    /// Timing charges and failure behaviour are identical to
    /// [`Comm::recv`]; on error `out` is untouched.
    pub fn recv_into(
        &self,
        sink: &mut impl CostLanes,
        src: usize,
        tag: u32,
        out: &mut Vec<f64>,
    ) -> Result<(), CommError> {
        let timeout = Self::armed_timeout(sink);
        let msg = self.recv_msg(sink.cost_lanes(), src, tag, timeout)?;
        self.trace_recv(sink, src, tag, msg.data.len());
        out.clear();
        out.extend_from_slice(&msg.data);
        self.core.recycle(msg);
        Ok(())
    }

    /// Stamp a received message on the tracer, if one rides in `sink`.
    fn trace_recv(&self, sink: &mut impl CostLanes, src: usize, tag: u32, elems: usize) {
        sink.trace_instant(
            "msg_recv",
            &[
                ("src", AttrVal::U64(src as u64)),
                ("tag", AttrVal::U64(tag as u64)),
                ("bytes", AttrVal::U64(elems as u64 * 8)),
            ],
        );
    }

    /// `Some(virtual timeout cost)` when an injector in `sink` arms the
    /// caller's blocking waits, `None` without one.  There is no
    /// wall-clock deadline: an armed wait times out exactly when the
    /// scheduler proves it can never be satisfied, and the cost is what
    /// the timeout-and-recover protocol is modeled to take.
    fn armed_timeout(sink: &mut impl CostLanes) -> Option<f64> {
        sink.fault_injector().map(|inj| inj.timeout_virtual_secs())
    }

    /// Pull the next message off the `src → self` stream.  `timeout`
    /// of `None` blocks forever (a healthy fault-free run cannot time
    /// out); `Some(virtual_secs)` arms the wait — on expiry it charges
    /// `virtual_secs` of MPI time and reports which ranks were blocked.
    fn recv_msg(
        &self,
        sink: &mut MultiCostSink,
        src: usize,
        tag: u32,
        timeout: Option<f64>,
    ) -> Result<Message, CommError> {
        assert!(src < self.n_ranks(), "recv from nonexistent rank {src}");
        let msg =
            match self.core.recv_msg(self.rank, src, tag, timeout.is_some(), Self::sched_key(sink))
            {
                Ok(msg) => msg,
                Err(e) => {
                    // A fired deadline carries the injector's modeled cost
                    // of the timeout-and-recover protocol.
                    if let (CommError::Timeout { .. }, Some(virtual_secs)) = (&e, timeout) {
                        for lane in &mut sink.lanes {
                            lane.charge_mpi_secs(virtual_secs);
                        }
                    }
                    return Err(e);
                }
            };
        if msg.tag != tag {
            let got_tag = msg.tag;
            self.core.recycle(msg);
            return Err(CommError::TagMismatch {
                rank: self.rank,
                src,
                expected: tag,
                got: got_tag,
            });
        }
        assert_eq!(
            msg.send_clocks.len(),
            sink.lanes.len(),
            "sender and receiver lane profiles differ"
        );
        let bytes = 8 * msg.data.len();
        for (lane, &sent) in sink.lanes.iter_mut().zip(&msg.send_clocks) {
            let arrival = sent.saturating_add(lane.p2p_transfer(bytes));
            lane.wait_until_mpi(arrival);
        }
        Ok(msg)
    }

    /// The heart of every collective, lockstep-verified: the caller
    /// presents a `(site, epoch)` ticket; the round's first depositor
    /// stamps it and later depositors must match, so ranks whose
    /// control flow diverged get a typed [`CommError::CollectiveMismatch`]
    /// (a reduction over another length,
    /// [`CommError::CollectiveLengthMismatch`]) instead of an eternal
    /// wait.  `timeout` arms the wait exactly as for p2p receives
    /// ([`Self::recv_msg`]); on expiry the round is poisoned and every
    /// participant unwinds with [`CommError::CollectiveTimeout`].
    ///
    /// The round protocol itself lives in [`crate::sched`]; this is the
    /// ticket prologue, and [`Side`] is the contribution and the
    /// clock-sync + cost epilogue around it.
    fn collective(
        &self,
        sink: &mut MultiCostSink,
        kind: CollKind,
        vals: Vals<'_>,
        site: u32,
        timeout: Option<f64>,
    ) -> Result<(), CommError> {
        let ticket = CollTicket { site, epoch: sink.coll_epoch };
        sink.coll_epoch += 1;
        let n = self.n_ranks();
        if n == 1 {
            // Single rank: no synchronization, no cost.
            if let Vals::Into(data, out) = vals {
                out.clear();
                out.extend_from_slice(data);
            }
            return Ok(());
        }
        let key = Self::sched_key(sink);
        let side = Side { sink: &mut *sink, vals, n };
        self.core.collective(self.rank, kind, ticket, timeout.is_some(), key, side).map_err(
            |fail| {
                if let (true, Some(virtual_secs)) = (fail.charge_timeout, timeout) {
                    for lane in &mut sink.lanes {
                        lane.charge_mpi_secs(virtual_secs);
                    }
                }
                fail.err
            },
        )
    }

    /// Run a collective through the legacy infallible surface: tagged
    /// [`coll_site::UNTAGGED`], armed only when a fault injector rides
    /// in `sink` (matching p2p receives), and any typed verdict —
    /// impossible in a healthy lockstep run — escalated to a panic so
    /// the `Spmd` launch aborts like an MPI job would.
    fn collective_infallible(&self, sink: &mut impl CostLanes, kind: CollKind, vals: Vals<'_>) {
        let timeout = Self::armed_timeout(sink);
        self.collective(sink.cost_lanes(), kind, vals, coll_site::UNTAGGED, timeout)
            .unwrap_or_else(|e| panic!("collective failed: {e}"));
    }

    /// Element-wise allreduce; every rank gets the reduced vector.
    /// Gang several inner products into one call to reduce reduction
    /// count — V2D's restructured BiCGSTAB does exactly this.
    pub fn allreduce(&self, sink: &mut impl CostLanes, op: ReduceOp, vals: &mut [f64]) {
        self.collective_infallible(sink, CollKind::Reduce(op), Vals::InPlace(vals));
    }

    /// Sum-allreduce of a single scalar.
    pub fn allreduce_scalar(&self, sink: &mut impl CostLanes, op: ReduceOp, v: f64) -> f64 {
        let mut buf = [v];
        self.allreduce(sink, op, &mut buf);
        buf[0]
    }

    /// Synchronize all ranks (and their virtual clocks).
    pub fn barrier(&self, sink: &mut impl CostLanes) {
        self.collective_infallible(sink, CollKind::Reduce(ReduceOp::Sum), Vals::InPlace(&mut []));
    }

    /// Fallible, site-tagged allreduce: the lockstep verifier checks the
    /// `(site, epoch)` ticket (and the length of `vals`) against the
    /// group's, and — when a fault injector is active — arms the wait as
    /// p2p receives do.  Library call sites on fault-recovery paths use
    /// this surface so a desynchronized or abandoned collective degrades
    /// to a typed error the recovery ladder can handle.
    pub fn try_allreduce(
        &self,
        sink: &mut impl CostLanes,
        site: u32,
        op: ReduceOp,
        vals: &mut [f64],
    ) -> Result<(), CommError> {
        let timeout = Self::armed_timeout(sink);
        self.collective(sink.cost_lanes(), CollKind::Reduce(op), Vals::InPlace(vals), site, timeout)
    }

    /// Fallible, site-tagged scalar allreduce (see [`Self::try_allreduce`]).
    pub fn try_allreduce_scalar(
        &self,
        sink: &mut impl CostLanes,
        site: u32,
        op: ReduceOp,
        v: f64,
    ) -> Result<f64, CommError> {
        let mut buf = [v];
        self.try_allreduce(sink, site, op, &mut buf)?;
        Ok(buf[0])
    }

    /// Fallible, site-tagged allgatherv (see [`Self::try_allreduce`]).
    pub fn try_allgatherv(
        &self,
        sink: &mut impl CostLanes,
        site: u32,
        data: &[f64],
    ) -> Result<Vec<f64>, CommError> {
        let timeout = Self::armed_timeout(sink);
        let mut out = Vec::new();
        let vals = Vals::Into(data, &mut out);
        self.collective(sink.cost_lanes(), CollKind::Concat, vals, site, timeout)?;
        Ok(out)
    }

    /// Fallible, site-tagged broadcast (see [`Self::try_allreduce`]).
    pub fn try_broadcast(
        &self,
        sink: &mut impl CostLanes,
        site: u32,
        root: usize,
        data: &[f64],
    ) -> Result<Vec<f64>, CommError> {
        assert!(root < self.n_ranks());
        let timeout = Self::armed_timeout(sink);
        let mut out = Vec::new();
        let vals = Vals::Into(data, &mut out);
        self.collective(sink.cost_lanes(), CollKind::TakeRoot(root), vals, site, timeout)?;
        Ok(out)
    }

    /// Fallible, site-tagged barrier (see [`Self::try_allreduce`]).
    pub fn try_barrier(&self, sink: &mut impl CostLanes, site: u32) -> Result<(), CommError> {
        let timeout = Self::armed_timeout(sink);
        let vals = Vals::InPlace(&mut []);
        self.collective(sink.cost_lanes(), CollKind::Reduce(ReduceOp::Sum), vals, site, timeout)
    }
}

/// Where one rank's collective contribution comes from and where the
/// round's result goes.
enum Vals<'a> {
    /// Reduced in place (`allreduce`, `barrier`).
    InPlace(&'a mut [f64]),
    /// Contributed from the slice, the result copied into the vector
    /// (`allgatherv`, `broadcast`).
    Into(&'a [f64], &'a mut Vec<f64>),
}

/// One rank's side of a collective round, handed to the event core: the
/// rank's lanes and values, and the group size its cost is priced at.
/// The core calls [`Side::deposit`] and [`Side::finish`] under its lock,
/// at most once each.
pub(crate) struct Side<'a> {
    sink: &'a mut MultiCostSink,
    vals: Vals<'a>,
    n: usize,
}

impl Side<'_> {
    /// This rank's contribution.
    pub(crate) fn contribution(&self) -> &[f64] {
        match &self.vals {
            Vals::InPlace(vals) => vals,
            Vals::Into(data, _) => data,
        }
    }

    /// Append the contribution to `data` and the per-lane entry clocks
    /// to `clocks` (both arrive empty).
    pub(crate) fn deposit(&self, data: &mut Vec<f64>, clocks: &mut Vec<SimDuration>) {
        data.extend_from_slice(self.contribution());
        clocks.extend(self.sink.lanes.iter().map(|lane| lane.clock.now()));
    }

    /// Take the finished round: conservative clock synchronization +
    /// collective cost per lane (lanes are positionally aligned across
    /// ranks: every rank's sink is built from the launch's one profile
    /// list), then the result.
    pub(crate) fn finish(self, result: &[f64], sync: &[SimDuration]) {
        let bytes = 8 * result.len();
        for (lane, &sync_t) in self.sink.lanes.iter_mut().zip(sync) {
            lane.wait_until_mpi(sync_t);
            let cost = lane.collective_cost(bytes, self.n);
            lane.charge_mpi(cost);
        }
        match self.vals {
            Vals::InPlace(vals) => vals.copy_from_slice(result),
            Vals::Into(_, out) => {
                out.clear();
                out.extend_from_slice(result);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Comm is exercised through Spmd in `universe.rs` tests and the
    // crate-level integration tests.
}
