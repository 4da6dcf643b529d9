//! The conservative discrete-event core behind every [`crate::Spmd`]
//! launch, and the collective round protocol it drives.
//!
//! One logical thread of control hops between rank *tasks*: every task
//! is a continuation whose yield points are the blocking communication
//! sites (`recv`, the collective entry/exit waits).  A min-heap keyed on
//! `(virtual clock at block time, rank)` decides who runs next, and
//! exactly one task executes at any instant.  The core only *chooses*:
//! [`EventCore::advance`] returns the next rank, and the two hand-off
//! points (`sched_wait`, and `finish` through the rank body's return
//! value) drop the `state` lock and give that rank to the launch's
//! [`Carrier`] — a stack switch on the launching thread where the target
//! has one, an unpark/park pair between per-rank threads elsewhere.
//!
//! Because nothing here ever consults the wall clock, the schedule is a
//! pure function of the program and the fault plan:
//!
//! * **Timeouts are exact.**  A fault-armed receive times out if and
//!   only if the run reaches *quiescence* (no task ready, no task
//!   running) while it is still blocked — i.e. exactly when the message
//!   can never arrive.  No real-time deadline, no spurious firings on a
//!   loaded host.
//! * **Deadlock detection is exact.**  Quiescence with no fault-armed
//!   waiter is a genuine deadlock; every blocked task gets a typed
//!   [`CommError::Deadlock`] carrying the full wait graph instead of a
//!   watchdog guessing from outside.
//!
//! Quiescence is resolved in a fixed order — p2p before collective,
//! because a rank can be legitimately late to a collective by however
//! long it spends eating p2p timeouts (stale-ghost recovery), so only a
//! peer that stopped calling collectives altogether should trip one:
//!
//! 1. a fault-armed p2p receive waiter times out (min `(clock, rank)`
//!    first), and charges the injector's modeled timeout cost;
//! 2. else a fault-armed collective waiter poisons the round with
//!    [`CommError::CollectiveTimeout`] — it alone charges the modeled
//!    cost; every other collective waiter unwinds on the poison;
//! 3. else the run is deadlocked: every blocked task is resumed with
//!    the wait graph.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use v2d_machine::SimDuration;

use crate::carrier::{self, Carrier, RankBody};
use crate::comm::{BlockedRank, CollTicket, CommError, Message, ReduceOp, Side, WaitEdge, WaitOn};

/// Lock a mutex, recovering the data if another rank thread panicked
/// while holding it (our state stays consistent: every critical section
/// below is a plain read-modify-write with no tearing on unwind).
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Process-wide count of fresh message-payload allocations.  The pooled
/// send/[`crate::Comm::recv_into`] path recycles payload buffers through
/// the launch's free list, so a warm halo-exchange loop should hold this
/// constant; `ablation_alloc` and the `halo_alloc` test assert it.
static MSG_BUF_ALLOC: AtomicU64 = AtomicU64::new(0);

/// How many message payload buffers have been freshly allocated.
pub fn msg_buf_alloc_count() -> u64 {
    MSG_BUF_ALLOC.load(Ordering::Relaxed)
}

/// Pooled message buffers kept per rank of the launch (beyond
/// `POOL_BUFS_PER_RANK * n_ranks`, returned buffers are simply dropped).
/// A rank has at most four halo sends in flight, so this leaves every
/// warm exchange allocation-free at any rank count.
const POOL_BUFS_PER_RANK: usize = 8;

/// A pooled message's two buffers: the payload and the sender's per-lane
/// clocks.
type MsgBufs = (Vec<f64>, Vec<SimDuration>);

/// Hasher of the `(dst, src)` mail keys: FxHash's multiply-rotate mix
/// of two small integers, in place of the default SipHash.  The keys are
/// rank ids, never outside input, so collision resistance buys nothing;
/// the map is looked up by key only, so its hashing cannot reach any
/// result.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One rank's slot in a [`CollRound`]: its contribution, kept across
/// rounds so a warm collective allocates nothing.
#[derive(Default)]
struct Contrib {
    data: Vec<f64>,
    /// Per-lane clocks at entry.
    clocks: Vec<SimDuration>,
    /// Whether `data`/`clocks` hold this round's contribution.
    present: bool,
}

/// One round of a data-carrying collective: lockstep verification,
/// rank-ordered reduction and sticky poison, driven by
/// [`EventCore::collective`].  Every buffer is reused from round to
/// round.
struct CollRound {
    contrib: Vec<Contrib>,
    deposited: usize,
    /// Whether `result` and `sync` hold a finished round that not every
    /// rank has copied out yet.
    done: bool,
    /// The finished round's payload.
    result: Vec<f64>,
    /// The finished round's per-lane synchronized clocks (before cost).
    sync: Vec<SimDuration>,
    left: usize,
    /// Lockstep stamp of the round's first depositor: its ticket, and
    /// for a reduction its contribution's length.  Later depositors must
    /// present the same `(site, epoch)` (and length) or the round is
    /// declared diverged.  Cleared when the round drains.
    stamp: Option<(CollTicket, Option<usize>)>,
    /// Sticky divergence/timeout verdict.  Once set, every in-flight
    /// and future collective on this communicator returns it — a group
    /// that lost a member can never complete another round, so waiting
    /// would be the very deadlock the verifier exists to prevent.
    poison: Option<CommError>,
}

impl CollRound {
    fn new(n: usize) -> Self {
        CollRound {
            contrib: (0..n).map(|_| Contrib::default()).collect(),
            deposited: 0,
            done: false,
            result: Vec::new(),
            sync: Vec::new(),
            left: 0,
            stamp: None,
            poison: None,
        }
    }
}

/// What a collective does with the deposited contributions.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CollKind {
    Reduce(ReduceOp),
    Concat,
    TakeRoot(usize),
}

/// Stamp (or verify) the round's lockstep ticket: the first depositor
/// sets it, later depositors must present the same `(site, epoch)` — and
/// for a reduction (`len` is `Some`) a contribution of the same length —
/// or the round is poisoned.  The caller must wake the round's waiters
/// on `Err`.
fn stamp_ticket(
    round: &mut CollRound,
    rank: usize,
    ticket: CollTicket,
    len: Option<usize>,
) -> Result<(), CommError> {
    let err = match (round.stamp, len) {
        (None, _) => {
            round.stamp = Some((ticket, len));
            return Ok(());
        }
        (Some((expected, _)), _) if expected != ticket => {
            CommError::CollectiveMismatch { rank, expected, got: ticket }
        }
        (Some((_, Some(expected))), Some(got)) if got != expected => {
            CommError::CollectiveLengthMismatch { rank, ticket, expected, got }
        }
        _ => return Ok(()),
    };
    round.poison = Some(err.clone());
    Err(err)
}

/// Combine a full round of contributions into `round.result` (rank-ordered,
/// so bitwise deterministic) and `round.sync` (per lane, the max over
/// ranks: the conservative PDES sync), and empty every rank's slot.
fn finish_round(round: &mut CollRound, kind: CollKind) {
    let CollRound { contrib, result, sync, .. } = round;
    sync.clear();
    sync.resize(contrib[0].clocks.len(), SimDuration::ZERO);
    for c in contrib.iter() {
        for (s, &t) in sync.iter_mut().zip(&c.clocks) {
            if t > *s {
                *s = t;
            }
        }
    }
    result.clear();
    match kind {
        CollKind::Reduce(op) => {
            // Every length equals the first depositor's (`stamp_ticket`).
            result.resize(contrib[0].data.len(), op.identity());
            for c in contrib.iter() {
                for (o, &v) in result.iter_mut().zip(&c.data) {
                    *o = op.fold(*o, v);
                }
            }
        }
        CollKind::Concat => {
            for c in contrib.iter() {
                result.extend_from_slice(&c.data);
            }
        }
        CollKind::TakeRoot(root) => result.extend_from_slice(&contrib[root].data),
    }
    for c in contrib.iter_mut() {
        c.present = false;
    }
}

/// Where a task stands in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Runnable; an entry for it sits in the ready heap.
    Ready,
    /// The one task currently executing.
    Running,
    /// Suspended at a communication site, waiting to be woken.
    Blocked,
    /// The rank body returned (or panicked); never runs again.
    Done,
}

/// What a blocked task is waiting on.
#[derive(Debug, Clone, Copy)]
enum Wait {
    /// Blocked in `recv` on the `src → self` mailbox.  `armed` is true
    /// when a fault injector put a timeout on the wait.
    Recv { src: usize, tag: u32, armed: bool },
    /// Blocked inside the collective machinery (either waiting for the
    /// previous round to drain or for this round's result).
    Coll { ticket: CollTicket, armed: bool },
}

/// Why the scheduler woke a blocked task without satisfying its wait.
#[derive(Debug, Clone)]
enum Verdict {
    /// A fault-armed receive reached quiescence: the message can never
    /// arrive.  `blocked` is the p2p deadlock diagnostic (the other
    /// ranks sitting in receives).
    P2pTimeout { blocked: Vec<BlockedRank> },
    /// This task is the collective-timeout reporter; the round is
    /// poisoned with exactly this error and the reporter charges the
    /// modeled timeout cost.
    CollTimeout(CommError),
    /// True deadlock: the full wait graph, one edge per blocked rank.
    Deadlock { waiting: Vec<WaitEdge> },
}

/// A collective failure surfaced by the core: the typed error plus
/// whether the caller must charge the injector's modeled timeout cost
/// (only the quiescence-chosen reporter does; poisoned waiters do not).
pub(crate) struct CollFailure {
    pub(crate) err: CommError,
    pub(crate) charge_timeout: bool,
}

impl CollFailure {
    fn plain(err: CommError) -> Self {
        CollFailure { err, charge_timeout: false }
    }
}

/// One rank task.
struct Task {
    status: Status,
    /// Scheduling key: lane-0 virtual clock (cycles) when the task last
    /// blocked.  Ties break by rank id, so the schedule is total.
    key: u64,
    wait: Option<Wait>,
    verdict: Option<Verdict>,
}

/// Everything the scheduler owns, under one lock.  The lock is never
/// contended: exactly one rank runs at a time, and it is never held
/// across a hand-off (a rank resumed on the same OS thread would
/// otherwise re-enter it).
struct CoreState {
    tasks: Vec<Task>,
    /// Min-heap of `(key, rank)` over `Ready` tasks.  Entries can go
    /// stale (a task readied and dispatched through a newer entry);
    /// [`EventCore::advance`] skips entries whose task is not `Ready`.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// `mail[&(dst, src)]`: in-order message queue of one ordered pair,
    /// created by the pair's first [`EventCore::post`] — a rank talks
    /// to a handful of neighbours, so a launch holds O(ranks) queues,
    /// not ranks².  Looked up by key only, never iterated.
    mail: HashMap<(usize, usize), VecDeque<Message>, BuildHasherDefault<PairHasher>>,
    coll: CollRound,
    /// Liveness registry: `dead[r]` is set by [`EventCore::kill`] when
    /// rank `r` retires permanently (a `RankKill` / `RankStallForever`
    /// fault).  Orthogonal to [`Status`] — the dying rank keeps Running
    /// until its body returns through [`EventCore::finish`].
    dead: Vec<bool>,
    /// How many entries of `dead` are set; zero on every healthy run,
    /// which lets the per-collective liveness checks skip their scans.
    n_dead: usize,
    /// Free list of message buffers (see `Comm::recv_into`).
    pool: Vec<MsgBufs>,
    /// The longest payload a fresh buffer has been sized for.  Fresh
    /// buffers take this capacity and narrower ones leave the pool, so
    /// any pooled buffer fits any message seen so far: an exchange that
    /// mixes strip lengths (x1 and x2 edges of a tile) stops allocating
    /// once enough buffers circulate, instead of whenever a short strip
    /// first-fits a long buffer.
    widest: usize,
    /// Scheduler counters for observability.
    dispatches: u64,
    quiescences: u64,
}

/// Scheduler activity counters, exposed for tracing/metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedStats {
    /// How many times the baton was handed to a task.
    pub dispatches: u64,
    /// How many quiescence points were resolved (timeouts + deadlocks).
    pub quiescences: u64,
}

/// The discrete-event scheduler shared by every rank of one launch.
pub(crate) struct EventCore {
    n_ranks: usize,
    state: Mutex<CoreState>,
    carrier: Box<dyn Carrier>,
}

impl EventCore {
    pub(crate) fn new(n_ranks: usize) -> Arc<EventCore> {
        Self::with_carrier(n_ranks, carrier::for_target(n_ranks))
    }

    /// [`EventCore::new`] on a given carrier — the seam through which
    /// the tests run the engine on every carrier compiled for them.
    pub(crate) fn with_carrier(n_ranks: usize, carrier: Box<dyn Carrier>) -> Arc<EventCore> {
        // Every rank starts ready at key 0, so the first pass over the
        // heap dispatches them in rank order.
        let tasks = (0..n_ranks)
            .map(|_| Task { status: Status::Ready, key: 0, wait: None, verdict: None })
            .collect();
        Arc::new(EventCore {
            n_ranks,
            state: Mutex::new(CoreState {
                tasks,
                ready: (0..n_ranks).map(|r| Reverse((0, r))).collect(),
                mail: HashMap::default(),
                coll: CollRound::new(n_ranks),
                dead: vec![false; n_ranks],
                n_dead: 0,
                pool: Vec::new(),
                widest: 0,
                dispatches: 0,
                quiescences: 0,
            }),
            carrier,
        })
    }

    pub(crate) fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Scheduler counters (meaningful once the launch has completed).
    pub(crate) fn stats(&self) -> SchedStats {
        let st = lock_tolerant(&self.state);
        SchedStats { dispatches: st.dispatches, quiescences: st.quiescences }
    }

    /// Dispatch the first rank and carry every body to its end (one
    /// per rank, in rank order; see [`RankBody`]).  Called once, by the
    /// launching thread.
    pub(crate) fn launch(&self, bodies: Vec<RankBody<'_>>) {
        let first = Self::advance(&mut lock_tolerant(&self.state))
            .unwrap_or_else(|| panic!("a launch has at least one ready rank"));
        self.carrier.run(bodies, first);
    }

    /// Mark `rank` permanently dead and ready every task whose wait it
    /// could have satisfied: receivers blocked on `rank → self` and all
    /// collective waiters.  Woken tasks re-check the liveness registry
    /// and resolve into `CommError::RankDead` when their wait can no
    /// longer complete.  The caller is the dying rank itself, still
    /// Running — no dispatch happens here; its eventual
    /// [`EventCore::finish`] hands the baton onward as usual.  Messages
    /// it posted before dying stay in the mail queues (deliverable): a
    /// real transport cannot un-send either.
    pub(crate) fn kill(&self, rank: usize) {
        let mut st = lock_tolerant(&self.state);
        if !st.dead[rank] {
            st.dead[rank] = true;
            st.n_dead += 1;
        }
        for r in 0..st.tasks.len() {
            if st.tasks[r].status != Status::Blocked {
                continue;
            }
            match st.tasks[r].wait {
                Some(Wait::Recv { src, .. }) if src == rank => Self::make_ready(&mut st, r),
                Some(Wait::Coll { .. }) => Self::make_ready(&mut st, r),
                _ => {}
            }
        }
    }

    /// The rank body returned (or panicked): retire the task and name
    /// whoever is next (`None`: every rank is done).  The caller — the
    /// tail of a [`RankBody`] — returns that to the carrier, which hands
    /// the baton on once this rank's frames are gone.
    pub(crate) fn finish(&self, rank: usize) -> Option<usize> {
        let mut st = lock_tolerant(&self.state);
        st.tasks[rank].status = Status::Done;
        st.tasks[rank].wait = None;
        Self::advance(&mut st)
    }

    /// Dispatch the next ready task, resolving quiescence as needed, and
    /// return it (`None`: every task is done).  Callers must have no
    /// task `Running` (the caller either just blocked or just finished).
    fn advance(st: &mut CoreState) -> Option<usize> {
        loop {
            if let Some(Reverse((_, r))) = st.ready.pop() {
                if st.tasks[r].status != Status::Ready {
                    continue; // stale entry; the task moved on already
                }
                st.tasks[r].status = Status::Running;
                st.dispatches += 1;
                return Some(r);
            }
            if !st.tasks.iter().any(|t| t.status == Status::Blocked) {
                return None;
            }
            st.quiescences += 1;
            Self::resolve_quiescence(st);
        }
    }

    /// Ready heap empty, at least one task blocked: decide how the wait
    /// set unwinds.  Always readies at least one task.
    fn resolve_quiescence(st: &mut CoreState) {
        // The p2p deadlock diagnostic: every rank blocked in a
        // point-to-point receive.
        let p2p: Vec<BlockedRank> = st
            .tasks
            .iter()
            .enumerate()
            .filter_map(|(rank, t)| match (t.status, t.wait) {
                (Status::Blocked, Some(Wait::Recv { src, tag, .. })) => {
                    Some(BlockedRank { rank, src, tag })
                }
                _ => None,
            })
            .collect();
        // 1. A fault-armed receive: the lowest-clock waiter times out.
        let choice = st
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                t.status == Status::Blocked
                    && matches!(t.wait, Some(Wait::Recv { armed: true, .. }))
            })
            .min_by_key(|(r, t)| (t.key, *r))
            .map(|(r, _)| r);
        if let Some(r) = choice {
            let blocked = p2p.iter().filter(|b| b.rank != r).cloned().collect();
            st.tasks[r].verdict = Some(Verdict::P2pTimeout { blocked });
            Self::make_ready(st, r);
            return;
        }
        // 2. A fault-armed collective waiter: poison the round; the
        // chosen reporter charges, everyone else unwinds on the poison.
        let choice = st
            .tasks
            .iter()
            .enumerate()
            .filter_map(|(r, t)| match (t.status, t.wait) {
                (Status::Blocked, Some(Wait::Coll { ticket, armed: true })) => {
                    Some((r, t.key, ticket))
                }
                _ => None,
            })
            .min_by_key(|&(r, key, _)| (key, r));
        if let Some((r, _, ticket)) = choice {
            let err = CommError::CollectiveTimeout { rank: r, ticket, blocked: p2p };
            st.coll.poison = Some(err.clone());
            st.tasks[r].verdict = Some(Verdict::CollTimeout(err));
            Self::wake_collective_waiters(st);
            return;
        }
        // 3. True deadlock: no fault anywhere could explain the wait
        // set.  Hand every blocked task the full wait graph.
        let waiting: Vec<WaitEdge> = st
            .tasks
            .iter()
            .enumerate()
            .filter_map(|(rank, t)| match (t.status, t.wait) {
                (Status::Blocked, Some(Wait::Recv { src, tag, .. })) => {
                    Some(WaitEdge { rank, on: WaitOn::Recv { src, tag } })
                }
                (Status::Blocked, Some(Wait::Coll { ticket, .. })) => {
                    Some(WaitEdge { rank, on: WaitOn::Collective { ticket } })
                }
                _ => None,
            })
            .collect();
        // Sticky-poison the round too, so collectives after the unwind
        // fail fast instead of re-deadlocking.
        if let Some(e) = waiting.iter().find(|e| matches!(e.on, WaitOn::Collective { .. })) {
            st.coll.poison = Some(CommError::Deadlock { rank: e.rank, waiting: waiting.clone() });
        }
        for r in 0..st.tasks.len() {
            if st.tasks[r].status == Status::Blocked {
                st.tasks[r].verdict = Some(Verdict::Deadlock { waiting: waiting.clone() });
                Self::make_ready(st, r);
            }
        }
    }

    fn make_ready(st: &mut CoreState, r: usize) {
        if st.tasks[r].status == Status::Blocked {
            st.tasks[r].status = Status::Ready;
            let key = st.tasks[r].key;
            st.ready.push(Reverse((key, r)));
        }
    }

    fn wake_collective_waiters(st: &mut CoreState) {
        for r in 0..st.tasks.len() {
            if st.tasks[r].status == Status::Blocked
                && matches!(st.tasks[r].wait, Some(Wait::Coll { .. }))
            {
                Self::make_ready(st, r);
            }
        }
    }

    /// Block the calling task on `wait`, hand the baton onward, and
    /// stay suspended until re-dispatched.  Returns the re-acquired
    /// state lock plus the verdict, if the scheduler woke us to deliver
    /// one.
    fn sched_wait<'a>(
        &'a self,
        mut st: MutexGuard<'a, CoreState>,
        rank: usize,
        wait: Wait,
        key: u64,
    ) -> (MutexGuard<'a, CoreState>, Option<Verdict>) {
        st.tasks[rank].status = Status::Blocked;
        st.tasks[rank].wait = Some(wait);
        st.tasks[rank].key = key;
        // This task is blocked, so quiescence resolution readies someone
        // (possibly this very task, with a verdict) before giving up.
        let next = Self::advance(&mut st)
            .unwrap_or_else(|| panic!("rank {rank} blocked with nothing left to run"));
        // Never across the hand-off: the next rank may run on this OS
        // thread and take the lock itself.
        drop(st);
        if next != rank {
            self.carrier.switch(rank, next);
        }
        let mut st = lock_tolerant(&self.state);
        st.tasks[rank].wait = None;
        let verdict = st.tasks[rank].verdict.take();
        (st, verdict)
    }

    /// Deliver a copy of `data`, stamped with the sender's per-lane
    /// `clocks`, in pooled buffers; wakes the destination if it is
    /// blocked on this source.  The sender keeps the baton (sends are
    /// buffered and non-blocking).
    pub(crate) fn post(
        &self,
        src: usize,
        dst: usize,
        tag: u32,
        data: &[f64],
        clocks: impl Iterator<Item = SimDuration>,
    ) {
        let mut st = lock_tolerant(&self.state);
        let (mut payload, mut send_clocks) = Self::take_bufs(&mut st, data.len());
        payload.extend_from_slice(data);
        send_clocks.extend(clocks);
        let msg = Message { tag, data: payload, send_clocks };
        st.mail.entry((dst, src)).or_default().push_back(msg);
        if st.tasks[dst].status == Status::Blocked {
            if let Some(Wait::Recv { src: waiting_on, .. }) = st.tasks[dst].wait {
                if waiting_on == src {
                    Self::make_ready(&mut st, dst);
                }
            }
        }
    }

    /// Pull the next message off the `src → rank` queue, blocking (in
    /// virtual time) until one is posted.  `armed` marks the wait as
    /// carrying an injector deadline; `key` is the caller's lane-0
    /// clock, the scheduling priority while blocked.
    pub(crate) fn recv_msg(
        &self,
        rank: usize,
        src: usize,
        tag: u32,
        armed: bool,
        key: u64,
    ) -> Result<Message, CommError> {
        let mut st = lock_tolerant(&self.state);
        loop {
            if let Some(msg) = st.mail.get_mut(&(rank, src)).and_then(VecDeque::pop_front) {
                return Ok(msg);
            }
            // The queue is drained, so everything `src` posted before
            // dying has been consumed: a dead source can never satisfy
            // this wait.
            if st.dead[src] {
                return Err(CommError::RankDead { rank: src, site: tag });
            }
            let (guard, verdict) = self.sched_wait(st, rank, Wait::Recv { src, tag, armed }, key);
            st = guard;
            match verdict {
                None => {} // woken by a post: re-check the queue
                Some(Verdict::P2pTimeout { blocked }) => {
                    return Err(CommError::Timeout { rank, src, tag, blocked });
                }
                Some(Verdict::Deadlock { waiting }) => {
                    return Err(CommError::Deadlock { rank, waiting });
                }
                Some(Verdict::CollTimeout(_)) => {
                    unreachable!("collective verdict delivered to a p2p wait")
                }
            }
        }
    }

    /// One rank's pass through a collective round ([`CollRound`]:
    /// lockstep tickets, rank-ordered reduction via [`finish_round`],
    /// sticky poison), yielding into the scheduler at the drain and
    /// result waits.  `side` deposits the rank's contribution and takes
    /// the result, both under the lock; its `finish` applies the cost
    /// epilogue.
    pub(crate) fn collective(
        &self,
        rank: usize,
        kind: CollKind,
        ticket: CollTicket,
        armed: bool,
        key: u64,
        side: Side<'_>,
    ) -> Result<(), CollFailure> {
        let n = self.n_ranks;
        let mut st = lock_tolerant(&self.state);
        // Wait for the previous round to fully drain before depositing.
        loop {
            if let Some(p) = st.coll.poison.clone() {
                return Err(CollFailure::plain(p));
            }
            if !st.coll.done {
                break;
            }
            // A dead rank can never deposit into the round we are
            // trying to enter, so give up before waiting out the drain.
            if let Some(d) = Self::first_dead(&st) {
                return Err(CollFailure::plain(CommError::RankDead { rank: d, site: ticket.site }));
            }
            let (guard, verdict) = self.sched_wait(st, rank, Wait::Coll { ticket, armed }, key);
            st = guard;
            if let Some(v) = verdict {
                return Err(Self::coll_verdict(rank, v));
            }
        }
        if let Some(d) = Self::dead_blocker(&st) {
            return Err(CollFailure::plain(CommError::RankDead { rank: d, site: ticket.site }));
        }
        // Lockstep verification: first depositor stamps the round's
        // ticket (and a reduction's length), everyone else must match.
        let len = matches!(kind, CollKind::Reduce(_)).then(|| side.contribution().len());
        if let Err(e) = stamp_ticket(&mut st.coll, rank, ticket, len) {
            Self::wake_collective_waiters(&mut st);
            return Err(CollFailure::plain(e));
        }
        let slot = &mut st.coll.contrib[rank];
        assert!(
            !slot.present,
            "rank {rank} re-entered a collective before the group completed one — \
             collective call order must match across ranks"
        );
        slot.data.clear();
        slot.clocks.clear();
        side.deposit(&mut slot.data, &mut slot.clocks);
        slot.present = true;
        st.coll.deposited += 1;
        if st.coll.deposited == n {
            // Last to arrive computes the result, rank-ordered.
            finish_round(&mut st.coll, kind);
            st.coll.done = true;
            st.coll.deposited = 0;
            st.coll.stamp = None;
            Self::wake_collective_waiters(&mut st);
        }
        loop {
            if let Some(p) = st.coll.poison.clone() {
                return Err(CollFailure::plain(p));
            }
            if st.coll.done {
                break;
            }
            // A completed round's result is used even if a depositor
            // died afterwards, so only a dead rank that never deposited
            // (the round can then never complete) fails the wait.
            if let Some(d) = Self::dead_blocker(&st) {
                return Err(CollFailure::plain(CommError::RankDead { rank: d, site: ticket.site }));
            }
            let (guard, verdict) = self.sched_wait(st, rank, Wait::Coll { ticket, armed }, key);
            st = guard;
            if let Some(v) = verdict {
                return Err(Self::coll_verdict(rank, v));
            }
        }
        side.finish(&st.coll.result, &st.coll.sync);
        st.coll.left += 1;
        if st.coll.left == n {
            st.coll.left = 0;
            st.coll.done = false;
            // Wake ranks blocked at the entry of the *next* round.
            Self::wake_collective_waiters(&mut st);
        }
        Ok(())
    }

    /// Lowest-numbered dead rank, if any.
    fn first_dead(st: &CoreState) -> Option<usize> {
        if st.n_dead == 0 {
            return None;
        }
        st.dead.iter().position(|&d| d)
    }

    /// Lowest-numbered dead rank that has *not* deposited into the
    /// current collective round — the round can then never complete.
    fn dead_blocker(st: &CoreState) -> Option<usize> {
        if st.n_dead == 0 {
            return None;
        }
        (0..st.dead.len()).find(|&r| st.dead[r] && !st.coll.contrib[r].present)
    }

    fn coll_verdict(rank: usize, v: Verdict) -> CollFailure {
        match v {
            Verdict::CollTimeout(err) => CollFailure { err, charge_timeout: true },
            Verdict::Deadlock { waiting } => {
                CollFailure::plain(CommError::Deadlock { rank, waiting })
            }
            Verdict::P2pTimeout { .. } => {
                unreachable!("p2p verdict delivered to a collective wait")
            }
        }
    }

    /// Empty message buffers, the payload's with capacity ≥ `len`,
    /// reused from the pool when possible (a fresh payload is counted in
    /// [`msg_buf_alloc_count`]).
    fn take_bufs(st: &mut CoreState, len: usize) -> MsgBufs {
        if let Some(i) = st.pool.iter().position(|(b, _)| b.capacity() >= len) {
            return st.pool.swap_remove(i);
        }
        MSG_BUF_ALLOC.fetch_add(1, Ordering::Relaxed);
        st.widest = st.widest.max(len);
        (Vec::with_capacity(st.widest), Vec::new())
    }

    /// Return a delivered message's buffers to the pool.
    pub(crate) fn recycle(&self, msg: Message) {
        let Message { mut data, mut send_clocks, .. } = msg;
        data.clear();
        send_clocks.clear();
        let mut st = lock_tolerant(&self.state);
        if st.pool.len() < POOL_BUFS_PER_RANK * self.n_ranks && data.capacity() >= st.widest {
            st.pool.push((data, send_clocks));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Spmd;
    use v2d_machine::CompilerProfile;

    #[test]
    fn a_strip_exchange_at_1024_ranks_makes_one_queue_per_neighbour_pair() {
        // The launch `table1_full` tops out at: each rank talks to its
        // two strip neighbours only, so mail must be O(ranks) queues,
        // not the 1 M an n × n matrix would build.
        let n = 1024;
        let core = EventCore::new(n);
        let spmd = Spmd::new(n).with_profiles(vec![CompilerProfile::cray_opt()]);
        spmd.run_on(Arc::clone(&core), |ctx| {
            let me = ctx.rank();
            let neighbours = [me.checked_sub(1), (me + 1 < n).then_some(me + 1)];
            for nb in neighbours.into_iter().flatten() {
                ctx.comm.send(&mut ctx.sink, nb, 1, &[me as f64]);
            }
            for nb in neighbours.into_iter().flatten() {
                assert_eq!(ctx.comm.recv(&mut ctx.sink, nb, 1).expect("posted"), [nb as f64]);
            }
        });
        assert_eq!(lock_tolerant(&core.state).mail.len(), 2 * (n - 1));
    }
}
