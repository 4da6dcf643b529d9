//! The SPMD runner: launch `n_ranks` simulated ranks, each with its
//! communicator handle and its own [`MultiCostSink`] of virtual clocks.
//!
//! A conservative discrete-event core (see [`crate::sched`]) schedules
//! the ranks.  Each rank is a continuation that yields at its blocking
//! communication sites; a min-heap keyed on `(virtual clock, rank)`
//! picks who runs next, and exactly one rank executes at any instant.
//! On x86-64 Linux every rank of a launch runs on the thread that
//! called [`Spmd::run`], each on its own lazily-committed stack, and a
//! hand-off is a user-level stack switch (see `stack.rs`), so a launch
//! scales to the paper's full 50-rank Table I grid and to O(1000)-rank
//! weak-scaling sweeps without a context switch; other targets carry
//! each rank on a parked OS thread.  Launches are independent: several
//! may run at once on different threads, and a rank body may launch
//! another.  Fault timeouts and deadlocks resolve by exact quiescence
//! detection, never by wall-clock deadlines.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use v2d_machine::{CompilerProfile, ExecCtx, MultiCostSink};

use crate::carrier::RankBody;
use crate::comm::Comm;
use crate::sched::{EventCore, SchedStats};

/// Per-rank execution context handed to the SPMD body.
pub struct RankCtx {
    /// The communicator handle for this rank.
    pub comm: Comm,
    /// Virtual clocks + counters, one lane per modeled compiler.
    pub sink: MultiCostSink,
}

impl RankCtx {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Total number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.comm.n_ranks()
    }

    /// An execution context over this rank's cost lanes — the form the
    /// kernel/solver layer takes its charging state in.
    pub fn exec(&mut self) -> ExecCtx<'_> {
        ExecCtx::new(&mut self.sink)
    }
}

/// An SPMD launch configuration (rank count + modeled compilers).
pub struct Spmd {
    n_ranks: usize,
    profiles: Vec<CompilerProfile>,
}

impl Spmd {
    /// A launch of `n_ranks` ranks, modeling all four Table I compilers.
    pub fn new(n_ranks: usize) -> Self {
        assert!(n_ranks >= 1, "need at least one rank");
        Spmd {
            n_ranks,
            profiles: v2d_machine::ALL_COMPILERS
                .iter()
                .map(|&id| CompilerProfile::of(id))
                .collect(),
        }
    }

    /// Model only the given compiler configurations (cheaper when a
    /// single column is needed).
    pub fn with_profiles(mut self, profiles: Vec<CompilerProfile>) -> Self {
        assert!(!profiles.is_empty(), "need at least one compiler profile");
        self.profiles = profiles;
        self
    }

    /// Run `body` on every rank and return the per-rank results in rank
    /// order.  Panics in any rank propagate (the whole launch aborts, as
    /// an MPI job would), lowest rank first.
    pub fn run<T, F>(&self, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Send + Sync,
    {
        self.run_observed(body).0
    }

    /// [`Spmd::run`], also returning the scheduler's activity counters.
    pub fn run_observed<T, F>(&self, body: F) -> (Vec<T>, SchedStats)
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Send + Sync,
    {
        self.run_on(EventCore::new(self.n_ranks), body)
    }

    /// Run the launch on `core`.  Each rank is one [`RankBody`]: it runs
    /// the user's body (which yields back into the scheduler at every
    /// blocking comm site), parks the outcome — a panic included, caught
    /// here so it never leaves the rank's continuation and the
    /// scheduler can unwind the surviving ranks through typed errors —
    /// and retires its task on the way out.
    pub(crate) fn run_on<T, F>(&self, core: Arc<EventCore>, body: F) -> (Vec<T>, SchedStats)
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Send + Sync,
    {
        assert_eq!(core.n_ranks(), self.n_ranks, "core sized for another launch");
        let (core, body, profiles) = (&core, &body, &self.profiles);
        let mut results: Vec<Option<std::thread::Result<T>>> =
            (0..self.n_ranks).map(|_| None).collect();
        let bodies = Comm::create(core)
            .into_iter()
            .zip(results.iter_mut())
            .map(|(comm, slot)| {
                let rank = comm.rank();
                Box::new(move || {
                    *slot = Some(catch_unwind(AssertUnwindSafe(|| {
                        let sink = MultiCostSink::with_profiles(profiles);
                        let mut ctx = RankCtx { comm, sink };
                        body(&mut ctx)
                    })));
                    core.finish(rank)
                }) as RankBody<'_>
            })
            .collect();
        core.launch(bodies);
        let outs = results
            .into_iter()
            .enumerate()
            .map(|(rank, r)| match r {
                Some(Ok(out)) => out,
                Some(Err(panic)) => resume_unwind(panic),
                None => panic!("rank {rank} never ran"),
            })
            .collect();
        (outs, core.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carrier::{self, Carrier, Threads};
    use crate::comm::{coll_site, CommError, ReduceOp, WaitOn};
    use v2d_machine::CompilerProfile;

    fn single_profile() -> Vec<CompilerProfile> {
        vec![CompilerProfile::cray_opt()]
    }

    /// One launch per carrier — the target's own, then the parked-thread
    /// one (the only path off x86-64 Linux, built for every test run so
    /// it cannot rot).  The engine is deterministic, so results and
    /// scheduler counters must agree between them.
    fn on_each_carrier<T, F>(n: usize, body: F) -> Vec<T>
    where
        T: Send + PartialEq + std::fmt::Debug,
        F: Fn(&mut RankCtx) -> T + Send + Sync,
    {
        let spmd = Spmd::new(n).with_profiles(single_profile());
        let run = |c: Box<dyn Carrier>| spmd.run_on(EventCore::with_carrier(n, c), &body);
        let native = run(carrier::for_target(n));
        assert_eq!(run(Box::new(Threads::new(n))), native, "the carriers disagree");
        native.0
    }

    #[test]
    fn ranks_see_their_ids() {
        let ids = Spmd::new(4).with_profiles(single_profile()).run(|ctx| ctx.rank());
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let sums = on_each_carrier(6, |ctx| {
            let mut v = [ctx.rank() as f64, 1.0];
            ctx.comm.allreduce(&mut ctx.sink, ReduceOp::Sum, &mut v);
            v
        });
        for s in sums {
            assert_eq!(s[0], (0..6).sum::<usize>() as f64);
            assert_eq!(s[1], 6.0);
        }
    }

    #[test]
    fn allreduce_min_max() {
        let outs = Spmd::new(5).with_profiles(single_profile()).run(|ctx| {
            let r = ctx.rank() as f64;
            let mn = ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Min, r);
            let mx = ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Max, r);
            (mn, mx)
        });
        for (mn, mx) in outs {
            assert_eq!((mn, mx), (0.0, 4.0));
        }
    }

    #[test]
    fn repeated_collectives_do_not_cross_rounds() {
        // Exercises round-draining: many back-to-back collectives, which
        // the scheduler interleaves rank by rank.
        let outs = on_each_carrier(4, |ctx| {
            let mut total = 0.0;
            for round in 0..50 {
                let v = ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, (round + 1) as f64);
                total += v;
            }
            total
        });
        let expect = (1..=50).map(|r| (r * 4) as f64).sum::<f64>();
        for t in outs {
            assert_eq!(t, expect);
        }
    }

    #[test]
    fn send_recv_exchanges_between_partners() {
        let outs = on_each_carrier(2, |ctx| {
            let me = ctx.rank();
            let partner = 1 - me;
            let data = vec![me as f64; 3];
            ctx.comm.send(&mut ctx.sink, partner, 7, &data);
            ctx.comm.recv(&mut ctx.sink, partner, 7).expect("healthy exchange")
        });
        assert_eq!(outs[0], vec![1.0; 3]);
        assert_eq!(outs[1], vec![0.0; 3]);
    }

    #[test]
    fn p2p_messages_arrive_in_order() {
        let outs = Spmd::new(2).with_profiles(single_profile()).run(|ctx| {
            if ctx.rank() == 0 {
                for i in 0..10 {
                    ctx.comm.send(&mut ctx.sink, 1, i, &[i as f64]);
                }
                Vec::new()
            } else {
                (0..10).map(|i| ctx.comm.recv(&mut ctx.sink, 0, i).expect("in order")[0]).collect()
            }
        });
        assert_eq!(outs[1], (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn allgatherv_concatenates_in_rank_order() {
        let outs = Spmd::new(3).with_profiles(single_profile()).run(|ctx| {
            let data = vec![ctx.rank() as f64; ctx.rank() + 1];
            ctx.comm.try_allgatherv(&mut ctx.sink, coll_site::TEST_BASE, &data).expect("healthy")
        });
        for o in outs {
            assert_eq!(o, vec![0.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn broadcast_takes_root_payload() {
        let outs = Spmd::new(4).with_profiles(single_profile()).run(|ctx| {
            let data = if ctx.rank() == 2 { vec![42.0, 43.0] } else { vec![] };
            ctx.comm.try_broadcast(&mut ctx.sink, coll_site::TEST_BASE, 2, &data).expect("healthy")
        });
        for o in outs {
            assert_eq!(o, vec![42.0, 43.0]);
        }
    }

    #[test]
    fn collective_synchronizes_virtual_clocks() {
        // A rank that did lots of local work drags everyone's clock
        // forward at the barrier.
        let times = Spmd::new(3).with_profiles(single_profile()).run(|ctx| {
            if ctx.rank() == 1 {
                ctx.sink.lanes[0].advance_secs(5.0);
            }
            ctx.comm.barrier(&mut ctx.sink);
            ctx.sink.lanes[0].elapsed_secs()
        });
        for t in &times {
            assert!(*t >= 5.0, "barrier must not complete before the slowest rank: {t}");
        }
        // And the fast ranks accounted the wait as MPI time.
        let mpi = Spmd::new(3).with_profiles(single_profile()).run(|ctx| {
            if ctx.rank() == 1 {
                ctx.sink.lanes[0].advance_secs(5.0);
            }
            ctx.comm.barrier(&mut ctx.sink);
            ctx.sink.lanes[0].mpi_secs()
        });
        assert!(mpi[0] >= 5.0 && mpi[2] >= 5.0);
        assert!(mpi[1] < 1.0);
    }

    #[test]
    fn recv_waits_for_virtual_send_time() {
        let times = Spmd::new(2).with_profiles(single_profile()).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.sink.lanes[0].advance_secs(2.0);
                ctx.comm.send(&mut ctx.sink, 1, 0, &[1.0; 100]);
            } else {
                let _ = ctx.comm.recv(&mut ctx.sink, 0, 0);
            }
            ctx.sink.lanes[0].elapsed_secs()
        });
        assert!(times[1] > 2.0, "receiver finished before sender sent: {}", times[1]);
    }

    #[test]
    fn single_rank_collectives_are_free_and_identity() {
        let outs = Spmd::new(1).with_profiles(single_profile()).run(|ctx| {
            let mut v = [3.5];
            ctx.comm.allreduce(&mut ctx.sink, ReduceOp::Sum, &mut v);
            (v[0], ctx.sink.lanes[0].mpi_secs())
        });
        assert_eq!(outs[0].0, 3.5);
        assert_eq!(outs[0].1, 0.0);
    }

    #[test]
    fn deterministic_simulated_times() {
        // The whole point of virtual time: bitwise-identical clocks on
        // every run regardless of host scheduling.
        let run = || {
            Spmd::new(5).with_profiles(single_profile()).run(|ctx| {
                let mut acc = ctx.rank() as f64;
                for _ in 0..20 {
                    acc = ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, acc);
                    acc = acc.sqrt();
                }
                ctx.sink.lanes[0].clock.now().cycles()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ring_exchange_replays_clocks_bit_for_bit() {
        // p2p and collectives interleaved: answers *and* modeled clocks
        // must be a pure function of the program.
        let run = || {
            Spmd::new(6).with_profiles(single_profile()).run(|ctx| {
                let me = ctx.rank();
                let n = ctx.n_ranks();
                let right = (me + 1) % n;
                let left = (me + n - 1) % n;
                let mut acc = me as f64 + 1.0;
                for step in 0..10 {
                    ctx.comm.send(&mut ctx.sink, right, step, &[acc; 32]);
                    let got = ctx.comm.recv(&mut ctx.sink, left, step).expect("ring recv");
                    acc += got[0].sqrt();
                    acc = ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Max, acc);
                }
                (acc.to_bits(), ctx.sink.lanes[0].clock.now().cycles())
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn more_ranks_than_host_cores() {
        // 64 ranks on any host: progress, correctness.
        let outs =
            on_each_carrier(64, |ctx| ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, 1.0));
        for o in outs {
            assert_eq!(o, 64.0);
        }
    }

    #[test]
    fn launch_scales_to_a_thousand_ranks() {
        // Every rank but the one holding the baton is a suspended stack.
        let (outs, stats) = Spmd::new(1000)
            .with_profiles(single_profile())
            .run_observed(|ctx| ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, 1.0));
        for o in outs {
            assert_eq!(o, 1000.0);
        }
        assert!(stats.dispatches >= 1000, "every rank must have been dispatched");
        assert_eq!(stats.quiescences, 0, "a healthy run never reaches quiescence");
    }

    #[test]
    fn exact_deadlock_reports_the_wait_graph() {
        // Two ranks each waiting on the other's message: the scheduler
        // proves quiescence and hands every rank the full wait graph as
        // a typed error — no watchdog, no wall-clock deadline.
        let outs = on_each_carrier(2, |ctx| {
            let partner = 1 - ctx.rank();
            ctx.comm.recv(&mut ctx.sink, partner, 9).expect_err("must deadlock")
        });
        for (rank, err) in outs.iter().enumerate() {
            match err {
                CommError::Deadlock { rank: r, waiting } => {
                    assert_eq!(*r, rank);
                    assert_eq!(waiting.len(), 2, "both ranks appear in the wait graph");
                    for e in waiting {
                        match e.on {
                            WaitOn::Recv { src, tag } => {
                                assert_eq!(src, 1 - e.rank);
                                assert_eq!(tag, 9);
                            }
                            other => panic!("unexpected wait edge: {other:?}"),
                        }
                    }
                }
                other => panic!("expected Deadlock, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_retired_rank_fails_its_peers_waits_with_rank_dead() {
        // Rank 1 sends once, retires and returns; its message stays
        // deliverable, every later wait on it is a typed `RankDead`.
        let outs = on_each_carrier(3, |ctx| {
            if ctx.rank() == 1 {
                ctx.comm.send(&mut ctx.sink, 0, 5, &[7.0]);
                ctx.comm.retire();
                return (None, None, None);
            }
            let delivered = (ctx.rank() == 0)
                .then(|| ctx.comm.recv(&mut ctx.sink, 1, 5).expect("sent before the kill"));
            let recv = ctx.comm.recv(&mut ctx.sink, 1, 6).expect_err("source is dead");
            let coll = ctx.comm.try_barrier(&mut ctx.sink, 11).expect_err("group lost a member");
            (delivered, Some(recv), Some(coll))
        });
        assert_eq!(outs[0].0, Some(vec![7.0]));
        for out in [&outs[0], &outs[2]] {
            assert_eq!(out.1, Some(CommError::RankDead { rank: 1, site: 6 }));
            assert_eq!(out.2, Some(CommError::RankDead { rank: 1, site: 11 }));
        }
    }
}
