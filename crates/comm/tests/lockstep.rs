//! The collective lockstep verifier: every collective carries a
//! `(site, epoch)` ticket, and a desynchronized group — two ranks in
//! different collectives, or the same collective at different epochs —
//! must surface as a typed [`CommError`] on *every* rank instead of an
//! eternal wait.

use v2d_comm::{coll_site, CommError, ReduceOp, Spmd};
use v2d_machine::{CompilerProfile, ExecCtx, FaultInjector, FaultPlan};

fn profiles(n: usize) -> Vec<CompilerProfile> {
    vec![CompilerProfile::cray_opt(); n]
}

#[test]
fn epoch_advances_once_per_collective_even_on_one_rank() {
    let epochs = Spmd::new(1).with_profiles(profiles(1)).run(|ctx| {
        assert_eq!(ctx.sink.coll_epoch, 0);
        ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, 1.0);
        ctx.comm.barrier(&mut ctx.sink);
        ctx.comm
            .try_allreduce_scalar(&mut ctx.sink, coll_site::SOLVER_REDUCE, ReduceOp::Sum, 2.0)
            .unwrap();
        ctx.sink.coll_epoch
    });
    assert_eq!(epochs[0], 3, "every collective entry advances the epoch, even at n=1");
}

#[test]
fn matching_tickets_reduce_normally() {
    let sums = Spmd::new(3).with_profiles(profiles(3)).run(|ctx| {
        let r = ctx.rank() as f64;
        ctx.comm
            .try_allreduce_scalar(&mut ctx.sink, coll_site::SOLVER_REDUCE, ReduceOp::Sum, r)
            .unwrap()
    });
    assert_eq!(sums, vec![3.0, 3.0, 3.0]);
}

#[test]
fn site_mismatch_is_a_typed_error_on_every_rank() {
    let outs = Spmd::new(2).with_profiles(profiles(2)).run(|ctx| {
        let site = if ctx.rank() == 0 { coll_site::SOLVER_REDUCE } else { coll_site::HYDRO_CFL };
        ctx.comm.try_allreduce_scalar(&mut ctx.sink, site, ReduceOp::Sum, 1.0)
    });
    for (rank, out) in outs.iter().enumerate() {
        match out {
            Err(CommError::CollectiveMismatch { expected, got, .. }) => {
                assert_ne!(expected.site, got.site, "rank {rank}: sites should differ");
                assert_eq!(expected.epoch, got.epoch, "rank {rank}: epochs agree here");
            }
            other => panic!("rank {rank}: wanted CollectiveMismatch, got {other:?}"),
        }
    }
}

#[test]
fn epoch_desync_is_a_typed_error_on_every_rank() {
    let outs = Spmd::new(2).with_profiles(profiles(2)).run(|ctx| {
        if ctx.rank() == 1 {
            // Simulate a rank that skipped (or replayed) collectives:
            // its epoch counter no longer matches the group's.
            ctx.sink.coll_epoch += 3;
        }
        ctx.comm.try_allreduce_scalar(&mut ctx.sink, coll_site::SOLVER_REDUCE, ReduceOp::Sum, 1.0)
    });
    for (rank, out) in outs.iter().enumerate() {
        match out {
            Err(CommError::CollectiveMismatch { expected, got, .. }) => {
                assert_eq!(expected.site, got.site, "rank {rank}: same site");
                assert_ne!(expected.epoch, got.epoch, "rank {rank}: epochs should differ");
            }
            other => panic!("rank {rank}: wanted CollectiveMismatch, got {other:?}"),
        }
    }
}

#[test]
fn mismatch_poison_is_sticky_and_never_deadlocks() {
    // After a mismatch the communicator is poisoned: later collectives
    // fail fast with the original verdict instead of waiting on a group
    // that will never re-form.
    let outs = Spmd::new(2).with_profiles(profiles(2)).run(|ctx| {
        let site =
            if ctx.rank() == 0 { coll_site::SCRUB_DECISION } else { coll_site::TOTAL_ENERGY };
        let first = ctx.comm.try_allreduce_scalar(&mut ctx.sink, site, ReduceOp::Sum, 1.0);
        let second = ctx.comm.try_barrier(&mut ctx.sink, coll_site::SOLVER_REDUCE);
        (first.is_err(), second)
    });
    for (rank, (first_err, second)) in outs.iter().enumerate() {
        assert!(first_err, "rank {rank}: first collective must fail");
        assert!(
            matches!(second, Err(CommError::CollectiveMismatch { .. })),
            "rank {rank}: poisoned comm must keep failing, got {second:?}"
        );
    }
}

#[test]
fn abandoned_collective_times_out_under_injector() {
    // Rank 0 dies (returns early, as a rank panicking before its next
    // collective would); rank 1 enters an allreduce that can never
    // complete.  With a fault injector armed the wait degrades into a
    // typed CollectiveTimeout once the scheduler proves quiescence.
    let outs = Spmd::new(2).with_profiles(profiles(2)).run(|ctx| {
        if ctx.rank() == 0 {
            return None;
        }
        let mut inj = FaultInjector::new(FaultPlan::empty(), ctx.rank());
        let mut cx = ExecCtx::with_parts(&mut ctx.sink, None, Some(&mut inj), None);
        Some(ctx.comm.try_allreduce_scalar(&mut cx, coll_site::SOLVER_REDUCE, ReduceOp::Sum, 1.0))
    });
    assert!(outs[0].is_none());
    match &outs[1] {
        Some(Err(CommError::CollectiveTimeout { rank, ticket, .. })) => {
            assert_eq!(*rank, 1);
            assert_eq!(ticket.site, coll_site::SOLVER_REDUCE);
        }
        other => panic!("wanted CollectiveTimeout on rank 1, got {other:?}"),
    }
}

#[test]
fn timeout_charges_the_modeled_virtual_cost() {
    let secs = 2.5;
    let outs = Spmd::new(2).with_profiles(profiles(2)).run(move |ctx| {
        if ctx.rank() == 0 {
            return (true, 0u64);
        }
        let before = ctx.sink.lanes[0].clock.now().cycles();
        let plan = FaultPlan { timeout_virtual_secs: secs, ..FaultPlan::empty() };
        let mut inj = FaultInjector::new(plan, ctx.rank());
        let mut cx = ExecCtx::with_parts(&mut ctx.sink, None, Some(&mut inj), None);
        let out = ctx.comm.try_barrier(&mut cx, coll_site::SOLVER_REDUCE);
        (out.is_err(), ctx.sink.lanes[0].clock.now().cycles() - before)
    });
    assert!(outs[1].0, "abandoned barrier must fail");
    assert!(outs[1].1 > 0, "timeout must charge the modeled virtual cost to the MPI clock");
}

#[test]
#[should_panic(expected = "collective failed")]
fn legacy_infallible_surface_escalates_mismatch_to_a_panic() {
    Spmd::new(2).with_profiles(profiles(2)).run(|ctx| {
        if ctx.rank() == 0 {
            // Legacy untagged collective...
            ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, 1.0);
        } else {
            // ...meets a tagged one: a program error, loudly fatal.
            let _ = ctx.comm.try_allreduce_scalar(
                &mut ctx.sink,
                coll_site::SOLVER_REDUCE,
                ReduceOp::Sum,
                1.0,
            );
        }
    });
}

#[test]
fn zero_fault_injector_collectives_are_bit_invisible() {
    // An armed (but never-firing) injector must not change collective
    // results or clocks: the deadline machinery only matters on expiry.
    let run = |armed: bool| {
        Spmd::new(2).with_profiles(profiles(2)).run(move |ctx| {
            let r = ctx.rank() as f64;
            let v = if armed {
                let mut inj = FaultInjector::new(FaultPlan::empty(), ctx.rank());
                let mut cx = ExecCtx::with_parts(&mut ctx.sink, None, Some(&mut inj), None);
                ctx.comm
                    .try_allreduce_scalar(&mut cx, coll_site::SOLVER_REDUCE, ReduceOp::Sum, r)
                    .unwrap()
            } else {
                ctx.comm
                    .try_allreduce_scalar(&mut ctx.sink, coll_site::SOLVER_REDUCE, ReduceOp::Sum, r)
                    .unwrap()
            };
            (v, ctx.sink.lanes[0].clock.now().cycles())
        })
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn reduce_length_mismatch_is_a_typed_error_on_every_rank() {
    // Same site, same epoch, different contribution lengths: the first
    // depositor stamps its length, a later one poisons the round, and
    // every rank gets the typed error instead of a panicked launch.
    for n in [2, 3] {
        let outs = Spmd::new(n).with_profiles(profiles(n)).run(|ctx| {
            let mut vals = vec![1.0; 1 + ctx.rank()];
            let first = ctx.comm.try_allreduce(
                &mut ctx.sink,
                coll_site::SOLVER_REDUCE,
                ReduceOp::Sum,
                &mut vals,
            );
            (first, ctx.comm.try_barrier(&mut ctx.sink, coll_site::SOLVER_REDUCE))
        });
        for (rank, (first, second)) in outs.iter().enumerate() {
            match first {
                Err(CommError::CollectiveLengthMismatch { ticket, expected, got, .. }) => {
                    assert_eq!(ticket.site, coll_site::SOLVER_REDUCE, "{n} ranks, rank {rank}");
                    assert_ne!(expected, got, "{n} ranks, rank {rank}");
                }
                other => {
                    panic!("{n} ranks, rank {rank}: wanted CollectiveLengthMismatch, got {other:?}")
                }
            }
            assert_eq!(second, first, "{n} ranks, rank {rank}: the poison must be sticky");
        }
    }
}
