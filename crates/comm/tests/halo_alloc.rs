//! Warm halo-exchange rounds through [`Comm::recv_into`] are
//! allocation-free at any rank count: each received transport buffer
//! goes back to the launch's pool — sized from the rank count — and the
//! next send reuses it.
//!
//! The message-buffer counter is process-global, so this file contains
//! exactly ONE test — a second test in the same binary would race the
//! counter snapshots.

use v2d_comm::{msg_buf_alloc_count, RankCtx, ReduceOp, Spmd};

#[test]
fn warm_recv_into_rounds_never_allocate() {
    // A pair, then the `weak_256` shape: a 256-rank strip where a pool
    // capped below the rank count dropped buffers every round.
    for n in [2, 256] {
        warm_rounds_on_a_strip(n);
    }
}

/// 25 warm solver-shaped rounds on a strip: every rank trades halos
/// with its left and right neighbour, then the group reduces (which, as
/// in BiCGSTAB, keeps the ranks within a round of one another).
fn warm_rounds_on_a_strip(n: usize) {
    let rounds = 25;
    let strip = 128;
    let outs = Spmd::new(n).run(move |ctx| {
        let me = ctx.rank();
        let neighbours: Vec<usize> =
            [me.checked_sub(1), (me + 1 < n).then_some(me + 1)].into_iter().flatten().collect();
        let data: Vec<f64> = (0..strip).map(|i| me as f64 + i as f64 * 0.5).collect();
        let mut recv_buf = Vec::new();
        let mut exchange = |ctx: &mut RankCtx| {
            for &nb in &neighbours {
                ctx.comm.send(&mut ctx.sink, nb, 3, &data);
            }
            for &nb in &neighbours {
                ctx.comm.recv_into(&mut ctx.sink, nb, 3, &mut recv_buf).unwrap();
                assert_eq!(recv_buf.len(), strip);
                assert_eq!(recv_buf[0], nb as f64);
                assert_eq!(recv_buf[strip - 1], nb as f64 + (strip - 1) as f64 * 0.5);
            }
        };

        // Two warm-up rounds stock the pool, as the first time step of
        // a production run would: the first is dispatched in rank order
        // (every clock is still zero), the second already in the
        // clock order the warm rounds repeat.
        for _ in 0..2 {
            exchange(ctx);
            ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, 1.0);
        }

        // Double barrier around the snapshot: the first drains the
        // warm-up allocations group-wide, the second keeps every rank
        // from sending again until all snapshots are taken.
        ctx.comm.barrier(&mut ctx.sink);
        let t0 = msg_buf_alloc_count();
        ctx.comm.barrier(&mut ctx.sink);
        for _ in 0..rounds {
            exchange(ctx);
            ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, 1.0);
        }
        // All counter reads happen strictly after the closing barrier,
        // when no rank will allocate again.
        ctx.comm.barrier(&mut ctx.sink);
        msg_buf_alloc_count() - t0
    });
    for (rank, delta) in outs.into_iter().enumerate() {
        assert_eq!(delta, 0, "rank {rank} of {n}: warm exchange rounds must not allocate");
    }
}
