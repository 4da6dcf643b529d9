//! Property tests of the cost model: monotonicity and accounting
//! linearity — the invariants every calibration rests on — and the
//! memoised prices a [`MultiCostSink`] charges equal to the formula.

use proptest::prelude::*;
use v2d_machine::{
    cost::cost_cycles, CompilerProfile, CostSink, KernelClass, KernelShape, MultiCostSink,
    SimDuration, ALL_COMPILERS,
};

fn shape(elems: usize, flops: usize, reads: usize, ws: usize) -> KernelShape {
    KernelShape::streaming(KernelClass::Daxpy, elems, flops, reads, 1, ws)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn more_work_never_costs_less(
        elems in 1usize..100_000,
        flops in 1usize..32,
        reads in 1usize..12,
        ws in 1usize..(64 << 20),
    ) {
        for id in ALL_COMPILERS {
            let p = CompilerProfile::of(id);
            let base = cost_cycles(&p, &shape(elems, flops, reads, ws));
            let more_elems = cost_cycles(&p, &shape(elems + 1, flops, reads, ws));
            let more_flops = cost_cycles(&p, &shape(elems, flops + 1, reads, ws));
            let more_reads = cost_cycles(&p, &shape(elems, flops, reads + 1, ws));
            prop_assert!(more_elems >= base);
            prop_assert!(more_flops >= base);
            prop_assert!(more_reads >= base);
        }
    }

    #[test]
    fn deeper_working_sets_never_cost_less(
        elems in 64usize..50_000,
        flops in 1usize..16,
    ) {
        for id in ALL_COMPILERS {
            let p = CompilerProfile::of(id);
            let l1 = cost_cycles(&p, &shape(elems, flops, 2, 16 << 10));
            let l2 = cost_cycles(&p, &shape(elems, flops, 2, 2 << 20));
            let hbm = cost_cycles(&p, &shape(elems, flops, 2, 64 << 20));
            prop_assert!(l1 <= l2 && l2 <= hbm, "{id:?}: {l1} / {l2} / {hbm}");
        }
    }

    #[test]
    fn optimized_build_never_loses_to_unoptimized(
        elems in 1usize..100_000,
        flops in 1usize..32,
        ws in 1usize..(64 << 20),
    ) {
        let opt = CompilerProfile::cray_opt();
        let noopt = CompilerProfile::cray_noopt();
        for class in [KernelClass::MatVec, KernelClass::Daxpy, KernelClass::Physics] {
            let s = KernelShape::streaming(class, elems, flops, 3, 1, ws);
            prop_assert!(
                cost_cycles(&opt, &s) <= cost_cycles(&noopt, &s),
                "{class:?}: optimized build slower"
            );
        }
    }

    #[test]
    fn collective_cost_is_monotone_in_ranks_and_bytes(
        ranks_a in 2usize..30,
        extra in 1usize..30,
        bytes in 0usize..(1 << 16),
    ) {
        for id in ALL_COMPILERS {
            let mpi = CompilerProfile::of(id).mpi;
            prop_assert!(mpi.collective_secs(bytes, ranks_a) <= mpi.collective_secs(bytes, ranks_a + extra));
            prop_assert!(mpi.collective_secs(bytes, ranks_a) <= mpi.collective_secs(bytes + 8, ranks_a));
        }
    }
}

/// Pool of 40 distinct kernel shapes, more than a sink's memo holds:
/// every pair differs in one field only (size, class or working set,
/// the last across all three residency levels), so keys must compare
/// in full.
fn shape_pool() -> Vec<KernelShape> {
    let classes =
        [KernelClass::MatVec, KernelClass::Daxpy, KernelClass::Physics, KernelClass::Pack];
    let working_sets = [4 << 10, 40 << 10, 1 << 20, 7 << 20, 32 << 20];
    let mut pool = Vec::new();
    for elems in [64, 200] {
        for class in classes {
            for ws in working_sets {
                pool.push(KernelShape::streaming(class, elems, 2, 2, 1, ws));
            }
        }
    }
    pool
}

/// The reference: every lane priced by [`cost_cycles`] on every charge.
fn reference_lanes() -> Vec<CostSink> {
    ALL_COMPILERS.iter().map(|&id| CostSink::new(CompilerProfile::of(id))).collect()
}

/// Every clock and counter of `lanes` equals the reference's.
fn assert_same_books(lanes: &[CostSink], reference: &[CostSink]) {
    assert_eq!(lanes.len(), reference.len());
    for (a, b) in lanes.iter().zip(reference) {
        let id = a.profile.id;
        assert_eq!(a.clock, b.clock, "{id:?}: clock");
        assert_eq!(a.counters.cycles, b.counters.cycles, "{id:?}: cycles");
        assert_eq!(a.counters.calls, b.counters.calls, "{id:?}: calls");
        assert_eq!(a.counters.flops, b.counters.flops, "{id:?}: flops");
        assert_eq!(a.counters.bytes, b.counters.bytes, "{id:?}: bytes");
        assert_eq!(a.bytes_by_level, b.bytes_by_level, "{id:?}: bytes by level");
        assert_eq!(a.mpi_cycles, b.mpi_cycles, "{id:?}: MPI cycles");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn memoised_charges_book_exactly_what_the_formula_prices(
        picks in proptest::collection::vec(0usize..40, 1..600),
        pool_size in 1usize..40,
    ) {
        // A small pool reuses memo slots; one larger than the memo makes
        // shapes collide and evict one another.
        let pool = shape_pool();
        let mut multi = MultiCostSink::all_compilers();
        let mut reference = reference_lanes();
        for &k in &picks {
            let shape = pool[k % pool_size];
            multi.charge(&shape);
            for lane in &mut reference {
                lane.charge(&shape);
            }
        }
        assert_same_books(&multi.lanes, &reference);
    }

    #[test]
    fn memoised_mpi_costs_book_exactly_what_the_cost_model_prices(
        ops in proptest::collection::vec((0usize..3, 0usize..24, 0usize..6), 1..400),
    ) {
        // Op 0 sends, op 1 receives a message sent at a fixed stamp, op
        // 2 enters a collective; 24 byte counts × 6 group sizes overflow
        // every conversion memo.
        let bytes_of = |b: usize| 8 * (1 + 13 * b);
        let ranks_of = |r: usize| [2, 3, 20, 50, 256, 1][r];
        let mut multi = MultiCostSink::all_compilers();
        let mut reference = reference_lanes();
        for &(op, b, r) in &ops {
            let (bytes, ranks) = (bytes_of(b), ranks_of(r));
            let sent = SimDuration::from_cycles(1_000 * b as u64);
            for (lane, refl) in multi.lanes.iter_mut().zip(&mut reference) {
                let mpi = refl.profile.mpi;
                match op {
                    0 => {
                        let overhead = lane.send_overhead();
                        lane.charge_mpi(overhead);
                        refl.charge_mpi_secs(0.5 * mpi.p2p_latency);
                    }
                    1 => {
                        let arrival = sent.saturating_add(lane.p2p_transfer(bytes));
                        lane.wait_until_mpi(arrival);
                        let transfer = SimDuration::from_secs(mpi.p2p_secs(bytes));
                        refl.wait_until_mpi(sent.saturating_add(transfer));
                    }
                    _ => {
                        let cost = lane.collective_cost(bytes, ranks);
                        lane.charge_mpi(cost);
                        refl.charge_mpi_secs(mpi.collective_secs(bytes, ranks));
                    }
                }
            }
        }
        assert_same_books(&multi.lanes, &reference);
    }
}
