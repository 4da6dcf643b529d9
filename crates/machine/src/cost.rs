//! Roofline-style kernel costing.
//!
//! Every linear-algebra or physics kernel in the reproduction executes its
//! arithmetic natively and then *reports* what it did — a [`KernelShape`]:
//! how many elements it touched, how many flops it performed, how many
//! bytes it streamed, and how large the ambient working set of the
//! surrounding solver loop is.  A [`CostSink`] converts that shape into
//! simulated cycles under one [`CompilerProfile`]; a [`MultiCostSink`]
//! does so under all four Table I profiles *simultaneously*, so a single
//! native run of the Gaussian-pulse problem yields all four columns of the
//! reproduced table.
//!
//! The cost of a kernel under profile `p` on the modeled machine is
//!
//! ```text
//! cycles = call_overhead(p)
//!        + accesses · class_mult · elem_overhead(p, vectorized?)
//!        + max( flops / flop_rate(p),  bytes / byte_rate(p, residency) )
//! ```
//!
//! where `accesses = bytes_streamed / 8` counts element-array touches and
//! `class_mult` weights the abstracted matrix-free operator application
//! (address arithmetic through the multigroup data structure, evaluated
//! per stencil leg) more heavily than flat vector kernels — see
//! [`KernelClass::overhead_mult`].  This overhead term, calibrated in
//! `EXPERIMENTS.md`, is what reproduces the paper's headline finding:
//! the full multi-physics code is *abstraction-overhead bound*, so SVE
//! helps it far less than it helps the isolated kernels of Table II.
//! The remainder is a classical roofline.  The
//! residency level comes from the *ambient working set*, not the single
//! kernel's traffic: a DAXPY inside a BiCGSTAB iteration that cycles
//! through a dozen vectors re-streams its operands from wherever that
//! whole set lives.  This distinction is precisely what the paper's
//! Table II driver (tiny, L1-resident working set → large SVE speedup)
//! versus Table I full code (multi-megabyte working set → modest SVE
//! speedup) demonstrates.

use crate::clock::{SimClock, SimDuration};
use crate::model::{self, MemLevel};
use crate::profile::{CompilerId, CompilerProfile, ALL_COMPILERS};

/// Broad classification of a kernel, used for per-routine breakdowns
/// (the paper's §II-E timing analysis) and for deciding vectorizability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelClass {
    /// Matrix-free application of the finite-difference diffusion operator.
    MatVec,
    /// Inner (dot) products, including ganged multi-dot partial sums.
    DotProd,
    /// `y ← a·x + y`.
    Daxpy,
    /// `y ← c − d·y`.
    Dscal,
    /// `w ← a·x + b·y + z`.
    Ddaxpy,
    /// Application of the sparse-approximate-inverse preconditioner.
    Precond,
    /// Non-vectorizable multi-physics work: opacity updates, coefficient
    /// assembly, flux-limiter evaluation, boundary conditions, EOS.
    Physics,
    /// Buffer packing/unpacking for halo exchange and I/O.
    Pack,
    /// Anything else.
    Other,
}

/// Number of [`KernelClass`] variants (for dense per-class arrays).
pub const N_KERNEL_CLASSES: usize = 9;

impl KernelClass {
    /// Dense index for per-class accounting arrays.
    pub fn index(self) -> usize {
        match self {
            KernelClass::MatVec => 0,
            KernelClass::DotProd => 1,
            KernelClass::Daxpy => 2,
            KernelClass::Dscal => 3,
            KernelClass::Ddaxpy => 4,
            KernelClass::Precond => 5,
            KernelClass::Physics => 6,
            KernelClass::Pack => 7,
            KernelClass::Other => 8,
        }
    }

    /// All classes, in dense-index order.
    pub fn all() -> [KernelClass; N_KERNEL_CLASSES] {
        [
            KernelClass::MatVec,
            KernelClass::DotProd,
            KernelClass::Daxpy,
            KernelClass::Dscal,
            KernelClass::Ddaxpy,
            KernelClass::Precond,
            KernelClass::Physics,
            KernelClass::Pack,
            KernelClass::Other,
        ]
    }

    /// Human-readable routine name (paper's Table II nomenclature where
    /// applicable).
    pub fn name(self) -> &'static str {
        match self {
            KernelClass::MatVec => "MATVEC",
            KernelClass::DotProd => "DPROD",
            KernelClass::Daxpy => "DAXPY",
            KernelClass::Dscal => "DSCAL",
            KernelClass::Ddaxpy => "DDAXPY",
            KernelClass::Precond => "PRECOND",
            KernelClass::Physics => "PHYSICS",
            KernelClass::Pack => "PACK",
            KernelClass::Other => "OTHER",
        }
    }

    /// Whether a compiler with working SVE codegen vectorizes this class.
    /// The multi-physics routines (table lookups, branches, transcendental
    /// flux-limiter evaluations) do not vectorize in any of the studied
    /// compilers — the root cause of the paper's headline observation.
    pub fn vectorizable(self) -> bool {
        !matches!(self, KernelClass::Physics | KernelClass::Other)
    }

    /// Per-access overhead weight.  The matrix-free operator application
    /// walks the shaped multigroup arrays with per-leg index arithmetic
    /// (V2D's abstracted operators), costing several-fold more overhead
    /// per element-access than the flat BLAS-style kernels; physics
    /// assembly sits in between.  Calibrated against the paper's §II-E
    /// routine breakdown (matvec ≈ 78 % of the serial solve, the
    /// preconditioner ≈ 8 %).
    pub fn overhead_mult(self) -> f64 {
        match self {
            KernelClass::MatVec => 8.0,
            KernelClass::Physics => 2.0,
            _ => 1.0,
        }
    }
}

/// What one kernel invocation did, as reported to the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelShape {
    /// Classification (drives vectorizability and breakdown accounting).
    pub class: KernelClass,
    /// Number of array elements processed.
    pub elems: usize,
    /// Double-precision floating-point operations performed.
    pub flops: usize,
    /// Bytes read from memory (before cache filtering).
    pub bytes_read: usize,
    /// Bytes written to memory.
    pub bytes_written: usize,
    /// Ambient working set of the enclosing solver loop, in bytes; decides
    /// the memory level operands are re-streamed from.
    pub working_set: usize,
}

impl KernelShape {
    /// Convenience constructor for a streaming kernel over `elems` f64
    /// elements with `flops_per_elem` flops, `reads` input arrays and
    /// `writes` output arrays.
    pub fn streaming(
        class: KernelClass,
        elems: usize,
        flops_per_elem: usize,
        reads: usize,
        writes: usize,
        working_set: usize,
    ) -> Self {
        KernelShape {
            class,
            elems,
            flops: elems * flops_per_elem,
            bytes_read: elems * 8 * reads,
            bytes_written: elems * 8 * writes,
            working_set,
        }
    }

    /// Total bytes streamed (reads + writes, with write-allocate counting
    /// each written line once more as a read, as on real write-back
    /// caches without streaming stores).
    pub fn bytes_streamed(&self) -> usize {
        self.bytes_read + 2 * self.bytes_written
    }
}

/// Per-class cycle and operation accounting (feeds `v2d-perf`'s
/// `class_breakdown`, the §II-E routine breakdown).
#[derive(Debug, Clone, Default)]
pub struct KernelCounters {
    /// Cycles charged per kernel class.
    pub cycles: [u64; N_KERNEL_CLASSES],
    /// Invocations per kernel class.
    pub calls: [u64; N_KERNEL_CLASSES],
    /// Flops per kernel class.
    pub flops: [u64; N_KERNEL_CLASSES],
    /// Bytes streamed per kernel class.
    pub bytes: [u64; N_KERNEL_CLASSES],
}

impl KernelCounters {
    /// Total cycles across all classes.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Merge another counter set into this one (used when aggregating
    /// ranks).
    pub fn merge(&mut self, other: &KernelCounters) {
        for i in 0..N_KERNEL_CLASSES {
            self.cycles[i] += other.cycles[i];
            self.calls[i] += other.calls[i];
            self.flops[i] += other.flops[i];
            self.bytes[i] += other.bytes[i];
        }
    }
}

/// Cost accounting for one compiler profile: a virtual clock plus
/// per-class counters.
#[derive(Debug, Clone)]
pub struct CostSink {
    /// The compiler configuration being modeled.  Fixed once the lane has
    /// charged: its MPI prices (and its [`MultiCostSink`]'s kernel prices)
    /// are memoised.
    pub profile: CompilerProfile,
    /// This rank's virtual clock under the profile.
    pub clock: SimClock,
    /// Per-class accounting.
    pub counters: KernelCounters,
    /// Cycles spent inside communication calls (latency, transfer, and
    /// wait-for-partner time), for the paper's "significant amount of time
    /// was taken by MPI calls" observation.
    pub mpi_cycles: u64,
    /// Bytes streamed per memory level ([`MemLevel::index`] order), as
    /// classified by the ambient working set at charge time.  Feeds the
    /// observability layer's bytes-moved-per-level counters.
    pub bytes_by_level: [u64; crate::model::N_MEM_LEVELS],
    /// Point-to-point messages sent through this lane.
    pub comm_msgs: u64,
    /// Payload bytes sent through this lane.
    pub comm_bytes: u64,
    /// This lane's MPI cost conversions, each computed once.
    mpi_memo: MpiMemo,
}

impl CostSink {
    /// A fresh sink for `profile` on the Ookami machine model.
    pub fn new(profile: CompilerProfile) -> Self {
        CostSink {
            profile,
            clock: SimClock::new(),
            counters: KernelCounters::default(),
            mpi_cycles: 0,
            bytes_by_level: [0; crate::model::N_MEM_LEVELS],
            comm_msgs: 0,
            comm_bytes: 0,
            mpi_memo: MpiMemo::default(),
        }
    }

    /// Cycles one invocation of `shape` costs under this profile, without
    /// charging them.
    pub fn cost_cycles(&self, shape: &KernelShape) -> u64 {
        cost_cycles(&self.profile, shape)
    }

    /// Charge one kernel invocation: advance the clock and update counters.
    pub fn charge(&mut self, shape: &KernelShape) {
        let price = self.price(shape);
        self.book(shape, price);
    }

    /// What one invocation of `shape` costs on this lane, and the memory
    /// level its bytes are booked to.
    fn price(&self, shape: &KernelShape) -> LanePrice {
        LanePrice { cycles: self.cost_cycles(shape), level: model::residency(shape.working_set) }
    }

    /// Book one invocation of `shape` at `price`: counters, bytes per
    /// level, clock.
    fn book(&mut self, shape: &KernelShape, price: LanePrice) {
        let i = shape.class.index();
        let bytes = shape.bytes_streamed() as u64;
        self.counters.cycles[i] += price.cycles;
        self.counters.calls[i] += 1;
        self.counters.flops[i] += shape.flops as u64;
        self.counters.bytes[i] += bytes;
        self.bytes_by_level[price.level.index()] += bytes;
        self.clock.advance_cycles(price.cycles);
    }

    /// Account one point-to-point send of `bytes` payload bytes.
    pub fn count_send(&mut self, bytes: usize) {
        self.comm_msgs += 1;
        self.comm_bytes += bytes as u64;
    }

    /// Simulated elapsed seconds on this rank so far.
    pub fn elapsed_secs(&self) -> f64 {
        self.clock.now().as_secs()
    }

    /// Advance the clock by a duration expressed in seconds (used by the
    /// communication substrate for MPI costs).
    pub fn advance_secs(&mut self, secs: f64) {
        self.clock.advance(SimDuration::from_secs(secs));
    }

    /// Advance the clock for a communication operation, accounting the
    /// time as MPI time.
    pub fn charge_mpi_secs(&mut self, secs: f64) {
        self.charge_mpi(SimDuration::from_secs(secs));
    }

    /// [`CostSink::charge_mpi_secs`] for a duration already in cycles.
    pub fn charge_mpi(&mut self, d: SimDuration) {
        self.mpi_cycles += d.cycles();
        self.clock.advance(d);
    }

    /// The software overhead one point-to-point send costs the sender:
    /// half the latency (the classic overhead/latency split).
    pub fn send_overhead(&mut self) -> SimDuration {
        let mpi = &self.profile.mpi;
        let fresh = || SimDuration::from_secs(0.5 * mpi.p2p_latency);
        match self.mpi_memo.send {
            Some(d) => {
                debug_assert_eq!(d, fresh(), "stale send-overhead memo");
                d
            }
            None => *self.mpi_memo.send.insert(fresh()),
        }
    }

    /// Latency plus transfer time of one `bytes`-byte message
    /// ([`crate::MpiCostModel::p2p_secs`]) in cycles.
    pub fn p2p_transfer(&mut self, bytes: usize) -> SimDuration {
        let mpi = &self.profile.mpi;
        self.mpi_memo.p2p.get_or(bytes, || SimDuration::from_secs(mpi.p2p_secs(bytes)))
    }

    /// Cost of one collective of `bytes` payload over `ranks`
    /// participants ([`crate::MpiCostModel::collective_secs`]) in cycles.
    pub fn collective_cost(&mut self, bytes: usize, ranks: usize) -> SimDuration {
        let mpi = &self.profile.mpi;
        self.mpi_memo
            .coll
            .get_or((bytes, ranks), || SimDuration::from_secs(mpi.collective_secs(bytes, ranks)))
    }

    /// Synchronize with a partner/collective: move the clock forward to
    /// `t` if later, accounting the wait as MPI time.
    pub fn wait_until_mpi(&mut self, t: SimDuration) {
        let now = self.clock.now();
        if t > now {
            self.mpi_cycles += (t - now).cycles();
            self.clock.wait_until(t);
        }
    }

    /// Simulated seconds spent in communication so far.
    pub fn mpi_secs(&self) -> f64 {
        self.mpi_cycles as f64 / model::FREQ_HZ
    }
}

/// Pure costing function: cycles for one `shape` under `profile` on the
/// modeled machine.  See the module docs for the formula.
pub fn cost_cycles(profile: &CompilerProfile, shape: &KernelShape) -> u64 {
    let vectorized = profile.vectorize && shape.class.vectorizable();

    let flop_rate = if vectorized {
        model::SVE_FLOPS_PER_CYCLE * profile.vec_efficiency
    } else {
        model::SCALAR_FLOPS_PER_CYCLE * profile.scalar_efficiency
    };
    let compute_cycles = shape.flops as f64 / flop_rate;

    let level = model::residency(shape.working_set);
    let byte_rate = model::bytes_per_cycle(level) * profile.mem_fraction(level);
    let memory_cycles = shape.bytes_streamed() as f64 / byte_rate;

    let elem_overhead =
        if vectorized { profile.elem_overhead_vec } else { profile.elem_overhead_scalar };
    let accesses = shape.bytes_streamed() as f64 / 8.0;

    let total = profile.call_overhead
        + accesses * shape.class.overhead_mult() * elem_overhead
        + compute_cycles.max(memory_cycles);
    total.ceil() as u64
}

/// Cost accounting under *all four* Table I compiler profiles at once.
///
/// The numerics of a V2D run do not depend on the compiler — only its
/// timing does — so a single native execution can charge four clocks in
/// parallel.  This is what lets the Table I harness regenerate the full
/// 12-topology × 4-compiler grid from 12 runs.
#[derive(Debug, Clone)]
pub struct MultiCostSink {
    /// One sink per Table I column, in [`ALL_COMPILERS`] order.
    pub lanes: Vec<CostSink>,
    /// Collective-call epoch: incremented once per collective this rank
    /// has entered.  The comm layer's lockstep verifier exchanges
    /// `(site, epoch)` tickets on every collective so that ranks whose
    /// control flow diverged surface a typed mismatch instead of a
    /// deadlock.  Host-side bookkeeping only — never charged to the
    /// simulated clocks.
    pub coll_epoch: u64,
    /// Every lane's price of the shapes charged recently.
    memo: PriceMemo,
}

impl MultiCostSink {
    /// Sinks for all four paper profiles.
    pub fn all_compilers() -> Self {
        Self::from_lanes(
            ALL_COMPILERS.iter().map(|&id| CostSink::new(CompilerProfile::of(id))).collect(),
        )
    }

    /// A sink set with a single profile (cheaper when only one column is
    /// needed, e.g. in tests).
    pub fn single(profile: CompilerProfile) -> Self {
        Self::from_lanes(vec![CostSink::new(profile)])
    }

    /// Sinks for an explicit profile list (one lane per profile).
    pub fn with_profiles(profiles: &[CompilerProfile]) -> Self {
        Self::from_lanes(profiles.iter().map(|p| CostSink::new(*p)).collect())
    }

    fn from_lanes(lanes: Vec<CostSink>) -> Self {
        let memo = PriceMemo::new(lanes.len());
        MultiCostSink { lanes, coll_epoch: 0, memo }
    }

    /// Charge one kernel invocation under every profile.  Each lane books
    /// exactly what [`CostSink::charge`] would; the prices come from the
    /// memo.
    pub fn charge(&mut self, shape: &KernelShape) {
        let prices = self.memo.prices(&self.lanes, shape);
        for (lane, &price) in self.lanes.iter_mut().zip(prices) {
            lane.book(shape, price);
        }
    }

    /// The sink for a given compiler, if present.
    pub fn lane(&self, id: CompilerId) -> Option<&CostSink> {
        self.lanes.iter().find(|l| l.profile.id == id)
    }

    /// Simulated elapsed seconds per lane, in lane order.
    pub fn elapsed_secs(&self) -> Vec<f64> {
        self.lanes.iter().map(|l| l.elapsed_secs()).collect()
    }
}

/// One lane's price of one kernel shape: [`cost_cycles`] and the
/// residency level of its working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LanePrice {
    cycles: u64,
    level: MemLevel,
}

/// Slots in a [`PriceMemo`] (a power of two).  A rank's step repeats 8–12
/// distinct kernel shapes, so a warm step prices nothing.
const PRICE_SLOTS: usize = 16;

/// Every lane's price of up to [`PRICE_SLOTS`] distinct shapes a
/// [`MultiCostSink`] charged.  A price is a pure function of the lane's
/// profile and of the shape, so a hit returns exactly what
/// pricing afresh would; builds with debug assertions re-price every hit
/// and compare.
///
/// Open addressing with linear probing: a shape is looked for from its
/// home slot up to the first empty slot.  Slots are never emptied, only
/// re-keyed (when the table is full, a miss takes over its home slot),
/// so no probe chain is ever cut.  A probe compares a one-word tag of the
/// shape's hash before the shape itself.
#[derive(Debug, Clone)]
struct PriceMemo {
    /// Per slot: the key's hash with its low bit set, or 0 when empty.
    tags: [u64; PRICE_SLOTS],
    keys: [KernelShape; PRICE_SLOTS],
    /// `PRICE_SLOTS` rows of one price per lane.
    prices: Vec<LanePrice>,
}

impl PriceMemo {
    fn new(lanes: usize) -> Self {
        let empty = LanePrice { cycles: 0, level: MemLevel::L1 };
        let unused = KernelShape::streaming(KernelClass::Other, 0, 0, 0, 0, 0);
        PriceMemo {
            tags: [0; PRICE_SLOTS],
            keys: [unused; PRICE_SLOTS],
            prices: vec![empty; PRICE_SLOTS * lanes],
        }
    }

    /// A nonzero tag for `shape`: independent products of its fields, so
    /// the multiplies overlap.
    fn tag(shape: &KernelShape) -> u64 {
        let h = (shape.elems as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (shape.flops as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            ^ (shape.bytes_read as u64).wrapping_mul(0x1656_67b1_9e37_79f9)
            ^ (shape.bytes_written as u64).wrapping_mul(0x27d4_eb2f_1656_67c5)
            ^ (shape.working_set as u64).wrapping_mul(0x94d0_49bb_1331_11eb)
            ^ (shape.class.index() as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h | 1
    }

    /// Every lane's price of `shape`, in lane order.
    fn prices(&mut self, lanes: &[CostSink], shape: &KernelShape) -> &[LanePrice] {
        let width = lanes.len();
        if self.prices.len() != PRICE_SLOTS * width {
            // Lanes were added or removed since the memo was sized.
            *self = PriceMemo::new(width);
        }
        let tag = Self::tag(shape);
        let home = (tag >> 60) as usize % PRICE_SLOTS;
        let mut slot = home;
        let hit = loop {
            match self.tags[slot] {
                0 => break false,
                t if t == tag && self.keys[slot] == *shape => break true,
                _ => {
                    slot = (slot + 1) % PRICE_SLOTS;
                    if slot == home {
                        break false; // full: the miss takes over its home slot
                    }
                }
            }
        };
        let row = &mut self.prices[slot * width..(slot + 1) * width];
        if hit {
            if cfg!(debug_assertions) {
                for (price, lane) in row.iter().zip(lanes) {
                    assert_eq!(*price, lane.price(shape), "stale kernel price memo");
                }
            }
        } else {
            self.tags[slot] = tag;
            self.keys[slot] = *shape;
            for (price, lane) in row.iter_mut().zip(lanes) {
                *price = lane.price(shape);
            }
        }
        row
    }
}

/// Entries per [`DurationMemo`].  A rank sends a handful of halo sizes
/// and reduces a handful of gang widths.
const DURATION_SLOTS: usize = 8;

/// The last [`DURATION_SLOTS`] distinct `key → duration` conversions,
/// replaced round-robin.
#[derive(Debug, Clone)]
struct DurationMemo<K> {
    entries: [(K, SimDuration); DURATION_SLOTS],
    len: usize,
    next: usize,
}

impl<K: Copy + Default + PartialEq + std::fmt::Debug> Default for DurationMemo<K> {
    fn default() -> Self {
        DurationMemo {
            entries: [(K::default(), SimDuration::ZERO); DURATION_SLOTS],
            len: 0,
            next: 0,
        }
    }
}

impl<K: Copy + PartialEq + std::fmt::Debug> DurationMemo<K> {
    /// The duration for `key`, converted by `convert` on a miss.  As with
    /// [`PriceMemo`], debug builds re-convert every hit and compare.
    fn get_or(&mut self, key: K, convert: impl Fn() -> SimDuration) -> SimDuration {
        if let Some(&(_, d)) = self.entries[..self.len].iter().find(|(k, _)| *k == key) {
            debug_assert_eq!(d, convert(), "stale MPI cost memo at {key:?}");
            return d;
        }
        let d = convert();
        if self.len < DURATION_SLOTS {
            self.entries[self.len] = (key, d);
            self.len += 1;
        } else {
            self.entries[self.next] = (key, d);
            self.next = (self.next + 1) % DURATION_SLOTS;
        }
        d
    }
}

/// One lane's MPI cost conversions (seconds of the profile's
/// [`crate::MpiCostModel`] to cycles), each computed once.
#[derive(Debug, Clone, Default)]
struct MpiMemo {
    send: Option<SimDuration>,
    /// Keyed by payload bytes.
    p2p: DurationMemo<usize>,
    /// Keyed by `(payload bytes, ranks)`.
    coll: DurationMemo<(usize, usize)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1_shape(class: KernelClass) -> KernelShape {
        KernelShape::streaming(class, 1000, 2, 2, 1, 24 * 1000)
    }

    fn hbm_shape(class: KernelClass) -> KernelShape {
        KernelShape::streaming(class, 1_000_000, 2, 2, 1, 10 * 8 * 1_000_000)
    }

    #[test]
    fn full_code_sve_gain_is_modest() {
        // The calibrated full-application model is *abstraction-overhead
        // bound*: the SVE build (cray-opt) beats the no-SVE build
        // (cray-noopt) everywhere, but only by the modest Table I margin
        // (≈1.45×), not the 3–6× the isolated kernels achieve — that
        // large cache-resident speedup is demonstrated by the
        // instruction-level simulator in `v2d-sve`, not this roofline.
        let opt = CompilerProfile::cray_opt();
        let noopt = CompilerProfile::cray_noopt();
        for shape in [l1_shape(KernelClass::Daxpy), hbm_shape(KernelClass::MatVec)] {
            let r = cost_cycles(&opt, &shape) as f64 / cost_cycles(&noopt, &shape) as f64;
            assert!(r < 1.0, "SVE build must win: ratio {r}");
            assert!(r > 0.5, "full-code SVE gain should be modest, got ratio {r}");
        }
    }

    #[test]
    fn physics_class_never_vectorizes() {
        let opt = CompilerProfile::cray_opt();
        let shape = l1_shape(KernelClass::Physics);
        // Same shape classed as vectorizable must be cheaper under an
        // SVE-enabled profile.
        let vec_shape = l1_shape(KernelClass::Daxpy);
        assert!(cost_cycles(&opt, &vec_shape) < cost_cycles(&opt, &shape));
    }

    #[test]
    fn cost_is_at_least_call_overhead() {
        let p = CompilerProfile::fujitsu();
        let empty = KernelShape::streaming(KernelClass::Other, 0, 0, 0, 0, 0);
        // flops = 0 → compute term 0; elems = 0 → overhead term 0.
        assert!(cost_cycles(&p, &empty) >= p.call_overhead as u64);
    }

    #[test]
    fn charge_accumulates_clock_and_counters() {
        let mut sink = CostSink::new(CompilerProfile::cray_opt());
        let shape = l1_shape(KernelClass::MatVec);
        sink.charge(&shape);
        sink.charge(&shape);
        let i = KernelClass::MatVec.index();
        assert_eq!(sink.counters.calls[i], 2);
        assert_eq!(sink.counters.flops[i], 2 * shape.flops as u64);
        assert_eq!(sink.clock.now().cycles(), sink.counters.cycles[i]);
        assert!(sink.elapsed_secs() > 0.0);
    }

    #[test]
    fn multi_sink_charges_all_lanes() {
        let mut multi = MultiCostSink::all_compilers();
        multi.charge(&hbm_shape(KernelClass::MatVec));
        let secs = multi.elapsed_secs();
        assert_eq!(secs.len(), 4);
        assert!(secs.iter().all(|&s| s > 0.0));
        // Serial ordering of Table I: GNU slowest, Cray-opt fastest.
        let gnu = multi.lane(CompilerId::Gnu).unwrap().elapsed_secs();
        let cray = multi.lane(CompilerId::CrayOpt).unwrap().elapsed_secs();
        let noopt = multi.lane(CompilerId::CrayNoOpt).unwrap().elapsed_secs();
        assert!(gnu > cray);
        assert!(noopt > cray);
    }

    #[test]
    fn bytes_streamed_counts_write_allocate() {
        let s = KernelShape::streaming(KernelClass::Daxpy, 10, 2, 2, 1, 0);
        assert_eq!(s.bytes_read, 160);
        assert_eq!(s.bytes_written, 80);
        assert_eq!(s.bytes_streamed(), 160 + 2 * 80);
    }

    #[test]
    fn counters_merge() {
        let mut a = KernelCounters::default();
        let mut b = KernelCounters::default();
        a.cycles[0] = 5;
        a.calls[0] = 1;
        b.cycles[0] = 7;
        b.calls[0] = 2;
        b.flops[3] = 11;
        a.merge(&b);
        assert_eq!(a.cycles[0], 12);
        assert_eq!(a.calls[0], 3);
        assert_eq!(a.flops[3], 11);
        assert_eq!(a.total_cycles(), 12);
    }

    #[test]
    fn class_indices_are_dense_and_unique() {
        let mut seen = [false; N_KERNEL_CLASSES];
        for c in KernelClass::all() {
            assert!(!seen[c.index()], "duplicate index for {:?}", c);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
