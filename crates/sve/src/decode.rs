//! Pre-decoding: the one-time lowering behind the production engine.
//!
//! [`Executor::run`](crate::exec::Executor::run) re-derives everything
//! about an instruction — its dependency slots, its pipeline properties,
//! its mnemonic — from the `Instr` enum on every *dynamic* execution, so
//! a kernel loop pays the full decode cost once per iteration.
//! [`DecodedProgram`] lowers a
//! program once into a dense micro-op array with pre-resolved flat
//! register indices, the governing-predicate slot, the instruction's cost
//! row from [`SchedModel::props`] (unit class, latency, occupancy, and
//! the flop and byte counts that are affine in the active-lane count),
//! and a per-program mnemonic table; partitions it into basic
//! blocks, its dispatch groups ([`crate::fuse`]); and pre-binds the
//! threaded-code dispatch array (`thread.rs`) that
//! [`Executor::run_decoded`](crate::exec::Executor::run_decoded) executes.
//!
//! **Modeled results are bit-identical to the interpreter** by
//! construction, on three grounds:
//!
//! 1. both engines read one cost row per instruction: the interpreter
//!    evaluates [`SchedModel::props`] per dynamic instruction, the decoder
//!    copies the same row once, and both evaluate its flops and bytes at
//!    the active-lane count of the predicate source that `deps_of` lists;
//! 2. architectural semantics are lane-exact replicas of, or direct
//!    calls to, the `step_instr` the interpreter uses;
//! 3. the issue arithmetic (in-order fetch frontier, dependency maxima,
//!    the cumulative-bytes bandwidth limiter, backfilling pipe
//!    reservation, completion bookkeeping) is evaluated in the same order
//!    with the same integer/float operations, and the statistics that do
//!    not depend on dynamic state are summed per dispatch group (exact
//!    integer sums, so the order does not matter).  The pipe tracker here
//!    is a dense ring buffer with a cursor and a full-slot bitmap instead
//!    of a `BTreeMap`, but both implement the identical "earliest start ≥
//!    ready with `occ` consecutive under-capacity cycles" reservation over
//!    the same occupancy counts.
//!
//! The equivalence is enforced end-to-end by `tests/prop_decode.rs`,
//! which asserts register files, memory images, and full
//! [`ExecStats`](crate::exec::ExecStats) (cycles, mix, unit busyness, bytes) match the interpreter on every
//! kernel and on randomized programs.

use crate::exec::{deps_of, ExecConfig, RegId};
use crate::fuse::Group;
use crate::isa::Instr;
use crate::sched::{Affine, SchedModel};
use crate::thread::OpFn;
use std::sync::atomic::{AtomicU64, Ordering};
use v2d_machine::MemLevel;

/// Process-wide count of [`DecodedProgram::decode`] calls, for tests
/// asserting that warm cache hits do zero decode work.
static DECODE_COUNT: AtomicU64 = AtomicU64::new(0);

/// How many programs have been decoded process-wide.
pub fn decode_count() -> u64 {
    DECODE_COUNT.load(Ordering::Relaxed)
}

/// Sentinel for "no register" in the flat operand encoding.
pub(crate) const NO_REG: u8 = 0xFF;

/// Flatten a register id into the single ready-time array:
/// `x0..x31 → 0..32`, `d0..d31 → 32..64`, `z0..z31 → 64..96`,
/// `p0..p15 → 96..112`.
fn flat(r: RegId) -> u8 {
    match r {
        RegId::X(i) => i,
        RegId::D(i) => 32 + i,
        RegId::Z(i) => 64 + i,
        RegId::P(i) => 96 + i,
    }
}

/// One pre-decoded micro-op: the original instruction (for semantics)
/// plus everything the timing charge needs, resolved to flat indices and
/// plain integers.
#[derive(Debug, Clone)]
pub(crate) struct DecodedOp {
    pub(crate) instr: Instr,
    /// Flat source-register indices (first `n_srcs` entries valid).
    pub(crate) srcs: [u8; 5],
    pub(crate) n_srcs: u8,
    /// Flat destination register, or [`NO_REG`].
    pub(crate) dst: u8,
    /// Governing predicate register (0–15), or [`NO_REG`] if unpredicated.
    pub(crate) pg: u8,
    /// Dense unit-class index into the per-unit pipe trackers.
    pub(crate) unit: u8,
    /// Slot into the program's mnemonic table.
    pub(crate) mix_slot: u16,
    pub(crate) latency: u64,
    /// Pipe occupancy, pre-clamped to ≥ 1.
    pub(crate) occupancy: u64,
    /// The cost row's flops and bytes, evaluated at the active-lane
    /// count of `pg` (0 if unpredicated) when the op executes.
    pub(crate) flops: Affine,
    pub(crate) bytes: Affine,
    pub(crate) is_load: bool,
    pub(crate) is_store: bool,
}

/// A program lowered once for a fixed (vector length, residency level)
/// configuration.  Branch targets need no translation:
/// they are already dense indices into the instruction array, and the
/// decoded array is index-aligned with it.  The program carries its
/// dispatch groups and the pre-bound threaded-code dispatch array (see
/// [`crate::fuse`] and [`crate::thread`]).
pub struct DecodedProgram {
    pub(crate) ops: Vec<DecodedOp>,
    /// Distinct mnemonics of this program, indexed by `DecodedOp::mix_slot`.
    pub(crate) mnemonics: Vec<&'static str>,
    vl_bits: u32,
    level: MemLevel,
    /// Dispatch groups: the program's basic blocks.
    pub(crate) groups: Vec<Group>,
    /// Pre-bound dispatch closures, one per dispatch group.
    pub(crate) threaded: Vec<OpFn>,
}

impl std::fmt::Debug for DecodedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodedProgram")
            .field("ops", &self.ops.len())
            .field("vl_bits", &self.vl_bits)
            .field("level", &self.level)
            .field("groups", &self.groups.len())
            .finish_non_exhaustive()
    }
}

impl DecodedProgram {
    /// Lower `prog` for the configuration `cfg`.
    pub fn decode(prog: &[Instr], cfg: &ExecConfig) -> Self {
        DECODE_COUNT.fetch_add(1, Ordering::Relaxed);
        let lanes = (cfg.vl_bits / 64) as u64;
        let sched = &SchedModel::A64FX;
        let mut mnemonics: Vec<&'static str> = Vec::new();
        let mut ops = Vec::with_capacity(prog.len());
        for instr in prog {
            let deps = deps_of(instr);
            let mut srcs = [NO_REG; 5];
            let mut n_srcs = 0u8;
            for s in deps.src.iter().flatten() {
                srcs[n_srcs as usize] = flat(*s);
                n_srcs += 1;
            }
            let dst = deps.dst.map_or(NO_REG, flat);
            let props = sched.props(instr, lanes, cfg.level);
            let name = crate::disasm::mnemonic(instr);
            let mix_slot = match mnemonics.iter().position(|&m| m == name) {
                Some(i) => i,
                None => {
                    mnemonics.push(name);
                    mnemonics.len() - 1
                }
            } as u16;
            ops.push(DecodedOp {
                instr: *instr,
                srcs,
                n_srcs,
                dst,
                pg: deps.pred().unwrap_or(NO_REG),
                unit: SchedModel::unit_index(props.unit) as u8,
                mix_slot,
                latency: props.latency,
                occupancy: props.occupancy.max(1),
                flops: props.flops,
                bytes: props.bytes,
                is_load: instr.is_load(),
                is_store: instr.is_store(),
            });
        }
        let groups = crate::fuse::plan(prog);
        let threaded = crate::thread::lower(&ops, &groups, lanes as usize);
        DecodedProgram { ops, mnemonics, vl_bits: cfg.vl_bits, level: cfg.level, groups, threaded }
    }

    /// Number of (static) instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for the empty program.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The vector length this program was decoded for.
    pub fn vl_bits(&self) -> u32 {
        self.vl_bits
    }

    /// The residency level this program was decoded for.
    pub fn level(&self) -> MemLevel {
        self.level
    }

    /// Whether this program may run under `cfg` (identical VL and
    /// residency level).
    pub fn matches(&self, cfg: &ExecConfig) -> bool {
        self.vl_bits == cfg.vl_bits && self.level == cfg.level
    }

    /// The original instruction sequence, one per decoded op.
    pub fn instrs(&self) -> Vec<Instr> {
        self.ops.iter().map(|op| op.instr).collect()
    }

    /// Number of multi-op dispatch groups (basic blocks of two or more
    /// ops).
    pub fn chain_count(&self) -> usize {
        self.groups.iter().filter(|g| g.len > 1).count()
    }
}

/// Per-unit issue-slot tracker over a dense ring of occupancy counts.
///
/// Semantically identical to the interpreter's `BTreeMap` tracker: find
/// the earliest start ≥ `ready` with `occ` consecutive cycles holding
/// fewer than `pipes` reservations, consume them; cycles outside the
/// tracked window are free; cycles before the pruned floor can never be
/// requested again (`ready` is bounded below by the monotone in-order
/// fetch frontier the prune floor is taken from).
///
/// In-order fetch keeps most reservations clustered in a saturated band
/// just ahead of the fetch frontier, so a plain scan would re-walk that
/// band on every reservation.  Two structures make the walk O(1): the
/// `free` cursor, which answers every probe that starts inside the
/// band, and the `full` bitmap, which skips 64 full cycles per word
/// for probes that start past it.
#[derive(Debug)]
pub(crate) struct RingSlots {
    pipes: u8,
    /// Cycle corresponding to `buf[0]`.
    origin: u64,
    /// Index of the pruned floor: cycles before `origin + head` are
    /// forgotten.
    head: usize,
    /// The first non-full index at or after `head`: every slot in
    /// `head..free` is full.  Counts never decrease, so it only moves
    /// forward — when its own slot fills, or when a prune moves `head`
    /// past it.
    free: usize,
    /// Occupancy counts; the length is always a multiple of 64.
    buf: Vec<u8>,
    /// One bit per slot of `buf`, set iff the slot holds `pipes`
    /// reservations.
    full: Vec<u64>,
}

impl RingSlots {
    pub(crate) fn new(pipes: usize) -> Self {
        RingSlots {
            pipes: pipes as u8,
            origin: 0,
            head: 0,
            free: 0,
            buf: Vec::new(),
            full: Vec::new(),
        }
    }

    /// First index `≥ i` (with `i ≥ head`) whose slot is below `pipes`;
    /// indices past the tracked window are free.
    #[inline]
    fn next_free(&self, i: usize) -> usize {
        if i <= self.free {
            return self.free;
        }
        let mut w = i / 64;
        let mut open = !0u64 << (i % 64);
        while let Some(&word) = self.full.get(w) {
            open &= !word;
            if open != 0 {
                return w * 64 + open.trailing_zeros() as usize;
            }
            w += 1;
            open = !0;
        }
        i.max(w * 64)
    }

    /// Mark slot `i` full, moving the cursor off it.
    #[inline(always)]
    fn fill(&mut self, i: usize) {
        self.full[i / 64] |= 1 << (i % 64);
        if i == self.free {
            self.free = self.next_free(i + 1);
        }
    }

    /// Single-cycle reservation — the overwhelmingly common case (every
    /// op except predicate generation and gathers), kept small enough to
    /// inline into the charge loop: the probe starts at the cursor when
    /// `ready` falls inside the saturated band, so an in-bounds non-full
    /// slot is one load and one store.  Everything else defers to
    /// [`RingSlots::reserve`], which handles the identical occ = 1 search.
    #[inline(always)]
    pub(crate) fn reserve1(&mut self, ready: u64) -> u64 {
        debug_assert!(ready >= self.origin + self.head as u64, "reservation below the floor");
        let i = ((ready - self.origin) as usize).max(self.free);
        if let Some(b) = self.buf.get_mut(i).filter(|b| **b < self.pipes) {
            *b += 1;
            if *b == self.pipes {
                self.fill(i);
            }
            return self.origin + i as u64;
        }
        self.reserve(ready, 1)
    }

    #[inline]
    pub(crate) fn reserve(&mut self, ready: u64, occ: u64) -> u64 {
        debug_assert!(ready >= self.origin + self.head as u64, "reservation below the floor");
        debug_assert!(occ >= 1);
        let occ = occ as usize;
        let mut start = self.next_free((ready - self.origin) as usize);
        // `start` itself is non-full; a multi-cycle occupancy needs the
        // rest of its window non-full too.
        while let Some(k) =
            (1..occ).find(|k| self.buf.get(start + k).is_some_and(|&b| b >= self.pipes))
        {
            start = self.next_free(start + k + 1);
        }
        let end = start + occ;
        if end > self.buf.len() {
            // Grow geometrically: trailing zeros mean "no reservations
            // yet", so a longer buffer is observationally identical, and
            // a per-reservation `resize` call is hot-path cost.
            let new_len = end.next_power_of_two().max(64);
            self.buf.resize(new_len, 0);
            self.full.resize(new_len / 64, 0);
        }
        for i in start..end {
            self.buf[i] += 1;
            if self.buf[i] == self.pipes {
                self.fill(i);
            }
        }
        self.origin + start as u64
    }

    /// Forget cycles before `floor`; amortized O(1) per forgotten cycle.
    pub(crate) fn prune(&mut self, floor: u64) {
        let Some(adv) = floor.checked_sub(self.origin + self.head as u64) else { return };
        if self.head + adv as usize >= self.buf.len() {
            self.buf.clear();
            self.full.clear();
            (self.origin, self.head, self.free) = (floor, 0, 0);
            return;
        }
        self.head += adv as usize;
        if self.free < self.head {
            self.free = self.next_free(self.head);
        }
        if self.head >= self.buf.len() / 2 {
            // Cut at a word boundary so the bitmap drains whole words.
            let cut = self.head & !63;
            self.buf.drain(..cut);
            self.full.drain(..cut / 64);
            self.origin += cut as u64;
            self.head -= cut;
            self.free -= cut;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::mem::SimMem;
    use crate::reg::RegFile;

    #[test]
    fn ring_slots_match_backfilling_semantics() {
        let mut s = RingSlots::new(2);
        // Two reservations fit at the same cycle, the third spills.
        assert_eq!(s.reserve(5, 1), 5);
        assert_eq!(s.reserve(5, 1), 5);
        assert_eq!(s.reserve(5, 1), 6);
        // Backfill: an earlier-ready op slips in before cycle 6's load.
        assert_eq!(s.reserve(3, 1), 3);
        // Multi-cycle occupancy needs a contiguous under-capacity run:
        // cycle 5 is at capacity, so a 3-cycle op ready at 4 slips to 6.
        assert_eq!(s.reserve(4, 3), 6);
    }

    #[test]
    fn ring_slots_prune_is_transparent() {
        let mut s = RingSlots::new(1);
        for c in 0..100 {
            assert_eq!(s.reserve(c, 1), c);
        }
        s.prune(90);
        assert_eq!(s.reserve(90, 1), 100);
        s.prune(200);
        assert_eq!(s.reserve(200, 2), 200);
    }

    /// The ring's own invariants: the bitmap mirrors the counts, every
    /// slot in `head..free` is full, and `free` itself is not.
    fn assert_ring_invariants(s: &RingSlots) {
        assert_eq!(s.buf.len() % 64, 0);
        assert_eq!(s.full.len() * 64, s.buf.len());
        for (i, &b) in s.buf.iter().enumerate() {
            assert_eq!(s.full[i / 64] >> (i % 64) & 1 == 1, b == s.pipes, "bitmap at {i}");
        }
        assert!(s.head <= s.free);
        assert!(s.buf[s.head.min(s.buf.len())..s.free].iter().all(|&b| b == s.pipes));
        assert!(s.buf.get(s.free).is_none_or(|&b| b < s.pipes), "cursor on a full slot");
    }

    #[test]
    fn ring_slots_match_the_reference_tracker() {
        use crate::exec::UnitSlots;
        // xorshift64: a fixed seed, so a failure replays exactly.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for case in 0..32 {
            let pipes = 1 + next(3) as usize;
            let (mut ring, mut reference) = (RingSlots::new(pipes), UnitSlots::new(pipes));
            // A monotone floor, like the fetch frontier: most requests
            // land on it (long runs saturate it and grow a full band),
            // some a little ahead, a few far ahead to grow the ring.
            let mut floor = 0u64;
            for step in 0..3000 {
                if next(4) == 0 {
                    floor += next(4);
                }
                if next(256) == 0 {
                    floor += next(400); // past the band, into a fresh stretch
                }
                let ready = match next(16) {
                    0..=10 => floor,
                    11..=14 => floor + next(12),
                    _ => floor + next(300),
                };
                let occ = if next(8) == 0 { 1 + next(4) } else { 1 };
                let got = if occ == 1 { ring.reserve1(ready) } else { ring.reserve(ready, occ) };
                let want = reference.reserve(ready, occ);
                assert_eq!(
                    got, want,
                    "case {case} step {step}: pipes={pipes} ready={ready} occ={occ}"
                );
                if next(40) == 0 {
                    ring.prune(floor);
                    reference.prune(floor);
                    assert_ring_invariants(&ring);
                }
            }
        }
    }

    #[test]
    fn decode_resolves_kernel_programs() {
        let cfg = ExecConfig::a64fx_l1();
        for prog in [crate::kernels::sve_code::matvec(), crate::kernels::scalar::dprod()] {
            let dp = DecodedProgram::decode(&prog, &cfg);
            assert_eq!(dp.len(), prog.len());
            assert!(dp.matches(&cfg));
            assert!(!dp.matches(&cfg.clone().with_vl(1024)));
        }
    }

    #[test]
    fn decoded_kernel_matches_interpreter_exactly() {
        use crate::asm::Asm;
        use crate::isa::{Instr, D, P, X, Z};
        // A loop mixing predicated loads, FMA, reduction, and stores.
        let mut a = Asm::new();
        let top = a.new_label();
        a.push(Instr::MovXI { d: X(3), imm: 0 });
        a.push(Instr::DupZI { d: Z(0), imm: 0.0 });
        a.bind(top);
        a.push(Instr::WhileltD { d: P(0), n: X(3), m: X(2) });
        a.push(Instr::Ld1d { t: Z(1), pg: P(0), base: X(0), index: X(3) });
        a.push(Instr::FMlaZ { da: Z(0), pg: P(0), n: Z(1), m: Z(1) });
        a.push(Instr::St1d { t: Z(1), pg: P(0), base: X(1), index: X(3) });
        a.push(Instr::IncdX { d: X(3) });
        a.blt(X(3), X(2), top);
        a.push(Instr::PtrueD { d: P(1) });
        a.push(Instr::FaddvD { d: D(0), pg: P(1), n: Z(0) });
        let prog = a.finish();

        for vl in [128u32, 512, 2048] {
            for level in [MemLevel::L1, MemLevel::Hbm] {
                let cfg = ExecConfig::a64fx_l1().with_vl(vl).with_level(level);
                let setup = || {
                    let mut mem = SimMem::new(4096);
                    let src = mem.alloc_f64(&(0..37).map(|i| i as f64 * 0.5).collect::<Vec<_>>());
                    let dst = mem.alloc_f64_zeroed(37);
                    let mut regs = RegFile::new(vl);
                    regs.x[0] = src as u64;
                    regs.x[1] = dst as u64;
                    regs.x[2] = 37;
                    (mem, regs)
                };
                let exec = Executor::new(cfg.clone());
                let (mut m1, mut r1) = setup();
                let s1 = exec.run(&prog, &mut r1, &mut m1);
                let dp = DecodedProgram::decode(&prog, &cfg);
                let (mut m2, mut r2) = setup();
                let s2 = exec.run_decoded(&dp, &mut r2, &mut m2);
                assert_eq!(s1, s2, "stats diverge at vl={vl} level={level:?}");
                assert_eq!(r1, r2, "registers diverge at vl={vl} level={level:?}");
                assert_eq!(m1, m2, "memory diverges at vl={vl} level={level:?}");
            }
        }
    }
}
