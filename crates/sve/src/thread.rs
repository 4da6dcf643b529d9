//! Threaded-code execution of a [`DecodedProgram`]: the production
//! engine, and the only thing [`Executor::run_decoded`] does.
//!
//! Each dispatch group — a basic block of the program, see
//! [`crate::fuse`] — is lowered once, at decode time, into one pre-bound
//! closure over its parts: per non-branch op a packed timing-operand
//! struct ([`Cost`]) and a semantic closure ([`Micro`]), plus the group's
//! pre-resolved control-flow slots.  Execution is then a tight
//! indirect-call loop:
//!
//! ```text
//! while slot < code.len() { slot = code[slot](&mut frame) }
//! ```
//!
//! with no per-op `match`, no per-op operand decoding, and (a kernel loop
//! body being one basic block) one group dispatch per *iteration* instead
//! of one per instruction.
//!
//! **Bit-identity** with the reference interpreter ([`Executor::run`])
//! is by construction, not by approximation:
//!
//! * [`charge`] replays the timing block of [`Executor::run`]'s step
//!   loop — same arithmetic, same order — per part (the pipe-reservation
//!   rings and the cumulative-bytes bandwidth limiter are serial
//!   recurrences with no closed form);
//! * semantic closures are lane-exact replicas of [`step_instr`]'s match
//!   arms, with full-predicate fast paths whose values are equal
//!   bit-for-bit (streaming loads/stores do the same
//!   `from_le_bytes`/`to_le_bytes` per lane; reductions accumulate in the
//!   same order); any opcode without its own closure falls back to
//!   `step_instr` itself.

use crate::decode::{DecodedOp, DecodedProgram, RingSlots, NO_REG};
use crate::exec::{step_instr, ExecStats, Executor};
use crate::fuse::Group;
use crate::isa::Instr;
use crate::mem::SimMem;
use crate::reg::RegFile;
use crate::sched::{Affine, SchedModel};

const FETCH_WIDTH: u64 = SchedModel::A64FX.fetch_width;

/// The mutable state of one threaded-code execution: architectural state
/// (registers, memory) plus the full timing-model state, in one struct so
/// pre-bound closures need a single argument.
pub(crate) struct Frame<'a> {
    pub regs: &'a mut RegFile,
    pub mem: &'a mut SimMem,
    /// Per-flat-register result-ready times (112 used), one slot per `u8`
    /// so indexing by a flat register needs no bounds check.
    pub ready: [u64; 256],
    /// Incrementally maintained active-lane counts per predicate register
    /// (16 used); the slot at [`NO_REG`] stays 0, so an unpredicated op
    /// reads an active count of 0 without a branch.
    pub p_active: [u64; 256],
    /// Per-unit pipe reservation rings.
    pub units: [RingSlots; 5],
    /// Executions per dispatch group: every per-op statistic that does
    /// not depend on dynamic state is folded from these after the run.
    pub hits: Vec<u64>,
    /// In-order fetch frontier `fetched / FETCH_WIDTH`, maintained
    /// incrementally (with `fetch_rem = fetched % FETCH_WIDTH`) so the
    /// hot path never divides.
    pub fetch_frontier: u64,
    pub fetch_rem: u64,
    pub last_complete: u64,
    pub mem_rate: f64,
    /// `log2(mem_rate)` when the rate is an exact power of two (the L1
    /// and L2 configs).  `cum as f64 / 2^k` is exact for `cum < 2^53`
    /// (the cast is exact and dividing by a power of two only shifts
    /// the exponent), so truncating equals `cum >> k` bit-for-bit —
    /// this replaces a serial f64-divide chain on the load/store path
    /// with an integer shift.  Cumulative bytes stay far below 2^53:
    /// the dynamic-instruction cap bounds them near 2^40.
    pub mem_shift: Option<u32>,
    pub mem_bytes_cum: u64,
    pub instrs: u64,
    pub max_instrs: u64,
    /// Dynamic-instruction count at which the rings are next pruned.
    pub next_prune: u64,
    /// Flops of the active-lane terms (the fixed ones are folded).
    pub flops: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

/// Packed timing operands of one micro-op: the [`DecodedOp`] fields
/// [`charge`] needs, copied into a flat `Copy` struct so pre-bound
/// closures carry their operands inline instead of chasing the program.
/// The flop and byte coefficients are the op's cost row
/// ([`SchedModel::props`]), the same row the interpreter evaluates.
#[derive(Clone, Copy)]
pub(crate) struct Cost {
    srcs: [u8; 5],
    n_srcs: u8,
    dst: u8,
    pg: u8,
    unit: u8,
    latency: u64,
    occupancy: u64,
    /// The active-lane terms of the flop count (its fixed part is folded
    /// per group): `flops = a·active + m1·max(active−1, 0)`.
    flops_a: u64,
    flops_m1: u64,
    /// The byte count: `bytes = c + a·active`.
    bytes_c: u64,
    bytes_a: u64,
    is_load: bool,
}

impl Cost {
    fn of(op: &DecodedOp) -> Self {
        let Affine { fixed: bytes_c, per_active: bytes_a, per_active_after_first: 0 } = op.bytes
        else {
            unreachable!("`charge` has no after-first byte term, and no cost row has one")
        };
        Cost {
            srcs: op.srcs,
            n_srcs: op.n_srcs,
            dst: op.dst,
            pg: op.pg,
            unit: op.unit,
            latency: op.latency,
            occupancy: op.occupancy,
            flops_a: op.flops.per_active,
            flops_m1: op.flops.per_active_after_first,
            bytes_c,
            bytes_a,
            is_load: op.is_load,
        }
    }
}

/// Charge one micro-op's timing: a replica of the timing block of
/// [`Executor::run`]'s step loop producing bit-identical values by
/// construction — the same cost row, the same arithmetic in the same
/// order, with only result-preserving strength reductions (the fetch
/// frontier is maintained incrementally instead of divided out per op,
/// the row's coefficients are copied into [`Cost`] at decode, and
/// power-of-two bandwidth divisions became shifts).  Fetch frontier,
/// source readiness, the bandwidth limiter and the pipe reservation form
/// a serial recurrence, so every part of a group is charged in program
/// order.
/// Only what depends on dynamic state is charged here; the statistics a
/// group adds identically on every run (instruction count, mix, unit
/// busyness, load/store counts, fixed flops) are folded per group
/// from [`Frame::hits`] after the run, and the instruction-cap check and
/// the ring prune move to the group level ([`check_cap`]).
#[inline(always)]
fn charge(f: &mut Frame<'_>, c: &Cost) {
    let mut rdy = f.fetch_frontier;
    f.fetch_rem += 1;
    if f.fetch_rem == FETCH_WIDTH {
        f.fetch_frontier += 1;
        f.fetch_rem = 0;
    }
    for &s in &c.srcs[..c.n_srcs as usize] {
        rdy = rdy.max(f.ready[s as usize]);
    }
    let active = f.p_active[c.pg as usize];
    let mem_bytes = c.bytes_c + c.bytes_a * active;
    if mem_bytes > 0 {
        let bw_ready = match f.mem_shift {
            Some(k) => f.mem_bytes_cum >> k,
            None => (f.mem_bytes_cum as f64 / f.mem_rate) as u64,
        };
        rdy = rdy.max(bw_ready);
        f.mem_bytes_cum += mem_bytes;
        if c.is_load {
            f.bytes_read += mem_bytes;
        } else {
            f.bytes_written += mem_bytes;
        }
    }
    let unit = &mut f.units[c.unit as usize];
    let start = if c.occupancy == 1 { unit.reserve1(rdy) } else { unit.reserve(rdy, c.occupancy) };
    let complete = start + c.latency;
    if c.dst != NO_REG {
        f.ready[c.dst as usize] = complete;
    }
    f.last_complete = f.last_complete.max(complete);
    f.flops += c.flops_a * active + c.flops_m1 * active.saturating_sub(1);
}

/// How many dynamic instructions pass between ring prunes.
const PRUNE_EVERY: u64 = 4096;

/// Group entry: count the group's execution, check the dynamic-
/// instruction cap, and prune the pipe rings every [`PRUNE_EVERY`]
/// instructions — once per dispatch instead of once per micro-op.  Panics
/// on the same runaway programs as the interpreter's per-op check: a
/// program's dynamic count only grows, and its final value is the
/// interpreter's; only the panic's position within the offending group
/// differs.  Prune timing is semantically transparent: its floor, the
/// in-order fetch frontier at group entry, never exceeds any later
/// reservation's ready time, so forgotten slots can never be probed
/// again, which the threaded-vs-interpreter property suite confirms.
#[inline(always)]
fn check_cap(f: &mut Frame<'_>, gi: usize, group_len: u64) {
    f.hits[gi] += 1;
    f.instrs += group_len;
    assert!(f.instrs <= f.max_instrs, "dynamic instruction cap exceeded — runaway loop?");
    if f.instrs >= f.next_prune {
        f.next_prune += PRUNE_EVERY;
        let floor = f.fetch_frontier;
        for u in &mut f.units {
            u.prune(floor);
        }
    }
}

/// A pre-bound dispatch closure: executes one group (a basic block) and
/// returns the next dispatch slot.  `Send + Sync` because every
/// closure captures only plain decoded-op data (indices, lane counts,
/// immediates), so a [`DecodedProgram`] is an ordinary immutable value.
pub(crate) type OpFn = Box<dyn Fn(&mut Frame) -> usize + Send + Sync>;

/// A pre-bound semantic closure for one non-branch micro-op.
type Micro = Box<dyn Fn(&mut Frame) + Send + Sync>;

/// Hardware-FMA lane loops, runtime-dispatched.  `f64::mul_add` *is*
/// the fused multiply-add with a single rounding; the x86 `vfmadd`
/// family implements exactly that operation, so the hardware path is
/// bit-identical to the portable one — it only avoids the software-fma
/// libm call per lane that the portable x86-64 baseline (no `fma`
/// target feature) otherwise emits.
#[cfg(target_arch = "x86_64")]
mod fma_accel {
    #[target_feature(enable = "fma")]
    pub unsafe fn fmla(d: &mut [f64], n: &[f64], m: &[f64]) {
        for (di, (ni, mi)) in d.iter_mut().zip(n.iter().zip(m)) {
            *di = ni.mul_add(*mi, *di);
        }
    }

    #[target_feature(enable = "fma")]
    pub unsafe fn fmla_sq(d: &mut [f64], n: &[f64]) {
        for (di, ni) in d.iter_mut().zip(n) {
            *di = ni.mul_add(*ni, *di);
        }
    }
}

/// Whether the hardware-FMA lane loops are usable on this machine.
fn fma_ok() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[inline(always)]
fn lanes_fmla(hw: bool, d: &mut [f64], n: &[f64], m: &[f64]) {
    let _ = hw;
    #[cfg(target_arch = "x86_64")]
    if hw {
        // SAFETY: `hw` is set only by runtime FMA detection.
        unsafe { fma_accel::fmla(d, n, m) };
        return;
    }
    for (di, (ni, mi)) in d.iter_mut().zip(n.iter().zip(m)) {
        *di = ni.mul_add(*mi, *di);
    }
}

#[inline(always)]
fn lanes_fmla_sq(hw: bool, d: &mut [f64], n: &[f64]) {
    let _ = hw;
    #[cfg(target_arch = "x86_64")]
    if hw {
        // SAFETY: `hw` is set only by runtime FMA detection.
        unsafe { fma_accel::fmla_sq(d, n) };
        return;
    }
    for (di, ni) in d.iter_mut().zip(n) {
        *di = ni.mul_add(*ni, *di);
    }
}

/// Lower one non-branch op's architectural semantics to a pre-bound
/// closure.  The hot opcodes get their own bodies (lane-exact replicas
/// of [`step_instr`], plus full-predicate fast paths); everything else
/// falls back to `step_instr` itself, so semantics can never diverge.
fn micro_of(op: &DecodedOp, lanes: usize) -> Micro {
    use Instr::*;
    let full = lanes as u64;
    match op.instr {
        WhileltD { d, n, m } => {
            let (d, n, m) = (d.0 as usize, n.0 as usize, m.0 as usize);
            Box::new(move |f| {
                let base = f.regs.x[n];
                let lim = f.regs.x[m];
                let mut k = 0u64;
                for (i, lane) in f.regs.p[d].iter_mut().enumerate() {
                    *lane = base + (i as u64) < lim;
                    k += *lane as u64;
                }
                f.p_active[d] = k;
            })
        }
        PtrueD { d } => {
            let d = d.0 as usize;
            Box::new(move |f| {
                f.regs.p[d].fill(true);
                f.p_active[d] = full;
            })
        }
        Ld1d { t, pg, base, index } => {
            let (t, pg, base, index) =
                (t.0 as usize, pg.0 as usize, base.0 as usize, index.0 as usize);
            Box::new(move |f| {
                let b = f.regs.x[base] as usize + 8 * f.regs.x[index] as usize;
                if f.p_active[pg] == full {
                    f.mem.load_f64_stream(b, &mut f.regs.z[t]);
                } else {
                    for i in 0..lanes {
                        f.regs.z[t][i] =
                            if f.regs.p[pg][i] { f.mem.load_f64(b + 8 * i) } else { 0.0 };
                    }
                }
            })
        }
        St1d { t, pg, base, index } => {
            let (t, pg, base, index) =
                (t.0 as usize, pg.0 as usize, base.0 as usize, index.0 as usize);
            Box::new(move |f| {
                let b = f.regs.x[base] as usize + 8 * f.regs.x[index] as usize;
                if f.p_active[pg] == full {
                    f.mem.store_f64_stream(b, &f.regs.z[t]);
                } else {
                    for i in 0..lanes {
                        if f.regs.p[pg][i] {
                            f.mem.store_f64(b + 8 * i, f.regs.z[t][i]);
                        }
                    }
                }
            })
        }
        FMlaZ { da, pg, n, m } => {
            let (da, pg, n, m) = (da.0 as usize, pg.0 as usize, n.0 as usize, m.0 as usize);
            let hw = fma_ok();
            Box::new(move |f| {
                if f.p_active[pg] == full {
                    // `get_disjoint_mut` fails exactly when `da` aliases a source.
                    if n == m {
                        if let Ok([d_, n_]) = f.regs.z.get_disjoint_mut([da, n]) {
                            lanes_fmla_sq(hw, &mut d_[..lanes], &n_[..lanes]);
                            return;
                        }
                    } else if let Ok([d_, n_, m_]) = f.regs.z.get_disjoint_mut([da, n, m]) {
                        lanes_fmla(hw, &mut d_[..lanes], &n_[..lanes], &m_[..lanes]);
                        return;
                    }
                }
                for i in 0..lanes {
                    if f.regs.p[pg][i] {
                        f.regs.z[da][i] = f.regs.z[n][i].mul_add(f.regs.z[m][i], f.regs.z[da][i]);
                    }
                }
            })
        }
        FMulZ { d, pg, n, m } => {
            let (d, pg, n, m) = (d.0 as usize, pg.0 as usize, n.0 as usize, m.0 as usize);
            Box::new(move |f| {
                if f.p_active[pg] == full {
                    if let Ok([d_, n_, m_]) = f.regs.z.get_disjoint_mut([d, n, m]) {
                        for i in 0..lanes {
                            d_[i] = n_[i] * m_[i];
                        }
                        return;
                    }
                }
                for i in 0..lanes {
                    f.regs.z[d][i] =
                        if f.regs.p[pg][i] { f.regs.z[n][i] * f.regs.z[m][i] } else { 0.0 };
                }
            })
        }
        FAddZ { d, pg, n, m } => {
            let (d, pg, n, m) = (d.0 as usize, pg.0 as usize, n.0 as usize, m.0 as usize);
            Box::new(move |f| {
                if f.p_active[pg] == full {
                    if let Ok([d_, n_, m_]) = f.regs.z.get_disjoint_mut([d, n, m]) {
                        for i in 0..lanes {
                            d_[i] = n_[i] + m_[i];
                        }
                        return;
                    }
                }
                for i in 0..lanes {
                    f.regs.z[d][i] =
                        if f.regs.p[pg][i] { f.regs.z[n][i] + f.regs.z[m][i] } else { 0.0 };
                }
            })
        }
        MovZ { d, n } => {
            let (d, n) = (d.0 as usize, n.0 as usize);
            Box::new(move |f| {
                if let Ok([d_, n_]) = f.regs.z.get_disjoint_mut([d, n]) {
                    d_.copy_from_slice(n_);
                }
            })
        }
        FaddvD { d, pg, n } => {
            let (d, pg, n) = (d.0 as usize, pg.0 as usize, n.0 as usize);
            Box::new(move |f| {
                // Strictly ordered low→high, exactly as the interpreter.
                let mut acc = 0.0f64;
                if f.p_active[pg] == full {
                    for &v in f.regs.z[n].iter() {
                        acc += v;
                    }
                } else {
                    for i in 0..lanes {
                        if f.regs.p[pg][i] {
                            acc += f.regs.z[n][i];
                        }
                    }
                }
                f.regs.d[d] = acc;
            })
        }
        IncdX { d } => {
            let d = d.0 as usize;
            Box::new(move |f| f.regs.x[d] += full)
        }
        AddXI { d, n, imm } => {
            let (d, n) = (d.0 as usize, n.0 as usize);
            Box::new(move |f| f.regs.x[d] = (f.regs.x[n] as i64 + imm) as u64)
        }
        LdrDScaled { d, base, index } => {
            let (d, base, index) = (d.0 as usize, base.0 as usize, index.0 as usize);
            Box::new(move |f| {
                let addr = f.regs.x[base] as usize + 8 * f.regs.x[index] as usize;
                f.regs.d[d] = f.mem.load_f64(addr);
            })
        }
        StrDScaled { s, base, index } => {
            let (s, base, index) = (s.0 as usize, base.0 as usize, index.0 as usize);
            Box::new(move |f| {
                let addr = f.regs.x[base] as usize + 8 * f.regs.x[index] as usize;
                f.mem.store_f64(addr, f.regs.d[s]);
            })
        }
        FMaddD { d, n, m, a } => {
            let (d, n, m, a) = (d.0 as usize, n.0 as usize, m.0 as usize, a.0 as usize);
            Box::new(move |f| f.regs.d[d] = f.regs.d[n].mul_add(f.regs.d[m], f.regs.d[a]))
        }
        FMulD { d, n, m } => {
            let (d, n, m) = (d.0 as usize, n.0 as usize, m.0 as usize);
            Box::new(move |f| f.regs.d[d] = f.regs.d[n] * f.regs.d[m])
        }
        B { .. } | BLtX { .. } | BGeX { .. } => {
            unreachable!("branches are lowered at the group level, never as micros")
        }
        _ => {
            // Fallback: the interpreter's own step function, so an opcode
            // without its own closure cannot diverge semantically.
            let instr = op.instr;
            let dst = op.dst;
            Box::new(move |f| {
                let _ = step_instr(&instr, 0, f.regs, f.mem);
                if dst != NO_REG && dst >= 96 {
                    let pr = (dst - 96) as usize;
                    f.p_active[pr] = f.regs.active_lanes(pr) as u64;
                }
            })
        }
    }
}

/// Lower the dispatch groups to the flat dispatch-closure array.
/// Dispatch slots are group indices; branch targets are pre-resolved
/// through the instruction-index → group-slot map (every branch target
/// starts a basic block, or is the program end).
pub(crate) fn lower(ops: &[DecodedOp], groups: &[Group], lanes: usize) -> Vec<OpFn> {
    let n_groups = groups.len();
    let mut slot_map = vec![usize::MAX; ops.len() + 1];
    for (gi, g) in groups.iter().enumerate() {
        slot_map[g.start] = gi;
    }
    slot_map[ops.len()] = n_groups;
    let slot_of = |target: usize| -> usize {
        // A branch past the end simply terminates, like the interpreter's
        // `while pc < len` loop.
        let s = slot_map.get(target).copied().unwrap_or(n_groups);
        assert_ne!(s, usize::MAX, "branch into a basic-block interior");
        s
    };

    let mut code: Vec<OpFn> = Vec::with_capacity(n_groups);
    for (gi, g) in groups.iter().enumerate() {
        let fall = gi + 1;
        let group_ops = &ops[g.start..g.start + g.len];
        let group_len = g.len as u64;
        // A branch ends its group; it is taken when
        // `(x[n] < x[m]) == lt`, and an unconditional one is `x0 ≥ x0`.
        let branch = match group_ops[g.len - 1].instr {
            Instr::B { target } => Some((0, 0, false, target)),
            Instr::BLtX { n, m, target } => Some((n.0 as usize, m.0 as usize, true, target)),
            Instr::BGeX { n, m, target } => Some((n.0 as usize, m.0 as usize, false, target)),
            _ => None,
        };
        let body_ops = &group_ops[..g.len - branch.is_some() as usize];
        if let (None, [op]) = (branch, body_ops) {
            // Single plain op: no inner loop, one charge + one micro.
            let (c, mi) = (Cost::of(op), micro_of(op, lanes));
            code.push(Box::new(move |f: &mut Frame| {
                check_cap(f, gi, 1);
                charge(f, &c);
                mi(f);
                fall
            }));
            continue;
        }
        let body: Vec<(Cost, Micro)> =
            body_ops.iter().map(|op| (Cost::of(op), micro_of(op, lanes))).collect();
        let Some((n, m, lt, target)) = branch else {
            code.push(Box::new(move |f: &mut Frame| {
                check_cap(f, gi, group_len);
                for (c, mi) in &body {
                    charge(f, c);
                    mi(f);
                }
                fall
            }));
            continue;
        };
        let (bcost, taken) = (Cost::of(&group_ops[g.len - 1]), slot_of(target));
        code.push(Box::new(move |f: &mut Frame| {
            check_cap(f, gi, group_len);
            for (c, mi) in &body {
                charge(f, c);
                mi(f);
            }
            charge(f, &bcost);
            if (f.regs.x[n] < f.regs.x[m]) == lt {
                taken
            } else {
                fall
            }
        }));
    }
    code
}

impl Executor {
    /// Execute a pre-decoded program to completion, mutating `regs` and
    /// `mem`, and return timing statistics bit-identical to
    /// [`Executor::run`] on the source program.
    ///
    /// # Panics
    /// If the register file's vector length disagrees with the config, if
    /// `dp` was decoded for a different configuration, if the dynamic
    /// instruction cap is exceeded, or on a memory fault.
    pub fn run_decoded(
        &self,
        dp: &DecodedProgram,
        regs: &mut RegFile,
        mem: &mut SimMem,
    ) -> ExecStats {
        let cfg = self.config();
        assert_eq!(regs.vl_bits(), cfg.vl_bits, "register file VL does not match executor config");
        assert!(dp.matches(cfg), "decoded program was lowered for a different configuration");
        let sched = &SchedModel::A64FX;
        let p_active: [u64; 256] =
            std::array::from_fn(|i| if i < 16 { regs.active_lanes(i) as u64 } else { 0 });
        let mut frame = Frame {
            regs,
            mem,
            ready: [0u64; 256],
            p_active,
            units: std::array::from_fn(|i| RingSlots::new(sched.pipes[i])),
            hits: vec![0u64; dp.groups.len()],
            fetch_frontier: 0,
            fetch_rem: 0,
            last_complete: 0,
            mem_rate: sched.total_mem_rate(cfg.level),
            mem_shift: {
                let r = sched.total_mem_rate(cfg.level);
                (r > 0.0 && r.fract() == 0.0 && (r as u64).is_power_of_two())
                    .then(|| (r as u64).trailing_zeros())
            },
            mem_bytes_cum: 0,
            instrs: 0,
            max_instrs: cfg.max_instrs,
            next_prune: PRUNE_EVERY,
            flops: 0,
            bytes_read: 0,
            bytes_written: 0,
        };

        let code = &dp.threaded;
        let mut slot = 0usize;
        while slot < code.len() {
            slot = code[slot](&mut frame);
        }

        let mut stats = ExecStats {
            cycles: frame.last_complete.max(frame.fetch_frontier + (frame.fetch_rem > 0) as u64),
            instrs: frame.instrs,
            flops: frame.flops,
            bytes_read: frame.bytes_read,
            bytes_written: frame.bytes_written,
            ..ExecStats::default()
        };
        // Fold the per-group constants: `hits × per-op statistic`.
        let mut mix = vec![0u64; dp.mnemonics.len()];
        let mut fused_dyn = 0;
        for (g, &h) in dp.groups.iter().zip(&frame.hits) {
            for op in &dp.ops[g.start..g.start + g.len] {
                mix[op.mix_slot as usize] += h;
                stats.unit_busy[op.unit as usize] += h * op.occupancy;
                stats.flops += h * op.flops.fixed;
                if op.is_load {
                    stats.loads += h;
                } else if op.is_store {
                    stats.stores += h;
                }
            }
            if g.len > 1 {
                fused_dyn += h * g.len as u64;
            }
        }
        for (&name, &count) in dp.mnemonics.iter().zip(&mix) {
            if count > 0 {
                stats.mix.add(name, count);
            }
        }
        crate::fuse::note_run(fused_dyn, frame.instrs);
        stats
    }
}
