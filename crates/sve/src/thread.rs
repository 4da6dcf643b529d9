//! Threaded-code execution of a [`DecodedProgram`]: the production
//! engine, and the only thing [`Executor::run_decoded`] does.
//!
//! Each dispatch group of the fusion plan — a superop chain or a single
//! plain op — is lowered once, at decode time, into a pre-bound closure
//! over packed operand structs ([`Cost`]) and pre-resolved control-flow
//! slots.  Execution is then a tight indirect-call loop:
//!
//! ```text
//! while slot < code.len() { slot = code[slot](&mut frame) }
//! ```
//!
//! with no per-op `match`, no per-op operand decoding, and (for a fully
//! fused kernel loop) one indirect call per *iteration* instead of one
//! per instruction.
//!
//! **Bit-identity** with the reference interpreter ([`Executor::run`])
//! is by construction, not by approximation:
//!
//! * [`charge`] replays the timing block of [`Executor::run`]'s step
//!   loop — same arithmetic, same order — per fused part (the
//!   pipe-reservation rings and the cumulative-bytes bandwidth limiter
//!   are serial recurrences with no closed form);
//! * specialized semantic closures are lane-exact replicas of
//!   [`step_instr`]'s match arms, with full-predicate fast paths whose
//!   values are equal bit-for-bit (streaming loads/stores do the same
//!   `from_le_bytes`/`to_le_bytes` per lane; reductions accumulate in the
//!   same order); any opcode without a specialization falls back to
//!   `step_instr` itself.

use crate::decode::{DecodedOp, DecodedProgram, FlopRule, MemRule, RingSlots, FLAT_REGS, NO_REG};
use crate::exec::{step_instr, ExecStats, Executor, OpcodeMix};
use crate::fuse::FusionPlan;
use crate::isa::Instr;
use crate::mem::SimMem;
use crate::reg::RegFile;

/// The mutable state of one threaded-code execution: architectural state
/// (registers, memory) plus the full timing-model state, in one struct so
/// pre-bound closures need a single argument.
pub(crate) struct Frame<'a> {
    pub regs: &'a mut RegFile,
    pub mem: &'a mut SimMem,
    /// Per-flat-register result-ready times.
    pub ready: [u64; FLAT_REGS],
    /// Incrementally maintained active-lane counts per predicate register.
    pub p_active: [u64; 16],
    /// Per-unit pipe reservation rings.
    pub units: [RingSlots; 5],
    /// Dynamic count per program mnemonic slot.
    pub mix: Vec<u64>,
    /// In-order fetch frontier `fetched / fetch_width`, maintained
    /// incrementally (with `fetch_rem = fetched % fetch_width`) so the
    /// hot path never divides.
    pub fetch_frontier: u64,
    pub fetch_rem: u64,
    pub last_complete: u64,
    pub fetch_width: u64,
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
    pub flops: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub loads: u64,
    pub stores: u64,
    pub unit_busy: [u64; 5],
    /// Dynamic instructions executed inside fused chains (for `sve.fuse.*`).
    pub fused_dyn: u64,
}

/// Packed timing operands of one micro-op: the [`DecodedOp`] fields
/// [`charge`] needs, copied into a flat `Copy` struct so pre-bound
/// closures carry their operands inline instead of chasing the program.
#[derive(Clone, Copy)]
pub(crate) struct Cost {
    srcs: [u8; 5],
    n_srcs: u8,
    dst: u8,
    pg: u8,
    unit: u8,
    mix_slot: u16,
    latency: u64,
    occupancy: u64,
    /// [`FlopRule`] lowered to closed form:
    /// `flops = c + a·active + m1·max(active−1, 0)`.
    flops_c: u64,
    flops_a: u64,
    flops_m1: u64,
    /// [`MemRule`] lowered to closed form: `bytes = c + a·active`.
    bytes_c: u64,
    bytes_a: u64,
    is_load: bool,
    is_store: bool,
}

impl Cost {
    fn of(op: &DecodedOp) -> Self {
        let (flops_c, flops_a, flops_m1) = match op.flops {
            FlopRule::Const(k) => (k, 0, 0),
            FlopRule::PerActive(k) => (0, k, 0),
            FlopRule::ActiveMinus1 => (0, 0, 1),
        };
        let (bytes_c, bytes_a) = match op.mem {
            MemRule::None => (0, 0),
            MemRule::Const(b) => (b, 0),
            MemRule::PerActive8 => (0, 8),
        };
        Cost {
            srcs: op.srcs,
            n_srcs: op.n_srcs,
            dst: op.dst,
            pg: op.pg,
            unit: op.unit,
            mix_slot: op.mix_slot,
            latency: op.latency,
            occupancy: op.occupancy,
            flops_c,
            flops_a,
            flops_m1,
            bytes_c,
            bytes_a,
            is_load: op.is_load,
            is_store: op.is_store,
        }
    }
}

/// The order-sensitive core of one micro-op's timing charge: fetch
/// frontier, source readiness, the bandwidth limiter, the pipe
/// reservation, and the destination-ready update.  These form a serial
/// recurrence (each op's start depends on the previous op's ring and
/// cumulative-bytes state), so they must run per op in program order —
/// a replica of the timing block of [`Executor::run`]'s step loop
/// producing bit-identical values by construction: same arithmetic in
/// the same order, with only result-preserving strength reductions (the
/// fetch frontier is maintained incrementally instead of divided out
/// per op, the cost rules were lowered to closed-form coefficients at
/// decode, and power-of-two bandwidth divisions became shifts).
///
/// Everything order-*free* — the instruction count, prune cadence, and
/// the statistics accumulators — lives in [`charge`] (per-op form) or
/// [`chain_head`]/[`ChainTail`] (batched per-chain form).
#[inline(always)]
fn charge_serial(f: &mut Frame<'_>, c: &Cost) {
    let mut rdy = f.fetch_frontier;
    f.fetch_rem += 1;
    if f.fetch_rem == f.fetch_width {
        f.fetch_frontier += 1;
        f.fetch_rem = 0;
    }
    for &s in &c.srcs[..c.n_srcs as usize] {
        rdy = rdy.max(f.ready[s as usize]);
    }
    if c.bytes_c != 0 || c.bytes_a != 0 {
        let active = if c.pg == NO_REG { 0 } else { f.p_active[c.pg as usize] };
        let mem_bytes = c.bytes_c + c.bytes_a * active;
        if mem_bytes > 0 {
            let bw_ready = match f.mem_shift {
                Some(k) => f.mem_bytes_cum >> k,
                None => (f.mem_bytes_cum as f64 / f.mem_rate) as u64,
            };
            rdy = rdy.max(bw_ready);
            f.mem_bytes_cum += mem_bytes;
        }
    }
    let unit = &mut f.units[c.unit as usize];
    let start = if c.occupancy == 1 { unit.reserve1(rdy) } else { unit.reserve(rdy, c.occupancy) };
    let complete = start + c.latency;
    if c.dst != NO_REG {
        f.ready[c.dst as usize] = complete;
    }
    f.last_complete = f.last_complete.max(complete);
}

/// Charge one micro-op's timing and statistics — the per-op form used
/// by generic (non-specialized) dispatch closures.  The instruction-cap
/// check moves to the group level ([`check_cap`]).
///
/// The prune runs before the serial core here rather than after the
/// reservation as in the interpreter; prune timing is semantically
/// transparent (its floor — the in-order fetch frontier — never exceeds
/// any later reservation's ready time, so forgotten slots can never be
/// probed again), which the fused-vs-interpreter property suite confirms.
#[inline(always)]
fn charge(f: &mut Frame<'_>, c: &Cost) {
    f.instrs += 1;
    if f.instrs.is_multiple_of(4096) {
        let floor = f.fetch_frontier;
        for u in &mut f.units {
            u.prune(floor);
        }
    }
    charge_serial(f, c);
    let active = if c.pg == NO_REG { 0 } else { f.p_active[c.pg as usize] };
    let mem_bytes = c.bytes_c + c.bytes_a * active;
    f.mix[c.mix_slot as usize] += 1;
    f.unit_busy[c.unit as usize] += c.occupancy;
    f.flops += c.flops_c + c.flops_a * active + c.flops_m1 * active.saturating_sub(1);
    if c.is_load {
        f.loads += 1;
        f.bytes_read += mem_bytes;
    } else if c.is_store {
        f.stores += 1;
        f.bytes_written += mem_bytes;
    }
}

/// Per-chain head bookkeeping: one cap check, one batched instruction
/// count, one prune-cadence check (a chain is far shorter than the
/// prune period, so at most one boundary is crossed per chain; the
/// boundary test is `instrs % period < len` post-increment).  Pruning
/// at the chain head instead of mid-chain uses a floor at most as large
/// as the interpreter's — transparent for the same reason as in
/// [`charge`].
#[inline(always)]
fn chain_head(f: &mut Frame<'_>, len: u64) {
    check_cap(f, len);
    f.instrs += len;
    if f.instrs % 4096 < len {
        let floor = f.fetch_frontier;
        for u in &mut f.units {
            u.prune(floor);
        }
    }
}

/// Order-free statistics of a whole chain, folded to closed form at
/// lowering time: one application per chain instead of one accumulator
/// round-trip per op.
///
/// Active-lane-dependent terms (per-active flops and bytes) fold only
/// when every dependent part reads one common governing predicate that
/// no part at or after it writes — then the predicate's active count at
/// chain *end* equals the value each charge would have read, and the
/// whole chain's statistics collapse to `c + a·active` coefficient
/// sums.  [`ChainTail::fold`] returns `None` otherwise and the chain
/// takes the generic per-op path.  (In practice the only predicate
/// writer in any fusable pattern is a *leading* `whilelt`, whose own
/// cost has no active-dependent terms.)
struct ChainTail {
    /// Common governing predicate of the active-dependent terms
    /// (`NO_REG` when there are none).
    pg: u8,
    /// Dynamic-mix increments: (mnemonic slot, count).
    mix: Vec<(u16, u64)>,
    /// Per-unit busy-cycle increments.
    unit_busy: [u64; 5],
    flops_c: u64,
    flops_a: u64,
    flops_m1: u64,
    loads: u64,
    stores: u64,
    read_c: u64,
    read_a: u64,
    write_c: u64,
    write_a: u64,
}

impl ChainTail {
    fn fold(costs: &[Cost]) -> Option<ChainTail> {
        let mut t = ChainTail {
            pg: NO_REG,
            mix: Vec::new(),
            unit_busy: [0; 5],
            flops_c: 0,
            flops_a: 0,
            flops_m1: 0,
            loads: 0,
            stores: 0,
            read_c: 0,
            read_a: 0,
            write_c: 0,
            write_a: 0,
        };
        for (i, c) in costs.iter().enumerate() {
            let dep = c.pg != NO_REG && (c.flops_a != 0 || c.flops_m1 != 0 || c.bytes_a != 0);
            if dep {
                // The tail reads the predicate after every part ran; that
                // matches charge order only if no part from this one on
                // (micros run *after* their charge) rewrites it.
                let rewritten =
                    costs[i..].iter().any(|w| w.dst != NO_REG && w.dst >= 96 && w.dst - 96 == c.pg);
                if rewritten || (t.pg != NO_REG && t.pg != c.pg) {
                    return None;
                }
                t.pg = c.pg;
            }
            // With `pg == NO_REG` the charge used `active = 0`: constant
            // terms apply, active-scaled terms vanish.
            let (fa, fm1, ba) =
                if c.pg == NO_REG { (0, 0, 0) } else { (c.flops_a, c.flops_m1, c.bytes_a) };
            match t.mix.iter_mut().find(|(s, _)| *s == c.mix_slot) {
                Some((_, k)) => *k += 1,
                None => t.mix.push((c.mix_slot, 1)),
            }
            t.unit_busy[c.unit as usize] += c.occupancy;
            t.flops_c += c.flops_c;
            t.flops_a += fa;
            t.flops_m1 += fm1;
            if c.is_load {
                t.loads += 1;
                t.read_c += c.bytes_c;
                t.read_a += ba;
            } else if c.is_store {
                t.stores += 1;
                t.write_c += c.bytes_c;
                t.write_a += ba;
            }
        }
        Some(t)
    }

    #[inline(always)]
    fn apply(&self, f: &mut Frame<'_>) {
        let active = if self.pg == NO_REG { 0 } else { f.p_active[self.pg as usize] };
        for &(slot, k) in &self.mix {
            f.mix[slot as usize] += k;
        }
        for u in 0..5 {
            f.unit_busy[u] += self.unit_busy[u];
        }
        f.flops += self.flops_c + self.flops_a * active + self.flops_m1 * active.saturating_sub(1);
        f.loads += self.loads;
        f.stores += self.stores;
        f.bytes_read += self.read_c + self.read_a * active;
        f.bytes_written += self.write_c + self.write_a * active;
    }
}

/// Group-level dynamic-instruction cap: one check per dispatch instead
/// of one per micro-op.  Panics on the same runaway programs as the
/// per-op check (a group is at most a few ops, the cap is millions);
/// only the panic's position within the offending group differs.
#[inline(always)]
fn check_cap(f: &Frame<'_>, group_len: u64) {
    assert!(
        f.instrs + group_len <= f.max_instrs,
        "dynamic instruction cap exceeded — runaway loop?"
    );
}

/// A pre-bound dispatch closure: executes one group (fused chain or plain
/// op) and returns the next dispatch slot.  `Send + Sync` because every
/// closure captures only plain decoded-op data (indices, lane counts,
/// immediates) — which is what lets a [`DecodedProgram`] live in the
/// process-shared tier of the program cache and be replayed from any
/// worker thread.
pub(crate) type OpFn = Box<dyn Fn(&mut Frame) -> usize + Send + Sync>;

/// A pre-bound semantic closure for one non-branch micro-op.
type Micro = Box<dyn Fn(&mut Frame) + Send + Sync>;

/// Typed (unboxed) semantic closures for the hot opcodes — lane-exact
/// replicas of [`step_instr`]'s match arms with full-predicate fast
/// paths.  Returning `impl Fn` keeps each closure a distinct concrete
/// type, so a specialized chain body ([`spec_chain`]) that composes them
/// monomorphizes into one straight-line function with everything
/// inlined; [`micro_of`] boxes the same closures for the generic path,
/// so both paths share one definition of each op's semantics.
fn m_whilelt(op: &DecodedOp) -> impl Fn(&mut Frame) + 'static {
    let Instr::WhileltD { d, n, m } = op.instr else { unreachable!("whilelt part") };
    let (d, n, m) = (d.0 as usize, n.0 as usize, m.0 as usize);
    move |f: &mut Frame| {
        let base = f.regs.x[n];
        let lim = f.regs.x[m];
        let mut k = 0u64;
        for (i, lane) in f.regs.p[d].iter_mut().enumerate() {
            *lane = base + (i as u64) < lim;
            k += *lane as u64;
        }
        f.p_active[d] = k;
    }
}

fn m_ld1d(op: &DecodedOp, lanes: usize) -> impl Fn(&mut Frame) + 'static {
    let Instr::Ld1d { t, pg, base, index } = op.instr else { unreachable!("ld1d part") };
    let (t, pg, base, index) = (t.0 as usize, pg.0 as usize, base.0 as usize, index.0 as usize);
    let full = lanes as u64;
    move |f: &mut Frame| {
        let b = f.regs.x[base] as usize + 8 * f.regs.x[index] as usize;
        if f.p_active[pg] == full {
            f.mem.load_f64_stream(b, &mut f.regs.z[t]);
        } else {
            for i in 0..lanes {
                f.regs.z[t][i] = if f.regs.p[pg][i] { f.mem.load_f64(b + 8 * i) } else { 0.0 };
            }
        }
    }
}

fn m_st1d(op: &DecodedOp, lanes: usize) -> impl Fn(&mut Frame) + 'static {
    let Instr::St1d { t, pg, base, index } = op.instr else { unreachable!("st1d part") };
    let (t, pg, base, index) = (t.0 as usize, pg.0 as usize, base.0 as usize, index.0 as usize);
    let full = lanes as u64;
    move |f: &mut Frame| {
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
    }
}

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

fn m_fmla(op: &DecodedOp, lanes: usize) -> impl Fn(&mut Frame) + 'static {
    let Instr::FMlaZ { da, pg, n, m } = op.instr else { unreachable!("fmla part") };
    let (da, pg, n, m) = (da.0 as usize, pg.0 as usize, n.0 as usize, m.0 as usize);
    let full = lanes as u64;
    let hw = fma_ok();
    move |f: &mut Frame| {
        if f.p_active[pg] == full && da != n && da != m {
            if n == m {
                let [d_, n_] = f.regs.z.get_disjoint_mut([da, n]).expect("distinct regs");
                lanes_fmla_sq(hw, &mut d_[..lanes], &n_[..lanes]);
            } else {
                let [d_, n_, m_] = f.regs.z.get_disjoint_mut([da, n, m]).expect("distinct regs");
                lanes_fmla(hw, &mut d_[..lanes], &n_[..lanes], &m_[..lanes]);
            }
            return;
        }
        for i in 0..lanes {
            if f.regs.p[pg][i] {
                f.regs.z[da][i] = f.regs.z[n][i].mul_add(f.regs.z[m][i], f.regs.z[da][i]);
            }
        }
    }
}

fn m_fmulz(op: &DecodedOp, lanes: usize) -> impl Fn(&mut Frame) + 'static {
    let Instr::FMulZ { d, pg, n, m } = op.instr else { unreachable!("fmul.z part") };
    let (d, pg, n, m) = (d.0 as usize, pg.0 as usize, n.0 as usize, m.0 as usize);
    let full = lanes as u64;
    move |f: &mut Frame| {
        if f.p_active[pg] == full && d != n && d != m && n != m {
            let [d_, n_, m_] = f.regs.z.get_disjoint_mut([d, n, m]).expect("distinct regs");
            for i in 0..lanes {
                d_[i] = n_[i] * m_[i];
            }
            return;
        }
        for i in 0..lanes {
            f.regs.z[d][i] = if f.regs.p[pg][i] { f.regs.z[n][i] * f.regs.z[m][i] } else { 0.0 };
        }
    }
}

fn m_movz(op: &DecodedOp) -> impl Fn(&mut Frame) + 'static {
    let Instr::MovZ { d, n } = op.instr else { unreachable!("mov.z part") };
    let (d, n) = (d.0 as usize, n.0 as usize);
    move |f: &mut Frame| {
        if d != n {
            let [d_, n_] = f.regs.z.get_disjoint_mut([d, n]).expect("distinct regs");
            d_.copy_from_slice(n_);
        }
    }
}

fn m_incd(op: &DecodedOp, lanes: usize) -> impl Fn(&mut Frame) + 'static {
    let Instr::IncdX { d } = op.instr else { unreachable!("incd part") };
    let d = d.0 as usize;
    let full = lanes as u64;
    move |f: &mut Frame| f.regs.x[d] += full
}

/// Lower one non-branch op's architectural semantics to a pre-bound
/// closure.  The hot opcodes get specialized bodies (lane-exact replicas
/// of [`step_instr`], plus full-predicate fast paths); everything else
/// falls back to `step_instr` itself, so semantics can never diverge.
fn micro_of(op: &DecodedOp, lanes: usize) -> Micro {
    use Instr::*;
    let full = lanes as u64;
    match op.instr {
        WhileltD { .. } => Box::new(m_whilelt(op)),
        PtrueD { d } => {
            let d = d.0 as usize;
            Box::new(move |f| {
                f.regs.p[d].fill(true);
                f.p_active[d] = full;
            })
        }
        Ld1d { .. } => Box::new(m_ld1d(op, lanes)),
        St1d { .. } => Box::new(m_st1d(op, lanes)),
        FMlaZ { .. } => Box::new(m_fmla(op, lanes)),
        FMulZ { .. } => Box::new(m_fmulz(op, lanes)),
        FAddZ { d, pg, n, m } => {
            let (d, pg, n, m) = (d.0 as usize, pg.0 as usize, n.0 as usize, m.0 as usize);
            Box::new(move |f| {
                if f.p_active[pg] == full && d != n && d != m && n != m {
                    let [d_, n_, m_] = f.regs.z.get_disjoint_mut([d, n, m]).expect("distinct regs");
                    for i in 0..lanes {
                        d_[i] = n_[i] + m_[i];
                    }
                    return;
                }
                for i in 0..lanes {
                    f.regs.z[d][i] =
                        if f.regs.p[pg][i] { f.regs.z[n][i] + f.regs.z[m][i] } else { 0.0 };
                }
            })
        }
        MovZ { .. } => Box::new(m_movz(op)),
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
        IncdX { .. } => Box::new(m_incd(op, lanes)),
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
            // without a specialization cannot diverge semantically.
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

/// Extract the comparison operands of a chain-terminating `b.lt`.
fn blt_regs(op: &DecodedOp) -> (usize, usize) {
    let Instr::BLtX { n, m, .. } = op.instr else { unreachable!("b.lt part") };
    (n.0 as usize, m.0 as usize)
}

/// Build a fully monomorphized dispatch closure for a hot chain pattern.
///
/// The generic chain body loops over boxed `(Cost, Micro)` pairs — one
/// indirect call per micro-op.  For the patterns that dominate the five
/// SVE kernels' loop bodies, this instead composes the typed `m_*`
/// closures in straight line, so the compiler inlines the whole chain
/// (charges included) into one superinstruction body.  Same parts, same
/// order, same [`charge`] per part: bit-identical by construction, and
/// the fused-vs-interpreter property suite exercises every one of these
/// chains end to end.  Unknown patterns return `None` and take the
/// generic path.
fn spec_chain(
    name: &str,
    ops: &[DecodedOp],
    lanes: usize,
    fall: usize,
    taken: Option<usize>,
) -> Option<OpFn> {
    let cost = |i: usize| Cost::of(&ops[i]);
    match name {
        "whilelt+ld1d+ld1d+fmla+st1d+incd+b.lt" => {
            let c: [Cost; 7] = std::array::from_fn(cost);
            let tail = ChainTail::fold(&c)?;
            let (m0, m1, m2) = (m_whilelt(&ops[0]), m_ld1d(&ops[1], lanes), m_ld1d(&ops[2], lanes));
            let (m3, m4, m5) =
                (m_fmla(&ops[3], lanes), m_st1d(&ops[4], lanes), m_incd(&ops[5], lanes));
            let (bn, bm) = blt_regs(&ops[6]);
            let taken = taken?;
            Some(Box::new(move |f: &mut Frame| {
                chain_head(f, 7);
                charge_serial(f, &c[0]);
                m0(f);
                charge_serial(f, &c[1]);
                m1(f);
                charge_serial(f, &c[2]);
                m2(f);
                charge_serial(f, &c[3]);
                m3(f);
                charge_serial(f, &c[4]);
                m4(f);
                charge_serial(f, &c[5]);
                m5(f);
                charge_serial(f, &c[6]);
                tail.apply(f);
                f.fused_dyn += 7;
                if f.regs.x[bn] < f.regs.x[bm] {
                    taken
                } else {
                    fall
                }
            }))
        }
        "whilelt+ld1d+ld1d+ld1d+fmla+fmla+st1d+incd+b.lt" => {
            let c: [Cost; 9] = std::array::from_fn(cost);
            let tail = ChainTail::fold(&c)?;
            let (m0, m1, m2) = (m_whilelt(&ops[0]), m_ld1d(&ops[1], lanes), m_ld1d(&ops[2], lanes));
            let (m3, m4, m5) =
                (m_ld1d(&ops[3], lanes), m_fmla(&ops[4], lanes), m_fmla(&ops[5], lanes));
            let (m6, m7) = (m_st1d(&ops[6], lanes), m_incd(&ops[7], lanes));
            let (bn, bm) = blt_regs(&ops[8]);
            let taken = taken?;
            Some(Box::new(move |f: &mut Frame| {
                chain_head(f, 9);
                charge_serial(f, &c[0]);
                m0(f);
                charge_serial(f, &c[1]);
                m1(f);
                charge_serial(f, &c[2]);
                m2(f);
                charge_serial(f, &c[3]);
                m3(f);
                charge_serial(f, &c[4]);
                m4(f);
                charge_serial(f, &c[5]);
                m5(f);
                charge_serial(f, &c[6]);
                m6(f);
                charge_serial(f, &c[7]);
                m7(f);
                charge_serial(f, &c[8]);
                tail.apply(f);
                f.fused_dyn += 9;
                if f.regs.x[bn] < f.regs.x[bm] {
                    taken
                } else {
                    fall
                }
            }))
        }
        "whilelt+ld1d+mov.z+fmla+st1d+incd+b.lt" => {
            let c: [Cost; 7] = std::array::from_fn(cost);
            let tail = ChainTail::fold(&c)?;
            let (m0, m1, m2) = (m_whilelt(&ops[0]), m_ld1d(&ops[1], lanes), m_movz(&ops[2]));
            let (m3, m4, m5) =
                (m_fmla(&ops[3], lanes), m_st1d(&ops[4], lanes), m_incd(&ops[5], lanes));
            let (bn, bm) = blt_regs(&ops[6]);
            let taken = taken?;
            Some(Box::new(move |f: &mut Frame| {
                chain_head(f, 7);
                charge_serial(f, &c[0]);
                m0(f);
                charge_serial(f, &c[1]);
                m1(f);
                charge_serial(f, &c[2]);
                m2(f);
                charge_serial(f, &c[3]);
                m3(f);
                charge_serial(f, &c[4]);
                m4(f);
                charge_serial(f, &c[5]);
                m5(f);
                charge_serial(f, &c[6]);
                tail.apply(f);
                f.fused_dyn += 7;
                if f.regs.x[bn] < f.regs.x[bm] {
                    taken
                } else {
                    fall
                }
            }))
        }
        "whilelt+ld1d+ld1d+fmla+incd+b.lt" => {
            let c: [Cost; 6] = std::array::from_fn(cost);
            let tail = ChainTail::fold(&c)?;
            let (m0, m1, m2) = (m_whilelt(&ops[0]), m_ld1d(&ops[1], lanes), m_ld1d(&ops[2], lanes));
            let (m3, m4) = (m_fmla(&ops[3], lanes), m_incd(&ops[4], lanes));
            let (bn, bm) = blt_regs(&ops[5]);
            let taken = taken?;
            Some(Box::new(move |f: &mut Frame| {
                chain_head(f, 6);
                charge_serial(f, &c[0]);
                m0(f);
                charge_serial(f, &c[1]);
                m1(f);
                charge_serial(f, &c[2]);
                m2(f);
                charge_serial(f, &c[3]);
                m3(f);
                charge_serial(f, &c[4]);
                m4(f);
                charge_serial(f, &c[5]);
                tail.apply(f);
                f.fused_dyn += 6;
                if f.regs.x[bn] < f.regs.x[bm] {
                    taken
                } else {
                    fall
                }
            }))
        }
        "whilelt+ld1d+ld1d+fmla+incd" => {
            let c: [Cost; 5] = std::array::from_fn(cost);
            let tail = ChainTail::fold(&c)?;
            let (m0, m1, m2) = (m_whilelt(&ops[0]), m_ld1d(&ops[1], lanes), m_ld1d(&ops[2], lanes));
            let (m3, m4) = (m_fmla(&ops[3], lanes), m_incd(&ops[4], lanes));
            Some(Box::new(move |f: &mut Frame| {
                chain_head(f, 5);
                charge_serial(f, &c[0]);
                m0(f);
                charge_serial(f, &c[1]);
                m1(f);
                charge_serial(f, &c[2]);
                m2(f);
                charge_serial(f, &c[3]);
                m3(f);
                charge_serial(f, &c[4]);
                m4(f);
                tail.apply(f);
                f.fused_dyn += 5;
                fall
            }))
        }
        "whilelt+ld1d+ld1d+fmul.z" => {
            let c: [Cost; 4] = std::array::from_fn(cost);
            let tail = ChainTail::fold(&c)?;
            let (m0, m1, m2) = (m_whilelt(&ops[0]), m_ld1d(&ops[1], lanes), m_ld1d(&ops[2], lanes));
            let m3 = m_fmulz(&ops[3], lanes);
            Some(Box::new(move |f: &mut Frame| {
                chain_head(f, 4);
                charge_serial(f, &c[0]);
                m0(f);
                charge_serial(f, &c[1]);
                m1(f);
                charge_serial(f, &c[2]);
                m2(f);
                charge_serial(f, &c[3]);
                m3(f);
                tail.apply(f);
                f.fused_dyn += 4;
                fall
            }))
        }
        "ld1d+ld1d+fmla" => {
            let c: [Cost; 3] = std::array::from_fn(cost);
            let tail = ChainTail::fold(&c)?;
            let (m0, m1, m2) =
                (m_ld1d(&ops[0], lanes), m_ld1d(&ops[1], lanes), m_fmla(&ops[2], lanes));
            Some(Box::new(move |f: &mut Frame| {
                chain_head(f, 3);
                charge_serial(f, &c[0]);
                m0(f);
                charge_serial(f, &c[1]);
                m1(f);
                charge_serial(f, &c[2]);
                m2(f);
                tail.apply(f);
                f.fused_dyn += 3;
                fall
            }))
        }
        "st1d+incd+b.lt" => {
            let c: [Cost; 3] = std::array::from_fn(cost);
            let tail = ChainTail::fold(&c)?;
            let (m0, m1) = (m_st1d(&ops[0], lanes), m_incd(&ops[1], lanes));
            let (bn, bm) = blt_regs(&ops[2]);
            let taken = taken?;
            Some(Box::new(move |f: &mut Frame| {
                chain_head(f, 3);
                charge_serial(f, &c[0]);
                m0(f);
                charge_serial(f, &c[1]);
                m1(f);
                charge_serial(f, &c[2]);
                tail.apply(f);
                f.fused_dyn += 3;
                if f.regs.x[bn] < f.regs.x[bm] {
                    taken
                } else {
                    fall
                }
            }))
        }
        _ => None,
    }
}

/// Lower a fusion plan to the flat dispatch-closure array.  Dispatch
/// slots are group indices; branch targets are pre-resolved through the
/// instruction-index → group-slot map (branches can only target group
/// starts — the fusion pass never covers a branch target with a chain
/// interior — or the program end).
pub(crate) fn lower(ops: &[DecodedOp], plan: &FusionPlan, lanes: usize) -> Vec<OpFn> {
    let n_groups = plan.groups.len();
    let mut slot_map = vec![usize::MAX; ops.len() + 1];
    for (gi, g) in plan.groups.iter().enumerate() {
        slot_map[g.start] = gi;
    }
    slot_map[ops.len()] = n_groups;
    let slot_of = |target: usize| -> usize {
        // A branch past the end simply terminates, like the interpreter's
        // `while pc < len` loop.
        let s = slot_map.get(target).copied().unwrap_or(n_groups);
        assert_ne!(s, usize::MAX, "branch into a fused chain interior");
        s
    };

    let mut code: Vec<OpFn> = Vec::with_capacity(n_groups);
    for (gi, g) in plan.groups.iter().enumerate() {
        let fall = gi + 1;
        let group_ops = &ops[g.start..g.start + g.len];
        let last = &group_ops[g.len - 1];
        if let Some(ci) = g.chain {
            let taken = match last.instr {
                Instr::BLtX { target, .. } => Some(slot_of(target)),
                _ => None,
            };
            if let Some(opfn) =
                spec_chain(plan.chains[ci as usize].name, group_ops, lanes, fall, taken)
            {
                code.push(opfn);
                continue;
            }
        }
        let fused_inc = if g.chain.is_some() { g.len as u64 } else { 0 };
        let has_branch =
            matches!(last.instr, Instr::B { .. } | Instr::BLtX { .. } | Instr::BGeX { .. });
        let body_ops = if has_branch { &group_ops[..g.len - 1] } else { group_ops };
        let body: Vec<(Cost, Micro)> =
            body_ops.iter().map(|op| (Cost::of(op), micro_of(op, lanes))).collect();
        let group_len = g.len as u64;
        if has_branch {
            let bcost = Cost::of(last);
            code.push(match last.instr {
                Instr::B { target } => {
                    let taken = slot_of(target);
                    Box::new(move |f: &mut Frame| {
                        check_cap(f, group_len);
                        for (c, mi) in &body {
                            charge(f, c);
                            mi(f);
                        }
                        charge(f, &bcost);
                        f.fused_dyn += fused_inc;
                        taken
                    })
                }
                Instr::BLtX { n, m, target } => {
                    let (n, m) = (n.0 as usize, m.0 as usize);
                    let taken = slot_of(target);
                    Box::new(move |f: &mut Frame| {
                        check_cap(f, group_len);
                        for (c, mi) in &body {
                            charge(f, c);
                            mi(f);
                        }
                        charge(f, &bcost);
                        f.fused_dyn += fused_inc;
                        if f.regs.x[n] < f.regs.x[m] {
                            taken
                        } else {
                            fall
                        }
                    })
                }
                Instr::BGeX { n, m, target } => {
                    let (n, m) = (n.0 as usize, m.0 as usize);
                    let taken = slot_of(target);
                    Box::new(move |f: &mut Frame| {
                        check_cap(f, group_len);
                        for (c, mi) in &body {
                            charge(f, c);
                            mi(f);
                        }
                        charge(f, &bcost);
                        f.fused_dyn += fused_inc;
                        if f.regs.x[n] >= f.regs.x[m] {
                            taken
                        } else {
                            fall
                        }
                    })
                }
                _ => unreachable!(),
            });
        } else if body.len() == 1 && fused_inc == 0 {
            // Single plain op: no inner loop, one charge + one micro.
            let (c, mi) = body.into_iter().next().expect("one-element body");
            code.push(Box::new(move |f: &mut Frame| {
                check_cap(f, 1);
                charge(f, &c);
                mi(f);
                fall
            }));
        } else {
            code.push(Box::new(move |f: &mut Frame| {
                check_cap(f, group_len);
                for (c, mi) in &body {
                    charge(f, c);
                    mi(f);
                }
                f.fused_dyn += fused_inc;
                fall
            }));
        }
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
        let sched = &cfg.sched;
        let p_active: [u64; 16] = std::array::from_fn(|i| regs.active_lanes(i) as u64);
        let mut frame = Frame {
            regs,
            mem,
            ready: [0u64; FLAT_REGS],
            p_active,
            units: std::array::from_fn(|i| RingSlots::new(sched.pipes[i])),
            mix: vec![0u64; dp.mnemonics.len()],
            fetch_frontier: 0,
            fetch_rem: 0,
            last_complete: 0,
            fetch_width: sched.fetch_width,
            mem_rate: sched.total_mem_rate(cfg.level),
            mem_shift: {
                let r = sched.total_mem_rate(cfg.level);
                (r > 0.0 && r.fract() == 0.0 && (r as u64).is_power_of_two())
                    .then(|| (r as u64).trailing_zeros())
            },
            mem_bytes_cum: 0,
            instrs: 0,
            max_instrs: cfg.max_instrs,
            flops: 0,
            bytes_read: 0,
            bytes_written: 0,
            loads: 0,
            stores: 0,
            unit_busy: [0u64; 5],
            fused_dyn: 0,
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
            loads: frame.loads,
            stores: frame.stores,
            unit_busy: frame.unit_busy,
            mix: OpcodeMix::default(),
        };
        for (ms, &name) in dp.mnemonics.iter().enumerate() {
            if frame.mix[ms] > 0 {
                stats.mix.add(name, frame.mix[ms]);
            }
        }
        crate::fuse::note_run(frame.fused_dyn, frame.instrs);
        stats
    }
}
