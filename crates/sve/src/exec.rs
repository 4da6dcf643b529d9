//! The reference interpreter + timing model.
//!
//! [`Executor::run`] executes a program against a register file and
//! simulated memory, producing both the architectural effects (so results
//! can be checked against native oracles) and an [`ExecStats`] with the
//! modeled cycle count.  It is the executable specification: a plain
//! step loop over the instruction list that re-derives everything per
//! dynamic instruction.  Production work goes through
//! [`Executor::run_decoded`] (the threaded-code engine in
//! `thread.rs`), which the test suites hold to this loop bit for
//! bit — registers, memory and full [`ExecStats`].
//!
//! Timing uses a dataflow-limited model (see [`crate::sched`]): an
//! instruction's start time is the maximum of its fetch time (in-order,
//! fixed width), its source operands' ready times (true dependencies only
//! — renaming is assumed), and the earliest free pipe of its unit class.
//! Its result becomes ready `latency` cycles later, and the pipe stays
//! busy for `occupancy` cycles.  The reported cycle count is the latest
//! completion time over the whole dynamic instruction stream.

use crate::disasm::mnemonic;
use crate::isa::Instr;
use crate::mem::SimMem;
use crate::reg::RegFile;
use crate::sched::SchedModel;
use v2d_machine::{MemLevel, FREQ_HZ};

/// Configuration of one simulated execution on the
/// [`SchedModel::A64FX`] pipeline.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// SVE vector length in bits (128–2048, multiple of 128).
    pub vl_bits: u32,
    /// Residency level of the kernel's working set (drives load costs).
    pub level: MemLevel,
    /// Safety cap on dynamically executed instructions.
    pub max_instrs: u64,
}

impl ExecConfig {
    /// A64FX-like configuration: 512-bit vectors, L1-resident data.
    pub fn a64fx_l1() -> Self {
        ExecConfig { vl_bits: 512, level: MemLevel::L1, max_instrs: 200_000_000 }
    }

    /// Same core, different working-set residency.
    pub fn with_level(mut self, level: MemLevel) -> Self {
        self.level = level;
        self
    }

    /// Same core, different vector length.
    pub fn with_vl(mut self, vl_bits: u32) -> Self {
        self.vl_bits = vl_bits;
        self
    }
}

/// Dynamic instruction counts per opcode class (for kernel-mix
/// analysis; the disassembler names match).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpcodeMix {
    counts: std::collections::BTreeMap<&'static str, u64>,
}

impl OpcodeMix {
    fn bump(&mut self, name: &'static str) {
        *self.counts.entry(name).or_insert(0) += 1;
    }

    /// Fold a pre-aggregated per-mnemonic count in (the decoded-trace
    /// executor counts per program slot and converts at the end).
    pub(crate) fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Count for one mnemonic (0 if never executed).
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// All `(mnemonic, count)` pairs, alphabetical.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }

    /// Total dynamic instructions.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }
}

/// Outcome of a simulated execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Modeled execution time in core cycles.
    pub cycles: u64,
    /// Dynamically executed instructions.
    pub instrs: u64,
    /// Double-precision flops performed (predicate-aware).
    pub flops: u64,
    /// Bytes loaded from memory.
    pub bytes_read: u64,
    /// Bytes stored to memory.
    pub bytes_written: u64,
    /// Dynamic load / store instruction counts.
    pub loads: u64,
    pub stores: u64,
    /// Busy cycles per unit class `[Int, Fla, Ls, Pred, Br]`.
    pub unit_busy: [u64; 5],
    /// Dynamic instruction mix by mnemonic.
    pub mix: OpcodeMix,
}

impl ExecStats {
    /// Flops per cycle.
    pub fn flops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flops as f64 / self.cycles as f64
        }
    }

    /// Seconds at the core clock [`FREQ_HZ`].
    pub fn secs(&self) -> f64 {
        self.cycles as f64 / FREQ_HZ
    }
}

/// Register identifier for dependency tracking.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RegId {
    X(u8),
    D(u8),
    Z(u8),
    P(u8),
}

/// Up to four sources and one destination per instruction.
pub(crate) struct Deps {
    pub(crate) src: [Option<RegId>; 5],
    pub(crate) dst: Option<RegId>,
}

impl Deps {
    /// The governing predicate: the predicate register among the sources
    /// (a predicate an instruction writes is its destination).
    pub(crate) fn pred(&self) -> Option<u8> {
        self.src.iter().flatten().find_map(|r| match *r {
            RegId::P(p) => Some(p),
            _ => None,
        })
    }
}

pub(crate) fn deps_of(i: &Instr) -> Deps {
    use Instr::*;
    let mut src = [None; 5];
    let mut dst = None;
    let mut s = 0usize;
    let push = |r: RegId, src: &mut [Option<RegId>; 5], s: &mut usize| {
        src[*s] = Some(r);
        *s += 1;
    };
    match *i {
        MovXI { d, .. } => dst = Some(RegId::X(d.0)),
        MovX { d, n } => {
            push(RegId::X(n.0), &mut src, &mut s);
            dst = Some(RegId::X(d.0));
        }
        AddXI { d, n, .. } | MulXI { d, n, .. } => {
            push(RegId::X(n.0), &mut src, &mut s);
            dst = Some(RegId::X(d.0));
        }
        AddX { d, n, m } => {
            push(RegId::X(n.0), &mut src, &mut s);
            push(RegId::X(m.0), &mut src, &mut s);
            dst = Some(RegId::X(d.0));
        }
        FMovDI { d, .. } => dst = Some(RegId::D(d.0)),
        FMovD { d, n } | FNegD { d, n } => {
            push(RegId::D(n.0), &mut src, &mut s);
            dst = Some(RegId::D(d.0));
        }
        LdrD { d, base, .. } => {
            push(RegId::X(base.0), &mut src, &mut s);
            dst = Some(RegId::D(d.0));
        }
        LdrDScaled { d, base, index } => {
            push(RegId::X(base.0), &mut src, &mut s);
            push(RegId::X(index.0), &mut src, &mut s);
            dst = Some(RegId::D(d.0));
        }
        // Stores: the data register is deliberately NOT a timing
        // dependency — real cores place the value in a store buffer and
        // retire the store out of the critical path, so only the address
        // registers gate issue.  (Semantics still read the value, of
        // course; timing and semantics are computed separately.)
        StrD { base, .. } => {
            push(RegId::X(base.0), &mut src, &mut s);
        }
        StrDScaled { base, index, .. } => {
            push(RegId::X(base.0), &mut src, &mut s);
            push(RegId::X(index.0), &mut src, &mut s);
        }
        FAddD { d, n, m } | FSubD { d, n, m } | FMulD { d, n, m } => {
            push(RegId::D(n.0), &mut src, &mut s);
            push(RegId::D(m.0), &mut src, &mut s);
            dst = Some(RegId::D(d.0));
        }
        FMaddD { d, n, m, a } => {
            push(RegId::D(n.0), &mut src, &mut s);
            push(RegId::D(m.0), &mut src, &mut s);
            push(RegId::D(a.0), &mut src, &mut s);
            dst = Some(RegId::D(d.0));
        }
        B { .. } => {}
        BLtX { n, m, .. } | BGeX { n, m, .. } => {
            push(RegId::X(n.0), &mut src, &mut s);
            push(RegId::X(m.0), &mut src, &mut s);
        }
        PtrueD { d } => dst = Some(RegId::P(d.0)),
        WhileltD { d, n, m } => {
            push(RegId::X(n.0), &mut src, &mut s);
            push(RegId::X(m.0), &mut src, &mut s);
            dst = Some(RegId::P(d.0));
        }
        DupZD { d, n } => {
            push(RegId::D(n.0), &mut src, &mut s);
            dst = Some(RegId::Z(d.0));
        }
        DupZI { d, .. } => dst = Some(RegId::Z(d.0)),
        MovZ { d, n } => {
            push(RegId::Z(n.0), &mut src, &mut s);
            dst = Some(RegId::Z(d.0));
        }
        Ld1d { t, pg, base, index } => {
            push(RegId::P(pg.0), &mut src, &mut s);
            push(RegId::X(base.0), &mut src, &mut s);
            push(RegId::X(index.0), &mut src, &mut s);
            dst = Some(RegId::Z(t.0));
        }
        St1d { pg, base, index, .. } => {
            // Data register excluded, as for the scalar stores above.
            push(RegId::P(pg.0), &mut src, &mut s);
            push(RegId::X(base.0), &mut src, &mut s);
            push(RegId::X(index.0), &mut src, &mut s);
        }
        Ld1dGather { t, pg, base, idx } => {
            push(RegId::P(pg.0), &mut src, &mut s);
            push(RegId::X(base.0), &mut src, &mut s);
            push(RegId::Z(idx.0), &mut src, &mut s);
            dst = Some(RegId::Z(t.0));
        }
        // Zeroing forms: inactive lanes are zeroed, so the destination's
        // old value is NOT a source (compilers use zeroing/movprfx forms
        // precisely to avoid the false loop-carried dependency).
        FAddZ { d, pg, n, m } | FSubZ { d, pg, n, m } | FMulZ { d, pg, n, m } => {
            push(RegId::P(pg.0), &mut src, &mut s);
            push(RegId::Z(n.0), &mut src, &mut s);
            push(RegId::Z(m.0), &mut src, &mut s);
            dst = Some(RegId::Z(d.0));
        }
        FMlaZ { da, pg, n, m } | FMlsZ { da, pg, n, m } => {
            push(RegId::P(pg.0), &mut src, &mut s);
            push(RegId::Z(n.0), &mut src, &mut s);
            push(RegId::Z(m.0), &mut src, &mut s);
            push(RegId::Z(da.0), &mut src, &mut s);
            dst = Some(RegId::Z(da.0));
        }
        FNegZ { d, pg, n } => {
            push(RegId::P(pg.0), &mut src, &mut s);
            push(RegId::Z(n.0), &mut src, &mut s);
            dst = Some(RegId::Z(d.0));
        }
        FaddvD { d, pg, n } => {
            push(RegId::P(pg.0), &mut src, &mut s);
            push(RegId::Z(n.0), &mut src, &mut s);
            dst = Some(RegId::D(d.0));
        }
        IncdX { d } => {
            push(RegId::X(d.0), &mut src, &mut s);
            dst = Some(RegId::X(d.0));
        }
        CntdX { d } => dst = Some(RegId::X(d.0)),
    }
    Deps { src, dst }
}

/// Per-unit issue-slot tracker: at most `pipes` operations may occupy any
/// given cycle.  Unlike a naive "earliest-free-pipe" reservation, this
/// allows *backfilling*: an instruction whose operands are ready early may
/// slip into an idle cycle even if a later-starting instruction was
/// assigned first in program order — which is what an out-of-order core's
/// schedulers actually do.  Entries older than the in-order fetch frontier
/// can never be requested again and are pruned lazily.
#[derive(Debug)]
pub(crate) struct UnitSlots {
    pipes: u8,
    used: std::collections::BTreeMap<u64, u8>,
    /// Every cycle from the prune floor up to `full_to` is full, so a
    /// search that would start in that run starts at its end.  Counts
    /// never decrease, so it only moves forward.
    full_to: u64,
}

impl UnitSlots {
    pub(crate) fn new(pipes: usize) -> Self {
        UnitSlots { pipes: pipes as u8, used: std::collections::BTreeMap::new(), full_to: 0 }
    }

    fn is_full(&self, c: u64) -> bool {
        self.used.get(&c).is_some_and(|&n| n >= self.pipes)
    }

    /// Move `full_to` past the full cycles at it.
    fn skip_full(&mut self) {
        while self.is_full(self.full_to) {
            self.full_to += 1;
        }
    }

    /// Find the earliest start ≥ `ready` with `occ` consecutive cycles of
    /// spare capacity, and consume them.
    #[allow(clippy::mut_range_bound)] // restart-the-scan via labeled loop is intentional
    pub(crate) fn reserve(&mut self, ready: u64, occ: u64) -> u64 {
        debug_assert!(occ >= 1);
        let mut start = ready.max(self.full_to);
        'search: loop {
            for c in start..start + occ {
                if self.is_full(c) {
                    start = c + 1;
                    continue 'search;
                }
            }
            for c in start..start + occ {
                *self.used.entry(c).or_insert(0) += 1;
            }
            if (start..start + occ).contains(&self.full_to) {
                self.skip_full();
            }
            return start;
        }
    }

    /// Drop bookkeeping for cycles before `floor` (unreachable: `ready`
    /// is always ≥ the monotone fetch frontier).
    pub(crate) fn prune(&mut self, floor: u64) {
        while let Some((&k, _)) = self.used.first_key_value() {
            if k >= floor {
                break;
            }
            self.used.remove(&k);
        }
        if self.full_to < floor {
            self.full_to = floor;
            self.skip_full();
        }
    }
}

/// The simulated core.
pub struct Executor {
    cfg: ExecConfig,
}

impl Executor {
    /// A core with the given configuration.
    pub fn new(cfg: ExecConfig) -> Self {
        Executor { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Execute `prog` to completion (falling off the end terminates),
    /// mutating `regs` and `mem`, and return the timing statistics.
    ///
    /// # Panics
    /// If the register file's vector length disagrees with the config, if
    /// the dynamic instruction cap is exceeded, or on a memory fault.
    pub fn run(&self, prog: &[Instr], regs: &mut RegFile, mem: &mut SimMem) -> ExecStats {
        assert_eq!(
            regs.vl_bits(),
            self.cfg.vl_bits,
            "register file VL does not match executor config"
        );
        let lanes = regs.lanes();
        let sched = &SchedModel::A64FX;
        let level = self.cfg.level;

        let mut stats = ExecStats::default();
        // Dependency-tracking state.
        let mut x_ready = [0u64; 32];
        let mut d_ready = [0u64; 32];
        let mut z_ready = [0u64; 32];
        let mut p_ready = [0u64; 16];
        let mut units: [UnitSlots; 5] = std::array::from_fn(|u| UnitSlots::new(sched.pipes[u]));
        let mut fetched: u64 = 0;
        let mut last_complete: u64 = 0;
        // Cumulative-bytes bandwidth limiter: a memory instruction may
        // not issue before cycle (bytes already streamed) / (level rate).
        let mem_rate = sched.total_mem_rate(level);
        let mut mem_bytes_cum: u64 = 0;

        let mut pc = 0usize;
        while pc < prog.len() {
            stats.instrs += 1;
            assert!(
                stats.instrs <= self.cfg.max_instrs,
                "dynamic instruction cap exceeded — runaway loop?"
            );
            let instr = &prog[pc];

            // --- timing ---
            let props = sched.props(instr, lanes as u64, level);
            let deps = deps_of(instr);
            let active = deps.pred().map_or(0, |p| regs.active_lanes(p as usize) as u64);
            let mem_bytes = props.bytes.at(active);
            let mut ready = fetched / sched.fetch_width;
            fetched += 1;
            for slot in deps.src.iter().flatten() {
                let t = match *slot {
                    RegId::X(r) => x_ready[r as usize],
                    RegId::D(r) => d_ready[r as usize],
                    RegId::Z(r) => z_ready[r as usize],
                    RegId::P(r) => p_ready[r as usize],
                };
                ready = ready.max(t);
            }
            if mem_bytes > 0 {
                let bw_ready = (mem_bytes_cum as f64 / mem_rate) as u64;
                ready = ready.max(bw_ready);
                mem_bytes_cum += mem_bytes;
            }
            let ui = SchedModel::unit_index(props.unit);
            let start = units[ui].reserve(ready, props.occupancy.max(1));
            let complete = start + props.latency;
            if stats.instrs % 4096 == 0 {
                let floor = fetched / sched.fetch_width;
                for u in &mut units {
                    u.prune(floor);
                }
            }
            if let Some(dst) = deps.dst {
                match dst {
                    RegId::X(r) => x_ready[r as usize] = complete,
                    RegId::D(r) => d_ready[r as usize] = complete,
                    RegId::Z(r) => z_ready[r as usize] = complete,
                    RegId::P(r) => p_ready[r as usize] = complete,
                }
            }
            last_complete = last_complete.max(complete);
            stats.mix.bump(mnemonic(instr));
            stats.unit_busy[ui] += props.occupancy;
            stats.flops += props.flops.at(active);
            if instr.is_load() {
                stats.loads += 1;
                stats.bytes_read += mem_bytes;
            } else if instr.is_store() {
                stats.stores += 1;
                stats.bytes_written += mem_bytes;
            }

            // --- semantics ---
            pc = step_instr(instr, pc, regs, mem);
        }
        stats.cycles = last_complete.max(fetched.div_ceil(sched.fetch_width));
        stats
    }
}

/// The executable specification of every instruction's architectural
/// effect; returns the next pc.  The threaded-code engine in
/// [`crate::thread`] calls this for every opcode without a semantic
/// closure of its own, so even that fallback shares the interpreter's
/// semantics verbatim.
pub(crate) fn step_instr(instr: &Instr, pc: usize, r: &mut RegFile, mem: &mut SimMem) -> usize {
    {
        use Instr::*;
        let lanes = r.lanes();
        match *instr {
            MovXI { d, imm } => r.x[d.0 as usize] = imm,
            MovX { d, n } => r.x[d.0 as usize] = r.x[n.0 as usize],
            AddXI { d, n, imm } => r.x[d.0 as usize] = (r.x[n.0 as usize] as i64 + imm) as u64,
            AddX { d, n, m } => {
                r.x[d.0 as usize] = r.x[n.0 as usize].wrapping_add(r.x[m.0 as usize])
            }
            MulXI { d, n, imm } => r.x[d.0 as usize] = (r.x[n.0 as usize] as i64 * imm) as u64,

            FMovDI { d, imm } => r.d[d.0 as usize] = imm,
            FMovD { d, n } => r.d[d.0 as usize] = r.d[n.0 as usize],
            LdrD { d, base, offset } => {
                let addr = (r.x[base.0 as usize] as i64 + offset) as usize;
                r.d[d.0 as usize] = mem.load_f64(addr);
            }
            LdrDScaled { d, base, index } => {
                let addr = r.x[base.0 as usize] as usize + 8 * r.x[index.0 as usize] as usize;
                r.d[d.0 as usize] = mem.load_f64(addr);
            }
            StrD { s, base, offset } => {
                let addr = (r.x[base.0 as usize] as i64 + offset) as usize;
                mem.store_f64(addr, r.d[s.0 as usize]);
            }
            StrDScaled { s, base, index } => {
                let addr = r.x[base.0 as usize] as usize + 8 * r.x[index.0 as usize] as usize;
                mem.store_f64(addr, r.d[s.0 as usize]);
            }
            FAddD { d, n, m } => r.d[d.0 as usize] = r.d[n.0 as usize] + r.d[m.0 as usize],
            FSubD { d, n, m } => r.d[d.0 as usize] = r.d[n.0 as usize] - r.d[m.0 as usize],
            FMulD { d, n, m } => r.d[d.0 as usize] = r.d[n.0 as usize] * r.d[m.0 as usize],
            FMaddD { d, n, m, a } => {
                r.d[d.0 as usize] = r.d[n.0 as usize].mul_add(r.d[m.0 as usize], r.d[a.0 as usize])
            }
            FNegD { d, n } => r.d[d.0 as usize] = -r.d[n.0 as usize],

            B { target } => return target,
            BLtX { n, m, target } => {
                if r.x[n.0 as usize] < r.x[m.0 as usize] {
                    return target;
                }
            }
            BGeX { n, m, target } => {
                if r.x[n.0 as usize] >= r.x[m.0 as usize] {
                    return target;
                }
            }

            PtrueD { d } => r.p[d.0 as usize].fill(true),
            WhileltD { d, n, m } => {
                let base = r.x[n.0 as usize];
                let lim = r.x[m.0 as usize];
                for i in 0..lanes {
                    r.p[d.0 as usize][i] = base + (i as u64) < lim;
                }
            }

            DupZD { d, n } => r.z[d.0 as usize].fill(r.d[n.0 as usize]),
            DupZI { d, imm } => r.z[d.0 as usize].fill(imm),
            MovZ { d, n } => {
                let src = r.z[n.0 as usize].clone();
                r.z[d.0 as usize].copy_from_slice(&src);
            }
            Ld1d { t, pg, base, index } => {
                let b = r.x[base.0 as usize] as usize + 8 * r.x[index.0 as usize] as usize;
                for i in 0..lanes {
                    r.z[t.0 as usize][i] =
                        if r.p[pg.0 as usize][i] { mem.load_f64(b + 8 * i) } else { 0.0 };
                }
            }
            St1d { t, pg, base, index } => {
                let b = r.x[base.0 as usize] as usize + 8 * r.x[index.0 as usize] as usize;
                for i in 0..lanes {
                    if r.p[pg.0 as usize][i] {
                        mem.store_f64(b + 8 * i, r.z[t.0 as usize][i]);
                    }
                }
            }
            Ld1dGather { t, pg, base, idx } => {
                let b = r.x[base.0 as usize] as usize;
                for i in 0..lanes {
                    r.z[t.0 as usize][i] = if r.p[pg.0 as usize][i] {
                        let off = r.z[idx.0 as usize][i];
                        assert!(
                            off >= 0.0 && off.fract() == 0.0,
                            "gather index lane {i} is not a non-negative integer: {off}"
                        );
                        mem.load_f64(b + 8 * off as usize)
                    } else {
                        0.0
                    };
                }
            }

            FAddZ { d, pg, n, m } => {
                for i in 0..lanes {
                    r.z[d.0 as usize][i] = if r.p[pg.0 as usize][i] {
                        r.z[n.0 as usize][i] + r.z[m.0 as usize][i]
                    } else {
                        0.0
                    };
                }
            }
            FSubZ { d, pg, n, m } => {
                for i in 0..lanes {
                    r.z[d.0 as usize][i] = if r.p[pg.0 as usize][i] {
                        r.z[n.0 as usize][i] - r.z[m.0 as usize][i]
                    } else {
                        0.0
                    };
                }
            }
            FMulZ { d, pg, n, m } => {
                for i in 0..lanes {
                    r.z[d.0 as usize][i] = if r.p[pg.0 as usize][i] {
                        r.z[n.0 as usize][i] * r.z[m.0 as usize][i]
                    } else {
                        0.0
                    };
                }
            }
            FMlaZ { da, pg, n, m } => {
                for i in 0..lanes {
                    if r.p[pg.0 as usize][i] {
                        r.z[da.0 as usize][i] = r.z[n.0 as usize][i]
                            .mul_add(r.z[m.0 as usize][i], r.z[da.0 as usize][i]);
                    }
                }
            }
            FMlsZ { da, pg, n, m } => {
                for i in 0..lanes {
                    if r.p[pg.0 as usize][i] {
                        r.z[da.0 as usize][i] = (-r.z[n.0 as usize][i])
                            .mul_add(r.z[m.0 as usize][i], r.z[da.0 as usize][i]);
                    }
                }
            }
            FNegZ { d, pg, n } => {
                for i in 0..lanes {
                    r.z[d.0 as usize][i] =
                        if r.p[pg.0 as usize][i] { -r.z[n.0 as usize][i] } else { 0.0 };
                }
            }
            FaddvD { d, pg, n } => {
                // Strictly ordered low→high, as architected.
                let mut acc = 0.0f64;
                for i in 0..lanes {
                    if r.p[pg.0 as usize][i] {
                        acc += r.z[n.0 as usize][i];
                    }
                }
                r.d[d.0 as usize] = acc;
            }

            IncdX { d } => r.x[d.0 as usize] += lanes as u64,
            CntdX { d } => r.x[d.0 as usize] = lanes as u64,
        }
        pc + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::isa::*;

    fn run_prog(prog: Vec<Instr>, vl: u32, mem: &mut SimMem) -> (RegFile, ExecStats) {
        let mut regs = RegFile::new(vl);
        let exec = Executor::new(ExecConfig::a64fx_l1().with_vl(vl));
        let stats = exec.run(&prog, &mut regs, mem);
        (regs, stats)
    }

    #[test]
    fn scalar_arithmetic_and_branching() {
        // Sum 0..10 via a scalar loop.
        let mut a = Asm::new();
        a.push(Instr::MovXI { d: X(0), imm: 0 }); // i
        a.push(Instr::MovXI { d: X(1), imm: 10 }); // n
        a.push(Instr::FMovDI { d: D(0), imm: 0.0 }); // acc
        a.push(Instr::FMovDI { d: D(1), imm: 1.0 });
        let top = a.new_label();
        a.bind(top);
        a.push(Instr::FAddD { d: D(0), n: D(0), m: D(1) });
        a.push(Instr::AddXI { d: X(0), n: X(0), imm: 1 });
        a.blt(X(0), X(1), top);
        let mut mem = SimMem::new(64);
        let (regs, stats) = run_prog(a.finish(), 512, &mut mem);
        assert_eq!(regs.d[0], 10.0);
        assert_eq!(stats.instrs, 4 + 3 * 10);
        // Serial FAddD chain: at least 10 × 9-cycle latency.
        assert!(stats.cycles >= 90, "cycles {} too low for a serial chain", stats.cycles);
    }

    #[test]
    fn fmadd_is_fused() {
        let mut mem = SimMem::new(64);
        let prog = vec![
            Instr::FMovDI { d: D(1), imm: 3.0 },
            Instr::FMovDI { d: D(2), imm: 4.0 },
            Instr::FMovDI { d: D(3), imm: 5.0 },
            Instr::FMaddD { d: D(0), n: D(1), m: D(2), a: D(3) },
        ];
        let (regs, stats) = run_prog(prog, 512, &mut mem);
        assert_eq!(regs.d[0], 17.0);
        assert_eq!(stats.flops, 2);
    }

    #[test]
    fn whilelt_handles_tail() {
        // n = 11 with VL 512 (8 lanes): first whilelt all-true, after one
        // incd only 3 lanes remain.
        let prog = vec![
            Instr::MovXI { d: X(0), imm: 8 },
            Instr::MovXI { d: X(1), imm: 11 },
            Instr::WhileltD { d: P(0), n: X(0), m: X(1) },
        ];
        let mut mem = SimMem::new(64);
        let (regs, _) = run_prog(prog, 512, &mut mem);
        assert_eq!(regs.active_lanes(0), 3);
        assert_eq!(regs.p[0][..4], [true, true, true, false]);
    }

    #[test]
    fn ld1d_st1d_roundtrip_with_predicate() {
        let mut mem = SimMem::new(1024);
        let src = mem.alloc_f64(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let dst = mem.alloc_f64(&[0.0; 8]);
        let prog = vec![
            Instr::MovXI { d: X(0), imm: src as u64 },
            Instr::MovXI { d: X(1), imm: dst as u64 },
            Instr::MovXI { d: X(2), imm: 0 },
            Instr::MovXI { d: X(3), imm: 5 }, // only 5 active lanes
            Instr::WhileltD { d: P(0), n: X(2), m: X(3) },
            Instr::Ld1d { t: Z(0), pg: P(0), base: X(0), index: X(2) },
            Instr::St1d { t: Z(0), pg: P(0), base: X(1), index: X(2) },
        ];
        let (_, stats) = run_prog(prog, 512, &mut mem);
        assert_eq!(mem.read_f64_slice(dst, 8), vec![1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0, 0.0]);
        // Predicate-aware byte accounting: 5 lanes × 8 bytes.
        assert_eq!(stats.bytes_read, 40);
        assert_eq!(stats.bytes_written, 40);
    }

    #[test]
    fn predicated_zeroing_ops_zero_inactive_lanes() {
        let mut regs = RegFile::new(256); // 4 lanes
        regs.p[0] = vec![true, false, true, false];
        regs.z[1] = vec![10.0, 20.0, 30.0, 40.0];
        regs.z[2] = vec![1.0, 1.0, 1.0, 1.0];
        regs.z[0] = vec![-1.0, -2.0, -3.0, -4.0];
        let prog = vec![Instr::FAddZ { d: Z(0), pg: P(0), n: Z(1), m: Z(2) }];
        let exec = Executor::new(ExecConfig::a64fx_l1().with_vl(256));
        let mut mem = SimMem::new(64);
        exec.run(&prog, &mut regs, &mut mem);
        assert_eq!(regs.z[0], vec![11.0, 0.0, 31.0, 0.0]);
    }

    #[test]
    fn faddv_reduces_active_lanes_only() {
        let mut regs = RegFile::new(256);
        regs.p[0] = vec![true, true, false, true];
        regs.z[3] = vec![1.0, 2.0, 4.0, 8.0];
        let prog = vec![Instr::FaddvD { d: D(0), pg: P(0), n: Z(3) }];
        let exec = Executor::new(ExecConfig::a64fx_l1().with_vl(256));
        let mut mem = SimMem::new(64);
        let stats = exec.run(&prog, &mut regs, &mut mem);
        assert_eq!(regs.d[0], 11.0);
        assert!(stats.cycles >= 49, "faddv should pay its full latency");
    }

    #[test]
    fn gather_load_indexes_correctly() {
        let mut mem = SimMem::new(1024);
        let base = mem.alloc_f64(&[0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0]);
        let mut regs = RegFile::new(256);
        regs.x[0] = base as u64;
        regs.p[0].fill(true);
        regs.z[1] = vec![3.0, 0.0, 7.0, 1.0];
        let prog = vec![Instr::Ld1dGather { t: Z(0), pg: P(0), base: X(0), idx: Z(1) }];
        let exec = Executor::new(ExecConfig::a64fx_l1().with_vl(256));
        exec.run(&prog, &mut regs, &mut mem);
        assert_eq!(regs.z[0], vec![30.0, 0.0, 70.0, 10.0]);
    }

    #[test]
    fn incd_cntd_track_vector_length() {
        for (vl, lanes) in [(128u32, 2u64), (512, 8), (2048, 32)] {
            let prog = vec![Instr::CntdX { d: X(5) }, Instr::IncdX { d: X(5) }];
            let mut mem = SimMem::new(64);
            let (regs, _) = run_prog(prog, vl, &mut mem);
            assert_eq!(regs.x[5], 2 * lanes);
        }
    }

    #[test]
    fn hbm_residency_slows_loads() {
        let make = || {
            let mut mem = SimMem::new(4096);
            let a = mem.alloc_f64(&[1.0; 64]);
            let mut prog = Vec::new();
            prog.push(Instr::MovXI { d: X(0), imm: a as u64 });
            prog.push(Instr::PtrueD { d: P(0) });
            for i in 0..8 {
                prog.push(Instr::MovXI { d: X(1), imm: i * 8 });
                prog.push(Instr::Ld1d { t: Z(i as u8), pg: P(0), base: X(0), index: X(1) });
            }
            (mem, prog)
        };
        let (mut m1, p1) = make();
        let mut r1 = RegFile::new(512);
        let s_l1 = Executor::new(ExecConfig::a64fx_l1()).run(&p1, &mut r1, &mut m1);
        let (mut m2, p2) = make();
        let mut r2 = RegFile::new(512);
        let s_hbm = Executor::new(ExecConfig::a64fx_l1().with_level(MemLevel::Hbm))
            .run(&p2, &mut r2, &mut m2);
        assert!(s_hbm.cycles > 2 * s_l1.cycles);
    }

    #[test]
    #[should_panic(expected = "runaway loop")]
    fn infinite_loop_hits_cap() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.push(Instr::AddXI { d: X(0), n: X(0), imm: 0 });
        a.b(top);
        let mut cfg = ExecConfig::a64fx_l1();
        cfg.max_instrs = 1000;
        let mut regs = RegFile::new(512);
        let mut mem = SimMem::new(64);
        Executor::new(cfg).run(&a.finish(), &mut regs, &mut mem);
    }

    /// The threaded engine's only cap check is per dispatch group
    /// (`thread::check_cap`): a loop of plain groups must still hit it.
    #[test]
    #[should_panic(expected = "runaway loop")]
    fn threaded_plain_loop_hits_cap() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.bind(top);
        a.push(Instr::AddXI { d: X(0), n: X(0), imm: 0 });
        a.b(top);
        let mut cfg = ExecConfig::a64fx_l1();
        cfg.max_instrs = 1000;
        let dp = crate::decode::DecodedProgram::decode(&a.finish(), &cfg);
        let mut regs = RegFile::new(512);
        let mut mem = SimMem::new(64);
        Executor::new(cfg).run_decoded(&dp, &mut regs, &mut mem);
    }

    /// …and so must an SVE kernel loop, one basic block per iteration.
    #[test]
    #[should_panic(expected = "runaway loop")]
    fn threaded_fused_kernel_loop_hits_cap() {
        use crate::kernels::{decoded_routine, prepare_routine, Routine, Variant};
        let mut cfg = ExecConfig::a64fx_l1();
        cfg.max_instrs = 1000;
        let dp = decoded_routine(Routine::Daxpy, Variant::Sve, &cfg);
        let (mut regs, mut mem) = prepare_routine(Routine::Daxpy, 100_000, &cfg);
        Executor::new(cfg).run_decoded(&dp, &mut regs, &mut mem);
    }

    #[test]
    fn opcode_mix_accounts_every_instruction() {
        let mut a = Asm::new();
        let top = a.new_label();
        a.push(Instr::MovXI { d: X(0), imm: 0 });
        a.push(Instr::MovXI { d: X(1), imm: 5 });
        a.bind(top);
        a.push(Instr::AddXI { d: X(0), n: X(0), imm: 1 });
        a.blt(X(0), X(1), top);
        let mut mem = SimMem::new(64);
        let (_, stats) = run_prog(a.finish(), 512, &mut mem);
        assert_eq!(stats.mix.count("mov"), 2);
        assert_eq!(stats.mix.count("add"), 5);
        assert_eq!(stats.mix.count("b.lt"), 5);
        assert_eq!(stats.mix.total(), stats.instrs);
        assert_eq!(stats.mix.count("fmla"), 0);
    }

    #[test]
    fn independent_ops_dual_issue() {
        // 8 independent scalar adds should overlap on 2 FLA pipes: far
        // fewer cycles than 8 × 9 serial.
        let mut prog = vec![];
        for i in 0..8u8 {
            prog.push(Instr::FMovDI { d: D(i), imm: 1.0 });
        }
        for i in 0..8u8 {
            prog.push(Instr::FAddD { d: D(8 + i), n: D(i), m: D(i) });
        }
        let mut mem = SimMem::new(64);
        let (_, stats) = run_prog(prog, 512, &mut mem);
        assert!(stats.cycles < 40, "independent adds should pipeline: {}", stats.cycles);
    }
}
