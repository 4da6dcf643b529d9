//! The pipeline cost model.
//!
//! A64FX-like parameters for a dataflow-limited, in-order-fetch core:
//! instructions are fetched in program order at a fixed width, issue when
//! their source operands are ready and a pipe of their unit class is free,
//! and complete after a per-instruction latency.  Register renaming is
//! assumed (the A64FX core is out-of-order), so only true dependencies
//! stall.  Loads carry an extra latency and occupancy penalty when the
//! working set resides in L2 or HBM, which is how the same kernel gets
//! slower — and the SVE advantage smaller — as the data outgrows L1: the
//! central mechanism of the paper.
//!
//! Latency values follow the published A64FX microarchitecture manual in
//! spirit: 9-cycle FLA arithmetic, ~11-cycle SVE L1 loads, a painfully
//! slow (49-cycle) strictly-ordered `faddv` horizontal reduction, and
//! low-throughput predicate operations.

use crate::isa::Instr;
use v2d_machine::MemLevel;

/// Execution unit classes of the modeled core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Scalar integer ALUs (2 pipes).
    Int,
    /// Floating-point / SVE arithmetic pipes FLA0/FLA1 (shared by scalar
    /// and vector FP, as on A64FX).
    Fla,
    /// Load/store pipes (2, shared by loads and stores).
    Ls,
    /// Predicate unit (1 pipe, low throughput).
    Pred,
    /// Branch unit.
    Br,
}

/// A count that is affine in the active-lane count `a` of an
/// instruction's governing predicate:
/// `fixed + per_active·a + per_active_after_first·max(a − 1, 0)`.
/// An unpredicated instruction's count is all `fixed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affine {
    pub fixed: u64,
    pub per_active: u64,
    /// The `a − 1` term: the additions of a horizontal reduction.
    pub per_active_after_first: u64,
}

impl Affine {
    const ZERO: Affine = Affine { fixed: 0, per_active: 0, per_active_after_first: 0 };

    const fn fixed(k: u64) -> Affine {
        Affine { fixed: k, ..Affine::ZERO }
    }

    const fn per_active(k: u64) -> Affine {
        Affine { per_active: k, ..Affine::ZERO }
    }

    /// The count at `active` lanes.
    pub fn at(self, active: u64) -> u64 {
        self.fixed
            + self.per_active * active
            + self.per_active_after_first * active.saturating_sub(1)
    }
}

/// The cost row of one instruction: everything the timing model charges
/// for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrProps {
    /// Which unit class executes it.
    pub unit: Unit,
    /// Cycles from issue to result availability.
    pub latency: u64,
    /// Cycles the chosen pipe stays busy.
    pub occupancy: u64,
    /// Double-precision flops performed.
    pub flops: Affine,
    /// Bytes moved to/from memory (zero for non-memory instructions).
    pub bytes: Affine,
}

/// Parameters of the pipeline model.  The one instance is
/// [`SchedModel::A64FX`]: every engine, decoder and cache runs it.
#[derive(Debug)]
pub struct SchedModel {
    /// Instructions fetched/decoded per cycle.
    pub(crate) fetch_width: u64,
    /// Pipes per unit class: [Int, Fla, Ls, Pred, Br].
    pub(crate) pipes: [usize; 5],
    /// Scalar FP arithmetic latency.
    pub(crate) fla_scalar_latency: u64,
    /// SVE FP arithmetic latency.
    pub(crate) fla_vec_latency: u64,
    /// Scalar L1 load-to-use latency.
    pub(crate) load_scalar_latency: u64,
    /// SVE L1 load-to-use latency.
    pub(crate) load_vec_latency: u64,
    /// Extra load latency when the working set lives in L2 / HBM.
    pub(crate) l2_extra_latency: u64,
    pub(crate) hbm_extra_latency: u64,
    /// Sustained per-pipe memory bandwidth in bytes/cycle at each level
    /// (L1, L2, HBM).  The executor enforces the *total* rate
    /// (`pipes × per-pipe`) as a cumulative-bytes limiter on memory
    /// instruction issue — width-independent, so a 512-bit SVE load and
    /// eight scalar loads consume the same bandwidth once the data
    /// streams from DRAM.  This is what makes the SVE advantage shrink
    /// as the working set deepens (the paper's full-code observation).
    pub(crate) bytes_per_cycle_per_pipe: [f64; 3],
    /// Occupancy of predicate-generating instructions (1 pipe → these
    /// gate vector-length-agnostic loop throughput).
    pub(crate) pred_occupancy: u64,
    /// Latency of the strictly-ordered horizontal `faddv` reduction.
    pub(crate) faddv_latency: u64,
}

impl SchedModel {
    /// The A64FX-like pipeline modeled throughout the reproduction.
    pub const A64FX: SchedModel = SchedModel {
        fetch_width: 4,
        pipes: [2, 2, 2, 1, 1],
        fla_scalar_latency: 9,
        fla_vec_latency: 9,
        load_scalar_latency: 5,
        load_vec_latency: 11,
        l2_extra_latency: 26,
        hbm_extra_latency: 130,
        bytes_per_cycle_per_pipe: [64.0, 8.0, 5.5],
        pred_occupancy: 4,
        faddv_latency: 49,
    };

    /// Dense index of a unit class into `pipes`.
    pub fn unit_index(u: Unit) -> usize {
        match u {
            Unit::Int => 0,
            Unit::Fla => 1,
            Unit::Ls => 2,
            Unit::Pred => 3,
            Unit::Br => 4,
        }
    }

    /// Total sustained memory bandwidth (bytes/cycle, all pipes) at
    /// `level` — the executor's cumulative-bytes issue limiter.
    pub fn total_mem_rate(&self, level: MemLevel) -> f64 {
        self.bytes_per_cycle_per_pipe[level.index()] * self.pipes[Self::unit_index(Unit::Ls)] as f64
    }

    /// The cost row of `i` at the vector length `lanes` (f64 per
    /// register) with the kernel's working set resident at `level`.
    ///
    /// This is the only statement of what an instruction costs.  Both
    /// engines read it: the reference interpreter evaluates it per
    /// dynamic instruction, the decoder copies it into each micro-op once,
    /// and both evaluate its flops and bytes at the active-lane count of
    /// the instruction's governing predicate — the predicate source its
    /// dependency list names — or at 0 for an unpredicated instruction,
    /// whose counts are all fixed.
    pub fn props(&self, i: &Instr, lanes: u64, level: MemLevel) -> InstrProps {
        use Instr::*;
        let row = |unit, latency, occupancy| InstrProps {
            unit,
            latency,
            occupancy,
            flops: Affine::ZERO,
            bytes: Affine::ZERO,
        };
        let fla = |latency, flops| InstrProps { flops, ..row(Unit::Fla, latency, 1) };
        // Loads pay extra latency below L1.  A gather cracks into one
        // micro-access per element pair; streaming bandwidth is charged by
        // the executor's limiter, so a unit-stride access occupies its
        // pipe for a single cycle.
        let extra = match level {
            MemLevel::L1 => 0,
            MemLevel::L2 => self.l2_extra_latency,
            MemLevel::Hbm => self.hbm_extra_latency,
        };
        let load = |latency, occupancy, bytes| InstrProps {
            bytes,
            ..row(Unit::Ls, latency + extra, occupancy)
        };
        let store = |bytes| InstrProps { bytes, ..row(Unit::Ls, 1, 1) };
        let (vec_load, per_lane_8) = (self.load_vec_latency, Affine::per_active(8));
        match i {
            MovXI { .. } | MovX { .. } | AddXI { .. } | AddX { .. } => row(Unit::Int, 1, 1),
            MulXI { .. } => row(Unit::Int, 5, 1),
            IncdX { .. } | CntdX { .. } => row(Unit::Int, 2, 1),

            FMovDI { .. } | FMovD { .. } => fla(4, Affine::ZERO),
            FAddD { .. } | FSubD { .. } | FMulD { .. } => {
                fla(self.fla_scalar_latency, Affine::fixed(1))
            }
            FMaddD { .. } => fla(self.fla_scalar_latency, Affine::fixed(2)),
            FNegD { .. } => fla(4, Affine::fixed(1)),

            LdrD { .. } | LdrDScaled { .. } => load(self.load_scalar_latency, 1, Affine::fixed(8)),
            StrD { .. } | StrDScaled { .. } => store(Affine::fixed(8)),

            B { .. } | BLtX { .. } | BGeX { .. } => row(Unit::Br, 1, 1),

            PtrueD { .. } => row(Unit::Pred, 2, self.pred_occupancy),
            WhileltD { .. } => row(Unit::Pred, 4, self.pred_occupancy),

            DupZD { .. } | DupZI { .. } | MovZ { .. } => fla(4, Affine::ZERO),
            Ld1d { .. } => load(vec_load, 1, per_lane_8),
            St1d { .. } => store(per_lane_8),
            Ld1dGather { .. } => load(vec_load, 1.max(lanes / 2), per_lane_8),

            FAddZ { .. } | FSubZ { .. } | FMulZ { .. } => {
                fla(self.fla_vec_latency, Affine::per_active(1))
            }
            FMlaZ { .. } | FMlsZ { .. } => fla(self.fla_vec_latency, Affine::per_active(2)),
            FNegZ { .. } => fla(4, Affine::per_active(1)),
            FaddvD { .. } => {
                fla(self.faddv_latency, Affine { per_active_after_first: 1, ..Affine::ZERO })
            }
        }
    }
}

// What both engines need of the model, checked when the crate compiles:
// a fetch width of 0 would never advance the fetch frontier; a unit with
// 0 pipes could issue nothing, and the pipe trackers count reservations
// per cycle in a `u8`.
const _: () = {
    assert!(SchedModel::A64FX.fetch_width > 0, "fetch_width = 0 fetches nothing");
    let mut u = 0;
    while u < SchedModel::A64FX.pipes.len() {
        let p = SchedModel::A64FX.pipes[u];
        assert!(p > 0 && p <= 255, "every unit needs 1 to 255 pipes");
        u += 1;
    }
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::*;

    /// One instruction of each of the 36 variants.
    fn every_variant() -> [Instr; 36] {
        use Instr::*;
        [
            MovXI { d: X(0), imm: 0 },
            MovX { d: X(0), n: X(1) },
            AddXI { d: X(0), n: X(1), imm: 1 },
            AddX { d: X(0), n: X(1), m: X(2) },
            MulXI { d: X(0), n: X(1), imm: 3 },
            FMovDI { d: D(0), imm: 0.0 },
            FMovD { d: D(0), n: D(1) },
            LdrD { d: D(0), base: X(0), offset: 0 },
            LdrDScaled { d: D(0), base: X(0), index: X(1) },
            StrD { s: D(0), base: X(0), offset: 0 },
            StrDScaled { s: D(0), base: X(0), index: X(1) },
            FAddD { d: D(0), n: D(1), m: D(2) },
            FSubD { d: D(0), n: D(1), m: D(2) },
            FMulD { d: D(0), n: D(1), m: D(2) },
            FMaddD { d: D(0), n: D(1), m: D(2), a: D(3) },
            FNegD { d: D(0), n: D(1) },
            B { target: 0 },
            BLtX { n: X(0), m: X(1), target: 0 },
            BGeX { n: X(0), m: X(1), target: 0 },
            PtrueD { d: P(0) },
            WhileltD { d: P(0), n: X(0), m: X(1) },
            DupZD { d: Z(0), n: D(0) },
            DupZI { d: Z(0), imm: 0.0 },
            MovZ { d: Z(0), n: Z(1) },
            Ld1d { t: Z(0), pg: P(0), base: X(0), index: X(1) },
            St1d { t: Z(0), pg: P(0), base: X(0), index: X(1) },
            Ld1dGather { t: Z(0), pg: P(0), base: X(0), idx: Z(1) },
            FAddZ { d: Z(0), pg: P(0), n: Z(1), m: Z(2) },
            FSubZ { d: Z(0), pg: P(0), n: Z(1), m: Z(2) },
            FMulZ { d: Z(0), pg: P(0), n: Z(1), m: Z(2) },
            FMlaZ { da: Z(0), pg: P(0), n: Z(1), m: Z(2) },
            FMlsZ { da: Z(0), pg: P(0), n: Z(1), m: Z(2) },
            FNegZ { d: Z(0), pg: P(0), n: Z(1) },
            FaddvD { d: D(0), pg: P(0), n: Z(0) },
            IncdX { d: X(0) },
            CntdX { d: X(0) },
        ]
    }

    /// Every variant's cost row at each residency level, then per vector
    /// length (128, 512, 2048 bits): unit, latency, occupancy, flops and
    /// bytes, the last two at 0, 1 and all active lanes.  Three points
    /// fix an affine count once there are two or more lanes, so this pins
    /// each row whole.  `props` is the only statement of these costs, so
    /// a change to any of them must change this table too.
    const ROWS: [&str; 108] = [
        "MovXI      L1  | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0",
        "MovXI      L2  | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0",
        "MovXI      Hbm | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0",
        "MovX       L1  | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0",
        "MovX       L2  | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0",
        "MovX       Hbm | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0",
        "AddXI      L1  | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0",
        "AddXI      L2  | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0",
        "AddXI      Hbm | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0",
        "AddX       L1  | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0",
        "AddX       L2  | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0",
        "AddX       Hbm | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0 | Int 1 1 0,0,0 0,0,0",
        "MulXI      L1  | Int 5 1 0,0,0 0,0,0 | Int 5 1 0,0,0 0,0,0 | Int 5 1 0,0,0 0,0,0",
        "MulXI      L2  | Int 5 1 0,0,0 0,0,0 | Int 5 1 0,0,0 0,0,0 | Int 5 1 0,0,0 0,0,0",
        "MulXI      Hbm | Int 5 1 0,0,0 0,0,0 | Int 5 1 0,0,0 0,0,0 | Int 5 1 0,0,0 0,0,0",
        "FMovDI     L1  | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "FMovDI     L2  | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "FMovDI     Hbm | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "FMovD      L1  | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "FMovD      L2  | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "FMovD      Hbm | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "LdrD       L1  | Ls 5 1 0,0,0 8,8,8 | Ls 5 1 0,0,0 8,8,8 | Ls 5 1 0,0,0 8,8,8",
        "LdrD       L2  | Ls 31 1 0,0,0 8,8,8 | Ls 31 1 0,0,0 8,8,8 | Ls 31 1 0,0,0 8,8,8",
        "LdrD       Hbm | Ls 135 1 0,0,0 8,8,8 | Ls 135 1 0,0,0 8,8,8 | Ls 135 1 0,0,0 8,8,8",
        "LdrDScaled L1  | Ls 5 1 0,0,0 8,8,8 | Ls 5 1 0,0,0 8,8,8 | Ls 5 1 0,0,0 8,8,8",
        "LdrDScaled L2  | Ls 31 1 0,0,0 8,8,8 | Ls 31 1 0,0,0 8,8,8 | Ls 31 1 0,0,0 8,8,8",
        "LdrDScaled Hbm | Ls 135 1 0,0,0 8,8,8 | Ls 135 1 0,0,0 8,8,8 | Ls 135 1 0,0,0 8,8,8",
        "StrD       L1  | Ls 1 1 0,0,0 8,8,8 | Ls 1 1 0,0,0 8,8,8 | Ls 1 1 0,0,0 8,8,8",
        "StrD       L2  | Ls 1 1 0,0,0 8,8,8 | Ls 1 1 0,0,0 8,8,8 | Ls 1 1 0,0,0 8,8,8",
        "StrD       Hbm | Ls 1 1 0,0,0 8,8,8 | Ls 1 1 0,0,0 8,8,8 | Ls 1 1 0,0,0 8,8,8",
        "StrDScaled L1  | Ls 1 1 0,0,0 8,8,8 | Ls 1 1 0,0,0 8,8,8 | Ls 1 1 0,0,0 8,8,8",
        "StrDScaled L2  | Ls 1 1 0,0,0 8,8,8 | Ls 1 1 0,0,0 8,8,8 | Ls 1 1 0,0,0 8,8,8",
        "StrDScaled Hbm | Ls 1 1 0,0,0 8,8,8 | Ls 1 1 0,0,0 8,8,8 | Ls 1 1 0,0,0 8,8,8",
        "FAddD      L1  | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0",
        "FAddD      L2  | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0",
        "FAddD      Hbm | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0",
        "FSubD      L1  | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0",
        "FSubD      L2  | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0",
        "FSubD      Hbm | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0",
        "FMulD      L1  | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0",
        "FMulD      L2  | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0",
        "FMulD      Hbm | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0 | Fla 9 1 1,1,1 0,0,0",
        "FMaddD     L1  | Fla 9 1 2,2,2 0,0,0 | Fla 9 1 2,2,2 0,0,0 | Fla 9 1 2,2,2 0,0,0",
        "FMaddD     L2  | Fla 9 1 2,2,2 0,0,0 | Fla 9 1 2,2,2 0,0,0 | Fla 9 1 2,2,2 0,0,0",
        "FMaddD     Hbm | Fla 9 1 2,2,2 0,0,0 | Fla 9 1 2,2,2 0,0,0 | Fla 9 1 2,2,2 0,0,0",
        "FNegD      L1  | Fla 4 1 1,1,1 0,0,0 | Fla 4 1 1,1,1 0,0,0 | Fla 4 1 1,1,1 0,0,0",
        "FNegD      L2  | Fla 4 1 1,1,1 0,0,0 | Fla 4 1 1,1,1 0,0,0 | Fla 4 1 1,1,1 0,0,0",
        "FNegD      Hbm | Fla 4 1 1,1,1 0,0,0 | Fla 4 1 1,1,1 0,0,0 | Fla 4 1 1,1,1 0,0,0",
        "B          L1  | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0",
        "B          L2  | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0",
        "B          Hbm | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0",
        "BLtX       L1  | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0",
        "BLtX       L2  | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0",
        "BLtX       Hbm | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0",
        "BGeX       L1  | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0",
        "BGeX       L2  | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0",
        "BGeX       Hbm | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0 | Br 1 1 0,0,0 0,0,0",
        "PtrueD     L1  | Pred 2 4 0,0,0 0,0,0 | Pred 2 4 0,0,0 0,0,0 | Pred 2 4 0,0,0 0,0,0",
        "PtrueD     L2  | Pred 2 4 0,0,0 0,0,0 | Pred 2 4 0,0,0 0,0,0 | Pred 2 4 0,0,0 0,0,0",
        "PtrueD     Hbm | Pred 2 4 0,0,0 0,0,0 | Pred 2 4 0,0,0 0,0,0 | Pred 2 4 0,0,0 0,0,0",
        "WhileltD   L1  | Pred 4 4 0,0,0 0,0,0 | Pred 4 4 0,0,0 0,0,0 | Pred 4 4 0,0,0 0,0,0",
        "WhileltD   L2  | Pred 4 4 0,0,0 0,0,0 | Pred 4 4 0,0,0 0,0,0 | Pred 4 4 0,0,0 0,0,0",
        "WhileltD   Hbm | Pred 4 4 0,0,0 0,0,0 | Pred 4 4 0,0,0 0,0,0 | Pred 4 4 0,0,0 0,0,0",
        "DupZD      L1  | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "DupZD      L2  | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "DupZD      Hbm | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "DupZI      L1  | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "DupZI      L2  | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "DupZI      Hbm | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "MovZ       L1  | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "MovZ       L2  | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "MovZ       Hbm | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0 | Fla 4 1 0,0,0 0,0,0",
        "Ld1d       L1  | Ls 11 1 0,0,0 0,8,16 | Ls 11 1 0,0,0 0,8,64 | Ls 11 1 0,0,0 0,8,256",
        "Ld1d       L2  | Ls 37 1 0,0,0 0,8,16 | Ls 37 1 0,0,0 0,8,64 | Ls 37 1 0,0,0 0,8,256",
        "Ld1d       Hbm | Ls 141 1 0,0,0 0,8,16 | Ls 141 1 0,0,0 0,8,64 | Ls 141 1 0,0,0 0,8,256",
        "St1d       L1  | Ls 1 1 0,0,0 0,8,16 | Ls 1 1 0,0,0 0,8,64 | Ls 1 1 0,0,0 0,8,256",
        "St1d       L2  | Ls 1 1 0,0,0 0,8,16 | Ls 1 1 0,0,0 0,8,64 | Ls 1 1 0,0,0 0,8,256",
        "St1d       Hbm | Ls 1 1 0,0,0 0,8,16 | Ls 1 1 0,0,0 0,8,64 | Ls 1 1 0,0,0 0,8,256",
        "Ld1dGather L1  | Ls 11 1 0,0,0 0,8,16 | Ls 11 4 0,0,0 0,8,64 | Ls 11 16 0,0,0 0,8,256",
        "Ld1dGather L2  | Ls 37 1 0,0,0 0,8,16 | Ls 37 4 0,0,0 0,8,64 | Ls 37 16 0,0,0 0,8,256",
        "Ld1dGather Hbm | Ls 141 1 0,0,0 0,8,16 | Ls 141 4 0,0,0 0,8,64 | Ls 141 16 0,0,0 0,8,256",
        "FAddZ      L1  | Fla 9 1 0,1,2 0,0,0 | Fla 9 1 0,1,8 0,0,0 | Fla 9 1 0,1,32 0,0,0",
        "FAddZ      L2  | Fla 9 1 0,1,2 0,0,0 | Fla 9 1 0,1,8 0,0,0 | Fla 9 1 0,1,32 0,0,0",
        "FAddZ      Hbm | Fla 9 1 0,1,2 0,0,0 | Fla 9 1 0,1,8 0,0,0 | Fla 9 1 0,1,32 0,0,0",
        "FSubZ      L1  | Fla 9 1 0,1,2 0,0,0 | Fla 9 1 0,1,8 0,0,0 | Fla 9 1 0,1,32 0,0,0",
        "FSubZ      L2  | Fla 9 1 0,1,2 0,0,0 | Fla 9 1 0,1,8 0,0,0 | Fla 9 1 0,1,32 0,0,0",
        "FSubZ      Hbm | Fla 9 1 0,1,2 0,0,0 | Fla 9 1 0,1,8 0,0,0 | Fla 9 1 0,1,32 0,0,0",
        "FMulZ      L1  | Fla 9 1 0,1,2 0,0,0 | Fla 9 1 0,1,8 0,0,0 | Fla 9 1 0,1,32 0,0,0",
        "FMulZ      L2  | Fla 9 1 0,1,2 0,0,0 | Fla 9 1 0,1,8 0,0,0 | Fla 9 1 0,1,32 0,0,0",
        "FMulZ      Hbm | Fla 9 1 0,1,2 0,0,0 | Fla 9 1 0,1,8 0,0,0 | Fla 9 1 0,1,32 0,0,0",
        "FMlaZ      L1  | Fla 9 1 0,2,4 0,0,0 | Fla 9 1 0,2,16 0,0,0 | Fla 9 1 0,2,64 0,0,0",
        "FMlaZ      L2  | Fla 9 1 0,2,4 0,0,0 | Fla 9 1 0,2,16 0,0,0 | Fla 9 1 0,2,64 0,0,0",
        "FMlaZ      Hbm | Fla 9 1 0,2,4 0,0,0 | Fla 9 1 0,2,16 0,0,0 | Fla 9 1 0,2,64 0,0,0",
        "FMlsZ      L1  | Fla 9 1 0,2,4 0,0,0 | Fla 9 1 0,2,16 0,0,0 | Fla 9 1 0,2,64 0,0,0",
        "FMlsZ      L2  | Fla 9 1 0,2,4 0,0,0 | Fla 9 1 0,2,16 0,0,0 | Fla 9 1 0,2,64 0,0,0",
        "FMlsZ      Hbm | Fla 9 1 0,2,4 0,0,0 | Fla 9 1 0,2,16 0,0,0 | Fla 9 1 0,2,64 0,0,0",
        "FNegZ      L1  | Fla 4 1 0,1,2 0,0,0 | Fla 4 1 0,1,8 0,0,0 | Fla 4 1 0,1,32 0,0,0",
        "FNegZ      L2  | Fla 4 1 0,1,2 0,0,0 | Fla 4 1 0,1,8 0,0,0 | Fla 4 1 0,1,32 0,0,0",
        "FNegZ      Hbm | Fla 4 1 0,1,2 0,0,0 | Fla 4 1 0,1,8 0,0,0 | Fla 4 1 0,1,32 0,0,0",
        "FaddvD     L1  | Fla 49 1 0,0,1 0,0,0 | Fla 49 1 0,0,7 0,0,0 | Fla 49 1 0,0,31 0,0,0",
        "FaddvD     L2  | Fla 49 1 0,0,1 0,0,0 | Fla 49 1 0,0,7 0,0,0 | Fla 49 1 0,0,31 0,0,0",
        "FaddvD     Hbm | Fla 49 1 0,0,1 0,0,0 | Fla 49 1 0,0,7 0,0,0 | Fla 49 1 0,0,31 0,0,0",
        "IncdX      L1  | Int 2 1 0,0,0 0,0,0 | Int 2 1 0,0,0 0,0,0 | Int 2 1 0,0,0 0,0,0",
        "IncdX      L2  | Int 2 1 0,0,0 0,0,0 | Int 2 1 0,0,0 0,0,0 | Int 2 1 0,0,0 0,0,0",
        "IncdX      Hbm | Int 2 1 0,0,0 0,0,0 | Int 2 1 0,0,0 0,0,0 | Int 2 1 0,0,0 0,0,0",
        "CntdX      L1  | Int 2 1 0,0,0 0,0,0 | Int 2 1 0,0,0 0,0,0 | Int 2 1 0,0,0 0,0,0",
        "CntdX      L2  | Int 2 1 0,0,0 0,0,0 | Int 2 1 0,0,0 0,0,0 | Int 2 1 0,0,0 0,0,0",
        "CntdX      Hbm | Int 2 1 0,0,0 0,0,0 | Int 2 1 0,0,0 0,0,0 | Int 2 1 0,0,0 0,0,0",
    ];

    #[test]
    fn every_cost_row_is_pinned() {
        let m = SchedModel::A64FX;
        let mut names: Vec<String> = Vec::new();
        let mut rows = ROWS.iter();
        for i in every_variant() {
            let name = format!("{i:?}").split(' ').next().unwrap_or_default().to_string();
            for level in [MemLevel::L1, MemLevel::L2, MemLevel::Hbm] {
                let mut got = format!("{name:<10} {:<3}", format!("{level:?}"));
                for lanes in [2, 8, 32] {
                    let p = m.props(&i, lanes, level);
                    let (f, b) = (p.flops, p.bytes);
                    got += &format!(
                        " | {:?} {} {} {},{},{} {},{},{}",
                        p.unit,
                        p.latency,
                        p.occupancy,
                        f.at(0),
                        f.at(1),
                        f.at(lanes),
                        b.at(0),
                        b.at(1),
                        b.at(lanes)
                    );
                }
                assert_eq!(Some(&got.as_str()), rows.next(), "cost row of {i:?} at {level:?}");
            }
            names.push(name);
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 36, "every variant once");
    }

    #[test]
    fn total_rate_shrinks_down_the_hierarchy() {
        let m = SchedModel::A64FX;
        assert!(m.total_mem_rate(MemLevel::L1) > m.total_mem_rate(MemLevel::L2));
        assert!(m.total_mem_rate(MemLevel::L2) > m.total_mem_rate(MemLevel::Hbm));
    }
}
