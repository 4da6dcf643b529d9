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

/// Static issue properties of one dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrProps {
    /// Which unit class executes it.
    pub unit: Unit,
    /// Cycles from issue to result availability.
    pub latency: u64,
    /// Cycles the chosen pipe stays busy.
    pub occupancy: u64,
    /// Bytes moved to/from memory (0 for non-memory instructions).
    pub mem_bytes: u64,
    /// Double-precision flops performed.
    pub flops: u64,
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

    fn load_props(&self, vec: bool, bytes: u64, level: MemLevel, gather_elems: u64) -> InstrProps {
        let base_lat = if vec { self.load_vec_latency } else { self.load_scalar_latency };
        let extra = match level {
            MemLevel::L1 => 0,
            MemLevel::L2 => self.l2_extra_latency,
            MemLevel::Hbm => self.hbm_extra_latency,
        };
        // A gather cracks into one micro-access per active element pair;
        // streaming bandwidth is charged by the executor's limiter, so a
        // unit-stride access occupies its pipe for a single cycle.
        let occ = 1.max(gather_elems / 2);
        InstrProps {
            unit: Unit::Ls,
            latency: base_lat + extra,
            occupancy: occ,
            mem_bytes: bytes,
            flops: 0,
        }
    }

    fn store_props(&self, bytes: u64, _level: MemLevel) -> InstrProps {
        InstrProps { unit: Unit::Ls, latency: 1, occupancy: 1, mem_bytes: bytes, flops: 0 }
    }

    /// Issue properties of one dynamic instruction, given the current
    /// vector length (`lanes` f64 per register), the number of active
    /// lanes in its governing predicate, and the residency level of the
    /// kernel's working set.
    pub fn props(&self, i: &Instr, lanes: u64, active: u64, level: MemLevel) -> InstrProps {
        use Instr::*;
        let fla = |latency: u64, flops: u64| InstrProps {
            unit: Unit::Fla,
            latency,
            occupancy: 1,
            mem_bytes: 0,
            flops,
        };
        let int1 = InstrProps { unit: Unit::Int, latency: 1, occupancy: 1, mem_bytes: 0, flops: 0 };
        match i {
            MovXI { .. } | MovX { .. } | AddXI { .. } | AddX { .. } => int1,
            MulXI { .. } => InstrProps { latency: 5, ..int1 },
            IncdX { .. } | CntdX { .. } => InstrProps { latency: 2, ..int1 },

            FMovDI { .. } | FMovD { .. } => fla(4, 0),
            FAddD { .. } | FSubD { .. } | FMulD { .. } => fla(self.fla_scalar_latency, 1),
            FMaddD { .. } => fla(self.fla_scalar_latency, 2),
            FNegD { .. } => fla(4, 1),

            LdrD { .. } | LdrDScaled { .. } => self.load_props(false, 8, level, 0),
            StrD { .. } | StrDScaled { .. } => self.store_props(8, level),

            B { .. } | BLtX { .. } | BGeX { .. } => {
                InstrProps { unit: Unit::Br, latency: 1, occupancy: 1, mem_bytes: 0, flops: 0 }
            }

            PtrueD { .. } => InstrProps {
                unit: Unit::Pred,
                latency: 2,
                occupancy: self.pred_occupancy,
                mem_bytes: 0,
                flops: 0,
            },
            WhileltD { .. } => InstrProps {
                unit: Unit::Pred,
                latency: 4,
                occupancy: self.pred_occupancy,
                mem_bytes: 0,
                flops: 0,
            },

            DupZD { .. } | DupZI { .. } | MovZ { .. } => fla(4, 0),
            Ld1d { .. } => self.load_props(true, 8 * active, level, 0),
            St1d { .. } => self.store_props(8 * active, level),
            Ld1dGather { .. } => self.load_props(true, 8 * active, level, lanes),

            FAddZ { .. } | FSubZ { .. } | FMulZ { .. } => fla(self.fla_vec_latency, active),
            FMlaZ { .. } | FMlsZ { .. } => fla(self.fla_vec_latency, 2 * active),
            FNegZ { .. } => fla(4, active),
            FaddvD { .. } => fla(self.faddv_latency, active.saturating_sub(1)),
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

    #[test]
    fn sve_load_bytes_scale_with_active_lanes() {
        let m = SchedModel::A64FX;
        let ld = Instr::Ld1d { t: Z(0), pg: P(0), base: X(0), index: X(1) };
        let p8 = m.props(&ld, 8, 8, MemLevel::L1);
        let p3 = m.props(&ld, 8, 3, MemLevel::L1);
        assert_eq!(p8.mem_bytes, 64);
        assert_eq!(p3.mem_bytes, 24);
    }

    #[test]
    fn load_latency_grows_down_the_hierarchy() {
        let m = SchedModel::A64FX;
        let ld = Instr::LdrD { d: D(0), base: X(0), offset: 0 };
        let l1 = m.props(&ld, 8, 8, MemLevel::L1).latency;
        let l2 = m.props(&ld, 8, 8, MemLevel::L2).latency;
        let hbm = m.props(&ld, 8, 8, MemLevel::Hbm).latency;
        assert!(l1 < l2 && l2 < hbm);
    }

    #[test]
    fn total_rate_shrinks_down_the_hierarchy() {
        let m = SchedModel::A64FX;
        assert!(m.total_mem_rate(MemLevel::L1) > m.total_mem_rate(MemLevel::L2));
        assert!(m.total_mem_rate(MemLevel::L2) > m.total_mem_rate(MemLevel::Hbm));
    }

    #[test]
    fn gather_cracks_into_micro_ops() {
        let m = SchedModel::A64FX;
        let g = Instr::Ld1dGather { t: Z(0), pg: P(0), base: X(0), idx: Z(1) };
        let u = Instr::Ld1d { t: Z(0), pg: P(0), base: X(0), index: X(1) };
        assert!(
            m.props(&g, 8, 8, MemLevel::L1).occupancy > m.props(&u, 8, 8, MemLevel::L1).occupancy
        );
    }

    #[test]
    fn fma_counts_two_flops_per_active_lane() {
        let m = SchedModel::A64FX;
        let fmla = Instr::FMlaZ { da: Z(0), pg: P(0), n: Z(1), m: Z(2) };
        assert_eq!(m.props(&fmla, 8, 8, MemLevel::L1).flops, 16);
        assert_eq!(m.props(&fmla, 8, 5, MemLevel::L1).flops, 10);
    }

    #[test]
    fn faddv_is_expensive() {
        let m = SchedModel::A64FX;
        let v = Instr::FaddvD { d: D(0), pg: P(0), n: Z(0) };
        assert!(m.props(&v, 8, 8, MemLevel::L1).latency >= 40);
    }
}
