//! Compiler profiles: the stand-ins for the four toolchain configurations
//! of the paper.
//!
//! Table I of the paper compares executables produced by the GNU 11.1.0,
//! Fujitsu 4.5, and Cray 21.03 compilers, the last both with and without
//! `-O3`/SVE.  We cannot run those toolchains, so each becomes a
//! [`CompilerProfile`]: a small set of parameters describing
//!
//! * how well the generated code *vectorizes* (fraction of peak SVE
//!   throughput achieved on vectorizable kernels, or none at all for the
//!   unoptimized build),
//! * how efficient the *scalar* code is (in-order A64FX cores are very
//!   sensitive to scheduling quality),
//! * how much of the machine's streaming bandwidth the code sustains
//!   (software prefetch and loop structure differ a lot between these
//!   compilers on A64FX),
//! * per-element and per-call loop/abstraction overhead (V2D's abstracted
//!   linear-algebra operators are exactly the overhead the paper blames for
//!   the smaller-than-expected full-code speedup), and
//! * the cost curves of the MPI stack each compiler environment was paired
//!   with (Cray ships its own MPICH; GNU used MVAPICH/OpenMPI; Fujitsu its
//!   tuned MPI).
//!
//! The constants below were calibrated (see `v2d-bench calibrate`, in
//! `crates/bench/src/breakdown.rs`, and `EXPERIMENTS.md`) so the reproduced Table I matches the paper's
//! *shape*: GNU ≈ 2× Cray-opt serially, Cray-noopt/Cray-opt ≈ 1.45,
//! Cray fastest at ≤ 25 ranks, Fujitsu fastest at ≥ 40 ranks, GNU and Cray
//! times rising again by 50 ranks, and squarer process topologies beating
//! strip topologies at equal rank count.

use crate::model::MemLevel;

/// Identifies one of the four compiler configurations studied in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CompilerId {
    /// GNU 11.1.0, `-O3` with SVE auto-vectorization (which largely fails
    /// on V2D's stencil loops).
    Gnu,
    /// Fujitsu 4.5 in Clang mode, full SVE optimization.
    Fujitsu,
    /// Cray 21.03 with `-O3` and SVE enabled.
    CrayOpt,
    /// Cray 21.03 with neither `-O3` nor SVE.
    CrayNoOpt,
}

impl CompilerId {
    /// Short label used in tables (matches the paper's column headers).
    pub fn label(self) -> &'static str {
        match self {
            CompilerId::Gnu => "GNU",
            CompilerId::Fujitsu => "Fujitsu",
            CompilerId::CrayOpt => "Cray (opt)",
            CompilerId::CrayNoOpt => "Cray (no-opt)",
        }
    }

    /// Identifier-safe slug used in metric names and report keys.
    pub fn slug(self) -> &'static str {
        match self {
            CompilerId::Gnu => "gnu",
            CompilerId::Fujitsu => "fujitsu",
            CompilerId::CrayOpt => "cray_opt",
            CompilerId::CrayNoOpt => "cray_noopt",
        }
    }
}

/// Cost model of the MPI implementation paired with a compiler environment.
///
/// All times in seconds.  A `k`-double allreduce over `p` ranks costs
/// `(base + per_hop·⌈log₂ p⌉ + per_rank·p) + 8k/bandwidth` — the `per_rank`
/// term models the contention/progression overhead that makes the Cray and
/// GNU stacks degrade visibly between 40 and 50 ranks in Table I, while the
/// Fujitsu stack stays nearly flat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpiCostModel {
    /// Fixed software overhead per point-to-point message (s).
    pub p2p_latency: f64,
    /// Point-to-point payload bandwidth (bytes/s).
    pub p2p_bandwidth: f64,
    /// Fixed cost of entering any collective (s).
    pub coll_base: f64,
    /// Added cost per tree hop (⌈log₂ p⌉ hops) of a collective (s).
    pub coll_per_hop: f64,
    /// Added cost per participating rank of a collective (s); the
    /// linear contention term.
    pub coll_per_rank: f64,
    /// Added cost per rank *squared* (s): progression/contention that
    /// compounds with scale.  This is what makes the Cray and GNU stacks
    /// roll over between 40 and 50 ranks in Table I while Fujitsu's
    /// tuned MPI stays flat.
    pub coll_per_rank2: f64,
    /// Collective payload bandwidth (bytes/s).
    pub coll_bandwidth: f64,
}

impl MpiCostModel {
    /// Cost of a point-to-point message of `bytes` payload.
    pub fn p2p_secs(&self, bytes: usize) -> f64 {
        self.p2p_latency + bytes as f64 / self.p2p_bandwidth
    }

    /// Cost of an allreduce-style collective of `bytes` payload over
    /// `ranks` participants.
    pub fn collective_secs(&self, bytes: usize, ranks: usize) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        let hops = (ranks as f64).log2().ceil();
        self.coll_base
            + self.coll_per_hop * hops
            + self.coll_per_rank * ranks as f64
            + self.coll_per_rank2 * (ranks * ranks) as f64
            + bytes as f64 / self.coll_bandwidth
    }
}

/// Performance model of one compiler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompilerProfile {
    /// Which Table I column this profile reproduces.
    pub id: CompilerId,
    /// Whether the build uses SVE vectorization at all.
    pub vectorize: bool,
    /// Fraction of the machine's peak SVE FLOP rate achieved on
    /// vectorizable kernels (quality of the generated vector code).
    pub vec_efficiency: f64,
    /// Fraction of the machine's peak scalar FLOP rate achieved on scalar
    /// (or non-vectorized) code.
    pub scalar_efficiency: f64,
    /// Fraction of machine streaming bandwidth sustained per memory level
    /// (indexed L1, L2, HBM) — software prefetch / loop structure quality.
    pub mem_fraction: [f64; 3],
    /// Overhead cycles charged per array element in vectorized kernels
    /// (loop control, predicate handling, address arithmetic).
    pub elem_overhead_vec: f64,
    /// Overhead cycles per element in scalar kernels (in-order stalls,
    /// Fortran array-descriptor indexing).
    pub elem_overhead_scalar: f64,
    /// Fixed cycles per kernel invocation (call through V2D's abstracted
    /// operator interface).
    pub call_overhead: f64,
    /// The MPI stack paired with this environment.
    pub mpi: MpiCostModel,
}

impl CompilerProfile {
    /// Fraction of machine bandwidth sustained at `level`.
    pub fn mem_fraction(&self, level: MemLevel) -> f64 {
        match level {
            MemLevel::L1 => self.mem_fraction[0],
            MemLevel::L2 => self.mem_fraction[1],
            MemLevel::Hbm => self.mem_fraction[2],
        }
    }

    /// The GNU 11.1.0 `-O3` configuration.
    ///
    /// GNU's auto-vectorizer handled V2D's gathered stencil accesses and
    /// reduction loops poorly in 2021-era releases, so although SVE code is
    /// emitted for the simple saxpy-style loops, effective vector
    /// efficiency is low and scalar scheduling for the in-order A64FX
    /// pipeline is weak.
    pub fn gnu() -> Self {
        CompilerProfile {
            id: CompilerId::Gnu,
            vectorize: true,
            vec_efficiency: 0.045,
            scalar_efficiency: 0.26,
            mem_fraction: [0.55, 0.50, 0.45],
            elem_overhead_vec: 1.85,
            elem_overhead_scalar: 2.4,
            call_overhead: 220.0,
            mpi: MpiCostModel {
                p2p_latency: 2.0e-6,
                // Effective small-message halo bandwidth (eager-path copy
                // costs included) — GNU/MVAPICH was the weakest stack.
                p2p_bandwidth: 30.0e6,
                coll_base: 2.0e-6,
                coll_per_hop: 2.0e-6,
                coll_per_rank: 0.0,
                coll_per_rank2: 0.095e-6,
                coll_bandwidth: 1.0e9,
            },
        }
    }

    /// The Fujitsu 4.5 configuration with full SVE optimization.
    ///
    /// Fujitsu's compiler is co-designed with the A64FX; its vector code and
    /// software prefetch are good, and its MPI progression scales almost
    /// flat to 50 ranks (the paper's Table I shows Fujitsu winning every
    /// configuration from 40 ranks up).
    pub fn fujitsu() -> Self {
        CompilerProfile {
            id: CompilerId::Fujitsu,
            vectorize: true,
            vec_efficiency: 0.115,
            scalar_efficiency: 0.38,
            mem_fraction: [0.80, 0.72, 0.62],
            elem_overhead_vec: 1.28,
            elem_overhead_scalar: 1.64,
            call_overhead: 160.0,
            mpi: MpiCostModel {
                p2p_latency: 2.0e-6,
                p2p_bandwidth: 110.0e6,
                // Higher fixed cost per collective, but essentially no
                // growth with rank count: the flat Fujitsu rows of
                // Table I.
                coll_base: 40.0e-6,
                coll_per_hop: 7.0e-6,
                coll_per_rank: 0.0,
                coll_per_rank2: 0.0,
                coll_bandwidth: 2.0e9,
            },
        }
    }

    /// Cray 21.03 with `-O3` and SVE: the fastest serial executable in the
    /// paper, but paired with an MPI whose collectives degrade beyond ~25
    /// ranks on this fabric.
    pub fn cray_opt() -> Self {
        CompilerProfile {
            id: CompilerId::CrayOpt,
            vectorize: true,
            vec_efficiency: 0.16,
            scalar_efficiency: 0.48,
            mem_fraction: [0.90, 0.82, 0.72],
            elem_overhead_vec: 0.89,
            elem_overhead_scalar: 1.39,
            call_overhead: 140.0,
            mpi: MpiCostModel {
                p2p_latency: 2.0e-6,
                p2p_bandwidth: 50.0e6,
                coll_base: 10.0e-6,
                coll_per_hop: 4.0e-6,
                coll_per_rank: 0.0,
                coll_per_rank2: 0.082e-6,
                coll_bandwidth: 1.5e9,
            },
        }
    }

    /// Cray 21.03 with neither `-O3` nor SVE: same MPI stack as
    /// [`CompilerProfile::cray_opt`], scalar-only code with unoptimized
    /// scheduling.  Table I measured this at ≈ 1.45× the optimized Cray
    /// time serially.
    pub fn cray_noopt() -> Self {
        CompilerProfile {
            id: CompilerId::CrayNoOpt,
            vectorize: false,
            vec_efficiency: 0.0,
            scalar_efficiency: 0.33,
            mem_fraction: [0.70, 0.62, 0.52],
            elem_overhead_vec: 1.31,
            elem_overhead_scalar: 1.31,
            call_overhead: 260.0,
            mpi: CompilerProfile::cray_opt().mpi,
        }
    }

    /// Look a profile up by id.
    pub fn of(id: CompilerId) -> Self {
        match id {
            CompilerId::Gnu => Self::gnu(),
            CompilerId::Fujitsu => Self::fujitsu(),
            CompilerId::CrayOpt => Self::cray_opt(),
            CompilerId::CrayNoOpt => Self::cray_noopt(),
        }
    }
}

/// The four Table I compiler configurations, in the paper's column order.
pub const ALL_COMPILERS: [CompilerId; 4] =
    [CompilerId::Gnu, CompilerId::Fujitsu, CompilerId::CrayOpt, CompilerId::CrayNoOpt];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_columns() {
        assert_eq!(CompilerId::Gnu.label(), "GNU");
        assert_eq!(CompilerId::CrayNoOpt.label(), "Cray (no-opt)");
    }

    #[test]
    fn only_cray_noopt_is_unvectorized() {
        for id in ALL_COMPILERS {
            let p = CompilerProfile::of(id);
            assert_eq!(p.vectorize, id != CompilerId::CrayNoOpt);
            assert_eq!(p.id, id);
        }
    }

    #[test]
    fn cray_opt_has_best_codegen() {
        let cray = CompilerProfile::cray_opt();
        for other in
            [CompilerProfile::gnu(), CompilerProfile::fujitsu(), CompilerProfile::cray_noopt()]
        {
            assert!(cray.vec_efficiency >= other.vec_efficiency);
            assert!(cray.scalar_efficiency >= other.scalar_efficiency);
        }
    }

    #[test]
    fn fujitsu_collectives_scale_flattest() {
        // The defining feature of Table I's large-rank rows: Fujitsu's
        // collective cost grows far slower with rank count.
        let f = CompilerProfile::fujitsu().mpi;
        let c = CompilerProfile::cray_opt().mpi;
        let g = CompilerProfile::gnu().mpi;
        let growth = |m: &MpiCostModel| m.collective_secs(16, 50) - m.collective_secs(16, 10);
        assert!(growth(&f) < 0.5 * growth(&c));
        assert!(growth(&f) < 0.5 * growth(&g));
    }

    #[test]
    fn collective_cost_is_zero_for_single_rank() {
        let m = CompilerProfile::cray_opt().mpi;
        assert_eq!(m.collective_secs(1024, 1), 0.0);
    }

    #[test]
    fn collective_cost_increases_with_ranks_and_bytes() {
        let m = CompilerProfile::gnu().mpi;
        assert!(m.collective_secs(16, 4) < m.collective_secs(16, 16));
        assert!(m.collective_secs(16, 16) < m.collective_secs(1 << 20, 16));
    }

    #[test]
    fn p2p_cost_has_latency_floor() {
        let m = CompilerProfile::fujitsu().mpi;
        assert!(m.p2p_secs(0) > 0.0);
        assert!(m.p2p_secs(8) < m.p2p_secs(1 << 20));
    }

    #[test]
    fn mem_fractions_are_sane() {
        for id in ALL_COMPILERS {
            let p = CompilerProfile::of(id);
            for f in p.mem_fraction {
                assert!(f > 0.0 && f <= 1.0, "{:?} mem fraction {f} out of range", id);
            }
        }
    }
}
