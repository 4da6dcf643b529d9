//! The V2D simulation driver.
//!
//! [`V2dSim`] owns the per-rank state (radiation field, optional hydro
//! state, grid view) and advances it: an explicit hydro step (when
//! enabled) followed by the implicit radiation update with its three
//! BiCGSTAB solves.  A TAU-style [`Profiler`] wraps the phases so the
//! paper's §II-E breakdown (three BiCGSTAB call sites at roughly equal
//! thirds) can be reproduced with `profiler_report`.

use v2d_comm::{coll_site, CartComm, Comm, CommError, ReduceOp, TileMap};
use v2d_linalg::{SolveOpts, TileVec};
use v2d_machine::{
    AttrVal, ExecCtx, FaultInjector, FaultKind, FaultRecord, FieldFault, MultiCostSink, TraceSink,
};
use v2d_obs::{RunReport, Tracer};
use v2d_perf::Profiler;

use crate::checkpoint::{gather_checkpoint, CheckpointError, CheckpointStore};
use crate::grid::{Grid2, LocalGrid};
use crate::hydro::{CflError, GammaLaw, HydroState, HydroStepper, Unphysical};
use crate::limiter::Limiter;
use crate::opacity::OpacityModel;
use crate::rad::coupling::MatterCoupling;
use crate::rad::stepper::{RadStepError, RadStepStats, RadStepper, RadWorkspace};

/// Which preconditioner the radiation solves use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecondKind {
    /// None (baseline).
    None,
    /// Point-Jacobi.
    Jacobi,
    /// 2×2 species-block inverse (SPAI on the block-diagonal pattern).
    BlockJacobi,
    /// Full stencil-pattern sparse approximate inverse.
    Spai,
}

/// Optional hydrodynamics configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HydroConfig {
    pub gamma: f64,
    pub cfl: f64,
    /// Physical boundary conditions (defaulted to outflow by the
    /// problem setups that don't care).
    pub bc: crate::hydro::HydroBc,
}

/// Full simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct V2dConfig {
    /// The global grid.
    pub grid: Grid2,
    /// Radiation microphysics.
    pub limiter: Limiter,
    pub opacity: OpacityModel,
    pub c_light: f64,
    /// Fixed timestep and step count.
    pub dt: f64,
    pub n_steps: usize,
    /// Solver configuration.
    pub precond: PrecondKind,
    pub solve: SolveOpts,
    /// Hydrodynamics (None = frozen, as in the paper's radiation test).
    pub hydro: Option<HydroConfig>,
    /// Matter–radiation energy exchange (None = matter is a passive
    /// background, as in the paper's test problem).  Currently exclusive
    /// with `hydro` (coupled gas-energy feedback into the flow is listed
    /// as future work, mirroring the paper's own scoping).
    pub coupling: Option<MatterCoupling>,
}

impl V2dConfig {
    /// The most ranks an axis of `zones` zones can be split across.
    /// Each rank fills its neighbors' ghost frames from zones it owns,
    /// so with hydro every tile must be at least
    /// [`crate::hydro::GHOST_DEPTH`] zones wide; radiation needs one.
    pub fn max_ranks_along(&self, zones: usize) -> usize {
        zones / if self.hydro.is_some() { crate::hydro::GHOST_DEPTH } else { 1 }
    }
}

/// Bounds on the driver's recovery ladder when a radiation solve fails
/// through the entire cascade.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPolicy {
    /// Maximum timestep halvings within one step before giving up.
    pub max_dt_halvings: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_dt_halvings: 3 }
    }
}

/// The most explicit hydro sub-steps one step may take.  The goldens
/// take at most 29 (Kelvin–Helmholtz at 48×32 in `table_scenarios`)
/// and the convergence ladder at most 57 (Kelvin–Helmholtz at 96×64);
/// the bound sits well over 100× above both, so it only stops runs
/// that would otherwise never finish a step.
pub const MAX_HYDRO_SUBSTEPS: usize = 10_000;

/// A step whose recovery ladder (non-finite scrub, bounded timestep
/// halving) was exhausted, or whose hydro sub-cycling ran past
/// [`MAX_HYDRO_SUBSTEPS`].
#[derive(Debug)]
pub enum StepError {
    /// The radiation update failed even at the smallest allowed dt.
    Radiation {
        istep: usize,
        /// The sub-timestep of the final, failed attempt.
        dt: f64,
        error: RadStepError,
    },
    /// The communicator itself failed (lockstep mismatch, collective or
    /// receive timeout, peer death).  The recovery ladder cannot retry:
    /// its own scrub/halve decision is a collective, and the
    /// communicator's collectives are sticky-poisoned — the run is over
    /// on every rank, each holding a typed verdict instead of a hang.
    Comm { istep: usize, error: CommError },
    /// The explicit hydro needed more than [`MAX_HYDRO_SUBSTEPS`] CFL
    /// sub-steps to cover the step (a vanishing CFL number or signal
    /// speed blow-up); `advanced` is the hydro time it covered of `dt`.
    HydroSubsteps { istep: usize, advanced: f64, dt: f64 },
    /// A hydro zone's conserved state has no primitive form (its density
    /// or pressure is not positive): the flow blew up.
    Unphysical { istep: usize, error: Unphysical },
    /// This rank was killed by its fault plan (`RankKill`, or
    /// `RankStallForever` when `stalled`) at the top of step `istep`.
    /// Its comm endpoint is already retired — peers resolve into
    /// [`CommError::RankDead`] — and the body must return without
    /// touching the communicator again.  Only the supervisor
    /// (`v2d_core::supervise`) can recover from this, by relaunching.
    Lost { istep: usize, stalled: bool },
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Radiation { istep, dt, error } => {
                write!(f, "step {istep}: radiation update failed at dt = {dt:.3e}: {error}")
            }
            StepError::Comm { istep, error } => {
                write!(f, "step {istep}: communicator failed: {error}")
            }
            StepError::HydroSubsteps { istep, advanced, dt } => write!(
                f,
                "step {istep}: hydro exceeded {MAX_HYDRO_SUBSTEPS} CFL sub-steps, \
                 covering {advanced:.3e} of dt = {dt:.3e}"
            ),
            StepError::Unphysical { istep, error } => {
                write!(f, "step {istep}: unphysical hydro state: {error}")
            }
            StepError::Lost { istep, stalled: false } => {
                write!(f, "step {istep}: rank killed by fault plan")
            }
            StepError::Lost { istep, stalled: true } => {
                write!(f, "step {istep}: rank stalled forever by fault plan")
            }
        }
    }
}

impl std::error::Error for StepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StepError::Radiation { error, .. } => Some(error),
            StepError::Comm { error, .. } => Some(error),
            StepError::Unphysical { error, .. } => Some(error),
            StepError::HydroSubsteps { .. } | StepError::Lost { .. } => None,
        }
    }
}

/// One step's outcome.
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    /// The three radiation solves (of the last radiation sub-step, when
    /// recovery subcycled).
    pub rad: RadStepStats,
    /// Hydro CFL timestep actually taken (if hydro is enabled).
    pub hydro_dt: Option<f64>,
    /// Radiation sub-steps taken (1 on the fault-free fast path).
    pub rad_substeps: usize,
    /// Recovery actions performed this step (scrubs + dt halvings).
    pub recoveries: u32,
}

impl StepStats {
    /// Every recovery of the step: its own scrubs and dt halvings plus
    /// the solver fallbacks of its three solves.
    pub fn all_recoveries(&self) -> u32 {
        self.recoveries + self.rad.stages.iter().map(|s| s.recoveries).sum::<u32>()
    }
}

/// Whole-run aggregate.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    pub steps: usize,
    pub total_solves: usize,
    pub total_iters: usize,
    pub total_reductions: usize,
    /// Recovery actions (solver fallbacks, scrubs, dt halvings) across
    /// the run; 0 on a fault-free run.
    pub total_recoveries: u32,
}

impl RunStats {
    /// Fold one step's outcome into the aggregate.
    pub fn absorb(&mut self, st: &StepStats) {
        self.steps += 1;
        self.total_solves += 3;
        self.total_iters += st.rad.total_iters();
        self.total_reductions += st.rad.stages.iter().map(|s| s.reductions).sum::<usize>();
        self.total_recoveries += st.all_recoveries();
    }
}

/// How [`V2dSim::run_checkpointed`] ended.
#[derive(Debug)]
#[must_use]
pub struct RunEnd {
    /// The completed steps, folded.
    pub stats: RunStats,
    /// The step, or rolling checkpoint gather, that ended the run early;
    /// this rank's comm endpoint is retired.
    pub error: Option<StepError>,
    /// The first rolling save that failed; no later save was tried.
    pub save_error: Option<CheckpointError>,
}

/// Per-rank simulation state.
pub struct V2dSim {
    cfg: V2dConfig,
    cart: CartComm,
    grid: LocalGrid,
    erad: TileVec,
    source: TileVec,
    hydro: Option<(HydroStepper, HydroState)>,
    /// Gas temperature field when matter coupling is active.
    temp: Option<TileVec>,
    time: f64,
    istep: usize,
    /// Reusable solver + stepper scratch (one per rank; reused across
    /// all solves of the run).
    wks: RadWorkspace,
    /// Deterministic fault injector (None on production runs — the
    /// zero-overhead fast path).
    faults: Option<FaultInjector>,
    /// Bounds on the step-level recovery ladder.
    recovery: RecoveryPolicy,
    /// Virtual-clock tracer (None on production runs; when attached,
    /// every kernel charge, phase span, solver event, and recovery
    /// action is recorded against the modeled clocks).
    tracer: Option<Tracer>,
    /// TAU-style profiler over compiler lane 0.
    pub profiler: Profiler,
}

impl V2dSim {
    /// Create the rank-local simulation for `comm`'s rank under the
    /// given process topology.
    pub fn new(cfg: V2dConfig, comm: &Comm, map: TileMap) -> Self {
        assert_eq!(map.n1, cfg.grid.n1, "tile map does not match grid");
        assert_eq!(map.n2, cfg.grid.n2, "tile map does not match grid");
        let cart = CartComm::new(comm, map);
        let tile = cart.tile();
        let grid = LocalGrid::new(cfg.grid, tile);
        assert!(
            !(cfg.hydro.is_some() && cfg.coupling.is_some()),
            "matter coupling with live hydrodynamics is not supported yet"
        );
        let hydro = cfg.hydro.map(|h| {
            let eos = GammaLaw::new(h.gamma);
            let state = HydroState::from_prim(tile.n1, tile.n2, &eos, |_, _| {
                crate::hydro::eos::Prim { rho: 1.0, u1: 0.0, u2: 0.0, p: 1.0 }
            });
            (HydroStepper::new(eos, h.cfl).with_bc(h.bc), state)
        });
        let temp = cfg.coupling.map(|_| {
            let mut t = TileVec::with_shape(tile.n1, tile.n2, 1, 1);
            t.fill_interior(1.0);
            t
        });
        V2dSim {
            cfg,
            cart,
            grid,
            erad: TileVec::new(tile.n1, tile.n2),
            source: TileVec::new(tile.n1, tile.n2),
            hydro,
            temp,
            time: 0.0,
            istep: 0,
            wks: RadWorkspace::new(tile.n1, tile.n2),
            faults: None,
            recovery: RecoveryPolicy::default(),
            tracer: None,
            profiler: Profiler::new(),
        }
    }

    /// Attach a virtual-clock tracer.  An attached tracer never perturbs
    /// the modeled clocks or the profiler report — it only observes.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Detach and return the tracer (e.g. to export a Chrome trace).
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Attach a deterministic fault injector; its plan replays at exact
    /// `(step, rank)` coordinates.  An injector over an empty plan is
    /// bit-invisible: outputs match a run with no injector at all.
    pub fn set_fault_injector(&mut self, inj: FaultInjector) {
        self.faults = Some(inj);
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Mutable access to the attached injector, for drivers that poll
    /// fault classes the step loop itself does not consume (e.g.
    /// [`FaultKind::CorruptCheckpoint`] after persisting a checkpoint).
    pub fn fault_injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.faults.as_mut()
    }

    /// Drain the injector's fired-fault/recovery log (empty without an
    /// injector).
    pub fn take_fault_log(&mut self) -> Vec<FaultRecord> {
        self.faults.as_mut().map(|inj| std::mem::take(&mut inj.log)).unwrap_or_default()
    }

    /// Replace the step-level recovery bounds.
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
    }

    /// The configuration.
    pub fn config(&self) -> &V2dConfig {
        &self.cfg
    }

    /// This rank's grid view.
    pub fn grid(&self) -> &LocalGrid {
        &self.grid
    }

    /// This rank's topology view.
    pub fn cart(&self) -> &CartComm {
        &self.cart
    }

    /// Radiation energy density field.
    pub fn erad(&self) -> &TileVec {
        &self.erad
    }

    /// Mutable radiation field (problem setup).
    pub fn erad_mut(&mut self) -> &mut TileVec {
        &mut self.erad
    }

    /// Mutable hydro state, if hydro is enabled.
    pub fn hydro_mut(&mut self) -> Option<&mut HydroState> {
        self.hydro.as_mut().map(|(_, s)| s)
    }

    /// Hydro state, if enabled.
    pub fn hydro(&self) -> Option<&HydroState> {
        self.hydro.as_ref().map(|(_, s)| s)
    }

    /// Gas temperature field, if matter coupling is enabled.
    pub fn temperature(&self) -> Option<&TileVec> {
        self.temp.as_ref()
    }

    /// Mutable gas temperature field (problem setup).
    pub fn temperature_mut(&mut self) -> Option<&mut TileVec> {
        self.temp.as_mut()
    }

    /// The evolved state, in checkpoint order: `(dataset path, field)`
    /// for the radiation field, the hydro fields when hydro is enabled,
    /// and the gas temperature when matter coupling is.
    pub fn fields(&self) -> Vec<(&'static str, &TileVec)> {
        let mut out = vec![("radiation/erad", &self.erad)];
        if let Some((_, h)) = &self.hydro {
            out.extend([
                ("hydro/rho", &h.rho),
                ("hydro/m1", &h.m1),
                ("hydro/m2", &h.m2),
                ("hydro/etot", &h.etot),
            ]);
        }
        out.extend(self.temp.as_ref().map(|t| ("coupling/temperature", t)));
        out
    }

    /// Mutable [`V2dSim::fields`], in the same order.
    pub(crate) fn fields_mut(&mut self) -> Vec<(&'static str, &mut TileVec)> {
        let mut out = vec![("radiation/erad", &mut self.erad)];
        if let Some((_, h)) = &mut self.hydro {
            out.extend([
                ("hydro/rho", &mut h.rho),
                ("hydro/m1", &mut h.m1),
                ("hydro/m2", &mut h.m2),
                ("hydro/etot", &mut h.etot),
            ]);
        }
        out.extend(self.temp.as_mut().map(|t| ("coupling/temperature", t)));
        out
    }

    /// Simulated physical time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps taken.
    pub fn istep(&self) -> usize {
        self.istep
    }

    /// Set time/step (checkpoint restore).
    pub(crate) fn set_time(&mut self, time: f64, istep: usize) {
        self.time = time;
        self.istep = istep;
    }

    /// Advance one timestep.  The public surface stays `(comm, sink)`;
    /// internally one [`ExecCtx`] carrying the simulation's profiler is
    /// threaded through the whole chain.
    ///
    /// Panics if the recovery ladder is exhausted; use
    /// [`V2dSim::try_step`] for a typed error instead.
    pub fn step(&mut self, comm: &Comm, sink: &mut MultiCostSink) -> StepStats {
        match self.try_step(comm, sink) {
            Ok(st) => st,
            Err(e) => panic!("unrecoverable simulation step: {e}"),
        }
    }

    /// [`V2dSim::step`] with graceful degradation: when the radiation
    /// update fails through the whole solver cascade, the driver first
    /// scrubs non-finite cells out of the radiation field (undoing
    /// upstream data poisoning) and retries, then subcycles with a
    /// halved sub-timestep, bounded by the [`RecoveryPolicy`].  Both
    /// recovery decisions are taken collectively so every rank walks
    /// the same ladder.  Only when the ladder is exhausted does the
    /// step surface a [`StepError`]; time and step count then remain
    /// unadvanced.
    pub fn try_step(
        &mut self,
        comm: &Comm,
        sink: &mut MultiCostSink,
    ) -> Result<StepStats, StepError> {
        if let Some(kind) = self.arm_step_faults(sink) {
            // Whole-rank death: retire the endpoint first so peer waits
            // resolve into typed `RankDead` instead of hanging, then
            // unwind without advancing time.
            comm.retire();
            let stalled = matches!(kind, v2d_machine::FaultKind::RankStallForever);
            return Err(StepError::Lost { istep: self.istep, stalled });
        }
        let istep = self.istep;
        let mut cx = ExecCtx::with_parts(
            sink,
            Some(&mut self.profiler),
            self.faults.as_mut(),
            self.tracer.as_mut().map(|t| t as &mut dyn TraceSink),
        );
        // The rank step function, decomposed: the borrow split below
        // hands the phase struct the simulation state disjoint from the
        // observability borrows riding in `cx`, and each phase runs from
        // one communication yield point to the next (the same seams the
        // rank scheduler dispatches on).
        let mut phases = StepPhases {
            cfg: &self.cfg,
            cart: &self.cart,
            grid: &self.grid,
            erad: &mut self.erad,
            source: &mut self.source,
            hydro: self.hydro.as_mut(),
            temp: self.temp.as_mut(),
            wks: &mut self.wks,
            recovery: self.recovery,
            istep,
        };
        let dt = phases.cfg.dt;
        let out = cx.span("step", &[("istep", AttrVal::U64(istep as u64))], |cx| {
            let hydro_dt = phases.hydro_phase(comm, cx, dt)?;
            phases.matter_emission_phase(cx);
            let (rad, rad_substeps, recoveries) = phases.radiation_phase(comm, cx, dt)?;
            phases.matter_update_phase(cx, dt);
            Ok(StepStats { rad, hydro_dt, rad_substeps, recoveries })
        });
        if out.is_ok() {
            self.time += dt;
            self.istep += 1;
        }
        out
    }

    /// Arm this step's scheduled faults and apply the ones aimed at the
    /// driver itself: a rank stall charges virtual time, a field fault
    /// poisons one cell of the radiation field.  A whole-rank death
    /// (`RankKill` / `RankStallForever`) is returned to [`Self::try_step`]
    /// instead — a dead rank injects nothing else and must not step.
    fn arm_step_faults(&mut self, sink: &mut MultiCostSink) -> Option<v2d_machine::FaultKind> {
        if let Some(inj) = &mut self.faults {
            inj.begin_step(self.istep as u64);
            if let Some(kind) = inj.poll_kill() {
                let stalled = matches!(kind, v2d_machine::FaultKind::RankStallForever);
                if let Some(t) = &mut self.tracer {
                    t.instant(sink, "fault_kill", &[("stalled", AttrVal::Bool(stalled))]);
                }
                return Some(kind);
            }
            if let Some(secs) = inj.poll_stall() {
                for lane in &mut sink.lanes {
                    lane.charge_mpi_secs(secs);
                }
                if let Some(t) = &mut self.tracer {
                    t.instant(sink, "fault_stall", &[("secs", AttrVal::F64(secs))]);
                }
            }
            if let Some(fault) = inj.poll_field() {
                let (s, i1, i2) = apply_field_fault(&mut self.erad, fault);
                inj.note(format!("field fault lands at species {s}, cell ({i1},{i2})"));
                if let Some(t) = &mut self.tracer {
                    t.instant(
                        sink,
                        "fault_field",
                        &[
                            ("species", AttrVal::U64(s as u64)),
                            ("i1", AttrVal::U64(i1 as u64)),
                            ("i2", AttrVal::U64(i2 as u64)),
                        ],
                    );
                }
            }
        }
        None
    }

    /// Run to `n_steps` (from the config), returning aggregates.
    ///
    /// Panics if a step's recovery ladder is exhausted, like
    /// [`V2dSim::step`].
    pub fn run(&mut self, comm: &Comm, sink: &mut MultiCostSink) -> RunStats {
        let end = self.run_checkpointed(comm, sink, 0, None);
        match end.error {
            Some(e) => panic!("unrecoverable simulation step: {e}"),
            None => end.stats,
        }
    }

    /// The rank loop: step from the current step to `n_steps` through
    /// [`V2dSim::try_step`], and after every `every`-th step short of
    /// the last (`every = 0`: never) gather a rolling checkpoint, which
    /// the rank holding `store` saves.  The gather is collective, so
    /// every rank takes part whether or not it holds the store.
    ///
    /// A failed step or gather (the latter as [`StepError::Comm`]) ends
    /// the run with this rank's endpoint retired, so peers waiting on it
    /// resolve instead of hanging.  A failed save does not end it: no
    /// peer may be stranded in the next collective, so the error is kept
    /// and no later save is tried.
    // Inlined into the rank body: out of line, its frame cost a 256-rank
    // `v2d` run 1 MB (+6 %) of peak RSS, one more stack page per rank.
    #[inline]
    pub fn run_checkpointed(
        &mut self,
        comm: &Comm,
        sink: &mut MultiCostSink,
        every: usize,
        mut store: Option<&mut CheckpointStore>,
    ) -> RunEnd {
        let mut end = RunEnd { stats: RunStats::default(), error: None, save_error: None };
        let n_steps = self.cfg.n_steps;
        while self.istep < n_steps {
            match self.try_step(comm, sink) {
                Ok(st) => end.stats.absorb(&st),
                Err(e) => {
                    end.error = Some(e);
                    break;
                }
            }
            let istep = self.istep;
            if every > 0 && istep.is_multiple_of(every) && istep < n_steps {
                match gather_checkpoint(comm, sink, self) {
                    Ok(file) => {
                        if let Some(st) = store.as_deref_mut().filter(|_| end.save_error.is_none())
                        {
                            end.save_error = st.save(&file, istep).err();
                        }
                    }
                    Err(error) => {
                        end.error = Some(StepError::Comm { istep, error });
                        break;
                    }
                }
            }
        }
        if end.error.is_some() {
            // `Lost` has retired already; a second retire is a no-op.
            comm.retire();
        }
        end
    }

    /// [`V2dSim::run`] with per-step observability: every step's solver
    /// work and per-lane modeled clock advance is snapshotted into a
    /// [`RunReport`], and run-wide totals (iterations, reductions,
    /// recoveries, bytes by memory level, message counts, modeled MPI
    /// time) land in the report's metrics registry.  The modeled clocks
    /// are untouched — the report only reads them, so its values match
    /// an unobserved run bit-for-bit.
    pub fn run_observed(
        &mut self,
        comm: &Comm,
        sink: &mut MultiCostSink,
        meta: Vec<(String, String)>,
    ) -> (RunStats, RunReport) {
        let mut report = RunReport::new(meta);
        let mut agg = RunStats::default();
        let mut prev: Vec<f64> = sink.lanes.iter().map(|l| l.elapsed_secs()).collect();
        for _ in 0..self.cfg.n_steps {
            let st = self.step(comm, sink);
            agg.absorb(&st);

            let mut vals = std::collections::BTreeMap::new();
            for (i, lane) in sink.lanes.iter().enumerate() {
                let now = lane.elapsed_secs();
                vals.insert(format!("clock.{}_s", lane.profile.id.slug()), now - prev[i]);
                prev[i] = now;
            }
            vals.insert("rad.iters".to_string(), st.rad.total_iters() as f64);
            vals.insert(
                "rad.reductions".to_string(),
                st.rad.stages.iter().map(|s| s.reductions).sum::<usize>() as f64,
            );
            vals.insert("rad.substeps".to_string(), st.rad_substeps as f64);
            vals.insert("recoveries".to_string(), st.all_recoveries() as f64);
            report.record_step((self.istep - 1) as u64, vals);
        }

        let t = &mut report.totals;
        t.counter_add("solver.solves", agg.total_solves as u64);
        t.counter_add("solver.iters", agg.total_iters as u64);
        t.counter_add("solver.reductions", agg.total_reductions as u64);
        t.counter_add("recoveries", agg.total_recoveries as u64);
        for lane in &sink.lanes {
            let slug = lane.profile.id.slug();
            t.gauge_set(&format!("clock.{slug}_s"), lane.elapsed_secs());
            t.gauge_set(&format!("mpi.{slug}_s"), lane.mpi_secs());
        }
        // Traffic and message counters are identical in structure across
        // lanes; lane 0 (the profiler lane) is the canonical one.
        let lane0 = &sink.lanes[0];
        for level in v2d_machine::MemLevel::all() {
            t.counter_add(
                &format!("mem.bytes.{}", level.name()),
                lane0.bytes_by_level[level.index()],
            );
        }
        t.counter_add("comm.msgs", lane0.comm_msgs);
        t.counter_add("comm.bytes", lane0.comm_bytes);
        // Solver-event counters come from the tracer (when attached):
        // restarts and fallbacks keyed by breakdown reason, recovery
        // rungs keyed by action.
        if let Some(tr) = &self.tracer {
            for ev in tr.events().iter().filter(|e| e.lane == 0) {
                match ev.name.as_str() {
                    "solver_restart" => {
                        let reason = ev.attr_str("reason").unwrap_or("unknown");
                        t.counter_add(&format!("solver.restarts.{reason}"), 1);
                    }
                    "solver_fallback" => {
                        let reason = ev.attr_str("reason").unwrap_or("unknown");
                        t.counter_add(&format!("solver.fallbacks.{reason}"), 1);
                    }
                    "recovery" => {
                        let action = ev.attr_str("action").unwrap_or("unknown");
                        t.counter_add(&format!("recovery.{action}"), 1);
                    }
                    _ => {}
                }
            }
        }
        (agg, report)
    }

    /// Global volume-integrated radiation energy (collective).
    pub fn total_radiation_energy(&self, comm: &Comm, sink: &mut MultiCostSink) -> f64 {
        let mut local = 0.0;
        for s in 0..v2d_linalg::NSPEC {
            for i2 in 0..self.grid.n2 {
                for i1 in 0..self.grid.n1 {
                    let (g1, g2) = self.grid.to_global(i1, i2);
                    local += self.erad.get(s, i1 as isize, i2 as isize)
                        * self.grid.global.volume(g1, g2);
                }
            }
        }
        // Site-tagged for the lockstep verifier; a failure here means
        // the communicator is already poisoned (a healthy run cannot
        // time out), so this diagnostic surface escalates like the
        // legacy infallible collectives do.
        comm.try_allreduce_scalar(sink, coll_site::TOTAL_ENERGY, ReduceOp::Sum, local)
            .unwrap_or_else(|e| panic!("total_radiation_energy: {e}"))
    }

    /// ParaProf-style routine report for lane 0.
    pub fn profiler_report(&self, sink: &MultiCostSink) -> String {
        self.profiler.report(&sink.lanes[0])
    }
}

/// One step of the rank step function, split into its named phases.
///
/// Each phase runs the driver from one blocking communication site to
/// the next — the halo exchanges and CFL/convergence reductions inside
/// it are exactly the yield points where the rank scheduler
/// suspends the rank.  The struct borrows the simulation state
/// disjointly from the observability state (`Profiler`, `FaultInjector`,
/// `Tracer`) that [`ExecCtx`] carries, so phases can charge clocks and
/// emit trace spans while mutating fields.
struct StepPhases<'a> {
    cfg: &'a V2dConfig,
    cart: &'a CartComm,
    grid: &'a LocalGrid,
    erad: &'a mut TileVec,
    source: &'a mut TileVec,
    hydro: Option<&'a mut (HydroStepper, HydroState)>,
    temp: Option<&'a mut TileVec>,
    wks: &'a mut RadWorkspace,
    recovery: RecoveryPolicy,
    istep: usize,
}

impl StepPhases<'_> {
    /// Subcycle the explicit hydro to its CFL limit within `dt`.
    /// Returns the advanced hydro time when hydro is enabled.  The CFL
    /// collective is the first communication of a step, so on hydro
    /// scenarios a peer death or poisoned communicator surfaces here as
    /// the typed [`CommError`] the driver turns into a run verdict.  A
    /// step that would take more than [`MAX_HYDRO_SUBSTEPS`] sub-steps
    /// fails with [`StepError::HydroSubsteps`] instead of spinning, and a
    /// blown-up state with [`StepError::Unphysical`] instead of a panic.
    fn hydro_phase(
        &mut self,
        comm: &Comm,
        cx: &mut ExecCtx<'_>,
        dt: f64,
    ) -> Result<Option<f64>, StepError> {
        let istep = self.istep;
        let (stepper, state) = match &mut self.hydro {
            Some(h) => &mut **h,
            None => return Ok(None),
        };
        cx.routine("hydro", |cx| {
            let mut advanced = 0.0;
            let mut substeps = 0;
            while advanced < dt {
                // `hdt` is a global CFL reduction, so every rank reaches
                // the bound on the same sub-step.
                if substeps == MAX_HYDRO_SUBSTEPS {
                    return Err(StepError::HydroSubsteps { istep, advanced, dt });
                }
                let hdt = match stepper.max_dt(comm, cx, self.grid, state) {
                    Ok(hdt) => hdt.min(dt - advanced),
                    Err(CflError::Comm(error)) => return Err(StepError::Comm { istep, error }),
                    Err(CflError::Unphysical(error)) => {
                        return Err(StepError::Unphysical { istep, error })
                    }
                };
                stepper
                    .step(comm, cx, self.cart, self.grid, state, hdt)
                    .map_err(|error| StepError::Unphysical { istep, error })?;
                advanced += hdt;
                substeps += 1;
            }
            Ok(Some(advanced))
        })
    }

    /// Matter emission enters the radiation solve as its source term,
    /// evaluated at the beginning-of-step temperature (operator split).
    fn matter_emission_phase(&mut self, cx: &mut ExecCtx<'_>) {
        if let (Some(cp), Some(temp)) = (&self.cfg.coupling, self.temp.as_deref()) {
            cx.routine("matter_emission", |cx| {
                let (c_light, kappa_a) = (self.cfg.c_light, self.cfg.opacity.kappa_a);
                cp.emission_source(cx, c_light, kappa_a, temp, self.source);
            });
        }
    }

    /// The implicit radiation update behind its recovery ladder.  The
    /// fast path is one sub-step covering all of `dt`; a failed attempt
    /// leaves `erad` untouched (the stepper only commits converged
    /// stages), so the driver can scrub poisoned data or halve the
    /// sub-timestep and try again.  A solve failure is collective
    /// (convergence comes from ganged reductions, injected breakdowns
    /// fire on every rank), and the scrub-vs-halve decision is reduced
    /// globally, so all ranks stay in lockstep through the ladder.
    ///
    /// Returns `(stats, substeps, recoveries)` on success.
    fn radiation_phase(
        &mut self,
        comm: &Comm,
        cx: &mut ExecCtx<'_>,
        dt: f64,
    ) -> Result<(RadStepStats, usize, u32), StepError> {
        let rad_stepper = RadStepper {
            limiter: self.cfg.limiter,
            opacity: self.cfg.opacity,
            c_light: self.cfg.c_light,
            precond: self.cfg.precond,
            solve: self.cfg.solve,
        };
        cx.routine("radiation", |cx| {
            let mut remaining = dt;
            let mut sub_dt = dt;
            let mut halvings = 0u32;
            let mut recoveries = 0u32;
            let mut rad_substeps = 0usize;
            let rad = loop {
                let take = sub_dt.min(remaining);
                match rad_stepper.try_step(
                    comm,
                    cx,
                    self.cart,
                    self.grid,
                    take,
                    self.erad,
                    self.source,
                    self.wks,
                ) {
                    Ok(st) => {
                        remaining -= take;
                        rad_substeps += 1;
                        if remaining <= 0.0 {
                            break st;
                        }
                    }
                    Err(error) => {
                        // Rung 0: a communicator fault is not recoverable —
                        // the ladder's own scrub/halve decision is a
                        // collective, and the group is already poisoned or
                        // short a member.  Surface the typed verdict now.
                        if let Some(ce) = error.error.comm.clone() {
                            return Err(StepError::Comm { istep: self.istep, error: ce });
                        }
                        // Rung 1: scrub non-finite cells (data poisoning
                        // shows up as a NonFinite breakdown) and retry at
                        // the same sub-timestep.  The decision is reduced
                        // globally so an injection on one rank walks every
                        // rank down the same rung.
                        let scrubbed = scrub_nonfinite(self.erad);
                        let global_scrubbed = match comm.try_allreduce_scalar(
                            cx,
                            coll_site::SCRUB_DECISION,
                            ReduceOp::Sum,
                            scrubbed as f64,
                        ) {
                            Ok(g) => g,
                            Err(ce) => {
                                return Err(StepError::Comm { istep: self.istep, error: ce });
                            }
                        };
                        if global_scrubbed > 0.0 {
                            recoveries += 1;
                            cx.trace_instant(
                                "recovery",
                                &[
                                    ("action", AttrVal::Str("scrub")),
                                    ("cells_global", AttrVal::F64(global_scrubbed)),
                                    ("dt", AttrVal::F64(take)),
                                ],
                            );
                            if let Some(inj) = cx.faults() {
                                inj.note(format!(
                                    "recover: scrubbed {scrubbed} non-finite cells ({} global), retry at dt {take:.3e}",
                                    global_scrubbed as usize
                                ));
                            }
                            continue;
                        }
                        // Rung 2: halve the sub-timestep (bounded).
                        if halvings < self.recovery.max_dt_halvings {
                            halvings += 1;
                            recoveries += 1;
                            sub_dt *= 0.5;
                            cx.trace_instant(
                                "recovery",
                                &[
                                    ("action", AttrVal::Str("dt_halve")),
                                    ("dt", AttrVal::F64(sub_dt)),
                                    ("halvings", AttrVal::U64(halvings as u64)),
                                ],
                            );
                            if let Some(inj) = cx.faults() {
                                inj.note(format!(
                                    "recover: halve dt to {sub_dt:.3e} ({halvings}/{})",
                                    self.recovery.max_dt_halvings
                                ));
                            }
                            continue;
                        }
                        return Err(StepError::Radiation { istep: self.istep, dt: take, error });
                    }
                }
            };
            Ok((rad, rad_substeps, recoveries))
        })
    }

    /// Close the exchange: implicit gas-temperature update against the
    /// freshly solved radiation field.
    fn matter_update_phase(&mut self, cx: &mut ExecCtx<'_>, dt: f64) {
        if let (Some(cp), Some(temp)) = (&self.cfg.coupling, self.temp.as_deref_mut()) {
            cx.routine("matter_update", |cx| {
                let (c_light, kappa_a) = (self.cfg.c_light, self.cfg.opacity.kappa_a);
                cp.update_temperature(cx, c_light, dt, kappa_a, self.erad, temp);
            });
        }
    }
}

/// Map a [`FieldFault`]'s raw random words onto one interior cell of
/// the radiation field and corrupt it, returning the target
/// `(species, i1, i2)`.
fn apply_field_fault(erad: &mut TileVec, fault: FieldFault) -> (usize, usize, usize) {
    let (n1, n2) = (erad.n1(), erad.n2());
    let ncells = v2d_linalg::NSPEC * n1 * n2;
    let idx = (fault.r1 % ncells as u64) as usize;
    let s = idx / (n1 * n2);
    let i1 = (idx % (n1 * n2)) % n1;
    let i2 = (idx % (n1 * n2)) / n1;
    let old = erad.get(s, i1 as isize, i2 as isize);
    let bad = match fault.kind {
        FaultKind::FieldNan => f64::NAN,
        FaultKind::FieldInf => f64::INFINITY,
        FaultKind::FieldBitFlip => f64::from_bits(old.to_bits() ^ (1u64 << (fault.r2 % 64))),
        _ => old,
    };
    erad.set(s, i1 as isize, i2 as isize, bad);
    (s, i1, i2)
}

/// Replace non-finite interior cells of the radiation field with a
/// zero-energy floor, returning how many were scrubbed.
fn scrub_nonfinite(erad: &mut TileVec) -> usize {
    let (n1, n2) = (erad.n1(), erad.n2());
    let mut scrubbed = 0;
    for s in 0..v2d_linalg::NSPEC {
        for i2 in 0..n2 as isize {
            for i1 in 0..n1 as isize {
                if !erad.get(s, i1, i2).is_finite() {
                    erad.set(s, i1, i2, 0.0);
                    scrubbed += 1;
                }
            }
        }
    }
    scrubbed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Geometry;
    use v2d_comm::Spmd;
    use v2d_machine::CompilerProfile;

    fn small_cfg() -> V2dConfig {
        V2dConfig {
            grid: Grid2::new(12, 10, (0.0, 1.2), (0.0, 1.0), Geometry::Cartesian),
            limiter: Limiter::LevermorePomraning,
            opacity: OpacityModel::test_problem(),
            c_light: 1.0,
            dt: 1e-3,
            n_steps: 3,
            precond: PrecondKind::BlockJacobi,
            solve: SolveOpts::default(),
            hydro: None,
            coupling: None,
        }
    }

    #[test]
    fn run_performs_three_solves_per_step() {
        Spmd::new(1).with_profiles(vec![CompilerProfile::cray_opt()]).run(|ctx| {
            let cfg = small_cfg();
            let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, 1, 1);
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            sim.erad_mut().fill_with(|_, i1, i2| 1.0 + ((i1 + i2) as f64 * 0.3).sin().powi(2));
            let agg = sim.run(&ctx.comm, &mut ctx.sink);
            assert_eq!(agg.steps, 3);
            assert_eq!(agg.total_solves, 9);
            assert!(agg.total_iters >= 9);
            assert!((sim.time() - 3e-3).abs() < 1e-15);
            assert_eq!(sim.istep(), 3);
        });
    }

    #[test]
    fn profiler_splits_radiation_into_three_sites() {
        Spmd::new(1).with_profiles(vec![CompilerProfile::cray_opt()]).run(|ctx| {
            let cfg = small_cfg();
            let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, 1, 1);
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            sim.erad_mut().fill_interior(1.0);
            sim.step(&ctx.comm, &mut ctx.sink);
            let report = sim.profiler_report(&ctx.sink);
            for site in ["bicgstab_predictor", "bicgstab_corrector", "bicgstab_coupling"] {
                assert!(report.contains(site), "missing {site} in:\n{report}");
            }
            let rad = sim.profiler.routine("radiation").unwrap();
            let pred = sim.profiler.routine("bicgstab_predictor").unwrap();
            assert!(rad.inclusive > pred.inclusive);
        });
    }

    #[test]
    fn coupled_hydro_radiation_runs() {
        Spmd::new(2).with_profiles(vec![CompilerProfile::fujitsu()]).run(|ctx| {
            let mut cfg = small_cfg();
            cfg.hydro =
                Some(HydroConfig { gamma: 1.4, cfl: 0.4, bc: crate::hydro::HydroBc::outflow() });
            cfg.n_steps = 2;
            let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, 2, 1);
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            sim.erad_mut().fill_interior(0.5);
            let st = sim.step(&ctx.comm, &mut ctx.sink);
            assert!(st.rad.all_converged());
            assert!(st.hydro_dt.is_some());
            assert!((st.hydro_dt.unwrap() - cfg.dt).abs() < 1e-12);
        });
    }

    #[test]
    fn energy_accounting_is_collective_and_consistent() {
        let totals = Spmd::new(4).with_profiles(vec![CompilerProfile::cray_opt()]).run(|ctx| {
            let cfg = small_cfg();
            let map = TileMap::new(cfg.grid.n1, cfg.grid.n2, 2, 2);
            let mut sim = V2dSim::new(cfg, &ctx.comm, map);
            sim.erad_mut().fill_interior(2.0);
            sim.total_radiation_energy(&ctx.comm, &mut ctx.sink)
        });
        // Every rank sees the same global total: 2 species × area × 2.0.
        let expect = 2.0 * 2.0 * (1.2 * 1.0);
        for t in totals {
            assert!((t - expect).abs() < 1e-12, "{t} vs {expect}");
        }
    }
}
