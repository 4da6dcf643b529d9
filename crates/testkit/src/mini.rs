//! Mini-simulation builders: the one way every multi-rank test stands
//! up a small Gaussian-pulse run, with or without a fault plan, so the
//! coordinates of a scenario (grid, tiling, physics, schedule) live in
//! one declarative spec instead of being re-derived per test file.

use v2d_comm::{Comm, Spmd, TileMap};
use v2d_core::problems::{Family, GaussianPulse};
use v2d_core::sim::{V2dConfig, V2dSim};
use v2d_core::RecoveryPolicy;
use v2d_machine::{CompilerProfile, FaultInjector, FaultPlan, FaultRecord, MultiCostSink};
use v2d_obs::trace::Event;
use v2d_obs::Tracer;

/// Declarative coordinates of one mini-simulation: grid, rank tiling,
/// step count, physics flavor, and (optionally) a fault plan and a
/// recovery policy.  Build with [`MiniSpec::linear`] /
/// [`MiniSpec::nonlinear`] and the `with_*` combinators.
#[derive(Debug, Clone)]
pub struct MiniSpec {
    pub n1: usize,
    pub n2: usize,
    pub np1: usize,
    pub np2: usize,
    pub steps: usize,
    /// `true` for the flux-limited (nonlinear) configuration, `false`
    /// for the pure-scattering linear pulse.
    pub nonlinear: bool,
    /// Registry scenario overriding the pulse configuration and initial
    /// condition (`None` keeps the legacy Gaussian-pulse pair, whose
    /// bits every pre-registry golden depends on).  The scenario's own
    /// physics replaces `nonlinear`.
    pub scenario: Option<Family>,
    pub plan: Option<FaultPlan>,
    pub policy: Option<RecoveryPolicy>,
}

impl MiniSpec {
    /// A single-rank linear pulse (`linear_config`) of `steps` steps.
    pub fn linear(n1: usize, n2: usize, steps: usize) -> Self {
        MiniSpec {
            n1,
            n2,
            np1: 1,
            np2: 1,
            steps,
            nonlinear: false,
            scenario: None,
            plan: None,
            policy: None,
        }
    }

    /// A single-rank nonlinear (limiter-on) pulse (`scaled_config`).
    pub fn nonlinear(n1: usize, n2: usize, steps: usize) -> Self {
        MiniSpec { nonlinear: true, ..Self::linear(n1, n2, steps) }
    }

    /// Drive a registry scenario instead of the legacy pulse: config
    /// and initial condition both come from the [`Family`]'s
    /// [`v2d_core::problems::Scenario`] at this spec's grid and step
    /// count.
    pub fn with_scenario(mut self, family: Family) -> Self {
        self.scenario = Some(family);
        self
    }

    /// Decompose over an `np1 × np2` rank grid.
    pub fn tiled(mut self, np1: usize, np2: usize) -> Self {
        self.np1 = np1;
        self.np2 = np2;
        self
    }

    /// Attach a fault plan (each rank gets its own injector over it).
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Override the driver's recovery policy.
    pub fn with_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Number of ranks the spec launches.
    pub fn ranks(&self) -> usize {
        self.np1 * self.np2
    }

    /// The derived solver configuration.
    pub fn config(&self) -> V2dConfig {
        if let Some(family) = self.scenario {
            family.scenario().config(self.n1, self.n2, self.steps)
        } else if self.nonlinear {
            GaussianPulse::scaled_config(self.n1, self.n2, self.steps)
        } else {
            GaussianPulse::linear_config(self.n1, self.n2, self.steps)
        }
    }

    /// Construct and initialize this rank's simulation: standard pulse,
    /// injector armed when a plan is attached, policy applied.
    pub fn build(&self, comm: &Comm) -> V2dSim {
        let map = TileMap::new(self.n1, self.n2, self.np1, self.np2);
        let mut sim = V2dSim::new(self.config(), comm, map);
        self.scenario.unwrap_or(Family::Gaussian).scenario().init(&mut sim);
        if let Some(plan) = &self.plan {
            sim.set_fault_injector(FaultInjector::new(plan.clone(), comm.rank()));
        }
        if let Some(policy) = self.policy {
            sim.set_recovery_policy(policy);
        }
        sim
    }
}

/// What one rank came back with from a mini run.
#[derive(Debug, Clone, PartialEq)]
pub struct RankRun {
    /// Raw bits of the final local radiation field (bit-exact replay
    /// comparisons need bits, not floats: NaN payloads must count).
    pub bits: Vec<u64>,
    /// Driver + solver recovery actions summed over the run.
    pub recoveries: u32,
    /// Steps completed before the run ended (== the spec's `steps` on
    /// a fully-converged run).
    pub steps_done: usize,
    /// The typed error that ended the run early, rendered; `None` on a
    /// clean finish.
    pub error: Option<String>,
    /// The rank's fault/recovery log.
    pub log: Vec<FaultRecord>,
}

impl RankRun {
    /// Did every step complete?
    pub fn converged(&self, spec: &MiniSpec) -> bool {
        self.error.is_none() && self.steps_done == spec.steps
    }
}

/// Everything one rank's mini run exposes for bit-for-bit comparison:
/// the [`RankRun`] outcome plus the final per-lane virtual clocks and
/// the recorded trace (spans and instants in virtual time).  The frozen
/// `engine_fingerprint` table hashes all of it.
#[derive(Debug, Clone, PartialEq)]
pub struct RankObservation {
    pub run: RankRun,
    /// Final virtual clock of each cost lane, in cycles.
    pub clock_cycles: Vec<u64>,
    /// The rank's trace events (virtual-time spans + instants).
    pub trace: Vec<Event>,
}

/// Drive one rank's simulation through the spec's steps, collecting the
/// outcome.  Steps go through [`V2dSim::try_step`], so an exhausted
/// recovery ladder or a poisoned communicator lands in
/// [`RankRun::error`] instead of panicking.
fn drive(spec: &MiniSpec, sim: &mut V2dSim, comm: &Comm, sink: &mut MultiCostSink) -> RankRun {
    let mut recoveries = 0u32;
    let mut steps_done = 0usize;
    let mut error = None;
    for _ in 0..spec.steps {
        match sim.try_step(comm, sink) {
            Ok(st) => {
                steps_done += 1;
                recoveries += st.all_recoveries();
            }
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    let mut bits: Vec<u64> = sim.erad().interior_to_vec().iter().map(|v| v.to_bits()).collect();
    // Hydro scenarios: the trajectory lives in the conserved fields too,
    // so replay/equivalence must compare their bits as well (hydro-free
    // specs append nothing — legacy comparisons are unchanged).
    if let Some(state) = sim.hydro() {
        let g = sim.grid();
        for field in [&state.rho, &state.m1, &state.m2, &state.etot] {
            for i2 in 0..g.n2 {
                for i1 in 0..g.n1 {
                    bits.push(field.get(0, i1 as isize, i2 as isize).to_bits());
                }
            }
        }
    }
    RankRun { bits, recoveries, steps_done, error, log: sim.take_fault_log() }
}

/// Run the spec on `spec.ranks()` simulated ranks (one compiler lane,
/// Cray-opt) and collect per-rank outcomes.  The fuzzer's *no-deadlock*
/// property is exactly "this function returns": a deadlock comes back
/// as a typed error, not a hang.
pub fn run_mini(spec: &MiniSpec) -> Vec<RankRun> {
    let spec = spec.clone();
    Spmd::new(spec.ranks()).with_profiles(vec![CompilerProfile::cray_opt()]).run(move |ctx| {
        let mut sim = spec.build(&ctx.comm);
        drive(&spec, &mut sim, &ctx.comm, &mut ctx.sink)
    })
}

/// [`run_mini`] with a tracer attached: returns each rank's outcome
/// together with its final virtual clocks and full trace.
pub fn run_mini_observed(spec: &MiniSpec) -> Vec<RankObservation> {
    let spec = spec.clone();
    Spmd::new(spec.ranks()).with_profiles(vec![CompilerProfile::cray_opt()]).run(move |ctx| {
        let mut sim = spec.build(&ctx.comm);
        sim.set_tracer(Tracer::new(ctx.rank(), &ctx.sink));
        let run = drive(&spec, &mut sim, &ctx.comm, &mut ctx.sink);
        let clock_cycles = ctx.sink.lanes.iter().map(|l| l.clock.now().cycles()).collect();
        let trace = sim.take_tracer().map(|t| t.events().to_vec()).unwrap_or_default();
        RankObservation { run, clock_cycles, trace }
    })
}

/// Merge every rank's fault log into one deterministic, sorted block of
/// `step N rank R: what` lines (the shape the fault-recovery assertions
/// grep).
pub fn merged_log(outs: &[RankRun]) -> String {
    let mut lines: Vec<String> = outs
        .iter()
        .flat_map(|r| r.log.iter())
        .map(|r| format!("step {} rank {}: {}", r.step, r.rank, r.what))
        .collect();
    lines.sort();
    lines.join("\n")
}
