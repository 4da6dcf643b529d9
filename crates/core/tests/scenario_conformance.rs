//! Registry-wide scenario conformance: every [`Family`] in [`FAMILIES`]
//! must (a) pass its own validation at the smoke resolution, (b) replay
//! bit-identically, (c) be invisible to an armed-but-empty fault
//! injector, and (d) round-trip through the parameter-deck format.  The
//! `#[ignore]`d convergence study (nightly CI) additionally drives each
//! family through a 3-level refinement ladder and asserts the measured
//! order meets the family's declared floor.

use std::sync::Mutex;

use v2d_comm::{Spmd, TileMap};
use v2d_core::config_file::ParFile;
use v2d_core::grid::{Geometry, Grid2};
use v2d_core::hydro::{BcKind, HydroBc};
use v2d_core::limiter::Limiter;
use v2d_core::problems::{deck_from_config, ConvergenceMode, Family, ValidationReport, FAMILIES};
use v2d_core::sim::{HydroConfig, PrecondKind, V2dConfig, V2dSim};
use v2d_linalg::BicgVariant;
use v2d_machine::{CompilerProfile, FaultPlan};
use v2d_testkit::MiniSpec;

/// Run `family` single-rank at `(n1, n2, steps)` through the blocking
/// driver and return the validation report plus the study field.
fn run_level(family: Family, n1: usize, n2: usize, steps: usize) -> (ValidationReport, Vec<f64>) {
    let sc = family.scenario();
    let cfg = sc.config(n1, n2, steps);
    let out = Mutex::new(None);
    Spmd::new(1).with_profiles(vec![CompilerProfile::cray_opt()]).run(|ctx| {
        let mut sim = V2dSim::new(cfg, &ctx.comm, TileMap::new(n1, n2, 1, 1));
        sc.init(&mut sim);
        sim.run(&ctx.comm, &mut ctx.sink);
        let rep = sc.validate(&sim, &ctx.comm, &mut ctx.sink);
        let field = sc.study_field(&sim);
        *out.lock().expect("probe mutex") = Some((rep, field));
    });
    out.into_inner().expect("probe mutex").expect("rank 0 reported")
}

/// Every family's own validation hook must pass at its own smoke
/// resolution — the contract `table_scenarios` and the serve path lean
/// on.
#[test]
fn every_family_passes_validation_at_smoke_resolution() {
    for family in FAMILIES {
        let (n1, n2, steps) = family.scenario().smoke();
        let (rep, _) = run_level(family, n1, n2, steps);
        assert!(
            rep.pass,
            "{family}: smoke validation failed: l1={:.3e} l2={:.3e} linf={:.3e} (tol {:.3e}) [{}]",
            rep.l1, rep.l2, rep.linf, rep.tolerance, rep.detail
        );
    }
}

/// Replay and injector-transparency, multi-rank: the same spec twice
/// must agree bit-for-bit (radiation and, for hydro families, the
/// conserved state the mini harness appends), and arming an *empty*
/// fault plan must not perturb a single bit next to no injector at all.
#[test]
fn every_family_replays_bit_identically_and_ignores_an_empty_injector() {
    for family in FAMILIES {
        let (n1, n2, steps) = family.scenario().smoke();
        let spec = MiniSpec::linear(n1, n2, steps).tiled(2, 1).with_scenario(family);
        let first = v2d_testkit::run_mini(&spec);
        let second = v2d_testkit::run_mini(&spec);
        let armed = v2d_testkit::run_mini(&spec.clone().with_plan(FaultPlan::empty()));
        for (rank, out) in first.iter().enumerate() {
            assert!(out.converged(&spec), "{family}: rank {rank} did not converge: {out:?}");
            assert_eq!(out.bits, second[rank].bits, "{family}: rank {rank} replay drift");
            assert_eq!(
                out.bits, armed[rank].bits,
                "{family}: rank {rank} empty injector perturbed the run"
            );
        }
    }
}

/// Deck round-trip: each family's generated deck must parse, name its
/// own family in `[problem]`, build exactly the configuration it was
/// written from, and re-serialize to the identical byte string.  The
/// config comparison catches a field the writer never emits, which the
/// string comparison alone cannot see; the Classic-BiCGSTAB variant of
/// every family is such a field's witness, and the other variants give
/// every geometry, limiter, preconditioner and boundary a deck.
#[test]
fn every_family_deck_round_trips_byte_identically() {
    for family in FAMILIES {
        let sc = family.scenario();
        let (n1, n2, steps) = sc.smoke();
        let reference = sc.config(n1, n2, steps);
        let with = |edit: &dyn Fn(&mut V2dConfig)| {
            let mut cfg = reference;
            edit(&mut cfg);
            cfg
        };
        let g = reference.grid;
        let regrid =
            |geometry| Grid2::new(g.n1, g.n2, (g.x1min, g.x1max), (g.x2min, g.x2max), geometry);
        // Each enum value no family's own config uses, as a witness that
        // the writer and the parser read it from the same table.
        let mut wants = vec![
            reference,
            with(&|c| c.solve.variant = BicgVariant::Classic),
            with(&|c| c.grid = regrid(Geometry::CylindricalRZ)),
            with(&|c| c.grid = regrid(Geometry::SphericalRTheta)),
            with(&|c| c.limiter = Limiter::Wilson),
            with(&|c| c.limiter = Limiter::None),
            with(&|c| c.precond = PrecondKind::None),
            with(&|c| c.precond = PrecondKind::Jacobi),
            with(&|c| c.precond = PrecondKind::Spai),
        ];
        if let Some(h) = reference.hydro {
            let wall = BcKind::Reflecting;
            let bc = HydroBc { west: wall, east: wall, south: wall, north: wall };
            wants.push(with(&|c| c.hydro = Some(HydroConfig { bc, ..h })));
        }
        for want in wants {
            let deck = deck_from_config(family, &want, 2, 1);
            let par = ParFile::parse(&deck)
                .unwrap_or_else(|e| panic!("{family}: generated deck does not parse: {e}\n{deck}"));
            let parsed = par
                .problem()
                .unwrap_or_else(|e| panic!("{family}: bad [problem] section: {e}"))
                .unwrap_or_else(|| panic!("{family}: deck lost its [problem] section"));
            assert_eq!(parsed, family, "{family}: deck names the wrong family");
            let (cfg, (np1, np2)) =
                par.to_config().unwrap_or_else(|e| panic!("{family}: deck rejected: {e}\n{deck}"));
            assert_eq!((np1, np2), (2, 1), "{family}: topology lost in round trip");
            assert_eq!(cfg, want, "{family}: deck does not rebuild its config\n{deck}");
            assert_eq!(
                deck_from_config(family, &cfg, np1, np2),
                deck,
                "{family}: deck round trip is not byte-identical"
            );
        }
    }
}

/// 2×2-block restriction of a fine row-major field onto its half-size
/// coarse grid (volume-weighted mean on a uniform mesh).
fn restrict(fine: &[f64], fn1: usize, fn2: usize) -> Vec<f64> {
    let (cn1, cn2) = (fn1 / 2, fn2 / 2);
    let mut out = vec![0.0; cn1 * cn2];
    for j in 0..cn2 {
        for i in 0..cn1 {
            let mut s = 0.0;
            for dj in 0..2 {
                for di in 0..2 {
                    s += fine[(2 * j + dj) * fn1 + 2 * i + di];
                }
            }
            out[j * cn1 + i] = 0.25 * s;
        }
    }
    out
}

fn l1_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

/// The nightly 3-level convergence study: refine per the family's
/// declared [`Refinement`] axis and assert both measured orders meet
/// `min_order`.  Analytic families grade against their closed form
/// (Sod's leading norm is l1 across its discontinuities, l2 elsewhere);
/// self-convergence families restrict fine levels onto coarse and
/// compare level-to-level differences.
#[test]
#[ignore = "slow: 3-resolution ladder per family, for the scheduled CI job"]
fn convergence_study_meets_every_familys_declared_order() {
    let mut failures = Vec::new();
    for family in FAMILIES {
        let conv = family.scenario().convergence();
        let mut reps = Vec::new();
        let mut fields = Vec::new();
        let mut dims = Vec::new();
        for l in 0..3 {
            let (n1, n2, steps) = conv.level(l);
            let (rep, field) = run_level(family, n1, n2, steps);
            reps.push(rep);
            fields.push(field);
            dims.push((n1, n2));
        }
        let (o01, o12) = match conv.mode {
            ConvergenceMode::Analytic => {
                let err = |r: &ValidationReport| if family == Family::Sod { r.l1 } else { r.l2 };
                ((err(&reps[0]) / err(&reps[1])).log2(), (err(&reps[1]) / err(&reps[2])).log2())
            }
            ConvergenceMode::SelfConvergence => {
                let r1 = restrict(&fields[1], dims[1].0, dims[1].1);
                let r2 = restrict(&fields[2], dims[2].0, dims[2].1);
                let r2c = restrict(&r2, dims[2].0 / 2, dims[2].1 / 2);
                let d01 = l1_diff(&fields[0], &r1);
                let d12 = l1_diff(&r1, &r2c);
                let o = (d01 / d12).log2();
                (o, o)
            }
        };
        println!(
            "{family}: orders {o01:.2}, {o12:.2} (mode {:?}, refine {:?}, min {})",
            conv.mode, conv.refine, conv.min_order
        );
        if o01 < conv.min_order || o12 < conv.min_order {
            failures.push(format!(
                "{family}: measured orders {o01:.2}, {o12:.2} below declared floor {}",
                conv.min_order
            ));
        }
    }
    assert!(failures.is_empty(), "convergence regressions:\n{}", failures.join("\n"));
}
