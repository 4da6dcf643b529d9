//! Property-based tests over the whole stack: the simulated-SVE kernels
//! against native oracles at arbitrary sizes and vector lengths, solver
//! and operator invariants under random inputs, h5lite round-trips on
//! arbitrary trees, and clock monotonicity under random communication
//! schedules.

use proptest::prelude::*;

use v2d::comm::{CartComm, ReduceOp, Spmd, TileMap};
use v2d::linalg::{
    bicgstab, kernels, BicgVariant, Identity, LinearOp, SolveOpts, SolverWorkspace, StencilCoeffs,
    StencilOp, TileVec,
};
use v2d::machine::{CompilerProfile, ExecCtx, MultiCostSink};
use v2d::sve::kernels::{
    run_daxpy, run_ddaxpy, run_dprod, run_dscal, run_matvec, BandedSystem, Variant,
};
use v2d::sve::ExecConfig;

#[path = "../crates/sve/src/kernels/oracle.rs"]
mod oracle;

fn sink1() -> MultiCostSink {
    MultiCostSink::single(CompilerProfile::cray_opt())
}

fn vl_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(128u32), Just(256), Just(512), Just(1024), Just(2048)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sim_daxpy_matches_oracle(
        n in 1usize..200,
        a in -10.0f64..10.0,
        vl in vl_strategy(),
        seed in 0u64..1000,
    ) {
        let x: Vec<f64> = (0..n).map(|i| ((i as f64 + seed as f64) * 0.7).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i as f64 * 1.3 + seed as f64) * 0.4).cos()).collect();
        let mut want = y.clone();
        oracle::daxpy(a, &x, &mut want);
        for variant in [Variant::Scalar, Variant::Sve] {
            let (got, _) = run_daxpy(a, &x, &y, variant, &ExecConfig::a64fx_l1().with_vl(vl));
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() <= 1e-12 * (1.0 + w.abs()));
            }
        }
    }

    #[test]
    fn sim_dprod_dscal_ddaxpy_match_oracles(
        n in 1usize..150,
        vl in vl_strategy(),
        c in -5.0f64..5.0,
        d in -5.0f64..5.0,
    ) {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).sin() + 0.2).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).cos() - 0.1).collect();
        let z: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).sin() * 0.5).collect();
        let cfg = ExecConfig::a64fx_l1().with_vl(vl);

        let want_dot = oracle::dprod(&x, &y);
        for variant in [Variant::Scalar, Variant::Sve] {
            let (got, _) = run_dprod(&x, &y, variant, &cfg);
            prop_assert!((got - want_dot).abs() <= 1e-9 * (1.0 + want_dot.abs()));

            let mut want = y.clone();
            oracle::dscal(c, d, &mut want);
            let (got, _) = run_dscal(c, d, &y, variant, &cfg);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() <= 1e-12 * (1.0 + w.abs()));
            }

            let want = oracle::ddaxpy(c, d, &x, &y, &z);
            let (got, _) = run_ddaxpy(c, d, &x, &y, &z, variant, &cfg);
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() <= 1e-12 * (1.0 + w.abs()));
            }
        }
    }

    #[test]
    fn sim_matvec_matches_oracle(
        n in 4usize..120,
        vl in vl_strategy(),
        m_frac in 0.05f64..0.9,
    ) {
        let m = ((n as f64 * m_frac) as usize).clamp(1, n - 1);
        let sys = BandedSystem::test_system(n, m);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin()).collect();
        let want = oracle::matvec(&sys, &x);
        for variant in [Variant::Scalar, Variant::Sve] {
            let (got, _) = run_matvec(&sys, &x, variant, &ExecConfig::a64fx_l1().with_vl(vl));
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() <= 1e-11 * (1.0 + w.abs()));
            }
        }
    }

    #[test]
    fn sve_cycle_counts_are_vl_monotone_for_streaming_kernels(
        n in 64usize..300,
    ) {
        // Wider vectors never cost more cycles on streaming kernels.
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let y = x.clone();
        let mut last = u64::MAX;
        for vl in [128u32, 256, 512, 1024, 2048] {
            let (_, stats) = run_daxpy(1.5, &x, &y, Variant::Sve, &ExecConfig::a64fx_l1().with_vl(vl));
            prop_assert!(stats.cycles <= last, "VL {vl} cost more than narrower");
            last = stats.cycles;
        }
    }

    #[test]
    fn tile_kernels_match_flat_arithmetic(
        n1 in 1usize..12,
        n2 in 1usize..12,
        a in -3.0f64..3.0,
        b in -3.0f64..3.0,
    ) {
        let mut sk = sink1();
        let mk = |seed: f64| {
            let mut v = TileVec::new(n1, n2);
            v.fill_with(|s, i1, i2| ((s as f64 + 1.0) * seed + i1 as f64 * 0.3 + i2 as f64 * 0.7).sin());
            v
        };
        let x = mk(1.1);
        let y = mk(2.3);
        let mut w = mk(3.7);
        let w0 = w.clone();
        kernels::ddaxpy(&mut ExecCtx::new(&mut sk), a, &x, b, &y, &mut w);
        let (xf, yf, w0f, wf) =
            (x.interior_to_vec(), y.interior_to_vec(), w0.interior_to_vec(), w.interior_to_vec());
        for i in 0..wf.len() {
            let want = w0f[i] + a * xf[i] + b * yf[i];
            prop_assert!((wf[i] - want).abs() < 1e-12 * (1.0 + want.abs()));
        }
        let dot = kernels::dprod_local(&mut ExecCtx::new(&mut sk), &x, &y);
        let want: f64 = xf.iter().zip(&yf).map(|(p, q)| p * q).sum();
        prop_assert!((dot - want).abs() < 1e-10 * (1.0 + want.abs()));
    }

    #[test]
    fn bicgstab_solves_random_diagonally_dominant_systems(
        n1 in 3usize..10,
        n2 in 3usize..10,
        seed in 0usize..50,
    ) {
        let map = TileMap::new(n1, n2, 1, 1);
        let converged = Spmd::new(1)
            .with_profiles(vec![CompilerProfile::cray_opt()])
            .run(move |ctx| {
                let cart = CartComm::new(&ctx.comm, map);
                let coeffs = StencilCoeffs::manufactured(n1, n2, seed, seed * 3);
                let mut op = StencilOp::new(coeffs, cart);
                let mut b = TileVec::new(n1, n2);
                b.fill_with(|s, i1, i2| ((s + i1 * 2 + i2 * 5 + seed) as f64 * 0.21).sin());
                let mut x = TileVec::new(n1, n2);
                let mut m = Identity;
                let mut wks = SolverWorkspace::new(n1, n2);
                let stats = bicgstab(
                    &ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &mut op, &mut m, &b, &mut x,
                    &mut wks,
                    &SolveOpts { tol: 1e-10, variant: BicgVariant::Ganged, ..Default::default() },
                ).unwrap();
                // Verify the residual directly.
                let mut ax = TileVec::new(n1, n2);
                op.apply(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &mut x, &mut ax);
                let mut worst: f64 = 0.0;
                for (g, w) in ax.interior_to_vec().iter().zip(b.interior_to_vec()) {
                    worst = worst.max((g - w).abs());
                }
                (stats.converged, worst)
            });
        prop_assert!(converged[0].0);
        prop_assert!(converged[0].1 < 1e-7, "residual {}", converged[0].1);
    }

    #[test]
    fn h5lite_roundtrips_arbitrary_trees(
        names in proptest::collection::vec("[a-z]{1,8}", 1..6),
        data in proptest::collection::vec(-1e12f64..1e12, 0..64),
        attr in -1_000_000_000i64..1_000_000_000i64,
    ) {
        let mut f = v2d::io::File::new();
        let mut path = String::new();
        for n in &names {
            if !path.is_empty() {
                path.push('/');
            }
            path.push_str(n);
        }
        f.set_attr(&format!("{path}/seed"), v2d::io::Value::I64(attr));
        f.write_dataset(
            &format!("{path}/data"),
            v2d::io::Dataset::f64(vec![data.len()], data.clone()),
        );
        let g = v2d::io::File::from_bytes(&f.to_bytes()).expect("roundtrip");
        prop_assert_eq!(&g, &f);
    }

    #[test]
    fn clocks_are_monotone_under_random_comm_schedules(
        schedule in proptest::collection::vec(0u8..3, 1..20),
    ) {
        let outs = Spmd::new(3)
            .with_profiles(vec![CompilerProfile::fujitsu()])
            .run(move |ctx| {
                let mut last = 0u64;
                let mut ok = true;
                for (k, op) in schedule.iter().enumerate() {
                    match op {
                        0 => {
                            ctx.comm.allreduce_scalar(&mut ctx.sink, ReduceOp::Sum, k as f64);
                        }
                        1 => {
                            ctx.comm.barrier(&mut ctx.sink);
                        }
                        _ => {
                            let partner = (ctx.rank() + 1) % 3;
                            let from = (ctx.rank() + 2) % 3;
                            ctx.comm.send(&mut ctx.sink, partner, k as u32, &[1.0]);
                            let _ = ctx.comm.recv(&mut ctx.sink, from, k as u32);
                        }
                    }
                    let now = ctx.sink.lanes[0].clock.now().cycles();
                    ok &= now >= last;
                    last = now;
                }
                ok
            });
        prop_assert!(outs.into_iter().all(|b| b));
    }
}
