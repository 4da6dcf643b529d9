//! Radiation diffusion in curvilinear coordinates: conservation and
//! symmetry checks that fail immediately if the metric factors (face
//! areas, volumes) entering the stencil assembly are wrong.

use v2d_comm::{coll_site, Spmd, TileMap};
use v2d_core::grid::{Geometry, Grid2};
use v2d_core::limiter::Limiter;
use v2d_core::opacity::OpacityModel;
use v2d_core::sim::{PrecondKind, V2dConfig, V2dSim};
use v2d_linalg::SolveOpts;
use v2d_machine::CompilerProfile;

fn config(grid: Grid2, dt: f64, n_steps: usize) -> V2dConfig {
    V2dConfig {
        grid,
        limiter: Limiter::None,
        opacity: OpacityModel { kappa_a: [0.0, 0.0], kappa_s: [3.0, 3.0], kappa_x: 0.0 },
        c_light: 1.0,
        dt,
        n_steps,
        precond: PrecondKind::BlockJacobi,
        solve: SolveOpts { tol: 1e-11, ..Default::default() },
        hydro: None,
        coupling: None,
    }
}

fn profiles() -> Vec<CompilerProfile> {
    vec![CompilerProfile::cray_opt()]
}

#[test]
fn cylindrical_diffusion_conserves_volume_integrated_energy() {
    let (nr, nz) = (32, 24);
    let grid = Grid2::new(nr, nz, (0.0, 1.0), (0.0, 1.0), Geometry::CylindricalRZ);
    let cfg = config(grid, 5e-4, 8);
    Spmd::new(2).with_profiles(profiles()).run(|ctx| {
        let map = TileMap::new(nr, nz, 2, 1);
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        let g = *sim.grid();
        sim.erad_mut().fill_with(|_, i1, i2| {
            let (r, z) = g.center(i1, i2);
            // Tiny background: a large one would itself leak through the
            // Dirichlet-0 edges and mask the metric check.
            1e-7 + (-(r * r + (z - 0.5).powi(2)) / 0.02).exp()
        });
        let e0 = sim.total_radiation_energy(&ctx.comm, &mut ctx.sink);
        sim.run(&ctx.comm, &mut ctx.sink);
        let e1 = sim.total_radiation_energy(&ctx.comm, &mut ctx.sink);
        // Pulse sits near the axis, far from the outer Dirichlet edge:
        // the r-weighted fluxes must cancel interior-to-interior.
        assert!(((e1 - e0) / e0).abs() < 1e-3, "cylindrical energy drifted: {e0} → {e1}");
        // And the field must have actually diffused.
        assert!(sim.erad().get(0, 0, (nz / 2 - g.i2_start) as isize) < 1.0 + 1e-3);
    });
}

#[test]
fn spherical_uniform_field_stays_uniform() {
    // In any geometry a uniform field with zero absorption has zero
    // divergence — if the area/volume bookkeeping were inconsistent,
    // spurious fluxes would appear at the first step.  (The domain must
    // avoid the Dirichlet edges, so check the interior only.)
    let (nr, nth) = (24, 16);
    let grid = Grid2::new(
        nr,
        nth,
        (0.5, 1.5),
        (0.4, std::f64::consts::PI - 0.4),
        Geometry::SphericalRTheta,
    );
    let cfg = config(grid, 2e-4, 3);
    Spmd::new(1).with_profiles(profiles()).run(|ctx| {
        let map = TileMap::new(nr, nth, 1, 1);
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        sim.erad_mut().fill_interior(2.0);
        sim.run(&ctx.comm, &mut ctx.sink);
        // Away from the boundaries the field must be unchanged to
        // solver tolerance.
        for i2 in 4..nth - 4 {
            for i1 in 4..nr - 4 {
                let v = sim.erad().get(0, i1 as isize, i2 as isize);
                assert!((v - 2.0).abs() < 1e-6, "spurious geometric flux at ({i1},{i2}): {v}");
            }
        }
    });
}

#[test]
fn cylindrical_axis_pulse_stays_axisymmetric_in_z_mirror() {
    // A pulse centered at the z-midplane must stay mirror-symmetric
    // about it (the r metric must not leak into z).
    let (nr, nz) = (20, 30);
    let grid = Grid2::new(nr, nz, (0.0, 1.0), (-0.75, 0.75), Geometry::CylindricalRZ);
    let cfg = config(grid, 1e-3, 5);
    Spmd::new(3).with_profiles(profiles()).run(|ctx| {
        let map = TileMap::new(nr, nz, 1, 3);
        let mut sim = V2dSim::new(cfg, &ctx.comm, map);
        let g = *sim.grid();
        sim.erad_mut().fill_with(|_, i1, i2| {
            let (r, z) = g.center(i1, i2);
            1e-3 + (-(r * r + z * z) / 0.03).exp()
        });
        sim.run(&ctx.comm, &mut ctx.sink);
        // Gather the global field and compare z-mirrored zones.
        let mut payload = vec![g.i1_start as f64, g.n1 as f64, g.i2_start as f64, g.n2 as f64];
        payload.extend(sim.erad().interior_to_vec());
        let all =
            ctx.comm.try_allgatherv(&mut ctx.sink, coll_site::UNTAGGED, &payload).expect("gather");
        let mut global = vec![0.0; 2 * nr * nz];
        let mut at = 0;
        while at < all.len() {
            let (i1s, n1, i2s, n2) = (
                all[at] as usize,
                all[at + 1] as usize,
                all[at + 2] as usize,
                all[at + 3] as usize,
            );
            let mut k = at + 4;
            for s in 0..2 {
                for i2 in 0..n2 {
                    for i1 in 0..n1 {
                        global[s * nr * nz + (i2s + i2) * nr + (i1s + i1)] = all[k];
                        k += 1;
                    }
                }
            }
            at = k;
        }
        for i2 in 0..nz / 2 {
            for i1 in 0..nr {
                let lo = global[i2 * nr + i1];
                let hi = global[(nz - 1 - i2) * nr + i1];
                assert!(
                    (lo - hi).abs() < 1e-9 * (1.0 + lo.abs()),
                    "z-mirror broken at (r={i1}, z={i2}): {lo} vs {hi}"
                );
            }
        }
    });
}
