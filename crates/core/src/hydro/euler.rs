//! Dimensionally split MUSCL/HLL Euler solver.
//!
//! Second-order piecewise-linear (minmod) reconstruction in space, HLL
//! fluxes, Godunov splitting x1 → x2.  Hydrodynamics runs in Cartesian
//! geometry (curvilinear hydro needs geometric source terms V2D's
//! radiation path does not exercise; the radiation module supports all
//! three geometries).
//!
//! The solver is charged to the cost model as [`KernelClass::Physics`]:
//! Riemann solvers are exactly the branchy, gather-heavy code the
//! paper's compilers failed to vectorize.

use v2d_comm::topology::Dir;
use v2d_comm::{CartComm, Comm};
use v2d_linalg::{exchange_halos, TileVec};
use v2d_machine::{ExecCtx, KernelClass, KernelShape};

use crate::grid::{Geometry, LocalGrid};
use crate::hydro::eos::{Cons, GammaLaw, Prim, Unphysical};

/// Physical boundary treatment for one side of the domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcKind {
    /// Zero-gradient: material flows out freely.
    Outflow,
    /// Solid wall: fields mirror, the normal velocity flips sign.
    Reflecting,
}

/// Boundary conditions per domain side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HydroBc {
    pub west: BcKind,
    pub east: BcKind,
    pub south: BcKind,
    pub north: BcKind,
}

impl HydroBc {
    /// Outflow everywhere (the Sod default).
    pub fn outflow() -> Self {
        HydroBc {
            west: BcKind::Outflow,
            east: BcKind::Outflow,
            south: BcKind::Outflow,
            north: BcKind::Outflow,
        }
    }

    /// Solid walls everywhere (a closed box).
    pub fn closed_box() -> Self {
        HydroBc {
            west: BcKind::Reflecting,
            east: BcKind::Reflecting,
            south: BcKind::Reflecting,
            north: BcKind::Reflecting,
        }
    }

    fn side(&self, dir: Dir) -> BcKind {
        match dir {
            Dir::West => self.west,
            Dir::East => self.east,
            Dir::South => self.south,
            Dir::North => self.north,
        }
    }
}

/// Ghost depth of the hydro fields: the MUSCL reconstruction reads two
/// zones past each face.  A rank fills its neighbors' ghosts from its
/// own zones, so a tile narrower than this cannot feed them
/// ([`crate::sim::V2dConfig::max_ranks_along`]).
pub const GHOST_DEPTH: usize = 2;

/// Conserved hydro fields on the local tile: one plane each, with a
/// [`GHOST_DEPTH`]-zone ghost frame.
#[derive(Debug, Clone)]
pub struct HydroState {
    pub rho: TileVec,
    pub m1: TileVec,
    pub m2: TileVec,
    pub etot: TileVec,
    /// Halo message scratch, reused by every exchange.
    halo: Vec<f64>,
    /// One sweep line's primitives, reused by every sweep.
    line: Vec<Prim>,
}

impl HydroState {
    /// A state initialized from a primitive-variable closure over local
    /// zone indices.
    pub fn from_prim(
        n1: usize,
        n2: usize,
        eos: &GammaLaw,
        mut f: impl FnMut(usize, usize) -> Prim,
    ) -> Self {
        let field = || TileVec::with_shape(n1, n2, 1, GHOST_DEPTH);
        let mut st = HydroState {
            rho: field(),
            m1: field(),
            m2: field(),
            etot: field(),
            halo: Vec::new(),
            line: Vec::with_capacity(n1.max(n2) + 2 * GHOST_DEPTH),
        };
        for i2 in 0..n2 {
            for i1 in 0..n1 {
                st.set_cons(i1 as isize, i2 as isize, eos.to_cons(f(i1, i2)));
            }
        }
        st
    }

    /// Conserved state at `(i1, i2)` (ghosts allowed).  The four fields
    /// share one shape, so one flat index serves them all.
    pub fn cons(&self, i1: isize, i2: isize) -> Cons {
        let k = self.rho.idx(0, i1, i2);
        Cons {
            rho: self.rho.values()[k],
            m1: self.m1.values()[k],
            m2: self.m2.values()[k],
            etot: self.etot.values()[k],
        }
    }

    /// Set the conserved state at `(i1, i2)`.
    pub fn set_cons(&mut self, i1: isize, i2: isize, c: Cons) {
        let k = self.rho.idx(0, i1, i2);
        self.rho.values_mut()[k] = c.rho;
        self.m1.values_mut()[k] = c.m1;
        self.m2.values_mut()[k] = c.m2;
        self.etot.values_mut()[k] = c.etot;
    }

    /// Sum of a conserved quantity over the interior (local part).
    pub fn total_mass_local(&self) -> f64 {
        self.rho.interior_to_vec().iter().sum()
    }

    /// Refresh every field's ghosts: neighbor halos where a rank
    /// adjoins, the configured physical boundary otherwise.  At a
    /// reflecting wall the fields mirror and the wall-normal momentum
    /// flips sign, so the HLL flux through the wall face vanishes and
    /// mass/energy are conserved exactly.
    pub fn exchange_halos(&mut self, cart: &CartComm, comm: &Comm, cx: &mut ExecCtx, bc: &HydroBc) {
        let HydroState { rho, m1, m2, etot, halo, .. } = self;
        let old_ws = cx.set_ws(4 * rho.bytes());
        exchange_halos(cart, comm, cx, &mut [rho, m1, m2, etot], halo, "field halo");
        cx.set_ws(old_ws);
        // The exchange zeroed the physical sides.  Every wall fill reads
        // interior zones only, and no neighbor strip reaches a corner,
        // so the fill order cannot matter: outflow on every physical
        // side, then reflection where the side is a wall.
        let physical = Dir::ALL.into_iter().filter(|&d| cart.neighbor(d).is_none());
        for dir in physical.clone() {
            for f in [&mut *rho, &mut *m1, &mut *m2, &mut *etot] {
                f.fill_ghost_from_interior(dir, false, 1.0);
            }
        }
        for dir in physical.filter(|&d| bc.side(d) == BcKind::Reflecting) {
            let (s1, s2) =
                if matches!(dir, Dir::West | Dir::East) { (-1.0, 1.0) } else { (1.0, -1.0) };
            for (f, sign) in [(&mut *rho, 1.0), (&mut *etot, 1.0), (&mut *m1, s1), (&mut *m2, s2)] {
                f.fill_ghost_from_interior(dir, true, sign);
            }
        }
    }
}

/// Minmod slope limiter.
fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

/// The HLL flux along the sweep direction; `normal` selects which
/// momentum component is the sweep-normal one.
fn hll_flux(eos: &GammaLaw, left: Prim, right: Prim, normal: usize) -> [f64; 4] {
    // Rotate so component 0 of (un, ut) is normal.
    let (ul_n, ul_t) = if normal == 0 { (left.u1, left.u2) } else { (left.u2, left.u1) };
    let (ur_n, ur_t) = if normal == 0 { (right.u1, right.u2) } else { (right.u2, right.u1) };
    let cl = eos.sound_speed(&left);
    let cr = eos.sound_speed(&right);
    let sl = (ul_n - cl).min(ur_n - cr);
    let sr = (ul_n + cl).max(ur_n + cr);

    // Flux and conserved state of one side share its total energy.
    let side = |w: &Prim, un: f64, ut: f64| -> ([f64; 4], [f64; 4]) {
        let e = w.p / (eos.gamma - 1.0) + 0.5 * w.rho * (un * un + ut * ut);
        (
            [w.rho * un, w.rho * un * un + w.p, w.rho * un * ut, (e + w.p) * un],
            [w.rho, w.rho * un, w.rho * ut, e],
        )
    };

    let (fl, ql) = side(&left, ul_n, ul_t);
    let (fr, qr) = side(&right, ur_n, ur_t);
    if sl >= 0.0 {
        fl
    } else if sr <= 0.0 {
        fr
    } else {
        let mut f = [0.0; 4];
        for k in 0..4 {
            f[k] = (sr * fl[k] - sl * fr[k] + sl * sr * (qr[k] - ql[k])) / (sr - sl);
        }
        f
    }
}

/// The largest CFL safety factor the split scheme accepts.
pub const MAX_CFL: f64 = 0.9;

/// The explicit hydro integrator.
#[derive(Debug, Clone, Copy)]
pub struct HydroStepper {
    pub eos: GammaLaw,
    /// CFL safety factor (≤ 0.5 for the split scheme).
    pub cfl: f64,
    /// Physical boundary conditions.
    pub bc: HydroBc,
}

impl HydroStepper {
    /// A stepper with outflow boundaries; asserts a sane CFL number.
    pub fn new(eos: GammaLaw, cfl: f64) -> Self {
        assert!(cfl > 0.0 && cfl <= MAX_CFL, "CFL {cfl} out of range");
        HydroStepper { eos, cfl, bc: HydroBc::outflow() }
    }

    /// The same stepper with different boundary conditions.
    pub fn with_bc(mut self, bc: HydroBc) -> Self {
        self.bc = bc;
        self
    }

    /// Globally stable timestep (collective: allreduce-max over wave
    /// speeds).  A failed collective (peer death, timeout, poisoned
    /// communicator) surfaces as the typed [`v2d_comm::CommError`] so
    /// the driver can end the run with a verdict instead of panicking —
    /// the supervised rank-kill path reaches this collective first on
    /// hydro scenarios.  A local zone with no primitive form is
    /// reported before the collective, as the sweeps report theirs; both
    /// convert unchecked and check the batch, which keeps the zone loops
    /// as fast as they were without the check.
    pub fn max_dt(
        &self,
        comm: &Comm,
        cx: &mut ExecCtx,
        grid: &LocalGrid,
        state: &HydroState,
    ) -> Result<f64, CflError> {
        let (dx1, dx2) = (grid.global.dx1(), grid.global.dx2());
        let mut max_speed: f64 = 0.0;
        let mut physical = true;
        for i2 in 0..grid.n2 as isize {
            for i1 in 0..grid.n1 as isize {
                let w = self.eos.prim_unchecked(state.cons(i1, i2));
                physical &= w.is_physical();
                let c = self.eos.sound_speed(&w);
                max_speed = max_speed.max((w.u1.abs() + c) / dx1).max((w.u2.abs() + c) / dx2);
            }
        }
        if !physical {
            // Find the first zone `to_prim` rejects, and its reason.
            for i2 in 0..grid.n2 as isize {
                for i1 in 0..grid.n1 as isize {
                    self.eos.to_prim(state.cons(i1, i2)).map_err(CflError::Unphysical)?;
                }
            }
        }
        cx.charge(&KernelShape::streaming(
            KernelClass::Physics,
            grid.n1 * grid.n2,
            12,
            4,
            0,
            4 * 8 * grid.n1 * grid.n2,
        ));
        let global = comm
            .try_allreduce_scalar(
                cx,
                v2d_comm::coll_site::HYDRO_CFL,
                v2d_comm::ReduceOp::Max,
                max_speed,
            )
            .map_err(CflError::Comm)?;
        assert!(global > 0.0, "static flow has no CFL limit — choose dt directly");
        Ok(self.cfl / global)
    }

    /// Advance one split step: an x1 sweep then an x2 sweep, each with
    /// fresh halos.  A zone with no primitive form stops the step; the
    /// state is then partly updated and the run is over.
    pub fn step(
        &self,
        comm: &Comm,
        cx: &mut ExecCtx,
        cart: &CartComm,
        grid: &LocalGrid,
        state: &mut HydroState,
        dt: f64,
    ) -> Result<(), Unphysical> {
        assert_eq!(
            grid.global.geometry,
            Geometry::Cartesian,
            "hydrodynamics is implemented for Cartesian geometry"
        );
        self.sweep(comm, cx, cart, grid, state, dt, 0)?;
        self.sweep(comm, cx, cart, grid, state, dt, 1)
    }

    /// One directional sweep (`dir` 0 = x1, 1 = x2).
    #[allow(clippy::too_many_arguments)]
    fn sweep(
        &self,
        comm: &Comm,
        cx: &mut ExecCtx,
        cart: &CartComm,
        grid: &LocalGrid,
        state: &mut HydroState,
        dt: f64,
        dir: usize,
    ) -> Result<(), Unphysical> {
        state.exchange_halos(cart, comm, cx, &self.bc);
        let (n1, n2) = (grid.n1 as isize, grid.n2 as isize);
        let dx = if dir == 0 { grid.global.dx1() } else { grid.global.dx2() };
        let lam = dt / dx;

        // Conserved state at a zone offset along the sweep line.
        let cons_at = |st: &HydroState, a: isize, b: isize| {
            let (i1, i2) = if dir == 0 { (a, b) } else { (b, a) };
            st.cons(i1, i2)
        };

        let (n_sweep, n_line) = if dir == 0 { (n1, n2) } else { (n2, n1) };
        // One line's zones in primitives, ghosts included: `line[k]` is
        // zone `k − 2`.  A line reads and writes only its own zones, and
        // it is converted before its first write, so the sweep updates
        // `state` in place.
        let mut line = std::mem::take(&mut state.line);
        let swept = (0..n_line).try_for_each(|b| {
            line.clear();
            line.extend((-2..n_sweep + 2).map(|a| self.eos.prim_unchecked(cons_at(state, a, b))));
            if let Some(k) = line.iter().position(|w| !w.is_physical()) {
                // `to_prim` fails on exactly this zone, and words why.
                return self.eos.to_prim(cons_at(state, k as isize - 2, b)).map(drop);
            }
            // Face `a` sits between zones a−1 and a, for a in 0..=n_sweep;
            // its left state is zone a−1's plus face, carried over.
            let (_, mut wl) = recon_faces(&line[0], &line[1], &line[2]);
            let mut flux_prev: Option<[f64; 4]> = None;
            for a in 0..=n_sweep {
                let k = a as usize + 2;
                let (wr, plus) = recon_faces(&line[k - 1], &line[k], &line[k + 1]);
                let f = hll_flux(&self.eos, wl, wr, dir);
                wl = plus;
                if let Some(fp) = flux_prev {
                    // Update zone a−1 with F_a − F_{a−1}.
                    let (i1, i2) = if dir == 0 { (a - 1, b) } else { (b, a - 1) };
                    let c = state.cons(i1, i2);
                    // De-rotate: component 1 is normal momentum.
                    let (dm1, dm2) = if dir == 0 {
                        (f[1] - fp[1], f[2] - fp[2])
                    } else {
                        (f[2] - fp[2], f[1] - fp[1])
                    };
                    state.set_cons(
                        i1,
                        i2,
                        Cons {
                            rho: c.rho - lam * (f[0] - fp[0]),
                            m1: c.m1 - lam * dm1,
                            m2: c.m2 - lam * dm2,
                            etot: c.etot - lam * (f[3] - fp[3]),
                        },
                    );
                }
                flux_prev = Some(f);
            }
            Ok(())
        });
        state.line = line;
        swept?;
        // Riemann solves: branchy scalar physics in every compiler model.
        cx.charge(&KernelShape::streaming(
            KernelClass::Physics,
            (n1 * n2) as usize,
            90,
            8,
            4,
            4 * 8 * (n1 * n2) as usize,
        ));
        Ok(())
    }
}

/// Why [`HydroStepper::max_dt`] found no timestep.
#[derive(Debug)]
pub enum CflError {
    /// The allreduce failed (peer death, poisoned communicator).
    Comm(v2d_comm::CommError),
    /// A local zone's conserved state has no primitive form.
    Unphysical(Unphysical),
}

/// Reconstruct zone `w0`'s states at its minus and plus faces from one
/// minmod slope per variable toward its neighbors `wm` and `wp`.
fn recon_faces(wm: &Prim, w0: &Prim, wp: &Prim) -> (Prim, Prim) {
    let slope = |c: f64, m: f64, p: f64| minmod(c - m, p - c);
    let d = Prim {
        rho: slope(w0.rho, wm.rho, wp.rho),
        u1: slope(w0.u1, wm.u1, wp.u1),
        u2: slope(w0.u2, wm.u2, wp.u2),
        p: slope(w0.p, wm.p, wp.p),
    };
    let face = |half: f64| Prim {
        rho: (w0.rho + half * d.rho).max(1e-12),
        u1: w0.u1 + half * d.u1,
        u2: w0.u2 + half * d.u2,
        p: (w0.p + half * d.p).max(1e-12),
    };
    (face(-0.5), face(0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2;
    use v2d_comm::{Spmd, TileMap};
    use v2d_machine::CompilerProfile;

    fn profiles() -> Vec<CompilerProfile> {
        vec![CompilerProfile::cray_opt()]
    }

    fn eos() -> GammaLaw {
        GammaLaw::new(1.4)
    }

    #[test]
    fn minmod_properties() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(-3.0, -2.0), -2.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }

    #[test]
    fn exchange_moves_two_deep_strips_between_ranks() {
        let map = TileMap::new(8, 4, 2, 1);
        let outs = Spmd::new(2).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let t = cart.tile();
            let w = Prim { rho: 1.0, u1: 0.0, u2: 0.0, p: 1.0 };
            let mut st = HydroState::from_prim(t.n1, t.n2, &eos(), |_, _| w);
            st.rho.fill_with(|_, i1, i2| ((t.i1_start + i1) * 10 + i2) as f64);
            let mut cx = ExecCtx::new(&mut ctx.sink);
            st.exchange_halos(&cart, &ctx.comm, &mut cx, &HydroBc::outflow());
            [-2, -1, 4, 5].map(|i1| st.rho.get(0, i1, 1))
        });
        // Rank 0 owns global columns 0..4: outflow of column 0 on its
        // west, columns 4 and 5 from rank 1 on its east.
        assert_eq!(outs[0], [1.0, 1.0, 41.0, 51.0]);
        // Rank 1 owns 4..8: columns 2 and 3 on its west, outflow east.
        assert_eq!(outs[1], [21.0, 31.0, 71.0, 71.0]);
    }

    #[test]
    fn hll_of_equal_states_is_exact_flux() {
        let w = Prim { rho: 1.0, u1: 0.3, u2: -0.1, p: 0.8 };
        let f = hll_flux(&eos(), w, w, 0);
        assert!((f[0] - w.rho * w.u1).abs() < 1e-14);
        assert!((f[1] - (w.rho * w.u1 * w.u1 + w.p)).abs() < 1e-14);
    }

    #[test]
    fn uniform_state_is_stationary() {
        let g = Grid2::new(12, 8, (0.0, 1.2), (0.0, 0.8), Geometry::Cartesian);
        let map = TileMap::new(12, 8, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let grid = LocalGrid::new(g, cart.tile());
            let w = Prim { rho: 1.0, u1: 0.0, u2: 0.0, p: 1.0 };
            let mut st = HydroState::from_prim(12, 8, &eos(), |_, _| w);
            let before = st.clone();
            let stepper = HydroStepper::new(eos(), 0.4);
            for _ in 0..5 {
                stepper
                    .step(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &cart, &grid, &mut st, 1e-3)
                    .expect("physical state");
            }
            for i2 in 0..8isize {
                for i1 in 0..12isize {
                    assert!((st.rho.get(0, i1, i2) - before.rho.get(0, i1, i2)).abs() < 1e-13);
                    assert!((st.etot.get(0, i1, i2) - before.etot.get(0, i1, i2)).abs() < 1e-13);
                }
            }
        });
    }

    #[test]
    fn sod_shock_tube_structure() {
        // Classic Sod along x1; by t=0.1 (short enough that waves stay
        // interior) expect monotone density decrease left→right through
        // rarefaction/contact/shock, and exact mass conservation.
        let n1 = 100;
        let g = Grid2::new(n1, 4, (0.0, 1.0), (0.0, 0.04), Geometry::Cartesian);
        let map = TileMap::new(n1, 4, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let grid = LocalGrid::new(g, cart.tile());
            let mut st = HydroState::from_prim(n1, 4, &eos(), |i1, _| {
                if ((i1 as f64 + 0.5) / n1 as f64) < 0.5 {
                    Prim { rho: 1.0, u1: 0.0, u2: 0.0, p: 1.0 }
                } else {
                    Prim { rho: 0.125, u1: 0.0, u2: 0.0, p: 0.1 }
                }
            });
            let mass0 = st.total_mass_local();
            let stepper = HydroStepper::new(eos(), 0.4);
            let mut t = 0.0;
            while t < 0.1 {
                let dt = stepper
                    .max_dt(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &grid, &st)
                    .expect("healthy comm")
                    .min(0.1 - t);
                stepper
                    .step(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &cart, &grid, &mut st, dt)
                    .expect("physical state");
                t += dt;
            }
            let mass1 = st.total_mass_local();
            assert!(((mass1 - mass0) / mass0).abs() < 1e-12, "mass drifted: {mass0} → {mass1}");
            // Post-shock plateau: density between the two initial states
            // somewhere right of center; flow moves right.
            let rho_mid = st.rho.get(0, 60, 1);
            assert!(rho_mid < 1.0 && rho_mid > 0.125, "no intermediate state: {rho_mid}");
            let u_mid = st.m1.get(0, 55, 1) / st.rho.get(0, 55, 1);
            assert!(u_mid > 0.1, "contact not moving right: u = {u_mid}");
            // Left boundary still undisturbed.
            assert!((st.rho.get(0, 1, 1) - 1.0).abs() < 1e-6);
        });
    }

    #[test]
    fn contact_advects_at_flow_speed() {
        let n1 = 64;
        let g = Grid2::new(n1, 4, (0.0, 1.0), (0.0, 0.0625), Geometry::Cartesian);
        let map = TileMap::new(n1, 4, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let grid = LocalGrid::new(g, cart.tile());
            // Uniform p, u; density bump — pure advection.
            let mut st = HydroState::from_prim(n1, 4, &eos(), |i1, _| {
                let x = (i1 as f64 + 0.5) / n1 as f64;
                let rho = 1.0 + ((-(x - 0.3f64).powi(2)) / 0.004).exp();
                Prim { rho, u1: 0.5, u2: 0.0, p: 1.0 }
            });
            let stepper = HydroStepper::new(eos(), 0.4);
            let mut t = 0.0;
            while t < 0.4 {
                let dt = stepper
                    .max_dt(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &grid, &st)
                    .expect("healthy comm")
                    .min(0.4 - t);
                stepper
                    .step(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &cart, &grid, &mut st, dt)
                    .expect("physical state");
                t += dt;
            }
            // Peak should have moved from x=0.3 to ≈0.5.
            let mut peak_i = 0;
            let mut peak = 0.0;
            for i1 in 0..n1 as isize {
                let v = st.rho.get(0, i1, 1);
                if v > peak {
                    peak = v;
                    peak_i = i1;
                }
            }
            let x_peak = (peak_i as f64 + 0.5) / n1 as f64;
            assert!(
                (x_peak - 0.5).abs() < 0.06,
                "peak at {x_peak}, expected ≈0.5 (peak value {peak})"
            );
        });
    }

    #[test]
    fn closed_box_conserves_mass_and_reflects_flow() {
        // A density blob with rightward momentum in a closed box: after
        // bouncing off the east wall the mean velocity must have turned
        // around, with mass conserved to machine precision throughout.
        let n1 = 64;
        let g = Grid2::new(n1, 4, (0.0, 1.0), (0.0, 0.0625), Geometry::Cartesian);
        let map = TileMap::new(n1, 4, 1, 1);
        Spmd::new(1).with_profiles(profiles()).run(|ctx| {
            let cart = CartComm::new(&ctx.comm, map);
            let grid = LocalGrid::new(g, cart.tile());
            let mut st = HydroState::from_prim(n1, 4, &eos(), |i1, _| {
                let x = (i1 as f64 + 0.5) / n1 as f64;
                Prim {
                    rho: 1.0 + ((-(x - 0.7f64).powi(2)) / 0.002).exp(),
                    u1: 0.4,
                    u2: 0.0,
                    p: 1.0,
                }
            });
            let stepper = HydroStepper::new(eos(), 0.4).with_bc(HydroBc::closed_box());
            let mass0 = st.total_mass_local();
            let mom = |st: &HydroState| st.m1.interior_to_vec().iter().sum::<f64>();
            assert!(mom(&st) > 0.0);
            let mut t = 0.0;
            while t < 0.6 {
                let dt = stepper
                    .max_dt(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &grid, &st)
                    .expect("healthy comm")
                    .min(0.6 - t);
                stepper
                    .step(&ctx.comm, &mut ExecCtx::new(&mut ctx.sink), &cart, &grid, &mut st, dt)
                    .expect("physical state");
                t += dt;
            }
            let mass1 = st.total_mass_local();
            assert!(
                ((mass1 - mass0) / mass0).abs() < 1e-12,
                "closed box leaked mass: {mass0} → {mass1}"
            );
            assert!(mom(&st) < 0.0, "flow did not reflect off the wall: net m1 = {}", mom(&st));
        });
    }

    #[test]
    fn multirank_matches_single_rank() {
        let n1 = 32;
        let g = Grid2::new(n1, 8, (0.0, 1.0), (0.0, 0.25), Geometry::Cartesian);
        let run = |np1: usize, np2: usize| {
            let map = TileMap::new(n1, 8, np1, np2);
            let outs = Spmd::new(np1 * np2).with_profiles(profiles()).run(|ctx| {
                let cart = CartComm::new(&ctx.comm, map);
                let t = cart.tile();
                let grid = LocalGrid::new(g, t);
                let mut st = HydroState::from_prim(t.n1, t.n2, &eos(), |i1, i2| {
                    let x = ((t.i1_start + i1) as f64 + 0.5) / n1 as f64;
                    let y = ((t.i2_start + i2) as f64 + 0.5) / 8.0;
                    Prim {
                        rho: 1.0
                            + 0.3
                                * (std::f64::consts::TAU * x).sin()
                                * (std::f64::consts::TAU * y).cos(),
                        u1: 0.2,
                        u2: -0.1,
                        p: 1.0,
                    }
                });
                let stepper = HydroStepper::new(eos(), 0.4);
                for _ in 0..4 {
                    stepper
                        .step(
                            &ctx.comm,
                            &mut ExecCtx::new(&mut ctx.sink),
                            &cart,
                            &grid,
                            &mut st,
                            2e-3,
                        )
                        .expect("physical state");
                }
                let mut out = Vec::new();
                for i2 in 0..t.n2 {
                    for i1 in 0..t.n1 {
                        out.push((
                            (t.i1_start + i1, t.i2_start + i2),
                            st.rho.get(0, i1 as isize, i2 as isize),
                        ));
                    }
                }
                out
            });
            let mut all: Vec<_> = outs.into_iter().flatten().collect();
            all.sort_by_key(|&((a, b), _)| (b, a));
            all.into_iter().map(|(_, v)| v).collect::<Vec<f64>>()
        };
        let single = run(1, 1);
        let multi = run(4, 2);
        for (i, (a, b)) in single.iter().zip(&multi).enumerate() {
            assert!((a - b).abs() < 1e-12, "rho differs at {i}: {a} vs {b}");
        }
    }
}
