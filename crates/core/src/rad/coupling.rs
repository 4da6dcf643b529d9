//! Matter–radiation energy coupling.
//!
//! The full V2D evolves the material energy alongside the radiation
//! field: matter at temperature `T` emits `c·κ_a·B_s(T)` into each
//! species and absorbs `c·κ_a·E_s` from it.  The paper's benchmark
//! freezes this physics, but it is part of the code (and of the
//! "interspersed physics routines" overhead story), so the module is
//! implemented fully:
//!
//! * emission source assembly (feeds the implicit radiation solve), and
//! * the pointwise *implicit* gas-energy update — a scalar Newton solve
//!   per zone for the end-of-step temperature, unconditionally stable in
//!   the stiff-coupling limit.
//!
//! With `e_gas = c_v·T` and Planck-like emission `B_s(T) = f_s·a·T⁴`
//! (with `Σf_s = 1`), backward Euler for the exchange reads
//!
//! ```text
//! c_v (T¹ − T⁰)/dt = Σ_s c κ_a,s (E_s¹ − f_s a (T¹)⁴)
//! ```
//!
//! given the freshly solved radiation field `E¹`.  The residual is
//! monotone in `T¹`, so Newton from `T⁰` converges quadratically.

use v2d_linalg::{TileVec, NSPEC};
use v2d_machine::{ExecCtx, KernelClass, KernelShape};

/// Coupling closure parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatterCoupling {
    /// Gas heat capacity (e_gas = c_v · T).
    pub cv: f64,
    /// Radiation constant in `B = a·T⁴`.
    pub a_rad: f64,
    /// Fraction of the emission entering each species (sums to 1).
    pub split: [f64; NSPEC],
}

impl MatterCoupling {
    /// A coupling with an even split; asserts parameter sanity.
    pub fn new(cv: f64, a_rad: f64, split: [f64; NSPEC]) -> Self {
        assert!(cv > 0.0 && a_rad > 0.0, "cv and a must be positive");
        let sum: f64 = split.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-12 && split.iter().all(|&f| f >= 0.0),
            "emission split must be a partition of unity, got {split:?}"
        );
        MatterCoupling { cv, a_rad, split }
    }

    /// Emission into species `s` at temperature `t`.
    pub fn emission(&self, s: usize, t: f64) -> f64 {
        self.split[s] * self.a_rad * t.powi(4)
    }

    /// The radiation *source* field for the implicit solve: species `s`
    /// receives `c·κ_a,s·B_s(T)` per unit time, evaluated at the
    /// beginning-of-step temperature (the radiation solve then treats it
    /// as fixed — one leg of the operator splitting).
    pub fn emission_source(
        &self,
        cx: &mut ExecCtx,
        c_light: f64,
        kappa_a: [f64; NSPEC],
        temp: &TileVec,
        out: &mut TileVec,
    ) {
        let (n1, n2) = (out.n1(), out.n2());
        for (s, kap) in kappa_a.into_iter().enumerate() {
            for i2 in 0..n2 {
                for i1 in 0..n1 {
                    let t = temp.get(0, i1 as isize, i2 as isize);
                    out.set(s, i1 as isize, i2 as isize, c_light * kap * self.emission(s, t));
                }
            }
        }
        cx.charge(&KernelShape::streaming(
            KernelClass::Physics,
            n1 * n2 * NSPEC,
            10,
            2,
            2,
            16 * out.bytes(),
        ));
    }

    /// Implicit gas-temperature update after the radiation solve: one
    /// scalar Newton iteration per zone on the backward-Euler exchange
    /// residual.  Returns the maximum Newton iteration count (diagnostic).
    ///
    /// # Panics
    /// If Newton fails to converge in 50 iterations anywhere (a sign of
    /// unphysical inputs).
    pub fn update_temperature(
        &self,
        cx: &mut ExecCtx,
        c_light: f64,
        dt: f64,
        kappa_a: [f64; NSPEC],
        erad: &TileVec,
        temp: &mut TileVec,
    ) -> usize {
        let (n1, n2) = (temp.n1(), temp.n2());
        let mut worst = 0usize;
        for i2 in 0..n2 {
            for i1 in 0..n1 {
                let t0 = temp.get(0, i1 as isize, i2 as isize);
                assert!(t0 > 0.0, "non-positive temperature at ({i1},{i2}): {t0}");
                // Residual F(T) = cv(T−T0) − dt·Σ c κ_a (E_s − f_s a T⁴)
                let absorbed: f64 = (0..NSPEC)
                    .map(|s| c_light * kappa_a[s] * erad.get(s, i1 as isize, i2 as isize))
                    .sum();
                let kap_b: f64 =
                    (0..NSPEC).map(|s| c_light * kappa_a[s] * self.split[s] * self.a_rad).sum();
                // F is increasing and convex for T > 0, and the root lies
                // below max(T0, (absorbed/kapB)^¼); starting Newton from
                // that upper bound makes the iteration monotone
                // decreasing with quadratic convergence — no safeguards
                // or damping needed.
                let mut t = if kap_b > 0.0 {
                    t0.max((absorbed / kap_b).powf(0.25))
                } else {
                    t0 + dt * absorbed / self.cv
                };
                let mut iters = 0;
                loop {
                    let f = self.cv * (t - t0) - dt * (absorbed - kap_b * t.powi(4));
                    let df = self.cv + 4.0 * dt * kap_b * t.powi(3);
                    let step = f / df;
                    t -= step;
                    iters += 1;
                    if step.abs() <= 1e-13 * (1.0 + t.abs()) {
                        break;
                    }
                    assert!(iters < 60, "Newton stalled at ({i1},{i2}): T={t}, step={step}");
                }
                worst = worst.max(iters);
                temp.set(0, i1 as isize, i2 as isize, t);
            }
        }
        cx.charge(&KernelShape::streaming(
            KernelClass::Physics,
            n1 * n2,
            120,
            3,
            1,
            16 * 8 * n1 * n2,
        ));
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v2d_machine::{CompilerProfile, MultiCostSink};

    fn sink() -> MultiCostSink {
        MultiCostSink::single(CompilerProfile::cray_opt())
    }

    /// Absorption of both species in every test.
    const KAPPA_A: [f64; NSPEC] = [0.5, 0.5];

    #[test]
    fn split_must_sum_to_one() {
        let r = std::panic::catch_unwind(|| MatterCoupling::new(1.0, 1.0, [0.7, 0.6]));
        assert!(r.is_err());
    }

    #[test]
    fn emission_source_scales_as_t4() {
        let cp = MatterCoupling::new(1.0, 2.0, [0.25, 0.75]);
        let mut sk = sink();
        let mut temp = TileVec::with_shape(4, 3, 1, 1);
        temp.fill_with(|_, i1, _| 1.0 + i1 as f64);
        let mut src = TileVec::new(4, 3);
        cp.emission_source(&mut ExecCtx::new(&mut sk), 1.0, KAPPA_A, &temp, &mut src);
        // zone (1,0): T = 2 → B_0 = 0.25·2·16 = 8; source = c·κ_a·B = 4.
        assert!((src.get(0, 1, 0) - 0.5 * 8.0).abs() < 1e-12);
        assert!((src.get(1, 1, 0) - 0.5 * 24.0).abs() < 1e-12);
    }

    #[test]
    fn newton_finds_equilibrium_in_the_stiff_limit() {
        // Huge dt: T must land where emission balances absorption,
        // a·T⁴ = ΣE (for even split and equal opacities).
        let cp = MatterCoupling::new(1.0, 1.0, [0.5, 0.5]);
        let mut sk = sink();
        let mut temp = TileVec::with_shape(2, 2, 1, 1);
        temp.fill_with(|_, _, _| 1.0);
        let mut erad = TileVec::new(2, 2);
        erad.fill_interior(8.0); // ΣE = 16 → T_eq = 2 since a(T⁴)=16
        cp.update_temperature(&mut ExecCtx::new(&mut sk), 1.0, 1e9, KAPPA_A, &erad, &mut temp);
        let t = temp.get(0, 0, 0);
        assert!((t - 2.0).abs() < 1e-6, "stiff limit should hit a·T⁴ = ΣE: T = {t}");
    }

    #[test]
    fn small_dt_matches_explicit_rate() {
        // For tiny dt the implicit update reduces to
        // ΔT ≈ dt/cv · Σ cκ(E − f a T⁴).
        let cp = MatterCoupling::new(2.0, 1.0, [0.5, 0.5]);
        let mut sk = sink();
        let mut temp = TileVec::with_shape(2, 2, 1, 1);
        temp.fill_with(|_, _, _| 1.0);
        let mut erad = TileVec::new(2, 2);
        erad.fill_interior(3.0);
        let dt = 1e-6;
        cp.update_temperature(&mut ExecCtx::new(&mut sk), 1.0, dt, KAPPA_A, &erad, &mut temp);
        // rate = Σ cκ(E − 0.5·T⁴) = 2·0.5·(3 − 0.5) = 2.5; ΔT = dt·rate/cv.
        let want = 1.0 + dt * 2.5 / 2.0;
        let got = temp.get(0, 1, 1);
        assert!((got - want).abs() < 1e-10, "{got} vs {want}");
    }

    #[test]
    fn update_conserves_exchange_energy_against_emission() {
        // The gas gains exactly dt·Σcκ(E − B(T¹)) per zone — check the
        // budget the stepper relies on.
        let cp = MatterCoupling::new(1.5, 0.8, [0.6, 0.4]);
        let mut sk = sink();
        let mut temp = TileVec::with_shape(3, 3, 1, 1);
        temp.fill_with(|_, i1, i2| 0.8 + 0.1 * (i1 + i2) as f64);
        let t_before = temp.clone();
        let mut erad = TileVec::new(3, 3);
        erad.fill_with(|s, i1, i2| 1.0 + 0.2 * (s + i1 + 2 * i2) as f64);
        let dt = 0.37;
        cp.update_temperature(&mut ExecCtx::new(&mut sk), 1.0, dt, KAPPA_A, &erad, &mut temp);
        for i2 in 0..3isize {
            for i1 in 0..3isize {
                let t1 = temp.get(0, i1, i2);
                let t0 = t_before.get(0, i1, i2);
                let rhs: f64 = (0..NSPEC)
                    .map(|s| {
                        KAPPA_A[s] * (erad.get(s, i1, i2) - cp.split[s] * cp.a_rad * t1.powi(4))
                    })
                    .sum();
                assert!(
                    (cp.cv * (t1 - t0) - dt * rhs).abs() < 1e-9,
                    "budget violated at ({i1},{i2})"
                );
            }
        }
    }

    #[test]
    fn newton_is_robust_to_cold_gas_hot_radiation() {
        let cp = MatterCoupling::new(1.0, 1.0, [0.5, 0.5]);
        let mut sk = sink();
        let mut temp = TileVec::with_shape(1, 1, 1, 1);
        temp.fill_with(|_, _, _| 1e-6);
        let mut erad = TileVec::new(1, 1);
        erad.fill_interior(1e6);
        let iters = cp.update_temperature(
            &mut ExecCtx::new(&mut sk),
            1.0,
            100.0,
            KAPPA_A,
            &erad,
            &mut temp,
        );
        let t = temp.get(0, 0, 0);
        assert!(t > 1.0 && t.is_finite(), "T = {t}");
        assert!(iters < 50);
    }
}
