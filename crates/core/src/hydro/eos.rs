//! The gamma-law equation of state.

/// Primitive variables at one zone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prim {
    pub rho: f64,
    pub u1: f64,
    pub u2: f64,
    pub p: f64,
}

/// Conserved variables at one zone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cons {
    pub rho: f64,
    pub m1: f64,
    pub m2: f64,
    pub etot: f64,
}

/// `p = (γ − 1) ρ e_int`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaLaw {
    pub gamma: f64,
}

impl GammaLaw {
    /// A new EOS; γ must exceed 1.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 1.0, "gamma-law EOS needs γ > 1, got {gamma}");
        GammaLaw { gamma }
    }

    /// Convert conserved → primitive.
    ///
    /// # Panics
    /// On non-positive density or pressure (a blown-up state should fail
    /// loudly in a simulation code).
    pub fn to_prim(&self, c: Cons) -> Prim {
        assert!(c.rho > 0.0, "non-positive density {}", c.rho);
        let u1 = c.m1 / c.rho;
        let u2 = c.m2 / c.rho;
        let eint = c.etot - 0.5 * c.rho * (u1 * u1 + u2 * u2);
        let p = (self.gamma - 1.0) * eint;
        assert!(p > 0.0, "non-positive pressure {p} (etot {}, rho {})", c.etot, c.rho);
        Prim { rho: c.rho, u1, u2, p }
    }

    /// Convert primitive → conserved.
    pub fn to_cons(&self, w: Prim) -> Cons {
        let eint = w.p / (self.gamma - 1.0);
        Cons {
            rho: w.rho,
            m1: w.rho * w.u1,
            m2: w.rho * w.u2,
            etot: eint + 0.5 * w.rho * (w.u1 * w.u1 + w.u2 * w.u2),
        }
    }

    /// Adiabatic sound speed.
    pub fn sound_speed(&self, w: &Prim) -> f64 {
        (self.gamma * w.p / w.rho).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cons_prim_roundtrip() {
        let eos = GammaLaw::new(1.4);
        let w = Prim { rho: 1.3, u1: 0.4, u2: -0.7, p: 2.1 };
        let got = eos.to_prim(eos.to_cons(w));
        assert!((got.rho - w.rho).abs() < 1e-14);
        assert!((got.u1 - w.u1).abs() < 1e-14);
        assert!((got.u2 - w.u2).abs() < 1e-14);
        assert!((got.p - w.p).abs() < 1e-14);
    }

    #[test]
    fn sound_speed_formula() {
        let eos = GammaLaw::new(1.4);
        let w = Prim { rho: 1.0, u1: 0.0, u2: 0.0, p: 1.0 };
        assert!((eos.sound_speed(&w) - 1.4f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "non-positive pressure")]
    fn unphysical_state_panics() {
        let eos = GammaLaw::new(1.4);
        let _ = eos.to_prim(Cons { rho: 1.0, m1: 10.0, m2: 0.0, etot: 1.0 });
    }

    #[test]
    #[should_panic(expected = "γ > 1")]
    fn bad_gamma_rejected() {
        let _ = GammaLaw::new(1.0);
    }
}
