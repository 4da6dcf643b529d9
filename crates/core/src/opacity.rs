//! Opacities: the microphysics that couples radiation to matter.
//!
//! V2D evolves multigroup neutrino radiation through matter whose
//! opacities depend on the local thermodynamic state.  The paper's
//! workload — and every deck, scenario and example here — fixes them
//! instead: constant per-species absorption `κ_a`, scattering `κ_s`, and
//! an inter-species exchange `κ_x` (the linearized energy-exchange
//! coupling that makes the two `x1·x2` blocks of the matrix talk to each
//! other), set by the deck's `kappa_a`/`kappa_s`/`kappa_x`.
//!
//! All opacities are *inverse lengths* (cm⁻¹-style): `κ = ρ·κ_specific`.

/// Constant per-species opacities, uniform over the grid for the whole
/// run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpacityModel {
    /// Absorption per species.
    pub kappa_a: [f64; 2],
    /// Scattering per species.
    pub kappa_s: [f64; 2],
    /// Inter-species exchange.
    pub kappa_x: f64,
}

impl OpacityModel {
    /// The default test-problem opacities (optically thickish so the
    /// diffusion approximation holds, with mild absorption so the system
    /// is not singular at large `dt`).
    pub fn test_problem() -> Self {
        OpacityModel { kappa_a: [0.02, 0.04], kappa_s: [2.0, 3.0], kappa_x: 0.01 }
    }

    /// Total (transport) opacity of species `s`: absorption + scattering.
    pub fn kappa_t(&self, s: usize) -> f64 {
        self.kappa_a[s] + self.kappa_s[s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_opacity_is_absorption_plus_scattering() {
        let m = OpacityModel::test_problem();
        assert_eq!(m.kappa_t(0), 0.02 + 2.0);
        assert_eq!(m.kappa_t(1), 0.04 + 3.0);
        assert!(m.kappa_t(0) > m.kappa_a[0]);
    }
}
