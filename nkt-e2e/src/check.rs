//! Correctness gate: every episode's final state is checked against a
//! reference recorded in this file, with the tolerance stated next to it.
//! A failed check counts in `failed_frac` and makes the run exit nonzero.

/// One verdict.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub value: f64,
    pub reference: f64,
    pub tol: f64,
    pub ok: bool,
}

impl std::fmt::Display for Check {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}: value {:.12e}, reference {:.12e}, tolerance {:.3e}",
            if self.ok { "ok  " } else { "FAIL" },
            self.name,
            self.value,
            self.reference,
            self.tol
        )
    }
}

/// `|value − reference| ≤ tol` (a NaN value fails).
pub fn within(name: &'static str, value: f64, reference: f64, tol: f64) -> Check {
    Check {
        name,
        value,
        reference,
        tol,
        ok: (value - reference).abs() <= tol,
    }
}

/// A yes/no property (value 1 = holds).
pub fn holds(name: &'static str, ok: bool) -> Check {
    Check {
        name,
        value: if ok { 1.0 } else { 0.0 },
        reference: 1.0,
        tol: 0.0,
        ok,
    }
}

/// Recorded final-state references of the full-size workloads (release
/// build, x86-64). The seed perturbs the initial velocity by
/// [`crate::gen::PERTURBATION_AMP`]; each tolerance covers every seed and
/// rounding changes from reordering the arithmetic (e.g. a dof
/// renumbering), and is orders of magnitude tighter than any change to
/// the physics.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Final kinetic energy and its absolute tolerance.
    pub ke: (f64, f64),
    /// Final divergence norm and its absolute tolerance.
    pub div: (f64, f64),
    /// Mean PCG iterations per steady step and their tolerance: pressure,
    /// velocity (the sum of three component solves), mesh velocity.
    pub pcg: [(f64, f64); 3],
}

/// `wake2d` after its last step.
pub const WAKE2D: Reference = Reference {
    ke: (7.309219833950, 7e-7),
    div: (29.73684344095, 3e-6),
    pcg: [(0.0, 0.0); 3],
};
/// `fourier_slab` after its last step.
pub const FOURIER_SLAB: Reference = Reference {
    ke: (11.16577088539, 1.1e-6),
    div: (0.0747189372759, 7.5e-9),
    pcg: [(0.0, 0.0); 3],
};
/// `ale_wing` after its last step. Its warm-started PCG stops at a
/// relative residual of 1e-6, so the seed's perturbation moves the
/// iteration counts and the final energy: over 41 seeds the velocity
/// solves took 689.5 to 696.0 iterations a step, the pressure solve
/// 114.6 to 115.0, and the energy spread by ±1.9e-7. Each tolerance is
/// about twice that seed spread and at least one iteration per solve.
pub const ALE_WING: Reference = Reference {
    ke: (3.39546e-3, 1e-6),
    div: (0.0, 0.0),
    pcg: [(114.8, 1.0), (692.75, 6.0), (69.0, 1.0)],
};

/// Kinetic energy and divergence against a reference.
pub fn energy_and_divergence(ke: f64, div: f64, r: &Reference) -> Vec<Check> {
    vec![
        within("kinetic_energy", ke, r.ke.0, r.ke.1),
        within("divergence", div, r.div.0, r.div.1),
    ]
}

/// Mean PCG iterations per step against a reference.
pub fn pcg_iterations(iters: [f64; 3], r: &Reference) -> Vec<Check> {
    let [p, v, m] = r.pcg;
    vec![
        within("pcg_iters_pressure", iters[0], p.0, p.1),
        within("pcg_iters_velocity", iters[1], v.0, v.1),
        within("pcg_iters_mesh", iters[2], m.0, m.1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_is_inclusive_and_rejects_nan() {
        assert!(within("x", 1.0, 1.5, 0.5).ok);
        assert!(!within("x", 1.0, 1.5 + 1e-12, 0.5).ok);
        assert!(!within("x", f64::NAN, 0.0, 1.0).ok);
    }

    #[test]
    fn pcg_gate_holds_each_solve_to_its_tolerance() {
        let r = ALE_WING;
        let at = |d: [f64; 3]| [r.pcg[0].0 + d[0], r.pcg[1].0 + d[1], r.pcg[2].0 + d[2]];
        assert!(pcg_iterations(at([1.0, -6.0, 1.0]), &r)
            .iter()
            .all(|c| c.ok));
        assert!(!pcg_iterations(at([1.5, 0.0, 0.0]), &r)[0].ok);
        assert!(!pcg_iterations(at([0.0, 6.5, 0.0]), &r)[1].ok);
        assert!(!pcg_iterations(at([0.0, 0.0, -1.5]), &r)[2].ok);
    }
}
