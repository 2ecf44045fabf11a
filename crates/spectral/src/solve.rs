//! Global Helmholtz / Poisson solver on a 2-D spectral/hp mesh.
//!
//! Weak form: find u with u = g on Γ_D such that
//! ∫ ∇u·∇v + λ∫ u v = ∫ f v for all v vanishing on Γ_D (Neumann
//! boundaries are natural). λ = 0 gives the pressure Poisson equation of
//! the splitting scheme; λ > 0 the viscous Helmholtz step.

use crate::assembly::Assembly;
use crate::condensed::CondensedSystem;
use crate::element::{elem_geometry, ElemOps, ElementMatrices, Expansion};
use crate::quadbasis::QuadBasis;
use crate::tribasis::TriBasis;
use nkt_mesh::{BoundaryTag, ElemKind, Mesh2d};
use nkt_poly::quadrature::zwglj;

/// Linear solver choice (the paper uses both: banded direct for the
/// serial/Fourier code, diagonal PCG for ALE). Both run on the statically
/// condensed boundary system ([`CondensedSystem`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveMethod {
    /// Banded symmetric Cholesky (`dpbtrf`/`dpbtrs`) of the RCM-numbered
    /// boundary system.
    BandedDirect,
    /// Diagonally preconditioned conjugate gradients on the boundary
    /// system.
    Pcg {
        /// Relative residual tolerance.
        tol: f64,
        /// Iteration cap.
        max_iter: usize,
    },
}

/// Statistics from a solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Free (non-Dirichlet) dofs.
    pub nfree: usize,
    /// Semi-bandwidth of the condensed boundary system.
    pub bandwidth: usize,
    /// PCG iterations (0 for the direct path).
    pub iterations: usize,
}

/// An assembled Helmholtz problem on a mesh (geometry/matrices cached;
/// many right-hand sides can be solved against one factorization).
pub struct HelmholtzProblem {
    /// The mesh.
    pub mesh: Mesh2d,
    /// Polynomial order.
    pub order: usize,
    /// Helmholtz constant λ (0 = Poisson).
    pub lambda: f64,
    quad_basis: Option<QuadBasis>,
    tri_basis: Option<TriBasis>,
    /// Global dof map.
    pub asm: Assembly,
    /// Per-element operators.
    pub ops: Vec<ElemOps>,
    /// The statically condensed Helmholtz system (Dirichlet dofs
    /// constrained).
    system: CondensedSystem,
    /// The condensed, unconstrained global mass matrix (built on the
    /// first L2 projection).
    mass: Option<CondensedSystem>,
    dirichlet_tags: Vec<BoundaryTag>,
}

impl HelmholtzProblem {
    /// Builds the problem and condenses it. `dirichlet_tags` lists the
    /// essential boundary tags; all other boundaries are natural
    /// (zero-flux Neumann — the paper's outflow/sides).
    pub fn new(mesh: Mesh2d, order: usize, lambda: f64, dirichlet_tags: &[BoundaryTag]) -> Self {
        let has_quad = mesh.elems.iter().any(|e| e.kind == ElemKind::Quad);
        let has_tri = mesh.elems.iter().any(|e| e.kind == ElemKind::Tri);
        let quad_basis = has_quad.then(|| QuadBasis::new(order));
        let tri_basis = has_tri.then(|| TriBasis::new(order));
        let basis_of = |kind: ElemKind| -> &dyn Expansion {
            match kind {
                ElemKind::Quad => quad_basis.as_ref().expect("quad basis built"),
                ElemKind::Tri => tri_basis.as_ref().expect("tri basis built"),
                ElemKind::Hex => panic!("2-D solver on hex mesh"),
            }
        };
        let asm = Assembly::build(
            &mesh,
            |ei| basis_of(mesh.elems[ei].kind),
            |tag| dirichlet_tags.contains(&tag),
        );
        let mut ops = Vec::with_capacity(mesh.nelems());
        for ei in 0..mesh.nelems() {
            let basis = basis_of(mesh.elems[ei].kind);
            let geom = elem_geometry(basis, &mesh, ei);
            let mats = ElementMatrices::build(basis, &geom);
            let basis_id = match mesh.elems[ei].kind {
                ElemKind::Quad => 0,
                ElemKind::Tri => 1,
                ElemKind::Hex => unreachable!(),
            };
            ops.push(ElemOps { basis_id, geom, mats });
        }
        let system =
            CondensedSystem::new(&asm, &asm.dirichlet, |ei| ops[ei].mats.helmholtz(lambda));
        HelmholtzProblem {
            mesh,
            order,
            lambda,
            quad_basis,
            tri_basis,
            asm,
            ops,
            system,
            mass: None,
            dirichlet_tags: dirichlet_tags.to_vec(),
        }
    }

    /// The expansion basis for element `ei`.
    pub fn basis(&self, ei: usize) -> &dyn Expansion {
        match self.mesh.elems[ei].kind {
            ElemKind::Quad => self.quad_basis.as_ref().expect("quad basis"),
            ElemKind::Tri => self.tri_basis.as_ref().expect("tri basis"),
            ElemKind::Hex => unreachable!(),
        }
    }

    /// The condensed Helmholtz system: boundary-system order and
    /// bandwidth, per-element shapes, exact flop counts.
    pub fn system(&self) -> &CondensedSystem {
        &self.system
    }

    /// Global load vectors ∫ f_c φ of `nfields` functions sampled
    /// together: `f(x, out)` writes every field's value at `x` into
    /// `out`, once per quadrature point.
    fn load_vectors(
        &self,
        nfields: usize,
        mut f: impl FnMut([f64; 2], &mut [f64]),
    ) -> Vec<Vec<f64>> {
        let mut loads = vec![vec![0.0; self.asm.ndof]; nfields];
        for ei in 0..self.mesh.nelems() {
            let basis = self.basis(ei);
            let geom = &self.ops[ei].geom;
            let nq = basis.nquad();
            let mut vals = vec![0.0; nq * nfields];
            for (q, out) in vals.chunks_exact_mut(nfields).enumerate() {
                f(geom.x[q], out);
            }
            let mut local = vec![0.0; basis.nmodes()];
            for (c, load) in loads.iter_mut().enumerate() {
                for (m, lm) in local.iter_mut().enumerate() {
                    let vm = &basis.val()[m];
                    let mut s = 0.0;
                    for q in 0..nq {
                        s += geom.jw[q] * vals[q * nfields + c] * vm[q];
                    }
                    *lm = s;
                }
                self.asm.scatter_add(ei, &local, load);
            }
        }
        loads
    }

    /// Builds the global load vector ∫ f φ + Dirichlet lift for boundary
    /// data `g`, then solves. Returns (global coefficients, stats).
    pub fn solve(
        &mut self,
        f: impl Fn([f64; 2]) -> f64,
        g: impl Fn([f64; 2]) -> f64,
        method: SolveMethod,
    ) -> (Vec<f64>, SolveStats) {
        let rhs = self.load_vectors(1, |x, out| out[0] = f(x)).pop().expect("one field");
        let u_d = self.dirichlet_values(&g);
        self.solve_with_rhs(rhs, &u_d, method)
    }

    /// Computes the Dirichlet dof values: vertex dofs take g directly;
    /// edge-mode dofs take the 1-D L2 projection of the residual along
    /// each essential edge.
    pub fn dirichlet_values(&self, g: &impl Fn([f64; 2]) -> f64) -> Vec<f64> {
        let modes_per_edge = self.order.saturating_sub(1);
        let edge_base = self.mesh.nverts();
        let mut u_d = vec![0.0; self.asm.ndof];
        let rule = zwglj(self.order + 3, 0.0, 0.0);
        for (edge_id, edge) in self.mesh.edges.iter().enumerate() {
            let Some(tag) = edge.tag else { continue };
            if !self.dirichlet_tags.contains(&tag) {
                continue;
            }
            let a = self.mesh.verts[edge.v[0]];
            let b = self.mesh.verts[edge.v[1]];
            let ga = g(a);
            let gb = g(b);
            u_d[edge.v[0]] = ga;
            u_d[edge.v[1]] = gb;
            if modes_per_edge == 0 {
                continue;
            }
            // Project the non-linear residual onto the bubble modes.
            let nb = modes_per_edge;
            let mut mass = vec![0.0; nb * nb];
            let mut load = vec![0.0; nb];
            for (q, &t) in rule.z.iter().enumerate() {
                let x = [
                    0.5 * (1.0 - t) * a[0] + 0.5 * (1.0 + t) * b[0],
                    0.5 * (1.0 - t) * a[1] + 0.5 * (1.0 + t) * b[1],
                ];
                let lin = 0.5 * (1.0 - t) * ga + 0.5 * (1.0 + t) * gb;
                let resid = g(x) - lin;
                let w = rule.w[q];
                let vals: Vec<f64> = (1..=nb)
                    .map(|k| crate::basis1d::eval_mode(self.order, k, t))
                    .collect();
                for i in 0..nb {
                    load[i] += w * vals[i] * resid;
                    for j in 0..nb {
                        mass[i + j * nb] += w * vals[i] * vals[j];
                    }
                }
            }
            nkt_blas::dpotrf(nb, &mut mass, nb).expect("edge mass SPD");
            nkt_blas::dpotrs(nb, &mass, nb, &mut load).expect("edge projection");
            for (k, &c) in load.iter().enumerate() {
                u_d[edge_base + edge_id * modes_per_edge + k] = c;
            }
        }
        u_d
    }

    /// Solves K u = rhs with Dirichlet values `u_d` imposed: condenses
    /// the right-hand side, solves the boundary system, back-solves the
    /// element interiors.
    pub fn solve_with_rhs(
        &mut self,
        mut rhs: Vec<f64>,
        u_d: &[f64],
        method: SolveMethod,
    ) -> (Vec<f64>, SolveStats) {
        let iterations = self.system.solve(&mut rhs, u_d, method);
        let nfree = self.asm.ndof - self.asm.ndirichlet();
        (rhs, SolveStats { nfree, bandwidth: self.system.kd(), iterations })
    }

    /// Factors the condensed system now; otherwise the first direct
    /// solve does.
    pub fn factor(&mut self) {
        self.system.factor();
    }

    /// Pins dof `d` to a Dirichlet value (used to remove the null space of
    /// the pure-Neumann pressure Poisson problem). Pinning after a direct
    /// solve refactors on the next; pinning an interior dof condenses the
    /// system anew.
    pub fn pin_dof(&mut self, d: usize) {
        assert!(d < self.asm.ndof);
        if self.asm.dirichlet[d] {
            return;
        }
        self.asm.dirichlet[d] = true;
        if d < self.asm.nboundary {
            self.system.constrain(d);
        } else {
            let (ops, lambda) = (&self.ops, self.lambda);
            self.system = CondensedSystem::new(&self.asm, &self.asm.dirichlet, |ei| {
                ops[ei].mats.helmholtz(lambda)
            });
        }
    }

    /// Global L2 projection of `f` onto the expansion: solves M c = ∫ f φ
    /// with the assembled (unconstrained) mass matrix.
    pub fn l2_project(&mut self, f: impl Fn([f64; 2]) -> f64) -> Vec<f64> {
        self.l2_project_fields(1, |x, out| out[0] = f(x)).pop().expect("one field")
    }

    /// L2 projections of `nfields` functions sampled together: `f(x, out)`
    /// writes every field's value at `x` into `out`, once per quadrature
    /// point; one mass factorization serves all fields.
    pub fn l2_project_fields(
        &mut self,
        nfields: usize,
        f: impl FnMut([f64; 2], &mut [f64]),
    ) -> Vec<Vec<f64>> {
        let mut loads = self.load_vectors(nfields, f);
        let mass = self.mass.get_or_insert_with(|| {
            let free = vec![false; self.asm.ndof];
            CondensedSystem::new(&self.asm, &free, |ei| self.ops[ei].mats.mass.clone())
        });
        for load in &mut loads {
            mass.solve(load, &[], SolveMethod::BandedDirect);
        }
        loads
    }

    /// L2 error of a coefficient vector against an exact solution.
    pub fn l2_error(&self, coeffs: &[f64], exact: impl Fn([f64; 2]) -> f64) -> f64 {
        let mut err2 = 0.0;
        for ei in 0..self.mesh.nelems() {
            let basis = self.basis(ei);
            let geom = &self.ops[ei].geom;
            let mut local = vec![0.0; basis.nmodes()];
            self.asm.gather(ei, coeffs, &mut local);
            for q in 0..basis.nquad() {
                let mut u = 0.0;
                for (m, &c) in local.iter().enumerate() {
                    u += c * basis.val()[m][q];
                }
                let d = u - exact(geom.x[q]);
                err2 += geom.jw[q] * d * d;
            }
        }
        err2.sqrt()
    }

    /// Evaluates the solution at every quadrature point of every element;
    /// returns per-element vectors.
    pub fn eval_at_quadrature(&self, coeffs: &[f64]) -> Vec<Vec<f64>> {
        (0..self.mesh.nelems())
            .map(|ei| {
                let basis = self.basis(ei);
                let mut local = vec![0.0; basis.nmodes()];
                self.asm.gather(ei, coeffs, &mut local);
                (0..basis.nquad())
                    .map(|q| {
                        local
                            .iter()
                            .enumerate()
                            .map(|(m, &c)| c * basis.val()[m][q])
                            .sum()
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkt_mesh::{rect_quads, rect_tris};

    const ALL_DIRICHLET: &[BoundaryTag] = &[
        BoundaryTag::Wall,
        BoundaryTag::Inflow,
        BoundaryTag::Outflow,
        BoundaryTag::Side,
    ];

    #[test]
    fn poisson_quads_manufactured_solution() {
        // -∇²u = f with u = sin(pi x) sin(pi y) on [0,1]²; f = 2pi²u.
        let exact = |x: [f64; 2]| (std::f64::consts::PI * x[0]).sin() * (std::f64::consts::PI * x[1]).sin();
        let f = move |x: [f64; 2]| 2.0 * std::f64::consts::PI.powi(2) * exact(x);
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3);
        let mut prob = HelmholtzProblem::new(mesh, 6, 0.0, ALL_DIRICHLET);
        let (u, stats) = prob.solve(f, |_| 0.0, SolveMethod::BandedDirect);
        let err = prob.l2_error(&u, exact);
        assert!(err < 1e-5, "L2 error {err}");
        assert!(stats.nfree > 0);
    }

    /// p-convergence on the manufactured solution, as measured rates:
    /// σ_p = ln(e_p / e_{p+1}). The solution is entire, so convergence is
    /// faster than exponential — σ_p grows with p — and the mean rate over
    /// p = 2..9 is 2.85 (the error falls ~17× per order).
    #[test]
    fn poisson_spectral_convergence_in_p() {
        let exact = |x: [f64; 2]| (std::f64::consts::PI * x[0]).sin() * (std::f64::consts::PI * x[1]).sin();
        let f = move |x: [f64; 2]| 2.0 * std::f64::consts::PI.powi(2) * exact(x);
        let errs: Vec<f64> = (2usize..=9)
            .map(|p| {
                let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
                let mut prob = HelmholtzProblem::new(mesh, p, 0.0, ALL_DIRICHLET);
                let (u, _) = prob.solve(f, |_| 0.0, SolveMethod::BandedDirect);
                prob.l2_error(&u, exact)
            })
            .collect();
        let rates: Vec<f64> = errs.windows(2).map(|w| (w[0] / w[1]).ln()).collect();
        for (i, w) in rates.windows(2).enumerate() {
            assert!(w[1] > w[0], "rate must grow with p: σ_{} = {} ≤ σ_{} = {}", i + 3, w[1], i + 2, w[0]);
        }
        assert!(rates[0] > 2.3, "σ_2 = {}", rates[0]);
        let mean = (errs[0] / errs[errs.len() - 1]).ln() / rates.len() as f64;
        assert!((mean - 2.85).abs() < 0.05, "mean rate {mean} (errors {errs:?})");
        // Rates alone would pass errors all too large by one factor.
        let e8 = errs[8 - 2];
        assert!(e8 < 1e-7, "p=8 error {e8}");
    }

    #[test]
    fn poisson_triangles() {
        let exact = |x: [f64; 2]| (std::f64::consts::PI * x[0]).sin() * (std::f64::consts::PI * x[1]).sin();
        let f = move |x: [f64; 2]| 2.0 * std::f64::consts::PI.powi(2) * exact(x);
        let mesh = rect_tris(0.0, 1.0, 0.0, 1.0, 3, 3);
        let mut prob = HelmholtzProblem::new(mesh, 5, 0.0, ALL_DIRICHLET);
        let (u, _) = prob.solve(f, |_| 0.0, SolveMethod::BandedDirect);
        let err = prob.l2_error(&u, exact);
        assert!(err < 1e-4, "L2 error {err}");
    }

    #[test]
    fn helmholtz_with_lambda() {
        // (-∇² + λ)u = f, u = cos(pi x)cos(pi y) (pure Neumann via exact
        // normal derivative zero on [0,1]² boundary!), λ = 5.
        let lam = 5.0;
        let pi = std::f64::consts::PI;
        let exact = move |x: [f64; 2]| (pi * x[0]).cos() * (pi * x[1]).cos();
        let f = move |x: [f64; 2]| (2.0 * pi * pi + lam) * exact(x);
        // Neumann everywhere: no Dirichlet tags -> lambda>0 keeps it SPD.
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 3, 3);
        let mut prob = HelmholtzProblem::new(mesh, 6, lam, &[]);
        let (u, _) = prob.solve(f, |_| 0.0, SolveMethod::BandedDirect);
        let err = prob.l2_error(&u, exact);
        assert!(err < 1e-5, "L2 error {err}");
    }

    #[test]
    fn pcg_matches_direct() {
        let pi = std::f64::consts::PI;
        let exact = move |x: [f64; 2]| (pi * x[0]).sin() * (pi * x[1]).sin();
        let f = move |x: [f64; 2]| 2.0 * pi * pi * exact(x);
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let mut p1 = HelmholtzProblem::new(mesh.clone(), 5, 0.0, ALL_DIRICHLET);
        let (ud, _) = p1.solve(f, |_| 0.0, SolveMethod::BandedDirect);
        let mut p2 = HelmholtzProblem::new(mesh, 5, 0.0, ALL_DIRICHLET);
        let (up, stats) = p2.solve(f, |_| 0.0, SolveMethod::Pcg { tol: 1e-12, max_iter: 2000 });
        assert!(stats.iterations > 0);
        for i in 0..ud.len() {
            assert!((ud[i] - up[i]).abs() < 1e-7, "dof {i}: {} vs {}", ud[i], up[i]);
        }
    }

    #[test]
    fn nonzero_dirichlet_data() {
        // u = 1 + x + y is in the basis for p >= 1: Laplace equation
        // reproduces it exactly from its boundary trace.
        let exact = |x: [f64; 2]| 1.0 + x[0] + 2.0 * x[1];
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let mut prob = HelmholtzProblem::new(mesh, 3, 0.0, ALL_DIRICHLET);
        let (u, _) = prob.solve(|_| 0.0, exact, SolveMethod::BandedDirect);
        let err = prob.l2_error(&u, exact);
        assert!(err < 1e-10, "L2 error {err}");
    }

    #[test]
    fn curved_dirichlet_data_projected() {
        // Boundary data quadratic along edges exercises the edge
        // projection: u = x² - y² is harmonic.
        let exact = |x: [f64; 2]| x[0] * x[0] - x[1] * x[1];
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let mut prob = HelmholtzProblem::new(mesh, 4, 0.0, ALL_DIRICHLET);
        let (u, _) = prob.solve(|_| 0.0, exact, SolveMethod::BandedDirect);
        let err = prob.l2_error(&u, exact);
        assert!(err < 1e-9, "L2 error {err}");
    }

    #[test]
    fn mixed_tri_quad_mesh() {
        // Quads on the left half, triangles on the right.
        use nkt_mesh::{Elem2d, Mesh2d};
        let q = rect_quads(0.0, 1.0, 0.0, 1.0, 2, 2);
        let mut verts = q.verts.clone();
        let mut elems = q.elems.clone();
        // Append a triangulated strip x in [1, 1.5].
        let v_base = verts.len();
        verts.push([1.5, 0.0]);
        verts.push([1.5, 0.5]);
        verts.push([1.5, 1.0]);
        // Right-edge vertices of the quad mesh at x=1: find them.
        let right: Vec<usize> = (0..v_base)
            .filter(|&i| (q.verts[i][0] - 1.0).abs() < 1e-12)
            .collect();
        assert_eq!(right.len(), 3);
        let mut r = right.clone();
        r.sort_by(|&a, &b| q.verts[a][1].partial_cmp(&q.verts[b][1]).unwrap());
        for s in 0..2 {
            let (a, b) = (r[s], r[s + 1]);
            let (c, d) = (v_base + s, v_base + s + 1);
            elems.push(Elem2d { kind: ElemKind::Tri, verts: vec![a, c, d] });
            elems.push(Elem2d { kind: ElemKind::Tri, verts: vec![a, d, b] });
        }
        let mesh = Mesh2d::new(verts, elems, |_| BoundaryTag::Wall);
        mesh.validate().unwrap();
        let exact = |x: [f64; 2]| 1.0 + 2.0 * x[0] - x[1];
        let mut prob = HelmholtzProblem::new(mesh, 3, 0.0, ALL_DIRICHLET);
        let (u, _) = prob.solve(|_| 0.0, exact, SolveMethod::BandedDirect);
        let err = prob.l2_error(&u, exact);
        assert!(err < 1e-9, "mixed-mesh error {err}");
    }
}
