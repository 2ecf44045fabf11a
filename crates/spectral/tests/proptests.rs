//! Property-based tests for the spectral/hp element method: exactness of
//! polynomial reproduction, operator symmetry and assembly invariants
//! over random meshes and orders.

use nkt_mesh::{rect_quads, rect_tris, BoundaryTag};
use nkt_spectral::element::Expansion;
use nkt_spectral::{Assembly, HelmholtzProblem, QuadBasis, SolveMethod, TriBasis};
use nkt_testkit::{prop_assert, prop_assert_eq, prop_check};

const ALL: &[BoundaryTag] = &[
    BoundaryTag::Wall,
    BoundaryTag::Inflow,
    BoundaryTag::Outflow,
    BoundaryTag::Side,
];

prop_check! {
    #![cases(12)]

    /// Laplace problems reproduce any affine solution exactly on any
    /// quadrilateral mesh and order.
    fn laplace_reproduces_affine(nx in 1usize..4, ny in 1usize..4, p in 2usize..6,
                                 a in -2.0f64..2.0, b in -2.0f64..2.0, c in -2.0f64..2.0) {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, nx, ny);
        let exact = move |x: [f64; 2]| a + b * x[0] + c * x[1];
        let mut prob = HelmholtzProblem::new(mesh, p, 0.0, ALL);
        let (u, _) = prob.solve(|_| 0.0, exact, SolveMethod::BandedDirect);
        prop_assert!(prob.l2_error(&u, exact) < 1e-8);
    }

    /// Same on triangular meshes (collapsed-coordinate basis).
    fn laplace_affine_on_triangles(n in 1usize..3, p in 2usize..5, b in -2.0f64..2.0) {
        let mesh = rect_tris(0.0, 1.0, 0.0, 1.0, n, n);
        let exact = move |x: [f64; 2]| 1.0 + b * x[0] - 0.5 * x[1];
        let mut prob = HelmholtzProblem::new(mesh, p, 0.0, ALL);
        let (u, _) = prob.solve(|_| 0.0, exact, SolveMethod::BandedDirect);
        prop_assert!(prob.l2_error(&u, exact) < 1e-7);
    }

    /// The condensed solve is a symmetric operator (no Dirichlet dofs,
    /// λ > 0): <b₁, K⁻¹b₂> = <b₂, K⁻¹b₁> for random λ and loads.
    fn condensed_solve_operator_symmetric(nx in 1usize..3, p in 2usize..5, lam in 0.1f64..100.0,
                                           seed in 0u64..100) {
        let mesh = rect_quads(0.0, 2.0, 0.0, 1.0, nx + 1, nx);
        let mut prob = HelmholtzProblem::new(mesh, p, lam, &[]);
        let n = prob.asm.ndof;
        let b1: Vec<f64> = (0..n).map(|i| ((i as u64 + seed) as f64 * 0.37).sin()).collect();
        let b2: Vec<f64> = (0..n).map(|i| ((i as u64 * 5 + seed) as f64 * 0.11).cos()).collect();
        let (x1, _) = prob.solve_with_rhs(b1.clone(), &[], SolveMethod::BandedDirect);
        let (x2, _) = prob.solve_with_rhs(b2.clone(), &[], SolveMethod::BandedDirect);
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let (d12, d21) = (dot(&b1, &x2), dot(&b2, &x1));
        prop_assert!((d12 - d21).abs() <= 1e-11 * d12.abs().max(1.0), "{d12} vs {d21}");
    }

    /// Dof counts follow the Euler-style formula for quads:
    /// verts + edges(p−1) + elems(p−1)².
    fn quad_dof_count_formula(nx in 1usize..5, ny in 1usize..5, p in 2usize..6) {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, nx, ny);
        let basis = QuadBasis::new(p);
        let asm = Assembly::build(&mesh, |_| &basis, |_| false);
        let nv = (nx + 1) * (ny + 1);
        let ne = nx * (ny + 1) + ny * (nx + 1);
        let expect = nv + ne * (p - 1) + nx * ny * (p - 1) * (p - 1);
        prop_assert_eq!(asm.ndof, expect);
    }

    /// Gather/scatter adjointness: <scatter(x_local), y> == <x_local,
    /// gather(y)> for every element (signs cancel).
    fn gather_scatter_adjoint(nx in 1usize..4, p in 2usize..5, seed in 0u64..100) {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, nx, nx);
        let basis = QuadBasis::new(p);
        let asm = Assembly::build(&mesh, |_| &basis, |_| false);
        let nm = basis.nmodes();
        let xl: Vec<f64> = (0..nm).map(|i| ((i as u64 + seed) as f64 * 0.17).sin()).collect();
        let yg: Vec<f64> = (0..asm.ndof).map(|i| ((i as u64 * 3 + seed) as f64 * 0.07).cos()).collect();
        for ei in 0..mesh.nelems() {
            let mut scattered = vec![0.0; asm.ndof];
            asm.scatter_add(ei, &xl, &mut scattered);
            let lhs: f64 = scattered.iter().zip(&yg).map(|(a, b)| a * b).sum();
            let mut gathered = vec![0.0; nm];
            asm.gather(ei, &yg, &mut gathered);
            let rhs: f64 = xl.iter().zip(&gathered).map(|(a, b)| a * b).sum();
            prop_assert!((lhs - rhs).abs() < 1e-10, "element {ei}");
        }
    }

    /// Triangle basis: quadrature of any mode against the constant one
    /// equals its exact integral computed from the vertex modes'
    /// partition of unity (sanity of collapsed-coordinate weights).
    fn tri_mode_integrals_finite(p in 1usize..6) {
        let b = TriBasis::new(p);
        for m in 0..b.nmodes() {
            let integral: f64 = (0..b.nquad()).map(|q| b.wq[q] * b.val[m][q]).sum();
            prop_assert!(integral.is_finite());
            prop_assert!(integral.abs() <= 2.0 + 1e-9, "mode {m}: {integral}");
        }
        // Vertex modes (barycentric) each integrate to area/3 = 2/3.
        for m in 0..3 {
            let integral: f64 = (0..b.nquad()).map(|q| b.wq[q] * b.val[m][q]).sum();
            prop_assert!((integral - 2.0 / 3.0).abs() < 1e-10);
        }
    }
}
