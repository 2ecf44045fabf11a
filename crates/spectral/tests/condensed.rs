//! The statically condensed Helmholtz solve against a dense reference:
//! the full assembled system (natural numbering, Dirichlet rows and
//! columns replaced by identity) factored with dense `dpotrf`. Also pins
//! the boundary-system sizes the solvers factor.

use nkt_blas::{dpotrf, dpotrs};
use nkt_mesh::{bluff_body_mesh, rect_quads, BoundaryTag, Elem2d, ElemKind, Mesh2d};
use nkt_spectral::{HelmholtzProblem, SolveMethod};
use nkt_testkit::rng::Rng;
use nkt_testkit::{prop_assert, prop_check};

const TAGS: [BoundaryTag; 4] = [
    BoundaryTag::Inflow,
    BoundaryTag::Outflow,
    BoundaryTag::Side,
    BoundaryTag::Wall,
];

/// The unit square as quads (`kind` 0), triangles (1) or a mix with every
/// other cell split (2); sides tagged left Inflow, right Outflow, bottom
/// Side, top Wall.
fn square(kind: usize, nx: usize, ny: usize) -> Mesh2d {
    let q = rect_quads(0.0, 1.0, 0.0, 1.0, nx, ny);
    let mut elems = Vec::new();
    for (i, el) in q.elems.iter().enumerate() {
        let v = &el.verts;
        if kind == 0 || (kind == 2 && i % 2 == 0) {
            elems.push(el.clone());
        } else {
            elems.push(Elem2d {
                kind: ElemKind::Tri,
                verts: vec![v[0], v[1], v[2]],
            });
            elems.push(Elem2d {
                kind: ElemKind::Tri,
                verts: vec![v[0], v[2], v[3]],
            });
        }
    }
    let tag = |x: [f64; 2]| {
        if x[0] < 1e-12 {
            BoundaryTag::Inflow
        } else if x[0] > 1.0 - 1e-12 {
            BoundaryTag::Outflow
        } else if x[1] < 1e-12 {
            BoundaryTag::Side
        } else {
            BoundaryTag::Wall
        }
    };
    let mesh = Mesh2d::new(q.verts.clone(), elems, tag);
    mesh.validate().unwrap();
    mesh
}

/// Dense reference: assembles K from the elemental Helmholtz matrices,
/// lifts and imposes the Dirichlet data, and solves with `dpotrf`.
fn dense_solve(prob: &HelmholtzProblem, rhs: &[f64], u_d: &[f64]) -> Vec<f64> {
    let n = prob.asm.ndof;
    let mut k = vec![0.0; n * n];
    for (ei, ops) in prob.ops.iter().enumerate() {
        let h = ops.mats.helmholtz(prob.lambda);
        let nm = ops.mats.nm;
        let dofs = &prob.asm.elem_dofs[ei];
        for a in 0..nm {
            for b in 0..nm {
                let ((ga, sa), (gb, sb)) = (dofs[a], dofs[b]);
                k[ga + gb * n] += sa * sb * h[a + b * nm];
            }
        }
    }
    let dir = &prob.asm.dirichlet;
    let mut b = rhs.to_vec();
    for i in 0..n {
        if dir[i] {
            b[i] = u_d[i];
            continue;
        }
        for j in 0..n {
            if dir[j] {
                b[i] -= k[i + j * n] * u_d[j];
            }
        }
    }
    for d in (0..n).filter(|&d| dir[d]) {
        for i in 0..n {
            k[i + d * n] = 0.0;
            k[d + i * n] = 0.0;
        }
        k[d + d * n] = 1.0;
    }
    dpotrf(n, &mut k, n).expect("dense reference must be SPD");
    dpotrs(n, &k, n, &mut b).unwrap();
    b
}

fn rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = b.iter().map(|y| y * y).sum();
    (num / den).sqrt()
}

prop_check! {
    #![cases(24)]

    /// The condensed direct solve equals the dense solve of the full
    /// system to 1e-12 relative, over quad, triangle and mixed meshes,
    /// orders 1–7, random λ, Dirichlet tag sets, data and pinned
    /// boundary and interior dofs.
    fn condensed_solve_matches_dense_reference(
        kind in 0usize..3, nx in 1usize..4, ny in 1usize..3, p in 1usize..8,
        lam in 0.0f64..50.0, tag_mask in 0usize..16, pin in 0usize..4, seed in 0u64..1000
    ) {
        let mesh = square(kind, nx, ny);
        let tags: Vec<BoundaryTag> =
            (0..4).filter(|b| tag_mask >> b & 1 == 1).map(|b| TAGS[b]).collect();
        let mut prob = HelmholtzProblem::new(mesh, p, lam, &tags);
        let (n, nb) = (prob.asm.ndof, prob.asm.nboundary);
        // A pure-Neumann Poisson problem needs its null space pinned on a
        // boundary dof (constants have no interior modes); otherwise pin
        // a boundary dof (pin 1), an interior one (2) or both (3).
        let neumann = prob.asm.ndirichlet() == 0 && lam == 0.0;
        if pin >= 2 && n > nb {
            prob.pin_dof(nb + seed as usize % (n - nb));
        }
        if neumann || pin == 1 || pin == 3 {
            prob.pin_dof((seed as usize * 7) % nb);
        }
        let mut rng = Rng::new(seed);
        let rhs: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let u_d: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let reference = dense_solve(&prob, &rhs, &u_d);
        let (u, stats) = prob.solve_with_rhs(rhs, &u_d, SolveMethod::BandedDirect);
        let err = rel_diff(&u, &reference);
        prop_assert!(err < 1e-12, "relative difference {err:e} (n = {n}, kd = {})", stats.bandwidth);
        for d in (0..n).filter(|&d| prob.asm.dirichlet[d]) {
            prop_assert!(u[d] == u_d[d], "Dirichlet dof {d} not imposed exactly");
        }
    }

    /// PCG on the condensed boundary system agrees with the direct path.
    fn condensed_pcg_matches_direct(
        kind in 0usize..3, p in 2usize..6, lam in 0.0f64..20.0, seed in 0u64..1000
    ) {
        let mesh = square(kind, 3, 2);
        let tags = [BoundaryTag::Inflow, BoundaryTag::Wall];
        let mut prob = HelmholtzProblem::new(mesh, p, lam, &tags);
        let mut rng = Rng::new(seed);
        let n = prob.asm.ndof;
        let rhs: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let u_d: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let (direct, _) = prob.solve_with_rhs(rhs.clone(), &u_d, SolveMethod::BandedDirect);
        let method = SolveMethod::Pcg { tol: 1e-13, max_iter: 5000 };
        let (iterative, stats) = prob.solve_with_rhs(rhs, &u_d, method);
        prop_assert!(stats.iterations > 0);
        let err = rel_diff(&iterative, &direct);
        prop_assert!(err < 1e-9, "relative difference {err:e}");
    }

    /// Projecting several fields in one pass gives, bitwise, the
    /// projections one field at a time.
    fn projecting_fields_together_is_bitwise_one_at_a_time(kind in 0usize..3, p in 1usize..6) {
        let mesh = square(kind, 2, 2);
        let mut prob = HelmholtzProblem::new(mesh, p, 1.0, &[]);
        let fs: [fn([f64; 2]) -> f64; 3] = [
            |x: [f64; 2]| (3.0 * x[0]).sin() * x[1],
            |x: [f64; 2]| 1.0 + x[0] * x[0] - x[1],
            |x: [f64; 2]| (x[0] * x[1]).exp(),
        ];
        let together = prob.l2_project_fields(3, |x, out| {
            for (o, f) in out.iter_mut().zip(&fs) {
                *o = f(x);
            }
        });
        for (c, f) in fs.iter().enumerate() {
            prop_assert!(together[c] == prob.l2_project(f), "field {c}");
        }
    }
}

/// The boundary-system sizes the solvers factor: all vertex and edge
/// dofs, RCM-numbered.
#[test]
fn condensed_system_sizes() {
    // rect_quads 6×6 at p = 4: 49 vertices + 84 edges × 3 modes.
    let prob = HelmholtzProblem::new(rect_quads(0.0, 1.0, 0.0, 1.0, 6, 6), 4, 1.0, &[]);
    let sys = prob.system();
    assert_eq!(prob.asm.ndof, 625);
    assert_eq!(sys.n(), 301);
    assert!(sys.kd() <= 85, "kd = {}", sys.kd());
    let wake = HelmholtzProblem::new(bluff_body_mesh(1), 4, 1.0, &[BoundaryTag::Wall]);
    assert_eq!(wake.system().n(), 860);
    assert!(wake.system().kd() <= 120, "kd = {}", wake.system().kd());
}
