//! Static condensation: the boundary (Schur-complement) system and the
//! per-element interior back-solves.
//!
//! Interior modes couple only within their own element (paper Figure 9),
//! so the global system
//!
//! ```text
//! [ K_bb  K_bi ] [u_b]   [f_b]
//! [ K_ib  K_ii ] [u_i] = [f_i]
//! ```
//!
//! has a block-diagonal `K_ii`. Eliminating it element by element leaves
//! the boundary system `S u_b = f_b − K_bi K_ii⁻¹ f_i` with
//! `S = K_bb − K_bi K_ii⁻¹ K_ib`, over the vertex and edge dofs only. It
//! is symmetric and banded (paper Figure 10), and numbered by reverse
//! Cuthill–McKee ([`crate::rcm`]) its band is far narrower than the full
//! system's. The interiors follow per element:
//! `u_i = K_ii⁻¹ (f_i − K_ib u_b)`.
//!
//! The global (natural) dof numbering of [`Assembly`] is untouched: the
//! RCM order lives only inside the banded boundary system.

use crate::assembly::Assembly;
use crate::pcg::pcg;
use crate::rcm::{adjacency_from_cliques, bandwidth_under, rcm_order};
use crate::solve::SolveMethod;
use nkt_blas::{
    dpbtrf, dpbtrf_flops, dpbtrs, dpbtrs_flops, dpotrf, dpotrs, dpotrs_flops, BandedSym,
};

/// Where the boundary-class (vertex and edge) dofs sit in the condensed
/// banded system. Depends only on the mesh connectivity, so every
/// problem on one assembly — Helmholtz at any λ, mass, any Dirichlet
/// set — shares it.
#[derive(Debug, Clone)]
pub struct BoundaryLayout {
    /// Order of the boundary system: the dofs `0..nboundary`.
    pub nboundary: usize,
    /// `pos[g]` = row of boundary dof `g` in the banded system.
    pub pos: Vec<usize>,
    /// Semi-bandwidth of the boundary system in RCM order.
    pub kd: usize,
}

impl BoundaryLayout {
    /// RCM-numbers the boundary dofs of `asm`, each element coupling the
    /// vertex and edge dofs it touches.
    pub fn new(asm: &Assembly) -> BoundaryLayout {
        let nb = asm.nboundary;
        let cliques: Vec<Vec<usize>> = asm
            .elem_dofs
            .iter()
            .map(|dofs| dofs.iter().map(|&(g, _)| g).filter(|&g| g < nb).collect())
            .collect();
        let perm = rcm_order(&adjacency_from_cliques(nb, &cliques));
        let kd = bandwidth_under(&perm, &cliques);
        let mut pos = vec![0; nb];
        for (row, &g) in perm.iter().enumerate() {
            pos[g] = row;
        }
        BoundaryLayout {
            nboundary: nb,
            pos,
            kd,
        }
    }
}

/// One element's share of the condensation, in the signed local basis
/// (`A[a][b] = s_a s_b h[a][b]`, so assembly is a plain index map).
#[derive(Debug, Clone)]
struct ElemBlock {
    /// Boundary-system row of each local boundary mode.
    rows: Vec<usize>,
    /// First global dof of the element's interior modes (they are
    /// numbered consecutively, in local order).
    int0: usize,
    /// Interior mode count.
    ni: usize,
    /// Upper Cholesky factor of `A_ii` (`ni × ni`, column-major).
    lii: Vec<f64>,
    /// `X = A_ii⁻¹ A_ib` (`ni × nbe`, column-major: column `a` belongs to
    /// local boundary mode `a`).
    x: Vec<f64>,
    /// Dirichlet interior modes: (interior index `k`, column `k` of the
    /// element matrix over the free interior rows then the boundary rows,
    /// `ni + nbe` entries). Their rows and columns are identity in `lii`
    /// and zero in `x`; a solve lifts their values with the column.
    lifts: Vec<(usize, Vec<f64>)>,
}

/// A statically condensed symmetric positive-definite system: interior
/// factors and couplings per element, plus the RCM-banded boundary
/// Schur complement (Dirichlet rows and columns replaced by identity).
#[derive(Debug, Clone)]
pub struct CondensedSystem {
    layout: BoundaryLayout,
    elems: Vec<ElemBlock>,
    /// The constrained boundary system.
    schur: BandedSym,
    /// Its banded Cholesky factor (filled on the first direct solve).
    factor: Option<BandedSym>,
    /// Free-row × Dirichlet-column entries of the unconstrained Schur
    /// complement: (row, Dirichlet dof, value). The Dirichlet lift of a
    /// solve is `g[row] −= value · u_d[dof]`.
    coupling: Vec<(usize, usize, f64)>,
    /// Dirichlet-constrained dofs (all boundary-class), in the order
    /// they were constrained.
    dirichlet: Vec<usize>,
    /// Per boundary-system row: constrained.
    constrained: Vec<bool>,
}

impl CondensedSystem {
    /// Condenses the system assembled from the elemental matrices
    /// `elem_matrix(e)` (`nm × nm`, column-major, unsigned local basis)
    /// over `asm`, with the dofs flagged in `dirichlet` constrained. A
    /// flagged interior dof stays in its element's interior block as an
    /// identity row and column.
    ///
    /// # Panics
    /// Panics if an interior block or the boundary system is not SPD.
    pub fn new(
        asm: &Assembly,
        dirichlet: &[bool],
        elem_matrix: impl Fn(usize) -> Vec<f64>,
    ) -> CondensedSystem {
        let layout = BoundaryLayout::new(asm);
        let nb = layout.nboundary;
        let mut schur = BandedSym::zeros(nb, layout.kd);
        let mut elems = Vec::with_capacity(asm.elem_dofs.len());
        for (ei, dofs) in asm.elem_dofs.iter().enumerate() {
            let h = elem_matrix(ei);
            let nm = dofs.len();
            let bl: Vec<usize> = (0..nm).filter(|&a| dofs[a].0 < nb).collect();
            let il: Vec<usize> = (0..nm).filter(|&a| dofs[a].0 >= nb).collect();
            let (nbe, ni) = (bl.len(), il.len());
            let sign = |a: usize| dofs[a].1;
            let fixed = |k: usize| dirichlet[dofs[il[k]].0];
            let mut lii = vec![0.0; ni * ni];
            for (l, &c) in il.iter().enumerate() {
                for (k, &r) in il.iter().enumerate() {
                    let v = if fixed(k) || fixed(l) {
                        0.0
                    } else {
                        h[r + c * nm]
                    };
                    lii[k + l * ni] = if fixed(k) && k == l { 1.0 } else { v };
                }
            }
            let mut x = vec![0.0; ni * nbe];
            for (a, &c) in bl.iter().enumerate() {
                for (k, &r) in il.iter().enumerate() {
                    if !fixed(k) {
                        x[k + a * ni] = sign(c) * h[r + c * nm];
                    }
                }
            }
            let lifts: Vec<(usize, Vec<f64>)> = (0..ni)
                .filter(|&k| fixed(k))
                .map(|k| {
                    let c = il[k];
                    let col = il
                        .iter()
                        .enumerate()
                        .map(|(j, &r)| if fixed(j) { 0.0 } else { h[r + c * nm] })
                        .chain(bl.iter().map(|&r| sign(r) * h[r + c * nm]))
                        .collect();
                    (k, col)
                })
                .collect();
            // S_e = A_bb − A_bi X, with A_bi = A_ibᵀ read from `x` before
            // it is overwritten by the solve.
            let aib = x.clone();
            if ni > 0 {
                dpotrf(ni, &mut lii, ni).expect("interior block must be SPD");
                for col in x.chunks_exact_mut(ni) {
                    dpotrs(ni, &lii, ni, col).expect("interior solve");
                }
            }
            let rows: Vec<usize> = bl.iter().map(|&a| layout.pos[dofs[a].0]).collect();
            for a in 0..nbe {
                for b in a..nbe {
                    let mut s = sign(bl[a]) * sign(bl[b]) * h[bl[a] + bl[b] * nm];
                    let (ca, xb) = (&aib[a * ni..(a + 1) * ni], &x[b * ni..(b + 1) * ni]);
                    for k in 0..ni {
                        s -= ca[k] * xb[k];
                    }
                    // A symmetric pair (a, b) and (b, a) shares one stored
                    // entry: add it once.
                    schur.add(rows[a], rows[b], s);
                }
            }
            let int0 = il.first().map_or(0, |&a| dofs[a].0);
            debug_assert!(il
                .iter()
                .enumerate()
                .all(|(k, &a)| dofs[a] == (int0 + k, 1.0)));
            elems.push(ElemBlock {
                rows,
                int0,
                ni,
                lii,
                x,
                lifts,
            });
        }
        let mut sys = CondensedSystem {
            layout,
            elems,
            schur,
            factor: None,
            coupling: Vec::new(),
            dirichlet: Vec::new(),
            constrained: vec![false; nb],
        };
        for (d, _) in dirichlet[..nb].iter().enumerate().filter(|(_, &c)| c) {
            sys.constrain(d);
        }
        sys
    }

    /// Order of the banded boundary system.
    pub fn n(&self) -> usize {
        self.layout.nboundary
    }

    /// Semi-bandwidth of the banded boundary system.
    pub fn kd(&self) -> usize {
        self.layout.kd
    }

    /// The constrained boundary Schur complement.
    pub fn schur(&self) -> &BandedSym {
        &self.schur
    }

    /// Per element: (interior modes, boundary modes).
    pub fn elem_shapes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.elems.iter().map(|e| (e.ni, e.rows.len()))
    }

    /// Exact flops of the banded boundary factorization.
    pub fn factor_flops(&self) -> f64 {
        dpbtrf_flops(self.n(), self.kd())
    }

    /// Exact flops of one direct solve: the banded boundary solve plus,
    /// per element, the interior factor solve and the two coupling
    /// products (condensing the right-hand side, back-substituting).
    pub fn solve_flops(&self) -> f64 {
        let interior: f64 = self
            .elem_shapes()
            .map(|(ni, nbe)| dpotrs_flops(ni) + 4.0 * (ni * nbe) as f64)
            .sum();
        dpbtrs_flops(self.n(), self.kd()) + interior
    }

    /// Constrains boundary dof `d`: records its column of free-row
    /// couplings, then replaces its row and column by identity.
    ///
    /// # Panics
    /// Panics if `d` is an interior dof (those are constrained when the
    /// system is built, see [`CondensedSystem::new`]).
    pub fn constrain(&mut self, d: usize) {
        assert!(
            d < self.n(),
            "Dirichlet dof {d} is not a boundary-class dof"
        );
        let rd = self.layout.pos[d];
        if self.constrained[rd] {
            return;
        }
        // A free row that was lifted by `d` is now constrained itself.
        self.coupling.retain(|&(row, _, _)| row != rd);
        let kd = self.kd();
        let lo = rd.saturating_sub(kd);
        let hi = (rd + kd).min(self.n() - 1);
        for row in lo..=hi {
            if row == rd {
                continue;
            }
            let v = self.schur.get(row, rd);
            if v != 0.0 && !self.constrained[row] {
                self.coupling.push((row, d, v));
            }
            self.schur.set(row, rd, 0.0);
        }
        self.schur.set(rd, rd, 1.0);
        self.dirichlet.push(d);
        self.constrained[rd] = true;
        self.factor = None;
    }

    /// Factors the boundary system (traced as a `banded_factor` kernel
    /// span carrying its exact flops). A no-op once factored.
    pub fn factor(&mut self) {
        if self.factor.is_some() {
            return;
        }
        let span = nkt_trace::span("banded_factor", "kernel");
        let mut f = self.schur.clone();
        dpbtrf(&mut f).expect("condensed boundary system must be SPD");
        span.end_v_args(
            f64::NAN,
            &[
                ("n", self.n() as f64),
                ("kd", self.kd() as f64),
                ("flops", self.factor_flops()),
            ],
        );
        self.factor = Some(f);
    }

    /// Solves the constrained system in place: `rhs` holds the assembled
    /// load (natural numbering) on entry and the solution on exit;
    /// Dirichlet dofs take their values from `u_d`. Returns the PCG
    /// iteration count (0 for the direct path).
    ///
    /// # Panics
    /// Panics if PCG does not converge.
    pub fn solve(&mut self, rhs: &mut [f64], u_d: &[f64], method: SolveMethod) -> usize {
        if method == SolveMethod::BandedDirect {
            self.factor();
        }
        let nb = self.n();
        let pos = &self.layout.pos;
        let mut g = vec![0.0; nb];
        for (gdof, &row) in pos.iter().enumerate() {
            g[row] = rhs[gdof];
        }
        // Lift Dirichlet interior values out of their element's rows.
        for e in self.elems.iter().filter(|e| !e.lifts.is_empty()) {
            for (k, col) in &e.lifts {
                let ud = u_d[e.int0 + k];
                let fi = &mut rhs[e.int0..e.int0 + e.ni];
                for (f, c) in fi.iter_mut().zip(col) {
                    *f -= c * ud;
                }
                fi[*k] = ud;
                for (&row, c) in e.rows.iter().zip(&col[e.ni..]) {
                    g[row] -= c * ud;
                }
            }
        }
        // Condense: g = f_b − A_bi A_ii⁻¹ f_i = f_b − Xᵀ f_i, per element.
        for e in &self.elems {
            let fi = &rhs[e.int0..e.int0 + e.ni];
            for (&row, xa) in e.rows.iter().zip(e.x.chunks_exact(e.ni.max(1))) {
                let mut s = 0.0;
                for k in 0..e.ni {
                    s += xa[k] * fi[k];
                }
                g[row] -= s;
            }
        }
        // Lift the Dirichlet data, then impose it.
        for &(row, d, v) in &self.coupling {
            g[row] -= v * u_d[d];
        }
        for &d in &self.dirichlet {
            g[pos[d]] = u_d[d];
        }
        let iterations = match method {
            SolveMethod::BandedDirect => {
                dpbtrs(self.factor.as_ref().expect("factored above"), &mut g)
                    .expect("banded solve");
                0
            }
            SolveMethod::Pcg { tol, max_iter } => {
                let s = &self.schur;
                let diag: Vec<f64> = (0..nb).map(|i| s.get(i, i)).collect();
                // Seed the constrained entries so identity rows are exact.
                let mut x = vec![0.0; nb];
                for &d in &self.dirichlet {
                    x[pos[d]] = g[pos[d]];
                }
                let res = pcg(|p, out| s.matvec(p, out), &diag, &g, &mut x, tol, max_iter);
                assert!(res.converged, "PCG failed to converge: {res:?}");
                g = x;
                res.iterations
            }
        };
        // Back-solve the interiors: u_i = A_ii⁻¹ f_i − X u_b.
        for e in &self.elems {
            let ui = &mut rhs[e.int0..e.int0 + e.ni];
            if e.ni > 0 {
                dpotrs(e.ni, &e.lii, e.ni, ui).expect("interior solve");
            }
            for (&row, xa) in e.rows.iter().zip(e.x.chunks_exact(e.ni.max(1))) {
                let ub = g[row];
                for k in 0..e.ni {
                    ui[k] -= xa[k] * ub;
                }
            }
        }
        for (gdof, &row) in pos.iter().enumerate() {
            rhs[gdof] = g[row];
        }
        iterations
    }
}
