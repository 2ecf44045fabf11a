//! 3-D spectral/hp discretisation on hexahedral meshes — the substrate
//! for NekTar-ALE (paper §4.2.2).
//!
//! The expansion is the tensor product of the modified 1-D modal basis in
//! all three directions, with modes classified vertex / edge / face /
//! interior. Elemental mass and stiffness matrices are built from the 1-D
//! matrices (exact for the *rectilinear* — axis-aligned box — elements the
//! structured generators produce; this restriction is asserted and
//! documented in DESIGN.md). The global solver is matrix-free: elemental
//! operator application + gather-scatter halo exchange + diagonally
//! preconditioned conjugate gradients, exactly the stack the paper
//! describes for the ALE code ("a diagonally preconditioned conjugate
//! gradient iterative solver is predominantly used").

use crate::opstream::{CommItem, Recorder, WorkItem};
use crate::timers::Stage;
use nkt_gs::{GsHandle, GsStrategy};
use nkt_mesh::{BoundaryTag, Mesh3d};
use nkt_mpi::prelude::*;
use nkt_spectral::basis1d::Basis1d;
use std::collections::HashMap;

/// 1-D building blocks: mass and stiffness matrices of the modified
/// basis on [−1, 1].
#[derive(Debug, Clone)]
pub struct Oper1d {
    /// Number of modes (P + 1).
    pub nm: usize,
    /// Mass matrix, column-major nm × nm.
    pub mass: Vec<f64>,
    /// Stiffness matrix ∫ψ'ψ'.
    pub stiff: Vec<f64>,
    /// Basis tables (for quadrature evaluation).
    pub basis: Basis1d,
}

/// Highest polynomial order the hex solver supports: the elemental
/// kernel [`apply_elem_coef`] is instantiated for P = 1..=`MAX_ORDER`.
pub const MAX_ORDER: usize = 8;

impl Oper1d {
    /// Builds the order-`p` 1-D operators.
    ///
    /// # Panics
    /// Panics unless 1 ≤ `p` ≤ [`MAX_ORDER`].
    pub fn new(p: usize) -> Oper1d {
        assert!(
            (1..=MAX_ORDER).contains(&p),
            "hex3d supports polynomial orders 1..={MAX_ORDER}, got {p}"
        );
        let basis = Basis1d::with_gll(p);
        let nm = p + 1;
        let nq = basis.nquad();
        let mut mass = vec![0.0; nm * nm];
        let mut stiff = vec![0.0; nm * nm];
        for i in 0..nm {
            for jm in 0..nm {
                let mut ms = 0.0;
                let mut ks = 0.0;
                for q in 0..nq {
                    ms += basis.w[q] * basis.val[i][q] * basis.val[jm][q];
                    ks += basis.w[q] * basis.dval[i][q] * basis.dval[jm][q];
                }
                mass[i + jm * nm] = ms;
                stiff[i + jm * nm] = ks;
            }
        }
        Oper1d { nm, mass, stiff, basis }
    }
}

/// Local-mode triple ordering for a hex of order P: lexicographic in
/// (p, q, r) — simple and orientation-free for the structured meshes we
/// support.
#[derive(Debug, Clone)]
pub struct HexNumbering {
    /// Polynomial order.
    pub p: usize,
    /// Global dof id per element per local mode.
    pub elem_dofs: Vec<Vec<u64>>,
    /// Total number of distinct global dofs.
    pub ndof_global: u64,
    /// Dirichlet flag per element-local mode (same global dof always
    /// agrees).
    pub dirichlet_global: HashMap<u64, f64>,
}

/// Classifies each (p, q, r) index as lying on a vertex/edge/face/interior
/// of the reference hex: returns, per axis, whether the index is at the
/// low end (0), high end (1) or interior (2).
fn axis_class(i: usize, p: usize) -> usize {
    if i == 0 {
        0
    } else if i == p {
        1
    } else {
        2
    }
}

impl HexNumbering {
    /// Builds a global C0 numbering for an order-`p` expansion on `mesh`.
    /// Dofs on faces tagged with any of `dirichlet_tags` are constrained
    /// with value 0 (homogeneous; the ALE solver lifts inhomogeneous data
    /// separately via [`HexNumbering::set_dirichlet_values`]).
    ///
    /// # Panics
    /// Panics if any element is not an axis-aligned box (the supported
    /// class — see module docs).
    pub fn build(mesh: &Mesh3d, p: usize, dirichlet_tags: &[BoundaryTag]) -> HexNumbering {
        for ei in 0..mesh.nelems() {
            assert!(
                elem_box(mesh, ei).is_some(),
                "element {ei} is not an axis-aligned box"
            );
        }
        // Canonical geometric keying: each dof is identified by its
        // "anchor" — (entity kind, sorted vertex ids, local index within
        // the entity). For axis-aligned structured meshes the shared
        // entities have consistent parameterizations, so identical keys
        // mean identical basis functions.
        let mut next_id: u64 = 0;
        let mut key_to_id: HashMap<(u64, u64, u64, u64, u64), u64> = HashMap::new();
        let nm1 = p + 1;
        let mut elem_dofs = Vec::with_capacity(mesh.nelems());
        // Hex vertex triple per local vertex (mesh ordering).
        let vidx = [
            (0, 0, 0),
            (p, 0, 0),
            (p, p, 0),
            (0, p, 0),
            (0, 0, p),
            (p, 0, p),
            (p, p, p),
            (0, p, p),
        ];
        for el in &mesh.elems {
            let mut dofs = Vec::with_capacity(nm1 * nm1 * nm1);
            for r in 0..nm1 {
                for q in 0..nm1 {
                    for pp in 0..nm1 {
                        let cls = (axis_class(pp, p), axis_class(q, p), axis_class(r, p));
                        // Gather the corner vertices of the containing
                        // entity and the intra-entity index.
                        // The entity contains every hex vertex whose
                        // per-axis class matches the non-interior axes.
                        let mut corners: Vec<u64> = Vec::new();
                        for &(vi, vj, vk) in &vidx {
                            let m0 = cls.0 == 2 || axis_class(vi, p) == cls.0;
                            let m1 = cls.1 == 2 || axis_class(vj, p) == cls.1;
                            let m2 = cls.2 == 2 || axis_class(vk, p) == cls.2;
                            if m0 && m1 && m2 {
                                let lv = vidx
                                    .iter()
                                    .position(|&t| t == (vi, vj, vk))
                                    .expect("triple in list");
                                corners.push(el.verts[lv] as u64);
                            }
                        }
                        corners.sort_unstable();
                        corners.dedup();
                        let mut key = [u64::MAX; 4];
                        for (s, &c) in corners.iter().take(4).enumerate() {
                            key[s] = c;
                        }
                        // Intra-entity index: interior axis offsets packed.
                        let mut intra: u64 = 0;
                        for (axis_i, axis_cls) in [(pp, cls.0), (q, cls.1), (r, cls.2)] {
                            if axis_cls == 2 {
                                intra = intra * (p as u64 + 1) + axis_i as u64;
                            }
                        }
                        // Element-interior modes must stay private.
                        let full_key = if cls == (2, 2, 2) {
                            (u64::MAX - 1, elem_dofs.len() as u64, intra, 0, 0)
                        } else {
                            (key[0], key[1], key[2], key[3], intra)
                        };
                        let id = *key_to_id.entry(full_key).or_insert_with(|| {
                            let id = next_id;
                            next_id += 1;
                            id
                        });
                        dofs.push(id);
                    }
                }
            }
            elem_dofs.push(dofs);
        }
        // Dirichlet: modes whose support lies in a tagged boundary face.
        let mut dirichlet_global = HashMap::new();
        for f in &mesh.faces {
            let Some(tag) = f.tag else { continue };
            if !dirichlet_tags.contains(&tag) {
                continue;
            }
            let ei = f.elems[0];
            let el = &mesh.elems[ei];
            // Determine which local face this is: match vertex sets.
            let local_faces: [[usize; 4]; 6] = [
                [0, 1, 2, 3],
                [4, 5, 6, 7],
                [0, 1, 5, 4],
                [3, 2, 6, 7],
                [0, 3, 7, 4],
                [1, 2, 6, 5],
            ];
            for (fi, lf) in local_faces.iter().enumerate() {
                let mut vs: Vec<usize> = lf.iter().map(|&l| el.verts[l]).collect();
                vs.sort_unstable();
                if vs == f.v.to_vec() {
                    // Face fi fixes one axis: 0 -> r=0, 1 -> r=p,
                    // 2 -> q=0, 3 -> q=p, 4 -> p=0, 5 -> p=p.
                    for r in 0..nm1 {
                        for q in 0..nm1 {
                            for pp in 0..nm1 {
                                let on_face = match fi {
                                    0 => r == 0,
                                    1 => r == p,
                                    2 => q == 0,
                                    3 => q == p,
                                    4 => pp == 0,
                                    _ => pp == p,
                                };
                                if on_face {
                                    let m = pp + q * nm1 + r * nm1 * nm1;
                                    dirichlet_global
                                        .insert(elem_dofs[ei][m], 0.0);
                                }
                            }
                        }
                    }
                }
            }
        }
        HexNumbering { p, elem_dofs, ndof_global: next_id, dirichlet_global }
    }

    /// Overrides Dirichlet values using a vertex-value function (only the
    /// vertex dofs get nonzero data; edge/face corrections are omitted —
    /// adequate for the low-order boundary data the ALE runs use).
    pub fn set_dirichlet_values(
        &mut self,
        mesh: &Mesh3d,
        g: impl Fn([f64; 3]) -> f64,
    ) {
        let p = self.p;
        let nm1 = p + 1;
        let vidx = [
            (0, 0, 0),
            (p, 0, 0),
            (p, p, 0),
            (0, p, 0),
            (0, 0, p),
            (p, 0, p),
            (p, p, p),
            (0, p, p),
        ];
        for (ei, el) in mesh.elems.iter().enumerate() {
            for (lv, &(i, j, k)) in vidx.iter().enumerate() {
                let m = i + j * nm1 + k * nm1 * nm1;
                let gid = self.elem_dofs[ei][m];
                if let Some(v) = self.dirichlet_global.get_mut(&gid) {
                    *v = g(mesh.verts[el.verts[lv]]);
                }
            }
        }
    }

    /// Number of local modes per element.
    pub fn modes_per_elem(&self) -> usize {
        (self.p + 1).pow(3)
    }
}

/// Returns the (lo, hi) corners if element `ei` is an axis-aligned box.
pub fn elem_box(mesh: &Mesh3d, ei: usize) -> Option<([f64; 3], [f64; 3])> {
    let el = &mesh.elems[ei];
    let vs: Vec<[f64; 3]> = el.verts.iter().map(|&v| mesh.verts[v]).collect();
    let mut lo = vs[0];
    let mut hi = vs[0];
    for v in &vs {
        for d in 0..3 {
            lo[d] = lo[d].min(v[d]);
            hi[d] = hi[d].max(v[d]);
        }
    }
    // Each vertex must sit on a corner of the bounding box, in the
    // standard ordering.
    let expect = [
        [lo[0], lo[1], lo[2]],
        [hi[0], lo[1], lo[2]],
        [hi[0], hi[1], lo[2]],
        [lo[0], hi[1], lo[2]],
        [lo[0], lo[1], hi[2]],
        [hi[0], lo[1], hi[2]],
        [hi[0], hi[1], hi[2]],
        [lo[0], hi[1], hi[2]],
    ];
    for (a, b) in vs.iter().zip(&expect) {
        for d in 0..3 {
            if (a[d] - b[d]).abs() > 1e-12 {
                return None;
            }
        }
    }
    Some((lo, hi))
}

/// A distributed Helmholtz operator on a partitioned hex mesh
/// (matrix-free, per-rank element storage).
pub struct HexHelmholtz {
    /// Polynomial order.
    pub p: usize,
    /// λ in (−∇² + λ).
    pub lambda: f64,
    /// Coefficient on the stiffness term (1.0 = Helmholtz; 0.0 turns the
    /// operator into λ·Mass, used for L2 projections).
    pub stiff_coef: f64,
    /// Elements owned by this rank (global element ids).
    pub my_elems: Vec<usize>,
    /// Per owned element: (hx, hy, hz) box sizes.
    pub scales: Vec<[f64; 3]>,
    /// Per owned element: local dof list indexing this rank's vector.
    pub elem_local: Vec<Vec<usize>>,
    /// Global ids of this rank's local dofs.
    pub local_gids: Vec<u64>,
    /// Dirichlet flags/values for local dofs.
    pub dirichlet: Vec<Option<f64>>,
    /// 1-D operators.
    pub op1: Oper1d,
    /// Gather-scatter handle over shared dofs.
    pub gs: GsHandle,
    /// Inverse multiplicity of each local dof (for global dot products).
    pub weight: Vec<f64>,
    /// Assembled (GS-summed) operator diagonal.
    pub diag: Vec<f64>,
    /// Owned-element indices (into `elem_local`) touching at least one
    /// rank-shared dof. These run *before* the halo exchange is posted.
    pub elem_boundary: Vec<usize>,
    /// Owned-element indices touching no shared dof: their work fills
    /// the overlap window between `gs.start` and `finish`.
    pub elem_interior: Vec<usize>,
    /// Whether [`HexHelmholtz::apply`] overlaps the halo exchange with
    /// interior elemental work (`NKT_GS_OVERLAP`, default on). Either
    /// setting produces bitwise-identical results.
    pub gs_overlap: bool,
}

impl HexHelmholtz {
    /// Builds the distributed operator. Collective. `part[e]` gives the
    /// owning rank per element (from `nkt-partition`).
    ///
    /// # Panics
    /// Panics unless the numbering's order is in 1..=[`MAX_ORDER`].
    pub fn new(
        comm: &mut Comm,
        mesh: &Mesh3d,
        numbering: &HexNumbering,
        part: &[u8],
        lambda: f64,
    ) -> HexHelmholtz {
        let me = comm.rank() as u8;
        let p = numbering.p;
        let op1 = Oper1d::new(p);
        let my_elems: Vec<usize> =
            (0..mesh.nelems()).filter(|&e| part[e] == me).collect();
        // Local dof table: union of owned elements' dofs.
        let mut gid_to_local: HashMap<u64, usize> = HashMap::new();
        let mut local_gids: Vec<u64> = Vec::new();
        let mut elem_local = Vec::with_capacity(my_elems.len());
        let mut scales = Vec::with_capacity(my_elems.len());
        for &e in &my_elems {
            let (lo, hi) = elem_box(mesh, e).expect("validated axis-aligned");
            scales.push([hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]]);
            let locals: Vec<usize> = numbering.elem_dofs[e]
                .iter()
                .map(|&g| {
                    *gid_to_local.entry(g).or_insert_with(|| {
                        local_gids.push(g);
                        local_gids.len() - 1
                    })
                })
                .collect();
            elem_local.push(locals);
        }
        let dirichlet: Vec<Option<f64>> = local_gids
            .iter()
            .map(|g| numbering.dirichlet_global.get(g).copied())
            .collect();
        let gs = GsHandle::try_setup(comm, &local_gids, GsStrategy::Hybrid)
            .expect("hex numbering produces a consistent sharer table");
        // Multiplicity: GS-sum of ones.
        let mut ones = vec![1.0; local_gids.len()];
        gs.exchange(comm, &mut ones, ReduceOp::Sum);
        let weight: Vec<f64> = ones.iter().map(|&m| 1.0 / m).collect();
        // Classify owned elements: an element is "boundary" iff any of
        // its dofs is rank-shared. Boundary work must complete before
        // the halo exchange is posted; interior work fills the window.
        let mut is_halo = vec![false; local_gids.len()];
        for l in gs.halo_locals() {
            is_halo[l] = true;
        }
        let mut elem_boundary = Vec::new();
        let mut elem_interior = Vec::new();
        for (le, locals) in elem_local.iter().enumerate() {
            if locals.iter().any(|&l| is_halo[l]) {
                elem_boundary.push(le);
            } else {
                elem_interior.push(le);
            }
        }
        let gs_overlap = std::env::var("NKT_GS_OVERLAP").map_or(true, |v| v != "0");
        let mut h = HexHelmholtz {
            p,
            lambda,
            stiff_coef: 1.0,
            my_elems,
            scales,
            elem_local,
            local_gids,
            dirichlet,
            op1,
            gs,
            weight,
            diag: Vec::new(),
            elem_boundary,
            elem_interior,
            gs_overlap,
        };
        // Assemble the diagonal for Jacobi preconditioning.
        let mut diag = vec![0.0; h.local_gids.len()];
        for (le, locals) in h.elem_local.iter().enumerate() {
            let [hx, hy, hz] = h.scales[le];
            let nm1 = p + 1;
            for (m, &l) in locals.iter().enumerate() {
                let (i, j, k) = (m % nm1, (m / nm1) % nm1, m / (nm1 * nm1));
                let d = elem_entry(&h.op1, hx, hy, hz, lambda, i, j, k, i, j, k);
                // (diagonal assembled with stiff_coef = 1; rebuild_diag
                // refreshes it if the coefficient or geometry changes)
                diag[l] += d;
            }
        }
        h.gs.exchange(comm, &mut diag, ReduceOp::Sum);
        // Dirichlet rows are identity.
        for (l, d) in h.dirichlet.iter().enumerate() {
            if d.is_some() {
                diag[l] = 1.0;
            }
        }
        h.diag = diag;
        h
    }

    /// Number of local dofs on this rank.
    pub fn nlocal(&self) -> usize {
        self.local_gids.len()
    }

    /// Rebuilds the assembled diagonal (after changing `lambda`,
    /// `stiff_coef` or the element scales — e.g. ALE mesh motion).
    /// Collective.
    pub fn rebuild_diag(&mut self, comm: &mut Comm) {
        let p = self.p;
        let nm1 = p + 1;
        let mut diag = vec![0.0; self.local_gids.len()];
        for (le, locals) in self.elem_local.iter().enumerate() {
            let [hx, hy, hz] = self.scales[le];
            for (m, &l) in locals.iter().enumerate() {
                let (i, j, k) = (m % nm1, (m / nm1) % nm1, m / (nm1 * nm1));
                let kpart = elem_entry(&self.op1, hx, hy, hz, 0.0, i, j, k, i, j, k);
                let full = elem_entry(&self.op1, hx, hy, hz, self.lambda, i, j, k, i, j, k);
                let mpart = full - kpart;
                diag[l] += self.stiff_coef * kpart + mpart;
            }
        }
        self.gs.exchange(comm, &mut diag, ReduceOp::Sum);
        for (l, d) in self.dirichlet.iter().enumerate() {
            if d.is_some() {
                diag[l] = 1.0;
            }
        }
        self.diag = diag;
    }

    /// Toggles halo/compute overlap in [`HexHelmholtz::apply`]. Results
    /// are bitwise identical either way; only the virtual-clock schedule
    /// differs.
    pub fn set_gs_overlap(&mut self, on: bool) {
        self.gs_overlap = on;
    }

    /// Virtual-clock cost of one elemental operator application: the
    /// sum-factorized form is 4 tensor terms × 3 sweeps × 2·nm⁴ flops,
    /// charged at the canonical 100 Mflop/s the other virtual compute
    /// charges use (e.g. `fft_virtual_secs`).
    fn elem_virtual_secs(&self) -> f64 {
        let nm = (self.p + 1) as f64;
        24.0 * nm * nm * nm * nm / 1e8
    }

    /// One elemental sweep over `elems` (indices into `elem_local`),
    /// scatter-adding into `y`.
    fn apply_pass(
        &self,
        elems: &[usize],
        x: &[f64],
        y: &mut [f64],
        xl: &mut [f64],
        yl: &mut [f64],
        rec: &mut Recorder,
    ) {
        let nm1 = self.p + 1;
        for &le in elems {
            let locals = &self.elem_local[le];
            let [hx, hy, hz] = self.scales[le];
            for (m, &l) in locals.iter().enumerate() {
                xl[m] = x[l];
            }
            apply_elem_coef(&self.op1, hx, hy, hz, self.lambda, self.stiff_coef, xl, yl);
            for (m, &l) in locals.iter().enumerate() {
                y[l] += yl[m];
            }
            rec.work(
                Stage::PressureSolve,
                WorkItem::Gemm { m: nm1 * nm1, n: nm1, k: nm1 },
            );
        }
    }

    /// Applies the assembled operator: y = GS-sum(elemental (K + λM) x),
    /// with Dirichlet rows replaced by identity. Collective.
    ///
    /// Both overlap settings run the *same* boundary-then-interior
    /// element schedule, so every dof accumulates its contributions in
    /// the same floating-point order and the two modes stay bitwise
    /// identical; only the exchange posting point moves. Shared dofs
    /// receive contributions exclusively from boundary elements, so
    /// their values are final when the exchange is posted and the
    /// interior sweep (which touches no shared dof) fills the window.
    pub fn apply(&self, comm: &mut Comm, x: &[f64], y: &mut [f64], rec: &mut Recorder) {
        let nm1 = self.p + 1;
        let nm = nm1 * nm1 * nm1;
        y.fill(0.0);
        let mut xl = vec![0.0; nm];
        let mut yl = vec![0.0; nm];
        let esecs = self.elem_virtual_secs();
        let (nb, ni) = (self.elem_boundary.len(), self.elem_interior.len());
        let ksp = nkt_trace::span_v("helmholtz", "kernel", comm.wtime());
        self.apply_pass(&self.elem_boundary, x, y, &mut xl, &mut yl, rec);
        comm.advance(esecs * nb as f64);
        ksp.end_v_args(
            comm.wtime(),
            &[("elems", nb as f64), ("flops", esecs * nb as f64 * 1e8)],
        );
        let overlap = if self.gs_overlap {
            let w0 = comm.wtime();
            let ex = self.gs.start(comm, y, ReduceOp::Sum);
            let ksp = nkt_trace::span_v("helmholtz", "kernel", comm.wtime());
            self.apply_pass(&self.elem_interior, x, y, &mut xl, &mut yl, rec);
            comm.advance(esecs * ni as f64);
            ksp.end_v_args(
                comm.wtime(),
                &[("elems", ni as f64), ("flops", esecs * ni as f64 * 1e8)],
            );
            ex.finish(comm, y);
            // The measured overlap window: how many elements this apply
            // really had available to hide the exchange behind, consumed
            // per stage by nkt-calib (`gs.window` records).
            nkt_trace::record_vspan_args(
                "gs.window",
                "gs",
                w0,
                comm.wtime(),
                &[("interior", ni as f64), ("boundary", nb as f64)],
            );
            if self.my_elems.is_empty() {
                0.0
            } else {
                ni as f64 / self.my_elems.len() as f64
            }
        } else {
            let ksp = nkt_trace::span_v("helmholtz", "kernel", comm.wtime());
            self.apply_pass(&self.elem_interior, x, y, &mut xl, &mut yl, rec);
            comm.advance(esecs * ni as f64);
            ksp.end_v_args(
                comm.wtime(),
                &[("elems", ni as f64), ("flops", esecs * ni as f64 * 1e8)],
            );
            self.gs.exchange(comm, y, ReduceOp::Sum);
            0.0
        };
        rec.comm(
            Stage::PressureSolve,
            CommItem::GsExchange { neighbors: 2, bytes: 8 * self.nlocal().min(1024), overlap },
        );
        for (l, d) in self.dirichlet.iter().enumerate() {
            if d.is_some() {
                y[l] = x[l];
            }
        }
    }

    /// This rank's share of the global (deduplicated) dot product.
    fn local_dot(&self, a: &[f64], b: &[f64]) -> f64 {
        let mut s = 0.0;
        for i in 0..a.len() {
            s += self.weight[i] * a[i] * b[i];
        }
        s
    }

    /// Global (deduplicated) dot product. Collective.
    pub fn dot(&self, comm: &mut Comm, a: &[f64], b: &[f64]) -> f64 {
        let mut buf = [self.local_dot(a, b)];
        comm.allreduce(&mut buf, ReduceOp::Sum);
        buf[0]
    }

    /// Solves (K + λM) x = b by Jacobi-PCG: [`HexHelmholtz::pcg_many`]
    /// with one right-hand side. Returns the iteration count.
    /// Collective.
    pub fn pcg(
        &self,
        comm: &mut Comm,
        b: &[f64],
        x: &mut [f64],
        tol: f64,
        max_iter: usize,
        rec: &mut Recorder,
    ) -> usize {
        self.pcg_many(comm, &[b], &mut [x], tol, max_iter, rec)[0]
    }

    /// Solves (K + λM) xₖ = bₖ for every right-hand side by Jacobi-PCG,
    /// all in lockstep with fused reductions. Each `bₖ` must be
    /// GS-consistent (already summed); each `xₖ` enters as its initial
    /// guess. Returns one iteration count per right-hand side.
    /// Collective.
    ///
    /// The start-up dots b·b, r·z and r·r of every right-hand side travel
    /// in one allreduce; each iteration then makes one allreduce for the
    /// active p·Ap values and one for the active r·r and r·z pairs, so a
    /// call costs 1 + 2·max(iterations) reductions however many systems
    /// it solves. The reduction is elementwise over the same tree a lone
    /// [`HexHelmholtz::dot`] uses, so every reduced value, and with it
    /// every iterate and iteration count, is bitwise what a separate
    /// solve per right-hand side produces. A system leaves the active set
    /// when it converges or its p·Ap breaks down (≤ 0). Operator applies
    /// stay one [`HexHelmholtz::apply`] per active system.
    pub fn pcg_many(
        &self,
        comm: &mut Comm,
        bs: &[&[f64]],
        xs: &mut [&mut [f64]],
        tol: f64,
        max_iter: usize,
        rec: &mut Recorder,
    ) -> Vec<usize> {
        let k = bs.len();
        assert_eq!(xs.len(), k, "pcg_many: one initial guess per right-hand side");
        let n = self.nlocal();
        // Impose Dirichlet values on the iterates and the residual targets.
        let mut bb: Vec<Vec<f64>> = bs.iter().map(|b| b.to_vec()).collect();
        for (b, x) in bb.iter_mut().zip(xs.iter_mut()) {
            for (l, d) in self.dirichlet.iter().enumerate() {
                if let Some(v) = *d {
                    x[l] = v;
                    b[l] = v;
                }
            }
        }
        let mut r = vec![vec![0.0; n]; k];
        let mut ap = vec![vec![0.0; n]; k];
        let mut z = vec![vec![0.0; n]; k];
        let mut red = Vec::with_capacity(3 * k);
        for c in 0..k {
            self.apply(comm, xs[c], &mut ap[c], rec);
            for i in 0..n {
                r[c][i] = bb[c][i] - ap[c][i];
                z[c][i] = r[c][i] / self.diag[i];
            }
            red.push(self.local_dot(&bb[c], &bb[c]));
            red.push(self.local_dot(&r[c], &z[c]));
            red.push(self.local_dot(&r[c], &r[c]));
        }
        comm.allreduce(&mut red, ReduceOp::Sum);
        let mut iters = vec![max_iter; k];
        let mut bnorm = vec![0.0; k];
        let mut rz = vec![0.0; k];
        let mut active = Vec::with_capacity(k);
        for c in 0..k {
            bnorm[c] = red[3 * c].sqrt().max(1e-300);
            rz[c] = red[3 * c + 1];
            if red[3 * c + 2].sqrt() / bnorm[c] <= tol {
                iters[c] = 0;
            } else {
                active.push(c);
            }
        }
        let mut pv = z.clone();
        for it in 1..=max_iter {
            if active.is_empty() {
                break;
            }
            red.clear();
            for &c in &active {
                self.apply(comm, &pv[c], &mut ap[c], rec);
                red.push(self.local_dot(&pv[c], &ap[c]));
            }
            comm.allreduce(&mut red, ReduceOp::Sum);
            let mut still = Vec::with_capacity(active.len());
            for (&c, &pap) in active.iter().zip(&red) {
                if pap <= 0.0 {
                    iters[c] = it;
                    continue;
                }
                let alpha = rz[c] / pap;
                let (x, r, p, ap) = (&mut xs[c], &mut r[c], &pv[c], &ap[c]);
                for i in 0..n {
                    x[i] += alpha * p[i];
                    r[i] -= alpha * ap[i];
                }
                still.push(c);
            }
            active = still;
            if active.is_empty() {
                break;
            }
            red.clear();
            for &c in &active {
                for i in 0..n {
                    z[c][i] = r[c][i] / self.diag[i];
                }
                red.push(self.local_dot(&r[c], &r[c]));
                red.push(self.local_dot(&r[c], &z[c]));
            }
            comm.allreduce(&mut red, ReduceOp::Sum);
            let mut still = Vec::with_capacity(active.len());
            for (&c, rr_rz) in active.iter().zip(red.chunks_exact(2)) {
                if rr_rz[0].sqrt() / bnorm[c] <= tol {
                    iters[c] = it;
                    continue;
                }
                let beta = rr_rz[1] / rz[c];
                rz[c] = rr_rz[1];
                let (p, z) = (&mut pv[c], &z[c]);
                for i in 0..n {
                    p[i] = z[i] + beta * p[i];
                }
                still.push(c);
            }
            active = still;
        }
        iters
    }
}

/// One entry of the elemental Helmholtz matrix for an hx × hy × hz box:
/// tensor combination of the 1-D mass/stiffness matrices.
#[allow(clippy::too_many_arguments)]
fn elem_entry(
    op: &Oper1d,
    hx: f64,
    hy: f64,
    hz: f64,
    lambda: f64,
    i1: usize,
    j1: usize,
    k1: usize,
    i2: usize,
    j2: usize,
    k2: usize,
) -> f64 {
    let nm = op.nm;
    let m = |a: usize, b: usize| op.mass[a + b * nm];
    let k = |a: usize, b: usize| op.stiff[a + b * nm];
    let (sx, sy, sz) = (hx / 2.0, hy / 2.0, hz / 2.0);
    // K = Kx My Mz (sy sz / sx) + Mx Ky Mz (sx sz / sy) + Mx My Kz (sx sy / sz)
    // M = Mx My Mz (sx sy sz)
    k(i1, i2) * m(j1, j2) * m(k1, k2) * (sy * sz / sx)
        + m(i1, i2) * k(j1, j2) * m(k1, k2) * (sx * sz / sy)
        + m(i1, i2) * m(j1, j2) * k(k1, k2) * (sx * sy / sz)
        + lambda * m(i1, i2) * m(j1, j2) * m(k1, k2) * (sx * sy * sz)
}

/// Applies the elemental Helmholtz operator using sum-factorized tensor
/// contractions (O(P⁴) instead of O(P⁶)).
pub fn apply_elem(op: &Oper1d, hx: f64, hy: f64, hz: f64, lambda: f64, x: &[f64], y: &mut [f64]) {
    apply_elem_coef(op, hx, hy, hz, lambda, 1.0, x, y);
}

/// [`apply_elem`] with an explicit stiffness coefficient.
///
/// The sum-factorized form is four tensor terms — Kx·My·Mz, Mx·Ky·Mz,
/// Mx·My·Kz (each scaled by `kc`) and λ·Mx·My·Mz — whose shared sweeps
/// Mx·x and My·Mx·x are computed once. A term with a zero coefficient is
/// skipped. The kernel is instantiated per order (`P + 1` modes a
/// direction, P = 1..=[`MAX_ORDER`]) so every loop has a compile-time
/// trip count and all scratch lives on the stack.
///
/// # Panics
/// Panics if `op.nm` is outside 2..=`MAX_ORDER + 1` or `x`/`y` hold
/// fewer than `op.nm³` values.
#[allow(clippy::too_many_arguments)]
pub fn apply_elem_coef(
    op: &Oper1d,
    hx: f64,
    hy: f64,
    hz: f64,
    lambda: f64,
    kc: f64,
    x: &[f64],
    y: &mut [f64],
) {
    let kernel = match op.nm {
        2 => apply_elem_fixed::<2>,
        3 => apply_elem_fixed::<3>,
        4 => apply_elem_fixed::<4>,
        5 => apply_elem_fixed::<5>,
        6 => apply_elem_fixed::<6>,
        7 => apply_elem_fixed::<7>,
        8 => apply_elem_fixed::<8>,
        9 => apply_elem_fixed::<9>,
        nm => panic!("hex3d supports polynomial orders 1..={MAX_ORDER}, got nm = {nm} modes"),
    };
    kernel(op, hx, hy, hz, lambda, kc, x, y);
}

/// An `N × N` 1-D operator stored by column: `a[col][row]`.
type Mat<const N: usize> = [[f64; N]; N];
/// Elemental coefficients `t[k][j][i]` (mode i fastest, as in the local
/// ordering).
type Cube<const N: usize> = [[[f64; N]; N]; N];

fn apply_elem_fixed<const N: usize>(
    op: &Oper1d,
    hx: f64,
    hy: f64,
    hz: f64,
    lambda: f64,
    kc: f64,
    x: &[f64],
    y: &mut [f64],
) {
    let (sx, sy, sz) = (hx / 2.0, hy / 2.0, hz / 2.0);
    let c = [
        kc * sy * sz / sx,
        kc * sx * sz / sy,
        kc * sx * sy / sz,
        lambda * sx * sy * sz,
    ];
    let n3 = N * N * N;
    let mut xc: Cube<N> = [[[0.0; N]; N]; N];
    for (xk, src) in xc.iter_mut().zip(x[..n3].chunks_exact(N * N)) {
        for (xj, s) in xk.iter_mut().zip(src.chunks_exact(N)) {
            xj.copy_from_slice(s);
        }
    }
    let mass = by_column::<N>(&op.mass);
    let stiff = by_column::<N>(&op.stiff);
    let mut yc: Cube<N> = [[[0.0; N]; N]; N];
    // Terms accumulate into y in the fixed order 0..4.
    if c[0] != 0.0 {
        let kx = sweep_x(&stiff, &xc);
        sweep_z(&mass, c[0], &sweep_y(&mass, &kx), &mut yc);
    }
    if c[1] != 0.0 || c[2] != 0.0 || c[3] != 0.0 {
        let mx = sweep_x(&mass, &xc);
        if c[1] != 0.0 {
            sweep_z(&mass, c[1], &sweep_y(&stiff, &mx), &mut yc);
        }
        if c[2] != 0.0 || c[3] != 0.0 {
            let mymx = sweep_y(&mass, &mx);
            if c[2] != 0.0 {
                sweep_z(&stiff, c[2], &mymx, &mut yc);
            }
            if c[3] != 0.0 {
                sweep_z(&mass, c[3], &mymx, &mut yc);
            }
        }
    }
    for (dst, yk) in y[..n3].chunks_exact_mut(N * N).zip(&yc) {
        for (d, yj) in dst.chunks_exact_mut(N).zip(yk) {
            d.copy_from_slice(yj);
        }
    }
}

/// Copies a column-major `N × N` matrix into a stack array.
fn by_column<const N: usize>(a: &[f64]) -> Mat<N> {
    let mut m = [[0.0; N]; N];
    for (col, src) in m.iter_mut().zip(a.chunks_exact(N)) {
        col.copy_from_slice(src);
    }
    m
}

/// t[k][j][i'] = Σ_i a[i', i] x[k][j][i], skipping zero inputs.
#[inline]
fn sweep_x<const N: usize>(a: &Mat<N>, x: &Cube<N>) -> Cube<N> {
    let mut t = [[[0.0; N]; N]; N];
    for (tk, xk) in t.iter_mut().zip(x) {
        for (tj, xj) in tk.iter_mut().zip(xk) {
            for (col, &xv) in a.iter().zip(xj) {
                if xv != 0.0 {
                    for (tv, &av) in tj.iter_mut().zip(col) {
                        *tv += av * xv;
                    }
                }
            }
        }
    }
    t
}

/// t[k][j'][i] = Σ_j a[j', j] s[k][j][i], skipping zero entries of `a`.
#[inline]
fn sweep_y<const N: usize>(a: &Mat<N>, s: &Cube<N>) -> Cube<N> {
    let mut t = [[[0.0; N]; N]; N];
    for (tk, sk) in t.iter_mut().zip(s) {
        for (col, sj) in a.iter().zip(sk) {
            for (tj, &av) in tk.iter_mut().zip(col) {
                if av != 0.0 {
                    for (tv, &sv) in tj.iter_mut().zip(sj) {
                        *tv += av * sv;
                    }
                }
            }
        }
    }
    t
}

/// y[k'] += Σ_k (a[k', k]·c) s[k], skipping zero scaled entries.
#[inline]
fn sweep_z<const N: usize>(a: &Mat<N>, c: f64, s: &Cube<N>, y: &mut Cube<N>) {
    for (col, sk) in a.iter().zip(s) {
        for (yk, &av) in y.iter_mut().zip(col) {
            let av = av * c;
            if av != 0.0 {
                for (yj, sj) in yk.iter_mut().zip(sk) {
                    for (yv, &sv) in yj.iter_mut().zip(sj) {
                        *yv += av * sv;
                    }
                }
            }
        }
    }
}

/// Test-only copies of the elemental kernel and PCG as they were before
/// the fixed-order kernel and the lockstep PCG: the references the
/// bitwise-equality tests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// The runtime-sized sum-factorized kernel: four tensor terms, three
    /// sweeps each, heap scratch.
    #[allow(clippy::type_complexity)]
    pub(crate) fn apply_elem_coef_runtime(
        op: &Oper1d,
        hx: f64,
        hy: f64,
        hz: f64,
        lambda: f64,
        kc: f64,
        x: &[f64],
        y: &mut [f64],
    ) {
        let nm = op.nm;
        let (sx, sy, sz) = (hx / 2.0, hy / 2.0, hz / 2.0);
        let terms: [(&[f64], &[f64], &[f64], f64); 4] = [
            (&op.stiff, &op.mass, &op.mass, kc * sy * sz / sx),
            (&op.mass, &op.stiff, &op.mass, kc * sx * sz / sy),
            (&op.mass, &op.mass, &op.stiff, kc * sx * sy / sz),
            (&op.mass, &op.mass, &op.mass, lambda * sx * sy * sz),
        ];
        y.fill(0.0);
        let mut t1 = vec![0.0; nm * nm * nm];
        let mut t2 = vec![0.0; nm * nm * nm];
        for (ax, ay, az, c) in terms {
            if c == 0.0 {
                continue;
            }
            t1.fill(0.0);
            for kk in 0..nm {
                for j in 0..nm {
                    let base = j * nm + kk * nm * nm;
                    for i in 0..nm {
                        let xv = x[i + base];
                        if xv != 0.0 {
                            for ip in 0..nm {
                                t1[ip + base] += ax[ip + i * nm] * xv;
                            }
                        }
                    }
                }
            }
            t2.fill(0.0);
            for kk in 0..nm {
                for j in 0..nm {
                    for jp in 0..nm {
                        let a = ay[jp + j * nm];
                        if a != 0.0 {
                            let src = j * nm + kk * nm * nm;
                            let dst = jp * nm + kk * nm * nm;
                            for ip in 0..nm {
                                t2[ip + dst] += a * t1[ip + src];
                            }
                        }
                    }
                }
            }
            for kk in 0..nm {
                for kp in 0..nm {
                    let a = az[kp + kk * nm] * c;
                    if a != 0.0 {
                        let src = kk * nm * nm;
                        let dst = kp * nm * nm;
                        for ij in 0..nm * nm {
                            y[ij + dst] += a * t2[ij + src];
                        }
                    }
                }
            }
        }
    }

    /// One right-hand side, three separate dot-product allreduces per
    /// iteration.
    pub(crate) fn pcg_three_dot(
        h: &HexHelmholtz,
        comm: &mut Comm,
        b: &[f64],
        x: &mut [f64],
        tol: f64,
        max_iter: usize,
        rec: &mut Recorder,
    ) -> usize {
        let n = h.nlocal();
        let mut bb = b.to_vec();
        for (l, d) in h.dirichlet.iter().enumerate() {
            if let Some(v) = *d {
                x[l] = v;
                bb[l] = v;
            }
        }
        let mut r = vec![0.0; n];
        let mut ap = vec![0.0; n];
        h.apply(comm, x, &mut ap, rec);
        for i in 0..n {
            r[i] = bb[i] - ap[i];
        }
        let bnorm = h.dot(comm, &bb, &bb).sqrt().max(1e-300);
        let mut z: Vec<f64> = r.iter().zip(&h.diag).map(|(ri, di)| ri / di).collect();
        let mut pv = z.clone();
        let mut rz = h.dot(comm, &r, &z);
        let mut rnorm = h.dot(comm, &r, &r).sqrt();
        if rnorm / bnorm <= tol {
            return 0;
        }
        for it in 1..=max_iter {
            h.apply(comm, &pv, &mut ap, rec);
            let pap = h.dot(comm, &pv, &ap);
            if pap <= 0.0 {
                return it;
            }
            let alpha = rz / pap;
            for i in 0..n {
                x[i] += alpha * pv[i];
                r[i] -= alpha * ap[i];
            }
            rnorm = h.dot(comm, &r, &r).sqrt();
            if rnorm / bnorm <= tol {
                return it;
            }
            for i in 0..n {
                z[i] = r[i] / h.diag[i];
            }
            let rz2 = h.dot(comm, &r, &z);
            let beta = rz2 / rz;
            rz = rz2;
            for i in 0..n {
                pv[i] = z[i] + beta * pv[i];
            }
        }
        max_iter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkt_mesh::box_hexes;
    use nkt_net::{cluster, NetId};
    use nkt_partition::{partition_kway, Graph, PartitionOptions};

    fn run<R: Send, F: Fn(&mut Comm) -> R + Sync>(
        p: usize,
        net: nkt_net::ClusterNetwork,
        f: F,
    ) -> Vec<R> {
        World::builder().ranks(p).net(net).run(f)
    }

    #[test]
    fn oper1d_spd() {
        let op = Oper1d::new(4);
        let mut m = op.mass.clone();
        nkt_blas::dpotrf(op.nm, &mut m, op.nm).expect("1-D mass SPD");
        // Stiffness annihilates constants: K (vertex sum) = 0 row sums
        // for the constant function = psi_0 + psi_P.
        let nm = op.nm;
        for i in 0..nm {
            let s = op.stiff[i] + op.stiff[i + (nm - 1) * nm];
            assert!(s.abs() < 1e-12, "row {i}: {s}");
        }
    }

    #[test]
    fn apply_elem_matches_entries() {
        for p in 1..=MAX_ORDER {
            let op = Oper1d::new(p);
            let nm = op.nm;
            let n3 = nm * nm * nm;
            let (hx, hy, hz, lam) = (0.5, 1.0, 2.0, 3.0);
            let x: Vec<f64> = (0..n3).map(|i| ((i as f64) * 0.37).sin()).collect();
            let mut y = vec![0.0; n3];
            apply_elem(&op, hx, hy, hz, lam, &x, &mut y);
            // Compare against the entrywise definition at a few rows.
            for &row in &[0usize, 5 % n3, 17 % n3, n3 / 2, n3 - 1] {
                let (i1, j1, k1) = (row % nm, (row / nm) % nm, row / (nm * nm));
                let mut s = 0.0;
                for col in 0..n3 {
                    let (i2, j2, k2) = (col % nm, (col / nm) % nm, col / (nm * nm));
                    s += elem_entry(&op, hx, hy, hz, lam, i1, j1, k1, i2, j2, k2) * x[col];
                }
                assert!((y[row] - s).abs() < 1e-10, "P={p} row {row}: {} vs {s}", y[row]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "supports polynomial orders 1..=8")]
    fn order_above_max_is_rejected() {
        Oper1d::new(MAX_ORDER + 1);
    }

    nkt_testkit::prop_check! {
        #![cases(96)]

        fn fixed_order_kernel_is_bitwise_the_runtime_sized_one(
            p in 1usize..9,
            h in nkt_testkit::vec_in(0.05f64..4.0, 3),
            lam_pick in 0usize..3,
            lam in -2.0f64..80.0,
            kc_pick in 0usize..3,
            kc in -1.0f64..3.0,
            seed in 0u64..1_000_000,
            zero_every in 1usize..6
        ) {
            let op = Oper1d::new(p);
            let n3 = op.nm * op.nm * op.nm;
            // λ and kc each: exactly zero, exactly one, or drawn.
            let lam = [0.0, 1.0, lam][lam_pick];
            let kc = [0.0, 1.0, kc][kc_pick];
            let mut rng = nkt_testkit::Rng::new(seed);
            let x: Vec<f64> = (0..n3)
                .map(|i| if i % zero_every == 0 { 0.0 } else { rng.range_f64(-5.0, 5.0) })
                .collect();
            let mut got = vec![f64::NAN; n3];
            let mut want = vec![f64::NAN; n3];
            apply_elem_coef(&op, h[0], h[1], h[2], lam, kc, &x, &mut got);
            reference::apply_elem_coef_runtime(&op, h[0], h[1], h[2], lam, kc, &x, &mut want);
            for (m, (g, w)) in got.iter().zip(&want).enumerate() {
                nkt_testkit::prop_assert!(
                    g.to_bits() == w.to_bits(),
                    "P={p} mode {m}: {g:e} vs {w:e}"
                );
            }
        }
    }

    #[test]
    fn numbering_counts_on_two_hexes() {
        let mesh = box_hexes(0.0, 2.0, 0.0, 1.0, 0.0, 1.0, 2, 1, 1);
        let p = 3;
        let n = HexNumbering::build(&mesh, p, &[]);
        // Expected: 12 vertices + 20 edges*(p-1) + 11 faces*(p-1)^2 +
        // 2 interiors*(p-1)^3.
        let expect = 12 + 20 * (p - 1) as u64 + 11 * ((p - 1) * (p - 1)) as u64
            + 2 * ((p - 1) * (p - 1) * (p - 1)) as u64;
        assert_eq!(n.ndof_global, expect);
    }

    #[test]
    fn shared_face_dofs_coincide() {
        let mesh = box_hexes(0.0, 2.0, 0.0, 1.0, 0.0, 1.0, 2, 1, 1);
        let p = 2;
        let n = HexNumbering::build(&mesh, p, &[]);
        // Count how many dofs appear in both elements: a full face worth:
        // (p+1)^2 distinct dofs.
        use std::collections::HashSet;
        let a: HashSet<u64> = n.elem_dofs[0].iter().copied().collect();
        let b: HashSet<u64> = n.elem_dofs[1].iter().copied().collect();
        let shared = a.intersection(&b).count();
        assert_eq!(shared, (p + 1) * (p + 1));
    }

    fn poisson_box_test(p_ranks: usize) {
        // -∇²u = 3π² sin(πx)sin(πy)sin(πz) on the unit box, u = 0 on ∂Ω.
        let pi = std::f64::consts::PI;
        let order = 3;
        let mesh = box_hexes(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 2, 2, 2);
        let tags = [BoundaryTag::Inflow, BoundaryTag::Outflow, BoundaryTag::Side];
        let numbering = HexNumbering::build(&mesh, order, &tags);
        let dual = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
        let part = partition_kway(&dual, p_ranks, &PartitionOptions::default());
        let errs = run(p_ranks, cluster(NetId::T3e), |c| {
            let h = HexHelmholtz::new(c, &mesh, &numbering, &part, 0.0);
            let mut rec = Recorder::disabled();
            // RHS: ∫ f φ per element via quadrature (tensor GLL).
            let mut b = vec![0.0; h.nlocal()];
            build_rhs(&h, &mesh, &numbering, &mut b, |x| {
                3.0 * pi * pi * (pi * x[0]).sin() * (pi * x[1]).sin() * (pi * x[2]).sin()
            });
            h.gs.exchange(c, &mut b, ReduceOp::Sum);
            let mut x = vec![0.0; h.nlocal()];
            let iters = h.pcg(c, &b, &mut x, 1e-10, 500, &mut rec);
            assert!(iters < 500, "PCG did not converge");
            // Check at element vertices (vertex dofs are interpolatory).
            let mut max_err = 0.0f64;
            for (le, &e) in h.my_elems.iter().enumerate() {
                let el = &mesh.elems[e];
                let nm1 = h.p + 1;
                let vidx = [
                    (0, 0, 0),
                    (h.p, 0, 0),
                    (h.p, h.p, 0),
                    (0, h.p, 0),
                    (0, 0, h.p),
                    (h.p, 0, h.p),
                    (h.p, h.p, h.p),
                    (0, h.p, h.p),
                ];
                for (lv, &(i, j, k)) in vidx.iter().enumerate() {
                    let m = i + j * nm1 + k * nm1 * nm1;
                    let l = h.elem_local[le][m];
                    let xyz = mesh.verts[el.verts[lv]];
                    let exact =
                        (pi * xyz[0]).sin() * (pi * xyz[1]).sin() * (pi * xyz[2]).sin();
                    max_err = max_err.max((x[l] - exact).abs());
                }
            }
            max_err
        });
        for &e in &errs {
            assert!(e < 0.02, "P={p_ranks}: vertex error {e}");
        }
    }

    /// Builds ∫ f φ elementwise using tensor GLL quadrature.
    fn build_rhs(
        h: &HexHelmholtz,
        mesh: &Mesh3d,
        _numbering: &HexNumbering,
        b: &mut [f64],
        f: impl Fn([f64; 3]) -> f64,
    ) {
        let op = &h.op1;
        let nq = op.basis.nquad();
        let nm1 = h.p + 1;
        for (le, &e) in h.my_elems.iter().enumerate() {
            let (lo, _) = elem_box(mesh, e).expect("box");
            let [hx, hy, hz] = h.scales[le];
            let jac = hx * hy * hz / 8.0;
            for m in 0..nm1 * nm1 * nm1 {
                let (i, j, k) = (m % nm1, (m / nm1) % nm1, m / (nm1 * nm1));
                let mut s = 0.0;
                for qz in 0..nq {
                    for qy in 0..nq {
                        for qx in 0..nq {
                            let x = [
                                lo[0] + hx * (op.basis.z[qx] + 1.0) / 2.0,
                                lo[1] + hy * (op.basis.z[qy] + 1.0) / 2.0,
                                lo[2] + hz * (op.basis.z[qz] + 1.0) / 2.0,
                            ];
                            s += op.basis.w[qx]
                                * op.basis.w[qy]
                                * op.basis.w[qz]
                                * f(x)
                                * op.basis.val[i][qx]
                                * op.basis.val[j][qy]
                                * op.basis.val[k][qz];
                        }
                    }
                }
                b[h.elem_local[le][m]] += jac * s;
            }
        }
    }

    #[test]
    fn parallel_poisson_single_rank() {
        poisson_box_test(1);
    }

    #[test]
    fn parallel_poisson_two_ranks() {
        poisson_box_test(2);
    }

    #[test]
    fn parallel_poisson_four_ranks() {
        poisson_box_test(4);
    }

    /// A deterministic value per global dof in [−0.5, 0.5): every rank's
    /// copy of a shared dof gets the same value, so the vector is already
    /// GS-consistent.
    fn gid_value(gid: u64, salt: u64) -> f64 {
        let mut s = gid.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
        nkt_testkit::splitmix64(&mut s) as f64 / u64::MAX as f64 - 0.5
    }

    /// An order-3 Helmholtz operator on a 3×2×2 box with Dirichlet
    /// inflow, partitioned over the communicator.
    fn lockstep_operator(c: &mut Comm) -> HexHelmholtz {
        let mesh = box_hexes(0.0, 1.5, 0.0, 1.0, 0.0, 1.0, 3, 2, 2);
        let numbering = HexNumbering::build(&mesh, 3, &[BoundaryTag::Inflow]);
        let dual = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
        let part = partition_kway(&dual, c.size(), &PartitionOptions::default());
        HexHelmholtz::new(c, &mesh, &numbering, &part, 2.0)
    }

    /// Three right-hand sides with initial guesses: a rough one from
    /// zero, a zero one (converged at iteration 0), and a rough one
    /// warm-started from a loose solve (fewer iterations). Collective.
    fn lockstep_systems(h: &HexHelmholtz, c: &mut Comm) -> Vec<(Vec<f64>, Vec<f64>)> {
        let n = h.nlocal();
        let rough = |salt| h.local_gids.iter().map(|&g| gid_value(g, salt)).collect::<Vec<f64>>();
        let b2 = rough(2);
        let mut warm = vec![0.0; n];
        h.pcg(c, &b2, &mut warm, 1e-3, 500, &mut Recorder::disabled());
        vec![(rough(1), vec![0.0; n]), (vec![0.0; n], vec![0.0; n]), (b2, warm)]
    }

    const LOCKSTEP_TOL: f64 = 1e-10;

    fn lockstep_matches_solo(p_ranks: usize) {
        for overlap in [true, false] {
            let iters = run(p_ranks, cluster(NetId::T3e), |c| {
                let mut h = lockstep_operator(c);
                h.set_gs_overlap(overlap);
                let systems = lockstep_systems(&h, c);
                let mut rec = Recorder::disabled();
                let mut all_iters = Vec::new();
                for pick in [&[2usize][..], &[1, 0], &[0, 1, 2]] {
                    let mut want_x = Vec::new();
                    let mut want_it = Vec::new();
                    for &s in pick {
                        let (b, x0) = &systems[s];
                        let mut x = x0.clone();
                        let tol = LOCKSTEP_TOL;
                        let it = reference::pcg_three_dot(&h, c, b, &mut x, tol, 500, &mut rec);
                        want_it.push(it);
                        want_x.push(x);
                    }
                    let bs: Vec<&[f64]> = pick.iter().map(|&s| systems[s].0.as_slice()).collect();
                    let mut got_x: Vec<Vec<f64>> =
                        pick.iter().map(|&s| systems[s].1.clone()).collect();
                    let mut xs: Vec<&mut [f64]> =
                        got_x.iter_mut().map(|x| x.as_mut_slice()).collect();
                    let got_it = h.pcg_many(c, &bs, &mut xs, LOCKSTEP_TOL, 500, &mut rec);
                    assert_eq!(got_it, want_it, "P={p_ranks} overlap={overlap} rhs {pick:?}");
                    for (k, (g, w)) in got_x.iter().zip(&want_x).enumerate() {
                        assert!(
                            g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits()),
                            "P={p_ranks} overlap={overlap} rhs {pick:?}: component {k} differs"
                        );
                    }
                    all_iters = got_it;
                }
                all_iters
            });
            // The set covers a converged-at-start RHS and unequal counts.
            let it = &iters[0];
            assert_eq!(it[1], 0, "zero RHS must converge at iteration 0: {it:?}");
            assert!(it[0] > 0 && it[2] > 0 && it[0] != it[2], "counts should differ: {it:?}");
        }
    }

    #[test]
    fn pcg_many_is_bitwise_solo_pcg_one_rank() {
        lockstep_matches_solo(1);
    }

    #[test]
    fn pcg_many_is_bitwise_solo_pcg_two_ranks() {
        lockstep_matches_solo(2);
    }

    #[test]
    fn pcg_many_is_bitwise_solo_pcg_four_ranks() {
        lockstep_matches_solo(4);
    }

    #[test]
    fn pcg_many_makes_one_plus_two_allreduces_per_iteration() {
        let _mode = crate::TRACE_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = nkt_trace::mode();
        if prev < nkt_trace::TraceMode::Counters {
            nkt_trace::set_mode(nkt_trace::TraceMode::Counters);
        }
        let out = run(2, cluster(NetId::T3e), |c| {
            let h = lockstep_operator(c);
            let systems = lockstep_systems(&h, c);
            let bs: Vec<&[f64]> = systems.iter().map(|(b, _)| b.as_slice()).collect();
            let mut x: Vec<Vec<f64>> = systems.iter().map(|(_, x0)| x0.clone()).collect();
            let mut xs: Vec<&mut [f64]> = x.iter_mut().map(|v| v.as_mut_slice()).collect();
            let before = nkt_trace::thread_counter("mpi.coll.allreduce");
            let iters =
                h.pcg_many(c, &bs, &mut xs, LOCKSTEP_TOL, 500, &mut Recorder::disabled());
            (nkt_trace::thread_counter("mpi.coll.allreduce") - before, iters)
        });
        nkt_trace::set_mode(prev);
        for (calls, iters) in out {
            let longest = *iters.iter().max().expect("three systems");
            assert!(longest > 0);
            assert_eq!(calls, 1 + 2 * longest as u64, "iterations {iters:?}");
        }
    }

    #[test]
    fn helmholtz_lambda_shifts_solution() {
        // (-∇² + λ)u = (3π² + λ) sin sin sin has the same solution for
        // any λ — a strong consistency check on the λ plumbing.
        let pi = std::f64::consts::PI;
        let order = 3;
        let mesh = box_hexes(0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 2, 2, 2);
        let tags = [BoundaryTag::Inflow, BoundaryTag::Outflow, BoundaryTag::Side];
        let numbering = HexNumbering::build(&mesh, order, &tags);
        let part = vec![0u8; mesh.nelems()];
        let lam = 25.0;
        let err = run(1, cluster(NetId::T3e), |c| {
            let h = HexHelmholtz::new(c, &mesh, &numbering, &part, lam);
            let mut rec = Recorder::disabled();
            let mut b = vec![0.0; h.nlocal()];
            build_rhs(&h, &mesh, &numbering, &mut b, |x| {
                (3.0 * pi * pi + lam)
                    * (pi * x[0]).sin()
                    * (pi * x[1]).sin()
                    * (pi * x[2]).sin()
            });
            h.gs.exchange(c, &mut b, ReduceOp::Sum);
            let mut x = vec![0.0; h.nlocal()];
            h.pcg(c, &b, &mut x, 1e-10, 500, &mut rec);
            // Probe the center vertex value: u(.5,.5,.5) = 1.
            let mut best = f64::MAX;
            for (le, &e) in h.my_elems.iter().enumerate() {
                let el = &mesh.elems[e];
                let nm1 = h.p + 1;
                for (lv, &(i, j, k)) in [
                    (0, 0, 0),
                    (h.p, 0, 0),
                    (h.p, h.p, 0),
                    (0, h.p, 0),
                    (0, 0, h.p),
                    (h.p, 0, h.p),
                    (h.p, h.p, h.p),
                    (0, h.p, h.p),
                ]
                .iter()
                .enumerate()
                {
                    let xyz = mesh.verts[el.verts[lv]];
                    if (xyz[0] - 0.5).abs() < 1e-12
                        && (xyz[1] - 0.5).abs() < 1e-12
                        && (xyz[2] - 0.5).abs() < 1e-12
                    {
                        let m = i + j * nm1 + k * nm1 * nm1;
                        best = x[h.elem_local[le][m]];
                    }
                }
            }
            (best - 1.0).abs()
        });
        assert!(err[0] < 0.02, "center error {}", err[0]);
    }
}
