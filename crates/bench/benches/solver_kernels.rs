//! Native benches of the solver-level kernels: FFT batches, the spectral
//! Helmholtz solve (direct vs PCG — a DESIGN.md §6 ablation), the banded
//! factorization of the condensed boundary system, the fixed-order hex
//! elemental apply of NekTar-ALE, and a full serial Navier–Stokes step.
//! Uses the in-repo `nkt-testkit` harness and emits
//! `results/BENCH_solver_kernels.json`.

use nkt_blas::dpbtrf;
use nkt_fft::{Complex64, FftPlan, RealFft};
use nkt_mesh::{rect_quads, BoundaryTag};
use nkt_spectral::{HelmholtzProblem, SolveMethod};
use nkt_testkit::Bench;

fn bench_fft(b: &mut Bench) {
    let mut g = b.group("fft");
    for &n in &[64usize, 256, 1024] {
        let plan = FftPlan::new(n);
        let data: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 0.0)).collect();
        g.bench(&format!("complex/{n}"), || {
            let mut d = data.clone();
            plan.forward(&mut d);
            d
        });
        let rplan = RealFft::new(n);
        let rdata: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        g.bench(&format!("real/{n}"), || {
            let mut sp = vec![Complex64::ZERO; rplan.spectrum_len()];
            rplan.forward(std::hint::black_box(&rdata), &mut sp);
            sp
        });
    }
    g.finish();
}

/// The direct-vs-iterative solver choice ablation (paper: direct for the
/// Fourier code, PCG for ALE). Both paths solve the statically condensed
/// boundary system: direct is one banded `dpbtrs` against the RCM-banded
/// factor, PCG is Jacobi-preconditioned CG on the same Schur complement;
/// the interior condensation and back-solves are common to both.
fn bench_solver_choice(b: &mut Bench) {
    let mut g = b.group("solver_choice");
    g.sample_size(10);
    let all: &[BoundaryTag] = &[
        BoundaryTag::Wall,
        BoundaryTag::Inflow,
        BoundaryTag::Outflow,
        BoundaryTag::Side,
    ];
    let pi = std::f64::consts::PI;
    for &(nel, p) in &[(4usize, 5usize), (6, 7)] {
        let label = format!("{nel}x{nel}_p{p}");
        let f = move |x: [f64; 2]| 2.0 * pi * pi * (pi * x[0]).sin() * (pi * x[1]).sin();
        {
            let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, nel, nel);
            let mut prob = HelmholtzProblem::new(mesh, p, 0.0, all);
            // Factor once (first call), then measure repeated solves —
            // the per-step cost in the time-stepping loop.
            let _ = prob.solve(f, |_| 0.0, SolveMethod::BandedDirect);
            g.bench(&format!("banded_direct/{label}"), || {
                prob.solve(f, |_| 0.0, SolveMethod::BandedDirect).0
            });
        }
        {
            let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, nel, nel);
            let mut prob = HelmholtzProblem::new(mesh, p, 0.0, all);
            g.bench(&format!("pcg/{label}"), || {
                prob.solve(f, |_| 0.0, SolveMethod::Pcg { tol: 1e-10, max_iter: 5000 }).0
            });
        }
    }
    g.finish();
}

/// The banded factorization of the condensed boundary system
/// (`dpbtrf`, RCM order) that every direct solver does once per matrix.
fn bench_banded_factor(b: &mut Bench) {
    let mut g = b.group("banded_factor");
    g.sample_size(10);
    let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, 6, 6);
    let prob = HelmholtzProblem::new(mesh, 4, 1.0, &[BoundaryTag::Wall]);
    let schur = prob.system().schur().clone();
    g.bench("6x6_p4", || {
        let mut f = schur.clone();
        dpbtrf(&mut f).expect("SPD boundary system");
        f
    });
    g.finish();
}

/// One elemental (K + λM) apply on an order-p hex box: the sum-factorized
/// kernel every NekTar-ALE PCG iteration runs once per owned element.
fn bench_hex_apply(b: &mut Bench) {
    use nektar::hex3d::{apply_elem, Oper1d};
    let mut g = b.group("hex_apply");
    for &p in &[2usize, 4] {
        let op = Oper1d::new(p);
        let n3 = op.nm * op.nm * op.nm;
        let x: Vec<f64> = (0..n3).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y = vec![0.0; n3];
        g.bench(&format!("p{p}"), || {
            apply_elem(&op, 0.5, 1.0, 2.0, 3.0, std::hint::black_box(&x), &mut y);
            y[0]
        });
    }
    g.finish();
}

fn bench_ns_step(b: &mut Bench) {
    use nektar::serial2d::{Serial2dSolver, SolverConfig};
    let mut g = b.group("navier_stokes");
    g.sample_size(10);
    for &(nel, p) in &[(3usize, 4usize), (4, 6)] {
        let mesh = rect_quads(0.0, 1.0, 0.0, 1.0, nel, nel);
        let cfg = SolverConfig { order: p, dt: 1e-3, nu: 0.01, scheme_order: 2, advect: true };
        let mut s = Serial2dSolver::new(mesh, cfg, |_| 0.0, |_| 0.0);
        let pi = std::f64::consts::PI;
        s.set_initial(
            |x| (pi * x[0]).sin() * (pi * x[1]).cos(),
            |x| -(pi * x[0]).cos() * (pi * x[1]).sin(),
        );
        g.bench(&format!("serial_step/{nel}x{nel}_p{p}"), || s.step());
    }
    g.finish();
}

fn main() {
    let mut b = Bench::new("solver_kernels");
    bench_fft(&mut b);
    bench_solver_choice(&mut b);
    bench_banded_factor(&mut b);
    bench_hex_apply(&mut b);
    bench_ns_step(&mut b);
    b.finish();
}
