//! The four workloads. Each `*_episode` runs one workload from nothing to
//! a verified final state and returns what the benchmark measured from
//! outside the program: its own timers around each call into a layer's
//! public functions, the `StageClock`/`Comm::stats()`/`last_iters`
//! accessors, and the program's existing trace counters.

use crate::check::{self, Check};
use crate::gen::Inputs;
use nektar::ale::{AleConfig, NektarAle};
use nektar::fourier::{FourierConfig, NektarF};
use nektar::serial2d::{Serial2dSolver, SolverConfig};
use nektar::stats::{sample_fourier, FOURIER_CHANNELS};
use nkt_ckpt::{restore_latest, write_epoch, Checkpointable, CkptConfig};
use nkt_mesh::BoundaryTag::{self, Wall};
use nkt_mesh::{bluff_body_mesh, rect_quads, wing_box_mesh, Mesh3d};
use nkt_mpi::{Comm, World};
use nkt_net::{cluster, NetId};
use nkt_partition::{edge_cut, partition_kway, Graph, PartitionOptions};
use nkt_serve::{parse_jobs, serve, ServeConfig};
use nkt_stats::{RuleLimits, StatsRecorder};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Startup steps of the order-2 stiffly-stable scheme. Their lazy banded
/// factorizations finish set-up, so they count in `setup_s`.
pub const RAMP_STEPS: usize = 2;

/// Trace counters read around the steady steps, summed into metrics.
/// Exact; they count only under `NKT_TRACE=counters` or `spans`.
const STEP_COUNTERS: [(&str, &[&str]); 4] = [
    (
        "mpi.allreduce.calls",
        &["mpi.coll.allreduce", "mpi.coll.allreduce_minmaxsum"],
    ),
    ("mpi.iallreduce.calls", &["mpi.coll.iallreduce"]),
    (
        "mpi.alltoall.calls",
        &["mpi.coll.alltoall", "mpi.coll.ialltoall"],
    ),
    ("gs.exchanges", &["mpi.coll.gs.start"]),
];

/// Workload sizes: `Full` is what the benchmark measures; `Tiny` is the
/// smoke self-test's, with the same layers at a fraction of the cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Shape of one solver workload at one size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub order: usize,
    /// Mesh refinement (`bluff_body_mesh`/`wing_box_mesh`) or quads per
    /// side (`rect_quads`).
    pub mesh: usize,
    pub nz: usize,
    pub ranks: usize,
    /// Steady steps after the ramp.
    pub steps: usize,
    /// Checkpoint cadence in steps (0 = none).
    pub ckpt_every: usize,
}

pub fn wake2d_params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            order: 4,
            mesh: 1,
            nz: 1,
            ranks: 1,
            steps: 80,
            ckpt_every: 0,
        },
        Size::Tiny => Params {
            order: 2,
            mesh: 1,
            nz: 1,
            ranks: 1,
            steps: 4,
            ckpt_every: 0,
        },
    }
}

pub fn fourier_params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            order: 4,
            mesh: 6,
            nz: 16,
            ranks: 2,
            steps: 38,
            ckpt_every: 10,
        },
        Size::Tiny => Params {
            order: 2,
            mesh: 2,
            nz: 4,
            ranks: 2,
            steps: 4,
            ckpt_every: 3,
        },
    }
}

pub fn ale_params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            order: 2,
            mesh: 1,
            nz: 1,
            ranks: 2,
            steps: 8,
            ckpt_every: 0,
        },
        Size::Tiny => Params {
            order: 1,
            mesh: 1,
            nz: 1,
            ranks: 2,
            steps: 2,
            ckpt_every: 0,
        },
    }
}

/// Everything measured in one episode.
#[derive(Debug, Default)]
pub struct Episode {
    /// Time to the first steady step.
    pub setup_s: f64,
    /// Time to a verified final state.
    pub run_s: f64,
    /// Steady-state step times.
    pub step_ms: Vec<f64>,
    /// Virtual-clock wall time on the modeled cluster (0 without one).
    pub modeled_s: f64,
    /// Host seconds of each timed layer call, by metric name.
    pub layer_s: BTreeMap<&'static str, f64>,
    /// Exact counts, by metric name (per-step ones per steady step).
    pub counts: BTreeMap<&'static str, f64>,
    pub checks: Vec<Check>,
    /// Host seconds covered by timed layer calls (for `untracked_frac`).
    pub timed_s: f64,
    /// Steps attempted (solver steps, or serve job steps).
    pub steps_attempted: u64,
    /// Serve jobs attempted and failed.
    pub jobs: (u64, u64),
    /// Span-derived totals of a spans-mode episode (see `layers`).
    pub spans: Option<crate::layers::SpanSums>,
}

impl Episode {
    /// Times one call into a layer with the benchmark's own clock and an
    /// `e2e` span (recorded only under `NKT_TRACE=spans`).
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let sp = nkt_trace::span(name, "e2e");
        let t = Instant::now();
        let r = f();
        let s = t.elapsed().as_secs_f64();
        sp.end();
        *self.layer_s.entry(name).or_insert(0.0) += s;
        self.timed_s += s;
        r
    }

    /// Times one steady step.
    fn step<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let s = t.elapsed().as_secs_f64();
        self.step_ms.push(1e3 * s);
        self.timed_s += s;
        r
    }

    fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Merges a peer rank's exact counts and checks into rank 0's episode.
    fn absorb_peer(&mut self, peer: Episode) {
        for (k, v) in peer.counts {
            if ["mpi.", "gs.", "ckpt."].iter().any(|p| k.starts_with(p)) {
                self.count(k, v);
            }
        }
        self.checks
            .extend(peer.checks.into_iter().filter(|c| !c.ok));
    }
}

fn counter_snapshot() -> [u64; STEP_COUNTERS.len()] {
    STEP_COUNTERS.map(|(_, names)| names.iter().map(|n| nkt_trace::thread_counter(n)).sum())
}

/// Per-step communication counts of this rank over the steady steps.
fn count_comm(ep: &mut Episode, c: &Comm, before: ([u64; STEP_COUNTERS.len()], (u64, u64))) {
    let n = ep.step_ms.len() as f64;
    let after = counter_snapshot();
    for (i, (name, _)) in STEP_COUNTERS.iter().enumerate() {
        ep.count(name, (after[i] - before.0[i]) as f64 / n);
    }
    let st = c.stats();
    ep.count("mpi.msgs", (st.sent_msgs - before.1 .0) as f64 / n);
    ep.count("mpi.bytes", (st.sent_bytes - before.1 .1) as f64 / n);
}

/// Checkpoint bytes this thread has written and restored so far.
fn ckpt_counters() -> (u64, u64) {
    (
        nkt_trace::thread_counter("ckpt.write.bytes"),
        nkt_trace::thread_counter("ckpt.restore.bytes"),
    )
}

fn comm_snapshot(c: &Comm) -> ([u64; STEP_COUNTERS.len()], (u64, u64)) {
    let st = c.stats();
    (counter_snapshot(), (st.sent_msgs, st.sent_bytes))
}

/// Flops of a banded Cholesky factorization (`dpbtrf`) of order `n`
/// with semi-bandwidth `kd`: column j costs one sqrt, m divides and an
/// m-by-m symmetric rank-1 update, m = min(kd, n-1-j).
pub fn banded_factor_flops(n: usize, kd: usize) -> f64 {
    (0..n)
        .map(|j| (kd.min(n - 1 - j) as f64 + 1.0).powi(2))
        .sum()
}

/// Flops of one banded triangular solve pair (`dpbtrs`, one right-hand
/// side): a forward and a backward sweep of 2m+1 flops per column.
pub fn banded_solve_flops(n: usize, kd: usize) -> f64 {
    2.0 * (0..n)
        .map(|j| 2.0 * kd.min(n - 1 - j) as f64 + 1.0)
        .sum::<f64>()
}

/// Serial bluff-body DNS.
pub fn wake2d_episode(inp: &Inputs, size: Size) -> Episode {
    let p = wake2d_params(size);
    let t0 = Instant::now();
    let mut ep = Episode::default();
    let cfg = SolverConfig {
        order: p.order,
        dt: 2e-3,
        nu: 0.01,
        scheme_order: 2,
        advect: true,
    };
    let mesh = ep.time("mesh.build_s", || bluff_body_mesh(p.mesh));
    let mut s = ep.time("solver.new_s", || {
        Serial2dSolver::new(mesh, cfg, |x| if x[0] < -14.0 { 1.0 } else { 0.0 }, |_| 0.0)
    });
    let pert = &inp.pert;
    ep.time("solver.initial_s", || {
        s.set_initial(
            |x| 1.0 + pert.at([x[0], x[1], 0.0]),
            |x| pert.at([x[1], x[0], 0.0]),
        )
    });
    ep.time("solver.ramp_s", || {
        for _ in 0..RAMP_STEPS {
            s.step();
        }
    });
    ep.setup_s = t0.elapsed().as_secs_f64();

    // Four factorizations (mass for the initial projection, pressure,
    // the ramp's order-1 viscous matrix, viscous) and three solves per
    // step (pressure, u, v), all of order n and semi-bandwidth kd.
    let (n, kd) = (s.pressure.asm.ndof, s.pressure.asm.bandwidth());
    ep.count("spectral.ndof", n as f64);
    ep.count("spectral.kd", kd as f64);
    ep.count("spectral.factor_flops", 4.0 * banded_factor_flops(n, kd));
    ep.count(
        "spectral.solve_flops_per_step",
        3.0 * banded_solve_flops(n, kd),
    );

    let steady = nkt_trace::span("e2e.steady", "e2e");
    for _ in 0..p.steps {
        ep.step(|| s.step());
    }
    steady.end();
    ep.steps_attempted = (RAMP_STEPS + p.steps) as u64;
    let (ke, div) = ep.time("check_s", || (s.kinetic_energy(), s.divergence_norm()));
    if size == Size::Full {
        ep.checks
            .extend(check::energy_and_divergence(ke, div, &check::WAKE2D));
    }
    ep.checks.push(check::holds(
        "finite_state",
        ke.is_finite() && div.is_finite(),
    ));
    ep.run_s = t0.elapsed().as_secs_f64();
    ep
}

/// NekTar-F on a 2-rank slab with checkpoint epochs and a final restore
/// into a fresh solver.
pub fn fourier_episode(inp: &Inputs, size: Size, dir: &Path) -> Episode {
    let p = fourier_params(size);
    let t0 = Instant::now();
    let cfg = FourierConfig {
        order: p.order,
        dt: 1e-3,
        nu: 0.02,
        nz: p.nz,
        lz: 2.0 * std::f64::consts::PI,
        scheme_order: 2,
    };
    let ckpt = CkptConfig::new(dir, "fourier_slab", Some(p.ckpt_every));
    let pert = inp.pert.clone();
    let init = move |x: [f64; 3]| {
        let pi = std::f64::consts::PI;
        let (sx, cx) = (pi * x[0]).sin_cos();
        let (sy, cy) = (pi * x[1]).sin_cos();
        [
            2.0 * pi * sx * sx * sy * cy * (1.0 + 0.3 * x[2].cos()) + pert.at(x),
            -2.0 * pi * sx * cx * sy * sy * (1.0 + 0.3 * x[2].cos()),
            pert.at([x[1], x[0], x[2]]),
        ]
    };
    let t_world = Instant::now();
    let mut outs = World::builder()
        .ranks(p.ranks)
        .net(cluster(NetId::RoadRunnerEth))
        .run(|c| {
            let t_in = Instant::now();
            let ckpt0 = ckpt_counters();
            let mut ep = Episode::default();
            let mesh = ep.time("mesh.build_s", || {
                rect_quads(0.0, 1.0, 0.0, 1.0, p.mesh, p.mesh)
            });
            let build = |ep: &mut Episode, c: &mut Comm| {
                ep.time("solver.new_s", || {
                    let mut s = NektarF::try_new_with_grid(c, &mesh, cfg.clone(), c.size(), 1)
                        .expect("slab grid matches the world");
                    s.set_overlap(true);
                    s
                })
            };
            let mut s = build(&mut ep, c);
            ep.time("solver.initial_s", || s.set_initial(&init));
            ep.time("solver.ramp_s", || {
                for _ in 0..RAMP_STEPS {
                    s.step(c);
                }
            });
            ep.setup_s = t0.elapsed().as_secs_f64();

            let steady = nkt_trace::span("e2e.steady", "e2e");
            let before = comm_snapshot(c);
            for step in RAMP_STEPS + 1..=RAMP_STEPS + p.steps {
                ep.step(|| s.step(c));
                if ckpt.should(step) {
                    ep.time("ckpt.write_s", || write_epoch(c, &ckpt, step, &s))
                        .expect("checkpoint epoch written");
                }
            }
            steady.end();
            count_comm(&mut ep, c, before);
            ep.steps_attempted = (RAMP_STEPS + p.steps) as u64;

            let (ke, div, hash) = ep.time("check_s", || {
                let mut rec = StatsRecorder::new(FOURIER_CHANNELS.to_vec(), 1, c.size());
                let step = s.steps() as u64;
                sample_fourier(&mut s, c, &mut rec, step, &RuleLimits::default(), false)
                    .expect("unarmed sampler cannot trip");
                let div = rec.samples()[0].scalars[2];
                (s.kinetic_energy(c), div, s.state_hash())
            });
            ep.modeled_s = c.wtime();
            // Restart identity: the newest epoch is the final step; a fresh
            // solver restored from it must hash equal to the live one.
            let mut fresh = build(&mut ep, c);
            let info = ep.time("ckpt.restore_s", || restore_latest(c, &ckpt, &mut fresh));
            let restored = info.is_ok_and(|i| i.step as usize == s.steps());
            ep.checks.push(check::holds(
                "restart_identity",
                restored && fresh.state_hash() == hash,
            ));
            let ckpt1 = ckpt_counters();
            ep.count("ckpt.bytes", (ckpt1.0 - ckpt0.0) as f64);
            ep.count("ckpt.restore_bytes", (ckpt1.1 - ckpt0.1) as f64);
            if size == Size::Full && c.rank() == 0 {
                ep.checks
                    .extend(check::energy_and_divergence(ke, div, &check::FOURIER_SLAB));
            }
            ep.checks.push(check::holds(
                "finite_state",
                ke.is_finite() && div.is_finite(),
            ));
            ep.layer_s
                .insert("world.rank_s", t_in.elapsed().as_secs_f64());
            ep
        });
    let world_s = t_world.elapsed().as_secs_f64();
    finish_world(&mut outs, t0, world_s)
}

/// NekTar-F's banded-solver shape and computed flop counts, from the
/// `banded_solve` spans of a spans-mode episode: every Fourier mode
/// factors four matrices (mass for the initial projection, pressure, the
/// ramp's viscous, viscous) and solves eight systems a step (pressure
/// and three velocity components, cosine and sine parts).
pub fn fourier_spectral_counts(ep: &mut Episode, size: Size, sums: &crate::layers::SpanSums) {
    let (n, kd) = sums.banded_n_kd;
    if n == 0 || ep.step_ms.is_empty() {
        return;
    }
    let modes = (fourier_params(size).nz / 2) as f64;
    let solves_per_step = sums.banded_solves / ep.step_ms.len() as f64;
    ep.count("spectral.ndof", n as f64);
    ep.count("spectral.kd", kd as f64);
    ep.count(
        "spectral.factor_flops",
        4.0 * modes * banded_factor_flops(n, kd),
    );
    ep.count(
        "spectral.solve_flops_per_step",
        solves_per_step * banded_solve_flops(n, kd),
    );
}

/// Folds a world's per-rank episodes into rank 0's and charges the
/// world spawn/join time (`World::run` wall minus rank 0's closure).
fn finish_world(outs: &mut Vec<Episode>, t0: Instant, world_s: f64) -> Episode {
    let mut ep = outs.remove(0);
    for peer in outs.drain(..) {
        ep.absorb_peer(peer);
    }
    let rank_s = ep.layer_s.remove("world.rank_s").unwrap_or(0.0);
    let spawn = (world_s - rank_s).max(0.0);
    ep.layer_s.insert("world.spawn_s", spawn);
    ep.timed_s += spawn;
    ep.run_s = t0.elapsed().as_secs_f64();
    ep
}

/// NekTar-ALE flapping wing on 2 k-way partitions.
pub fn ale_episode(inp: &Inputs, size: Size) -> Episode {
    let p = ale_params(size);
    let t0 = Instant::now();
    let mut pre = Episode::default();
    let mesh = pre.time("mesh.build_s", || wing_box_mesh(p.mesh));
    let (part, cut) = pre.time("partition.kway_s", || {
        let dual = Graph::from_edges(mesh.nelems(), &mesh.dual_edges());
        let part = partition_kway(&dual, p.ranks, &PartitionOptions::default());
        let cut = edge_cut(&dual, &part);
        (part, cut)
    });
    let cfg = AleConfig {
        order: p.order,
        dt: 2e-3,
        nu: 1e-3,
        scheme_order: 2,
        advect: true,
        motion_amp: 0.05,
        motion_omega: 2.0 * std::f64::consts::PI,
        pcg_tol: 1e-6,
        pcg_max_iter: 2000,
    };
    let pert = inp.pert.clone();
    let t_world = Instant::now();
    let mut outs = World::builder()
        .ranks(p.ranks)
        .net(cluster(NetId::RoadRunnerMyr))
        .run(|c| {
            let t_in = Instant::now();
            let mut ep = Episode::default();
            let mut s = ep.time("solver.new_s", || {
                NektarAle::new(c, mesh.clone(), &part, cfg.clone())
            });
            ep.time("solver.initial_s", || {
                s.set_initial(c, |x| [1.0 + pert.at(x), pert.at([x[1], x[2], x[0]]), 0.0])
            });
            ep.time("solver.ramp_s", || {
                for _ in 0..RAMP_STEPS {
                    s.step(c);
                }
            });
            ep.setup_s = t0.elapsed().as_secs_f64();

            let steady = nkt_trace::span("e2e.steady", "e2e");
            let before = comm_snapshot(c);
            let mut iters = (0usize, 0usize, 0usize);
            for _ in 0..p.steps {
                ep.step(|| s.step(c));
                iters.0 += s.last_iters.0;
                iters.1 += s.last_iters.1;
                iters.2 += s.last_iters.2;
            }
            steady.end();
            count_comm(&mut ep, c, before);
            ep.steps_attempted = (RAMP_STEPS + p.steps) as u64;
            let n = p.steps as f64;
            let mean_iters = [iters.0 as f64 / n, iters.1 as f64 / n, iters.2 as f64 / n];
            if c.rank() == 0 {
                ep.count("pcg.iters.pressure", mean_iters[0]);
                ep.count("pcg.iters.velocity", mean_iters[1]);
                ep.count("pcg.iters.mesh", mean_iters[2]);
            }
            let (vol, ke) = ep.time("check_s", || (s.total_volume(c), s.kinetic_energy(c)));
            ep.modeled_s = c.wtime();
            // The wing's leading edge sits in the motion's ramp, so the wing
            // deforms and the fluid volume alone changes; the moving mesh
            // must still tile the fixed box exactly: fluid + wing = domain.
            let (domain, wing) = (
                bounding_volume(&s.mesh, None),
                bounding_volume(&s.mesh, Some(Wall)),
            );
            ep.checks.push(check::within(
                "mesh_volume",
                vol + wing,
                domain,
                1e-12 * domain,
            ));
            if size == Size::Full && c.rank() == 0 {
                let r = &check::ALE_WING;
                ep.checks
                    .push(check::within("kinetic_energy", ke, r.ke.0, r.ke.1));
                ep.checks.extend(check::pcg_iterations(mean_iters, r));
            }
            ep.checks.push(check::holds("finite_state", ke.is_finite()));
            ep.layer_s
                .insert("world.rank_s", t_in.elapsed().as_secs_f64());
            ep
        });
    let world_s = t_world.elapsed().as_secs_f64();
    let mut ep = finish_world(&mut outs, t0, world_s);
    ep.count("partition.edge_cut", cut as f64);
    for (k, v) in pre.layer_s {
        ep.layer_s.insert(k, v);
    }
    ep.timed_s += pre.timed_s;
    ep
}

/// Volume of the axis-aligned box bounding the mesh's vertices, or only
/// those on boundary faces tagged `tag`.
fn bounding_volume(mesh: &Mesh3d, tag: Option<BoundaryTag>) -> f64 {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    let verts: Vec<usize> = match tag {
        None => (0..mesh.verts.len()).collect(),
        Some(t) => mesh
            .faces
            .iter()
            .filter(|f| f.tag == Some(t))
            .flat_map(|f| f.v)
            .collect(),
    };
    for v in verts {
        for d in 0..3 {
            lo[d] = lo[d].min(mesh.verts[v][d]);
            hi[d] = hi[d].max(mesh.verts[v][d]);
        }
    }
    (0..3).map(|d| (hi[d] - lo[d]).max(0.0)).product()
}

/// One-job batch whose wall time is the serve workload's `setup_s`: the
/// time for the scheduler to admit a job, spawn its world, build its
/// solver and run the ramp steps to its first steady step.
const SERVE_PROBE: &str = r#"{"schema": "nkt-serve-jobs-1", "jobs": [
  {"name": "probe", "tenant": "ops", "solver": "fourier", "ranks": 2, "grid": "2x1",
   "nz": 8, "net": "roadrunner_myr", "steps": 2}]}"#;

/// Probes per serve episode; `setup_s` is their median.
const SERVE_PROBES: usize = 10;

/// A seeded `nkt-serve` batch on one world slot, with a preemption.
///
/// The serve runner fixes each job kind's mesh and order, so the batch
/// has one size; the smoke self-test runs it as it is.
pub fn serve_episode(inp: &Inputs, root: &Path) -> Episode {
    let t0 = Instant::now();
    let mut ep = Episode::default();
    let _ = std::fs::remove_dir_all(root);
    let probe = parse_jobs(SERVE_PROBE).expect("probe job file parses");
    let probe_cfg = ServeConfig {
        root: root.join("probe"),
        max_worlds: 1,
        events: None,
    };
    let mut probes = Vec::with_capacity(SERVE_PROBES);
    let mut probe_ok = true;
    for _ in 0..SERVE_PROBES {
        let before = ep.timed_s;
        let probed = ep.time("serve.probe_s", || serve(probe.clone(), &probe_cfg));
        probes.push(ep.timed_s - before);
        probe_ok &= probed.is_ok_and(|r| r.jobs.iter().all(|j| j.finished()));
    }
    ep.setup_s = crate::stats::median(&probes);
    // Drop the probes' trace data so the batch's counters stand alone.
    let _ = nkt_trace::take_collected();

    let jobs = ep
        .time("serve.parse_s", || parse_jobs(&inp.jobs))
        .expect("generated jobs parse");
    let budget: u64 = jobs.iter().map(|j| j.steps).sum();
    let njobs = jobs.len() as u64;
    let cfg = ServeConfig {
        root: root.join("batch"),
        max_worlds: 1,
        events: None,
    };
    let report = ep.time("serve.batch_s", || serve(jobs, &cfg));
    let makespan = ep.layer_s["serve.batch_s"];
    ep.steps_attempted = budget;
    ep.step_ms.push(1e3 * makespan / budget as f64);
    match report {
        Ok(r) => {
            let finished = r.jobs.iter().filter(|j| j.finished()).count() as u64;
            let steps: u64 = r
                .jobs
                .iter()
                .filter_map(|j| j.result.as_ref())
                .map(|x| x.steps)
                .sum();
            ep.jobs = (njobs, njobs - finished);
            ep.count("serve.ticks", r.ticks as f64);
            ep.count("serve.preemptions", r.preemptions as f64);
            ep.count(
                "serve.queue_wait_ticks",
                r.jobs.iter().map(|j| j.queue_wait_ticks).sum::<u64>() as f64,
            );
            ep.count("serve.jobs_failed", (njobs - finished) as f64);
            ep.checks.push(check::holds(
                "every_job_finished",
                finished == njobs && steps == budget,
            ));
            ep.checks
                .push(check::holds("preempted_and_resumed", r.preemptions >= 1));
        }
        Err(e) => {
            eprintln!("serve batch failed: {e}");
            ep.jobs = (njobs, njobs);
            ep.checks.push(check::holds("every_job_finished", false));
        }
    }
    ep.checks.push(check::holds("probe_finished", probe_ok));
    if nkt_trace::mode() == nkt_trace::TraceMode::Spans {
        let (write, restore) = crate::layers::serve_ckpt_seconds(&cfg.root);
        ep.layer_s.insert("ckpt.write_s", write);
        ep.layer_s.insert("ckpt.restore_s", restore);
    }
    ep.run_s = makespan;
    // Untracked share is over the whole episode, probe included.
    ep.layer_s.insert("episode_s", t0.elapsed().as_secs_f64());
    ep
}

/// Serve-batch counts from the trace counters every job's threads left
/// in the collector (a serve run has no rank closure of ours to read
/// them in). Per-step figures divide by the batch's job steps.
pub fn serve_counts(ep: &mut Episode, threads: &[nkt_trace::ThreadData]) {
    let total = |names: &[&str]| -> f64 {
        threads
            .iter()
            .flat_map(|t| t.counters.iter())
            .filter(|(n, _)| names.contains(n))
            .map(|&(_, v)| v as f64)
            .sum()
    };
    let steps = ep.steps_attempted.max(1) as f64;
    for (name, counters) in STEP_COUNTERS {
        let v = total(counters) / steps;
        ep.count(name, v);
    }
    ep.count("mpi.msgs", total(&["mpi.send.msgs"]) / steps);
    ep.count("mpi.bytes", total(&["mpi.send.bytes"]) / steps);
    ep.count("ckpt.bytes", total(&["ckpt.write.bytes"]));
    ep.count("ckpt.restore_bytes", total(&["ckpt.restore.bytes"]));
}
