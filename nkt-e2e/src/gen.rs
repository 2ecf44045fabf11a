//! Seeded input generator. The seed is the benchmark's alone: the
//! program under test receives only what this module generates — an
//! initial-condition perturbation for the three solver workloads and a
//! job file for the serve batch.

use crate::Workload;
use nkt_testkit::rng::Rng;

/// Amplitude of the initial-condition perturbation: large enough to
/// change every state hash, small enough that the direct-solver
/// workloads' final energy moves by less than 1e-11 of itself and their
/// work counts not at all. The iterative ALE solves still react: see
/// [`crate::check::ALE_WING`].
pub const PERTURBATION_AMP: f64 = 1e-10;

/// A smooth perturbation `amp · sin(kx x + φ0) · sin(ky y + φ1) · cos(kz z + φ2)`
/// added to the workload's initial velocity.
#[derive(Debug, Clone, PartialEq)]
pub struct Perturbation {
    pub amp: f64,
    pub k: [f64; 3],
    pub phase: [f64; 3],
}

impl Perturbation {
    pub fn at(&self, x: [f64; 3]) -> f64 {
        self.amp
            * (self.k[0] * x[0] + self.phase[0]).sin()
            * (self.k[1] * x[1] + self.phase[1]).sin()
            * (self.k[2] * x[2] + self.phase[2]).cos()
    }
}

/// Everything one run of a workload is given.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub pert: Perturbation,
    /// Serve batch in the `nkt-serve-jobs-1` job-file format (empty for
    /// the other workloads).
    pub jobs: String,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        // Decorrelate workloads that share a seed.
        let mut rng = Rng::new(seed ^ (workload as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let tau = 2.0 * std::f64::consts::PI;
        let pert = Perturbation {
            amp: PERTURBATION_AMP,
            k: [
                rng.range_u64(1, 4) as f64 * std::f64::consts::PI,
                rng.range_u64(1, 4) as f64 * std::f64::consts::PI,
                rng.range_u64(0, 3) as f64,
            ],
            phase: [
                rng.range_f64(0.0, tau),
                rng.range_f64(0.0, tau),
                rng.range_f64(0.0, tau),
            ],
        };
        let jobs = match workload {
            Workload::ServePreempt => serve_jobs(&mut rng),
            _ => String::new(),
        };
        Inputs {
            workload,
            seed,
            pert,
            jobs,
        }
    }

    /// Canonical byte rendering (floats by bit pattern), for the
    /// same-seed-same-bytes self-test and the run header digest.
    pub fn to_bytes(&self) -> Vec<u8> {
        let f = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{:016x}", x.to_bits()))
                .collect::<Vec<_>>()
        };
        format!(
            "{}\n{}\n{:016x}\n{:?}\n{:?}\n{}",
            self.workload.name(),
            self.seed,
            self.pert.amp.to_bits(),
            f(&self.pert.k),
            f(&self.pert.phase),
            self.jobs
        )
        .into_bytes()
    }

    /// FNV-1a digest of [`Inputs::to_bytes`], printed in the run header.
    pub fn digest(&self) -> u64 {
        let mut h = nkt_ckpt::Fnv1a::new();
        h.update(&self.to_bytes());
        h.finish()
    }
}

/// Step budget of each serve job, in job order. The seed moves arrival
/// ticks and priorities, never the amount of work.
pub const SERVE_JOB_STEPS: [u64; 3] = [12, 8, 6];

/// The serve batch: a long low-priority slab job holds the only world
/// slot, a one-rank plane job queues behind it, and a higher-priority
/// latecomer arrives at tick 1 or 2 and preempts the slab job at its
/// next epoch cut. The slab job later resumes from its checkpoint.
///
/// Every job is a Fourier job. The serve runner fixes a `serial2d`
/// job's size at the `wake2d` one (order 4, kd = 1714): its banded
/// set-up, ~4.5 s, would be ~80 % of the makespan and the batch would
/// time that factorization, the same host-noise-bound work as `wake2d`,
/// rather than the scheduler, world spawn, checkpoint and resume.
fn serve_jobs(rng: &mut Rng) -> String {
    let base = rng.range_u64(0, 3);
    let urgent = base + rng.range_u64(1, 4);
    let arrive = rng.range_u64(1, 3);
    let [slab, plane, late] = SERVE_JOB_STEPS;
    format!(
        r#"{{
  "schema": "nkt-serve-jobs-1",
  "jobs": [
    {{"name": "slab", "tenant": "cfd", "solver": "fourier", "ranks": 2, "grid": "2x1",
     "nz": 8, "net": "roadrunner_eth", "steps": {slab}, "ckpt_every": 2, "stats_every": 2,
     "priority": {base}, "submit_tick": 0}},
    {{"name": "plane", "tenant": "lab", "solver": "fourier", "ranks": 1,
     "nz": 8, "net": "muses_lam", "steps": {plane}, "ckpt_every": 4, "stats_every": 4,
     "priority": {base}, "submit_tick": 0}},
    {{"name": "urgent", "tenant": "ops", "solver": "fourier", "ranks": 2, "grid": "2x1",
     "nz": 8, "net": "roadrunner_myr", "steps": {late}, "ckpt_every": 2, "stats_every": 2,
     "priority": {urgent}, "submit_tick": {arrive}}}
  ]
}}"#
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in Workload::ALL {
            assert_eq!(
                Inputs::generate(w, 7).to_bytes(),
                Inputs::generate(w, 7).to_bytes()
            );
        }
    }

    #[test]
    fn another_seed_changes_the_inputs() {
        for w in Workload::ALL {
            assert_ne!(
                Inputs::generate(w, 7).to_bytes(),
                Inputs::generate(w, 8).to_bytes()
            );
        }
    }

    #[test]
    fn serve_jobs_parse_and_keep_their_work() {
        for seed in 0..16 {
            let jobs = nkt_serve::parse_jobs(&Inputs::generate(Workload::ServePreempt, seed).jobs)
                .expect("generated job file parses");
            let steps: Vec<u64> = jobs.iter().map(|j| j.steps).collect();
            assert_eq!(steps, SERVE_JOB_STEPS);
            assert!(jobs[2].priority > jobs[0].priority);
            assert!((1..=2).contains(&jobs[2].submit_tick));
            assert!(jobs.iter().all(|j| j.ranks <= 2));
        }
    }
}
