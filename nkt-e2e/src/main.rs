//! nkt-e2e — end-to-end time-to-solution benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path nkt-e2e/Cargo.toml -- \
//!     --workload ale_wing --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Runs one workload (`wake2d`, `fourier_slab`, `ale_wing`,
//! `serve_preempt`) from a single process, repeating whole episodes —
//! set-up, steps, correctness check — for `--seconds`, and prints a run
//! header followed, on the last line, by one JSON object. With
//! `--trace 0` it holds the end-to-end metrics (medians over episodes,
//! tracing off); with `--trace 1` the run is split into untraced,
//! `NKT_TRACE=counters` and `NKT_TRACE=spans` phases and it holds the
//! per-layer metrics. A failed correctness check makes the exit code 1;
//! a workload needing more rank threads than the host has cores is
//! refused with exit code 2. `cargo test` runs the self-tests.
//!
//! `BENCHMARK.json` gates [`Workload::BENCHMARKED`], every workload but
//! `wake2d`. Its serial banded solves stream ~25 MB factors per step, and
//! on a shared host its steady step swings between about 30 and 46 ms
//! for tens of seconds at a time, so the median of one run moves by more
//! than any bound. Its layers are measured on `fourier_slab`, which
//! also builds and solves banded systems; `wake2d` stays runnable by
//! hand and in the self-tests as the workload that bypasses `nkt-mpi`
//! and `nkt-gs`.
//!
//! End-to-end metrics (host time, tracing off):
//!
//! * `run_s` — median episode wall time to a verified final state; for
//!   `serve_preempt`, the batch makespan.
//! * `setup_s` — median time to the first steady step: mesh, partition,
//!   solver construction, initial projection and the two ramp steps
//!   whose lazy factorizations finish set-up. For `serve_preempt`, the
//!   median wall time of a one-job batch that stops after its ramp steps
//!   (admission, world spawn, solver build), probed ten times a batch.
//! * `step_ms.p50` — median steady step time pooled over the episodes;
//!   for `serve_preempt`, batch makespan per job step. The p90 is
//!   printed in the header, not gated (see `run`).
//! * `peak_rss_mb` — the process's VmHWM.
//!
//! The modeled 1999-cluster time (`modeled_s`, unit `model_s`) is
//! deterministic, so it and `failed_frac` (zero on a passing run) are
//! reported with the per-layer metrics, never as host time.

mod check;
mod gen;
mod layers;
mod stats;
mod work;

use gen::Inputs;
use nkt_trace::json::quote;
use nkt_trace::json_f64_exact;
use stats::{median, percentile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use work::{Episode, Size};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Wake2d,
    FourierSlab,
    AleWing,
    ServePreempt,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Wake2d,
        Workload::FourierSlab,
        Workload::AleWing,
        Workload::ServePreempt,
    ];

    /// The workloads `BENCHMARK.json` names and gates.
    pub const BENCHMARKED: [Workload; 3] = [
        Workload::FourierSlab,
        Workload::AleWing,
        Workload::ServePreempt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Wake2d => "wake2d",
            Workload::FourierSlab => "fourier_slab",
            Workload::AleWing => "ale_wing",
            Workload::ServePreempt => "serve_preempt",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Rank threads the workload runs at once.
    pub fn ranks(self) -> usize {
        match self {
            Workload::Wake2d => 1,
            Workload::FourierSlab => work::fourier_params(Size::Full).ranks,
            Workload::AleWing => work::ale_params(Size::Full).ranks,
            // One world slot; the widest job has two ranks.
            Workload::ServePreempt => 2,
        }
    }

    fn describe(self) -> String {
        let p = |p: work::Params| {
            format!(
                "order={} mesh={} nz={} ranks={} steady_steps={} ramp_steps={} ckpt_every={}",
                p.order,
                p.mesh,
                p.nz,
                p.ranks,
                p.steps,
                work::RAMP_STEPS,
                p.ckpt_every
            )
        };
        match self {
            Workload::Wake2d => {
                format!(
                    "bluff_body_mesh serial2d {}",
                    p(work::wake2d_params(Size::Full))
                )
            }
            Workload::FourierSlab => format!(
                "rect_quads NekTar-F slab roadrunner_eth {}",
                p(work::fourier_params(Size::Full))
            ),
            Workload::AleWing => format!(
                "wing_box_mesh NekTar-ALE partition_kway roadrunner_myr pcg_tol=1e-6 {}",
                p(work::ale_params(Size::Full))
            ),
            Workload::ServePreempt => format!(
                "nkt-serve max_worlds=1 jobs=slab(fourier,2 ranks),plane(fourier,1 rank),\
                 urgent(fourier,2 ranks, late, higher priority) job_steps={:?}",
                gen::SERVE_JOB_STEPS
            ),
        }
    }
}

/// End-to-end metrics (`--trace 0`), with units, in output order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("step_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units, in the order
/// [`layers::per_layer`] computes them.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("mesh.build_s", "s"),
    ("partition.kway_s", "s"),
    ("partition.edge_cut", "count"),
    ("solver.new_s", "s"),
    ("solver.initial_s", "s"),
    ("solver.ramp_s", "s"),
    ("spectral.ndof", "count"),
    ("spectral.kd", "count"),
    ("spectral.factor_flops", "flop"),
    ("spectral.solve_flops_per_step", "flop"),
    ("stage.BwdTransform_ms", "ms"),
    ("stage.NonLinear_ms", "ms"),
    ("stage.StifflyStable_ms", "ms"),
    ("stage.PressureRhs_ms", "ms"),
    ("stage.PressureSolve_ms", "ms"),
    ("stage.ViscousRhs_ms", "ms"),
    ("stage.ViscousSolve_ms", "ms"),
    ("stage.untracked_ms", "ms"),
    ("mpi.allreduce.calls", "count"),
    ("mpi.iallreduce.calls", "count"),
    ("mpi.alltoall.calls", "count"),
    ("mpi.msgs", "count"),
    ("mpi.bytes", "B"),
    ("mpi.allreduce.host_us.p50", "us"),
    ("mpi.alltoall.host_ms", "ms"),
    ("mpi.host_frac", "frac"),
    ("world.spawn_s", "s"),
    ("gs.exchanges", "count"),
    ("gs.start_us.p50", "us"),
    ("gs.finish_us.p50", "us"),
    ("pcg.iters.pressure", "count"),
    ("pcg.iters.velocity", "count"),
    ("pcg.iters.mesh", "count"),
    ("fft.host_ms", "ms"),
    ("banded_solve.host_ms", "ms"),
    ("helmholtz.host_ms", "ms"),
    ("ckpt.write_s", "s"),
    ("ckpt.write_mb_per_s", "MB/s"),
    ("ckpt.restore_s", "s"),
    ("ckpt.restore_mb_per_s", "MB/s"),
    ("ckpt.bytes", "B"),
    ("serve.ticks", "count"),
    ("serve.preemptions", "count"),
    ("serve.queue_wait_ticks", "count"),
    ("serve.jobs_failed", "count"),
    ("trace.overhead_frac.counters", "frac"),
    ("trace.overhead_frac.spans", "frac"),
    ("untracked_frac", "frac"),
    ("modeled_s", "model_s"),
    ("failed_frac", "frac"),
];

/// Whole episodes each untraced run repeats at least, so `setup_s` is a
/// median of several set-ups.
const MIN_EPISODES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {val:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or_else(|| bad("--workload"))?)
            }
            "--seed" => seed = val.parse().map_err(|_| bad("--seed"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| bad("--seconds"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad("--seconds"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload
        .ok_or("--workload is required (wake2d | fourier_slab | ale_wing | serve_preempt)")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The run's working directory: inside the benchmark's own package, so a run
/// reads and writes only inside the checkout it was built in.
fn run_dir(w: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-{}", w.name(), std::process::id()))
}

/// Git revision of the checkout, read from `.git` without spawning git;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(&format!(" {r}")))
                    .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
            }),
        None => (!head.is_empty()).then(|| head.to_string()),
    };
    rev.unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host CPU ticks `(steal, total)` from `/proc/stat`: the share stolen by
/// the hypervisor during a run explains outliers on a shared host.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Peak resident set (VmHWM) of this process in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn attempted(e: &Episode) -> u64 {
    e.steps_attempted + e.checks.len() as u64 + e.jobs.0
}

pub fn failed(e: &Episode) -> u64 {
    e.checks.iter().filter(|c| !c.ok).count() as u64 + e.jobs.1
}

/// Runs one episode; a panic anywhere in it becomes a failed check.
fn episode(w: Workload, inp: &Inputs, size: Size, dir: &std::path::Path) -> Episode {
    let _ = std::fs::remove_dir_all(dir);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match w {
        Workload::Wake2d => work::wake2d_episode(inp, size),
        Workload::FourierSlab => work::fourier_episode(inp, size, dir),
        Workload::AleWing => work::ale_episode(inp, size),
        Workload::ServePreempt => work::serve_episode(inp, dir),
    }));
    r.unwrap_or_else(|_| Episode {
        checks: vec![check::holds("episode_completed", false)],
        ..Episode::default()
    })
}

/// Repeats rounds of whole episodes, one per trace mode in `modes`,
/// until one more round would overrun `budget_s` (at least `min` rounds).
/// Interleaving the modes keeps warm-up and host drift out of the
/// comparison between them. Returns the episodes of each mode.
fn rounds(
    w: Workload,
    inp: &Inputs,
    size: Size,
    dir: &std::path::Path,
    modes: &[nkt_trace::TraceMode],
    budget_s: f64,
    min: usize,
) -> Vec<Vec<Episode>> {
    let t0 = Instant::now();
    let mut eps: Vec<Vec<Episode>> = modes.iter().map(|_| Vec::new()).collect();
    for n in 1.. {
        for (&mode, out) in modes.iter().zip(&mut eps) {
            nkt_trace::set_mode(mode);
            let _ = nkt_trace::take_collected();
            let mut ep = episode(w, inp, size, dir);
            let threads = nkt_trace::take_collected();
            if mode == nkt_trace::TraceMode::Spans {
                let sums = layers::sum_spans(&threads);
                if w == Workload::FourierSlab {
                    work::fourier_spectral_counts(&mut ep, size, &sums);
                }
                ep.spans = Some(sums);
            }
            if w == Workload::ServePreempt && mode != nkt_trace::TraceMode::Off {
                work::serve_counts(&mut ep, &threads);
            }
            out.push(ep);
        }
        let el = t0.elapsed().as_secs_f64();
        if n >= min && el + el / n as f64 > budget_s {
            break;
        }
    }
    nkt_trace::set_mode(nkt_trace::TraceMode::Off);
    let _ = std::fs::remove_dir_all(dir);
    eps
}

/// End-to-end metrics, in [`END_TO_END`] order.
fn end_to_end(eps: &[Episode]) -> Vec<f64> {
    let steps: Vec<f64> = eps.iter().flat_map(|e| e.step_ms.iter().copied()).collect();
    vec![
        median(&eps.iter().map(|e| e.run_s).collect::<Vec<_>>()),
        median(&eps.iter().map(|e| e.setup_s).collect::<Vec<_>>()),
        percentile(&steps, 50.0),
        peak_rss_mb().unwrap_or(f64::NAN),
    ]
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(n),
                json_f64_exact(*v),
                quote(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs a workload for `seconds` and returns (correct, attempted,
/// failed, metrics) — everything the result line reports.
pub fn run(
    w: Workload,
    inp: &Inputs,
    size: Size,
    seconds: f64,
    trace: bool,
) -> (bool, u64, u64, Vec<(&'static str, &'static str, f64)>) {
    use nkt_trace::TraceMode;
    let dir = run_dir(w);
    let (all, metrics): (Vec<Episode>, Vec<(&str, &str, f64)>) = if trace {
        // The process's first episode pays one-time costs (first-touch
        // page faults, lazy statics) that would land on whichever mode
        // runs first; a discarded warm-up keeps them out of the overheads.
        let _ = episode(w, inp, size, &dir);
        let modes = [TraceMode::Off, TraceMode::Counters, TraceMode::Spans];
        let mut eps = rounds(w, inp, size, &dir, &modes, seconds, 1);
        let (spn, cnt, off) = (eps.pop().unwrap(), eps.pop().unwrap(), eps.pop().unwrap());
        println!(
            "# samples: episodes off={} counters={} spans={}",
            off.len(),
            cnt.len(),
            spn.len()
        );
        let vals = layers::per_layer(&off, &cnt, &spn);
        let m = PER_LAYER
            .iter()
            .map(|&(n, u)| {
                let v = vals.iter().find(|(k, _)| *k == n).map(|&(_, v)| v);
                (
                    n,
                    u,
                    v.unwrap_or_else(|| panic!("per-layer metric {n} not computed")),
                )
            })
            .collect();
        (off.into_iter().chain(cnt).chain(spn).collect(), m)
    } else {
        let min = if size == Size::Full { MIN_EPISODES } else { 1 };
        let eps = rounds(w, inp, size, &dir, &[TraceMode::Off], seconds, min).remove(0);
        let steps: Vec<f64> = eps.iter().flat_map(|e| e.step_ms.iter().copied()).collect();
        println!(
            "# samples: episodes={} steady_steps={} modeled_s={} model_s (virtual clock, not host time)",
            eps.len(),
            steps.len(),
            median(&eps.iter().map(|e| e.modeled_s).collect::<Vec<_>>())
        );
        // The step-time tail rests on few samples beyond it and moves with
        // host contention bursts, so it is printed but not gated.
        println!("# step_ms.p90 {} ms (not gated)", percentile(&steps, 90.0));
        let m = END_TO_END
            .iter()
            .zip(end_to_end(&eps))
            .map(|(&(n, u), v)| (n, u, v))
            .collect();
        (eps, m)
    };
    let _ = std::fs::remove_dir(dir.parent().expect("run dir has a parent"));
    for e in &all {
        for c in e.checks.iter().filter(|c| !c.ok) {
            eprintln!("{c}");
        }
    }
    let attempted: u64 = all.iter().map(attempted).sum();
    let failed: u64 = all.iter().map(failed).sum();
    let finite = metrics.iter().all(|m| m.2.is_finite());
    (failed == 0 && finite, attempted, failed, metrics)
}

/// Refuses a workload whose rank threads exceed the host's cores: the
/// in-process ranks would then time-share cores and measure the host's
/// scheduler, not the program.
fn admit(w: Workload, cores: usize) -> Result<(), String> {
    if w.ranks() > cores {
        return Err(format!(
            "{} needs {} rank threads but this host has {cores} cores; refusing to run",
            w.name(),
            w.ranks()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nkt-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let cores = nproc();
    let inp = Inputs::generate(w, args.seed);
    println!(
        "# nkt-e2e workload={} seed={} seconds={} trace={} rank_threads={} nproc={} profile={} rev={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.ranks(),
        cores,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_revision()
    );
    println!("# params: {}", w.describe());
    if !Workload::BENCHMARKED.contains(&w) {
        println!(
            "# {} is not gated by BENCHMARK.json (see the crate docs)",
            w.name()
        );
    }
    println!(
        "# inputs: fnv1a={:016x} ({} bytes)",
        inp.digest(),
        inp.to_bytes().len()
    );
    if let Err(e) = admit(w, cores) {
        eprintln!("nkt-e2e: {e}");
        return ExitCode::from(2);
    }
    let ticks0 = cpu_ticks();
    let (correct, attempted, failed, metrics) = run(w, &inp, Size::Full, args.seconds, args.trace);
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, cpu_ticks()) {
        let steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("# host: cpu steal {:.2}% of the run", 100.0 * steal);
    }
    for (n, u, v) in &metrics {
        println!("# {n:<32} {v:>16.6} {u}");
    }
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nkt_trace::json::{parse, Value};
    use std::sync::Mutex;

    /// Serializes the tests that run episodes: the trace mode and the
    /// trace collector are process-wide.
    static EPISODES: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        EPISODES.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn benchmark_json() -> Value {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable")).expect("valid JSON")
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let b = benchmark_json();
        assert_eq!(names(&b, "end_to_end"), table(&END_TO_END));
        assert_eq!(names(&b, "per_layer"), table(&PER_LAYER));
        let wl: Vec<String> = names(&b, "workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(wl, Workload::BENCHMARKED.map(|w| w.name().to_string()));
    }

    #[test]
    fn refuses_more_rank_threads_than_cores() {
        assert!(admit(Workload::AleWing, 1).is_err());
        assert!(admit(Workload::Wake2d, 1).is_ok());
        assert!(Workload::ALL.iter().all(|w| w.ranks() <= 2));
    }

    /// Smoke run at the tiny size: every workload emits every metric with
    /// its unit, passes its checks, and reads zero on the layers it is
    /// designed to bypass. One test, because the trace mode is global.
    #[test]
    fn smoke_every_workload_emits_every_metric() {
        let _guard = serial();
        for w in Workload::ALL {
            let inp = Inputs::generate(w, 3);
            let (ok, attempted, failed, e2e) = run(w, &inp, Size::Tiny, 1e-3, false);
            assert!(
                ok && failed == 0 && attempted > 0,
                "{}: untraced run failed",
                w.name()
            );
            let got: Vec<(String, String)> = e2e
                .iter()
                .map(|m| (m.0.to_string(), m.1.to_string()))
                .collect();
            assert_eq!(got, table(&END_TO_END));
            assert!(e2e.iter().all(|m| m.2 > 0.0), "{}: {e2e:?}", w.name());

            let (ok, _, _, layer) = run(w, &inp, Size::Tiny, 1e-3, true);
            assert!(ok, "{}: traced run failed", w.name());
            let got: Vec<(String, String)> = layer
                .iter()
                .map(|m| (m.0.to_string(), m.1.to_string()))
                .collect();
            assert_eq!(got, table(&PER_LAYER));
            let get = |n: &str| layer.iter().find(|m| m.0 == n).expect("metric present").2;
            match w {
                Workload::Wake2d => {
                    for (n, _, v) in &layer {
                        if n.starts_with("mpi.") || n.starts_with("gs.") || *n == "world.spawn_s" {
                            assert_eq!(*v, 0.0, "wake2d bypasses {n}");
                        }
                    }
                    assert!(get("spectral.factor_flops") > 0.0);
                }
                Workload::AleWing => {
                    assert_eq!(get("spectral.factor_flops"), 0.0);
                    assert!(get("mpi.allreduce.calls") > 0.0 && get("gs.exchanges") > 0.0);
                    assert!(get("pcg.iters.pressure") > 0.0);
                }
                Workload::FourierSlab => {
                    assert!(get("mpi.alltoall.calls") > 0.0 && get("fft.host_ms") > 0.0);
                    assert!(get("ckpt.bytes") > 0.0 && get("ckpt.restore_s") > 0.0);
                }
                Workload::ServePreempt => {
                    assert!(get("serve.preemptions") >= 1.0 && get("serve.ticks") > 0.0);
                    assert_eq!(get("serve.jobs_failed"), 0.0);
                }
            }
        }
    }

    /// Another seed changes the inputs but not the exact work counts
    /// that do not depend on a PCG's convergence.
    #[test]
    fn seed_leaves_exact_counts_unchanged() {
        let _guard = serial();
        let counts = |w: Workload, seed: u64| {
            let inp = Inputs::generate(w, seed);
            let ep = match w {
                Workload::Wake2d => work::wake2d_episode(&inp, Size::Tiny),
                _ => work::ale_episode(&inp, Size::Tiny),
            };
            assert!(ep.checks.iter().all(|c| c.ok));
            ep.counts
        };
        assert_eq!(counts(Workload::Wake2d, 1), counts(Workload::Wake2d, 2));
        let (a, b) = (counts(Workload::AleWing, 1), counts(Workload::AleWing, 2));
        for k in [
            "partition.edge_cut",
            "pcg.iters.mesh",
            "mpi.iallreduce.calls",
        ] {
            assert_eq!(a.get(k), b.get(k), "{k}");
        }
    }

    /// The gate has teeth: the recorded reference passes a real run and a
    /// reference moved by twice its tolerance fails it.
    #[test]
    fn perturbed_reference_fails_the_check() {
        let _guard = serial();
        let ep = work::wake2d_episode(&Inputs::generate(Workload::Wake2d, 5), Size::Full);
        assert!(ep.checks.iter().all(|c| c.ok), "{:?}", ep.checks);
        let value = |n: &str| {
            ep.checks
                .iter()
                .find(|c| c.name == n)
                .expect("checked")
                .value
        };
        let (ke, div) = (value("kinetic_energy"), value("divergence"));
        let r = check::WAKE2D;
        assert!(check::energy_and_divergence(ke, div, &r)
            .iter()
            .all(|c| c.ok));
        let moved = check::Reference {
            ke: (r.ke.0 + 2.0 * r.ke.1, r.ke.1),
            ..r
        };
        assert!(!check::energy_and_divergence(ke, div, &moved)[0].ok);
        let moved = check::Reference {
            div: (r.div.0 - 2.0 * r.div.1, r.div.1),
            ..r
        };
        assert!(!check::energy_and_divergence(ke, div, &moved)[1].ok);
    }
}
