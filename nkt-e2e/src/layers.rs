//! Per-layer metrics of the traced run: reading the program's own
//! `NKT_TRACE=spans` spans through `nkt_trace::take_collected()`, and
//! folding every phase's episodes into the named `per_layer` metrics.

use crate::stats::median;
use crate::work::Episode;
use nektar::timers::Stage;
use nkt_trace::json::{parse, Value};
use nkt_trace::ThreadData;
use std::path::Path;

/// Span totals inside the steady-step windows (the benchmark's own
/// `e2e.steady` span), summed over rank threads.
#[derive(Debug, Default, Clone)]
pub struct SpanSums {
    /// Threads that ran a steady window (ranks).
    pub ranks: usize,
    /// Summed steady-window length.
    pub window_us: f64,
    /// Host time of the program's own `step` spans.
    pub step_us: f64,
    /// Host time per stage span, in [`Stage::index`] order.
    pub stage_us: [f64; 7],
    pub fft_us: f64,
    pub banded_us: f64,
    /// Banded solves inside the windows, and the largest order and
    /// semi-bandwidth they report (`banded_solve` span arguments).
    pub banded_solves: f64,
    pub banded_n_kd: (usize, usize),
    pub helmholtz_us: f64,
    pub alltoall_us: f64,
    /// Time covered by at least one `mpi` span (nested spans counted once).
    pub mpi_union_us: f64,
    pub allreduce_us: Vec<f64>,
    pub gs_start_us: Vec<f64>,
    pub gs_finish_us: Vec<f64>,
}

/// Sums the spans each thread recorded inside its steady window.
pub fn sum_spans(threads: &[ThreadData]) -> SpanSums {
    let mut out = SpanSums::default();
    for t in threads {
        let Some(win) = t
            .events
            .iter()
            .find(|e| e.name == "e2e.steady" && e.cat == "e2e")
        else {
            continue;
        };
        let (w0, w1) = (win.ts_us, win.ts_us + win.dur_us);
        out.ranks += 1;
        out.window_us += win.dur_us;
        let mut mpi: Vec<(f64, f64)> = Vec::new();
        for e in &t.events {
            if !(e.ts_us >= w0 && e.ts_us + e.dur_us <= w1 && e.dur_us.is_finite()) {
                continue;
            }
            if e.cat == "stage" {
                if let Some(s) = Stage::ALL.iter().find(|s| s.name() == e.name) {
                    out.stage_us[s.index()] += e.dur_us;
                }
            }
            if e.cat == "step" {
                out.step_us += e.dur_us;
            }
            if e.cat == "mpi" {
                mpi.push((e.ts_us, e.ts_us + e.dur_us));
            }
            match e.name {
                "fft" => out.fft_us += e.dur_us,
                "banded_solve" => {
                    out.banded_us += e.dur_us;
                    out.banded_solves += e.arg("solves").unwrap_or(0.0);
                    let (n, kd) = (e.arg("n").unwrap_or(0.0), e.arg("kd").unwrap_or(0.0));
                    out.banded_n_kd = out.banded_n_kd.max((n as usize, kd as usize));
                }
                "helmholtz" => out.helmholtz_us += e.dur_us,
                "alltoall" | "ialltoall" => out.alltoall_us += e.dur_us,
                "allreduce" => out.allreduce_us.push(e.dur_us),
                "gs.start" => out.gs_start_us.push(e.dur_us),
                "gs.finish" => out.gs_finish_us.push(e.dur_us),
                _ => {}
            }
        }
        out.mpi_union_us += union_len(&mut mpi);
    }
    out
}

/// Host seconds of `ckpt.write` and `ckpt.restore` spans on every job's
/// rank-0 thread, read from the `TRACE_<job>.json` timelines a serve run
/// exports under `NKT_TRACE=spans` (the runner drains those spans itself).
pub fn serve_ckpt_seconds(batch_root: &Path) -> (f64, f64) {
    let (mut write, mut restore) = (0.0, 0.0);
    let Ok(dirs) = std::fs::read_dir(batch_root) else {
        return (0.0, 0.0);
    };
    for job in dirs.flatten() {
        let name = job.file_name().to_string_lossy().into_owned();
        let Ok(text) = std::fs::read_to_string(job.path().join(format!("TRACE_{name}.json")))
        else {
            continue;
        };
        let Ok(doc) = parse(&text) else { continue };
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .unwrap_or(&[]);
        let field = |e: &Value, k: &str| e.get(k).and_then(Value::as_f64);
        let rank0: Vec<f64> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .filter(|e| {
                let n = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str);
                n.is_some_and(|n| n.ends_with("rank 0"))
            })
            .filter_map(|e| field(e, "tid"))
            .collect();
        for e in events {
            let on_rank0 = field(e, "tid").is_some_and(|t| rank0.contains(&t));
            let host = field(e, "pid") == Some(0.0);
            let dur_s = field(e, "dur").unwrap_or(0.0) / 1e6;
            match e.get("name").and_then(Value::as_str) {
                Some("ckpt.write") if on_rank0 && host => write += dur_s,
                Some("ckpt.restore") if on_rank0 && host => restore += dur_s,
                _ => {}
            }
        }
    }
    (write, restore)
}

/// Length of the union of intervals.
fn union_len(iv: &mut [(f64, f64)]) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(a, b) in iv.iter() {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

/// Median over episodes of one timed layer call (0 when never called).
fn layer_median(eps: &[Episode], name: &str) -> f64 {
    median(
        &eps.iter()
            .map(|e| e.layer_s.get(name).copied().unwrap_or(0.0))
            .collect::<Vec<_>>(),
    )
}

fn count_median(eps: &[Episode], name: &str) -> f64 {
    median(
        &eps.iter()
            .map(|e| e.counts.get(name).copied().unwrap_or(0.0))
            .collect::<Vec<_>>(),
    )
}

/// A value from the phase that measures it: the benchmark's own timers
/// or accessors in `first`, else the spans `second` read.
fn first_nonzero(first: f64, second: impl FnOnce() -> f64) -> f64 {
    if first != 0.0 {
        first
    } else {
        second()
    }
}

/// Every `per_layer` metric by name.
///
/// `off`, `counters` and `spans` are the traced run's three phases: host
/// times come from the untraced phase, exact counts from the counters
/// phase, span-derived times from the spans phase.
pub fn per_layer(
    off: &[Episode],
    counters: &[Episode],
    spans: &[Episode],
) -> Vec<(&'static str, f64)> {
    let run_s = |eps: &[Episode]| median(&eps.iter().map(|e| e.run_s).collect::<Vec<_>>());
    let sums = || spans.iter().filter_map(|e| Some((e, e.spans.as_ref()?)));
    // Span time per steady step and rank, median over episodes.
    let per_step_ms = |f: &dyn Fn(&SpanSums) -> f64| -> f64 {
        let v: Vec<f64> = sums()
            .filter(|(e, s)| s.ranks > 0 && !e.step_ms.is_empty())
            .map(|(e, s)| f(s) / 1e3 / (s.ranks * e.step_ms.len()) as f64)
            .collect();
        median(&v)
    };
    // Median duration of one kind of span, pooled over episodes.
    let pooled = |f: &dyn Fn(&SpanSums) -> &Vec<f64>| -> f64 {
        median(&sums().flat_map(|(_, s)| f(s).clone()).collect::<Vec<_>>())
    };
    let stage_ms: Vec<f64> = (0..7).map(|i| per_step_ms(&|s| s.stage_us[i])).collect();
    let stage_sum: f64 = stage_ms.iter().sum();
    let mpi_frac = median(
        &sums()
            .filter(|(_, s)| s.window_us > 0.0)
            .map(|(_, s)| s.mpi_union_us / s.window_us)
            .collect::<Vec<_>>(),
    );
    // Checkpoint times from the benchmark's own timers; a serve batch's
    // from the spans its jobs exported.
    let ckpt_s = |name: &str| first_nonzero(layer_median(off, name), || layer_median(spans, name));
    let (write_s, restore_s) = (ckpt_s("ckpt.write_s"), ckpt_s("ckpt.restore_s"));
    let ckpt_bytes = count_median(counters, "ckpt.bytes");
    let rate = |bytes: f64, s: f64| if s > 0.0 { bytes / 1e6 / s } else { 0.0 };
    // Banded-solver shape from public accessors; NekTar-F's per-mode
    // problems are private, so its shape comes from its solve spans.
    let spectral =
        |name: &str| first_nonzero(count_median(counters, name), || count_median(spans, name));
    let all = || off.iter().chain(counters).chain(spans);
    let attempted: u64 = all().map(crate::attempted).sum();
    let failed: u64 = all().map(crate::failed).sum();
    let untracked = median(
        &off.iter()
            .map(|e| {
                let wall = e.layer_s.get("episode_s").copied().unwrap_or(e.run_s);
                ((wall - e.timed_s) / wall).max(0.0)
            })
            .collect::<Vec<_>>(),
    );

    let mut v = vec![
        ("mesh.build_s", layer_median(off, "mesh.build_s")),
        ("partition.kway_s", layer_median(off, "partition.kway_s")),
        (
            "partition.edge_cut",
            count_median(counters, "partition.edge_cut"),
        ),
        ("solver.new_s", layer_median(off, "solver.new_s")),
        ("solver.initial_s", layer_median(off, "solver.initial_s")),
        ("solver.ramp_s", layer_median(off, "solver.ramp_s")),
    ];
    for name in [
        "spectral.ndof",
        "spectral.kd",
        "spectral.factor_flops",
        "spectral.solve_flops_per_step",
    ] {
        v.push((name, spectral(name)));
    }
    const STAGES: [&str; 7] = [
        "stage.BwdTransform_ms",
        "stage.NonLinear_ms",
        "stage.StifflyStable_ms",
        "stage.PressureRhs_ms",
        "stage.PressureSolve_ms",
        "stage.ViscousRhs_ms",
        "stage.ViscousSolve_ms",
    ];
    v.extend(STAGES.into_iter().zip(stage_ms));
    let untracked_step = if stage_sum > 0.0 {
        per_step_ms(&|s| s.step_us) - stage_sum
    } else {
        0.0
    };
    v.push(("stage.untracked_ms", untracked_step));
    for name in [
        "mpi.allreduce.calls",
        "mpi.iallreduce.calls",
        "mpi.alltoall.calls",
        "mpi.msgs",
        "mpi.bytes",
    ] {
        v.push((name, count_median(counters, name)));
    }
    v.extend([
        ("mpi.allreduce.host_us.p50", pooled(&|s| &s.allreduce_us)),
        ("mpi.alltoall.host_ms", per_step_ms(&|s| s.alltoall_us)),
        ("mpi.host_frac", mpi_frac),
        ("world.spawn_s", layer_median(off, "world.spawn_s")),
        ("gs.exchanges", count_median(counters, "gs.exchanges")),
        ("gs.start_us.p50", pooled(&|s| &s.gs_start_us)),
        ("gs.finish_us.p50", pooled(&|s| &s.gs_finish_us)),
        (
            "pcg.iters.pressure",
            count_median(counters, "pcg.iters.pressure"),
        ),
        (
            "pcg.iters.velocity",
            count_median(counters, "pcg.iters.velocity"),
        ),
        ("pcg.iters.mesh", count_median(counters, "pcg.iters.mesh")),
        ("fft.host_ms", per_step_ms(&|s| s.fft_us)),
        ("banded_solve.host_ms", per_step_ms(&|s| s.banded_us)),
        ("helmholtz.host_ms", per_step_ms(&|s| s.helmholtz_us)),
        ("ckpt.write_s", write_s),
        ("ckpt.write_mb_per_s", rate(ckpt_bytes, write_s)),
        ("ckpt.restore_s", restore_s),
        (
            "ckpt.restore_mb_per_s",
            rate(count_median(counters, "ckpt.restore_bytes"), restore_s),
        ),
        ("ckpt.bytes", ckpt_bytes),
    ]);
    for name in [
        "serve.ticks",
        "serve.preemptions",
        "serve.queue_wait_ticks",
        "serve.jobs_failed",
    ] {
        v.push((name, count_median(counters, name)));
    }
    v.extend([
        (
            "trace.overhead_frac.counters",
            run_s(counters) / run_s(off) - 1.0,
        ),
        ("trace.overhead_frac.spans", run_s(spans) / run_s(off) - 1.0),
        ("untracked_frac", untracked),
        (
            "modeled_s",
            median(&off.iter().map(|e| e.modeled_s).collect::<Vec<_>>()),
        ),
        ("failed_frac", failed as f64 / attempted.max(1) as f64),
    ]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_nested_and_overlapping_spans_once() {
        let mut iv = vec![(0.0, 10.0), (2.0, 3.0), (8.0, 12.0), (20.0, 21.0)];
        assert_eq!(union_len(&mut iv), 13.0);
        assert_eq!(union_len(&mut []), 0.0);
    }
}
