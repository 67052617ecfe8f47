//! The traced run: per-layer numbers for one workload and seed.
//!
//! Layer rates come from [`crate::layers`]. The runtime's numbers come
//! from the in-process cluster, whose counters cover all its slaves
//! (slave counters are process-local, so the `process` plane cannot
//! report them). Untraced and traced jobs alternate on one cluster: a
//! traced job also times its job-API calls and drains the job trace
//! afterwards, and the wall-time difference is the benchmark's own
//! tracing overhead.

use crate::layers::{measure_layers, Layers};
use crate::planes::{nproc, start_cluster};
use crate::stats::{mean, median, quantile, Report};
use crate::workload::{ApiTimers, Spec};
use crate::{serial_oracle, Oracle, Outcome};
use mrs_core::Result;
use mrs_runtime::metrics::JobMetrics;
use mrs_runtime::LocalCluster;
use mrs_trace::PhaseTotals;
use std::time::{Duration, Instant};

/// Share of `--seconds` spent on the layer calls; the rest runs jobs.
const LAYER_SHARE: f64 = 0.25;
/// Jobs of each kind (untraced, traced) at least.
const MIN_JOBS: usize = 3;

type Counter = (&'static str, fn(&JobMetrics) -> u64, bool);

/// Per-job counters, reported as the mean over the traced jobs. Those
/// marked `false` are printed but left out of the result object because
/// they read 0 on a healthy run.
const COUNTERS: [Counter; 18] = [
    ("runtime.tasks", JobMetrics::tasks_executed, true),
    ("runtime.dispatch_polls", JobMetrics::dispatch_polls, true),
    ("runtime.longpoll_parks", JobMetrics::longpoll_parks, true),
    ("runtime.piggybacked_reports", JobMetrics::piggybacked_reports, true),
    ("runtime.bytes_pre_compress", JobMetrics::bytes_pre_compress, true),
    ("runtime.bytes_on_wire", JobMetrics::bytes_on_wire, true),
    ("runtime.shortcircuit_fetches", JobMetrics::shortcircuit_fetches, true),
    ("runtime.eager_fragments", JobMetrics::eager_fragments, true),
    ("runtime.eager_bytes", JobMetrics::eager_bytes, true),
    ("runtime.merge_runs", JobMetrics::merge_runs, true),
    ("runtime.premerged_runs", JobMetrics::premerged_runs, true),
    ("runtime.residual_fetches", JobMetrics::residual_fetches, false),
    ("runtime.tasks_retried", JobMetrics::tasks_retried, false),
    ("runtime.checksum_retries", JobMetrics::checksum_retries, false),
    ("runtime.speculative_launches", JobMetrics::speculative_launches, false),
    ("runtime.speculative_wins", JobMetrics::speculative_wins, false),
    ("runtime.affinity_hits", JobMetrics::affinity_hits, false),
    ("runtime.affinity_misses", JobMetrics::affinity_misses, false),
];

fn snapshot(cluster: &LocalCluster) -> (Vec<u64>, u64) {
    let m = cluster.metrics();
    (COUNTERS.iter().map(|(_, get, _)| get(&m)).collect(), cluster.control_requests())
}

/// The untraced jobs' wall times and round times.
#[derive(Default)]
struct Untraced {
    walls: Vec<f64>,
    rounds_ms: Vec<f64>,
}

/// What the traced jobs added up to; `timers` accumulates across them.
#[derive(Default)]
struct Traced {
    walls: Vec<f64>,
    counters: Vec<u64>,
    control_rpcs: u64,
    phases: PhaseTotals,
    /// Every attempt's share of its window that spans cover.
    coverage: Vec<f64>,
    dropped: u64,
    timers: ApiTimers,
}

pub fn run(spec: &Spec, seconds: f64) -> Result<crate::Outcome> {
    let input = spec.inputs();
    let mut oracle = Oracle::new(serial_oracle(spec, &input)?);
    let layers = measure_layers(spec, &input, Duration::from_secs_f64(seconds * LAYER_SHARE))?;

    let mut cluster = start_cluster(spec)?;
    oracle.job(spec, "cluster", &mut cluster, input.clone(), &mut ApiTimers::default());
    let _ = cluster.take_trace();
    let mut gate_failures = Vec::new();
    let mut untraced = Untraced::default();
    let mut traced = Traced {
        counters: vec![0; COUNTERS.len()],
        timers: ApiTimers { on: true, ..ApiTimers::default() },
        ..Traced::default()
    };
    let t0 = Instant::now();
    let jobs_s = seconds * (1.0 - LAYER_SHARE);
    while untraced.walls.len().min(traced.walls.len()) < MIN_JOBS
        || t0.elapsed().as_secs_f64() < jobs_s
    {
        if oracle.failed > 0 {
            break;
        }
        let timers = &mut ApiTimers::default();
        if let Some(timing) = oracle.job(spec, "cluster", &mut cluster, input.clone(), timers) {
            untraced.walls.push(timing.wall_s);
            untraced.rounds_ms.extend(timing.rounds_ms);
        }
        let _ = cluster.take_trace();

        let (before, rpcs_before) = snapshot(&cluster);
        let Some(timing) =
            oracle.job(spec, "cluster", &mut cluster, input.clone(), &mut traced.timers)
        else {
            continue;
        };
        let Some(trace) = cluster.take_trace() else {
            gate_failures.push("the cluster recorded no trace".to_owned());
            break;
        };
        let (after, rpcs_after) = snapshot(&cluster);
        traced.walls.push(timing.wall_s);
        for (sum, (a, b)) in traced.counters.iter_mut().zip(after.iter().zip(&before)) {
            *sum += a - b;
        }
        traced.control_rpcs += rpcs_after - rpcs_before;
        let phases = trace.critical_path();
        let sum: u64 = phases.buckets().iter().map(|(_, us)| us).sum();
        if sum != phases.wall_us {
            gate_failures
                .push(format!("cp buckets sum to {sum} us, trace wall {}", phases.wall_us));
        }
        add_phases(&mut traced.phases, &phases);
        traced.coverage.extend(trace.coverage().iter().map(|c| c.fraction()));
        traced.dropped += trace.dropped;
    }
    let lifetime = cluster.metrics();
    drop(cluster);

    if traced.dropped != 0 {
        gate_failures.push(format!("trace dropped {} events", traced.dropped));
    }
    if lifetime.checksum_retries() != 0 {
        gate_failures.push(format!("{} checksum retries", lifetime.checksum_retries()));
    }
    let report = report(spec, &layers, &traced, &untraced, &lifetime);
    Ok(Outcome { report, attempted: oracle.attempted, failed: oracle.failed, gate_failures })
}

fn add_phases(total: &mut PhaseTotals, p: &PhaseTotals) {
    total.wall_us += p.wall_us;
    total.map_exec_us += p.map_exec_us;
    total.reduce_exec_us += p.reduce_exec_us;
    total.fetch_us += p.fetch_us;
    total.merge_us += p.merge_us;
    total.emit_us += p.emit_us;
    total.idle_us += p.idle_us;
}

fn report(
    spec: &Spec,
    layers: &Layers,
    traced: &Traced,
    untraced: &Untraced,
    lifetime: &JobMetrics,
) -> Report {
    let jobs = traced.walls.len().max(1) as f64;
    let per_job = |name: &str| {
        let i = COUNTERS.iter().position(|(n, ..)| *n == name).expect("known counter");
        traced.counters[i] as f64 / jobs
    };
    let ms_per_job = |d: Duration| d.as_secs_f64() * 1e3 / jobs;
    let us_per_job = |us: u64| us as f64 / 1e3 / jobs;
    let untraced_wall = median(&untraced.walls);
    let traced_wall = median(&traced.walls);
    let control_rpcs = traced.control_rpcs as f64 / jobs;

    // Sanders-style model of one cluster job: local work spread over the
    // cores, bytes moved at the loopback fetch rate, every fetched byte
    // encoded once and decoded once, and each control request one
    // XML-RPC round trip.
    let s = spec.shape();
    let rounds = s.rounds as f64;
    let local = rounds
        * (layers.map_records_per_round / layers.map.per_s()
            + layers.reduce_records_per_round / layers.merge_reduce.per_s())
        / nproc() as f64;
    let comm = per_job("runtime.bytes_on_wire") / (layers.fetch.mb_per_s() * 1e6);
    let codec_bytes = per_job("runtime.bytes_pre_compress");
    let codec = codec_bytes / (layers.encode.mb_per_s() * 1e6)
        + codec_bytes / (layers.decode.mb_per_s() * 1e6);
    let control = control_rpcs * layers.rtt.per_call_s;
    let predicted = local + comm + codec + control;

    let mut r = Report::default();
    r.add("core.map_rps", layers.map.per_s(), "1/s");
    r.add("core.merge_reduce_rps", layers.merge_reduce.per_s(), "1/s");
    r.add("fs.write_mbps", layers.fs_write.mb_per_s(), "MB/s");
    r.add("fs.read_run_mbps", layers.fs_read.mb_per_s(), "MB/s");
    r.add("codec.encode_mbps", layers.encode.mb_per_s(), "MB/s");
    r.add("codec.decode_mbps", layers.decode.mb_per_s(), "MB/s");
    r.add("codec.ratio", layers.ratio, "ratio");
    r.add("rpc.fetch_mbps", layers.fetch.mb_per_s(), "MB/s");
    r.add("rpc.xmlrpc_rtt_us", layers.rtt.per_call_s * 1e6, "us");
    r.add("runtime.local_data_ms", ms_per_job(traced.timers.local_data), "ms");
    r.add("runtime.submit_ms", ms_per_job(traced.timers.submit), "ms");
    r.add("runtime.fetch_wait_ms", ms_per_job(traced.timers.fetch_wait), "ms");
    r.add("runtime.control_rpcs", control_rpcs, "count");
    for (name, _, in_result) in COUNTERS {
        if in_result {
            r.add(name, per_job(name), "count");
        } else {
            r.note(name, per_job(name), "count");
        }
    }
    let (eager, residual) =
        (per_job("runtime.eager_fragments"), per_job("runtime.residual_fetches"));
    r.add("runtime.eager_hit_frac", eager / (eager + residual), "ratio");
    let (hits, misses) = (per_job("runtime.affinity_hits"), per_job("runtime.affinity_misses"));
    r.add("runtime.affinity_hit_frac", hits / (hits + misses), "ratio");
    r.add("runtime.peak_live_datasets", lifetime.peak_live_datasets() as f64, "count");
    r.add("runtime.peak_reduce_records", lifetime.peak_reduce_records() as f64, "count");
    let p = &traced.phases;
    r.add("cp.map_exec_ms", us_per_job(p.map_exec_us), "ms");
    r.add("cp.reduce_exec_ms", us_per_job(p.reduce_exec_us), "ms");
    r.add("cp.shuffle_wait_ms", us_per_job(p.fetch_us), "ms");
    r.add("cp.merge_ms", us_per_job(p.merge_us), "ms");
    r.add("cp.emit_ms", us_per_job(p.emit_us), "ms");
    r.add("cp.idle_ms", us_per_job(p.idle_us), "ms");
    r.add("cp.wall_ms", us_per_job(p.wall_us), "ms");
    // Some attempt can be left with no span at all, so the minimum reads 0.
    r.add("trace.mean_coverage_frac", mean(&traced.coverage), "ratio");
    r.add("model.predicted_s.cluster", predicted, "s");
    r.add("model.residual_frac.cluster", (untraced_wall - predicted) / untraced_wall, "ratio");
    r.add("bench.trace_overhead_frac", traced_wall / untraced_wall - 1.0, "ratio");
    r.add("bench.untraced_wall_s.cluster", untraced_wall, "s");
    r.add("bench.traced_wall_s.cluster", traced_wall, "s");
    r.add("iter_ms.p95.cluster", quantile(&untraced.rounds_ms, 0.95), "ms");
    r.note("trace.dropped_events", traced.dropped as f64, "count");
    let min_coverage = traced.coverage.iter().copied().fold(f64::INFINITY, f64::min);
    r.note("trace.min_coverage_frac", min_coverage, "ratio");
    let launches = per_job("runtime.speculative_launches");
    r.note("runtime.speculative_win_frac", per_job("runtime.speculative_wins") / launches, "ratio");
    println!(
        "traced run: {} untraced + {} traced cluster jobs; model parts local {local:.4} s, \
         comm {comm:.4} s, codec {codec:.4} s, control {control:.4} s",
        untraced.walls.len(),
        traced.walls.len()
    );
    println!(
        "layer bases: map {}, merge_reduce {}, fs {}, codec {}, fetch {}, rtt {}",
        layers.map.base("records"),
        layers.merge_reduce.base("records"),
        layers.fs_write.base("bytes"),
        layers.encode.base("bytes"),
        layers.fetch.base("bytes"),
        layers.rtt.base("calls")
    );
    match &layers.combine {
        Some(c) => println!("core.combine_rps {} 1/s ({})", c.per_s(), c.base("records")),
        None => println!("core.combine_rps n/a: the program declares no combiner"),
    }
    r.print();
    r
}
