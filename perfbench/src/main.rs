//! The repository benchmark: the paper's three workloads (WordCount, π,
//! PSO) on all five execution planes, with shipped defaults.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wordcount|pi|pso --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures end to end: set-up time, mean job wall time per
//! plane (trimmed of outliers), time per round on the two distributed
//! planes, and peak memory.
//! `--trace 1` is a separate run on the same seed that measures layer by
//! layer: timed calls into each layer's public functions on the
//! workload's own data, the runtime's counters and the job trace of the
//! in-process cluster, and a model that predicts the cluster's wall time
//! from the layer numbers. Every job's output is checked against the
//! serial plane. Human-readable lines come first; the last line of
//! standard output is one JSON object with the metrics.
//!
//! The binary also runs as a slave of the `process` plane:
//! `--slave-of HOST:PORT --workload W --seed N`.

mod layers;
mod planes;
mod stats;
mod traced;
mod workload;

use mrs_core::{Record, Result};
use mrs_runtime::distributed::RpcMasterLink;
use mrs_runtime::slave::run_slave;
use mrs_runtime::{DataPlane, Job, SlaveOptions};
use planes::{Planes, CLUSTER, PLANES, PROCESS};
use stats::{median, quantile, trimmed_mean, Report};
use std::sync::atomic::AtomicBool;
use std::time::Instant;
use workload::{ApiTimers, Output, Spec, Workload};

/// Share of samples dropped at each end before averaging job and set-up
/// times.
const TRIM: f64 = 0.1;
/// Timed rounds per run at least, however long they take.
const MIN_ROUNDS: usize = 3;
/// Each plane runs jobs for at least this long per round (and at least
/// one job), so fast planes collect more samples than one per round.
/// It is short so that each plane's samples are spread over the whole
/// run: a shared host's speed drifts over seconds, and samples bunched
/// in a few long slices would each catch only a few of its states.
const PLANE_SLICE_S: f64 = 0.1;

struct Args {
    spec: Spec,
    seconds: f64,
    trace: bool,
    slave_of: Option<String>,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut flags = std::collections::HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let name = a.strip_prefix("--").ok_or(format!("unexpected argument {a:?}"))?;
        let value = it.next().ok_or(format!("--{name} needs a value"))?;
        flags.insert(name.to_owned(), value);
    }
    let get = |name: &str| flags.get(name).ok_or(format!("missing --{name}"));
    let workload = get("workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = get("seed")?.parse().map_err(|_| "--seed wants an integer".to_owned())?;
    let slave_of = flags.get("slave-of").cloned();
    if slave_of.is_some() {
        return Ok(Args { spec: Spec { workload, seed }, seconds: 0.0, trace: false, slave_of });
    }
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "--seconds wants a number")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace wants 0 or 1, not {t:?}")),
    };
    Ok(Args { spec: Spec { workload, seed }, seconds, trace, slave_of })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(master) = &args.slave_of {
        let link = RpcMasterLink::new(master.clone());
        let stop = AtomicBool::new(false);
        let program = args.spec.program();
        if let Err(e) =
            run_slave(&link, program, DataPlane::Direct, &SlaveOptions::default(), &stop)
        {
            eprintln!("perfbench slave: {e}");
            std::process::exit(1);
        }
        return;
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {}",
        args.spec.workload.name(),
        args.spec.seed,
        args.seconds,
        u8::from(args.trace),
        planes::nproc()
    );
    let outcome = if args.trace {
        traced::run(&args.spec, args.seconds)
    } else {
        end_to_end(&args.spec, args.seconds)
    };
    match outcome {
        Ok(outcome) => {
            for g in &outcome.gate_failures {
                eprintln!("perfbench: gate failed: {g}");
            }
            let correct = outcome.correct();
            println!("{}", outcome.report.json(correct, outcome.attempted, outcome.failed));
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What a run measured and how many of its jobs went wrong.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates beyond job outputs, with a reason for each breach.
    pub gate_failures: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.gate_failures.is_empty() && self.report.all_finite()
    }
}

/// Counts jobs and checks each output against the serial plane's.
pub struct Oracle {
    expected: Output,
    pub attempted: u64,
    pub failed: u64,
}

impl Oracle {
    pub fn new(expected: Output) -> Oracle {
        Oracle { expected, attempted: 0, failed: 0 }
    }

    /// Run one job and check it. Returns its timing, or `None` if it
    /// failed or disagreed with the serial plane.
    pub fn job(
        &mut self,
        spec: &Spec,
        plane: &str,
        api: &mut dyn mrs_runtime::JobApi,
        input: Vec<Record>,
        timers: &mut ApiTimers,
    ) -> Option<Timing> {
        self.attempted += 1;
        let start = Instant::now();
        match spec.run(&mut Job::new(api), input, timers) {
            Ok(run) if run.output == self.expected => Some(Timing::of(start, &run.fetches)),
            Ok(_) => {
                eprintln!("perfbench: {plane} output differs from the serial plane");
                self.failed += 1;
                None
            }
            Err(e) => {
                eprintln!("perfbench: {plane} job failed: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

/// How long one job took.
pub struct Timing {
    /// From the first `Job` call to the return of the last `fetch_all`.
    pub wall_s: f64,
    /// Milliseconds between successive convergence fetches or, for a
    /// single-round job, the job's own wall time.
    pub rounds_ms: Vec<f64>,
}

impl Timing {
    fn of(start: Instant, fetches: &[Instant]) -> Timing {
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        let end = *fetches.last().expect("a job fetches at least once");
        let rounds_ms = match fetches {
            [only] => vec![ms(start, *only)],
            _ => fetches.windows(2).map(|w| ms(w[0], w[1])).collect(),
        };
        Timing { wall_s: (end - start).as_secs_f64(), rounds_ms }
    }
}

/// Run the serial plane's reference job: its output is the oracle.
pub fn serial_oracle(spec: &Spec, input: &[Record]) -> Result<Output> {
    let mut rt = mrs_runtime::SerialRuntime::new(spec.program());
    let run = spec.run(&mut Job::new(&mut rt), input.to_vec(), &mut ApiTimers::default())?;
    spec.check_pso_copy(&run.output)?;
    Ok(run.output)
}

fn end_to_end(spec: &Spec, seconds: f64) -> Result<Outcome> {
    let dataplane0 = mrs_runtime::dataplane::snapshot();
    let mut gate_failures = Vec::new();

    // Set-up: inputs from the seed, every plane started, every slave
    // signed in. These planes run the jobs; each round below times one
    // more set-up and shuts it down, so set-up samples span the run too.
    let setup = || -> Result<(Vec<Record>, Planes, f64)> {
        let t0 = Instant::now();
        let input = spec.inputs();
        let planes = Planes::start(spec)?;
        Ok((input, planes, t0.elapsed().as_secs_f64()))
    };
    let (input, mut planes, first_setup_s) = setup()?;
    let mut setup_s = vec![first_setup_s];

    let mut oracle = Oracle::new(serial_oracle(spec, &input)?);
    // Warm-up: one job per plane, checked but excluded from every metric.
    for (i, name) in PLANES.iter().enumerate() {
        oracle.job(spec, name, planes.api(i), input.clone(), &mut ApiTimers::default());
        planes.after_job(i)?;
    }

    // Closed loop: one thread runs one job at a time. Each round gives
    // every plane its slice, starting one plane later than the round
    // before, then times a set-up; the loop stops when another round
    // would overrun `seconds`.
    let mut wall_s: Vec<Vec<f64>> = vec![Vec::new(); PLANES.len()];
    let mut rounds_ms: Vec<Vec<f64>> = vec![Vec::new(); PLANES.len()];
    let t0 = Instant::now();
    let mut round = 0;
    while oracle.failed == 0 {
        let elapsed = t0.elapsed().as_secs_f64();
        if round >= MIN_ROUNDS && elapsed * (round + 1) as f64 / round as f64 > seconds {
            break;
        }
        for k in 0..PLANES.len() {
            let i = (round + k) % PLANES.len();
            let slice = Instant::now();
            loop {
                let timers = &mut ApiTimers::default();
                let timing = oracle.job(spec, PLANES[i], planes.api(i), input.clone(), timers);
                planes.after_job(i)?;
                let Some(timing) = timing else { break };
                wall_s[i].push(timing.wall_s);
                rounds_ms[i].extend(timing.rounds_ms);
                if slice.elapsed().as_secs_f64() >= PLANE_SLICE_S {
                    break;
                }
            }
        }
        let (_, spare, s) = setup()?;
        setup_s.push(s);
        spare.shutdown()?;
        round += 1;
    }
    let measured_s = t0.elapsed().as_secs_f64();
    if let Err(e) = planes.shutdown() {
        gate_failures.push(format!("process plane: {e}"));
    }

    let dataplane = mrs_runtime::dataplane::snapshot().since(dataplane0);
    if dataplane.checksum_retries != 0 {
        gate_failures.push(format!("{} checksum retries", dataplane.checksum_retries));
    }

    let mut report = Report::default();
    report.add("setup_s", trimmed_mean(&setup_s, TRIM), "s");
    for (name, samples) in PLANES.iter().zip(&wall_s) {
        report.add(format!("wall_s.{name}"), trimmed_mean(samples, TRIM), "s");
    }
    let (cluster, process) = (&rounds_ms[CLUSTER], &rounds_ms[PROCESS]);
    report.add("iter_ms.p50.cluster", median(cluster), "ms");
    report.add("iter_ms.p50.process", median(process), "ms");
    report.add("peak_rss_mb", stats::peak_rss_mb(), "MB");
    // The tail spreads too far between runs on a small shared host to
    // carry a bound; the traced run reports it as a per-layer metric.
    report.note("iter_ms.p95.cluster", quantile(cluster, 0.95), "ms");

    let failed_frac = oracle.failed as f64 / oracle.attempted as f64;
    println!(
        "end to end: {round} rounds in {measured_s:.1} s, {} jobs ({} failed, failed_frac {failed_frac} ratio), \
         {} round samples per distributed plane, {} setups, checksum_retries {}",
        oracle.attempted,
        oracle.failed,
        cluster.len(),
        setup_s.len(),
        dataplane.checksum_retries
    );
    for (name, samples) in PLANES.iter().zip(&wall_s) {
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(0.0, f64::max);
        println!(
            "  {name}: {} jobs, wall {lo:.4}..{hi:.4} s, median {:.4} s",
            samples.len(),
            median(samples)
        );
    }
    report.print();
    Ok(Outcome { report, attempted: oracle.attempted, failed: oracle.failed, gate_failures })
}
