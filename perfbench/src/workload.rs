//! The three workloads: inputs made from the seed, the program, and the
//! sequence of public job-API calls one job makes.
//!
//! Every job is timed from its first `Job` call to the return of its last
//! `fetch_all`. The benchmark discards the job's datasets after the final
//! fetch (outside the timed window), so back-to-back jobs on one runtime
//! keep a bounded footprint.

use corpus::{Corpus, CorpusConfig};
use mrs::apps::pi::{Kernel, PiEstimator};
use mrs::apps::wordcount::{documents_to_records, WordCount};
use mrs::mrs_rng::SplitMix64;
use mrs_core::kv::encode_record;
use mrs_core::{Datum, Error, FuncId, Program, Record, Result, Simple};
use mrs_pso::mapreduce::{PsoProgram, FUNC_ISLAND};
use mrs_pso::PsoConfig;
use mrs_runtime::{Job, SerialRuntime};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// WordCount corpus size in words. Many small documents keep the total
/// within about 1% of this across seeds (each document varies ±50%).
/// Jobs this size (0.1–0.2 s) give each plane dozens of samples per run,
/// which keeps their averages steady on a small shared host.
const WORDCOUNT_WORDS: u64 = 500_000;
const WORDCOUNT_DOCS: u64 = 1024;
/// π samples, cut into one slab per map task.
const PI_SAMPLES: u64 = 8_000_000;
/// PSO: Rosenbrock-250, 20 particles in islands of 5, 50 outer rounds.
/// Short jobs let every plane take its turn many times per run.
const PSO_PARTICLES: u64 = 20;
pub const PSO_ITERS: u64 = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WordCount,
    Pi,
    Pso,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "wordcount" => Some(Workload::WordCount),
            "pi" => Some(Workload::Pi),
            "pso" => Some(Workload::Pso),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WordCount => "wordcount",
            Workload::Pi => "pi",
            Workload::Pso => "pso",
        }
    }
}

/// How a workload's job is cut into tasks.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Source splits (map tasks per round).
    pub splits: usize,
    /// Map output partitions (reduce tasks per round).
    pub parts: usize,
    pub func: FuncId,
    pub combine: bool,
    /// Map+reduce rounds per job.
    pub rounds: u64,
}

/// What a job computed, in the form compared byte for byte against the
/// serial plane: WordCount's sorted records, π's exact `(inside, total)`,
/// and PSO's whole best-value history (as bit patterns).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Output {
    Records(Vec<Record>),
    Pi { inside: u64, total: u64 },
    History(Vec<u64>),
}

/// One finished job.
pub struct JobRun {
    pub output: Output,
    /// When each `fetch_all` returned (one per round).
    pub fetches: Vec<Instant>,
}

/// Time spent inside the job API's calls, by kind. Only accumulated when
/// `on`, so the untraced runs make no extra clock reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct ApiTimers {
    pub on: bool,
    pub local_data: Duration,
    /// `map_data`, `reduce_data`, `keep` and `discard` calls.
    pub submit: Duration,
    /// Blocked in `fetch_all`.
    pub fetch_wait: Duration,
}

fn timed<T>(on: bool, acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed();
    r
}

/// A workload with its seed: everything needed to rebuild the same
/// program and inputs in this process or in a slave process.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
}

impl Spec {
    pub fn program(&self) -> Arc<dyn Program> {
        match self.workload {
            Workload::WordCount => Arc::new(Simple(WordCount)),
            Workload::Pi => Arc::new(Simple(PiEstimator { kernel: Kernel::Native })),
            Workload::Pso => Arc::new(self.pso()),
        }
    }

    fn pso(&self) -> PsoProgram {
        PsoProgram::new(PsoConfig::rosenbrock_250(PSO_PARTICLES, self.seed), 1)
    }

    pub fn shape(&self) -> Shape {
        match self.workload {
            Workload::WordCount => {
                Shape { splits: 16, parts: 8, func: 0, combine: true, rounds: 1 }
            }
            Workload::Pi => Shape { splits: 16, parts: 1, func: 0, combine: false, rounds: 1 },
            Workload::Pso => {
                let islands = self.pso().n_islands() as usize;
                Shape {
                    splits: islands,
                    parts: islands,
                    func: FUNC_ISLAND,
                    combine: false,
                    rounds: PSO_ITERS,
                }
            }
        }
    }

    /// The job's source records, made from the seed alone.
    pub fn inputs(&self) -> Vec<Record> {
        match self.workload {
            Workload::WordCount => {
                let corpus = Corpus::new(CorpusConfig {
                    n_files: WORDCOUNT_DOCS,
                    seed: self.seed,
                    mean_tokens: WORDCOUNT_WORDS / WORDCOUNT_DOCS,
                    ..CorpusConfig::default()
                });
                let docs: Vec<String> = (0..WORDCOUNT_DOCS).map(|i| corpus.document(i)).collect();
                documents_to_records(docs.iter().map(String::as_str))
            }
            Workload::Pi => {
                // The seed moves the Halton window. The offset stays small
                // next to the sample count, so every seed costs the same.
                let offset = SplitMix64::new(self.seed).next_u64() % 1_000_000;
                let slabs = self.shape().splits as u64;
                let n = PI_SAMPLES / slabs;
                (0..slabs).map(|t| encode_record(&t, &(offset + t * n, n))).collect()
            }
            Workload::Pso => self.pso().initial_islands(),
        }
    }

    /// Run one job through the public job API.
    pub fn run(&self, job: &mut Job, input: Vec<Record>, t: &mut ApiTimers) -> Result<JobRun> {
        match self.workload {
            Workload::WordCount | Workload::Pi => self.run_single(job, input, t),
            Workload::Pso => self.run_pso(job, input, t),
        }
    }

    fn run_single(&self, job: &mut Job, input: Vec<Record>, t: &mut ApiTimers) -> Result<JobRun> {
        let s = self.shape();
        let on = t.on;
        let src = timed(on, &mut t.local_data, || job.local_data(input, s.splits))?;
        let mapped = timed(on, &mut t.submit, || job.map_data(src, s.func, s.parts, s.combine))?;
        let reduced = timed(on, &mut t.submit, || job.reduce_data(mapped, s.func))?;
        let mut records = timed(on, &mut t.fetch_wait, || job.fetch_all(reduced))?;
        let fetched = Instant::now();
        for d in [src, mapped, reduced] {
            job.discard(d);
        }
        let output = match self.workload {
            Workload::Pi => {
                let (mut inside, mut total) = (0, 0);
                for (_, v) in &records {
                    let (i, n) = <(u64, u64)>::from_bytes(v)?;
                    inside += i;
                    total += n;
                }
                Output::Pi { inside, total }
            }
            _ => {
                records.sort();
                Output::Records(records)
            }
        };
        Ok(JobRun { output, fetches: vec![fetched] })
    }

    /// The benchmark's own copy of `PsoProgram::drive_islands`: the same
    /// public-API sequence (iteration t+1 is queued before iteration t is
    /// fetched), with a timestamp at every convergence fetch. It also
    /// discards the last round's data, so repeated jobs on one runtime
    /// leave nothing behind. [`Spec::check_pso_copy`] proves it computes
    /// what `drive_islands` computes.
    fn run_pso(&self, job: &mut Job, input: Vec<Record>, t: &mut ApiTimers) -> Result<JobRun> {
        let s = self.shape();
        let on = t.on;
        let mut history = vec![PsoProgram::best_of_islands(&input)?.to_bits()];
        let mut fetches = Vec::with_capacity(s.rounds as usize);
        let src = timed(on, &mut t.local_data, || job.local_data(input, s.splits))?;
        let mut ds = src;
        let mut pending = None;
        let mut fetched_reduce = None;
        for _ in 0..s.rounds {
            let (m, r) = timed(on, &mut t.submit, || -> Result<_> {
                let m = job.map_data(ds, s.func, s.parts, false)?;
                let r = job.reduce_data(m, s.func)?;
                job.keep(r);
                Ok((m, r))
            })?;
            if let Some((r_prev, m_prev)) = pending.take() {
                let records = timed(on, &mut t.fetch_wait, || job.fetch_all(r_prev))?;
                fetches.push(Instant::now());
                history.push(PsoProgram::best_of_islands(&records)?.to_bits());
                timed(on, &mut t.submit, || {
                    if let Some(old) = fetched_reduce.replace(r_prev) {
                        job.discard(old);
                    }
                    job.discard(m_prev);
                });
            }
            ds = r;
            pending = Some((r, m));
        }
        if let Some((r_last, m_last)) = pending {
            let records = timed(on, &mut t.fetch_wait, || job.fetch_all(r_last))?;
            fetches.push(Instant::now());
            history.push(PsoProgram::best_of_islands(&records)?.to_bits());
            for d in fetched_reduce.into_iter().chain([src, m_last, r_last]) {
                job.discard(d);
            }
        }
        Ok(JobRun { output: Output::History(history), fetches })
    }

    /// For PSO, check that the benchmark's loop computes exactly the
    /// history `PsoProgram::drive_islands` computes on the serial plane.
    pub fn check_pso_copy(&self, serial_output: &Output) -> Result<()> {
        if self.workload != Workload::Pso {
            return Ok(());
        }
        let program = self.pso();
        let mut rt = SerialRuntime::new(self.program());
        let history = program.drive_islands(&mut Job::new(&mut rt), PSO_ITERS)?;
        let bits: Vec<u64> = history.iter().map(|h| h.best_val.to_bits()).collect();
        if *serial_output != Output::History(bits) {
            return Err(Error::Invalid("benchmark PSO loop disagrees with drive_islands".into()));
        }
        Ok(())
    }
}
