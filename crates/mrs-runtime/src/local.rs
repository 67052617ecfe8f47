//! Mock-parallel and thread-pool execution in one scheduler.
//!
//! The scheduler decomposes operations into the *same tasks* as the
//! distributed implementation — one map task per input split, one reduce
//! task per partition — and tracks fine-grained readiness: a map task over
//! a reduce output only waits for *its own* input split, so consecutive
//! iterations pipeline exactly as §IV-A describes, while reduce tasks wait
//! for every map task of their operation (the barrier of Fig. 1).
//!
//! * `LocalRuntime::mock_parallel(program, store)` — one worker, every task
//!   output additionally spilled to bucket files on `store` for debugging:
//!   the paper's mock parallel implementation.
//! * `LocalRuntime::pool(program, n)` — N worker threads, in-memory.
//!
//! Speculative execution (`--mrs-speculate`) is deliberately a no-op on
//! both of these planes: in a single process there is no "slow machine"
//! for a backup attempt to dodge, every task here runs exactly once, and
//! output stays byte-identical to the distributed planes with speculation
//! on or off (the implementations-agree oracle enforces it).

use crate::data::{split_evenly, DataId, Dataset};
use crate::dataplane::DataPlaneStats;
use crate::job::JobApi;
use crate::metrics::JobMetrics;
use mrs_codec::CompressMode;
use mrs_core::task::{run_map_task, run_reduce_map_task_merge, run_reduce_task_merge};
use mrs_core::{Bucket, Error, FuncId, Program, Record, Result};
use mrs_fs::format::write_bucket;
use mrs_fs::Store;
use mrs_trace::{JobTrace, Name, Op, Recorder, Tag, TraceHandle};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TaskRef {
    data: DataId,
    index: usize,
}

#[derive(Debug)]
enum DsState {
    /// Fully materialized source data.
    Source(Dataset),
    /// A map operation's output: per task, `parts` buckets.
    MapOut {
        input: DataId,
        func: FuncId,
        parts: usize,
        combine: bool,
        tasks: Vec<Option<Vec<Bucket>>>,
        remaining: usize,
    },
    /// A reduce operation's output: one record list per partition.
    ReduceOut {
        input: DataId,
        func: FuncId,
        tasks: Vec<Option<Vec<Record>>>,
        remaining: usize,
    },
    /// A fused reduce+map operation's output: map-like (per task, `parts`
    /// buckets), one task per partition of the input.
    ReduceMapOut {
        input: DataId,
        reduce_func: FuncId,
        map_func: FuncId,
        parts: usize,
        combine: bool,
        tasks: Vec<Option<Vec<Bucket>>>,
        remaining: usize,
    },
    Discarded,
}

impl DsState {
    fn complete(&self) -> bool {
        match self {
            DsState::Source(_) => true,
            DsState::MapOut { remaining, .. }
            | DsState::ReduceOut { remaining, .. }
            | DsState::ReduceMapOut { remaining, .. } => *remaining == 0,
            DsState::Discarded => true,
        }
    }
}

struct State {
    datasets: Vec<DsState>,
    /// Remaining registered consumers per dataset (index-aligned with
    /// `datasets`): incremented when an op is queued over the dataset,
    /// decremented when that op completes. Lifetime GC frees a dataset
    /// when its count returns to zero.
    consumers: Vec<u32>,
    /// Datasets pinned by `keep` — exempt from lifetime GC until an
    /// explicit discard.
    pins: HashSet<u32>,
    /// When set, lifetime GC is disabled (`--mrs-keep-data`).
    keep_data: bool,
    /// Tasks not yet ready to run.
    pending: Vec<TaskRef>,
    /// Tasks ready to run.
    queue: VecDeque<TaskRef>,
    error: Option<String>,
    shutdown: bool,
    metrics: JobMetrics,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    program: Arc<dyn Program>,
    spill: Option<Arc<dyn Store>>,
    spill_compress: CompressMode,
    trace: Recorder,
}

/// The local (mock-parallel / thread-pool) runtime.
pub struct LocalRuntime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl LocalRuntime {
    /// The paper's mock parallel implementation: distributed task split,
    /// one processor, intermediate data spilled to `store`.
    pub fn mock_parallel(program: Arc<dyn Program>, store: Arc<dyn Store>) -> Self {
        Self::mock_parallel_with(program, store, CompressMode::default())
    }

    /// Mock parallel with an explicit spill-compression policy — the same
    /// `--mrs-compress` knob the distributed planes honour.
    pub fn mock_parallel_with(
        program: Arc<dyn Program>,
        store: Arc<dyn Store>,
        compress: CompressMode,
    ) -> Self {
        Self::build(program, 1, Some(store), compress)
    }

    /// Thread-pool parallelism with `workers` threads, in-memory data.
    pub fn pool(program: Arc<dyn Program>, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        Self::build(program, workers, None, CompressMode::default())
    }

    fn build(
        program: Arc<dyn Program>,
        workers: usize,
        spill: Option<Arc<dyn Store>>,
        spill_compress: CompressMode,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                datasets: Vec::new(),
                consumers: Vec::new(),
                pins: HashSet::new(),
                keep_data: false,
                pending: Vec::new(),
                queue: VecDeque::new(),
                error: None,
                shutdown: false,
                metrics: JobMetrics::default(),
            }),
            cv: Condvar::new(),
            program,
            spill,
            spill_compress,
            trace: Recorder::new(),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mrs-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i as u32))
                    .expect("spawn worker")
            })
            .collect();
        LocalRuntime { shared, workers }
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> JobMetrics {
        self.shared.state.lock().metrics.clone()
    }

    /// Drain the recorded timeline: one lane per pool worker, the same
    /// span vocabulary as the distributed slaves. A second call returns
    /// only events recorded since the first.
    pub fn take_trace(&self) -> JobTrace {
        let (events, dropped) = self.shared.trace.drain();
        JobTrace::from_local(events, dropped)
    }

    /// Disable (or re-enable) dataset lifetime GC. With GC on (the
    /// default) a dataset is reclaimed as soon as its last queued consumer
    /// finishes; `--mrs-keep-data` routes here.
    pub fn set_keep_data(&mut self, keep: bool) {
        self.shared.state.lock().keep_data = keep;
    }
}

impl Drop for LocalRuntime {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Is task `t` ready, given current dataset states?
fn ready(st: &State, t: TaskRef) -> bool {
    match &st.datasets[t.data.0 as usize] {
        DsState::MapOut { input, .. } => match &st.datasets[input.0 as usize] {
            DsState::Source(_) => true,
            DsState::ReduceOut { tasks, .. } => tasks[t.index].is_some(),
            _ => false,
        },
        // Reduce-like tasks (plain or fused) gather one partition from
        // *every* task of the input, so they wait for the whole op.
        DsState::ReduceOut { input, .. } | DsState::ReduceMapOut { input, .. } => {
            st.datasets[input.0 as usize].complete()
        }
        _ => false,
    }
}

/// Move newly-ready pending tasks into the run queue.
fn promote(st: &mut State) -> usize {
    let mut moved = 0;
    let mut i = 0;
    while i < st.pending.len() {
        if ready(st, st.pending[i]) {
            let t = st.pending.swap_remove(i);
            st.queue.push_back(t);
            moved += 1;
        } else {
            i += 1;
        }
    }
    moved
}

/// Clone the input records for a task (under the lock; execution happens
/// outside it). In spill mode (`count_handover`) each map-output bucket a
/// reduce task receives is an in-memory handover of data that the
/// distributed runtime would fetch over a socket — counted as a
/// short-circuit fetch so mock-parallel metrics mirror colocated fetches,
/// and as an eager fragment: on one core every fragment is available the
/// instant its producer finishes, so mock-parallel is the perfect-overlap
/// oracle the eager shuffle plane is measured against.
fn task_input(st: &mut State, t: TaskRef, count_handover: bool) -> Result<TaskWork> {
    match &st.datasets[t.data.0 as usize] {
        DsState::MapOut { input, func, parts, combine, .. } => {
            let records = match &st.datasets[input.0 as usize] {
                DsState::Source(ds) => ds[t.index].clone(),
                DsState::ReduceOut { tasks, .. } => tasks[t.index]
                    .clone()
                    .ok_or_else(|| Error::Invalid("map input split not ready".into()))?,
                _ => return Err(Error::Invalid("bad map input".into())),
            };
            Ok(TaskWork::Map { records, func: *func, parts: *parts, combine: *combine })
        }
        DsState::ReduceOut { input, func, .. } => {
            let func = *func;
            let (runs, handovers) = gather_partition(st, *input, t.index)?;
            if count_handover {
                st.metrics.record_dataplane(DataPlaneStats {
                    shortcircuit_fetches: handovers,
                    eager_fragments: handovers,
                    ..DataPlaneStats::default()
                });
            }
            Ok(TaskWork::Reduce { runs, func })
        }
        DsState::ReduceMapOut { input, reduce_func, map_func, parts, combine, .. } => {
            let (reduce_func, map_func, parts, combine) =
                (*reduce_func, *map_func, *parts, *combine);
            let (runs, handovers) = gather_partition(st, *input, t.index)?;
            if count_handover {
                st.metrics.record_dataplane(DataPlaneStats {
                    shortcircuit_fetches: handovers,
                    eager_fragments: handovers,
                    ..DataPlaneStats::default()
                });
            }
            Ok(TaskWork::ReduceMap { runs, reduce_func, map_func, parts, combine })
        }
        _ => Err(Error::Invalid("task on non-op dataset".into())),
    }
}

/// Gather partition `index` of every task of a map-like dataset as
/// separate sorted runs for the k-way merge, returning them and the number
/// of in-memory handovers.
fn gather_partition(st: &mut State, input: DataId, index: usize) -> Result<(Vec<Bucket>, u64)> {
    let t0 = std::time::Instant::now();
    let (DsState::MapOut { tasks, .. } | DsState::ReduceMapOut { tasks, .. }) =
        &st.datasets[input.0 as usize]
    else {
        return Err(Error::Invalid("reduce input is not a map-like output".into()));
    };
    let handovers = tasks.len() as u64;
    let mut runs = Vec::with_capacity(tasks.len());
    for task in tasks {
        let buckets = task.as_ref().ok_or_else(|| Error::Invalid("map task not done".into()))?;
        runs.push(buckets[index].clone());
    }
    // In-process runs come straight off the map kernels, which guarantee
    // sorted output — every run counts as presorted.
    let records = runs.iter().map(Bucket::len).sum();
    st.metrics.record_merge_input(runs.len(), runs.len(), records, t0.elapsed());
    Ok((runs, handovers))
}

enum TaskWork {
    Map {
        records: Vec<Record>,
        func: FuncId,
        parts: usize,
        combine: bool,
    },
    Reduce {
        runs: Vec<Bucket>,
        func: FuncId,
    },
    ReduceMap {
        runs: Vec<Bucket>,
        reduce_func: FuncId,
        map_func: FuncId,
        parts: usize,
        combine: bool,
    },
}

fn op_of(work: &TaskWork) -> Op {
    match work {
        TaskWork::Map { .. } => Op::Map,
        TaskWork::Reduce { .. } => Op::Reduce,
        TaskWork::ReduceMap { .. } => Op::ReduceMap,
    }
}

fn worker_loop(shared: &Shared, lane: u32) {
    let th = shared.trace.handle(lane);
    loop {
        let (task, work, picked_us) = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(t) = st.queue.pop_front() {
                    let picked_us = th.now_us();
                    match task_input(&mut st, t, shared.spill.is_some()) {
                        Ok(w) => break (t, w, picked_us),
                        Err(e) => {
                            st.error = Some(e.to_string());
                            shared.cv.notify_all();
                            return;
                        }
                    }
                }
                shared.cv.wait(&mut st);
            }
        };

        // The attempt reaches back to when the task left the queue, so
        // the gathered-input window (the in-memory shuffle handover,
        // assembled under the scheduler lock) is on the timeline too.
        let tag = Tag::task(op_of(&work), task.data.0, task.index, 1);
        th.begin_at(picked_us, Name::Attempt, tag);
        if !matches!(work, TaskWork::Map { .. }) {
            th.begin_at(picked_us, Name::Merge, tag);
            th.end(Name::Merge, tag);
        }
        th.instant(Name::Dispatch, tag);

        let outcome = execute(shared, task, work, &th, tag);
        th.end(Name::Attempt, tag);

        let mut st = shared.state.lock();
        match outcome {
            Ok(()) => {
                th.instant(Name::Report, tag);
                st.metrics.record_task();
                promote(&mut st);
            }
            Err(e) => {
                st.error = Some(e.to_string());
            }
        }
        shared.cv.notify_all();
    }
}

fn execute(shared: &Shared, t: TaskRef, work: TaskWork, th: &TraceHandle, tag: Tag) -> Result<()> {
    match work {
        TaskWork::Map { records, func, parts, combine } => {
            let t0 = std::time::Instant::now();
            th.begin(Name::Exec, tag);
            let buckets = run_map_task(shared.program.as_ref(), func, &records, parts, combine);
            th.end(Name::Exec, tag);
            let buckets = buckets?;
            let bytes: usize = buckets.iter().map(|b| b.byte_size()).sum();
            if let Some(store) = &shared.spill {
                th.begin(Name::Emit, tag);
                for (p, b) in buckets.iter().enumerate() {
                    let path = format!("ds{}/map{}/b{p}.mrsb", t.data.0, t.index);
                    store.put(
                        &path,
                        &mrs_codec::encode_vec(write_bucket(b), shared.spill_compress),
                    )?;
                }
                th.end(Name::Emit, tag);
            }
            let mut st = shared.state.lock();
            st.metrics.record_map(t0.elapsed(), bytes);
            let DsState::MapOut { tasks, remaining, .. } = &mut st.datasets[t.data.0 as usize]
            else {
                return Err(Error::Invalid("map task on non-map dataset".into()));
            };
            tasks[t.index] = Some(buckets);
            *remaining -= 1;
            if *remaining == 0 {
                st.metrics.record_dataset_live();
                op_completed(&mut st, t.data);
            }
            Ok(())
        }
        TaskWork::Reduce { runs, func } => {
            let t0 = std::time::Instant::now();
            th.begin(Name::Exec, tag);
            let out = run_reduce_task_merge(shared.program.as_ref(), func, &runs);
            th.end(Name::Exec, tag);
            let out = out?;
            if let Some(store) = &shared.spill {
                th.begin(Name::Emit, tag);
                let path = format!("ds{}/reduce{}.mrsb", t.data.0, t.index);
                store.put(
                    &path,
                    &mrs_codec::encode_vec(write_bucket(&out), shared.spill_compress),
                )?;
                th.end(Name::Emit, tag);
            }
            let mut st = shared.state.lock();
            st.metrics.record_reduce(t0.elapsed());
            let DsState::ReduceOut { tasks, remaining, .. } = &mut st.datasets[t.data.0 as usize]
            else {
                return Err(Error::Invalid("reduce task on non-reduce dataset".into()));
            };
            tasks[t.index] = Some(out.into_records());
            *remaining -= 1;
            if *remaining == 0 {
                st.metrics.record_dataset_live();
                op_completed(&mut st, t.data);
            }
            Ok(())
        }
        TaskWork::ReduceMap { runs, reduce_func, map_func, parts, combine } => {
            let t0 = std::time::Instant::now();
            th.begin(Name::Exec, tag);
            let out = run_reduce_map_task_merge(
                shared.program.as_ref(),
                reduce_func,
                map_func,
                &runs,
                parts,
                combine,
                None,
            );
            th.end(Name::Exec, tag);
            let out = out?;
            let bytes: usize = out.iter().map(Bucket::byte_size).sum();
            if let Some(store) = &shared.spill {
                th.begin(Name::Emit, tag);
                for (p, b) in out.iter().enumerate() {
                    let path = format!("ds{}/reducemap{}/b{p}.mrsb", t.data.0, t.index);
                    store.put(
                        &path,
                        &mrs_codec::encode_vec(write_bucket(b), shared.spill_compress),
                    )?;
                }
                th.end(Name::Emit, tag);
            }
            let mut st = shared.state.lock();
            st.metrics.record_reducemap_task(t0.elapsed(), bytes);
            let DsState::ReduceMapOut { tasks, remaining, .. } =
                &mut st.datasets[t.data.0 as usize]
            else {
                return Err(Error::Invalid("reducemap task on non-reducemap dataset".into()));
            };
            tasks[t.index] = Some(out);
            *remaining -= 1;
            if *remaining == 0 {
                st.metrics.record_dataset_live();
                op_completed(&mut st, t.data);
            }
            Ok(())
        }
    }
}

/// Called when an op's last task lands: release the refcount the op held
/// on its input and, if that was the input's last registered consumer,
/// reclaim the input's storage (unless GC is off or the driver pinned it).
fn op_completed(st: &mut State, data: DataId) {
    let input = match &st.datasets[data.0 as usize] {
        DsState::MapOut { input, .. }
        | DsState::ReduceOut { input, .. }
        | DsState::ReduceMapOut { input, .. } => *input,
        _ => return,
    };
    let c = &mut st.consumers[input.0 as usize];
    *c = c.saturating_sub(1);
    if *c == 0 && !st.keep_data && !st.pins.contains(&input.0) {
        let slot = &mut st.datasets[input.0 as usize];
        // Sources are exempt (matching the master): job input stays
        // available unless explicitly discarded.
        if slot.complete() && !matches!(slot, DsState::Discarded | DsState::Source(_)) {
            *slot = DsState::Discarded;
            st.metrics.record_dataset_freed(true);
        }
    }
}

impl LocalRuntime {
    fn submit(&mut self, ds: DsState, ntasks: usize) -> DataId {
        let input = match &ds {
            DsState::MapOut { input, .. }
            | DsState::ReduceOut { input, .. }
            | DsState::ReduceMapOut { input, .. } => Some(*input),
            _ => None,
        };
        let mut st = self.shared.state.lock();
        st.datasets.push(ds);
        st.consumers.push(0);
        match input {
            Some(input) => st.consumers[input.0 as usize] += 1,
            // Sources are materialized at submission; op outputs count as
            // live when their last task lands (see `execute`), so
            // `peak_live_datasets` tracks held storage, not queue depth.
            None => st.metrics.record_dataset_live(),
        }
        let id = DataId(st.datasets.len() as u32 - 1);
        for index in 0..ntasks {
            st.pending.push(TaskRef { data: id, index });
        }
        promote(&mut st);
        drop(st);
        self.shared.cv.notify_all();
        id
    }

    fn check_error(st: &State) -> Result<()> {
        match &st.error {
            Some(e) => Err(Error::TaskFailed(e.clone())),
            None => Ok(()),
        }
    }
}

impl JobApi for LocalRuntime {
    fn local_data(&mut self, records: Vec<Record>, splits: usize) -> Result<DataId> {
        if splits == 0 {
            return Err(Error::Invalid("need at least one split".into()));
        }
        Ok(self.submit(DsState::Source(split_evenly(records, splits)), 0))
    }

    fn map_data(
        &mut self,
        input: DataId,
        func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId> {
        if parts == 0 {
            return Err(Error::Invalid("need at least one partition".into()));
        }
        let ntasks = {
            let st = self.shared.state.lock();
            match st.datasets.get(input.0 as usize) {
                Some(DsState::Source(ds)) => ds.len(),
                Some(DsState::ReduceOut { tasks, .. }) => tasks.len(),
                Some(DsState::MapOut { .. } | DsState::ReduceMapOut { .. }) => {
                    return Err(Error::Invalid("map cannot consume an unreduced map output".into()))
                }
                Some(DsState::Discarded) => {
                    return Err(Error::MissingData(format!("dataset {input:?} was discarded")))
                }
                None => return Err(Error::MissingData(format!("dataset {input:?}"))),
            }
        };
        Ok(self.submit(
            DsState::MapOut {
                input,
                func,
                parts,
                combine,
                tasks: (0..ntasks).map(|_| None).collect(),
                remaining: ntasks,
            },
            ntasks,
        ))
    }

    fn reduce_data(&mut self, input: DataId, func: FuncId) -> Result<DataId> {
        let parts = {
            let st = self.shared.state.lock();
            match st.datasets.get(input.0 as usize) {
                Some(DsState::MapOut { parts, .. } | DsState::ReduceMapOut { parts, .. }) => *parts,
                Some(_) => return Err(Error::Invalid("reduce must consume a map output".into())),
                None => return Err(Error::MissingData(format!("dataset {input:?}"))),
            }
        };
        Ok(self.submit(
            DsState::ReduceOut {
                input,
                func,
                tasks: (0..parts).map(|_| None).collect(),
                remaining: parts,
            },
            parts,
        ))
    }

    fn reduce_map_data(
        &mut self,
        input: DataId,
        reduce_func: FuncId,
        map_func: FuncId,
        parts: usize,
        combine: bool,
    ) -> Result<DataId> {
        if parts == 0 {
            return Err(Error::Invalid("need at least one partition".into()));
        }
        let ntasks = {
            let mut st = self.shared.state.lock();
            let n = match st.datasets.get(input.0 as usize) {
                Some(DsState::MapOut { parts, .. } | DsState::ReduceMapOut { parts, .. }) => *parts,
                Some(_) => {
                    return Err(Error::Invalid("reduce_map must consume a map-like output".into()))
                }
                None => return Err(Error::MissingData(format!("dataset {input:?}"))),
            };
            st.metrics.record_fused_op();
            n
        };
        Ok(self.submit(
            DsState::ReduceMapOut {
                input,
                reduce_func,
                map_func,
                parts,
                combine,
                tasks: (0..ntasks).map(|_| None).collect(),
                remaining: ntasks,
            },
            ntasks,
        ))
    }

    fn keep(&mut self, data: DataId) {
        self.shared.state.lock().pins.insert(data.0);
    }

    fn wait(&mut self, data: DataId) -> Result<()> {
        let mut st = self.shared.state.lock();
        loop {
            Self::check_error(&st)?;
            match st.datasets.get(data.0 as usize) {
                None => return Err(Error::MissingData(format!("dataset {data:?}"))),
                Some(ds) if ds.complete() => return Ok(()),
                Some(_) => {}
            }
            self.shared.cv.wait(&mut st);
        }
    }

    fn fetch_all(&mut self, data: DataId) -> Result<Vec<Record>> {
        self.wait(data)?;
        let st = self.shared.state.lock();
        match &st.datasets[data.0 as usize] {
            DsState::Source(ds) => Ok(ds.iter().flatten().cloned().collect()),
            DsState::MapOut { tasks, .. } | DsState::ReduceMapOut { tasks, .. } => Ok(tasks
                .iter()
                .flatten()
                .flat_map(|buckets| buckets.iter().flat_map(|b| b.to_records()))
                .collect()),
            DsState::ReduceOut { tasks, .. } => {
                Ok(tasks.iter().flatten().flatten().cloned().collect())
            }
            DsState::Discarded => {
                Err(Error::MissingData(format!("dataset {data:?} was discarded")))
            }
        }
    }

    fn discard(&mut self, data: DataId) {
        let mut st = self.shared.state.lock();
        // Refuse while any incomplete consumer still needs this data —
        // discarding it would leave those tasks unready forever. Discard is
        // advisory per the JobApi contract, so ignoring is always safe.
        let has_live_consumer = st.datasets.iter().any(|ds| match ds {
            DsState::MapOut { input, remaining, .. }
            | DsState::ReduceOut { input, remaining, .. }
            | DsState::ReduceMapOut { input, remaining, .. } => *input == data && *remaining > 0,
            _ => false,
        });
        if has_live_consumer {
            return;
        }
        st.pins.remove(&data.0);
        if let Some(slot) = st.datasets.get_mut(data.0 as usize) {
            if slot.complete() && !matches!(slot, DsState::Discarded) {
                *slot = DsState::Discarded;
                st.metrics.record_dataset_freed(false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use mrs_core::kv::encode_record;
    use mrs_core::{Datum, MapReduce, Simple};
    use mrs_fs::MemFs;

    struct WordCount;

    impl MapReduce for WordCount {
        type K1 = u64;
        type V1 = String;
        type K2 = String;
        type V2 = u64;

        fn map(&self, _k: u64, v: String, emit: &mut dyn FnMut(String, u64)) {
            for w in v.split_whitespace() {
                emit(w.to_owned(), 1);
            }
        }

        fn reduce(
            &self,
            _k: &String,
            vs: &mut dyn Iterator<Item = u64>,
            emit: &mut dyn FnMut(u64),
        ) {
            emit(vs.sum());
        }

        fn has_combiner(&self) -> bool {
            true
        }
    }

    fn input(lines: &[&str]) -> Vec<Record> {
        lines.iter().enumerate().map(|(i, l)| encode_record(&(i as u64), &l.to_string())).collect()
    }

    fn sorted_counts(records: Vec<Record>) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = records
            .iter()
            .map(|(k, v)| (String::from_bytes(k).unwrap(), u64::from_bytes(v).unwrap()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn pool_wordcount_matches_expected() {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(WordCount)), 4);
        let mut job = Job::new(&mut rt);
        let out = job.map_reduce(input(&["a b a", "c a", "b b c", "a"]), 3, 4, true).unwrap();
        assert_eq!(sorted_counts(out), vec![("a".into(), 4), ("b".into(), 3), ("c".into(), 2)]);
    }

    #[test]
    fn mock_parallel_spills_bucket_files() {
        let store = Arc::new(MemFs::new());
        let mut rt = LocalRuntime::mock_parallel(Arc::new(Simple(WordCount)), store.clone());
        let mut job = Job::new(&mut rt);
        let out = job.map_reduce(input(&["x y", "y z"]), 2, 2, false).unwrap();
        assert_eq!(sorted_counts(out).len(), 3);
        // Map spill: 2 tasks × 2 buckets; reduce spill: 2 partitions.
        let files = store.list("").unwrap();
        let maps = files.iter().filter(|f| f.contains("/map")).count();
        let reduces = files.iter().filter(|f| f.contains("/reduce")).count();
        assert_eq!(maps, 4, "{files:?}");
        assert_eq!(reduces, 2, "{files:?}");
    }

    #[test]
    fn mock_parallel_counts_handovers_and_frames_spills() {
        let store = Arc::new(MemFs::new());
        let mut rt = LocalRuntime::mock_parallel_with(
            Arc::new(Simple(WordCount)),
            store.clone(),
            CompressMode::On,
        );
        let mut job = Job::new(&mut rt);
        let out = job.map_reduce(input(&["x y", "y z", "x x"]), 3, 2, false).unwrap();
        assert_eq!(sorted_counts(out).len(), 3);
        // Every reduce partition took all 3 map outputs by in-memory
        // handover: 2 partitions × 3 map tasks. Each handover is also a
        // perfect-overlap eager fragment (the mock-parallel oracle arm).
        assert_eq!(rt.metrics().shortcircuit_fetches(), 6);
        assert_eq!(rt.metrics().eager_fragments(), 6);
        // Spilled buckets carry the MRSF1 frame and decode back to MRSB1.
        let files = store.list("").unwrap();
        let spilled = store.get(files.iter().find(|f| f.contains("/map")).unwrap()).unwrap();
        assert!(mrs_codec::is_framed(&spilled));
        let raw = mrs_codec::decode_vec(spilled).unwrap();
        assert!(raw.starts_with(b"MRSB1"));
    }

    #[test]
    fn pool_matches_mock_parallel_output() {
        let data = input(&["the quick brown fox", "jumps over the lazy dog", "the end"]);
        let run = |mut rt: LocalRuntime| {
            let mut job = Job::new(&mut rt);
            sorted_counts(job.map_reduce(data.clone(), 3, 5, true).unwrap())
        };
        let pool = run(LocalRuntime::pool(Arc::new(Simple(WordCount)), 6));
        let mock =
            run(LocalRuntime::mock_parallel(Arc::new(Simple(WordCount)), Arc::new(MemFs::new())));
        assert_eq!(pool, mock);
    }

    #[test]
    fn pipelined_iterations_complete_without_waits() {
        // Queue two chained map+reduce rounds before waiting on anything:
        // identity-ish second round re-counts counts of words.
        struct CountValues;
        impl MapReduce for CountValues {
            type K1 = String;
            type V1 = u64;
            type K2 = String;
            type V2 = u64;
            fn map(&self, k: String, v: u64, emit: &mut dyn FnMut(String, u64)) {
                emit(k, v);
            }
            fn reduce(
                &self,
                _k: &String,
                vs: &mut dyn Iterator<Item = u64>,
                emit: &mut dyn FnMut(u64),
            ) {
                emit(vs.sum());
            }
        }
        let mut rt = LocalRuntime::pool(Arc::new(Simple(CountValues)), 3);
        let mut job = Job::new(&mut rt);
        let recs: Vec<Record> =
            (0..20u64).map(|i| encode_record(&format!("k{}", i % 4), &1u64)).collect();
        let src = job.local_data(recs, 4).unwrap();
        let m1 = job.map_data(src, 0, 4, false).unwrap();
        let r1 = job.reduce_data(m1, 0).unwrap();
        // Second round queued immediately — no wait in between.
        let m2 = job.map_data(r1, 0, 2, false).unwrap();
        let r2 = job.reduce_data(m2, 0).unwrap();
        let out = sorted_counts(job.fetch_all(r2).unwrap());
        assert_eq!(
            out,
            vec![("k0".into(), 5), ("k1".into(), 5), ("k2".into(), 5), ("k3".into(), 5)]
        );
    }

    #[test]
    fn task_error_is_reported_on_wait() {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(WordCount)), 2);
        let mut job = Job::new(&mut rt);
        // Corrupt input records: map will fail to decode.
        let src = job.local_data(vec![(vec![1], vec![2])], 1).unwrap();
        let m = job.map_data(src, 0, 1, false).unwrap();
        let err = job.wait(m).unwrap_err();
        assert!(matches!(err, Error::TaskFailed(_)));
    }

    #[test]
    fn discard_only_frees_completed_data() {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(WordCount)), 2);
        let mut job = Job::new(&mut rt);
        let src = job.local_data(input(&["a b"]), 1).unwrap();
        let m = job.map_data(src, 0, 1, false).unwrap();
        let r = job.reduce_data(m, 0).unwrap();
        job.wait(r).unwrap();
        job.discard(m);
        // r is still fetchable; m is gone.
        assert!(job.fetch_all(r).is_ok());
        assert!(job.fetch_all(m).is_err());
    }

    #[test]
    fn discard_with_live_consumers_is_ignored_not_hung() {
        // Regression: discarding a dataset that queued-but-unrun consumers
        // still need must be refused, otherwise those tasks never become
        // ready and wait() hangs forever.
        // Self-feeding program: reduce output is valid map input.
        struct SelfFeed;
        impl MapReduce for SelfFeed {
            type K1 = String;
            type V1 = u64;
            type K2 = String;
            type V2 = u64;
            fn map(&self, k: String, v: u64, emit: &mut dyn FnMut(String, u64)) {
                emit(k, v + 1);
            }
            fn reduce(
                &self,
                _k: &String,
                vs: &mut dyn Iterator<Item = u64>,
                emit: &mut dyn FnMut(u64),
            ) {
                emit(vs.sum());
            }
        }
        let mut rt = LocalRuntime::pool(Arc::new(Simple(SelfFeed)), 1);
        let mut job = Job::new(&mut rt);
        let recs: Vec<Record> = (0..4u64).map(|i| encode_record(&format!("k{i}"), &i)).collect();
        let src = job.local_data(recs, 2).unwrap();
        let m1 = job.map_data(src, 0, 2, false).unwrap();
        let r1 = job.reduce_data(m1, 0).unwrap();
        // Queue a second round over r1, then immediately ask to discard r1.
        let m2 = job.map_data(r1, 0, 2, false).unwrap();
        job.discard(r1); // must be ignored: m2 still needs it
        let r2 = job.reduce_data(m2, 0).unwrap();
        let out = job.fetch_all(r2).unwrap();
        assert_eq!(out.len(), 4);
    }

    /// Self-feeding chain program for iterative tests: reduce output is
    /// valid map input, map scatters across keys so every partition mixes.
    struct Rotate;
    impl MapReduce for Rotate {
        type K1 = u64;
        type V1 = u64;
        type K2 = u64;
        type V2 = u64;
        fn map(&self, k: u64, v: u64, emit: &mut dyn FnMut(u64, u64)) {
            emit(k % 5, v + 1);
            emit((k * 3 + 1) % 5, v);
        }
        fn reduce(&self, _k: &u64, vs: &mut dyn Iterator<Item = u64>, emit: &mut dyn FnMut(u64)) {
            emit(vs.sum());
        }
        fn has_combiner(&self) -> bool {
            true
        }
    }

    fn rotate_input() -> Vec<Record> {
        (0..24u64).map(|i| encode_record(&i, &(i * i % 11))).collect()
    }

    fn rotate_unfused(rt: &mut LocalRuntime, iters: usize, parts: usize) -> Vec<Record> {
        let mut job = Job::new(rt);
        let src = job.local_data(rotate_input(), 3).unwrap();
        let mut m = job.map_data(src, 0, parts, true).unwrap();
        for _ in 1..iters {
            let r = job.reduce_data(m, 0).unwrap();
            m = job.map_data(r, 0, parts, true).unwrap();
        }
        let last = job.reduce_data(m, 0).unwrap();
        job.fetch_all(last).unwrap()
    }

    fn rotate_fused(rt: &mut dyn JobApi, iters: usize, parts: usize) -> Vec<Record> {
        let mut job = Job::new(rt);
        let src = job.local_data(rotate_input(), 3).unwrap();
        let mut m = job.map_data(src, 0, parts, true).unwrap();
        for _ in 1..iters {
            m = job.reduce_map_data(m, 0, 0, parts, true).unwrap();
        }
        let last = job.reduce_data(m, 0).unwrap();
        job.fetch_all(last).unwrap()
    }

    #[test]
    fn pool_reducemap_matches_unfused_chain() {
        let (iters, parts) = (4usize, 3usize);
        let mut plain = LocalRuntime::pool(Arc::new(Simple(Rotate)), 4);
        let unfused = rotate_unfused(&mut plain, iters, parts);
        let mut fused_rt = LocalRuntime::pool(Arc::new(Simple(Rotate)), 4);
        let fused = rotate_fused(&mut fused_rt, iters, parts);
        assert_eq!(fused, unfused, "fused chain must be byte-identical");
        let m = fused_rt.metrics();
        assert_eq!(m.fused_ops(), (iters - 1) as u64);
        assert_eq!(m.reducemap_tasks(), ((iters - 1) * parts) as u64);
        assert!(m.datasets_freed() > 0, "GC should reclaim interior datasets");
    }

    #[test]
    fn mock_parallel_reducemap_matches_pool() {
        let (iters, parts) = (3usize, 2usize);
        let mut pool = LocalRuntime::pool(Arc::new(Simple(Rotate)), 3);
        let a = rotate_fused(&mut pool, iters, parts);
        let mut mock =
            LocalRuntime::mock_parallel(Arc::new(Simple(Rotate)), Arc::new(MemFs::new()));
        let b = rotate_fused(&mut mock, iters, parts);
        assert_eq!(a, b);
    }

    #[test]
    fn gc_bounds_live_datasets_independent_of_iterations() {
        let peak_at = |iters: usize| {
            let mut rt = LocalRuntime::pool(Arc::new(Simple(Rotate)), 1);
            rotate_fused(&mut rt, iters, 2);
            rt.metrics().peak_live_datasets()
        };
        let (short, long) = (peak_at(3), peak_at(12));
        assert_eq!(short, long, "peak live datasets must not grow with iteration count");
        assert!(long <= 4, "chain should hold O(1) datasets, saw {long}");
    }

    #[test]
    fn keep_data_disables_gc_and_keeps_intermediates_fetchable() {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(Rotate)), 2);
        rt.set_keep_data(true);
        let (m1, out) = {
            let mut job = Job::new(&mut rt);
            let src = job.local_data(rotate_input(), 2).unwrap();
            let m1 = job.map_data(src, 0, 2, true).unwrap();
            let m2 = job.reduce_map_data(m1, 0, 0, 2, true).unwrap();
            let last = job.reduce_data(m2, 0).unwrap();
            (m1, job.fetch_all(last).unwrap())
        };
        assert!(!out.is_empty());
        let metrics = rt.metrics();
        assert_eq!(metrics.datasets_freed(), 0);
        let mut job = Job::new(&mut rt);
        assert!(job.fetch_all(m1).is_ok(), "keep-data mode must retain intermediates");
    }

    #[test]
    fn keep_pins_dataset_against_gc_until_discard() {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(Rotate)), 2);
        let mut job = Job::new(&mut rt);
        let src = job.local_data(rotate_input(), 2).unwrap();
        let m1 = job.map_data(src, 0, 2, true).unwrap();
        let r1 = job.reduce_data(m1, 0).unwrap();
        job.keep(r1);
        // Queue the next round over r1 *before* fetching it — without the
        // pin, the map's completion would free r1 out from under us.
        let m2 = job.map_data(r1, 0, 2, true).unwrap();
        let r2 = job.reduce_data(m2, 0).unwrap();
        job.wait(r2).unwrap();
        assert!(job.fetch_all(r1).is_ok(), "pinned dataset must survive its last consumer");
        job.discard(r1);
        assert!(job.fetch_all(r1).is_err(), "explicit discard releases the pin");
    }

    #[test]
    fn reducemap_of_reduce_output_is_error() {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(Rotate)), 1);
        let mut job = Job::new(&mut rt);
        let src = job.local_data(rotate_input(), 1).unwrap();
        let m = job.map_data(src, 0, 2, false).unwrap();
        let r = job.reduce_data(m, 0).unwrap();
        assert!(job.reduce_map_data(r, 0, 0, 2, false).is_err());
        assert!(job.reduce_map_data(src, 0, 0, 2, false).is_err());
    }

    #[test]
    fn merge_reduce_matches_serial_across_planes() {
        let data = input(&["the quick brown fox", "jumps over the lazy dog", "the end the"]);
        let run = |rt: &mut dyn JobApi| Job::new(rt).map_reduce(data.clone(), 3, 4, false).unwrap();
        let oracle = run(&mut crate::SerialRuntime::new(Arc::new(Simple(WordCount))));
        let mut pool = LocalRuntime::pool(Arc::new(Simple(WordCount)), 4);
        assert_eq!(run(&mut pool), oracle, "pool merge reduce diverged from serial");
        // 4 partitions × 3 map tasks, every run sorted at the producer.
        let m = pool.metrics();
        assert_eq!(m.merge_runs(), 12);
        assert_eq!(m.presorted_runs(), 12);
        assert!(m.peak_reduce_records() > 0);
        let mut mock =
            LocalRuntime::mock_parallel(Arc::new(Simple(WordCount)), Arc::new(MemFs::new()));
        assert_eq!(run(&mut mock), oracle, "mock-parallel merge reduce diverged from serial");
    }

    #[test]
    fn reducemap_matches_serial() {
        let oracle = rotate_fused(&mut crate::SerialRuntime::new(Arc::new(Simple(Rotate))), 4, 3);
        let mut pool = LocalRuntime::pool(Arc::new(Simple(Rotate)), 3);
        assert_eq!(rotate_fused(&mut pool, 4, 3), oracle);
    }

    #[test]
    fn trace_covers_every_task_across_worker_lanes() {
        use mrs_trace::{Kind, Name, MASTER_PID};
        let mut rt = LocalRuntime::pool(Arc::new(Simple(WordCount)), 4);
        {
            let mut job = Job::new(&mut rt);
            job.map_reduce(input(&["a b a", "c a", "b b c", "a"]), 3, 4, true).unwrap();
        }
        let trace = rt.take_trace();
        assert_eq!(trace.dropped, 0);
        let count = |n: Name, k: Kind| trace.count(|g| g.event.name == n && g.event.kind == k);
        // 3 map tasks + 4 reduce partitions.
        assert_eq!(count(Name::Attempt, Kind::Begin), 7);
        assert_eq!(count(Name::Attempt, Kind::End), 7);
        assert_eq!(count(Name::Exec, Kind::Begin), 7);
        assert_eq!(count(Name::Merge, Kind::Begin), 4, "one merge per reduce");
        assert_eq!(count(Name::Dispatch, Kind::Instant), 7);
        assert_eq!(count(Name::Report, Kind::Instant), 7);
        // Scheduler instants sit on the master row; execution spans keep
        // their worker lane under the single slave pid.
        assert!(trace.events.iter().all(
            |g| (g.pid == MASTER_PID) == matches!(g.event.name, Name::Dispatch | Name::Report)
        ));
        assert!(trace.events.iter().all(|g| g.pid == MASTER_PID || g.event.lane < 4));
        let cov = trace.coverage();
        assert_eq!(cov.len(), 7);
        for c in &cov {
            // Tasks here finish in microseconds, so bound the uncovered
            // remainder absolutely rather than as a flaky ratio.
            assert!(c.window_us - c.covered_us < 1_000, "attempt should fill its window: {c:?}");
        }
        let json = trace.chrome_json();
        assert!(json.contains("\"ph\":\"B\"") && json.contains("process_name"));
    }

    #[test]
    fn many_workers_no_deadlock_on_large_fanout() {
        let mut rt = LocalRuntime::pool(Arc::new(Simple(WordCount)), 8);
        let mut job = Job::new(&mut rt);
        let lines: Vec<String> =
            (0..200).map(|i| format!("w{} w{} shared", i % 17, i % 5)).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let out = job.map_reduce(input(&refs), 32, 16, true).unwrap();
        let counts = sorted_counts(out);
        let shared = counts.iter().find(|(w, _)| w == "shared").unwrap();
        assert_eq!(shared.1, 200);
    }
}
