//! Timed calls into each layer's public entry points, on the workload's
//! own data: one source split, that split's map output, and one reduce
//! partition gathered from every split's map output.

use crate::stats::median;
use crate::workload::Spec;
use mrs_codec::{decode_frame_sorted, encode_vec_sorted, CompressMode};
use mrs_core::task::{combine_bucket, run_map_task, run_reduce_task_merge};
use mrs_core::{Bucket, Error, Record, Result};
use mrs_fs::format::{read_bucket_run, write_bucket, write_bucket_bytes};
use mrs_rpc::dataserver::{DataServer, FrameCache};
use mrs_rpc::rpc::Dispatch;
use mrs_rpc::{RpcClient, RpcServer, Value};
use mrs_runtime::data::split_evenly;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls are timed in batches of at least this long, so that a call of a
/// few microseconds is not lost in clock resolution.
const MIN_BATCH: Duration = Duration::from_millis(2);
/// Batches per rate at least; the rate is the median batch's.
const MIN_BATCHES: usize = 5;

/// How fast one entry point ran: `units` (records or bytes) per call.
#[derive(Clone, Copy, Debug)]
pub struct Rate {
    pub per_call_s: f64,
    pub calls: u64,
    pub units: f64,
}

impl Rate {
    pub fn per_s(&self) -> f64 {
        self.units / self.per_call_s
    }

    pub fn mb_per_s(&self) -> f64 {
        self.per_s() / 1e6
    }

    /// The rate's base, for the human-readable report.
    pub fn base(&self, unit: &str) -> String {
        format!("{} {unit}/call, {} calls", self.units, self.calls)
    }
}

/// Call `f` for about `budget` and return the median per-call time.
fn measure(budget: Duration, units: usize, mut f: impl FnMut() -> Result<()>) -> Result<Rate> {
    let t0 = Instant::now();
    f()?;
    let first = t0.elapsed().max(Duration::from_nanos(1));
    let batch = (MIN_BATCH.as_secs_f64() / first.as_secs_f64()).ceil().max(1.0) as u64;
    let (mut samples, mut calls) = (Vec::new(), 1);
    let start = Instant::now();
    while samples.len() < MIN_BATCHES || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f()?;
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
        calls += batch;
    }
    Ok(Rate { per_call_s: median(&samples), calls, units: units as f64 })
}

/// Every layer's rate on one workload.
pub struct Layers {
    pub map: Rate,
    /// `None` where the program declares no combiner (PSO).
    pub combine: Option<Rate>,
    pub merge_reduce: Rate,
    pub fs_write: Rate,
    pub fs_read: Rate,
    pub encode: Rate,
    pub decode: Rate,
    /// Encoded bytes over raw bytes, for the source split and map bucket.
    pub ratio: f64,
    pub fetch: Rate,
    pub rtt: Rate,
    /// Map input records in one round of the job (all splits).
    pub map_records_per_round: f64,
    /// Reduce input records in one round of the job (all partitions).
    pub reduce_records_per_round: f64,
}

/// Measure every layer, spending about `budget` in all.
pub fn measure_layers(spec: &Spec, input: &[Record], budget: Duration) -> Result<Layers> {
    let budget = budget / 10;
    let program = spec.program();
    let program = &*program;
    let s = spec.shape();
    let splits = split_evenly(input.to_vec(), s.splits);
    let outputs = splits
        .iter()
        .map(|split| run_map_task(program, s.func, split, s.parts, s.combine))
        .collect::<Result<Vec<Vec<Bucket>>>>()?;
    // The reduce partition with the most bytes, gathered from every map,
    // and its largest map output bucket.
    let bytes_in = |p: usize| outputs.iter().map(|o| o[p].byte_size()).sum::<usize>();
    let p = (0..s.parts).max_by_key(|&p| bytes_in(p)).expect("at least one partition");
    let runs: Vec<Bucket> = outputs.iter().map(|o| o[p].clone()).collect();
    let records_in_p = runs.iter().map(Bucket::len).sum();
    let bucket = runs.iter().max_by_key(|b| b.byte_size()).expect("at least one split");
    let split = &splits[0];

    let map = measure(budget, split.len(), || {
        black_box(run_map_task(program, s.func, split, s.parts, s.combine)?);
        Ok(())
    })?;
    let combine = if program.has_combiner(s.func) {
        let raw = run_map_task(program, s.func, split, s.parts, false)?.swap_remove(p);
        Some(measure(budget, raw.len(), || {
            black_box(combine_bucket(program, s.func, raw.clone())?);
            Ok(())
        })?)
    } else {
        None
    };
    let merge_reduce = measure(budget, records_in_p, || {
        black_box(run_reduce_task_merge(program, s.func, &runs)?);
        Ok(())
    })?;

    let raw_bucket = write_bucket(bucket);
    let fs_write = measure(budget, raw_bucket.len(), || {
        black_box(write_bucket(bucket));
        Ok(())
    })?;
    let mut arena = Bucket::new();
    let fs_read = measure(budget, raw_bucket.len(), || {
        arena.clear();
        black_box(read_bucket_run(&raw_bucket, &mut arena)?);
        Ok(())
    })?;

    // The codec on what the runtime encodes: a source split (unsorted)
    // and a map output bucket (a sorted run), under the default mode.
    let raws = [(write_bucket_bytes(split), false), (raw_bucket.clone(), true)];
    let raw_len: usize = raws.iter().map(|(r, _)| r.len()).sum();
    let encode_all = || -> Vec<Vec<u8>> {
        raws.iter()
            .map(|(raw, sorted)| encode_vec_sorted(raw.clone(), CompressMode::default(), *sorted))
            .collect()
    };
    let frames = encode_all();
    let ratio = frames.iter().map(Vec::len).sum::<usize>() as f64 / raw_len as f64;
    let encode = measure(budget, raw_len, || {
        black_box(encode_all());
        Ok(())
    })?;
    let decode = measure(budget, raw_len, || {
        for frame in &frames {
            black_box(decode_frame_sorted(frame).map_err(|e| Error::Codec(e.to_string()))?);
        }
        Ok(())
    })?;

    // Transport: one bucket's frame over loopback HTTP, and a no-op
    // XML-RPC round trip.
    let cache = Arc::new(FrameCache::new());
    let frame = &frames[1];
    cache.insert("perfbench/bucket", frame.clone());
    let server = DataServer::serve(0, cache.provider())?;
    let authority = server.authority();
    let fetch = measure(budget, frame.len(), || {
        black_box(mrs_rpc::dataserver::fetch(&authority, "/data/perfbench/bucket")?);
        Ok(())
    })?;
    let rpc = RpcServer::serve(0, Dispatch::new().register("ping", |_| Ok(Value::Bool(true))))?;
    let client = RpcClient::new(rpc.authority());
    let rtt = measure(budget, 1, || {
        black_box(client.call("ping", &[])?);
        Ok(())
    })?;

    Ok(Layers {
        map,
        combine,
        merge_reduce,
        fs_write,
        fs_read,
        encode,
        decode,
        ratio,
        fetch,
        rtt,
        map_records_per_round: input.len() as f64,
        reduce_records_per_round: outputs.iter().flatten().map(Bucket::len).sum::<usize>() as f64,
    })
}
