//! The sorted-run shuffle, end to end on a cluster: every map output
//! reaches its reduce task as a presorted run, reduce tasks stream a
//! k-way merge over those runs, and the slaves' background pre-merge
//! collapses warm eager-shuffle fragments into larger runs while the
//! fragments wait for their reduce.
//!
//! The merge counters are process-wide, so this file holds exactly one
//! test: no concurrent cluster in the same process can add to them.

use corpus::{Corpus, CorpusConfig};
use mrs::apps::wordcount::{lines_to_records, WordCount};
use mrs::prelude::*;
use std::sync::Arc;

/// Zipf text totalling roughly `words` tokens, as input records.
fn zipf_input(words: u64) -> Vec<Record> {
    let config =
        CorpusConfig { n_files: 16, seed: 23, mean_tokens: words / 16, ..CorpusConfig::default() };
    let corpus = Corpus::new(config);
    let docs: Vec<String> = (0..16).map(|i| corpus.document(i)).collect();
    lines_to_records(docs.iter().flat_map(|d| d.lines()))
}

/// WordCount without the combiner, so every token crosses the data plane
/// and every reduce partition gathers one run per map task. The map
/// phase finishes before the reduce is submitted, so all fragments are
/// announced (and pre-merged) before any reduce task can consume them.
#[test]
fn cluster_reduce_merges_presorted_and_premerged_runs() {
    let input = zipf_input(60_000);
    let (maps, reduces) = (16, 4);
    let serial = {
        let mut rt = SerialRuntime::new(Arc::new(Simple(WordCount)));
        Job::new(&mut rt).map_reduce(input.clone(), maps, reduces, false).unwrap()
    };
    let mut cluster = LocalCluster::start(
        Arc::new(Simple(WordCount)),
        2,
        DataPlane::Direct,
        MasterConfig::default(),
    )
    .unwrap();
    let out = {
        let mut job = Job::new(&mut cluster);
        let src = job.local_data(input, maps).unwrap();
        let mapped = job.map_data(src, 0, reduces, false).unwrap();
        job.wait(mapped).unwrap();
        let reduced = job.reduce_data(mapped, 0).unwrap();
        job.fetch_all(reduced).unwrap()
    };
    assert_eq!(out, serial, "cluster merge reduce vs serial");

    let m = cluster.metrics();
    assert!(m.merge_runs() > 0, "reduce tasks consumed no runs");
    assert_eq!(m.presorted_runs(), m.merge_runs(), "a run reached a reduce task unsorted");
    assert!(m.premerged_runs() > 0, "background pre-merge never collapsed a fragment streak");
}
