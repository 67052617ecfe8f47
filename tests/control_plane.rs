//! The event-driven control plane must be a pure latency/RPC-count
//! feature: long-poll dispatch and piggybacked completions change *when*
//! control messages flow, never the answer. These tests pin the RPC
//! economics — an iteration's control traffic scales with the number of
//! slaves, not the number of tasks — and check every answer against the
//! serial plane.

use mrs::apps::wordcount::{lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_pso::mapreduce::{PsoProgram, FUNC_PARTICLE};
use mrs_pso::{Objective, PsoConfig, Topology};
use std::sync::Arc;

fn pso_config() -> PsoConfig {
    PsoConfig {
        objective: Objective::Sphere,
        dim: 4,
        n_particles: 12,
        topology: Topology::Ring { k: 1 },
        seed: 11,
    }
}

/// The iterative tiny-task PSO job of these tests.
fn pso_on(job: &mut Job, iters: u64, parts: usize) -> Vec<Record> {
    let program = PsoProgram::new(pso_config(), 1);
    let mut ds = job.local_data(program.initial_particles(), parts).unwrap();
    for _ in 0..iters {
        let m = job.map_data(ds, FUNC_PARTICLE, parts, false).unwrap();
        ds = job.reduce_data(m, FUNC_PARTICLE).unwrap();
    }
    let mut out = job.fetch_all(ds).unwrap();
    out.sort();
    out
}

/// Run the PSO job on a two-slave cluster and return (sorted output
/// bytes, control RPCs served, long-poll parks, piggybacked reports).
fn run_pso(iters: u64, parts: usize) -> (Vec<Record>, u64, u64, u64) {
    let mut cluster = LocalCluster::start_with(
        Arc::new(PsoProgram::new(pso_config(), 1)),
        2,
        DataPlane::Direct,
        MasterConfig::default(),
        SlaveOptions { slots: 2, ..SlaveOptions::default() },
    )
    .unwrap();
    let out = pso_on(&mut Job::new(&mut cluster), iters, parts);
    let m = cluster.metrics();
    (out, cluster.control_requests(), m.longpoll_parks(), m.piggybacked_reports())
}

/// Piggybacking makes completions free: the bulk of task reports must
/// ride on `get_tasks` polls instead of costing standalone RPCs, so the
/// per-iteration control traffic is O(slaves), not O(tasks).
#[test]
fn piggybacking_bounds_control_rpcs_by_slaves_not_tasks() {
    let iters = 10;
    let parts = 6;
    let (_, rpcs, _, piggybacked) = run_pso(iters, parts);
    let tasks = iters * (parts as u64 + 1); // per iteration: `parts` maps + 1 reduce batch
    assert!(piggybacked > 0, "expected piggybacked completion reports");
    assert!(
        piggybacked >= tasks / 2,
        "most completions should ride polls: {piggybacked} piggybacked of {tasks} tasks"
    );
    // With a standalone `task_done` per task on top of the dispatch polls,
    // the control RPC count would have a 2-per-task floor. Piggybacked
    // completions must beat that floor.
    assert!(
        rpcs < 2 * tasks,
        "control RPCs must undercut the one-report-per-task floor: {rpcs} RPCs for {tasks} tasks"
    );
}

/// The iterative job on the event-driven cluster reproduces the serial
/// plane byte for byte, and the event machinery actually engaged: idle
/// slaves parked their polls and completions rode on them.
#[test]
fn longpoll_cluster_matches_serial_and_engages_event_machinery() {
    let (out, _, parks, piggybacked) = run_pso(8, 4);
    let serial = pso_on(
        &mut Job::new(&mut SerialRuntime::new(Arc::new(PsoProgram::new(pso_config(), 1)))),
        8,
        4,
    );
    assert_eq!(out, serial, "the control plane must never change the answer");
    assert!(parks > 0, "no poll ever parked at the master");
    assert!(piggybacked > 0, "no completion ever rode a poll");
}

/// An idle cluster parks instead of burning empty polls: with no work
/// queued, a waiting slave's requests are held server-side.
#[test]
fn idle_slaves_park_instead_of_polling() {
    let cluster = LocalCluster::start(
        Arc::new(Simple(WordCount)),
        1,
        DataPlane::Direct,
        MasterConfig::default(),
    )
    .unwrap();
    // Give the slave time to sign in, drain its first Wait, and park.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while cluster.metrics().longpoll_parks() == 0 {
        assert!(std::time::Instant::now() < deadline, "slave never parked on an idle master");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let parks_settled = cluster.metrics().longpoll_parks();
    let rpcs_settled = cluster.control_requests();
    // While parked, a long-poll request spans the whole wait: RPC volume
    // over the next stretch stays far below what 2 ms poll loops would
    // produce (a parked request is at most ~2 per park window).
    std::thread::sleep(std::time::Duration::from_millis(300));
    let new_rpcs = cluster.control_requests() - rpcs_settled;
    assert!(
        new_rpcs <= 20,
        "an idle long-poll slave must not busy-poll: {new_rpcs} RPCs in 300ms \
         (parks at settle: {parks_settled})"
    );
}

/// WordCount end to end on the cluster (map + combine + reduce over real
/// sockets) matches the serial plane byte for byte.
#[test]
fn wordcount_on_event_driven_cluster_matches_serial() {
    let lines: Vec<String> =
        (0..90).map(|i| format!("omega w{} shared w{} w{}", i % 7, i % 11, i % 3)).collect();
    let input = lines_to_records(lines.iter().map(String::as_str));
    let run = |rt: &mut dyn JobApi| {
        let mut out = Job::new(rt).map_reduce(input.clone(), 6, 3, true).unwrap();
        out.sort();
        out
    };
    let mut cluster = LocalCluster::start(
        Arc::new(Simple(WordCount)),
        2,
        DataPlane::Direct,
        MasterConfig::default(),
    )
    .unwrap();
    assert_eq!(
        run(&mut cluster),
        run(&mut SerialRuntime::new(Arc::new(Simple(WordCount)))),
        "WordCount output must not depend on the plane"
    );
}
