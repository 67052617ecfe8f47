//! The five execution planes, each started with shipped defaults. The
//! only thing the benchmark chooses is the slave count.

use crate::workload::Spec;
use mrs_core::{Error, Result};
use mrs_fs::{MemFs, Store};
use mrs_runtime::distributed::serve_master;
use mrs_runtime::SerialRuntime;
use mrs_runtime::{DataPlane, JobApi, LocalCluster, LocalRuntime, Master, MasterConfig};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slaves on the `cluster` and `process` planes.
pub const SLAVES: usize = 2;

/// Plane names, in the order metrics are reported.
pub const PLANES: [&str; 5] = ["serial", "mock", "pool", "cluster", "process"];
const MOCK: usize = 1;
pub const CLUSTER: usize = 3;
pub const PROCESS: usize = 4;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Wait until `live()` reports `n` signed-in slaves.
fn wait_signin(live: impl Fn() -> usize, n: usize) -> Result<()> {
    let t0 = Instant::now();
    while live() < n {
        if t0.elapsed() > Duration::from_secs(30) {
            return Err(Error::Invalid(format!("only {} of {n} slaves signed in", live())));
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    Ok(())
}

/// Start the in-process cluster (`LocalCluster`, real TCP between its
/// master and slave threads) and wait for every slave to sign in.
pub fn start_cluster(spec: &Spec) -> Result<LocalCluster> {
    let cluster =
        LocalCluster::start(spec.program(), SLAVES, DataPlane::Direct, MasterConfig::default())?;
    wait_signin(|| cluster.live_slaves(), SLAVES)?;
    Ok(cluster)
}

/// A master in this process and slave OS processes: this binary run
/// again in its slave role, as `examples/process_cluster.rs` does.
pub struct ProcessCluster {
    master: Master,
    _server: mrs_rpc::RpcServer,
    children: Vec<Child>,
}

impl ProcessCluster {
    pub fn start(spec: &Spec) -> Result<ProcessCluster> {
        let master = Master::new(MasterConfig::default(), DataPlane::Direct)?;
        let server = serve_master(master.clone(), 0)?;
        let authority = server.authority();
        let exe = std::env::current_exe()?;
        let mut cluster = ProcessCluster { master, _server: server, children: Vec::new() };
        for _ in 0..SLAVES {
            let child = Command::new(&exe)
                .args(["--slave-of", &authority, "--workload", spec.workload.name()])
                .args(["--seed", &spec.seed.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()?;
            cluster.children.push(child);
        }
        wait_signin(|| cluster.master.live_slaves(), SLAVES)?;
        Ok(cluster)
    }

    /// Tell the slaves to exit, wait for each, and check its exit status.
    pub fn finish(mut self) -> Result<()> {
        self.master.finish();
        let mut result = Ok(());
        for mut child in self.children.drain(..) {
            let status = child.wait()?;
            if !status.success() && result.is_ok() {
                result = Err(Error::Invalid(format!("slave process exited with {status}")));
            }
        }
        result
    }
}

impl Drop for ProcessCluster {
    /// On an early exit, stop the slaves anyway: ask politely, then kill
    /// whatever is still running after a grace period, and reap all.
    fn drop(&mut self) {
        self.master.finish();
        let deadline = Instant::now() + Duration::from_secs(5);
        for child in &mut self.children {
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One of each plane, ready to run jobs.
pub struct Planes {
    serial: SerialRuntime,
    mock: LocalRuntime,
    mock_spill: Arc<MemFs>,
    pool: LocalRuntime,
    cluster: LocalCluster,
    process: ProcessCluster,
}

impl Planes {
    /// Start every plane. Mock parallel spills its intermediate data to
    /// an in-memory store, so disk noise stays out of its timings.
    pub fn start(spec: &Spec) -> Result<Planes> {
        let mock_spill = Arc::new(MemFs::new());
        let process = ProcessCluster::start(spec)?;
        Ok(Planes {
            serial: SerialRuntime::new(spec.program()),
            mock: LocalRuntime::mock_parallel(spec.program(), mock_spill.clone()),
            mock_spill,
            pool: LocalRuntime::pool(spec.program(), nproc()),
            cluster: start_cluster(spec)?,
            process,
        })
    }

    /// The job interface of plane `i` (indexing [`PLANES`]).
    pub fn api(&mut self, i: usize) -> &mut dyn JobApi {
        match i {
            0 => &mut self.serial,
            MOCK => &mut self.mock,
            2 => &mut self.pool,
            CLUSTER => &mut self.cluster,
            _ => &mut self.process.master,
        }
    }

    /// Between jobs: mock parallel never deletes its spilled bucket
    /// files, so drop them before the next job.
    pub fn after_job(&self, i: usize) -> Result<()> {
        if i == MOCK {
            for path in self.mock_spill.list("")? {
                self.mock_spill.delete(&path)?;
            }
        }
        Ok(())
    }

    /// Stop every plane; the process slaves must exit cleanly.
    pub fn shutdown(self) -> Result<()> {
        self.process.finish()
    }
}
