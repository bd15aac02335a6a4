//! Building and tearing down the serving stack each workload runs
//! against, and the counters read from it at the edges of a phase.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pooled_engine::cluster::{Membership, RemoteNode, Router};
use pooled_engine::durability::DurabilityConfig;
use pooled_engine::engine::{Engine, EngineStats};
use pooled_engine::job::{DecoderKind, JobResult, JobSpec};
use pooled_engine::telemetry::{MetricsSnapshot, TelemetryConfig};
use pooled_engine::transport::reactor::{thread_cpu_time, thread_cpu_time_by_name};
use pooled_engine::transport::{Reply, TransportClient, WireTimeouts};
use pooled_engine::{TransportConfig, TransportServer};

use crate::gen::{engine_config, SpecGen, CLOSED_IN_FLIGHT};

/// How long any one job may go unanswered before it counts as failed.
pub const JOB_DEADLINE: Duration = Duration::from_secs(5);

/// Node ids of the two-node cluster.
pub const NODE_IDS: [u64; 2] = [1, 2];

fn transport_config() -> TransportConfig {
    TransportConfig { event_loops: 1, ..TransportConfig::default() }
}

fn wire_timeouts() -> WireTimeouts {
    WireTimeouts { connect: Some(Duration::from_secs(5)), read: Some(JOB_DEADLINE) }
}

/// One engine (2 workers) behind one single-loop server, reached by one
/// `TransportClient` connection.
pub struct TcpStack {
    pub engine: Arc<Engine>,
    pub server: TransportServer,
    pub client: TransportClient,
}

impl TcpStack {
    pub fn start(telemetry: TelemetryConfig) -> io::Result<Self> {
        let engine = Arc::new(Engine::start_with(engine_config(2), telemetry));
        let server = TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", transport_config())?;
        let client = TransportClient::connect_with(server.local_addr(), wire_timeouts())?;
        Ok(Self { engine, server, client })
    }

    /// Serve one job synchronously (set-up probe).
    pub fn serve_one(&mut self, spec: &JobSpec) -> io::Result<JobResult> {
        self.client.submit(spec).and_then(|()| self.client.flush()).map_err(io::Error::other)?;
        match self.client.poll().map_err(io::Error::other)? {
            Reply::Result(r) if r.id == spec.id => Ok(r),
            other => Err(io::Error::other(format!("set-up job got {other:?}"))),
        }
    }

    pub fn stop(self) {
        let Self { engine, server, client } = self;
        drop(client);
        server.stop();
        if let Ok(engine) = Arc::try_unwrap(engine) {
            engine.shutdown();
        }
    }
}

/// Two durable engines (1 worker each, own WAL directory), each behind
/// its own single-loop server, reached through `RemoteNode`s by one
/// `Router` (in-flight window 32 per node).
pub struct ClusterStack {
    pub engines: Vec<Arc<Engine>>,
    pub servers: Vec<TransportServer>,
    pub router: Router,
    /// Directories the engines journal into (removed by the caller).
    pub dirs: Vec<PathBuf>,
}

impl ClusterStack {
    /// Recover each node from its directory in `dirs`, then serve.
    pub fn start(dirs: Vec<PathBuf>, telemetry: TelemetryConfig) -> io::Result<Self> {
        let mut engines = Vec::new();
        let mut servers = Vec::new();
        let mut nodes: Vec<(u64, Box<dyn pooled_engine::NodeHandle>)> = Vec::new();
        for (&id, dir) in NODE_IDS.iter().zip(&dirs) {
            let engine = Arc::new(Engine::start_durable_with(
                engine_config(1),
                DurabilityConfig::new(dir),
                telemetry,
            )?);
            let server =
                TransportServer::bind(Arc::clone(&engine), "127.0.0.1:0", transport_config())?;
            nodes.push((
                id,
                Box::new(RemoteNode::connect_with(server.local_addr(), wire_timeouts())?),
            ));
            engines.push(engine);
            servers.push(server);
        }
        let router = Router::new(nodes, CLOSED_IN_FLIGHT);
        Ok(Self { engines, servers, router, dirs })
    }

    /// Serve one job synchronously (set-up probe).
    pub fn serve_one(&mut self, spec: &JobSpec) -> io::Result<JobResult> {
        self.router.submit(*spec);
        let deadline = Instant::now() + JOB_DEADLINE;
        while Instant::now() < deadline {
            if let Some(r) = self.router.poll() {
                return Ok(r);
            }
            if !self.router.failed().is_empty() || !self.router.rejected().is_empty() {
                break;
            }
            std::thread::park_timeout(Duration::from_micros(50));
        }
        Err(io::Error::other("set-up job failed or timed out in the router"))
    }

    pub fn stop(self) {
        let Self { engines, servers, router, .. } = self;
        if router.outstanding() == 0 {
            router.shutdown();
        } else {
            drop(router);
        }
        for server in servers {
            server.stop();
        }
        for engine in engines {
            if let Ok(engine) = Arc::try_unwrap(engine) {
                engine.shutdown();
            }
        }
    }
}

/// Serve a short, untimed history on each node's directory and drop the
/// engines without a checkpoint — a crash — leaving journals that the
/// next start must recover. Jobs go to the node that owns their design
/// key, as the router would place them.
pub fn write_crashed_journals(gen: &SpecGen, dirs: &[PathBuf], history: u64) -> io::Result<()> {
    let membership = Membership::new(NODE_IDS.to_vec());
    for (&id, dir) in NODE_IDS.iter().zip(dirs) {
        let engine = Engine::start_durable(engine_config(1), DurabilityConfig::new(dir))?;
        let specs: Vec<JobSpec> = (0..history)
            .map(|i| JobSpec { decoder: DecoderKind::Mn, ..gen.spec(HISTORY_ID_BASE + i) })
            .filter(|s| membership.owner(&s.design_key()) == id)
            .collect();
        let mut out = Vec::with_capacity(specs.len());
        engine.run_batch(&specs, &mut out);
        drop(engine);
        // The dropped engine's idle workers exit on their own; wait so no
        // late journal write races the copies taken from this directory.
        let deadline = Instant::now() + Duration::from_secs(5);
        while thread_cpu_time_by_name("engine-worker").is_some() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok(())
}

/// Job ids of the crash history (disjoint from every measured id).
pub const HISTORY_ID_BASE: u64 = 1 << 48;
/// Job ids of set-up probes.
pub const SETUP_ID_BASE: u64 = 1 << 47;

/// Copy a flat directory (WAL segments and snapshots), flushed to disk so
/// that writing the copy back does not overlap a timed recovery from it.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dst = to.join(entry.file_name());
        std::fs::copy(entry.path(), &dst)?;
        std::fs::File::open(&dst)?.sync_all()?;
    }
    Ok(())
}

/// Counters at one edge of a measured window.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub at_ns: u64,
    /// CPU of the calling (load generator) thread.
    pub gen_cpu: Duration,
    pub loop_cpu: Duration,
    pub worker_cpu: Duration,
    pub pump_cpu: Duration,
    /// Server-side wire and reactor counters, summed over servers.
    pub server: MetricsSnapshot,
    /// Engine counters (jobs, WAL), summed over engines.
    pub engine: MetricsSnapshot,
    /// Per-engine stats (cache hits/misses, completed jobs).
    pub stats: Vec<EngineStats>,
}

impl Snapshot {
    pub fn of(at_ns: u64, engines: &[Arc<Engine>], servers: &[TransportServer]) -> Self {
        let cpu = |prefix| thread_cpu_time_by_name(prefix).unwrap_or_default();
        let mut server = MetricsSnapshot::default();
        for s in servers {
            server.merge(&s.metrics().snapshot());
        }
        let mut engine = MetricsSnapshot::default();
        for e in engines {
            engine.merge(&e.metrics().snapshot());
        }
        Self {
            at_ns,
            gen_cpu: thread_cpu_time(),
            loop_cpu: cpu("transport-loop"),
            worker_cpu: cpu("engine-worker"),
            pump_cpu: cpu("remote-node-pump"),
            server,
            engine,
            stats: engines.iter().map(|e| e.stats()).collect(),
        }
    }
}
