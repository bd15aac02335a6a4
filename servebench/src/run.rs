//! One workload run: build the stack (timing set-up), drive a warm-up
//! and a measured window, check outputs, and reduce to end-to-end
//! metrics.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pooled_engine::job::JobSpec;
use pooled_engine::telemetry::TelemetryConfig;

use crate::drive::{self, Clock, Phase};
use crate::gen::{SpecGen, Workload};
use crate::measure::{self, Outcome, Tally};
use crate::oracle;
use crate::stack::{self, ClusterStack, Snapshot, TcpStack, SETUP_ID_BASE};

/// Unmeasured lead-in of every phase: caches fill, batches form.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Set-up repetitions per run, half before the measured window and half
/// after it, so the figure samples the host at both ends of the run;
/// `setup_s` is their median.
pub const SETUP_REPS: u64 = 12;
/// Latency percentiles are medians over up to this many consecutive
/// chunks of measured jobs, each at least `LATENCY_CHUNK_MIN` long, so
/// one host stall moves one chunk, not the figure.
const LATENCY_CHUNKS: usize = 10;
const LATENCY_CHUNK_MIN: usize = 1000;
/// History jobs each crashed incarnation serves before it dies.
const CRASH_HISTORY: u64 = 400;

/// A scratch directory inside the working directory, removed on drop.
pub struct TmpDir(pub PathBuf);

impl TmpDir {
    pub fn new(tag: &str) -> io::Result<Self> {
        let dir = Path::new(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly if another
        // run still uses it).
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// The serving stack of one workload (one exists at a time, so variant
/// sizes do not matter).
#[allow(clippy::large_enum_variant)]
pub enum Stack {
    Tcp(TcpStack),
    Cluster(ClusterStack),
}

impl Stack {
    /// Start the workload's stack; cluster nodes recover from `dirs`
    /// (copies of the crashed journals, see [`copies`]).
    pub fn start(
        workload: Workload,
        telemetry: TelemetryConfig,
        dirs: Vec<PathBuf>,
    ) -> io::Result<Stack> {
        match workload {
            Workload::ColdMixedCluster => ClusterStack::start(dirs, telemetry).map(Stack::Cluster),
            _ => TcpStack::start(telemetry).map(Stack::Tcp),
        }
    }

    pub fn serve_one(&mut self, spec: &JobSpec) -> io::Result<u64> {
        match self {
            Stack::Tcp(s) => s.serve_one(spec),
            Stack::Cluster(s) => s.serve_one(spec),
        }
        .map(|r| r.fingerprint())
    }

    pub fn stop(self) {
        match self {
            Stack::Tcp(s) => s.stop(),
            Stack::Cluster(s) => {
                let dirs = s.dirs.clone();
                s.stop();
                for d in dirs {
                    let _ = std::fs::remove_dir_all(d);
                }
            }
        }
    }

    /// Warm up, then measure `seconds`, from `clock`'s now.
    pub fn run_phase(&mut self, gen: &SpecGen, clock: Clock, seconds: f64) -> Phase {
        let start = clock.now_ns();
        let window_start = start + WARMUP.as_nanos() as u64;
        let window = (window_start, window_start + (seconds * 1e9) as u64);
        match self {
            Stack::Tcp(s) => {
                let engine = &s.engine;
                let server = &s.server;
                let mut snap = |at| {
                    Snapshot::of(at, std::slice::from_ref(engine), std::slice::from_ref(server))
                };
                drive::closed_tcp(&mut s.client, gen, clock, window, &mut snap)
            }
            Stack::Cluster(s) => {
                let engines = &s.engines;
                let servers = &s.servers;
                let mut snap = |at| Snapshot::of(at, engines, servers);
                drive::closed_router(&mut s.router, gen, clock, window, &mut snap)
            }
        }
    }
}

/// Fresh copies of the crashed journals under `tmp/<tag>-node*`.
pub fn copies(from: &[PathBuf], tmp: &Path, tag: &str) -> io::Result<Vec<PathBuf>> {
    from.iter()
        .enumerate()
        .map(|(i, src)| {
            let dst = tmp.join(format!("{tag}-node{i}"));
            stack::copy_dir(src, &dst).map(|()| dst)
        })
        .collect()
}

/// The crashed journals a cluster run recovers from (none elsewhere).
pub fn crashed_journals(workload: Workload, gen: &SpecGen, tmp: &Path) -> io::Result<Vec<PathBuf>> {
    if workload != Workload::ColdMixedCluster {
        return Ok(Vec::new());
    }
    let dirs: Vec<PathBuf> = (0..2).map(|i| tmp.join(format!("crashed-node{i}"))).collect();
    stack::write_crashed_journals(gen, &dirs, CRASH_HISTORY)?;
    Ok(dirs)
}

/// A running stack with the set-ups that led to it.
pub struct Setups {
    /// The last stack built, still running.
    pub stack: Stack,
    /// Each set-up's time (s) from the start of construction to the
    /// first RESULT.
    pub times: Vec<f64>,
    /// Each set-up probe's spec and result fingerprint, for the oracle.
    pub probes: Vec<(JobSpec, u64)>,
}

/// Build the stack once per rep in `reps`, timing each; the last one is
/// kept.
pub fn timed_setups(
    workload: Workload,
    gen: &SpecGen,
    crashed: &[PathBuf],
    tmp: &Path,
    reps: std::ops::Range<u64>,
) -> io::Result<Setups> {
    let mut times = Vec::new();
    let mut probes = Vec::new();
    let mut kept = None;
    let last = reps.end - 1;
    for rep in reps {
        // Journal copies are made before the clock starts.
        let dirs = copies(crashed, tmp, &format!("setup{rep}"))?;
        let spec = gen.probe(SETUP_ID_BASE + rep);
        let t0 = Instant::now();
        let mut stack = Stack::start(workload, TelemetryConfig::off(), dirs)?;
        let fingerprint = stack.serve_one(&spec)?;
        times.push(t0.elapsed().as_secs_f64());
        probes.push((spec, fingerprint));
        if rep == last {
            kept = Some(stack);
        } else {
            stack.stop();
        }
    }
    Ok(Setups { stack: kept.expect("at least one set-up"), times, probes })
}

/// Compare every checked result of `phase` (ids on the workload's oracle
/// stride) and every set-up probe with its reference, marking mismatches.
/// Returns the number of mismatches.
pub fn check_outputs(
    phase: &mut Phase,
    gen: &SpecGen,
    stride: u64,
    probes: &[(JobSpec, u64)],
) -> usize {
    let checked: Vec<usize> = (0..phase.jobs.len())
        .filter(|&id| {
            (id as u64).is_multiple_of(stride) && phase.jobs[id].outcome == Some(Outcome::Ok)
        })
        .collect();
    let mut specs: Vec<JobSpec> = checked.iter().map(|&id| gen.spec(id as u64)).collect();
    specs.extend(probes.iter().map(|(s, _)| *s));
    let reference = oracle::reference_fingerprints(&specs);
    let mut mismatches = 0;
    for (&id, &want) in checked.iter().zip(&reference) {
        if phase.jobs[id].fingerprint != want {
            phase.jobs[id].outcome = Some(Outcome::Mismatch);
            mismatches += 1;
            eprintln!(
                "ORACLE MISMATCH: job {id} fingerprint {:#x} != reference {want:#x}",
                phase.jobs[id].fingerprint
            );
        }
    }
    for ((spec, got), &want) in probes.iter().zip(&reference[checked.len()..]) {
        if *got != want {
            mismatches += 1;
            eprintln!(
                "ORACLE MISMATCH: set-up job {} fingerprint {got:#x} != reference {want:#x}",
                spec.id
            );
        }
    }
    mismatches
}

/// End-to-end figures of one measured window.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    pub tally: Tally,
    /// BUSY replies retried for the window's jobs (by the benchmark over
    /// one connection, or by the router).
    pub busy_retries: u64,
    pub jobs_per_s: f64,
    /// Median over consecutive chunks of each chunk's median latency.
    pub latency_p50_us: f64,
    /// `(percentile used, value)`, chunked like the median: p99 unless
    /// too few samples lie beyond it.
    pub latency_tail_us: (f64, f64),
    pub latency_samples: usize,
    pub latency_chunks: usize,
    pub exact_rate: f64,
    pub cpu_ms_per_job: f64,
}

impl EndToEnd {
    pub fn of(phase: &Phase) -> Self {
        let mut tally = Tally::default();
        let mut lat = Vec::new();
        let mut exact = 0u64;
        let mut busy_retries = phase.router_busy;
        for id in (0..phase.jobs.len()).filter(|&id| phase.measured(id)) {
            let job = &phase.jobs[id];
            let outcome = job.outcome.unwrap_or(Outcome::Timeout);
            tally.add(outcome);
            busy_retries += u64::from(job.busy);
            if outcome == Outcome::Ok {
                lat.push(job.done_ns.saturating_sub(job.send_ns) as f64 / 1e3);
                exact += u64::from(job.exact);
            }
        }
        let (jobs_per_s, cpu_ms_per_job) = per_slice(phase);
        let (latency_p50_us, latency_tail_us, latency_chunks) =
            measure::chunked_p50_p99(&lat, LATENCY_CHUNK_MIN, LATENCY_CHUNKS);
        let latency_samples = lat.len();
        Self {
            tally,
            busy_retries,
            jobs_per_s,
            latency_p50_us,
            latency_tail_us,
            latency_samples,
            latency_chunks,
            exact_rate: if tally.ok > 0 { exact as f64 / tally.ok as f64 } else { 0.0 },
            cpu_ms_per_job,
        }
    }
}

/// Medians over the window's slices of correct completions per second
/// and of process CPU (ms) per completion.
fn per_slice(phase: &Phase) -> (f64, f64) {
    let mut done: Vec<u64> =
        phase.jobs.iter().filter(|j| j.outcome == Some(Outcome::Ok)).map(|j| j.done_ns).collect();
    done.sort_unstable();
    let (mut rates, mut cpus) = (Vec::new(), Vec::new());
    for edge in phase.marks.windows(2) {
        let ((a, cpu_a), (b, cpu_b)) = (edge[0], edge[1]);
        let n = done.partition_point(|&t| t < b) - done.partition_point(|&t| t < a);
        rates.push(n as f64 / ((b - a) as f64 / 1e9));
        cpus.push(cpu_b.saturating_sub(cpu_a).as_secs_f64() * 1e3 / n.max(1) as f64);
    }
    (measure::median(&rates), measure::median(&cpus))
}
