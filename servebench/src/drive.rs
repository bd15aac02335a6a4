//! The load generators: two closed loops, each on the calling thread. A
//! phase runs a warm-up, then a measured window; every job records the
//! instants the benchmark saw it at (send call, send return, result),
//! which are its spans for the traced run.

use std::time::{Duration, Instant};

use pooled_engine::cluster::Router;
use pooled_engine::job::JobResult;
use pooled_engine::transport::{Reply, TransportClient};

use crate::gen::{SpecGen, CLOSED_IN_FLIGHT};
use crate::measure::Outcome;
use crate::stack::{Snapshot, JOB_DEADLINE};

/// Nanoseconds since the benchmark's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Clock(pub Instant);

impl Clock {
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// `at` as ns since the epoch (0 if it precedes it).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.0).as_nanos() as u64
    }
}

/// Everything the benchmark saw of one job.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobRec {
    /// The send call (`submit`+`flush`, or `Router::submit`) that first
    /// carried it; its latency and deadline run from here.
    pub send_ns: u64,
    pub send_end_ns: u64,
    /// When its RESULT reached the benchmark (0: never).
    pub done_ns: u64,
    pub fingerprint: u64,
    pub exact: bool,
    /// `None` while in flight; `Some(Ok)` is provisional until the oracle.
    pub outcome: Option<Outcome>,
    /// BUSY replies this job absorbed (and retried) before it was accepted.
    pub busy: u32,
}

/// Slices of the measured window; throughput and CPU per job are
/// medians over them, so one host stall moves one slice, not the figure.
pub const SLICES: usize = 10;

/// One phase's raw record: job `id` is `jobs[id]`.
pub struct Phase {
    pub jobs: Vec<JobRec>,
    pub window_start_ns: u64,
    pub window_end_ns: u64,
    pub start: Snapshot,
    pub end: Snapshot,
    /// `(ns, process CPU)` at the `SLICES + 1` slice edges of the window.
    pub marks: Vec<(u64, Duration)>,
    /// BUSY replies the cluster router absorbed between the window's
    /// edge snapshots (0 without a router).
    pub router_busy: u64,
}

impl Phase {
    /// Whether job `id` belongs to the measured window (by first send).
    pub fn measured(&self, id: usize) -> bool {
        let sent = self.jobs[id].send_ns;
        sent >= self.window_start_ns && sent < self.window_end_ns
    }

    /// Resident bytes of the benchmark's own job records. They grow with
    /// the jobs sent, so a faster program would otherwise read as a
    /// larger one; `peak_rss_mb` subtracts them (see [`job_store`]).
    pub fn record_bytes(&self) -> u64 {
        (self.jobs.len() * std::mem::size_of::<JobRec>()) as u64
    }
}

/// Most jobs per second a phase's record store is reserved for.
const MAX_JOBS_PER_S: u64 = 100_000;

/// An empty job-record store with room for every job a phase ending at
/// `end_ns` could send at `MAX_JOBS_PER_S`. Reserved once, the store is
/// one mapping that never moves or copies, so its resident size is just
/// the records written ([`Phase::record_bytes`]).
fn job_store(clock: Clock, end_ns: u64) -> Vec<JobRec> {
    let seconds = end_ns.saturating_sub(clock.now_ns()).div_ceil(1_000_000_000) + 1;
    Vec::with_capacity((seconds * MAX_JOBS_PER_S) as usize)
}

/// Snapshot hook and window edges shared by the two loops.
struct Window<'a> {
    clock: Clock,
    start_ns: u64,
    end_ns: u64,
    snap: &'a mut dyn FnMut(u64) -> Snapshot,
    start: Option<Snapshot>,
    end: Option<Snapshot>,
    marks: Vec<(u64, Duration)>,
}

impl<'a> Window<'a> {
    fn new(clock: Clock, window: (u64, u64), snap: &'a mut dyn FnMut(u64) -> Snapshot) -> Self {
        let (start_ns, end_ns) = window;
        Self { clock, start_ns, end_ns, snap, start: None, end: None, marks: Vec::new() }
    }

    fn tick(&mut self, now: u64) {
        if self.start.is_none() && now >= self.start_ns {
            self.start = Some((self.snap)(now));
        }
        let slice = (self.end_ns - self.start_ns) / SLICES as u64;
        let next_mark = self.start_ns + slice * self.marks.len() as u64;
        if self.marks.len() <= SLICES && now >= next_mark {
            self.marks.push((now, crate::sys::process_cpu()));
        }
        if self.end.is_none() && now >= self.end_ns {
            self.end = Some((self.snap)(now));
        }
    }

    fn finish(mut self, jobs: Vec<JobRec>) -> Phase {
        while self.marks.len() <= SLICES || self.end.is_none() {
            let now = self.clock.now_ns().max(self.end_ns);
            self.tick(now);
        }
        let start = self.start.take().expect("window start snapshot");
        Phase {
            jobs,
            window_start_ns: self.start_ns,
            window_end_ns: self.end_ns,
            end: self.end.take().expect("window end snapshot"),
            start,
            marks: self.marks,
            router_busy: 0,
        }
    }
}

/// Resolve job `id` with a result (ignored if the job already timed out).
fn complete(jobs: &mut [JobRec], r: &JobResult, now: u64) -> bool {
    let Some(job) = jobs.get_mut(r.id as usize) else { return false };
    if job.outcome.is_some() {
        return false;
    }
    job.done_ns = now;
    job.fingerprint = r.fingerprint();
    job.exact = r.exact;
    job.outcome = Some(Outcome::Ok);
    true
}

fn resolve(jobs: &mut [JobRec], id: u64, outcome: Outcome) -> bool {
    match jobs.get_mut(id as usize) {
        Some(job) if job.outcome.is_none() => {
            job.outcome = Some(outcome);
            true
        }
        _ => false,
    }
}

/// Fail every unresolved job older than the deadline, scanning forward
/// from `*oldest` (the first possibly unresolved id). Returns how many
/// were failed.
fn expire(jobs: &mut [JobRec], oldest: &mut usize, now: u64) -> usize {
    let deadline = JOB_DEADLINE.as_nanos() as u64;
    let mut failed = 0;
    while *oldest < jobs.len() {
        let job = &mut jobs[*oldest];
        if job.outcome.is_none() {
            if job.send_ns + deadline > now {
                break;
            }
            job.outcome = Some(Outcome::Timeout);
            failed += 1;
        }
        *oldest += 1;
    }
    failed
}

/// Fail every job still unresolved (the connection is gone).
fn abandon(jobs: &mut [JobRec]) {
    for job in jobs.iter_mut().filter(|j| j.outcome.is_none()) {
        job.outcome = Some(Outcome::Timeout);
    }
}

/// Closed loop over one connection: 32 jobs in flight, a new one sent as
/// each completes, until the window ends; BUSY is retried.
pub fn closed_tcp(
    client: &mut TransportClient,
    gen: &SpecGen,
    clock: Clock,
    window: (u64, u64),
    snap: &mut dyn FnMut(u64) -> Snapshot,
) -> Phase {
    let mut w = Window::new(clock, window, snap);
    let mut jobs = job_store(clock, window.1);
    let (mut oldest, mut in_flight) = (0usize, 0usize);
    let mut retry: Vec<u64> = Vec::new();
    'run: loop {
        let now = clock.now_ns();
        w.tick(now);
        let sending = now < window.1;
        if (sending && in_flight < CLOSED_IN_FLIGHT) || !retry.is_empty() {
            let start = clock.now_ns();
            let first = jobs.len();
            let mut sent = Ok(());
            for id in retry.drain(..) {
                sent = sent.and_then(|()| client.submit(&gen.spec(id)));
            }
            while sending && in_flight < CLOSED_IN_FLIGHT && sent.is_ok() {
                jobs.push(JobRec { send_ns: start, ..JobRec::default() });
                sent = client.submit(&gen.spec((jobs.len() - 1) as u64));
                in_flight += 1;
            }
            let sent = sent.and_then(|()| client.flush());
            let end = clock.now_ns();
            for job in &mut jobs[first..] {
                job.send_end_ns = end;
            }
            if sent.is_err() {
                break 'run;
            }
        }
        if in_flight == 0 {
            break;
        }
        // One reply, then (at the top of the loop) one new job per free
        // slot: each completion sends the next submission.
        match client.poll() {
            Ok(Reply::Result(r)) => {
                in_flight -= usize::from(complete(&mut jobs, &r, clock.now_ns()))
            }
            Ok(Reply::Busy(id)) => {
                if let Some(job) = jobs.get_mut(id as usize).filter(|j| j.outcome.is_none()) {
                    job.busy += 1;
                    retry.push(id);
                }
            }
            Ok(Reply::Rejected(id)) => {
                in_flight -= usize::from(resolve(&mut jobs, id, Outcome::Reject))
            }
            Err(_) => break 'run,
        }
        in_flight -= expire(&mut jobs, &mut oldest, clock.now_ns());
    }
    abandon(&mut jobs);
    w.finish(jobs)
}

/// Closed loop through the cluster router: 32 jobs in flight across the
/// nodes; the router retries BUSY itself, and a job it fails terminally
/// counts as failed.
pub fn closed_router(
    router: &mut Router,
    gen: &SpecGen,
    clock: Clock,
    window: (u64, u64),
    snap: &mut dyn FnMut(u64) -> Snapshot,
) -> Phase {
    let mut w = Window::new(clock, window, snap);
    let mut jobs = job_store(clock, window.1);
    let (mut oldest, mut in_flight) = (0usize, 0usize);
    let (mut failed_seen, mut rejected_seen) = (router.failed().len(), router.rejected().len());
    // The router's BUSY count at each window edge, read right after the
    // edge snapshot (the snapshot hook cannot reach the borrowed router).
    let (mut busy_start, mut busy_end) = (None, None);
    loop {
        let now = clock.now_ns();
        w.tick(now);
        if w.start.is_some() {
            busy_start.get_or_insert(router.busy_retries());
        }
        if w.end.is_some() {
            busy_end.get_or_insert(router.busy_retries());
        }
        let sending = now < window.1;
        while sending && in_flight < CLOSED_IN_FLIGHT {
            let id = jobs.len() as u64;
            let start = clock.now_ns();
            router.submit(gen.spec(id));
            let end = clock.now_ns();
            jobs.push(JobRec { send_ns: start, send_end_ns: end, ..JobRec::default() });
            in_flight += 1;
        }
        if in_flight == 0 {
            break;
        }
        match router.poll() {
            Some(r) => in_flight -= usize::from(complete(&mut jobs, &r, clock.now_ns())),
            None => {
                for &id in &router.failed()[failed_seen..] {
                    in_flight -= usize::from(resolve(&mut jobs, id, Outcome::RouterFailed));
                }
                for &id in &router.rejected()[rejected_seen..] {
                    in_flight -= usize::from(resolve(&mut jobs, id, Outcome::Reject));
                }
                (failed_seen, rejected_seen) = (router.failed().len(), router.rejected().len());
                std::thread::park_timeout(Duration::from_micros(50));
            }
        }
        in_flight -= expire(&mut jobs, &mut oldest, clock.now_ns());
    }
    let mut phase = w.finish(jobs);
    let end = busy_end.unwrap_or_else(|| router.busy_retries());
    phase.router_busy = end - busy_start.unwrap_or(end);
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Tally;

    #[test]
    fn busy_retries_pass_but_silence_past_the_deadline_fails() {
        let deadline = JOB_DEADLINE.as_nanos() as u64;
        let job = |busy| JobRec { send_ns: 1_000, busy, ..JobRec::default() };
        // Job 0 was refused BUSY twice, retried and answered; job 1 was
        // refused once and never answered; job 2 was rejected; job 3 is
        // still within its deadline.
        let mut jobs = vec![job(2), job(1), job(0), JobRec { send_ns: 2_000, ..job(0) }];
        let result = JobResult {
            id: 0,
            decoder: pooled_engine::job::DecoderKind::Mn,
            exact: true,
            hits: 8,
            weight: 8,
            support_digest: 1,
            score_digest: 2,
            decode_micros: 0,
            queue_micros: 0,
            total_micros: 0,
            worker: 0,
        };
        assert!(complete(&mut jobs, &result, 5_000));
        assert!(resolve(&mut jobs, 2, Outcome::Reject));
        let mut oldest = 0;
        assert_eq!(expire(&mut jobs, &mut oldest, 1_000 + deadline - 1), 0);
        assert_eq!(expire(&mut jobs, &mut oldest, 1_000 + deadline), 1);
        assert_eq!((oldest, jobs[1].outcome), (3, Some(Outcome::Timeout)));
        // A late RESULT for a timed-out job changes nothing.
        assert!(!complete(&mut jobs, &JobResult { id: 1, ..result }, 1_000 + deadline + 1));
        abandon(&mut jobs);
        let mut t = Tally::default();
        jobs.iter().for_each(|j| t.add(j.outcome.expect("resolved")));
        assert_eq!((t.ok, t.reject, t.timeout), (1, 1, 2));
        assert!((t.failed_share() - 0.75).abs() < 1e-12);
    }
}
