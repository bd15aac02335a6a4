//! Per-layer metrics of the traced run. Measured only from outside the
//! program: the benchmark's own spans around its calls, the engine's
//! `JobTrace` spans and `WireTx` causal records joined through
//! `FlightRecorder::epoch()`, registry counters, engine stats, `/proc`
//! per-thread CPU, and short timings of public kernel, codec, queue,
//! placement and journal functions on the workload's own shape.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pooled_core::query::execute_queries_dense_into;
use pooled_design::batched::decode_sums_fused_batch;
use pooled_design::fused::{decode_sums_fused, FusedArena};
use pooled_engine::cache::DesignKey;
use pooled_engine::cluster::Membership;
use pooled_engine::durability::{self, DesignJournal, DurabilityConfig, WalJournal};
use pooled_engine::engine::Engine;
use pooled_engine::job::{DecoderKind, JobSpec};
use pooled_engine::queue::BoundedQueue;
use pooled_engine::registry::{decoder, DecodeScratch};
use pooled_engine::telemetry::{CausalKind, JobTrace, Metric, MetricsRegistry, Span};
use pooled_engine::transport::frame::{decode_frame, encode_frame, Frame};
use pooled_engine::worker::{process_job, WorkerScratch};
use pooled_par::pool::install_with_threads;

use crate::drive::{Clock, Phase};
use crate::gen::{Rng, SpecGen, Workload};
use crate::measure::{self, Outcome, SpanRec};
use crate::run::EndToEnd;
use crate::stack::NODE_IDS;

/// Every per-layer metric, in report order, with its unit.
pub const METRICS: [(&str, &str); 49] = [
    ("client.send_us_p50", "us"),
    ("client.wire_us_p50", "us"),
    ("client.wire_us_p99", "us"),
    ("frame.encode_ns", "ns"),
    ("frame.decode_ns", "ns"),
    ("frame.bytes_per_job", "B"),
    ("reactor.cpu_share", "cores"),
    ("reactor.ticks_per_job", "count"),
    ("reactor.ready_fds_per_tick", "count"),
    ("reactor.wakeups_per_job", "count"),
    ("reactor.writev_per_job", "count"),
    ("reactor.partial_writes", "count"),
    ("server.rx_to_admit_us_p50", "us"),
    ("server.busy_per_job", "ratio"),
    ("engine.queue_wait_us_p50", "us"),
    ("engine.queue_wait_us_p99", "us"),
    ("engine.deliver_us_p50", "us"),
    ("engine.batch_lanes_mean", "count"),
    ("queue.push_pop_ns", "ns"),
    ("cache.hit_rate", "ratio"),
    ("cache.probe_us_p50", "us"),
    ("cache.probe_us_p99", "us"),
    ("cache.sample_ms", "ms"),
    ("worker.prep_us_p50", "us"),
    ("worker.decode_us_p50.mn", "us"),
    ("worker.decode_us_p50.mn_general", "us"),
    ("worker.decode_us_p50.threshold_mn", "us"),
    ("worker.cpu_share", "cores"),
    ("kernel.mn_ns_per_nnz", "ns"),
    ("kernel.batch_ns_per_nnz_lane", "ns"),
    ("kernel.query_ns_per_nnz", "ns"),
    ("kernel.mn_general_ns_per_nnz", "ns"),
    ("kernel.threshold_mn_ns_per_nnz", "ns"),
    ("kernel.mn_speedup_2t", "ratio"),
    ("kernel.mn_efficiency_2t", "ratio"),
    ("router.submit_us_p50", "us"),
    ("router.busy_retries_per_job", "ratio"),
    ("router.node_imbalance", "ratio"),
    ("membership.place_ns", "ns"),
    ("wal.appends_per_job", "count"),
    ("wal.bytes_per_job", "B"),
    ("wal.fsyncs", "count"),
    ("wal.admit_evict_us", "us"),
    ("recovery.ms", "ms"),
    ("recovery.snapshots_loaded", "count"),
    ("telemetry.trace_overhead_pct", "%"),
    ("telemetry.traces_dropped", "count"),
    ("trace.coverage", "ratio"),
    ("bench.client_cpu_share", "cores"),
];

/// Batch width of the batched-kernel timing (the engine's batch window).
const KERNEL_LANES: usize = 16;

/// What the traced phase left behind in one engine's flight recorder.
pub struct Recorded {
    pub epoch: Instant,
    pub traces: Vec<JobTrace>,
    /// `job id → WireTx` µs, from the causal ring.
    pub wire_tx: HashMap<u64, u64>,
    pub dropped: u64,
}

impl Recorded {
    pub fn of(engine: &Engine) -> Self {
        let rec = engine.flight_recorder();
        let wire_tx = rec
            .causal_records()
            .into_iter()
            .filter(|c| c.kind == CausalKind::WireTx)
            .map(|c| (c.job, c.at_micros))
            .collect();
        Self {
            epoch: rec.epoch(),
            traces: rec.traces().into_iter().flatten().collect(),
            wire_tx,
            dropped: rec.dropped(),
        }
    }
}

/// Facts from the run beyond the phase itself.
pub struct Context<'a> {
    pub workload: Workload,
    pub gen: &'a SpecGen,
    pub clock: Clock,
    pub untraced: &'a EndToEnd,
    pub traced: &'a EndToEnd,
    pub recorded: &'a [Recorded],
    /// Crashed journals the cluster recovered from (empty elsewhere).
    pub crashed: &'a [std::path::PathBuf],
    pub tmp: &'a Path,
}

/// Compute every metric of [`METRICS`]; a layer the workload does not
/// exercise reads 0. Also returns the span store for the dump.
pub fn per_layer(phase: &Phase, cx: &Context) -> (Vec<f64>, Vec<SpanRec>) {
    let mut m: HashMap<&'static str, f64> = HashMap::new();
    let cluster = cx.workload == Workload::ColdMixedCluster;
    let (start, end) = (&phase.start, &phase.end);
    let wall_s = (end.at_ns - start.at_ns) as f64 / 1e9;
    let cpu_share = |a: Duration, b: Duration| b.saturating_sub(a).as_secs_f64() / wall_s;
    let server = |metric| end.server.get(metric).saturating_sub(start.server.get(metric)) as f64;
    let engine = |metric| end.engine.get(metric).saturating_sub(start.engine.get(metric)) as f64;
    let done = phase
        .jobs
        .iter()
        .filter(|j| {
            j.outcome == Some(Outcome::Ok) && j.done_ns >= start.at_ns && j.done_ns < end.at_ns
        })
        .count()
        .max(1) as f64;
    let attempted = cx.traced.tally.attempted().max(1) as f64;

    // Counters over the measured window.
    m.insert(
        "frame.bytes_per_job",
        (server(Metric::WireBytesRx) + server(Metric::WireBytesTx)) / done,
    );
    m.insert("reactor.cpu_share", cpu_share(start.loop_cpu, end.loop_cpu));
    let ticks = server(Metric::TransportTicks);
    m.insert("reactor.ticks_per_job", ticks / done);
    m.insert("reactor.ready_fds_per_tick", server(Metric::TransportReadyFds) / ticks.max(1.0));
    m.insert("reactor.wakeups_per_job", server(Metric::ReactorWakeups) / done);
    m.insert("reactor.writev_per_job", server(Metric::TransportWritevCalls) / done);
    m.insert("reactor.partial_writes", server(Metric::TransportPartialWrites));
    m.insert("worker.cpu_share", cpu_share(start.worker_cpu, end.worker_cpu));
    let (mut hits, mut lookups) = (0.0, 0.0);
    for (a, b) in start.stats.iter().zip(&end.stats) {
        let h = b.cache_hits.saturating_sub(a.cache_hits) as f64;
        hits += h;
        lookups += h + b.cache_misses.saturating_sub(a.cache_misses) as f64;
    }
    m.insert("cache.hit_rate", hits / lookups.max(1.0));
    m.insert("wal.appends_per_job", engine(Metric::WalAppends) / done);
    m.insert("wal.bytes_per_job", engine(Metric::WalBytes) / done);
    m.insert("wal.fsyncs", engine(Metric::WalFsyncs));
    m.insert("server.busy_per_job", cx.traced.busy_retries as f64 / attempted);
    m.insert(
        "bench.client_cpu_share",
        cpu_share(start.gen_cpu, end.gen_cpu) + cpu_share(start.pump_cpu, end.pump_cpu),
    );
    if cluster {
        m.insert("router.busy_retries_per_job", phase.router_busy as f64 / attempted);
        let per_node: Vec<f64> = start
            .stats
            .iter()
            .zip(&end.stats)
            .map(|(a, b)| b.jobs_completed.saturating_sub(a.jobs_completed) as f64)
            .collect();
        let mean = per_node.iter().sum::<f64>() / per_node.len() as f64;
        let max = per_node.iter().copied().fold(0.0, f64::max);
        m.insert("router.node_imbalance", if mean > 0.0 { max / mean } else { 0.0 });
    }
    m.insert("telemetry.traces_dropped", cx.recorded.iter().map(|r| r.dropped).sum::<u64>() as f64);
    m.insert(
        "telemetry.trace_overhead_pct",
        (1.0 - cx.traced.jobs_per_s / cx.untraced.jobs_per_s) * 100.0,
    );

    // Span-derived stage timings.
    let spans = join_spans(phase, cx, &mut m);
    microbenchmarks(cx, &mut m);

    let values = METRICS.iter().map(|(name, _)| m.get(name).copied().unwrap_or(0.0)).collect();
    (values, spans)
}

/// Join the benchmark's per-job spans to the engine's traces and derive
/// the stage metrics. Returns every span, parents before children.
fn join_spans(phase: &Phase, cx: &Context, m: &mut HashMap<&'static str, f64>) -> Vec<SpanRec> {
    let mut traces: HashMap<u64, (usize, JobTrace)> = HashMap::new();
    for (e, rec) in cx.recorded.iter().enumerate() {
        for t in &rec.traces {
            traces.insert(t.id, (e, *t));
        }
    }
    let mut samples: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut put =
        |name: &'static str, ns: u64| samples.entry(name).or_default().push(ns as f64 / 1e3);
    let mut lanes: HashMap<(usize, u32, u64), u32> = HashMap::new();
    let mut coverage = Vec::new();
    let mut spans = Vec::new();
    for id in (0..phase.jobs.len()).filter(|&id| phase.measured(id)) {
        let job = &phase.jobs[id];
        if job.outcome != Some(Outcome::Ok) {
            continue;
        }
        let rtt = job.done_ns.saturating_sub(job.send_ns);
        let send = job.send_end_ns - job.send_ns;
        let send_span =
            if cx.workload == Workload::ColdMixedCluster { "router.submit" } else { "client.send" };
        put(send_span, send);
        // Spans are kept for the traced jobs only.
        let job_id = id as u64;
        let Some(&(e, t)) = traces.get(&job_id) else { continue };
        let root = spans.len() as u32;
        let span = |name, start_ns, end_ns, parent| SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            job: job_id,
        };
        spans.push(span("job", job.send_ns, job.done_ns, None));
        spans.push(span(send_span, job.send_ns, job.send_end_ns, Some(root)));
        let rec = &cx.recorded[e];
        let base = cx.clock.ns_of(rec.epoch);
        let at = |s: Span| t.span_micros(s).map(|us| base + us * 1000);
        let wire_tx = rec.wire_tx.get(&job_id).map(|us| base + us * 1000);
        let stages = [
            ("server.rx_to_admit", at(Span::WireRx), at(Span::Admit)),
            ("engine.queue", at(Span::Admit), at(Span::Dequeue)),
            ("cache.probe", at(Span::Dequeue), at(Span::CacheProbe)),
            ("worker.prep", at(Span::CacheProbe), at(Span::DecodeStart)),
            (decode_span(job_id, cx.gen), at(Span::DecodeStart), at(Span::DecodeEnd)),
            ("engine.deliver", at(Span::DecodeEnd), wire_tx),
        ];
        if let (Some(rx), Some(tx)) = (at(Span::WireRx), wire_tx) {
            let server_ns = tx.saturating_sub(rx);
            put("client.wire", rtt.saturating_sub(server_ns));
            coverage.push((send + server_ns) as f64 / rtt.max(1) as f64);
            let server = spans.len() as u32;
            spans.push(span("server", rx, tx, Some(root)));
            for (name, a, b) in stages {
                if let (Some(a), Some(b)) = (a, b) {
                    put(name, b.saturating_sub(a));
                    spans.push(span(name, a, b, Some(server)));
                }
            }
        }
        if let Some(dq) = t.span_micros(Span::Dequeue) {
            *lanes.entry((e, t.worker, dq)).or_default() += 1;
        }
    }
    let mut p = |name: &str| {
        let mut v = samples.remove(name).unwrap_or_default();
        measure::median_and_p99(&mut v)
    };
    let (send, _) = p("client.send");
    m.insert("client.send_us_p50", send);
    let (wire50, (_, wire99)) = p("client.wire");
    m.insert("client.wire_us_p50", wire50);
    m.insert("client.wire_us_p99", wire99);
    m.insert("server.rx_to_admit_us_p50", p("server.rx_to_admit").0);
    let (q50, (_, q99)) = p("engine.queue");
    m.insert("engine.queue_wait_us_p50", q50);
    m.insert("engine.queue_wait_us_p99", q99);
    m.insert("engine.deliver_us_p50", p("engine.deliver").0);
    let (c50, (_, c99)) = p("cache.probe");
    m.insert("cache.probe_us_p50", c50);
    m.insert("cache.probe_us_p99", c99);
    m.insert("worker.prep_us_p50", p("worker.prep").0);
    m.insert("worker.decode_us_p50.mn", p("worker.decode.mn").0);
    m.insert("worker.decode_us_p50.mn_general", p("worker.decode.mn_general").0);
    m.insert("worker.decode_us_p50.threshold_mn", p("worker.decode.threshold_mn").0);
    m.insert("router.submit_us_p50", p("router.submit").0);
    m.insert("trace.coverage", measure::median(&coverage));
    let groups = lanes.len().max(1) as f64;
    m.insert("engine.batch_lanes_mean", lanes.values().map(|&n| n as f64).sum::<f64>() / groups);
    spans
}

fn decode_span(id: u64, gen: &SpecGen) -> &'static str {
    match gen.spec(id).decoder {
        DecoderKind::GeneralMn => "worker.decode.mn_general",
        DecoderKind::ThresholdMn => "worker.decode.threshold_mn",
        _ => "worker.decode.mn",
    }
}

/// Median ns per call of `f` over several timed batches (~`budget` in
/// all, at least one call per batch).
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 7;
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().max(Duration::from_nanos(50));
    let per_batch = ((budget.as_nanos() / BATCHES as u128) / one.as_nanos()).max(1) as usize;
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    measure::median(&batches)
}

/// Short timings of public layer functions on the workload's shape.
fn microbenchmarks(cx: &Context, m: &mut HashMap<&'static str, f64>) {
    const BUDGET: Duration = Duration::from_millis(60);
    let spec = cx.gen.spec(0);
    let key = DesignKey::of(&spec);
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(key.sample());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.insert("cache.sample_ms", measure::median(&samples));
    let design = key.sample();
    let csr = design.csr();
    let nnz = csr.nnz() as f64;
    let (n, k) = (spec.n, spec.k);
    let mut rng = Rng::new(cx.gen.seed(), 99);
    let truths: Vec<u8> = (0..KERNEL_LANES)
        .flat_map(|_| {
            let mut lane = vec![0u8; n];
            let mut placed = 0;
            while placed < k {
                let i = (rng.next_u64() % n as u64) as usize;
                placed += usize::from(lane[i] == 0);
                lane[i] = 1;
            }
            lane
        })
        .collect();
    let truth = &truths[..n];

    install_with_threads(1, || {
        let mut y = Vec::new();
        m.insert(
            "kernel.query_ns_per_nnz",
            time_ns(BUDGET, || execute_queries_dense_into(&design, black_box(truth), &mut y)) / nnz,
        );
        let mut scratch = DecodeScratch::new();
        for (kind, name) in [
            (DecoderKind::Mn, "kernel.mn_ns_per_nnz"),
            (DecoderKind::GeneralMn, "kernel.mn_general_ns_per_nnz"),
            (DecoderKind::ThresholdMn, "kernel.threshold_mn_ns_per_nnz"),
        ] {
            let d = decoder(kind);
            let ns = time_ns(BUDGET, || {
                black_box(d.decode(&design, black_box(&y), k, spec.seed, truth, &mut scratch));
            });
            m.insert(name, ns / nnz);
        }
        let mut ys = vec![0u64; KERNEL_LANES * spec.m];
        let mut psis = vec![0u64; KERNEL_LANES * n];
        let mut dstar = vec![0u64; n];
        let batch = time_ns(BUDGET, || {
            decode_sums_fused_batch(
                csr,
                black_box(&truths),
                KERNEL_LANES,
                &mut ys,
                &mut psis,
                &mut dstar,
            )
        });
        m.insert("kernel.batch_ns_per_nnz_lane", batch / (nnz * KERNEL_LANES as f64));
    });

    // Fused MN sums, 1 vs 2 threads (the paper's parallel axis).
    let x: Vec<u64> = truth.iter().map(|&b| u64::from(b)).collect();
    let fused = |threads| {
        install_with_threads(threads, || {
            let (mut y, mut psi, mut dstar) = (vec![0u64; spec.m], vec![0u64; n], vec![0u64; n]);
            let mut arena = FusedArena::new();
            time_ns(BUDGET, || {
                decode_sums_fused(csr, black_box(&x), &mut y, &mut psi, &mut dstar, &mut arena)
            })
        })
    };
    let speedup = fused(1) / fused(2);
    m.insert("kernel.mn_speedup_2t", speedup);
    m.insert("kernel.mn_efficiency_2t", speedup / 2.0);

    // The workload's own SUBMIT and RESULT frames.
    let specs: Vec<JobSpec> = (0..32).map(|id| cx.gen.spec(id)).collect();
    let mut scratch = WorkerScratch::new(0);
    let frames: Vec<Frame> = install_with_threads(1, || {
        specs
            .iter()
            .flat_map(|s| {
                let d = DesignKey::of(s).sample();
                [Frame::Submit(*s), Frame::Result(process_job(s, &d, &mut scratch))]
            })
            .collect()
    });
    let mut buf = Vec::new();
    let mut i = 0;
    m.insert(
        "frame.encode_ns",
        time_ns(BUDGET, || {
            encode_frame(black_box(&frames[i % frames.len()]), &mut buf);
            i += 1;
        }),
    );
    let encoded: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| {
            let mut b = Vec::new();
            encode_frame(f, &mut b);
            b
        })
        .collect();
    let mut j = 0;
    m.insert(
        "frame.decode_ns",
        time_ns(BUDGET, || {
            black_box(
                decode_frame(black_box(&encoded[j % encoded.len()])).expect("own frame decodes"),
            );
            j += 1;
        }),
    );

    let queue: BoundedQueue<JobSpec> = BoundedQueue::new(64);
    m.insert(
        "queue.push_pop_ns",
        time_ns(BUDGET, || {
            let _ = queue.try_push(black_box(spec));
            black_box(queue.try_pop());
        }),
    );

    let membership = Membership::new(NODE_IDS.to_vec());
    let keys: Vec<DesignKey> = (0..256).map(|id| DesignKey::of(&cx.gen.spec(id))).collect();
    let mut c = 0;
    m.insert(
        "membership.place_ns",
        time_ns(BUDGET, || {
            black_box(membership.owner(black_box(&keys[c % keys.len()])));
            c += 1;
        }),
    );

    // One journal admit (snapshot spill + ADMIT) and evict, on this shape.
    let wal_dir = cx.tmp.join("wal-timing");
    if let Ok(journal) =
        WalJournal::open(&DurabilityConfig::new(&wal_dir), Arc::new(MetricsRegistry::new()))
    {
        let reps: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                journal.admitted(&key, &design);
                journal.evicted(&key);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        m.insert("wal.admit_evict_us", measure::median(&reps));
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Recovery of the crashed journals this run started from.
    let (mut ms, mut loaded) = (0.0, 0u64);
    for dir in cx.crashed {
        let t = Instant::now();
        if let Ok(rec) = durability::recover(&DurabilityConfig::new(dir), &MetricsRegistry::new()) {
            ms += t.elapsed().as_secs_f64() * 1e3;
            loaded += rec.snapshots_loaded;
        }
    }
    m.insert("recovery.ms", ms);
    m.insert("recovery.snapshots_loaded", loaded as f64);
}

/// Write the spans of every job whose id is a multiple of `stride` as
/// JSON lines, with self times.
pub fn write_spans(path: &Path, spans: &[SpanRec], stride: u64) -> std::io::Result<()> {
    let self_ns = measure::self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let kept = spans.iter().zip(&self_ns).enumerate().filter(|(_, (s, _))| s.job % stride == 0);
    for (i, (s, own)) in kept {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"i\":{i},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{own}}}",
            s.name, s.job, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Median self time (µs) per span name, sorted by name.
pub fn self_time_summary(spans: &[SpanRec]) -> Vec<(&'static str, f64)> {
    let self_ns = measure::self_times(spans);
    let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for (s, own) in spans.iter().zip(self_ns) {
        by_name.entry(s.name).or_default().push(own as f64 / 1e3);
    }
    let mut out: Vec<_> = by_name.into_iter().map(|(k, v)| (k, measure::median(&v))).collect();
    out.sort_by(|a, b| a.0.cmp(b.0));
    out
}
