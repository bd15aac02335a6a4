//! `servebench` — the serving benchmark for `pooled_engine`.
//!
//! ```text
//! servebench --workload <hot_batch_tcp|cold_mixed_cluster>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times set-up, warms up, measures `--seconds` of load with
//! tracing off, checks every output against a reference, and prints the
//! end-to-end metrics. `--trace 1` runs the same load twice for half as
//! long each — untraced, then with every job traced — and prints the
//! per-layer metrics. Human-readable lines come first; the last line of
//! standard output is one JSON object. Run records and span dumps go to
//! `.bench_out/`, journals to a `.bench_tmp/` directory removed on exit.

mod drive;
mod gen;
mod layers;
mod measure;
mod oracle;
mod run;
mod stack;
mod sys;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use pooled_engine::telemetry::TelemetryConfig;

use drive::Clock;
use gen::{SpecGen, Workload};
use run::{EndToEnd, Stack, TmpDir};

/// Most jobs the traced phase traces; faster workloads trace a stride.
const TRACED_JOBS: usize = 100_000;
/// Jobs of the span dump: every job whose id is a multiple of the stride
/// that keeps the dump near this many jobs (all spans stay in memory
/// for the self-time summary either way).
const DUMP_JOBS: usize = 10_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(
                    matches!(value.as_str(), "1")
                        .then_some(true)
                        .or((value == "0").then_some(false))
                        .ok_or_else(|| bad("0 or 1"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(1)
        }
    }
}

/// One JSON number with all its digits (non-finite values read 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Provenance and frozen parameters of this run, as a JSON object.
fn provenance_json(args: &Args) -> String {
    let p = sys::Provenance::collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_sha\": \"{}\", \
         \"nproc\": {}, \"rlimit_nofile\": \"{}\", \"kernel\": \"{}\", \"loadavg\": \"{}\", \
         \"working_set\": {}, \"zipf_exponent\": {}, \"in_flight\": {}, \"oracle_stride\": {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        p.git_sha,
        p.nproc,
        p.nofile_limit,
        p.kernel,
        p.loadavg,
        gen::WORKING_SET,
        gen::ZIPF_EXPONENT,
        gen::CLOSED_IN_FLIGHT,
        args.workload.oracle_stride(),
    )
}

fn write_record(args: &Args, provenance: &str, result: &str) {
    let out = Path::new(".bench_out");
    if std::fs::create_dir_all(out).is_ok() {
        let name = format!(
            "{}-seed{}-trace{}.json",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        );
        let _ = std::fs::write(
            out.join(name),
            format!("{{\"provenance\": {provenance}, \"result\": {result}}}\n"),
        );
    }
}

fn bench(args: &Args) -> std::io::Result<bool> {
    let provenance = provenance_json(args);
    println!("# provenance {provenance}");
    let w = args.workload;
    let gen = SpecGen::new(w, args.seed);
    let tmp = TmpDir::new(w.name())?;
    let crashed = run::crashed_journals(w, &gen, &tmp.0)?;
    let clock = Clock(Instant::now());
    if args.trace {
        traced(args, &gen, clock, &crashed, &tmp.0, &provenance)
    } else {
        untraced(args, &gen, clock, &crashed, &tmp.0, &provenance)
    }
}

/// The end-to-end run: timed set-ups, the measured phase on the last
/// set-up's stack, then the second half of the timed set-ups.
fn untraced(
    args: &Args,
    gen: &SpecGen,
    clock: Clock,
    crashed: &[PathBuf],
    tmp: &Path,
    provenance: &str,
) -> std::io::Result<bool> {
    let w = args.workload;
    let half = run::SETUP_REPS / 2;
    let run::Setups { mut stack, mut times, mut probes } =
        run::timed_setups(w, gen, crashed, tmp, 0..half)?;
    let mut phase = stack.run_phase(gen, clock, args.seconds);
    // The program's peak: the process's, less the job records the
    // benchmark kept while driving it.
    let peak_rss_mb = sys::peak_rss_mb() - phase.record_bytes() as f64 / (1024.0 * 1024.0);
    stack.stop();
    let late = run::timed_setups(w, gen, crashed, tmp, half..run::SETUP_REPS)?;
    late.stack.stop();
    times.extend(late.times);
    probes.extend(late.probes);
    let mismatches = run::check_outputs(&mut phase, gen, w.oracle_stride(), &probes);
    let e = EndToEnd::of(&phase);
    let setup_s = measure::median(&times);
    let (p_used, p99) = e.latency_tail_us;
    let t = e.tally;
    println!(
        "# {}: {} attempted, {} ok, {} failed (reject {}, timeout {}, router {}, mismatch {}); \
         {} BUSY replies retried",
        w.name(),
        t.attempted(),
        t.ok,
        t.failed(),
        t.reject,
        t.timeout,
        t.router_failed,
        t.mismatch,
        e.busy_retries
    );
    if p_used < 0.99 {
        println!(
            "# warning: too few samples beyond p99; latency_p99_us reports p{:.1}",
            p_used * 100.0
        );
    }
    let metrics = [
        ("jobs_per_s", e.jobs_per_s, "1/s"),
        ("ok_share", 1.0 - t.failed_share(), "ratio"),
        ("exact_rate", e.exact_rate, "ratio"),
        ("cpu_ms_per_job", e.cpu_ms_per_job, "ms"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    for (name, v, unit) in &metrics {
        println!("{name} = {v} {unit}");
    }
    // Printed, not gated: see servebench/layers.json ("gating").
    println!("# latency_p50_us = {} us", e.latency_p50_us);
    println!("# latency_p99_us = {p99} us");
    println!(
        "# latency: {} samples in {} chunks (medians of chunk p50/p99); failed_share = {}; \
         set-ups (s): {times:?}",
        e.latency_samples,
        e.latency_chunks,
        t.failed_share()
    );
    let correct = mismatches == 0;
    println!("# verdict: {}", if correct { "outputs correct" } else { "OUTPUT MISMATCH" });
    let result = result_line(correct, t.attempted(), t.failed(), &metrics);
    write_record(args, provenance, &result);
    println!("{result}");
    Ok(correct)
}

/// The closing JSON line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The per-layer run: an untraced and a traced phase of half the time
/// each on fresh stacks, then span joins, counters and layer timings.
fn traced(
    args: &Args,
    gen: &SpecGen,
    clock: Clock,
    crashed: &[PathBuf],
    tmp: &Path,
    provenance: &str,
) -> std::io::Result<bool> {
    let w = args.workload;
    let half = args.seconds / 2.0;
    let mut base = Stack::start(w, TelemetryConfig::off(), run::copies(crashed, tmp, "untraced")?)?;
    let mut base_phase = base.run_phase(gen, clock, half);
    base.stop();

    // Every job is traced up to TRACED_JOBS per phase, every k-th job id
    // beyond (k from the untraced phase of the same length). Ring capacity
    // leaves room to spare, so nothing is overwritten
    // (`telemetry.traces_dropped` proves it).
    let jobs = base_phase.jobs.len();
    let every = jobs.div_ceil(TRACED_JOBS).max(1);
    let capacity = jobs / every * 3 / 2 + 4096;
    let tel = TelemetryConfig { trace_sample_every: every as u64, recorder_capacity: capacity };
    println!("# traced phase: job ids divisible by {every} traced, recorder rings of {capacity}");
    let mut stack = Stack::start(w, tel, run::copies(crashed, tmp, "traced")?)?;
    let mut phase = stack.run_phase(gen, clock, half);
    let recorded: Vec<layers::Recorded> = match &stack {
        Stack::Tcp(s) => vec![layers::Recorded::of(&s.engine)],
        Stack::Cluster(s) => s.engines.iter().map(|e| layers::Recorded::of(e)).collect(),
    };
    stack.stop();

    let mismatches = run::check_outputs(&mut base_phase, gen, w.oracle_stride(), &[])
        + run::check_outputs(&mut phase, gen, w.oracle_stride(), &[]);
    let (untraced_e2e, traced_e2e) = (EndToEnd::of(&base_phase), EndToEnd::of(&phase));
    let cx = layers::Context {
        workload: w,
        gen,
        clock,
        untraced: &untraced_e2e,
        traced: &traced_e2e,
        recorded: &recorded,
        crashed,
        tmp,
    };
    let (values, spans) = layers::per_layer(&phase, &cx);
    let dropped = values[layers::METRICS
        .iter()
        .position(|(n, _)| *n == "telemetry.traces_dropped")
        .expect("listed")];
    let out = Path::new(".bench_out");
    std::fs::create_dir_all(out)?;
    let span_path = out.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    let stride = (every * (phase.jobs.len() / every / DUMP_JOBS).max(1)) as u64;
    layers::write_spans(&span_path, &spans, stride)?;
    println!(
        "# spans of job ids divisible by {stride} written to {}; median self time per span (us):",
        span_path.display()
    );
    for (name, us) in layers::self_time_summary(&spans) {
        println!("#   {name:<28} {us:.2}");
    }
    let t = traced_e2e.tally;
    println!(
        "# traced phase: {} attempted, {} failed; untraced phase: {} attempted, {} failed",
        t.attempted(),
        t.failed(),
        untraced_e2e.tally.attempted(),
        untraced_e2e.tally.failed()
    );
    let metrics: Vec<(&str, f64, &str)> =
        layers::METRICS.iter().zip(&values).map(|((n, u), v)| (*n, *v, *u)).collect();
    for (name, v, unit) in &metrics {
        println!("{name} = {v} {unit}");
    }
    let correct = mismatches == 0 && dropped == 0.0;
    if dropped > 0.0 {
        println!("# error: {dropped} traces dropped");
    }
    println!("# verdict: {}", if correct { "outputs correct" } else { "FAILED" });
    let result = result_line(correct, t.attempted(), t.failed(), &metrics);
    write_record(args, provenance, &result);
    println!("{result}");
    Ok(correct)
}
