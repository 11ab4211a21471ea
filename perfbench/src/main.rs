//! End-to-end and per-layer benchmark of the served knowledge base.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload survey_mixed --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! One run boots the workload's topology in-process, drives it with the
//! generated inputs, checks the answers, and prints one JSON object as the
//! last line of standard output: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`.  A self-stamped copy with host,
//! commit and every intermediate figure goes to `perfbench/results/`.
//! The exit code is non-zero when a correctness gate fails.  See README.md.

mod load;
mod replay;
mod report;
mod system;
mod trace;
mod workload;

use load::{ConnLog, Kind, Plan};
use report::{Gates, Report};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use system::{read_counters, BenchResult, System};
use trace::Tracer;
use workload::{open_loop_share, Inputs, Spec, WORKLOADS};

/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Queries replayed through the read path in a traced run.
const READ_REPLAY_QUERIES: usize = 20_000;
/// Where results, spans and the fabric's durable files go, relative to the
/// directory the benchmark runs from.
const RESULTS_DIR: &str = "perfbench/results";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 30.0, trace: false, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
        return Err("--seconds must be between 1 and 600".to_string());
    }
    if !args.smoke && Spec::named(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

fn main() {
    cap_malloc_arenas();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
                 perfbench --smoke"
            );
            std::process::exit(2);
        }
    };
    if args.smoke {
        // Every workload, briefly, traced: every gate and every layer runs.
        let mut failed = false;
        for spec in &WORKLOADS {
            match run(spec, args.seed, 3.0, true, 1) {
                Ok(report) => {
                    eprintln!("smoke {}: {}", spec.name, report.gates.summary());
                    failed |= !report.gates.passed();
                }
                Err(e) => {
                    eprintln!("smoke {}: error: {e}", spec.name);
                    failed = true;
                }
            }
        }
        std::process::exit(if failed { 1 } else { 0 });
    }
    let spec = Spec::named(&args.workload).expect("validated by parse_args");
    let setups = if args.trace { 1 } else { SETUPS };
    match run(spec, args.seed, args.seconds, args.trace, setups) {
        Ok(mut report) => {
            // Only a full-length run must measure everything: a 3 s smoke
            // run of wide_refit ends before its first refit.
            let end_to_end = report.end_to_end();
            report.gates.check_measured(&end_to_end);
            let path = report.write_results(&PathBuf::from(RESULTS_DIR));
            match path {
                Ok(path) => eprintln!("perfbench: results in {}", path.display()),
                Err(e) => eprintln!("perfbench: could not write results: {e}"),
            }
            if report.generator_behind() {
                eprintln!("perfbench: WARNING: the load generator fell behind its schedule");
            }
            if !report.gates.passed() {
                eprintln!("perfbench: correctness gates failed: {}", report.gates.summary());
            }
            println!("{}", report.last_line());
            std::process::exit(if report.gates.passed() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One run of one workload.
fn run(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    setups: usize,
) -> BenchResult<Report> {
    let mut clock = Instant::now();
    let mut lap = |phases: &mut Vec<(&'static str, f64)>, name| {
        phases.push((name, clock.elapsed().as_secs_f64()));
        clock = Instant::now();
    };
    let mut phases = Vec::new();
    let inputs = Inputs::generate(spec, seed, seconds);
    lap(&mut phases, "inputs");
    let scratch = PathBuf::from(RESULTS_DIR).join(format!("tmp-{}", std::process::id()));
    let mut setup_s = Vec::with_capacity(setups);
    let mut system = None;
    for k in 0..setups {
        let (booted, secs) = System::boot(spec, &inputs, &scratch.join(k.to_string()))?;
        setup_s.push(secs);
        if k + 1 < setups {
            booted.shutdown()?;
        } else {
            system = Some(booted);
        }
    }
    let system = system.expect("at least one setup");
    lap(&mut phases, "setup");
    let outcome = measure(spec, seed, &inputs, seconds, trace, &system, setup_s);
    lap(&mut phases, "timed, counters, gates, replay");
    let shutdown = system.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
    let (mut report, mut tracer) = outcome?;
    shutdown?;
    lap(&mut phases, "shutdown");
    if trace {
        if spec.topology == workload::Topology::Fabric {
            let dir = PathBuf::from(RESULTS_DIR).join(format!("replay-{}", std::process::id()));
            let acked: Vec<bool> = report.ingest.records.iter().map(|r| r.ok()).collect();
            let replayed = replay::fabric(spec, &inputs, &acked, &mut tracer, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            report.replayed = Some(replayed?);
            lap(&mut phases, "write replay");
        }
        trace_read_path(&mut report, &inputs, tracer)?;
        lap(&mut phases, "read replay");
    }
    report.phases = phases;
    Ok(report)
}

/// Drives the booted system, reads its counters, checks its answers and,
/// when traced, replays the run through each layer.
fn measure(
    spec: &'static Spec,
    seed: u64,
    inputs: &Inputs,
    seconds: f64,
    trace: bool,
    system: &System,
    setup_s: Vec<f64>,
) -> BenchResult<(Report, Tracer)> {
    let steal_before = load::host_steal_s();
    let (queries, ingest) = timed_phase(spec, inputs, seconds, system)?;
    let steal_s = load::host_steal_s() - steal_before;
    let rss_peak_mb = vm_hwm_mb();
    let counters = read_counters(system)?;
    let journal_bytes =
        system.journal_path().and_then(|p| std::fs::metadata(p).ok()).map_or(0, |m| m.len());

    let mut gates = Gates::default();
    gates.check_connections(&queries, &ingest);
    let acked: Vec<bool> = ingest.records.iter().map(|r| r.ok()).collect();
    let acked_rows =
        inputs.seed_rows.len() + acked.iter().filter(|&&a| a).count() * spec.batch_rows;
    if inputs.schema.cell_count() > pka_maxent::DEFAULT_DENSE_CEILING {
        gates.check(
            counters.query_server.dense_evals == 0,
            format!(
                "dense_evals == 0 past the dense ceiling ({})",
                counters.query_server.dense_evals
            ),
        );
    }

    let mut tracer = Tracer::new(trace);
    let replayed = match spec.topology {
        workload::Topology::Standalone => {
            let replayed = replay::standalone(spec, inputs, &acked, &mut tracer)?;
            gates.check_against_reference(system, inputs, &replayed.served)?;
            Some(replayed)
        }
        workload::Topology::Fabric => {
            // The write replay runs after shutdown: an idle fabric still
            // polls shards every 25 ms and would take CPU from it.
            gates.check_fabric(system, inputs, acked_rows as u64)?;
            None
        }
    };

    let mut report =
        Report::new(spec, seed, inputs, seconds, trace, setup_s, queries, ingest, gates);
    report.rss_peak_mb = rss_peak_mb;
    report.host_steal_s = steal_s;
    report.journal_bytes = journal_bytes;
    report.counters = Some(counters);
    report.replayed = replayed;
    Ok((report, tracer))
}

/// The read-path replay of a traced run, made after the system has shut
/// down so its threads take no CPU from it.  It runs untraced and traced,
/// alternately, three times each; the tracing overhead compares the
/// fastest of each kind.
fn trace_read_path(report: &mut Report, inputs: &Inputs, mut tracer: Tracer) -> BenchResult<()> {
    let Some(replayed) = report.replayed.as_ref() else { return Ok(()) };
    let count = READ_REPLAY_QUERIES.min(inputs.query_seq.len());
    let (mut plain, mut traced) = (Duration::MAX, Duration::MAX);
    for round in 0..3 {
        let untraced = replay::read_path(inputs, &replayed.served, count, &mut Tracer::new(false))?;
        plain = plain.min(untraced);
        // Only the first traced pass keeps its spans.
        let mut scratch = Tracer::new(true);
        let sink = if round == 0 { &mut tracer } else { &mut scratch };
        traced = traced.min(replay::read_path(inputs, &replayed.served, count, sink)?);
    }
    report.trace_overhead_frac = Some(traced.as_secs_f64() / plain.as_secs_f64() - 1.0);
    report.spans = tracer.summary();
    let spans_path = PathBuf::from(RESULTS_DIR)
        .join(format!("{}-seed{}-spans.jsonl", report.spec.name, report.seed));
    if let Err(e) =
        std::fs::create_dir_all(RESULTS_DIR).and_then(|_| tracer.write_jsonl(&spans_path))
    {
        eprintln!("perfbench: could not write {}: {e}", spans_path.display());
    }
    Ok(())
}

/// The timed phase: the query stream on this thread, the ingest stream on
/// one more; both start together.
fn timed_phase(
    spec: &Spec,
    inputs: &Inputs,
    seconds: f64,
    system: &System,
) -> BenchResult<(ConnLog, ConnLog)> {
    let connect = |addr| -> BenchResult<TcpStream> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        Ok(stream)
    };
    let query_conn = connect(system.query_addr())?;
    let ingest_conn = connect(system.ingest_addr())?;
    let secs = Duration::from_secs_f64;
    let query_plan = Plan {
        kind: Kind::Query,
        inputs,
        open: (0..inputs.query_seq.len())
            .map(|i| (secs(i as f64 / spec.query_hz), i as u32))
            .collect(),
        closed: Some((secs(open_loop_share(seconds)), secs(seconds))),
        drain: Duration::from_secs(30),
    };
    // Batches are due half a period in, so the first one does not
    // coincide with the first query.
    let ingest_plan = Plan {
        kind: Kind::Ingest,
        inputs,
        open: (0..inputs.batches.len())
            .map(|j| (secs((j as f64 + 0.5) / spec.batch_hz), j as u32))
            .collect(),
        closed: None,
        drain: Duration::from_secs(60),
    };
    let t0 = Instant::now() + Duration::from_millis(20);
    let (queries, ingest) = std::thread::scope(|scope| {
        let writer = scope.spawn(move || load::drive(ingest_conn, t0, ingest_plan));
        let queries = load::drive(query_conn, t0, query_plan);
        (queries, writer.join())
    });
    let ingest = ingest.map_err(|_| "ingest generator thread panicked".to_string())?;
    Ok((queries, ingest))
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Caps glibc's malloc arenas at one per core.  By default every thread
/// that meets contention may get an arena of its own, and which threads
/// free what, when, then moved the peak resident set by up to a fifth
/// between runs of the same inputs.  Must run before any thread starts.
fn cap_malloc_arenas() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // SAFETY: mallopt only adjusts allocator tuning; it is called before
    // this process starts any thread, and an unknown parameter is ignored.
    unsafe {
        mallopt(M_ARENA_MAX, cores as i32);
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
