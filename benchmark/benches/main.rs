//! The LIDC benchmark binary. See `benchmark/README.md`.
//!
//! ```text
//! lidc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lidc-benchmark --smoke [--seed <n>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…, "attempted":…, "failed":…, "metrics":{…}}`.

mod alloc;
mod consumer;
mod layers;
mod probes;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use alloc::AllocCount;
use layers::{Table, TracedRep};
use lidc_datalake::segment::DEFAULT_SEGMENT_SIZE;
use trace::{Layer, Runner, Tracer};
use workloads::{execute, prepare, Outcome, Prepared, Sizes, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed `BENCHMARK.json` and the README numbers were recorded with.
const DEFAULT_SEED: u64 = 20_240_913;
/// Timed repetitions a run needs before it may stop on the clock.
const MIN_TIMED_REPS: usize = 5;
/// Untraced/traced repetition pairs a traced run needs, at least.
const MIN_TRACED_PAIRS: usize = 2;
/// Time spent on extra world constructions, as a share of the time spent
/// in repetitions.
const SETUP_BUDGET_SHARE: f64 = 0.075;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    results_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
        results_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--results-dir" => args.results_dir = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.smoke && args.workload.is_none() {
        return Err("give --workload <name> or --smoke".to_owned());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// One repetition: fresh world, measured pieces, checks.
struct Rep {
    setup: Duration,
    wall: Duration,
    alloc: AllocCount,
    outcome: Outcome,
    tracer: Option<Tracer>,
}

fn repetition(workload: Workload, seed: u64, sizes: Sizes, traced: bool) -> Rep {
    let t0 = Instant::now();
    let mut prepared = prepare(workload, seed, sizes);
    let setup = t0.elapsed();
    let mut runner = match (&prepared, traced) {
        // Load reporters are the only overlay actors without a public
        // handle, so a step no watched actor accounts for is theirs.
        (Prepared::Stepped(world), true) => {
            Runner::traced(Tracer::new(&world.actors, Layer::CorePlacement))
        }
        _ => Runner::timed(),
    };
    let outcome = execute(workload, &mut prepared, &mut runner);
    Rep {
        setup,
        wall: runner.wall,
        alloc: runner.alloc,
        outcome,
        tracer: runner.tracer,
    }
}

/// The sim-side values that must not move between repetitions of one input.
#[derive(Debug, PartialEq)]
struct ExactView {
    ops: u64,
    attempted: u64,
    failed: u64,
    tail_bits: u64,
    fingerprint: (u64, u64, u64),
}

fn exact_view(rep: &Rep) -> ExactView {
    ExactView {
        ops: rep.outcome.ops,
        attempted: rep.outcome.attempted,
        failed: rep.outcome.failed(),
        tail_bits: rep.outcome.tail().1.to_bits(),
        fingerprint: rep.outcome.fingerprint(),
    }
}

fn check_reps<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> Result<(), String> {
    let mut reps = reps.into_iter().peekable();
    let first = *reps.peek().ok_or("no repetitions ran")?;
    for rep in reps {
        if let Some(err) = &rep.outcome.check_error {
            return Err(format!("output check failed: {err}"));
        }
        if exact_view(rep) != exact_view(first) {
            return Err(format!(
                "repetitions of one input differ: {:?} vs {:?}",
                exact_view(first),
                exact_view(rep)
            ));
        }
    }
    Ok(())
}

/// Allocation counts repeat to within one table's worth, not to the last
/// digit: the standard `HashMap`'s per-instance random keys move tombstones
/// around, which shifts whether a full table rehashes in place or
/// reallocates. Observed: ±1 call and ±170 KiB per repetition.
fn allocs_agree(a: AllocCount, b: AllocCount) -> bool {
    let close = |x: u64, y: u64, abs: u64, rel: f64| {
        x.abs_diff(y) <= abs || x.abs_diff(y) as f64 <= rel * x.max(y) as f64
    };
    close(a.calls, b.calls, 8, 1e-4) && close(a.bytes, b.bytes, 1 << 20, 1e-3)
}

/// The middle value; of an even count, the lower of the two middle ones,
/// so that the median of counts is a count that was seen.
fn median<T: Ord + Copy>(values: impl IntoIterator<Item = T>) -> Option<T> {
    let mut sorted: Vec<T> = values.into_iter().collect();
    sorted.sort_unstable();
    sorted.get(sorted.len().saturating_sub(1) / 2).copied()
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// (name, value, unit) rows of a result line.
type MetricRows = Vec<(&'static str, f64, &'static str)>;

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: MetricRows,
    note: String,
}

/// Build the workload's world over and over for `budget`, pushing the time
/// per construction in picoseconds (a batch mean has digits below the
/// clock's nanosecond). Worlds that build in milliseconds need this: one
/// sample per repetition would leave `setup_s` the median of a handful of
/// sub-millisecond readings.
fn sample_setups(
    workload: Workload,
    seed: u64,
    sizes: Sizes,
    budget: Duration,
    setups: &mut Vec<u128>,
) {
    let started = Instant::now();
    loop {
        // One sample is at least a millisecond of constructions, so that a
        // world built in microseconds is not timed against the clock's own
        // cost; the worlds are dropped after the clock is read.
        let mut built = Vec::new();
        let t0 = Instant::now();
        while built.is_empty() || t0.elapsed() < Duration::from_millis(1) {
            if started.elapsed() >= budget {
                return;
            }
            built.push(prepare(workload, seed, sizes));
        }
        setups.push(t0.elapsed().as_nanos() * 1000 / built.len() as u128);
    }
}

/// The timed run: warm-up, then repetitions of the identical input until
/// the clock runs out, at least [`MIN_TIMED_REPS`].
fn timed_run(
    workload: Workload,
    seed: u64,
    sizes: Sizes,
    seconds: f64,
    min_reps: usize,
) -> RunResult {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    // The warm-up repetition is discarded, its world construction too.
    drop(repetition(workload, seed, sizes, false));
    let mut reps = Vec::new();
    let mut setups = Vec::new();
    while reps.len() < min_reps || started.elapsed() < budget {
        let rep = repetition(workload, seed, sizes, false);
        setups.push(rep.setup.as_nanos() * 1000);
        // Set-up samples are spread over the run like the repetitions are,
        // so a loud spell on the host reaches only its share of them. A
        // world too slow to build in the slice has this one sample.
        let slice = rep.wall.mul_f64(SETUP_BUDGET_SHARE);
        if rep.setup < slice {
            sample_setups(workload, seed, sizes, slice, &mut setups);
        }
        reps.push(rep);
    }
    let checked = check_reps(&reps);
    let walls_ms: Vec<u128> = reps.iter().map(|r| r.wall.as_millis()).collect();
    let first = &reps[0];
    let allocs_equal = reps.iter().all(|r| allocs_agree(r.alloc, first.alloc));
    let ops = first.outcome.ops.max(1) as f64;
    // The fastest repetition stands for the run. The repetitions do
    // identical work, so they differ only by what the host adds, and on a
    // shared host that arrives in spells as long as a run: a median follows
    // a spell that covers half the run, the minimum only one that covers
    // all of it (README, Repeatability).
    let wall = reps.iter().map(|r| r.wall).min().unwrap_or_default();
    let calls = median(reps.iter().map(|r| r.alloc.calls)).unwrap_or(0);
    let bytes = median(reps.iter().map(|r| r.alloc.bytes)).unwrap_or(0);
    let (pct, tail) = first.outcome.tail();
    let metrics = vec![
        (
            "setup_s",
            median(setups.iter().copied()).map_or(0.0, |ps| ps as f64 * 1e-12),
            "s",
        ),
        ("ops_per_s", ops / wall.as_secs_f64(), "1/s"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ("allocs_per_op", calls as f64 / ops, "count"),
        ("alloc_kib_per_op", bytes as f64 / 1024.0 / ops, "KiB"),
        ("sim_latency_tail_s", tail, "sim_s"),
        (
            "completed_share",
            first.outcome.ops as f64 / first.outcome.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    let (f_events, f_counters, f_latency) = first.outcome.fingerprint();
    let mut note = format!(
        "{}: seed {seed}, {} timed repetitions of {} ops, {} set-up samples, \
         tail = p{pct} of {} samples, fingerprint {f_events:x}/{f_counters:x}/{f_latency:x}",
        workload.name(),
        reps.len(),
        first.outcome.ops,
        setups.len(),
        first
            .outcome
            .latencies_s
            .len()
            .max(first.outcome.ops as usize),
    );
    let _ = write!(note, "; repetition wall ms {walls_ms:?}");
    let mut correct = true;
    if let Err(err) = checked {
        correct = false;
        let _ = write!(note, "; ERROR {err}");
    }
    if !allocs_equal {
        correct = false;
        let _ = write!(
            note,
            "; ERROR repetitions of one input differ: allocations {:?}",
            reps.iter()
                .map(|r| (r.alloc.calls, r.alloc.bytes))
                .collect::<Vec<_>>()
        );
    }
    RunResult {
        correct,
        attempted: first.outcome.attempted,
        failed: first.outcome.failed(),
        metrics,
        note,
    }
}

/// The traced run: same binary, same inputs. Untraced and traced
/// repetitions alternate so both see the same machine state; the per-layer
/// table is built from the fastest repetition of each kind.
fn traced_run(
    workload: Workload,
    seed: u64,
    sizes: Sizes,
    seconds: f64,
    min_pairs: usize,
    results_dir: Option<&PathBuf>,
) -> RunResult {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let warmup = repetition(workload, seed, sizes, false);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while traced.len() < min_pairs || started.elapsed() < budget {
        plain.push(repetition(workload, seed, sizes, false));
        traced.push(repetition(workload, seed, sizes, true));
    }
    let mut correct = true;
    let mut note = format!(
        "{}: seed {seed}, {} traced repetitions",
        workload.name(),
        traced.len()
    );
    // Tracing must not change what the simulation did.
    if let Err(err) = check_reps(std::iter::once(&warmup).chain(&plain).chain(&traced)) {
        correct = false;
        let _ = write!(note, "; ERROR {err}");
    }
    let timed_wall = plain.iter().map(|r| r.wall).min().unwrap_or_default();
    let rep = traced
        .iter()
        .min_by_key(|r| r.wall)
        .expect("at least one traced repetition");

    let facts = &rep.outcome.facts;
    let fact = |k: &str, default: f64| facts.get(k).copied().unwrap_or(default);
    // Sub-KiB control replies unless the workload measured its payloads.
    let payload_bytes = (fact("ndn.packet.payload_kib_p50", 0.0625) * 1024.0) as usize;
    let shape = probes::Shape {
        payload_bytes,
        // The file server's default, unless the consumer measured another.
        segment_bytes: facts
            .get("ndn.packet.payload_kib_p50")
            .map_or(DEFAULT_SEGMENT_SIZE, |kib| (kib * 1024.0) as usize),
        cs_len: fact("router.cs_len", 64.0) as usize,
        cs_budget_bytes: fact("router.cs_budget_bytes", 0.0) as u64,
        fib_len: fact("router.fib_len", 8.0) as usize,
        jobs_per_cluster: fact("k8s.jobs_per_cluster", 32.0) as usize,
    };
    let costs = probes::run(&shape);
    let mut table = Table::unmeasured();
    table.fill_probes(&costs, payload_bytes);
    table.fill_facts(&rep.outcome);
    if let Some(tracer) = &rep.tracer {
        let traced_rep = TracedRep {
            outcome: &rep.outcome,
            tracer,
            traced_wall: rep.wall,
        };
        table.fill_traced(&traced_rep, &costs, timed_wall);
        if let Some(dir) = results_dir {
            let run_id = format!("{}-{seed}", workload.name());
            let path = dir.join(format!("trace-{run_id}.json"));
            let written = std::fs::create_dir_all(dir).and_then(|()| {
                std::fs::write(&path, tracer.to_json(&run_id, workload.name(), rep.wall))
            });
            match written {
                Ok(()) => {
                    let _ = write!(note, "; spans written to {}", path.display());
                }
                Err(e) => {
                    let _ = write!(note, "; could not write {}: {e}", path.display());
                }
            }
        }
        if table.get("harness.trace.attributed_share") < 0.9 {
            let _ = write!(
                note,
                "; WARNING attributed_share {:.3} < 0.9",
                table.get("harness.trace.attributed_share")
            );
        }
    }
    RunResult {
        correct,
        attempted: rep.outcome.attempted,
        failed: rep.outcome.failed(),
        metrics: table.iter().collect(),
        note,
    }
}

fn json_line(result: &RunResult) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct, result.attempted, result.failed
    );
    for (i, (name, value, unit)) in result.metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    s.push_str("}}");
    s
}

/// All five workloads at 1/16 size with every check, in a few seconds.
fn smoke(seed: u64) -> ExitCode {
    let sizes = Sizes { divisor: 16 };
    let mut ok = true;
    for workload in Workload::ALL {
        let t0 = Instant::now();
        let timed = timed_run(workload, seed, sizes, 0.0, 2);
        let traced = traced_run(workload, seed, sizes, 0.0, 1, None);
        let pass = timed.correct && traced.correct && timed.failed == 0;
        ok &= pass;
        println!(
            "{:<15} {}  {:.2}s  {}",
            workload.name(),
            if pass { "ok  " } else { "FAIL" },
            t0.elapsed().as_secs_f64(),
            timed.note
        );
        if !traced.correct {
            println!("  {}", traced.note);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lidc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return smoke(args.seed);
    }
    let workload = args.workload.expect("checked in parse_args");
    let sizes = Sizes { divisor: 1 };
    let result = if args.trace {
        traced_run(
            workload,
            args.seed,
            sizes,
            args.seconds,
            MIN_TRACED_PAIRS,
            args.results_dir.as_ref(),
        )
    } else {
        timed_run(workload, args.seed, sizes, args.seconds, MIN_TIMED_REPS)
    };
    eprintln!("{}", result.note);
    for (name, value, unit) in &result.metrics {
        eprintln!("  {name:<48} {value:>16.6} {unit}");
    }
    println!("{}", json_line(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
