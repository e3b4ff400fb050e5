//! End-to-end and per-layer benchmark of the corrected-trees workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up several times (the median is `setup_s`), then
//! runs its closed loop for `--seconds` and checks every output. With
//! `--trace 0` the last line of standard output is one JSON object with
//! every end-to-end metric; with `--trace 1` the loop runs half the time
//! untraced and half traced (spans plus a telemetry hub), then the
//! per-layer probes run, and the JSON holds every per-layer metric and
//! the tracing overhead. Spans are written to
//! `perfbench/out/<workload>-seed<n>.spans.jsonl`. A failed correctness
//! check prints `"correct": false` and exits 1; bad arguments exit 2.
//! See `perfbench/README.md`.

mod layers;
mod measure;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use layers::Report;
use measure::{median, EndToEnd, Meter, Tally};
use trace::Tracer;
use workloads::{Kind, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| {
        let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload {workload:?}; one of {}", names.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Run the closed loop for `seconds`.
fn measure(
    w: &mut dyn Workload,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Tally, f64, f64), String> {
    let mut tally = Tally::default();
    let meter = Meter::start();
    while meter.wall().as_secs_f64() < seconds {
        tracer.next_op();
        w.op(&mut tally, tracer)?;
    }
    let (wall_s, cpu_ms) = meter.stop();
    Ok((tally, wall_s, cpu_ms))
}

fn summarize(kind: Kind, tally: &Tally, wall_s: f64, cpu_ms: f64) -> EndToEnd {
    EndToEnd::from_phase(
        tally,
        wall_s,
        cpu_ms,
        kind.tail_pct(),
        kind.deadline().as_secs_f64() * 1e3,
    )
}

/// What the run measured, before it is printed.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Report,
}

fn run(args: &Args, started: Instant, tally_out: &mut Tally) -> Result<Outcome, String> {
    let kind = args.kind;
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for i in 0..SETUP_REPEATS {
        drop(workload.take());
        // The first set-up counts from process start.
        let t = if i == 0 { started } else { Instant::now() };
        workload = Some(workloads::setup(kind, args.seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");
    let setup_s = median(&setups);
    // Memory the workload holds once set up and warmed: the gated
    // figure. The process peak at exit is only printed, because on
    // pubsub_mux it depends on timing (mailbox spill queues and
    // per-thread allocator arenas grow with how far broadcasts overlap).
    let setup_rss_mb = measure::peak_rss_mb();

    if !args.trace {
        let (tally, wall_s, cpu_ms) = measure(w.as_mut(), args.seconds, &mut Tracer::new(false))?;
        let e = summarize(kind, &tally, wall_s, cpu_ms);
        describe(kind, "untraced", &e);
        let mut m = Report::default();
        m.put("setup_s", "s", setup_s);
        m.put("ops_per_s", "1/s", e.ops_per_s);
        m.put("latency_p50_ms", "ms", e.latency_p50_ms);
        m.put("latency_tail_ms", "ms", e.latency_tail_ms);
        m.put("cpu_ms_per_op", "ms", e.cpu_ms_per_op);
        m.put("setup_rss_mb", "MB", setup_rss_mb);
        eprintln!(
            "[{}] peak RSS at exit {:.3} MB (not gated)",
            kind.name(),
            measure::peak_rss_mb()
        );
        if !tally.failures.is_empty() {
            eprintln!(
                "[{}] the simulator colors {} of the {} failed broadcasts completely",
                kind.name(),
                layers::replay_failures(&tally)?,
                tally.failures.len()
            );
        }
        tally_out.absorb(tally);
        return Ok(Outcome {
            attempted: e.attempted,
            failed: e.failed,
            metrics: m,
        });
    }

    // Traced run: the same loop untraced, then traced, then the probes.
    let half = args.seconds / 2.0;
    let (ta, wa, ca) = measure(w.as_mut(), half, &mut Tracer::new(false))?;
    let untraced = summarize(kind, &ta, wa, ca);
    describe(kind, "untraced half", &untraced);
    w.attach_telemetry();
    w.warm_up()?;
    let mut tracer = Tracer::new(true);
    let (tb, wb, cb) = measure(w.as_mut(), half, &mut tracer)?;
    let traced = summarize(kind, &tb, wb, cb);
    describe(kind, "traced half", &traced);
    drop(w);

    let mut m = Report::default();
    let mut probe_tally = Tally::default();
    layers::probe_all(kind, args.seed, &mut tracer, &mut probe_tally, &mut m)?;
    let (attempted, failed) = (ta.attempted + tb.attempted, ta.failed + tb.failed);
    tally_out.absorb(ta);
    tally_out.absorb(tb);
    tally_out.absorb(probe_tally);
    let replayed = tracer.span("probe.sim.replay_failures", || {
        layers::replay_failures(tally_out)
    })?;
    m.put("cluster.failed", "count", tally_out.failures.len() as f64);
    m.put("cluster.failed_sim_colored", "count", replayed as f64);
    m.put(
        "trace.overhead.ops_per_s",
        "1/s",
        traced.ops_per_s - untraced.ops_per_s,
    );
    m.put(
        "trace.overhead.latency_p50_ms",
        "ms",
        traced.latency_p50_ms - untraced.latency_p50_ms,
    );
    m.put(
        "trace.overhead.latency_tail_ms",
        "ms",
        traced.latency_tail_ms - untraced.latency_tail_ms,
    );
    m.put(
        "trace.overhead.cpu_ms_per_op",
        "ms",
        traced.cpu_ms_per_op - untraced.cpu_ms_per_op,
    );
    write_spans(kind, args.seed, &tracer);
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// Human-readable phase summary on standard error.
fn describe(kind: Kind, phase: &str, e: &EndToEnd) {
    eprintln!(
        "[{}] {phase}: failed_frac {}/{} = {:.5}; latency tail p{} over {} samples ({} beyond{}); slowest completed {:.3} ms",
        kind.name(),
        e.failed,
        e.attempted,
        e.failed as f64 / e.attempted as f64,
        kind.tail_pct(),
        e.samples,
        e.beyond_tail,
        if e.tail_is_failure {
            "; the tail sample is a failed broadcast, reported at its deadline"
        } else {
            ""
        },
        e.max_ok_ms
    );
}

fn write_spans(kind: Kind, seed: u64, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{seed}.spans.jsonl", kind.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    match written {
        Ok(()) => eprintln!("[{}] spans: {}", kind.name(), path.display()),
        Err(e) => eprintln!(
            "[{}] spans not written to {}: {e}",
            kind.name(),
            path.display()
        ),
    }
    for (name, (count, total, self_ns)) in tracer.summary() {
        eprintln!(
            "  span {name:<40} n={count:<6} total={:>10.3} ms  self={:>10.3} ms",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Report) -> String {
    let mut body = String::new();
    for (i, m) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "[{}] seed {}, {} s; host available_parallelism {}, workers pinned to {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        workloads::WORKERS
    );
    let mut tally = Tally::default();
    match run(&args, started, &mut tally) {
        Ok(out) => {
            for m in &out.metrics.0 {
                if !m.value.is_finite() {
                    eprintln!("perfbench: metric {} is not finite ({})", m.name, m.value);
                    return ExitCode::FAILURE;
                }
                eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
            for f in &tally.failures {
                let stuck = match f.stuck {
                    Some(true) => "; stuck: nothing queued or scheduled",
                    Some(false) => "; work was still queued",
                    None => "",
                };
                eprintln!(
                    "  failed broadcast: {} seed {} left {} live ranks uncolored {:?}{stuck}",
                    f.spec,
                    f.seed,
                    f.uncolored.len(),
                    &f.uncolored[..f.uncolored.len().min(8)]
                );
            }
            println!(
                "{}",
                result_json(true, out.attempted, out.failed, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: correctness check failed: {e}");
            println!(
                "{}",
                result_json(
                    false,
                    tally.attempted.max(1),
                    tally.failed,
                    &Report::default()
                )
            );
            ExitCode::FAILURE
        }
    }
}
