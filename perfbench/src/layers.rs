//! Per-layer probes of the traced run. Each layer is measured from
//! outside, by timing calls into its public functions; the cluster's
//! crate-private layers (scheduler, mailbox, coordinator) are counted
//! through the public `TelemetryHub`. Every probe call runs inside a
//! span.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use ct_analyze::{analyze_rep, AnalyzeConfig, WasteReport};
use ct_core::protocol::{BroadcastSpec, BuildCtx, Payload, Process, ProtocolFactory, SendPoll};
use ct_core::tree::{cache, TreeKind};
use ct_exp::{Campaign, FaultSpec, Variant};
use ct_logp::{Rank, Time};
use ct_obs::telemetry::{Counter, TelemetryHub};
use ct_obs::{Event, MonitorConfig, MonitorSink, VecSink};
use ct_runtime::{Cluster, PubsubOptions, Topic, TopicTable};
use ct_sim::{FaultPlan, RunArena, Simulation};

use crate::measure::{median, median_ns, Meter, Tally};
use crate::trace::Tracer;
use crate::workloads::{
    checked, cluster_config, is_phase_end_defect, mux_table, opp4, run_mux, run_solo, solo_cases,
    Kind, Rng, SoloCase, LOGP, MUX_K, WORKERS,
};

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects metrics in report order.
#[derive(Default)]
pub struct Report(pub Vec<Metric>);

impl Report {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }
}

/// Broadcasts per single-broadcast probe run.
const SOLO_PROBE_BCASTS: usize = 48;
/// Random-root opp4 broadcasts per single-broadcast probe run.
const OPP4_PROBE_BCASTS: usize = 96;
/// Single-broadcast streams checked by the invariant monitor.
const MONITORED_BCASTS: usize = 4;
/// Topic tables per pub/sub probe run, and rounds per table.
const MUX_PROBE_TABLES: usize = 2;
const MUX_PROBE_ROUNDS: usize = 4;

/// Run every probe for `kind`, appending to `out`. Failed cluster
/// broadcasts seen by the probes are added to `tally`. `Err` is a
/// failed correctness check.
pub fn probe_all(
    kind: Kind,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Report,
) -> Result<(), String> {
    let mut rng = Rng::new(seed ^ 0x9a7e_5eed);
    let p = kind.p();
    let spec = kind.spec();
    // Repetitions per simulator-side probe: fewer at larger P, so every
    // workload's probes cost about the same.
    let reps = (32_768 / p as usize).max(2);
    let plans = tracer.span("probe.fault_plans", || -> Result<Vec<_>, String> {
        (0..reps)
            .map(|_| {
                let s = rng.seed();
                FaultPlan::random_rate(p, 0.01, s)
                    .map(|plan| (plan, s))
                    .map_err(|e| format!("fault plan: {e}"))
            })
            .collect()
    })?;

    probe_tree(p, tracer, out)?;
    probe_protocol(p, &spec, &plans, tracer, out)?;
    let streams = probe_sim(p, &spec, &plans, tracer, out)?;
    probe_campaign(p, &spec, rng.seed(), tracer, out)?;
    probe_obs_analyze(p, &spec, &plans, &streams, tracer, out)?;

    let solo = probe_solo(&mut rng, tracer, tally)?;
    let mux = probe_mux(&mut rng, tracer, tally)?;
    out.put("obs.snapshot_us", "us", solo.snapshot_us);
    out.put(
        "obs.telemetry_cpu_overhead",
        "ratio",
        solo.hub.cpu_ms / solo.plain_cpu_ms,
    );
    // The cluster layer figures come from the probe shaped like the
    // workload: the multiplexed driver for pubsub_mux, the
    // single-broadcast driver otherwise.
    let (shape, setup_ms, speedup) = if kind == Kind::PubsubMux {
        (&mux.hub, mux.setup_ms, mux.speedup_2w)
    } else {
        (&solo.hub, solo.setup_ms, solo.speedup_2w)
    };
    shape.report(out);
    out.put("cluster.setup_ms", "ms", setup_ms);
    out.put("cluster.opp4_failed_frac", "ratio", solo.opp4_failed_frac);
    out.put("cluster.speedup_2w", "ratio", speedup);
    out.put("pubsub.inflight_mean", "count", mux.inflight_mean);
    out.put(
        "pubsub.stale_dropped_frac",
        "ratio",
        mux.hub.get(Counter::MsgsStaleDropped) / mux.hub.get(Counter::MsgsSent),
    );
    out.put("pubsub.cpu_ms_per_bcast_k1", "ms", mux.cpu_ms_per_bcast_k1);
    Ok(())
}

fn probe_tree(p: u32, tracer: &mut Tracer, out: &mut Report) -> Result<(), String> {
    let mut err = None;
    let build_ns = tracer.span("probe.tree.build", || {
        median_ns(5, || {
            if let Err(e) = TreeKind::BINOMIAL.build(std::hint::black_box(p), &LOGP) {
                err = Some(e);
            }
        })
    });
    if let Some(e) = err {
        return Err(format!("tree build: {e}"));
    }
    cache::cached(TreeKind::BINOMIAL, p, &LOGP).map_err(|e| format!("tree cache: {e}"))?;
    const HITS: usize = 10_000;
    let hit_ns = tracer.span("probe.tree.cache_hit", || {
        median_ns(5, || {
            for _ in 0..HITS {
                let t = cache::cached(TreeKind::BINOMIAL, std::hint::black_box(p), &LOGP);
                std::hint::black_box(t.is_ok());
            }
        })
    }) / HITS as f64;
    out.put("tree.build_us", "us", build_ns / 1e3);
    out.put("tree.cache_hit_ns", "ns", hit_ns);
    Ok(())
}

/// The benchmark's own protocol driver, with no simulator and no
/// runtime: lockstep rounds in which every message sent in one round
/// is delivered, in global FIFO order, in the next, and each rank's
/// sender port emits at most one message per round. Returns the number
/// of deliveries (steps).
#[derive(Default)]
struct FifoDriver {
    /// In-flight messages: (from, to, payload), all due next round.
    queue: VecDeque<(Rank, Rank, Payload)>,
    /// Ranks to poll this round and next round.
    now_polls: Vec<Rank>,
    next_polls: Vec<Rank>,
    /// Ranks waiting for a later round: (round, rank).
    timed: BinaryHeap<Reverse<(u64, Rank)>>,
    /// Round each rank was last polled in.
    last_poll: Vec<u64>,
}

impl FifoDriver {
    fn drive(&mut self, procs: &mut [Box<dyn Process>], dead: &[bool]) -> u64 {
        self.queue.clear();
        self.next_polls.clear();
        self.timed.clear();
        self.last_poll.clear();
        self.last_poll.resize(procs.len(), u64::MAX);
        self.now_polls.clear();
        self.now_polls
            .extend((0..procs.len() as Rank).filter(|&r| !dead[r as usize]));
        let mut steps = 0u64;
        let mut now = 0u64;
        loop {
            // Messages sent last round arrive now; the queue holds no others.
            for (from, to, payload) in self.queue.drain(..) {
                if !dead[to as usize] {
                    procs[to as usize].on_message(from, payload, Time::new(now));
                    steps += 1;
                    self.now_polls.push(to);
                }
            }
            while let Some(&Reverse((t, r))) = self.timed.peek() {
                if t > now {
                    break;
                }
                self.timed.pop();
                self.now_polls.push(r);
            }
            for r in self.now_polls.drain(..) {
                if std::mem::replace(&mut self.last_poll[r as usize], now) == now {
                    continue;
                }
                match procs[r as usize].poll_send(Time::new(now)) {
                    SendPoll::Now { to, payload } => {
                        self.queue.push_back((r, to, payload));
                        self.next_polls.push(r);
                    }
                    SendPoll::WaitUntil(t) if t.steps() > now + 1 => {
                        self.timed.push(Reverse((t.steps(), r)));
                    }
                    SendPoll::WaitUntil(_) => self.next_polls.push(r),
                    SendPoll::Idle | SendPoll::Done => {}
                }
            }
            std::mem::swap(&mut self.now_polls, &mut self.next_polls);
            now = if !self.queue.is_empty() || !self.now_polls.is_empty() {
                now + 1
            } else if let Some(&Reverse((t, _))) = self.timed.peek() {
                t
            } else {
                return steps;
            };
        }
    }
}

fn probe_protocol(
    p: u32,
    spec: &BroadcastSpec,
    plans: &[(FaultPlan, u64)],
    tracer: &mut Tracer,
    out: &mut Report,
) -> Result<(), String> {
    let mut procs: Vec<Box<dyn Process>> = Vec::new();
    let ctx = |seed| BuildCtx {
        p,
        logp: LOGP,
        seed,
    };
    spec.build_into(&ctx(0), &mut procs)
        .map_err(|e| format!("protocol build: {e}"))?;
    let build_ns = tracer.span("probe.protocol.build_into", || {
        median_ns(5, || {
            spec.build_into(&ctx(0), &mut procs)
                .expect("the same spec built a moment ago");
        })
    });
    out.put("protocol.build_ns_per_rank", "ns", build_ns / f64::from(p));

    let mut driver = FifoDriver::default();
    let mut pass_ns = Vec::new();
    let mut counts: Option<u64> = None;
    for _ in 0..3 {
        let mut steps = 0u64;
        let mut ns = 0u64;
        for (plan, seed) in plans {
            spec.build_into(&ctx(*seed), &mut procs)
                .map_err(|e| format!("protocol build: {e}"))?;
            let open = tracer.enter("probe.protocol.fifo_drive");
            let t = Instant::now();
            steps += driver.drive(&mut procs, plan.mask());
            ns += t.elapsed().as_nanos() as u64;
            tracer.exit(open);
        }
        if counts.is_some_and(|c| c != steps) {
            return Err(format!(
                "protocol steps not deterministic: {steps} vs {counts:?}"
            ));
        }
        counts = Some(steps);
        pass_ns.push(ns as f64 / steps as f64);
    }
    let steps = counts.expect("three passes ran");
    out.put("protocol.step_ns", "ns", median(&pass_ns));
    out.put(
        "protocol.steps_per_op",
        "count",
        steps as f64 / plans.len() as f64,
    );
    Ok(())
}

/// Simulator probes; returns each repetition's event stream (VecSink
/// pass) for the observability probes.
fn probe_sim(
    p: u32,
    spec: &BroadcastSpec,
    plans: &[(FaultPlan, u64)],
    tracer: &mut Tracer,
    out: &mut Report,
) -> Result<Vec<Vec<Event>>, String> {
    let plan_ns = tracer.span("probe.sim.fault_plan", || {
        let mut i = 0u64;
        median_ns(plans.len().max(5), || {
            i += 1;
            let plan = FaultPlan::random_rate(p, 0.01, std::hint::black_box(i));
            std::hint::black_box(plan.is_ok());
        })
    });
    out.put("sim.fault_plan_us", "us", plan_ns / 1e3);

    let sim = |plan: &FaultPlan, seed: u64| {
        Simulation::builder(p, LOGP)
            .faults(plan.clone())
            .seed(seed)
            .build()
    };
    let mut arena = RunArena::new();
    let mut null_ns = Vec::new();
    let mut totals: Option<(u64, u64)> = None;
    for _ in 0..3 {
        let (mut events, mut msgs, mut ns) = (0u64, 0u64, 0u64);
        for (plan, seed) in plans {
            let s = sim(plan, *seed);
            let open = tracer.enter("probe.sim.run_reusable");
            let t = Instant::now();
            let o = s
                .run_reusable(spec, &mut arena)
                .map_err(|e| format!("simulation: {e}"))?;
            ns += t.elapsed().as_nanos() as u64;
            tracer.exit(open);
            if !o.all_live_colored() {
                return Err(format!("simulation seed {seed}: live ranks uncolored"));
            }
            events += o.events;
            msgs += o.messages.total();
        }
        if totals.is_some_and(|t| t != (events, msgs)) {
            return Err(format!(
                "simulator counts not deterministic: {:?} vs {totals:?}",
                (events, msgs)
            ));
        }
        totals = Some((events, msgs));
        null_ns.push(ns as f64);
    }
    let (events, msgs) = totals.expect("three passes ran");
    let reps = plans.len() as f64;
    let null_ns = median(&null_ns);
    out.put("sim.ns_per_event", "ns", null_ns / events as f64);
    out.put("sim.events_per_rep", "count", events as f64 / reps);
    out.put("sim.msgs_per_rep", "count", msgs as f64 / reps);
    out.put("sim.arena_bytes", "bytes", arena.footprint_bytes() as f64);

    let mut streams = Vec::with_capacity(plans.len());
    let mut vec_ns = 0u64;
    for (plan, seed) in plans {
        let s = sim(plan, *seed);
        let mut sink = VecSink::new();
        let open = tracer.enter("probe.sim.run_with_sink_reusable");
        let t = Instant::now();
        s.run_with_sink_reusable(spec, &mut sink, &mut arena)
            .map_err(|e| format!("simulation: {e}"))?;
        vec_ns += t.elapsed().as_nanos() as u64;
        tracer.exit(open);
        streams.push(sink.events);
    }
    out.put(
        "sim.sink_ns_per_event",
        "ns",
        (vec_ns as f64 - null_ns) / events as f64,
    );
    Ok(streams)
}

fn probe_campaign(
    p: u32,
    spec: &BroadcastSpec,
    seed0: u64,
    tracer: &mut Tracer,
    out: &mut Report,
) -> Result<(), String> {
    let reps = (65_536 / p).clamp(4, 32);
    let campaign = Campaign::new(Variant::Tree(*spec), p, LOGP)
        .with_faults(FaultSpec::Rate(0.01))
        .with_reps(reps)
        .with_seed(seed0);
    let t = Instant::now();
    let seq = tracer.span("probe.campaign.run", || campaign.run());
    let seq_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let par = tracer.span("probe.campaign.run_parallel", || {
        campaign.run_parallel(WORKERS)
    });
    let par_s = t.elapsed().as_secs_f64();
    let (seq, par) = (
        seq.map_err(|e| format!("campaign: {e}"))?,
        par.map_err(|e| format!("campaign: {e}"))?,
    );
    if seq != par {
        return Err("run_parallel records differ from run()".into());
    }
    out.put(
        "campaign.parallel_eff",
        "ratio",
        seq_s / (WORKERS as f64 * par_s),
    );
    Ok(())
}

fn probe_obs_analyze(
    p: u32,
    spec: &BroadcastSpec,
    plans: &[(FaultPlan, u64)],
    streams: &[Vec<Event>],
    tracer: &mut Tracer,
    out: &mut Report,
) -> Result<(), String> {
    let events: usize = streams.iter().map(Vec::len).sum();
    let mut acfg = AnalyzeConfig::new(LOGP).with_p(p);
    if let Some(start) = Variant::Tree(*spec).sync_start(p, &LOGP) {
        acfg = acfg.with_sync_start(start.steps());
    }
    let (mut monitor_ns, mut dag_ns, mut waste_ns) = (0u64, 0u64, 0u64);
    for ((plan, seed), stream) in plans.iter().zip(streams) {
        let mcfg = MonitorConfig::new()
            .with_p(p)
            .with_logp(LOGP)
            .with_failed(plan.mask().to_vec());
        let t = Instant::now();
        let report = tracer.span("probe.obs.monitor_check", || {
            MonitorSink::check(stream, &mcfg)
        });
        monitor_ns += t.elapsed().as_nanos() as u64;
        if report.violations.iter().any(|v| !is_phase_end_defect(v)) {
            return Err(format!(
                "simulation seed {seed}: monitor violations: {}",
                report.render_text()
            ));
        }
        if !report.is_ok() {
            eprintln!("probe: simulation seed {seed}: known phase-end defect");
        }
        let t = Instant::now();
        let rep = tracer.span("probe.analyze.analyze_rep", || analyze_rep(stream, &acfg));
        dag_ns += t.elapsed().as_nanos() as u64;
        if !rep.critpath.attribution_is_exact() {
            return Err(format!("simulation seed {seed}: inexact critical path"));
        }
        let t = Instant::now();
        let waste = tracer.span("probe.analyze.waste", || {
            WasteReport::from_events(stream, plan.mask())
        });
        waste_ns += t.elapsed().as_nanos() as u64;
        std::hint::black_box(&waste);
    }
    let per = |ns: u64| ns as f64 / events as f64;
    out.put("obs.monitor_ns_per_event", "ns", per(monitor_ns));
    out.put("analyze.dag_ns_per_event", "ns", per(dag_ns));
    out.put("analyze.waste_ns_per_event", "ns", per(waste_ns));
    Ok(())
}

/// Hub counter deltas over a measured cluster run, with its wall and
/// CPU time and the broadcasts it attempted.
struct ClusterRun {
    counters: Vec<f64>,
    wall_s: f64,
    cpu_ms: f64,
    bcasts: f64,
}

impl ClusterRun {
    fn get(&self, c: Counter) -> f64 {
        self.counters[c as usize]
    }

    fn report(&self, out: &mut Report) {
        let sent = self.get(Counter::MsgsSent);
        let quanta = self.get(Counter::SchedQuanta);
        out.put("cluster.cpu_ns_per_msg", "ns", self.cpu_ms * 1e6 / sent);
        out.put("cluster.msgs_per_bcast", "count", sent / self.bcasts);
        out.put(
            "cluster.delivered_frac",
            "ratio",
            self.get(Counter::MsgsDelivered) / sent,
        );
        out.put(
            "cluster.busy_frac",
            "ratio",
            self.get(Counter::SchedBusyUs) / (self.wall_s * 1e6 * WORKERS as f64),
        );
        out.put(
            "cluster.msgs_per_quantum",
            "count",
            self.get(Counter::MsgsDelivered) / quanta,
        );
        out.put(
            "cluster.stale_quanta_frac",
            "ratio",
            self.get(Counter::SchedStaleQuanta) / quanta,
        );
        out.put(
            "cluster.wakes_per_msg",
            "ratio",
            self.get(Counter::SchedWakes) / sent,
        );
        out.put(
            "cluster.quanta_per_batch",
            "count",
            quanta / self.get(Counter::SchedBatches),
        );
        out.put(
            "cluster.coord_batches_per_bcast",
            "count",
            self.get(Counter::CoordBatches) / self.bcasts,
        );
        out.put(
            "cluster.mailbox_spills",
            "count",
            self.get(Counter::MailboxSpills) / self.bcasts,
        );
        out.put(
            "cluster.timer_arms",
            "count",
            self.get(Counter::TimerArms) / self.bcasts,
        );
    }
}

fn counters(hub: &TelemetryHub) -> Vec<u64> {
    Counter::ALL.iter().map(|&c| hub.counter_total(c)).collect()
}

/// Measure `run` on a hub-attached cluster: counter deltas, wall, CPU.
fn metered(
    hub: &TelemetryHub,
    bcasts: usize,
    run: impl FnOnce() -> Result<(), String>,
) -> Result<ClusterRun, String> {
    let before = counters(hub);
    let meter = Meter::start();
    run()?;
    let (wall_s, cpu_ms) = meter.stop();
    let after = counters(hub);
    Ok(ClusterRun {
        counters: after
            .iter()
            .zip(&before)
            .map(|(a, b)| (a - b) as f64)
            .collect(),
        wall_s,
        cpu_ms,
        bcasts: bcasts as f64,
    })
}

/// Median construction time of a cluster, in ms.
fn setup_ms(kind: Kind, tracer: &mut Tracer) -> f64 {
    tracer.span("probe.cluster.with_config", || {
        median_ns(3, || {
            drop(Cluster::with_config(
                kind.p(),
                LOGP,
                cluster_config(kind, WORKERS),
            ));
        })
    }) / 1e6
}

struct SoloProbe {
    hub: ClusterRun,
    opp4_failed_frac: f64,
    plain_cpu_ms: f64,
    snapshot_us: f64,
    setup_ms: f64,
    speedup_2w: f64,
}

/// Run `cases` one broadcast at a time on `cluster`.
fn solo_pass(
    cluster: &mut Cluster,
    cases: &[SoloCase],
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<(), String> {
    for case in cases {
        run_solo(cluster, case, tally, tracer)?;
    }
    Ok(())
}

/// `cluster_solo`-shaped probe: the same inputs with the hub, without
/// it and on one worker; a sample of event streams through the monitor.
fn probe_solo(rng: &mut Rng, tracer: &mut Tracer, tally: &mut Tally) -> Result<SoloProbe, String> {
    let kind = Kind::ClusterSolo;
    let p = kind.p();
    let cases = solo_cases(rng, checked(), p, SOLO_PROBE_BCASTS, false)?;
    let setup_ms = setup_ms(kind, tracer);
    let hub = Arc::new(TelemetryHub::new(WORKERS, p as usize));
    let mut hubbed = Cluster::with_config(
        p,
        LOGP,
        cluster_config(kind, WORKERS).telemetry(Arc::clone(&hub)),
    );
    let mut plain = Cluster::with_config(p, LOGP, cluster_config(kind, WORKERS));
    let mut one = Cluster::with_config(p, LOGP, cluster_config(kind, 1));
    let mut warm = Tally::default();
    for c in [&mut hubbed, &mut plain, &mut one] {
        solo_pass(c, &cases[..2], &mut warm, &mut Tracer::new(false))?;
    }
    let n = cases.len();
    let hub_run = {
        let open = tracer.enter("probe.cluster.solo_hub");
        let r = metered(&hub, n, || solo_pass(&mut hubbed, &cases, tally, tracer));
        tracer.exit(open);
        r?
    };
    let plain_meter = Meter::start();
    tracer.span("probe.cluster.solo_plain", || {
        solo_pass(&mut plain, &cases, tally, &mut Tracer::new(false))
    })?;
    let (plain_wall, plain_cpu_ms) = plain_meter.stop();
    let one_meter = Meter::start();
    tracer.span("probe.cluster.solo_1w", || {
        solo_pass(&mut one, &cases, tally, &mut Tracer::new(false))
    })?;
    let (one_wall, _) = one_meter.stop();
    // The same driver on opp4 with a random root per broadcast: the
    // inputs on which broadcasts stall (see "Known defects" in
    // `perfbench/README.md`), kept here so the stall stays counted.
    let stalling = solo_cases(rng, opp4(), p, OPP4_PROBE_BCASTS, true)?;
    let mut opp4_tally = Tally::default();
    tracer.span("probe.cluster.solo_opp4", || {
        solo_pass(
            &mut plain,
            &stalling,
            &mut opp4_tally,
            &mut Tracer::new(false),
        )
    })?;
    let opp4_failed_frac = opp4_tally.failed as f64 / opp4_tally.attempted as f64;
    tally.absorb(opp4_tally);
    let snapshot_us = tracer.span("probe.obs.snapshot", || {
        median_ns(20, || {
            std::hint::black_box(hub.snapshot());
        })
    }) / 1e3;

    for case in &cases[..MONITORED_BCASTS] {
        let mut sink = VecSink::new();
        let report = tracer
            .span("probe.cluster.run_broadcast_observed", || {
                hubbed.run_broadcast_observed(&case.spec, &case.dead, case.seed, &mut sink)
            })
            .map_err(|e| format!("cluster: {e}"))?;
        check_stream(
            &sink.events,
            p,
            &case.dead,
            report.completed,
            "cluster broadcast",
        )?;
    }
    Ok(SoloProbe {
        hub: hub_run,
        plain_cpu_ms,
        snapshot_us,
        setup_ms,
        speedup_2w: one_wall / plain_wall,
        opp4_failed_frac,
    })
}

/// Invariant-monitor check of one cluster event stream. A broadcast
/// that missed its deadline is already counted as failed, so only its
/// safety invariants are checked, not end-of-run reliability.
fn check_stream(
    events: &[Event],
    p: u32,
    dead: &[bool],
    completed: bool,
    what: &str,
) -> Result<(), String> {
    let mut cfg = MonitorConfig::new().with_p(p).with_failed(dead.to_vec());
    if !completed {
        cfg = cfg.without_reliability();
    }
    let report = MonitorSink::check(events, &cfg);
    if report.is_ok() {
        Ok(())
    } else {
        Err(format!(
            "{what}: monitor violations: {}",
            report.render_text()
        ))
    }
}

struct MuxProbe {
    hub: ClusterRun,
    setup_ms: f64,
    speedup_2w: f64,
    inflight_mean: f64,
    cpu_ms_per_bcast_k1: f64,
}

/// `pubsub_mux`-shaped probe: the same tables at k = 16 with the hub,
/// at k = 1, and on one worker; one table's streams through the monitor.
fn probe_mux(rng: &mut Rng, tracer: &mut Tracer, tally: &mut Tally) -> Result<MuxProbe, String> {
    let kind = Kind::PubsubMux;
    let p = kind.p();
    let tables = (0..MUX_PROBE_TABLES)
        .map(|_| mux_table(rng, p))
        .collect::<Result<Vec<_>, _>>()?;
    let setup_ms = setup_ms(kind, tracer);
    let hub = Arc::new(TelemetryHub::new(WORKERS, p as usize));
    let mut hubbed = Cluster::with_config(
        p,
        LOGP,
        cluster_config(kind, WORKERS).telemetry(Arc::clone(&hub)),
    );
    let mut one = Cluster::with_config(p, LOGP, cluster_config(kind, 1));
    let opts = |k| PubsubOptions {
        k,
        rounds: MUX_PROBE_ROUNDS,
    };
    let bcasts = MUX_PROBE_TABLES * MUX_K * MUX_PROBE_ROUNDS;
    let mut warm = Tally::default();
    for c in [&mut hubbed, &mut one] {
        run_mux(
            c,
            &tables[0],
            &opts(MUX_K),
            &mut warm,
            &mut Tracer::new(false),
        )?;
    }

    let (mut latency_s, mut elapsed_s) = (0.0, 0.0);
    let hub_run = {
        let open = tracer.enter("probe.pubsub.k16_hub");
        let r = metered(&hub, bcasts, || {
            for t in &tables {
                let totals = run_mux(&mut hubbed, t, &opts(MUX_K), tally, tracer)?;
                latency_s += totals.latency_s;
                elapsed_s += totals.elapsed_s;
            }
            Ok(())
        });
        tracer.exit(open);
        r?
    };
    let k1_meter = Meter::start();
    tracer.span("probe.pubsub.k1", || -> Result<(), String> {
        for t in &tables {
            run_mux(&mut hubbed, t, &opts(1), tally, &mut Tracer::new(false))?;
        }
        Ok(())
    })?;
    let (_, k1_cpu_ms) = k1_meter.stop();
    let one_meter = Meter::start();
    tracer.span("probe.pubsub.k16_1w", || -> Result<(), String> {
        for t in &tables {
            run_mux(&mut one, t, &opts(MUX_K), tally, &mut Tracer::new(false))?;
        }
        Ok(())
    })?;
    let (one_wall, _) = one_meter.stop();

    monitor_mux(&mut hubbed, &tables[0], tracer)?;
    Ok(MuxProbe {
        speedup_2w: one_wall / hub_run.wall_s,
        hub: hub_run,
        setup_ms,
        inflight_mean: latency_s / elapsed_s,
        cpu_ms_per_bcast_k1: k1_cpu_ms / bcasts as f64,
    })
}

/// One round of every topic in `table`, each topic's stream checked by
/// the invariant monitor.
fn monitor_mux(
    cluster: &mut Cluster,
    table: &TopicTable,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let p = cluster.p();
    let mut sinks: Vec<VecSink> = table.iter().map(|_| VecSink::new()).collect();
    let mut refs: Vec<&mut dyn ct_obs::EventSink> = sinks
        .iter_mut()
        .map(|s| s as &mut dyn ct_obs::EventSink)
        .collect();
    let opts = PubsubOptions {
        k: MUX_K,
        rounds: 1,
    };
    let report = tracer
        .span("probe.pubsub.run_pubsub_observed", || {
            cluster.run_pubsub_observed(table, &opts, &mut refs)
        })
        .map_err(|e| format!("pubsub: {e}"))?;
    for o in &report.outcomes {
        let topic: &Topic = table.get(o.topic).expect("outcome names a topic");
        check_stream(
            &sinks[o.topic].events,
            p,
            &topic.dead,
            o.completed,
            "pubsub topic",
        )?;
    }
    Ok(())
}

/// Replay every failed cluster broadcast's (protocol, dead mask, seed)
/// on the simulator; the number the simulator colors completely.
pub fn replay_failures(tally: &Tally) -> Result<u64, String> {
    let mut colored = 0;
    for f in &tally.failures {
        let p = f.dead.len() as u32;
        let dead: Vec<Rank> = (0..p).filter(|&r| f.dead[r as usize]).collect();
        let plan = FaultPlan::from_ranks_protecting(p, &dead, f.spec.root)
            .map_err(|e| format!("fault plan: {e}"))?;
        let outcome = Simulation::builder(p, LOGP)
            .faults(plan)
            .seed(f.seed)
            .build()
            .run(&f.spec)
            .map_err(|e| format!("simulation: {e}"))?;
        if outcome.all_live_colored() {
            colored += 1;
        }
    }
    Ok(colored)
}
