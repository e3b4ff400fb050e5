//! The benchmark workloads. Each is a closed loop driven by the
//! caller: the next operation starts only when the previous one has
//! returned. Every input (fault plans, roots, protocol seeds) is drawn
//! here from the `--seed` argument; the library only sees the inputs.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ct_analysis::{lff_scc, lff_scc_discrete, lscc_bounds};
use ct_core::correction::CorrectionKind;
use ct_core::protocol::BroadcastSpec;
use ct_core::tree::TreeKind;
use ct_exp::{analyze_campaign, Campaign, FaultSpec, Variant};
use ct_logp::LogP;
use ct_obs::telemetry::TelemetryHub;
use ct_obs::{EventKind, Invariant, Violation};
use ct_runtime::{Cluster, ClusterConfig, PubsubOptions, Topic, TopicTable};
use ct_sim::FaultPlan;

use crate::measure::{Failure, Tally};
use crate::trace::Tracer;

/// Machine model of every workload: the paper's `L = 2, o = 1, g = 1`.
pub const LOGP: LogP = LogP::PAPER;
/// Worker threads, pinned (never read from the environment): the
/// campaign's `run_parallel` and the cluster's M:N pool both use 2.
pub const WORKERS: usize = 2;
/// Per-rank mailbox ring capacity, pinned to the runtime default.
const MAILBOX_CAP: usize = 64;

/// Corrected binomial tree with overlapped opportunistic correction at
/// distance 4 ("opp4"): `sim_observed`'s protocol, and the protocol of
/// the traced run's stall probe (see "Known defects" in
/// `perfbench/README.md`).
pub fn opp4() -> BroadcastSpec {
    BroadcastSpec::corrected_tree(
        TreeKind::BINOMIAL,
        CorrectionKind::OpportunisticOptimized { distance: 4 },
    )
}

/// Corrected binomial tree with overlapped checked correction, the
/// cluster workloads' protocol. A workload must have no failed
/// operations, or the failure count of a run would depend on how far it
/// got; on the cluster, opp4 leaves some broadcasts with live ranks
/// uncolored until the watchdog fires. Checked correction keeps probing
/// until it hears from both sides and colored every broadcast it was
/// given.
pub fn checked() -> BroadcastSpec {
    BroadcastSpec::corrected_tree(TreeKind::BINOMIAL, CorrectionKind::Checked)
}

/// splitmix64: the benchmark's own input generator, so inputs depend
/// on `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fc0_77ec_7ed5)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seed small enough that `seed + i` never overflows.
    pub fn seed(&mut self) -> u64 {
        self.next() >> 24
    }

    pub fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }
}

/// Workload names, as given to `--workload`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SimCampaign,
    SimObserved,
    ClusterSolo,
    PubsubMux,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::SimCampaign,
        Kind::SimObserved,
        Kind::ClusterSolo,
        Kind::PubsubMux,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SimCampaign => "sim_campaign",
            Kind::SimObserved => "sim_observed",
            Kind::ClusterSolo => "cluster_solo",
            Kind::PubsubMux => "pubsub_mux",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Ranks.
    pub fn p(self) -> u32 {
        match self {
            Kind::SimCampaign => 16_384,
            Kind::SimObserved => 1_024,
            Kind::ClusterSolo => 4_096,
            Kind::PubsubMux => 1_024,
        }
    }

    /// The latency percentile reported as the tail, fixed per workload
    /// so every run reports the same one. On the simulator workloads it
    /// is the highest of p90/p95/p99 with at least ten samples beyond
    /// it in a 20-second run on a slow 2-core host. On the cluster
    /// workloads p99 also qualifies, but when they ran opp4 its quartile
    /// spread across 10 runs reached 0.35 (`cluster_solo`) and 0.20
    /// (`pubsub_mux`), so p95 is reported there.
    pub fn tail_pct(self) -> f64 {
        match self {
            Kind::SimObserved => 90.0,
            Kind::SimCampaign | Kind::ClusterSolo | Kind::PubsubMux => 95.0,
        }
    }

    /// Watchdog deadline per broadcast on the cluster workloads (0 for
    /// the simulator, which has none). About ten times the slowest
    /// completed broadcast seen on a 2-core host (24 ms on
    /// `cluster_solo`, 77 ms on `pubsub_mux`), so a broadcast that
    /// misses it is stuck, not slow.
    pub fn deadline(self) -> Duration {
        match self {
            Kind::SimCampaign | Kind::SimObserved => Duration::ZERO,
            Kind::ClusterSolo => Duration::from_millis(250),
            Kind::PubsubMux => Duration::from_millis(750),
        }
    }

    /// The protocol whose layers the traced run probes.
    pub fn spec(self) -> BroadcastSpec {
        match self {
            Kind::SimCampaign => {
                BroadcastSpec::corrected_tree_sync(TreeKind::BINOMIAL, CorrectionKind::Checked)
            }
            Kind::SimObserved => opp4(),
            Kind::ClusterSolo | Kind::PubsubMux => checked(),
        }
    }
}

/// One closed-loop workload.
pub trait Workload {
    /// Run one operation, recording its outcome. `Err` means a
    /// correctness check failed, which fails the whole run.
    fn op(&mut self, tally: &mut Tally, tracer: &mut Tracer) -> Result<(), String>;

    /// Warm caches and lazy set-up before timing: one operation unless
    /// the workload says otherwise.
    fn warm_up(&mut self) -> Result<(), String> {
        self.op(&mut Tally::default(), &mut Tracer::new(false))
    }

    /// Switch to the traced configuration by attaching a telemetry hub
    /// (the cluster takes it at construction, so the workloads that
    /// drive one rebuild it).
    fn attach_telemetry(&mut self);
}

/// Build a workload and warm it up. This is the set-up `setup_s` times.
pub fn setup(kind: Kind, seed: u64) -> Result<Box<dyn Workload>, String> {
    let mut rng = Rng::new(seed);
    // The cold tree build a cache miss pays; the drivers below then
    // fill and use the process-wide topology cache.
    TreeKind::BINOMIAL
        .build(kind.p(), &LOGP)
        .map_err(|e| format!("tree build: {e}"))?;
    let mut w: Box<dyn Workload> = match kind {
        Kind::SimCampaign => Box::new(SimCampaign::new(rng.seed())),
        Kind::SimObserved => Box::new(SimObserved::new(rng.seed())),
        Kind::ClusterSolo => Box::new(ClusterSolo::new(&mut rng)?),
        Kind::PubsubMux => Box::new(PubsubMux::new(&mut rng)?),
    };
    w.warm_up()?;
    Ok(w)
}

/// `sim_campaign`: checked-sync binomial at P = 16384 with 1% rate
/// faults, `Campaign::run_parallel(2)` on the `NullSink` arena path.
struct SimCampaign {
    campaign: Campaign,
    next_seed: u64,
    /// Lemma 3 bounds are stated for the continuous model; the
    /// simulator's discrete receive port shifts both by this much.
    discrete_shift: u64,
}

/// Repetitions per `run_parallel` call (2 per worker, each worker
/// reusing one arena for both).
const SIM_CAMPAIGN_CHUNK: u32 = 4;

impl SimCampaign {
    fn new(seed0: u64) -> SimCampaign {
        let campaign = Campaign::new(
            Variant::tree_checked_sync(TreeKind::BINOMIAL),
            Kind::SimCampaign.p(),
            LOGP,
        )
        .with_faults(FaultSpec::Rate(0.01))
        .with_reps(SIM_CAMPAIGN_CHUNK);
        SimCampaign {
            campaign,
            next_seed: seed0,
            discrete_shift: lff_scc_discrete(&LOGP).steps() - lff_scc(&LOGP).steps(),
        }
    }
}

impl Workload for SimCampaign {
    fn op(&mut self, tally: &mut Tally, tracer: &mut Tracer) -> Result<(), String> {
        let campaign = self.campaign.clone().with_seed(self.next_seed);
        self.next_seed += u64::from(SIM_CAMPAIGN_CHUNK);
        let t = Instant::now();
        let records = tracer
            .span("campaign.run_parallel", || campaign.run_parallel(WORKERS))
            .map_err(|e| format!("sim_campaign: {e}"))?;
        // One latency sample per call: its wall time shared out over the
        // repetitions each worker ran.
        let per_rep = t.elapsed() * WORKERS as u32 / SIM_CAMPAIGN_CHUNK;
        tally.ok_batch(u64::from(SIM_CAMPAIGN_CHUNK), per_rep);
        for rec in &records {
            if !rec.all_live_colored {
                return Err(format!(
                    "sim_campaign seed {}: {} live ranks uncolored",
                    rec.seed, rec.uncolored
                ));
            }
            let lscc = rec
                .lscc
                .ok_or_else(|| format!("sim_campaign seed {}: no L_SCC", rec.seed))?;
            let (lo, hi) = lscc_bounds(rec.g_max, &LOGP);
            let (lo, hi) = (
                lo.steps() + self.discrete_shift,
                hi.steps() + self.discrete_shift,
            );
            if lscc < lo || lscc > hi {
                return Err(format!(
                    "sim_campaign seed {}: L_SCC {lscc} outside Lemma 3 bounds [{lo}, {hi}] at g_max {}",
                    rec.seed, rec.g_max
                ));
            }
        }
        Ok(())
    }

    fn attach_telemetry(&mut self) {
        let hub = Arc::new(TelemetryHub::new(1, Kind::SimCampaign.p() as usize));
        self.campaign = self.campaign.clone().with_telemetry(hub);
    }
}

/// `sim_observed`: the figure-manifest path, `analyze_campaign`, on
/// opp4 at P = 1024 with 1% rate faults. Runnable, but not listed in
/// `BENCHMARK.json`: a few of its repetitions fail (see "Known defects"
/// in `perfbench/README.md`).
struct SimObserved {
    campaign: Campaign,
    next_seed: u64,
}

/// Repetitions per `analyze_campaign` call.
const SIM_OBSERVED_CHUNK: u32 = 4;

impl SimObserved {
    fn new(seed0: u64) -> SimObserved {
        let campaign = Campaign::new(
            Variant::tree_opportunistic(TreeKind::BINOMIAL, 4),
            Kind::SimObserved.p(),
            LOGP,
        )
        .with_faults(FaultSpec::Rate(0.01))
        .with_reps(SIM_OBSERVED_CHUNK);
        SimObserved {
            campaign,
            next_seed: seed0,
        }
    }
}

impl Workload for SimObserved {
    fn op(&mut self, tally: &mut Tally, tracer: &mut Tracer) -> Result<(), String> {
        let campaign = self.campaign.clone().with_seed(self.next_seed);
        self.next_seed += u64::from(SIM_OBSERVED_CHUNK);
        let t = Instant::now();
        let analysis = tracer
            .span("exp.analyze_campaign", || analyze_campaign(&campaign))
            .map_err(|e| format!("sim_observed: {e}"))?;
        let latency = t.elapsed() / SIM_OBSERVED_CHUNK;
        let mut defective = BTreeSet::new();
        for v in &analysis.monitor.violations {
            if !is_phase_end_defect(v) {
                return Err(format!(
                    "sim_observed seed {}: invariant monitor found {} violations: {}",
                    campaign.seed0,
                    analysis.monitor.violations.len(),
                    analysis.monitor.render_text()
                ));
            }
            eprintln!(
                "[sim_observed] seed {}: known defect, counted as failed: {}",
                campaign.seed0 + u64::from(v.rep),
                v.message
            );
            defective.insert(v.rep);
        }
        let failed = defective.len() as u64;
        tally.ok_batch(u64::from(SIM_OBSERVED_CHUNK) - failed, latency);
        tally.failed_ops(failed);
        for (rec, rep) in analysis.records.iter().zip(&analysis.reps) {
            if !rec.all_live_colored {
                return Err(format!(
                    "sim_observed seed {}: {} live ranks uncolored",
                    rec.seed, rec.uncolored
                ));
            }
            if !rep.critpath.attribution_is_exact() || rep.critpath.len != rep.completion {
                return Err(format!(
                    "sim_observed seed {}: critical path {} does not attribute completion {} exactly",
                    rec.seed, rep.critpath.len, rep.completion
                ));
            }
        }
        Ok(())
    }

    fn attach_telemetry(&mut self) {
        // `analyze_campaign` attaches a hub of its own on every call.
    }
}

/// The one invariant-monitor violation counted as a failed operation
/// instead of failing the run, because it is a known defect of the
/// simulator rather than of the benchmark: the simulator stamps its
/// closing `broadcast` phase end at quiescence, which ignores messages
/// arriving at dead ranks, so a run whose last event drops such a
/// message emits the phase end out of time order (`time-monotone`).
/// Every other violation fails the run.
pub fn is_phase_end_defect(v: &Violation) -> bool {
    v.invariant == Invariant::TimeMonotone
        && matches!(
            v.event.as_ref().map(|e| &e.kind),
            Some(EventKind::PhaseEnd { .. })
        )
        && matches!(
            v.witness.as_ref().map(|e| &e.kind),
            Some(EventKind::DropDead { .. })
        )
}

/// The cluster configuration every cluster workload and probe uses.
pub fn cluster_config(kind: Kind, workers: usize) -> ClusterConfig {
    ClusterConfig::new()
        .threads(workers)
        .mailbox_capacity(MAILBOX_CAP)
        .timeout(kind.deadline())
}

/// One single-broadcast input: protocol (with its root), dead mask and
/// protocol seed.
#[derive(Clone)]
pub struct SoloCase {
    pub spec: BroadcastSpec,
    pub dead: Vec<bool>,
    pub seed: u64,
}

/// Draw `n` single-broadcast inputs of protocol `spec`: 1% crash faults
/// that never include the root, which is rank 0 or, with `rotate`, a
/// random rank.
pub fn solo_cases(
    rng: &mut Rng,
    spec: BroadcastSpec,
    p: u32,
    n: usize,
    rotate: bool,
) -> Result<Vec<SoloCase>, String> {
    (0..n)
        .map(|_| {
            let root = if rotate { rng.below(p) } else { 0 };
            let plan = FaultPlan::random_count_protecting(p, p / 100, rng.next(), root)
                .map_err(|e| format!("fault plan: {e}"))?;
            Ok(SoloCase {
                spec: spec.with_root(root),
                dead: plan.mask().to_vec(),
                seed: rng.seed(),
            })
        })
        .collect()
}

/// Run one broadcast and record it. A broadcast past its deadline is a
/// failed operation; a completed one must color every live rank.
pub fn run_solo(
    cluster: &mut Cluster,
    case: &SoloCase,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let report = tracer
        .span("cluster.run_broadcast", || {
            cluster.run_broadcast(&case.spec, &case.dead, case.seed)
        })
        .map_err(|e| format!("cluster: {e}"))?;
    if report.completed {
        let live = case.dead.iter().filter(|d| !**d).count() as u64;
        if !report.uncolored.is_empty() || report.messages + 1 < live {
            return Err(format!(
                "cluster broadcast seed {} reported complete with {} uncolored and {} messages",
                case.seed,
                report.uncolored.len(),
                report.messages
            ));
        }
        tally.ok(report.latency);
    } else {
        // Stuck, not slow: every stranded rank is off the run queue with
        // an empty mailbox, and nothing is queued.
        let stuck = report.stall.as_ref().map(|s| {
            s.runq_depth == 0 && s.ranks.iter().all(|r| !r.scheduled && r.mailbox_len == 0)
        });
        tally.fail(Failure {
            spec: case.spec,
            dead: case.dead.clone(),
            seed: case.seed,
            uncolored: report.uncolored,
            stuck,
        });
    }
    Ok(())
}

/// `cluster_solo`: `Cluster::run_broadcast`, one broadcast at a time,
/// P = 4096 on 2 workers, each broadcast checked correction from rank 0
/// with its own 1% root-protecting fault plan.
struct ClusterSolo {
    cluster: Cluster,
    cases: Vec<SoloCase>,
    next: usize,
}

/// Distinct inputs cycled through by `cluster_solo`.
const SOLO_POOL: usize = 256;

impl ClusterSolo {
    fn new(rng: &mut Rng) -> Result<ClusterSolo, String> {
        let p = Kind::ClusterSolo.p();
        Ok(ClusterSolo {
            cases: solo_cases(rng, checked(), p, SOLO_POOL, false)?,
            cluster: Cluster::with_config(p, LOGP, cluster_config(Kind::ClusterSolo, WORKERS)),
            next: 0,
        })
    }
}

impl Workload for ClusterSolo {
    fn op(&mut self, tally: &mut Tally, tracer: &mut Tracer) -> Result<(), String> {
        let case = &self.cases[self.next % self.cases.len()];
        self.next += 1;
        run_solo(&mut self.cluster, case, tally, tracer)
    }

    fn warm_up(&mut self) -> Result<(), String> {
        let mut tally = Tally::default();
        for _ in 0..8 {
            self.op(&mut tally, &mut Tracer::new(false))?;
        }
        Ok(())
    }

    fn attach_telemetry(&mut self) {
        let p = Kind::ClusterSolo.p();
        let hub = Arc::new(TelemetryHub::new(WORKERS, p as usize));
        let cfg = cluster_config(Kind::ClusterSolo, WORKERS).telemetry(hub);
        self.cluster = Cluster::with_config(p, LOGP, cfg);
    }
}

/// Topics in flight on `pubsub_mux` (and topics per table).
pub const MUX_K: usize = 16;
/// Rounds per topic in one `run_pubsub` call: long enough that the
/// window draining at the end of a call (and a broadcast that stalls
/// to its deadline just before it) is a small part of the call.
const MUX_ROUNDS: usize = 32;

/// Draw a table of `MUX_K` checked-correction topics, each with its own
/// random root, its own 1% root-protecting fault plan and its own seed.
pub fn mux_table(rng: &mut Rng, p: u32) -> Result<TopicTable, String> {
    let mut table = TopicTable::new();
    for (t, case) in solo_cases(rng, checked(), p, MUX_K, true)?
        .into_iter()
        .enumerate()
    {
        table.push(Topic::new(format!("topic-{t}"), case.spec, p, case.seed).with_dead(case.dead));
    }
    Ok(table)
}

/// Totals of one `run_pubsub` call beyond the tally.
#[derive(Default, Clone, Copy)]
pub struct MuxTotals {
    /// Sum of broadcast latencies (completed ones), seconds.
    pub latency_s: f64,
    /// Sum of run wall times, seconds.
    pub elapsed_s: f64,
}

/// Run one multiplexed call and record every broadcast in it.
pub fn run_mux(
    cluster: &mut Cluster,
    table: &TopicTable,
    opts: &PubsubOptions,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<MuxTotals, String> {
    let report = tracer
        .span("pubsub.run_pubsub", || cluster.run_pubsub(table, opts))
        .map_err(|e| format!("pubsub: {e}"))?;
    let mut totals = MuxTotals {
        latency_s: 0.0,
        elapsed_s: report.elapsed.as_secs_f64(),
    };
    for o in report.outcomes {
        let topic = table.get(o.topic).expect("outcome names a topic");
        if o.completed {
            if !o.uncolored.is_empty() {
                return Err(format!(
                    "pubsub broadcast {} reported complete with {} uncolored",
                    o.id,
                    o.uncolored.len()
                ));
            }
            totals.latency_s += o.latency.as_secs_f64();
            tally.ok(o.latency);
        } else {
            tally.fail(Failure {
                spec: topic.spec,
                dead: topic.dead.clone(),
                seed: topic.seed.wrapping_add(o.round as u64),
                uncolored: o.uncolored,
                stuck: None,
            });
        }
    }
    Ok(totals)
}

/// `pubsub_mux`: `Cluster::run_pubsub` with 16 checked-correction
/// topics in flight at P = 1024 on 2 workers.
struct PubsubMux {
    cluster: Cluster,
    tables: Vec<TopicTable>,
    next: usize,
}

/// Distinct topic tables cycled through by `pubsub_mux`.
const MUX_POOL: usize = 8;

impl PubsubMux {
    fn new(rng: &mut Rng) -> Result<PubsubMux, String> {
        let p = Kind::PubsubMux.p();
        let tables = (0..MUX_POOL)
            .map(|_| mux_table(rng, p))
            .collect::<Result<_, _>>()?;
        Ok(PubsubMux {
            tables,
            cluster: Cluster::with_config(p, LOGP, cluster_config(Kind::PubsubMux, WORKERS)),
            next: 0,
        })
    }
}

impl Workload for PubsubMux {
    fn op(&mut self, tally: &mut Tally, tracer: &mut Tracer) -> Result<(), String> {
        let table = &self.tables[self.next % self.tables.len()];
        self.next += 1;
        let opts = PubsubOptions {
            k: MUX_K,
            rounds: MUX_ROUNDS,
        };
        run_mux(&mut self.cluster, table, &opts, tally, tracer).map(|_| ())
    }

    fn warm_up(&mut self) -> Result<(), String> {
        let opts = PubsubOptions {
            k: MUX_K,
            rounds: 2,
        };
        let mut tally = Tally::default();
        run_mux(
            &mut self.cluster,
            &self.tables[0],
            &opts,
            &mut tally,
            &mut Tracer::new(false),
        )?;
        Ok(())
    }

    fn attach_telemetry(&mut self) {
        let p = Kind::PubsubMux.p();
        let hub = Arc::new(TelemetryHub::new(WORKERS, p as usize));
        let cfg = cluster_config(Kind::PubsubMux, WORKERS).telemetry(hub);
        self.cluster = Cluster::with_config(p, LOGP, cfg);
    }
}
