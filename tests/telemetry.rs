//! Telemetry contract tests across both drivers.
//!
//! Three guarantees: attaching a [`TelemetryHub`] never perturbs what a
//! run computes (traces and outcomes are byte-identical on vs off); a
//! single-worker cluster run produces exactly predictable counters
//! (the instrumentation counts what it claims to count); and a forced
//! stall yields a [`StallReport`] naming precisely the stranded ranks.

use std::sync::Arc;

use corrected_trees::core::protocol::BroadcastSpec;
use corrected_trees::core::tree::TreeKind;
use corrected_trees::logp::LogP;
use corrected_trees::obs::telemetry::TelemetryHub;
use corrected_trees::obs::VecSink;
use corrected_trees::runtime::{Cluster, ClusterConfig};
use corrected_trees::sim::{FaultPlan, Simulation};

/// Run the reference corrected-tree sim twice — with and without a
/// telemetry hub — and require identical event streams and outcomes.
/// Telemetry must be a pure observer of the simulation.
#[test]
fn sim_trace_is_byte_identical_with_telemetry_attached() {
    let p = 64u32;
    let seed = 42u64;
    let spec = BroadcastSpec::corrected_tree(
        TreeKind::BINOMIAL,
        corrected_trees::core::correction::CorrectionKind::OpportunisticOptimized { distance: 4 },
    );
    let plan = FaultPlan::random_count_protecting(p, 3, seed, 0).unwrap();

    let mut plain_sink = VecSink::new();
    let plain_out = Simulation::builder(p, LogP::PAPER)
        .faults(plan.clone())
        .seed(seed)
        .build()
        .run_with_sink(&spec, &mut plain_sink)
        .unwrap();

    let hub = Arc::new(TelemetryHub::new(1, p as usize));
    let mut obs_sink = VecSink::new();
    let obs_out = Simulation::builder(p, LogP::PAPER)
        .faults(plan)
        .seed(seed)
        .telemetry(Arc::clone(&hub))
        .build()
        .run_with_sink(&spec, &mut obs_sink)
        .unwrap();

    assert_eq!(plain_sink.events, obs_sink.events);
    assert_eq!(plain_out.events, obs_out.events);
    assert_eq!(plain_out.messages.total(), obs_out.messages.total());
    assert_eq!(plain_out.colored_at, obs_out.colored_at);

    // And the hub did observe the one rep it was attached to.
    let snap = hub.snapshot();
    assert_eq!(snap.counter("sim.reps"), 1);
    assert_eq!(snap.counter("sim.events"), obs_out.events);
    assert_eq!(snap.counter("sim.sends"), obs_out.messages.total());
}

/// A cluster run with telemetry attached must report the same protocol
/// results as one without: the hub only reads, never steers.
#[test]
fn cluster_results_are_identical_with_telemetry_attached() {
    let p = 8u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let dead = vec![false; p as usize];

    let mut plain = Cluster::new(p, LogP::PAPER);
    let plain_report = plain.run_broadcast(&spec, &dead, 7).unwrap();

    let hub = Arc::new(TelemetryHub::new(2, p as usize));
    let cfg = ClusterConfig::new().threads(2).telemetry(Arc::clone(&hub));
    let mut observed = Cluster::with_config(p, LogP::PAPER, cfg);
    let obs_report = observed.run_broadcast(&spec, &dead, 7).unwrap();

    assert!(plain_report.completed && obs_report.completed);
    assert_eq!(plain_report.messages, 7);
    assert_eq!(obs_report.messages, 7);
    assert_eq!(plain_report.uncolored, obs_report.uncolored);
    assert_eq!(hub.snapshot().counter("msgs.delivered"), 7);
}

/// On a single worker a fault-free plain binomial broadcast at P=8 is
/// fully deterministic, so every counter has one exact value. A quantum
/// is one sender-port slot (at most one send), and a rank that sent is
/// requeued at the tail of the run queue, so the tree unrolls over four
/// batches of 8, 3, 4 and 4 quanta:
///
/// 1. ranks 0..7 (the install's enqueue-all): 0→1, 1→3, 3→7 — each
///    child is still scheduled, so no wake-up; 0, 1 and 3 requeue, the
///    other five go idle; 0, 1, 3 and 7 are colored.
/// 2. requeued 0, 1, 3: 0→2 and 1→5 wake their idle children; 0 and 1
///    requeue behind them; 3 finds its machine done.
/// 3. 2, 0, 5, 1: 2→6 and 0→4 wake; 2 and 0 requeue; 2 and 5 colored.
/// 4. 6, 2, 4, 0: 6 and 4 colored; everyone done.
///
/// That is 19 quanta, 4 wake-ups, 3 coordinator flushes (4 + 2 + 2
/// colored), 7 tree messages, and nothing stale, spilled or retried.
#[test]
fn single_worker_counters_are_exact() {
    let p = 8u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let hub = Arc::new(TelemetryHub::new(1, p as usize));
    let cfg = ClusterConfig::new().threads(1).telemetry(Arc::clone(&hub));
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let report = cluster
        .run_broadcast(&spec, &vec![false; p as usize], 0)
        .unwrap();
    assert!(report.completed);

    let snap = hub.snapshot();
    assert_eq!(snap.counter("sched.quanta"), 19, "8 + 3 + 4 + 4 quanta");
    assert_eq!(snap.counter("sched.stale_quanta"), 0);
    assert_eq!(snap.counter("sched.batches"), 4);
    assert_eq!(snap.counter("sched.lost_wakeup_rechecks"), 0);
    assert_eq!(snap.counter("sched.wakes"), 4, "2, 5, 6 and 4 woken idle");
    assert_eq!(snap.counter("msgs.sent"), 7);
    assert_eq!(snap.counter("msgs.delivered"), 7);
    assert_eq!(snap.counter("msgs.stale_dropped"), 0);
    assert_eq!(snap.counter("mailbox.pushes"), 7);
    assert_eq!(snap.counter("mailbox.spills"), 0);
    assert_eq!(snap.counter("timer.arms"), 0, "plain tree arms no timers");
    assert_eq!(snap.counter("timer.fires"), 0);
    assert_eq!(snap.counter("timer.cascades"), 0);
    assert_eq!(snap.counter("coord.batches"), 3);
    assert_eq!(snap.counter("coord.colored"), 8);

    assert_eq!(snap.gauges.get("mailbox.hwm"), Some(&1));
    assert_eq!(snap.gauges.get("runq.depth"), Some(&4), "the last batch");
    assert_eq!(snap.gauges.get("timers.pending"), Some(&0));

    let batch = snap.histograms.get("sched.batch_size").unwrap();
    assert_eq!((batch.count(), batch.sum()), (4, 19));
    let runq = snap.histograms.get("sched.runq_depth").unwrap();
    assert_eq!((runq.count(), runq.sum()), (4, 19));
    let coord = snap.histograms.get("coord.batch_size").unwrap();
    assert_eq!((coord.count(), coord.sum()), (3, 8));
    assert_eq!((coord.min(), coord.max()), (Some(2), Some(4)));
    let drained = snap.histograms.get("mailbox.drained").unwrap();
    assert_eq!((drained.count(), drained.sum()), (19, 7));
    assert_eq!(drained.max(), Some(1), "no rank ever drains two at once");
}

/// Killing rank 1 under a plain (uncorrected) binomial tree at P=8
/// strands exactly its subtree {3, 5, 7}; the watchdog's stall report
/// must name those ranks and no others, each unscheduled with an empty
/// mailbox (stranded, not stuck).
#[test]
fn stall_report_names_the_stranded_ranks() {
    let p = 8u32;
    let spec = BroadcastSpec::plain_tree(TreeKind::BINOMIAL);
    let mut dead = vec![false; p as usize];
    dead[1] = true;

    let hub = Arc::new(TelemetryHub::new(2, p as usize));
    let cfg = ClusterConfig::new()
        .threads(2)
        .timeout(std::time::Duration::from_millis(200))
        .telemetry(Arc::clone(&hub));
    let mut cluster = Cluster::with_config(p, LogP::PAPER, cfg);
    let report = cluster.run_broadcast(&spec, &dead, 0).unwrap();

    assert!(!report.completed);
    assert_eq!(report.uncolored, vec![3, 5, 7]);
    let stall = report.stall.expect("timed-out run carries a StallReport");
    assert_eq!(stall.stranded(), vec![3, 5, 7]);
    for rank in &stall.ranks {
        assert!(!rank.scheduled, "stranded rank {} not runnable", rank.rank);
        assert_eq!(rank.mailbox_len, 0, "stranded rank {} idle", rank.rank);
    }
    let text = stall.render_text();
    assert!(text.contains("stall: broadcast"), "{text}");
    assert!(text.contains("rank     3:"), "{text}");
    // The report is also structured JSON carrying the stranded set.
    let json = stall.to_json();
    for rank in [3, 5, 7] {
        assert!(json.contains(&format!("{{\"rank\":{rank},")), "{json}");
    }
    assert!(json.contains("\"colored\":4"), "{json}");
}
