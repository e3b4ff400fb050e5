//! Topic-multiplexed broadcast throughput sweep (`ct perf bench
//! --pubsub`).
//!
//! Measures what the pub/sub layer buys on one worker pool: aggregate
//! broadcasts/sec with k ∈ {1, 4, 16, 64} topics in flight at
//! P ∈ {256, 1024, 4096}, fault-free and at 1% crash faults.
//!
//! The fault-free cells run *synchronized checked-paced* correction
//! with a provisioned barrier (`sync_start_override` scaled to P, see
//! [`sync_barrier_us`]): every broadcast spends most of its lifetime
//! waiting for the correction barrier, exactly the regime where a
//! single in-flight broadcast (k = 1) leaves the pool idle and
//! multiplexed topics (k > 1) pipeline each other's waits. These cells
//! double as a correctness gate — Corollary 1 pins every broadcast's
//! message total to exactly `(P-1) + M·P`, and the sweep asserts it at
//! every k, so the speedup cannot come from dropped or deduplicated
//! work. The faulty cells run the cluster-throughput bench's
//! asynchronous opportunistic correction and are CPU-bound; they gate
//! nothing but show multiplexing does not degrade the healing path.
//!
//! All metrics are ns-per-broadcast (lower is better) so `ct perf
//! diff` flags regressions generically.

use std::time::Duration;

use ct_analysis::m_scc_discrete;
use ct_analyze::BenchSnapshot;
use ct_core::correction::CorrectionKind;
use ct_core::protocol::BroadcastSpec;
use ct_core::tree::TreeKind;
use ct_logp::LogP;
use ct_runtime::{Cluster, ClusterConfig, PubsubOptions, Topic, TopicTable};
use ct_sim::FaultPlan;

/// Provisioned correction barrier (µs) for checked-sync cells:
/// comfortably past wall-clock dissemination of the *largest* topic
/// fleet at this P, so every rank tree-colors before the barrier and
/// Corollary 1 holds exactly. Paced quanta send one tree message per
/// rank per run-queue cycle, so dissemination of k = 64 topics on two
/// workers took up to ~70 ms at P = 256, ~0.4 s at P = 1024 and
/// ~1.4 s at P = 4096; each barrier is at least twice that.
pub fn sync_barrier_us(p: u32) -> u64 {
    match p {
        0..=128 => 20_000,
        129..=512 => 200_000,
        513..=2048 => 800_000,
        _ => 3_000_000,
    }
}

/// One measured sweep cell.
#[derive(Clone, Copy, Debug)]
pub struct PubsubCell {
    /// Ranks.
    pub p: u32,
    /// Topics in flight (and topic count — one round-robin fleet).
    pub k: usize,
    /// 1% crash faults (false: fault-free checked-sync barrier cell).
    pub faulty: bool,
    /// Completed broadcasts (topics × rounds).
    pub broadcasts: u64,
    /// Total protocol messages across all broadcasts.
    pub messages: u64,
    /// Wall-clock for the whole multiplexed run.
    pub wall: Duration,
}

impl PubsubCell {
    /// Aggregate throughput over the cell.
    pub fn broadcasts_per_sec(&self) -> f64 {
        self.broadcasts as f64 / self.wall.as_secs_f64()
    }

    /// Mean wall nanoseconds per broadcast (lower is better).
    pub fn ns_per_broadcast(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.broadcasts.max(1) as f64
    }

    /// Metric key suffix: `p{P}_k{K}_{ff|f1}`.
    pub fn key(&self) -> String {
        let tag = if self.faulty { "f1" } else { "ff" };
        format!("p{}_k{}_{}", self.p, self.k, tag)
    }
}

/// The whole sweep.
#[derive(Clone, Debug)]
pub struct PubsubBench {
    /// All measured cells, sweep order (P-major, k-minor, ff then f1).
    pub cells: Vec<PubsubCell>,
    /// Config echo for provenance.
    pub quick: bool,
    /// Base seed.
    pub seed0: u64,
    /// Machine model (per-process checked-paced provisioning).
    pub logp: LogP,
}

/// Build the k-topic fleet for one cell. Fault-free cells use
/// checked-paced synchronized correction behind the provisioned
/// barrier; faulty cells use asynchronous opportunistic correction,
/// each topic drawing its own 1%-random dead mask protecting its own
/// root (a dead root can never disseminate, so the cell would measure
/// a watchdog timeout instead of throughput).
fn cell_topics(p: u32, k: usize, faulty: bool, seed0: u64, logp: &LogP) -> TopicTable {
    let mut table = TopicTable::new();
    for t in 0..k {
        let root = (t as u32 * 97) % p;
        let dead = if faulty {
            let n = (p / 100).max(1);
            FaultPlan::random_count_protecting(p, n, seed0.wrapping_add(t as u64), root)
                .expect("valid fault plan")
                .mask()
                .to_vec()
        } else {
            vec![false; p as usize]
        };
        let spec = if faulty {
            BroadcastSpec::corrected_tree(
                TreeKind::BINOMIAL,
                CorrectionKind::OpportunisticOptimized { distance: 4 },
            )
        } else {
            // The arrival-gate fallback only bounds the wait for a dead
            // neighbor, and these cells have none. A short one is waived
            // by a worker the OS deschedules for a few milliseconds, and
            // the rank then probes past Corollary 1.
            let barrier = sync_barrier_us(p);
            let mut s = BroadcastSpec::corrected_tree_sync(
                TreeKind::BINOMIAL,
                CorrectionKind::checked_paced(logp, barrier),
            );
            s.sync_start_override = Some(barrier);
            s
        };
        let spec = spec.with_root(root);
        let topic =
            Topic::new(format!("topic-{t}"), spec, p, seed0.wrapping_add(t as u64)).with_dead(dead);
        table.push(topic);
    }
    table
}

/// Run one cell: k topics × `rounds` rounds multiplexed over one
/// cluster. Panics (with the offending cell) if any broadcast fails to
/// complete, or if a fault-free checked-sync broadcast's message total
/// deviates from Corollary 1 — the totals are the proof the pipeline
/// speedup does no less work per broadcast.
pub fn run_cell(
    p: u32,
    k: usize,
    faulty: bool,
    rounds: usize,
    seed0: u64,
    logp: LogP,
) -> PubsubCell {
    let mut cluster = Cluster::with_config(p, logp, ClusterConfig::new());
    cluster.set_timeout(Duration::from_secs(120));
    let table = cell_topics(p, k, faulty, seed0, &logp);
    let opts = PubsubOptions { k, rounds };
    let report = cluster
        .run_pubsub(&table, &opts)
        .unwrap_or_else(|e| panic!("pubsub cell p={p} k={k} faulty={faulty}: {e}"));
    let mut messages = 0u64;
    for o in &report.outcomes {
        assert!(
            o.completed,
            "broadcast {} (topic {} round {}) did not complete in cell \
             p={p} k={k} faulty={faulty}: uncolored {:?}",
            o.id, o.topic, o.round, o.uncolored
        );
        if !faulty {
            let expected = u64::from(p) - 1 + m_scc_discrete(&logp) * u64::from(p);
            assert_eq!(
                o.messages, expected,
                "Corollary 1 violated by broadcast {} (topic {} round {}) \
                 in cell p={p} k={k}: got {}, expected (P-1)+M*P = {expected}",
                o.id, o.topic, o.round, o.messages
            );
        }
        messages += o.messages;
    }
    PubsubCell {
        p,
        k,
        faulty,
        broadcasts: report.outcomes.len() as u64,
        messages,
        wall: report.elapsed,
    }
}

/// Rounds per topic so every cell measures a comparable broadcast
/// count: at least `floor_total` broadcasts, at least one round.
fn rounds_for(k: usize, floor_total: usize) -> usize {
    floor_total.div_ceil(k).max(1)
}

/// The full sweep. `quick` trims to P ∈ {256, 1024}, k ∈ {1, 4, 16}
/// and fewer rounds for CI smoke.
pub fn run_pubsub_bench(quick: bool, seed0: u64, logp: LogP) -> PubsubBench {
    let ps: &[u32] = if quick {
        &[256, 1024]
    } else {
        &[256, 1024, 4096]
    };
    let ks: &[usize] = if quick { &[1, 4, 16] } else { &[1, 4, 16, 64] };
    let (ff_floor, f1_floor) = if quick { (8, 4) } else { (16, 8) };
    let mut cells = Vec::new();
    for &p in ps {
        for &k in ks {
            cells.push(run_cell(p, k, false, rounds_for(k, ff_floor), seed0, logp));
            cells.push(run_cell(p, k, true, rounds_for(k, f1_floor), seed0, logp));
        }
    }
    PubsubBench {
        cells,
        quick,
        seed0,
        logp,
    }
}

impl PubsubBench {
    /// Throughput ratio of the k-topic cell over the k=1 cell at `p`
    /// (fault-free), if both were measured — the pipelining headline.
    pub fn speedup_vs_k1(&self, p: u32, k: usize) -> Option<f64> {
        let find = |k: usize| {
            self.cells
                .iter()
                .find(|c| c.p == p && c.k == k && !c.faulty)
        };
        Some(find(k)?.broadcasts_per_sec() / find(1)?.broadcasts_per_sec())
    }

    /// Distill into the `BENCH_pubsub_throughput` snapshot: one
    /// ns-per-broadcast metric per cell, throughput and totals as
    /// provenance.
    pub fn snapshot(&self) -> BenchSnapshot {
        let mut snap = BenchSnapshot::new("pubsub_throughput")
            .with_host_provenance()
            .with_provenance("logp", &self.logp.to_string())
            .with_provenance("seed0", &self.seed0.to_string())
            .with_provenance("quick", &self.quick.to_string())
            .with_provenance("m_scc_discrete", &m_scc_discrete(&self.logp).to_string());
        for c in &self.cells {
            let key = c.key();
            snap = snap
                .with_metric(&format!("ns_per_broadcast_{key}"), c.ns_per_broadcast())
                .with_provenance(
                    &format!("broadcasts_per_sec_{key}"),
                    &format!("{:.2}", c.broadcasts_per_sec()),
                )
                .with_provenance(&format!("broadcasts_{key}"), &c.broadcasts.to_string())
                .with_provenance(&format!("total_messages_{key}"), &c.messages.to_string());
        }
        let headline_p = self.cells.iter().map(|c| c.p).max().unwrap_or(0);
        for &k in &[4usize, 16, 64] {
            if let Some(s) = self.speedup_vs_k1(headline_p, k) {
                snap = snap.with_provenance(
                    &format!("speedup_k{k}_vs_k1_p{headline_p}"),
                    &format!("{s:.2}"),
                );
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature cell obeys Corollary 1 at every k and pipelining
    /// shows through: the k=4 cell's wall is well under 4× solo's
    /// per-broadcast barrier cost.
    #[test]
    fn mini_cells_hold_corollary1_and_pipeline() {
        let p = 64u32;
        let solo = run_cell(p, 1, false, 2, 7, LogP::PAPER);
        let multi = run_cell(p, 4, false, 1, 7, LogP::PAPER);
        let m = m_scc_discrete(&LogP::PAPER);
        let per = u64::from(p) - 1 + m * u64::from(p);
        assert_eq!(solo.broadcasts, 2);
        assert_eq!(solo.messages, 2 * per);
        assert_eq!(multi.broadcasts, 4);
        assert_eq!(multi.messages, 4 * per);
        // 4 barrier-bound broadcasts in flight must beat 4 serial ones:
        // solo pays the barrier per broadcast, multi pays it ~once.
        assert!(
            multi.wall < solo.wall * 2,
            "no pipelining: multi {:?} vs solo {:?}",
            multi.wall,
            solo.wall
        );
    }

    #[test]
    fn faulty_mini_cell_completes() {
        let c = run_cell(128, 2, true, 1, 7, LogP::PAPER);
        assert_eq!(c.broadcasts, 2);
        assert!(c.messages > 2 * 127);
    }

    #[test]
    fn snapshot_has_one_metric_per_cell() {
        let bench = PubsubBench {
            cells: vec![
                PubsubCell {
                    p: 64,
                    k: 1,
                    faulty: false,
                    broadcasts: 2,
                    messages: 766,
                    wall: Duration::from_millis(40),
                },
                PubsubCell {
                    p: 64,
                    k: 4,
                    faulty: false,
                    broadcasts: 4,
                    messages: 1532,
                    wall: Duration::from_millis(25),
                },
            ],
            quick: true,
            seed0: 7,
            logp: LogP::PAPER,
        };
        let snap = bench.snapshot();
        assert!(snap.metrics.contains_key("ns_per_broadcast_p64_k1_ff"));
        assert!(snap.metrics.contains_key("ns_per_broadcast_p64_k4_ff"));
        assert_eq!(snap.provenance["broadcasts_p64_k4_ff"], "4");
        let s: f64 = snap.provenance["speedup_k4_vs_k1_p64"].parse().unwrap();
        assert!(s > 1.0, "{s}");
    }
}
