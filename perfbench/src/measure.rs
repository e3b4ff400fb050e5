//! Process-level meters and the end-to-end metrics of one measured
//! phase: wall time, CPU time, peak memory, completed and failed
//! operations, and per-operation latency percentiles.

use std::time::{Duration, Instant};

use ct_core::protocol::BroadcastSpec;
use ct_logp::Rank;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat`. Linux fixes `USER_HZ` at 100 for user space on
/// every architecture this benchmark runs on.
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, all threads) in milliseconds, read
/// from `/proc/self/stat`. `/proc/self/schedstat` is not used: some
/// kernels report 0 there.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("numeric tick field") };
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    (ticks(11) + ticks(12)) * 1000.0 / USER_HZ
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    ct_obs::manifest::peak_rss_kb() as f64 / 1024.0
}

/// A cluster broadcast that did not color every live rank before its
/// watchdog deadline, with what is needed to replay it on the simulator.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The broadcast's protocol (root included).
    pub spec: BroadcastSpec,
    /// Crash-failure mask it ran under.
    pub dead: Vec<bool>,
    /// The seed the protocol machines were built with.
    pub seed: u64,
    /// Live ranks still uncolored at the deadline.
    pub uncolored: Vec<Rank>,
    /// From the watchdog's stall report, where the driver gives one:
    /// true when nothing was left to run (every stranded rank off the
    /// run queue with an empty mailbox), i.e. stuck rather than slow.
    pub stuck: Option<bool>,
}

/// What a sequence of closed-loop operations produced.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted (repetitions or broadcasts).
    pub attempted: u64,
    /// Operations that failed (cluster broadcasts past their deadline).
    pub failed: u64,
    /// One latency per operation, in ms; `f64::INFINITY` for a failed
    /// operation, which counts as beyond any limit.
    pub latencies_ms: Vec<f64>,
    /// Every failed broadcast, for the simulator replay.
    pub failures: Vec<Failure>,
}

impl Tally {
    /// Record one finished operation.
    pub fn ok(&mut self, latency: Duration) {
        self.attempted += 1;
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
    }

    /// Record `n` finished operations that share one latency sample.
    pub fn ok_batch(&mut self, n: u64, latency: Duration) {
        self.attempted += n;
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
    }

    /// Record `n` failed operations that have no latency sample of
    /// their own (their call's sample is recorded with `ok_batch`).
    pub fn failed_ops(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Record one failed operation.
    pub fn fail(&mut self, failure: Failure) {
        self.attempted += 1;
        self.failed += 1;
        self.latencies_ms.push(f64::INFINITY);
        self.failures.push(failure);
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
        self.failures.extend(other.failures);
    }
}

/// Wall and CPU meters around a phase.
pub struct Meter {
    wall: Instant,
    cpu_ms: f64,
}

impl Meter {
    /// Start both clocks.
    pub fn start() -> Meter {
        Meter {
            cpu_ms: cpu_ms(),
            wall: Instant::now(),
        }
    }

    /// Wall time since start.
    pub fn wall(&self) -> Duration {
        self.wall.elapsed()
    }

    /// Stop: (wall seconds, CPU milliseconds).
    pub fn stop(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_ms() - self.cpu_ms)
    }
}

/// The end-to-end figures of one measured phase.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// Completed operations per wall second.
    pub ops_per_s: f64,
    /// Median per-operation latency, ms.
    pub latency_p50_ms: f64,
    /// Latency at the workload's tail percentile, ms.
    pub latency_tail_ms: f64,
    /// Process CPU per attempted operation, ms.
    pub cpu_ms_per_op: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Latency samples and how many lie beyond the tail percentile.
    pub samples: usize,
    pub beyond_tail: usize,
    /// True when the tail sample is a failed operation (its value is
    /// then the watchdog deadline, a lower bound).
    pub tail_is_failure: bool,
    /// Slowest completed operation, ms.
    pub max_ok_ms: f64,
}

impl EndToEnd {
    /// Summarise a phase. `tail_pct` is fixed per workload so every run
    /// reports the same percentile; `deadline_ms` stands in for a
    /// failed operation that lands on a reported percentile.
    pub fn from_phase(
        tally: &Tally,
        wall_s: f64,
        cpu_ms: f64,
        tail_pct: f64,
        deadline_ms: f64,
    ) -> EndToEnd {
        let mut lat = tally.latencies_ms.clone();
        lat.sort_by(f64::total_cmp);
        let pick = |pct: f64| -> (f64, usize, bool) {
            let idx = percentile_index(lat.len(), pct);
            let v = lat[idx];
            let beyond = lat.len() - idx - 1;
            if v.is_finite() {
                (v, beyond, false)
            } else {
                (deadline_ms, beyond, true)
            }
        };
        let (p50, _, _) = pick(50.0);
        let (tail, beyond_tail, tail_is_failure) = pick(tail_pct);
        EndToEnd {
            ops_per_s: (tally.attempted - tally.failed) as f64 / wall_s,
            latency_p50_ms: p50,
            latency_tail_ms: tail,
            cpu_ms_per_op: cpu_ms / tally.attempted as f64,
            attempted: tally.attempted,
            failed: tally.failed,
            samples: lat.len(),
            beyond_tail,
            tail_is_failure,
            max_ok_ms: lat
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .fold(0.0, f64::max),
        }
    }
}

/// Nearest-rank percentile index into `n` sorted samples (`n ≥ 1`).
pub fn percentile_index(n: usize, pct: f64) -> usize {
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[percentile_index(v.len(), 50.0)]
}

/// Time `f` `rounds` times; the median wall time in nanoseconds.
pub fn median_ns(rounds: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile_index(1, 50.0), 0);
        assert_eq!(percentile_index(100, 50.0), 49);
        assert_eq!(percentile_index(100, 90.0), 89);
        assert_eq!(percentile_index(1000, 99.0), 989);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn failures_sort_beyond_every_latency() {
        let mut t = Tally::default();
        for ms in 1..=19 {
            t.ok(Duration::from_millis(ms));
        }
        t.fail(Failure {
            spec: BroadcastSpec::plain_tree(ct_core::tree::TreeKind::BINOMIAL),
            dead: vec![],
            seed: 0,
            uncolored: vec![],
            stuck: None,
        });
        let e = EndToEnd::from_phase(&t, 1.0, 200.0, 95.0, 250.0);
        assert_eq!(e.attempted, 20);
        assert_eq!(e.failed, 1);
        assert_eq!(e.ops_per_s, 19.0);
        assert_eq!(e.latency_p50_ms, 10.0);
        assert_eq!(e.latency_tail_ms, 19.0);
        assert_eq!(e.beyond_tail, 1);
        assert!(!e.tail_is_failure);
        assert_eq!(e.cpu_ms_per_op, 10.0);
    }

    #[test]
    fn cpu_clock_reads() {
        assert!(cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
