//! ParkBench — quantifies the sharded, address-keyed parking lot against
//! the broadcast eventcount it replaced.
//!
//! Two experiment families:
//!
//! * **Targeted-wake storm** (queue level, deterministic): `W` waiter
//!   threads park on one [`WaitQueue`], each under its own key; a releaser
//!   wakes exactly one of them per round and waits for it to run before the
//!   next round. The *eventcount* leg parks everyone unkeyed and wakes with
//!   the broadcast, so every release herds all `W` waiters awake —
//!   `W - 1` of them spuriously. The *keyed* leg parks under per-waiter
//!   keys and wakes one key with [`WaitQueue::wake`], so a release costs O(1)
//!   wakeups however many waiters are parked. The spurious-wakeups-per-
//!   release column is the paper-facing number: O(parked waiters) vs ~0.
//!   Wake-to-run latency (stamped by the releaser, recorded by the woken
//!   waiter into an [`rl_obs`] histogram) gives the p50/p99 columns.
//!
//! * **Disjoint-pair lock storm** (whole-lock, `Block` policy): `P` thread
//!   pairs each contend on their *own* range of a shared
//!   [`RwListRangeLock`], so every release resolves exactly one pair's
//!   conflict. Keyed parking keeps the other `P - 1` parked waiters
//!   asleep; the attached [`WaitStats`] report the measured spurious-
//!   wakeups-per-release, which the committed baseline pins near zero.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use range_lock::{Range, RwListRangeLock};
use rl_obs::LatencyHistogram;
use rl_sync::stats::WaitStats;
use rl_sync::wait::Block;
use rl_sync::{WaitQueue, KEY_ANY};

use crate::report::Table;

/// The two parking disciplines the targeted-wake storm compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkMode {
    /// Unkeyed condvar parking; every wake is the broadcast herd.
    Eventcount,
    /// Sharded address-keyed parking; every wake targets one key.
    Keyed,
}

impl ParkMode {
    /// Both disciplines, in column order.
    pub const ALL: [ParkMode; 2] = [ParkMode::Eventcount, ParkMode::Keyed];

    /// Column label.
    pub fn name(self) -> &'static str {
        match self {
            ParkMode::Eventcount => "eventcount",
            ParkMode::Keyed => "keyed",
        }
    }

    /// The key waiter `i` parks under and its release wakes: `KEY_ANY`
    /// (the condvar herd) for the eventcount leg, distinct per-waiter keys
    /// for the keyed leg, spread so neighbouring waiters land in different
    /// shards (and some collide).
    fn key(self, i: usize) -> u64 {
        match self {
            ParkMode::Eventcount => KEY_ANY,
            ParkMode::Keyed => 0x40 + i as u64 * 7,
        }
    }
}

/// Result of one targeted-wake storm cell.
#[derive(Debug, Clone)]
pub struct ParkBenchResult {
    /// Number of targeted releases performed.
    pub releases: u64,
    /// Wall-clock time for the whole storm.
    pub elapsed: Duration,
    /// Spurious wakeups accumulated across all releases.
    pub spurious: u64,
    /// Wake-to-run latency distribution (nanoseconds).
    pub latency: rl_obs::HistogramSnapshot,
}

impl ParkBenchResult {
    /// Targeted releases per second.
    pub fn releases_per_sec(&self) -> f64 {
        self.releases as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Spurious wakeups per release — the herd cost of one wake.
    pub fn spurious_per_release(&self) -> f64 {
        self.spurious as f64 / (self.releases as f64).max(1.0)
    }

    /// p50 wake-to-run latency in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.latency.p50().unwrap_or(0) as f64 / 1_000.0
    }

    /// p99 wake-to-run latency in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.latency.p99().unwrap_or(0) as f64 / 1_000.0
    }
}

/// Per-waiter mailbox for the targeted-wake storm.
struct Mailbox {
    /// Round number this waiter should answer (0 = keep sleeping,
    /// `u64::MAX` = exit).
    round: AtomicU64,
    /// Last round this waiter acknowledged.
    ack: AtomicU64,
}

/// Runs one targeted-wake storm: `waiters` parked threads, `releases`
/// rounds of wake-exactly-one.
pub fn run_targeted(mode: ParkMode, waiters: usize, releases: u64) -> ParkBenchResult {
    let queue = Arc::new(WaitQueue::new());
    let hist = Arc::new(LatencyHistogram::new());
    let base = Instant::now();
    // Nanoseconds since `base` at which the releaser issued the current
    // round's wake; the woken waiter subtracts to get wake-to-run latency.
    let wake_stamp = Arc::new(AtomicU64::new(0));
    let boxes: Arc<Vec<Mailbox>> = Arc::new(
        (0..waiters)
            .map(|_| Mailbox {
                round: AtomicU64::new(0),
                ack: AtomicU64::new(0),
            })
            .collect(),
    );

    let threads: Vec<_> = (0..waiters)
        .map(|i| {
            let queue = Arc::clone(&queue);
            let hist = Arc::clone(&hist);
            let wake_stamp = Arc::clone(&wake_stamp);
            let boxes = Arc::clone(&boxes);
            std::thread::spawn(move || {
                let mut last = 0u64;
                loop {
                    let cond = || boxes[i].round.load(Ordering::Acquire) != last;
                    queue.park(mode.key(i), cond, None);
                    let round = boxes[i].round.load(Ordering::Acquire);
                    if round == u64::MAX {
                        return;
                    }
                    let now = base.elapsed().as_nanos() as u64;
                    hist.record(now.saturating_sub(wake_stamp.load(Ordering::Acquire)));
                    last = round;
                    boxes[i].ack.store(round, Ordering::Release);
                }
            })
        })
        .collect();

    // Give every waiter a chance to genuinely park before measuring.
    while queue.parks() < waiters as u64 {
        std::thread::yield_now();
    }

    let t0 = Instant::now();
    for r in 1..=releases {
        let target = (r % waiters as u64) as usize;
        boxes[target].round.store(r, Ordering::Release);
        wake_stamp.store(base.elapsed().as_nanos() as u64, Ordering::Release);
        queue.wake(mode.key(target));
        while boxes[target].ack.load(Ordering::Acquire) != r {
            std::thread::yield_now();
        }
    }
    let elapsed = t0.elapsed();

    for mb in boxes.iter() {
        mb.round.store(u64::MAX, Ordering::Release);
    }
    queue.wake(KEY_ANY);
    for t in threads {
        t.join().expect("parkbench waiter panicked");
    }

    ParkBenchResult {
        releases,
        elapsed,
        spurious: queue.spurious_wakeups(),
        latency: hist.snapshot(),
    }
}

/// Result of one disjoint-pair lock storm.
#[derive(Debug, Clone)]
pub struct PairStormResult {
    /// Total write acquisitions across all threads.
    pub operations: u64,
    /// Wall-clock storm time.
    pub elapsed: Duration,
    /// Wait-queue counters (parks, wakes, spurious) from the storm.
    pub parks: u64,
    /// Spurious wakeups observed by the lock's waiters.
    pub spurious: u64,
}

impl PairStormResult {
    /// Write acquisitions per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.operations as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Spurious wakeups per release (every acquisition releases once).
    pub fn spurious_per_release(&self) -> f64 {
        self.spurious as f64 / (self.operations as f64).max(1.0)
    }
}

/// Runs the disjoint-pair storm: `pairs` thread pairs, each fighting over
/// its own 64-slot region of one `Block`-policy list lock.
pub fn run_pairs(pairs: usize, duration: Duration) -> PairStormResult {
    let stats = Arc::new(WaitStats::new("parkbench-pairs"));
    let lock = Arc::new(RwListRangeLock::<Block>::with_policy().with_stats(Arc::clone(&stats)));
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));

    let threads: Vec<_> = (0..pairs * 2)
        .map(|t| {
            let lock = Arc::clone(&lock);
            let stop = Arc::clone(&stop);
            let ops = Arc::clone(&ops);
            std::thread::spawn(move || {
                let region = (t / 2) as u64 * 128;
                let range = Range::new(region, region + 64);
                let mut local = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let g = lock.write(range);
                    std::hint::black_box(&g);
                    drop(g);
                    local += 1;
                }
                ops.fetch_add(local, Ordering::Relaxed);
            })
        })
        .collect();

    let t0 = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Release);
    for t in threads {
        t.join().expect("parkbench pair worker panicked");
    }
    let elapsed = t0.elapsed();
    let snap = stats.snapshot();

    PairStormResult {
        operations: ops.load(Ordering::Relaxed),
        elapsed,
        parks: snap.parks,
        spurious: snap.spurious_wakeups,
    }
}

/// Waiter counts the targeted-wake storm sweeps.
fn waiter_counts(quick: bool) -> Vec<usize> {
    if quick {
        vec![4, 16]
    } else {
        vec![4, 16, 64]
    }
}

/// The full ParkBench table set (what `repro -- parkbench` emits and what
/// `BENCH_park.json` pins).
pub fn tables(quick: bool) -> Vec<Table> {
    let releases: u64 = if quick { 2_000 } else { 20_000 };
    let counts = waiter_counts(quick);

    let mode_columns: Vec<String> = ParkMode::ALL.iter().map(|m| m.name().to_string()).collect();
    let mut throughput = Table::new(
        "ParkBench targeted wakes: one eligible waiter per release",
        "waiters",
        "releases/sec",
        mode_columns.clone(),
    );
    let mut herd = Table::new(
        "ParkBench herd cost: waiters woken with a false predicate",
        "waiters",
        "spurious wakes/release",
        mode_columns,
    );
    let latency_columns: Vec<String> = ParkMode::ALL
        .iter()
        .flat_map(|m| [format!("{} p50", m.name()), format!("{} p99", m.name())])
        .collect();
    let mut latency = Table::new(
        "ParkBench wake-to-run latency",
        "waiters",
        "wake latency (us)",
        latency_columns,
    );

    for &w in &counts {
        let mut tp_row = Vec::new();
        let mut herd_row = Vec::new();
        let mut lat_row = Vec::new();
        for mode in ParkMode::ALL {
            let result = run_targeted(mode, w, releases);
            assert_eq!(
                result.releases,
                releases,
                "parkbench: {} lost a release",
                mode.name()
            );
            tp_row.push(result.releases_per_sec());
            herd_row.push(result.spurious_per_release());
            lat_row.push(result.p50_us());
            lat_row.push(result.p99_us());
        }
        throughput.push_row(w as u64, tp_row);
        herd.push_row(w as u64, herd_row);
        latency.push_row(w as u64, lat_row);
    }

    let pair_duration = if quick {
        Duration::from_millis(150)
    } else {
        Duration::from_secs(1)
    };
    let pair_counts: Vec<usize> = if quick { vec![2, 4] } else { vec![2, 4, 8] };
    let mut pair_tp = Table::new(
        "ParkBench disjoint-pair lock storm (list-rw, block policy)",
        "pairs",
        "ops/sec",
        vec!["list-rw".to_string()],
    );
    let mut pair_herd = Table::new(
        "ParkBench disjoint-pair herd cost (list-rw, block policy)",
        "pairs",
        "spurious wakes/release",
        vec!["list-rw".to_string()],
    );
    for &pairs in &pair_counts {
        let result = run_pairs(pairs, pair_duration);
        assert!(
            result.operations > 0,
            "parkbench pair storm made no progress"
        );
        pair_tp.push_row(pairs as u64, vec![result.ops_per_sec()]);
        pair_herd.push_row(pairs as u64, vec![result.spurious_per_release()]);
    }

    vec![throughput, herd, latency, pair_tp, pair_herd]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventcount_herds_and_keyed_does_not() {
        // 8 unkeyed waiters: each broadcast wakes all of them, 7 with a
        // false predicate — so spurious/release must be far above the keyed
        // leg, which wakes exactly the eligible waiter.
        let herd = run_targeted(ParkMode::Eventcount, 8, 200);
        let keyed = run_targeted(ParkMode::Keyed, 8, 200);
        assert_eq!(herd.releases, 200);
        assert_eq!(keyed.releases, 200);
        assert_eq!(
            keyed.spurious, 0,
            "keyed wakes must not herd other keys' parkers"
        );
        assert!(
            herd.spurious_per_release() >= 1.0,
            "the eventcount broadcast stopped herding (got {:.2}/release) — \
             did the baseline leg accidentally go keyed?",
            herd.spurious_per_release()
        );
        assert!(keyed.latency.count() > 0);
    }

    #[test]
    fn pair_storm_releases_wake_only_their_own_pair() {
        let result = run_pairs(2, Duration::from_millis(100));
        assert!(result.operations > 0);
        // Disjoint pairs: a release resolves exactly one waiter's conflict,
        // and that waiter's predicate is true by the time it runs. A small
        // residue is tolerated (wake_unkeyed nudges and barging races), but
        // the herd behaviour — one spurious wake per parked waiter per
        // release — must be gone.
        assert!(
            result.spurious_per_release() < 0.5,
            "disjoint-pair storm herded: {:.3} spurious wakes/release over {} parks",
            result.spurious_per_release(),
            result.parks
        );
    }
}
