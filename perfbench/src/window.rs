//! The closed loop every workload runs: one thread per client, each with
//! one op in flight, warmed up and then measured for a fixed window.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use crate::trace::Recorder;

const WARM: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

/// Length of one slice of the window. Throughput is reported per slice,
/// beside the share of CPU time the hypervisor took ("steal") in it.
const SLICE: Duration = Duration::from_millis(500);

/// Slices with at most this much steal, %, count as undisturbed.
const QUIET_STEAL_PCT: f64 = 2.0;

/// `(steal, total)` CPU ticks of the whole machine so far, from the first
/// line of `/proc/stat` (zeros where it cannot be read).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Steal, %, between two [`cpu_ticks`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    100.0 * after.0.saturating_sub(before.0) as f64 / after.1.saturating_sub(before.1).max(1) as f64
}

/// Ops-per-second of the slices the hypervisor disturbed least: every
/// slice with at most [`QUIET_STEAL_PCT`] steal, or the least-stolen half
/// when fewer qualify. On a shared host, steal swings from 0 to 30% between
/// slices and throughput follows it; this keeps that out of the figure.
pub fn quiet_rates(mut slices: Vec<(f64, f64)>) -> Vec<f64> {
    slices.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quiet = slices.iter().filter(|s| s.0 <= QUIET_STEAL_PCT).count();
    let keep = quiet.max(slices.len().div_ceil(2));
    slices[..keep].iter().map(|s| s.1).collect()
}

/// What one measured window produced.
#[derive(Default, Debug)]
pub struct Window {
    /// Per-op latency, ns, of ops started while measuring.
    pub samples: Vec<u64>,
    /// When each of those ops ended, ns after the window opened.
    pub ends: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Length of each slice: [`SLICE`], or the whole window if shorter.
    slice: Duration,
    /// Steal, %, in each whole slice.
    slice_steal: Vec<f64>,
    pub recorder: Option<Recorder>,
}

impl Window {
    /// `(steal %, ops per second)` of each whole slice, counting each op
    /// in the slice it ended in.
    pub fn slices(&self) -> Vec<(f64, f64)> {
        let slice = self.slice.as_nanos().max(1) as u64;
        let mut counts = vec![0u64; self.slice_steal.len()];
        for &end in &self.ends {
            if let Some(count) = counts.get_mut((end / slice) as usize) {
                *count += 1;
            }
        }
        let secs = self.slice.as_secs_f64().max(f64::MIN_POSITIVE);
        (self.slice_steal.iter())
            .zip(counts)
            .map(|(&steal, count)| (steal, count as f64 / secs))
            .collect()
    }

    fn merge(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.ends.extend(other.ends);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if let Some(rec) = other.recorder {
            match &mut self.recorder {
                Some(all) => all.merge(rec),
                None => self.recorder = Some(rec),
            }
        }
    }
}

/// Runs `op` closed-loop on one thread per entry of `states` for
/// `warmup`, then measures for `window`. `op` returns whether the op
/// succeeded and checked out; it gets a span recorder when `traced`.
pub fn closed_loop<S: Send>(
    states: &mut [S],
    warmup: Duration,
    window: Duration,
    traced: bool,
    op: impl Fn(&mut S, Option<&mut Recorder>) -> bool + Sync,
) -> Window {
    let phase = AtomicU8::new(WARM);
    let opened_ns = AtomicU64::new(0);
    let epoch = Instant::now();
    let since_epoch = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let (outs, slice, slice_steal) = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                let (phase, opened_ns, op) = (&phase, &opened_ns, &op);
                scope.spawn(move || {
                    let mut rec = traced.then(|| Recorder::new(epoch));
                    let mut out = Window {
                        samples: Vec::with_capacity(1 << 18),
                        ends: Vec::with_capacity(1 << 18),
                        ..Window::default()
                    };
                    loop {
                        let now = phase.load(Ordering::SeqCst);
                        if now == STOP {
                            break;
                        }
                        let started = Instant::now();
                        let ok = op(state, rec.as_mut());
                        if now == MEASURE {
                            let ended = Instant::now();
                            out.samples
                                .push(ended.duration_since(started).as_nanos() as u64);
                            let opened = opened_ns.load(Ordering::SeqCst);
                            out.ends.push(since_epoch(ended).saturating_sub(opened));
                            out.attempted += 1;
                            out.failed += u64::from(!ok);
                        }
                    }
                    out.recorder = rec;
                    out
                })
            })
            .collect();
        std::thread::sleep(warmup);
        let opened = Instant::now();
        opened_ns.store(since_epoch(opened), Ordering::SeqCst);
        phase.store(MEASURE, Ordering::SeqCst);
        // Sample steal at every slice boundary (a window shorter than a
        // slice is one slice).
        let whole = (window.as_nanos() / SLICE.as_nanos()) as u32;
        let slice = if whole == 0 { window } else { SLICE };
        let mut slice_steal = Vec::with_capacity(whole.max(1) as usize);
        let mut prev = cpu_ticks();
        for i in 1..=whole.max(1) {
            std::thread::sleep((slice * i).saturating_sub(opened.elapsed()));
            let now = cpu_ticks();
            slice_steal.push(steal_pct(prev, now));
            prev = now;
        }
        std::thread::sleep(window.saturating_sub(opened.elapsed()));
        phase.store(STOP, Ordering::SeqCst);
        let outs: Vec<Window> = handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect();
        (outs, slice, slice_steal)
    });
    let mut total = Window {
        slice,
        slice_steal,
        ..Window::default()
    };
    for out in outs {
        total.merge(out);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_rates_keep_undisturbed_slices_or_the_least_stolen_half() {
        let _serial = crate::serial();
        let calm = vec![(0.5, 10.0), (30.0, 1.0), (1.0, 12.0), (2.0, 11.0)];
        assert_eq!(quiet_rates(calm), vec![10.0, 12.0, 11.0]);
        let stormy = vec![(9.0, 3.0), (30.0, 1.0), (5.0, 4.0), (20.0, 2.0), (7.0, 5.0)];
        assert_eq!(quiet_rates(stormy), vec![4.0, 5.0, 3.0]);
    }
}
