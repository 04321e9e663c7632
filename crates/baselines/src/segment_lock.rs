//! The segment-based range lock of pNOVA (Kim et al.), the paper's `pnova-rw`.
//!
//! The resource is divided into segments, each protected by its own
//! reader-writer lock. Acquiring a range acquires the locks of every
//! overlapped segment, in ascending order (which prevents deadlock between
//! concurrent acquisitions); releasing drops them.
//!
//! The design works well when ranges map to few segments and rarely collide,
//! but — as Section 2 and the Figure 3 results show — a full-range
//! acquisition must take *every* segment lock, and choosing the segment count
//! is a workload-dependent tuning knob: too few segments recreate contention,
//! too many make every acquisition expensive.
//!
//! # Adaptive segmentation
//!
//! That tuning knob is exactly what [`AdaptiveConfig`] automates: when
//! enabled, the lock tracks per-segment contention through the segments'
//! park counters and periodically **rebalances** — hot segments (many parks)
//! split at an aligned midpoint, runs of cold segments (no parks) coalesce —
//! within an alignment contract (`min_segment_size` quantum, bounded segment
//! count and size) so the segment table cannot degenerate. A rebalance
//! installs a whole new segment table:
//!
//! * tables are **immortal** — every generation is kept alive for the lock's
//!   lifetime, so guards taken from a retired table stay valid;
//! * a **seqlock** (`table_seq`, odd = rebalance in flight) lets acquirers
//!   validate that the table they acquired from is still current, retrying
//!   on a lost race;
//! * the rebalancer **quiesces** with an all-or-nothing `try_write` sweep of
//!   the active table — it never blocks and aborts if any segment is busy,
//!   so rebalancing is opportunistic and deadlock-free.
//!
//! The contention signal is parking, so adaptivity is only effective under
//! the [`Block`] policy; spinning policies never park and their tables only
//! drift toward the coalesced floor. The static layout (adaptivity off)
//! remains the default and reproduces pNOVA as measured in the paper.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use range_lock::{Range, RwRangeLock, TwoPhaseRwRangeLock};
use rl_sync::stats::{WaitKind, WaitStats};
use rl_sync::wait::{Block, WaitPolicy, WaitQueue};
use rl_sync::{CachePadded, RwSemReadGuard, RwSemWriteGuard, RwSemaphore, SpinLock, KEY_ANY};

/// Tuning for adaptive segmentation; see the module docs. Construct with
/// [`AdaptiveConfig::for_geometry`] and adjust fields as needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Guard drops between rebalance attempts.
    pub check_interval: u64,
    /// Park count at which a segment is considered hot and splits.
    pub split_threshold: u64,
    /// Alignment quantum: every segment boundary stays a multiple of this,
    /// and no segment shrinks below it.
    pub min_segment_size: u64,
    /// Ceiling on a coalesced segment's size, so cold runs cannot collapse
    /// into one all-spanning lock.
    pub max_segment_size: u64,
    /// Ceiling on the total segment count, so hot splits cannot make every
    /// acquisition arbitrarily expensive.
    pub max_segments: usize,
}

impl AdaptiveConfig {
    /// Defaults derived from the lock's geometry: boundaries stay aligned to
    /// a quarter of the initial segment size, segments range between a
    /// quarter and four times the initial size, and the table grows to at
    /// most four times the initial segment count.
    pub fn for_geometry(span: u64, num_segments: usize) -> Self {
        let initial = span.div_ceil(num_segments.max(1) as u64).max(1);
        AdaptiveConfig {
            check_interval: 64,
            split_threshold: 16,
            min_segment_size: (initial / 4).max(1),
            max_segment_size: (initial.saturating_mul(4)).min(span).max(1),
            max_segments: num_segments.saturating_mul(4).max(1),
        }
    }
}

/// One generation of the segment table: boundaries plus the per-segment
/// semaphores. `bounds` has one more entry than `segments`; segment `i`
/// covers `bounds[i]..bounds[i + 1]` and the last bound equals the span.
struct SegmentTable<P: WaitPolicy> {
    bounds: Vec<u64>,
    segments: Vec<CachePadded<RwSemaphore<P>>>,
}

impl<P: WaitPolicy> SegmentTable<P> {
    /// Builds the table for `bounds`, mirroring park counters into `stats`
    /// when attached (the same shared sink across every generation).
    fn with_bounds(bounds: Vec<u64>, stats: Option<&Arc<WaitStats>>) -> Box<Self> {
        debug_assert!(bounds.len() >= 2, "a table needs at least one segment");
        let segments = (0..bounds.len() - 1)
            .map(|_| {
                let mut sem = RwSemaphore::with_policy();
                if let Some(stats) = stats {
                    sem.attach_park_stats(Arc::clone(stats));
                }
                CachePadded::new(sem)
            })
            .collect();
        Box::new(SegmentTable { bounds, segments })
    }

    /// The uniform layout `new(span, n)` starts from: `n` equal slices (the
    /// last clamped to the span).
    fn uniform(span: u64, num_segments: usize, stats: Option<&Arc<WaitStats>>) -> Box<Self> {
        let segment_size = span.div_ceil(num_segments as u64).max(1);
        let mut bounds: Vec<u64> = (0..num_segments)
            .map(|i| (i as u64 * segment_size).min(span))
            .collect();
        bounds.push(span);
        Self::with_bounds(bounds, stats)
    }

    /// Index of the segment containing `addr` (callers clamp out-of-span
    /// addresses before asking).
    fn index_of(&self, addr: u64) -> usize {
        (self.bounds.partition_point(|&b| b <= addr) - 1).min(self.segments.len() - 1)
    }

    /// Maps a range to the inclusive segment index interval it covers.
    /// Ranges entirely past the span clamp to the last segment so that the
    /// lock still provides exclusion for out-of-span addresses.
    fn segment_span(&self, range: &Range) -> (usize, usize) {
        let last = self.segments.len() - 1;
        let span = *self.bounds.last().expect("bounds are never empty");
        if range.start >= span {
            return (last, last);
        }
        let end_addr = range.end.min(span).saturating_sub(1).max(range.start);
        (self.index_of(range.start), self.index_of(end_addr))
    }
}

/// A reader-writer range lock built from per-segment reader-writer locks.
///
/// Each segment is an [`RwSemaphore`] waiting through the pluggable
/// [`WaitPolicy`] `P`. The default is [`Block`] — waiters on a contended
/// segment park and the segment's release wakes them — because pNOVA's
/// in-kernel per-segment locks (and the `parking_lot::RwLock` this lock
/// used before the policy layer existed) block their waiters; the bare
/// `SegmentRangeLock` name therefore keeps its pre-refactor behaviour.
///
/// The segment layout is static by default; [`SegmentRangeLock::adaptive`]
/// turns on contention-driven rebalancing (see the module docs).
///
/// # Examples
///
/// ```
/// use rl_baselines::SegmentRangeLock;
/// use range_lock::{Range, RwRangeLock};
///
/// // 256 segments covering the address range [0, 256): one slot per segment.
/// let lock = SegmentRangeLock::new(256, 256);
/// let r = lock.read(Range::new(0, 16));
/// let w = lock.write(Range::new(128, 192));
/// drop(r);
/// drop(w);
/// ```
pub struct SegmentRangeLock<P: WaitPolicy = Block> {
    /// Every table generation ever installed, kept alive for the lock's
    /// lifetime ("immortal") so guards taken from a retired table stay
    /// valid across a rebalance. The boxes never move (the `Vec` may), so
    /// the indirection is the point, not an accident.
    #[allow(clippy::vec_box)]
    tables: SpinLock<Vec<Box<SegmentTable<P>>>>,
    /// The active table; always points into `tables`.
    active: AtomicPtr<SegmentTable<P>>,
    /// Seqlock over table swaps: even = stable, odd = rebalance in flight.
    /// Acquirers snapshot it before reading `active` and validate after
    /// acquiring their segments.
    table_seq: AtomicU64,
    /// Total span covered by the segments; addresses past the span clamp to
    /// the last segment.
    span: u64,
    /// `Some` once adaptive rebalancing is enabled.
    adaptive: Option<AdaptiveConfig>,
    /// Guard drops since creation, the rebalance trigger clock.
    drops: AtomicU64,
    /// Completed rebalances (tables retired).
    rebalances: AtomicU64,
    stats: Option<Arc<WaitStats>>,
    /// Lock-level wake channel for suspended two-phase (async / timed)
    /// acquisitions, which span segments and therefore cannot wait on one
    /// segment's queue; every guard drop wakes it (sync waiters keep using
    /// the per-segment queues).
    queue: WaitQueue,
}

impl SegmentRangeLock {
    /// Creates a lock covering `[0, span)` split into `num_segments` segments
    /// with the default [`Block`] wait policy (parked waiters, as in pNOVA).
    ///
    /// # Panics
    ///
    /// Panics if `num_segments` is zero or `span` is zero.
    pub fn new(span: u64, num_segments: usize) -> Self {
        Self::with_policy(span, num_segments)
    }
}

impl<P: WaitPolicy> SegmentRangeLock<P> {
    /// Creates a lock covering `[0, span)` split into `num_segments`
    /// segments whose waiters wait through policy `P`.
    ///
    /// # Panics
    ///
    /// Panics if `num_segments` is zero or `span` is zero.
    pub fn with_policy(span: u64, num_segments: usize) -> Self {
        assert!(num_segments > 0, "segment count must be positive");
        assert!(span > 0, "span must be positive");
        let mut initial = SegmentTable::uniform(span, num_segments, None);
        let ptr: *mut SegmentTable<P> = &mut *initial;
        SegmentRangeLock {
            tables: SpinLock::new(vec![initial]),
            active: AtomicPtr::new(ptr),
            table_seq: AtomicU64::new(0),
            span,
            adaptive: None,
            drops: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
            stats: None,
            queue: WaitQueue::new(),
        }
    }

    /// Attaches a [`WaitStats`] sink recording contended acquisition times;
    /// under `Block`, every segment also mirrors its park/wake counts there,
    /// and the lock-level queue mirrors waker-registration/cancel counts.
    pub fn with_stats(mut self, stats: Arc<WaitStats>) -> Self {
        {
            let mut tables = self.tables.lock();
            for table in tables.iter_mut() {
                for seg in table.segments.iter_mut() {
                    seg.attach_park_stats(Arc::clone(&stats));
                }
            }
        }
        self.queue.attach_stats(Arc::clone(&stats));
        self.stats = Some(stats);
        self
    }

    /// Enables contention-driven segment rebalancing with `config` (see the
    /// module docs for the protocol and its guarantees).
    pub fn with_adaptive(mut self, config: AdaptiveConfig) -> Self {
        self.adaptive = Some(config);
        self
    }

    /// Enables adaptive segmentation with the geometry-derived defaults of
    /// [`AdaptiveConfig::for_geometry`].
    pub fn adaptive(self) -> Self {
        let config = AdaptiveConfig::for_geometry(self.span, self.num_segments());
        self.with_adaptive(config)
    }

    /// Number of segments in the active table.
    pub fn num_segments(&self) -> usize {
        self.active_table().0.segments.len()
    }

    /// The active table's segment boundaries (`len() == num_segments + 1`).
    pub fn segment_bounds(&self) -> Vec<u64> {
        self.active_table().0.bounds.clone()
    }

    /// Park counts of the active table's segments since that table was
    /// installed — the contention signal adaptive rebalancing reads.
    pub fn segment_park_counts(&self) -> Vec<u64> {
        self.active_table()
            .0
            .segments
            .iter()
            .map(|seg| seg.parks())
            .collect()
    }

    /// Completed rebalances (0 unless adaptive segmentation is enabled).
    pub fn rebalances(&self) -> u64 {
        self.rebalances.load(Ordering::Relaxed)
    }

    /// Snapshot of the active table with the seq value to validate against.
    /// Spins past an in-flight rebalance (the rebalancer never blocks while
    /// the seq is odd, so the window is short).
    fn active_table(&self) -> (&SegmentTable<P>, u64) {
        loop {
            let seq = self.table_seq.load(Ordering::Acquire);
            if seq & 1 == 1 {
                std::thread::yield_now();
                continue;
            }
            let ptr = self.active.load(Ordering::Acquire);
            // Safety: `ptr` points into a `Box` owned by `self.tables`,
            // which retains every generation for the lock's lifetime.
            return (unsafe { &*ptr }, seq);
        }
    }

    /// `segment_span` of the active table (kept as a lock-level helper for
    /// the mapping tests).
    #[cfg(test)]
    fn segment_span(&self, range: &Range) -> (usize, usize) {
        self.active_table().0.segment_span(range)
    }

    /// Acquires `range` in shared mode.
    pub fn read(&self, range: Range) -> SegmentReadGuard<'_, P> {
        let started = Instant::now();
        let mut contended = false;
        let guards = loop {
            let (table, seq) = self.active_table();
            let (first, last) = table.segment_span(&range);
            let mut guards = Vec::with_capacity(last - first + 1);
            for seg in &table.segments[first..=last] {
                match seg.try_read() {
                    Some(g) => guards.push(g),
                    None => {
                        contended = true;
                        guards.push(seg.read());
                    }
                }
            }
            // Seqlock validation: a rebalance retired this table while we
            // were acquiring, so these segments no longer exclude anyone —
            // give them back and redo the mapping on the new table.
            if self.table_seq.load(Ordering::Acquire) == seq {
                break guards;
            }
            drop(guards);
        };
        self.record(WaitKind::Read, started, contended);
        SegmentReadGuard { lock: self, guards }
    }

    /// Acquires `range` in exclusive mode.
    pub fn write(&self, range: Range) -> SegmentWriteGuard<'_, P> {
        let started = Instant::now();
        let mut contended = false;
        let guards = loop {
            let (table, seq) = self.active_table();
            let (first, last) = table.segment_span(&range);
            let mut guards = Vec::with_capacity(last - first + 1);
            for seg in &table.segments[first..=last] {
                match seg.try_write() {
                    Some(g) => guards.push(g),
                    None => {
                        contended = true;
                        guards.push(seg.write());
                    }
                }
            }
            if self.table_seq.load(Ordering::Acquire) == seq {
                break guards;
            }
            drop(guards);
        };
        self.record(WaitKind::Write, started, contended);
        SegmentWriteGuard { lock: self, guards }
    }

    /// Attempts to acquire `range` in shared mode without waiting: every
    /// overlapped segment must be immediately available, otherwise the guards
    /// collected so far are dropped and `None` is returned.
    pub fn try_read(&self, range: Range) -> Option<SegmentReadGuard<'_, P>> {
        loop {
            let (table, seq) = self.active_table();
            let (first, last) = table.segment_span(&range);
            let mut guards = Vec::with_capacity(last - first + 1);
            for seg in &table.segments[first..=last] {
                match seg.try_read() {
                    Some(g) => guards.push(g),
                    None => {
                        let held_any = !guards.is_empty();
                        drop(guards);
                        if held_any {
                            // The transient partial hold may have failed
                            // another bounded attempt (a sync `try_` or a
                            // suspended two-phase poll); per the no-residue
                            // contract, wake the lock-level queue now that
                            // the segments are free again so that attempt
                            // re-runs.
                            self.queue.wake(KEY_ANY);
                        }
                        return None;
                    }
                }
            }
            if self.table_seq.load(Ordering::Acquire) != seq {
                drop(guards);
                continue;
            }
            if let Some(s) = &self.stats {
                s.record_uncontended();
            }
            return Some(SegmentReadGuard { lock: self, guards });
        }
    }

    /// Attempts to acquire `range` in exclusive mode without waiting; see
    /// [`SegmentRangeLock::try_read`].
    pub fn try_write(&self, range: Range) -> Option<SegmentWriteGuard<'_, P>> {
        loop {
            let (table, seq) = self.active_table();
            let (first, last) = table.segment_span(&range);
            let mut guards = Vec::with_capacity(last - first + 1);
            for seg in &table.segments[first..=last] {
                match seg.try_write() {
                    Some(g) => guards.push(g),
                    None => {
                        let held_any = !guards.is_empty();
                        drop(guards);
                        if held_any {
                            // See `try_read`: rollback of a partial hold
                            // must wake suspended pollers.
                            self.queue.wake(KEY_ANY);
                        }
                        return None;
                    }
                }
            }
            if self.table_seq.load(Ordering::Acquire) != seq {
                drop(guards);
                continue;
            }
            if let Some(s) = &self.stats {
                s.record_uncontended();
            }
            return Some(SegmentWriteGuard { lock: self, guards });
        }
    }

    fn record(&self, kind: WaitKind, started: Instant, contended: bool) {
        if let Some(s) = &self.stats {
            if contended {
                s.record_wait_ns(kind, started.elapsed().as_nanos() as u64);
            } else {
                s.record_uncontended();
            }
        }
    }

    /// Guard-drop hook: counts the drop and attempts a rebalance every
    /// `check_interval` drops when adaptive segmentation is on.
    fn maybe_rebalance(&self) {
        let Some(config) = &self.adaptive else {
            return;
        };
        let drops = self.drops.fetch_add(1, Ordering::Relaxed) + 1;
        if !drops.is_multiple_of(config.check_interval) {
            return;
        }
        self.try_rebalance(config);
    }

    /// One opportunistic rebalance attempt: claim the seqlock, quiesce the
    /// active table with an all-or-nothing `try_write` sweep, and install a
    /// re-planned table. Never blocks; aborts (restoring the even seq) if
    /// another rebalance is in flight, any segment is busy, or the plan is
    /// a no-op.
    #[cold]
    fn try_rebalance(&self, config: &AdaptiveConfig) {
        let seq = self.table_seq.load(Ordering::Relaxed);
        if seq & 1 == 1 {
            return;
        }
        if self
            .table_seq
            .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        // Sole rebalancer from here on; new acquirers spin on the odd seq.
        // Safety: see `active_table`.
        let table = unsafe { &*self.active.load(Ordering::Acquire) };
        let mut quiesce = Vec::with_capacity(table.segments.len());
        for seg in &table.segments {
            match seg.try_write() {
                Some(g) => quiesce.push(g),
                None => {
                    // Busy segment: abort without swapping.
                    drop(quiesce);
                    self.table_seq.store(seq, Ordering::Release);
                    return;
                }
            }
        }
        let bounds = plan_bounds(table, config);
        if bounds == table.bounds {
            drop(quiesce);
            self.table_seq.store(seq, Ordering::Release);
            return;
        }
        let mut fresh = SegmentTable::with_bounds(bounds, self.stats.as_ref());
        let ptr: *mut SegmentTable<P> = &mut *fresh;
        self.tables.lock().push(fresh);
        self.active.store(ptr, Ordering::Release);
        self.table_seq.store(seq + 2, Ordering::Release);
        self.rebalances.fetch_add(1, Ordering::Relaxed);
        // Release the retired table's segments last: waiters parked on them
        // acquire, fail the seq validation, and migrate to the new table.
        drop(quiesce);
        self.queue.wake(KEY_ANY);
    }
}

/// Plans the next boundary vector from `table`'s park counts: coalesce runs
/// of cold segments (no parks, bounded by `max_segment_size`), then split
/// hot segments at a `min_segment_size`-aligned midpoint (bounded by
/// `max_segments`). Returns the old bounds unchanged when nothing qualifies.
fn plan_bounds<P: WaitPolicy>(table: &SegmentTable<P>, config: &AdaptiveConfig) -> Vec<u64> {
    let align = config.min_segment_size.max(1);
    // Pass 1: coalesce adjacent cold segments while the merged slice stays
    // within the size ceiling.
    let mut slices: Vec<(u64, u64, u64)> = Vec::with_capacity(table.segments.len());
    for (i, seg) in table.segments.iter().enumerate() {
        let (lo, hi) = (table.bounds[i], table.bounds[i + 1]);
        let parks = seg.parks();
        if let Some(last) = slices.last_mut() {
            if last.2 == 0 && parks == 0 && hi - last.0 <= config.max_segment_size {
                last.1 = hi;
                continue;
            }
        }
        slices.push((lo, hi, parks));
    }
    // Pass 2: split hot slices once at an aligned midpoint.
    let mut count = slices.len();
    let mut bounds = Vec::with_capacity(count + 1);
    bounds.push(table.bounds[0]);
    for (lo, hi, parks) in slices {
        if parks >= config.split_threshold && hi - lo >= 2 * align && count < config.max_segments {
            let mid = (lo + (hi - lo) / 2) / align * align;
            if mid > lo && mid < hi {
                bounds.push(mid);
                count += 1;
            }
        }
        bounds.push(hi);
    }
    bounds
}

impl<P: WaitPolicy> std::fmt::Debug for SegmentRangeLock<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentRangeLock")
            .field("segments", &self.num_segments())
            .field("span", &self.span)
            .field("adaptive", &self.adaptive.is_some())
            .field("rebalances", &self.rebalances())
            .finish()
    }
}

/// RAII guard for a shared segment-lock acquisition.
#[must_use = "the range is released as soon as the guard is dropped"]
pub struct SegmentReadGuard<'a, P: WaitPolicy = Block> {
    lock: &'a SegmentRangeLock<P>,
    guards: Vec<RwSemReadGuard<'a, P>>,
}

impl<P: WaitPolicy> Drop for SegmentReadGuard<'_, P> {
    fn drop(&mut self) {
        // Release every segment first, then wake suspended two-phase
        // acquisitions (sync waiters are woken by the per-segment releases),
        // then give the adaptive clock its tick.
        self.guards.clear();
        self.lock.queue.wake(KEY_ANY);
        self.lock.maybe_rebalance();
    }
}

/// RAII guard for an exclusive segment-lock acquisition.
#[must_use = "the range is released as soon as the guard is dropped"]
pub struct SegmentWriteGuard<'a, P: WaitPolicy = Block> {
    lock: &'a SegmentRangeLock<P>,
    guards: Vec<RwSemWriteGuard<'a, P>>,
}

impl<P: WaitPolicy> Drop for SegmentWriteGuard<'_, P> {
    fn drop(&mut self) {
        self.guards.clear();
        self.lock.queue.wake(KEY_ANY);
        self.lock.maybe_rebalance();
    }
}

/// The two-phase protocol for the segment lock is the try-based adapter
/// (like the tree locks): **poll** attempts every overlapped segment in
/// ascending order and rolls back on the first unavailable one, so a
/// suspended acquisition holds no segment while it waits — unlike a blocking
/// acquisition, which camps on each segment queue in turn. Two consequences,
/// both documented limitations of the pNOVA design rather than of the
/// adapter: a suspended wide acquisition can be starved by churn on its
/// segments (it needs them all free at one poll), and the per-segment
/// anti-starvation preference of `RwSemaphore` does not protect it. Every
/// guard drop wakes the lock-level queue, so a suspended poller re-runs
/// whenever any segment frees. Suspended pollers register unkeyed (segments
/// are not stable conflict identities across a rebalance), so they ride the
/// wait queue's broadcast path.
impl<P: WaitPolicy> TwoPhaseRwRangeLock for SegmentRangeLock<P> {
    type PendingRead = Range;
    type PendingWrite = Range;

    fn enqueue_read(&self, range: Range) -> Self::PendingRead {
        range
    }

    fn poll_read<'a>(&'a self, pending: &mut Self::PendingRead) -> Option<Self::ReadGuard<'a>> {
        SegmentRangeLock::try_read(self, *pending)
    }

    fn cancel_read(&self, _pending: &mut Self::PendingRead) {}

    fn enqueue_write(&self, range: Range) -> Self::PendingWrite {
        range
    }

    fn poll_write<'a>(&'a self, pending: &mut Self::PendingWrite) -> Option<Self::WriteGuard<'a>> {
        SegmentRangeLock::try_write(self, *pending)
    }

    fn cancel_write(&self, _pending: &mut Self::PendingWrite) {}

    fn wait_queue(&self) -> &WaitQueue {
        &self.queue
    }

    fn wait_deadline_keyed(
        &self,
        key: u64,
        cond: &mut dyn FnMut() -> bool,
        deadline: std::time::Instant,
    ) -> bool {
        P::wait(&self.queue, key, cond, Some(deadline))
    }
}

impl<P: WaitPolicy> RwRangeLock for SegmentRangeLock<P> {
    type ReadGuard<'a> = SegmentReadGuard<'a, P>;
    type WriteGuard<'a> = SegmentWriteGuard<'a, P>;

    fn read(&self, range: Range) -> Self::ReadGuard<'_> {
        SegmentRangeLock::read(self, range)
    }

    fn write(&self, range: Range) -> Self::WriteGuard<'_> {
        SegmentRangeLock::write(self, range)
    }

    fn try_read(&self, range: Range) -> Option<Self::ReadGuard<'_>> {
        SegmentRangeLock::try_read(self, range)
    }

    fn try_write(&self, range: Range) -> Option<Self::WriteGuard<'_>> {
        SegmentRangeLock::try_write(self, range)
    }

    fn name(&self) -> &'static str {
        "pnova-rw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

    #[test]
    fn segment_mapping_covers_span() {
        let lock = SegmentRangeLock::new(256, 16); // 16 addresses per segment
        assert_eq!(lock.segment_span(&Range::new(0, 16)), (0, 0));
        assert_eq!(lock.segment_span(&Range::new(0, 17)), (0, 1));
        assert_eq!(lock.segment_span(&Range::new(15, 16)), (0, 0));
        assert_eq!(lock.segment_span(&Range::new(240, 256)), (15, 15));
        assert_eq!(lock.segment_span(&Range::FULL), (0, 15));
        // Out-of-span addresses clamp to the last segment.
        assert_eq!(lock.segment_span(&Range::new(1_000, 2_000)), (15, 15));
    }

    #[test]
    fn readers_share_writers_exclude() {
        let lock = SegmentRangeLock::new(256, 16);
        let r1 = lock.read(Range::new(0, 100));
        let r2 = lock.read(Range::new(50, 150));
        drop(r1);
        drop(r2);
        let w = lock.write(Range::new(0, 100));
        drop(w);
    }

    #[test]
    fn disjoint_segments_do_not_block() {
        let lock = Arc::new(SegmentRangeLock::new(256, 16));
        let w1 = lock.write(Range::new(0, 16));
        // A writer on a different segment must acquire immediately.
        let w2 = lock.write(Range::new(128, 144));
        drop(w1);
        drop(w2);
    }

    #[test]
    fn overlapping_writer_blocks() {
        let lock = Arc::new(SegmentRangeLock::new(256, 16));
        let w = lock.write(Range::new(0, 64));
        let l2 = Arc::clone(&lock);
        let handle = std::thread::spawn(move || {
            let _w2 = l2.write(Range::new(32, 96));
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished());
        drop(w);
        handle.join().unwrap();
    }

    #[test]
    fn false_sharing_on_same_segment_serializes() {
        // Two disjoint ranges falling into the same segment serialize — the
        // granularity limitation discussed in Section 2.
        let lock = Arc::new(SegmentRangeLock::new(256, 4)); // 64 addresses/segment
        let w = lock.write(Range::new(0, 8));
        let l2 = Arc::clone(&lock);
        let handle = std::thread::spawn(move || {
            let _w2 = l2.write(Range::new(32, 40));
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished());
        drop(w);
        handle.join().unwrap();
    }

    #[test]
    fn reader_writer_exclusion_stress() {
        const THREADS: usize = 8;
        const ITERS: usize = 500;
        let lock = Arc::new(SegmentRangeLock::new(1024, 64));
        let readers = Arc::new(AtomicI64::new(0));
        let writer_inside = Arc::new(AtomicBool::new(false));
        let violations = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            let readers = Arc::clone(&readers);
            let writer_inside = Arc::clone(&writer_inside);
            let violations = Arc::clone(&violations);
            handles.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    let range = Range::new(0, 1024); // always the full span
                    if (t + i) % 4 == 0 {
                        let g = lock.write(range);
                        if writer_inside.swap(true, Ordering::SeqCst)
                            || readers.load(Ordering::SeqCst) != 0
                        {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        writer_inside.store(false, Ordering::SeqCst);
                        drop(g);
                    } else {
                        let g = lock.read(range);
                        readers.fetch_add(1, Ordering::SeqCst);
                        if writer_inside.load(Ordering::SeqCst) {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        readers.fetch_sub(1, Ordering::SeqCst);
                        drop(g);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn stats_sink_is_fed() {
        let stats = Arc::new(WaitStats::new("pnova"));
        let lock = SegmentRangeLock::new(256, 8).with_stats(Arc::clone(&stats));
        for _ in 0..10 {
            drop(lock.write(Range::FULL));
        }
        assert!(stats.snapshot().acquisitions >= 10);
    }

    #[test]
    fn trait_name() {
        assert_eq!(RwRangeLock::name(&SegmentRangeLock::new(16, 4)), "pnova-rw");
    }

    #[test]
    fn failed_try_with_partial_holds_wakes_the_lock_queue() {
        // Regression: a bounded attempt that acquired some segments and then
        // rolled back transiently blocked other bounded attempts; per the
        // two-phase contract its rollback must wake the lock-level queue
        // (observable as a generation bump) so suspended pollers re-run.
        let lock = SegmentRangeLock::new(256, 16); // 16 addresses/segment
        let held = lock.write(Range::new(32, 48)); // segment 2 only
        let gen_before = TwoPhaseRwRangeLock::wait_queue(&lock).generation();
        // Spans segments 0..=2: acquires 0 and 1, fails at 2, rolls back.
        assert!(lock.try_write(Range::new(0, 48)).is_none());
        assert!(
            TwoPhaseRwRangeLock::wait_queue(&lock).generation() > gen_before,
            "rollback of partial holds must wake the lock-level queue"
        );
        // A failure with *no* partial hold (first segment blocked) stays
        // quiet: nothing transient was given back.
        let gen_before = TwoPhaseRwRangeLock::wait_queue(&lock).generation();
        assert!(lock.try_write(Range::new(32, 48)).is_none());
        assert_eq!(
            TwoPhaseRwRangeLock::wait_queue(&lock).generation(),
            gen_before
        );
        drop(held);
    }

    #[test]
    fn try_methods_respect_segment_conflicts() {
        let lock = SegmentRangeLock::new(256, 16);
        let w = lock.write(Range::new(0, 64));
        assert!(lock.try_write(Range::new(32, 96)).is_none());
        assert!(lock.try_read(Range::new(32, 96)).is_none());
        // Disjoint segments are immediately available.
        drop(
            lock.try_write(Range::new(128, 192))
                .expect("disjoint segments"),
        );
        drop(w);
        drop(lock.try_write(Range::new(32, 96)).expect("released"));
        // Readers share segments.
        let r = lock.read(Range::new(0, 64));
        drop(lock.try_read(Range::new(0, 64)).expect("readers share"));
        drop(r);
    }

    #[test]
    fn static_lock_never_rebalances() {
        let lock = SegmentRangeLock::new(256, 8);
        for _ in 0..500 {
            drop(lock.write(Range::FULL));
        }
        assert_eq!(lock.rebalances(), 0);
        assert_eq!(lock.num_segments(), 8);
    }

    #[test]
    fn adaptive_splits_the_hot_segment() {
        // Two segments of 128; a parked waiter marks segment 0 hot. The
        // check interval is 2 so exactly the *second* guard drop (the woken
        // waiter's) attempts the rebalance, with the park already counted.
        let lock = Arc::new(SegmentRangeLock::new(256, 2).with_adaptive(AdaptiveConfig {
            check_interval: 2,
            split_threshold: 1,
            ..AdaptiveConfig::for_geometry(256, 2)
        }));
        let w = lock.write(Range::new(0, 16));
        let contender = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                drop(lock.write(Range::new(0, 16)));
            })
        };
        while lock.segment_park_counts()[0] == 0 {
            std::thread::yield_now();
        }
        drop(w); // drop #1: no rebalance attempt (interval 2)
        contender.join().unwrap(); // drop #2: rebalance, segment 0 hot
        assert_eq!(lock.rebalances(), 1);
        // Hot [0, 128) split at the aligned midpoint; cold [128, 256) kept.
        assert_eq!(lock.segment_bounds(), vec![0, 64, 128, 256]);
        assert_eq!(lock.num_segments(), 3);
    }

    #[test]
    fn adaptive_coalesces_cold_segments_within_the_size_ceiling() {
        // Eight cold segments of 32; the ceiling (4x initial = 128) allows
        // coalescing down to exactly two segments, not one.
        let lock = SegmentRangeLock::new(256, 8).with_adaptive(AdaptiveConfig {
            check_interval: 1,
            ..AdaptiveConfig::for_geometry(256, 8)
        });
        drop(lock.write(Range::new(0, 1))); // drop #1 triggers the rebalance
        assert_eq!(lock.rebalances(), 1);
        assert_eq!(lock.segment_bounds(), vec![0, 128, 256]);
        assert_eq!(lock.num_segments(), 2);
    }

    #[test]
    fn adaptive_rebalance_aborts_while_segments_are_held() {
        let lock = SegmentRangeLock::new(256, 4).with_adaptive(AdaptiveConfig {
            check_interval: 1,
            ..AdaptiveConfig::for_geometry(256, 4)
        });
        let held = lock.write(Range::new(0, 16));
        // The drop of a disjoint guard attempts a rebalance but finds
        // segment 0 busy and must abort without swapping tables.
        drop(lock.write(Range::new(128, 144)));
        assert_eq!(lock.rebalances(), 0);
        assert_eq!(lock.num_segments(), 4);
        drop(held);
    }

    #[test]
    fn adaptive_exclusion_stress_across_rebalances() {
        // Exclusion must hold while tables are retired and reinstalled under
        // load: every guard validates its table snapshot before it counts.
        const THREADS: usize = 8;
        const ITERS: usize = 400;
        let lock = Arc::new(
            SegmentRangeLock::new(1024, 8).with_adaptive(AdaptiveConfig {
                check_interval: 16,
                split_threshold: 2,
                ..AdaptiveConfig::for_geometry(1024, 8)
            }),
        );
        let writer_inside = Arc::new(AtomicBool::new(false));
        let readers = Arc::new(AtomicI64::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            let writer_inside = Arc::clone(&writer_inside);
            let readers = Arc::clone(&readers);
            let violations = Arc::clone(&violations);
            handles.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    if (t + i) % 3 == 0 {
                        // Full-span writers must exclude everyone, whatever
                        // table generation their guard came from.
                        let g = lock.write(Range::new(0, 1024));
                        if writer_inside.swap(true, Ordering::SeqCst)
                            || readers.load(Ordering::SeqCst) != 0
                        {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        writer_inside.store(false, Ordering::SeqCst);
                        drop(g);
                    } else {
                        // Readers take varying slices to spread parks across
                        // segments and provoke splits.
                        let start = ((t * 7 + i) % 8) as u64 * 128;
                        let g = lock.read(Range::new(start, start + 128));
                        readers.fetch_add(1, Ordering::SeqCst);
                        if writer_inside.load(Ordering::SeqCst) {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        readers.fetch_sub(1, Ordering::SeqCst);
                        drop(g);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }
}
