//! Kernel-style tree-based range locks (the paper's baselines).
//!
//! This is a faithful user-space port of the range lock found in the Linux
//! kernel patches the paper compares against (Section 3):
//!
//! * [`TreeRangeLock`] — the original exclusive-only design from the Lustre
//!   file system / Jan Kara's `lib: Implement range locks` (the paper's
//!   `lustre-ex`);
//! * [`RwTreeRangeLock`] — Davidlohr Bueso's reader-writer extension (the
//!   paper's `kernel-rw`).
//!
//! The algorithm: every acquisition takes an internal **spin lock**, counts
//! the ranges already in the range tree that block it (overlapping ranges,
//! excluding reader-reader pairs in the reader-writer variant), inserts its
//! own node annotated with that count, and releases the spin lock. If the
//! count was zero the range is held; otherwise the thread waits for it to
//! drop to zero. On release the thread takes the spin lock again, removes its
//! node and decrements the block count of every overlapping waiter.
//!
//! The spin lock is taken on *every* acquisition and release — for any range,
//! in any mode — which is exactly the scalability bottleneck the list-based
//! locks remove. Both the spin-lock wait time (Figure 8) and the overall
//! acquisition wait time (Figure 7) can be recorded through [`WaitStats`]
//! sinks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use range_lock::{Range, RwRangeLock, TwoPhaseRwRangeLock};
use rl_sync::stats::{WaitKind, WaitStats};
use rl_sync::wait::{SpinThenYield, WaitPolicy, WaitQueue};
use rl_sync::SpinLock;

use crate::range_tree::{Interval, RangeTree};

/// A range waiting in (or holding) the tree, shared between the acquiring
/// thread and releasers that decrement its block count.
#[derive(Debug)]
struct Waiter {
    reader: bool,
    blocked: AtomicUsize,
}

#[derive(Debug, Default)]
struct TreeState {
    tree: RangeTree,
    waiters: HashMap<u64, Arc<Waiter>>,
}

/// Shared implementation behind both public lock types.
#[derive(Debug)]
struct TreeLockInner<P: WaitPolicy> {
    state: SpinLock<TreeState>,
    next_id: AtomicU64,
    /// Range-acquisition wait times (Figure 7).
    stats: Option<Arc<WaitStats>>,
    /// Wake channel for the `Block` policy; idle under spinning policies.
    queue: WaitQueue,
    _policy: std::marker::PhantomData<P>,
}

impl<P: WaitPolicy> TreeLockInner<P> {
    fn new() -> Self {
        TreeLockInner {
            state: SpinLock::new(TreeState::default()),
            next_id: AtomicU64::new(1),
            stats: None,
            queue: WaitQueue::new(),
            _policy: std::marker::PhantomData,
        }
    }

    fn with_spin_stats(spin_stats: Arc<WaitStats>) -> Self {
        TreeLockInner {
            state: SpinLock::with_stats(TreeState::default(), spin_stats),
            next_id: AtomicU64::new(1),
            stats: None,
            queue: WaitQueue::new(),
            _policy: std::marker::PhantomData,
        }
    }

    /// Acquires `range`; `reader` selects the blocking rule.
    fn acquire(&self, range: Range, reader: bool) -> u64 {
        let started = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let waiter = Arc::new(Waiter {
            reader,
            blocked: AtomicUsize::new(0),
        });
        {
            let mut guard = self.state.lock();
            let state = &mut *guard;
            let mut blocked = 0usize;
            let waiters = &state.waiters;
            state.tree.for_each_overlap(&range, |iv| {
                let other = waiters
                    .get(&iv.id)
                    .expect("every tree entry has a registered waiter");
                if !(reader && other.reader) {
                    blocked += 1;
                }
            });
            waiter.blocked.store(blocked, Ordering::Relaxed);
            state.tree.insert(Interval { range, id });
            state.waiters.insert(id, Arc::clone(&waiter));
        }
        // Wait outside the spin lock until every blocking range is released.
        // Each waiter parks under its own key — the `Arc<Waiter>` address —
        // and the releaser that drops its count to zero wakes exactly that
        // key, so an unrelated release leaves it parked.
        if waiter.blocked.load(Ordering::Acquire) != 0 {
            let wait_key = Arc::as_ptr(&waiter) as u64;
            let unblocked = || waiter.blocked.load(Ordering::Acquire) == 0;
            P::wait(&self.queue, wait_key, unblocked, None);
            if let Some(s) = &self.stats {
                let kind = if reader {
                    WaitKind::Read
                } else {
                    WaitKind::Write
                };
                s.record_wait_ns(kind, started.elapsed().as_nanos() as u64);
            }
        } else if let Some(s) = &self.stats {
            s.record_uncontended();
        }
        id
    }

    /// Bounded acquisition attempt: inserts the range only if nothing blocks
    /// it, otherwise leaves the tree untouched and returns `None`.
    ///
    /// Unlike the list-based locks this attempt cannot fail spuriously — the
    /// internal spin lock gives it a consistent view of the tree — but it
    /// still takes that spin lock, which is exactly the scalability cost the
    /// paper measures.
    fn try_acquire(&self, range: Range, reader: bool) -> Option<u64> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut guard = self.state.lock();
            let state = &mut *guard;
            let mut blocked = false;
            let waiters = &state.waiters;
            state.tree.for_each_overlap(&range, |iv| {
                let other = waiters
                    .get(&iv.id)
                    .expect("every tree entry has a registered waiter");
                if !(reader && other.reader) {
                    blocked = true;
                }
            });
            if blocked {
                return None;
            }
            state.tree.insert(Interval { range, id });
            state.waiters.insert(
                id,
                Arc::new(Waiter {
                    reader,
                    blocked: AtomicUsize::new(0),
                }),
            );
        }
        if let Some(s) = &self.stats {
            s.record_uncontended();
        }
        Some(id)
    }

    fn release(&self, range: Range, id: u64, reader: bool) {
        let mut unblocked: Vec<u64> = Vec::new();
        {
            let mut guard = self.state.lock();
            let state = &mut *guard;
            let removed = state.tree.remove(&Interval { range, id });
            debug_assert!(removed, "released a range that was not in the tree");
            state.waiters.remove(&id);
            let waiters = &state.waiters;
            state.tree.for_each_overlap(&range, |iv| {
                let other = waiters
                    .get(&iv.id)
                    .expect("every tree entry has a registered waiter");
                if !(reader && other.reader) && other.blocked.fetch_sub(1, Ordering::AcqRel) == 1 {
                    unblocked.push(Arc::as_ptr(other) as u64);
                }
            });
        }
        // Wake hook, outside the spin lock. A release that dropped waiters'
        // block counts to zero wakes exactly those waiters' keys; every
        // other release still nudges the unkeyed population — a two-phase
        // poller is not in the tree's count bookkeeping, so *every* removal
        // may be the one it was blocked on — without disturbing keyed
        // parkers whose counts are still positive.
        if unblocked.is_empty() {
            self.queue.wake_unkeyed();
        } else {
            for key in unblocked {
                self.queue.wake(key);
            }
        }
    }

    fn held_ranges(&self) -> usize {
        self.state.lock().tree.len()
    }
}

/// The exclusive tree-based range lock (`lustre-ex`).
///
/// # Examples
///
/// ```
/// use rl_baselines::TreeRangeLock;
/// use range_lock::Range;
///
/// let lock = TreeRangeLock::new();
/// let a = lock.acquire(Range::new(0, 10));
/// let b = lock.acquire(Range::new(10, 20));
/// drop(a);
/// drop(b);
/// ```
#[derive(Debug)]
pub struct TreeRangeLock<P: WaitPolicy = SpinThenYield> {
    inner: TreeLockInner<P>,
}

impl TreeRangeLock {
    /// Creates a new lock with the default [`SpinThenYield`] wait policy.
    pub fn new() -> Self {
        Self::with_policy()
    }

    /// Creates a default-policy lock whose *internal spin lock* reports wait
    /// times to `spin_stats` (used to reproduce Figure 8).
    pub fn with_spin_stats(spin_stats: Arc<WaitStats>) -> Self {
        Self::with_policy_spin_stats(spin_stats)
    }
}

impl<P: WaitPolicy> TreeRangeLock<P> {
    /// Creates a lock whose waiters wait through policy `P`.
    pub fn with_policy() -> Self {
        TreeRangeLock {
            inner: TreeLockInner::new(),
        }
    }

    /// Creates a policy-`P` lock whose *internal spin lock* reports wait
    /// times to `spin_stats`.
    pub fn with_policy_spin_stats(spin_stats: Arc<WaitStats>) -> Self {
        TreeRangeLock {
            inner: TreeLockInner::with_spin_stats(spin_stats),
        }
    }

    /// Attaches a [`WaitStats`] sink recording range-acquisition wait times
    /// (used to reproduce Figure 7), plus park/wake counts under `Block`.
    pub fn with_stats(mut self, stats: Arc<WaitStats>) -> Self {
        self.inner.queue.attach_stats(Arc::clone(&stats));
        self.inner.stats = Some(stats);
        self
    }

    /// Acquires exclusive access to `range`.
    pub fn acquire(&self, range: Range) -> TreeRangeGuard<'_, P> {
        let id = self.inner.acquire(range, false);
        TreeRangeGuard {
            lock: &self.inner,
            range,
            id,
            reader: false,
        }
    }

    /// Acquires the entire resource.
    pub fn acquire_full(&self) -> TreeRangeGuard<'_, P> {
        self.acquire(Range::FULL)
    }

    /// Attempts to acquire `range` without waiting; `None` if anything
    /// overlapping is already in the tree.
    pub fn try_acquire(&self, range: Range) -> Option<TreeRangeGuard<'_, P>> {
        let id = self.inner.try_acquire(range, false)?;
        Some(TreeRangeGuard {
            lock: &self.inner,
            range,
            id,
            reader: false,
        })
    }

    /// Number of ranges currently in the tree (holders and waiters).
    pub fn tracked_ranges(&self) -> usize {
        self.inner.held_ranges()
    }
}

impl<P: WaitPolicy> Default for TreeRangeLock<P> {
    fn default() -> Self {
        Self::with_policy()
    }
}

/// The reader-writer tree-based range lock (`kernel-rw`).
///
/// # Examples
///
/// ```
/// use rl_baselines::RwTreeRangeLock;
/// use range_lock::{Range, RwRangeLock};
///
/// let lock = RwTreeRangeLock::new();
/// let r1 = lock.read(Range::new(0, 100));
/// let r2 = lock.read(Range::new(50, 150));
/// drop(r1);
/// drop(r2);
/// let _w = lock.write(Range::new(0, 100));
/// ```
#[derive(Debug)]
pub struct RwTreeRangeLock<P: WaitPolicy = SpinThenYield> {
    inner: TreeLockInner<P>,
}

impl RwTreeRangeLock {
    /// Creates a new lock with the default [`SpinThenYield`] wait policy.
    pub fn new() -> Self {
        Self::with_policy()
    }

    /// Creates a default-policy lock whose *internal spin lock* reports wait
    /// times to `spin_stats` (used to reproduce Figure 8).
    pub fn with_spin_stats(spin_stats: Arc<WaitStats>) -> Self {
        Self::with_policy_spin_stats(spin_stats)
    }
}

impl<P: WaitPolicy> RwTreeRangeLock<P> {
    /// Creates a lock whose waiters wait through policy `P`.
    pub fn with_policy() -> Self {
        RwTreeRangeLock {
            inner: TreeLockInner::new(),
        }
    }

    /// Creates a policy-`P` lock whose *internal spin lock* reports wait
    /// times to `spin_stats`.
    pub fn with_policy_spin_stats(spin_stats: Arc<WaitStats>) -> Self {
        RwTreeRangeLock {
            inner: TreeLockInner::with_spin_stats(spin_stats),
        }
    }

    /// Attaches a [`WaitStats`] sink recording range-acquisition wait times
    /// (used to reproduce Figure 7), plus park/wake counts under `Block`.
    pub fn with_stats(mut self, stats: Arc<WaitStats>) -> Self {
        self.inner.queue.attach_stats(Arc::clone(&stats));
        self.inner.stats = Some(stats);
        self
    }

    /// Acquires `range` in shared (reader) mode.
    pub fn read(&self, range: Range) -> TreeRangeGuard<'_, P> {
        let id = self.inner.acquire(range, true);
        TreeRangeGuard {
            lock: &self.inner,
            range,
            id,
            reader: true,
        }
    }

    /// Acquires `range` in exclusive (writer) mode.
    pub fn write(&self, range: Range) -> TreeRangeGuard<'_, P> {
        let id = self.inner.acquire(range, false);
        TreeRangeGuard {
            lock: &self.inner,
            range,
            id,
            reader: false,
        }
    }

    /// Attempts to acquire `range` in shared mode without waiting; `None` if
    /// an overlapping writer is already in the tree.
    pub fn try_read(&self, range: Range) -> Option<TreeRangeGuard<'_, P>> {
        let id = self.inner.try_acquire(range, true)?;
        Some(TreeRangeGuard {
            lock: &self.inner,
            range,
            id,
            reader: true,
        })
    }

    /// Attempts to acquire `range` in exclusive mode without waiting; `None`
    /// if anything overlapping is already in the tree.
    pub fn try_write(&self, range: Range) -> Option<TreeRangeGuard<'_, P>> {
        let id = self.inner.try_acquire(range, false)?;
        Some(TreeRangeGuard {
            lock: &self.inner,
            range,
            id,
            reader: false,
        })
    }

    /// Number of ranges currently in the tree (holders and waiters).
    pub fn tracked_ranges(&self) -> usize {
        self.inner.held_ranges()
    }
}

impl<P: WaitPolicy> Default for RwTreeRangeLock<P> {
    fn default() -> Self {
        Self::with_policy()
    }
}

/// RAII guard for a range held in a tree-based range lock.
#[must_use = "the range is released as soon as the guard is dropped"]
#[derive(Debug)]
pub struct TreeRangeGuard<'a, P: WaitPolicy = SpinThenYield> {
    lock: &'a TreeLockInner<P>,
    range: Range,
    id: u64,
    reader: bool,
}

impl<P: WaitPolicy> TreeRangeGuard<'_, P> {
    /// The range this guard protects.
    pub fn range(&self) -> Range {
        self.range
    }

    /// Returns `true` if the range is held in shared mode.
    pub fn is_reader(&self) -> bool {
        self.reader
    }
}

impl<P: WaitPolicy> Drop for TreeRangeGuard<'_, P> {
    fn drop(&mut self) {
        self.lock.release(self.range, self.id, self.reader);
    }
}

/// Shared and exclusive acquisitions are the same exclusive acquisition.
impl<P: WaitPolicy> RwRangeLock for TreeRangeLock<P> {
    type ReadGuard<'a> = TreeRangeGuard<'a, P>;
    type WriteGuard<'a> = TreeRangeGuard<'a, P>;

    fn read(&self, range: Range) -> Self::ReadGuard<'_> {
        self.acquire(range)
    }

    fn write(&self, range: Range) -> Self::WriteGuard<'_> {
        self.acquire(range)
    }

    fn try_read(&self, range: Range) -> Option<Self::ReadGuard<'_>> {
        self.try_acquire(range)
    }

    fn try_write(&self, range: Range) -> Option<Self::WriteGuard<'_>> {
        self.try_acquire(range)
    }

    fn downgrade<'a>(
        &'a self,
        guard: Self::WriteGuard<'a>,
    ) -> Result<Self::ReadGuard<'a>, Self::WriteGuard<'a>> {
        // An exclusive hold already covers a shared one: the identity.
        Ok(guard)
    }

    fn readers_share(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "lustre-ex"
    }
}

/// The two-phase protocol for the tree locks is the natural *try-based*
/// adapter: the tree's internal spin lock gives every bounded attempt a
/// consistent view, so **enqueue** just records the range, **poll** is a
/// `try_` acquisition, and **cancel** has nothing to undo. One fidelity
/// note: a blocking tree acquisition queues FIFO inside the tree (its node
/// counts toward later arrivals' block counts), while a suspended two-phase
/// acquisition holds no tree node and therefore *barges* — it competes
/// afresh on every wake, like a futex waiter without a queue slot. Every
/// release wakes the queue (see `TreeLockInner::release`), so a suspended
/// poller cannot miss the removal it was blocked on.
impl<P: WaitPolicy> TwoPhaseRwRangeLock for TreeRangeLock<P> {
    type PendingRead = Range;
    type PendingWrite = Range;

    fn enqueue_read(&self, range: Range) -> Self::PendingRead {
        range
    }

    fn poll_read<'a>(&'a self, pending: &mut Self::PendingRead) -> Option<Self::ReadGuard<'a>> {
        self.try_acquire(*pending)
    }

    fn cancel_read(&self, _pending: &mut Self::PendingRead) {}

    fn enqueue_write(&self, range: Range) -> Self::PendingWrite {
        range
    }

    fn poll_write<'a>(&'a self, pending: &mut Self::PendingWrite) -> Option<Self::WriteGuard<'a>> {
        self.try_acquire(*pending)
    }

    fn cancel_write(&self, _pending: &mut Self::PendingWrite) {}

    fn wait_queue(&self) -> &WaitQueue {
        &self.inner.queue
    }

    fn wait_deadline_keyed(
        &self,
        key: u64,
        cond: &mut dyn FnMut() -> bool,
        deadline: std::time::Instant,
    ) -> bool {
        P::wait(&self.inner.queue, key, cond, Some(deadline))
    }
}

/// See the `TreeRangeLock` impl above for the try-based adapter and its
/// FIFO-vs-barging fidelity note, which apply to both modes here.
impl<P: WaitPolicy> TwoPhaseRwRangeLock for RwTreeRangeLock<P> {
    type PendingRead = Range;
    type PendingWrite = Range;

    fn enqueue_read(&self, range: Range) -> Self::PendingRead {
        range
    }

    fn poll_read<'a>(&'a self, pending: &mut Self::PendingRead) -> Option<Self::ReadGuard<'a>> {
        RwTreeRangeLock::try_read(self, *pending)
    }

    fn cancel_read(&self, _pending: &mut Self::PendingRead) {}

    fn enqueue_write(&self, range: Range) -> Self::PendingWrite {
        range
    }

    fn poll_write<'a>(&'a self, pending: &mut Self::PendingWrite) -> Option<Self::WriteGuard<'a>> {
        RwTreeRangeLock::try_write(self, *pending)
    }

    fn cancel_write(&self, _pending: &mut Self::PendingWrite) {}

    fn wait_queue(&self) -> &WaitQueue {
        &self.inner.queue
    }

    fn wait_deadline_keyed(
        &self,
        key: u64,
        cond: &mut dyn FnMut() -> bool,
        deadline: std::time::Instant,
    ) -> bool {
        P::wait(&self.inner.queue, key, cond, Some(deadline))
    }
}

impl<P: WaitPolicy> RwRangeLock for RwTreeRangeLock<P> {
    type ReadGuard<'a> = TreeRangeGuard<'a, P>;
    type WriteGuard<'a> = TreeRangeGuard<'a, P>;

    fn read(&self, range: Range) -> Self::ReadGuard<'_> {
        RwTreeRangeLock::read(self, range)
    }

    fn write(&self, range: Range) -> Self::WriteGuard<'_> {
        RwTreeRangeLock::write(self, range)
    }

    fn try_read(&self, range: Range) -> Option<Self::ReadGuard<'_>> {
        RwTreeRangeLock::try_read(self, range)
    }

    fn try_write(&self, range: Range) -> Option<Self::WriteGuard<'_>> {
        RwTreeRangeLock::try_write(self, range)
    }

    fn name(&self) -> &'static str {
        "kernel-rw"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering as StdOrdering};

    #[test]
    fn exclusive_disjoint_ranges_coexist() {
        let lock = TreeRangeLock::new();
        let a = lock.acquire(Range::new(0, 10));
        let b = lock.acquire(Range::new(10, 20));
        assert_eq!(lock.tracked_ranges(), 2);
        drop(a);
        drop(b);
        assert_eq!(lock.tracked_ranges(), 0);
    }

    #[test]
    fn exclusive_overlap_blocks() {
        let lock = Arc::new(TreeRangeLock::new());
        let g = lock.acquire(Range::new(0, 100));
        let l2 = Arc::clone(&lock);
        let handle = std::thread::spawn(move || {
            let _g = l2.acquire(Range::new(50, 150));
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!handle.is_finished());
        drop(g);
        handle.join().unwrap();
    }

    #[test]
    fn rw_readers_share_writers_exclude() {
        let lock = RwTreeRangeLock::new();
        let r1 = lock.read(Range::new(0, 100));
        let r2 = lock.read(Range::new(50, 150));
        assert_eq!(lock.tracked_ranges(), 2);
        drop(r1);
        drop(r2);
        let _w = lock.write(Range::new(0, 100));
        assert_eq!(lock.tracked_ranges(), 1);
    }

    #[test]
    fn fifo_ordering_blocks_non_overlapping_later_range() {
        // Section 3's concurrency limitation: A=[1..3] held, B=[2..7] waits,
        // C=[4..5] does not overlap A but is queued behind B and must wait for
        // B to be ordered (i.e. C's block count includes B).
        let lock = Arc::new(TreeRangeLock::new());
        let a = lock.acquire(Range::new(1, 3));

        let lock_b = Arc::clone(&lock);
        let b_holding = Arc::new(AtomicBool::new(false));
        let b_flag = Arc::clone(&b_holding);
        let b = std::thread::spawn(move || {
            let g = lock_b.acquire(Range::new(2, 7));
            b_flag.store(true, StdOrdering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(30));
            drop(g);
        });
        // Give B time to enqueue behind A.
        std::thread::sleep(std::time::Duration::from_millis(20));

        let lock_c = Arc::clone(&lock);
        let c_done = Arc::new(AtomicBool::new(false));
        let c_flag = Arc::clone(&c_done);
        let c = std::thread::spawn(move || {
            let _g = lock_c.acquire(Range::new(4, 5));
            c_flag.store(true, StdOrdering::SeqCst);
        });

        std::thread::sleep(std::time::Duration::from_millis(20));
        // C overlaps B (which is still waiting behind A), so C must not have
        // acquired yet even though it does not overlap the holder A.
        assert!(!c_done.load(StdOrdering::SeqCst));
        drop(a);
        b.join().unwrap();
        c.join().unwrap();
        assert!(b_holding.load(StdOrdering::SeqCst));
        assert!(c_done.load(StdOrdering::SeqCst));
    }

    #[test]
    fn exclusive_mutual_exclusion_stress() {
        const THREADS: usize = 8;
        const ITERS: usize = 300;
        let lock = Arc::new(TreeRangeLock::new());
        let inside = Arc::new(AtomicBool::new(false));
        let violations = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            let inside = Arc::clone(&inside);
            let violations = Arc::clone(&violations);
            handles.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    let start = ((t + i) % 10) as u64 * 5;
                    let g = lock.acquire(Range::new(start, start + 60));
                    if inside.swap(true, StdOrdering::SeqCst) {
                        violations.fetch_add(1, StdOrdering::SeqCst);
                    }
                    inside.store(false, StdOrdering::SeqCst);
                    drop(g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(violations.load(StdOrdering::SeqCst), 0);
        assert_eq!(lock.tracked_ranges(), 0);
    }

    #[test]
    fn rw_reader_writer_exclusion_stress() {
        const THREADS: usize = 8;
        const ITERS: usize = 300;
        let lock = Arc::new(RwTreeRangeLock::new());
        let readers = Arc::new(AtomicI64::new(0));
        let writers = Arc::new(AtomicI64::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            let readers = Arc::clone(&readers);
            let writers = Arc::clone(&writers);
            let violations = Arc::clone(&violations);
            handles.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    let start = ((t * 11 + i * 3) % 50) as u64 * 4;
                    let range = Range::new(start, start + 250);
                    if (t + i) % 3 == 0 {
                        let g = lock.write(range);
                        writers.fetch_add(1, StdOrdering::SeqCst);
                        if writers.load(StdOrdering::SeqCst) != 1
                            || readers.load(StdOrdering::SeqCst) != 0
                        {
                            violations.fetch_add(1, StdOrdering::SeqCst);
                        }
                        writers.fetch_sub(1, StdOrdering::SeqCst);
                        drop(g);
                    } else {
                        let g = lock.read(range);
                        readers.fetch_add(1, StdOrdering::SeqCst);
                        if writers.load(StdOrdering::SeqCst) != 0 {
                            violations.fetch_add(1, StdOrdering::SeqCst);
                        }
                        readers.fetch_sub(1, StdOrdering::SeqCst);
                        drop(g);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(violations.load(StdOrdering::SeqCst), 0);
    }

    #[test]
    fn stats_sinks_are_fed() {
        let spin_stats = Arc::new(WaitStats::new("tree-spin"));
        let wait_stats = Arc::new(WaitStats::new("tree-wait"));
        let lock = Arc::new(
            RwTreeRangeLock::with_spin_stats(Arc::clone(&spin_stats))
                .with_stats(Arc::clone(&wait_stats)),
        );
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    drop(lock.write(Range::new(0, 100)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(wait_stats.snapshot().acquisitions > 0);
        // The spin lock protects every acquisition and release; with four
        // threads hammering the same range some contention is expected,
        // although we only assert that the counters are wired up.
        let _ = spin_stats.snapshot();
    }

    #[test]
    fn trait_impls_have_expected_names() {
        assert_eq!(RwRangeLock::name(&TreeRangeLock::new()), "lustre-ex");
        assert_eq!(RwRangeLock::name(&RwTreeRangeLock::new()), "kernel-rw");
    }

    #[test]
    fn try_acquire_respects_overlap() {
        let lock = TreeRangeLock::new();
        let g = lock.acquire(Range::new(0, 10));
        assert!(lock.try_acquire(Range::new(5, 15)).is_none());
        let disjoint = lock.try_acquire(Range::new(10, 20)).expect("disjoint");
        drop(g);
        drop(disjoint);
        assert_eq!(lock.tracked_ranges(), 0);
    }

    #[test]
    fn rw_try_methods_respect_modes() {
        let lock = RwTreeRangeLock::new();
        let r = lock.read(Range::new(0, 100));
        // Readers share, writers are rejected, disjoint writers succeed.
        drop(lock.try_read(Range::new(50, 150)).expect("readers share"));
        assert!(lock.try_write(Range::new(50, 150)).is_none());
        drop(
            lock.try_write(Range::new(100, 200))
                .expect("disjoint writer"),
        );
        drop(r);
        drop(lock.try_write(Range::new(50, 150)).expect("now free"));
        assert_eq!(lock.tracked_ranges(), 0);
    }

    #[test]
    fn try_acquire_does_not_block_waiters_permanently() {
        // A failed try must leave no residue that blocks later acquisitions.
        let lock = Arc::new(RwTreeRangeLock::new());
        let w = lock.write(Range::new(0, 100));
        for _ in 0..100 {
            assert!(lock.try_read(Range::new(0, 50)).is_none());
        }
        drop(w);
        drop(lock.read(Range::new(0, 100)));
        assert_eq!(lock.tracked_ranges(), 0);
    }
}
