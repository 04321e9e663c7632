//! The stock `mmap_sem` baseline behind the range-lock interface.
//!
//! The paper's "stock" configuration is a plain reader-writer semaphore: one
//! lock for the whole address space, no ranges at all. To let the VM
//! simulator (and any other subsystem) hold *every* strategy behind a single
//! `Box<dyn DynTwoPhaseRwRangeLock>`, [`WholeSpaceSem`] wraps
//! [`RwSemaphore`] in the [`RwRangeLock`] and [`TwoPhaseRwRangeLock`]
//! interfaces, ignoring the requested range: every shared acquisition
//! conflicts with every exclusive acquisition regardless of overlap, which
//! is exactly what `mmap_sem` does and exactly the cost the range-lock
//! variants exist to remove.

use std::sync::Arc;

use range_lock::{Range, RwRangeLock, TwoPhaseRwRangeLock};
use rl_sync::stats::WaitStats;
use rl_sync::wait::{Block, WaitPolicy, WaitQueue};
use rl_sync::{RwSemReadGuard, RwSemWriteGuard, RwSemaphore};

/// An `mmap_sem`-style reader-writer semaphore exposed as a (range-ignoring)
/// [`RwRangeLock`].
///
/// # Examples
///
/// ```
/// use range_lock::{Range, RwRangeLock};
/// use rl_baselines::WholeSpaceSem;
///
/// let sem = WholeSpaceSem::new();
/// let r = sem.read(Range::new(0, 10));
/// // Disjoint ranges still conflict: there are no ranges here.
/// assert!(sem.try_write(Range::new(100, 200)).is_none());
/// drop(r);
/// ```
#[derive(Debug, Default)]
pub struct WholeSpaceSem<P: WaitPolicy = Block> {
    sem: RwSemaphore<P>,
}

impl WholeSpaceSem<Block> {
    /// Creates a semaphore blocking its waiters, like the kernel's.
    pub fn new() -> Self {
        Self::with_policy()
    }
}

impl<P: WaitPolicy> WholeSpaceSem<P> {
    /// Creates a semaphore whose waiters wait through policy `P`.
    pub fn with_policy() -> Self {
        WholeSpaceSem {
            sem: RwSemaphore::with_policy(),
        }
    }

    /// Creates a semaphore reporting wait times into `stats`.
    pub fn with_policy_stats(stats: Arc<WaitStats>) -> Self {
        WholeSpaceSem {
            sem: RwSemaphore::with_policy_stats(stats),
        }
    }
}

impl<P: WaitPolicy> RwRangeLock for WholeSpaceSem<P> {
    type ReadGuard<'a>
        = RwSemReadGuard<'a, P>
    where
        Self: 'a;
    type WriteGuard<'a>
        = RwSemWriteGuard<'a, P>
    where
        Self: 'a;

    fn read(&self, _range: Range) -> Self::ReadGuard<'_> {
        self.sem.read()
    }

    fn write(&self, _range: Range) -> Self::WriteGuard<'_> {
        self.sem.write()
    }

    fn try_read(&self, _range: Range) -> Option<Self::ReadGuard<'_>> {
        self.sem.try_read()
    }

    fn try_write(&self, _range: Range) -> Option<Self::WriteGuard<'_>> {
        self.sem.try_write()
    }

    fn name(&self) -> &'static str {
        "stock"
    }
}

/// The same *try-based* adapter as the tree and segment locks: **enqueue**
/// records the range, **poll** is a `try_` acquisition, **cancel** has
/// nothing to undo, and a suspended poller waits on the semaphore's own
/// queue. It waits under `KEY_ANY`, which every release reaches — the
/// write release broadcasts, and the read release's keyed wake of the
/// writer class also wakes the unkeyed population.
impl<P: WaitPolicy> TwoPhaseRwRangeLock for WholeSpaceSem<P> {
    type PendingRead = Range;
    type PendingWrite = Range;

    fn enqueue_read(&self, range: Range) -> Self::PendingRead {
        range
    }

    fn poll_read<'a>(&'a self, pending: &mut Self::PendingRead) -> Option<Self::ReadGuard<'a>> {
        self.try_read(*pending)
    }

    fn cancel_read(&self, _pending: &mut Self::PendingRead) {}

    fn enqueue_write(&self, range: Range) -> Self::PendingWrite {
        range
    }

    fn poll_write<'a>(&'a self, pending: &mut Self::PendingWrite) -> Option<Self::WriteGuard<'a>> {
        self.try_write(*pending)
    }

    fn cancel_write(&self, _pending: &mut Self::PendingWrite) {}

    fn wait_queue(&self) -> &WaitQueue {
        self.sem.wait_queue()
    }

    fn wait_deadline_keyed(
        &self,
        key: u64,
        cond: &mut dyn FnMut() -> bool,
        deadline: std::time::Instant,
    ) -> bool {
        P::wait(self.sem.wait_queue(), key, cond, Some(deadline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use range_lock::DynTwoPhaseRwRangeLock;
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::task::{Context, Wake, Waker};
    use std::time::{Duration, Instant};

    #[test]
    fn disjoint_ranges_conflict_like_mmap_sem() {
        let sem = WholeSpaceSem::new();
        let w = sem.write(Range::new(0, 10));
        assert!(sem.try_read(Range::new(1000, 2000)).is_none());
        drop(w);
        let r1 = sem.read(Range::new(0, 10));
        let r2 = sem.try_read(Range::new(1000, 2000)).expect("readers share");
        assert!(sem.try_write(Range::new(5000, 6000)).is_none());
        drop(r1);
        drop(r2);
        assert!(sem.try_write(Range::FULL).is_some());
    }

    #[test]
    fn erases_into_the_dyn_layer() {
        let lock: Box<dyn DynTwoPhaseRwRangeLock> = Box::new(WholeSpaceSem::new());
        assert_eq!(lock.dyn_name(), "stock");
        assert!(lock.readers_share_dyn());
        let g = lock.write_dyn(Range::new(0, 1));
        assert!(lock.try_read_dyn(Range::new(100, 200)).is_none());
        // The semaphore has no atomic downgrade: the erased write guard
        // comes back unchanged.
        let g = lock.downgrade(g).expect_err("stock declines downgrade");
        drop(g);
    }

    struct CountingWaker(AtomicU64);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn suspended_writers_are_woken_by_a_read_release() {
        // A read release wakes only the semaphore's writer wait class, while
        // the two-phase pollers wait unkeyed: both must still be woken.
        let stats = Arc::new(WaitStats::new("stock"));
        let sem = WholeSpaceSem::<Block>::with_policy_stats(Arc::clone(&stats));

        // A timed writer parks behind a reader and is woken by its release,
        // long before its deadline.
        let reader = sem.read(Range::new(0, 10));
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let start = Instant::now();
                let granted = sem
                    .write_timeout(Range::new(100, 200), Duration::from_secs(60))
                    .is_some();
                (granted, start.elapsed())
            });
            while stats.snapshot().parks == 0 {
                std::thread::yield_now();
            }
            drop(reader);
            let (granted, waited) = writer.join().unwrap();
            assert!(granted);
            assert!(waited < Duration::from_secs(30), "missed wake: {waited:?}");
        });

        // A pending async writer is woken by the read release too.
        let count = Arc::new(CountingWaker(AtomicU64::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        let mut cx = Context::from_waker(&waker);
        let reader = sem.read(Range::new(0, 10));
        let mut fut = sem.write_async(Range::new(100, 200));
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        drop(reader);
        assert!(count.0.load(Ordering::SeqCst) >= 1);
        let granted = Pin::new(&mut fut).poll(&mut cx);
        assert!(granted.is_ready(), "reader gone: the writer must resolve");
    }
}
