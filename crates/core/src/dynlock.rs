//! The object-safe (dynamic-dispatch) range-lock interface.
//!
//! [`RwRangeLock`] and [`TwoPhaseRwRangeLock`] use generic associated guard
//! and token types, which makes them fast (guards are concrete, drops are
//! static calls) but not object-safe: you cannot put a `ListRangeLock` and a
//! `TreeRangeLock` behind the same `dyn` pointer. The benchmark harness,
//! the VM simulator and the lock server, however, want exactly that — one
//! variable that holds *any* of the paper variants, chosen by name at
//! runtime.
//!
//! This module provides the dynamic layer once:
//!
//! * [`DynTwoPhaseRwRangeLock`] — the one object-safe mirror trait. Its
//!   blocking and `try_` methods return a [`DynRangeGuard`], a boxed
//!   type-erased guard; its enqueue methods return a [`DynPending`], a boxed
//!   type-erased two-phase token;
//! * a blanket impl, so **every** two-phase lock (and any future one) is
//!   automatically a dyn lock: `Box<TreeRangeLock>` coerces to
//!   `Box<dyn DynTwoPhaseRwRangeLock>` with no per-lock code;
//! * [`RwRangeLock`] and [`TwoPhaseRwRangeLock`] impls **for**
//!   `Box<dyn DynTwoPhaseRwRangeLock>`, closing the loop: a boxed dynamic
//!   lock plugs back into every generic subsystem (the file store, the lock
//!   table, the benchmark drivers) unchanged, with the timed, batched and
//!   async surfaces along for free. [`RwRangeLock::downgrade`] survives the
//!   erasure too — write guards are boxed together with their lock, so a
//!   registry-built `list-rw` downgrades in place through the dyn layer just
//!   like its static twin (locks without downgrade support still return
//!   `Err`).
//!
//! The variant registry in `rl-baselines` (`rl_baselines::registry`) builds
//! on this layer to enumerate the paper's five lock variants by name and
//! construct them wait-policy-aware.
//!
//! # Cost
//!
//! Each dynamic acquisition adds one vtable call and one heap allocation for
//! the boxed guard (a two-phase acquisition also boxes its token). That is
//! fine for benchmarks driving millions of operations through a variant
//! chosen at runtime, and irrelevant for tests; hot paths that know their
//! lock type statically should keep using the generic traits.
//!
//! # Examples
//!
//! ```
//! use range_lock::{DynTwoPhaseRwRangeLock, ListRangeLock, Range, RwListRangeLock};
//!
//! let locks: Vec<Box<dyn DynTwoPhaseRwRangeLock>> = vec![
//!     Box::new(RwListRangeLock::new()),
//!     Box::new(ListRangeLock::new()),
//! ];
//! for lock in &locks {
//!     let g = lock.write_dyn(Range::new(0, 10));
//!     drop(g);
//! }
//! ```

use crate::range::Range;
use crate::traits::RwRangeLock;
use crate::twophase::TwoPhaseRwRangeLock;

/// Boxable guard interface. Private — the only way to obtain one is through
/// the dyn traits below.
trait ErasedGuard: Send {
    /// Attempts an in-place write→read downgrade; `false` means the
    /// underlying lock (or this guard kind) does not support it.
    fn downgrade_erased(&mut self) -> bool;
}

/// A read / exclusive / try guard (held for its Drop impl): no downgrade.
struct PlainGuard<G: Send>(G);

impl<G: Send> ErasedGuard for PlainGuard<G> {
    fn downgrade_erased(&mut self) -> bool {
        false
    }
}

/// State of an erased write guard across a downgrade.
enum WriteState<'a, L: RwRangeLock + 'a> {
    Write(L::WriteGuard<'a>),
    Read(L::ReadGuard<'a>),
    /// Transient state while the guard is moved through `downgrade`.
    Moving,
}

/// A write guard boxed together with its lock, so the lock's
/// [`RwRangeLock::downgrade`] stays reachable through the erasure.
struct WriteGuardErased<'a, L: RwRangeLock + 'a> {
    lock: &'a L,
    state: WriteState<'a, L>,
}

impl<'a, L> ErasedGuard for WriteGuardErased<'a, L>
where
    L: RwRangeLock + 'a,
    L::ReadGuard<'a>: Send,
    L::WriteGuard<'a>: Send,
{
    fn downgrade_erased(&mut self) -> bool {
        match std::mem::replace(&mut self.state, WriteState::Moving) {
            WriteState::Write(w) => match self.lock.downgrade(w) {
                Ok(r) => {
                    self.state = WriteState::Read(r);
                    true
                }
                Err(w) => {
                    self.state = WriteState::Write(w);
                    false
                }
            },
            // Already downgraded: idempotent success.
            read => {
                self.state = read;
                true
            }
        }
    }
}

/// Boxes a write guard together with its lock (see [`WriteGuardErased`]).
fn erase_write<'a, L>(lock: &'a L, guard: L::WriteGuard<'a>) -> DynRangeGuard<'a>
where
    L: RwRangeLock + 'a,
    L::ReadGuard<'a>: Send,
    L::WriteGuard<'a>: Send,
{
    DynRangeGuard(Box::new(WriteGuardErased {
        lock,
        state: WriteState::Write(guard),
    }))
}

/// A type-erased, boxed RAII guard: releases its range when dropped.
///
/// Returned by every acquiring method of [`DynTwoPhaseRwRangeLock`]; the
/// concrete guard type (and therefore the release logic) lives behind the
/// box. The guard is [`Send`] so it can be released from another thread,
/// which the `rl-file` lock table relies on.
#[must_use = "the range is released as soon as the guard is dropped"]
pub struct DynRangeGuard<'a>(Box<dyn ErasedGuard + 'a>);

impl std::fmt::Debug for DynRangeGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DynRangeGuard(..)")
    }
}

/// A type-erased token for one pending two-phase acquisition, as issued by
/// the [`DynTwoPhaseRwRangeLock`] enqueue methods.
///
/// The concrete `PendingRead`/`PendingWrite` type lives behind the box; the
/// poll/cancel methods downcast it back. A token must only be passed back to
/// the lock (and the mode family: read vs write) that issued it — handing it
/// to a lock with a *different* concrete token type panics on the downcast
/// rather than corrupting state. (Cross-instance misuse between locks that
/// share a token type is as undetectable as it is in the static API.)
#[must_use = "a pending acquisition must be polled to completion or cancelled"]
pub struct DynPending(Box<dyn std::any::Any + Send>);

impl std::fmt::Debug for DynPending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DynPending(..)")
    }
}

/// Downcasts a [`DynPending`] back to the concrete token type `P`.
fn downcast_pending<P: 'static>(pending: &mut DynPending) -> &mut P {
    pending
        .0
        .downcast_mut::<P>()
        .expect("DynPending passed back to a lock (or mode) other than the one that issued it")
}

/// Shared-reference form of [`downcast_pending`], for read-only accessors.
fn downcast_pending_ref<P: 'static>(pending: &DynPending) -> &P {
    pending
        .0
        .downcast_ref::<P>()
        .expect("DynPending passed back to a lock (or mode) other than the one that issued it")
}

/// Object-safe mirror of [`RwRangeLock`] and [`TwoPhaseRwRangeLock`]:
/// blocking, `try_` and enqueue / poll / cancel acquisition usable through
/// `dyn`.
///
/// Automatically implemented for every [`TwoPhaseRwRangeLock`] whose guards
/// are [`Send`] and whose pending tokens are `'static` (every registry
/// variant and the stock semaphore); never implement it by hand. Closing
/// the loop, `Box<dyn DynTwoPhaseRwRangeLock>` implements
/// [`TwoPhaseRwRangeLock`] itself (with [`DynPending`] tokens), which makes
/// the *whole* surface — timed acquisition, the acquisition futures,
/// batched `acquire_many`, and the `rl-file` lock table's async +
/// deadlock-checked paths — available on a variant chosen by name at
/// runtime.
pub trait DynTwoPhaseRwRangeLock: Send + Sync {
    /// Acquires `range` in shared mode, waiting for conflicting holders.
    fn read_dyn(&self, range: Range) -> DynRangeGuard<'_>;

    /// Acquires `range` in exclusive mode, waiting for overlapping holders.
    fn write_dyn(&self, range: Range) -> DynRangeGuard<'_>;

    /// Bounded shared acquisition attempt; see the
    /// [`try_` contract](crate::traits#try_-semantics-normative).
    fn try_read_dyn(&self, range: Range) -> Option<DynRangeGuard<'_>>;

    /// Bounded exclusive acquisition attempt; see the
    /// [`try_` contract](crate::traits#try_-semantics-normative).
    fn try_write_dyn(&self, range: Range) -> Option<DynRangeGuard<'_>>;

    /// Whether overlapping shared acquisitions can actually be held
    /// concurrently, matching [`RwRangeLock::readers_share`].
    fn readers_share_dyn(&self) -> bool;

    /// Short, stable identifier (e.g. `"list-rw"`), matching
    /// [`RwRangeLock::name`].
    fn dyn_name(&self) -> &'static str;

    /// Starts a two-phase shared acquisition; see
    /// [`TwoPhaseRwRangeLock::enqueue_read`].
    fn enqueue_read_dyn(&self, range: Range) -> DynPending;

    /// Drives a pending shared acquisition without waiting; see
    /// [`TwoPhaseRwRangeLock::poll_read`].
    fn poll_read_dyn(&self, pending: &mut DynPending) -> Option<DynRangeGuard<'_>>;

    /// Abandons a pending shared acquisition; see
    /// [`TwoPhaseRwRangeLock::cancel_read`].
    fn cancel_read_dyn(&self, pending: &mut DynPending);

    /// Starts a two-phase exclusive acquisition; see
    /// [`TwoPhaseRwRangeLock::enqueue_write`].
    fn enqueue_write_dyn(&self, range: Range) -> DynPending;

    /// Drives a pending exclusive acquisition without waiting; see
    /// [`TwoPhaseRwRangeLock::poll_write`].
    fn poll_write_dyn(&self, pending: &mut DynPending) -> Option<DynRangeGuard<'_>>;

    /// Abandons a pending exclusive acquisition; see
    /// [`TwoPhaseRwRangeLock::cancel_write`].
    fn cancel_write_dyn(&self, pending: &mut DynPending);

    /// The queue suspended acquisitions wait on; see
    /// [`TwoPhaseRwRangeLock::wait_queue`].
    fn wait_queue_dyn(&self) -> &rl_sync::wait::WaitQueue;

    /// Wait key of the conflict blocking a pending shared acquisition; see
    /// [`TwoPhaseRwRangeLock::pending_read_wait_key`].
    fn pending_read_wait_key_dyn(&self, pending: &DynPending) -> u64;

    /// Wait key of the conflict blocking a pending exclusive acquisition;
    /// see [`TwoPhaseRwRangeLock::pending_write_wait_key`].
    fn pending_write_wait_key_dyn(&self, pending: &DynPending) -> u64;

    /// Keyed policy-aware deadline wait; see
    /// [`TwoPhaseRwRangeLock::wait_deadline_keyed`].
    fn wait_deadline_keyed_dyn(
        &self,
        key: u64,
        cond: &mut dyn FnMut() -> bool,
        deadline: std::time::Instant,
    ) -> bool;
}

impl<L> DynTwoPhaseRwRangeLock for L
where
    L: TwoPhaseRwRangeLock,
    L::PendingRead: 'static,
    L::PendingWrite: 'static,
    for<'a> L::ReadGuard<'a>: Send,
    for<'a> L::WriteGuard<'a>: Send,
{
    fn read_dyn(&self, range: Range) -> DynRangeGuard<'_> {
        DynRangeGuard(Box::new(PlainGuard(self.read(range))))
    }

    fn write_dyn(&self, range: Range) -> DynRangeGuard<'_> {
        erase_write(self, self.write(range))
    }

    fn try_read_dyn(&self, range: Range) -> Option<DynRangeGuard<'_>> {
        self.try_read(range)
            .map(|g| DynRangeGuard(Box::new(PlainGuard(g))))
    }

    fn try_write_dyn(&self, range: Range) -> Option<DynRangeGuard<'_>> {
        self.try_write(range).map(|g| erase_write(self, g))
    }

    fn readers_share_dyn(&self) -> bool {
        self.readers_share()
    }

    fn dyn_name(&self) -> &'static str {
        self.name()
    }

    fn enqueue_read_dyn(&self, range: Range) -> DynPending {
        DynPending(Box::new(self.enqueue_read(range)))
    }

    fn poll_read_dyn(&self, pending: &mut DynPending) -> Option<DynRangeGuard<'_>> {
        self.poll_read(downcast_pending::<L::PendingRead>(pending))
            .map(|g| DynRangeGuard(Box::new(PlainGuard(g))))
    }

    fn cancel_read_dyn(&self, pending: &mut DynPending) {
        self.cancel_read(downcast_pending::<L::PendingRead>(pending));
    }

    fn enqueue_write_dyn(&self, range: Range) -> DynPending {
        DynPending(Box::new(self.enqueue_write(range)))
    }

    fn poll_write_dyn(&self, pending: &mut DynPending) -> Option<DynRangeGuard<'_>> {
        self.poll_write(downcast_pending::<L::PendingWrite>(pending))
            .map(|g| erase_write(self, g))
    }

    fn cancel_write_dyn(&self, pending: &mut DynPending) {
        self.cancel_write(downcast_pending::<L::PendingWrite>(pending));
    }

    fn wait_queue_dyn(&self) -> &rl_sync::wait::WaitQueue {
        self.wait_queue()
    }

    fn pending_read_wait_key_dyn(&self, pending: &DynPending) -> u64 {
        self.pending_read_wait_key(downcast_pending_ref::<L::PendingRead>(pending))
    }

    fn pending_write_wait_key_dyn(&self, pending: &DynPending) -> u64 {
        self.pending_write_wait_key(downcast_pending_ref::<L::PendingWrite>(pending))
    }

    fn wait_deadline_keyed_dyn(
        &self,
        key: u64,
        cond: &mut dyn FnMut() -> bool,
        deadline: std::time::Instant,
    ) -> bool {
        self.wait_deadline_keyed(key, cond, deadline)
    }
}

/// A boxed dyn lock drives every sync-generic subsystem.
impl RwRangeLock for Box<dyn DynTwoPhaseRwRangeLock> {
    type ReadGuard<'a> = DynRangeGuard<'a>;
    type WriteGuard<'a> = DynRangeGuard<'a>;

    fn read(&self, range: Range) -> Self::ReadGuard<'_> {
        (**self).read_dyn(range)
    }

    fn write(&self, range: Range) -> Self::WriteGuard<'_> {
        (**self).write_dyn(range)
    }

    fn try_read(&self, range: Range) -> Option<Self::ReadGuard<'_>> {
        (**self).try_read_dyn(range)
    }

    fn try_write(&self, range: Range) -> Option<Self::WriteGuard<'_>> {
        (**self).try_write_dyn(range)
    }

    fn downgrade<'a>(
        &'a self,
        mut guard: Self::WriteGuard<'a>,
    ) -> Result<Self::ReadGuard<'a>, Self::WriteGuard<'a>> {
        if guard.0.downgrade_erased() {
            Ok(guard)
        } else {
            Err(guard)
        }
    }

    fn readers_share(&self) -> bool {
        (**self).readers_share_dyn()
    }

    fn name(&self) -> &'static str {
        (**self).dyn_name()
    }
}

/// Closing the two-phase loop: a boxed dyn lock *is* a
/// [`TwoPhaseRwRangeLock`] (with [`DynPending`] tokens), so the async and
/// timed methods, batched acquisition, and the `rl-file` lock table's
/// two-phase paths all work on a runtime-chosen variant.
impl TwoPhaseRwRangeLock for Box<dyn DynTwoPhaseRwRangeLock> {
    type PendingRead = DynPending;
    type PendingWrite = DynPending;

    fn enqueue_read(&self, range: Range) -> Self::PendingRead {
        (**self).enqueue_read_dyn(range)
    }

    fn poll_read<'a>(&'a self, pending: &mut Self::PendingRead) -> Option<Self::ReadGuard<'a>> {
        (**self).poll_read_dyn(pending)
    }

    fn cancel_read(&self, pending: &mut Self::PendingRead) {
        (**self).cancel_read_dyn(pending);
    }

    fn enqueue_write(&self, range: Range) -> Self::PendingWrite {
        (**self).enqueue_write_dyn(range)
    }

    fn poll_write<'a>(&'a self, pending: &mut Self::PendingWrite) -> Option<Self::WriteGuard<'a>> {
        (**self).poll_write_dyn(pending)
    }

    fn cancel_write(&self, pending: &mut Self::PendingWrite) {
        (**self).cancel_write_dyn(pending);
    }

    fn wait_queue(&self) -> &rl_sync::wait::WaitQueue {
        (**self).wait_queue_dyn()
    }

    fn pending_read_wait_key(&self, pending: &Self::PendingRead) -> u64 {
        (**self).pending_read_wait_key_dyn(pending)
    }

    fn pending_write_wait_key(&self, pending: &Self::PendingWrite) -> u64 {
        (**self).pending_write_wait_key_dyn(pending)
    }

    fn wait_deadline_keyed(
        &self,
        key: u64,
        cond: &mut dyn FnMut() -> bool,
        deadline: std::time::Instant,
    ) -> bool {
        (**self).wait_deadline_keyed_dyn(key, cond, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twophase::BatchMode;
    use crate::{ListRangeLock, RwListRangeLock};
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Poll};

    type BoxedLock = Box<dyn DynTwoPhaseRwRangeLock>;

    #[test]
    fn boxed_exclusive_lock_round_trip() {
        let lock: BoxedLock = Box::new(ListRangeLock::new());
        assert_eq!(RwRangeLock::name(&lock), "list-ex");
        let g = lock.write(Range::new(0, 10));
        assert!(lock.try_write(Range::new(5, 15)).is_none());
        drop(g);
        assert!(lock.try_write(Range::new(5, 15)).is_some());
    }

    #[test]
    fn adapter_composes_with_dyn_layer() {
        let lock: BoxedLock = Box::new(ListRangeLock::new());
        assert_eq!(RwRangeLock::name(&lock), "list-ex");
        let r = lock.read(Range::new(0, 10));
        // Readers serialize on the exclusive lock, through the erasure too.
        assert!(lock.try_read(Range::new(5, 15)).is_none());
        drop(r);
    }

    #[test]
    fn boxed_rw_lock_round_trip() {
        let lock: BoxedLock = Box::new(RwListRangeLock::new());
        assert_eq!(RwRangeLock::name(&lock), "list-rw");
        let r1 = lock.read(Range::new(0, 100));
        let r2 = lock.try_read(Range::new(50, 150)).expect("readers share");
        assert!(lock.try_write(Range::new(50, 150)).is_none());
        drop(r1);
        drop(r2);
        drop(lock.write(Range::new(0, 100)));
    }

    #[test]
    fn downgrade_survives_the_erasure() {
        // list-rw supports downgrade: through the dyn layer the write guard
        // must flip in place (readers admitted, writers still excluded).
        let lock: BoxedLock = Box::new(RwListRangeLock::new());
        let w = lock.write(Range::new(0, 100));
        assert!(lock.try_read(Range::new(50, 150)).is_none());
        let r = lock.downgrade(w).expect("list-rw downgrades through dyn");
        let r2 = lock.try_read(Range::new(50, 150)).expect("readers share");
        assert!(lock.try_write(Range::new(0, 100)).is_none());
        drop(r2);
        drop(r);

        // The exclusive lock downgrades trivially (stays exclusive).
        let ex: BoxedLock = Box::new(ListRangeLock::new());
        let w = ex.write(Range::new(0, 10));
        let g = ex
            .downgrade(w)
            .expect("exclusive downgrade is the identity");
        drop(g);
    }

    #[test]
    fn async_dyn_layer_acquires_blocks_and_cancels() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        use std::task::{Wake, Waker};

        struct CountingWaker(AtomicU64);
        impl Wake for CountingWaker {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let count = Arc::new(CountingWaker(AtomicU64::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        let mut cx = Context::from_waker(&waker);

        let locks: Vec<BoxedLock> = vec![
            Box::new(RwListRangeLock::new()),
            Box::new(ListRangeLock::new()),
        ];
        for lock in &locks {
            // Uncontended write resolves on the first poll.
            let mut fut = lock.write_async(Range::new(0, 100));
            let guard = match Pin::new(&mut fut).poll(&mut cx) {
                Poll::Ready(g) => g,
                Poll::Pending => panic!("uncontended dyn future must resolve"),
            };
            // A conflicting write future stays pending until the release
            // wakes its registered waker.
            let mut blocked = lock.write_async(Range::new(50, 150));
            assert!(Pin::new(&mut blocked).poll(&mut cx).is_pending());
            let woken_before = count.0.load(Ordering::SeqCst);
            drop(guard);
            assert!(count.0.load(Ordering::SeqCst) > woken_before);
            // Dropping the still-pending future cancels it: no residue.
            drop(blocked);
            assert!(lock.try_write_dyn(Range::FULL).is_some());
        }
    }

    #[test]
    fn async_dyn_write_guard_still_downgrades() {
        use std::task::Waker;
        let lock: BoxedLock = Box::new(RwListRangeLock::new());
        let mut cx = Context::from_waker(Waker::noop());
        let mut fut = lock.write_async(Range::new(0, 100));
        let w = match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(g) => g,
            Poll::Pending => panic!("uncontended"),
        };
        let r = lock.downgrade(w).expect("list-rw downgrades");
        assert!(lock.try_read_dyn(Range::new(50, 150)).is_some());
        assert!(lock.try_write_dyn(Range::new(0, 100)).is_none());
        drop(r);
    }

    #[test]
    fn readers_share_survives_the_erasure() {
        let rw: BoxedLock = Box::new(RwListRangeLock::new());
        assert!(rw.readers_share());
        let ex: BoxedLock = Box::new(ListRangeLock::new());
        assert!(!ex.readers_share());
    }

    #[test]
    fn boxed_two_phase_lock_round_trips_the_protocol() {
        let locks: Vec<BoxedLock> = vec![
            Box::new(RwListRangeLock::new()),
            Box::new(ListRangeLock::new()),
        ];
        for lock in locks {
            // Uncontended enqueue/poll resolves; the write guard still
            // downgrades through the erasure.
            let mut pending = lock.enqueue_write(Range::new(0, 100));
            let w = lock.poll_write(&mut pending).expect("uncontended");
            let r = lock.downgrade(w).expect("both variants downgrade");

            // A contended write pending polls None until the conflict
            // clears; cancel leaves no residue.
            let mut pending = lock.enqueue_write(Range::new(50, 150));
            assert!(lock.poll_write(&mut pending).is_none());
            lock.cancel_write(&mut pending);
            drop(r);
            drop(lock.try_write(Range::FULL).expect("no residue"));

            // The timed + async + batch surfaces ride on the impl for free.
            assert!(lock
                .write_timeout(Range::new(0, 10), std::time::Duration::from_millis(50))
                .is_some());
            let mut cx = Context::from_waker(std::task::Waker::noop());
            let mut fut = lock.read_async(Range::new(0, 10));
            assert!(Pin::new(&mut fut).poll(&mut cx).is_ready());
            drop(fut);
            let items = [
                (Range::new(0, 10), BatchMode::Write),
                (Range::new(20, 30), BatchMode::Read),
            ];
            let guards = lock.try_acquire_many(&items).expect("uncontended batch");
            assert_eq!(guards.len(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "DynPending passed back")]
    fn foreign_pending_token_panics_on_downcast() {
        let lock: BoxedLock = Box::new(RwListRangeLock::new());
        // A token whose concrete type no lock in this crate issues: the
        // downcast must panic loudly instead of corrupting the lock.
        let mut foreign = DynPending(Box::new(0u8));
        let _ = lock.poll_read_dyn(&mut foreign);
    }

    #[test]
    fn dyn_guard_release_crosses_threads() {
        use std::sync::Arc;
        let lock: Arc<BoxedLock> = Arc::new(Box::new(RwListRangeLock::new()));
        let g = lock.write(Range::new(0, 10));
        // `DynRangeGuard` is Send: ship it to another thread for release.
        // (Scoped borrow: the guard borrows the lock, so join before drop.)
        std::thread::scope(|s| {
            s.spawn(move || drop(g));
        });
        assert!(lock.try_write(Range::new(0, 10)).is_some());
    }
}
