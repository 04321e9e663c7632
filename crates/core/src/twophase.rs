//! The cancellable two-phase acquisition protocol and the timed, batched and
//! async range-lock API built on it.
//!
//! The blocking [`RwRangeLock`] methods model a waiter as a thread: `read` /
//! `write` do not return until the range is held, so at M concurrent owners
//! the caller burns M threads, and a waiter cannot give up — there is no way
//! out except owning the range. [`TwoPhaseRwRangeLock`] decomposes
//! acquisition into an explicit, resumable protocol:
//!
//! 1. **enqueue** — register the request (allocate its node). No waiting.
//! 2. **poll** — drive the request as far as it can get without waiting:
//!    run the insertion traversal, back out (or, for published reader nodes,
//!    stay put) on conflict. Returns the guard when the range is held;
//!    otherwise the caller registers a waiter — a thread *or* a
//!    [`core::task::Waker`] — on the lock's [`WaitQueue`] and re-polls after
//!    a wake.
//! 3. **cancel** — abandon a pending request, unlinking its node if it was
//!    already published and waking successors. This is the step the blocking
//!    API fundamentally cannot express: a blocking waiter can only leave by
//!    owning the range first (or leaking its node).
//!
//! Three consumers are layered on the protocol here, all provided methods of
//! the trait:
//!
//! * **Timed acquisition** — the
//!   [`read_timeout`](TwoPhaseRwRangeLock::read_timeout) /
//!   [`write_timeout`](TwoPhaseRwRangeLock::write_timeout) pair: poll, wait
//!   with a deadline (under the `Block` policy a deadline *park*, under the
//!   spinning policies a clock-checked backoff loop), cancel on expiry.
//! * **Batched acquisition** — [`acquire_many`](TwoPhaseRwRangeLock::acquire_many),
//!   the all-or-nothing [`try_acquire_many`](TwoPhaseRwRangeLock::try_acquire_many)
//!   and [`acquire_many_async`](TwoPhaseRwRangeLock::acquire_many_async).
//! * **Async acquisition** — [`read_async`](TwoPhaseRwRangeLock::read_async) /
//!   [`write_async`](TwoPhaseRwRangeLock::write_async) return
//!   cancellation-safe futures ([`ReadFuture`], [`WriteFuture`]) resolving
//!   to the ordinary RAII guards. Dropping a
//!   future mid-wait cancels the pending request and leaves no residue, so
//!   `select!`-style races and task aborts are safe. A waiter costs a waker
//!   registration, not a thread: millions of pending owners can be
//!   multiplexed onto a few worker threads (see the `rl-exec` crate and the
//!   `asyncbench` experiment).
//!
//! # Waking, whatever the policy
//!
//! Async waiters never spin, *regardless of the lock's wait policy*: the
//! future registers a waker on the lock's [`WaitQueue`] and suspends. Every
//! release path calls [`WaitQueue::wake`] whatever the policy, and every
//! wake bumps the generation that feeds registered wakers (see
//! `rl_sync::wait`). Lost wakeups are excluded by
//! the snapshot-register-recheck protocol documented there: the future
//! snapshots the queue generation *before* polling the lock, and a
//! registration against a stale snapshot fails, forcing a re-poll.
//!
//! # Fairness interaction (§4.3)
//!
//! Two-phase acquisitions bypass the impatience gate: each poll is one
//! bounded attempt, and carrying impatient status across a suspension would
//! require holding a gate permit while descheduled, blocking the very
//! threads the gate exists to protect. Under a fairness-enabled lock, async
//! and timed waiters therefore compete as permanently "patient" threads.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use rl_sync::wait::WaitQueue;
use rl_sync::KEY_ANY;

use crate::range::Range;
use crate::traits::RwRangeLock;

/// A range lock that supports the cancellable two-phase acquisition
/// protocol (enqueue / poll / cancel) in both modes, and the timed, batched
/// and async acquisition surface built on it.
///
/// Implementations must uphold, for the read and write method families
/// alike, the protocol contract:
///
/// * `poll_*` never waits (no spinning, yielding, or parking) and never
///   fails spuriously — `None` means a conflicting holder was observed;
/// * after `poll_*` returns `None`, some release/downgrade/cancel wake of
///   [`TwoPhaseRwRangeLock::wait_queue`] is guaranteed once the observed
///   conflict clears (so a waiter registered per the queue's
///   snapshot-register-recheck protocol cannot sleep forever);
/// * `cancel_*` leaves the lock as if the request had never been made
///   (pending-state residue is unlinked and successors are woken) and is
///   idempotent.
pub trait TwoPhaseRwRangeLock: RwRangeLock {
    /// Token holding one pending shared acquisition's state between polls.
    type PendingRead: Send + Unpin;
    /// Token holding one pending exclusive acquisition's state between polls.
    type PendingWrite: Send + Unpin;

    /// **Enqueue**: starts a two-phase shared acquisition of `range`.
    fn enqueue_read(&self, range: Range) -> Self::PendingRead;

    /// **Poll**: drives a pending shared acquisition without waiting.
    fn poll_read<'a>(&'a self, pending: &mut Self::PendingRead) -> Option<Self::ReadGuard<'a>>;

    /// **Cancel**: abandons a pending shared acquisition, unlinking any
    /// published node and waking successors. Idempotent; must be called (or
    /// the poll driven to completion) before the token is dropped.
    fn cancel_read(&self, pending: &mut Self::PendingRead);

    /// **Enqueue**: starts a two-phase exclusive acquisition of `range`.
    fn enqueue_write(&self, range: Range) -> Self::PendingWrite;

    /// **Poll**: drives a pending exclusive acquisition without waiting.
    fn poll_write<'a>(&'a self, pending: &mut Self::PendingWrite) -> Option<Self::WriteGuard<'a>>;

    /// **Cancel**: abandons a pending exclusive acquisition. Idempotent.
    fn cancel_write(&self, pending: &mut Self::PendingWrite);

    /// The queue suspended acquisitions wait on; every release wakes it.
    fn wait_queue(&self) -> &WaitQueue;

    /// The wait key of the conflict that blocked a pending shared
    /// acquisition's most recent poll — the blocking node's address — or
    /// `KEY_ANY` when the lock cannot name one. The timed and async layers
    /// suspend under this key so only that conflict's release wakes them;
    /// the default keeps implementations without per-conflict keys on the
    /// broadcast paths.
    fn pending_read_wait_key(&self, pending: &Self::PendingRead) -> u64 {
        let _ = pending;
        KEY_ANY
    }

    /// The wait key of the conflict blocking a pending exclusive
    /// acquisition; see [`TwoPhaseRwRangeLock::pending_read_wait_key`].
    fn pending_write_wait_key(&self, pending: &Self::PendingWrite) -> u64 {
        let _ = pending;
        KEY_ANY
    }

    /// Waits through this lock's wait policy until `cond` holds or
    /// `deadline` passes (returning `cond`'s final value), parked under
    /// `key` — the wait key of the conflict the last poll observed, or
    /// `KEY_ANY` — so the waiter is woken by its blocker's release instead
    /// of by every release on the lock (see `rl_sync::wait`). Backs the
    /// timed acquisition methods; `cond` is the queue-generation check of
    /// the two-phase wait loop.
    fn wait_deadline_keyed(
        &self,
        key: u64,
        cond: &mut dyn FnMut() -> bool,
        deadline: Instant,
    ) -> bool;

    /// Acquires `range` in shared mode like [`RwRangeLock::read`], but gives
    /// up — leaving no residue — once `timeout` elapses. An expired attempt
    /// is recorded as a cancel in the lock's wait statistics.
    fn read_timeout(&self, range: Range, timeout: Duration) -> Option<Self::ReadGuard<'_>>
    where
        Self: Sized,
    {
        timeout_loop(
            self,
            range,
            timeout,
            self.enqueue_read(range),
            Self::pending_read_wait_key,
            Self::poll_read,
            Self::cancel_read,
        )
    }

    /// Acquires `range` in exclusive mode like [`RwRangeLock::write`], but
    /// gives up — leaving no residue — once `timeout` elapses.
    fn write_timeout(&self, range: Range, timeout: Duration) -> Option<Self::WriteGuard<'_>>
    where
        Self: Sized,
    {
        timeout_loop(
            self,
            range,
            timeout,
            self.enqueue_write(range),
            Self::pending_write_wait_key,
            Self::poll_write,
            Self::cancel_write,
        )
    }

    /// Acquires `range` in shared mode asynchronously: the returned future
    /// suspends (registering its task's waker) instead of blocking a thread,
    /// and resolves to the same guard [`RwRangeLock::read`] returns.
    /// Dropping the future cancels the acquisition cleanly.
    fn read_async(&self, range: Range) -> ReadFuture<'_, Self>
    where
        Self: Sized,
    {
        ReadFuture::new(self, range)
    }

    /// Acquires `range` in exclusive mode asynchronously; see
    /// [`TwoPhaseRwRangeLock::read_async`] for the waiting and cancellation
    /// semantics.
    fn write_async(&self, range: Range) -> WriteFuture<'_, Self>
    where
        Self: Sized,
    {
        WriteFuture::new(self, range)
    }

    /// Acquires every `(range, mode)` item of a batch, waiting as needed,
    /// and returns the guards in input order.
    ///
    /// Items are acquired in **ascending address order** whatever the input
    /// order, so two concurrent batches can never deadlock each other — the
    /// classic ordered-acquisition argument. (A batch can still deadlock
    /// against a caller composing individual acquisitions in descending
    /// order; the `rl-file` lock table layers cycle detection on top for
    /// that.)
    ///
    /// # Panics
    ///
    /// Panics if two items of the batch overlap (even two reads: the batch
    /// must also be safe over locks where readers serialize, per
    /// [`RwRangeLock::readers_share`]).
    fn acquire_many(&self, items: &[(Range, BatchMode)]) -> Vec<RwBatchGuard<'_, Self>>
    where
        Self: Sized,
    {
        let ranges: Vec<Range> = items.iter().map(|(r, _)| *r).collect();
        let mut acquired: Vec<(usize, RwBatchGuard<'_, Self>)> = Vec::with_capacity(items.len());
        for i in batch_order(&ranges) {
            let (range, mode) = items[i];
            let guard = match mode {
                BatchMode::Read => RwBatchGuard::Read(self.read(range)),
                BatchMode::Write => RwBatchGuard::Write(self.write(range)),
            };
            acquired.push((i, guard));
        }
        acquired.sort_by_key(|(i, _)| *i);
        acquired.into_iter().map(|(_, g)| g).collect()
    }

    /// Attempts to acquire every `(range, mode)` item without waiting,
    /// **all-or-nothing**: the first conflicting item rolls the whole batch
    /// back (cancel the pending acquisition, release everything taken,
    /// record a batch rollback) and returns `None`, leaving no residue.
    ///
    /// Each item is driven through one enqueue → poll step of the two-phase
    /// protocol (never-spurious, unlike `try_read`/`try_write`), with
    /// `cancel` as the rollback primitive; items are attempted in ascending
    /// address order and the guards are returned in input order.
    ///
    /// # Panics
    ///
    /// Panics if two items of the batch overlap.
    fn try_acquire_many(&self, items: &[(Range, BatchMode)]) -> Option<Vec<RwBatchGuard<'_, Self>>>
    where
        Self: Sized,
    {
        let ranges: Vec<Range> = items.iter().map(|(r, _)| *r).collect();
        let mut acquired: Vec<(usize, RwBatchGuard<'_, Self>)> = Vec::with_capacity(items.len());
        for i in batch_order(&ranges) {
            let (range, mode) = items[i];
            let polled = match mode {
                BatchMode::Read => {
                    let mut pending = self.enqueue_read(range);
                    match self.poll_read(&mut pending) {
                        Some(guard) => Some(RwBatchGuard::Read(guard)),
                        None => {
                            self.cancel_read(&mut pending);
                            None
                        }
                    }
                }
                BatchMode::Write => {
                    let mut pending = self.enqueue_write(range);
                    match self.poll_write(&mut pending) {
                        Some(guard) => Some(RwBatchGuard::Write(guard)),
                        None => {
                            self.cancel_write(&mut pending);
                            None
                        }
                    }
                }
            };
            match polled {
                Some(guard) => acquired.push((i, guard)),
                None => {
                    let queue = self.wait_queue();
                    queue.record_cancel();
                    queue.record_batch_rollback();
                    rl_obs::trace::emit_here(
                        rl_obs::EventKind::BatchRollback,
                        queue.trace_id(),
                        range.start,
                        range.end,
                    );
                    return None;
                }
            }
        }
        acquired.sort_by_key(|(i, _)| *i);
        Some(acquired.into_iter().map(|(_, g)| g).collect())
    }

    /// Acquires a batch asynchronously: the returned future drives one item
    /// at a time in ascending address order, suspending (never blocking a
    /// thread) on each contended item, and resolves to the guards in input
    /// order. Dropping the future mid-batch cancels the in-flight item and
    /// releases every guard already taken — all-or-nothing under
    /// cancellation.
    ///
    /// # Panics
    ///
    /// Panics if two items of the batch overlap.
    fn acquire_many_async(&self, items: &[(Range, BatchMode)]) -> AcquireManyFuture<'_, Self>
    where
        Self: Sized,
    {
        AcquireManyFuture::new(self, items)
    }
}

/// Requested mode of one item of a batched reader-writer acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchMode {
    /// Shared (reader) access.
    Read,
    /// Exclusive (writer) access.
    Write,
}

/// Guard for one item of a batched reader-writer acquisition: whichever of
/// the lock's two guard types the item's [`BatchMode`] selected.
pub enum RwBatchGuard<'a, L: RwRangeLock + 'a> {
    /// The item was acquired in shared mode.
    Read(L::ReadGuard<'a>),
    /// The item was acquired in exclusive mode.
    Write(L::WriteGuard<'a>),
}

impl<L: RwRangeLock> RwBatchGuard<'_, L> {
    /// Whether this guard holds its range in shared mode.
    pub fn is_read(&self) -> bool {
        matches!(self, RwBatchGuard::Read(_))
    }
}

impl<L: RwRangeLock> std::fmt::Debug for RwBatchGuard<'_, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RwBatchGuard::Read(_) => "RwBatchGuard::Read",
            RwBatchGuard::Write(_) => "RwBatchGuard::Write",
        })
    }
}

/// Returns the indices of `ranges` in ascending address order, panicking if
/// any two ranges overlap — an overlapping batch would block on itself.
fn batch_order(ranges: &[Range]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ranges.len()).collect();
    order.sort_by_key(|&i| (ranges[i].start, ranges[i].end));
    for pair in order.windows(2) {
        let (a, b) = (ranges[pair[0]], ranges[pair[1]]);
        assert!(
            !a.overlaps(&b),
            "batched acquisition items overlap: {a:?} and {b:?}"
        );
    }
    order
}

/// The shared enqueue → poll → deadline-wait → cancel loop behind both
/// timed acquisition methods. The mode's method family comes in as plain
/// function values; `range` exists only to stamp the timeout trace event.
fn timeout_loop<'a, L: TwoPhaseRwRangeLock, Pend, G>(
    lock: &'a L,
    range: Range,
    timeout: Duration,
    pending: Pend,
    wait_key: impl Fn(&L, &Pend) -> u64,
    mut poll: impl FnMut(&'a L, &mut Pend) -> Option<G>,
    cancel: impl FnOnce(&L, &mut Pend),
) -> Option<G> {
    let queue = lock.wait_queue();
    let deadline = Instant::now() + timeout;
    let mut pending = pending;
    loop {
        let gen = queue.generation();
        if let Some(guard) = poll(lock, &mut pending) {
            return Some(guard);
        }
        if Instant::now() >= deadline {
            cancel(lock, &mut pending);
            queue.record_cancel();
            rl_obs::trace::emit_here(
                rl_obs::EventKind::TimedOut,
                queue.trace_id(),
                range.start,
                range.end,
            );
            return None;
        }
        // Every release bumps the queue generation (whatever the policy), so
        // waiting for a generation change is waiting for "anything changed".
        // The wait parks under the key of the conflict the poll just
        // observed — re-derived every iteration, because the blocker can be
        // a different node each time — so under the `Block` policy only
        // that conflict's release (or a broadcast) wakes us.
        let key = wait_key(lock, &pending);
        lock.wait_deadline_keyed(key, &mut || queue.generation() != gen, deadline);
    }
}

/// Declares the cancellation-safe acquisition future of one mode.
macro_rules! acquire_future {
    (
        $(#[$doc:meta])*
        $name:ident, $pending:ident, $guard:ident,
        $enqueue:ident, $poll:ident, $cancel:ident, $wait_key:ident
    ) => {
        $(#[$doc])*
        ///
        /// The future resolves to the lock's ordinary RAII guard; the range
        /// is held exactly from the resolving poll until the guard drops.
        /// **Cancellation safety:** dropping the future before it resolves
        /// cancels the pending acquisition — any published node is unlinked,
        /// successors are woken, the registered waker is removed, and a
        /// cancel is recorded in the lock's wait statistics. Dropping it
        /// after it resolved is just dropping the guard.
        #[must_use = "futures do nothing unless polled"]
        pub struct $name<'a, L: TwoPhaseRwRangeLock> {
            lock: &'a L,
            /// `None` once resolved (the pending token was consumed).
            pending: Option<L::$pending>,
            /// Waker slot id on the lock's wait queue.
            slot: u64,
            /// The parking-table key the waker is currently filed under
            /// (`KEY_ANY` until a poll names a blocking conflict). Tracked
            /// so slot migration and drop deregister the right shard.
            key: u64,
        }

        impl<'a, L: TwoPhaseRwRangeLock> $name<'a, L> {
            pub(crate) fn new(lock: &'a L, range: Range) -> Self {
                $name {
                    lock,
                    pending: Some(lock.$enqueue(range)),
                    slot: lock.wait_queue().alloc_waker_slot(),
                    key: KEY_ANY,
                }
            }
        }

        impl<'a, L: TwoPhaseRwRangeLock> Future for $name<'a, L> {
            type Output = L::$guard<'a>;

            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
                // All fields are `Unpin` (`Pending: Unpin` per the trait).
                let this = self.get_mut();
                let queue = this.lock.wait_queue();
                let mut pending = this
                    .pending
                    .take()
                    .expect("acquisition future polled after completion");
                loop {
                    // Snapshot *before* polling the lock: see the
                    // lost-wakeup argument in `rl_sync::wait`.
                    let gen = queue.generation();
                    if let Some(guard) = this.lock.$poll(&mut pending) {
                        queue.deregister_waker(this.key, this.slot);
                        return Poll::Ready(guard);
                    }
                    // Waker-slot migration: the poll may have named a
                    // different blocking conflict than the one the waker is
                    // filed under, so re-home the slot before registering.
                    let key = this.lock.$wait_key(&pending);
                    if key != this.key {
                        queue.deregister_waker(this.key, this.slot);
                        this.key = key;
                    }
                    if queue.register_waker(key, this.slot, gen, cx.waker()) {
                        this.pending = Some(pending);
                        return Poll::Pending;
                    }
                    // A wake slipped in between the snapshot and the
                    // registration: whatever it signalled may unblock us, so
                    // re-poll with a fresh snapshot.
                }
            }
        }

        impl<L: TwoPhaseRwRangeLock> Drop for $name<'_, L> {
            fn drop(&mut self) {
                if let Some(mut pending) = self.pending.take() {
                    let queue = self.lock.wait_queue();
                    queue.deregister_waker(self.key, self.slot);
                    self.lock.$cancel(&mut pending);
                    queue.record_cancel();
                }
            }
        }

        impl<L: TwoPhaseRwRangeLock> std::fmt::Debug for $name<'_, L> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct(stringify!($name))
                    .field("resolved", &self.pending.is_none())
                    .finish()
            }
        }
    };
}

acquire_future!(
    /// Future returned by [`TwoPhaseRwRangeLock::read_async`]: a shared
    /// range acquisition in flight.
    ReadFuture,
    PendingRead,
    ReadGuard,
    enqueue_read,
    poll_read,
    cancel_read,
    pending_read_wait_key
);

acquire_future!(
    /// Future returned by [`TwoPhaseRwRangeLock::write_async`]: an
    /// exclusive range acquisition in flight.
    WriteFuture,
    PendingWrite,
    WriteGuard,
    enqueue_write,
    poll_write,
    cancel_write,
    pending_write_wait_key
);

/// The in-flight item of an [`AcquireManyFuture`]: one of the two
/// single-item futures, which already carry the full cancellation-safety
/// protocol (drop = cancel + deregister + record).
enum Inflight<'a, L: TwoPhaseRwRangeLock> {
    /// A shared item in flight.
    Read(ReadFuture<'a, L>),
    /// An exclusive item in flight.
    Write(WriteFuture<'a, L>),
}

/// Future returned by [`TwoPhaseRwRangeLock::acquire_many_async`]: a batched
/// acquisition in flight.
///
/// Items are driven strictly one at a time in ascending address order; the
/// future resolves to the guards in **input** order. **Cancellation
/// safety:** dropping the future mid-batch drops the in-flight single-item
/// future (which cancels its pending acquisition and records the cancel) and
/// every guard already acquired (releasing those ranges) — the lock is left
/// as if the batch had never been asked for.
#[must_use = "futures do nothing unless polled"]
pub struct AcquireManyFuture<'a, L: TwoPhaseRwRangeLock> {
    lock: &'a L,
    /// Items not yet started, in ascending address order, reversed so
    /// `pop()` yields them ascending. Each entry is
    /// `(input index, range, mode)`.
    remaining: Vec<(usize, Range, BatchMode)>,
    /// The single item currently being driven, with its input index.
    inflight: Option<(usize, Inflight<'a, L>)>,
    /// Guards already acquired, keyed by input index.
    acquired: Vec<(usize, RwBatchGuard<'a, L>)>,
}

impl<'a, L: TwoPhaseRwRangeLock> AcquireManyFuture<'a, L> {
    fn new(lock: &'a L, items: &[(Range, BatchMode)]) -> Self {
        let ranges: Vec<Range> = items.iter().map(|(r, _)| *r).collect();
        let mut remaining: Vec<(usize, Range, BatchMode)> = batch_order(&ranges)
            .into_iter()
            .map(|i| (i, items[i].0, items[i].1))
            .collect();
        remaining.reverse();
        AcquireManyFuture {
            lock,
            remaining,
            inflight: None,
            acquired: Vec::with_capacity(items.len()),
        }
    }
}

// The future holds no self-references: the single-item futures are `Unpin`
// (all their fields are) and the stored guards are plain values that are
// only ever moved, never pointed into. Asserting `Unpin` lets callers drive
// it with `Pin::new` like the single-item futures.
impl<L: TwoPhaseRwRangeLock> Unpin for AcquireManyFuture<'_, L> {}

impl<'a, L: TwoPhaseRwRangeLock> Future for AcquireManyFuture<'a, L> {
    type Output = Vec<RwBatchGuard<'a, L>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        loop {
            if let Some((idx, inflight)) = this.inflight.as_mut() {
                let guard = match inflight {
                    Inflight::Read(fut) => match Pin::new(fut).poll(cx) {
                        Poll::Ready(guard) => RwBatchGuard::Read(guard),
                        Poll::Pending => return Poll::Pending,
                    },
                    Inflight::Write(fut) => match Pin::new(fut).poll(cx) {
                        Poll::Ready(guard) => RwBatchGuard::Write(guard),
                        Poll::Pending => return Poll::Pending,
                    },
                };
                this.acquired.push((*idx, guard));
                this.inflight = None;
            }
            match this.remaining.pop() {
                Some((idx, range, mode)) => {
                    let fut = match mode {
                        BatchMode::Read => Inflight::Read(ReadFuture::new(this.lock, range)),
                        BatchMode::Write => Inflight::Write(WriteFuture::new(this.lock, range)),
                    };
                    this.inflight = Some((idx, fut));
                }
                None => {
                    let mut acquired = std::mem::take(&mut this.acquired);
                    acquired.sort_by_key(|(i, _)| *i);
                    return Poll::Ready(acquired.into_iter().map(|(_, g)| g).collect());
                }
            }
        }
    }
}

impl<L: TwoPhaseRwRangeLock> std::fmt::Debug for AcquireManyFuture<'_, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AcquireManyFuture")
            .field("remaining", &self.remaining.len())
            .field("acquired", &self.acquired.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::task::{Wake, Waker};

    use rl_sync::stats::WaitStats;
    use rl_sync::wait::Block;

    use crate::{ListRangeLock, RwListRangeLock};

    struct CountingWaker(AtomicU64);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWaker>, Waker) {
        let count = Arc::new(CountingWaker(AtomicU64::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        (count, waker)
    }

    fn poll_once<F: Future + Unpin>(fut: &mut F, waker: &Waker) -> Poll<F::Output> {
        let mut cx = Context::from_waker(waker);
        Pin::new(fut).poll(&mut cx)
    }

    #[test]
    fn uncontended_future_resolves_on_first_poll() {
        let lock = ListRangeLock::new();
        let (_, waker) = counting_waker();
        let mut fut = lock.write_async(Range::new(0, 10));
        let guard = match poll_once(&mut fut, &waker) {
            Poll::Ready(g) => g,
            Poll::Pending => panic!("uncontended acquisition must resolve immediately"),
        };
        assert_eq!(guard.range(), Range::new(0, 10));
        drop(guard);
        drop(fut); // resolved: dropping the future is a no-op
        assert!(lock.is_quiescent());
    }

    #[test]
    fn blocked_future_is_woken_by_the_release() {
        let lock = ListRangeLock::new();
        let held = lock.acquire(Range::new(0, 100));
        let (count, waker) = counting_waker();
        let mut fut = lock.write_async(Range::new(50, 150));
        assert!(poll_once(&mut fut, &waker).is_pending());
        assert_eq!(count.0.load(Ordering::SeqCst), 0);
        drop(held); // the release hook must deliver the wake
        assert!(count.0.load(Ordering::SeqCst) >= 1);
        match poll_once(&mut fut, &waker) {
            Poll::Ready(guard) => drop(guard),
            Poll::Pending => panic!("released: the re-poll must resolve"),
        }
        assert!(lock.is_quiescent());
    }

    #[test]
    fn dropping_a_pending_future_cancels_cleanly() {
        let stats = Arc::new(WaitStats::new("async-cancel"));
        let lock = RwListRangeLock::new().with_stats(Arc::clone(&stats));
        let held = lock.write(Range::new(0, 100));
        let (_, waker) = counting_waker();
        let mut fut = lock.write_async(Range::new(50, 150));
        assert!(poll_once(&mut fut, &waker).is_pending());
        drop(fut); // mid-wait: must cancel, deregister, and count it
        let snap = stats.snapshot();
        assert_eq!(snap.cancels, 1);
        assert!(snap.waker_registrations >= 1);
        drop(held);
        // No residue: the whole range is immediately acquirable.
        drop(lock.try_write(Range::FULL).expect("no leaked node"));
        assert!(lock.is_quiescent());
    }

    #[test]
    fn rw_futures_respect_modes() {
        let lock = RwListRangeLock::new();
        let (_, waker) = counting_waker();
        let r1 = lock.read(Range::new(0, 100));
        // Overlapping reader future resolves immediately (readers share).
        let mut rf = lock.read_async(Range::new(50, 150));
        let r2 = match poll_once(&mut rf, &waker) {
            Poll::Ready(g) => g,
            Poll::Pending => panic!("overlapping readers share"),
        };
        // Overlapping writer future stays pending.
        let mut wf = lock.write_async(Range::new(50, 150));
        assert!(poll_once(&mut wf, &waker).is_pending());
        drop(r1);
        drop(r2);
        match poll_once(&mut wf, &waker) {
            Poll::Ready(g) => drop(g),
            Poll::Pending => panic!("readers gone: writer resolves"),
        }
        assert!(lock.is_quiescent());
    }

    #[test]
    fn acquire_many_returns_guards_in_input_order() {
        // Deliberately descending input: acquisition reorders ascending,
        // the result must come back in input order.
        let items = [
            (Range::new(200, 300), BatchMode::Write),
            (Range::new(0, 100), BatchMode::Read),
            (Range::new(100, 200), BatchMode::Write),
        ];
        let lock = RwListRangeLock::new();
        let guards = lock.acquire_many(&items);
        assert_eq!(guards.len(), 3);
        assert!(!guards[0].is_read());
        assert!(guards[1].is_read());
        assert_eq!(lock.held_ranges(), 3);
        drop(guards);
        assert!(lock.is_quiescent());

        // list-ex row: the same batch, every item exclusive underneath.
        let ex = ListRangeLock::new();
        let guards = ex.acquire_many(&items);
        let ranges: Vec<Range> = guards
            .iter()
            .map(|g| match g {
                RwBatchGuard::Read(g) | RwBatchGuard::Write(g) => g.range(),
            })
            .collect();
        assert_eq!(ranges, items.map(|(r, _)| r));
        assert!(guards[1].is_read());
        assert_eq!(ex.held_ranges(), 3);
        drop(guards);
        assert!(ex.is_quiescent());
    }

    #[test]
    fn try_acquire_many_is_all_or_nothing() {
        // Second item conflicts: the whole batch must roll back.
        let items = [
            (Range::new(0, 100), BatchMode::Write),
            (Range::new(200, 300), BatchMode::Read),
        ];
        let stats = Arc::new(WaitStats::new("batch"));
        let lock = RwListRangeLock::new().with_stats(Arc::clone(&stats));
        let held = lock.write(Range::new(150, 250));
        assert!(lock.try_acquire_many(&items).is_none());
        let snap = stats.snapshot();
        assert_eq!(snap.batch_rollbacks, 1);
        assert_eq!(snap.cancels, 1);
        // No residue: the non-conflicting item's span is free again.
        drop(lock.try_write(Range::new(0, 100)).expect("rolled back"));
        drop(held);
        assert!(lock.try_acquire_many(&items).is_some());
        assert!(lock.is_quiescent());

        // list-ex row, same protocol: a held *read* conflicts with a read
        // item, because readers serialize on the exclusive lock.
        let stats = Arc::new(WaitStats::new("batch-ex"));
        let ex = ListRangeLock::new().with_stats(Arc::clone(&stats));
        let held = ex.read(Range::new(150, 250));
        assert!(ex.try_acquire_many(&items).is_none());
        assert_eq!(stats.snapshot().batch_rollbacks, 1);
        drop(ex.try_write(Range::new(0, 100)).expect("rolled back"));
        drop(held);
        assert!(ex.try_acquire_many(&items).is_some());
        assert!(ex.is_quiescent());
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_batch_items_panic() {
        let lock = RwListRangeLock::new();
        let _ = lock.acquire_many(&[
            (Range::new(0, 100), BatchMode::Read),
            (Range::new(50, 150), BatchMode::Read),
        ]);
    }

    #[test]
    fn batch_future_resolves_item_by_item_and_cancels_cleanly() {
        let stats = Arc::new(WaitStats::new("batch-async"));
        let lock = RwListRangeLock::new().with_stats(Arc::clone(&stats));
        let (_, waker) = counting_waker();

        // Uncontended: resolves on the first poll, guards in input order.
        let items = [
            (Range::new(100, 200), BatchMode::Write),
            (Range::new(0, 100), BatchMode::Read),
        ];
        let mut fut = lock.acquire_many_async(&items);
        let guards = match poll_once(&mut fut, &waker) {
            Poll::Ready(g) => g,
            Poll::Pending => panic!("uncontended batch must resolve immediately"),
        };
        assert_eq!(guards.len(), 2);
        assert!(!guards[0].is_read());
        assert!(guards[1].is_read());
        drop(guards);

        // Contended on the *second* (ascending) item: the batch suspends
        // with the first item held, then rolls everything back on drop.
        let held = lock.write(Range::new(150, 250));
        let mut fut = lock.acquire_many_async(&items);
        assert!(poll_once(&mut fut, &waker).is_pending());
        assert_eq!(lock.held_ranges(), 2); // conflict + first batch item
        drop(fut); // cancels the in-flight item, releases the acquired one
        assert!(stats.snapshot().cancels >= 1);
        assert_eq!(lock.held_ranges(), 1);
        drop(held);

        // Contention release resumes the batch.
        let held = lock.write(Range::new(150, 250));
        let mut fut = lock.acquire_many_async(&items);
        assert!(poll_once(&mut fut, &waker).is_pending());
        drop(held);
        match poll_once(&mut fut, &waker) {
            Poll::Ready(guards) => drop(guards),
            Poll::Pending => panic!("released: the batch must resolve"),
        }
        assert!(lock.is_quiescent());
        assert!(format!("{:?}", lock.acquire_many_async(&[])).contains("AcquireManyFuture"));
    }

    #[test]
    fn trait_timeouts_expire_and_succeed() {
        fn run<L: TwoPhaseRwRangeLock>(lock: &L, probe: Range, conflict: Range) {
            let held = lock.write(conflict);
            assert!(lock
                .read_timeout(probe, Duration::from_millis(10))
                .is_none());
            assert!(lock
                .write_timeout(probe, Duration::from_millis(10))
                .is_none());
            drop(held);
            assert!(lock
                .read_timeout(probe, Duration::from_millis(100))
                .is_some());
            assert!(lock
                .write_timeout(probe, Duration::from_millis(100))
                .is_some());
        }
        let range = Range::new(0, 50);
        run(&RwListRangeLock::new(), range, Range::new(25, 75));
        run(
            &RwListRangeLock::<Block>::with_policy(),
            range,
            Range::new(25, 75),
        );
        // list-ex row, and its inherent `acquire_timeout` (the paper-API
        // spelling of `write_timeout`).
        let ex = ListRangeLock::new();
        run(&ex, range, Range::new(25, 75));
        let held = ex.acquire(Range::new(0, 50));
        assert!(ex
            .acquire_timeout(Range::new(25, 75), Duration::from_millis(10))
            .is_none());
        drop(held);
        assert!(ex
            .acquire_timeout(Range::new(25, 75), Duration::from_millis(100))
            .is_some());
    }
}
