//! The shared core of both list-based range locks.
//!
//! The paper's exclusive lock (Listing 1) and reader-writer lock
//! (Listings 2–3) maintain the *same* data structure — a singly linked list of
//! acquired ranges sorted by start address, with CAS insertion, wait-free
//! FAA-mark release, lazy unlinking of marked nodes, the empty-list fast path
//! of Section 4.5, the fairness gate of Section 4.3 and epoch reclamation
//! (Section 4.4). They differ only in their **compatibility rule** (which
//! pairs of overlapping nodes conflict) and in whether an insertion must be
//! **validated** after its CAS (the Figure 1 reader/writer race exists only
//! when overlapping nodes are allowed to coexist).
//!
//! [`ListCore`] implements the whole protocol once, parameterized by a
//! compile-time [`CompatMode`]:
//!
//! * [`Exclusive`] — every overlap conflicts; insertion needs no validation
//!   because two overlapping nodes always compete for the same insertion
//!   point (the mutual-exclusion argument of Section 4.1);
//! * [`ReaderWriter`] — overlapping readers share; reader and writer
//!   insertions are validated per Listing 3 (`r_validate` / `w_validate`),
//!   with readers preferred in conflicts exactly as in the paper.
//!
//! The public lock types ([`ListRangeLock`](crate::ListRangeLock),
//! [`RwListRangeLock`](crate::RwListRangeLock)) are thin façades over a
//! `ListCore`; the mode parameter is monomorphized away, so the exclusive
//! lock compiles to the same straight-line fast path it had before the
//! extraction.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rl_sync::stats::{WaitKind, WaitStats};
use rl_sync::wait::{SpinThenYield, WaitPolicy, WaitQueue};
use rl_sync::{CachePadded, KEY_ANY};

use crate::fairness::{FairnessGate, FairnessPermit};
use crate::node::{deref_node, is_marked, mark, to_ptr, unmark, LNode};
use crate::range::Range;
use crate::reclaim;

/// Configuration for the list-based range locks (both variants).
#[derive(Debug, Clone)]
pub struct ListLockConfig {
    /// Enable the empty-list fast path of Section 4.5.
    pub fast_path: bool,
    /// Enable the starvation-avoidance gate of Section 4.3.
    pub fairness: bool,
    /// Number of failed insertion attempts before a thread becomes impatient
    /// (only meaningful when `fairness` is enabled).
    pub impatience_threshold: u32,
}

impl Default for ListLockConfig {
    fn default() -> Self {
        ListLockConfig {
            fast_path: true,
            fairness: false,
            impatience_threshold: 16,
        }
    }
}

/// Result of comparing the node under inspection (`cur`) with the node being
/// inserted (`lock`), mirroring the paper's `compare` return values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Keep traversing: `cur` sorts before `lock`.
    CurBeforeLock,
    /// The two nodes conflict under the compatibility mode.
    Conflict,
    /// Insert `lock` right before `cur`.
    CurAfterLock,
}

/// A compile-time compatibility rule: which pairs of overlapping nodes
/// conflict, and whether insertions must be validated after their CAS.
///
/// Implemented by exactly two zero-sized types, [`Exclusive`] and
/// [`ReaderWriter`]; the trait exists so [`ListCore`] can be written once and
/// monomorphized per mode.
pub trait CompatMode: Send + Sync + 'static {
    /// `true` if overlapping reader nodes may coexist (and insertions
    /// therefore need the Listing 3 validation passes).
    const READERS_SHARE: bool;

    /// The paper's `compare`: how `lock` orders against a live node `cur`.
    fn compare(cur: &LNode, lock: &LNode) -> Cmp;
}

/// Every overlap conflicts (the Section 4.1 exclusive lock, Listing 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct Exclusive;

impl CompatMode for Exclusive {
    const READERS_SHARE: bool = false;

    #[inline]
    fn compare(cur: &LNode, lock: &LNode) -> Cmp {
        if cur.start >= lock.end {
            Cmp::CurAfterLock
        } else if lock.start >= cur.end {
            Cmp::CurBeforeLock
        } else {
            Cmp::Conflict
        }
    }
}

/// Overlapping readers share; writers exclude every overlap (the Section 4.2
/// reader-writer lock, Listing 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReaderWriter;

impl CompatMode for ReaderWriter {
    const READERS_SHARE: bool = true;

    #[inline]
    fn compare(cur: &LNode, lock: &LNode) -> Cmp {
        let both_readers = cur.is_reader() && lock.is_reader();
        if lock.start >= cur.end {
            return Cmp::CurBeforeLock;
        }
        if both_readers && lock.start >= cur.start {
            return Cmp::CurBeforeLock;
        }
        if cur.start >= lock.end {
            return Cmp::CurAfterLock;
        }
        if both_readers && cur.start >= lock.start {
            return Cmp::CurAfterLock;
        }
        Cmp::Conflict
    }
}

/// One pending (started but not yet completed) two-phase acquisition.
///
/// Created by [`ListCore::enqueue`], driven by [`ListCore::poll_acquire`],
/// abandoned by [`ListCore::cancel_acquire`]. The token owns the request
/// node until the acquisition completes (the node moves into the returned
/// [`RawGuard`]) or is cancelled (the node is freed, or logically deleted if
/// it was already published to the list); leaking the token without either
/// leaks the node — the façade future types guarantee one of the two by
/// cancelling on drop.
///
/// State machine:
///
/// * **searching** (`published == false`) — the node is exclusively owned
///   and not yet in the list; each poll re-runs the insertion traversal and
///   backs out on conflict. Cancelling frees the node.
/// * **validating** (`published == true`, reader-writer mode readers only) —
///   the node is CAS-published but an earlier overlapping writer has not
///   released yet (the Listing 3 `r_validate` wait). The node *stays* in the
///   list across polls — that is what preserves the paper's
///   readers-preferred ordering: writers arriving later fail `w_validate`
///   against it. Cancelling marks the node deleted and wakes the queue so
///   those writers can proceed — the unlink-on-abandonment the blocking API
///   cannot express.
/// * **done** (`node == null`) — completed or cancelled; polling again is a
///   contract violation (checked by a debug assertion).
#[derive(Debug)]
pub struct PendingAcquire {
    node: *mut LNode,
    reader: bool,
    published: bool,
    /// Set once any poll observed a conflict or lost a race; completions
    /// record as contended acquisitions in the attached [`WaitStats`].
    contended: bool,
    /// Address of the node that blocked the most recent unsuccessful poll
    /// (`KEY_ANY` before the first block). The key the caller should wait
    /// under; re-read after every poll, because the blocker can change.
    wait_key: u64,
    started: Instant,
}

// SAFETY: The node pointer is exclusively owned by this token (searching) or
// published to a lock-free list whose operations are all atomic (validating);
// either way the token may move across threads.
unsafe impl Send for PendingAcquire {}

impl PendingAcquire {
    /// `true` once the acquisition has completed or been cancelled.
    pub fn is_done(&self) -> bool {
        self.node.is_null()
    }

    /// The requested range (`None` once done).
    pub fn range(&self) -> Option<Range> {
        // SAFETY: A non-null node is owned by this token or published and
        // not yet released; either way it is alive.
        (!self.node.is_null()).then(|| unsafe { (*self.node).range() })
    }

    /// The wait key of the conflict that blocked the most recent poll: the
    /// blocking node's address, or `KEY_ANY` if no poll has blocked yet.
    ///
    /// Callers suspend under this key (a keyed park or keyed waker
    /// registration) so only the blocker's release wakes them, and must
    /// re-read it after every poll — the paper's protocol can block each
    /// retry on a different node.
    pub fn wait_key(&self) -> u64 {
        self.wait_key
    }
}

/// Result of one insertion attempt.
enum InsertOutcome {
    /// The node is in the list and validated.
    Acquired,
    /// The traversal lost its predecessor; retry with the same node.
    Restart,
    /// Writer validation failed; the node was logically deleted and the whole
    /// acquisition must restart with a fresh node.
    ValidationFailed,
}

/// Result of one *bounded* (poll-driven) insertion attempt.
enum PollInsert {
    /// The node is in the list and validated.
    Acquired,
    /// The reader node is in the list but validation must wait out an
    /// earlier writer; the caller owns the published-node state.
    ReaderPublished,
    /// A live conflicting node (whose address is carried as the wait key)
    /// blocks the insertion: suspend here.
    Blocked(u64),
    /// The traversal lost its predecessor; retry with the same node.
    Restart,
    /// Writer validation failed; the node was logically deleted and the
    /// acquisition must restart with a fresh node.
    ValidationFailed,
}

/// The raw result of a core acquisition: the published node plus whether the
/// Section 4.5 fast path was taken.
///
/// The façade guard types ([`ListRangeGuard`](crate::ListRangeGuard),
/// [`RwListRangeGuard`](crate::RwListRangeGuard)) wrap one of these together
/// with a lock reference and call [`ListCore::release`] on drop; `RawGuard`
/// itself is inert — dropping it without a `release` call leaks the node's
/// hold on the range.
#[derive(Debug)]
pub struct RawGuard {
    node: *mut LNode,
    fast: bool,
}

impl RawGuard {
    /// The range the underlying node covers.
    #[inline]
    pub fn range(&self) -> Range {
        // SAFETY: The façade guard keeps the node alive while it exists.
        unsafe { (*self.node).range() }
    }

    /// Returns `true` if the node is currently held in reader mode.
    #[inline]
    pub fn is_reader(&self) -> bool {
        // SAFETY: As in `range`.
        unsafe { (*self.node).is_reader() }
    }

    /// Returns `true` if this acquisition took the empty-list fast path.
    #[inline]
    pub fn took_fast_path(&self) -> bool {
        self.fast
    }
}

/// The shared list-lock engine: the whole protocol of Sections 4.1–4.5,
/// parameterized by a [`CompatMode`] and a [`WaitPolicy`].
///
/// This type is the implementation detail behind the two public lock types;
/// it is exported so its documentation can anchor the design (see
/// `DESIGN.md`) and so downstream experiments can build further façades, but
/// the supported interface is [`ListRangeLock`](crate::ListRangeLock) /
/// [`RwListRangeLock`](crate::RwListRangeLock).
pub struct ListCore<M: CompatMode, P: WaitPolicy = SpinThenYield> {
    /// Padded so the hottest word in the structure (every acquisition CASes
    /// or reads it) does not share a line with the config/stats cold fields
    /// or with the queue's counters.
    head: CachePadded<AtomicU64>,
    config: ListLockConfig,
    fairness: Option<FairnessGate<P>>,
    stats: Option<Arc<WaitStats>>,
    /// Wake channel for the `Block` policy; idle under spinning policies.
    queue: WaitQueue,
    _mode: PhantomData<M>,
}

// SAFETY: All shared state is manipulated through atomics and the
// epoch-protected list protocol; the lock hands out exclusive access to
// ranges, not to interior data.
unsafe impl<M: CompatMode, P: WaitPolicy> Send for ListCore<M, P> {}
// SAFETY: See the `Send` justification.
unsafe impl<M: CompatMode, P: WaitPolicy> Sync for ListCore<M, P> {}

impl<M: CompatMode, P: WaitPolicy> ListCore<M, P> {
    /// Creates a core with the given configuration.
    pub fn with_config(config: ListLockConfig) -> Self {
        let fairness = if config.fairness {
            Some(FairnessGate::with_policy())
        } else {
            None
        };
        ListCore {
            head: CachePadded::new(AtomicU64::new(0)),
            config,
            fairness,
            stats: None,
            queue: WaitQueue::new(),
            _mode: PhantomData,
        }
    }

    /// Attaches a [`WaitStats`] sink recording contended acquisition times
    /// (and, under the `Block` policy, park/wake counts). Must be called
    /// before the core is shared.
    ///
    /// Also registers the stats label as this lock's trace label, so
    /// `rl-obs` events from this core show up under the same name as its
    /// counters.
    pub fn attach_stats(&mut self, stats: Arc<WaitStats>) {
        rl_obs::trace::label_lock(self.queue.trace_id(), stats.name());
        self.queue.attach_stats(Arc::clone(&stats));
        self.stats = Some(stats);
    }

    /// The id stamped on every `rl-obs` event this core emits (shared with
    /// its wait queue, so park/wake events land on the same trace track).
    pub fn trace_id(&self) -> u64 {
        self.queue.trace_id()
    }

    /// The configuration the core was built with.
    pub fn config(&self) -> &ListLockConfig {
        &self.config
    }

    /// Acquires `range` (in reader mode when `reader` is set and the mode
    /// supports it), waiting for conflicting holders.
    pub fn acquire(&self, range: Range, reader: bool) -> RawGuard {
        let started = Instant::now();
        let mut contended = false;
        let kind = if reader {
            WaitKind::Read
        } else {
            WaitKind::Write
        };

        // Fast path (Section 4.5): empty list, CAS the head to a marked
        // pointer to our node.
        if self.config.fast_path && self.head.load(Ordering::Acquire) == 0 {
            let node = reclaim::alloc_node(range, reader);
            // SAFETY: `node` is exclusively owned until published.
            let node_ptr = unsafe { to_ptr(&*node) };
            if self
                .head
                .compare_exchange(0, mark(node_ptr), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if let Some(s) = &self.stats {
                    s.record_uncontended();
                }
                rl_obs::trace::emit_sampled(
                    rl_obs::EventKind::Granted,
                    self.queue.trace_id(),
                    range.start,
                    range.end,
                );
                return RawGuard { node, fast: true };
            }
            // Somebody raced us; fall through to the regular path reusing the
            // node we already allocated. (Under `ReaderWriter` the insertion
            // may still fail writer validation, in which case the node is
            // abandoned and the loop below allocates a fresh one.)
            contended = true;
            if rl_obs::trace::is_enabled() {
                rl_obs::trace::emit_here(
                    rl_obs::EventKind::AcquireStart,
                    self.queue.trace_id(),
                    range.start,
                    range.end,
                );
            }
            if self.insert_with_retries(node, reader, &mut contended) {
                self.record(kind, started, contended, range);
                return RawGuard { node, fast: false };
            }
        }
        // `contended` doubles as "AcquireStart already emitted": the only way
        // it is set here is the fast-path race above, which emits.
        if !contended && rl_obs::trace::is_enabled() {
            rl_obs::trace::emit_here(
                rl_obs::EventKind::AcquireStart,
                self.queue.trace_id(),
                range.start,
                range.end,
            );
        }

        // RWRangeAcquire's do-while loop: allocate a node and insert it; a
        // writer whose validation fails abandons the node and starts over.
        // Under `Exclusive`, validation never fails and the loop runs once.
        loop {
            let node = reclaim::alloc_node(range, reader);
            if self.insert_with_retries(node, reader, &mut contended) {
                self.record(kind, started, contended, range);
                return RawGuard { node, fast: false };
            }
            contended = true;
        }
    }

    /// One bounded acquisition attempt: never waits and never restarts after
    /// losing a race. Returns `None` on any conflict or lost race; the
    /// allocated node is freed (never-published) or logically deleted
    /// (published but failed validation), so a failure leaves nothing behind.
    pub fn try_acquire(&self, range: Range, reader: bool) -> Option<RawGuard> {
        // Fast path: empty list.
        if self.config.fast_path && self.head.load(Ordering::Acquire) == 0 {
            let node = reclaim::alloc_node(range, reader);
            // SAFETY: `node` is exclusively owned until published.
            let node_ptr = unsafe { to_ptr(&*node) };
            if self
                .head
                .compare_exchange(0, mark(node_ptr), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                rl_obs::trace::emit_sampled(
                    rl_obs::EventKind::Granted,
                    self.queue.trace_id(),
                    range.start,
                    range.end,
                );
                return Some(RawGuard { node, fast: true });
            }
            // Lost the race; discard the never-published node and take the
            // regular bounded attempt below.
            // SAFETY: The node was never published to the list.
            unsafe { reclaim::free_node_now(node) };
        }

        let node = reclaim::alloc_node(range, reader);
        // SAFETY: `node` is owned by us until published; once published it is
        // not released before this function returns.
        let lock_node = unsafe { &*node };
        let _pin = reclaim::pin();
        let mut prev: &AtomicU64 = &self.head;
        let mut cur = prev.load(Ordering::Acquire);
        loop {
            if is_marked(cur) {
                if std::ptr::eq(prev, &*self.head) {
                    let _ = self.head.compare_exchange(
                        cur,
                        unmark(cur),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    cur = prev.load(Ordering::Acquire);
                    continue;
                }
                // Our predecessor was released under us; a blocking
                // acquisition would restart, a bounded one gives up.
                // SAFETY: The node was never published to the list.
                unsafe { reclaim::free_node_now(node) };
                return None;
            }
            // SAFETY: Pinned; `cur` was read from a reachable `next` pointer.
            let cur_node = unsafe { deref_node(cur) };
            if let Some(cn) = cur_node {
                let cn_next = cn.next.load(Ordering::Acquire);
                if is_marked(cn_next) {
                    cur = self.unlink(prev, cur, cn_next);
                    continue;
                }
            }
            match compare_step::<M>(cur_node, lock_node) {
                Cmp::CurBeforeLock => {
                    let cn = cur_node.expect("CurBeforeLock implies a live node");
                    prev = &cn.next;
                    cur = prev.load(Ordering::Acquire);
                }
                Cmp::Conflict => {
                    // SAFETY: The node was never published to the list.
                    unsafe { reclaim::free_node_now(node) };
                    return None;
                }
                Cmp::CurAfterLock => {
                    lock_node.next.store(cur, Ordering::Relaxed);
                    if prev
                        .compare_exchange(
                            cur,
                            to_ptr(lock_node),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_err()
                    {
                        // Lost the insertion race; bounded attempts give up.
                        // SAFETY: The node was never published to the list.
                        unsafe { reclaim::free_node_now(node) };
                        return None;
                    }
                    let acquired = if !M::READERS_SHARE {
                        true
                    } else if reader {
                        // A reader that meets an overlapping writer during
                        // validation would have to wait; bail out instead.
                        let ok = self.try_r_validate(lock_node).is_ok();
                        if !ok {
                            // The node was published; wake any writer already
                            // waiting on it.
                            lock_node.mark_deleted();
                            self.queue.wake(to_ptr(lock_node));
                        }
                        ok
                    } else {
                        // Writer validation never waits: it either succeeds
                        // or marks the node deleted itself.
                        let mut contended = false;
                        self.w_validate(lock_node, &mut contended)
                    };
                    if acquired && rl_obs::trace::is_enabled() {
                        rl_obs::trace::emit_here(
                            rl_obs::EventKind::Granted,
                            self.queue.trace_id(),
                            range.start,
                            range.end,
                        );
                    }
                    return acquired.then_some(RawGuard { node, fast: false });
                }
            }
        }
    }

    /// Starts a two-phase acquisition of `range` (in reader mode when
    /// `reader` is set and the mode supports it).
    ///
    /// The **enqueue** step of the cancellable protocol: it allocates the
    /// request node and performs no list work — the physical insertion
    /// happens inside the first [`ListCore::poll_acquire`] that finds the
    /// insertion point, because in this list protocol inserting *is* (modulo
    /// validation) acquiring. The returned token must eventually reach
    /// [`ListCore::poll_acquire`] completion or [`ListCore::cancel_acquire`].
    pub fn enqueue(&self, range: Range, reader: bool) -> PendingAcquire {
        if rl_obs::trace::is_enabled() {
            rl_obs::trace::emit_here(
                rl_obs::EventKind::AcquireStart,
                self.queue.trace_id(),
                range.start,
                range.end,
            );
        }
        PendingAcquire {
            node: reclaim::alloc_node(range, reader),
            reader,
            published: false,
            contended: false,
            wait_key: KEY_ANY,
            started: Instant::now(),
        }
    }

    /// Drives a pending acquisition as far as it can get without waiting
    /// (the **poll** step).
    ///
    /// Returns the guard once the range is held. `None` means a conflicting
    /// holder blocks the acquisition *right now*: the caller should register
    /// a waiter on [`ListCore::wait_queue`] (a [`core::task::Waker`] or a
    /// deadline park) and poll again after a wake. Unlike
    /// [`ListCore::try_acquire`], a poll never fails spuriously — lost races
    /// are retried internally, and `None` is returned only on an observed
    /// conflict — and a blocked reader-writer-mode reader stays *published*
    /// between polls (Listing 3 validation), preserving the paper's
    /// readers-preferred ordering across suspensions.
    ///
    /// Two-phase acquisitions do not participate in the §4.3 fairness gate:
    /// a poll is one bounded attempt, and impatience cannot be carried
    /// across suspensions without holding a gate permit while descheduled.
    pub fn poll_acquire(&self, pending: &mut PendingAcquire) -> Option<RawGuard> {
        debug_assert!(!pending.is_done(), "poll of a completed acquisition");
        let reader = pending.reader;
        let kind = if reader {
            WaitKind::Read
        } else {
            WaitKind::Write
        };
        let _pin = reclaim::pin();

        if pending.published {
            // A published reader waiting out earlier overlapping writers.
            // SAFETY: Published and not yet released, so the node is alive.
            let lock_node = unsafe { &*pending.node };
            match self.try_r_validate(lock_node) {
                Ok(()) => {
                    let range = lock_node.range();
                    let node = std::mem::replace(&mut pending.node, std::ptr::null_mut());
                    self.record(kind, pending.started, pending.contended, range);
                    return Some(RawGuard { node, fast: false });
                }
                Err(blocker) => {
                    pending.wait_key = blocker;
                    return None;
                }
            }
        }

        // Fast path (Section 4.5): first poll of an empty list.
        if self.config.fast_path && self.head.load(Ordering::Acquire) == 0 {
            // SAFETY: The node is exclusively owned until published.
            let node_ptr = unsafe { to_ptr(&*pending.node) };
            if self
                .head
                .compare_exchange(0, mark(node_ptr), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let range = pending.range().expect("fast-path node is live");
                let node = std::mem::replace(&mut pending.node, std::ptr::null_mut());
                self.record(kind, pending.started, pending.contended, range);
                return Some(RawGuard { node, fast: true });
            }
            pending.contended = true;
        }

        loop {
            // SAFETY: The node is exclusively owned until published; a
            // published node is not released before this loop decides.
            let lock_node = unsafe { &*pending.node };
            match self.poll_insert_attempt(lock_node, reader) {
                PollInsert::Acquired => {
                    let range = lock_node.range();
                    let node = std::mem::replace(&mut pending.node, std::ptr::null_mut());
                    self.record(kind, pending.started, pending.contended, range);
                    return Some(RawGuard { node, fast: false });
                }
                PollInsert::ReaderPublished => {
                    pending.published = true;
                    match self.try_r_validate(lock_node) {
                        Ok(()) => {
                            let range = lock_node.range();
                            let node = std::mem::replace(&mut pending.node, std::ptr::null_mut());
                            self.record(kind, pending.started, pending.contended, range);
                            return Some(RawGuard { node, fast: false });
                        }
                        Err(blocker) => {
                            pending.contended = true;
                            pending.wait_key = blocker;
                            return None;
                        }
                    }
                }
                PollInsert::Blocked(blocker) => {
                    pending.contended = true;
                    pending.wait_key = blocker;
                    return None;
                }
                PollInsert::Restart => {
                    pending.contended = true;
                }
                PollInsert::ValidationFailed => {
                    // The node was marked deleted by `w_validate`; restart
                    // the whole acquisition with a fresh node, exactly like
                    // the blocking path's do-while loop.
                    let range = lock_node.range();
                    pending.contended = true;
                    pending.node = reclaim::alloc_node(range, reader);
                }
            }
        }
    }

    /// Abandons a pending acquisition (the **cancel** step); idempotent.
    ///
    /// A node still in the searching state is simply freed. A *published*
    /// node (a reader parked in validation) is logically deleted and the
    /// queue is woken, so writers blocked behind the abandoned reader
    /// proceed — the unlink-on-abandonment the blocking API cannot express:
    /// a blocking waiter can only give up by owning the range first.
    ///
    /// Cancellation accounting ([`rl_sync::stats::WaitStats`] `cancels`) is
    /// recorded by the callers that decide to abandon (future drops, expired
    /// timeouts), not here, so a cancel is counted exactly once.
    pub fn cancel_acquire(&self, pending: &mut PendingAcquire) {
        if pending.is_done() {
            return;
        }
        if rl_obs::trace::is_enabled() {
            let range = pending.range().expect("pending is not done");
            rl_obs::trace::emit_here(
                rl_obs::EventKind::Cancelled,
                self.queue.trace_id(),
                range.start,
                range.end,
            );
        }
        let node = std::mem::replace(&mut pending.node, std::ptr::null_mut());
        if pending.published {
            // SAFETY: Published and never released: alive, marked once.
            let node_ref = unsafe { &*node };
            node_ref.mark_deleted();
            self.queue.wake(to_ptr(node_ref));
        } else {
            // SAFETY: Never published; exclusively owned by the token.
            unsafe { reclaim::free_node_now(node) };
        }
    }

    /// The queue a suspended two-phase acquisition waits on: release paths
    /// (and downgrades, and cancellations of published nodes) wake it.
    pub fn wait_queue(&self) -> &WaitQueue {
        &self.queue
    }

    /// Releases the range held by `guard`'s node.
    ///
    /// # Safety
    ///
    /// `guard` must have been returned by `acquire`/`try_acquire` on *this*
    /// core, must not have been released before, and must not be used again
    /// (including through [`RawGuard::range`]/[`RawGuard::is_reader`]) after
    /// this call: the node is retired to the epoch pool and may be reused.
    /// The façade guard types uphold this by releasing exactly once, on drop.
    pub unsafe fn release(&self, guard: &RawGuard) {
        // SAFETY: Per this function's contract the node is still alive: it is
        // published in the list (or, on the fast path, referenced by the head
        // pointer) and has not been released before.
        let node_ref = unsafe { &*guard.node };
        let range = node_ref.range();
        if guard.fast {
            let marked_ptr = mark(to_ptr(node_ref));
            if self.head.load(Ordering::Acquire) == marked_ptr
                && self
                    .head
                    .compare_exchange(marked_ptr, 0, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                // Eager removal succeeded; the node is unreachable from the
                // list but may still be referenced by a traversal that read
                // the head before our CAS, so retire it rather than free it.
                // No wake is needed: a waiter can only wait on a node it
                // reached by traversing, and every traversal strips the
                // fast-path head mark first — which would have made this CAS
                // fail. SAFETY: Unreachable from the list head.
                unsafe { reclaim::retire_node(guard.node) };
                rl_obs::trace::emit_sampled(
                    rl_obs::EventKind::Release,
                    self.queue.trace_id(),
                    range.start,
                    range.end,
                );
                return;
            }
            // Another thread stripped the fast-path mark (we are now a regular
            // node in the list); fall through to the regular release.
        }
        node_ref.mark_deleted();
        // Wake hook: waiters poll for the mark set above. Keyed on our own
        // node — the only node whose mark this release changed — so waiters
        // parked on other conflicts stay parked.
        self.queue.wake(to_ptr(node_ref));
        if rl_obs::trace::is_enabled() {
            rl_obs::trace::emit_here(
                rl_obs::EventKind::Release,
                self.queue.trace_id(),
                range.start,
                range.end,
            );
        }
    }

    /// Downgrades a held writer node to reader mode in place and wakes the
    /// queue so blocked overlapping readers re-check their predicates.
    ///
    /// The flip only *weakens* the node's exclusion, so every concurrent
    /// traversal remains correct whichever value it reads; waiting readers
    /// observe the new mode through the wake below (their wait predicates
    /// re-check the reader flag, not just the deletion mark).
    ///
    /// # Safety
    ///
    /// `guard` must be a live (acquired on *this* core, not yet released)
    /// guard, and the core's mode must allow readers to share
    /// (`M::READERS_SHARE`) — flipping a node of an exclusive-mode core
    /// would let overlapping "readers" coexist with it.
    pub unsafe fn downgrade(&self, guard: &RawGuard) {
        debug_assert!(M::READERS_SHARE, "downgrade on an exclusive-mode core");
        // SAFETY: Per this function's contract the node is still alive.
        let node_ref = unsafe { &*guard.node };
        node_ref.set_reader();
        self.queue.wake(to_ptr(node_ref));
    }

    /// Returns the number of currently held (not logically deleted) ranges.
    pub fn held_ranges(&self) -> usize {
        let _pin = reclaim::pin();
        let mut count = 0;
        let mut cur = unmark(self.head.load(Ordering::Acquire));
        // SAFETY: Pinned; nodes reachable from the head are not reclaimed.
        while let Some(node) = unsafe { deref_node(cur) } {
            if !node.is_deleted() {
                count += 1;
            }
            cur = unmark(node.next.load(Ordering::Acquire));
        }
        count
    }

    /// Returns `true` if no range is currently held.
    ///
    /// Marked (released but not yet unlinked) nodes count as absent. The
    /// answer is immediately stale in the presence of concurrent threads and
    /// is intended for assertions and tests.
    pub fn is_quiescent(&self) -> bool {
        self.held_ranges() == 0
    }

    fn record(&self, kind: WaitKind, started: Instant, contended: bool, range: Range) {
        if let Some(s) = &self.stats {
            if contended {
                s.record_wait_ns(kind, started.elapsed().as_nanos() as u64);
            } else {
                s.record_uncontended();
            }
        }
        // Slow-path grants are not sampled: they pair with the AcquireStart
        // emitted on slow-path entry, and they are never the ~70 ns hot loop.
        if rl_obs::trace::is_enabled() {
            rl_obs::trace::emit_here(
                rl_obs::EventKind::Granted,
                self.queue.trace_id(),
                range.start,
                range.end,
            );
        }
    }

    /// Unlinks the logically deleted node `cur` from `prev` and returns its
    /// successor (the next node to inspect), retiring `cur` on success.
    #[inline]
    fn unlink(&self, prev: &AtomicU64, cur: u64, cn_next: u64) -> u64 {
        let next = unmark(cn_next);
        if prev
            .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // SAFETY: `cur` is now unreachable from the list head; in-flight
            // readers are protected by the epoch.
            unsafe { reclaim::retire_node(unmark(cur) as *mut LNode) };
        }
        next
    }

    /// Runs insertion attempts for one node until it is acquired or writer
    /// validation fails. Returns `true` on acquisition.
    fn insert_with_retries(&self, node: *mut LNode, reader: bool, contended: &mut bool) -> bool {
        // SAFETY: `node` remains alive: it is owned by us until published, and
        // once published it is not released before this function returns.
        let lock_node = unsafe { &*node };
        let mut attempts: u32 = 0;
        let mut permit = self
            .fairness
            .as_ref()
            .map(|gate| gate.enter())
            .unwrap_or(FairnessPermit::Disabled);

        loop {
            attempts += 1;
            if attempts > 1 {
                *contended = true;
            }
            if let (Some(gate), true) = (
                self.fairness.as_ref(),
                permit.should_escalate(attempts, self.config.impatience_threshold),
            ) {
                permit = gate.escalate(permit);
            }

            let pin = reclaim::pin();
            let outcome = self.insert_attempt(lock_node, reader, contended);
            drop(pin);
            match outcome {
                InsertOutcome::Acquired => return true,
                InsertOutcome::Restart => continue,
                InsertOutcome::ValidationFailed => return false,
            }
        }
    }

    /// One full traversal of `InsertNode` (Listings 1 and 2) plus, under
    /// `ReaderWriter`, the Listing 3 validation pass.
    fn insert_attempt(
        &self,
        lock_node: &LNode,
        reader: bool,
        contended: &mut bool,
    ) -> InsertOutcome {
        let mut prev: &AtomicU64 = &self.head;
        let mut cur = prev.load(Ordering::Acquire);
        loop {
            if is_marked(cur) {
                if std::ptr::eq(prev, &*self.head) {
                    // A fast-path acquisition marked the head pointer: strip
                    // the mark and continue on the regular path (Section 4.5).
                    let _ = self.head.compare_exchange(
                        cur,
                        unmark(cur),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    cur = prev.load(Ordering::Acquire);
                    continue;
                }
                // The node owning `prev` was logically deleted: the pointer to
                // the previous node is lost, restart from the head.
                *contended = true;
                return InsertOutcome::Restart;
            }
            // SAFETY: We hold a `Pin`, so any node reachable from the list
            // cannot be reclaimed while we inspect it.
            let cur_node = unsafe { deref_node(cur) };
            if let Some(cn) = cur_node {
                let cn_next = cn.next.load(Ordering::Acquire);
                if is_marked(cn_next) {
                    // `cur` is logically deleted: try to unlink it and keep
                    // going from its successor regardless of the CAS outcome.
                    cur = self.unlink(prev, cur, cn_next);
                    continue;
                }
            }
            match compare_step::<M>(cur_node, lock_node) {
                Cmp::CurBeforeLock => {
                    let cn = cur_node.expect("CurBeforeLock implies a live node");
                    prev = &cn.next;
                    cur = prev.load(Ordering::Acquire);
                }
                Cmp::Conflict => {
                    // Wait (through the policy) until the conflicting holder
                    // releases — or, when we are a reader, until it downgrades
                    // to a reader we can share with.
                    *contended = true;
                    let cn = cur_node.expect("Conflict implies a live node");
                    let sharable = M::READERS_SHARE && reader;
                    // Keyed on the conflicting node: only *its* release (or
                    // downgrade) wakes us, not every release on the lock.
                    let cleared = || {
                        is_marked(cn.next.load(Ordering::Acquire)) || (sharable && cn.is_reader())
                    };
                    P::wait(&self.queue, to_ptr(cn), cleared, None);
                    // Loop around: a marked node is unlinked above, a
                    // downgraded one re-compares as a reader.
                }
                Cmp::CurAfterLock => {
                    lock_node.next.store(cur, Ordering::Relaxed);
                    if prev
                        .compare_exchange(
                            cur,
                            to_ptr(lock_node),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        if !M::READERS_SHARE {
                            return InsertOutcome::Acquired;
                        }
                        return if reader {
                            self.r_validate(lock_node, contended);
                            InsertOutcome::Acquired
                        } else if self.w_validate(lock_node, contended) {
                            InsertOutcome::Acquired
                        } else {
                            InsertOutcome::ValidationFailed
                        };
                    }
                    *contended = true;
                    cur = prev.load(Ordering::Acquire);
                }
            }
        }
    }

    /// One bounded traversal of `InsertNode` for the poll-driven protocol:
    /// the body of [`ListCore::insert_attempt`] with waiting replaced by
    /// [`PollInsert::Blocked`] and reader validation handed back to the
    /// caller (which must keep the published node across suspensions).
    fn poll_insert_attempt(&self, lock_node: &LNode, reader: bool) -> PollInsert {
        let mut prev: &AtomicU64 = &self.head;
        let mut cur = prev.load(Ordering::Acquire);
        loop {
            if is_marked(cur) {
                if std::ptr::eq(prev, &*self.head) {
                    // Strip a fast-path head mark (Section 4.5).
                    let _ = self.head.compare_exchange(
                        cur,
                        unmark(cur),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    cur = prev.load(Ordering::Acquire);
                    continue;
                }
                // Our predecessor was released under us; restart.
                return PollInsert::Restart;
            }
            // SAFETY: The caller holds a `Pin` across the attempt.
            let cur_node = unsafe { deref_node(cur) };
            if let Some(cn) = cur_node {
                let cn_next = cn.next.load(Ordering::Acquire);
                if is_marked(cn_next) {
                    cur = self.unlink(prev, cur, cn_next);
                    continue;
                }
            }
            match compare_step::<M>(cur_node, lock_node) {
                Cmp::CurBeforeLock => {
                    let cn = cur_node.expect("CurBeforeLock implies a live node");
                    prev = &cn.next;
                    cur = prev.load(Ordering::Acquire);
                }
                Cmp::Conflict => {
                    let cn = cur_node.expect("Conflict implies a live node");
                    return PollInsert::Blocked(to_ptr(cn));
                }
                Cmp::CurAfterLock => {
                    lock_node.next.store(cur, Ordering::Relaxed);
                    if prev
                        .compare_exchange(
                            cur,
                            to_ptr(lock_node),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        if !M::READERS_SHARE {
                            return PollInsert::Acquired;
                        }
                        if reader {
                            return PollInsert::ReaderPublished;
                        }
                        let mut contended = false;
                        return if self.w_validate(lock_node, &mut contended) {
                            PollInsert::Acquired
                        } else {
                            PollInsert::ValidationFailed
                        };
                    }
                    cur = prev.load(Ordering::Acquire);
                }
            }
        }
    }

    /// Reader validation (Listing 3, `r_validate`): scan forward from our node
    /// until a node that starts after our range; wait out overlapping writers
    /// (or stop waiting early if they downgrade to readers).
    fn r_validate(&self, lock_node: &LNode, contended: &mut bool) {
        let mut prev: &AtomicU64 = &lock_node.next;
        let mut cur = unmark(prev.load(Ordering::Acquire));
        loop {
            // SAFETY: Pinned (the caller holds the pin across validation).
            let cur_node = match unsafe { deref_node(cur) } {
                None => return,
                Some(n) => n,
            };
            // Ranges are half-open, so a node starting exactly at our end is
            // disjoint; `>` here would make the reader wait out an *adjacent*
            // writer (which may never release under a lock-table workload).
            if cur_node.start >= lock_node.end {
                return;
            }
            let cn_next = cur_node.next.load(Ordering::Acquire);
            if is_marked(cn_next) {
                cur = self.unlink(prev, cur, cn_next);
            } else if cur_node.is_reader() {
                prev = &cur_node.next;
                cur = unmark(prev.load(Ordering::Acquire));
            } else {
                // Overlapping writer: wait (through the policy, keyed on the
                // writer's node) until it marks itself as deleted or
                // downgrades to a reader.
                *contended = true;
                let cleared =
                    || is_marked(cur_node.next.load(Ordering::Acquire)) || cur_node.is_reader();
                P::wait(&self.queue, to_ptr(cur_node), cleared, None);
            }
        }
    }

    /// Bounded variant of [`ListCore::r_validate`]: instead of waiting when
    /// an overlapping live writer is found, fails with that writer's address
    /// — the key the suspended reader should wait under.
    fn try_r_validate(&self, lock_node: &LNode) -> Result<(), u64> {
        let mut prev: &AtomicU64 = &lock_node.next;
        let mut cur = unmark(prev.load(Ordering::Acquire));
        loop {
            // SAFETY: Pinned (the caller holds the pin across validation).
            let cur_node = match unsafe { deref_node(cur) } {
                None => return Ok(()),
                Some(n) => n,
            };
            if cur_node.start >= lock_node.end {
                return Ok(());
            }
            let cn_next = cur_node.next.load(Ordering::Acquire);
            if is_marked(cn_next) {
                cur = self.unlink(prev, cur, cn_next);
            } else if cur_node.is_reader() {
                prev = &cur_node.next;
                cur = unmark(prev.load(Ordering::Acquire));
            } else {
                // Overlapping live writer: a blocking reader would wait here.
                return Err(to_ptr(cur_node));
            }
        }
    }

    /// Writer validation (Listing 3, `w_validate`): re-scan from the head
    /// until we find our own node; an overlapping node on the way means a
    /// reader raced us, so delete our node and fail.
    fn w_validate(&self, lock_node: &LNode, contended: &mut bool) -> bool {
        let own = to_ptr(lock_node);
        let mut prev: &AtomicU64 = &self.head;
        let mut cur = unmark(prev.load(Ordering::Acquire));
        loop {
            if cur == own {
                return true;
            }
            // SAFETY: Pinned (the caller holds the pin across validation). Our
            // own unmarked node is always reachable from the head, so the
            // traversal cannot fall off the end of the list before finding it.
            let cur_node = match unsafe { deref_node(cur) } {
                None => unreachable!("w_validate fell off the list before finding its own node"),
                Some(n) => n,
            };
            let cn_next = cur_node.next.load(Ordering::Acquire);
            if is_marked(cn_next) {
                cur = self.unlink(prev, cur, cn_next);
            } else if cur_node.end <= lock_node.start {
                prev = &cur_node.next;
                cur = unmark(prev.load(Ordering::Acquire));
            } else {
                // Overlapping node ahead of us in the list: a reader won the
                // race. Leave the list and fail validation; wake anyone that
                // had already started waiting on our published node.
                *contended = true;
                lock_node.mark_deleted();
                self.queue.wake(to_ptr(lock_node));
                return false;
            }
        }
    }
}

/// Applies the mode's `compare` with the end-of-list case folded in.
#[inline]
fn compare_step<M: CompatMode>(cur: Option<&LNode>, lock: &LNode) -> Cmp {
    match cur {
        None => Cmp::CurAfterLock,
        Some(cur) => M::compare(cur, lock),
    }
}

impl<M: CompatMode, P: WaitPolicy> Default for ListCore<M, P> {
    fn default() -> Self {
        Self::with_config(ListLockConfig::default())
    }
}

impl<M: CompatMode, P: WaitPolicy> Drop for ListCore<M, P> {
    fn drop(&mut self) {
        // `&mut self` proves there are no outstanding guards (they borrow the
        // lock), so every node still in the chain can be freed directly.
        let mut cur = unmark(*self.head.get_mut());
        while cur != 0 {
            let ptr = cur as *mut LNode;
            // SAFETY: Exclusive access to the lock; no thread can traverse it.
            let next = unmark(unsafe { (*ptr).next.load(Ordering::Relaxed) });
            // SAFETY: The node is reachable only from this chain.
            unsafe { reclaim::free_node_now(ptr) };
            cur = next;
        }
    }
}

impl<M: CompatMode, P: WaitPolicy> std::fmt::Debug for ListCore<M, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ListCore")
            .field("held_ranges", &self.held_ranges())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_compare_matches_overlap_algebra() {
        let a = LNode::new(Range::new(0, 10), false);
        let probe = |s, e| {
            let b = LNode::new(Range::new(s, e), false);
            Exclusive::compare(&a, &b)
        };
        assert_eq!(probe(10, 20), Cmp::CurBeforeLock); // adjacent after
        assert_eq!(probe(5, 15), Cmp::Conflict);
        let later = LNode::new(Range::new(100, 110), false);
        let b = LNode::new(Range::new(0, 10), false);
        assert_eq!(Exclusive::compare(&later, &b), Cmp::CurAfterLock);
    }

    #[test]
    fn rw_compare_lets_readers_share() {
        let r1 = LNode::new(Range::new(0, 10), true);
        let r2 = LNode::new(Range::new(5, 15), true);
        let w = LNode::new(Range::new(5, 15), false);
        assert_eq!(ReaderWriter::compare(&r1, &r2), Cmp::CurBeforeLock);
        assert_eq!(ReaderWriter::compare(&r1, &w), Cmp::Conflict);
        assert_eq!(ReaderWriter::compare(&w, &r2), Cmp::Conflict);
    }

    #[test]
    fn rw_compare_sees_downgrade() {
        let w = LNode::new(Range::new(0, 10), false);
        let r = LNode::new(Range::new(5, 15), true);
        assert_eq!(ReaderWriter::compare(&w, &r), Cmp::Conflict);
        w.set_reader();
        assert_eq!(ReaderWriter::compare(&w, &r), Cmp::CurBeforeLock);
    }

    #[test]
    fn core_round_trip_both_modes() {
        let ex: ListCore<Exclusive> = ListCore::default();
        let g = ex.acquire(Range::new(0, 10), false);
        assert!(g.took_fast_path());
        assert_eq!(g.range(), Range::new(0, 10));
        // SAFETY: `g` is live, from this core, released exactly once.
        unsafe { ex.release(&g) };
        assert!(ex.is_quiescent());

        let rw: ListCore<ReaderWriter> = ListCore::default();
        let r = rw.acquire(Range::new(0, 10), true);
        assert!(r.is_reader());
        // SAFETY: As above.
        unsafe { rw.release(&r) };
        assert!(rw.is_quiescent());
    }

    #[test]
    fn two_phase_poll_completes_and_blocks() {
        let ex: ListCore<Exclusive> = ListCore::default();
        // Uncontended: the first poll completes via the fast path.
        let mut p = ex.enqueue(Range::new(0, 10), false);
        assert!(!p.is_done());
        assert_eq!(p.range(), Some(Range::new(0, 10)));
        let g = ex.poll_acquire(&mut p).expect("uncontended poll completes");
        assert!(p.is_done());
        assert!(p.range().is_none());
        // Contended: polls return None (and never complete) while the
        // conflicting holder remains.
        let mut p2 = ex.enqueue(Range::new(5, 15), false);
        assert!(ex.poll_acquire(&mut p2).is_none());
        assert!(ex.poll_acquire(&mut p2).is_none());
        assert!(!p2.is_done());
        // SAFETY: `g` is live, from this core, released exactly once.
        unsafe { ex.release(&g) };
        let g2 = ex.poll_acquire(&mut p2).expect("post-release poll");
        // SAFETY: As above.
        unsafe { ex.release(&g2) };
        assert!(ex.is_quiescent());
    }

    #[test]
    fn two_phase_cancel_leaves_no_residue() {
        let ex: ListCore<Exclusive> = ListCore::default();
        let held = ex.acquire(Range::new(0, 10), false);
        let mut p = ex.enqueue(Range::new(5, 15), false);
        assert!(ex.poll_acquire(&mut p).is_none());
        ex.cancel_acquire(&mut p);
        assert!(p.is_done());
        ex.cancel_acquire(&mut p); // idempotent
                                   // SAFETY: `held` is live, from this core, released exactly once.
        unsafe { ex.release(&held) };
        // The abandoned request left nothing behind: the full range is free.
        let full = ex.try_acquire(Range::FULL, false).expect("no residue");
        // SAFETY: As above.
        unsafe { ex.release(&full) };
        assert!(ex.is_quiescent());
    }

    #[test]
    fn two_phase_rw_writer_blocks_on_reader_and_recovers() {
        let rw: ListCore<ReaderWriter> = ListCore::default();
        let r = rw.acquire(Range::new(0, 10), true);
        let mut p = rw.enqueue(Range::new(5, 15), false);
        assert!(rw.poll_acquire(&mut p).is_none());
        // SAFETY: `r` is live, from this core, released exactly once.
        unsafe { rw.release(&r) };
        let w = rw.poll_acquire(&mut p).expect("writer proceeds");
        assert!(!w.is_reader());
        // SAFETY: As above.
        unsafe { rw.release(&w) };
        assert!(rw.is_quiescent());
    }

    #[test]
    fn downgrade_flips_held_node() {
        let rw: ListCore<ReaderWriter> = ListCore::default();
        let w = rw.acquire(Range::new(0, 10), false);
        assert!(!w.is_reader());
        // SAFETY: `w` is live, from this reader-writer-mode core.
        unsafe { rw.downgrade(&w) };
        assert!(w.is_reader());
        // An overlapping reader can now share without the writer releasing.
        let r = rw.try_acquire(Range::new(5, 15), true).expect("shares");
        // SAFETY: `r` and `w` are live, from this core, released once each.
        unsafe { rw.release(&r) };
        unsafe { rw.release(&w) };
        assert!(rw.is_quiescent());
    }
}
