//! Pluggable wait policies: what a lock waiter does while it cannot proceed.
//!
//! The paper's pseudo-code waits by spinning (`Pause()` in a loop), which is
//! the right model on a machine with spare cores — but the kernel locks the
//! range locks replace (`mmap_sem`, the Lustre tree lock) *block* their
//! waiters, and on an oversubscribed machine spinning measures the scheduler
//! instead of the lock. This module makes the waiting strategy a type
//! parameter of every lock in the workspace:
//!
//! * [`Spin`] — pure busy-waiting with exponential backoff, never yields the
//!   CPU. The strongest form of the paper's `Pause()` loop; only honest when
//!   threads ≤ cores.
//! * [`SpinThenYield`] — busy-wait briefly, then interleave
//!   [`std::thread::yield_now`] between polls. The workspace default.
//! * [`Block`] — busy-wait briefly, then **park** on the lock's
//!   [`WaitQueue`] until a release wakes the queue. The user-space analogue
//!   of a futex wait: the kernel-fidelity choice, and the only policy whose
//!   waiters consume no CPU while descheduled.
//!
//! # One wait, one wake
//!
//! Locks own one [`WaitQueue`] each. Every layer has a single wait entry
//! point taking a **key** — the conflict being waited out, or [`KEY_ANY`]
//! when the waiter cannot name one — and an optional **deadline**:
//! [`WaitPolicy::wait`] for sync waiters, [`WaitQueue::park`] underneath
//! it, and [`WaitQueue::register_waker`] for async ones. Release paths call
//! [`WaitQueue::wake`] with the key of the conflict they resolved
//! ([`KEY_ANY`] broadcasts) directly, under every policy: spinning sync
//! waiters poll on their own, but async waiters never spin, whatever the
//! lock's policy. A wake costs one generation bump (fetch-add) plus a
//! handful of loads when no one is waiting. A `None` deadline reads no
//! clock.
//!
//! # Granularity: keyed parking
//!
//! The queue is per lock, but waiting is **per conflict**: waiters that know
//! *which* node or range blocks them park under that address as a key in
//! the queue's sharded [`ShardTable`] (see [`crate::parking`]), and the
//! blocker's release wakes exactly the matching entries — a futex analogue
//! with per-conflict wait words. A release that broadcast instead would
//! cost O(parked waiters) spurious wakeups under heavy disjoint-range
//! parking. The herd survives only where it is wanted: [`KEY_ANY`] wakes
//! serve guard-drop fallbacks and deadlock re-derivation, and [`KEY_ANY`]
//! waits keep every unkeyed call site on the classic eventcount path.
//! Spurious wakeups (woken but re-parked with the predicate still false)
//! are counted either way, so the `spurious_wakeups` column in benchmark
//! reports measures the herd directly.
//!
//! Every wake — keyed or not — bumps the shared generation counter first
//! and notifies the unkeyed population. That is the compatibility contract
//! between the two disciplines: a waiter parked unkeyed (or a future
//! registered unkeyed) can never miss a keyed wake, because the keyed wake
//! performs the full eventcount signal too; the selectivity is that keyed
//! *waiters* are not in the broadcast herd.
//!
//! # Waker slots: one queue, two kinds of waiter
//!
//! A waiter slot holds either a **thread** (parked under [`Block`]) or a
//! [`core::task::Waker`] (registered by an acquisition-future poll, under
//! *any* policy). Keyed waker registrations live in the same keyed slots as
//! thread parkers, so one conflict's release wakes its sync and async
//! waiters together; [`KEY_ANY`] registrations stay on a per-queue vector.
//! Both kinds hang off the same generation counter, so the lost-wakeup
//! argument below covers both.
//!
//! # Lost wakeups
//!
//! [`WaitQueue`] is an eventcount: a generation counter plus a
//! mutex/condvar pair. Unkeyed waiters re-check their predicate with the
//! generation snapshotted under the queue mutex; wakers bump the generation
//! *before* checking for parked waiters (both with sequentially consistent
//! ordering), so either the waker observes the waiter and notifies under
//! the mutex, or the waiter observes the new generation and re-checks its
//! predicate. A wakeup can therefore never fall between a waiter's
//! predicate check and its park.
//!
//! Keyed parking runs the same Dekker-style protocol against the shard
//! table's occupancy instead of the waiter count: the waiter publishes its
//! entry (a sequentially consistent occupancy bump) and only then re-checks
//! its predicate behind a `SeqCst` fence; the releaser publishes the state
//! change, bumps the generation, and only then (behind a `SeqCst` fence)
//! loads the shard occupancy. In the fence order, either the releaser sees
//! the entry and signals it, or the waiter's re-check sees the released
//! state and returns — never neither.
//!
//! Waker registration follows the same protocol, keyed or not: the future
//! snapshots the generation *before* polling the lock, and registration
//! publishes itself **before** re-checking the generation against the
//! snapshot. Either the releaser's bump precedes the future's generation
//! check — registration fails and the caller re-polls the lock, observing
//! the release — or the registration precedes the releaser's occupancy
//! load, which then claims and wakes the waker. Either way the wakeup
//! cannot be lost.
//!
//! # Examples
//!
//! ```
//! use std::sync::atomic::{AtomicBool, Ordering};
//! use std::time::{Duration, Instant};
//! use rl_sync::wait::{Block, WaitPolicy, WaitQueue};
//! use rl_sync::KEY_ANY;
//!
//! let queue = WaitQueue::new();
//! let flag = AtomicBool::new(true); // pretend a release already happened
//! assert!(Block::wait(&queue, KEY_ANY, || flag.load(Ordering::Acquire), None));
//! queue.wake(KEY_ANY); // no waiters: a few atomics, no syscall
//! // Keyed and timed: only a wake of conflict 0x40 (or a broadcast) would
//! // stir this waiter, and it gives up once the deadline passes.
//! let deadline = Some(Instant::now() + Duration::from_millis(10));
//! assert!(Block::wait(&queue, 0x40, || flag.load(Ordering::Acquire), deadline));
//! queue.wake(0x40);
//! ```

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::backoff::Backoff;
use crate::parking::{ShardTable, ThreadParker, KEY_ANY};
use crate::stats::WaitStats;

/// `true` once `deadline` has passed. A `None` deadline never passes and
/// reads no clock.
#[inline]
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|deadline| Instant::now() >= deadline)
}

/// A futex-analogue wait queue owned by a lock instance: an eventcount (for
/// unkeyed waiters) fused with a sharded address-keyed parking table (for
/// waiters that know which conflict blocks them).
///
/// [`WaitQueue::park`] under [`KEY_ANY`] parks until the queue's generation
/// advances; under a real key it parks in the [`ShardTable`] under the
/// conflicting node's address and is woken selectively by
/// [`WaitQueue::wake`] of that key. Every release path of the owning lock
/// calls [`WaitQueue::wake`]. The queue also counts parks, effective wakes,
/// and spurious wakeups so benchmarks can attribute wait time to blocking
/// vs spinning and measure wake herds; the counters are mirrored into an
/// attached [`WaitStats`] when the owning lock has one.
pub struct WaitQueue {
    /// Bumped by every wake (keyed or not); unkeyed waiters park only while
    /// it is unchanged.
    generation: AtomicU64,
    /// Number of threads currently parked under [`KEY_ANY`] (the condvar
    /// population; keyed parkers are tracked by the shard table's occupancy
    /// instead).
    waiters: AtomicU64,
    /// Total individual parks (condvar waits and keyed thread parks) since
    /// construction.
    parks: AtomicU64,
    /// Total wake operations that found at least one waiter to wake.
    wakes: AtomicU64,
    /// Total spurious wakeups: a parked waiter woke, found its predicate
    /// still false, and re-parked. The herd metric.
    spurious: AtomicU64,
    gate: Mutex<()>,
    condvar: Condvar,
    /// The keyed parking table: thread parkers and waker slots filed under
    /// the conflicting node/range address.
    table: ShardTable,
    /// Registered *unkeyed* async waiters, keyed by the slot id of the
    /// owning future.
    ///
    /// A plain vector: a lock rarely has more than a handful of futures
    /// parked on it at once, and registration is off the uncontended fast
    /// path anyway.
    wakers: Mutex<Vec<(u64, Waker)>>,
    /// `wakers.len()`, mirrored outside the mutex with sequentially
    /// consistent stores so release paths can skip the mutex when no future
    /// is registered (see the module-level lost-wakeup argument).
    async_waiters: AtomicU64,
    /// Allocator for waker slot ids.
    next_slot: AtomicU64,
    /// Total successful waker registrations (the async analogue of `parks`).
    waker_regs: AtomicU64,
    /// Total abandoned two-phase acquisitions (futures dropped mid-wait and
    /// expired timeouts).
    cancels: AtomicU64,
    /// Total acquisitions refused with `EDEADLK` by a waits-for cycle check.
    deadlocks: AtomicU64,
    /// Total batched acquisitions that failed partway and rolled back.
    batch_rollbacks: AtomicU64,
    /// Optional mirror for the park/wake counters, attached by the owning
    /// lock's `with_stats` builder before the lock is shared.
    stats: Option<Arc<WaitStats>>,
    /// Lazily-allocated `rl-obs` lock id stamped on every event the owning
    /// lock (and this queue) emits; 0 until first use. Lazy because
    /// [`WaitQueue::new`] is `const`.
    trace_id: AtomicU64,
}

impl WaitQueue {
    /// Creates an empty queue.
    pub const fn new() -> Self {
        WaitQueue {
            generation: AtomicU64::new(0),
            waiters: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            spurious: AtomicU64::new(0),
            gate: Mutex::new(()),
            condvar: Condvar::new(),
            table: ShardTable::new(),
            wakers: Mutex::new(Vec::new()),
            async_waiters: AtomicU64::new(0),
            next_slot: AtomicU64::new(1),
            waker_regs: AtomicU64::new(0),
            cancels: AtomicU64::new(0),
            deadlocks: AtomicU64::new(0),
            batch_rollbacks: AtomicU64::new(0),
            stats: None,
            trace_id: AtomicU64::new(0),
        }
    }

    /// The `rl-obs` lock id events about the owning lock are stamped with,
    /// allocated from the process-global counter on first use. Owning locks
    /// use this as *their* id too, so queue-level events (parks/wakes) and
    /// lock-level events (grants/releases) land on the same trace track.
    pub fn trace_id(&self) -> u64 {
        let id = self.trace_id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let fresh = rl_obs::trace::next_lock_id();
        match self
            .trace_id
            .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => fresh,
            Err(current) => current,
        }
    }

    /// Mirrors this queue's park/wake counters into `stats`.
    ///
    /// Must be called before the queue is shared (it takes `&mut self`),
    /// which is why every lock exposes it through its `with_stats` builder.
    pub fn attach_stats(&mut self, stats: Arc<WaitStats>) {
        self.stats = Some(stats);
    }

    /// Number of individual parks (condvar waits plus keyed thread parks)
    /// so far.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Number of wake operations that found at least one waiter to wake.
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }

    /// Number of spurious wakeups so far: parked waiters that woke, found
    /// their predicate still false, and re-parked. Broadcast wakes herd
    /// O(parked waiters) of these; keyed wakes are built to keep this ~0 on
    /// disjoint-range workloads.
    pub fn spurious_wakeups(&self) -> u64 {
        self.spurious.load(Ordering::Relaxed)
    }

    /// Number of waiters (threads + wakers) currently registered in the
    /// keyed parking table.
    pub fn keyed_waiters(&self) -> u64 {
        self.table.occupancy()
    }

    /// Number of successful [`WaitQueue::register_waker`] calls so far (the
    /// async analogue of [`WaitQueue::parks`]).
    pub fn waker_registrations(&self) -> u64 {
        self.waker_regs.load(Ordering::Relaxed)
    }

    /// Number of abandoned two-phase acquisitions recorded through
    /// [`WaitQueue::record_cancel`].
    pub fn cancels(&self) -> u64 {
        self.cancels.load(Ordering::Relaxed)
    }

    /// Number of acquisitions refused with `EDEADLK`, recorded through
    /// [`WaitQueue::record_deadlock`].
    pub fn deadlocks(&self) -> u64 {
        self.deadlocks.load(Ordering::Relaxed)
    }

    /// Number of rolled-back batched acquisitions, recorded through
    /// [`WaitQueue::record_batch_rollback`].
    pub fn batch_rollbacks(&self) -> u64 {
        self.batch_rollbacks.load(Ordering::Relaxed)
    }

    /// Current generation. Snapshot this **before** polling the condition a
    /// wake would signal, then pass the snapshot to
    /// [`WaitQueue::register_waker`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Allocates a fresh waker slot id for one pending acquisition.
    ///
    /// Slot ids only disambiguate registrations; they hold no resources, so
    /// an id whose future never registers needs no cleanup.
    pub fn alloc_waker_slot(&self) -> u64 {
        self.next_slot.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers (or re-registers) `waker` under `slot`, filed under `key`,
    /// unless the generation has advanced past the `gen` snapshot. A real
    /// key files the waker in the parking table, so only a wake of that key
    /// (or a [`KEY_ANY`] broadcast) wakes it; [`KEY_ANY`] files it on the
    /// unkeyed vector, which every wake drains.
    ///
    /// Returns `false`, leaving nothing registered, when a wake slipped in
    /// between the caller's snapshot and this call; the caller must then
    /// re-poll its condition and retry with a fresh snapshot — that re-poll
    /// is what makes the registration lost-wakeup-free (see the
    /// module-level argument). A future whose blocking conflict *changes*
    /// between polls must deregister its old key
    /// ([`WaitQueue::deregister_waker`]) before registering the new one —
    /// the waker-slot migration path.
    pub fn register_waker(&self, key: u64, slot: u64, gen: u64, waker: &Waker) -> bool {
        // Publish the registration *before* the generation check: in the
        // sequentially consistent total order, either the releaser's bump
        // precedes our check (we fail and re-poll) or our publication
        // precedes the releaser's count/occupancy load (it wakes us).
        let registered = if key == KEY_ANY {
            let mut wakers = self.wakers.lock();
            if let Some((_, w)) = wakers.iter_mut().find(|(id, _)| *id == slot) {
                w.clone_from(waker);
            } else {
                wakers.push((slot, waker.clone()));
            }
            self.async_waiters
                .store(wakers.len() as u64, Ordering::SeqCst);
            if self.generation.load(Ordering::SeqCst) != gen {
                wakers.retain(|(id, _)| *id != slot);
                self.async_waiters
                    .store(wakers.len() as u64, Ordering::SeqCst);
                false
            } else {
                true
            }
        } else {
            self.table.register_waker(key, slot, waker);
            fence(Ordering::SeqCst);
            if self.generation.load(Ordering::SeqCst) != gen {
                self.table.deregister_waker(key, slot);
                false
            } else {
                true
            }
        };
        if registered {
            self.waker_regs.fetch_add(1, Ordering::Relaxed);
            if let Some(stats) = &self.stats {
                stats.record_waker_registration();
            }
        }
        registered
    }

    /// Removes the waker registered for `slot` under `key`, if a wake has
    /// not already claimed it. Called when the owning future resolves,
    /// migrates to another key, or is dropped; idempotent.
    pub fn deregister_waker(&self, key: u64, slot: u64) {
        if key == KEY_ANY {
            let mut wakers = self.wakers.lock();
            wakers.retain(|(id, _)| *id != slot);
            self.async_waiters
                .store(wakers.len() as u64, Ordering::SeqCst);
        } else {
            self.table.deregister_waker(key, slot);
        }
    }

    /// Records one abandoned two-phase acquisition (a dropped acquisition
    /// future or an expired timeout).
    pub fn record_cancel(&self) {
        self.cancels.fetch_add(1, Ordering::Relaxed);
        if let Some(stats) = &self.stats {
            stats.record_cancel();
        }
    }

    /// Records one acquisition refused with `EDEADLK`: a waits-for cycle
    /// check decided that waiting would have closed a cycle. The refused
    /// acquisition also cancels its pending node, so callers record a
    /// [`WaitQueue::record_cancel`] alongside.
    pub fn record_deadlock(&self) {
        self.deadlocks.fetch_add(1, Ordering::Relaxed);
        if let Some(stats) = &self.stats {
            stats.record_deadlock();
        }
    }

    /// Records one batched acquisition (`acquire_many`/`lock_many`) that
    /// failed partway and rolled back every range it had already taken.
    pub fn record_batch_rollback(&self) {
        self.batch_rollbacks.fetch_add(1, Ordering::Relaxed);
        if let Some(stats) = &self.stats {
            stats.record_batch_rollback();
        }
    }

    /// Records one spurious wakeup: a waiter woke and found its predicate
    /// still false.
    fn record_spurious(&self) {
        self.spurious.fetch_add(1, Ordering::Relaxed);
        if let Some(stats) = &self.stats {
            stats.record_spurious_wakeup();
        }
        if rl_obs::trace::is_enabled() {
            rl_obs::trace::emit_here(rl_obs::EventKind::SpuriousWake, self.trace_id(), 0, 0);
        }
    }

    fn record_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
        if let Some(stats) = &self.stats {
            stats.record_park();
        }
        if rl_obs::trace::is_enabled() {
            rl_obs::trace::emit_here(rl_obs::EventKind::Parked, self.trace_id(), 0, 0);
        }
    }

    fn record_woken(&self) {
        if rl_obs::trace::is_enabled() {
            rl_obs::trace::emit_here(rl_obs::EventKind::Woken, self.trace_id(), 0, 0);
        }
    }

    /// Records one wake that found at least one waiter to wake.
    fn record_wake(&self) {
        self.wakes.fetch_add(1, Ordering::Relaxed);
        if let Some(stats) = &self.stats {
            stats.record_wake();
        }
    }

    /// Parks the calling thread until `cond` returns `true` or `deadline`
    /// (if any) passes; returns the final value of `cond`, so a `None`
    /// deadline always returns `true`.
    ///
    /// Under a real `key` — the conflict being waited out, typically the
    /// blocking node's address — the thread parks in the keyed table and
    /// only a [`WaitQueue::wake`] of `key` or a [`KEY_ANY`] broadcast wakes
    /// it; `cond` must become observable before that conflict's release
    /// wakes the key, which every lock's release order (publish state, then
    /// wake) guarantees. Under [`KEY_ANY`] the thread parks on the
    /// eventcount condvar and any wake stirs it.
    ///
    /// `cond` may have side effects (e.g. a CAS that acquires the lock):
    /// once it returns `true` it is not called again.
    pub fn park(&self, key: u64, cond: impl FnMut() -> bool, deadline: Option<Instant>) -> bool {
        if key == KEY_ANY {
            self.park_unkeyed(cond, deadline)
        } else {
            self.park_keyed(key, cond, deadline)
        }
    }

    /// The [`KEY_ANY`] half of [`WaitQueue::park`]: the eventcount wait.
    /// `cond` is re-evaluated under the queue mutex whenever the generation
    /// advances.
    fn park_unkeyed(&self, mut cond: impl FnMut() -> bool, deadline: Option<Instant>) -> bool {
        let mut guard = self.gate.lock();
        // SeqCst pairs with the SeqCst generation bump in the wake paths:
        // either the waker sees our increment, or we see its bump
        // (Dekker-style).
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut woken = false;
        let satisfied = 'outer: loop {
            let generation = self.generation.load(Ordering::SeqCst);
            if cond() {
                break true;
            }
            if woken {
                // Woken by a generation bump but the predicate is still
                // false: the broadcast herd cost, re-parking below.
                self.record_spurious();
                woken = false;
            }
            while self.generation.load(Ordering::SeqCst) == generation {
                match deadline {
                    None => {
                        self.record_park();
                        self.condvar.wait(&mut guard);
                    }
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            // One last look: the deadline racing a wake
                            // must not report failure when the condition in
                            // fact became true.
                            break 'outer cond();
                        }
                        self.record_park();
                        self.condvar.wait_for(&mut guard, deadline - now);
                    }
                }
                self.record_woken();
                woken = true;
            }
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        satisfied
    }

    /// The keyed half of [`WaitQueue::park`]: parks in the shard table
    /// under `key`, off the condvar, so a wake whose keyed shard is
    /// provably empty skips the syscall path.
    fn park_keyed(
        &self,
        key: u64,
        mut cond: impl FnMut() -> bool,
        deadline: Option<Instant>,
    ) -> bool {
        let parker = ThreadParker::new();
        loop {
            parker.reset();
            self.table.register_parker(key, &parker);
            // Publish-then-check (see the module-level keyed protocol):
            // either the releaser's occupancy load sees our entry, or this
            // re-check sees the released state.
            fence(Ordering::SeqCst);
            if cond() {
                self.table.deregister_parker(key, &parker);
                return true;
            }
            if expired(deadline) {
                self.table.deregister_parker(key, &parker);
                // One last look, as in the unkeyed park.
                return cond();
            }
            self.record_park();
            let signaled = match deadline {
                None => {
                    parker.park();
                    true
                }
                Some(deadline) => parker.park_deadline(deadline),
            };
            self.record_woken();
            if !signaled {
                // Expired while registered: withdraw (a racing wake that
                // already claimed the entry makes this a no-op and leaves a
                // stray signal, which the next round's reset absorbs).
                self.table.deregister_parker(key, &parker);
                return cond();
            }
            // The wake that signalled us also claimed (removed) our entry,
            // so the next round re-registers from scratch.
            if cond() {
                return true;
            }
            self.record_spurious();
        }
    }

    /// Wakes the waiters (threads and wakers) parked under `key` — every
    /// keyed waiter when `key` is [`KEY_ANY`] — plus the whole unkeyed
    /// population.
    ///
    /// Every wake bumps the generation and checks the unkeyed counts, so
    /// unkeyed parkers and registrations can never lose a wakeup; the win
    /// of a real key is that keyed waiters under other keys stay parked.
    /// The [`KEY_ANY`] broadcast serves guard-drop herds, deadlock
    /// re-derivation, and every release that cannot name the conflict it
    /// resolved. With nobody waiting this is a fetch-add plus a few loads —
    /// no mutex, no syscall.
    pub fn wake(&self, key: u64) {
        // Bump first so a concurrently registering waiter (parking thread
        // or future, keyed or not) detects the wake even if the occupancy
        // loads below miss its registration.
        self.generation.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let keyed = if key == KEY_ANY {
            self.table.wake_all()
        } else {
            self.table.wake_key(key)
        };
        if keyed > 0 {
            self.record_wake();
        }
        self.notify_unkeyed();
        self.drain_wakers();
    }

    /// Wakes only the *unkeyed* population — condvar parkers and unkeyed
    /// waker registrations — leaving keyed parkers of every conflict
    /// undisturbed.
    ///
    /// For release paths that proved no tracked (keyed) waiter became
    /// eligible but must still nudge barging two-phase pollers, which
    /// register unkeyed because they hold no queue slot in the lock's own
    /// bookkeeping. The generation still advances, so generation-watching
    /// wait loops observe the release.
    pub fn wake_unkeyed(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        self.notify_unkeyed();
        self.drain_wakers();
    }

    /// Notifies the condvar population (unkeyed parkers), if any.
    fn notify_unkeyed(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.record_wake();
            // Taking the gate orders the notification after any waiter that
            // read the old generation has actually parked (or re-checked).
            let _guard = self.gate.lock();
            self.condvar.notify_all();
        }
    }

    /// Wakes and removes every registered unkeyed waker, if any.
    fn drain_wakers(&self) {
        if self.async_waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        let drained: Vec<(u64, Waker)> = {
            let mut wakers = self.wakers.lock();
            let drained = std::mem::take(&mut *wakers);
            self.async_waiters.store(0, Ordering::SeqCst);
            drained
        };
        if !drained.is_empty() {
            self.record_wake();
        }
        // Wake outside the mutex: a waker may run arbitrary executor code.
        for (_, waker) in drained {
            waker.wake();
        }
    }
}

impl Default for WaitQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WaitQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WaitQueue")
            .field("waiters", &self.waiters.load(Ordering::Relaxed))
            .field("keyed_waiters", &self.keyed_waiters())
            .field("parks", &self.parks())
            .field("wakes", &self.wakes())
            .field("spurious", &self.spurious_wakeups())
            .finish()
    }
}

/// How a lock waiter passes the time until its predicate becomes true.
///
/// Implementations are zero-sized strategy types plugged into the locks as a
/// defaulted type parameter (`ListRangeLock<P: WaitPolicy = SpinThenYield>`
/// and friends). All three policies live in this module; downstream crates
/// select one at the type level. The policy only governs *waiting*: release
/// paths call [`WaitQueue::wake`] directly, whatever the policy, because
/// async wakers and keyed parkers must be serviced whether or not the
/// lock's sync waiters spin.
pub trait WaitPolicy: Send + Sync + Default + Copy + std::fmt::Debug + 'static {
    /// Stable short name used by benchmark reports
    /// (`"spin"` / `"spin-yield"` / `"block"`).
    const NAME: &'static str;

    /// Waits until `cond` yields `true` (returning `true`) or `deadline`, if
    /// any, passes first (returning `false`). `queue` is the owning lock's
    /// wake channel and `key` the conflict being waited out ([`KEY_ANY`]
    /// when the waiter cannot name one): spinning policies ignore both,
    /// [`Block`] parks on the queue under `key` so the blocker's release
    /// wakes this waiter selectively. A `None` deadline reads no clock.
    fn wait(
        queue: &WaitQueue,
        key: u64,
        cond: impl FnMut() -> bool,
        deadline: Option<Instant>,
    ) -> bool;
}

/// The backoff loop every policy shares: polls `cond`, checking `deadline`
/// (if any) between polls, and advances the backoff through `step` until
/// `step` returns `false`. Returns `Some(true)` once `cond` holds,
/// `Some(false)` once the deadline passes, and `None` when `step` ended the
/// loop first.
#[inline]
fn backoff_wait(
    cond: &mut impl FnMut() -> bool,
    deadline: Option<Instant>,
    mut step: impl FnMut(&Backoff) -> bool,
) -> Option<bool> {
    let backoff = Backoff::new();
    loop {
        if cond() {
            return Some(true);
        }
        if expired(deadline) {
            return Some(false);
        }
        if !step(&backoff) {
            return None;
        }
    }
}

/// Pure busy-waiting with exponential backoff; never yields the CPU.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Spin;

impl WaitPolicy for Spin {
    const NAME: &'static str = "spin";

    #[inline]
    fn wait(
        _queue: &WaitQueue,
        _key: u64,
        mut cond: impl FnMut() -> bool,
        deadline: Option<Instant>,
    ) -> bool {
        let spin = |backoff: &Backoff| {
            backoff.spin();
            true
        };
        backoff_wait(&mut cond, deadline, spin) == Some(true)
    }
}

/// Busy-wait briefly, then interleave [`std::thread::yield_now`] between
/// polls.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpinThenYield;

impl WaitPolicy for SpinThenYield {
    const NAME: &'static str = "spin-yield";

    #[inline]
    fn wait(
        _queue: &WaitQueue,
        _key: u64,
        mut cond: impl FnMut() -> bool,
        deadline: Option<Instant>,
    ) -> bool {
        let snooze = |backoff: &Backoff| {
            backoff.snooze();
            true
        };
        backoff_wait(&mut cond, deadline, snooze) == Some(true)
    }
}

/// Busy-wait through one backoff ramp, then park on the lock's
/// [`WaitQueue`] until a release wakes it (the futex-style, kernel-fidelity
/// policy). Keyed waits park in the queue's sharded table and are woken
/// per conflict.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Block;

impl WaitPolicy for Block {
    const NAME: &'static str = "block";

    #[inline]
    fn wait(
        queue: &WaitQueue,
        key: u64,
        mut cond: impl FnMut() -> bool,
        deadline: Option<Instant>,
    ) -> bool {
        // Optimistic phase: the holder usually releases within the backoff
        // ramp, in which case we never touch the queue.
        let ramp = |backoff: &Backoff| {
            backoff.snooze();
            !backoff.is_completed()
        };
        match backoff_wait(&mut cond, deadline, ramp) {
            Some(done) => done,
            None => queue.park(key, cond, deadline),
        }
    }
}

/// Runtime selector for the three [`WaitPolicy`] types, used by the
/// benchmark harness to sweep the policy axis from CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPolicyKind {
    /// [`Spin`].
    Spin,
    /// [`SpinThenYield`].
    SpinThenYield,
    /// [`Block`].
    Block,
}

impl WaitPolicyKind {
    /// All policies, in escalation order.
    pub const ALL: [WaitPolicyKind; 3] = [
        WaitPolicyKind::Spin,
        WaitPolicyKind::SpinThenYield,
        WaitPolicyKind::Block,
    ];

    /// Stable short name matching [`WaitPolicy::NAME`].
    pub fn name(self) -> &'static str {
        match self {
            WaitPolicyKind::Spin => Spin::NAME,
            WaitPolicyKind::SpinThenYield => SpinThenYield::NAME,
            WaitPolicyKind::Block => Block::NAME,
        }
    }

    /// Parses a name as printed by [`WaitPolicyKind::name`].
    pub fn parse(name: &str) -> Option<Self> {
        WaitPolicyKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn satisfied_condition_returns_immediately() {
        let queue = WaitQueue::new();
        Spin::wait(&queue, KEY_ANY, || true, None);
        SpinThenYield::wait(&queue, KEY_ANY, || true, None);
        Block::wait(&queue, KEY_ANY, || true, None);
        Block::wait(&queue, 0x40, || true, None);
        assert_eq!(queue.parks(), 0);
        assert_eq!(queue.keyed_waiters(), 0);
    }

    #[test]
    fn block_parks_and_release_wakes() {
        let queue = Arc::new(WaitQueue::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let queue = Arc::clone(&queue);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                Block::wait(&queue, KEY_ANY, || flag.load(Ordering::Acquire), None);
            })
        };
        // Give the waiter long enough to exhaust the backoff ramp and park
        // (the ramp is a few microseconds of spinning).
        while queue.parks() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        flag.store(true, Ordering::Release);
        queue.wake(KEY_ANY);
        waiter.join().unwrap();
        assert!(queue.parks() >= 1);
        assert_eq!(queue.wakes(), 1);
    }

    #[test]
    fn wake_with_no_waiters_is_quiet() {
        let queue = WaitQueue::new();
        for _ in 0..100 {
            queue.wake(KEY_ANY);
            queue.wake(0x40);
        }
        assert_eq!(queue.wakes(), 0);
    }

    #[test]
    fn no_lost_wakeup_under_rapid_handoff() {
        // A writer flips a flag and wakes; the waiter must always observe the
        // flip in bounded time, across many iterations racing the park.
        const ITERS: usize = 2_000;
        let queue = Arc::new(WaitQueue::new());
        let turn = Arc::new(AtomicU64::new(0));
        let waiter = {
            let queue = Arc::clone(&queue);
            let turn = Arc::clone(&turn);
            std::thread::spawn(move || {
                for i in 0..ITERS as u64 {
                    Block::wait(&queue, KEY_ANY, || turn.load(Ordering::Acquire) > i, None);
                }
            })
        };
        for i in 0..ITERS as u64 {
            turn.store(i + 1, Ordering::Release);
            queue.wake(KEY_ANY);
            // Vary the interleaving so some rounds race the park itself.
            if i % 7 == 0 {
                std::thread::yield_now();
            }
        }
        waiter.join().unwrap();
    }

    #[test]
    fn no_lost_wakeup_under_rapid_keyed_handoff() {
        // The keyed analogue: registration racing a keyed wake on the same key
        // must never strand the waiter.
        const ITERS: usize = 2_000;
        const KEY: u64 = 0xA40;
        let queue = Arc::new(WaitQueue::new());
        let turn = Arc::new(AtomicU64::new(0));
        let waiter = {
            let queue = Arc::clone(&queue);
            let turn = Arc::clone(&turn);
            std::thread::spawn(move || {
                for i in 0..ITERS as u64 {
                    Block::wait(&queue, KEY, || turn.load(Ordering::Acquire) > i, None);
                }
            })
        };
        for i in 0..ITERS as u64 {
            turn.store(i + 1, Ordering::Release);
            queue.wake(KEY);
            if i % 7 == 0 {
                std::thread::yield_now();
            }
        }
        waiter.join().unwrap();
    }

    #[test]
    fn keyed_park_ignores_other_keys_and_wakes_on_its_own() {
        let queue = Arc::new(WaitQueue::new());
        let flag = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        let waiter = {
            let queue = Arc::clone(&queue);
            let flag = Arc::clone(&flag);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                queue.park(0x40, || flag.load(Ordering::Acquire), None);
                done.store(true, Ordering::Release);
            })
        };
        while queue.keyed_waiters() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // A wake for an unrelated key must leave the waiter parked (its
        // entry stays in the table) and cost no spurious wakeup.
        queue.wake(0x80);
        std::thread::sleep(Duration::from_millis(5));
        assert!(!done.load(Ordering::Acquire));
        assert_eq!(queue.keyed_waiters(), 1);
        assert_eq!(queue.spurious_wakeups(), 0);
        flag.store(true, Ordering::Release);
        queue.wake(0x40);
        waiter.join().unwrap();
        assert!(done.load(Ordering::Acquire));
        assert_eq!(queue.keyed_waiters(), 0);
        assert_eq!(queue.spurious_wakeups(), 0);
    }

    #[test]
    fn broadcast_wakes_keyed_parker_and_counts_spurious() {
        let queue = Arc::new(WaitQueue::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let queue = Arc::clone(&queue);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                queue.park(0x40, || flag.load(Ordering::Acquire), None);
            })
        };
        while queue.keyed_waiters() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // A broadcast herds the keyed parker awake with its predicate still
        // false — one spurious wakeup, then it re-parks.
        queue.wake(KEY_ANY);
        while queue.spurious_wakeups() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        while queue.keyed_waiters() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        flag.store(true, Ordering::Release);
        queue.wake(KEY_ANY);
        waiter.join().unwrap();
        assert!(queue.spurious_wakeups() >= 1);
    }

    #[test]
    fn unkeyed_herd_wakeups_are_counted_spurious() {
        let queue = Arc::new(WaitQueue::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let queue = Arc::clone(&queue);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                queue.park(KEY_ANY, || flag.load(Ordering::Acquire), None);
            })
        };
        while queue.parks() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Wake without satisfying the predicate: the waiter re-parks and
        // the herd counter ticks.
        queue.wake(KEY_ANY);
        while queue.spurious_wakeups() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        flag.store(true, Ordering::Release);
        queue.wake(KEY_ANY);
        waiter.join().unwrap();
        assert!(queue.spurious_wakeups() >= 1);
    }

    #[test]
    fn park_counters_mirror_into_stats() {
        let stats = Arc::new(WaitStats::new("queue"));
        let mut queue = WaitQueue::new();
        queue.attach_stats(Arc::clone(&stats));
        let queue = Arc::new(queue);
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let queue = Arc::clone(&queue);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                queue.park(KEY_ANY, || flag.load(Ordering::Acquire), None);
            })
        };
        while queue.parks() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Herd it once so the spurious counter mirrors too.
        queue.wake(KEY_ANY);
        while queue.spurious_wakeups() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        flag.store(true, Ordering::Release);
        queue.wake(KEY_ANY);
        waiter.join().unwrap();
        let snap = stats.snapshot();
        assert!(snap.parks >= 1);
        assert!(snap.wakes >= 1);
        assert!(snap.spurious_wakeups >= 1);
        assert_eq!(snap.spurious_wakeups, queue.spurious_wakeups());
    }

    #[test]
    fn kind_round_trips_names() {
        for kind in WaitPolicyKind::ALL {
            assert_eq!(WaitPolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(WaitPolicyKind::parse("nope"), None);
        assert_eq!(WaitPolicyKind::Block.name(), "block");
    }

    #[test]
    fn queue_debug_lists_counters() {
        let queue = WaitQueue::default();
        let s = format!("{queue:?}");
        assert!(s.contains("parks"));
        assert!(s.contains("spurious"));
    }

    /// Waker that counts deliveries, for driving the registration protocol
    /// by hand.
    struct CountingWaker(AtomicU64);

    impl std::task::Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWaker>, Waker) {
        let count = Arc::new(CountingWaker(AtomicU64::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        (count, waker)
    }

    #[test]
    fn registered_waker_is_woken_by_repeated_wakes() {
        for _ in 0..2 {
            let queue = WaitQueue::new();
            let (count, waker) = counting_waker();
            let slot = queue.alloc_waker_slot();
            let gen = queue.generation();
            assert!(queue.register_waker(KEY_ANY, slot, gen, &waker));
            assert_eq!(queue.waker_registrations(), 1);
            queue.wake(KEY_ANY);
            assert_eq!(count.0.load(Ordering::SeqCst), 1);
            // The drain removed the registration: waking again is a no-op.
            queue.wake(KEY_ANY);
            assert_eq!(count.0.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn stale_generation_registration_is_refused() {
        let queue = WaitQueue::new();
        let (count, waker) = counting_waker();
        let slot = queue.alloc_waker_slot();
        let gen = queue.generation();
        queue.wake(KEY_ANY); // a wake slips in between snapshot and register
        assert!(!queue.register_waker(KEY_ANY, slot, gen, &waker));
        // The refused registration left nothing behind.
        queue.wake(KEY_ANY);
        assert_eq!(count.0.load(Ordering::SeqCst), 0);
        assert_eq!(queue.waker_registrations(), 0);
    }

    #[test]
    fn keyed_waker_is_woken_only_by_its_key_or_broadcast() {
        let queue = WaitQueue::new();
        let (count, waker) = counting_waker();
        let slot = queue.alloc_waker_slot();
        assert!(queue.register_waker(0x40, slot, queue.generation(), &waker));
        assert_eq!(queue.waker_registrations(), 1);
        // A wake for a different key leaves the keyed waker registered.
        queue.wake(0x80);
        assert_eq!(count.0.load(Ordering::SeqCst), 0);
        assert_eq!(queue.keyed_waiters(), 1);
        // Its own key wakes (and claims) it.
        queue.wake(0x40);
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
        assert_eq!(queue.keyed_waiters(), 0);
        // Re-register, then a broadcast claims it too.
        let (count2, waker2) = counting_waker();
        assert!(queue.register_waker(0x40, slot, queue.generation(), &waker2));
        queue.wake(KEY_ANY);
        assert_eq!(count2.0.load(Ordering::SeqCst), 1);
        assert_eq!(queue.keyed_waiters(), 0);
    }

    #[test]
    fn stale_keyed_registration_is_refused_and_migration_rehomes_slots() {
        let queue = WaitQueue::new();
        let (count, waker) = counting_waker();
        let slot = queue.alloc_waker_slot();
        let gen = queue.generation();
        queue.wake(0x80); // unrelated key, but every wake bumps the generation
        assert!(!queue.register_waker(0x40, slot, gen, &waker));
        assert_eq!(queue.keyed_waiters(), 0);
        // Migration: register under one conflict, move to another (as a
        // future does when re-polling finds a different blocker).
        assert!(queue.register_waker(0x40, slot, queue.generation(), &waker));
        queue.deregister_waker(0x40, slot);
        assert!(queue.register_waker(0x80, slot, queue.generation(), &waker));
        queue.wake(0x40);
        assert_eq!(count.0.load(Ordering::SeqCst), 0, "old key must be empty");
        queue.wake(0x80);
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn reregistration_replaces_and_deregistration_removes() {
        let queue = WaitQueue::new();
        let (count_a, waker_a) = counting_waker();
        let (count_b, waker_b) = counting_waker();
        let slot = queue.alloc_waker_slot();
        assert!(queue.register_waker(KEY_ANY, slot, queue.generation(), &waker_a));
        // Re-registering the same slot replaces the waker (one slot, one
        // pending acquisition).
        assert!(queue.register_waker(KEY_ANY, slot, queue.generation(), &waker_b));
        queue.deregister_waker(KEY_ANY, slot);
        queue.wake(KEY_ANY);
        assert_eq!(count_a.0.load(Ordering::SeqCst), 0);
        assert_eq!(count_b.0.load(Ordering::SeqCst), 0);

        queue.record_cancel();
        assert_eq!(queue.cancels(), 1);
    }

    #[test]
    fn deadlock_and_rollback_counters_mirror_into_stats() {
        let stats = Arc::new(WaitStats::new("queue"));
        let mut queue = WaitQueue::new();
        queue.attach_stats(Arc::clone(&stats));
        queue.record_deadlock();
        queue.record_batch_rollback();
        queue.record_batch_rollback();
        assert_eq!(queue.deadlocks(), 1);
        assert_eq!(queue.batch_rollbacks(), 2);
        let snap = stats.snapshot();
        assert_eq!(snap.deadlocks_detected, 1);
        assert_eq!(snap.batch_rollbacks, 2);
    }

    #[test]
    fn spinning_wakes_deliver_to_wakers() {
        // A future waiting on a spin-policy lock must still be woken by its
        // release hook: releases wake the queue whatever the policy.
        fn hook<P: WaitPolicy>() {
            let sem = crate::RwSemaphore::<P>::with_policy();
            let guard = sem.write();
            let queue = sem.wait_queue();
            let (count, waker) = counting_waker();
            let slot = queue.alloc_waker_slot();
            assert!(queue.register_waker(KEY_ANY, slot, queue.generation(), &waker));
            drop(guard);
            assert_eq!(count.0.load(Ordering::SeqCst), 1, "{}", P::NAME);
        }
        hook::<Spin>();
        hook::<SpinThenYield>();
    }

    #[test]
    fn keyed_wakes_deliver_to_unkeyed_wakers_under_every_policy() {
        // The compatibility contract: a keyed wake still services the
        // unkeyed population. A semaphore read release wakes only the
        // writer class key, and must still reach an unkeyed waker.
        fn hook<P: WaitPolicy>() {
            let sem = crate::RwSemaphore::<P>::with_policy();
            let guard = sem.read();
            let queue = sem.wait_queue();
            let (count, waker) = counting_waker();
            let slot = queue.alloc_waker_slot();
            assert!(queue.register_waker(KEY_ANY, slot, queue.generation(), &waker));
            drop(guard);
            assert_eq!(count.0.load(Ordering::SeqCst), 1, "{}", P::NAME);
        }
        hook::<Spin>();
        hook::<SpinThenYield>();
        hook::<Block>();
    }

    #[test]
    fn deadline_park_times_out_and_reports_late_success() {
        // `WaitQueue::park` over key × deadline: a satisfied condition
        // returns `true` at once, an unsatisfiable one returns `false` once
        // the deadline passes, a satisfied condition still wins over that
        // now-expired deadline (the condition is checked first), and no
        // case leaves a keyed entry behind.
        for key in [KEY_ANY, 0x40] {
            for timed in [false, true] {
                let queue = WaitQueue::new();
                let deadline = timed.then(|| Instant::now() + Duration::from_millis(10));
                let case = format!("key={key:#x} timed={timed}");
                assert!(queue.park(key, || true, deadline), "{case}");
                if let Some(at) = deadline {
                    assert!(!queue.park(key, || false, deadline), "{case}");
                    assert!(Instant::now() >= at, "{case}");
                    assert!(queue.park(key, || true, deadline), "{case} expired");
                }
                assert_eq!(queue.keyed_waiters(), 0, "{case}");
            }
        }
    }

    #[test]
    fn deadline_park_is_woken_before_the_deadline() {
        let queue = Arc::new(WaitQueue::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let queue = Arc::clone(&queue);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(60);
                queue.park(KEY_ANY, || flag.load(Ordering::Acquire), Some(deadline))
            })
        };
        while queue.parks() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        flag.store(true, Ordering::Release);
        queue.wake(KEY_ANY);
        // Must return well before the 60s deadline, reporting success.
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn keyed_deadline_park_is_woken_by_its_key() {
        let queue = Arc::new(WaitQueue::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let queue = Arc::clone(&queue);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(60);
                queue.park(0x40, || flag.load(Ordering::Acquire), Some(deadline))
            })
        };
        while queue.keyed_waiters() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        flag.store(true, Ordering::Release);
        queue.wake(0x40);
        assert!(waiter.join().unwrap());
        // The keyed deadline parker never sat on the condvar, so the wake
        // above should not have had to notify it: no unkeyed waiters ever.
        assert_eq!(queue.keyed_waiters(), 0);
    }

    #[test]
    fn every_policy_honors_wait_until_deadline() {
        // `P::wait` over policy × key × deadline, with the same contract as
        // `WaitQueue::park`, including a satisfied condition winning over
        // an already-expired deadline.
        fn check<P: WaitPolicy>() {
            for key in [KEY_ANY, 0x40] {
                for timed in [false, true] {
                    let queue = WaitQueue::new();
                    let deadline = timed.then(|| Instant::now() + Duration::from_millis(5));
                    let case = format!("{} key={key:#x} timed={timed}", P::NAME);
                    assert!(P::wait(&queue, key, || true, deadline), "{case}");
                    if let Some(at) = deadline {
                        assert!(!P::wait(&queue, key, || false, deadline), "{case}");
                        assert!(Instant::now() >= at, "{case}");
                        assert!(P::wait(&queue, key, || true, deadline), "{case} expired");
                    }
                    assert_eq!(queue.keyed_waiters(), 0, "{case}");
                }
            }
        }
        check::<Spin>();
        check::<SpinThenYield>();
        check::<Block>();
    }
}
