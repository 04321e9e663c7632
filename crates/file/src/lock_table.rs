//! A POSIX `fcntl`-style byte-range lock table layered over any
//! [`RwRangeLock`].
//!
//! The paper's range locks hand out RAII guards: one guard, one range, one
//! mode, released on drop. File systems expose a different contract —
//! `fcntl(F_SETLK)` — in which a named **owner** accumulates a set of byte
//! ranges per file, and re-locking by the same owner *replaces* whatever that
//! owner held over the affected bytes:
//!
//! * locking the middle of a held range **splits** it;
//! * locking across two adjacent held ranges **merges** them;
//! * re-locking in the other mode **upgrades** (shared → exclusive) or
//!   **downgrades** (exclusive → shared) the affected bytes;
//! * unlocking is just "replace with nothing";
//! * dropping the owner releases everything it still holds.
//!
//! [`LockTable`] implements that contract *on top of* the generic
//! [`RwRangeLock`] trait, so the same table runs over the paper's
//! `RwListRangeLock`, the kernel's `kernel-rw` tree lock, or the `pnova-rw`
//! segment lock interchangeably — the underlying lock remains the one and
//! only exclusion mechanism between owners.
//!
//! The table also inherits the underlying lock's **wait policy**: over
//! `RwListRangeLock<Block>` a blocked `lock()` call parks on the lock's wait
//! queue (instead of spinning), and every release that can unblock it —
//! including the release-everything of an [`LockOwner`] drop — wakes that
//! queue through the lock's release hooks. That is what makes the in-kernel
//! `fcntl` behaviour (sleeping waiters, wake on unlock or owner exit)
//! faithful here on oversubscribed machines.
//!
//! # How records map onto the underlying lock
//!
//! Every committed record (one owner, one range, one mode) is backed by one
//! or more **tiles**: held guards of the underlying lock whose ranges are
//! disjoint and exactly cover the record. Two conflicting records can
//! therefore never coexist: their backing guards would conflict. Re-lock
//! operations detach the owner's overlapping records, keep the tiles that lie
//! entirely outside the re-locked span, release the rest, and acquire fresh
//! guards for the gaps and the new span — in ascending range order, which
//! keeps concurrent multi-piece transactions from deadlocking against each
//! other.
//!
//! # Fidelity caveats (vs. an in-kernel `fcntl`)
//!
//! * **Re-lock and partial unlock are not atomic.** The kernel edits its
//!   lock list under one spinlock; a guard-based composition must release a
//!   guard before it can re-acquire a sub-range or the other mode, so a
//!   waiting owner can slip in between the release and the re-acquisition
//!   (POSIX itself warns that an upgrade may block and that the old lock may
//!   be lost when it does). The same window applies to the *retained edges*
//!   of a split: unlocking the middle of a held range re-acquires the two
//!   ends, and a queued waiter can seize an end first — the unlock then
//!   waits for it, and the owner's exclusion over that edge has a gap.
//!   **Exception — blocking downgrades:** a blocking exclusive→shared
//!   re-lock (`lock`) keeps every exclusive tile that lies entirely inside
//!   the re-locked span *held*, flipping it in place through
//!   [`RwRangeLock::downgrade`] when the underlying lock supports it (the
//!   list lock does; so do the exclusive-only locks, trivially).
//!   Those bytes stay continuously protected: no other writer can slip in,
//!   exactly as in the kernel. Locks without downgrade support (e.g.
//!   `kernel-rw`) fall back to the release-and-re-acquire path with its
//!   usual window, as does a non-blocking `try_lock` — its rollback must be
//!   able to restore the original records, which a premature downgrade
//!   would have already weakened.
//! * **`try_lock` is non-blocking only for the requested span.** The
//!   conflict *decision* never waits: a request that conflicts with a
//!   committed record fails immediately, leaving the table unchanged. But a
//!   request that is granted — or that loses a bounded-acquisition race to
//!   an uncommitted transaction — may still wait while re-establishing the
//!   owner's retained coverage (split edges, rollback of the originals),
//!   exactly as in the previous bullet.
//! * **`try_lock` conflict checks are table-level.** A conflicting guard held
//!   by an owner whose transaction has not committed yet is detected by the
//!   underlying lock's bounded `try_*` acquisition instead, and reported
//!   without a conflicting-owner name.
//! * **`EDEADLK` detection is best-effort, exactly as POSIX specifies.**
//!   Before waiting — and periodically while waiting — a blocking `lock()`
//!   derives the set of owners whose *committed* records conflict with the
//!   requested span and registers those edges in a table-wide waits-for
//!   graph; an acquisition whose edges would close a cycle fails fast with
//!   [`DeadlockError`] instead of parking. SUSv4 only requires detection
//!   "as far as the implementation can determine", and that is the contract
//!   here: a wait that blocks on an *uncommitted* transaction's guard has no
//!   visible holder and contributes no edge, so such a cycle is detected
//!   only once the transaction commits (every commit wakes the lock's
//!   waiters, which re-derive their edges on wake — async — or on a short
//!   recheck interval — sync), and a conservatively derived edge can flag a
//!   cycle that a lucky scheduling would have dissolved. The gap and
//!   rollback acquisitions that restore coverage an owner already held are
//!   *not* checked — they re-take spans the owner released moments earlier.
//!   Over an exclusive-only lock, overlapping *shared* records
//!   conflict too ([`RwRangeLock::readers_share`] is `false`), and the edge
//!   derivation accounts for it — a reader parked behind a reader is a real
//!   wait there and can complete a real cycle.
//!
//! # Atomic multi-range acquisition
//!
//! [`LockOwner::lock_many`] (and its `try_` / `async` forms) applies a batch
//! of disjoint `(range, mode)` items **all-or-nothing**: the items are
//! applied in ascending address order — the same ordered-acquisition
//! discipline every multi-piece transaction in this table follows, so two
//! batches cannot deadlock *against each other* — and a failure part-way
//! through (an `EDEADLK` against a non-batch waiter, or a conflict for the
//! non-blocking form) unlocks the spans the batch had already taken and
//! re-establishes the owner's pre-batch records before the error is
//! returned. Rollback re-acquisition is blocking and, for the blocking form,
//! itself deadlock-checked: an original that can no longer be restored
//! without closing a cycle is skipped, exactly as a blocked POSIX upgrade
//! loses its old lock.
//!
//! # Granularity requirement
//!
//! The table backs each record with guards of *exactly* the record's range,
//! so the underlying lock must serialize only **truly overlapping** ranges —
//! true for the list locks and the tree locks. A false-sharing lock such as
//! `pnova-rw` conflicts at segment granularity: two disjoint records in the
//! same segment would need two same-segment guards, which that lock cannot
//! hold at once (a split would self-deadlock). `pnova-rw` therefore works
//! under this table exactly when every locked range is segment-aligned — the
//! same granularity contract pNOVA itself imposes — and the model tests
//! exercise it at that alignment.

use std::collections::HashMap;
use std::fmt;
use std::future::Future;
use std::mem;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Poll;
use std::time::{Duration, Instant};

use range_lock::{Range, RwRangeLock, TwoPhaseRwRangeLock, WaitGraph};
use rl_sync::KEY_ANY;

/// How long a blocked synchronous acquisition waits before re-deriving its
/// waits-for edges. Bounds the detection latency of a cycle whose closing
/// record was committed *after* this waiter last looked.
const DEADLOCK_RECHECK: Duration = Duration::from_millis(1);

/// The two POSIX lock modes (`F_RDLCK` / `F_WRLCK`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (read) lock: shared-shared pairs do not conflict.
    Shared,
    /// Exclusive (write) lock: conflicts with everything overlapping.
    Exclusive,
}

impl LockMode {
    /// Returns `true` if two overlapping ranges in these modes conflict.
    pub fn conflicts_with(self, other: LockMode) -> bool {
        !(self == LockMode::Shared && other == LockMode::Shared)
    }

    /// Stable short name (`"shared"` / `"exclusive"`).
    pub fn name(self) -> &'static str {
        match self {
            LockMode::Shared => "shared",
            LockMode::Exclusive => "exclusive",
        }
    }
}

/// A snapshot of one committed lock-table record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockRecord {
    /// Name of the owner holding the record.
    pub owner: String,
    /// The locked byte range.
    pub range: Range,
    /// The mode the range is held in.
    pub mode: LockMode,
}

/// Error returned by [`LockOwner::try_lock`] when the request would have to
/// wait (the `EAGAIN` of `fcntl(F_SETLK)`).
#[derive(Debug, Clone)]
pub struct WouldBlock {
    /// The committed record the request conflicted with, when one was
    /// identifiable at check time (the `F_GETLK` answer). `None` means the
    /// bounded acquisition lost to a transaction that had not committed yet.
    pub conflict: Option<LockRecord>,
}

impl fmt::Display for WouldBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.conflict {
            Some(rec) => write!(
                f,
                "would block: [{}, {}) held {} by owner \"{}\"",
                rec.range.start,
                rec.range.end,
                rec.mode.name(),
                rec.owner
            ),
            None => write!(f, "would block: lost a bounded acquisition race"),
        }
    }
}

impl std::error::Error for WouldBlock {}

/// Error returned by the blocking acquisitions ([`LockOwner::lock`],
/// [`LockOwner::lock_async`], [`LockOwner::lock_many`]) when waiting would
/// close a cycle of owners — the `EDEADLK` of `fcntl(F_SETLKW)`.
///
/// Detection is best-effort, as POSIX allows; see the fidelity caveats in
/// the [module documentation](self). The table is left as if the failing
/// call had not been made (for `lock_many`, as if the *batch* had not been
/// made, up to the rollback caveat documented there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockError {
    /// Owner names along the detected cycle, closing back on the first
    /// (e.g. `["alice", "bob", "alice"]`). An owner released between
    /// detection and formatting appears as `"owner-<id>"`.
    pub cycle: Vec<String>,
    /// Graphviz DOT dump of the waits-for graph at detection time, with the
    /// cycle highlighted; see [`DeadlockError::waits_dot`].
    waits_dot: String,
}

impl DeadlockError {
    /// The waits-for graph at detection time as Graphviz DOT source: one
    /// box per waiting owner, one edge per waits-for dependency, the
    /// detected cycle in red. Pipe it to `dot -Tsvg` to see who was stuck
    /// on whom when the acquisition was refused.
    pub fn waits_dot(&self) -> &str {
        &self.waits_dot
    }
}

impl fmt::Display for DeadlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resource deadlock would occur (EDEADLK): {}",
            self.cycle.join(" -> ")
        )
    }
}

impl std::error::Error for DeadlockError {}

/// Internal failure of one `set_lock` transaction: the non-blocking form
/// fails with `EAGAIN`, the blocking form with `EDEADLK`; neither form can
/// produce the other's error.
enum SetLockError {
    WouldBlock(WouldBlock),
    Deadlock(DeadlockError),
}

/// Erases a guard's borrow lifetime to `'static`.
///
/// # Safety
///
/// `Src` and `Dst` must be the *same* type up to lifetimes (enforced only by
/// the size assertion below), and the caller must guarantee that whatever the
/// guard borrows outlives the erased value. [`LockTable`] guarantees it by
/// keeping the underlying lock in a stable heap allocation that is freed only
/// after every record (and therefore every guard) has been dropped.
unsafe fn erase_lifetime<Src, Dst>(guard: Src) -> Dst {
    assert_eq!(mem::size_of::<Src>(), mem::size_of::<Dst>());
    // SAFETY: Same layout per the contract above; the original is forgotten
    // so exactly one live value remains.
    let erased = unsafe { mem::transmute_copy::<Src, Dst>(&guard) };
    mem::forget(guard);
    erased
}

/// One record shape of a transaction's post-commit layout.
struct Shape {
    range: Range,
    mode: LockMode,
    is_target: bool,
}

/// The working set of one re-lock transaction, computed under the table
/// mutex by `LockTable::plan_set_lock` and executed by the (sync or async)
/// phase B.
struct Plan<L: RwRangeLock + 'static> {
    /// Tiles that survive the transaction (outside the target, or downgraded
    /// in place).
    kept: Vec<Tile<L>>,
    /// Record shapes to commit.
    shapes: Vec<Shape>,
    /// Guard gaps to acquire, ascending: `(range, mode, is_target)`.
    need: Vec<(Range, LockMode, bool)>,
    /// Original `(range, mode)` records, for the non-blocking rollback.
    originals: Vec<(Range, LockMode)>,
}

/// A held guard of the underlying lock, in either mode.
enum ModeGuard<L: RwRangeLock + 'static> {
    Read(L::ReadGuard<'static>),
    Write(L::WriteGuard<'static>),
}

/// One guard plus the range it covers. A record is backed by a set of tiles
/// that exactly cover its range.
struct Tile<L: RwRangeLock + 'static> {
    range: Range,
    /// Held for its Drop impl; read only by the downgrade path.
    guard: ModeGuard<L>,
}

/// One committed (owner, range, mode) entry.
struct Record<L: RwRangeLock + 'static> {
    range: Range,
    mode: LockMode,
    /// Disjoint, sorted, and exactly covering `range`.
    tiles: Vec<Tile<L>>,
}

struct OwnerState<L: RwRangeLock + 'static> {
    name: String,
    /// `rl-obs` actor id this owner's lock events are stamped with.
    actor: u64,
    /// Sorted by start; pairwise disjoint.
    records: Vec<Record<L>>,
}

struct TableState<L: RwRangeLock + 'static> {
    owners: HashMap<u64, OwnerState<L>>,
}

/// A per-file POSIX-style byte-range lock table over an [`RwRangeLock`].
///
/// See the [module documentation](self) for the semantics. Construct one per
/// file, wrap it in an [`Arc`], and hand out [`LockOwner`] handles.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use range_lock::{Range, RwListRangeLock};
/// use rl_file::{LockMode, LockTable};
///
/// let table = Arc::new(LockTable::new(RwListRangeLock::new()));
/// let mut alice = table.owner("alice");
/// let mut bob = table.owner("bob");
///
/// alice.lock(Range::new(0, 100), LockMode::Shared);
/// bob.lock(Range::new(0, 100), LockMode::Shared); // shared locks coexist
/// assert!(bob.try_lock(Range::new(50, 60), LockMode::Exclusive).is_err());
///
/// drop(bob); // releases everything bob held
/// alice.lock(Range::new(40, 60), LockMode::Exclusive); // split + upgrade
/// assert_eq!(table.held_records(), 3);
/// ```
pub struct LockTable<L: TwoPhaseRwRangeLock + 'static> {
    /// Declared (and therefore dropped) before `lock` is freed.
    state: Mutex<TableState<L>>,
    /// Waits-for edges between blocked owners and the committed-record
    /// holders blocking them; cycle-checked on every (re-)registration.
    waits: WaitGraph,
    next_owner: AtomicU64,
    /// Heap allocation with a stable address; guards stored in `state` borrow
    /// it with an erased lifetime. Freed manually in `Drop`, strictly after
    /// `state` has been cleared.
    lock: *mut L,
}

// SAFETY: The raw pointer is a uniquely owned heap allocation (a leaked Box)
// that only `Drop` frees; shared access to the lock itself is safe because
// `RwRangeLock` requires `Send + Sync`. The table additionally stores guards,
// which cross threads when records are committed or released, hence the guard
// `Send` bounds.
unsafe impl<L> Send for LockTable<L>
where
    L: TwoPhaseRwRangeLock + 'static,
    L::ReadGuard<'static>: Send,
    L::WriteGuard<'static>: Send,
{
}

// SAFETY: See the `Send` justification; all interior mutability is behind the
// `Mutex`.
unsafe impl<L> Sync for LockTable<L>
where
    L: TwoPhaseRwRangeLock + 'static,
    L::ReadGuard<'static>: Send,
    L::WriteGuard<'static>: Send,
{
}

impl<L: TwoPhaseRwRangeLock + 'static> LockTable<L> {
    /// Creates a table over `lock`; the table becomes the lock's only user.
    pub fn new(lock: L) -> Self {
        LockTable {
            state: Mutex::new(TableState {
                owners: HashMap::new(),
            }),
            waits: WaitGraph::new(),
            next_owner: AtomicU64::new(1),
            lock: Box::into_raw(Box::new(lock)),
        }
    }

    fn lock_ref(&self) -> &L {
        // SAFETY: `self.lock` is a live heap allocation until `Drop`.
        unsafe { &*self.lock }
    }

    /// Short name of the underlying lock (`"list-rw"`, `"kernel-rw"`, …).
    pub fn lock_name(&self) -> &'static str {
        self.lock_ref().name()
    }

    /// Registers a new owner. Dropping the handle releases every range the
    /// owner still holds.
    pub fn owner(self: &Arc<Self>, name: impl Into<String>) -> LockOwner<L> {
        let name = name.into();
        let id = self.next_owner.fetch_add(1, Ordering::Relaxed);
        let actor = rl_obs::trace::next_actor_id();
        rl_obs::trace::label_actor(actor, &name);
        self.state.lock().unwrap().owners.insert(
            id,
            OwnerState {
                name: name.clone(),
                actor,
                records: Vec::new(),
            },
        );
        LockOwner {
            table: Arc::clone(self),
            id,
            name,
        }
    }

    /// The `rl-obs` actor id registered for `owner_id` (0 if released).
    fn owner_actor(&self, owner_id: u64) -> u64 {
        let st = self.state.lock().unwrap();
        st.owners.get(&owner_id).map_or(0, |o| o.actor)
    }

    /// Snapshot of every committed record, sorted by (owner, start).
    pub fn records(&self) -> Vec<LockRecord> {
        let st = self.state.lock().unwrap();
        let mut out: Vec<LockRecord> = st
            .owners
            .values()
            .flat_map(|o| {
                o.records.iter().map(|r| LockRecord {
                    owner: o.name.clone(),
                    range: r.range,
                    mode: r.mode,
                })
            })
            .collect();
        out.sort_by(|a, b| (&a.owner, a.range.start).cmp(&(&b.owner, b.range.start)));
        out
    }

    /// Number of committed records across all owners.
    pub fn held_records(&self) -> usize {
        let st = self.state.lock().unwrap();
        st.owners.values().map(|o| o.records.len()).sum()
    }

    /// Panics if a structural invariant is violated: per-owner records must
    /// be sorted, disjoint, and non-empty, and each record's tiles must be
    /// sorted, disjoint, and exactly cover the record. Used by the model
    /// tests; cheap enough to call after every operation.
    pub fn check_invariants(&self) {
        let st = self.state.lock().unwrap();
        for owner in st.owners.values() {
            let mut prev_end: Option<u64> = None;
            for rec in &owner.records {
                assert!(
                    !rec.range.is_empty(),
                    "owner {}: empty record {:?}",
                    owner.name,
                    rec.range
                );
                if let Some(end) = prev_end {
                    assert!(
                        rec.range.start >= end,
                        "owner {}: records out of order or overlapping at {:?}",
                        owner.name,
                        rec.range
                    );
                }
                prev_end = Some(rec.range.end);
                let mut cursor = rec.range.start;
                for tile in &rec.tiles {
                    assert_eq!(
                        tile.range.start, cursor,
                        "owner {}: tile gap in record {:?}",
                        owner.name, rec.range
                    );
                    cursor = tile.range.end;
                }
                assert_eq!(
                    cursor, rec.range.end,
                    "owner {}: tiles do not cover record {:?}",
                    owner.name, rec.range
                );
            }
        }
    }

    /// Returns the first committed record of *another* owner that conflicts
    /// with locking `range` in `mode` — the `F_GETLK` answer — or `None` if
    /// the request would succeed against the committed table.
    fn conflicting_record(
        st: &TableState<L>,
        owner_id: u64,
        range: Range,
        mode: LockMode,
    ) -> Option<LockRecord> {
        for (&id, owner) in &st.owners {
            if id == owner_id {
                continue;
            }
            for rec in &owner.records {
                if rec.range.overlaps(&range) && mode.conflicts_with(rec.mode) {
                    return Some(LockRecord {
                        owner: owner.name.clone(),
                        range: rec.range,
                        mode: rec.mode,
                    });
                }
            }
        }
        None
    }

    fn acquire_tile(&self, range: Range, mode: LockMode) -> Tile<L> {
        let lock = self.lock_ref();
        let guard = match mode {
            LockMode::Shared => {
                let g = lock.read(range);
                // SAFETY: `g` borrows the heap lock, which outlives every
                // tile (see `erase_lifetime` and the `Drop` impl).
                ModeGuard::Read(unsafe {
                    erase_lifetime::<L::ReadGuard<'_>, L::ReadGuard<'static>>(g)
                })
            }
            LockMode::Exclusive => {
                let g = lock.write(range);
                // SAFETY: As above.
                ModeGuard::Write(unsafe {
                    erase_lifetime::<L::WriteGuard<'_>, L::WriteGuard<'static>>(g)
                })
            }
        };
        Tile { range, guard }
    }

    /// Converts a tile that lies inside a shared-mode target into a read
    /// tile *without releasing it* when possible: read tiles pass through
    /// unchanged, write tiles are atomically downgraded when the underlying
    /// lock supports it. `Err(())` means the write guard had to be released
    /// (no downgrade support) and the span must be re-acquired as a gap.
    fn downgrade_tile(&self, tile: Tile<L>) -> Result<Tile<L>, ()> {
        match tile.guard {
            ModeGuard::Read(_) => Ok(tile),
            ModeGuard::Write(guard) => {
                // SAFETY: The lock is a stable heap allocation freed only
                // after every guard has been dropped (see `erase_lifetime`
                // and `Drop`), so a `'static` borrow matches the guards'
                // already-erased lifetimes.
                let lock: &'static L = unsafe { &*self.lock };
                match lock.downgrade(guard) {
                    Ok(read) => Ok(Tile {
                        range: tile.range,
                        guard: ModeGuard::Read(read),
                    }),
                    Err(write) => {
                        drop(write);
                        Err(())
                    }
                }
            }
        }
    }

    fn try_acquire_tile(&self, range: Range, mode: LockMode) -> Option<Tile<L>> {
        let lock = self.lock_ref();
        let guard = match mode {
            LockMode::Shared => {
                let g = lock.try_read(range)?;
                // SAFETY: As in `acquire_tile`.
                ModeGuard::Read(unsafe {
                    erase_lifetime::<L::ReadGuard<'_>, L::ReadGuard<'static>>(g)
                })
            }
            LockMode::Exclusive => {
                let g = lock.try_write(range)?;
                // SAFETY: As in `acquire_tile`.
                ModeGuard::Write(unsafe {
                    erase_lifetime::<L::WriteGuard<'_>, L::WriteGuard<'static>>(g)
                })
            }
        };
        Some(Tile { range, guard })
    }

    /// Re-inserts records for `owner_id` and coalesces adjacent same-mode
    /// records (POSIX merges touching locks of equal type).
    fn commit(&self, owner_id: u64, mut new_records: Vec<Record<L>>) {
        {
            let mut st = self.state.lock().unwrap();
            let owner = st
                .owners
                .get_mut(&owner_id)
                .expect("commit for an unregistered owner");
            owner.records.append(&mut new_records);
            owner.records.sort_by_key(|r| r.range.start);
            let mut i = 0;
            while i + 1 < owner.records.len() {
                if owner.records[i].range.end == owner.records[i + 1].range.start
                    && owner.records[i].mode == owner.records[i + 1].mode
                {
                    let mut next = owner.records.remove(i + 1);
                    owner.records[i].range.end = next.range.end;
                    owner.records[i].tiles.append(&mut next.tiles);
                } else {
                    i += 1;
                }
            }
        }
        // A commit changes the waits-for edges other blocked owners must
        // derive: the new records are new potential holders. Sync waiters
        // re-derive on a short timeout anyway; async waiters re-derive only
        // when polled, so wake the lock's queue (a spurious wake costs one
        // re-poll). This is deliberately the keyed-table *broadcast*, not a
        // per-conflict wake: a cycle formed by this commit can pass through
        // any suspended waiter, including ones keyed on nodes this commit
        // never touches, and a keyed waiter left parked would never re-poll
        // to notice the EDEADLK it is part of.
        self.lock_ref().wait_queue().wake(KEY_ANY);
    }

    /// Ids of the *other* owners whose committed records block `owner_id`
    /// from acquiring `range` in `mode` right now — one waits-for edge per
    /// returned id. Over a lock whose "readers" serialize
    /// ([`RwRangeLock::readers_share`] is `false`), overlap alone conflicts,
    /// whatever the modes.
    fn conflicting_owner_ids(&self, owner_id: u64, range: Range, mode: LockMode) -> Vec<u64> {
        let readers_share = self.lock_ref().readers_share();
        let st = self.state.lock().unwrap();
        let mut holders = Vec::new();
        for (&id, owner) in &st.owners {
            if id == owner_id {
                continue;
            }
            if owner.records.iter().any(|rec| {
                rec.range.overlaps(&range) && (mode.conflicts_with(rec.mode) || !readers_share)
            }) {
                holders.push(id);
            }
        }
        holders
    }

    /// Maps a cycle of owner ids to the named error surfaced to callers,
    /// attaching a DOT dump of the waits-for graph at detection time.
    fn deadlock_error(&self, cycle: &[u64]) -> DeadlockError {
        let edge_ids = self.waits.snapshot_edges();
        let st = self.state.lock().unwrap();
        let name_of = |id: &u64| {
            st.owners
                .get(id)
                .map(|o| o.name.clone())
                .unwrap_or_else(|| format!("owner-{id}"))
        };
        let cycle: Vec<String> = cycle.iter().map(name_of).collect();
        let mut edges = Vec::new();
        for (waiter, holders) in &edge_ids {
            for holder in holders {
                edges.push((name_of(waiter), name_of(holder)));
            }
        }
        let waits_dot = rl_obs::waits_for_dot(&edges, &cycle);
        DeadlockError { cycle, waits_dot }
    }

    /// Snapshot of one owner's committed `(range, mode)` records, used as
    /// the restore set for batch rollback.
    fn owner_records(&self, owner_id: u64) -> Vec<(Range, LockMode)> {
        let st = self.state.lock().unwrap();
        st.owners
            .get(&owner_id)
            .map(|o| o.records.iter().map(|r| (r.range, r.mode)).collect())
            .unwrap_or_default()
    }

    /// Blocking, deadlock-checked tile acquisition: drives the underlying
    /// lock's two-phase protocol. After its first failed poll, and then
    /// once every [`DEADLOCK_RECHECK`], the waiter (re-)derives its
    /// waits-for edges from the committed table, so a cycle committed
    /// behind its back is still noticed; an edge set that closes a cycle
    /// cancels the pending acquisition and fails with `EDEADLK`. Between
    /// derivations it waits, keyed on the conflict its poll observed, until
    /// the queue generation moves (any release or commit) and then re-polls.
    /// A wake therefore costs one poll, not a pass over the table mutex and
    /// the waits-for graph that the lock holder's own commits need.
    fn acquire_tile_checked(
        &self,
        owner_id: u64,
        range: Range,
        mode: LockMode,
    ) -> Result<Tile<L>, DeadlockError> {
        let lock = self.lock_ref();
        macro_rules! checked {
            (
                $enqueue:ident, $poll:ident, $cancel:ident, $wait_key:ident,
                $variant:ident, $Guard:ident
            ) => {{
                let queue = lock.wait_queue();
                let mut pending = lock.$enqueue(range);
                // When this waiter next re-derives its waits-for edges; `None`
                // until the first failed poll derives them.
                let mut recheck: Option<Instant> = None;
                loop {
                    // Snapshot before polling, as `timeout_loop` does: a
                    // release between the poll and the wait moves the
                    // generation and ends the wait at once.
                    let gen = queue.generation();
                    if let Some(g) = lock.$poll(&mut pending) {
                        self.waits.deregister(owner_id);
                        // SAFETY: As in `acquire_tile` — the lock is a stable
                        // heap allocation freed only after every guard drops.
                        let g = unsafe { erase_lifetime::<L::$Guard<'_>, L::$Guard<'static>>(g) };
                        return Ok(Tile {
                            range,
                            guard: ModeGuard::$variant(g),
                        });
                    }
                    let at = match recheck {
                        Some(at) if Instant::now() < at => at,
                        _ => {
                            let holders = self.conflicting_owner_ids(owner_id, range, mode);
                            if let Err(cycle) = self.waits.register(owner_id, &holders) {
                                lock.$cancel(&mut pending);
                                queue.record_cancel();
                                queue.record_deadlock();
                                rl_obs::trace::emit(
                                    rl_obs::EventKind::DeadlockDetected,
                                    queue.trace_id(),
                                    self.owner_actor(owner_id),
                                    range.start,
                                    range.end,
                                );
                                return Err(self.deadlock_error(cycle.cycle()));
                            }
                            let at = Instant::now() + DEADLOCK_RECHECK;
                            recheck = Some(at);
                            at
                        }
                    };
                    let key = lock.$wait_key(&pending);
                    lock.wait_deadline_keyed(key, &mut || queue.generation() != gen, at);
                }
            }};
        }
        match mode {
            LockMode::Shared => checked!(
                enqueue_read,
                poll_read,
                cancel_read,
                pending_read_wait_key,
                Read,
                ReadGuard
            ),
            LockMode::Exclusive => checked!(
                enqueue_write,
                poll_write,
                cancel_write,
                pending_write_wait_key,
                Write,
                WriteGuard
            ),
        }
    }

    /// Phase A of a re-lock transaction (table mutex held): fail-fast
    /// conflict check, then detach the owner's overlapping records, sorting
    /// their tiles into those kept (entirely outside `target`, or downgraded
    /// in place) and those released here; finally compute the guard gaps
    /// that phase B must acquire. `Ok(None)` means the request was a no-op.
    fn plan_set_lock(
        &self,
        owner_id: u64,
        target: Range,
        op: Option<LockMode>,
        blocking: bool,
    ) -> Result<Option<Plan<L>>, WouldBlock> {
        let mut kept: Vec<Tile<L>> = Vec::new();
        let mut shapes: Vec<Shape> = Vec::new();
        let mut originals: Vec<(Range, LockMode)> = Vec::new();
        {
            let mut st = self.state.lock().unwrap();
            if let Some(mode) = op {
                if !blocking {
                    if let Some(conflict) = Self::conflicting_record(&st, owner_id, target, mode) {
                        return Err(WouldBlock {
                            conflict: Some(conflict),
                        });
                    }
                }
                // No-op fast path: the span is already held in this mode.
                let owner = st
                    .owners
                    .get(&owner_id)
                    .expect("operation on an unregistered owner");
                if owner.records.iter().any(|r| {
                    r.mode == mode && r.range.start <= target.start && r.range.end >= target.end
                }) {
                    return Ok(None);
                }
            }
            let owner = st
                .owners
                .get_mut(&owner_id)
                .expect("operation on an unregistered owner");
            let mut detached = Vec::new();
            let mut i = 0;
            while i < owner.records.len() {
                if owner.records[i].range.overlaps(&target) {
                    detached.push(owner.records.remove(i));
                } else {
                    i += 1;
                }
            }
            if detached.is_empty() && op.is_none() {
                return Ok(None);
            }
            for rec in detached {
                originals.push((rec.range, rec.mode));
                if rec.range.start < target.start {
                    shapes.push(Shape {
                        range: Range::new(rec.range.start, target.start),
                        mode: rec.mode,
                        is_target: false,
                    });
                }
                if rec.range.end > target.end {
                    shapes.push(Shape {
                        range: Range::new(target.end, rec.range.end),
                        mode: rec.mode,
                        is_target: false,
                    });
                }
                for tile in rec.tiles {
                    if tile.range.end <= target.start || tile.range.start >= target.end {
                        kept.push(tile);
                    } else if blocking
                        && op == Some(LockMode::Shared)
                        && tile.range.start >= target.start
                        && tile.range.end <= target.end
                    {
                        // Blocking exclusive→shared re-lock: keep the tile
                        // held across the mode change (in-place downgrade) so
                        // no other writer can slip in. Falls back to release +
                        // re-acquire when the lock has no downgrade. Blocking
                        // transactions cannot roll back, so a downgraded tile
                        // always reaches commit; non-blocking requests skip
                        // the downgrade because their rollback would have to
                        // release the weakened tile and re-take it exclusive.
                        if let Ok(tile) = self.downgrade_tile(tile) {
                            kept.push(tile);
                        }
                    }
                    // Remaining tiles overlapping `target` are dropped here,
                    // releasing their guards so the span can be re-acquired
                    // below.
                }
            }
            if let Some(mode) = op {
                shapes.push(Shape {
                    range: target,
                    mode,
                    is_target: true,
                });
            }
        }
        kept.sort_by_key(|t| t.range.start);

        // Compute the guard gaps: sub-ranges of each shape not covered by a
        // kept tile (for a shared-mode target, downgraded and pass-through
        // read tiles may already cover part or all of it).
        let mut need: Vec<(Range, LockMode, bool)> = Vec::new();
        for shape in &shapes {
            let mut cursor = shape.range.start;
            for tile in kept
                .iter()
                .filter(|t| t.range.start >= shape.range.start && t.range.end <= shape.range.end)
            {
                if tile.range.start > cursor {
                    need.push((Range::new(cursor, tile.range.start), shape.mode, false));
                }
                cursor = tile.range.end;
            }
            if cursor < shape.range.end {
                need.push((
                    Range::new(cursor, shape.range.end),
                    shape.mode,
                    shape.is_target,
                ));
            }
        }
        need.sort_by_key(|(r, _, _)| r.start);
        Ok(Some(Plan {
            kept,
            shapes,
            need,
            originals,
        }))
    }

    /// Phase C: assembles the transaction's tile pool into the planned
    /// record shapes and commits them.
    fn assemble_and_commit(&self, owner_id: u64, shapes: Vec<Shape>, mut pool: Vec<Tile<L>>) {
        pool.sort_by_key(|t| t.range.start);
        let records = shapes
            .into_iter()
            .map(|shape| {
                let mut tiles = Vec::new();
                let mut rest = Vec::new();
                for tile in pool.drain(..) {
                    if tile.range.start >= shape.range.start && tile.range.end <= shape.range.end {
                        tiles.push(tile);
                    } else {
                        rest.push(tile);
                    }
                }
                pool = rest;
                Record {
                    range: shape.range,
                    mode: shape.mode,
                    tiles,
                }
            })
            .collect();
        debug_assert!(pool.is_empty(), "unassigned tiles after a transaction");
        self.commit(owner_id, records);
    }

    /// The heart of the table: replaces whatever `owner_id` holds over
    /// `target` with `op` (`Some(mode)` to lock, `None` to unlock).
    ///
    /// A non-blocking request fails with `EAGAIN` when it would have to
    /// wait; a blocking one fails with `EDEADLK` when waiting would close an
    /// owner cycle. Either way the table is restored to its prior records
    /// before the error returns.
    fn set_lock(
        &self,
        owner_id: u64,
        target: Range,
        op: Option<LockMode>,
        blocking: bool,
    ) -> Result<(), SetLockError> {
        if target.is_empty() {
            return Ok(());
        }
        let Some(Plan {
            mut kept,
            shapes,
            need,
            originals,
        }) = self
            .plan_set_lock(owner_id, target, op, blocking)
            .map_err(SetLockError::WouldBlock)?
        else {
            return Ok(());
        };

        // Phase B (no mutex held): acquire the missing guards in ascending
        // range order. Only the target itself honors `blocking == false` and
        // only the target is deadlock-checked; gaps restore coverage the
        // owner already held and always block unchecked.
        let mut acquired: Vec<Tile<L>> = Vec::new();
        let mut failure: Option<SetLockError> = None;
        for &(range, mode, is_target) in &need {
            if is_target && !blocking {
                match self.try_acquire_tile(range, mode) {
                    Some(t) => acquired.push(t),
                    None => {
                        failure = Some(SetLockError::WouldBlock(WouldBlock { conflict: None }));
                        break;
                    }
                }
            } else if is_target {
                match self.acquire_tile_checked(owner_id, range, mode) {
                    Ok(t) => acquired.push(t),
                    Err(deadlock) => {
                        failure = Some(SetLockError::Deadlock(deadlock));
                        break;
                    }
                }
            } else {
                acquired.push(self.acquire_tile(range, mode));
            }
        }

        if let Some(err) = failure {
            // Roll back: drop every guard of this transaction, then restore
            // the original records from scratch (ascending, blocking — the
            // spans were held by this owner moments ago).
            kept.clear();
            acquired.clear();
            let restored = originals
                .iter()
                .map(|&(range, mode)| Record {
                    range,
                    mode,
                    tiles: vec![self.acquire_tile(range, mode)],
                })
                .collect();
            self.commit(owner_id, restored);
            return Err(err);
        }

        // Phase C: assemble the records and commit them.
        let mut pool: Vec<Tile<L>> = kept;
        pool.append(&mut acquired);
        self.assemble_and_commit(owner_id, shapes, pool);
        Ok(())
    }

    /// Acquires one tile asynchronously: the task suspends (waker-driven)
    /// instead of blocking its worker thread.
    async fn acquire_tile_async(&self, range: Range, mode: LockMode) -> Tile<L> {
        let lock = self.lock_ref();
        let guard = match mode {
            LockMode::Shared => {
                let g = lock.read_async(range).await;
                // SAFETY: As in `acquire_tile` — the lock is a stable heap
                // allocation freed only after every guard has been dropped.
                ModeGuard::Read(unsafe {
                    erase_lifetime::<L::ReadGuard<'_>, L::ReadGuard<'static>>(g)
                })
            }
            LockMode::Exclusive => {
                let g = lock.write_async(range).await;
                // SAFETY: As above.
                ModeGuard::Write(unsafe {
                    erase_lifetime::<L::WriteGuard<'_>, L::WriteGuard<'static>>(g)
                })
            }
        };
        Tile { range, guard }
    }

    /// The async form of [`LockTable::acquire_tile_checked`]: the waker-driven
    /// acquisition future is wrapped so that every `Pending` poll re-derives
    /// this owner's waits-for edges (commits wake the queue, so a cycle that
    /// forms while suspended gets a re-derivation). A cycle resolves the
    /// wrapper to `EDEADLK`; dropping the inner future then cancels the
    /// pending acquisition through its RAII guard (which records the cancel).
    async fn acquire_tile_checked_async(
        &self,
        owner_id: u64,
        range: Range,
        mode: LockMode,
    ) -> Result<Tile<L>, DeadlockError> {
        let lock = self.lock_ref();
        macro_rules! checked {
            ($acquire:ident, $variant:ident, $Guard:ident) => {{
                let mut fut = lock.$acquire(range);
                let resolved = std::future::poll_fn(|cx| match Pin::new(&mut fut).poll(cx) {
                    Poll::Ready(g) => Poll::Ready(Ok(g)),
                    Poll::Pending => {
                        let holders = self.conflicting_owner_ids(owner_id, range, mode);
                        match self.waits.register(owner_id, &holders) {
                            Ok(()) => Poll::Pending,
                            Err(cycle) => Poll::Ready(Err(cycle)),
                        }
                    }
                })
                .await;
                match resolved {
                    Ok(g) => {
                        self.waits.deregister(owner_id);
                        // SAFETY: As in `acquire_tile`.
                        let g = unsafe { erase_lifetime::<L::$Guard<'_>, L::$Guard<'static>>(g) };
                        Ok(Tile {
                            range,
                            guard: ModeGuard::$variant(g),
                        })
                    }
                    Err(cycle) => {
                        drop(fut);
                        let queue = lock.wait_queue();
                        queue.record_deadlock();
                        rl_obs::trace::emit(
                            rl_obs::EventKind::DeadlockDetected,
                            queue.trace_id(),
                            self.owner_actor(owner_id),
                            range.start,
                            range.end,
                        );
                        Err(self.deadlock_error(cycle.cycle()))
                    }
                }
            }};
        }
        match mode {
            LockMode::Shared => checked!(read_async, Read, ReadGuard),
            LockMode::Exclusive => checked!(write_async, Write, WriteGuard),
        }
    }

    /// The async counterpart of the blocking [`LockTable::set_lock`] path:
    /// phase A (planning) runs synchronously under the table mutex, phase B
    /// awaits each missing tile **in ascending range order** (the same
    /// deadlock-avoidance discipline as the sync path — a suspended task
    /// keeps earlier tiles held, exactly like a blocked thread) with the
    /// target tiles deadlock-checked, and phase C commits. `EDEADLK` rolls
    /// the transaction back to the original records, like the sync path.
    ///
    /// # Cancellation
    ///
    /// Each tile future is individually cancellation-safe, and the table
    /// structure stays consistent if this future is dropped mid-flight; but
    /// like a POSIX upgrade that blocks, the *operation* is not atomic —
    /// records detached in phase A are simply gone, as if the affected span
    /// had been unlocked. (Waits-for edges registered by an abandoned poll
    /// linger until this owner's next acquisition or release; a lingering
    /// edge can only cause a spurious `EDEADLK`, never a missed unlock.)
    /// Callers that cannot accept that should not abandon an in-flight
    /// `lock_async`.
    async fn set_lock_async(
        &self,
        owner_id: u64,
        target: Range,
        op: Option<LockMode>,
    ) -> Result<(), DeadlockError> {
        if target.is_empty() {
            return Ok(());
        }
        let Some(Plan {
            mut kept,
            shapes,
            need,
            originals,
        }) = self
            .plan_set_lock(owner_id, target, op, true)
            .unwrap_or_else(|_| unreachable!("blocking plan cannot fail"))
        else {
            return Ok(());
        };
        let mut acquired: Vec<Tile<L>> = Vec::new();
        let mut failure: Option<DeadlockError> = None;
        for &(range, mode, is_target) in &need {
            if is_target {
                match self.acquire_tile_checked_async(owner_id, range, mode).await {
                    Ok(t) => acquired.push(t),
                    Err(deadlock) => {
                        failure = Some(deadlock);
                        break;
                    }
                }
            } else {
                acquired.push(self.acquire_tile_async(range, mode).await);
            }
        }
        if let Some(deadlock) = failure {
            kept.clear();
            acquired.clear();
            let mut restored = Vec::new();
            for &(range, mode) in &originals {
                restored.push(Record {
                    range,
                    mode,
                    tiles: vec![self.acquire_tile_async(range, mode).await],
                });
            }
            self.commit(owner_id, restored);
            return Err(deadlock);
        }
        let mut pool: Vec<Tile<L>> = Vec::new();
        pool.append(&mut kept);
        pool.append(&mut acquired);
        self.assemble_and_commit(owner_id, shapes, pool);
        Ok(())
    }

    /// Applies a batch of disjoint items for `owner_id`, all-or-nothing.
    /// Items are applied in ascending order; an `EDEADLK` part-way through
    /// rolls the applied prefix back to `before` and reports the cycle.
    fn set_many(&self, owner_id: u64, items: &[(Range, LockMode)]) -> Result<(), DeadlockError> {
        let items = normalize_batch(items);
        let before = self.owner_records(owner_id);
        for (i, &(range, mode)) in items.iter().enumerate() {
            match self.set_lock(owner_id, range, Some(mode), true) {
                Ok(()) => {}
                Err(SetLockError::Deadlock(deadlock)) => {
                    self.rollback_batch(owner_id, &items[..i], &before);
                    return Err(deadlock);
                }
                Err(SetLockError::WouldBlock(_)) => {
                    unreachable!("blocking set_lock cannot return EAGAIN")
                }
            }
        }
        Ok(())
    }

    /// The non-blocking batch: every item is first checked against the
    /// committed table under one mutex hold — a visible conflict fails the
    /// whole batch before anything is touched — then applied item by item;
    /// losing a bounded-acquisition race to an uncommitted transaction rolls
    /// the applied prefix back.
    fn try_set_many(&self, owner_id: u64, items: &[(Range, LockMode)]) -> Result<(), WouldBlock> {
        let items = normalize_batch(items);
        {
            let st = self.state.lock().unwrap();
            for &(range, mode) in &items {
                if let Some(conflict) = Self::conflicting_record(&st, owner_id, range, mode) {
                    return Err(WouldBlock {
                        conflict: Some(conflict),
                    });
                }
            }
        }
        let before = self.owner_records(owner_id);
        for (i, &(range, mode)) in items.iter().enumerate() {
            match self.set_lock(owner_id, range, Some(mode), false) {
                Ok(()) => {}
                Err(SetLockError::WouldBlock(wb)) => {
                    self.rollback_batch(owner_id, &items[..i], &before);
                    return Err(wb);
                }
                Err(SetLockError::Deadlock(_)) => {
                    unreachable!("non-blocking set_lock cannot deadlock")
                }
            }
        }
        Ok(())
    }

    /// The async batch: [`LockTable::set_many`] with suspending waits.
    async fn set_many_async(
        &self,
        owner_id: u64,
        items: &[(Range, LockMode)],
    ) -> Result<(), DeadlockError> {
        let items = normalize_batch(items);
        let before = self.owner_records(owner_id);
        for (i, &(range, mode)) in items.iter().enumerate() {
            if let Err(deadlock) = self.set_lock_async(owner_id, range, Some(mode)).await {
                for &(applied, _) in &items[..i] {
                    self.set_lock_async(owner_id, applied, None)
                        .await
                        .unwrap_or_else(|_| unreachable!("unlock cannot deadlock"));
                }
                for &(range, mode) in &before {
                    if items[..i].iter().any(|(a, _)| a.overlaps(&range)) {
                        // Best-effort, as in `rollback_batch`.
                        let _ = self.set_lock_async(owner_id, range, Some(mode)).await;
                    }
                }
                let queue = self.lock_ref().wait_queue();
                queue.record_batch_rollback();
                let span = batch_span(&items[..i]);
                rl_obs::trace::emit(
                    rl_obs::EventKind::BatchRollback,
                    queue.trace_id(),
                    self.owner_actor(owner_id),
                    span.start,
                    span.end,
                );
                return Err(deadlock);
            }
        }
        Ok(())
    }

    /// Rolls an owner back after a failed batch: the spans of the applied
    /// prefix are unlocked, then every pre-batch record overlapping them is
    /// re-established. Restoring an original is deadlock-checked; a restore
    /// that would itself close a cycle is skipped — the coverage is lost,
    /// as when a blocked POSIX upgrade loses its old lock.
    fn rollback_batch(
        &self,
        owner_id: u64,
        applied: &[(Range, LockMode)],
        before: &[(Range, LockMode)],
    ) {
        for &(range, _) in applied {
            self.set_lock(owner_id, range, None, true)
                .unwrap_or_else(|_| unreachable!("unlock cannot fail"));
        }
        for &(range, mode) in before {
            if applied.iter().any(|(a, _)| a.overlaps(&range)) {
                let _ = self.set_lock(owner_id, range, Some(mode), true);
            }
        }
        let queue = self.lock_ref().wait_queue();
        queue.record_batch_rollback();
        let span = batch_span(applied);
        rl_obs::trace::emit(
            rl_obs::EventKind::BatchRollback,
            queue.trace_id(),
            self.owner_actor(owner_id),
            span.start,
            span.end,
        );
    }

    /// Number of `EDEADLK` failures this table has surfaced (each one also
    /// mirrors into the underlying lock's wait statistics, when attached).
    pub fn deadlocks_detected(&self) -> u64 {
        self.waits.deadlocks_detected()
    }

    fn release_owner(&self, owner_id: u64) {
        // An abandoned async acquisition may have left edges behind; they
        // must not outlive the owner.
        self.waits.deregister(owner_id);
        // Removing the state drops every record and therefore every guard.
        self.state.lock().unwrap().owners.remove(&owner_id);
    }
}

/// Validates and orders a batch: empty items are dropped, the rest sorted
/// ascending — the order they are applied and (on failure) unwound in.
///
/// # Panics
///
/// Panics if two items overlap: a batch is a set of independent spans, and
/// "lock `[0, 10)` shared and `[5, 15)` exclusive atomically" has no
/// coherent replace-semantics answer for the overlap.
/// Smallest range covering every item of a (possibly empty) batch prefix;
/// the range stamped on batch-rollback trace events.
fn batch_span(items: &[(Range, LockMode)]) -> Range {
    let start = items.iter().map(|(r, _)| r.start).min().unwrap_or(0);
    let end = items.iter().map(|(r, _)| r.end).max().unwrap_or(0);
    Range::new(start, end)
}

fn normalize_batch(items: &[(Range, LockMode)]) -> Vec<(Range, LockMode)> {
    let mut items: Vec<(Range, LockMode)> = items
        .iter()
        .copied()
        .filter(|(r, _)| !r.is_empty())
        .collect();
    items.sort_by_key(|(r, _)| (r.start, r.end));
    for pair in items.windows(2) {
        assert!(
            !pair[0].0.overlaps(&pair[1].0),
            "batched lock items overlap: {:?} and {:?}",
            pair[0].0,
            pair[1].0
        );
    }
    items
}

impl<L: TwoPhaseRwRangeLock + 'static> Drop for LockTable<L> {
    fn drop(&mut self) {
        // Drop every guard before freeing the lock they borrow.
        self.state.lock().unwrap().owners.clear();
        // SAFETY: Created by `Box::into_raw` in `new`; freed exactly once,
        // and no guard referencing it remains.
        unsafe { drop(Box::from_raw(self.lock)) };
    }
}

impl<L: TwoPhaseRwRangeLock + 'static> fmt::Debug for LockTable<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockTable")
            .field("lock", &self.lock_name())
            .field("held_records", &self.held_records())
            .finish()
    }
}

/// A registered lock owner (the analogue of a process id in `fcntl`).
///
/// All mutating operations take `&mut self`: POSIX serializes a process's
/// `fcntl` calls in the kernel, and the borrow checker provides the same
/// one-transaction-at-a-time guarantee per owner for free. Dropping the
/// handle releases everything the owner still holds.
pub struct LockOwner<L: TwoPhaseRwRangeLock + 'static> {
    table: Arc<LockTable<L>>,
    id: u64,
    name: String,
}

impl<L: TwoPhaseRwRangeLock + 'static> LockOwner<L> {
    /// The owner's name, as passed to [`LockTable::owner`].
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table this owner is registered with.
    pub fn table(&self) -> &Arc<LockTable<L>> {
        &self.table
    }

    /// Locks `range` in `mode`, waiting for conflicting owners
    /// (`fcntl(F_SETLKW)`). Replaces whatever this owner held over `range`:
    /// splits, merges, upgrades and downgrades as described in the
    /// [module documentation](self).
    ///
    /// # Errors
    ///
    /// Fails with [`DeadlockError`] — the `EDEADLK` of `F_SETLKW` — when
    /// waiting for the span would close a cycle of owners each blocked on
    /// the next's committed records. The table is left as if the call had
    /// not been made. Detection is best-effort, exactly as POSIX allows;
    /// see the fidelity caveats in the [module documentation](self).
    pub fn lock(&mut self, range: Range, mode: LockMode) -> Result<(), DeadlockError> {
        match self.table.set_lock(self.id, range, Some(mode), true) {
            Ok(()) => Ok(()),
            Err(SetLockError::Deadlock(deadlock)) => Err(deadlock),
            Err(SetLockError::WouldBlock(_)) => {
                unreachable!("blocking set_lock cannot return EAGAIN")
            }
        }
    }

    /// Locks `range` in `mode` without waiting for the requested span
    /// (`fcntl(F_SETLK)`); on conflict the table is left unchanged.
    ///
    /// "Without waiting" covers the conflict decision on `range` itself;
    /// re-establishing coverage this owner already held (split edges, or the
    /// rollback after losing a bounded-acquisition race) may still wait —
    /// see the fidelity caveats in the [module documentation](self).
    pub fn try_lock(&mut self, range: Range, mode: LockMode) -> Result<(), WouldBlock> {
        match self.table.set_lock(self.id, range, Some(mode), false) {
            Ok(()) => Ok(()),
            Err(SetLockError::WouldBlock(wb)) => Err(wb),
            Err(SetLockError::Deadlock(_)) => {
                unreachable!("non-blocking set_lock cannot deadlock")
            }
        }
    }

    /// Atomically locks every `(range, mode)` item of a batch, waiting for
    /// conflicting owners — **all-or-nothing**: either every item is applied
    /// (in ascending address order) or, on an `EDEADLK` part-way through,
    /// the applied prefix is rolled back to this owner's pre-batch records
    /// before the error returns. See the
    /// [module documentation](self#atomic-multi-range-acquisition) for the
    /// ordering argument and the rollback caveat.
    ///
    /// # Panics
    ///
    /// Panics if two items of the batch overlap.
    pub fn lock_many(&mut self, items: &[(Range, LockMode)]) -> Result<(), DeadlockError> {
        self.table.set_many(self.id, items)
    }

    /// Non-blocking [`LockOwner::lock_many`] (`F_SETLK` over a batch): every
    /// item is conflict-checked against the committed table before anything
    /// is touched, then applied; a lost bounded-acquisition race rolls the
    /// applied prefix back. On `Err` the owner's records are exactly its
    /// pre-batch records — no residue.
    ///
    /// # Panics
    ///
    /// Panics if two items of the batch overlap.
    pub fn try_lock_many(&mut self, items: &[(Range, LockMode)]) -> Result<(), WouldBlock> {
        self.table.try_set_many(self.id, items)
    }

    /// Asynchronous [`LockOwner::lock_many`]: contended items suspend the
    /// task instead of blocking a thread; `EDEADLK` rolls the applied prefix
    /// back with suspending waits too.
    ///
    /// # Panics
    ///
    /// Panics if two items of the batch overlap.
    pub async fn lock_many_async(
        &mut self,
        items: &[(Range, LockMode)],
    ) -> Result<(), DeadlockError> {
        self.table.set_many_async(self.id, items).await
    }

    /// Releases whatever this owner holds inside `range` (`F_UNLCK`),
    /// splitting boundary records. Unlike POSIX, re-securing the retained
    /// edges of a split may wait behind a queued waiter — see the fidelity
    /// caveats in the [module documentation](self). Unlocking never fails:
    /// only the deadlock-checked *target* acquisitions of a `lock` can
    /// return `EDEADLK`, and an unlock has none.
    pub fn unlock(&mut self, range: Range) {
        self.table
            .set_lock(self.id, range, None, true)
            .unwrap_or_else(|_| unreachable!("unlock cannot fail"));
    }

    /// Releases every range this owner holds.
    pub fn unlock_all(&mut self) {
        self.unlock(Range::FULL);
    }

    /// Releases every range this owner holds and reports how many committed
    /// records the release freed — the post-split/merge shape, i.e. the
    /// length of what [`LockOwner::held`] would have returned.
    ///
    /// This is the explicit form of what `Drop` does implicitly; a server
    /// session uses it on disconnect so the count of ranges a dead client
    /// freed can be surfaced in its stats before the owner itself goes
    /// away. The owner stays usable afterwards (holding nothing).
    pub fn release_all(&mut self) -> usize {
        let freed = self.held().len();
        if freed > 0 {
            self.unlock_all();
        }
        freed
    }

    /// Asynchronous [`LockOwner::lock`]: same replace semantics
    /// (split/merge/upgrade/downgrade) and the same `EDEADLK` contract, but
    /// waiting for conflicting owners suspends the task instead of blocking
    /// a thread — the tile futures are awaited in ascending range order, so
    /// async owners keep the same deadlock-avoidance discipline as blocking
    /// ones (and may wait behind them and vice versa; the underlying lock is
    /// the only exclusion mechanism either way), and a task suspended in a
    /// cycle is detected exactly like a blocked thread. See
    /// `LockTable::set_lock_async` for what happens if the returned future
    /// is dropped mid-flight.
    pub async fn lock_async(&mut self, range: Range, mode: LockMode) -> Result<(), DeadlockError> {
        self.table.set_lock_async(self.id, range, Some(mode)).await
    }

    /// Asynchronous [`LockOwner::unlock`]: re-securing the retained edges of
    /// a split suspends instead of blocking.
    pub async fn unlock_async(&mut self, range: Range) {
        self.table
            .set_lock_async(self.id, range, None)
            .await
            .unwrap_or_else(|_| unreachable!("unlock cannot deadlock"));
    }

    /// The `F_GETLK` probe: the first committed record of another owner that
    /// would make `lock(range, mode)` wait, if any.
    pub fn would_block(&self, range: Range, mode: LockMode) -> Option<LockRecord> {
        let st = self.table.state.lock().unwrap();
        LockTable::conflicting_record(&st, self.id, range, mode)
    }

    /// Snapshot of this owner's committed records, sorted by start.
    pub fn held(&self) -> Vec<(Range, LockMode)> {
        let st = self.table.state.lock().unwrap();
        st.owners
            .get(&self.id)
            .map(|o| o.records.iter().map(|r| (r.range, r.mode)).collect())
            .unwrap_or_default()
    }
}

impl<L: TwoPhaseRwRangeLock + 'static> Drop for LockOwner<L> {
    fn drop(&mut self) {
        self.table.release_owner(self.id);
    }
}

impl<L: TwoPhaseRwRangeLock + 'static> fmt::Debug for LockOwner<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockOwner")
            .field("name", &self.name)
            .field("held", &self.held().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use range_lock::RwListRangeLock;

    fn table() -> Arc<LockTable<RwListRangeLock>> {
        Arc::new(LockTable::new(RwListRangeLock::new()))
    }

    fn held_of<L: TwoPhaseRwRangeLock + 'static>(o: &LockOwner<L>) -> Vec<(u64, u64, LockMode)> {
        o.held()
            .into_iter()
            .map(|(r, m)| (r.start, r.end, m))
            .collect()
    }

    #[test]
    fn release_all_reports_freed_ranges_and_empties_the_table() {
        let t = table();
        let mut a = t.owner("a");
        let mut b = t.owner("b");
        a.lock(Range::new(0, 10), LockMode::Exclusive).unwrap();
        a.lock(Range::new(20, 30), LockMode::Shared).unwrap();
        a.lock(Range::new(40, 50), LockMode::Exclusive).unwrap();
        b.lock(Range::new(20, 30), LockMode::Shared).unwrap();
        assert_eq!(held_of(&a).len(), 3);

        // The count is the owner's committed record count, and the owner's
        // side of the table is record-free afterwards.
        assert_eq!(a.release_all(), 3);
        assert!(held_of(&a).is_empty());
        assert_eq!(a.release_all(), 0, "nothing left to free");

        // Only b's shared record survives; dropping b empties the table.
        assert_eq!(t.held_records(), 1);
        assert_eq!(b.release_all(), 1);
        assert_eq!(t.held_records(), 0);
        assert!(t.records().is_empty());
        t.check_invariants();

        // The owner stays usable after release_all.
        a.lock(Range::new(0, 10), LockMode::Exclusive).unwrap();
        assert_eq!(held_of(&a), vec![(0, 10, LockMode::Exclusive)]);
    }

    #[test]
    fn two_owner_cycle_fails_with_edeadlk() {
        use rl_sync::stats::WaitStats;

        // a holds [0,100), b holds [200,300); then b waits for a's span
        // while a waits for b's. Exactly one of the two blocking locks must
        // fail with EDEADLK (whichever registers the cycle-closing edge);
        // the loser's rollback dissolves the cycle and the other completes
        // once the failing side releases.
        let stats = Arc::new(WaitStats::new("edeadlk"));
        let t = Arc::new(LockTable::new(
            RwListRangeLock::new().with_stats(Arc::clone(&stats)),
        ));
        let mut a = t.owner("alice");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();

        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let t2 = Arc::clone(&t);
        let handle = std::thread::spawn(move || {
            let mut b = t2.owner("bob");
            b.lock(Range::new(200, 300), LockMode::Exclusive).unwrap();
            ready_tx.send(()).unwrap();
            let result = b.lock(Range::new(0, 100), LockMode::Exclusive);
            if result.is_err() {
                // Rolled back: bob must still hold exactly his first range.
                assert_eq!(b.held(), vec![(Range::new(200, 300), LockMode::Exclusive)]);
            }
            result
            // Dropping bob releases [200, 300) and unblocks alice if she is
            // the surviving waiter.
        });
        ready_rx.recv().unwrap();
        let a_result = a.lock(Range::new(200, 300), LockMode::Exclusive);
        if a_result.is_err() {
            // Alice keeps her original coverage and must release it so a
            // surviving bob can finish.
            assert_eq!(a.held(), vec![(Range::new(0, 100), LockMode::Exclusive)]);
            a.unlock_all();
        }
        let b_result = handle.join().unwrap();
        assert_ne!(
            a_result.is_err(),
            b_result.is_err(),
            "exactly one side of the cycle gets EDEADLK: {a_result:?} / {b_result:?}"
        );
        let err = a_result.err().or(b_result.err()).unwrap();
        let msg = err.to_string();
        assert!(msg.contains("EDEADLK"), "{msg}");
        assert!(msg.contains("alice") && msg.contains("bob"), "{msg}");
        assert_eq!(err.cycle.first(), err.cycle.last());
        assert_eq!(t.deadlocks_detected(), 1);
        // The detection mirrored into the lock's wait statistics.
        assert_eq!(stats.snapshot().deadlocks_detected, 1);
        t.check_invariants();
    }

    #[test]
    fn async_cycle_is_detected_at_the_first_cycle_closing_poll() {
        use std::future::Future;
        use std::task::{Context, Waker};

        // Single-threaded and fully deterministic: a holds [0,100), b holds
        // [200,300). a's async lock of [200,300) pends (registering a -> b);
        // b's async lock of [0,100) then closes the cycle on its very first
        // poll and resolves to EDEADLK without ever suspending.
        let t = table();
        let mut a = t.owner("alice");
        let mut b = t.owner("bob");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();
        b.lock(Range::new(200, 300), LockMode::Exclusive).unwrap();

        let mut cx = Context::from_waker(Waker::noop());
        let mut fut_a = Box::pin(a.lock_async(Range::new(200, 300), LockMode::Exclusive));
        assert!(fut_a.as_mut().poll(&mut cx).is_pending());
        {
            let mut fut_b = Box::pin(b.lock_async(Range::new(0, 100), LockMode::Exclusive));
            match fut_b.as_mut().poll(&mut cx) {
                Poll::Ready(Err(deadlock)) => {
                    assert!(deadlock.to_string().contains("EDEADLK"));
                }
                other => panic!("expected immediate EDEADLK, got {other:?}"),
            }
        }
        // Abandon a's future too; both owners keep exactly their originals.
        drop(fut_a);
        assert_eq!(t.deadlocks_detected(), 1);
        assert_eq!(a.held(), vec![(Range::new(0, 100), LockMode::Exclusive)]);
        assert_eq!(b.held(), vec![(Range::new(200, 300), LockMode::Exclusive)]);
        t.check_invariants();
    }

    #[test]
    fn lock_many_applies_batches_and_merges() {
        let t = table();
        let mut a = t.owner("a");
        a.lock_many(&[
            (Range::new(20, 30), LockMode::Shared),
            (Range::new(0, 10), LockMode::Exclusive),
            (Range::new(10, 20), LockMode::Exclusive),
            (Range::new(40, 40), LockMode::Shared), // empty: dropped
        ])
        .unwrap();
        // Items are applied ascending whatever the input order; the two
        // adjacent exclusive items merge, exactly as sequential locks would.
        assert_eq!(
            held_of(&a),
            vec![(0, 20, LockMode::Exclusive), (20, 30, LockMode::Shared)]
        );
        t.check_invariants();
    }

    #[test]
    #[should_panic(expected = "batched lock items overlap")]
    fn overlapping_batch_items_panic() {
        let t = table();
        let mut a = t.owner("a");
        let _ = a.lock_many(&[
            (Range::new(0, 10), LockMode::Shared),
            (Range::new(5, 15), LockMode::Exclusive),
        ]);
    }

    #[test]
    fn try_lock_many_is_all_or_nothing_against_committed_conflicts() {
        let t = table();
        let mut a = t.owner("a");
        let mut b = t.owner("b");
        b.lock(Range::new(25, 35), LockMode::Exclusive).unwrap();
        a.lock(Range::new(0, 10), LockMode::Shared).unwrap();

        // Second item conflicts with b: the precheck fails the whole batch
        // before anything is touched — including the conflict-free first
        // item's upgrade.
        let err = a
            .try_lock_many(&[
                (Range::new(0, 10), LockMode::Exclusive),
                (Range::new(20, 30), LockMode::Exclusive),
            ])
            .unwrap_err();
        assert_eq!(err.conflict.unwrap().owner, "b");
        assert_eq!(held_of(&a), vec![(0, 10, LockMode::Shared)]);
        assert_eq!(t.held_records(), 2);

        // A conflict-free batch commits everything.
        a.try_lock_many(&[
            (Range::new(0, 10), LockMode::Exclusive),
            (Range::new(50, 60), LockMode::Shared),
        ])
        .unwrap();
        assert_eq!(
            held_of(&a),
            vec![(0, 10, LockMode::Exclusive), (50, 60, LockMode::Shared)]
        );
        t.check_invariants();
    }

    #[test]
    fn lock_many_async_round_trip() {
        rl_exec::block_on(async {
            let t = table();
            let mut a = t.owner("a");
            a.lock_many_async(&[
                (Range::new(30, 40), LockMode::Exclusive),
                (Range::new(0, 10), LockMode::Shared),
            ])
            .await
            .unwrap();
            assert_eq!(
                held_of(&a),
                vec![(0, 10, LockMode::Shared), (30, 40, LockMode::Exclusive)]
            );
            t.check_invariants();
        });
    }

    #[test]
    fn failed_batch_rollback_is_counted_and_leaves_no_residue() {
        use rl_sync::stats::WaitStats;

        // Deterministic mid-batch deadlock: alice's batch takes [0,100),
        // then deadlocks against bob on the second item — bob holds
        // [200,300) and (async, suspended) waits for [0,100), which the
        // batch just took. The rollback must return alice to exactly her
        // pre-batch records and count one batch rollback.
        use std::future::Future;
        use std::task::{Context, Waker};

        let stats = Arc::new(WaitStats::new("batch-rollback"));
        let t = Arc::new(LockTable::new(
            RwListRangeLock::new().with_stats(Arc::clone(&stats)),
        ));
        let mut alice = t.owner("alice");
        let mut bob = t.owner("bob");
        alice.lock(Range::new(0, 10), LockMode::Shared).unwrap();
        bob.lock(Range::new(200, 300), LockMode::Exclusive).unwrap();

        let mut cx = Context::from_waker(Waker::noop());
        // Bob suspends waiting for [0, 100) — once alice's batch commits its
        // first item, the commit wake lets this edge re-derive to alice.
        let mut bob_fut = Box::pin(bob.lock_async(Range::new(0, 100), LockMode::Exclusive));
        assert!(bob_fut.as_mut().poll(&mut cx).is_pending());

        // Alice's batch: item 1 ([120,130), disjoint from bob's published
        // [0,100) node so it cannot queue behind it) commits; item 2 then
        // waits for bob's committed [200,300) — the edge alice -> bob closes
        // the cycle with bob's already-registered bob -> alice and the whole
        // batch resolves to EDEADLK.
        let before = alice.held();
        let items = [
            (Range::new(120, 130), LockMode::Exclusive),
            (Range::new(200, 300), LockMode::Shared),
        ];
        let err = {
            let mut batch_fut = Box::pin(alice.lock_many_async(&items));
            let mut err = None;
            for _ in 0..64 {
                match batch_fut.as_mut().poll(&mut cx) {
                    Poll::Ready(Err(deadlock)) => {
                        err = Some(deadlock);
                        break;
                    }
                    Poll::Ready(Ok(())) => panic!("batch must deadlock"),
                    Poll::Pending => {
                        // Item 1 committed; give bob a poll so he re-derives
                        // his edge (bob -> alice) and the next batch poll
                        // (alice -> bob, via [200,300)) closes the cycle.
                        assert!(bob_fut.as_mut().poll(&mut cx).is_pending());
                    }
                }
            }
            err.expect("batch did not resolve to EDEADLK")
        };
        assert!(err.to_string().contains("EDEADLK"));
        // Zero residue: alice is back to exactly her pre-batch records.
        assert_eq!(alice.held(), before);
        assert!(stats.snapshot().batch_rollbacks >= 1);
        assert!(stats.snapshot().deadlocks_detected >= 1);
        drop(bob_fut);
        t.check_invariants();
    }

    #[test]
    fn lock_unlock_round_trip() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Shared).unwrap();
        assert_eq!(held_of(&a), vec![(0, 100, LockMode::Shared)]);
        a.unlock(Range::new(0, 100));
        assert!(a.held().is_empty());
        assert_eq!(t.held_records(), 0);
        t.check_invariants();
    }

    #[test]
    fn unlock_middle_splits() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();
        a.unlock(Range::new(40, 60));
        assert_eq!(
            held_of(&a),
            vec![(0, 40, LockMode::Exclusive), (60, 100, LockMode::Exclusive)]
        );
        t.check_invariants();
    }

    #[test]
    fn adjacent_same_mode_locks_merge() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 50), LockMode::Shared).unwrap();
        a.lock(Range::new(50, 100), LockMode::Shared).unwrap();
        assert_eq!(held_of(&a), vec![(0, 100, LockMode::Shared)]);
        // Different mode does not merge.
        a.lock(Range::new(100, 150), LockMode::Exclusive).unwrap();
        assert_eq!(
            held_of(&a),
            vec![(0, 100, LockMode::Shared), (100, 150, LockMode::Exclusive)]
        );
        t.check_invariants();
    }

    #[test]
    fn upgrade_middle_splits_modes() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Shared).unwrap();
        a.lock(Range::new(40, 60), LockMode::Exclusive).unwrap();
        assert_eq!(
            held_of(&a),
            vec![
                (0, 40, LockMode::Shared),
                (40, 60, LockMode::Exclusive),
                (60, 100, LockMode::Shared)
            ]
        );
        // Downgrade back: everything merges into one shared record again.
        a.lock(Range::new(40, 60), LockMode::Shared).unwrap();
        assert_eq!(held_of(&a), vec![(0, 100, LockMode::Shared)]);
        t.check_invariants();
    }

    #[test]
    fn relock_inside_same_mode_is_noop() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Shared).unwrap();
        a.lock(Range::new(20, 30), LockMode::Shared).unwrap();
        assert_eq!(held_of(&a), vec![(0, 100, LockMode::Shared)]);
        t.check_invariants();
    }

    #[test]
    fn cross_owner_conflicts_and_getlk() {
        let t = table();
        let mut a = t.owner("alice");
        let mut b = t.owner("bob");
        a.lock(Range::new(0, 100), LockMode::Shared).unwrap();
        b.lock(Range::new(50, 150), LockMode::Shared).unwrap();

        let err = b
            .try_lock(Range::new(60, 80), LockMode::Exclusive)
            .unwrap_err();
        let conflict = err.conflict.expect("conflicting record is known");
        assert_eq!(conflict.owner, "alice");
        assert_eq!(conflict.mode, LockMode::Shared);
        assert_eq!(
            b.would_block(Range::new(60, 80), LockMode::Exclusive)
                .unwrap()
                .owner,
            "alice"
        );
        assert!(b
            .would_block(Range::new(100, 120), LockMode::Exclusive)
            .is_none());

        // The failed try left both owners' tables unchanged.
        assert_eq!(held_of(&a), vec![(0, 100, LockMode::Shared)]);
        assert_eq!(held_of(&b), vec![(50, 150, LockMode::Shared)]);
        t.check_invariants();
    }

    #[test]
    fn owner_drop_releases_everything() {
        let t = table();
        let mut a = t.owner("a");
        let mut b = t.owner("b");
        a.lock(Range::new(0, 10), LockMode::Exclusive).unwrap();
        a.lock(Range::new(20, 30), LockMode::Shared).unwrap();
        assert!(b.try_lock(Range::new(5, 25), LockMode::Exclusive).is_err());
        drop(a);
        assert_eq!(t.held_records(), 0);
        b.try_lock(Range::new(5, 25), LockMode::Exclusive).unwrap();
        t.check_invariants();
    }

    #[test]
    fn blocking_lock_waits_for_conflicting_owner() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();
        let t2 = Arc::clone(&t);
        let started = std::time::Instant::now();
        let handle = std::thread::spawn(move || {
            let mut b = t2.owner("b");
            b.lock(Range::new(50, 150), LockMode::Exclusive).unwrap();
            started.elapsed()
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        a.unlock_all();
        let waited = handle.join().unwrap();
        assert!(waited >= std::time::Duration::from_millis(20));
        t.check_invariants();
    }

    #[test]
    fn block_policy_waiter_parks_and_owner_drop_wakes_it() {
        use rl_sync::stats::WaitStats;
        use rl_sync::wait::Block;

        // The whole fcntl stack over the parking policy: a blocked lock()
        // must actually park (not spin), and dropping the conflicting owner
        // must wake it via the underlying lock's release hooks.
        let stats = Arc::new(WaitStats::new("locktable-block"));
        let t = Arc::new(LockTable::new(
            RwListRangeLock::<Block>::with_policy().with_stats(Arc::clone(&stats)),
        ));
        let a = {
            let mut a = t.owner("a");
            a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();
            a
        };
        let t2 = Arc::clone(&t);
        let handle = std::thread::spawn(move || {
            let mut b = t2.owner("b");
            b.lock(Range::new(50, 150), LockMode::Exclusive).unwrap();
        });
        while stats.snapshot().parks == 0 {
            std::thread::yield_now();
        }
        drop(a); // owner drop releases everything and wakes the queue
        handle.join().unwrap();
        let snap = stats.snapshot();
        assert!(snap.parks >= 1);
        assert!(snap.wakes >= 1);
        // The waiter waits for the release itself, not out a fixed recheck
        // interval, so no wake finds it with nothing to do.
        assert_eq!(snap.spurious_wakeups, 0);
        assert_eq!(t.held_records(), 0);
        t.check_invariants();
    }

    #[test]
    fn exclusive_to_shared_relock_downgrades_in_place() {
        // Owner `a` re-locks an exclusive span as shared. The backing tile is
        // downgraded without ever being released, and a blocked shared locker
        // of another owner is admitted by the downgrade itself.
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();

        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || {
            let mut b = t2.owner("b");
            b.lock(Range::new(0, 100), LockMode::Shared).unwrap();
            b.unlock_all();
        });
        // Let the waiter block on the exclusive record.
        std::thread::sleep(std::time::Duration::from_millis(20));
        a.lock(Range::new(0, 100), LockMode::Shared).unwrap();
        waiter.join().unwrap();
        assert_eq!(held_of(&a), vec![(0, 100, LockMode::Shared)]);
        t.check_invariants();
    }

    #[test]
    fn partial_downgrade_splits_and_keeps_inner_tiles_shared() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 30), LockMode::Exclusive).unwrap();
        a.lock(Range::new(30, 60), LockMode::Exclusive).unwrap();
        // Re-lock a span that exactly covers the second record: its tile is
        // fully inside the target and downgrades in place.
        a.lock(Range::new(30, 60), LockMode::Shared).unwrap();
        assert_eq!(
            held_of(&a),
            vec![(0, 30, LockMode::Exclusive), (30, 60, LockMode::Shared)]
        );
        // And a downgrade across a split boundary still produces the right
        // record shape through the fallback path.
        a.lock(Range::new(10, 40), LockMode::Shared).unwrap();
        assert_eq!(
            held_of(&a),
            vec![(0, 10, LockMode::Exclusive), (10, 60, LockMode::Shared),]
        );
        t.check_invariants();
    }

    #[test]
    fn downgrade_works_over_a_registry_built_lock() {
        // The in-place downgrade must survive the dynamic-dispatch erasure:
        // a registry-built list-rw behind `Box<dyn DynTwoPhaseRwRangeLock>`
        // downgrades exactly like the statically typed lock.
        use rl_baselines::registry::{self, RegistryConfig};
        use rl_sync::WaitPolicyKind;
        let t = Arc::new(LockTable::new(
            registry::by_name("list-rw")
                .expect("paper variant")
                .build_twophase(WaitPolicyKind::SpinThenYield, &RegistryConfig::default()),
        ));
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();
        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || {
            let mut b = t2.owner("b");
            b.lock(Range::new(0, 100), LockMode::Shared).unwrap();
            b.unlock_all();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        a.lock(Range::new(0, 100), LockMode::Shared).unwrap();
        waiter.join().unwrap();
        assert_eq!(held_of(&a), vec![(0, 100, LockMode::Shared)]);
        t.check_invariants();
    }

    #[test]
    fn downgrade_fallback_works_without_lock_support() {
        // `kernel-rw` has no atomic downgrade: the table must fall back to
        // release + re-acquire and still produce the same record shape.
        use rl_baselines::RwTreeRangeLock;
        let t = Arc::new(LockTable::new(RwTreeRangeLock::new()));
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();
        a.lock(Range::new(0, 100), LockMode::Shared).unwrap();
        assert_eq!(
            a.held()
                .into_iter()
                .map(|(r, m)| (r.start, r.end, m))
                .collect::<Vec<_>>(),
            vec![(0, 100, LockMode::Shared)]
        );
        // Another owner can now share.
        let mut b = t.owner("b");
        b.try_lock(Range::new(0, 100), LockMode::Shared).unwrap();
        t.check_invariants();
    }

    #[test]
    fn lock_async_round_trip_with_split_and_merge() {
        // The async path must produce exactly the same record shapes as the
        // sync path: lock, split by an exclusive re-lock, unlock the middle.
        rl_exec::block_on(async {
            let t = table();
            let mut a = t.owner("a");
            a.lock_async(Range::new(0, 100), LockMode::Shared)
                .await
                .unwrap();
            a.lock_async(Range::new(40, 60), LockMode::Exclusive)
                .await
                .unwrap();
            assert_eq!(
                held_of(&a),
                vec![
                    (0, 40, LockMode::Shared),
                    (40, 60, LockMode::Exclusive),
                    (60, 100, LockMode::Shared)
                ]
            );
            a.unlock_async(Range::new(45, 55)).await;
            assert_eq!(
                held_of(&a),
                vec![
                    (0, 40, LockMode::Shared),
                    (40, 45, LockMode::Exclusive),
                    (55, 60, LockMode::Exclusive),
                    (60, 100, LockMode::Shared)
                ]
            );
            t.check_invariants();
        });
    }

    #[test]
    fn lock_async_waits_for_conflicting_owner_without_a_thread() {
        // M owners on one pool worker: a suspended lock_async must not wedge
        // the worker, and the conflicting owner's unlock must wake it.
        let pool = rl_exec::TaskPool::new(1);
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(0, 100), LockMode::Exclusive).unwrap();

        let t2 = Arc::clone(&t);
        let waiter = pool.spawn(async move {
            let mut b = t2.owner("b");
            b.lock_async(Range::new(50, 150), LockMode::Exclusive)
                .await
                .unwrap();
            b.held().len()
        });
        // A second task on the same worker proves the suspended waiter does
        // not block the thread.
        let t3 = Arc::clone(&t);
        let independent = pool.spawn(async move {
            let mut c = t3.owner("c");
            c.lock_async(Range::new(500, 600), LockMode::Exclusive)
                .await
                .unwrap();
            c.unlock_all();
        });
        independent.join();
        a.unlock_all();
        assert_eq!(waiter.join(), 1);
        t.check_invariants();
    }

    #[test]
    fn records_snapshot_names_owners() {
        let t = table();
        let mut a = t.owner("alice");
        let mut b = t.owner("bob");
        a.lock(Range::new(0, 10), LockMode::Shared).unwrap();
        b.lock(Range::new(10, 20), LockMode::Exclusive).unwrap();
        let records = t.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].owner, "alice");
        assert_eq!(records[1].owner, "bob");
        assert_eq!(records[1].mode, LockMode::Exclusive);
        a.unlock_all();
        b.unlock_all();
    }

    #[test]
    fn empty_range_operations_are_noops() {
        let t = table();
        let mut a = t.owner("a");
        a.lock(Range::new(10, 10), LockMode::Exclusive).unwrap();
        assert!(a.held().is_empty());
        a.unlock(Range::new(5, 5));
        a.try_lock(Range::new(7, 7), LockMode::Shared).unwrap();
        assert_eq!(t.held_records(), 0);
    }
}
