//! The common range-lock interface.
//!
//! Every range-lock implementation in this workspace — the paper's list-based
//! locks in this crate, the tree / segment baselines and the stock semaphore
//! in `rl-baselines` — implements [`RwRangeLock`], so that the VM simulator,
//! the skip list, the file layer and the benchmark harness can be written
//! once and parameterized over the lock. An exclusive-only lock (`list-ex`,
//! `lustre-ex`) is simply an `RwRangeLock` whose reads are exclusive too:
//! [`RwRangeLock::readers_share`] is `false` and a "downgrade" is the
//! identity. The cancellable, timed, batched and async acquisition surface
//! sits on top in [`crate::twophase::TwoPhaseRwRangeLock`]; callers that need
//! runtime dispatch — one variable holding *any* variant — use
//! [`crate::dynlock::DynTwoPhaseRwRangeLock`].
//!
//! # `try_` semantics (normative)
//!
//! The bounded acquisition methods ([`RwRangeLock::try_read`],
//! [`RwRangeLock::try_write`], and the inherent `try_acquire` of the
//! exclusive locks) share one contract, specified here once for every
//! implementation in the workspace:
//!
//! * **Never waits.** A `try_` call performs a bounded amount of work and
//!   returns; it never spins on, yields to, or parks behind another thread
//!   regardless of the lock's wait policy.
//! * **May fail spuriously.** `None` means "could not acquire *now*": either
//!   a genuinely conflicting range is held, or the attempt lost a race to a
//!   concurrent list/tree modification that a blocking acquisition would
//!   simply have retried. Callers must not interpret `None` as proof that a
//!   conflicting holder exists. In the *absence* of concurrent calls the
//!   answer is exact: `None` is returned iff a conflicting range is held.
//! * **Leaves no residue.** A failed attempt restores the lock to the state
//!   it would have had without the call: no node, tree entry, or segment
//!   hold remains (a transiently published node is logically deleted and any
//!   waiter that might have observed it is woken), no wait-statistics
//!   acquisition is recorded, and subsequent acquisitions — including the
//!   empty-list fast path once all holders release — behave as if the failed
//!   `try_` had never happened. The `try_semantics` integration suite
//!   asserts this for every registry variant.

use crate::range::Range;

/// A reader-writer range lock: overlapping *reader* ranges may be held
/// concurrently; a writer range excludes every overlapping reader or writer.
pub trait RwRangeLock: Send + Sync {
    /// RAII guard for a shared (reader) acquisition.
    type ReadGuard<'a>
    where
        Self: 'a;
    /// RAII guard for an exclusive (writer) acquisition.
    type WriteGuard<'a>
    where
        Self: 'a;

    /// Acquires `range` in shared mode.
    fn read(&self, range: Range) -> Self::ReadGuard<'_>;

    /// Acquires `range` in exclusive mode.
    fn write(&self, range: Range) -> Self::WriteGuard<'_>;

    /// Acquires the entire resource in shared mode.
    fn read_full(&self) -> Self::ReadGuard<'_> {
        self.read(Range::FULL)
    }

    /// Acquires the entire resource in exclusive mode.
    fn write_full(&self) -> Self::WriteGuard<'_> {
        self.write(Range::FULL)
    }

    /// Attempts to acquire `range` in shared mode without waiting.
    ///
    /// Returns `None` if a conflicting range is held; see the
    /// [module-level `try_` contract](self#try_-semantics-normative) for the
    /// spurious-failure and no-residue guarantees.
    fn try_read(&self, range: Range) -> Option<Self::ReadGuard<'_>>;

    /// Attempts to acquire `range` in exclusive mode without waiting.
    ///
    /// Returns `None` if any overlapping range is held; see the
    /// [module-level `try_` contract](self#try_-semantics-normative) for the
    /// spurious-failure and no-residue guarantees.
    fn try_write(&self, range: Range) -> Option<Self::WriteGuard<'_>>;

    /// Atomically downgrades a held write guard to a read guard without
    /// releasing the range.
    ///
    /// `Ok(read_guard)` means the range stayed continuously held — no other
    /// writer can have slipped in — and is now shared, with blocked
    /// overlapping readers woken. `Err(write_guard)` returns the guard
    /// unchanged and means this lock has no atomic downgrade; the caller may
    /// fall back to dropping and re-acquiring in shared mode (accepting the
    /// window that opens). The default implementation declines.
    fn downgrade<'a>(
        &'a self,
        guard: Self::WriteGuard<'a>,
    ) -> Result<Self::ReadGuard<'a>, Self::WriteGuard<'a>> {
        Err(guard)
    }

    /// Whether overlapping *shared* acquisitions of this lock can actually
    /// be held concurrently.
    ///
    /// `true` (the default) for genuine reader-writer locks. The
    /// exclusive-only locks (`list-ex`, `lustre-ex`) return `false`: there,
    /// two "readers" of overlapping ranges conflict even though their *modes*
    /// are compatible. Deadlock-detection
    /// layers must consult this when deriving waits-for edges, otherwise a
    /// reader blocked behind another reader looks unblockable and its cycle
    /// is invisible.
    fn readers_share(&self) -> bool {
        true
    }

    /// Short, stable identifier used by the benchmark harness
    /// (e.g. `"list-ex"`, `"list-rw"`, `"kernel-rw"`, `"pnova-rw"`).
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ListRangeLock;

    #[test]
    fn default_full_range_methods_delegate() {
        let lock = ListRangeLock::new();
        let g = RwRangeLock::write_full(&lock);
        assert_eq!(g.range(), Range::FULL);
    }

    #[test]
    fn exclusive_lock_serializes_readers() {
        let lock = ListRangeLock::new();
        assert_eq!(RwRangeLock::name(&lock), "list-ex");
        assert!(!lock.readers_share());
        let r = lock.read(Range::new(0, 10));
        // A second "reader" conflicts: the lock is exclusive underneath.
        assert!(lock.try_read(Range::new(5, 15)).is_none());
        assert!(lock.try_write(Range::new(5, 15)).is_none());
        drop(r);
        assert!(lock.try_read(Range::new(5, 15)).is_some());
        assert!(lock.is_quiescent());
    }
}
