//! # Scalable list-based range locks
//!
//! This crate is a faithful, production-oriented Rust implementation of the
//! range locks introduced in *"Scalable Range Locks for Scalable Address
//! Spaces and Beyond"* (Kogan, Dice, Issa — EuroSys 2020). A range lock
//! mediates access to a shared resource (a file, an address space, an array,
//! a key space…) at the granularity of address ranges: threads locking
//! disjoint ranges proceed in parallel, threads locking overlapping ranges
//! serialize.
//!
//! Unlike the kernel's tree-based range lock — a red-black range tree guarded
//! by one spin lock that every acquisition and release must take — the locks
//! in this crate keep acquired ranges in a **sorted linked list** that is
//! maintained without any internal lock in the common case:
//!
//! * acquiring a range inserts a node with one CAS on the predecessor's
//!   `next` pointer; overlapping ranges compete for the same insertion point,
//!   which is the entire mutual-exclusion argument;
//! * releasing a range is a single wait-free fetch-and-add that marks the
//!   node as logically deleted; marked nodes are unlinked by later traversals;
//! * an empty-list **fast path** acquires and releases the lock in a constant
//!   number of steps (Section 4.5);
//! * an optional **fairness gate** (impatient counter + auxiliary
//!   reader-writer lock) bounds starvation (Section 4.3);
//! * node memory is recycled through **epoch-based reclamation with
//!   per-thread pools** (Section 4.4), so the system allocator is not on the
//!   acquisition path in steady state;
//! * waiting is a pluggable **wait policy** (`rl_sync::wait`): both locks
//!   take a defaulted type parameter selecting `Spin`, `SpinThenYield`
//!   (default — the paper's `Pause()` loop) or `Block` (park on a
//!   futex-analogue queue, woken by the release paths — the behaviour of the
//!   kernel locks the paper replaces). The empty-list fast path is the same
//!   atomic sequence under every policy.
//!
//! Two lock types are provided, both thin façades over the shared
//! [`list_core::ListCore`] engine (one implementation of the list protocol,
//! parameterized by a compile-time [`list_core::CompatMode`]):
//!
//! * [`ListRangeLock`] — the exclusive-access variant (Listing 1);
//! * [`RwListRangeLock`] — the reader-writer variant (Listings 2–3), in which
//!   overlapping reader ranges share and writers exclude; its write guards
//!   support an atomic in-place [`RwListRangeGuard::downgrade`].
//!
//! # Quick start
//!
//! ```
//! use range_lock::{Range, RwListRangeLock};
//! use std::sync::Arc;
//!
//! let lock = Arc::new(RwListRangeLock::new());
//!
//! // Writers to disjoint halves of a resource proceed in parallel.
//! let lo = lock.write(Range::new(0, 512));
//! let hi = lock.write(Range::new(512, 1024));
//! drop(lo);
//! drop(hi);
//!
//! // Readers share overlapping ranges.
//! let r1 = lock.read(Range::new(0, 1024));
//! let r2 = lock.read(Range::new(256, 768));
//! drop(r1);
//! drop(r2);
//! ```
//!
//! Three traits abstract over this crate's locks and the baselines in the
//! `rl-baselines` crate, so that higher layers (the VM-subsystem simulator,
//! the range-locked skip list, the file layer, the benchmark harness) are
//! generic over the lock:
//!
//! * [`RwRangeLock`] — blocking and `try_` acquisition in both modes. The
//!   exclusive [`ListRangeLock`] implements it too, with reads that are
//!   exclusive underneath (`readers_share() == false`);
//! * [`TwoPhaseRwRangeLock`] — the cancellable enqueue / poll / cancel
//!   protocol, and the timed, batched and async acquisition built on it;
//! * [`DynTwoPhaseRwRangeLock`] — the object-safe mirror of both, for a lock
//!   chosen at *runtime*: it erases the guard and token types into boxed
//!   [`DynRangeGuard`]s and [`DynPending`]s, and the variant registry in
//!   `rl-baselines` enumerates every paper variant by name on top of it.

#![deny(missing_docs)]

pub mod dynlock;
pub mod fairness;
pub mod list_core;
pub mod mutex_list;
pub mod node;
pub mod range;
pub mod reclaim;
pub mod rw_list;
pub mod traits;
pub mod twophase;
pub mod waits_for;

pub use dynlock::{DynPending, DynRangeGuard, DynTwoPhaseRwRangeLock};
pub use fairness::{FairnessGate, FairnessPermit};
pub use list_core::{CompatMode, ListCore, ListLockConfig, PendingAcquire};
pub use mutex_list::{ListRangeGuard, ListRangeLock};
pub use range::Range;
pub use rw_list::{RwListRangeGuard, RwListRangeLock};
pub use traits::RwRangeLock;
pub use twophase::{
    AcquireManyFuture, BatchMode, ReadFuture, RwBatchGuard, TwoPhaseRwRangeLock, WriteFuture,
};
pub use waits_for::{Deadlock, WaitGraph};
