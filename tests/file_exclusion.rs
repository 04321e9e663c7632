//! Torn-read/-write storm over the `rl-file` subsystem, for every lock
//! variant.
//!
//! A shared [`RangeFile`] is hammered by a mixed reader/writer storm on
//! aligned regions: writers stamp a whole region with their tag under one
//! write acquisition and re-read it before releasing; readers require a
//! region to be uniformly one tag. Any exclusion violation by the lock under
//! test — a torn write or a torn read — is therefore counted, and the test
//! asserts the count is zero for all five variants (the exclusive locks
//! serialize their readers). A second storm drives the
//! [`LockTable`] from many concurrently dropping owners.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use range_locks_repro::range_lock::{ListRangeLock, Range, RwListRangeLock, RwRangeLock};
use range_locks_repro::rl_baselines::{RwTreeRangeLock, SegmentRangeLock, TreeRangeLock};
use range_locks_repro::rl_file::{FileStore, LockMode, LockTable, RangeFile};

const FILE_SIZE: u64 = 1 << 16;
const REGION: u64 = 128;
const THREADS: usize = 6;
const OPS_PER_THREAD: u64 = 1_200;

#[inline]
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Runs the mixed reader/writer storm over one file and returns the number
/// of observed integrity violations.
fn storm<L: RwRangeLock + 'static>(lock: L) -> u64 {
    let file = Arc::new(RangeFile::new(lock));
    file.truncate(FILE_SIZE);
    let violations = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let file = Arc::clone(&file);
            let violations = Arc::clone(&violations);
            scope.spawn(move || {
                let mut rng = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut torn = 0u64;
                for i in 0..OPS_PER_THREAD {
                    let region = xorshift(&mut rng) % (FILE_SIZE / REGION);
                    let offset = region * REGION;
                    // 60% reads, 40% writes, with occasional appends and a
                    // rare truncate thrown in for metadata pressure.
                    match xorshift(&mut rng) % 10 {
                        0..=5 => {
                            if file.read_stamped(offset, REGION as usize).is_none() {
                                torn += 1;
                            }
                        }
                        6..=8 => {
                            if !file.write_stamped(offset, REGION as usize, t as u8 + 1) {
                                torn += 1;
                            }
                        }
                        _ => {
                            if i % 64 == 0 {
                                file.truncate(FILE_SIZE);
                            } else {
                                file.append(&[t as u8 + 1; 32]);
                            }
                        }
                    }
                }
                violations.fetch_add(torn, Ordering::Relaxed);
            });
        }
    });
    violations.load(Ordering::Relaxed)
}

#[test]
fn no_torn_io_under_list_rw() {
    assert_eq!(storm(RwListRangeLock::new()), 0);
}

#[test]
fn no_torn_io_under_kernel_rw() {
    assert_eq!(storm(RwTreeRangeLock::new()), 0);
}

#[test]
fn no_torn_io_under_pnova_rw() {
    // One segment per 4 KiB page, pNOVA's natural granularity.
    assert_eq!(
        storm(SegmentRangeLock::new(FILE_SIZE, (FILE_SIZE >> 12) as usize)),
        0
    );
}

#[test]
fn no_torn_io_under_list_ex() {
    assert_eq!(storm(ListRangeLock::new()), 0);
}

#[test]
fn no_torn_io_under_lustre_ex() {
    assert_eq!(storm(TreeRangeLock::new()), 0);
}

/// Concurrent owners on one lock table: writers hold exclusive table locks
/// while stamping their span through a plain (unlocked) side buffer of the
/// file, so any failure of the table's cross-owner exclusion shows up as a
/// torn span.
#[test]
fn lock_table_excludes_concurrent_owners() {
    const SPANS: u64 = 16;
    const SPAN: u64 = 256;
    let table = Arc::new(LockTable::new(RwListRangeLock::new()));
    let file = Arc::new(RangeFile::new(RwListRangeLock::new()));
    file.truncate(SPANS * SPAN);
    let violations = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let table = Arc::clone(&table);
            let file = Arc::clone(&file);
            let violations = Arc::clone(&violations);
            scope.spawn(move || {
                let mut owner = table.owner(format!("owner-{t}"));
                let mut rng = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for _ in 0..300 {
                    let span = xorshift(&mut rng) % SPANS;
                    let range = Range::new(span * SPAN, (span + 1) * SPAN);
                    if xorshift(&mut rng).is_multiple_of(2) {
                        owner.lock(range, LockMode::Exclusive).unwrap();
                        // The table lock — not the file's internal lock — is
                        // what makes this stamped write exclusive: the write
                        // itself only locks one byte at a time underneath.
                        let mut ok = true;
                        for b in 0..SPAN {
                            file.pwrite(range.start + b, &[t as u8 + 1]);
                        }
                        let mut buf = vec![0u8; SPAN as usize];
                        file.pread(range.start, &mut buf);
                        if buf.iter().any(|&b| b != t as u8 + 1) {
                            ok = false;
                        }
                        if !ok {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                        owner.unlock(range);
                    } else {
                        owner.lock(range, LockMode::Shared).unwrap();
                        let mut buf = vec![0u8; SPAN as usize];
                        file.pread(range.start, &mut buf);
                        if buf.iter().any(|&b| b != buf[0]) {
                            violations.fetch_add(1, Ordering::Relaxed);
                        }
                        owner.unlock(range);
                    }
                }
                // Leave some locks held so the drop path gets exercised.
                owner
                    .lock(
                        Range::new(t as u64 * 10_000 + 100_000, t as u64 * 10_000 + 100_100),
                        LockMode::Exclusive,
                    )
                    .unwrap();
            });
        }
    });
    assert_eq!(violations.load(Ordering::Relaxed), 0);
    // Every owner has been dropped; the table must be empty again.
    assert_eq!(table.held_records(), 0);
}

/// The sharded store hands out one file per path under concurrent opens.
#[test]
fn file_store_concurrent_opens_agree() {
    let store = Arc::new(FileStore::new(|| RangeFile::new(RwListRangeLock::new())));
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for i in 0..50 {
                    let file = store.open(&format!("/shared/{}", i % 10));
                    file.append(&[t as u8 + 1; 16]);
                }
            });
        }
    });
    assert_eq!(store.file_count(), 10);
    let total: u64 = (0..10)
        .map(|i| store.open(&format!("/shared/{i}")).len())
        .sum();
    // 4 threads x 50 appends x 16 bytes.
    assert_eq!(total, 4 * 50 * 16);
}
