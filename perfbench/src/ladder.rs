//! The layer ladder: one seeded service op sequence replayed from higher
//! and higher entry points. The difference between adjacent rungs is that
//! layer's share of an op.
//!
//! | rung         | entry point                                            |
//! |--------------|--------------------------------------------------------|
//! | `range_lock` | registry-built two-phase lock: `enqueue`/`poll`        |
//! | `lock_table` | plus `LockTable` / `LockOwner`                         |
//! | `file_store` | plus `FileStore::open` and `RangeFile` I/O             |
//! | `wire`       | plus a `wire` encode/decode round trip per request     |
//! | `transport`  | plus `Conn::pair` to a hand-rolled responder thread    |
//! | `session`    | the real in-process `Server` through `Client`          |
//!
//! Rungs replay on one thread (the clients' ops round-robin), so
//! their op times and allocation counts involve no contention. The
//! contended pass reruns the lower rungs with one thread per client.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use range_lock::{DynRangeGuard, DynTwoPhaseRwRangeLock, Range, TwoPhaseRwRangeLock};
use rl_file::{FileStore, LockMode, LockOwner, LockTable, RangeFile};
use rl_server::wire::{decode_reply, decode_request, encode_reply, encode_request};
use rl_server::{Client, Conn, ErrCode, Reply, Request, Server, ServerConfig};

use crate::alloc_count::counted;
use crate::gen::{fill_stamp, SvcLayout, SvcOp, CLIENTS, PATH, SETUP_CLIENT};
use crate::stats::Metrics;
use crate::svc::{bad_units, do_op};

type Lock = Box<dyn DynTwoPhaseRwRangeLock>;

/// The lock the server builds for its tables and files.
fn build_lock() -> Lock {
    let config = ServerConfig::default();
    config.variant.build_twophase(config.wait, &config.registry)
}

pub const RUNGS: [&str; 6] = [
    "range_lock",
    "lock_table",
    "file_store",
    "wire",
    "transport",
    "session",
];

/// Acquisition counts of the two-phase protocol.
#[derive(Default, Debug)]
pub struct Polls {
    pub acquisitions: u64,
    pub first_poll_grants: u64,
}

/// Enqueue → poll → park-until-the-queue-moves, like the lock's own
/// timed acquisitions, without a deadline.
fn acquire<'a>(
    lock: &'a Lock,
    range: Range,
    mode: LockMode,
    polls: &mut Polls,
) -> DynRangeGuard<'a> {
    let queue = TwoPhaseRwRangeLock::wait_queue(lock);
    let far = Instant::now() + std::time::Duration::from_secs(3600);
    polls.acquisitions += 1;
    let mut first = true;
    match mode {
        LockMode::Shared => {
            let mut pending = lock.enqueue_read(range);
            loop {
                let generation = queue.generation();
                if let Some(guard) = lock.poll_read(&mut pending) {
                    polls.first_poll_grants += u64::from(first);
                    return guard;
                }
                first = false;
                let key = lock.pending_read_wait_key(&pending);
                lock.wait_deadline_keyed(key, &mut || queue.generation() != generation, far);
            }
        }
        LockMode::Exclusive => {
            let mut pending = lock.enqueue_write(range);
            loop {
                let generation = queue.generation();
                if let Some(guard) = lock.poll_write(&mut pending) {
                    polls.first_poll_grants += u64::from(first);
                    return guard;
                }
                first = false;
                let key = lock.pending_write_wait_key(&pending);
                lock.wait_deadline_keyed(key, &mut || queue.generation() != generation, far);
            }
        }
    }
}

/// Highest write sequence number sent per client, for the read checks.
type Sent = [u64; CLIENTS];

/// The store the file rungs write to, filled with the set-up stamp.
fn filled_store(layout: &SvcLayout) -> Arc<FileStore<Lock>> {
    let store = Arc::new(FileStore::new(|| RangeFile::new(build_lock())));
    let mut fill = vec![0u8; layout.file_len() as usize];
    fill_stamp(&mut fill, SETUP_CLIENT, 0);
    store.open(PATH).pwrite(0, &fill);
    store
}

/// Owners (one per client) holding their resident ranges.
fn owners(table: &Arc<LockTable<Lock>>, layout: &SvcLayout) -> Vec<LockOwner<Lock>> {
    (0..CLIENTS)
        .map(|c| {
            let mut owner = table.owner(format!("client-{c}"));
            for range in layout.residents(c) {
                owner.lock(range, LockMode::Shared).expect("resident lock");
            }
            owner
        })
        .collect()
}

/// Runs the I/O of `op` directly against the store; false if a read saw
/// bytes no op wrote. `buf` is reused across ops.
fn store_io(
    layout: &SvcLayout,
    store: &FileStore<Lock>,
    op: &SvcOp,
    buf: &mut Vec<u8>,
    sent: &Sent,
) -> bool {
    let file = store.open(PATH);
    buf.resize(op.io_len as usize, 0);
    if op.is_write() {
        fill_stamp(buf, op.client, op.seq);
        file.pwrite(op.io_off, buf);
        true
    } else {
        file.pread(op.io_off, buf) == buf.len()
            && bad_units(layout, buf, op.io_off, |c| sent[c]) == 0
    }
}

/// The requests of one op, as a client would build them.
fn requests(op: &SvcOp, buf: &[u8]) -> [Request; 3] {
    let io = if op.is_write() {
        Request::Write {
            path: PATH.to_string(),
            offset: op.io_off,
            data: buf.to_vec(),
        }
    } else {
        Request::Read {
            path: PATH.to_string(),
            offset: op.io_off,
            len: op.io_len,
        }
    };
    [
        Request::Lock {
            path: PATH.to_string(),
            start: op.range.start,
            end: op.range.end,
            mode: op.mode,
        },
        io,
        Request::Unlock {
            path: PATH.to_string(),
            start: op.range.start,
            end: op.range.end,
        },
    ]
}

/// Executes one decoded request against a lock owner and the store, the
/// way a session would.
fn execute(owner: &mut LockOwner<Lock>, store: &FileStore<Lock>, req: Request) -> Reply {
    match req {
        Request::Lock {
            start, end, mode, ..
        } => match owner.lock(Range::new(start, end), mode) {
            Ok(()) => Reply::Ok,
            Err(e) => Reply::Err {
                code: ErrCode::Deadlock,
                message: e.to_string(),
            },
        },
        Request::Unlock { start, end, .. } => {
            owner.unlock(Range::new(start, end));
            Reply::Ok
        }
        Request::Write { path, offset, data } => {
            store.open(&path).pwrite(offset, &data);
            Reply::Ok
        }
        Request::Read { path, offset, len } => {
            let mut data = vec![0u8; len as usize];
            let n = store.open(&path).pread(offset, &mut data);
            data.truncate(n);
            Reply::Data(data)
        }
        _ => Reply::Err {
            code: ErrCode::Protocol,
            message: "not part of the workload".to_string(),
        },
    }
}

/// Checks the reply to request `i` (0 lock, 1 I/O, 2 unlock) of `op`.
fn reply_ok(layout: &SvcLayout, op: &SvcOp, i: usize, reply: &Reply, sent: &Sent) -> bool {
    match reply {
        Reply::Ok => i != 1 || op.is_write(),
        Reply::Data(data) => {
            i == 1
                && !op.is_write()
                && data.len() == op.io_len as usize
                && bad_units(layout, data, op.io_off, |c| sent[c]) == 0
        }
        _ => false,
    }
}

/// Per-op times (ns) and allocation count of one rung.
pub struct RungResult {
    pub samples: Vec<u64>,
    pub allocs: u64,
    pub failed: u64,
}

/// Replays `warm + n` ops round-robin over the clients through `op`,
/// timing (and counting allocations of) the last `n`.
fn replay(
    layout: &SvcLayout,
    warm: u64,
    n: u64,
    mut run_op: impl FnMut(&SvcOp, &Sent) -> bool,
) -> RungResult {
    let mut sent: Sent = [0; CLIENTS];
    let next = |sent: &mut Sent, i: u64| {
        let c = (i % CLIENTS as u64) as usize;
        let op = layout.op(c, i / CLIENTS as u64 + 1);
        if op.is_write() {
            sent[c] = op.seq;
        }
        op
    };
    let mut failed = 0;
    for i in 0..warm {
        let op = next(&mut sent, i);
        failed += u64::from(!run_op(&op, &sent));
    }
    let mut samples = Vec::with_capacity(n as usize);
    let ((), allocs) = counted(|| {
        for i in warm..warm + n {
            let op = next(&mut sent, i);
            let t = Instant::now();
            let ok = run_op(&op, &sent);
            samples.push(t.elapsed().as_nanos() as u64);
            failed += u64::from(!ok);
        }
    });
    RungResult {
        samples,
        allocs,
        failed,
    }
}

/// Runs rung `rung` (an index into [`RUNGS`]) on a fresh thread, so the
/// range lock's per-thread node pools start empty and the allocation count
/// repeats exactly from run to run.
pub fn run_rung(layout: &SvcLayout, rung: usize, warm: u64, n: u64) -> RungResult {
    std::thread::scope(|scope| {
        scope
            .spawn(|| rung_on_this_thread(layout, rung, warm, n))
            .join()
            .expect("ladder rung panicked")
    })
}

fn rung_on_this_thread(layout: &SvcLayout, rung: usize, warm: u64, n: u64) -> RungResult {
    let mut buf = Vec::new();
    match rung {
        0 => {
            let lock = build_lock();
            let mut polls = Polls::default();
            let _residents: Vec<DynRangeGuard<'_>> = (0..CLIENTS)
                .flat_map(|c| layout.residents(c))
                .map(|r| acquire(&lock, r, LockMode::Shared, &mut polls))
                .collect();
            replay(layout, warm, n, |op, _| {
                drop(acquire(&lock, op.range, op.mode, &mut polls));
                true
            })
        }
        1 => {
            let table = Arc::new(LockTable::new(build_lock()));
            let mut owners = owners(&table, layout);
            replay(layout, warm, n, |op, _| {
                let owner = &mut owners[op.client as usize];
                let ok = owner.lock(op.range, op.mode).is_ok();
                owner.unlock(op.range);
                ok
            })
        }
        2 => {
            let table = Arc::new(LockTable::new(build_lock()));
            let mut owners = owners(&table, layout);
            let store = filled_store(layout);
            replay(layout, warm, n, |op, sent| {
                let owner = &mut owners[op.client as usize];
                let ok = owner.lock(op.range, op.mode).is_ok();
                let io = store_io(layout, &store, op, &mut buf, sent);
                owner.unlock(op.range);
                ok && io
            })
        }
        3 => {
            let table = Arc::new(LockTable::new(build_lock()));
            let mut owners = owners(&table, layout);
            let store = filled_store(layout);
            replay(layout, warm, n, |op, sent| {
                buf.resize(op.io_len as usize, 0);
                fill_stamp(&mut buf, op.client, op.seq);
                let owner = &mut owners[op.client as usize];
                requests(op, &buf).into_iter().enumerate().all(|(i, req)| {
                    let frame = encode_request(&req);
                    let reply = match decode_request(&frame) {
                        Ok(req) => execute(owner, &store, req),
                        Err(_) => return false,
                    };
                    let frame = encode_reply(&reply);
                    decode_reply(&frame).is_ok_and(|r| reply_ok(layout, op, i, &r, sent))
                })
            })
        }
        4 => transport_rung(layout, warm, n, &mut buf),
        5 => {
            let server = Server::new(ServerConfig::default());
            let mut clients: Vec<Client> = (0..CLIENTS).map(|_| server.connect()).collect();
            let mut fill = vec![0u8; layout.file_len() as usize];
            fill_stamp(&mut fill, SETUP_CLIENT, 0);
            for (c, client) in clients.iter_mut().enumerate() {
                client.hello(&format!("client-{c}")).expect("hello");
                let residents: Vec<_> = layout
                    .residents(c)
                    .into_iter()
                    .map(|r| (r, LockMode::Shared))
                    .collect();
                if !residents.is_empty() {
                    client.lock_many(PATH, &residents).expect("resident locks");
                }
            }
            clients[0].write(PATH, 0, &fill).expect("fill");
            let published: Vec<AtomicU64> = (0..CLIENTS).map(|_| AtomicU64::new(0)).collect();
            let result = replay(layout, warm, n, |op, _| {
                do_op(
                    layout,
                    &mut clients[op.client as usize],
                    op,
                    &mut buf,
                    &published,
                    None,
                )
                .unwrap_or(false)
            });
            for client in clients {
                let _ = client.bye();
            }
            server.shutdown();
            result
        }
        _ => unreachable!("no rung {rung}"),
    }
}

/// Rung 5: every request crosses a `Conn::pair` to one hand-rolled
/// responder thread that decodes, executes and replies — the transport
/// without the server's task pool or session loop. The responder polls
/// the inboxes instead of sleeping, so the rung holds the transport's cost
/// and not a thread wake-up on the serving side (the pool's hop shows in
/// the `session` rung).
fn transport_rung(layout: &SvcLayout, warm: u64, n: u64, buf: &mut Vec<u8>) -> RungResult {
    let table = Arc::new(LockTable::new(build_lock()));
    let store = filled_store(layout);
    let (near, far): (Vec<Conn>, Vec<Conn>) = (0..CLIENTS).map(|_| Conn::pair()).unzip();
    let mut owners = owners(&table, layout);
    std::thread::scope(|scope| {
        let store = &store;
        scope.spawn(move || {
            let mut cx = Context::from_waker(Waker::noop());
            let mut live = vec![true; far.len()];
            while live.contains(&true) {
                let mut idle = true;
                for ((conn, owner), live) in far.iter().zip(owners.iter_mut()).zip(live.iter_mut())
                {
                    if !*live {
                        continue;
                    }
                    let frame = match conn.inbox().poll_recv(&mut cx) {
                        Poll::Ready(Some(frame)) => frame,
                        Poll::Ready(None) => {
                            *live = false;
                            continue;
                        }
                        Poll::Pending => continue,
                    };
                    idle = false;
                    let reply = match decode_request(&frame) {
                        Ok(req) => execute(owner, store, req),
                        Err(e) => Reply::Err {
                            code: ErrCode::Protocol,
                            message: e.to_string(),
                        },
                    };
                    let _ = conn.send(&encode_reply(&reply));
                }
                if idle {
                    std::hint::spin_loop();
                }
            }
        });
        let result = replay(layout, warm, n, |op, sent| {
            buf.resize(op.io_len as usize, 0);
            fill_stamp(buf, op.client, op.seq);
            let conn = &near[op.client as usize];
            requests(op, buf).into_iter().enumerate().all(|(i, req)| {
                conn.send(&encode_request(&req)).is_ok()
                    && conn
                        .recv_blocking()
                        .and_then(|frame| decode_reply(&frame).ok())
                        .is_some_and(|r| reply_ok(layout, op, i, &r, sent))
            })
        });
        drop(near);
        result
    })
}

/// The single-threaded ladder: `ladder.<rung>.op_p50_ns` and
/// `.allocs_per_op` for every rung. Returns the ops run and failed.
pub fn ladder(layout: &SvcLayout, warm: u64, n: u64, metrics: &mut Metrics) -> (u64, u64) {
    let mut failed = 0;
    for (rung, name) in RUNGS.iter().enumerate() {
        let mut r = run_rung(layout, rung, warm, n);
        failed += r.failed;
        metrics.push_quantile(
            format!("ladder.{name}.op_p50_ns"),
            &mut r.samples,
            0.5,
            1.0,
            "ns",
        );
        metrics.push(
            format!("ladder.{name}.allocs_per_op"),
            r.allocs as f64 / n as f64,
            "count",
        );
    }
    (RUNGS.len() as u64 * (warm + n), failed)
}

/// The contended pass: the range-lock rung and the file-store rung again,
/// with one thread per client, timing each call into `range_lock`,
/// `lock_table` and `file_store`. Returns the ops run and failed.
pub fn contended(layout: &SvcLayout, n: u64, metrics: &mut Metrics) -> (u64, u64) {
    // range_lock: enqueue → grant, and guard drop.
    let lock = build_lock();
    let barrier = Barrier::new(CLIENTS);
    let per_thread: Vec<(Vec<u64>, Vec<u64>, Polls)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (lock, barrier) = (&lock, &barrier);
                scope.spawn(move || {
                    let mut polls = Polls::default();
                    let _residents: Vec<_> = layout
                        .residents(c)
                        .into_iter()
                        .map(|r| acquire(lock, r, LockMode::Shared, &mut polls))
                        .collect();
                    polls = Polls::default();
                    let (mut acq, mut rel) = (
                        Vec::with_capacity(n as usize),
                        Vec::with_capacity(n as usize),
                    );
                    barrier.wait();
                    for seq in 1..=n {
                        let op = layout.op(c, seq);
                        let t = Instant::now();
                        let guard = acquire(lock, op.range, op.mode, &mut polls);
                        acq.push(t.elapsed().as_nanos() as u64);
                        let t = Instant::now();
                        drop(guard);
                        rel.push(t.elapsed().as_nanos() as u64);
                    }
                    barrier.wait();
                    (acq, rel, polls)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("range-lock thread"))
            .collect()
    });
    let (mut acq, mut rel, mut polls) = (Vec::new(), Vec::new(), Polls::default());
    for (a, r, p) in per_thread {
        acq.extend(a);
        rel.extend(r);
        polls.acquisitions += p.acquisitions;
        polls.first_poll_grants += p.first_poll_grants;
    }
    metrics.push_quantile("range_lock.acquire_p50_ns", &mut acq, 0.5, 1.0, "ns");
    metrics.push_quantile("range_lock.acquire_p99_ns", &mut acq, 0.99, 1.0, "ns");
    metrics.push_quantile("range_lock.release_p50_ns", &mut rel, 0.5, 1.0, "ns");
    metrics.push(
        "range_lock.first_poll_grant_ratio",
        polls.first_poll_grants as f64 / polls.acquisitions.max(1) as f64,
        "ratio",
    );

    // lock_table + file_store: lock, I/O, unlock, each timed.
    let table = Arc::new(LockTable::new(build_lock()));
    let store = filled_store(layout);
    let published: Vec<AtomicU64> = (0..CLIENTS).map(|_| AtomicU64::new(0)).collect();
    let mut owners = owners(&table, layout);
    let per_thread: Vec<([Vec<u64>; 4], u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = owners
            .iter_mut()
            .enumerate()
            .map(|(c, owner)| {
                let (store, published, barrier) = (&store, &published, &barrier);
                scope.spawn(move || {
                    let mut t_ns: [Vec<u64>; 4] = Default::default(); // lock, unlock, pwrite, pread
                    let mut failed = 0;
                    let mut buf = Vec::new();
                    let mut written = Vec::new();
                    barrier.wait();
                    for seq in 1..=n {
                        let op = layout.op(c, seq);
                        let t = Instant::now();
                        let locked = owner.lock(op.range, op.mode).is_ok();
                        t_ns[0].push(t.elapsed().as_nanos() as u64);
                        let file = store.open(PATH);
                        buf.resize(op.io_len as usize, 0);
                        let t = Instant::now();
                        let io_ok = if op.is_write() {
                            fill_stamp(&mut buf, op.client, op.seq);
                            published[c].store(op.seq, Ordering::SeqCst);
                            file.pwrite(op.io_off, &buf);
                            t_ns[2].push(t.elapsed().as_nanos() as u64);
                            written.push(op);
                            true
                        } else {
                            let n = file.pread(op.io_off, &mut buf);
                            t_ns[3].push(t.elapsed().as_nanos() as u64);
                            let seen = |c: usize| published[c].load(Ordering::SeqCst);
                            n == buf.len() && bad_units(layout, &buf, op.io_off, seen) == 0
                        };
                        let t = Instant::now();
                        owner.unlock(op.range);
                        t_ns[1].push(t.elapsed().as_nanos() as u64);
                        failed += u64::from(!(locked && io_ok));
                    }
                    barrier.wait();
                    // A workload without reads still gets `pread` timed: read
                    // back this thread's last writes (and check them).
                    if t_ns[3].is_empty() {
                        let file = store.open(PATH);
                        for op in written.iter().rev().take(4096) {
                            buf.resize(op.io_len as usize, 0);
                            let t = Instant::now();
                            let n = file.pread(op.io_off, &mut buf);
                            t_ns[3].push(t.elapsed().as_nanos() as u64);
                            let seen = |c: usize| published[c].load(Ordering::SeqCst);
                            failed += u64::from(
                                n != buf.len() || bad_units(layout, &buf, op.io_off, seen) != 0,
                            );
                        }
                    }
                    (t_ns, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lock-table thread"))
            .collect()
    });
    let mut all: [Vec<u64>; 4] = Default::default();
    let mut failed = 0;
    for (t_ns, f) in per_thread {
        for (a, t) in all.iter_mut().zip(t_ns) {
            a.extend(t);
        }
        failed += f;
    }
    let [mut lock, mut unlock, mut pwrite, mut pread] = all;
    metrics.push_quantile("lock_table.lock_p50_ns", &mut lock, 0.5, 1.0, "ns");
    metrics.push_quantile("lock_table.lock_p99_ns", &mut lock, 0.99, 1.0, "ns");
    metrics.push_quantile("lock_table.unlock_p50_ns", &mut unlock, 0.5, 1.0, "ns");
    metrics.push_quantile("file_store.pwrite_p50_ns", &mut pwrite, 0.5, 1.0, "ns");
    metrics.push_quantile("file_store.pread_p50_ns", &mut pread, 0.5, 1.0, "ns");
    (2 * CLIENTS as u64 * n, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;

    /// Allocation counts are process-wide, so these checks run serially.
    #[test]
    fn single_threaded_rungs_repeat_their_allocation_counts() {
        let _serial = crate::serial();
        for workload in [Workload::SvcDisjoint, Workload::SvcOverlap] {
            let layout = SvcLayout::new(workload, 21);
            for rung in 0..4 {
                let a = run_rung(&layout, rung, 200, 2000);
                let b = run_rung(&layout, rung, 200, 2000);
                assert_eq!(a.failed + b.failed, 0, "{workload:?} rung {rung}");
                assert_eq!(a.allocs, b.allocs, "{workload:?} rung {rung}");
            }
        }
    }

    #[test]
    fn upper_rungs_serve_the_workload_without_failures() {
        let _serial = crate::serial();
        let layout = SvcLayout::new(Workload::SvcOverlap, 4);
        for rung in 4..RUNGS.len() {
            assert_eq!(run_rung(&layout, rung, 50, 300).failed, 0, "rung {rung}");
        }
    }
}
