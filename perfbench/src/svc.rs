//! The service workloads: closed-loop clients against the in-process
//! `Server` as shipped (`ServerConfig::default()`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rl_server::{Client, ClientError, Server, ServerConfig};

use crate::gen::{
    fill_stamp, read_stamp, SvcLayout, SvcOp, Workload, CLIENTS, PATH, SETUP_CLIENT, STAMP,
};
use crate::trace::{self, Recorder};
use crate::window::{closed_loop, Window};

/// A server, its connected clients, and what the clients wrote so far.
pub struct Rig {
    layout: SvcLayout,
    pub server: Server,
    clients: Vec<Client>,
    /// Last sequence number each client used.
    next_seq: Vec<u64>,
    /// svc-disjoint: the seq last written to each 256 B block (0 = set-up).
    last_write: Vec<u64>,
}

fn err(what: &str, e: ClientError) -> String {
    format!("{what}: {e}")
}

impl Rig {
    /// Builds the server, connects and names every client, fills the file
    /// with the set-up stamp and takes each session's resident ranges (one
    /// batched `lock_many` per session).
    pub fn setup(layout: SvcLayout) -> Result<Rig, String> {
        let server = Server::new(ServerConfig::default());
        let mut clients = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            let mut client = server.connect();
            client
                .hello(&format!("client-{c}"))
                .map_err(|e| err("hello", e))?;
            clients.push(client);
        }
        let mut fill = vec![0u8; 64 << 10];
        fill_stamp(&mut fill, SETUP_CLIENT, 0);
        let len = layout.file_len();
        for off in (0..len).step_by(fill.len()) {
            let n = (len - off).min(fill.len() as u64) as usize;
            clients[0]
                .write(PATH, off, &fill[..n])
                .map_err(|e| err("fill", e))?;
        }
        for (c, client) in clients.iter_mut().enumerate() {
            let residents: Vec<_> = layout
                .residents(c)
                .into_iter()
                .map(|r| (r, rl_server::LockMode::Shared))
                .collect();
            if !residents.is_empty() {
                client
                    .lock_many(PATH, &residents)
                    .map_err(|e| err("resident locks", e))?;
            }
        }
        Ok(Rig {
            layout,
            server,
            clients,
            next_seq: vec![0; CLIENTS],
            last_write: vec![0; (len / 256) as usize],
        })
    }

    /// Says goodbye on every session and drains the server.
    pub fn teardown(self) {
        for client in self.clients {
            let _ = client.bye();
        }
        self.server.shutdown();
    }

    /// Runs every client closed-loop for `warmup`, then measures for
    /// `window`, recording spans when `traced`.
    pub fn run(&mut self, warmup: Duration, window: Duration, traced: bool) -> Window {
        let layout = self.layout;
        let published: Vec<AtomicU64> = self.next_seq.iter().map(|&s| AtomicU64::new(s)).collect();
        let mut states: Vec<ClientState<'_>> = self
            .clients
            .iter_mut()
            .zip(self.next_seq.iter_mut())
            .enumerate()
            .map(|(c, (client, next_seq))| ClientState {
                c,
                client,
                next_seq,
                last_write: vec![0; self.last_write.len()],
                buf: Vec::new(),
            })
            .collect();
        let win = closed_loop(&mut states, warmup, window, traced, |st, mut rec| {
            *st.next_seq += 1;
            let op = layout.op(st.c, *st.next_seq);
            let started = Instant::now();
            let ok = do_op(
                &layout,
                st.client,
                &op,
                &mut st.buf,
                &published,
                rec.as_deref_mut(),
            )
            .unwrap_or_else(|e| {
                eprintln!("client {} op {}: {e}", st.c, op.seq);
                false
            });
            if let Some(rec) = rec {
                rec.record(op_id(&op), trace::OP, started);
            }
            if ok && op.is_write() && layout.workload == Workload::SvcDisjoint {
                st.last_write[(op.io_off / 256) as usize] = op.seq;
            }
            ok
        });
        // Each block belongs to one client, so at most one state wrote it.
        for st in states {
            for (last, seq) in self.last_write.iter_mut().zip(st.last_write) {
                if seq != 0 {
                    *last = seq;
                }
            }
        }
        win
    }

    /// Reads the whole churned area back after the clients stopped and
    /// counts 256 B blocks (svc-disjoint) or 16 B stamps (svc-overlap)
    /// that are not what the ops wrote.
    pub fn final_check(&mut self) -> Result<u64, String> {
        let layout = self.layout;
        let published = self.next_seq.clone();
        let mut bad = 0;
        for (start, end) in layout.churn_spans() {
            let data = self.clients[0]
                .read(PATH, start, (end - start) as u32)
                .map_err(|e| err("final read", e))?;
            if data.len() as u64 != end - start {
                return Err(format!("final read of [{start}, {end}) came back short"));
            }
            match layout.workload {
                Workload::SvcDisjoint => {
                    let mut expect = [0u8; 256];
                    for (i, block) in data.chunks_exact(256).enumerate() {
                        let b = (start / 256) as usize + i;
                        let seq = self.last_write[b];
                        let owner = if seq == 0 {
                            SETUP_CLIENT
                        } else {
                            ((b * 256 / 4096) % CLIENTS) as u16
                        };
                        fill_stamp(&mut expect, owner, seq);
                        bad += u64::from(block != expect);
                    }
                }
                _ => bad += bad_units(&layout, &data, start, |c| published[c]),
            }
        }
        Ok(bad)
    }
}

/// Stamps in `data` (read at `offset`) that are torn, were never written
/// over their bytes, or come from a write not yet sent.
pub fn bad_units(
    layout: &SvcLayout,
    data: &[u8],
    offset: u64,
    published: impl Fn(usize) -> u64,
) -> u64 {
    let mut bad = 0;
    for (i, unit) in data.chunks(STAMP).enumerate() {
        let at = offset + (i * STAMP) as u64;
        let ok = match read_stamp(unit) {
            Some((client, seq)) => {
                layout.stamp_plausible(client, seq, at)
                    && (client == SETUP_CLIENT || seq <= published(client as usize))
            }
            None => false,
        };
        bad += u64::from(!ok);
    }
    bad
}

/// One client thread's state in the closed loop.
struct ClientState<'a> {
    c: usize,
    client: &'a mut Client,
    next_seq: &'a mut u64,
    /// svc-disjoint: the seq this client last wrote to each block.
    last_write: Vec<u64>,
    buf: Vec<u8>,
}

/// Span id of an op: client in the top bits, sequence number below.
fn op_id(op: &SvcOp) -> u64 {
    ((op.client as u64) << 48) | op.seq
}

/// One lock → I/O → unlock triple through `client`. `Ok(false)` means the
/// op completed but a read returned bytes no op could have written.
pub fn do_op(
    layout: &SvcLayout,
    client: &mut Client,
    op: &SvcOp,
    buf: &mut Vec<u8>,
    published: &[AtomicU64],
    mut rec: Option<&mut Recorder>,
) -> Result<bool, ClientError> {
    let id = op_id(op);
    let t = Instant::now();
    client.lock(PATH, op.range, op.mode)?;
    if let Some(rec) = rec.as_deref_mut() {
        rec.record(id, trace::LOCK_RPC, t);
    }
    let t = Instant::now();
    let io = if op.is_write() {
        buf.resize(op.io_len as usize, 0);
        fill_stamp(buf, op.client, op.seq);
        published[op.client as usize].store(op.seq, Ordering::SeqCst);
        client.write(PATH, op.io_off, buf).map(|()| true)
    } else {
        client.read(PATH, op.io_off, op.io_len).map(|data| {
            let seen = |c: usize| published[c].load(Ordering::SeqCst);
            data.len() == op.io_len as usize && bad_units(layout, &data, op.io_off, seen) == 0
        })
    };
    if let Some(rec) = rec.as_deref_mut() {
        rec.record(id, trace::IO_RPC, t);
    }
    let t = Instant::now();
    let unlocked = client.unlock(PATH, op.range);
    if let Some(rec) = rec {
        rec.record(id, trace::UNLOCK_RPC, t);
    }
    let ok = io?;
    unlocked?;
    Ok(ok)
}
