//! Single-layer probes: the wire codec and a bare transport round trip.

use std::time::Instant;

use rl_server::wire::{decode_reply, decode_request, encode_reply, encode_request};
use rl_server::{Conn, Reply, Request};

use crate::gen::{fill_stamp, SvcLayout, CLIENTS, PATH};
use crate::stats::{median, Metrics};

/// The requests and replies of the first `ops` ops of `layout`.
fn messages(layout: &SvcLayout, ops: u64) -> (Vec<Request>, Vec<Reply>) {
    let (mut reqs, mut replies) = (Vec::new(), Vec::new());
    for i in 0..ops {
        let op = layout.op((i % CLIENTS as u64) as usize, i / CLIENTS as u64 + 1);
        let mut data = vec![0u8; op.io_len as usize];
        fill_stamp(&mut data, op.client, op.seq);
        let path = PATH.to_string();
        let (start, end) = (op.range.start, op.range.end);
        reqs.push(Request::Lock {
            path: path.clone(),
            start,
            end,
            mode: op.mode,
        });
        replies.push(Reply::Ok);
        if op.is_write() {
            reqs.push(Request::Write {
                path: path.clone(),
                offset: op.io_off,
                data,
            });
            replies.push(Reply::Ok);
        } else {
            reqs.push(Request::Read {
                path: path.clone(),
                offset: op.io_off,
                len: op.io_len,
            });
            replies.push(Reply::Data(data));
        }
        reqs.push(Request::Unlock { path, start, end });
        replies.push(Reply::Ok);
    }
    (reqs, replies)
}

/// Median over `reps` passes of the time per call of `f` over `items`.
fn per_call_ns<T>(items: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    let runs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for item in items {
                f(item);
            }
            t.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .collect();
    median(&runs)
}

/// `wire.*`: codec cost per message and bytes per op. Returns the
/// messages checked and how many failed to round-trip.
pub fn wire(layout: &SvcLayout, metrics: &mut Metrics) -> (u64, u64) {
    const OPS: u64 = 2048;
    const REPS: usize = 31;
    let (reqs, replies) = messages(layout, OPS);
    let req_frames: Vec<Vec<u8>> = reqs.iter().map(encode_request).collect();
    let reply_frames: Vec<Vec<u8>> = replies.iter().map(encode_reply).collect();
    let bad = reqs
        .iter()
        .zip(&req_frames)
        .filter(|(r, f)| decode_request(f).ok().as_ref() != Some(*r))
        .count()
        + replies
            .iter()
            .zip(&reply_frames)
            .filter(|(r, f)| decode_reply(f).ok().as_ref() != Some(*r))
            .count();
    let enc_req = per_call_ns(&reqs, REPS, |r| {
        std::hint::black_box(encode_request(std::hint::black_box(r)));
    });
    let dec_req = per_call_ns(&req_frames, REPS, |f| {
        let _ = std::hint::black_box(decode_request(std::hint::black_box(f)));
    });
    let enc_rep = per_call_ns(&replies, REPS, |r| {
        std::hint::black_box(encode_reply(std::hint::black_box(r)));
    });
    let dec_rep = per_call_ns(&reply_frames, REPS, |f| {
        let _ = std::hint::black_box(decode_reply(std::hint::black_box(f)));
    });
    let bytes: usize = req_frames.iter().chain(&reply_frames).map(Vec::len).sum();
    metrics.push("wire.encode_request_ns", enc_req, "ns");
    metrics.push("wire.decode_request_ns", dec_req, "ns");
    metrics.push("wire.encode_reply_ns", enc_rep, "ns");
    metrics.push("wire.decode_reply_ns", dec_rep, "ns");
    metrics.push("wire.bytes_per_op", bytes as f64 / OPS as f64, "bytes");
    ((reqs.len() + replies.len()) as u64, bad as u64)
}

/// `transport.roundtrip_p50_us`: one lock-request-sized frame over
/// `Conn::pair` to an echo thread and back. Returns the round trips made
/// and how many failed.
pub fn transport(layout: &SvcLayout, metrics: &mut Metrics) -> (u64, u64) {
    const WARM: usize = 2000;
    const N: usize = 20000;
    let op = layout.op(0, 1);
    let frame = encode_request(&Request::Lock {
        path: PATH.to_string(),
        start: op.range.start,
        end: op.range.end,
        mode: op.mode,
    });
    let (near, far) = Conn::pair();
    let mut samples = Vec::with_capacity(N);
    let mut failed = 0;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Some(f) = far.recv_blocking() {
                if far.send(&f).is_err() {
                    break;
                }
            }
        });
        for i in 0..WARM + N {
            let t = Instant::now();
            let back = near.send(&frame).ok().and_then(|()| near.recv_blocking());
            if i >= WARM {
                samples.push(t.elapsed().as_nanos() as u64);
            }
            failed += u64::from(back.as_deref() != Some(&frame[..]));
        }
        near.close();
    });
    metrics.push_quantile("transport.roundtrip_p50_us", &mut samples, 0.5, 1e3, "us");
    ((WARM + N) as u64, failed)
}
