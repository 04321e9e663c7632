//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions; written out as CSV when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Span names, indexed by [`Span::layer`].
pub const LAYERS: [&str; 7] = [
    "op",
    "client.lock_rpc",
    "client.io_rpc",
    "client.unlock_rpc",
    "vm.mprotect",
    "vm.page_fault",
    "vm.chunk",
];
pub const OP: u8 = 0;
pub const LOCK_RPC: u8 = 1;
pub const IO_RPC: u8 = 2;
pub const UNLOCK_RPC: u8 = 3;
pub const MPROTECT: u8 = 4;
pub const PAGE_FAULT: u8 = 5;
pub const CHUNK: u8 = 6;

/// Spans kept per recorder; later spans still feed the samples.
const SPAN_CAP: usize = 1 << 16;
/// Duration samples kept per layer per recorder.
const SAMPLE_CAP: usize = 1 << 20;

/// One timed call. Spans of one op share `op`; the `op` layer (or
/// `vm.chunk`) span is the parent of the others.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u64,
    pub layer: u8,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One thread's spans plus raw duration samples per layer.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub samples: Vec<Vec<u64>>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            samples: vec![Vec::new(); LAYERS.len()],
        }
    }

    /// Records a call to `layer` that started at `start` and just ended.
    pub fn record(&mut self, op: u64, layer: u8, start: Instant) {
        let end = Instant::now();
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        let samples = &mut self.samples[layer as usize];
        if samples.len() < SAMPLE_CAP {
            samples.push(dur_ns);
        }
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                op,
                layer,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
            });
        }
    }

    /// Folds another recorder (another thread's) into this one.
    pub fn merge(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
    }
}

/// CSV of the spans: `op,layer,start_ns,dur_ns`, ordered by start.
pub fn spans_csv(spans: &mut [Span]) -> String {
    spans.sort_by_key(|s| s.start_ns);
    let mut out = String::from("op,layer,start_ns,dur_ns\n");
    for s in spans.iter() {
        let _ = writeln!(
            out,
            "{:#x},{},{},{}",
            s.op, LAYERS[s.layer as usize], s.start_ns, s.dur_ns
        );
    }
    out
}
