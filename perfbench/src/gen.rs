//! Seeded op generators for the three workloads.
//!
//! Every op is a pure function of `(seed, stream, index)`, so a run can
//! regenerate any op it needs later — the stamp checks do exactly that to
//! decide whether a stamp found in the file was really written over the
//! bytes it sits on.

use range_lock::Range;
use rl_file::LockMode;

/// Number of client connections (or arena threads) every workload runs.
pub const CLIENTS: usize = 2;

/// The one shared file every service workload works on.
pub const PATH: &str = "/perfbench/data";

/// Bytes of one stamp: magic, client, sequence number and a check word.
pub const STAMP: usize = 16;

/// Client id written by set-up, before any client op.
pub const SETUP_CLIENT: u16 = 0xffff;

/// The workloads `--workload` accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Exclusive lock → 256 B write → unlock on each client's own slots.
    SvcDisjoint,
    /// Shared-read / exclusive-write mix on a small overlapping hot set,
    /// past several hundred resident shared ranges per session.
    SvcOverlap,
    /// GLIBC-arena pattern (grow, first-touch, read, reset) on one `Mm`.
    VmArena,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SvcDisjoint,
        Workload::SvcOverlap,
        Workload::VmArena,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SvcDisjoint => "svc-disjoint",
            Workload::SvcOverlap => "svc-overlap",
            Workload::VmArena => "vm-arena",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: tiny, seedable, and good enough to spread ops around.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The generator of op `index` on `stream` under `seed`.
    pub fn for_op(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ 0x5851_f42d_4c95_7f2d);
        let a = r.next_u64() ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut r = Rng(a);
        Rng(r.next_u64() ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One service op: lock `range` in `mode`, then read (shared) or write
/// (exclusive) `io_len` bytes at `io_off`, then unlock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SvcOp {
    pub client: u16,
    /// 1-based per-client sequence number; stamps carry it.
    pub seq: u64,
    pub range: Range,
    pub mode: LockMode,
    pub io_off: u64,
    pub io_len: u32,
}

impl SvcOp {
    pub fn is_write(&self) -> bool {
        self.mode == LockMode::Exclusive
    }
}

// svc-disjoint geometry: 64 slots of 4 KiB, slot `s` owned by client
// `s % CLIENTS`; each write covers one 256 B block of the slot.
const SLOT: u64 = 4096;
const SLOTS: u64 = 64;
const BLOCK: u64 = 256;

// svc-overlap geometry: GROUPS × (CELLS resident cells of 256 B, then a
// 4 KiB churn zone). Client `c` holds `[cell + c * 128, + 64)` shared in
// every cell; churned ranges stay inside the zones, so they interleave
// with the residents in address order but never overlap them.
const GROUPS: u64 = 8;
const CELLS: u64 = 32;
const CELL: u64 = 256;
const ZONE: u64 = 4096;
const GROUP: u64 = CELLS * CELL + ZONE;

/// Address layout and op generator of one service workload.
#[derive(Clone, Copy, Debug)]
pub struct SvcLayout {
    pub workload: Workload,
    pub seed: u64,
}

impl SvcLayout {
    pub fn new(workload: Workload, seed: u64) -> SvcLayout {
        assert!(workload != Workload::VmArena, "vm-arena has no file layout");
        SvcLayout { workload, seed }
    }

    /// Bytes of the file the workload touches (set-up fills all of them).
    pub fn file_len(&self) -> u64 {
        match self.workload {
            Workload::SvcDisjoint => SLOTS * SLOT,
            _ => GROUPS * GROUP,
        }
    }

    /// Ranges client `client` holds shared for the whole run.
    pub fn residents(&self, client: usize) -> Vec<Range> {
        match self.workload {
            Workload::SvcDisjoint => Vec::new(),
            _ => (0..GROUPS)
                .flat_map(|g| {
                    (0..CELLS).map(move |j| {
                        let start = g * GROUP + j * CELL + client as u64 * (CELL / 2);
                        Range::new(start, start + CELL / 4)
                    })
                })
                .collect(),
        }
    }

    /// Byte spans whose content ops may change (checked after the run).
    pub fn churn_spans(&self) -> Vec<(u64, u64)> {
        match self.workload {
            Workload::SvcDisjoint => vec![(0, SLOTS * SLOT)],
            _ => (0..GROUPS)
                .map(|g| (g * GROUP + CELLS * CELL, (g + 1) * GROUP))
                .collect(),
        }
    }

    /// Op `seq` (1-based) of `client`.
    pub fn op(&self, client: usize, seq: u64) -> SvcOp {
        let mut rng = Rng::for_op(self.seed, client as u64, seq);
        match self.workload {
            Workload::SvcDisjoint => {
                let slot = rng.below(SLOTS / CLIENTS as u64) * CLIENTS as u64 + client as u64;
                let block = rng.below(SLOT / BLOCK);
                SvcOp {
                    client: client as u16,
                    seq,
                    range: Range::new(slot * SLOT, (slot + 1) * SLOT),
                    mode: LockMode::Exclusive,
                    io_off: slot * SLOT + block * BLOCK,
                    io_len: BLOCK as u32,
                }
            }
            _ => {
                let zone = rng.below(GROUPS) * GROUP + CELLS * CELL;
                let units = 16 + rng.below(49); // 256 B ..= 1 KiB
                let len = units * STAMP as u64;
                let start = zone + rng.below((ZONE - len) / STAMP as u64 + 1) * STAMP as u64;
                let mode = if rng.below(2) == 0 {
                    LockMode::Shared
                } else {
                    LockMode::Exclusive
                };
                SvcOp {
                    client: client as u16,
                    seq,
                    range: Range::new(start, start + len),
                    mode,
                    io_off: start,
                    io_len: len as u32,
                }
            }
        }
    }

    /// Whether a stamp `(client, seq)` found at `offset` is one this
    /// workload could have put there: set-up's, or a write op of that
    /// client that covers the stamp's 16 bytes.
    pub fn stamp_plausible(&self, client: u16, seq: u64, offset: u64) -> bool {
        if client == SETUP_CLIENT {
            return seq == 0;
        }
        if client as usize >= CLIENTS || seq == 0 {
            return false;
        }
        let op = self.op(client as usize, seq);
        op.is_write()
            && op.io_off <= offset
            && offset + STAMP as u64 <= op.io_off + op.io_len as u64
    }
}

fn check_word(client: u16, seq: u64) -> u32 {
    let mut r = Rng(seq ^ ((client as u64) << 48) ^ 0xa076_1d64_78bd_642f);
    r.next_u64() as u32
}

/// Fills `buf` (a multiple of [`STAMP`] long) with copies of one stamp.
pub fn fill_stamp(buf: &mut [u8], client: u16, seq: u64) {
    let mut unit = [0u8; STAMP];
    unit[0] = 0xb5;
    unit[1] = 0x7a;
    unit[2..4].copy_from_slice(&client.to_le_bytes());
    unit[4..12].copy_from_slice(&seq.to_le_bytes());
    unit[12..16].copy_from_slice(&check_word(client, seq).to_le_bytes());
    for chunk in buf.chunks_exact_mut(STAMP) {
        chunk.copy_from_slice(&unit);
    }
}

/// Decodes one 16-byte unit; `None` if it is not a whole, valid stamp.
pub fn read_stamp(unit: &[u8]) -> Option<(u16, u64)> {
    if unit.len() != STAMP || unit[0] != 0xb5 || unit[1] != 0x7a {
        return None;
    }
    let client = u16::from_le_bytes([unit[2], unit[3]]);
    let seq = u64::from_le_bytes(unit[4..12].try_into().expect("8 bytes"));
    let check = u32::from_le_bytes(unit[12..16].try_into().expect("4 bytes"));
    (check == check_word(client, seq)).then_some((client, seq))
}

// vm-arena geometry: one 4 MiB arena per thread at a fixed address, 1 MiB
// of unmapped gap between arenas so no VMA merge can cross them.
const ARENA_BASE: u64 = 0x1000_0000_0000;
pub const ARENA_SIZE: u64 = 4 << 20;
const ARENA_STRIDE: u64 = ARENA_SIZE + (1 << 20);
/// Allocations per chunk (one vm-arena op).
pub const CHUNK_ALLOCS: usize = 256;
/// Every `RESET_EVERY`-th chunk of a thread ends with `mprotect(NONE)`.
pub const RESET_EVERY: u64 = 8;

/// Base address of thread `thread`'s arena.
pub fn arena_base(thread: usize) -> u64 {
    ARENA_BASE + thread as u64 * ARENA_STRIDE
}

/// Allocation sizes of chunk `chunk` (1-based) of `thread`: 16 B ..= 512 B,
/// 16-byte aligned like malloc.
pub fn chunk_sizes(seed: u64, thread: usize, chunk: u64) -> [u32; CHUNK_ALLOCS] {
    let mut rng = Rng::for_op(seed, 0x100 + thread as u64, chunk);
    std::array::from_fn(|_| (1 + rng.below(32) as u32) * 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_generates_one_sequence() {
        let _serial = crate::serial();
        for workload in [Workload::SvcDisjoint, Workload::SvcOverlap] {
            let a = SvcLayout::new(workload, 7);
            let b = SvcLayout::new(workload, 7);
            let c = SvcLayout::new(workload, 8);
            let ops = |l: &SvcLayout| -> Vec<SvcOp> {
                (0..CLIENTS)
                    .flat_map(|client| (1..=2000).map(move |seq| (client, seq)))
                    .map(|(client, seq)| l.op(client, seq))
                    .collect()
            };
            assert_eq!(ops(&a), ops(&b));
            assert_ne!(ops(&a), ops(&c));
        }
        for chunk in 1..200 {
            assert_eq!(chunk_sizes(7, 1, chunk), chunk_sizes(7, 1, chunk));
        }
        assert_ne!(chunk_sizes(7, 1, 1), chunk_sizes(8, 1, 1));
    }

    #[test]
    fn churned_ranges_never_touch_residents() {
        let _serial = crate::serial();
        let layout = SvcLayout::new(Workload::SvcOverlap, 3);
        let residents: Vec<Range> = (0..CLIENTS).flat_map(|c| layout.residents(c)).collect();
        assert_eq!(residents.len(), CLIENTS * (GROUPS * CELLS) as usize);
        for client in 0..CLIENTS {
            for seq in 1..5000 {
                let op = layout.op(client, seq);
                assert!(op.range.end <= layout.file_len());
                assert!(residents.iter().all(|r| !r.overlaps(&op.range)), "{op:?}");
            }
        }
    }

    #[test]
    fn disjoint_clients_never_share_a_slot() {
        let _serial = crate::serial();
        let layout = SvcLayout::new(Workload::SvcDisjoint, 3);
        for client in 0..CLIENTS {
            for seq in 1..5000 {
                let op = layout.op(client, seq);
                assert_eq!((op.range.start / SLOT) as usize % CLIENTS, client);
                assert!(op
                    .range
                    .contains_range(&Range::from_len(op.io_off, op.io_len as u64)));
            }
        }
    }

    #[test]
    fn stamps_round_trip_and_reject_tears() {
        let _serial = crate::serial();
        let mut a = [0u8; 32];
        fill_stamp(&mut a, 1, 42);
        assert_eq!(read_stamp(&a[..16]), Some((1, 42)));
        let mut b = [0u8; 16];
        fill_stamp(&mut b, 0, 43);
        a[8..16].copy_from_slice(&b[8..16]);
        assert_eq!(read_stamp(&a[..16]), None);
    }
}
