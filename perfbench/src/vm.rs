//! The vm-arena workload: the paper's GLIBC-arena pattern, generated here
//! and sent straight to `Mm::mmap/mprotect/page_fault` so each call can
//! be timed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rl_vm::{page_align_up, Mm, Protection, Strategy, VmError, VmStats, PAGE_SIZE};

use crate::gen::{arena_base, chunk_sizes, ARENA_SIZE, RESET_EVERY};
use crate::trace::{self, Recorder};
use crate::window::{closed_loop, Window};

/// The strategy every vm run uses: the paper's list lock, refined page
/// faults and speculative `mprotect`.
pub const STRATEGY: Strategy = Strategy::LIST_REFINED;

/// One thread's arena as the generator models it.
#[derive(Clone, Debug)]
pub struct Arena {
    thread: usize,
    base: u64,
    /// First byte past the last allocation.
    used: u64,
    /// Bytes at the start of the arena currently read-write.
    committed: u64,
    /// Chunks run so far.
    chunk: u64,
    /// Calls made, to compare with `VmStats`.
    pub mprotects: u64,
    pub faults: u64,
}

impl Arena {
    /// The protection map this arena must have: its committed prefix
    /// read-write, the rest `PROT_NONE`.
    fn expected_layout(&self) -> Vec<(u64, u64, Protection)> {
        let end = self.base + ARENA_SIZE;
        let split = self.base + self.committed;
        let mut out = Vec::new();
        if self.committed > 0 {
            out.push((self.base, split, Protection::READ_WRITE));
        }
        if split < end {
            out.push((split, end, Protection::NONE));
        }
        out
    }

    /// One op: 256 allocations (grow with `mprotect(READ_WRITE)` and
    /// write-fault each new page, then read-fault the allocation), and on
    /// every `RESET_EVERY`-th chunk a reset with `mprotect(NONE)`.
    pub fn run_chunk(
        &mut self,
        mm: &Mm,
        seed: u64,
        mut rec: Option<&mut Recorder>,
    ) -> Result<(), VmError> {
        self.chunk += 1;
        let id = ((self.thread as u64) << 48) | self.chunk;
        for size in chunk_sizes(seed, self.thread, self.chunk) {
            let addr = self.base + self.used;
            self.used += size as u64;
            if self.used > self.committed {
                let grown = page_align_up(self.used);
                let t = Instant::now();
                self.mprotects += 1;
                mm.mprotect(
                    self.base + self.committed,
                    grown - self.committed,
                    Protection::READ_WRITE,
                )?;
                if let Some(rec) = rec.as_deref_mut() {
                    rec.record(id, trace::MPROTECT, t);
                }
                let mut page = self.base + self.committed;
                while page < self.base + grown {
                    let t = Instant::now();
                    self.faults += 1;
                    mm.page_fault(page, true)?;
                    if let Some(rec) = rec.as_deref_mut() {
                        rec.record(id, trace::PAGE_FAULT, t);
                    }
                    page += PAGE_SIZE;
                }
                self.committed = grown;
            }
            let t = Instant::now();
            self.faults += 1;
            mm.page_fault(addr, false)?;
            if let Some(rec) = rec.as_deref_mut() {
                rec.record(id, trace::PAGE_FAULT, t);
            }
        }
        if self.chunk.is_multiple_of(RESET_EVERY) {
            let t = Instant::now();
            self.mprotects += 1;
            mm.mprotect(self.base, self.committed, Protection::NONE)?;
            if let Some(rec) = rec {
                rec.record(id, trace::MPROTECT, t);
            }
            self.committed = 0;
            self.used = 0;
        }
        Ok(())
    }
}

/// One `Mm` with one mapped arena per thread.
pub struct Rig {
    pub mm: Arc<Mm>,
    pub arenas: Vec<Arena>,
    pub seed: u64,
}

impl Rig {
    /// Creates the address space and maps every arena `PROT_NONE`.
    pub fn setup(threads: usize, seed: u64) -> Result<Rig, VmError> {
        let mm = Arc::new(Mm::new(STRATEGY));
        let mut arenas = Vec::with_capacity(threads);
        for thread in 0..threads {
            let base = mm.mmap(Some(arena_base(thread)), ARENA_SIZE, Protection::NONE)?;
            arenas.push(Arena {
                thread,
                base,
                used: 0,
                committed: 0,
                chunk: 0,
                mprotects: 0,
                faults: 0,
            });
        }
        Ok(Rig { mm, arenas, seed })
    }

    /// Runs one thread per arena closed-loop for `warmup`, then measures
    /// for `window`, recording spans when `traced`.
    pub fn run(&mut self, warmup: Duration, window: Duration, traced: bool) -> Window {
        let (mm, seed) = (&*self.mm, self.seed);
        closed_loop(
            &mut self.arenas,
            warmup,
            window,
            traced,
            |arena, mut rec| {
                let started = Instant::now();
                let ok = arena.run_chunk(mm, seed, rec.as_deref_mut()).is_ok();
                if let Some(rec) = rec {
                    let id = ((arena.thread as u64) << 48) | arena.chunk;
                    rec.record(id, trace::CHUNK, started);
                }
                ok
            },
        )
    }

    /// The counts `VmStats` must show for the calls made so far.
    pub fn expected_stats(&self) -> (u64, u64, u64) {
        let mprotects = self.arenas.iter().map(|a| a.mprotects).sum();
        let faults = self.arenas.iter().map(|a| a.faults).sum();
        (self.arenas.len() as u64, mprotects, faults)
    }

    /// Mismatches between the calls made and what the `Mm` reports: one
    /// for wrong call counts, one for a protection map that differs from
    /// the generator's model (adjacent equal-protection VMAs are merged
    /// before comparing — splitting is the simulator's business).
    pub fn final_check(&self) -> u64 {
        let stats = self.mm.stats();
        let (mmaps, mprotects, faults) = self.expected_stats();
        let counts_ok = stats.mmaps == mmaps
            && stats.munmaps == 0
            && stats.mprotects == mprotects
            && stats.page_faults == faults;
        let expected: Vec<_> = self
            .arenas
            .iter()
            .flat_map(Arena::expected_layout)
            .collect();
        let layout_ok = coalesce(self.mm.vma_snapshot()) == expected;
        if !counts_ok {
            eprintln!("vm-arena: VmStats {stats:?} != calls made (mmaps {mmaps}, mprotects {mprotects}, faults {faults})");
        }
        if !layout_ok {
            eprintln!("vm-arena: final VMA layout differs from the generator's model");
        }
        u64::from(!counts_ok) + u64::from(!layout_ok)
    }
}

/// Merges adjacent VMAs of equal protection.
fn coalesce(vmas: Vec<(u64, u64, Protection)>) -> Vec<(u64, u64, Protection)> {
    let mut out: Vec<(u64, u64, Protection)> = Vec::with_capacity(vmas.len());
    for (start, end, prot) in vmas {
        match out.last_mut() {
            Some(last) if last.1 == start && last.2 == prot => last.1 = end,
            _ => out.push((start, end, prot)),
        }
    }
    out
}

/// How much each `VmStats` counter moved between two snapshots.
pub fn stats_delta(before: VmStats, after: VmStats) -> VmStats {
    VmStats {
        mmaps: after.mmaps - before.mmaps,
        munmaps: after.munmaps - before.munmaps,
        mprotects: after.mprotects - before.mprotects,
        page_faults: after.page_faults - before.page_faults,
        spec_success: after.spec_success - before.spec_success,
        spec_retries: after.spec_retries - before.spec_retries,
        spec_structural_fallback: after.spec_structural_fallback - before.spec_structural_fallback,
        vmacache_hits: after.vmacache_hits - before.vmacache_hits,
        vmacache_misses: after.vmacache_misses - before.vmacache_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_thread_stats(seed: u64, chunks: u64) -> (VmStats, (u64, u64, u64), u64) {
        let mut rig = Rig::setup(1, seed).unwrap();
        for _ in 0..chunks {
            rig.arenas[0].run_chunk(&rig.mm, seed, None).unwrap();
        }
        (rig.mm.stats(), rig.expected_stats(), rig.final_check())
    }

    #[test]
    fn one_thread_vm_stats_repeat_exactly() {
        let _serial = crate::serial();
        let (a, made, bad) = one_thread_stats(11, 300);
        let (b, _, _) = one_thread_stats(11, 300);
        assert_eq!(a, b);
        assert_eq!(bad, 0);
        assert_eq!((a.mmaps, a.mprotects, a.page_faults), made);
        // Each chunk read-faults all 256 allocations.
        assert!(a.page_faults > 300 * 256);
        assert!(a.spec_success > 0);
    }

    #[test]
    fn layout_check_catches_a_foreign_mprotect() {
        let _serial = crate::serial();
        let mut rig = Rig::setup(1, 5).unwrap();
        rig.arenas[0].run_chunk(&rig.mm, 5, None).unwrap();
        assert_eq!(rig.final_check(), 0);
        let base = rig.arenas[0].base;
        rig.mm.mprotect(base, PAGE_SIZE, Protection::READ).unwrap();
        assert_eq!(rig.final_check(), 2);
    }
}
