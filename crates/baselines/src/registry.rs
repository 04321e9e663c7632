//! The dynamic lock registry: every paper variant by name, constructible at
//! runtime.
//!
//! The evaluation (Section 7) compares five range-lock variants — the two
//! list-based locks of this paper plus three baselines — and before this
//! registry existed every driver that swept "all variants" (ArrBench,
//! FileBench, the test suites) hand-rolled its own `enum AnyLock { … }` with
//! five-way `match`es on every operation. The registry replaces those with
//! one table built on the object-safe [`DynTwoPhaseRwRangeLock`] layer of the
//! core crate:
//!
//! * every variant is exposed through the **reader-writer** interface; the
//!   exclusive-only locks (`list-ex`, `lustre-ex`) implement it with reads
//!   that are exclusive too, so their readers serialize — exactly the cost
//!   the paper's reader-writer variants exist to remove;
//! * every variant comes back as one form, `Box<dyn DynTwoPhaseRwRangeLock>`,
//!   which carries the blocking, `try_`, two-phase, timed, batched and async
//!   acquisition surfaces;
//! * construction is **wait-policy aware**: [`VariantSpec::build_twophase`]
//!   takes a [`WaitPolicyKind`] and instantiates the lock with the
//!   corresponding compile-time policy (`Spin` / `SpinThenYield` / `Block`);
//!   [`VariantSpec::build_with_stats`] additionally attaches wait statistics;
//! * the segment lock's static partitioning is supplied through
//!   [`RegistryConfig`] (span + segment count); the list and tree locks
//!   ignore it.
//!
//! A boxed registry lock implements [`range_lock::RwRangeLock`] and
//! [`range_lock::TwoPhaseRwRangeLock`] itself (see `range_lock::dynlock`),
//! so it plugs into every generic subsystem — the file store, the lock
//! table, the benchmark drivers — unchanged.
//!
//! # Examples
//!
//! ```
//! use range_lock::{Range, RwRangeLock};
//! use rl_baselines::registry::{self, RegistryConfig};
//! use rl_sync::wait::WaitPolicyKind;
//!
//! for spec in registry::all() {
//!     let lock = spec.build_twophase(WaitPolicyKind::SpinThenYield, &RegistryConfig::default());
//!     let guard = lock.write(Range::new(0, 100));
//!     drop(guard);
//! }
//! let list_rw = registry::by_name("list-rw").expect("paper variant");
//! assert!(list_rw.readers_share);
//! ```

use std::sync::Arc;

use range_lock::{DynTwoPhaseRwRangeLock, ListRangeLock, RwListRangeLock};
use rl_sync::stats::WaitStats;
use rl_sync::wait::{Block, Spin, SpinThenYield, WaitPolicyKind};

use crate::segment_lock::SegmentRangeLock;
use crate::sem_lock::WholeSpaceSem;
use crate::tree_lock::{RwTreeRangeLock, TreeRangeLock};

/// Build-time parameters for variants that statically partition the resource
/// (today only `pnova-rw`); the list and tree locks ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Total span `[0, span)` the segment lock partitions.
    pub span: u64,
    /// Number of equal segments the span is split into.
    pub segments: usize,
    /// When `true`, the segment lock rebalances its partitioning from
    /// per-segment contention (geometry-derived
    /// [`AdaptiveConfig`](crate::AdaptiveConfig) defaults:
    /// hot segments split, cold runs coalesce). The signal is parking, so
    /// this is only effective under [`WaitPolicyKind::Block`]; spinning
    /// policies never park and their tables only drift toward the coalesced
    /// floor. Off by default — the static layout is what the paper measures.
    pub adaptive_segments: bool,
}

impl Default for RegistryConfig {
    /// One segment per 4 KiB page of a 1 MiB resource — pNOVA's natural
    /// granularity and the FileBench default — with the static layout.
    fn default() -> Self {
        RegistryConfig {
            span: 1 << 20,
            segments: 1 << 8,
            adaptive_segments: false,
        }
    }
}

/// Builds the segment lock for `config`, enabling adaptive rebalancing when
/// requested.
fn make_segment_lock<P: rl_sync::wait::WaitPolicy>(config: &RegistryConfig) -> SegmentRangeLock<P> {
    let lock = SegmentRangeLock::<P>::with_policy(config.span, config.segments);
    if config.adaptive_segments {
        lock.adaptive()
    } else {
        lock
    }
}

/// Instantiates a lock for each of the three wait policies.
macro_rules! per_policy {
    ($wait:expr, $p:ident => $make:expr) => {
        match $wait {
            WaitPolicyKind::Spin => {
                type $p = Spin;
                Box::new($make)
            }
            WaitPolicyKind::SpinThenYield => {
                type $p = SpinThenYield;
                Box::new($make)
            }
            WaitPolicyKind::Block => {
                type $p = Block;
                Box::new($make)
            }
        }
    };
}

/// Attaches the acquisition [`WaitStats`] sink to `lock` when one was asked
/// for.
fn attach<L>(lock: L, stats: Option<Arc<WaitStats>>, with_stats: fn(L, Arc<WaitStats>) -> L) -> L {
    match stats {
        Some(stats) => with_stats(lock, stats),
        None => lock,
    }
}

/// Constructor shape of every registry row: wait policy, config, optional
/// acquisition [`WaitStats`], optional internal-spin-lock stats.
type Ctor = fn(
    WaitPolicyKind,
    &RegistryConfig,
    Option<Arc<WaitStats>>,
    Option<Arc<WaitStats>>,
) -> Box<dyn DynTwoPhaseRwRangeLock>;

/// One registry entry: a paper variant's stable name, its sharing semantics,
/// and its constructor.
pub struct VariantSpec {
    /// Stable name matching the paper's figure legends (`"list-rw"`, …).
    pub name: &'static str,
    /// `true` if overlapping readers share under this variant; `false` for
    /// the exclusive locks, whose "readers" serialize.
    pub readers_share: bool,
    /// `true` if the variant guards its internal metadata with a spin lock
    /// whose wait time the paper reports separately (Figure 8: the tree-based
    /// locks). Callers that want that breakdown pass a second [`WaitStats`]
    /// to [`VariantSpec::build_with_stats`]; the other variants ignore it.
    pub internal_spinlock: bool,
    ctor: Ctor,
}

impl VariantSpec {
    /// Constructs this variant waiting through `wait`, configured by `config`
    /// (only `pnova-rw` reads it).
    ///
    /// The returned lock exposes the whole acquisition surface: blocking and
    /// `try_` through `RwRangeLock`, and — since
    /// `Box<dyn DynTwoPhaseRwRangeLock>` implements `TwoPhaseRwRangeLock`
    /// itself — the enqueue/poll/cancel protocol, the timed, async and
    /// batched acquisitions, and the `rl-file` lock table's deadlock-checked
    /// paths. `wait` only governs how *sync* waiters wait; async waiters
    /// always suspend on wakers.
    pub fn build_twophase(
        &self,
        wait: WaitPolicyKind,
        config: &RegistryConfig,
    ) -> Box<dyn DynTwoPhaseRwRangeLock> {
        (self.ctor)(wait, config, None, None)
    }

    /// Constructs this variant reporting acquisition wait times into `stats`.
    ///
    /// `spin_stats` additionally instruments the lock's *internal* metadata
    /// spin lock when the variant has one (see
    /// [`VariantSpec::internal_spinlock`]); the list and segment variants
    /// ignore it. This is the constructor the VM simulator uses to feed the
    /// Figure 7 (lock wait) and Figure 8 (tree spin wait) breakdowns.
    pub fn build_with_stats(
        &self,
        wait: WaitPolicyKind,
        config: &RegistryConfig,
        stats: Arc<WaitStats>,
        spin_stats: Option<Arc<WaitStats>>,
    ) -> Box<dyn DynTwoPhaseRwRangeLock> {
        (self.ctor)(wait, config, Some(stats), spin_stats)
    }
}

impl std::fmt::Debug for VariantSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VariantSpec")
            .field("name", &self.name)
            .field("readers_share", &self.readers_share)
            .finish()
    }
}

fn build_list_ex(
    wait: WaitPolicyKind,
    _config: &RegistryConfig,
    stats: Option<Arc<WaitStats>>,
    _spin: Option<Arc<WaitStats>>,
) -> Box<dyn DynTwoPhaseRwRangeLock> {
    per_policy!(wait, P => attach(ListRangeLock::<P>::with_policy(), stats, ListRangeLock::with_stats))
}

fn build_list_rw(
    wait: WaitPolicyKind,
    _config: &RegistryConfig,
    stats: Option<Arc<WaitStats>>,
    _spin: Option<Arc<WaitStats>>,
) -> Box<dyn DynTwoPhaseRwRangeLock> {
    per_policy!(wait, P => attach(RwListRangeLock::<P>::with_policy(), stats, RwListRangeLock::with_stats))
}

fn build_lustre_ex(
    wait: WaitPolicyKind,
    _config: &RegistryConfig,
    stats: Option<Arc<WaitStats>>,
    spin: Option<Arc<WaitStats>>,
) -> Box<dyn DynTwoPhaseRwRangeLock> {
    per_policy!(wait, P => {
        let lock = match spin {
            Some(s) => TreeRangeLock::<P>::with_policy_spin_stats(s),
            None => TreeRangeLock::<P>::with_policy(),
        };
        attach(lock, stats, TreeRangeLock::with_stats)
    })
}

fn build_kernel_rw(
    wait: WaitPolicyKind,
    _config: &RegistryConfig,
    stats: Option<Arc<WaitStats>>,
    spin: Option<Arc<WaitStats>>,
) -> Box<dyn DynTwoPhaseRwRangeLock> {
    per_policy!(wait, P => {
        let lock = match spin {
            Some(s) => RwTreeRangeLock::<P>::with_policy_spin_stats(s),
            None => RwTreeRangeLock::<P>::with_policy(),
        };
        attach(lock, stats, RwTreeRangeLock::with_stats)
    })
}

fn build_pnova_rw(
    wait: WaitPolicyKind,
    config: &RegistryConfig,
    stats: Option<Arc<WaitStats>>,
    _spin: Option<Arc<WaitStats>>,
) -> Box<dyn DynTwoPhaseRwRangeLock> {
    per_policy!(wait, P => attach(make_segment_lock::<P>(config), stats, SegmentRangeLock::with_stats))
}

/// The five paper variants, baselines first, in the order the paper's figure
/// legends list them.
static ALL: [VariantSpec; 5] = [
    VariantSpec {
        name: "lustre-ex",
        readers_share: false,
        internal_spinlock: true,
        ctor: build_lustre_ex,
    },
    VariantSpec {
        name: "kernel-rw",
        readers_share: true,
        internal_spinlock: true,
        ctor: build_kernel_rw,
    },
    VariantSpec {
        name: "pnova-rw",
        readers_share: true,
        internal_spinlock: false,
        ctor: build_pnova_rw,
    },
    VariantSpec {
        name: "list-ex",
        readers_share: false,
        internal_spinlock: false,
        ctor: build_list_ex,
    },
    VariantSpec {
        name: "list-rw",
        readers_share: true,
        internal_spinlock: false,
        ctor: build_list_rw,
    },
];

/// All five paper variants, in figure-legend order (baselines first).
pub fn all() -> &'static [VariantSpec] {
    &ALL
}

/// The reader-writer trio (`kernel-rw`, `pnova-rw`, `list-rw`) the headline
/// sweeps compare.
pub fn readers_share() -> impl Iterator<Item = &'static VariantSpec> {
    ALL.iter().filter(|s| s.readers_share)
}

/// Looks a variant up by its stable name.
pub fn by_name(name: &str) -> Option<&'static VariantSpec> {
    ALL.iter().find(|s| s.name == name)
}

/// Constructs the `stock` baseline — an `mmap_sem`-style
/// [`WholeSpaceSem`] that ignores ranges entirely — behind the same dynamic
/// interface the five range-lock variants use, two-phase surface included.
///
/// Not a registry row: the paper's figures list it separately because it is
/// the *status quo* every variant is measured against, and because a
/// range-ignoring lock would corrupt sweeps that rely on disjoint ranges
/// being concurrent.
pub fn build_stock(
    wait: WaitPolicyKind,
    stats: Option<Arc<WaitStats>>,
) -> Box<dyn DynTwoPhaseRwRangeLock> {
    per_policy!(wait, P => match stats {
        Some(s) => WholeSpaceSem::<P>::with_policy_stats(s),
        None => WholeSpaceSem::<P>::with_policy(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use range_lock::{BatchMode, Range, RwRangeLock, TwoPhaseRwRangeLock};

    #[test]
    fn registry_lists_the_five_paper_variants_in_legend_order() {
        let names: Vec<&str> = all().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["lustre-ex", "kernel-rw", "pnova-rw", "list-ex", "list-rw"]
        );
        assert_eq!(readers_share().count(), 3);
    }

    #[test]
    fn by_name_round_trips() {
        for spec in all() {
            let found = by_name(spec.name).expect("every variant resolvable");
            assert_eq!(found.name, spec.name);
        }
        assert!(by_name("no-such-lock").is_none());
    }

    #[test]
    fn built_names_match_spec_names() {
        for spec in all() {
            for wait in WaitPolicyKind::ALL {
                let lock = spec.build_twophase(wait, &RegistryConfig::default());
                assert_eq!(lock.dyn_name(), spec.name, "under {}", wait.name());
            }
        }
    }

    /// One row of the surface table: a name, its sharing semantics, and a
    /// builder.
    struct Row {
        name: &'static str,
        readers_share: bool,
        /// `false` for `stock`, which conflicts across disjoint ranges.
        disjoint_independent: bool,
        build: Box<dyn Fn(WaitPolicyKind) -> Box<dyn DynTwoPhaseRwRangeLock>>,
    }

    /// The five registry variants plus `stock`.
    fn rows() -> Vec<Row> {
        let config = RegistryConfig {
            span: 256,
            segments: 32,
            adaptive_segments: false,
        };
        let mut rows: Vec<Row> = all()
            .iter()
            .map(|spec| Row {
                name: spec.name,
                readers_share: spec.readers_share,
                disjoint_independent: true,
                build: Box::new(move |wait| spec.build_twophase(wait, &config)),
            })
            .collect();
        rows.push(Row {
            name: "stock",
            readers_share: true,
            disjoint_independent: false,
            build: Box::new(|wait| build_stock(wait, None)),
        });
        rows
    }

    /// Polls `fut` once with a no-op waker.
    fn poll_once<F: std::future::Future + Unpin>(fut: &mut F) -> std::task::Poll<F::Output> {
        let mut cx = std::task::Context::from_waker(std::task::Waker::noop());
        std::pin::Pin::new(fut).poll(&mut cx)
    }

    #[test]
    fn every_variant_locks_and_conflicts_through_dyn_dispatch() {
        for row in rows() {
            for wait in WaitPolicyKind::ALL {
                let lock = (row.build)(wait);
                let name = row.name;
                assert_eq!(lock.dyn_name(), name, "under {}", wait.name());
                assert_eq!(lock.readers_share(), row.readers_share);

                // Blocking and try acquisition.
                let w = lock.write(Range::new(0, 64));
                assert!(
                    lock.try_write(Range::new(32, 96)).is_none(),
                    "{name}: overlapping writers must conflict"
                );
                drop(w);
                let r1 = lock.read(Range::new(0, 64));
                let r2 = lock.try_read(Range::new(0, 64));
                assert_eq!(
                    r2.is_some(),
                    row.readers_share,
                    "{name}: reader sharing must match the spec"
                );
                drop(r2);
                drop(r1);
            }
        }
    }

    #[test]
    fn async_built_variants_resolve_and_cancel_through_dyn_dispatch() {
        for row in rows() {
            for wait in WaitPolicyKind::ALL {
                let lock = (row.build)(wait);
                let name = row.name;
                assert_eq!(lock.dyn_name(), name, "under {}", wait.name());
                // An uncontended write resolves on the first poll; a
                // conflicting future pends, and dropping it mid-wait cancels.
                let w = match poll_once(&mut lock.write_async(Range::new(0, 64))) {
                    std::task::Poll::Ready(g) => g,
                    std::task::Poll::Pending => panic!("{name}: uncontended write must resolve"),
                };
                let mut blocked = lock.write_async(Range::new(32, 96));
                assert!(poll_once(&mut blocked).is_pending());
                drop(blocked);
                drop(w);
                assert!(
                    lock.try_write(Range::new(0, 256)).is_some(),
                    "{name}: cancelled future left residue"
                );
                // Reader sharing matches the spec through the async path too.
                let r1 = match poll_once(&mut lock.read_async(Range::new(0, 64))) {
                    std::task::Poll::Ready(g) => g,
                    std::task::Poll::Pending => panic!("{name}: uncontended read must resolve"),
                };
                let r2 = lock.try_read(Range::new(0, 64));
                assert_eq!(r2.is_some(), row.readers_share, "{name}");
                drop(r2);
                drop(r1);
            }
        }
    }

    #[test]
    fn twophase_built_variants_run_the_protocol_and_batches() {
        for row in rows() {
            for wait in WaitPolicyKind::ALL {
                let lock = (row.build)(wait);
                let name = row.name;
                assert_eq!(lock.dyn_name(), name, "under {}", wait.name());
                assert_eq!(lock.readers_share(), row.readers_share);
                // Enqueue/poll/cancel round trip through the erased tokens.
                let mut p = lock.enqueue_write(Range::new(0, 64));
                let g = lock
                    .poll_write(&mut p)
                    .expect("uncontended write polls ready");
                let mut blocked = lock.enqueue_write(Range::new(32, 96));
                assert!(lock.poll_write(&mut blocked).is_none());
                lock.cancel_write(&mut blocked);
                drop(g);
                // The batch surface comes along: all-or-nothing over
                // disjoint items, which `stock` cannot hold together.
                let guards = lock.try_acquire_many(&[
                    (Range::new(0, 32), BatchMode::Write),
                    (Range::new(64, 96), BatchMode::Read),
                ]);
                assert_eq!(guards.is_some(), row.disjoint_independent, "{name}");
                if let Some(guards) = guards {
                    assert_eq!(guards.len(), 2);
                }
                assert!(
                    lock.try_write(Range::new(0, 256)).is_some(),
                    "{name}: protocol left residue"
                );
            }
        }
    }

    #[test]
    fn stats_built_variants_record_waits_and_spins() {
        for spec in all() {
            for wait in WaitPolicyKind::ALL {
                let stats = Arc::new(WaitStats::new(spec.name));
                let spin = spec
                    .internal_spinlock
                    .then(|| Arc::new(WaitStats::new("spin")));
                let lock = spec.build_with_stats(
                    wait,
                    &RegistryConfig::default(),
                    Arc::clone(&stats),
                    spin.clone(),
                );
                assert_eq!(lock.dyn_name(), spec.name, "under {}", wait.name());
                drop(lock.write(Range::new(0, 64)));
                drop(lock.read(Range::new(0, 64)));
                let snap = stats.snapshot();
                assert!(
                    snap.acquisitions >= 2,
                    "{}: acquisitions must reach the attached stats",
                    spec.name
                );
                if let Some(spin) = spin {
                    // The internal spin lock only records *contended*
                    // acquisitions, so an uncontended smoke sees zero waits —
                    // but never spurious ones.
                    assert_eq!(
                        spin.snapshot().write_waits,
                        0,
                        "{}: uncontended spin lock must not record waits",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn stock_builder_serializes_disjoint_ranges() {
        for wait in WaitPolicyKind::ALL {
            let stats = Arc::new(WaitStats::new("stock"));
            let lock = build_stock(wait, Some(Arc::clone(&stats)));
            assert_eq!(lock.dyn_name(), "stock");
            let w = lock.write(Range::new(0, 8));
            assert!(
                lock.try_read(Range::new(1 << 30, 1 << 31)).is_none(),
                "stock must conflict across disjoint ranges"
            );
            drop(w);
            assert!(stats.snapshot().acquisitions > 0);
        }
    }

    #[test]
    fn boxed_registry_lock_is_a_generic_rw_lock() {
        // The whole point: a runtime-chosen variant drives RwRangeLock-generic
        // code with no enum in sight.
        fn exercise<L: RwRangeLock>(lock: &L) {
            drop(lock.write(Range::new(0, 8)));
            drop(lock.read(Range::new(0, 8)));
        }
        for spec in all() {
            let lock =
                spec.build_twophase(WaitPolicyKind::SpinThenYield, &RegistryConfig::default());
            exercise(&lock);
        }
    }
}
