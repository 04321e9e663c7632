//! `repro` — regenerate every figure of the paper on the current machine.
//!
//! Every experiment is declared once, as a row of [`EXPERIMENTS`]: its
//! name, a one-line help, the function that measures its tables, and the
//! committed baseline (if any) that `perfdiff` gates it against. `repro
//! --help` prints the table.
//!
//! `--quick` (default) uses scaled-down inputs that finish in a couple of
//! minutes on a laptop; `--full` uses larger inputs closer to the paper's
//! per-thread work. Shapes — who wins and by roughly how much — are what to
//! compare; absolute numbers depend on the machine.

use std::sync::OnceLock;
use std::time::Duration;

use range_lock::{ListLockConfig, ListRangeLock, Range, RwListRangeLock};
use rl_baselines::{registry, RwTreeRangeLock, SegmentRangeLock, TreeRangeLock};
use rl_bench::arrbench::{self, ArrBenchConfig, RangePolicy};
use rl_bench::asyncbench::{self, AsyncBenchConfig, AsyncBenchResult, AsyncDriver};
use rl_bench::batchbench::{self, BatchBenchConfig, BatchDriver};
use rl_bench::filebench::{self, FileBenchConfig, OffsetDist};
use rl_bench::metisbench::{self, MetisScale};
use rl_bench::obsbench::{self, best_ns_per_op};
use rl_bench::parkbench;
use rl_bench::perfdiff;
use rl_bench::report::Table;
use rl_bench::serverbench::{self, ServerBenchConfig};
use rl_bench::skipbench::{self, SkipBenchConfig, SkipListVariant};
use rl_metis::Workload;
use rl_sync::wait::Block;
use rl_sync::WaitPolicyKind;
use rl_vm::Strategy;

/// One experiment: everything `main`, `all`, `--help` and `perfdiff` know
/// about it.
struct Experiment {
    name: &'static str,
    help: &'static str,
    /// Measures the experiment's tables.
    tables: fn(&Options) -> Vec<Table>,
    /// Whether `all` runs it (the bounded CI smokes are left out).
    in_all: bool,
    /// Committed `--quick --json` output that `perfdiff` diffs against.
    baseline: Option<&'static str>,
    /// Title substrings of tables `perfdiff` leaves out of the gate. They
    /// stay in the committed baseline for reference; unmatched baseline
    /// tables skip.
    ungated: &'static [&'static str],
}

/// Every experiment, in the order `all`, `--help` and `perfdiff` run them.
///
/// `obsbench` is last: it installs the process-global recorder, and every
/// earlier experiment (the `fastpath` cells above all) should measure the
/// pristine, never-installed state the baselines were recorded under.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig3-full",
        help: "ArrBench, all threads acquire the full range",
        tables: |o| fig3(RangePolicy::FullRange, o),
        in_all: true,
        baseline: None,
        ungated: &[],
    },
    Experiment {
        name: "fig3-nonoverlap",
        help: "ArrBench, per-thread disjoint ranges",
        tables: |o| fig3(RangePolicy::NonOverlapping, o),
        in_all: true,
        baseline: None,
        ungated: &[],
    },
    Experiment {
        name: "fig3-random",
        help: "ArrBench, random ranges",
        tables: |o| fig3(RangePolicy::Random, o),
        in_all: true,
        baseline: None,
        ungated: &[],
    },
    Experiment {
        name: "fig3-quick",
        help: "CI smoke: one tiny fig3-random sweep, every variant via dyn dispatch",
        tables: fig3_quick,
        in_all: false,
        baseline: None,
        ungated: &[],
    },
    Experiment {
        name: "fig3-oversub",
        help: "ArrBench past the core count, 5 variants x 3 wait policies",
        tables: fig3_oversub,
        in_all: true,
        // Recorded on one core: its titles name the core count, so other
        // machines skip every cell. It also holds the filebench-oversub
        // tables, which this row never produces and which therefore skip.
        baseline: Some("BENCH_oversub.json"),
        ungated: &[],
    },
    Experiment {
        name: "fig4",
        help: "skip-list throughput (orig / range-lustre / range-list)",
        tables: fig4,
        in_all: true,
        baseline: None,
        ungated: &[],
    },
    Experiment {
        name: "skip-sweep",
        help: "range-locked skip list over every variant, one table per wait policy",
        tables: skip_sweep,
        in_all: true,
        baseline: Some("BENCH_skip.json"),
        ungated: &[],
    },
    Experiment {
        name: "skipbench-quick",
        help: "CI smoke: a bounded skip-sweep (small key universe, threads 1,2)",
        tables: |o| skip_sweep(&quick_opts(o)),
        in_all: false,
        baseline: None,
        ungated: &[],
    },
    Experiment {
        name: "fig5",
        help: "Metis runtimes: stock vs tree/list, full vs refined (best of N reps)",
        tables: |o| fig5(figure5_sweep(o)),
        in_all: true,
        baseline: Some("BENCH_fig5.json"),
        ungated: &[],
    },
    Experiment {
        name: "fig5-quick",
        help: "CI smoke: fig5 at quick scale, threads 1,2",
        tables: |o| fig5(&metis_sweep(&Strategy::FIGURE5, &quick_opts(o))),
        in_all: false,
        baseline: None,
        ungated: &[],
    },
    Experiment {
        name: "fig6",
        help: "refinement breakdown plus the per-cell speculation success rate",
        tables: |o| fig6(&metis_sweep(&Strategy::FIGURE6, o)),
        in_all: true,
        baseline: Some("BENCH_fig6.json"),
        ungated: &[],
    },
    Experiment {
        name: "fig6-quick",
        help: "CI smoke: fig6 at quick scale, asserts nonzero list-refined speculation",
        tables: fig6_quick,
        in_all: false,
        baseline: None,
        ungated: &[],
    },
    Experiment {
        name: "fig7",
        help: "avg + p50/p99 lock wait, plus the vmacache-vs-tree-walk microbench",
        tables: fig7,
        in_all: true,
        baseline: Some("BENCH_fig7.json"),
        // Whether a handful of acquisitions happened to park decides these
        // p50/p99 cells, which flap by orders of magnitude run to run.
        ungated: &["wait percentiles"],
    },
    Experiment {
        name: "fig8",
        help: "average wait on the range tree's internal spin lock",
        tables: |o| fig8(figure5_sweep(o)),
        in_all: true,
        baseline: Some("BENCH_fig8.json"),
        ungated: &[],
    },
    Experiment {
        name: "filebench",
        help: "rl-file: read mix x threads x variant, uniform + skewed, per-op waits",
        tables: filebench_tables,
        in_all: true,
        baseline: Some("BENCH_filebench.json"),
        ungated: &[],
    },
    Experiment {
        name: "filebench-oversub",
        help: "filebench past the core count, 5 variants x 3 wait policies",
        tables: filebench_oversub,
        in_all: true,
        baseline: None,
        ungated: &[],
    },
    Experiment {
        name: "asyncbench",
        help: "M owners >> N threads: async tasks vs thread-per-owner, 1x/2x/4x cores",
        tables: |o| {
            // Enough work per owner that the backlog spans many scheduler
            // timeslices; otherwise thread-per-owner runs are sequential
            // bursts that never contend.
            asyncbench_tables(&oversub_threads(o), if o.quick { 12_000 } else { 60_000 })
        },
        in_all: true,
        baseline: Some("BENCH_async.json"),
        ungated: &[],
    },
    Experiment {
        name: "asyncbench-quick",
        help: "CI smoke: every variant and driver, small owner and op counts",
        tables: |_| {
            let cores = available_cores();
            asyncbench_tables(&[cores.max(2), 4 * cores], 300)
        },
        in_all: false,
        baseline: None,
        ungated: &[],
    },
    Experiment {
        name: "batch",
        help: "atomic lock_many vs sequential ascending locking, batches/sec x threads",
        tables: |o| {
            let duration = if o.quick {
                Duration::from_millis(300)
            } else {
                Duration::from_secs(2)
            };
            [2, 8]
                .into_iter()
                .flat_map(|size| batch_tables(&o.threads, size, duration))
                .collect()
        },
        in_all: true,
        baseline: Some("BENCH_batch.json"),
        ungated: &[],
    },
    Experiment {
        name: "batch-quick",
        help: "CI smoke: every variant under both drivers, short cells",
        tables: |_| batch_tables(&[1, 2], 3, Duration::from_millis(50)),
        in_all: false,
        baseline: None,
        ungated: &[],
    },
    Experiment {
        name: "parkbench",
        help: "keyed parking lot vs broadcast eventcount: wakes, spurious, latency",
        tables: |o| parkbench::tables(o.quick),
        in_all: true,
        baseline: Some("BENCH_park.json"),
        ungated: &[],
    },
    Experiment {
        name: "serverbench",
        help: "rl-server under client saturation: connections x read mix x variant",
        tables: |o| {
            let connections: &[usize] = if o.threads_overridden {
                &o.threads
            } else {
                &[1, 4, 16, 64]
            };
            serverbench_tables(connections, if o.quick { 400 } else { 5_000 })
        },
        in_all: true,
        baseline: None,
        ungated: &[],
    },
    Experiment {
        name: "serverbench-quick",
        help: "CI smoke: every variant, connections 1,2,4, 200 ops each",
        tables: |_| serverbench_tables(&[1, 2, 4], 200),
        in_all: false,
        baseline: Some("BENCH_server.json"),
        // A few hundred samples per cell: the p99 columns flap well past
        // tolerance under runner jitter.
        ungated: &["op latency"],
    },
    Experiment {
        name: "fastpath",
        help: "Section 4.5 ablation: uncontended acquire+release of every lock",
        tables: fastpath,
        in_all: true,
        baseline: Some("BENCH_fastpath.json"),
        ungated: &[],
    },
    Experiment {
        name: "obsbench",
        help: "rl-obs overhead on the list-ex fast path: absent/disabled/sampled/full",
        tables: |o| {
            let (iters, reps) = timing_scale(o.quick);
            let results = obsbench::run(iters, reps);
            let columns = results.iter().map(|r| r.mode.to_string()).collect();
            let mut table = Table::new(
                "ObsBench: uncontended acquire+release, list-ex fast path",
                "threads",
                "ns/op",
                columns,
            );
            table.push_row(1, results.iter().map(|r| r.ns_per_op).collect());
            vec![table]
        },
        in_all: true,
        baseline: Some("BENCH_obs.json"),
        ungated: &[],
    },
];

/// Looks an experiment up by name.
fn lookup(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

fn print_help() {
    println!("repro [--quick|--full] [--threads 1,2,4,8] [--json] <experiment>...\n\nexperiments:");
    for e in EXPERIMENTS {
        println!("  {:<18} {}", e.name, e.help);
    }
    println!(
        "  all                every experiment above except the CI smokes
  perfdiff           regression gate: rerun every experiment that has a committed
                     BENCH_*.json and diff cell by cell; exits 1 on a regression.
                     --tolerance N overrides the {}x default; --inject-regression
                     degrades the fresh numbers first (the self-test must fail)

--threads entries are counts (8) or core multipliers (2x). Without --threads,
the oversubscription experiments sweep 1x, 2x and 4x the core count.",
        perfdiff::DEFAULT_TOLERANCE
    );
}

#[derive(Debug, Clone)]
struct Options {
    quick: bool,
    json: bool,
    threads: Vec<usize>,
    /// `--threads` was given explicitly (the oversubscription experiments
    /// then use it verbatim instead of their core-multiple default).
    threads_overridden: bool,
    /// perfdiff only: degrade the fresh numbers so the gate must fail.
    inject_regression: bool,
    /// perfdiff only: multiplicative regression tolerance.
    tolerance: f64,
    experiments: Vec<String>,
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8)
}

fn default_threads() -> Vec<usize> {
    let max = available_cores();
    let mut t = vec![1, 2, 4, 8, 16, 32, 64, 128];
    t.retain(|&x| x <= max.max(2));
    if !t.contains(&max) && max > 1 {
        t.push(max);
    }
    t
}

/// Thread counts for the oversubscription experiments: 1x, 2x and 4x the
/// core count, so the sweep crosses the point where spinning waiters start
/// fighting the scheduler on any machine.
fn default_oversub_threads() -> Vec<usize> {
    let cores = available_cores();
    let mut t: Vec<usize> = [1, 2, 4].iter().map(|m| m * cores).collect();
    t.dedup();
    t
}

/// Parses one `--threads` entry: a positive count (`8`) or a positive
/// core-count multiplier (`2x`).
fn parse_thread_entry(entry: &str) -> Result<usize, String> {
    let entry = entry.trim();
    let (number, mult) = match entry.strip_suffix('x') {
        Some(number) => (number, available_cores()),
        None => (entry, 1),
    };
    match number.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n * mult),
        _ => Err(format!(
            "invalid --threads entry '{entry}': expected a positive count (8) or multiplier (2x)"
        )),
    }
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: true,
        json: false,
        threads: default_threads(),
        threads_overridden: false,
        inject_regression: false,
        tolerance: perfdiff::DEFAULT_TOLERANCE,
        experiments: Vec::new(),
    };
    let usage_error = |message: &str| -> ! {
        eprintln!("{message}");
        std::process::exit(2);
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--full" => opts.quick = false,
            "--json" => opts.json = true,
            "--inject-regression" => opts.inject_regression = true,
            "--tolerance" => {
                opts.tolerance = args
                    .next()
                    .and_then(|t| t.parse().ok())
                    .unwrap_or_else(|| usage_error("--tolerance requires a number"));
            }
            "--threads" => {
                let list = args
                    .next()
                    .unwrap_or_else(|| usage_error("--threads requires a comma-separated list"));
                opts.threads = list
                    .split(',')
                    .map(parse_thread_entry)
                    .collect::<Result<_, _>>()
                    .unwrap_or_else(|err| usage_error(&err));
                opts.threads_overridden = true;
            }
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            name => {
                if !matches!(name, "all" | "perfdiff") && lookup(name).is_none() {
                    usage_error(&format!(
                        "unknown experiment '{name}'; run with --help for the list"
                    ));
                }
                opts.experiments.push(name.to_string());
            }
        }
    }
    if opts.experiments.is_empty() {
        opts.experiments.push("all".to_string());
    }
    opts
}

fn emit(tables: &[Table], json: bool) {
    for table in tables {
        if json {
            println!("{}", table.to_json());
        } else {
            println!("{}", table.render());
        }
    }
}

/// Registry variant names: the columns of every per-variant table.
fn variant_columns() -> Vec<String> {
    registry::all().iter().map(|l| l.name.to_string()).collect()
}

/// Bounded options for the CI smoke experiments: quick scale, threads 1
/// and 2 (unless `--threads` was given explicitly).
fn quick_opts(opts: &Options) -> Options {
    Options {
        quick: true,
        threads: if opts.threads_overridden {
            opts.threads.clone()
        } else {
            vec![1, 2]
        },
        ..opts.clone()
    }
}

/// Thread counts the oversubscription experiments sweep.
fn oversub_threads(opts: &Options) -> Vec<usize> {
    if opts.threads_overridden {
        opts.threads.clone()
    } else {
        default_oversub_threads()
    }
}

/// One ArrBench table: a row per thread count, a column per registry
/// variant.
fn arrbench_table(
    title: String,
    threads: &[usize],
    policy: RangePolicy,
    wait: WaitPolicyKind,
    read_pct: u32,
    duration: Duration,
) -> Table {
    let mut table = Table::new(title, "threads", "ops/sec", variant_columns());
    for &threads in threads {
        let row = registry::all()
            .iter()
            .map(|lock| {
                arrbench::run(&ArrBenchConfig {
                    lock,
                    policy,
                    wait,
                    threads,
                    read_pct,
                    duration,
                })
                .ops_per_sec()
            })
            .collect();
        table.push_row(threads as u64, row);
    }
    table
}

fn arrbench_duration(quick: bool) -> Duration {
    if quick {
        Duration::from_millis(300)
    } else {
        Duration::from_secs(3)
    }
}

fn fig3(policy: RangePolicy, opts: &Options) -> Vec<Table> {
    let panel = match policy {
        RangePolicy::FullRange => "Figure 3 (a,b): full-range acquisitions",
        RangePolicy::NonOverlapping => "Figure 3 (c,d): non-overlapping acquisitions",
        RangePolicy::Random => "Figure 3 (e,f): random-range acquisitions",
    };
    [100, 60]
        .into_iter()
        .map(|read_pct| {
            arrbench_table(
                format!("{panel} — {read_pct}% reads"),
                &opts.threads,
                policy,
                WaitPolicyKind::SpinThenYield,
                read_pct,
                arrbench_duration(opts.quick),
            )
        })
        .collect()
}

/// A bounded fig3-random sweep for CI: every registry variant through the
/// dynamic-dispatch interface, small thread counts, short cells.
fn fig3_quick(_: &Options) -> Vec<Table> {
    let table = arrbench_table(
        "Figure 3 quick smoke: random ranges — 60% reads (registry, dyn dispatch)".to_string(),
        &[1, 2],
        RangePolicy::Random,
        WaitPolicyKind::SpinThenYield,
        60,
        Duration::from_millis(50),
    );
    for row in &table.rows {
        for (lock, &ops) in table.columns.iter().zip(&row.values) {
            assert!(ops > 0.0, "fig3-quick: {lock} made no progress");
        }
    }
    vec![table]
}

fn fig3_oversub(opts: &Options) -> Vec<Table> {
    WaitPolicyKind::ALL
        .into_iter()
        .map(|wait| {
            arrbench_table(
                format!(
                    "Figure 3 oversubscribed: random ranges — 60% reads — {} policy ({} cores)",
                    wait.name(),
                    available_cores()
                ),
                &oversub_threads(opts),
                RangePolicy::Random,
                wait,
                60,
                arrbench_duration(opts.quick),
            )
        })
        .collect()
}

fn fig4(opts: &Options) -> Vec<Table> {
    let columns = SkipListVariant::ALL
        .iter()
        .map(|v| v.name().to_string())
        .collect();
    let mut table = Table::new(
        "Figure 4: skip-list throughput (80% find / 20% update)",
        "threads",
        "ops/sec",
        columns,
    );
    for &threads in &opts.threads {
        let row = SkipListVariant::ALL
            .into_iter()
            .map(|variant| {
                let config = if opts.quick {
                    SkipBenchConfig::quick(variant, threads)
                } else {
                    let mut c = SkipBenchConfig::paper(variant, threads);
                    c.duration = Duration::from_secs(3);
                    c
                };
                skipbench::run(&config).ops_per_sec()
            })
            .collect();
        table.push_row(threads as u64, row);
    }
    vec![table]
}

/// One table per wait policy: every registry variant backing the
/// range-locked skip list under that policy.
fn skip_sweep(opts: &Options) -> Vec<Table> {
    let mut tables = Vec::new();
    for wait in WaitPolicyKind::ALL {
        let mut table = Table::new(
            format!(
                "Skip-list registry sweep: 80% find — {} policy",
                wait.name()
            ),
            "threads",
            "ops/sec",
            variant_columns(),
        );
        for &threads in &opts.threads {
            let mut row = Vec::new();
            for variant in SkipListVariant::SWEEP {
                let SkipListVariant::Registry { wait: row_wait, .. } = variant else {
                    unreachable!("sweep rows are registry-backed");
                };
                if row_wait != wait {
                    continue;
                }
                let mut config = SkipBenchConfig::quick(variant, threads);
                if opts.quick {
                    config.key_range = 1 << 14;
                    config.initial_keys = 1 << 13;
                    config.duration = Duration::from_millis(100);
                }
                let result = skipbench::run(&config);
                assert!(
                    result.operations > 0,
                    "skip-sweep: {} made no progress",
                    variant.name()
                );
                row.push(result.ops_per_sec());
            }
            table.push_row(threads as u64, row);
        }
        tables.push(table);
    }
    tables
}

/// One workload's noise-vetted measurements: `rows[i][j]` is thread count
/// `threads[i]` under strategy `j` of the sweep's strategy set.
struct MetisSweep {
    workload: Workload,
    threads: Vec<usize>,
    rows: Vec<Vec<metisbench::MetisMeasurement>>,
}

/// Measures `strategies` across every workload and thread count, best of
/// 2 (quick) or 3 (full) runs per cell.
fn metis_sweep(strategies: &[Strategy], opts: &Options) -> Vec<MetisSweep> {
    let (scale, reps) = if opts.quick {
        (MetisScale::Quick, 2)
    } else {
        (MetisScale::Full, 3)
    };
    Workload::ALL
        .iter()
        .map(|&workload| {
            let rows = opts
                .threads
                .iter()
                .map(|&threads| {
                    strategies
                        .iter()
                        .map(|&strategy| {
                            metisbench::measure_best(workload, strategy, threads, scale, reps)
                        })
                        .collect()
                })
                .collect();
            MetisSweep {
                workload,
                threads: opts.threads.clone(),
                rows,
            }
        })
        .collect()
}

/// The FIGURE5 sweep, measured once per process: Figures 5, 7 and 8 are
/// projections of the same measurements, so nothing is measured twice.
fn figure5_sweep(opts: &Options) -> &'static [MetisSweep] {
    static SWEEP: OnceLock<Vec<MetisSweep>> = OnceLock::new();
    let sweeps = SWEEP.get_or_init(|| metis_sweep(&Strategy::FIGURE5, opts));
    assert!(
        sweeps.iter().all(|s| s.threads == opts.threads),
        "the shared FIGURE5 sweep was taken under other thread counts"
    );
    sweeps
}

fn strategy_columns(strategies: &[Strategy]) -> Vec<String> {
    strategies.iter().map(|s| s.name.to_string()).collect()
}

/// Builds one table per workload from a sweep, with one column per strategy.
fn sweep_tables(
    sweeps: &[MetisSweep],
    title: impl Fn(&str) -> String,
    metric: &str,
    columns: Vec<String>,
    cell: impl Fn(&metisbench::MetisMeasurement) -> f64,
) -> Vec<Table> {
    sweeps
        .iter()
        .map(|sweep| {
            let mut table = Table::new(
                title(sweep.workload.name()),
                "threads",
                metric,
                columns.clone(),
            );
            for (i, &threads) in sweep.threads.iter().enumerate() {
                table.push_row(threads as u64, sweep.rows[i].iter().map(&cell).collect());
            }
            table
        })
        .collect()
}

/// Figure 5: runtime tables from a FIGURE5 sweep.
fn fig5(sweeps: &[MetisSweep]) -> Vec<Table> {
    sweep_tables(
        sweeps,
        |wl| format!("Figure 5: Metis {wl} runtime"),
        "runtime (ms)",
        strategy_columns(&Strategy::FIGURE5),
        |m| m.runtime.as_secs_f64() * 1_000.0,
    )
}

/// Figure 6: runtime-breakdown tables plus the per-cell speculation success
/// rate, from a FIGURE6 sweep.
fn fig6(sweeps: &[MetisSweep]) -> Vec<Table> {
    let mut tables = sweep_tables(
        sweeps,
        |wl| format!("Figure 6: refinement breakdown, Metis {wl}"),
        "runtime (ms)",
        strategy_columns(&Strategy::FIGURE6),
        |m| m.runtime.as_secs_f64() * 1_000.0,
    );
    tables.extend(sweep_tables(
        sweeps,
        |wl| format!("Figure 6 speculation rate, Metis {wl}"),
        "spec success (%)",
        strategy_columns(&Strategy::FIGURE6),
        metisbench::MetisMeasurement::speculation_rate_pct,
    ));
    tables
}

fn fig6_quick(opts: &Options) -> Vec<Table> {
    let sweeps = metis_sweep(&Strategy::FIGURE6, &quick_opts(opts));
    // The smoke step also guards the headline Section 7.2 claim: the fully
    // refined strategy must complete a nonzero share of its mprotects
    // speculatively even on the smallest inputs.
    for sweep in &sweeps {
        for row in &sweep.rows {
            let refined = row
                .iter()
                .find(|m| m.strategy.name == "list-refined")
                .expect("FIGURE6 contains list-refined");
            assert!(
                refined.speculation_rate_pct() > 0.0,
                "fig6-quick: no speculative mprotect succeeded on {}",
                sweep.workload.name()
            );
        }
    }
    fig6(&sweeps)
}

/// Figure 7: average-wait tables, wait-percentile tables, and the
/// vmacache-vs-tree-walk microbench, from the shared FIGURE5 sweep.
fn fig7(opts: &Options) -> Vec<Table> {
    let sweeps = figure5_sweep(opts);
    let mut tables = sweep_tables(
        sweeps,
        |wl| format!("Figure 7: avg wait per acquisition, Metis {wl}"),
        "wait (us)",
        strategy_columns(&Strategy::FIGURE5),
        metisbench::MetisMeasurement::avg_lock_wait_us,
    );
    let percentile_columns: Vec<String> = Strategy::FIGURE5
        .iter()
        .flat_map(|s| [format!("{} p50", s.name), format!("{} p99", s.name)])
        .collect();
    for sweep in sweeps {
        let mut table = Table::new(
            format!("Figure 7 wait percentiles, Metis {}", sweep.workload.name()),
            "threads",
            "wait (us)",
            percentile_columns.clone(),
        );
        for (i, &threads) in sweep.threads.iter().enumerate() {
            let row = sweep.rows[i]
                .iter()
                .flat_map(|m| [m.p50_wait_us(), m.p99_wait_us()])
                .collect();
            table.push_row(threads as u64, row);
        }
        tables.push(table);
    }
    // The companion microbenchmark: a refined fault through the per-thread
    // vmacache vs the full tree walk, on a heavily fragmented space.
    let bench = metisbench::vmacache_bench(if opts.quick { 50_000 } else { 500_000 });
    let mut cache_table = Table::new(
        "Figure 7 companion: refined fault VMA lookup",
        "threads",
        "ns/op",
        vec!["tree-walk".to_string(), "vmacache".to_string()],
    );
    cache_table.push_row(1, vec![bench.tree_walk_ns, bench.cached_ns]);
    tables.push(cache_table);
    tables
}

/// Figure 8: spin-lock wait tables, from the tree columns of a FIGURE5
/// sweep (`tree-full` is strategy 1, `tree-refined` strategy 3).
fn fig8(sweeps: &[MetisSweep]) -> Vec<Table> {
    sweeps
        .iter()
        .map(|sweep| {
            let mut table = Table::new(
                format!(
                    "Figure 8: range-tree spin-lock wait, Metis {}",
                    sweep.workload.name()
                ),
                "threads",
                "wait (us)",
                vec!["tree-full".to_string(), "tree-refined".to_string()],
            );
            for (i, &threads) in sweep.threads.iter().enumerate() {
                let row: Vec<f64> = sweep.rows[i]
                    .iter()
                    .filter(|m| m.spin_stats.is_some())
                    .map(metisbench::MetisMeasurement::avg_spin_wait_us)
                    .collect();
                assert_eq!(row.len(), 2, "FIGURE5 has exactly two tree strategies");
                table.push_row(threads as u64, row);
            }
            table
        })
        .collect()
}

fn filebench_duration(quick: bool) -> Duration {
    if quick {
        Duration::from_millis(200)
    } else {
        Duration::from_secs(2)
    }
}

/// Runs one FileBench cell, asserting the built-in integrity checker saw
/// no torn reads or writes.
fn filebench_cell(config: FileBenchConfig) -> filebench::FileBenchResult {
    let result = filebench::run(&config);
    assert_eq!(
        result.violations,
        0,
        "FileBench integrity violation under {} ({} policy, {} offsets, {}% reads, {} threads)",
        config.lock.name,
        config.wait.name(),
        config.dist.name(),
        config.read_pct,
        config.threads
    );
    result
}

fn filebench_tables(opts: &Options) -> Vec<Table> {
    let mut tables = Vec::new();
    for dist in [OffsetDist::Uniform, OffsetDist::Skewed] {
        for read_pct in [95u32, 50] {
            let mut throughput = Table::new(
                format!("FileBench: {} offsets — {read_pct}% reads", dist.name()),
                "threads",
                "ops/sec",
                variant_columns(),
            );
            // One wait table per reader-writer variant for the write-heavy
            // mix: rows are thread counts, columns the labeled operations'
            // mean waits plus the p50/p99 of the combined wait histogram.
            let mut waits: Vec<(&str, Table)> = if read_pct == 50 {
                registry::readers_share()
                    .map(|lock| {
                        (
                            lock.name,
                            Table::new(
                                format!(
                                    "FileBench wait per acquisition: {} offsets — 50% reads — {}",
                                    dist.name(),
                                    lock.name
                                ),
                                "threads",
                                "wait (us)",
                                vec![
                                    "pread".to_string(),
                                    "pwrite".to_string(),
                                    "append".to_string(),
                                    "truncate".to_string(),
                                    "p50 (all ops)".to_string(),
                                    "p99 (all ops)".to_string(),
                                ],
                            ),
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            };
            for &threads in &opts.threads {
                let mut row = Vec::new();
                for lock in registry::all() {
                    let result = filebench_cell(FileBenchConfig {
                        lock,
                        wait: WaitPolicyKind::SpinThenYield,
                        threads,
                        read_pct,
                        dist,
                        duration: filebench_duration(opts.quick),
                    });
                    row.push(result.ops_per_sec());
                    if let Some((_, table)) = waits.iter_mut().find(|(l, _)| *l == lock.name) {
                        let hist = result.wait_hist();
                        table.push_row(
                            threads as u64,
                            vec![
                                result.avg_wait_us("pread"),
                                result.avg_wait_us("pwrite"),
                                result.avg_wait_us("append"),
                                result.avg_wait_us("truncate"),
                                hist.p50().unwrap_or(0) as f64 / 1_000.0,
                                hist.p99().unwrap_or(0) as f64 / 1_000.0,
                            ],
                        );
                    }
                }
                throughput.push_row(threads as u64, row);
            }
            tables.push(throughput);
            tables.extend(waits.into_iter().map(|(_, table)| table));
        }
    }
    tables
}

fn filebench_oversub(opts: &Options) -> Vec<Table> {
    let mut tables = Vec::new();
    for wait in WaitPolicyKind::ALL {
        let mut table = Table::new(
            format!(
                "FileBench oversubscribed: uniform offsets — 50% reads — {} policy ({} cores)",
                wait.name(),
                available_cores()
            ),
            "threads",
            "ops/sec",
            variant_columns(),
        );
        for threads in oversub_threads(opts) {
            let row = registry::all()
                .iter()
                .map(|lock| {
                    filebench_cell(FileBenchConfig {
                        lock,
                        wait,
                        threads,
                        read_pct: 50,
                        dist: OffsetDist::Uniform,
                        duration: filebench_duration(opts.quick),
                    })
                    .ops_per_sec()
                })
                .collect();
            table.push_row(threads as u64, row);
        }
        tables.push(table);
    }
    tables
}

/// Two tables per lock variant: owners (rows) × driver (columns) with fixed
/// work per owner, so the number measured is backlog-drain throughput, plus
/// a companion acquisition-latency table (p50/p99 per driver, from the
/// harness-side histogram of the best run).
fn asyncbench_tables(owner_counts: &[usize], ops_per_owner: u64) -> Vec<Table> {
    let workers = available_cores();
    let mut tables = Vec::new();
    for lock in registry::all() {
        let columns: Vec<String> = AsyncDriver::ALL
            .iter()
            .map(|d| d.name().to_string())
            .collect();
        let mut table = Table::new(
            format!(
                "AsyncBench: {} — 60% reads — {} pool workers ({} cores)",
                lock.name,
                workers,
                available_cores()
            ),
            "owners",
            "ops/sec",
            columns,
        );
        let latency_columns: Vec<String> = AsyncDriver::ALL
            .iter()
            .flat_map(|d| [format!("{} p50", d.name()), format!("{} p99", d.name())])
            .collect();
        let mut latency = Table::new(
            format!(
                "AsyncBench acquire latency: {} — 60% reads — {} pool workers",
                lock.name, workers
            ),
            "owners",
            "wait (us)",
            latency_columns,
        );
        for &owners in owner_counts {
            let mut row = Vec::new();
            let mut latency_row = Vec::new();
            for driver in AsyncDriver::ALL {
                // Best of three: backlog-drain time on an oversubscribed
                // 1-core box is at the mercy of scheduler phase; the best
                // run is the least-perturbed measurement of each driver.
                let mut best: Option<AsyncBenchResult> = None;
                for _ in 0..3 {
                    let result = asyncbench::run(&AsyncBenchConfig {
                        lock,
                        driver,
                        owners,
                        workers,
                        ops_per_owner,
                        read_pct: 60,
                    });
                    assert!(
                        result.operations > 0,
                        "asyncbench: {} / {} made no progress",
                        lock.name,
                        driver.name()
                    );
                    if best
                        .as_ref()
                        .is_none_or(|b| result.ops_per_sec() > b.ops_per_sec())
                    {
                        best = Some(result);
                    }
                }
                let best = best.expect("three runs measured");
                row.push(best.ops_per_sec());
                latency_row.push(best.p50_wait_us());
                latency_row.push(best.p99_wait_us());
            }
            table.push_row(owners as u64, row);
            latency.push_row(owners as u64, latency_row);
        }
        tables.push(table);
        tables.push(latency);
    }
    tables
}

/// Two tables per lock variant — connections (rows) × read mix (columns)
/// throughput, plus a companion p50/p99 operation-latency table — and one
/// transport table (list-rw only) comparing the in-process duplex channel
/// against loopback TCP at the same connection counts. Titles carry no
/// core counts so the committed baselines match on any runner.
fn serverbench_tables(connection_counts: &[usize], ops_per_conn: u64) -> Vec<Table> {
    const READ_MIXES: [u32; 2] = [95, 50];
    // Fixed worker count (not core count): the regime under test is
    // sessions >> workers, and baseline comparability across runners
    // matters more than soaking big machines.
    const WORKERS: usize = 2;
    let mut tables = Vec::new();
    for lock in registry::all() {
        let mut throughput = Table::new(
            format!("ServerBench: {} — in-process — 2 pool workers", lock.name),
            "connections",
            "ops/sec",
            READ_MIXES.iter().map(|p| format!("{p}% reads")).collect(),
        );
        let mut latency = Table::new(
            format!(
                "ServerBench op latency: {} — in-process — 2 pool workers",
                lock.name
            ),
            "connections",
            "latency (us)",
            READ_MIXES
                .iter()
                .flat_map(|p| [format!("{p}% reads p50"), format!("{p}% reads p99")])
                .collect(),
        );
        for &connections in connection_counts {
            let mut row = Vec::new();
            let mut latency_row = Vec::new();
            for read_pct in READ_MIXES {
                let result = serverbench::run(&ServerBenchConfig {
                    lock,
                    wait: WaitPolicyKind::Block,
                    connections,
                    workers: WORKERS,
                    read_pct,
                    ops_per_conn,
                    tcp: false,
                });
                assert_eq!(
                    result.stats.deadlocks, 0,
                    "serverbench: {} is single-range and must not deadlock",
                    lock.name
                );
                row.push(result.ops_per_sec());
                latency_row.push(result.p50_op_us());
                latency_row.push(result.p99_op_us());
            }
            throughput.push_row(connections as u64, row);
            latency.push_row(connections as u64, latency_row);
        }
        tables.push(throughput);
        tables.push(latency);
    }
    // The transport tax, isolated: same workload, same lock, real sockets.
    let lock = registry::by_name("list-rw").expect("list-rw is registered");
    let mut transport = Table::new(
        "ServerBench transport: list-rw — 50% reads — 2 pool workers".to_string(),
        "connections",
        "ops/sec",
        vec!["in-process".to_string(), "tcp-loopback".to_string()],
    );
    for &connections in connection_counts {
        let mut row = Vec::new();
        for tcp in [false, true] {
            let result = serverbench::run(&ServerBenchConfig {
                lock,
                wait: WaitPolicyKind::Block,
                connections,
                workers: WORKERS,
                read_pct: 50,
                ops_per_conn,
                tcp,
            });
            row.push(result.ops_per_sec());
        }
        transport.push_row(connections as u64, row);
    }
    tables.push(transport);
    tables
}

/// Two tables per lock variant: threads (rows) × driver (columns) at a
/// fixed batch size — the interesting shape is the gap between one atomic
/// `lock_many` transaction and `batch_size` sequential deadlock-checked
/// `lock` calls as contention grows — plus a companion whole-batch
/// acquisition-latency table (p50/p99 per driver).
fn batch_tables(thread_counts: &[usize], batch_size: usize, duration: Duration) -> Vec<Table> {
    let mut tables = Vec::new();
    for lock in registry::all() {
        let columns: Vec<String> = BatchDriver::ALL
            .iter()
            .map(|d| d.name().to_string())
            .collect();
        let mut table = Table::new(
            format!(
                "BatchBench: {} — {batch_size} ranges/batch — {}% shared ({} hot slots)",
                lock.name,
                batchbench::SHARED_PCT,
                batchbench::HOT_SLOTS
            ),
            "threads",
            "batches/sec",
            columns,
        );
        let latency_columns: Vec<String> = BatchDriver::ALL
            .iter()
            .flat_map(|d| [format!("{} p50", d.name()), format!("{} p99", d.name())])
            .collect();
        let mut latency = Table::new(
            format!(
                "BatchBench acquire latency: {} — {batch_size} ranges/batch",
                lock.name
            ),
            "threads",
            "wait (us)",
            latency_columns,
        );
        for &threads in thread_counts {
            let mut row = Vec::new();
            let mut latency_row = Vec::new();
            for driver in BatchDriver::ALL {
                let result = batchbench::run(&BatchBenchConfig {
                    lock,
                    wait: WaitPolicyKind::SpinThenYield,
                    threads,
                    batch_size,
                    driver,
                    duration,
                });
                assert!(
                    result.batches > 0,
                    "batch: {} / {} made no progress",
                    lock.name,
                    driver.name()
                );
                row.push(result.batches_per_sec());
                latency_row.push(result.p50_wait_us());
                latency_row.push(result.p99_wait_us());
            }
            table.push_row(threads as u64, row);
            latency.push_row(threads as u64, latency_row);
        }
        tables.push(table);
        tables.push(latency);
    }
    tables
}

/// Iterations per rep and reps for the single-thread timing loops of
/// `fastpath` and `obsbench`.
fn timing_scale(quick: bool) -> (u64, u32) {
    if quick {
        (300_000, 3)
    } else {
        (3_000_000, 5)
    }
}

/// The Section 4.5 ablation: single-thread acquire+release latency of every
/// lock, with and without the list lock's one-CAS fast path and fairness
/// gate. This is what a single-threaded application pays for using a range
/// lock at all (the kernel range lock has no fast path, Section 3).
fn fastpath(opts: &Options) -> Vec<Table> {
    let (iters, reps) = timing_scale(opts.quick);
    let range = Range::new(10, 20);
    let list = ListRangeLock::new();
    let no_fast_path = ListRangeLock::with_config(ListLockConfig {
        fast_path: false,
        ..Default::default()
    });
    let fairness = ListRangeLock::with_config(ListLockConfig {
        fairness: true,
        ..Default::default()
    });
    let list_block = ListRangeLock::<Block>::with_policy();
    let rw_block = RwListRangeLock::<Block>::with_policy();
    let rw = RwListRangeLock::new();
    let lustre = TreeRangeLock::new();
    let kernel = RwTreeRangeLock::new();
    let pnova = SegmentRangeLock::new(256, 256);
    // One column per configuration: its name and the acquisition timed
    // (acquire, then drop the guard).
    macro_rules! cell {
        ($name:literal, $acquire:expr) => {
            ($name, best_ns_per_op(iters, reps, || drop($acquire)))
        };
    }
    let cells = [
        cell!("list-ex/fast-path", list.acquire(range)),
        cell!("list-ex/no-fast-path", no_fast_path.acquire(range)),
        cell!("list-ex/fairness-on", fairness.acquire(range)),
        // The wait-policy layer must keep the uncontended fast path a pure
        // atomic sequence: the two Block cells stay within noise of their
        // default-policy twins.
        cell!("list-ex/block-policy", list_block.acquire(range)),
        cell!("list-rw/block-policy", rw_block.write(range)),
        cell!("list-rw/write", rw.write(range)),
        cell!("list-rw/read", rw.read(range)),
        cell!("lustre-ex", lustre.acquire(range)),
        cell!("kernel-rw/write", kernel.write(range)),
        cell!("pnova-rw/write", pnova.write(range)),
        cell!("pnova-rw/full-range", pnova.write(Range::FULL)),
    ];
    let mut table = Table::new(
        "Fast path: uncontended acquire+release, single thread",
        "threads",
        "ns/op",
        cells.iter().map(|(name, _)| name.to_string()).collect(),
    );
    table.push_row(1, cells.iter().map(|&(_, ns)| ns).collect());
    vec![table]
}

/// The regression gate: re-runs every experiment that has a committed
/// baseline and exits nonzero if any cell got more than `--tolerance` times
/// worse (direction-aware; see `rl_bench::perfdiff`).
fn run_perfdiff(opts: &Options) {
    let mut failed = false;
    for experiment in EXPERIMENTS {
        let Some(path) = experiment.baseline else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(path) else {
            println!("perfdiff: {path} not found — skipped");
            continue;
        };
        let base = match perfdiff::parse_tables(&text) {
            Ok(tables) => tables,
            Err(err) => {
                eprintln!("perfdiff: {path} does not parse: {err}");
                failed = true;
                continue;
            }
        };
        let fresh_tables: Vec<Table> = (experiment.tables)(opts)
            .into_iter()
            .filter(|t| !experiment.ungated.iter().any(|u| t.title.contains(u)))
            .collect();
        let mut fresh = perfdiff::tables_to_parsed(&fresh_tables);
        if opts.inject_regression {
            perfdiff::inject_regression(&mut fresh);
        }
        let report = perfdiff::diff(&base, &fresh, opts.tolerance);
        println!(
            "perfdiff: {path}: {} cells compared, {} skipped, {} regression(s)",
            report.compared,
            report.skipped,
            report.regressions.len()
        );
        for regression in &report.regressions {
            eprintln!("  REGRESSION {regression}");
            failed = true;
        }
    }
    if failed {
        eprintln!("perfdiff: FAILED (tolerance {:.1}x)", opts.tolerance);
        std::process::exit(1);
    }
    println!("perfdiff: OK (tolerance {:.1}x)", opts.tolerance);
}

fn main() {
    let opts = parse_args();
    if !opts.json {
        println!(
            "range-locks repro harness — {} mode, thread counts: {:?}\n",
            if opts.quick { "quick" } else { "full" },
            opts.threads
        );
    }
    for name in &opts.experiments {
        match name.as_str() {
            "perfdiff" => run_perfdiff(&opts),
            "all" => {
                for experiment in EXPERIMENTS.iter().filter(|e| e.in_all) {
                    emit(&(experiment.tables)(&opts), opts.json);
                }
            }
            name => {
                let experiment = lookup(name).expect("names are checked at parse time");
                emit(&(experiment.tables)(&opts), opts.json);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[i + 1..].iter().all(|o| o.name != e.name),
                "duplicate experiment {}",
                e.name
            );
            assert!(
                !matches!(e.name, "all" | "perfdiff"),
                "{} is reserved",
                e.name
            );
        }
    }

    #[test]
    fn unknown_names_fail_lookup() {
        assert!(lookup("fig4").is_some());
        assert!(lookup("no-such-experiment").is_none());
        assert!(lookup("all").is_none());
        assert!(lookup("perfdiff").is_none());
    }

    fn repo_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    #[test]
    fn every_baseline_exists() {
        for e in EXPERIMENTS {
            if let Some(path) = e.baseline {
                assert!(
                    repo_root().join(path).is_file(),
                    "{}: {path} missing",
                    e.name
                );
            }
        }
    }

    #[test]
    fn every_committed_baseline_has_exactly_one_owner() {
        let mut found = 0;
        for entry in std::fs::read_dir(repo_root()).expect("repo root is readable") {
            let name = entry.expect("directory entry").file_name();
            let name = name.to_string_lossy();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            found += 1;
            let owners: Vec<&str> = EXPERIMENTS
                .iter()
                .filter(|e| e.baseline == Some(&*name))
                .map(|e| e.name)
                .collect();
            assert_eq!(owners.len(), 1, "{name} is gated by {owners:?}");
        }
        assert!(found > 0, "no BENCH_*.json found at the repo root");
    }

    #[test]
    fn obsbench_runs_last() {
        // It installs the process-global recorder for good; anything after
        // it would measure an instrumented fast path.
        let last = EXPERIMENTS.last().expect("table is not empty");
        assert_eq!(last.name, "obsbench");
        assert!(last.in_all && last.baseline.is_some());
    }

    #[test]
    fn thread_entries_parse_counts_and_multipliers() {
        let cores = available_cores();
        assert_eq!(parse_thread_entry("8"), Ok(8));
        assert_eq!(parse_thread_entry(" 3 "), Ok(3));
        assert_eq!(parse_thread_entry("1x"), Ok(cores));
        assert_eq!(parse_thread_entry("4x"), Ok(4 * cores));
    }

    #[test]
    fn thread_entries_reject_garbage_and_zero() {
        for bad in ["abc", "", "x", "0", "0x", "-1", "2.5", "2y", "x2"] {
            let err = parse_thread_entry(bad).expect_err(bad);
            assert!(err.contains("--threads"), "{bad}: {err}");
        }
    }
}
