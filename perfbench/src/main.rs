//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <svc-disjoint|svc-overlap|vm-arena> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of one workload with no
//! spans recorded; `--trace 1` is the separate traced run that gives the
//! per-layer metrics (see `LAYERS.md`). Both check the program's outputs
//! and print, as the last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The full result (seed, core count, lock variant, wait policy, warm-up,
//! sample counts) and, when traced, the spans are written to `--out-dir`.

mod alloc_count;
mod gen;
mod ladder;
mod probe;
mod stats;
mod svc;
mod trace;
mod vm;
mod window;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rl_server::ServerConfig;
use rl_vm::VmLockChoice;

use gen::{SvcLayout, Workload, CLIENTS};
use stats::{json_num, median, Metrics};
use trace::Recorder;
use window::{quiet_rates, Window};

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

/// Closed-loop warm-up before every timed window; excluded from it.
const WARMUP: Duration = Duration::from_millis(500);
/// Timed windows of an untraced run, each on a fresh rig.
const ROUNDS: u32 = 4;
/// Set-ups per untraced run (`setup_s` is their median): at least the
/// minimum, then more until the budget is spent, up to the maximum.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MAX_REPS: usize = 1001;
const SETUP_BUDGET: Duration = Duration::from_millis(300);
/// Ops per ladder rung (after `LADDER_WARM` untimed ones), and per thread
/// of the contended pass.
const LADDER_OPS: u64 = 10_000;
const LADDER_WARM: u64 = 1_000;
/// One-thread vm-arena chunks timed for `vm.single_thread_chunk_p50_us`.
const SOLO_CHUNKS: u64 = 2_000;

/// Metrics of the untraced run, as named in `BENCHMARK.json`.
const END_TO_END: [&str; 2] = ["ops_per_s", "setup_s"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench-out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// What one run measured and checked.
#[derive(Default)]
struct Run {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    spans: Vec<trace::Span>,
}

impl Run {
    fn absorb(&mut self, window: &Window, bad: u64) {
        self.attempted += window.attempted;
        self.failed += window.failed + bad;
    }
}

/// Builds the workload `setup` several times — at least `SETUP_MIN_REPS`
/// and until `SETUP_BUDGET` has passed — tearing all but the last down.
/// Returns the last one and every set-up time, s.
fn repeated_setup<R>(
    mut setup: impl FnMut() -> Result<R, String>,
    mut teardown: impl FnMut(R),
) -> Result<(R, Vec<f64>), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last: Option<R> = None;
    while times.len() < SETUP_MIN_REPS
        || (started.elapsed() < SETUP_BUDGET && times.len() < SETUP_MAX_REPS)
    {
        if let Some(old) = last.take() {
            teardown(old);
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// `--trace 0`: set up repeatedly (for `setup_s`), then measure
/// `ROUNDS` windows, each on a fresh rig with fresh threads after its own
/// warm-up; `ops_per_s` is the median over all their slices.
fn untraced(args: &Args) -> Result<Run, String> {
    let mut run = Run::default();
    let setups = match args.workload {
        Workload::VmArena => {
            let setup =
                || vm::Rig::setup(CLIENTS, args.seed).map_err(|e| format!("vm set-up: {e}"));
            repeated_setup(setup, drop)?.1
        }
        w => {
            let layout = SvcLayout::new(w, args.seed);
            let (rig, setups) = repeated_setup(|| svc::Rig::setup(layout), svc::Rig::teardown)?;
            rig.teardown();
            setups
        }
    };
    let round = Duration::from_secs(args.seconds) / ROUNDS;
    let mut all = Window::default();
    let mut slices = Vec::new();
    for _ in 0..ROUNDS {
        let win = workload_window(args, round, false, &mut run)?;
        slices.extend(win.slices());
        all.samples.extend(win.samples);
    }
    let rates = quiet_rates(slices);
    let m = &mut run.metrics;
    m.push("ops_per_s", median(&rates), "1/s").samples = Some(rates.len());
    m.push("setup_s", median(&setups), "s").samples = Some(setups.len());
    // Reported beside the gated metrics, not gated: see `LAYERS.md`.
    latency_metrics(&mut all, m);
    let failed_ratio = run.failed as f64 / run.attempted.max(1) as f64;
    m.push("failed_ops_ratio", failed_ratio, "ratio");
    Ok(run)
}

/// One window of the workload itself on a fresh rig.
fn workload_window(
    args: &Args,
    window: Duration,
    traced: bool,
    run: &mut Run,
) -> Result<Window, String> {
    match args.workload {
        Workload::VmArena => vm_window(args.seed, window, traced, run),
        w => svc_window(SvcLayout::new(w, args.seed), window, traced, run),
    }
}

/// `op_p50_us` and `op_p99_us` over every op of an untraced window.
fn latency_metrics(win: &mut Window, m: &mut Metrics) {
    m.push_quantile("op_p50_us", &mut win.samples, 0.5, 1e3, "us");
    m.push_quantile("op_p99_us", &mut win.samples, 0.99, 1e3, "us");
}

/// `client.*`: per-RPC latency from the traced client spans.
fn client_metrics(rec: &mut Recorder, m: &mut Metrics) {
    for (name, layer, q) in [
        ("client.lock_rpc_p50_us", trace::LOCK_RPC, 0.5),
        ("client.lock_rpc_p99_us", trace::LOCK_RPC, 0.99),
        ("client.io_rpc_p50_us", trace::IO_RPC, 0.5),
        ("client.unlock_rpc_p50_us", trace::UNLOCK_RPC, 0.5),
    ] {
        m.push_quantile(name, &mut rec.samples[layer as usize], q, 1e3, "us");
    }
}

/// `server.*`, read through `Server::stats()`. Its wait times exist only
/// as `LatencyHistogram` buckets (up to 12.5% wide), not raw samples.
fn server_metrics(stats: &rl_server::StatsSnapshot, m: &mut Metrics) {
    for (name, hist, q) in [
        ("server.lock_wait_p50_us", &stats.lock_wait, 0.5),
        ("server.lock_wait_p99_us", &stats.lock_wait, 0.99),
        ("server.io_wait_p50_us", &stats.io_wait, 0.5),
    ] {
        let us = hist.quantile(q).map_or(0.0, |ns| ns as f64 / 1e3);
        m.push(name, us, "us").samples = Some(hist.count() as usize);
    }
    m.push("server.would_blocks", stats.would_blocks as f64, "count");
    m.push(
        "server.protocol_errors",
        stats.protocol_errors as f64,
        "count",
    );
}

/// A service window on a fresh rig; traced ones add the `client.*` and
/// `server.*` metrics.
fn svc_window(
    layout: SvcLayout,
    window: Duration,
    traced: bool,
    run: &mut Run,
) -> Result<Window, String> {
    let mut rig = svc::Rig::setup(layout)?;
    let mut win = rig.run(WARMUP, window, traced);
    let bad = rig.final_check()?;
    run.absorb(&win, bad);
    if let Some(mut rec) = win.recorder.take() {
        client_metrics(&mut rec, &mut run.metrics);
        server_metrics(&rig.server.stats(), &mut run.metrics);
        run.spans.append(&mut rec.spans);
    }
    rig.teardown();
    Ok(win)
}

/// A vm-arena window on a fresh `Mm`; traced ones add the `vm.*` metrics.
fn vm_window(seed: u64, window: Duration, traced: bool, run: &mut Run) -> Result<Window, String> {
    let mut rig = vm::Rig::setup(CLIENTS, seed).map_err(|e| format!("vm set-up: {e}"))?;
    let lock_stats = rig.mm.lock_stats();
    let mut win = rig.run(WARMUP, Duration::ZERO, false);
    run.absorb(&win, 0);
    lock_stats.reset();
    let before = rig.mm.stats();
    win = rig.run(Duration::ZERO, window, traced);
    let d = vm::stats_delta(before, rig.mm.stats());
    run.absorb(&win, rig.final_check());
    if let Some(mut rec) = win.recorder.take() {
        let m = &mut run.metrics;
        for (name, layer, q) in [
            ("vm.mprotect_p50_ns", trace::MPROTECT, 0.5),
            ("vm.mprotect_p99_ns", trace::MPROTECT, 0.99),
            ("vm.page_fault_p50_ns", trace::PAGE_FAULT, 0.5),
            ("vm.page_fault_p99_ns", trace::PAGE_FAULT, 0.99),
        ] {
            m.push_quantile(name, &mut rec.samples[layer as usize], q, 1.0, "ns");
        }
        let per_mprotect = |v: u64| v as f64 / d.mprotects.max(1) as f64;
        m.push(
            "vm.spec_success_ratio",
            per_mprotect(d.spec_success),
            "ratio",
        );
        m.push(
            "vm.spec_retries_per_mprotect",
            per_mprotect(d.spec_retries),
            "ratio",
        );
        m.push(
            "vm.structural_fallback_ratio",
            per_mprotect(d.spec_structural_fallback),
            "ratio",
        );
        m.push("vm.vmacache_hit_ratio", d.vmacache_hit_rate(), "ratio");
        let wait = lock_stats
            .snapshot()
            .avg_wait_per_acquisition_ns()
            .unwrap_or(0.0);
        m.push("vm.lock_wait_ns_per_acq", wait, "ns");
        run.spans.append(&mut rec.spans);
    }
    Ok(win)
}

/// `vm.single_thread_chunk_p50_us`: one thread, its own `Mm`.
fn solo_chunk(seed: u64, run: &mut Run) -> Result<(), String> {
    let mut rig = vm::Rig::setup(1, seed).map_err(|e| format!("vm set-up: {e}"))?;
    let mut samples = Vec::with_capacity(SOLO_CHUNKS as usize);
    let mut failed = 0;
    for i in 0..SOLO_CHUNKS + SOLO_CHUNKS / 10 {
        let t = Instant::now();
        let ok = rig.arenas[0].run_chunk(&rig.mm, seed, None).is_ok();
        if i >= SOLO_CHUNKS / 10 {
            samples.push(t.elapsed().as_nanos() as u64);
        }
        failed += u64::from(!ok);
    }
    run.attempted += SOLO_CHUNKS + SOLO_CHUNKS / 10;
    run.failed += failed + rig.final_check();
    run.metrics.push_quantile(
        "vm.single_thread_chunk_p50_us",
        &mut samples,
        0.5,
        1e3,
        "us",
    );
    Ok(())
}

/// `--trace 1`: an untraced and a traced window of the workload (their
/// ratio is `trace.overhead_ratio`), a shorter traced window of the other
/// side (service or vm) so every per-layer metric exists on every
/// workload, then the ladder, the contended pass and the probes.
fn traced(args: &Args) -> Result<Run, String> {
    let s = args.seconds as f64;
    let (main, side) = (
        Duration::from_secs_f64(0.3 * s),
        Duration::from_secs_f64(0.1 * s),
    );
    let mut run = Run::default();
    let mut plain = workload_window(args, main, false, &mut run)?;
    let traced = workload_window(args, main, true, &mut run)?;
    let ladder_layout = match args.workload {
        Workload::VmArena => {
            let layout = SvcLayout::new(Workload::SvcDisjoint, args.seed);
            svc_window(layout, side, true, &mut run)?;
            layout
        }
        w => {
            vm_window(args.seed, side, true, &mut run)?;
            SvcLayout::new(w, args.seed)
        }
    };
    latency_metrics(&mut plain, &mut run.metrics);
    solo_chunk(args.seed, &mut run)?;
    let (n, failed) = ladder::ladder(&ladder_layout, LADDER_WARM, LADDER_OPS, &mut run.metrics);
    run.attempted += n;
    run.failed += failed;
    let m = &mut run.metrics;
    let rung = |m: &Metrics, name: &str| m.get(&format!("ladder.{name}.op_p50_ns")).unwrap_or(0.0);
    let overhead = (rung(m, "session") - rung(m, "transport")) / 1e3;
    m.push("session.overhead_p50_us", overhead, "us");
    let (n, failed) = ladder::contended(&ladder_layout, LADDER_OPS, &mut run.metrics);
    run.attempted += n;
    run.failed += failed;
    for (n, failed) in [
        probe::wire(&ladder_layout, &mut run.metrics),
        probe::transport(&ladder_layout, &mut run.metrics),
    ] {
        run.attempted += n;
        run.failed += failed;
    }
    let rate = |w: &Window| median(&quiet_rates(w.slices()));
    let ratio = rate(&traced) / rate(&plain);
    run.metrics.push("trace.overhead_ratio", ratio, "ratio");
    let failed_ratio = run.failed as f64 / run.attempted.max(1) as f64;
    run.metrics.push("failed_ops_ratio", failed_ratio, "ratio");
    Ok(run)
}

/// Facts every result records: seed, core count, lock variant, wait
/// policy, the warm-up excluded from each timed window, and the share of
/// CPU time the hypervisor took from this machine during the run.
fn header(args: &Args, steal_pct: f64) -> Vec<(&'static str, String)> {
    let server = ServerConfig::default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let strategy = vm::STRATEGY;
    vec![
        ("workload", format!("\"{}\"", args.workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("clients", CLIENTS.to_string()),
        ("server_lock", format!("\"{}\"", server.variant.name)),
        ("server_wait_policy", format!("\"{:?}\"", server.wait)),
        ("server_workers", server.workers.to_string()),
        ("vm_strategy", format!("\"{}\"", strategy.name)),
        (
            "vm_lock",
            match strategy.lock {
                VmLockChoice::Registry(name) => format!("\"{name}\""),
                VmLockChoice::Semaphore => "\"semaphore\"".to_string(),
            },
        ),
        ("vm_wait_policy", format!("\"{:?}\"", strategy.wait)),
        ("warmup_s_per_window", json_num(WARMUP.as_secs_f64())),
        ("windows", if args.trace { 3 } else { ROUNDS }.to_string()),
        ("window_s", args.seconds.to_string()),
        ("cpu_steal_pct", json_num(steal_pct)),
    ]
}

fn write_outputs(args: &Args, run: &mut Run, head: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let result = format!(
        "{{{head}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
        run.attempted,
        run.failed,
        run.metrics.to_json(true)
    );
    std::fs::write(args.out_dir.join(format!("result-{stem}.json")), result)?;
    if args.trace {
        let csv = trace::spans_csv(&mut run.spans);
        std::fs::write(args.out_dir.join(format!("spans-{stem}.csv")), csv)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <svc-disjoint|svc-overlap|vm-arena> --seed <n> \
                 --seconds <s> --trace <0|1> [--out-dir <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    let ticks = window::cpu_ticks();
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let mut run = match outcome {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let steal_pct = window::steal_pct(ticks, window::cpu_ticks());
    let head: Vec<String> = header(&args, steal_pct)
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let head = head.join(", ");
    println!("perfbench {}", head.replace('"', ""));
    for m in &run.metrics.0 {
        match m.samples {
            Some(n) => println!("  {:<36} {:>14.4} {:<6} (n={n})", m.name, m.value, m.unit),
            None => println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit),
        }
    }
    if let Err(e) = write_outputs(&args, &mut run, &head) {
        eprintln!(
            "perfbench: writing results to {}: {e}",
            args.out_dir.display()
        );
        return ExitCode::FAILURE;
    }
    // The result line: the end-to-end metrics untraced, every per-layer
    // metric traced.
    let keep: Metrics = Metrics(
        run.metrics
            .0
            .iter()
            .filter(|m| args.trace || END_TO_END.contains(&m.name.as_str()))
            .cloned()
            .collect(),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed,
        keep.to_json(false)
    );
    ExitCode::SUCCESS
}

/// Tests run one at a time: allocation counts are process-wide.
#[cfg(test)]
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}
