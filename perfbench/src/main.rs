//! End-to-end and per-layer benchmark of the Aequitas simulator.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1 | --traced]
//! perfbench --workload <name|all> --fidelity
//! ```
//!
//! One process runs one workload (`all` re-executes the binary once per
//! workload, so `peak_rss_mb` is per workload). It repeats the workload's
//! fixed simulated span until `--seconds` of host time have passed, prints
//! every metric as a human line, then one JSON record of the run, then the
//! result line: `{"correct", "attempted", "failed", "metrics"}`. Untraced
//! runs report the end-to-end metrics; `--trace 1` reports the per-layer
//! split from timing-wrapped host agents. Any failed output check makes the
//! exit code 1. See `perfbench/README.md`.

mod fabric;
mod run;
mod workload;

use aequitas_experiments::{demo, fleet, slo, Scale};
use aequitas_stats::Percentiles;
use criterion::time_once;
use run::{core_replay, rep, setup_only, Rep, RepOpts};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workload::{Workload, WORKLOADS};

/// Setup-only builds before each repetition; `setup_s` is their median.
const SETUPS_PER_REP: usize = 5;
/// Fewest measured repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// End-to-end metrics (`--trace 0`), in print order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("slice_p50_ms", "ms"),
    ("slice_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim.qosh_rnl_p999_us", "us"),
    ("sim.goodput_gbps", "Gbps"),
];

/// Per-layer metrics (`--trace 1`), in print order.
const PER_LAYER: [(&str, &str); 34] = [
    ("netsim.events", "count"),
    ("netsim.self_s", "s"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.self_frac", "ratio"),
    ("qdisc.tx_packets", "count"),
    ("qdisc.drops", "count"),
    ("qdisc.max_backlog_bytes", "bytes"),
    ("qdisc.max_class_depth_pkts", "count"),
    ("rpc.callbacks", "count"),
    ("rpc.timer_callbacks", "count"),
    ("rpc.self_s", "s"),
    ("rpc.ns_per_callback", "ns"),
    ("rpc.cost_growth", "ratio"),
    ("rpc.issued", "count"),
    ("rpc.completed", "count"),
    ("rpc.outstanding_end", "count"),
    ("transport.queued_msgs_max", "count"),
    ("transport.unacked_max", "count"),
    ("transport.sent_segments", "count"),
    ("transport.retransmits", "count"),
    ("core.issue_calls", "count"),
    ("core.downgrade_frac", "ratio"),
    ("core.ns_per_call", "ns"),
    ("shard.speedup_2t", "ratio"),
    ("shard.domain_imbalance", "ratio"),
    ("shard.cross_domain_pkts", "count"),
    ("telemetry.trace_lines", "count"),
    ("telemetry.trace_bytes", "bytes"),
    ("telemetry.overhead_frac", "ratio"),
    ("replay.read_s", "s"),
    ("replay.audit_s", "s"),
    ("replay.mb_per_s", "MB/s"),
    ("replay.audit_fail_checks", "count"),
    ("bench.span_overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    fidelity: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        traced: false,
        fidelity: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--traced" => args.traced = true,
            "--fidelity" => args.fidelity = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] \
                 [--trace 0|1 | --traced] [--fidelity]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(wl) = workload::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let ok = if args.fidelity {
        fidelity(wl)
    } else {
        measure(wl, &args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run every workload, each in its own process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for wl in &WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", wl.name]);
        if args.fidelity {
            cmd.arg("--fidelity");
        } else {
            cmd.args(["--seed", &args.seed.to_string()]);
            cmd.args(["--seconds", &args.seconds.to_string()]);
            cmd.args(["--trace", if args.traced { "1" } else { "0" }]);
        }
        match cmd.status() {
            Ok(s) => ok &= s.success(),
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", wl.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Directory for the trace-audit workload's trace file: the Cargo target
/// directory, so nothing lands among the sources.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench")
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A named pass/fail output check.
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

/// Everything one run measured, ready to print.
struct Report {
    workload: &'static str,
    why: &'static str,
    seed: u64,
    traced: bool,
    threads: usize,
    reps: usize,
    slice_samples: usize,
    coverage: f64,
    digest: u64,
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    /// (name, unit, value), in print order.
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn measure(wl: &'static Workload, args: &Args) -> bool {
    let dir = trace_dir();
    let trace = wl
        .traces()
        .then(|| dir.join(format!("trace-{}.jsonl", std::process::id())));
    if trace.is_some() {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            return false;
        }
    }
    let report = if args.traced {
        traced_run(wl, args, trace.as_deref())
    } else {
        untraced_run(wl, args, trace.as_deref())
    };
    if let Some(t) = &trace {
        // Best effort: a missing file only means the run never wrote it.
        let _ = std::fs::remove_file(t);
    }
    print_report(&report);
    report.checks.iter().all(|c| c.ok)
}

/// Drop a repetition's completions unless asked to keep them, so that
/// holding many repetitions does not inflate `peak_rss_mb`.
fn lean(mut r: Rep, keep: bool) -> Rep {
    if !keep {
        r.out.completions = Vec::new();
    }
    r
}

fn base_opts<'a>(wl: &Workload, args: &Args, trace: Option<&'a std::path::Path>) -> RepOpts<'a> {
    RepOpts {
        seed: args.seed,
        span: wl.span,
        threads: wl.threads,
        timed: false,
        trace,
    }
}

/// Checks every run makes on its repetitions: conservation, a repeatable
/// digest, and (trace-audit) a trace that replays to the same completions.
fn common_checks(reps: &[&Rep], checks: &mut Vec<Check>) {
    let first = &reps[0].out;
    checks.push(Check {
        name: "conservation",
        ok: reps.iter().all(|r| r.out.conserved()),
        detail: format!(
            "issued {} = completed {} + failed {} + dropped {} + outstanding {}",
            first.issued, first.completed, first.failed, first.dropped, first.outstanding
        ),
    });
    checks.push(Check {
        name: "digest_repeats",
        ok: reps.iter().all(|r| r.out.digest == first.digest),
        detail: format!("{} repetitions, digest {:016x}", reps.len(), first.digest),
    });
    checks.push(Check {
        name: "completions",
        ok: first.completed > 0 && first.qosh_p999_us.is_some() && first.goodput_gbps > 0.0,
        detail: format!("{} completed", first.completed),
    });
    if let Some(r) = &reps[0].replay {
        checks.push(Check {
            name: "trace_replays",
            ok: reps.iter().all(|rep| {
                rep.replay.as_ref().is_some_and(|r| {
                    r.error.is_none() && r.intact && r.rpc_completes == rep.out.completed
                })
            }),
            detail: match &r.error {
                Some(e) => e.clone(),
                None => format!(
                    "{} lines, {} rpc_complete events for {} completions",
                    r.lines, r.rpc_completes, first.completed
                ),
            },
        });
    }
}

fn digest_check(name: &'static str, a: &Rep, b: &Rep, what: &str) -> Check {
    Check {
        name,
        ok: a.out.digest == b.out.digest,
        detail: format!("{what}: {:016x} vs {:016x}", a.out.digest, b.out.digest),
    }
}

fn trace_file_check(a: &Rep, b: &Rep) -> Option<Check> {
    let (ra, rb) = (a.replay.as_ref()?, b.replay.as_ref()?);
    Some(Check {
        name: "traced_trace_identical",
        ok: ra.file_digest == rb.file_digest && ra.bytes == rb.bytes,
        detail: format!(
            "trace file {:016x} ({} B) vs {:016x} ({} B)",
            ra.file_digest, ra.bytes, rb.file_digest, rb.bytes
        ),
    })
}

fn coverage_check(coverage: f64) -> Check {
    Check {
        name: "span_coverage",
        ok: coverage >= 0.95,
        detail: format!(
            "setup + slice + replay spans cover {:.2}% of wall",
            coverage * 100.0
        ),
    }
}

fn untraced_run(wl: &'static Workload, args: &Args, trace: Option<&std::path::Path>) -> Report {
    let base = base_opts(wl, args, trace);
    let budget = Duration::from_secs(args.seconds);
    let (mut spent, mut setups, mut reps) = (Duration::ZERO, Vec::new(), Vec::new());
    let mut rss_mb = 0.0;
    while reps.len() < MIN_REPS || spent < budget {
        let (took, ()) = time_once(|| {
            setups.extend((0..SETUPS_PER_REP).map(|_| setup_only(wl, &base)));
            reps.push(lean(rep(wl, &base), reps.is_empty()));
        });
        spent += took;
        if reps.len() == 1 {
            // The peak of one build and span. Later repetitions only add
            // allocator churn, which varies with how many fit the budget.
            rss_mb = peak_rss_mb();
        }
    }
    // Check-only repetitions, outside the measured budget.
    let timed = rep(
        wl,
        &RepOpts {
            timed: true,
            ..base
        },
    );
    let one_thread = (wl.threads > 1).then(|| rep(wl, &RepOpts { threads: 1, ..base }));
    // The workload's further simulation seeds, for the `sim.*` medians.
    let others: Vec<Rep> = (1..wl.sim_seeds)
        .map(|k| {
            let seed = wl.sim_seed(args.seed, k);
            let o = RepOpts {
                seed,
                trace: None,
                ..base
            };
            lean(rep(wl, &o), false)
        })
        .collect();

    let mut checks = Vec::new();
    common_checks(&reps.iter().collect::<Vec<_>>(), &mut checks);
    if !others.is_empty() {
        checks.push(Check {
            name: "conservation_sim_seeds",
            ok: others
                .iter()
                .all(|r| r.out.conserved() && r.out.qosh_p999_us.is_some()),
            detail: format!("{} further seeds", others.len()),
        });
    }
    checks.push(digest_check(
        "traced_digest",
        &timed,
        &reps[0],
        "traced vs untraced",
    ));
    checks.extend(trace_file_check(&timed, &reps[0]));
    if let Some(one) = &one_thread {
        checks.push(digest_check(
            "threads_digest",
            one,
            &reps[0],
            "1 thread vs 2 threads",
        ));
    }
    let coverage = median(&reps.iter().map(Rep::coverage).collect::<Vec<_>>());
    checks.push(coverage_check(coverage));

    // Every repetition runs the same slices, so each slice's cost is its
    // fastest repetition; the percentiles are over the span's slices.
    let mut slices = Percentiles::new();
    for k in 0..reps[0].slice_s.len() {
        slices.record(best(reps.iter().map(|r| r.slice_s[k])) * 1e3);
    }
    let out = &reps[0].out;
    let sims: Vec<&run::Outcome> = std::iter::once(out)
        .chain(others.iter().map(|r| &r.out))
        .collect();
    let values = [
        median(&setups),
        wall(&reps),
        slices.p50().unwrap_or(0.0),
        slices.p99().unwrap_or(0.0),
        rss_mb,
        median(
            &sims
                .iter()
                .map(|o| o.qosh_p999_us.unwrap_or(0.0))
                .collect::<Vec<_>>(),
        ),
        median(&sims.iter().map(|o| o.goodput_gbps).collect::<Vec<_>>()),
    ];
    Report {
        workload: wl.name,
        why: wl.why,
        seed: args.seed,
        traced: false,
        threads: wl.threads,
        reps: reps.len(),
        slice_samples: reps.iter().map(|r| r.slice_s.len()).sum(),
        coverage,
        digest: out.digest,
        attempted: out.issued,
        failed: out.failed + out.dropped,
        checks,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
    }
}

/// The fastest of several host-time samples of identical work. Load from
/// other tenants of a shared host only ever slows a repetition down, so the
/// minimum is the steadiest estimate of the work's own cost.
fn best(samples: impl IntoIterator<Item = f64>) -> f64 {
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

fn wall(reps: &[Rep]) -> f64 {
    best(reps.iter().map(|r| r.wall_s))
}

fn slice_sum(r: &Rep) -> f64 {
    r.slice_s.iter().sum()
}

fn timing(r: &Rep) -> &run::Timing {
    r.timing.as_ref().expect("timed repetitions carry timing")
}

fn traced_run(wl: &'static Workload, args: &Args, trace: Option<&std::path::Path>) -> Report {
    // Child spans only nest on one clock: the split runs single-threaded,
    // and `shard.speedup_2t` times the workload's own thread count apart.
    let base = RepOpts {
        threads: 1,
        ..base_opts(wl, args, trace)
    };
    let timed_opts = RepOpts {
        timed: true,
        ..base
    };
    let budget = Duration::from_secs(args.seconds);
    let (mut spent, mut plain, mut timed) = (Duration::ZERO, Vec::new(), Vec::new());
    while plain.len() < 2 || spent < budget {
        let (took, ()) = time_once(|| {
            plain.push(lean(rep(wl, &base), plain.is_empty()));
            timed.push(lean(rep(wl, &timed_opts), false));
        });
        spent += took;
    }

    let mut checks = Vec::new();
    common_checks(&plain.iter().chain(&timed).collect::<Vec<_>>(), &mut checks);
    checks.push(digest_check(
        "traced_digest",
        &timed[0],
        &plain[0],
        "traced vs untraced",
    ));
    checks.extend(trace_file_check(&timed[0], &plain[0]));

    // The shard layer: the same run at 1 and at the workload's 2 threads,
    // alternated.
    let (mut speedup, mut imbalance, mut cross) = (0.0, 0.0, 0.0);
    if wl.threads > 1 {
        let sharded = RepOpts {
            threads: wl.threads,
            ..base
        };
        let mut one = Vec::new();
        let mut two = Vec::new();
        for _ in 0..3 {
            one.push(rep(wl, &base));
            two.push(rep(wl, &sharded));
        }
        speedup = wall(&one) / wall(&two);
        checks.push(digest_check(
            "threads_digest",
            &one[0],
            &two[0],
            "1 thread vs 2 threads",
        ));
        let d = &two[0].counts.domain_events;
        let mean = d.iter().sum::<u64>() as f64 / d.len().max(1) as f64;
        imbalance = d.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0);
        cross = two[0].counts.cross_domain_pkts as f64;
    }

    // The telemetry layer: the same simulation with the trace on and off,
    // alternated.
    let (mut tel_overhead, mut lines, mut bytes, mut read_s, mut audit_s, mut fails) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    if let Some(r0) = plain[0].replay.as_ref() {
        let off = RepOpts {
            trace: None,
            ..base
        };
        let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let on = rep(wl, &base);
            let flush = on.replay.as_ref().map_or(0.0, |r| r.flush_s);
            on_s.push(slice_sum(&on) + flush);
            off_s.push(slice_sum(&rep(wl, &off)));
        }
        tel_overhead = best(on_s) / best(off_s) - 1.0;
        lines = r0.lines as f64;
        bytes = r0.bytes as f64;
        let replays: Vec<_> = plain.iter().filter_map(|r| r.replay.as_ref()).collect();
        read_s = best(replays.iter().map(|r| r.read_s));
        audit_s = best(replays.iter().map(|r| r.audit_s));
        fails = r0.fail_checks as f64;
    }

    // The core layer: the run's issue/completion stream replayed into fresh
    // controllers.
    let (setup, _) = wl.setup(args.seed, wl.span);
    let config = workload::aequitas_config(&setup);
    let core_ns = best((0..5).map(|_| core_replay(&plain[0].out.completions, &config).1));

    let t0 = &timed[0];
    let c = &t0.counts;
    let out = &t0.out;
    let rpc_s = best(timed.iter().map(|r| timing(r).callback_s));
    let netsim_s = best(timed.iter().map(|r| slice_sum(r) - timing(r).callback_s));
    let growth = median(
        &timed
            .iter()
            .map(|r| timing(r).cost_growth)
            .collect::<Vec<_>>(),
    );
    let tm = timing(t0);
    let values = [
        c.events as f64,
        netsim_s,
        netsim_s * 1e9 / c.events.max(1) as f64,
        netsim_s / (netsim_s + rpc_s),
        c.tx_packets as f64,
        c.drops as f64,
        c.max_backlog_bytes as f64,
        c.max_class_depth_pkts as f64,
        tm.callbacks as f64,
        tm.timer_callbacks as f64,
        rpc_s,
        rpc_s * 1e9 / tm.callbacks.max(1) as f64,
        growth,
        out.issued as f64,
        out.completed as f64,
        out.outstanding as f64,
        tm.queued_msgs_max as f64,
        tm.unacked_max as f64,
        c.sent_segments as f64,
        c.retransmits as f64,
        c.admission_issued as f64,
        c.admission_downgraded as f64 / c.admission_issued.max(1) as f64,
        core_ns,
        speedup,
        imbalance,
        cross,
        lines,
        bytes,
        tel_overhead,
        read_s,
        audit_s,
        if read_s > 0.0 {
            bytes / 1e6 / read_s
        } else {
            0.0
        },
        fails,
        wall(&timed) / wall(&plain) - 1.0,
    ];
    let coverage = median(&plain.iter().map(Rep::coverage).collect::<Vec<_>>());
    checks.push(coverage_check(coverage));
    Report {
        workload: wl.name,
        why: wl.why,
        seed: args.seed,
        traced: true,
        threads: base.threads,
        reps: plain.len() + timed.len(),
        slice_samples: timed.iter().map(|r| r.slice_s.len()).sum(),
        coverage,
        digest: out.digest,
        attempted: out.issued,
        failed: out.failed + out.dropped,
        checks,
        metrics: PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect(),
    }
}

/// A JSON number; a non-finite value (which no metric should produce) is
/// written as 0 and fails the run's `finite_metrics` check.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_report(r: &Report) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = git_rev();
    let finite = r.metrics.iter().all(|m| m.2.is_finite());
    let correct = finite && r.checks.iter().all(|c| c.ok);
    println!(
        "perfbench {} seed={} traced={} reps={} threads={} nproc={} rev={}",
        r.workload, r.seed, r.traced as u8, r.reps, r.threads, nproc, rev
    );
    println!("  ({})", r.why);
    for (name, unit, v) in &r.metrics {
        println!("  {name:<28} {:>16} {unit}", num(*v));
    }
    println!(
        "  operations: attempted {} failed {}; {} slice samples; span coverage {:.2}%",
        r.attempted,
        r.failed,
        r.slice_samples,
        r.coverage * 100.0
    );
    for c in &r.checks {
        let verdict = if c.ok { "ok  " } else { "FAIL" };
        println!("  check {verdict} {:<24} {}", c.name, c.detail);
    }
    if !finite {
        println!("  check FAIL finite_metrics           a metric is not a finite number");
    }

    let mut metrics = String::new();
    for (i, (name, unit, v)) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*v)
        );
    }
    let mut checks = String::new();
    for (i, c) in r.checks.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(checks, "{sep}\"{}\": {}", c.name, c.ok);
    }
    println!(
        "{{\"record\": \"perfbench\", \"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \
         \"nproc\": {nproc}, \"threads\": {}, \"git_rev\": \"{rev}\", \"reps\": {}, \
         \"slice_samples\": {}, \"span_coverage\": {}, \"digest\": \"{:016x}\", \
         \"checks\": {{{checks}}}, \"metrics\": {{{metrics}}}}}",
        r.workload,
        r.seed,
        r.traced,
        r.threads,
        r.reps,
        r.slice_samples,
        num(r.coverage),
        r.digest,
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        r.attempted.max(1),
        r.failed,
    );
}

/// Run the workload at its figure's seed and span and compare with what
/// the figure's own experiment function reports.
fn fidelity(wl: &'static Workload) -> bool {
    let dir = trace_dir();
    let trace = wl
        .traces()
        .then(|| dir.join(format!("fidelity-{}.jsonl", std::process::id())));
    if trace.is_some() && std::fs::create_dir_all(&dir).is_err() {
        eprintln!("perfbench: cannot create {}", dir.display());
        return false;
    }
    let o = RepOpts {
        seed: wl.fidelity.seed,
        span: wl.fidelity.span,
        threads: wl.threads,
        timed: false,
        trace: trace.as_deref(),
    };
    let ours = rep(wl, &o);
    if let Some(t) = &trace {
        let _ = std::fs::remove_file(t);
    }
    let warm = aequitas_sim_core::SimTime::ZERO + wl.fidelity.span.warmup;
    let (what, bench, figure): (&str, String, String) = match wl.name {
        "star33-burst" => {
            let fig = slo::fig12(Scale::quick());
            (
                "fig12 w/ Aequitas QoSh 99.9p RNL (us)",
                format!("{:?}", ours.out.qosh_p999_us),
                format!("{:?}", fig.with[0]),
            )
        }
        "incast-overload" => {
            let fig = slo::fig11(Scale::quick());
            (
                "fig11 15 us point QoSh 99.9p RNL (us)",
                format!("{:?}", ours.out.qosh_p999_us),
                format!("{:?}", fig.points[0].p999_us),
            )
        }
        "clos-fleet" => {
            let fig = fleet::fleet_configured(Scale::quick(), wl.threads);
            (
                "fleet-scale quick QoSh 99.9p RNL (us)",
                format!("{:?}", ours.out.qosh_p999_us),
                format!("{:?}", fig.p999_us[0]),
            )
        }
        _ => {
            let fig = demo::trace_demo(Scale::full());
            let measured: Vec<_> = ours
                .out
                .completions
                .iter()
                .filter(|c| c.issued_at >= warm)
                .collect();
            let downgraded = measured.iter().filter(|c| c.downgraded).count();
            (
                "trace-demo issued/completed/downgraded",
                format!("{}/{}/{}", ours.out.issued, measured.len(), downgraded),
                format!("{}/{}/{}", fig.issued, fig.completed, fig.downgraded),
            )
        }
    };
    let ok = bench == figure;
    println!(
        "fidelity {} seed={} span={}ms: {what}: benchmark {bench}, figure {figure} -> {}",
        wl.name,
        wl.fidelity.seed,
        wl.fidelity.span.duration.as_ms_f64(),
        if ok { "match" } else { "MISMATCH" }
    );
    ok
}
