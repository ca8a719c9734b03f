//! `hostbench` — the host cost of a simulated result, end to end and
//! layer by layer.
//!
//! ```sh
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload stream_edf --seed 3 --seconds 20 --trace 0
//! ```
//!
//! One run sets the workload up and serves it repeatedly for `--seconds`
//! on a fresh runtime each time, rotating single-threaded serves over the
//! allowed cores, then prints its metrics (totals or medians over the
//! serves) as one JSON object on the last line of standard output. Before timing, the same
//! generated inputs are served once on the golden backend; every timed
//! serve must reproduce its outputs exactly.
//!
//! With `--trace 0` no probe is installed and the end-to-end metrics are
//! printed. With `--trace 1` untraced and traced serves alternate: the
//! traced ones carry the timing decorators of `probe.rs` and give the
//! per-layer metrics, the untraced ones the base of the tracing overhead.
//! The traced serve closest to the median is also written as folded
//! stacks (`--folded <path>`, default `.hostbench/<workload>.folded`).
//!
//! Options: `--workload <name>` (required); `--seed <n>`, the job-mix or
//! request-trace seed, defaulting to that of the experiment the workload
//! reproduces; `--fault-seed <n>` (`chaos_recovery`'s fault plan,
//! default 7); `--seconds <s>` (default 20); `--trace <0|1>` (default
//! 0); `--folded <path>`.

mod probe;
mod workload;

use std::collections::BTreeMap;
use std::time::Instant;

use dsra_runtime::BackendKind;
use probe::Probe;
use workload::{InputSeeds, Seeds, Served, Session, Workload};

/// Timed serves each mode needs before the run may stop.
const MIN_SERVES: usize = 5;
/// Set-up samples behind `setup_s`.
const SETUP_SAMPLES: usize = 7;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("jobs_per_s", "1/s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MB"),
];

/// Kernel display names and the forms their `PER_LAYER` rows use.
const KERNELS: [(&str, &str); 7] = [
    ("BASIC DA", "basic_da"),
    ("MIX ROM", "mix_rom"),
    ("CORDIC 1", "cordic_1"),
    ("CORDIC 2", "cordic_2"),
    ("SCC E/O", "scc_e_o"),
    ("SCC", "scc"),
    ("SYSTOLIC 8x8", "systolic_8x8"),
];

/// Per-layer metrics, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 51] = [
    ("backend.execute_calls", "count"),
    ("backend.execute_ms", "ms"),
    ("backend.execute_p50_us", "us"),
    ("backend.execute_p99_us", "us"),
    ("backend.basic_da.mcycles_per_s", "Mcycles/s"),
    ("backend.mix_rom.mcycles_per_s", "Mcycles/s"),
    ("backend.cordic_1.mcycles_per_s", "Mcycles/s"),
    ("backend.cordic_2.mcycles_per_s", "Mcycles/s"),
    ("backend.scc_e_o.mcycles_per_s", "Mcycles/s"),
    ("backend.scc.mcycles_per_s", "Mcycles/s"),
    ("backend.systolic_8x8.mcycles_per_s", "Mcycles/s"),
    ("runtime.serve_ms", "ms"),
    ("runtime.plan_ms", "ms"),
    ("runtime.exec_ms", "ms"),
    ("runtime.stream_serve_job_ms", "ms"),
    ("runtime.stream_serve_job_p99_us", "us"),
    ("runtime.place_self_ms", "ms"),
    ("service.serve_ms", "ms"),
    ("service.dispatch_self_ms", "ms"),
    ("service.requests", "count"),
    ("service.served", "count"),
    ("service.shed", "count"),
    ("service.failed", "count"),
    ("runtime.cache_hits", "count"),
    ("runtime.cache_misses", "count"),
    ("runtime.reconfig_events", "count"),
    ("runtime.reconfig_bits", "count"),
    ("runtime.diff_memo_len", "count"),
    ("chaos.dispatch_ms", "ms"),
    ("chaos.check_self_ms", "ms"),
    ("chaos.divergences", "count"),
    ("chaos.retries", "count"),
    ("chaos.quarantines", "count"),
    ("chaos.restores", "count"),
    ("chaos.useful_exec_pct", "%"),
    ("chaos.total_execs", "count"),
    ("trace.emit_calls", "count"),
    ("trace.emit_ms", "ms"),
    ("profile.report_ms", "ms"),
    ("trace.export_ms", "ms"),
    ("video.job_mix_ms", "ms"),
    ("service.generate_trace_ms", "ms"),
    ("setup.runtime_new_ms", "ms"),
    ("bench.untraced_wall_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.golden_wall_s", "s"),
    ("bench.serves", "count"),
    ("bench.setup_samples", "count"),
    ("bench.available_parallelism", "count"),
    ("fail_pct", "%"),
];

struct Args {
    workload: Workload,
    seeds: Seeds,
    seconds: f64,
    trace: bool,
    folded: Option<String>,
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => v.replace('_', "").parse(),
    };
    parsed.map_err(|_| format!("{flag} expects a non-negative integer, got `{v}`"))
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let known = [
            "--workload",
            "--seed",
            "--fault-seed",
            "--seconds",
            "--trace",
            "--folded",
        ];
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let name = flags
        .get("--workload")
        .ok_or("--workload <name> is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let seed =
        |flag: &str, default: u64| flags.get(flag).map_or(Ok(default), |v| parse_u64(flag, v));
    let seconds: f64 = match flags.get("--seconds") {
        Some(v) => v
            .parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
            .ok_or_else(|| format!("--seconds expects a duration in (0, 3600], got `{v}`"))?,
        None => 20.0,
    };
    let trace = match flags.get("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace expects 0 or 1, got `{v}`")),
    };
    let defaults = workload.default_seeds();
    if workload != Workload::ChaosRecovery && flags.contains_key("--fault-seed") {
        return Err("--fault-seed applies to chaos_recovery only".into());
    }
    let seeds = Seeds {
        input: seed("--seed", defaults.input)?,
        fault: seed("--fault-seed", defaults.fault)?,
    };
    Ok(Args {
        workload,
        seeds,
        seconds,
        trace,
        folded: flags.get("--folded").cloned(),
    })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A Linux `cpu_set_t`: a bit per CPU, 1024 of them.
type CpuSet = [u64; 16];

/// The CPUs this thread may run on; empty if they cannot be read.
fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable `cpu_set_t` of the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`. A failure only costs
/// steadiness, so it is reported and otherwise ignored.
fn run_on(cpus: &[usize]) {
    let mut mask: CpuSet = [0; 16];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live `cpu_set_t` of the size passed, and pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
    if rc != 0 {
        eprintln!("hostbench: could not move the serving thread to CPUs {cpus:?}");
    }
}

/// CPU seconds used by every thread of this process so far, including
/// worker threads that have already exited.
fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Jobs in `got` that disagree with the golden reference (missing,
/// extra, or with another served flag or checksum), plus corrupt results
/// served; at least 1 whenever any digest differs from the golden one,
/// or a backend-tagged digest from the first array-backend serve.
fn count_failures(got: &Served, golden: &Served, first: Option<&Served>) -> usize {
    let n = got.jobs.len().max(golden.jobs.len());
    let mismatched = (0..n)
        .filter(|&i| got.jobs.get(i) != golden.jobs.get(i))
        .count()
        + got.corrupt_served;
    let tagged_differ = first.is_some_and(|f| f.backend_tagged != got.backend_tagged);
    if mismatched == 0 && (got.digests != golden.digests || tagged_differ) {
        1
    } else {
        mismatched
    }
}

/// One timed serve.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    served: Served,
    probe: Option<Probe>,
}

fn timed_serve(
    args: &Args,
    inputs: &InputSeeds,
    probe: Option<Probe>,
) -> (f64, usize, Result<Sample, dsra_core::error::CoreError>) {
    // A traced serve's spans, set-up included, nest under the workload.
    if let Some(p) = &probe {
        p.enter(args.workload.name());
    }
    let t = Instant::now();
    let session = match Session::setup(args.workload, inputs, BackendKind::Array, probe.clone()) {
        Ok(s) => s,
        Err(e) => return (0.0, 0, Err(e)),
    };
    let setup_s = t.elapsed().as_secs_f64();
    let attempted = session.attempted();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let served = session.serve();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    if let Some(p) = &probe {
        p.exit();
    }
    let sample = served.map(|served| Sample {
        wall_s,
        cpu_s,
        served,
        probe,
    });
    (setup_s, attempted, sample)
}

fn layer_metrics(sample: &Sample) -> BTreeMap<String, f64> {
    let p = sample
        .probe
        .as_ref()
        .expect("layer metrics come from traced serves");
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let be = p.totals("backend.execute");
    let ssj = p.totals("runtime.stream_serve_job");
    let cd = p.totals("chaos.dispatch");
    let ss = p.totals("service.serve");
    let emit = p.totals("trace.emit");
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_owned(), v);
    };
    put("backend.execute_calls", be.calls as f64);
    put("backend.execute_ms", be.ms());
    put("backend.execute_p50_us", be.percentile_us(50.0));
    put("backend.execute_p99_us", be.percentile_us(99.0));
    let kernels = p.kernels();
    for (display, metric) in KERNELS {
        let (cycles, ns) = kernels.get(display).copied().unwrap_or((0, 0));
        let rate = if ns == 0 {
            0.0
        } else {
            cycles as f64 * 1e3 / ns as f64
        };
        put(&format!("backend.{metric}.mcycles_per_s"), rate);
    }
    for name in ["runtime.serve", "runtime.plan", "runtime.exec"] {
        put(&format!("{name}_ms"), p.totals(name).ms());
    }
    put("runtime.stream_serve_job_ms", ssj.ms());
    put("runtime.stream_serve_job_p99_us", ssj.percentile_us(99.0));
    let self_of = |outer: &probe::Totals, inner: f64| {
        if outer.calls == 0 {
            0.0
        } else {
            outer.ms() - inner
        }
    };
    put("runtime.place_self_ms", self_of(&ssj, be.ms()));
    put("service.serve_ms", ss.ms());
    put("service.dispatch_self_ms", self_of(&ss, ssj.ms() + cd.ms()));
    put("chaos.dispatch_ms", cd.ms());
    put("chaos.check_self_ms", self_of(&cd, be.ms()));
    put("trace.emit_calls", emit.calls as f64);
    put("trace.emit_ms", emit.ms());
    for name in [
        "profile.report",
        "trace.export",
        "video.job_mix",
        "service.generate_trace",
    ] {
        put(&format!("{name}_ms"), p.totals(name).ms());
    }
    put("setup.runtime_new_ms", p.totals("runtime.new").ms());
    for (k, v) in &sample.served.counts {
        put(k, *v);
    }
    m
}

fn json_metrics(values: &[(String, &str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Serves the run's inputs once on the golden backend. `None` when the
/// reference itself fails; the flag is `false` when it served a corrupt
/// result.
fn golden_reference(args: &Args, inputs: &InputSeeds) -> Option<(Served, f64, bool)> {
    let t = Instant::now();
    let golden = match Session::setup(args.workload, inputs, BackendKind::Golden, None)
        .and_then(Session::serve)
    {
        Ok(g) => g,
        Err(e) => {
            eprintln!("hostbench: golden reference failed: {e}");
            return None;
        }
    };
    let wall_s = t.elapsed().as_secs_f64();
    for (label, digest) in &golden.digests {
        println!("golden {label:<13}: {digest:#018x}");
    }
    let ok = golden.corrupt_served == 0;
    if !ok {
        eprintln!(
            "hostbench: golden reference served {} corrupt results",
            golden.corrupt_served
        );
    }
    Some((golden, wall_s, ok))
}

/// At the default seeds, serves the experiment's own inputs (larger than
/// a benchmark serve) on the golden backend and checks the digests the
/// experiment binary pins. Runs after the metrics are taken, so that it
/// does not raise `peak_rss_mb`. `true` when every pinned digest
/// reproduced, or the seeds are not the defaults.
fn pinned_digests_reproduce(args: &Args) -> bool {
    let w = args.workload;
    if args.seeds != w.default_seeds() {
        return true;
    }
    let full = match Session::setup(w, &w.experiment_inputs(), BackendKind::Golden, None)
        .and_then(Session::serve)
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("hostbench: golden serve at the experiment size failed: {e}");
            return false;
        }
    };
    let mut ok = true;
    for (label, experiment, pinned) in w.pinned_digests() {
        let got = full.digests.iter().find(|(l, _)| l == label).map(|d| d.1);
        let reproduced = got == Some(*pinned);
        println!(
            "pinned {experiment}: {pinned:#018x} {}",
            if reproduced {
                "reproduced"
            } else {
                "NOT reproduced"
            }
        );
        ok &= reproduced;
    }
    ok
}

/// Everything one run measured.
#[derive(Default)]
struct Measured {
    setups: Vec<f64>,
    untraced: Vec<Sample>,
    traced: Vec<Sample>,
    attempted: usize,
    failed: usize,
}

/// Serves until `--seconds` have passed and each mode has its minimum
/// of serves (with `--trace 1` untraced and traced serves alternate),
/// checking every serve against `golden`; then tops the set-up samples up.
fn measure(args: &Args, inputs: &InputSeeds, golden: &Served) -> Measured {
    let mut m = Measured::default();
    // The host's cores slow down independently of each other, in spells
    // of seconds to tens of seconds, so a serving thread the scheduler
    // leaves on one core for the whole run measures that core's spells.
    // Rotating the serves over the allowed cores averages them. Batch
    // serves run a worker thread per array, which would inherit the pin,
    // so they stay unpinned.
    let cpus = if args.workload.single_threaded() {
        allowed_cpus()
    } else {
        Vec::new()
    };
    let start = Instant::now();
    for i in 0.. {
        let want_trace = args.trace && i % 2 == 1;
        if cpus.len() > 1 {
            // A traced serve runs on the core of the untraced one before it.
            let round = if args.trace { i / 2 } else { i };
            run_on(&cpus[round % cpus.len()..][..1]);
        }
        let (setup_s, jobs, sample) = timed_serve(args, inputs, want_trace.then(Probe::default));
        m.attempted += jobs;
        match sample {
            Ok(s) => {
                let first = m.untraced.first().map(|f| &f.served);
                let bad = count_failures(&s.served, golden, first);
                if bad > 0 {
                    eprintln!(
                        "hostbench: serve {i} disagrees with the golden backend on {bad} jobs"
                    );
                }
                m.failed += bad;
                if want_trace {
                    m.traced.push(s);
                } else {
                    m.setups.push(setup_s);
                    m.untraced.push(s);
                }
            }
            Err(e) => {
                eprintln!("hostbench: serve {i} failed: {e}");
                m.failed += jobs.max(1);
                return m;
            }
        }
        let enough =
            m.untraced.len() >= MIN_SERVES && (!args.trace || m.traced.len() >= MIN_SERVES);
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    if cpus.len() > 1 {
        run_on(&cpus);
    }
    while m.setups.len() < SETUP_SAMPLES {
        let t = Instant::now();
        match Session::setup(args.workload, inputs, BackendKind::Array, None) {
            Ok(session) => {
                m.setups.push(t.elapsed().as_secs_f64());
                drop(session);
            }
            Err(e) => {
                eprintln!("hostbench: set-up failed: {e}");
                m.failed += 1;
                break;
            }
        }
    }
    m
}

/// Mean of `values`: their total over their count.
fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len();
    if n == 0 {
        0.0
    } else {
        values.sum::<f64>() / n as f64
    }
}

/// The end-to-end metrics. The serve metrics are totals over every
/// untraced serve of the run (work over the whole serving time), not
/// medians: the shared host's speed alternates between two levels over
/// spells of seconds to tens of seconds, and a median of serves jumps to
/// whichever level held most of the run, where the total weighs the two
/// by the time each held. Set-up time is the median of its samples, so
/// that one slow sample does not move it.
fn end_to_end(m: &Measured) -> Vec<(String, &'static str, f64)> {
    let wall_s = mean(m.untraced.iter().map(|s| s.wall_s));
    let (served, cycles) = m
        .untraced
        .first()
        .map_or((0, 0), |s| (s.served.served, s.served.sim_cycles));
    let per_wall = |x: f64| if wall_s > 0.0 { x / wall_s } else { 0.0 };
    let values = [
        median(&m.setups),
        wall_s,
        mean(m.untraced.iter().map(|s| s.cpu_s)),
        per_wall(served as f64),
        per_wall(cycles as f64 / 1e6),
        peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (name.to_string(), *unit, v))
        .collect()
}

/// The per-layer metrics: medians over the traced serves, plus the
/// tracing overhead, the mean traced serve over the mean untraced serve
/// of the same run.
fn per_layer(m: &Measured, golden_wall_s: f64) -> Vec<(String, &'static str, f64)> {
    let untraced_wall_s = mean(m.untraced.iter().map(|s| s.wall_s));
    let traced_wall_s = mean(m.traced.iter().map(|s| s.wall_s));
    let per_serve: Vec<BTreeMap<String, f64>> = m.traced.iter().map(layer_metrics).collect();
    let mut layer: BTreeMap<String, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let vals: Vec<f64> = per_serve
            .iter()
            .map(|s| s.get(name).copied().unwrap_or(0.0))
            .collect();
        layer.insert(name.to_owned(), median(&vals));
    }
    let ratio = if untraced_wall_s > 0.0 {
        traced_wall_s / untraced_wall_s
    } else {
        0.0
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    for (name, v) in [
        ("bench.untraced_wall_s", untraced_wall_s),
        ("bench.traced_wall_s", traced_wall_s),
        ("bench.trace_overhead_ratio", ratio),
        ("bench.golden_wall_s", golden_wall_s),
        ("bench.serves", (m.untraced.len() + m.traced.len()) as f64),
        ("bench.setup_samples", m.setups.len() as f64),
        ("bench.available_parallelism", parallelism as f64),
        (
            "fail_pct",
            m.failed as f64 * 100.0 / m.attempted.max(1) as f64,
        ),
    ] {
        layer.insert(name.to_owned(), v);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit, layer[name]))
        .collect()
}

/// Writes the folded stacks of the traced serve whose wall time is
/// closest to the traced median.
fn write_folded(args: &Args, m: &Measured) {
    let traced_wall_s = median(&m.traced.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let Some(s) = m.traced.iter().min_by(|a, b| {
        (a.wall_s - traced_wall_s)
            .abs()
            .total_cmp(&(b.wall_s - traced_wall_s).abs())
    }) else {
        return;
    };
    let path = args
        .folded
        .clone()
        .unwrap_or_else(|| format!(".hostbench/{}.folded", args.workload.name()));
    let folded = s.probe.as_ref().expect("traced serve has a probe").folded();
    let written = std::path::Path::new(&path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, folded));
    match written {
        Ok(()) => eprintln!("hostbench: wrote host-time folded stacks to {path}"),
        Err(e) => eprintln!("hostbench: could not write {path}: {e}"),
    }
}

fn run(args: &Args) -> i32 {
    let w = args.workload;
    eprintln!(
        "hostbench: {} input seed {:#x} fault seed {:#x}, {} s, trace {}",
        w.name(),
        args.seeds.input,
        args.seeds.fault,
        args.seconds,
        u8::from(args.trace)
    );
    let inputs = w.draw(args.seeds);
    eprintln!("hostbench: generator seeds {inputs:x?}");
    let Some((golden, golden_wall_s, golden_ok)) = golden_reference(args, &inputs) else {
        return 1;
    };
    let m = measure(args, &inputs, &golden);
    let walls: Vec<f64> = m.untraced.iter().map(|s| s.wall_s).collect();
    eprintln!(
        "hostbench: {} untraced serves, wall {:.4}..{:.4} s, mean {:.4} s, median {:.4} s; {} traced",
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        mean(walls.iter().copied()),
        median(&walls),
        m.traced.len()
    );
    let metrics = if args.trace {
        write_folded(args, &m);
        per_layer(&m, golden_wall_s)
    } else {
        end_to_end(&m)
    };
    let pinned_ok = pinned_digests_reproduce(args);
    let correct = golden_ok && pinned_ok && m.failed == 0 && !m.untraced.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.attempted.max(1),
        m.failed,
        json_metrics(&metrics)
    );
    i32::from(!correct)
}

fn main() {
    let code = match parse_args() {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("hostbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
