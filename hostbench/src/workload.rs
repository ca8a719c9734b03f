//! The four workloads, each driven through the stack's public entry
//! points exactly as its experiment binary drives it: set-up (runtime
//! construction, input generation, fault plan and decorators) is one call,
//! serving and assembling the outputs is another, so the two can be timed
//! apart.

use dsra_chaos::{
    assemble, install_chaos, ChaosConfig, ChaosHook, ChaosState, FaultPlan, RecoveryConfig,
};
use dsra_core::error::Result;
use dsra_core::rng::{fnv1a_fold, split_seed};
use dsra_monitor::MonitorHandle;
use dsra_profile::{flamegraph, ProfileReport, ProfileSink, ProfilerHandle};
use dsra_runtime::{BackendKind, CacheStats, RuntimeConfig, SocRuntime};
use dsra_service::{
    generate_trace, install_monitor, serve_requests_with_hook, standard_tenants, AdmitPolicy,
    DispatchHook, NoopDispatch, Request, ServiceConfig, ServiceReport, TenantSpec, TraceConfig,
};
use dsra_trace::{chrome_trace, EventLog};
use dsra_video::{generate_job_mix, JobMixConfig, JobPayload, JobSpec, ServiceClass};

use crate::probe::{Probe, TimedBackend, TimedHook, TimedSink, WORKER_FRAMES};

/// Jobs in one `batch_mixed` batch (the E11 size).
pub const BATCH_JOBS: u32 = 1_000;
/// Batches one `batch_mixed` serve runs back to back, one per chunk of
/// the seed's job stream (`JobMixConfig::chunk`); at the E11 seed the
/// first is the E11 mix itself.
pub const BATCH_COUNT: u64 = 2;
/// Virtual trace window of one streaming serve, µs. The experiments
/// serve 20 000 µs (E13, E16); a benchmark serve is an eighth of that,
/// so that a run holds many serves, spread over the shared host's slow
/// spells and rotated over its cores.
pub const STREAM_DURATION_US: u64 = 2_500;
/// Virtual trace window of one chaos serve, µs; E15 serves 6000 µs. The
/// fault plan schedules the same faults into the shorter window. At
/// 1500 µs they crowd it: for three seeds in five, divergences rose from
/// ~15 to ~390 and half the requests were shed or failed, which made
/// the workload's cost swing 2× between seeds.
pub const CHAOS_DURATION_US: u64 = 3_000;
/// The experiments' trace windows, served only to check their pinned
/// digests.
const E13_DURATION_US: u64 = 20_000;
const E15_DURATION_US: u64 = 6_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E11: DCT/ME/encode job mixes through `SocRuntime::serve`.
    BatchMixed,
    /// E13: 4 tenants at ~900 req/ms, EDF with shedding, one host thread.
    StreamEdf,
    /// E15 recovery arm: 3 tenants at ~450 req/ms under a fault plan.
    ChaosRecovery,
    /// E16: `StreamEdf` with the event log, monitor and profiler teed on.
    StreamObserved,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BatchMixed,
        Workload::StreamEdf,
        Workload::ChaosRecovery,
        Workload::StreamObserved,
    ];

    /// Command-line name, also the root frame of its folded stacks.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchMixed => "batch_mixed",
            Workload::StreamEdf => "stream_edf",
            Workload::ChaosRecovery => "chaos_recovery",
            Workload::StreamObserved => "stream_observed",
        }
    }

    /// Resolves a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a serve runs on the calling thread alone. Batch serves run
    /// one worker thread per array.
    pub fn single_threaded(self) -> bool {
        self != Workload::BatchMixed
    }

    /// The seeds of the experiment binary this workload reproduces.
    pub fn default_seeds(self) -> Seeds {
        let input = match self {
            Workload::BatchMixed => JobMixConfig::default().seed,
            _ => TraceConfig::default().seed,
        };
        Seeds {
            input,
            fault: ChaosConfig::default().seed,
        }
    }

    /// The generator seeds of a run. A serve's cost follows its encode
    /// GOPs, which a seed draws in small numbers: between seeds a
    /// 1000-job mix swings by ±15 % and an E15 trace by ±12 % in host
    /// time, and a short trace's request count by several %. Every
    /// workload's inputs are therefore drawn by [`conditioned`].
    pub fn draw(self, seeds: Seeds) -> InputSeeds {
        let generator = match self {
            Workload::BatchMixed => {
                let mix_profile = |seed| {
                    let jobs = generate_job_mix(batch_config(seed));
                    work_profile(jobs.iter().map(|j| (&j.payload, j.class)))
                };
                let target = mix_profile(self.default_seeds().input);
                let base = batch_config(seeds.input);
                (0..BATCH_COUNT)
                    .map(|i| conditioned(base.chunk(i).seed, target, mix_profile))
                    .collect()
            }
            Workload::ChaosRecovery | Workload::StreamEdf | Workload::StreamObserved => {
                let trace_profile = |seed| {
                    let trace = generate_trace(&self.trace_config(seed, self.duration_us()));
                    work_profile(trace.iter().map(|r| (&r.payload, r.class)))
                };
                let target = trace_profile(self.default_seeds().input);
                vec![conditioned(seeds.input, target, trace_profile)]
            }
        };
        InputSeeds {
            generator,
            fault: seeds.fault,
            duration_us: self.duration_us(),
        }
    }

    /// The inputs of the experiment binary this workload reproduces, at
    /// its seeds and size: the ones its pinned digests were taken on.
    pub fn experiment_inputs(self) -> InputSeeds {
        let seeds = self.default_seeds();
        InputSeeds {
            generator: vec![seeds.input],
            fault: seeds.fault,
            duration_us: match self {
                Workload::BatchMixed => 0,
                Workload::ChaosRecovery => E15_DURATION_US,
                Workload::StreamEdf | Workload::StreamObserved => E13_DURATION_US,
            },
        }
    }

    /// Virtual trace window of one benchmark serve, µs (0 for batches).
    fn duration_us(self) -> u64 {
        match self {
            Workload::BatchMixed => 0,
            Workload::ChaosRecovery => CHAOS_DURATION_US,
            Workload::StreamEdf | Workload::StreamObserved => STREAM_DURATION_US,
        }
    }

    /// The request trace shape (streaming workloads).
    fn trace_config(self, seed: u64, duration_us: u64) -> TraceConfig {
        let (tenants, rate_per_ms) = match self {
            Workload::ChaosRecovery => (3u16, 450),
            _ => (4, 900),
        };
        let mean_gap_us = (u64::from(tenants) * 1000 / rate_per_ms).max(1);
        TraceConfig {
            tenants: standard_tenants(tenants, mean_gap_us),
            duration_us,
            seed,
        }
    }

    /// Digests the experiment binaries pin at the default seeds, as
    /// `(Served::digests label, experiment label, value)`.
    pub fn pinned_digests(self) -> &'static [(&'static str, &'static str, u64)] {
        const E13: (&str, &str, u64) = ("outcome", "E13 edf_shed outcome", 0x8ff5_4dee_67c9_be1c);
        match self {
            Workload::BatchMixed => &[("batch0", "E11 outcome", 0x0bfb_63a2_aa9a_9a73)],
            Workload::StreamEdf => &[E13],
            Workload::ChaosRecovery => &[("chaos", "E15 recovery chaos", 0x9061_795b_2345_520a)],
            Workload::StreamObserved => &[E13, ("profile", "E16 profile", 0x00a6_e702_af8c_9a1b)],
        }
    }
}

/// The seeds a run is given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// Job-mix or request-trace seed.
    pub input: u64,
    /// Fault-plan seed (`chaos_recovery` only).
    pub fault: u64,
}

/// The seeds a session feeds the program's generators, drawn once per
/// run from its [`Seeds`] by [`Workload::draw`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSeeds {
    /// One job-mix seed per batch (`batch_mixed`), else the trace seed.
    generator: Vec<u64>,
    /// Fault-plan seed.
    fault: u64,
    /// Virtual trace window, µs (streaming workloads).
    duration_us: u64,
}

/// What one serve produced: everything the correctness check compares
/// against the golden backend, plus the report counts the per-layer view
/// prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Deterministic digests of the outputs; the first is the report's
    /// outcome digest. Identical on every backend.
    pub digests: Vec<(&'static str, u64)>,
    /// Digests of outputs that name the backend they ran on (the Chrome
    /// trace's metadata does), so they repeat only on the same backend.
    pub backend_tagged: Vec<(&'static str, u64)>,
    /// `(id, served, checksum)` per attempted job, in id order.
    pub jobs: Vec<(u32, bool, u64)>,
    /// Served results.
    pub served: usize,
    /// Σ exec cycles over the report's arrays.
    pub sim_cycles: u64,
    /// Corrupt results served (`chaos_recovery`; 0 elsewhere).
    pub corrupt_served: usize,
    /// Exact counts from the public reports, by per-layer metric name.
    pub counts: Vec<(&'static str, f64)>,
}

enum Input {
    Batch(Vec<Vec<JobSpec>>),
    Stream(Stream),
    Chaos {
        stream: Stream,
        state: ChaosState,
        hook: Box<ChaosHook>,
    },
    Observed {
        stream: Stream,
        monitor: MonitorHandle,
        profiler: ProfilerHandle,
    },
}

struct Stream {
    tenants: Vec<TenantSpec>,
    duration_us: u64,
    requests: Vec<Request>,
}

impl Stream {
    fn generate(config: TraceConfig, probe: Option<&Probe>) -> Self {
        let requests = timed(probe, "service.generate_trace", || generate_trace(&config));
        Stream {
            tenants: config.tenants,
            duration_us: config.duration_us,
            requests,
        }
    }
}

fn batch_config(seed: u64) -> JobMixConfig {
    JobMixConfig {
        jobs: BATCH_JOBS,
        seed,
        ..Default::default()
    }
}

/// Index of the job count in a [`work_profile`].
const JOB_COUNT: usize = 4;

/// The work profile that sets a serve's cost: encode frames per service
/// class (quality, low-power, deadline, background) — the heavy
/// payloads, split by the class that picks the DCT mapping they run on —
/// and the number of jobs.
fn work_profile<'a>(jobs: impl Iterator<Item = (&'a JobPayload, ServiceClass)>) -> [u64; 5] {
    let mut profile = [0; 5];
    for (payload, class) in jobs {
        profile[JOB_COUNT] += 1;
        if let JobPayload::EncodeGop { frames, .. } = payload {
            let i = match class {
                ServiceClass::Quality => 0,
                ServiceClass::LowPower => 1,
                ServiceClass::Deadline(_) => 2,
                ServiceClass::Background => 3,
            };
            profile[i] += u64::from(*frames);
        }
    }
    profile
}

/// `seed` when the inputs it generates match `target`'s work profile
/// within 3 % (or 2) in every encode entry and 1 % (or 2) in the job
/// count; else the first of the seed's successors (`split_seed(!seed, 1,
/// 2, …)`) whose inputs do, or failing that the closest. The inputs stay
/// genuine generator output, but their amount of work no longer swings
/// with the seed. The count is held tighter because `jobs_per_s` counts
/// jobs, however light. The default seed, whose inputs set `target`, is
/// always kept.
fn conditioned(seed: u64, target: [u64; 5], profile: impl Fn(u64) -> [u64; 5]) -> u64 {
    // The largest miss, in units of that entry's tolerance.
    let miss = |p: [u64; 5]| {
        p.iter()
            .zip(target)
            .enumerate()
            .map(|(i, (&got, want))| {
                let percent = if i == JOB_COUNT { 1 } else { 3 };
                got.abs_diff(want) as f64 / (want * percent / 100).max(2) as f64
            })
            .fold(0.0, f64::max)
    };
    let mut best = (f64::INFINITY, seed);
    for attempt in 0..10_000u64 {
        let s = if attempt == 0 {
            seed
        } else {
            split_seed(!seed, attempt)
        };
        let m = miss(profile(s));
        if m <= 1.0 {
            return s;
        }
        if m < best.0 {
            best = (m, s);
        }
    }
    best.1
}

fn timed<T>(probe: Option<&Probe>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match probe {
        Some(p) => p.span(name, f),
        None => f(),
    }
}

/// A workload set up and ready to serve.
pub struct Session {
    workload: Workload,
    runtime: SocRuntime,
    input: Input,
    probe: Option<Probe>,
    cache_before: CacheStats,
}

impl Session {
    /// Builds the runtime on `backend`, generates the inputs from
    /// `seeds` and installs the workload's observers (and, with a
    /// `probe`, the timing decorators).
    ///
    /// # Errors
    /// Propagates runtime construction failures.
    pub fn setup(
        workload: Workload,
        seeds: &InputSeeds,
        backend: BackendKind,
        probe: Option<Probe>,
    ) -> Result<Self> {
        let p = probe.as_ref();
        timed(p, "setup", || {
            let mut runtime = timed(p, "runtime.new", || {
                SocRuntime::new(RuntimeConfig {
                    da_arrays: 2,
                    me_arrays: 2,
                    backend,
                    ..Default::default()
                })
            })?;
            if let Some(p) = p {
                // Batch plans run on one worker thread per array; the
                // streaming paths execute nested in the serving thread.
                let worker_root = (workload == Workload::BatchMixed).then_some(workload.name());
                runtime.wrap_engines(|array, inner| {
                    Box::new(TimedBackend::new(array, inner, p.clone(), worker_root))
                });
            }
            let trace = |seed| workload.trace_config(seed, seeds.duration_us);
            let trace_seed = seeds.generator[0];
            let input = match workload {
                Workload::BatchMixed => Input::Batch(timed(p, "video.job_mix", || {
                    seeds
                        .generator
                        .iter()
                        .map(|&seed| generate_job_mix(batch_config(seed)))
                        .collect()
                })),
                Workload::StreamEdf => Input::Stream(Stream::generate(trace(trace_seed), p)),
                Workload::ChaosRecovery => {
                    let stream = Stream::generate(trace(trace_seed), p);
                    let (state, hook) = timed(p, "chaos.install", || {
                        let plan = FaultPlan::generate(&ChaosConfig {
                            seed: seeds.fault,
                            duration_us: seeds.duration_us,
                            arrays: runtime.engine_count(),
                            ..Default::default()
                        });
                        let state = install_chaos(&mut runtime);
                        let hook = Box::new(ChaosHook::new(
                            plan,
                            state.clone(),
                            runtime.engine_count(),
                            RecoveryConfig::default(),
                        ));
                        (state, hook)
                    });
                    Input::Chaos {
                        stream,
                        state,
                        hook,
                    }
                }
                Workload::StreamObserved => {
                    let stream = Stream::generate(trace(trace_seed), p);
                    let monitor =
                        install_monitor(&mut runtime, &stream.tenants, Box::new(EventLog::new()));
                    let profiler = ProfilerHandle::default();
                    let inner = runtime.take_trace_sink();
                    runtime.set_trace_sink(Box::new(ProfileSink::new(profiler.clone(), inner)));
                    Input::Observed {
                        stream,
                        monitor,
                        profiler,
                    }
                }
            };
            if let Some(p) = p {
                let inner = runtime.take_trace_sink();
                runtime.set_trace_sink(Box::new(TimedSink::new(inner, p.clone())));
            }
            let cache_before = runtime.cache_stats();
            Ok(Session {
                workload,
                runtime,
                input,
                probe: probe.clone(),
                cache_before,
            })
        })
    }

    /// Jobs or requests this session will attempt.
    pub fn attempted(&self) -> usize {
        match &self.input {
            Input::Batch(batches) => batches.iter().map(Vec::len).sum(),
            Input::Stream(stream)
            | Input::Chaos { stream, .. }
            | Input::Observed { stream, .. } => stream.requests.len(),
        }
    }

    /// Serves the inputs and assembles the workload's outputs — the
    /// region `wall_s` times.
    ///
    /// # Errors
    /// Propagates serve failures.
    pub fn serve(self) -> Result<Served> {
        let Session {
            workload,
            mut runtime,
            input,
            probe,
            cache_before,
        } = self;
        let p = probe.as_ref();
        match input {
            Input::Batch(batches) => serve_batch(workload, &mut runtime, &batches, p),
            Input::Stream(stream) => {
                let report = serve_stream(
                    &mut runtime,
                    &stream,
                    None,
                    &mut NoopDispatch,
                    "runtime.stream_serve_job",
                    p,
                )?;
                Ok(stream_served(&runtime, report, cache_before, Vec::new()))
            }
            Input::Chaos {
                stream,
                state,
                mut hook,
            } => {
                let report = serve_stream(
                    &mut runtime,
                    &stream,
                    None,
                    hook.as_mut(),
                    "chaos.dispatch",
                    p,
                )?;
                let chaos = assemble(report, hook.counts(), &state);
                let (c, digest) = (chaos.counts, chaos.digest());
                let useful = chaos.total_execs - chaos.corrupt_execs;
                let mut served = stream_served(
                    &runtime,
                    chaos.service,
                    cache_before,
                    vec![
                        ("chaos.divergences", c.divergences as f64),
                        ("chaos.retries", c.retries as f64),
                        ("chaos.quarantines", c.quarantines as f64),
                        ("chaos.restores", c.restores as f64),
                        ("chaos.total_execs", chaos.total_execs as f64),
                        (
                            "chaos.useful_exec_pct",
                            useful as f64 * 100.0 / chaos.total_execs.max(1) as f64,
                        ),
                    ],
                );
                served.digests.push(("chaos", digest));
                served.corrupt_served = chaos.corrupt_served;
                Ok(served)
            }
            Input::Observed {
                stream,
                monitor,
                profiler,
            } => {
                let report = serve_stream(
                    &mut runtime,
                    &stream,
                    Some(monitor),
                    &mut NoopDispatch,
                    "runtime.stream_serve_job",
                    p,
                )?;
                let (profile, flame) = timed(p, "profile.report", || {
                    let mixes = runtime.kernel_op_mixes();
                    profiler.with(|prof| {
                        (
                            ProfileReport::build(prof, &mixes),
                            flamegraph(prof, &mixes).render(),
                        )
                    })
                });
                let chrome = timed(p, "trace.export", || {
                    let log = runtime
                        .take_trace_sink()
                        .into_log()
                        .expect("the observed session records into an EventLog");
                    chrome_trace(&log)
                });
                let mut served = stream_served(&runtime, report, cache_before, Vec::new());
                served.digests.extend([
                    ("profile", profile.digest()),
                    ("flamegraph", hash_bytes(flame.as_bytes())),
                ]);
                served.backend_tagged = vec![("chrome_trace", hash_bytes(chrome.as_bytes()))];
                Ok(served)
            }
        }
    }
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(0xCBF2_9CE4_8422_2325, |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        fnv1a_fold(h, u64::from_le_bytes(word))
    }) ^ bytes.len() as u64
}

fn serve_batch(
    workload: Workload,
    runtime: &mut SocRuntime,
    batches: &[Vec<JobSpec>],
    probe: Option<&Probe>,
) -> Result<Served> {
    let mut served = Served {
        digests: Vec::new(),
        backend_tagged: Vec::new(),
        jobs: Vec::new(),
        served: 0,
        sim_cycles: 0,
        corrupt_served: 0,
        counts: Vec::new(),
    };
    let (mut hits, mut misses, mut events, mut bits) = (0, 0, 0, 0);
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for (i, jobs) in batches.iter().enumerate() {
        if i > 0 {
            // Every batch starts on a full battery, as the first one does.
            runtime.recharge_full();
        }
        let report = timed(probe, "runtime.serve", || {
            let report = runtime.serve(jobs);
            if let Some(p) = probe {
                record_batch_phases(p, runtime);
            }
            report
        })?;
        if i == 0 {
            served.digests.push(("batch0", report.digest()));
        }
        digest = fnv1a_fold(digest, report.digest());
        let offset = i as u32 * BATCH_JOBS;
        served.jobs.extend(
            report
                .outcomes
                .iter()
                .map(|o| (offset + o.id, true, o.checksum)),
        );
        served.served += report.jobs;
        served.sim_cycles += report.arrays.iter().map(|a| a.exec_cycles).sum::<u64>();
        hits += report.cache.hits;
        misses += report.cache.misses;
        events += report.reconfig_events;
        bits += report.total_reconfig_bits;
    }
    if let Some(p) = probe {
        record_worker_waits(p, workload, runtime);
    }
    served.digests.insert(0, ("outcome", digest));
    served.counts = vec![
        ("runtime.cache_hits", hits as f64),
        ("runtime.cache_misses", misses as f64),
        ("runtime.reconfig_events", events as f64),
        ("runtime.reconfig_bits", bits as f64),
        ("runtime.diff_memo_len", runtime.diff_memo_len() as f64),
    ];
    Ok(served)
}

/// Splits each batch serve inside its open `runtime.serve` span:
/// planning runs on this thread and the plans on one worker thread per
/// array while this thread waits, and the runtime's own phase timings
/// say how long each took.
fn record_batch_phases(p: &Probe, runtime: &SocRuntime) {
    let phases = runtime.phase_timings();
    p.add_child("runtime.plan", (phases.planning_ms * 1e6) as u64);
    p.add_child("runtime.exec", (phases.exec_ms * 1e6) as u64);
}

/// Charges each worker thread the part of the exec phases it spent
/// outside `backend.execute` (waiting for a core or for the other arrays).
fn record_worker_waits(p: &Probe, workload: Workload, runtime: &SocRuntime) {
    let exec_ns = p.totals("runtime.exec").ns;
    let exec = [workload.name(), "runtime.serve", "runtime.exec"];
    for frame in &WORKER_FRAMES[..runtime.engine_count()] {
        let busy = p.folded_ns(&[exec[0], exec[1], exec[2], frame, "backend.execute"]);
        p.add_folded(
            &[exec[0], exec[1], exec[2], frame],
            exec_ns.saturating_sub(busy),
        );
    }
}

fn serve_stream(
    runtime: &mut SocRuntime,
    stream: &Stream,
    monitor: Option<MonitorHandle>,
    hook: &mut dyn DispatchHook,
    hook_span: &'static str,
    probe: Option<&Probe>,
) -> Result<ServiceReport> {
    let service = ServiceConfig {
        policy: AdmitPolicy::EdfShed,
        monitor,
        ..Default::default()
    };
    let mut serve = |hook: &mut dyn DispatchHook| {
        serve_requests_with_hook(
            runtime,
            &stream.tenants,
            stream.duration_us,
            &stream.requests,
            &service,
            hook,
        )
    };
    match probe {
        Some(p) => {
            let mut timed_hook = TimedHook::new(hook, p.clone(), hook_span);
            p.span("service.serve", || serve(&mut timed_hook))
        }
        None => serve(hook),
    }
}

fn stream_served(
    runtime: &SocRuntime,
    report: ServiceReport,
    cache_before: CacheStats,
    extra: Vec<(&'static str, f64)>,
) -> Served {
    let cache = runtime.cache_stats();
    let arrays = &report.pool.arrays;
    let mut counts = vec![
        ("service.requests", report.requests as f64),
        ("service.served", report.served as f64),
        ("service.shed", report.shed as f64),
        ("service.failed", report.failed as f64),
        (
            "runtime.cache_hits",
            (cache.hits - cache_before.hits) as f64,
        ),
        (
            "runtime.cache_misses",
            (cache.misses - cache_before.misses) as f64,
        ),
        (
            "runtime.reconfig_events",
            arrays.iter().map(|a| a.reconfig_events).sum::<usize>() as f64,
        ),
        (
            "runtime.reconfig_bits",
            arrays.iter().map(|a| a.reconfig_bits).sum::<u64>() as f64,
        ),
        ("runtime.diff_memo_len", runtime.diff_memo_len() as f64),
    ];
    counts.extend(extra);
    Served {
        digests: vec![("outcome", report.digest())],
        backend_tagged: Vec::new(),
        jobs: report
            .outcomes
            .iter()
            .map(|o| (o.id, !o.shed && !o.failed, o.checksum))
            .collect(),
        served: report.served,
        sim_cycles: arrays.iter().map(|a| a.exec_cycles).sum(),
        corrupt_served: 0,
        counts,
    }
}
