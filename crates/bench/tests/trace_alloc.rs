//! The zero-cost-when-off gate (ISSUE 7 satellite): with tracing
//! disabled, the serve path performs exactly as many heap allocations as
//! it did before the trace hooks existed — the no-op sink adds none.
//! Extended for ISSUE 8: an installed [`MonitorSink`] must leave serve
//! outcomes byte-identical and keep its own allocations bounded by
//! configuration, and uninstalling it restores the allocation-free path.
//!
//! Lives in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide. For the same reason the tests
//! here must not overlap: each holds [`SERIAL`] for its whole body, so the
//! harness's parallel runner cannot count one test's allocations in
//! another's window. (Thread-local counters would not do: `serve` allocates
//! on its per-array worker threads too.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dsra_monitor::MonitorConfig;
use dsra_runtime::{DctMapping, RuntimeConfig, SocRuntime};
use dsra_service::install_monitor_with;
use dsra_trace::{EventLog, NoopSink};
use dsra_video::{generate_job_mix, JobMixConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// Serialises the tests of this binary; a test that failed while holding
/// the lock does not fail the others.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn noop_tracing_adds_no_serve_allocations() {
    let _serial = serial();
    let mix = generate_job_mix(JobMixConfig {
        jobs: 40,
        ..Default::default()
    });
    let mut rt = SocRuntime::new(RuntimeConfig {
        da_arrays: 1,
        me_arrays: 1,
        mappings: vec![DctMapping::BasicDa, DctMapping::MixedRom],
        ..Default::default()
    })
    .expect("runtime");
    // Warm every cache (bitstreams, diff memo, thread-local buffers) so
    // the measured serves are the steady state.
    rt.serve(&mix).expect("warm serve");

    let serve = |rt: &mut SocRuntime| {
        rt.recharge_full();
        rt.serve(&mix).expect("serve").digest()
    };

    // Warm serving is allocation-deterministic: two identical serves with
    // the default (disabled) sink allocate identically.
    let (baseline, d1) = allocs_during(|| serve(&mut rt));
    let (again, d2) = allocs_during(|| serve(&mut rt));
    assert_eq!(d1, d2, "warm serves must be byte-identical");
    assert_eq!(
        baseline, again,
        "warm serves must be allocation-deterministic"
    );

    // An explicitly installed NoopSink is indistinguishable from the
    // default: the disabled trace path allocates nothing per job.
    rt.set_trace_sink(Box::new(NoopSink));
    let (noop, d3) = allocs_during(|| serve(&mut rt));
    assert_eq!(d1, d3);
    assert_eq!(
        noop, baseline,
        "NoopSink must add zero allocations over the default sink"
    );

    // Sanity: a recording sink does allocate (events, strings) — the
    // comparison above is not vacuous.
    rt.set_trace_sink(Box::new(EventLog::new()));
    let (recording, d4) = allocs_during(|| serve(&mut rt));
    assert_eq!(d1, d4, "tracing must not change outcomes");
    assert!(
        recording > baseline,
        "recording sink should allocate ({recording} vs {baseline})"
    );
}

#[test]
fn monitor_sink_preserves_outcomes_and_its_allocations_stay_bounded() {
    let _serial = serial();
    let mix = generate_job_mix(JobMixConfig {
        jobs: 40,
        ..Default::default()
    });
    let mut rt = SocRuntime::new(RuntimeConfig {
        da_arrays: 1,
        me_arrays: 1,
        mappings: vec![DctMapping::BasicDa, DctMapping::MixedRom],
        ..Default::default()
    })
    .expect("runtime");
    rt.serve(&mix).expect("warm serve");

    let serve = |rt: &mut SocRuntime| {
        rt.recharge_full();
        rt.serve(&mix).expect("serve").digest()
    };
    let (baseline, reference) = allocs_during(|| serve(&mut rt));

    // Monitoring observes every event but must not perturb outcomes.
    let handle = install_monitor_with(&mut rt, MonitorConfig::default(), Box::new(NoopSink));
    let (first, d1) = allocs_during(|| serve(&mut rt));
    assert_eq!(d1, reference, "monitoring must not change serve outcomes");
    let (second, d2) = allocs_during(|| serve(&mut rt));
    assert_eq!(d2, reference);
    assert!(
        first > baseline,
        "the monitor does build state ({first} vs {baseline})"
    );
    // Monitor memory is bounded by configuration, not stream length: once
    // its maps and windows exist, another identical serve allocates no
    // more than the first pass did.
    assert!(
        second <= first,
        "steady-state monitoring must not grow allocations ({second} vs {first})"
    );
    assert_eq!(handle.with(|m| m.drops()), (0, 0), "nothing miscounted");

    // Uninstalling the monitor restores the allocation-free serve path.
    rt.set_trace_sink(Box::new(NoopSink));
    let (off, d3) = allocs_during(|| serve(&mut rt));
    assert_eq!(d3, reference);
    assert_eq!(
        off, baseline,
        "with the monitor gone the serve path allocates exactly as before"
    );
}
