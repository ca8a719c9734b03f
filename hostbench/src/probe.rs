//! Host-time probes for the traced run: a span ledger plus three
//! decorators that sit on the stack's existing public seams —
//! [`TimedBackend`] on `SocRuntime::wrap_engines`, [`TimedHook`] on
//! `DispatchHook`, and [`TimedSink`] on `TraceSink`. The program is not
//! changed; the untraced run installs none of these.
//!
//! Spans opened on the serving thread nest, so the ledger keeps both
//! per-name totals (calls, nanoseconds, per-call samples) and per-stack
//! self time, which renders as folded stacks
//! (`stream_edf;service.serve;runtime.stream_serve_job;backend.execute 123`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use dsra_backend::Backend;
use dsra_core::error::Result;
use dsra_core::report::ExecOutcome;
use dsra_dct::DaParams;
use dsra_runtime::{SocRuntime, StreamedJob};
use dsra_service::DispatchHook;
use dsra_trace::{EventLog, HealthSnapshot, TraceEvent, TraceSink};
use dsra_video::JobSpec;

/// Per-name span totals.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    /// Calls recorded.
    pub calls: u64,
    /// Nanoseconds across all calls (inclusive of nested spans).
    pub ns: u64,
    /// Per-call nanoseconds, in call order.
    pub samples: Vec<u64>,
}

impl Totals {
    /// Total milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }

    /// Nearest-rank percentile of the per-call samples, in µs (0 when
    /// nothing was recorded).
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut s = self.samples.clone();
        s.sort_unstable();
        let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
        s[rank.clamp(1, s.len()) - 1] as f64 / 1e3
    }
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Ledger {
    stack: Vec<Frame>,
    path: Vec<&'static str>,
    folded: BTreeMap<Vec<&'static str>, u64>,
    totals: BTreeMap<&'static str, Totals>,
    /// `(cycles, ns)` of backend executions per kernel name.
    kernels: BTreeMap<String, (u64, u64)>,
}

impl Ledger {
    fn add_self(&mut self, path: &[&'static str], ns: u64) {
        match self.folded.get_mut(path) {
            Some(v) => *v += ns,
            None => {
                self.folded.insert(path.to_vec(), ns);
            }
        }
    }

    fn add_total(&mut self, name: &'static str, ns: u64) {
        let t = self.totals.entry(name).or_default();
        t.calls += 1;
        t.ns += ns;
        t.samples.push(ns);
    }
}

/// The shared span ledger of one traced session.
#[derive(Clone, Default)]
pub struct Probe(Arc<Mutex<Ledger>>);

impl Probe {
    fn lock(&self) -> MutexGuard<'_, Ledger> {
        self.0
            .lock()
            .expect("probe ledger poisoned by a panicking serve thread")
    }

    /// Opens a span on the serving thread.
    pub fn enter(&self, name: &'static str) {
        let mut l = self.lock();
        l.stack.push(Frame {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost span: its inclusive time goes to the name's
    /// totals, its self time to its stack. Returns the inclusive ns.
    pub fn exit(&self) -> u64 {
        let end = Instant::now();
        let mut l = self.lock();
        let frame = l.stack.pop().expect("span exit without a matching enter");
        let ns = end.duration_since(frame.start).as_nanos() as u64;
        let mut path = std::mem::take(&mut l.path);
        path.clear();
        path.extend(l.stack.iter().map(|f| f.name));
        path.push(frame.name);
        l.add_self(&path, ns.saturating_sub(frame.child_ns));
        l.path = path;
        l.add_total(frame.name, ns);
        if let Some(parent) = l.stack.last_mut() {
            parent.child_ns += ns;
        }
        ns
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records a call timed off the serving thread (a batch worker):
    /// to the totals of the path's last frame and to the path itself,
    /// outside the open spans' self-time accounting.
    fn record_detached(&self, path: &[&'static str], ns: u64) {
        let name = *path.last().expect("a recorded path has a frame");
        let mut l = self.lock();
        l.add_total(name, ns);
        l.add_self(path, ns);
    }

    /// Records a finished child of the innermost open span that was
    /// timed elsewhere (such as a phase the runtime timed itself), as if
    /// it had been entered and exited there.
    pub fn add_child(&self, name: &'static str, ns: u64) {
        let mut l = self.lock();
        let mut path: Vec<&'static str> = l.stack.iter().map(|f| f.name).collect();
        path.push(name);
        l.add_self(&path, ns);
        l.add_total(name, ns);
        if let Some(parent) = l.stack.last_mut() {
            parent.child_ns += ns;
        }
    }

    /// Adds self time to the stack `path` without touching any totals.
    pub fn add_folded(&self, path: &[&'static str], ns: u64) {
        self.lock().add_self(path, ns);
    }

    /// Totals recorded under `name` (empty when the span never ran).
    pub fn totals(&self, name: &str) -> Totals {
        self.lock().totals.get(name).cloned().unwrap_or_default()
    }

    /// `(cycles, ns)` per kernel name.
    pub fn kernels(&self) -> BTreeMap<String, (u64, u64)> {
        self.lock().kernels.clone()
    }

    /// Self nanoseconds recorded under the stack `path`.
    pub fn folded_ns(&self, path: &[&'static str]) -> u64 {
        self.lock().folded.get(path).copied().unwrap_or(0)
    }

    /// The ledger as folded stacks, one `frame;frame;… ns` line each,
    /// in stack order.
    pub fn folded(&self) -> String {
        let l = self.lock();
        assert!(l.stack.is_empty(), "folded export with spans still open");
        l.folded
            .iter()
            .filter(|(_, &ns)| ns > 0)
            .map(|(path, ns)| format!("{} {ns}\n", path.join(";")))
            .collect()
    }
}

/// Frame names of batch worker threads, by array id.
pub const WORKER_FRAMES: [&str; 8] = [
    "array0", "array1", "array2", "array3", "array4", "array5", "array6", "array7",
];

/// Times every `Backend::execute` call of one array.
///
/// On the serving thread (streaming) each call is a nested span; on a
/// batch worker thread it is recorded under
/// `<root>;runtime.serve;runtime.exec;array<i>;backend.execute`.
pub struct TimedBackend {
    inner: Box<dyn Backend>,
    probe: Probe,
    worker_path: Option<[&'static str; 5]>,
}

impl TimedBackend {
    /// Wraps array `array`'s engine. `worker_root` is the workload frame
    /// when the engine runs on a batch worker thread, `None` when it runs
    /// nested in the serving thread's spans.
    pub fn new(
        array: usize,
        inner: Box<dyn Backend>,
        probe: Probe,
        worker_root: Option<&'static str>,
    ) -> Self {
        let worker_path = worker_root.map(|root| {
            [
                root,
                "runtime.serve",
                "runtime.exec",
                WORKER_FRAMES[array.min(WORKER_FRAMES.len() - 1)],
                "backend.execute",
            ]
        });
        TimedBackend {
            inner,
            probe,
            worker_path,
        }
    }
}

impl Backend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn execute(
        &mut self,
        params: DaParams,
        job: &JobSpec,
        kernel_name: &str,
    ) -> Result<ExecOutcome> {
        let (out, ns) = match &self.worker_path {
            Some(path) => {
                let start = Instant::now();
                let out = self.inner.execute(params, job, kernel_name);
                let ns = start.elapsed().as_nanos() as u64;
                self.probe.record_detached(path, ns);
                (out, ns)
            }
            None => {
                self.probe.enter("backend.execute");
                let out = self.inner.execute(params, job, kernel_name);
                (out, self.probe.exit())
            }
        };
        if let Ok(o) = &out {
            let mut l = self.probe.lock();
            match l.kernels.get_mut(kernel_name) {
                Some(k) => {
                    k.0 += o.exec_cycles;
                    k.1 += ns;
                }
                None => {
                    l.kernels
                        .insert(kernel_name.to_owned(), (o.exec_cycles, ns));
                }
            }
        }
        out
    }
}

/// Times every `DispatchHook::dispatch` call as a span named `name`
/// (`runtime.stream_serve_job` around `NoopDispatch`, `chaos.dispatch`
/// around the chaos hook). `on_tick` and `next_event_us` forward
/// untimed, so they count toward the dispatcher's own time.
pub struct TimedHook<'a> {
    inner: &'a mut dyn DispatchHook,
    probe: Probe,
    name: &'static str,
}

impl<'a> TimedHook<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn DispatchHook, probe: Probe, name: &'static str) -> Self {
        TimedHook { inner, probe, name }
    }
}

impl DispatchHook for TimedHook<'_> {
    fn on_tick(&mut self, runtime: &mut SocRuntime, now_us: u64) {
        self.inner.on_tick(runtime, now_us);
    }

    fn next_event_us(&mut self, now_us: u64) -> Option<u64> {
        self.inner.next_event_us(now_us)
    }

    fn dispatch(
        &mut self,
        runtime: &mut SocRuntime,
        job: &JobSpec,
        now_us: u64,
    ) -> Result<Option<StreamedJob>> {
        let (inner, probe) = (&mut self.inner, &self.probe);
        probe.span(self.name, || inner.dispatch(runtime, job, now_us))
    }
}

/// Times every `TraceSink::emit` call as a `trace.emit` span and forwards
/// the rest of the trait untimed, so a wrapped `NoopSink` stays disabled.
pub struct TimedSink {
    inner: Box<dyn TraceSink>,
    probe: Probe,
}

impl TimedSink {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn TraceSink>, probe: Probe) -> Self {
        TimedSink { inner, probe }
    }
}

impl TraceSink for TimedSink {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn emit(&mut self, event: TraceEvent) {
        let (inner, probe) = (&mut self.inner, &self.probe);
        probe.span("trace.emit", || inner.emit(event));
    }

    fn into_log(self: Box<Self>) -> Option<EventLog> {
        self.inner.into_log()
    }

    fn health_snapshot(&mut self, now_cycle: u64) -> Option<HealthSnapshot> {
        self.inner.health_snapshot(now_cycle)
    }

    fn active_alerts(&mut self, now_cycle: u64) -> u32 {
        self.inner.active_alerts(now_cycle)
    }
}
