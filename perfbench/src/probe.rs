//! Host measurements: wall and CPU clocks, peak memory, and the sampled
//! span tracer behind `--trace 1`.
//!
//! The tracer records spans around the benchmark's own calls into each
//! layer's public functions. Cheap, frequent calls are timed on a hashed
//! 1-in-[`SAMPLE_PERIOD`] subset of driver steps and scaled up; rare,
//! expensive calls (epochs, lifecycle operations, whole windows) are timed
//! every time. A span's self time excludes the time telemetry records spent
//! in the sink while the span was open (see [`SinkClock`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vantage_cache::hash::mix64;
use vantage_telemetry::{PartitionSample, TelemetryEvent, TelemetrySink};

/// One driver step in this many is traced (hashed, so it cannot alias with
/// the round-robin structure of the workloads).
pub const SAMPLE_PERIOD: u64 = 8;

/// The layers a span can be charged to. Names follow the workspace crates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `AppGen::next_ref` (workloads).
    NextRef,
    /// `TenantChurn::next_event` (workloads).
    NextEvent,
    /// `L1::access` (sim).
    L1,
    /// The event heap and memory model (sim).
    Loop,
    /// `Llc::access` on an unbanked `VantageLlc` (core).
    Access,
    /// `Llc::create_partition` (core).
    Create,
    /// `Llc::destroy_partition` (core).
    Destroy,
    /// `PipelinedBankedLlc::ingest` (partitioning).
    Ingest,
    /// `PipelinedBankedLlc::barrier` (partitioning).
    Drain,
    /// `Llc::access_batch` on the pipelined engine (partitioning).
    Window,
    /// `EpochController::observe` (ucp).
    Observe,
    /// `EpochController::run_epoch` or a policy reallocation (ucp).
    Epoch,
    /// The telemetry sink, nested inside other spans (telemetry).
    Sink,
}

impl Span {
    /// Number of span kinds.
    pub const COUNT: usize = 13;

    /// Every span kind, in report order.
    pub const ALL: [Span; Self::COUNT] = [
        Span::NextRef,
        Span::NextEvent,
        Span::L1,
        Span::Loop,
        Span::Access,
        Span::Create,
        Span::Destroy,
        Span::Ingest,
        Span::Drain,
        Span::Window,
        Span::Observe,
        Span::Epoch,
        Span::Sink,
    ];

    /// The crate (layer) the span belongs to.
    pub fn layer(self) -> &'static str {
        match self {
            Span::NextRef | Span::NextEvent => "workloads",
            Span::L1 | Span::Loop => "sim",
            Span::Access | Span::Create | Span::Destroy => "core",
            Span::Ingest | Span::Drain | Span::Window => "partitioning",
            Span::Observe | Span::Epoch => "ucp",
            Span::Sink => "telemetry",
        }
    }
}

/// Reads a fast monotonic tick counter.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions and is available on every
        // x86_64 processor.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Process CPU time (user + system, every thread) in nanoseconds.
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; the clock id is the POSIX process CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Wall and CPU time of consecutive slices ("laps") of one repetition's
/// timed phase. Every repetition of a workload cuts its laps at the same
/// points of the same deterministic work, so lap `i` of one repetition
/// and lap `i` of another time identical work.
pub struct Laps {
    wall0: Instant,
    cpu0: u64,
    /// `(wall ns, CPU ns)` of each closed lap, in order.
    pub laps: Vec<(u64, u64)>,
}

impl Laps {
    /// Starts the first lap.
    pub fn start() -> Self {
        Self {
            cpu0: cpu_ns(),
            wall0: Instant::now(),
            laps: Vec::new(),
        }
    }

    /// Closes the current lap and starts the next.
    pub fn lap(&mut self) {
        let wall = Instant::now();
        let cpu = cpu_ns();
        self.laps
            .push(((wall - self.wall0).as_nanos() as u64, cpu - self.cpu0));
        self.wall0 = wall;
        self.cpu0 = cpu;
    }

    /// Closes the last lap.
    pub fn finish(mut self) -> Self {
        self.lap();
        self
    }

    /// Seconds of wall time over every lap.
    pub fn wall_s(&self) -> f64 {
        self.laps.iter().map(|l| l.0).sum::<u64>() as f64 / 1e9
    }

    /// Seconds of CPU time over every lap.
    pub fn cpu_s(&self) -> f64 {
        self.laps.iter().map(|l| l.1).sum::<u64>() as f64 / 1e9
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time spent inside the telemetry sink, shared between the tracer and the
/// [`TimedSink`] that the cache owns.
#[derive(Default)]
pub struct SinkClock {
    active: AtomicBool,
    /// The tracer's calibrated cost of one timer pair.
    overhead: AtomicU64,
    ticks: AtomicU64,
    records: AtomicU64,
}

/// A [`TelemetrySink`] wrapper that times every record while a traced span
/// is open and forwards it to the wrapped sink.
pub struct TimedSink {
    inner: Box<dyn TelemetrySink>,
    clock: Arc<SinkClock>,
}

impl TimedSink {
    /// Wraps `inner`, charging its time to `clock`.
    pub fn new(inner: Box<dyn TelemetrySink>, clock: Arc<SinkClock>) -> Self {
        Self { inner, clock }
    }

    #[inline]
    fn timed(&mut self, f: impl FnOnce(&mut dyn TelemetrySink)) {
        if self.clock.active.load(Ordering::Relaxed) {
            let t0 = ticks();
            f(self.inner.as_mut());
            let dt = ticks().wrapping_sub(t0);
            let overhead = self.clock.overhead.load(Ordering::Relaxed);
            self.clock
                .ticks
                .fetch_add(dt.saturating_sub(overhead), Ordering::Relaxed);
            self.clock.records.fetch_add(1, Ordering::Relaxed);
        } else {
            f(self.inner.as_mut());
        }
    }
}

impl TelemetrySink for TimedSink {
    fn record_event(&mut self, ev: &TelemetryEvent) {
        self.timed(|s| s.record_event(ev));
    }
    fn record_sample(&mut self, s: &PartitionSample) {
        self.timed(|inner| inner.record_sample(s));
    }
    fn flush(&mut self) {
        self.inner.flush();
    }
    fn io_error(&self) -> Option<String> {
        self.inner.io_error()
    }
}

/// Per-span accumulators.
#[derive(Clone, Copy, Default)]
struct Acc {
    /// Self ticks on sampled steps (scaled up by the step sampling ratio).
    sampled: u64,
    /// Self ticks of always-timed spans (not scaled).
    always: u64,
    /// Calls timed, either way.
    timed_calls: u64,
    /// Every call, timed or not.
    calls: u64,
}

/// The span tracer. `TRACED = false` compiles every hook away, so the
/// untraced driver loops are the traced ones minus the timers.
pub struct Tracer<const TRACED: bool> {
    sink: Arc<SinkClock>,
    steps: u64,
    sampled_steps: u64,
    on_sample: bool,
    acc: [Acc; Span::COUNT],
    /// Sink self ticks, split like `Acc` by the scale of the enclosing span.
    sink_sampled: u64,
    sink_always: u64,
    /// Median cost of an empty span, subtracted from every span.
    overhead: u64,
    t0: u64,
    wall0: Instant,
    wall_ns: u64,
    span_ticks: u64,
}

impl<const TRACED: bool> Tracer<TRACED> {
    /// A tracer whose spans subtract the sink time recorded in `sink`.
    pub fn new(sink: Arc<SinkClock>) -> Self {
        let overhead = if TRACED { calibrate() } else { 0 };
        if TRACED {
            sink.overhead.store(overhead, Ordering::Relaxed);
        }
        Self {
            sink,
            steps: 0,
            sampled_steps: 0,
            on_sample: false,
            acc: [Acc::default(); Span::COUNT],
            sink_sampled: 0,
            sink_always: 0,
            overhead,
            t0: 0,
            wall0: Instant::now(),
            wall_ns: 0,
            span_ticks: 0,
        }
    }

    /// Starts the traced interval (the denominator of the coverage).
    pub fn start(&mut self) {
        if TRACED {
            self.wall0 = Instant::now();
            self.t0 = ticks();
        }
    }

    /// Ends the traced interval.
    pub fn stop(&mut self) {
        if TRACED {
            self.span_ticks += ticks().wrapping_sub(self.t0);
            self.wall_ns += self.wall0.elapsed().as_nanos() as u64;
        }
    }

    /// Advances the driver-step counter and decides whether this step's
    /// sampled spans are timed.
    #[inline(always)]
    pub fn step(&mut self) {
        if TRACED {
            self.steps += 1;
            self.on_sample = mix64(self.steps ^ 0x7ACE).is_multiple_of(SAMPLE_PERIOD);
            self.sampled_steps += u64::from(self.on_sample);
        }
    }

    /// Runs `f` as a span of kind `s`, timed on sampled steps only.
    #[inline(always)]
    pub fn sampled<R>(&mut self, s: Span, f: impl FnOnce() -> R) -> R {
        if !TRACED {
            return f();
        }
        self.acc[s as usize].calls += 1;
        if !self.on_sample {
            return f();
        }
        let (r, self_ticks, sink) = self.timed(f);
        let a = &mut self.acc[s as usize];
        a.sampled += self_ticks;
        a.timed_calls += 1;
        self.sink_sampled += sink;
        r
    }

    /// Runs `f` as a span of kind `s`, timed on every call.
    #[inline(always)]
    pub fn always<R>(&mut self, s: Span, f: impl FnOnce() -> R) -> R {
        if !TRACED {
            return f();
        }
        let (r, self_ticks, sink) = self.timed(f);
        let a = &mut self.acc[s as usize];
        a.always += self_ticks;
        a.timed_calls += 1;
        a.calls += 1;
        self.sink_always += sink;
        r
    }

    /// Times `f`; returns its result, its self ticks (net of the timer
    /// cost and of the sink records nested inside, timers included) and
    /// the nested sink ticks.
    #[inline(always)]
    fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, u64, u64) {
        let s0 = self.sink.ticks.load(Ordering::Relaxed);
        let n0 = self.sink.records.load(Ordering::Relaxed);
        self.sink.active.store(true, Ordering::Relaxed);
        let t0 = ticks();
        let r = f();
        let dt = ticks().wrapping_sub(t0);
        self.sink.active.store(false, Ordering::Relaxed);
        let sink = self.sink.ticks.load(Ordering::Relaxed) - s0;
        let nested = self.sink.records.load(Ordering::Relaxed) - n0;
        let timers = self.overhead * (1 + nested);
        (r, dt.saturating_sub(timers + sink), sink)
    }

    /// Folds the accumulated spans into a report, converting ticks to
    /// nanoseconds with the clock rate observed over the traced interval.
    pub fn report(&self) -> TraceReport {
        let ns_per_tick = if self.span_ticks == 0 {
            0.0
        } else {
            self.wall_ns as f64 / self.span_ticks as f64
        };
        let scale = if self.sampled_steps == 0 {
            0.0
        } else {
            self.steps as f64 / self.sampled_steps as f64
        };
        let mut spans = Vec::with_capacity(Span::COUNT);
        for s in Span::ALL {
            let a = self.acc[s as usize];
            let (total_ticks, timed_ticks) = if s == Span::Sink {
                (
                    self.sink_sampled as f64 * scale + self.sink_always as f64,
                    (self.sink_sampled + self.sink_always) as f64,
                )
            } else {
                (
                    a.sampled as f64 * scale + a.always as f64,
                    (a.sampled + a.always) as f64,
                )
            };
            let (timed_calls, calls) = if s == Span::Sink {
                let n = self.sink.records.load(Ordering::Relaxed);
                (n, n)
            } else {
                (a.timed_calls, a.calls)
            };
            spans.push(SpanStats {
                span: s,
                total_ns: total_ticks * ns_per_tick,
                per_call_ns: if timed_calls == 0 {
                    0.0
                } else {
                    timed_ticks * ns_per_tick / timed_calls as f64
                },
                calls,
            });
        }
        TraceReport {
            spans,
            wall_ns: self.wall_ns as f64,
        }
    }
}

/// The median cost, in ticks, of timing an empty span.
fn calibrate() -> u64 {
    let mut v: Vec<u64> = (0..1001)
        .map(|_| {
            let t0 = ticks();
            std::hint::black_box(());
            ticks().wrapping_sub(t0)
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// One span kind's share of a traced run.
#[derive(Clone, Copy, Debug)]
pub struct SpanStats {
    /// The span kind.
    pub span: Span,
    /// Estimated self time over the whole traced interval.
    pub total_ns: f64,
    /// Mean self time per timed call.
    pub per_call_ns: f64,
    /// Calls made (timed or not).
    pub calls: u64,
}

/// The per-span results of one traced run.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// One entry per span kind.
    pub spans: Vec<SpanStats>,
    /// Wall time of the traced interval.
    pub wall_ns: f64,
}

impl TraceReport {
    /// The entry for span kind `s`.
    pub fn get(&self, s: Span) -> SpanStats {
        self.spans[s as usize]
    }

    /// Estimated self time of every span of `layer`.
    pub fn layer_ns(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.span.layer() == layer)
            .map(|s| s.total_ns)
            .sum()
    }

    /// Share of the traced wall time covered by the spans.
    pub fn coverage(&self) -> f64 {
        let covered: f64 = self.spans.iter().map(|s| s.total_ns).sum();
        covered / self.wall_ns
    }
}
