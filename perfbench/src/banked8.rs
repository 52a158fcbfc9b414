//! `banked8-trace`: the 8-bank pipelined engine under UCP.
//!
//! L1-filtered reference streams of one 32-app mix are fed, in
//! `Llc::access_batch` windows, into a Vantage Z4/52 cache of 128K lines
//! (Table 2's 8 MB) split over 8 banks and built with
//! `EngineKind::Pipelined` and one bank worker per host CPU.
//! `EpochController::observe`/`run_epoch` run UCP between windows; the
//! driver itself stays single-threaded. `CmpSim` issues one `access` per
//! reference, so this is the only workload where the engine's shard, ring
//! and drain do work.
//!
//! The traced run serves one window in [`SPLIT_EVERY`] through
//! `PipelinedBankedLlc::ingest` + `barrier` (one consumer, so production
//! and drain time separate) and the rest through `access_batch`; every
//! engine path is bit-identical, so the simulated result must not change.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use vantage::EngineKind;
use vantage_cache::hash::mix64;
use vantage_partitioning::{AccessOutcome, AccessRequest, PartitionId, RingStats};
use vantage_sim::{EpochController, Scheme, SchemeKind, SystemConfig, L1};
use vantage_workloads::{mixes, AppGen, Mix};

use crate::json::Json;
use crate::probe::{cpu_ns, Laps, SinkClock, Span, Tracer};
use crate::{Metrics, Rep, Workload};

/// LLC requests in the stream.
const STREAM: usize = 2_000_000;
/// Requests per `access_batch` window.
const WINDOW: usize = 64 * 1024;
/// Windows per UCP epoch.
const EPOCH_WINDOWS: usize = 4;
/// In the traced run, one window in this many is split into ingest + drain.
const SPLIT_EVERY: usize = 4;
/// Banks.
const BANKS: usize = 8;
/// Which `mixes(32, 1, MIX_SEED)` mix runs: class `sftn`, eight apps from
/// each category. The app line-up is fixed so that every seed runs the
/// same applications; the seed drives their reference streams and the
/// cache's hash functions.
const MIX_SEED: u64 = 0x5EED;
const MIX_INDEX: usize = 14;

/// The workload's input: one interleaved L1-miss stream.
struct Stream {
    reqs: Vec<AccessRequest>,
    instructions: u64,
    per_part: Vec<u64>,
}

/// Interleaves the mix's cores by instruction count (the core with the
/// fewest retired instructions issues next) and keeps their L1 misses.
fn make_stream(sys: &SystemConfig, mix: &Mix) -> Stream {
    let mut gens: Vec<AppGen> = mix
        .apps
        .iter()
        .enumerate()
        .map(|(c, app)| {
            AppGen::new(
                app.clone(),
                (c as u64 + 1) << 44,
                sys.seed ^ mix64(c as u64 + 0xABC),
            )
        })
        .collect();
    let mut l1s: Vec<L1> = (0..gens.len())
        .map(|_| L1::new(sys.l1_lines, sys.l1_ways))
        .collect();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..gens.len()).map(|c| Reverse((0, c))).collect();
    let mut reqs = Vec::with_capacity(STREAM);
    let mut per_part = vec![0u64; gens.len()];
    let mut instructions = 0;
    while reqs.len() < STREAM {
        let Reverse((t, c)) = heap.pop().expect("cores");
        let r = gens[c].next_ref();
        instructions += u64::from(r.gap);
        if !l1s[c].access(r.addr) {
            reqs.push(AccessRequest::read(PartitionId::from_index(c), r.addr));
            per_part[c] += 1;
        }
        heap.push(Reverse((t + u64::from(r.gap), c)));
    }
    Stream {
        reqs,
        instructions,
        per_part,
    }
}

/// Per-kind access counts and CPU time of the traced windows.
#[derive(Default)]
struct EngineTrace {
    window_accesses: u64,
    split_accesses: u64,
    window_cpu_ns: u64,
    window_wall_ns: u64,
    observed_accesses: u64,
    ring: RingStats,
}

/// The `banked8-trace` workload.
pub struct Banked8 {
    sys: SystemConfig,
    kind: SchemeKind,
    stream: Stream,
    tracer: Tracer<true>,
    engine: EngineTrace,
    last_hits: u64,
    epochs: u64,
}

impl Banked8 {
    /// The workload for `seed`; generates the stream (untimed).
    pub fn new(seed: u64) -> Self {
        let mut sys = SystemConfig::large_scale();
        sys.seed = seed;
        sys.banks = BANKS;
        sys.bank_jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        sys.engine = EngineKind::Pipelined;
        let mix = mixes(32, 1, MIX_SEED).swap_remove(MIX_INDEX);
        assert_eq!(mix.name, "sftn0", "the mix catalog order changed");
        let stream = make_stream(&sys, &mix);
        Self {
            sys,
            kind: SchemeKind::vantage_paper(),
            stream,
            tracer: Tracer::new(Arc::new(SinkClock::default())),
            engine: EngineTrace::default(),
            last_hits: 0,
            epochs: 0,
        }
    }

    fn build(&self) -> (Scheme, EpochController) {
        let scheme = Scheme::builder(self.kind.clone(), self.sys.clone())
            .try_build()
            .expect("valid scheme config");
        assert!(matches!(scheme, Scheme::Pipelined { .. }));
        let epoch = EpochController::new(&self.sys, &self.kind, &scheme);
        (scheme, epoch)
    }
}

/// The driver loop; `TRACED = false` compiles the spans away. Returns the
/// number of epochs run.
fn drive<const TRACED: bool>(
    reqs: &[AccessRequest],
    scheme: &mut Scheme,
    epoch: &mut EpochController,
    tr: &mut Tracer<TRACED>,
    et: &mut EngineTrace,
) -> u64 {
    let mut out: Vec<AccessOutcome> = Vec::with_capacity(WINDOW);
    let mut epochs = 0;
    tr.start();
    for (w, window) in reqs.chunks(WINDOW).enumerate() {
        tr.always(Span::Observe, || {
            for r in window {
                epoch.observe(r.part.index(), r.addr);
            }
        });
        if TRACED && w % SPLIT_EVERY == SPLIT_EVERY - 1 {
            let Scheme::Pipelined { llc, .. } = &mut *scheme else {
                unreachable!("built pipelined")
            };
            tr.always(Span::Ingest, || llc.ingest(window));
            tr.always(Span::Drain, || llc.barrier());
            et.split_accesses += window.len() as u64;
        } else {
            let c0 = if TRACED { cpu_ns() } else { 0 };
            let t0 = TRACED.then(Instant::now);
            tr.always(Span::Window, || {
                out.clear();
                scheme.llc_mut().access_batch(window, &mut out);
            });
            if let Some(t0) = t0 {
                et.window_wall_ns += t0.elapsed().as_nanos() as u64;
                et.window_cpu_ns += cpu_ns() - c0;
                et.window_accesses += window.len() as u64;
            }
        }
        if (w + 1) % EPOCH_WINDOWS == 0 {
            tr.always(Span::Epoch, || epoch.run_epoch(scheme))
                .expect("no invariant checking configured");
            epochs += 1;
        }
    }
    scheme.epoch_barrier();
    tr.stop();
    epochs
}

impl Workload for Banked8 {
    fn setup_once(&mut self) -> f64 {
        let t = Instant::now();
        let built = self.build();
        let s = t.elapsed().as_secs_f64();
        drop(built);
        s
    }

    fn run(&mut self, traced: bool) -> Rep {
        let t = Instant::now();
        let (mut scheme, mut epoch) = self.build();
        let setup_s = t.elapsed().as_secs_f64();
        let reqs = &self.stream.reqs;
        let laps = Laps::start();
        let epochs = if traced {
            drive(
                reqs,
                &mut scheme,
                &mut epoch,
                &mut self.tracer,
                &mut self.engine,
            )
        } else {
            let mut et = EngineTrace::default();
            let mut tr = Tracer::<false>::new(Arc::new(SinkClock::default()));
            drive(reqs, &mut scheme, &mut epoch, &mut tr, &mut et)
        };
        let laps = laps.finish();
        if traced {
            self.engine.observed_accesses += reqs.len() as u64;
            if let Scheme::Pipelined { llc, .. } = &scheme {
                self.engine.ring = llc.ring_stats();
            }
        }

        let llc = scheme.llc_mut();
        let sizes: Vec<u64> = (0..llc.num_partitions())
            .map(|p| llc.partition_size(PartitionId::from_index(p)))
            .collect();
        let capacity = llc.capacity() as u64;
        let stats = llc.stats_mut().clone();
        let mut problems = Vec::new();
        for (p, &n) in self.stream.per_part.iter().enumerate() {
            if stats.hits[p] + stats.misses[p] != n {
                problems.push(format!(
                    "partition {p}: {} hits + {} misses != {n} requests",
                    stats.hits[p], stats.misses[p]
                ));
            }
        }
        if sizes.iter().sum::<u64>() > capacity {
            problems.push("partition sizes exceed the capacity".into());
        }
        let mut fp = Json::obj();
        fp.put("hits", Json::ints(&stats.hits))
            .put("misses", Json::ints(&stats.misses))
            .put("sizes", Json::ints(&sizes))
            .put("llc_accesses", stats.total_hits() + stats.total_misses())
            .put("llc_misses", stats.total_misses())
            .put("evictions", stats.evictions)
            .put("epochs", epochs);
        self.last_hits = stats.total_hits();
        self.epochs = epochs;
        Rep {
            setup_s,
            laps,
            accesses: reqs.len() as u64,
            instructions: self.stream.instructions,
            fingerprint: fp,
            attempted: 0,
            failed: 0,
            problems,
        }
    }

    fn parallel(&self) -> bool {
        self.sys.bank_jobs > 1
    }

    fn layer_metrics(&self, m: &mut Metrics) {
        let r = self.tracer.report();
        let et = &self.engine;
        let per = |s: Span, n: u64| r.get(s).total_ns / n.max(1) as f64;
        m.core(self.last_hits, self.stream.reqs.len() as u64, None);
        m.ns(
            "partitioning.ingest_ns",
            per(Span::Ingest, et.split_accesses),
        );
        m.ns("partitioning.drain_ns", per(Span::Drain, et.split_accesses));
        m.ns(
            "partitioning.window_ns",
            per(Span::Window, et.window_accesses),
        );
        m.count("partitioning.ring_peak_depth", et.ring.peak_depth as u64);
        m.ratio("partitioning.ring_mean_depth", et.ring.mean_depth());
        m.ratio(
            "partitioning.cpu_util",
            et.window_cpu_ns as f64 / et.window_wall_ns.max(1) as f64,
        );
        m.count("work.ring_batches", et.ring.samples);
        m.ns("ucp.observe_ns", per(Span::Observe, et.observed_accesses));
        m.us("ucp.epoch_us", r.get(Span::Epoch).per_call_ns / 1e3);
        m.count("ucp.epochs", self.epochs);
        m.shares(&r);
    }
}
