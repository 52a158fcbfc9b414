//! `cmp4-fig8`: the paper's headline configuration end to end.
//!
//! `CmpSim::run` on the 4-core `SystemConfig::small_scale()` machine with
//! the Fig. 8 mix under Vantage Z4/52 LRU with UCP, from empty caches,
//! timed in laps of `CmpSim::run_for` (which resumes exactly). The
//! traced run replays the same program from the benchmark — `AppGen`,
//! `L1`, `EpochController` and `Llc::access` called in `CmpSim`'s order —
//! and must reproduce `CmpSim::run` bit for bit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use vantage::VantageStats;
use vantage_cache::hash::mix64;
use vantage_experiments::fig_dynamics::fig8_mix;
use vantage_partitioning::{AccessRequest, LlcStats, PartitionId};
use vantage_sim::{CmpSim, EpochController, Scheme, SchemeKind, SystemConfig, L1};
use vantage_workloads::{AppGen, Mix, RefStream};

use crate::json::Json;
use crate::probe::{Laps, SinkClock, Span, Tracer};
use crate::{Metrics, Rep, Workload};

/// Per-core instruction quota of one run.
const QUOTA: u64 = 2_000_000;
/// References per timing lap (see `Laps`).
const LAP_REFS: u64 = 100_000;

/// Simulated statistics of one run, in the shape both drivers produce.
struct Outcome {
    ipc: Vec<f64>,
    throughput: f64,
    l2_accesses: Vec<u64>,
    l2_misses: Vec<u64>,
    mpki: Vec<f64>,
    managed_eviction_fraction: f64,
    stats: LlcStats,
    vstats: VantageStats,
    epochs: u64,
}

impl Outcome {
    fn fingerprint(&self) -> Json {
        let mut j = Json::obj();
        j.put("sum_ipc_bits", Json::float_bits(&[self.throughput]))
            .put("ipc_bits", Json::float_bits(&self.ipc))
            .put("mpki_bits", Json::float_bits(&self.mpki))
            .put("l2_accesses", Json::ints(&self.l2_accesses))
            .put("l2_misses", Json::ints(&self.l2_misses))
            .put(
                "managed_eviction_fraction_bits",
                Json::float_bits(&[self.managed_eviction_fraction]),
            )
            .put(
                "llc_accesses",
                self.stats.total_hits() + self.stats.total_misses(),
            )
            .put("llc_misses", self.stats.total_misses())
            .put("demotions", self.vstats.demotions)
            .put("forced_evictions", self.vstats.forced_managed_evictions)
            .put("setpoint_adjustments", self.vstats.setpoint_adjustments)
            .put("epochs", self.epochs);
        j
    }
}

fn vantage_stats(scheme: &Scheme) -> VantageStats {
    match scheme {
        Scheme::Vantage(llc) => llc.vantage_stats().clone(),
        _ => unreachable!("cmp4-fig8 runs an unbanked Vantage cache"),
    }
}

/// The `cmp4-fig8` workload.
pub struct Cmp4 {
    sys: SystemConfig,
    kind: SchemeKind,
    mix: Mix,
    tracer: Tracer<true>,
    l1_accesses: u64,
    l1_misses: u64,
    last: Option<Outcome>,
}

impl Cmp4 {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sys = SystemConfig::small_scale();
        sys.seed = seed;
        sys.instructions = QUOTA;
        Self {
            sys,
            kind: SchemeKind::vantage_paper(),
            mix: fig8_mix(),
            tracer: Tracer::new(SinkClock::default().into()),
            l1_accesses: 0,
            l1_misses: 0,
            last: None,
        }
    }

    fn library_run(&mut self) -> (f64, Laps, Outcome) {
        let t = Instant::now();
        let mut sim = CmpSim::new(self.sys.clone(), &self.kind, &self.mix);
        let setup = t.elapsed().as_secs_f64();
        // `run_for` pauses and resumes exactly, so running in laps gives
        // the same result as one `run` call.
        let mut laps = Laps::start();
        let r = loop {
            if let Some(r) = sim.run_for(LAP_REFS) {
                break r;
            }
            laps.lap();
        };
        let laps = laps.finish();
        let out = Outcome {
            managed_eviction_fraction: r.managed_eviction_fraction.unwrap_or(f64::NAN),
            ipc: r.ipc,
            throughput: r.throughput,
            l2_accesses: r.l2_accesses,
            l2_misses: r.l2_misses,
            mpki: r.mpki,
            stats: sim.scheme().llc().stats().clone(),
            vstats: vantage_stats(sim.scheme()),
            epochs: sim.epoch().next_at() / self.sys.repartition_interval - 1,
        };
        (setup, laps, out)
    }

    /// `CmpSim::try_run_for`'s loop, driven from here with a span around
    /// every call into a layer.
    fn replay(&mut self) -> (f64, Laps, Outcome) {
        struct Core {
            gen: Box<dyn RefStream + Send>,
            l1: L1,
            time: u64,
            instrs: u64,
            done_at: Option<u64>,
            l2_accesses: u64,
            l2_misses: u64,
            measured_l2_accesses: u64,
            measured_l2_misses: u64,
        }
        let sys = &self.sys;
        let t = Instant::now();
        let mut scheme = Scheme::builder(self.kind.clone(), sys.clone())
            .try_build()
            .expect("valid scheme config");
        let mut epoch = EpochController::new(sys, &self.kind, &scheme);
        let mut cores: Vec<Core> = self
            .mix
            .apps
            .iter()
            .enumerate()
            .map(|(c, app)| Core {
                gen: Box::new(AppGen::new(
                    app.clone(),
                    (c as u64 + 1) << 44,
                    sys.seed ^ mix64(c as u64 + 0xABC),
                )),
                l1: L1::new(sys.l1_lines, sys.l1_ways),
                time: 0,
                instrs: 0,
                done_at: None,
                l2_accesses: 0,
                l2_misses: 0,
                measured_l2_accesses: 0,
                measured_l2_misses: 0,
            })
            .collect();
        let mut mem_free = vec![0u64; sys.mem_channels];
        let setup = t.elapsed().as_secs_f64();

        let quota = sys.instructions;
        let tr = &mut self.tracer;
        let (mut l1_accesses, mut l1_misses) = (0u64, 0u64);
        let laps = Laps::start();
        tr.start();
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..cores.len()).map(|c| Reverse((0, c))).collect();
        let mut remaining = cores.len();
        while remaining > 0 {
            tr.step();
            let Reverse((now, c)) = tr.sampled(Span::Loop, || heap.pop()).expect("cores remain");
            while now >= epoch.next_at() {
                tr.always(Span::Epoch, || epoch.run_epoch(&mut scheme))
                    .expect("no invariant checking configured");
            }
            let core = &mut cores[c];
            let r = tr.sampled(Span::NextRef, || core.gen.next_ref());
            core.time = now + u64::from(r.gap);
            core.instrs += u64::from(r.gap);
            l1_accesses += 1;
            let l1_hit = tr.sampled(Span::L1, || core.l1.access(r.addr));
            let mut outcome = None;
            if !l1_hit {
                l1_misses += 1;
                core.l2_accesses += 1;
                tr.sampled(Span::Observe, || epoch.observe(c, r.addr));
                outcome = Some(tr.sampled(Span::Access, || {
                    scheme
                        .llc_mut()
                        .access(AccessRequest::read(PartitionId::from_index(c), r.addr))
                }));
            }
            let finished = tr.sampled(Span::Loop, || {
                match outcome {
                    Some(o) if o.is_hit() => core.time += sys.l2_latency,
                    Some(_) => {
                        core.l2_misses += 1;
                        let ch = (mix64(r.addr.0) % mem_free.len() as u64) as usize;
                        let start = mem_free[ch].max(core.time);
                        mem_free[ch] = start + sys.mem_cycles_per_line;
                        core.time = start + sys.mem_latency;
                    }
                    None => {}
                }
                if core.done_at.is_none() && core.instrs >= quota {
                    core.done_at = Some(core.time);
                    core.measured_l2_accesses = core.l2_accesses;
                    core.measured_l2_misses = core.l2_misses;
                    remaining -= 1;
                    if remaining == 0 {
                        return true;
                    }
                }
                heap.push(Reverse((core.time, c)));
                false
            });
            if finished {
                break;
            }
        }
        tr.stop();
        let laps = laps.finish();
        self.l1_accesses += l1_accesses;
        self.l1_misses += l1_misses;

        let ipc: Vec<f64> = cores
            .iter()
            .map(|c| quota as f64 / c.done_at.expect("all cores finished") as f64)
            .collect();
        let out = Outcome {
            throughput: ipc.iter().sum(),
            ipc,
            l2_accesses: cores.iter().map(|c| c.measured_l2_accesses).collect(),
            l2_misses: cores.iter().map(|c| c.measured_l2_misses).collect(),
            mpki: cores
                .iter()
                .map(|c| c.measured_l2_misses as f64 * 1000.0 / quota as f64)
                .collect(),
            managed_eviction_fraction: scheme.managed_eviction_fraction().unwrap_or(f64::NAN),
            stats: scheme.llc().stats().clone(),
            vstats: vantage_stats(&scheme),
            epochs: epoch.next_at() / sys.repartition_interval - 1,
        };
        (setup, laps, out)
    }
}

impl Workload for Cmp4 {
    fn setup_once(&mut self) -> f64 {
        let t = Instant::now();
        let sim = CmpSim::new(self.sys.clone(), &self.kind, &self.mix);
        let s = t.elapsed().as_secs_f64();
        drop(sim);
        s
    }

    fn run(&mut self, traced: bool) -> Rep {
        let (setup_s, laps, out) = if traced {
            self.replay()
        } else {
            self.library_run()
        };
        let mut problems = Vec::new();
        if !out.ipc.iter().all(|&x| x > 0.0 && x <= 1.0) {
            problems.push(format!("IPC out of (0, 1]: {:?}", out.ipc));
        }
        let l2: u64 = out.stats.total_hits() + out.stats.total_misses();
        if out
            .l2_misses
            .iter()
            .zip(&out.l2_accesses)
            .any(|(m, a)| m > a)
        {
            problems.push("more L2 misses than accesses".into());
        }
        let rep = Rep {
            setup_s,
            laps,
            accesses: l2,
            instructions: self.sys.cores as u64 * QUOTA,
            fingerprint: out.fingerprint(),
            attempted: 0,
            failed: 0,
            problems,
        };
        self.last = Some(out);
        rep
    }

    fn layer_metrics(&self, m: &mut Metrics) {
        let r = self.tracer.report();
        let out = self.last.as_ref().expect("at least one run");
        let steps = r.get(Span::NextRef).calls.max(1) as f64;
        m.ns("workloads.next_ref_ns", r.get(Span::NextRef).per_call_ns);
        m.ns("sim.l1_access_ns", r.get(Span::L1).per_call_ns);
        m.ratio(
            "sim.l1_miss_ratio",
            self.l1_misses as f64 / self.l1_accesses.max(1) as f64,
        );
        m.ns("sim.loop_self_ns", r.get(Span::Loop).total_ns / steps);
        m.ns("core.access_ns", r.get(Span::Access).per_call_ns);
        m.core(
            out.stats.total_hits(),
            out.stats.total_hits() + out.stats.total_misses(),
            Some(&out.vstats),
        );
        m.ns("ucp.observe_ns", r.get(Span::Observe).per_call_ns);
        m.us("ucp.epoch_us", r.get(Span::Epoch).per_call_ns / 1e3);
        m.count("ucp.epochs", out.epochs);
        m.shares(&r);
    }
}
