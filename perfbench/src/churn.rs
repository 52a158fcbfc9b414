//! `service-churn`: hundreds of tenants created and drained on one cache.
//!
//! `TenantChurn` events drive a single unbanked Z4/16 `VantageLlc` of 64K
//! lines through `create_partition`/`destroy_partition` with up to 1024
//! tenants, a `QosGuarantee` reallocation every [`EPOCH`] accesses, and
//! telemetry on into an in-memory `RingSink`. It is the only workload where
//! the partition lifecycle and telemetry do work.

use std::sync::Arc;
use std::time::Instant;

use vantage::{VantageConfig, VantageLlc, VantageStats};
use vantage_cache::ZArray;
use vantage_partitioning::{AccessRequest, Llc, PartitionId, PartitionSpec};
use vantage_telemetry::{RingReader, RingSink, Telemetry, TelemetrySink};
use vantage_ucp::{AllocationPolicy, PolicyInput, QosGuarantee};
use vantage_workloads::{ChurnEvent, TenantChurn, TenantChurnConfig};

use crate::json::Json;
use crate::probe::{Laps, SinkClock, Span, TimedSink, Tracer};
use crate::{Metrics, Rep, Workload};

/// Cache lines.
const FRAMES: usize = 64 * 1024;
/// Admission cap on live tenants.
const MAX_TENANTS: usize = 1024;
/// Generator events per run.
const EVENTS: u64 = 3_000_000;
/// Accesses between QoS reallocations.
const EPOCH: u64 = 50_000;
/// Events per timing lap (see `Laps`).
const LAP_EVENTS: u64 = 10_000;
/// Every live tenant is guaranteed 1/(4 * cap) of the cache.
const FLOOR: u64 = (FRAMES / (4 * MAX_TENANTS)) as u64;
/// Records the in-memory telemetry ring retains.
const RING_RECORDS: usize = 1 << 16;

/// The system under test, freshly built.
struct System {
    llc: VantageLlc,
    reader: RingReader,
    gen: TenantChurn,
    policy: QosGuarantee,
}

/// What one run did.
#[derive(Default)]
struct Outcome {
    accesses: u64,
    hits: u64,
    departures: u64,
    peak_live: u64,
    lifecycle_ops: u64,
    lifecycle_errors: u64,
    floor_checks: u64,
    floor_violations: u64,
    epochs: u64,
    records: u64,
    admitted: u64,
    /// Hits and accesses per slot since the slot's current tenant was
    /// created (the cache zeroes a slot's `LlcStats` on reuse).
    slot_hits: Vec<u64>,
    slot_accesses: Vec<u64>,
    vstats: VantageStats,
    invariants: Option<String>,
}

/// The `service-churn` workload.
pub struct Churn {
    seed: u64,
    clock: Arc<SinkClock>,
    tracer: Tracer<true>,
    last: Option<Outcome>,
}

impl Churn {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        let clock = Arc::new(SinkClock::default());
        Self {
            seed,
            tracer: Tracer::new(clock.clone()),
            clock,
            last: None,
        }
    }

    fn build(&self, traced: bool) -> System {
        let seed = self.seed;
        let mut llc = VantageLlc::try_new(
            Box::new(ZArray::new(FRAMES, 4, 16, seed)),
            1,
            VantageConfig::default(),
            seed,
        )
        .expect("valid Vantage config");
        let (ring, reader) = RingSink::with_capacity(RING_RECORDS);
        let sink: Box<dyn TelemetrySink> = if traced {
            Box::new(TimedSink::new(Box::new(ring), self.clock.clone()))
        } else {
            Box::new(ring)
        };
        assert!(llc.set_telemetry(Telemetry::new(sink, 0)));
        // The construction-time slot belongs to no tenant.
        llc.destroy_partition(PartitionId::from_index(0))
            .expect("fresh slot destroys cleanly");
        let gen = TenantChurn::try_new(TenantChurnConfig {
            max_tenants: MAX_TENANTS,
            mean_lifetime: EVENTS as f64 / 8.0,
            mean_interarrival: EVENTS as f64 / (6.0 * MAX_TENANTS as f64),
            footprint_lines: (FRAMES / 8) as u64,
            seed,
            ..TenantChurnConfig::default()
        })
        .expect("valid churn config");
        let policy = QosGuarantee::uniform(FLOOR, 1.0).expect("valid uniform contract");
        System {
            llc,
            reader,
            gen,
            policy,
        }
    }
}

/// The driver loop; `TRACED = false` compiles the spans away.
fn drive<const TRACED: bool>(
    sys: &mut System,
    tr: &mut Tracer<TRACED>,
    laps: &mut Laps,
) -> Outcome {
    let System {
        llc, gen, policy, ..
    } = sys;
    let mut o = Outcome::default();
    // Tenant ids are assigned densely from 0 and never reused.
    let mut slots: Vec<Option<PartitionId>> = Vec::new();
    let mut live = 0u64;
    let mut until_epoch = EPOCH;
    tr.start();
    for i in 0..EVENTS {
        if i > 0 && i % LAP_EVENTS == 0 {
            laps.lap();
        }
        tr.step();
        match tr.sampled(Span::NextEvent, || gen.next_event()) {
            ChurnEvent::Arrive { tenant } => {
                o.lifecycle_ops += 1;
                let spec = PartitionSpec::with_target(FLOOR);
                match tr.always(Span::Create, || llc.create_partition(spec)) {
                    Ok(slot) => {
                        let p = slot.index();
                        if o.slot_hits.len() <= p {
                            o.slot_hits.resize(p + 1, 0);
                            o.slot_accesses.resize(p + 1, 0);
                        }
                        o.slot_hits[p] = 0;
                        o.slot_accesses[p] = 0;
                        let t = tenant as usize;
                        if slots.len() <= t {
                            slots.resize(t + 1, None);
                        }
                        slots[t] = Some(slot);
                        live += 1;
                        o.peak_live = o.peak_live.max(live);
                    }
                    Err(_) => o.lifecycle_errors += 1,
                }
            }
            ChurnEvent::Depart { tenant } => {
                o.lifecycle_ops += 1;
                match slots.get_mut(tenant as usize).and_then(Option::take) {
                    Some(slot) => {
                        if tr
                            .always(Span::Destroy, || llc.destroy_partition(slot))
                            .is_err()
                        {
                            o.lifecycle_errors += 1;
                        }
                        live -= 1;
                        o.departures += 1;
                    }
                    None => o.lifecycle_errors += 1,
                }
            }
            ChurnEvent::Access { tenant, addr } => {
                let Some(slot) = slots.get(tenant as usize).copied().flatten() else {
                    o.lifecycle_errors += 1;
                    continue;
                };
                let out = tr.sampled(Span::Access, || llc.access(AccessRequest::read(slot, addr)));
                o.hits += u64::from(out.is_hit());
                o.accesses += 1;
                o.slot_hits[slot.index()] += u64::from(out.is_hit());
                o.slot_accesses[slot.index()] += 1;
                until_epoch -= 1;
                if until_epoch == 0 {
                    until_epoch = EPOCH;
                    o.epochs += 1;
                    let targets = tr.always(Span::Epoch, || {
                        let capacity = llc.capacity() as u64;
                        let obs = llc.observations();
                        let input = PolicyInput {
                            capacity,
                            actual: &obs.actual,
                            hits: &obs.hits,
                            misses: &obs.misses,
                            churn: &obs.churn,
                            insertions: &obs.insertions,
                            shared_hits: &obs.shared_hits,
                            ownership_transfers: &obs.ownership_transfers,
                            live: &obs.live,
                            arrived: &obs.arrived,
                            departed: &obs.departed,
                        };
                        let targets = policy.reallocate(&input);
                        llc.set_targets(&targets);
                        targets
                    });
                    for slot in slots.iter().flatten() {
                        o.floor_checks += 1;
                        if targets.get(slot.index()).copied().unwrap_or(0) < FLOOR {
                            o.floor_violations += 1;
                        }
                    }
                }
            }
        }
    }
    tr.stop();
    o
}

impl Workload for Churn {
    fn setup_once(&mut self) -> f64 {
        let t = Instant::now();
        let sys = self.build(false);
        let s = t.elapsed().as_secs_f64();
        drop(sys);
        s
    }

    fn run(&mut self, traced: bool) -> Rep {
        let t = Instant::now();
        let mut sys = self.build(traced);
        let setup_s = t.elapsed().as_secs_f64();
        let mut laps = Laps::start();
        let mut o = if traced {
            drive(&mut sys, &mut self.tracer, &mut laps)
        } else {
            let mut tr = Tracer::<false>::new(self.clock.clone());
            drive(&mut sys, &mut tr, &mut laps)
        };
        let laps = laps.finish();

        drop(sys.llc.take_telemetry());
        o.records = sys.reader.len() as u64 + sys.reader.overwritten();
        o.admitted = sys.gen.tenants_admitted();
        let stats = sys.llc.stats();
        let slots = o.slot_hits.len();
        let stats_agree = stats.hits.len() >= slots
            && (0..slots).all(|p| {
                stats.hits[p] == o.slot_hits[p]
                    && stats.hits[p] + stats.misses[p] == o.slot_accesses[p]
            });
        o.vstats = sys.llc.vantage_stats().clone();
        o.invariants = sys.llc.invariants().err().map(|e| e.to_string());

        let mut problems = Vec::new();
        if o.lifecycle_errors > 0 {
            problems.push(format!("{} lifecycle errors", o.lifecycle_errors));
        }
        if o.floor_violations > 0 {
            problems.push(format!("{} QoS floor violations", o.floor_violations));
        }
        if let Some(e) = &o.invariants {
            problems.push(format!("invariants: {e}"));
        }
        if !stats_agree {
            problems.push("per-slot LlcStats disagree with the driver's outcomes".into());
        }
        if o.records == 0 {
            problems.push("telemetry recorded nothing".into());
        }
        let mut fp = Json::obj();
        fp.put("hits", o.hits)
            .put("misses", o.accesses - o.hits)
            .put("tenants_admitted", o.admitted)
            .put("departures", o.departures)
            .put("peak_live", o.peak_live)
            .put("lifecycle_ops", o.lifecycle_ops)
            .put("lifecycle_errors", o.lifecycle_errors)
            .put("floor_violations", o.floor_violations)
            .put("demotions", o.vstats.demotions)
            .put("forced_evictions", o.vstats.forced_managed_evictions)
            .put("setpoint_adjustments", o.vstats.setpoint_adjustments)
            .put("telemetry_records", o.records)
            .put("epochs", o.epochs);
        let rep = Rep {
            setup_s,
            laps,
            accesses: o.accesses,
            instructions: EVENTS,
            fingerprint: fp,
            attempted: o.lifecycle_ops + o.floor_checks,
            failed: o.lifecycle_errors + o.floor_violations,
            problems,
        };
        self.last = Some(o);
        rep
    }

    fn layer_metrics(&self, m: &mut Metrics) {
        let r = self.tracer.report();
        let o = self.last.as_ref().expect("at least one run");
        m.ns(
            "workloads.next_event_ns",
            r.get(Span::NextEvent).per_call_ns,
        );
        m.ns("core.access_ns", r.get(Span::Access).per_call_ns);
        m.core(o.hits, o.accesses, Some(&o.vstats));
        m.us("core.create_us", r.get(Span::Create).per_call_ns / 1e3);
        m.us("core.destroy_us", r.get(Span::Destroy).per_call_ns / 1e3);
        m.count("core.lifecycle_ops", o.lifecycle_ops);
        m.us("ucp.epoch_us", r.get(Span::Epoch).per_call_ns / 1e3);
        m.count("ucp.epochs", o.epochs);
        m.ratio(
            "telemetry.records_per_acc",
            o.records as f64 / o.accesses.max(1) as f64,
        );
        m.ns("telemetry.sink_ns", r.get(Span::Sink).per_call_ns);
        m.count("work.telemetry_records", o.records);
        m.shares(&r);
    }
}
