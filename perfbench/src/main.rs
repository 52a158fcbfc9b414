//! Whole-simulator benchmark for the Vantage workspace.
//!
//! ```text
//! vantage-perfbench --workload <cmp4-fig8|service-churn|banked8-trace>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run constructs the workload's inputs from the seed (untimed), then
//! repeats the whole workload from a freshly built, empty system until
//! `--seconds` have passed, timing a few set-ups of the simulated system
//! before each repetition. Every repetition must produce the same simulated
//! statistics. On single-threaded workloads the throughput and CPU metrics
//! come from the fastest instance of each lap (see [`best_laps`]), on
//! multi-threaded ones from the median repetition. With `--trace 1`
//! untraced and traced repetitions alternate: the traced ones time the
//! benchmark's calls into each layer (see `probe.rs`) and the report gives
//! each layer's self time, its share of the traced wall time, and the
//! tracing overhead against the untraced repetitions.
//!
//! The last line of standard output is one JSON object: the metrics, the
//! attempt/failure counts, and the simulated-statistics fingerprint that
//! `run.py` checks against the recorded references.

mod banked8;
mod churn;
mod cmp4;
mod json;
mod probe;

use std::time::{Duration, Instant};

use vantage::VantageStats;

use json::Json;
use probe::{Laps, TraceReport};

/// Set-ups timed on their own before each repetition.
const SETUPS_PER_REP: usize = 5;
/// Fewest repetitions of each kind (untraced, traced) in one run.
const MIN_REPS: usize = 3;

/// One repetition of a workload.
pub struct Rep {
    /// Seconds to construct the simulated system.
    pub setup_s: f64,
    /// Wall and process CPU time (every thread) of the timed phase, in
    /// laps cut at the same points of every untraced repetition.
    pub laps: Laps,
    /// Simulated LLC accesses.
    pub accesses: u64,
    /// Simulated instructions (see the workload docs).
    pub instructions: u64,
    /// Every simulated statistic the run is checked on.
    pub fingerprint: Json,
    /// Operations attempted beyond the run itself (lifecycle operations,
    /// QoS floor checks).
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Output checks that failed.
    pub problems: Vec<String>,
}

/// A benchmark workload.
pub trait Workload {
    /// Builds the simulated system once and drops it; returns the seconds
    /// the construction took.
    fn setup_once(&mut self) -> f64;
    /// Builds a fresh system and runs the whole workload on it.
    fn run(&mut self, traced: bool) -> Rep;
    /// Whether the timed phase runs on several threads.
    fn parallel(&self) -> bool {
        false
    }
    /// The per-layer metrics of the traced repetitions so far.
    fn layer_metrics(&self, m: &mut Metrics);
}

/// Named metrics with units, in report order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// A time in nanoseconds.
    pub fn ns(&mut self, name: &str, v: f64) {
        self.put(name, v, "ns");
    }

    /// A time in microseconds.
    pub fn us(&mut self, name: &str, v: f64) {
        self.put(name, v, "us");
    }

    /// A dimensionless ratio.
    pub fn ratio(&mut self, name: &str, v: f64) {
        self.put(name, v, "ratio");
    }

    /// An exact count.
    pub fn count(&mut self, name: &str, v: u64) {
        self.put(name, v as f64, "count");
    }

    /// The controller's counters from `LlcStats` and `VantageStats`.
    pub fn core(&mut self, hits: u64, accesses: u64, v: Option<&VantageStats>) {
        let misses = accesses - hits;
        self.ratio("core.hit_ratio", hits as f64 / accesses.max(1) as f64);
        self.count("work.llc_accesses", accesses);
        self.count("work.llc_misses", misses);
        if let Some(v) = v {
            self.ratio(
                "core.demotions_per_miss",
                v.demotions as f64 / misses.max(1) as f64,
            );
            self.ratio("core.forced_evict_frac", v.managed_eviction_fraction());
            self.put(
                "core.setpoint_adj_per_kacc",
                v.setpoint_adjustments as f64 * 1e3 / accesses.max(1) as f64,
                "1/kacc",
            );
            self.count("work.demotions", v.demotions);
        }
    }

    /// Each layer's share of the traced wall time, and their sum.
    pub fn shares(&mut self, r: &TraceReport) {
        for layer in [
            "workloads",
            "sim",
            "core",
            "partitioning",
            "ucp",
            "telemetry",
        ] {
            self.ratio(&format!("{layer}.share"), r.layer_ns(layer) / r.wall_ns);
        }
        self.ratio("trace.coverage", r.coverage());
    }

    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        for (name, value, unit) in &self.0 {
            let mut m = Json::obj();
            m.put("value", *value).put("unit", *unit);
            j.put(name, m);
        }
        j
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Wall and CPU seconds of the untraced repetitions, taking each lap at its
/// fastest across repetitions and summing the laps.
///
/// The host's other work only ever slows a single thread's lap down, and it
/// comes and goes within seconds, so the fastest instance of each lap is the
/// steadiest estimate of what the program itself costs. A workload with a
/// single lap reduces to its fastest repetition.
fn best_laps(reps: &[&Rep]) -> (f64, f64) {
    let n = reps[0].laps.laps.len();
    assert!(
        reps.iter().all(|r| r.laps.laps.len() == n),
        "repetitions cut different laps"
    );
    let (mut wall, mut cpu) = (0u64, 0u64);
    for i in 0..n {
        wall += reps.iter().map(|r| r.laps.laps[i].0).min().unwrap_or(0);
        cpu += reps.iter().map(|r| r.laps.laps[i].1).min().unwrap_or(0);
    }
    (wall as f64 / 1e9, cpu as f64 / 1e9)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: vantage-perfbench --workload <cmp4-fig8|service-churn|banked8-trace> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "cmp4-fig8" => Box::new(cmp4::Cmp4::new(args.seed)),
        "service-churn" => Box::new(churn::Churn::new(args.seed)),
        "banked8-trace" => Box::new(banked8::Banked8::new(args.seed)),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut longest = Duration::ZERO;
    loop {
        setups.extend((0..SETUPS_PER_REP).map(|_| w.setup_once()));
        let traced = args.trace && reps.len() % 2 == 1;
        let t = Instant::now();
        let rep = w.run(traced);
        longest = longest.max(t.elapsed());
        eprintln!(
            "  {} run {}: {:.3} s, {} accesses, setup {:.2} ms",
            if traced { "traced" } else { "untraced" },
            reps.len(),
            rep.laps.wall_s(),
            rep.accesses,
            rep.setup_s * 1e3
        );
        reps.push((traced, rep));
        let kinds = |t: bool| reps.iter().filter(|(k, _)| *k == t).count();
        // Stop before a repetition that would overrun the budget, so a run
        // takes `--seconds`, not up to one repetition more.
        if start.elapsed() + longest >= budget
            && kinds(false) >= MIN_REPS
            && (!args.trace || kinds(true) >= MIN_REPS)
        {
            break;
        }
    }

    // Output checks: every repetition, traced or not, must reproduce the
    // first one's simulated statistics exactly and pass its own checks.
    let first = reps[0].1.fingerprint.clone();
    let mut problems = Vec::new();
    let mut failed_runs = 0u64;
    for (i, (traced, rep)) in reps.iter().enumerate() {
        let mut bad = false;
        for p in &rep.problems {
            problems.push(format!("run {i}: {p}"));
            bad = true;
        }
        if rep.fingerprint != first {
            problems.push(format!(
                "run {i} ({}) differs from run 0: {}",
                if *traced { "traced replay" } else { "untraced" },
                rep.fingerprint
            ));
            bad = true;
        }
        failed_runs += u64::from(bad);
    }
    let attempted = reps.len() as u64 + reps.iter().map(|(_, r)| r.attempted).sum::<u64>();
    let failed = failed_runs + reps.iter().map(|(_, r)| r.failed).sum::<u64>();

    let walls = |t: bool| -> Vec<f64> {
        reps.iter()
            .filter(|(k, _)| *k == t)
            .map(|(_, r)| r.laps.wall_s())
            .collect()
    };
    let untraced: Vec<&Rep> = reps.iter().filter(|(k, _)| !k).map(|(_, r)| r).collect();
    let mut m = Metrics::default();
    if args.trace {
        w.layer_metrics(&mut m);
        let (t, u) = (median(walls(true)), median(walls(false)));
        m.put("trace.overhead_s", t - u, "s");
        m.ratio("trace.overhead_frac", (t - u) / u);
    } else {
        setups.extend(reps.iter().map(|(_, r)| r.setup_s));
        // Threads that meet at every window are slowed or sped up by how
        // they happen to be scheduled, so a multi-threaded workload's
        // fastest laps are luck; its median repetition is steadier.
        let (wall, cpu) = if w.parallel() {
            let per_rep =
                |f: fn(&Laps) -> f64| median(untraced.iter().map(|r| f(&r.laps)).collect());
            (per_rep(Laps::wall_s), per_rep(Laps::cpu_s))
        } else {
            best_laps(&untraced)
        };
        let rep = untraced[0];
        m.put("acc_per_s", rep.accesses as f64 / wall, "1/s");
        m.put("instr_per_s", rep.instructions as f64 / wall, "1/s");
        m.put("setup_s", median(setups), "s");
        m.put("peak_rss_mb", probe::peak_rss_mb(), "MB");
        m.ns("cpu_ns_per_acc", cpu * 1e9 / rep.accesses as f64);
    }

    for (name, value, unit) in &m.0 {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    for p in &problems {
        println!("  CHECK FAILED: {p}");
    }
    let mut out = Json::obj();
    out.put("workload", args.workload.as_str())
        .put("seed", args.seed)
        .put("trace", args.trace)
        .put("runs", reps.len())
        .put("attempted", attempted)
        .put("failed", failed)
        .put(
            "problems",
            Json::Arr(problems.into_iter().map(Json::Str).collect()),
        )
        .put("fingerprint", first)
        .put("metrics", m.to_json());
    println!("{out}");
}
