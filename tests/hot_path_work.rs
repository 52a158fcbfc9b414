//! Pins of the Vantage-LRU miss path that need no timing.
//!
//! * **Mid-walk setpoint goldens.** At `cands_period = 8` (the smallest
//!   period the config accepts) setpoints move every few candidates, often
//!   in the middle of a 52-candidate walk. The stale test reads each
//!   partition's keep window before the walk's first state update, so an
//!   adjustment only takes effect from the next walk. These goldens pin the
//!   resulting statistics at 4 and at 16 partitions, bit for bit.
//! * **Clamp work counters.** `TagMeta::clamp_stale` counts the sweeps it
//!   makes and the frames they read. Pinning both on a small deterministic
//!   run makes a "does more work" regression fail without any timing.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vantage_repro::cache::ZArray;
use vantage_repro::core::{VantageConfig, VantageLlc};
use vantage_repro::partitioning::{AccessRequest, Llc, PartitionId};

/// FNV-1a over a sequence of `u64`s.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01B3);
        }
    }
    h
}

/// A Z4/52 Vantage-LRU cache of `frames` lines split `partitions` ways.
fn z52_llc(frames: usize, partitions: usize, cands_period: u32) -> VantageLlc {
    let cfg = VantageConfig {
        cands_period,
        ..VantageConfig::default()
    };
    VantageLlc::try_new(Box::new(ZArray::new(frames, 4, 52, 3)), partitions, cfg, 3)
        .expect("valid Vantage config")
}

/// Drives `n` accesses: each picks a random partition, then a random line
/// of that partition's working set. Working sets grow with the partition
/// index, so some partitions fit and others stream.
fn drive(llc: &mut VantageLlc, partitions: usize, n: u64, rng: &mut SmallRng) {
    for _ in 0..n {
        let p = rng.gen_range(0..partitions as u64);
        let ws = 1024 * (p + 1);
        llc.access(AccessRequest::read(
            PartitionId::from_index(p as usize),
            ((p + 1) << 40 | rng.gen_range(0..ws)).into(),
        ));
    }
}

/// Runs the mid-walk-adjustment scenario: uneven targets, a warm-up, a
/// target flip (every partition's setpoint has to move), then more
/// traffic. Returns (per-partition stats digest, `VantageStats` fields,
/// size digest).
fn mid_walk_run(partitions: usize) -> (u64, [u64; 9], u64) {
    let frames = 4096;
    let mut llc = z52_llc(frames, partitions, 8);
    let weights: Vec<u64> = (1..=partitions as u64).collect();
    let total: u64 = weights.iter().sum();
    let budget = (frames as u64 * 7) / 8;
    let up: Vec<u64> = weights.iter().map(|w| budget * w / total).collect();
    let down: Vec<u64> = up.iter().rev().copied().collect();
    let mut rng = SmallRng::seed_from_u64(0x5E7_901);
    llc.set_targets(&up);
    drive(&mut llc, partitions, 60_000, &mut rng);
    llc.set_targets(&down);
    drive(&mut llc, partitions, 60_000, &mut rng);
    llc.invariants().expect("invariants hold");

    let s = llc.stats();
    let stats = fnv(s
        .hits
        .iter()
        .chain(s.misses.iter())
        .copied()
        .chain([s.evictions]));
    let v = llc.vantage_stats();
    let vstats = [
        v.demotions,
        v.promotions,
        v.unmanaged_evictions,
        v.forced_managed_evictions,
        v.empty_fills,
        v.setpoint_adjustments,
        v.throttled_insertions,
        v.corrupted_pid_fallbacks,
        v.scrubs,
    ];
    let sizes = fnv((0..partitions)
        .map(|p| llc.partition_size(PartitionId::from_index(p)))
        .chain([llc.unmanaged_size()]));
    (stats, vstats, sizes)
}

#[test]
fn mid_walk_setpoint_adjustment_matches_golden_at_4_partitions() {
    let (stats, vstats, sizes) = mid_walk_run(4);
    assert_eq!(
        (stats, vstats, sizes),
        (
            0x99cf_29e5_a3f4_f3a1,
            [70845, 9899, 59916, 0, 4096, 307061, 0, 0, 0],
            0xb07f_4550_9e63_7b37,
        ),
        "4-partition cands_period=8 run diverged"
    );
}

#[test]
fn mid_walk_setpoint_adjustment_matches_golden_at_16_partitions() {
    let (stats, vstats, sizes) = mid_walk_run(16);
    assert_eq!(
        (stats, vstats, sizes),
        (
            0x44f4_0744_5f74_720e,
            [111575, 1100, 109777, 21, 4096, 585971, 0, 0, 0],
            0xb175_f6dd_6829_ae99,
        ),
        "16-partition cands_period=8 run diverged"
    );
}

/// Runs 200K accesses on a 4096-line Z4/52 Vantage-LRU cache in 4
/// partitions, each re-reading a small hot set 15 times in 16 and
/// touching a large cold set otherwise. Cold lines that stay resident go
/// untouched for 256 ticks of their partition's clock, which is what
/// makes the aliasing clamp sweep. Returns the clamp's (sweeps, frames
/// swept).
fn clamp_work() -> (u64, u64) {
    let mut llc = z52_llc(4096, 4, 256);
    llc.set_targets(&[640, 896, 1024, 1024]);
    let mut rng = SmallRng::seed_from_u64(0xC1A3);
    for _ in 0..200_000 {
        let p = rng.gen_range(0..4u64);
        let line = if rng.gen_range(0..16) == 0 {
            0x1_0000 + rng.gen_range(0..16_384)
        } else {
            rng.gen_range(0..128 * (p + 1))
        };
        llc.access(AccessRequest::read(
            PartitionId::from_index(p as usize),
            ((p + 1) << 40 | line).into(),
        ));
    }
    let m = llc.tag_meta();
    (m.sweeps(), m.frames_swept())
}

#[test]
fn clamp_work_counters_match_golden() {
    let (sweeps, frames) = clamp_work();
    assert_eq!((sweeps, frames), (3490, 12_690_176), "clamp work changed");
    // Whole-lane sweeps would read every frame every time.
    assert!(frames < sweeps * 4096);
}
