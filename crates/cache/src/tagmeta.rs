//! Dense structure-of-arrays per-frame tag metadata.
//!
//! Partitioned caches extend every frame's tag with a partition ID and a
//! small replacement stamp (an 8-bit coarse timestamp or an RRPV). Keeping
//! those as an array-of-structs (`Vec<Tag { part, ts }>`) wastes a padding
//! byte per frame and, worse, makes the demotion candidate scan read
//! strided 4-byte records. [`TagMeta`] stores the two fields as separate
//! contiguous lanes instead:
//!
//! * `parts: Vec<u16>` — the owning partition of each frame, with the
//!   reserved sentinel [`TAG_UNMANAGED`] (`u16::MAX`) for lines in the
//!   unmanaged region **and** for frames that have never been filled.
//!   A never-filled frame is therefore distinguishable from a partition-0
//!   line by its tag alone, which the scrub/audit paths rely on.
//! * `ts: Vec<u8>` — the timestamp / RRPV lane.
//!
//! The lanes are exposed both element-wise (hot-path accessors, all
//! `#[inline]`) and as whole slices, so candidate scans and scrub passes
//! can run branchless, autovectorizable loops over contiguous `u16`/`u8`
//! data. Snapshot encoding is left to the owning cache: the lanes
//! serialize naturally as one `u16` slice plus one `u8` slice.

use crate::array::{prefetch_slice, Frame};

/// The reserved partition ID tagging unmanaged lines and never-filled
/// frames. Valid partition IDs are `0..TAG_UNMANAGED`.
pub const TAG_UNMANAGED: u16 = u16::MAX;

/// Size of the stamp domain (8-bit coarse timestamps / RRPVs).
const STAMP_DOMAIN: usize = 256;

/// Frames per stamp-lane chunk that [`TagMeta::clamp_stale`] tests (and
/// skips) as a unit: one cache line of the `ts` lane.
const CHUNK: usize = 64;

/// Structure-of-arrays per-frame (partition ID, timestamp/RRPV) store.
#[derive(Clone, Debug)]
pub struct TagMeta {
    parts: Vec<u16>,
    ts: Vec<u8>,
    /// Lines per (partition, stamp) pair: `counts[row(part) + ts]`.
    ///
    /// Every lane write maintains this index, which exists for one
    /// reason: [`Self::clamp_stale`] reads it to skip the lanes entirely
    /// when no line carries the aliasing stamp, and otherwise to stop its
    /// sweep as soon as it has pinned that many lines. The skip is not the
    /// common case everywhere: on a 4-core Fig. 8 mix, 1,356 clock ticks
    /// per run find lines left untouched for 256 ticks (see
    /// [`Self::clamp_stale`]).
    ///
    /// Rows are allocated lazily up to the largest partition ID ever
    /// written (the sentinel maps to row 0), so the index costs
    /// `(max_part + 2) * 256` u32s — a few KB for core-count caches,
    /// ~1 MB at 4K tenants.
    counts: Vec<u32>,
    /// Clamp sweeps that reached the lanes (work counter; not part of the
    /// tag state, so snapshots neither save nor restore it).
    sweeps: u64,
    /// Frames those sweeps read before stopping (work counter, likewise).
    frames_swept: u64,
}

impl TagMeta {
    /// Creates a store for `frames` frames, every tag reset to the
    /// never-filled state (`TAG_UNMANAGED`, stamp 0).
    pub fn new(frames: usize) -> Self {
        let mut counts = vec![0u32; STAMP_DOMAIN];
        counts[0] = frames as u32; // all frames: (TAG_UNMANAGED, 0)
        Self {
            parts: vec![TAG_UNMANAGED; frames],
            ts: vec![0; frames],
            counts,
            sweeps: 0,
            frames_swept: 0,
        }
    }

    /// Index of `(part, ts)` in the count lane, growing it as needed.
    /// `TAG_UNMANAGED` wraps to row 0; partition `p` lives at row `p + 1`.
    #[inline]
    fn count_idx(&mut self, part: u16, ts: u8) -> usize {
        let row = part.wrapping_add(1) as usize * STAMP_DOMAIN;
        if row + STAMP_DOMAIN > self.counts.len() {
            self.counts.resize(row + STAMP_DOMAIN, 0);
        }
        row + ts as usize
    }

    /// Moves one line's count from tag `(op, ot)` to tag `(np, nt)`.
    #[inline]
    fn recount(&mut self, op: u16, ot: u8, np: u16, nt: u8) {
        let old = self.count_idx(op, ot);
        self.counts[old] -= 1;
        let new = self.count_idx(np, nt);
        self.counts[new] += 1;
    }

    /// Rebuilds the count index from the lanes (wholesale lane loads).
    fn rebuild_counts(&mut self) {
        let max_row = self
            .parts
            .iter()
            .map(|p| p.wrapping_add(1) as usize)
            .max()
            .unwrap_or(0);
        let rows = max_row + 1;
        self.counts.clear();
        self.counts.resize(rows * STAMP_DOMAIN, 0);
        for (p, t) in self.parts.iter().zip(self.ts.iter()) {
            let row = p.wrapping_add(1) as usize * STAMP_DOMAIN;
            self.counts[row + *t as usize] += 1;
        }
    }

    /// Number of frames covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the store covers zero frames.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The partition ID of frame `f`.
    #[inline]
    pub fn part(&self, f: usize) -> u16 {
        self.parts[f]
    }

    /// The timestamp / RRPV of frame `f`.
    #[inline]
    pub fn ts(&self, f: usize) -> u8 {
        self.ts[f]
    }

    /// Writes both lanes of frame `f`.
    #[inline]
    pub fn set(&mut self, f: usize, part: u16, ts: u8) {
        self.recount(self.parts[f], self.ts[f], part, ts);
        self.parts[f] = part;
        self.ts[f] = ts;
    }

    /// Writes only the partition lane of frame `f`.
    #[inline]
    pub fn set_part(&mut self, f: usize, part: u16) {
        self.recount(self.parts[f], self.ts[f], part, self.ts[f]);
        self.parts[f] = part;
    }

    /// Writes only the timestamp lane of frame `f`.
    #[inline]
    pub fn set_ts(&mut self, f: usize, ts: u8) {
        self.recount(self.parts[f], self.ts[f], self.parts[f], ts);
        self.ts[f] = ts;
    }

    /// Copies frame `from`'s tag into frame `to` (line relocation).
    #[inline]
    pub fn copy(&mut self, from: Frame, to: Frame) {
        let (f, t) = (from as usize, to as usize);
        self.recount(self.parts[t], self.ts[t], self.parts[f], self.ts[f]);
        self.parts[t] = self.parts[f];
        self.ts[t] = self.ts[f];
    }

    /// The whole partition lane.
    #[inline]
    pub fn parts(&self) -> &[u16] {
        &self.parts
    }

    /// The whole timestamp lane.
    #[inline]
    pub fn ts_lane(&self) -> &[u8] {
        &self.ts
    }

    /// Replaces both lanes wholesale (snapshot restore), rebuilding the
    /// count index. (There is deliberately no mutable slice access: every
    /// lane write must go through the setters so the index stays exact.)
    ///
    /// # Panics
    ///
    /// Panics if the lanes disagree with the store's frame count.
    pub fn load_lanes(&mut self, parts: Vec<u16>, ts: Vec<u8>) {
        assert_eq!(parts.len(), self.parts.len(), "partition lane length");
        assert_eq!(ts.len(), self.ts.len(), "timestamp lane length");
        self.parts = parts;
        self.ts = ts;
        self.rebuild_counts();
    }

    /// Issues prefetch hints for frame `f`'s entries in both lanes.
    #[inline]
    pub fn prefetch(&self, f: usize) {
        prefetch_slice(&self.parts, f);
        prefetch_slice(&self.ts, f);
    }

    /// Pins lines of `part` whose stamp is exactly `aliasing_ts` one tick
    /// behind it, i.e. at the maximum age of 255.
    ///
    /// Called right after a partition's coarse-timestamp clock advances to
    /// `aliasing_ts` and *before* any line is stamped with the new value:
    /// at that moment the only resident lines carrying `aliasing_ts` are
    /// ones stamped a full 256 ticks ago, which the 8-bit age arithmetic
    /// `current - ts` would otherwise alias to age 0 — back inside every
    /// keep window, dodging demotion indefinitely. Re-stamping them to
    /// `aliasing_ts + 1` reads as age 255 now and on every later tick
    /// (each subsequent advance re-pins them), so truly stale lines stay
    /// the oldest instead of the youngest.
    ///
    /// The count index bounds the work. With no resident
    /// `(part, aliasing_ts)` line the lanes are not touched. Otherwise the
    /// sweep walks the `ts` lane in 64-frame chunks, skips every chunk
    /// holding no byte equal to `aliasing_ts` (a compare-OR fold that
    /// vectorizes at the baseline x86_64 target), and stops once it has
    /// pinned as many lines as the index holds. On a 4-core Fig. 8 mix
    /// (32K frames, Z4/52, 2M instructions per core) the run's 1,356
    /// sweeps read 32.6M frames instead of 44.4M, and only 22% of the
    /// chunks they read hold the stamp, so ~7.2M frames get the per-frame
    /// pass instead of 44.4M. The early exit saves less than the skip:
    /// the last matching line sits, on average, well past the middle of
    /// the lane. See [`Self::frames_swept`].
    ///
    /// Returns how many frames were pinned, so callers maintaining stamp
    /// histograms can move the affected entries without a rescan.
    pub fn clamp_stale(&mut self, part: u16, aliasing_ts: u8) -> usize {
        let idx = self.count_idx(part, aliasing_ts);
        let want = self.counts[idx] as usize;
        if want == 0 {
            return 0;
        }
        let pinned = aliasing_ts.wrapping_add(1);
        let (chunks, tail) = self.ts.as_chunks_mut::<CHUNK>();
        let (part_chunks, part_tail) = self.parts.as_chunks::<CHUNK>();
        let mut count = 0usize;
        let mut swept = 0usize;
        for (ts, parts) in chunks.iter_mut().zip(part_chunks) {
            swept += CHUNK;
            if has_byte(ts, aliasing_ts) {
                count += pin_matches(ts, parts, part, aliasing_ts, pinned);
                if count == want {
                    break;
                }
            }
        }
        if count < want {
            swept += tail.len();
            count += pin_matches(tail, part_tail, part, aliasing_ts, pinned);
        }
        self.sweeps += 1;
        self.frames_swept += swept as u64;
        debug_assert!(
            !self
                .parts
                .iter()
                .zip(&self.ts)
                .any(|(p, t)| *p == part && *t == aliasing_ts),
            "clamp stopped early with a ({part}, {aliasing_ts}) frame left unpinned"
        );
        self.counts[idx] = 0;
        let to = self.count_idx(part, pinned);
        self.counts[to] += count as u32;
        count
    }

    /// Clamp sweeps that reached the lanes so far (see
    /// [`Self::clamp_stale`]).
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Frames read by clamp sweeps so far: a deterministic work counter,
    /// so a change that makes the clamp read more fails a test without
    /// any timing.
    pub fn frames_swept(&self) -> u64 {
        self.frames_swept
    }
}

/// Whether any byte of `chunk` equals `x`. The fold has no early exit, so
/// it compiles to a handful of SIMD compares and ORs (SSE2 at the baseline
/// x86_64 target).
#[inline]
fn has_byte(chunk: &[u8; CHUNK], x: u8) -> bool {
    chunk.iter().fold(0u8, |acc, &b| acc | u8::from(b == x)) != 0
}

/// Re-stamps the frames of one chunk tagged `(part, from)` to `to`,
/// returning how many there were.
#[inline]
fn pin_matches(ts: &mut [u8], parts: &[u16], part: u16, from: u8, to: u8) -> usize {
    let mut count = 0usize;
    for (t, p) in ts.iter_mut().zip(parts) {
        let hit = (*p == part) & (*t == from);
        count += usize::from(hit);
        *t = if hit { to } else { *t };
    }
    count
}

#[cfg(test)]
impl TagMeta {
    /// The original whole-lane clamp: one branchless pass over every
    /// frame. Kept as the reference [`Self::clamp_stale`] must agree with.
    fn clamp_stale_scalar(&mut self, part: u16, aliasing_ts: u8) -> usize {
        let idx = self.count_idx(part, aliasing_ts);
        if self.counts[idx] == 0 {
            return 0;
        }
        let pinned = aliasing_ts.wrapping_add(1);
        let mut count = 0usize;
        for (p, t) in self.parts.iter().zip(self.ts.iter_mut()) {
            let hit = (*p == part) & (*t == aliasing_ts);
            count += usize::from(hit);
            *t = if hit { pinned } else { *t };
        }
        assert_eq!(count as u32, self.counts[idx], "count index exact");
        self.counts[idx] = 0;
        let to = self.count_idx(part, pinned);
        self.counts[to] += count as u32;
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_store_is_unmanaged_everywhere() {
        let m = TagMeta::new(8);
        assert_eq!(m.len(), 8);
        assert!(!m.is_empty());
        for f in 0..8 {
            assert_eq!(
                m.part(f),
                TAG_UNMANAGED,
                "frame {f} must default to the sentinel"
            );
            assert_eq!(m.ts(f), 0);
        }
    }

    #[test]
    fn set_and_copy_move_both_lanes() {
        let mut m = TagMeta::new(4);
        m.set(1, 7, 42);
        assert_eq!((m.part(1), m.ts(1)), (7, 42));
        m.copy(1, 3);
        assert_eq!((m.part(3), m.ts(3)), (7, 42));
        m.set_part(3, 2);
        m.set_ts(3, 9);
        assert_eq!((m.part(3), m.ts(3)), (2, 9));
        assert_eq!((m.part(1), m.ts(1)), (7, 42), "source unchanged");
    }

    #[test]
    fn clamp_stale_pins_only_matching_lines() {
        let mut m = TagMeta::new(6);
        m.set(0, 3, 10); // target partition, aliasing stamp -> pinned
        m.set(1, 3, 11); // target partition, other stamp -> untouched
        m.set(2, 5, 10); // other partition, aliasing stamp -> untouched
        m.set(3, 3, 10); // target partition, aliasing stamp -> pinned
        m.set(4, TAG_UNMANAGED, 10); // unmanaged -> untouched here
        assert_eq!(m.clamp_stale(3, 10), 2, "two lines of partition 3 pinned");
        assert_eq!(m.ts(0), 11);
        assert_eq!(m.ts(1), 11);
        assert_eq!(m.ts(2), 10);
        assert_eq!(m.ts(3), 11);
        assert_eq!(m.ts(4), 10);
        // The unmanaged domain clamps with the sentinel as the partition.
        assert_eq!(m.clamp_stale(TAG_UNMANAGED, 10), 1);
        assert_eq!(m.ts(4), 11);
    }

    #[test]
    fn clamp_stale_wraps_at_the_domain_edge() {
        let mut m = TagMeta::new(1);
        m.set(0, 0, 255);
        assert_eq!(m.clamp_stale(0, 255), 1);
        assert_eq!(m.ts(0), 0, "pin wraps modulo 256");
    }

    #[test]
    fn count_index_stays_exact_through_every_setter() {
        // The clamp trusts the per-(part, ts) counts both to skip and to
        // stop early; drive every mutation kind and check the sweep agrees
        // with the index (the debug check inside clamp_stale asserts no
        // matching frame survived the early exit).
        let mut m = TagMeta::new(8);
        assert_eq!(m.clamp_stale(TAG_UNMANAGED, 0), 8, "init state counted");
        m.set(0, 3, 10);
        m.set(1, 3, 10);
        m.copy(0, 2); // (3, 10) again
        m.set_part(2, 5); // now (5, 10)
        m.set_ts(1, 11); // now (3, 11)
        assert_eq!(m.clamp_stale(3, 10), 1, "only frame 0 left at (3, 10)");
        assert_eq!(m.clamp_stale(3, 11), 2, "frame 1 plus frame 0's pin");
        assert_eq!(m.clamp_stale(5, 10), 1);
        assert_eq!(m.clamp_stale(5, 10), 0, "pinned away: skip is exact");
        m.load_lanes(vec![7; 8], vec![200; 8]);
        assert_eq!(m.clamp_stale(7, 200), 8, "load_lanes rebuilds the index");
    }

    #[test]
    fn clamp_stale_skips_clean_chunks_and_stops_at_the_last_match() {
        let mut m = TagMeta::new(4 * CHUNK + 10);
        m.set(CHUNK + 3, 2, 40); // the only (2, 40) line, in chunk 1
        m.set(3 * CHUNK, 2, 41); // a (2, 41) line further on
        assert_eq!(m.clamp_stale(2, 39), 0, "no (2, 39) line: lanes untouched");
        assert_eq!((m.sweeps(), m.frames_swept()), (0, 0));
        assert_eq!(m.clamp_stale(2, 40), 1);
        assert_eq!(
            (m.sweeps(), m.frames_swept()),
            (1, 2 * CHUNK as u64),
            "chunk 0 tested and skipped, stop after chunk 1"
        );
        // Now two (2, 41) lines; the second sits in the partial tail.
        m.set(4 * CHUNK + 9, 2, 41);
        assert_eq!(m.clamp_stale(2, 41), 3, "both plus chunk 1's fresh pin");
        assert_eq!(m.frames_swept(), 2 * CHUNK as u64 + m.len() as u64);
        assert_eq!(m.ts(4 * CHUNK + 9), 42);
    }

    #[test]
    fn clamp_stale_finds_matches_only_in_the_partial_tail() {
        let mut m = TagMeta::new(2 * CHUNK + 5);
        m.set(2 * CHUNK + 4, 0, 255);
        m.set(CHUNK, 1, 255); // same stamp, other partition: chunk tested
        assert_eq!(m.clamp_stale(0, 255), 1);
        assert_eq!(m.ts(2 * CHUNK + 4), 0, "pinned across the 255 -> 0 wrap");
        assert_eq!(m.ts(CHUNK), 255);
        assert_eq!(m.frames_swept(), m.len() as u64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The chunked early-exit clamp agrees with the whole-lane scalar
        /// sweep on lanes, return value and count index.
        #[test]
        fn clamp_stale_matches_the_scalar_sweep(
            lanes in prop::collection::vec((0u16..5, 0u16..12), 1..400),
            stamp in 0usize..4,
            target in 0u16..5,
            tail_only in 0u8..3,
        ) {
            // Stamps crowd around the aliasing stamp (and its 255 -> 0
            // wrap); partition code 4 is the unmanaged sentinel.
            let aliasing = [255u8, 0, 7, 128][stamp];
            let pid = |c: u16| if c == 4 { TAG_UNMANAGED } else { c };
            let part = pid(target);
            let n = lanes.len();
            let parts: Vec<u16> = lanes.iter().map(|&(p, _)| pid(p)).collect();
            let mut ts: Vec<u8> = lanes
                .iter()
                .map(|&(_, t)| match t {
                    0..=3 => aliasing,
                    4 => aliasing.wrapping_add(1),
                    5 => aliasing.wrapping_sub(1),
                    t => (t * 37) as u8,
                })
                .collect();
            if tail_only == 0 {
                // Matches only in the last partial chunk.
                for f in 0..n / CHUNK * CHUNK {
                    if parts[f] == part && ts[f] == aliasing {
                        ts[f] = aliasing.wrapping_add(2);
                    }
                }
            }
            let mut fast = TagMeta::new(n);
            fast.load_lanes(parts, ts);
            let mut slow = fast.clone();
            let got = fast.clamp_stale(part, aliasing);
            let want = slow.clamp_stale_scalar(part, aliasing);
            prop_assert_eq!(got, want);
            prop_assert_eq!(fast.ts_lane(), slow.ts_lane());
            prop_assert_eq!(fast.parts(), slow.parts());
            prop_assert_eq!(&fast.counts, &slow.counts);
            prop_assert!(fast.frames_swept() <= n as u64);
            prop_assert_eq!(fast.sweeps(), u64::from(want > 0));
        }
    }

    #[test]
    fn load_lanes_replaces_contents() {
        let mut m = TagMeta::new(3);
        m.load_lanes(vec![1, 2, TAG_UNMANAGED], vec![9, 8, 7]);
        assert_eq!(m.parts(), &[1, 2, TAG_UNMANAGED]);
        assert_eq!(m.ts_lane(), &[9, 8, 7]);
    }

    #[test]
    #[should_panic(expected = "partition lane length")]
    fn load_lanes_rejects_wrong_length() {
        TagMeta::new(3).load_lanes(vec![0; 2], vec![0; 3]);
    }
}
