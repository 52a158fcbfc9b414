//! Telemetry for partition dynamics: typed events, periodic samples, and
//! pluggable sinks.
//!
//! Vantage's argument is about *dynamics* — aperture feedback (Eq. 7),
//! setpoint adjustment every `c = 256` candidates, the unmanaged region
//! absorbing churn. This crate gives every
//! [`Llc`](../vantage_partitioning/trait.Llc.html) implementation a uniform,
//! low-overhead way to expose those trajectories:
//!
//! * [`TelemetryEvent`] — one discrete controller action (demotion,
//!   promotion, eviction, setpoint adjustment, aperture update, scrub).
//! * [`PartitionSample`] — one periodic per-partition snapshot (actual and
//!   target size, aperture, setpoint window, churn since the last sample);
//!   the unmanaged region reports as partition [`UNMANAGED_PART`].
//! * [`TelemetrySink`] — where records go: [`NullSink`] (drops everything;
//!   the zero-cost stand-in for "instrumentation wired but off"),
//!   [`RingSink`] (bounded in-memory ring with a shared [`RingReader`]),
//!   [`TraceSink`] (line-oriented trace files).
//! * [`Telemetry`] — the producer-side handle a cache embeds: it owns the
//!   sink, decides when samples are due, and meters per-partition churn so
//!   producers only report raw events.
//!
//! # Hot-path contract
//!
//! A cache with no telemetry installed ([`Telemetry::disabled`]) pays one
//! predictable null-check per instrumentation site and allocates nothing.
//! With a [`NullSink`] installed the cost adds one virtual call to an empty
//! body per *event* (events fire on misses, not per candidate), which the
//! `perf` harness pins to within 5% of the uninstrumented throughput. No
//! sink may allocate per record on the producer's path; [`RingSink`] uses a
//! preallocated ring and [`TraceSink`] renders into a reused line buffer
//! and writes through [`std::io::BufWriter`].
//!
//! # Trace formats
//!
//! Each record kind is described once, as a kind name and named fields in
//! output order, and both renderers walk that description. JSON Lines
//! ([`to_json_line`]) parses back via [`from_json_line`]; CSV
//! ([`to_csv_row`] under [`CSV_HEADER`]) is a write-only export.
//! [`TraceSink::create`] picks the format from the path's extension.
//!
//! # Example
//!
//! ```
//! use vantage_telemetry::{PartitionId, PartitionSample, RingSink, Telemetry, TelemetryEvent, TelemetryRecord};
//!
//! let (sink, reader) = RingSink::with_capacity(64);
//! let mut tele = Telemetry::new(Box::new(sink), 1024);
//! tele.bind(2);
//! tele.event(TelemetryEvent::Demotion { access: 7, part: PartitionId::from_index(1) });
//! assert_eq!(reader.len(), 1);
//! match reader.records()[0] {
//!     TelemetryRecord::Event(TelemetryEvent::Demotion { part, .. }) => assert_eq!(part.index(), 1),
//!     _ => unreachable!(),
//! }
//! ```

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

pub use vantage_cache::PartitionId;

/// The partition ID telemetry uses for the unmanaged region (matches
/// `vantage::UNMANAGED`).
pub const UNMANAGED_PART: PartitionId = PartitionId::UNMANAGED;

/// One discrete controller action.
///
/// `access` is the producing cache's access sequence number, the natural
/// time base for dynamics traces (simulated cycles are a simulator concept;
/// the cache sees accesses).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TelemetryEvent {
    /// A managed line left `part` for the unmanaged region
    /// (setpoint-based demotion, §4.2).
    Demotion {
        /// Access sequence number.
        access: u64,
        /// The partition that lost the line.
        part: PartitionId,
    },
    /// An unmanaged line rejoined `part` on a hit.
    Promotion {
        /// Access sequence number.
        access: u64,
        /// The partition that regained the line.
        part: PartitionId,
    },
    /// A resident line was evicted. `part` is the owner at eviction time
    /// ([`UNMANAGED_PART`] for the unmanaged region); `forced` marks an
    /// eviction taken from the managed region because no unmanaged or
    /// just-demoted candidate existed (the isolation-violation case).
    Eviction {
        /// Access sequence number.
        access: u64,
        /// Owning partition of the evicted line.
        part: PartitionId,
        /// Whether the eviction was forced from the managed region.
        forced: bool,
    },
    /// The feedback loop nudged `part`'s setpoint (once per `c`
    /// candidates). `direction` is +1 when the keep window widened (too
    /// many demotions), -1 when it tightened, 0 when on target; `window`
    /// is the keep window after the adjustment, in timestamp units.
    SetpointAdjust {
        /// Access sequence number.
        access: u64,
        /// The adjusted partition.
        part: PartitionId,
        /// +1 widened, -1 tightened, 0 unchanged.
        direction: i8,
        /// Keep window after the adjustment.
        window: u8,
    },
    /// `part`'s (implied) aperture changed — emitted alongside setpoint
    /// adjustments and on retargeting, with the Eq. 7 aperture at the
    /// partition's current size.
    ApertureUpdate {
        /// Access sequence number.
        access: u64,
        /// The partition whose aperture moved.
        part: PartitionId,
        /// The continuous aperture of Eq. 7 at the current actual size.
        aperture: f32,
    },
    /// A scrub pass ran; `repairs` is the total number of repairs it made
    /// (0 for a clean pass).
    Scrub {
        /// Access sequence number.
        access: u64,
        /// Repairs performed (tags + size registers + meters + setpoints).
        repairs: u64,
    },
    /// A partition came live (service-mode `create_partition`).
    PartitionCreated {
        /// Access sequence number.
        access: u64,
        /// The new partition's slot.
        part: PartitionId,
        /// The managed-region target it was granted, in lines.
        target: u64,
    },
    /// A partition was retired (service-mode `destroy_partition`); its
    /// lines drain into the unmanaged region via ordinary demotions, so no
    /// bulk-eviction events accompany this.
    PartitionDestroyed {
        /// Access sequence number.
        access: u64,
        /// The retired partition's slot.
        part: PartitionId,
    },
    /// `part` hit a line owned by another partition (the ownership layer's
    /// cross-partition sharing observation; never fires under
    /// `ShareMode::Replicate`, whose per-partition address salting keeps
    /// lookups disjoint).
    SharedHit {
        /// Access sequence number.
        access: u64,
        /// The accessing partition.
        part: PartitionId,
        /// The partition that owned the line at the time of the hit.
        owner: PartitionId,
    },
    /// A cross-partition hit transferred the line's ownership to the
    /// accessor (`ShareMode::Adopt` only). Always paired with a
    /// [`TelemetryEvent::SharedHit`] at the same access.
    OwnershipTransfer {
        /// Access sequence number.
        access: u64,
        /// The adopting partition (the line's new owner).
        part: PartitionId,
        /// The previous owner.
        from: PartitionId,
    },
    /// `part` installed a per-partition replica of a shared line
    /// (`ShareMode::Replicate` only).
    Replica {
        /// Access sequence number.
        access: u64,
        /// The partition that filled the replica.
        part: PartitionId,
    },
}

impl TelemetryEvent {
    /// The access sequence number the event was produced at.
    pub fn access(&self) -> u64 {
        match *self {
            Self::Demotion { access, .. }
            | Self::Promotion { access, .. }
            | Self::Eviction { access, .. }
            | Self::SetpointAdjust { access, .. }
            | Self::ApertureUpdate { access, .. }
            | Self::Scrub { access, .. }
            | Self::PartitionCreated { access, .. }
            | Self::PartitionDestroyed { access, .. }
            | Self::SharedHit { access, .. }
            | Self::OwnershipTransfer { access, .. }
            | Self::Replica { access, .. } => access,
        }
    }

    /// The partition the event concerns ([`UNMANAGED_PART`] where that is
    /// the unmanaged region; `None` for cache-wide events like scrubs).
    pub fn part(&self) -> Option<PartitionId> {
        match *self {
            Self::Demotion { part, .. }
            | Self::Promotion { part, .. }
            | Self::Eviction { part, .. }
            | Self::SetpointAdjust { part, .. }
            | Self::ApertureUpdate { part, .. }
            | Self::PartitionCreated { part, .. }
            | Self::PartitionDestroyed { part, .. }
            | Self::SharedHit { part, .. }
            | Self::OwnershipTransfer { part, .. }
            | Self::Replica { part, .. } => Some(part),
            Self::Scrub { .. } => None,
        }
    }
}

/// One periodic per-partition snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionSample {
    /// Access sequence number of the sampling point.
    pub access: u64,
    /// Partition ID ([`UNMANAGED_PART`] for the unmanaged region).
    pub part: PartitionId,
    /// Lines the partition currently holds.
    pub actual: u64,
    /// The partition's target in lines (0 when the scheme keeps none).
    pub target: u64,
    /// The continuous Eq. 7 aperture at `actual` (0 for schemes without
    /// apertures).
    pub aperture: f32,
    /// The setpoint keep window in timestamp units (0 for schemes without
    /// setpoints).
    pub window: u8,
    /// Lines the partition lost (demotion or eviction) since the previous
    /// sample — the empirical churn rate over one sampling period.
    pub churn: u64,
    /// Cross-partition hits made by this partition at the sampling point
    /// (the ownership layer's counter, which resets when stats are
    /// drained; 0 for non-sharing workloads). Rendered into the structured
    /// detail column only when nonzero, so zero-sharing traces are
    /// byte-identical to pre-ownership-layer ones.
    pub shared: u64,
    /// Ownership transfers to this partition at the sampling point
    /// (nonzero only under `ShareMode::Adopt`; same reset and rendering
    /// rules as `shared`).
    pub transfers: u64,
}

/// A record: either a discrete event or a periodic sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TelemetryRecord {
    /// A discrete controller action.
    Event(TelemetryEvent),
    /// A periodic per-partition snapshot.
    Sample(PartitionSample),
}

impl TelemetryRecord {
    /// The record's access sequence number.
    pub fn access(&self) -> u64 {
        match self {
            Self::Event(e) => e.access(),
            Self::Sample(s) => s.access,
        }
    }
}

/// A destination for telemetry records.
///
/// Sinks must not allocate per record on `record_*` (the producer may sit on
/// a cache's miss path); buffered backends allocate at construction and on
/// `flush`.
pub trait TelemetrySink: Send {
    /// Records one discrete event.
    fn record_event(&mut self, ev: &TelemetryEvent);
    /// Records one periodic sample.
    fn record_sample(&mut self, s: &PartitionSample);
    /// Flushes buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}
    /// The first I/O error this sink has absorbed, if any.
    ///
    /// File sinks cannot propagate errors from the record path (it may sit
    /// on a cache's miss path), so they record the first failure here
    /// instead of silently dropping it; callers check after [`flush`]
    /// (Self::flush) to learn whether the trace on disk is complete.
    /// In-memory sinks never error.
    fn io_error(&self) -> Option<String> {
        None
    }
    /// Tags subsequently recorded records as coming from bank `bank` of a
    /// multi-banked cache (`None` clears the tag).
    ///
    /// Default is a no-op: in-memory sinks keep records untagged so traces
    /// from a sharded run compare record-for-record with a serial run.
    /// [`TraceSink`] appends the tag as one more field (`bank=N` in the CSV
    /// `detail` column, a `"bank"` key in JSON), which [`from_json_line`]
    /// ignores.
    fn set_bank(&mut self, _bank: Option<u16>) {}
}

/// A cloneable sink wrapper that serializes several producers into one
/// underlying sink.
///
/// A banked cache hands each bank a [`SharedSink::with_bank`] clone; every
/// record funnels through one mutex into the shared backend, tagged with the
/// recording bank via [`TelemetrySink::set_bank`] (taken under the same lock,
/// so tags cannot interleave). Record order *across* banks follows execution
/// order, which a parallel engine does not make deterministic — consumers
/// comparing sharded against serial traces should compare multisets, or
/// group by the bank tag.
pub struct SharedSink {
    inner: Arc<Mutex<Box<dyn TelemetrySink>>>,
    bank: Option<u16>,
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSink")
            .field("bank", &self.bank)
            .field("handles", &Arc::strong_count(&self.inner))
            .finish()
    }
}

impl SharedSink {
    /// Wraps `inner` for sharing. The wrapper itself records untagged;
    /// producers get tagged handles from [`SharedSink::with_bank`].
    pub fn new(inner: Box<dyn TelemetrySink>) -> Self {
        Self {
            inner: Arc::new(Mutex::new(inner)),
            bank: None,
        }
    }

    /// A handle onto the same backend whose records are tagged `bank`.
    pub fn with_bank(&self, bank: u16) -> Self {
        Self {
            inner: self.inner.clone(),
            bank: Some(bank),
        }
    }

    /// Recovers the wrapped sink once every clone has been dropped.
    ///
    /// # Errors
    ///
    /// Returns `self` unchanged while other handles are still alive.
    pub fn try_unwrap(self) -> Result<Box<dyn TelemetrySink>, Self> {
        let bank = self.bank;
        match Arc::try_unwrap(self.inner) {
            Ok(m) => Ok(m
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)),
            Err(inner) => Err(Self { inner, bank }),
        }
    }

    fn with_lock(&self, f: impl FnOnce(&mut Box<dyn TelemetrySink>)) {
        // A producer that panicked mid-record leaves a poisoned (but
        // structurally sound) sink; keep collecting from the others.
        let mut g = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        g.set_bank(self.bank);
        f(&mut g);
    }
}

impl TelemetrySink for SharedSink {
    fn record_event(&mut self, ev: &TelemetryEvent) {
        self.with_lock(|s| s.record_event(ev));
    }
    fn record_sample(&mut self, s: &PartitionSample) {
        self.with_lock(|sink| sink.record_sample(s));
    }
    fn flush(&mut self) {
        self.with_lock(|s| s.flush());
    }
    fn io_error(&self) -> Option<String> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .io_error()
    }
    fn set_bank(&mut self, bank: Option<u16>) {
        self.bank = bank;
    }
}

/// The zero-cost sink: drops everything. Installing it exercises the whole
/// instrumentation path (the `perf` harness's overhead guard) without
/// retaining records.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    #[inline]
    fn record_event(&mut self, _ev: &TelemetryEvent) {}
    #[inline]
    fn record_sample(&mut self, _s: &PartitionSample) {}
}

/// Shared ring storage behind [`RingSink`]/[`RingReader`].
#[derive(Debug)]
struct Ring {
    buf: VecDeque<TelemetryRecord>,
    cap: usize,
    /// Records dropped from the front after the ring filled.
    overwritten: u64,
}

/// A bounded in-memory sink: keeps the most recent `capacity` records,
/// overwriting the oldest. Reads go through the [`RingReader`] handle
/// returned by [`RingSink::with_capacity`], which stays usable after the
/// sink has been moved into a cache.
#[derive(Debug)]
pub struct RingSink {
    ring: Arc<Mutex<Ring>>,
}

/// A read handle onto a [`RingSink`]'s storage.
#[derive(Clone, Debug)]
pub struct RingReader {
    ring: Arc<Mutex<Ring>>,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` records (at least 1) and
    /// its read handle.
    pub fn with_capacity(capacity: usize) -> (Self, RingReader) {
        let cap = capacity.max(1);
        let ring = Arc::new(Mutex::new(Ring {
            buf: VecDeque::with_capacity(cap),
            cap,
            overwritten: 0,
        }));
        (Self { ring: ring.clone() }, RingReader { ring })
    }

    fn push(&self, rec: TelemetryRecord) {
        // The mutex is uncontended in the single-producer case; a poisoned
        // lock (reader panicked mid-inspection) still accepts records.
        let mut ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            ring.overwritten += 1;
        }
        ring.buf.push_back(rec);
    }
}

impl TelemetrySink for RingSink {
    fn record_event(&mut self, ev: &TelemetryEvent) {
        self.push(TelemetryRecord::Event(*ev));
    }
    fn record_sample(&mut self, s: &PartitionSample) {
        self.push(TelemetryRecord::Sample(*s));
    }
}

impl RingReader {
    /// A snapshot of the retained records, oldest first.
    pub fn records(&self) -> Vec<TelemetryRecord> {
        let ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ring.buf.iter().copied().collect()
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .buf
            .len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped from the front since creation (0 until the ring
    /// first fills).
    pub fn overwritten(&self) -> u64 {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .overwritten
    }
}

/// The CSV header a CSV [`TraceSink`] writes before its first row (one
/// fixed schema covering events and samples; unused columns are empty).
pub const CSV_HEADER: &str = "record,access,part,actual,target,aperture,window,churn,detail";

/// The fixed CSV columns between `record` and `detail`.
const CSV_COLUMNS: usize = 7;

/// The two trace formats.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    Csv,
    JsonLines,
}

/// One field value. The renderers differ only in how they spell a
/// partition: CSV by its `Display` form (`unmanaged` for the sentinel),
/// JSON by its raw id.
#[derive(Clone, Copy)]
enum Value {
    Uint(u64),
    Int(i8),
    Real(f32),
    Bool(bool),
    Part(PartitionId),
}

impl Value {
    fn write(self, out: &mut String, format: Format) {
        let _ = match self {
            Value::Uint(v) => write!(out, "{v}"),
            Value::Int(v) => write!(out, "{v}"),
            Value::Real(v) => write!(out, "{v:.6}"),
            Value::Bool(v) => write!(out, "{v}"),
            Value::Part(p) if format == Format::Csv => write!(out, "{p}"),
            Value::Part(p) => write!(out, "{}", p.raw()),
        };
    }
}

/// A record laid out for rendering: its kind name and named fields in
/// output order, `access` first. The first `columns` fields fill the CSV
/// columns after `record`; the rest go `k=v;`-joined into `detail`. JSON
/// writes them all, in the same order, as one flat object.
struct Fields {
    kind: &'static str,
    columns: usize,
    len: usize,
    /// Room for the widest record: a sharing sample's nine fields plus a
    /// [`TraceSink`] bank tag.
    list: [(&'static str, Value); 10],
}

impl Fields {
    fn new(kind: &'static str, access: u64) -> Self {
        let f = Self {
            kind,
            columns: 0,
            len: 0,
            list: [("", Value::Uint(0)); 10],
        };
        f.column("access", Value::Uint(access))
    }

    fn column(mut self, name: &'static str, v: Value) -> Self {
        debug_assert_eq!(self.columns, self.len, "columns precede details");
        self.columns += 1;
        self.detail(name, v)
    }

    fn detail(mut self, name: &'static str, v: Value) -> Self {
        self.list[self.len] = (name, v);
        self.len += 1;
        self
    }

    /// Appends the record to `out` in `format` (no newline).
    fn render(&self, format: Format, out: &mut String) {
        let fields = &self.list[..self.len];
        if format == Format::JsonLines {
            out.extend(["{\"record\":\"", self.kind, "\""]);
            for &(name, v) in fields {
                out.extend([",\"", name, "\":"]);
                v.write(out, format);
            }
            out.push('}');
            return;
        }
        out.push_str(self.kind);
        let (columns, detail) = fields.split_at(self.columns);
        for i in 0..CSV_COLUMNS {
            out.push(',');
            if let Some(&(_, v)) = columns.get(i) {
                v.write(out, format);
            }
        }
        out.push(',');
        for (i, &(name, v)) in detail.iter().enumerate() {
            out.extend([if i > 0 { ";" } else { "" }, name, "="]);
            v.write(out, format);
        }
    }
}

/// The schema walk: each record kind spelled once, for both renderers.
fn fields(rec: &TelemetryRecord) -> Fields {
    use Value::{Bool, Int, Part, Real, Uint};
    let ev = match *rec {
        TelemetryRecord::Sample(s) => {
            let f = Fields::new("sample", s.access)
                .column("part", Part(s.part))
                .column("actual", Uint(s.actual))
                .column("target", Uint(s.target))
                .column("aperture", Real(s.aperture))
                .column("window", Uint(s.window.into()))
                .column("churn", Uint(s.churn));
            // Sharing counters only when nonzero, so zero-sharing traces stay
            // byte-identical to pre-ownership-layer ones (golden digests).
            return if s.shared != 0 || s.transfers != 0 {
                f.detail("shared", Uint(s.shared))
                    .detail("transfers", Uint(s.transfers))
            } else {
                f
            };
        }
        TelemetryRecord::Event(ev) => ev,
    };
    let event = |kind| {
        let f = Fields::new(kind, ev.access());
        match ev.part() {
            Some(p) => f.column("part", Part(p)),
            None => f,
        }
    };
    match ev {
        TelemetryEvent::Demotion { .. } => event("demotion"),
        TelemetryEvent::Promotion { .. } => event("promotion"),
        TelemetryEvent::Eviction { forced, .. } => event("eviction").detail("forced", Bool(forced)),
        TelemetryEvent::SetpointAdjust {
            direction, window, ..
        } => event("setpoint")
            .detail("direction", Int(direction))
            .detail("window", Uint(window.into())),
        TelemetryEvent::ApertureUpdate { aperture, .. } => {
            event("aperture").detail("aperture", Real(aperture))
        }
        TelemetryEvent::Scrub { repairs, .. } => event("scrub").detail("repairs", Uint(repairs)),
        TelemetryEvent::PartitionCreated { target, .. } => {
            event("created").detail("target", Uint(target))
        }
        TelemetryEvent::PartitionDestroyed { .. } => event("destroyed"),
        TelemetryEvent::SharedHit { owner, .. } => event("shared_hit").detail("owner", Part(owner)),
        TelemetryEvent::OwnershipTransfer { from, .. } => {
            event("transfer").detail("from", Part(from))
        }
        TelemetryEvent::Replica { .. } => event("replica"),
    }
}

/// Renders one record as a CSV row under [`CSV_HEADER`] (no newline). CSV
/// is a write-only export; JSON Lines is the format that parses back.
pub fn to_csv_row(rec: &TelemetryRecord) -> String {
    let mut s = String::with_capacity(64);
    fields(rec).render(Format::Csv, &mut s);
    s
}

/// Renders one record as a JSON object on a single line (JSON Lines; the
/// workspace is offline and vendors no serde, so the schema is flat
/// key-value with string and number values only).
pub fn to_json_line(rec: &TelemetryRecord) -> String {
    let mut s = String::with_capacity(96);
    fields(rec).render(Format::JsonLines, &mut s);
    s
}

/// Parses one flat JSON object (as produced by [`to_json_line`]) back into
/// a record; `None` on malformed input. Keys the record kind does not use,
/// such as a [`TraceSink`]'s `bank` tag, are ignored. Apertures come back
/// at the six decimals they were written with.
pub fn from_json_line(line: &str) -> Option<TelemetryRecord> {
    fn get<T: FromStr>(map: &HashMap<&str, &str>, key: &str) -> Option<T> {
        map.get(key)?.parse().ok()
    }
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut map = HashMap::new();
    for kv in body.split(',') {
        let (k, v) = kv.split_once(':')?;
        let k = k.trim().strip_prefix('"')?.strip_suffix('"')?;
        map.insert(k, v.trim().trim_matches('"'));
    }
    let access = get(&map, "access")?;
    let part = |key| get(&map, key).map(PartitionId::from_raw);
    let ev = match *map.get("record")? {
        "sample" => {
            return Some(TelemetryRecord::Sample(PartitionSample {
                access,
                part: part("part")?,
                actual: get(&map, "actual")?,
                target: get(&map, "target")?,
                aperture: get(&map, "aperture")?,
                window: get(&map, "window")?,
                churn: get(&map, "churn")?,
                // Absent keys mean a zero-sharing sample.
                shared: get(&map, "shared").unwrap_or(0),
                transfers: get(&map, "transfers").unwrap_or(0),
            }));
        }
        "demotion" => TelemetryEvent::Demotion {
            access,
            part: part("part")?,
        },
        "promotion" => TelemetryEvent::Promotion {
            access,
            part: part("part")?,
        },
        "eviction" => TelemetryEvent::Eviction {
            access,
            part: part("part")?,
            forced: get(&map, "forced")?,
        },
        "setpoint" => TelemetryEvent::SetpointAdjust {
            access,
            part: part("part")?,
            direction: get(&map, "direction")?,
            window: get(&map, "window")?,
        },
        "aperture" => TelemetryEvent::ApertureUpdate {
            access,
            part: part("part")?,
            aperture: get(&map, "aperture")?,
        },
        "scrub" => TelemetryEvent::Scrub {
            access,
            repairs: get(&map, "repairs")?,
        },
        "created" => TelemetryEvent::PartitionCreated {
            access,
            part: part("part")?,
            target: get(&map, "target")?,
        },
        "destroyed" => TelemetryEvent::PartitionDestroyed {
            access,
            part: part("part")?,
        },
        "shared_hit" => TelemetryEvent::SharedHit {
            access,
            part: part("part")?,
            owner: part("owner")?,
        },
        "transfer" => TelemetryEvent::OwnershipTransfer {
            access,
            part: part("part")?,
            from: part("from")?,
        },
        "replica" => TelemetryEvent::Replica {
            access,
            part: part("part")?,
        },
        _ => return None,
    };
    Some(TelemetryRecord::Event(ev))
}

/// A line-oriented trace file sink, one record per line. The path picks the
/// format (see [`TraceSink::create`]); a CSV trace starts with
/// [`CSV_HEADER`].
pub struct TraceSink<W: Write + Send> {
    w: W,
    format: Format,
    /// Written before the first record, then cleared.
    header: Option<&'static str>,
    bank: Option<u16>,
    /// Render buffer reused across records.
    line: String,
    err: Option<std::io::Error>,
}

impl TraceSink<BufWriter<File>> {
    /// Creates (truncating) a trace file at `path`: CSV when the extension
    /// is `.csv` in any letter case, JSON Lines otherwise (no extension
    /// included).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let format = match path.extension() {
            Some(e) if e.eq_ignore_ascii_case("csv") => Format::Csv,
            _ => Format::JsonLines,
        };
        Ok(Self::new(BufWriter::new(File::create(path)?), format))
    }
}

impl<W: Write + Send> TraceSink<W> {
    fn new(w: W, format: Format) -> Self {
        Self {
            w,
            format,
            header: (format == Format::Csv).then_some(CSV_HEADER),
            bank: None,
            line: String::with_capacity(128),
            err: None,
        }
    }

    /// Remembers the first I/O failure (later ones are usually cascades).
    fn note(&mut self, r: std::io::Result<()>) {
        if let (Err(e), None) = (r, &self.err) {
            self.err = Some(e);
        }
    }

    fn write_record(&mut self, rec: &TelemetryRecord) {
        // Telemetry is observability, not ground truth: I/O errors drop the
        // record rather than unwinding into the cache's miss path — but the
        // first one is kept so `io_error` can report the trace incomplete.
        if let Some(header) = self.header.take() {
            let r = writeln!(self.w, "{header}");
            self.note(r);
        }
        let mut f = fields(rec);
        if let Some(b) = self.bank {
            f = f.detail("bank", Value::Uint(b.into()));
        }
        self.line.clear();
        f.render(self.format, &mut self.line);
        self.line.push('\n');
        let r = self.w.write_all(self.line.as_bytes());
        self.note(r);
    }
}

impl<W: Write + Send> TelemetrySink for TraceSink<W> {
    fn record_event(&mut self, ev: &TelemetryEvent) {
        self.write_record(&TelemetryRecord::Event(*ev));
    }
    fn record_sample(&mut self, s: &PartitionSample) {
        self.write_record(&TelemetryRecord::Sample(*s));
    }
    fn flush(&mut self) {
        let r = self.w.flush();
        self.note(r);
    }
    fn io_error(&self) -> Option<String> {
        self.err.as_ref().map(|e| e.to_string())
    }
    fn set_bank(&mut self, bank: Option<u16>) {
        self.bank = bank;
    }
}

impl<W: Write + Send> Drop for TraceSink<W> {
    fn drop(&mut self) {
        // `BufWriter`'s own drop flushes but swallows the error; flush
        // explicitly and say so when the trace lost data.
        TelemetrySink::flush(self);
        if let Some(e) = &self.err {
            eprintln!("telemetry: trace lost data: {e}");
        }
    }
}

/// Default sampling period (accesses between per-partition snapshots).
pub const DEFAULT_SAMPLE_PERIOD: u64 = 4096;

/// The producer-side telemetry handle a cache embeds.
///
/// Owns the sink, schedules periodic samples, and meters per-partition
/// churn from the event stream so producers report raw events only. All
/// hot-path entry points reduce to one predictable branch when disabled.
pub struct Telemetry {
    sink: Option<Box<dyn TelemetrySink>>,
    sample_period: u64,
    next_sample: u64,
    /// Lines lost per partition since the last sample; index
    /// `num_partitions` holds the unmanaged region.
    churn: Vec<u64>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.sink.is_some())
            .field("sample_period", &self.sample_period)
            .finish()
    }
}

impl Telemetry {
    /// No sink: every entry point is a single null-check.
    pub fn disabled() -> Self {
        Self {
            sink: None,
            sample_period: DEFAULT_SAMPLE_PERIOD,
            next_sample: u64::MAX,
            churn: Vec::new(),
        }
    }

    /// Wraps `sink`, emitting samples every `sample_period` accesses (0
    /// falls back to [`DEFAULT_SAMPLE_PERIOD`]).
    pub fn new(sink: Box<dyn TelemetrySink>, sample_period: u64) -> Self {
        let period = if sample_period == 0 {
            DEFAULT_SAMPLE_PERIOD
        } else {
            sample_period
        };
        Self {
            sink: Some(sink),
            sample_period: period,
            next_sample: period,
            churn: Vec::new(),
        }
    }

    /// Sizes the churn meters for `partitions` partitions (+1 slot for the
    /// unmanaged region, always the last index). Caches call this at
    /// installation and again when `create_partition` grows the slot table;
    /// rebinding is grow-only and keeps accumulated meters (the unmanaged
    /// slot migrates to the new tail), so mid-period lifecycle changes do
    /// not lose churn. Events for out-of-range partitions are still
    /// recorded, just not churn-metered.
    pub fn bind(&mut self, partitions: usize) {
        let want = partitions + 1;
        if self.churn.is_empty() {
            self.churn = vec![0; want];
        } else if want > self.churn.len() {
            let um = self.churn.pop().unwrap_or(0);
            self.churn.resize(want - 1, 0);
            self.churn.push(um);
        }
    }

    /// Whether a sink is installed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The first I/O error the sink has absorbed, if any (see
    /// [`TelemetrySink::io_error`]). Check after [`Self::flush`] to learn
    /// whether the trace on disk is complete.
    pub fn io_error(&self) -> Option<String> {
        self.sink.as_ref().and_then(|s| s.io_error())
    }

    /// The sampling period in accesses.
    pub fn sample_period(&self) -> u64 {
        self.sample_period
    }

    /// Records one event, metering demotions and evictions into the
    /// per-partition churn counters.
    #[inline]
    pub fn event(&mut self, ev: TelemetryEvent) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        match ev {
            TelemetryEvent::Demotion { part, .. } | TelemetryEvent::Eviction { part, .. } => {
                let idx = if part.is_unmanaged() {
                    self.churn.len().saturating_sub(1)
                } else {
                    part.index()
                };
                if let Some(c) = self.churn.get_mut(idx) {
                    *c += 1;
                }
            }
            _ => {}
        }
        sink.record_event(&ev);
    }

    /// Whether a sampling point has been reached at `access`. When it
    /// returns `true` the producer must emit one [`PartitionSample`] per
    /// partition (via [`Self::sample`]) — the schedule advances here.
    #[inline]
    pub fn sample_due(&mut self, access: u64) -> bool {
        match self.sink {
            None => false,
            Some(_) => {
                if access < self.next_sample {
                    return false;
                }
                // Skip missed points rather than bursting to catch up.
                let periods = access / self.sample_period + 1;
                self.next_sample = periods * self.sample_period;
                true
            }
        }
    }

    /// Records one sample. The caller fills everything but `churn`, which
    /// is taken (and reset) from the event-derived meter for `part`.
    pub fn sample(&mut self, mut s: PartitionSample) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let idx = if s.part.is_unmanaged() {
            self.churn.len().saturating_sub(1)
        } else {
            s.part.index()
        };
        if let Some(c) = self.churn.get_mut(idx) {
            s.churn = *c;
            *c = 0;
        }
        sink.record_sample(&s);
    }

    /// Flushes the sink's buffered output.
    pub fn flush(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            sink.flush();
        }
    }

    /// Splits the handle into its sink (if any) and sample period, e.g. so
    /// a banked cache can wrap the sink in a [`SharedSink`] and rebuild one
    /// `Telemetry` per bank with the same period. No flush happens here; the
    /// sink keeps its buffered state.
    pub fn into_parts(mut self) -> (Option<Box<dyn TelemetrySink>>, u64) {
        (self.sink.take(), self.sample_period)
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        self.flush();
    }
}

impl vantage_snapshot::Snapshot for Telemetry {
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        // The sink itself (file handles, rings) cannot be serialized; what
        // makes a resumed trace bit-identical is the sampling schedule and
        // the churn meters, which carry across a checkpoint boundary.
        enc.put_bool(self.sink.is_some());
        enc.put_u64(self.sample_period);
        enc.put_u64(self.next_sample);
        enc.put_u64_slice(&self.churn);
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        let was_enabled = dec.take_bool()?;
        let period = dec.take_u64()?;
        let next = dec.take_u64()?;
        let churn = dec.take_u64_vec()?;
        if period == 0 {
            return Err(dec.invalid("zero telemetry sample period"));
        }
        // The restored schedule only applies if the resuming run installed a
        // sink again (the sink is reinstalled out-of-band, before restore);
        // a disabled handle stays inert regardless of what the saver had.
        if self.sink.is_some() && was_enabled {
            self.sample_period = period;
            self.next_sample = next;
            self.churn = churn;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(access: u64, part: PartitionId) -> PartitionSample {
        PartitionSample {
            access,
            part,
            actual: 100 + u64::from(part.raw()),
            target: 128,
            aperture: 0.25,
            window: 90,
            churn: 0,
            shared: 0,
            transfers: 0,
        }
    }

    fn representative_records() -> Vec<TelemetryRecord> {
        vec![
            TelemetryRecord::Sample(sample(4096, PartitionId::from_index(0))),
            TelemetryRecord::Sample(sample(4096, UNMANAGED_PART)),
            TelemetryRecord::Event(TelemetryEvent::Demotion {
                access: 1,
                part: PartitionId::from_index(3),
            }),
            TelemetryRecord::Event(TelemetryEvent::Promotion {
                access: 2,
                part: PartitionId::from_index(0),
            }),
            TelemetryRecord::Event(TelemetryEvent::Eviction {
                access: 3,
                part: UNMANAGED_PART,
                forced: false,
            }),
            TelemetryRecord::Event(TelemetryEvent::Eviction {
                access: 4,
                part: PartitionId::from_index(1),
                forced: true,
            }),
            TelemetryRecord::Event(TelemetryEvent::SetpointAdjust {
                access: 5,
                part: PartitionId::from_index(2),
                direction: -1,
                window: 127,
            }),
            TelemetryRecord::Event(TelemetryEvent::ApertureUpdate {
                access: 6,
                part: PartitionId::from_index(2),
                aperture: 0.5,
            }),
            TelemetryRecord::Event(TelemetryEvent::Scrub {
                access: 7,
                repairs: 9,
            }),
            TelemetryRecord::Event(TelemetryEvent::PartitionCreated {
                access: 8,
                part: PartitionId::from_index(40),
                target: 2048,
            }),
            TelemetryRecord::Event(TelemetryEvent::PartitionDestroyed {
                access: 9,
                part: PartitionId::from_index(40),
            }),
            TelemetryRecord::Event(TelemetryEvent::SharedHit {
                access: 10,
                part: PartitionId::from_index(1),
                owner: PartitionId::from_index(2),
            }),
            TelemetryRecord::Event(TelemetryEvent::OwnershipTransfer {
                access: 10,
                part: PartitionId::from_index(1),
                from: PartitionId::from_index(2),
            }),
            TelemetryRecord::Event(TelemetryEvent::Replica {
                access: 11,
                part: PartitionId::from_index(3),
            }),
            TelemetryRecord::Sample(PartitionSample {
                shared: 17,
                transfers: 4,
                ..sample(8192, PartitionId::from_index(1))
            }),
        ]
    }

    #[test]
    fn ring_wraps_and_counts_overwrites() {
        let (mut sink, reader) = RingSink::with_capacity(4);
        for i in 0..10u64 {
            sink.record_event(&TelemetryEvent::Demotion {
                access: i,
                part: PartitionId::from_index(0),
            });
        }
        assert_eq!(reader.len(), 4);
        assert_eq!(reader.overwritten(), 6);
        let recs = reader.records();
        // Oldest-first: accesses 6..10 survive.
        let accesses: Vec<u64> = recs.iter().map(TelemetryRecord::access).collect();
        assert_eq!(accesses, vec![6, 7, 8, 9]);
        assert!(!reader.is_empty());
    }

    /// The exact CSV row and JSON line of each [`representative_records`]
    /// entry, in order. Traces and the golden digests depend on these
    /// bytes, so any change to them must be deliberate.
    const PINNED: [(&str, &str); 15] = [
        (
            "sample,4096,0,100,128,0.250000,90,0,",
            r#"{"record":"sample","access":4096,"part":0,"actual":100,"target":128,"aperture":0.250000,"window":90,"churn":0}"#,
        ),
        (
            "sample,4096,unmanaged,65635,128,0.250000,90,0,",
            r#"{"record":"sample","access":4096,"part":65535,"actual":65635,"target":128,"aperture":0.250000,"window":90,"churn":0}"#,
        ),
        (
            "demotion,1,3,,,,,,",
            r#"{"record":"demotion","access":1,"part":3}"#,
        ),
        (
            "promotion,2,0,,,,,,",
            r#"{"record":"promotion","access":2,"part":0}"#,
        ),
        (
            "eviction,3,unmanaged,,,,,,forced=false",
            r#"{"record":"eviction","access":3,"part":65535,"forced":false}"#,
        ),
        (
            "eviction,4,1,,,,,,forced=true",
            r#"{"record":"eviction","access":4,"part":1,"forced":true}"#,
        ),
        (
            "setpoint,5,2,,,,,,direction=-1;window=127",
            r#"{"record":"setpoint","access":5,"part":2,"direction":-1,"window":127}"#,
        ),
        (
            "aperture,6,2,,,,,,aperture=0.500000",
            r#"{"record":"aperture","access":6,"part":2,"aperture":0.500000}"#,
        ),
        (
            "scrub,7,,,,,,,repairs=9",
            r#"{"record":"scrub","access":7,"repairs":9}"#,
        ),
        (
            "created,8,40,,,,,,target=2048",
            r#"{"record":"created","access":8,"part":40,"target":2048}"#,
        ),
        (
            "destroyed,9,40,,,,,,",
            r#"{"record":"destroyed","access":9,"part":40}"#,
        ),
        (
            "shared_hit,10,1,,,,,,owner=2",
            r#"{"record":"shared_hit","access":10,"part":1,"owner":2}"#,
        ),
        (
            "transfer,10,1,,,,,,from=2",
            r#"{"record":"transfer","access":10,"part":1,"from":2}"#,
        ),
        (
            "replica,11,3,,,,,,",
            r#"{"record":"replica","access":11,"part":3}"#,
        ),
        (
            "sample,8192,1,101,128,0.250000,90,0,shared=17;transfers=4",
            r#"{"record":"sample","access":8192,"part":1,"actual":101,"target":128,"aperture":0.250000,"window":90,"churn":0,"shared":17,"transfers":4}"#,
        ),
    ];

    #[test]
    fn renderers_write_the_pinned_bytes_for_every_record_kind() {
        let records = representative_records();
        assert_eq!(records.len(), PINNED.len());
        for (rec, (csv, json)) in records.iter().zip(PINNED) {
            assert_eq!(to_csv_row(rec), csv, "CSV row of {rec:?}");
            assert_eq!(to_json_line(rec), json, "JSON line of {rec:?}");
        }
    }

    #[test]
    fn json_round_trips_every_record_kind() {
        for rec in representative_records() {
            let line = to_json_line(&rec);
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            let back = from_json_line(&line).unwrap_or_else(|| panic!("parse {line}"));
            assert_eq!(back, rec, "round trip of {line}");
        }
        assert_eq!(from_json_line("not json"), None);
        assert_eq!(from_json_line("{\"record\":\"bogus\",\"access\":1}"), None);
    }

    #[test]
    fn csv_sink_writes_header_then_rows() {
        let mut sink = TraceSink::new(Vec::new(), Format::Csv);
        sink.record_event(&TelemetryEvent::Demotion {
            access: 1,
            part: PartitionId::from_index(0),
        });
        sink.record_sample(&sample(2, PartitionId::from_index(1)));
        sink.flush();
        let text = String::from_utf8(sink.w.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                CSV_HEADER,
                "demotion,1,0,,,,,,",
                "sample,2,1,101,128,0.250000,90,0,"
            ]
        );
    }

    #[test]
    fn trace_sink_format_follows_the_path_extension() {
        let dir = std::env::temp_dir().join(format!("vantage-trace-format-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, want) in [
            ("x.csv", Format::Csv),
            ("x.CSV", Format::Csv),
            ("x.json", Format::JsonLines),
            ("x.jsonl", Format::JsonLines),
            ("x", Format::JsonLines),
        ] {
            let path = dir.join(name);
            let mut sink = TraceSink::create(&path).unwrap();
            sink.record_event(&TelemetryEvent::Scrub {
                access: 1,
                repairs: 0,
            });
            drop(sink);
            let text = std::fs::read_to_string(&path).unwrap();
            let expected = match want {
                Format::Csv => format!("{CSV_HEADER}\nscrub,1,,,,,,,repairs=0\n"),
                Format::JsonLines => "{\"record\":\"scrub\",\"access\":1,\"repairs\":0}\n".into(),
            };
            assert_eq!(text, expected, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A writer that fails every operation (for the error-surfacing tests).
    struct BrokenPipe;

    impl Write for BrokenPipe {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipe closed",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "pipe closed",
            ))
        }
    }

    #[test]
    fn file_sinks_surface_io_errors_instead_of_swallowing_them() {
        let mut sink = TraceSink::new(BrokenPipe, Format::Csv);
        assert_eq!(sink.io_error(), None);
        sink.record_event(&TelemetryEvent::Demotion {
            access: 1,
            part: PartitionId::from_index(0),
        });
        let err = sink.io_error().expect("write failure surfaced");
        assert!(err.contains("pipe closed"), "{err}");

        let mut sink = TraceSink::new(BrokenPipe, Format::JsonLines);
        sink.flush();
        assert!(sink
            .io_error()
            .expect("flush failure surfaced")
            .contains("pipe closed"));

        // The producer handle forwards the sink's sticky error.
        let mut tele = Telemetry::new(Box::new(TraceSink::new(BrokenPipe, Format::Csv)), 0);
        tele.event(TelemetryEvent::Scrub {
            access: 1,
            repairs: 0,
        });
        tele.flush();
        assert!(tele.io_error().is_some());

        // A shared (banked) wrapper forwards it too.
        let shared = SharedSink::new(Box::new(TraceSink::new(BrokenPipe, Format::JsonLines)));
        let mut tagged = shared.with_bank(3);
        tagged.record_event(&TelemetryEvent::Demotion {
            access: 2,
            part: PartitionId::from_index(1),
        });
        assert!(tagged.io_error().is_some());

        // In-memory sinks never error.
        let (ring, _reader) = RingSink::with_capacity(4);
        assert_eq!(ring.io_error(), None);
    }

    #[test]
    fn json_sink_emits_one_object_per_line() {
        let mut sink = TraceSink::new(Vec::new(), Format::JsonLines);
        for rec in representative_records() {
            match rec {
                TelemetryRecord::Event(ev) => sink.record_event(&ev),
                TelemetryRecord::Sample(s) => sink.record_sample(&s),
            }
        }
        sink.flush();
        let text = String::from_utf8(sink.w.clone()).unwrap();
        let parsed: Vec<TelemetryRecord> = text.lines().filter_map(from_json_line).collect();
        assert_eq!(parsed, representative_records());
    }

    #[test]
    fn telemetry_meters_churn_per_partition() {
        let (sink, reader) = RingSink::with_capacity(64);
        let mut tele = Telemetry::new(Box::new(sink), 8);
        tele.bind(2);
        assert!(tele.enabled());
        tele.event(TelemetryEvent::Demotion {
            access: 1,
            part: PartitionId::from_index(0),
        });
        tele.event(TelemetryEvent::Demotion {
            access: 2,
            part: PartitionId::from_index(0),
        });
        tele.event(TelemetryEvent::Eviction {
            access: 3,
            part: UNMANAGED_PART,
            forced: false,
        });
        tele.event(TelemetryEvent::Promotion {
            access: 4,
            part: PartitionId::from_index(0),
        }); // not churn
        assert!(!tele.sample_due(7));
        assert!(tele.sample_due(8));
        tele.sample(sample(8, PartitionId::from_index(0)));
        tele.sample(sample(8, PartitionId::from_index(1)));
        tele.sample(sample(8, UNMANAGED_PART));
        let churns: Vec<(PartitionId, u64)> = reader
            .records()
            .iter()
            .filter_map(|r| match r {
                TelemetryRecord::Sample(s) => Some((s.part, s.churn)),
                _ => None,
            })
            .collect();
        assert_eq!(
            churns,
            vec![
                (PartitionId::from_index(0), 2),
                (PartitionId::from_index(1), 0),
                (UNMANAGED_PART, 1)
            ]
        );
        // Meters reset after sampling.
        assert!(tele.sample_due(16));
        tele.sample(sample(16, PartitionId::from_index(0)));
        let last = reader.records();
        match last.last().unwrap() {
            TelemetryRecord::Sample(s) => assert_eq!(s.churn, 0),
            _ => panic!("expected sample"),
        }
    }

    #[test]
    fn sampling_schedule_skips_missed_points() {
        let (sink, _reader) = RingSink::with_capacity(4);
        let mut tele = Telemetry::new(Box::new(sink), 100);
        assert!(!tele.sample_due(99));
        assert!(tele.sample_due(100));
        // A long gap schedules the next period after `access`, not a burst.
        assert!(!tele.sample_due(150));
        assert!(tele.sample_due(750));
        assert!(!tele.sample_due(799));
        assert!(tele.sample_due(800));
    }

    #[test]
    fn disabled_telemetry_is_inert() {
        let mut tele = Telemetry::disabled();
        assert!(!tele.enabled());
        tele.bind(4);
        tele.event(TelemetryEvent::Demotion {
            access: 1,
            part: PartitionId::from_index(0),
        });
        assert!(!tele.sample_due(u64::MAX - 1));
        tele.sample(sample(1, PartitionId::from_index(0)));
        tele.flush();
    }

    #[test]
    fn shared_sink_clones_funnel_into_one_backend() {
        let (ring, reader) = RingSink::with_capacity(8);
        let shared = SharedSink::new(Box::new(ring));
        let mut bank0 = shared.with_bank(0);
        let mut bank1 = shared.with_bank(1);
        bank0.record_event(&TelemetryEvent::Demotion {
            access: 1,
            part: PartitionId::from_index(2),
        });
        bank1.record_event(&TelemetryEvent::Promotion {
            access: 2,
            part: PartitionId::from_index(0),
        });
        bank0.record_sample(&sample(3, PartitionId::from_index(0)));
        assert_eq!(reader.len(), 3, "all clones reach the shared backend");
    }

    #[test]
    fn csv_bank_tags_ride_in_the_detail_column() {
        let mut sink = TraceSink::new(Vec::new(), Format::Csv);
        sink.set_bank(Some(3));
        sink.record_event(&TelemetryEvent::Demotion {
            access: 1,
            part: PartitionId::from_index(2),
        });
        sink.record_event(&TelemetryEvent::Eviction {
            access: 2,
            part: PartitionId::from_index(0),
            forced: true,
        });
        sink.record_sample(&sample(3, PartitionId::from_index(1)));
        sink.set_bank(None);
        sink.record_event(&TelemetryEvent::Promotion {
            access: 4,
            part: PartitionId::from_index(0),
        });
        sink.flush();
        let text = String::from_utf8(sink.w.clone()).unwrap();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(
            lines,
            [
                "demotion,1,2,,,,,,bank=3",
                "eviction,2,0,,,,,,forced=true;bank=3",
                "sample,3,1,101,128,0.250000,90,0,bank=3",
                // The tag is cleared.
                "promotion,4,0,,,,,,",
            ]
        );
    }

    #[test]
    fn json_bank_tags_round_trip_and_are_ignored_by_parser() {
        let mut sink = TraceSink::new(Vec::new(), Format::JsonLines);
        sink.set_bank(Some(7));
        sink.record_event(&TelemetryEvent::Scrub {
            access: 9,
            repairs: 0,
        });
        sink.record_sample(&sample(10, PartitionId::from_index(0)));
        sink.flush();
        let text = String::from_utf8(sink.w.clone()).unwrap();
        for line in text.lines() {
            assert!(line.ends_with(",\"bank\":7}"), "{line}");
        }
        let parsed: Vec<TelemetryRecord> = text.lines().filter_map(from_json_line).collect();
        assert_eq!(
            parsed,
            vec![
                TelemetryRecord::Event(TelemetryEvent::Scrub {
                    access: 9,
                    repairs: 0
                }),
                TelemetryRecord::Sample(sample(10, PartitionId::from_index(0))),
            ]
        );
    }

    #[test]
    fn shared_sink_try_unwrap_requires_sole_ownership() {
        let (ring, reader) = RingSink::with_capacity(8);
        let shared = SharedSink::new(Box::new(ring));
        let mut tagged = shared.with_bank(1);
        tagged.record_event(&TelemetryEvent::Demotion {
            access: 5,
            part: PartitionId::from_index(0),
        });
        let shared = match shared.try_unwrap() {
            Err(s) => s,
            Ok(_) => panic!("unwrap should fail while a clone is alive"),
        };
        drop(tagged);
        let _inner = shared.try_unwrap().expect("now sole owner");
        // RingSink ignores bank tags, so the record is byte-identical to a
        // serial run's.
        assert_eq!(
            reader.records(),
            vec![TelemetryRecord::Event(TelemetryEvent::Demotion {
                access: 5,
                part: PartitionId::from_index(0)
            })]
        );
    }

    #[test]
    fn into_parts_splits_sink_and_period() {
        let (sink, reader) = RingSink::with_capacity(4);
        let tele = Telemetry::new(Box::new(sink), 512);
        let (sink, period) = tele.into_parts();
        assert_eq!(period, 512);
        let mut sink = sink.expect("sink present");
        sink.record_event(&TelemetryEvent::Demotion {
            access: 1,
            part: PartitionId::from_index(0),
        });
        assert_eq!(reader.len(), 1);
        let (none, period) = Telemetry::disabled().into_parts();
        assert!(none.is_none());
        assert_eq!(period, DEFAULT_SAMPLE_PERIOD);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut tele = Telemetry::new(Box::new(NullSink), 0);
        assert_eq!(tele.sample_period(), DEFAULT_SAMPLE_PERIOD);
        tele.bind(1);
        tele.event(TelemetryEvent::Scrub {
            access: 1,
            repairs: 0,
        });
        assert!(tele.sample_due(DEFAULT_SAMPLE_PERIOD));
        tele.sample(sample(2, PartitionId::from_index(0)));
    }
}
