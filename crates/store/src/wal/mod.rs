//! Durable [`Store`]: an in-memory store fronted by an append-only
//! JSON-lines write-ahead log, with checkpointed startup.
//!
//! Observability logs must survive process restarts (the paper: regulated
//! industries "may need to query over previous months or even years"). The
//! WAL format is deliberately human-greppable — one JSON event per line —
//! because the log *is* the product in an observability tool.
//!
//! # Durability policies (group commit)
//!
//! At the paper's §3.4 scale (Ω(1 million) ingested nodes per day) a
//! `write` + `flush` syscall pair per event is the bottleneck, so the
//! writer supports group commit via [`DurabilityPolicy`]:
//!
//! | policy | flushed to OS | data at risk on crash |
//! |---|---|---|
//! | [`EveryEvent`](DurabilityPolicy::EveryEvent) | after every event (default) | none past the last append |
//! | [`Batch(n)`](DurabilityPolicy::Batch) | every `n` buffered events | up to `n − 1` events |
//! | [`Interval(ms)`](DurabilityPolicy::Interval) | on the first write `ms` after the previous flush | up to one interval of events |
//! | [`OnSync`](DurabilityPolicy::OnSync) | only on [`WalStore::sync`] | everything since the last `sync` |
//!
//! Whatever the policy, [`WalStore::sync`] remains the hard barrier: it
//! flushes the buffer *and* `fsync`s, so events appended before a `sync`
//! that returned `Ok` survive any crash. "Flushed to OS" above means the
//! data survives a process crash but not a machine crash — only `sync`
//! guarantees the latter.
//!
//! # Checkpoints, segments, and fast restarts
//!
//! Replaying the whole log on every open makes startup O(lifetime ingest).
//! A checkpoint bounds it: the active log is sealed into a numbered
//! segment (`<db>.seg-0000001`, …), and the full store state is written to
//! `<db>.snapshot` atomically (temp + fsync + rename). Open then loads the
//! newest valid snapshot and replays only the segments and active tail
//! written after it — the ARIES-style snapshot-plus-delta split. Sealing
//! happens *before* the snapshot is written, so a crash between the two
//! leaves an extra segment to replay, never a snapshot that hides
//! unapplied log suffix. [`WalStore::compact_segments`] deletes segments a
//! snapshot covers; until then the snapshot is redundant and a corrupt one
//! degrades to replaying every segment from scratch. The snapshot's
//! records are binary (`crate::codec`; layout in the `snapshot` module)
//! and stream in both directions — encoded from the store, or decoded and
//! applied to it, one record at a time — while the log stays JSON lines.
//! Checkpoints trigger
//! on the group-commit path via [`CheckpointPolicy`] thresholds, or
//! explicitly via [`WalStore::checkpoint`] (`mltrace checkpoint`).
//!
//! Tail replay itself is parallel: serde parsing dominates replay cost, so
//! parsing fans out across scoped threads while a single stage applies
//! events in file order (see the `replay` module).
//!
//! # Crash recovery
//!
//! Events are written as `<json>\n` in a single buffered write, so a crash
//! mid-append can leave at most one partial line, at the tail of the
//! *active* log, with no trailing newline. [`WalStore::open`] recovers
//! from exactly that shape: the torn tail is truncated away and
//! [`WalStore::recovered`] reports `true`. A malformed line *followed by
//! more data*, any complete line that fails to parse, or a torn line in a
//! sealed (immutable) segment is real corruption and still fails the open
//! with [`StoreError::Corrupt`] — now carrying the byte offset and a
//! recovery hint.

mod replay;
mod segment;
mod snapshot;

use crate::aggregate::{AggInput, GroupPartial};
use crate::codec::EventRef;
use crate::error::{Result, StoreError};
use crate::event::{
    DiagnosisRecord, EventBus, EventFilter, EventId, EventKind, EventSeverity, IncidentRecord,
    ObservabilityEvent, EVENT_KINDS,
};
use crate::memory::MemoryStore;
use crate::record::{
    CompactionSummary, ComponentRecord, ComponentRunRecord, IoPointerRecord, MetricRecord, RunId,
};
use crate::scan::{IndexRoute, RunFilter};
use crate::store::{IndexFootprint, IndexStats, RunBundle, Store, StoreStats};
use crate::value::Value;
use mltrace_telemetry::{Counter, Gauge, Histogram, Telemetry};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// One durable event. The WAL is the sequence of all mutations.
#[derive(Debug, Serialize, Deserialize)]
#[serde(tag = "event")]
pub(crate) enum WalEvent {
    Component {
        rec: ComponentRecord,
    },
    Run {
        rec: ComponentRunRecord,
    },
    IoPointer {
        rec: IoPointerRecord,
    },
    Flag {
        io: String,
        flag: bool,
    },
    Metric {
        rec: MetricRecord,
    },
    DeleteRuns {
        ids: Vec<RunId>,
    },
    DeleteIos {
        names: Vec<String>,
    },
    Summary {
        rec: CompactionSummary,
    },
    Obs {
        rec: ObservabilityEvent,
    },
    Incident {
        rec: IncidentRecord,
    },
    Diagnosis {
        key: String,
        rows: Vec<DiagnosisRecord>,
    },
    /// Segment metadata, not a state mutation: the zone map of the sealed
    /// segment this line terminates. Written as the final line of a
    /// segment at seal time; replay skips it (and does not count it).
    Zone {
        map: ZoneMap,
    },
}

/// When buffered WAL events are flushed to the OS (see the module docs for
/// the trade-off table). [`WalStore::sync`] is the durability barrier under
/// every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityPolicy {
    /// Flush after every event — today's behavior and the default.
    #[default]
    EveryEvent,
    /// Flush once `n` events have accumulated since the last flush.
    Batch(usize),
    /// Flush on the first write at least this many milliseconds after the
    /// previous flush. (No background timer: an idle store flushes on the
    /// next write or `sync`.)
    Interval(u64),
    /// Flush only on [`WalStore::sync`] (or when the internal buffer
    /// fills). Fastest; everything since the last `sync` is at risk.
    OnSync,
}

impl DurabilityPolicy {
    /// Parse a CLI spelling: `every`, `onsync`, `batch:N`, `interval:MS`.
    pub fn parse(s: &str) -> Option<DurabilityPolicy> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("every") || s.eq_ignore_ascii_case("everyevent") {
            return Some(DurabilityPolicy::EveryEvent);
        }
        if s.eq_ignore_ascii_case("onsync") {
            return Some(DurabilityPolicy::OnSync);
        }
        if let Some(n) = s.strip_prefix("batch:") {
            return n.parse().ok().map(DurabilityPolicy::Batch);
        }
        if let Some(ms) = s.strip_prefix("interval:") {
            return ms.parse().ok().map(DurabilityPolicy::Interval);
        }
        None
    }
}

/// When the store checkpoints itself on the write path. A threshold of 0
/// disables that trigger; [`CheckpointPolicy::disabled`] disables both,
/// leaving only explicit [`WalStore::checkpoint`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once this many events have been appended (or replayed at
    /// open) since the last checkpoint.
    pub every_events: u64,
    /// Checkpoint once the active log holds this many bytes.
    pub every_bytes: u64,
}

impl Default for CheckpointPolicy {
    /// 250k events or 64 MiB of active log, whichever comes first — a few
    /// seconds of replay at the measured parse rate, amortized to roughly
    /// four checkpoints per day at the paper's million-runs/day scale.
    fn default() -> Self {
        CheckpointPolicy {
            every_events: 250_000,
            every_bytes: 64 << 20,
        }
    }
}

impl CheckpointPolicy {
    /// Never checkpoint automatically.
    pub fn disabled() -> Self {
        CheckpointPolicy {
            every_events: 0,
            every_bytes: 0,
        }
    }
}

/// Everything [`WalStore::open_with_options`] can vary.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalOptions {
    /// Group-commit flush policy.
    pub durability: DurabilityPolicy,
    /// Automatic checkpoint thresholds.
    pub checkpoint: CheckpointPolicy,
    /// Parse workers for tail replay; `None` sizes to the machine (capped
    /// at 8), `Some(1)` forces serial replay.
    pub replay_workers: Option<usize>,
}

/// What one [`WalStore::checkpoint`] did.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReport {
    /// Sequence number the active log was sealed under, if it had content.
    pub sealed_seq: Option<u64>,
    /// Size of the snapshot on disk, in bytes.
    pub snapshot_bytes: u64,
    /// Events appended (or replayed) since the previous checkpoint that
    /// this snapshot now covers.
    pub events_folded: u64,
    /// False when there was nothing new to checkpoint (report then
    /// describes the existing snapshot).
    pub wrote_snapshot: bool,
}

/// What one [`WalStore::compact_segments`] reclaimed.
#[derive(Debug, Clone, Copy)]
pub struct SegmentCompaction {
    /// Sealed segments deleted because the snapshot covers them.
    pub segments_deleted: usize,
    /// Their total size on disk.
    pub bytes_reclaimed: u64,
}

/// On-disk footprint of one WAL family, as reported by `mltrace stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalFootprint {
    /// Bytes handed to the active log (including any still buffered).
    pub active_bytes: u64,
    /// Sealed segments beside the active log.
    pub segment_count: usize,
    /// Their total size in bytes.
    pub segment_bytes: u64,
    /// Snapshot size in bytes (0 when no checkpoint has run).
    pub snapshot_bytes: u64,
    /// Events appended or replayed since the last checkpoint — what a cold
    /// open would have to replay.
    pub events_since_checkpoint: u64,
}

impl WalFootprint {
    /// Total bytes on disk across active log, segments, and snapshot.
    pub fn total_bytes(&self) -> u64 {
        self.active_bytes + self.segment_bytes + self.snapshot_bytes
    }
}

/// On-disk format version stamped into zone maps and v2 snapshot headers.
/// Version 0 (the `#[serde(default)]` value) is the pre-zone format:
/// readers treat it as "no zone information" and never prune.
pub const ZONE_FORMAT_VERSION: u32 = 2;

/// Min/max summaries of one sealed segment (or one snapshot), written as
/// the segment's final line at seal time. Cold readers — `mltrace tail`,
/// [`read_journal`], [`JournalFollower`] — test their filter against the
/// zone and skip the whole file when no line inside can match, which is
/// what makes time- and kind-bounded queries sub-linear in log history.
///
/// Every field is `#[serde(default)]`, so maps written by newer versions
/// (or the empty `{}`) still decode; absent bounds mean "unknown — do not
/// prune on this column".
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZoneMap {
    /// Format version ([`ZONE_FORMAT_VERSION`]); 0 = unversioned.
    #[serde(default)]
    pub version: u32,
    /// Run records in the zone.
    #[serde(default)]
    pub runs: u64,
    /// Journal events in the zone.
    #[serde(default)]
    pub events: u64,
    /// Smallest run id logged in the zone.
    #[serde(default)]
    pub min_run_id: Option<u64>,
    /// Largest run id logged in the zone.
    #[serde(default)]
    pub max_run_id: Option<u64>,
    /// Smallest run `start_ms` in the zone.
    #[serde(default)]
    pub min_start_ms: Option<u64>,
    /// Largest run `start_ms` in the zone.
    #[serde(default)]
    pub max_start_ms: Option<u64>,
    /// Smallest journal event id in the zone.
    #[serde(default)]
    pub min_event_id: Option<u64>,
    /// Largest journal event id in the zone.
    #[serde(default)]
    pub max_event_id: Option<u64>,
    /// Smallest journal event timestamp in the zone.
    #[serde(default)]
    pub min_event_ts_ms: Option<u64>,
    /// Largest journal event timestamp in the zone.
    #[serde(default)]
    pub max_event_ts_ms: Option<u64>,
    /// Presence bitmap over [`EVENT_KINDS`] declaration order: bit `i`
    /// set ⇔ at least one event of `EVENT_KINDS[i]` is in the zone.
    #[serde(default)]
    pub event_kinds: u32,
    /// Presence bitmap over severities (`Info`=0, `Warn`=1, `Page`=2).
    #[serde(default)]
    pub event_severities: u32,
    /// Metric records in the zone. `None` on footers written before this
    /// field existed — unknown, so nothing may be skipped; `Some(0)`
    /// proves the segment is metric-free and the monitoring-plane rebuild
    /// can bypass its plane feed entirely during replay.
    #[serde(default)]
    pub metrics: Option<u64>,
}

/// Bit index of `kind` in [`ZoneMap::event_kinds`].
fn kind_bit(kind: EventKind) -> u32 {
    EVENT_KINDS
        .iter()
        .position(|k| *k == kind)
        .expect("EVENT_KINDS enumerates every kind") as u32
}

/// Bit index of `severity` in [`ZoneMap::event_severities`].
fn severity_bit(severity: EventSeverity) -> u32 {
    match severity {
        EventSeverity::Info => 0,
        EventSeverity::Warn => 1,
        EventSeverity::Page => 2,
    }
}

/// True when the closed intervals `[a_lo, a_hi]` and `[b_lo, b_hi]` are
/// disjoint; unknown bounds (`None`) never exclude.
fn disjoint(lo: Option<u64>, hi: Option<u64>, f_lo: Option<u64>, f_hi: Option<u64>) -> bool {
    matches!((hi, f_lo), (Some(h), Some(l)) if h < l)
        || matches!((lo, f_hi), (Some(l), Some(h)) if l > h)
}

impl ZoneMap {
    /// An empty zone at the current format version.
    pub fn new() -> ZoneMap {
        ZoneMap {
            version: ZONE_FORMAT_VERSION,
            metrics: Some(0),
            ..ZoneMap::default()
        }
    }

    /// Fold one WAL event into the zone's bounds. Only runs and journal
    /// events carry prunable columns; everything else merely rides along
    /// in the segment.
    fn observe(&mut self, event: EventRef<'_>) {
        fn lo(slot: &mut Option<u64>, v: u64) {
            *slot = Some(slot.map_or(v, |s| s.min(v)));
        }
        fn hi(slot: &mut Option<u64>, v: u64) {
            *slot = Some(slot.map_or(v, |s| s.max(v)));
        }
        match event {
            EventRef::Run(rec) => {
                self.runs += 1;
                lo(&mut self.min_run_id, rec.id.0);
                hi(&mut self.max_run_id, rec.id.0);
                lo(&mut self.min_start_ms, rec.start_ms);
                hi(&mut self.max_start_ms, rec.start_ms);
            }
            EventRef::Obs(rec) => {
                self.events += 1;
                lo(&mut self.min_event_id, rec.id.0);
                hi(&mut self.max_event_id, rec.id.0);
                lo(&mut self.min_event_ts_ms, rec.ts_ms);
                hi(&mut self.max_event_ts_ms, rec.ts_ms);
                self.event_kinds |= 1 << kind_bit(rec.kind);
                self.event_severities |= 1 << severity_bit(rec.severity);
            }
            EventRef::Metric(_) => {
                self.metrics = Some(self.metrics.unwrap_or(0) + 1);
            }
            _ => {}
        }
    }

    /// The zone is *proven* metric-free: a known count of zero. `None`
    /// (a pre-`metrics` footer) is unknown and returns false.
    pub fn excludes_metrics(&self) -> bool {
        self.version != 0 && self.metrics == Some(0)
    }

    /// At least one event of `kind` is in the zone.
    pub fn kind_present(&self, kind: EventKind) -> bool {
        self.event_kinds & (1 << kind_bit(kind)) != 0
    }

    /// True when **no** journal event in the zone can satisfy `filter` —
    /// the segment may be skipped without decoding it. Conservative: any
    /// unknown bound keeps the segment. Component and run-id conjuncts
    /// are not summarized, so they never prune on their own.
    pub fn excludes_events(&self, filter: &EventFilter) -> bool {
        if self.version == 0 {
            // Unversioned (pre-zone) data: nothing is known.
            return false;
        }
        if self.events == 0 {
            return true;
        }
        if let Some(kind) = filter.kind {
            if !self.kind_present(kind) {
                return true;
            }
        }
        if let Some(sev) = filter.severity {
            if self.event_severities & (1 << severity_bit(sev)) == 0 {
                return true;
            }
        }
        disjoint(
            self.min_event_id,
            self.max_event_id,
            filter.min_id,
            filter.max_id,
        ) || disjoint(
            self.min_event_ts_ms,
            self.max_event_ts_ms,
            filter.min_ts_ms,
            filter.max_ts_ms,
        )
    }
}

/// How far from the end of a segment the zone footer is sought. Footers
/// are one JSON line, well under this.
const ZONE_FOOTER_PROBE_BYTES: u64 = 64 << 10;

/// Read the zone footer of a sealed segment, if it has one. `None` for
/// pre-v2 segments (no footer), unreadable files, or anything that does
/// not parse — all of which degrade to "cannot prune", never to an error.
pub(crate) fn read_zone_footer(path: &Path) -> Option<ZoneMap> {
    let mut file = File::open(path).ok()?;
    let len = file.metadata().ok()?.len();
    if len == 0 {
        return None;
    }
    let probe = len.min(ZONE_FOOTER_PROBE_BYTES);
    file.seek(SeekFrom::End(-(probe as i64))).ok()?;
    let mut buf = Vec::with_capacity(probe as usize);
    std::io::Read::read_to_end(&mut file, &mut buf).ok()?;
    // The footer is the last newline-terminated, non-blank line.
    if buf.last() != Some(&b'\n') {
        return None;
    }
    let body = &buf[..buf.len() - 1];
    let line = match body.iter().rposition(|&b| b == b'\n') {
        Some(pos) => &body[pos + 1..],
        None if (len as usize) <= body.len() + 1 => body,
        // The probe window starts mid-line; a real footer fits well
        // within it, so this is not a footer.
        None => return None,
    };
    match serde_json::from_slice::<WalEvent>(line) {
        Ok(WalEvent::Zone { map }) => Some(map),
        _ => None,
    }
}

/// What one cold [`read_journal`] pass read and skipped.
#[derive(Debug, Clone, Default)]
pub struct JournalRead {
    /// Matching events, ascending by id. With a limit, the **most
    /// recent** `limit` matches (tail semantics).
    pub events: Vec<ObservabilityEvent>,
    /// Sealed segments not covered by the snapshot (candidates to read).
    pub segments_total: u64,
    /// Candidates skipped without decoding, via their zone footer.
    pub segments_pruned: u64,
    /// Journal events were imported from the snapshot.
    pub snapshot_used: bool,
    /// The snapshot's zone excluded the filter, so its records were
    /// skipped without parsing.
    pub snapshot_pruned: bool,
}

/// Read journal events from a WAL family on disk — snapshot, sealed
/// segments, active log — without opening the store (no locks taken,
/// usable cross-process). Zone maps make this sub-linear: segments (and
/// the snapshot) whose zones exclude `filter` are skipped whole, counted
/// in `wal.segments_pruned_total` on `registry` when one is given.
pub fn read_journal(
    path: impl AsRef<Path>,
    filter: &EventFilter,
    limit: Option<usize>,
    registry: Option<&Telemetry>,
) -> Result<JournalRead> {
    let path = path.as_ref();
    let mut out = JournalRead::default();
    let mut events: Vec<ObservabilityEvent> = Vec::new();

    // 1. The snapshot holds every journal event folded by checkpoints.
    let mut covered: u64 = 0;
    match snapshot::read_snapshot(path) {
        snapshot::SnapshotLoad::Missing | snapshot::SnapshotLoad::Corrupt(_) => {
            // No usable snapshot: the segments still hold the history
            // (until compaction), so read them all from seq 1.
        }
        snapshot::SnapshotLoad::Loaded(snap) => {
            if snap
                .header
                .zone
                .as_ref()
                .is_some_and(|z| z.excludes_events(filter))
            {
                covered = snap.header.covered_seq;
                out.snapshot_pruned = true;
            } else if let Ok(found) = snap.journal_events() {
                covered = snap.header.covered_seq;
                out.snapshot_used = true;
                events = found;
            }
            // A record that does not decode inside a checksummed snapshot
            // is the open's "corrupt snapshot" case, reported the same
            // way: the snapshot is not used and the segments are read
            // from seq 1 — never a silently shorter answer.
        }
    }

    // 2. Sealed segments past the snapshot, pruned by their footers.
    for (seq, seg_path) in segment::list_segments(path)? {
        if seq <= covered {
            continue;
        }
        out.segments_total += 1;
        if read_zone_footer(&seg_path).is_some_and(|z| z.excludes_events(filter)) {
            out.segments_pruned += 1;
            continue;
        }
        let (evs, _) = read_events_from(&seg_path, 0)?;
        events.extend(evs);
    }
    if let Some(registry) = registry {
        registry.add("wal.segments_pruned_total", out.segments_pruned);
    }

    // 3. The active log (never pruned: its zone is only in memory).
    let (evs, _) = read_events_from(path, 0)?;
    events.extend(evs);

    events.retain(|e| filter.matches(e));
    events.sort_by_key(|e| e.id);
    events.dedup_by_key(|e| e.id);
    if let Some(n) = limit {
        if events.len() > n {
            events.drain(..events.len() - n);
        }
    }
    out.events = events;
    Ok(out)
}

/// Serialize one event in the on-disk line format (`<json>\n`) onto `buf`.
/// The single definition of the format — `append`, `append_all`, and the
/// checkpoint writer all go through here.
fn encode_event(buf: &mut Vec<u8>, event: &WalEvent) -> Result<()> {
    serde_json::to_writer(&mut *buf, event)?;
    buf.push(b'\n');
    Ok(())
}

/// Wall-clock milliseconds for journal events the WAL itself emits
/// (recovery, policy, checkpoints). The store layer has no injected clock;
/// these are operator-facing timestamps, not test-controlled ones.
fn wall_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Incrementally read journal events appended to the WAL file at `path`
/// from byte `offset` onward, without opening the store (and so without
/// taking the owning process's locks). Complete lines that are not journal
/// events (runs, metrics, …) are skipped; a torn tail — a partial line the
/// owning process is still writing — is left in place for the next poll,
/// exactly as crash recovery treats it. If the file shrank underneath us,
/// reading restarts from the top. Returns the decoded events and the
/// offset to resume from.
///
/// This reads **one file**. To follow a checkpointing store across segment
/// rollover, use [`JournalFollower`], which chains sealed segments and the
/// active log.
pub fn read_events_from(
    path: impl AsRef<Path>,
    offset: u64,
) -> Result<(Vec<ObservabilityEvent>, u64)> {
    let path = path.as_ref();
    let Ok(meta) = std::fs::metadata(path) else {
        return Ok((Vec::new(), offset));
    };
    let mut at = if offset > meta.len() { 0 } else { offset };
    let mut reader = BufReader::new(File::open(path)?);
    reader.seek(SeekFrom::Start(at))?;
    let mut line = String::new();
    let mut out = Vec::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 || !line.ends_with('\n') {
            break;
        }
        if let Ok(WalEvent::Obs { rec }) =
            serde_json::from_str::<WalEvent>(line.trim_end_matches('\n'))
        {
            out.push(rec);
        }
        at += n as u64;
    }
    Ok((out, at))
}

/// Cross-process journal tailing that survives checkpoints: tracks a byte
/// offset in the active log *and* the highest sealed segment already
/// drained, so when a checkpoint renames the active log to a segment
/// mid-follow, the next poll reads the rest of that segment first and then
/// continues into the fresh active log. This is the streaming path behind
/// `mltrace tail --follow`.
///
/// Best-effort like any cross-process tail: events inside a segment that
/// is compacted away *between* polls are gone (compaction is the point of
/// no return), and the poll never blocks on the owning process's locks.
pub struct JournalFollower {
    path: PathBuf,
    /// Highest segment sequence fully drained.
    seen_seq: u64,
    /// Resume offset — into the first unseen segment if one appears,
    /// otherwise into the active log.
    offset: u64,
    /// When set, only matching events are reported, and unseen sealed
    /// segments whose zone footer excludes the filter are skipped whole.
    filter: Option<EventFilter>,
    /// Sealed segments skipped via their zone footer so far.
    pruned: u64,
}

impl JournalFollower {
    /// Start following at the current end of the log (only events appended
    /// after this call are reported).
    pub fn from_end(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let seen_seq = segment::list_segments(&path)?
            .last()
            .map(|(seq, _)| *seq)
            .unwrap_or(0);
        let offset = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        Ok(JournalFollower {
            path,
            seen_seq,
            offset,
            filter: None,
            pruned: 0,
        })
    }

    /// Report only events matching `filter`, and skip sealed segments the
    /// filter's zone test excludes — without decoding a single line of
    /// them.
    pub fn with_filter(mut self, filter: EventFilter) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Sealed segments skipped whole (zone footer excluded the filter)
    /// over this follower's lifetime.
    pub fn segments_pruned(&self) -> u64 {
        self.pruned
    }

    /// Decode every journal event appended since the last poll, in log
    /// order, crossing segment rollovers as needed.
    pub fn poll(&mut self) -> Result<Vec<ObservabilityEvent>> {
        let mut out = self.poll_unfiltered()?;
        if let Some(filter) = &self.filter {
            out.retain(|e| filter.matches(e));
        }
        Ok(out)
    }

    fn poll_unfiltered(&mut self) -> Result<Vec<ObservabilityEvent>> {
        let mut out = Vec::new();
        for _attempt in 0..2 {
            // Drain sealed segments newer than what we've seen: our offset
            // refers to the file that was the active log when we last
            // polled, which a checkpoint may have renamed to the first
            // unseen segment. Later unseen segments read from the top.
            for (seq, seg_path) in segment::list_segments(&self.path)? {
                if seq <= self.seen_seq {
                    continue;
                }
                // A zone footer that excludes the filter rules out every
                // line of the segment — including the unread suffix — so
                // the whole file can be skipped without decoding.
                if self.filter.as_ref().is_some_and(|f| {
                    read_zone_footer(&seg_path).is_some_and(|z| z.excludes_events(f))
                }) {
                    self.pruned += 1;
                    self.seen_seq = seq;
                    self.offset = 0;
                    continue;
                }
                let (evs, _) = read_events_from(&seg_path, self.offset)?;
                out.extend(evs);
                self.seen_seq = seq;
                self.offset = 0;
            }
            let active_len = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
            if active_len >= self.offset {
                let (evs, at) = read_events_from(&self.path, self.offset)?;
                out.extend(evs);
                self.offset = at;
                return Ok(out);
            }
            // The active log shrank under our offset: it was sealed (and
            // possibly already compacted away) after the listing above.
            // Re-list once to pick the new segment up.
        }
        // Still shrunk after a re-list: the covering segment is gone
        // (compacted); restart from the top of the new active log.
        let (evs, at) = read_events_from(&self.path, 0)?;
        out.extend(evs);
        self.offset = at;
        Ok(out)
    }
}

/// Pre-resolved telemetry handles for the WAL's hot paths. Cloned into
/// the writer so flush accounting happens under the writer lock without
/// touching the registry.
#[derive(Clone)]
struct WalTelemetry {
    /// Physical append calls (single or batched).
    appends: Counter,
    /// Events appended (a batch of N counts N).
    events: Counter,
    /// Flushes of buffered events to the OS.
    flushes: Counter,
    /// `fsync` barriers issued by [`WalStore::sync`] (and segment seals).
    fsyncs: Counter,
    /// Bytes handed to the log writer.
    bytes: Counter,
    /// Torn-tail truncations performed on open.
    recoveries: Counter,
    /// Log rewrites (checkpoint + compact via [`WalStore::rewrite`]).
    rewrites: Counter,
    /// Checkpoints written (snapshot + seal).
    checkpoints: Counter,
    /// Compaction passes that deleted at least one segment.
    compactions: Counter,
    /// Sealed segments deleted by compaction.
    segments_deleted: Counter,
    /// WAL events replayed on open (tail after the snapshot).
    replay_events: Counter,
    /// Opens that restored state from a snapshot.
    snapshot_loads: Counter,
    /// Opens that found a snapshot but fell back to full replay.
    snapshot_fallbacks: Counter,
    /// Size of the current snapshot in bytes.
    snapshot_bytes: Gauge,
    /// Wall-clock duration of open's recovery (snapshot load + replay).
    recovery: Histogram,
    /// Events per flush — the group-commit batch-size distribution. The
    /// ratio of `wal.append_events_total` to `wal.flushes_total` is the
    /// syscall amortization the §3.4 scale path buys.
    batch_events: Histogram,
    /// Latency of a physical WAL append, single or batched (serialize +
    /// buffered write + any policy-due flush).
    append_latency: Histogram,
}

impl WalTelemetry {
    fn new(registry: &Telemetry) -> Self {
        WalTelemetry {
            appends: registry.counter("wal.appends_total"),
            events: registry.counter("wal.append_events_total"),
            flushes: registry.counter("wal.flushes_total"),
            fsyncs: registry.counter("wal.fsyncs_total"),
            bytes: registry.counter("wal.bytes_written_total"),
            recoveries: registry.counter("wal.recoveries_total"),
            rewrites: registry.counter("wal.rewrites_total"),
            checkpoints: registry.counter("wal.checkpoints_total"),
            compactions: registry.counter("wal.compactions_total"),
            segments_deleted: registry.counter("wal.segments_deleted_total"),
            replay_events: registry.counter("wal.replay_events_total"),
            snapshot_loads: registry.counter("wal.snapshot_loads_total"),
            snapshot_fallbacks: registry.counter("wal.snapshot_fallbacks_total"),
            snapshot_bytes: registry.gauge("wal.snapshot_bytes"),
            recovery: registry.histogram("wal.recovery"),
            batch_events: registry.histogram("wal.group_commit_events"),
            append_latency: registry.histogram("wal.append_all"),
        }
    }
}

/// The log writer plus the group-commit bookkeeping it needs, kept under
/// one mutex so flush decisions see a consistent count.
struct WalWriter {
    out: BufWriter<File>,
    /// Events written since the last flush-to-OS.
    pending_events: usize,
    last_flush: Instant,
    tele: WalTelemetry,
}

impl WalWriter {
    fn new(file: File, tele: WalTelemetry) -> Self {
        WalWriter {
            out: BufWriter::new(file),
            pending_events: 0,
            last_flush: Instant::now(),
            tele,
        }
    }

    /// Append pre-serialized events and flush if the policy says so.
    fn write(&mut self, bytes: &[u8], events: usize, policy: DurabilityPolicy) -> Result<()> {
        self.out.write_all(bytes)?;
        self.pending_events += events;
        self.tele.bytes.add(bytes.len() as u64);
        self.tele.events.add(events as u64);
        let due = match policy {
            DurabilityPolicy::EveryEvent => true,
            DurabilityPolicy::Batch(n) => self.pending_events >= n,
            DurabilityPolicy::Interval(ms) => {
                self.last_flush.elapsed() >= Duration::from_millis(ms)
            }
            DurabilityPolicy::OnSync => false,
        };
        if due {
            self.flush_os()?;
        }
        Ok(())
    }

    /// Flush buffered bytes to the OS (not an fsync).
    fn flush_os(&mut self) -> Result<()> {
        self.out.flush()?;
        if self.pending_events > 0 {
            self.tele.flushes.incr();
            self.tele.batch_events.record(self.pending_events as u64);
        }
        self.pending_events = 0;
        self.last_flush = Instant::now();
        Ok(())
    }
}

/// A [`MemoryStore`] that records every mutation to an append-only log and
/// rebuilds itself from the newest snapshot plus the log tail on open.
pub struct WalStore {
    mem: MemoryStore,
    writer: Mutex<WalWriter>,
    path: PathBuf,
    policy: DurabilityPolicy,
    ckpt: CheckpointPolicy,
    recovered: bool,
    snapshot_fallback: bool,
    /// Shared with `mem`, so `store.*` and `wal.*` metrics land in one
    /// registry and one snapshot covers the whole storage layer.
    registry: Telemetry,
    tele: WalTelemetry,
    /// Sequence the *next* seal will use (1 + highest existing segment).
    next_seq: AtomicU64,
    /// Highest segment sequence the on-disk snapshot covers (0 = none).
    covered_seq: AtomicU64,
    /// Events appended or replayed since the last checkpoint.
    events_since_ckpt: AtomicU64,
    /// Bytes handed to the active log (including still-buffered ones).
    active_bytes: AtomicU64,
    /// Quiescence gate: every mutation holds `read` across its
    /// memory-apply + WAL-append pair; a checkpoint holds `write`, so the
    /// snapshot it takes never contains a record whose WAL line would land
    /// *after* the seal (which replay would then apply twice).
    gate: RwLock<()>,
    /// Re-entrancy damper: the checkpoint itself journals an event, whose
    /// append must not trigger another checkpoint.
    in_checkpoint: AtomicBool,
    /// Zone map of the active log, folded in on every append (the gate
    /// makes seal-vs-append race-free) and written as the segment's final
    /// line at seal time.
    active_zone: Mutex<ZoneMap>,
    /// Zone footers of the sealed segments on disk (`None` = no footer,
    /// pre-v2). Probed once at open, maintained by seal and compaction;
    /// backs [`Store::prunable_segments`] for `EXPLAIN`.
    zones: Mutex<BTreeMap<u64, Option<ZoneMap>>>,
}

impl WalStore {
    /// Open (creating if absent) a WAL-backed store at `path` with default
    /// [`WalOptions`] and rebuild state from snapshot + log tail.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_options(path, WalOptions::default())
    }

    /// Open with an explicit durability policy (see the module docs).
    pub fn open_with(path: impl AsRef<Path>, policy: DurabilityPolicy) -> Result<Self> {
        Self::open_with_options(
            path,
            WalOptions {
                durability: policy,
                ..WalOptions::default()
            },
        )
    }

    /// Open with full control over durability, checkpointing, and replay
    /// parallelism.
    pub fn open_with_options(path: impl AsRef<Path>, options: WalOptions) -> Result<Self> {
        let started = Instant::now();
        let path = path.as_ref().to_path_buf();
        let registry = Telemetry::new();
        let tele = WalTelemetry::new(&registry);
        let workers = options
            .replay_workers
            .unwrap_or_else(replay::default_workers)
            .max(1);
        let mut mem = MemoryStore::with_telemetry(registry.clone());

        // 1. Newest snapshot, if any. A snapshot is an accelerator, never
        // the only copy until compaction: anything unreadable falls back
        // to replaying every sealed segment from scratch. The bad file is
        // left in place for forensics; the next checkpoint replaces it.
        let mut covered: u64 = 0;
        let mut fallback: Option<String> = None;
        let loaded = snapshot::read_snapshot(&path);
        let read_done = Instant::now();
        match loaded {
            snapshot::SnapshotLoad::Missing => {}
            snapshot::SnapshotLoad::Corrupt(why) => fallback = Some(why),
            snapshot::SnapshotLoad::Loaded(snap) => {
                // One record at a time: decoded, applied, dropped. The
                // store never exists a second time as a list of events.
                let imported = snap.records().enumerate().try_for_each(|(i, record)| {
                    let event = snap
                        .decode(record)
                        .map_err(|why| format!("record {i}: {why}"))?;
                    Self::apply(&mem, event).map_err(|e| format!("import: {e}"))
                });
                let header = &snap.header;
                match imported {
                    Ok(()) => {
                        mem.restore_watermarks(
                            header.next_run_id,
                            header.next_event_id,
                            header.runs_removed,
                        );
                        covered = header.covered_seq;
                        tele.snapshot_loads.incr();
                        tele.snapshot_bytes.set(snap.file_len() as i64);
                        // Operator-facing snapshot provenance: 0 means a
                        // pre-zone-map (v1) snapshot restored this state.
                        registry
                            .gauge("wal.snapshot_format_version")
                            .set(header.format_version as i64);
                        registry
                            .gauge("wal.snapshot_created_ms")
                            .set(header.created_ms as i64);
                    }
                    Err(why) => {
                        // A partial import may have polluted the store;
                        // start the fallback replay from a fresh one.
                        fallback = Some(why);
                        mem = MemoryStore::with_telemetry(registry.clone());
                    }
                }
            }
        }
        if fallback.is_some() {
            covered = 0;
            tele.snapshot_fallbacks.incr();
        }
        let import_done = Instant::now();

        // 2. Sealed segments newer than the snapshot, oldest first.
        // Segments are immutable after rotation, so a torn tail here is
        // corruption, not crash recovery.
        let mut replayed: u64 = 0;
        let mut last_seq: u64 = 0;
        let segments = segment::list_segments(&path)?;
        let replayed_segments = segments.iter().filter(|(seq, _)| *seq > covered).count();
        // Probe every sealed segment's zone footer once; `None` (pre-v2
        // segment, no footer) simply means that segment is never pruned.
        let zone_cache: BTreeMap<u64, Option<ZoneMap>> = segments
            .iter()
            .map(|(seq, seg_path)| (*seq, read_zone_footer(seg_path)))
            .collect();
        // Segments whose zone footer proves them metric-free contribute
        // nothing to the monitoring-plane rebuild; count them so the
        // rebuild cost of a restart is inspectable from telemetry.
        let mut plane_skipped: u64 = 0;
        for (seq, seg_path) in &segments {
            last_seq = last_seq.max(*seq);
            if *seq <= covered {
                continue;
            }
            if zone_cache
                .get(seq)
                .and_then(|z| z.as_ref())
                .is_some_and(|z| z.excludes_metrics())
            {
                plane_skipped += 1;
            }
            let rep = replay::replay_file(seg_path, workers, |e| Self::apply(&mem, e))
                .map_err(|e| Self::replay_error(&path, seg_path, e))?;
            if rep.truncate_at.is_some() {
                return Err(StoreError::Corrupt(format!(
                    "sealed segment {} ends in a torn line; segments are immutable after \
                     rotation, so this file was modified outside mltrace",
                    seg_path.display()
                )));
            }
            replayed += rep.events_applied;
        }

        // 3. The active log, with torn-tail recovery.
        let mut recovered = false;
        let mut missing_final_newline = false;
        let mut active_len: u64 = 0;
        // The active log's zone accumulator is rebuilt alongside replay so
        // the footer written at the next seal covers replayed lines too.
        let mut active_zone = ZoneMap::new();
        if path.exists() {
            let rep = replay::replay_file(&path, workers, |e| {
                active_zone.observe(e.as_ref());
                Self::apply(&mem, e)
            })
            .map_err(|e| Self::replay_error(&path, &path, e))?;
            replayed += rep.events_applied;
            missing_final_newline = rep.missing_final_newline;
            if let Some(at) = rep.truncate_at {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(at)?;
                f.sync_data()?;
                recovered = true;
                missing_final_newline = false;
                tele.recoveries.incr();
            }
            active_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut writer = WalWriter::new(file, tele.clone());
        if missing_final_newline {
            // A parseable final line without its newline (e.g. a
            // hand-edited log) is kept, but the separator must be restored
            // before anything is appended after it.
            writer.write(b"\n", 0, DurabilityPolicy::EveryEvent)?;
            active_len += 1;
        }
        tele.replay_events.add(replayed);
        // Where the open went: read + checksum + framing, then decode +
        // apply, then segments + active log. They sum to no more than
        // the `wal.recovery` sample taken over the same span.
        let done = Instant::now();
        for (name, from, to) in [
            ("wal.open_snapshot_read_ns", started, read_done),
            ("wal.open_snapshot_import_ns", read_done, import_done),
            ("wal.open_tail_replay_ns", import_done, done),
        ] {
            registry.gauge(name).set((to - from).as_nanos() as i64);
        }
        tele.recovery.record((done - started).as_nanos() as u64);
        registry
            .gauge("wal.replay_plane_skipped_segments")
            .set(plane_skipped as i64);
        // Re-arm drift dedup from persisted incidents: a breach that fires
        // again after restart must fold into its still-open incident, not
        // open a duplicate.
        mem.seed_drift_router();

        let store = WalStore {
            mem,
            writer: Mutex::new(writer),
            path,
            policy: options.durability,
            ckpt: options.checkpoint,
            recovered,
            snapshot_fallback: fallback.is_some(),
            registry,
            tele,
            next_seq: AtomicU64::new(last_seq.max(covered) + 1),
            covered_seq: AtomicU64::new(covered),
            events_since_ckpt: AtomicU64::new(replayed),
            active_bytes: AtomicU64::new(active_len),
            gate: RwLock::new(()),
            in_checkpoint: AtomicBool::new(false),
            active_zone: Mutex::new(active_zone),
            zones: Mutex::new(zone_cache),
        };
        // Journal the open itself: a torn-tail truncation or a snapshot
        // fallback is an operator fact worth keeping (queryable later via
        // `SELECT … FROM events`), and a relaxed fsync policy changes what
        // a crash can lose, so the transition is recorded too. The default
        // policy is not journaled — every CLI invocation opens the store
        // and would spam the log.
        if store.recovered {
            store.log_events(vec![ObservabilityEvent::new(
                EventKind::WalRecovered,
                EventSeverity::Warn,
                wall_ms(),
            )
            .component("wal")
            .detail(format!(
                "torn tail truncated during recovery of {}",
                store.path.display()
            ))])?;
        }
        if let Some(why) = fallback {
            store.log_events(vec![ObservabilityEvent::new(
                EventKind::WalRecovered,
                EventSeverity::Warn,
                wall_ms(),
            )
            .component("wal")
            .detail(format!(
                "snapshot {} unreadable ({why}); replayed {replayed_segments} segment(s) \
                 and the active log from scratch",
                snapshot::snapshot_path(&store.path).display()
            ))])?;
        }
        if store.policy != DurabilityPolicy::EveryEvent {
            store.log_events(vec![ObservabilityEvent::new(
                EventKind::WalPolicy,
                EventSeverity::Info,
                wall_ms(),
            )
            .component("wal")
            .detail(format!("durability policy {:?}", store.policy))
            .payload("policy", Value::Str(format!("{:?}", store.policy)))])?;
        }
        Ok(store)
    }

    /// Turn a replay failure into a [`StoreError`], attaching the byte
    /// offset and an operator hint for recovering via the last snapshot.
    fn replay_error(base: &Path, file: &Path, e: replay::ReplayError) -> StoreError {
        match e {
            replay::ReplayError::Store(e) => e,
            replay::ReplayError::Corrupt {
                lineno,
                offset,
                why,
            } => {
                let snap = snapshot::snapshot_path(base);
                let hint = if snap.exists() {
                    format!(
                        "recovery hint: state up to the last checkpoint is intact in {}; \
                         move {} aside and reopen to restore from the snapshot and the \
                         remaining segments, or truncate the file at byte offset {offset} \
                         to keep the undamaged prefix",
                        snap.display(),
                        file.display()
                    )
                } else {
                    format!(
                        "recovery hint: no snapshot exists; truncate {} at byte offset \
                         {offset} to keep the undamaged prefix, and run `mltrace checkpoint` \
                         periodically to bound loss from future corruption",
                        file.display()
                    )
                };
                StoreError::Corrupt(format!(
                    "{}: line {lineno} (byte offset {offset}): {why}; {hint}",
                    file.display()
                ))
            }
        }
    }

    /// Path of the backing log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The durability policy this store was opened with.
    pub fn durability(&self) -> DurabilityPolicy {
        self.policy
    }

    /// True if the last open truncated a torn trailing line left by a
    /// crash mid-append.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// True if the last open found a snapshot but could not use it and
    /// fell back to replaying every segment from scratch.
    pub fn snapshot_fallback(&self) -> bool {
        self.snapshot_fallback
    }

    /// Flush buffered log writes to the OS **and** fsync. The hard
    /// durability barrier under every [`DurabilityPolicy`].
    pub fn sync(&self) -> Result<()> {
        let mut w = self.writer.lock();
        w.flush_os()?;
        w.out.get_ref().sync_data()?;
        self.tele.fsyncs.incr();
        Ok(())
    }

    fn apply(mem: &MemoryStore, event: WalEvent) -> Result<()> {
        match event {
            WalEvent::Component { rec } => mem.register_component(rec),
            WalEvent::Run { rec } => mem.restore_run(rec),
            WalEvent::IoPointer { rec } => mem.upsert_io_pointer(rec),
            WalEvent::Flag { io, flag } => mem.set_flag(&io, flag).map(|_| ()),
            // Replay feeds the monitoring plane but never re-routes drift
            // (the drift events/incidents produced online were themselves
            // journaled and replay as `Obs`/`Incident` records).
            WalEvent::Metric { rec } => mem.restore_metric(rec),
            WalEvent::DeleteRuns { ids } => mem.delete_runs(&ids).map(|_| ()),
            WalEvent::DeleteIos { names } => mem.delete_io_pointers(&names).map(|_| ()),
            WalEvent::Summary { rec } => mem.put_summary(rec),
            WalEvent::Obs { rec } => mem.restore_event(rec),
            WalEvent::Incident { rec } => mem.upsert_incident(rec),
            WalEvent::Diagnosis { key, rows } => mem.put_diagnosis(&key, rows),
            // Segment metadata, not state; replay filters these out before
            // apply, but the match must stay exhaustive.
            WalEvent::Zone { .. } => Ok(()),
        }
    }

    /// Run one mutation (memory apply + WAL append) under the checkpoint
    /// gate, then fire an automatic checkpoint if thresholds say so.
    fn with_gate<T>(&self, f: impl FnOnce() -> Result<T>) -> Result<T> {
        let out = {
            let _quiesce = self.gate.read();
            f()
        };
        if out.is_ok() {
            self.checkpoint_if_due();
        }
        out
    }

    fn append(&self, event: &WalEvent) -> Result<()> {
        // Serialize outside the writer lock.
        let started = Instant::now();
        let mut buf = Vec::with_capacity(256);
        encode_event(&mut buf, event)?;
        self.active_zone.lock().observe(event.as_ref());
        self.writer.lock().write(&buf, 1, self.policy)?;
        self.active_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.events_since_ckpt.fetch_add(1, Ordering::Relaxed);
        self.tele.appends.incr();
        self.tele
            .append_latency
            .record(started.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Append a batch of events with one lock acquisition and one buffered
    /// write; all serialization happens outside the lock.
    fn append_all(&self, events: &[WalEvent]) -> Result<()> {
        if events.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        let mut buf = Vec::with_capacity(256 * events.len());
        for event in events {
            encode_event(&mut buf, event)?;
        }
        {
            let mut zone = self.active_zone.lock();
            for event in events {
                zone.observe(event.as_ref());
            }
        }
        self.writer.lock().write(&buf, events.len(), self.policy)?;
        self.active_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.events_since_ckpt
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        self.tele.appends.incr();
        self.tele
            .append_latency
            .record(started.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn checkpoint_due(&self) -> bool {
        let CheckpointPolicy {
            every_events,
            every_bytes,
        } = self.ckpt;
        (every_events > 0 && self.events_since_ckpt.load(Ordering::Relaxed) >= every_events)
            || (every_bytes > 0 && self.active_bytes.load(Ordering::Relaxed) >= every_bytes)
    }

    /// Automatic checkpoint on the write path: best-effort (a failure
    /// leaves the log longer, never the data wrong) and damped so the
    /// checkpoint's own journal append cannot re-trigger it.
    fn checkpoint_if_due(&self) {
        if self.checkpoint_due() && !self.in_checkpoint.load(Ordering::SeqCst) {
            let _ = self.checkpoint();
        }
    }

    /// Checkpoint now: seal the active log into a segment, write a fresh
    /// snapshot of the full store state, and journal a
    /// [`EventKind::CheckpointWritten`] event. After this, a cold open
    /// replays only what is appended from here on. No-op (with
    /// `wrote_snapshot == false`) when nothing changed since the last
    /// checkpoint. Does not delete superseded segments — that is
    /// [`WalStore::compact_segments`].
    pub fn checkpoint(&self) -> Result<CheckpointReport> {
        let was = self.in_checkpoint.swap(true, Ordering::SeqCst);
        let result = self.checkpoint_guarded();
        if !was {
            self.in_checkpoint.store(false, Ordering::SeqCst);
        }
        result
    }

    fn checkpoint_guarded(&self) -> Result<CheckpointReport> {
        let report = {
            let _quiesced = self.gate.write();
            let next = self.next_seq.load(Ordering::SeqCst);
            let covered = self.covered_seq.load(Ordering::SeqCst);
            let active = self.active_bytes.load(Ordering::SeqCst);
            if active == 0 && covered + 1 == next {
                // Nothing appended since the last checkpoint and no orphan
                // segments: report the snapshot already on disk.
                let snapshot_bytes = std::fs::metadata(snapshot::snapshot_path(&self.path))
                    .map(|m| m.len())
                    .unwrap_or(0);
                return Ok(CheckpointReport {
                    sealed_seq: None,
                    snapshot_bytes,
                    events_folded: 0,
                    wrote_snapshot: false,
                });
            }
            // Seal the active log (if it has content) BEFORE writing the
            // snapshot: a crash between the two leaves an extra segment to
            // replay on top of the old snapshot — correct, merely slower.
            // The reverse order could write a snapshot that already
            // contains the sealed records and then replay them again.
            let sealed_seq = if active > 0 {
                // Take (and reset) the active log's zone; the fresh log
                // starts with an empty one.
                let zone = std::mem::replace(&mut *self.active_zone.lock(), ZoneMap::new());
                {
                    let mut w = self.writer.lock();
                    w.flush_os()?;
                    // The zone footer is the segment's final line. Written
                    // directly (not via `write`) so it is never counted as
                    // an appended event; a crash before the rename leaves
                    // it mid-file in the active log, where replay and
                    // journal readers skip it.
                    let mut footer = Vec::with_capacity(256);
                    encode_event(&mut footer, &WalEvent::Zone { map: zone.clone() })?;
                    w.out.write_all(&footer)?;
                    w.out.flush()?;
                    w.out.get_ref().sync_data()?;
                    self.tele.fsyncs.incr();
                    std::fs::rename(&self.path, segment::segment_path(&self.path, next))?;
                    segment::fsync_dir(&self.path);
                    let file = OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&self.path)?;
                    *w = WalWriter::new(file, self.tele.clone());
                }
                self.zones.lock().insert(next, Some(zone));
                self.next_seq.store(next + 1, Ordering::SeqCst);
                self.active_bytes.store(0, Ordering::SeqCst);
                Some(next)
            } else {
                // Active log empty but orphan segments exist past the
                // snapshot (a crash between seal and snapshot write):
                // fold them without sealing anything new.
                None
            };
            let covers = self.next_seq.load(Ordering::SeqCst) - 1;
            // Each record is encoded straight from the store into the
            // snapshot's one buffer; the zone over everything folded lets
            // cold readers skip decoding the snapshot too.
            let mut writer = snapshot::SnapshotWriter::default();
            let mut snap_zone = ZoneMap::new();
            self.mem.visit_state(|event| {
                snap_zone.observe(event);
                writer.push(event)
            })?;
            let (next_run_id, next_event_id, runs_removed) = self.mem.watermarks();
            let header = snapshot::SnapshotHeader {
                format_version: ZONE_FORMAT_VERSION,
                zone: Some(snap_zone),
                covered_seq: covers,
                next_run_id,
                next_event_id,
                runs_removed,
                records: writer.records(),
                created_ms: wall_ms(),
            };
            let snapshot_bytes = writer.finish(&self.path, &header)?;
            let events_folded = self.events_since_ckpt.swap(0, Ordering::SeqCst);
            self.covered_seq.store(covers, Ordering::SeqCst);
            self.tele.checkpoints.incr();
            self.tele.snapshot_bytes.set(snapshot_bytes as i64);
            CheckpointReport {
                sealed_seq,
                snapshot_bytes,
                events_folded,
                wrote_snapshot: true,
            }
        };
        // Journal outside the write gate (the append takes a read lock);
        // `in_checkpoint` is still held by the caller, so this append
        // cannot re-trigger a checkpoint.
        let detail = match report.sealed_seq {
            Some(seq) => format!(
                "sealed segment {seq}; snapshot {} bytes, {} events folded",
                report.snapshot_bytes, report.events_folded
            ),
            None => format!(
                "snapshot {} bytes, {} events folded",
                report.snapshot_bytes, report.events_folded
            ),
        };
        self.log_events(vec![ObservabilityEvent::new(
            EventKind::CheckpointWritten,
            EventSeverity::Info,
            wall_ms(),
        )
        .component("wal")
        .detail(detail)
        .payload(
            "covered_seq",
            Value::Int(self.covered_seq.load(Ordering::SeqCst) as i64),
        )
        .payload("snapshot_bytes", Value::Int(report.snapshot_bytes as i64))])?;
        Ok(report)
    }

    /// Delete sealed segments the snapshot covers, reclaiming disk. This
    /// is the point of no return: afterwards the snapshot is the only copy
    /// of the folded history. Journals [`EventKind::WalCompacted`] when
    /// anything was deleted.
    pub fn compact_segments(&self) -> Result<SegmentCompaction> {
        let covered = self.covered_seq.load(Ordering::SeqCst);
        let mut segments_deleted = 0usize;
        let mut bytes_reclaimed = 0u64;
        for (seq, seg_path) in segment::list_segments(&self.path)? {
            if seq > covered {
                continue;
            }
            let len = std::fs::metadata(&seg_path).map(|m| m.len()).unwrap_or(0);
            match std::fs::remove_file(&seg_path) {
                Ok(()) => {
                    segments_deleted += 1;
                    bytes_reclaimed += len;
                    self.zones.lock().remove(&seq);
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        if segments_deleted > 0 {
            segment::fsync_dir(&self.path);
            self.tele.compactions.incr();
            self.tele.segments_deleted.add(segments_deleted as u64);
            self.log_events(vec![ObservabilityEvent::new(
                EventKind::WalCompacted,
                EventSeverity::Info,
                wall_ms(),
            )
            .component("wal")
            .detail(format!(
                "{segments_deleted} superseded segment(s) deleted, \
                 {bytes_reclaimed} bytes reclaimed"
            ))
            .payload("segments_deleted", Value::Int(segments_deleted as i64))
            .payload("bytes_reclaimed", Value::Int(bytes_reclaimed as i64))])?;
        }
        Ok(SegmentCompaction {
            segments_deleted,
            bytes_reclaimed,
        })
    }

    /// On-disk footprint of this store's WAL family.
    pub fn footprint(&self) -> Result<WalFootprint> {
        let segments = segment::list_segments(&self.path)?;
        let mut segment_bytes = 0u64;
        for (_, seg_path) in &segments {
            segment_bytes += std::fs::metadata(seg_path).map(|m| m.len()).unwrap_or(0);
        }
        let snapshot_bytes = std::fs::metadata(snapshot::snapshot_path(&self.path))
            .map(|m| m.len())
            .unwrap_or(0);
        Ok(WalFootprint {
            active_bytes: self.active_bytes.load(Ordering::Relaxed),
            segment_count: segments.len(),
            segment_bytes,
            snapshot_bytes,
            events_since_checkpoint: self.events_since_ckpt.load(Ordering::Relaxed),
        })
    }

    /// Shrink the log to the store's current state (dropping deleted runs
    /// and superseded records): a checkpoint followed by segment
    /// compaction. Used after retention/GDPR deletion to reclaim disk.
    /// Returns total on-disk bytes before and after.
    pub fn rewrite(&self) -> Result<(u64, u64)> {
        let before = self.footprint()?.total_bytes();
        self.checkpoint()?;
        self.compact_segments()?;
        self.tele.rewrites.incr();
        let after = self.footprint()?.total_bytes();
        Ok((before, after))
    }
}

impl Store for WalStore {
    fn register_component(&self, rec: ComponentRecord) -> Result<()> {
        self.with_gate(|| {
            self.mem.register_component(rec.clone())?;
            self.append(&WalEvent::Component { rec })
        })
    }

    fn component(&self, name: &str) -> Result<Option<ComponentRecord>> {
        self.mem.component(name)
    }

    fn components(&self) -> Result<Vec<ComponentRecord>> {
        self.mem.components()
    }

    fn log_run(&self, mut run: ComponentRunRecord) -> Result<RunId> {
        self.with_gate(|| {
            let id = self.mem.log_run(run.clone())?;
            // Log the record with its assigned id so replay restores ids.
            run.id = id;
            self.append(&WalEvent::Run { rec: run })?;
            Ok(id)
        })
    }

    fn log_runs(&self, runs: Vec<ComponentRunRecord>) -> Result<Vec<RunId>> {
        self.with_gate(|| {
            let mut recs = runs.clone();
            let ids = self.mem.log_runs(runs)?;
            for (rec, id) in recs.iter_mut().zip(ids.iter()) {
                rec.id = *id;
            }
            let events: Vec<WalEvent> = recs.into_iter().map(|rec| WalEvent::Run { rec }).collect();
            self.append_all(&events)?;
            Ok(ids)
        })
    }

    fn log_metrics(&self, metrics: Vec<MetricRecord>) -> Result<()> {
        let rolls = self.with_gate(|| {
            let rolls = self.mem.ingest_metrics(metrics.clone())?;
            let events: Vec<WalEvent> = metrics
                .into_iter()
                .map(|rec| WalEvent::Metric { rec })
                .collect();
            self.append_all(&events)?;
            Ok(rolls)
        })?;
        // Drift routing journals events and incidents of its own, so it
        // runs after the gate releases and takes the normal durable
        // `log_events`/`upsert_incident` paths (re-entering the gate while
        // a checkpointer waits for it would deadlock).
        self.mem.route_rolls(self, &rolls)
    }

    fn log_run_bundle(&self, bundle: RunBundle) -> Result<RunId> {
        let out = self.with_gate(|| {
            let mut events: Vec<WalEvent> = Vec::with_capacity(
                bundle.pointers.len() + 1 + bundle.metrics.len() + bundle.events.len(),
            );
            for rec in bundle.pointers {
                self.mem.upsert_io_pointer(rec.clone())?;
                events.push(WalEvent::IoPointer { rec });
            }
            let mut run = bundle.run;
            let id = self.mem.log_run(run.clone())?;
            run.id = id;
            events.push(WalEvent::Run { rec: run });
            let mut metrics = bundle.metrics;
            for m in &mut metrics {
                m.run_id = Some(id);
            }
            let rolls = self.mem.ingest_metrics(metrics.clone())?;
            events.extend(metrics.into_iter().map(|rec| WalEvent::Metric { rec }));
            // Journal events ride the same single group-commit append as
            // the run and its metrics: stamp the run id, let the memory
            // store assign ids (and fan out to live subscribers), then log
            // the id-stamped records.
            let mut obs = bundle.events;
            for e in &mut obs {
                if e.run_id.is_none() {
                    e.run_id = Some(id);
                }
            }
            if !obs.is_empty() {
                let event_ids = self.mem.log_events(obs.clone())?;
                for (e, eid) in obs.iter_mut().zip(event_ids.iter()) {
                    e.id = *eid;
                }
                events.extend(obs.into_iter().map(|rec| WalEvent::Obs { rec }));
            }
            self.append_all(&events)?;
            Ok((id, rolls))
        });
        let (id, rolls) = out?;
        // Outside the gate for the same reason as `log_metrics`.
        self.mem.route_rolls(self, &rolls)?;
        Ok(id)
    }

    fn run(&self, id: RunId) -> Result<Option<ComponentRunRecord>> {
        self.mem.run(id)
    }

    fn runs_for_component(&self, name: &str) -> Result<Vec<RunId>> {
        self.mem.runs_for_component(name)
    }

    fn latest_run(&self, name: &str) -> Result<Option<ComponentRunRecord>> {
        self.mem.latest_run(name)
    }

    fn run_ids(&self) -> Result<Vec<RunId>> {
        self.mem.run_ids()
    }

    // Reads never touch the log; the sharded scan paths (and their
    // telemetry, recorded in the shared registry) apply unchanged.
    fn scan_runs(
        &self,
        since: Option<RunId>,
        filter: &RunFilter,
        limit: Option<usize>,
    ) -> Result<Vec<ComponentRunRecord>> {
        self.mem.scan_runs(since, filter, limit)
    }

    fn scan_runs_chunked(
        &self,
        since: Option<RunId>,
        filter: &RunFilter,
        chunk_size: usize,
        visit: &mut dyn FnMut(&[ComponentRunRecord]) -> bool,
    ) -> Result<()> {
        self.mem.scan_runs_chunked(since, filter, chunk_size, visit)
    }

    fn scan_runs_indexed(
        &self,
        since: Option<RunId>,
        filter: &RunFilter,
        limit: Option<usize>,
        route: IndexRoute,
    ) -> Result<Option<Vec<ComponentRunRecord>>> {
        self.mem.scan_runs_indexed(since, filter, limit, route)
    }

    fn scan_runs_grouped(
        &self,
        filter: &RunFilter,
        route: Option<IndexRoute>,
        group_cols: &[usize],
        aggs: &[AggInput],
    ) -> Result<Option<Vec<GroupPartial>>> {
        self.mem.scan_runs_grouped(filter, route, group_cols, aggs)
    }

    fn index_stats(&self) -> Result<Option<IndexStats>> {
        self.mem.index_stats()
    }

    fn index_footprint(&self) -> Result<Vec<IndexFootprint>> {
        self.mem.index_footprint()
    }

    fn prunable_segments(&self, filter: &EventFilter) -> Result<Option<(u64, u64)>> {
        let zones = self.zones.lock();
        let total = zones.len() as u64;
        let pruned = zones
            .values()
            .filter(|z| z.as_ref().is_some_and(|z| z.excludes_events(filter)))
            .count() as u64;
        Ok(Some((pruned, total)))
    }

    fn component_history(&self, name: &str, limit: usize) -> Result<Vec<ComponentRunRecord>> {
        self.mem.component_history(name, limit)
    }

    fn upsert_io_pointer(&self, rec: IoPointerRecord) -> Result<()> {
        self.with_gate(|| {
            self.mem.upsert_io_pointer(rec.clone())?;
            self.append(&WalEvent::IoPointer { rec })
        })
    }

    fn io_pointer(&self, name: &str) -> Result<Option<IoPointerRecord>> {
        self.mem.io_pointer(name)
    }

    fn io_pointers(&self) -> Result<Vec<IoPointerRecord>> {
        self.mem.io_pointers()
    }

    fn producers_of(&self, io: &str) -> Result<Vec<RunId>> {
        self.mem.producers_of(io)
    }

    fn consumers_of(&self, io: &str) -> Result<Vec<RunId>> {
        self.mem.consumers_of(io)
    }

    fn set_flag(&self, io: &str, flag: bool) -> Result<bool> {
        self.with_gate(|| {
            let prev = self.mem.set_flag(io, flag)?;
            self.append(&WalEvent::Flag {
                io: io.to_owned(),
                flag,
            })?;
            Ok(prev)
        })
    }

    fn flagged(&self) -> Result<Vec<String>> {
        self.mem.flagged()
    }

    fn log_metric(&self, m: MetricRecord) -> Result<()> {
        let rolls = self.with_gate(|| {
            let rolls = self.mem.ingest_metrics(vec![m.clone()])?;
            self.append(&WalEvent::Metric { rec: m })?;
            Ok(rolls)
        })?;
        // Outside the gate for the same reason as `log_metrics`.
        self.mem.route_rolls(self, &rolls)
    }

    fn metrics(&self, component: &str, name: &str) -> Result<Vec<MetricRecord>> {
        self.mem.metrics(component, name)
    }

    fn metric_names(&self, component: &str) -> Result<Vec<String>> {
        self.mem.metric_names(component)
    }

    fn monitor_summaries(&self) -> Result<Vec<mltrace_metrics::MonitorSummary>> {
        self.mem.monitor_summaries()
    }

    fn delete_runs(&self, ids: &[RunId]) -> Result<usize> {
        self.with_gate(|| {
            let n = self.mem.delete_runs(ids)?;
            self.append(&WalEvent::DeleteRuns { ids: ids.to_vec() })?;
            Ok(n)
        })
    }

    fn delete_io_pointers(&self, names: &[String]) -> Result<usize> {
        self.with_gate(|| {
            let n = self.mem.delete_io_pointers(names)?;
            self.append(&WalEvent::DeleteIos {
                names: names.to_vec(),
            })?;
            Ok(n)
        })
    }

    fn put_summary(&self, s: CompactionSummary) -> Result<()> {
        self.with_gate(|| {
            self.mem.put_summary(s.clone())?;
            self.append(&WalEvent::Summary { rec: s })
        })
    }

    fn summaries(&self, component: &str) -> Result<Vec<CompactionSummary>> {
        self.mem.summaries(component)
    }

    fn log_events(&self, events: Vec<ObservabilityEvent>) -> Result<Vec<EventId>> {
        if events.is_empty() {
            return Ok(Vec::new());
        }
        self.with_gate(|| {
            let mut recs = events.clone();
            // The memory store assigns ids and publishes to live
            // subscribers; the log gets the id-stamped records so replay
            // restores ids.
            let ids = self.mem.log_events(events)?;
            for (rec, id) in recs.iter_mut().zip(ids.iter()) {
                rec.id = *id;
            }
            let wal_events: Vec<WalEvent> =
                recs.into_iter().map(|rec| WalEvent::Obs { rec }).collect();
            self.append_all(&wal_events)?;
            Ok(ids)
        })
    }

    fn scan_events(
        &self,
        since: Option<EventId>,
        filter: &EventFilter,
        limit: Option<usize>,
    ) -> Result<Vec<ObservabilityEvent>> {
        self.mem.scan_events(since, filter, limit)
    }

    fn upsert_incident(&self, rec: IncidentRecord) -> Result<()> {
        self.with_gate(|| {
            self.mem.upsert_incident(rec.clone())?;
            self.append(&WalEvent::Incident { rec })
        })
    }

    fn incidents(&self) -> Result<Vec<IncidentRecord>> {
        self.mem.incidents()
    }

    fn put_diagnosis(&self, incident_key: &str, rows: Vec<DiagnosisRecord>) -> Result<()> {
        self.with_gate(|| {
            self.mem.put_diagnosis(incident_key, rows.clone())?;
            self.append(&WalEvent::Diagnosis {
                key: incident_key.to_string(),
                rows,
            })
        })
    }

    fn diagnoses(&self) -> Result<Vec<DiagnosisRecord>> {
        self.mem.diagnoses()
    }

    fn event_bus(&self) -> Option<&EventBus> {
        self.mem.event_bus()
    }

    fn stats(&self) -> Result<StoreStats> {
        self.mem.stats()
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        Some(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Remove a WAL family — active log, snapshot, sealed segments — so a
    /// stale sidecar from an earlier run can't pollute this one.
    fn purge(p: &Path) {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(snapshot::snapshot_path(p));
        if let Ok(segs) = segment::list_segments(p) {
            for (_, sp) in segs {
                let _ = std::fs::remove_file(&sp);
            }
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "mltrace-wal-test-{}-{}.jsonl",
            name,
            std::process::id()
        ));
        purge(&p);
        p
    }

    fn run(component: &str, start: u64, inputs: &[&str], outputs: &[&str]) -> ComponentRunRecord {
        ComponentRunRecord {
            component: component.into(),
            start_ms: start,
            end_ms: start + 1,
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            outputs: outputs.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn replay_restores_full_state() {
        let path = tmp("replay");
        let (a, b);
        {
            let s = WalStore::open(&path).unwrap();
            s.register_component(ComponentRecord::named("etl")).unwrap();
            s.upsert_io_pointer(IoPointerRecord::new("raw.csv", 5))
                .unwrap();
            a = s.log_run(run("etl", 100, &[], &["raw.csv"])).unwrap();
            b = s
                .log_run(run("clean", 200, &["raw.csv"], &["clean.csv"]))
                .unwrap();
            s.set_flag("raw.csv", true).unwrap();
            s.log_metric(MetricRecord {
                component: "etl".into(),
                run_id: Some(a),
                name: "rows".into(),
                value: 123.0,
                ts_ms: 101,
            })
            .unwrap();
            s.sync().unwrap();
        }
        let s = WalStore::open(&path).unwrap();
        assert!(!s.recovered());
        assert_eq!(s.component("etl").unwrap().unwrap().name, "etl");
        assert_eq!(s.run(a).unwrap().unwrap().component, "etl");
        assert_eq!(s.producers_of("raw.csv").unwrap(), vec![a]);
        assert_eq!(s.consumers_of("raw.csv").unwrap(), vec![b]);
        assert_eq!(s.flagged().unwrap(), vec!["raw.csv".to_string()]);
        assert_eq!(s.metrics("etl", "rows").unwrap().len(), 1);
        // Fresh ids continue above replayed ones.
        let c = s.log_run(run("etl", 300, &[], &[])).unwrap();
        assert!(c > b);
        purge(&path);
    }

    #[test]
    fn replay_applies_deletions() {
        let path = tmp("delete");
        {
            let s = WalStore::open(&path).unwrap();
            let a = s.log_run(run("etl", 100, &[], &["raw.csv"])).unwrap();
            s.log_run(run("etl", 200, &[], &["raw.csv"])).unwrap();
            s.delete_runs(&[a]).unwrap();
            s.sync().unwrap();
        }
        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.stats().unwrap().runs, 1);
        purge(&path);
    }

    #[test]
    fn corrupt_line_is_reported_with_line_number() {
        // Mid-log corruption: the bad line is newline-terminated (the
        // append completed), so this is not a torn tail and must error.
        let path = tmp("corrupt");
        std::fs::write(&path, "{\"event\":\"Component\",\"rec\"\n").unwrap();
        match WalStore::open(&path) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("line 1"), "{msg}");
                assert!(msg.contains("byte offset 0"), "{msg}");
                assert!(msg.contains("recovery hint"), "{msg}");
            }
            Err(other) => panic!("expected corrupt error, got {other:?}"),
            Ok(_) => panic!("expected corrupt error, got Ok"),
        }
        purge(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_recovered() {
        let path = tmp("torn");
        let (a, b);
        {
            let s = WalStore::open(&path).unwrap();
            a = s.log_run(run("etl", 100, &[], &["raw.csv"])).unwrap();
            b = s.log_run(run("etl", 200, &[], &["raw.csv"])).unwrap();
            s.sync().unwrap();
        }
        // Simulate a crash mid-append: partial JSON, no trailing newline.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"event\":\"Run\",\"rec\":{\"id\":3")
                .unwrap();
        }
        let s = WalStore::open(&path).unwrap();
        assert!(s.recovered(), "torn tail should be recovered, not fatal");
        assert_eq!(
            s.telemetry().unwrap().snapshot().counters["wal.recoveries_total"],
            1,
            "recovery surfaces in telemetry"
        );
        assert_eq!(s.run_ids().unwrap(), vec![a, b], "complete events survive");
        // The torn fragment is gone; what grew past the clean prefix is the
        // journaled recovery event, itself a complete line.
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(
            content.len() as u64 > clean_len,
            "recovery event appended past the clean prefix"
        );
        assert!(
            !content.contains("{\"event\":\"Run\",\"rec\":{\"id\":3"),
            "torn fragment truncated away"
        );
        assert!(content.ends_with('\n'), "log ends on a complete line");
        let recoveries = s
            .scan_events(
                None,
                &EventFilter::all().with_kind(EventKind::WalRecovered),
                None,
            )
            .unwrap();
        assert_eq!(recoveries.len(), 1, "recovery is journaled");
        assert_eq!(recoveries[0].severity, EventSeverity::Warn);
        // Store remains writable and the next open replays cleanly.
        let c = s.log_run(run("etl", 300, &[], &[])).unwrap();
        assert!(c > b);
        s.sync().unwrap();
        drop(s);
        let s = WalStore::open(&path).unwrap();
        assert!(!s.recovered());
        assert_eq!(s.stats().unwrap().runs, 3);
        assert_eq!(
            s.scan_events(
                None,
                &EventFilter::all().with_kind(EventKind::WalRecovered),
                None
            )
            .unwrap()
            .len(),
            1,
            "recovery event replays without being re-emitted"
        );
        purge(&path);
    }

    #[test]
    fn torn_only_line_recovers_to_empty_store() {
        let path = tmp("torn-only");
        std::fs::write(&path, "{\"event\":\"Run\",\"rec\"").unwrap();
        let s = WalStore::open(&path).unwrap();
        assert!(s.recovered());
        assert_eq!(s.stats().unwrap().runs, 0);
        // The log holds exactly one record now: the journaled recovery.
        assert_eq!(s.stats().unwrap().events, 1);
        let evs = s.scan_events(None, &EventFilter::all(), None).unwrap();
        assert_eq!(evs[0].kind, EventKind::WalRecovered);
        drop(s);
        let s = WalStore::open(&path).unwrap();
        assert!(!s.recovered());
        assert_eq!(s.stats().unwrap().events, 1);
        purge(&path);
    }

    #[test]
    fn group_commit_buffers_until_sync() {
        let path = tmp("group-commit");
        {
            let s = WalStore::open_with(&path, DurabilityPolicy::Batch(10)).unwrap();
            assert_eq!(s.durability(), DurabilityPolicy::Batch(10));
            for i in 0..5 {
                s.log_run(run("etl", i, &[], &["raw.csv"])).unwrap();
            }
            // Below the batch threshold nothing has left the writer buffer.
            assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
            s.sync().unwrap();
            assert!(std::fs::metadata(&path).unwrap().len() > 0);
            // Crossing the threshold flushes without an explicit sync.
            for i in 0..10 {
                s.log_run(run("etl", 100 + i, &[], &[])).unwrap();
            }
        }
        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.stats().unwrap().runs, 15);
        purge(&path);
    }

    #[test]
    fn batched_log_runs_replays_identically() {
        let path = tmp("batched");
        let ids;
        {
            let s = WalStore::open_with(&path, DurabilityPolicy::OnSync).unwrap();
            ids = s
                .log_runs(vec![
                    run("etl", 100, &[], &["raw.csv"]),
                    run("clean", 200, &["raw.csv"], &["clean.csv"]),
                    run("etl", 300, &[], &["raw.csv"]),
                ])
                .unwrap();
            assert_eq!(ids, vec![RunId(1), RunId(2), RunId(3)]);
            s.log_run_bundle(RunBundle {
                run: run("infer", 400, &["clean.csv"], &["pred-1"]),
                pointers: vec![IoPointerRecord::new("pred-1", 400)],
                metrics: vec![MetricRecord {
                    component: "infer".into(),
                    run_id: None,
                    name: "latency_ms".into(),
                    value: 2.0,
                    ts_ms: 401,
                }],
                events: vec![ObservabilityEvent::new(
                    EventKind::RunFinished,
                    EventSeverity::Info,
                    401,
                )
                .component("infer")],
            })
            .unwrap();
            s.sync().unwrap();
        }
        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.stats().unwrap().runs, 4);
        assert_eq!(s.producers_of("raw.csv").unwrap(), vec![ids[0], ids[2]]);
        assert_eq!(s.consumers_of("raw.csv").unwrap(), vec![ids[1]]);
        let pts = s.metrics("infer", "latency_ms").unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].run_id, Some(RunId(4)));
        // The bundled journal event replays with its assigned id and the
        // run id it was stamped with (the OnSync open also journaled a
        // WalPolicy event, which took id 1).
        let evs = s
            .scan_events(
                None,
                &EventFilter::all().with_kind(EventKind::RunFinished),
                None,
            )
            .unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].id, EventId(2));
        assert_eq!(evs[0].run_id, Some(RunId(4)));
        assert_eq!(s.stats().unwrap().events, 2);
        purge(&path);
    }

    #[test]
    fn rewrite_shrinks_log_after_deletions() {
        let path = tmp("rewrite");
        let s = WalStore::open(&path).unwrap();
        let mut ids = Vec::new();
        for i in 0..50 {
            ids.push(s.log_run(run("c", i, &[], &["out.csv"])).unwrap());
        }
        s.delete_runs(&ids[..45]).unwrap();
        s.sync().unwrap();
        let (before, after) = s.rewrite().unwrap();
        assert!(after < before, "rewrite should shrink: {before} -> {after}");
        assert_eq!(s.stats().unwrap().runs, 5);
        // Rewrite = checkpoint + compact: the history is folded into the
        // snapshot and no sealed segment remains.
        let fp = s.footprint().unwrap();
        assert_eq!(fp.segment_count, 0);
        assert!(fp.snapshot_bytes > 0);
        // Store still writable after rewrite, and state replays.
        s.log_run(run("c", 999, &[], &[])).unwrap();
        s.sync().unwrap();
        drop(s);
        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.stats().unwrap().runs, 6);
        purge(&path);
    }

    #[test]
    fn wal_telemetry_counts_appends_flushes_and_fsyncs() {
        let path = tmp("telemetry");
        let s = WalStore::open_with(&path, DurabilityPolicy::Batch(4)).unwrap();
        s.log_runs(vec![
            run("etl", 100, &[], &["raw.csv"]),
            run("etl", 200, &[], &["raw.csv"]),
        ])
        .unwrap();
        s.log_run(run("etl", 300, &[], &[])).unwrap();
        s.sync().unwrap();
        let snap = s.telemetry().unwrap().snapshot();
        // 3 runs + the WalPolicy journal event the non-default open emits.
        assert_eq!(snap.counters["wal.append_events_total"], 4);
        assert_eq!(
            snap.counters["wal.appends_total"], 3,
            "policy event + one batched + one scalar"
        );
        assert_eq!(snap.counters["wal.fsyncs_total"], 1);
        assert!(snap.counters["wal.bytes_written_total"] > 0);
        assert!(snap.counters["wal.flushes_total"] >= 1);
        assert_eq!(snap.counters["wal.recoveries_total"], 0);
        let lat = &snap.histograms["wal.append_all"];
        assert_eq!(lat.count, 3, "all physical appends timed");
        // The memory store underneath reports into the same registry.
        assert_eq!(snap.counters["store.runs_logged_total"], 3);
        let batches = &snap.histograms["wal.group_commit_events"];
        assert_eq!(
            batches.sum, 4,
            "every appended event is attributed to some flush"
        );
        purge(&path);
    }

    #[test]
    fn empty_lines_tolerated() {
        let path = tmp("blank");
        std::fs::write(&path, "\n\n").unwrap();
        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.stats().unwrap().runs, 0);
        purge(&path);
    }

    #[test]
    fn journal_events_and_incidents_replay_identically() {
        use crate::event::IncidentState;
        let path = tmp("journal");
        let ids;
        {
            let s = WalStore::open(&path).unwrap();
            ids = s
                .log_events(vec![
                    ObservabilityEvent::new(EventKind::RunStarted, EventSeverity::Info, 100)
                        .component("etl"),
                    ObservabilityEvent::new(EventKind::AlertFired, EventSeverity::Page, 110)
                        .component("infer")
                        .detail("null-rate breach"),
                ])
                .unwrap();
            assert_eq!(ids, vec![EventId(1), EventId(2)]);
            s.upsert_incident(IncidentRecord {
                key: "infer/null-rate".into(),
                state: IncidentState::Open,
                severity: EventSeverity::Page,
                subject: "infer".into(),
                opened_ms: 110,
                last_fire_ms: 110,
                resolved_ms: None,
                fire_count: 1,
                suppressed_count: 0,
                burn_ms: 0,
                detail: "null-rate breach".into(),
            })
            .unwrap();
            s.sync().unwrap();
        }
        let s = WalStore::open(&path).unwrap();
        let evs = s.scan_events(None, &EventFilter::all(), None).unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].id, EventId(1));
        assert_eq!(evs[1].kind, EventKind::AlertFired);
        assert_eq!(evs[1].detail, "null-rate breach");
        let incs = s.incidents().unwrap();
        assert_eq!(incs.len(), 1);
        assert_eq!(incs[0].key, "infer/null-rate");
        assert_eq!(incs[0].state, IncidentState::Open);
        // Fresh event ids continue above replayed ones.
        let next = s
            .log_events(vec![ObservabilityEvent::new(
                EventKind::RunFinished,
                EventSeverity::Info,
                120,
            )])
            .unwrap();
        assert_eq!(next, vec![EventId(3)]);
        purge(&path);
    }

    #[test]
    fn rewrite_preserves_journal_and_incidents() {
        use crate::event::IncidentState;
        let path = tmp("rewrite-journal");
        let s = WalStore::open(&path).unwrap();
        let mut run_ids = Vec::new();
        for i in 0..20 {
            run_ids.push(s.log_run(run("c", i, &[], &["out.csv"])).unwrap());
        }
        s.log_events(vec![ObservabilityEvent::new(
            EventKind::StalenessFlagged,
            EventSeverity::Warn,
            50,
        )
        .component("c")])
            .unwrap();
        s.upsert_incident(IncidentRecord {
            key: "c/stale".into(),
            state: IncidentState::Resolved,
            severity: EventSeverity::Page,
            subject: "c".into(),
            opened_ms: 10,
            last_fire_ms: 20,
            resolved_ms: Some(40),
            fire_count: 3,
            suppressed_count: 1,
            burn_ms: 30,
            detail: "resolved after quiet period".into(),
        })
        .unwrap();
        s.delete_runs(&run_ids[..15]).unwrap();
        s.sync().unwrap();
        s.rewrite().unwrap();
        drop(s);
        let s = WalStore::open(&path).unwrap();
        assert_eq!(s.stats().unwrap().runs, 5);
        let evs = s
            .scan_events(
                None,
                &EventFilter::all().with_kind(EventKind::StalenessFlagged),
                None,
            )
            .unwrap();
        assert_eq!(evs.len(), 1, "journal survives rewrite");
        assert_eq!(evs[0].kind, EventKind::StalenessFlagged);
        // The rewrite itself is journaled: a checkpoint and a compaction.
        assert_eq!(
            s.scan_events(
                None,
                &EventFilter::all().with_kind(EventKind::CheckpointWritten),
                None
            )
            .unwrap()
            .len(),
            1
        );
        assert_eq!(
            s.scan_events(
                None,
                &EventFilter::all().with_kind(EventKind::WalCompacted),
                None
            )
            .unwrap()
            .len(),
            1
        );
        let incs = s.incidents().unwrap();
        assert_eq!(incs.len(), 1, "incidents survive rewrite");
        assert_eq!(incs[0].resolved_ms, Some(40));
        purge(&path);
    }

    #[test]
    fn read_events_from_streams_and_tolerates_torn_tail() {
        let path = tmp("follow");
        let s = WalStore::open(&path).unwrap();
        s.log_run(run("etl", 100, &[], &["raw.csv"])).unwrap();
        s.log_events(vec![ObservabilityEvent::new(
            EventKind::RunStarted,
            EventSeverity::Info,
            100,
        )
        .component("etl")])
            .unwrap();
        s.sync().unwrap();
        // First poll from the top: run lines are skipped, the journal
        // event is decoded.
        let (evs, offset) = read_events_from(&path, 0).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::RunStarted);
        assert_eq!(offset, std::fs::metadata(&path).unwrap().len());
        // Nothing new: no events, offset stays put.
        let (evs, offset2) = read_events_from(&path, offset).unwrap();
        assert!(evs.is_empty());
        assert_eq!(offset2, offset);
        // New event arrives; the poll picks up only the delta.
        s.log_events(vec![ObservabilityEvent::new(
            EventKind::RunFinished,
            EventSeverity::Info,
            200,
        )])
        .unwrap();
        s.sync().unwrap();
        let (evs, offset3) = read_events_from(&path, offset2).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::RunFinished);
        // A torn tail (writer mid-append) is left for the next poll.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"event\":\"Obs\",\"rec\":{\"id\":9")
                .unwrap();
        }
        let (evs, offset4) = read_events_from(&path, offset3).unwrap();
        assert!(evs.is_empty(), "partial line is not decoded");
        assert_eq!(offset4, offset3, "offset does not advance past torn tail");
        purge(&path);
    }

    #[test]
    fn checkpoint_on_empty_store_is_a_noop() {
        let path = tmp("ckpt-empty");
        let s = WalStore::open(&path).unwrap();
        let report = s.checkpoint().unwrap();
        assert!(!report.wrote_snapshot, "nothing to checkpoint");
        assert_eq!(report.sealed_seq, None);
        assert_eq!(s.footprint().unwrap().snapshot_bytes, 0);
        purge(&path);
    }

    #[test]
    fn checkpoint_folds_state_and_cold_open_replays_only_the_tail() {
        let path = tmp("ckpt");
        {
            let s = WalStore::open(&path).unwrap();
            for i in 0..10 {
                s.log_run(run("etl", i, &[], &["raw.csv"])).unwrap();
            }
            let report = s.checkpoint().unwrap();
            assert!(report.wrote_snapshot);
            assert_eq!(report.sealed_seq, Some(1));
            assert!(report.snapshot_bytes > 0);
            assert_eq!(report.events_folded, 10);
            for i in 0..3 {
                s.log_run(run("etl", 100 + i, &[], &[])).unwrap();
            }
            s.sync().unwrap();
        }
        let s = WalStore::open(&path).unwrap();
        assert!(!s.recovered());
        assert!(!s.snapshot_fallback());
        assert_eq!(s.stats().unwrap().runs, 13);
        let snap = s.telemetry().unwrap().snapshot();
        assert_eq!(snap.counters["wal.snapshot_loads_total"], 1);
        // The tail is the CheckpointWritten journal event plus 3 runs; the
        // 10 folded runs come from the snapshot, not replay.
        assert_eq!(snap.counters["wal.replay_events_total"], 4);
        assert_eq!(snap.histograms["wal.recovery"].count, 1);
        // Fresh ids continue above snapshot-restored ones.
        let c = s.log_run(run("etl", 200, &[], &[])).unwrap();
        assert_eq!(c, RunId(14));
        // Footprint sees the sealed segment until compaction reclaims it.
        let fp = s.footprint().unwrap();
        assert_eq!(fp.segment_count, 1);
        assert!(fp.segment_bytes > 0);
        assert!(fp.snapshot_bytes > 0);
        let done = s.compact_segments().unwrap();
        assert_eq!(done.segments_deleted, 1);
        assert!(done.bytes_reclaimed > 0);
        assert_eq!(s.footprint().unwrap().segment_count, 0);
        purge(&path);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_full_replay() {
        let path = tmp("snap-corrupt");
        {
            let s = WalStore::open(&path).unwrap();
            for i in 0..8 {
                s.log_run(run("etl", i, &[], &["raw.csv"])).unwrap();
            }
            s.checkpoint().unwrap();
            s.log_run(run("etl", 99, &[], &[])).unwrap();
            s.sync().unwrap();
        }
        // Scribble over the snapshot. The sealed segment still holds the
        // full history (no compaction ran), so nothing is lost.
        std::fs::write(snapshot::snapshot_path(&path), b"garbage").unwrap();
        let s = WalStore::open(&path).unwrap();
        assert!(s.snapshot_fallback());
        assert!(!s.recovered());
        assert_eq!(s.stats().unwrap().runs, 9);
        let snap = s.telemetry().unwrap().snapshot();
        assert_eq!(snap.counters["wal.snapshot_fallbacks_total"], 1);
        assert_eq!(snap.counters["wal.snapshot_loads_total"], 0);
        // Full replay: 8 runs in the segment + checkpoint event + 1 run.
        assert_eq!(snap.counters["wal.replay_events_total"], 10);
        // The fallback is journaled for the operator.
        let evs = s
            .scan_events(
                None,
                &EventFilter::all().with_kind(EventKind::WalRecovered),
                None,
            )
            .unwrap();
        assert_eq!(evs.len(), 1);
        assert!(evs[0].detail.contains("unreadable"), "{}", evs[0].detail);
        // The next checkpoint replaces the bad snapshot and heals the open.
        s.checkpoint().unwrap();
        drop(s);
        let s = WalStore::open(&path).unwrap();
        assert!(!s.snapshot_fallback());
        assert_eq!(s.stats().unwrap().runs, 9);
        purge(&path);
    }

    #[test]
    fn serial_and_parallel_replay_agree() {
        let path = tmp("parallel");
        {
            let s = WalStore::open_with(&path, DurabilityPolicy::OnSync).unwrap();
            for batch in 0u64..20 {
                let runs: Vec<ComponentRunRecord> = (0u64..1000)
                    .map(|i| run("etl", batch * 1000 + i, &["in.csv"], &["out.csv"]))
                    .collect();
                s.log_runs(runs).unwrap();
            }
            s.sync().unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        assert!(
            len > (2 << 20),
            "fixture must exceed the parallel replay threshold (got {len} bytes)"
        );
        // Torn tail on top, so the parallel path proves its tail handling.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"event\":\"Run\",\"rec\":{\"id\":7")
                .unwrap();
        }
        let copy = tmp("parallel-copy");
        std::fs::copy(&path, &copy).unwrap();
        let serial = WalStore::open_with_options(
            &path,
            WalOptions {
                replay_workers: Some(1),
                ..WalOptions::default()
            },
        )
        .unwrap();
        let parallel = WalStore::open_with_options(
            &copy,
            WalOptions {
                replay_workers: Some(4),
                ..WalOptions::default()
            },
        )
        .unwrap();
        assert!(serial.recovered() && parallel.recovered());
        assert_eq!(serial.stats().unwrap().runs, 20_000);
        assert_eq!(serial.stats().unwrap().runs, parallel.stats().unwrap().runs);
        assert_eq!(serial.run_ids().unwrap(), parallel.run_ids().unwrap());
        assert_eq!(
            serial.producers_of("out.csv").unwrap(),
            parallel.producers_of("out.csv").unwrap()
        );
        assert_eq!(
            serial.consumers_of("in.csv").unwrap(),
            parallel.consumers_of("in.csv").unwrap()
        );
        purge(&path);
        purge(&copy);
    }

    /// Journal event with a fixed subject component, for zone tests.
    fn obs(kind: EventKind, severity: EventSeverity, ts_ms: u64) -> ObservabilityEvent {
        ObservabilityEvent::new(kind, severity, ts_ms).component("etl")
    }

    #[test]
    fn zone_map_bounds_and_bitmaps_gate_pruning() {
        let mut zone = ZoneMap::new();
        let mut a = obs(EventKind::AlertFired, EventSeverity::Warn, 100);
        a.id = EventId(5);
        let mut b = obs(EventKind::RunStarted, EventSeverity::Info, 200);
        b.id = EventId(9);
        zone.observe(EventRef::Obs(&a));
        zone.observe(EventRef::Obs(&b));
        assert_eq!(zone.events, 2);
        // Kind bitmap: present kinds keep the zone, absent kinds prune.
        assert!(!zone.excludes_events(&EventFilter::all().with_kind(EventKind::AlertFired)));
        assert!(zone.excludes_events(&EventFilter::all().with_kind(EventKind::IncidentOpened)));
        // Severity bitmap (exact-match filter semantics).
        assert!(!zone.excludes_events(&EventFilter::all().with_severity(EventSeverity::Warn)));
        assert!(zone.excludes_events(&EventFilter::all().with_severity(EventSeverity::Page)));
        // Timestamp bounds: disjoint windows prune, overlapping keep.
        assert!(zone.excludes_events(&EventFilter::all().at_or_after(201)));
        assert!(zone.excludes_events(&EventFilter::all().at_or_before(99)));
        assert!(!zone.excludes_events(&EventFilter::all().at_or_after(150)));
        // Event-id bounds.
        let mut above = EventFilter::all();
        above.min_id = Some(10);
        assert!(zone.excludes_events(&above));
        let mut within = EventFilter::all();
        within.min_id = Some(6);
        within.max_id = Some(7);
        assert!(!zone.excludes_events(&within));
        // A zone with no journal events excludes every event read — a
        // runs-only segment never needs decoding for `tail`.
        let mut runs_only = ZoneMap::new();
        runs_only.observe(EventRef::Run(&run("etl", 100, &[], &[])));
        assert!(runs_only.excludes_events(&EventFilter::all()));
        assert_eq!(runs_only.runs, 1);
        assert_eq!(runs_only.min_start_ms, Some(100));
    }

    #[test]
    fn unversioned_zones_and_snapshot_headers_decode_and_never_prune() {
        // `{}` is what a pre-v2 reader-writer pair would round-trip: every
        // field defaults, version 0 disables pruning entirely.
        let zone: ZoneMap = serde_json::from_str("{}").unwrap();
        assert_eq!(zone.version, 0);
        assert!(!zone.excludes_events(&EventFilter::all().with_kind(EventKind::AlertFired)));
        // Pre-v2 snapshot headers carry neither format_version nor zone.
        let header: snapshot::SnapshotHeader = serde_json::from_str(
            r#"{"covered_seq":3,"next_run_id":5,"next_event_id":7,"runs_removed":1,"records":0,"created_ms":42}"#,
        )
        .unwrap();
        assert_eq!(header.format_version, 0);
        assert!(header.zone.is_none());
        assert_eq!(header.covered_seq, 3);
    }

    #[test]
    fn zone_footers_prune_cold_journal_reads() {
        let path = tmp("zone-prune");
        let s = WalStore::open(&path).unwrap();
        // Three checkpoints, each sealing a segment with distinct kinds.
        // The post-seal CheckpointWritten event lands in the *next*
        // segment, so segment 1 holds only RunStarted.
        s.log_events(vec![
            obs(EventKind::RunStarted, EventSeverity::Info, 100),
            obs(EventKind::RunStarted, EventSeverity::Info, 110),
        ])
        .unwrap();
        s.checkpoint().unwrap();
        s.log_events(vec![obs(EventKind::AlertFired, EventSeverity::Page, 200)])
            .unwrap();
        s.checkpoint().unwrap();
        s.log_events(vec![obs(
            EventKind::IncidentOpened,
            EventSeverity::Warn,
            300,
        )])
        .unwrap();
        s.checkpoint().unwrap();
        let alerts = EventFilter::all().with_kind(EventKind::AlertFired);
        // The live store's zone cache answers EXPLAIN-style estimates:
        // segments 1 (runs only) and 3 (incident) are prunable.
        assert_eq!(s.prunable_segments(&alerts).unwrap(), Some((2, 3)));
        drop(s);
        // Healthy cold read: the snapshot covers every segment, its zone
        // includes AlertFired, so the answer comes from the snapshot.
        let t = Telemetry::new();
        let read = read_journal(&path, &alerts, None, Some(&t)).unwrap();
        assert!(read.snapshot_used && !read.snapshot_pruned);
        assert_eq!(read.segments_total, 0);
        assert_eq!(read.events.len(), 1);
        assert_eq!(read.events[0].kind, EventKind::AlertFired);
        // Without the snapshot the segments are the only copy — and the
        // zone footers skip 2 of 3 without decoding a line.
        std::fs::remove_file(snapshot::snapshot_path(&path)).unwrap();
        let t = Telemetry::new();
        let read = read_journal(&path, &alerts, None, Some(&t)).unwrap();
        assert!(!read.snapshot_used && !read.snapshot_pruned);
        assert_eq!(read.segments_total, 3);
        assert_eq!(read.segments_pruned, 2);
        assert_eq!(read.events.len(), 1);
        assert_eq!(read.events[0].kind, EventKind::AlertFired);
        assert_eq!(
            t.snapshot()
                .counters
                .get("wal.segments_pruned_total")
                .copied(),
            Some(2)
        );
        purge(&path);
    }

    #[test]
    fn snapshot_zone_skips_parsing_when_filter_excluded() {
        let path = tmp("zone-snapshot");
        {
            let s = WalStore::open(&path).unwrap();
            s.log_run(run("etl", 100, &[], &["out.csv"])).unwrap();
            s.log_events(vec![obs(EventKind::AlertFired, EventSeverity::Page, 200)])
                .unwrap();
            s.checkpoint().unwrap();
        }
        // No StalenessFlagged anywhere: the snapshot's zone proves it, so
        // its records are skipped without parsing a single one.
        let read = read_journal(
            &path,
            &EventFilter::all().with_kind(EventKind::StalenessFlagged),
            None,
            None,
        )
        .unwrap();
        assert!(read.snapshot_pruned && !read.snapshot_used);
        assert_eq!(read.segments_total, 0);
        assert!(read.events.is_empty());
        purge(&path);
    }

    #[test]
    fn segments_without_zone_footers_still_replay_and_read() {
        let path = tmp("zone-v1");
        {
            let s = WalStore::open(&path).unwrap();
            s.log_run(run("etl", 100, &[], &["out.csv"])).unwrap();
            s.log_events(vec![obs(EventKind::AlertFired, EventSeverity::Page, 200)])
                .unwrap();
            s.checkpoint().unwrap();
        }
        // Strip the footer line, leaving the pre-v2 segment layout.
        let seg = segment::segment_path(&path, 1);
        assert!(read_zone_footer(&seg).is_some());
        let body = std::fs::read(&seg).unwrap();
        let cut = body[..body.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|p| p + 1)
            .unwrap();
        std::fs::write(&seg, &body[..cut]).unwrap();
        assert!(read_zone_footer(&seg).is_none());
        // Force replay from the footerless segment, as a pre-v2 tree.
        std::fs::remove_file(snapshot::snapshot_path(&path)).unwrap();
        let s = WalStore::open(&path).unwrap();
        assert!(!s.recovered());
        assert_eq!(s.stats().unwrap().runs, 1);
        assert_eq!(
            s.scan_events(
                None,
                &EventFilter::all().with_kind(EventKind::AlertFired),
                None
            )
            .unwrap()
            .len(),
            1
        );
        drop(s);
        // Cold reads degrade to "cannot prune", never to an error.
        let read = read_journal(
            &path,
            &EventFilter::all().with_kind(EventKind::IncidentOpened),
            None,
            None,
        )
        .unwrap();
        assert_eq!(read.segments_total, 1);
        assert_eq!(read.segments_pruned, 0);
        assert!(read.events.is_empty());
        purge(&path);
    }

    #[test]
    fn journal_follower_skips_sealed_segments_via_zone() {
        let path = tmp("follower-zone");
        let s = WalStore::open(&path).unwrap();
        let mut f = JournalFollower::from_end(&path)
            .unwrap()
            .with_filter(EventFilter::all().with_kind(EventKind::AlertFired));
        s.log_events(vec![
            obs(EventKind::RunStarted, EventSeverity::Info, 100),
            obs(EventKind::RunFinished, EventSeverity::Info, 110),
        ])
        .unwrap();
        // Seals a segment whose zone has no AlertFired: the follower must
        // cross the rollover without decoding it.
        s.checkpoint().unwrap();
        s.log_events(vec![obs(EventKind::AlertFired, EventSeverity::Page, 200)])
            .unwrap();
        s.sync().unwrap();
        let evs = f.poll().unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::AlertFired);
        assert_eq!(f.segments_pruned(), 1);
        // Quiet follow-up poll: nothing new, nothing re-read.
        assert!(f.poll().unwrap().is_empty());
        assert_eq!(f.segments_pruned(), 1);
        purge(&path);
    }

    // ---- MLSNAP02: equivalence with MLSNAP01 and full replay, migration,
    // ---- damage, cold journal reads, open-stage telemetry

    /// Explicit checkpoints only, so copies of one family stay in step.
    fn manual_checkpoints() -> WalOptions {
        WalOptions {
            checkpoint: CheckpointPolicy::disabled(),
            ..WalOptions::default()
        }
    }

    /// Copy a WAL family (active log, snapshot, sealed segments).
    fn copy_family(from: &Path, to: &Path) {
        std::fs::copy(from, to).unwrap();
        let snap = snapshot::snapshot_path(from);
        if snap.exists() {
            std::fs::copy(snap, snapshot::snapshot_path(to)).unwrap();
        }
        for (seq, seg) in segment::list_segments(from).unwrap() {
            std::fs::copy(seg, segment::segment_path(to, seq)).unwrap();
        }
    }

    fn snapshot_magic(path: &Path) -> Vec<u8> {
        std::fs::read(snapshot::snapshot_path(path)).unwrap()[..8].to_vec()
    }

    /// One seeded store holding every kind of record a snapshot folds:
    /// runs with triggers, metadata and dependencies, deletions, flags,
    /// metric series long enough to roll monitoring windows and drift
    /// (plus non-finite points on a never-registered component),
    /// retention summaries, journal events, incidents and diagnoses.
    fn build_rich_store(path: &Path) -> WalStore {
        use crate::event::IncidentState;
        use crate::record::{MetricAggregate, PointerType, RunStatus, TriggerOutcomeRecord};
        let s = WalStore::open_with_options(path, manual_checkpoints()).unwrap();
        let mut seed: u64 = 0x5eed;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for (name, owner) in [("etl", "data"), ("train", "ml"), ("infer", "")] {
            s.register_component(ComponentRecord {
                name: name.into(),
                description: format!("{name} stage"),
                owner: owner.into(),
                tags: vec![name.into(), "naïve ✓".into()],
            })
            .unwrap();
        }
        for (i, name) in ["raw.csv", "clean.csv", "model.pkl", "https://api/predict"]
            .into_iter()
            .enumerate()
        {
            let mut rec = IoPointerRecord::new(name, 10 + i as u64);
            if rec.ptype == PointerType::Model {
                rec.artifact = Some("00ff".repeat(8));
            }
            s.upsert_io_pointer(rec).unwrap();
        }
        s.set_flag("raw.csv", true).unwrap();
        s.set_flag("clean.csv", true).unwrap();
        s.set_flag("clean.csv", false).unwrap();
        let mut ids = Vec::new();
        for i in 0..60u64 {
            let component = ["etl", "train", "infer"][(i % 3) as usize];
            let mut rec = run(component, 1_000 + i * 7, &["raw.csv"], &["clean.csv"]);
            rec.status = [
                RunStatus::Success,
                RunStatus::Failed,
                RunStatus::TriggerFailed,
            ][(next() % 3) as usize];
            rec.code_hash = format!("{:x}", next());
            rec.dependencies = ids.iter().rev().take((i % 3) as usize).copied().collect();
            if i % 4 == 0 {
                rec.triggers.push(TriggerOutcomeRecord {
                    trigger: "no_nulls".into(),
                    phase: "after".into(),
                    passed: i % 8 == 0,
                    detail: "null fraction".into(),
                    values: BTreeMap::from([
                        ("fraction".to_string(), Value::Float(0.125 * i as f64)),
                        (
                            "cols".to_string(),
                            Value::List(vec![Value::Str("fare".into()), Value::Null]),
                        ),
                    ]),
                });
                rec.metadata.insert(
                    "shape".into(),
                    Value::Map(BTreeMap::from([
                        ("rows".to_string(), Value::Int(next() as i64)),
                        ("ok".to_string(), Value::Bool(true)),
                    ])),
                );
            }
            ids.push(s.log_run(rec).unwrap());
        }
        s.log_run_bundle(RunBundle {
            run: run("infer", 5_000, &["model.pkl"], &["pred-1"]),
            pointers: vec![IoPointerRecord::new("pred-1", 5_000)],
            metrics: vec![MetricRecord {
                component: "infer".into(),
                run_id: None,
                name: "rows".into(),
                value: 17.0,
                ts_ms: 5_001,
            }],
            events: vec![ObservabilityEvent::new(
                EventKind::RunFinished,
                EventSeverity::Info,
                5_001,
            )
            .component("infer")],
        })
        .unwrap();
        // Two quiet windows, then a shifted one: window rolls, drift
        // scores, and the journaled events and incident they route to.
        let latency: Vec<MetricRecord> = (0..800u64)
            .map(|i| MetricRecord {
                component: "infer".into(),
                run_id: None,
                name: "latency".into(),
                value: (next() % 1000) as f64 / 100.0 + if i >= 512 { 60.0 } else { 10.0 },
                ts_ms: 6_000 + i,
            })
            .collect();
        s.log_metrics(latency).unwrap();
        for (i, value) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5, f64::NAN]
            .into_iter()
            .enumerate()
        {
            s.log_metric(MetricRecord {
                component: "ghost".into(),
                run_id: Some(ids[i]),
                name: "null_rate".into(),
                value,
                ts_ms: 7_000 + i as u64,
            })
            .unwrap();
        }
        s.delete_runs(&[ids[3], ids[4], ids[40]]).unwrap();
        s.delete_io_pointers(&["https://api/predict".to_string()])
            .unwrap();
        for component in ["etl", "never-registered"] {
            s.put_summary(CompactionSummary {
                component: component.into(),
                window_start_ms: 0,
                window_end_ms: 900,
                run_count: 12,
                failed_count: 2,
                mean_duration_ms: 3.25,
                metric_aggregates: BTreeMap::from([(
                    "rows".to_string(),
                    MetricAggregate {
                        count: 12,
                        mean: 10.5,
                        min: 1.0,
                        max: 20.0,
                    },
                )]),
            })
            .unwrap();
        }
        s.log_events(vec![
            obs(EventKind::AlertFired, EventSeverity::Page, 8_000)
                .run(ids[7])
                .detail("latency breach")
                .payload("threshold", Value::Float(42.5))
                .payload("rule", Value::Str("p95".into())),
            obs(EventKind::StalenessFlagged, EventSeverity::Warn, 8_010),
        ])
        .unwrap();
        s.upsert_incident(IncidentRecord {
            key: "infer/latency-sla".into(),
            state: IncidentState::Acknowledged,
            severity: EventSeverity::Page,
            subject: "infer".into(),
            opened_ms: 8_000,
            last_fire_ms: 8_005,
            resolved_ms: None,
            fire_count: 2,
            suppressed_count: 1,
            burn_ms: 5,
            detail: "latency breach".into(),
        })
        .unwrap();
        for (key, suspects) in [("infer/latency-sla", 2), ("run:7", 1)] {
            let rows = (1..=suspects)
                .map(|rank| DiagnosisRecord {
                    incident_key: key.into(),
                    rank,
                    suspect: ["etl", "train"][rank as usize - 1].into(),
                    evidence_kind: "drift_onset".into(),
                    score: 1.0 / rank as f64,
                    onset_ms: 7_900,
                    distance: rank as u32,
                    detail: "upstream drift".into(),
                })
                .collect();
            s.put_diagnosis(key, rows).unwrap();
        }
        s.sync().unwrap();
        s
    }

    /// Everything observable about a store's state, floats by bits, one
    /// line per fact so a mismatch names what differs.
    fn fingerprint(s: &WalStore) -> Vec<String> {
        use crate::aggregate::canonical_row_key;
        use crate::schema::{self, Table};
        let mut out = vec![
            format!("stats {:?}", s.stats().unwrap()),
            format!("watermarks {:?}", s.mem.watermarks()),
            format!("index_stats {:?}", s.index_stats().unwrap()),
            format!("index_footprint {:?}", s.index_footprint().unwrap()),
            format!("flagged {:?}", s.flagged().unwrap()),
            format!("incidents {:?}", s.incidents().unwrap()),
            format!("diagnoses {:?}", s.diagnoses().unwrap()),
        ];
        for table in [
            Table::Components,
            Table::ComponentRuns,
            Table::IoPointers,
            Table::Metrics,
            Table::Summaries,
            Table::Rollups,
            Table::Events,
            Table::Incidents,
            Table::Diagnoses,
        ] {
            for row in schema::scan(s, table).unwrap() {
                out.push(format!("{} {}", table.name(), canonical_row_key(&row)));
            }
        }
        // Every index route against the full scan of the same filter.
        let mut by_id = RunFilter::all();
        by_id.min_id = Some(10);
        by_id.max_id = Some(45);
        for (route, filter) in [
            (
                IndexRoute::Component,
                RunFilter::all().with_component("train"),
            ),
            (
                IndexRoute::Status,
                RunFilter::all().with_status(crate::record::RunStatus::Failed),
            ),
            (
                IndexRoute::StartTime,
                RunFilter::all().started_at_or_after(1_200),
            ),
            (IndexRoute::IdRange, by_id),
        ] {
            let indexed = s
                .scan_runs_indexed(None, &filter, None, route)
                .unwrap()
                .expect("route applies");
            assert_eq!(indexed, s.scan_runs(None, &filter, None).unwrap());
            let ids: Vec<u64> = indexed.iter().map(|r| r.id.0).collect();
            out.push(format!("route {} {ids:?}", route.name()));
        }
        for m in s.monitor_summaries().unwrap() {
            let floats = [
                m.mean,
                m.variance,
                m.min,
                m.max,
                m.p50,
                m.p95,
                m.p99,
                m.null_rate,
                m.drift_score,
            ]
            .map(f64::to_bits);
            out.push(format!(
                "monitor {}/{} windows {} count {} window_points {} reference {} {} last {} {floats:x?}",
                m.component,
                m.metric,
                m.windows,
                m.count,
                m.window_points,
                m.reference_points,
                m.drift_method,
                m.last_ts_ms,
            ));
        }
        // Every folded record, payloads and trigger values included,
        // through the codec: byte-equal means bit-equal.
        let mut state = Vec::new();
        s.mem
            .visit_state(|event| {
                crate::codec::encode(&mut state, event);
                Ok(())
            })
            .unwrap();
        out.push(format!(
            "state {} bytes {:016x}",
            state.len(),
            crate::hash::fnv1a_64(&state)
        ));
        out
    }

    #[test]
    fn v1_snapshot_v2_snapshot_and_full_replay_open_to_the_same_store() {
        let v2 = tmp("equiv-v2");
        {
            let s = build_rich_store(&v2);
            let report = s.checkpoint().unwrap();
            assert!(report.wrote_snapshot);
            // A tail past the snapshot, so every open also replays.
            s.log_run(run("etl", 9_000, &["raw.csv"], &[])).unwrap();
            s.log_metric(MetricRecord {
                component: "infer".into(),
                run_id: None,
                name: "latency".into(),
                value: 11.0,
                ts_ms: 9_001,
            })
            .unwrap();
            s.sync().unwrap();
        }
        assert_eq!(snapshot_magic(&v2), b"MLSNAP02");
        let (v1, full) = (tmp("equiv-v1"), tmp("equiv-full"));
        copy_family(&v2, &v1);
        copy_family(&v2, &full);
        // The same header and records as an older build wrote them.
        let snapshot::SnapshotLoad::Loaded(snap) = snapshot::read_snapshot(&v2) else {
            panic!("the checkpoint's snapshot loads");
        };
        let events: Vec<WalEvent> = snap
            .records()
            .map(|record| snap.decode(record).unwrap())
            .collect();
        assert_eq!(events.len() as u64, snap.header.records);
        snapshot::write_snapshot_v1(&v1, &snap.header, &events).unwrap();
        assert_eq!(snapshot_magic(&v1), b"MLSNAP01");
        std::fs::remove_file(snapshot::snapshot_path(&full)).unwrap();

        let open = |p: &Path| WalStore::open_with_options(p, manual_checkpoints()).unwrap();
        let (from_v2, from_v1, replayed) = (open(&v2), open(&v1), open(&full));
        for (s, loads) in [(&from_v2, 1), (&from_v1, 1), (&replayed, 0)] {
            assert!(!s.snapshot_fallback() && !s.recovered());
            let snap = s.telemetry().unwrap().snapshot();
            assert_eq!(snap.counters["wal.snapshot_loads_total"], loads);
        }
        let want = fingerprint(&replayed);
        assert!(
            want.iter()
                .any(|l| l.starts_with("events ") && l.contains("drift_scored")),
            "the fixture drifts"
        );
        assert_eq!(replayed.stats().unwrap().incidents, 2, "drift opened one");
        assert_eq!(fingerprint(&from_v2), want, "MLSNAP02 vs full replay");
        assert_eq!(fingerprint(&from_v1), want, "MLSNAP01 vs full replay");

        // Migration: the store opened from v1 checkpoints to v2, and the
        // v1 path is not taken again.
        let id = from_v1.log_run(run("etl", 9_100, &[], &[])).unwrap();
        assert_eq!(id, replayed.log_run(run("etl", 9_100, &[], &[])).unwrap());
        from_v1.checkpoint().unwrap();
        let stats = from_v1.stats().unwrap();
        drop(from_v1);
        assert_eq!(snapshot_magic(&v1), b"MLSNAP02");
        let reopened = open(&v1);
        assert!(!reopened.snapshot_fallback());
        assert_eq!(reopened.stats().unwrap(), stats);
        for p in [&v2, &v1, &full] {
            purge(p);
        }
    }

    #[test]
    fn damaged_v2_snapshot_falls_back_to_full_replay_and_is_journaled() {
        let base = tmp("v2-damage");
        let runs;
        {
            let s = build_rich_store(&base);
            s.checkpoint().unwrap();
            s.log_run(run("etl", 9_000, &[], &[])).unwrap();
            s.sync().unwrap();
            runs = s.stats().unwrap().runs;
        }
        let good = std::fs::read(snapshot::snapshot_path(&base)).unwrap();
        let snapshot::SnapshotLoad::Loaded(snap) = snapshot::read_snapshot(&base) else {
            panic!("the checkpoint's snapshot loads");
        };
        // A count no file could hold, under a checksum that still holds:
        // the footer is not a MAC, so the count must be bounded by the
        // bytes that remain rather than trusted to size anything.
        let hostile = snapshot::SnapshotHeader {
            records: u64::MAX,
            ..snap.header.clone()
        };
        type Damage<'a> = Box<dyn Fn(&Path) + 'a>;
        let damages: [(&str, Damage); 4] = [
            (
                "checksum",
                Box::new(|p| std::fs::write(p, &good[..good.len() / 2]).unwrap()),
            ),
            (
                "checksum",
                Box::new(|p| {
                    let mut flipped = good.clone();
                    flipped[good.len() / 2] ^= 0x10;
                    std::fs::write(p, flipped).unwrap();
                }),
            ),
            (
                "claims 18446744073709551615 records",
                Box::new(|p| {
                    let base = p.with_extension("");
                    snapshot::SnapshotWriter::default()
                        .finish(&base, &hostile)
                        .unwrap();
                }),
            ),
            (
                "claims 18446744073709551615 records",
                Box::new(|p| {
                    let base = p.with_extension("");
                    snapshot::write_snapshot_v1(&base, &hostile, &[]).unwrap();
                }),
            ),
        ];
        for (i, (why, damage)) in damages.iter().enumerate() {
            let copy = tmp(&format!("v2-damage-{i}"));
            copy_family(&base, &copy);
            let snap_path = snapshot::snapshot_path(&copy);
            assert_eq!(snap_path.with_extension(""), copy);
            damage(&snap_path);
            match snapshot::read_snapshot(&copy) {
                snapshot::SnapshotLoad::Corrupt(got) => assert!(got.contains(why), "{got}"),
                _ => panic!("damage {i} went unnoticed"),
            }
            let s = WalStore::open_with_options(&copy, manual_checkpoints()).unwrap();
            assert!(s.snapshot_fallback(), "damage {i}");
            assert_eq!(s.stats().unwrap().runs, runs, "damage {i}");
            let journaled = s
                .scan_events(
                    None,
                    &EventFilter::all().with_kind(EventKind::WalRecovered),
                    None,
                )
                .unwrap();
            assert_eq!(journaled.len(), 1, "damage {i}");
            assert!(journaled[0].detail.contains(why), "{}", journaled[0].detail);
            purge(&copy);
        }
        purge(&base);
    }

    #[test]
    fn cold_journal_read_reports_an_undecodable_v2_record() {
        let path = tmp("journal-v2-bad");
        {
            let s = WalStore::open(&path).unwrap();
            s.log_run(run("etl", 100, &[], &["out.csv"])).unwrap();
            s.log_events(vec![
                obs(EventKind::AlertFired, EventSeverity::Page, 200),
                obs(EventKind::RunStarted, EventSeverity::Info, 210),
            ])
            .unwrap();
            s.checkpoint().unwrap();
        }
        let intact = read_journal(&path, &EventFilter::all(), None, None).unwrap();
        assert!(intact.snapshot_used);
        assert_eq!(intact.segments_total, 0);
        assert_eq!(intact.events.len(), 3, "two logged + the checkpoint's own");
        // Break the first journal record inside the snapshot — its last
        // byte is the (empty) payload's count — and restore the footer,
        // so only decoding that record can notice.
        let snap_path = snapshot::snapshot_path(&path);
        let mut bytes = std::fs::read(&snap_path).unwrap();
        let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let mut at = 12 + header_len;
        loop {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            if crate::codec::is_obs(&bytes[at + 4..at + 4 + len]) {
                assert_eq!(bytes[at + 4 + len - 1], 0);
                bytes[at + 4 + len - 1] = 9;
                break;
            }
            at += 4 + len;
        }
        let body_end = bytes.len() - 8;
        let footer = crate::hash::fnv1a_64_words(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&footer);
        std::fs::write(&snap_path, bytes).unwrap();
        let read = read_journal(&path, &EventFilter::all(), None, None).unwrap();
        assert!(!read.snapshot_used && !read.snapshot_pruned);
        assert_eq!(read.segments_total, 1, "segments are read from seq 1");
        assert_eq!(read.events, intact.events, "nothing silently dropped");
        // The zone still prunes without decoding anything.
        let none = EventFilter::all().with_kind(EventKind::StalenessFlagged);
        assert!(
            read_journal(&path, &none, None, None)
                .unwrap()
                .snapshot_pruned
        );
        purge(&path);
    }

    #[test]
    fn open_reports_where_recovery_time_went() {
        let path = tmp("open-stages");
        {
            let s = build_rich_store(&path);
            s.checkpoint().unwrap();
            s.log_run(run("etl", 9_000, &[], &[])).unwrap();
            s.sync().unwrap();
        }
        let s = WalStore::open(&path).unwrap();
        let snap = s.telemetry().unwrap().snapshot();
        let stages = [
            "wal.open_snapshot_read_ns",
            "wal.open_snapshot_import_ns",
            "wal.open_tail_replay_ns",
        ]
        .map(|name| snap.gauges[name]);
        assert!(stages.iter().all(|ns| *ns > 0), "{stages:?}");
        let recovery = &snap.histograms["wal.recovery"];
        assert_eq!(recovery.count, 1);
        assert!(
            stages.iter().sum::<i64>() as u64 <= recovery.sum,
            "{stages:?}"
        );
        let rendered = snap.render_human();
        assert!(
            rendered.contains("wal.open_snapshot_import_ns"),
            "{rendered}"
        );
        purge(&path);
    }
}
