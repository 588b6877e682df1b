//! Binary record codec: one [`WalEvent`] ⇄ one self-contained byte string.
//!
//! Std-only and hand-written. The snapshot body (`MLSNAP02`, see
//! `wal::snapshot`) is its first user; nothing here knows about snapshots,
//! so ROADMAP item 3 can lift the module unchanged for the log and the
//! wire.
//!
//! # Encoding
//!
//! A record is one kind byte (one per [`WalEvent`] variant) followed by
//! the variant's fields in declaration order:
//!
//! | type | bytes |
//! |---|---|
//! | `u64`, `u32`, ids, lengths, counts | unsigned LEB128 |
//! | `i64` | zigzag, then LEB128 |
//! | `f64` | 8 bytes, little-endian `to_bits` — NaN payloads, ±inf and −0.0 survive, no sentinels |
//! | `bool` | one byte, 0 or 1 |
//! | fieldless enum | one byte, validated against the variant table |
//! | `String` | length + UTF-8 bytes |
//! | `Option<T>` | presence byte, then `T` |
//! | `Vec<T>` | count + elements |
//! | `BTreeMap<String, V>` | count + (key, value) pairs in key order |
//! | [`Value`] | tag byte (`Null`..`Map` = 0..6) + payload |
//!
//! # Decoding hostile bytes
//!
//! [`decode`] never panics and returns [`DecodeError`] for anything it
//! does not accept, trailing bytes included. Every element costs at least
//! one encoded byte, so a length or count larger than the bytes that
//! remain is rejected *before* anything is allocated for it, and a `Vec`
//! reserves at most [`PREALLOC_LIMIT`] elements ahead of decoding them;
//! [`Value`] nesting is capped at [`MAX_VALUE_DEPTH`] so recursion depth
//! does not follow the input either.

use crate::event::{
    DiagnosisRecord, EventId, EventKind, EventSeverity, IncidentRecord, IncidentState,
    ObservabilityEvent, EVENT_KINDS,
};
use crate::record::{
    CompactionSummary, ComponentRecord, ComponentRunRecord, IoPointerRecord, MetricAggregate,
    MetricRecord, PointerType, RunId, RunStatus, TriggerOutcomeRecord,
};
use crate::value::Value;
use crate::wal::{WalEvent, ZoneMap};
use std::collections::BTreeMap;
use std::fmt;

/// Deepest [`Value`] nesting [`decode`] accepts — the limit `serde_json`
/// puts on the JSON log, so a value the log can replay also decodes here.
const MAX_VALUE_DEPTH: usize = 128;

/// Most elements a `Vec` reserves from a decoded count alone. A count is
/// already bounded by the bytes that remain, but elements are wider in
/// memory than on disk and lists nest, so hostile counts could otherwise
/// reserve depth × width × input bytes. Real vectors are far shorter and
/// still get their exact capacity.
const PREALLOC_LIMIT: usize = 4096;

const KIND_COMPONENT: u8 = 1;
const KIND_RUN: u8 = 2;
const KIND_IO_POINTER: u8 = 3;
const KIND_FLAG: u8 = 4;
const KIND_METRIC: u8 = 5;
const KIND_DELETE_RUNS: u8 = 6;
const KIND_DELETE_IOS: u8 = 7;
const KIND_SUMMARY: u8 = 8;
const KIND_OBS: u8 = 9;
const KIND_INCIDENT: u8 = 10;
const KIND_DIAGNOSIS: u8 = 11;
const KIND_ZONE: u8 = 12;

/// Variant tables: a fieldless enum's code is its position here, so
/// reordering the Rust declaration cannot silently change the format.
const RUN_STATUSES: [RunStatus; 3] = [
    RunStatus::Success,
    RunStatus::Failed,
    RunStatus::TriggerFailed,
];
const POINTER_TYPES: [PointerType; 4] = [
    PointerType::Data,
    PointerType::Model,
    PointerType::Endpoint,
    PointerType::Unknown,
];
const SEVERITIES: [EventSeverity; 3] = [
    EventSeverity::Info,
    EventSeverity::Warn,
    EventSeverity::Page,
];
const INCIDENT_STATES: [IncidentState; 3] = [
    IncidentState::Open,
    IncidentState::Acknowledged,
    IncidentState::Resolved,
];

/// A borrowed [`WalEvent`]: what [`encode`] takes, so a caller holding
/// records by reference (the checkpoint's state visitor) encodes them
/// without cloning a single one.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventRef<'a> {
    Component(&'a ComponentRecord),
    Run(&'a ComponentRunRecord),
    IoPointer(&'a IoPointerRecord),
    Flag {
        io: &'a str,
        flag: bool,
    },
    Metric(&'a MetricRecord),
    DeleteRuns(&'a [RunId]),
    DeleteIos(&'a [String]),
    Summary(&'a CompactionSummary),
    Obs(&'a ObservabilityEvent),
    Incident(&'a IncidentRecord),
    Diagnosis {
        key: &'a str,
        rows: &'a [DiagnosisRecord],
    },
    Zone(&'a ZoneMap),
}

impl WalEvent {
    /// Borrow this event for [`encode`] or [`ZoneMap::observe`].
    pub(crate) fn as_ref(&self) -> EventRef<'_> {
        match self {
            WalEvent::Component { rec } => EventRef::Component(rec),
            WalEvent::Run { rec } => EventRef::Run(rec),
            WalEvent::IoPointer { rec } => EventRef::IoPointer(rec),
            WalEvent::Flag { io, flag } => EventRef::Flag { io, flag: *flag },
            WalEvent::Metric { rec } => EventRef::Metric(rec),
            WalEvent::DeleteRuns { ids } => EventRef::DeleteRuns(ids),
            WalEvent::DeleteIos { names } => EventRef::DeleteIos(names),
            WalEvent::Summary { rec } => EventRef::Summary(rec),
            WalEvent::Obs { rec } => EventRef::Obs(rec),
            WalEvent::Incident { rec } => EventRef::Incident(rec),
            WalEvent::Diagnosis { key, rows } => EventRef::Diagnosis { key, rows },
            WalEvent::Zone { map } => EventRef::Zone(map),
        }
    }
}

/// Why [`decode`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DecodeError {
    /// How far into the record the decoder had read.
    pub at: usize,
    /// What was wrong with it.
    pub why: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.why, self.at)
    }
}

type Decoded<T> = std::result::Result<T, DecodeError>;

/// True when `record` is an encoded [`WalEvent::Obs`], told from its kind
/// byte alone: cold journal readers skip every other record undecoded.
pub(crate) fn is_obs(record: &[u8]) -> bool {
    record.first() == Some(&KIND_OBS)
}

// ---------------------------------------------------------------- encode

/// Append the encoding of `event` to `buf`.
pub(crate) fn encode(buf: &mut Vec<u8>, event: EventRef<'_>) {
    match event {
        EventRef::Component(rec) => {
            buf.push(KIND_COMPONENT);
            put_str(buf, &rec.name);
            put_str(buf, &rec.description);
            put_str(buf, &rec.owner);
            put_seq(buf, &rec.tags, |b, s| put_str(b, s));
        }
        EventRef::Run(rec) => {
            buf.push(KIND_RUN);
            put_uint(buf, rec.id.0);
            put_str(buf, &rec.component);
            put_uint(buf, rec.start_ms);
            put_uint(buf, rec.end_ms);
            put_seq(buf, &rec.inputs, |b, s| put_str(b, s));
            put_seq(buf, &rec.outputs, |b, s| put_str(b, s));
            put_str(buf, &rec.code_hash);
            put_str(buf, &rec.notes);
            put_enum(buf, &RUN_STATUSES, rec.status);
            put_seq(buf, &rec.dependencies, |b, id| put_uint(b, id.0));
            put_seq(buf, &rec.triggers, |b, t| {
                put_str(b, &t.trigger);
                put_str(b, &t.phase);
                b.push(u8::from(t.passed));
                put_str(b, &t.detail);
                put_map(b, &t.values, put_value);
            });
            put_map(buf, &rec.metadata, put_value);
        }
        EventRef::IoPointer(rec) => {
            buf.push(KIND_IO_POINTER);
            put_str(buf, &rec.name);
            put_enum(buf, &POINTER_TYPES, rec.ptype);
            buf.push(u8::from(rec.flag));
            put_uint(buf, rec.created_ms);
            put_opt(buf, rec.artifact.as_ref(), |b, s| put_str(b, s));
        }
        EventRef::Flag { io, flag } => {
            buf.push(KIND_FLAG);
            put_str(buf, io);
            buf.push(u8::from(flag));
        }
        EventRef::Metric(rec) => {
            buf.push(KIND_METRIC);
            put_str(buf, &rec.component);
            put_opt(buf, rec.run_id, |b, id| put_uint(b, id.0));
            put_str(buf, &rec.name);
            put_f64(buf, rec.value);
            put_uint(buf, rec.ts_ms);
        }
        EventRef::DeleteRuns(ids) => {
            buf.push(KIND_DELETE_RUNS);
            put_seq(buf, ids, |b, id| put_uint(b, id.0));
        }
        EventRef::DeleteIos(names) => {
            buf.push(KIND_DELETE_IOS);
            put_seq(buf, names, |b, s| put_str(b, s));
        }
        EventRef::Summary(rec) => {
            buf.push(KIND_SUMMARY);
            put_str(buf, &rec.component);
            put_uint(buf, rec.window_start_ms);
            put_uint(buf, rec.window_end_ms);
            put_uint(buf, rec.run_count);
            put_uint(buf, rec.failed_count);
            put_f64(buf, rec.mean_duration_ms);
            put_map(buf, &rec.metric_aggregates, |b, a| {
                put_uint(b, a.count);
                put_f64(b, a.mean);
                put_f64(b, a.min);
                put_f64(b, a.max);
            });
        }
        EventRef::Obs(rec) => {
            buf.push(KIND_OBS);
            put_uint(buf, rec.id.0);
            put_uint(buf, rec.ts_ms);
            put_enum(buf, &EVENT_KINDS, rec.kind);
            put_enum(buf, &SEVERITIES, rec.severity);
            put_str(buf, &rec.component);
            put_opt(buf, rec.run_id, |b, id| put_uint(b, id.0));
            put_str(buf, &rec.detail);
            put_map(buf, &rec.payload, put_value);
        }
        EventRef::Incident(rec) => {
            buf.push(KIND_INCIDENT);
            put_str(buf, &rec.key);
            put_enum(buf, &INCIDENT_STATES, rec.state);
            put_enum(buf, &SEVERITIES, rec.severity);
            put_str(buf, &rec.subject);
            put_uint(buf, rec.opened_ms);
            put_uint(buf, rec.last_fire_ms);
            put_opt(buf, rec.resolved_ms, put_uint);
            put_uint(buf, rec.fire_count);
            put_uint(buf, rec.suppressed_count);
            put_uint(buf, rec.burn_ms);
            put_str(buf, &rec.detail);
        }
        EventRef::Diagnosis { key, rows } => {
            buf.push(KIND_DIAGNOSIS);
            put_str(buf, key);
            put_seq(buf, rows, |b, r| {
                put_str(b, &r.incident_key);
                put_uint(b, r.rank);
                put_str(b, &r.suspect);
                put_str(b, &r.evidence_kind);
                put_f64(b, r.score);
                put_uint(b, r.onset_ms);
                put_uint(b, u64::from(r.distance));
                put_str(b, &r.detail);
            });
        }
        EventRef::Zone(map) => {
            buf.push(KIND_ZONE);
            put_uint(buf, u64::from(map.version));
            put_uint(buf, map.runs);
            put_uint(buf, map.events);
            for bound in [
                map.min_run_id,
                map.max_run_id,
                map.min_start_ms,
                map.max_start_ms,
                map.min_event_id,
                map.max_event_id,
                map.min_event_ts_ms,
                map.max_event_ts_ms,
            ] {
                put_opt(buf, bound, put_uint);
            }
            put_uint(buf, u64::from(map.event_kinds));
            put_uint(buf, u64::from(map.event_severities));
            put_opt(buf, map.metrics, put_uint);
        }
    }
}

fn put_uint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_uint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_enum<T: PartialEq>(buf: &mut Vec<u8>, table: &[T], v: T) {
    let code = table
        .iter()
        .position(|t| *t == v)
        .expect("the variant table lists every variant");
    buf.push(code as u8);
}

fn put_opt<T>(buf: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    match v {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            put(buf, v);
        }
    }
}

fn put_seq<T>(buf: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_uint(buf, items.len() as u64);
    for item in items {
        put(buf, item);
    }
}

fn put_map<V>(buf: &mut Vec<u8>, map: &BTreeMap<String, V>, mut put: impl FnMut(&mut Vec<u8>, &V)) {
    put_uint(buf, map.len() as u64);
    for (k, v) in map {
        put_str(buf, k);
        put(buf, v);
    }
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => buf.extend_from_slice(&[1, u8::from(*b)]),
        Value::Int(i) => {
            buf.push(2);
            // Zigzag: small magnitudes of either sign stay short.
            put_uint(buf, ((*i << 1) ^ (*i >> 63)) as u64);
        }
        Value::Float(f) => {
            buf.push(3);
            put_f64(buf, *f);
        }
        Value::Str(s) => {
            buf.push(4);
            put_str(buf, s);
        }
        Value::List(items) => {
            buf.push(5);
            put_seq(buf, items, put_value);
        }
        Value::Map(map) => {
            buf.push(6);
            put_map(buf, map, put_value);
        }
    }
}

// ---------------------------------------------------------------- decode

/// Decode exactly one record from `bytes` (all of them: trailing bytes
/// are an error).
pub(crate) fn decode(bytes: &[u8]) -> Decoded<WalEvent> {
    let mut r = Reader { buf: bytes, at: 0 };
    let event = r.event()?;
    if r.at != bytes.len() {
        return Err(r.err("trailing bytes after the record"));
    }
    Ok(event)
}

/// Cursor over one record. Every read checks against the bytes that
/// remain; nothing indexes `buf` unchecked.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn err(&self, why: &'static str) -> DecodeError {
        DecodeError { at: self.at, why }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Decoded<&[u8]> {
        if n > self.remaining() {
            return Err(self.err("record ends inside a field"));
        }
        let out = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn byte(&mut self) -> Decoded<u8> {
        Ok(self.take(1)?[0])
    }

    fn uint(&mut self) -> Decoded<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7f);
            // The tenth byte holds bit 63 and nothing else.
            if shift == 63 && bits > 1 {
                break;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.err("integer overflows 64 bits"))
    }

    fn u32(&mut self) -> Decoded<u32> {
        let v = self.uint()?;
        u32::try_from(v).map_err(|_| self.err("integer overflows 32 bits"))
    }

    /// A length or count: at most the bytes that remain, because every
    /// counted element occupies at least one of them. This is the check
    /// that keeps allocations proportional to the input.
    fn len(&mut self) -> Decoded<usize> {
        let n = self.uint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(self.err("length exceeds the bytes that remain")),
        }
    }

    fn f64(&mut self) -> Decoded<f64> {
        let raw: [u8; 8] = self.take(8)?.try_into().expect("take(8) returns 8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    fn bool(&mut self) -> Decoded<bool> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.err("boolean is neither 0 nor 1")),
        }
    }

    fn string(&mut self) -> Decoded<String> {
        let n = self.len()?;
        match std::str::from_utf8(self.take(n)?) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(self.err("string is not UTF-8")),
        }
    }

    fn enumeration<T: Copy>(&mut self, table: &[T]) -> Decoded<T> {
        let code = self.byte()?;
        table
            .get(usize::from(code))
            .copied()
            .ok_or_else(|| self.err("unknown enum variant"))
    }

    fn opt<T>(&mut self, get: impl FnOnce(&mut Self) -> Decoded<T>) -> Decoded<Option<T>> {
        Ok(if self.bool()? { Some(get(self)?) } else { None })
    }

    fn seq<T>(&mut self, mut get: impl FnMut(&mut Self) -> Decoded<T>) -> Decoded<Vec<T>> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n.min(PREALLOC_LIMIT));
        for _ in 0..n {
            out.push(get(self)?);
        }
        Ok(out)
    }

    fn map<V>(
        &mut self,
        mut get: impl FnMut(&mut Self) -> Decoded<V>,
    ) -> Decoded<BTreeMap<String, V>> {
        let n = self.len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let key = self.string()?;
            out.insert(key, get(self)?);
        }
        Ok(out)
    }

    fn strings(&mut self) -> Decoded<Vec<String>> {
        self.seq(Self::string)
    }

    fn run_id(&mut self) -> Decoded<RunId> {
        self.uint().map(RunId)
    }

    fn values(&mut self) -> Decoded<BTreeMap<String, Value>> {
        self.map(|r| r.value(0))
    }

    fn value(&mut self, depth: usize) -> Decoded<Value> {
        if depth > MAX_VALUE_DEPTH {
            return Err(self.err("value nests too deeply"));
        }
        Ok(match self.byte()? {
            0 => Value::Null,
            1 => Value::Bool(self.bool()?),
            2 => {
                let z = self.uint()?;
                Value::Int((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            3 => Value::Float(self.f64()?),
            4 => Value::Str(self.string()?),
            5 => Value::List(self.seq(|r| r.value(depth + 1))?),
            6 => Value::Map(self.map(|r| r.value(depth + 1))?),
            _ => return Err(self.err("unknown value tag")),
        })
    }

    fn event(&mut self) -> Decoded<WalEvent> {
        Ok(match self.byte()? {
            KIND_COMPONENT => WalEvent::Component {
                rec: ComponentRecord {
                    name: self.string()?,
                    description: self.string()?,
                    owner: self.string()?,
                    tags: self.strings()?,
                },
            },
            KIND_RUN => WalEvent::Run {
                rec: ComponentRunRecord {
                    id: self.run_id()?,
                    component: self.string()?,
                    start_ms: self.uint()?,
                    end_ms: self.uint()?,
                    inputs: self.strings()?,
                    outputs: self.strings()?,
                    code_hash: self.string()?,
                    notes: self.string()?,
                    status: self.enumeration(&RUN_STATUSES)?,
                    dependencies: self.seq(Self::run_id)?,
                    triggers: self.seq(|r| {
                        Ok(TriggerOutcomeRecord {
                            trigger: r.string()?,
                            phase: r.string()?,
                            passed: r.bool()?,
                            detail: r.string()?,
                            values: r.values()?,
                        })
                    })?,
                    metadata: self.values()?,
                },
            },
            KIND_IO_POINTER => WalEvent::IoPointer {
                rec: IoPointerRecord {
                    name: self.string()?,
                    ptype: self.enumeration(&POINTER_TYPES)?,
                    flag: self.bool()?,
                    created_ms: self.uint()?,
                    artifact: self.opt(Self::string)?,
                },
            },
            KIND_FLAG => WalEvent::Flag {
                io: self.string()?,
                flag: self.bool()?,
            },
            KIND_METRIC => WalEvent::Metric {
                rec: MetricRecord {
                    component: self.string()?,
                    run_id: self.opt(Self::run_id)?,
                    name: self.string()?,
                    value: self.f64()?,
                    ts_ms: self.uint()?,
                },
            },
            KIND_DELETE_RUNS => WalEvent::DeleteRuns {
                ids: self.seq(Self::run_id)?,
            },
            KIND_DELETE_IOS => WalEvent::DeleteIos {
                names: self.strings()?,
            },
            KIND_SUMMARY => WalEvent::Summary {
                rec: CompactionSummary {
                    component: self.string()?,
                    window_start_ms: self.uint()?,
                    window_end_ms: self.uint()?,
                    run_count: self.uint()?,
                    failed_count: self.uint()?,
                    mean_duration_ms: self.f64()?,
                    metric_aggregates: self.map(|r| {
                        Ok(MetricAggregate {
                            count: r.uint()?,
                            mean: r.f64()?,
                            min: r.f64()?,
                            max: r.f64()?,
                        })
                    })?,
                },
            },
            KIND_OBS => WalEvent::Obs {
                rec: ObservabilityEvent {
                    id: EventId(self.uint()?),
                    ts_ms: self.uint()?,
                    kind: self.enumeration::<EventKind>(&EVENT_KINDS)?,
                    severity: self.enumeration(&SEVERITIES)?,
                    component: self.string()?,
                    run_id: self.opt(Self::run_id)?,
                    detail: self.string()?,
                    payload: self.values()?,
                },
            },
            KIND_INCIDENT => WalEvent::Incident {
                rec: IncidentRecord {
                    key: self.string()?,
                    state: self.enumeration(&INCIDENT_STATES)?,
                    severity: self.enumeration(&SEVERITIES)?,
                    subject: self.string()?,
                    opened_ms: self.uint()?,
                    last_fire_ms: self.uint()?,
                    resolved_ms: self.opt(Self::uint)?,
                    fire_count: self.uint()?,
                    suppressed_count: self.uint()?,
                    burn_ms: self.uint()?,
                    detail: self.string()?,
                },
            },
            KIND_DIAGNOSIS => WalEvent::Diagnosis {
                key: self.string()?,
                rows: self.seq(|r| {
                    Ok(DiagnosisRecord {
                        incident_key: r.string()?,
                        rank: r.uint()?,
                        suspect: r.string()?,
                        evidence_kind: r.string()?,
                        score: r.f64()?,
                        onset_ms: r.uint()?,
                        distance: r.u32()?,
                        detail: r.string()?,
                    })
                })?,
            },
            KIND_ZONE => WalEvent::Zone {
                map: ZoneMap {
                    version: self.u32()?,
                    runs: self.uint()?,
                    events: self.uint()?,
                    min_run_id: self.opt(Self::uint)?,
                    max_run_id: self.opt(Self::uint)?,
                    min_start_ms: self.opt(Self::uint)?,
                    max_start_ms: self.opt(Self::uint)?,
                    min_event_id: self.opt(Self::uint)?,
                    max_event_id: self.opt(Self::uint)?,
                    min_event_ts_ms: self.opt(Self::uint)?,
                    max_event_ts_ms: self.opt(Self::uint)?,
                    event_kinds: self.u32()?,
                    event_severities: self.u32()?,
                    metrics: self.opt(Self::uint)?,
                },
            },
            _ => return Err(self.err("unknown record kind")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a seeded generator with no dependency, so a failure
    /// names a seed that reproduces it anywhere.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize]
        }

        /// Edge values as often as ordinary ones.
        fn uint(&mut self) -> u64 {
            match self.below(6) {
                0 => 0,
                1 => u64::MAX,
                2 => 127 + self.below(3),
                3 => self.below(1 << 14),
                _ => self.next(),
            }
        }

        fn float(&mut self) -> f64 {
            match self.below(8) {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                2 => -0.0,
                3 => f64::NAN,
                // NaNs with arbitrary sign and payload bits.
                4 => f64::from_bits(0x7ff0_0000_0000_0001 | self.next()),
                5 => f64::MIN_POSITIVE / 2.0,
                _ => f64::from_bits(self.next()),
            }
        }

        fn string(&mut self) -> String {
            match self.below(5) {
                0 => String::new(),
                1 => "naïve ✓ 日本語 🚀".into(),
                2 => "x".repeat(self.below(300) as usize),
                _ => format!("s{}", self.below(1000)),
            }
        }

        fn opt<T>(&mut self, get: impl FnOnce(&mut Self) -> T) -> Option<T> {
            (self.below(2) == 1).then(|| get(self))
        }

        /// Empty, short, and (rarely) long.
        fn count(&mut self) -> usize {
            match self.below(8) {
                0 | 1 => 0,
                2 => 200 + self.below(200) as usize,
                _ => 1 + self.below(4) as usize,
            }
        }

        fn seq<T>(&mut self, mut get: impl FnMut(&mut Self) -> T) -> Vec<T> {
            (0..self.count()).map(|_| get(self)).collect()
        }

        fn map<V>(&mut self, mut get: impl FnMut(&mut Self) -> V) -> BTreeMap<String, V> {
            (0..self.count())
                .map(|i| (format!("{}{i}", self.string()), get(self)))
                .collect()
        }

        fn value(&mut self, depth: usize) -> Value {
            let leaf_only = depth >= 4;
            match self.below(if leaf_only { 5 } else { 7 }) {
                0 => Value::Null,
                1 => Value::Bool(self.below(2) == 1),
                2 => Value::Int(self.pick(&[0, -1, 1, i64::MIN, i64::MAX, -64, 63, 64])),
                3 => Value::Float(self.float()),
                4 => Value::Str(self.string()),
                5 => Value::List((0..self.below(4)).map(|_| self.value(depth + 1)).collect()),
                _ => Value::Map(
                    (0..self.below(4))
                        .map(|i| (format!("k{i}"), self.value(depth + 1)))
                        .collect(),
                ),
            }
        }

        fn values(&mut self) -> BTreeMap<String, Value> {
            self.map(|g| g.value(0))
        }

        fn zone(&mut self) -> ZoneMap {
            ZoneMap {
                version: self.uint() as u32,
                runs: self.uint(),
                events: self.uint(),
                min_run_id: self.opt(Self::uint),
                max_run_id: self.opt(Self::uint),
                min_start_ms: self.opt(Self::uint),
                max_start_ms: self.opt(Self::uint),
                min_event_id: self.opt(Self::uint),
                max_event_id: self.opt(Self::uint),
                min_event_ts_ms: self.opt(Self::uint),
                max_event_ts_ms: self.opt(Self::uint),
                event_kinds: self.uint() as u32,
                event_severities: self.uint() as u32,
                metrics: self.opt(Self::uint),
            }
        }

        /// The `variant`-th [`WalEvent`] variant, filled at random.
        fn event(&mut self, variant: u8) -> WalEvent {
            match variant {
                KIND_COMPONENT => WalEvent::Component {
                    rec: ComponentRecord {
                        name: self.string(),
                        description: self.string(),
                        owner: self.string(),
                        tags: self.seq(Self::string),
                    },
                },
                KIND_RUN => WalEvent::Run {
                    rec: ComponentRunRecord {
                        id: RunId(self.uint()),
                        component: self.string(),
                        start_ms: self.uint(),
                        end_ms: self.uint(),
                        inputs: self.seq(Self::string),
                        outputs: self.seq(Self::string),
                        code_hash: self.string(),
                        notes: self.string(),
                        status: self.pick(&RUN_STATUSES),
                        dependencies: self.seq(|g| RunId(g.uint())),
                        triggers: self.seq(|g| TriggerOutcomeRecord {
                            trigger: g.string(),
                            phase: g.string(),
                            passed: g.below(2) == 1,
                            detail: g.string(),
                            values: g.values(),
                        }),
                        metadata: self.values(),
                    },
                },
                KIND_IO_POINTER => WalEvent::IoPointer {
                    rec: IoPointerRecord {
                        name: self.string(),
                        ptype: self.pick(&POINTER_TYPES),
                        flag: self.below(2) == 1,
                        created_ms: self.uint(),
                        artifact: self.opt(Self::string),
                    },
                },
                KIND_FLAG => WalEvent::Flag {
                    io: self.string(),
                    flag: self.below(2) == 1,
                },
                KIND_METRIC => WalEvent::Metric {
                    rec: MetricRecord {
                        component: self.string(),
                        run_id: self.opt(|g| RunId(g.uint())),
                        name: self.string(),
                        value: self.float(),
                        ts_ms: self.uint(),
                    },
                },
                KIND_DELETE_RUNS => WalEvent::DeleteRuns {
                    ids: self.seq(|g| RunId(g.uint())),
                },
                KIND_DELETE_IOS => WalEvent::DeleteIos {
                    names: self.seq(Self::string),
                },
                KIND_SUMMARY => WalEvent::Summary {
                    rec: CompactionSummary {
                        component: self.string(),
                        window_start_ms: self.uint(),
                        window_end_ms: self.uint(),
                        run_count: self.uint(),
                        failed_count: self.uint(),
                        mean_duration_ms: self.float(),
                        metric_aggregates: self.map(|g| MetricAggregate {
                            count: g.uint(),
                            mean: g.float(),
                            min: g.float(),
                            max: g.float(),
                        }),
                    },
                },
                KIND_OBS => WalEvent::Obs {
                    rec: ObservabilityEvent {
                        id: EventId(self.uint()),
                        ts_ms: self.uint(),
                        kind: self.pick(&EVENT_KINDS),
                        severity: self.pick(&SEVERITIES),
                        component: self.string(),
                        run_id: self.opt(|g| RunId(g.uint())),
                        detail: self.string(),
                        payload: self.values(),
                    },
                },
                KIND_INCIDENT => WalEvent::Incident {
                    rec: IncidentRecord {
                        key: self.string(),
                        state: self.pick(&INCIDENT_STATES),
                        severity: self.pick(&SEVERITIES),
                        subject: self.string(),
                        opened_ms: self.uint(),
                        last_fire_ms: self.uint(),
                        resolved_ms: self.opt(Self::uint),
                        fire_count: self.uint(),
                        suppressed_count: self.uint(),
                        burn_ms: self.uint(),
                        detail: self.string(),
                    },
                },
                KIND_DIAGNOSIS => WalEvent::Diagnosis {
                    key: self.string(),
                    rows: self.seq(|g| DiagnosisRecord {
                        incident_key: g.string(),
                        rank: g.uint(),
                        suspect: g.string(),
                        evidence_kind: g.string(),
                        score: g.float(),
                        onset_ms: g.uint(),
                        distance: g.uint() as u32,
                        detail: g.string(),
                    }),
                },
                KIND_ZONE => WalEvent::Zone { map: self.zone() },
                other => unreachable!("no variant {other}"),
            }
        }
    }

    const KINDS: std::ops::RangeInclusive<u8> = KIND_COMPONENT..=KIND_ZONE;

    fn encoded(event: &WalEvent) -> Vec<u8> {
        let mut buf = Vec::new();
        encode(&mut buf, event.as_ref());
        buf
    }

    /// Every float in `event`, as bits, in encoding order.
    fn float_bits(event: &WalEvent) -> Vec<u64> {
        fn of_value(v: &Value, out: &mut Vec<u64>) {
            match v {
                Value::Float(f) => out.push(f.to_bits()),
                Value::List(items) => items.iter().for_each(|v| of_value(v, out)),
                Value::Map(map) => map.values().for_each(|v| of_value(v, out)),
                _ => {}
            }
        }
        let mut out = Vec::new();
        let mut of_values =
            |m: &BTreeMap<String, Value>| m.values().for_each(|v| of_value(v, &mut out));
        match event {
            WalEvent::Run { rec } => {
                rec.triggers.iter().for_each(|t| of_values(&t.values));
                of_values(&rec.metadata);
            }
            WalEvent::Obs { rec } => of_values(&rec.payload),
            WalEvent::Metric { rec } => out.push(rec.value.to_bits()),
            WalEvent::Summary { rec } => {
                out.push(rec.mean_duration_ms.to_bits());
                for a in rec.metric_aggregates.values() {
                    out.extend([a.mean, a.min, a.max].map(f64::to_bits));
                }
            }
            WalEvent::Diagnosis { rows, .. } => out.extend(rows.iter().map(|r| r.score.to_bits())),
            _ => {}
        }
        out
    }

    #[test]
    fn every_variant_round_trips_byte_for_byte() {
        let mut floats_seen = 0usize;
        for seed in 0..400u64 {
            let mut g = Gen(seed);
            for kind in KINDS {
                let event = g.event(kind);
                let bytes = encoded(&event);
                assert_eq!(bytes[0], kind);
                let back = decode(&bytes)
                    .unwrap_or_else(|e| panic!("seed {seed} kind {kind}: {e}\n{event:?}"));
                assert_eq!(encoded(&back), bytes, "seed {seed} kind {kind}: {event:?}");
                // Re-encoding compares floats by bits already; say so
                // directly as well, NaN payloads and −0.0 included.
                let bits = float_bits(&event);
                assert_eq!(float_bits(&back), bits, "seed {seed} kind {kind}");
                floats_seen += bits.len();
                assert_eq!(is_obs(&bytes), kind == KIND_OBS);
            }
        }
        assert!(floats_seen > 10_000, "the generator exercises floats");
    }

    #[test]
    fn edge_values_survive_exactly() {
        let event = WalEvent::Metric {
            rec: MetricRecord {
                component: String::new(),
                run_id: Some(RunId(u64::MAX)),
                name: "日本語".into(),
                value: f64::from_bits(0xfff8_0000_dead_beef),
                ts_ms: u64::MAX,
            },
        };
        let WalEvent::Metric { rec } = decode(&encoded(&event)).unwrap() else {
            panic!("kind changed");
        };
        assert_eq!(rec.value.to_bits(), 0xfff8_0000_dead_beef);
        assert_eq!(rec.run_id, Some(RunId(u64::MAX)));
        assert_eq!(rec.ts_ms, u64::MAX);
        assert_eq!(rec.name, "日本語");
        assert!(rec.component.is_empty());
        for v in [f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, f64::MAX] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let got = Reader { buf: &buf, at: 0 }.f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
        for v in [0, -1, 1, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_value(&mut buf, &Value::Int(v));
            let got = Reader { buf: &buf, at: 0 }.value(0).unwrap();
            assert_eq!(got, Value::Int(v));
        }
    }

    /// Every strict prefix of a record fails to decode, and every
    /// single-bit flip either decodes or fails — no input panics. A count
    /// a flip inflates is rejected against the bytes that remain before
    /// anything is reserved for it, or the sweep would abort on it.
    #[test]
    fn prefixes_and_bit_flips_never_panic() {
        let mut g = Gen(7);
        let mut flips_rejected = 0usize;
        for kind in KINDS {
            // Bounded size keeps the quadratic sweep quick.
            let bytes = std::iter::repeat_with(|| encoded(&g.event(kind)))
                .find(|b| b.len() < 600)
                .expect("the generator makes small records too");
            for cut in 0..bytes.len() {
                assert!(decode(&bytes[..cut]).is_err(), "kind {kind} prefix {cut}");
            }
            let mut flipped = bytes.clone();
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    flipped[i] ^= 1 << bit;
                    if let Ok(event) = decode(&flipped) {
                        // Whatever it decoded to is a value the encoder
                        // accepts.
                        let _ = encoded(&event);
                    } else {
                        flips_rejected += 1;
                    }
                    flipped[i] ^= 1 << bit;
                }
            }
        }
        assert!(flips_rejected > 0);
    }

    #[test]
    fn counts_beyond_the_remaining_bytes_are_rejected_before_allocating() {
        fn uint_bytes(v: u64) -> Vec<u8> {
            let mut b = Vec::new();
            put_uint(&mut b, v);
            b
        }
        // A string, a list, a map and a nested list, each claiming more
        // than the record holds: u64::MAX, and one past what remains.
        for claim in [u64::MAX, u64::MAX >> 1, 1 << 40, 3] {
            let n = uint_bytes(claim);
            let two = [0u8, 0];
            let cases: [Vec<u8>; 4] = [
                [&[KIND_FLAG][..], &n, &two].concat(),
                [&[KIND_DELETE_RUNS][..], &n, &two].concat(),
                [&[KIND_DELETE_IOS][..], &n, &two].concat(),
                // Obs with empty strings, whose payload map claims `n`.
                [&[KIND_OBS, 1, 1, 0, 0, 0, 0, 0][..], &n, &two].concat(),
            ];
            for bytes in cases {
                let err = decode(&bytes).expect_err("hostile count");
                assert_eq!(err.why, "length exceeds the bytes that remain", "{bytes:?}");
            }
        }
        // An over-long and an overflowing LEB128 integer.
        for bad in [
            [0x80u8; 11].to_vec(),
            [[0xff; 9].to_vec(), vec![0x02]].concat(),
        ] {
            let bytes = [&[KIND_DELETE_RUNS][..], &bad].concat();
            assert_eq!(decode(&bytes).unwrap_err().why, "integer overflows 64 bits");
        }
        assert!(decode(&[]).is_err());
        assert_eq!(decode(&[0]).unwrap_err().why, "unknown record kind");
        assert_eq!(
            decode(&[KIND_ZONE + 1]).unwrap_err().why,
            "unknown record kind"
        );
        let mut trailing = encoded(&WalEvent::Flag {
            io: "x".into(),
            flag: true,
        });
        trailing.push(0);
        assert_eq!(
            decode(&trailing).unwrap_err().why,
            "trailing bytes after the record"
        );
    }

    #[test]
    fn value_nesting_is_capped_not_recursed_into() {
        fn nested(depth: usize) -> Vec<u8> {
            // Obs header, then a payload of one key holding `depth`
            // single-element lists around a Null.
            let mut b = vec![KIND_OBS, 1, 1, 0, 0, 0, 0, 0, 1, 1, b'k'];
            for _ in 0..depth {
                b.extend_from_slice(&[5, 1]);
            }
            b.push(0);
            b
        }
        assert!(decode(&nested(MAX_VALUE_DEPTH)).is_ok());
        assert_eq!(
            decode(&nested(MAX_VALUE_DEPTH + 1)).unwrap_err().why,
            "value nests too deeply"
        );
        // Far past the cap: still an error, not a stack overflow.
        assert!(decode(&nested(1 << 20)).is_err());
    }
}
