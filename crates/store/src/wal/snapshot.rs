//! Checkpoint snapshots: the full store state in one compact file, so a
//! cold open replays only the WAL tail written after the last checkpoint.
//!
//! # On-disk format (`MLSNAP02`)
//!
//! | bytes | content |
//! |---|---|
//! | 8 | magic `b"MLSNAP02"`: file type and body format in one probe |
//! | 4 | header length, `u32` LE |
//! | *n* | header: JSON [`SnapshotHeader`] (covered segment, id watermarks, zone map, record count) |
//! | ×N | `u32` LE record length + one record in the binary codec (`crate::codec`) |
//! | 8 | `u64` LE [`fnv1a_64_words`] of every preceding byte |
//!
//! The header stays JSON: it is a few hundred bytes read once, operators
//! inspect it with `head -c`, and its `#[serde(default)]` fields are how
//! it has grown without a version bump. The records are the other 99.99 %
//! of the file and are binary: a record is decoded, applied to the store
//! and dropped, through the same `apply` path as log replay — one
//! semantics, two containers. The log itself is still JSON lines.
//!
//! # `MLSNAP01`
//!
//! The previous format differs in two places: records are the WAL's JSON
//! event encoding and the footer is byte-wise [`fnv1a_64`]. The reader
//! dispatches on the magic and still loads it — through the
//! `serde_json` decoder WAL replay needs anyway — so a database written by
//! an older build opens unchanged. There is no v1 writer outside tests:
//! the next checkpoint (or `mltrace rewrite`) replaces the file with
//! `MLSNAP02` and the v1 path is never taken again.
//!
//! # Crash safety
//!
//! A snapshot is staged at `<base>.snapshot.tmp`, fsynced, then renamed
//! over `<base>.snapshot` (plus a best-effort directory fsync). A crash at
//! any point leaves either the old complete snapshot or the new complete
//! snapshot — never a torn one. Anything short of a valid checksum makes
//! [`read_snapshot`] report [`SnapshotLoad::Corrupt`], and the open falls
//! back to replaying every sealed segment from scratch. The checksum
//! detects torn and rotted files; it is not a MAC, so every count and
//! length read from the file is also bounded by the bytes that remain.

use super::segment::{fsync_dir, sibling};
use super::{WalEvent, ZoneMap};
use crate::codec::{self, EventRef};
use crate::error::{Result, StoreError};
use crate::event::ObservabilityEvent;
use crate::hash::{fnv1a_64, fnv1a_64_words};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Fixed overhead around the records: magic + header length + checksum.
const MIN_LEN: usize = 8 + 4 + 8;

/// How the records and the footer are encoded; told from the magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BodyFormat {
    /// `MLSNAP01`: JSON records, byte-wise FNV footer. Read-only.
    JsonV1,
    /// `MLSNAP02`: binary records, word-wise FNV footer.
    BinaryV2,
}

impl BodyFormat {
    fn magic(self) -> &'static [u8; 8] {
        match self {
            BodyFormat::JsonV1 => b"MLSNAP01",
            BodyFormat::BinaryV2 => b"MLSNAP02",
        }
    }

    fn checksum(self, bytes: &[u8]) -> u64 {
        match self {
            BodyFormat::JsonV1 => fnv1a_64(bytes),
            BodyFormat::BinaryV2 => fnv1a_64_words(bytes),
        }
    }
}

/// Snapshot metadata, serialized as the JSON header.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SnapshotHeader {
    /// Header format version ([`super::ZONE_FORMAT_VERSION`] since zone
    /// maps landed). Absent in pre-v2 snapshots, so it defaults to 0;
    /// both additive fields are `#[serde(default)]`, which is what keeps
    /// unversioned snapshots readable.
    #[serde(default)]
    pub format_version: u32,
    /// Zone map over every folded record, letting cold journal readers
    /// skip parsing the snapshot when their filter excludes it. `None` in
    /// pre-v2 snapshots.
    #[serde(default)]
    pub zone: Option<ZoneMap>,
    /// Highest sealed segment sequence this snapshot covers: replay
    /// resumes at `covered_seq + 1`.
    pub covered_seq: u64,
    /// `next_run_id` watermark at checkpoint time. State folding drops
    /// deletion history, so replaying max-live-id + 1 would regress ids
    /// after deletions; the exact counter travels with the snapshot.
    pub next_run_id: u64,
    /// `next_event_id` watermark (same rationale as `next_run_id`).
    pub next_event_id: u64,
    /// Lifetime `runs_removed` counter, also invisible in folded state.
    pub runs_removed: u64,
    /// Number of length-prefixed records following the header.
    pub records: u64,
    /// Wall-clock creation time, for operators reading `mltrace stats`.
    pub created_ms: u64,
}

/// `<base>.snapshot` — the live snapshot beside the active log.
pub(crate) fn snapshot_path(base: &Path) -> PathBuf {
    sibling(base, "snapshot")
}

/// Staging path for the atomic write.
fn snapshot_tmp_path(base: &Path) -> PathBuf {
    sibling(base, "snapshot.tmp")
}

/// The one snapshot writer: records are encoded straight into the buffer
/// that becomes the file, so a checkpoint holds the store plus one copy
/// of the snapshot and nothing in between.
#[derive(Default)]
pub(crate) struct SnapshotWriter {
    /// The record section so far.
    body: Vec<u8>,
    records: u64,
}

impl SnapshotWriter {
    /// Append one record.
    pub(crate) fn push(&mut self, event: EventRef<'_>) -> Result<()> {
        let at = self.body.len();
        self.body.extend_from_slice(&[0; 4]);
        codec::encode(&mut self.body, event);
        let len = u32::try_from(self.body.len() - at - 4).map_err(|_| {
            StoreError::InvalidRecord("record exceeds the snapshot's 4 GiB frame".into())
        })?;
        self.body[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self.records += 1;
        Ok(())
    }

    /// Records pushed so far — what the header's `records` must say.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Put `header` in front of the records, checksum, and write the file
    /// atomically (temp + fsync + rename). Returns its size in bytes.
    pub(crate) fn finish(self, base: &Path, header: &SnapshotHeader) -> Result<u64> {
        // The header counts and summarizes the records, so it is only
        // known once they are encoded: it is spliced in front of them,
        // one memmove of a buffer that already exists.
        let mut buf = self.body;
        buf.splice(0..0, prefix(BodyFormat::BinaryV2, header)?);
        persist(base, BodyFormat::BinaryV2, buf)
    }
}

/// Magic, header length, header.
fn prefix(format: BodyFormat, header: &SnapshotHeader) -> Result<Vec<u8>> {
    let head = serde_json::to_vec(header)?;
    let len = u32::try_from(head.len())
        .map_err(|_| StoreError::InvalidRecord("snapshot header exceeds 4 GiB".into()))?;
    let mut out = Vec::with_capacity(12 + head.len());
    out.extend_from_slice(format.magic());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&head);
    Ok(out)
}

/// Append the footer to `buf` and move it into place atomically.
fn persist(base: &Path, format: BodyFormat, mut buf: Vec<u8>) -> Result<u64> {
    buf.extend_from_slice(&format.checksum(&buf).to_le_bytes());
    let tmp = snapshot_tmp_path(base);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, snapshot_path(base))?;
    fsync_dir(base);
    Ok(buf.len() as u64)
}

/// A snapshot file whose checksum and framing have been verified.
pub(crate) struct Snapshot {
    /// The decoded header.
    pub header: SnapshotHeader,
    format: BodyFormat,
    /// The whole file.
    buf: Vec<u8>,
    /// Where the record section lies within `buf`.
    body: Range<usize>,
}

impl Snapshot {
    /// Size of the file in bytes.
    pub(crate) fn file_len(&self) -> u64 {
        self.buf.len() as u64
    }

    /// The encoded records, in file order.
    pub(crate) fn records(&self) -> impl Iterator<Item = &[u8]> {
        // `parse` walked these frames already; none can fail now.
        Frames(&self.buf[self.body.clone()]).map_while(|frame| frame.ok())
    }

    /// Decode one of [`Snapshot::records`] in this file's body format.
    pub(crate) fn decode(&self, record: &[u8]) -> std::result::Result<WalEvent, String> {
        match self.format {
            BodyFormat::JsonV1 => serde_json::from_slice(record).map_err(|e| e.to_string()),
            BodyFormat::BinaryV2 => codec::decode(record).map_err(|e| e.to_string()),
        }
    }

    /// Every journal event in the snapshot. A binary body is told apart by
    /// each record's kind byte, so only the journal events are decoded.
    pub(crate) fn journal_events(&self) -> std::result::Result<Vec<ObservabilityEvent>, String> {
        let mut out = Vec::new();
        for (i, record) in self.records().enumerate() {
            if self.format == BodyFormat::BinaryV2 && !codec::is_obs(record) {
                continue;
            }
            match self.decode(record) {
                Ok(WalEvent::Obs { rec }) => out.push(rec),
                Ok(_) => {}
                Err(why) => return Err(format!("record {i}: {why}")),
            }
        }
        Ok(out)
    }
}

/// What loading `<base>.snapshot` found.
// One instance exists transiently during open; Boxing `Loaded` to shrink
// the variant gap would add indirection for no steady-state benefit.
#[allow(clippy::large_enum_variant)]
pub(crate) enum SnapshotLoad {
    /// No snapshot beside the log (no checkpoint has run yet).
    Missing,
    /// A snapshot exists but cannot be trusted (short read, bad magic,
    /// checksum mismatch, undecodable header, broken framing). The open
    /// must fall back to replaying every sealed segment.
    Corrupt(String),
    /// Checksum and framing hold; records are decoded by the caller.
    Loaded(Snapshot),
}

/// Load and structurally validate the snapshot beside `base`. Never
/// returns a hard error: a snapshot is an accelerator, so anything
/// unreadable degrades to [`SnapshotLoad::Corrupt`] and the caller's
/// full-replay fallback.
pub(crate) fn read_snapshot(base: &Path) -> SnapshotLoad {
    let path = snapshot_path(base);
    let buf = match std::fs::read(&path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return SnapshotLoad::Missing,
        Err(e) => return SnapshotLoad::Corrupt(format!("read failed: {e}")),
    };
    match parse(&buf) {
        Ok((format, header, body)) => SnapshotLoad::Loaded(Snapshot {
            header,
            format,
            buf,
            body,
        }),
        Err(why) => SnapshotLoad::Corrupt(why),
    }
}

/// Length-prefixed frames of a record section. Yields an error (and then
/// keeps yielding it) at the first frame the bytes that remain cannot
/// hold.
struct Frames<'a>(&'a [u8]);

impl<'a> Iterator for Frames<'a> {
    type Item = std::result::Result<&'a [u8], &'static str>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.0.is_empty() {
            return None;
        }
        let Some(prefix) = self.0.get(..4) else {
            return Some(Err("truncated length prefix"));
        };
        let len = u32::from_le_bytes(prefix.try_into().expect("4-byte prefix")) as usize;
        if len > self.0.len() - 4 {
            return Some(Err("record overruns the checksummed body"));
        }
        let (frame, rest) = self.0[4..].split_at(len);
        self.0 = rest;
        Some(Ok(frame))
    }
}

/// Validate magic, checksum and framing; return the body format, the
/// header, and where the record section lies. Allocates nothing sized by
/// the file's own counts.
fn parse(buf: &[u8]) -> std::result::Result<(BodyFormat, SnapshotHeader, Range<usize>), String> {
    if buf.len() < MIN_LEN {
        return Err(format!("file too short ({} bytes)", buf.len()));
    }
    let format = [BodyFormat::BinaryV2, BodyFormat::JsonV1]
        .into_iter()
        .find(|f| &buf[..8] == f.magic())
        .ok_or("bad magic (not an mltrace snapshot)")?;
    let body_end = buf.len() - 8;
    let stored = u64::from_le_bytes(buf[body_end..].try_into().expect("8-byte footer"));
    let computed = format.checksum(&buf[..body_end]);
    if stored != computed {
        return Err(format!(
            "checksum mismatch (stored {stored:016x}, computed {computed:016x})"
        ));
    }
    let head = Frames(&buf[8..body_end])
        .next()
        .ok_or("missing header")?
        .map_err(|why| format!("header: {why}"))?;
    let header: SnapshotHeader =
        serde_json::from_slice(head).map_err(|e| format!("header: {e}"))?;
    let body = 8 + 4 + head.len()..body_end;
    // The checksum is not a MAC: a well-formed file can still claim any
    // count. Each record needs at least its 4-byte prefix.
    let most = (body.len() / 4) as u64;
    if header.records > most {
        return Err(format!(
            "header claims {} records but the body holds at most {most}",
            header.records
        ));
    }
    let mut found: u64 = 0;
    for frame in Frames(&buf[body.clone()]) {
        frame?;
        found += 1;
    }
    if found != header.records {
        return Err(format!(
            "header claims {} records but the body frames {found}",
            header.records
        ));
    }
    Ok((format, header, body))
}

/// The `MLSNAP01` writer, kept for tests only: it produces the files an
/// older build left behind, so the read path that still loads them stays
/// covered.
#[cfg(test)]
pub(crate) fn write_snapshot_v1(
    base: &Path,
    header: &SnapshotHeader,
    events: &[WalEvent],
) -> Result<u64> {
    let mut buf = prefix(BodyFormat::JsonV1, header)?;
    for event in events {
        let rec = serde_json::to_vec(event)?;
        buf.extend_from_slice(&(rec.len() as u32).to_le_bytes());
        buf.extend_from_slice(&rec);
    }
    persist(base, BodyFormat::JsonV1, buf)
}
