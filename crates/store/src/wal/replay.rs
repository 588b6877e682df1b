//! WAL replay: turn a log file back into store state, fast.
//!
//! Replay cost is dominated by serde parsing, not by applying records to
//! the memory store, so the pipeline splits the two: a reader thread cuts
//! the file into newline-aligned blocks, a pool of `std::thread::scope`
//! workers parses blocks concurrently, and the calling thread applies the
//! parsed events strictly in file order (a small reorder buffer absorbs
//! out-of-order completions). Apply order is what makes replay
//! deterministic — id watermarks, journal ordering, and delete-then-log
//! sequences all assume the log's own order — so only the parse stage
//! fans out.
//!
//! Small files skip the pipeline entirely: below [`PARALLEL_MIN_BYTES`]
//! (or with one worker) a plain serial read wins, and the serial path is
//! also the semantic reference — both paths must agree on torn-tail
//! handling, blank-line tolerance, and error positions, which the
//! `serial_and_parallel_replay_agree` test in the parent module pins.

use super::WalEvent;
use crate::error::{Result, StoreError};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::sync::{mpsc, Arc};

/// Newline-aligned block handed to a parse worker.
const BLOCK_BYTES: usize = 2 << 20;

/// Files smaller than this replay serially — thread spin-up would cost
/// more than the parse fan-out saves.
const PARALLEL_MIN_BYTES: u64 = 2 << 20;

/// What replaying one file found.
#[derive(Debug, Default)]
pub(crate) struct FileReplay {
    /// WAL events decoded and applied.
    pub events_applied: u64,
    /// A torn tail (unparseable final partial line) starts at this byte
    /// offset; the caller decides whether to truncate (active log) or
    /// treat it as corruption (sealed segment).
    pub truncate_at: Option<u64>,
    /// The final line parsed but lacked its trailing newline; the caller
    /// must restore the separator before appending.
    pub missing_final_newline: bool,
}

/// Replay failure: real corruption (with position) or a store error.
pub(crate) enum ReplayError {
    /// A complete line (or a mid-file region) failed to parse.
    Corrupt {
        /// 1-based line number of the bad line.
        lineno: usize,
        /// Byte offset where the bad line starts.
        offset: u64,
        /// The underlying parse error.
        why: String,
    },
    /// I/O or apply-side failure.
    Store(StoreError),
}

impl From<StoreError> for ReplayError {
    fn from(e: StoreError) -> Self {
        ReplayError::Store(e)
    }
}

impl From<std::io::Error> for ReplayError {
    fn from(e: std::io::Error) -> Self {
        ReplayError::Store(e.into())
    }
}

/// Parse workers sized to the machine; capped because replay is
/// memory-bandwidth-bound well before 8 parsers saturate.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Replay every WAL line of `path` through `apply`, in file order.
pub(crate) fn replay_file(
    path: &Path,
    workers: usize,
    apply: impl FnMut(WalEvent) -> Result<()>,
) -> std::result::Result<FileReplay, ReplayError> {
    let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    if workers <= 1 || len < PARALLEL_MIN_BYTES {
        replay_serial(path, apply)
    } else {
        replay_parallel(path, workers, apply)
    }
}

/// The reference implementation: line-by-line, single thread.
fn replay_serial(
    path: &Path,
    mut apply: impl FnMut(WalEvent) -> Result<()>,
) -> std::result::Result<FileReplay, ReplayError> {
    let mut reader = BufReader::with_capacity(1 << 20, File::open(path)?);
    let mut line = String::new();
    let mut out = FileReplay::default();
    let mut offset: u64 = 0;
    let mut lineno: usize = 0;
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            break;
        }
        lineno += 1;
        let complete = line.ends_with('\n');
        if !line.trim().is_empty() {
            match serde_json::from_str::<WalEvent>(line.trim_end_matches('\n')) {
                // Zone footers are segment metadata, not state events:
                // skipped, and not counted as applied.
                Ok(WalEvent::Zone { .. }) => {}
                Ok(event) => {
                    apply(event)?;
                    out.events_applied += 1;
                }
                Err(_) if !complete => {
                    // A partial line with no trailing newline can only be
                    // the tail of a crashed append.
                    out.truncate_at = Some(offset);
                    break;
                }
                Err(e) => {
                    return Err(ReplayError::Corrupt {
                        lineno,
                        offset,
                        why: e.to_string(),
                    });
                }
            }
        }
        out.missing_final_newline = !complete;
        offset += n as u64;
    }
    Ok(out)
}

/// The pipelined implementation: one reader, `workers` parsers, in-order
/// apply on the calling thread.
fn replay_parallel(
    path: &Path,
    workers: usize,
    mut apply: impl FnMut(WalEvent) -> Result<()>,
) -> std::result::Result<FileReplay, ReplayError> {
    /// Complete lines (every line newline-terminated) plus their position.
    struct Block {
        idx: usize,
        base_offset: u64,
        base_lineno: usize,
        data: Vec<u8>,
    }

    /// The partial final line left after the last newline in the file.
    struct ReaderTail {
        bytes: Vec<u8>,
        offset: u64,
        lineno: usize,
    }

    enum Parsed {
        Events(Vec<WalEvent>),
        Corrupt {
            lineno: usize,
            offset: u64,
            why: String,
        },
    }

    fn parse_block(block: &Block) -> Parsed {
        let mut events = Vec::new();
        let mut offset = block.base_offset;
        for (lineno, line) in
            (block.base_lineno + 1..).zip(block.data.split_inclusive(|&b| b == b'\n'))
        {
            let body = &line[..line.len() - 1];
            if !body.iter().all(|b| b.is_ascii_whitespace()) {
                match serde_json::from_slice::<WalEvent>(body) {
                    // Zone footers are metadata; drop them at parse time
                    // so the apply stage never sees (or counts) them.
                    Ok(WalEvent::Zone { .. }) => {}
                    Ok(event) => events.push(event),
                    Err(e) => {
                        return Parsed::Corrupt {
                            lineno,
                            offset,
                            why: e.to_string(),
                        };
                    }
                }
            }
            offset += line.len() as u64;
        }
        Parsed::Events(events)
    }

    let file = File::open(path)?;
    std::thread::scope(|scope| -> std::result::Result<FileReplay, ReplayError> {
        let (block_tx, block_rx) = mpsc::sync_channel::<Block>(workers * 2);
        let block_rx = Arc::new(Mutex::new(block_rx));
        let (result_tx, result_rx) = mpsc::sync_channel::<(usize, Parsed)>(workers * 2);

        // Reader: cut the file into newline-aligned blocks. The partial
        // line after the file's last newline comes back as the tail.
        let reader = scope.spawn(move || -> std::io::Result<ReaderTail> {
            let mut file = file;
            let mut buf = vec![0u8; BLOCK_BYTES];
            let mut carry: Vec<u8> = Vec::new();
            let mut carry_offset: u64 = 0;
            let mut carry_lineno: usize = 0;
            let mut idx = 0usize;
            loop {
                let n = file.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                let chunk = &buf[..n];
                match chunk.iter().rposition(|&b| b == b'\n') {
                    Some(pos) => {
                        let mut data = std::mem::take(&mut carry);
                        data.extend_from_slice(&chunk[..=pos]);
                        let base_offset = carry_offset;
                        let base_lineno = carry_lineno;
                        carry_offset = base_offset + data.len() as u64;
                        carry_lineno = base_lineno + data.iter().filter(|&&b| b == b'\n').count();
                        carry.extend_from_slice(&chunk[pos + 1..]);
                        let block = Block {
                            idx,
                            base_offset,
                            base_lineno,
                            data,
                        };
                        if block_tx.send(block).is_err() {
                            // Receivers are gone: an error is being
                            // reported downstream; stop reading.
                            break;
                        }
                        idx += 1;
                    }
                    None => carry.extend_from_slice(chunk),
                }
            }
            Ok(ReaderTail {
                bytes: carry,
                offset: carry_offset,
                lineno: carry_lineno,
            })
        });

        for _ in 0..workers {
            let rx = Arc::clone(&block_rx);
            let tx = result_tx.clone();
            scope.spawn(move || loop {
                let block = {
                    let guard = rx.lock();
                    match guard.recv() {
                        Ok(block) => block,
                        Err(_) => break,
                    }
                };
                let parsed = parse_block(&block);
                if tx.send((block.idx, parsed)).is_err() {
                    break;
                }
            });
        }
        drop(result_tx);

        // Apply strictly in file order; `pending` holds blocks that
        // finished before their predecessors. On failure keep draining so
        // the reader and workers can exit, but stop applying.
        let mut pending: BTreeMap<usize, Parsed> = BTreeMap::new();
        let mut next = 0usize;
        let mut applied: u64 = 0;
        let mut failure: Option<ReplayError> = None;
        for (idx, parsed) in result_rx {
            if failure.is_some() {
                continue;
            }
            pending.insert(idx, parsed);
            while failure.is_none() {
                let Some(parsed) = pending.remove(&next) else {
                    break;
                };
                match parsed {
                    Parsed::Events(events) => {
                        for event in events {
                            if let Err(e) = apply(event) {
                                failure = Some(ReplayError::Store(e));
                                break;
                            }
                            applied += 1;
                        }
                    }
                    Parsed::Corrupt {
                        lineno,
                        offset,
                        why,
                    } => {
                        failure = Some(ReplayError::Corrupt {
                            lineno,
                            offset,
                            why,
                        });
                    }
                }
                next += 1;
            }
        }
        let tail = reader.join().expect("wal replay reader panicked")?;
        if let Some(e) = failure {
            return Err(e);
        }

        // The final partial line, handled exactly like the serial path.
        let mut out = FileReplay {
            events_applied: applied,
            ..FileReplay::default()
        };
        if !tail.bytes.is_empty() {
            if tail.bytes.iter().all(u8::is_ascii_whitespace) {
                out.missing_final_newline = true;
            } else {
                match serde_json::from_slice::<WalEvent>(&tail.bytes) {
                    Ok(WalEvent::Zone { .. }) => out.missing_final_newline = true,
                    Ok(event) => {
                        apply(event).map_err(ReplayError::Store)?;
                        out.events_applied += 1;
                        out.missing_final_newline = true;
                    }
                    Err(_) => out.truncate_at = Some(tail.offset),
                }
            }
        }
        let _ = tail.lineno;
        Ok(out)
    })
}
