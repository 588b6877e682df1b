//! # mltrace-store
//!
//! The storage layer of the mltrace reproduction (Figure 2 of *"Towards
//! Observability for Machine Learning Pipelines"*, VLDB 2022): an embedded
//! store for component metadata, component-run logs, I/O pointers, metric
//! series, plus the operational machinery the paper's challenges sections
//! call for — WAL durability, content-addressed artifact dedup (§5.1), log
//! compaction (§5.3), and forward-trace GDPR deletion (§5.3).
//!
//! Entry points:
//! * [`MemoryStore`] / [`WalStore`] — [`Store`] implementations. The
//!   memory store is lock-sharded for concurrent ingest; the WAL store
//!   adds group commit with a configurable [`DurabilityPolicy`] (see the
//!   [`wal`] module docs for the durability/throughput trade-off table).
//! * [`Store::log_runs`] / [`Store::log_run_bundle`] — batched ingest
//!   APIs for the paper's §3.4 million-node/day scale scenario.
//! * [`ArtifactStore`] — chunk-deduplicating payload storage.
//! * [`retention::compact_before`], [`deletion::delete_derived`] —
//!   maintenance operations over any [`Store`].
//! * [`schema`] — relational view consumed by the SQL engine.

#![warn(missing_docs)]

pub mod aggregate;
pub mod artifact;
pub mod artifact_disk;
pub mod clock;
mod codec;
pub mod deletion;
pub mod error;
pub mod event;
pub mod hash;
pub mod memory;
pub mod record;
pub mod retention;
pub mod scan;
pub mod schema;
pub mod store;
pub mod value;
pub mod wal;

pub use aggregate::{AggInput, AggPartial, ExactSum, GroupPartial};
pub use artifact::{ArtifactStats, ArtifactStore, ChunkerConfig};
pub use clock::{Clock, ManualClock, SystemClock, MS_PER_DAY};
pub use error::{Result, StoreError};
pub use event::{
    DiagnosisRecord, EventBus, EventFilter, EventId, EventKind, EventSeverity, EventSubscription,
    IncidentRecord, IncidentState, ObservabilityEvent, EVENT_KINDS,
};
pub use memory::MemoryStore;
pub use mltrace_metrics::{MonitorConfig, MonitorSummary};
pub use record::{
    CompactionSummary, ComponentRecord, ComponentRunRecord, IoPointerRecord, MetricAggregate,
    MetricRecord, PointerType, RunId, RunStatus, TriggerOutcomeRecord,
};
pub use scan::{IndexRoute, RunFilter};
pub use store::{IndexFootprint, IndexStats, RunBundle, Store, StoreStats};
pub use value::Value;
pub use wal::{
    read_journal, CheckpointPolicy, CheckpointReport, DurabilityPolicy, JournalFollower,
    JournalRead, SegmentCompaction, WalFootprint, WalOptions, WalStore, ZoneMap,
};
