//! In-memory [`Store`] implementation with the secondary indexes the
//! paper's execution layer needs at runtime (producer/consumer indexes for
//! dependency inference, per-component run lists for history queries).
//!
//! # Sharded locking
//!
//! The paper's §3.4 scale scenario adds Ω(1 million) IOPointer and
//! ComponentRun nodes per day; a single global lock would serialize every
//! writer thread on the ingest path. State is therefore split into
//! independently-locked regions:
//!
//! * run records are sharded by run id (`id % SHARD_COUNT`),
//! * the per-component run lists and the producer/consumer indexes are
//!   sharded by name hash,
//! * components, I/O pointers, metrics, and summaries each sit behind
//!   their own per-table lock,
//! * run ids come from a lock-free atomic counter, so [`Store::log_run`]
//!   never takes a global exclusive lock and N writer threads scale.
//!
//! Reads (the hot path for queries) take the shared lock of exactly the
//! shard they touch. Cross-shard reads (e.g. [`Store::run_ids`],
//! [`Store::stats`]) visit shards one at a time and therefore observe a
//! near-point-in-time snapshot, which is all the query layer needs.
//!
//! The batched [`Store::log_runs`] override additionally groups index
//! updates per shard, taking each shard lock once per batch instead of
//! once per record, and avoids the per-record key clones of the scalar
//! path.

use crate::aggregate::{canonical_row_key, AggInput, GroupPartial};
use crate::codec::EventRef;
use crate::error::{Result, StoreError};
use crate::event::{
    DiagnosisRecord, EventBus, EventFilter, EventId, EventKind, EventSeverity, IncidentRecord,
    IncidentState, ObservabilityEvent, EVENT_KINDS,
};
use crate::record::{
    CompactionSummary, ComponentRecord, ComponentRunRecord, IoPointerRecord, MetricRecord, RunId,
    RunStatus,
};
use crate::scan::{IndexRoute, RunFilter};
use crate::schema::run_column_value;
use crate::store::{IndexFootprint, IndexStats, RunBundle, Store, StoreStats};
use crate::value::Value;
use mltrace_metrics::{
    AlertManager, AlertRule, Comparator, Incident, IncidentChange, IncidentManager, IncidentPhase,
    MonitorConfig, MonitorPlane, MonitorSummary, Severity, WindowRoll,
};
use mltrace_telemetry::{Counter, Gauge, Histogram, Telemetry};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of lock shards for runs and name-keyed indexes. A power of two
/// so shard selection is a mask; 16 is comfortably above the writer
/// parallelism an embedded observability store sees.
const SHARD_COUNT: usize = 16;

/// Shard index for a run id.
#[inline]
fn run_shard(id: u64) -> usize {
    (id as usize) & (SHARD_COUNT - 1)
}

/// Shard index for a name (component or I/O pointer), FNV-1a.
#[inline]
fn name_shard(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) & (SHARD_COUNT - 1)
}

/// Insert `id` into an ascending id list, deduplicating. The common case
/// (ids arrive in order) is an O(1) append; concurrent writers that lose
/// the race insert at the sorted position instead.
fn insert_sorted<T: Ord + Copy>(list: &mut Vec<T>, id: T) {
    match list.last() {
        None => list.push(id),
        Some(&last) if last < id => list.push(id),
        Some(&last) if last == id => {}
        _ => {
            let pos = list.partition_point(|&r| r < id);
            if list.get(pos).copied() != Some(id) {
                list.insert(pos, id);
            }
        }
    }
}

/// Number of [`RunStatus`] variants, sizing the status index.
const STATUS_COUNT: usize = 3;

/// Posting-list slot for a status ([`RunStatus`] deliberately carries no
/// `Hash`/`Ord`, so the index is a fixed array rather than a map).
#[inline]
fn status_slot(status: RunStatus) -> usize {
    match status {
        RunStatus::Success => 0,
        RunStatus::Failed => 1,
        RunStatus::TriggerFailed => 2,
    }
}

/// Number of [`EventKind`] variants, sizing the kind index.
const EVENT_KIND_COUNT: usize = EVENT_KINDS.len();

/// Posting-list slot for an event kind (its position in [`EVENT_KINDS`]).
#[inline]
fn kind_slot(kind: EventKind) -> usize {
    EVENT_KINDS
        .iter()
        .position(|k| *k == kind)
        .expect("EVENT_KINDS enumerates every kind")
}

/// Metric series and the per-component name directory, kept under one
/// lock so the two can never disagree.
#[derive(Default)]
struct MetricsTable {
    /// (component, metric) → points ascending by ts
    series: HashMap<(String, String), Vec<MetricRecord>>,
    /// component → ordered metric names
    names: HashMap<String, Vec<String>>,
}

impl MetricsTable {
    fn log(&mut self, m: MetricRecord) {
        let names = self.names.entry(m.component.clone()).or_default();
        if let Err(pos) = names.binary_search(&m.name) {
            names.insert(pos, m.name.clone());
        }
        let series = self
            .series
            .entry((m.component.clone(), m.name.clone()))
            .or_default();
        // Points normally arrive in time order; tolerate stragglers.
        match series.last() {
            Some(last) if last.ts_ms > m.ts_ms => {
                let pos = series.partition_point(|p| p.ts_ms <= m.ts_ms);
                series.insert(pos, m);
            }
            _ => series.push(m),
        }
    }
}

type IdIndexShard = RwLock<HashMap<String, Vec<RunId>>>;

/// Pre-resolved telemetry handles for the store's hot paths (handle
/// lookup by name takes a registry read lock; the ingest path should pay
/// only relaxed atomic ops).
struct StoreTelemetry {
    registry: Telemetry,
    /// Runs logged through any ingest path.
    runs_logged: Counter,
    /// Metric points logged.
    metrics_logged: Counter,
    /// `log_run_bundle` transactions.
    bundles: Counter,
    /// Pointer upserts.
    pointer_upserts: Counter,
    /// Runs removed by deletion/compaction.
    runs_deleted: Counter,
    /// Runs re-inserted by WAL replay.
    runs_restored: Counter,
    /// Times a writer found a shard lock contended (`try_write` failed
    /// and it had to block) — the direct measure of whether 16 shards
    /// are enough for the writer parallelism actually seen.
    shard_contention: Counter,
    /// End-to-end `log_run_bundle` latency.
    bundle_latency: Histogram,
    /// Run records examined by snapshot scans (filter evaluated against a
    /// borrowed record, no clone yet).
    rows_scanned: Counter,
    /// Run records that survived scan filter + limit and were cloned out.
    rows_returned: Counter,
    /// Shard-lock acquisitions made by snapshot scans. Together with
    /// `rows_scanned`/`rows_returned` this makes pushdown selectivity and
    /// the locks-per-row amortization directly observable.
    scan_locks: Counter,
    /// Journal events appended through any path.
    events_logged: Counter,
    /// Scans that resolved their candidate set from a secondary index.
    index_hits: Counter,
    /// Index-routed scans that fell back to a full shard scan (route not
    /// applicable to the filter).
    index_misses: Counter,
    /// Approximate resident bytes across all secondary indexes, refreshed
    /// whenever the footprint is computed.
    index_bytes: Gauge,
    /// Monitoring-plane windows completed (reference freezes included).
    plane_windows_rolled: Counter,
    /// Monitoring-plane windows scored against a frozen reference.
    plane_drift_scored: Counter,
    /// Scored windows where a drift method crossed its threshold.
    plane_drift_breaches: Counter,
}

impl StoreTelemetry {
    fn new(registry: Telemetry) -> Self {
        StoreTelemetry {
            runs_logged: registry.counter("store.runs_logged_total"),
            metrics_logged: registry.counter("store.metrics_logged_total"),
            bundles: registry.counter("store.bundles_total"),
            pointer_upserts: registry.counter("store.pointer_upserts_total"),
            runs_deleted: registry.counter("store.runs_deleted_total"),
            runs_restored: registry.counter("store.runs_restored_total"),
            shard_contention: registry.counter("store.shard_contention_total"),
            bundle_latency: registry.histogram("store.log_run_bundle"),
            rows_scanned: registry.counter("query.rows_scanned"),
            rows_returned: registry.counter("query.rows_returned"),
            scan_locks: registry.counter("query.scan_locks_total"),
            events_logged: registry.counter("store.events_logged_total"),
            index_hits: registry.counter("query.index_hits_total"),
            index_misses: registry.counter("query.index_misses_total"),
            index_bytes: registry.gauge("store.index_bytes"),
            plane_windows_rolled: registry.counter("pipeline.monitor_windows_rolled_total"),
            plane_drift_scored: registry.counter("pipeline.monitor_drift_scored_total"),
            plane_drift_breaches: registry.counter("pipeline.monitor_drift_breaches_total"),
            registry,
        }
    }
}

/// In-memory store. Cheap to create; share via `Arc` (or borrow across
/// scoped threads) for concurrent use.
pub struct MemoryStore {
    /// Next run id to assign. Pre-allocated atomically so `log_run` and
    /// `log_runs` never take a global exclusive lock.
    next_run_id: AtomicU64,
    runs_removed: AtomicU64,
    components: RwLock<BTreeMap<String, ComponentRecord>>,
    /// Run records, sharded by `id % SHARD_COUNT`.
    run_shards: Box<[RwLock<HashMap<u64, ComponentRunRecord>>]>,
    /// component name → run ids ascending, sharded by component hash.
    by_component: Box<[IdIndexShard]>,
    /// io name → producing runs ascending, sharded by io hash.
    producers: Box<[IdIndexShard]>,
    /// io name → consuming runs ascending, sharded by io hash.
    consumers: Box<[IdIndexShard]>,
    /// `start_ms` → run ids ascending: the time-ordered secondary index
    /// behind windowed history queries and the planner's `StartTime`
    /// route. One lock (not sharded): writers touch it once per batch.
    by_start: RwLock<BTreeMap<u64, Vec<RunId>>>,
    /// status → run ids ascending, slot per [`status_slot`].
    by_status: RwLock<[Vec<RunId>; STATUS_COUNT]>,
    /// event kind → event ids ascending, slot per [`kind_slot`].
    events_by_kind: RwLock<[Vec<EventId>; EVENT_KIND_COUNT]>,
    io_pointers: RwLock<BTreeMap<String, IoPointerRecord>>,
    metrics: RwLock<MetricsTable>,
    /// component → compaction summaries ascending by window start
    summaries: RwLock<HashMap<String, Vec<CompactionSummary>>>,
    /// Next journal event id. Atomic for the same reason as `next_run_id`:
    /// id assignment must not take the journal lock.
    next_event_id: AtomicU64,
    /// The observability journal, ascending by event id. Append-only
    /// (retention is future work), one lock taken once per batch.
    events: RwLock<Vec<ObservabilityEvent>>,
    /// Incidents keyed by dedup key.
    incidents: RwLock<BTreeMap<String, IncidentRecord>>,
    /// Ranked root-cause hypotheses keyed by incident key. Re-diagnosing
    /// an incident replaces its rows (mirrors incident upsert semantics).
    diagnoses: RwLock<BTreeMap<String, Vec<DiagnosisRecord>>>,
    /// In-process fan-out of journal events to live subscribers.
    bus: EventBus,
    /// Self-telemetry handles (see the `tele` module docs).
    tele: StoreTelemetry,
    /// The always-on monitoring plane: per-(component, metric) streaming
    /// window summaries with drift scoring, fed on every metric ingest.
    monitor: MonitorPlane,
    /// Alert/incident state for drift breaches surfaced by the plane.
    drift_router: Mutex<DriftRouter>,
    /// Worker-thread override for grouped partial-aggregate scans.
    /// `0` (the default) means auto: `available_parallelism` capped at
    /// [`SHARD_COUNT`]. Benchmarks pin it to compare 1-vs-N scaling.
    scan_workers: AtomicUsize,
}

/// Folds drift breaches from the monitoring plane into the same
/// alert-cooldown + deduplicated-incident machinery SLA pages use. One
/// lazily-installed `Page` rule per `(component, metric)` key.
struct DriftRouter {
    alerts: AlertManager,
    incidents: IncidentManager,
    installed: HashSet<String>,
}

impl DriftRouter {
    fn new() -> Self {
        DriftRouter {
            alerts: AlertManager::new(),
            incidents: IncidentManager::new(0),
            installed: HashSet::new(),
        }
    }

    /// Install the drift page rule for `key` on first breach. The rule
    /// describes the healthy direction (`score <= 0`), so any positive
    /// drift score violates it and fires.
    fn ensure_rule(&mut self, key: &str) {
        if self.installed.insert(key.to_string()) {
            self.alerts.add_rule(AlertRule {
                id: key.to_string(),
                metric: key.to_string(),
                comparator: Comparator::Lte,
                threshold: 0.0,
                severity: Severity::Page,
                cooldown_ms: 0,
            });
        }
    }
}

/// Dedup key for a drift incident on one (component, metric) key.
fn drift_key(component: &str, metric: &str) -> String {
    format!("drift:{component}/{metric}")
}

/// Map an alert tier onto a journal severity (drift routing).
fn severity_to_event(s: Severity) -> EventSeverity {
    match s {
        Severity::Log => EventSeverity::Info,
        Severity::Warn => EventSeverity::Warn,
        Severity::Page => EventSeverity::Page,
    }
}

/// Convert a live drift incident into its persisted record.
fn drift_incident_record(inc: &Incident, now_ms: u64) -> IncidentRecord {
    IncidentRecord {
        key: inc.key.clone(),
        state: match inc.phase {
            IncidentPhase::Open => IncidentState::Open,
            IncidentPhase::Acknowledged => IncidentState::Acknowledged,
            IncidentPhase::Resolved => IncidentState::Resolved,
        },
        severity: severity_to_event(inc.severity),
        subject: inc.subject.clone(),
        opened_ms: inc.opened_ms,
        last_fire_ms: inc.last_fire_ms,
        resolved_ms: inc.resolved_ms,
        fire_count: inc.fire_count,
        suppressed_count: inc.suppressed_count,
        burn_ms: inc.burn_ms(now_ms),
        detail: inc.detail.clone(),
    }
}

/// Bucket run ids by the shard holding each, preserving their order.
fn bucket_by_shard(ids: &[RunId]) -> Vec<Vec<u64>> {
    let mut per_shard: Vec<Vec<u64>> = (0..SHARD_COUNT).map(|_| Vec::new()).collect();
    for id in ids {
        per_shard[run_shard(id.0)].push(id.0);
    }
    per_shard
}

fn shard_vec<T: Default>() -> Box<[RwLock<T>]> {
    (0..SHARD_COUNT)
        .map(|_| RwLock::new(T::default()))
        .collect()
}

/// Fold one matching run into a worker-local group map keyed by the
/// canonical row key of its GROUP BY values (empty `group_cols` means one
/// global group). Shared by every worker of a grouped scan.
fn observe_run_grouped(
    groups: &mut HashMap<String, GroupPartial>,
    run: &ComponentRunRecord,
    group_cols: &[usize],
    aggs: &[AggInput],
) {
    let key_vals: Vec<Value> = group_cols
        .iter()
        .map(|&c| run_column_value(run, c))
        .collect();
    let key = canonical_row_key(&key_vals);
    let entry = groups
        .entry(key)
        .or_insert_with(|| GroupPartial::new(key_vals, run.id.0, aggs.len()));
    entry.first_id = entry.first_id.min(run.id.0);
    for (state, input) in entry.aggs.iter_mut().zip(aggs) {
        match input {
            AggInput::CountStar => state.observe_count_star(),
            AggInput::Column(i) => state.observe(&run_column_value(run, *i)),
        }
    }
}

impl Default for MemoryStore {
    /// Same as [`MemoryStore::new`]. (A derived `Default` would leave
    /// `next_run_id` at zero and hand out `RunId(0)`, diverging from a
    /// `new()`-constructed store whose first id is `RunId(1)`.)
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryStore {
    /// Create an empty store with its own telemetry registry.
    pub fn new() -> Self {
        Self::with_telemetry(Telemetry::new())
    }

    /// Create an empty store with a specific monitoring-plane
    /// configuration (e.g. a disabled plane for the E15 overhead
    /// baseline, or tighter windows for tests).
    pub fn with_monitor_config(config: MonitorConfig) -> Self {
        Self::with_telemetry_and_monitor(Telemetry::new(), config)
    }

    /// Create an empty store reporting into an existing telemetry
    /// registry (so e.g. a WAL wrapper and its inner memory store share
    /// one registry).
    pub fn with_telemetry(registry: Telemetry) -> Self {
        Self::with_telemetry_and_monitor(registry, MonitorConfig::default())
    }

    /// Create an empty store with both an adopted telemetry registry and
    /// a monitoring-plane configuration.
    pub fn with_telemetry_and_monitor(registry: Telemetry, config: MonitorConfig) -> Self {
        MemoryStore {
            next_run_id: AtomicU64::new(1),
            runs_removed: AtomicU64::new(0),
            components: RwLock::new(BTreeMap::new()),
            run_shards: shard_vec(),
            by_component: shard_vec(),
            producers: shard_vec(),
            consumers: shard_vec(),
            by_start: RwLock::new(BTreeMap::new()),
            by_status: RwLock::new(std::array::from_fn(|_| Vec::new())),
            events_by_kind: RwLock::new(std::array::from_fn(|_| Vec::new())),
            io_pointers: RwLock::new(BTreeMap::new()),
            metrics: RwLock::new(MetricsTable::default()),
            summaries: RwLock::new(HashMap::new()),
            next_event_id: AtomicU64::new(1),
            events: RwLock::new(Vec::new()),
            incidents: RwLock::new(BTreeMap::new()),
            diagnoses: RwLock::new(BTreeMap::new()),
            bus: EventBus::new(&registry),
            tele: StoreTelemetry::new(registry),
            monitor: MonitorPlane::new(config),
            drift_router: Mutex::new(DriftRouter::new()),
            scan_workers: AtomicUsize::new(0),
        }
    }

    /// Override the number of worker threads grouped partial-aggregate
    /// scans use (`0` restores auto: `available_parallelism` capped at
    /// the shard count). Results are identical at any setting — only
    /// wall-clock changes — so this is a benchmarking/tuning knob.
    pub fn set_scan_workers(&self, n: usize) {
        self.scan_workers.store(n, Ordering::Relaxed);
    }

    /// Resolved worker count for a grouped scan: the override if set,
    /// else available parallelism, never more than one per shard.
    fn scan_worker_count(&self) -> usize {
        let n = match self.scan_workers.load(Ordering::Relaxed) {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            n => n,
        };
        n.clamp(1, SHARD_COUNT)
    }

    /// The store's monitoring plane (always-on streaming summaries).
    pub fn monitor_plane(&self) -> &MonitorPlane {
        &self.monitor
    }

    /// Validate and apply a metric batch to the metrics table and feed
    /// the monitoring plane, returning the window rolls the batch caused.
    /// This is the side-effect-free half of metric ingest: callers that
    /// own the journal (the `Store` impl here, the WAL wrapper) route the
    /// rolls; replay paths discard them because the events they produced
    /// online were persisted and replay on their own.
    pub(crate) fn ingest_metrics(&self, metrics: Vec<MetricRecord>) -> Result<Vec<WindowRoll>> {
        if metrics.is_empty() {
            return Ok(Vec::new());
        }
        for m in &metrics {
            if m.name.is_empty() {
                return Err(StoreError::InvalidRecord("metric name is empty".into()));
            }
        }
        let count = metrics.len() as u64;
        let rolls = if self.monitor.enabled() {
            self.monitor.observe_batch(
                metrics
                    .iter()
                    .map(|m| (m.component.as_str(), m.name.as_str(), m.value, m.ts_ms)),
            )
        } else {
            Vec::new()
        };
        let mut g = self.metrics.write();
        for m in metrics {
            g.log(m);
        }
        drop(g);
        self.tele.metrics_logged.add(count);
        if !rolls.is_empty() {
            self.tele.plane_windows_rolled.add(rolls.len() as u64);
            let scored = rolls.iter().filter(|r| r.score.is_some()).count() as u64;
            let breached = rolls
                .iter()
                .filter(|r| r.score.as_ref().is_some_and(|s| s.drifted))
                .count() as u64;
            self.tele.plane_drift_scored.add(scored);
            self.tele.plane_drift_breaches.add(breached);
        }
        Ok(rolls)
    }

    /// Replay path for one metric record: metrics table + plane, no
    /// journaling or alerting (the WAL already holds the events the roll
    /// produced online).
    pub(crate) fn restore_metric(&self, m: MetricRecord) -> Result<()> {
        self.ingest_metrics(vec![m]).map(|_| ())
    }

    /// Journal scored window rolls and route drift breaches through the
    /// alert → incident machinery. `store` is the store the side effects
    /// go through — `self` for a bare memory store, the WAL wrapper for a
    /// durable one, so drift events and incidents persist in the log.
    pub(crate) fn route_rolls(&self, store: &dyn Store, rolls: &[WindowRoll]) -> Result<()> {
        let mut events = Vec::new();
        let mut router = self.drift_router.lock();
        for roll in rolls {
            let Some(score) = &roll.score else { continue };
            let severity = if score.drifted {
                EventSeverity::Page
            } else {
                EventSeverity::Info
            };
            events.push(
                ObservabilityEvent::new(EventKind::DriftScored, severity, roll.ts_ms)
                    .component(roll.component.clone())
                    .detail(format!(
                        "{}/{} window {}: {} score {:.4} over {} points vs {}-point reference{}",
                        roll.component,
                        roll.metric,
                        roll.window,
                        score.method,
                        score.score,
                        roll.points,
                        score.reference_points,
                        if score.drifted { " (drift)" } else { "" },
                    ))
                    .payload("metric", Value::from(roll.metric.clone()))
                    .payload("method", Value::from(score.method.clone()))
                    .payload("score", Value::Float(score.score))
                    .payload("window", Value::Int(roll.window as i64))
                    .payload("points", Value::Int(roll.points as i64)),
            );
            if !score.drifted {
                continue;
            }
            let key = drift_key(&roll.component, &roll.metric);
            router.ensure_rule(&key);
            let outcomes = router
                .alerts
                .observe_outcomes(&key, score.score, roll.ts_ms);
            for outcome in outcomes {
                match router.incidents.fold(&outcome) {
                    IncidentChange::Opened => {
                        let inc = router.incidents.get(&key).expect("just opened");
                        store.upsert_incident(drift_incident_record(inc, roll.ts_ms))?;
                        events.push(
                            ObservabilityEvent::new(
                                EventKind::IncidentOpened,
                                EventSeverity::Page,
                                roll.ts_ms,
                            )
                            .component(roll.component.clone())
                            .detail(inc.detail.clone())
                            .payload("key", Value::from(inc.key.clone())),
                        );
                    }
                    IncidentChange::Refired | IncidentChange::Suppressed => {
                        let inc = router.incidents.get(&key).expect("exists");
                        store.upsert_incident(drift_incident_record(inc, roll.ts_ms))?;
                    }
                    _ => {}
                }
            }
        }
        drop(router);
        if !events.is_empty() {
            store.log_events(events)?;
        }
        Ok(())
    }

    /// Rebuild the drift router's incident dedup state from persisted
    /// incidents (after a WAL replay), so a re-breach after restart
    /// re-fires the existing incident instead of opening a duplicate.
    /// Alert cooldown state is not persisted and restarts empty.
    pub(crate) fn seed_drift_router(&self) {
        let incidents = self.incidents.read();
        let mut router = self.drift_router.lock();
        for rec in incidents.values() {
            if !rec.key.starts_with("drift:") || rec.state == IncidentState::Resolved {
                continue;
            }
            router.ensure_rule(&rec.key);
            router.incidents.adopt(Incident {
                key: rec.key.clone(),
                phase: match rec.state {
                    IncidentState::Open => IncidentPhase::Open,
                    IncidentState::Acknowledged => IncidentPhase::Acknowledged,
                    IncidentState::Resolved => IncidentPhase::Resolved,
                },
                severity: Severity::Page,
                subject: rec.subject.clone(),
                opened_ms: rec.opened_ms,
                last_fire_ms: rec.last_fire_ms,
                resolved_ms: rec.resolved_ms,
                fire_count: rec.fire_count,
                suppressed_count: rec.suppressed_count,
                detail: rec.detail.clone(),
            });
        }
    }

    /// Take a shard write lock, counting the times a writer had to block
    /// behind another holder (shard-contention telemetry).
    #[inline]
    fn write_shard<'a, T>(&self, lock: &'a RwLock<T>) -> RwLockWriteGuard<'a, T> {
        match lock.try_write() {
            Some(g) => g,
            None => {
                self.tele.shard_contention.incr();
                lock.write()
            }
        }
    }

    /// Re-insert a run with a pre-assigned id. Used by WAL replay; also
    /// keeps `next_run_id` ahead of every replayed id.
    pub(crate) fn restore_run(&self, run: ComponentRunRecord) -> Result<()> {
        run.validate().map_err(StoreError::InvalidRecord)?;
        let id = run.id;
        if self.run_shards[run_shard(id.0)].read().contains_key(&id.0) {
            return Err(StoreError::AlreadyExists(format!("{id}")));
        }
        self.next_run_id.fetch_max(id.0 + 1, Ordering::Relaxed);
        self.index_run(id, &run);
        self.write_shard(&self.run_shards[run_shard(id.0)])
            .insert(id.0, run);
        self.tele.runs_restored.incr();
        Ok(())
    }

    /// Re-insert a journal event with a pre-assigned id. Used by WAL
    /// replay; keeps `next_event_id` ahead of every replayed id and does
    /// NOT fan out on the bus (replayed history is not live traffic).
    pub(crate) fn restore_event(&self, event: ObservabilityEvent) -> Result<()> {
        if event.id.0 == 0 {
            return Err(StoreError::InvalidRecord("restored event has no id".into()));
        }
        self.next_event_id
            .fetch_max(event.id.0 + 1, Ordering::Relaxed);
        let (eid, slot) = (event.id, kind_slot(event.kind));
        {
            let mut g = self.events.write();
            // Replay order is normally ascending (the WAL is append-only);
            // tolerate stragglers so a hand-edited log still loads.
            match g.last() {
                Some(last) if last.id >= event.id => {
                    let pos = g.partition_point(|e| e.id < event.id);
                    g.insert(pos, event);
                }
                _ => g.push(event),
            }
        }
        insert_sorted(&mut self.events_by_kind.write()[slot], eid);
        Ok(())
    }

    /// Current id watermarks and deletion counter, in the order
    /// `(next_run_id, next_event_id, runs_removed)`. Snapshotted into a
    /// checkpoint header: folded state drops deletion history, so the
    /// counters themselves must travel with the snapshot or replay would
    /// regress ids after deletions.
    pub(crate) fn watermarks(&self) -> (u64, u64, u64) {
        (
            self.next_run_id.load(Ordering::Relaxed),
            self.next_event_id.load(Ordering::Relaxed),
            self.runs_removed.load(Ordering::Relaxed),
        )
    }

    /// Restore watermarks from a checkpoint header. `fetch_max` so a
    /// replayed tail that already advanced a counter is never regressed.
    pub(crate) fn restore_watermarks(
        &self,
        next_run_id: u64,
        next_event_id: u64,
        runs_removed: u64,
    ) {
        self.next_run_id.fetch_max(next_run_id, Ordering::Relaxed);
        self.next_event_id
            .fetch_max(next_event_id, Ordering::Relaxed);
        self.runs_removed.fetch_max(runs_removed, Ordering::Relaxed);
    }

    /// Visit the store's current state as WAL events, in replay order and
    /// by reference: the checkpoint encodes each record where it lies, so
    /// the state is never cloned into a second, whole-store list. Applying
    /// the visited events to an empty store, in order, rebuilds this one.
    /// Metrics and summaries are enumerated from their own tables (not via
    /// registered components) so records logged for never-registered
    /// components survive the fold. Holds read locks while `visit` runs;
    /// the caller keeps writers out.
    pub(crate) fn visit_state(
        &self,
        mut visit: impl FnMut(EventRef<'_>) -> Result<()>,
    ) -> Result<()> {
        for rec in self.components.read().values() {
            visit(EventRef::Component(rec))?;
        }
        for rec in self.io_pointers.read().values() {
            visit(EventRef::IoPointer(rec))?;
            if rec.flag {
                visit(EventRef::Flag {
                    io: &rec.name,
                    flag: true,
                })?;
            }
        }
        {
            let shards: Vec<_> = self.run_shards.iter().map(|s| s.read()).collect();
            let mut runs: Vec<_> = shards.iter().flat_map(|s| s.values()).collect();
            runs.sort_unstable_by_key(|run| run.id);
            for run in runs {
                visit(EventRef::Run(run))?;
            }
        }
        {
            let table = self.metrics.read();
            let mut series: Vec<_> = table.series.iter().collect();
            series.sort_unstable_by_key(|(key, _)| *key);
            for rec in series.into_iter().flat_map(|(_, points)| points) {
                visit(EventRef::Metric(rec))?;
            }
        }
        {
            let table = self.summaries.read();
            let mut components: Vec<_> = table.iter().collect();
            components.sort_unstable_by_key(|(name, _)| *name);
            for rec in components.into_iter().flat_map(|(_, list)| list) {
                visit(EventRef::Summary(rec))?;
            }
        }
        for rec in self.events.read().iter() {
            visit(EventRef::Obs(rec))?;
        }
        for rec in self.incidents.read().values() {
            visit(EventRef::Incident(rec))?;
        }
        for (key, rows) in self.diagnoses.read().iter() {
            visit(EventRef::Diagnosis { key, rows })?;
        }
        Ok(())
    }

    /// Add one run to every secondary index: the per-component list, the
    /// producer/consumer indexes, the time-ordered index, and the status
    /// index. Each lock is taken and released independently. Shared by the
    /// scalar ingest path and WAL replay (`restore_run`), so replayed
    /// indexes are rebuilt by construction.
    fn index_run(&self, id: RunId, run: &ComponentRunRecord) {
        self.index_name(&self.by_component, &run.component, id);
        {
            let mut g = self.write_shard(&self.by_start);
            insert_sorted(g.entry(run.start_ms).or_default(), id);
        }
        {
            let mut g = self.write_shard(&self.by_status);
            insert_sorted(&mut g[status_slot(run.status)], id);
        }
        // A run may legitimately list the same pointer twice (e.g. a file
        // read in two roles); `insert_sorted` indexes it once per run.
        for io in &run.outputs {
            self.index_name(&self.producers, io, id);
        }
        for io in &run.inputs {
            self.index_name(&self.consumers, io, id);
        }
    }

    /// Add `id` to the ascending id list a sharded name index keeps under
    /// `name`, under that shard's write lock.
    fn index_name(&self, shards: &[IdIndexShard], name: &str, id: RunId) {
        let mut g = self.write_shard(&shards[name_shard(name)]);
        match g.get_mut(name) {
            Some(list) => insert_sorted(list, id),
            None => {
                g.insert(name.to_owned(), vec![id]);
            }
        }
    }

    /// The one loop every run scan shares: under shard `si`'s read lock,
    /// hand `hit` each record past `since` that matches `filter` — looked
    /// up from `candidates` when an index narrowed them (none: the shard is
    /// skipped, lock untaken), else every record. Returns how many records
    /// were examined.
    fn visit_shard(
        &self,
        si: usize,
        candidates: Option<&[u64]>,
        since: Option<RunId>,
        filter: &RunFilter,
        mut hit: impl FnMut(&ComponentRunRecord),
    ) -> u64 {
        if candidates.is_some_and(<[u64]>::is_empty) {
            return 0;
        }
        let g = self.run_shards[si].read();
        self.tele.scan_locks.incr();
        let mut examined = 0u64;
        // A candidate deleted since the index was read is examined but no
        // longer there to match.
        let mut visit = |id: u64, run: Option<&ComponentRunRecord>| {
            if since.is_some_and(|s| id <= s.0) {
                return;
            }
            examined += 1;
            if let Some(run) = run.filter(|r| filter.matches(r)) {
                hit(run);
            }
        };
        match candidates {
            Some(ids) => ids.iter().for_each(|id| visit(*id, g.get(id))),
            None => g.iter().for_each(|(id, run)| visit(*id, Some(run))),
        }
        examined
    }

    /// Walk the shards on the calling thread, handing `hit` (in no
    /// particular order) every run past `since` that matches `filter`, and
    /// count the records examined into the scan telemetry. `route` (which
    /// must be `applicable`) narrows the walk to that index's candidates.
    fn visit_runs(
        &self,
        since: Option<RunId>,
        filter: &RunFilter,
        route: Option<IndexRoute>,
        mut hit: impl FnMut(&ComponentRunRecord),
    ) {
        let routed = route.map(|r| bucket_by_shard(&self.route_candidates(filter, r)));
        let mut scanned = 0u64;
        for si in 0..SHARD_COUNT {
            let candidates = routed.as_ref().map(|per_shard| &per_shard[si][..]);
            scanned += self.visit_shard(si, candidates, since, filter, &mut hit);
        }
        self.tele.rows_scanned.add(scanned);
    }

    /// The first `limit` ids (ascending) of runs past `since` that match
    /// `filter`, evaluated against borrowed records — the clone-free phase
    /// A of limited, chunked and index-routed scans.
    fn matching_run_ids(
        &self,
        since: Option<RunId>,
        filter: &RunFilter,
        route: Option<IndexRoute>,
        limit: Option<usize>,
    ) -> Vec<RunId> {
        let mut ids = Vec::new();
        self.visit_runs(since, filter, route, |run| ids.push(run.id));
        ids.sort_unstable();
        ids.truncate(limit.unwrap_or(usize::MAX));
        ids
    }

    /// Clone the records for `ids` (ascending), grouping the fetches so
    /// each touched shard's lock is taken once — phase B of limited and
    /// chunked scans. Ids deleted since phase A are skipped; the output
    /// stays ascending by id.
    fn fetch_runs_sorted(&self, ids: &[RunId]) -> Vec<ComponentRunRecord> {
        let mut out = Vec::with_capacity(ids.len());
        let all = RunFilter::all();
        for (si, shard_ids) in bucket_by_shard(ids).iter().enumerate() {
            self.visit_shard(si, Some(shard_ids), None, &all, |run| out.push(run.clone()));
        }
        out.sort_unstable_by_key(|r| r.id);
        out
    }

    /// Candidate ids (ascending) from a routed secondary index — phase A
    /// of [`Store::scan_runs_indexed`] and of grouped partial-aggregate
    /// scans. The route must already be `applicable` to the filter. The
    /// candidate set is a superset of the matching rows; callers re-check
    /// the full filter against every candidate record.
    fn route_candidates(&self, filter: &RunFilter, route: IndexRoute) -> Vec<RunId> {
        match route {
            IndexRoute::Component => {
                let name = filter.component.as_deref().expect("checked applicable");
                let g = self.by_component[name_shard(name)].read();
                self.tele.scan_locks.incr();
                g.get(name).cloned().unwrap_or_default()
            }
            IndexRoute::Status => {
                let g = self.by_status.read();
                self.tele.scan_locks.incr();
                g[status_slot(filter.status.expect("checked applicable"))].clone()
            }
            IndexRoute::StartTime => {
                let lo = filter.min_start_ms.unwrap_or(0);
                let hi = filter.max_start_ms.unwrap_or(u64::MAX);
                if lo > hi {
                    Vec::new()
                } else {
                    let g = self.by_start.read();
                    self.tele.scan_locks.incr();
                    let mut ids: Vec<RunId> = g
                        .range(lo..=hi)
                        .flat_map(|(_, v)| v.iter().copied())
                        .collect();
                    drop(g);
                    // Buckets are time-ordered, not id-ordered.
                    ids.sort_unstable();
                    ids
                }
            }
            IndexRoute::IdRange => {
                // Dense enumeration of the live id range; no lock at all.
                let next = self.next_run_id.load(Ordering::Relaxed);
                let lo = filter.min_id.unwrap_or(1).max(1);
                let hi = filter
                    .max_id
                    .unwrap_or(u64::MAX)
                    .min(next.saturating_sub(1));
                // An infeasible range (`lo > hi`) is empty.
                (lo..=hi).map(RunId).collect()
            }
        }
    }

    /// Apply pre-grouped index updates, taking each shard lock once.
    /// `groups` maps a name to the ascending ids to merge into its list.
    fn apply_index_groups(&self, shards: &[IdIndexShard], groups: HashMap<&str, Vec<RunId>>) {
        let mut per_shard: Vec<Vec<(&str, Vec<RunId>)>> =
            (0..SHARD_COUNT).map(|_| Vec::new()).collect();
        for (name, ids) in groups {
            per_shard[name_shard(name)].push((name, ids));
        }
        for (si, entries) in per_shard.into_iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            let mut g = self.write_shard(&shards[si]);
            for (name, ids) in entries {
                match g.get_mut(name) {
                    Some(list) => {
                        list.reserve(ids.len());
                        for id in ids {
                            insert_sorted(list, id);
                        }
                    }
                    None => {
                        // Fresh key: the group is already ascending.
                        g.insert(name.to_owned(), ids);
                    }
                }
            }
        }
    }
}

impl Store for MemoryStore {
    fn register_component(&self, rec: ComponentRecord) -> Result<()> {
        if rec.name.is_empty() {
            return Err(StoreError::InvalidRecord("component name is empty".into()));
        }
        self.components.write().insert(rec.name.clone(), rec);
        Ok(())
    }

    fn component(&self, name: &str) -> Result<Option<ComponentRecord>> {
        Ok(self.components.read().get(name).cloned())
    }

    fn components(&self) -> Result<Vec<ComponentRecord>> {
        Ok(self.components.read().values().cloned().collect())
    }

    fn log_run(&self, mut run: ComponentRunRecord) -> Result<RunId> {
        run.validate().map_err(StoreError::InvalidRecord)?;
        let id = RunId(self.next_run_id.fetch_add(1, Ordering::Relaxed));
        run.id = id;
        self.index_run(id, &run);
        self.write_shard(&self.run_shards[run_shard(id.0)])
            .insert(id.0, run);
        self.tele.runs_logged.incr();
        Ok(id)
    }

    fn log_runs(&self, runs: Vec<ComponentRunRecord>) -> Result<Vec<RunId>> {
        if runs.is_empty() {
            return Ok(Vec::new());
        }
        // Validate everything before assigning ids so a bad record logs
        // nothing (and burns no ids).
        for run in &runs {
            run.validate().map_err(StoreError::InvalidRecord)?;
        }
        let base = self
            .next_run_id
            .fetch_add(runs.len() as u64, Ordering::Relaxed);
        // Group index updates locally (borrowed keys, no per-record
        // clones), then merge each group under one shard-lock acquisition.
        {
            let mut comp_groups: HashMap<&str, Vec<RunId>> = HashMap::new();
            let mut prod_groups: HashMap<&str, Vec<RunId>> = HashMap::new();
            let mut cons_groups: HashMap<&str, Vec<RunId>> = HashMap::new();
            let mut start_groups: BTreeMap<u64, Vec<RunId>> = BTreeMap::new();
            let mut status_groups: [Vec<RunId>; STATUS_COUNT] = std::array::from_fn(|_| Vec::new());
            for (i, run) in runs.iter().enumerate() {
                let id = RunId(base + i as u64);
                comp_groups
                    .entry(run.component.as_str())
                    .or_default()
                    .push(id);
                for io in &run.outputs {
                    let list = prod_groups.entry(io.as_str()).or_default();
                    if list.last() != Some(&id) {
                        list.push(id);
                    }
                }
                for io in &run.inputs {
                    let list = cons_groups.entry(io.as_str()).or_default();
                    if list.last() != Some(&id) {
                        list.push(id);
                    }
                }
                start_groups.entry(run.start_ms).or_default().push(id);
                status_groups[status_slot(run.status)].push(id);
            }
            self.apply_index_groups(&self.by_component, comp_groups);
            self.apply_index_groups(&self.producers, prod_groups);
            self.apply_index_groups(&self.consumers, cons_groups);
            {
                let mut g = self.write_shard(&self.by_start);
                for (start, ids) in start_groups {
                    match g.get_mut(&start) {
                        Some(list) => {
                            list.reserve(ids.len());
                            for id in ids {
                                insert_sorted(list, id);
                            }
                        }
                        None => {
                            // Batch ids are ascending within a group.
                            g.insert(start, ids);
                        }
                    }
                }
            }
            {
                let mut g = self.write_shard(&self.by_status);
                for (slot, ids) in status_groups.into_iter().enumerate() {
                    let list = &mut g[slot];
                    list.reserve(ids.len());
                    for id in ids {
                        insert_sorted(list, id);
                    }
                }
            }
        }
        // Move the records into their shards, one lock per touched shard.
        let mut ids = Vec::with_capacity(runs.len());
        let mut per_shard: Vec<Vec<ComponentRunRecord>> =
            (0..SHARD_COUNT).map(|_| Vec::new()).collect();
        for (i, mut run) in runs.into_iter().enumerate() {
            let id = RunId(base + i as u64);
            run.id = id;
            ids.push(id);
            per_shard[run_shard(id.0)].push(run);
        }
        for (si, records) in per_shard.into_iter().enumerate() {
            if records.is_empty() {
                continue;
            }
            let mut g = self.write_shard(&self.run_shards[si]);
            g.reserve(records.len());
            for run in records {
                g.insert(run.id.0, run);
            }
        }
        self.tele.runs_logged.add(ids.len() as u64);
        Ok(ids)
    }

    fn log_run_bundle(&self, bundle: RunBundle) -> Result<RunId> {
        let started = Instant::now();
        {
            let pointer_count = bundle.pointers.len() as u64;
            let mut g = self.io_pointers.write();
            for rec in bundle.pointers {
                upsert_pointer(&mut g, rec)?;
            }
            self.tele.pointer_upserts.add(pointer_count);
        }
        let id = self.log_run(bundle.run)?;
        let mut metrics = bundle.metrics;
        for m in &mut metrics {
            m.run_id = Some(id);
        }
        self.log_metrics(metrics)?;
        let mut events = bundle.events;
        for e in &mut events {
            if e.run_id.is_none() {
                e.run_id = Some(id);
            }
        }
        self.log_events(events)?;
        self.tele.bundles.incr();
        self.tele
            .bundle_latency
            .record(started.elapsed().as_nanos() as u64);
        Ok(id)
    }

    fn run(&self, id: RunId) -> Result<Option<ComponentRunRecord>> {
        Ok(self.run_shards[run_shard(id.0)].read().get(&id.0).cloned())
    }

    fn runs_for_component(&self, name: &str) -> Result<Vec<RunId>> {
        Ok(self.by_component[name_shard(name)]
            .read()
            .get(name)
            .cloned()
            .unwrap_or_default())
    }

    fn latest_run(&self, name: &str) -> Result<Option<ComponentRunRecord>> {
        let last = self.by_component[name_shard(name)]
            .read()
            .get(name)
            .and_then(|ids| ids.last().copied());
        match last {
            Some(id) => self.run(id),
            None => Ok(None),
        }
    }

    fn run_ids(&self) -> Result<Vec<RunId>> {
        let mut ids: Vec<RunId> = Vec::new();
        for shard in self.run_shards.iter() {
            ids.extend(shard.read().keys().map(|&k| RunId(k)));
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn scan_runs(
        &self,
        since: Option<RunId>,
        filter: &RunFilter,
        limit: Option<usize>,
    ) -> Result<Vec<ComponentRunRecord>> {
        let out = match limit {
            Some(0) => Vec::new(),
            // Two phases: find matching ids without cloning, then clone
            // only the first `limit` — a selective or limited scan clones
            // min(matches, limit) records instead of every match.
            Some(_) => self.fetch_runs_sorted(&self.matching_run_ids(since, filter, None, limit)),
            None => {
                // Single pass: filter under the shard lock, clone matches.
                let mut out = Vec::new();
                self.visit_runs(since, filter, None, |run| out.push(run.clone()));
                out.sort_unstable_by_key(|r| r.id);
                out
            }
        };
        self.tele.rows_returned.add(out.len() as u64);
        Ok(out)
    }

    fn scan_runs_chunked(
        &self,
        since: Option<RunId>,
        filter: &RunFilter,
        chunk_size: usize,
        visit: &mut dyn FnMut(&[ComponentRunRecord]) -> bool,
    ) -> Result<()> {
        assert!(chunk_size > 0, "chunk_size must be non-zero");
        // Resolve the matching ids once (the trait default would rescan
        // every shard per chunk), then clone one chunk at a time so peak
        // memory is bounded by `chunk_size` regardless of match count.
        let ids = self.matching_run_ids(since, filter, None, None);
        for chunk_ids in ids.chunks(chunk_size) {
            let batch = self.fetch_runs_sorted(chunk_ids);
            if batch.is_empty() {
                continue;
            }
            self.tele.rows_returned.add(batch.len() as u64);
            if !visit(&batch) {
                break;
            }
        }
        Ok(())
    }

    fn scan_runs_indexed(
        &self,
        since: Option<RunId>,
        filter: &RunFilter,
        limit: Option<usize>,
        route: IndexRoute,
    ) -> Result<Option<Vec<ComponentRunRecord>>> {
        if !route.applicable(filter) {
            self.tele.index_misses.incr();
            return Ok(None);
        }
        let out = self.fetch_runs_sorted(&self.matching_run_ids(since, filter, Some(route), limit));
        self.tele.rows_returned.add(out.len() as u64);
        self.tele.index_hits.incr();
        Ok(Some(out))
    }

    fn scan_runs_grouped(
        &self,
        filter: &RunFilter,
        route: Option<IndexRoute>,
        group_cols: &[usize],
        aggs: &[AggInput],
    ) -> Result<Option<Vec<GroupPartial>>> {
        // Per-shard work list: candidate ids from the routed index when
        // one applies, else (`None`) every record in the shard.
        let routed: Option<Vec<Vec<u64>>> = match route {
            Some(r) if r.applicable(filter) => {
                self.tele.index_hits.incr();
                Some(bucket_by_shard(&self.route_candidates(filter, r)))
            }
            Some(_) => {
                self.tele.index_misses.incr();
                None
            }
            None => None,
        };
        let workers = self.scan_worker_count();
        // Workers claim shards from a shared counter so a skewed
        // candidate distribution doesn't idle anyone; each shard lock is
        // read by exactly one worker exactly once. Worker-local hash maps
        // mean zero contention during the fold; the (group-count-sized)
        // maps merge on the calling thread afterwards.
        let next_shard = AtomicUsize::new(0);
        let mut merged: HashMap<String, GroupPartial> = HashMap::new();
        let mut scanned = 0u64;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next_shard = &next_shard;
                    let routed = routed.as_ref();
                    s.spawn(move || {
                        let mut local: HashMap<String, GroupPartial> = HashMap::new();
                        let mut scanned = 0u64;
                        loop {
                            let si = next_shard.fetch_add(1, Ordering::Relaxed);
                            if si >= SHARD_COUNT {
                                break;
                            }
                            let candidates = routed.map(|per_shard| &per_shard[si][..]);
                            scanned += self.visit_shard(si, candidates, None, filter, |run| {
                                observe_run_grouped(&mut local, run, group_cols, aggs)
                            });
                        }
                        (local, scanned)
                    })
                })
                .collect();
            for h in handles {
                let (local, w_scanned) = h.join().expect("grouped scan worker panicked");
                scanned += w_scanned;
                for (k, g) in local {
                    match merged.entry(k) {
                        Entry::Occupied(mut e) => e.get_mut().merge(&g),
                        Entry::Vacant(v) => {
                            v.insert(g);
                        }
                    }
                }
            }
        });
        self.tele.rows_scanned.add(scanned);
        // The headline number: a grouped scan returns group-count rows,
        // not row-count rows.
        self.tele.rows_returned.add(merged.len() as u64);
        let mut out: Vec<GroupPartial> = merged.into_values().collect();
        out.sort_unstable_by_key(|g| g.first_id);
        Ok(Some(out))
    }

    fn index_stats(&self) -> Result<Option<IndexStats>> {
        let mut runs = 0u64;
        for shard in self.run_shards.iter() {
            runs += shard.read().len() as u64;
        }
        let mut distinct_components = 0u64;
        for shard in self.by_component.iter() {
            distinct_components += shard.read().values().filter(|v| !v.is_empty()).count() as u64;
        }
        let distinct_statuses = self
            .by_status
            .read()
            .iter()
            .filter(|v| !v.is_empty())
            .count() as u64;
        let (min_start_ms, max_start_ms) = {
            let g = self.by_start.read();
            (g.keys().next().copied(), g.keys().next_back().copied())
        };
        Ok(Some(IndexStats {
            runs,
            distinct_components,
            distinct_statuses,
            min_start_ms,
            max_start_ms,
            next_id: self.next_run_id.load(Ordering::Relaxed),
        }))
    }

    fn index_footprint(&self) -> Result<Vec<IndexFootprint>> {
        const ID_BYTES: u64 = std::mem::size_of::<RunId>() as u64;
        let mut out = Vec::with_capacity(4);
        {
            let (mut keys, mut entries, mut bytes) = (0u64, 0u64, 0u64);
            for shard in self.by_component.iter() {
                for (name, ids) in shard.read().iter() {
                    keys += 1;
                    entries += ids.len() as u64;
                    bytes += name.len() as u64 + ids.len() as u64 * ID_BYTES;
                }
            }
            out.push(IndexFootprint {
                name: "by_component",
                keys,
                entries,
                approx_bytes: bytes,
            });
        }
        {
            let (mut keys, mut entries) = (0u64, 0u64);
            for (_, ids) in self.by_start.read().iter() {
                keys += 1;
                entries += ids.len() as u64;
            }
            out.push(IndexFootprint {
                name: "by_start",
                keys,
                entries,
                approx_bytes: keys * 8 + entries * ID_BYTES,
            });
        }
        {
            let g = self.by_status.read();
            let keys = g.iter().filter(|v| !v.is_empty()).count() as u64;
            let entries = g.iter().map(|v| v.len() as u64).sum::<u64>();
            out.push(IndexFootprint {
                name: "by_status",
                keys,
                entries,
                approx_bytes: entries * ID_BYTES,
            });
        }
        {
            let g = self.events_by_kind.read();
            let keys = g.iter().filter(|v| !v.is_empty()).count() as u64;
            let entries = g.iter().map(|v| v.len() as u64).sum::<u64>();
            out.push(IndexFootprint {
                name: "events_by_kind",
                keys,
                entries,
                approx_bytes: entries * ID_BYTES,
            });
        }
        let total: u64 = out.iter().map(|f| f.approx_bytes).sum();
        self.tele.index_bytes.set(total as i64);
        Ok(out)
    }

    fn component_history(&self, name: &str, limit: usize) -> Result<Vec<ComponentRunRecord>> {
        // The tail of the per-component list, resolved under one index
        // lock. The list is ascending by start time, so the reversed tail
        // is the newest-first order `history` presents.
        let tail: Vec<RunId> = {
            let g = self.by_component[name_shard(name)].read();
            self.tele.scan_locks.incr();
            match g.get(name) {
                Some(ids) => ids.iter().rev().take(limit).copied().collect(),
                None => return Ok(Vec::new()),
            }
        };
        let fetched = self.fetch_runs_sorted(&tail);
        self.tele.rows_scanned.add(fetched.len() as u64);
        self.tele.rows_returned.add(fetched.len() as u64);
        // Re-emit in the tail's order (descending start time), which can
        // differ from id order when runs are logged out of time order.
        let mut by_id: HashMap<u64, ComponentRunRecord> =
            fetched.into_iter().map(|r| (r.id.0, r)).collect();
        Ok(tail.iter().filter_map(|id| by_id.remove(&id.0)).collect())
    }

    fn upsert_io_pointer(&self, rec: IoPointerRecord) -> Result<()> {
        upsert_pointer(&mut self.io_pointers.write(), rec)?;
        self.tele.pointer_upserts.incr();
        Ok(())
    }

    fn io_pointer(&self, name: &str) -> Result<Option<IoPointerRecord>> {
        Ok(self.io_pointers.read().get(name).cloned())
    }

    fn io_pointers(&self) -> Result<Vec<IoPointerRecord>> {
        Ok(self.io_pointers.read().values().cloned().collect())
    }

    fn producers_of(&self, io: &str) -> Result<Vec<RunId>> {
        Ok(self.producers[name_shard(io)]
            .read()
            .get(io)
            .cloned()
            .unwrap_or_default())
    }

    fn consumers_of(&self, io: &str) -> Result<Vec<RunId>> {
        Ok(self.consumers[name_shard(io)]
            .read()
            .get(io)
            .cloned()
            .unwrap_or_default())
    }

    fn set_flag(&self, io: &str, flag: bool) -> Result<bool> {
        let mut g = self.io_pointers.write();
        let rec = g
            .get_mut(io)
            .ok_or_else(|| StoreError::NotFound(format!("io pointer {io}")))?;
        let prev = rec.flag;
        rec.flag = flag;
        Ok(prev)
    }

    fn flagged(&self) -> Result<Vec<String>> {
        Ok(self
            .io_pointers
            .read()
            .values()
            .filter(|p| p.flag)
            .map(|p| p.name.clone())
            .collect())
    }

    fn log_metric(&self, m: MetricRecord) -> Result<()> {
        let rolls = self.ingest_metrics(vec![m])?;
        self.route_rolls(self, &rolls)
    }

    fn log_metrics(&self, metrics: Vec<MetricRecord>) -> Result<()> {
        let rolls = self.ingest_metrics(metrics)?;
        self.route_rolls(self, &rolls)
    }

    fn monitor_summaries(&self) -> Result<Vec<MonitorSummary>> {
        Ok(self.monitor.summaries())
    }

    fn metrics(&self, component: &str, name: &str) -> Result<Vec<MetricRecord>> {
        Ok(self
            .metrics
            .read()
            .series
            .get(&(component.to_owned(), name.to_owned()))
            .cloned()
            .unwrap_or_default())
    }

    fn metric_names(&self, component: &str) -> Result<Vec<String>> {
        Ok(self
            .metrics
            .read()
            .names
            .get(component)
            .cloned()
            .unwrap_or_default())
    }

    fn delete_runs(&self, ids: &[RunId]) -> Result<usize> {
        // Batch the index maintenance: one retain pass per touched list
        // instead of one per victim (bulk deletions — compaction, GDPR —
        // hand in thousands of ids at once).
        let mut removed_set: HashSet<RunId> = HashSet::with_capacity(ids.len());
        let mut components: HashSet<String> = HashSet::new();
        let mut producer_ios: HashSet<String> = HashSet::new();
        let mut consumer_ios: HashSet<String> = HashSet::new();
        let mut starts: Vec<(u64, RunId)> = Vec::new();
        let mut status_victims: [bool; STATUS_COUNT] = [false; STATUS_COUNT];
        for id in ids {
            let run = self.run_shards[run_shard(id.0)].write().remove(&id.0);
            let Some(run) = run else {
                continue;
            };
            removed_set.insert(*id);
            starts.push((run.start_ms, *id));
            status_victims[status_slot(run.status)] = true;
            components.insert(run.component);
            producer_ios.extend(run.outputs);
            consumer_ios.extend(run.inputs);
        }
        if removed_set.is_empty() {
            return Ok(0);
        }
        for component in &components {
            if let Some(list) = self.by_component[name_shard(component)]
                .write()
                .get_mut(component.as_str())
            {
                list.retain(|r| !removed_set.contains(r));
            }
        }
        for io in &producer_ios {
            if let Some(list) = self.producers[name_shard(io)].write().get_mut(io.as_str()) {
                list.retain(|r| !removed_set.contains(r));
            }
        }
        for io in &consumer_ios {
            if let Some(list) = self.consumers[name_shard(io)].write().get_mut(io.as_str()) {
                list.retain(|r| !removed_set.contains(r));
            }
        }
        {
            // Empty time buckets are removed so the index's min/max keys
            // (and the planner's span estimate) stay tight.
            let mut g = self.by_start.write();
            for (start, id) in starts {
                if let Some(list) = g.get_mut(&start) {
                    list.retain(|r| *r != id);
                    if list.is_empty() {
                        g.remove(&start);
                    }
                }
            }
        }
        {
            let mut g = self.by_status.write();
            for (slot, touched) in status_victims.iter().enumerate() {
                if *touched {
                    g[slot].retain(|r| !removed_set.contains(r));
                }
            }
        }
        let removed = removed_set.len();
        self.runs_removed
            .fetch_add(removed as u64, Ordering::Relaxed);
        self.tele.runs_deleted.add(removed as u64);
        Ok(removed)
    }

    fn delete_io_pointers(&self, names: &[String]) -> Result<usize> {
        let mut removed = 0usize;
        {
            let mut g = self.io_pointers.write();
            for name in names {
                if g.remove(name).is_some() {
                    removed += 1;
                }
            }
        }
        for name in names {
            self.producers[name_shard(name)].write().remove(name);
            self.consumers[name_shard(name)].write().remove(name);
        }
        Ok(removed)
    }

    fn put_summary(&self, s: CompactionSummary) -> Result<()> {
        let mut g = self.summaries.write();
        let list = g.entry(s.component.clone()).or_default();
        let pos = list.partition_point(|x| x.window_start_ms <= s.window_start_ms);
        list.insert(pos, s);
        Ok(())
    }

    fn summaries(&self, component: &str) -> Result<Vec<CompactionSummary>> {
        Ok(self
            .summaries
            .read()
            .get(component)
            .cloned()
            .unwrap_or_default())
    }

    fn stats(&self) -> Result<StoreStats> {
        let runs = self.run_shards.iter().map(|s| s.read().len()).sum();
        let metric_points = self.metrics.read().series.values().map(Vec::len).sum();
        Ok(StoreStats {
            components: self.components.read().len(),
            runs,
            io_pointers: self.io_pointers.read().len(),
            metric_points,
            summaries: self.summaries.read().values().map(Vec::len).sum(),
            runs_removed: self.runs_removed.load(Ordering::Relaxed),
            events: self.events.read().len(),
            incidents: self.incidents.read().len(),
            diagnoses: self.diagnoses.read().values().map(Vec::len).sum(),
        })
    }

    fn log_events(&self, mut events: Vec<ObservabilityEvent>) -> Result<Vec<EventId>> {
        if events.is_empty() {
            return Ok(Vec::new());
        }
        // Ids come from the atomic counter; the journal lock is taken once
        // for the whole batch, matching the group-commit shape of the run
        // ingest path.
        let base = self
            .next_event_id
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        let mut ids = Vec::with_capacity(events.len());
        let mut kind_ids = Vec::with_capacity(events.len());
        for (i, e) in events.iter_mut().enumerate() {
            e.id = EventId(base + i as u64);
            ids.push(e.id);
            kind_ids.push((kind_slot(e.kind), e.id));
        }
        // Fan out first only if someone is listening: the common no-
        // subscriber case pays zero Arc allocations.
        let live = if self.bus.subscriber_count() > 0 {
            Some(
                events
                    .iter()
                    .map(|e| Arc::new(e.clone()))
                    .collect::<Vec<_>>(),
            )
        } else {
            None
        };
        {
            let mut g = self.events.write();
            // Concurrent batches may land out of id order; keep the
            // journal sorted so scans can cursor on the id.
            let sorted_append = g.last().is_none_or(|last| last.id.0 < base);
            if sorted_append {
                g.extend(events);
            } else {
                for e in events {
                    let pos = g.partition_point(|x| x.id < e.id);
                    g.insert(pos, e);
                }
            }
        }
        {
            // One kind-index lock per batch, mirroring the journal lock.
            let mut g = self.write_shard(&self.events_by_kind);
            for (slot, id) in kind_ids {
                insert_sorted(&mut g[slot], id);
            }
        }
        if let Some(live) = live {
            self.bus.publish(&live);
        }
        self.tele.events_logged.add(ids.len() as u64);
        Ok(ids)
    }

    fn scan_events(
        &self,
        since: Option<EventId>,
        filter: &EventFilter,
        limit: Option<usize>,
    ) -> Result<Vec<ObservabilityEvent>> {
        let cap = limit.unwrap_or(usize::MAX);
        let mut out = Vec::new();
        if cap == 0 {
            return Ok(out);
        }
        if let Some(kind) = filter.kind {
            // Kind-routed: candidates come from the kind index and are
            // resolved in the journal by binary search, so a rare kind
            // examines its own postings rather than the whole journal.
            // The full filter still runs against every candidate.
            let ids: Vec<EventId> = {
                let idx = self.events_by_kind.read();
                self.tele.scan_locks.incr();
                idx[kind_slot(kind)].clone()
            };
            let g = self.events.read();
            self.tele.scan_locks.incr();
            let start = match since {
                Some(s) => ids.partition_point(|&e| e <= s),
                None => 0,
            };
            let mut scanned = 0u64;
            for &eid in &ids[start..] {
                scanned += 1;
                let pos = g.partition_point(|e| e.id < eid);
                if let Some(e) = g.get(pos) {
                    if e.id == eid && filter.matches(e) {
                        out.push(e.clone());
                        if out.len() >= cap {
                            break;
                        }
                    }
                }
            }
            drop(g);
            self.tele.rows_scanned.add(scanned);
            self.tele.rows_returned.add(out.len() as u64);
            self.tele.index_hits.incr();
            return Ok(out);
        }
        let g = self.events.read();
        self.tele.scan_locks.incr();
        let start = match since {
            Some(s) => g.partition_point(|e| e.id <= s),
            None => 0,
        };
        let mut scanned = 0u64;
        for e in &g[start..] {
            scanned += 1;
            if filter.matches(e) {
                out.push(e.clone());
                if out.len() >= cap {
                    break;
                }
            }
        }
        drop(g);
        self.tele.rows_scanned.add(scanned);
        self.tele.rows_returned.add(out.len() as u64);
        Ok(out)
    }

    fn upsert_incident(&self, incident: IncidentRecord) -> Result<()> {
        if incident.key.is_empty() {
            return Err(StoreError::InvalidRecord("incident key is empty".into()));
        }
        self.incidents
            .write()
            .insert(incident.key.clone(), incident);
        Ok(())
    }

    fn incidents(&self) -> Result<Vec<IncidentRecord>> {
        Ok(self.incidents.read().values().cloned().collect())
    }

    fn put_diagnosis(&self, incident_key: &str, rows: Vec<DiagnosisRecord>) -> Result<()> {
        if incident_key.is_empty() {
            return Err(StoreError::InvalidRecord("incident key is empty".into()));
        }
        let mut g = self.diagnoses.write();
        if rows.is_empty() {
            g.remove(incident_key);
        } else {
            g.insert(incident_key.to_string(), rows);
        }
        Ok(())
    }

    fn diagnoses(&self) -> Result<Vec<DiagnosisRecord>> {
        Ok(self
            .diagnoses
            .read()
            .values()
            .flat_map(|rows| rows.iter().cloned())
            .collect())
    }

    fn event_bus(&self) -> Option<&EventBus> {
        Some(&self.bus)
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        Some(&self.tele.registry)
    }
}

/// Upsert into the pointer table: preserve flag and first-seen time,
/// refresh type and artifact. Shared by the scalar and bundle paths.
fn upsert_pointer(
    table: &mut BTreeMap<String, IoPointerRecord>,
    rec: IoPointerRecord,
) -> Result<()> {
    if rec.name.is_empty() {
        return Err(StoreError::InvalidRecord("io pointer name is empty".into()));
    }
    match table.get_mut(&rec.name) {
        Some(existing) => {
            existing.ptype = rec.ptype;
            if rec.artifact.is_some() {
                existing.artifact = rec.artifact;
            }
        }
        None => {
            table.insert(rec.name.clone(), rec);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PointerType, RunStatus};

    fn run(component: &str, start: u64, inputs: &[&str], outputs: &[&str]) -> ComponentRunRecord {
        ComponentRunRecord {
            component: component.into(),
            start_ms: start,
            end_ms: start + 10,
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            outputs: outputs.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn component_upsert_and_ordering() {
        let s = MemoryStore::new();
        s.register_component(ComponentRecord::named("zeta"))
            .unwrap();
        s.register_component(ComponentRecord::named("alpha"))
            .unwrap();
        let mut a = ComponentRecord::named("alpha");
        a.owner = "ml-team".into();
        s.register_component(a).unwrap();
        let all = s.components().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].name, "alpha");
        assert_eq!(all[0].owner, "ml-team");
        assert_eq!(s.component("zeta").unwrap().unwrap().name, "zeta");
        assert!(s.component("nope").unwrap().is_none());
    }

    #[test]
    fn empty_component_name_rejected() {
        let s = MemoryStore::new();
        assert!(matches!(
            s.register_component(ComponentRecord::default()),
            Err(StoreError::InvalidRecord(_))
        ));
    }

    #[test]
    fn run_ids_are_monotonic_and_indexed() {
        let s = MemoryStore::new();
        let a = s.log_run(run("etl", 100, &[], &["raw.csv"])).unwrap();
        let b = s
            .log_run(run("clean", 200, &["raw.csv"], &["clean.csv"]))
            .unwrap();
        let c = s.log_run(run("etl", 300, &[], &["raw.csv"])).unwrap();
        assert!(a < b && b < c);
        assert_eq!(s.runs_for_component("etl").unwrap(), vec![a, c]);
        assert_eq!(s.producers_of("raw.csv").unwrap(), vec![a, c]);
        assert_eq!(s.consumers_of("raw.csv").unwrap(), vec![b]);
        assert_eq!(s.latest_run("etl").unwrap().unwrap().id, c);
        assert_eq!(s.run_ids().unwrap(), vec![a, b, c]);
    }

    #[test]
    fn default_store_matches_new() {
        // Regression: a derived Default left next_run_id = 0 and issued
        // RunId(0), diverging from new()'s RunId(1).
        let s = MemoryStore::default();
        let id = s.log_run(run("etl", 100, &[], &[])).unwrap();
        assert_eq!(id, RunId(1));
    }

    #[test]
    fn invalid_run_rejected() {
        let s = MemoryStore::new();
        let mut r = run("x", 100, &[], &[]);
        r.end_ms = 50;
        assert!(s.log_run(r).is_err());
    }

    #[test]
    fn batch_log_runs_matches_scalar() {
        let records = vec![
            run("etl", 100, &[], &["raw.csv"]),
            run("clean", 200, &["raw.csv"], &["clean.csv", "clean.csv"]),
            run("etl", 300, &[], &["raw.csv"]),
            run("infer", 400, &["clean.csv"], &["pred-0"]),
        ];
        let scalar = MemoryStore::new();
        for r in records.clone() {
            scalar.log_run(r).unwrap();
        }
        let batched = MemoryStore::new();
        let ids = batched.log_runs(records).unwrap();
        assert_eq!(ids, vec![RunId(1), RunId(2), RunId(3), RunId(4)]);
        assert_eq!(batched.run_ids().unwrap(), scalar.run_ids().unwrap());
        for io in ["raw.csv", "clean.csv", "pred-0"] {
            assert_eq!(
                batched.producers_of(io).unwrap(),
                scalar.producers_of(io).unwrap(),
                "producers of {io}"
            );
            assert_eq!(
                batched.consumers_of(io).unwrap(),
                scalar.consumers_of(io).unwrap(),
                "consumers of {io}"
            );
        }
        for c in ["etl", "clean", "infer"] {
            assert_eq!(
                batched.runs_for_component(c).unwrap(),
                scalar.runs_for_component(c).unwrap()
            );
        }
        // Duplicate output within one run indexed once.
        assert_eq!(batched.producers_of("clean.csv").unwrap(), vec![RunId(2)]);
        // A fresh scalar log continues above the batch.
        let next = batched.log_run(run("etl", 500, &[], &[])).unwrap();
        assert_eq!(next, RunId(5));
    }

    #[test]
    fn batch_log_runs_validates_before_logging() {
        let s = MemoryStore::new();
        let mut bad = run("x", 100, &[], &[]);
        bad.end_ms = 50;
        let err = s.log_runs(vec![run("ok", 1, &[], &["o"]), bad]);
        assert!(err.is_err());
        assert_eq!(s.stats().unwrap().runs, 0, "all-or-nothing validation");
        // Ids were not burned.
        assert_eq!(s.log_run(run("ok", 1, &[], &[])).unwrap(), RunId(1));
    }

    #[test]
    fn bundle_logs_run_pointers_and_stamped_metrics() {
        let s = MemoryStore::new();
        let id = s
            .log_run_bundle(RunBundle {
                run: run("infer", 100, &["features.csv"], &["pred-1"]),
                pointers: vec![
                    IoPointerRecord::new("features.csv", 100),
                    IoPointerRecord::new("pred-1", 100),
                ],
                metrics: vec![MetricRecord {
                    component: "infer".into(),
                    run_id: None,
                    name: "latency_ms".into(),
                    value: 3.5,
                    ts_ms: 110,
                }],
                events: vec![ObservabilityEvent::new(
                    crate::event::EventKind::RunFinished,
                    crate::event::EventSeverity::Info,
                    110,
                )
                .component("infer")],
            })
            .unwrap();
        assert_eq!(id, RunId(1));
        assert!(s.io_pointer("features.csv").unwrap().is_some());
        let pts = s.metrics("infer", "latency_ms").unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].run_id, Some(id), "bundle stamps the assigned id");
        assert_eq!(s.producers_of("pred-1").unwrap(), vec![id]);
        let events = s.scan_events(None, &EventFilter::all(), None).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].run_id, Some(id), "bundle stamps event run ids");
        assert_eq!(events[0].id, EventId(1));
    }

    #[test]
    fn concurrent_scalar_ingest_is_consistent() {
        let s = MemoryStore::new();
        let store = &s;
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                scope.spawn(move || {
                    for i in 0..50u64 {
                        store
                            .log_run(run(
                                &format!("writer-{t}"),
                                t * 1000 + i,
                                &["shared.csv"],
                                &[],
                            ))
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(s.stats().unwrap().runs, 200);
        let ids = s.run_ids().unwrap();
        assert_eq!(ids.len(), 200);
        assert_eq!(ids.first(), Some(&RunId(1)));
        assert_eq!(ids.last(), Some(&RunId(200)));
        let consumers = s.consumers_of("shared.csv").unwrap();
        assert_eq!(consumers.len(), 200);
        assert!(consumers.windows(2).all(|w| w[0] < w[1]), "index ascending");
    }

    #[test]
    fn io_pointer_upsert_preserves_flag_and_created() {
        let s = MemoryStore::new();
        s.upsert_io_pointer(IoPointerRecord::new("features.csv", 10))
            .unwrap();
        assert!(!s.set_flag("features.csv", true).unwrap());
        // Re-upsert with new type info; flag and created_ms must survive.
        let mut rec = IoPointerRecord::new("features.csv", 999);
        rec.ptype = PointerType::Data;
        s.upsert_io_pointer(rec).unwrap();
        let p = s.io_pointer("features.csv").unwrap().unwrap();
        assert!(p.flag);
        assert_eq!(p.created_ms, 10);
        assert_eq!(s.flagged().unwrap(), vec!["features.csv".to_string()]);
        assert!(s.set_flag("features.csv", false).unwrap());
        assert!(s.flagged().unwrap().is_empty());
    }

    #[test]
    fn flag_on_unknown_pointer_errors() {
        let s = MemoryStore::new();
        assert!(matches!(
            s.set_flag("ghost", true),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn metrics_keep_time_order_even_with_stragglers() {
        let s = MemoryStore::new();
        for (ts, v) in [(10u64, 1.0), (30, 3.0), (20, 2.0)] {
            s.log_metric(MetricRecord {
                component: "inference".into(),
                run_id: None,
                name: "accuracy".into(),
                value: v,
                ts_ms: ts,
            })
            .unwrap();
        }
        let pts = s.metrics("inference", "accuracy").unwrap();
        assert_eq!(
            pts.iter().map(|p| p.ts_ms).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert_eq!(s.metric_names("inference").unwrap(), vec!["accuracy"]);
        assert!(s.metric_names("other").unwrap().is_empty());
    }

    #[test]
    fn metric_names_sorted_unique() {
        let s = MemoryStore::new();
        for name in ["z", "a", "z", "m"] {
            s.log_metric(MetricRecord {
                component: "c".into(),
                run_id: None,
                name: name.into(),
                value: 0.0,
                ts_ms: 0,
            })
            .unwrap();
        }
        assert_eq!(s.metric_names("c").unwrap(), vec!["a", "m", "z"]);
    }

    #[test]
    fn batch_log_metrics_matches_scalar() {
        let points: Vec<MetricRecord> = [(10u64, 1.0), (30, 3.0), (20, 2.0)]
            .iter()
            .map(|&(ts, v)| MetricRecord {
                component: "c".into(),
                run_id: None,
                name: "m".into(),
                value: v,
                ts_ms: ts,
            })
            .collect();
        let scalar = MemoryStore::new();
        for p in points.clone() {
            scalar.log_metric(p).unwrap();
        }
        let batched = MemoryStore::new();
        batched.log_metrics(points).unwrap();
        assert_eq!(
            batched.metrics("c", "m").unwrap(),
            scalar.metrics("c", "m").unwrap()
        );
        assert_eq!(batched.metric_names("c").unwrap(), vec!["m"]);
    }

    #[test]
    fn delete_runs_updates_all_indexes() {
        let s = MemoryStore::new();
        let a = s.log_run(run("etl", 100, &[], &["raw.csv"])).unwrap();
        let b = s
            .log_run(run("clean", 200, &["raw.csv"], &["clean.csv"]))
            .unwrap();
        assert_eq!(s.delete_runs(&[a, RunId(999)]).unwrap(), 1);
        assert!(s.run(a).unwrap().is_none());
        assert!(s.runs_for_component("etl").unwrap().is_empty());
        assert!(s.producers_of("raw.csv").unwrap().is_empty());
        assert_eq!(s.consumers_of("raw.csv").unwrap(), vec![b]);
        assert_eq!(s.run_ids().unwrap(), vec![b]);
        assert_eq!(s.stats().unwrap().runs_removed, 1);
    }

    #[test]
    fn delete_io_pointers_removes_indexes() {
        let s = MemoryStore::new();
        s.upsert_io_pointer(IoPointerRecord::new("x.csv", 0))
            .unwrap();
        s.log_run(run("a", 1, &[], &["x.csv"])).unwrap();
        assert_eq!(s.delete_io_pointers(&["x.csv".to_string()]).unwrap(), 1);
        assert!(s.io_pointer("x.csv").unwrap().is_none());
        assert!(s.producers_of("x.csv").unwrap().is_empty());
    }

    #[test]
    fn summaries_sorted_by_window() {
        let s = MemoryStore::new();
        for start in [200u64, 100, 300] {
            s.put_summary(CompactionSummary {
                component: "etl".into(),
                window_start_ms: start,
                window_end_ms: start + 100,
                run_count: 1,
                failed_count: 0,
                mean_duration_ms: 5.0,
                metric_aggregates: Default::default(),
            })
            .unwrap();
        }
        let windows: Vec<u64> = s
            .summaries("etl")
            .unwrap()
            .iter()
            .map(|x| x.window_start_ms)
            .collect();
        assert_eq!(windows, vec![100, 200, 300]);
    }

    #[test]
    fn stats_counts_everything() {
        let s = MemoryStore::new();
        s.register_component(ComponentRecord::named("c")).unwrap();
        s.log_run(run("c", 1, &["in.csv"], &["out.csv"])).unwrap();
        s.upsert_io_pointer(IoPointerRecord::new("in.csv", 0))
            .unwrap();
        s.log_metric(MetricRecord {
            component: "c".into(),
            run_id: None,
            name: "m".into(),
            value: 1.0,
            ts_ms: 0,
        })
        .unwrap();
        let st = s.stats().unwrap();
        assert_eq!(st.components, 1);
        assert_eq!(st.runs, 1);
        assert_eq!(st.io_pointers, 1);
        assert_eq!(st.metric_points, 1);
    }

    #[test]
    fn restore_run_respects_ids() {
        let s = MemoryStore::new();
        let mut r = run("c", 1, &[], &["o"]);
        r.id = RunId(42);
        s.restore_run(r.clone()).unwrap();
        assert!(s.restore_run(r).is_err(), "duplicate id rejected");
        // A fresh run must get an id above the restored one.
        let next = s.log_run(run("c", 2, &[], &[])).unwrap();
        assert!(next.0 > 42);
    }

    #[test]
    fn store_telemetry_counts_ingest_ops() {
        let s = MemoryStore::new();
        s.log_run(run("etl", 100, &[], &["raw.csv"])).unwrap();
        s.log_runs(vec![run("etl", 200, &[], &[]), run("etl", 300, &[], &[])])
            .unwrap();
        s.log_run_bundle(RunBundle {
            run: run("infer", 400, &["raw.csv"], &["pred"]),
            pointers: vec![IoPointerRecord::new("raw.csv", 0)],
            metrics: vec![MetricRecord {
                component: "infer".into(),
                run_id: None,
                name: "latency_ms".into(),
                value: 1.0,
                ts_ms: 410,
            }],
            events: Vec::new(),
        })
        .unwrap();
        s.delete_runs(&[RunId(1)]).unwrap();
        let snap = s.telemetry().unwrap().snapshot();
        assert_eq!(snap.counters["store.runs_logged_total"], 4);
        assert_eq!(snap.counters["store.bundles_total"], 1);
        assert_eq!(snap.counters["store.pointer_upserts_total"], 1);
        assert_eq!(snap.counters["store.metrics_logged_total"], 1);
        assert_eq!(snap.counters["store.runs_deleted_total"], 1);
        let hist = &snap.histograms["store.log_run_bundle"];
        assert_eq!(hist.count, 1);
        assert!(hist.sum > 0, "bundle latency recorded");
    }

    #[test]
    fn trigger_failed_status_round_trips() {
        let s = MemoryStore::new();
        let mut r = run("c", 1, &[], &[]);
        r.status = RunStatus::TriggerFailed;
        let id = s.log_run(r).unwrap();
        assert_eq!(s.run(id).unwrap().unwrap().status, RunStatus::TriggerFailed);
    }

    /// 60 runs across 3 components with some failures; enough to populate
    /// every shard.
    fn scan_fixture() -> MemoryStore {
        let s = MemoryStore::new();
        for i in 0..60u64 {
            let mut r = run(
                ["etl", "clean", "infer"][(i % 3) as usize],
                100 + i,
                &[],
                &[],
            );
            if i % 7 == 0 {
                r.status = RunStatus::Failed;
            }
            s.log_run(r).unwrap();
        }
        s
    }

    /// The naive reference: run_ids + per-id fetch + filter + limit.
    fn naive_scan(
        s: &MemoryStore,
        since: Option<RunId>,
        filter: &RunFilter,
        limit: Option<usize>,
    ) -> Vec<ComponentRunRecord> {
        let cap = limit.unwrap_or(usize::MAX);
        let mut out = Vec::new();
        if cap == 0 {
            return out;
        }
        for id in s.run_ids().unwrap() {
            if since.is_some_and(|x| id <= x) {
                continue;
            }
            let r = s.run(id).unwrap().unwrap();
            if filter.matches(&r) {
                out.push(r);
                if out.len() >= cap {
                    break;
                }
            }
        }
        out
    }

    #[test]
    fn scan_runs_matches_naive_path() {
        let s = scan_fixture();
        let filters = [
            RunFilter::all(),
            RunFilter::all().with_component("etl"),
            RunFilter::all().with_status(RunStatus::Failed),
            RunFilter::all()
                .with_component("clean")
                .started_at_or_after(120)
                .started_at_or_before(150),
        ];
        for filter in &filters {
            for since in [None, Some(RunId(0)), Some(RunId(30)), Some(RunId(60))] {
                for limit in [None, Some(0), Some(5), Some(1000)] {
                    let got = s.scan_runs(since, filter, limit).unwrap();
                    let want = naive_scan(&s, since, filter, limit);
                    assert_eq!(
                        got, want,
                        "filter={filter:?} since={since:?} limit={limit:?}"
                    );
                    assert!(
                        got.windows(2).all(|w| w[0].id < w[1].id),
                        "ascending id order"
                    );
                }
            }
        }
    }

    #[test]
    fn scan_runs_chunked_preserves_global_order_and_early_stop() {
        let s = scan_fixture();
        let mut seen: Vec<RunId> = Vec::new();
        s.scan_runs_chunked(Some(RunId(10)), &RunFilter::all(), 7, &mut |batch| {
            seen.extend(batch.iter().map(|r| r.id));
            true
        })
        .unwrap();
        let want: Vec<RunId> = (11..=60).map(RunId).collect();
        assert_eq!(seen, want, "chunks cover exactly the post-cursor runs");
        // Early stop: visitor bails after the first chunk.
        let mut batches = 0;
        s.scan_runs_chunked(None, &RunFilter::all(), 7, &mut |_| {
            batches += 1;
            false
        })
        .unwrap();
        assert_eq!(batches, 1);
    }

    #[test]
    fn component_history_matches_point_lookup_tail() {
        let s = scan_fixture();
        for limit in [0, 1, 5, 100] {
            let got = s.component_history("etl", limit).unwrap();
            let ids = s.runs_for_component("etl").unwrap();
            let want: Vec<ComponentRunRecord> = ids
                .iter()
                .rev()
                .take(limit)
                .map(|id| s.run(*id).unwrap().unwrap())
                .collect();
            assert_eq!(got, want, "limit={limit}");
        }
        assert!(s.component_history("ghost", 5).unwrap().is_empty());
    }

    #[test]
    fn scan_telemetry_counts_scanned_vs_returned() {
        let s = scan_fixture();
        let base = s.telemetry().unwrap().snapshot();
        assert_eq!(
            base.counters.get("query.rows_scanned").copied(),
            Some(0),
            "scan counters registered but untouched before the first scan"
        );
        // Selective filter: all 60 rows examined, 20 returned.
        let got = s
            .scan_runs(None, &RunFilter::all().with_component("etl"), None)
            .unwrap();
        assert_eq!(got.len(), 20);
        let snap = s.telemetry().unwrap().snapshot();
        assert_eq!(snap.counters["query.rows_scanned"], 60);
        assert_eq!(snap.counters["query.rows_returned"], 20);
        // One lock acquisition per shard, not per row.
        assert_eq!(snap.counters["query.scan_locks_total"], 16);
    }

    #[test]
    fn scan_limit_bounds_clones_and_counts() {
        let s = scan_fixture();
        let got = s.scan_runs(None, &RunFilter::all(), Some(3)).unwrap();
        assert_eq!(
            got.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![RunId(1), RunId(2), RunId(3)]
        );
        let snap = s.telemetry().unwrap().snapshot();
        assert_eq!(snap.counters["query.rows_returned"], 3);
    }

    use crate::event::{EventKind, EventSeverity};

    fn event(kind: EventKind, sev: EventSeverity, ts: u64, component: &str) -> ObservabilityEvent {
        ObservabilityEvent::new(kind, sev, ts).component(component)
    }

    #[test]
    fn log_events_assigns_monotonic_ids_and_scans_back() {
        let s = MemoryStore::new();
        let ids = s
            .log_events(vec![
                event(EventKind::RunStarted, EventSeverity::Info, 100, "etl"),
                event(EventKind::AlertFired, EventSeverity::Page, 200, "infer"),
                event(EventKind::AlertFired, EventSeverity::Warn, 300, "infer"),
            ])
            .unwrap();
        assert_eq!(ids, vec![EventId(1), EventId(2), EventId(3)]);
        let all = s.scan_events(None, &EventFilter::all(), None).unwrap();
        assert_eq!(all.len(), 3);
        assert!(all.windows(2).all(|w| w[0].id < w[1].id));
        // Cursor: strictly after EventId(1).
        let after = s
            .scan_events(Some(EventId(1)), &EventFilter::all(), None)
            .unwrap();
        assert_eq!(after.len(), 2);
        assert_eq!(after[0].id, EventId(2));
        // Filter + limit.
        let fired = s
            .scan_events(
                None,
                &EventFilter::all().with_kind(EventKind::AlertFired),
                Some(1),
            )
            .unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].severity, EventSeverity::Page);
        let paged = s
            .scan_events(
                None,
                &EventFilter::all().with_severity(EventSeverity::Page),
                None,
            )
            .unwrap();
        assert_eq!(paged.len(), 1);
        assert_eq!(s.stats().unwrap().events, 3);
        let snap = s.telemetry().unwrap().snapshot();
        assert_eq!(snap.counters["store.events_logged_total"], 3);
    }

    #[test]
    fn log_events_publishes_to_live_subscribers() {
        let s = MemoryStore::new();
        let sub = s.event_bus().unwrap().subscribe();
        s.log_events(vec![event(
            EventKind::WalRecovered,
            EventSeverity::Warn,
            5,
            "",
        )])
        .unwrap();
        let got = sub.poll();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, EventId(1), "published after id assignment");
        assert_eq!(got[0].kind, EventKind::WalRecovered);
    }

    #[test]
    fn restore_event_keeps_id_and_advances_counter() {
        let s = MemoryStore::new();
        let mut e = event(EventKind::RunStarted, EventSeverity::Info, 1, "etl");
        e.id = EventId(7);
        s.restore_event(e).unwrap();
        let mut early = event(EventKind::RunStarted, EventSeverity::Info, 0, "etl");
        early.id = EventId(3);
        s.restore_event(early).unwrap();
        let all = s.scan_events(None, &EventFilter::all(), None).unwrap();
        assert_eq!(
            all.iter().map(|e| e.id.0).collect::<Vec<_>>(),
            vec![3, 7],
            "straggler restored in sorted position"
        );
        let next = s
            .log_events(vec![event(
                EventKind::RunFinished,
                EventSeverity::Info,
                2,
                "etl",
            )])
            .unwrap();
        assert_eq!(next, vec![EventId(8)], "fresh ids continue past restores");
        let mut unassigned = event(EventKind::RunStarted, EventSeverity::Info, 0, "x");
        unassigned.id = EventId(0);
        assert!(s.restore_event(unassigned).is_err());
    }

    #[test]
    fn incidents_upsert_by_key_and_list_ordered() {
        let s = MemoryStore::new();
        let inc = |key: &str, fires: u64| IncidentRecord {
            key: key.into(),
            state: crate::event::IncidentState::Open,
            severity: EventSeverity::Page,
            subject: "accuracy".into(),
            opened_ms: 100,
            last_fire_ms: 100,
            resolved_ms: None,
            fire_count: fires,
            suppressed_count: 0,
            burn_ms: 0,
            detail: String::new(),
        };
        s.upsert_incident(inc("zeta", 1)).unwrap();
        s.upsert_incident(inc("alpha", 1)).unwrap();
        s.upsert_incident(inc("zeta", 5)).unwrap();
        let all = s.incidents().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].key, "alpha");
        assert_eq!(all[1].fire_count, 5, "re-upsert replaced by key");
        assert_eq!(s.stats().unwrap().incidents, 2);
        assert!(s
            .upsert_incident(IncidentRecord {
                key: String::new(),
                ..inc("x", 1)
            })
            .is_err());
    }

    /// A store with runs spread over components, statuses, and times, so
    /// every index route has something to narrow.
    fn indexed_fixture() -> MemoryStore {
        let s = MemoryStore::new();
        for i in 0u64..30 {
            let mut r = run(
                ["etl", "train", "infer"][(i % 3) as usize],
                100 + i * 10,
                &[],
                &[],
            );
            if i % 5 == 0 {
                r.status = RunStatus::Failed;
            }
            s.log_run(r).unwrap();
        }
        s
    }

    #[test]
    fn indexed_scan_matches_full_scan_on_every_route() {
        let s = indexed_fixture();
        let filters = [
            RunFilter::all().with_component("train"),
            RunFilter::all().with_status(RunStatus::Failed),
            RunFilter::all()
                .started_at_or_after(150)
                .started_at_or_before(260),
            RunFilter::all()
                .with_id_at_or_after(7)
                .with_id_at_or_before(19),
            // Route column plus extra conjuncts the re-check must apply.
            RunFilter::all()
                .with_component("etl")
                .started_at_or_after(250),
            RunFilter::all().with_id_at_or_after(40), // clamps to empty
        ];
        for filter in &filters {
            let reference = s.scan_runs(None, filter, None).unwrap();
            for route in [
                IndexRoute::Component,
                IndexRoute::Status,
                IndexRoute::StartTime,
                IndexRoute::IdRange,
            ] {
                let Some(routed) = s.scan_runs_indexed(None, filter, None, route).unwrap() else {
                    assert!(!route.applicable(filter), "{route:?} refused {filter:?}");
                    continue;
                };
                assert_eq!(routed, reference, "route {route:?} on {filter:?}");
            }
        }
        // `since` and `limit` compose with the routed path.
        let filter = RunFilter::all().with_component("train");
        let all = s.scan_runs(None, &filter, None).unwrap();
        let since = all[2].id;
        let routed = s
            .scan_runs_indexed(Some(since), &filter, Some(3), IndexRoute::Component)
            .unwrap()
            .unwrap();
        assert_eq!(routed, all[3..6].to_vec());
    }

    #[test]
    fn inapplicable_route_misses_and_counts() {
        let s = indexed_fixture();
        let r = s
            .scan_runs_indexed(None, &RunFilter::all(), None, IndexRoute::Component)
            .unwrap();
        assert!(r.is_none(), "no component bound, route not applicable");
        let snap = s.telemetry().unwrap().snapshot();
        assert_eq!(snap.counters["query.index_misses_total"], 1);
        assert_eq!(snap.counters["query.index_hits_total"], 0);
    }

    #[test]
    fn index_stats_reflect_live_runs() {
        let s = indexed_fixture();
        let stats = s.index_stats().unwrap().unwrap();
        assert_eq!(stats.runs, 30);
        assert_eq!(stats.distinct_components, 3);
        assert_eq!(stats.distinct_statuses, 2);
        assert_eq!(stats.min_start_ms, Some(100));
        assert_eq!(stats.max_start_ms, Some(390));
        assert_eq!(stats.next_id, 31);
        // Deletions shrink the stats (indexes drop their postings).
        let ids = s.run_ids().unwrap();
        s.delete_runs(&ids[..10]).unwrap();
        let stats = s.index_stats().unwrap().unwrap();
        assert_eq!(stats.runs, 20);
        assert_eq!(stats.min_start_ms, Some(200));
    }

    #[test]
    fn index_footprint_counts_entries_and_sets_gauge() {
        let s = indexed_fixture();
        s.log_events(vec![ObservabilityEvent::new(
            EventKind::AlertFired,
            EventSeverity::Page,
            50,
        )])
        .unwrap();
        let fp = s.index_footprint().unwrap();
        let names: Vec<&str> = fp.iter().map(|f| f.name).collect();
        assert_eq!(
            names,
            vec!["by_component", "by_start", "by_status", "events_by_kind"]
        );
        let by = |n: &str| fp.iter().find(|f| f.name == n).unwrap();
        assert_eq!(by("by_component").keys, 3);
        assert_eq!(by("by_component").entries, 30);
        assert_eq!(by("by_start").entries, 30);
        assert_eq!(by("by_status").keys, 2);
        assert_eq!(by("by_status").entries, 30);
        assert_eq!(by("events_by_kind").keys, 1);
        assert_eq!(by("events_by_kind").entries, 1);
        assert!(fp.iter().all(|f| f.approx_bytes > 0));
        let total: u64 = fp.iter().map(|f| f.approx_bytes).sum();
        let snap = s.telemetry().unwrap().snapshot();
        assert_eq!(snap.gauges["store.index_bytes"], total as i64);
    }

    #[test]
    fn kind_routed_event_scan_examines_only_postings() {
        let s = MemoryStore::new();
        let mut events = Vec::new();
        for i in 0u64..40 {
            events.push(ObservabilityEvent::new(
                EventKind::RunStarted,
                EventSeverity::Info,
                i,
            ));
        }
        events.push(
            ObservabilityEvent::new(EventKind::AlertFired, EventSeverity::Page, 99)
                .component("infer"),
        );
        s.log_events(events).unwrap();
        let snap = s.telemetry().unwrap().snapshot();
        let before = snap.counters["query.rows_scanned"];
        let got = s
            .scan_events(
                None,
                &EventFilter::all().with_kind(EventKind::AlertFired),
                None,
            )
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].kind, EventKind::AlertFired);
        let snap = s.telemetry().unwrap().snapshot();
        assert_eq!(
            snap.counters["query.rows_scanned"] - before,
            1,
            "only the kind's postings examined, not the whole journal"
        );
        assert_eq!(snap.counters["query.index_hits_total"], 1);
    }
}
