//! Relational view of the store for the SQL layer (§4.2: "users can query
//! the logs and metadata via SQL").
//!
//! Nine virtual tables are exposed: `components`, `component_runs`,
//! `io_pointers`, `metrics`, `summaries` (the live monitoring plane's
//! per-(component, metric) streaming summaries), `rollups` (compaction
//! rollups of aged-out runs), `events` (the observability journal),
//! `incidents`, and `diagnoses` (ranked root-cause hypotheses). [`scan`]
//! materializes a table as rows of [`Value`]s in the column order given by
//! [`table_schema`].

use crate::error::{Result, StoreError};
use crate::event::{DiagnosisRecord, EventFilter, IncidentRecord, ObservabilityEvent};
use crate::record::{ComponentRunRecord, MetricRecord, RunId};
use crate::scan::RunFilter;
use crate::store::Store;
use crate::value::Value;
use mltrace_metrics::MonitorSummary;

/// A materialized row.
pub type Row = Vec<Value>;

/// The virtual tables exposed to SQL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// Component metadata.
    Components,
    /// Component run logs.
    ComponentRuns,
    /// I/O pointers.
    IoPointers,
    /// Metric points.
    Metrics,
    /// Live monitoring-plane summaries (one row per observed
    /// `(component, metric)` key).
    Summaries,
    /// Compaction rollups of runs aged out by retention.
    Rollups,
    /// The observability journal (run lifecycle, triggers, alerts, WAL).
    Events,
    /// Incident lifecycle records folded from Page-tier alerts.
    Incidents,
    /// Ranked root-cause hypotheses from the diagnosis engine (one row per
    /// (incident key, rank)).
    Diagnoses,
}

impl Table {
    /// Resolve a (case-insensitive) table name.
    pub fn parse(name: &str) -> Option<Table> {
        match name.to_ascii_lowercase().as_str() {
            "components" => Some(Table::Components),
            "component_runs" | "runs" => Some(Table::ComponentRuns),
            "io_pointers" | "iopointers" => Some(Table::IoPointers),
            "metrics" => Some(Table::Metrics),
            "summaries" | "monitor" => Some(Table::Summaries),
            "rollups" => Some(Table::Rollups),
            "events" | "journal" => Some(Table::Events),
            "incidents" => Some(Table::Incidents),
            "diagnoses" => Some(Table::Diagnoses),
            _ => None,
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Table::Components => "components",
            Table::ComponentRuns => "component_runs",
            Table::IoPointers => "io_pointers",
            Table::Metrics => "metrics",
            Table::Summaries => "summaries",
            Table::Rollups => "rollups",
            Table::Events => "events",
            Table::Incidents => "incidents",
            Table::Diagnoses => "diagnoses",
        }
    }
}

/// Column names of a table, in scan order.
pub fn table_schema(table: Table) -> &'static [&'static str] {
    match table {
        Table::Components => &["name", "description", "owner", "tags"],
        Table::ComponentRuns => &[
            "id",
            "component",
            "start_ms",
            "end_ms",
            "duration_ms",
            "status",
            "inputs",
            "outputs",
            "code_hash",
            "notes",
            "dependencies",
            "trigger_failures",
        ],
        Table::IoPointers => &["name", "ptype", "flag", "created_ms", "artifact"],
        Table::Metrics => &["component", "run_id", "name", "value", "ts_ms"],
        Table::Summaries => &[
            "component",
            "metric",
            "window",
            "count",
            "mean",
            "p50",
            "p95",
            "p99",
            "null_rate",
            "drift_score",
            "drift_method",
        ],
        Table::Rollups => &[
            "component",
            "window_start_ms",
            "window_end_ms",
            "run_count",
            "failed_count",
            "mean_duration_ms",
        ],
        Table::Events => &[
            "id",
            "ts_ms",
            "kind",
            "severity",
            "component",
            "run_id",
            "detail",
        ],
        Table::Incidents => &[
            "key",
            "state",
            "severity",
            "subject",
            "opened_ms",
            "last_fire_ms",
            "resolved_ms",
            "fire_count",
            "suppressed_count",
            "burn_ms",
            "detail",
        ],
        Table::Diagnoses => &[
            "incident_key",
            "rank",
            "suspect",
            "evidence_kind",
            "score",
            "onset_ms",
        ],
    }
}

/// Materialize all rows of a table.
pub fn scan(store: &dyn Store, table: Table) -> Result<Vec<Row>> {
    match table {
        Table::Components => Ok(store
            .components()?
            .into_iter()
            .map(|c| {
                vec![
                    Value::from(c.name),
                    Value::from(c.description),
                    Value::from(c.owner),
                    Value::from(c.tags),
                ]
            })
            .collect()),
        Table::ComponentRuns => scan_runs_rows(store, &RunFilter::default(), None),
        Table::IoPointers => Ok(store
            .io_pointers()?
            .into_iter()
            .map(|p| {
                vec![
                    Value::from(p.name),
                    Value::from(p.ptype.name()),
                    Value::from(p.flag),
                    Value::from(p.created_ms),
                    Value::from(p.artifact),
                ]
            })
            .collect()),
        Table::Metrics => scan_metrics_rows(store, None, None),
        Table::Summaries => scan_summary_rows(store, None, None),
        Table::Rollups => {
            let mut rows = Vec::new();
            for comp in store.components()? {
                for s in store.summaries(&comp.name)? {
                    rows.push(vec![
                        Value::from(s.component),
                        Value::from(s.window_start_ms),
                        Value::from(s.window_end_ms),
                        Value::from(s.run_count),
                        Value::from(s.failed_count),
                        Value::from(s.mean_duration_ms),
                    ]);
                }
            }
            Ok(rows)
        }
        Table::Events => scan_events_rows(store, &EventFilter::all(), None),
        Table::Incidents => Ok(store.incidents()?.iter().map(incident_row).collect()),
        Table::Diagnoses => scan_diagnosis_rows(store, None, None),
    }
}

/// Convert one journal event into its `events` row (the column order of
/// [`table_schema`]). The structured payload is not a column: SQL filters
/// on the typed fields; the payload travels with the record for trace
/// export and `tail`.
pub fn event_row(e: &ObservabilityEvent) -> Row {
    vec![
        Value::from(e.id.0),
        Value::from(e.ts_ms),
        Value::from(e.kind.name()),
        Value::from(e.severity.name()),
        Value::from(e.component.clone()),
        e.run_id
            .map(|RunId(i)| Value::from(i))
            .unwrap_or(Value::Null),
        Value::from(e.detail.clone()),
    ]
}

/// Convert one incident into its `incidents` row.
pub fn incident_row(i: &IncidentRecord) -> Row {
    vec![
        Value::from(i.key.clone()),
        Value::from(i.state.name()),
        Value::from(i.severity.name()),
        Value::from(i.subject.clone()),
        Value::from(i.opened_ms),
        Value::from(i.last_fire_ms),
        i.resolved_ms.map(Value::from).unwrap_or(Value::Null),
        Value::from(i.fire_count),
        Value::from(i.suppressed_count),
        Value::from(i.burn_ms),
        Value::from(i.detail.clone()),
    ]
}

/// Convert one diagnosis row into its `diagnoses` row. The score is
/// always finite by the engine's contract, but a non-finite value would
/// surface as NULL (the `summaries` discipline) rather than a NaN float.
pub fn diagnosis_row(d: &DiagnosisRecord) -> Row {
    vec![
        Value::from(d.incident_key.clone()),
        Value::from(d.rank),
        Value::from(d.suspect.clone()),
        Value::from(d.evidence_kind.clone()),
        if d.score.is_finite() {
            Value::Float(d.score)
        } else {
            Value::Null
        },
        Value::from(d.onset_ms),
    ]
}

/// The scan of a small keyed table held whole in memory: snapshot every
/// record, keep those whose two key columns equal the pushed restrictions
/// (`None` = unrestricted), convert the survivors, count both sides.
fn scan_keyed_rows<T>(
    store: &dyn Store,
    all: Vec<T>,
    keys: fn(&T) -> [&str; 2],
    want: [Option<&str>; 2],
    row: fn(&T) -> Row,
) -> Vec<Row> {
    let keep = |rec: &&T| {
        let have = keys(rec);
        (0..2).all(|i| want[i].is_none_or(|w| have[i] == w))
    };
    let rows: Vec<Row> = all.iter().filter(keep).map(row).collect();
    if let Some(t) = store.telemetry() {
        t.add("query.rows_scanned", all.len() as u64);
        t.add("query.rows_returned", rows.len() as u64);
    }
    rows
}

/// Materialize `diagnoses` rows, optionally restricted to one incident
/// key and/or one suspect (the pushdown the planner extracts from
/// equality conjuncts). Rows come back in (incident key, rank) order.
pub fn scan_diagnosis_rows(
    store: &dyn Store,
    incident_key: Option<&str>,
    suspect: Option<&str>,
) -> Result<Vec<Row>> {
    Ok(scan_keyed_rows(
        store,
        store.diagnoses()?,
        |d| [&d.incident_key, &d.suspect],
        [incident_key, suspect],
        diagnosis_row,
    ))
}

/// Materialize `events` rows through the journal's filtered scan. The
/// store-side scan already records `query.rows_scanned` /
/// `query.rows_returned`, so this is a pure conversion.
pub fn scan_events_rows(
    store: &dyn Store,
    filter: &EventFilter,
    limit: Option<usize>,
) -> Result<Vec<Row>> {
    Ok(store
        .scan_events(None, filter, limit)?
        .iter()
        .map(event_row)
        .collect())
}

/// Convert one run record into its `component_runs` row (the column order
/// of [`table_schema`]).
pub fn run_row(r: &ComponentRunRecord) -> Row {
    let failures: Vec<String> = r
        .triggers
        .iter()
        .filter(|t| !t.passed)
        .map(|t| t.trigger.clone())
        .collect();
    vec![
        Value::from(r.id.0),
        Value::from(r.component.clone()),
        Value::from(r.start_ms),
        Value::from(r.end_ms),
        Value::from(r.end_ms.saturating_sub(r.start_ms)),
        Value::from(r.status.name()),
        Value::from(r.inputs.clone()),
        Value::from(r.outputs.clone()),
        Value::from(r.code_hash.clone()),
        Value::from(r.notes.clone()),
        Value::List(r.dependencies.iter().map(|d| Value::from(d.0)).collect()),
        Value::from(failures),
    ]
}

/// Extract a single `component_runs` column from a run record without
/// materializing the full row — the grouped partial-aggregate scan reads
/// only the grouped/aggregated columns per record. Must agree with
/// [`run_row`] position for position.
pub fn run_column_value(r: &ComponentRunRecord, idx: usize) -> Value {
    match idx {
        0 => Value::from(r.id.0),
        1 => Value::from(r.component.clone()),
        2 => Value::from(r.start_ms),
        3 => Value::from(r.end_ms),
        4 => Value::from(r.end_ms.saturating_sub(r.start_ms)),
        5 => Value::from(r.status.name()),
        6 => Value::from(r.inputs.clone()),
        7 => Value::from(r.outputs.clone()),
        8 => Value::from(r.code_hash.clone()),
        9 => Value::from(r.notes.clone()),
        10 => Value::List(r.dependencies.iter().map(|d| Value::from(d.0)).collect()),
        11 => {
            let failures: Vec<String> = r
                .triggers
                .iter()
                .filter(|t| !t.passed)
                .map(|t| t.trigger.clone())
                .collect();
            Value::from(failures)
        }
        _ => Value::Null,
    }
}

/// Convert one monitoring-plane summary into its `summaries` row. The
/// `window` column counts *completed* windows; non-finite stats (an empty
/// plane key cannot occur, but quantiles before any finite point can be
/// NaN) surface as NULL rather than a float NaN that no SQL comparison
/// would ever match.
pub fn summary_row(s: &MonitorSummary) -> Row {
    let float = |f: f64| {
        if f.is_finite() {
            Value::Float(f)
        } else {
            Value::Null
        }
    };
    vec![
        Value::from(s.component.clone()),
        Value::from(s.metric.clone()),
        Value::from(s.windows),
        Value::from(s.count),
        float(s.mean),
        float(s.p50),
        float(s.p95),
        float(s.p99),
        float(s.null_rate),
        float(s.drift_score),
        Value::from(s.drift_method.clone()),
    ]
}

/// Materialize `summaries` rows, optionally restricted to one component
/// and/or one metric (the pushdown the planner extracts from equality
/// conjuncts). The plane is in-memory state, so the "scan" is a snapshot
/// of every key followed by the pushed restriction.
pub fn scan_summary_rows(
    store: &dyn Store,
    component: Option<&str>,
    metric: Option<&str>,
) -> Result<Vec<Row>> {
    Ok(scan_keyed_rows(
        store,
        store.monitor_summaries()?,
        |s| [&s.component, &s.metric],
        [component, metric],
        summary_row,
    ))
}

/// Convert one metric point into its `metrics` row.
pub fn metric_row(m: &MetricRecord) -> Row {
    vec![
        Value::from(m.component.clone()),
        m.run_id
            .map(|RunId(i)| Value::from(i))
            .unwrap_or(Value::Null),
        Value::from(m.name.clone()),
        Value::from(m.value),
        Value::from(m.ts_ms),
    ]
}

/// Materialize `component_runs` rows through the batched scan, converting
/// only runs that survive `filter` (and `limit`) to [`Value`] rows. With
/// no limit the scan streams in bounded chunks so peak record memory is
/// independent of the match count.
pub fn scan_runs_rows(
    store: &dyn Store,
    filter: &RunFilter,
    limit: Option<usize>,
) -> Result<Vec<Row>> {
    match limit {
        Some(cap) => Ok(store
            .scan_runs(None, filter, Some(cap))?
            .iter()
            .map(run_row)
            .collect()),
        None => {
            let mut rows = Vec::new();
            store.scan_runs_chunked(None, filter, 4096, &mut |batch| {
                rows.extend(batch.iter().map(run_row));
                true
            })?;
            Ok(rows)
        }
    }
}

/// Materialize `metrics` rows, optionally restricted to one component and
/// truncated at `limit` points.
///
/// Mirrors the full scan's registered-components-only semantics: metric
/// points logged for a component that was never registered do not appear,
/// with or without the `component` restriction — a pushed-down
/// `component = 'x'` predicate must not widen the result.
pub fn scan_metrics_rows(
    store: &dyn Store,
    component: Option<&str>,
    limit: Option<usize>,
) -> Result<Vec<Row>> {
    let cap = limit.unwrap_or(usize::MAX);
    let mut rows = Vec::new();
    if cap == 0 {
        return Ok(rows);
    }
    let names: Vec<String> = match component {
        Some(c) => match store.component(c)? {
            Some(rec) => vec![rec.name],
            None => return Ok(rows),
        },
        None => store.components()?.into_iter().map(|c| c.name).collect(),
    };
    let mut scanned = 0u64;
    'outer: for comp in &names {
        for name in store.metric_names(comp)? {
            for m in store.metrics(comp, &name)? {
                scanned += 1;
                rows.push(metric_row(&m));
                if rows.len() >= cap {
                    break 'outer;
                }
            }
        }
    }
    if let Some(t) = store.telemetry() {
        t.add("query.rows_scanned", scanned);
        t.add("query.rows_returned", rows.len() as u64);
    }
    Ok(rows)
}

/// Index of a column in a table's schema, or an error naming the table.
pub fn column_index(table: Table, column: &str) -> Result<usize> {
    table_schema(table)
        .iter()
        .position(|c| c.eq_ignore_ascii_case(column))
        .ok_or_else(|| StoreError::NotFound(format!("column {column} in table {}", table.name())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, EventSeverity, IncidentState};
    use crate::memory::MemoryStore;
    use crate::record::{
        ComponentRecord, ComponentRunRecord, IoPointerRecord, MetricRecord, TriggerOutcomeRecord,
    };

    fn seeded() -> MemoryStore {
        let s = MemoryStore::new();
        let mut c = ComponentRecord::named("etl");
        c.owner = "data-eng".into();
        s.register_component(c).unwrap();
        s.upsert_io_pointer(IoPointerRecord::new("raw.csv", 1))
            .unwrap();
        s.log_run(ComponentRunRecord {
            component: "etl".into(),
            start_ms: 10,
            end_ms: 30,
            outputs: vec!["raw.csv".into()],
            triggers: vec![TriggerOutcomeRecord {
                trigger: "no_nulls".into(),
                phase: "after".into(),
                passed: false,
                detail: "".into(),
                values: Default::default(),
            }],
            ..Default::default()
        })
        .unwrap();
        s.log_metric(MetricRecord {
            component: "etl".into(),
            run_id: None,
            name: "rows".into(),
            value: 5.0,
            ts_ms: 11,
        })
        .unwrap();
        s.log_events(vec![
            ObservabilityEvent::new(EventKind::RunFinished, EventSeverity::Info, 30)
                .component("etl")
                .run(RunId(1)),
            ObservabilityEvent::new(EventKind::AlertFired, EventSeverity::Page, 31)
                .component("etl")
                .detail("null-rate breach"),
        ])
        .unwrap();
        s.upsert_incident(IncidentRecord {
            key: "etl/null-rate".into(),
            state: IncidentState::Open,
            severity: EventSeverity::Page,
            subject: "etl".into(),
            opened_ms: 31,
            last_fire_ms: 31,
            resolved_ms: None,
            fire_count: 1,
            suppressed_count: 0,
            burn_ms: 0,
            detail: "null-rate breach".into(),
        })
        .unwrap();
        s.put_diagnosis(
            "etl/null-rate",
            vec![
                DiagnosisRecord {
                    incident_key: "etl/null-rate".into(),
                    rank: 1,
                    suspect: "etl".into(),
                    evidence_kind: "run_failed".into(),
                    score: 3.0,
                    onset_ms: 10,
                    distance: 0,
                    detail: "run#1 failed".into(),
                },
                DiagnosisRecord {
                    incident_key: "etl/null-rate".into(),
                    rank: 2,
                    suspect: "upstream".into(),
                    evidence_kind: "drift_onset".into(),
                    score: 1.8,
                    onset_ms: 8,
                    distance: 1,
                    detail: "drift onset".into(),
                },
            ],
        )
        .unwrap();
        s
    }

    #[test]
    fn table_parsing_and_names() {
        assert_eq!(Table::parse("RUNS"), Some(Table::ComponentRuns));
        assert_eq!(Table::parse("component_runs"), Some(Table::ComponentRuns));
        assert_eq!(Table::parse("bogus"), None);
        assert_eq!(Table::Metrics.name(), "metrics");
    }

    #[test]
    fn scan_component_runs_has_schema_arity() {
        let s = seeded();
        let rows = scan(&s, Table::ComponentRuns).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), table_schema(Table::ComponentRuns).len());
        let dur_idx = column_index(Table::ComponentRuns, "duration_ms").unwrap();
        assert_eq!(rows[0][dur_idx], Value::Int(20));
        let tf_idx = column_index(Table::ComponentRuns, "trigger_failures").unwrap();
        assert_eq!(rows[0][tf_idx], Value::from(vec!["no_nulls"]));
    }

    #[test]
    fn scan_all_tables() {
        let s = seeded();
        for t in [
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
            let rows = scan(&s, t).unwrap();
            for row in &rows {
                assert_eq!(row.len(), table_schema(t).len(), "table {}", t.name());
            }
        }
        assert_eq!(scan(&s, Table::Metrics).unwrap().len(), 1);
        assert_eq!(scan(&s, Table::Events).unwrap().len(), 2);
        assert_eq!(scan(&s, Table::Incidents).unwrap().len(), 1);
        assert_eq!(scan(&s, Table::Diagnoses).unwrap().len(), 2);
    }

    #[test]
    fn diagnoses_table_materializes_and_pushes_down() {
        let s = seeded();
        assert_eq!(Table::parse("diagnoses"), Some(Table::Diagnoses));
        assert_eq!(Table::parse("DIAGNOSES"), Some(Table::Diagnoses));
        let rows = scan(&s, Table::Diagnoses).unwrap();
        assert_eq!(rows.len(), 2);
        let rank_idx = column_index(Table::Diagnoses, "rank").unwrap();
        let suspect_idx = column_index(Table::Diagnoses, "suspect").unwrap();
        let score_idx = column_index(Table::Diagnoses, "score").unwrap();
        assert_eq!(rows[0][rank_idx], Value::Int(1));
        assert_eq!(rows[0][suspect_idx], Value::from("etl"));
        assert_eq!(rows[0][score_idx], Value::Float(3.0));
        // Key/suspect pushdown restricts without widening.
        assert_eq!(
            scan_diagnosis_rows(&s, Some("etl/null-rate"), None)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            scan_diagnosis_rows(&s, Some("etl/null-rate"), Some("upstream")).unwrap(),
            vec![rows[1].clone()]
        );
        assert!(scan_diagnosis_rows(&s, Some("absent"), None)
            .unwrap()
            .is_empty());
        assert!(scan_diagnosis_rows(&s, None, Some("absent"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn summaries_table_reads_the_monitoring_plane() {
        let s = seeded();
        assert_eq!(Table::parse("summaries"), Some(Table::Summaries));
        assert_eq!(Table::parse("MONITOR"), Some(Table::Summaries));
        assert_eq!(Table::parse("rollups"), Some(Table::Rollups));
        // `seeded` logged one point of etl/rows: one plane key, one row.
        let rows = scan(&s, Table::Summaries).unwrap();
        assert_eq!(rows.len(), 1);
        let comp_idx = column_index(Table::Summaries, "component").unwrap();
        let count_idx = column_index(Table::Summaries, "count").unwrap();
        let mean_idx = column_index(Table::Summaries, "mean").unwrap();
        let method_idx = column_index(Table::Summaries, "drift_method").unwrap();
        assert_eq!(rows[0][comp_idx], Value::from("etl"));
        assert_eq!(rows[0][count_idx], Value::Int(1));
        assert_eq!(rows[0][mean_idx], Value::Float(5.0));
        assert_eq!(rows[0][method_idx], Value::from(""));
        // Component/metric pushdown restricts without widening.
        assert_eq!(scan_summary_rows(&s, Some("etl"), None).unwrap().len(), 1);
        assert_eq!(
            scan_summary_rows(&s, Some("etl"), Some("rows")).unwrap(),
            vec![rows[0].clone()]
        );
        assert!(scan_summary_rows(&s, Some("etl"), Some("nope"))
            .unwrap()
            .is_empty());
        assert!(scan_summary_rows(&s, Some("absent"), None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn column_index_case_insensitive_and_errors() {
        assert_eq!(column_index(Table::Components, "OWNER").unwrap(), 2);
        assert!(column_index(Table::Components, "nope").is_err());
    }

    #[test]
    fn scan_runs_rows_filter_and_limit_match_full_scan() {
        let s = seeded();
        for i in 0..5u64 {
            s.log_run(ComponentRunRecord {
                component: if i % 2 == 0 { "etl" } else { "other" }.into(),
                start_ms: 100 + i,
                end_ms: 110 + i,
                ..Default::default()
            })
            .unwrap();
        }
        let all = scan(&s, Table::ComponentRuns).unwrap();
        assert_eq!(
            scan_runs_rows(&s, &RunFilter::default(), None).unwrap(),
            all
        );
        let comp_idx = column_index(Table::ComponentRuns, "component").unwrap();
        let filtered =
            scan_runs_rows(&s, &RunFilter::default().with_component("etl"), None).unwrap();
        let naive: Vec<Row> = all
            .iter()
            .filter(|r| r[comp_idx] == Value::from("etl"))
            .cloned()
            .collect();
        assert_eq!(filtered, naive);
        let limited = scan_runs_rows(&s, &RunFilter::default(), Some(2)).unwrap();
        assert_eq!(limited, all[..2].to_vec());
    }

    #[test]
    fn events_and_incidents_tables_materialize() {
        let s = seeded();
        assert_eq!(Table::parse("events"), Some(Table::Events));
        assert_eq!(Table::parse("JOURNAL"), Some(Table::Events));
        assert_eq!(Table::parse("incidents"), Some(Table::Incidents));
        let rows = scan(&s, Table::Events).unwrap();
        let kind_idx = column_index(Table::Events, "kind").unwrap();
        let run_idx = column_index(Table::Events, "run_id").unwrap();
        assert_eq!(rows[0][kind_idx], Value::from("run_finished"));
        assert_eq!(rows[0][run_idx], Value::Int(1));
        assert_eq!(rows[1][run_idx], Value::Null, "unstamped event is NULL");
        // The filtered scan matches a naive post-filter of the full scan.
        let filtered = scan_events_rows(
            &s,
            &EventFilter::all().with_kind(EventKind::AlertFired),
            None,
        )
        .unwrap();
        let naive: Vec<Row> = rows
            .iter()
            .filter(|r| r[kind_idx] == Value::from("alert_fired"))
            .cloned()
            .collect();
        assert_eq!(filtered, naive);
        assert_eq!(
            scan_events_rows(&s, &EventFilter::all(), Some(1)).unwrap(),
            rows[..1].to_vec()
        );
        let inc = scan(&s, Table::Incidents).unwrap();
        let state_idx = column_index(Table::Incidents, "state").unwrap();
        let resolved_idx = column_index(Table::Incidents, "resolved_ms").unwrap();
        assert_eq!(inc[0][state_idx], Value::from("open"));
        assert_eq!(inc[0][resolved_idx], Value::Null);
    }

    #[test]
    fn scan_metrics_rows_component_pushdown_matches_full_scan() {
        let s = seeded();
        // Metric points for an unregistered component stay invisible,
        // with or without the component restriction.
        s.log_metric(MetricRecord {
            component: "ghost".into(),
            run_id: None,
            name: "m".into(),
            value: 1.0,
            ts_ms: 0,
        })
        .unwrap();
        let all = scan(&s, Table::Metrics).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(scan_metrics_rows(&s, None, None).unwrap(), all);
        assert_eq!(scan_metrics_rows(&s, Some("etl"), None).unwrap(), all);
        assert!(scan_metrics_rows(&s, Some("ghost"), None)
            .unwrap()
            .is_empty());
        assert!(scan_metrics_rows(&s, Some("etl"), Some(0))
            .unwrap()
            .is_empty());
    }
}
