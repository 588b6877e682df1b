//! Property-style equivalence suite for the read-path overhaul: the
//! pushdown executor ([`execute_query`]) must return exactly the same
//! rows as the naive full-scan reference ([`execute_query_unoptimized`])
//! across WHERE / LIMIT / ORDER BY / DISTINCT combinations — and, since
//! the analytical-SQL work, across GROUP BY / HAVING (store-side
//! parallel partial aggregates) and inner/left JOINs (hash execution) —
//! on both the in-memory store and a live WAL-backed store. A third axis
//! pins the index-backed executor ([`execute_query_with_route`] with
//! `ForceIndex`) against both, so the secondary-index lookup path can
//! never drift from the scan semantics however the planner routes.
//!
//! [`execute_query`]: mltrace_query::execute_query
//! [`execute_query_unoptimized`]: mltrace_query::execute_query_unoptimized
//! [`execute_query_with_route`]: mltrace_query::execute_query_with_route

use mltrace_query::{
    execute, execute_prepared, execute_query, execute_query_unoptimized, execute_query_with_route,
    explain_query, parse, prepare, RoutePreference,
};
use mltrace_store::{
    ComponentRecord, ComponentRunRecord, DiagnosisRecord, EventKind, EventSeverity, IncidentRecord,
    IncidentState, MemoryStore, MetricRecord, ObservabilityEvent, RunId, RunStatus, Store, Value,
    WalStore,
};

const COMPONENTS: [&str; 4] = ["etl", "train", "infer", "report"];

/// Deterministic fixture: 200 runs round-robined over four components with
/// varied statuses, durations, and dependencies, plus two metric series.
fn seed(store: &dyn Store) {
    for name in COMPONENTS {
        store
            .register_component(ComponentRecord::named(name))
            .unwrap();
    }
    let mut prev: Option<RunId> = None;
    for i in 0u64..200 {
        let status = if i % 7 == 3 {
            RunStatus::Failed
        } else if i % 11 == 5 {
            RunStatus::TriggerFailed
        } else {
            RunStatus::Success
        };
        let id = store
            .log_run(ComponentRunRecord {
                component: COMPONENTS[(i % 4) as usize].into(),
                start_ms: 1_000 + i * 10,
                end_ms: 1_000 + i * 10 + (i % 13) * 7,
                inputs: if i % 4 == 0 {
                    vec![]
                } else {
                    vec![format!("out-{}", i - 1)]
                },
                outputs: vec![format!("out-{i}")],
                dependencies: prev.into_iter().collect(),
                status,
                ..Default::default()
            })
            .unwrap();
        prev = Some(id);
        if i % 4 == 2 {
            store
                .log_metric(MetricRecord {
                    component: "infer".into(),
                    run_id: Some(id),
                    name: "accuracy".into(),
                    value: 0.5 + (i % 10) as f64 / 20.0,
                    ts_ms: 1_000 + i * 10,
                })
                .unwrap();
            store
                .log_metric(MetricRecord {
                    component: "infer".into(),
                    run_id: None,
                    name: "latency_ms".into(),
                    value: (i % 37) as f64,
                    ts_ms: 1_000 + i * 10,
                })
                .unwrap();
        }
    }
    // Journal events: every kind × severity combination shows up somewhere,
    // some events carry run ids / details and some don't, so NULL-column
    // comparisons and residual predicates both get exercised.
    let kinds = [
        EventKind::RunStarted,
        EventKind::RunFinished,
        EventKind::RunFailed,
        EventKind::AlertFired,
        EventKind::AlertSuppressed,
        EventKind::StalenessFlagged,
    ];
    let severities = [
        EventSeverity::Info,
        EventSeverity::Warn,
        EventSeverity::Page,
    ];
    let mut events = Vec::new();
    for i in 0u64..60 {
        let mut e = ObservabilityEvent::new(
            kinds[(i % 6) as usize],
            severities[(i % 3) as usize],
            2_000 + i * 5,
        )
        .component(COMPONENTS[(i % 4) as usize]);
        if i % 2 == 0 {
            e = e.run(RunId(i / 2 + 1));
        }
        if i % 5 == 0 {
            e = e.detail(format!("condition {i} observed"));
        }
        events.push(e);
    }
    store.log_events(events).unwrap();
    let incidents = [
        ("infer/accuracy", IncidentState::Open, None, 3),
        ("train/loss", IncidentState::Acknowledged, None, 2),
        ("etl/nulls", IncidentState::Resolved, Some(2_400), 1),
    ];
    for (key, state, resolved_ms, fire_count) in incidents {
        store
            .upsert_incident(IncidentRecord {
                key: key.into(),
                state,
                severity: EventSeverity::Page,
                subject: key.split('/').next().unwrap_or_default().into(),
                opened_ms: 2_100,
                last_fire_ms: 2_300,
                resolved_ms,
                fire_count,
                suppressed_count: fire_count / 2,
                burn_ms: resolved_ms.map(|r| r - 2_100).unwrap_or(0),
                detail: format!("{key} out of bounds"),
            })
            .unwrap();
    }
    // Diagnosis rankings for two of the incidents, so the diagnoses
    // table has multi-row and single-row keys to push against.
    let row = |key: &str, rank, suspect: &str, kind: &str, score, onset| DiagnosisRecord {
        incident_key: key.into(),
        rank,
        suspect: suspect.into(),
        evidence_kind: kind.into(),
        score,
        onset_ms: onset,
        distance: rank as u32,
        detail: format!("{kind} on {suspect}"),
    };
    store
        .put_diagnosis(
            "infer/accuracy",
            vec![
                row("infer/accuracy", 1, "train", "run_failed", 2.7, 2_050),
                row("infer/accuracy", 2, "etl", "drift_onset", 1.9, 2_000),
            ],
        )
        .unwrap();
    store
        .put_diagnosis(
            "train/loss",
            vec![row("train/loss", 1, "etl", "failure_rate", 0.9, 2_080)],
        )
        .unwrap();
}

/// Assert optimized == reference for every query, labeling failures. The
/// three paths — naive full scan, scan-pushdown, index-backed — must agree
/// row for row.
fn assert_equivalent(store: &dyn Store, queries: &[String]) {
    for sql in queries {
        let q = parse(sql).unwrap_or_else(|e| panic!("parse failed for {sql}: {e}"));
        let fast =
            execute_query(store, &q).unwrap_or_else(|e| panic!("pushdown failed for {sql}: {e}"));
        let slow = execute_query_unoptimized(store, &q)
            .unwrap_or_else(|e| panic!("reference failed for {sql}: {e}"));
        assert_eq!(fast, slow, "pushdown diverged from reference for: {sql}");
        let indexed = execute_query_with_route(store, &q, RoutePreference::ForceIndex)
            .unwrap_or_else(|e| panic!("index path failed for {sql}: {e}"));
        assert_eq!(
            indexed, slow,
            "index path diverged from reference for: {sql}"
        );
        let scanned = execute_query_with_route(store, &q, RoutePreference::ForceScan)
            .unwrap_or_else(|e| panic!("forced scan failed for {sql}: {e}"));
        assert_eq!(
            scanned, slow,
            "forced scan diverged from reference for: {sql}"
        );
    }
}

/// The WHERE × ORDER BY × LIMIT × DISTINCT grid over both tables.
fn query_grid() -> Vec<String> {
    let run_wheres = [
        "",
        "WHERE component = 'etl'",
        "WHERE 'etl' = component",
        "WHERE status = 'success'",
        // Wrong-case status literal: unpushable, must stay string-compared.
        "WHERE status = 'Success'",
        "WHERE status = 'failed' AND component = 'train'",
        "WHERE start_ms >= 1500",
        "WHERE start_ms BETWEEN 1200 AND 1800",
        "WHERE start_ms NOT BETWEEN 1200 AND 1800",
        "WHERE component = 'infer' AND start_ms >= 1500 AND start_ms <= 2500",
        // Mixed pushable + residual conjuncts.
        "WHERE component = 'etl' AND duration_ms > 20",
        "WHERE component = 'etl' AND outputs LIKE '%7%'",
        // OR is never pushed.
        "WHERE component = 'etl' OR status = 'failed'",
        "WHERE id <= 150 AND id >= 10",
        "WHERE id < 1",
        // Conflicting equalities: empty result on both paths.
        "WHERE component = 'etl' AND component = 'train'",
    ];
    let orders = ["", "ORDER BY start_ms DESC", "ORDER BY component, id DESC"];
    let limits = ["", "LIMIT 5", "LIMIT 0", "LIMIT 500"];
    let mut queries = Vec::new();
    for w in run_wheres {
        for o in orders {
            for l in limits {
                queries.push(format!("SELECT * FROM component_runs {w} {o} {l}"));
            }
        }
        // DISTINCT over a narrow projection.
        for o in ["", "ORDER BY component"] {
            for l in ["", "LIMIT 2"] {
                queries.push(format!("SELECT DISTINCT component FROM runs {w} {o} {l}"));
            }
        }
        // Aggregation must never see a pushed limit.
        queries.push(format!("SELECT count(*) FROM runs {w} LIMIT 1"));
    }
    queries.push(
        "SELECT DISTINCT component, status FROM runs WHERE start_ms >= 1500 \
         ORDER BY component LIMIT 3"
            .into(),
    );
    let metric_wheres = [
        "",
        "WHERE component = 'infer'",
        // Never-registered component: pushdown must not widen or error.
        "WHERE component = 'ghost'",
        "WHERE component = 'infer' AND value > 0.6",
        "WHERE name = 'accuracy'",
        "WHERE run_id IS NULL",
    ];
    for w in metric_wheres {
        for l in ["", "LIMIT 7"] {
            queries.push(format!("SELECT * FROM metrics {w} {l}"));
        }
    }
    let event_wheres = [
        "",
        "WHERE kind = 'alert_fired'",
        // Wrong-case kind literal: unpushable, must stay string-compared.
        "WHERE kind = 'AlertFired'",
        "WHERE severity = 'page'",
        "WHERE severity = 'page' AND component = 'infer'",
        "WHERE run_id = 3",
        // run_id on an unstamped event compares against NULL on both paths.
        "WHERE run_id = 9999",
        "WHERE ts_ms BETWEEN 2050 AND 2200",
        "WHERE ts_ms NOT BETWEEN 2050 AND 2200",
        "WHERE id >= 10 AND id < 40",
        // Mixed pushable + residual conjuncts.
        "WHERE kind = 'run_failed' AND detail LIKE '%observed%'",
        // OR is never pushed.
        "WHERE kind = 'alert_fired' OR severity = 'warn'",
        // Conflicting equalities: empty result on both paths.
        "WHERE kind = 'run_started' AND kind = 'run_failed'",
    ];
    for w in event_wheres {
        for o in ["", "ORDER BY ts_ms DESC", "ORDER BY severity, id DESC"] {
            for l in ["", "LIMIT 9", "LIMIT 0"] {
                queries.push(format!("SELECT * FROM events {w} {o} {l}"));
            }
        }
        // The `journal` alias resolves to the same table.
        queries.push(format!(
            "SELECT id, kind, severity FROM journal {w} LIMIT 11"
        ));
        // Aggregation must never see a pushed limit.
        queries.push(format!(
            "SELECT kind, count(*) FROM events {w} GROUP BY kind LIMIT 2"
        ));
    }
    let incident_wheres = [
        "",
        "WHERE state = 'open'",
        "WHERE severity = 'page' AND fire_count >= 2",
        "WHERE resolved_ms IS NULL",
    ];
    for w in incident_wheres {
        for o in ["", "ORDER BY opened_ms DESC, key"] {
            queries.push(format!("SELECT * FROM incidents {w} {o} LIMIT 10"));
        }
    }
    let diagnosis_wheres = [
        "",
        "WHERE incident_key = 'infer/accuracy'",
        "WHERE suspect = 'etl'",
        "WHERE incident_key = 'infer/accuracy' AND suspect = 'train'",
        // Never-diagnosed key: pushdown must not widen or error.
        "WHERE incident_key = 'ghost'",
        // Mixed pushable + residual conjuncts.
        "WHERE incident_key = 'infer/accuracy' AND score > 2.0",
        "WHERE rank = 1",
        // Conflicting equalities: empty result on both paths.
        "WHERE incident_key = 'infer/accuracy' AND incident_key = 'train/loss'",
    ];
    for w in diagnosis_wheres {
        for o in ["", "ORDER BY incident_key, rank"] {
            queries.push(format!("SELECT * FROM diagnoses {w} {o} LIMIT 10"));
        }
    }
    // Alias- and table-qualified spellings of single-table statements plan
    // like the bare ones: filter, limit and aggregate pushdown all apply.
    // Then one statement each on a key-only-pushdown table (`summaries`)
    // and on a table with no pushdown at all (`components`).
    queries.extend(
        [
            "SELECT * FROM component_runs r WHERE r.component = 'etl' LIMIT 3",
            "SELECT * FROM component_runs WHERE component_runs.start_ms >= 1500 \
             AND component_runs.status = 'failed' LIMIT 3",
            "SELECT r.component, count(*) FROM runs r WHERE r.start_ms >= 1500 \
             GROUP BY r.component",
            "SELECT e.id, e.kind FROM events e WHERE e.kind = 'alert_fired' LIMIT 4",
            "SELECT * FROM summaries WHERE component = 'infer' AND p50 >= 0 LIMIT 5",
            "SELECT * FROM components WHERE name = 'etl' LIMIT 1",
        ]
        .map(String::from),
    );
    queries.extend(aggregate_grid());
    queries.extend(join_grid());
    queries
}

/// The GROUP BY × HAVING × WHERE × ORDER/LIMIT aggregate axis. Fully
/// pushable WHEREs take the store-side partial-aggregate route; residual
/// and expression-argument cases fall back to the row path — every cell
/// must agree with the naive reference group for group.
fn aggregate_grid() -> Vec<String> {
    let mut queries = Vec::new();
    let wheres = [
        "",
        "WHERE component = 'etl'",
        "WHERE status = 'failed'",
        "WHERE start_ms BETWEEN 1200 AND 1800",
        // Empty input: a grouped query yields no groups, a global one
        // yields a single all-empty group.
        "WHERE id < 1",
        // Residual conjunct: knocks the query off the partial-agg route.
        "WHERE component = 'etl' AND duration_ms > 20",
        // OR is never pushed.
        "WHERE component = 'etl' OR status = 'failed'",
    ];
    let havings = ["", "HAVING count(*) > 10", "HAVING avg(duration_ms) >= 25"];
    let tails = ["", "ORDER BY n DESC, component LIMIT 2"];
    for w in wheres {
        for h in havings {
            for t in tails {
                queries.push(format!(
                    "SELECT component, count(*) AS n, avg(duration_ms) AS avg_d \
                     FROM runs {w} GROUP BY component {h} {t}"
                ));
            }
        }
        // Multi-column keys, the full aggregate set, and global (no
        // GROUP BY) aggregates, including over empty inputs.
        queries.push(format!(
            "SELECT component, status, count(*) AS n FROM runs {w} \
             GROUP BY component, status ORDER BY n DESC, component, status"
        ));
        queries.push(format!(
            "SELECT status, sum(duration_ms) AS s, min(start_ms) AS lo, \
             max(end_ms) AS hi FROM runs {w} GROUP BY status"
        ));
        queries.push(format!(
            "SELECT count(*) AS n, sum(duration_ms) AS s, avg(duration_ms) AS a, \
             min(id) AS lo, max(id) AS hi FROM runs {w}"
        ));
        // Expression aggregate arguments stay on the row path.
        queries.push(format!(
            "SELECT component, sum(duration_ms / 2) AS half FROM runs {w} \
             GROUP BY component"
        ));
        // Qualified spellings resolve to the same groups as bare ones.
        queries.push(format!(
            "SELECT r.component, count(*) AS n FROM runs r {w} GROUP BY r.component"
        ));
    }
    // Aggregates over the other tables exercise the row-path fold.
    queries.push("SELECT name, count(*) AS n, avg(value) AS v FROM metrics GROUP BY name".into());
    queries.push(
        "SELECT kind, severity, count(*) AS n FROM events GROUP BY kind, severity \
         ORDER BY n DESC, kind, severity LIMIT 5"
            .into(),
    );
    queries
}

/// The JOIN axis: inner/left × equi/non-equi × pushed filters ×
/// grouping, against the naive nested-loop reference.
fn join_grid() -> Vec<String> {
    [
        // Hash equi-join, both directions of the build-side choice.
        "SELECT r.id, r.component, e.kind FROM runs r JOIN events e ON e.run_id = r.id \
         ORDER BY r.id, e.kind",
        "SELECT e.id, r.status FROM events e JOIN runs r ON r.id = e.run_id \
         ORDER BY e.id",
        // Per-source WHERE conjuncts push below the join; the
        // cross-source conjunct stays residual.
        "SELECT r.id, e.id FROM runs r JOIN events e ON e.run_id = r.id \
         WHERE r.component = 'etl' AND e.severity = 'info' AND r.start_ms < e.ts_ms \
         ORDER BY r.id, e.id",
        // LEFT JOIN pads, and IS NULL over the padded side anti-joins.
        "SELECT r.id, e.kind FROM runs r LEFT JOIN events e ON e.run_id = r.id \
         ORDER BY r.id, e.kind LIMIT 50",
        "SELECT r.id FROM runs r LEFT JOIN events e ON e.run_id = r.id \
         WHERE e.id IS NULL ORDER BY r.id",
        // WHERE on the padded source must not push below the join even
        // when it names only that source's columns.
        "SELECT r.id, e.severity FROM runs r LEFT JOIN events e ON e.run_id = r.id \
         WHERE e.severity = 'page' ORDER BY r.id",
        // Multi-conjunct ON: equi key plus a residual ON predicate.
        "SELECT r.id, e.id FROM runs r JOIN events e \
         ON e.run_id = r.id AND e.ts_ms > r.start_ms ORDER BY r.id, e.id",
        // Incidents and metrics join through string keys.
        "SELECT r.id, i.key FROM runs r JOIN incidents i ON i.subject = r.component \
         WHERE i.state = 'open' ORDER BY r.id",
        "SELECT r.id, m.name, m.value FROM runs r JOIN metrics m ON m.run_id = r.id \
         ORDER BY r.id, m.name",
        // Grouped join: aggregate above the join result.
        "SELECT i.key, count(*) AS n FROM runs r JOIN incidents i \
         ON i.subject = r.component GROUP BY i.key ORDER BY n DESC, i.key",
        // Non-equi ON: nested-loop fallback on both paths.
        "SELECT r.id, i.key FROM runs r JOIN incidents i ON r.start_ms < i.opened_ms \
         ORDER BY r.id, i.key LIMIT 20",
        // Three sources, left-deep.
        "SELECT r.id, e.kind, i.key FROM runs r JOIN events e ON e.run_id = r.id \
         JOIN incidents i ON i.subject = r.component ORDER BY r.id, e.kind, i.key",
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

#[test]
fn pushdown_equivalence_memory_store() {
    let store = MemoryStore::new();
    seed(&store);
    assert_equivalent(&store, &query_grid());
}

#[test]
fn pushdown_equivalence_wal_store() {
    let dir = tempfile::tempdir().unwrap();
    let store = WalStore::open(dir.path().join("pushdown.wal")).unwrap();
    seed(&store);
    assert_equivalent(&store, &query_grid());
}

/// `EXPLAIN` must describe what execution does, not what a second planner
/// would have done: for every single-table statement of the grid, each
/// pushdown `EXPLAIN` reports is one the executor's telemetry shows it
/// took, and vice versa.
fn assert_explain_matches_execution(store: &dyn Store) {
    const SERIES: [&str; 4] = [
        "query.pushdown.filters_total",
        "query.pushdown.limits_total",
        "query.index_hits_total",
        "query.pushdown.aggregates_total",
    ];
    let counters = || {
        let snap = store.telemetry().unwrap().snapshot();
        SERIES.map(|name| snap.counters.get(name).copied().unwrap_or(0))
    };
    for sql in query_grid() {
        let q = parse(&sql).unwrap();
        if !q.joins.is_empty() {
            continue;
        }
        let plan = explain_query(store, &q).unwrap();
        let prop = |name: &str| {
            let row = plan.rows.iter().find(|r| r[0] == Value::from(name));
            row.unwrap_or_else(|| panic!("EXPLAIN lacks {name} for: {sql}"))[1].to_string()
        };
        let before = counters();
        execute_query(store, &q).unwrap();
        let after = counters();
        let advanced = |i: usize| after[i] > before[i];

        let (route, filter, limit) = (prop("route"), prop("pushed_filter"), prop("pushed_limit"));
        assert_eq!(
            !matches!(filter.as_str(), "all" | "none"),
            advanced(0),
            "pushed_filter {filter} vs filters_total for: {sql}"
        );
        assert_eq!(
            limit != "none",
            advanced(1),
            "pushed_limit {limit} vs limits_total for: {sql}"
        );
        // A scan capped at zero rows may return before it consults any
        // index, so the route tells nothing about index hits there.
        if limit != "0" {
            assert_eq!(
                route.starts_with("index(") || route.starts_with("partial-agg(index("),
                advanced(2),
                "route {route} vs index_hits_total for: {sql}"
            );
        }
        assert_eq!(
            route.starts_with("partial-agg("),
            advanced(3),
            "route {route} vs aggregates_total for: {sql}"
        );
    }
}

#[test]
fn explain_matches_execution_memory_store() {
    let store = MemoryStore::new();
    seed(&store);
    assert_explain_matches_execution(&store);
}

#[test]
fn explain_matches_execution_wal_store() {
    let dir = tempfile::tempdir().unwrap();
    let store = WalStore::open(dir.path().join("explain.wal")).unwrap();
    seed(&store);
    assert_explain_matches_execution(&store);
}

#[test]
fn selective_query_routes_through_index_and_scans_10x_fewer() {
    // 64 components × 32 runs each: selective enough that the planner's
    // `est × 4 ≤ runs` threshold picks the component index on its own.
    let store = MemoryStore::new();
    for name in (0..64).map(|i| format!("c{i}")) {
        store
            .register_component(ComponentRecord::named(&name))
            .unwrap();
    }
    for i in 0u64..2_048 {
        store
            .log_run(ComponentRunRecord {
                component: format!("c{}", i % 64),
                start_ms: i,
                end_ms: i + 1,
                ..Default::default()
            })
            .unwrap();
    }
    let q = parse("SELECT * FROM component_runs WHERE component = 'c3'").unwrap();

    // Reference: the forced shard scan examines every live run.
    let scan = execute_query_with_route(&store, &q, RoutePreference::ForceScan).unwrap();
    assert_eq!(scan.rows.len(), 32);
    let scan_rows = store.telemetry().unwrap().snapshot().counters["query.rows_scanned"];
    assert_eq!(scan_rows, 2_048, "forced scan examines the whole table");

    // Auto routes through by_component: only the posting list is examined.
    let auto = execute_query(&store, &q).unwrap();
    assert_eq!(auto, scan, "index route must not change results");
    let snap = store.telemetry().unwrap().snapshot();
    let index_rows = snap.counters["query.rows_scanned"] - scan_rows;
    assert_eq!(index_rows, 32, "index examines only the posting list");
    assert!(
        scan_rows >= 10 * index_rows,
        "index path must scan ≥10× fewer rows (scan {scan_rows}, index {index_rows})"
    );
    assert_eq!(snap.counters["query.index_hits_total"], 1);
    assert_eq!(
        snap.counters
            .get("query.index_misses_total")
            .copied()
            .unwrap_or(0),
        0,
        "the chosen route was applicable, so no store-side fallback"
    );
}

/// Regression for the old O(n²) DISTINCT: 10k all-unique projected rows
/// must deduplicate via the hashed canonical-key set in tier-1 test time
/// (the pairwise loose_eq retain took ~50M row comparisons here).
#[test]
fn distinct_10k_unique_rows_is_linear() {
    let store = MemoryStore::new();
    for name in (0..100).map(|i| format!("c{i}")) {
        store
            .register_component(ComponentRecord::named(&name))
            .unwrap();
    }
    for i in 0u64..10_000 {
        store
            .log_run(ComponentRunRecord {
                component: format!("c{}", i % 100),
                start_ms: i,
                end_ms: i + 2,
                ..Default::default()
            })
            .unwrap();
    }
    let q = parse("SELECT DISTINCT id, component FROM component_runs").unwrap();
    let r = execute_query(&store, &q).unwrap();
    assert_eq!(r.rows.len(), 10_000, "all rows unique, none dropped");
    // And a collapsing projection still deduplicates correctly.
    let q = parse("SELECT DISTINCT component FROM component_runs").unwrap();
    let r = execute_query(&store, &q).unwrap();
    assert_eq!(r.rows.len(), 100);
    let naive = execute_query_unoptimized(&store, &q).unwrap();
    assert_eq!(r, naive);
}

/// Aggregates over non-finite metric values: NaN propagates through
/// SUM/AVG, MIN/MAX order NaN deterministically (total_cmp), and the
/// pushed, forced, and naive paths agree bitwise — on the memory store
/// AND on a WAL store reopened after the writes. The WAL's sentinel
/// codec carries NaN/±Inf through the JSON log, so replayed non-finite
/// points aggregate exactly like live ones.
#[test]
fn aggregate_equivalence_with_nonfinite_metrics() {
    use mltrace_store::aggregate::canonical_row_key;

    fn seed_nonfinite(store: &dyn Store) {
        seed(store);
        for (name, value) in [
            ("spikes", f64::NAN),
            ("spikes", f64::INFINITY),
            ("spikes", f64::NEG_INFINITY),
            ("spikes", 1.5),
            ("spikes", -0.0),
            ("floor", f64::NAN),
        ] {
            store
                .log_metric(MetricRecord {
                    component: "etl".into(),
                    run_id: None,
                    name: name.into(),
                    value,
                    ts_ms: 9_000,
                })
                .unwrap();
        }
    }

    fn check(store: &dyn Store) {
        for sql in [
            "SELECT name, count(*) AS n, sum(value) AS s, avg(value) AS a FROM metrics \
             GROUP BY name ORDER BY name",
            "SELECT name, min(value) AS lo, max(value) AS hi FROM metrics \
             GROUP BY name ORDER BY name",
            "SELECT count(value) AS n, sum(value) AS s FROM metrics WHERE name = 'spikes'",
            "SELECT name, avg(value) AS a FROM metrics GROUP BY name \
             HAVING count(*) > 1 ORDER BY name",
        ] {
            let q = parse(sql).unwrap();
            let fast = execute_query(store, &q).unwrap();
            let slow = execute_query_unoptimized(store, &q).unwrap();
            // `assert_eq!` on rows would reject NaN == NaN; compare through
            // the canonical keys, which encode NaN by its exact bits.
            assert_eq!(fast.columns, slow.columns, "{sql}");
            assert_eq!(fast.rows.len(), slow.rows.len(), "{sql}");
            for (a, b) in fast.rows.iter().zip(&slow.rows) {
                assert_eq!(
                    canonical_row_key(a),
                    canonical_row_key(b),
                    "bitwise row divergence for: {sql}"
                );
            }
        }
    }

    let mem = MemoryStore::new();
    seed_nonfinite(&mem);
    check(&mem);

    let dir = tempfile::tempdir().unwrap();
    let path = dir.path().join("nonfinite.wal");
    {
        let wal = WalStore::open(&path).unwrap();
        seed_nonfinite(&wal);
        wal.sync().unwrap();
        check(&wal);
    }
    // Reopen: the sentinel-encoded points must replay byte-exactly.
    let replayed = WalStore::open(&path).unwrap();
    check(&replayed);
}

/// The parameterized grid for the prepared-statement axis: each entry is
/// a template with `?` placeholders, the values to bind, and the literal
/// spelling the bound query must be indistinguishable from. Binding
/// happens before planning, so for every cell the PREPAREd execution
/// must match the literal one row for row AND produce the identical
/// EXPLAIN plan — same route, same pushdown, same pruning.
fn prepared_grid() -> Vec<(&'static str, Vec<Value>, &'static str)> {
    vec![
        (
            "SELECT * FROM component_runs WHERE component = ? ORDER BY id",
            vec![Value::Str("etl".into())],
            "SELECT * FROM component_runs WHERE component = 'etl' ORDER BY id",
        ),
        (
            "SELECT * FROM runs WHERE start_ms BETWEEN ? AND ? ORDER BY id LIMIT 25",
            vec![Value::Int(1200), Value::Int(1800)],
            "SELECT * FROM runs WHERE start_ms BETWEEN 1200 AND 1800 ORDER BY id LIMIT 25",
        ),
        (
            "SELECT * FROM runs WHERE status = ? AND component = ? ORDER BY id",
            vec![Value::Str("failed".into()), Value::Str("train".into())],
            "SELECT * FROM runs WHERE status = 'failed' AND component = 'train' ORDER BY id",
        ),
        (
            "SELECT component, count(*) AS n, avg(duration_ms) AS a FROM runs \
             WHERE start_ms >= ? GROUP BY component HAVING count(*) > ? ORDER BY component",
            vec![Value::Int(1500), Value::Int(5)],
            "SELECT component, count(*) AS n, avg(duration_ms) AS a FROM runs \
             WHERE start_ms >= 1500 GROUP BY component HAVING count(*) > 5 ORDER BY component",
        ),
        (
            "SELECT * FROM metrics WHERE component = ? AND value > ? LIMIT 7",
            vec![Value::Str("infer".into()), Value::Float(0.6)],
            "SELECT * FROM metrics WHERE component = 'infer' AND value > 0.6 LIMIT 7",
        ),
        (
            "SELECT * FROM events WHERE severity = ? AND ts_ms BETWEEN ? AND ? \
             ORDER BY ts_ms DESC",
            vec![
                Value::Str("page".into()),
                Value::Int(2050),
                Value::Int(2200),
            ],
            "SELECT * FROM events WHERE severity = 'page' AND ts_ms BETWEEN 2050 AND 2200 \
             ORDER BY ts_ms DESC",
        ),
        (
            "SELECT r.id, e.kind FROM runs r JOIN events e ON e.run_id = r.id \
             WHERE r.component = ? AND e.severity = ? ORDER BY r.id, e.kind",
            vec![Value::Str("etl".into()), Value::Str("info".into())],
            "SELECT r.id, e.kind FROM runs r JOIN events e ON e.run_id = r.id \
             WHERE r.component = 'etl' AND e.severity = 'info' ORDER BY r.id, e.kind",
        ),
        (
            "SELECT * FROM diagnoses WHERE incident_key = ? ORDER BY rank",
            vec![Value::Str("infer/accuracy".into())],
            "SELECT * FROM diagnoses WHERE incident_key = 'infer/accuracy' ORDER BY rank",
        ),
        // Qualified spellings (alias or table name) bind and plan exactly
        // like the bare literal: same pushed filter, limit and route — and
        // the grouped one takes the partial-aggregate route, not the row
        // scan.
        (
            "SELECT * FROM component_runs r WHERE r.component = ? LIMIT 3",
            vec![Value::Str("etl".into())],
            "SELECT * FROM component_runs WHERE component = 'etl' LIMIT 3",
        ),
        (
            "SELECT * FROM component_runs WHERE component_runs.start_ms >= ? LIMIT 3",
            vec![Value::Int(1500)],
            "SELECT * FROM component_runs WHERE start_ms >= 1500 LIMIT 3",
        ),
        (
            "SELECT r.component AS component, count(*) AS n FROM runs r \
             WHERE r.start_ms >= ? GROUP BY r.component",
            vec![Value::Int(1500)],
            "SELECT component, count(*) AS n FROM runs WHERE start_ms >= 1500 \
             GROUP BY component",
        ),
        // A parameter the pushdown can't use (OR) still binds correctly.
        (
            "SELECT * FROM runs WHERE component = ? OR status = ? ORDER BY id",
            vec![Value::Str("etl".into()), Value::Str("failed".into())],
            "SELECT * FROM runs WHERE component = 'etl' OR status = 'failed' ORDER BY id",
        ),
    ]
}

/// PREPARE + bind must be indistinguishable from the literal query:
/// identical result rows and identical EXPLAIN output (same route, same
/// pushdown decisions), because placeholders are substituted before the
/// planner ever sees the query.
fn assert_prepared_equivalent(store: &dyn Store) {
    for (template, params, literal) in prepared_grid() {
        let stmt =
            prepare(template).unwrap_or_else(|e| panic!("prepare failed for {template}: {e}"));
        assert_eq!(stmt.param_count(), params.len(), "{template}");
        let bound = execute_prepared(store, &stmt, &params)
            .unwrap_or_else(|e| panic!("exec failed for {template}: {e}"));
        let lit =
            execute(store, literal).unwrap_or_else(|e| panic!("literal failed for {literal}: {e}"));
        assert_eq!(bound, lit, "prepared diverged from literal for: {template}");

        let explain_stmt = prepare(&format!("EXPLAIN {template}")).unwrap();
        assert!(explain_stmt.is_explain());
        let bound_plan = execute_prepared(store, &explain_stmt, &params)
            .unwrap_or_else(|e| panic!("prepared EXPLAIN failed for {template}: {e}"));
        let lit_plan = execute(store, &format!("EXPLAIN {literal}")).unwrap();
        assert_eq!(
            bound_plan, lit_plan,
            "prepared EXPLAIN route diverged from literal for: {template}"
        );
    }
}

#[test]
fn prepared_statements_match_literals_memory_store() {
    let store = MemoryStore::new();
    seed(&store);
    assert_prepared_equivalent(&store);
}

#[test]
fn prepared_statements_match_literals_wal_store() {
    let dir = tempfile::tempdir().unwrap();
    let store = WalStore::open(dir.path().join("prepared.wal")).unwrap();
    seed(&store);
    assert_prepared_equivalent(&store);
}

/// Binding is strict: wrong arity fails, and the same statement re-binds
/// cleanly with different parameters (the whole point of PREPARE).
#[test]
fn prepared_statements_rebind_and_check_arity() {
    let store = MemoryStore::new();
    seed(&store);
    let stmt = prepare("SELECT count(*) AS n FROM runs WHERE component = ?").unwrap();
    assert!(stmt.bind(&[]).is_err(), "missing parameter must fail");
    assert!(
        stmt.bind(&[Value::Str("etl".into()), Value::Int(1)])
            .is_err(),
        "extra parameter must fail"
    );
    for component in COMPONENTS {
        let bound =
            execute_prepared(store_ref(&store), &stmt, &[Value::Str(component.into())]).unwrap();
        let lit = execute(
            store_ref(&store),
            &format!("SELECT count(*) AS n FROM runs WHERE component = '{component}'"),
        )
        .unwrap();
        assert_eq!(bound, lit, "rebind diverged for {component}");
    }
}

fn store_ref(store: &MemoryStore) -> &dyn Store {
    store
}

/// The parallel per-shard fold must be invariant to worker count: one
/// worker (sequential) and sixteen produce identical groups — including
/// bitwise-identical SUM/AVG floats, which is what the exact
/// superaccumulator buys over naive per-shard f64 addition.
#[test]
fn partial_aggregates_invariant_to_worker_count() {
    let one = MemoryStore::new();
    one.set_scan_workers(1);
    seed(&one);
    let many = MemoryStore::new();
    many.set_scan_workers(16);
    seed(&many);
    for sql in [
        "SELECT component, count(*) AS n, avg(duration_ms) AS a FROM runs \
         GROUP BY component ORDER BY component",
        "SELECT status, sum(duration_ms) AS s FROM runs GROUP BY status ORDER BY status",
        "SELECT count(*) AS n, sum(start_ms) AS s FROM runs",
    ] {
        let q = parse(sql).unwrap();
        let a = execute_query(&one, &q).unwrap();
        let b = execute_query(&many, &q).unwrap();
        assert_eq!(a, b, "worker-count divergence for: {sql}");
        let naive = execute_query_unoptimized(&many, &q).unwrap();
        assert_eq!(b, naive, "parallel fold diverged from reference: {sql}");
    }
}
