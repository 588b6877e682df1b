//! Correctness checks run inside the one command, after the window. Each
//! check is one attempted operation; a check that does not hold is a
//! failed one.

use crate::gen::{self, QueryClass, QueryOp};
use crate::harness::{ctx, FirstResults, LaneOutcome, Result, PRELOAD_RUNS};
use mltrace_query::{execute_query_unoptimized, parse};
use mltrace_store::{
    EventFilter, EventSeverity, MemoryStore, ObservabilityEvent, RunFilter, Store, StoreStats,
    Value,
};
use std::collections::BTreeMap;

/// Checks attempted and the messages of those that failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, holds: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failures.push(message());
        }
    }
}

/// Ack ⇒ durable, and served ≡ embedded: after a cold reopen the store
/// holds exactly the acknowledged writes on top of what it held before
/// the window, and the same requests applied to a plain `MemoryStore`
/// count the same.
pub fn durable_and_equal_to_embedded(
    checks: &mut Checks,
    before: &StoreStats,
    reopened: &StoreStats,
    lanes: &[(u64, LaneOutcome)],
) -> Result<()> {
    let acked_runs: u64 = lanes.iter().map(|(_, o)| o.acked_runs).sum();
    let acked_points: u64 = lanes.iter().map(|(_, o)| o.acked_metric_points).sum();
    checks.require(
        reopened.runs as u64 == before.runs as u64 + acked_runs,
        || {
            format!(
                "reopened store holds {} runs, expected {} preloaded + {acked_runs} acknowledged",
                reopened.runs, before.runs
            )
        },
    );
    checks.require(
        reopened.metric_points as u64 == before.metric_points as u64 + acked_points,
        || {
            format!(
                "reopened store holds {} metric points, expected {} + {acked_points} acknowledged",
                reopened.metric_points, before.metric_points
            )
        },
    );
    checks.require(reopened.components == before.components, || {
        format!(
            "reopened store holds {} components, had {} before the window",
            reopened.components, before.components
        )
    });

    let oracle = MemoryStore::new();
    for (lane, outcome) in lanes {
        for &seq in &outcome.acked_run_requests {
            let (runs, _) = gen::ingest_pair(*lane, seq, PRELOAD_RUNS);
            oracle
                .log_runs(runs)
                .map_err(|e| format!("oracle log_runs: {e}"))?;
        }
        for &seq in &outcome.acked_metric_requests {
            let (_, metrics) = gen::ingest_pair(*lane, seq, PRELOAD_RUNS);
            oracle
                .log_metrics(metrics)
                .map_err(|e| format!("oracle log_metrics: {e}"))?;
        }
    }
    let embedded = oracle.stats().map_err(|e| format!("oracle stats: {e}"))?;
    checks.require(
        reopened.runs == before.runs + embedded.runs
            && reopened.metric_points == before.metric_points + embedded.metric_points,
        || {
            format!(
                "served and embedded disagree: served added {} runs / {} points, \
                 the same requests embedded add {} / {}",
                reopened.runs - before.runs,
                reopened.metric_points - before.metric_points,
                embedded.runs,
                embedded.metric_points
            )
        },
    );
    Ok(())
}

/// Reopen ≡ before close, field for field, but for the one journal event
/// with which an open under a non-default flush policy records that policy.
pub fn reopen_preserves_stats(checks: &mut Checks, before: &StoreStats, reopened: &StoreStats) {
    let expected = StoreStats {
        events: before.events + 1,
        ..*before
    };
    checks.require(expected == *reopened, || {
        format!("stats changed across reopen: expected {expected:?}, found {reopened:?}")
    });
}

/// Rows the join class must return, computed from plain scans: the naive
/// executor's nested loop over 100k runs × 25k events takes minutes per
/// statement, so the join has its reference here instead.
fn reference_join(
    store: &dyn Store,
    warnings_by_run: &BTreeMap<u64, Vec<ObservabilityEvent>>,
    op: &QueryOp,
) -> Result<Vec<Vec<Value>>> {
    let [Value::Str(component), Value::Int(lo), Value::Int(hi)] = op.params.as_slice() else {
        return Err(format!("join parameters {:?}", op.params));
    };
    let filter = RunFilter::all()
        .with_component(component.clone())
        .started_at_or_after(*lo as u64)
        .started_at_or_before(*hi as u64);
    let runs = ctx("reference scan", store.scan_runs(None, &filter, None))?;
    Ok(runs
        .iter()
        .flat_map(|run| {
            warnings_by_run
                .get(&run.id.0)
                .into_iter()
                .flatten()
                .map(|event| {
                    vec![
                        Value::from(run.id.0),
                        Value::from(event.kind.name()),
                        Value::from(event.ts_ms),
                    ]
                })
        })
        .collect())
}

/// Statements of each class checked against the reference. The naive
/// executor materialises the whole table per statement (0.1 to 0.5 s on
/// the preloaded store), so checking all of a run's few hundred distinct
/// statements would outlast the window several times over. The first
/// `REFERENCE_CHECKS_PER_CLASS` by key are checked; which ones that is
/// follows from the seed, not from timing.
const REFERENCE_CHECKS_PER_CLASS: usize = 4;

/// The first result of distinct statements equals what the naive executor
/// returns on the embedded store (for joins, what [`reference_join`]
/// returns). Every other execution was already compared with the first
/// by the lane that ran it.
pub fn queries_match_naive(
    checks: &mut Checks,
    store: &dyn Store,
    first_results: &FirstResults,
) -> Result<()> {
    let warnings = EventFilter {
        severity: Some(EventSeverity::Warn),
        ..EventFilter::default()
    };
    let mut warnings_by_run: BTreeMap<u64, Vec<ObservabilityEvent>> = BTreeMap::new();
    for event in ctx("scan events", store.scan_events(None, &warnings, None))? {
        if let Some(run) = event.run_id {
            warnings_by_run.entry(run.0).or_default().push(event);
        }
    }
    let mut checked = [0usize; QueryClass::ALL.len()];
    for (key, (op, rows)) in first_results {
        let of_class = &mut checked[op.class as usize];
        if *of_class == REFERENCE_CHECKS_PER_CLASS {
            continue;
        }
        *of_class += 1;
        let expected = if op.class == QueryClass::Join {
            reference_join(store, &warnings_by_run, op)?
        } else {
            let query = parse(&op.literal_sql()).map_err(|e| format!("{key}: parse: {e}"))?;
            execute_query_unoptimized(store, &query)
                .map_err(|e| format!("{key}: naive executor: {e}"))?
                .rows
        };
        checks.require(expected == *rows, || {
            format!(
                "{key}: {} rows differ from the reference's {}",
                rows.len(),
                expected.len()
            )
        });
    }
    Ok(())
}

/// Merge per-lane first results; where two lanes ran the same statement
/// they must have seen the same rows.
pub fn merge_first_results(checks: &mut Checks, lanes: Vec<FirstResults>) -> FirstResults {
    let mut merged = FirstResults::new();
    for lane in lanes {
        for (key, (op, rows)) in lane {
            match merged.get(&key) {
                Some((_, seen)) => checks.require(*seen == rows, || {
                    format!("{key}: two connections saw different rows")
                }),
                None => {
                    merged.insert(key, (op, rows));
                }
            }
        }
    }
    merged
}
