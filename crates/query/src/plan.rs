//! Predicate pushdown planning: split a source's WHERE conjuncts into the
//! part its store scan can evaluate and a residual the executor still
//! evaluates row-at-a-time.
//!
//! There is one planner. Each virtual table declares its pushable columns
//! (`TableDecl`); [`SourcePlan::new`] runs every conjunct through one
//! absorber driven by that declaration, and the resulting [`SourcePlan`] is
//! the single value execution, `EXPLAIN` and the partial-aggregate check
//! all read — so what `EXPLAIN` reports is what the scan does.
//!
//! The contract is strict row-for-row equivalence with the naive path
//! (scan everything, evaluate the whole WHERE per row). A conjunct is
//! absorbed into the scan filter only when the filter's semantics provably
//! match the executor's [`Value`] comparison semantics for it:
//!
//! * `component = '<str>'` / `status = '<exact status name>'` — exact
//!   string equality on both sides. A status literal that
//!   [`RunStatus::from_name`] rejects (wrong casing, unknown name) stays
//!   residual rather than being coerced; likewise event `kind` /
//!   `severity` literals their `from_name` rejects.
//! * `id` / `start_ms` / `end_ms` compared (`=`, `<`, `<=`, `>`, `>=`,
//!   `BETWEEN`) against non-negative integer literals below `i64::MAX` —
//!   the range where the row's `u64 → i64`-saturating [`Value`]
//!   conversion is the identity, so `u64` bounds in the filter agree with
//!   the executor's `i64` comparisons. Negative or float literals stay
//!   residual. Event `run_id = <int>` pushes under the same rule because
//!   the filter matches only stamped events, exactly as the executor's
//!   NULL-comparison-is-false semantics drop unstamped rows.
//!
//! Everything else (`OR`, `NOT`, `LIKE`, arithmetic, other columns) is
//! residual. Two equality conjuncts on the same slot with different
//! values leave the second one residual: the scan returns the first
//! value's rows and the residual rejects them all, which is exactly the
//! naive path's empty result. Range conjuncts always absorb — bounds
//! intersect, and an infeasible intersection matches nothing, again
//! matching the naive path.

use crate::ast::{BinOp, Expr, Query};
use crate::exec::{QueryError, RoutePreference};
use mltrace_store::schema::{
    run_row, scan as scan_table, scan_diagnosis_rows, scan_events_rows, scan_metrics_rows,
    scan_runs_rows, scan_summary_rows, Row, Table,
};
use mltrace_store::{
    EventFilter, EventKind, EventSeverity, IndexRoute, IndexStats, RunFilter, RunStatus, Store,
    StoreStats, Value,
};

/// How a declared column's conjuncts may push into the scan.
#[derive(Clone, Copy)]
enum Pushable {
    /// `col = '<str>'`: exact string equality.
    Str,
    /// `col = '<name>'` for a name the enum's `from_name` accepts — only
    /// the exact canonical names; anything else (wrong casing, unknown)
    /// keeps the executor's string comparison.
    Name(fn(&str) -> bool),
    /// `col = <int>` with the literal in `[0, i64::MAX)`.
    U64,
    /// `=`, `<`, `<=`, `>`, `>=`, `BETWEEN` against literals in
    /// `[0, i64::MAX)`, folded into inclusive bounds.
    Range,
}

/// Everything the planner knows about one virtual table. A new table is
/// one `table_schema` entry, one declaration here and one row-scan arm in
/// [`SourcePlan::scan`]; `EXPLAIN` reads the same declaration.
#[derive(Clone, Copy)]
struct TableDecl {
    /// Pushable columns, in the order `EXPLAIN` lists them.
    columns: &'static [(&'static str, Pushable)],
    /// The route `EXPLAIN` names when no secondary index applies.
    route: &'static str,
    /// Whether the table's row scan can stop early at a LIMIT.
    limit: bool,
    /// The table's total row count, when the store tracks one.
    rows: fn(&StoreStats) -> Option<usize>,
}

fn table_decl(table: Table) -> TableDecl {
    use Pushable::{Name, Range, Str, U64};
    let unpushed = |rows| TableDecl {
        columns: &[],
        route: "scan",
        limit: false,
        rows,
    };
    match table {
        Table::ComponentRuns => TableDecl {
            columns: &[
                ("component", Str),
                ("status", Name(|s| RunStatus::from_name(s).is_some())),
                ("id", Range),
                ("start_ms", Range),
                ("end_ms", Range),
            ],
            route: "scan",
            limit: true,
            rows: |s| Some(s.runs),
        },
        Table::Metrics => TableDecl {
            columns: &[("component", Str)],
            route: "scan",
            limit: true,
            rows: |s| Some(s.metric_points),
        },
        Table::Events => TableDecl {
            columns: &[
                ("kind", Name(|s| EventKind::from_name(s).is_some())),
                ("severity", Name(|s| EventSeverity::from_name(s).is_some())),
                ("component", Str),
                ("run_id", U64),
                ("id", Range),
                ("ts_ms", Range),
            ],
            route: "scan",
            limit: true,
            rows: |s| Some(s.events),
        },
        // The plane snapshot and the rankings are small (one row per key),
        // so only the key restriction is worth pushing, and no LIMIT.
        Table::Summaries => TableDecl {
            columns: &[("component", Str), ("metric", Str)],
            route: "monitor-plane",
            limit: false,
            rows: |_| None,
        },
        Table::Diagnoses => TableDecl {
            columns: &[("incident_key", Str), ("suspect", Str)],
            route: "diagnosis-store",
            limit: false,
            rows: |s| Some(s.diagnoses),
        },
        Table::Incidents => unpushed(|s| Some(s.incidents)),
        Table::Components => unpushed(|s| Some(s.components)),
        Table::IoPointers => unpushed(|s| Some(s.io_pointers)),
        Table::Rollups => unpushed(|s| Some(s.summaries)),
    }
}

/// What the absorbed conjuncts narrowed one pushable column to.
#[derive(Debug, Clone, PartialEq)]
pub enum Pushed {
    /// `col = literal`: a string, or an integer in `[0, i64::MAX)`.
    Eq(Value),
    /// Inclusive bounds; either end may be open.
    Range(Option<u64>, Option<u64>),
}

/// The pushdown plan for one source table of a statement.
#[derive(Debug, Clone)]
pub struct SourcePlan {
    /// The table scanned.
    pub table: Table,
    /// One slot per pushable column the table declares, in declaration
    /// order; `None` leaves the column unconstrained.
    pub pushed: Vec<Option<Pushed>>,
    /// Conjuncts the scan cannot evaluate, in bare column names; `None`
    /// when everything was pushed down.
    pub residual: Option<Expr>,
}

impl SourcePlan {
    /// Plan a scan of `table` for `conjuncts` (bare column names, AND-ed).
    pub fn new(table: Table, conjuncts: Vec<Expr>) -> SourcePlan {
        let columns = table_decl(table).columns;
        let mut pushed = vec![None; columns.len()];
        let residual = conjuncts
            .into_iter()
            .filter(|c| !absorb_conjunct(columns, &mut pushed, c));
        let residual = Expr::conjoin(residual);
        SourcePlan {
            table,
            pushed,
            residual,
        }
    }

    /// True when nothing was pushed: the scan returns every row.
    pub fn is_all(&self) -> bool {
        self.pushed.iter().all(Option::is_none)
    }

    fn slot(&self, column: &str) -> Option<&Pushed> {
        let columns = table_decl(self.table).columns;
        let i = columns.iter().position(|(name, _)| *name == column)?;
        self.pushed[i].as_ref()
    }

    fn eq_str(&self, column: &str) -> Option<&str> {
        match self.slot(column)? {
            Pushed::Eq(v) => v.as_str(),
            Pushed::Range(..) => None,
        }
    }

    fn range(&self, column: &str) -> (Option<u64>, Option<u64>) {
        match self.slot(column) {
            Some(Pushed::Range(lo, hi)) => (*lo, *hi),
            _ => (None, None),
        }
    }

    /// The pushed slots of a `component_runs` plan as the store's filter.
    pub(crate) fn run_filter(&self) -> RunFilter {
        let (min_id, max_id) = self.range("id");
        let (min_start_ms, max_start_ms) = self.range("start_ms");
        let (min_end_ms, max_end_ms) = self.range("end_ms");
        RunFilter {
            component: self.eq_str("component").map(str::to_owned),
            status: self.eq_str("status").and_then(RunStatus::from_name),
            min_id,
            max_id,
            min_start_ms,
            max_start_ms,
            min_end_ms,
            max_end_ms,
        }
    }

    /// The pushed slots of an `events` plan as the journal's filter.
    fn event_filter(&self) -> EventFilter {
        let (min_id, max_id) = self.range("id");
        let (min_ts_ms, max_ts_ms) = self.range("ts_ms");
        EventFilter {
            kind: self.eq_str("kind").and_then(EventKind::from_name),
            severity: self.eq_str("severity").and_then(EventSeverity::from_name),
            component: self.eq_str("component").map(str::to_owned),
            run_id: match self.slot("run_id") {
                Some(Pushed::Eq(Value::Int(i))) => Some(*i as u64),
                _ => None,
            },
            min_id,
            max_id,
            min_ts_ms,
            max_ts_ms,
        }
    }

    /// The pushed filter as `EXPLAIN` prints it: `none` for a table with
    /// no pushable columns, `all` when nothing was pushed.
    pub fn describe(&self) -> String {
        let columns = table_decl(self.table).columns;
        if columns.is_empty() {
            return "none".to_owned();
        }
        let parts: Vec<String> = columns
            .iter()
            .zip(&self.pushed)
            .filter_map(|((name, _), slot)| match slot.as_ref()? {
                Pushed::Eq(v) => Some(format!("{name}={v}")),
                Pushed::Range(Some(l), Some(h)) => Some(format!("{name} in [{l}, {h}]")),
                Pushed::Range(Some(l), None) => Some(format!("{name} >= {l}")),
                Pushed::Range(None, Some(h)) => Some(format!("{name} <= {h}")),
                Pushed::Range(None, None) => None,
            })
            .collect();
        if parts.is_empty() {
            "all".to_owned()
        } else {
            parts.join(", ")
        }
    }

    /// The route the scan takes, as `EXPLAIN` prints it.
    pub fn route(&self, store: &dyn Store, pref: RoutePreference) -> Result<String, QueryError> {
        Ok(match self.table {
            Table::ComponentRuns => run_route(store, &self.run_filter(), pref)?.describe(),
            Table::Events if self.slot("kind").is_some() && store.index_stats()?.is_some() => {
                "index(event_kind)".to_owned()
            }
            table => table_decl(table).route.to_owned(),
        })
    }

    /// The LIMIT the scan itself may stop at. It can run inside the scan
    /// only when nothing downstream can drop or reorder rows: a single
    /// source whose whole WHERE was pushed, no grouping, DISTINCT or
    /// ORDER BY — and a table whose row scan honours a cap.
    pub fn pushed_limit(&self, query: &Query) -> Option<usize> {
        let pushable = table_decl(self.table).limit
            && self.residual.is_none()
            && query.joins.is_empty()
            && !query.is_grouped()
            && !query.distinct
            && query.order_by.is_empty();
        query.limit.filter(|_| pushable)
    }

    /// Row-count estimate after the pushed filter, for the join lines of
    /// `EXPLAIN`. Runs reuse the index selectivity estimates; other tables
    /// fall back to their total counts.
    pub fn estimate_rows(&self, store: &dyn Store) -> Result<String, QueryError> {
        if self.table == Table::ComponentRuns {
            if let Some(idx) = store.index_stats()? {
                let est = best_run_route(&self.run_filter(), &idx).map_or(idx.runs, |(_, e)| e);
                return Ok(est.to_string());
            }
        }
        let total = (table_decl(self.table).rows)(&store.stats()?);
        Ok(total.map_or("unknown".to_owned(), |n| n.to_string()))
    }

    /// For cold event reads: how many sealed WAL segments the zone maps
    /// would prune, as `(prunable, total)`. `None` for every other table.
    pub fn prunable_segments(&self, store: &dyn Store) -> Result<Option<(u64, u64)>, QueryError> {
        if self.table != Table::Events {
            return Ok(None);
        }
        Ok(store.prunable_segments(&self.event_filter())?)
    }

    /// Scan the table with the pushed filter (and `limit`, which must come
    /// from [`Self::pushed_limit`]). The caller still evaluates
    /// [`Self::residual`] against the returned rows.
    pub fn scan(
        &self,
        store: &dyn Store,
        limit: Option<usize>,
        pref: RoutePreference,
    ) -> Result<Vec<Row>, QueryError> {
        if let Some(t) = store.telemetry() {
            if !self.is_all() {
                t.incr("query.pushdown.filters_total");
            }
            if limit.is_some() {
                t.incr("query.pushdown.limits_total");
            }
        }
        Ok(match self.table {
            Table::ComponentRuns => {
                let filter = self.run_filter();
                let indexed = match run_route(store, &filter, pref)? {
                    ScanRoute::Index(idx) => store.scan_runs_indexed(None, &filter, limit, idx)?,
                    ScanRoute::FullScan => None,
                };
                match indexed {
                    Some(records) => records.iter().map(run_row).collect(),
                    // The full scan — also when the store declined the
                    // route (no indexes behind this trait object after all).
                    None => scan_runs_rows(store, &filter, limit)?,
                }
            }
            Table::Metrics => scan_metrics_rows(store, self.eq_str("component"), limit)?,
            Table::Events => scan_events_rows(store, &self.event_filter(), limit)?,
            Table::Summaries => {
                scan_summary_rows(store, self.eq_str("component"), self.eq_str("metric"))?
            }
            Table::Diagnoses => {
                scan_diagnosis_rows(store, self.eq_str("incident_key"), self.eq_str("suspect"))?
            }
            other => scan_table(store, other)?,
        })
    }
}

/// Try to absorb one conjunct into the pushed slots of a table declaring
/// `columns`; `false` leaves it residual.
fn absorb_conjunct(columns: &[(&str, Pushable)], pushed: &mut [Option<Pushed>], e: &Expr) -> bool {
    let slot_of = |column: &str| {
        columns
            .iter()
            .position(|(name, _)| column.eq_ignore_ascii_case(name))
    };

    // BETWEEN on a range column with pushable integer bounds.
    if let Expr::Between {
        expr,
        lo,
        hi,
        negated: false,
    } = e
    {
        if let (Expr::Column(c), Expr::Literal(l), Expr::Literal(h)) =
            (expr.as_ref(), lo.as_ref(), hi.as_ref())
        {
            if let (Some(i), Some(l), Some(h)) = (slot_of(c), pushable_u64(l), pushable_u64(h)) {
                if matches!(columns[i].1, Pushable::Range) {
                    tighten(&mut pushed[i], Some(l), Some(h));
                    return true;
                }
            }
        }
        return false;
    }

    let Some((column, op, literal)) = as_column_cmp(e) else {
        return false;
    };
    let Some(i) = slot_of(column) else {
        return false;
    };
    let exact = match columns[i].1 {
        Pushable::Range => {
            let Some(v) = pushable_u64(literal) else {
                return false;
            };
            let (lo, hi) = match op {
                BinOp::Eq => (Some(v), Some(v)),
                BinOp::Ge => (Some(v), None),
                // v < i64::MAX so v + 1 cannot overflow u64.
                BinOp::Gt => (Some(v + 1), None),
                BinOp::Le => (None, Some(v)),
                BinOp::Lt if v > 0 => (None, Some(v - 1)),
                // `col < 0` is false for every row; leave it residual
                // rather than inventing an unsatisfiable u64 bound.
                _ => return false,
            };
            tighten(&mut pushed[i], lo, hi);
            return true;
        }
        Pushable::Str => matches!(literal, Value::Str(_)),
        Pushable::Name(accepts) => literal.as_str().is_some_and(accepts),
        Pushable::U64 => pushable_u64(literal).is_some(),
    };
    if op != BinOp::Eq || !exact {
        return false;
    }
    match &pushed[i] {
        None => {
            pushed[i] = Some(Pushed::Eq(literal.clone()));
            true
        }
        // A duplicate of the same value is a no-op; a different value
        // stays residual and rejects every row the first one returns.
        Some(existing) => matches!(existing, Pushed::Eq(v) if v == literal),
    }
}

/// Intersect a range slot with `[lo, hi]` (either end may be open).
fn tighten(slot: &mut Option<Pushed>, lo: Option<u64>, hi: Option<u64>) {
    let (cur_lo, cur_hi) = match slot {
        Some(Pushed::Range(l, h)) => (*l, *h),
        _ => (None, None),
    };
    *slot = Some(Pushed::Range(
        // `None < Some(_)`: an open lower end yields to any bound.
        cur_lo.max(lo),
        match (cur_hi, hi) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        },
    ));
}

/// View a conjunct as `column <op> literal`, flipping a
/// `literal <op> column` form.
fn as_column_cmp(e: &Expr) -> Option<(&str, BinOp, &Value)> {
    let Expr::Binary { op, left, right } = e else {
        return None;
    };
    let cmp = matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    );
    if !cmp {
        return None;
    }
    match (left.as_ref(), right.as_ref()) {
        (Expr::Column(c), Expr::Literal(v)) => Some((c.as_str(), *op, v)),
        (Expr::Literal(v), Expr::Column(c)) => {
            let flipped = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => *other,
            };
            Some((c.as_str(), flipped, v))
        }
        _ => None,
    }
}

/// Integer literal in the range where the executor's saturating
/// `u64 → i64` row conversion is the identity, making `u64` filter
/// bounds and `i64` row comparisons agree.
fn pushable_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) if *i >= 0 && *i < i64::MAX => Some(*i as u64),
        _ => None,
    }
}

/// How the executor fetches `component_runs` rows for a planned filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanRoute {
    /// Sharded full scan with the pushed-down filter (the default).
    #[default]
    FullScan,
    /// Secondary-index lookup narrowing the candidate set before the full
    /// filter re-checks each candidate — row-for-row equivalent to the
    /// scan, just touching fewer rows.
    Index(IndexRoute),
}

impl ScanRoute {
    /// Render for `EXPLAIN` output: `scan` or `index(component)`.
    pub fn describe(&self) -> String {
        match self {
            ScanRoute::FullScan => "scan".to_owned(),
            ScanRoute::Index(route) => format!("index({})", route.name()),
        }
    }
}

/// An index route is only worth taking when it narrows the candidate set
/// well below the full table; at or past `runs / SELECTIVITY_DENOM`
/// estimated candidates, the sharded scan's sequential locality wins.
const SELECTIVITY_DENOM: u64 = 4;

/// Pick the cheapest applicable index route for `filter`, or the full
/// scan when no route's estimated candidate count clears the selectivity
/// bar. Estimates come from the store's live [`IndexStats`]; correctness
/// never depends on them — every route re-checks the full filter.
pub fn choose_run_route(filter: &RunFilter, stats: &IndexStats) -> ScanRoute {
    match best_run_route(filter, stats) {
        Some((route, est)) if est.saturating_mul(SELECTIVITY_DENOM) <= stats.runs => {
            ScanRoute::Index(route)
        }
        _ => ScanRoute::FullScan,
    }
}

/// Like [`choose_run_route`] but take the best applicable index route
/// regardless of selectivity — the test hook behind the equivalence
/// grid's forced-route axis.
pub fn choose_run_route_forced(filter: &RunFilter, stats: &IndexStats) -> ScanRoute {
    match best_run_route(filter, stats) {
        Some((route, _)) => ScanRoute::Index(route),
        None => ScanRoute::FullScan,
    }
}

/// The applicable route with the smallest candidate estimate.
fn best_run_route(filter: &RunFilter, stats: &IndexStats) -> Option<(IndexRoute, u64)> {
    let mut best: Option<(IndexRoute, u64)> = None;
    for route in [
        IndexRoute::Component,
        IndexRoute::Status,
        IndexRoute::StartTime,
        IndexRoute::IdRange,
    ] {
        if !route.applicable(filter) {
            continue;
        }
        let est = estimate_candidates(route, filter, stats);
        if best.is_none_or(|(_, b)| est < b) {
            best = Some((route, est));
        }
    }
    best
}

/// Estimated candidates a route would examine, under uniformity
/// assumptions (runs spread evenly over components, statuses, and the
/// observed `start_ms` span).
fn estimate_candidates(route: IndexRoute, filter: &RunFilter, stats: &IndexStats) -> u64 {
    match route {
        IndexRoute::Component => stats.runs / stats.distinct_components.max(1),
        IndexRoute::Status => stats.runs / stats.distinct_statuses.max(1),
        IndexRoute::StartTime => {
            let (Some(lo), Some(hi)) = (stats.min_start_ms, stats.max_start_ms) else {
                return 0; // no runs at all
            };
            let w_lo = filter.min_start_ms.unwrap_or(lo).max(lo);
            let w_hi = filter.max_start_ms.unwrap_or(hi).min(hi);
            if w_lo > w_hi {
                return 0;
            }
            let span = (hi - lo) as u128 + 1;
            let window = (w_hi - w_lo) as u128 + 1;
            ((stats.runs as u128 * window / span) as u64).min(stats.runs)
        }
        IndexRoute::IdRange => {
            // The route enumerates the clamped dense id range, so its
            // cost is the range width, not a uniformity estimate.
            let hi_id = stats.next_id.saturating_sub(1);
            let lo = filter.min_id.unwrap_or(1).max(1);
            let hi = filter.max_id.unwrap_or(hi_id).min(hi_id);
            if lo > hi {
                0
            } else {
                hi - lo + 1
            }
        }
    }
}

/// Resolve the run-scan route for one statement: the preference picks the
/// policy, the store's index stats feed the estimate. Stores without
/// secondary indexes always scan.
pub(crate) fn run_route(
    store: &dyn Store,
    filter: &RunFilter,
    pref: RoutePreference,
) -> Result<ScanRoute, QueryError> {
    if pref == RoutePreference::ForceScan {
        return Ok(ScanRoute::FullScan);
    }
    Ok(match store.index_stats()? {
        Some(stats) if pref == RoutePreference::ForceIndex => {
            choose_run_route_forced(filter, &stats)
        }
        Some(stats) => choose_run_route(filter, &stats),
        None => ScanRoute::FullScan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Plan the single source of `sql` the way the executor does: its
    /// WHERE conjuncts against the FROM table.
    fn plan_of(sql: &str) -> SourcePlan {
        let query = parse(sql).unwrap();
        let conjuncts = match &query.where_clause {
            Some(w) => w.conjuncts().into_iter().cloned().collect(),
            None => Vec::new(),
        };
        SourcePlan::new(Table::parse(&query.from.name).unwrap(), conjuncts)
    }

    /// The filter a plan must hand the store, for the two tables whose
    /// scans take a filter struct.
    enum Filter {
        Run(RunFilter),
        Event(EventFilter),
    }

    /// One planner case: the statement, the pushed filter as `EXPLAIN`
    /// prints it, the WHERE text of the expected residual (`""` = none,
    /// `"*"` = the whole clause) and the store filter it must build.
    type Case = (&'static str, &'static str, &'static str, Option<Filter>);

    fn run(f: RunFilter) -> Option<Filter> {
        Some(Filter::Run(f))
    }

    fn event(f: EventFilter) -> Option<Filter> {
        Some(Filter::Event(f))
    }

    fn cases() -> Vec<Case> {
        let etl = || RunFilter::all().with_component("etl");
        let a = || RunFilter::all().with_component("a");
        let mut cases: Vec<Case> = vec![
            // No WHERE: nothing pushed, nothing residual, on every table.
            ("SELECT * FROM runs", "all", "", run(RunFilter::all())),
            ("SELECT * FROM events", "all", "", event(EventFilter::all())),
            ("SELECT * FROM metrics", "all", "", None),
            ("SELECT * FROM summaries", "all", "", None),
            ("SELECT * FROM diagnoses", "all", "", None),
            ("SELECT * FROM components", "none", "", None),
            // Component and status equality push fully.
            (
                "SELECT * FROM runs WHERE component = 'etl' AND status = 'failed'",
                "component=etl, status=failed",
                "",
                run(etl().with_status(RunStatus::Failed)),
            ),
            // Flipped literal side and case-insensitive column names.
            (
                "SELECT * FROM runs WHERE 'etl' = Component AND 100 <= START_MS",
                "component=etl, start_ms >= 100",
                "",
                run(etl().started_at_or_after(100)),
            ),
            // Range bounds intersect.
            (
                "SELECT * FROM runs WHERE start_ms >= 100 AND start_ms > 150 \
                 AND start_ms <= 900 AND start_ms < 800 AND id = 7",
                "id in [7, 7], start_ms in [151, 799]",
                "",
                run(RunFilter::all()
                    .started_at_or_after(151)
                    .started_at_or_before(799)
                    .with_id_at_or_after(7)
                    .with_id_at_or_before(7)),
            ),
            // BETWEEN pushes inclusive bounds; NOT BETWEEN stays residual.
            (
                "SELECT * FROM runs WHERE end_ms BETWEEN 10 AND 20",
                "end_ms in [10, 20]",
                "",
                run(RunFilter {
                    min_end_ms: Some(10),
                    max_end_ms: Some(20),
                    ..RunFilter::all()
                }),
            ),
            (
                "SELECT * FROM runs WHERE end_ms NOT BETWEEN 10 AND 20",
                "all",
                "*",
                run(RunFilter::all()),
            ),
            // A mixed clause splits, residual order preserved.
            (
                "SELECT * FROM runs WHERE component = 'etl' AND duration_ms > 10 \
                 AND start_ms <= 500",
                "component=etl, start_ms <= 500",
                "duration_ms > 10",
                run(etl().started_at_or_before(500)),
            ),
            // Conflicting equalities: first wins, the second stays residual
            // and rejects all rows; a duplicate of the same value is a no-op.
            (
                "SELECT * FROM runs WHERE component = 'a' AND component = 'b'",
                "component=a",
                "component = 'b'",
                run(a()),
            ),
            (
                "SELECT * FROM runs WHERE component = 'a' AND component = 'a'",
                "component=a",
                "",
                run(a()),
            ),
            // Events: equalities and ranges all push.
            (
                "SELECT * FROM events WHERE kind = 'alert_fired' AND severity = 'page' \
                 AND component = 'infer' AND run_id = 4 AND ts_ms BETWEEN 10 AND 90 \
                 AND id >= 2 AND id < 8",
                "kind=alert_fired, severity=page, component=infer, run_id=4, \
                 id in [2, 7], ts_ms in [10, 90]",
                "",
                event(EventFilter {
                    kind: Some(EventKind::AlertFired),
                    severity: Some(EventSeverity::Page),
                    component: Some("infer".into()),
                    run_id: Some(4),
                    min_id: Some(2),
                    max_id: Some(7),
                    min_ts_ms: Some(10),
                    max_ts_ms: Some(90),
                }),
            ),
            (
                "SELECT * FROM events WHERE kind = 'run_failed' AND detail = 'boom' \
                 AND ts_ms <= 50",
                "kind=run_failed, ts_ms <= 50",
                "detail = 'boom'",
                event(EventFilter {
                    max_ts_ms: Some(50),
                    ..EventFilter::all().with_kind(EventKind::RunFailed)
                }),
            ),
            (
                "SELECT * FROM events WHERE kind = 'run_failed' AND kind = 'run_finished'",
                "kind=run_failed",
                "kind = 'run_finished'",
                event(EventFilter::all().with_kind(EventKind::RunFailed)),
            ),
            (
                "SELECT * FROM events WHERE run_id = 4 AND run_id = 5",
                "run_id=4",
                "run_id = 5",
                None,
            ),
            // Metrics push component equality only.
            (
                "SELECT * FROM metrics WHERE component = 'infer' AND value > 0.5",
                "component=infer",
                "value > 0.5",
                None,
            ),
            // Summaries push component and metric.
            (
                "SELECT * FROM summaries WHERE component = 'infer' AND metric = 'prediction' \
                 AND drift_score > 0",
                "component=infer, metric=prediction",
                "drift_score > 0",
                None,
            ),
            (
                "SELECT * FROM summaries WHERE metric = 'a' AND metric = 'b'",
                "metric=a",
                "metric = 'b'",
                None,
            ),
            // Diagnoses push incident key and suspect.
            (
                "SELECT * FROM diagnoses WHERE incident_key = 'drift:inference/prediction' \
                 AND suspect = 'featurize_online' AND score > 1.0",
                "incident_key=drift:inference/prediction, suspect=featurize_online",
                "score > 1.0",
                None,
            ),
            (
                "SELECT * FROM diagnoses WHERE incident_key = 'a' AND incident_key = 'b'",
                "incident_key=a",
                "incident_key = 'b'",
                None,
            ),
            // A table with no declaration pushes nothing.
            (
                "SELECT * FROM incidents WHERE state = 'open'",
                "none",
                "*",
                None,
            ),
        ];
        // Unpushable shapes: the whole clause stays residual.
        for sql in [
            // OR is not a conjunct.
            "SELECT * FROM runs WHERE component = 'a' OR component = 'b'",
            // Wrong-case status literal must keep string semantics.
            "SELECT * FROM runs WHERE status = 'Success'",
            // Non-pushable column.
            "SELECT * FROM runs WHERE duration_ms > 100",
            // Negative literal: rows are non-negative, executor compares as i64.
            "SELECT * FROM runs WHERE start_ms > 0 - 5",
            // Float literal keeps numeric-interleave comparison.
            "SELECT * FROM runs WHERE start_ms >= 99.5",
            // col < 0 is unsatisfiable; stays residual.
            "SELECT * FROM runs WHERE id < 0",
            // status inequality has no filter form.
            "SELECT * FROM runs WHERE status != 'success'",
            // Wrong casing must keep the executor's string comparison.
            "SELECT * FROM events WHERE kind = 'AlertFired'",
            "SELECT * FROM events WHERE severity = 'Page'",
            // Unknown names never become filters.
            "SELECT * FROM events WHERE kind = 'alert_cleared'",
            // Inequalities on name columns have no filter form.
            "SELECT * FROM events WHERE severity != 'info'",
            // Negative run id cannot match any row; stays residual.
            "SELECT * FROM events WHERE run_id = 0 - 1",
            // run_id pushes equality only, never a range.
            "SELECT * FROM events WHERE run_id >= 4",
            "SELECT * FROM events WHERE run_id BETWEEN 1 AND 4",
        ] {
            cases.push((sql, "all", "*", None));
        }
        cases
    }

    #[test]
    fn source_plan_splits_pushed_from_residual() {
        for (sql, pushed, residual, filter) in cases() {
            let plan = plan_of(sql);
            assert_eq!(plan.describe(), pushed, "{sql}");
            assert_eq!(plan.is_all(), matches!(pushed, "all" | "none"), "{sql}");
            let expected = match residual {
                "" => None,
                "*" => parse(sql).unwrap().where_clause,
                text => {
                    parse(&format!("SELECT * FROM runs WHERE {text}"))
                        .unwrap()
                        .where_clause
                }
            };
            assert_eq!(plan.residual, expected, "{sql}");
            match filter {
                Some(Filter::Run(f)) => assert_eq!(plan.run_filter(), f, "{sql}"),
                Some(Filter::Event(f)) => assert_eq!(plan.event_filter(), f, "{sql}"),
                None => {}
            }
            if plan.is_all() && plan.table == Table::ComponentRuns {
                assert!(plan.run_filter().is_all(), "{sql}");
            }
            if plan.is_all() && plan.table == Table::Events {
                assert!(plan.event_filter().is_all(), "{sql}");
            }
        }
    }

    /// Stats for a store of `runs` runs spread over `components`
    /// components, 2 statuses, starts spanning `[0, runs)`.
    fn stats(runs: u64, components: u64) -> IndexStats {
        IndexStats {
            runs,
            distinct_components: components,
            distinct_statuses: 2,
            min_start_ms: (runs > 0).then_some(0),
            max_start_ms: runs.checked_sub(1),
            next_id: runs + 1,
        }
    }

    #[test]
    fn route_chooser_takes_index_only_when_selective() {
        // 1000 runs over 10 components: est 100 ≤ 1000/4 → index.
        let f = RunFilter::all().with_component("etl");
        assert_eq!(
            choose_run_route(&f, &stats(1000, 10)),
            ScanRoute::Index(IndexRoute::Component)
        );
        // 2 components: est 500 > 250 → the sharded scan wins.
        assert_eq!(choose_run_route(&f, &stats(1000, 2)), ScanRoute::FullScan);
        // ...but the forced chooser still routes (equivalence-grid hook).
        assert_eq!(
            choose_run_route_forced(&f, &stats(1000, 2)),
            ScanRoute::Index(IndexRoute::Component)
        );
        // No applicable route at all: both fall back to the scan.
        assert_eq!(
            choose_run_route_forced(&RunFilter::all(), &stats(1000, 10)),
            ScanRoute::FullScan
        );
    }

    #[test]
    fn route_chooser_picks_smallest_estimate() {
        // Component narrows to 100; a 2-wide id range narrows to 2.
        let f = RunFilter::all()
            .with_component("etl")
            .with_id_at_or_after(5)
            .with_id_at_or_before(6);
        assert_eq!(
            choose_run_route(&f, &stats(1000, 10)),
            ScanRoute::Index(IndexRoute::IdRange)
        );
        // A narrow time window beats the component estimate too.
        let f = RunFilter::all()
            .with_component("etl")
            .started_at_or_after(10)
            .started_at_or_before(19);
        assert_eq!(
            choose_run_route(&f, &stats(1000, 10)),
            ScanRoute::Index(IndexRoute::StartTime)
        );
    }

    #[test]
    fn route_estimates_clamp_to_observed_bounds() {
        // Id range clamps against next_id: [900, ∞) over 1000 ids ≈ 101
        // candidates, well under 1000/4.
        let f = RunFilter::all().with_id_at_or_after(900);
        assert_eq!(
            choose_run_route(&f, &stats(1000, 1)),
            ScanRoute::Index(IndexRoute::IdRange)
        );
        // An infeasible window estimates zero and still routes (the
        // re-check returns no rows, same as the naive path).
        let f = RunFilter::all()
            .with_id_at_or_after(10)
            .with_id_at_or_before(5);
        assert_eq!(
            choose_run_route(&f, &stats(1000, 1)),
            ScanRoute::Index(IndexRoute::IdRange)
        );
        // Empty store: every estimate is 0, routing is still sound.
        let f = RunFilter::all().started_at_or_after(50);
        assert_eq!(
            choose_run_route(&f, &stats(0, 0)),
            ScanRoute::Index(IndexRoute::StartTime)
        );
    }

    #[test]
    fn scan_route_describes_for_explain() {
        assert_eq!(ScanRoute::FullScan.describe(), "scan");
        assert_eq!(
            ScanRoute::Index(IndexRoute::Component).describe(),
            "index(component)"
        );
        assert_eq!(
            ScanRoute::Index(IndexRoute::StartTime).describe(),
            "index(start_time)"
        );
    }
}
