//! Query executor: scan → filter → group/aggregate → having → project →
//! order → limit, over the store's virtual tables.

use crate::ast::{AggFunc, BinOp, Expr, Join, JoinKind, Query, ScalarFunc, SelectItem};
use crate::parser::{parse, ParseError};
use crate::plan::{run_route, ScanRoute, SourcePlan};
use mltrace_store::aggregate::{canonical_row_key, canonical_value_key};
use mltrace_store::schema::{column_index, scan, table_schema, Row, Table};
use mltrace_store::{AggInput, AggPartial, GroupPartial, Store, StoreError, Value};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;

/// Execution error.
#[derive(Debug)]
pub enum QueryError {
    /// SQL text did not parse.
    Parse(ParseError),
    /// Unknown table.
    UnknownTable(String),
    /// Unknown column in the chosen table.
    UnknownColumn(String),
    /// Storage failure during scan.
    Store(StoreError),
    /// Semantically invalid query (e.g. bare column with aggregates).
    Semantic(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            QueryError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            QueryError::Store(e) => write!(f, "store error: {e}"),
            QueryError::Semantic(m) => write!(f, "invalid query: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}

impl From<StoreError> for QueryError {
    fn from(e: StoreError) -> Self {
        QueryError::Store(e)
    }
}

/// A query result: column names plus value rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            let _ = write!(out, "{:<width$}  ", c, width = widths[i]);
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            let _ = write!(out, "{}  ", "-".repeat(widths[i]));
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
            }
            out.push('\n');
        }
        out
    }
}

/// Parse and execute `sql` against `store`.
///
/// ```
/// use mltrace_query::execute;
/// use mltrace_store::{ComponentRecord, MemoryStore, Store};
///
/// let store = MemoryStore::new();
/// store.register_component(ComponentRecord::named("etl")).unwrap();
/// let result = execute(&store, "SELECT name FROM components").unwrap();
/// assert_eq!(result.rows.len(), 1);
/// ```
pub fn execute(store: &dyn Store, sql: &str) -> Result<QueryResult, QueryError> {
    // Self-telemetry rides on the store's registry when it keeps one;
    // parse and execution latency are recorded separately because a slow
    // parse and a slow scan need different fixes.
    let tele = store.telemetry().cloned();
    if let Some(t) = &tele {
        t.incr("query.statements_total");
    }
    let explained = strip_explain(sql);
    let query = {
        let _span = tele.as_ref().map(|t| t.span("query.parse"));
        parse(explained.unwrap_or(sql))?
    };
    let _span = tele.as_ref().map(|t| t.span("query.exec"));
    if explained.is_some() {
        if let Some(t) = &tele {
            t.incr("query.explain_total");
        }
        return explain_query(store, &query);
    }
    execute_query(store, &query)
}

/// Peel a leading `EXPLAIN` keyword off `sql`, returning the statement
/// that follows it, or `None` when the text is a plain statement.
pub(crate) fn strip_explain(sql: &str) -> Option<&str> {
    let t = sql.trim_start();
    let head = t.get(..7)?;
    if head.eq_ignore_ascii_case("EXPLAIN") && t[7..].starts_with(|c: char| c.is_whitespace()) {
        Some(&t[7..])
    } else {
        None
    }
}

/// How the executor picks between the sharded scan and a secondary-index
/// lookup for `component_runs` queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePreference {
    /// Planner decides from the store's [`IndexStats`] selectivity
    /// estimate (the default everywhere).
    ///
    /// [`IndexStats`]: mltrace_store::IndexStats
    #[default]
    Auto,
    /// Take the best applicable index route regardless of estimated
    /// selectivity. Test hook: pins the index executor against the scan
    /// path on fixtures too small for `Auto` to pick an index.
    ForceIndex,
    /// Never consult the indexes (the pre-index behavior).
    ForceScan,
}

/// Execute a pre-parsed query through the pushdown planner: simple WHERE
/// conjuncts and (when safe) LIMIT run inside the store scan, so only
/// surviving records are converted to [`Value`] rows.
pub fn execute_query(store: &dyn Store, query: &Query) -> Result<QueryResult, QueryError> {
    execute_query_inner(store, query, true, RoutePreference::Auto)
}

/// Execute a pre-parsed query on the naive path: full scan, then evaluate
/// the whole WHERE clause per materialized row. Kept as the reference
/// implementation for the pushdown equivalence suite; results must match
/// [`execute_query`] row for row.
pub fn execute_query_unoptimized(
    store: &dyn Store,
    query: &Query,
) -> Result<QueryResult, QueryError> {
    execute_query_inner(store, query, false, RoutePreference::ForceScan)
}

/// [`execute_query`] with an explicit scan-vs-index routing preference,
/// for tests and benchmarks that pin one executor path.
pub fn execute_query_with_route(
    store: &dyn Store,
    query: &Query,
    pref: RoutePreference,
) -> Result<QueryResult, QueryError> {
    execute_query_inner(store, query, true, pref)
}

fn execute_query_inner(
    store: &dyn Store,
    query: &Query,
    pushdown: bool,
    pref: RoutePreference,
) -> Result<QueryResult, QueryError> {
    let scope = Scope::build(query)?;
    let resolve = |name: &str| scope.resolve(name);

    // Validate column references and predicate shapes up front, before
    // any scan, so both execution paths fail identically.
    validate_query(query, &scope)?;

    let grouped = query.is_grouped();

    // Scan each source through its plan: WHERE splits into per-source
    // pushed-down parts, per-source residuals that filter before the
    // join, and a residual the executor evaluates on the joined rows.
    let (mut rows, residual) = if pushdown {
        let (plans, extra) = plan_sources(query, &scope);
        // Partial-aggregate pushdown: a grouped single-table run query
        // whose WHERE the plan fully absorbs folds shard-by-shard inside
        // the store, so the executor only sees group-count partial states.
        if let Some(pplan) = plan_partial_agg(query, &scope, &plans) {
            if let Some((columns, out_rows)) =
                execute_partial_agg(store, query, &scope, &plans[0], &pplan, pref)?
            {
                return finish_rows(store, query, columns, out_rows, &resolve);
            }
        }
        let mut per_source: Vec<Vec<Row>> = Vec::with_capacity(plans.len());
        for plan in &plans {
            let mut rows = plan.scan(store, plan.pushed_limit(query), pref)?;
            // The plan's residual references only this source's columns
            // (bare names), so it filters before the join.
            if let Some(res) = &plan.residual {
                let table = plan.table;
                let local = |name: &str| -> Result<usize, QueryError> {
                    column_index(table, name)
                        .map_err(|_| QueryError::UnknownColumn(name.to_owned()))
                };
                let mut kept = Vec::with_capacity(rows.len());
                for row in rows {
                    if eval(res, &row, &local)?.truthy() {
                        kept.push(row);
                    }
                }
                rows = kept;
            }
            per_source.push(rows);
        }
        let rows = execute_joins(query, &scope, per_source, true)?;
        (rows, Expr::conjoin(extra))
    } else {
        let mut per_source: Vec<Vec<Row>> = Vec::with_capacity(scope.sources.len());
        for src in &scope.sources {
            per_source.push(scan(store, src.table)?);
        }
        let rows = execute_joins(query, &scope, per_source, false)?;
        (rows, query.where_clause.clone())
    };

    // Residual WHERE (the full clause on the naive path).
    if let Some(filter) = &residual {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if eval(filter, &row, &resolve)?.truthy() {
                kept.push(row);
            }
        }
        rows = kept;
    }

    let (columns, out_rows) = if grouped {
        aggregate(query, rows, &resolve)?
    } else {
        project_plain(query, rows, &scope, &resolve)?
    };
    finish_rows(store, query, columns, out_rows, &resolve)
}

/// The shared tail of every execution path: DISTINCT, ORDER BY (bounded
/// top-K when a LIMIT rides along), and LIMIT over the projected rows.
fn finish_rows(
    store: &dyn Store,
    query: &Query,
    columns: Vec<String>,
    mut out_rows: Vec<Row>,
    resolve: &dyn Fn(&str) -> Result<usize, QueryError>,
) -> Result<QueryResult, QueryError> {
    let tele = store.telemetry();

    // DISTINCT over the projected rows, via hashed canonical keys (the
    // key encoding matches `Value::loose_eq`, see `canonical_row_key`) —
    // O(n) instead of the old O(n²) pairwise comparison.
    if query.distinct {
        let mut seen: HashSet<String> = HashSet::with_capacity(out_rows.len());
        out_rows.retain(|row| seen.insert(canonical_row_key(row)));
    }

    // ORDER BY over output columns first, then table columns (plain mode).
    if !query.order_by.is_empty() {
        let keys: Vec<(usize, bool)> = query
            .order_by
            .iter()
            .map(|(e, desc)| Ok((sort_key(e, &columns, query, resolve)?, *desc)))
            .collect::<Result<_, QueryError>>()?;
        let cmp = |a: &Row, b: &Row| -> Ordering {
            for (key, desc) in &keys {
                let c = a[*key].total_cmp(&b[*key]);
                let c = if *desc { c.reverse() } else { c };
                if c != Ordering::Equal {
                    return c;
                }
            }
            Ordering::Equal
        };
        match query.limit {
            // Bounded top-K instead of full-sort-then-truncate.
            Some(k) if k < out_rows.len() => {
                if let Some(t) = tele {
                    t.incr("query.topk_total");
                }
                top_k(&mut out_rows, k, cmp);
            }
            _ => out_rows.sort_by(cmp),
        }
    }

    if let Some(limit) = query.limit {
        out_rows.truncate(limit);
    }

    Ok(QueryResult {
        columns,
        rows: out_rows,
    })
}

/// One source table in the FROM/JOIN chain, with the column-offset range
/// its columns occupy in the joined row.
struct ScopeSource {
    /// Qualifier label: the alias if one was given, else the table name.
    label: String,
    table: Table,
    offset: usize,
    width: usize,
    /// Right side of a LEFT JOIN: its columns may be null-padded, so
    /// WHERE conjuncts on them cannot be pushed below the join.
    left_padded: bool,
}

/// Name resolution over the FROM/JOIN sources: maps (possibly
/// `alias.column`-qualified) names to offsets in the joined row, which is
/// the concatenation of every source's columns in FROM/JOIN order.
struct Scope {
    sources: Vec<ScopeSource>,
}

impl Scope {
    fn build(query: &Query) -> Result<Scope, QueryError> {
        let mut sources: Vec<ScopeSource> = Vec::with_capacity(1 + query.joins.len());
        let mut offset = 0;
        let refs = std::iter::once((&query.from, false)).chain(
            query
                .joins
                .iter()
                .map(|j| (&j.table, j.kind == JoinKind::Left)),
        );
        for (tref, left_padded) in refs {
            let table = Table::parse(&tref.name)
                .ok_or_else(|| QueryError::UnknownTable(tref.name.clone()))?;
            let label = tref.label().to_owned();
            if sources.iter().any(|s| s.label.eq_ignore_ascii_case(&label)) {
                return Err(QueryError::Semantic(format!(
                    "duplicate table label '{label}'"
                )));
            }
            let width = table_schema(table).len();
            sources.push(ScopeSource {
                label,
                table,
                offset,
                width,
                left_padded,
            });
            offset += width;
        }
        Ok(Scope { sources })
    }

    /// Resolve a column name to its offset in the joined row. Qualified
    /// names (`r.component`) look in the named source only; bare names
    /// are searched across every source and must be unambiguous.
    fn resolve(&self, name: &str) -> Result<usize, QueryError> {
        if let Some((qualifier, column)) = name.split_once('.') {
            let src = self
                .sources
                .iter()
                .find(|s| s.label.eq_ignore_ascii_case(qualifier))
                .ok_or_else(|| QueryError::UnknownColumn(name.to_owned()))?;
            let idx = column_index(src.table, column)
                .map_err(|_| QueryError::UnknownColumn(name.to_owned()))?;
            return Ok(src.offset + idx);
        }
        let mut found = None;
        for s in &self.sources {
            if let Ok(idx) = column_index(s.table, name) {
                if found.is_some() {
                    return Err(QueryError::Semantic(format!(
                        "ambiguous column '{name}': qualify it with a table label"
                    )));
                }
                found = Some(s.offset + idx);
            }
        }
        found.ok_or_else(|| QueryError::UnknownColumn(name.to_owned()))
    }

    /// Index of the source whose column range contains `global`.
    fn source_of(&self, global: usize) -> usize {
        self.sources
            .iter()
            .rposition(|s| global >= s.offset)
            .unwrap_or(0)
    }

    /// Output column names for `SELECT *`: bare names for one source,
    /// label-qualified once a join makes bare names collide.
    fn wildcard_columns(&self) -> Vec<String> {
        if let [only] = &self.sources[..] {
            return table_schema(only.table)
                .iter()
                .map(|s| s.to_string())
                .collect();
        }
        let mut out = Vec::new();
        for s in &self.sources {
            for c in table_schema(s.table) {
                out.push(format!("{}.{c}", s.label));
            }
        }
        out
    }
}

/// Up-front semantic checks shared by execution and EXPLAIN: every
/// column resolves, and aggregates appear only above the grouping
/// boundary (not in WHERE or JOIN ON).
fn validate_query(query: &Query, scope: &Scope) -> Result<(), QueryError> {
    let resolve = |name: &str| scope.resolve(name);
    validate_columns(query, &resolve)?;
    if let Some(filter) = &query.where_clause {
        if filter.has_aggregate() {
            return Err(QueryError::Semantic("aggregate in WHERE".into()));
        }
    }
    for join in &query.joins {
        if join.on.has_aggregate() {
            return Err(QueryError::Semantic("aggregate in JOIN ON".into()));
        }
    }
    Ok(())
}

/// Walk every column reference in an expression.
fn for_each_column<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a str)) {
    match e {
        Expr::Column(c) => f(c),
        Expr::Literal(_) | Expr::Placeholder(_) => {}
        Expr::Binary { left, right, .. } => {
            for_each_column(left, f);
            for_each_column(right, f);
        }
        Expr::Not(x) | Expr::Neg(x) => for_each_column(x, f),
        Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => for_each_column(expr, f),
        Expr::In { expr, list, .. } => {
            for_each_column(expr, f);
            for x in list {
                for_each_column(x, f);
            }
        }
        Expr::Agg { arg, .. } => {
            if let Some(a) = arg {
                for_each_column(a, f);
            }
        }
        Expr::Scalar { args, .. } => {
            for a in args {
                for_each_column(a, f);
            }
        }
        Expr::Between { expr, lo, hi, .. } => {
            for_each_column(expr, f);
            for_each_column(lo, f);
            for_each_column(hi, f);
        }
    }
}

/// The set of sources an expression's columns resolve into, or `None`
/// when any column fails to resolve (validation reports those first).
fn column_sources(e: &Expr, scope: &Scope) -> Option<BTreeSet<usize>> {
    let mut srcs = BTreeSet::new();
    let mut unknown = false;
    for_each_column(e, &mut |c| match scope.resolve(c) {
        Ok(g) => {
            srcs.insert(scope.source_of(g));
        }
        Err(_) => unknown = true,
    });
    (!unknown).then_some(srcs)
}

/// Clone an expression with every column name rewritten by `rename`.
fn map_columns(e: &Expr, rename: &dyn Fn(&str) -> String) -> Expr {
    match e {
        Expr::Column(c) => Expr::Column(rename(c)),
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Placeholder(i) => Expr::Placeholder(*i),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(map_columns(left, rename)),
            right: Box::new(map_columns(right, rename)),
        },
        Expr::Not(x) => Expr::Not(Box::new(map_columns(x, rename))),
        Expr::Neg(x) => Expr::Neg(Box::new(map_columns(x, rename))),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(map_columns(expr, rename)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::In {
            expr,
            list,
            negated,
        } => Expr::In {
            expr: Box::new(map_columns(expr, rename)),
            list: list.iter().map(|x| map_columns(x, rename)).collect(),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(map_columns(expr, rename)),
            negated: *negated,
        },
        Expr::Agg { func, arg } => Expr::Agg {
            func: *func,
            arg: arg.as_ref().map(|a| Box::new(map_columns(a, rename))),
        },
        Expr::Scalar { func, args } => Expr::Scalar {
            func: *func,
            args: args.iter().map(|a| map_columns(a, rename)).collect(),
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Expr::Between {
            expr: Box::new(map_columns(expr, rename)),
            lo: Box::new(map_columns(lo, rename)),
            hi: Box::new(map_columns(hi, rename)),
            negated: *negated,
        },
    }
}

/// Rewrite every column in `e` to its bare schema name within source
/// `src`, so the planner (which matches unqualified names) can absorb
/// qualified conjuncts. The caller guarantees every column resolves into
/// `src`.
fn strip_qualifiers(e: &Expr, scope: &Scope, src: usize) -> Expr {
    let source = &scope.sources[src];
    map_columns(e, &|c: &str| match scope.resolve(c) {
        Ok(g) => table_schema(source.table)[g - source.offset].to_owned(),
        Err(_) => c.to_owned(),
    })
}

/// Plan every source once — the plans execution, `EXPLAIN` and the
/// partial-aggregate check all read. The WHERE clause's conjuncts are
/// partitioned among the sources: a conjunct pushes below the join to
/// source `i` when every column it references lives in source `i` and
/// that source is never null-padded by a LEFT join (filtering a padded
/// source pre-join would change which rows get padding). Column-free
/// conjuncts go to the first source, which is never padded. Each source's
/// conjuncts reach its [`SourcePlan`] in bare column names, so a qualified
/// spelling plans exactly like the unqualified one. Returns the plans in
/// FROM/JOIN order plus the residual conjuncts for the joined rows.
fn plan_sources(query: &Query, scope: &Scope) -> (Vec<SourcePlan>, Vec<Expr>) {
    let mut per_source: Vec<Vec<Expr>> = scope.sources.iter().map(|_| Vec::new()).collect();
    let mut residual = Vec::new();
    if let Some(w) = &query.where_clause {
        for conjunct in w.conjuncts() {
            let target = match column_sources(conjunct, scope) {
                Some(srcs) if srcs.is_empty() => Some(0),
                Some(srcs) if srcs.len() == 1 => {
                    let i = *srcs.iter().next().expect("len checked");
                    (!scope.sources[i].left_padded).then_some(i)
                }
                _ => None,
            };
            match target {
                Some(i) => per_source[i].push(strip_qualifiers(conjunct, scope, i)),
                None => residual.push(conjunct.clone()),
            }
        }
    }
    let plans = scope
        .sources
        .iter()
        .zip(per_source)
        .map(|(src, conjuncts)| SourcePlan::new(src.table, conjuncts))
        .collect();
    (plans, residual)
}

/// Fold the per-source row sets left to right through the join chain.
fn execute_joins(
    query: &Query,
    scope: &Scope,
    per_source: Vec<Vec<Row>>,
    hash: bool,
) -> Result<Vec<Row>, QueryError> {
    let mut iter = per_source.into_iter();
    let mut acc = iter.next().unwrap_or_default();
    for (i, (join, right)) in query.joins.iter().zip(iter).enumerate() {
        acc = join_rows(scope, acc, right, join, i + 1, hash)?;
    }
    Ok(acc)
}

/// View an ON conjunct as an equi-join pair: `probe-expr = build-expr`
/// where one side reads only the join's right source and the other only
/// earlier sources. Returns `(left-sides expr, right-side expr)`.
fn split_equi(e: &Expr, scope: &Scope, right_src: usize) -> Option<(Expr, Expr)> {
    let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = e
    else {
        return None;
    };
    // true: every column in the right source; false: every column in an
    // earlier source; None: mixed, column-free, or unresolvable.
    let side = |x: &Expr| -> Option<bool> {
        let srcs = column_sources(x, scope)?;
        if srcs.is_empty() {
            None
        } else if srcs.iter().all(|&s| s == right_src) {
            Some(true)
        } else if srcs.iter().all(|&s| s < right_src) {
            Some(false)
        } else {
            None
        }
    };
    match (side(left), side(right)) {
        (Some(false), Some(true)) => Some(((**left).clone(), (**right).clone())),
        (Some(true), Some(false)) => Some(((**right).clone(), (**left).clone())),
        _ => None,
    }
}

/// Join the accumulated left rows against one right source.
///
/// The hash path buckets the smaller input by the canonical key of its
/// equi-join expressions (key equality matches the executor's `=`
/// semantics, including NULL-never-matches) and collects surviving
/// `(left, right)` index pairs; sorting those pairs reproduces the
/// nested-loop emission order exactly, so the pushed and naive paths
/// stay row-for-row equivalent. LEFT joins pad unmatched left rows with
/// NULLs for the right source's columns.
fn join_rows(
    scope: &Scope,
    left: Vec<Row>,
    right: Vec<Row>,
    join: &Join,
    right_src: usize,
    hash: bool,
) -> Result<Vec<Row>, QueryError> {
    let right_off = scope.sources[right_src].offset;
    let right_width = scope.sources[right_src].width;
    let resolve = |name: &str| scope.resolve(name);
    // Right-side equi expressions reference global offsets; shift them
    // back so they evaluate against a bare right row.
    let resolve_right =
        |name: &str| -> Result<usize, QueryError> { resolve(name).map(|g| g - right_off) };

    let mut equi: Vec<(Expr, Expr)> = Vec::new();
    let mut extra: Vec<&Expr> = Vec::new();
    if hash {
        for conjunct in join.on.conjuncts() {
            match split_equi(conjunct, scope, right_src) {
                Some(pair) => equi.push(pair),
                None => extra.push(conjunct),
            }
        }
    }

    let mut out = Vec::new();
    if hash && !equi.is_empty() {
        // Candidate pairs from the hash lookup, then the non-equi ON
        // conjuncts checked per pair.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let key_of = |exprs: &[&Expr],
                      row: &Row,
                      res: &dyn Fn(&str) -> Result<usize, QueryError>|
         -> Result<Option<String>, QueryError> {
            let mut key = String::new();
            for e in exprs {
                let v = eval(e, row, res)?;
                if v.is_null() {
                    // `=` with NULL never matches; the row joins nothing.
                    return Ok(None);
                }
                canonical_value_key(&v, &mut key);
            }
            Ok(Some(key))
        };
        let probe_exprs: Vec<&Expr> = equi.iter().map(|(l, _)| l).collect();
        let build_exprs: Vec<&Expr> = equi.iter().map(|(_, r)| r).collect();
        // Build the hash side from the smaller input (an INNER join can
        // flip; LEFT must enumerate left rows to find the unmatched).
        if join.kind == JoinKind::Inner && left.len() < right.len() {
            let mut buckets: HashMap<String, Vec<usize>> = HashMap::with_capacity(left.len());
            for (li, row) in left.iter().enumerate() {
                if let Some(key) = key_of(&probe_exprs, row, &resolve)? {
                    buckets.entry(key).or_default().push(li);
                }
            }
            for (ri, row) in right.iter().enumerate() {
                if let Some(key) = key_of(&build_exprs, row, &resolve_right)? {
                    if let Some(lis) = buckets.get(&key) {
                        pairs.extend(lis.iter().map(|&li| (li, ri)));
                    }
                }
            }
        } else {
            let mut buckets: HashMap<String, Vec<usize>> = HashMap::with_capacity(right.len());
            for (ri, row) in right.iter().enumerate() {
                if let Some(key) = key_of(&build_exprs, row, &resolve_right)? {
                    buckets.entry(key).or_default().push(ri);
                }
            }
            for (li, row) in left.iter().enumerate() {
                if let Some(key) = key_of(&probe_exprs, row, &resolve)? {
                    if let Some(ris) = buckets.get(&key) {
                        pairs.extend(ris.iter().map(|&ri| (li, ri)));
                    }
                }
            }
        }
        // Nested-loop emission order: ascending (left, right) position.
        pairs.sort_unstable();
        let mut p = 0;
        for (li, lrow) in left.iter().enumerate() {
            let mut matched = false;
            while p < pairs.len() && pairs[p].0 == li {
                let ri = pairs[p].1;
                p += 1;
                let mut cat = lrow.clone();
                cat.extend(right[ri].iter().cloned());
                let mut ok = true;
                for e in &extra {
                    if !eval(e, &cat, &resolve)?.truthy() {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    out.push(cat);
                    matched = true;
                }
            }
            if join.kind == JoinKind::Left && !matched {
                let mut cat = lrow.clone();
                cat.extend(std::iter::repeat_n(Value::Null, right_width));
                out.push(cat);
            }
        }
    } else {
        // Nested loop with the full ON predicate: the reference path,
        // and the fallback when ON has no equi conjunct.
        for lrow in &left {
            let mut matched = false;
            for rrow in &right {
                let mut cat = lrow.clone();
                cat.extend(rrow.iter().cloned());
                if eval(&join.on, &cat, &resolve)?.truthy() {
                    out.push(cat);
                    matched = true;
                }
            }
            if join.kind == JoinKind::Left && !matched {
                let mut cat = lrow.clone();
                cat.extend(std::iter::repeat_n(Value::Null, right_width));
                out.push(cat);
            }
        }
    }
    Ok(out)
}

/// A grouped run query decomposed into store-side partial-aggregate
/// form: schema column indices for the group key and one [`AggInput`]
/// per collected aggregate expression. The filter is the source's plan.
struct PartialAggPlan {
    group_cols: Vec<usize>,
    agg_inputs: Vec<AggInput>,
    agg_exprs: Vec<(AggFunc, Option<Expr>)>,
}

/// Decide whether a statement can run as a store-side partial aggregate:
/// grouped, a single `component_runs` source whose plan absorbed the whole
/// WHERE, plain-column GROUP BY keys, and plain-column (or `*`) aggregate
/// arguments. Anything else falls back to the row scan.
fn plan_partial_agg(query: &Query, scope: &Scope, plans: &[SourcePlan]) -> Option<PartialAggPlan> {
    let [plan] = plans else {
        return None;
    };
    if !query.is_grouped() || plan.table != Table::ComponentRuns || plan.residual.is_some() {
        return None;
    }
    let mut agg_exprs: Vec<(AggFunc, Option<Expr>)> = Vec::new();
    for item in &query.select {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggs(expr, &mut agg_exprs);
        }
    }
    if let Some(h) = &query.having {
        collect_aggs(h, &mut agg_exprs);
    }
    let mut agg_inputs = Vec::with_capacity(agg_exprs.len());
    for (_, arg) in &agg_exprs {
        match arg {
            None => agg_inputs.push(AggInput::CountStar),
            Some(Expr::Column(c)) => agg_inputs.push(AggInput::Column(scope.resolve(c).ok()?)),
            Some(_) => return None,
        }
    }
    let mut group_cols = Vec::with_capacity(query.group_by.len());
    for g in &query.group_by {
        group_cols.push(scope.resolve(g).ok()?);
    }
    Some(PartialAggPlan {
        group_cols,
        agg_inputs,
        agg_exprs,
    })
}

/// Column names plus the rows under them — the shape both the grouped
/// and plain projection stages hand back to the result assembly.
type NamedRows = (Vec<String>, Vec<Row>);

/// Run the partial-aggregate pushdown: the store folds each shard into
/// hash-grouped partial states in parallel; the executor merges them,
/// reconstructs the naive path's first-seen group order via `first_id`
/// (both scans visit runs in ascending id order), and applies HAVING and
/// the SELECT projection. Returns `None` when the store declines.
fn execute_partial_agg(
    store: &dyn Store,
    query: &Query,
    scope: &Scope,
    source: &SourcePlan,
    plan: &PartialAggPlan,
    pref: RoutePreference,
) -> Result<Option<NamedRows>, QueryError> {
    let filter = source.run_filter();
    let route = match run_route(store, &filter, pref)? {
        ScanRoute::Index(r) => Some(r),
        ScanRoute::FullScan => None,
    };
    let Some(partials) =
        store.scan_runs_grouped(&filter, route, &plan.group_cols, &plan.agg_inputs)?
    else {
        return Ok(None);
    };
    if let Some(t) = store.telemetry() {
        t.incr("query.pushdown.aggregates_total");
        if !source.is_all() {
            t.incr("query.pushdown.filters_total");
        }
    }
    // The store may return several partials per group (one per worker);
    // merge by the canonical key the naive path also groups on.
    let mut merged: HashMap<String, GroupPartial> = HashMap::with_capacity(partials.len());
    for p in partials {
        match merged.entry(canonical_row_key(&p.key)) {
            Entry::Occupied(mut e) => e.get_mut().merge(&p),
            Entry::Vacant(v) => {
                v.insert(p);
            }
        }
    }
    let mut groups: Vec<GroupPartial> = merged.into_values().collect();
    groups.sort_unstable_by_key(|g| g.first_id);
    // A global aggregate over zero rows still yields one group.
    if groups.is_empty() && plan.group_cols.is_empty() {
        groups.push(GroupPartial::new(Vec::new(), 0, plan.agg_inputs.len()));
    }
    project_groups(
        query,
        groups.iter().map(|g| (&g.key[..], &g.aggs[..])),
        &plan.agg_exprs,
        &|name| scope.resolve(name),
    )
    .map(Some)
}

/// `EXPLAIN <select>`: plan the statement without scanning and return the
/// decisions as `property`/`value` rows — chosen route, pushed conjuncts,
/// residual size, limit pushdown, and (for cold event reads) how many
/// sealed WAL segments the zone maps would prune. Every line is read off
/// the same [`SourcePlan`]s execution scans with.
pub fn explain_query(store: &dyn Store, query: &Query) -> Result<QueryResult, QueryError> {
    let scope = Scope::build(query)?;
    // Surface the same up-front errors a real execution would.
    validate_query(query, &scope)?;
    let (plans, extra) = plan_sources(query, &scope);

    let table_prop = std::iter::once(&query.from)
        .chain(query.joins.iter().map(|j| &j.table))
        .map(|t| t.name.to_lowercase())
        .collect::<Vec<_>>()
        .join(" join ");
    let mut props: Vec<(String, String)> = vec![("table".to_owned(), table_prop)];
    let mut push = |k: &str, v: String| props.push((k.to_owned(), v));

    if !query.joins.is_empty() {
        // Join plan: per-source pushed filters, then one line per join
        // with its strategy inputs.
        let equi_keys: Vec<usize> = (query.joins.iter().enumerate())
            .map(|(i, join)| {
                let on = join.on.conjuncts();
                on.iter()
                    .filter(|c| split_equi(c, &scope, i + 1).is_some())
                    .count()
            })
            .collect();
        let all_hash = equi_keys.iter().all(|&n| n > 0);
        push(
            "route",
            if all_hash { "hash-join" } else { "nested-loop" }.to_owned(),
        );
        for (src, plan) in scope.sources.iter().zip(&plans) {
            push(&format!("pushed_filter_{}", src.label), plan.describe());
        }
        for (i, join) in query.joins.iter().enumerate() {
            let kind = match join.kind {
                JoinKind::Inner => "inner",
                JoinKind::Left => "left",
            };
            push(
                &format!("join_{}", i + 1),
                format!(
                    "{kind} {label} equi_keys={equi} right_rows_est={est}",
                    label = scope.sources[i + 1].label,
                    equi = equi_keys[i],
                    est = plans[i + 1].estimate_rows(store)?,
                ),
            );
        }
    } else if let Some(pplan) = plan_partial_agg(query, &scope, &plans) {
        // The store-side fold: the aggregate route plus a group-count
        // estimate instead of the row-scan shape.
        let route = plans[0].route(store, RoutePreference::Auto)?;
        push("route", format!("partial-agg({route})"));
        push("pushed_filter", plans[0].describe());
        push("groups_est", estimate_groups(store, &pplan.group_cols)?);
        push("aggregates", pplan.agg_inputs.len().to_string());
    } else {
        push("route", plans[0].route(store, RoutePreference::Auto)?);
        push("pushed_filter", plans[0].describe());
    }
    // Residuals count every conjunct the executor still evaluates above
    // the scans: per-source leftovers plus the cross-source ones.
    let residuals = |e: &Option<Expr>| e.as_ref().map_or(0, |e| e.conjuncts().len());
    let residual_total: usize =
        extra.len() + plans.iter().map(|p| residuals(&p.residual)).sum::<usize>();
    push("residual_conjuncts", residual_total.to_string());
    push(
        "pushed_limit",
        match plans[0].pushed_limit(query) {
            Some(n) => n.to_string(),
            None => "none".to_owned(),
        },
    );
    if query.joins.is_empty() {
        if let Some((pruned, total)) = plans[0].prunable_segments(store)? {
            push("prunable_segments", format!("{pruned} of {total}"));
        }
    }

    Ok(QueryResult {
        columns: vec!["property".to_owned(), "value".to_owned()],
        rows: props
            .into_iter()
            .map(|(k, v)| vec![Value::from(k), Value::from(v)])
            .collect(),
    })
}

/// Group-count estimate for the partial-aggregate route, from the live
/// index cardinalities when the key is one the store tracks.
fn estimate_groups(store: &dyn Store, group_cols: &[usize]) -> Result<String, QueryError> {
    if group_cols.is_empty() {
        return Ok("1".to_owned());
    }
    let Some(stats) = store.index_stats()? else {
        return Ok("unknown".to_owned());
    };
    let component = column_index(Table::ComponentRuns, "component").expect("schema column");
    let status = column_index(Table::ComponentRuns, "status").expect("schema column");
    match group_cols {
        [c] if *c == component => Ok(stats.distinct_components.to_string()),
        [c] if *c == status => Ok(stats.distinct_statuses.to_string()),
        _ => Ok("unknown".to_owned()),
    }
}

/// Keep the `k` smallest rows under `cmp`, in sorted order, equivalent to
/// a full stable sort followed by `truncate(k)` but with memory and sort
/// work bounded by `O(k)` instead of the input size.
///
/// Rows are tagged with their input position and compared by
/// `(cmp, position)` — a total order whose prefix of length `k` is exactly
/// what the stable sort would keep, so pruning the buffer to `k` whenever
/// it reaches `2k` never discards a final survivor.
fn top_k<F: Fn(&Row, &Row) -> Ordering>(rows: &mut Vec<Row>, k: usize, cmp: F) {
    if k == 0 {
        rows.clear();
        return;
    }
    let full = |buf: &mut Vec<(usize, Row)>| {
        buf.sort_by(|a, b| cmp(&a.1, &b.1).then(a.0.cmp(&b.0)));
        buf.truncate(k);
    };
    let mut buf: Vec<(usize, Row)> = Vec::with_capacity(k.saturating_mul(2).min(rows.len()));
    for (i, row) in rows.drain(..).enumerate() {
        buf.push((i, row));
        if buf.len() >= k.saturating_mul(2) {
            full(&mut buf);
        }
    }
    full(&mut buf);
    rows.extend(buf.into_iter().map(|(_, r)| r));
}

/// Resolve an ORDER BY expression to its index in the projected output row.
fn sort_key(
    e: &Expr,
    columns: &[String],
    query: &Query,
    resolve: &dyn Fn(&str) -> Result<usize, QueryError>,
) -> Result<usize, QueryError> {
    // Match by alias / default name of a projected column.
    let name = e.default_name();
    if let Some(i) = columns.iter().position(|c| c.eq_ignore_ascii_case(&name)) {
        return Ok(i);
    }
    // Match a projected expression structurally.
    for (i, item) in query.select.iter().enumerate() {
        if let SelectItem::Expr { expr, .. } = item {
            if expr == e {
                return Ok(i);
            }
        }
    }
    // Plain-table queries: any column is available if SELECT * was used.
    if query.select == vec![SelectItem::Wildcard] {
        if let Expr::Column(c) = e {
            let i = resolve(c)?;
            return Ok(i);
        }
    }
    Err(QueryError::Semantic(format!(
        "ORDER BY expression '{name}' is not in the select list"
    )))
}

fn validate_columns(
    query: &Query,
    resolve: &dyn Fn(&str) -> Result<usize, QueryError>,
) -> Result<(), QueryError> {
    fn walk(
        e: &Expr,
        resolve: &dyn Fn(&str) -> Result<usize, QueryError>,
    ) -> Result<(), QueryError> {
        match e {
            Expr::Column(c) => resolve(c).map(|_| ()),
            Expr::Literal(_) => Ok(()),
            Expr::Placeholder(i) => Err(QueryError::Semantic(format!(
                "unbound placeholder ?{} — bind parameters via PREPARE/EXEC",
                i + 1
            ))),
            Expr::Binary { left, right, .. } => {
                walk(left, resolve)?;
                walk(right, resolve)
            }
            Expr::Not(x) | Expr::Neg(x) => walk(x, resolve),
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => walk(expr, resolve),
            Expr::In { expr, list, .. } => {
                walk(expr, resolve)?;
                list.iter().try_for_each(|x| walk(x, resolve))
            }
            Expr::Agg { arg, .. } => arg.as_deref().map_or(Ok(()), |a| walk(a, resolve)),
            Expr::Scalar { args, .. } => args.iter().try_for_each(|a| walk(a, resolve)),
            Expr::Between { expr, lo, hi, .. } => {
                walk(expr, resolve)?;
                walk(lo, resolve)?;
                walk(hi, resolve)
            }
        }
    }
    for item in &query.select {
        if let SelectItem::Expr { expr, .. } = item {
            walk(expr, resolve)?;
        }
    }
    if let Some(w) = &query.where_clause {
        walk(w, resolve)?;
    }
    for join in &query.joins {
        walk(&join.on, resolve)?;
    }
    if let Some(h) = &query.having {
        walk(h, resolve)?;
    }
    for g in &query.group_by {
        resolve(g)?;
    }
    Ok(())
}

fn project_plain(
    query: &Query,
    rows: Vec<Row>,
    scope: &Scope,
    resolve: &dyn Fn(&str) -> Result<usize, QueryError>,
) -> Result<(Vec<String>, Vec<Row>), QueryError> {
    if query.select == vec![SelectItem::Wildcard] {
        return Ok((scope.wildcard_columns(), rows));
    }
    let mut columns = Vec::new();
    let mut exprs = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Wildcard => {
                return Err(QueryError::Semantic(
                    "mixed wildcard and expressions unsupported".into(),
                ))
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| expr.default_name()));
                exprs.push(expr);
            }
        }
    }
    let mut out = Vec::with_capacity(rows.len());
    for row in &rows {
        let mut projected = Vec::with_capacity(exprs.len());
        for e in &exprs {
            projected.push(eval(e, row, resolve)?);
        }
        out.push(projected);
    }
    Ok((columns, out))
}

/// Finish one aggregate from its partial state. Both the in-executor
/// fold and the store-side partial path end here, with states built
/// from the same [`AggPartial`] arithmetic (exact superaccumulator
/// sums), so the two paths produce bitwise-identical floats.
fn finish_agg(state: &AggPartial, func: AggFunc) -> Value {
    match func {
        AggFunc::Count => Value::from(state.count),
        AggFunc::Sum => Value::Float(state.sum.value()),
        AggFunc::Avg => {
            if state.count == 0 {
                Value::Null
            } else {
                Value::Float(state.sum.value() / state.count as f64)
            }
        }
        AggFunc::Min => state.min.clone().unwrap_or(Value::Null),
        AggFunc::Max => state.max.clone().unwrap_or(Value::Null),
    }
}

fn aggregate(
    query: &Query,
    rows: Vec<Row>,
    resolve: &dyn Fn(&str) -> Result<usize, QueryError>,
) -> Result<(Vec<String>, Vec<Row>), QueryError> {
    // Collect every aggregate expression appearing in SELECT or HAVING.
    let mut agg_exprs: Vec<(AggFunc, Option<Expr>)> = Vec::new();
    for item in &query.select {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggs(expr, &mut agg_exprs);
        }
    }
    if let Some(h) = &query.having {
        collect_aggs(h, &mut agg_exprs);
    }

    let group_idx: Vec<usize> = query
        .group_by
        .iter()
        .map(|g| resolve(g))
        .collect::<Result<_, _>>()?;

    // Group rows by the canonical key of their GROUP BY values — the
    // same keying the store-side partial fold uses, so both paths build
    // identical groups.
    let mut groups: HashMap<String, (Row, Vec<AggPartial>)> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    for row in &rows {
        let key_vals: Row = group_idx.iter().map(|&i| row[i].clone()).collect();
        let key = canonical_row_key(&key_vals);
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            (key_vals, vec![AggPartial::new(); agg_exprs.len()])
        });
        for (state, (_, arg)) in entry.1.iter_mut().zip(agg_exprs.iter()) {
            match arg {
                Some(e) => state.observe(&eval(e, row, resolve)?),
                None => state.observe_count_star(),
            }
        }
    }
    // A global aggregate over zero rows still yields one group.
    if groups.is_empty() && group_idx.is_empty() {
        order.push(String::new());
        groups.insert(
            String::new(),
            (Vec::new(), vec![AggPartial::new(); agg_exprs.len()]),
        );
    }

    project_groups(
        query,
        order.iter().map(|k| {
            let (key_vals, states) = &groups[k];
            (&key_vals[..], &states[..])
        }),
        &agg_exprs,
        resolve,
    )
}

/// Project grouped states into output rows: validate the SELECT shape,
/// apply HAVING, evaluate the projection. Shared by the in-executor fold
/// and the store-side partial-aggregate path — a single projection
/// implementation is what keeps the two paths result-identical.
fn project_groups<'a>(
    query: &Query,
    groups: impl Iterator<Item = (&'a [Value], &'a [AggPartial])>,
    agg_exprs: &[(AggFunc, Option<Expr>)],
    resolve: &dyn Fn(&str) -> Result<usize, QueryError>,
) -> Result<(Vec<String>, Vec<Row>), QueryError> {
    let mut columns = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Wildcard => {
                return Err(QueryError::Semantic("SELECT * with GROUP BY".into()))
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| expr.default_name()));
                // Bare (non-aggregate, non-group) columns are invalid.
                if !expr.has_aggregate() {
                    if let Expr::Column(c) = expr {
                        if group_position(query, c, resolve).is_none() {
                            return Err(QueryError::Semantic(format!(
                                "column {c} is neither aggregated nor grouped"
                            )));
                        }
                    }
                }
            }
        }
    }

    let mut out_rows = Vec::new();
    for (key_vals, states) in groups {
        // HAVING
        if let Some(h) = &query.having {
            let v = eval_agg(h, key_vals, states, agg_exprs, query, resolve)?;
            if !v.truthy() {
                continue;
            }
        }
        let mut row = Vec::with_capacity(query.select.len());
        for item in &query.select {
            if let SelectItem::Expr { expr, .. } = item {
                row.push(eval_agg(expr, key_vals, states, agg_exprs, query, resolve)?);
            }
        }
        out_rows.push(row);
    }
    Ok((columns, out_rows))
}

/// Position of column `c` among the GROUP BY keys, matching by resolved
/// index so qualified and bare spellings of the same column agree.
fn group_position(
    query: &Query,
    c: &str,
    resolve: &dyn Fn(&str) -> Result<usize, QueryError>,
) -> Option<usize> {
    let target = resolve(c).ok()?;
    query
        .group_by
        .iter()
        .position(|g| resolve(g).ok() == Some(target))
}

fn collect_aggs(e: &Expr, out: &mut Vec<(AggFunc, Option<Expr>)>) {
    match e {
        Expr::Agg { func, arg } => {
            let key = (*func, arg.as_deref().cloned());
            if !out.iter().any(|(f, a)| *f == key.0 && *a == key.1) {
                out.push(key);
            }
        }
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, out);
            collect_aggs(right, out);
        }
        Expr::Not(x) | Expr::Neg(x) => collect_aggs(x, out),
        Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => collect_aggs(expr, out),
        Expr::In { expr, list, .. } => {
            collect_aggs(expr, out);
            for x in list {
                collect_aggs(x, out);
            }
        }
        Expr::Scalar { args, .. } => {
            for a in args {
                collect_aggs(a, out);
            }
        }
        Expr::Between { expr, lo, hi, .. } => {
            collect_aggs(expr, out);
            collect_aggs(lo, out);
            collect_aggs(hi, out);
        }
        Expr::Column(_) | Expr::Literal(_) | Expr::Placeholder(_) => {}
    }
}

/// Evaluate an expression in aggregate context: aggregates read their
/// group state; bare grouped columns read the group key.
fn eval_agg(
    e: &Expr,
    key_vals: &[Value],
    states: &[AggPartial],
    agg_exprs: &[(AggFunc, Option<Expr>)],
    query: &Query,
    resolve: &dyn Fn(&str) -> Result<usize, QueryError>,
) -> Result<Value, QueryError> {
    match e {
        Expr::Agg { func, arg } => {
            let idx = agg_exprs
                .iter()
                .position(|(f, a)| f == func && a.as_ref() == arg.as_deref())
                .expect("aggregate was collected");
            Ok(finish_agg(&states[idx], *func))
        }
        Expr::Column(c) => {
            let pos = group_position(query, c, resolve).ok_or_else(|| {
                QueryError::Semantic(format!("column {c} is neither aggregated nor grouped"))
            })?;
            Ok(key_vals[pos].clone())
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { op, left, right } => {
            let l = eval_agg(left, key_vals, states, agg_exprs, query, resolve)?;
            let r = eval_agg(right, key_vals, states, agg_exprs, query, resolve)?;
            Ok(apply_binop(*op, &l, &r))
        }
        Expr::Not(x) => Ok(Value::Bool(
            !eval_agg(x, key_vals, states, agg_exprs, query, resolve)?.truthy(),
        )),
        Expr::Neg(x) => {
            let v = eval_agg(x, key_vals, states, agg_exprs, query, resolve)?;
            Ok(v.as_f64().map(|f| Value::Float(-f)).unwrap_or(Value::Null))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_agg(expr, key_vals, states, agg_exprs, query, resolve)?;
            Ok(Value::Bool(like_match(&v, pattern) != *negated))
        }
        Expr::In {
            expr,
            list,
            negated,
        } => {
            let v = eval_agg(expr, key_vals, states, agg_exprs, query, resolve)?;
            let mut found = false;
            for item in list {
                let w = eval_agg(item, key_vals, states, agg_exprs, query, resolve)?;
                if v.loose_eq(&w) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_agg(expr, key_vals, states, agg_exprs, query, resolve)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Scalar { func, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval_agg(a, key_vals, states, agg_exprs, query, resolve))
                .collect::<Result<_, _>>()?;
            Ok(apply_scalar(*func, &vals))
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval_agg(expr, key_vals, states, agg_exprs, query, resolve)?;
            let l = eval_agg(lo, key_vals, states, agg_exprs, query, resolve)?;
            let h = eval_agg(hi, key_vals, states, agg_exprs, query, resolve)?;
            Ok(eval_between(&v, &l, &h, *negated))
        }
        Expr::Placeholder(i) => Err(QueryError::Semantic(format!(
            "unbound placeholder ?{}",
            i + 1
        ))),
    }
}

/// Evaluate an expression against one table row.
fn eval(
    e: &Expr,
    row: &Row,
    resolve: &dyn Fn(&str) -> Result<usize, QueryError>,
) -> Result<Value, QueryError> {
    match e {
        Expr::Column(c) => Ok(row[resolve(c)?].clone()),
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { op, left, right } => {
            let l = eval(left, row, resolve)?;
            let r = eval(right, row, resolve)?;
            Ok(apply_binop(*op, &l, &r))
        }
        Expr::Not(x) => Ok(Value::Bool(!eval(x, row, resolve)?.truthy())),
        Expr::Neg(x) => {
            let v = eval(x, row, resolve)?;
            Ok(v.as_f64().map(|f| Value::Float(-f)).unwrap_or(Value::Null))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, row, resolve)?;
            Ok(Value::Bool(like_match(&v, pattern) != *negated))
        }
        Expr::In {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row, resolve)?;
            let mut found = false;
            for item in list {
                if v.loose_eq(&eval(item, row, resolve)?) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, row, resolve)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Agg { .. } => Err(QueryError::Semantic(
            "aggregate outside aggregation context".into(),
        )),
        Expr::Scalar { func, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval(a, row, resolve))
                .collect::<Result<_, _>>()?;
            Ok(apply_scalar(*func, &vals))
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval(expr, row, resolve)?;
            let l = eval(lo, row, resolve)?;
            let h = eval(hi, row, resolve)?;
            Ok(eval_between(&v, &l, &h, *negated))
        }
        Expr::Placeholder(i) => Err(QueryError::Semantic(format!(
            "unbound placeholder ?{}",
            i + 1
        ))),
    }
}

/// `v BETWEEN l AND h` with SQL null semantics (null operand → false).
fn eval_between(v: &Value, l: &Value, h: &Value, negated: bool) -> Value {
    if v.is_null() || l.is_null() || h.is_null() {
        return Value::Bool(false);
    }
    let inside = v.total_cmp(l) != Ordering::Less && v.total_cmp(h) != Ordering::Greater;
    Value::Bool(inside != negated)
}

/// Apply a scalar function with loose SQL semantics (null in → null out,
/// except COALESCE).
fn apply_scalar(func: ScalarFunc, args: &[Value]) -> Value {
    match func {
        ScalarFunc::Coalesce => args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null),
        ScalarFunc::Abs => match args.first() {
            Some(Value::Int(i)) => Value::Int(i.saturating_abs()),
            Some(v) => v
                .as_f64()
                .map(|f| Value::Float(f.abs()))
                .unwrap_or(Value::Null),
            None => Value::Null,
        },
        ScalarFunc::Round => match args.first().and_then(Value::as_f64) {
            Some(f) if f.is_finite() => Value::Int(f.round() as i64),
            _ => Value::Null,
        },
        ScalarFunc::Length => match args.first() {
            Some(Value::Str(s)) => Value::from(s.chars().count()),
            Some(Value::List(l)) => Value::from(l.len()),
            _ => Value::Null,
        },
        ScalarFunc::Lower => match args.first() {
            Some(Value::Str(s)) => Value::from(s.to_lowercase()),
            _ => Value::Null,
        },
        ScalarFunc::Upper => match args.first() {
            Some(Value::Str(s)) => Value::from(s.to_uppercase()),
            _ => Value::Null,
        },
    }
}

fn apply_binop(op: BinOp, l: &Value, r: &Value) -> Value {
    use BinOp::*;
    match op {
        And => Value::Bool(l.truthy() && r.truthy()),
        Or => Value::Bool(l.truthy() || r.truthy()),
        Eq | Ne | Lt | Le | Gt | Ge => {
            // SQL-ish null semantics: comparisons with NULL are false.
            if l.is_null() || r.is_null() {
                return Value::Bool(false);
            }
            let c = l.total_cmp(r);
            let b = match op {
                Eq => c == Ordering::Equal,
                Ne => c != Ordering::Equal,
                Lt => c == Ordering::Less,
                Le => c != Ordering::Greater,
                Gt => c == Ordering::Greater,
                Ge => c != Ordering::Less,
                _ => unreachable!(),
            };
            Value::Bool(b)
        }
        Add | Sub | Mul | Div | Mod => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => {
                let x = match op {
                    Add => a + b,
                    Sub => a - b,
                    Mul => a * b,
                    Div => a / b,
                    Mod => a % b,
                    _ => unreachable!(),
                };
                // Keep integer results integral when both sides were ints.
                match (l, r) {
                    (Value::Int(_), Value::Int(_))
                        if x.fract() == 0.0 && x.is_finite() && !matches!(op, Div) =>
                    {
                        Value::Int(x as i64)
                    }
                    _ => Value::Float(x),
                }
            }
            _ => Value::Null,
        },
    }
}

/// SQL LIKE with `%` (any run) and `_` (single char), case-sensitive.
fn like_match(v: &Value, pattern: &str) -> bool {
    let Value::Str(s) = v else { return false };
    fn rec(s: &[u8], p: &[u8]) -> bool {
        match (p.first(), s.first()) {
            (None, None) => true,
            (None, Some(_)) => false,
            (Some(b'%'), _) => rec(s, &p[1..]) || (!s.is_empty() && rec(&s[1..], p)),
            (Some(b'_'), Some(_)) => rec(&s[1..], &p[1..]),
            (Some(&c), Some(&d)) if c == d => rec(&s[1..], &p[1..]),
            _ => false,
        }
    }
    rec(s.as_bytes(), pattern.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mltrace_store::{
        ComponentRecord, ComponentRunRecord, DiagnosisRecord, EventKind, EventSeverity,
        IncidentRecord, IncidentState, MemoryStore, MetricRecord, ObservabilityEvent, RunId,
        RunStatus,
    };

    #[test]
    fn queries_record_store_telemetry() {
        let s = seeded();
        execute(&s, "SELECT name FROM components").unwrap();
        assert!(execute(&s, "SELECT nonsense FROM").is_err());
        let snap = s.telemetry().unwrap().snapshot();
        assert_eq!(snap.counters["query.statements_total"], 2);
        assert_eq!(
            snap.histograms["query.parse"].count, 2,
            "failed parse timed too"
        );
        assert_eq!(snap.histograms["query.exec"].count, 1);
    }

    fn seeded() -> MemoryStore {
        let s = MemoryStore::new();
        for (name, owner) in [("etl", "data-eng"), ("train", "ml"), ("infer", "ml")] {
            let mut c = ComponentRecord::named(name);
            c.owner = owner.into();
            s.register_component(c).unwrap();
        }
        for (component, start, dur, status) in [
            ("etl", 100u64, 50u64, RunStatus::Success),
            ("etl", 200, 60, RunStatus::Success),
            ("train", 300, 500, RunStatus::Failed),
            ("infer", 400, 5, RunStatus::Success),
            ("infer", 500, 7, RunStatus::TriggerFailed),
            ("infer", 600, 6, RunStatus::Success),
        ] {
            s.log_run(ComponentRunRecord {
                component: component.into(),
                start_ms: start,
                end_ms: start + dur,
                outputs: vec![format!("out-{start}")],
                status,
                ..Default::default()
            })
            .unwrap();
        }
        for (ts, v) in [(1u64, 0.9), (2, 0.85), (3, 0.6)] {
            s.log_metric(MetricRecord {
                component: "infer".into(),
                run_id: None,
                name: "accuracy".into(),
                value: v,
                ts_ms: ts,
            })
            .unwrap();
        }
        s.log_events(vec![
            ObservabilityEvent::new(EventKind::RunStarted, EventSeverity::Info, 100)
                .component("etl")
                .run(RunId(1)),
            ObservabilityEvent::new(EventKind::RunFinished, EventSeverity::Info, 150)
                .component("etl")
                .run(RunId(1)),
            ObservabilityEvent::new(EventKind::StalenessFlagged, EventSeverity::Warn, 250)
                .component("train")
                .detail("no fresh run in 2h"),
            ObservabilityEvent::new(EventKind::AlertFired, EventSeverity::Page, 400)
                .component("infer")
                .run(RunId(4))
                .detail("accuracy below floor"),
            ObservabilityEvent::new(EventKind::AlertSuppressed, EventSeverity::Info, 450)
                .component("infer")
                .run(RunId(4)),
            ObservabilityEvent::new(EventKind::RunFailed, EventSeverity::Warn, 800)
                .component("train")
                .run(RunId(3))
                .detail("boom"),
        ])
        .unwrap();
        s.upsert_incident(IncidentRecord {
            key: "infer/accuracy".into(),
            state: IncidentState::Open,
            severity: EventSeverity::Page,
            subject: "infer".into(),
            opened_ms: 400,
            last_fire_ms: 400,
            resolved_ms: None,
            fire_count: 1,
            suppressed_count: 1,
            burn_ms: 0,
            detail: "accuracy below floor".into(),
        })
        .unwrap();
        s.put_diagnosis(
            "infer/accuracy",
            vec![
                DiagnosisRecord {
                    incident_key: "infer/accuracy".into(),
                    rank: 1,
                    suspect: "train".into(),
                    evidence_kind: "run_failed".into(),
                    score: 2.7,
                    onset_ms: 800,
                    distance: 1,
                    detail: "latest run failed".into(),
                },
                DiagnosisRecord {
                    incident_key: "infer/accuracy".into(),
                    rank: 2,
                    suspect: "etl".into(),
                    evidence_kind: "drift_score".into(),
                    score: 0.4,
                    onset_ms: 250,
                    distance: 2,
                    detail: String::new(),
                },
            ],
        )
        .unwrap();
        s
    }

    #[test]
    fn select_star_with_filter_and_order() {
        let s = seeded();
        let r = execute(
            &s,
            "SELECT * FROM component_runs WHERE component = 'infer' ORDER BY start_ms DESC LIMIT 2",
        )
        .unwrap();
        assert_eq!(r.rows.len(), 2);
        let start_idx = r.columns.iter().position(|c| c == "start_ms").unwrap();
        assert_eq!(r.rows[0][start_idx], Value::Int(600));
        assert_eq!(r.rows[1][start_idx], Value::Int(500));
    }

    #[test]
    fn projection_with_alias_and_arithmetic() {
        let s = seeded();
        let r = execute(
            &s,
            "SELECT component, duration_ms / 2 AS half FROM component_runs WHERE duration_ms > 100",
        )
        .unwrap();
        assert_eq!(r.columns, vec!["component", "half"]);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::from("train"));
        assert_eq!(r.rows[0][1], Value::Float(250.0));
    }

    #[test]
    fn group_by_with_having_and_order() {
        let s = seeded();
        let r = execute(
            &s,
            "SELECT component, count(*) AS runs, avg(duration_ms) AS avg_dur \
             FROM component_runs GROUP BY component HAVING count(*) >= 2 \
             ORDER BY runs DESC",
        )
        .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::from("infer"));
        assert_eq!(r.rows[0][1], Value::Int(3));
        assert_eq!(r.rows[1][0], Value::from("etl"));
        let avg: f64 = r.rows[1][2].as_f64().unwrap();
        assert!((avg - 55.0).abs() < 1e-9);
    }

    #[test]
    fn global_aggregates() {
        let s = seeded();
        let r = execute(
            &s,
            "SELECT count(*), min(value), max(value), avg(value) FROM metrics",
        )
        .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(3));
        assert_eq!(r.rows[0][1], Value::Float(0.6));
        assert_eq!(r.rows[0][2], Value::Float(0.9));
        let avg = r.rows[0][3].as_f64().unwrap();
        assert!((avg - 0.7833333).abs() < 1e-5);
    }

    #[test]
    fn global_aggregate_on_empty_scan() {
        let s = MemoryStore::new();
        let r = execute(&s, "SELECT count(*) FROM metrics").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn like_and_in() {
        let s = seeded();
        let r = execute(
            &s,
            "SELECT name FROM components WHERE name LIKE 'e%' OR name IN ('train')",
        )
        .unwrap();
        let names: Vec<String> = r.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["etl", "train"]);
        let r = execute(&s, "SELECT name FROM components WHERE name NOT LIKE '%n%'").unwrap();
        assert_eq!(r.rows.len(), 1); // etl
    }

    #[test]
    fn is_null_semantics() {
        let s = seeded();
        // metrics.run_id is NULL for externally-fed series.
        let r = execute(&s, "SELECT count(*) FROM metrics WHERE run_id IS NULL").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
        let r = execute(&s, "SELECT count(*) FROM metrics WHERE run_id IS NOT NULL").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0));
        // Comparisons with NULL are false, not errors.
        let r = execute(&s, "SELECT count(*) FROM metrics WHERE run_id = 1").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0));
    }

    #[test]
    fn errors() {
        let s = seeded();
        assert!(matches!(
            execute(&s, "SELECT * FROM nope"),
            Err(QueryError::UnknownTable(_))
        ));
        assert!(matches!(
            execute(&s, "SELECT bogus FROM components"),
            Err(QueryError::UnknownColumn(_))
        ));
        assert!(matches!(
            execute(&s, "SELECT owner FROM components GROUP BY name"),
            Err(QueryError::Semantic(_))
        ));
        assert!(matches!(
            execute(&s, "SELECT * FROM components WHERE count(*) > 1"),
            Err(QueryError::Semantic(_))
        ));
        assert!(execute(&s, "SELEC * FROM components").is_err());
    }

    #[test]
    fn render_table() {
        let s = seeded();
        let r = execute(&s, "SELECT name, owner FROM components ORDER BY name").unwrap();
        let text = r.render();
        assert!(text.contains("name"));
        assert!(text.contains("data-eng"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2 + 3, "header + separator + rows");
    }

    #[test]
    fn like_match_wildcards() {
        assert!(like_match(&Value::from("pred-17"), "pred-%"));
        assert!(like_match(&Value::from("abc"), "a_c"));
        assert!(!like_match(&Value::from("abc"), "a_"));
        assert!(like_match(&Value::from(""), "%"));
        assert!(!like_match(&Value::Int(5), "5"));
        assert!(like_match(&Value::from("x%y"), "x%y"));
    }

    #[test]
    fn distinct_deduplicates() {
        let s = seeded();
        let r = execute(
            &s,
            "SELECT DISTINCT component FROM component_runs ORDER BY component",
        )
        .unwrap();
        let names: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert_eq!(names, vec!["etl", "infer", "train"]);
        // Without DISTINCT there are 6 rows.
        let r = execute(&s, "SELECT component FROM component_runs").unwrap();
        assert_eq!(r.rows.len(), 6);
    }

    #[test]
    fn between_inclusive_and_negated() {
        let s = seeded();
        let r = execute(
            &s,
            "SELECT count(*) FROM component_runs WHERE start_ms BETWEEN 200 AND 400",
        )
        .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3), "200, 300, 400 inclusive");
        let r = execute(
            &s,
            "SELECT count(*) FROM component_runs WHERE start_ms NOT BETWEEN 200 AND 400",
        )
        .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
        // BETWEEN composes with AND.
        let r = execute(
            &s,
            "SELECT count(*) FROM component_runs WHERE start_ms BETWEEN 100 AND 600 AND component = 'infer'",
        )
        .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn scalar_functions() {
        let s = seeded();
        let r = execute(
            &s,
            "SELECT upper(name) AS u, length(name) AS l, abs(0 - 3) AS a, \
             round(2.6) AS r, coalesce(NULL, name, 'x') AS c \
             FROM components WHERE name = 'etl'",
        )
        .unwrap();
        assert_eq!(r.rows[0][0], Value::from("ETL"));
        assert_eq!(r.rows[0][1], Value::Int(3));
        assert_eq!(r.rows[0][2], Value::Int(3));
        assert_eq!(r.rows[0][3], Value::Int(3));
        assert_eq!(r.rows[0][4], Value::from("etl"));
    }

    #[test]
    fn scalar_null_semantics() {
        let s = seeded();
        // run_id is NULL for these metric points: abs(NULL) → NULL.
        let r = execute(&s, "SELECT count(abs(run_id)) FROM metrics").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0), "nulls excluded from count");
        let r = execute(&s, "SELECT count(coalesce(run_id, 0)) FROM metrics").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn scalar_inside_aggregate_group() {
        let s = seeded();
        let r = execute(
            &s,
            "SELECT component, max(abs(duration_ms)) AS m FROM component_runs \
             GROUP BY component ORDER BY m DESC LIMIT 1",
        )
        .unwrap();
        assert_eq!(r.rows[0][0], Value::from("train"));
    }

    #[test]
    fn pushdown_matches_naive_on_seeded() {
        let s = seeded();
        for sql in [
            "SELECT * FROM component_runs WHERE component = 'infer'",
            "SELECT * FROM runs WHERE status = 'success' AND start_ms >= 200",
            "SELECT * FROM runs WHERE 300 <= start_ms AND duration_ms > 4",
            "SELECT * FROM runs WHERE start_ms BETWEEN 200 AND 500 LIMIT 2",
            "SELECT component FROM runs WHERE component = 'etl' AND component = 'train'",
            "SELECT * FROM runs WHERE id < 0",
            "SELECT * FROM runs LIMIT 3",
            "SELECT * FROM runs WHERE status = 'Success'",
            "SELECT count(*) FROM runs WHERE component = 'infer'",
            "SELECT DISTINCT component FROM runs WHERE start_ms >= 200 ORDER BY component",
            "SELECT * FROM runs ORDER BY duration_ms DESC LIMIT 2",
            "SELECT * FROM metrics WHERE component = 'infer' AND value > 0.7",
            "SELECT * FROM metrics WHERE component = 'ghost'",
            "SELECT name, value FROM metrics WHERE component = 'infer' LIMIT 2",
            "SELECT * FROM events WHERE kind = 'alert_fired'",
            "SELECT * FROM events WHERE severity = 'warn' AND component = 'train'",
            "SELECT * FROM events WHERE run_id = 4",
            "SELECT * FROM events WHERE ts_ms BETWEEN 100 AND 450 LIMIT 2",
            "SELECT * FROM events WHERE kind = 'AlertFired'",
            "SELECT * FROM journal WHERE id >= 2 AND id < 5",
            "SELECT kind, count(*) AS n FROM events GROUP BY kind ORDER BY kind",
            "SELECT * FROM events ORDER BY ts_ms DESC LIMIT 3",
            "SELECT * FROM events WHERE kind = 'run_failed' AND detail = 'boom'",
            "SELECT key, state, fire_count FROM incidents WHERE state = 'open'",
        ] {
            let q = parse(sql).unwrap();
            let fast = execute_query(&s, &q).unwrap();
            let slow = execute_query_unoptimized(&s, &q).unwrap();
            assert_eq!(fast, slow, "{sql}");
        }
    }

    #[test]
    fn pushdown_records_planner_and_scan_counters() {
        let s = seeded();
        execute(
            &s,
            "SELECT * FROM component_runs WHERE component = 'infer' LIMIT 2",
        )
        .unwrap();
        let snap = s.telemetry().unwrap().snapshot();
        assert_eq!(snap.counters["query.pushdown.filters_total"], 1);
        assert_eq!(snap.counters["query.pushdown.limits_total"], 1);
        assert_eq!(snap.counters["query.rows_scanned"], 6, "all runs examined");
        assert_eq!(
            snap.counters["query.rows_returned"], 2,
            "limit bounds clones"
        );
        assert!(!snap.counters.contains_key("query.topk_total"));

        execute(&s, "SELECT * FROM runs ORDER BY duration_ms DESC LIMIT 1").unwrap();
        let snap = s.telemetry().unwrap().snapshot();
        assert_eq!(snap.counters["query.topk_total"], 1);
        // ORDER BY forbids limit pushdown.
        assert_eq!(snap.counters["query.pushdown.limits_total"], 1);
    }

    #[test]
    fn top_k_equals_stable_sort_truncate() {
        let rows: Vec<Row> = (0i64..100)
            .map(|i| vec![Value::Int(i % 7), Value::Int(i)])
            .collect();
        let cmp = |a: &Row, b: &Row| a[0].total_cmp(&b[0]);
        for k in [0, 1, 5, 7, 50, 99, 100, 150] {
            let mut fast = rows.clone();
            top_k(&mut fast, k, cmp);
            let mut slow = rows.clone();
            slow.sort_by(cmp);
            slow.truncate(k);
            assert_eq!(fast, slow, "k = {k}");
        }
    }

    #[test]
    fn canonical_key_agrees_with_loose_eq() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(1),
            Value::Int(i64::MIN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.0),
            Value::Float(1.5),
            Value::Float(f64::NAN),
            Value::Float(-(2f64.powi(63))),
            Value::from("1"),
            Value::from(""),
            Value::List(vec![Value::Int(1)]),
            Value::List(vec![Value::Float(1.0)]),
        ];
        for a in &vals {
            for b in &vals {
                let key = |v: &Value| {
                    let mut s = String::new();
                    canonical_value_key(v, &mut s);
                    s
                };
                assert_eq!(
                    key(a) == key(b),
                    a.loose_eq(b),
                    "key/loose_eq disagree on {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn order_by_requires_projected_or_wildcard() {
        let s = seeded();
        assert!(matches!(
            execute(&s, "SELECT name FROM components ORDER BY owner"),
            Err(QueryError::Semantic(_))
        ));
        // But works with wildcard.
        assert!(execute(&s, "SELECT * FROM components ORDER BY owner").is_ok());
    }

    #[test]
    fn strip_explain_peels_only_the_keyword() {
        assert_eq!(strip_explain("EXPLAIN SELECT 1"), Some(" SELECT 1"));
        assert_eq!(strip_explain("  explain\tSELECT 1"), Some("\tSELECT 1"));
        assert!(strip_explain("SELECT 1").is_none());
        // The keyword must be a whole word, not a prefix.
        assert!(strip_explain("EXPLAINSELECT 1").is_none());
        assert!(strip_explain("EXPLAIN").is_none());
        // Multi-byte text must not panic the boundary probe.
        assert!(strip_explain("日本語のテキストです").is_none());
    }

    /// Property → value map of one EXPLAIN result.
    fn explain_map(r: &QueryResult) -> std::collections::BTreeMap<String, String> {
        assert_eq!(r.columns, vec!["property", "value"]);
        r.rows
            .iter()
            .map(|row| {
                let (Value::Str(k), Value::Str(v)) = (&row[0], &row[1]) else {
                    panic!("non-string explain row: {row:?}");
                };
                (k.clone(), v.clone())
            })
            .collect()
    }

    #[test]
    fn explain_reports_route_pushdown_and_counter() {
        let s = seeded();
        // Selective run query: indexable, fully pushed, limit pushed.
        let r = execute(
            &s,
            "EXPLAIN SELECT * FROM component_runs WHERE id <= 1 LIMIT 2",
        )
        .unwrap();
        let m = explain_map(&r);
        assert_eq!(m["table"], "component_runs");
        assert_eq!(m["route"], "index(id_range)");
        assert_eq!(m["pushed_filter"], "id <= 1");
        assert_eq!(m["residual_conjuncts"], "0");
        assert_eq!(m["pushed_limit"], "2");
        // EXPLAIN plans without scanning: no rows examined, one explain.
        let snap = s.telemetry().unwrap().snapshot();
        assert_eq!(snap.counters["query.explain_total"], 1);
        assert_eq!(snap.counters["query.rows_scanned"], 0);

        // Unselective filter on a tiny table: the scan wins, and the
        // unpushable conjunct is counted as residual.
        let r = execute(
            &s,
            "EXPLAIN SELECT * FROM component_runs \
             WHERE component = 'infer' AND duration_ms > 5 LIMIT 2",
        )
        .unwrap();
        let m = explain_map(&r);
        assert_eq!(m["route"], "scan");
        assert_eq!(m["pushed_filter"], "component=infer");
        assert_eq!(m["residual_conjuncts"], "1");
        assert_eq!(m["pushed_limit"], "none", "residual blocks limit pushdown");
    }

    #[test]
    fn explain_covers_events_and_errors_like_execution() {
        let s = seeded();
        let r = execute(
            &s,
            "EXPLAIN SELECT * FROM events WHERE kind = 'alert_fired' AND severity = 'page'",
        )
        .unwrap();
        let m = explain_map(&r);
        assert_eq!(m["table"], "events");
        assert_eq!(m["route"], "index(event_kind)");
        assert_eq!(m["pushed_filter"], "kind=alert_fired, severity=page");
        // MemoryStore has no WAL segments, so no prunable_segments row.
        assert!(!m.contains_key("prunable_segments"));
        // EXPLAIN surfaces the same up-front errors as execution.
        assert!(matches!(
            execute(&s, "EXPLAIN SELECT * FROM nope"),
            Err(QueryError::UnknownTable(_))
        ));
        assert!(matches!(
            execute(&s, "EXPLAIN SELECT nope FROM components"),
            Err(QueryError::UnknownColumn(_))
        ));
    }

    #[test]
    fn summaries_query_reads_plane_and_pushdown_matches_naive() {
        let s = seeded();
        // Three accuracy points went through the plane.
        let r = execute(
            &s,
            "SELECT component, metric, count, mean FROM summaries \
             WHERE component = 'infer' AND metric = 'accuracy'",
        )
        .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::from("infer"));
        assert_eq!(r.rows[0][1], Value::from("accuracy"));
        assert_eq!(r.rows[0][2], Value::Int(3));
        let mean = r.rows[0][3].as_f64().unwrap();
        assert!((mean - 0.7833333).abs() < 1e-5);
        // Pushed and naive paths agree row for row.
        let q = parse("SELECT * FROM summaries WHERE component = 'infer'").unwrap();
        assert_eq!(
            execute_query(&s, &q).unwrap(),
            execute_query_unoptimized(&s, &q).unwrap()
        );
        // Nothing drifted yet: the residual drift filter drops the row.
        let r = execute(&s, "SELECT * FROM summaries WHERE drift_score > 0").unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn explain_covers_summaries_and_events_kind_index_route() {
        let s = seeded();
        let r = execute(
            &s,
            "EXPLAIN SELECT * FROM summaries WHERE component = 'infer' \
             AND metric = 'accuracy' AND drift_score > 0",
        )
        .unwrap();
        let m = explain_map(&r);
        assert_eq!(m["table"], "summaries");
        assert_eq!(m["route"], "monitor-plane");
        assert_eq!(m["pushed_filter"], "component=infer, metric=accuracy");
        assert_eq!(m["residual_conjuncts"], "1");
        assert_eq!(m["pushed_limit"], "none");
        // No pushable conjunct at all: the whole clause stays residual.
        let r = execute(&s, "EXPLAIN SELECT * FROM summaries WHERE count > 10").unwrap();
        let m = explain_map(&r);
        assert_eq!(m["pushed_filter"], "all");
        assert_eq!(m["residual_conjuncts"], "1");

        // A kind-only equality takes the event-kind index on an indexed
        // store; a severity-only one cannot.
        let r = execute(&s, "EXPLAIN SELECT * FROM events WHERE kind = 'run_failed'").unwrap();
        assert_eq!(explain_map(&r)["route"], "index(event_kind)");
        let r = execute(&s, "EXPLAIN SELECT * FROM events WHERE severity = 'page'").unwrap();
        let m = explain_map(&r);
        assert_eq!(m["route"], "scan");
        assert_eq!(m["pushed_filter"], "severity=page");
    }

    #[test]
    fn diagnoses_scan_pushes_down_and_explains() {
        let s = seeded();
        let r = execute(
            &s,
            "SELECT suspect, score FROM diagnoses \
             WHERE incident_key = 'infer/accuracy' AND rank = 1",
        )
        .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::Str("train".into()), Value::Float(2.7)]]
        );
        // Pushed and naive paths agree when only part of the clause pushes.
        let q = parse("SELECT * FROM diagnoses WHERE suspect = 'etl' AND score < 1.0").unwrap();
        assert_eq!(
            execute_query(&s, &q).unwrap(),
            execute_query_unoptimized(&s, &q).unwrap()
        );
        let r = execute(
            &s,
            "EXPLAIN SELECT * FROM diagnoses WHERE incident_key = 'infer/accuracy' \
             AND suspect = 'train' AND score > 1.0",
        )
        .unwrap();
        let m = explain_map(&r);
        assert_eq!(m["table"], "diagnoses");
        assert_eq!(m["route"], "diagnosis-store");
        assert_eq!(
            m["pushed_filter"],
            "incident_key=infer/accuracy, suspect=train"
        );
        assert_eq!(m["residual_conjuncts"], "1");
        assert_eq!(m["pushed_limit"], "none");
    }

    #[test]
    fn forced_index_routes_agree_with_scan() {
        let s = seeded();
        for sql in [
            "SELECT * FROM component_runs WHERE component = 'infer'",
            "SELECT * FROM component_runs WHERE status = 'success'",
            "SELECT * FROM component_runs WHERE start_ms BETWEEN 150 AND 450",
            "SELECT * FROM component_runs WHERE id >= 3 AND id <= 5",
            "SELECT id, duration_ms FROM component_runs WHERE component = 'infer' \
             AND duration_ms > 5 ORDER BY id",
        ] {
            let q = parse(sql).unwrap();
            let scan = execute_query_with_route(&s, &q, RoutePreference::ForceScan).unwrap();
            let index = execute_query_with_route(&s, &q, RoutePreference::ForceIndex).unwrap();
            assert_eq!(index, scan, "{sql}");
        }
    }

    /// Every new operator through all four executor paths: pushed
    /// (auto), forced index, forced scan, and fully naive.
    fn assert_four_paths_agree(s: &MemoryStore, sql: &str) -> QueryResult {
        let q = parse(sql).unwrap();
        let fast = execute_query(s, &q).unwrap();
        let naive = execute_query_unoptimized(s, &q).unwrap();
        let index = execute_query_with_route(s, &q, RoutePreference::ForceIndex).unwrap();
        let scan = execute_query_with_route(s, &q, RoutePreference::ForceScan).unwrap();
        assert_eq!(fast, naive, "pushed vs naive: {sql}");
        assert_eq!(index, naive, "forced index vs naive: {sql}");
        assert_eq!(scan, naive, "forced scan vs naive: {sql}");
        fast
    }

    #[test]
    fn issue_acceptance_group_by_having() {
        let s = seeded();
        let r = assert_four_paths_agree(
            &s,
            "SELECT component, COUNT(*), AVG(duration_ms) FROM runs \
             GROUP BY component HAVING COUNT(*) > 1",
        );
        assert_eq!(r.columns, vec!["component", "count(*)", "avg(duration_ms)"]);
        // First-seen group order: etl (2 runs, avg 55), infer (3 runs,
        // avg 6); train has a single run and fails HAVING.
        assert_eq!(
            r.rows,
            vec![
                vec![Value::from("etl"), Value::Int(2), Value::Float(55.0)],
                vec![Value::from("infer"), Value::Int(3), Value::Float(6.0)],
            ]
        );
    }

    #[test]
    fn grouped_queries_match_naive_across_paths() {
        let s = seeded();
        for sql in [
            "SELECT component, count(*) FROM runs GROUP BY component",
            "SELECT status, sum(duration_ms), min(start_ms), max(end_ms) FROM runs \
             GROUP BY status ORDER BY status",
            "SELECT component, avg(duration_ms) AS d FROM runs WHERE start_ms >= 200 \
             GROUP BY component HAVING avg(duration_ms) < 100 ORDER BY d DESC LIMIT 1",
            "SELECT count(*), avg(duration_ms) FROM runs",
            "SELECT count(*) FROM runs WHERE id < 0",
            "SELECT component, status, count(*) FROM runs GROUP BY component, status",
            // Unplannable aggregate args fall back to the row path.
            "SELECT component, sum(duration_ms / 2) FROM runs GROUP BY component",
            "SELECT r.component, count(*) FROM runs r GROUP BY r.component",
        ] {
            assert_four_paths_agree(&s, sql);
        }
    }

    #[test]
    fn partial_agg_counters_and_group_count_rows() {
        let s = seeded();
        let r = execute(
            &s,
            "SELECT component, count(*) FROM runs GROUP BY component",
        )
        .unwrap();
        assert_eq!(r.rows.len(), 3);
        let snap = s.telemetry().unwrap().snapshot();
        assert_eq!(snap.counters["query.pushdown.aggregates_total"], 1);
        assert_eq!(snap.counters["query.rows_scanned"], 6, "all runs folded");
        assert_eq!(
            snap.counters["query.rows_returned"], 3,
            "the store hands back group partials, not rows"
        );
    }

    #[test]
    fn joins_match_naive_and_expected_rows() {
        let s = seeded();
        for sql in [
            "SELECT r.component, e.kind FROM runs r JOIN events e ON e.run_id = r.id",
            "SELECT r.component, i.key FROM runs r JOIN incidents i ON i.subject = r.component \
             WHERE i.state = 'open'",
            "SELECT r.id, r.component, e.kind FROM runs r LEFT JOIN events e ON e.run_id = r.id \
             ORDER BY r.id",
            "SELECT r.component, e.severity FROM runs r JOIN events e \
             ON e.run_id = r.id AND e.severity = 'warn'",
            "SELECT c.name, count(*) AS n FROM components c JOIN runs r ON r.component = c.name \
             GROUP BY c.name ORDER BY n DESC",
            "SELECT r.component, m.value FROM runs r JOIN metrics m ON m.component = r.component \
             WHERE m.value > 0.7 ORDER BY m.value LIMIT 3",
            // No equi key: nested-loop fallback.
            "SELECT r.id, e.id FROM runs r JOIN events e ON e.ts_ms > r.start_ms \
             ORDER BY r.id, e.id LIMIT 5",
        ] {
            assert_four_paths_agree(&s, sql);
        }

        // Inner join of runs to incidents: only the open infer incident
        // matches, once per infer run.
        let r = assert_four_paths_agree(
            &s,
            "SELECT r.id, i.key FROM runs r JOIN incidents i ON i.subject = r.component",
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(4), Value::from("infer/accuracy")],
                vec![Value::Int(5), Value::from("infer/accuracy")],
                vec![Value::Int(6), Value::from("infer/accuracy")],
            ]
        );
    }

    #[test]
    fn left_join_pads_and_supports_anti_join() {
        let s = seeded();
        // Runs with no event at all: ids 2, 5, 6 (events reference runs
        // 1, 3, 4). The IS NULL conjunct touches the padded side, so it
        // must stay residual above the join.
        let r = assert_four_paths_agree(
            &s,
            "SELECT r.id FROM runs r LEFT JOIN events e ON e.run_id = r.id \
             WHERE e.id IS NULL ORDER BY r.id",
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(2)],
                vec![Value::Int(5)],
                vec![Value::Int(6)],
            ]
        );
    }

    #[test]
    fn scope_errors_are_semantic() {
        let s = seeded();
        // Bare `component` exists in both runs and metrics.
        assert!(matches!(
            execute(
                &s,
                "SELECT component FROM runs r JOIN metrics m ON m.component = r.component"
            ),
            Err(QueryError::Semantic(m)) if m.contains("ambiguous")
        ));
        assert!(matches!(
            execute(&s, "SELECT r.id FROM runs r JOIN runs r ON r.id = r.id"),
            Err(QueryError::Semantic(m)) if m.contains("duplicate")
        ));
        assert!(matches!(
            execute(
                &s,
                "SELECT x.id FROM runs r JOIN events e ON e.run_id = r.id"
            ),
            Err(QueryError::UnknownColumn(_))
        ));
        assert!(matches!(
            execute(
                &s,
                "SELECT r.id FROM runs r JOIN events e ON count(*) = 1"
            ),
            Err(QueryError::Semantic(m)) if m.contains("JOIN ON")
        ));
    }

    #[test]
    fn explain_reports_partial_agg_route() {
        let s = seeded();
        let r = execute(
            &s,
            "EXPLAIN SELECT component, count(*), avg(duration_ms) FROM runs GROUP BY component",
        )
        .unwrap();
        let m = explain_map(&r);
        assert_eq!(m["table"], "runs");
        assert_eq!(m["route"], "partial-agg(scan)");
        assert_eq!(m["groups_est"], "3", "live distinct-component estimate");
        assert_eq!(m["aggregates"], "2");
        assert_eq!(m["residual_conjuncts"], "0");
        // An unabsorbable WHERE knocks the query off the aggregate route.
        let r = execute(
            &s,
            "EXPLAIN SELECT component, count(*) FROM runs \
             WHERE duration_ms > 5 GROUP BY component",
        )
        .unwrap();
        assert_eq!(explain_map(&r)["route"], "scan");
    }

    #[test]
    fn explain_reports_join_plan() {
        let s = seeded();
        let r = execute(
            &s,
            "EXPLAIN SELECT r.id, e.kind FROM runs r JOIN events e ON e.run_id = r.id \
             WHERE r.component = 'infer' AND e.severity = 'warn' AND r.id = e.run_id + 0",
        )
        .unwrap();
        let m = explain_map(&r);
        assert_eq!(m["table"], "runs join events");
        assert_eq!(m["route"], "hash-join");
        assert_eq!(m["pushed_filter_r"], "component=infer");
        assert_eq!(m["pushed_filter_e"], "severity=warn");
        assert_eq!(m["join_1"], "inner e equi_keys=1 right_rows_est=6");
        // The cross-source conjunct is the one residual.
        assert_eq!(m["residual_conjuncts"], "1");

        let r = execute(
            &s,
            "EXPLAIN SELECT r.id FROM runs r JOIN events e ON e.ts_ms > r.start_ms",
        )
        .unwrap();
        assert_eq!(explain_map(&r)["route"], "nested-loop");
    }
}
