//! # mltrace-query
//!
//! A SQL subset over the observability store's virtual tables
//! (`components`, `component_runs`, `io_pointers`, `metrics`,
//! `summaries`) — the paper's §4.2 escape hatch: "for more specific
//! queries, users can query the logs and metadata via SQL."
//!
//! Supported: projections with aliases and arithmetic, `SELECT DISTINCT`,
//! `WHERE` with `AND`/`OR`/`NOT`, comparisons, `LIKE`, `IN`,
//! `IS [NOT] NULL`, `[NOT] BETWEEN`, scalar functions (`ABS`, `LENGTH`,
//! `COALESCE`, `LOWER`, `UPPER`, `ROUND`), `GROUP BY` with
//! `COUNT`/`SUM`/`AVG`/`MIN`/`MAX` and `HAVING`, `ORDER BY ... [DESC]`,
//! and `LIMIT`.
//!
//! Execution pushes simple `WHERE` conjuncts (component/status equality,
//! id/time comparisons) and — when nothing downstream can drop or reorder
//! rows — `LIMIT` down into the store's batched snapshot scan (see
//! [`plan`]), and uses a bounded top-K sort when `ORDER BY` and `LIMIT`
//! are combined. When the store keeps secondary indexes, the planner
//! routes selective `component_runs` predicates through an index lookup
//! instead of the sharded scan ([`plan::choose_run_route`]); `EXPLAIN
//! <select>` prints the decision without running the query.
//! [`exec::execute_query_unoptimized`] keeps the naive full-scan path as
//! the reference for equivalence testing.

#![warn(missing_docs)]

pub mod ast;
pub mod exec;
pub mod parser;
pub mod plan;
pub mod prepare;
pub mod token;

pub use ast::{AggFunc, BinOp, Expr, Query, ScalarFunc, SelectItem};
pub use exec::{
    execute, execute_query, execute_query_unoptimized, execute_query_with_route, explain_query,
    QueryError, QueryResult, RoutePreference,
};
pub use parser::{parse, parse_with_params, ParseError};
pub use plan::{choose_run_route, choose_run_route_forced, ScanRoute};
pub use prepare::{execute_prepared, prepare, PreparedQuery};
pub use token::{tokenize, LexError, Symbol, Token};
