//! # mltrace-provenance
//!
//! The lineage substrate of the mltrace reproduction: an interned
//! run/pointer DAG ([`graph`]), DFS output traces with time-travel
//! producer resolution ([`trace`]), slice-based lineage aggregation and
//! culprit ranking ([`mod@slice`]), DAG algorithms ([`algo`]), and
//! attention-directing summaries ([`summarize`]).

#![warn(missing_docs)]

pub mod algo;
pub mod graph;
pub mod slice;
pub mod summarize;
pub mod trace;

pub use algo::topo_order;
pub use graph::{IoIdx, IoNode, LineageGraph, RunIdx, RunNode};
pub use slice::{slice_lineage, RankedRun, SliceReport};
pub use summarize::{component_summary, most_problematic, ComponentSummary};
pub use trace::{trace_output, trace_run, TraceNode, TraceOptions};
