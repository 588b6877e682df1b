//! The traced run's per-layer measurements: a single-threaded staged
//! replay that calls each layer's public function in the order the served
//! path does, each call inside a span, and fixed probes for the layers a
//! request does not pass through.

use crate::gen::{self, Mix, Op, OpStream, QueryClass, QueryOp};
use crate::harness::{ctx, embedded_engine, wrapped_run, Result, PRELOAD_RUNS};
use crate::report::Metrics;
use crate::spans::Recorder;
use crate::stats::Distribution;
use mltrace_core::{build_graph, diagnose_open_incidents, Commands};
use mltrace_metrics::{MonitorConfig, MonitorPlane};
use mltrace_protocol::{decode_frame, encode_frame, Frame, Request, Response};
use mltrace_provenance::{trace_output, TraceOptions};
use mltrace_query::{
    execute_query, execute_query_unoptimized, explain_query, parse, prepare, PreparedQuery,
};
use mltrace_store::schema::{column_index, Table};
use mltrace_store::{
    AggInput, EventSeverity, IncidentRecord, IncidentState, IndexRoute, MemoryStore, RunFilter,
    Store, Value, WalStore,
};
use mltrace_telemetry::Telemetry;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spans the staged replay takes beside the served path, to price a layer
/// on its own; they are left out when a request's stages are summed.
const BESIDE_THE_PATH: [&str; 4] = [
    "store.apply_runs",
    "store.apply_metrics",
    "metrics.plane_observe",
    "query.explain",
];

/// Encode `message` as the bytes that would cross the wire.
fn to_wire(id: u64, body: Vec<u8>) -> Vec<u8> {
    let frame = Frame::new(id, body);
    let mut wire = Vec::with_capacity(frame.wire_len());
    encode_frame(&frame, &mut wire);
    wire
}

fn from_wire(wire: &[u8]) -> Result<Frame> {
    match decode_frame(wire) {
        Ok(Some((frame, _))) => Ok(frame),
        Ok(None) => Err("staged frame is incomplete".into()),
        Err(e) => Err(format!("staged frame: {e:?}")),
    }
}

/// The stores and statements the staged replay drives.
pub struct Stage<'a> {
    /// The workload's own store, after its server has stopped.
    store: &'a WalStore,
    /// A bare memory store and a bare monitoring plane, to price the apply
    /// and observe steps without the log around them.
    mem: MemoryStore,
    plane: MonitorPlane,
    statements: [PreparedQuery; 3],
    pub request_bytes: Vec<f64>,
    pub response_bytes: Vec<f64>,
}

impl<'a> Stage<'a> {
    pub fn new(store: &'a WalStore) -> Result<Stage<'a>> {
        let mut prepared = Vec::new();
        for class in QueryClass::ALL {
            prepared.push(ctx("prepare", prepare(class.sql()))?);
        }
        Ok(Stage {
            store,
            mem: MemoryStore::new(),
            plane: MonitorPlane::new(MonitorConfig::default()),
            statements: prepared
                .try_into()
                .map_err(|_| "three query classes".to_string())?,
            request_bytes: Vec::new(),
            response_bytes: Vec::new(),
        })
    }

    /// Request out and in again: what the client encodes and the
    /// connection thread decodes.
    fn request_hop(
        &mut self,
        rec: &mut Recorder,
        root: usize,
        id: u64,
        request: &Request,
    ) -> Result<Request> {
        let wire = rec.child("protocol.request_encode", root, || {
            to_wire(id, request.to_body())
        });
        self.request_bytes.push(wire.len() as f64);
        rec.child("protocol.request_decode", root, || {
            let frame = from_wire(&wire)?;
            ctx("decode request", Request::from_body(&frame.body))
        })
    }

    /// Response out and in again.
    fn response_hop(
        &mut self,
        rec: &mut Recorder,
        root: usize,
        id: u64,
        response: &Response,
    ) -> Result<()> {
        let wire = rec.child("protocol.response_encode", root, || {
            to_wire(id, response.to_body())
        });
        self.response_bytes.push(wire.len() as f64);
        let decoded = rec.child("protocol.response_decode", root, || {
            let frame = from_wire(&wire)?;
            ctx("decode response", Response::from_body(&frame.body))
        })?;
        if decoded == *response {
            Ok(())
        } else {
            Err("a response changed on its way through the wire codec".into())
        }
    }

    /// One ingest pair: `LogRuns` then `LogMetrics`, each its own request.
    fn write(&mut self, rec: &mut Recorder, request_id: u64, seq: u64) -> Result<()> {
        // A lane id no window lane uses, so these runs are told apart.
        let (runs, metrics) = gen::ingest_pair(9, seq, PRELOAD_RUNS);

        let root = rec.begin("staged.log_runs", None, request_id);
        let Request::LogRuns { runs } =
            self.request_hop(rec, root, request_id, &Request::LogRuns { runs })?
        else {
            return Err("LogRuns decoded as another request".into());
        };
        let copy = runs.clone();
        ctx(
            "apply runs",
            rec.child("store.apply_runs", root, || self.mem.log_runs(copy)),
        )?;
        let ids = ctx(
            "log runs",
            rec.child("wal.log_runs", root, || self.store.log_runs(runs)),
        )?;
        ctx("sync", rec.child("wal.sync", root, || self.store.sync()))?;
        let ids = ids.iter().map(|id| id.0).collect();
        self.response_hop(rec, root, request_id, &Response::RunIds { ids })?;
        rec.end(root);

        let request_id = request_id + 1;
        let root = rec.begin("staged.log_metrics", None, request_id);
        let Request::LogMetrics { metrics } =
            self.request_hop(rec, root, request_id, &Request::LogMetrics { metrics })?
        else {
            return Err("LogMetrics decoded as another request".into());
        };
        let count = metrics.len() as u64;
        rec.child("metrics.plane_observe", root, || {
            self.plane.observe_batch(
                metrics
                    .iter()
                    .map(|m| (m.component.as_str(), m.name.as_str(), m.value, m.ts_ms)),
            )
        });
        let copy = metrics.clone();
        ctx(
            "apply metrics",
            rec.child("store.apply_metrics", root, || self.mem.log_metrics(copy)),
        )?;
        ctx(
            "log metrics",
            rec.child("wal.log_metrics", root, || self.store.log_metrics(metrics)),
        )?;
        ctx("sync", rec.child("wal.sync", root, || self.store.sync()))?;
        self.response_hop(rec, root, request_id, &Response::Logged { count })?;
        rec.end(root);
        Ok(())
    }

    /// One query: literal SQL is parsed, a prepared statement is bound;
    /// then plan (priced through `EXPLAIN`), execute, reply.
    fn query(&mut self, rec: &mut Recorder, request_id: u64, q: &QueryOp) -> Result<()> {
        let (root_name, execute_name) = match q.class {
            QueryClass::Point => ("staged.query.point", "query.execute_point"),
            QueryClass::Agg => ("staged.query.agg", "query.execute_agg"),
            QueryClass::Join => ("staged.query.join", "query.execute_join"),
        };
        let root = rec.begin(root_name, None, request_id);
        let request = if q.literal {
            Request::Query {
                sql: q.literal_sql(),
            }
        } else {
            Request::Exec {
                stmt: q.class as u64 + 1,
                params: q.params.clone(),
            }
        };
        let query = match self.request_hop(rec, root, request_id, &request)? {
            Request::Query { sql } => ctx("parse", rec.child("query.parse", root, || parse(&sql)))?,
            Request::Exec { stmt, params } => {
                let statement = &self.statements[stmt as usize - 1];
                ctx(
                    "bind",
                    rec.child("query.bind", root, || statement.bind(&params)),
                )?
            }
            _ => return Err("a query decoded as another request".into()),
        };
        let store: &dyn Store = self.store;
        ctx(
            "explain",
            rec.child("query.explain", root, || explain_query(store, &query)),
        )?;
        let result = ctx(
            "execute",
            rec.child(execute_name, root, || execute_query(store, &query)),
        )?;
        let response = Response::Rows {
            columns: result.columns,
            rows: result.rows,
        };
        self.response_hop(rec, root, request_id, &response)?;
        rec.end(root);
        Ok(())
    }

    /// Replay up to `limit` operations of `ops`, stopping early once
    /// `budget` has passed.
    pub fn replay(
        &mut self,
        rec: &mut Recorder,
        ops: &mut OpStream,
        limit: usize,
        budget: Duration,
    ) -> Result<usize> {
        let started = Instant::now();
        let mut done = 0;
        while done < limit && started.elapsed() < budget {
            // Two ids per operation: a write is two requests.
            let request_id = (1 << 60) + 2 * done as u64;
            match ops.next().expect("operation streams are endless") {
                Op::Write { seq } => self.write(rec, request_id, seq)?,
                Op::Query(q) => self.query(rec, request_id, &q)?,
            }
            done += 1;
        }
        Ok(done)
    }
}

/// Median µs of spans called `name`, when any were recorded.
fn span_p50(rec: &Recorder, name: &str) -> Option<(f64, usize)> {
    Distribution::new(rec.durations_us(name)).map(|d| (d.median(), d.count()))
}

/// For each root span called one of `roots`, the summed duration of its
/// children on the served path, in µs.
pub fn path_time_us(rec: &Recorder, roots: &[&str]) -> Vec<f64> {
    let mut sums: std::collections::BTreeMap<usize, f64> = rec
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none() && roots.contains(&s.name))
        .map(|(i, _)| (i, 0.0))
        .collect();
    for span in &rec.spans {
        if let Some(sum) = span.parent.and_then(|p| sums.get_mut(&p)) {
            if !BESIDE_THE_PATH.contains(&span.name) {
                *sum += span.duration_us();
            }
        }
    }
    sums.into_values().collect()
}

/// Per-layer metrics that are the median of one span name.
const SPAN_METRICS: [(&str, &str); 15] = [
    ("protocol.request_encode_us", "protocol.request_encode"),
    ("protocol.request_decode_us", "protocol.request_decode"),
    ("protocol.response_encode_us", "protocol.response_encode"),
    ("protocol.response_decode_us", "protocol.response_decode"),
    ("store.apply_runs_us", "store.apply_runs"),
    ("store.apply_metrics_us", "store.apply_metrics"),
    ("metrics.plane_observe_us", "metrics.plane_observe"),
    ("wal.log_runs_us", "wal.log_runs"),
    ("wal.sync_us", "wal.sync"),
    ("query.parse_us", "query.parse"),
    ("query.bind_us", "query.bind"),
    ("query.explain_us", "query.explain"),
    ("query.execute_point_us", "query.execute_point"),
    ("query.execute_agg_us", "query.execute_agg"),
    ("query.execute_join_us", "query.execute_join"),
];

/// Fill in every metric the staged spans give. A span name with no
/// samples means the replayed stream never reached that layer, which the
/// stream's mix is chosen to rule out.
pub fn staged_metrics(metrics: &mut Metrics, rec: &Recorder, stage: &Stage<'_>) -> Result<()> {
    for (metric, span) in SPAN_METRICS {
        let (p50, n) =
            span_p50(rec, span).ok_or_else(|| format!("staged replay recorded no {span}"))?;
        metrics.set_sampled(metric, p50, n);
    }
    let log_runs = metrics.get("wal.log_runs_us").expect("set above");
    let apply = metrics.get("store.apply_runs_us").expect("set above");
    metrics.set("wal.encode_us", log_runs - apply);
    let mean = |bytes: &[f64]| {
        Distribution::new(bytes.iter().copied())
            .map(|d| d.mean())
            .ok_or("staged replay sent no request")
    };
    metrics.set("protocol.request_bytes", mean(&stage.request_bytes)?);
    metrics.set("protocol.response_bytes", mean(&stage.response_bytes)?);
    Ok(())
}

/// Time `f` `n` times; median µs.
fn p50_us<T>(n: usize, mut f: impl FnMut(usize) -> Result<T>) -> Result<f64> {
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let started = Instant::now();
        black_box(f(i)?);
        samples.push(started.elapsed().as_nanos() as f64 / 1_000.0);
    }
    Ok(Distribution::new(samples).expect("n is positive").median())
}

/// Store scans with the query classes' filters, and the naive executor
/// on the aggregate class.
pub fn probe_scans(metrics: &mut Metrics, store: &WalStore, seed: u64) -> Result<()> {
    let queries_only = Mix {
        writes: 0,
        cycle: 1,
    };
    let mut ops = OpStream::new(seed, 200, queries_only, PRELOAD_RUNS);
    let mut of_class = |class: QueryClass| loop {
        if let Some(Op::Query(q)) = ops.next() {
            if q.class == class {
                return q;
            }
        }
    };
    let int = |v: &Value| match v {
        Value::Int(i) => *i as u64,
        other => unreachable!("time bounds are ints, not {other:?}"),
    };
    let point_filter = |q: &QueryOp| {
        let Value::Str(component) = &q.params[0] else {
            unreachable!("point queries name a component");
        };
        RunFilter::all()
            .with_component(component.clone())
            .started_at_or_after(int(&q.params[1]))
            .started_at_or_before(int(&q.params[2]))
    };
    let range_filter = |q: &QueryOp| {
        RunFilter::all()
            .started_at_or_after(int(&q.params[0]))
            .started_at_or_before(int(&q.params[1]))
    };

    let points: Vec<QueryOp> = (0..64).map(|_| of_class(QueryClass::Point)).collect();
    let aggs: Vec<QueryOp> = (0..8).map(|_| of_class(QueryClass::Agg)).collect();
    metrics.set(
        "store.scan_indexed_us",
        p50_us(256, |i| {
            let filter = point_filter(&points[i % points.len()]);
            ctx(
                "indexed scan",
                store.scan_runs_indexed(None, &filter, None, IndexRoute::Component),
            )
        })?,
    );
    metrics.set(
        "store.scan_full_us",
        p50_us(16, |i| {
            let filter = point_filter(&points[i % points.len()]);
            ctx("full scan", store.scan_runs(None, &filter, None))
        })?,
    );
    let group_by = [ctx(
        "component column",
        column_index(Table::ComponentRuns, "component"),
    )?];
    let aggregates = [
        AggInput::CountStar,
        AggInput::Column(ctx(
            "duration column",
            column_index(Table::ComponentRuns, "duration_ms"),
        )?),
    ];
    metrics.set(
        "store.scan_grouped_us",
        p50_us(32, |i| {
            let filter = range_filter(&aggs[i % aggs.len()]);
            ctx(
                "grouped scan",
                store.scan_runs_grouped(
                    &filter,
                    Some(IndexRoute::StartTime),
                    &group_by,
                    &aggregates,
                ),
            )
        })?,
    );
    metrics.set(
        "query.naive_agg_us",
        p50_us(8, |i| {
            let query = ctx("parse", parse(&aggs[i % aggs.len()].literal_sql()))?;
            ctx("naive aggregate", execute_query_unoptimized(store, &query))
        })?,
    );
    Ok(())
}

/// The engine layers no served request passes through: wrapped-run
/// overhead, lineage tracing, graph build, diagnosis, and the cost of the
/// engine's own telemetry primitives.
pub fn probe_engine(metrics: &mut Metrics) -> Result<()> {
    let store = Arc::new(MemoryStore::new());
    let (engine, clock) = embedded_engine(store.clone())?;
    for seq in 0..2_000 {
        wrapped_run(&engine, &clock, seq)?;
    }
    metrics.set(
        "core.run_wrapped_us",
        p50_us(4_000, |i| wrapped_run(&engine, &clock, 2_000 + i as u64))?,
    );
    // The same body with no engine around it: what a run costs unlogged.
    let started = Instant::now();
    for seq in 0..100_000u64 {
        black_box(50.0 + (black_box(seq) % 100) as f64);
    }
    metrics.set(
        "core.run_bare_us",
        started.elapsed().as_nanos() as f64 / 1_000.0 / 100_000.0,
    );

    let mut commands = Commands::new(&engine);
    metrics.set(
        "core.trace_us",
        p50_us(200, |i| {
            ctx(
                "trace",
                commands.trace(&format!("pred-{}", 9 + 10 * (i % 400))),
            )
        })?,
    );
    let store_ref: &dyn Store = store.as_ref();
    metrics.set(
        "core.graph_build_ms",
        p50_us(5, |_| ctx("build graph", build_graph(store_ref)))? / 1_000.0,
    );
    let graph = ctx("build graph", build_graph(store_ref))?;
    metrics.set(
        "provenance.trace_us",
        p50_us(200, |i| {
            trace_output(
                &graph,
                &format!("pred-{}", 9 + 10 * (i % 400)),
                TraceOptions::default(),
            )
            .ok_or_else(|| "prediction has no lineage".to_string())
        })?,
    );

    // Inject the drift: an open incident on the inference component's
    // metric, as the monitoring plane would raise it.
    let key = "drift:inference/latency_ms".to_string();
    ctx(
        "inject incident",
        store.upsert_incident(IncidentRecord {
            key: key.clone(),
            state: IncidentState::Open,
            severity: EventSeverity::Page,
            subject: key,
            opened_ms: u64::MAX / 2,
            last_fire_ms: u64::MAX / 2,
            resolved_ms: None,
            fire_count: 1,
            suppressed_count: 0,
            burn_ms: 0,
            detail: "injected drift".into(),
        }),
    )?;
    let started = Instant::now();
    let diagnoses = ctx("diagnose", diagnose_open_incidents(store_ref))?;
    metrics.set(
        "core.diagnose_ms",
        started.elapsed().as_nanos() as f64 / 1_000_000.0,
    );
    if diagnoses.len() != 1 {
        return Err(format!(
            "one injected incident, {} diagnoses",
            diagnoses.len()
        ));
    }

    let telemetry = Telemetry::new();
    let started = Instant::now();
    for _ in 0..200_000 {
        drop(black_box(telemetry.span("bench.span")));
    }
    metrics.set(
        "telemetry.span_ns",
        started.elapsed().as_nanos() as f64 / 200_000.0,
    );
    let counter = telemetry.counter("bench.counter");
    let started = Instant::now();
    for _ in 0..2_000_000 {
        black_box(&counter).incr();
    }
    metrics.set(
        "telemetry.counter_ns",
        started.elapsed().as_nanos() as f64 / 2_000_000.0,
    );
    Ok(())
}
