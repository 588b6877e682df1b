//! Set-up and the measured window: building the preloaded store, starting
//! the server or the embedded engine, and driving each lane's closed loop.

use crate::gen::{self, Mix, Op, OpStream, QueryClass, QueryOp};
use crate::spans::Recorder;
use mltrace_client::{Client, StatementHandle};
use mltrace_core::{ComponentDef, FnTrigger, Mltrace, RunSpec, TriggerOutcome};
use mltrace_query::{execute, execute_prepared, prepare, PreparedQuery};
use mltrace_server::{ServeConfig, Server};
use mltrace_store::{
    CheckpointPolicy, CheckpointReport, ComponentRecord, DurabilityPolicy, ManualClock, Store,
    Value, WalOptions, WalStore,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub type Result<T> = std::result::Result<T, String>;

/// Turn any displayable error into this crate's error string, with what
/// was being attempted.
pub fn ctx<T, E: std::fmt::Display>(what: &str, r: std::result::Result<T, E>) -> Result<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// A lane that only writes, and one that only queries.
pub const WRITER: Mix = Mix {
    writes: 1,
    cycle: 1,
};
pub const READER: Mix = Mix {
    writes: 0,
    cycle: 1,
};

/// How long a phase lasts.
pub enum Extent {
    /// This many hundredths of `--seconds`, after a warm-up.
    Percent(u64),
    /// This many operations per lane for each of `--seconds`, after a tenth
    /// as many to warm up: for operations whose cost grows with how many
    /// went before, where a fixed time would have a faster machine do more
    /// of them and so time dearer ones.
    OpsPerSecond(u64),
}

/// One stretch of a run: what each lane that runs in it does, and how
/// long. Lanes beyond `lanes.len()` stay idle.
pub struct Phase {
    pub lanes: &'static [Mix],
    pub extent: Extent,
}

impl Phase {
    pub fn writes(&self) -> bool {
        self.lanes.iter().any(|m| m.writes > 0)
    }

    pub fn reads(&self) -> bool {
        self.lanes.iter().any(|m| m.writes < m.cycle)
    }
}

/// When a lane stops.
#[derive(Clone, Copy)]
pub enum Until {
    Elapsed(Duration),
    Ops(u64),
}

/// One benchmark workload: a transport and its phases. The write metrics
/// come from the one phase that writes and the query metrics from the one
/// that reads.
pub struct Workload {
    pub name: &'static str,
    /// Requests travel over TCP to an in-process server; otherwise the
    /// lane calls the engine directly.
    pub served: bool,
    pub phases: &'static [Phase],
}

/// The driver reads every end-to-end metric from every workload, so a
/// workload that is all writes still has to report a query latency, and the
/// other way round. It does so from a short phase of its own on one lane,
/// apart from the main phase and not mixed into it: the main phase stays
/// what the workload is about, and the other kind of operation is timed
/// with nothing running beside it, which is what makes it repeat. Reads
/// come first, on the store as preloaded, so that what they cost does not
/// depend on how many writes the machine got through.
///
/// Never more than two lanes, and only where one of them mostly waits: the
/// process keeps to one CPU (`pin_to_one_cpu` in `main.rs`), where two busy
/// lanes would time the scheduler's slices, not the engine.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest_served",
        served: true,
        phases: &[
            Phase {
                lanes: &[READER],
                extent: Extent::Percent(20),
            },
            // Two connections, so that the coalescer has two to merge; an
            // ack is mostly the wait for its window and the fsync.
            Phase {
                lanes: &[WRITER, WRITER],
                extent: Extent::Percent(80),
            },
        ],
    },
    Workload {
        name: "query_served",
        served: true,
        phases: &[
            Phase {
                lanes: &[READER],
                extent: Extent::Percent(80),
            },
            Phase {
                lanes: &[WRITER],
                extent: Extent::Percent(20),
            },
        ],
    },
    Workload {
        name: "mixed_served",
        served: true,
        phases: &[Phase {
            lanes: &[WRITER, READER],
            extent: Extent::Percent(100),
        }],
    },
    Workload {
        name: "embedded_lifecycle",
        served: false,
        // A wrapped run copies the list of runs that produced its input
        // (`Store::producers_of`), a tenth of the runs so far in this
        // topology, so its cost climbs with their number, and jumps where
        // the copy passes the allocator's 128 KiB mmap threshold, near
        // 160 000 runs. Hence a count and not a time: at fifteen
        // `--seconds`, 82 500 runs with the warm-up, in under two seconds.
        phases: &[
            Phase {
                lanes: &[READER],
                extent: Extent::Percent(90),
            },
            Phase {
                lanes: &[WRITER],
                extent: Extent::OpsPerSecond(5_000),
            },
        ],
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Lanes the busiest phase runs.
    pub fn lanes(&self) -> usize {
        self.phases.iter().map(|p| p.lanes.len()).max().unwrap_or(0)
    }

    /// Served stores flush when the coalescer syncs (ack after fsync) and
    /// keep the default checkpoint policy; the embedded store group-commits
    /// every 64 events and checkpoints only when told to.
    pub fn wal_options(&self) -> WalOptions {
        if self.served {
            WalOptions {
                durability: DurabilityPolicy::OnSync,
                checkpoint: CheckpointPolicy::default(),
                replay_workers: None,
            }
        } else {
            WalOptions {
                durability: DurabilityPolicy::Batch(64),
                checkpoint: CheckpointPolicy::disabled(),
                replay_workers: None,
            }
        }
    }
}

/// Runs preloaded before the window.
pub const PRELOAD_RUNS: usize = 100_000;
/// Runs appended after the checkpoint, so a cold open reads a snapshot
/// and a log tail.
pub const TAIL_RUNS: usize = PRELOAD_RUNS / 100;

/// A directory under the benchmark's `out/` that is removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    pub fn new(out_dir: &Path) -> Result<Scratch> {
        let root = out_dir.join(format!("tmp-{}", std::process::id()));
        ctx("create scratch dir", std::fs::create_dir_all(&root))?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A new empty directory.
    pub fn fresh(&self) -> Result<PathBuf> {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("store-{n}"));
        ctx("create store dir", std::fs::create_dir_all(&dir))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join("bench.wal")
}

/// Log dataset runs `from..to` with their metric points and events.
pub fn load_dataset(store: &dyn Store, seed: u64, from: usize, to: usize) -> Result<()> {
    for batch in gen::preload(seed, PRELOAD_RUNS + TAIL_RUNS, from, to) {
        let ids = ctx("preload runs", store.log_runs(batch.runs))?;
        ctx("preload metrics", store.log_metrics(batch.metrics))?;
        let events = batch
            .events
            .into_iter()
            .map(|(run, event)| event.run(ids[run]))
            .collect();
        ctx("preload events", store.log_events(events))?;
    }
    Ok(())
}

/// Timings and sizes from building one store.
pub struct BuildReport {
    pub checkpoint: CheckpointReport,
    pub checkpoint_s: f64,
    /// Reopen of the whole preload from the log alone, before any
    /// snapshot exists. Only taken when asked for: it doubles build time.
    pub full_replay_s: Option<f64>,
}

/// Create the preloaded store in `dir` and close it: dataset, checkpoint,
/// a 1 % tail, sync. What is left on disk is what an operator restarts
/// from.
pub fn build_store(
    dir: &Path,
    seed: u64,
    options: WalOptions,
    with_full_replay: bool,
) -> Result<BuildReport> {
    let path = wal_path(dir);
    let mut store = ctx("open wal", WalStore::open_with_options(&path, options))?;
    for i in 0..gen::COMPONENTS {
        ctx(
            "register component",
            store.register_component(ComponentRecord::named(gen::component_name(i))),
        )?;
    }
    load_dataset(&store, seed, 0, PRELOAD_RUNS)?;
    ctx("sync", store.sync())?;
    let mut full_replay_s = None;
    if with_full_replay {
        drop(store);
        let started = Instant::now();
        store = ctx("full replay", WalStore::open_with_options(&path, options))?;
        full_replay_s = Some(started.elapsed().as_secs_f64());
    }
    let started = Instant::now();
    let checkpoint = ctx("checkpoint", store.checkpoint())?;
    let checkpoint_s = started.elapsed().as_secs_f64();
    load_dataset(&store, seed, PRELOAD_RUNS, PRELOAD_RUNS + TAIL_RUNS)?;
    ctx("sync", store.sync())?;
    Ok(BuildReport {
        checkpoint,
        checkpoint_s,
        full_replay_s,
    })
}

/// Cold open: snapshot plus log tail. Returns the store and the seconds
/// the open took.
pub fn cold_open(dir: &Path, options: WalOptions) -> Result<(WalStore, f64)> {
    let started = Instant::now();
    let store = ctx(
        "cold open",
        WalStore::open_with_options(wal_path(dir), options),
    )?;
    Ok((store, started.elapsed().as_secs_f64()))
}

/// An in-process `mltrace serve` on an ephemeral port.
pub struct Served {
    pub addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Served {
    pub fn start(store: Arc<WalStore>) -> Result<Served> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        };
        let server = ctx("bind", Server::bind(store, cfg))?;
        let addr = ctx("local addr", server.local_addr())?;
        let shutdown = server.shutdown_flag();
        let thread = ctx(
            "spawn server",
            std::thread::Builder::new()
                .name("bench-server".into())
                .spawn(move || server.run()),
        )?;
        Ok(Served {
            addr,
            shutdown,
            thread,
        })
    }

    /// Drain, final sync, join every server thread. Call after the
    /// clients are dropped.
    pub fn stop(self) -> Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.thread.join() {
            Ok(result) => ctx("server exit", result),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// The §3.4 topology: nine chained stages and the inference component.
pub const TOPOLOGY: usize = 10;

fn topology_component(i: u64) -> String {
    if i == 9 {
        "inference".into()
    } else {
        format!("stage-{i}")
    }
}

/// An engine over `store` with the ten components registered, each with
/// one cheap before-run trigger. Its clock starts where the preloaded span
/// ends and [`wrapped_run`] moves it on a second per run, as served writes
/// are stamped: with the wall clock the new runs would lie three years
/// after the dataset, and the planner, which takes start times to be spread
/// evenly, would then misjudge every time-range filter.
pub fn embedded_engine(store: Arc<dyn Store>) -> Result<(Mltrace, Arc<ManualClock>)> {
    let clock = ManualClock::starting_at(gen::T0_MS + (PRELOAD_RUNS as u64 + 1_000) * 1_000);
    let ml = Mltrace::with_store(store, clock.clone());
    for i in 0..TOPOLOGY as u64 {
        let def = ComponentDef::builder(topology_component(i))
            .before_run(FnTrigger::new("has_rows", |ctx| {
                match ctx.capture("rows") {
                    Some(Value::Int(n)) if *n > 0 => TriggerOutcome::pass("rows present"),
                    _ => TriggerOutcome::fail("no rows"),
                }
            }))
            .build();
        ctx("register component", ml.register(def))?;
    }
    Ok((ml, clock))
}

/// The `seq`-th wrapped run: a no-op body with one input, one output, two
/// captures and one metric.
pub fn wrapped_run(ml: &Mltrace, clock: &ManualClock, seq: u64) -> Result<()> {
    clock.advance(1_000);
    let stage = seq % TOPOLOGY as u64;
    let component = topology_component(stage);
    let input = if stage == 0 {
        "raw.csv".to_string()
    } else {
        format!("stage-{}.out", stage - 1)
    };
    let output = if stage == 9 {
        format!("pred-{}", seq % 4096)
    } else {
        format!("stage-{stage}.out")
    };
    let spec = RunSpec::new()
        .input(input)
        .output(output)
        .capture("rows", 1_000i64)
        .capture("threshold", 0.5f64);
    let report = ml.run(&component, spec, |run| {
        run.log_metric("latency_ms", 50.0 + (seq % 100) as f64);
        Ok(())
    });
    ctx("wrapped run", report).map(|_| ())
}

/// What a lane talks to.
// One value per lane, at most two alive: the size gap costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Transport {
    Served {
        client: Client,
        statements: [StatementHandle; 3],
    },
    Embedded {
        store: Arc<WalStore>,
        engine: Mltrace,
        clock: Arc<ManualClock>,
        statements: [PreparedQuery; 3],
    },
}

impl Transport {
    pub fn connect(addr: std::net::SocketAddr, lane: u64) -> Result<Transport> {
        let mut client = ctx("connect", Client::connect(addr))?;
        ctx(
            "set timeout",
            client.set_timeout(Some(Duration::from_secs(30))),
        )?;
        ctx(
            "register loadgen component",
            client.register_components(vec![ComponentRecord::named(gen::loadgen_component(lane))]),
        )?;
        let mut handles = Vec::new();
        for class in QueryClass::ALL {
            handles.push(ctx("prepare", client.prepare(class.sql()))?);
        }
        Ok(Transport::Served {
            client,
            statements: [handles[0], handles[1], handles[2]],
        })
    }

    pub fn embedded(store: Arc<WalStore>) -> Result<Transport> {
        let (engine, clock) = embedded_engine(store.clone())?;
        let mut prepared = Vec::new();
        for class in QueryClass::ALL {
            prepared.push(ctx("prepare", prepare(class.sql()))?);
        }
        let statements: [PreparedQuery; 3] = prepared
            .try_into()
            .map_err(|_| "three query classes".to_string())?;
        Ok(Transport::Embedded {
            store,
            engine,
            clock,
            statements,
        })
    }
}

/// What a completed operation was, for the metric it feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One acknowledged ingest request (`LogRuns` or `LogMetrics`), or
    /// one wrapped run, and how many runs it made durable.
    Ack {
        runs: u16,
    },
    Query(QueryClass),
}

impl Kind {
    pub fn is_ack(self) -> bool {
        matches!(self, Kind::Ack { .. })
    }

    pub fn is_query(self) -> bool {
        matches!(self, Kind::Query(_))
    }

    /// Runs this operation made durable.
    pub fn runs(self) -> u64 {
        match self {
            Kind::Ack { runs } => runs as u64,
            Kind::Query(_) => 0,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the operation started, since the lanes were released.
    pub start_ns: u64,
    pub latency_ns: u64,
    pub kind: Kind,
}

/// First rows seen for each distinct statement.
pub type FirstResults = BTreeMap<String, (QueryOp, Vec<Vec<Value>>)>;

/// Everything one lane did.
#[derive(Default)]
pub struct LaneOutcome {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the report.
    pub errors: Vec<String>,
    /// Runs and metric points the transport acknowledged.
    pub acked_runs: u64,
    pub acked_metric_points: u64,
    /// Write sequence numbers whose runs / metric points were
    /// acknowledged, for replaying into the oracle store.
    pub acked_run_requests: Vec<u64>,
    pub acked_metric_requests: Vec<u64>,
    pub first_results: FirstResults,
}

impl LaneOutcome {
    fn sample(&mut self, start: Duration, latency_ns: u64, kind: Kind) {
        self.samples.push(Sample {
            start_ns: start.as_nanos() as u64,
            latency_ns,
            kind,
        });
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }
}

/// One lane: a transport, its operation stream and what it has done.
pub struct Lane {
    pub id: u64,
    pub transport: Transport,
    pub ops: OpStream,
    pub outcome: LaneOutcome,
    /// Present in a traced window: a request span per operation with one
    /// child per call into the client or engine.
    pub recorder: Option<Recorder>,
    /// Identifier of the last request sent; the lane's number in the top
    /// bits keeps lanes apart.
    request: u64,
}

impl Lane {
    /// A lane that reads until a phase sets its mix.
    pub fn new(id: u64, transport: Transport, seed: u64) -> Lane {
        Lane {
            id,
            transport,
            ops: OpStream::new(seed, id, READER, PRELOAD_RUNS),
            outcome: LaneOutcome::default(),
            recorder: None,
            request: id << 40,
        }
    }

    /// Time `f`; with a recorder, also as a child span of `parent`.
    fn timed<T>(
        recorder: &mut Option<Recorder>,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let started = Instant::now();
        let out = match (recorder, parent) {
            (Some(rec), Some(parent)) => rec.child(name, parent, f),
            _ => f(),
        };
        (out, started.elapsed().as_nanos() as u64)
    }

    /// Run operations back to back (closed loop) until `until`; times are
    /// taken since `origin`.
    pub fn run(&mut self, origin: Instant, until: Until) {
        let mut done = 0;
        while match until {
            Until::Elapsed(length) => origin.elapsed() < length,
            Until::Ops(ops) => done < ops,
        } {
            done += 1;
            let op = self.ops.next().expect("operation streams are endless");
            self.request += 1;
            let request = self.request;
            let span = self.recorder.as_mut().map(|rec| {
                let name = match &op {
                    Op::Write { .. } => "request.write",
                    Op::Query(q) => match q.class {
                        QueryClass::Point => "request.query.point",
                        QueryClass::Agg => "request.query.agg",
                        QueryClass::Join => "request.query.join",
                    },
                };
                rec.begin(name, None, request)
            });
            match op {
                Op::Write { seq } => self.write(origin, seq, span),
                Op::Query(q) => self.query(origin, q, span),
            }
            if let (Some(rec), Some(span)) = (self.recorder.as_mut(), span) {
                rec.end(span);
            }
        }
    }

    fn write(&mut self, origin: Instant, seq: u64, span: Option<usize>) {
        let Lane {
            id,
            transport,
            outcome,
            recorder,
            ..
        } = self;
        match transport {
            Transport::Served { client, .. } => {
                let (runs, metrics) = gen::ingest_pair(*id, seq, PRELOAD_RUNS);
                let (run_count, point_count) = (runs.len() as u64, metrics.len() as u64);

                let start = origin.elapsed();
                outcome.attempted += 1;
                let (reply, ns) =
                    Lane::timed(recorder, "client.log_runs", span, || client.log_runs(runs));
                match reply {
                    Ok(ids) if ids.len() as u64 == run_count => {
                        outcome.acked_runs += run_count;
                        outcome.acked_run_requests.push(seq);
                        let runs = run_count as u16;
                        outcome.sample(start, ns, Kind::Ack { runs });
                    }
                    Ok(ids) => outcome.fail(format!("log_runs acked {} of {run_count}", ids.len())),
                    Err(e) => outcome.fail(format!("log_runs: {e}")),
                }

                let start = origin.elapsed();
                outcome.attempted += 1;
                let (reply, ns) = Lane::timed(recorder, "client.log_metrics", span, || {
                    client.log_metrics(metrics)
                });
                match reply {
                    Ok(count) if count == point_count => {
                        outcome.acked_metric_points += point_count;
                        outcome.acked_metric_requests.push(seq);
                        outcome.sample(start, ns, Kind::Ack { runs: 0 });
                    }
                    Ok(count) => {
                        outcome.fail(format!("log_metrics acked {count} of {point_count}"))
                    }
                    Err(e) => outcome.fail(format!("log_metrics: {e}")),
                }
            }
            Transport::Embedded { engine, clock, .. } => {
                let start = origin.elapsed();
                outcome.attempted += 1;
                let (reply, ns) = Lane::timed(recorder, "core.run", span, || {
                    wrapped_run(engine, clock, seq)
                });
                match reply {
                    Ok(()) => {
                        outcome.acked_runs += 1;
                        outcome.acked_metric_points += 1;
                        outcome.sample(start, ns, Kind::Ack { runs: 1 });
                    }
                    Err(e) => outcome.fail(e),
                }
            }
        }
    }

    fn query(&mut self, origin: Instant, q: QueryOp, span: Option<usize>) {
        let Lane {
            transport,
            outcome,
            recorder,
            ..
        } = self;
        let start = origin.elapsed();
        outcome.attempted += 1;
        let slot = q.class as usize;
        let (reply, ns) = match transport {
            Transport::Served { client, statements } => {
                if q.literal {
                    let sql = q.literal_sql();
                    Lane::timed(recorder, "client.query", span, || {
                        client.query(sql).map(|r| r.rows).map_err(|e| e.to_string())
                    })
                } else {
                    let (handle, params) = (statements[slot], q.params.clone());
                    Lane::timed(recorder, "client.exec", span, || {
                        client
                            .exec(handle, params)
                            .map(|r| r.rows)
                            .map_err(|e| e.to_string())
                    })
                }
            }
            Transport::Embedded {
                store, statements, ..
            } => {
                let store: &dyn Store = store.as_ref();
                if q.literal {
                    let sql = q.literal_sql();
                    Lane::timed(recorder, "query.execute", span, || {
                        execute(store, &sql)
                            .map(|r| r.rows)
                            .map_err(|e| e.to_string())
                    })
                } else {
                    let statement = &statements[slot];
                    Lane::timed(recorder, "query.execute_prepared", span, || {
                        execute_prepared(store, statement, &q.params)
                            .map(|r| r.rows)
                            .map_err(|e| e.to_string())
                    })
                }
            }
        };
        let rows = match reply {
            Ok(rows) => rows,
            Err(e) => return outcome.fail(format!("{} query: {e}", q.class.name())),
        };
        // Queries read only the preloaded range, so every execution of a
        // statement must return what its first execution returned; that
        // first result is checked against the naive executor afterwards.
        let key = q.key();
        match outcome.first_results.get(&key) {
            Some((_, first)) if *first != rows => {
                return outcome.fail(format!("{key}: rows differ from the first execution"));
            }
            Some(_) => {}
            None => {
                outcome.first_results.insert(key, (q.clone(), rows));
            }
        }
        outcome.sample(start, ns, Kind::Query(q.class));
    }
}

/// Release every lane at once on its own thread and wait for all of them.
/// `during` runs on the calling thread meanwhile, with the shared origin.
pub fn run_lanes<T>(
    lanes: &mut [Lane],
    until: Until,
    during: impl FnOnce(Instant) -> T,
) -> Result<T> {
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                std::thread::Builder::new()
                    .name(format!("bench-lane-{}", lane.id))
                    .spawn_scoped(scope, move || lane.run(origin, until))
            })
            .collect();
        let out = during(origin);
        for handle in handles {
            match ctx("spawn lane", handle)?.join() {
                Ok(()) => {}
                Err(_) => return Err("lane thread panicked".to_string()),
            }
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_one_writing_and_one_reading_phase() {
        for workload in &WORKLOADS {
            let writing = workload.phases.iter().filter(|p| p.writes()).count();
            let reading = workload.phases.iter().filter(|p| p.reads()).count();
            assert_eq!((writing, reading), (1, 1), "{}", workload.name);
            assert!((1..=2).contains(&workload.lanes()), "{}", workload.name);
        }
    }
}
