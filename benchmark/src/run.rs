//! One benchmark run: set-up, the measured phases, the correctness
//! checks, and the metrics — end-to-end with tracing off, per-layer from
//! the traced run.

use crate::gen::{Mix, OpStream, QueryClass};
use crate::harness::{
    build_store, cold_open, ctx, run_lanes, Extent, Kind, Lane, LaneOutcome, Phase, Result, Sample,
    Scratch, Served, Transport, Until, Workload, PRELOAD_RUNS,
};
use crate::layers::{self, Stage};
use crate::report::{Metrics, Outcome};
use crate::spans::Recorder;
use crate::stats::{self, Distribution};
use crate::verify::{self, Checks};
use mltrace_client::Client;
use mltrace_store::{Store, StoreStats, WalOptions, WalStore};
use mltrace_telemetry::TelemetrySnapshot;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where scratch stores and trace files go: the benchmark's `out/`.
    pub out_dir: PathBuf,
}

/// Set-up rounds per untraced run; `setup_s` is the median of the rounds
/// and `cold_open_s` of the two cold opens each round makes.
const SETUP_ROUNDS: usize = 3;
/// Lanes run this long before a phase's window opens, so connections,
/// caches and the coalescer are warm.
const WARM_UP: Duration = Duration::from_secs(1);
/// A window is cut into this many slices. A rate is the median of the
/// slices' rates and a latency percentile the median of the slices'
/// percentiles, so a stall of the machine that spoils one or two slices
/// does not move either.
const SLICES: u64 = 5;

/// What a lane leaves behind when the harness stops.
struct Finished {
    id: u64,
    outcome: LaneOutcome,
    recorder: Option<Recorder>,
}

/// The store being driven, its server when served, and the lanes.
struct Live {
    store: Arc<WalStore>,
    served: Option<Served>,
    lanes: Vec<Lane>,
}

impl Live {
    fn start(workload: &Workload, store: WalStore, seed: u64) -> Result<Live> {
        let store = Arc::new(store);
        let served = if workload.served {
            Some(Served::start(store.clone())?)
        } else {
            None
        };
        let mut lanes = Vec::new();
        for id in 0..workload.lanes() as u64 {
            let transport = match &served {
                Some(served) => Transport::connect(served.addr, id)?,
                None => Transport::embedded(store.clone())?,
            };
            lanes.push(Lane::new(id, transport, seed));
        }
        Ok(Live {
            store,
            served,
            lanes,
        })
    }

    /// Disconnect, stop the server, and hand back the store, now the only
    /// reference to it, with what each lane did.
    fn stop(self) -> Result<(WalStore, Vec<Finished>)> {
        let done = self
            .lanes
            .into_iter()
            .map(|lane| Finished {
                id: lane.id,
                outcome: lane.outcome,
                recorder: lane.recorder,
            })
            .collect();
        if let Some(served) = self.served {
            served.stop()?;
        }
        let store = Arc::try_unwrap(self.store)
            .map_err(|_| "the store is still shared after shutdown".to_string())?;
        Ok((store, done))
    }

    /// Run the phase's lanes, the phase's share of `seconds`. Returns the
    /// measured window's bounds in ns since the lanes were released, and
    /// the store's telemetry at both.
    fn window(&mut self, phase: &Phase, seconds: f64) -> Result<Window> {
        let lanes = &mut self.lanes[..phase.lanes.len()];
        for (lane, &mix) in lanes.iter_mut().zip(phase.lanes) {
            lane.ops.set_mix(mix);
        }
        let store = self.store.clone();
        let snapshot = move || {
            let telemetry = store.telemetry().ok_or("the store keeps no telemetry")?;
            Ok::<_, String>(telemetry.snapshot())
        };
        let take_samples = |lanes: &mut [Lane]| -> Vec<Sample> {
            lanes
                .iter_mut()
                .flat_map(|lane| std::mem::take(&mut lane.outcome.samples))
                .collect()
        };
        match phase.extent {
            Extent::Percent(percent) => {
                let length = Duration::from_secs_f64(seconds * percent as f64 / 100.0);
                let until = Until::Elapsed(WARM_UP + length);
                let (before, after) = run_lanes(lanes, until, |origin| {
                    std::thread::sleep(WARM_UP.saturating_sub(origin.elapsed()));
                    let before = snapshot();
                    std::thread::sleep((WARM_UP + length).saturating_sub(origin.elapsed()));
                    (before, snapshot())
                })?;
                Ok(Window {
                    from_ns: WARM_UP.as_nanos() as u64,
                    to_ns: (WARM_UP + length).as_nanos() as u64,
                    before: before?,
                    after: after?,
                    samples: take_samples(lanes),
                })
            }
            Extent::OpsPerSecond(rate) => {
                let ops = (rate as f64 * seconds) as u64;
                run_lanes(lanes, Until::Ops(ops / 10), |_| ())?;
                drop(take_samples(lanes)); // the warm-up's
                let before = snapshot()?;
                let origin = run_lanes(lanes, Until::Ops(ops), |origin| origin)?;
                let to_ns = origin.elapsed().as_nanos() as u64;
                Ok(Window {
                    from_ns: 0,
                    to_ns,
                    before,
                    after: snapshot()?,
                    samples: take_samples(lanes),
                })
            }
        }
    }

    /// One window per phase of the workload.
    fn windows(&mut self, workload: &Workload, seconds: f64) -> Result<Vec<Window>> {
        workload
            .phases
            .iter()
            .map(|phase| self.window(phase, seconds))
            .collect()
    }
}

/// One measured window: its bounds, the samples of all lanes, and the
/// store's counters at both ends.
struct Window {
    from_ns: u64,
    to_ns: u64,
    before: TelemetrySnapshot,
    after: TelemetrySnapshot,
    samples: Vec<Sample>,
}

impl Window {
    /// Samples whose operation started inside the window.
    fn measured(&self) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(|s| s.start_ns >= self.from_ns && s.start_ns < self.to_ns)
    }

    fn slice_ns(&self) -> u64 {
        (self.to_ns - self.from_ns) / SLICES
    }

    /// The `p`-th percentile of the latencies `keep` selects, in ms: the
    /// median over the slices of each slice's percentile, and how many
    /// samples there were. `None` when there were none.
    fn percentile_ms(&self, keep: impl Fn(Kind) -> bool, p: f64) -> Option<(f64, usize)> {
        let mut per_slice = vec![Vec::new(); SLICES as usize];
        for s in self.measured().filter(|s| keep(s.kind)) {
            let slice = ((s.start_ns - self.from_ns) / self.slice_ns()).min(SLICES - 1);
            per_slice[slice as usize].push(s.latency_ns as f64 / 1e6);
        }
        let count = per_slice.iter().map(Vec::len).sum();
        let percentiles: Vec<f64> = per_slice
            .into_iter()
            .filter_map(Distribution::new)
            .map(|d| d.percentile(p))
            .collect();
        (!percentiles.is_empty()).then(|| (stats::median(&percentiles), count))
    }

    /// Median over the slices of `weight` completed per second.
    fn rate_per_s(&self, weight: impl Fn(Kind) -> u64) -> f64 {
        let slice_ns = self.slice_ns();
        let mut per_slice = vec![0u64; SLICES as usize];
        for s in &self.samples {
            let done = s.start_ns + s.latency_ns;
            if done >= self.from_ns && done < self.from_ns + slice_ns * SLICES {
                per_slice[((done - self.from_ns) / slice_ns) as usize] += weight(s.kind);
            }
        }
        let rates: Vec<f64> = per_slice
            .iter()
            .map(|&n| n as f64 / (slice_ns as f64 / 1e9))
            .collect();
        stats::median(&rates)
    }

    fn counter(&self, name: &str) -> f64 {
        let at = |snap: &TelemetrySnapshot| snap.counters.get(name).copied().unwrap_or(0);
        at(&self.after).saturating_sub(at(&self.before)) as f64
    }

    /// How many values a histogram recorded during the window, and their
    /// sum.
    fn recorded(&self, name: &str) -> (u64, u64) {
        let at = |snap: &TelemetrySnapshot| {
            snap.histograms
                .get(name)
                .map_or((0, 0), |h| (h.count, h.sum))
        };
        let ((c0, s0), (c1, s1)) = (at(&self.before), at(&self.after));
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }
}

/// The windows of one pass over a workload's phases, read as one: the
/// traced run's counts and tails are of the workload, not of a phase.
struct Pass(Vec<Window>);

impl Pass {
    fn measured(&self) -> impl Iterator<Item = &Sample> {
        self.0.iter().flat_map(Window::measured)
    }

    fn latencies_ms(&self, keep: impl Fn(Kind) -> bool) -> Option<Distribution> {
        Distribution::new(
            self.measured()
                .filter(|s| keep(s.kind))
                .map(|s| s.latency_ns as f64 / 1e6),
        )
    }

    fn counter(&self, name: &str) -> f64 {
        self.0.iter().map(|w| w.counter(name)).sum()
    }

    /// Mean of the values a histogram recorded during the pass.
    fn histogram_mean(&self, name: &str) -> f64 {
        let (count, sum) = self
            .0
            .iter()
            .map(|w| w.recorded(name))
            .fold((0, 0), |(c, s), (dc, ds)| (c + dc, s + ds));
        if count > 0 {
            sum as f64 / count as f64
        } else {
            0.0
        }
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64> {
    let status = ctx(
        "read /proc/self/status",
        std::fs::read_to_string("/proc/self/status"),
    )?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn missing(what: &str) -> String {
    format!("the window completed no {what}; is --seconds too short?")
}

/// What a caller that writes sees, from the window of the phase that writes.
fn write_metrics(metrics: &mut Metrics, window: &Window) -> Result<()> {
    for (p, name) in [(50.0, "ingest_ack_p50_ms"), (95.0, "ingest_ack_p95_ms")] {
        let (value, count) = window
            .percentile_ms(Kind::is_ack, p)
            .ok_or_else(|| missing("write"))?;
        metrics.set_sampled(name, value, count);
    }
    metrics.set("ingest_runs_per_s", window.rate_per_s(Kind::runs));
    let runs: u64 = window.measured().map(|s| s.kind.runs()).sum();
    if runs == 0 {
        return Err(missing("run"));
    }
    metrics.set(
        "wal_bytes_per_run",
        window.counter("wal.bytes_written_total") / runs as f64,
    );
    Ok(())
}

/// What a caller that queries sees, from the window of the phase that reads.
fn query_metrics(metrics: &mut Metrics, window: &Window) -> Result<()> {
    metrics.set(
        "query_per_s",
        window.rate_per_s(|k| u64::from(k.is_query())),
    );
    // The aggregate's median and the 95th percentile over all classes,
    // which falls among the aggregates and the largest joins, are per-layer
    // metrics: both time a scan of megabytes, and what the host's other
    // guests leave of the shared cache moved them by a quarter between
    // sets of runs of the same code, more than any bound allowed.
    for (class, p, name) in [
        (QueryClass::Point, 50.0, "query_point_p50_ms"),
        (QueryClass::Point, 95.0, "query_point_p95_ms"),
        (QueryClass::Join, 50.0, "query_join_p50_ms"),
    ] {
        let (value, count) = window
            .percentile_ms(|k| k == Kind::Query(class), p)
            .ok_or_else(|| missing(class.name()))?;
        metrics.set_sampled(name, value, count);
    }
    Ok(())
}

/// One set-up round's harness and what the round measured.
struct SetUp {
    live: Live,
    dir: PathBuf,
    cold_open_s: [f64; 2],
    /// `VmHWM` once the store has been built and cold-opened once.
    peak_rss_mb: f64,
    total_s: f64,
}

/// Build the preloaded store in a fresh directory, cold-open it, and
/// start the workload's harness on it.
fn set_up(args: &Args, scratch: &Scratch) -> Result<SetUp> {
    let started = Instant::now();
    let dir = scratch.fresh()?;
    let options = args.workload.wal_options();
    build_store(&dir, args.seed, options, false)?;
    // Opened twice, for twice the cold-open samples per build.
    let (store, first_open_s) = cold_open(&dir, options)?;
    let peak_rss_mb = peak_rss_mb()?;
    drop(store);
    let (store, second_open_s) = cold_open(&dir, options)?;
    let live = Live::start(args.workload, store, args.seed)?;
    Ok(SetUp {
        live,
        dir,
        cold_open_s: [first_open_s, second_open_s],
        peak_rss_mb,
        total_s: started.elapsed().as_secs_f64(),
    })
}

/// Stop the harness, cold-reopen the log, and run the workload's checks.
/// Returns the reopened store for whatever comes next.
fn stop_and_check(
    args: &Args,
    live: Live,
    dir: &Path,
    before: &StoreStats,
    checks: &mut Checks,
    outcome: &mut Outcome,
) -> Result<(WalStore, Option<Recorder>)> {
    let at_close = ctx("stats", live.store.stats())?;
    let (store, lanes) = live.stop()?;
    drop(store);
    let (reopened, _) = cold_open(dir, args.workload.wal_options())?;
    let reopened_stats = ctx("stats", reopened.stats())?;

    let mut recorder: Option<Recorder> = None;
    let mut first_results = Vec::new();
    let mut outcomes = Vec::new();
    for Finished {
        id,
        outcome: mut lane,
        recorder: lane_recorder,
    } in lanes
    {
        outcome.attempted += lane.attempted;
        outcome.failed += lane.failed;
        for error in &lane.errors {
            eprintln!("lane {id}: {error}");
        }
        first_results.push(std::mem::take(&mut lane.first_results));
        match (&mut recorder, lane_recorder) {
            (Some(all), Some(more)) => all.absorb(more),
            (None, more) => recorder = more,
            (Some(_), None) => {}
        }
        outcomes.push((id, lane));
    }
    if args.workload.served {
        verify::durable_and_equal_to_embedded(checks, before, &reopened_stats, &outcomes)?;
    } else {
        verify::reopen_preserves_stats(checks, &at_close, &reopened_stats);
    }
    let first_results = verify::merge_first_results(checks, first_results);
    verify::queries_match_naive(checks, &reopened, &first_results)?;
    Ok((reopened, recorder))
}

fn fold_checks(checks: Checks, outcome: &mut Outcome) {
    outcome.attempted += checks.attempted;
    outcome.failed += checks.failures.len() as u64;
    for failure in &checks.failures {
        eprintln!("check failed: {failure}");
    }
}

/// Tracing off: three set-up rounds, the workload's phases, the checks.
fn untraced(args: &Args, scratch: &Scratch) -> Result<Outcome> {
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        metrics: Metrics::default(),
    };
    let mut setup_s = Vec::new();
    let mut cold_open_s = Vec::new();
    let mut kept = None;
    for round in 0..SETUP_ROUNDS {
        let round_setup = set_up(args, scratch)?;
        setup_s.push(round_setup.total_s);
        cold_open_s.extend(round_setup.cold_open_s);
        if round == 0 {
            // The first round's reading repeats to a tenth of a percent.
            // Later rounds add what the allocator keeps of the earlier
            // ones (+20 to +60 %, differing from run to run), and what the
            // window adds grows with the work it completes, which would
            // turn a faster engine into a memory "regression".
            outcome.metrics.set("peak_rss_mb", round_setup.peak_rss_mb);
        }
        if round + 1 < SETUP_ROUNDS {
            round_setup.live.stop()?;
            ctx(
                "remove set-up round",
                std::fs::remove_dir_all(&round_setup.dir),
            )?;
        } else {
            kept = Some(round_setup);
        }
    }
    let SetUp { mut live, dir, .. } = kept.expect("at least one set-up round");
    outcome
        .metrics
        .set_sampled("setup_s", stats::median(&setup_s), setup_s.len());
    outcome.metrics.set_sampled(
        "cold_open_s",
        stats::median(&cold_open_s),
        cold_open_s.len(),
    );

    let before = ctx("stats", live.store.stats())?;
    let windows = live.windows(args.workload, args.seconds as f64)?;
    for (phase, window) in args.workload.phases.iter().zip(&windows) {
        if phase.writes() {
            write_metrics(&mut outcome.metrics, window)?;
        }
        if phase.reads() {
            query_metrics(&mut outcome.metrics, window)?;
        }
    }
    let mut checks = Checks::default();
    stop_and_check(args, live, &dir, &before, &mut checks, &mut outcome)?;
    fold_checks(checks, &mut outcome);
    Ok(outcome)
}

/// Median round trip of `n` pings over a fresh connection, in µs. The
/// embedded workload has no server, so one is started on its store for
/// the probe: the floor is a property of the machine, not of the mix.
fn ping_us(live: &Live, n: usize) -> Result<f64> {
    let own_server = match &live.served {
        Some(_) => None,
        None => Some(Served::start(live.store.clone())?),
    };
    let addr = match (&live.served, &own_server) {
        (Some(served), _) | (None, Some(served)) => served.addr,
        (None, None) => unreachable!("a server was started above"),
    };
    let mut client = ctx("connect for ping", Client::connect(addr))?;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let started = Instant::now();
        ctx("ping", client.ping())?;
        samples.push(started.elapsed().as_nanos() as f64 / 1_000.0);
    }
    drop(client);
    if let Some(served) = own_server {
        served.stop()?;
    }
    Ok(Distribution::new(samples).ok_or("no pings sent")?.median())
}

/// Tracing on: one set-up, an untraced and a traced pass of equal length
/// over the phases, the staged replay and the probes. Writes the span file.
fn traced(args: &Args, scratch: &Scratch) -> Result<Outcome> {
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        metrics: Metrics::default(),
    };
    let workload = args.workload;
    let dir = scratch.fresh()?;
    let options = workload.wal_options();
    let build = build_store(&dir, args.seed, options, true)?;
    let m = &mut outcome.metrics;
    m.set("wal.checkpoint_s", build.checkpoint_s);
    m.set("wal.snapshot_bytes", build.checkpoint.snapshot_bytes as f64);
    m.set(
        "wal.full_replay_s",
        build.full_replay_s.ok_or("full replay was not timed")?,
    );
    {
        // The same files opened with one parse worker, and closed again
        // before the real open: what the replay pool buys.
        let serial = WalOptions {
            replay_workers: Some(1),
            ..options
        };
        let (store, open_s) = cold_open(&dir, serial)?;
        m.set("wal.open_serial_s", open_s);
        let replayed = store
            .telemetry()
            .map_or(0, |t| t.counter("wal.replay_events_total").get());
        m.set("wal.replay_events_total", replayed as f64);
    }
    let (store, _) = cold_open(&dir, options)?;
    let mut live = Live::start(workload, store, args.seed)?;

    let before = ctx("stats", live.store.stats())?;
    let seconds = (args.seconds / 3).clamp(1, 4) as f64;
    let plain = Pass(live.windows(workload, seconds)?);
    let origin = Instant::now();
    for lane in &mut live.lanes {
        lane.recorder = Some(Recorder::new(origin, lane.id));
    }
    let spanned = Pass(live.windows(workload, seconds)?);
    m.set("client.ping_roundtrip_us", ping_us(&live, 500)?);

    // Whichever the workload mostly does stands for it in the ratios.
    let acks = spanned.measured().filter(|s| s.kind.is_ack()).count();
    let writes_dominate = 2 * acks >= spanned.measured().count();
    let dominant = |k: Kind| {
        if writes_dominate {
            k.is_ack()
        } else {
            k == Kind::Query(QueryClass::Point)
        }
    };
    let nothing = || "a traced window completed nothing of the workload's main kind".to_string();
    let served_p50_ms = spanned.latencies_ms(dominant).ok_or_else(nothing)?.median();
    let plain_mean_ms = plain.latencies_ms(dominant).ok_or_else(nothing)?.mean();
    let spanned_mean_ms = spanned.latencies_ms(dominant).ok_or_else(nothing)?.mean();
    m.set(
        "bench.trace_overhead_ratio",
        spanned_mean_ms / plain_mean_ms,
    );
    let one_kind = || "a traced pass saw only one kind of operation".to_string();
    let acks = spanned.latencies_ms(Kind::is_ack).ok_or_else(one_kind)?;
    m.set_sampled("client.ack_p99_ms", acks.percentile(99.0), acks.count());
    let queries = spanned.latencies_ms(Kind::is_query).ok_or_else(one_kind)?;
    m.set_sampled(
        "client.query_p95_ms",
        queries.percentile(95.0),
        queries.count(),
    );
    m.set_sampled(
        "client.query_p99_ms",
        queries.percentile(99.0),
        queries.count(),
    );
    let aggs = spanned
        .latencies_ms(|k| k == Kind::Query(QueryClass::Agg))
        .ok_or("a traced pass completed no aggregate")?;
    m.set_sampled("client.query_agg_p50_ms", aggs.median(), aggs.count());

    m.set(
        "server.requests_total",
        spanned.counter("server.requests_total"),
    );
    m.set("server.busy_total", spanned.counter("server.busy_total"));
    m.set(
        "server.coalesce_batch_mean",
        spanned.histogram_mean("server.coalesce_batch_size"),
    );
    m.set(
        "store.shard_contention_total",
        spanned.counter("store.shard_contention_total"),
    );
    {
        let footprint = ctx("index footprint", live.store.index_footprint())?;
        m.set(
            "store.index_bytes",
            footprint.iter().map(|f| f.approx_bytes).sum::<u64>() as f64,
        );
    }
    m.set(
        "metrics.plane_rolls",
        spanned.counter("pipeline.monitor_windows_rolled_total"),
    );
    m.set("wal.fsyncs_total", spanned.counter("wal.fsyncs_total"));
    m.set(
        "wal.bytes_written_total",
        spanned.counter("wal.bytes_written_total"),
    );
    m.set(
        "wal.group_commit_mean",
        spanned.histogram_mean("wal.group_commit_events"),
    );
    m.set(
        "wal.checkpoints_total",
        spanned.counter("wal.checkpoints_total"),
    );
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.set(
        "query.rows_scanned_per_returned",
        ratio(
            spanned.counter("query.rows_scanned"),
            spanned.counter("query.rows_returned"),
        ),
    );
    let hits = spanned.counter("query.index_hits_total");
    m.set(
        "query.index_hit_ratio",
        ratio(hits, hits + spanned.counter("query.index_misses_total")),
    );

    let mut checks = Checks::default();
    let (store, recorder) = stop_and_check(args, live, &dir, &before, &mut checks, &mut outcome)?;
    let mut recorder = recorder.ok_or("the traced window recorded no spans")?;

    // Staged replay of the workload's own mix (the share of lane time
    // spent writing, kept between a quarter and three quarters so that
    // every layer is reached often enough to have a median), one thread,
    // every layer call in a span.
    let share: f64 = workload
        .phases
        .iter()
        .map(|phase| {
            let writers = phase.lanes.iter().filter(|m| m.writes > 0).count();
            let of_run = match phase.extent {
                Extent::Percent(percent) => percent as f64 / 100.0,
                // Counted phases are short: a tenth of the run at most.
                Extent::OpsPerSecond(_) => 0.1,
            };
            of_run * writers as f64 / phase.lanes.len() as f64
        })
        .sum();
    let staged_mix = Mix {
        writes: ((share * 64.0).round() as usize).clamp(16, 48),
        cycle: 64,
    };
    let mut ops = OpStream::new(args.seed, 100, staged_mix, PRELOAD_RUNS);
    let mut staged = Recorder::new(origin, 100);
    let mut stage = Stage::new(&store)?;
    let replayed = stage.replay(&mut staged, &mut ops, 20_000, Duration::from_secs(4))?;
    println!("staged replay: {replayed} operations");
    let m = &mut outcome.metrics;
    layers::staged_metrics(m, &staged, &stage)?;
    let roots: &[&str] = if writes_dominate {
        &["staged.log_runs", "staged.log_metrics"]
    } else {
        &["staged.query.point"]
    };
    let staged_p50_us = Distribution::new(layers::path_time_us(&staged, roots))
        .ok_or("the staged replay has no request of the workload's main kind")?
        .median();
    m.set(
        "bench.layer_sum_ratio",
        staged_p50_us / (served_p50_ms * 1_000.0),
    );
    m.set(
        "server.residual_us",
        served_p50_ms * 1_000.0 - staged_p50_us,
    );
    layers::probe_scans(m, &store, args.seed)?;
    layers::probe_engine(m)?;

    recorder.absorb(staged);
    checks.require(recorder.well_nested(), || {
        "a child span lies outside its request span".to_string()
    });
    let trace_file = args.out_dir.join(format!("trace-{}.json", workload.name));
    ctx("write span file", recorder.write_chrome_trace(&trace_file))?;
    println!(
        "{} spans written to {}",
        recorder.spans.len(),
        trace_file.display()
    );
    fold_checks(checks, &mut outcome);
    Ok(outcome)
}

pub fn run(args: &Args) -> Result<Outcome> {
    ctx("create out dir", std::fs::create_dir_all(&args.out_dir))?;
    let scratch = Scratch::new(&args.out_dir)?;
    if args.trace {
        traced(args, &scratch)
    } else {
        untraced(args, &scratch)
    }
}
