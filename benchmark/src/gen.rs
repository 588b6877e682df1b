//! Seeded input generation: the preloaded dataset and each lane's stream
//! of operations. Everything the program under test receives comes from
//! here and is a function of `--seed` alone.

use mltrace_store::{
    ComponentRunRecord, EventKind, EventSeverity, MetricRecord, ObservabilityEvent, RunStatus,
    Value,
};

/// xoshiro256** seeded through SplitMix64: the benchmark's one generator.
#[derive(Clone, Debug)]
pub struct Prng([u64; 4]);

impl Prng {
    pub fn new(seed: u64) -> Prng {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Prng([next(), next(), next(), next()])
    }

    /// An independent stream for `lane`, so adding a lane does not shift
    /// the others.
    pub fn for_lane(seed: u64, lane: u64) -> Prng {
        Prng::new(seed ^ (lane + 1).wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A multiset dealt one item at a time in shuffled order and reshuffled
/// when it runs out. Every pass deals exactly the same items, so two
/// seeds give two orders of one mix, not two mixes: what a run measures
/// then varies with the machine, not with the luck of the draw.
#[derive(Clone, Debug)]
struct Deck<T> {
    items: Vec<T>,
    dealt: usize,
}

impl<T: Copy> Deck<T> {
    fn new(items: Vec<T>) -> Deck<T> {
        assert!(!items.is_empty(), "a deck needs items");
        let dealt = items.len();
        Deck { items, dealt }
    }

    /// `count` copies of each listed item.
    fn of(counts: &[(T, usize)]) -> Deck<T> {
        Deck::new(
            counts
                .iter()
                .flat_map(|&(item, n)| std::iter::repeat_n(item, n))
                .collect(),
        )
    }

    fn deal(&mut self, rng: &mut Prng) -> T {
        if self.dealt == self.items.len() {
            shuffle(&mut self.items, rng);
            self.dealt = 0;
        }
        self.dealt += 1;
        self.items[self.dealt - 1]
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Prng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// Components in the preloaded dataset.
pub const COMPONENTS: usize = 64;
/// Epoch-ms of the first preloaded run; runs are one second apart.
pub const T0_MS: u64 = 1_700_000_000_000;
/// Runs per ingest request and metric points per ingest request: the
/// `bench-load` shape.
pub const RUNS_PER_REQUEST: usize = 8;
pub const METRICS_PER_REQUEST: usize = 4;

pub fn component_name(i: usize) -> String {
    format!("comp-{i:02}")
}

/// How many of `total` runs each component gets under Zipf(1): component
/// 0 about a fifth, the last about one in three hundred. Exact shares, by
/// largest remainder, so the dataset's shape does not depend on the seed.
pub fn zipf_quotas(total: usize) -> Vec<usize> {
    let norm: f64 = (1..=COMPONENTS).map(|rank| 1.0 / rank as f64).sum();
    let exact: Vec<f64> = (1..=COMPONENTS)
        .map(|rank| total as f64 / (rank as f64 * norm))
        .collect();
    let mut quotas: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..COMPONENTS).collect();
    by_remainder.sort_by(|&a, &b| exact[b].fract().total_cmp(&exact[a].fract()));
    let short = total - quotas.iter().sum::<usize>();
    for &component in by_remainder.iter().take(short) {
        quotas[component] += 1;
    }
    quotas
}

/// One slice of the preloaded dataset, in log order.
pub struct PreloadBatch {
    pub runs: Vec<ComponentRunRecord>,
    pub metrics: Vec<MetricRecord>,
    /// Events paired with the index (within `runs`) of the run they are
    /// about; the loader stamps the assigned run id.
    pub events: Vec<(usize, ObservabilityEvent)>,
}

/// Runs `from..to` of the `total`-run dataset for `seed`, in batches of up
/// to 256. Run `k` starts at `T0_MS + k` seconds; components hold their
/// Zipf quotas of the `total` in seeded order; every fourth run carries a
/// metric point and a journal event.
pub fn preload(
    seed: u64,
    total: usize,
    from: usize,
    to: usize,
) -> impl Iterator<Item = PreloadBatch> {
    assert!(from <= to && to <= total, "slice outside the dataset");
    let mut rng = Prng::for_lane(seed, 1_000);
    let mut component_of: Vec<u8> = zipf_quotas(total)
        .iter()
        .enumerate()
        .flat_map(|(component, &n)| std::iter::repeat_n(component as u8, n))
        .collect();
    shuffle(&mut component_of, &mut rng);
    // Skipped runs still consume their draws, so `from` does not change
    // what run `k` looks like.
    let mut k = 0;
    std::iter::from_fn(move || {
        let mut batch = PreloadBatch {
            runs: Vec::new(),
            metrics: Vec::new(),
            events: Vec::new(),
        };
        while k < to && batch.runs.len() < 256 {
            let comp = component_of[k] as usize;
            let duration = 5 + rng.below(495);
            let failed = rng.below(17) == 0;
            let extra = k % 4 == 0;
            let noise = rng.unit();
            let index = k;
            k += 1;
            if index < from {
                continue;
            }
            let component = component_name(comp);
            let start_ms = T0_MS + index as u64 * 1_000;
            batch.runs.push(ComponentRunRecord {
                component: component.clone(),
                start_ms,
                end_ms: start_ms + duration,
                inputs: vec![format!("{component}/in")],
                outputs: vec![format!("{component}/out-{}", index % 256)],
                code_hash: format!("rev-{:04x}", index / 4096),
                notes: String::new(),
                status: if failed {
                    RunStatus::Failed
                } else {
                    RunStatus::Success
                },
                ..Default::default()
            });
            if extra {
                batch.metrics.push(MetricRecord {
                    component: component.clone(),
                    run_id: None,
                    name: "latency_ms".into(),
                    value: duration as f64 + noise,
                    ts_ms: start_ms + duration,
                });
                let (kind, severity) = if failed {
                    (EventKind::RunFailed, EventSeverity::Warn)
                } else {
                    (EventKind::TriggerOutcome, EventSeverity::Info)
                };
                batch.events.push((
                    batch.runs.len() - 1,
                    ObservabilityEvent::new(kind, severity, start_ms + duration)
                        .component(component)
                        .detail("preload"),
                ));
            }
        }
        (!batch.runs.is_empty()).then_some(batch)
    })
}

/// The three query classes readers issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryClass {
    /// Component equality + time range + `ORDER BY … LIMIT`: index route.
    Point,
    /// `GROUP BY component` with aggregates over a time range:
    /// partial-aggregate route.
    Agg,
    /// `runs JOIN events` with a filter pushed below the join.
    Join,
}

impl QueryClass {
    pub const ALL: [QueryClass; 3] = [QueryClass::Point, QueryClass::Agg, QueryClass::Join];

    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Point => "point",
            QueryClass::Agg => "agg",
            QueryClass::Join => "join",
        }
    }

    /// Statement text with `?` placeholders.
    pub fn sql(self) -> &'static str {
        match self {
            QueryClass::Point => {
                "SELECT id, component, start_ms, duration_ms, status FROM runs \
                 WHERE component = ? AND start_ms BETWEEN ? AND ? \
                 ORDER BY start_ms DESC LIMIT 20"
            }
            QueryClass::Agg => {
                "SELECT component, count(*) AS n, avg(duration_ms) AS avg_ms, \
                 sum(duration_ms) AS total_ms FROM runs \
                 WHERE start_ms BETWEEN ? AND ? GROUP BY component ORDER BY component"
            }
            QueryClass::Join => {
                "SELECT r.id, e.kind, e.ts_ms FROM runs r JOIN events e ON e.run_id = r.id \
                 WHERE r.component = ? AND r.start_ms BETWEEN ? AND ? AND e.severity = 'warn' \
                 ORDER BY r.id"
            }
        }
    }
}

/// One query: a class, its parameters, and whether it travels as literal
/// SQL (parsed per request) or as an `EXEC` of the prepared statement.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOp {
    pub class: QueryClass,
    pub literal: bool,
    pub params: Vec<Value>,
}

impl QueryOp {
    /// The statement with its parameters written in.
    pub fn literal_sql(&self) -> String {
        let mut params = self.params.iter();
        let mut sql = String::new();
        for piece in self.class.sql().split_inclusive('?') {
            match piece.strip_suffix('?') {
                Some(head) => {
                    sql.push_str(head);
                    match params.next().expect("one parameter per placeholder") {
                        Value::Str(s) => {
                            sql.push('\'');
                            sql.push_str(s);
                            sql.push('\'');
                        }
                        Value::Int(i) => sql.push_str(&i.to_string()),
                        other => unreachable!("generator emits only str and int, not {other:?}"),
                    }
                }
                None => sql.push_str(piece),
            }
        }
        sql
    }

    /// Identity of the statement: two ops with equal keys must return
    /// equal rows, because queries read only the preloaded time range.
    pub fn key(&self) -> String {
        format!("{}{:?}", self.class.name(), self.params)
    }
}

/// One operation of a lane.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// The lane's `seq`-th write. What it carries is the transport's
    /// business: an ingest request pair when served, a wrapped run when
    /// embedded.
    Write {
        seq: u64,
    },
    Query(QueryOp),
}

/// How many of a lane's operations are writes: `writes` in every `cycle`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    pub writes: usize,
    pub cycle: usize,
}

impl Mix {
    fn deck(self) -> Deck<bool> {
        assert!(self.writes <= self.cycle, "more writes than operations");
        Deck::of(&[(true, self.writes), (false, self.cycle - self.writes)])
    }
}

/// Distinct start-time ranges a point or join query may ask for (each a
/// quarter of the preloaded span) and an aggregate may (each an eighth).
const QUARTERS: u8 = 4;
const EIGHTHS: u8 = 8;

/// A lane's endless operation stream. Every choice is dealt from a
/// [`Deck`]: write or query by the lane's mix; the class 28 : 1 : 3 (an
/// aggregate scans an eighth of the table, so even at one query in 32 it
/// is a fifth of a reader's time); one point query in ten as literal SQL; the component uniformly, because an
/// engineer debugs a component whatever its share of the runs, and so that
/// a class's median sits where cost changes slowly from one component to
/// the next.
pub struct OpStream {
    rng: Prng,
    preloaded_runs: u64,
    next_write: u64,
    is_write: Deck<bool>,
    class: Deck<QueryClass>,
    literal: Deck<bool>,
    point_target: Deck<(u8, u8)>,
    join_target: Deck<(u8, u8)>,
    agg_range: Deck<u8>,
}

impl OpStream {
    pub fn new(seed: u64, lane: u64, mix: Mix, preloaded_runs: usize) -> OpStream {
        let every_target: Vec<(u8, u8)> = (0..COMPONENTS as u8)
            .flat_map(|c| (0..QUARTERS).map(move |q| (c, q)))
            .collect();
        OpStream {
            rng: Prng::for_lane(seed, lane),
            preloaded_runs: preloaded_runs as u64,
            next_write: 0,
            is_write: mix.deck(),
            class: Deck::of(&[
                (QueryClass::Point, 28),
                (QueryClass::Agg, 1),
                (QueryClass::Join, 3),
            ]),
            literal: Deck::of(&[(true, 1), (false, 9)]),
            point_target: Deck::new(every_target.clone()),
            join_target: Deck::new(every_target),
            agg_range: Deck::new((0..EIGHTHS).collect()),
        }
    }

    /// Change the share of writes from the next operation on. Queries keep
    /// their place in their decks, so a lane that reads in one phase and
    /// again in a later one carries on where it stopped.
    pub fn set_mix(&mut self, mix: Mix) {
        self.is_write = mix.deck();
    }

    /// The `index`-th of `parts` equal `[lo, hi]` start-time ranges that
    /// tile the preloaded span.
    fn time_range(&self, parts: u8, index: u8) -> (Value, Value) {
        let width = self.preloaded_runs / parts as u64 * 1_000;
        let lo = T0_MS + index as u64 * width;
        (Value::Int(lo as i64), Value::Int((lo + width - 1) as i64))
    }

    fn query(&mut self) -> QueryOp {
        let class = self.class.deal(&mut self.rng);
        match class {
            QueryClass::Point | QueryClass::Join => {
                let (component, quarter) = if class == QueryClass::Point {
                    self.point_target.deal(&mut self.rng)
                } else {
                    self.join_target.deal(&mut self.rng)
                };
                let (lo, hi) = self.time_range(QUARTERS, quarter);
                QueryOp {
                    class,
                    literal: class == QueryClass::Point && self.literal.deal(&mut self.rng),
                    params: vec![Value::Str(component_name(component as usize)), lo, hi],
                }
            }
            QueryClass::Agg => {
                let eighth = self.agg_range.deal(&mut self.rng);
                let (lo, hi) = self.time_range(EIGHTHS, eighth);
                QueryOp {
                    class,
                    literal: false,
                    params: vec![lo, hi],
                }
            }
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.is_write.deal(&mut self.rng) {
            let seq = self.next_write;
            self.next_write += 1;
            Some(Op::Write { seq })
        } else {
            Some(Op::Query(self.query()))
        }
    }
}

/// Component a served writer lane logs for.
pub fn loadgen_component(lane: u64) -> String {
    format!("loadgen-{lane}")
}

/// The `seq`-th ingest request pair of writer `lane`: eight runs, then
/// four metric points. Start times lie after the preloaded span, so
/// queries over the preloaded range never see them.
pub fn ingest_pair(
    lane: u64,
    seq: u64,
    preloaded_runs: usize,
) -> (Vec<ComponentRunRecord>, Vec<MetricRecord>) {
    let component = loadgen_component(lane);
    let base = T0_MS + (preloaded_runs as u64 + 1_000 + seq * RUNS_PER_REQUEST as u64) * 1_000;
    let runs = (0..RUNS_PER_REQUEST as u64)
        .map(|i| {
            let n = seq * RUNS_PER_REQUEST as u64 + i;
            ComponentRunRecord {
                component: component.clone(),
                start_ms: base + i * 1_000,
                end_ms: base + i * 1_000 + 250,
                code_hash: format!("bench-{n:08x}"),
                notes: format!("lane {lane} seq {n}"),
                status: if n.is_multiple_of(17) {
                    RunStatus::Failed
                } else {
                    RunStatus::Success
                },
                ..Default::default()
            }
        })
        .collect();
    let metrics = (0..METRICS_PER_REQUEST as u64)
        .map(|k| MetricRecord {
            component: component.clone(),
            run_id: None,
            name: "bench.latency_ms".into(),
            value: 50.0 + ((seq * 7 + k * 3) % 100) as f64,
            ts_ms: base + k,
        })
        .collect();
    (runs, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HALF: Mix = Mix {
        writes: 32,
        cycle: 64,
    };

    fn first_ops(seed: u64, n: usize) -> Vec<Op> {
        OpStream::new(seed, 0, HALF, 10_000).take(n).collect()
    }

    fn dataset(seed: u64, total: usize, from: usize, to: usize) -> Vec<ComponentRunRecord> {
        preload(seed, total, from, to)
            .flat_map(|b| b.runs)
            .collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(first_ops(7, 2_000), first_ops(7, 2_000));
        assert_ne!(first_ops(7, 2_000), first_ops(8, 2_000));
        assert_eq!(dataset(7, 1_000, 0, 1_000), dataset(7, 1_000, 0, 1_000));
        assert_ne!(dataset(7, 1_000, 0, 1_000), dataset(8, 1_000, 0, 1_000));
    }

    #[test]
    fn preload_tail_continues_the_same_dataset() {
        let whole = dataset(3, 700, 0, 700);
        assert_eq!(whole.len(), 700);
        assert_eq!(&whole[500..], &dataset(3, 700, 500, 700)[..]);
        assert_eq!(&whole[..500], &dataset(3, 700, 0, 500)[..]);
    }

    #[test]
    fn seeds_reorder_the_dataset_without_reshaping_it() {
        let sizes = |seed| {
            let mut sizes = std::collections::BTreeMap::new();
            for run in dataset(seed, 20_000, 0, 20_000) {
                *sizes.entry(run.component).or_insert(0usize) += 1;
            }
            sizes
        };
        assert_eq!(sizes(1), sizes(2));
        let quotas = zipf_quotas(20_000);
        assert_eq!(quotas.iter().sum::<usize>(), 20_000);
        assert_eq!(sizes(1)[&component_name(0)], quotas[0]);
        assert!(quotas[0] > 50 * quotas[COMPONENTS - 1]);
        assert!(quotas.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn lanes_are_independent_streams() {
        let lane = |l| -> Vec<Op> { OpStream::new(5, l, HALF, 10_000).take(500).collect() };
        assert_ne!(lane(0), lane(1));
    }

    #[test]
    fn every_cycle_holds_the_mix_exactly() {
        let writes = |writes, cycle, n| {
            OpStream::new(1, 0, Mix { writes, cycle }, 10_000)
                .take(n)
                .filter(|op| matches!(op, Op::Write { .. }))
                .count()
        };
        assert_eq!(writes(0, 64, 640), 0);
        assert_eq!(writes(64, 64, 640), 640);
        assert_eq!(writes(48, 64, 640), 480);
        assert_eq!(writes(255, 256, 2_560), 2_550);
        // 640 queries are 20 passes of the class deck and more than two
        // passes of the 256 point targets: each target at least once.
        let queries: Vec<QueryOp> = OpStream::new(
            2,
            0,
            Mix {
                writes: 0,
                cycle: 1,
            },
            10_000,
        )
        .take(640)
        .map(|op| match op {
            Op::Query(q) => q,
            Op::Write { .. } => unreachable!("no writes in this mix"),
        })
        .collect();
        let of = |class| queries.iter().filter(|q| q.class == class).count();
        assert_eq!(
            (
                of(QueryClass::Point),
                of(QueryClass::Agg),
                of(QueryClass::Join)
            ),
            (560, 20, 60)
        );
        assert_eq!(queries.iter().filter(|q| q.literal).count(), 56);
        let targets: std::collections::BTreeSet<String> = queries
            .iter()
            .filter(|q| q.class == QueryClass::Point)
            .map(QueryOp::key)
            .collect();
        assert_eq!(targets.len(), 256);
    }

    #[test]
    fn literal_sql_writes_parameters_in() {
        let op = QueryOp {
            class: QueryClass::Point,
            literal: true,
            params: vec![Value::Str("comp-03".into()), Value::Int(10), Value::Int(20)],
        };
        let sql = op.literal_sql();
        assert!(sql.contains("component = 'comp-03' AND start_ms BETWEEN 10 AND 20"));
        assert!(!sql.contains('?'));
    }
}
