//! Engine measurements: graph file → in-memory graph → result values,
//! through `ipregel-graph` and `ipregel`, every result checked.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ipregel::{
    run, run_sequential, CombinerKind, RunConfig, RunOutput, RunStats, Version, VertexProgram,
};
use ipregel_apps::{Bfs, Hashmin, PageRank, Sssp};
use ipregel_graph::transform::{degree_relabeling, relabel_graph};
use ipregel_graph::{Adjacency, Graph, NeighborList, Relabeling};

use crate::inputs::Input;
use crate::oracle;
use crate::spans::Spans;
use crate::stats::{mean, median};

/// PageRank damping factor everywhere in the benchmark.
pub const DAMPING: f64 = 0.85;

/// One query, as the engines and the server both run it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Job {
    /// PageRank for a fixed number of rounds.
    PageRank { rounds: usize },
    /// Unit-weight shortest paths (hop counts).
    Sssp { source: u32 },
    /// Breadth-first levels.
    Bfs { source: u32 },
    /// Min-label connected components.
    Components,
}

impl Job {
    /// Selection bypass is sound for the halting traversals only.
    fn bypass(self) -> bool {
        !matches!(self, Job::PageRank { .. })
    }

    /// The paper's pick per workload: pull for PageRank, spinlock push
    /// with selection bypass for the traversals.
    pub fn default_engine(self) -> Engine {
        match self {
            Job::PageRank { .. } => Engine::Pull,
            _ => Engine::PushSpin,
        }
    }
}

/// Which engine runs a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `run_sequential`, the COST baseline (ignores selection bypass).
    Seq,
    /// Broadcast (pull) combiner.
    Pull,
    /// Spinlock push combiner.
    PushSpin,
    /// Block-waiting (mutex) push combiner.
    PushMutex,
}

/// Final values of a run, dense over the graph's ids.
#[derive(Debug, Clone, PartialEq)]
pub enum Values {
    /// PageRank.
    F64(Vec<f64>),
    /// Distances, levels or component labels.
    U32(Vec<u32>),
}

/// A finished engine run.
pub struct Finished {
    /// Values keyed by the ids of the graph the run executed on.
    pub values: Values,
    /// The engine's per-superstep record.
    pub stats: RunStats,
    /// Bytes the run held: topology plus framework overhead.
    pub footprint: ipregel::FootprintReport,
    /// Wall-clock of the call.
    pub took: Duration,
}

fn dense<V: Copy>(out: &RunOutput<V>, n: usize, fill: V) -> Vec<V> {
    let mut v = vec![fill; n];
    for (id, &x) in out.iter() {
        v[id as usize] = x;
    }
    v
}

fn exec<P: VertexProgram>(
    graph: &Graph,
    p: &P,
    engine: Engine,
    bypass: bool,
    threads: Option<usize>,
) -> RunOutput<P::Value> {
    let config = RunConfig {
        threads,
        ..RunConfig::default()
    };
    let version = |combiner| Version {
        combiner,
        selection_bypass: bypass,
    };
    match engine {
        Engine::Seq => run_sequential(graph, p, &config),
        Engine::Pull => run(graph, p, version(CombinerKind::Broadcast), &config),
        Engine::PushSpin => run(graph, p, version(CombinerKind::Spinlock), &config),
        Engine::PushMutex => run(graph, p, version(CombinerKind::Mutex), &config),
    }
}

/// Run `job` on `graph` with `engine`; `threads: None` is the global
/// pool (one thread per core).
pub fn run_job(graph: &Graph, job: Job, engine: Engine, threads: Option<usize>) -> Finished {
    let n = graph.num_slots();
    let start = Instant::now();
    macro_rules! go {
        ($p:expr, $wrap:path, $fill:expr) => {{
            let out = exec(graph, &$p, engine, job.bypass(), threads);
            let took = start.elapsed();
            Finished {
                values: $wrap(dense(&out, n, $fill)),
                stats: out.stats,
                footprint: out.footprint,
                took,
            }
        }};
    }
    match job {
        Job::PageRank { rounds } => go!(
            PageRank {
                rounds,
                damping: DAMPING
            },
            Values::F64,
            f64::NAN
        ),
        Job::Sssp { source } => go!(Sssp { source }, Values::U32, oracle::UNREACHED),
        Job::Bfs { source } => go!(Bfs { source }, Values::U32, oracle::UNREACHED),
        Job::Components => go!(Hashmin, Values::U32, oracle::UNREACHED),
    }
}

/// What the oracles need about one input, computed once per run.
pub struct Oracle {
    input: Arc<Input>,
    components: usize,
    ranks: Vec<(usize, Vec<f64>)>,
}

impl Oracle {
    /// Precompute the PageRank vectors for the round counts in `jobs`.
    pub fn new(input: Arc<Input>, jobs: &[Job]) -> Self {
        let components = oracle::count_components(input.n, &input.arcs);
        let mut ranks: Vec<(usize, Vec<f64>)> = Vec::new();
        for job in jobs {
            if let Job::PageRank { rounds } = *job {
                if !ranks.iter().any(|(r, _)| *r == rounds) {
                    ranks.push((
                        rounds,
                        oracle::pagerank(input.n, &input.arcs, rounds, DAMPING),
                    ));
                }
            }
        }
        Oracle {
            input,
            components,
            ranks,
        }
    }

    /// Check `values` (keyed by the input's own ids) for `job`.
    pub fn check(&self, job: Job, values: &Values) -> Result<(), String> {
        let (n, arcs) = (self.input.n, &self.input.arcs);
        match (job, values) {
            (Job::PageRank { rounds }, Values::F64(v)) => {
                let expected = &self
                    .ranks
                    .iter()
                    .find(|(r, _)| *r == rounds)
                    .expect("ranks precomputed for every job")
                    .1;
                oracle::check_pagerank(expected, v)
            }
            (Job::Sssp { source } | Job::Bfs { source }, Values::U32(v)) => {
                oracle::check_distances(n, arcs, source, v)
            }
            (Job::Components, Values::U32(v)) => {
                oracle::check_components(n, arcs, self.components, v)
            }
            _ => Err(format!("{job:?}: values of the wrong type")),
        }
    }
}

/// The relabelled, compressed copy of a graph and the permutation that
/// translates its ids back.
pub struct Compact {
    /// Degree-relabelled graph with compact (delta-varint) adjacency.
    pub graph: Graph,
    /// Original id ↔ relabelled id.
    pub relabeling: Relabeling,
}

impl Compact {
    /// `job` with its source translated into relabelled ids.
    pub fn job(&self, job: Job) -> Job {
        match job {
            Job::Sssp { source } => Job::Sssp {
                source: self.relabeling.new_id(source),
            },
            Job::Bfs { source } => Job::Bfs {
                source: self.relabeling.new_id(source),
            },
            other => other,
        }
    }

    /// `values` keyed by relabelled ids, re-keyed by original ids.
    /// Component labels are ids too; their partition is kept and each
    /// class renamed to its smallest original id.
    pub fn translate(&self, job: Job, values: &Values) -> Values {
        fn back<T: Copy>(r: &Relabeling, v: &[T]) -> Vec<T> {
            let mut out = v.to_vec();
            for (new, &x) in v.iter().enumerate() {
                out[r.old_id(new as u32) as usize] = x;
            }
            out
        }
        match values {
            Values::F64(v) => Values::F64(back(&self.relabeling, v)),
            Values::U32(v) if job == Job::Components => {
                Values::U32(oracle::canonical_labels(&back(&self.relabeling, v)))
            }
            Values::U32(v) => Values::U32(back(&self.relabeling, v)),
        }
    }
}

/// Relabel by descending degree and compress: the compact CSR's
/// preparation, timed as `graph.relabel` and `graph.compress`.
pub fn prepare_compact(graph: &Graph, spans: &Spans, parent: Option<u64>) -> Compact {
    let ((relabeling, plain), _) = spans.time("graph.relabel", parent, || {
        let r = degree_relabeling(graph);
        let g = relabel_graph(graph, &r).expect("relabelling a valid graph yields a valid graph");
        (r, g)
    });
    let (graph, _) = spans.time("graph.compress", parent, || {
        plain.compress().expect("a relabelled graph compresses")
    });
    Compact { graph, relabeling }
}

/// One pass over every neighbour list of `graph`, both directions;
/// returns a checksum so the pass cannot be optimised away.
pub fn scan(graph: &Graph) -> u64 {
    fn pass<L: NeighborList>(l: &L) -> u64 {
        let mut acc = 0u64;
        for v in 0..l.num_slots() as u32 {
            for u in l.neighbors_iter(v) {
                acc = acc.wrapping_mul(31).wrapping_add(u64::from(u));
            }
        }
        acc
    }
    let side = |a: Option<&Adjacency>| match a {
        Some(Adjacency::Plain(c)) => pass(c),
        Some(Adjacency::Compact(c)) => pass(c),
        None => 0,
    };
    std::hint::black_box(side(graph.out_adj()) ^ side(graph.in_adj()))
}

/// Per-round record of the default version's runs, for the per-layer
/// engine metrics.
#[derive(Default)]
struct RoundLayers {
    supersteps: f64,
    messages: f64,
    superstep_s: f64,
    fixed_s: f64,
    selection_s: f64,
    steps: Vec<f64>,
    imbalance: Vec<f64>,
    steals: f64,
    idle_s: f64,
    footprint: ipregel::FootprintReport,
}

/// What the engine rounds of a run collect: one entry per round, each
/// summed over the workload's jobs.
#[derive(Default)]
pub struct EngineSamples {
    pub seq: Vec<f64>,
    pub pull: Vec<f64>,
    pub push_spin: Vec<f64>,
    pub compact_prep: Vec<f64>,
    pub compact: Vec<f64>,
    pub footprint_mb: f64,
    pub compact_footprint_mb: f64,
    /// Wall-clock spent in engine rounds, checks included.
    pub busy: Duration,
    /// Engine results checked, and the checks that failed.
    pub attempted: u64,
    pub errors: Vec<String>,
    rounds: Vec<RoundLayers>,
    push_mutex: Vec<f64>,
    push_spin_1t: Vec<f64>,
    plain_mb: f64,
    compact_mb: f64,
}

const MB: f64 = 1e6;

fn add_footprint(a: &mut ipregel::FootprintReport, b: &ipregel::FootprintReport) {
    // The largest single run: a request holds one run's state at a time.
    if b.total_bytes() > a.total_bytes() {
        *a = *b;
    }
}

/// One engine round over `jobs`: seq, pull and spinlock push, the
/// compact preparation and the default version on the compact graph
/// (plus, traced, the layer probes), every result checked against
/// `oracle`.
pub fn engine_round(
    graph: &Graph,
    jobs: &[Job],
    oracle: &Oracle,
    spans: &Spans,
    traced: bool,
    s: &mut EngineSamples,
) {
    let start = Instant::now();
    let threads = ipregel_par::current_num_threads() as f64;
    let round = spans.begin();
    let mut layers = RoundLayers::default();
    let check = |s: &mut EngineSamples, job: Job, values: &Values| {
        s.attempted += 1;
        if let Err(e) = oracle.check(job, values) {
            s.errors.push(e);
        }
    };
    let timed =
        |s: &mut EngineSamples, engine: Engine, name: &'static str, threads: Option<usize>| {
            let mut total = 0.0;
            let mut outs = Vec::new();
            for &job in jobs {
                let open = spans.begin();
                let f = run_job(graph, job, engine, threads);
                spans.end(open, name, Some(round.id), None);
                total += f.took.as_secs_f64();
                check(s, job, &f.values);
                outs.push((job, f));
            }
            (total, outs)
        };
    let (t, _) = timed(s, Engine::Seq, "engine.seq", None);
    s.seq.push(t);
    let (t, pulls) = timed(s, Engine::Pull, "engine.pull", None);
    s.pull.push(t);
    let (t, spins) = timed(s, Engine::PushSpin, "engine.push_spin", None);
    s.push_spin.push(t);
    let defaults = pulls
        .iter()
        .filter(|(j, _)| j.default_engine() == Engine::Pull);
    for (_, f) in defaults.chain(
        spins
            .iter()
            .filter(|(j, _)| j.default_engine() == Engine::PushSpin),
    ) {
        let st = &f.stats;
        layers.supersteps += st.num_supersteps() as f64;
        layers.messages += st.total_messages() as f64;
        layers.superstep_s += st.total_time.as_secs_f64();
        layers.fixed_s += (f.took - st.total_time.min(f.took)).as_secs_f64();
        layers.selection_s += st.total_selection_time().as_secs_f64();
        layers
            .steps
            .extend(st.supersteps.iter().map(|x| x.duration.as_secs_f64()));
        for load in st.supersteps.iter().filter_map(|x| x.load.as_ref()) {
            layers.imbalance.push(load.duration_imbalance());
            layers.steals += load.steals as f64;
        }
        add_footprint(&mut layers.footprint, &f.footprint);
    }
    for (_, f) in &spins {
        for x in &f.stats.supersteps {
            let busy: f64 = x.load.as_ref().map_or(0.0, |l| {
                l.chunk_durations.iter().map(Duration::as_secs_f64).sum()
            });
            layers.idle_s += (threads * x.duration.as_secs_f64() - busy).max(0.0);
        }
    }
    drop((pulls, spins));

    let prep_open = spans.begin();
    let compact = prepare_compact(graph, spans, Some(prep_open.id));
    s.compact_prep.push(
        spans
            .end(prep_open, "graph.compact_prep", Some(round.id), None)
            .as_secs_f64(),
    );
    let mut total = 0.0;
    let mut compact_fp = ipregel::FootprintReport::default();
    for &job in jobs {
        let open = spans.begin();
        let f = run_job(&compact.graph, compact.job(job), job.default_engine(), None);
        spans.end(open, "engine.compact", Some(round.id), None);
        total += f.took.as_secs_f64();
        check(s, job, &compact.translate(job, &f.values));
        add_footprint(&mut compact_fp, &f.footprint);
    }
    s.compact.push(total);
    s.footprint_mb = layers.footprint.total_bytes() as f64 / MB;
    s.compact_footprint_mb = compact_fp.total_bytes() as f64 / MB;

    if traced {
        let (t, _) = timed(s, Engine::PushMutex, "mailbox.push_mutex", None);
        s.push_mutex.push(t);
        let (t, _) = timed(s, Engine::PushSpin, "engine.push_spin_1t", Some(1));
        s.push_spin_1t.push(t);
        spans.time("graph.scan_plain", Some(round.id), || scan(graph));
        spans.time("graph.scan_compact", Some(round.id), || {
            scan(&compact.graph)
        });
        s.plain_mb = graph.bytes() as f64 / MB;
        s.compact_mb = compact.graph.bytes() as f64 / MB;
    }
    spans.end(round, "engine.round", None, None);
    s.rounds.push(layers);
    s.busy += start.elapsed();
}

/// The per-layer metrics of the graph, engine and mailbox layers, from
/// the rounds of a traced run.
pub fn engine_layers(s: &EngineSamples, spans: &Spans) -> Vec<(&'static str, f64)> {
    let pick =
        |f: &dyn Fn(&RoundLayers) -> f64| median(&s.rounds.iter().map(f).collect::<Vec<_>>());
    let fp = s.rounds.last().map(|r| r.footprint).unwrap_or_default();
    vec![
        ("graph.relabel_s", median(&spans.secs("graph.relabel"))),
        ("graph.compress_s", median(&spans.secs("graph.compress"))),
        (
            "graph.scan_plain_s",
            median(&spans.secs("graph.scan_plain")),
        ),
        (
            "graph.scan_compact_s",
            median(&spans.secs("graph.scan_compact")),
        ),
        ("graph.plain_mb", s.plain_mb),
        ("graph.compact_mb", s.compact_mb),
        ("engine.supersteps", pick(&|r| r.supersteps)),
        ("engine.messages", pick(&|r| r.messages)),
        ("engine.superstep_s", pick(&|r| r.superstep_s)),
        ("engine.fixed_s", pick(&|r| r.fixed_s)),
        ("engine.selection_s", pick(&|r| r.selection_s)),
        ("engine.step_us", pick(&|r| median(&r.steps) * 1e6)),
        ("engine.idle_s", pick(&|r| r.idle_s)),
        ("engine.imbalance", pick(&|r| mean(&r.imbalance))),
        ("engine.steals", pick(&|r| r.steals)),
        ("engine.push_spin_1t_s", median(&s.push_spin_1t)),
        ("mailbox.push_mutex_s", median(&s.push_mutex)),
        ("footprint.values_mb", fp.values_bytes as f64 / MB),
        ("footprint.mailbox_mb", fp.mailbox_bytes as f64 / MB),
        ("footprint.lock_mb", fp.lock_bytes as f64 / MB),
        ("footprint.flags_mb", fp.flags_bytes as f64 / MB),
        ("footprint.worklist_mb", fp.worklist_bytes as f64 / MB),
    ]
}
