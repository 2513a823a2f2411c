//! One run of one benchmark workload.
//!
//! ```text
//! perfbench --workload <rmat-pagerank|serve-tcp|serve-burst>
//!           --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Builds the workload's input from the seed, writes it as an IPGB file
//! under `--work-dir`, times set-up, an engine phase and a serving phase,
//! checks every result against the oracles in `oracle.rs`, and prints a
//! detail line (machine, seed, sample counts, every metric) followed by
//! the result line: `{"correct", "attempted", "failed", "metrics"}` with
//! the end-to-end metrics (`--trace 0`, untraced build) or the per-layer
//! metrics (`--trace 1`, build with the `trace` feature).

mod engine;
mod inputs;
mod oracle;
mod serve;
mod spans;
mod stats;

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipregel_graph::rng::{RngExt, SeedableRng, StdRng};

use engine::{engine_layers, engine_round, EngineSamples, Job, Oracle};
use serve::{Script, ServeSamples};
use spans::Spans;
use stats::{median, quantile};

/// Build profile of this binary, reported with every run.
const PROFILE: &str = if cfg!(feature = "trace") {
    "traced"
} else if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// The workloads and what sets each apart. The discriminants feed the
/// run's seed, so they stay fixed: a seed keeps giving the same inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Symmetrised R-MAT 2^17, PageRank: skewed, every vertex active.
    RmatPageRank = 0,
    /// Resident R-MAT 2^15 behind `net::serve`, two TCP clients.
    ServeTcp = 2,
    /// The same server with 8 batch lanes, one in-process burst caller.
    ServeBurst = 3,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "rmat-pagerank" => Workload::RmatPageRank,
            "serve-tcp" => Workload::ServeTcp,
            "serve-burst" => Workload::ServeBurst,
            _ => return None,
        })
    }

    fn is_server(self) -> bool {
        matches!(self, Workload::ServeTcp | Workload::ServeBurst)
    }

    /// Share of the run's seconds given to the engine phase; the
    /// serving phase gets the rest.
    fn engine_share(self) -> f64 {
        if self.is_server() {
            0.5
        } else {
            0.8
        }
    }

    /// The percentile behind `req_tail_ms`, and the least number of
    /// requests a run settles: at that count at least ten samples lie
    /// beyond the percentile.
    fn tail(self) -> (f64, usize) {
        if self.is_server() {
            (0.95, 200)
        } else {
            (0.75, 40)
        }
    }
}

/// Set-ups timed per run (`setup_s` is their median).
const SETUP_REPEATS: usize = 9;
/// PageRank rounds on the engine workload and on the server mix.
const PAGERANK_ROUNDS: usize = 10;
const SERVER_PAGERANK_ROUNDS: usize = 5;
/// Engine rounds per run, at least.
const MIN_ENGINE_ROUNDS: usize = 5;
/// Fresh connections in the connect probe of a traced run.
const CONNECT_PROBES: usize = 10;
/// A run still going this long after its `--seconds` is stuck: it is
/// stopped without a result line.
const OVERRUN: Duration = Duration::from_secs(90);

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let traced = match trace.as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    if traced != cfg!(feature = "trace") {
        return Err(format!(
            "--trace {} needs the {} build (this one is {PROFILE})",
            u8::from(traced),
            if traced { "traced" } else { "untraced" }
        ));
    }
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        traced,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Everything one run measured.
#[derive(Default)]
struct Outcome {
    end_to_end: Vec<(&'static str, f64, &'static str)>,
    per_layer: Vec<(&'static str, f64, &'static str)>,
    samples: Vec<(&'static str, usize)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Unit of a per-layer metric, from its name's suffix.
fn unit_of(name: &str) -> &'static str {
    match name.rsplit('_').next() {
        Some("s") => "s",
        Some("ms") => "ms",
        Some("us") => "us",
        Some("mb") => "MB",
        Some("kb") => "KB",
        _ => match name {
            "engine.imbalance" => "ratio",
            "server.batch_width" => "lanes",
            _ => "count",
        },
    }
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..i + 1));
    }
}

/// One serve-burst round: twelve bursts, one per combination of
/// K ∈ {2, 4, 8} distinct-source traversals, SSSP or BFS, and with or
/// without one PageRank request, in seeded order with seeded sources.
fn burst_round(rng: &mut StdRng, pick_source: &mut impl FnMut() -> u32) -> Vec<Vec<Job>> {
    let mut kinds: Vec<(usize, bool, bool)> = Vec::new();
    for k in [2, 4, 8] {
        for bfs in [false, true] {
            for pagerank in [false, true] {
                kinds.push((k, bfs, pagerank));
            }
        }
    }
    shuffle(rng, &mut kinds);
    kinds
        .into_iter()
        .map(|(k, bfs, pagerank)| {
            let mut burst: Vec<Job> = Vec::with_capacity(k + 1);
            while burst.len() < k {
                let source = pick_source();
                let job = if bfs {
                    Job::Bfs { source }
                } else {
                    Job::Sssp { source }
                };
                if !burst.contains(&job) {
                    burst.push(job);
                }
            }
            if pagerank {
                burst.push(Job::PageRank {
                    rounds: SERVER_PAGERANK_ROUNDS,
                });
            }
            burst
        })
        .collect()
}

/// One serve-tcp client's round: 24 requests (8 SSSP, 8 BFS, 4
/// components, 4 PageRank; 3 of them asking for values) in seeded
/// order, cut into sessions of 1, 2, 3, 4, 6 and 8 requests in seeded
/// order, each session on a fresh connection.
fn tcp_script(rng: &mut StdRng, pick_source: &mut impl FnMut() -> u32) -> Script {
    let mut jobs: Vec<Job> = Vec::new();
    for _ in 0..8 {
        jobs.push(Job::Sssp {
            source: pick_source(),
        });
        jobs.push(Job::Bfs {
            source: pick_source(),
        });
    }
    for _ in 0..4 {
        jobs.push(Job::Components);
        jobs.push(Job::PageRank {
            rounds: SERVER_PAGERANK_ROUNDS,
        });
    }
    let mut values: Vec<bool> = (0..jobs.len()).map(|i| i < 3).collect();
    let mut sessions = vec![1, 2, 3, 4, 6, 8];
    shuffle(rng, &mut jobs);
    shuffle(rng, &mut values);
    shuffle(rng, &mut sessions);
    let mut requests = jobs.into_iter().zip(values);
    sessions
        .into_iter()
        .map(|len| requests.by_ref().take(len).collect())
        .collect()
}

fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let spans = Spans::new(args.traced);
    let mut rng = StdRng::seed_from_u64(args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ w as u64);
    let input = Arc::new(match w {
        Workload::RmatPageRank => inputs::rmat(17, rng.next_u64()),
        Workload::ServeTcp | Workload::ServeBurst => inputs::rmat(15, rng.next_u64()),
    });
    std::fs::create_dir_all(&args.work_dir).expect("work directory can be created");
    let path = inputs::input_path(&args.work_dir, &args.name, args.seed);
    input.write(&path).expect("input file can be written");
    let mut pick_source = {
        let mut rng = StdRng::seed_from_u64(rng.next_u64());
        let input = Arc::clone(&input);
        move || input.sources[rng.random_range(0..input.sources.len())]
    };
    // The engine phase's jobs: the workload's query, or for the server
    // workloads one request of each kind in the mix.
    let jobs: Vec<Job> = match w {
        Workload::RmatPageRank => vec![Job::PageRank {
            rounds: PAGERANK_ROUNDS,
        }],
        Workload::ServeTcp | Workload::ServeBurst => vec![
            Job::Sssp {
                source: pick_source(),
            },
            Job::Bfs {
                source: pick_source(),
            },
            Job::Components,
            Job::PageRank {
                rounds: SERVER_PAGERANK_ROUNDS,
            },
        ],
    };
    let oracle = Oracle::new(Arc::clone(&input), &jobs);
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");

    // Set-up: file → queryable graph, several times.
    let mut setup = Vec::new();
    let mut server = None;
    let mut graph = None;
    for _ in 0..SETUP_REPEATS {
        drop(server.take().map(ipregel_server::ServerHandle::shutdown));
        drop(graph.take());
        let open = spans.begin();
        let (g, _) = spans.time("graph.load", Some(open.id), || inputs::load(&path));
        if w.is_server() {
            let handle = serve::start(Arc::new(g), if w == Workload::ServeBurst { 8 } else { 1 });
            // The first ping goes in-process on both server workloads:
            // over TCP it would race `net::serve`'s first accept against
            // the connect, adding a 20 ms poll to some set-ups and not
            // others (the poll shows in `server.connect_ms` instead).
            let pong = handle.handle_line("{\"op\":\"ping\"}");
            let took = spans.end(open, "setup", None, None);
            assert!(
                pong.contains("\"pong\":true"),
                "first ping answered: {pong}"
            );
            setup.push(took.as_secs_f64());
            server = Some(handle);
        } else {
            setup.push(spans.end(open, "setup", None, None).as_secs_f64());
            graph = Some(Arc::new(g));
        }
    }
    let graph = graph.unwrap_or_else(|| {
        Arc::clone(
            server
                .as_ref()
                .expect("server workloads keep a server")
                .graph(),
        )
    });

    let mut out = Outcome::default();
    let server = server.unwrap_or_else(|| serve::start(Arc::clone(&graph), 1));
    let seconds = Duration::from_secs_f64(args.seconds);
    let engine_budget = seconds.mul_f64(w.engine_share());
    let serve_budget = seconds - engine_budget;
    let (tail_q, min_requests) = w.tail();
    let mut rng = StdRng::seed_from_u64(rng.next_u64());
    let clients = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let mut e = EngineSamples::default();
    let mut s = ServeSamples::default();
    // Engine rounds and traffic rounds alternate, each phase taking the
    // next turn while it is further behind its share of the run, so both
    // sample the whole run rather than one end of it.
    loop {
        let engine_left = e.seq.len() < MIN_ENGINE_ROUNDS || e.busy < engine_budget;
        let serve_left = s.latency_ms.len() < min_requests || s.busy < serve_budget;
        let engine_turn = engine_left
            && (!serve_left
                || e.busy.as_secs_f64() / engine_budget.as_secs_f64()
                    <= s.busy.as_secs_f64() / serve_budget.as_secs_f64());
        if engine_turn {
            engine_round(&graph, &jobs, &oracle, &spans, args.traced, &mut e);
            continue;
        }
        if !serve_left {
            break;
        }
        match w {
            Workload::RmatPageRank => {
                serve::burst_round(&server, vec![jobs.clone()], &oracle, &spans, &mut s)
            }
            Workload::ServeBurst => {
                let bursts = burst_round(&mut rng, &mut pick_source);
                serve::burst_round(&server, bursts, &oracle, &spans, &mut s)
            }
            Workload::ServeTcp => {
                let scripts = (0..clients)
                    .map(|_| tcp_script(&mut rng, &mut pick_source))
                    .collect();
                serve::tcp_round(&server, &listener, scripts, &oracle, &spans, &mut s)
            }
        }
    }
    let connect_probe = if args.traced && w != Workload::ServeTcp {
        serve::connect_probe(&server, &listener, CONNECT_PROBES)
    } else {
        vec![]
    };
    let report = server.shutdown();
    let _ = std::fs::remove_file(&path);

    out.end_to_end = vec![
        ("setup_s", median(&setup), "s"),
        ("seq_s", median(&e.seq), "s"),
        ("pull_s", median(&e.pull), "s"),
        ("push_spin_s", median(&e.push_spin), "s"),
        ("compact_prep_s", median(&e.compact_prep), "s"),
        ("compact_s", median(&e.compact), "s"),
        ("footprint_mb", e.footprint_mb, "MB"),
        ("compact_footprint_mb", e.compact_footprint_mb, "MB"),
        ("req_p50_ms", median(&s.latency_ms), "ms"),
        ("req_tail_ms", quantile(&s.latency_ms, tail_q), "ms"),
        (
            "req_per_s",
            s.latency_ms.len() as f64 / s.busy.as_secs_f64(),
            "1/s",
        ),
    ];
    if args.traced {
        let mut layers = vec![("graph.load_s", median(&spans.secs("graph.load")))];
        layers.extend(engine_layers(&e, &spans));
        layers.extend(serve::layers(&s, &report.events, &graph, &connect_probe));
        out.per_layer = layers
            .into_iter()
            .map(|(n, v)| (n, v, unit_of(n)))
            .collect();
    }
    out.samples = vec![
        ("setup", setup.len()),
        ("engine_rounds", e.seq.len()),
        ("requests", s.latency_ms.len()),
    ];
    // Every engine error is one result that failed its check.
    out.attempted = e.attempted + s.attempted;
    out.failed = s.failed + e.errors.len() as u64;
    out.errors = e.errors.into_iter().chain(s.errors).collect();
    if args.traced {
        let stem = format!("{}-seed{}.jsonl", args.name, args.seed);
        spans
            .write_jsonl(&args.work_dir.join(format!("spans-{stem}")))
            .expect("span file can be written");
        std::fs::write(
            args.work_dir.join(format!("server-trace-{stem}")),
            report.trace_jsonl(),
        )
        .expect("server trace can be written");
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let limit = Duration::from_secs_f64(args.seconds) + OVERRUN;
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run still going after {limit:?}; stopped");
        std::process::exit(3);
    });
    let out = run(&args);
    let metrics = |m: &[(&str, f64, &str)]| {
        let fields: Vec<String> = m
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(n),
                    json_num(*v),
                    json_str(u)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    };
    let shown = if args.traced {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    for e in out.errors.iter().take(10) {
        eprintln!("perfbench: check failed: {e}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(n, c)| format!("{}:{c}", json_str(n)))
        .collect();
    println!(
        "{{\"detail\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"machine\":{{\"nproc\":{nproc},\"cpu\":{},\"profile\":{}}},\"attempted\":{},\"failed\":{},\"errors\":{},\"samples\":{{{}}},\"wall_s\":{},\"end_to_end\":{},\"per_layer\":{}}}}}",
        json_str(&args.name),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        json_str(&cpu_model()),
        json_str(PROFILE),
        out.attempted,
        out.failed,
        out.errors.len(),
        samples.join(","),
        started.elapsed().as_secs_f64(),
        metrics(&out.end_to_end),
        metrics(&out.per_layer),
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        metrics(shown)
    );
}
