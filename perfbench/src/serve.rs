//! Server measurements: `ipregel-server` driven over loopback TCP
//! (`net::serve`) or through its in-process API, every result that
//! carries values checked against the oracles.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipregel::trace::{ServerOutcome, TraceEvent};
use ipregel_graph::Graph;
use ipregel_server::protocol::parse_line;
use ipregel_server::{
    net, Algorithm, Request, RequestOutput, ResultValues, ServerConfig, ServerHandle,
};

use crate::engine::{Job, Oracle, Values, DAMPING};
use crate::spans::Spans;
use crate::stats::{mean, median};

/// How long a client waits on one read or write before it gives up on
/// the connection (a request takes well under a second).
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Start a server over `graph` with one worker per core and
/// `batch_lanes` lanes per batch (1 = every request runs solo).
pub fn start(graph: Arc<Graph>, batch_lanes: usize) -> ServerHandle {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    ServerHandle::start(
        graph,
        ServerConfig {
            workers,
            batch_lanes,
            ..ServerConfig::default()
        },
    )
}

/// The server request for `job`, with the per-algorithm default version.
pub fn request(job: Job) -> Request {
    Request::new(match job {
        Job::PageRank { rounds } => Algorithm::PageRank {
            rounds,
            damping: DAMPING,
        },
        Job::Sssp { source } => Algorithm::Sssp { source },
        Job::Bfs { source } => Algorithm::Bfs { source },
        Job::Components => Algorithm::Components,
    })
}

/// The protocol line for `job`.
pub fn line(job: Job, want_values: bool) -> String {
    let body = match job {
        Job::PageRank { rounds } => {
            format!("\"op\":\"pagerank\",\"rounds\":{rounds},\"damping\":{DAMPING}")
        }
        Job::Sssp { source } => format!("\"op\":\"sssp\",\"source\":{source}"),
        Job::Bfs { source } => format!("\"op\":\"bfs\",\"source\":{source}"),
        Job::Components => "\"op\":\"components\"".to_string(),
    };
    if want_values {
        format!("{{{body},\"values\":true}}")
    } else {
        format!("{{{body}}}")
    }
}

/// Dense values of a served result.
fn dense(values: &ResultValues, n: usize) -> Values {
    match values {
        ResultValues::U32(pairs) => {
            let mut v = vec![u32::MAX; n];
            pairs.iter().for_each(|&(id, x)| v[id as usize] = x);
            Values::U32(v)
        }
        ResultValues::F64Bits(pairs) => {
            let mut v = vec![f64::NAN; n];
            pairs
                .iter()
                .for_each(|&(id, b)| v[id as usize] = f64::from_bits(b));
            Values::F64(v)
        }
    }
}

/// What a serving phase measured.
#[derive(Default)]
pub struct ServeSamples {
    /// Client-side latency of every completed request, in ms.
    pub latency_ms: Vec<f64>,
    /// Time the phase spent with requests outstanding.
    pub busy: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// (request id, client latency ms, first request on a fresh
    /// connection) — matched against the server's trace.
    pub by_id: Vec<(u64, f64, bool)>,
    /// Engine messages per completed request.
    pub messages: Vec<f64>,
    /// Response line bytes (TCP only).
    pub response_bytes: Vec<f64>,
    /// The first protocol lines sent (in-process: the lines that would
    /// carry the submitted requests), for the parse probe.
    pub lines: Vec<String>,
    /// The first jobs served, for the isolated-run probe.
    pub jobs: Vec<Job>,
}

impl ServeSamples {
    /// Record one settled request.
    fn settle(&mut self, id: u64, latency: Duration, fresh: bool, job: Job) {
        let ms = latency.as_secs_f64() * 1e3;
        self.latency_ms.push(ms);
        self.by_id.push((id, ms, fresh));
        if self.jobs.len() < 16 {
            self.jobs.push(job);
        }
    }
}

/// One round of a closed loop of one in-process caller over
/// `submit_batch`: each burst is submitted at once and awaited in
/// submission order before the next; results are checked between
/// bursts, off the clock.
pub fn burst_round(
    server: &ServerHandle,
    bursts: Vec<Vec<Job>>,
    oracle: &Oracle,
    spans: &Spans,
    s: &mut ServeSamples,
) {
    let n = server.graph().num_slots();
    for jobs in bursts {
        burst(server, &jobs, n, oracle, spans, s);
    }
}

/// Submit one burst, await every ticket in submission order, then
/// check the results off the clock.
fn burst(
    server: &ServerHandle,
    jobs: &[Job],
    n: usize,
    oracle: &Oracle,
    spans: &Spans,
    s: &mut ServeSamples,
) {
    let burst = spans.begin();
    let start = Instant::now();
    let tickets = server.submit_batch(jobs.iter().map(|&j| request(j)).collect());
    let mut outputs: Vec<(Job, RequestOutput)> = Vec::with_capacity(jobs.len());
    for (&job, ticket) in jobs.iter().zip(tickets) {
        s.attempted += 1;
        let result = ticket.map_err(|e| e.to_string()).and_then(|t| {
            let id = t.id();
            t.wait().map(|out| (id, out)).map_err(|e| e.to_string())
        });
        match result {
            Ok((id, out)) => {
                let open = spans.begin_at(start);
                let took = spans.end(open, "server.request", Some(burst.id), Some(id));
                s.settle(id, took, false, job);
                outputs.push((job, out));
            }
            Err(e) => {
                s.failed += 1;
                s.errors.push(format!("{job:?}: {e}"));
            }
        }
    }
    s.busy += spans.end(burst, "server.burst", None, None);
    for (job, out) in outputs {
        s.messages.push(out.messages as f64);
        if let Err(e) = oracle.check(job, &dense(&out.values, n)) {
            s.failed += 1;
            s.errors.push(e);
        }
        if s.lines.len() < 64 {
            s.lines.push(line(job, false));
        }
    }
}

/// One client's script for a TCP round: sessions of (job, want values).
pub type Script = Vec<Vec<(Job, bool)>>;

/// One response line as a client received it.
struct Received {
    job: Job,
    want_values: bool,
    latency: Duration,
    fresh: bool,
    line: String,
}

/// Connect to `addr` with [`CLIENT_TIMEOUT`] on reads and writes.
fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    Ok((stream.try_clone()?, BufReader::new(stream)))
}

/// Play `script` against `addr`: one connection per session, one
/// request line at a time, each answered before the next is sent. The
/// first I/O error ends the script; what was received until then is
/// returned with it.
fn client(addr: SocketAddr, script: &Script) -> (Vec<Received>, Option<std::io::Error>) {
    let mut got = Vec::new();
    let play = |got: &mut Vec<Received>| -> std::io::Result<()> {
        for session in script {
            let (mut writer, mut reader) = connect(addr)?;
            for (i, &(job, want_values)) in session.iter().enumerate() {
                let mut request = line(job, want_values);
                request.push('\n');
                let start = Instant::now();
                writer.write_all(request.as_bytes())?;
                let mut response = String::new();
                if reader.read_line(&mut response)? == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                let latency = start.elapsed();
                got.push(Received {
                    job,
                    want_values,
                    latency,
                    fresh: i == 0,
                    line: response,
                });
            }
        }
        Ok(())
    };
    let error = play(&mut got).err();
    (got, error)
}

/// Bring a `net::serve` loop whose line budget its clients left
/// `missing` lines short to its end: send that many `ping` lines on one
/// more connection. The connection is returned, to be closed only once
/// the loop has ended (closing earlier would fail the answers, which
/// then would not count). The answers are not read.
fn pad(addr: SocketAddr, missing: usize) -> std::io::Result<Option<TcpStream>> {
    if missing == 0 {
        return Ok(None);
    }
    let (mut writer, _) = connect(addr)?;
    writer.write_all("{\"op\":\"ping\"}\n".repeat(missing).as_bytes())?;
    Ok(Some(writer))
}

/// A field `"name":<integer>` of a flat response line.
fn field(line: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let at = line.find(&key)? + key.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The `[[id,value],...]` array after `"name":` in a response line.
fn pairs(line: &str, name: &str) -> Option<Vec<(u32, u64)>> {
    let key = format!("\"{name}\":[");
    let body = &line[line.find(&key)? + key.len()..];
    let mut out = Vec::new();
    let mut nums = [0u64; 2];
    let (mut k, mut cur, mut in_num) = (0usize, 0u64, false);
    for b in body.bytes() {
        match b {
            b'0'..=b'9' => {
                cur = cur.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
                in_num = true;
            }
            _ => {
                if in_num {
                    *nums.get_mut(k)? = cur;
                    k += 1;
                    cur = 0;
                    in_num = false;
                }
                if b == b']' {
                    if k == 2 {
                        out.push((u32::try_from(nums[0]).ok()?, nums[1]));
                        k = 0;
                    } else if k == 0 {
                        return Some(out);
                    } else {
                        return None;
                    }
                }
            }
        }
    }
    None
}

/// Check one response line: it must be `ok`, and values it carries
/// must pass the oracle. Returns the request id.
fn check_response(r: &Received, n: usize, oracle: &Oracle) -> Result<u64, String> {
    if !r.line.starts_with("{\"ok\":true") {
        return Err(format!("{:?}: {}", r.job, r.line.trim_end()));
    }
    let id = field(&r.line, "id").ok_or_else(|| format!("{:?}: response without id", r.job))?;
    if r.want_values {
        let values = if let Some(p) = pairs(&r.line, "values") {
            ResultValues::U32(p.into_iter().map(|(id, v)| (id, v as u32)).collect())
        } else {
            ResultValues::F64Bits(pairs(&r.line, "values_bits").ok_or("response without values")?)
        };
        oracle.check(r.job, &dense(&values, n))?;
    }
    Ok(id)
}

/// One round of closed-loop TCP traffic: `net::serve` answers exactly
/// the lines of one script per client, each client on its own thread;
/// responses are checked after the round, off the clock. Lines a client
/// could not get answered are attempted and failed; the serve loop is
/// brought to its end with [`pad`] so that the round still ends.
pub fn tcp_round(
    server: &ServerHandle,
    listener: &TcpListener,
    scripts: Vec<Script>,
    oracle: &Oracle,
    spans: &Spans,
    s: &mut ServeSamples,
) {
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let n = server.graph().num_slots();
    let lines: usize = scripts.iter().flatten().map(Vec::len).sum();
    let round = spans.begin();
    let (results, busy) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| net::serve(server, listener, Some(lines as u64)));
        let start = Instant::now();
        let clients: Vec<_> = scripts
            .iter()
            .map(|script| scope.spawn(move || client(addr, script)))
            .collect();
        let results: Vec<_> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        let busy = start.elapsed();
        let answered: usize = results.iter().map(|(got, _)| got.len()).sum();
        let padding = pad(addr, lines - answered).expect("padding connection to the serve loop");
        serving
            .join()
            .expect("serve thread panicked")
            .expect("serve loop failed");
        drop(padding);
        (results, busy)
    });
    spans.end(round, "server.tcp_round", None, None);
    s.busy += busy;
    let answered: usize = results.iter().map(|(got, _)| got.len()).sum();
    s.attempted += (lines - answered) as u64;
    s.failed += (lines - answered) as u64;
    for (received, error) in results {
        if let Some(e) = error {
            s.errors.push(format!("client: {e}"));
        }
        for r in received {
            s.attempted += 1;
            match check_response(&r, n, oracle) {
                Ok(id) => {
                    s.settle(id, r.latency, r.fresh, r.job);
                    s.messages
                        .push(field(&r.line, "messages").unwrap_or(0) as f64);
                    s.response_bytes.push(r.line.len() as f64);
                    if s.lines.len() < 64 {
                        s.lines.push(line(r.job, r.want_values));
                    }
                }
                Err(e) => {
                    s.failed += 1;
                    s.errors.push(e);
                }
            }
        }
    }
}

/// First-line latency on `count` fresh connections, each sending one
/// `ping`: the connection set-up cost of a server with no TCP traffic
/// of its own.
pub fn connect_probe(server: &ServerHandle, listener: &TcpListener, count: usize) -> Vec<f64> {
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| net::serve(server, listener, Some(count as u64)));
        let mut ms = Vec::new();
        for _ in 0..count {
            let start = Instant::now();
            if ping(addr).is_ok() {
                ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
        let padding = pad(addr, count - ms.len()).expect("padding connection to the serve loop");
        serving
            .join()
            .expect("serve thread panicked")
            .expect("serve loop failed");
        drop(padding);
        ms
    })
}

/// Connect to `addr` and get one `ping` answered.
fn ping(addr: SocketAddr) -> std::io::Result<()> {
    let (mut writer, mut reader) = connect(addr)?;
    writer.write_all(b"{\"op\":\"ping\"}\n")?;
    let mut response = String::new();
    reader.read_line(&mut response)?;
    if response.contains("\"pong\":true") {
        Ok(())
    } else {
        Err(std::io::Error::other(format!(
            "bad ping response {response:?}"
        )))
    }
}

/// Per-layer server metrics from the phase's samples and the server's
/// trace (`events`, present in traced builds only).
pub fn layers(
    s: &ServeSamples,
    events: &[TraceEvent],
    graph: &Graph,
    connect_ms: &[f64],
) -> Vec<(&'static str, f64)> {
    let mut trace: HashMap<u64, (f64, f64, f64)> = HashMap::new();
    for e in events {
        if let TraceEvent::ServerRequest {
            id,
            queue_ns,
            run_ns,
            lanes,
            outcome: ServerOutcome::Ok,
            ..
        } = *e
        {
            trace.insert(
                id,
                (queue_ns as f64 * 1e-6, run_ns as f64 * 1e-6, lanes as f64),
            );
        }
    }
    let (mut queue, mut run, mut lanes, mut wire, mut first) =
        (vec![], vec![], vec![], vec![], vec![]);
    for &(id, ms, fresh) in &s.by_id {
        if let Some(&(q, r, l)) = trace.get(&id) {
            queue.push(q);
            run.push(r);
            lanes.push(l);
            if fresh { &mut first } else { &mut wire }.push(ms - q - r);
        }
    }
    let connect = if first.is_empty() {
        median(connect_ms)
    } else {
        median(&first)
    };
    let isolated: Vec<f64> = s
        .jobs
        .iter()
        .map(|&job| {
            let start = Instant::now();
            let out = ipregel_server::run_isolated(graph, &request(job))
                .expect("isolated run of a served request");
            std::hint::black_box(out);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let parse_reps = 200;
    let start = Instant::now();
    for _ in 0..parse_reps {
        for l in &s.lines {
            std::hint::black_box(
                parse_line(std::hint::black_box(l)).expect("benchmark lines parse"),
            );
        }
    }
    let parse_us = start.elapsed().as_secs_f64() * 1e6 / (parse_reps * s.lines.len().max(1)) as f64;
    vec![
        ("server.queue_ms", median(&queue)),
        ("server.run_ms", median(&run)),
        ("server.isolated_ms", median(&isolated)),
        ("server.wire_ms", median(&wire)),
        ("server.connect_ms", connect),
        ("server.parse_us", parse_us),
        ("server.response_kb", mean(&s.response_bytes) / 1e3),
        ("server.batch_width", mean(&lanes)),
        ("server.messages_per_req", mean(&s.messages)),
    ]
}
