//! `serve-mixed`: an in-process `gpm_serve` daemon (2 workers) driven by
//! a closed loop of 2 connections. Each connection sends its next job only
//! after the previous reply arrived.
//!
//! The job stream is generated from the seed, one stream per connection,
//! over a pre-generated pool of Delaunay, road and ldoor graphs of a few
//! thousand to a few tens of thousands of vertices, with k in
//! {8, 16, 32, 64}:
//! * 9 jobs in 16 repeat one of the connection's 64 most recent distinct
//!   jobs, so they must be cache hits;
//! * one distinct job in 5 runs mt-metis, the rest GP-metis;
//! * one distinct job in 64 carries a `gpu.launch=lost` fault plan with
//!   `fallback`. The faults are spaced so that no window of 8 device jobs
//!   holds 3 of them, so the circuit breaker never trips and every run is
//!   deterministic.
//!
//! The first 500 jobs of each connection form the measured window: its
//! deterministic numbers (cuts, modeled seconds, daemon counters) are
//! read at a barrier where both connections are idle. The run continues
//! past the window until `--seconds` have passed; throughput and latency
//! cover every job.

use crate::report::Report;
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use gpm_graph::csr::CsrGraph;
use gpm_graph::rng::{shuffle, SplitMix64};
use gpm_serve::protocol::{self, Algo, JobReply, JobRequest, Response, FT_JOB, FT_STATS};
use gpm_serve::{ServeConfig, ServerHandle};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
/// Jobs per connection in the measured window (1000 in all, so the p99
/// has ten samples beyond it).
const WINDOW_PER_CONN: usize = 500;
/// Repeats draw from this many most recent distinct jobs of a connection.
const RECENT: usize = 64;
/// Seconds a stopping daemon may take to join its threads.
const STOP_TIMEOUT_S: u64 = 20;
/// Result-cache capacity: well above both connections' recent sets, so
/// every repeat is a hit.
const CACHE_CAP: usize = 512;
/// Graphs below this size never reach the device, so a fault plan on
/// them would never fire; fault jobs use larger graphs.
const FAULT_MIN_N: usize = 6_000;
/// One distinct job in this many carries a fault plan.
const FAULT_EVERY: u64 = 64;
/// One distinct job in this many runs mt-metis.
const MT_EVERY: u64 = 5;
/// One non-degraded miss in this many is recomputed in-process after the
/// run and must match the daemon's partition.
const VERIFY_EVERY: usize = 25;
const KS: [u32; 4] = [8, 16, 32, 64];

/// Pool graph sizes per family (Delaunay, roads, ldoor). Sizes are fixed
/// so every seed costs about the same; the seed picks the Delaunay and
/// road instances, while the ldoor generator takes no seed, so the ldoor
/// graphs are the same for every seed. ldoor is ~15x denser than the
/// others, so its graphs are smaller.
const POOL_SIZES: [[usize; 4]; 3] =
    [[3_000, 5_000, 10_000, 20_000], [3_000, 5_000, 10_000, 20_000], [2_000, 3_000, 4_500, 6_000]];

/// The graph pool, generated from the seed.
fn make_pool(seed: u64) -> Vec<CsrGraph> {
    let mut pool = Vec::new();
    for (family, sizes) in POOL_SIZES.iter().enumerate() {
        for &n in sizes {
            let gseed = seed.wrapping_mul(1000).wrapping_add(pool.len() as u64);
            pool.push(match family {
                0 => gpm_graph::gen::delaunay_like(n, gseed),
                1 => gpm_graph::gen::usa_roads_like(n, gseed),
                _ => gpm_graph::gen::ldoor_like(n),
            });
        }
    }
    pool
}

/// One job of the stream (without its tag).
#[derive(Clone)]
struct Spec {
    /// 1-based index of the job among its connection's distinct jobs.
    ordinal: u64,
    graph: usize,
    k: u32,
    seed: u64,
    algo: Algo,
    /// `GPM_FAULTS`-syntax plan, empty for clean jobs.
    faults: String,
}

impl Spec {
    fn request(&self, pool: &[CsrGraph], tag: u64) -> JobRequest {
        let mut r = JobRequest::new(pool[self.graph].clone(), self.k);
        r.tag = tag;
        r.seed = self.seed;
        r.algo = self.algo;
        if !self.faults.is_empty() {
            r.fault_plan = Some(gpm_faults::FaultPlan::parse(&self.faults).expect("valid plan"));
            r.fault_plan_str = self.faults.clone();
            r.fallback = true;
        }
        r
    }
}

/// Distinct jobs per connection whose cuts enter `cut_geomean`: four
/// whole cycles over the (graph, k) pairs. Every window holds them (each
/// block of 16 jobs has 7 distinct ones, so a connection's window has at
/// least 217), so every seed averages the same mix of graphs and k.
const CUT_JOBS: u64 = 4 * (POOL_SIZES.len() * POOL_SIZES[0].len() * KS.len()) as u64;

/// Jobs per block of the stream, and how many of them repeat earlier
/// jobs. Slightly over half are hits, so the median latency falls inside
/// the hit cluster rather than on the gap between hits and misses, where
/// it would swing between the two.
const BLOCK: usize = 16;
const REPEATS: usize = 9;

/// A connection's job generator. The mix is balanced rather than drawn
/// independently, so that every seed's window carries nearly the same
/// work: each block of [`BLOCK`] jobs holds exactly [`REPEATS`] repeats, and
/// distinct jobs walk seed-shuffled cycles over every (graph, k) pair.
struct Stream {
    conn: usize,
    rng: SplitMix64,
    distinct: u64,
    /// Repeat (true) or distinct (false) for the rest of the current block.
    block: Vec<bool>,
    /// The rest of the current cycle of (graph, k) pairs.
    cycle: Vec<(usize, u32)>,
    /// Recent distinct jobs and their normalized first replies.
    recent: VecDeque<(Spec, Vec<u8>)>,
}

impl Stream {
    fn new(seed: u64, conn: usize) -> Stream {
        Stream {
            conn,
            rng: SplitMix64::new(seed.wrapping_mul(31).wrapping_add(conn as u64 + 1)),
            distinct: 0,
            block: Vec::new(),
            cycle: Vec::new(),
            recent: VecDeque::new(),
        }
    }

    /// The next job, and the index into `recent` when it is a repeat.
    fn next(&mut self, pool: &[CsrGraph]) -> (Spec, Option<usize>) {
        if self.block.is_empty() {
            self.block = (0..BLOCK).map(|i| i < REPEATS).collect();
            shuffle(&mut self.block, &mut self.rng);
        }
        let repeat = self.block.pop().expect("refilled above");
        if repeat && !self.recent.is_empty() {
            let i = self.rng.below(self.recent.len() as u64) as usize;
            return (self.recent[i].0.clone(), Some(i));
        }
        if self.cycle.is_empty() {
            self.cycle = (0..pool.len()).flat_map(|g| KS.map(|k| (g, k))).collect();
            shuffle(&mut self.cycle, &mut self.rng);
        }
        let (mut graph, k) = self.cycle.pop().expect("refilled above");
        self.distinct += 1;
        // Distinct seeds per connection keep the two streams' keys apart.
        let seed = (self.conn as u64 + 1) * 1_000_000 + self.distinct;
        let fault = self.distinct % FAULT_EVERY == FAULT_EVERY / 2 - 1;
        let mt = !fault && self.distinct % MT_EVERY == 2;
        if fault && pool[graph].n() < FAULT_MIN_N {
            let big: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].n() >= FAULT_MIN_N).collect();
            graph = big[self.rng.below(big.len() as u64) as usize];
        }
        let faults = if fault { format!("{seed}:gpu.launch@20=lost") } else { String::new() };
        let algo = if mt { Algo::MtMetis } else { Algo::GpMetis };
        (Spec { ordinal: self.distinct, graph, k, seed, algo, faults }, None)
    }

    fn remember(&mut self, spec: Spec, reply: Vec<u8>) {
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back((spec, reply));
    }
}

/// The reply with its tag, hit flag and wall time cleared: a cache hit
/// must encode to exactly these bytes of the first reply for its key.
fn normalized(reply: &JobReply) -> Vec<u8> {
    let mut r = reply.clone();
    r.tag = 0;
    r.cache_hit = false;
    r.telemetry.wall_us = 0;
    protocol::encode_job_ok(&r)
}

/// One completed job, as the client saw it.
struct Done {
    conn: usize,
    index: usize,
    spec: Spec,
    latency_s: f64,
    request_bytes: usize,
    reply_bytes: usize,
    reply: JobReply,
}

/// Daemon and process counters read at the end of the window.
#[derive(Default)]
struct WindowStats {
    wall_s: f64,
    daemon: Vec<(String, u64)>,
    pool: gpm_pool::PoolStats,
    /// Peak RSS so far, read here rather than at the end of the run so
    /// that it covers the same jobs however fast the host is.
    peak_rss_mb: f64,
}

impl WindowStats {
    fn get(&self, key: &str) -> Result<u64, String> {
        self.daemon
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("daemon stats lack {key}"))
    }
}

/// Prefix of the errors that leave a connection unusable (the job's
/// reply is lost).
const TRANSPORT: &str = "lost";

fn frame_roundtrip(
    s: &mut TcpStream,
    ft: u32,
    payload: &[u8],
) -> Result<(Response, usize), String> {
    protocol::write_frame(s, ft, payload).map_err(|e| format!("{TRANSPORT}: send: {e}"))?;
    match protocol::read_frame(s).map_err(|e| format!("{TRANSPORT}: receive: {e}"))? {
        Some((ft, body)) => protocol::decode_response(ft, &body)
            .map(|r| (r, body.len()))
            .map_err(|e| format!("{TRANSPORT}: decode: {e}")),
        None => Err(format!("{TRANSPORT}: connection closed before the reply")),
    }
}

/// Everything one measured run produced.
struct RunOutput {
    done: Vec<Done>,
    window: WindowStats,
    /// Host seconds from the first send until both connections stopped.
    total_s: f64,
    /// Jobs lost or rejected, with the reason.
    failures: Vec<String>,
}

/// Drive the closed loop against `server`. With `window_only` each
/// connection stops at the end of the window.
fn drive(
    server: &ServerHandle,
    pool: &Arc<Vec<CsrGraph>>,
    seed: u64,
    seconds: f64,
    window_only: bool,
    tracer: Option<&std::sync::Mutex<Tracer>>,
) -> RunOutput {
    let addr = server.addr();
    let barrier = Barrier::new(CONNECTIONS);
    let window = std::sync::Mutex::new(WindowStats::default());
    let t0 = Instant::now();
    let results: Vec<(Vec<Done>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let (barrier, window, pool) = (&barrier, &window, pool);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut failures = Vec::new();
                    let mut s = match TcpStream::connect(addr) {
                        Ok(s) => s,
                        Err(e) => {
                            failures.push(format!("conn {conn}: connect: {e}"));
                            // Keep the barrier protocol so the other
                            // connection is not left waiting.
                            barrier.wait();
                            barrier.wait();
                            return (done, failures);
                        }
                    };
                    s.set_nodelay(true).ok();
                    let mut stream = Stream::new(seed, conn);
                    let mut alive = true;
                    for index in 0.. {
                        if index == WINDOW_PER_CONN {
                            barrier.wait();
                            if conn == 0 {
                                let mut w = window.lock().expect("window stats lock");
                                w.wall_s = t0.elapsed().as_secs_f64();
                                w.pool = gpm_pool::stats();
                                match crate::report::peak_rss_mb() {
                                    Ok(mb) => w.peak_rss_mb = mb,
                                    Err(e) => failures.push(e),
                                }
                                match frame_roundtrip(&mut s, FT_STATS, &[]) {
                                    Ok((Response::Stats(st), _)) => w.daemon = st,
                                    Ok(_) => failures.push("stats: unexpected reply".into()),
                                    Err(e) => failures.push(format!("stats: {e}")),
                                }
                            }
                            barrier.wait();
                            if window_only {
                                break;
                            }
                        }
                        if !alive {
                            // A lost reply left the connection unusable;
                            // the window barrier above must still be met.
                            if index >= WINDOW_PER_CONN {
                                break;
                            }
                            continue;
                        }
                        if index >= WINDOW_PER_CONN && t0.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        let (spec, repeat) = stream.next(pool);
                        let tag = ((conn as u64) << 32) | index as u64;
                        let op = format!("c{conn}-j{index}");
                        let mut job = || -> Result<(Done, Option<Vec<u8>>), String> {
                            let t = Instant::now();
                            let payload = protocol::encode_job(&spec.request(pool, tag));
                            let (resp, reply_bytes) = frame_roundtrip(&mut s, FT_JOB, &payload)?;
                            let latency_s = t.elapsed().as_secs_f64();
                            let reply = match resp {
                                Response::Ok(r) => r,
                                Response::Reject { code, msg, .. } => {
                                    return Err(format!("rejected ({}): {msg}", code.token()))
                                }
                                _ => return Err("unexpected reply frame".into()),
                            };
                            let first = match repeat {
                                Some(i) => Some(stream.recent[i].1.clone()),
                                None => None,
                            };
                            let norm = check_reply(&reply, &spec, tag, &pool[spec.graph], first)?;
                            let d = Done {
                                conn,
                                index,
                                spec: spec.clone(),
                                latency_s,
                                request_bytes: payload.len(),
                                reply_bytes,
                                reply,
                            };
                            Ok((d, norm))
                        };
                        let t = Instant::now();
                        let out = job();
                        if let Some(tr) = tracer {
                            tr.lock().expect("tracer lock").record(&op, "job", t, Instant::now());
                        }
                        match out {
                            Ok((d, norm)) => {
                                if let Some(n) = norm {
                                    stream.remember(spec, n);
                                }
                                done.push(d);
                            }
                            Err(e) => {
                                alive = !e.starts_with(TRANSPORT);
                                failures.push(format!("conn {conn} job {index}: {e}"));
                            }
                        }
                    }
                    (done, failures)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let total_s = t0.elapsed().as_secs_f64();
    let mut out = RunOutput {
        done: Vec::new(),
        window: window.into_inner().expect("window stats lock"),
        total_s,
        failures: Vec::new(),
    };
    for (d, f) in results {
        out.done.extend(d);
        out.failures.extend(f);
    }
    out.done.sort_by_key(|d| (d.index, d.conn));
    out
}

/// Check one reply: labels, balance and cut against the job's graph; the
/// hit flag against the stream's plan; a hit's bytes against the first
/// reply. Returns the normalized reply of a distinct job.
fn check_reply(
    reply: &JobReply,
    spec: &Spec,
    tag: u64,
    g: &CsrGraph,
    first: Option<Vec<u8>>,
) -> Result<Option<Vec<u8>>, String> {
    if reply.tag != tag {
        return Err(format!("reply tag {} for job tag {tag}", reply.tag));
    }
    reply.check_labels(spec.k).map_err(|e| format!("labels: {e}"))?;
    gpm_graph::metrics::validate_partition(g, &reply.part, spec.k as usize, 1.03)
        .map_err(|e| format!("invalid partition: {e}"))?;
    let cut = gpm_graph::metrics::edge_cut(g, &reply.part);
    if cut != reply.telemetry.edge_cut {
        return Err(format!("reported cut {} != recomputed {cut}", reply.telemetry.edge_cut));
    }
    if reply.telemetry.degraded && spec.faults.is_empty() {
        return Err("clean job came back degraded".into());
    }
    match first {
        Some(bytes) => {
            if !reply.cache_hit {
                return Err("repeated job missed the cache".into());
            }
            if normalized(reply) != bytes {
                return Err("cache hit differs from the first reply".into());
            }
            Ok(None)
        }
        None if reply.cache_hit => Err("distinct job hit the cache".into()),
        None => Ok(Some(normalized(reply))),
    }
}

/// Recompute a sample of non-degraded misses in-process with the
/// daemon's configuration mapping; the partitions must match.
fn verify_sample(done: &[Done], pool: &[CsrGraph], rep: &mut Report) {
    let misses = done
        .iter()
        .filter(|d| !d.reply.cache_hit && d.spec.faults.is_empty() && !d.reply.telemetry.degraded);
    let mut checked = 0;
    for d in misses.step_by(VERIFY_EVERY) {
        let req = d.spec.request(pool, 0);
        let part = match req.algo {
            Algo::GpMetis => {
                let mut c = gp_metis::GpMetisConfig::new(req.k as usize).with_seed(req.seed);
                c.ubfactor = req.ub();
                c.cpu_threads = req.threads as usize;
                match gp_metis::partition_with_plan(&req.graph, &c, None) {
                    Ok(r) => r.result.part,
                    Err(e) => return rep.error(format!("in-process partition: {e}")),
                }
            }
            _ => {
                let mut c = gpm_mtmetis::MtMetisConfig::new(req.k as usize)
                    .with_threads(req.threads as usize)
                    .with_seed(req.seed);
                c.ubfactor = req.ub();
                gpm_mtmetis::partition(&req.graph, &c).part
            }
        };
        if d.reply.part != part {
            rep.error(format!(
                "c{}-j{}: daemon partition differs from in-process",
                d.conn, d.index
            ));
        }
        checked += 1;
    }
    eprintln!("perfbench: {checked} daemon partitions recomputed in-process");
}

fn start_server() -> Result<ServerHandle, String> {
    gpm_serve::start(ServeConfig {
        workers: WORKERS,
        cache_cap: CACHE_CAP,
        queue_cap: 64,
        quiet: true,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("start server: {e}"))
}

fn stop_server(server: ServerHandle, rep: &mut Report) {
    // `ServerHandle::shutdown` sets the flag and notifies the workers
    // without holding the queue lock, so a worker between its flag check
    // and its wait misses the wake-up, and `join` then blocks for ever.
    // Notify again once such a worker has had time to start waiting, and
    // report a daemon that still does not stop instead of hanging the run.
    for pause_ms in [0, 5, 50] {
        std::thread::sleep(Duration::from_millis(pause_ms));
        server.shutdown();
    }
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(server.join()));
    match rx.recv_timeout(Duration::from_secs(STOP_TIMEOUT_S)) {
        Ok(summary) if summary.panicked > 0 || summary.worker_respawns > 0 => {
            rep.error(format!("daemon workers panicked: {summary:?}"))
        }
        Ok(_) => {}
        Err(_) => rep.error(format!("daemon did not shut down within {STOP_TIMEOUT_S} s")),
    }
}

/// Set-up repetitions: set-up takes tens of milliseconds here, so more
/// repetitions than the graph workloads keep its median steady.
const SETUP_REPS: usize = 21;

/// Generate the pool and start the daemon `reps` times; keep the last.
/// Returns the median set-up seconds.
fn setup(
    seed: u64,
    reps: usize,
    rep: &mut Report,
) -> Result<(Arc<Vec<CsrGraph>>, ServerHandle, f64), String> {
    let mut times = Vec::new();
    let mut last: Option<(Arc<Vec<CsrGraph>>, ServerHandle)> = None;
    for _ in 0..reps {
        if let Some((_, server)) = last.take() {
            stop_server(server, rep);
        }
        let t = Instant::now();
        let pool = Arc::new(make_pool(seed));
        let server = start_server()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some((pool, server));
    }
    let (pool, server) = last.expect("at least one set-up");
    eprintln!("perfbench: set-up times {times:?} s");
    Ok((pool, server, median(&times)))
}

/// The window's jobs (first `WINDOW_PER_CONN` of each connection).
fn window_jobs(done: &[Done]) -> impl Iterator<Item = &Done> {
    done.iter().filter(|d| d.index < WINDOW_PER_CONN)
}

/// Deterministic numbers of the window, checked against the daemon's
/// counters, plus the digest that must not depend on thread count.
fn window_metrics(out: &RunOutput, rep: &mut Report) -> Result<String, String> {
    let w = &out.window;
    let jobs: Vec<&Done> = window_jobs(&out.done).collect();
    if jobs.len() != CONNECTIONS * WINDOW_PER_CONN {
        return Err(format!("window holds {} jobs", jobs.len()));
    }
    let hits = jobs.iter().filter(|d| d.reply.cache_hit).count() as u64;
    if w.get("cache_hits")? != hits || w.get("completed")? != jobs.len() as u64 {
        return Err(format!(
            "daemon counters {:?} disagree with {hits} client-side hits",
            w.daemon
        ));
    }
    let misses: Vec<&Done> = jobs.iter().copied().filter(|d| !d.reply.cache_hit).collect();
    let modeled = |d: &Done| f64::from_bits(d.reply.telemetry.modeled_secs_bits);
    // GP-metis runs on the clean path report an overlap schedule; the
    // daemon sums their makespans. Every other computed job ran serially.
    let serial: Vec<f64> = misses
        .iter()
        .filter(|d| d.spec.algo != Algo::GpMetis || d.reply.telemetry.degraded)
        .map(|d| modeled(d))
        .collect();
    if w.get("overlap_jobs")? + serial.len() as u64 != misses.len() as u64 {
        return Err("overlap job count disagrees with the clean GP-metis misses".into());
    }
    let modeled_s: f64 = misses.iter().map(|d| modeled(d)).sum();
    let makespan_s = w.get("overlap_makespan_us")? as f64 * 1e-6 + serial.iter().sum::<f64>();
    let cuts: Vec<f64> = misses
        .iter()
        .filter(|d| d.spec.ordinal <= CUT_JOBS)
        .map(|d| d.reply.telemetry.edge_cut as f64)
        .collect();
    if cuts.len() as u64 != CONNECTIONS as u64 * CUT_JOBS {
        return Err(format!("window holds {} of the cut_geomean jobs", cuts.len()));
    }
    rep.set("wall_s", w.wall_s);
    rep.set("modeled_s", modeled_s);
    rep.set("makespan_s", makespan_s);
    rep.set("cut_geomean", crate::stats::geomean(&cuts));

    let degraded = w.get("degraded")?;
    let injected: u64 = misses.iter().map(|d| d.reply.telemetry.faults_injected).sum();
    let retries: u64 = misses.iter().map(|d| d.reply.telemetry.device_retries).sum();
    rep.set("serve.cache_hit_ratio", hits as f64 / jobs.len() as f64);
    rep.set("serve.degraded", degraded as f64);
    rep.set("serve.breaker_trips", w.get("breaker_trips")? as f64);
    rep.set("faults.injected", injected as f64);
    rep.set("faults.device_retries", retries as f64);
    let mean = |xs: Vec<usize>| xs.iter().sum::<usize>() as f64 / xs.len() as f64;
    rep.set("serve.request_bytes", mean(jobs.iter().map(|d| d.request_bytes).collect()));
    rep.set("serve.reply_bytes", mean(jobs.iter().map(|d| d.reply_bytes).collect()));

    let mut digest = format!(
        "hits={hits} degraded={degraded} injected={injected} overlap_us={} trips={}\n",
        w.get("overlap_makespan_us")?,
        w.get("breaker_trips")?
    );
    for d in &jobs {
        let r = &d.reply;
        digest.push_str(&format!(
            "c{}-j{} hit={} cut={} modeled={:x}\n",
            d.conn, d.index, r.cache_hit, r.telemetry.edge_cut, r.telemetry.modeled_secs_bits
        ));
    }
    Ok(digest)
}

/// Host-clock numbers of the whole run.
fn latency_metrics(out: &RunOutput, rep: &mut Report) {
    let lat: Vec<f64> = out.done.iter().map(|d| d.latency_s).collect();
    rep.set("jobs_per_s", out.done.len() as f64 / out.total_s);
    rep.set("latency_p50_ms", 1e3 * median(&lat));
    match tail_percentile(&lat) {
        Some((p, v)) => {
            rep.set("latency_p99_ms", 1e3 * v);
            eprintln!("perfbench: {} latency samples; tail = p{}", lat.len(), 100.0 * p);
            if p < 0.99 {
                rep.error(format!("only {} jobs: too few for the p99", lat.len()));
            }
        }
        None => rep.error(format!("only {} jobs: too few for a tail percentile", lat.len())),
    }
}

/// Per-job engine and overhead medians over the window.
fn job_time_metrics(out: &RunOutput, rep: &mut Report) {
    let jobs: Vec<&Done> = window_jobs(&out.done).collect();
    let engine_ms = |d: &Done| d.reply.telemetry.wall_us as f64 * 1e-3;
    let engine: Vec<f64> =
        jobs.iter().filter(|d| !d.reply.cache_hit).map(|d| engine_ms(d)).collect();
    // A hit's engine time is 0: its whole latency is overhead.
    let overhead: Vec<f64> = jobs.iter().map(|d| 1e3 * d.latency_s - engine_ms(d)).collect();
    rep.set("serve.engine_ms_p50", median(&engine));
    rep.set("serve.overhead_ms_p50", median(&overhead));
}

pub fn run(seed: u64, seconds: f64, trace: bool, rep: &mut Report) {
    let reps = if trace { 1 } else { SETUP_REPS };
    let (pool, server, setup_s) = match setup(seed, reps, rep) {
        Ok(v) => v,
        Err(e) => return rep.error(format!("setup: {e}")),
    };
    let pool0 = gpm_pool::stats();
    let out = drive(&server, &pool, seed, seconds, trace, None);
    stop_server(server, rep);
    account(&out, rep);
    let digest = match window_metrics(&out, rep) {
        Ok(d) => d,
        Err(e) => return rep.error(e),
    };
    eprintln!("determinism-digest: {:016x}", crate::batch::fnv64(&digest));
    if !trace {
        rep.set("setup_s", setup_s);
        rep.set("peak_rss_mb", out.window.peak_rss_mb);
        latency_metrics(&out, rep);
        verify_sample(&out.done, &pool, rep);
        return;
    }

    crate::report::set_pool_delta(rep, &pool0, &out.window.pool);
    job_time_metrics(&out, rep);

    // The traced window, on a fresh daemon so its cache starts empty.
    let tracer = std::sync::Mutex::new(Tracer::new("serve-mixed"));
    let traced = match start_server() {
        Ok(server) => {
            let t = drive(&server, &pool, seed, seconds, true, Some(&tracer));
            stop_server(server, rep);
            t
        }
        Err(e) => return rep.error(e),
    };
    account(&traced, rep);
    rep.set("trace.overhead_s", traced.window.wall_s - out.window.wall_s);
    let mut tracer = tracer.into_inner().expect("tracer lock");
    launch_cost(&pool, &mut tracer, rep);
    crate::write_trace(&tracer, "serve-mixed", seed, rep);
}

/// Count every job of a run: failures are lost or rejected jobs.
fn account(out: &RunOutput, rep: &mut Report) {
    for _ in &out.done {
        rep.op(Ok(()));
    }
    for f in &out.failures {
        rep.op(Err(f.clone()));
    }
}

/// Host cost per kernel launch on the pool's small graphs: replay the
/// V-cycle of each pool graph large enough to reach the device, with the
/// daemon's GP-metis configuration at k = 8.
fn launch_cost(pool: &[CsrGraph], tr: &mut Tracer, rep: &mut Report) {
    let (mut wall, mut launches) = (0.0, 0u64);
    for (i, g) in pool.iter().enumerate().filter(|(_, g)| g.n() >= FAULT_MIN_N) {
        let cfg = gp_metis::GpMetisConfig::new(8).with_seed(1);
        tr.set_op(&format!("pool-{i}"));
        let first = tr.spans().len();
        match crate::replay::replay_vcycle(g, &cfg, tr) {
            Ok(r) => launches += r.kernel_log.len() as u64,
            Err(e) => return rep.error(format!("pool graph {i}: {e}")),
        }
        wall += tr.spans()[first..]
            .iter()
            .filter(|s| crate::replay::span_family(&s.name).is_some())
            .map(|s| s.duration())
            .sum::<f64>();
    }
    rep.set("gpu.wall_us_per_launch", 1e6 * wall / launches as f64);
}
