//! `serve-bursty` and `serve-durable`: Markov-bursty streams served over
//! loopback TCP by one client thread on one connection, in a closed loop
//! with one 256-request `Submit` frame outstanding, against 2-shard
//! forests with one worker thread per shard.
//!
//! Every repetition starts a fresh server on the next of 8 seeded stream
//! variants, so repetitions are independent samples; the reported figures
//! summarise them (see `latency_figures` for the latency estimators).
//! `serve-durable` adds an OTCT log file and a snapshot cadence, kills the
//! server between two snapshot cuts, resumes it and serves the rest. No
//! call syncs to disk (the repository's flush policy: the log is flushed
//! to the OS at cuts and at kill), so its figures are page-cache figures.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use otc_core::forest::{Forest, ShardId};
use otc_core::policy::CachePolicy;
use otc_core::request::Request;
use otc_core::tc::{TcConfig, TcFast};
use otc_core::tree::Tree;
use otc_obs::{HistogramSnapshot, MetricValue, MetricsSnapshot};
use otc_serve::{Client, ResumeOutcome, ServeConfig, Server, SnapshotPolicy, TraceLog};
use otc_sim::engine::{EngineConfig, ShardedEngine};
use otc_sim::snapshot::EngineSnapshot;
use otc_sim::Report;
use otc_util::SplitMix64;
use otc_workloads::trace::TraceReader;

use crate::spans::Tracer;
use crate::stats::{mean, median, peak_rss_mb, CpuTicks};
use crate::{
    latency_figures, print_latency, print_percentiles, print_spread, Ctx, Outcome, VARIANTS,
};

const SHARDS: usize = 2;
const NODES_PER_SHARD: usize = 4096;
const CAPACITY: usize = 128;
const ALPHA: u64 = 4;
const FRAME: usize = 256;
/// Requests per repetition: 1024 frames, so even a repetition's p99 frame
/// time (printed beside the gated p90) has ten frames beyond it.
const REQUESTS: usize = 1024 * FRAME;
/// `serve-durable` takes a snapshot cut every eighth of the stream ...
const CUT_EVERY: u64 = REQUESTS as u64 / 8;
/// ... and is killed halfway between the fourth and the fifth cut, so four
/// cuts complete first and resume replays half a cut interval of log.
const KILL_AT: usize = (4 * CUT_EVERY + CUT_EVERY / 2) as usize;

fn factory(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
    Box::new(TcFast::new(tree, TcConfig::new(ALPHA, CAPACITY)))
}

fn engine(forest: &Forest) -> ShardedEngine<'static> {
    ShardedEngine::new(forest.clone(), &factory, EngineConfig::bare(ALPHA))
}

/// One stream variant: its seed and the in-process `submit_batch` run of
/// its stream. Placement of the server's threads on the host's cores
/// changes from one fresh server to the next and swings a repetition's
/// rate up to 3x, and the tree shape and popularity ranking of one stream
/// move its cost by several percent: many short repetitions over several
/// variants average both out.
struct Variant {
    seed: u64,
    truth: Report,
}

/// A variant's forest and request stream, regenerated from its seed
/// before each repetition and outside the timed region, so the process
/// holds one stream at a time and its peak RSS is mostly the program's.
struct Inputs {
    forest: Forest,
    requests: Vec<Request>,
}

fn inputs(seed: u64) -> Inputs {
    let (forest, trace) =
        otc_bench::trace_replay_workload(SHARDS, NODES_PER_SHARD, REQUESTS, ALPHA, seed);
    Inputs { forest, requests: trace.requests }
}

fn variant(seed: u64) -> Variant {
    let inp = inputs(seed);
    let mut offline = engine(&inp.forest);
    offline.submit_batch(&inp.requests).expect("generated requests route");
    let truth = offline.into_report().expect("TcFast keeps the caching protocol");
    Variant { seed, truth }
}

/// Serves `reqs` frame by frame with one frame outstanding, recording
/// each frame's send-to-ack time in microseconds.
fn serve_frames(
    client: &mut Client,
    reqs: &[Request],
    tr: &mut Tracer,
    latency_us: &mut Vec<f64>,
    next_frame: &mut u64,
) -> io::Result<()> {
    for chunk in reqs.chunks(FRAME) {
        let id = Some(*next_frame);
        *next_frame += 1;
        let t = Instant::now();
        tr.enter("frame", id);
        // `send` only encodes into the client's write buffer; the flush
        // puts the frame on the socket, so the span covers the wire write
        // and the ack wait starts once the bytes have left.
        tr.span("client.send", id, || client.send(chunk).and_then(|()| client.flush()))?;
        let acked = tr.span("client.ack_wait", id, || client.wait_acks())?;
        tr.exit();
        latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        if acked != chunk.len() as u64 {
            return Err(io::Error::other(format!(
                "frame {}: {acked} of {} requests acknowledged",
                *next_frame - 1,
                chunk.len()
            )));
        }
    }
    Ok(())
}

/// Measurements of one repetition.
struct Rep {
    setup_s: f64,
    /// First send to the drain barrier (both phases on `serve-durable`).
    serve_s: f64,
    report: Report,
    served: u64,
    frames: u64,
    durable: Option<DurableRep>,
}

struct DurableRep {
    kill_s: f64,
    recover_s: f64,
    log_bytes: u64,
    snapshots: u64,
    snapshot_bytes: u64,
    resumed: ResumeOutcome,
    /// Records read by the traced scan of the killed log.
    scanned: u64,
    /// Records replayed by the traced in-process recovery.
    recovered_replayed: u64,
}

/// One `serve-bursty` repetition (`metrics` switches the server's
/// wall-clock stage metrics on and returns their final scrape).
fn plain_rep(
    inp: &Inputs,
    tr: &mut Tracer,
    latency_us: &mut Vec<f64>,
    next_frame: &mut u64,
    metrics: bool,
) -> io::Result<(Rep, Option<MetricsSnapshot>)> {
    let cfg = ServeConfig { log: TraceLog::Off, metrics, ..ServeConfig::default() };
    let t0 = Instant::now();
    let eng = tr.span("engine.new", None, || engine(&inp.forest));
    let server = tr.span("server.start", None, || Server::start(eng, cfg))?;
    let addr = server.addr();
    let mut client = tr.span("client.connect", None, || Client::connect(addr))?;
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let frames_before = *next_frame;
    serve_frames(&mut client, &inp.requests, tr, latency_us, next_frame)?;
    tr.span("client.drain", None, || client.drain())?;
    let serve_s = t1.elapsed().as_secs_f64();

    tr.span("client.bye", None, || client.bye())?;
    let outcome =
        tr.span("server.shutdown", None, || server.shutdown()).map_err(io::Error::other)?;
    let rep = Rep {
        setup_s,
        serve_s,
        report: outcome.report,
        served: outcome.requests_served,
        frames: *next_frame - frames_before,
        durable: None,
    };
    Ok((rep, outcome.metrics))
}

/// Snapshot files in `dir`: `(count, total bytes, newest path)`.
fn snapshot_files(dir: &Path) -> io::Result<(u64, u64, Option<std::path::PathBuf>)> {
    let mut count = 0;
    let mut bytes = 0;
    let mut newest: Option<(u64, std::path::PathBuf)> = None;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(records) = name
            .to_str()
            .and_then(|n| n.strip_prefix("snap-"))
            .and_then(|n| n.strip_suffix(".otcs"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        count += 1;
        bytes += entry.metadata()?.len();
        if newest.as_ref().is_none_or(|(r, _)| records > *r) {
            newest = Some((records, entry.path()));
        }
    }
    Ok((count, bytes, newest.map(|(_, p)| p)))
}

/// Reads every record of the log, as `Server::resume` does first.
fn scan_log(log: &Path) -> io::Result<u64> {
    let mut reader = TraceReader::new(fs::File::open(log)?)?;
    let mut records = 0;
    while reader.next_event()?.is_some() {
        records += 1;
    }
    Ok(records)
}

/// Restores the newest snapshot into a fresh engine and replays the log
/// tail behind it, as `Server::resume` does after its scan.
fn recover_newest(forest: &Forest, snap: &Path, log: &Path) -> io::Result<u64> {
    let bytes = fs::read(snap)?;
    let snap = EngineSnapshot::parse(&bytes).map_err(|e| io::Error::other(format!("{e:?}")))?;
    let mut eng = engine(forest);
    let mut reader = TraceReader::new(fs::File::open(log)?)?;
    let mut chunk = Vec::new();
    let stats = eng.recover(&snap, &mut reader, &mut chunk).map_err(io::Error::other)?;
    Ok(stats.replayed)
}

/// One `serve-durable` repetition: serve a prefix that ends between two
/// cuts, kill, resume, serve the rest on a new connection, shut down.
fn durable_rep(
    inp: &Inputs,
    work: &Path,
    tr: &mut Tracer,
    latency_us: &mut Vec<f64>,
    next_frame: &mut u64,
) -> io::Result<Rep> {
    if work.exists() {
        fs::remove_dir_all(work)?;
    }
    fs::create_dir_all(work)?;
    let log = work.join("serve.otct");
    let snaps = work.join("snaps");
    let cfg = ServeConfig {
        log: TraceLog::File(log.clone()),
        snapshots: Some(SnapshotPolicy { dir: snaps.clone(), every: CUT_EVERY }),
        ..ServeConfig::default()
    };
    let (prefix, rest) = inp.requests.split_at(KILL_AT);
    let frames_before = *next_frame;

    let t0 = Instant::now();
    let eng = tr.span("engine.new", None, || engine(&inp.forest));
    let server = tr.span("server.start", None, || Server::start(eng, cfg.clone()))?;
    let addr = server.addr();
    let mut client = tr.span("client.connect", None, || Client::connect(addr))?;
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    serve_frames(&mut client, prefix, tr, latency_us, next_frame)?;
    tr.span("client.drain", None, || client.drain())?;
    let mut serve_s = t1.elapsed().as_secs_f64();
    tr.span("client.bye", None, || client.bye())?;

    let t2 = Instant::now();
    let killed = tr.span("server.kill", None, || server.kill())?;
    let kill_s = t2.elapsed().as_secs_f64();
    if killed.as_deref() != Some(log.as_path()) {
        return Err(io::Error::other("kill did not hand back the log path"));
    }
    let (snapshots, snapshot_bytes, newest) = snapshot_files(&snaps)?;

    // Traced only: the two halves of recovery, timed apart.
    let mut scanned = 0;
    let mut recovered_replayed = 0;
    if tr.is_on() {
        scanned = tr.span("trace.scan", None, || scan_log(&log))?;
        if let Some(snap) = &newest {
            recovered_replayed =
                tr.span("engine.recover", None, || recover_newest(&inp.forest, snap, &log))?;
        }
    }

    let eng = tr.span("resume.engine_new", None, || engine(&inp.forest));
    let t3 = Instant::now();
    let (server, resumed) = tr.span("server.resume", None, || Server::resume(eng, cfg))?;
    let recover_s = t3.elapsed().as_secs_f64();
    let addr = server.addr();
    let mut client = tr.span("resume.connect", None, || Client::connect(addr))?;

    let t4 = Instant::now();
    serve_frames(&mut client, rest, tr, latency_us, next_frame)?;
    tr.span("client.drain", None, || client.drain())?;
    serve_s += t4.elapsed().as_secs_f64();
    tr.span("client.bye", None, || client.bye())?;
    let outcome =
        tr.span("server.shutdown", None, || server.shutdown()).map_err(io::Error::other)?;
    let log_bytes = fs::metadata(&log)?.len();
    fs::remove_dir_all(work)?;

    Ok(Rep {
        setup_s,
        serve_s,
        report: outcome.report,
        served: outcome.requests_served,
        frames: *next_frame - frames_before,
        durable: Some(DurableRep {
            kill_s,
            recover_s,
            log_bytes,
            snapshots,
            snapshot_bytes,
            resumed,
            scanned,
            recovered_replayed,
        }),
    })
}

/// The in-process floor: a fresh engine running the same stream through
/// `ShardedEngine::submit_batch`; returns requests per second.
fn engine_floor(out: &mut Outcome, var: &Variant, tr: &mut Tracer) -> f64 {
    let inp = inputs(var.seed);
    let mut eng = engine(&inp.forest);
    let t = Instant::now();
    let ran = tr.span("engine.submit_batch", None, || eng.submit_batch(&inp.requests));
    let secs = t.elapsed().as_secs_f64();
    let cost = ran.and_then(|()| eng.into_report()).map(|r| r.total());
    out.check(cost.as_ref().is_ok_and(|&c| c == var.truth.total()), || {
        format!("the in-process floor run gave {cost:?}, not the ground truth")
    });
    REQUESTS as f64 / secs
}

/// Merges every histogram series named `name` (the per-group and
/// per-cell label fan-out) into one distribution.
fn merged_stage(snap: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::default();
    for record in snap.metrics.iter().filter(|r| r.name == name) {
        if let MetricValue::Histogram(h) = &record.value {
            merged.merge(h);
        }
    }
    merged
}

/// Checks one repetition against the ground truth.
fn check_rep(out: &mut Outcome, truth: &Report, rep: &Rep, label: &str) {
    out.check(rep.report.total() == truth.total(), || {
        format!(
            "{label}: served cost {} differs from the in-process ground truth {}",
            rep.report.total(),
            truth.total()
        )
    });
    out.check(rep.report.cost == truth.cost && rep.report.rounds == truth.rounds, || {
        format!("{label}: cost split or round count differs from the ground truth")
    });
    out.check(rep.served == REQUESTS as u64, || {
        format!("{label}: {} of {REQUESTS} requests served", rep.served)
    });
    if let Some(d) = &rep.durable {
        let r = &d.resumed;
        out.check(r.requests_recovered == KILL_AT as u64 && r.truncated_bytes == 0, || {
            format!("{label}: resume did not recover the {KILL_AT}-request prefix: {r:?}")
        });
        out.check(r.snapshot_records.is_some_and(|s| s + r.replayed == KILL_AT as u64), || {
            format!("{label}: resume did not start from a snapshot plus the log tail: {r:?}")
        });
    }
}

/// Ground truth summed over the stream variants of one run.
#[derive(Default)]
struct Totals {
    cost: u64,
    rounds: u64,
    paid_rounds: u64,
    nodes_touched: u64,
}

impl Totals {
    fn of(variants: &[Variant]) -> Self {
        let mut t = Self::default();
        for v in variants {
            t.cost += v.truth.total();
            t.rounds += v.truth.rounds;
            t.paid_rounds += v.truth.paid_rounds;
            t.nodes_touched += v.truth.nodes_fetched + v.truth.nodes_evicted;
        }
        t
    }
}

/// Runs `serve-bursty` (`durable` false) or `serve-durable`.
#[allow(clippy::too_many_lines, reason = "one linear measurement script")]
pub fn run(ctx: &Ctx, durable: bool) -> Outcome {
    let mut out = Outcome::default();
    let name = if durable { "serve-durable" } else { "serve-bursty" };
    let t_in = Instant::now();
    let mut rng = SplitMix64::new(ctx.seed);
    let variants: Vec<Variant> = (0..VARIANTS).map(|_| variant(rng.next_u64())).collect();
    let truth = Totals::of(&variants);
    let requests_total = (VARIANTS * REQUESTS) as f64;
    let ops_per_rep = REQUESTS.div_ceil(FRAME) as u64;
    println!(
        "workload: {name} | {VARIANTS} seeded variants, each {SHARDS} shards x \
         {NODES_PER_SHARD}-node random_attachment trees, TcFast capacity {CAPACITY}/shard, \
         alpha {ALPHA}, markov-bursty {REQUESTS} requests; {FRAME}-request Submit frames, \
         closed loop with 1 frame outstanding; repetition i serves variant i mod {VARIANTS}"
    );
    println!(
        "threads: 1 client thread on 1 connection; server: {SHARDS} shard workers + acceptor + \
         1 connection thread; no sampler threads"
    );
    if durable {
        println!(
            "durability: OTCT log file, snapshot cut every {CUT_EVERY} requests, kill after \
             {KILL_AT} requests, resume, serve the rest; flush policy as shipped (no fsync, \
             log flushed to the OS at cuts and at kill): page-cache figures"
        );
    } else {
        println!("durability: trace log off, metrics off, no snapshots");
    }
    println!(
        "inputs + ground truth in {:.3} s; ground-truth cost {} over {requests_total} requests",
        t_in.elapsed().as_secs_f64(),
        truth.cost
    );

    let mut off = Tracer::off();
    let mut traced = if ctx.trace { Tracer::on() } else { Tracer::off() };
    let mut latency_us = Vec::new();
    let mut next_frame = 0u64;
    let work = ctx.work.join("rep");
    let rep_once =
        |inp: &Inputs, tr: &mut Tracer, lat: &mut Vec<f64>, next: &mut u64| -> io::Result<Rep> {
            if durable {
                durable_rep(inp, &work, tr, lat, next)
            } else {
                plain_rep(inp, tr, lat, next, false).map(|(r, _)| r)
            }
        };

    // Warm-up: checked, not measured.
    match rep_once(&inputs(variants[0].seed), &mut off, &mut Vec::new(), &mut next_frame) {
        Ok(rep) => check_rep(&mut out, &variants[0].truth, &rep, "warm-up"),
        Err(e) => out.check(false, || format!("warm-up repetition failed: {e}")),
    }
    next_frame = 0;

    let mut reps: Vec<Rep> = Vec::new();
    let mut traced_reps: Vec<Rep> = Vec::new();
    let mut traced_latency_us = Vec::new();
    let mut steal = Vec::new();
    let mut floor_rps: Vec<f64> = Vec::new();
    let start = Instant::now();
    while out.problems.is_empty() && ctx.more(start, reps.len()) {
        let var = &variants[reps.len() % VARIANTS];
        // Untimed, and the same preamble before every repetition.
        let inp = inputs(var.seed);
        let ticks = CpuTicks::now();
        out.attempted += ops_per_rep;
        match rep_once(&inp, &mut off, &mut latency_us, &mut next_frame) {
            Ok(rep) => {
                check_rep(&mut out, &var.truth, &rep, &format!("repetition {}", reps.len()));
                reps.push(rep);
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("repetition {} failed: {e}", reps.len()));
            }
        }
        steal.push(CpuTicks::now().steal_share_since(&ticks));
        if ctx.trace && out.problems.is_empty() {
            let var = &variants[traced_reps.len() % VARIANTS];
            let inp = inputs(var.seed);
            out.attempted += ops_per_rep;
            match rep_once(&inp, &mut traced, &mut traced_latency_us, &mut next_frame) {
                Ok(rep) => {
                    check_rep(&mut out, &var.truth, &rep, "traced repetition");
                    traced_reps.push(rep);
                }
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("traced repetition failed: {e}"));
                }
            }
        }
    }
    // The in-process floor runs after the serving repetitions: a CPU-bound
    // burst on the client thread just before a repetition changes where
    // the scheduler then places the server's threads, and with it the
    // repetition's rate by up to 1.5x, so every repetition must follow the
    // same preamble (its stream's regeneration) and nothing else.
    if ctx.trace {
        floor_rps = variants.iter().map(|var| engine_floor(&mut out, var, &mut traced)).collect();
    }

    let rps = |rs: &[Rep]| -> Vec<f64> { rs.iter().map(|r| r.served as f64 / r.serve_s).collect() };
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let throughput = rps(&reps);
    let frames_done: u64 = reps.iter().map(|r| r.frames).sum();
    println!(
        "\nuntraced: {} repetitions (+1 warm-up), {frames_done} frames, {} failed; error_rate {}",
        reps.len(),
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    print_spread("throughput_rps", "1/s", &throughput);
    print_spread("setup_s", "s", &setup);
    print_latency(&latency_us, ops_per_rep as usize);
    print_spread("host steal share", "", &steal);
    let cost_per_req = truth.cost as f64 / requests_total;
    println!("  cost_per_req             {cost_per_req} (deterministic)");
    if durable {
        let d = |f: fn(&DurableRep) -> f64| -> Vec<f64> {
            reps.iter().filter_map(|r| r.durable.as_ref().map(f)).collect()
        };
        print_spread("recover_s", "s", &d(|d| d.recover_s));
        print_spread("server.kill_ms", "ms", &d(|d| d.kill_s * 1e3));
        // Log size is a function of the variant: sum one repetition of each.
        let log_bytes: u64 = reps
            .iter()
            .take(VARIANTS)
            .filter_map(|r| r.durable.as_ref())
            .map(|d| d.log_bytes)
            .sum();
        println!(
            "  log_bytes_per_req        {} (deterministic; {log_bytes} log bytes / \
             {requests_total} requests, page cache, no fsync)",
            log_bytes as f64 / requests_total
        );
        println!(
            "  snapshot.count           {} before the kill",
            median(&d(|d| d.snapshots as f64))
        );
    }

    if !ctx.trace {
        out.metric("throughput_rps", "1/s", mean(&throughput));
        let (p50, p90) = latency_figures(&latency_us, ops_per_rep as usize);
        out.metric("latency_p50_us", "us", p50);
        out.metric("latency_p90_us", "us", p90);
        out.metric("setup_s", "s", median(&setup));
        out.metric("peak_rss_mb", "MiB", peak_rss_mb());
        out.metric("cost_per_req", "cost/req", cost_per_req);
        return out;
    }

    // ---- Traced run: per-layer table, layer contrast, metrics. ----
    // One metrics-on repetition for the server's own stage histograms
    // (observe-only: it must still reproduce the ground truth).
    let mut stage = None;
    if !durable && out.problems.is_empty() {
        match plain_rep(&inputs(variants[0].seed), &mut off, &mut Vec::new(), &mut 0, true) {
            Ok((rep, snap)) => {
                check_rep(&mut out, &variants[0].truth, &rep, "metrics-on repetition");
                stage = snap;
            }
            Err(e) => out.check(false, || format!("metrics-on repetition failed: {e}")),
        }
    }

    let traced_rps = rps(&traced_reps);
    let overhead_pct = (mean(&throughput) / mean(&traced_rps) - 1.0) * 100.0;
    let totals = traced.totals();
    let traced_requests = (traced_reps.len() * REQUESTS) as f64;
    let ms =
        |name: &str| -> Vec<f64> { traced.durations_ns(name).iter().map(|ns| ns / 1e6).collect() };
    let us =
        |name: &str| -> Vec<f64> { traced.durations_ns(name).iter().map(|ns| ns / 1e3).collect() };
    let open_ms: Vec<f64> =
        ms("server.start").iter().zip(ms("client.connect")).map(|(a, b)| a + b).collect();

    println!("\ntraced: {} repetitions, interleaved with the untraced ones", traced_reps.len());
    print_spread("throughput_rps (traced)", "1/s", &traced_rps);
    print_spread("throughput_rps (untraced)", "1/s", &throughput);
    println!("  tracing overhead         {overhead_pct:.3} % of untraced throughput");
    println!("\nspans: name, count, total ms, self ms, self ns/request");
    for (name, t) in &totals {
        println!(
            "  {name:<22} {:>8} {:>12.3} {:>12.3} {:>10.1}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / traced_requests
        );
    }
    println!("\nper-layer metrics:");
    print_percentiles("client.send_us", "us", &us("client.send"));
    print_percentiles("client.ack_wait_us", "us", &us("client.ack_wait"));
    print_spread("client.drain_ms", "ms", &ms("client.drain"));
    print_spread("engine.floor_rps", "1/s", &floor_rps);
    print_spread("server.start_ms", "ms", &ms("server.start"));
    print_spread("client.connect_ms", "ms", &ms("client.connect"));
    let paid_frac = truth.paid_rounds as f64 / truth.rounds as f64;
    let reorg_per_req = truth.nodes_touched as f64 / requests_total;
    println!("  serve.paid_frac          {paid_frac}");
    println!("  serve.reorg_per_req      {reorg_per_req}");
    if let Some(snap) = &stage {
        for (label, metric) in [
            ("lock_hold", "otc_serve_lock_hold_nanos"),
            ("ring_wait", "otc_serve_ring_wait_nanos"),
            ("drain", "otc_serve_drain_nanos"),
            ("flush", "otc_serve_flush_nanos"),
        ] {
            let h = merged_stage(snap, metric);
            println!(
                "  serve.stage.{label}_ns     p50 {:>10}  p99 {:>10}  (samples={}, log2 buckets: \
                 2x resolution)",
                h.p50().unwrap_or(0),
                h.p99().unwrap_or(0),
                h.count
            );
        }
    }
    let d: Vec<&DurableRep> = traced_reps.iter().filter_map(|r| r.durable.as_ref()).collect();
    if durable {
        print_spread("server.kill_ms", "ms", &ms("server.kill"));
        print_spread("trace.scan_ms", "ms", &ms("trace.scan"));
        print_spread("engine.recover_ms", "ms", &ms("engine.recover"));
        print_spread("server.resume_ms", "ms", &ms("server.resume"));
        let snaps: Vec<f64> = d.iter().map(|d| d.snapshots as f64).collect();
        let snap_bytes: Vec<f64> = d.iter().map(|d| d.snapshot_bytes as f64).collect();
        let replayed: Vec<f64> = d.iter().map(|d| d.resumed.replayed as f64).collect();
        println!(
            "  snapshot.count {}  snapshot.bytes {}  resume.replayed {}",
            median(&snaps),
            median(&snap_bytes),
            median(&replayed)
        );
        for x in &d {
            out.check(x.scanned == KILL_AT as u64, || {
                format!("the killed log holds {} records, not {KILL_AT}", x.scanned)
            });
            out.check(x.recovered_replayed == x.resumed.replayed, || {
                format!(
                    "in-process recovery replayed {} records, resume {}",
                    x.recovered_replayed, x.resumed.replayed
                )
            });
        }
    }

    // Layer contrast: the workload stresses the layers it claims to.
    if durable {
        out.check(d.iter().all(|x| x.snapshots >= 3), || {
            "fewer than three snapshot cuts completed before the kill".into()
        });
        out.check(d.iter().all(|x| x.resumed.replayed > 0), || {
            "the kill did not fall between two cuts (resume replayed nothing)".into()
        });
    } else {
        out.check(median(&floor_rps) >= 2.0 * mean(&throughput), || {
            format!(
                "engine floor {:.0} req/s is not well above serve throughput {:.0} req/s",
                median(&floor_rps),
                mean(&throughput)
            )
        });
    }
    println!("layer contrast: {}", if out.problems.is_empty() { "pass" } else { "FAIL" });

    let spans_path = ctx.out.join(format!("spans-{name}.csv"));
    if let Err(e) = fs::create_dir_all(&ctx.out).and_then(|()| traced.write_csv(&spans_path)) {
        out.check(false, || format!("writing {}: {e}", spans_path.display()));
    } else {
        println!("spans: {} written to {}", traced.spans().len(), spans_path.display());
    }

    let front_ns = totals.get("frame").map_or(0, |t| t.total_ns) as f64 / traced_requests;
    out.metric("engine.floor_rps", "1/s", median(&floor_rps));
    out.metric("front.ns_per_req", "ns", front_ns);
    out.metric("setup.build_ms", "ms", median(&ms("engine.new")));
    out.metric("setup.open_ms", "ms", median(&open_ms));
    out.metric("policy.paid_frac", "ratio", paid_frac);
    out.metric("policy.reorg_per_req", "count", reorg_per_req);
    out.metric("trace.overhead_pct", "%", overhead_pct);
    out
}
