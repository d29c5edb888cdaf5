//! `fib-offline`: the single-threaded FIB pipeline with no socket, ring or
//! log. A 262144-rule hierarchical table, Zipf(θ = 1.0) packets with 2%
//! rule updates, α = 4, and a 16384-entry TCAM. `RuleTree` longest-prefix
//! matching and `TcFast` do all the work, over a working set far beyond
//! the L2 cache.
//!
//! The table is drawn once per run; the traffic is drawn as 8 variants of
//! 262144 events, each with its own popularity ranking. Under Zipf(1.0)
//! the hottest rule alone draws about 8% of the packets, so where the
//! ranking puts the few hottest rules in the tree moves one stream's cost
//! and speed by ten percent and more; repetitions cycle through the
//! variants to average that out. The variants stay in memory (2 MiB each,
//! beside the rule tree and policy): drawing a stream takes longer than a
//! repetition's measured work.
//!
//! Each repetition builds the rule tree and the policy afresh (the timed
//! set-up) and then runs the two halves of `run_fib` itself: every packet
//! resolved to its rule with `RuleTree::lmp`, in 256-event batches, then
//! the resolved stream through `run_fib_routed`. A batch's resolution
//! time is the workload's latency sample. (Calling `run_fib` once per
//! batch would time its per-call engine set-up instead, which is O(rules)
//! and costs more than a batch's work on this table.) Every repetition's
//! report must equal one whole-stream `run_fib` over the same inputs.
//!
//! The workload's speed follows the host's shared L3 and memory, which
//! its other tenants slow down by up to a quarter for tens of seconds at a
//! time. A fixed 32 MiB pointer chase (`MemProbe`) is timed before every
//! repetition, and the throughput and latency figures are scaled to a
//! reference probe speed by the run's mean probe speed; the raw figures
//! are printed beside them. The set-up time does not follow the probe and
//! is reported as measured.

use std::sync::Arc;
use std::time::Instant;

use otc_core::tc::{TcConfig, TcFast};
use otc_sdn::{
    generate_events, run_fib, run_fib_routed, FibEvent, FibReport, FibWorkloadConfig,
    RoutedFibEvent,
};
use otc_trie::{hierarchical_table, HierarchicalConfig, Prefix, RuleTree};
use otc_util::SplitMix64;

use crate::spans::Tracer;
use crate::stats::{mean, median, peak_rss_mb, threads, Blocking, CpuTicks, MemProbe};
use crate::{
    latency_figures, print_latency, print_percentiles, print_spread, Ctx, Outcome, VARIANTS,
};

const RULES: usize = 262_144;
const SUBDIVIDE_P: f64 = 0.7;
const MAX_LEN: u8 = 28;
const THETA: f64 = 1.0;
const UPDATE_P: f64 = 0.02;
const ALPHA: u64 = 4;
const CAPACITY: usize = 16_384;
/// Events per traffic variant (one repetition's stream).
const EVENTS: usize = 1 << 18;
/// Events per latency sample: 1024 samples per repetition.
const BATCH: usize = 256;
/// The memory speed, in millions of `MemProbe` steps per second, that
/// the throughput and latency figures are scaled to.
const REF_PROBE: f64 = 5.0;

struct Inputs {
    prefixes: Vec<Prefix>,
    variants: Vec<Variant>,
}

struct Variant {
    events: Vec<FibEvent>,
    /// One whole-stream `run_fib` over the variant.
    truth: FibReport,
}

fn policy(rules: &RuleTree) -> TcFast {
    TcFast::new(Arc::new(rules.tree().clone()), TcConfig::new(ALPHA, CAPACITY))
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let prefixes = hierarchical_table(
        HierarchicalConfig { n: RULES, subdivide_p: SUBDIVIDE_P, max_len: MAX_LEN },
        &mut rng,
    );
    let rules = RuleTree::build(&prefixes);
    let cfg = FibWorkloadConfig {
        events: EVENTS,
        theta: THETA,
        update_p: UPDATE_P,
        ..Default::default()
    };
    let variants = (0..VARIANTS)
        .map(|_| {
            let events = generate_events(&rules, cfg, &mut rng);
            let truth = run_fib(&rules, &mut policy(&rules), &events, ALPHA);
            Variant { events, truth }
        })
        .collect();
    Inputs { prefixes, variants }
}

struct Rep {
    setup_s: f64,
    run_s: f64,
    report: FibReport,
}

/// One repetition: set-up, LMP resolution in batches, the policy run.
fn rep(
    inp: &Inputs,
    var: &Variant,
    tr: &mut Tracer,
    latency_us: &mut Vec<f64>,
    next_batch: &mut u64,
) -> Rep {
    let t0 = Instant::now();
    let rules = tr.span("trie.build", None, || RuleTree::build(&inp.prefixes));
    let mut tc = tr.span("policy.new", None, || policy(&rules));
    let setup_s = t0.elapsed().as_secs_f64();

    let mut routed: Vec<RoutedFibEvent> = Vec::with_capacity(var.events.len());
    let t1 = Instant::now();
    for batch in var.events.chunks(BATCH) {
        let id = Some(*next_batch);
        *next_batch += 1;
        let t = Instant::now();
        tr.span("trie.lmp", id, || {
            routed.extend(batch.iter().map(|&e| match e {
                FibEvent::Packet(addr) => RoutedFibEvent::Packet(rules.lmp(addr)),
                FibEvent::Update(rule) => RoutedFibEvent::Update(rule),
            }));
        });
        latency_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let report =
        tr.span("fib.routed", None, || run_fib_routed(rules.tree(), &mut tc, &routed, ALPHA));
    Rep { setup_s, run_s: t1.elapsed().as_secs_f64(), report }
}

fn check_rep(out: &mut Outcome, var: &Variant, rep: &Rep, label: &str) {
    out.check(rep.report == var.truth, || {
        format!(
            "{label}: split run {:?} differs from the whole-stream run_fib {:?}",
            rep.report, var.truth
        )
    });
}

/// Runs `fib-offline`.
#[allow(clippy::too_many_lines, reason = "one linear measurement script")]
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    // First, so that it is resident through every peak the run reaches.
    let mem_probe = MemProbe::new();
    let t_in = Instant::now();
    let inp = inputs(ctx.seed);
    let mut truth = FibReport::default();
    for v in &inp.variants {
        truth.add(&v.truth);
    }
    let events = EVENTS as f64;
    let events_total = (VARIANTS * EVENTS) as f64;
    let rounds = truth.packets + truth.updates * ALPHA;
    println!(
        "workload: fib-offline | hierarchical_table {RULES} rules (subdivide {SUBDIVIDE_P}, max \
         length {MAX_LEN}); {VARIANTS} traffic variants of {EVENTS} events: Zipf theta {THETA} \
         packets, {UPDATE_P} updates; alpha {ALPHA}, TCAM capacity {CAPACITY}; LMP in \
         {BATCH}-event batches, then run_fib_routed; repetition i runs variant i mod {VARIANTS}"
    );
    println!("threads: 1 (no socket, ring or log)");
    println!(
        "inputs + ground truth in {:.3} s; ground-truth cost {} ({} packets, {} updates)",
        t_in.elapsed().as_secs_f64(),
        truth.total_cost(),
        truth.packets,
        truth.updates
    );

    let mut off = Tracer::off();
    let mut traced = if ctx.trace { Tracer::on() } else { Tracer::off() };
    let mut latency_us = Vec::new();
    let mut next_batch = 0u64;
    let warm = rep(&inp, &inp.variants[0], &mut off, &mut Vec::new(), &mut next_batch);
    check_rep(&mut out, &inp.variants[0], &warm, "warm-up");
    next_batch = 0;

    let mut reps = Vec::new();
    let mut traced_reps = Vec::new();
    let mut traced_latency_us = Vec::new();
    let mut steal = Vec::new();
    let mut probe_speed = Vec::new();
    let start = Instant::now();
    // Layer contrast: a traced repetition neither does file I/O nor blocks.
    let zero = Blocking { io_calls: 0, waits: 0 };
    let probe = Blocking::now().zip(Blocking::now()).and_then(|(a, b)| b.since(a, zero));
    let mut blocking = Vec::new();
    while out.problems.is_empty() && ctx.more(start, reps.len()) {
        probe_speed.push(mem_probe.speed());
        let ticks = CpuTicks::now();
        let var = &inp.variants[reps.len() % VARIANTS];
        out.attempted += EVENTS as u64;
        let r = rep(&inp, var, &mut off, &mut latency_us, &mut next_batch);
        check_rep(&mut out, var, &r, &format!("repetition {}", reps.len()));
        reps.push(r);
        steal.push(CpuTicks::now().steal_share_since(&ticks));
        if ctx.trace {
            let var = &inp.variants[traced_reps.len() % VARIANTS];
            out.attempted += EVENTS as u64;
            let before = Blocking::now();
            let r = rep(&inp, var, &mut traced, &mut traced_latency_us, &mut next_batch);
            let after = Blocking::now();
            blocking.push(after.zip(before).zip(probe).and_then(|((b, a), p)| b.since(a, p)));
            check_rep(&mut out, var, &r, "traced repetition");
            traced_reps.push(r);
        }
    }

    let throughput: Vec<f64> = reps.iter().map(|r| events / r.run_s).collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    println!(
        "\nuntraced: {} repetitions (+1 warm-up), {} events; error_rate {}",
        reps.len(),
        reps.len() * EVENTS,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    // The host's shared L3 and memory slow down and speed up with its
    // other tenants' load for tens of seconds at a time, and this
    // workload's speed follows them; the probe times them between
    // repetitions, and the run's mean probe speed scales the throughput and
    // latency figures (the set-up time does not follow it).
    let scale = REF_PROBE / mean(&probe_speed);
    print_spread("throughput_rps (raw)", "1/s", &throughput);
    print_spread("setup_s", "s", &setup);
    print_latency(&latency_us, EVENTS / BATCH);
    print_spread("host steal share", "", &steal);
    print_spread("host memory probe", "M/s", &probe_speed);
    let (p50, p90) = latency_figures(&latency_us, EVENTS / BATCH);
    println!(
        "  scaled to {REF_PROBE} M probe steps/s (x {scale:.4}): throughput_rps {:.1} 1/s, \
         latency_p50_us {:.3} us, latency_p90_us {:.3} us",
        mean(&throughput) * scale,
        p50 / scale,
        p90 / scale
    );
    let cost_per_req = truth.total_cost() as f64 / events_total;
    println!("  cost_per_req             {cost_per_req} (deterministic, per event)");

    if !ctx.trace {
        out.metric("throughput_rps", "1/s", mean(&throughput) * scale);
        out.metric("latency_p50_us", "us", p50 / scale);
        out.metric("latency_p90_us", "us", p90 / scale);
        out.metric("setup_s", "s", median(&setup));
        out.metric("peak_rss_mb", "MiB", peak_rss_mb() - MemProbe::MIB);
        out.metric("cost_per_req", "cost/req", cost_per_req);
        return out;
    }

    let traced_rps: Vec<f64> = traced_reps.iter().map(|r| events / r.run_s).collect();
    let overhead_pct = (mean(&throughput) / mean(&traced_rps) - 1.0) * 100.0;
    let lmp_ns: Vec<f64> =
        traced.durations_ns("trie.lmp").chunks(EVENTS / BATCH).map(|c| c.iter().sum()).collect();
    let routed_ns = traced.durations_ns("fib.routed");
    let ms =
        |name: &str| -> Vec<f64> { traced.durations_ns(name).iter().map(|ns| ns / 1e6).collect() };
    let floor_rps: Vec<f64> = routed_ns.iter().map(|ns| events / (ns / 1e9)).collect();
    let lmp_per_event: Vec<f64> = lmp_ns.iter().map(|ns| ns / events).collect();
    let routed_per_event: Vec<f64> = routed_ns.iter().map(|ns| ns / events).collect();

    println!("\ntraced: {} repetitions, interleaved with the untraced ones", traced_reps.len());
    print_spread("throughput_rps (traced)", "1/s", &traced_rps);
    print_spread("throughput_rps (untraced)", "1/s", &throughput);
    println!("  tracing overhead         {overhead_pct:.3} % of untraced throughput");
    let totals = traced.totals();
    let traced_events = (traced_reps.len() * EVENTS) as f64;
    println!("\nspans: name, count, total ms, self ms, self ns/event");
    for (name, t) in &totals {
        println!(
            "  {name:<22} {:>8} {:>12.3} {:>12.3} {:>10.1}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / traced_events
        );
    }
    let miss_rate = truth.miss_rate();
    let paid_frac = truth.service_cost as f64 / rounds as f64;
    let reorg_per_event = (truth.reorg_cost / ALPHA) as f64 / events_total;
    println!("\nper-layer metrics:");
    print_spread("trie.build_ms", "ms", &ms("trie.build"));
    print_spread("trie.lmp_ns_per_event", "ns", &lmp_per_event);
    print_spread("policy.new_ms", "ms", &ms("policy.new"));
    print_spread("fib.routed_ns_per_event", "ns", &routed_per_event);
    print_spread("engine.floor_rps", "1/s", &floor_rps);
    print_percentiles("trie.lmp_batch_us", "us", &traced_latency_us);
    println!("  fib.miss_rate            {miss_rate}");
    println!("  fib.reorg_per_event      {reorg_per_event}");
    println!("  fib.paid_frac            {paid_frac} (paid rounds / {rounds} rounds)");

    // Layer contrast: no traced repetition did file I/O (a log would) or
    // blocked (a socket reply, a ring or a worker thread would make it
    // wait), and the process has one thread.
    out.check(blocking.iter().all(|&b| b == Some(zero)), || {
        format!("fib-offline did I/O or blocked in its traced repetitions: {blocking:?}")
    });
    let threads = threads();
    out.check(threads == 1.0, || format!("fib-offline runs {threads} threads, not 1"));
    out.check(totals.get("trie.lmp").is_some_and(|t| t.count > 0), || {
        "the traced run recorded no trie.lmp spans".into()
    });
    println!("layer contrast: {}", if out.problems.is_empty() { "pass" } else { "FAIL" });

    let spans_path = ctx.out.join("spans-fib-offline.csv");
    if let Err(e) = std::fs::create_dir_all(&ctx.out).and_then(|()| traced.write_csv(&spans_path)) {
        out.check(false, || format!("writing {}: {e}", spans_path.display()));
    } else {
        println!("spans: {} written to {}", traced.spans().len(), spans_path.display());
    }

    out.metric("engine.floor_rps", "1/s", median(&floor_rps));
    out.metric("front.ns_per_req", "ns", median(&lmp_per_event));
    out.metric("setup.build_ms", "ms", median(&ms("trie.build")));
    out.metric("setup.open_ms", "ms", median(&ms("policy.new")));
    out.metric("policy.paid_frac", "ratio", paid_frac);
    out.metric("policy.reorg_per_req", "count", reorg_per_event);
    out.metric("trace.overhead_pct", "%", overhead_pct);
    out
}
