//! End-to-end benchmark of the many-to-many aggregation pipeline.
//!
//! Usage:
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!  --workload <name> --seed <n> --seconds <s> --trace <0|1> [--nodes <n>]`
//!
//! Each workload is a closed loop in one process over the same fixtures.
//! It sets them up three times (`setup_s` is the median), then measures
//! for `--seconds`: the operation kinds the workload is about run
//! round-robin in short slices over the whole time, in equal time shares,
//! so every metric samples the same host phases. Every other kind is a
//! guard: it runs a fixed number of times, spread over the gaps between
//! the measured phase's segments, so every workload reports every metric
//! while the layers it does not load stay out of its timed operations.
//!
//! The shared host slows the whole process by up to about 2x for seconds
//! at a time, and a slowdown only ever adds time. So every throughput is the
//! 95th percentile of its per-slice rates and every latency figure but
//! the tail is the 5th percentile: the fast end of each distribution,
//! over at least 200 samples so that at least 10 lie beyond it, follows
//! the program's own cost where the median follows the host.
//! Every output is checked; the last line of standard output is the JSON
//! result. With `--trace 1` the first half of the segments records spans
//! and re-drives each opaque call through the public stage functions,
//! giving the per-layer ledger, and the second half runs untraced, giving
//! the tracing overhead.

mod ops;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use m2m_core::config::{self, Config, Runtime};
use m2m_core::exec::DEFAULT_LANE_WIDTH;
use m2m_core::telemetry::Level;
use m2m_netsim::{Deployment, Network};

use ops::{ColdSample, Ctx, Service, Steady, ADMIT_BATCH};
use trace::Tracer;
use util::{mean, median, peak_rss_mb, quantile, Digest};

/// Transmission attempts per message: few enough that p=0.1 loss
/// drops some messages, so coverage accounting does real work.
const RETRIES: u32 = 2;
/// The deployment is the same for every seed (the one ROADMAP's
/// baseline table was measured on); the seed picks specs, readings, loss
/// draws and updates over it.
const DEPLOYMENT_SEED: u64 = 7;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Worker threads of every workload.
const THREADS: usize = 1;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Kind {
    Cold,
    Compiled,
    Lossy,
    Sim,
    Admit,
    Update,
    Read,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Compiled => "compiled",
            Kind::Lossy => "lossy",
            Kind::Sim => "sim",
            Kind::Admit => "admit",
            Kind::Update => "update",
            Kind::Read => "read",
        }
    }
}

const KINDS: [Kind; 7] = [
    Kind::Cold,
    Kind::Compiled,
    Kind::Lossy,
    Kind::Sim,
    Kind::Admit,
    Kind::Update,
    Kind::Read,
];

/// Operations per kind whose work counts feed the traced ledger: the
/// first ones of each kind, so every count repeats exactly for a seed.
const WINDOW: [usize; 7] = [3, 4, 4, 4, 8, 16, 4];
/// Passes over every tenant per read operation.
const READ_PASSES: usize = 4;
/// Timed-phase segments per run.
const SEGMENTS: usize = 64;
/// Operations per run of each guard kind (admissions come
/// `ADMIT_BATCH` a slice), spread evenly over the gaps after the
/// segments so they sample as many host phases as the timed operations.
/// Every kind but the cold builds gives at least `MIN_SAMPLES` samples.
const GUARD: [usize; 7] = [18, 200, 200, 200, 200, 200, 200];
/// Samples every timed kind reaches before the run ends, however slow
/// the host: the fast-end percentiles then have 10 samples beyond them.
const MIN_SAMPLES: usize = 200;
/// The fast-end percentile of per-slice rates; latencies use `1 - FAST`.
const FAST: f64 = 0.95;
/// Input sizes at 1k nodes (destinations, sources per destination) of
/// the cold rotation, the steady spec and the service templates.
const COLD: (usize, usize) = (250, 20);
const STEADY: (usize, usize) = (250, 20);
const TENANTS: (usize, usize) = (25, 20);

/// A workload: the operation kinds of its timed phase, which share its
/// time equally; every other kind is a guard.
struct Shape {
    name: &'static str,
    timed: &'static [Kind],
}

const SHAPES: [Shape; 2] = [
    // The executor hot loops do all the timed work: slices of one
    // 250x20 SPT spec on the compiled, lossy and sim runtimes. Planning
    // happens only in set-up and in the guards between segments.
    Shape {
        name: "steady_rounds_1k",
        timed: &[Kind::Compiled, Kind::Lossy, Kind::Sim],
    },
    // Repeat admissions hit the shared solve cache and reuse substrates,
    // so compile and service bookkeeping dominate, beside updates and
    // tenant rounds.
    Shape {
        name: "service_churn_1k",
        timed: &[Kind::Admit, Kind::Update, Kind::Read],
    },
];

impl Shape {
    /// Timed-phase share of each kind, in `KINDS` order (0 for guards).
    fn weights(&self) -> [f64; 7] {
        KINDS.map(|k| {
            if self.timed.contains(&k) {
                1.0 / self.timed.len() as f64
            } else {
                0.0
            }
        })
    }
}

struct Args {
    shape: &'static Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    nodes: usize,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--nodes <n>]",
        SHAPES.map(|s| s.name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--nodes" => flag,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let shape = SHAPES
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let seconds = num("--seconds")?;
    let trace = num("--trace")?;
    if !(1..=600).contains(&seconds) || trace > 1 {
        return Err("--seconds must be 1..=600 and --trace 0 or 1".into());
    }
    let nodes = match kv.get("--nodes") {
        Some(v) => v.parse().map_err(|_| "--nodes must be a whole number")?,
        None => 1000,
    };
    if !(60..=1000).contains(&nodes) {
        return Err("--nodes must be 60..=1000".into());
    }
    Ok(Args {
        shape,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace: trace == 1,
        nodes,
    })
}

/// Every `M2M_*` knob the library reads; any of them would change the
/// pinned configuration or the work, so their presence refuses the run.
const KNOBS: [&str; 15] = [
    config::THREADS_ENV,
    config::TRACE_ENV,
    config::TRACE_OUT_ENV,
    config::LOG_ENV,
    config::RETRIES_ENV,
    config::BACKOFF_ENV,
    config::MAX_SLOTS_ENV,
    config::HYSTERESIS_ENV,
    config::LANES_ENV,
    config::OBS_ENV,
    config::OBS_EVERY_ENV,
    config::OBS_CAP_ENV,
    config::SIM_QUEUE_ENV,
    config::SIM_LATENCY_ENV,
    config::RUNTIME_ENV,
];

/// One explicit configuration: every knob set, none left to the
/// environment.
fn pinned_config(threads: usize, trace: bool) -> Config {
    Config::builder()
        .threads(threads)
        .trace(trace)
        .log(Level::Off)
        .retries(RETRIES)
        .backoff_slots(0)
        .max_slots(config::DEFAULT_MAX_SLOTS)
        .hysteresis(config::DEFAULT_HYSTERESIS)
        .lanes(DEFAULT_LANE_WIDTH)
        .obs(false)
        .obs_every(config::DEFAULT_OBS_EVERY)
        .obs_cap(config::DEFAULT_OBS_CAP)
        .sim_queue(config::DEFAULT_SIM_QUEUE)
        .sim_latency(config::DEFAULT_SIM_LATENCY)
        .runtime(Runtime::Compiled)
        .build()
}

/// Scales a 1k-node input size to the run's node count.
fn scaled(size: (usize, usize), nodes: usize) -> (usize, usize) {
    ((size.0 * nodes / 1000).max(4), size.1)
}

/// Per-kind samples of one run (or one half of a traced run).
#[derive(Default)]
struct Samples {
    cold: Vec<ColdSample>,
    rates: BTreeMap<Kind, Vec<f64>>,
    admit_s: Vec<f64>,
    update_s: Vec<f64>,
}

struct Fixtures {
    steady: Steady,
    service: Service,
}

struct Run {
    args: Args,
    ctx: Ctx,
    cold_energy: [f64; 3],
    cold_next: u64,
    counts: [usize; 7],
}

impl Run {
    fn cold_shape(&self) -> (usize, usize) {
        scaled(COLD, self.args.nodes)
    }

    /// Runs one operation of `kind`, adding its samples.
    fn op(&mut self, kind: Kind, fx: &mut Fixtures, out: &mut Samples) {
        self.ctx.tr.tag = kind.name();
        let shape = self.cold_shape();
        let ctx = &mut self.ctx;
        match kind {
            Kind::Cold => {
                let i = self.cold_next;
                self.cold_next += 1;
                let s = ops::cold_op(ctx, shape, i);
                if let Some(e) = self.cold_energy.get_mut(i as usize) {
                    *e = s.energy_mj;
                }
                out.cold.push(s);
            }
            Kind::Compiled | Kind::Lossy | Kind::Sim => {
                let k = kind as usize - 1;
                let (rows, secs) = fx.steady.slice(ctx, k, None);
                out.rates.entry(kind).or_default().push(rows as f64 / secs);
            }
            Kind::Admit => {
                let before = fx.service.admit_s.len();
                let secs = fx.service.admit_slice(ctx);
                out.rates
                    .entry(kind)
                    .or_default()
                    .push(ADMIT_BATCH as f64 / secs);
                out.admit_s.extend_from_slice(&fx.service.admit_s[before..]);
            }
            Kind::Update => out.update_s.push(fx.service.update(ctx)),
            Kind::Read => {
                let (mut rounds, mut secs) = (0, 0.0);
                for _ in 0..READ_PASSES {
                    let (r, s) = fx.service.read_pass(ctx, None);
                    rounds += r;
                    secs += s;
                }
                out.rates
                    .entry(kind)
                    .or_default()
                    .push(rounds as f64 / secs);
            }
        }
    }

    /// Builds every fixture once; returns them with the set-up digest.
    fn setup(&mut self) -> (Fixtures, Digest) {
        let mut digest = Digest::default();
        let nodes = self.args.nodes;
        let (net, _) = self.ctx.tr.span_under(None, "network.build", || {
            let dep = Deployment::scaled_series(&[nodes], DEPLOYMENT_SEED).remove(0);
            Arc::new(Network::with_default_energy(dep))
        });
        self.ctx.net = net;
        let steady = Steady::new(&mut self.ctx, scaled(STEADY, nodes), &mut digest);
        let service = Service::new(&mut self.ctx, scaled(TENANTS, nodes), &mut digest);
        (Fixtures { steady, service }, digest)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    let present: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("M2M_"))
        .collect();
    for (k, v) in &present {
        println!("env {k}={v}");
    }
    if let Some((k, _)) = present.iter().find(|(k, _)| KNOBS.contains(&k.as_str())) {
        eprintln!("error: {k} is set; it would change the pinned workload, unset it");
        return ExitCode::from(2);
    }
    let cfg = pinned_config(THREADS, args.trace);
    if config::install(cfg.clone()).is_err() {
        eprintln!("error: the process configuration was already initialised");
        return ExitCode::from(2);
    }
    cfg.apply();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} nodes {} threads {} available_parallelism {parallelism}",
        args.shape.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.nodes,
        THREADS,
    );
    let mut run = Run {
        ctx: Ctx {
            tr: Tracer::new(),
            // Replaced by the deployment every set-up builds.
            net: Arc::new(Network::with_default_energy(Deployment::grid(
                2, 2, 1.0, 2.0,
            ))),
            cfg,
            seed: args.seed,
            window: false,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        },
        args,
        cold_energy: [0.0; 3],
        cold_next: 0,
        counts: [0; 7],
    };
    let traced = run.args.trace;

    // Set-up, several times; the last one's fixtures are kept.
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut fixtures = None;
    for rep in 0..SETUP_REPS {
        drop(fixtures.take());
        let last = rep + 1 == SETUP_REPS;
        run.ctx.tr.set_on(traced && last);
        run.ctx.tr.tag = "setup";
        let t = Instant::now();
        let (fx, digest) = run.setup();
        setup_s.push(t.elapsed().as_secs_f64());
        digests.push(digest);
        fixtures = Some(fx);
    }
    let mut fx = fixtures.expect("set up at least once");
    let digest = digests[0];
    run.ctx.op(digests.iter().all(|d| *d == digest), || {
        "set-up digest differs between repetitions".into()
    });
    run.ctx.window = false;

    // Measured phase, `seconds` of wall time in segments: deficit
    // round-robin over the timed kinds by time spent; after each
    // segment, the guards due.
    // With tracing, the first half of the segments is traced and the
    // second runs untraced, so the count windows are each kind's first
    // operations of the run.
    let weights = run.args.shape.weights();
    let mut halves = [Samples::default(), Samples::default()];
    let mut spent = [0.0f64; 7];
    let seconds = run.args.seconds;
    let start = Instant::now();
    let mut timed_s = 0.0;
    // Operations per kind in the current half; each half fills every
    // timed kind's window, so both halves give every metric.
    let mut half_counts = [0usize; 7];
    for seg in 0..SEGMENTS {
        let tracing = traced && 2 * seg < SEGMENTS;
        if traced && 2 * seg == SEGMENTS {
            run.ctx.tr.set_on(false);
            m2m_core::telemetry::set_enabled(false);
            half_counts = [0; 7];
        }
        let samples = &mut halves[usize::from(tracing)];
        let seg_end = seconds * (seg + 1) as f64 / SEGMENTS as f64;
        let fill_windows = seg + 1 == SEGMENTS || (tracing && 2 * (seg + 1) == SEGMENTS);
        let short = |k: usize, c: &[usize; 7]| {
            weights[k] > 0.0 && (c[k] < WINDOW[k] || (!traced && c[k] < MIN_SAMPLES))
        };
        loop {
            let pending = fill_windows && (0..7).any(|k| short(k, &half_counts));
            let over = start.elapsed().as_secs_f64() >= seg_end;
            if over && !pending {
                break;
            }
            let k = (0..7)
                .filter(|&k| weights[k] > 0.0 && (!over || short(k, &half_counts)))
                .min_by(|&a, &b| (spent[a] / weights[a]).total_cmp(&(spent[b] / weights[b])))
                .expect("every workload has a timed kind");
            run.ctx.window = tracing && run.counts[k] < WINDOW[k];
            let t = Instant::now();
            run.op(KINDS[k], &mut fx, samples);
            let dt = t.elapsed().as_secs_f64();
            spent[k] += dt;
            timed_s += dt;
            run.counts[k] += 1;
            half_counts[k] += 1;
            if traced && !tracing {
                // Admissions apply the traced tenant configuration.
                m2m_core::telemetry::set_enabled(false);
            }
        }
        for k in (0..7).filter(|&k| weights[k] == 0.0) {
            let due = GUARD[k] * (seg + 1) / SEGMENTS - GUARD[k] * seg / SEGMENTS;
            for _ in 0..due {
                run.ctx.window = tracing && run.counts[k] < WINDOW[k];
                run.op(KINDS[k], &mut fx, samples);
                run.counts[k] += 1;
                if traced && !tracing {
                    m2m_core::telemetry::set_enabled(false);
                }
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    run.ctx.window = false;
    run.ctx.tr.tag = "final";
    run.ctx.tr.set_on(traced);
    let round_trip_ok = fx.service.round_trip(&mut run.ctx);

    // Deterministic quantities.
    let energy = run.cold_energy.iter().sum::<f64>()
        + fx.steady.spec_cost.total_mj()
        + fx.service.template_energy_mj();
    let cov = fx.steady.coverage;
    let delivered = cov.covered as f64 / cov.demanded.max(1) as f64;
    let rss = peak_rss_mb().unwrap_or(f64::NAN);

    let mut lines: Vec<String> = Vec::new();
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if traced {
        let [untraced_half, traced_half] = &halves;
        let e2e_untraced = e2e(untraced_half);
        let e2e_traced = e2e(traced_half);
        for ((name, a, unit, _, _), (_, b, _, _, _)) in e2e_untraced.iter().zip(&e2e_traced) {
            lines.push(format!(
                "tracing overhead {name}: untraced {a:.4} {unit}, traced {b:.4} {unit} ({:+.1}%)",
                (b / a - 1.0) * 100.0
            ));
        }
        let primary = match run.args.shape.name {
            "steady_rounds_1k" => "compiled_rounds_per_s",
            _ => "admit_p5_ms",
        };
        let find = |v: &[(&str, f64, &str, usize, &str)]| {
            v.iter().find(|m| m.0 == primary).map_or(f64::NAN, |m| m.1)
        };
        let (a, b) = (find(&e2e_untraced), find(&e2e_traced));
        let overhead = if primary.ends_with("_per_s") {
            a / b - 1.0
        } else {
            b / a - 1.0
        };
        let timed_tags: Vec<&str> = KINDS
            .iter()
            .zip(weights)
            .filter(|(_, w)| *w > 0.0)
            .map(|(k, _)| k.name())
            .collect();
        metrics.extend(per_layer(&run.ctx.tr, &timed_tags));
        metrics.push(("trace.overhead_pct".into(), overhead * 100.0, "%"));
        lines.extend(ledger_lines(&run.ctx.tr, &timed_tags, run.args.nodes));
        if let Some(path) = write_trace(&run) {
            lines.push(format!("trace written to {path}"));
        }
    } else {
        // Untraced, every sample lands in the first set.
        let all = &halves[0];
        metrics.push(("setup_s".into(), median(&setup_s), "s"));
        lines.push(format!(
            "metric setup_s = {:.4} s (n={} set-ups: {:?})",
            median(&setup_s),
            setup_s.len(),
            setup_s
        ));
        for (name, v, unit, n, what) in e2e(all) {
            lines.push(format!("metric {name} = {v:.4} {unit} (n={n} {what})"));
            metrics.push((name.to_string(), v, unit));
        }
        metrics.push(("round_energy_mj".into(), energy, "mJ"));
        metrics.push(("delivered_fraction".into(), delivered, "ratio"));
        metrics.push(("peak_rss_mb".into(), rss, "MB"));
        lines.push(format!("metric round_energy_mj = {energy:.6} mJ (exact)"));
        lines.push(format!(
            "metric delivered_fraction = {delivered:.6} ratio ({} of {} pairs, exact)",
            cov.covered, cov.demanded
        ));
        lines.push(format!("metric peak_rss_mb = {rss:.1} MB (VmHWM)"));
    }
    lines.push(format!(
        "timed operations {timed_s:.2} s of {wall_s:.2} s; operations per kind {:?}",
        run.counts
    ));
    lines.push(format!("digest {:016x}", digest.0));
    for f in &run.ctx.failures {
        lines.push(format!("FAILED: {f}"));
    }
    for l in &lines {
        println!("{l}");
    }
    let correct = run.ctx.failed == 0 && round_trip_ok;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.ctx.attempted,
        run.ctx.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The timing metrics of one sample set: name, value, unit, sample
/// count, what was sampled. A rate is the `FAST` percentile of per-slice
/// rates; a cold-build time the median over rotations.
fn e2e(s: &Samples) -> Vec<(&'static str, f64, &'static str, usize, &'static str)> {
    let slices = |v: &[f64]| {
        if v.len() >= MIN_SAMPLES {
            "slices"
        } else {
            "slices; fewer than 10 beyond the percentile"
        }
    };
    let rotations = |f: fn(&ColdSample) -> f64| -> Vec<f64> {
        s.cold
            .chunks_exact(3)
            .map(|r| mean(&r.iter().map(f).collect::<Vec<_>>()) * 1e3)
            .collect()
    };
    let rate = |k: Kind| s.rates.get(&k).cloned().unwrap_or_default();
    let admit = &s.admit_s;
    let update = &s.update_s;
    let mut out = Vec::new();
    let build = rotations(|c| c.build_s);
    out.push(("build_ms", median(&build), "ms", build.len(), "rotations"));
    let first = rotations(|c| c.first_s);
    out.push((
        "first_result_ms",
        median(&first),
        "ms",
        first.len(),
        "rotations",
    ));
    for (name, k) in [
        ("compiled_rounds_per_s", Kind::Compiled),
        ("lossy_rounds_per_s", Kind::Lossy),
        ("sim_rounds_per_s", Kind::Sim),
        ("admits_per_s", Kind::Admit),
    ] {
        let v = rate(k);
        out.push((name, quantile(&v, FAST), "1/s", v.len(), slices(&v)));
    }
    let ms: Vec<f64> = admit.iter().map(|x| x * 1e3).collect();
    let what = if ms.len() >= MIN_SAMPLES {
        "admissions"
    } else {
        "admissions; fewer than 10 beyond the percentile"
    };
    out.push((
        "admit_p5_ms",
        quantile(&ms, 1.0 - FAST),
        "ms",
        ms.len(),
        what,
    ));
    out.push(("admit_p90_ms", quantile(&ms, 0.9), "ms", ms.len(), what));
    let ms: Vec<f64> = update.iter().map(|x| x * 1e3).collect();
    let what = if ms.len() >= MIN_SAMPLES {
        "updates"
    } else {
        "updates; fewer than 10 beyond the percentile"
    };
    out.push((
        "update_p5_ms",
        quantile(&ms, 1.0 - FAST),
        "ms",
        ms.len(),
        what,
    ));
    let v = rate(Kind::Read);
    out.push((
        "tenant_rounds_per_s",
        quantile(&v, FAST),
        "1/s",
        v.len(),
        slices(&v),
    ));
    out
}

/// The per-layer metrics of a traced run.
fn per_layer(tr: &Tracer, timed_tags: &[&str]) -> Vec<(String, f64, &'static str)> {
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut ms = |name: &str, span: &str| m.push((name.into(), tr.mean_ms(span), "ms"));
    ms("network.build_ms", "network.build");
    ms("routing.build_ms", "routing.build");
    ms("topo.snapshot_ms", "topo.snapshot");
    ms("edge_opt.problems_ms", "edge_opt.problems");
    ms("edge_opt.solve_ms", "edge_opt.solve");
    ms("memo.solve_all_ms", "memo.solve_all");
    ms("plan.assemble_ms", "plan.assemble");
    ms("schedule.build_ms", "schedule.build");
    ms("exec.lower_ms", "exec.lower");
    ms("slots.assign_ms", "slots.assign");
    ms("faults.new_ms", "faults.new");
    ms("sim.new_ms", "sim.new");
    ms("dynamics.apply_ms", "dynamics.apply");
    ms("service.admit_ms", "service.admit");
    ms("service.evict_ms", "service.evict");
    ms("service.checkpoint_ms", "service.checkpoint");
    ms("service.restore_ms", "service.restore");
    let c = |name: &str| tr.counts(name);
    let sum = |name: &str| c(name).iter().sum::<f64>();
    let avg = |name: &str| {
        if c(name).is_empty() {
            0.0
        } else {
            mean(c(name))
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    for (name, unit) in [
        ("routing.forest_nodes", "count"),
        ("routing.directed_edges", "count"),
        ("topo.edges", "count"),
        ("topo.slab_bytes", "bytes"),
        ("edge_opt.problems", "count"),
        ("plan.repairs", "count"),
        ("plan.units", "count"),
        ("schedule.units", "count"),
        ("schedule.unit_arcs", "count"),
        ("schedule.messages", "count"),
        ("exec.messages_per_round", "count"),
        ("slots.slot_count", "count"),
        ("faults.retransmissions_per_round", "count"),
        ("faults.dropped_per_round", "count"),
        ("faults.useful_ratio", "ratio"),
        ("sim.events_per_round", "count"),
        ("dynamics.edges_reoptimized", "count"),
    ] {
        m.push((name.into(), avg(name), unit));
    }
    // Per-round times over the steady slices of each runtime: every
    // recorded span with the rounds it ran.
    for (name, span, tag) in [
        ("exec.round_us", "exec.run_rounds_batched", "compiled"),
        ("faults.round_us", "faults.run", "lossy"),
        ("sim.round_us", "sim.run", "sim"),
    ] {
        m.push((name.into(), tr.per_row_us(span, tag), "us"));
    }
    let peak = c("sim.peak_queue_depth")
        .iter()
        .copied()
        .fold(0.0, f64::max);
    m.push(("sim.peak_queue_depth".into(), peak, "count"));
    let (hits, misses) = (sum("memo.hits"), sum("memo.misses"));
    m.push(("memo.hits".into(), hits, "count"));
    m.push(("memo.misses".into(), misses, "count"));
    m.push(("memo.hit_ratio".into(), ratio(hits, hits + misses), "ratio"));
    let (rec, refr) = (sum("dynamics.recompiles"), sum("dynamics.refreshes"));
    m.push((
        "dynamics.recompile_ratio".into(),
        ratio(rec, rec + refr),
        "ratio",
    ));
    m.push((
        "service.solves_fresh".into(),
        sum("service.solves_fresh"),
        "count",
    ));
    m.push((
        "service.solves_cached".into(),
        sum("service.solves_cached"),
        "count",
    ));
    m.push((
        "service.substrate_reuse_ratio".into(),
        avg("service.substrate_reused"),
        "ratio",
    ));
    m.push(("service.compiles".into(), sum("service.compiles"), "count"));
    // Session overhead: compiled slices through `Session::run_rounds`
    // against the same rows re-driven through `run_rounds_batched`.
    m.push((
        "session.run_overhead_us".into(),
        tr.per_row_us("session.run_rounds", "compiled")
            - tr.per_row_us("exec.run_rounds_batched", "compiled"),
        "us",
    ));
    for (layer, _, self_ms, share) in tr.ledger(timed_tags) {
        m.push((format!("{layer}.self_ms"), self_ms, "ms"));
        m.push((format!("{layer}.share"), share, "ratio"));
    }
    m
}

/// Human-readable ledger: per-layer self time and share, the baseline
/// stage table, and the layer-separation checks.
fn ledger_lines(tr: &Tracer, timed_tags: &[&str], nodes: usize) -> Vec<String> {
    let mut out = vec![format!(
        "ledger of the traced timed phase ({}): {} spans in the run ({} dropped)",
        timed_tags.join(","),
        tr.spans().len(),
        tr.dropped()
    )];
    for (_, module, self_ms, share) in tr.ledger(timed_tags) {
        out.push(format!(
            "ledger {module:<16} self {self_ms:>12.3} ms  share {:>6.2}%",
            share * 100.0
        ));
    }
    // ROADMAP's baseline columns, from the cold builds' re-drives.
    let cold = |name: &str| {
        let (ms, calls) = tr.tagged_ms(name, "cold");
        if calls == 0 {
            0.0
        } else {
            ms / calls as f64
        }
    };
    let plan_ms: f64 = [
        "topo.snapshot",
        "edge_opt.problems",
        "edge_opt.solve",
        "plan.assemble",
    ]
    .iter()
    .map(|s| cold(s))
    .sum();
    out.push(format!(
        "baseline {nodes} nodes (cold builds, mean per spec) | routing {:.2} ms | plan {plan_ms:.2} ms | build_schedule {:.2} ms | compile {:.2} ms | one round {:.1} us |",
        cold("routing.build"),
        cold("schedule.build"),
        cold("schedule.build") + cold("exec.lower"),
        cold("exec.run_rounds_batched") * 1e3,
    ));
    // Layer separation.
    let first_ms =
        tr.tagged_ms("session.build", "cold").0 + tr.tagged_ms("session.run_rounds", "cold").0;
    let sched_slots_ms =
        tr.tagged_ms("schedule.build", "cold").0 + tr.tagged_ms("slots.assign", "cold").0;
    out.push(format!(
        "separation schedule+slots share of cold first-result time: {:.1}% (expected >= 50%)",
        100.0 * sched_slots_ms / first_ms.max(1e-9)
    ));
    let plan_layers = ["routing", "topo", "edge_opt", "memo", "plan", "schedule"];
    let in_rounds = tr
        .spans()
        .iter()
        .filter(|s| ["compiled", "lossy", "sim", "read"].contains(&s.tag))
        .filter(|s| plan_layers.contains(&s.name.split('.').next().unwrap_or("")))
        .count();
    out.push(format!(
        "separation plan-layer spans inside round operations: {in_rounds} (expected 0)"
    ));
    let (hits, misses): (f64, f64) = (
        tr.counts("memo.hits").iter().sum(),
        tr.counts("memo.misses").iter().sum(),
    );
    out.push(format!(
        "separation memo hit ratio of the counted admissions: {:.3} ({hits} hits, {misses} misses; expected >= 0.9)",
        hits / (hits + misses).max(1.0)
    ));
    out
}

fn write_trace(run: &Run) -> Option<String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&dir).join("perfbench-traces");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!(
        "{}_seed{}.json",
        run.args.shape.name, run.args.seed
    ));
    std::fs::write(&path, run.ctx.tr.chrome_json()).ok()?;
    Some(path.display().to_string())
}
