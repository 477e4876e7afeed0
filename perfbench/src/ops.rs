//! The timed operations and the fixtures they run on.
//!
//! Every operation calls `m2m-core` only through its public API. Timers
//! wrap the public call alone; input generation, output checks and the
//! traced run's stage re-drive run outside them.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use m2m_core::config::{Config, Runtime};
use m2m_core::dynamics::WorkloadUpdate;
use m2m_core::edge_opt::{build_edge_problems, solve_edge_slab};
use m2m_core::exec::{CompiledSchedule, ExecState};
use m2m_core::faults::{FaultOutcome, FaultScratch, FaultyExec, SALT_STRIDE};
use m2m_core::memo::SharedSolveCache;
use m2m_core::metrics::RoundCost;
use m2m_core::plan::GlobalPlan;
use m2m_core::schedule::build_schedule;
use m2m_core::service::{PlanService, TenantId, TenantOptions};
use m2m_core::session::{RoundReport, Session};
use m2m_core::sim::{SimExec, SimState};
use m2m_core::slots::assign_slots;
use m2m_core::spec::AggregationSpec;
use m2m_core::topo::Topology;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_graph::NodeId;
use m2m_netsim::failure::DeliveryModel;
use m2m_netsim::{Network, RoutingMode, RoutingTables};

use crate::trace::{SpanId, Tracer};
use crate::util::{close, expected, row_map, Digest, Rng};

/// Bernoulli loss probability of every lossy and sim round.
const LOSS: f64 = 0.1;
/// Seed of every spec (cold rotation, steady spec, service templates).
/// The specs are the same for every `--seed`, so every run plans and
/// executes the same amount of work; the seed picks the readings, loss
/// draws, salts and update sources.
const SPEC_SEED: u64 = 0x5eed_2007;
/// Reading rows per steady pool; slices cycle through it.
const POOL: usize = 512;
/// Rounds per timed slice of a 250-destination spec, per runtime
/// (compiled, lossy, sim); smaller specs scale them up, so a slice takes
/// about 5 to 10 ms at 1k nodes: long enough not to be dominated by the
/// cache misses after a neighbouring operation, short enough that a run
/// holds hundreds of slices of every runtime.
const SLICE_ROWS: [usize; 3] = [512, 2, 4];
/// Set-up slices per runtime; their lossy and sim rounds give
/// `delivered_fraction`.
const WARM_SLICES: usize = 32;
/// Admissions per timed admission slice.
pub const ADMIT_BATCH: usize = 2;
/// Cold builds rotate through the three routing modes.
const MODES: [RoutingMode; 3] = [
    RoutingMode::ShortestPathTrees,
    RoutingMode::SharedSpanningTree,
    RoutingMode::SteinerTrees,
];
const RUNTIMES: [Runtime; 3] = [Runtime::Compiled, Runtime::Lossy, Runtime::Sim];

/// Run-wide state every operation reports into.
pub struct Ctx {
    pub tr: Tracer,
    pub net: Arc<Network>,
    pub cfg: Config,
    pub seed: u64,
    /// True while the current operation lies in its kind's count window.
    pub window: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ctx {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Records a deterministic work count inside the count window.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.window {
            self.tr.count(name, value);
        }
    }

    pub fn delivery(&self, salt: u64) -> DeliveryModel {
        DeliveryModel::uniform(LOSS, self.seed ^ salt)
    }
}

/// Times `f` inside a span; returns its output, the span and seconds.
fn timed<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, SpanId, f64) {
    let ((out, secs), id) = tr.span_under(None, name, || {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64())
    });
    (out, id, secs)
}

/// The traced run's re-drive of a build: the same spec through every
/// public plan stage, attributed to the opaque call `parent`, checked
/// against the session's product. `topo` is the substrate an admission
/// reused (routing and snapshot are then not paid); `cache` is the
/// shared solve cache an admission solved through.
fn redrive_build(
    ctx: &mut Ctx,
    parent: SpanId,
    session: &Session,
    topo: Option<Arc<Topology>>,
    cache: Option<Arc<Mutex<SharedSolveCache>>>,
) -> bool {
    let spec = session.spec();
    let mode = session.driver().maintainer().mode();
    let net = Arc::clone(&ctx.net);
    let threads = ctx.cfg.resolved_threads();
    let topo = match topo {
        Some(t) => t,
        None => {
            let (routing, _) = ctx.tr.span_under(parent, "routing.build", || {
                RoutingTables::build(&net, &spec.source_to_destinations(), mode)
            });
            let (topo, _) = ctx.tr.span_under(parent, "topo.snapshot", || {
                Arc::new(Topology::snapshot(spec, &routing))
            });
            ctx.count("routing.forest_nodes", routing.total_tree_size() as f64);
            ctx.count(
                "routing.directed_edges",
                routing.directed_edges().len() as f64,
            );
            ctx.count("topo.edges", topo.edge_count() as f64);
            ctx.count("topo.slab_bytes", topo.slab_bytes() as f64);
            topo
        }
    };
    let (problems, _) = ctx
        .tr
        .span_under(parent, "edge_opt.problems", || build_edge_problems(&topo));
    ctx.count("edge_opt.problems", problems.len() as f64);
    let (solutions, _) = match cache {
        Some(cache) => ctx.tr.span_under(parent, "memo.solve_all", || {
            cache
                .lock()
                .expect("solve cache poisoned")
                .solve_all(&problems, spec, threads)
        }),
        None => ctx.tr.span_under(parent, "edge_opt.solve", || {
            solve_edge_slab(&problems, spec, threads)
        }),
    };
    let (plan, _) = ctx.tr.span_under(parent, "plan.assemble", || {
        GlobalPlan::from_solutions(spec, topo, problems, solutions)
    });
    ctx.count("plan.repairs", plan.repair_count() as f64);
    ctx.count("plan.units", plan.total_units() as f64);
    let (schedule, _) = ctx
        .tr
        .span_under(parent, "schedule.build", || build_schedule(spec, &plan));
    let Ok(schedule) = schedule else {
        return false;
    };
    ctx.count("schedule.units", schedule.units.len() as f64);
    ctx.count("schedule.unit_arcs", schedule.unit_arcs.len() as f64);
    ctx.count("schedule.messages", schedule.messages.len() as f64);
    let (compiled, _) = ctx.tr.span_under(parent, "exec.lower", || {
        CompiledSchedule::from_schedule(net.energy(), spec, schedule)
    });
    let mine = session.compiled();
    plan.solutions() == session.driver().maintainer().plan().solutions()
        && compiled.schedule().messages.len() == mine.schedule().messages.len()
        && compiled.round_cost() == mine.round_cost()
}

/// Re-drives the lazy fault-engine construction under `parent`:
/// slot assignment (attributed to the engine) and `FaultyExec::new`.
fn redrive_faults(ctx: &mut Ctx, parent: SpanId, compiled: &CompiledSchedule) -> FaultyExec {
    let net = Arc::clone(&ctx.net);
    let (faults, fid) = ctx
        .tr
        .span_under(parent, "faults.new", || FaultyExec::new(&net, compiled));
    let (slots, _) = ctx.tr.span_under(fid, "slots.assign", || {
        assign_slots(&net, compiled.schedule())
    });
    ctx.count("slots.slot_count", f64::from(slots.slot_count));
    faults
}

/// Checks a round's results: every result of a compiled round, and every
/// destination a lossy or sim round covered completely, must be within
/// 1e-9 of the reference aggregate.
fn round_ok(report: &RoundReport, want: &[f64]) -> bool {
    let results = report.results();
    if results.len() != want.len() {
        return false;
    }
    match report.fault() {
        None => results
            .iter()
            .zip(want)
            .all(|(r, &w)| r.is_some_and(|v| close(v, w))),
        Some(out) => out
            .coverage
            .iter()
            .zip(results.iter().zip(want))
            .all(|(c, (r, &w))| !c.complete() || r.is_some_and(|v| close(v, w))),
    }
}

/// Lossy/sim round tallies for the deterministic window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Coverage {
    pub covered: u64,
    pub demanded: u64,
}

impl Coverage {
    pub fn add(&mut self, out: &FaultOutcome) {
        for c in &out.coverage {
            self.covered += c.covered as u64;
            self.demanded += c.demanded as u64;
        }
    }
}

fn fault_counts(ctx: &mut Ctx, out: &FaultOutcome, messages: usize) {
    ctx.count(
        "faults.retransmissions_per_round",
        out.retransmissions as f64,
    );
    ctx.count("faults.dropped_per_round", out.dropped_messages as f64);
    let attempts = (messages + out.retransmissions) as f64;
    ctx.count(
        "faults.useful_ratio",
        (messages - out.dropped_messages.min(messages)) as f64 / attempts.max(1.0),
    );
}

// ---------------------------------------------------------------- cold

/// One cold build: a fresh spec to a compiled lossy `Session` with no
/// shared cache, then its first lossy round.
pub struct ColdSample {
    pub build_s: f64,
    pub first_s: f64,
    /// Compiled round energy of the spec's plan (deterministic).
    pub energy_mj: f64,
}

/// Spec `i` of the cold rotation, routed by `MODES[i % 3]`.
fn cold_spec(ctx: &Ctx, shape: (usize, usize), i: u64) -> (AggregationSpec, RoutingMode) {
    let wl = WorkloadConfig::paper_default(
        shape.0,
        shape.1,
        SPEC_SEED.wrapping_mul(7919).wrapping_add(i),
    );
    (generate_workload(&ctx.net, &wl), MODES[(i % 3) as usize])
}

pub fn cold_op(ctx: &mut Ctx, shape: (usize, usize), i: u64) -> ColdSample {
    let (spec, mode) = cold_spec(ctx, shape, i);
    let builder = Session::builder(Arc::clone(&ctx.net), spec)
        .routing_mode(mode)
        .config(ctx.cfg.clone())
        .runtime(Runtime::Lossy)
        .delivery(ctx.delivery(i))
        .base_salt(ctx.seed.wrapping_add(i));
    let (mut session, bid, build_s) = timed(&mut ctx.tr, "session.build", || builder.build());
    let mut rng = Rng::new(ctx.seed ^ i.wrapping_mul(0x9e37));
    let sources = session.compiled().sources().ids().to_vec();
    let row: Vec<f64> = sources.iter().map(|_| rng.reading()).collect();
    let rows = [row];
    let (reports, rid, round_s) = timed(&mut ctx.tr, "session.run_rounds", || {
        session.run_rounds(&rows)
    });
    let first_s = build_s + round_s;

    let readings = row_map(&sources, &rows[0]);
    let dests: Vec<NodeId> = session.compiled().destinations().collect();
    let want = expected(session.spec(), &dests, &readings);
    let mut state = ExecState::for_schedule(session.compiled());
    session.compiled().run_round_on(&readings, &mut state);
    let compiled_ok = state
        .results()
        .iter()
        .zip(&want)
        .all(|(&g, &w)| close(g, w));
    let mut ok = compiled_ok && reports.len() == 1 && round_ok(&reports[0], &want);

    if ctx.tr.on() {
        ok &= redrive_build(ctx, bid, &session, None, None);
        let faults = redrive_faults(ctx, rid, session.compiled());
        let mut scratch = faults.scratch();
        let salt = session.base_salt();
        let delivery = session.delivery().clone();
        let policy = ctx.cfg.retry_policy();
        let (out, _) = ctx.tr.span_under(rid, "faults.run", || {
            faults.run(&rows[0], &delivery, &policy, salt, &mut scratch)
        });
        ok &= reports[0].fault() == Some(&out);
        let mut out = vec![0.0; dests.len()];
        let mut st = ExecState::batched(session.compiled(), ctx.cfg.lanes());
        ctx.tr.span_under(rid, "exec.run_rounds_batched", || {
            session
                .compiled()
                .run_rounds_batched(&rows, &mut st, &mut out)
        });
    }
    ctx.op(ok, || format!("cold build {i}: output mismatch"));
    ColdSample {
        build_s,
        first_s,
        energy_mj: session.compiled().round_cost().total_mj(),
    }
}

// ---------------------------------------------------------------- steady

/// What the traced run re-drives a session's slices through.
enum Twin {
    None,
    Exec(ExecState),
    Faults(Box<(FaultyExec, FaultScratch)>),
    Sim(Box<(SimExec, SimState)>),
}

struct Runner {
    session: Session,
    cursor: usize,
    twin: Twin,
}

/// One spec built into a compiled, a lossy and a sim session over a
/// seeded pool of reading rows with precomputed reference results.
pub struct Steady {
    pub spec_cost: RoundCost,
    rows: Vec<Vec<f64>>,
    want: Vec<Vec<f64>>,
    runners: Vec<Runner>,
    slice_rows: [usize; 3],
    /// Coverage over the set-up rounds (deterministic under the seed).
    pub coverage: Coverage,
}

impl Steady {
    pub fn new(ctx: &mut Ctx, shape: (usize, usize), digest: &mut Digest) -> Steady {
        let wl = WorkloadConfig::paper_default(shape.0, shape.1, SPEC_SEED ^ 0x57ea_d100);
        let spec = generate_workload(&ctx.net, &wl);
        let mut runners = Vec::new();
        let mut ok = true;
        for runtime in RUNTIMES {
            let builder = Session::builder(Arc::clone(&ctx.net), spec.clone())
                .routing_mode(RoutingMode::ShortestPathTrees)
                .config(ctx.cfg.clone())
                .runtime(runtime)
                .delivery(ctx.delivery(0x57ea_d100))
                .base_salt(ctx.seed ^ 0x5a17);
            let (session, bid, _) = timed(&mut ctx.tr, "session.build", || builder.build());
            if ctx.tr.on() {
                ok &= redrive_build(ctx, bid, &session, None, None);
            }
            runners.push(Runner {
                session,
                cursor: 0,
                twin: Twin::None,
            });
        }
        let sources = runners[0].session.compiled().sources().ids().to_vec();
        let dests: Vec<NodeId> = runners[0].session.compiled().destinations().collect();
        let mut rng = Rng::new(ctx.seed ^ 0x0dd5);
        let rows: Vec<Vec<f64>> = (0..POOL)
            .map(|_| sources.iter().map(|_| rng.reading()).collect())
            .collect();
        let want = rows
            .iter()
            .map(|r| expected(&spec, &dests, &row_map(&sources, r)))
            .collect();
        let mut me = Steady {
            spec_cost: runners[0].session.compiled().round_cost(),
            rows,
            want,
            runners,
            slice_rows: SLICE_ROWS.map(|r| r * (250 / shape.0).max(1)),
            coverage: Coverage::default(),
        };
        me.p0_check(ctx, &sources);
        ctx.op(ok, || "steady build: staged product differs".into());
        // Warm-up (the p=0 check built the lazy slot tables and
        // executors); the outputs feed the digest and the coverage.
        for k in 0..3 {
            for _ in 0..WARM_SLICES {
                me.slice(ctx, k, Some(&mut *digest));
            }
        }
        me
    }

    /// One round at p=0 on the lossy and sim sessions must equal the
    /// compiled round bit for bit (results and cost).
    fn p0_check(&mut self, ctx: &mut Ctx, sources: &[NodeId]) {
        let readings = row_map(sources, &self.rows[0]);
        let base = self.runners[0].session.run(&readings);
        for r in &mut self.runners[1..] {
            let s = &mut r.session;
            let lossy = s.delivery().clone();
            s.set_delivery(DeliveryModel::reliable());
            let got = s.run(&readings);
            s.set_delivery(lossy);
            let same = got.cost() == base.cost()
                && got.results().len() == base.results().len()
                && got
                    .results()
                    .iter()
                    .zip(base.results())
                    .all(|(a, b)| a.map(f64::to_bits) == b.map(f64::to_bits));
            ctx.op(same, || {
                format!("p=0 {} round differs from compiled", s.runtime().name())
            });
        }
    }

    /// Runs one slice on runtime `k` (0 compiled, 1 lossy, 2 sim), in
    /// chunks of at most `POOL` rows; returns the rounds run and the
    /// seconds `Session::run_rounds` took.
    pub fn slice(
        &mut self,
        ctx: &mut Ctx,
        k: usize,
        mut digest: Option<&mut Digest>,
    ) -> (usize, f64) {
        let rows = self.slice_rows[k];
        let mut secs = 0.0;
        let mut done = 0;
        while done < rows {
            let n = (rows - done).min(POOL);
            secs += self.chunk(ctx, k, n, digest.as_deref_mut());
            done += n;
        }
        (rows, secs)
    }

    fn chunk(&mut self, ctx: &mut Ctx, k: usize, rows: usize, digest: Option<&mut Digest>) -> f64 {
        let r = &mut self.runners[k];
        if r.cursor + rows > POOL {
            r.cursor = 0;
        }
        let start = r.cursor;
        r.cursor += rows;
        let batch = &self.rows[start..start + rows];
        let first_round = r.session.rounds_run();
        let (reports, sid, secs) = timed(&mut ctx.tr, "session.run_rounds", || {
            r.session.run_rounds(batch)
        });
        ctx.tr.set_rows(sid, rows);
        let mut ok = reports.len() == rows;
        for (rep, want) in reports.iter().zip(&self.want[start..]) {
            ok &= round_ok(rep, want);
        }
        if let Some(d) = digest {
            for rep in &reports {
                d.results(rep.results());
                d.cost(&rep.cost());
                if let Some(f) = rep.fault() {
                    d.coverage(&f.coverage);
                    self.coverage.add(f);
                }
            }
        }
        if ctx.tr.on() {
            ok &= Self::redrive(ctx, r, sid, batch, &reports, first_round);
        }
        ctx.op(ok, || {
            format!("{} slice: output mismatch", RUNTIMES[k].name())
        });
        secs
    }

    fn redrive(
        ctx: &mut Ctx,
        r: &mut Runner,
        sid: SpanId,
        batch: &[Vec<f64>],
        reports: &[RoundReport],
        first_round: u64,
    ) -> bool {
        let compiled = r.session.compiled();
        if matches!(r.twin, Twin::None) {
            r.twin = match r.session.runtime() {
                Runtime::Compiled => Twin::Exec(ExecState::batched(compiled, ctx.cfg.lanes())),
                Runtime::Lossy => {
                    let f = redrive_faults(ctx, sid, compiled);
                    let scratch = f.scratch();
                    Twin::Faults(Box::new((f, scratch)))
                }
                Runtime::Sim => {
                    let f = redrive_faults(ctx, sid, compiled);
                    let params = ctx.cfg.sim_params();
                    let (sim, _) = ctx
                        .tr
                        .span_under(sid, "sim.new", || SimExec::from_faults(f, params));
                    let st = sim.state();
                    Twin::Sim(Box::new((sim, st)))
                }
            };
        }
        let salt = |i: usize| {
            r.session
                .base_salt()
                .wrapping_add((first_round + i as u64).wrapping_mul(SALT_STRIDE))
        };
        let delivery = r.session.delivery().clone();
        let policy = ctx.cfg.retry_policy();
        let messages = compiled.round_cost().messages;
        let mut ok = true;
        match &mut r.twin {
            Twin::None => unreachable!("twin built above"),
            Twin::Exec(state) => {
                let dests = compiled.destination_count();
                let mut out = vec![0.0; batch.len() * dests];
                let (_, bid) = ctx.tr.span_under(sid, "exec.run_rounds_batched", || {
                    compiled.run_rounds_batched(batch, state, &mut out)
                });
                ctx.tr.set_rows(bid, batch.len());
                ctx.count("exec.messages_per_round", messages as f64);
                for (rep, got) in reports.iter().zip(out.chunks(dests.max(1))) {
                    ok &= rep
                        .results()
                        .iter()
                        .zip(got)
                        .all(|(a, &b)| a.map(f64::to_bits) == Some(b.to_bits()));
                }
            }
            Twin::Faults(twin) => {
                let (faults, scratch) = &mut **twin;
                for (i, (row, rep)) in batch.iter().zip(reports).enumerate() {
                    let (out, _) = ctx.tr.span_under(sid, "faults.run", || {
                        faults.run(row, &delivery, &policy, salt(i), scratch)
                    });
                    fault_counts(ctx, &out, messages);
                    ok &= rep.fault() == Some(&out);
                }
            }
            Twin::Sim(twin) => {
                let (sim, st) = &mut **twin;
                for (i, (row, rep)) in batch.iter().zip(reports).enumerate() {
                    let (out, _) = ctx.tr.span_under(sid, "sim.run", || {
                        sim.run(row, &delivery, &policy, salt(i), st)
                    });
                    ctx.count("sim.events_per_round", out.events as f64);
                    ctx.count("sim.peak_queue_depth", f64::from(out.peak_queue_depth));
                    ok &= rep.sim() == Some(&out);
                }
            }
        }
        ok
    }
}

// ---------------------------------------------------------------- service

/// A `PlanService` over a pool of templates: a churn fleet evicted and
/// re-admitted oldest first, update tenants that are never evicted, and
/// reading maps for tenant rounds.
pub struct Service {
    pub svc: PlanService,
    templates: Vec<(AggregationSpec, RoutingMode)>,
    template_cost: Vec<RoundCost>,
    churn: VecDeque<(TenantId, usize)>,
    updates: Vec<TenantId>,
    update_cursor: usize,
    update_rng: Rng,
    readings: Vec<BTreeMap<NodeId, f64>>,
    read_cursor: usize,
    pub admit_s: Vec<f64>,
}

/// Templates in the pool, churn tenants per template, update tenants.
const TEMPLATES: usize = 8;
const CHURN_COPIES: usize = 2;
const UPDATE_TENANTS: usize = 4;

impl Service {
    pub fn new(ctx: &mut Ctx, shape: (usize, usize), digest: &mut Digest) -> Service {
        let templates: Vec<(AggregationSpec, RoutingMode)> = (0..TEMPLATES as u64)
            .map(|i| {
                let wl = WorkloadConfig::paper_default(shape.0, shape.1, SPEC_SEED ^ (0x7e40 + i));
                let mode = if i % 2 == 0 {
                    RoutingMode::ShortestPathTrees
                } else {
                    RoutingMode::SteinerTrees
                };
                (generate_workload(&ctx.net, &wl), mode)
            })
            .collect();
        let mut rng = Rng::new(ctx.seed ^ 0x5e1f);
        let readings = (0..8)
            .map(|_| ctx.net.nodes().map(|v| (v, rng.reading())).collect())
            .collect();
        let mut me = Service {
            svc: PlanService::with_config(Arc::clone(&ctx.net), ctx.cfg.clone()),
            templates,
            template_cost: Vec::new(),
            churn: VecDeque::new(),
            updates: Vec::new(),
            update_cursor: 0,
            update_rng: Rng::new(ctx.seed ^ 0xa9d7),
            readings,
            read_cursor: 0,
            admit_s: Vec::new(),
        };
        for copy in 0..CHURN_COPIES {
            for k in 0..TEMPLATES {
                let id = me.admit(ctx, k);
                if copy == 0 {
                    let cost = me.svc.tenant(id).expect("admitted").compiled().round_cost();
                    me.template_cost.push(cost);
                }
                me.churn.push_back((id, k));
            }
        }
        // Update tenants are the SPT templates: one routing mode keeps
        // the update latencies one population, so their percentiles are
        // stable.
        for k in (0..TEMPLATES).step_by(2).take(UPDATE_TENANTS) {
            let id = me.admit(ctx, k);
            me.updates.push(id);
        }
        me.isolation_check(ctx);
        // Deterministic warm-up: one admission slice, a toggle per update
        // tenant and a read pass; the checkpoint after it is digested.
        me.admit_slice(ctx);
        for _ in 0..UPDATE_TENANTS {
            me.update(ctx);
        }
        me.read_pass(ctx, Some(&mut *digest));
        digest.bytes(me.svc.checkpoint().as_bytes());
        me.admit_s.clear();
        me
    }

    /// A repeat tenant equals a `Session` built in isolation: plan slab
    /// and round.
    fn isolation_check(&mut self, ctx: &mut Ctx) {
        let (id, k) = self.churn[TEMPLATES];
        let (spec, mode) = self.templates[k].clone();
        let builder = Session::builder(Arc::clone(&ctx.net), spec)
            .routing_mode(mode)
            .config(ctx.cfg.clone());
        let (mut isolated, bid, _) = timed(&mut ctx.tr, "session.build", || builder.build());
        let mut ok = !ctx.tr.on() || redrive_build(ctx, bid, &isolated, None, None);
        let tenant = self.svc.tenant(id).expect("admitted");
        ok &= tenant.driver().maintainer().plan().solutions()
            == isolated.driver().maintainer().plan().solutions();
        let got = self.svc.run(id, &self.readings[0]);
        ok &= got.as_ref() == Some(&isolated.run(&self.readings[0]));
        ctx.op(ok, || {
            "repeat tenant differs from an isolated session".into()
        });
    }

    fn admit(&mut self, ctx: &mut Ctx, k: usize) -> TenantId {
        let (spec, mode) = self.templates[k].clone();
        let options = TenantOptions {
            mode,
            ..TenantOptions::default()
        };
        let cache = self.svc.solve_cache();
        let (hits0, misses0) = cache_stats(&cache);
        let compiles0 = compiles(ctx);
        let svc = &mut self.svc;
        let (adm, aid, secs) = timed(&mut ctx.tr, "service.admit", || {
            svc.admit_with(spec, options)
        });
        self.admit_s.push(secs);
        let (hits1, misses1) = cache_stats(&cache);
        ctx.count("memo.hits", (hits1 - hits0) as f64);
        ctx.count("memo.misses", (misses1 - misses0) as f64);
        ctx.count("service.solves_fresh", adm.solves_fresh as f64);
        ctx.count("service.solves_cached", adm.solves_cached as f64);
        ctx.count(
            "service.substrate_reused",
            f64::from(u8::from(adm.reused_substrate)),
        );
        ctx.count("service.compiles", (compiles(ctx) - compiles0) as f64);
        let tenant = self.svc.tenant(adm.tenant).expect("admitted");
        let mut ok = self
            .template_cost
            .get(k)
            .is_none_or(|c| *c == tenant.compiled().round_cost());
        if ctx.tr.on() {
            let topo = adm
                .reused_substrate
                .then(|| Arc::clone(tenant.driver().maintainer().topology()));
            ok &= redrive_build(ctx, aid, tenant, topo, Some(cache));
        }
        ctx.op(ok, || format!("admission of template {k}: output mismatch"));
        adm.tenant
    }

    /// Evicts the oldest churn tenant and re-admits its template,
    /// `ADMIT_BATCH` times; returns the admission seconds.
    pub fn admit_slice(&mut self, ctx: &mut Ctx) -> f64 {
        let mut secs = 0.0;
        for _ in 0..ADMIT_BATCH {
            let (id, k) = self.churn.pop_front().expect("churn fleet is never empty");
            let svc = &mut self.svc;
            let (gone, _, _) = timed(&mut ctx.tr, "service.evict", || svc.evict(id));
            ctx.op(gone, || format!("evict {id}: unknown tenant"));
            let id = self.admit(ctx, k);
            secs += self.admit_s.last().copied().unwrap_or(0.0);
            self.churn.push_back((id, k));
        }
        secs
    }

    /// Adds one seeded source to a destination of the next update
    /// tenant, then removes it again; returns the mean seconds per
    /// `Session::apply`. Timing the pair keeps the sample unimodal (adds
    /// and removes cost differently) and returns the tenant to its spec.
    pub fn update(&mut self, ctx: &mut Ctx) -> f64 {
        let id = self.updates[self.update_cursor % self.updates.len()];
        let readings = &self.readings[self.update_cursor % self.readings.len()];
        self.update_cursor += 1;
        let session = self
            .svc
            .tenant_mut(id)
            .expect("update tenants are never evicted");
        let dests: Vec<NodeId> = session.spec().destinations().collect();
        let destination = dests[self.update_rng.below(dests.len())];
        let f = session.spec().function(destination).expect("destination");
        let n = ctx.net.node_count();
        let source = loop {
            let v = NodeId(self.update_rng.below(n) as u32);
            if v != destination && f.weight(v).is_none() {
                break v;
            }
        };
        let pair = [
            WorkloadUpdate::AddSource {
                destination,
                source,
                weight: 1.0,
            },
            WorkloadUpdate::RemoveSource {
                destination,
                source,
            },
        ];
        let mut secs = 0.0;
        let mut ok = true;
        for update in pair {
            let (rec0, ref0) = (session.driver().recompiles(), session.driver().refreshes());
            let (stats, _, s) = timed(&mut ctx.tr, "dynamics.apply", || session.apply(update));
            secs += s;
            let (rec1, ref1) = (session.driver().recompiles(), session.driver().refreshes());
            ctx.count("dynamics.edges_reoptimized", stats.edges_reoptimized as f64);
            ctx.count("dynamics.recompiles", (rec1 - rec0) as f64);
            ctx.count("dynamics.refreshes", (ref1 - ref0) as f64);
            let dests: Vec<NodeId> = session.compiled().destinations().collect();
            let want = expected(session.spec(), &dests, readings);
            let mut state = ExecState::for_schedule(session.compiled());
            session.compiled().run_round_on(readings, &mut state);
            ok &= state
                .results()
                .iter()
                .zip(&want)
                .all(|(&g, &w)| close(g, w));
        }
        ctx.op(ok, || format!("update on {id}: output mismatch"));
        secs / 2.0
    }

    /// One round on every tenant; returns tenant rounds and seconds.
    pub fn read_pass(&mut self, ctx: &mut Ctx, mut digest: Option<&mut Digest>) -> (usize, f64) {
        let readings = &self.readings[self.read_cursor % self.readings.len()];
        self.read_cursor += 1;
        let ids: Vec<TenantId> = self.svc.tenants().map(|(id, _)| id).collect();
        let mut secs = 0.0;
        for &id in &ids {
            let svc = &mut self.svc;
            let (report, _, s) = timed(&mut ctx.tr, "service.run", || svc.run(id, readings));
            secs += s;
            let session = self.svc.tenant(id).expect("live tenant");
            let dests: Vec<NodeId> = session.compiled().destinations().collect();
            let want = expected(session.spec(), &dests, readings);
            let ok = report.as_ref().is_some_and(|r| round_ok(r, &want));
            if let (Some(d), Some(r)) = (digest.as_deref_mut(), report.as_ref()) {
                d.results(r.results());
                d.cost(&r.cost());
            }
            ctx.op(ok, || format!("tenant {id} round: output mismatch"));
        }
        (ids.len(), secs)
    }

    /// checkpoint → restore → checkpoint must be byte-identical.
    pub fn round_trip(&mut self, ctx: &mut Ctx) -> bool {
        let svc = &self.svc;
        let (text, _, _) = timed(&mut ctx.tr, "service.checkpoint", || svc.checkpoint());
        let net = Arc::clone(&ctx.net);
        let cfg = ctx.cfg.clone();
        let (restored, _, _) = timed(&mut ctx.tr, "service.restore", || {
            PlanService::restore(net, cfg, &text)
        });
        let ok = restored.is_ok_and(|r| r.checkpoint() == text);
        ctx.op(ok, || "checkpoint -> restore -> checkpoint differs".into())
    }

    pub fn template_energy_mj(&self) -> f64 {
        self.template_cost.iter().map(RoundCost::total_mj).sum()
    }
}

fn cache_stats(cache: &Arc<Mutex<SharedSolveCache>>) -> (u64, u64) {
    let c = cache.lock().expect("solve cache poisoned");
    (c.hits(), c.misses())
}

fn compiles(ctx: &Ctx) -> u64 {
    if ctx.tr.on() {
        m2m_core::telemetry::snapshot().counter(m2m_core::telemetry::names::EXEC_COMPILES)
    } else {
        0
    }
}
