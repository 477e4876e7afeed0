//! Golden digests of both loss-aware runtimes.
//!
//! The TDMA executor ([`m2m_core::faults::FaultyExec`]) and the
//! discrete-event simulator ([`m2m_core::sim::SimExec`]) each decide
//! which messages arrive; what every destination computes from those
//! arrivals must not drift when either runtime is restructured. Each case
//! below runs a few lossy rounds and hashes **every** outcome field with
//! FNV-1a — result bits, coverage (including the missing-source lists),
//! cost, slots, retransmissions, drops, link events, and for the
//! simulator its events, ticks and queue statistics — against a pinned
//! value. The cases span both runtimes × three routing modes × three
//! delivery models (uniform Bernoulli p = 0.1, per-link ETX, an injected
//! outage trace), each under a roomy and a tight slot budget (the tight
//! one ends rounds with messages still in flight).

use m2m_core::exec::CompiledSchedule;
use m2m_core::faults::{FaultOutcome, FaultyExec, RetryPolicy, SALT_STRIDE};
use m2m_core::plan::GlobalPlan;
use m2m_core::sim::{SimExec, SimOutcome, SimParams};
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_netsim::failure::FailureTrace;
use m2m_netsim::quality::LinkQuality;
use m2m_netsim::{DeliveryModel, Deployment, Network, RoutingMode, RoutingTables};

const ROUNDS: u64 = 4;

/// A tight queue bound (overflow accounting shows up) and two-tick links.
const SIM_PARAMS: SimParams = SimParams {
    queue_cap: 2,
    latency: 2,
};

/// Incremental 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn hash_fault(h: &mut Fnv, o: &FaultOutcome) {
    h.u64(o.results.len() as u64);
    for r in &o.results {
        match r {
            Some(v) => {
                h.u64(1);
                h.f64(*v);
            }
            None => h.u64(0),
        }
    }
    h.u64(o.coverage.len() as u64);
    for c in &o.coverage {
        h.u64(u64::from(c.destination.0));
        h.u64(c.covered as u64);
        h.u64(c.demanded as u64);
        h.u64(c.missing.len() as u64);
        for m in &c.missing {
            h.u64(u64::from(m.0));
        }
    }
    h.f64(o.cost.tx_uj);
    h.f64(o.cost.rx_uj);
    h.u64(o.cost.messages as u64);
    h.u64(o.cost.units as u64);
    h.u64(o.cost.payload_bytes);
    h.u64(u64::from(o.slots_used));
    h.u64(o.retransmissions as u64);
    h.u64(o.dropped_messages as u64);
    h.u64(u64::from(o.delivered));
    h.u64(o.link_events.len() as u64);
    for e in &o.link_events {
        h.u64(u64::from(e.tail.0));
        h.u64(u64::from(e.head.0));
        h.u64(u64::from(e.failures));
        h.u64(u64::from(e.dropped));
    }
}

fn hash_sim(h: &mut Fnv, o: &SimOutcome) {
    hash_fault(h, &o.outcome);
    h.u64(o.events);
    h.u64(o.ticks);
    h.u64(u64::from(o.peak_queue_depth));
    h.u64(o.queue_overflows);
    h.u64(o.overflow_nodes.len() as u64);
    for &(n, count) in &o.overflow_nodes {
        h.u64(u64::from(n.0));
        h.u64(u64::from(count));
    }
}

fn build(mode: RoutingMode) -> (Network, CompiledSchedule) {
    let net = Network::with_default_energy(Deployment::great_duck_island(31));
    let spec = generate_workload(&net, &WorkloadConfig::paper_default(9, 6, 77));
    let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);
    let plan = GlobalPlan::build(&net, &spec, &routing);
    let compiled = CompiledSchedule::compile(&net, &spec, &plan).expect("schedulable");
    (net, compiled)
}

fn model(pick: &str, net: &Network, compiled: &CompiledSchedule) -> DeliveryModel {
    match pick {
        "bernoulli" => DeliveryModel::uniform(0.1, 0x90_1d),
        "etx" => DeliveryModel::from_quality(&LinkQuality::distance_based(net, 0.35, 5), 0xe7),
        _ => {
            // Outage windows on every third scheduled link, staggered so
            // some recover within a round and some stay down for good.
            let mut trace = FailureTrace::new();
            for (i, msg) in compiled.schedule().messages.iter().enumerate() {
                if i % 3 == 0 {
                    let from = (i as u64 * 7) % 23;
                    let until = if i % 2 == 0 { from + 9 } else { u64::MAX };
                    trace = trace.down(msg.edge.0, msg.edge.1, from, until);
                }
            }
            DeliveryModel::trace(trace)
        }
    }
}

fn readings(compiled: &CompiledSchedule, round: u64) -> Vec<f64> {
    compiled
        .sources()
        .ids()
        .iter()
        .map(|s| (f64::from(s.0) * 0.73 + round as f64 * 1.91).sin() * 40.0 + f64::from(s.0) * 0.01)
        .collect()
}

fn policies() -> [RetryPolicy; 2] {
    [
        RetryPolicy::bounded(4, 1, 100_000),
        RetryPolicy::bounded(3, 0, 14),
    ]
}

/// `(runtime, mode, model)` → digest over every round under every policy.
fn digest(runtime: &str, mode: RoutingMode, pick: &str) -> u64 {
    let (net, compiled) = build(mode);
    let model = model(pick, &net, &compiled);
    let faulty = FaultyExec::new(&net, &compiled);
    let mut h = Fnv::new();
    match runtime {
        "lossy" => {
            let mut scratch = faulty.scratch();
            for policy in policies() {
                for round in 0..ROUNDS {
                    let out = faulty.run(
                        &readings(&compiled, round),
                        &model,
                        &policy,
                        round * SALT_STRIDE,
                        &mut scratch,
                    );
                    hash_fault(&mut h, &out);
                }
            }
        }
        _ => {
            let sim = SimExec::from_faults(faulty, SIM_PARAMS);
            let mut st = sim.state();
            for policy in policies() {
                for round in 0..ROUNDS {
                    let out = sim.run(
                        &readings(&compiled, round),
                        &model,
                        &policy,
                        round * SALT_STRIDE,
                        &mut st,
                    );
                    hash_sim(&mut h, &out);
                }
            }
        }
    }
    h.0
}

const MODES: [(&str, RoutingMode); 3] = [
    ("spt", RoutingMode::ShortestPathTrees),
    ("shared", RoutingMode::SharedSpanningTree),
    ("steiner", RoutingMode::SteinerTrees),
];

/// Pinned digests, one per `(runtime, routing mode, delivery model)`.
const GOLDEN: [(&str, &str, &str, u64); 18] = [
    ("lossy", "spt", "bernoulli", 0xfeb8f38f58ba333e),
    ("lossy", "spt", "etx", 0x2a537d10cbd33fe5),
    ("lossy", "spt", "trace", 0xd777cfe0016aad5e),
    ("lossy", "shared", "bernoulli", 0xcbb9fc299066b867),
    ("lossy", "shared", "etx", 0x27e7b54bfac29d78),
    ("lossy", "shared", "trace", 0xcb7448cd500bb47e),
    ("lossy", "steiner", "bernoulli", 0xece99296f0675db7),
    ("lossy", "steiner", "etx", 0x6d4d5d9c16f42040),
    ("lossy", "steiner", "trace", 0x66a6fe724c80464d),
    ("sim", "spt", "bernoulli", 0x2aefff233a4276b3),
    ("sim", "spt", "etx", 0x8482ec809e5dfe8a),
    ("sim", "spt", "trace", 0xef9ee36855709d45),
    ("sim", "shared", "bernoulli", 0xe9e0abf3090f60a5),
    ("sim", "shared", "etx", 0x81794a95f2bfcd42),
    ("sim", "shared", "trace", 0xab33746250af1c6c),
    ("sim", "steiner", "bernoulli", 0xf88c2e962459e366),
    ("sim", "steiner", "etx", 0x5b8dc655a486d1b3),
    ("sim", "steiner", "trace", 0x075c93c86401d27e),
];

#[test]
fn lossy_and_sim_outcomes_match_their_golden_digests() {
    let mut mismatches = Vec::new();
    for &(runtime, mode_name, pick, want) in &GOLDEN {
        let mode = MODES
            .iter()
            .find(|(n, _)| *n == mode_name)
            .map(|&(_, m)| m)
            .unwrap();
        let got = digest(runtime, mode, pick);
        if got != want {
            mismatches.push(format!(
                "(\"{runtime}\", \"{mode_name}\", \"{pick}\", {got:#018x}),"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "outcome digests drifted:\n{}",
        mismatches.join("\n")
    );
}

/// The cases must actually exercise loss: every model drops or retries
/// somewhere, and the tight budget leaves some round undelivered.
#[test]
fn golden_cases_exercise_loss_and_the_deadline() {
    for (_, mode) in MODES {
        let (net, compiled) = build(mode);
        let faulty = FaultyExec::new(&net, &compiled);
        let mut scratch = faulty.scratch();
        let sim = SimExec::from_faults(faulty.clone(), SIM_PARAMS);
        let mut st = sim.state();
        for pick in ["bernoulli", "etx", "trace"] {
            let model = model(pick, &net, &compiled);
            let [roomy, tight] = policies();
            let mut lossy = false;
            let mut cut = false;
            let mut sim_cut = false;
            for round in 0..ROUNDS {
                let r = readings(&compiled, round);
                let salt = round * SALT_STRIDE;
                let a = faulty.run(&r, &model, &roomy, salt, &mut scratch);
                let b = faulty.run(&r, &model, &tight, salt, &mut scratch);
                let c = sim.run(&r, &model, &tight, salt, &mut st);
                lossy |= a.retransmissions > 0;
                cut |= !b.delivered;
                sim_cut |= c.outcome.degraded_destinations() > 0;
            }
            assert!(lossy, "{mode:?}/{pick}: no loss exercised");
            assert!(cut, "{mode:?}/{pick}: tight budget never bit");
            assert!(
                sim_cut,
                "{mode:?}/{pick}: tight budget never bit the simulator"
            );
        }
    }
}
