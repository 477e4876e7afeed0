//! Oracle for both loss-aware runtimes: what a destination reports under
//! loss is the reference aggregate over exactly the sources it covered.
//!
//! For the TDMA executor ([`FaultyExec`]) and the event simulator
//! ([`SimExec`]), across three routing modes, three delivery models
//! (uniform Bernoulli, per-link ETX, an injected outage trace) and every
//! aggregate kind:
//!
//! * each destination's result equals
//!   [`AggregateFunction::reference_result`] of the same function
//!   restricted to its covered sources (demanded minus
//!   [`DestCoverage::missing`]), and is `None` exactly when nothing was
//!   covered. Min, max, range and count compare **to the bit** (no
//!   rounding happens in either fold). The summing kinds fold in plan
//!   order rather than source order, so they compare within
//!   `1e-9 · (1 + m)`, where `m` is the largest squared weighted
//!   contribution: the squares bound the variance kind's sums, and with
//!   positive readings no sum cancels.
//! * the per-node observability planes of the round add up to the
//!   outcome's [`RoundCost`]: transmissions, receptions, retries and
//!   drops exactly; transmit and receive energy within `1e-9` relative
//!   (per-node sums add in a different order than the message-order
//!   cost).
//!
//! One test per file: the observability flag and the plane registry are
//! process global.

use std::collections::BTreeMap;

use m2m_core::agg::{AggregateFunction, AggregateKind};
use m2m_core::exec::CompiledSchedule;
use m2m_core::faults::{DestCoverage, FaultOutcome, FaultyExec, RetryPolicy};
use m2m_core::metrics::RoundCost;
use m2m_core::plan::GlobalPlan;
use m2m_core::sim::{SimExec, SimParams};
use m2m_core::spec::AggregationSpec;
use m2m_core::telemetry::timeseries;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_graph::NodeId;
use m2m_netsim::failure::FailureTrace;
use m2m_netsim::quality::LinkQuality;
use m2m_netsim::{DeliveryModel, Deployment, Network, RoutingMode, RoutingTables};
use proptest::prelude::*;

const KINDS: [AggregateKind; 8] = [
    AggregateKind::WeightedSum,
    AggregateKind::WeightedAverage,
    AggregateKind::WeightedVariance,
    AggregateKind::Min,
    AggregateKind::Max,
    AggregateKind::Count,
    AggregateKind::Range,
    AggregateKind::GeometricMean,
];

fn mode_of(pick: usize) -> RoutingMode {
    match pick {
        0 => RoutingMode::ShortestPathTrees,
        1 => RoutingMode::SharedSpanningTree,
        _ => RoutingMode::SteinerTrees,
    }
}

fn model_of(pick: usize, seed: u64, net: &Network, compiled: &CompiledSchedule) -> DeliveryModel {
    match pick {
        0 => DeliveryModel::uniform(0.05 + (seed % 30) as f64 / 100.0, seed),
        1 => DeliveryModel::from_quality(&LinkQuality::distance_based(net, 0.4, seed), seed),
        _ => {
            let mut trace = FailureTrace::new();
            for (i, msg) in compiled.schedule().messages.iter().enumerate() {
                if (i as u64 + seed) % 4 == 0 {
                    let from = (i as u64 * 5 + seed) % 17;
                    trace = trace.down(msg.edge.0, msg.edge.1, from, from + 2 + seed % 40);
                }
            }
            DeliveryModel::trace(trace)
        }
    }
}

/// Positive readings: the geometric mean needs them, and no sum cancels.
fn reading(source: NodeId, salt: u64) -> f64 {
    1.0 + ((f64::from(source.0) * 0.83 + salt as f64 * 0.017).sin() + 1.0) * 20.0
}

fn bit_exact(kind: AggregateKind) -> bool {
    matches!(
        kind,
        AggregateKind::Min | AggregateKind::Max | AggregateKind::Range | AggregateKind::Count
    )
}

fn check_results(
    spec: &AggregationSpec,
    readings: &BTreeMap<NodeId, f64>,
    out: &FaultOutcome,
    runtime: &str,
) -> Result<(), TestCaseError> {
    for (c, result) in out.coverage.iter().zip(&out.results) {
        let DestCoverage {
            destination,
            missing,
            ..
        } = c;
        let f = spec.function(*destination).expect("destination in spec");
        prop_assert_eq!(c.demanded, f.source_count());
        let covered: Vec<(NodeId, f64)> = f
            .sources()
            .filter(|s| !missing.contains(s))
            .map(|s| (s, f.weight(s).unwrap()))
            .collect();
        prop_assert_eq!(covered.len(), c.covered, "{} at {}", runtime, destination);
        let Some(got) = *result else {
            prop_assert!(
                covered.is_empty(),
                "{} at {}: None with coverage",
                runtime,
                destination
            );
            continue;
        };
        prop_assert!(
            !covered.is_empty(),
            "{} at {}: value from nothing",
            runtime,
            destination
        );
        let scale = covered
            .iter()
            .map(|&(s, w)| (w * readings[&s]).powi(2))
            .fold(0.0, f64::max);
        let want = AggregateFunction::new(f.kind(), covered).reference_result(readings);
        if bit_exact(f.kind()) {
            prop_assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{} at {}",
                runtime,
                destination
            );
        } else {
            prop_assert!(
                (got - want).abs() <= 1e-9 * (1.0 + scale),
                "{} at {}: {} vs reference {}",
                runtime,
                destination,
                got,
                want
            );
        }
    }
    Ok(())
}

fn check_planes(out: &FaultOutcome, runtime: &str) -> Result<(), TestCaseError> {
    let planes = timeseries::planes_snapshot();
    let cost: &RoundCost = &out.cost;
    prop_assert_eq!(planes.rounds(), 1, "{}", runtime);
    let tx: u64 = planes.msgs_tx().iter().sum();
    let rx: u64 = planes.msgs_rx().iter().sum();
    let retries: u64 = planes.retries().iter().sum();
    let drops: u64 = planes.drops().iter().sum();
    prop_assert_eq!(
        tx,
        (cost.messages + out.retransmissions) as u64,
        "{}",
        runtime
    );
    prop_assert_eq!(rx, cost.messages as u64, "{}", runtime);
    prop_assert_eq!(retries, out.retransmissions as u64, "{}", runtime);
    prop_assert_eq!(drops, out.dropped_messages as u64, "{}", runtime);
    let tx_uj: f64 = planes.energy_tx_uj().iter().sum();
    let rx_uj: f64 = planes.energy_rx_uj().iter().sum();
    prop_assert!(
        (tx_uj - cost.tx_uj).abs() <= 1e-9 * cost.tx_uj.max(1.0),
        "{}",
        runtime
    );
    prop_assert!(
        (rx_uj - cost.rx_uj).abs() <= 1e-9 * cost.rx_uj.max(1.0),
        "{}",
        runtime
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn degraded_results_are_reference_aggregates_over_covered_sources(
        place_seed in 0u64..10_000,
        wl_seed in 0u64..10_000,
        value_salt in 0u64..10_000,
        round_salt in 0u64..1_000_000,
        mode_pick in 0usize..3,
        model_pick in 0usize..3,
        kind_pick in 0usize..8,
        budget_pick in 0u32..3,
    ) {
        timeseries::set_obs_enabled(true);
        let net = Network::with_default_energy(Deployment::great_duck_island(place_seed));
        let mut config = WorkloadConfig::paper_default(7, 5, wl_seed);
        config.kind = KINDS[kind_pick];
        let spec = generate_workload(&net, &config);
        let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode_of(mode_pick));
        let plan = GlobalPlan::build(&net, &spec, &routing);
        let compiled = CompiledSchedule::compile(&net, &spec, &plan).expect("schedulable");
        let model = model_of(model_pick, place_seed ^ wl_seed, &net, &compiled);
        // A roomy budget, or one tight enough to cut rounds short.
        let policy = RetryPolicy::bounded(3, 1, [100_000, 40, 12][budget_pick as usize]);
        let readings: BTreeMap<NodeId, f64> = compiled
            .sources()
            .ids()
            .iter()
            .map(|&s| (s, reading(s, value_salt)))
            .collect();

        let faulty = FaultyExec::new(&net, &compiled);
        timeseries::reset_planes();
        let lossy = faulty.run_on(&readings, &model, &policy, round_salt, &mut faulty.scratch());
        check_results(&spec, &readings, &lossy, "lossy")?;
        check_planes(&lossy, "lossy")?;

        let sim = SimExec::from_faults(faulty, SimParams::default());
        timeseries::reset_planes();
        let out = sim.run_on(&readings, &model, &policy, round_salt, &mut sim.state());
        check_results(&spec, &readings, &out.outcome, "sim")?;
        check_planes(&out.outcome, "sim")?;
        timeseries::set_obs_enabled(false);
    }
}
