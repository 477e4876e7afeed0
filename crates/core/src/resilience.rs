//! Delivery-level checks of slotted execution under transient link
//! failures (§3, "Handling Failures").
//!
//! The paper's fully specified routes require "reliable message delivery
//! on every hop (using acknowledgments and retransmissions)". These tests
//! drive [`crate::faults::FaultyExec::run`] with unlimited per-hop retries
//! up to a slot budget and check only the delivery ledger — makespan,
//! retransmissions, energy and whether the round finished — plus the
//! critical-link (bridge) analysis of [`m2m_graph::bridges::bridges`].
//! Test-only: the runtime itself lives in [`crate::faults`].

#[cfg(test)]
mod tests {
    use crate::exec::CompiledSchedule;
    use crate::faults::{FaultOutcome, FaultyExec, RetryPolicy, SALT_STRIDE};
    use crate::plan::GlobalPlan;
    use crate::schedule::Schedule;
    use crate::slots::assign_slots;
    use crate::workload::{generate_workload, WorkloadConfig};
    use m2m_graph::bridges::bridges;
    use m2m_netsim::failure::DeliveryModel;
    use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

    fn setup() -> (Network, CompiledSchedule) {
        let net = Network::with_default_energy(Deployment::great_duck_island(6));
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(8, 10, 2));
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        let compiled = CompiledSchedule::compile(&net, &spec, &plan).unwrap();
        (net, compiled)
    }

    /// One round on a freshly built engine, every hop retried until
    /// delivered or `max_slots` elapse.
    fn one_round(
        net: &Network,
        compiled: &CompiledSchedule,
        model: &DeliveryModel,
        salt: u64,
        max_slots: u32,
    ) -> FaultOutcome {
        let engine = FaultyExec::new(net, compiled);
        let mut scratch = engine.scratch();
        let readings = vec![1.0; compiled.sources().len()];
        engine.run(
            &readings,
            model,
            &RetryPolicy::unlimited(max_slots),
            salt,
            &mut scratch,
        )
    }

    /// Indices of the schedule's messages that cross a bridge of the
    /// radio graph (in either direction).
    fn messages_on_bridges(net: &Network, schedule: &Schedule) -> Vec<usize> {
        let critical = bridges(net.graph());
        schedule
            .messages
            .iter()
            .enumerate()
            .filter(|(_, m)| {
                let (a, b) = m.edge;
                critical.binary_search(&(a.min(b), a.max(b))).is_ok()
            })
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn reliable_links_match_the_static_schedule() {
        let (net, compiled) = setup();
        let out = one_round(&net, &compiled, &DeliveryModel::reliable(), 0, 10_000);
        assert!(out.delivered);
        assert_eq!(out.retransmissions, 0);
        let slots = assign_slots(&net, compiled.schedule());
        assert_eq!(out.slots_used, slots.slot_count);
        let baseline = compiled.schedule().round_cost(net.energy());
        assert!((out.cost.total_uj() - baseline.total_uj()).abs() < 1e-6);
        assert_eq!(out.cost.messages, baseline.messages);
    }

    #[test]
    fn fault_engine_reuse_matches_one_shot() {
        let (net, compiled) = setup();
        let engine = FaultyExec::new(&net, &compiled);
        let mut scratch = engine.scratch();
        let readings = vec![1.0; compiled.sources().len()];
        let policy = RetryPolicy::unlimited(10_000);
        let flaky = DeliveryModel::uniform(0.3, 5);
        for salt in [0u64, 7, 99] {
            let fresh = one_round(&net, &compiled, &flaky, salt, 10_000);
            let reused = engine.run(&readings, &flaky, &policy, salt, &mut scratch);
            assert_eq!(fresh, reused, "salt={salt}");
        }
    }

    #[test]
    fn failures_cost_retransmissions_and_slots() {
        let (net, compiled) = setup();
        let flaky = DeliveryModel::uniform(0.3, 5);
        let out = one_round(&net, &compiled, &flaky, 1, 10_000);
        assert!(out.delivered);
        assert!(out.retransmissions > 0);
        let slots = assign_slots(&net, compiled.schedule());
        assert!(out.slots_used >= slots.slot_count);
        let baseline = compiled.schedule().round_cost(net.energy());
        assert!(
            out.cost.tx_uj > baseline.tx_uj,
            "failed attempts burn tx energy"
        );
        assert!(
            (out.cost.rx_uj - baseline.rx_uj).abs() < 1e-6,
            "rx only on delivery"
        );
    }

    #[test]
    fn energy_grows_with_failure_rate() {
        let (net, compiled) = setup();
        let engine = FaultyExec::new(&net, &compiled);
        let mut scratch = engine.scratch();
        let readings = vec![1.0; compiled.sources().len()];
        let policy = RetryPolicy::unlimited(10_000);
        let rounds = 10u64;
        let mut previous = 0.0;
        for p in [0.0, 0.2, 0.4] {
            let model = DeliveryModel::uniform(p, 9);
            let (mut energy, mut delivered) = (0.0, 0u64);
            for r in 0..rounds {
                let out = engine.run(&readings, &model, &policy, r * SALT_STRIDE, &mut scratch);
                energy += out.cost.total_uj();
                delivered += u64::from(out.delivered);
            }
            let energy = energy / rounds as f64;
            assert_eq!(delivered, rounds, "p={p} must still deliver eventually");
            assert!(energy >= previous, "energy must grow with p (p={p})");
            previous = energy;
        }
    }

    #[test]
    fn critical_links_on_a_line_are_every_link() {
        let net = Network::with_default_energy(Deployment::grid(4, 1, 10.0, 12.0));
        assert_eq!(bridges(net.graph()).len(), 3);
    }

    #[test]
    fn critical_message_detection() {
        // A line network forces every message over critical links.
        let net = Network::with_default_energy(Deployment::grid(5, 1, 10.0, 12.0));
        let mut spec = crate::spec::AggregationSpec::new();
        spec.add_function(
            m2m_graph::NodeId(4),
            crate::agg::AggregateFunction::weighted_sum([(m2m_graph::NodeId(0), 1.0)]),
        );
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        let compiled = CompiledSchedule::compile(&net, &spec, &plan).unwrap();
        let critical = messages_on_bridges(&net, compiled.schedule());
        assert_eq!(critical.len(), compiled.schedule().messages.len());
    }

    #[test]
    fn dense_networks_have_few_critical_messages() {
        let (net, compiled) = setup();
        let critical = messages_on_bridges(&net, compiled.schedule());
        // The GDI layout is well-connected; only a small fraction of
        // traffic should ride bridges.
        assert!(
            critical.len() * 4 <= compiled.schedule().messages.len(),
            "{} of {} messages on bridges",
            critical.len(),
            compiled.schedule().messages.len()
        );
    }

    #[test]
    fn slot_budget_can_be_exhausted() {
        let (net, compiled) = setup();
        let hopeless = DeliveryModel::uniform(1.0, 2);
        let out = one_round(&net, &compiled, &hopeless, 3, 50);
        assert!(!out.delivered);
        assert_eq!(out.cost.messages, 0);
        assert!(out.retransmissions > 0);
    }
}
