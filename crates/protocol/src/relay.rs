//! Hierarchical (spanning-tree) coordination.
//!
//! Section 4: "Communication channels can be implemented to best match the
//! communication patterns of the particular system. For example, both Arora
//! and Kulkarni have used a spanning tree, which is well suited to
//! components organized hierarchically. In contrast, in a group
//! communication system, multicast may be a better mechanism."
//!
//! [`RelayActor`] is a transparent protocol forwarder: the manager
//! addresses it instead of a distant agent, and it shuttles protocol
//! traffic up and down one tree edge. Chaining relays yields arbitrary
//! spanning trees; the manager and agent state machines are unchanged —
//! their timeouts simply absorb the extra hop latency, which the bench
//! harness quantifies.

use sada_simnet::{Actor, ActorId, Context};

use crate::messages::Wire;

/// Forwards protocol messages between an upstream node (toward the
/// manager) and a downstream node (toward the agent). Application traffic
/// is not relayed — data takes the normal network path.
pub struct RelayActor {
    up: ActorId,
    down: ActorId,
    /// Messages forwarded downstream (manager → agent direction).
    pub forwarded_down: u64,
    /// Messages forwarded upstream (agent → manager direction).
    pub forwarded_up: u64,
}

impl RelayActor {
    /// Creates a relay between `up` (manager side) and `down` (agent side).
    pub fn new(up: ActorId, down: ActorId) -> Self {
        RelayActor { up, down, forwarded_down: 0, forwarded_up: 0 }
    }
}

impl<M: Clone + 'static> Actor<Wire<M>> for RelayActor {
    fn on_message(&mut self, ctx: &mut Context<'_, Wire<M>>, from: ActorId, msg: Wire<M>) {
        if !matches!(msg, Wire::Proto { .. }) {
            return;
        }
        if from == self.up {
            self.forwarded_down += 1;
            ctx.send(self.down, msg);
        } else if from == self.down {
            self.forwarded_up += 1;
            ctx.send(self.up, msg);
        }
        // Traffic from unrelated nodes is dropped: a relay only serves its
        // tree edge.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{AgentArena, AgentTiming};
    use crate::manager::ProtoTiming;
    use crate::plan_adapter::SagPlanner;
    use crate::sim::ManagerActor;
    use sada_expr::{enumerate, InvariantSet, Universe};
    use sada_model::SystemModel;
    use sada_obs::Bus;
    use sada_plan::{Action, Sag};
    use sada_simnet::{ArenaId, LinkConfig, SimDuration, Simulator};
    use std::collections::HashSet;

    type Msg = Wire<()>;

    /// One scripted agent reporting to `manager`, registered under `name`
    /// as the only member of its own arena.
    fn add_agent(sim: &mut Simulator<Msg>, name: &str, manager: ActorId) -> (ActorId, ArenaId) {
        let mut arena = AgentArena::new(manager, Bus::new());
        arena.push_member(AgentTiming::default());
        let arena = sim.add_arena(arena);
        (sim.add_arena_member(name, arena, 0), arena)
    }

    /// One-component world planned over a single replace action.
    fn planner() -> (Universe, SagPlanner) {
        let mut u = Universe::new();
        u.intern("A");
        u.intern("B");
        let actions =
            vec![Action::replace(0, "A->B", &u.config_of(&["A"]), &u.config_of(&["B"]), 5)];
        let inv = InvariantSet::parse(&["one_of(A, B)"], &mut u).unwrap();
        let sag = Sag::build(enumerate::safe_configs(&u, &inv), &actions);
        let mut model = SystemModel::new();
        let p = model.add_process("leaf");
        model.place_all(&u, &[("A", p), ("B", p)]);
        (u.clone(), SagPlanner::new(sag, actions, model, vec![0], HashSet::new()))
    }

    #[test]
    fn adaptation_succeeds_over_a_two_hop_tree() {
        let (u, planner) = planner();
        let mut sim: Simulator<Msg> = Simulator::new(3);
        sim.set_default_link(LinkConfig::reliable(SimDuration::from_millis(4)));
        // Topology: manager(2) <-> relay(1) <-> agent(0).
        // The agent believes the relay is its manager.
        let (agent, arena) = add_agent(&mut sim, "agent", ActorId::from_index(1));
        let relay =
            sim.add_actor("relay", RelayActor::new(sada_simnet::ActorId::from_index(2), agent));
        let manager = sim.add_actor(
            "manager",
            // The manager addresses the relay as "the agent".
            ManagerActor::<()>::new(
                ProtoTiming::default(),
                Box::new(planner),
                vec![relay],
                u.config_of(&["A"]),
                u.config_of(&["B"]),
            ),
        );
        sim.run();
        let o = sim.actor::<ManagerActor<()>>(manager).unwrap().outcome.clone().expect("resolved");
        assert!(o.success, "protocol is topology-transparent");
        let r = sim.actor::<RelayActor>(relay).unwrap();
        assert!(r.forwarded_down >= 1, "reset went down the tree");
        assert!(r.forwarded_up >= 2, "acks came back up");
        assert_eq!(sim.arena::<AgentArena>(arena).unwrap().applied(0).len(), 1);
    }

    #[test]
    fn relay_ignores_unrelated_sources_and_app_traffic() {
        let mut sim: Simulator<Msg> = Simulator::new(0);
        let (sink, _) = add_agent(&mut sim, "sink", ActorId::from_index(9));
        let (up, _) = add_agent(&mut sim, "up", ActorId::from_index(9));
        let relay = sim.add_actor("relay", RelayActor::new(up, sink));
        let (stranger, _) = add_agent(&mut sim, "stranger", relay);
        // Stranger's message reaches the relay but goes nowhere.
        sim.inject(
            stranger,
            relay,
            Wire::Proto {
                epoch: 0,
                session: crate::messages::SessionId::SOLO,
                msg: crate::messages::ProtoMsg::ResetDone { step: crate::messages::StepId(1) },
            },
            SimDuration::ZERO,
        );
        // App traffic from the upstream node is also not relayed.
        sim.inject(up, relay, Wire::App(()), SimDuration::ZERO);
        sim.run();
        let r = sim.actor::<RelayActor>(relay).unwrap();
        assert_eq!(r.forwarded_down, 0);
        assert_eq!(r.forwarded_up, 0);
    }

    #[test]
    fn relay_forwards_reconciliation_probes_and_reports() {
        // A restored manager's QueryState/StateReport round is ordinary
        // protocol traffic: it must traverse spanning-tree edges unchanged,
        // or a manager behind a relay could never reconcile after failover.
        let mut sim: Simulator<Msg> = Simulator::new(0);
        let (down, _) = add_agent(&mut sim, "down", ActorId::from_index(9));
        let (up, _) = add_agent(&mut sim, "up", ActorId::from_index(9));
        let relay = sim.add_actor("relay", RelayActor::new(up, down));
        sim.inject(
            up,
            relay,
            Wire::Proto {
                epoch: 1,
                session: crate::messages::SessionId::SOLO,
                msg: crate::messages::ProtoMsg::QueryState,
            },
            SimDuration::ZERO,
        );
        sim.inject(
            down,
            relay,
            Wire::Proto {
                epoch: 1,
                session: crate::messages::SessionId::SOLO,
                msg: crate::messages::ProtoMsg::StateReport {
                    engaged: None,
                    adapted: false,
                    failed: false,
                    last_completed: None,
                },
            },
            SimDuration::ZERO,
        );
        sim.run();
        let r = sim.actor::<RelayActor>(relay).unwrap();
        assert_eq!(r.forwarded_down, 1, "the probe went down the tree");
        assert_eq!(r.forwarded_up, 1, "the report came back up");
    }

    #[test]
    fn deep_chains_still_converge_within_timeouts() {
        // manager <-> r1 <-> r2 <-> r3 <-> agent, 4 hops each way at 4ms:
        // well under the 200ms phase timeout.
        let (u, planner) = planner();
        let mut sim: Simulator<Msg> = Simulator::new(5);
        sim.set_default_link(LinkConfig::reliable(SimDuration::from_millis(4)));
        let id = sada_simnet::ActorId::from_index;
        let (agent, _) = add_agent(&mut sim, "agent", id(1)); // 0
        let r3 = sim.add_actor("r3", RelayActor::new(id(2), agent)); // 1
        let r2 = sim.add_actor("r2", RelayActor::new(id(3), r3)); // 2
        let r1 = sim.add_actor("r1", RelayActor::new(id(4), r2)); // 3
        let manager = sim.add_actor(
            "manager",
            ManagerActor::<()>::new(
                ProtoTiming::default(),
                Box::new(planner),
                vec![r1],
                u.config_of(&["A"]),
                u.config_of(&["B"]),
            ),
        ); // 4
        sim.run();
        let o = sim.actor::<ManagerActor<()>>(manager).unwrap().outcome.clone().unwrap();
        assert!(o.success);
        assert!(o.warnings.is_empty(), "no retransmissions needed");
        // Message amplification: each logical message crosses 4 links.
        assert!(sim.stats().delivered > 12);
    }

    #[test]
    fn shrunken_retry_base_over_a_deep_chain_retransmits_but_applies_once() {
        // Same 4-hop chain, but the retry base is squeezed to 10 ms — well
        // under the ~32 ms round trip plus the agent's local delays. Every
        // phase times out at least once and retransmits through the tree;
        // idempotent re-acks must still converge on exactly one application
        // of the action, with no duplicate effects.
        use sada_resilience::RetryPolicy;
        let (u, planner) = planner();
        let mut sim: Simulator<Msg> = Simulator::new(5);
        sim.set_default_link(LinkConfig::reliable(SimDuration::from_millis(4)));
        let id = sada_simnet::ActorId::from_index;
        let (agent, arena) = add_agent(&mut sim, "agent", id(1)); // 0
        let r3 = sim.add_actor("r3", RelayActor::new(id(2), agent)); // 1
        let r2 = sim.add_actor("r2", RelayActor::new(id(3), r3)); // 2
        let r1 = sim.add_actor("r1", RelayActor::new(id(4), r2)); // 3
        let timing = ProtoTiming {
            retry: RetryPolicy {
                base: SimDuration::from_millis(10),
                cap: SimDuration::from_millis(40),
                ..RetryPolicy::default()
            },
            ..ProtoTiming::default()
        };
        let manager = sim.add_actor(
            "manager",
            ManagerActor::<()>::new(
                timing,
                Box::new(planner),
                vec![r1],
                u.config_of(&["A"]),
                u.config_of(&["B"]),
            ),
        ); // 4
        sim.run();
        let m = sim.actor::<ManagerActor<()>>(manager).unwrap();
        let o = m.outcome.clone().expect("resolved");
        assert!(o.success, "premature timeouts only cost traffic, not correctness");
        assert!(
            m.infos.iter().any(|i| i.contains("retransmitting")),
            "the squeezed base must actually fire spurious retransmissions: {:?}",
            m.infos
        );
        let applied = sim.arena::<AgentArena>(arena).unwrap().applied(0);
        assert_eq!(applied.len(), 1, "re-received resets are absorbed, not re-applied");
        let r = sim.actor::<RelayActor>(r1).unwrap();
        assert!(r.forwarded_down >= 2, "duplicates traversed the tree");
    }
}
