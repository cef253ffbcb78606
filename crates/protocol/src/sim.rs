//! Simnet adapter: running the manager on the discrete-event network.
//!
//! [`ManagerActor`] is the production adapter (the video application reuses
//! it unchanged). Its agents are the scripted members of an
//! [`AgentArena`](crate::AgentArena) in the protocol tests and benches, or
//! the application's own processes in the video case study.

use std::collections::HashMap;
use std::marker::PhantomData;

use sada_expr::Config;
use sada_obs::{Bus, FleetEvent, Payload};
use sada_plan::Path;
use sada_resilience::{BreakerConfig, LinkGuard, RetryMode};
use sada_simnet::{Actor, ActorId, Context, SimDuration, SimTime, TimerId};

use crate::journal::JournalRecord;
use crate::manager::{
    AdaptationPlanner, ManagerCore, ManagerEffect, ManagerEvent, Outcome, PlannedStep, ProtoTiming,
};
use crate::messages::{SessionId, Wire};

/// Placeholder planner installed while the real planner is carried across a
/// manager restart (never consulted).
struct NoopPlanner;

impl AdaptationPlanner for NoopPlanner {
    fn paths(&mut self, _from: &Config, _to: &Config, _k: usize) -> Vec<Path> {
        Vec::new()
    }

    fn compile(&mut self, _path: &Path) -> Vec<PlannedStep> {
        Vec::new()
    }
}

/// The adaptation manager as a simulated process.
///
/// Generic over the application payload `M` (the manager itself only speaks
/// [`ProtoMsg`]). The adaptation request fires at start-up; the outcome is
/// readable from the actor state after the run.
///
/// The actor models the durability split of a crash-safe deployment: the
/// [`ManagerCore`] and its timers are the volatile process image and are
/// rebuilt from scratch when fault injection crashes this actor, while the
/// write-ahead [`journal`](Self::journal) plays the role of the durable log
/// a production manager would fsync — it survives the crash, and the
/// restarted incarnation replays it through [`ManagerCore::restore`], then
/// reconciles agent state with [`ProtoMsg::QueryState`] probes under a
/// bumped epoch.
///
/// Application-message predicate that fires the adaptation request.
type Trigger<M> = Box<dyn Fn(&M) -> bool>;

pub struct ManagerActor<M> {
    core: ManagerCore,
    agents: Vec<ActorId>,
    actor_to_agent: HashMap<ActorId, usize>,
    timers: HashMap<u64, TimerId>,
    request: Option<(Config, Config)>,
    request_delay: SimDuration,
    trigger: Option<Trigger<M>>,
    /// Timing policy, kept so a restarted incarnation is rebuilt under the
    /// same policy the dead one ran.
    timing: ProtoTiming,
    /// This manager's incarnation number (stamped on outgoing traffic).
    epoch: u64,
    /// Highest incarnation seen per agent; older traffic is pre-crash
    /// residue and is discarded before it reaches the state machine.
    agent_epochs: HashMap<ActorId, u64>,
    /// The durable write-ahead adaptation journal (everything the core
    /// emitted as [`ManagerEffect::Journal`], in order). Survives crashes of
    /// this actor by construction — the simulator only destroys in-flight
    /// deliveries and timers, which is exactly the volatile set.
    pub journal: Vec<JournalRecord>,
    /// Times this manager crashed and was rebuilt from its journal.
    pub restores: u64,
    /// Final outcome, set when the adaptation completes.
    pub outcome: Option<Outcome>,
    /// Virtual time at which the outcome was produced (the realization
    /// latency; the simulation may quiesce later while stale timers drain).
    pub completed_at: Option<sada_simnet::SimTime>,
    /// Progress log (the manager's `Info` effects).
    pub infos: Vec<String>,
    /// Per-agent breakers and RTT estimators between the core and the wire
    /// (volatile: a restarted manager re-learns the network).
    guard: LinkGuard,
    /// True while applying effects produced by a protocol timeout — sends
    /// in that window are retransmissions, i.e. breaker failure evidence.
    in_timeout: bool,
    bus: Bus,
    _marker: PhantomData<fn() -> M>,
}

impl<M> ManagerActor<M> {
    /// Creates a manager actor that will drive `source → target` over the
    /// given agent actors as soon as the simulation starts.
    pub fn new(
        timing: ProtoTiming,
        planner: Box<dyn AdaptationPlanner>,
        agents: Vec<ActorId>,
        source: Config,
        target: Config,
    ) -> Self {
        let actor_to_agent = agents.iter().enumerate().map(|(ix, &a)| (a, ix)).collect();
        let guard = LinkGuard::new(agents.len(), None);
        ManagerActor {
            core: ManagerCore::new(timing, planner),
            agents,
            actor_to_agent,
            timers: HashMap::new(),
            request: Some((source, target)),
            request_delay: SimDuration::ZERO,
            trigger: None,
            timing,
            epoch: 0,
            agent_epochs: HashMap::new(),
            journal: Vec::new(),
            restores: 0,
            outcome: None,
            completed_at: None,
            infos: Vec::new(),
            guard,
            in_timeout: false,
            bus: Bus::new(),
            _marker: PhantomData,
        }
    }

    /// Installs per-agent circuit breakers between the core and the wire:
    /// an agent that keeps timing out stops absorbing retransmissions and
    /// is re-engaged through a single seeded half-open probe.
    pub fn with_breakers(mut self, cfg: BreakerConfig) -> Self {
        self.guard = LinkGuard::new(self.agents.len(), Some(cfg));
        self
    }

    /// Emits the manager's protocol/plan events onto `bus` (timestamped
    /// with the virtual clock, attributed to this actor).
    pub fn with_bus(mut self, bus: Bus) -> Self {
        self.bus = bus;
        self
    }

    /// Delays the adaptation request by `delay` of simulated time after
    /// start-up (the case study streams video first, then hardens security).
    pub fn with_request_delay(mut self, delay: SimDuration) -> Self {
        self.request_delay = delay;
        self
    }

    /// Withholds the request until an application message satisfying
    /// `trigger` arrives — the hook a decision-making monitor uses to start
    /// the adaptation (e.g. "packet loss exceeded threshold, insert FEC").
    /// Overrides any request delay.
    pub fn with_request_trigger(mut self, trigger: Box<dyn Fn(&M) -> bool>) -> Self {
        self.trigger = Some(trigger);
        self
    }

    /// The manager state machine (for phase assertions in tests).
    pub fn core(&self) -> &ManagerCore {
        &self.core
    }

    /// This manager's incarnation number (0 until the first crash/restart).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The breaker and RTT state between the core and the wire (its trip
    /// and suppressed-send counters survive restarts).
    pub fn guard(&self) -> &LinkGuard {
        &self.guard
    }

    fn emit_fleet(&mut self, ctx: &mut Context<'_, Wire<M>>, ev: FleetEvent)
    where
        M: Clone + 'static,
    {
        if self.bus.has_sinks() {
            self.bus.emit(sada_obs::Event {
                at: ctx.now(),
                actor: ctx.self_id().index() as u32,
                session: 0,
                shard: 0,
                payload: Payload::Fleet(ev),
            });
        }
    }

    /// Records an arrival from `agent` with the link guard. Runs for every
    /// current-epoch message, including acks the core will discard as
    /// stale: a slow agent whose answer arrives after the manager already
    /// gave up on the phase still teaches the estimator its true latency.
    /// Every adaptive-mode sample is reported.
    fn observe_arrival(&mut self, ctx: &mut Context<'_, Wire<M>>, agent: usize)
    where
        M: Clone + 'static,
    {
        let (sample, transition) = self.guard.on_arrival(agent, ctx.now());
        if let Some(ev) = sample.filter(|_| self.timing.retry.mode == RetryMode::Adaptive) {
            self.emit_fleet(ctx, ev);
        }
        if let Some(ev) = transition {
            self.emit_fleet(ctx, ev);
        }
    }

    /// Feeds the core the RTO of the slowest agent before its next event, so
    /// adaptive retry deadlines track observed latency. No-op in fixed mode.
    fn refresh_hint(&mut self) {
        if self.timing.retry.mode != RetryMode::Adaptive {
            return;
        }
        let hint = (0..self.agents.len()).filter_map(|a| self.guard.rto(a)).max();
        self.core.set_timeout_hint(hint);
    }

    fn apply(&mut self, ctx: &mut Context<'_, Wire<M>>, effects: Vec<ManagerEffect>)
    where
        M: Clone + 'static,
    {
        let obs = self.core.drain_obs();
        if self.bus.has_sinks() {
            let (at, actor) = (ctx.now(), ctx.self_id().index() as u32);
            for payload in obs {
                self.bus.emit(sada_obs::Event { at, actor, session: 0, shard: 0, payload });
            }
        }
        for eff in effects {
            match eff {
                ManagerEffect::Send { agent, msg } => {
                    let (allowed, events) = self.guard.gate_send(agent, ctx.now(), self.in_timeout);
                    for ev in events.into_iter().flatten() {
                        self.emit_fleet(ctx, ev);
                    }
                    if !allowed {
                        continue;
                    }
                    ctx.send(
                        self.agents[agent],
                        Wire::Proto { epoch: self.epoch, session: SessionId::SOLO, msg },
                    );
                }
                ManagerEffect::SetTimer { token, after } => {
                    let id = ctx.set_timer(after, token);
                    self.timers.insert(token, id);
                }
                ManagerEffect::CancelTimer { token } => {
                    if let Some(id) = self.timers.remove(&token) {
                        ctx.cancel_timer(id);
                    }
                }
                ManagerEffect::Complete(outcome) => {
                    self.outcome = Some(outcome);
                    self.completed_at = Some(ctx.now());
                }
                ManagerEffect::Journal(rec) => self.journal.push(rec),
                ManagerEffect::Info(s) => self.infos.push(s),
            }
        }
    }
}

/// Timer tag reserved for the delayed adaptation request.
const TAG_REQUEST: u64 = u64::MAX;

impl<M: Clone + 'static> Actor<Wire<M>> for ManagerActor<M> {
    fn on_start(&mut self, ctx: &mut Context<'_, Wire<M>>) {
        if self.trigger.is_some() {
            // Waiting for the decision-making monitor.
        } else if self.request_delay > SimDuration::ZERO {
            ctx.set_timer(self.request_delay, TAG_REQUEST);
        } else if let Some((source, target)) = self.request.take() {
            let eff = self.core.on_event(ManagerEvent::Request { source, target });
            self.apply(ctx, eff);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Wire<M>>, from: ActorId, msg: Wire<M>) {
        match msg {
            Wire::Proto { epoch, msg: p, .. } => {
                if let Some(&agent) = self.actor_to_agent.get(&from) {
                    let seen = self.agent_epochs.entry(from).or_insert(0);
                    if epoch < *seen {
                        return; // pre-crash residue from an old incarnation
                    }
                    *seen = epoch;
                    self.observe_arrival(ctx, agent);
                    self.refresh_hint();
                    let eff = self.core.on_event(ManagerEvent::AgentMsg { agent, msg: p });
                    self.apply(ctx, eff);
                }
            }
            Wire::App(m) => {
                if self.trigger.as_ref().is_some_and(|t| t(&m)) {
                    if let Some((source, target)) = self.request.take() {
                        let eff = self.core.on_event(ManagerEvent::Request { source, target });
                        self.apply(ctx, eff);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Wire<M>>, tag: u64) {
        if tag == TAG_REQUEST {
            if let Some((source, target)) = self.request.take() {
                let eff = self.core.on_event(ManagerEvent::Request { source, target });
                self.apply(ctx, eff);
            }
            return;
        }
        self.timers.remove(&tag);
        self.refresh_hint();
        let eff = self.core.on_event(ManagerEvent::Timeout { token: tag });
        self.in_timeout = true;
        self.apply(ctx, eff);
        self.in_timeout = false;
    }

    fn on_crash(&mut self, _now: SimTime) {
        // The process image dies: armed timers, the per-agent epoch
        // watermark, breakers, and RTT estimators are volatile. The journal
        // field deliberately survives — it stands in for the durable log of
        // a real deployment.
        self.timers.clear();
        self.agent_epochs.clear();
        self.guard.on_crash();
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Wire<M>>) {
        self.epoch += 1;
        self.restores += 1;
        // Carry the planner out of the dead core (planners are deterministic
        // and stateless with respect to protocol progress, so reuse is
        // sound) and replay the journal into a fresh one.
        let dead =
            std::mem::replace(&mut self.core, ManagerCore::new(self.timing, Box::new(NoopPlanner)));
        let (core, eff) = ManagerCore::restore(self.timing, dead.into_planner(), &self.journal)
            .unwrap_or_else(|e| panic!("manager journal replay failed: {e}"));
        self.core = core;
        self.apply(ctx, eff);
        // If the request had not yet fired (its arming timer died with the
        // crash), re-arm it for the originally scheduled instant; trigger
        // mode just keeps waiting for the application predicate.
        if self.request.is_some() && self.trigger.is_none() {
            let due = self.request_delay.as_micros();
            let now = ctx.now().as_micros();
            if due > now {
                ctx.set_timer(SimDuration::from_micros(due - now), TAG_REQUEST);
            } else if let Some((source, target)) = self.request.take() {
                let eff = self.core.on_event(ManagerEvent::Request { source, target });
                self.apply(ctx, eff);
            }
        }
    }
}
