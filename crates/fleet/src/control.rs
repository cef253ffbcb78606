//! The adaptation control plane: one actor, many concurrent sessions.
//!
//! The single-adaptation [`ManagerActor`](sada_proto::ManagerActor)
//! serializes every request through one [`ManagerCore`]. The control plane
//! shares its per-agent breaker and RTT wiring (a [`LinkGuard`]) but
//! instead embeds **one core per admitted session** and multiplexes them
//! over a shared wire: outgoing protocol traffic is stamped with the
//! session's [`SessionId`], agents echo the stamp, and replies are routed
//! back to the owning core. Admission is governed by the
//! [`ScopeLockManager`]: a session whose scope (collaborative sets +
//! hosting processes) is free starts immediately; conflicting sessions
//! queue in priority/FIFO order and may be cancelled while queued.
//!
//! ## Durability split
//!
//! Crash faults destroy the volatile process image — embedded cores, lock
//! table, timers, epoch watermarks, routing hints. What survives is exactly
//! what a production control plane would keep on durable storage: the
//! interleaved session-tagged write-ahead [`journal`](ControlActor::journal)
//! (append order = decision order), the [`results`](ControlActor::results)
//! of finished sessions, and the fleet configuration folded from them. On
//! restart the journal is partitioned by session: in-flight sessions replay
//! through [`ManagerCore::restore`] (their control-plane `Queued` prefix
//! stripped) and re-seize their scopes, queued-at-crash sessions requeue in
//! journal order, and scenario entries that never submitted are re-armed.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

use sada_expr::Config;
use sada_obs::{Bus, Event, FleetEvent, Payload};
use sada_proto::{
    JournalRecord, ManagerCore, ManagerEffect, ManagerEvent, Outcome, ProtoTiming, SessionId,
    SessionRecord, Wire,
};
use sada_resilience::{
    shed_victim, BreakerConfig, BreakerTransition, BulkheadConfig, CircuitBreaker, LinkGuard,
    RetryMode,
};
use sada_simnet::{Actor, ActorId, Context, SimDuration, SimTime, TimerId};

use crate::cache::{CacheNoteKind, PlanCache, PlanCacheStats};
use crate::lock::ScopeLockManager;
use crate::planner::ScopedLazyPlanner;
use crate::shard::{fnv1a, FNV_BASIS};
use crate::world::FleetWorld;

/// One adaptation request the scenario will submit to the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Control-plane session id (nonzero; 0 is reserved for solo runs).
    pub id: u64,
    /// Groups to move, and the direction (`true` = toward `New`). The
    /// source and target configurations are computed **at admission** from
    /// the fleet configuration current at that instant, so queued sessions
    /// compose with whatever ran before them.
    pub flips: Vec<(usize, bool)>,
    /// Admission priority (higher first among queued sessions).
    pub priority: u8,
    /// Virtual time at which the request is submitted.
    pub submit_at: SimDuration,
    /// If set, withdraw the request at this virtual time unless it has
    /// been admitted by then.
    pub cancel_at: Option<SimDuration>,
}

/// Overload-protection policy for a control plane: per-agent circuit
/// breakers between the embedded cores and the wire, and bulkhead admission
/// bounds. The default (no breakers, unlimited bulkhead) reproduces the
/// historical always-admit behavior bit-for-bit; RTT-adaptive retransmission
/// deadlines are selected separately via `ProtoTiming::retry`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetResilience {
    /// Per-agent circuit breaker policy (`None` disables the gate).
    pub breaker: Option<BreakerConfig>,
    /// Per-scope circuit breaker policy (`None` disables the gate). Keyed
    /// by the session's scope-resource fingerprint, so a flapping scope
    /// trips alone: disjoint scopes that merely share an agent's shard keep
    /// admitting normally.
    pub scope_breaker: Option<BreakerConfig>,
    /// In-flight and waiting-room bounds with deterministic shedding.
    pub bulkhead: BulkheadConfig,
}

/// Typed admission outcome of one submitted session — the backpressure
/// signal a submitter acts on. Recorded durably per session (backed by the
/// journaled `Queued`/`Outcome` records the decision produces) and surfaced
/// through `SessionResult::admission`, replacing silent shedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The session entered the protocol (immediately or after queueing).
    Admitted,
    /// The bulkhead shed the session under overload. `retry_after_us` is
    /// the hint handed back to the submitter: observed mean service time
    /// scaled by the backlog-to-capacity ratio at the shed instant.
    Shed {
        /// Suggested resubmission delay, microseconds.
        retry_after_us: u64,
    },
    /// The session was refused fail-fast at its admission instant because
    /// its scope sat behind an open circuit breaker (per-agent or
    /// per-scope).
    Rejected,
}

/// Timer-tag namespace: scenario submissions, queued-session cancellations,
/// and dynamically allocated per-core protocol timers must share one `u64`.
const TAG_SUBMIT_BASE: u64 = 1 << 62;
const TAG_CANCEL_BASE: u64 = 1 << 63;

/// Entries the shared plan cache may hold before LRU eviction kicks in.
const PLAN_CACHE_CAPACITY: usize = 128;

/// A live session: its embedded manager core and the protocol timers it has
/// armed (core token → global tag + cancellation handle).
struct ActiveSession {
    core: ManagerCore,
    timers: HashMap<u64, (u64, TimerId)>,
}

/// The control plane as a simulated process (speaks `Wire<M>` like the
/// solo [`ManagerActor`](sada_proto::ManagerActor)).
pub struct ControlActor<M = ()> {
    world: Rc<FleetWorld>,
    agents: Vec<ActorId>,
    actor_to_agent: HashMap<ActorId, usize>,
    scenario: Vec<SessionSpec>,
    /// Session id → scenario index (first occurrence wins, matching a
    /// linear scan). The scenario never changes after construction, so
    /// this stays valid across restarts.
    spec_by_id: HashMap<u64, usize>,
    timing: ProtoTiming,
    /// When true, every session maps to one shared lock resource — the
    /// serial baseline the benchmarks compare scope-parallelism against.
    serialize: bool,
    /// Overload-protection policy (breakers + bulkhead bounds).
    resilience: FleetResilience,
    bus: Bus,
    // ---- volatile (destroyed by crash faults) ----
    epoch: u64,
    agent_epochs: HashMap<ActorId, u64>,
    active: BTreeMap<u64, ActiveSession>,
    locks: ScopeLockManager,
    /// Per-agent circuit breakers and RTT estimators feeding adaptive retry
    /// deadlines. Volatile: a restored control plane re-learns which agents
    /// are sick (the guard's trip and suppressed-send counters survive).
    guard: LinkGuard,
    /// Per-scope circuit breakers, created lazily on first failure
    /// evidence and keyed by [`ControlActor::scope_key`]. Volatile, like
    /// the per-agent set.
    scope_breakers: HashMap<u64, CircuitBreaker>,
    /// Last RTO reported per agent as a `TimeoutAdapted` event, so the bus
    /// only carries adaptations that moved the deadline by ≥ a quarter.
    last_rto: Vec<u64>,
    /// True while applying effects produced by a protocol timeout — sends
    /// in that window are retransmissions, i.e. breaker failure evidence.
    in_timeout: bool,
    /// Sessions parked at the admission gate (in-flight cap reached before
    /// their scope was ever tried). Never holds lock-queue entries.
    gate: Vec<u64>,
    /// Waiting population (lock queue ∪ gate): session → (priority,
    /// enqueue sequence), the shed-victim ordering key.
    waiting: HashMap<u64, (u8, u64)>,
    /// Monotonic enqueue sequence (ties in shed-victim selection break
    /// toward the oldest waiter).
    queue_seq: u64,
    /// Global timer tag → (session, core token).
    tag_owner: HashMap<u64, (u64, u64)>,
    next_tag: u64,
    /// Agent index → session currently engaging it (for routing stepless
    /// rejoin traffic whose echoed session may be stale).
    agent_session: HashMap<usize, u64>,
    /// Session ids already submitted (guards double submission after a
    /// restart re-arms timers; rebuilt from the journal).
    submitted: HashSet<u64>,
    /// Fleet-wide plan cache shared by every session planner of this
    /// incarnation. Volatile on purpose: a restored control plane starts
    /// cold, so no cached path ever stands in for the durable journal.
    plan_cache: Rc<RefCell<PlanCache>>,
    // ---- durable (survives crash faults) ----
    /// The interleaved session-tagged write-ahead journal.
    pub journal: Vec<SessionRecord>,
    /// Fleet configuration folded from completed sessions.
    pub fleet_config: Config,
    /// Final outcome per finished session (cancelled sessions get
    /// `success: false, gave_up: false`).
    pub results: HashMap<u64, Outcome>,
    /// Virtual submission instant per session.
    pub submitted_at: HashMap<u64, SimTime>,
    /// Virtual admission instant per session.
    pub admitted_at: HashMap<u64, SimTime>,
    /// Virtual completion (or cancellation) instant per session.
    pub completed_at: HashMap<u64, SimTime>,
    /// Times this control plane crashed and was rebuilt from its journal.
    pub restores: u64,
    /// Progress log (`Info` effects, prefixed with the session).
    pub infos: Vec<String>,
    /// Sessions shed by the bulkhead (diagnostics; survives restarts).
    pub shed_count: u64,
    /// Sessions rejected at admission behind an open breaker (diagnostics;
    /// survives restarts).
    pub rejected_count: u64,
    /// Times any *scope* breaker tripped open (diagnostics; survives
    /// restarts).
    pub scope_breaker_trips: u64,
    /// Typed admission outcome per session that reached a decision. Treated
    /// as durable alongside `results`: every entry is backed by journaled
    /// records (`Request` for admissions, `Outcome` for sheds/rejections).
    pub admissions: HashMap<u64, Admission>,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M: Clone + 'static> ControlActor<M> {
    /// A control plane over `agents`, driving `scenario` under `timing`.
    pub fn new(
        world: Rc<FleetWorld>,
        agents: Vec<ActorId>,
        scenario: Vec<SessionSpec>,
        timing: ProtoTiming,
        serialize: bool,
    ) -> Self {
        assert!(scenario.iter().all(|s| s.id != 0), "session id 0 is reserved for solo runs");
        let fleet_config = world.initial_config();
        let mut spec_by_id = HashMap::with_capacity(scenario.len());
        for (ix, s) in scenario.iter().enumerate() {
            spec_by_id.entry(s.id).or_insert(ix);
        }
        let actor_to_agent = agents.iter().enumerate().map(|(ix, &a)| (a, ix)).collect();
        let guard = LinkGuard::new(agents.len(), None);
        let last_rto = vec![0; agents.len()];
        let locks = ScopeLockManager::with_capacity(
            world.universe.len() + world.model.process_count(),
            scenario.len(),
        );
        ControlActor {
            world,
            agents,
            actor_to_agent,
            scenario,
            spec_by_id,
            timing,
            serialize,
            resilience: FleetResilience::default(),
            bus: Bus::new(),
            epoch: 0,
            agent_epochs: HashMap::new(),
            active: BTreeMap::new(),
            locks,
            guard,
            scope_breakers: HashMap::new(),
            last_rto,
            in_timeout: false,
            gate: Vec::new(),
            waiting: HashMap::new(),
            queue_seq: 0,
            tag_owner: HashMap::new(),
            next_tag: 1,
            agent_session: HashMap::new(),
            submitted: HashSet::new(),
            plan_cache: Rc::new(RefCell::new(PlanCache::new(PLAN_CACHE_CAPACITY))),
            journal: Vec::new(),
            fleet_config,
            results: HashMap::new(),
            submitted_at: HashMap::new(),
            admitted_at: HashMap::new(),
            completed_at: HashMap::new(),
            restores: 0,
            infos: Vec::new(),
            shed_count: 0,
            rejected_count: 0,
            scope_breaker_trips: 0,
            admissions: HashMap::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Emits session-tagged control-plane and protocol events onto `bus`.
    pub fn with_bus(mut self, bus: Bus) -> Self {
        self.bus = bus;
        self
    }

    /// Installs the overload-protection policy (breakers + bulkhead).
    pub fn with_resilience(mut self, r: FleetResilience) -> Self {
        self.resilience = r;
        self.guard = LinkGuard::new(self.agents.len(), r.breaker);
        self
    }

    /// The per-agent breaker and RTT state (its trip and suppressed-send
    /// counters survive restarts).
    pub fn guard(&self) -> &LinkGuard {
        &self.guard
    }

    /// Number of sessions currently in flight.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Number of sessions queued for admission.
    pub fn queued_count(&self) -> usize {
        self.locks.queue_len()
    }

    /// This control plane's incarnation number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Plan-cache counters for the current incarnation (crash faults reset
    /// them along with the cache itself).
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.borrow().stats()
    }

    /// Drops every cached plan. Call whenever the world's action repertoire
    /// or invariant set is changed out from under the control plane —
    /// cached answers from the old world must not leak into the new one.
    pub fn invalidate_plan_cache(&mut self) {
        self.plan_cache.borrow_mut().invalidate();
    }

    fn spec_ix(&self, session: u64) -> Option<usize> {
        self.spec_by_id.get(&session).copied()
    }

    fn resources_of(&self, spec: &SessionSpec) -> Vec<u32> {
        if self.serialize {
            // One global token: every session conflicts with every other.
            vec![u32::MAX]
        } else {
            self.world.resources_for(&self.world.scope_comps(&spec.flips))
        }
    }

    fn emit_fleet(&self, ctx: &Context<'_, Wire<M>>, session: u64, ev: FleetEvent) {
        self.bus.emit(Event {
            at: ctx.now(),
            actor: ctx.self_id().index() as u32,
            session,
            shard: 0,
            payload: Payload::Fleet(ev),
        });
    }

    /// Records an arrival from `agent` with the link guard. Runs for every
    /// current-epoch message, including acks the owning core will discard
    /// as stale: a slow agent whose answer arrives after its session already
    /// moved on still teaches the estimator its true latency, so the *next*
    /// session on that agent gets a deadline it can meet.
    fn observe_arrival(&mut self, ctx: &Context<'_, Wire<M>>, agent: usize) {
        let (sample, transition) = self.guard.on_arrival(agent, ctx.now());
        let sid = self.agent_session.get(&agent).copied().unwrap_or(0);
        if let Some(ev @ FleetEvent::TimeoutAdapted { rto_us, .. }) = sample {
            // Report only adaptations that moved the deadline by at least a
            // quarter relative to the last report.
            let last = self.last_rto[agent];
            let moved = last == 0 || rto_us.abs_diff(last).saturating_mul(4) >= last;
            if self.timing.retry.mode == RetryMode::Adaptive && moved {
                self.last_rto[agent] = rto_us;
                self.emit_fleet(ctx, sid, ev);
            }
        }
        if let Some(ev) = transition {
            self.emit_fleet(ctx, sid, ev);
        }
    }

    /// Feeds session `session`'s core the RTO of its slowest participant
    /// before its next event. No-op under the fixed ladder.
    fn refresh_hint(&mut self, session: u64) {
        if self.timing.retry.mode != RetryMode::Adaptive {
            return;
        }
        let Some(ix) = self.spec_ix(session) else { return };
        let hint = self
            .world
            .scope_comps(&self.scenario[ix].flips)
            .iter()
            .filter_map(|&c| self.world.agent_for(c))
            .filter_map(|a| self.guard.rto(a))
            .max();
        if let Some(sess) = self.active.get_mut(&session) {
            sess.core.set_timeout_hint(hint);
        }
    }

    /// FNV-1a fingerprint of `spec`'s sorted scope resources — the identity
    /// of a scope for per-scope breaker purposes. Two sessions moving the
    /// same groups share a key; disjoint scopes practically never collide.
    fn scope_key(&self, spec: &SessionSpec) -> u64 {
        let mut rs = self.resources_of(spec);
        rs.sort_unstable();
        rs.iter().fold(FNV_BASIS, |h, r| fnv1a(h, &r.to_le_bytes()))
    }

    /// Backpressure hint attached to a shed: observed mean service time
    /// (admission → completion over finished sessions; the protocol's base
    /// retry deadline before anything finished) scaled by how many
    /// capacity-widths of backlog stand in front of a resubmission.
    fn retry_after_hint(&self) -> u64 {
        let (mut sum, mut n) = (0u64, 0u64);
        for (sid, done) in &self.completed_at {
            if let Some(adm) = self.admitted_at.get(sid) {
                sum += done.as_micros().saturating_sub(adm.as_micros());
                n += 1;
            }
        }
        let unit =
            sum.checked_div(n).map_or_else(|| self.timing.retry.base.as_micros(), |u| u.max(1));
        let capacity = self.resilience.bulkhead.max_in_flight.max(1) as u64;
        let backlog = (self.active.len() + self.waiting.len()) as u64;
        unit.saturating_mul(backlog / capacity + 1)
    }

    fn emit_scope_breaker(
        &mut self,
        ctx: &Context<'_, Wire<M>>,
        session: u64,
        scope: u64,
        tr: BreakerTransition,
    ) {
        let ev = match tr {
            BreakerTransition::Opened { cooldown } => {
                self.scope_breaker_trips += 1;
                FleetEvent::ScopeBreakerOpened { scope, cooldown_us: cooldown.as_micros() }
            }
            BreakerTransition::Probing => FleetEvent::ScopeBreakerProbed { scope },
            BreakerTransition::Closed => FleetEvent::ScopeBreakerClosed { scope },
        };
        self.emit_fleet(ctx, session, ev);
    }

    /// The scope agent (dense index) whose open breaker gates `spec`, if any.
    fn scope_gated(&self, now: SimTime, spec: &SessionSpec) -> Option<usize> {
        self.world
            .scope_comps(&spec.flips)
            .iter()
            .filter_map(|&c| self.world.agent_for(c))
            .find(|&a| self.guard.blocks(a, now))
    }

    /// Terminates session `sid` at its admission instant because an open
    /// breaker gates its scope (`ev` says which): journaled outcome, typed
    /// event, locks released — the session fails fast instead of hanging on
    /// suppressed sends.
    fn reject(
        &mut self,
        ctx: &mut Context<'_, Wire<M>>,
        sid: u64,
        ev: FleetEvent,
        warning: String,
    ) {
        self.conclude_unrun(ctx, sid, ev, warning);
        self.rejected_count += 1;
        self.admissions.insert(sid, Admission::Rejected);
        let granted = self.locks.release(sid);
        self.admit_all_granted(ctx, granted);
    }

    /// Ends a session that never ran: a journaled unsuccessful (not given
    /// up) outcome, `ev` on the bus, its completion instant, and a failed
    /// result carrying `warning` over the unchanged fleet configuration.
    fn conclude_unrun(
        &mut self,
        ctx: &Context<'_, Wire<M>>,
        sid: u64,
        ev: FleetEvent,
        warning: String,
    ) {
        self.journal.push(SessionRecord {
            session: SessionId(sid),
            record: JournalRecord::Outcome { success: false, gave_up: false },
        });
        self.emit_fleet(ctx, sid, ev);
        self.completed_at.insert(sid, ctx.now());
        self.results.insert(
            sid,
            Outcome {
                success: false,
                gave_up: false,
                final_config: self.fleet_config.clone(),
                steps_committed: 0,
                warnings: vec![warning],
            },
        );
    }

    /// Admits every session a lock release or cancellation just granted.
    fn admit_all_granted(&mut self, ctx: &mut Context<'_, Wire<M>>, granted: Vec<u64>) {
        for sid in granted {
            self.admit_granted(ctx, sid);
        }
    }

    /// Registers `session` in the waiting population (lock queue or gate).
    fn note_waiting(&mut self, session: u64, priority: u8) {
        self.queue_seq += 1;
        self.waiting.insert(session, (priority, self.queue_seq));
    }

    /// Sheds the least valuable waiter: lowest priority, oldest first. The
    /// victim's session resolves with a journaled `SessionShed` outcome —
    /// unsuccessful but not given up, exactly like a cancellation — so the
    /// durable record never shows a session that silently vanished.
    fn shed_overflow(&mut self, ctx: &mut Context<'_, Wire<M>>) {
        let entries: Vec<(u64, u8, u64)> =
            self.waiting.iter().map(|(&sid, &(p, seq))| (sid, p, seq)).collect();
        let Some(victim) = shed_victim(&entries) else { return };
        self.waiting.remove(&victim);
        self.gate.retain(|&g| g != victim);
        let granted = self.locks.cancel(victim).unwrap_or_default();
        let waited_us = ctx
            .now()
            .as_micros()
            .saturating_sub(self.submitted_at.get(&victim).map_or(0, |t| t.as_micros()));
        // The hint reads `completed_at`, so it is taken before the victim's
        // own completion instant lands there.
        let retry_after_us = self.retry_after_hint();
        self.conclude_unrun(
            ctx,
            victim,
            FleetEvent::SessionShed { session: victim, waited_us, retry_after_us },
            format!("shed by bulkhead admission control; retry after {retry_after_us}us"),
        );
        self.shed_count += 1;
        self.admissions.insert(victim, Admission::Shed { retry_after_us });
        // Cancelling a lock-queue entry may unblock compatible waiters
        // behind it; they hold their scopes now, so admit them (the
        // in-flight bound is enforced at every *admission decision*, not
        // retroactively against lock grants).
        self.admit_all_granted(ctx, granted);
    }

    /// Admits gated sessions while in-flight capacity is available (highest
    /// priority first, oldest among ties). A gated session whose scope turns
    /// out to be busy moves into the lock queue and stays in `waiting`.
    fn drain_gate(&mut self, ctx: &mut Context<'_, Wire<M>>) {
        while self.active.len() < self.resilience.bulkhead.max_in_flight {
            let Some(&sid) = self.gate.iter().max_by_key(|&&sid| {
                let (p, seq) = self.waiting.get(&sid).copied().unwrap_or((0, u64::MAX));
                (p, std::cmp::Reverse(seq), std::cmp::Reverse(sid))
            }) else {
                break;
            };
            self.gate.retain(|&g| g != sid);
            let Some(ix) = self.spec_ix(sid) else {
                self.waiting.remove(&sid);
                continue;
            };
            let spec = self.scenario[ix].clone();
            if self.locks.try_acquire(sid, &self.resources_of(&spec), spec.priority) {
                self.admit(ctx, ix);
            }
            // else: now lock-queued; `waiting` entry (and its age) carries over.
        }
    }

    /// Feeds `effects` of session `session`'s core back into the world:
    /// session-stamped sends, globally tagged timers, journal appends, and
    /// completion handling (which may admit queued sessions).
    fn apply(&mut self, ctx: &mut Context<'_, Wire<M>>, session: u64, effects: Vec<ManagerEffect>) {
        // Planner queries (inside core event handling) may have touched the
        // shared plan cache; surface those interactions as fleet events.
        for note in self.plan_cache.borrow_mut().take_notes() {
            let ev = match note.kind {
                CacheNoteKind::Hit => FleetEvent::PlanCacheHit { session: note.session },
                CacheNoteKind::Miss => FleetEvent::PlanCacheMiss { session: note.session },
                CacheNoteKind::Evicted => FleetEvent::PlanCacheEvicted { session: note.session },
            };
            self.emit_fleet(ctx, note.session, ev);
        }
        let obs = match self.active.get_mut(&session) {
            Some(sess) => sess.core.drain_obs(),
            None => Vec::new(),
        };
        if self.bus.has_sinks() {
            let (at, actor) = (ctx.now(), ctx.self_id().index() as u32);
            for payload in obs {
                self.bus.emit(Event { at, actor, session, shard: 0, payload });
            }
        }
        let mut completed = None;
        for eff in effects {
            match eff {
                ManagerEffect::Send { agent, msg } => {
                    let (allowed, events) = self.guard.gate_send(agent, ctx.now(), self.in_timeout);
                    for ev in events.into_iter().flatten() {
                        self.emit_fleet(ctx, session, ev);
                    }
                    if !allowed {
                        continue;
                    }
                    self.agent_session.insert(agent, session);
                    ctx.send(
                        self.agents[agent],
                        Wire::Proto { epoch: self.epoch, session: SessionId(session), msg },
                    );
                }
                ManagerEffect::SetTimer { token, after } => {
                    let tag = self.next_tag;
                    self.next_tag += 1;
                    let id = ctx.set_timer(after, tag);
                    self.tag_owner.insert(tag, (session, token));
                    if let Some(sess) = self.active.get_mut(&session) {
                        sess.timers.insert(token, (tag, id));
                    }
                }
                ManagerEffect::CancelTimer { token } => {
                    if let Some(sess) = self.active.get_mut(&session) {
                        if let Some((tag, id)) = sess.timers.remove(&token) {
                            self.tag_owner.remove(&tag);
                            ctx.cancel_timer(id);
                        }
                    }
                }
                ManagerEffect::Complete(outcome) => completed = Some(outcome),
                ManagerEffect::Journal(rec) => {
                    self.journal.push(SessionRecord { session: SessionId(session), record: rec });
                }
                ManagerEffect::Info(s) => self.infos.push(format!("session#{session}: {s}")),
            }
        }
        if let Some(outcome) = completed {
            self.finish(ctx, session, outcome);
        }
    }

    /// Submits scenario entry `ix`: computes the scope, and either admits
    /// the session immediately or queues it behind the conflicting holders.
    fn submit(&mut self, ctx: &mut Context<'_, Wire<M>>, ix: usize) {
        let spec = self.scenario[ix].clone();
        if !self.submitted.insert(spec.id) {
            return; // restart re-armed a timer for an already submitted entry
        }
        self.submitted_at.entry(spec.id).or_insert(ctx.now());
        let resources = self.resources_of(&spec);
        self.emit_fleet(
            ctx,
            spec.id,
            FleetEvent::SessionSubmitted { session: spec.id, resources: resources.len() as u32 },
        );
        // Bulkhead: a full control plane parks the newcomer at the admission
        // gate without even trying its scope; the scope-lock path below only
        // runs while in-flight capacity exists.
        if self.active.len() >= self.resilience.bulkhead.max_in_flight {
            self.park(ctx, ix, &spec);
            return;
        }
        if self.locks.try_acquire(spec.id, &resources, spec.priority) {
            self.admit(ctx, ix);
        } else {
            // The lock manager auto-enqueued the session on conflict.
            self.note_waiting(spec.id, spec.priority);
            let position = self.locks.position(spec.id).unwrap_or(0) as u32;
            // Journal the queueing decision so a crashed control plane
            // requeues this session (in order) even though no core exists
            // for it yet. Source/target here are provisional — admission
            // recomputes them against the then-current fleet configuration.
            let target = self.world.target_for(&self.fleet_config, &spec.flips);
            self.journal.push(SessionRecord {
                session: SessionId(spec.id),
                record: JournalRecord::Queued { source: self.fleet_config.clone(), target },
            });
            self.emit_fleet(ctx, spec.id, FleetEvent::SessionQueued { session: spec.id, position });
            if let Some(at) = spec.cancel_at {
                let now = ctx.now().as_micros();
                let delay = at.as_micros().saturating_sub(now);
                ctx.set_timer(SimDuration::from_micros(delay), TAG_CANCEL_BASE + ix as u64);
            }
            if self.waiting.len() > self.resilience.bulkhead.max_queued {
                self.shed_overflow(ctx);
            }
        }
    }

    /// Parks a session at the admission gate (in-flight cap reached),
    /// shedding the least valuable waiter when the waiting room overflows.
    /// Gate parks journal the same `Queued` record as lock-queue entries so
    /// a crashed plane requeues them in order.
    fn park(&mut self, ctx: &mut Context<'_, Wire<M>>, ix: usize, spec: &SessionSpec) {
        self.note_waiting(spec.id, spec.priority);
        self.gate.push(spec.id);
        let target = self.world.target_for(&self.fleet_config, &spec.flips);
        self.journal.push(SessionRecord {
            session: SessionId(spec.id),
            record: JournalRecord::Queued { source: self.fleet_config.clone(), target },
        });
        let position = (self.waiting.len() - 1) as u32;
        self.emit_fleet(ctx, spec.id, FleetEvent::SessionQueued { session: spec.id, position });
        if let Some(at) = spec.cancel_at {
            let delay = at.as_micros().saturating_sub(ctx.now().as_micros());
            ctx.set_timer(SimDuration::from_micros(delay), TAG_CANCEL_BASE + ix as u64);
        }
        if self.waiting.len() > self.resilience.bulkhead.max_queued {
            self.shed_overflow(ctx);
        }
    }

    /// Admits a session whose scope locks are held: builds its scoped
    /// planner and embedded core, and fires the adaptation request.
    fn admit(&mut self, ctx: &mut Context<'_, Wire<M>>, ix: usize) {
        let spec = self.scenario[ix].clone();
        self.waiting.remove(&spec.id);
        self.gate.retain(|&g| g != spec.id);
        // Fail fast behind an open breaker: an admitted session whose scope
        // includes a gated agent would only hang on suppressed sends while
        // holding its locks, convoying every scope it shares a lock with.
        if let Some(agent) = self.scope_gated(ctx.now(), &spec) {
            let ev = FleetEvent::SessionRejected { session: spec.id, agent: agent as u32 };
            let warning = format!("rejected: agent {agent} behind an open circuit breaker");
            self.reject(ctx, spec.id, ev, warning);
            return;
        }
        // Per-scope breaker: admission doubles as the half-open probe — one
        // session is let through after the cooldown and its outcome decides
        // whether the scope's breaker closes or re-opens with a doubled
        // cooldown.
        if self.resilience.scope_breaker.is_some() {
            let key = self.scope_key(&spec);
            let now = ctx.now();
            if let Some((ok, tr)) = self.scope_breakers.get_mut(&key).map(|b| b.allow_send(now)) {
                if let Some(tr) = tr {
                    self.emit_scope_breaker(ctx, spec.id, key, tr);
                }
                if !ok {
                    // The whole collaborative set has been flapping, so new
                    // work on it fails fast while disjoint scopes (even ones
                    // sharing an agent) keep admitting.
                    let ev = FleetEvent::ScopeRejected { session: spec.id, scope: key };
                    let warning = format!("rejected: scope {key:#018x} behind an open breaker");
                    self.reject(ctx, spec.id, ev, warning);
                    return;
                }
            }
        }
        self.admissions.insert(spec.id, Admission::Admitted);
        let source = self.fleet_config.clone();
        let target = self.world.target_for(&source, &spec.flips);
        let scope = self.world.scope_comps(&spec.flips);
        let planner = ScopedLazyPlanner::new(Rc::clone(&self.world), &scope)
            .with_cache(Rc::clone(&self.plan_cache), spec.id);
        let core = ManagerCore::new(self.timing, Box::new(planner));
        self.active.insert(spec.id, ActiveSession { core, timers: HashMap::new() });
        self.admitted_at.insert(spec.id, ctx.now());
        let queued_for = ctx
            .now()
            .as_micros()
            .saturating_sub(self.submitted_at.get(&spec.id).map_or(0, |t| t.as_micros()));
        self.emit_fleet(ctx, spec.id, FleetEvent::SessionAdmitted { session: spec.id, queued_for });
        self.refresh_hint(spec.id);
        let eff = self
            .active
            .get_mut(&spec.id)
            .expect("just inserted")
            .core
            .on_event(ManagerEvent::Request { source, target });
        self.apply(ctx, spec.id, eff);
    }

    /// Completion: fold the session's final configuration into the fleet
    /// configuration, release its scope, and admit whoever that unblocks.
    fn finish(&mut self, ctx: &mut Context<'_, Wire<M>>, session: u64, outcome: Outcome) {
        if let Some(ix) = self.spec_ix(session) {
            let flips = self.scenario[ix].flips.clone();
            for comp in self.world.scope_comps(&flips) {
                if outcome.final_config.contains(comp) {
                    self.fleet_config.insert(comp);
                } else {
                    self.fleet_config.remove(comp);
                }
            }
            // Scope-breaker evidence: an unsuccessful protocol outcome
            // (give-up or rollback) marks the whole scope as flapping; a
            // success heals it. Breakers materialize only on first failure,
            // so healthy scopes never populate the map.
            if let Some(cfg) = self.resilience.scope_breaker {
                let spec = self.scenario[ix].clone();
                let key = self.scope_key(&spec);
                let now = ctx.now();
                let tr = if outcome.success {
                    self.scope_breakers.get_mut(&key).and_then(|b| b.on_success(now))
                } else {
                    self.scope_breakers
                        .entry(key)
                        .or_insert_with(|| CircuitBreaker::new(cfg))
                        .on_failure(now)
                };
                if let Some(tr) = tr {
                    self.emit_scope_breaker(ctx, session, key, tr);
                }
            }
        }
        self.completed_at.insert(session, ctx.now());
        self.emit_fleet(
            ctx,
            session,
            FleetEvent::SessionDone { session, success: outcome.success, gave_up: outcome.gave_up },
        );
        self.results.insert(session, outcome);
        if let Some(sess) = self.active.remove(&session) {
            for (tag, id) in sess.timers.values() {
                self.tag_owner.remove(tag);
                ctx.cancel_timer(*id);
            }
        }
        self.agent_session.retain(|_, s| *s != session);
        let granted = self.locks.release(session);
        self.admit_all_granted(ctx, granted);
        // Freed in-flight capacity: pull gated sessions in.
        self.drain_gate(ctx);
    }

    /// Withdraws a still-queued session (cancellation timer fired).
    fn cancel_queued(&mut self, ctx: &mut Context<'_, Wire<M>>, ix: usize) {
        let sid = self.scenario[ix].id;
        if self.active.contains_key(&sid) || self.results.contains_key(&sid) {
            return; // admitted or finished in the meantime — too late
        }
        let granted = if self.gate.contains(&sid) {
            // Gate-parked sessions never entered the lock structures.
            self.gate.retain(|&g| g != sid);
            Vec::new()
        } else {
            match self.locks.cancel(sid) {
                Some(g) => g,
                None => return,
            }
        };
        self.waiting.remove(&sid);
        // A withdrawn request resolves unsuccessfully but *not* given up:
        // nothing is awaiting the user, the requester simply left.
        self.conclude_unrun(
            ctx,
            sid,
            FleetEvent::SessionCancelled { session: sid },
            "cancelled while queued".into(),
        );
        self.admit_all_granted(ctx, granted);
    }

    /// Routes an incoming protocol message to the owning session's core.
    fn route(
        &mut self,
        ctx: &mut Context<'_, Wire<M>>,
        agent: usize,
        session: SessionId,
        msg: sada_proto::ProtoMsg,
    ) {
        // Trust the echoed stamp when it names a live session; otherwise
        // fall back to the engagement map (rejoins after a completed
        // session still carry the old stamp).
        let sid = if session.0 != 0 && self.active.contains_key(&session.0) {
            session.0
        } else {
            match self.agent_session.get(&agent) {
                Some(&s) if self.active.contains_key(&s) => s,
                _ => return, // nobody is engaging this agent — stale traffic
            }
        };
        self.refresh_hint(sid);
        let eff = self
            .active
            .get_mut(&sid)
            .expect("sid checked active")
            .core
            .on_event(ManagerEvent::AgentMsg { agent, msg });
        self.apply(ctx, sid, eff);
    }

    // ---- hooks for the sharded runtime (crate-internal) ----
    //
    // The shard wrappers drive admission decisions that originate outside
    // this actor's own timers: lock-escalation grants arriving over the
    // cross-shard fabric, and straddling sessions whose submission the
    // global tier schedules itself.

    /// Direct access to the scope-lock table, so a region can hold slices
    /// of globally escalated scopes under foreign (non-scenario) ids.
    pub(crate) fn locks_mut(&mut self) -> &mut ScopeLockManager {
        &mut self.locks
    }

    /// Sessions currently holding lock-table entries — the quiescence
    /// residue the shard report surfaces (must be zero after a clean run).
    pub(crate) fn lock_holder_count(&self) -> usize {
        self.locks.holders().len()
    }

    /// Submits scenario entry for session `sid` now (no-op for unknown or
    /// already-submitted ids).
    pub(crate) fn submit_session(&mut self, ctx: &mut Context<'_, Wire<M>>, sid: u64) {
        if let Some(ix) = self.spec_ix(sid) {
            self.submit(ctx, ix);
        }
    }

    /// Admits session `sid` whose scope locks were granted out-of-band
    /// (lock-release cascade driven by a foreign hold being released).
    pub(crate) fn admit_granted(&mut self, ctx: &mut Context<'_, Wire<M>>, sid: u64) {
        if let Some(ix) = self.spec_ix(sid) {
            self.admit(ctx, ix);
        }
    }

    /// Folds one externally adapted component value into the durable fleet
    /// configuration (a globally run session finished and its final scope
    /// values flow back to the owning region).
    pub(crate) fn fold_comp(&mut self, comp: sada_expr::CompId, present: bool) {
        if present {
            self.fleet_config.insert(comp);
        } else {
            self.fleet_config.remove(comp);
        }
    }

    /// Whether session `sid` has reached a terminal result.
    pub(crate) fn is_done(&self, sid: u64) -> bool {
        self.results.contains_key(&sid)
    }

    /// Concludes a never-admitted session with a journaled rejection — the
    /// global tier's terminal verdict when its fabric retransmission ladder
    /// exhausts against an unreachable region. Idempotent: a session that
    /// already holds a result is left untouched.
    pub(crate) fn conclude_rejected(
        &mut self,
        ctx: &mut Context<'_, Wire<M>>,
        sid: u64,
        warning: String,
    ) {
        if self.results.contains_key(&sid) {
            return;
        }
        self.conclude_unrun(
            ctx,
            sid,
            FleetEvent::SessionDone { session: sid, success: false, gave_up: false },
            warning,
        );
    }
}

impl<M: Clone + 'static> Actor<Wire<M>> for ControlActor<M> {
    fn on_start(&mut self, ctx: &mut Context<'_, Wire<M>>) {
        for (ix, spec) in self.scenario.iter().enumerate() {
            ctx.set_timer(spec.submit_at, TAG_SUBMIT_BASE + ix as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Wire<M>>, from: ActorId, msg: Wire<M>) {
        if let Wire::Proto { epoch, session, msg: p } = msg {
            let Some(&agent) = self.actor_to_agent.get(&from) else {
                return;
            };
            let seen = self.agent_epochs.entry(from).or_insert(0);
            if epoch < *seen {
                return; // pre-crash residue from an old agent incarnation
            }
            *seen = epoch;
            self.observe_arrival(ctx, agent);
            self.route(ctx, agent, session, p);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Wire<M>>, tag: u64) {
        if tag >= TAG_CANCEL_BASE {
            self.cancel_queued(ctx, (tag - TAG_CANCEL_BASE) as usize);
            return;
        }
        if tag >= TAG_SUBMIT_BASE {
            self.submit(ctx, (tag - TAG_SUBMIT_BASE) as usize);
            return;
        }
        if let Some((session, token)) = self.tag_owner.remove(&tag) {
            if self.active.contains_key(&session) {
                self.refresh_hint(session);
                let sess = self.active.get_mut(&session).expect("checked");
                sess.timers.remove(&token);
                let eff = sess.core.on_event(ManagerEvent::Timeout { token });
                self.in_timeout = true;
                self.apply(ctx, session, eff);
                self.in_timeout = false;
            }
        }
    }

    fn on_crash(&mut self, _now: SimTime) {
        // The volatile process image dies; the journal, results, and fleet
        // configuration stand in for durable storage and survive.
        self.active.clear();
        self.locks = ScopeLockManager::with_capacity(
            self.world.universe.len() + self.world.model.process_count(),
            self.scenario.len(),
        );
        self.tag_owner.clear();
        self.next_tag = 1;
        self.agent_epochs.clear();
        self.agent_session.clear();
        self.submitted.clear();
        // Breakers, estimators, and the waiting bookkeeping are process
        // state too: the restored plane re-learns the network and rebuilds
        // its queues from the journal.
        self.guard.on_crash();
        self.gate.clear();
        self.waiting.clear();
        self.last_rto.iter_mut().for_each(|r| *r = 0);
        self.scope_breakers.clear();
        // The plan cache dies with the process: the restored incarnation
        // starts cold, so journal replay never leans on pre-crash plans.
        self.plan_cache = Rc::new(RefCell::new(PlanCache::new(PLAN_CACHE_CAPACITY)));
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Wire<M>>) {
        self.epoch += 1;
        self.restores += 1;
        // Partition the interleaved journal by session, preserving the
        // order in which sessions first appear (the requeue order).
        let mut order: Vec<u64> = Vec::new();
        let mut per: HashMap<u64, Vec<JournalRecord>> = HashMap::new();
        for rec in &self.journal {
            let sid = rec.session.0;
            per.entry(sid)
                .or_insert_with(|| {
                    order.push(sid);
                    Vec::new()
                })
                .push(rec.record.clone());
        }
        let is_done = |recs: &[JournalRecord]| {
            recs.iter().any(|r| matches!(r, JournalRecord::Outcome { .. }))
        };
        let has_request = |recs: &[JournalRecord]| {
            recs.iter().any(|r| matches!(r, JournalRecord::Request { .. }))
        };
        // Pass 1: restore in-flight sessions and re-seize their scopes
        // (guaranteed compatible — they held them when the plane died).
        let mut restore_effects: Vec<(u64, Vec<ManagerEffect>)> = Vec::new();
        for &sid in &order {
            let recs = &per[&sid];
            self.submitted.insert(sid);
            if is_done(recs) || !has_request(recs) {
                continue;
            }
            let Some(ix) = self.spec_ix(sid) else { continue };
            let spec = self.scenario[ix].clone();
            // Strip the control-plane queueing prefix: the embedded core
            // never saw those records (it journals from Request onward).
            let body: Vec<JournalRecord> = recs
                .iter()
                .filter(|r| !matches!(r, JournalRecord::Queued { .. }))
                .cloned()
                .collect();
            let scope = self.world.scope_comps(&spec.flips);
            // The restored planner reattaches to the (fresh, cold) cache:
            // replay re-plans from scratch, then later sessions of this
            // incarnation may share the recomputed entries.
            let planner = ScopedLazyPlanner::new(Rc::clone(&self.world), &scope)
                .with_cache(Rc::clone(&self.plan_cache), sid);
            let (core, eff) = ManagerCore::restore(self.timing, Box::new(planner), &body)
                .unwrap_or_else(|e| panic!("control-plane journal replay failed: {e}"));
            let seized = self.locks.try_acquire(sid, &self.resources_of(&spec), spec.priority);
            assert!(seized, "in-flight scopes are disjoint and must re-acquire");
            self.active.insert(sid, ActiveSession { core, timers: HashMap::new() });
            restore_effects.push((sid, eff));
        }
        // Pass 2: requeue sessions that were waiting when the plane died,
        // in journal order; some may now be admissible.
        let mut to_admit: Vec<usize> = Vec::new();
        for &sid in &order {
            let recs = &per[&sid];
            if is_done(recs) || has_request(recs) {
                continue;
            }
            let Some(ix) = self.spec_ix(sid) else { continue };
            let spec = self.scenario[ix].clone();
            // Bulkhead capacity is honoured across the restart boundary: once
            // the restored in-flight set fills it, the remainder re-parks at
            // the admission gate rather than seizing scopes it can't run.
            let admissible = self.active.len() + to_admit.len()
                < self.resilience.bulkhead.max_in_flight
                && self.locks.try_acquire(sid, &self.resources_of(&spec), spec.priority);
            if admissible {
                to_admit.push(ix);
            } else {
                if self.active.len() + to_admit.len() >= self.resilience.bulkhead.max_in_flight {
                    self.gate.push(sid);
                }
                self.note_waiting(sid, spec.priority);
                if let Some(at) = spec.cancel_at {
                    let delay = at.as_micros().saturating_sub(ctx.now().as_micros());
                    ctx.set_timer(SimDuration::from_micros(delay), TAG_CANCEL_BASE + ix as u64);
                }
            }
        }
        self.emit_fleet(
            ctx,
            0,
            FleetEvent::ControlRestored {
                active: self.active.len() as u32,
                queued: self.locks.queue_len() as u32,
            },
        );
        for (sid, eff) in restore_effects {
            self.apply(ctx, sid, eff);
        }
        for ix in to_admit {
            self.admit(ctx, ix);
        }
        // Re-arm scenario entries whose submission timer died unfired.
        let now = ctx.now().as_micros();
        let pending: Vec<(usize, u64)> = self
            .scenario
            .iter()
            .enumerate()
            .filter(|(_, s)| !self.submitted.contains(&s.id))
            .map(|(ix, s)| (ix, s.submit_at.as_micros()))
            .collect();
        for (ix, due) in pending {
            if due > now {
                ctx.set_timer(SimDuration::from_micros(due - now), TAG_SUBMIT_BASE + ix as u64);
            } else {
                self.submit(ctx, ix);
            }
        }
    }
}
