//! The scripted agent shell: every simulated agent process of a run packed
//! into parallel flat vectors behind one boxed [`ArenaActor`].
//!
//! [`AgentArena`] drives one [`AgentCore`] per member: it reaches the safe
//! state, performs in-actions, resumes and rolls back after fixed
//! [`AgentTiming`] delays, and can be told to exhibit the paper's
//! fail-to-reset failure. Solo adaptations register one arena with a member
//! per process; fleet runs register one arena per endpoint. Either way the
//! per-agent state lives in a handful of contiguous allocations and the
//! simulator dispatches into one vtable for all members.
//!
//! Under fault injection each member models the volatile-uncommitted crash
//! model: a crash destroys the step in progress (an applied-but-uncommitted
//! in-action is recorded as evaporated in [`AgentArena::applied`]) while
//! completed steps survive on durable storage; the restart bumps the
//! member's epoch and announces [`ProtoMsg::Rejoin`] to the manager,
//! retransmitting until it is resynchronized.

use sada_obs::{AgentStateTag, Bus, Event, Payload, ProtoEvent, SimTime};
use sada_plan::ActionId;
use sada_resilience::ReannouncePolicy;
use sada_simnet::{ActorId, ArenaActor, Context, SimDuration};

use crate::agent::{state_tag, AgentCore, AgentEffect, AgentEvent, AgentState};
use crate::messages::{LocalAction, ProtoMsg, SessionId, Wire};

/// How long each local operation takes on an arena member.
#[derive(Debug, Clone, Copy)]
pub struct AgentTiming {
    /// Delay from `reset` to the safe state (packet boundary + drain).
    pub safe_delay: SimDuration,
    /// Extra delay when the action's global safe condition requires
    /// draining in-flight traffic (the paper's expensive compound actions).
    pub drain_extra: SimDuration,
    /// Duration of the structural in-action.
    pub act_delay: SimDuration,
    /// Delay to restore full operation.
    pub resume_delay: SimDuration,
    /// Duration of a rollback.
    pub rollback_delay: SimDuration,
}

impl Default for AgentTiming {
    fn default() -> Self {
        AgentTiming {
            safe_delay: SimDuration::from_millis(5),
            drain_extra: SimDuration::from_millis(25),
            act_delay: SimDuration::from_millis(2),
            resume_delay: SimDuration::from_millis(1),
            rollback_delay: SimDuration::from_millis(2),
        }
    }
}

/// Timer tag for reaching the safe state.
const TAG_SAFE: u64 = 1;
/// Timer tag for completing the structural in-action.
const TAG_ACT: u64 = 2;
/// Timer tag for restoring full operation.
const TAG_RESUME: u64 = 3;
/// Timer tag for completing a rollback.
const TAG_ROLLBACK: u64 = 4;
/// Timer tag for retransmitting a post-restart `Rejoin` announcement.
const TAG_REJOIN: u64 = 5;

/// Scripted agents reporting to one manager, stored as parallel vectors and
/// addressed by dense member index (`member == process index` in the
/// drivers).
pub struct AgentArena {
    manager: ActorId,
    bus: Bus,
    timings: Vec<AgentTiming>,
    /// Members that report `fail to reset` instead of reaching their safe
    /// state (a long critical communication segment).
    fail_to_reset: Vec<bool>,
    cores: Vec<AgentCore>,
    epochs: Vec<u64>,
    manager_epochs: Vec<u64>,
    /// Last session seen on incoming protocol traffic; echoed on every
    /// outgoing message (and stamped on bus events) so a multi-session
    /// control plane can route the member's replies. Stays
    /// [`SessionId::SOLO`] under a single-session manager.
    sessions: Vec<SessionId>,
    rejoin_budgets: Vec<u32>,
    pending_actions: Vec<Option<LocalAction>>,
    pending_rollbacks: Vec<Option<LocalAction>>,
    applied: Vec<Vec<(ActionId, bool)>>,
    crashes: Vec<u64>,
    rejoins_sent: Vec<u64>,
}

impl AgentArena {
    /// An empty arena whose members report to `manager` and emit protocol
    /// transitions onto `bus`.
    pub fn new(manager: ActorId, bus: Bus) -> Self {
        AgentArena::with_capacity(manager, bus, 0)
    }

    /// Like [`AgentArena::new`] with every parallel vector pre-sized for
    /// `members` agents.
    pub fn with_capacity(manager: ActorId, bus: Bus, members: usize) -> Self {
        AgentArena {
            manager,
            bus,
            timings: Vec::with_capacity(members),
            fail_to_reset: Vec::with_capacity(members),
            cores: Vec::with_capacity(members),
            epochs: Vec::with_capacity(members),
            manager_epochs: Vec::with_capacity(members),
            sessions: Vec::with_capacity(members),
            rejoin_budgets: Vec::with_capacity(members),
            pending_actions: Vec::with_capacity(members),
            pending_rollbacks: Vec::with_capacity(members),
            applied: Vec::with_capacity(members),
            crashes: Vec::with_capacity(members),
            rejoins_sent: Vec::with_capacity(members),
        }
    }

    /// Appends one agent with its operation timings; returns its member
    /// index (dense, starting at 0).
    pub fn push_member(&mut self, timing: AgentTiming) -> u32 {
        let member = self.timings.len() as u32;
        self.timings.push(timing);
        self.fail_to_reset.push(false);
        self.cores.push(AgentCore::new());
        self.epochs.push(0);
        self.manager_epochs.push(0);
        self.sessions.push(SessionId::SOLO);
        self.rejoin_budgets.push(0);
        self.pending_actions.push(None);
        self.pending_rollbacks.push(None);
        self.applied.push(Vec::new());
        self.crashes.push(0);
        self.rejoins_sent.push(0);
        member
    }

    /// Makes `member` report `fail to reset` instead of reaching its safe
    /// state (after the same delay reaching it would have taken).
    pub fn set_fail_to_reset(&mut self, member: u32, fail: bool) {
        self.fail_to_reset[member as usize] = fail;
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.timings.len()
    }

    /// True when no member has been pushed.
    pub fn is_empty(&self) -> bool {
        self.timings.is_empty()
    }

    /// Forward (`true`) and rollback (`false`) structural changes `member`
    /// actually applied, in order — the ground truth tests compare against.
    pub fn applied(&self, member: u32) -> &[(ActionId, bool)] {
        &self.applied[member as usize]
    }

    /// Crashes `member` suffered.
    pub fn crashes(&self, member: u32) -> u64 {
        self.crashes[member as usize]
    }

    /// `Rejoin` announcements `member` put on the wire.
    pub fn rejoins_sent(&self, member: u32) -> u64 {
        self.rejoins_sent[member as usize]
    }

    /// `member`'s incarnation number (0 until its first crash/restart).
    pub fn epoch(&self, member: u32) -> u64 {
        self.epochs[member as usize]
    }

    /// `member`'s state machine (for assertions).
    pub fn core(&self, member: u32) -> &AgentCore {
        &self.cores[member as usize]
    }

    fn send_rejoin<M: Clone + 'static>(&mut self, m: usize, ctx: &mut Context<'_, Wire<M>>) {
        self.rejoins_sent[m] += 1;
        ctx.send(
            self.manager,
            Wire::Proto {
                epoch: self.epochs[m],
                session: self.sessions[m],
                msg: ProtoMsg::Rejoin { last_completed: self.cores[m].last_completed() },
            },
        );
        ctx.set_timer(ReannouncePolicy::default().period, TAG_REJOIN);
    }

    fn apply<M: Clone + 'static>(
        &mut self,
        m: usize,
        ctx: &mut Context<'_, Wire<M>>,
        effects: Vec<AgentEffect>,
    ) {
        let obs = self.cores[m].drain_obs();
        if self.bus.has_sinks() {
            let (at, actor) = (ctx.now(), ctx.self_id().index() as u32);
            for payload in obs {
                self.bus.emit(Event { at, actor, session: self.sessions[m].0, shard: 0, payload });
            }
        }
        for eff in effects {
            match eff {
                AgentEffect::Send(msg) => ctx.send(
                    self.manager,
                    Wire::Proto { epoch: self.epochs[m], session: self.sessions[m], msg },
                ),
                AgentEffect::PreAction(_) => {}
                AgentEffect::BeginReset(la) => {
                    // Reaching the safe state takes time — more when the
                    // global safe condition demands draining; a
                    // fail-to-reset agent discovers after the same delay
                    // that it cannot.
                    let delay = if la.needs_global_drain {
                        self.timings[m].safe_delay + self.timings[m].drain_extra
                    } else {
                        self.timings[m].safe_delay
                    };
                    ctx.set_timer(delay, TAG_SAFE);
                }
                AgentEffect::DoInAction(la) => {
                    self.pending_actions[m] = Some(la);
                    ctx.set_timer(self.timings[m].act_delay, TAG_ACT);
                }
                AgentEffect::DoResume => {
                    ctx.set_timer(self.timings[m].resume_delay, TAG_RESUME);
                }
                AgentEffect::PostAction(_) => {}
                AgentEffect::DoRollback(la) => {
                    self.pending_rollbacks[m] = la;
                    ctx.set_timer(self.timings[m].rollback_delay, TAG_ROLLBACK);
                }
            }
        }
    }
}

impl<M: Clone + 'static> ArenaActor<Wire<M>> for AgentArena {
    fn on_message(
        &mut self,
        member: u32,
        ctx: &mut Context<'_, Wire<M>>,
        _from: ActorId,
        msg: Wire<M>,
    ) {
        let m = member as usize;
        if let Wire::Proto { epoch, session, msg: p } = msg {
            if epoch < self.manager_epochs[m] {
                return; // residue from a previous manager incarnation
            }
            self.manager_epochs[m] = epoch;
            // Adopt the sender's session so replies (and this member's bus
            // events) are tagged with the adaptation they belong to.
            self.sessions[m] = session;
            let eff = self.cores[m].on_event(AgentEvent::Msg(p));
            self.apply(m, ctx, eff);
            if self.cores[m].state() != AgentState::Running {
                // The manager has re-engaged this incarnation: the rejoin
                // announcement has served its purpose. (A Resume ignored in
                // the running state does NOT count — that is exactly the
                // lost-rejoin divergence the retransmissions exist for.)
                self.rejoin_budgets[m] = 0;
            }
        }
    }

    fn on_timer(&mut self, member: u32, ctx: &mut Context<'_, Wire<M>>, tag: u64) {
        let m = member as usize;
        if tag == TAG_REJOIN {
            // Keep announcing until the manager engages us (we leave the
            // running state) or the budget runs out; after that, recovery
            // falls back to the manager's ordinary timeout ladder.
            if self.rejoin_budgets[m] > 0 && self.cores[m].state() == AgentState::Running {
                self.rejoin_budgets[m] -= 1;
                self.send_rejoin(m, ctx);
            }
            return;
        }
        let ev = match tag {
            TAG_SAFE if self.fail_to_reset[m] => AgentEvent::CannotReset,
            TAG_SAFE => AgentEvent::SafeReached,
            TAG_ACT => {
                if let Some(la) = self.pending_actions[m].take() {
                    // The structural change happens exactly here — atomically
                    // with respect to the (blocked) data path.
                    self.applied[m].push((la.action, true));
                }
                AgentEvent::InActionDone
            }
            TAG_RESUME => AgentEvent::ResumeFinished,
            TAG_ROLLBACK => {
                if let Some(la) = self.pending_rollbacks[m].take() {
                    // `Some` means a forward change was applied and must be
                    // recorded as undone.
                    self.applied[m].push((la.action, false));
                }
                AgentEvent::RollbackFinished
            }
            _ => return,
        };
        let eff = self.cores[m].on_event(ev);
        self.apply(m, ctx, eff);
    }

    fn on_crash(&mut self, member: u32, _now: SimTime) {
        let m = member as usize;
        self.crashes[m] += 1;
        // Volatile-uncommitted model: an applied-but-uncommitted structural
        // change evaporates with the process image. Record it as undone so
        // the ground-truth replay sees what a fresh process image contains.
        if let Some(la) = self.cores[m].uncommitted_action() {
            self.applied[m].push((la.action, false));
        }
        self.pending_actions[m] = None;
        self.pending_rollbacks[m] = None;
    }

    fn on_restart(&mut self, member: u32, ctx: &mut Context<'_, Wire<M>>) {
        // New incarnation: only durable state (completed steps) survives.
        let m = member as usize;
        self.epochs[m] += 1;
        let prev = self.cores[m].state();
        self.cores[m] = AgentCore::restore(self.cores[m].last_completed());
        // The crash snapped the state machine back to Running without an
        // ordinary transition; emit one so per-phase interval integration
        // closes the dead incarnation's phase at the restart instant.
        if prev != AgentState::Running {
            self.bus.scoped(self.sessions[m].0).publish(
                ctx.now(),
                ctx.self_id().index() as u32,
                || {
                    Payload::Proto(ProtoEvent::AgentState {
                        from: state_tag(prev),
                        to: AgentStateTag::Running,
                        step: None,
                    })
                },
            );
        }
        self.rejoin_budgets[m] = ReannouncePolicy::default().budget;
        self.send_rejoin(m, ctx);
    }
}
