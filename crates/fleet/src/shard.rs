//! Sharded control plane: the one fleet runtime, split across OS threads
//! with a deterministic cross-shard fabric.
//!
//! The group space is cut into `regions` contiguous blocks, and each region
//! runs its own simulator — its own agents, its own
//! [`ControlActor`] (scope-lock domain, plan cache, journal) — pumped by a
//! real OS thread. Sessions whose scope stays inside one region never
//! synchronize with anything; sessions that straddle regions escalate to a
//! thin **global tier** that acquires per-region scope slices over the
//! fabric before running the full protocol.
//!
//! ## Determinism
//!
//! The whole point of the refactor is that parallelism must not perturb
//! behavior: the same scenario at 1, 2, 4, or 8 worker threads produces
//! bit-for-bit identical final configurations, journals, and event streams.
//! Three mechanisms carry that guarantee:
//!
//! * **Fixed logical partition.** `regions` is part of the scenario, not of
//!   the execution; worker threads multiplex endpoints (`endpoint id %
//!   threads`), so thread count never changes which simulator owns what.
//! * **Deterministic fabric merge.** Cross-shard messages are timestamped
//!   at the sender, mapped to a quantized virtual arrival instant, and
//!   injected into the receiver sorted by `(arrival, source shard, per-edge
//!   sequence)` — wall-clock interleaving cannot reorder them.
//! * **Conservative virtual clocks.** Each endpoint advances only as far as
//!   every inbound fabric edge *promises* silence (a null-message protocol
//!   with one fabric latency of lookahead). Edges that no straddling
//!   session touches promise silence statically, so straddler-free
//!   workloads free-run with zero synchronization — the source of the
//!   near-linear thread scaling in `bench_shard`.
//!
//! Every endpoint has the same actor layout — all agents at dense ids
//! `[0, processes)`, its control plane at the next index, the fabric relay
//! after that — so a simnet [`FaultPlan`](sada_simnet::FaultPlan) written
//! against one simulator's actor ids addresses a one-region run directly.
//! [`run_fleet`](crate::run_fleet) is exactly that case: one region on one
//! thread.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use sada_expr::CompId;
use sada_obs::{encode_event_into, Bus, Event, FleetEvent, Payload, RingSink};
use sada_proto::{
    encode_global_journal, encode_session_journal, AgentArena, AgentTiming, GlobalRecord, Wire,
};
use sada_resilience::{jitter_us, RetryPolicy, RttEstimator};
use sada_simnet::{
    Actor, ActorId, Context, LinkConfig, NetStats, SimDuration, SimTime, Simulator, TimerId,
};

use crate::cache::PlanCacheStats;
use crate::control::{ControlActor, SessionSpec};
use crate::driver::{max_concurrent, FleetScenario, SessionResult};
use crate::world::{Domain, FleetWorld};

/// Default region count: matches the 8-thread top rung of the scaling
/// benchmark, and divides the benchmark fleets evenly.
pub const DEFAULT_REGIONS: usize = 8;

/// Endpoint-seed stride (the 64-bit golden ratio), so endpoint 0 keeps the
/// scenario seed — a one-region run is seeded exactly as the scenario says
/// — while the rest get decorrelated streams.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Continues the FNV-1a hash `h` over `bytes`, one step per byte.
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A sharded fleet experiment: the underlying scenario plus the logical
/// partition, crash faults targeting one region and/or the global tier, and
/// a seeded chaos plan for the cross-shard fabric itself.
#[derive(Debug, Clone)]
pub struct ShardScenario {
    /// The fleet workload (groups, sessions, timing, resilience).
    pub fleet: FleetScenario,
    /// Number of regions the group space is cut into (contiguous blocks).
    /// Part of the *scenario*: results are invariant in worker threads, not
    /// in region count.
    pub regions: usize,
    /// Crash/restart instants for one region's control plane.
    pub crash_region: Option<(usize, SimTime, SimTime)>,
    /// Crash/restart instants for the global (straddler) tier's control
    /// plane. Ignored by workloads without straddlers — no global endpoint
    /// exists to crash.
    pub crash_global: Option<(SimTime, SimTime)>,
    /// Seeded fault plan for fabric messages (drop / duplicate /
    /// delay-burst / null-message suppression). Part of the scenario, so a
    /// lossy run is exactly as deterministic as a lossless one.
    pub fabric_faults: FabricFaultPlan,
    /// Enables the GVT promise fast path: when the minimum over every
    /// endpoint's published event horizon (plus undrained fabric mail)
    /// clears the budget, promises jump straight there instead of
    /// quantum-stepping. Pure wall-clock policy — fingerprints, journals,
    /// and results are bit-identical with it on or off (asserted in tests).
    pub promise_fastpath: bool,
}

impl ShardScenario {
    /// Wraps `fleet` in a `regions`-way partition with no fault plan.
    pub fn new(fleet: FleetScenario, regions: usize) -> Self {
        ShardScenario {
            fleet,
            regions,
            crash_region: None,
            crash_global: None,
            fabric_faults: FabricFaultPlan::default(),
            promise_fastpath: true,
        }
    }

    /// The region owning `group`: contiguous blocks, first blocks one
    /// group larger when the division is uneven.
    pub fn region_of(&self, group: usize) -> usize {
        group * self.regions / self.fleet.groups.max(1)
    }
}

// ---------------------------------------------------------------------------
// Fabric fault plan
// ---------------------------------------------------------------------------

/// Deterministic, seeded chaos for the cross-shard fabric. Faults are
/// decided *per message* by pure hashes of `(seed, src, dst, seq, kind)`,
/// so a lossy run replays bit-for-bit at any worker-thread count.
///
/// All faults respect the conservative-clock safety rule: a delayed copy
/// still arrives no earlier than the edge's published promise, and dropped
/// messages only ever *remove* traffic the retransmission ladder re-drives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricFaultPlan {
    /// Seed for the fault hashes. Independent of the workload seed so the
    /// same scenario can be swept across fault universes.
    pub seed: u64,
    /// Probability (per mille) a fabric message is silently dropped.
    pub drop_per_mille: u16,
    /// Probability (per mille) a fabric message is delivered twice.
    pub dup_per_mille: u16,
    /// Probability (per mille) a fabric message is delay-bursted to a
    /// later quantum boundary (this also reorders it behind later sends).
    pub delay_per_mille: u16,
    /// Upper bound (in arrival quanta) for delay bursts; the actual burst
    /// is `1 + hash % max_delay_quanta`.
    pub max_delay_quanta: u32,
    /// Probability (per mille) a *null message* (pure promise advance) is
    /// suppressed. Each distinct promise value is dropped at most once per
    /// edge, so progress is merely slowed, never stopped.
    pub null_drop_per_mille: u16,
    /// Restricts faults to sends inside `[start_us, end_us)`; `None` arms
    /// them for the whole run.
    pub window_us: Option<(u64, u64)>,
}

impl Default for FabricFaultPlan {
    fn default() -> Self {
        FabricFaultPlan {
            seed: 0x05AD_AFAB,
            drop_per_mille: 0,
            dup_per_mille: 0,
            delay_per_mille: 0,
            max_delay_quanta: 4,
            null_drop_per_mille: 0,
            window_us: None,
        }
    }
}

const SALT_DROP: u64 = 1;
const SALT_DUP: u64 = 2;
const SALT_DELAY: u64 = 3;
const SALT_DELAY_AMT: u64 = 4;
const SALT_NULL: u64 = 5;

/// Mixes one fabric message's identity into a fault-roll salt. `seq` gets
/// the golden-ratio spread so consecutive messages land in unrelated
/// regions of the jitter space.
fn fault_salt(src: u32, dst: u32, seq: u64, kind: u64) -> u64 {
    (u64::from(src) << 48) ^ (u64::from(dst) << 40) ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ kind
}

impl FabricFaultPlan {
    /// Whether any fault class is enabled at all (fast bail-out).
    pub fn is_active(&self) -> bool {
        self.drop_per_mille > 0
            || self.dup_per_mille > 0
            || self.delay_per_mille > 0
            || self.null_drop_per_mille > 0
    }

    /// Whether faults are armed for a message sent at `send_us`.
    fn armed_at(&self, send_us: u64) -> bool {
        match self.window_us {
            Some((start, end)) => send_us >= start && send_us < end,
            None => true,
        }
    }

    /// One seeded per-mille roll for the given salt.
    fn roll(&self, salt: u64, per_mille: u16) -> bool {
        per_mille > 0 && jitter_us(self.seed, salt, 1000) < u64::from(per_mille)
    }
}

// ---------------------------------------------------------------------------
// Cross-shard fabric
// ---------------------------------------------------------------------------

/// What crosses the fabric: only lock escalation. Regions and the global
/// tier never exchange protocol traffic — a globally run session drives the
/// global endpoint's own agent replicas, and only the scope-slice handshake
/// (request / grant-with-values / release-with-values / release-ack) is
/// distributed.
///
/// Every message carries an **epoch**: the global tier's incarnation
/// number at send time. Regions use it to evict leases held for a dead
/// global incarnation (reclaim) and to discard stale duplicates, which
/// makes grant/release application idempotent under the retransmission
/// ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the shared `Lock` prefix is the point: this IS the lock protocol
pub enum FabricPayload {
    /// Global tier → region: hold this scope slice under `session`.
    LockRequest { session: u64, resources: Vec<u32>, comps: Vec<u32>, priority: u8, epoch: u64 },
    /// Region → global tier: the slice is held; `values` carries the
    /// region's current component states so the global planner starts from
    /// the authoritative source configuration.
    LockGranted { session: u64, region: u32, epoch: u64, values: Vec<(u32, bool)> },
    /// Global tier → region: the session finished (or withdrew); `values`
    /// carries the final component states to fold into the region's
    /// durable fleet configuration.
    LockRelease { session: u64, epoch: u64, values: Vec<(u32, bool)> },
    /// Region → global tier: the release landed; retires the release's
    /// retransmission timer.
    ReleaseAck { session: u64, region: u32, epoch: u64 },
}

impl FabricPayload {
    /// The straddler session this message belongs to.
    pub fn session(&self) -> u64 {
        match *self {
            FabricPayload::LockRequest { session, .. }
            | FabricPayload::LockGranted { session, .. }
            | FabricPayload::LockRelease { session, .. }
            | FabricPayload::ReleaseAck { session, .. } => session,
        }
    }
}

fn join_u32s(xs: &[u32]) -> String {
    if xs.is_empty() {
        "-".to_string()
    } else {
        xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",")
    }
}

fn join_values(values: &[(u32, bool)]) -> String {
    if values.is_empty() {
        "-".to_string()
    } else {
        values.iter().map(|&(c, v)| format!("{c}:{}", u8::from(v))).collect::<Vec<_>>().join(",")
    }
}

/// One fabric message as a single text line (the same `verb key=value`
/// shape as the adaptation journals). Lists are comma-joined, `-` when
/// empty.
pub fn encode_fabric_msg(msg: &FabricPayload) -> String {
    match msg {
        FabricPayload::LockRequest { session, resources, comps, priority, epoch } => format!(
            "lock_request session={session} epoch={epoch} priority={priority} resources={} comps={}",
            join_u32s(resources),
            join_u32s(comps)
        ),
        FabricPayload::LockGranted { session, region, epoch, values } => format!(
            "lock_granted session={session} region={region} epoch={epoch} values={}",
            join_values(values)
        ),
        FabricPayload::LockRelease { session, epoch, values } => format!(
            "lock_release session={session} epoch={epoch} values={}",
            join_values(values)
        ),
        FabricPayload::ReleaseAck { session, region, epoch } => {
            format!("release_ack session={session} region={region} epoch={epoch}")
        }
    }
}

/// Parses one [`encode_fabric_msg`] line back into a payload.
pub fn parse_fabric_msg(line: &str) -> Result<FabricPayload, String> {
    let mut parts = line.split_whitespace();
    let verb = parts.next().ok_or_else(|| "empty fabric message".to_string())?;
    let mut fields: HashMap<&str, &str> = HashMap::new();
    for part in parts {
        let (k, v) = part.split_once('=').ok_or_else(|| format!("bad field {part:?}"))?;
        fields.insert(k, v);
    }
    let num = |key: &str| -> Result<u64, String> {
        fields
            .get(key)
            .ok_or_else(|| format!("missing {key} in {verb}"))?
            .parse::<u64>()
            .map_err(|e| format!("bad {key}: {e}"))
    };
    let list = |key: &str| -> Result<Vec<u32>, String> {
        let raw = fields.get(key).ok_or_else(|| format!("missing {key} in {verb}"))?;
        if *raw == "-" {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|x| x.parse::<u32>().map_err(|e| format!("bad {key} item: {e}")))
            .collect()
    };
    let values = |key: &str| -> Result<Vec<(u32, bool)>, String> {
        let raw = fields.get(key).ok_or_else(|| format!("missing {key} in {verb}"))?;
        if *raw == "-" {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|pair| {
                let (c, v) =
                    pair.split_once(':').ok_or_else(|| format!("bad {key} pair {pair:?}"))?;
                let comp = c.parse::<u32>().map_err(|e| format!("bad {key} comp: {e}"))?;
                let bit = match v {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad {key} bit {other:?}")),
                };
                Ok((comp, bit))
            })
            .collect()
    };
    match verb {
        "lock_request" => Ok(FabricPayload::LockRequest {
            session: num("session")?,
            resources: list("resources")?,
            comps: list("comps")?,
            priority: u8::try_from(num("priority")?).map_err(|e| format!("bad priority: {e}"))?,
            epoch: num("epoch")?,
        }),
        "lock_granted" => Ok(FabricPayload::LockGranted {
            session: num("session")?,
            region: u32::try_from(num("region")?).map_err(|e| format!("bad region: {e}"))?,
            epoch: num("epoch")?,
            values: values("values")?,
        }),
        "lock_release" => Ok(FabricPayload::LockRelease {
            session: num("session")?,
            epoch: num("epoch")?,
            values: values("values")?,
        }),
        "release_ack" => Ok(FabricPayload::ReleaseAck {
            session: num("session")?,
            region: u32::try_from(num("region")?).map_err(|e| format!("bad region: {e}"))?,
            epoch: num("epoch")?,
        }),
        other => Err(format!("unknown fabric verb {other:?}")),
    }
}

/// The app-level message an endpoint's wrapper hands its fabric relay.
#[derive(Debug, Clone)]
struct ShardMsg {
    to: u32,
    payload: FabricPayload,
}

/// A fabric message staged at the receiver, keyed for the deterministic
/// merge: `(arrival, src, seq)` is a total order no wall-clock interleaving
/// can disturb.
struct FabricEnvelope {
    arrival_us: u64,
    src: u32,
    seq: u64,
    payload: FabricPayload,
}

#[derive(Default)]
struct EdgeState {
    mail: Vec<FabricEnvelope>,
    /// Arrival-instant promise: no future message on this edge will arrive
    /// *before* this virtual time. `u64::MAX` once the sender is done.
    promise_us: u64,
    next_seq: u64,
    sent: u64,
    dropped: u64,
    duplicated: u64,
    delayed: u64,
    /// Null-message promise advances suppressed by the fault plan
    /// (wall-clock dependent, diagnostic only).
    nulls_dropped: u64,
    /// The last promise value the fault plan suppressed on this edge: each
    /// distinct value is dropped at most once, so the worker's periodic
    /// re-flush always lands the second attempt — livelock-free.
    last_dropped_promise: u64,
}

struct FabricState {
    edges: HashMap<(u32, u32), EdgeState>,
    promise_updates: u64,
    /// Per endpoint: a raw lower bound on its next send instant (its local
    /// event horizon, before clamping against inbound promises). The min
    /// over these plus undrained mail is a global virtual-time bound — the
    /// GVT promise fast path.
    local_bound: HashMap<u32, u64>,
}

impl FabricState {
    /// Global lower bound on any *future* fabric send: no endpoint can
    /// emit a message before this instant, and no undrained envelope
    /// arrives before it either.
    fn gvt(&self) -> u64 {
        let mut bound = u64::MAX;
        for &b in self.local_bound.values() {
            bound = bound.min(b);
        }
        for e in self.edges.values() {
            for env in &e.mail {
                bound = bound.min(env.arrival_us);
            }
        }
        bound
    }
}

/// The shared cross-shard message fabric: bounded per-edge mailboxes plus
/// the conservative-clock promises, guarded by one mutex (traffic is rare —
/// only lock escalation crosses shards).
struct Fabric {
    state: Mutex<FabricState>,
    cv: Condvar,
    /// Fabric latency *and* arrival quantum, μs (the link latency).
    quantum_us: u64,
    /// Seeded chaos applied at the sender as messages enter the fabric.
    faults: FabricFaultPlan,
    /// GVT promise fast path enabled (scheduling-only; see
    /// [`ShardScenario::promise_fastpath`]).
    fastpath: bool,
}

impl Fabric {
    fn new(
        involved: &[u32],
        global: u32,
        quantum_us: u64,
        faults: FabricFaultPlan,
        fastpath: bool,
    ) -> Self {
        let mut edges = HashMap::new();
        let mut local_bound = HashMap::new();
        local_bound.insert(global, 0);
        for &r in involved {
            local_bound.insert(r, 0);
            for key in [(global, r), (r, global)] {
                edges.insert(key, EdgeState { promise_us: quantum_us, ..EdgeState::default() });
            }
        }
        Fabric {
            state: Mutex::new(FabricState { edges, promise_updates: 0, local_bound }),
            cv: Condvar::new(),
            quantum_us,
            faults,
            fastpath,
        }
    }

    /// Fabric delivery instant for a message sent at `send_us`: the next
    /// quantum boundary at least one fabric latency later. Monotone in the
    /// send instant, so each edge is FIFO by construction.
    fn arrival_of(&self, send_us: u64) -> u64 {
        let q = self.quantum_us;
        (send_us + 2 * q - 1) / q * q
    }
}

/// Cross-shard traffic counters for a finished run. Message and fault
/// counts are deterministic; `promise_updates` / `nulls_dropped` count
/// observed clock-advance traffic and vary with wall-clock scheduling
/// (diagnostic only).
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// Total messages that crossed the fabric (faulted sends included).
    pub messages: u64,
    /// Per directed edge `(src shard tag, dst shard tag, messages)`.
    pub per_edge: Vec<(u32, u32, u64)>,
    /// Null-message promise advances observed (wall-clock dependent).
    pub promise_updates: u64,
    /// Fabric messages dropped by the fault plan.
    pub dropped: u64,
    /// Fabric messages duplicated by the fault plan.
    pub duplicated: u64,
    /// Fabric messages delay-bursted by the fault plan.
    pub delayed: u64,
    /// Null-message promise advances suppressed by the fault plan
    /// (wall-clock dependent).
    pub nulls_dropped: u64,
}

/// The in-sim half of the fabric: an idle actor sitting after the control
/// plane. Outbound cross-shard messages are addressed to it over the normal
/// (latency-bearing) link and surface in a buffer the executor drains;
/// inbound messages are injected *from* it, so crash/partition semantics
/// apply exactly like actor traffic.
type Outbox = Rc<RefCell<Vec<(u32, u64, FabricPayload)>>>;

struct FabricRelay {
    outbox: Outbox,
}

impl Actor<Wire<ShardMsg>> for FabricRelay {
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Wire<ShardMsg>>,
        _from: ActorId,
        msg: Wire<ShardMsg>,
    ) {
        if let Wire::App(m) = msg {
            self.outbox.borrow_mut().push((m.to, ctx.now().as_micros(), m.payload));
        }
    }
}

// ---------------------------------------------------------------------------
// Region wrapper
// ---------------------------------------------------------------------------

/// A scope slice held (or queued) in this region on behalf of a globally
/// escalated session.
struct ForeignHold {
    resources: Vec<u32>,
    comps: Vec<u32>,
    priority: u8,
    /// The global-tier incarnation that requested the slice. A request
    /// under a *higher* epoch reclaims the lease (the old incarnation is
    /// dead); requests under a lower epoch are stale duplicates.
    epoch: u64,
    /// `LockGranted` already sent back to the global tier.
    acked: bool,
}

/// Region control plane: the plain [`ControlActor`] plus the fabric-facing
/// lock-escalation shim. Every delegated callback is followed by a sweep
/// that turns newly granted foreign holds into `LockGranted` replies (the
/// inner grant cascade skips ids without a scenario entry).
///
/// Under a lossy fabric the shim is an idempotent receiver: duplicate
/// requests re-grant (the slice's component values cannot change while it
/// is locked, so the grant is byte-identical), duplicate releases re-ack,
/// and a **release tombstone** per session records the highest epoch ever
/// released so a delay-faulted request overtaken by its own release cannot
/// resurrect a hold the global tier no longer tracks.
struct RegionControl {
    inner: ControlActor<ShardMsg>,
    relay: ActorId,
    region_id: u32,
    global_ep: u32,
    bus: Bus,
    foreign: BTreeMap<u64, ForeignHold>,
    /// Release tombstones: session → highest epoch released/cancelled.
    released: HashMap<u64, u64>,
    /// Leases evicted from a dead global incarnation (epoch bump).
    lease_reclaims: u64,
    /// Lease-GC deadlines (virtual μs) for holds that survived a region
    /// crash: if the global tier stays silent past the deadline, the hold
    /// is garbage-collected from the lock table. Any inbound fabric message
    /// for the session re-arms its deadline.
    lease_deadline: HashMap<u64, u64>,
    /// Timer-slot → session map for the lease band; slots are never reused
    /// (stale timers no-op against the deadline check).
    lease_slots: Vec<u64>,
    /// Foreign holds garbage-collected after a silent lease horizon.
    lease_expirations: u64,
}

/// Region-wrapper timer band for lease GC. The inner control plane owns
/// `1 << 62`/`1 << 63` plus small dynamic tags, so `[1 << 61, 1 << 62)` is
/// free on region endpoints (the global tier's bands live on a different
/// actor).
const TAG_LEASE_BASE: u64 = 1 << 61;

/// How long a re-seized foreign hold may sit with **zero** fabric traffic
/// before the region declares the global tier's interest dead and reclaims
/// the lock-table entry. Comfortably past the global retransmission
/// ladder's ≈ 9 s span (`MAX_FABRIC_ATTEMPTS`), so a live-but-lossy global
/// tier always makes contact first.
const LEASE_HORIZON_US: u64 = 12_000_000;

impl RegionControl {
    fn emit(&self, ctx: &Context<'_, Wire<ShardMsg>>, session: u64, ev: FleetEvent) {
        self.bus.emit(Event {
            at: ctx.now(),
            actor: ctx.self_id().index() as u32,
            session,
            shard: 0,
            payload: Payload::Fleet(ev),
        });
    }

    fn grant(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, sid: u64) {
        let Some(hold) = self.foreign.get_mut(&sid) else { return };
        hold.acked = true;
        let epoch = hold.epoch;
        let values: Vec<(u32, bool)> = hold
            .comps
            .iter()
            .map(|&c| (c, self.inner.fleet_config.contains(CompId::from_index(c as usize))))
            .collect();
        ctx.send(
            self.relay,
            Wire::App(ShardMsg {
                to: self.global_ep,
                payload: FabricPayload::LockGranted {
                    session: sid,
                    region: self.region_id,
                    epoch,
                    values,
                },
            }),
        );
    }

    fn send_ack(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, session: u64, epoch: u64) {
        ctx.send(
            self.relay,
            Wire::App(ShardMsg {
                to: self.global_ep,
                payload: FabricPayload::ReleaseAck { session, region: self.region_id, epoch },
            }),
        );
    }

    fn sweep(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>) {
        let pending: Vec<u64> =
            self.foreign.iter().filter(|(_, h)| !h.acked).map(|(&s, _)| s).collect();
        for sid in pending {
            if self.inner.locks_mut().is_held(sid) {
                self.grant(ctx, sid);
            }
        }
    }

    /// (Re-)arms the lease-GC deadline for `session`: one horizon of global
    /// silence from now. Slots are append-only; a superseded timer fires
    /// against a newer deadline and no-ops.
    fn arm_lease(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, session: u64) {
        self.lease_deadline.insert(session, ctx.now().as_micros() + LEASE_HORIZON_US);
        let slot = self.lease_slots.len() as u64;
        self.lease_slots.push(session);
        ctx.set_timer(SimDuration::from_micros(LEASE_HORIZON_US), TAG_LEASE_BASE + slot);
    }

    /// Garbage-collects a foreign hold whose lease ran out: tombstone the
    /// epoch, drop the lock-table entry (held or still queued), and run the
    /// same grant cascade a `LockRelease` would have. Values are **not**
    /// folded — they only ever flow through an acked release; past the
    /// horizon the region's own durable state is authoritative.
    fn expire_lease(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, session: u64) {
        let Some(hold) = self.foreign.remove(&session) else { return };
        self.lease_deadline.remove(&session);
        let t = self.released.entry(session).or_insert(0);
        *t = (*t).max(hold.epoch);
        let granted = if self.inner.locks_mut().is_held(session) {
            self.inner.locks_mut().release(session)
        } else {
            self.inner.locks_mut().cancel(session).unwrap_or_default()
        };
        self.lease_expirations += 1;
        self.emit(ctx, session, FleetEvent::LeaseExpired { session, region: self.region_id });
        for g in granted {
            if self.foreign.contains_key(&g) {
                self.grant(ctx, g);
            } else {
                self.inner.admit_granted(ctx, g);
            }
        }
    }

    fn on_fabric(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, payload: FabricPayload) {
        // Any word from the global tier about a lease-watched session
        // renews its deadline: GC targets *silence*, not slowness.
        let sid = match &payload {
            FabricPayload::LockRequest { session, .. }
            | FabricPayload::LockGranted { session, .. }
            | FabricPayload::LockRelease { session, .. }
            | FabricPayload::ReleaseAck { session, .. } => *session,
        };
        if self.lease_deadline.contains_key(&sid) {
            self.arm_lease(ctx, sid);
        }
        match payload {
            FabricPayload::LockRequest { session, resources, comps, priority, epoch } => {
                // Tombstone first: a delayed/duplicated request whose
                // release already landed must not resurrect the hold.
                if self.released.get(&session).is_some_and(|&e| e >= epoch) {
                    return;
                }
                if let Some(hold) = self.foreign.get_mut(&session) {
                    match epoch.cmp(&hold.epoch) {
                        std::cmp::Ordering::Less => {} // stale duplicate
                        std::cmp::Ordering::Greater => {
                            // The global tier restarted: the lease survives
                            // under the new incarnation. Un-ack it so the
                            // caller's sweep re-grants (idempotently — the
                            // slice stayed locked, so its values are
                            // unchanged) with the new epoch.
                            hold.epoch = epoch;
                            hold.acked = false;
                            self.lease_reclaims += 1;
                            self.emit(
                                ctx,
                                session,
                                FleetEvent::LeaseReclaimed {
                                    session,
                                    region: self.region_id,
                                    epoch,
                                },
                            );
                        }
                        std::cmp::Ordering::Equal => {
                            // Retransmitted request: if the slice is held
                            // its grant was lost — re-send it. If it is
                            // still queued the sweep grants when ready.
                            if self.inner.locks_mut().is_held(session) {
                                self.grant(ctx, session);
                            }
                        }
                    }
                    return;
                }
                let held = self.inner.locks_mut().try_acquire(session, &resources, priority);
                self.foreign.insert(
                    session,
                    ForeignHold { resources, comps, priority, epoch, acked: false },
                );
                if held {
                    self.grant(ctx, session);
                }
            }
            FabricPayload::LockRelease { session, epoch, values } => {
                // Always ack (echoing the release's epoch) so the global
                // tier retires the right retransmission ladder — even for
                // an unknown session, where the release itself is the only
                // state we ever had.
                self.send_ack(ctx, session, epoch);
                let Some(hold) = self.foreign.get(&session) else {
                    let t = self.released.entry(session).or_insert(0);
                    *t = (*t).max(epoch);
                    return;
                };
                if epoch < hold.epoch {
                    return; // a dead incarnation's release; the live one decides
                }
                let t = self.released.entry(session).or_insert(0);
                *t = (*t).max(epoch);
                let was_held = self.inner.locks_mut().is_held(session);
                if was_held {
                    // Fold final values only out of a *held* slice: a
                    // still-queued (withdrawn) slice never ran, and its
                    // echoed request-time values must not clobber commits
                    // that happened while it waited.
                    for (c, v) in values {
                        self.inner.fold_comp(CompId::from_index(c as usize), v);
                    }
                }
                let granted = if was_held {
                    self.inner.locks_mut().release(session)
                } else {
                    self.inner.locks_mut().cancel(session).unwrap_or_default()
                };
                self.foreign.remove(&session);
                self.lease_deadline.remove(&session);
                for g in granted {
                    if self.foreign.contains_key(&g) {
                        self.grant(ctx, g);
                    } else {
                        self.inner.admit_granted(ctx, g);
                    }
                }
            }
            // Regions never receive grants or acks.
            FabricPayload::LockGranted { .. } | FabricPayload::ReleaseAck { .. } => {}
        }
    }
}

impl Actor<Wire<ShardMsg>> for RegionControl {
    fn on_start(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>) {
        self.inner.on_start(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Wire<ShardMsg>>,
        from: ActorId,
        msg: Wire<ShardMsg>,
    ) {
        match msg {
            Wire::App(m) => self.on_fabric(ctx, m.payload),
            other => self.inner.on_message(ctx, from, other),
        }
        self.sweep(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, tag: u64) {
        if (TAG_LEASE_BASE..TAG_LEASE_BASE << 1).contains(&tag) {
            // Lease band: expire only if this timer still carries the
            // session's *current* deadline (re-arms leave stale timers
            // behind, which no-op here).
            let slot = (tag - TAG_LEASE_BASE) as usize;
            if let Some(&session) = self.lease_slots.get(slot) {
                let due = self
                    .lease_deadline
                    .get(&session)
                    .is_some_and(|&dl| ctx.now().as_micros() >= dl);
                if due {
                    self.expire_lease(ctx, session);
                }
            }
            self.sweep(ctx);
            return;
        }
        self.inner.on_timer(ctx, tag);
        self.sweep(ctx);
    }

    fn on_crash(&mut self, now: SimTime) {
        // Foreign-hold bookkeeping is wrapper state and survives the crash
        // (the global tier journals the escalation on its side); the inner
        // volatile image — including the lock table — dies. Lease timers
        // die with the crash; restart re-arms them.
        self.lease_deadline.clear();
        self.inner.on_crash(now);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>) {
        // Re-seize granted escalations *before* journal replay, so restored
        // or requeued local sessions cannot steal the slices. Granted holds
        // are disjoint from local in-flight scopes (they were concurrently
        // held when the plane died), so both re-acquisitions must succeed.
        let held: Vec<(u64, Vec<u32>, u8)> = self
            .foreign
            .iter()
            .filter(|(_, h)| h.acked)
            .map(|(&s, h)| (s, h.resources.clone(), h.priority))
            .collect();
        for (sid, res, prio) in held {
            let got = self.inner.locks_mut().try_acquire(sid, &res, prio);
            assert!(got, "escalated holds are disjoint from local in-flight scopes");
        }
        self.inner.on_restart(ctx);
        // Still-queued escalation requests rejoin the queue (or are granted
        // outright if the crash resolved their conflict).
        let queued: Vec<(u64, Vec<u32>, u8)> = self
            .foreign
            .iter()
            .filter(|(_, h)| !h.acked)
            .map(|(&s, h)| (s, h.resources.clone(), h.priority))
            .collect();
        for (sid, res, prio) in queued {
            self.inner.locks_mut().try_acquire(sid, &res, prio);
        }
        // Every surviving hold gets a lease: if its global ladder already
        // gave up while we were dead (an orphaned release / abandoned
        // request), no fabric traffic will ever arrive to clear it — the
        // deadline reclaims the lock-table entry instead of leaking it.
        let sessions: Vec<u64> = self.foreign.keys().copied().collect();
        for sid in sessions {
            self.arm_lease(ctx, sid);
        }
        self.sweep(ctx);
    }
}

// ---------------------------------------------------------------------------
// Global tier
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pending,
    Granting,
    Running,
    Done,
    Cancelled,
}

/// One region's share of a straddling session's scope.
#[derive(Debug, Clone)]
struct Slice {
    region: u32,
    resources: Vec<u32>,
    comps: Vec<u32>,
}

struct Straddler {
    sid: u64,
    priority: u8,
    submit_at: SimDuration,
    cancel_at: Option<SimDuration>,
    /// Ascending region order — slices are acquired strictly sequentially,
    /// so escalation is deadlock-free by the usual ordered-2PL argument.
    slices: Vec<Slice>,
    next: usize,
    phase: Phase,
}

/// Wrapper timer namespaces. The inner control plane owns `1 << 62` and
/// `1 << 63` plus small dynamic tags; the global tier claims bands in
/// between for the pre-submission lifecycle of straddling sessions and the
/// fabric retransmission ladder.
const TAG_GLOBAL_SUBMIT: u64 = 1 << 61;
const TAG_GLOBAL_CANCEL: u64 = 3 << 60;
const TAG_INNER_BASE: u64 = 1 << 62;
const TAG_FABRIC_BASE: u64 = 1 << 60;

/// Retransmission attempts before the global tier declares a region
/// unreachable. With the adaptive backoff schedule (200 ms doubling to an
/// 800 ms cap) the full ladder spans ≈ 9 virtual seconds — the **lease
/// horizon**: a region silent that long is treated as dead, requests
/// abandon their straddler with a journaled rejection and releases are
/// counted as orphaned (the region's restarted lock table no longer
/// carries the hold anyway).
const MAX_FABRIC_ATTEMPTS: u32 = 12;

/// One timer tag per (straddler, slice, direction): requests and releases
/// retransmit independently.
fn fabric_tag(ix: usize, slice: usize, release: bool) -> u64 {
    TAG_FABRIC_BASE + ((ix as u64) << 12) + ((slice as u64) << 1) + u64::from(release)
}

/// An unacknowledged fabric send the retransmission ladder is driving.
/// Volatile: a global-tier crash clears these and the journal-driven
/// restore re-issues whatever still matters under the new incarnation.
struct Outstanding {
    payload: FabricPayload,
    region: u32,
    session: u64,
    attempts: u32,
    timer: TimerId,
    sent_at: u64,
}

/// The thin global tier: a full [`ControlActor`] over its own replica of
/// the fleet's agents, driving only the straddling sessions. Each straddler
/// submits through a lock-escalation handshake — per-region scope slices
/// acquired in ascending region order, grants carrying the regions'
/// authoritative component values, releases carrying the final ones back.
struct GlobalControl {
    inner: ControlActor<ShardMsg>,
    relay: ActorId,
    bus: Bus,
    straddlers: Vec<Straddler>,
    /// Wrapper-level lifecycle instants (μs) for phases the inner control
    /// plane never sees: real submission time (the inner spec carries a
    /// beyond-budget sentinel) and pre-submission withdrawals.
    submitted_at: HashMap<u64, u64>,
    cancelled_at: HashMap<u64, u64>,
    /// Durable: the global tier's write-ahead journal — every irreversible
    /// step of the escalation handshake, written before the fabric
    /// messages it covers.
    global_journal: Vec<GlobalRecord>,
    /// Durable: incarnation number, bumped on restart and stamped into
    /// every fabric message as its epoch.
    incarnation: u64,
    /// Durable counters (they describe history, not in-flight state).
    retransmits: u64,
    abandoned: u64,
    orphaned_releases: u64,
    // Volatile from here down: a crash clears these and the journal-driven
    // restore re-issues whatever still matters under the new incarnation.
    retry: RetryPolicy,
    rtt: HashMap<u32, RttEstimator>,
    outstanding: HashMap<u64, Outstanding>,
}

impl GlobalControl {
    fn emit(&self, ctx: &Context<'_, Wire<ShardMsg>>, session: u64, ev: FleetEvent) {
        self.bus.emit(Event {
            at: ctx.now(),
            actor: ctx.self_id().index() as u32,
            session,
            shard: 0,
            payload: Payload::Fleet(ev),
        });
    }

    fn send(&self, ctx: &mut Context<'_, Wire<ShardMsg>>, to: u32, payload: FabricPayload) {
        ctx.send(self.relay, Wire::App(ShardMsg { to, payload }));
    }

    /// Appends `rec` unless the journal already carries it — replay after
    /// a crash re-drives the handshake and must not duplicate history.
    fn journal_once(&mut self, rec: GlobalRecord) {
        if !self.global_journal.contains(&rec) {
            self.global_journal.push(rec);
        }
    }

    fn is_released(&self, sid: u64, region: u32) -> bool {
        self.global_journal.contains(&GlobalRecord::Released { session: sid, region })
    }

    /// The retransmission hint for `payload`: releases are pure round
    /// trips, so the per-region RTT estimator times them tightly; requests
    /// wait on lock *queueing* at the region, so they keep the slow
    /// default schedule (a queued grant is not a lost one).
    fn rto_hint(&self, region: u32, payload: &FabricPayload) -> Option<SimDuration> {
        match payload {
            FabricPayload::LockRelease { .. } => self.rtt.get(&region).and_then(RttEstimator::rto),
            _ => None,
        }
    }

    /// Sends `payload` with the retransmission ladder armed under `tag`
    /// (replacing any prior ladder on the same tag).
    fn send_tracked(
        &mut self,
        ctx: &mut Context<'_, Wire<ShardMsg>>,
        tag: u64,
        region: u32,
        payload: FabricPayload,
    ) {
        if let Some(prev) = self.outstanding.remove(&tag) {
            ctx.cancel_timer(prev.timer);
        }
        let session = payload.session();
        let hint = self.rto_hint(region, &payload);
        self.send(ctx, region, payload.clone());
        let delay = self.retry.deadline(0, tag ^ self.incarnation, hint);
        let timer = ctx.set_timer(delay, tag);
        self.outstanding.insert(
            tag,
            Outstanding {
                payload,
                region,
                session,
                attempts: 0,
                timer,
                sent_at: ctx.now().as_micros(),
            },
        );
    }

    /// Retires the ladder under `tag` (the awaited reply arrived).
    fn retire(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, tag: u64) -> Option<Outstanding> {
        let o = self.outstanding.remove(&tag)?;
        ctx.cancel_timer(o.timer);
        Some(o)
    }

    fn on_fabric_timer(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, tag: u64) {
        let Some(mut o) = self.outstanding.remove(&tag) else { return };
        o.attempts += 1;
        if o.attempts >= MAX_FABRIC_ATTEMPTS {
            if matches!(o.payload, FabricPayload::LockRelease { .. }) {
                // Past the lease horizon the region's restarted lock table
                // no longer carries the hold; the release is moot.
                self.orphaned_releases += 1;
            } else {
                self.abandon(ctx, o.session, o.region, o.attempts);
            }
            return;
        }
        let hint = self.rto_hint(o.region, &o.payload);
        let salt = tag ^ (u64::from(o.attempts) << 32) ^ self.incarnation;
        let delay = self.retry.deadline(o.attempts, salt, hint);
        self.retransmits += 1;
        self.emit(
            ctx,
            o.session,
            FleetEvent::FabricRetransmit {
                session: o.session,
                region: o.region,
                attempt: o.attempts,
            },
        );
        self.send(ctx, o.region, o.payload.clone());
        o.timer = ctx.set_timer(delay, tag);
        o.sent_at = ctx.now().as_micros();
        self.outstanding.insert(tag, o);
    }

    /// Terminal verdict for a straddler whose request ladder exhausted:
    /// journal the abandonment, conclude the inner session with a clean
    /// rejection, and release the acquired slice prefix.
    fn abandon(
        &mut self,
        ctx: &mut Context<'_, Wire<ShardMsg>>,
        sid: u64,
        region: u32,
        attempts: u32,
    ) {
        let Some(ix) = self.straddlers.iter().position(|s| s.sid == sid) else { return };
        if self.straddlers[ix].phase != Phase::Granting {
            return;
        }
        self.journal_once(GlobalRecord::Abandoned { session: sid, region });
        self.abandoned += 1;
        self.emit(ctx, sid, FleetEvent::StraddlerAbandoned { session: sid, region, attempts });
        self.straddlers[ix].phase = Phase::Cancelled;
        self.cancelled_at.entry(sid).or_insert(ctx.now().as_micros());
        let upto = (self.straddlers[ix].next + 1).min(self.straddlers[ix].slices.len());
        self.release_slices(ctx, ix, upto);
        self.inner.conclude_rejected(
            ctx,
            sid,
            format!("abandoned: region {region} unreachable after {attempts} attempts"),
        );
    }

    fn request_slice(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, ix: usize) {
        let s = &self.straddlers[ix];
        let slice_ix = s.next;
        let sl = s.slices[slice_ix].clone();
        let payload = FabricPayload::LockRequest {
            session: s.sid,
            resources: sl.resources,
            comps: sl.comps,
            priority: s.priority,
            epoch: self.incarnation,
        };
        self.send_tracked(ctx, fabric_tag(ix, slice_ix, false), sl.region, payload);
    }

    /// Sends `LockRelease` (final component values included) for the first
    /// `upto` slices of straddler `ix`, skipping slices whose release is
    /// already journaled as acknowledged, and retiring each slice's
    /// request ladder (the release supersedes it).
    fn release_slices(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, ix: usize, upto: usize) {
        let s = &self.straddlers[ix];
        let sid = s.sid;
        let msgs: Vec<(usize, u32, FabricPayload)> = s.slices[..upto.min(s.slices.len())]
            .iter()
            .enumerate()
            .filter(|(_, sl)| !self.is_released(sid, sl.region))
            .map(|(sx, sl)| {
                let values: Vec<(u32, bool)> = sl
                    .comps
                    .iter()
                    .map(|&c| (c, self.inner.fleet_config.contains(CompId::from_index(c as usize))))
                    .collect();
                (
                    sx,
                    sl.region,
                    FabricPayload::LockRelease { session: sid, epoch: self.incarnation, values },
                )
            })
            .collect();
        for (sx, region, payload) in msgs {
            self.retire(ctx, fabric_tag(ix, sx, false));
            self.send_tracked(ctx, fabric_tag(ix, sx, true), region, payload);
        }
    }

    fn begin(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, ix: usize) {
        if self.straddlers[ix].phase != Phase::Pending {
            return;
        }
        let sid = self.straddlers[ix].sid;
        let regions: Vec<u32> = self.straddlers[ix].slices.iter().map(|sl| sl.region).collect();
        self.journal_once(GlobalRecord::Escalated { session: sid, regions });
        self.straddlers[ix].phase = Phase::Granting;
        self.submitted_at.entry(sid).or_insert(ctx.now().as_micros());
        self.request_slice(ctx, ix);
    }

    fn on_granted(
        &mut self,
        ctx: &mut Context<'_, Wire<ShardMsg>>,
        session: u64,
        region: u32,
        epoch: u64,
        values: Vec<(u32, bool)>,
    ) {
        if epoch != self.incarnation {
            return; // a dead incarnation's grant; the re-driven chain re-earns it
        }
        let Some(ix) = self.straddlers.iter().position(|s| s.sid == session) else { return };
        if self.straddlers[ix].phase != Phase::Granting {
            return; // a grant that raced a withdrawal; the release is out
        }
        let next = self.straddlers[ix].next;
        if next >= self.straddlers[ix].slices.len()
            || self.straddlers[ix].slices[next].region != region
        {
            return; // duplicate grant of an earlier slice in the chain
        }
        self.retire(ctx, fabric_tag(ix, next, false));
        self.journal_once(GlobalRecord::SliceGranted { session, region });
        for (c, v) in values {
            self.inner.fold_comp(CompId::from_index(c as usize), v);
        }
        self.straddlers[ix].next += 1;
        if self.straddlers[ix].next < self.straddlers[ix].slices.len() {
            self.request_slice(ctx, ix);
        } else {
            // Every slice held and the source configuration assembled from
            // the grants: run the full protocol against the local replicas.
            self.journal_once(GlobalRecord::Submitted { session });
            self.straddlers[ix].phase = Phase::Running;
            let sid = self.straddlers[ix].sid;
            self.inner.submit_session(ctx, sid);
            self.sweep(ctx);
        }
    }

    fn on_ack(
        &mut self,
        ctx: &mut Context<'_, Wire<ShardMsg>>,
        session: u64,
        region: u32,
        epoch: u64,
    ) {
        if epoch != self.incarnation {
            return;
        }
        let Some((&tag, _)) = self.outstanding.iter().find(|(_, o)| {
            o.session == session
                && o.region == region
                && matches!(o.payload, FabricPayload::LockRelease { .. })
        }) else {
            return; // duplicate ack — the ladder is already retired
        };
        let o = self.retire(ctx, tag).expect("entry just found");
        if o.attempts == 0 {
            // Karn's rule: only never-retransmitted releases time the
            // round trip — an ack for any retransmission is ambiguous.
            let sample = ctx.now().as_micros().saturating_sub(o.sent_at);
            self.rtt.entry(region).or_default().observe(SimDuration::from_micros(sample));
        }
        self.journal_once(GlobalRecord::Released { session, region });
    }

    fn withdraw(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, ix: usize) {
        match self.straddlers[ix].phase {
            Phase::Pending => {
                self.journal_once(GlobalRecord::Withdrawn { session: self.straddlers[ix].sid });
                self.straddlers[ix].phase = Phase::Cancelled;
                self.cancelled_at.insert(self.straddlers[ix].sid, ctx.now().as_micros());
            }
            Phase::Granting => {
                // Release every slice acquired or requested so far; a
                // still-queued request is cancelled by the region, a grant
                // in flight is answered by the (edge-FIFO) release behind it.
                self.journal_once(GlobalRecord::Withdrawn { session: self.straddlers[ix].sid });
                let upto = (self.straddlers[ix].next + 1).min(self.straddlers[ix].slices.len());
                self.release_slices(ctx, ix, upto);
                self.straddlers[ix].phase = Phase::Cancelled;
                self.cancelled_at.insert(self.straddlers[ix].sid, ctx.now().as_micros());
            }
            _ => {} // admitted or finished in the meantime — too late
        }
    }

    /// Detects straddlers whose inner session reached a terminal result and
    /// flows their final scope values back to the owning regions.
    fn sweep(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>) {
        for ix in 0..self.straddlers.len() {
            if self.straddlers[ix].phase == Phase::Running
                && self.inner.is_done(self.straddlers[ix].sid)
            {
                self.straddlers[ix].phase = Phase::Done;
                let n = self.straddlers[ix].slices.len();
                self.release_slices(ctx, ix, n);
            }
        }
    }

    /// Rebuilds one straddler's wrapper state from the durable journal
    /// after a crash, re-driving its handshake under the new incarnation.
    fn restore_straddler(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, ix: usize) {
        let sid = self.straddlers[ix].sid;
        let mut escalated = false;
        let mut submitted = false;
        let mut terminal = false;
        let mut granted = 0usize;
        for rec in &self.global_journal {
            match rec {
                GlobalRecord::Escalated { session, .. } if *session == sid => escalated = true,
                GlobalRecord::SliceGranted { session, .. } if *session == sid => granted += 1,
                GlobalRecord::Submitted { session } if *session == sid => submitted = true,
                GlobalRecord::Withdrawn { session } if *session == sid => terminal = true,
                GlobalRecord::Abandoned { session, .. } if *session == sid => terminal = true,
                _ => {}
            }
        }
        let now_us = ctx.now().as_micros();
        let n = self.straddlers[ix].slices.len();
        if terminal {
            // Withdrawn or abandoned before the crash: re-issue the
            // releases that never got acknowledged.
            self.straddlers[ix].phase = Phase::Cancelled;
            self.straddlers[ix].next = granted;
            self.cancelled_at.entry(sid).or_insert(now_us);
            self.release_slices(ctx, ix, (granted + 1).min(n));
            return;
        }
        if submitted {
            // The inner journal replay already restored (or finished) the
            // session itself; the wrapper only re-drives the release flow.
            self.straddlers[ix].next = n;
            if self.inner.is_done(sid) {
                self.straddlers[ix].phase = Phase::Done;
                self.release_slices(ctx, ix, n);
            } else {
                self.straddlers[ix].phase = Phase::Running;
            }
        } else if escalated {
            // A partial ascending chain died with the old incarnation:
            // re-drive it from slice 0 under the new epoch. Regions still
            // holding old-epoch leases reclaim them (grant values re-fold
            // idempotently — the slices stayed locked throughout).
            self.straddlers[ix].phase = Phase::Granting;
            self.straddlers[ix].next = 0;
            self.request_slice(ctx, ix);
        } else {
            // Never escalated: requeue. The crash dropped the submit
            // timer, so re-arm it (or begin immediately if it is due).
            self.straddlers[ix].phase = Phase::Pending;
            self.straddlers[ix].next = 0;
            let due = self.straddlers[ix].submit_at.as_micros();
            if due > now_us {
                ctx.set_timer(
                    SimDuration::from_micros(due - now_us),
                    TAG_GLOBAL_SUBMIT + ix as u64,
                );
            } else {
                self.begin(ctx, ix);
            }
        }
        // Pending/Granting/Running straddlers keep their withdrawal
        // deadline across the crash.
        if matches!(self.straddlers[ix].phase, Phase::Pending | Phase::Granting) {
            if let Some(at) = self.straddlers[ix].cancel_at {
                let due = at.as_micros();
                if due > now_us {
                    ctx.set_timer(
                        SimDuration::from_micros(due - now_us),
                        TAG_GLOBAL_CANCEL + ix as u64,
                    );
                } else {
                    self.withdraw(ctx, ix);
                }
            }
        }
    }
}

impl Actor<Wire<ShardMsg>> for GlobalControl {
    fn on_start(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>) {
        self.inner.on_start(ctx);
        for ix in 0..self.straddlers.len() {
            ctx.set_timer(self.straddlers[ix].submit_at, TAG_GLOBAL_SUBMIT + ix as u64);
            if let Some(at) = self.straddlers[ix].cancel_at {
                ctx.set_timer(at, TAG_GLOBAL_CANCEL + ix as u64);
            }
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Wire<ShardMsg>>,
        from: ActorId,
        msg: Wire<ShardMsg>,
    ) {
        match msg {
            Wire::App(m) => match m.payload {
                FabricPayload::LockGranted { session, region, epoch, values } => {
                    self.on_granted(ctx, session, region, epoch, values);
                }
                FabricPayload::ReleaseAck { session, region, epoch } => {
                    self.on_ack(ctx, session, region, epoch);
                }
                // The global tier never receives requests or releases.
                FabricPayload::LockRequest { .. } | FabricPayload::LockRelease { .. } => {}
            },
            other => {
                self.inner.on_message(ctx, from, other);
                self.sweep(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>, tag: u64) {
        if tag >= TAG_INNER_BASE {
            self.inner.on_timer(ctx, tag);
            self.sweep(ctx);
        } else if tag >= TAG_GLOBAL_CANCEL {
            self.withdraw(ctx, (tag - TAG_GLOBAL_CANCEL) as usize);
        } else if tag >= TAG_GLOBAL_SUBMIT {
            self.begin(ctx, (tag - TAG_GLOBAL_SUBMIT) as usize);
        } else if tag >= TAG_FABRIC_BASE {
            self.on_fabric_timer(ctx, tag);
        } else {
            self.inner.on_timer(ctx, tag);
            self.sweep(ctx);
        }
    }

    fn on_crash(&mut self, now: SimTime) {
        // The durable image — global journal, incarnation, lifecycle
        // instants, history counters — survives; in-flight ladders and RTT
        // estimates die with the process.
        self.inner.on_crash(now);
        self.outstanding.clear();
        self.rtt.clear();
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Wire<ShardMsg>>) {
        self.incarnation += 1;
        self.inner.on_restart(ctx);
        // Replay straddlers in journal order (first appearance) so
        // re-driven handshakes hit the fabric in the same order the dead
        // incarnation decided them; never-journaled straddlers follow in
        // scenario order.
        let mut order: Vec<usize> = Vec::new();
        for rec in &self.global_journal {
            let sid = match rec {
                GlobalRecord::Escalated { session, .. } => *session,
                _ => continue,
            };
            if let Some(ix) = self.straddlers.iter().position(|s| s.sid == sid) {
                if !order.contains(&ix) {
                    order.push(ix);
                }
            }
        }
        for ix in 0..self.straddlers.len() {
            if !order.contains(&ix) {
                order.push(ix);
            }
        }
        for ix in order {
            self.restore_straddler(ctx, ix);
        }
        self.sweep(ctx);
    }
}

// ---------------------------------------------------------------------------
// Endpoints and the conservative executor
// ---------------------------------------------------------------------------

/// Everything a worker thread needs to *build* one endpoint — plain data,
/// since simulators are constructed inside the owning thread.
struct EndpointPlan {
    id: u32,
    /// The world the driver already compiled, handed to endpoint 0 so it
    /// is not compiled twice; every other endpoint compiles its own.
    world: Option<FleetWorld>,
    specs: Vec<SessionSpec>,
    straddlers: Vec<StraddlerPlan>,
    inbound: Vec<u32>,
    outbound: Vec<u32>,
    owned_groups: Vec<usize>,
    crash: Option<(SimTime, SimTime)>,
    is_global: bool,
}

struct StraddlerPlan {
    sid: u64,
    priority: u8,
    submit_at: SimDuration,
    cancel_at: Option<SimDuration>,
    slices: Vec<Slice>,
}

/// One endpoint (a region or the global tier) under conservative execution.
struct Endpoint {
    id: u32,
    shard_tag: u32,
    sim: Simulator<Wire<ShardMsg>>,
    control_id: ActorId,
    relay_id: ActorId,
    outbox: Outbox,
    ring: Rc<RefCell<RingSink>>,
    /// Sharded bus clone for executor-level (fault) events.
    bus: Bus,
    inbound: Vec<u32>,
    outbound: Vec<u32>,
    staged: BTreeMap<u64, Vec<FabricEnvelope>>,
    ran_to_us: u64,
    budget_us: u64,
    done: bool,
    sessions: Vec<u64>,
    /// Components whose final values this endpoint is authoritative for:
    /// the full membership of every owned cluster.
    owned_comps: Vec<u32>,
    is_global: bool,
    /// Whether to render this endpoint's journal to text at distillation
    /// (mirrors [`FleetScenario::render_journal`]).
    render_journal: bool,
}

/// Wires one endpoint: its simulator, the agent arena, the (region or
/// global) control plane, and the fabric relay, then schedules the crash
/// window and the scenario's simnet fault plan. This is the only place
/// fleet actors are wired.
fn build_endpoint(
    scn: &FleetScenario,
    regions: usize,
    budget_us: u64,
    mut plan: EndpointPlan,
) -> Endpoint {
    let world = Rc::new(plan.world.take().unwrap_or_else(|| scn.build_world()));
    let seed = scn.seed.wrapping_add(u64::from(plan.id).wrapping_mul(SEED_STRIDE));
    let mut sim: Simulator<Wire<ShardMsg>> = Simulator::new(seed);
    sim.set_default_link(LinkConfig::reliable(scn.link_latency));

    let bus = Bus::new();
    let ring = Rc::new(RefCell::new(RingSink::new(1 << 18)));
    bus.attach(&ring);
    let shard_tag = plan.id + 1;
    let sharded = bus.sharded(shard_tag);

    // Agents first so their ids are dense [0, processes); the control plane
    // takes the next slot and the fabric relay the one after that.
    let procs = world.model.process_count();
    let control_id = ActorId::from_index(procs);
    let relay_id = ActorId::from_index(procs + 1);
    emit_domain_tag(&sharded, &world, control_id);
    let mut agents = Vec::with_capacity(procs);
    let mut arena = AgentArena::with_capacity(control_id, sharded.clone(), procs);
    for p in 0..procs {
        let timing = match scn.slow_agents.iter().find(|&&(ix, _)| ix == p) {
            Some(&(_, factor)) => scale_timing(AgentTiming::default(), factor),
            None => AgentTiming::default(),
        };
        arena.push_member(timing);
    }
    let arena_id = sim.add_arena(arena);
    for p in 0..procs {
        agents.push(sim.add_arena_member(&format!("agent-{p}"), arena_id, p as u32));
    }
    let sessions = plan.specs.iter().map(|s| s.id).collect();
    let inner = ControlActor::<ShardMsg>::new(
        Rc::clone(&world),
        agents,
        plan.specs,
        scn.timing,
        scn.serialize,
    )
    .with_resilience(scn.resilience)
    .with_bus(sharded.clone());
    let got = if plan.is_global {
        let straddlers = plan
            .straddlers
            .into_iter()
            .map(|s| Straddler {
                sid: s.sid,
                priority: s.priority,
                submit_at: s.submit_at,
                cancel_at: s.cancel_at,
                slices: s.slices,
                next: 0,
                phase: Phase::Pending,
            })
            .collect();
        sim.add_actor(
            "global-control",
            GlobalControl {
                inner,
                relay: relay_id,
                bus: sharded.clone(),
                straddlers,
                submitted_at: HashMap::new(),
                cancelled_at: HashMap::new(),
                global_journal: Vec::new(),
                incarnation: 0,
                retransmits: 0,
                abandoned: 0,
                orphaned_releases: 0,
                retry: RetryPolicy {
                    jitter_seed: scn.seed ^ 0x05AD_AFAB,
                    ..RetryPolicy::adaptive()
                },
                rtt: HashMap::new(),
                outstanding: HashMap::new(),
            },
        )
    } else {
        sim.add_actor(
            "control",
            RegionControl {
                inner,
                relay: relay_id,
                region_id: plan.id,
                global_ep: regions as u32,
                bus: sharded.clone(),
                foreign: BTreeMap::new(),
                released: HashMap::new(),
                lease_reclaims: 0,
                lease_deadline: HashMap::new(),
                lease_slots: Vec::new(),
                lease_expirations: 0,
            },
        )
    };
    assert_eq!(got, control_id, "control plane must sit after the agents");
    let outbox: Outbox = Rc::new(RefCell::new(Vec::new()));
    let got = sim.add_actor("fabric-relay", FabricRelay { outbox: Rc::clone(&outbox) });
    assert_eq!(got, relay_id, "fabric relay must sit after the control plane");

    if let Some((crash, restart)) = plan.crash {
        sim.crash_at(control_id, crash);
        sim.restart_at(control_id, restart);
    }
    sim.schedule_faults(&scn.faults);

    Endpoint {
        id: plan.id,
        shard_tag,
        sim,
        control_id,
        relay_id,
        outbox,
        ring,
        bus: sharded,
        inbound: plan.inbound,
        outbound: plan.outbound,
        staged: BTreeMap::new(),
        ran_to_us: 0,
        budget_us,
        done: false,
        sessions,
        owned_comps: plan
            .owned_groups
            .iter()
            .flat_map(|&g| world.cluster_comps(g).iter().map(|&c| c as u32))
            .collect(),
        is_global: plan.is_global,
        render_journal: scn.render_journal,
    }
}

/// Tags the event stream with the world's domain and objective. Video
/// worlds stay silent so every pre-existing stream (and its fingerprint)
/// is byte-identical; generated domains announce themselves once per
/// control plane, before any session activity.
fn emit_domain_tag(bus: &Bus, world: &FleetWorld, control_id: ActorId) {
    if world.domain() == Domain::Video {
        return;
    }
    bus.emit(Event {
        at: SimTime::ZERO,
        actor: control_id.index() as u32,
        session: 0,
        shard: 0,
        payload: Payload::Fleet(FleetEvent::DomainTagged {
            domain: world.domain().tag(),
            objective: world.objective().tag(),
        }),
    });
}

/// Stretches every phase of an agent's work by `factor`.
fn scale_timing(t: AgentTiming, factor: u32) -> AgentTiming {
    let scale = |d: SimDuration| SimDuration::from_micros(d.as_micros() * u64::from(factor));
    AgentTiming {
        safe_delay: scale(t.safe_delay),
        drain_extra: scale(t.drain_extra),
        act_delay: scale(t.act_delay),
        resume_delay: scale(t.resume_delay),
        rollback_delay: scale(t.rollback_delay),
    }
}

impl Endpoint {
    fn run_to(&mut self, us: u64) -> bool {
        if us <= self.ran_to_us && !(us == 0 && self.ran_to_us == 0 && !self.done) {
            return false;
        }
        self.sim.run_until(SimTime::from_micros(us));
        let progressed = us > self.ran_to_us;
        self.ran_to_us = us.max(self.ran_to_us);
        progressed
    }

    /// One conservative scheduling step: drain inbound fabric mail, inject
    /// every arrival-complete batch at its quantized instant (sorted by
    /// `(src, seq)`), and advance local virtual time to the horizon every
    /// inbound promise allows. Returns whether anything moved.
    fn step(&mut self, fabric: &Fabric) -> bool {
        let mut progressed = false;
        let safe = {
            let mut st = fabric.state.lock().unwrap();
            for &src in &self.inbound {
                let e = st.edges.get_mut(&(src, self.id)).expect("active inbound edge");
                for env in e.mail.drain(..) {
                    self.staged.entry(env.arrival_us).or_default().push(env);
                }
            }
            // GVT bookkeeping: mail leaves the globally visible mailboxes
            // here, so in the *same* critical section fold its earliest
            // arrival into this endpoint's published bound — an envelope
            // is never invisible to a concurrent `gvt()` scan.
            if fabric.fastpath && !self.outbound.is_empty() {
                if let Some(&t) = self.staged.keys().next() {
                    let b = st.local_bound.entry(self.id).or_insert(0);
                    *b = (*b).min(t);
                }
            }
            self.inbound
                .iter()
                .map(|&src| st.edges[&(src, self.id)].promise_us)
                .min()
                .unwrap_or(u64::MAX)
        };
        loop {
            let next_batch = self.staged.keys().next().copied();
            if let Some(t) = next_batch {
                // A batch is complete once every inbound edge promises no
                // further arrival at or before it.
                if t <= self.budget_us && safe > t {
                    if t > 0 {
                        self.run_to(t - 1);
                    }
                    let mut batch = self.staged.remove(&t).expect("just peeked");
                    batch.sort_by_key(|e| (e.src, e.seq));
                    let now = self.sim.now().as_micros();
                    let msgs: Vec<Wire<ShardMsg>> = batch
                        .into_iter()
                        .map(|env| Wire::App(ShardMsg { to: self.id, payload: env.payload }))
                        .collect();
                    self.sim.inject_batch(
                        self.relay_id,
                        self.control_id,
                        msgs,
                        SimDuration::from_micros(t - now),
                    );
                    progressed = true;
                    continue;
                }
            }
            let mut horizon = self.budget_us;
            if let Some(t) = next_batch {
                horizon = horizon.min(t.saturating_sub(1));
            }
            horizon = horizon.min(safe.saturating_sub(1));
            progressed |= self.run_to(horizon);
            break;
        }
        progressed |= self.flush(fabric, safe);
        if !self.done
            && self.ran_to_us >= self.budget_us
            && self.staged.keys().next().is_none_or(|&t| t > self.budget_us)
            && safe > self.budget_us
        {
            self.done = true;
            progressed = true;
        }
        progressed
    }

    /// Publishes outbox messages and refreshed arrival promises. The
    /// promise is the null message of the conservative protocol: arrival
    /// instant of the earliest message this endpoint could still send,
    /// derived from its next local event, its staged inbound arrivals, and
    /// what its own inbound edges promise.
    ///
    /// The fault plan is applied here, at the sender, as messages enter the
    /// fabric: drops consume the sequence number without mailing, delays
    /// push the arrival to a later quantum boundary (reordering it behind
    /// later sends), duplicates mail a second envelope one quantum later.
    /// Every decision is a pure hash of `(seed, src, dst, seq)`, so the
    /// lossy schedule is part of the scenario, not the execution.
    fn flush(&mut self, fabric: &Fabric, safe: u64) -> bool {
        if self.outbound.is_empty() {
            debug_assert!(self.outbox.borrow().is_empty(), "fabric send without an active edge");
            return false;
        }
        let out: Vec<(u32, u64, FabricPayload)> = self.outbox.borrow_mut().drain(..).collect();
        let next_ev = self.sim.next_event_at().map_or(u64::MAX, |t| t.as_micros());
        let next_staged = self.staged.keys().next().copied().unwrap_or(u64::MAX);
        let lb = next_ev.min(next_staged).min(safe);
        let mut progressed = false;
        let faults = &fabric.faults;
        let quantum = fabric.quantum_us;
        let mut fault_events: Vec<Event> = Vec::new();
        let mut st = fabric.state.lock().unwrap();
        for (dst, send_us, payload) in out {
            let e = st.edges.get_mut(&(self.id, dst)).expect("fabric send on an inactive edge");
            let seq = e.next_seq;
            e.next_seq += 1;
            e.sent += 1;
            let mut arrival_us = fabric.arrival_of(send_us);
            if faults.is_active() && faults.armed_at(send_us) {
                if faults.roll(fault_salt(self.id, dst, seq, SALT_DROP), faults.drop_per_mille) {
                    // The sequence number is consumed — retransmissions get
                    // their own, keeping replay deterministic.
                    e.dropped += 1;
                    fault_events.push(self.fault_event(
                        send_us,
                        payload.session(),
                        FleetEvent::FabricDropped { src: self.id, dst, seq },
                    ));
                    progressed = true;
                    continue;
                }
                if faults.roll(fault_salt(self.id, dst, seq, SALT_DELAY), faults.delay_per_mille) {
                    let span = u64::from(faults.max_delay_quanta.max(1));
                    let quanta = 1 + jitter_us(
                        faults.seed,
                        fault_salt(self.id, dst, seq, SALT_DELAY_AMT),
                        span,
                    );
                    // Still ≥ the published promise (which lower-bounds the
                    // *undelayed* arrival), so the conservative clock holds.
                    arrival_us += quanta * quantum;
                    e.delayed += 1;
                    fault_events.push(self.fault_event(
                        send_us,
                        payload.session(),
                        FleetEvent::FabricDelayed { src: self.id, dst, seq, quanta: quanta as u32 },
                    ));
                }
                if faults.roll(fault_salt(self.id, dst, seq, SALT_DUP), faults.dup_per_mille) {
                    let dup_seq = e.next_seq;
                    e.next_seq += 1;
                    e.sent += 1;
                    e.duplicated += 1;
                    e.mail.push(FabricEnvelope {
                        arrival_us: arrival_us + quantum,
                        src: self.id,
                        seq: dup_seq,
                        payload: payload.clone(),
                    });
                    fault_events.push(self.fault_event(
                        send_us,
                        payload.session(),
                        FleetEvent::FabricDuplicated { src: self.id, dst, seq },
                    ));
                }
            }
            e.mail.push(FabricEnvelope { arrival_us, src: self.id, seq, payload });
            progressed = true;
        }
        let mut promise = if lb > self.budget_us { u64::MAX } else { fabric.arrival_of(lb) };
        if fabric.fastpath {
            // Publish this endpoint's raw event horizon, then lift the
            // promise to the global bound when it clears the quantum-step
            // one — "no future sends" collapses the idle null-message walk
            // into a single jump. Scheduling-only: fingerprints are
            // asserted identical with the fast path on or off.
            st.local_bound.insert(self.id, next_ev.min(next_staged));
            let gvt = st.gvt();
            let gvt_promise = if gvt > self.budget_us { u64::MAX } else { fabric.arrival_of(gvt) };
            promise = promise.max(gvt_promise);
        }
        for &dst in &self.outbound {
            let e = st.edges.get_mut(&(self.id, dst)).expect("active outbound edge");
            if promise > e.promise_us {
                // Null-message suppression: each distinct promise value is
                // dropped at most once per edge, so the periodic re-flush
                // always lands the second attempt — slowed, never stopped.
                if promise != u64::MAX
                    && faults.null_drop_per_mille > 0
                    && faults.armed_at(promise)
                    && promise != e.last_dropped_promise
                    && faults.roll(
                        fault_salt(self.id, dst, promise, SALT_NULL),
                        faults.null_drop_per_mille,
                    )
                {
                    e.last_dropped_promise = promise;
                    e.nulls_dropped += 1;
                    continue;
                }
                e.promise_us = promise;
                st.promise_updates += 1;
                progressed = true;
            }
        }
        drop(st);
        // Emitted outside the fabric lock; ring order stays deterministic
        // because `run_to` never splits same-instant sim events across a
        // flush, so every fault event lands after all sim events at its
        // send instant regardless of how many flushes the wall clock saw.
        for ev in fault_events {
            self.bus.emit(ev);
        }
        if progressed {
            fabric.cv.notify_all();
        }
        progressed
    }

    /// A fault event stamped at the faulted message's virtual send instant,
    /// attributed to the fabric relay.
    fn fault_event(&self, send_us: u64, session: u64, ev: FleetEvent) -> Event {
        Event {
            at: SimTime::from_micros(send_us),
            actor: self.relay_id.index() as u32,
            session,
            shard: 0,
            payload: Payload::Fleet(ev),
        }
    }
}

// ---------------------------------------------------------------------------
// Distillation
// ---------------------------------------------------------------------------

/// Per-shard slice of a [`ShardReport`].
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard tag (region index + 1; the global tier is `regions + 1`).
    pub shard: u32,
    /// True for the global (straddler) tier.
    pub is_global: bool,
    /// Sessions owned by this shard.
    pub sessions: usize,
    /// Sessions that reached a terminal result here.
    pub completed: usize,
    /// Events this shard contributed to the merged stream.
    pub events: usize,
    /// Messages its simulator delivered.
    pub delivered: u64,
    /// Times its control plane was rebuilt from the journal.
    pub restores: u64,
    /// Plan-cache hits in its final control-plane incarnation.
    pub cache_hits: u64,
    /// Plan-cache misses in its final control-plane incarnation.
    pub cache_misses: u64,
}

/// Plain-data result a worker thread ships back for one endpoint.
struct EndpointOutcome {
    id: u32,
    shard_tag: u32,
    is_global: bool,
    events: Vec<Event>,
    journal_text: String,
    global_journal_text: String,
    results: Vec<SessionResult>,
    config: Vec<(u32, bool)>,
    intervals: Vec<(u64, Option<u64>)>,
    restores: u64,
    stats: NetStats,
    cache: PlanCacheStats,
    shed: u64,
    rejected: u64,
    breaker_trips: u64,
    scope_breaker_trips: u64,
    suppressed_sends: u64,
    breaker_open_us: Vec<(u32, u64)>,
    retransmits: u64,
    abandoned: u64,
    orphaned_releases: u64,
    lease_reclaims: u64,
    lease_expirations: u64,
    /// Lock-table + foreign-hold residue at quiescence (leak detector).
    residual_holds: u64,
}

fn distill_endpoint(ep: Endpoint) -> EndpointOutcome {
    let events = ep.ring.borrow().events();
    let (ctl, wrapper_submitted, wrapper_cancelled, global_journal_text, fabric_counters) =
        if ep.is_global {
            let g = ep.sim.actor::<GlobalControl>(ep.control_id).expect("global control present");
            (
                &g.inner,
                Some(&g.submitted_at),
                Some(&g.cancelled_at),
                encode_global_journal(&g.global_journal),
                (g.retransmits, g.abandoned, g.orphaned_releases, 0, 0, 0),
            )
        } else {
            let r = ep.sim.actor::<RegionControl>(ep.control_id).expect("region control present");
            (
                &r.inner,
                None,
                None,
                String::new(),
                (0, 0, 0, r.lease_reclaims, r.lease_expirations, r.foreign.len() as u64),
            )
        };
    let mut ids = ep.sessions.clone();
    ids.sort_unstable();
    let results: Vec<SessionResult> = ids
        .iter()
        .map(|&id| {
            let outcome = ctl.results.get(&id);
            let mut r = SessionResult {
                id,
                submitted_at: ctl.submitted_at.get(&id).map(|t| t.as_micros()),
                admitted_at: ctl.admitted_at.get(&id).map(|t| t.as_micros()),
                completed_at: ctl.completed_at.get(&id).map(|t| t.as_micros()),
                success: outcome.is_some_and(|o| o.success),
                gave_up: outcome.is_some_and(|o| o.gave_up),
                cancelled: outcome
                    .is_some_and(|o| o.warnings.iter().any(|w| w.contains("cancelled"))),
                shed: outcome.is_some_and(|o| o.warnings.iter().any(|w| w.contains("shed"))),
                admission: ctl.admissions.get(&id).copied(),
            };
            // Straddlers: submission happens at the wrapper (the inner spec
            // carries a sentinel), and a pre-submission withdrawal never
            // reaches the inner plane at all.
            if let Some(subs) = wrapper_submitted {
                if let Some(&t) = subs.get(&id) {
                    r.submitted_at = Some(r.submitted_at.map_or(t, |x| x.min(t)));
                }
            }
            if let Some(cans) = wrapper_cancelled {
                if let (Some(&t), None) = (cans.get(&id), r.completed_at) {
                    r.cancelled = true;
                    r.completed_at = Some(t);
                }
            }
            r
        })
        .collect();
    let config: Vec<(u32, bool)> = ep
        .owned_comps
        .iter()
        .map(|&c| (c, ctl.fleet_config.contains(CompId::from_index(c as usize))))
        .collect();
    let intervals: Vec<(u64, Option<u64>)> = ctl
        .admitted_at
        .iter()
        .map(|(id, at)| (at.as_micros(), ctl.completed_at.get(id).map(|t| t.as_micros())))
        .collect();
    EndpointOutcome {
        id: ep.id,
        shard_tag: ep.shard_tag,
        is_global: ep.is_global,
        events,
        journal_text: if ep.render_journal {
            encode_session_journal(&ctl.journal)
        } else {
            String::new()
        },
        global_journal_text,
        results,
        config,
        intervals,
        restores: ctl.restores,
        stats: ep.sim.stats(),
        cache: ctl.cache_stats(),
        shed: ctl.shed_count,
        rejected: ctl.rejected_count,
        breaker_trips: ctl.guard().trips(),
        scope_breaker_trips: ctl.scope_breaker_trips,
        suppressed_sends: ctl.guard().suppressed(),
        breaker_open_us: ctl.guard().breaker_open_us(ep.sim.now()),
        retransmits: fabric_counters.0,
        abandoned: fabric_counters.1,
        orphaned_releases: fabric_counters.2,
        lease_reclaims: fabric_counters.3,
        lease_expirations: fabric_counters.4,
        residual_holds: fabric_counters.5 + ctl.lock_holder_count() as u64,
    }
}

fn run_worker(
    scn: &FleetScenario,
    regions: usize,
    budget_us: u64,
    plans: Vec<EndpointPlan>,
    fabric: &Fabric,
) -> Vec<EndpointOutcome> {
    let mut eps: Vec<Endpoint> =
        plans.into_iter().map(|p| build_endpoint(scn, regions, budget_us, p)).collect();
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for ep in &mut eps {
            if ep.done {
                continue;
            }
            while ep.step(fabric) {
                progressed = true;
            }
            all_done &= ep.done;
        }
        if all_done {
            break;
        }
        if !progressed {
            // Blocked on a peer's virtual clock: park until a promise or
            // message lands (timeout only as a lost-wakeup safety net).
            let st = fabric.state.lock().unwrap();
            let _ = fabric
                .cv
                .wait_timeout(st, std::time::Duration::from_millis(1))
                .expect("fabric lock poisoned");
        }
    }
    eps.into_iter().map(distill_endpoint).collect()
}

// ---------------------------------------------------------------------------
// Report and driver
// ---------------------------------------------------------------------------

/// Everything a sharded fleet run produced.
pub struct ShardReport {
    /// Per-session results across all shards, ascending by session id.
    pub results: Vec<SessionResult>,
    /// The fleet configuration merged from the regions' authoritative
    /// per-group values, as a bit string.
    pub final_config: String,
    /// The deterministically merged event stream: ordered by `(virtual
    /// time, shard, intra-shard order)`, every event stamped with its shard.
    pub events: Vec<Event>,
    /// FNV-1a fingerprint of the merged stream (shard tags included) —
    /// bit-for-bit identical across worker-thread counts.
    pub fingerprint: u64,
    /// Per-shard write-ahead journals `(shard tag, text)`.
    pub journals: Vec<(u32, String)>,
    /// The global tier's write-ahead journal (empty without straddlers) —
    /// the durable record every crash/restore replays.
    pub global_journal: String,
    /// Per-shard statistics, region order then the global tier.
    pub per_shard: Vec<ShardStats>,
    /// Cross-shard traffic counters.
    pub fabric: FabricStats,
    /// Control-plane restores summed over shards.
    pub restores: u64,
    /// Network counters summed over every endpoint's simulator.
    pub stats: NetStats,
    /// Plan-cache counters summed over every shard's final control-plane
    /// incarnation (crash faults reset the volatile cache with its
    /// counters).
    pub cache: PlanCacheStats,
    /// Peak simultaneously admitted sessions across the whole fleet.
    pub max_concurrent: usize,
    /// First submission → last completion, virtual μs, across shards.
    pub makespan_us: u64,
    /// Sessions shed by bulkhead admission control (all shards).
    pub shed: u64,
    /// Sessions rejected behind open breakers (all shards).
    pub rejected: u64,
    /// Circuit-breaker trips (all shards).
    pub breaker_trips: u64,
    /// Per-scope breaker trips — a flapping collaborative set, not an
    /// agent (all shards).
    pub scope_breaker_trips: u64,
    /// Protocol sends suppressed by open breakers (all shards).
    pub suppressed_sends: u64,
    /// Cumulative open time per tripped agent, `(agent, μs)`, ascending by
    /// agent and summed over the control planes that tripped it.
    pub breaker_open_us: Vec<(u32, u64)>,
    /// Fabric retransmissions the global tier's ladder issued.
    pub retransmits: u64,
    /// Straddlers abandoned after the ladder exhausted against a region.
    pub abandoned: u64,
    /// Releases given up past the lease horizon (region presumed dead).
    pub orphaned_releases: u64,
    /// Region leases evicted from a dead global incarnation (all regions).
    pub lease_reclaims: u64,
    /// Foreign holds garbage-collected after a silent lease horizon (all
    /// regions) — each one a lock-table entry that PR 8 would have leaked.
    pub lease_expirations: u64,
    /// Lock-table + foreign-hold residue at quiescence, summed over all
    /// control planes. Zero after any run whose sessions all terminated:
    /// every grant was released, cancelled, or lease-expired.
    pub residual_holds: u64,
    /// Wall-clock duration of the parallel run.
    pub wall: std::time::Duration,
}

impl ShardReport {
    /// The result row for session `id`.
    pub fn session(&self, id: u64) -> Option<&SessionResult> {
        self.results.iter().find(|r| r.id == id)
    }

    /// Sessions that committed their adaptation.
    pub fn succeeded(&self) -> usize {
        self.results.iter().filter(|r| r.success).count()
    }
}

/// FNV-1a fingerprint over the encoded event stream, shard tags included —
/// the bit-for-bit identity compared across worker-thread counts.
pub fn fingerprint_events(events: &[Event]) -> u64 {
    let mut h = FNV_BASIS;
    let mut line = String::with_capacity(128);
    for ev in events {
        line.clear();
        encode_event_into(&mut line, ev);
        line.push('\n');
        h = fnv1a(h, line.as_bytes());
    }
    h
}

/// Runs `scenario` sharded across `threads` worker threads and reports.
///
/// Thread count is pure execution policy: any value produces bit-for-bit
/// identical results, journals, and event streams for a fixed scenario.
///
/// # Panics
///
/// Panics on `threads == 0`, a region count outside `1..=groups`, an
/// out-of-range `crash_region`, and — with more than one region — a
/// non-empty simnet fault plan (it addresses one simulator's actor ids) or
/// the serial baseline (one lock domain by definition).
pub fn run_fleet_sharded(scenario: &ShardScenario, threads: usize) -> ShardReport {
    let fleet = &scenario.fleet;
    let regions = scenario.regions;
    assert!(threads >= 1, "at least one worker thread");
    assert!(regions >= 1 && regions <= fleet.groups.max(1), "1 ≤ regions ≤ groups");
    assert!(
        regions == 1 || fleet.faults.is_empty(),
        "a simnet fault plan addresses one simulator: only with one region"
    );
    assert!(regions == 1 || !fleet.serialize, "the serial baseline is one lock domain");
    if let Some((r, _, _)) = scenario.crash_region {
        assert!(r < regions, "crash_region out of range");
    }
    let budget_us = fleet.time_budget.as_micros();
    let quantum_us = fleet.link_latency.as_micros().max(1);

    // Partition the workload by the fixed region map.
    let world = fleet.build_world();
    let mut per_region: Vec<Vec<SessionSpec>> = vec![Vec::new(); regions];
    let mut straddlers: Vec<(SessionSpec, Vec<usize>)> = Vec::new();
    for spec in &fleet.sessions {
        let mut rs: Vec<usize> = spec.flips.iter().map(|&(g, _)| scenario.region_of(g)).collect();
        rs.sort_unstable();
        rs.dedup();
        if rs.len() <= 1 {
            per_region[rs.first().copied().unwrap_or(0)].push(spec.clone());
        } else {
            straddlers.push((spec.clone(), rs));
        }
    }
    let involved: Vec<u32> = straddlers
        .iter()
        .flat_map(|(_, rs)| rs.iter().map(|&r| r as u32))
        .collect::<BTreeSet<u32>>()
        .into_iter()
        .collect();
    let global_ep = regions as u32;

    let mut plans: Vec<EndpointPlan> = (0..regions)
        .map(|r| {
            let active = involved.contains(&(r as u32));
            EndpointPlan {
                id: r as u32,
                world: None,
                specs: per_region[r].clone(),
                straddlers: Vec::new(),
                inbound: if active { vec![global_ep] } else { Vec::new() },
                outbound: if active { vec![global_ep] } else { Vec::new() },
                owned_groups: (0..fleet.groups).filter(|&g| scenario.region_of(g) == r).collect(),
                crash: scenario.crash_region.and_then(|(cr, a, b)| (cr == r).then_some((a, b))),
                is_global: false,
            }
        })
        .collect();
    if !straddlers.is_empty() {
        // The inner scenario carries beyond-budget submission sentinels:
        // the wrapper owns the pre-submission lifecycle and submits only
        // once every region slice is held.
        let specs: Vec<SessionSpec> = straddlers
            .iter()
            .map(|(s, _)| SessionSpec {
                submit_at: SimDuration::from_micros(2 * budget_us + s.submit_at.as_micros()),
                ..s.clone()
            })
            .collect();
        let plan_straddlers: Vec<StraddlerPlan> = straddlers
            .iter()
            .map(|(s, rs)| StraddlerPlan {
                sid: s.id,
                priority: s.priority,
                submit_at: s.submit_at,
                cancel_at: s.cancel_at,
                slices: rs
                    .iter()
                    .map(|&r| {
                        let flips_r: Vec<(usize, bool)> = s
                            .flips
                            .iter()
                            .copied()
                            .filter(|&(g, _)| scenario.region_of(g) == r)
                            .collect();
                        let comps = world.scope_comps(&flips_r);
                        Slice {
                            region: r as u32,
                            resources: world.resources_for(&comps),
                            comps: comps.iter().map(|c| c.index() as u32).collect(),
                        }
                    })
                    .collect(),
            })
            .collect();
        plans.push(EndpointPlan {
            id: global_ep,
            world: None,
            specs,
            straddlers: plan_straddlers,
            inbound: involved.clone(),
            outbound: involved.clone(),
            owned_groups: Vec::new(),
            crash: scenario.crash_global,
            is_global: true,
        });
    }

    // Hand the compiled world to endpoint 0 instead of compiling it again.
    let initial_config = world.initial_config();
    plans[0].world = Some(world);

    let fabric = Arc::new(Fabric::new(
        &involved,
        global_ep,
        quantum_us,
        scenario.fabric_faults.clone(),
        scenario.promise_fastpath,
    ));
    let started = Instant::now();
    let mut outcomes: Vec<EndpointOutcome> = Vec::new();
    std::thread::scope(|scope| {
        let mut per_worker: Vec<Vec<EndpointPlan>> = (0..threads).map(|_| Vec::new()).collect();
        for p in plans {
            per_worker[p.id as usize % threads].push(p);
        }
        // Worker 0 (it owns endpoint 0, so it always has work) runs on the
        // calling thread: a one-thread run spawns nothing.
        let mut workers = per_worker.into_iter().filter(|m| !m.is_empty());
        let first = workers.next().expect("worker 0 owns endpoint 0");
        let handles: Vec<_> = workers
            .map(|mine| {
                let fabric = Arc::clone(&fabric);
                scope.spawn(move || run_worker(fleet, regions, budget_us, mine, &fabric))
            })
            .collect();
        outcomes.extend(run_worker(fleet, regions, budget_us, first, &fabric));
        for h in handles {
            outcomes.extend(h.join().expect("shard worker panicked"));
        }
    });
    let wall = started.elapsed();
    outcomes.sort_by_key(|o| o.id);

    // Deterministic event merge: (virtual time, shard, intra-shard order).
    let total_events: usize = outcomes.iter().map(|o| o.events.len()).sum();
    let mut keys: Vec<(u64, u32, usize)> = Vec::with_capacity(total_events);
    for (ox, o) in outcomes.iter().enumerate() {
        for (ix, e) in o.events.iter().enumerate() {
            keys.push((e.at.as_micros(), ox as u32, ix));
        }
    }
    keys.sort_unstable();
    let mut events: Vec<Event> = Vec::with_capacity(total_events);
    events.extend(keys.iter().map(|&(_, ox, ix)| outcomes[ox as usize].events[ix].clone()));
    let fingerprint = fingerprint_events(&events);

    // Regions are authoritative for their groups' component values (global
    // completions flowed back via `LockRelease`).
    let mut cfg = initial_config;
    for o in &outcomes {
        for &(c, present) in &o.config {
            if present {
                cfg.insert(CompId::from_index(c as usize));
            } else {
                cfg.remove(CompId::from_index(c as usize));
            }
        }
    }

    let mut results: Vec<SessionResult> = outcomes.iter().flat_map(|o| o.results.clone()).collect();
    results.sort_by_key(|r| r.id);
    let first_submit = results.iter().filter_map(|r| r.submitted_at).min();
    let last_complete = results.iter().filter_map(|r| r.completed_at).max();
    let makespan_us = match (first_submit, last_complete) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => 0,
    };
    let intervals: Vec<(u64, Option<u64>)> =
        outcomes.iter().flat_map(|o| o.intervals.iter().copied()).collect();

    let per_shard: Vec<ShardStats> = outcomes
        .iter()
        .map(|o| ShardStats {
            shard: o.shard_tag,
            is_global: o.is_global,
            sessions: o.results.len(),
            completed: o.results.iter().filter(|r| r.completed_at.is_some()).count(),
            events: o.events.len(),
            delivered: o.stats.delivered,
            restores: o.restores,
            cache_hits: o.cache.hits,
            cache_misses: o.cache.misses,
        })
        .collect();

    let fabric_stats = {
        let st = fabric.state.lock().unwrap();
        let mut per_edge: Vec<(u32, u32, u64)> =
            st.edges.iter().map(|(&(s, d), e)| (s + 1, d + 1, e.sent)).collect();
        per_edge.sort_unstable();
        FabricStats {
            messages: per_edge.iter().map(|&(_, _, n)| n).sum(),
            per_edge,
            promise_updates: st.promise_updates,
            dropped: st.edges.values().map(|e| e.dropped).sum(),
            duplicated: st.edges.values().map(|e| e.duplicated).sum(),
            delayed: st.edges.values().map(|e| e.delayed).sum(),
            nulls_dropped: st.edges.values().map(|e| e.nulls_dropped).sum(),
        }
    };

    let mut stats = NetStats::default();
    let mut cache = PlanCacheStats::default();
    let mut open_us: BTreeMap<u32, u64> = BTreeMap::new();
    for o in &outcomes {
        stats += o.stats;
        cache += o.cache;
        for &(agent, us) in &o.breaker_open_us {
            *open_us.entry(agent).or_default() += us;
        }
    }

    ShardReport {
        final_config: cfg.to_bit_string(),
        fingerprint,
        journals: outcomes.iter().map(|o| (o.shard_tag, o.journal_text.clone())).collect(),
        global_journal: outcomes
            .iter()
            .find(|o| o.is_global)
            .map(|o| o.global_journal_text.clone())
            .unwrap_or_default(),
        restores: outcomes.iter().map(|o| o.restores).sum(),
        stats,
        cache,
        max_concurrent: max_concurrent(intervals),
        makespan_us,
        shed: outcomes.iter().map(|o| o.shed).sum(),
        rejected: outcomes.iter().map(|o| o.rejected).sum(),
        breaker_trips: outcomes.iter().map(|o| o.breaker_trips).sum(),
        scope_breaker_trips: outcomes.iter().map(|o| o.scope_breaker_trips).sum(),
        suppressed_sends: outcomes.iter().map(|o| o.suppressed_sends).sum(),
        breaker_open_us: open_us.into_iter().collect(),
        retransmits: outcomes.iter().map(|o| o.retransmits).sum(),
        abandoned: outcomes.iter().map(|o| o.abandoned).sum(),
        orphaned_releases: outcomes.iter().map(|o| o.orphaned_releases).sum(),
        lease_reclaims: outcomes.iter().map(|o| o.lease_reclaims).sum(),
        lease_expirations: outcomes.iter().map(|o| o.lease_expirations).sum(),
        residual_holds: outcomes.iter().map(|o| o.residual_holds).sum(),
        per_shard,
        fabric: fabric_stats,
        results,
        events,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{disjoint_wave, run_fleet};

    #[test]
    fn disjoint_wave_shards_and_matches_unsharded_config() {
        let fleet = FleetScenario::new(8, disjoint_wave(8, 1));
        let unsharded = run_fleet(&fleet);
        let scn = ShardScenario::new(fleet, 4);
        let report = run_fleet_sharded(&scn, 2);
        assert_eq!(report.succeeded(), 8, "results: {:?}", report.results);
        assert_eq!(report.final_config, unsharded.final_config);
        assert_eq!(report.fabric.messages, 0, "disjoint waves never cross the fabric");
        assert_eq!(report.per_shard.len(), 4, "no straddlers ⇒ no global tier");
    }

    #[test]
    fn thread_count_is_invisible() {
        let mut fleet = FleetScenario::new(8, disjoint_wave(8, 1));
        // A straddler across regions 0|1 exercises the fabric too.
        fleet.sessions.push(SessionSpec {
            id: 100,
            flips: vec![(1, true), (2, true)],
            priority: 1,
            submit_at: SimDuration::from_millis(2),
            cancel_at: None,
        });
        let scn = ShardScenario::new(fleet, 4);
        let a = run_fleet_sharded(&scn, 1);
        let b = run_fleet_sharded(&scn, 4);
        assert_eq!(a.fingerprint, b.fingerprint, "event streams must be bit-for-bit identical");
        assert_eq!(a.final_config, b.final_config);
        assert_eq!(a.journals, b.journals);
        assert_eq!(a.results, b.results);
    }

    #[test]
    #[should_panic(expected = "only with one region")]
    fn simnet_faults_are_rejected_with_several_regions() {
        let mut fleet = FleetScenario::new(4, disjoint_wave(4, 1));
        fleet.faults =
            sada_simnet::FaultPlan::new().crash(ActorId::from_index(0), SimTime::from_millis(2));
        run_fleet_sharded(&ShardScenario::new(fleet, 2), 1);
    }

    #[test]
    #[should_panic(expected = "one lock domain")]
    fn serial_baseline_is_rejected_with_several_regions() {
        let mut fleet = FleetScenario::new(4, disjoint_wave(4, 1));
        fleet.serialize = true;
        run_fleet_sharded(&ShardScenario::new(fleet, 2), 1);
    }

    #[test]
    fn straddling_session_escalates_and_commits() {
        // Groups 0..4 over 2 regions; session 9 straddles groups 1 and 2
        // (regions 0 and 1) while local sessions churn the same regions.
        let mut sessions = disjoint_wave(4, 1);
        sessions.push(SessionSpec {
            id: 9,
            flips: vec![(1, true), (2, true)],
            priority: 0,
            submit_at: SimDuration::from_millis(5),
            cancel_at: None,
        });
        let fleet = FleetScenario::new(4, sessions);
        let report = run_fleet_sharded(&ShardScenario::new(fleet, 2), 2);
        assert_eq!(report.succeeded(), 5, "results: {:?}", report.results);
        assert_eq!(report.final_config, "10101010");
        assert!(report.fabric.messages >= 4, "request/grant per slice + releases crossed");
        let global = report.per_shard.iter().find(|s| s.is_global).expect("global tier present");
        assert_eq!(global.sessions, 1);
        assert_eq!(global.completed, 1);
    }

    #[test]
    fn straddler_cancelled_before_grants_releases_slices() {
        // One long-running local session holds region 0's scope; the
        // straddler queues behind it and withdraws before the grant lands.
        let sessions = vec![
            SessionSpec {
                id: 1,
                flips: vec![(0, true)],
                priority: 0,
                submit_at: SimDuration::ZERO,
                cancel_at: None,
            },
            SessionSpec {
                id: 2,
                flips: vec![(0, false), (3, true)],
                priority: 0,
                submit_at: SimDuration::from_millis(1),
                cancel_at: Some(SimDuration::from_millis(4)),
            },
        ];
        let fleet = FleetScenario::new(4, sessions);
        let report = run_fleet_sharded(&ShardScenario::new(fleet, 2), 2);
        let s2 = report.session(2).expect("straddler reported");
        assert!(s2.cancelled && !s2.success, "results: {:?}", report.results);
        assert!(report.session(1).unwrap().success);
        // The withdrawn straddler's slices were released: group 0 moved by
        // session 1 only, group 3 stayed Old.
        assert_eq!(report.final_config, "01010110");
    }

    /// A fleet with straddlers across both regions — the fabric-exercising
    /// workload the fault tests below run lossy and lossless.
    fn straddling_fleet() -> FleetScenario {
        let mut sessions = disjoint_wave(4, 1);
        sessions.push(SessionSpec {
            id: 9,
            flips: vec![(1, true), (2, true)],
            priority: 0,
            submit_at: SimDuration::from_millis(5),
            cancel_at: None,
        });
        sessions.push(SessionSpec {
            id: 10,
            flips: vec![(0, true), (3, false)],
            priority: 1,
            submit_at: SimDuration::from_millis(9),
            cancel_at: None,
        });
        FleetScenario::new(4, sessions)
    }

    fn chaotic_faults(seed: u64) -> FabricFaultPlan {
        FabricFaultPlan {
            seed,
            drop_per_mille: 250,
            dup_per_mille: 250,
            delay_per_mille: 250,
            max_delay_quanta: 4,
            null_drop_per_mille: 100,
            ..FabricFaultPlan::default()
        }
    }

    #[test]
    fn fabric_codec_round_trips() {
        let msgs = vec![
            FabricPayload::LockRequest {
                session: 9,
                resources: vec![3, 7],
                comps: vec![2, 3],
                priority: 1,
                epoch: 2,
            },
            FabricPayload::LockRequest {
                session: 1,
                resources: Vec::new(),
                comps: Vec::new(),
                priority: 0,
                epoch: 0,
            },
            FabricPayload::LockGranted {
                session: 9,
                region: 1,
                epoch: 2,
                values: vec![(2, true), (3, false)],
            },
            FabricPayload::LockRelease { session: 9, epoch: 2, values: Vec::new() },
            FabricPayload::ReleaseAck { session: 9, region: 1, epoch: 2 },
        ];
        for msg in msgs {
            let line = encode_fabric_msg(&msg);
            let back = parse_fabric_msg(&line).unwrap_or_else(|e| panic!("{e}\nline: {line}"));
            assert_eq!(back, msg, "line: {line}");
        }
        assert!(parse_fabric_msg("lock_request session=1").is_err(), "missing fields rejected");
        assert!(parse_fabric_msg("bogus x=1").is_err(), "unknown verb rejected");
    }

    #[test]
    fn lossy_fabric_converges_to_lossless_outcomes() {
        let lossless = run_fleet_sharded(&ShardScenario::new(straddling_fleet(), 2), 2);
        let mut scn = ShardScenario::new(straddling_fleet(), 2);
        scn.fabric_faults = chaotic_faults(7);
        let lossy = run_fleet_sharded(&scn, 2);
        assert!(
            lossy.fabric.dropped + lossy.fabric.duplicated + lossy.fabric.delayed > 0,
            "the chaos plan must actually bite: {:?}",
            lossy.fabric
        );
        assert_eq!(lossy.final_config, lossless.final_config);
        assert_eq!(lossy.succeeded(), lossless.succeeded(), "results: {:?}", lossy.results);
        for (a, b) in lossy.results.iter().zip(&lossless.results) {
            assert_eq!((a.id, a.success, a.gave_up), (b.id, b.success, b.gave_up));
        }
    }

    #[test]
    fn lossy_fabric_is_thread_invariant() {
        let mut scn = ShardScenario::new(straddling_fleet(), 2);
        scn.fabric_faults = chaotic_faults(11);
        let a = run_fleet_sharded(&scn, 1);
        let b = run_fleet_sharded(&scn, 3);
        assert_eq!(a.fingerprint, b.fingerprint, "lossy runs must stay bit-for-bit identical");
        assert_eq!(a.journals, b.journals);
        assert_eq!(a.global_journal, b.global_journal);
        assert_eq!(a.results, b.results);
        assert_eq!(
            (a.fabric.dropped, a.fabric.duplicated, a.fabric.delayed),
            (b.fabric.dropped, b.fabric.duplicated, b.fabric.delayed),
            "fault decisions are scenario, not scheduling"
        );
    }

    #[test]
    fn promise_fastpath_is_invisible() {
        let mut scn = ShardScenario::new(straddling_fleet(), 2);
        scn.promise_fastpath = false;
        let slow = run_fleet_sharded(&scn, 2);
        scn.promise_fastpath = true;
        let fast = run_fleet_sharded(&scn, 2);
        assert_eq!(slow.fingerprint, fast.fingerprint, "the fast path is scheduling-only");
        assert_eq!(slow.results, fast.results);
        assert_eq!(slow.journals, fast.journals);
        assert_eq!(slow.final_config, fast.final_config);
    }

    #[test]
    fn global_crash_mid_handshake_recovers_straddlers() {
        // Crash the global tier right as session 9's slice chain is being
        // acquired; the journal-driven restore re-drives it under a bumped
        // incarnation and the regions reclaim their old-epoch leases.
        let baseline = run_fleet_sharded(&ShardScenario::new(straddling_fleet(), 2), 2);
        let mut scn = ShardScenario::new(straddling_fleet(), 2);
        scn.crash_global = Some((SimTime::from_micros(5_500), SimTime::from_micros(12_000)));
        let report = run_fleet_sharded(&scn, 2);
        assert_eq!(report.succeeded(), baseline.succeeded(), "results: {:?}", report.results);
        assert_eq!(report.final_config, baseline.final_config);
        assert!(report.restores >= 1, "the global tier restored from its journal");
        assert!(
            !report.global_journal.is_empty(),
            "escalations are journaled ahead of the fabric traffic"
        );
        // Determinism holds across the crash too.
        let again = run_fleet_sharded(&scn, 4);
        assert_eq!(report.fingerprint, again.fingerprint);
        assert_eq!(report.global_journal, again.global_journal);
    }

    #[test]
    fn no_admitted_session_ends_without_a_journaled_outcome() {
        let mut scn = ShardScenario::new(straddling_fleet(), 2);
        scn.fabric_faults = chaotic_faults(3);
        scn.crash_global = Some((SimTime::from_micros(6_000), SimTime::from_micros(14_000)));
        let report = run_fleet_sharded(&scn, 2);
        for r in &report.results {
            assert!(
                r.completed_at.is_some() || r.cancelled,
                "session {} vanished without a terminal verdict: {:?}",
                r.id,
                report.results
            );
        }
    }
}
