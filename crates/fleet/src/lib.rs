//! # sada-fleet — the adaptation control plane
//!
//! The DSN 2004 protocol crates drive **one** adaptation at a time: a
//! manager, its agents, one plan, one journal. Real fleets adapt many
//! component groups continuously, so this crate adds the missing layer — a
//! control plane that admits *concurrent* adaptation sessions safely:
//!
//! * [`FleetWorld`] — a parameterized world of independent component
//!   clusters, each its own collaborative set (paper Section 7), hosted
//!   across agent processes so steps run real barriers. Compiled from a
//!   declarative [`WorldSpec`] — the paper's video clone, the serverless
//!   codec fleet, and the IaaS-migration domain (with an energy-cost
//!   [`Objective`]) are all instances of the same shape. A `FleetWorld`
//!   is a cheap `Send + Sync` handle to one immutable compiled world, so a
//!   run compiles it once and every endpoint and worker thread shares it.
//! * [`ScopeLockManager`] — atomic all-or-nothing scope locks with
//!   priority/FIFO queueing: deadlock-free by construction (no
//!   hold-and-wait), starvation-free via shadow-set grant scans.
//! * [`ScopedLazyPlanner`] — per-session lazy planning restricted to the
//!   session's collaborative-set scope; deterministic, so post-crash
//!   journal replay re-derives identical plans.
//! * [`PlanCache`] — a fleet-wide LRU of scope-*normalized* planning
//!   instances: sessions over disjoint-but-isomorphic scopes share plans
//!   (relabeled onto local component ids), with hit/miss/evict counters on
//!   the event bus. Volatile by design — a restored control plane starts
//!   cold, keeping cached answers subordinate to the durable journal.
//! * [`ControlActor`] — the control plane itself: one embedded
//!   [`ManagerCore`](sada_proto::ManagerCore) per admitted session,
//!   multiplexed over a shared wire by [`SessionId`](sada_proto::SessionId)
//!   stamps, with a session-tagged write-ahead journal that restores every
//!   in-flight *and* queued session after a crash.
//! * [`run_fleet`] — the flat driver: the one-region, one-thread case of
//!   [`run_fleet_sharded`], with simnet fault schedules and the serial
//!   baseline (both one-simulator features).
//! * [`FleetResilience`] — overload protection for the control plane:
//!   per-agent circuit breakers, bulkhead admission bounds with
//!   deterministic shedding, and fail-fast rejection of sessions scoped
//!   behind an open breaker.
//! * [`run_overload`] — the sustained-overload experiment: Poisson
//!   arrivals at multiples of the calibrated capacity
//!   ([`measure_capacity`]) against a degraded fleet, comparing the
//!   always-admit baseline with the protected configuration.
//! * [`run_fleet_sharded`] — the one fleet runtime, sharded across OS
//!   threads: per-region simulators with their own control actors, a thin
//!   global tier for scope-straddling sessions, and a deterministic
//!   cross-shard fabric (conservative virtual clocks), so thread count
//!   never changes results. Every run, flat or sharded, reports through
//!   one [`ShardReport`]: per-session latencies, peak concurrency, the
//!   merged event stream and its fingerprint, and per-shard journals.

mod cache;
mod control;
mod driver;
mod lock;
mod overload;
mod planner;
mod shard;
mod world;

pub use cache::{CacheNote, CacheNoteKind, CachedPlan, PlanCache, PlanCacheStats, ScopeNormalizer};
pub use control::{Admission, ControlActor, FleetResilience, SessionSpec};
pub use driver::{disjoint_wave, run_fleet, FleetScenario, SessionResult};
pub use lock::ScopeLockManager;
pub use overload::{measure_capacity, run_overload, OverloadConfig, OverloadReport};
pub use planner::ScopedLazyPlanner;
pub use shard::{
    encode_fabric_msg, fingerprint_events, parse_fabric_msg, run_fleet_sharded, FabricFaultPlan,
    FabricPayload, FabricStats, ShardReport, ShardScenario, ShardStats, DEFAULT_REGIONS,
};
pub use world::{
    ActionSpec, ClusterSpec, CompSpec, Domain, FleetWorld, Objective, WorldData, WorldSpec,
};
