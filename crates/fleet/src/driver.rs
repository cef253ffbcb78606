//! Fleet scenario description and the flat driver: [`run_fleet`] runs a
//! scenario as the one-region, one-thread case of
//! [`run_fleet_sharded`](crate::run_fleet_sharded), which distills a
//! [`ShardReport`] from the durable state plus the session-tagged event
//! stream.

use sada_proto::ProtoTiming;
use sada_simnet::{FaultPlan, SimDuration};

use crate::control::{Admission, FleetResilience, SessionSpec};
use crate::shard::{run_fleet_sharded, ShardReport, ShardScenario};
use crate::world::{FleetWorld, WorldSpec};

/// A fleet-scale experiment: the world size, the session workload, and the
/// simnet fault schedule.
#[derive(Debug, Clone)]
pub struct FleetScenario {
    /// Number of flip units — component groups in the video world, clusters
    /// in generated worlds (`world_spec.clusters.len()` when a spec is set).
    pub groups: usize,
    /// The adaptation requests to submit.
    pub sessions: Vec<SessionSpec>,
    /// Serial baseline: map every session onto one shared lock resource so
    /// nothing runs concurrently (benchmarks compare against this). One
    /// lock domain by definition, so only one-region runs accept it.
    pub serialize: bool,
    /// Simulation seed.
    pub seed: u64,
    /// Network latency on every link.
    pub link_latency: SimDuration,
    /// Virtual-time budget for the whole run.
    pub time_budget: SimDuration,
    /// Protocol timing for every session core (retry policy included).
    pub timing: ProtoTiming,
    /// Overload-protection configuration for the control plane.
    pub resilience: FleetResilience,
    /// Degraded agents: `(agent index, slowdown factor)` — every phase of
    /// that agent's work (reset, drain, act, resume, rollback) is stretched
    /// by the factor, modelling a saturated or GC-thrashing process.
    pub slow_agents: Vec<(usize, u32)>,
    /// Arbitrary simnet fault schedule (crash loops, delay bursts, drops),
    /// addressed by one simulator's actor ids — agents at `[0, processes)`,
    /// the control plane next — so only one-region runs accept it.
    /// Control-plane crash windows go through
    /// [`ShardScenario::crash_region`](crate::ShardScenario::crash_region).
    pub faults: FaultPlan,
    /// Declarative world to run instead of the hard-coded video clone.
    /// `None` keeps the classic `FleetWorld::build(groups)` video world.
    pub world_spec: Option<WorldSpec>,
    /// Render the write-ahead journal(s) to text in the report. On by
    /// default; the scale benchmarks turn it off because the text form is
    /// O(sessions × components) — hundreds of megabytes at 100k groups —
    /// while the durable journal itself (and therefore crash recovery,
    /// events, and fingerprints) is unaffected either way.
    pub render_journal: bool,
}

impl FleetScenario {
    /// A scenario with library defaults: 1 ms links, a 30 s budget, seed
    /// 42, scope-parallel admission, and no control-plane faults.
    pub fn new(groups: usize, sessions: Vec<SessionSpec>) -> Self {
        FleetScenario {
            groups,
            sessions,
            serialize: false,
            seed: 42,
            link_latency: SimDuration::from_millis(1),
            time_budget: SimDuration::from_secs(30),
            timing: ProtoTiming::default(),
            resilience: FleetResilience::default(),
            slow_agents: Vec::new(),
            faults: FaultPlan::new(),
            world_spec: None,
            render_journal: true,
        }
    }

    /// A scenario over a generated [`WorldSpec`] (library defaults
    /// otherwise); `groups` is derived from the spec's cluster count.
    pub fn with_world(spec: WorldSpec, sessions: Vec<SessionSpec>) -> Self {
        let groups = spec.clusters.len();
        let mut scn = FleetScenario::new(groups, sessions);
        scn.world_spec = Some(spec);
        scn
    }

    /// Compiles the scenario's world: the declared spec when present, the
    /// classic video clone otherwise.
    pub fn build_world(&self) -> FleetWorld {
        match &self.world_spec {
            Some(spec) => {
                assert_eq!(spec.clusters.len(), self.groups, "groups must match the spec");
                FleetWorld::from_spec(spec.clone())
            }
            None => FleetWorld::build(self.groups),
        }
    }
}

/// A wave of sessions over pairwise-disjoint group ranges: session `i`
/// (id `i+1`) flips groups `[i*span, (i+1)*span)` forward, all submitted at
/// `t=0` with equal priority — the canonical "everything can run at once"
/// workload.
pub fn disjoint_wave(sessions: usize, span: usize) -> Vec<SessionSpec> {
    (0..sessions)
        .map(|i| SessionSpec {
            id: i as u64 + 1,
            flips: (i * span..(i + 1) * span).map(|g| (g, true)).collect(),
            priority: 0,
            submit_at: SimDuration::ZERO,
            cancel_at: None,
        })
        .collect()
}

/// Per-session outcome distilled from the control plane's durable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionResult {
    /// Session id.
    pub id: u64,
    /// When the request was submitted (virtual μs), if it was.
    pub submitted_at: Option<u64>,
    /// When the session was admitted (virtual μs), if it was.
    pub admitted_at: Option<u64>,
    /// When the session finished or was cancelled (virtual μs).
    pub completed_at: Option<u64>,
    /// Protocol outcome: the adaptation committed.
    pub success: bool,
    /// Terminal give-up (Section 4.4 ladder exhausted).
    pub gave_up: bool,
    /// Withdrawn while still queued.
    pub cancelled: bool,
    /// Dropped by bulkhead admission control under overload.
    pub shed: bool,
    /// Typed admission decision the submitter got back, with the bulkhead's
    /// retry-after hint on sheds. `None` when no decision was reached
    /// (never submitted, still waiting at budget end, or withdrawn first).
    pub admission: Option<Admission>,
}

impl SessionResult {
    /// End-to-end latency (submission → completion) in virtual μs.
    pub fn latency_us(&self) -> Option<u64> {
        Some(self.completed_at?.saturating_sub(self.submitted_at?))
    }
}

/// Runs `scenario` to completion (or budget exhaustion) as one region on
/// one worker thread, and reports.
pub fn run_fleet(scenario: &FleetScenario) -> ShardReport {
    run_fleet_sharded(&ShardScenario::new(scenario.clone(), 1), 1)
}

/// Peak overlap of `[admitted, completed)` intervals; an interval without a
/// completion extends to the end. A completion at instant `t` does not
/// overlap an admission at `t`.
pub(crate) fn max_concurrent(intervals: Vec<(u64, Option<u64>)>) -> usize {
    let mut edges: Vec<(u64, i32)> = Vec::with_capacity(intervals.len() * 2);
    for (start, end) in intervals {
        edges.push((start, 1));
        edges.push((end.unwrap_or(u64::MAX), -1));
    }
    // Sort by time, completions (-1) before admissions (+1) on ties.
    edges.sort_unstable();
    let (mut cur, mut peak) = (0i32, 0i32);
    for (_, d) in edges {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_concurrent_counts_overlap_not_touch() {
        // [0,10) and [10,20) touch but never overlap; [5,15) overlaps both.
        assert_eq!(max_concurrent(vec![(0, Some(10)), (10, Some(20))]), 1);
        assert_eq!(max_concurrent(vec![(0, Some(10)), (10, Some(20)), (5, Some(15))]), 2);
        assert_eq!(max_concurrent(vec![(0, None), (1, None), (2, Some(3))]), 3);
        assert_eq!(max_concurrent(vec![]), 0);
    }

    #[test]
    fn two_disjoint_sessions_complete_and_overlap() {
        let scenario = FleetScenario::new(4, disjoint_wave(2, 2));
        let report = run_fleet(&scenario);
        assert_eq!(report.succeeded(), 2, "results: {:?}", report.results);
        assert_eq!(report.max_concurrent, 2, "disjoint scopes run side by side");
        assert_eq!(report.restores, 0);
        // All four groups moved to New (bit strings print MSB first, so
        // each group reads `10`: New set, Old clear).
        assert_eq!(report.final_config, "10101010");
        // The two sessions pose isomorphic planning problems: the first
        // fills the shared cache, the second is answered from it.
        assert_eq!((report.cache.hits, report.cache.misses), (1, 1), "{:?}", report.cache);
        let cache_events = report
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.payload,
                    sada_obs::Payload::Fleet(
                        sada_obs::FleetEvent::PlanCacheHit { .. }
                            | sada_obs::FleetEvent::PlanCacheMiss { .. }
                    )
                )
            })
            .count();
        assert_eq!(cache_events, 2, "hit and miss both reach the event stream");
    }

    #[test]
    fn serialize_mode_never_overlaps() {
        let mut scenario = FleetScenario::new(4, disjoint_wave(2, 2));
        scenario.serialize = true;
        let report = run_fleet(&scenario);
        assert_eq!(report.succeeded(), 2);
        assert_eq!(report.max_concurrent, 1, "serial baseline admits one at a time");
        assert_eq!(report.final_config, "10101010");
    }

    #[test]
    fn overlapping_sessions_queue_and_compose() {
        // Session 1 flips group 0 forward; session 2 (overlapping scope)
        // flips it back. Admission order must serialize them and the second
        // must see the first's result as its source.
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
                flips: vec![(0, false)],
                priority: 0,
                submit_at: SimDuration::from_millis(1),
                cancel_at: None,
            },
        ];
        let report = run_fleet(&FleetScenario::new(1, sessions));
        assert_eq!(report.succeeded(), 2, "results: {:?}", report.results);
        assert_eq!(report.max_concurrent, 1);
        let s1 = report.session(1).unwrap();
        let s2 = report.session(2).unwrap();
        assert!(s1.completed_at.unwrap() <= s2.admitted_at.unwrap(), "2 waits for 1");
        assert_eq!(report.final_config, "01", "flip forward then back restores Old");
    }

    #[test]
    fn queued_session_cancellation_resolves_it() {
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
                flips: vec![(0, false)],
                priority: 0,
                submit_at: SimDuration::from_millis(1),
                // The first session needs tens of virtual ms; cancel early.
                cancel_at: Some(SimDuration::from_millis(3)),
            },
        ];
        let report = run_fleet(&FleetScenario::new(1, sessions));
        let s2 = report.session(2).unwrap();
        assert!(s2.cancelled && !s2.success, "results: {:?}", report.results);
        assert!(report.session(1).unwrap().success);
        assert_eq!(report.final_config, "10", "only session 1 took effect");
    }
}
