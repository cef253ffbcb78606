//! Seeded inputs for the fleet workloads. The program under test only ever
//! sees what these functions generate.

use sada_fleet::{FabricFaultPlan, FleetScenario, SessionSpec, ShardScenario};
use sada_obs::{SimDuration, SimTime};
use sada_scenario::{generate, ScenarioConfig, SplitMix64, TrafficProfile};

use crate::Workload;

/// A fleet workload ready for `run_fleet_sharded`.
pub struct FleetCase {
    pub scn: ShardScenario,
    /// Worker threads of the timed runs.
    pub threads: usize,
    /// Worker threads of the cross-check run, which must reproduce the
    /// timed runs' event stream and final configuration bit for bit.
    pub check_threads: usize,
    /// No faults are injected, so every session must commit.
    pub fault_free: bool,
    /// `(endpoint, restart µs)` per crashed endpoint; endpoints are region
    /// indices, and `regions` names the global tier.
    pub restarts: Vec<(u32, u64)>,
}

// `storm`: the strided single-group storm of `bench_scale`'s 100k row.
const STORM_GROUPS: usize = 100_000;
const STORM_REGIONS: usize = 8;
const STORM_SESSION_CAP: usize = 2048;
const STORM_SPACING_US: u64 = 37;

// `wide_scope`: 10-group windows inside 128-group regions.
const WIDE_GROUPS: usize = 1024;
const WIDE_REGIONS: usize = 8;
const WIDE_SESSIONS: usize = 1024;
const WIDE_WINDOW: usize = 10;
const WIDE_GAP_US: u64 = 1_000;

// `contended`: a generated serverless universe under Poisson load with a
// fault window.
const CONTENDED_CLUSTERS: usize = 1024;
const CONTENDED_SESSIONS: usize = 16_384;
const CONTENDED_GAP_US: u64 = 500;
const CONTENDED_REGIONS: usize = 64;
const CONTENDED_STRADDLER_PCT: u64 = 15;

/// Generates the fleet workload `w` from `seed`.
pub fn fleet_case(w: Workload, seed: u64) -> FleetCase {
    match w {
        Workload::Storm => storm(seed),
        Workload::WideScope => wide_scope(seed),
        Workload::Contended => contended(seed),
        Workload::Video => unreachable!("video is not a fleet workload"),
    }
}

/// Sessions strided evenly over the whole group range, one group each, so
/// every region gets an equal slice and no two sessions conflict. At seed
/// 42 this is exactly `bench_scale`'s 100k-group row.
fn storm(seed: u64) -> FleetCase {
    let groups = STORM_GROUPS;
    let sessions = STORM_SESSION_CAP.min(2 * groups);
    let specs: Vec<SessionSpec> = (0..sessions)
        .map(|i| SessionSpec {
            id: i as u64 + 1,
            flips: vec![(i * groups / sessions, i % 2 == 0)],
            priority: (i % 4) as u8,
            submit_at: SimDuration::from_micros(STORM_SPACING_US * i as u64),
            cancel_at: None,
        })
        .collect();
    let mut fleet = FleetScenario::new(groups, specs);
    fleet.seed = seed;
    fleet.time_budget = SimDuration::from_secs(10);
    fleet.render_journal = false;
    FleetCase {
        scn: ShardScenario::new(fleet, STORM_REGIONS),
        threads: 2,
        check_threads: 1,
        fault_free: true,
        restarts: Vec::new(),
    }
}

/// Each session flips a 10-group window with seed-drawn directions, placed
/// inside one region so no session straddles. Overlapping windows queue on
/// scope locks, and plan-cache keys almost never repeat.
fn wide_scope(seed: u64) -> FleetCase {
    let mut rng = SplitMix64::new(seed ^ 0x5715_E5C0_9E00_0001);
    let per_region = WIDE_GROUPS / WIDE_REGIONS;
    let specs: Vec<SessionSpec> = (0..WIDE_SESSIONS)
        .map(|i| {
            let region = rng.below(WIDE_REGIONS as u64) as usize;
            let offset = rng.below((per_region - WIDE_WINDOW + 1) as u64) as usize;
            let start = region * per_region + offset;
            SessionSpec {
                id: i as u64 + 1,
                flips: (start..start + WIDE_WINDOW).map(|g| (g, rng.chance(50))).collect(),
                priority: rng.below(4) as u8,
                submit_at: SimDuration::from_micros(WIDE_GAP_US * i as u64),
                cancel_at: None,
            }
        })
        .collect();
    let mut fleet = FleetScenario::new(WIDE_GROUPS, specs);
    fleet.seed = seed;
    fleet.time_budget = SimDuration::from_secs(120);
    fleet.render_journal = false;
    FleetCase {
        scn: ShardScenario::new(fleet, WIDE_REGIONS),
        threads: 1,
        check_threads: 2,
        fault_free: true,
        restarts: Vec::new(),
    }
}

/// A generated serverless universe with straddling sessions. Inside one
/// seed-placed window a region's control plane and the global tier crash
/// and restart while the cross-shard fabric drops, duplicates and delays
/// messages.
fn contended(seed: u64) -> FleetCase {
    let generated = generate(&ScenarioConfig {
        clusters: CONTENDED_CLUSTERS,
        sessions: CONTENDED_SESSIONS,
        traffic: TrafficProfile::Poisson { mean_gap_us: CONTENDED_GAP_US },
        straddler_pct: CONTENDED_STRADDLER_PCT,
        ..ScenarioConfig::serverless(seed)
    });
    let mut fleet = generated.fleet();
    fleet.time_budget = SimDuration::from_secs(120);
    fleet.render_journal = false;
    let mut rng = SplitMix64::new(seed ^ 0xC0_47E4_DED0_0002);
    let window_start = 1_000_000 + rng.below(1_000_000);
    let region = rng.below(CONTENDED_REGIONS as u64) as usize;
    let region_crash = window_start + 20_000 + rng.below(20_000);
    let region_restart = region_crash + 250_000;
    let global_crash = window_start + 60_000 + rng.below(20_000);
    let global_restart = global_crash + 300_000;
    let mut scn = ShardScenario::new(fleet, CONTENDED_REGIONS);
    scn.crash_region =
        Some((region, SimTime::from_micros(region_crash), SimTime::from_micros(region_restart)));
    scn.crash_global =
        Some((SimTime::from_micros(global_crash), SimTime::from_micros(global_restart)));
    scn.fabric_faults = FabricFaultPlan {
        seed: seed ^ 0xFAB,
        drop_per_mille: 200,
        dup_per_mille: 200,
        delay_per_mille: 200,
        max_delay_quanta: 4,
        null_drop_per_mille: 100,
        window_us: Some((window_start, window_start + 1_000_000)),
    };
    FleetCase {
        scn,
        threads: 1,
        check_threads: 2,
        fault_free: false,
        restarts: vec![(region as u32, region_restart), (CONTENDED_REGIONS as u32, global_restart)],
    }
}
