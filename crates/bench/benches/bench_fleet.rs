//! Control-plane scheduling throughput: scope-parallel admission versus the
//! one-session-at-a-time serial baseline, across fleet sizes.
//!
//! The interesting numbers are *virtual-time* sessions/sec and latency
//! percentiles — the protocol's barrier waits dominate, and scope locking
//! is only worth its complexity if disjoint sessions genuinely overlap
//! those waits. The criterion group additionally tracks the wall-clock cost
//! of simulating a mid-size fleet (the scheduler + simulator overhead
//! itself). Besides the criterion comparison, this bench writes
//! `BENCH_fleet.json` at the repository root so the perf trajectory is
//! recorded across PRs; the write asserts the headline claims — parallel
//! throughput strictly above serial at every fleet size, and the fleet
//! plan cache serving a majority of a disjoint wave's queries (hit rate
//! above 50%) without changing the final configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use sada_fleet::{disjoint_wave, run_fleet, FleetScenario, ShardReport};

/// Sessions of two groups each, one session per two groups: fleet size
/// scales while per-session work stays fixed (two steps, four agents).
fn scenario(groups: usize, serialize: bool) -> FleetScenario {
    let mut s = FleetScenario::new(groups, disjoint_wave(groups / 2, 2));
    s.serialize = serialize;
    s
}

/// Virtual-time sessions/sec over the makespan.
fn throughput(r: &ShardReport) -> f64 {
    r.succeeded() as f64 / (r.makespan_us as f64 / 1e6)
}

/// Nearest-rank percentile of the per-session end-to-end latencies, in μs.
fn latency_pct(r: &ShardReport, pct: f64) -> u64 {
    let mut lats: Vec<u64> = r.results.iter().filter_map(|s| s.latency_us()).collect();
    lats.sort_unstable();
    assert!(!lats.is_empty());
    let rank = ((pct / 100.0 * lats.len() as f64).ceil() as usize).clamp(1, lats.len());
    lats[rank - 1]
}

fn bench_fleet_scheduling(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_control_plane");
    g.sample_size(10);
    g.bench_function("sim_20_groups_parallel", |b| {
        b.iter(|| {
            let r = run_fleet(&scenario(20, false));
            assert_eq!(r.succeeded(), 10);
            r.makespan_us
        })
    });
    g.bench_function("sim_20_groups_serial", |b| {
        b.iter(|| {
            let r = run_fleet(&scenario(20, true));
            assert_eq!(r.succeeded(), 10);
            r.makespan_us
        })
    });
    g.finish();
    write_bench_json();
}

fn write_bench_json() {
    let mut rows = String::new();
    for groups in [10usize, 50, 100] {
        let sessions = groups / 2;
        let par = run_fleet(&scenario(groups, false));
        let ser = run_fleet(&scenario(groups, true));
        assert_eq!(par.succeeded(), sessions, "parallel run at {groups} groups");
        assert_eq!(ser.succeeded(), sessions, "serial run at {groups} groups");
        let (tp, ts) = (throughput(&par), throughput(&ser));
        assert!(
            tp > ts,
            "scope-parallel throughput must beat serial at {groups} groups ({tp:.1} vs {ts:.1})"
        );
        // A disjoint wave poses one planning problem n times: the shared
        // cache must answer all but the first from memory, without
        // perturbing the outcome.
        let hit_rate = par.cache.hits as f64 / (par.cache.hits + par.cache.misses).max(1) as f64;
        assert!(
            hit_rate > 0.5,
            "plan-cache hit rate must exceed 50% on a disjoint wave at {groups} groups \
             ({:?})",
            par.cache,
        );
        assert_eq!(
            par.final_config, ser.final_config,
            "cached planning must not change the fleet outcome at {groups} groups"
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"groups\": {groups}, \"sessions\": {sessions}, \
             \"parallel\": {{\"sessions_per_sec\": {tp:.1}, \"p50_latency_us\": {}, \
             \"p99_latency_us\": {}, \"max_concurrent\": {}, \"makespan_us\": {}}}, \
             \"serial\": {{\"sessions_per_sec\": {ts:.1}, \"p50_latency_us\": {}, \
             \"p99_latency_us\": {}, \"max_concurrent\": {}, \"makespan_us\": {}}}, \
             \"speedup\": {:.2}, \
             \"plan_cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {hit_rate:.2}}}}}",
            latency_pct(&par, 50.0),
            latency_pct(&par, 99.0),
            par.max_concurrent,
            par.makespan_us,
            latency_pct(&ser, 50.0),
            latency_pct(&ser, 99.0),
            ser.max_concurrent,
            ser.makespan_us,
            ser.makespan_us as f64 / par.makespan_us as f64,
            par.cache.hits,
            par.cache.misses,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"fleet_control_plane\",\n  \"workload\": \"disjoint 2-group sessions, \
         one per 2 groups; virtual-time throughput over the makespan\",\n  \"rows\": [\n{rows}\n  ]\n}}\n"
    );
    // crates/bench -> repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    std::fs::write(path, &json).expect("write BENCH_fleet.json");
    println!("wrote {path}:\n{json}");
}

criterion_group!(benches, bench_fleet_scheduling);
criterion_main!(benches);
