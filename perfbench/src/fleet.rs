//! The fleet workloads (`storm`, `wide_scope`, `contended`) through
//! `sada_fleet::run_fleet_sharded`: the timed end-to-end run, the traced
//! per-layer run, and the output checks both share.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use sada_fleet::{
    fingerprint_events, run_fleet_sharded, FleetWorld, ScopeLockManager, ScopedLazyPlanner,
    SessionSpec, ShardReport, ShardScenario,
};
use sada_obs::{decode_lines, encode_event_into, Event};
use sada_plan::LazyStats;

use crate::inputs::{fleet_case, FleetCase};
use crate::trace::Tracer;
use crate::{alloc, median, median_metrics, metric, percentile, timed_setup, Checks, Metric};
use crate::{Outcome, Workload};

const MB: f64 = 1e6;

/// What must repeat bit for bit across repeats and thread counts.
#[derive(Debug, PartialEq, Eq)]
struct Identity {
    fingerprint: u64,
    final_config: String,
}

/// Input generation plus one standalone world compile: the set-up a user
/// of the control plane pays before the first session.
fn setup(w: Workload, seed: u64) -> (FleetCase, FleetWorld) {
    let case = fleet_case(w, seed);
    let world = case.scn.fleet.build_world();
    (case, world)
}

/// One timed call of the public entry point: the report, its wall time,
/// and the peak heap it added.
fn timed_run(case: &FleetCase, threads: usize) -> (ShardReport, Duration, u64) {
    let ((report, wall), peak) = alloc::peak_added(|| {
        let t = Instant::now();
        let r = run_fleet_sharded(&case.scn, threads);
        (r, t.elapsed())
    });
    (report, wall, peak)
}

/// The output checks every run is held to. Returns the run's identity for
/// the cross-repeat and cross-thread comparison.
fn check_report(
    case: &FleetCase,
    world: &FleetWorld,
    report: &ShardReport,
    checks: &mut Checks,
) -> Identity {
    let sessions = case.scn.fleet.sessions.len();
    checks.check(report.results.len() == sessions, || {
        format!("{} results for {sessions} sessions", report.results.len())
    });
    let open = report.results.iter().filter(|r| r.completed_at.is_none() && !r.cancelled).count();
    checks.check(open == 0, || format!("{open} sessions reached no verdict"));
    if case.fault_free {
        checks.check(report.succeeded() == sessions, || {
            format!("fault-free run committed {}/{sessions} sessions", report.succeeded())
        });
    }
    checks.check(report.residual_holds == 0, || {
        format!("{} lock holds left at quiescence", report.residual_holds)
    });
    let width_ok = report.final_config.len() == world.universe.len();
    checks.check(width_ok, || "final configuration has the wrong width".to_string());
    if width_ok {
        let last = world.universe.config_from_bits(&report.final_config);
        checks.check(world.search.is_safe(&last), || {
            "final configuration violates the invariants".to_string()
        });
    }
    Identity { fingerprint: report.fingerprint, final_config: report.final_config.clone() }
}

/// The event stream as JSON lines: `encode_event_into` per event.
pub fn encode_stream(events: &[Event]) -> String {
    let mut text = String::with_capacity(events.len() * 96);
    for ev in events {
        encode_event_into(&mut text, ev);
        text.push('\n');
    }
    text
}

/// JSONL round trip: decoding the encoded stream gives the stream back.
pub fn check_round_trip(events: &[Event], checks: &mut Checks) {
    let decoded = decode_lines(&encode_stream(events));
    checks.check(decoded.as_deref() == Ok(events), || match decoded {
        Err(e) => format!("event stream does not decode: {e}"),
        Ok(back) => {
            format!("round trip changed the stream ({} -> {} events)", events.len(), back.len())
        }
    });
}

/// Virtual ms from each session's scheduled submission to completion,
/// ascending; a session that never committed counts as infinitely late.
fn latencies_ms(case: &FleetCase, report: &ShardReport) -> Vec<f64> {
    let due: HashMap<u64, u64> =
        case.scn.fleet.sessions.iter().map(|s| (s.id, s.submit_at.as_micros())).collect();
    let mut out: Vec<f64> = report
        .results
        .iter()
        .map(|r| match (r.success, r.completed_at) {
            (true, Some(done)) => done.saturating_sub(due[&r.id]) as f64 / 1000.0,
            _ => f64::INFINITY,
        })
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// The end-to-end metrics of one timed run (set-up time is added once by
/// the caller).
fn end_to_end(report: &ShardReport, wall: Duration, peak: u64) -> Vec<Metric> {
    let secs = wall.as_secs_f64();
    vec![
        metric("sessions_per_s", report.succeeded() as f64 / secs, "1/s"),
        metric("events_per_s", report.events.len() as f64 / secs, "1/s"),
        metric("peak_heap_mb", peak as f64 / MB, "MB"),
    ]
}

/// Virtual-time figures of one run: latency p50 and p99 from scheduled
/// submission to completion, and the median adaptation time from
/// admission to commit.
fn virtual_ms(case: &FleetCase, report: &ShardReport) -> [f64; 3] {
    let lat = latencies_ms(case, report);
    let adapt: Vec<f64> = report
        .results
        .iter()
        .filter(|r| r.success)
        .filter_map(|r| Some(r.completed_at?.saturating_sub(r.admitted_at?) as f64 / 1000.0))
        .collect();
    let adapt = if adapt.is_empty() { f64::NAN } else { median(&adapt) };
    [percentile(&lat, 50.0), percentile(&lat, 99.0), adapt]
}

/// The timed run: set-up, one cross-check run at the other thread count,
/// then timed runs until `seconds` have gone; medians per metric.
pub fn measure(w: Workload, seed: u64, seconds: Duration, checks: &mut Checks) -> Outcome {
    let (setup_s, (case, world)) = timed_setup(|| setup(w, seed));
    let sessions = case.scn.fleet.sessions.len() as u64;

    let reference = run_fleet_sharded(&case.scn, case.check_threads);
    let ident = check_report(&case, &world, &reference, checks);
    check_round_trip(&reference.events, checks);
    drop(reference);
    println!("fingerprint: {:#018x}", ident.fingerprint);

    let started = Instant::now();
    let (mut passes, mut attempted, mut failed) = (Vec::new(), 0, 0);
    while passes.is_empty() || started.elapsed() < seconds {
        let (report, wall, peak) = timed_run(&case, case.threads);
        let got = check_report(&case, &world, &report, checks);
        checks.check(got == ident, || {
            format!(
                "{} threads diverged from {} threads: {:#018x} vs {:#018x}",
                case.threads, case.check_threads, got.fingerprint, ident.fingerprint
            )
        });
        attempted += sessions;
        failed += sessions - report.succeeded() as u64;
        println!("pass {}: {:.6} s", passes.len() + 1, wall.as_secs_f64());
        passes.push(end_to_end(&report, wall, peak));
    }
    let mut metrics = median_metrics(&passes);
    metrics.push(metric("setup_s", setup_s, "s"));
    Outcome { attempted, failed, metrics }
}

/// Sums of a submission-order replay of the sessions' plan queries.
#[derive(Default)]
struct PlannerReplay {
    admit: Duration,
    search: Duration,
    queries: u64,
    stats: LazyStats,
    is_safe: Duration,
    is_safe_calls: u64,
}

/// Replays every session's admission (`ScopedLazyPlanner::new`) and its
/// uncached `Search::plan_scoped` query in submission order, each from
/// the configuration the previous queries reached.
fn replay_planner(tr: &mut Tracer, world: &Rc<FleetWorld>, case: &FleetCase) -> PlannerReplay {
    let mut specs: Vec<_> = case.scn.fleet.sessions.iter().collect();
    specs.sort_by_key(|s| (s.submit_at, s.id));
    let scopes: Vec<_> = specs.iter().map(|s| world.scope_comps(&s.flips)).collect();
    let mut out = PlannerReplay::default();
    tr.span("planner.admit", |_| {
        for scope in &scopes {
            let t = Instant::now();
            let planner = std::hint::black_box(ScopedLazyPlanner::new(Rc::clone(world), scope));
            out.admit += t.elapsed();
            drop(planner);
        }
    });
    tr.span("planner.search", |tr| {
        let mut cur = world.initial_config();
        for (spec, scope) in specs.iter().zip(&scopes) {
            let ixs = world.search.scoped_action_ixs(scope);
            let target = world.target_for(&cur, &spec.flips);
            let t = Instant::now();
            let (path, st) = world.search.plan_scoped(&cur, &target, &ixs);
            out.search += t.elapsed();
            out.queries += 1;
            out.stats.expanded += st.expanded;
            out.stats.generated += st.generated;
            out.stats.probed += st.probed;
            out.stats.pred_evals += st.pred_evals;
            tr.span("invariants.is_safe", |_| {
                let t = Instant::now();
                std::hint::black_box(world.search.is_safe(&target));
                out.is_safe += t.elapsed();
                out.is_safe_calls += 1;
            });
            if path.is_some() {
                cur = target;
            }
        }
    });
    out
}

/// Replays the run's scope-lock traffic through one `ScopeLockManager`:
/// each session acquires `resources_for(scope)` when it was submitted and
/// releases when it completed, in run order. Returns (ns per operation,
/// peak queue length).
fn replay_locks(
    tr: &mut Tracer,
    world: &FleetWorld,
    case: &FleetCase,
    report: &ShardReport,
) -> (f64, usize) {
    let specs: HashMap<u64, _> = case.scn.fleet.sessions.iter().map(|s| (s.id, s)).collect();
    let resources: HashMap<u64, Vec<u32>> =
        specs.values().map(|s| (s.id, world.resources_for(&world.scope_comps(&s.flips)))).collect();
    // (virtual µs, 0 = release / 1 = acquire, session)
    let mut ops: Vec<(u64, u8, u64)> = Vec::new();
    for r in &report.results {
        if let Some(at) = r.submitted_at {
            ops.push((at, 1, r.id));
            if let Some(done) = r.completed_at {
                ops.push((done, 0, r.id));
            }
        }
    }
    ops.sort_unstable();
    tr.span("lock.replay", |_| {
        let mut locks = ScopeLockManager::new();
        let mut queue_peak = 0;
        let t = Instant::now();
        for &(_, kind, id) in &ops {
            if kind == 1 {
                locks.try_acquire(id, &resources[&id], specs[&id].priority);
            } else if locks.is_held(id) {
                locks.release(id);
            } else {
                locks.cancel(id);
            }
            queue_peak = queue_peak.max(locks.queue_len());
        }
        let ns = t.elapsed().as_nanos() as f64 / ops.len().max(1) as f64;
        (ns, queue_peak)
    })
}

/// The endpoint that owns a session: its region, or the global tier
/// (endpoint `regions`) when its flips straddle regions.
fn owner(scn: &ShardScenario, spec: &SessionSpec) -> u32 {
    let first = spec.flips.first().map_or(0, |&(g, _)| scn.region_of(g));
    if spec.flips.iter().all(|&(g, _)| scn.region_of(g) == first) {
        first as u32
    } else {
        scn.regions as u32
    }
}

/// Virtual ms, per crashed endpoint, from its restart to the first session
/// it completes afterwards; the larger of those (0 without crashes). An
/// endpoint that completes nothing after its restart fails the run.
fn recovery_ms(case: &FleetCase, report: &ShardReport, checks: &mut Checks) -> f64 {
    let owners: HashMap<u64, u32> =
        case.scn.fleet.sessions.iter().map(|s| (s.id, owner(&case.scn, s))).collect();
    let mut worst: f64 = 0.0;
    for &(ep, restart) in &case.restarts {
        let first = report
            .results
            .iter()
            .filter(|r| r.success && owners[&r.id] == ep)
            .filter_map(|r| r.completed_at.filter(|&done| done >= restart))
            .min();
        checks.check(first.is_some(), || {
            format!("endpoint {ep} completed no session after its restart")
        });
        worst = worst.max(first.map_or(0.0, |done| (done - restart) as f64 / 1000.0));
    }
    worst
}

/// The traced run: spans around the benchmark's calls into each layer,
/// per-layer metrics as medians over passes repeated for `seconds`.
pub fn traced(w: Workload, seed: u64, seconds: Duration, checks: &mut Checks) -> Outcome {
    let mut tr = Tracer::new();
    let case = tr.span("scenario.generate", |_| fleet_case(w, seed));
    let heap_before = alloc::live();
    let world = Rc::new(tr.span("world.build", |_| case.scn.fleet.build_world()));
    let world_heap = alloc::live().saturating_sub(heap_before);
    let generate_s = tr.total_s("scenario.generate");
    let build_s = tr.total_s("world.build");
    let sessions = case.scn.fleet.sessions.len() as u64;
    let agents = world.model.process_count();

    // Untraced reference run: the base of the tracing overhead, and the
    // identity every traced run must reproduce.
    let t = Instant::now();
    let reference = run_fleet_sharded(&case.scn, case.threads);
    let untraced_s = t.elapsed().as_secs_f64();
    let ident = check_report(&case, &world, &reference, checks);
    check_round_trip(&reference.events, checks);
    drop(reference);
    println!("fingerprint: {:#018x}", ident.fingerprint);

    let global = case.scn.regions as u32;
    let straddlers =
        case.scn.fleet.sessions.iter().filter(|s| owner(&case.scn, s) == global).count() as f64;

    let started = Instant::now();
    let (mut passes, mut attempted, mut failed) = (Vec::new(), 0, 0);
    while passes.is_empty() || started.elapsed() < seconds {
        let ((report, run_s), peak) = alloc::peak_added(|| {
            tr.span("fleet.run", |_| {
                let t = Instant::now();
                let r = run_fleet_sharded(&case.scn, case.threads);
                (r, t.elapsed().as_secs_f64())
            })
        });
        let got = check_report(&case, &world, &report, checks);
        checks.check(got == ident, || "traced run diverged from the untraced one".to_string());
        attempted += sessions;
        failed += sessions - report.succeeded() as u64;

        let plan = replay_planner(&mut tr, &world, &case);
        let (lock_ns, queue_peak) = replay_locks(&mut tr, &world, &case, &report);
        let fingerprint_s = tr.span("obs.fingerprint", |_| {
            let t = Instant::now();
            std::hint::black_box(fingerprint_events(&report.events));
            t.elapsed().as_secs_f64()
        });
        let (encode_s, encode_bytes) = tr.span("obs.encode", |_| {
            let t = Instant::now();
            let text = encode_stream(&report.events);
            (t.elapsed().as_secs_f64(), text.len() as f64)
        });

        let waits: Vec<f64> = {
            let mut v: Vec<f64> = report
                .results
                .iter()
                .filter_map(|r| {
                    Some(r.admitted_at?.saturating_sub(r.submitted_at?) as f64 / 1000.0)
                })
                .collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let hits: u64 = report.per_shard.iter().map(|s| s.cache_hits).sum();
        let misses: u64 = report.per_shard.iter().map(|s| s.cache_misses).sum();
        let lookups = hits + misses;
        let endpoints = report.per_shard.len() as f64;
        let search_per_query = plan.search.as_secs_f64() / plan.queries.max(1) as f64;
        // Wall time the replayed layers account for, spread over the
        // worker threads: one world build per endpoint, one uncached search
        // per plan-cache miss.
        let explained =
            (build_s * endpoints + misses as f64 * search_per_query) / case.threads as f64;
        let committed = report.succeeded() as f64;
        let latency = virtual_ms(&case, &report);

        passes.push(vec![
            metric("scenario.generate_s", generate_s, "s"),
            metric("world.build_s", build_s, "s"),
            metric("world.heap_mb", world_heap as f64 / MB, "MB"),
            metric("world.endpoints", endpoints, "count"),
            metric("planner.admit_s", plan.admit.as_secs_f64(), "s"),
            metric("planner.search_s", plan.search.as_secs_f64(), "s"),
            metric("planner.expanded", plan.stats.expanded as f64, "count"),
            metric("planner.generated", plan.stats.generated as f64, "count"),
            metric("planner.probed", plan.stats.probed as f64, "count"),
            metric("invariants.pred_evals", plan.stats.pred_evals as f64, "count"),
            metric(
                "invariants.pred_evals_per_expanded",
                plan.stats.pred_evals as f64 / plan.stats.expanded.max(1) as f64,
                "ratio",
            ),
            metric(
                "invariants.is_safe_ns",
                plan.is_safe.as_nanos() as f64 / plan.is_safe_calls.max(1) as f64,
                "ns",
            ),
            metric("cache.lookups", lookups as f64, "count"),
            metric("cache.hit_rate", hits as f64 / lookups.max(1) as f64, "ratio"),
            metric("lock.wait_p50_ms", percentile(&waits, 50.0), "ms"),
            metric("lock.wait_p99_ms", percentile(&waits, 99.0), "ms"),
            metric("lock.op_ns", lock_ns, "ns"),
            metric("lock.queue_peak", queue_peak as f64, "count"),
            metric("fabric.straddlers", straddlers, "count"),
            metric("fabric.messages", report.fabric.messages as f64, "count"),
            metric(
                "fabric.messages_per_straddler",
                report.fabric.messages as f64 / straddlers.max(1.0),
                "ratio",
            ),
            metric("fabric.retransmits", report.retransmits as f64, "count"),
            metric("recovery.restores", report.restores as f64, "count"),
            metric("recovery.lease_reclaims", report.lease_reclaims as f64, "count"),
            metric("recovery.abandoned", report.abandoned as f64, "count"),
            metric("simnet.events", report.events.len() as f64, "count"),
            metric(
                "simnet.delivered",
                report.per_shard.iter().map(|s| s.delivered).sum::<u64>() as f64,
                "count",
            ),
            metric("obs.fingerprint_s", fingerprint_s, "s"),
            metric("obs.encode_s", encode_s, "s"),
            metric("obs.encode_bytes", encode_bytes, "B"),
            metric("des.encrypt_mb_s", 0.0, "MB/s"),
            metric("des.decrypt_mb_s", 0.0, "MB/s"),
            metric("fleet.run_s", run_s, "s"),
            metric("fleet.threaded_s", report.wall.as_secs_f64(), "s"),
            metric("fleet.unattributed_share", 1.0 - explained / run_s, "ratio"),
            metric("latency_p50_ms", latency[0], "ms"),
            metric("latency_p99_ms", latency[1], "ms"),
            metric("adapt_ms", latency[2], "ms"),
            metric("frames_per_s", 0.0, "1/s"),
            metric("recovery_ms", recovery_ms(&case, &report, checks), "ms"),
            metric("failed_share", (sessions as f64 - committed) / sessions as f64, "ratio"),
            metric("heap.agents", agents as f64, "count"),
            metric("heap.bytes_per_agent", peak as f64 / agents as f64, "B"),
            metric("trace.untraced_run_s", untraced_s, "s"),
            metric("trace.overhead_share", run_s / untraced_s - 1.0, "ratio"),
        ]);
    }
    crate::write_trace(w, seed, &tr, checks);
    Outcome { attempted, failed, metrics: median_metrics(&passes) }
}
