//! The `video` workload: the paper's case study, a DES-64 → DES-128
//! hardening during a multicast stream, through
//! `sada_video::run_video_scenario` with `Strategy::Safe`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use sada_core::casestudy::{case_study, CaseStudy};
use sada_des::{decrypt_bytes, encrypt_bytes, BlockCipher, Des, Des128};
use sada_fleet::fingerprint_events;
use sada_obs::{Bus, Event, NetEvent, Payload, ProtoEvent, RingSink, SimDuration, SimTime};
use sada_plan::Search;
use sada_scenario::SplitMix64;
use sada_video::{run_video_scenario, ScenarioConfig, Strategy, VideoReport};

use crate::fleet::{check_round_trip, encode_stream};
use crate::trace::Tracer;
use crate::{alloc, median_metrics, metric, timed_setup, Checks, Metric, Outcome, Workload};

const MB: f64 = 1e6;
/// Virtual length of the multicast stream.
const STREAM_S: u64 = 20;
/// The adaptation is requested at 10 s plus a seed-drawn offset below 1 s,
/// so it lands at a different point of the packet stream per seed.
const ADAPT_BASE_US: u64 = 10_000_000;
const ADAPT_SPREAD_US: u64 = 1_000_000;
/// Retained events per run; a run that emits more fails its checks.
const RING: usize = 1 << 22;

/// The seeded run configuration with a fresh bus and a ring sink on it.
fn config(seed: u64) -> (ScenarioConfig, Rc<RefCell<RingSink>>) {
    let adapt_us =
        ADAPT_BASE_US + SplitMix64::new(seed ^ 0x71DE_0000_0000_0004).below(ADAPT_SPREAD_US);
    let cfg = ScenarioConfig {
        seed,
        stream_end: SimTime::from_millis(STREAM_S * 1000),
        adapt_at: SimDuration::from_micros(adapt_us),
        bus: Bus::new(),
        ..ScenarioConfig::default()
    };
    let ring = Rc::new(RefCell::new(RingSink::new(RING)));
    cfg.bus.attach(&ring);
    (cfg, ring)
}

/// Input generation plus the case-study build: the configuration, the
/// compiled specification, a check that source and target are safe, and
/// the manager's runtime planner.
fn setup(seed: u64) -> (ScenarioConfig, CaseStudy) {
    let (cfg, _) = config(seed);
    let cs = case_study();
    let inv = cs.spec.invariants();
    assert!(inv.satisfied_by(&cs.source) && inv.satisfied_by(&cs.target), "case study is unsafe");
    std::hint::black_box(cs.spec.runtime_planner());
    (cfg, cs)
}

/// One run and everything measured about it.
struct Run {
    report: VideoReport,
    events: Vec<Event>,
    evicted: bool,
    wall: Duration,
    peak: u64,
    adapt_at_us: u64,
}

fn run(seed: u64) -> Run {
    let (cfg, ring) = config(seed);
    let ((report, wall), peak) = alloc::peak_added(|| {
        let t = Instant::now();
        let r = run_video_scenario(&cfg, Strategy::Safe);
        (r, t.elapsed())
    });
    let ring = ring.borrow();
    Run {
        report,
        events: ring.events(),
        evicted: ring.total_seen() > ring.len() as u64,
        wall,
        peak,
        adapt_at_us: cfg.adapt_at.as_micros(),
    }
}

/// Virtual time of the first event matching `f`, or of the last one.
fn event_at(events: &[Event], last: bool, f: impl Fn(&ProtoEvent) -> bool) -> Option<u64> {
    let mut it = events.iter().filter(|e| matches!(&e.payload, Payload::Proto(p) if f(p)));
    let hit = if last { it.last() } else { it.next() };
    hit.map(|e| e.at.as_micros())
}

/// Output checks; returns the identity (fingerprint, final configuration).
fn check(r: &Run, cs: &CaseStudy, checks: &mut Checks) -> (u64, String) {
    checks.check(!r.evicted, || "event ring overflowed".to_string());
    let outcome = r.report.outcome.as_ref();
    checks.check(outcome.is_some(), || "the adaptation reached no verdict".to_string());
    checks
        .check(outcome.is_some_and(|o| o.success), || "the adaptation did not commit".to_string());
    checks.check(r.report.corrupted_packets() == 0, || {
        format!("{} corrupted packets", r.report.corrupted_packets())
    });
    checks.check(r.report.audit.is_safe(), || {
        let first = r.report.audit.violations.first().map(ToString::to_string);
        format!("audit found {} violations, first: {first:?}", r.report.audit.violations.len())
    });
    let last = outcome.map(|o| o.final_config.clone());
    checks.check(
        last.as_ref().is_some_and(|c| cs.spec.invariants().satisfied_by(c) && *c == cs.target),
        || "final configuration is not the safe target".to_string(),
    );
    (fingerprint_events(&r.events), last.map(|c| c.to_bit_string()).unwrap_or_default())
}

/// `(latency, adapt)`: virtual ms from the request to the outcome, and
/// from the request to the last committed step.
fn virtual_ms(r: &Run) -> (f64, f64) {
    let ms =
        |t: Option<u64>| t.map_or(f64::NAN, |t| t.saturating_sub(r.adapt_at_us) as f64 / 1000.0);
    let outcome = event_at(&r.events, false, |p| matches!(p, ProtoEvent::OutcomeReached { .. }));
    let commit = event_at(&r.events, true, |p| matches!(p, ProtoEvent::StepCommitted { .. }));
    (ms(outcome), ms(commit))
}

fn committed(r: &Run) -> f64 {
    f64::from(u8::from(r.report.outcome.as_ref().is_some_and(|o| o.success)))
}

fn end_to_end(r: &Run) -> Vec<Metric> {
    let secs = r.wall.as_secs_f64();
    vec![
        metric("sessions_per_s", committed(r) / secs, "1/s"),
        metric("events_per_s", r.events.len() as f64 / secs, "1/s"),
        metric("peak_heap_mb", r.peak as f64 / MB, "MB"),
    ]
}

pub fn measure(seed: u64, seconds: Duration, checks: &mut Checks) -> Outcome {
    let (setup_s, (_, cs)) = timed_setup(|| setup(seed));
    let reference = run(seed);
    let ident = check(&reference, &cs, checks);
    check_round_trip(&reference.events, checks);
    drop(reference);
    println!("fingerprint: {:#018x}", ident.0);

    let started = Instant::now();
    let (mut passes, mut attempted, mut failed) = (Vec::new(), 0, 0);
    while passes.is_empty() || started.elapsed() < seconds {
        let r = run(seed);
        let got = check(&r, &cs, checks);
        checks.check(got == ident, || "a repeat changed the event stream".to_string());
        attempted += 1;
        failed += 1 - committed(&r) as u64;
        passes.push(end_to_end(&r));
    }
    let mut metrics = median_metrics(&passes);
    metrics.push(metric("setup_s", setup_s, "s"));
    Outcome { attempted, failed, metrics }
}

/// MB/s of `encrypt_bytes` and `decrypt_bytes` over `frames` with `cipher`.
fn des_rates<C: BlockCipher>(
    cipher: &C,
    frames: &[Vec<u8>],
    checks: &mut Checks,
) -> (Duration, Duration) {
    let t = Instant::now();
    let sealed: Vec<Vec<u8>> = frames.iter().map(|f| encrypt_bytes(cipher, f)).collect();
    let enc = t.elapsed();
    let t = Instant::now();
    let opened: Vec<_> = sealed.iter().map(|c| decrypt_bytes(cipher, c)).collect();
    let dec = t.elapsed();
    checks.check(opened.iter().zip(frames).all(|(o, f)| o.as_ref() == Ok(f)), || {
        "DES round trip changed a frame".to_string()
    });
    (enc, dec)
}

pub fn traced(seed: u64, seconds: Duration, checks: &mut Checks) -> Outcome {
    let mut tr = Tracer::new();
    let (cfg, _) = tr.span("scenario.generate", |_| config(seed));
    let heap_before = alloc::live();
    let cs = tr.span("world.build", |_| {
        let cs = case_study();
        std::hint::black_box(cs.spec.runtime_planner());
        cs
    });
    let world_heap = alloc::live().saturating_sub(heap_before);
    let generate_s = tr.total_s("scenario.generate");
    let build_s = tr.total_s("world.build");

    let reference = run(seed);
    let untraced_s = reference.wall.as_secs_f64();
    let ident = check(&reference, &cs, checks);
    check_round_trip(&reference.events, checks);
    drop(reference);
    println!("fingerprint: {:#018x}", ident.0);

    // Frame-sized buffers as the server's capture produces them.
    let mut rng = SplitMix64::new(seed ^ 0xDE5);
    let frames: Vec<Vec<u8>> =
        (0..256).map(|_| (0..cfg.frame_size).map(|_| rng.next_u64() as u8).collect()).collect();
    let frame_bytes = (frames.len() * cfg.frame_size) as f64;

    let started = Instant::now();
    let (mut passes, mut attempted, mut failed) = (Vec::new(), 0, 0);
    while passes.is_empty() || started.elapsed() < seconds {
        let r = tr.span("video.run", |_| run(seed));
        let got = check(&r, &cs, checks);
        checks.check(got == ident, || "traced run diverged from the untraced one".to_string());
        attempted += 1;
        failed += 1 - committed(&r) as u64;
        let run_s = r.wall.as_secs_f64();
        let (latency, adapt) = virtual_ms(&r);

        let (search, admit_s, stats, is_safe_ns) = tr.span("planner.search", |_| {
            let t = Instant::now();
            let search =
                Search::new(cs.spec.invariants(), cs.spec.actions(), cs.spec.universe().len());
            let admit_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let (_, stats) = search.plan(&cs.source, &cs.target);
            let search_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(search.is_safe(&cs.source) && search.is_safe(&cs.target));
            (search_s, admit_s, stats, t.elapsed().as_nanos() as f64 / 2.0)
        });
        let fingerprint_s = tr.span("obs.fingerprint", |_| {
            let t = Instant::now();
            std::hint::black_box(fingerprint_events(&r.events));
            t.elapsed().as_secs_f64()
        });
        let (encode_s, encode_bytes) = tr.span("obs.encode", |_| {
            let t = Instant::now();
            let text = encode_stream(&r.events);
            (t.elapsed().as_secs_f64(), text.len() as f64)
        });
        let (enc, dec) = tr.span("des.codec", |_| {
            let (e1, d1) = des_rates(&Des::new(0x0123_4567_89AB_CDEF), &frames, checks);
            let (e2, d2) = des_rates(
                &Des128::new(0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210),
                &frames,
                checks,
            );
            (e1 + e2, d1 + d2)
        });
        let delivered = r
            .events
            .iter()
            .filter(|e| matches!(e.payload, Payload::Net(NetEvent::Delivered { .. })))
            .count();
        let agents = 3.0;
        passes.push(vec![
            metric("scenario.generate_s", generate_s, "s"),
            metric("world.build_s", build_s, "s"),
            metric("world.heap_mb", world_heap as f64 / MB, "MB"),
            metric("world.endpoints", 1.0, "count"),
            metric("planner.admit_s", admit_s, "s"),
            metric("planner.search_s", search, "s"),
            metric("planner.expanded", stats.expanded as f64, "count"),
            metric("planner.generated", stats.generated as f64, "count"),
            metric("planner.probed", stats.probed as f64, "count"),
            metric("invariants.pred_evals", stats.pred_evals as f64, "count"),
            metric(
                "invariants.pred_evals_per_expanded",
                stats.pred_evals as f64 / stats.expanded.max(1) as f64,
                "ratio",
            ),
            metric("invariants.is_safe_ns", is_safe_ns, "ns"),
            metric("cache.lookups", 0.0, "count"),
            metric("cache.hit_rate", 0.0, "ratio"),
            metric("lock.wait_p50_ms", 0.0, "ms"),
            metric("lock.wait_p99_ms", 0.0, "ms"),
            metric("lock.op_ns", 0.0, "ns"),
            metric("lock.queue_peak", 0.0, "count"),
            metric("fabric.straddlers", 0.0, "count"),
            metric("fabric.messages", 0.0, "count"),
            metric("fabric.messages_per_straddler", 0.0, "ratio"),
            metric("fabric.retransmits", 0.0, "count"),
            metric("recovery.restores", r.report.manager_restores as f64, "count"),
            metric("recovery.lease_reclaims", 0.0, "count"),
            metric("recovery.abandoned", 0.0, "count"),
            metric("simnet.events", r.events.len() as f64, "count"),
            metric("simnet.delivered", delivered as f64, "count"),
            metric("obs.fingerprint_s", fingerprint_s, "s"),
            metric("obs.encode_s", encode_s, "s"),
            metric("obs.encode_bytes", encode_bytes, "B"),
            metric("des.encrypt_mb_s", 2.0 * frame_bytes / MB / enc.as_secs_f64(), "MB/s"),
            metric("des.decrypt_mb_s", 2.0 * frame_bytes / MB / dec.as_secs_f64(), "MB/s"),
            metric("fleet.run_s", 0.0, "s"),
            metric("fleet.threaded_s", 0.0, "s"),
            metric("fleet.unattributed_share", 0.0, "ratio"),
            metric("latency_p50_ms", latency, "ms"),
            metric("latency_p99_ms", latency, "ms"),
            metric("adapt_ms", adapt, "ms"),
            metric("frames_per_s", r.report.frames_displayed() as f64 / run_s, "1/s"),
            metric("recovery_ms", 0.0, "ms"),
            metric("failed_share", 1.0 - committed(&r), "ratio"),
            metric("heap.agents", agents, "count"),
            metric("heap.bytes_per_agent", r.peak as f64 / agents, "B"),
            metric("trace.untraced_run_s", untraced_s, "s"),
            metric("trace.overhead_share", run_s / untraced_s - 1.0, "ratio"),
        ]);
    }
    crate::write_trace(Workload::Video, seed, &tr, checks);
    Outcome { attempted, failed, metrics: median_metrics(&passes) }
}
