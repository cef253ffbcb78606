//! Acceptance: the control plane at fleet scale. A 100-group fleet (200
//! agent processes) completes a wave of scope-disjoint sessions with real
//! concurrency — verified from the session-tagged event stream, not just
//! aggregate counters — while overlapping sessions never interleave.

use sada_fleet::{disjoint_wave, run_fleet, FleetScenario, SessionSpec};
use sada_obs::{Event, Payload, ProtoEvent};
use sada_simnet::SimDuration;

/// Virtual-time span of a session's protocol activity (first to last
/// proto event), in μs.
fn proto_span(events: &[Event], session: u64) -> Option<(u64, u64)> {
    let times: Vec<u64> = events
        .iter()
        .filter(|e| e.session == session && matches!(e.payload, Payload::Proto(_)))
        .map(|e| e.at.as_micros())
        .collect();
    Some((*times.iter().min()?, *times.iter().max()?))
}

/// Barrier instants (`StepStarted` / `StepCommitted`) for a session.
fn barriers(events: &[Event], session: u64) -> Vec<u64> {
    events
        .iter()
        .filter(|e| {
            e.session == session
                && matches!(
                    e.payload,
                    Payload::Proto(
                        ProtoEvent::StepStarted { .. } | ProtoEvent::StepCommitted { .. }
                    )
                )
        })
        .map(|e| e.at.as_micros())
        .collect()
}

#[test]
fn hundred_group_fleet_runs_disjoint_sessions_concurrently() {
    // Ten sessions, each adapting ten groups of its own: all disjoint.
    let scenario = FleetScenario::new(100, disjoint_wave(10, 10));
    let report = run_fleet(&scenario);

    assert_eq!(report.succeeded(), 10, "results: {:?}", report.results);
    assert!(
        report.max_concurrent >= 2,
        "disjoint sessions must overlap (max_concurrent = {})",
        report.max_concurrent
    );

    // The claim must be visible in the session-tagged event stream: find
    // two sessions whose *barriers* interleave — each runs a barrier
    // strictly inside the other's protocol span.
    let mut interleaved = 0;
    for a in 1..=10u64 {
        for b in (a + 1)..=10u64 {
            let (sa, sb) = (proto_span(&report.events, a), proto_span(&report.events, b));
            let (Some((a0, a1)), Some((b0, b1))) = (sa, sb) else { continue };
            let a_inside_b = barriers(&report.events, a).iter().any(|&t| t > b0 && t < b1);
            let b_inside_a = barriers(&report.events, b).iter().any(|&t| t > a0 && t < a1);
            if a_inside_b && b_inside_a {
                interleaved += 1;
            }
        }
    }
    assert!(
        interleaved >= 1,
        "no pair of sessions showed interleaved barriers in {} events",
        report.events.len()
    );

    // And the journal is a genuinely interleaved multi-session log.
    let mut tagged: Vec<u64> = Vec::new();
    for line in report.journals[0].1.lines() {
        if let Some(pos) = line.find("session=") {
            let tail = &line[pos + "session=".len()..];
            let id: u64 =
                tail.split_whitespace().next().unwrap().parse().expect("numeric session tag");
            if tagged.last() != Some(&id) {
                tagged.push(id);
            }
        }
    }
    let distinct: std::collections::HashSet<u64> = tagged.iter().copied().collect();
    assert_eq!(distinct.len(), 10, "all sessions journaled");
    assert!(
        tagged.len() > distinct.len(),
        "journal should switch back and forth between sessions: {tagged:?}"
    );
}

#[test]
fn overlapping_sessions_never_interleave_even_at_scale() {
    // Five sessions all fighting over groups 0..10 (plus a private tail
    // each, so scopes differ but all conflict pairwise via the shared
    // groups).
    let sessions: Vec<SessionSpec> = (0..5u64)
        .map(|i| SessionSpec {
            id: i + 1,
            flips: (0..10)
                .map(|g| (g, i % 2 == 0))
                .chain(std::iter::once((10 + i as usize, true)))
                .collect(),
            priority: 0,
            submit_at: SimDuration::from_micros(i * 500),
            cancel_at: None,
        })
        .collect();
    let report = run_fleet(&FleetScenario::new(20, sessions));

    assert_eq!(report.succeeded(), 5, "results: {:?}", report.results);
    assert_eq!(report.max_concurrent, 1, "pairwise conflicts force serialization");

    // Stronger than the counters: in the event stream, the protocol spans
    // of every pair are totally ordered.
    for a in 1..=5u64 {
        for b in (a + 1)..=5u64 {
            let (a0, a1) = proto_span(&report.events, a).expect("session ran");
            let (b0, b1) = proto_span(&report.events, b).expect("session ran");
            assert!(
                a1 <= b0 || b1 <= a0,
                "sessions {a} and {b} interleaved: [{a0},{a1}] vs [{b0},{b1}]"
            );
        }
    }
}

#[test]
fn priority_decides_admission_order_under_contention() {
    // Three sessions over the same group, submitted while the first holds
    // the scope; the high-priority latecomer is admitted before the
    // earlier low-priority waiter. Directions alternate so every session
    // does real protocol work (a no-op flip would complete instantly and
    // blur the admission timestamps).
    let mk = |id: u64, prio: u8, at_us: u64, to_new: bool| SessionSpec {
        id,
        flips: vec![(0, to_new)],
        priority: prio,
        submit_at: SimDuration::from_micros(at_us),
        cancel_at: None,
    };
    let report = run_fleet(&FleetScenario::new(
        1,
        vec![mk(1, 0, 0, true), mk(2, 0, 1000, true), mk(3, 7, 2000, false)],
    ));
    assert_eq!(report.succeeded(), 3, "results: {:?}", report.results);
    let admitted = |id: u64| report.session(id).unwrap().admitted_at.unwrap();
    assert!(admitted(3) < admitted(2), "priority 7 overtakes the FIFO waiter");
    assert!(admitted(1) < admitted(3));
}
