//! Manager-side link guard: the per-agent breaker and RTT policy a protocol
//! host applies between its manager cores and the wire.

use std::collections::HashMap;

use sada_obs::{FleetEvent, SimDuration, SimTime};

use crate::breaker::{BreakerConfig, BreakerTransition, CircuitBreaker};
use crate::rtt::RttEstimator;

/// Per-agent circuit breakers, RTT estimators and Karn-rule send clocks for
/// one manager host, addressed by dense agent index ("link").
///
/// The host reports every outgoing send through [`LinkGuard::gate_send`]
/// and every current-epoch arrival through [`LinkGuard::on_arrival`], and
/// emits the returned events under its own session stamping. The ordered
/// rule lives here:
///
/// - a retransmission (a send emitted while handling a protocol timeout)
///   is failure evidence, recorded *before* the breaker gates the send;
/// - an allowed send starts the link's Karn clock unless one is already
///   running, so a retransmitted exchange keeps its first send time;
/// - an arrival is both an RTT sample (when the clock runs) and success
///   evidence for the breaker.
///
/// Breakers, estimators and clocks are volatile process state and reset on
/// [`LinkGuard::on_crash`]; the trip and suppressed-send counters are
/// diagnostics and survive it.
#[derive(Debug, Clone)]
pub struct LinkGuard {
    /// Breaker policy (`None` disables the gate), kept so a crash rebuilds
    /// the breakers under the same policy.
    breaker: Option<BreakerConfig>,
    /// One breaker per link, or none when the gate is off.
    breakers: Vec<CircuitBreaker>,
    rtt: Vec<RttEstimator>,
    /// First unanswered send per link.
    pending_since: HashMap<usize, SimTime>,
    trips: u64,
    suppressed: u64,
}

impl LinkGuard {
    /// A guard over `links` agents, with per-agent breakers when `breaker`
    /// is set.
    pub fn new(links: usize, breaker: Option<BreakerConfig>) -> Self {
        LinkGuard {
            breaker,
            breakers: Self::fresh_breakers(links, breaker),
            rtt: vec![RttEstimator::new(); links],
            pending_since: HashMap::new(),
            trips: 0,
            suppressed: 0,
        }
    }

    fn fresh_breakers(links: usize, breaker: Option<BreakerConfig>) -> Vec<CircuitBreaker> {
        breaker.map_or_else(Vec::new, |cfg| (0..links).map(|_| CircuitBreaker::new(cfg)).collect())
    }

    fn event(&mut self, link: usize, tr: BreakerTransition) -> FleetEvent {
        let agent = link as u32;
        match tr {
            BreakerTransition::Opened { cooldown } => {
                self.trips += 1;
                FleetEvent::BreakerOpened { agent, cooldown_us: cooldown.as_micros() }
            }
            BreakerTransition::Probing => FleetEvent::BreakerProbed { agent },
            BreakerTransition::Closed => FleetEvent::BreakerClosed { agent },
        }
    }

    /// Gates one send to `link` at `now`; `retransmit` marks a send emitted
    /// while handling a protocol timeout. Returns whether the message may go
    /// on the wire, plus the breaker events it caused, in emission order.
    pub fn gate_send(
        &mut self,
        link: usize,
        now: SimTime,
        retransmit: bool,
    ) -> (bool, [Option<FleetEvent>; 2]) {
        let mut events = [None, None];
        let Some(b) = self.breakers.get_mut(link) else {
            self.pending_since.entry(link).or_insert(now);
            return (true, events);
        };
        let failed = if retransmit { b.on_failure(now) } else { None };
        let (ok, probed) = b.allow_send(now);
        events[0] = failed.map(|tr| self.event(link, tr));
        events[1] = probed.map(|tr| self.event(link, tr));
        if ok {
            self.pending_since.entry(link).or_insert(now);
        } else {
            // The breaker absorbs the send; the host's own timeout ladder
            // keeps running and journals an outcome either way.
            self.suppressed += 1;
        }
        (ok, events)
    }

    /// Records an arrival from `link` at `now`: an RTT sample when a send
    /// was outstanding, and success evidence for the breaker. Returns, in
    /// emission order, the `TimeoutAdapted` event describing the sample
    /// (the host decides whether to report it) and the breaker event.
    pub fn on_arrival(
        &mut self,
        link: usize,
        now: SimTime,
    ) -> (Option<FleetEvent>, Option<FleetEvent>) {
        let sample = self.pending_since.remove(&link).and_then(|t0| {
            let est = &mut self.rtt[link];
            est.observe(now.saturating_since(t0));
            Some(FleetEvent::TimeoutAdapted {
                agent: link as u32,
                srtt_us: est.srtt()?.as_micros(),
                rto_us: est.rto()?.as_micros(),
            })
        });
        let tr = self.breakers.get_mut(link).and_then(|b| b.on_success(now));
        (sample, tr.map(|tr| self.event(link, tr)))
    }

    /// The current retransmission timeout for `link`, once it has a sample.
    pub fn rto(&self, link: usize) -> Option<SimDuration> {
        self.rtt.get(link).and_then(RttEstimator::rto)
    }

    /// Whether `link`'s breaker is open with its hold still running.
    pub fn blocks(&self, link: usize, now: SimTime) -> bool {
        self.breakers.get(link).is_some_and(|b| b.blocks(now))
    }

    /// The process image died: breakers, estimators and send clocks start
    /// over; the trip and suppressed-send counters are kept.
    pub fn on_crash(&mut self) {
        self.pending_since.clear();
        self.rtt.fill(RttEstimator::new());
        self.breakers = Self::fresh_breakers(self.rtt.len(), self.breaker);
    }

    /// Total open time per breaker up to `now`, for links whose breaker
    /// tripped since the last crash (dense link index, microseconds).
    pub fn breaker_open_us(&self, now: SimTime) -> Vec<(u32, u64)> {
        self.breakers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.trips() > 0)
            .map(|(ix, b)| (ix as u32, b.open_time_us(now)))
            .collect()
    }

    /// Times any breaker tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Sends refused by open breakers.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Trips on the first failure, so one retransmission opens the gate.
    fn hair_trigger() -> LinkGuard {
        LinkGuard::new(2, Some(BreakerConfig { failure_threshold: 1, ..BreakerConfig::default() }))
    }

    #[test]
    fn karn_sample_runs_from_the_first_unanswered_send() {
        let mut g = LinkGuard::new(2, None);
        assert!(g.gate_send(0, t(10), false).0);
        // The retransmission must not restart the clock.
        assert!(g.gate_send(0, t(40), true).0);
        let (sample, tr) = g.on_arrival(0, t(70));
        assert_eq!(tr, None);
        let Some(FleetEvent::TimeoutAdapted { agent: 0, srtt_us, rto_us }) = sample else {
            panic!("a send was outstanding, got {sample:?}");
        };
        assert_eq!(srtt_us, 60_000);
        assert_eq!(g.rto(0), Some(SimDuration::from_micros(rto_us)));
        // The clock stopped: a second arrival is not a sample.
        assert_eq!(g.on_arrival(0, t(90)).0, None);
        assert_eq!(g.rto(1), None, "links are independent");
    }

    #[test]
    fn failure_evidence_comes_before_the_gate() {
        let mut g = hair_trigger();
        // Ordinary sends are no evidence against the link.
        for ms in 0..5 {
            assert!(g.gate_send(0, t(ms), false).0);
        }
        // The first retransmission trips the breaker, and the now-open gate
        // refuses that very send.
        let (ok, events) = g.gate_send(0, t(10), true);
        assert!(!ok);
        assert!(matches!(events, [Some(FleetEvent::BreakerOpened { agent: 0, .. }), None]));
        assert_eq!(g.trips(), 1);
        assert!(g.blocks(0, t(11)) && !g.blocks(1, t(11)));
    }

    #[test]
    fn suppressed_send_neither_starts_the_clock_nor_reaches_the_wire() {
        let mut g = hair_trigger();
        let (ok, _) = g.gate_send(1, t(0), true);
        assert!(!ok, "the gated send does not reach the wire");
        assert!(!g.gate_send(1, t(5), false).0);
        assert_eq!(g.suppressed(), 2);
        // No clock was started, so the arrival is only success evidence.
        let (sample, tr) = g.on_arrival(1, t(20));
        assert_eq!(sample, None);
        assert_eq!(tr, Some(FleetEvent::BreakerClosed { agent: 1 }));
        assert_eq!(g.rto(1), None);
    }

    #[test]
    fn crash_resets_estimators_and_breakers_but_keeps_counters() {
        let mut g = hair_trigger();
        assert!(g.gate_send(0, t(0), false).0);
        assert!(g.on_arrival(0, t(8)).0.is_some());
        assert!(g.gate_send(0, t(10), false).0);
        assert!(!g.gate_send(1, t(10), true).0);
        assert_eq!((g.trips(), g.suppressed()), (1, 1));
        assert_eq!(g.breaker_open_us(t(30)), vec![(1, 20_000)]);

        g.on_crash();
        assert_eq!(g.rto(0), None, "the estimator re-learns the network");
        assert_eq!(g.on_arrival(0, t(12)).0, None, "the send clock died too");
        assert!(!g.blocks(1, t(11)), "breakers start closed");
        assert!(g.breaker_open_us(t(30)).is_empty());
        assert_eq!((g.trips(), g.suppressed()), (1, 1), "diagnostics survive");
    }
}
