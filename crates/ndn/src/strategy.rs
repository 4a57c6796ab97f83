//! Forwarding strategies.
//!
//! The strategy decides *which* next hop(s) an Interest goes to once the FIB
//! has narrowed the candidates. This is the locus of LIDC's "the network
//! picks the nearest (or best) compute cluster" claim: with several clusters
//! advertising `/ndn/k8s/compute`, the strategy *is* the placement policy at
//! the network layer.
//!
//! Provided strategies:
//!
//! * [`BestRoute`] — lowest routing cost (the "nearest" cluster); on
//!   consumer retransmission it rotates to the next-best hop.
//! * [`Multicast`] — replicate to every next hop.
//! * [`RoundRobin`] — cycle through next hops per prefix (load balancing).
//! * [`RttEstimating`] — per-(prefix, face) smoothed-RTT ranking with
//!   optimistic probing of unmeasured faces (an ASF-like adaptive strategy;
//!   this is the "past performances" signal the paper describes).

use std::collections::HashMap;

use crate::face::FaceId;
use crate::name::Name;
use crate::packet::Interest;
use crate::tables::fib::NextHop;
use lidc_simcore::rng::DetRng;
use lidc_simcore::time::{SimDuration, SimTime};

/// Inputs to a strategy decision.
pub struct StrategyCtx<'a> {
    /// The Interest being forwarded.
    pub interest: &'a Interest,
    /// Eligible next hops (already filtered: face up, not the arrival face),
    /// sorted by ascending cost.
    pub nexthops: &'a [NextHop],
    /// The FIB prefix that matched (strategy state is typically per-prefix).
    pub prefix: &'a Name,
    /// Face the Interest arrived on.
    pub in_face: FaceId,
    /// True when this is a consumer retransmission of a pending Interest.
    pub is_retransmission: bool,
    /// Virtual now.
    pub now: SimTime,
    /// Deterministic randomness.
    pub rng: &'a mut DetRng,
}

/// A forwarding strategy. Implementations keep their own per-prefix state.
pub trait Strategy: Send + 'static {
    /// Choose the outgoing faces for an Interest. Empty means "no usable
    /// route" and the forwarder NACKs the requester.
    fn select(&mut self, ctx: &mut StrategyCtx<'_>) -> Vec<FaceId>;

    /// Feedback: Data returned on `face` for `prefix` with measured `rtt`.
    fn on_data(&mut self, _prefix: &Name, _face: FaceId, _rtt: SimDuration) {}

    /// Feedback: `face` failed for `prefix` (timeout or NACK).
    fn on_failure(&mut self, _prefix: &Name, _face: FaceId) {}
}

/// Lowest-cost forwarding with rotation on retransmission.
#[derive(Debug, Default)]
pub struct BestRoute {
    /// Per-prefix index of the last alternative tried on retransmission.
    retry_cursor: HashMap<Name, usize>,
}

impl BestRoute {
    /// New BestRoute strategy.
    pub fn new() -> Self {
        BestRoute::default()
    }
}

impl Strategy for BestRoute {
    fn select(&mut self, ctx: &mut StrategyCtx<'_>) -> Vec<FaceId> {
        if ctx.nexthops.is_empty() {
            return Vec::new();
        }
        if ctx.is_retransmission && ctx.nexthops.len() > 1 {
            // Rotate through alternatives so a broken best path is escaped.
            let cursor = self.retry_cursor.entry(ctx.prefix.clone()).or_insert(0);
            *cursor = (*cursor + 1) % ctx.nexthops.len();
            return vec![ctx.nexthops[*cursor].face];
        }
        vec![ctx.nexthops[0].face]
    }
}

/// Replicate Interests to every next hop.
#[derive(Debug, Default)]
pub struct Multicast;

impl Multicast {
    /// New Multicast strategy.
    pub fn new() -> Self {
        Multicast
    }
}

impl Strategy for Multicast {
    fn select(&mut self, ctx: &mut StrategyCtx<'_>) -> Vec<FaceId> {
        ctx.nexthops.iter().map(|nh| nh.face).collect()
    }
}

/// Cycle through next hops per prefix.
#[derive(Debug, Default)]
pub struct RoundRobin {
    cursor: HashMap<Name, usize>,
}

impl RoundRobin {
    /// New RoundRobin strategy.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Strategy for RoundRobin {
    fn select(&mut self, ctx: &mut StrategyCtx<'_>) -> Vec<FaceId> {
        if ctx.nexthops.is_empty() {
            return Vec::new();
        }
        let cursor = self.cursor.entry(ctx.prefix.clone()).or_insert(0);
        let choice = ctx.nexthops[*cursor % ctx.nexthops.len()].face;
        *cursor = (*cursor + 1) % ctx.nexthops.len();
        vec![choice]
    }
}

/// Smoothed-RTT adaptive strategy (ASF-like).
#[derive(Debug)]
pub struct RttEstimating {
    /// EWMA smoothing factor for new RTT samples.
    alpha: f64,
    /// Probability of probing a non-best face to keep estimates warm.
    probe_probability: f64,
    /// (prefix, face) → smoothed RTT seconds; `None` entry = failed recently.
    srtt: HashMap<(Name, FaceId), f64>,
}

/// Penalty multiplier applied to a face's SRTT on failure.
const FAILURE_PENALTY: f64 = 4.0;
/// Optimistic initial estimate for unmeasured faces (seconds): low enough to
/// get probed, not so low that a measured fast face is abandoned.
const OPTIMISTIC_SRTT: f64 = 0.000_5;

impl Default for RttEstimating {
    fn default() -> Self {
        RttEstimating {
            alpha: 0.3,
            probe_probability: 0.05,
            srtt: HashMap::new(),
        }
    }
}

impl RttEstimating {
    /// New adaptive strategy with default parameters.
    pub fn new() -> Self {
        RttEstimating::default()
    }

    /// Override the probe probability (0 disables background probing).
    pub fn with_probe_probability(mut self, p: f64) -> Self {
        self.probe_probability = p.clamp(0.0, 1.0);
        self
    }

    /// The current estimate for a (prefix, face) pair, if measured.
    pub fn estimate(&self, prefix: &Name, face: FaceId) -> Option<f64> {
        self.srtt.get(&(prefix.clone(), face)).copied()
    }

    fn effective_srtt(&self, prefix: &Name, face: FaceId) -> f64 {
        self.srtt
            .get(&(prefix.clone(), face))
            .copied()
            .unwrap_or(OPTIMISTIC_SRTT)
    }
}

impl Strategy for RttEstimating {
    fn select(&mut self, ctx: &mut StrategyCtx<'_>) -> Vec<FaceId> {
        if ctx.nexthops.is_empty() {
            return Vec::new();
        }
        let best = ctx
            .nexthops
            .iter()
            .map(|nh| nh.face)
            .min_by(|a, b| {
                let ra = self.effective_srtt(ctx.prefix, *a);
                let rb = self.effective_srtt(ctx.prefix, *b);
                ra.partial_cmp(&rb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(b))
            })
            // lidc-lint: allow(panic-path) reason="the is_empty() early return above guarantees min_by runs on a nonempty iterator"
            .expect("nonempty");
        let mut out = vec![best];
        // Occasionally probe another face to refresh its estimate.
        if ctx.nexthops.len() > 1 && ctx.rng.next_bool(self.probe_probability) {
            let others: Vec<FaceId> = ctx
                .nexthops
                .iter()
                .map(|nh| nh.face)
                .filter(|f| *f != best)
                .collect();
            if let Some(probe) = ctx.rng.choose(&others) {
                out.push(*probe);
            }
        }
        out
    }

    fn on_data(&mut self, prefix: &Name, face: FaceId, rtt: SimDuration) {
        let sample = rtt.as_secs_f64();
        let key = (prefix.clone(), face);
        let srtt = self.srtt.entry(key).or_insert(sample);
        *srtt = (1.0 - self.alpha) * *srtt + self.alpha * sample;
    }

    fn on_failure(&mut self, prefix: &Name, face: FaceId) {
        let key = (prefix.clone(), face);
        let cur = self.effective_srtt(prefix, face);
        self.srtt.insert(key, cur * FAILURE_PENALTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(id: u64) -> FaceId {
        FaceId::from_raw(id)
    }

    fn hops(ids: &[(u64, u32)]) -> Vec<NextHop> {
        ids.iter()
            .map(|(id, cost)| NextHop {
                face: f(*id),
                cost: *cost,
            })
            .collect()
    }

    fn ctx<'a>(
        interest: &'a Interest,
        nexthops: &'a [NextHop],
        prefix: &'a Name,
        rng: &'a mut DetRng,
        retx: bool,
    ) -> StrategyCtx<'a> {
        StrategyCtx {
            interest,
            nexthops,
            prefix,
            in_face: f(99),
            is_retransmission: retx,
            now: SimTime::ZERO,
            rng,
        }
    }

    #[test]
    fn best_route_picks_lowest_cost() {
        let mut s = BestRoute::new();
        let i = Interest::new(name!("/p/x"));
        let nh = hops(&[(1, 5), (2, 10)]);
        let p = name!("/p");
        let mut rng = DetRng::new(0);
        assert_eq!(s.select(&mut ctx(&i, &nh, &p, &mut rng, false)), vec![f(1)]);
    }

    #[test]
    fn best_route_rotates_on_retransmission() {
        let mut s = BestRoute::new();
        let i = Interest::new(name!("/p/x"));
        let nh = hops(&[(1, 5), (2, 10), (3, 20)]);
        let p = name!("/p");
        let mut rng = DetRng::new(0);
        let first = s.select(&mut ctx(&i, &nh, &p, &mut rng, true));
        let second = s.select(&mut ctx(&i, &nh, &p, &mut rng, true));
        assert_ne!(first, second, "rotation advances");
        assert_ne!(first, vec![f(1)], "retransmission leaves the best path");
    }

    #[test]
    fn empty_nexthops_yield_empty_everywhere() {
        let i = Interest::new(name!("/p/x"));
        let p = name!("/p");
        let nh: Vec<NextHop> = vec![];
        let mut rng = DetRng::new(0);
        assert!(BestRoute::new().select(&mut ctx(&i, &nh, &p, &mut rng, false)).is_empty());
        assert!(Multicast::new().select(&mut ctx(&i, &nh, &p, &mut rng, false)).is_empty());
        assert!(RoundRobin::new().select(&mut ctx(&i, &nh, &p, &mut rng, false)).is_empty());
        assert!(RttEstimating::new().select(&mut ctx(&i, &nh, &p, &mut rng, false)).is_empty());
    }

    #[test]
    fn multicast_selects_all() {
        let mut s = Multicast::new();
        let i = Interest::new(name!("/p/x"));
        let nh = hops(&[(1, 5), (2, 10), (3, 1)]);
        let p = name!("/p");
        let mut rng = DetRng::new(0);
        let sel = s.select(&mut ctx(&i, &nh, &p, &mut rng, false));
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = RoundRobin::new();
        let i = Interest::new(name!("/p/x"));
        let nh = hops(&[(1, 1), (2, 1)]);
        let p = name!("/p");
        let mut rng = DetRng::new(0);
        let a = s.select(&mut ctx(&i, &nh, &p, &mut rng, false));
        let b = s.select(&mut ctx(&i, &nh, &p, &mut rng, false));
        let c = s.select(&mut ctx(&i, &nh, &p, &mut rng, false));
        assert_eq!(a, c);
        assert_ne!(a, b);
    }

    #[test]
    fn round_robin_state_is_per_prefix() {
        let mut s = RoundRobin::new();
        let i = Interest::new(name!("/p/x"));
        let nh = hops(&[(1, 1), (2, 1)]);
        let p1 = name!("/p1");
        let p2 = name!("/p2");
        let mut rng = DetRng::new(0);
        let a1 = s.select(&mut ctx(&i, &nh, &p1, &mut rng, false));
        let a2 = s.select(&mut ctx(&i, &nh, &p2, &mut rng, false));
        assert_eq!(a1, a2, "independent cursors start at the same hop");
    }

    #[test]
    fn rtt_estimating_prefers_measured_fast_face() {
        let mut s = RttEstimating::new().with_probe_probability(0.0);
        let p = name!("/p");
        s.on_data(&p, f(1), SimDuration::from_millis(80));
        s.on_data(&p, f(2), SimDuration::from_millis(10));
        let i = Interest::new(name!("/p/x"));
        let nh = hops(&[(1, 1), (2, 1)]);
        let mut rng = DetRng::new(0);
        assert_eq!(s.select(&mut ctx(&i, &nh, &p, &mut rng, false)), vec![f(2)]);
    }

    #[test]
    fn rtt_estimating_failure_penalty_moves_traffic() {
        let mut s = RttEstimating::new().with_probe_probability(0.0);
        let p = name!("/p");
        s.on_data(&p, f(1), SimDuration::from_millis(10));
        s.on_data(&p, f(2), SimDuration::from_millis(20));
        // f(1) is best until it fails twice.
        s.on_failure(&p, f(1));
        s.on_failure(&p, f(1));
        let i = Interest::new(name!("/p/x"));
        let nh = hops(&[(1, 1), (2, 1)]);
        let mut rng = DetRng::new(0);
        assert_eq!(s.select(&mut ctx(&i, &nh, &p, &mut rng, false)), vec![f(2)]);
        assert!(s.estimate(&p, f(1)).unwrap() > s.estimate(&p, f(2)).unwrap());
    }

    #[test]
    fn rtt_estimating_ewma_converges() {
        let mut s = RttEstimating::new();
        let p = name!("/p");
        for _ in 0..50 {
            s.on_data(&p, f(1), SimDuration::from_millis(100));
        }
        let est = s.estimate(&p, f(1)).unwrap();
        assert!((est - 0.1).abs() < 0.01, "converged to ~100ms, got {est}");
    }

    #[test]
    fn rtt_estimating_probes_eventually() {
        let mut s = RttEstimating::new().with_probe_probability(0.5);
        let p = name!("/p");
        s.on_data(&p, f(1), SimDuration::from_millis(1));
        let i = Interest::new(name!("/p/x"));
        let nh = hops(&[(1, 1), (2, 1)]);
        let mut rng = DetRng::new(42);
        let mut probed = false;
        for _ in 0..100 {
            let sel = s.select(&mut ctx(&i, &nh, &p, &mut rng, false));
            if sel.len() == 2 {
                probed = true;
                assert!(sel.contains(&f(2)));
            }
        }
        assert!(probed, "with p=0.5, 100 trials must include a probe");
    }
}
