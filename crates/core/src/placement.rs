//! Placement policies: how the network chooses among clusters.
//!
//! In LIDC the placement decision *is* the forwarding decision: several
//! clusters advertise `/ndn/k8s/compute`, and the strategy on the access
//! router picks the face = cluster. The paper ships nearest-cluster
//! forwarding and sketches "intelligence in the network" (§VI/§VII); the
//! ablation `ablate_placement` compares these policies:
//!
//! * [`PlacementPolicy::Nearest`] — lowest routing cost (the paper's
//!   deployed behaviour).
//! * [`PlacementPolicy::RoundRobin`] — spread blindly.
//! * [`PlacementPolicy::Adaptive`] — smoothed-RTT forwarding (network-level
//!   "past performances").
//! * [`PlacementPolicy::LeastLoaded`] — clusters advertise utilisation on a
//!   [`LoadBoard`]; the router picks the least-loaded cluster.
//! * [`PlacementPolicy::Learned`] — predicted completion time (runtime
//!   prediction × load factor), the §VII future-work policy.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use lidc_k8s::apiserver::SharedApi;
use lidc_ndn::face::FaceId;
use lidc_ndn::name::Name;
use lidc_ndn::strategy::{BestRoute, RoundRobin, RttEstimating, Strategy, StrategyCtx};
use lidc_simcore::engine::{Actor, ActorId, Ctx, Msg};
use lidc_simcore::time::SimDuration;

use crate::gateway::SharedPredictor;
use crate::naming::{classify, RequestKind};
use crate::predictor::JobFeatures;

/// Placement policy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Lowest-cost (nearest) cluster — the paper's deployed behaviour.
    #[default]
    Nearest,
    /// Cycle through clusters.
    RoundRobin,
    /// Smoothed-RTT adaptive forwarding.
    Adaptive,
    /// Least advertised utilisation.
    LeastLoaded,
    /// Predicted completion time (learned, §VII).
    Learned,
}

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PlacementPolicy::Nearest => "nearest",
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::Adaptive => "adaptive-rtt",
            PlacementPolicy::LeastLoaded => "least-loaded",
            PlacementPolicy::Learned => "learned",
        };
        f.write_str(s)
    }
}

/// A shared board of per-face (per-cluster) advertised load in `[0, ∞)`.
/// 0 = idle, 1 = fully utilised, >1 = queueing.
#[derive(Clone, Default)]
pub struct LoadBoard {
    // lidc-lint: allow(actor-isolation) reason="models the NDN load-advertisement side channel: reporters publish and the router strategy reads point values keyed by face, with no cross-event lock holds"
    inner: Arc<RwLock<HashMap<FaceId, f64>>>,
}

impl LoadBoard {
    /// Empty board.
    pub fn new() -> Self {
        LoadBoard::default()
    }

    /// Publish the load behind `face`.
    pub fn publish(&self, face: FaceId, load: f64) {
        self.inner.write().insert(face, load.max(0.0));
    }

    /// Read the load behind `face` (unknown faces read as 0 = idle,
    /// optimistically).
    pub fn load(&self, face: FaceId) -> f64 {
        self.inner.read().get(&face).copied().unwrap_or(0.0)
    }

    /// Snapshot (diagnostics).
    pub fn snapshot(&self) -> Vec<(FaceId, f64)> {
        let mut v: Vec<(FaceId, f64)> = self.inner.read().iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by_key(|(f, _)| *f);
        v
    }
}

/// Strategy: forward to the least-loaded advertised cluster.
pub struct LeastLoadedStrategy {
    board: LoadBoard,
}

impl LeastLoadedStrategy {
    /// Build over a board.
    pub fn new(board: LoadBoard) -> Self {
        LeastLoadedStrategy { board }
    }
}

impl Strategy for LeastLoadedStrategy {
    fn strategy_name(&self) -> &'static str {
        "least-loaded"
    }

    fn select(&mut self, ctx: &mut StrategyCtx<'_>) -> Vec<FaceId> {
        ctx.nexthops
            .iter()
            .map(|nh| nh.face)
            .min_by(|a, b| {
                let la = self.board.load(*a);
                let lb = self.board.load(*b);
                la.partial_cmp(&lb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(b))
            })
            .map(|f| vec![f])
            .unwrap_or_default()
    }
}

/// Strategy: forward to the cluster with the lowest predicted completion
/// time = predicted runtime × (1 + advertised load). Falls back to pure
/// load when the predictor has no model for the app yet.
pub struct LearnedStrategy {
    board: LoadBoard,
    predictor: SharedPredictor,
}

impl LearnedStrategy {
    /// Build over a board and predictor.
    pub fn new(board: LoadBoard, predictor: SharedPredictor) -> Self {
        LearnedStrategy { board, predictor }
    }

    fn score(&self, face: FaceId, interest_name: &Name) -> f64 {
        let load = self.board.load(face);
        let runtime = match classify(interest_name) {
            RequestKind::Compute(req) => {
                let features = JobFeatures {
                    input_bytes: req
                        .param("size")
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(1_000_000_000),
                    cpu_cores: req.cpu_cores,
                    mem_gib: req.mem_gib,
                };
                self.predictor
                    .read()
                    .predict(&req.app, features)
                    .unwrap_or(1.0)
            }
            _ => 1.0,
        };
        runtime * (1.0 + load)
    }
}

impl Strategy for LearnedStrategy {
    fn strategy_name(&self) -> &'static str {
        "learned"
    }

    fn select(&mut self, ctx: &mut StrategyCtx<'_>) -> Vec<FaceId> {
        let name = ctx.interest.name.clone();
        ctx.nexthops
            .iter()
            .map(|nh| nh.face)
            .min_by(|a, b| {
                let sa = self.score(*a, &name);
                let sb = self.score(*b, &name);
                sa.partial_cmp(&sb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(b))
            })
            .map(|f| vec![f])
            .unwrap_or_default()
    }
}

/// Instantiate the NDN strategy implementing a policy.
pub fn strategy_for(
    policy: PlacementPolicy,
    board: &LoadBoard,
    predictor: &SharedPredictor,
) -> Box<dyn Strategy> {
    match policy {
        PlacementPolicy::Nearest => Box::new(BestRoute::new()),
        PlacementPolicy::RoundRobin => Box::new(RoundRobin::new()),
        PlacementPolicy::Adaptive => Box::new(RttEstimating::new()),
        PlacementPolicy::LeastLoaded => Box::new(LeastLoadedStrategy::new(board.clone())),
        PlacementPolicy::Learned => {
            Box::new(LearnedStrategy::new(board.clone(), predictor.clone()))
        }
    }
}

/// Periodically publishes a cluster's utilisation onto a [`LoadBoard`]
/// (the cluster-capability advertisement of §VII).
pub struct LoadReporter {
    api: SharedApi,
    board: LoadBoard,
    face: FaceId,
    interval: SimDuration,
}

struct ReportTick;

impl LoadReporter {
    /// Build a reporter for the cluster behind `face`.
    pub fn new(api: SharedApi, board: LoadBoard, face: FaceId, interval: SimDuration) -> Self {
        LoadReporter {
            api,
            board,
            face,
            interval,
        }
    }

    fn report(&self) {
        let api = self.api.read();
        let allocatable = api.cluster_allocatable();
        let free = api.cluster_free();
        let used = allocatable.saturating_sub(&free);
        let mut load = used.dominant_utilisation(&allocatable);
        // Unschedulable (queued) pods push the advertised load above 1.
        let queued = api
            .pods
            .values()
            .filter(|p| {
                p.status.phase == lidc_k8s::pod::PodPhase::Pending && p.status.node.is_none()
            })
            .count();
        load += 0.25 * queued as f64;
        self.board.publish(self.face, load);
    }
}

impl Actor for LoadReporter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.report();
        // Background timer: an idle overlay must not keep the sim alive
        // just because load advertisements would tick forever.
        ctx.schedule_self_background(self.interval, ReportTick);
    }

    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        if msg.downcast::<ReportTick>().is_ok() {
            self.report();
            ctx.schedule_self_background(self.interval, ReportTick);
        }
    }
}

/// Spawn a load reporter actor.
pub fn spawn_load_reporter(
    sim: &mut lidc_simcore::engine::Sim,
    label: impl Into<String>,
    api: SharedApi,
    board: LoadBoard,
    face: FaceId,
    interval: SimDuration,
) -> ActorId {
    sim.spawn(label.into(), LoadReporter::new(api, board, face, interval))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidc_ndn::name;
    use lidc_ndn::packet::Interest;
    use lidc_ndn::tables::fib::NextHop;
    use lidc_simcore::rng::DetRng;
    use lidc_simcore::time::SimTime;

    fn f(id: u64) -> FaceId {
        FaceId::from_raw(id)
    }

    fn hops(ids: &[u64]) -> Vec<NextHop> {
        ids.iter().map(|id| NextHop { face: f(*id), cost: 1 }).collect()
    }

    fn run_select(s: &mut dyn Strategy, nexthops: &[NextHop], uri: &str) -> Vec<FaceId> {
        let interest = Interest::new(Name::parse(uri).unwrap());
        let prefix = name!("/ndn/k8s");
        let mut rng = DetRng::new(0);
        let mut ctx = StrategyCtx {
            interest: &interest,
            nexthops,
            prefix: &prefix,
            in_face: f(99),
            is_retransmission: false,
            now: SimTime::ZERO,
            rng: &mut rng,
        };
        s.select(&mut ctx)
    }

    #[test]
    fn load_board_defaults_optimistic() {
        let board = LoadBoard::new();
        assert_eq!(board.load(f(1)), 0.0);
        board.publish(f(1), 0.7);
        assert_eq!(board.load(f(1)), 0.7);
        board.publish(f(2), -3.0);
        assert_eq!(board.load(f(2)), 0.0, "clamped non-negative");
        assert_eq!(board.snapshot().len(), 2);
    }

    #[test]
    fn least_loaded_picks_minimum() {
        let board = LoadBoard::new();
        board.publish(f(1), 0.9);
        board.publish(f(2), 0.2);
        board.publish(f(3), 0.5);
        let mut s = LeastLoadedStrategy::new(board);
        let sel = run_select(&mut s, &hops(&[1, 2, 3]), "/ndn/k8s/compute/mem=1&cpu=1&app=X");
        assert_eq!(sel, vec![f(2)]);
    }

    #[test]
    fn least_loaded_tie_breaks_by_face() {
        let board = LoadBoard::new();
        board.publish(f(1), 0.5);
        board.publish(f(2), 0.5);
        let mut s = LeastLoadedStrategy::new(board);
        let sel = run_select(&mut s, &hops(&[2, 1]), "/ndn/k8s/compute/mem=1&cpu=1&app=X");
        assert_eq!(sel, vec![f(1)], "deterministic tie-break");
    }

    #[test]
    fn learned_prefers_lower_predicted_completion() {
        let board = LoadBoard::new();
        board.publish(f(1), 1.0); // busy
        board.publish(f(2), 0.0); // idle
        let predictor: SharedPredictor =
            Arc::new(RwLock::new(crate::predictor::RuntimePredictor::new()));
        // Same runtime predicted everywhere; load decides.
        predictor.write().observe(
            "BLAST",
            JobFeatures {
                input_bytes: 1_000_000_000,
                cpu_cores: 2,
                mem_gib: 4,
            },
            100.0,
        );
        let mut s = LearnedStrategy::new(board, predictor);
        let sel = run_select(
            &mut s,
            &hops(&[1, 2]),
            "/ndn/k8s/compute/mem=4&cpu=2&app=BLAST&ref=HUMAN&srr=SRR2931415",
        );
        assert_eq!(sel, vec![f(2)]);
    }

    #[test]
    fn empty_nexthops_empty_selection() {
        let board = LoadBoard::new();
        let mut s = LeastLoadedStrategy::new(board.clone());
        assert!(run_select(&mut s, &[], "/ndn/k8s/compute/mem=1&cpu=1&app=X").is_empty());
        let predictor: SharedPredictor =
            Arc::new(RwLock::new(crate::predictor::RuntimePredictor::new()));
        let mut s = LearnedStrategy::new(board, predictor);
        assert!(run_select(&mut s, &[], "/ndn/k8s/compute/mem=1&cpu=1&app=X").is_empty());
    }

    #[test]
    fn strategy_factory_covers_all_policies() {
        let board = LoadBoard::new();
        let predictor: SharedPredictor =
            Arc::new(RwLock::new(crate::predictor::RuntimePredictor::new()));
        for policy in [
            PlacementPolicy::Nearest,
            PlacementPolicy::RoundRobin,
            PlacementPolicy::Adaptive,
            PlacementPolicy::LeastLoaded,
            PlacementPolicy::Learned,
        ] {
            let s = strategy_for(policy, &board, &predictor);
            assert!(!s.strategy_name().is_empty());
        }
    }
}
