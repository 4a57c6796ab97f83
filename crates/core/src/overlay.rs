//! The multi-cluster overlay: clusters joined through an access router.
//!
//! "Our framework creates a loosely coupled overlay of compute clusters
//! using named cluster endpoints … if multiple clusters expose the same
//! service over an NDN network, the network can bring the compute request
//! to the nearest (or the best) compute cluster." (§I, §III-B)
//!
//! [`Overlay::build`] deploys N [`LidcCluster`]s, wires each gateway NFD to
//! a WAN access router with per-cluster link latency, installs the anycast
//! prefix registrations, arms the placement strategy, and starts the load
//! reporters. Clusters can join ([`Overlay::add_cluster`]), fail
//! ([`Overlay::fail_cluster`]), recover, or leave at any point — the churn
//! experiments exercise exactly this.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use lidc_ndn::face::{FaceId, FaceIdAlloc, LinkProps};
use lidc_ndn::forwarder::{Forwarder, ForwarderConfig, SetFaceUp};
use lidc_simcore::engine::{ActorId, Sim};
use lidc_simcore::time::SimDuration;

use crate::cluster::{LidcCluster, LidcClusterConfig};
use crate::gateway::SharedPredictor;
use crate::naming::compute_prefix;
use crate::placement::{spawn_load_reporter, strategy_for, LoadBoard, PlacementPolicy};
use crate::predictor::RuntimePredictor;

/// Parameters for one overlay member.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Cluster name.
    pub name: String,
    /// WAN latency between the access router and this cluster.
    pub latency: SimDuration,
    /// Node count.
    pub nodes: u32,
    /// Cores per node.
    pub node_cpu_cores: u64,
    /// Memory per node (GiB).
    pub node_mem_gib: u64,
    /// Gateway result-cache capacity.
    pub cache_capacity: usize,
    /// Gateway result-cache byte budget (0 = no byte limit).
    pub cache_budget_bytes: u64,
    /// Submit-ack freshness (network-level caching knob).
    pub ack_freshness: SimDuration,
}

impl ClusterSpec {
    /// A single-node 16-core/64-GiB cluster at the given WAN latency —
    /// the paper's MicroK8s-VM shape.
    pub fn new(name: impl Into<String>, latency: SimDuration) -> Self {
        ClusterSpec {
            name: name.into(),
            latency,
            nodes: 1,
            node_cpu_cores: 16,
            node_mem_gib: 64,
            cache_capacity: 0,
            cache_budget_bytes: 0,
            ack_freshness: SimDuration::ZERO,
        }
    }

    /// Builder: node shape.
    pub fn with_nodes(mut self, nodes: u32, cpu: u64, mem_gib: u64) -> Self {
        self.nodes = nodes;
        self.node_cpu_cores = cpu;
        self.node_mem_gib = mem_gib;
        self
    }

    /// Builder: enable the gateway result cache.
    pub fn with_cache(mut self, capacity: usize, ack_freshness: SimDuration) -> Self {
        self.cache_capacity = capacity;
        self.ack_freshness = ack_freshness;
        self
    }
}

/// Overlay-wide parameters.
#[derive(Debug, Clone)]
pub struct OverlayConfig {
    /// Placement policy for `/ndn/k8s/compute`.
    pub placement: PlacementPolicy,
    /// Member clusters.
    pub clusters: Vec<ClusterSpec>,
    /// Whether clusters load the genomics datasets at deploy time.
    pub load_datasets: bool,
    /// Access-router Content Store capacity (0 disables network caching).
    pub router_cs_capacity: usize,
    /// Access-router Content Store byte budget (0 = no byte limit).
    /// `Default::default()` pairs the default capacity (4096) with its
    /// derived budget (one 1 MiB segment per slot); when overriding
    /// `router_cs_capacity` by struct update, set this too (e.g. via
    /// `lidc_ndn::tables::cs::default_budget_bytes(capacity)`) so the
    /// budget tracks the new capacity.
    pub router_cs_budget_bytes: u64,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            placement: PlacementPolicy::Nearest,
            clusters: Vec::new(),
            load_datasets: true,
            router_cs_capacity: 4096,
            router_cs_budget_bytes: lidc_ndn::tables::cs::default_budget_bytes(4096),
        }
    }
}

/// Load-advertisement period of every member's load reporter.
const LOAD_REPORT_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// A deployed overlay.
pub struct Overlay {
    /// The WAN access router clients attach to.
    pub router: ActorId,
    /// World face-id allocator.
    pub alloc: FaceIdAlloc,
    /// Member clusters, in join order.
    pub clusters: Vec<LidcCluster>,
    /// Advertised-load board.
    pub board: LoadBoard,
    /// The overlay-level predictor (used by the `Learned` policy; trained
    /// by the experiment harness or by gateways feeding observations up).
    pub predictor: SharedPredictor,
    faces: HashMap<String, FaceId>,
    cluster_faces: HashMap<String, FaceId>,
    config: OverlayConfig,
}

impl Overlay {
    /// Build the overlay.
    pub fn build(sim: &mut Sim, config: OverlayConfig) -> Overlay {
        let alloc = FaceIdAlloc::new();
        let router = sim.spawn(
            "wan-router",
            Forwarder::new("wan-router", ForwarderConfig {
                cs_capacity: config.router_cs_capacity,
                cs_budget_bytes: config.router_cs_budget_bytes,
                ..Default::default()
            }),
        );
        let board = LoadBoard::new();
        let predictor: SharedPredictor = Arc::new(RwLock::new(RuntimePredictor::new())); // lidc-lint: allow(actor-isolation) reason="constructor for the SharedPredictor handle justified on the alias in gateway.rs"
        let mut overlay = Overlay {
            router,
            alloc,
            clusters: Vec::new(),
            board,
            predictor,
            faces: HashMap::new(),
            cluster_faces: HashMap::new(),
            config: config.clone(),
        };
        overlay.apply_placement(sim, config.placement);
        let specs = config.clusters.clone();
        for spec in specs {
            overlay.add_cluster(sim, spec);
        }
        overlay
    }

    /// Install the placement strategy for the compute prefix.
    pub fn apply_placement(&mut self, sim: &mut Sim, policy: PlacementPolicy) {
        self.config.placement = policy;
        let strategy = strategy_for(policy, &self.board, &self.predictor);
        sim.actor_mut::<Forwarder>(self.router)
            .expect("router")
            .set_strategy(compute_prefix(), strategy);
    }

    /// The current placement policy.
    pub fn placement(&self) -> PlacementPolicy {
        self.config.placement
    }

    /// Deploy and join a new cluster (works mid-experiment: no client
    /// reconfiguration is needed — that is the point of the paper).
    pub fn add_cluster(&mut self, sim: &mut Sim, spec: ClusterSpec) -> usize {
        let cluster_config = LidcClusterConfig {
            name: spec.name.clone(),
            nodes: spec.nodes,
            node_cpu_cores: spec.node_cpu_cores,
            node_mem_gib: spec.node_mem_gib,
            result_cache_capacity: spec.cache_capacity,
            result_cache_budget_bytes: spec.cache_budget_bytes,
            ack_freshness: spec.ack_freshness,
            load_datasets: self.config.load_datasets,
            ..Default::default()
        };
        let cluster = LidcCluster::deploy(sim, &self.alloc, cluster_config);
        // Every gateway trains the overlay-wide predictor, so the Learned
        // placement strategy sees observations from all members.
        sim.actor_mut::<crate::gateway::Gateway>(cluster.gateway_app)
            .expect("gateway alive")
            .set_predictor(self.predictor.clone());
        let (router_face, cluster_face) = lidc_ndn::net::connect(
            sim,
            self.router,
            cluster.gateway_fwd,
            &self.alloc,
            LinkProps::with_latency(spec.latency),
        );
        // Routing cost = link latency in microseconds (Nearest = BestRoute
        // then picks the lowest-latency cluster).
        let cost = u32::try_from(spec.latency.as_nanos() / 1_000).unwrap_or(u32::MAX);
        cluster.register_on(sim, self.router, router_face, cost);
        spawn_load_reporter(
            sim,
            format!("{}-load-reporter", spec.name),
            cluster.k8s.api.clone(),
            self.board.clone(),
            router_face,
            LOAD_REPORT_INTERVAL,
        );
        self.faces.insert(spec.name.clone(), router_face);
        self.cluster_faces.insert(spec.name.clone(), cluster_face);
        self.clusters.push(cluster);
        self.clusters.len() - 1
    }

    /// The router-side face leading to a cluster.
    pub fn face_of(&self, cluster: &str) -> Option<FaceId> {
        self.faces.get(cluster).copied()
    }

    /// The cluster-side face of a member's WAN link (on its gateway NFD).
    pub fn cluster_face_of(&self, cluster: &str) -> Option<FaceId> {
        self.cluster_faces.get(cluster).copied()
    }

    /// Find a member by name.
    pub fn cluster(&self, name: &str) -> Option<&LidcCluster> {
        self.clusters.iter().find(|c| c.name == name)
    }

    /// Simulate a cluster failure / partition: the router's face to it goes
    /// down. Pending PIT state times out; new requests route elsewhere.
    pub fn fail_cluster(&self, sim: &mut Sim, name: &str) {
        if let Some(face) = self.face_of(name) {
            sim.send(self.router, SetFaceUp { face, up: false });
        }
    }

    /// Bring a failed cluster back.
    pub fn restore_cluster(&self, sim: &mut Sim, name: &str) {
        if let Some(face) = self.face_of(name) {
            sim.send(self.router, SetFaceUp { face, up: true });
        }
    }

    /// Gracefully remove a cluster: unregister its prefixes, then take the
    /// face down.
    pub fn remove_cluster(&mut self, sim: &mut Sim, name: &str) {
        let (Some(face), Some(cluster)) = (
            self.face_of(name),
            self.clusters.iter().find(|c| c.name == name).cloned(),
        ) else {
            return;
        };
        cluster.unregister_from(sim, self.router, face);
        sim.send(self.router, SetFaceUp { face, up: false });
        self.faces.remove(name);
        self.cluster_faces.remove(name);
    }

    /// Names of currently-registered (joined, not removed) clusters.
    pub fn member_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.faces.keys().cloned().collect();
        names.sort();
        names
    }
}
