//! LIDC cluster assembly: one deployable unit of the framework.
//!
//! Mirrors the paper's §IV deployment: "LIDC configures the following
//! components: (a) a gateway, in which a single NFD pod acts as the gateway
//! to the services running on this cluster, and (b) a Kubernetes PVC …
//! mounted to an NFS server, which functions like a remote data lake."
//!
//! Concretely, [`LidcCluster::deploy`] stands up:
//!
//! * a simulated Kubernetes cluster with nodes, the `gateway-nfd` NodePort
//!   service, the `dl-nfd` ClusterIP service (paper Fig. 3), and in-cluster
//!   deployments backing them;
//! * an NFS export bound through PV/PVC, wrapped as the data-lake repo;
//! * two NDN forwarders (gateway NFD and data-lake NFD) wired together;
//! * the [`Gateway`] application and the data-lake [`FileServer`];
//! * prefix registrations: `/ndn/k8s/compute` and `/ndn/k8s/status` to the
//!   gateway app, `/ndn/k8s/data` to the data-lake NFD (paper §IV).

use lidc_datalake::fileserver::FileServer;
use lidc_datalake::loader::DataLoader;
use lidc_datalake::repo::{NfsRepo, SharedRepo};
use lidc_genomics::blast::{HUMAN_REFERENCE, HUMAN_REFERENCE_BYTES};
use lidc_genomics::sra::{kidney_series, paper_runs, rice_series};
use lidc_k8s::cluster::{Cluster, ClusterConfig};
use lidc_k8s::deployment::Deployment;
use lidc_k8s::node::Node;
use lidc_k8s::pod::{ContainerSpec, PodSpec, WorkloadSpec};
use lidc_k8s::resources::{Memory, Resources};
use lidc_k8s::service::Service;
use lidc_k8s::storage::{NfsExport, PersistentVolume, PersistentVolumeClaim};
use lidc_datalake::loader::DatasetSpec;
use lidc_ndn::face::{FaceId, FaceIdAlloc, LinkProps};
use lidc_ndn::forwarder::{Forwarder, ForwarderConfig};
use lidc_ndn::name::Name;
use lidc_ndn::net::{attach_app, connect};
use lidc_simcore::engine::{ActorId, Sim};
use lidc_simcore::time::SimDuration;

use crate::gateway::{Gateway, GatewayConfig, GatewayStats, SharedPredictor};
use crate::naming::{compute_prefix, data_prefix, status_prefix};

/// Deployment parameters for one LIDC cluster.
#[derive(Debug, Clone)]
pub struct LidcClusterConfig {
    /// Cluster name (also the status-routing segment).
    pub name: String,
    /// Worker node count. The paper's testbed is a single-node MicroK8s VM;
    /// multi-node clusters are supported.
    pub nodes: u32,
    /// Cores per node.
    pub node_cpu_cores: u64,
    /// Memory per node (GiB).
    pub node_mem_gib: u64,
    /// Gateway result-cache capacity (0 = off, the base system).
    pub result_cache_capacity: usize,
    /// Gateway result-cache byte budget (0 = no byte limit).
    pub result_cache_budget_bytes: u64,
    /// Content Store byte budget for the cluster's two NFDs (0 = no byte
    /// limit; the default derives from the default CS capacity, one 1 MiB
    /// segment per entry slot).
    pub cs_budget_bytes: u64,
    /// Submit-ack freshness (see [`GatewayConfig::ack_freshness`]).
    pub ack_freshness: SimDuration,
    /// Whether to run the data-loading tool at deploy time (paper §V-B).
    pub load_datasets: bool,
    /// Gateway-NFD ↔ data-lake-NFD link latency.
    pub internal_latency: SimDuration,
}

impl Default for LidcClusterConfig {
    fn default() -> Self {
        LidcClusterConfig {
            name: "cluster".to_owned(),
            nodes: 1,
            node_cpu_cores: 16,
            node_mem_gib: 64,
            result_cache_capacity: 0,
            result_cache_budget_bytes: 0,
            cs_budget_bytes: ForwarderConfig::default().cs_budget_bytes,
            ack_freshness: SimDuration::ZERO,
            load_datasets: true,
            internal_latency: SimDuration::from_micros(200),
        }
    }
}

impl LidcClusterConfig {
    /// A config named `name` with defaults elsewhere.
    pub fn named(name: impl Into<String>) -> Self {
        LidcClusterConfig {
            name: name.into(),
            ..Default::default()
        }
    }
}

/// A deployed LIDC cluster.
#[derive(Clone)]
pub struct LidcCluster {
    /// Cluster name.
    pub name: String,
    /// The gateway NFD (externally exposed through NodePort; WAN links
    /// attach here).
    pub gateway_fwd: ActorId,
    /// The data-lake NFD.
    pub dl_fwd: ActorId,
    /// The gateway application actor.
    pub gateway_app: ActorId,
    /// The data-lake file-server actor.
    pub fileserver: ActorId,
    /// The Kubernetes cluster.
    pub k8s: Cluster,
    /// The data-lake repository (PVC/NFS-backed).
    pub repo: SharedRepo,
    /// The raw NFS export behind the repo.
    pub export: NfsExport,
}

impl LidcCluster {
    /// Deploy a cluster into the simulation.
    pub fn deploy(sim: &mut Sim, alloc: &FaceIdAlloc, config: LidcClusterConfig) -> LidcCluster {
        let name = config.name.clone();
        // --- Kubernetes cluster and nodes ---
        let k8s = Cluster::spawn(sim, ClusterConfig::named(&name));
        for i in 0..config.nodes.max(1) {
            k8s.add_node(
                sim,
                Node::new(
                    format!("{name}-node-{i}"),
                    Resources::new(config.node_cpu_cores, config.node_mem_gib),
                ),
            );
        }
        // --- Storage: NFS export bound via PV/PVC (paper §IV) ---
        let export = NfsExport::new();
        k8s.add_pv(
            sim,
            PersistentVolume::new(format!("{name}-nfs-pv"), Memory::gib(1024), export.clone()),
        );
        k8s.create_pvc(sim, PersistentVolumeClaim::new("datalake", Memory::gib(512)));
        let repo: SharedRepo = NfsRepo::shared(export.clone());
        // --- Services (paper Fig. 3): NodePort gateway, ClusterIP dl-nfd ---
        k8s.create_service(sim, Service::node_port("gateway-nfd", "gateway-nfd", 6363));
        k8s.create_service(sim, Service::cluster_ip("dl-nfd", "dl-nfd", 6363));
        // Long-running pods backing the two services.
        let daemon = |app: &str| {
            PodSpec::single(ContainerSpec {
                name: app.to_owned(),
                image: format!("lidc/{app}:latest"),
                requests: Resources {
                    cpu: lidc_k8s::resources::Cpu::millis(500),
                    memory: Memory::mib(512),
                },
                workload: WorkloadSpec::Forever,
            })
        };
        k8s.create_deployment(
            sim,
            Deployment::new("gateway-nfd", "gateway-nfd", 1, daemon("gateway-nfd")),
        );
        k8s.create_deployment(sim, Deployment::new("dl-nfd", "dl-nfd", 1, daemon("dl-nfd")));
        // --- NDN forwarders ---
        let nfd_config = ForwarderConfig {
            cs_budget_bytes: config.cs_budget_bytes,
            ..Default::default()
        };
        let gateway_fwd = sim.spawn(
            format!("{name}-gw-nfd"),
            Forwarder::new(format!("{name}-gw-nfd"), nfd_config.clone()),
        );
        let dl_fwd = sim.spawn(
            format!("{name}-dl-nfd"),
            Forwarder::new(format!("{name}-dl-nfd"), nfd_config),
        );
        let (gw_to_dl, _dl_to_gw) = connect(
            sim,
            gateway_fwd,
            dl_fwd,
            alloc,
            LinkProps::with_latency(config.internal_latency),
        );
        // --- Data-lake file server on the dl NFD ---
        let fileserver = FileServer::new(data_prefix(), repo.clone()).deploy(
            sim,
            dl_fwd,
            alloc,
            format!("{name}-fileserver"),
        );
        // --- Gateway application on the gateway NFD ---
        let gateway_config = GatewayConfig {
            cluster_name: name.clone(),
            result_cache_capacity: config.result_cache_capacity,
            result_cache_budget_bytes: config.result_cache_budget_bytes,
            ack_freshness: config.ack_freshness,
            ..Default::default()
        };
        let gateway = Gateway::new(gateway_config, k8s.clone(), repo.clone());
        let gateway_app = sim.spawn(format!("{name}-gateway"), gateway);
        let gw_face = attach_app(sim, gateway_fwd, gateway_app, alloc);
        sim.actor_mut::<Gateway>(gateway_app)
            .unwrap()
            .set_producer(lidc_ndn::app::Producer::new(gateway_fwd, gw_face));
        // --- Prefix registrations (paper §IV) ---
        {
            let fwd = sim.actor_mut::<Forwarder>(gateway_fwd).unwrap();
            fwd.register_prefix(compute_prefix(), gw_face, 0);
            fwd.register_prefix(status_prefix(), gw_face, 0);
            fwd.register_prefix(data_prefix(), gw_to_dl, 0);
        }
        let cluster = LidcCluster {
            name,
            gateway_fwd,
            dl_fwd,
            gateway_app,
            fileserver,
            k8s,
            repo,
            export,
        };
        if config.load_datasets {
            cluster.load_datasets();
        }
        cluster
    }

    /// Run the data-loading tool (paper §V-B): the human reference database
    /// plus the two Table I samples and the full rice/kidney series.
    pub fn load_datasets(&self) -> lidc_datalake::loader::LoadStats {
        let mut loader = DataLoader::new().add(DatasetSpec::new(
            Name::root().child_str("ref").child_str(HUMAN_REFERENCE),
            HUMAN_REFERENCE_BYTES,
            0xFEED,
            "human reference database",
        ));
        for run in paper_runs().into_iter().chain(rice_series()).chain(kidney_series()) {
            loader = loader.add(run.dataset_spec());
        }
        loader.load_into(self.repo.as_ref(), &data_prefix())
    }

    /// Gateway statistics snapshot.
    pub fn gateway_stats(&self, sim: &Sim) -> GatewayStats {
        sim.actor::<Gateway>(self.gateway_app)
            .expect("gateway alive")
            .stats
    }

    /// The gateway's shared completion-time predictor.
    pub fn predictor(&self, sim: &Sim) -> SharedPredictor {
        sim.actor::<Gateway>(self.gateway_app)
            .expect("gateway alive")
            .predictor()
    }

    /// Register this cluster's prefixes on an upstream router face (the
    /// face on `router` that leads to this cluster's gateway NFD).
    ///
    /// `/ndn/k8s/compute` and `/ndn/k8s/data` are anycast (every cluster
    /// serves them); `/ndn/k8s/status/<name>` and
    /// `/ndn/k8s/data/results/<name>` route exactly here.
    pub fn register_on(&self, sim: &mut Sim, router: ActorId, face: FaceId, cost: u32) {
        let fwd = sim.actor_mut::<Forwarder>(router).expect("router");
        fwd.register_prefix(compute_prefix(), face, cost);
        fwd.register_prefix(data_prefix(), face, cost);
        fwd.register_prefix(status_prefix().child_str(&self.name), face, cost);
        fwd.register_prefix(
            data_prefix().child_str("results").child_str(&self.name),
            face,
            cost,
        );
    }

    /// Unregister this cluster's prefixes from a router face.
    pub fn unregister_from(&self, sim: &mut Sim, router: ActorId, face: FaceId) {
        let fwd = sim.actor_mut::<Forwarder>(router).expect("router");
        fwd.unregister_prefix(&compute_prefix(), face);
        fwd.unregister_prefix(&data_prefix(), face);
        fwd.unregister_prefix(&status_prefix().child_str(&self.name), face);
        fwd.unregister_prefix(
            &data_prefix().child_str("results").child_str(&self.name),
            face,
        );
    }
}
