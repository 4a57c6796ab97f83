//! # lidc-k8s — a Kubernetes control-plane simulator
//!
//! The MicroK8s substitution from DESIGN.md §2: everything LIDC touches in
//! Kubernetes, built from scratch on the `lidc-simcore` event loop:
//!
//! * [`meta`] / [`resources`] — object metadata, labels/selectors, CPU and
//!   memory quantities.
//! * [`node`] / [`pod`] / [`service`] / [`job`] / [`deployment`] /
//!   [`storage`] — the API objects (pods carry a simulated
//!   [`pod::WorkloadSpec`] instead of a container image).
//! * [`apiserver`] — the typed object store shared between controllers and
//!   the LIDC gateway, with an append-only event log.
//! * [`scheduler`] — filter/score pod placement that never overcommits.
//! * [`dns`] — CoreDNS-style `<svc>.<ns>.svc.cluster.local` resolution.
//! * [`cluster`] — the control-plane actor running all controllers (PVC
//!   binder, HPA, Deployment, ReplicaSet, Job, scheduler, endpoints) plus
//!   the [`cluster::Cluster`] facade.
//!
//! ## Example: run a job to completion
//!
//! ```
//! use lidc_k8s::prelude::*;
//! use lidc_simcore::prelude::*;
//!
//! let mut sim = Sim::new(0);
//! let cluster = Cluster::spawn(&mut sim, "demo");
//! cluster.add_node(&mut sim, Node::new("n1", Resources::new(8, 16)));
//! let spec = PodSpec::single(ContainerSpec {
//!     name: "work".into(),
//!     image: "demo:1".into(),
//!     requests: Resources::new(2, 4),
//!     workload: WorkloadSpec::run_for(SimDuration::from_secs(30)),
//! });
//! let job = cluster.create_job(&mut sim, "demo-job", spec, 0);
//! sim.run();
//! assert_eq!(cluster.job_condition(&job), Some(JobCondition::Completed));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apiserver;
pub mod cluster;
pub mod deployment;
pub mod dns;
pub mod job;
pub mod meta;
pub mod node;
pub mod pod;
pub mod resources;
pub mod scheduler;
pub mod service;
pub mod storage;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::apiserver::{ApiServer, ClusterEvent, SharedApi};
    pub use crate::cluster::{Cluster, ClusterActor, CordonNode, Nudge, SetHpaLoad, SetNodeReady};
    pub use crate::deployment::{Deployment, Hpa, ReplicaSet};
    pub use crate::dns::{parse_service_dns, resolve};
    pub use crate::job::{Job, JobCondition, JobStatus};
    pub use crate::meta::{LabelSelector, ObjectKey, ObjectMeta, Uid, DEFAULT_NAMESPACE};
    pub use crate::node::Node;
    pub use crate::pod::{ContainerSpec, Pod, PodPhase, PodSpec, WorkloadSpec};
    pub use crate::resources::{Cpu, Memory, Resources};
    pub use crate::scheduler::Scheduler;
    pub use crate::service::{Service, ServicePort, ServiceSpec, ServiceType};
    pub use crate::storage::{NfsExport, PersistentVolume, PersistentVolumeClaim, PvcPhase};
}
