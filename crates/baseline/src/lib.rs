//! # lidc-baseline — the comparators LIDC is measured against
//!
//! The paper's argument (§I) is that existing multi-cluster compute
//! placement either (a) flows through a *logically centralized control
//! plane* — K8s federation, Virtual Kubelet, Cilium Mesh — or (b) is
//! *manually tailored to one platform at a time*. This crate implements
//! both alternatives on the same simulated substrate so the benches can
//! compare them with LIDC's name-based decentralized placement under
//! identical workloads, topologies and failures:
//!
//! * [`central`] — a logically centralized federated controller
//!   ([`central::CentralController`]). Every placement decision flows
//!   through one actor that must be told about every member cluster; it is
//!   also a single point of failure. Its client *is* the LIDC
//!   [`ScienceClient`](lidc_core::client::ScienceClient), deployed by
//!   [`central::deploy_client`] with the controller's
//!   [`Addressing`](lidc_core::client::Addressing) and no result fetch:
//!   requests name the *controller*, not the computation, and submission,
//!   polling, backoff and resubmission are identical by construction.
//! * [`manual`] — the per-platform manual configuration workflow
//!   ([`manual::ManualWorkflow`]): statically attached to one cluster, with
//!   an explicit operator delay charged for every re-tailoring.
//! * [`chaos`] — a harness that runs LIDC and the centralized baseline
//!   under the **same** deterministic fault schedule and compares
//!   completion rate, tail latency and wasted work.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod central;
pub mod chaos;
pub mod manual;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::central::{
        central_prefix, deploy_client, status_name, submit_name, CentralController,
        CentralPolicy,
    };
    pub use crate::chaos::{
        comparison_table, run_baseline_chaos, run_lidc_chaos, ChaosConfig, ChaosOutcome,
    };
    pub use crate::manual::{ManualWorkflow, DEFAULT_RECONFIG_DELAY};
}
