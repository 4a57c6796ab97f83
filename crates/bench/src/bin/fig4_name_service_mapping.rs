//! **Fig. 4 — Mapping NDN names to Kubernetes services.**
//!
//! The gateway's core trick: parse a semantic compute name, pick the named
//! in-cluster service endpoint that serves the application, and hand the
//! job over. This experiment measures that mapping in isolation —
//! correctness and throughput of `classify` → `ComputeRequest::from_name` →
//! Kubernetes DNS service resolution — as the number of named service
//! endpoints grows.
//!
//! ```text
//! cargo run -p lidc-bench --release --bin fig4_name_service_mapping
//! ```

use std::time::Instant;

use lidc_bench::finish;
use lidc_core::naming::{classify, ComputeRequest, RequestKind};
use lidc_k8s::cluster::Cluster;
use lidc_k8s::deployment::Deployment;
use lidc_k8s::dns::resolve;
use lidc_k8s::node::Node;
use lidc_k8s::pod::{ContainerSpec, PodSpec, WorkloadSpec};
use lidc_k8s::resources::{Cpu, Memory, Resources};
use lidc_k8s::service::Service;
use lidc_simcore::engine::Sim;
use lidc_simcore::report::{Report, Table};

const NAMES_PER_ROUND: usize = 10_000;

/// Deploy a cluster exposing `n_apps` named services, each backed by one
/// running pod.
fn cluster_with_services(sim: &mut Sim, n_apps: usize) -> Cluster {
    let k8s = Cluster::spawn(sim, "svc-cluster");
    for i in 0..((n_apps as u32 / 8) + 1) {
        k8s.add_node(
            sim,
            Node::new(format!("node-{i}"), Resources::new(16, 64)),
        );
    }
    for i in 0..n_apps {
        let app = format!("app-{i}");
        k8s.create_service(sim, Service::cluster_ip(&app, &app, 6363));
        let daemon = PodSpec::single(ContainerSpec {
            name: app.clone(),
            image: format!("lidc/{app}:latest"),
            requests: Resources {
                cpu: Cpu::millis(100),
                memory: Memory::mib(64),
            },
            workload: WorkloadSpec::Forever,
        });
        k8s.create_deployment(sim, Deployment::new(&app, &app, 1, daemon));
    }
    sim.run();
    k8s
}

fn main() {
    let mut report = Report::new("fig4", "Fig. 4 — NDN name → K8s service mapping");
    report.note(format!(
        "{NAMES_PER_ROUND} compute names per round, mapped to named service endpoints; wall-clock throughput of the gateway mapping path."
    ));

    let mut t = Table::new(
        "Mapping correctness and throughput vs. service count",
        &[
            "services",
            "names",
            "mapped correctly",
            "ns / mapping",
            "mappings / s",
        ],
    );

    for &n_apps in &[1usize, 4, 16, 64] {
        let mut sim = Sim::new(44 + n_apps as u64);
        let k8s = cluster_with_services(&mut sim, n_apps);
        let api = k8s.api.read();

        // Pre-generate the name stream (not timed).
        let names: Vec<_> = (0..NAMES_PER_ROUND)
            .map(|i| {
                ComputeRequest::new(format!("app-{}", i % n_apps), 2, 4)
                    .with_param("tag", i.to_string())
                    .to_name()
            })
            .collect();

        let start = Instant::now();
        let mut correct = 0usize;
        for (i, name) in names.iter().enumerate() {
            // The gateway path: classify the Interest, extract the app,
            // resolve the app's named service, check it has endpoints.
            let RequestKind::Compute(req) = classify(name) else {
                continue;
            };
            let dns_name = format!("{}.ndnk8s.svc.cluster.local", req.app);
            if let Ok(r) = resolve(&api, &dns_name) {
                if !r.endpoints.is_empty() && req.app == format!("app-{}", i % n_apps) {
                    correct += 1;
                }
            }
        }
        let elapsed = start.elapsed();
        assert_eq!(correct, NAMES_PER_ROUND, "all names must map");
        let ns_per = elapsed.as_nanos() as f64 / NAMES_PER_ROUND as f64;
        t.push_row(vec![
            n_apps.to_string(),
            NAMES_PER_ROUND.to_string(),
            format!("{correct}/{NAMES_PER_ROUND}"),
            format!("{ns_per:.0}"),
            format!("{:.0}", 1e9 / ns_per),
        ]);
    }
    report.add_table(t);

    // Unknown apps do not silently map.
    let mut sim = Sim::new(4_441);
    let k8s = cluster_with_services(&mut sim, 2);
    let api = k8s.api.read();
    let bogus = ComputeRequest::new("no-such-app", 2, 4).to_name();
    let RequestKind::Compute(req) = classify(&bogus) else {
        panic!("compute name must classify");
    };
    let err = resolve(&api, &format!("{}.ndnk8s.svc.cluster.local", req.app));
    let mut neg = Table::new("Negative mapping", &["name", "resolution"]);
    neg.push_row(vec![bogus.to_uri(), format!("{:?}", err.expect_err("NXDOMAIN"))]);
    report.add_table(neg);

    finish(&report);
}
