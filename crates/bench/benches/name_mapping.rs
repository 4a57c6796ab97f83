//! Criterion bench for the Fig. 4 gateway mapping path: semantic compute
//! name → parsed request → named Kubernetes service endpoint, at several
//! service-table sizes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lidc_core::naming::{classify, ComputeRequest, RequestKind};
use lidc_k8s::cluster::Cluster;
use lidc_k8s::deployment::Deployment;
use lidc_k8s::dns::resolve;
use lidc_k8s::node::Node;
use lidc_k8s::pod::{ContainerSpec, PodSpec, WorkloadSpec};
use lidc_k8s::resources::{Cpu, Memory, Resources};
use lidc_k8s::service::Service;
use lidc_ndn::name::Name;
use lidc_simcore::engine::Sim;

fn cluster_with_services(n_apps: usize) -> (Sim, Cluster) {
    let mut sim = Sim::new(4_000 + n_apps as u64);
    let k8s = Cluster::spawn(&mut sim, "bench");
    for i in 0..((n_apps as u32 / 8) + 1) {
        k8s.add_node(&mut sim, Node::new(format!("node-{i}"), Resources::new(16, 64)));
    }
    for i in 0..n_apps {
        let app = format!("app-{i}");
        k8s.create_service(&mut sim, Service::cluster_ip(&app, &app, 6363));
        let daemon = PodSpec::single(ContainerSpec {
            name: app.clone(),
            image: format!("lidc/{app}:latest"),
            requests: Resources {
                cpu: Cpu::millis(100),
                memory: Memory::mib(64),
            },
            workload: WorkloadSpec::Forever,
        });
        k8s.create_deployment(&mut sim, Deployment::new(&app, &app, 1, daemon));
    }
    sim.run();
    (sim, k8s)
}

fn bench_mapping(c: &mut Criterion) {
    let mut g = c.benchmark_group("name_to_service");
    for &n_apps in &[4usize, 64] {
        let (_sim, k8s) = cluster_with_services(n_apps);
        let api = k8s.api.read();
        let names: Vec<Name> = (0..256)
            .map(|i| {
                ComputeRequest::new(format!("app-{}", i % n_apps), 2, 4)
                    .with_param("tag", i.to_string())
                    .to_name()
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("map_256_names", n_apps), &n_apps, |b, _| {
            b.iter(|| {
                let mut mapped = 0usize;
                for name in &names {
                    if let RequestKind::Compute(req) = classify(black_box(name)) {
                        let dns = format!("{}.ndnk8s.svc.cluster.local", req.app);
                        if resolve(&api, &dns).map(|r| !r.endpoints.is_empty()).unwrap_or(false) {
                            mapped += 1;
                        }
                    }
                }
                assert_eq!(mapped, 256);
                mapped
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_mapping);
criterion_main!(benches);
