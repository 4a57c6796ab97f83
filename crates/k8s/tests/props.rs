//! Property-based tests for the Kubernetes simulator: resource arithmetic,
//! scheduler feasibility (never over-commits a node), and DNS name parsing.

use lidc_k8s::apiserver::ApiServer;
use lidc_k8s::dns::{parse_service_dns, resolve};
use lidc_k8s::meta::ObjectMeta;
use lidc_k8s::node::Node;
use lidc_k8s::pod::{ContainerSpec, Pod, PodSpec, WorkloadSpec};
use lidc_k8s::resources::{Cpu, Memory, Resources};
use lidc_k8s::scheduler::Scheduler;
use lidc_k8s::service::Service;
use lidc_simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;

// --- resources ---------------------------------------------------------------

proptest! {
    #[test]
    fn resources_fits_iff_both_axes_fit(
        a_cpu in 0u64..64, a_mem in 0u64..256,
        b_cpu in 0u64..64, b_mem in 0u64..256,
    ) {
        let a = Resources::new(a_cpu, a_mem);
        let b = Resources::new(b_cpu, b_mem);
        prop_assert_eq!(a.fits_in(&b), a_cpu <= b_cpu && a_mem <= b_mem);
    }

    #[test]
    fn resources_add_then_subtract_is_identity(
        a_cpu in 0u64..64, a_mem in 0u64..256,
        b_cpu in 0u64..64, b_mem in 0u64..256,
    ) {
        let a = Resources::new(a_cpu, a_mem);
        let b = Resources::new(b_cpu, b_mem);
        let sum = a + b;
        prop_assert_eq!(sum.saturating_sub(&b), a);
        prop_assert!(a.fits_in(&sum) && b.fits_in(&sum));
    }

    #[test]
    fn dominant_utilisation_bounded_when_fitting(
        used_cpu in 0u64..32, used_mem in 0u64..128,
        cap_cpu in 1u64..64, cap_mem in 1u64..256,
    ) {
        let used = Resources::new(used_cpu.min(cap_cpu), used_mem.min(cap_mem));
        let cap = Resources::new(cap_cpu, cap_mem);
        let util = used.dominant_utilisation(&cap);
        prop_assert!((0.0..=1.0).contains(&util), "{util}");
        let full = cap.dominant_utilisation(&cap);
        prop_assert!((full - 1.0).abs() < 1e-9);
    }

    #[test]
    fn millicore_and_mib_round_trips(millis in 0u64..1_000_000, mib in 0u64..1 << 22) {
        prop_assert_eq!(Cpu::millis(millis).0, millis);
        prop_assert_eq!(Memory::mib(mib), Memory::mib(mib));
        // GiB constructor is 1024 MiB.
        prop_assert_eq!(Memory::gib(1), Memory::mib(1024));
    }
}

// --- scheduler ----------------------------------------------------------------

fn pod(i: usize, cpu_millis: u64, mem_mib: u64) -> Pod {
    Pod::new(
        ObjectMeta::named(format!("p{i}")),
        PodSpec::single(ContainerSpec {
            name: format!("c{i}"),
            image: "x:latest".into(),
            requests: Resources {
                cpu: Cpu::millis(cpu_millis),
                memory: Memory::mib(mem_mib),
            },
            workload: WorkloadSpec::Run {
                duration: SimDuration::from_secs(60),
                output: None,
            },
        }),
    )
}

proptest! {
    /// Whatever the mix of node sizes and pod requests, after any number of
    /// scheduling passes no node's committed requests exceed its
    /// allocatable resources, and every binding satisfies the filter.
    #[test]
    fn scheduler_never_overcommits_any_node(
        nodes in proptest::collection::vec((1u64..16, 1u64..64), 1..5),
        pods in proptest::collection::vec((100u64..8_000, 128u64..16_384), 0..40),
    ) {
        let mut api = ApiServer::new("prop");
        let now = SimTime::ZERO;
        for (i, (cpu, mem)) in nodes.iter().enumerate() {
            api.add_node(Node::new(format!("n{i}"), Resources::new(*cpu, *mem)), now);
        }
        for (i, (cpu_m, mem_mib)) in pods.iter().enumerate() {
            api.create_pod(pod(i, *cpu_m, *mem_mib), now).unwrap();
        }
        let scheduler = Scheduler;
        let bound = scheduler.schedule(&mut api, now);
        // Invariant: per-node usage within allocatable.
        let names: Vec<String> = api.nodes.keys().cloned().collect();
        for node in names {
            let usage = api.node_usage(&node);
            let cap = api.nodes[&node].allocatable;
            prop_assert!(
                usage.fits_in(&cap),
                "node {node}: usage {usage:?} > allocatable {cap:?}"
            );
        }
        // Every unbound pod genuinely fits on no node's *remaining* space.
        let unbound: Vec<_> = api
            .pods
            .values()
            .filter(|p| p.status.node.is_none())
            .map(|p| p.spec.total_requests())
            .collect();
        for want in unbound {
            let fits_somewhere = api
                .nodes
                .keys()
                .any(|n| {
                    let free = api.node_free(n);
                    want.fits_in(&free)
                });
            prop_assert!(!fits_somewhere, "pod left pending despite free space");
        }
        prop_assert!(bound.len() <= pods.len());
    }
}

// --- DNS -----------------------------------------------------------------------

proptest! {
    #[test]
    fn service_dns_parse_round_trip(
        svc in "[a-z][a-z0-9-]{0,20}",
        ns in "[a-z][a-z0-9-]{0,20}",
    ) {
        let dns = format!("{svc}.{ns}.svc.cluster.local");
        let key = parse_service_dns(&dns).expect("parses");
        prop_assert_eq!(key.name, svc);
        prop_assert_eq!(key.namespace, ns);
    }

    #[test]
    fn resolve_finds_exactly_created_services(
        names in proptest::collection::btree_set("[a-z][a-z0-9-]{0,12}", 1..8),
        probe in "[a-z][a-z0-9-]{0,12}",
    ) {
        let mut api = ApiServer::new("prop");
        let now = SimTime::ZERO;
        for name in &names {
            api.create_service(Service::cluster_ip(name, name, 80), now).unwrap();
        }
        for name in &names {
            let dns = format!("{name}.{}.svc.cluster.local", lidc_k8s::meta::DEFAULT_NAMESPACE);
            let r = resolve(&api, &dns).expect("created service resolves");
            prop_assert!(!r.cluster_ip.is_empty());
        }
        let dns = format!("{probe}.{}.svc.cluster.local", lidc_k8s::meta::DEFAULT_NAMESPACE);
        prop_assert_eq!(resolve(&api, &dns).is_ok(), names.contains(&probe));
    }
}
