//! LIDC vs the comparators (`lidc-baseline`): the centralized controller
//! and the manually-configured workflow, under identical conditions.

use lidc::baseline::central::{deploy_client, CentralController, CentralPolicy};
use lidc::baseline::manual::ManualWorkflow;
use lidc::prelude::*;

fn blast(tag: u64) -> ComputeRequest {
    ComputeRequest::new("BLAST", 2, 4)
        .with_param("srr", "SRR2931415")
        .with_param("ref", "HUMAN")
        .with_param("tag", tag.to_string())
}

/// Both control planes place the same workload successfully when nothing
/// fails — the difference is architectural, not functional.
#[test]
fn central_and_lidc_equivalent_when_healthy() {
    // LIDC.
    let mut sim = Sim::new(1);
    let overlay = Overlay::build(&mut sim, OverlayConfig {
        placement: PlacementPolicy::RoundRobin,
        clusters: vec![
            ClusterSpec::new("a", SimDuration::from_millis(10)),
            ClusterSpec::new("b", SimDuration::from_millis(20)),
        ],
        ..Default::default()
    });
    let alloc = overlay.alloc.clone();
    let client = ScienceClient::deploy(ClientConfig::default(), &mut sim, overlay.router, &alloc, "u");
    for tag in 0..4 {
        sim.send(client, Submit(blast(tag)));
    }
    sim.run();
    assert_eq!(sim.actor::<ScienceClient>(client).unwrap().successes(), 4);

    // Centralized.
    let mut sim = Sim::new(2);
    let alloc = FaceIdAlloc::new();
    let router = sim.spawn("router", Forwarder::new("router", ForwarderConfig::default()));
    let controller = CentralController::new(CentralPolicy::RoundRobin).deploy(&mut sim, router, &alloc);
    for name in ["a", "b"] {
        let c = Cluster::spawn(&mut sim, ClusterConfig::named(name));
        c.add_node(&mut sim, Node::new(format!("{name}-n0"), Resources::new(16, 64)));
        CentralController::add_member(&mut sim, controller, name, c);
    }
    let cclient = deploy_client(ClientConfig::default(), &mut sim, router, &alloc, "u");
    for tag in 0..4 {
        sim.send(cclient, Submit(blast(tag)));
    }
    sim.run();
    assert_eq!(sim.actor::<ScienceClient>(cclient).unwrap().successes(), 4);
}

/// The single point of failure: kill the controller, nothing places — kill
/// an entire LIDC cluster, everything still places.
#[test]
fn controller_death_vs_cluster_death() {
    // Central: controller dies, all clusters healthy, zero placements.
    let mut sim = Sim::new(3);
    let alloc = FaceIdAlloc::new();
    let router = sim.spawn("router", Forwarder::new("router", ForwarderConfig::default()));
    let controller = CentralController::new(CentralPolicy::RoundRobin).deploy(&mut sim, router, &alloc);
    for name in ["a", "b", "c"] {
        let c = Cluster::spawn(&mut sim, ClusterConfig::named(name));
        c.add_node(&mut sim, Node::new(format!("{name}-n0"), Resources::new(16, 64)));
        CentralController::add_member(&mut sim, controller, name, c);
    }
    let cclient = deploy_client(ClientConfig::default(), &mut sim, router, &alloc, "u");
    sim.kill(controller);
    for tag in 0..3 {
        sim.send(cclient, Submit(blast(tag)));
    }
    sim.run();
    assert_eq!(sim.actor::<ScienceClient>(cclient).unwrap().successes(), 0);

    // LIDC: one of three clusters dies, the others absorb everything.
    let mut sim = Sim::new(4);
    let overlay = Overlay::build(&mut sim, OverlayConfig {
        placement: PlacementPolicy::RoundRobin,
        clusters: vec![
            ClusterSpec::new("a", SimDuration::from_millis(10)),
            ClusterSpec::new("b", SimDuration::from_millis(20)),
            ClusterSpec::new("c", SimDuration::from_millis(30)),
        ],
        ..Default::default()
    });
    let alloc = overlay.alloc.clone();
    let client = ScienceClient::deploy(ClientConfig::default(), &mut sim, overlay.router, &alloc, "u");
    overlay.fail_cluster(&mut sim, "a");
    for tag in 0..3 {
        sim.send(client, Submit(blast(tag)));
    }
    sim.run();
    assert_eq!(sim.actor::<ScienceClient>(client).unwrap().successes(), 3);
}

/// Manual configuration requires a human for exactly the events LIDC
/// absorbs silently.
#[test]
fn manual_workflow_needs_operator_for_failover() {
    let mut sim = Sim::new(5);
    let alloc = FaceIdAlloc::new();
    let a = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig::named("a"));
    let b = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig::named("b"));
    let mut wf = ManualWorkflow::configure(&mut sim, &a, &alloc, ClientConfig::default(), "wf")
        .with_reconfig_delay(SimDuration::from_mins(30));

    // Cluster a dies; the manual workflow's submissions fail outright.
    sim.kill(a.gateway_fwd);
    wf.submit(&mut sim, blast(0));
    sim.run();
    assert_eq!(wf.successes(&sim), 0);

    // After the operator re-tailors to b (and pays 30 min), work flows.
    let before = sim.now();
    wf.reconfigure(&mut sim, &b);
    wf.submit(&mut sim, blast(1));
    sim.run();
    assert_eq!(wf.successes(&sim), 1);
    let runs = wf.runs(&sim);
    let retried = runs.last().unwrap();
    assert_eq!(retried.cluster.as_deref(), Some("b"));
    assert!(retried.submitted_at.since(before) >= SimDuration::from_mins(30));
}

/// The controller's global view *is* an advantage while it is alive:
/// GlobalLeastLoaded beats round-robin on a skewed overlay. The comparison
/// is honest — centralization buys placement quality at the cost of the
/// single point of failure measured above.
#[test]
fn central_global_view_places_on_idle_member() {
    let mut sim = Sim::new(6);
    let alloc = FaceIdAlloc::new();
    let router = sim.spawn("router", Forwarder::new("router", ForwarderConfig::default()));
    let controller =
        CentralController::new(CentralPolicy::GlobalLeastLoaded).deploy(&mut sim, router, &alloc);
    let busy = Cluster::spawn(&mut sim, ClusterConfig::named("busy"));
    busy.add_node(&mut sim, Node::new("busy-n0", Resources::new(4, 16)));
    let idle = Cluster::spawn(&mut sim, ClusterConfig::named("idle"));
    idle.add_node(&mut sim, Node::new("idle-n0", Resources::new(16, 64)));
    CentralController::add_member(&mut sim, controller, "busy", busy.clone());
    CentralController::add_member(&mut sim, controller, "idle", idle);
    // Saturate "busy" before the probe job arrives.
    let hog = PodSpec::single(ContainerSpec {
        name: "hog".into(),
        image: "hog:latest".into(),
        requests: Resources::new(4, 16),
        workload: WorkloadSpec::Run {
            duration: SimDuration::from_hours(100),
            output: None,
        },
    });
    let now = sim.now();
    busy.api
        .write()
        .create_job(Job::new(ObjectMeta::named("hog"), hog, 1), now)
        .unwrap();
    sim.send(busy.actor, Nudge);
    sim.run_for(SimDuration::from_secs(5));

    let cclient = deploy_client(ClientConfig::default(), &mut sim, router, &alloc, "u");
    sim.send(cclient, Submit(blast(0)));
    sim.run();
    let runs = sim.actor::<ScienceClient>(cclient).unwrap().runs();
    assert!(runs[0].is_success());
    assert_eq!(runs[0].cluster.as_deref(), Some("idle"));
}

/// The baseline runs the LIDC client's resubmission path, counter
/// included: once the controller dies after acking a job, the status polls
/// time out, every resubmission goes unanswered, and each one is counted
/// in `client.resubmissions` exactly as in the LIDC world.
#[test]
fn baseline_resubmissions_are_counted() {
    let mut sim = Sim::new(7);
    let alloc = FaceIdAlloc::new();
    let router = sim.spawn("router", Forwarder::new("router", ForwarderConfig::default()));
    let controller = CentralController::new(CentralPolicy::RoundRobin).deploy(&mut sim, router, &alloc);
    let c = Cluster::spawn(&mut sim, ClusterConfig::named("a"));
    c.add_node(&mut sim, Node::new("a-n0", Resources::new(16, 64)));
    CentralController::add_member(&mut sim, controller, "a", c);
    let config = ClientConfig::default();
    let cclient = deploy_client(config.clone(), &mut sim, router, &alloc, "u");
    sim.send(cclient, Submit(blast(0)));
    sim.run_for(SimDuration::from_secs(1));
    let acked = sim.actor::<ScienceClient>(cclient).unwrap().runs()[0].ack_at;
    assert!(acked.is_some(), "the controller acked before it died");
    sim.kill(controller);
    sim.run();

    let runs = sim.actor::<ScienceClient>(cclient).unwrap().runs();
    assert_eq!(runs.len(), 1);
    let run = &runs[0];
    assert_eq!(run.resubmits, config.resubmit_attempts);
    let error = run.error.as_deref().unwrap_or_default();
    assert!(error.starts_with("submit-"), "error = {error:?}");
    let total: u64 = runs.iter().map(|r| u64::from(r.resubmits)).sum();
    let counted = sim.metrics_ref().counter("client.resubmissions");
    assert_eq!(counted, total);
    assert!(counted > 0);
}
