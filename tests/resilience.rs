//! Failure injection across the stack: lossy WAN links, malformed and
//! invalid requests, failing jobs with backoff, and unknown-name NACKs.

use lidc::ndn::net::connect;
use lidc::prelude::*;

fn blast(tag: u64) -> ComputeRequest {
    ComputeRequest::new("BLAST", 2, 4)
        .with_param("srr", "SRR2931415")
        .with_param("ref", "HUMAN")
        .with_param("tag", tag.to_string())
}

/// A lossy WAN between the client's edge forwarder and the cluster: the
/// consumer retransmission machinery must push every request through.
#[test]
fn workflow_survives_five_percent_wan_loss() {
    let mut sim = Sim::new(101);
    let alloc = FaceIdAlloc::new();
    let cluster = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig::named("edge"));
    let access = sim.spawn(
        "access-router",
        Forwarder::new("access-router", ForwarderConfig::default()),
    );
    let props = LinkProps {
        loss: 0.05,
        ..LinkProps::with_latency(SimDuration::from_millis(20))
    };
    let (to_cluster, _) = connect(&mut sim, access, cluster.gateway_fwd, &alloc, props);
    cluster.register_on(&mut sim, access, to_cluster, 0);
    let client = ScienceClient::deploy(
        ClientConfig {
            retries: 5,
            max_status_failures: 10,
            ..Default::default()
        },
        &mut sim,
        access,
        &alloc,
        "user",
    );
    for tag in 0..3 {
        sim.send(client, Submit(blast(tag)));
    }
    sim.run();
    let runs = sim.actor::<ScienceClient>(client).unwrap().runs();
    assert_eq!(runs.iter().filter(|r| r.is_success()).count(), 3);
    assert!(
        sim.metrics_ref().counter("ndn.link_loss_drops") > 0,
        "the loss model actually dropped packets"
    );
}

/// Validation failures are reported to the client with the failing check,
/// and no Kubernetes job is created.
#[test]
fn validation_rejections_name_the_check() {
    let cases: [(&str, ComputeRequest); 3] = [
        (
            "srr-syntax",
            ComputeRequest::new("BLAST", 2, 4)
                .with_param("srr", "bogus!")
                .with_param("ref", "HUMAN"),
        ),
        (
            "srr-present",
            ComputeRequest::new("BLAST", 2, 4).with_param("ref", "HUMAN"),
        ),
        (
            "input-present",
            ComputeRequest::new("COMPRESS", 1, 2),
        ),
    ];
    for (i, (check, req)) in cases.into_iter().enumerate() {
        let mut sim = Sim::new(200 + i as u64);
        let alloc = FaceIdAlloc::new();
        let cluster = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig::named("edge"));
        let client = ScienceClient::deploy(
            ClientConfig::default(),
            &mut sim,
            cluster.gateway_fwd,
            &alloc,
            "user",
        );
        sim.send(client, Submit(req));
        sim.run();
        let run = &sim.actor::<ScienceClient>(client).unwrap().runs()[0];
        let err = run.error.as_deref().expect("rejected");
        assert!(err.contains(check), "case {check}: got {err}");
        assert_eq!(cluster.gateway_stats(&sim).jobs_created, 0);
        assert_eq!(cluster.gateway_stats(&sim).validation_failures, 1);
    }
}

/// Requests for resources no node can ever satisfy are NACKed at admission
/// instead of hanging in the queue forever.
#[test]
fn infeasible_resources_rejected_at_admission() {
    let mut sim = Sim::new(300);
    let alloc = FaceIdAlloc::new();
    let cluster = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig::named("edge"));
    let client = ScienceClient::deploy(
        ClientConfig::default(),
        &mut sim,
        cluster.gateway_fwd,
        &alloc,
        "user",
    );
    // 100 cores passes request validation (1..=128) but exceeds every
    // 16-core node — it must be NACKed at admission, not queued forever.
    sim.send(client, Submit(blast(0).with_param("tag", "big")));
    let huge = ComputeRequest::new("BLAST", 100, 4)
        .with_param("srr", "SRR2931415")
        .with_param("ref", "HUMAN");
    sim.send(client, Submit(huge));
    sim.run();
    let runs = sim.actor::<ScienceClient>(client).unwrap().runs();
    assert!(runs[0].is_success());
    let err = runs[1].error.as_deref().expect("infeasible rejected");
    assert!(err.contains("infeasible") || err.contains("unschedulable"), "{err}");
}

/// A pod that keeps crashing exhausts the job's backoff limit; the client
/// observes the Failed status with the pod's message.
#[test]
fn failing_pod_exhausts_backoff_and_reports() {
    let mut sim = Sim::new(400);
    let k8s = Cluster::spawn(&mut sim, "t");
    k8s.add_node(&mut sim, Node::new("n0", Resources::new(8, 32)));
    let spec = PodSpec::single(ContainerSpec {
        name: "crashy".into(),
        image: "crashy:latest".into(),
        requests: Resources::new(1, 1),
        workload: WorkloadSpec::Fail {
            after: SimDuration::from_secs(10),
            message: "segfault in aligner".into(),
        },
    });
    let now = sim.now();
    let key = k8s
        .api
        .write()
        .create_job(Job::new(ObjectMeta::named("crashy"), spec, 2), now)
        .unwrap();
    sim.send(k8s.actor, Nudge);
    sim.run();
    let job = k8s.job(&key).unwrap();
    assert_eq!(job.status.condition, JobCondition::Failed);
    assert_eq!(job.status.failures, 3, "initial attempt + 2 backoff retries");
    assert!(job.status.message.contains("segfault"));
}

/// Interests under the compute prefix that do not parse are NACKed with a
/// malformed-parameter diagnostic, not dropped.
#[test]
fn malformed_compute_interest_is_nacked() {
    use lidc::ndn::forwarder::AppRx;
    use lidc::ndn::net::attach_app;
    use lidc::simcore::engine::{Actor, Ctx, Msg};

    struct Probe {
        consumer: Option<Consumer>,
        outcome: Option<String>,
    }
    struct Go;
    impl Actor for Probe {
        fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            let msg = match msg.downcast::<Go>() {
                Ok(_) => {
                    let name = compute_prefix().child_str("mem=&&&cpu=zzz");
                    let interest = Interest::new(name).must_be_fresh(true);
                    self.consumer.as_mut().unwrap().express(ctx, interest, 0);
                    return;
                }
                Err(m) => m,
            };
            let msg = match msg.downcast::<AppRx>() {
                Ok(rx) => {
                    if let Some(ev) = self.consumer.as_mut().unwrap().on_app_rx(&rx) {
                        match ev {
                            ConsumerEvent::Data(d) if d.content_type == ContentType::Nack => {
                                self.outcome =
                                    Some(String::from_utf8_lossy(&d.content).into_owned());
                            }
                            other => self.outcome = Some(format!("unexpected: {other:?}")),
                        }
                    }
                    return;
                }
                Err(m) => m,
            };
            if let Ok(t) = msg.downcast::<RetxTimer>() {
                let _ = self.consumer.as_mut().unwrap().on_timer(ctx, &t);
            }
        }
    }

    let mut sim = Sim::new(500);
    let alloc = FaceIdAlloc::new();
    let cluster = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig::named("edge"));
    let probe = sim.spawn("probe", Probe { consumer: None, outcome: None });
    let face = attach_app(&mut sim, cluster.gateway_fwd, probe, &alloc);
    sim.actor_mut::<Probe>(probe).unwrap().consumer =
        Some(Consumer::new(cluster.gateway_fwd, face));
    sim.send(probe, Go);
    sim.run();
    let outcome = sim.actor::<Probe>(probe).unwrap().outcome.clone().expect("answered");
    assert!(outcome.contains("malformed"), "{outcome}");
}

/// Names outside every registered prefix draw a network-level no-route
/// NACK rather than silence.
#[test]
fn unroutable_name_gets_no_route_nack() {
    let mut sim = Sim::new(600);
    let overlay = Overlay::build(&mut sim, OverlayConfig {
        placement: PlacementPolicy::Nearest,
        clusters: vec![ClusterSpec::new("solo", SimDuration::from_millis(5))],
        ..Default::default()
    });
    let alloc = overlay.alloc.clone();

    struct Probe {
        consumer: Option<Consumer>,
        nacked: bool,
    }
    struct Go;
    impl lidc::simcore::engine::Actor for Probe {
        fn on_message(&mut self, msg: lidc::simcore::engine::Msg, ctx: &mut lidc::simcore::engine::Ctx<'_>) {
            let msg = match msg.downcast::<Go>() {
                Ok(_) => {
                    let interest = Interest::new(Name::parse("/not/lidc/at/all").unwrap());
                    self.consumer.as_mut().unwrap().express(ctx, interest, 0);
                    return;
                }
                Err(m) => m,
            };
            let msg = match msg.downcast::<lidc::ndn::forwarder::AppRx>() {
                Ok(rx) => {
                    if let Some(ConsumerEvent::Nack(reason, _)) =
                        self.consumer.as_mut().unwrap().on_app_rx(&rx)
                    {
                        assert_eq!(reason, NackReason::NoRoute);
                        self.nacked = true;
                    }
                    return;
                }
                Err(m) => m,
            };
            if let Ok(t) = msg.downcast::<RetxTimer>() {
                let _ = self.consumer.as_mut().unwrap().on_timer(ctx, &t);
            }
        }
    }
    let probe = sim.spawn("probe", Probe { consumer: None, nacked: false });
    let face = lidc::ndn::net::attach_app(&mut sim, overlay.router, probe, &alloc);
    sim.actor_mut::<Probe>(probe).unwrap().consumer = Some(Consumer::new(overlay.router, face));
    sim.send(probe, Go);
    sim.run();
    assert!(sim.actor::<Probe>(probe).unwrap().nacked);
}
