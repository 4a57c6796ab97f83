//! Chaos scenarios: the location-independence claim under adversity.
//!
//! Every scenario drives faults through [`FaultController`] — the seeded,
//! deterministic fault layer — never by ad-hoc test pokes, so the same
//! schedule replays bit-identically across runs:
//!
//! 1. a WAN link cut strands an in-flight Interest → the forwarder
//!    retransmits it over the alternate face (no timeout, no client retry);
//! 2. the producer cluster crashes → the router's Content Store keeps
//!    serving the previously fetched result;
//! 3. a worker node dies mid-job → Kubernetes evicts and reschedules, the
//!    client still sees the job complete;
//! 4. LIDC vs the centralized baseline under the *same* fault schedule →
//!    LIDC completes at least as many jobs;
//! 5. the whole chaos run is deterministic: same seed + schedule on every
//!    rerun → identical outcomes and fault timelines, pinned by
//!    `tests/golden/`;
//! 6. generated random schedules (all fault families, including byzantine
//!    producers and region outages) replay bit-identically;
//! 7. duplicate submissions share one Interest and all terminate;
//! 8. a byzantine producer mangles every reply from one cluster → LIDC
//!    still completes everything, and no poisoned Data ever enters any
//!    Content Store (see docs/INTEGRITY.md);
//! 9. a correlated region outage takes down two clusters at once, then
//!    heals → LIDC completes everything via the surviving region;
//! 10. a link corrupts packets in flight → damaged Data is refused at the
//!     next verify point, and no job is lost.

mod common;

use common::assert_golden;
use lidc::baseline::chaos::{
    assert_metrics_registered, comparison_table, run_baseline_chaos, run_lidc_chaos,
    ChaosConfig,
};
use lidc::ndn::net::attach_app;
use lidc::prelude::*;
use lidc::simcore::engine::{Actor, Ctx, Msg};
use lidc::simcore::faults::ChaosProfile;

/// A short generic job (~5 s through the shared cost model).
fn chaos_req(tag: u64) -> ComputeRequest {
    ComputeRequest::new("CHAOS", 2, 4).with_param("tag", tag.to_string())
}

/// Scenario 1: the nearest cluster's WAN face is cut 5 ms after a submit
/// goes out — while the Interest is still in flight. The forwarder's
/// face-down sweep must retransmit the stranded PIT entry over the
/// alternate face; the job lands on the surviving cluster with no
/// client-side resubmission at all.
#[test]
fn link_cut_retransmits_in_flight_interest_over_alternate_face() {
    let mut sim = Sim::new(42);
    let overlay = Overlay::build(&mut sim, OverlayConfig {
        placement: PlacementPolicy::Nearest,
        clusters: vec![
            ClusterSpec::new("near", SimDuration::from_millis(10)),
            ClusterSpec::new("far", SimDuration::from_millis(40)),
        ],
        load_datasets: false,
        ..Default::default()
    });
    let alloc = overlay.alloc.clone();
    let client =
        ScienceClient::deploy(ClientConfig::default(), &mut sim, overlay.router, &alloc, "u");
    let router = overlay.router;
    let face = overlay.face_of("near").expect("near face");
    let schedule = FaultSchedule::new().with(FaultEvent::permanent(
        SimDuration::from_millis(5),
        FaultKind::ClusterOutage {
            cluster: "near".into(),
        },
    ));
    FaultController::deploy(
        &mut sim,
        schedule,
        Box::new(move |kind, action, ctx| {
            if matches!(kind, FaultKind::ClusterOutage { .. }) {
                ctx.send(router, SetFaceUp {
                    face,
                    up: action == FaultAction::Heal,
                });
            }
        }),
    );
    sim.send(client, Submit(chaos_req(0)));
    sim.run();
    assert_metrics_registered(&sim);

    let runs = sim.actor::<ScienceClient>(client).expect("client").runs();
    assert!(runs[0].is_success(), "job survived the cut: {:?}", runs[0].error);
    assert_eq!(
        runs[0].cluster.as_deref(),
        Some("far"),
        "the alternate cluster answered"
    );
    assert_eq!(runs[0].resubmits, 0, "rerouted in the network, not by the client");
    assert!(
        sim.metrics_ref().counter("ndn.face_down_rerouted") >= 1,
        "the PIT sweep retransmitted over the alternate face"
    );
}

/// Raw-Interest probe used by the Content-Store scenario.
struct Probe {
    consumer: Option<Consumer>,
    target: Name,
    got: Option<String>,
}
struct Go;
impl Actor for Probe {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<Go>() {
            Ok(_) => {
                let interest = Interest::new(self.target.clone())
                    .with_lifetime(SimDuration::from_secs(4));
                self.consumer.as_mut().expect("attached").express(ctx, interest, 0);
                return;
            }
            Err(m) => m,
        };
        if let Ok(rx) = msg.downcast::<AppRx>() {
            if let Some(ConsumerEvent::Data(d)) =
                self.consumer.as_mut().expect("attached").on_app_rx(&rx)
            {
                if d.content_type != ContentType::Nack {
                    self.got = Some(d.name.to_uri());
                }
            }
        }
    }
}

/// Scenario 2: after a client fetched a result through the access router,
/// the producing cluster is cut off entirely. A second consumer asking for
/// the same name must be answered from the router's Content Store — data
/// outlives its producer, which is the point of naming data instead of
/// hosts.
#[test]
fn content_store_serves_result_after_producer_crash() {
    let mut sim = Sim::new(7);
    let overlay = Overlay::build(&mut sim, OverlayConfig {
        placement: PlacementPolicy::Nearest,
        clusters: vec![ClusterSpec::new("edge", SimDuration::from_millis(10))],
        load_datasets: false,
        ..Default::default()
    });
    let alloc = overlay.alloc.clone();
    let client =
        ScienceClient::deploy(ClientConfig::default(), &mut sim, overlay.router, &alloc, "alice");
    sim.send(client, Submit(chaos_req(0)));
    sim.run();
    assert_metrics_registered(&sim);
    let run = &sim.actor::<ScienceClient>(client).expect("client").runs()[0];
    assert!(run.is_success() && run.fetched_at.is_some(), "warm-up fetch done");
    let result = run.result_name.clone().expect("result name");

    // The producer cluster dies: its WAN link goes down at both ends.
    let router = overlay.router;
    let rf = overlay.face_of("edge").expect("router face");
    let gw = overlay.clusters[0].gateway_fwd;
    let gf = overlay.cluster_face_of("edge").expect("cluster face");
    let schedule = FaultSchedule::new().with(FaultEvent::permanent(
        SimDuration::from_millis(1),
        FaultKind::LinkDown { link: "edge".into() },
    ));
    FaultController::deploy(
        &mut sim,
        schedule,
        Box::new(move |kind, action, ctx| {
            if matches!(kind, FaultKind::LinkDown { .. }) {
                let up = action == FaultAction::Heal;
                ctx.send(router, SetFaceUp { face: rf, up });
                ctx.send(gw, SetFaceUp { face: gf, up });
            }
        }),
    );

    let probe = sim.spawn("probe", Probe {
        consumer: None,
        target: result.clone(),
        got: None,
    });
    let pface = attach_app(&mut sim, router, probe, &alloc);
    sim.actor_mut::<Probe>(probe).expect("probe").consumer =
        Some(Consumer::new(router, pface));
    let hits_before = sim.metrics_ref().counter("ndn.cs_hits");
    sim.send_after(SimDuration::from_millis(10), probe, Go);
    sim.run();
    assert_metrics_registered(&sim);

    assert_eq!(
        sim.actor::<Probe>(probe).expect("probe").got.as_deref(),
        Some(result.to_uri().as_str()),
        "the Content Store answered for the dead producer"
    );
    assert!(sim.metrics_ref().counter("ndn.cs_hits") > hits_before);
}

/// Scenario 3: a worker node crashes mid-job. Kubernetes evicts the lost
/// pod, reschedules on the survivor, and the client — who knows nothing of
/// nodes — still sees the job complete.
#[test]
fn node_crash_mid_job_reschedules_and_completes() {
    let mut sim = Sim::new(11);
    let overlay = Overlay::build(&mut sim, OverlayConfig {
        placement: PlacementPolicy::Nearest,
        clusters: vec![
            ClusterSpec::new("solo", SimDuration::from_millis(5)).with_nodes(2, 16, 64),
        ],
        load_datasets: false,
        ..Default::default()
    });
    let alloc = overlay.alloc.clone();
    let client =
        ScienceClient::deploy(ClientConfig::default(), &mut sim, overlay.router, &alloc, "u");
    // A ~100 s job so the crash lands mid-run.
    let req = ComputeRequest::new("CHAOS", 2, 4).with_param("size", "20000000000");
    sim.send(client, Submit(req));
    sim.run_for(SimDuration::from_secs(10));

    // Find where the pod landed, then schedule a crash of exactly that
    // node (transient: it heals 30 s later, after the reschedule).
    let node = {
        let api = overlay.clusters[0].k8s.api.read();
        let pod = api
            .pods
            .values()
            .find(|p| p.status.phase == PodPhase::Running)
            .expect("pod running by t+10s");
        pod.status.node.clone().expect("bound")
    };
    let k8s_actor = overlay.clusters[0].k8s.actor;
    let schedule = FaultSchedule::new().with(FaultEvent::transient(
        SimDuration::from_secs(5),
        SimDuration::from_secs(30),
        FaultKind::NodeCrash {
            cluster: "solo".into(),
            node: node.clone(),
        },
    ));
    FaultController::deploy(
        &mut sim,
        schedule,
        Box::new(move |kind, action, ctx| {
            if let FaultKind::NodeCrash { node, .. } = kind {
                ctx.send(k8s_actor, SetNodeReady {
                    node: node.clone(),
                    ready: action == FaultAction::Heal,
                });
            }
        }),
    );
    sim.run();
    assert_metrics_registered(&sim);

    let runs = sim.actor::<ScienceClient>(client).expect("client").runs();
    assert!(runs[0].is_success(), "job completed despite the crash: {:?}", runs[0].error);
    let api = overlay.clusters[0].k8s.api.read();
    assert!(
        api.events.iter().any(|e| e.kind == "PodEvicted"),
        "the lost pod was evicted"
    );
    assert!(
        api.pods
            .values()
            .any(|p| p.status.phase == PodPhase::Succeeded
                && p.status.node.as_deref() != Some(node.as_str())),
        "the replacement ran on the survivor"
    );
    assert_eq!(sim.metrics_ref().counter("fault.injected"), 1);
    assert_eq!(sim.metrics_ref().counter("fault.healed"), 1);
    assert_eq!(sim.metrics_ref().counter("fault.node_crash"), 2);
}

/// Scenario 4: the comparison the paper's argument rests on. Same seed,
/// same job stream, same fault schedule (a permanent cluster outage plus
/// two transient node crashes): the baseline's round-robin controller
/// keeps parking placements on the dead member, LIDC routes around it.
#[test]
fn lidc_beats_baseline_under_identical_fault_schedule() {
    let cfg = ChaosConfig::standard(9001);
    let lidc = run_lidc_chaos(&cfg);
    let baseline = run_baseline_chaos(&cfg);
    println!("{}", comparison_table(&[&lidc, &baseline]).to_markdown());

    assert_eq!(lidc.fault_timeline, baseline.fault_timeline, "same schedule applied");
    assert_eq!(lidc.submitted, cfg.jobs);
    assert_eq!(baseline.submitted, cfg.jobs);
    assert_eq!(
        lidc.completed, lidc.submitted,
        "LIDC completed everything despite the outage"
    );
    assert!(
        baseline.completed < baseline.submitted,
        "the centralized controller parked work on the dead cluster"
    );
    assert!(lidc.completed >= baseline.completed);
    assert!(lidc.completion_rate() > baseline.completion_rate());
}

/// Scenario 5: chaos is deterministic. The same seed + schedule must
/// produce byte-identical outcomes (counts, p99, wasted work, fault
/// timeline) across repeat runs, equal to the recorded golden.
#[test]
fn chaos_outcome_identical_across_reruns() {
    let cfg = ChaosConfig::standard(777);
    let lidc = lidc_across_reruns(&cfg);
    assert_golden("chaos5_standard_777_lidc", &lidc.fingerprint());

    let baseline = run_baseline_chaos(&cfg);
    assert_golden("chaos5_standard_777_baseline", &baseline.fingerprint());
}

/// Scenario 6: *generated* random schedules, not just the hand-written
/// one. Each seed draws a fresh fault mix through
/// [`FaultSchedule::generate`] from a dedicated RNG stream; the run must
/// still be bit-identical across reruns.
/// This is what lets CI throw a different storm at every
/// scenario without ever producing an unreproducible failure: any red run
/// replays exactly from its seed.
#[test]
fn generated_schedules_are_deterministic_across_reruns() {
    for seed in [0xC0FFEE_u64, 31_337] {
        let profile = ChaosProfile {
            horizon: SimDuration::from_secs(120),
            clusters: vec!["west".into(), "east".into(), "south".into()],
            links: vec!["west".into(), "east".into(), "south".into()],
            nodes_per_cluster: 2,
            outages: 1,
            node_crashes: 2,
            link_degrades: 2,
            byzantine: 1,
            region_outages: 1,
            regions: vec![("coastal".into(), vec!["west".into(), "east".into()])],
            mean_duration: SimDuration::from_secs(30),
        };
        let schedule =
            FaultSchedule::generate(&mut DetRng::new(seed).derive_str("faults"), &profile);
        assert_eq!(schedule.events().len(), 7, "every draw produced an event");
        assert!(
            schedule.events().iter().any(|e| matches!(
                &e.kind,
                FaultKind::NodeCrash { node, .. } if node.contains("-node-")
            )),
            "generated crashes target real node names"
        );
        assert!(
            schedule
                .events()
                .iter()
                .any(|e| matches!(&e.kind, FaultKind::ByzantineProducer { .. })),
            "the generator draws byzantine producers"
        );
        assert!(
            schedule.events().iter().any(|e| matches!(
                &e.kind,
                FaultKind::RegionOutage { members, .. } if members.len() == 2
            )),
            "the generator draws region outages with their declared members"
        );

        let mut cfg = ChaosConfig::standard(seed);
        cfg.jobs = 6;
        cfg.schedule = schedule;
        cfg.horizon = SimDuration::from_mins(30);

        let lidc = lidc_across_reruns(&cfg);
        assert_golden(&format!("chaos6_generated_{seed:x}_lidc"), &lidc.fingerprint());
        assert_golden(
            &format!("chaos6_generated_{seed:x}_baseline"),
            &run_baseline_chaos(&cfg).fingerprint(),
        );
    }
}

/// Scenario 7: two submissions of the *same* request — the duplicate
/// workload the gateway's result cache exists for — race through an
/// outage window. Found by the PR-9 `panic-path` sweep over the client's
/// record-index plumbing: the in-flight maps were keyed by Interest name,
/// so the second record overwrote the first, and the overwritten run hung
/// forever — no ack, no timeout (its retransmit timer had been staled by
/// the second express), no resubmission, no error. Every run must reach a
/// terminal state, and with the shared name both must ride the same ack.
#[test]
fn duplicate_submissions_share_a_name_and_all_terminate() {
    let mut sim = Sim::new(23);
    let overlay = Overlay::build(&mut sim, OverlayConfig {
        placement: PlacementPolicy::Nearest,
        clusters: vec![ClusterSpec::new("solo", SimDuration::from_millis(5))],
        load_datasets: false,
        ..Default::default()
    });
    let alloc = overlay.alloc.clone();
    let config = ClientConfig {
        resubmit_attempts: 10,
        backoff_base: SimDuration::from_secs(1),
        backoff_cap: SimDuration::from_secs(4),
        ..Default::default()
    };
    let client = ScienceClient::deploy(config, &mut sim, overlay.router, &alloc, "u");
    let router = overlay.router;
    let face = overlay.face_of("solo").expect("solo face");
    // The cluster is unreachable for the first ten seconds: both identical
    // submissions are NACKed and resubmitted through the same shared name
    // until the heal, when one ack must resolve both records.
    let schedule = FaultSchedule::new().with(FaultEvent::transient(
        SimDuration::from_millis(1),
        SimDuration::from_secs(10),
        FaultKind::ClusterOutage {
            cluster: "solo".into(),
        },
    ));
    FaultController::deploy(
        &mut sim,
        schedule,
        Box::new(move |kind, action, ctx| {
            if matches!(kind, FaultKind::ClusterOutage { .. }) {
                ctx.send(router, SetFaceUp {
                    face,
                    up: action == FaultAction::Heal,
                });
            }
        }),
    );
    let req = chaos_req(7); // deliberately the same request twice
    sim.send(client, Submit(req.clone()));
    sim.send(client, Submit(req));
    sim.run();
    assert_metrics_registered(&sim);

    let runs = sim.actor::<ScienceClient>(client).expect("client").runs();
    assert_eq!(runs.len(), 2);
    for (i, run) in runs.iter().enumerate() {
        assert!(
            run.completed_at.is_some() || run.error.is_some(),
            "run {i} reached a terminal state (was silently stranded): {run:?}"
        );
    }
    assert!(
        runs.iter().all(|r| r.is_success()),
        "both runs completed after the heal: {runs:?}"
    );
    assert!(
        runs.iter().all(|r| r.job_id.is_some()),
        "both records were acked (pre-fix the overwritten one never was)"
    );
}

/// Run the LIDC world twice and demand bit-identical fingerprints.
/// Returns the first outcome.
fn lidc_across_reruns(cfg: &ChaosConfig) -> lidc::baseline::chaos::ChaosOutcome {
    let reference = run_lidc_chaos(cfg);
    assert_eq!(
        run_lidc_chaos(cfg).fingerprint(),
        reference.fingerprint(),
        "rerun diverged"
    );
    reference
}

/// Scenario 8: a byzantine producer. From t=15s on, `east`'s gateway
/// answers **every** Interest with unsigned garbage under the original
/// name. The first-hop verification gate must reject each forgery before
/// it can satisfy a PIT entry or enter a Content Store, the clients'
/// resubmission path must steer the whole job stream to the honest
/// clusters, and the run must stay bit-identical across reruns.
/// (`run_lidc_chaos` additionally scans every forwarder's Content Store
/// for unverifiable Data after the run.)
#[test]
fn byzantine_producer_is_contained_and_lidc_still_completes() {
    let cfg = ChaosConfig::byzantine(4242);
    let lidc = lidc_across_reruns(&cfg);
    let baseline = run_baseline_chaos(&cfg);
    assert_golden("chaos8_byzantine_4242_lidc", &lidc.fingerprint());
    assert_golden("chaos8_byzantine_4242_baseline", &baseline.fingerprint());
    println!("{}", comparison_table(&[&lidc, &baseline]).to_markdown());

    assert_eq!(lidc.submitted, cfg.jobs);
    assert_eq!(
        lidc.completed, lidc.submitted,
        "LIDC completed everything despite the byzantine cluster: {lidc:?}"
    );
    assert!(
        lidc.verify_failed > 0,
        "the forgeries were seen and refused: {lidc:?}"
    );
    assert!(
        lidc.cs_poison_rejected > 0,
        "at least one forgery was caught at the cache-admission gate: {lidc:?}"
    );
    assert!(
        lidc.resubmissions > 0,
        "recovery went through the client resubmission path"
    );
    // The byzantine fault is a no-op in the baseline world (its producer
    // is the trusted controller), so this comparison is about LIDC paying
    // the verification cost and *still* matching the undisturbed baseline.
    assert!(lidc.completed >= baseline.completed);
}

/// Scenario 9: a correlated region outage. One `RegionOutage` firing cuts
/// `west` **and** `east` together at t=30s (both WAN links in the LIDC
/// world, both node pools in the baseline world) and one heal restores
/// them together at t=90s. LIDC must ride out the outage on the surviving
/// `south` and complete the entire job stream, bit-identically across
/// reruns.
#[test]
fn region_outage_takes_down_the_region_together_and_heals() {
    let cfg = ChaosConfig::region_outage(31_415);
    let lidc = lidc_across_reruns(&cfg);
    let baseline = run_baseline_chaos(&cfg);
    assert_golden("chaos9_region_outage_31415_lidc", &lidc.fingerprint());
    assert_golden("chaos9_region_outage_31415_baseline", &baseline.fingerprint());
    println!("{}", comparison_table(&[&lidc, &baseline]).to_markdown());

    assert_eq!(lidc.submitted, cfg.jobs);
    assert_eq!(
        lidc.completed, lidc.submitted,
        "LIDC completed everything despite losing the coastal region: {lidc:?}"
    );
    assert_eq!(
        lidc.faults_injected, 1,
        "one firing takes down the whole declared member set"
    );
    assert!(
        lidc.fault_timeline.contains("region-outage(coastal: west+east)"),
        "the timeline names the region and its members: {}",
        lidc.fault_timeline
    );
    assert_eq!(lidc.fault_timeline, baseline.fault_timeline, "same schedule applied");
    assert!(lidc.completed >= baseline.completed);
}

/// Scenario 10: honest link corruption. On top of the standard schedule,
/// `west`'s WAN link flips a seeded bit in a third of the packets it
/// carries for two minutes. Damaged Data travels on until the next
/// signature check refuses it, so the forwarders count verification
/// failures, every job still ends (completed or failed, none stranded),
/// no Content Store ever holds the damaged bytes (`run_lidc_chaos` scans
/// every one after the run), and reruns are bit-identical.
#[test]
fn corrupting_link_is_caught_by_verification_and_loses_no_job() {
    let mut cfg = ChaosConfig::standard(1010);
    cfg.schedule.push(FaultEvent::transient(
        SimDuration::from_secs(5),
        SimDuration::from_secs(120),
        FaultKind::PacketCorrupt {
            link: "west".into(),
            probability: 0.3,
        },
    ));
    let lidc = lidc_across_reruns(&cfg);
    let baseline = run_baseline_chaos(&cfg);
    assert_golden("chaos10_packet_corrupt_1010_lidc", &lidc.fingerprint());
    assert_golden("chaos10_packet_corrupt_1010_baseline", &baseline.fingerprint());
    println!("{}", comparison_table(&[&lidc, &baseline]).to_markdown());

    assert_eq!(lidc.submitted, cfg.jobs);
    assert_eq!(
        lidc.completed + lidc.failed,
        lidc.submitted,
        "every submitted job ended: {lidc:?}"
    );
    assert!(
        lidc.verify_failed > 0,
        "the corrupted Data was seen and refused: {lidc:?}"
    );
    assert!(
        lidc.fault_timeline.contains("packet-corrupt(west p=0.3)"),
        "{}",
        lidc.fault_timeline
    );
}
