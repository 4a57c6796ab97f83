//! **Ablation: single point of failure** — the paper's §VII security/
//! resilience argument: "by decentralizing control, LIDC reduces the risks
//! associated with a single point of failure and compromising a central
//! controller."
//!
//! Both systems run the same two waves of jobs on three healthy clusters;
//! between the waves, the *control plane* fails — for the centralized
//! system that is the controller actor, for LIDC there is no controller to
//! fail, so we fail one of the three clusters instead (a strictly harsher
//! event for LIDC).
//!
//! ```text
//! cargo run -p lidc-bench --release --bin ablate_central_failure
//! ```

use lidc_bench::{finish, tagged_blast};
use lidc_baseline::central::{deploy_client, CentralController, CentralPolicy};
use lidc_core::client::{ClientConfig, ScienceClient, Submit};
use lidc_core::overlay::{ClusterSpec, Overlay, OverlayConfig};
use lidc_core::placement::PlacementPolicy;
use lidc_k8s::cluster::{Cluster, ClusterConfig};
use lidc_k8s::node::Node;
use lidc_k8s::resources::Resources;
use lidc_ndn::face::FaceIdAlloc;
use lidc_ndn::forwarder::{Forwarder, ForwarderConfig};
use lidc_simcore::engine::Sim;
use lidc_simcore::report::{Report, Table};
use lidc_simcore::time::SimDuration;

const WAVE: usize = 9;

fn request(tag: u64) -> lidc_core::naming::ComputeRequest {
    tagged_blast("SRR2931415", 2, 4, tag)
}

fn main() {
    let mut report = Report::new(
        "ablate_central_failure",
        "Ablation — control-plane failure: LIDC vs centralized",
    );
    report.note(format!(
        "{WAVE} jobs, control-plane failure, {WAVE} more jobs; all worker clusters stay healthy"
    ));

    let mut t = Table::new(
        "Job success before / after the failure event",
        &["system", "failure event", "wave 1", "wave 2 (after failure)"],
    );

    // --- Centralized: kill the controller between waves ---
    {
        let mut sim = Sim::new(5_001);
        let alloc = FaceIdAlloc::new();
        let router = sim.spawn("router", Forwarder::new("router", ForwarderConfig::default()));
        let controller =
            CentralController::new(CentralPolicy::RoundRobin).deploy(&mut sim, router, &alloc);
        for name in ["a", "b", "c"] {
            let c = Cluster::spawn(&mut sim, ClusterConfig::named(name));
            c.add_node(&mut sim, Node::new(format!("{name}-n0"), Resources::new(16, 64)));
            CentralController::add_member(&mut sim, controller, name, c);
        }
        let client =
            deploy_client(ClientConfig::default(), &mut sim, router, &alloc, "client");
        for tag in 0..WAVE as u64 {
            sim.send_after(SimDuration::from_secs(10) * tag, client, Submit(request(tag)));
        }
        sim.run();
        let wave1 = sim.actor::<ScienceClient>(client).unwrap().successes();
        // The single point of failure fails. Every cluster is still healthy.
        sim.kill(controller);
        for tag in WAVE as u64..(2 * WAVE) as u64 {
            sim.send_after(SimDuration::from_secs(10) * (tag - WAVE as u64), client, Submit(request(tag)));
        }
        sim.run();
        let wave2 = sim.actor::<ScienceClient>(client).unwrap().successes() - wave1;
        t.push_row(vec![
            "centralized controller".to_owned(),
            "controller actor killed".to_owned(),
            format!("{wave1}/{WAVE}"),
            format!("{wave2}/{WAVE}"),
        ]);
    }

    // --- LIDC: no controller exists; fail a whole cluster instead ---
    {
        let mut sim = Sim::new(5_002);
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
        let client = ScienceClient::deploy(
            ClientConfig::default(),
            &mut sim,
            overlay.router,
            &alloc,
            "client",
        );
        for tag in 0..WAVE as u64 {
            sim.send_after(SimDuration::from_secs(10) * tag, client, Submit(request(tag)));
        }
        sim.run();
        let wave1 = sim.actor::<ScienceClient>(client).unwrap().successes();
        overlay.fail_cluster(&mut sim, "a");
        for tag in WAVE as u64..(2 * WAVE) as u64 {
            sim.send_after(SimDuration::from_secs(10) * (tag - WAVE as u64), client, Submit(request(tag)));
        }
        sim.run();
        let wave2 = sim.actor::<ScienceClient>(client).unwrap().successes() - wave1;
        t.push_row(vec![
            "LIDC (decentralized)".to_owned(),
            "an entire member cluster killed".to_owned(),
            format!("{wave1}/{WAVE}"),
            format!("{wave2}/{WAVE}"),
        ]);
    }

    report.add_table(t);
    report.note("Expected shape: after the controller dies, the centralized system places nothing even though every cluster is healthy; LIDC absorbs the (harsher) loss of a whole cluster and completes wave 2 in full.");

    finish(&report);
}
