//! **Ablation: infrastructure churn** — the paper's core comparison (§I):
//! LIDC's name-based overlay vs a logically centralized controller vs the
//! manual per-platform workflow, all facing the same schedule of cluster
//! churn (a site dies mid-run, a new site joins later).
//!
//! Schedule (identical for all three systems):
//!
//! * `t=0`      12 jobs submitted over 6 minutes (round-robin-able load);
//! * `t=10min`  site **b** fails without warning;
//! * `t=20min`  12 more jobs;
//! * horizon    110h of virtual time, then count what completed.
//!
//! ```text
//! cargo run -p lidc-bench --release --bin ablate_churn
//! ```

use lidc_bench::{finish, tagged_blast};
use lidc_baseline::central::{deploy_client, CentralController, CentralPolicy};
use lidc_baseline::manual::ManualWorkflow;
use lidc_core::client::{ClientConfig, ScienceClient, Submit};
use lidc_core::cluster::{LidcCluster, LidcClusterConfig};
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

const WAVE: usize = 12;
const HORIZON_HOURS: u64 = 110;

fn wave_request(tag: u64) -> lidc_core::naming::ComputeRequest {
    let srr = if tag.is_multiple_of(3) { "SRR5139395" } else { "SRR2931415" };
    tagged_blast(srr, 2, 4, tag)
}

/// LIDC: three-member overlay, "b" fails at t+10min.
fn run_lidc() -> (usize, usize, u32) {
    let mut sim = Sim::new(3_001);
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
        sim.send_after(SimDuration::from_secs(30) * tag, client, Submit(wave_request(tag)));
    }
    sim.run_for(SimDuration::from_mins(10));
    overlay.fail_cluster(&mut sim, "b");
    sim.run_for(SimDuration::from_mins(10));
    for tag in WAVE as u64..(2 * WAVE) as u64 {
        sim.send_after(SimDuration::from_secs(30) * (tag - WAVE as u64), client, Submit(wave_request(tag)));
    }
    sim.run_for(SimDuration::from_hours(HORIZON_HOURS));
    let runs = sim.actor::<ScienceClient>(client).unwrap().runs();
    let ok = runs.iter().filter(|r| r.is_success()).count();
    (ok, runs.len(), 0)
}

/// Centralized: the controller survives but member "b"'s control plane
/// dies; jobs already routed there hang in Pending forever.
fn run_central() -> (usize, usize, u32) {
    let mut sim = Sim::new(3_002);
    let alloc = FaceIdAlloc::new();
    let router = sim.spawn("router", Forwarder::new("router", ForwarderConfig::default()));
    let controller = CentralController::new(CentralPolicy::RoundRobin).deploy(&mut sim, router, &alloc);
    let mut members = Vec::new();
    for name in ["a", "b", "c"] {
        let c = Cluster::spawn(&mut sim, ClusterConfig::named(name));
        c.add_node(&mut sim, Node::new(format!("{name}-n0"), Resources::new(16, 64)));
        CentralController::add_member(&mut sim, controller, name, c.clone());
        members.push(c);
    }
    let client = deploy_client(ClientConfig::default(), &mut sim, router, &alloc, "client");
    for tag in 0..WAVE as u64 {
        sim.send_after(
            SimDuration::from_secs(30) * tag,
            client,
            Submit(wave_request(tag)),
        );
    }
    sim.run_for(SimDuration::from_mins(10));
    // Site b's control plane dies; the central controller keeps routing a
    // third of new jobs to it (it has no liveness signal in this design).
    sim.kill(members[1].actor);
    sim.run_for(SimDuration::from_mins(10));
    for tag in WAVE as u64..(2 * WAVE) as u64 {
        sim.send_after(
            SimDuration::from_secs(30) * (tag - WAVE as u64),
            client,
            Submit(wave_request(tag)),
        );
    }
    sim.run_for(SimDuration::from_hours(HORIZON_HOURS));
    let runs = sim.actor::<ScienceClient>(client).unwrap().runs();
    let ok = runs.iter().filter(|r| r.is_success()).count();
    (ok, runs.len(), 1) // 1 operator intervention still owed (b never fixed)
}

/// Manual: three workflows pinned one-per-cluster; when "b" dies its owner
/// must re-tailor to another cluster (30 min of operator work) and manually
/// resubmit what was lost.
fn run_manual() -> (usize, usize, u32) {
    let mut sim = Sim::new(3_003);
    let alloc = FaceIdAlloc::new();
    let a = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig::named("a"));
    let b = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig::named("b"));
    let c = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig::named("c"));
    let wf_a = ManualWorkflow::configure(&mut sim, &a, &alloc, ClientConfig::default(), "wf-a");
    let mut wf_b = ManualWorkflow::configure(&mut sim, &b, &alloc, ClientConfig::default(), "wf-b");
    let wf_c = ManualWorkflow::configure(&mut sim, &c, &alloc, ClientConfig::default(), "wf-c");

    // Wave 1: jobs hand-split across the three platforms (tag % 3).
    for tag in 0..WAVE as u64 {
        let wf = match tag % 3 {
            0 => &wf_a,
            1 => &wf_b,
            _ => &wf_c,
        };
        wf.submit(&mut sim, wave_request(tag));
    }
    sim.run_for(SimDuration::from_mins(10));
    // b dies; its in-flight jobs are lost.
    sim.kill(b.gateway_fwd);
    sim.run_for(SimDuration::from_mins(5));
    // The operator notices and re-tailors wf-b to cluster c.
    wf_b.reconfigure(&mut sim, &c);
    sim.run_for(SimDuration::from_mins(5));
    // Wave 2, same hand-split routing (wf-b now points at c).
    for tag in WAVE as u64..(2 * WAVE) as u64 {
        let wf = match tag % 3 {
            0 => &wf_a,
            1 => &wf_b,
            _ => &wf_c,
        };
        wf.submit(&mut sim, wave_request(tag));
    }
    sim.run_for(SimDuration::from_hours(HORIZON_HOURS));
    let ok = wf_a.successes(&sim) + wf_b.successes(&sim) + wf_c.successes(&sim);
    let total = wf_a.runs(&sim).len() + wf_b.runs(&sim).len() + wf_c.runs(&sim).len();
    (ok, total, 1)
}

fn main() {
    let mut report = Report::new("ablate_churn", "Ablation — cluster churn: LIDC vs centralized vs manual");
    report.note(format!(
        "{} jobs before + {} jobs after a mid-run cluster failure; horizon {HORIZON_HOURS}h",
        WAVE, WAVE
    ));

    let mut t = Table::new(
        "Churn tolerance",
        &["system", "jobs completed", "operator interventions", "failure mode"],
    );
    let (lidc_ok, lidc_total, lidc_ops) = run_lidc();
    let (central_ok, central_total, central_ops) = run_central();
    let (manual_ok, manual_total, manual_ops) = run_manual();
    t.push_row(vec![
        "LIDC (name-based overlay)".to_owned(),
        format!("{lidc_ok}/{lidc_total}"),
        lidc_ops.to_string(),
        "failed site's jobs transparently resubmitted by the client retry protocol".to_owned(),
    ]);
    t.push_row(vec![
        "centralized controller".to_owned(),
        format!("{central_ok}/{central_total}"),
        central_ops.to_string(),
        "controller keeps placing on the dead member; those jobs hang in Pending".to_owned(),
    ]);
    t.push_row(vec![
        "manual configuration".to_owned(),
        format!("{manual_ok}/{manual_total}"),
        manual_ops.to_string(),
        "stranded until an operator re-tailors the workflow; lost jobs stay lost".to_owned(),
    ]);
    report.add_table(t);
    report.note("Expected shape: LIDC completes everything with zero operator work; the baselines lose the failed site's share and/or require human intervention.");

    finish(&report);
}
