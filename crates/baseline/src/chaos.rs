//! Chaos harness: LIDC vs the centralized baseline under the **same**
//! deterministic fault schedule.
//!
//! The paper's location-independence claim is an *adversity* claim: when
//! clusters die and nodes crash, a client that names the computation (LIDC)
//! keeps completing work, while a client that names the controller inherits
//! every one of the controller's blind spots. This module stands up both
//! worlds from one [`ChaosConfig`] — same seed, same job stream, same
//! [`FaultSchedule`] — and reduces each run to a [`ChaosOutcome`] whose
//! [`ChaosOutcome::fingerprint`] is bit-stable across repeat runs (the
//! determinism contract of [`lidc_simcore::faults`]).
//!
//! ## Fault mapping
//!
//! Symbolic fault targets resolve differently per world, but the schedule
//! is shared verbatim:
//!
//! | Fault | LIDC world | Baseline world |
//! |---|---|---|
//! | `ClusterOutage` | WAN face to the cluster goes down | every member node goes unready |
//! | `NodeCrash` | `SetNodeReady(false)` on the node | `SetNodeReady(false)` on the node |
//! | `LinkDown` | both ends of the WAN link go down | *no-op* (members attach directly) |
//! | `LinkDegrade` | [`DegradeLink`] on both ends: latency × factor, loss added | *no-op* |
//! | `PacketCorrupt` | [`DegradeLink`] on both ends: Data bit-flipped in flight, refused at the next verify point | *no-op* |
//! | `ByzantineProducer` | the cluster's gateway mangles every reply ([`SetByzantine`]) | *no-op* |
//! | `RegionOutage` | both ends of every member cluster's WAN link go down | every member cluster's nodes go unready |
//!
//! The no-ops **favour the baseline** — it never pays WAN latency, loss or
//! corruption — so a completion-rate win for LIDC is conservative. The
//! standard comparison schedule ([`ChaosConfig::standard`]) therefore uses
//! only `ClusterOutage` + `NodeCrash`, the two kinds both worlds map
//! faithfully.
//!
//! Both worlds run with [`Sim::run_for`] up to [`ChaosConfig::horizon`]:
//! under a permanent outage the baseline client polls its parked jobs
//! forever, so an open-ended `run()` would never return.

use std::collections::BTreeMap;

use lidc_core::client::{ClientConfig, ScienceClient, Submit};
use lidc_core::gateway::{ByzantineMode, SetByzantine};
use lidc_core::naming::ComputeRequest;
use lidc_core::overlay::{ClusterSpec, Overlay, OverlayConfig};
use lidc_core::placement::PlacementPolicy;
use lidc_k8s::cluster::{Cluster, SetNodeReady};
use lidc_k8s::node::Node;
use lidc_k8s::resources::Resources;
use lidc_ndn::face::{FaceId, FaceIdAlloc};
use lidc_ndn::forwarder::{DegradeLink, Forwarder, ForwarderConfig, SetFaceUp};
use lidc_simcore::engine::{ActorId, Sim};
use lidc_simcore::faults::{
    FaultAction, FaultController, FaultEvent, FaultHook, FaultKind, FaultSchedule,
};
use lidc_simcore::report::Table;
use lidc_simcore::time::SimDuration;

use crate::central::{deploy_client, CentralController, CentralPolicy};

/// One chaos experiment: topology, workload, faults, and run length.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed (drives the sim and, transitively, every actor stream).
    pub seed: u64,
    /// Jobs submitted, spaced [`ChaosConfig::submit_spacing`] apart.
    pub jobs: u32,
    /// Member clusters as `(name, WAN latency)` (latency is LIDC-only —
    /// baseline members attach directly to the controller).
    pub clusters: Vec<(String, SimDuration)>,
    /// Worker nodes per cluster, named `{cluster}-node-{i}` in both worlds
    /// so `NodeCrash` targets resolve identically.
    pub nodes_per_cluster: u32,
    /// The shared fault schedule.
    pub schedule: FaultSchedule,
    /// Gap between successive job submissions.
    pub submit_spacing: SimDuration,
    /// Hard stop for the run.
    pub horizon: SimDuration,
}

impl ChaosConfig {
    /// The standard three-cluster comparison scenario: a transient node
    /// crash on `west`, a **permanent** outage of `east` (the round-robin
    /// controller keeps parking a third of its placements there), and a
    /// second transient crash while the first is still healing.
    pub fn standard(seed: u64) -> Self {
        let schedule = FaultSchedule::new()
            .with(FaultEvent::transient(
                SimDuration::from_secs(20),
                SimDuration::from_secs(40),
                FaultKind::NodeCrash {
                    cluster: "west".into(),
                    node: "west-node-1".into(),
                },
            ))
            .with(FaultEvent::permanent(
                SimDuration::from_secs(40),
                FaultKind::ClusterOutage {
                    cluster: "east".into(),
                },
            ))
            .with(FaultEvent::transient(
                SimDuration::from_secs(50),
                SimDuration::from_secs(30),
                FaultKind::NodeCrash {
                    cluster: "south".into(),
                    node: "south-node-0".into(),
                },
            ));
        ChaosConfig {
            seed,
            jobs: 12,
            clusters: vec![
                ("west".into(), SimDuration::from_millis(10)),
                ("east".into(), SimDuration::from_millis(30)),
                ("south".into(), SimDuration::from_millis(60)),
            ],
            nodes_per_cluster: 2,
            schedule,
            submit_spacing: SimDuration::from_secs(10),
            horizon: SimDuration::from_mins(60),
        }
    }

    /// The byzantine-producer integrity scenario: from t=15s on, `east`'s
    /// gateway answers every Interest with unsigned garbage (the
    /// [`FaultKind::ByzantineProducer`] unsigned variant). No honest reply
    /// from east ever arrives again, so completing the whole job stream
    /// means the clients' resubmission path steered everything to the
    /// honest clusters — and the first-hop verification gate must have
    /// kept every poisoned reply out of every Content Store.
    pub fn byzantine(seed: u64) -> Self {
        let schedule = FaultSchedule::new().with(FaultEvent::permanent(
            SimDuration::from_secs(15),
            FaultKind::ByzantineProducer {
                cluster: "east".into(),
                signed: false,
            },
        ));
        ChaosConfig {
            schedule,
            ..ChaosConfig::standard(seed)
        }
    }

    /// The correlated region-outage scenario: `west` and `east` share the
    /// "coastal" region and fail **together** at t=30s for 60s (one
    /// [`FaultKind::RegionOutage`] firing cuts both WAN links in the LIDC
    /// world and unreadies both node pools in the baseline world), then
    /// heal together. Only `south` stays up during the outage.
    pub fn region_outage(seed: u64) -> Self {
        let schedule = FaultSchedule::new().with(FaultEvent::transient(
            SimDuration::from_secs(30),
            SimDuration::from_secs(60),
            FaultKind::RegionOutage {
                region: "coastal".into(),
                members: vec!["west".into(), "east".into()],
            },
        ));
        ChaosConfig {
            schedule,
            ..ChaosConfig::standard(seed)
        }
    }

    fn client_config(&self) -> ClientConfig {
        ClientConfig {
            retries: 5,
            max_status_failures: 10,
            resubmit_attempts: 4,
            poll_interval: SimDuration::from_secs(10),
            // The baseline's status protocol never serves result objects,
            // so neither world fetches them (fair comparison).
            fetch_results: false,
            ..Default::default()
        }
    }

    /// A generic short job. No `srr`/`size` params: both planners then
    /// fall back to the same 1 GB default input, so the two worlds run
    /// identical 5-second jobs through the shared cost model.
    fn request(&self, tag: u32) -> ComputeRequest {
        ComputeRequest::new("CHAOS", 2, 4).with_param("tag", tag.to_string())
    }
}

/// The reduced result of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Which world produced it (`"lidc"` / `"baseline"`).
    pub label: String,
    /// Jobs submitted.
    pub submitted: u32,
    /// Jobs that reached `Completed` (result fetched where applicable).
    pub completed: u32,
    /// Jobs that terminally failed before the horizon.
    pub failed: u32,
    /// p99 turnaround over completed jobs.
    pub p99_turnaround: Option<SimDuration>,
    /// Whole-request resubmissions — the wasted work the faults induced.
    pub resubmissions: u64,
    /// Faults injected over the run.
    pub faults_injected: u64,
    /// Data packets a forwarder refused on signature verification.
    pub verify_failed: u64,
    /// Verification failures that would have satisfied a PIT entry — the
    /// packets that were one gate away from entering a Content Store.
    pub cs_poison_rejected: u64,
    /// The controller's applied-fault timeline (one line per firing).
    pub fault_timeline: String,
}

impl ChaosOutcome {
    /// Completed / submitted (1.0 when nothing was submitted).
    pub fn completion_rate(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            f64::from(self.completed) / f64::from(self.submitted)
        }
    }

    /// A deterministic digest of everything observable: counts, latency,
    /// wasted work and the full fault timeline. Two runs of the same
    /// config must produce byte-identical fingerprints.
    pub fn fingerprint(&self) -> String {
        format!(
            "{} submitted={} completed={} failed={} resubmits={} p99={:?} \
             verify_failed={} poison_rejected={}\n{}",
            self.label,
            self.submitted,
            self.completed,
            self.failed,
            self.resubmissions,
            self.p99_turnaround,
            self.verify_failed,
            self.cs_poison_rejected,
            self.fault_timeline
        )
    }
}

fn p99(mut turnarounds: Vec<SimDuration>) -> Option<SimDuration> {
    if turnarounds.is_empty() {
        return None;
    }
    turnarounds.sort();
    let n = turnarounds.len();
    let idx = ((n as f64) * 0.99).ceil() as usize;
    Some(turnarounds[idx.saturating_sub(1).min(n - 1)])
}

/// Per-cluster actor/face handles the LIDC fault hook needs.
struct LidcTargets {
    router: ActorId,
    /// name → (router-side face, gateway NFD actor, gateway-side face).
    links: BTreeMap<String, (FaceId, ActorId, FaceId)>,
    /// name → k8s control-plane actor.
    k8s: BTreeMap<String, ActorId>,
    /// name → gateway application actor (the byzantine-fault target).
    gateways: BTreeMap<String, ActorId>,
}

fn lidc_hook(t: LidcTargets) -> FaultHook {
    Box::new(move |kind, action, ctx| {
        let inject = action == FaultAction::Inject;
        match kind {
            FaultKind::ClusterOutage { cluster } => {
                if let Some(&(face, _, _)) = t.links.get(cluster) {
                    ctx.send(t.router, SetFaceUp { face, up: !inject });
                }
            }
            FaultKind::NodeCrash { cluster, node } => {
                if let Some(&actor) = t.k8s.get(cluster) {
                    ctx.send(actor, SetNodeReady {
                        node: node.clone(),
                        ready: !inject,
                    });
                }
            }
            FaultKind::LinkDown { link } => {
                if let Some(&(rf, gw, gf)) = t.links.get(link) {
                    ctx.send(t.router, SetFaceUp { face: rf, up: !inject });
                    ctx.send(gw, SetFaceUp { face: gf, up: !inject });
                }
            }
            FaultKind::LinkDegrade {
                link,
                latency_factor,
                extra_loss,
            } => degrade(&t, ctx, link, inject, *latency_factor, *extra_loss, 0.0),
            FaultKind::PacketCorrupt { link, probability } => {
                degrade(&t, ctx, link, inject, 1.0, 0.0, *probability);
            }
            FaultKind::ByzantineProducer { cluster, signed } => {
                if let Some(&gateway) = t.gateways.get(cluster) {
                    let mode = if *signed {
                        ByzantineMode::SignedWrongName
                    } else {
                        ByzantineMode::UnsignedGarbage
                    };
                    ctx.send(gateway, SetByzantine(inject.then_some(mode)));
                }
            }
            FaultKind::RegionOutage { region: _, members } => {
                // One firing takes down every member cluster's WAN link
                // (both ends, like LinkDown), modelling a correlated
                // regional failure; recovery restores them together.
                for member in members {
                    if let Some(&(rf, gw, gf)) = t.links.get(member) {
                        ctx.send(t.router, SetFaceUp { face: rf, up: !inject });
                        ctx.send(gw, SetFaceUp { face: gf, up: !inject });
                    }
                }
            }
        }
    })
}

#[allow(clippy::too_many_arguments)]
fn degrade(
    t: &LidcTargets,
    ctx: &mut lidc_simcore::engine::Ctx<'_>,
    link: &str,
    inject: bool,
    latency_factor: f64,
    extra_loss: f64,
    corrupt: f64,
) {
    let Some(&(rf, gw, gf)) = t.links.get(link) else {
        return;
    };
    let (lf, el, co) = if inject {
        (latency_factor, extra_loss, corrupt)
    } else {
        (1.0, 0.0, 0.0)
    };
    ctx.send(t.router, DegradeLink {
        face: rf,
        latency_factor: lf,
        extra_loss: el,
        corrupt: co,
    });
    ctx.send(gw, DegradeLink {
        face: gf,
        latency_factor: lf,
        extra_loss: el,
        corrupt: co,
    });
}

/// The poisoned-cache invariant: **no** forwarder may hold Data that
/// fails signature verification, no matter what byzantine producers or
/// bit-flipping links did during the run. Asserted over every listed
/// forwarder's Content Store after each chaos run.
pub fn assert_no_poisoned_cache(sim: &Sim, forwarders: &[(String, ActorId)]) {
    for (label, id) in forwarders {
        let fwd = sim.actor::<Forwarder>(*id).expect("forwarder");
        for (name, data) in fwd.cs().entries() {
            assert!(
                data.verify(None),
                "unverifiable Data cached in {label}'s Content Store: {name}"
            );
        }
    }
}

/// The runtime half of the metric-key contract: the static lint proves
/// literal keys are registered, this proves the *run* stayed inside the
/// schema (dynamic keys included). Panics naming the drifted keys.
pub fn assert_metrics_registered(sim: &Sim) {
    let m = sim.metrics_ref();
    let bad = lidc_simcore::metrics_keys::unregistered(
        m.counter_names().chain(m.histogram_names()),
    );
    assert!(bad.is_empty(), "metric keys recorded but not registered in metrics_keys.rs: {bad:?}");
}

/// Run the LIDC world under `cfg`'s schedule.
pub fn run_lidc_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    let mut sim = Sim::new(cfg.seed);
    // Round-robin placement mirrors the baseline controller's policy, so
    // the *only* architectural difference is who makes the decision.
    let overlay = Overlay::build(&mut sim, OverlayConfig {
        placement: PlacementPolicy::RoundRobin,
        clusters: cfg
            .clusters
            .iter()
            .map(|(name, latency)| {
                ClusterSpec::new(name.clone(), *latency).with_nodes(cfg.nodes_per_cluster, 16, 64)
            })
            .collect(),
        // The generic chaos job needs no lake input; the baseline world
        // loads no datasets either.
        load_datasets: false,
        ..Default::default()
    });
    let mut links = BTreeMap::new();
    let mut k8s = BTreeMap::new();
    let mut gateways = BTreeMap::new();
    for c in &overlay.clusters {
        let rf = overlay.face_of(&c.name).expect("router face");
        let gf = overlay.cluster_face_of(&c.name).expect("cluster face");
        links.insert(c.name.clone(), (rf, c.gateway_fwd, gf));
        k8s.insert(c.name.clone(), c.k8s.actor);
        gateways.insert(c.name.clone(), c.gateway_app);
    }
    let controller = FaultController::deploy(
        &mut sim,
        cfg.schedule.clone(),
        lidc_hook(LidcTargets {
            router: overlay.router,
            links,
            k8s,
            gateways,
        }),
    );
    let alloc = overlay.alloc.clone();
    let client = ScienceClient::deploy(cfg.client_config(), &mut sim, overlay.router, &alloc, "u");
    let mut forwarders = vec![("router".to_owned(), overlay.router)];
    for c in &overlay.clusters {
        forwarders.push((format!("{}-nfd", c.name), c.gateway_fwd));
    }
    run_world(cfg, sim, "lidc", client, controller, &forwarders)
}

/// Submit `cfg`'s job stream to `client`, run to the horizon, check the
/// run-wide invariants (metric keys, no poisoned Content Store among
/// `forwarders`) and reduce the world to its [`ChaosOutcome`].
fn run_world(
    cfg: &ChaosConfig,
    mut sim: Sim,
    label: &str,
    client: ActorId,
    fault_controller: ActorId,
    forwarders: &[(String, ActorId)],
) -> ChaosOutcome {
    for tag in 0..cfg.jobs {
        let at = cfg.submit_spacing.mul_f64(f64::from(tag));
        sim.send_after(at, client, Submit(cfg.request(tag)));
    }
    sim.run_for(cfg.horizon);
    let runs = sim.actor::<ScienceClient>(client).expect("client").runs();
    let completed = runs.iter().filter(|r| r.is_success()).count() as u32;
    let failed = runs.iter().filter(|r| r.error.is_some()).count() as u32;
    let turnarounds = runs.iter().filter_map(|r| r.turnaround()).collect();
    let timeline = sim
        .actor::<FaultController>(fault_controller)
        .expect("controller")
        .timeline_text();
    assert_metrics_registered(&sim);
    assert_no_poisoned_cache(&sim, forwarders);
    ChaosOutcome {
        label: label.into(),
        submitted: runs.len() as u32,
        completed,
        failed,
        p99_turnaround: p99(turnarounds),
        resubmissions: sim.metrics_ref().counter("client.resubmissions"),
        faults_injected: sim.metrics_ref().counter("fault.injected"),
        verify_failed: sim.metrics_ref().counter("ndn.verify_failed"),
        cs_poison_rejected: sim.metrics_ref().counter("ndn.cs_poison_rejected"),
        fault_timeline: timeline,
    }
}

fn baseline_hook(k8s: BTreeMap<String, (ActorId, Vec<String>)>) -> FaultHook {
    Box::new(move |kind, action, ctx| {
        let inject = action == FaultAction::Inject;
        match kind {
            FaultKind::ClusterOutage { cluster } => {
                if let Some((actor, nodes)) = k8s.get(cluster) {
                    for node in nodes {
                        ctx.send(*actor, SetNodeReady {
                            node: node.clone(),
                            ready: !inject,
                        });
                    }
                }
            }
            FaultKind::NodeCrash { cluster, node } => {
                if let Some((actor, _)) = k8s.get(cluster) {
                    ctx.send(*actor, SetNodeReady {
                        node: node.clone(),
                        ready: !inject,
                    });
                }
            }
            FaultKind::RegionOutage { region: _, members } => {
                // Correlated failure: every member cluster loses all of
                // its nodes at once (the baseline has no WAN links to cut).
                for member in members {
                    if let Some((actor, nodes)) = k8s.get(member) {
                        for node in nodes {
                            ctx.send(*actor, SetNodeReady {
                                node: node.clone(),
                                ready: !inject,
                            });
                        }
                    }
                }
            }
            // The baseline has no WAN links to degrade and its producer
            // (the controller itself) is trusted — see the module docs:
            // these no-ops bias in the baseline's favour.
            _ => ctx.metrics().incr("fault.unmapped", 1),
        }
    })
}

/// Run the centralized-controller world under the same schedule.
pub fn run_baseline_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    let mut sim = Sim::new(cfg.seed);
    let alloc = FaceIdAlloc::new();
    let router = sim.spawn(
        "router",
        Forwarder::new("router", ForwarderConfig::default()),
    );
    let controller =
        CentralController::new(CentralPolicy::RoundRobin).deploy(&mut sim, router, &alloc);
    let mut k8s = BTreeMap::new();
    for (name, _latency) in &cfg.clusters {
        let c = Cluster::spawn(&mut sim, name);
        let nodes: Vec<String> = (0..cfg.nodes_per_cluster)
            .map(|i| format!("{name}-node-{i}"))
            .collect();
        for node in &nodes {
            c.add_node(&mut sim, Node::new(node.clone(), Resources::new(16, 64)));
        }
        k8s.insert(name.clone(), (c.actor, nodes));
        CentralController::add_member(&mut sim, controller, name.clone(), c);
    }
    let fault_controller =
        FaultController::deploy(&mut sim, cfg.schedule.clone(), baseline_hook(k8s));
    let client = deploy_client(cfg.client_config(), &mut sim, router, &alloc, "u");
    let forwarders = [("router".to_owned(), router)];
    run_world(cfg, sim, "baseline", client, fault_controller, &forwarders)
}

/// Render the side-by-side comparison the `chaos` CLI subcommand prints.
pub fn comparison_table(outcomes: &[&ChaosOutcome]) -> Table {
    let mut table = Table::new("completion under the identical fault schedule", &[
        "system",
        "submitted",
        "completed",
        "rate",
        "p99 turnaround",
        "resubmissions",
        "faults",
    ]);
    for o in outcomes {
        table.push_row(vec![
            o.label.clone(),
            o.submitted.to_string(),
            o.completed.to_string(),
            format!("{:.0}%", o.completion_rate() * 100.0),
            o.p99_turnaround
                .map_or_else(|| "-".to_owned(), |d| format!("{:.1}s", d.as_secs_f64())),
            o.resubmissions.to_string(),
            o.faults_injected.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_schedule_is_outage_and_crash_only() {
        let cfg = ChaosConfig::standard(1);
        assert!(cfg.schedule.events().iter().all(|e| matches!(
            e.kind,
            FaultKind::ClusterOutage { .. } | FaultKind::NodeCrash { .. }
        )));
    }

    #[test]
    fn p99_picks_the_tail() {
        assert_eq!(p99(vec![]), None);
        let ds: Vec<SimDuration> = (1..=100).map(SimDuration::from_secs).collect();
        assert_eq!(p99(ds), Some(SimDuration::from_secs(99)));
        assert_eq!(
            p99(vec![SimDuration::from_secs(5)]),
            Some(SimDuration::from_secs(5))
        );
    }
}
