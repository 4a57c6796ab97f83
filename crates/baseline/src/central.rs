//! The centralized comparator: a logically centralized multi-cluster
//! controller (the K8s-federation-style design the paper argues against,
//! §I: "they still rely on a logically centralized control plane, managed
//! by a central entity").
//!
//! For a fair comparison the controller rides the same NDN substrate as
//! LIDC — it is a producer on the WAN router answering `/central/...`
//! Interests — but placement is *logically centralized*: every request
//! flows through this one actor, which holds direct handles to every
//! member cluster's API server. Kill the actor (single point of failure)
//! and no placement happens anywhere, even though every cluster is healthy.
//!
//! Its users run the LIDC [`ScienceClient`] unchanged, deployed through
//! [`deploy_client`] with [`ADDRESSING`]: requests name the *controller*
//! (`/central/submit/…`, `/central/status/…`) instead of the computation.

use std::collections::HashMap;

use lidc_core::client::{Addressing, ClientConfig, ScienceClient};
use lidc_core::gateway::SharedPredictor;
use lidc_core::naming::ComputeRequest;
use lidc_core::status::{JobState, SubmitAck};
use lidc_genomics::costmodel::CostModel;
use lidc_k8s::cluster::{Cluster, Nudge};
use lidc_k8s::job::JobCondition;
use lidc_k8s::meta::{ObjectKey, ObjectMeta};
use lidc_k8s::pod::{ContainerSpec, PodSpec, WorkloadSpec};
use lidc_k8s::resources::Resources;
use lidc_ndn::app::Producer;
use lidc_ndn::face::FaceIdAlloc;
use lidc_ndn::forwarder::{AppRx, Forwarder};
use lidc_ndn::name::Name;
use lidc_ndn::net::attach_app;
use lidc_ndn::packet::{ContentType, Data, Interest, Packet};
use lidc_ndn::name;
use lidc_simcore::engine::{Actor, ActorId, Ctx, Msg, Sim};
use lidc_simcore::time::SimDuration;

/// The centralized placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CentralPolicy {
    /// Cycle through registered clusters.
    #[default]
    RoundRobin,
    /// Global least-loaded placement (the controller reads every API
    /// server directly — the advantage centralization buys).
    GlobalLeastLoaded,
}

/// The `/central` name prefix.
pub fn central_prefix() -> Name {
    name!("/central")
}

/// A member cluster registered with the controller.
#[derive(Clone)]
struct Member {
    name: String,
    cluster: Cluster,
}

/// Per-job record.
#[derive(Clone)]
struct CentralJob {
    member: usize,
    key: ObjectKey,
    output_bytes: u64,
}

/// The centralized controller actor.
pub struct CentralController {
    producer: Option<Producer>,
    policy: CentralPolicy,
    model: CostModel,
    members: Vec<Member>,
    jobs: HashMap<String, CentralJob>,
    next_job: u64,
    rr_cursor: usize,
    /// Jobs placed (diagnostics).
    pub jobs_created: u64,
    _predictor: Option<SharedPredictor>,
}

impl CentralController {
    /// Build a controller with the given policy.
    pub fn new(policy: CentralPolicy) -> Self {
        CentralController {
            producer: None,
            policy,
            model: CostModel::paper_calibrated(),
            members: Vec::new(),
            jobs: HashMap::new(),
            next_job: 0,
            rr_cursor: 0,
            jobs_created: 0,
            _predictor: None,
        }
    }

    /// Deploy the controller as a producer on `router`, registering
    /// `/central`. Returns the actor id.
    pub fn deploy(
        self,
        sim: &mut Sim,
        router: ActorId,
        alloc: &FaceIdAlloc,
    ) -> ActorId {
        let app = sim.spawn("central-controller", self);
        let face = attach_app(sim, router, app, alloc);
        sim.actor_mut::<CentralController>(app).unwrap().producer =
            Some(Producer::new(router, face));
        sim.actor_mut::<Forwarder>(router)
            .unwrap()
            .register_prefix(central_prefix(), face, 0);
        app
    }

    /// Register a member cluster (the controller must be told about every
    /// cluster — contrast with LIDC, where clusters just announce names).
    pub fn add_member(sim: &mut Sim, controller: ActorId, name: impl Into<String>, cluster: Cluster) {
        sim.actor_mut::<CentralController>(controller)
            .expect("controller alive")
            .members
            .push(Member {
                name: name.into(),
                cluster,
            });
    }

    fn pick_member(&mut self) -> Option<usize> {
        if self.members.is_empty() {
            return None;
        }
        match self.policy {
            CentralPolicy::RoundRobin => {
                let idx = self.rr_cursor % self.members.len();
                self.rr_cursor += 1;
                Some(idx)
            }
            CentralPolicy::GlobalLeastLoaded => {
                let mut best = 0usize;
                let mut best_load = f64::INFINITY;
                for (i, m) in self.members.iter().enumerate() {
                    let api = m.cluster.api.read();
                    let allocatable = api.cluster_allocatable();
                    let free = api.cluster_free();
                    let used = allocatable.saturating_sub(&free);
                    let load = used.dominant_utilisation(&allocatable);
                    if load < best_load {
                        best_load = load;
                        best = i;
                    }
                }
                Some(best)
            }
        }
    }

    fn on_submit(&mut self, interest: Interest, request: ComputeRequest, ctx: &mut Ctx<'_>) {
        let Some(member_idx) = self.pick_member() else {
            self.reply_nack(ctx, interest.name, "no-members".into());
            return;
        };
        // Plan via the same cost model as LIDC (fair comparison).
        let accession = request.param("srr");
        let input_bytes = accession
            .and_then(lidc_genomics::blast::lookup_run)
            .map(|r| r.size_bytes)
            .unwrap_or(1_000_000_000);
        let est = self.model.estimate(
            &request.app,
            accession,
            input_bytes,
            request.cpu_cores,
            request.mem_gib,
        );
        let seq = self.next_job;
        self.next_job += 1;
        // lidc-lint: allow(panic-path) reason="pick_member just returned member_idx after checking it against members.len(), and members is fixed at construction"
        let member = self.members[member_idx].clone();
        let job_id = format!("central-job-{seq}");
        let template = PodSpec::single(ContainerSpec {
            name: request.app.to_lowercase(),
            image: format!("central/{}:latest", request.app.to_lowercase()),
            requests: Resources::new(request.cpu_cores, request.mem_gib),
            workload: WorkloadSpec::Run {
                duration: est.duration,
                output: Some((format!("/central-results/{job_id}"), est.output_bytes)),
            },
        });
        let created = {
            let now = ctx.now();
            let job = lidc_k8s::job::Job::new(ObjectMeta::named(&job_id), template, 2);
            member.cluster.api.write().create_job(job, now)
        };
        let key = match created {
            Ok(k) => k,
            Err(e) => {
                self.reply_nack(ctx, interest.name, format!("create-failed: {e}"));
                return;
            }
        };
        ctx.send(member.cluster.actor, Nudge);
        self.jobs.insert(job_id.clone(), CentralJob {
            member: member_idx,
            key,
            output_bytes: est.output_bytes,
        });
        self.jobs_created += 1;
        ctx.metrics().incr("central.jobs_created", 1);
        let ack = SubmitAck {
            job_id,
            cluster: member.name.clone(),
            state: "Pending".into(),
        };
        let data = Data::new(interest.name, ack.to_text().into_bytes()).sign_digest();
        // lidc-lint: allow(panic-path) reason="deploy() installs the producer before the controller id escapes, so no Interest can arrive while it is None"
        self.producer.expect("deployed").reply(ctx, data);
    }

    fn on_status(&mut self, interest: Interest, job_id: &str, ctx: &mut Ctx<'_>) {
        let Some(record) = self.jobs.get(job_id) else {
            self.reply_nack(ctx, interest.name, format!("unknown-job: {job_id}"));
            return;
        };
        let condition = self.members[record.member]
            .cluster
            .job(&record.key)
            .map(|j| (j.status.condition, j.status.message.clone()));
        let state = match condition {
            None | Some((JobCondition::Pending, _)) => JobState::Pending,
            // The centralized design has no per-app learning; no ETA.
            Some((JobCondition::Running, _)) => JobState::Running { eta_secs: None },
            Some((JobCondition::Completed, _)) => JobState::Completed {
                result: central_prefix()
                    .child_str("results")
                    .child_str(job_id),
                size: record.output_bytes,
            },
            Some((JobCondition::Failed, message)) => JobState::Failed { error: message },
        };
        let data = Data::new(interest.name, state.to_text().into_bytes())
            .with_freshness(SimDuration::from_millis(100))
            .sign_digest();
        // lidc-lint: allow(panic-path) reason="deploy() installs the producer before the controller id escapes, so no Interest can arrive while it is None"
        self.producer.expect("deployed").reply(ctx, data);
    }

    fn reply_nack(&mut self, ctx: &mut Ctx<'_>, name: Name, message: String) {
        let data = Data::new(name, message.into_bytes())
            .with_content_type(ContentType::Nack)
            .with_freshness(SimDuration::from_millis(100))
            .sign_digest();
        // lidc-lint: allow(panic-path) reason="deploy() installs the producer before the controller id escapes, so no Interest can arrive while it is None"
        self.producer.expect("deployed").reply(ctx, data);
    }
}

impl Actor for CentralController {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let Ok(rx) = msg.downcast::<AppRx>() else {
            return;
        };
        let Packet::Interest(interest) = rx.packet else {
            return;
        };
        let name = interest.name.clone();
        let prefix = central_prefix();
        // /central/submit/<params> or /central/status/<job-id>
        if name.len() == prefix.len() + 2 {
            let verb = name.get(prefix.len()).and_then(|c| c.as_str());
            let arg = name.get(prefix.len() + 1).and_then(|c| c.as_str());
            match (verb, arg) {
                (Some("submit"), Some(params)) => {
                    match ComputeRequest::from_param_component(params) {
                        Ok(request) => self.on_submit(interest, request, ctx),
                        Err(e) => {
                            self.reply_nack(ctx, name, format!("malformed: {e}"));
                        }
                    }
                    return;
                }
                (Some("status"), Some(job_id)) => {
                    let job_id = job_id.to_owned();
                    self.on_status(interest, &job_id, ctx);
                    return;
                }
                _ => {}
            }
        }
        self.reply_nack(ctx, name, "unknown-central-request".into());
    }
}

/// The client addressing of the centralized world: submit and status
/// Interests go to the controller.
pub const ADDRESSING: Addressing = Addressing {
    submit: submit_name,
    status: status_name,
};

/// Deploy a science client that places through the controller on `fwd`
/// (the router the controller lives on). Result fetching is off: the
/// controller serves no result objects.
pub fn deploy_client(
    config: ClientConfig,
    sim: &mut Sim,
    fwd: ActorId,
    alloc: &FaceIdAlloc,
    label: impl Into<String>,
) -> ActorId {
    let config = ClientConfig {
        fetch_results: false,
        ..config
    };
    ScienceClient::deploy_addressed(config, ADDRESSING, sim, fwd, alloc, label)
}

/// Build the submit Interest name for a request.
pub fn submit_name(request: &ComputeRequest) -> Name {
    central_prefix()
        .child_str("submit")
        .child_str(&request.to_param_component())
}

/// Build the status Interest name for a job id.
pub fn status_name(job_id: &str) -> Name {
    central_prefix().child_str("status").child_str(job_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidc_core::client::Submit;
    use lidc_k8s::cluster::ClusterConfig;
    use lidc_k8s::node::Node;
    use lidc_k8s::resources::Resources;
    use lidc_ndn::forwarder::{Forwarder, ForwarderConfig};

    fn k8s_cluster(sim: &mut Sim, name: &str) -> Cluster {
        let c = Cluster::spawn(sim, ClusterConfig::named(name));
        c.add_node(sim, Node::new(format!("{name}-n0"), Resources::new(16, 64)));
        c
    }

    fn world(
        sim: &mut Sim,
        policy: CentralPolicy,
        member_names: &[&str],
    ) -> (ActorId, ActorId, Vec<Cluster>) {
        let alloc = FaceIdAlloc::new();
        let router = sim.spawn(
            "router",
            Forwarder::new("router", ForwarderConfig::default()),
        );
        let controller = CentralController::new(policy).deploy(sim, router, &alloc);
        let mut clusters = Vec::new();
        for name in member_names {
            let c = k8s_cluster(sim, name);
            CentralController::add_member(sim, controller, *name, c.clone());
            clusters.push(c);
        }
        let client = deploy_client(ClientConfig::default(), sim, router, &alloc, "central-client");
        (controller, client, clusters)
    }

    fn blast() -> ComputeRequest {
        ComputeRequest::new("BLAST", 2, 4)
            .with_param("srr", "SRR2931415")
            .with_param("ref", "HUMAN")
    }

    #[test]
    fn central_submission_completes() {
        let mut sim = Sim::new(1);
        let (_controller, client, _clusters) =
            world(&mut sim, CentralPolicy::RoundRobin, &["a", "b"]);
        sim.send(client, Submit(blast()));
        sim.run();
        let runs = sim.actor::<ScienceClient>(client).unwrap().runs();
        assert_eq!(runs.len(), 1);
        assert!(runs[0].is_success(), "error = {:?}", runs[0].error);
        assert_eq!(runs[0].cluster.as_deref(), Some("a"));
    }

    #[test]
    fn round_robin_cycles_members() {
        let mut sim = Sim::new(2);
        let (_controller, client, _clusters) =
            world(&mut sim, CentralPolicy::RoundRobin, &["a", "b", "c"]);
        for i in 0..6 {
            // Distinct tags keep the six submit-Interest names distinct, so
            // neither the PIT nor the consumer's pending table aggregates
            // them into one request.
            sim.send(
                client,
                Submit(blast().with_param("tag", i.to_string())),
            );
        }
        sim.run();
        let runs = sim.actor::<ScienceClient>(client).unwrap().runs();
        let mut by_cluster: Vec<&str> = runs.iter().filter_map(|r| r.cluster.as_deref()).collect();
        by_cluster.sort_unstable();
        assert_eq!(by_cluster, ["a", "a", "b", "b", "c", "c"]);
    }

    #[test]
    fn least_loaded_prefers_idle_member() {
        let mut sim = Sim::new(3);
        let (_controller, client, clusters) =
            world(&mut sim, CentralPolicy::GlobalLeastLoaded, &["busy", "idle"]);
        // Pre-load the first cluster with a long-running placeholder job so
        // the global view shows it as busy.
        let now = sim.now();
        {
            let mut api = clusters[0].api.write();
            let spec = lidc_k8s::pod::PodSpec::single(lidc_k8s::pod::ContainerSpec {
                name: "hog".into(),
                image: "hog:latest".into(),
                requests: Resources::new(14, 60),
                workload: lidc_k8s::pod::WorkloadSpec::Run {
                    duration: SimDuration::from_hours(100),
                    output: None,
                },
            });
            let job = lidc_k8s::job::Job::new(
                lidc_k8s::meta::ObjectMeta::named("hog"),
                spec,
                1,
            );
            api.create_job(job, now).unwrap();
        }
        sim.send(clusters[0].actor, lidc_k8s::cluster::Nudge);
        sim.run_for(SimDuration::from_secs(5));
        sim.send(client, Submit(blast()));
        sim.run();
        let runs = sim.actor::<ScienceClient>(client).unwrap().runs();
        assert!(runs[0].is_success(), "error = {:?}", runs[0].error);
        assert_eq!(runs[0].cluster.as_deref(), Some("idle"));
    }

    #[test]
    fn controller_crash_fails_all_placement() {
        let mut sim = Sim::new(4);
        let (controller, client, _clusters) =
            world(&mut sim, CentralPolicy::RoundRobin, &["a", "b"]);
        // Kill the single point of failure before anything is submitted.
        sim.kill(controller);
        sim.send(client, Submit(blast()));
        sim.run();
        let runs = sim.actor::<ScienceClient>(client).unwrap().runs();
        assert!(!runs[0].is_success());
        assert!(runs[0].error.as_deref().unwrap().contains("submit-"));
    }

    #[test]
    fn no_members_nacked() {
        let mut sim = Sim::new(5);
        let (_controller, client, _clusters) = world(&mut sim, CentralPolicy::RoundRobin, &[]);
        sim.send(client, Submit(blast()));
        sim.run();
        let runs = sim.actor::<ScienceClient>(client).unwrap().runs();
        assert_eq!(runs[0].error.as_deref(), Some("no-members"));
    }
}
