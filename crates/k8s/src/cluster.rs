//! The cluster control plane: one actor running all controllers.
//!
//! A [`Cluster`] bundles the shared API server with a [`ClusterActor`] that
//! runs the control loops (PVC binder, HPA, Deployment, ReplicaSet, Job,
//! scheduler, endpoints) whenever nudged, 5 ms later — the simulated
//! equivalent of controller watch/resync delay. Pod execution is driven by
//! virtual-time timers: a scheduled pod starts 500 ms after binding (image
//! pull + container start) and finishes according to its
//! [`crate::pod::WorkloadSpec`] timer.

use std::collections::HashSet;

use lidc_simcore::engine::{Actor, ActorId, Ctx, Msg, Sim};
use lidc_simcore::time::{SimDuration, SimTime};

use crate::apiserver::{ApiServer, SharedApi};
use crate::deployment::{Deployment, Hpa, ReplicaSet};
use crate::job::{Job, JobCondition};
use crate::meta::{ObjectKey, ObjectMeta, Uid};
use crate::node::Node;
use crate::pod::{Pod, PodPhase, PodSpec, WorkloadSpec};
use crate::scheduler::Scheduler;
use crate::service::Service;
use crate::storage::{PersistentVolume, PersistentVolumeClaim, PvcPhase};

/// Ask the cluster to run its control loops (after the control latency).
#[derive(Debug)]
pub struct Nudge;

/// Report observed load to an HPA (replica-equivalents).
#[derive(Debug)]
pub struct SetHpaLoad {
    /// HPA key.
    pub hpa: ObjectKey,
    /// Aggregate load in replica-equivalents.
    pub load: f64,
}

/// Toggle a node's readiness (crash / failure injection): an unready
/// node's pods are evicted and respawned elsewhere.
#[derive(Debug)]
pub struct SetNodeReady {
    /// Node name.
    pub node: String,
    /// New readiness.
    pub ready: bool,
}

/// Cordon / uncordon a node (`kubectl cordon`): existing pods keep
/// running, but the scheduler places nothing new on it.
#[derive(Debug)]
pub struct CordonNode {
    /// Node name.
    pub node: String,
    /// New cordon state.
    pub cordoned: bool,
}

#[derive(Debug)]
struct Reconcile;

#[derive(Debug)]
struct PodStart {
    uid: Uid,
}

/// `(duration, ok, message, output)` of a pod's terminal transition.
type PodOutcome = (SimDuration, bool, String, Option<(String, u64)>);

#[derive(Debug)]
struct PodFinish {
    uid: Uid,
    ok: bool,
    message: String,
    output: Option<(String, u64)>,
}

/// Delay between a state change and the controllers observing it.
const CONTROL_LOOP_LATENCY: SimDuration = SimDuration::from_millis(5);

/// Image-pull + container-start latency for scheduled pods.
const POD_START_LATENCY: SimDuration = SimDuration::from_millis(500);

/// The control-plane actor.
pub struct ClusterActor {
    api: SharedApi,
    reconcile_pending: bool,
    /// Pods whose start timer is armed or that already started.
    started: HashSet<Uid>,
    /// Pods whose finish timer is armed.
    finishing: HashSet<Uid>,
}

impl ClusterActor {
    /// Build the actor around a shared API server.
    pub fn new(api: SharedApi) -> Self {
        ClusterActor {
            api,
            reconcile_pending: false,
            started: HashSet::new(),
            finishing: HashSet::new(),
        }
    }

    fn request_reconcile(&mut self, ctx: &mut Ctx<'_>) {
        if !self.reconcile_pending {
            self.reconcile_pending = true;
            ctx.schedule_self(CONTROL_LOOP_LATENCY, Reconcile);
        }
    }

    fn reconcile(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let mut to_start: Vec<Uid> = Vec::new();
        {
            let api = &mut *self.api.write();
            let _ = api.take_dirty();
            // Run controllers to a fixpoint (bounded; each pass is cheap).
            for _ in 0..16 {
                let mut changed = false;
                changed |= evict_from_unready_nodes(api, now);
                changed |= bind_pvcs(api, now);
                changed |= reconcile_hpas(api, now);
                changed |= reconcile_deployments(api, now);
                changed |= reconcile_replicasets(api, now);
                changed |= reconcile_jobs(api, now);
                changed |= !Scheduler.schedule(api, now).is_empty();
                changed |= reconcile_endpoints(api);
                if !changed {
                    break;
                }
            }
            let _ = api.take_dirty();
            // Arm start timers for newly bound pods.
            for pod in api.pods.values() {
                if pod.status.phase == PodPhase::Pending
                    && pod.status.node.is_some()
                    && !self.started.contains(&pod.meta.uid)
                {
                    to_start.push(pod.meta.uid);
                }
            }
        }
        for uid in to_start {
            self.started.insert(uid);
            ctx.schedule_self(POD_START_LATENCY, PodStart { uid });
        }
    }

    fn on_pod_start(&mut self, uid: Uid, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let finish: Option<PodOutcome>;
        {
            let api = &mut *self.api.write();
            let Some(pod) = api.pod_by_uid_mut(uid) else {
                return; // deleted meanwhile
            };
            if pod.status.phase != PodPhase::Pending || pod.status.node.is_none() {
                return;
            }
            // Pending(bound) → Running: both sides hold resources, so the
            // usage index is unaffected and a direct write is exact.
            pod.status.phase = PodPhase::Running;
            pod.status.started_at = Some(now);
            let key = pod.meta.key().to_string();
            let attempt: u32 = pod
                .meta
                .labels
                .get("attempt")
                .and_then(|a| a.parse().ok())
                .unwrap_or(0);
            let workload = pod.spec.containers[0].workload.clone();
            api.record_event(now, "PodStarted", key, "");
            api.mark_dirty();
            finish = match workload {
                WorkloadSpec::Run { duration, output } => {
                    Some((duration, true, String::new(), output))
                }
                WorkloadSpec::Fail { after, message } => Some((after, false, message, None)),
                WorkloadSpec::FlakyThenSucceed {
                    failures,
                    attempt_duration,
                } => {
                    if attempt >= failures {
                        Some((attempt_duration, true, String::new(), None))
                    } else {
                        Some((
                            attempt_duration,
                            false,
                            format!("flaky failure {}/{failures}", attempt + 1),
                            None,
                        ))
                    }
                }
                WorkloadSpec::Forever => None,
            };
        }
        if let Some((duration, ok, message, output)) = finish {
            self.finishing.insert(uid);
            ctx.schedule_self(duration, PodFinish {
                uid,
                ok,
                message,
                output,
            });
        }
        self.request_reconcile(ctx);
    }

    fn on_pod_finish(&mut self, msg: PodFinish, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.finishing.remove(&msg.uid);
        {
            let api = &mut *self.api.write();
            let Some(pod) = api.pod_by_uid(msg.uid) else {
                return;
            };
            if pod.status.phase != PodPhase::Running {
                return;
            }
            // Through the API: leaving Running releases the node's
            // resources in the persistent usage index.
            api.set_pod_phase(
                msg.uid,
                if msg.ok {
                    PodPhase::Succeeded
                } else {
                    PodPhase::Failed
                },
            );
            // lidc-lint: allow(panic-path) reason="set_pod_phase succeeded on msg.uid just above, so pod_by_uid_mut cannot miss"
            let pod = api.pod_by_uid_mut(msg.uid).expect("phase just set");
            pod.status.finished_at = Some(now);
            pod.status.message = msg.message.clone();
            pod.status.output = msg.output.clone();
            let key = pod.meta.key().to_string();
            let kind = if msg.ok { "PodSucceeded" } else { "PodFailed" };
            api.record_event(now, kind, key, msg.message.clone());
            api.mark_dirty();
        }
        self.request_reconcile(ctx);
    }
}

impl Actor for ClusterActor {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<Nudge>() {
            Ok(_) => {
                self.request_reconcile(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Reconcile>() {
            Ok(_) => {
                self.reconcile_pending = false;
                self.reconcile(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PodStart>() {
            Ok(s) => {
                self.on_pod_start(s.uid, ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PodFinish>() {
            Ok(f) => {
                self.on_pod_finish(*f, ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SetHpaLoad>() {
            Ok(s) => {
                {
                    let api = &mut *self.api.write();
                    if let Some(hpa) = api.hpas.get_mut(&s.hpa) {
                        hpa.observed_load = s.load;
                        api.mark_dirty();
                    }
                }
                self.request_reconcile(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SetNodeReady>() {
            Ok(s) => {
                {
                    let api = &mut *self.api.write();
                    if let Some(node) = api.nodes.get_mut(&s.node) {
                        node.ready = s.ready;
                        api.mark_dirty();
                    }
                }
                self.request_reconcile(ctx);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<CordonNode>() {
            Ok(c) => {
                self.api.write().set_node_cordoned(&c.node, c.cordoned);
                self.request_reconcile(ctx);
            }
            Err(_) => {
                ctx.metrics().incr("k8s.unknown_message", 1);
            }
        }
    }
}

// ----- controllers (free functions over the API server) -----

/// Node-failure semantics: pods bound to a node that went unready are lost
/// (the real node controller marks them and the owning Job/ReplicaSet makes
/// replacements). Marking them Failed here lets `reconcile_jobs` /
/// `reconcile_replicasets` re-create them on surviving nodes; the stale
/// start/finish timers no-op because the phase has moved on.
fn evict_from_unready_nodes(api: &mut ApiServer, now: SimTime) -> bool {
    let unready: Vec<String> = api
        .nodes
        .values()
        .filter(|n| !n.ready)
        .map(|n| n.meta.name.clone())
        .collect();
    if unready.is_empty() {
        return false;
    }
    let victims: Vec<Uid> = api
        .pods
        .values()
        .filter(|p| matches!(p.status.phase, PodPhase::Pending | PodPhase::Running))
        .filter(|p| {
            p.status
                .node
                .as_ref()
                .map(|n| unready.contains(n))
                .unwrap_or(false)
        })
        .map(|p| p.meta.uid)
        .collect();
    let mut changed = false;
    for uid in victims {
        // Through the API so the persistent usage index releases the node.
        if !api.set_pod_phase(uid, PodPhase::Failed) {
            continue;
        }
        // lidc-lint: allow(panic-path) reason="set_pod_phase(uid, ..) returned true just above, so the uid is present"
        let pod = api.pod_by_uid_mut(uid).expect("phase just set");
        pod.status.finished_at = Some(now);
        pod.status.message = "node lost".to_owned();
        let key = pod.meta.key().to_string();
        api.record_event(now, "PodEvicted", key, "node went unready");
        changed = true;
    }
    if changed {
        api.mark_dirty();
    }
    changed
}

fn bind_pvcs(api: &mut ApiServer, now: SimTime) -> bool {
    let pending: Vec<ObjectKey> = api
        .pvcs
        .iter()
        .filter(|(_, pvc)| pvc.phase == PvcPhase::Pending)
        .map(|(k, _)| k.clone())
        .collect();
    let mut changed = false;
    for key in pending {
        let request = api.pvcs[&key].request;
        // Smallest sufficient unbound volume, name tie-break (BTreeMap order).
        let candidate = api
            .pvs
            .values()
            .filter(|pv| pv.bound_to.is_none() && pv.capacity >= request)
            .min_by_key(|pv| (pv.capacity, pv.meta.name.clone()))
            .map(|pv| pv.meta.name.clone());
        if let Some(pv_name) = candidate {
            // lidc-lint: allow(panic-path) reason="pv_name was just selected from api.pvs iteration and nothing mutates pvs in between"
            api.pvs.get_mut(&pv_name).unwrap().bound_to = Some(key.to_string());
            // lidc-lint: allow(panic-path) reason="the caller iterates PVC keys collected from api.pvcs and nothing removes them mid-pass"
            let pvc = api.pvcs.get_mut(&key).unwrap();
            pvc.phase = PvcPhase::Bound;
            pvc.volume = Some(pv_name.clone());
            api.record_event(now, "PvcBound", key.to_string(), pv_name);
            changed = true;
        }
    }
    changed
}

fn reconcile_hpas(api: &mut ApiServer, now: SimTime) -> bool {
    let mut changed = false;
    let updates: Vec<(ObjectKey, u32)> = api
        .hpas
        .values()
        .map(|hpa| {
            (
                ObjectKey::new(hpa.meta.namespace.clone(), hpa.target.clone()),
                hpa.desired_replicas(),
            )
        })
        .collect();
    for (target, desired) in updates {
        if let Some(d) = api.deployments.get_mut(&target) {
            if d.replicas != desired {
                d.replicas = desired;
                api.record_event(now, "Scaled", target.to_string(), format!("to {desired}"));
                changed = true;
            }
        }
    }
    changed
}

fn reconcile_deployments(api: &mut ApiServer, now: SimTime) -> bool {
    let mut changed = false;
    let deployments: Vec<Deployment> = api.deployments.values().cloned().collect();
    for d in deployments {
        let rs_key = ObjectKey::new(d.meta.namespace.clone(), format!("{}-rs", d.meta.name));
        match api.replicasets.get_mut(&rs_key) {
            None => {
                let mut labels = d.template_labels.clone();
                labels.insert("rs".to_owned(), rs_key.name.clone());
                let rs = ReplicaSet {
                    meta: ObjectMeta {
                        name: rs_key.name.clone(),
                        namespace: rs_key.namespace.clone(),
                        labels: d.meta.labels.clone(),
                        uid: api.alloc_uid(),
                        created_at: now,
                    },
                    replicas: d.replicas,
                    selector: d.selector.clone(),
                    template: d.template.clone(),
                    template_labels: labels,
                    ready_replicas: 0,
                };
                api.record_event(now, "ReplicaSetCreated", rs_key.to_string(), "");
                api.replicasets.insert(rs_key, rs);
                changed = true;
            }
            Some(rs) => {
                if rs.replicas != d.replicas {
                    rs.replicas = d.replicas;
                    changed = true;
                }
                if rs.template != d.template {
                    rs.template = d.template.clone();
                    changed = true;
                }
            }
        }
    }
    changed
}

fn reconcile_replicasets(api: &mut ApiServer, now: SimTime) -> bool {
    let mut changed = false;
    let rs_keys: Vec<ObjectKey> = api.replicasets.keys().cloned().collect();
    for rs_key in rs_keys {
        let (replicas, template, labels, ns) = {
            let rs = &api.replicasets[&rs_key];
            (
                rs.replicas,
                rs.template.clone(),
                rs.template_labels.clone(),
                rs.meta.namespace.clone(),
            )
        };
        let live: Vec<ObjectKey> = api
            .pods
            .iter()
            .filter(|(_, p)| {
                !p.is_finished() && p.meta.labels.get("rs") == Some(&rs_key.name)
            })
            .map(|(k, _)| k.clone())
            .collect();
        let running = api
            .pods
            .values()
            .filter(|p| {
                p.status.phase == PodPhase::Running
                    && p.meta.labels.get("rs") == Some(&rs_key.name)
            })
            .count() as u32;
        if (live.len() as u32) < replicas {
            for _ in 0..(replicas - live.len() as u32) {
                let uid_hint = api.alloc_uid();
                let name = format!("{}-{}", rs_key.name, uid_hint.0);
                let mut meta = ObjectMeta::named(&name).in_namespace(&ns);
                meta.labels = labels.clone();
                let pod = Pod::new(meta, template.clone());
                let key = pod.meta.key().to_string();
                if api.create_pod(pod, now).is_ok() {
                    api.record_event(now, "ReplicaPodCreated", key, rs_key.to_string());
                    changed = true;
                }
            }
        } else if (live.len() as u32) > replicas {
            // Delete the newest extras (highest uid first).
            let mut extras = live.clone();
            // lidc-lint: allow(panic-path) reason="extras clones live, whose keys were collected from api.pods in this same pass"
            extras.sort_by_key(|k| std::cmp::Reverse(api.pods[k].meta.uid));
            for key in extras.into_iter().take(live.len() - replicas as usize) {
                // Through the API so the uid/job/usage indexes stay exact.
                api.delete_pod(&key);
                api.record_event(now, "ReplicaPodDeleted", key.to_string(), rs_key.to_string());
                changed = true;
            }
        }
        // lidc-lint: allow(panic-path) reason="rs_key was collected from api.replicasets at the top of the reconcile pass and replicasets are not removed mid-pass"
        let rs = api.replicasets.get_mut(&rs_key).unwrap();
        if rs.ready_replicas != running {
            rs.ready_replicas = running;
            changed = true;
        }
    }
    changed
}

/// The Job controller pass. `pub` so the `k8s_reconcile` microbench can
/// measure a pass in isolation against a large resident pod population.
///
/// Pod ownership comes from the API server's **persistent** pods-by-job
/// index ([`ApiServer::pods_of_job`]), maintained incrementally at pod
/// create/delete — this pass no longer sweeps every pod (PR 2's per-call
/// grouping sweep was O(pods) per pass; with thousands of long-running
/// pods resident on the 4096-node runs, that sweep dominated every
/// control-loop tick even when one job changed).
pub fn reconcile_jobs(api: &mut ApiServer, now: SimTime) -> bool {
    let mut changed = false;
    let job_keys: Vec<ObjectKey> = api.jobs.keys().cloned().collect();
    for key in job_keys {
        if api.jobs[&key].is_finished() {
            continue;
        }
        let backoff_limit = api.jobs[&key].spec.backoff_limit;
        // Pods owned by this job (persistent index, creation order).
        // Resolve each owned pod exactly once and derive every per-job
        // aggregate in a single read pass — on a steady-state pass this is
        // the entire per-job cost.
        let (owned_count, succeeded, failures, live, running_pod_start, fail_message) = {
            let owned = api.pods_of_job(&key.name);
            // lidc-lint: allow(panic-path) reason="pods_of_job returns keys of pods currently present in api.pods"
            let pods: Vec<&crate::pod::Pod> = owned.iter().map(|k| &api.pods[k]).collect();
            let succeeded = pods
                .iter()
                .find(|p| p.status.phase == PodPhase::Succeeded)
                .map(|p| {
                    (
                        p.status.finished_at,
                        p.status.output.clone(),
                        p.status.started_at,
                    )
                });
            let failures = pods
                .iter()
                .filter(|p| p.status.phase == PodPhase::Failed)
                .count() as u32;
            let live = pods.iter().any(|p| !p.is_finished());
            let running_pod_start = pods
                .iter()
                .filter_map(|p| {
                    if p.status.phase == PodPhase::Running {
                        p.status.started_at
                    } else {
                        None
                    }
                })
                .min();
            let fail_message = pods
                .iter()
                .rfind(|p| p.status.phase == PodPhase::Failed)
                .map(|p| p.status.message.clone());
            (
                owned.len(),
                succeeded,
                failures,
                live,
                running_pod_start,
                fail_message,
            )
        };

        if let Some((finished_at, output, started_at)) = succeeded {
            // lidc-lint: allow(panic-path) reason="key was collected from api.jobs at the top of the reconcile pass and jobs are never removed mid-pass"
            let job = api.jobs.get_mut(&key).unwrap();
            job.status.condition = JobCondition::Completed;
            job.status.finished_at = finished_at;
            job.status.output = output;
            if job.status.started_at.is_none() {
                job.status.started_at = started_at;
            }
            job.status.failures = failures;
            api.record_event(now, "JobCompleted", key.to_string(), "");
            changed = true;
        } else if failures > backoff_limit {
            let message = fail_message.unwrap_or_default();
            // lidc-lint: allow(panic-path) reason="key was collected from api.jobs at the top of the reconcile pass and jobs are never removed mid-pass"
            let job = api.jobs.get_mut(&key).unwrap();
            job.status.condition = JobCondition::Failed;
            job.status.finished_at = Some(now);
            job.status.message = message.clone();
            job.status.failures = failures;
            api.record_event(now, "JobFailed", key.to_string(), message);
            changed = true;
        } else if !live {
            // Launch the next attempt.
            let attempt = owned_count as u32;
            let name = format!("{}-{}", key.name, attempt);
            let mut meta = ObjectMeta::named(&name).in_namespace(&key.namespace);
            meta.labels.insert("job".to_owned(), key.name.clone());
            meta.labels.insert("attempt".to_owned(), attempt.to_string());
            let template = api.jobs[&key].spec.template.clone();
            let pod = Pod::new(meta, template);
            let pod_key = pod.meta.key().to_string();
            if api.create_pod(pod, now).is_ok() {
                // lidc-lint: allow(panic-path) reason="key was collected from api.jobs at the top of the reconcile pass and jobs are never removed mid-pass"
                let job = api.jobs.get_mut(&key).unwrap();
                job.status.pods.push(name);
                job.status.failures = failures;
                api.record_event(now, "JobPodLaunched", key.to_string(), pod_key);
                changed = true;
            }
        } else if let Some(start) = running_pod_start {
            // lidc-lint: allow(panic-path) reason="key was collected from api.jobs at the top of the reconcile pass and jobs are never removed mid-pass"
            let job = api.jobs.get_mut(&key).unwrap();
            if job.status.condition != JobCondition::Running {
                job.status.condition = JobCondition::Running;
                job.status.started_at = Some(start);
                api.record_event(now, "JobRunning", key.to_string(), "");
                changed = true;
            }
        }
    }
    changed
}

fn reconcile_endpoints(api: &mut ApiServer) -> bool {
    let mut changed = false;
    let svc_keys: Vec<ObjectKey> = api.services.keys().cloned().collect();
    for key in svc_keys {
        let selector = api.services[&key].spec.selector.clone();
        let mut endpoints: Vec<String> = api
            .pods
            .values()
            .filter(|p| p.status.phase == PodPhase::Running && selector.matches(&p.meta.labels))
            .filter_map(|p| p.status.ip.clone())
            .collect();
        endpoints.sort();
        // lidc-lint: allow(panic-path) reason="key was collected from api.services at the top of the reconcile pass"
        let svc = api.services.get_mut(&key).unwrap();
        if svc.status.endpoints != endpoints {
            svc.status.endpoints = endpoints;
            changed = true;
        }
    }
    changed
}

/// A deployed cluster: the actor id plus the shared API handle.
#[derive(Clone)]
pub struct Cluster {
    /// Control-plane actor.
    pub actor: ActorId,
    /// Shared API server.
    pub api: SharedApi,
    /// Cluster name.
    pub name: String,
}

impl Cluster {
    /// Spawn a cluster named `name` into the simulation.
    pub fn spawn(sim: &mut Sim, name: impl Into<String>) -> Cluster {
        let name = name.into();
        let api = ApiServer::shared(&name);
        let actor = sim.spawn(format!("k8s-{name}"), ClusterActor::new(api.clone()));
        Cluster { actor, api, name }
    }

    /// Add a node and nudge the control plane.
    pub fn add_node(&self, sim: &mut Sim, node: Node) {
        let now = sim.now();
        self.api.write().add_node(node, now);
        sim.send(self.actor, Nudge);
    }

    /// Create a service.
    pub fn create_service(&self, sim: &mut Sim, svc: Service) {
        let now = sim.now();
        self.api
            .write()
            .create_service(svc, now)
            .expect("service name collision");
        sim.send(self.actor, Nudge);
    }

    /// Create a job; returns its key.
    pub fn create_job(&self, sim: &mut Sim, name: &str, template: PodSpec, backoff: u32) -> ObjectKey {
        let now = sim.now();
        let job = Job::new(ObjectMeta::named(name), template, backoff);
        let key = self
            .api
            .write()
            .create_job(job, now)
            // lidc-lint: allow(panic-path) reason="job names embed the controller's monotonically increasing sequence number, so create_job never collides"
            .expect("job name collision");
        sim.send(self.actor, Nudge);
        key
    }

    /// Create a deployment.
    pub fn create_deployment(&self, sim: &mut Sim, d: Deployment) {
        let now = sim.now();
        self.api
            .write()
            .create_deployment(d, now)
            .expect("deployment name collision");
        sim.send(self.actor, Nudge);
    }

    /// Create an HPA.
    pub fn create_hpa(&self, sim: &mut Sim, hpa: Hpa) {
        let now = sim.now();
        self.api.write().create_hpa(hpa, now).expect("hpa name collision");
        sim.send(self.actor, Nudge);
    }

    /// Register a PV.
    pub fn add_pv(&self, sim: &mut Sim, pv: PersistentVolume) {
        let now = sim.now();
        self.api.write().add_pv(pv, now);
        sim.send(self.actor, Nudge);
    }

    /// Create a PVC.
    pub fn create_pvc(&self, sim: &mut Sim, pvc: PersistentVolumeClaim) {
        let now = sim.now();
        self.api.write().create_pvc(pvc, now).expect("pvc name collision");
        sim.send(self.actor, Nudge);
    }

    /// Snapshot a job's condition.
    pub fn job_condition(&self, key: &ObjectKey) -> Option<JobCondition> {
        self.api.read().jobs.get(key).map(|j| j.status.condition)
    }

    /// Snapshot a full job.
    pub fn job(&self, key: &ObjectKey) -> Option<Job> {
        self.api.read().jobs.get(key).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::ContainerSpec;
    use crate::resources::Resources;

    fn blast_template(duration_hours: u64, output_mb: u64) -> PodSpec {
        PodSpec::single(ContainerSpec {
            name: "blast".into(),
            image: "magicblast".into(),
            requests: Resources::new(2, 4),
            workload: WorkloadSpec::Run {
                duration: SimDuration::from_hours(duration_hours),
                output: Some(("result".into(), output_mb * 1_000_000)),
            },
        })
    }

    fn cluster_with_node(sim: &mut Sim, cores: u64, gib: u64) -> Cluster {
        let cluster = Cluster::spawn(sim, "test");
        cluster.add_node(sim, Node::new("node-1", Resources::new(cores, gib)));
        cluster
    }

    #[test]
    fn job_runs_to_completion() {
        let mut sim = Sim::new(1);
        let cluster = cluster_with_node(&mut sim, 8, 16);
        let key = cluster.create_job(&mut sim, "blast-1", blast_template(8, 941), 3);
        sim.run();
        let job = cluster.job(&key).unwrap();
        assert_eq!(job.status.condition, JobCondition::Completed);
        assert_eq!(job.status.output, Some(("result".into(), 941_000_000)));
        assert_eq!(job.run_time(), Some(SimDuration::from_hours(8)));
        assert!(job.status.finished_at.unwrap() > SimTime::ZERO + SimDuration::from_hours(8));
    }

    #[test]
    fn job_status_progresses_through_conditions() {
        let mut sim = Sim::new(2);
        let cluster = cluster_with_node(&mut sim, 8, 16);
        let key = cluster.create_job(&mut sim, "j", blast_template(1, 1), 0);
        // Before any reconcile: Pending.
        assert_eq!(cluster.job_condition(&key), Some(JobCondition::Pending));
        // After start latency + control latency: Running.
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(cluster.job_condition(&key), Some(JobCondition::Running));
        sim.run();
        assert_eq!(cluster.job_condition(&key), Some(JobCondition::Completed));
    }

    #[test]
    fn failed_job_retries_until_backoff_limit() {
        let mut sim = Sim::new(3);
        let cluster = cluster_with_node(&mut sim, 8, 16);
        let template = PodSpec::single(ContainerSpec {
            name: "bad".into(),
            image: "broken".into(),
            requests: Resources::new(1, 1),
            workload: WorkloadSpec::Fail {
                after: SimDuration::from_secs(10),
                message: "segfault".into(),
            },
        });
        let key = cluster.create_job(&mut sim, "doomed", template, 2);
        sim.run();
        let job = cluster.job(&key).unwrap();
        assert_eq!(job.status.condition, JobCondition::Failed);
        assert_eq!(job.status.failures, 3, "initial + 2 retries");
        assert_eq!(job.status.message, "segfault");
        let api = cluster.api.read();
        assert_eq!(api.pods.len(), 3, "three attempts");
    }

    #[test]
    fn flaky_job_eventually_succeeds_within_backoff() {
        let mut sim = Sim::new(4);
        let cluster = cluster_with_node(&mut sim, 8, 16);
        let template = PodSpec::single(ContainerSpec {
            name: "flaky".into(),
            image: "flaky".into(),
            requests: Resources::new(1, 1),
            workload: WorkloadSpec::FlakyThenSucceed {
                failures: 2,
                attempt_duration: SimDuration::from_secs(5),
            },
        });
        let key = cluster.create_job(&mut sim, "flaky", template, 3);
        sim.run();
        let job = cluster.job(&key).unwrap();
        assert_eq!(job.status.condition, JobCondition::Completed);
        assert_eq!(job.status.failures, 2);
    }

    #[test]
    fn jobs_queue_when_cluster_full() {
        let mut sim = Sim::new(5);
        let cluster = cluster_with_node(&mut sim, 4, 8);
        // Each job wants 2 cores/4 GiB ⇒ two run concurrently, third waits.
        let keys: Vec<ObjectKey> = (0..3)
            .map(|i| cluster.create_job(&mut sim, &format!("j{i}"), blast_template(1, 1), 0))
            .collect();
        sim.run_for(SimDuration::from_mins(30));
        let conditions: Vec<JobCondition> = keys
            .iter()
            .map(|k| cluster.job_condition(k).unwrap())
            .collect();
        assert_eq!(
            conditions
                .iter()
                .filter(|c| **c == JobCondition::Running)
                .count(),
            2,
            "exactly two running: {conditions:?}"
        );
        sim.run();
        for k in &keys {
            assert_eq!(cluster.job_condition(k), Some(JobCondition::Completed));
        }
    }

    #[test]
    fn deployment_maintains_replicas_and_endpoints() {
        let mut sim = Sim::new(6);
        let cluster = cluster_with_node(&mut sim, 16, 32);
        let template = PodSpec::single(ContainerSpec {
            name: "fs".into(),
            image: "fileserver".into(),
            requests: Resources::new(1, 1),
            workload: WorkloadSpec::Forever,
        });
        cluster.create_service(&mut sim, Service::cluster_ip("fileserver", "fs", 8080));
        cluster.create_deployment(&mut sim, Deployment::new("fileserver", "fs", 3, template));
        sim.run();
        let api = cluster.api.read();
        let running = api
            .pods
            .values()
            .filter(|p| p.status.phase == PodPhase::Running)
            .count();
        assert_eq!(running, 3);
        let svc = &api.services[&ObjectKey::named("fileserver")];
        assert_eq!(svc.status.endpoints.len(), 3, "endpoints track ready pods");
    }

    #[test]
    fn hpa_scales_deployment_up_and_down() {
        let mut sim = Sim::new(7);
        let cluster = cluster_with_node(&mut sim, 32, 64);
        let template = PodSpec::single(ContainerSpec {
            name: "w".into(),
            image: "worker".into(),
            requests: Resources::new(1, 1),
            workload: WorkloadSpec::Forever,
        });
        cluster.create_deployment(&mut sim, Deployment::new("workers", "w", 1, template));
        cluster.create_hpa(&mut sim, Hpa::new("workers-hpa", "workers", 1, 8, 0.5));
        sim.run();
        let count_running = |cluster: &Cluster| {
            cluster
                .api
                .read()
                .pods
                .values()
                .filter(|p| p.status.phase == PodPhase::Running)
                .count()
        };
        assert_eq!(count_running(&cluster), 1);
        sim.send(cluster.actor, SetHpaLoad {
            hpa: ObjectKey::named("workers-hpa"),
            load: 3.0,
        });
        sim.run();
        assert_eq!(count_running(&cluster), 6, "3.0/0.5 = 6 replicas");
        sim.send(cluster.actor, SetHpaLoad {
            hpa: ObjectKey::named("workers-hpa"),
            load: 0.0,
        });
        sim.run();
        assert_eq!(count_running(&cluster), 1, "scales back to min");
    }

    #[test]
    fn pvc_binds_to_smallest_sufficient_pv() {
        use crate::resources::Memory;
        use crate::storage::NfsExport;
        let mut sim = Sim::new(8);
        let cluster = cluster_with_node(&mut sim, 4, 8);
        cluster.add_pv(
            &mut sim,
            PersistentVolume::new("pv-big", Memory::gib(500), NfsExport::new()),
        );
        cluster.add_pv(
            &mut sim,
            PersistentVolume::new("pv-small", Memory::gib(100), NfsExport::new()),
        );
        cluster.create_pvc(
            &mut sim,
            PersistentVolumeClaim::new("datalake", Memory::gib(50)),
        );
        sim.run();
        let api = cluster.api.read();
        let pvc = &api.pvcs[&ObjectKey::named("datalake")];
        assert_eq!(pvc.phase, PvcPhase::Bound);
        assert_eq!(pvc.volume.as_deref(), Some("pv-small"));
        assert_eq!(api.pvs["pv-small"].bound_to.as_deref(), Some("ndnk8s/datalake"));
        assert!(api.pvs["pv-big"].bound_to.is_none());
    }

    #[test]
    fn node_failure_blocks_new_scheduling() {
        let mut sim = Sim::new(9);
        let cluster = cluster_with_node(&mut sim, 4, 8);
        sim.send(cluster.actor, SetNodeReady {
            node: "node-1".into(),
            ready: false,
        });
        let key = cluster.create_job(&mut sim, "stuck", blast_template(1, 1), 0);
        sim.run_for(SimDuration::from_mins(5));
        assert_eq!(cluster.job_condition(&key), Some(JobCondition::Pending));
        // Recovery.
        sim.send(cluster.actor, SetNodeReady {
            node: "node-1".into(),
            ready: true,
        });
        sim.run();
        assert_eq!(cluster.job_condition(&key), Some(JobCondition::Completed));
    }

    #[test]
    fn table1_shape_runtime_insensitive_to_resources() {
        // The paper's Table I observation: varying CPU 2→4 or memory 4→6
        // barely changes BLAST run time (the workload is not limited by the
        // extra allocation). Our WorkloadSpec durations are computed by the
        // cost model; here we verify the cluster faithfully reports them.
        let mut sim = Sim::new(10);
        let cluster = cluster_with_node(&mut sim, 16, 32);
        let mk = |cores: u64, gib: u64, secs: u64| {
            PodSpec::single(ContainerSpec {
                name: "blast".into(),
                image: "magicblast".into(),
                requests: Resources::new(cores, gib),
                workload: WorkloadSpec::run_for(SimDuration::from_secs(secs)),
            })
        };
        let a = cluster.create_job(&mut sim, "rice-2cpu", mk(2, 4, 29390), 0);
        let b = cluster.create_job(&mut sim, "rice-4cpu", mk(4, 4, 29230), 0);
        sim.run();
        let ra = cluster.job(&a).unwrap().run_time().unwrap();
        let rb = cluster.job(&b).unwrap().run_time().unwrap();
        assert_eq!(ra.to_string(), "8h9m50s");
        assert_eq!(rb.to_string(), "8h7m10s");
    }

    #[test]
    fn node_failure_evicts_and_job_recovers_on_survivor() {
        let mut sim = Sim::new(11);
        let cluster = Cluster::spawn(&mut sim, "test");
        cluster.add_node(&mut sim, Node::new("node-1", Resources::new(8, 16)));
        cluster.add_node(&mut sim, Node::new("node-2", Resources::new(8, 16)));
        let key = cluster.create_job(&mut sim, "blast-1", blast_template(8, 941), 3);
        // Let the pod start somewhere, then fail that node mid-run.
        sim.run_for(SimDuration::from_mins(30));
        let node = {
            let api = cluster.api.read();
            let pod = api
                .pods
                .values()
                .find(|p| p.status.phase == PodPhase::Running)
                .expect("pod running");
            pod.status.node.clone().unwrap()
        };
        sim.send(cluster.actor, SetNodeReady {
            node: node.clone(),
            ready: false,
        });
        sim.run();
        // Evicted, retried on the surviving node, completed.
        let job = cluster.job(&key).unwrap();
        assert_eq!(job.status.condition, JobCondition::Completed);
        assert_eq!(job.status.failures, 1, "one attempt lost to the node");
        let api = cluster.api.read();
        assert!(api.events.iter().any(|e| e.kind == "PodEvicted"));
        let survivor = api
            .pods
            .values()
            .find(|p| p.status.phase == PodPhase::Succeeded)
            .expect("replacement succeeded");
        assert_ne!(survivor.status.node.as_deref(), Some(node.as_str()));
    }

    #[test]
    fn node_failure_with_no_survivor_fails_job_after_backoff() {
        let mut sim = Sim::new(12);
        let cluster = cluster_with_node(&mut sim, 8, 16);
        let key = cluster.create_job(&mut sim, "blast-1", blast_template(8, 941), 1);
        sim.run_for(SimDuration::from_mins(30));
        sim.send(cluster.actor, SetNodeReady {
            node: "node-1".into(),
            ready: false,
        });
        // The only node is gone: replacements cannot schedule; the job
        // stays Pending-with-failures rather than falsely completing.
        sim.run_for(SimDuration::from_hours(20));
        let job = cluster.job(&key).unwrap();
        assert_ne!(job.status.condition, JobCondition::Completed);
        // Heal the node: the queued replacement now runs to completion.
        sim.send(cluster.actor, SetNodeReady {
            node: "node-1".into(),
            ready: true,
        });
        sim.run();
        assert_eq!(
            cluster.job(&key).unwrap().status.condition,
            JobCondition::Completed
        );
    }
}
