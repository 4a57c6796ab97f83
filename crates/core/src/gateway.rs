//! The LIDC gateway: the per-cluster decision-maker (paper Fig. 4).
//!
//! "The Gateway acts as a decision-maker, determining how to process the
//! incoming Interest. If the Interest relates to computational tasks, the
//! Gateway parses the Interest to understand details such as the specific
//! application to be activated, the target dataset, and other application
//! parameters like memory capacity and CPU needs. Once these details are
//! clear, the Gateway initiates a Kubernetes job to run the desired
//! computation task." (§III-C)
//!
//! The gateway is an NDN producer on the cluster's gateway NFD. It:
//!
//! 1. classifies Interests by the LIDC name grammar;
//! 2. runs application-specific validation;
//! 3. consults the result cache (future-work §VII, implemented);
//! 4. plans the job through the genomics cost model and creates a
//!    Kubernetes Job;
//! 5. answers `/ndn/k8s/status/<cluster>/<job>` checks against the API
//!    server;
//! 6. publishes completed results back into the data lake and feeds the
//!    completion-time predictor.
//!
//! # Batched dispatch
//!
//! The gateway is the fan-in point for every compute Interest a cluster
//! receives, so it overrides [`Actor::on_batch`]: a same-instant burst is
//! drained and classified in one pass, compute planning runs grouped
//! (sorted) by application, and the per-Interest work is amortized across
//! the burst — one cluster-API read-lock for the node admission snapshot,
//! one memoized plan per canonical request key, one predictor read-lock for
//! all status ETAs, and one scheduler [`Nudge`] per batch instead of one
//! per job. The contract relative to one-at-a-time delivery:
//!
//! * every Interest receives exactly the reply it would have received
//!   sequentially: the burst is segmented into maximal runs of same-kind
//!   requests processed in arrival order (so cross-kind side effects —
//!   result publishes, cache fills — land in sequence), planning within a
//!   run is grouped by application, and job creation (and so job-id
//!   assignment) runs in arrival order;
//! * replies are emitted per run in arrival order, all at the same
//!   virtual instant;
//! * [`GatewayStats`] and the `gateway.*` metrics counters advance exactly
//!   as under per-message delivery (`gateway.batch.*` counters additionally
//!   record burst sizes).
//!
//! Actors that never see bursts keep the default per-message path; the
//! engine only calls `on_batch` for runs of ≥ 2 same-instant messages.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use lidc_datalake::content::Content;
use lidc_datalake::repo::SharedRepo;
use lidc_genomics::blast::{plan_blast, BlastError};
use lidc_genomics::costmodel::CostModel;
use lidc_k8s::cluster::{Cluster, Nudge};
use lidc_k8s::job::JobCondition;
use lidc_k8s::meta::ObjectKey;
use lidc_k8s::pod::{ContainerSpec, PodSpec, WorkloadSpec};
use lidc_k8s::resources::Resources;
use lidc_ndn::app::Producer;
use lidc_ndn::forwarder::AppRx;
use lidc_ndn::name::Name;
use lidc_ndn::packet::{ContentType, Data, Interest, Packet};
use lidc_simcore::engine::{Actor, Ctx, Msg};
use lidc_simcore::time::SimDuration;

use crate::cache::{CachedResult, ResultCache};
use crate::naming::{classify, data_prefix, ComputeRequest, JobId, RequestKind};
use crate::predictor::{JobFeatures, RuntimePredictor};
use crate::status::{JobState, SubmitAck};
use crate::validation::ValidatorRegistry;

/// Shared handle to a predictor (placement strategies read it).
// lidc-lint: allow(actor-isolation) reason="read-mostly model shared between the gateway (writer) and the placement strategy (reader) within one virtual instant, never held across engine events"
pub type SharedPredictor = Arc<RwLock<RuntimePredictor>>;

/// Gateway tuning knobs.
pub struct GatewayConfig {
    /// Cluster name (prefixed onto job ids).
    pub cluster_name: String,
    /// Result-cache capacity (0 = off; the base paper system runs without).
    pub result_cache_capacity: usize,
    /// Result-cache byte budget over the cached results' sizes (0 = no
    /// byte limit). Mirrors the Content Store's byte budget so a few huge
    /// BLAST results cannot squat on the whole cache.
    pub result_cache_budget_bytes: u64,
    /// Freshness of submit-ack Data. Zero means acks are never "fresh", so
    /// `MustBeFresh` compute Interests always reach the gateway; a long
    /// freshness lets the NDN Content Store answer identical requests (the
    /// network half of the caching ablation).
    pub ack_freshness: SimDuration,
    /// Freshness of status responses.
    pub status_freshness: SimDuration,
    /// Validators.
    pub validators: ValidatorRegistry,
    /// Cost model used for planning.
    pub model: CostModel,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            cluster_name: "cluster".to_owned(),
            result_cache_capacity: 0,
            result_cache_budget_bytes: 0,
            ack_freshness: SimDuration::ZERO,
            status_freshness: SimDuration::from_millis(100),
            validators: ValidatorRegistry::standard(),
            model: CostModel::paper_calibrated(),
        }
    }
}

/// Per-job bookkeeping.
#[derive(Debug, Clone)]
struct JobRecord {
    request: ComputeRequest,
    k8s_key: ObjectKey,
    /// Result name relative to the lake prefix.
    output_rel: Name,
    output_bytes: u64,
    input_bytes: u64,
    expected: SimDuration,
    published: bool,
}

/// Gateway statistics (diagnostics and experiment outputs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Jobs admitted and created on Kubernetes.
    pub jobs_created: u64,
    /// Requests rejected by validation.
    pub validation_failures: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Status queries served.
    pub status_queries: u64,
    /// Results published to the lake.
    pub results_published: u64,
    /// Interests that did not parse as any LIDC request.
    pub unknown_requests: u64,
}

/// Internal timer: check whether a job finished (and publish its result).
#[derive(Debug)]
struct CheckJob {
    job_id: String,
}

/// How a byzantine gateway mangles its replies (fault injection: the
/// `FaultKind::ByzantineProducer` hook flips this on and off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineMode {
    /// Replies keep their name but carry garbage content and no signature:
    /// the first-hop forwarder's verification gate rejects them before
    /// they can satisfy a PIT entry or enter any Content Store.
    UnsignedGarbage,
    /// Replies are correctly digest-signed but carry a name nobody asked
    /// for: verification passes, so only PIT matching (the unsolicited-Data
    /// drop) stands between the packet and the cache.
    SignedWrongName,
}

/// Control message: put the gateway into (or take it out of) byzantine
/// mode. `None` restores honest behaviour.
#[derive(Debug)]
pub struct SetByzantine(pub Option<ByzantineMode>);

/// The gateway actor.
pub struct Gateway {
    producer: Option<Producer>,
    config: GatewayConfig,
    cluster: Cluster,
    repo: SharedRepo,
    lake_prefix: Name,
    cache: ResultCache,
    predictor: SharedPredictor,
    jobs: HashMap<String, JobRecord>,
    next_job: u64,
    /// Active byzantine fault, if any (see [`SetByzantine`]).
    byzantine: Option<ByzantineMode>,
    /// Statistics.
    pub stats: GatewayStats,
}

impl Gateway {
    /// Build a gateway for `cluster`, publishing results into `repo`.
    pub fn new(config: GatewayConfig, cluster: Cluster, repo: SharedRepo) -> Self {
        let cache = ResultCache::with_budget(
            config.result_cache_capacity,
            config.result_cache_budget_bytes,
        );
        Gateway {
            producer: None,
            config,
            cluster,
            repo,
            lake_prefix: data_prefix(),
            cache,
            predictor: Arc::new(RwLock::new(RuntimePredictor::new())), // lidc-lint: allow(actor-isolation) reason="constructor for the SharedPredictor handle justified on the alias"
            jobs: HashMap::new(),
            next_job: 0,
            byzantine: None,
            stats: GatewayStats::default(),
        }
    }

    /// Set the producer after the face is attached (done by the deployer).
    pub fn set_producer(&mut self, producer: Producer) {
        self.producer = Some(producer);
    }

    /// The shared completion-time predictor.
    pub fn predictor(&self) -> SharedPredictor {
        self.predictor.clone()
    }

    /// Replace the predictor with a shared one (the overlay injects its
    /// network-wide predictor so every gateway's observations train the
    /// same model — the §VII "intelligence in the network").
    pub fn set_predictor(&mut self, predictor: SharedPredictor) {
        self.predictor = predictor;
    }

    fn reply(&self, ctx: &mut Ctx<'_>, data: Data) {
        // Single egress chokepoint: every Data this gateway emits passes
        // through here, so an active byzantine fault corrupts all of them.
        let data = match self.byzantine {
            None => data,
            Some(mode) => {
                ctx.metrics().incr("gateway.byzantine_replies", 1);
                Self::sabotage(mode, data)
            }
        };
        // lidc-lint: allow(panic-path) reason="deploy() installs the producer before the gateway id escapes, so no Interest can arrive while it is None"
        self.producer.expect("gateway deployed").reply(ctx, data);
    }

    /// Mangle an honest reply per the active [`ByzantineMode`]. Pure and
    /// deterministic in the input (garbage bytes are an FNV keystream over
    /// the name), so byzantine runs fingerprint-stably.
    fn sabotage(mode: ByzantineMode, data: Data) -> Data {
        match mode {
            ByzantineMode::UnsignedGarbage => {
                let seed = fnv(data.name.to_uri().as_bytes());
                let garbage: Vec<u8> = (0..data.content.len().max(16))
                    .map(|i| (seed.rotate_left((i % 57) as u32) ^ i as u64) as u8)
                    .collect();
                // No signing step: the signature stays empty, which
                // `Data::verify` rejects at the first verifying forwarder.
                let mut bad = Data::new(data.name, garbage).with_content_type(data.content_type);
                bad.freshness = data.freshness;
                bad
            }
            ByzantineMode::SignedWrongName => {
                // A perfectly valid signature over a name nobody asked
                // for: PIT matching (the unsolicited-Data drop) is the
                // only remaining defense, and it must hold.
                let wrong = data.name.child_str("byzantine");
                let mut bad = Data::new(wrong, data.content).with_content_type(data.content_type);
                bad.freshness = data.freshness;
                bad.sign_digest()
            }
        }
    }

    fn reply_nack(&mut self, ctx: &mut Ctx<'_>, name: Name, message: String) {
        let data = Data::new(name, message.into_bytes())
            .with_content_type(ContentType::Nack)
            .with_freshness(SimDuration::from_millis(100))
            .sign_digest();
        self.reply(ctx, data);
    }

    /// Ready-node allocatable-capacity snapshot: one cluster-API read-lock,
    /// shared by every admission check in a burst.
    fn node_snapshot(&self) -> Vec<Resources> {
        let api = self.cluster.api.read();
        api.nodes
            .values()
            .filter(|n| n.ready)
            .map(|n| n.allocatable)
            .collect()
    }

    /// Handle one compute Interest against a prepared admission snapshot
    /// and (in a burst) a per-batch plan memo. Returns `true` when a
    /// Kubernetes job was created (the caller owes the cluster a [`Nudge`]).
    fn on_compute(
        &mut self,
        interest: Interest,
        request: ComputeRequest,
        nodes: &[Resources],
        plan_cache: Option<&mut HashMap<String, Result<PlannedJob, String>>>,
        ctx: &mut Ctx<'_>,
    ) -> bool {
        // 1. Application-specific validation (§IV-B).
        if let Err(e) = self.config.validators.validate(&request) {
            self.stats.validation_failures += 1;
            ctx.metrics().incr("gateway.validation_failures", 1);
            self.reply_nack(ctx, interest.name, format!("validation-error: {e}"));
            return false;
        }
        // 2. Result cache (§VII future work, implemented).
        let cache_key = request.canonical_key();
        if self.cache.enabled() {
            if let Some(cached) = self.cache.get(&cache_key) {
                self.stats.cache_hits += 1;
                ctx.metrics().incr("gateway.cache_hits", 1);
                let ack = SubmitAck {
                    job_id: cached.job_id.clone(),
                    cluster: self.config.cluster_name.clone(),
                    state: "Completed".to_owned(),
                };
                let data = Data::new(interest.name, ack.to_text().into_bytes())
                    .with_freshness(self.config.ack_freshness)
                    .sign_digest();
                self.reply(ctx, data);
                return false;
            }
        }
        // 3. Plan the job (memoized per canonical key within a burst:
        // planning is deterministic in the request).
        let planned = match plan_cache {
            Some(memo) => match memo.get(&cache_key) {
                Some(hit) => hit.clone(),
                None => {
                    let fresh = self.plan(&request, nodes);
                    memo.insert(cache_key, fresh.clone());
                    fresh
                }
            },
            None => self.plan(&request, nodes),
        };
        let plan = match planned {
            Ok(p) => p,
            Err(message) => {
                self.stats.validation_failures += 1;
                self.reply_nack(ctx, interest.name, message);
                return false;
            }
        };
        // 4. Create the Kubernetes job.
        let seq = self.next_job;
        self.next_job += 1;
        let job_id = format!("{}/job-{seq}", self.config.cluster_name);
        let k8s_name = format!("job-{seq}");
        let template = PodSpec::single(ContainerSpec {
            name: request.app.to_lowercase(),
            image: format!("lidc/{}:latest", request.app.to_lowercase()),
            requests: Resources::new(request.cpu_cores, request.mem_gib),
            workload: WorkloadSpec::Run {
                duration: plan.duration,
                output: Some((plan.output_rel.to_uri(), plan.output_bytes)),
            },
        });
        let created = {
            let now = ctx.now();
            let job = lidc_k8s::job::Job::new(
                lidc_k8s::meta::ObjectMeta::named(&k8s_name),
                template,
                2,
            );
            self.cluster.api.write().create_job(job, now)
        };
        let key = match created {
            Ok(key) => key,
            Err(e) => {
                self.reply_nack(ctx, interest.name, format!("job-create-failed: {e}"));
                return false;
            }
        };
        self.jobs.insert(job_id.clone(), JobRecord {
            request: request.clone(),
            k8s_key: key,
            output_rel: plan.output_rel,
            output_bytes: plan.output_bytes,
            input_bytes: plan.input_bytes,
            expected: plan.duration,
            published: false,
        });
        self.stats.jobs_created += 1;
        ctx.metrics().incr("gateway.jobs_created", 1);
        // Check for completion a little after the expected finish (covers
        // the pod-start latency; re-arms itself while the job is queued).
        ctx.schedule_self(
            plan.duration + SimDuration::from_secs(2),
            CheckJob {
                job_id: job_id.clone(),
            },
        );
        // 5. Acknowledge with the job id (§IV-A).
        let ack = SubmitAck {
            job_id,
            cluster: self.config.cluster_name.clone(),
            state: "Pending".to_owned(),
        };
        let data = Data::new(interest.name, ack.to_text().into_bytes())
            .with_freshness(self.config.ack_freshness)
            .sign_digest();
        self.reply(ctx, data);
        true
    }

    /// Process a burst of compute Interests: one admission snapshot, plans
    /// grouped (stable-sorted) by application and memoized per canonical
    /// key, one scheduler nudge for however many jobs were created.
    fn on_compute_batch(
        &mut self,
        computes: Vec<(Interest, ComputeRequest)>,
        ctx: &mut Ctx<'_>,
    ) {
        if computes.is_empty() {
            return;
        }
        let nodes = self.node_snapshot();
        // Planning pass, sorted by application so per-app model state stays
        // hot and duplicate requests plan once. Planning is pure in the
        // request and the snapshot, so precomputing for requests the
        // creation pass will reject (validation, result cache) changes no
        // outcome.
        let mut order: Vec<usize> = (0..computes.len()).collect();
        // lidc-lint: allow(panic-path) reason="order holds indexes 0..computes.len() built on the line above, and computes is not mutated during the sort"
        order.sort_by(|&a, &b| computes[a].1.app.cmp(&computes[b].1.app));
        let mut plan_cache: HashMap<String, Result<PlannedJob, String>> = HashMap::new();
        for &i in &order {
            // lidc-lint: allow(panic-path) reason="i comes from order, a permutation of 0..computes.len() over the unchanged computes vec"
            let request = &computes[i].1;
            let key = request.canonical_key();
            plan_cache
                .entry(key)
                .or_insert_with(|| self.plan(request, &nodes));
        }
        // Creation pass, in arrival order, consuming the memoized plans —
        // job-id assignment (and therefore every reply) is identical to
        // one-at-a-time delivery.
        let mut created = false;
        for (interest, request) in computes {
            created |= self.on_compute(interest, request, &nodes, Some(&mut plan_cache), ctx);
        }
        if created {
            ctx.send(self.cluster.actor, Nudge);
        }
    }

    fn plan(&self, request: &ComputeRequest, nodes: &[Resources]) -> Result<PlannedJob, String> {
        // A cluster with zero ready nodes (outage, mass node failure) must
        // degrade gracefully: NACK with a retry hint so the client backs
        // off and resubmits (reaching a healthy cluster via the anycast
        // prefix) instead of parking the request in a PIT entry that can
        // only time out.
        if nodes.is_empty() {
            return Err("cluster-unavailable retry-after=30s: no ready nodes".to_owned());
        }
        // Admission: the job's pod must fit on at least one ready node even
        // when empty — otherwise it would sit Pending forever and the
        // client would poll indefinitely. NACK now instead (the overlay
        // then lets the client try a bigger cluster).
        let wanted = Resources::new(request.cpu_cores, request.mem_gib);
        let feasible = nodes.iter().any(|n| wanted.fits_in(n));
        if !feasible {
            return Err(format!(
                "infeasible: cpu={} mem={}GiB exceeds every node on this cluster",
                request.cpu_cores, request.mem_gib
            ));
        }
        if request.app == "BLAST" {
            let srr = request.param("srr").ok_or("missing srr")?;
            let reference = request.param("ref").ok_or("missing ref")?;
            let plan = plan_blast(
                &self.config.model,
                srr,
                reference,
                request.cpu_cores,
                request.mem_gib,
            )
            .map_err(|e: BlastError| format!("plan-error: {e}"))?;
            // The input must actually be in the lake (loaded per §V-B).
            let input_full = self.lake_prefix.join(&plan.input_name);
            if !self.repo.contains(&input_full) {
                return Err(format!("input-not-in-lake: {input_full}"));
            }
            // Results carry the cluster segment so retrieval routes here.
            let output_rel = Name::root()
                .child_str("results")
                .child_str(&self.config.cluster_name)
                .child_str(&format!("{srr}-vs-{}", reference.to_uppercase()));
            Ok(PlannedJob {
                duration: plan.duration,
                output_bytes: plan.output_bytes,
                output_rel,
                input_bytes: plan.input_bytes,
            })
        } else {
            // Generic app: input size from `input=` (lake object) or `size=`.
            let input_bytes = if let Some(input) = request.param("input") {
                let name = Name::parse(input).map_err(|e| format!("bad input name: {e}"))?;
                let full = self.lake_prefix.join(&name);
                match self.repo.get(&full) {
                    Some(c) => c.len(),
                    None => return Err(format!("input-not-in-lake: {full}")),
                }
            } else if let Some(size) = request.param("size") {
                size.parse::<u64>().map_err(|_| "bad size parameter".to_owned())?
            } else {
                1_000_000_000
            };
            let est = self.config.model.estimate(
                &request.app,
                None,
                input_bytes,
                request.cpu_cores,
                request.mem_gib,
            );
            let output_rel = Name::root()
                .child_str("results")
                .child_str(&self.config.cluster_name)
                .child_str(&format!(
                    "{}-{:x}",
                    request.app.to_lowercase(),
                    fnv(request.canonical_key().as_bytes())
                ));
            Ok(PlannedJob {
                duration: est.duration,
                output_bytes: est.output_bytes,
                output_rel,
                input_bytes,
            })
        }
    }

    /// Process a burst of status Interests (a single query is the burst of
    /// one — the sequential path routes through here too). "The client can
    /// inquire about the status of a job by asking the gateway, which then
    /// checks with the Kubernetes service." (§IV) The batch amortizes the
    /// checking: one API-server read-lock resolves every queried job's
    /// condition, and one predictor read-lock serves every running job's
    /// ETA. Replies go out in arrival order.
    fn on_status_batch(&mut self, statuses: Vec<(Interest, JobId)>, ctx: &mut Ctx<'_>) {
        if statuses.is_empty() {
            return;
        }
        // Phase 1: resolve conditions under one API-server read-lock.
        let mut probes: Vec<StatusProbe> = Vec::with_capacity(statuses.len());
        {
            let api = self.cluster.api.read();
            for (interest, id) in statuses {
                self.stats.status_queries += 1;
                ctx.metrics().incr("gateway.status_queries", 1);
                let outcome = match self.jobs.get(&id.0) {
                    None => StatusOutcome::UnknownJob(id),
                    Some(record) => {
                        let job = api.jobs.get(&record.k8s_key);
                        StatusOutcome::Known {
                            job_id: id.0,
                            record: Box::new(record.clone()),
                            condition: job.map(|j| (j.status.condition, j.status.message.clone())),
                            started_at: job.and_then(|j| j.status.started_at),
                        }
                    }
                };
                probes.push(StatusProbe { interest, outcome });
            }
        }
        // Phase 2: walk the probes in arrival order. Running ETAs share one
        // lazily-acquired predictor read-lock; a Completed job releases it
        // before publishing (publish takes the predictor *write* lock to
        // train on the observed runtime), so a later Running ETA sees
        // exactly the predictor state sequential delivery would — pure
        // status-polling bursts, the hot case, still acquire once.
        let predictor = self.predictor.clone();
        let mut guard: Option<std::sync::RwLockReadGuard<'_, RuntimePredictor>> = None;
        for probe in probes {
            match probe.outcome {
                StatusOutcome::UnknownJob(id) => {
                    self.reply_nack(ctx, probe.interest.name, format!("unknown-job: {id}"));
                }
                StatusOutcome::Known {
                    job_id,
                    record,
                    condition,
                    started_at,
                } => {
                    let state = match condition {
                        None | Some((JobCondition::Pending, _)) => JobState::Pending,
                        Some((JobCondition::Running, _)) => {
                            let g = guard.get_or_insert_with(|| predictor.read());
                            JobState::Running {
                                eta_secs: self.eta_secs(g, &record, started_at, ctx.now()),
                            }
                        }
                        Some((JobCondition::Completed, _)) => {
                            guard = None;
                            self.publish_if_needed(&job_id, ctx);
                            JobState::Completed {
                                result: self.lake_prefix.join(&record.output_rel),
                                size: record.output_bytes,
                            }
                        }
                        Some((JobCondition::Failed, message)) => {
                            JobState::Failed { error: message }
                        }
                    };
                    let data = Data::new(probe.interest.name, state.to_text().into_bytes())
                        .with_freshness(self.config.status_freshness)
                        .sign_digest();
                    self.reply(ctx, data);
                }
            }
        }
    }

    /// Predicted seconds until a running job completes (§VII): the trained
    /// predictor's estimate when it has history for this application,
    /// otherwise the planning-time cost-model expectation; either way minus
    /// the time already spent executing. The caller holds the predictor
    /// read-lock (shared across a status burst).
    fn eta_secs(
        &self,
        predictor: &RuntimePredictor,
        record: &JobRecord,
        started_at: Option<lidc_simcore::time::SimTime>,
        now: lidc_simcore::time::SimTime,
    ) -> Option<u64> {
        let features = JobFeatures {
            input_bytes: record.input_bytes,
            cpu_cores: record.request.cpu_cores,
            mem_gib: record.request.mem_gib,
        };
        let total_secs = predictor
            .predict(&record.request.app, features)
            .unwrap_or_else(|| record.expected.as_secs_f64());
        let elapsed = started_at
            .map(|t| now.since(t).as_secs_f64())
            .unwrap_or(0.0);
        Some((total_secs - elapsed).max(0.0).round() as u64)
    }

    /// Publish the result object and train the predictor, once.
    fn publish_if_needed(&mut self, job_id: &str, ctx: &mut Ctx<'_>) {
        let Some(record) = self.jobs.get(job_id) else {
            return;
        };
        if record.published {
            return;
        }
        let Some(job) = self.cluster.job(&record.k8s_key) else {
            return;
        };
        if job.status.condition != JobCondition::Completed {
            return;
        }
        // lidc-lint: allow(panic-path) reason="the caller resolved job_id in self.jobs to read the status checked above, and the map is untouched in between"
        let record = self.jobs.get_mut(job_id).expect("present");
        record.published = true;
        let full = self.lake_prefix.join(&record.output_rel);
        let seed = fnv(full.to_uri().as_bytes());
        self.repo
            .put(&full, Content::synthetic(record.output_bytes, seed));
        self.stats.results_published += 1;
        ctx.metrics().incr("gateway.results_published", 1);
        self.cluster.api.write().record_event(
            ctx.now(),
            "ResultPublished",
            full.to_uri(),
            format!("{} bytes", record.output_bytes),
        );
        // Train the predictor on the observed runtime (§VII).
        if let Some(actual) = job.run_time() {
            let features = JobFeatures {
                input_bytes: record.input_bytes,
                cpu_cores: record.request.cpu_cores,
                mem_gib: record.request.mem_gib,
            };
            self.predictor
                .write()
                .observe(&record.request.app, features, actual.as_secs_f64());
        }
        // Record in the result cache.
        if self.cache.enabled() {
            let key = record.request.canonical_key();
            let cached = CachedResult {
                result: full,
                size: record.output_bytes,
                job_id: job_id.to_owned(),
            };
            self.cache.insert(key, cached);
        }
    }

    fn on_check_job(&mut self, job_id: String, ctx: &mut Ctx<'_>) {
        let Some(record) = self.jobs.get(&job_id) else {
            return;
        };
        match self.cluster.job_condition(&record.k8s_key) {
            Some(JobCondition::Completed) => self.publish_if_needed(&job_id, ctx),
            Some(JobCondition::Failed) | None => {}
            Some(JobCondition::Pending) | Some(JobCondition::Running) => {
                // Still queued or executing (cluster may be saturated);
                // check again later.
                let delay = (record.expected / 4).max(SimDuration::from_secs(10));
                ctx.schedule_self(delay, CheckJob { job_id });
            }
        }
    }
}

/// Result of planning (internal). `Clone` is O(1)-ish (name refcount bump)
/// so burst plan memoization is cheap.
#[derive(Clone)]
struct PlannedJob {
    duration: SimDuration,
    output_bytes: u64,
    output_rel: Name,
    input_bytes: u64,
}

/// One status query resolved under the batch's API read-lock.
struct StatusProbe {
    interest: Interest,
    outcome: StatusOutcome,
}

enum StatusOutcome {
    /// No record of this job on this gateway.
    UnknownJob(JobId),
    /// Job known; condition snapshot from the API server (boxed: the
    /// record dwarfs the unknown-job variant).
    Known {
        job_id: String,
        record: Box<JobRecord>,
        condition: Option<(JobCondition, String)>,
        started_at: Option<lidc_simcore::time::SimTime>,
    },
}

/// FNV-1a hash (content seeds, request digests).
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Actor for Gateway {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<AppRx>() {
            Ok(rx) => {
                if let Packet::Interest(interest) = rx.packet {
                    match classify(&interest.name) {
                        RequestKind::Compute(request) => {
                            let nodes = self.node_snapshot();
                            if self.on_compute(interest, request, &nodes, None, ctx) {
                                ctx.send(self.cluster.actor, Nudge);
                            }
                        }
                        RequestKind::Status(id) => {
                            self.on_status_batch(vec![(interest, id)], ctx);
                        }
                        RequestKind::MalformedCompute(e) => {
                            self.stats.unknown_requests += 1;
                            self.reply_nack(ctx, interest.name, format!("malformed-request: {e}"));
                        }
                        RequestKind::Data(_) | RequestKind::Unknown => {
                            // Data Interests are routed to the data-lake NFD,
                            // not here; answer defensively.
                            self.stats.unknown_requests += 1;
                            self.reply_nack(ctx, interest.name, "not-a-gateway-name".to_owned());
                        }
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SetByzantine>() {
            Ok(set) => {
                self.byzantine = set.0;
                return;
            }
            Err(m) => m,
        };
        if let Ok(check) = msg.downcast::<CheckJob>() {
            self.on_check_job(check.job_id, ctx);
        }
    }

    /// Batched delivery (see the module docs): classify the burst in one
    /// pass, accumulating maximal *runs* of same-kind requests and flushing
    /// each run through its amortized batch path when the kind changes (or
    /// a [`CheckJob`] timer — which publishes results — interleaves).
    /// Run segmentation keeps every side effect in arrival order, so a
    /// status query observing a just-published result, or a compute request
    /// hitting the result cache a same-instant status populated, behaves
    /// exactly as under one-at-a-time delivery. A homogeneous burst — the
    /// fan-in hot case — is a single run and amortizes fully.
    fn on_batch(&mut self, msgs: &mut Vec<Msg>, ctx: &mut Ctx<'_>) {
        let mut computes: Vec<(Interest, ComputeRequest)> = Vec::new();
        let mut statuses: Vec<(Interest, JobId)> = Vec::new();
        let mut requests = 0u64;
        for msg in msgs.drain(..) {
            let msg = match msg.downcast::<AppRx>() {
                Ok(rx) => {
                    if let Packet::Interest(interest) = rx.packet {
                        match classify(&interest.name) {
                            RequestKind::Compute(request) => {
                                if !statuses.is_empty() {
                                    let run = std::mem::take(&mut statuses);
                                    self.on_status_batch(run, ctx);
                                }
                                computes.push((interest, request));
                                requests += 1;
                            }
                            RequestKind::Status(id) => {
                                if !computes.is_empty() {
                                    let run = std::mem::take(&mut computes);
                                    self.on_compute_batch(run, ctx);
                                }
                                statuses.push((interest, id));
                                requests += 1;
                            }
                            // Nack replies have no cross-request side
                            // effects, so they don't end the open run.
                            RequestKind::MalformedCompute(e) => {
                                self.stats.unknown_requests += 1;
                                self.reply_nack(
                                    ctx,
                                    interest.name,
                                    format!("malformed-request: {e}"),
                                );
                            }
                            RequestKind::Data(_) | RequestKind::Unknown => {
                                self.stats.unknown_requests += 1;
                                self.reply_nack(ctx, interest.name, "not-a-gateway-name".to_owned());
                            }
                        }
                    }
                    continue;
                }
                Err(m) => m,
            };
            let msg = match msg.downcast::<SetByzantine>() {
                Ok(set) => {
                    // Changes how every later reply is built; flush the
                    // open runs so earlier requests get the behaviour in
                    // force when they arrived.
                    if !computes.is_empty() {
                        let run = std::mem::take(&mut computes);
                        self.on_compute_batch(run, ctx);
                    }
                    if !statuses.is_empty() {
                        let run = std::mem::take(&mut statuses);
                        self.on_status_batch(run, ctx);
                    }
                    self.byzantine = set.0;
                    continue;
                }
                Err(m) => m,
            };
            if let Ok(check) = msg.downcast::<CheckJob>() {
                // CheckJob publishes results; keep it in sequence.
                if !computes.is_empty() {
                    let run = std::mem::take(&mut computes);
                    self.on_compute_batch(run, ctx);
                }
                if !statuses.is_empty() {
                    let run = std::mem::take(&mut statuses);
                    self.on_status_batch(run, ctx);
                }
                self.on_check_job(check.job_id, ctx);
            }
        }
        // At most one run is still open (accumulation flushes the other).
        self.on_compute_batch(computes, ctx);
        self.on_status_batch(statuses, ctx);
        if requests > 1 {
            ctx.metrics().incr("gateway.batch.bursts", 1);
            ctx.metrics().incr("gateway.batch.requests", requests);
        }
    }
}
