//! The science-user client: submit by name, poll status, fetch results.
//!
//! Implements the paper's workflow (§IV, Fig. 5): the client expresses a
//! semantically named compute Interest with no knowledge of cluster
//! locations, receives a job id, checks `/ndn/k8s/status/...` periodically,
//! and finally retrieves the result from the data lake. Every step is
//! timestamped, which is exactly what the `fig5` workflow-trace experiment
//! reports.
//!
//! The same actor is the client of every compared world: only where a
//! request is addressed differs. An [`Addressing`] value holds the two
//! naming functions — request → submit Interest name, job id → status
//! Interest name. The default names the *computation*
//! ([`ComputeRequest::to_name`], [`JobId::status_name`]), so any cluster
//! may answer; the centralized baseline supplies a pair that names its
//! controller instead (`lidc_baseline::central::ADDRESSING`). Submission,
//! polling, result fetch, backoff and resubmission are therefore identical
//! by construction.

use std::collections::HashMap;

use lidc_ndn::app::{Consumer, ConsumerEvent, RetxTimer};
use lidc_ndn::face::FaceIdAlloc;
use lidc_ndn::forwarder::AppRx;
use lidc_ndn::name::Name;
use lidc_ndn::net::attach_app;
use lidc_ndn::packet::{ContentType, Data, Interest};
use lidc_simcore::engine::{Actor, ActorId, Ctx, Msg, Sim};
use lidc_simcore::time::{SimDuration, SimTime};

use crate::naming::{ComputeRequest, JobId};
use crate::status::{JobState, SubmitAck};

/// Client behaviour knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Status poll period.
    pub poll_interval: SimDuration,
    /// Fetch the result object (manifest / small object) after completion.
    pub fetch_results: bool,
    /// Set MustBeFresh on compute submissions (bypasses Content-Store
    /// caching of submit acks; turn off for the caching experiments).
    pub submit_must_be_fresh: bool,
    /// Consumer retransmissions per Interest.
    pub retries: u32,
    /// Consecutive status-poll timeouts before the job is declared lost.
    pub max_status_failures: u32,
    /// Whole-request resubmissions after a lost job or submit NACK
    /// (the overlay then routes to a surviving cluster).
    pub resubmit_attempts: u32,
    /// Base delay for the resubmission backoff: attempt *n* waits a
    /// uniformly jittered `backoff_base × 2^(n-1)` (full jitter, so a
    /// population of clients that failed together does not retry together).
    pub backoff_base: SimDuration,
    /// Upper bound on the (pre-jitter) backoff delay.
    pub backoff_cap: SimDuration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            poll_interval: SimDuration::from_secs(30),
            fetch_results: true,
            submit_must_be_fresh: true,
            retries: 3,
            max_status_failures: 3,
            resubmit_attempts: 2,
            backoff_base: SimDuration::from_secs(1),
            backoff_cap: SimDuration::from_secs(30),
        }
    }
}

/// The full record of one submitted request (the fig-5 timeline).
#[derive(Debug, Clone)]
pub struct JobRun {
    /// The request.
    pub request: ComputeRequest,
    /// Submission instant.
    pub submitted_at: SimTime,
    /// Ack (job id) received.
    pub ack_at: Option<SimTime>,
    /// Assigned job id.
    pub job_id: Option<String>,
    /// Cluster that accepted the job.
    pub cluster: Option<String>,
    /// First `Running` status observed.
    pub first_running_at: Option<SimTime>,
    /// Latest predicted-seconds-to-completion from a Running status (§VII).
    pub last_eta_secs: Option<u64>,
    /// `Completed` status observed.
    pub completed_at: Option<SimTime>,
    /// Result object name.
    pub result_name: Option<Name>,
    /// Result size (bytes).
    pub result_size: u64,
    /// Result object (or manifest) retrieved.
    pub fetched_at: Option<SimTime>,
    /// Terminal error, if the run failed.
    pub error: Option<String>,
    /// Status polls issued.
    pub polls: u32,
    /// Whole-request resubmissions performed.
    pub resubmits: u32,
    /// Answered from a result cache (ack said Completed immediately).
    pub served_from_cache: bool,
    status_failures: u32,
}

impl JobRun {
    fn new(request: ComputeRequest, now: SimTime) -> Self {
        JobRun {
            request,
            submitted_at: now,
            ack_at: None,
            job_id: None,
            cluster: None,
            first_running_at: None,
            last_eta_secs: None,
            completed_at: None,
            result_name: None,
            result_size: 0,
            fetched_at: None,
            error: None,
            polls: 0,
            resubmits: 0,
            served_from_cache: false,
            status_failures: 0,
        }
    }

    /// True when the run reached `Completed` (and fetched the result when
    /// fetching was requested).
    pub fn is_success(&self) -> bool {
        self.completed_at.is_some() && self.error.is_none()
    }

    /// Submission → completed-observed latency.
    pub fn turnaround(&self) -> Option<SimDuration> {
        self.completed_at.map(|t| t.since(self.submitted_at))
    }

    /// Submission → ack latency (the placement latency the network adds).
    pub fn ack_latency(&self) -> Option<SimDuration> {
        self.ack_at.map(|t| t.since(self.submitted_at))
    }
}

/// Where the client addresses its requests (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct Addressing {
    /// The submit Interest name for a request.
    pub submit: fn(&ComputeRequest) -> Name,
    /// The status Interest name for an acked job id.
    pub status: fn(&str) -> Name,
}

impl Default for Addressing {
    /// LIDC's semantic names: `/ndn/k8s/compute/…` and `/ndn/k8s/status/…`.
    fn default() -> Self {
        Addressing {
            submit: ComputeRequest::to_name,
            status: |job_id| JobId(job_id.to_owned()).status_name(),
        }
    }
}

/// Submit a compute request (message to the client actor).
#[derive(Debug)]
pub struct Submit(pub ComputeRequest);

#[derive(Debug)]
struct PollTick {
    record: usize,
}

#[derive(Debug)]
struct Resubmit {
    record: usize,
}

/// The client actor.
pub struct ScienceClient {
    consumer: Option<Consumer>,
    config: ClientConfig,
    addressing: Addressing,
    runs: Vec<JobRun>,
    /// Pending compute-Interest name → record indexes. One name can carry
    /// several records: duplicate submissions of the same request share an
    /// Interest (the PIT aggregates them and the gateway's result cache
    /// dedups them), so every waiter must resolve when the one reply — or
    /// timeout — lands. A single-record map here silently stranded the
    /// overwritten run.
    active_submits: HashMap<Name, Vec<usize>>,
    /// Pending status-Interest name → record indexes (duplicate
    /// submissions are acked with the same job id, so their polls share a
    /// status name too).
    active_polls: HashMap<Name, Vec<usize>>,
    /// Pending result-fetch name → record indexes.
    active_fetches: HashMap<Name, Vec<usize>>,
}

impl ScienceClient {
    /// Build an (unattached) client with LIDC's semantic addressing.
    pub fn new(config: ClientConfig) -> Self {
        ScienceClient {
            consumer: None,
            config,
            addressing: Addressing::default(),
            runs: Vec::new(),
            active_submits: HashMap::new(),
            active_polls: HashMap::new(),
            active_fetches: HashMap::new(),
        }
    }

    /// Spawn a client and attach it to `fwd` (usually the overlay's access
    /// router). Returns the actor id; send [`Submit`] messages to drive it.
    pub fn deploy(
        config: ClientConfig,
        sim: &mut Sim,
        fwd: ActorId,
        alloc: &FaceIdAlloc,
        label: impl Into<String>,
    ) -> ActorId {
        Self::deploy_addressed(config, Addressing::default(), sim, fwd, alloc, label)
    }

    /// [`ScienceClient::deploy`] with the given [`Addressing`].
    pub fn deploy_addressed(
        config: ClientConfig,
        addressing: Addressing,
        sim: &mut Sim,
        fwd: ActorId,
        alloc: &FaceIdAlloc,
        label: impl Into<String>,
    ) -> ActorId {
        let client = sim.spawn(label.into(), ScienceClient {
            addressing,
            ..ScienceClient::new(config)
        });
        let face = attach_app(sim, fwd, client, alloc);
        sim.actor_mut::<ScienceClient>(client).unwrap().consumer =
            Some(Consumer::new(fwd, face));
        client
    }

    /// The recorded runs.
    pub fn runs(&self) -> &[JobRun] {
        &self.runs
    }

    /// Count of successful runs.
    pub fn successes(&self) -> usize {
        self.runs.iter().filter(|r| r.is_success()).count()
    }

    /// The run with id `record` — the single chokepoint for record-index
    /// resolution.
    fn run(&self, record: usize) -> &JobRun {
        // lidc-lint: allow(panic-path) reason="record ids are minted at runs.push and flow only through this client's own maps and self-scheduled messages; runs never shrinks, so every id stays in range"
        &self.runs[record]
    }

    /// Mutable twin of [`ScienceClient::run`].
    fn run_mut(&mut self, record: usize) -> &mut JobRun {
        // lidc-lint: allow(panic-path) reason="record ids are minted at runs.push and flow only through this client's own maps and self-scheduled messages; runs never shrinks, so every id stays in range"
        &mut self.runs[record]
    }

    /// The attached consumer — installed by `deploy` before the actor can
    /// receive a single message.
    fn consumer_mut(&mut self) -> &mut Consumer {
        // lidc-lint: allow(panic-path) reason="deploy() installs the consumer before the actor id escapes, so no message can arrive while it is None"
        self.consumer.as_mut().expect("deployed")
    }

    fn express_submit(&mut self, record: usize, ctx: &mut Ctx<'_>) {
        let name = (self.addressing.submit)(&self.run(record).request);
        let interest = Interest::new(name.clone())
            .must_be_fresh(self.config.submit_must_be_fresh)
            .with_lifetime(SimDuration::from_secs(4));
        self.active_submits.entry(name).or_default().push(record);
        let retries = self.config.retries;
        self.consumer_mut().express(ctx, interest, retries);
    }

    fn on_submit(&mut self, request: ComputeRequest, ctx: &mut Ctx<'_>) {
        let record = self.runs.len();
        self.runs.push(JobRun::new(request, ctx.now()));
        self.express_submit(record, ctx);
        ctx.metrics().incr("client.submissions", 1);
    }

    fn schedule_poll(&mut self, record: usize, delay: SimDuration, ctx: &mut Ctx<'_>) {
        ctx.schedule_self(delay, PollTick { record });
    }

    fn express_poll(&mut self, record: usize, ctx: &mut Ctx<'_>) {
        let Some(job_id) = self.run(record).job_id.as_deref() else {
            return;
        };
        let name = (self.addressing.status)(job_id);
        let interest = Interest::new(name.clone())
            .must_be_fresh(true)
            .with_lifetime(SimDuration::from_secs(4));
        self.active_polls.entry(name).or_default().push(record);
        self.run_mut(record).polls += 1;
        let retries = self.config.retries;
        self.consumer_mut().express(ctx, interest, retries);
    }

    fn maybe_resubmit(&mut self, record: usize, why: &str, ctx: &mut Ctx<'_>) {
        let attempts = self.config.resubmit_attempts;
        let run = self.run_mut(record);
        if run.resubmits < attempts {
            run.resubmits += 1;
            run.job_id = None;
            run.cluster = None;
            run.ack_at = None;
            run.status_failures = 0;
            ctx.metrics().incr("client.resubmissions", 1);
            let delay = self.backoff_delay(self.run(record).resubmits, ctx);
            ctx.schedule_self(delay, Resubmit { record });
        } else {
            run.error = Some(why.to_owned());
            ctx.metrics().incr("client.failed_runs", 1);
        }
    }

    /// Full-jitter exponential backoff: attempt `n` draws uniformly from
    /// `(0, min(backoff_base × 2^(n-1), backoff_cap)]`. A fixed interval
    /// would make every client that a fault knocked out retry in lock-step
    /// (a synchronized retry storm); the jitter spreads the retry instants.
    fn backoff_delay(&self, attempt: u32, ctx: &mut Ctx<'_>) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(30);
        let ceiling = self
            .config
            .backoff_base
            .mul_f64(f64::from(1u32 << exp))
            .min(self.config.backoff_cap)
            .max(SimDuration::from_nanos(1));
        // Floor at 1% of the ceiling so the delay is never (near) zero.
        ceiling.mul_f64(ctx.rng().next_f64().max(0.01))
    }

    fn on_data(&mut self, data: Data, ctx: &mut Ctx<'_>) {
        // Defense in depth: forwarders already refuse to cache or deliver
        // unverifiable Data, but the client re-checks the signature on the
        // packet it actually received (the last hop is an app face with no
        // verification of its own). A bad packet is treated exactly like a
        // timeout so the resubmission/backoff path steers around the
        // offending producer.
        if !data.verify(None) {
            ctx.metrics().incr("client.verify_failed", 1);
            self.on_failure(Interest::new(data.name.clone()), "verify", ctx);
            return;
        }
        let name = data.name.clone();
        // Drain *every* record waiting on the name: duplicate submissions
        // share one Interest, so one reply settles all of them (records
        // are in submission order; the drain preserves it).
        if let Some(records) = self.active_submits.remove(&name) {
            for record in records {
                self.on_submit_reply(record, &data, ctx);
            }
            return;
        }
        if let Some(records) = self.active_polls.remove(&name) {
            for record in records {
                self.on_poll_reply(record, &data, ctx);
            }
            return;
        }
        // Result fetches may return the object itself or a manifest; either
        // way the name matches what we asked for (or extends it via
        // CanBePrefix — not used here).
        if let Some(records) = self.active_fetches.remove(&name) {
            for record in records {
                if data.content_type == ContentType::Nack {
                    self.run_mut(record).error = Some("result-fetch-nack".to_owned());
                } else {
                    self.run_mut(record).fetched_at = Some(ctx.now());
                    ctx.metrics().incr("client.results_fetched", 1);
                }
            }
        }
    }

    fn on_submit_reply(&mut self, record: usize, data: &Data, ctx: &mut Ctx<'_>) {
        if data.content_type == ContentType::Nack {
            let message = String::from_utf8_lossy(&data.content).into_owned();
            if message.contains("cluster-unavailable") {
                // The gateway's cluster has no ready nodes right now;
                // that is transient, so back off and resubmit (the
                // anycast prefix may route elsewhere) instead of
                // treating it as a terminal rejection.
                self.maybe_resubmit(record, &message, ctx);
                return;
            }
            self.run_mut(record).error = Some(message);
            ctx.metrics().incr("client.rejected_runs", 1);
            return;
        }
        let Some(ack) = SubmitAck::from_text(&String::from_utf8_lossy(&data.content)) else {
            self.run_mut(record).error = Some("unparseable ack".to_owned());
            return;
        };
        let run = self.run_mut(record);
        run.ack_at = Some(ctx.now());
        run.job_id = Some(ack.job_id.clone());
        run.cluster = Some(ack.cluster.clone());
        if ack.state == "Completed" {
            run.served_from_cache = true;
            // Ask for the result pointer right away.
            self.schedule_poll(record, SimDuration::ZERO, ctx);
        } else {
            self.schedule_poll(record, self.config.poll_interval, ctx);
        }
    }

    fn on_poll_reply(&mut self, record: usize, data: &Data, ctx: &mut Ctx<'_>) {
        if data.content_type == ContentType::Nack {
            // Unknown job (e.g. the request was rerouted after a crash).
            self.maybe_resubmit(record, "status-nack", ctx);
            return;
        }
        let Some(state) = JobState::from_text(&String::from_utf8_lossy(&data.content)) else {
            self.run_mut(record).error = Some("unparseable status".to_owned());
            return;
        };
        self.run_mut(record).status_failures = 0;
        match state {
            JobState::Pending => {
                self.schedule_poll(record, self.config.poll_interval, ctx);
            }
            JobState::Running { eta_secs } => {
                let run = self.run_mut(record);
                if run.first_running_at.is_none() {
                    run.first_running_at = Some(ctx.now());
                }
                run.last_eta_secs = eta_secs;
                self.schedule_poll(record, self.config.poll_interval, ctx);
            }
            JobState::Completed { result, size } => {
                let fetch = self.config.fetch_results;
                let run = self.run_mut(record);
                run.completed_at = Some(ctx.now());
                run.result_name = Some(result.clone());
                run.result_size = size;
                ctx.metrics().incr("client.completed_runs", 1);
                if fetch {
                    let interest = Interest::new(result.clone())
                        .with_lifetime(SimDuration::from_secs(4));
                    self.active_fetches.entry(result).or_default().push(record);
                    let retries = self.config.retries;
                    self.consumer_mut().express(ctx, interest, retries);
                }
            }
            JobState::Failed { error } => {
                self.run_mut(record).error = Some(format!("job-failed: {error}"));
                ctx.metrics().incr("client.failed_runs", 1);
            }
        }
    }

    fn on_failure(&mut self, interest: Interest, what: &str, ctx: &mut Ctx<'_>) {
        let name = interest.name.clone();
        if let Some(records) = self.active_submits.remove(&name) {
            for record in records {
                self.maybe_resubmit(record, &format!("submit-{what}"), ctx);
            }
            return;
        }
        if let Some(records) = self.active_polls.remove(&name) {
            for record in records {
                let run = self.run_mut(record);
                run.status_failures += 1;
                if run.status_failures >= self.config.max_status_failures {
                    self.maybe_resubmit(record, &format!("status-{what}"), ctx);
                } else {
                    self.schedule_poll(record, self.config.poll_interval, ctx);
                }
            }
            return;
        }
        if let Some(records) = self.active_fetches.remove(&name) {
            for record in records {
                self.run_mut(record).error = Some(format!("fetch-{what}"));
            }
        }
    }
}

impl Actor for ScienceClient {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<Submit>() {
            Ok(s) => {
                self.on_submit(s.0, ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PollTick>() {
            Ok(t) => {
                self.express_poll(t.record, ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Resubmit>() {
            Ok(r) => {
                self.express_submit(r.record, ctx);
                return;
            }
            Err(m) => m,
        };
        let event = match msg.downcast::<AppRx>() {
            Ok(rx) => self.consumer_mut().on_app_rx(&rx),
            Err(m) => match m.downcast::<RetxTimer>() {
                Ok(t) => self.consumer_mut().on_timer(ctx, &t),
                Err(_) => return,
            },
        };
        match event {
            Some(ConsumerEvent::Data(data)) => self.on_data(data, ctx),
            Some(ConsumerEvent::Nack(_, interest)) => self.on_failure(interest, "nack", ctx),
            Some(ConsumerEvent::Timeout(interest)) => self.on_failure(interest, "timeout", ctx),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Draws backoff delays through a real actor context (each actor has
    /// its own derived RNG stream, exactly as a deployed client would).
    struct BackoffProbe {
        config: ClientConfig,
        delays: Vec<SimDuration>,
    }
    struct Go;
    impl Actor for BackoffProbe {
        fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            if msg.downcast::<Go>().is_ok() {
                let client = ScienceClient::new(self.config.clone());
                for attempt in 1u32..=8 {
                    self.delays.push(client.backoff_delay(attempt, ctx));
                }
            }
        }
    }

    /// The resubmission backoff is full-jitter exponential: every delay
    /// stays inside the `base × 2^(n-1)` (capped) envelope, consecutive
    /// draws spread out instead of repeating, and two clients that failed
    /// at the same instant do not retry at the same instants.
    #[test]
    fn backoff_is_jittered_exponential() {
        let mut sim = Sim::new(5);
        let config = ClientConfig::default();
        let a = sim.spawn("a", BackoffProbe {
            config: config.clone(),
            delays: Vec::new(),
        });
        let b = sim.spawn("b", BackoffProbe {
            config: config.clone(),
            delays: Vec::new(),
        });
        sim.send(a, Go);
        sim.send(b, Go);
        sim.run();
        let da = sim.actor::<BackoffProbe>(a).unwrap().delays.clone();
        let db = sim.actor::<BackoffProbe>(b).unwrap().delays.clone();
        for (i, d) in da.iter().enumerate() {
            let ceiling = config
                .backoff_base
                .mul_f64(f64::from(1u32 << i))
                .min(config.backoff_cap);
            assert!(
                *d > SimDuration::ZERO && *d <= ceiling,
                "attempt {}: {d:?} outside (0, {ceiling:?}]",
                i + 1
            );
        }
        let distinct: std::collections::BTreeSet<_> = da.iter().collect();
        assert!(distinct.len() >= 6, "jitter spreads the delays: {da:?}");
        assert_ne!(da, db, "sibling clients draw from distinct streams");
    }
}
