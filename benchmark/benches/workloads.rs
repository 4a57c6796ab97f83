//! The five workloads: world construction (set-up), the measured pieces,
//! output checks, and the simulated-side results.
//!
//! Every world is built through the product's public constructors in their
//! default modes. The seed reaches the product as `Sim::new(seed)`, in job
//! and object names (fixed width) and as object contents: it changes what
//! the bytes are, never how many there are, so the exact metrics do not
//! depend on it. `chaos_storm` pins its world seed (see [`CHAOS_SEED`]).

use std::collections::BTreeMap;

use lidc_baseline::chaos::{run_lidc_chaos, ChaosConfig, ChaosOutcome};
use lidc_core::client::{ClientConfig, ScienceClient, Submit};
use lidc_core::naming::{data_prefix, ComputeRequest};
use lidc_core::overlay::{ClusterSpec, Overlay, OverlayConfig};
use lidc_core::placement::PlacementPolicy;
use lidc_datalake::content::Content;
use lidc_datalake::fileserver::FileServer;
use lidc_datalake::segment::DEFAULT_SEGMENT_SIZE;
use lidc_ndn::forwarder::Forwarder;
use lidc_ndn::name::Name;
use lidc_simcore::engine::{ActorId, Sim};
use lidc_simcore::faults::{ChaosProfile, FaultSchedule};
use lidc_simcore::metrics::Metrics;
use lidc_simcore::rng::DetRng;
use lidc_simcore::time::SimDuration;

use crate::consumer::{BenchConsumer, StartFetch, StartStream};
use crate::trace::{Layer, Runner};

const MIB: u64 = 1 << 20;

/// The workloads, in the order `--smoke` and the README list them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ControlPoll,
    SubmitBurst,
    SegmentCold,
    SegmentCached,
    ChaosStorm,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ControlPoll,
        Workload::SubmitBurst,
        Workload::SegmentCold,
        Workload::SegmentCached,
        Workload::ChaosStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ControlPoll => "control_poll",
            Workload::SubmitBurst => "submit_burst",
            Workload::SegmentCold => "segment_cold",
            Workload::SegmentCached => "segment_cached",
            Workload::ChaosStorm => "chaos_storm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Read-only view of `Metrics::counters()`: the one place the benchmark
/// depends on counter keys. A key the product no longer records reads as
/// `None`, never as a panic.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    pub fn snapshot(metrics: &Metrics) -> Self {
        Counters(metrics.counters().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<u64> {
        self.0.get(key).copied()
    }

    /// Counter-wise increase since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.get(k).unwrap_or(0))))
                .collect(),
        )
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (k, v) in &self.0 {
            h.write(k.as_bytes());
            h.write(&v.to_le_bytes());
        }
        h.finish()
    }
}

/// FNV-1a, for fingerprints (stable across runs and hosts, unlike the
/// standard library's randomly keyed hasher).
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What one repetition did, on the simulated side. Everything here must be
/// bit-identical across repetitions of one input.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations completed and checked.
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Simulated latency of every completed operation, seconds.
    pub latencies_s: Vec<f64>,
    /// Engine events processed in the measured pieces.
    pub events: u64,
    /// Counter increases over the measured pieces.
    pub counters: Counters,
    /// Exact per-layer facts read from actor fields (name → value).
    pub facts: BTreeMap<&'static str, f64>,
    /// Digest of what the latency vector does not cover: a sample of the
    /// delivered bytes, or the product's own fingerprint text.
    pub extra_digest: u64,
    /// The tail latency as the product's runner reports it, when the
    /// per-op latencies are not visible from outside (`chaos_storm`).
    pub runner_tail_s: Option<f64>,
    /// Why an output check failed, if one did.
    pub check_error: Option<String>,
}

impl Outcome {
    /// Operations failed, refused, or unfinished when the run ended.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ops
    }

    /// The tail statistic: the highest percentile with at least ten samples
    /// beyond it (p99 from 1000 samples up, else p90), as `(percentile,
    /// value)`. `chaos_storm` reports the product's own p99 instead.
    pub fn tail(&self) -> (u32, f64) {
        if let Some(v) = self.runner_tail_s {
            return (99, v);
        }
        let mut sorted = self.latencies_s.clone();
        sorted.sort_by(f64::total_cmp);
        let pct = if sorted.len() >= 1000 { 99 } else { 90 };
        (pct, percentile(&sorted, pct))
    }

    /// (events, counters digest, latency-vector digest).
    pub fn fingerprint(&self) -> (u64, u64, u64) {
        let mut h = Fnv::new();
        for v in &self.latencies_s {
            h.write(&v.to_bits().to_le_bytes());
        }
        h.write(&self.extra_digest.to_le_bytes());
        (self.events, self.counters.digest(), h.finish())
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() * pct as usize).div_ceil(100);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A world the harness owns and steps itself.
pub struct World {
    sim: Sim,
    overlay: Overlay,
    /// Every actor with a public handle, with its layer.
    pub actors: Vec<(ActorId, Layer)>,
    client: Option<ActorId>,
    consumers: Vec<ActorId>,
    /// Every file server, the overlay's and the benchmark's own.
    fileservers: Vec<ActorId>,
    object: Option<Object>,
    /// Counters at the end of set-up.
    baseline: Counters,
    events_at_setup: u64,
    served_at_setup: u64,
    router_cs_at_setup: (u64, u64),
    router_cs_budget_bytes: u64,
}

/// Sizes of one workload; `--smoke` divides the op counts by 16.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub divisor: u64,
}

impl Sizes {
    fn of(self, full: u64) -> u64 {
        (full / self.divisor).max(1)
    }
}

fn overlay_actors(overlay: &Overlay) -> Vec<(ActorId, Layer)> {
    let mut actors = vec![(overlay.router, Layer::NdnForwarder)];
    for c in &overlay.clusters {
        actors.push((c.gateway_fwd, Layer::NdnForwarder));
        actors.push((c.dl_fwd, Layer::NdnForwarder));
        actors.push((c.gateway_app, Layer::CoreGateway));
        actors.push((c.k8s.actor, Layer::K8sCluster));
    }
    actors
}

fn finish_world(
    mut sim: Sim,
    overlay: Overlay,
    router_cs_budget_bytes: u64,
    fileservers: Vec<ActorId>,
    client: Option<ActorId>,
    consumers: Vec<ActorId>,
    object: Option<Object>,
) -> World {
    let mut actors = overlay_actors(&overlay);
    actors.extend(fileservers.iter().map(|&f| (f, Layer::DatalakeFileserver)));
    if let Some(c) = client {
        actors.push((c, Layer::CoreClient));
    }
    actors.extend(consumers.iter().map(|&c| (c, Layer::HarnessConsumer)));
    let baseline = Counters::snapshot(sim.metrics());
    let events_at_setup = sim.events_processed();
    let served_at_setup = served_segments(&sim, &fileservers);
    let router_cs_at_setup = router_cs(&sim, &overlay);
    World {
        sim,
        overlay,
        actors,
        client,
        consumers,
        fileservers,
        object,
        baseline,
        events_at_setup,
        served_at_setup,
        router_cs_at_setup,
        router_cs_budget_bytes,
    }
}

fn served_segments(sim: &Sim, fileservers: &[ActorId]) -> u64 {
    fileservers
        .iter()
        .filter_map(|&f| sim.actor::<FileServer>(f))
        .map(|f| f.served_segments)
        .sum()
}

/// (hits, misses) of the access router's Content Store.
fn router_cs(sim: &Sim, overlay: &Overlay) -> (u64, u64) {
    sim.actor::<Forwarder>(overlay.router)
        .map(|f| (f.cs().hits(), f.cs().misses()))
        .unwrap_or((0, 0))
}

// ---------------------------------------------------------------- jobs ----

/// `control_poll` and `submit_burst`: one client, a pre-generated open-loop
/// submission schedule.
struct JobPlan {
    clusters: Vec<ClusterSpec>,
    placement: PlacementPolicy,
    /// (offset from t=0, request), in submission order.
    schedule: Vec<(SimDuration, ComputeRequest)>,
}

/// The cost model charges generic apps 5 ns of simulated time per input
/// byte (`CostModel::default_app`), so `size` sets the job's duration.
const GENERIC_SECS_PER_BYTE: f64 = 5.0e-9;

fn size_for(secs: f64) -> u64 {
    (secs / GENERIC_SECS_PER_BYTE) as u64
}

/// A per-job parameter that makes every request of every seed distinct
/// without changing its length.
fn tag(seed: u64, i: u64) -> String {
    format!("{seed:016x}-{i:05}")
}

fn control_poll_plan(seed: u64, sizes: Sizes) -> JobPlan {
    // The ROADMAP's scaling scenario: 32 single-node clusters spread over
    // 5-95 ms of WAN, round-robin placement, submissions 15 s apart.
    let n = 32u64;
    let clusters = (0..n)
        .map(|i| {
            ClusterSpec::new(
                format!("site-{i:02}"),
                SimDuration::from_millis(5 + i * 90 / (n - 1)),
            )
        })
        .collect();
    let schedule = (0..sizes.of(1024))
        .map(|i| {
            // 30 simulated minutes: each job is polled ~60 times at the
            // client's default 30 s interval and none queues.
            let request = ComputeRequest::new("SIM", 2, 4)
                .with_param("size", size_for(1800.0).to_string())
                .with_param("tag", tag(seed, i));
            (SimDuration::from_secs(15) * i, request)
        })
        .collect();
    JobPlan {
        clusters,
        placement: PlacementPolicy::RoundRobin,
        schedule,
    }
}

fn submit_burst_plan(seed: u64, sizes: Sizes) -> JobPlan {
    let clusters = ["north", "east", "south", "west"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            ClusterSpec::new(*name, SimDuration::from_millis(10 + 10 * i as u64))
                .with_nodes(8, 32, 128)
        })
        .collect();
    let schedule = (0..sizes.of(16_384))
        .map(|i| {
            // 5 simulated seconds: finished before the first status poll.
            let request = ComputeRequest::new("SIM", 1, 1)
                .with_param("size", size_for(5.0).to_string())
                .with_param("tag", tag(seed, i));
            // 64 submissions at one instant, every 500 ms.
            (SimDuration::from_millis(500) * (i / 64), request)
        })
        .collect();
    JobPlan {
        clusters,
        placement: PlacementPolicy::LeastLoaded,
        schedule,
    }
}

fn build_jobs(seed: u64, plan: JobPlan) -> World {
    let mut sim = Sim::new(seed);
    let config = OverlayConfig {
        placement: plan.placement,
        clusters: plan.clusters,
        ..Default::default()
    };
    let budget = config.router_cs_budget_bytes;
    let overlay = Overlay::build(&mut sim, config);
    let alloc = overlay.alloc.clone();
    let client = ScienceClient::deploy(
        ClientConfig::default(),
        &mut sim,
        overlay.router,
        &alloc,
        "client",
    );
    for (at, request) in plan.schedule {
        sim.send_after(at, client, Submit(request));
    }
    let fileservers = overlay.clusters.iter().map(|c| c.fileserver).collect();
    finish_world(
        sim,
        overlay,
        budget,
        fileservers,
        Some(client),
        Vec::new(),
        None,
    )
}

fn run_jobs(world: &mut World, runner: &mut Runner) -> Outcome {
    runner.drive(&mut world.sim);
    let client = world.client.expect("job worlds have a client");
    let runs = world
        .sim
        .actor::<ScienceClient>(client)
        .expect("client alive")
        .runs();
    let attempted = runs.len() as u64;
    let ok: Vec<_> = runs.iter().filter(|r| r.is_success()).collect();
    let ops = ok.len() as u64;
    let latencies_s: Vec<f64> = ok
        .iter()
        .filter_map(|r| r.turnaround())
        .map(|d| d.as_secs_f64())
        .collect();
    let mut facts = BTreeMap::new();
    let per_op = |total: u64| total as f64 / ops.max(1) as f64;
    facts.insert(
        "core.client.polls_per_op",
        per_op(runs.iter().map(|r| u64::from(r.polls)).sum()),
    );
    facts.insert(
        "core.client.resubmits_per_op",
        per_op(runs.iter().map(|r| u64::from(r.resubmits)).sum()),
    );
    let mut sorted = latencies_s.clone();
    sorted.sort_by(f64::total_cmp);
    facts.insert("core.client.turnaround_p50_s", percentile(&sorted, 50));
    // Placement balance: (busiest − idlest cluster) ÷ mean jobs per cluster.
    let mut per_cluster: BTreeMap<&str, u64> = world
        .overlay
        .clusters
        .iter()
        .map(|c| (c.name.as_str(), 0))
        .collect();
    for run in runs {
        if let Some(slot) = run.cluster.as_deref().and_then(|c| per_cluster.get_mut(c)) {
            *slot += 1;
        }
    }
    let busiest = per_cluster.values().copied().max().unwrap_or(0);
    let idlest = per_cluster.values().copied().min().unwrap_or(0);
    let mean = attempted as f64 / per_cluster.len().max(1) as f64;
    facts.insert(
        "core.placement.spread",
        (busiest - idlest) as f64 / mean.max(1.0),
    );
    let check_error = (ops != attempted).then(|| {
        let bad = runs.iter().find(|r| !r.is_success());
        format!(
            "{} of {attempted} jobs did not succeed (first: {:?})",
            attempted - ops,
            bad.map(|r| &r.error)
        )
    });
    // What the system handed back for each request, so the fingerprint
    // follows the job names and not only the timings.
    let mut answers = Fnv::new();
    for run in runs {
        answers.write(format!("{:?}{:?}", run.job_id, run.result_name).as_bytes());
    }
    let mut outcome = finish_outcome(world, ops, attempted, latencies_s, facts, check_error);
    outcome.extra_digest = answers.finish();
    outcome
}

fn finish_outcome(
    world: &World,
    ops: u64,
    attempted: u64,
    latencies_s: Vec<f64>,
    mut facts: BTreeMap<&'static str, f64>,
    check_error: Option<String>,
) -> Outcome {
    let sim = &world.sim;
    let router = sim.actor::<Forwarder>(world.overlay.router);
    let (hits0, misses0) = world.router_cs_at_setup;
    let (hits, misses) = router_cs(sim, &world.overlay);
    let (hits, misses) = (hits - hits0, misses - misses0);
    if hits + misses > 0 {
        facts.insert(
            "ndn.tables.cs.hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }
    facts.insert("router.cs_hits", hits as f64);
    facts.insert("router.cs_len", router.map_or(0, |f| f.cs().len()) as f64);
    // The high-water mark over every forwarder's store, not a delta: the
    // product records it with `set_max`.
    let counters = Counters::snapshot(sim.metrics_ref());
    if let Some(peak) = counters.get("ndn.cs_bytes_used_peak") {
        facts.insert(
            "ndn.tables.cs.bytes_used_peak_mib",
            peak as f64 / MIB as f64,
        );
    }
    facts.insert("router.fib_len", router.map_or(0, |f| f.fib().len()) as f64);
    facts.insert(
        "router.cs_budget_bytes",
        world.router_cs_budget_bytes as f64,
    );
    facts.insert(
        "fileserver.served_segments",
        (served_segments(sim, &world.fileservers) - world.served_at_setup) as f64,
    );
    let jobs_resident = world
        .overlay
        .clusters
        .iter()
        .map(|c| c.k8s.api.read().jobs.len())
        .max()
        .unwrap_or(0);
    facts.insert("k8s.jobs_per_cluster", jobs_resident as f64);
    Outcome {
        ops,
        attempted,
        latencies_s,
        events: sim.events_processed() - world.events_at_setup,
        counters: counters.since(&world.baseline),
        facts,
        extra_digest: 0,
        runner_tail_s: None,
        check_error,
    }
}

// ------------------------------------------------------------ segments ----

const WAN_MS: u64 = 40;
const WINDOW: usize = 8;

/// One segment workload's world.
struct SegmentPlan {
    /// Access-router Content Store budget.
    budget_mib: u64,
    segment_size: usize,
    segments: u64,
    /// Consumers that fetch the object one after another, each in its own
    /// measured piece.
    consumers: u64,
    /// `true`: fill the router's Content Store in set-up and stream from it
    /// without reassembly. `false`: one cold `SegmentFetch`.
    cached: bool,
}

/// The object a segment world serves, and how it is fetched.
struct Object {
    name: Name,
    content: Content,
    segment_size: usize,
    cached: bool,
}

fn start_fetch(sim: &mut Sim, consumer: ActorId, object: &Object) {
    let base = object.name.clone();
    if object.cached {
        let segments = object.content.len() / object.segment_size as u64;
        sim.send(
            consumer,
            StartStream {
                base,
                segments,
                window: WINDOW,
            },
        );
    } else {
        sim.send(
            consumer,
            StartFetch {
                base,
                window: WINDOW,
            },
        );
    }
}

fn build_segments(seed: u64, plan: SegmentPlan) -> World {
    let mut sim = Sim::new(seed);
    let config = OverlayConfig {
        clusters: vec![ClusterSpec::new("lake", SimDuration::from_millis(WAN_MS))],
        router_cs_budget_bytes: plan.budget_mib * MIB,
        ..Default::default()
    };
    let overlay = Overlay::build(&mut sim, config);
    let alloc = overlay.alloc.clone();
    let lake = &overlay.clusters[0];
    let mut prefix = data_prefix().child_str("bench");
    let mut fileservers = vec![lake.fileserver];
    if plan.segment_size != DEFAULT_SEGMENT_SIZE {
        // The overlay's file server cuts 1 MiB segments; a second one on
        // the same data-lake forwarder, under a longer prefix, serves the
        // same repository in packet-sized segments.
        prefix = prefix.child_str("small");
        fileservers.push(
            FileServer::new(prefix.clone(), lake.repo.clone())
                .with_segment_size(plan.segment_size)
                .deploy(&mut sim, lake.dl_fwd, &alloc, "bench-fileserver"),
        );
    }
    let object = Object {
        name: prefix.child_str(&format!("object-{seed:016x}")),
        content: Content::synthetic(plan.segments * plan.segment_size as u64, seed),
        segment_size: plan.segment_size,
        cached: plan.cached,
    };
    lake.repo.put(&object.name, object.content.clone());
    let deploy =
        |sim: &mut Sim, label: String| BenchConsumer::deploy(sim, overlay.router, &alloc, label);
    if plan.cached {
        // The one cold pass that fills the router's Content Store.
        let filler = deploy(&mut sim, "filler".to_owned());
        start_fetch(&mut sim, filler, &object);
    }
    let consumers = (0..plan.consumers)
        .map(|i| deploy(&mut sim, format!("consumer-{i}")))
        .collect();
    // The fill and the deploy-time messages (face attachment, control-plane
    // nudges) belong to set-up, not to the first measured piece.
    sim.run();
    finish_world(
        sim,
        overlay,
        plan.budget_mib * MIB,
        fileservers,
        None,
        consumers,
        Some(object),
    )
}

/// Each consumer fetches the object in its own measured piece; the
/// byte-for-byte comparison against the source happens between pieces.
fn run_segments(world: &mut World, runner: &mut Runner) -> Outcome {
    let object = world.object.take().expect("segment worlds have an object");
    let size = object.segment_size;
    let segments = object.content.len() / size as u64;
    let expected = object.content.slice(0, object.content.len() as usize);
    // Sized once: a vector that grows by reallocation peaks at a resident
    // size that depends on where the allocator could extend it in place.
    let attempted = segments * world.consumers.len() as u64;
    let mut latencies_s = Vec::with_capacity(attempted as usize);
    let mut payloads = Vec::with_capacity(attempted as usize);
    let mut ops = 0;
    let mut check_error = None;
    let mut delivered = Fnv::new();
    for &consumer in &world.consumers.clone() {
        start_fetch(&mut world.sim, consumer, &object);
        runner.drive(&mut world.sim);
        let state = world
            .sim
            .actor_mut::<BenchConsumer>(consumer)
            .expect("consumer alive");
        latencies_s.extend_from_slice(&state.latencies_s);
        payloads.extend_from_slice(&state.payload_bytes);
        let complete = if object.cached {
            let received = std::mem::take(&mut state.received);
            received.len() as u64 == segments
                && received
                    .iter()
                    .zip(expected.chunks(size))
                    .all(|(got, want)| got.as_deref() == Some(want))
        } else {
            state.done.take().is_some_and(|bytes| bytes == expected)
        };
        if complete && state.failed == 0 {
            ops += segments;
        } else {
            check_error.get_or_insert_with(|| {
                format!("consumer {consumer:?}: delivered bytes differ from the source")
            });
        }
    }
    // A sparse sample of the (checked) bytes, so the fingerprint follows
    // the object's contents and not only its shape.
    expected
        .iter()
        .step_by(4099)
        .for_each(|b| delivered.write(&[*b]));
    let mut facts = BTreeMap::new();
    payloads.sort_unstable();
    let p50 = payloads.get(payloads.len() / 2).copied().unwrap_or(0);
    facts.insert("ndn.packet.payload_kib_p50", p50 as f64 / 1024.0);
    let mut outcome = finish_outcome(world, ops, attempted, latencies_s, facts, check_error);
    outcome.extra_digest = delivered.finish();
    outcome
}

// --------------------------------------------------------------- chaos ----

/// The world seed of `chaos_storm`, whatever `--seed` says. The product's
/// runner takes one seed that drives every random draw of the simulated
/// world (backoff jitter, bit flips), so another seed is another experiment
/// with other exact metrics; and it offers no input (a name, a payload)
/// that could carry the seed without changing them.
pub const CHAOS_SEED: u64 = 20_240_913;

/// The four schedules of `chaos_storm`, as configs for the product's own
/// chaos runner. This is all the set-up the harness does for the workload:
/// the runner builds its world inside the measured call.
pub fn chaos_configs(sizes: Sizes) -> Vec<ChaosConfig> {
    let seed = CHAOS_SEED;
    let sized = |base: ChaosConfig| ChaosConfig {
        jobs: sizes.of(1200) as u32,
        submit_spacing: SimDuration::from_millis(200),
        nodes_per_cluster: 4,
        horizon: SimDuration::from_mins(30),
        ..base
    };
    let standard = sized(ChaosConfig::standard(seed));
    let names: Vec<String> = standard.clusters.iter().map(|(n, _)| n.clone()).collect();
    let profile = ChaosProfile {
        horizon: SimDuration::from_secs(120),
        clusters: names.clone(),
        links: names.clone(),
        nodes_per_cluster: 4,
        outages: 3,
        node_crashes: 6,
        link_degrades: 4,
        byzantine: 2,
        region_outages: 1,
        regions: vec![("coastal".to_owned(), names[..2].to_vec())],
        ..Default::default()
    };
    let drawn = FaultSchedule::generate(&mut DetRng::new(seed).derive_str("faults"), &profile);
    vec![
        standard.clone(),
        sized(ChaosConfig::byzantine(seed)),
        sized(ChaosConfig::region_outage(seed)),
        ChaosConfig {
            schedule: drawn,
            ..standard
        },
    ]
}

fn run_chaos(configs: &[ChaosConfig], runner: &mut Runner) -> Outcome {
    let outcomes: Vec<ChaosOutcome> = configs
        .iter()
        .map(|cfg| runner.measure(|| run_lidc_chaos(cfg)))
        .collect();
    let sum = |f: fn(&ChaosOutcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    let attempted = sum(|o| u64::from(o.submitted));
    let ops = sum(|o| u64::from(o.completed));
    let per_op = |total: u64| total as f64 / ops.max(1) as f64;
    let worst_p99 = outcomes
        .iter()
        .filter_map(|o| o.p99_turnaround)
        .max()
        .map_or(0.0, |d| d.as_secs_f64());
    let mut facts = BTreeMap::new();
    facts.insert(
        "core.client.resubmits_per_op",
        per_op(sum(|o| o.resubmissions)),
    );
    facts.insert(
        "ndn.forwarder.verify_failed_per_op",
        per_op(sum(|o| o.verify_failed)),
    );
    facts.insert(
        "ndn.tables.cs.poison_rejected_per_op",
        per_op(sum(|o| o.cs_poison_rejected)),
    );
    facts.insert(
        "simcore.faults.injected_per_run",
        sum(|o| o.faults_injected) as f64,
    );
    let mut h = Fnv::new();
    for o in &outcomes {
        h.write(o.fingerprint().as_bytes());
    }
    Outcome {
        ops,
        attempted,
        latencies_s: Vec::new(),
        events: 0,
        counters: Counters::default(),
        facts,
        extra_digest: h.finish(),
        runner_tail_s: Some(worst_p99),
        check_error: None,
    }
}

// ------------------------------------------------------------ dispatch ----

/// A constructed input: everything `setup_s` pays for.
pub enum Prepared {
    Stepped(Box<World>),
    Chaos(Vec<ChaosConfig>),
}

/// Set-up: construct the world; for `chaos_storm`, the four configs.
pub fn prepare(workload: Workload, seed: u64, sizes: Sizes) -> Prepared {
    let world = match workload {
        Workload::ControlPoll => build_jobs(seed, control_poll_plan(seed, sizes)),
        Workload::SubmitBurst => build_jobs(seed, submit_burst_plan(seed, sizes)),
        Workload::SegmentCold => build_segments(
            seed,
            SegmentPlan {
                budget_mib: 64,
                segment_size: DEFAULT_SEGMENT_SIZE,
                segments: sizes.of(128).max(16),
                consumers: 1,
                cached: false,
            },
        ),
        Workload::SegmentCached => {
            // `--smoke` shrinks the working set and the consumer count alike.
            let side = sizes.divisor.isqrt();
            build_segments(
                seed,
                SegmentPlan {
                    budget_mib: 128,
                    segment_size: 8192,
                    segments: 2048 / side,
                    consumers: 256 / side,
                    cached: true,
                },
            )
        }
        Workload::ChaosStorm => return Prepared::Chaos(chaos_configs(sizes)),
    };
    Prepared::Stepped(Box::new(world))
}

/// Run the measured pieces and the output checks.
pub fn execute(workload: Workload, prepared: &mut Prepared, runner: &mut Runner) -> Outcome {
    let mut outcome = match prepared {
        Prepared::Chaos(configs) => run_chaos(configs, runner),
        Prepared::Stepped(world) => match workload {
            Workload::ControlPoll | Workload::SubmitBurst => run_jobs(world, runner),
            _ => run_segments(world, runner),
        },
    };
    if outcome.check_error.is_none() {
        outcome.check_error = workload_invariant(workload, &outcome);
    }
    outcome
}

/// Checks that pin each workload to the path it exists to measure.
fn workload_invariant(workload: Workload, outcome: &Outcome) -> Option<String> {
    let fact = |k: &str| outcome.facts.get(k).copied().unwrap_or(0.0);
    match workload {
        Workload::SegmentCold if fact("router.cs_hits") != 0.0 => Some(format!(
            "segment_cold hit the router CS {} times",
            fact("router.cs_hits")
        )),
        Workload::SegmentCached if fact("ndn.tables.cs.hit_ratio") != 1.0 => Some(format!(
            "segment_cached router hit ratio is {}, not 1",
            fact("ndn.tables.cs.hit_ratio")
        )),
        Workload::SegmentCached if fact("fileserver.served_segments") != 0.0 => Some(format!(
            "segment_cached reached the file server {} times",
            fact("fileserver.served_segments")
        )),
        _ => None,
    }
}
