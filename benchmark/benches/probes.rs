//! Layer probes: time calls into the product's public functions at the
//! sizes the workload recorded, so a layer's step time can be split into
//! "calls into the layers below it" and "self".
//!
//! Each probe reports the median of several batches; the whole set runs in
//! well under a second except at 1 MiB payloads.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;

use lidc_core::naming::{classify, compute_prefix, data_prefix, status_prefix, ComputeRequest};
use lidc_datalake::content::Content;
use lidc_datalake::segment::segment_data;
use lidc_k8s::apiserver::ApiServer;
use lidc_k8s::cluster::reconcile_jobs;
use lidc_k8s::job::Job;
use lidc_k8s::meta::{ObjectKey, ObjectMeta};
use lidc_k8s::node::Node;
use lidc_k8s::pod::{ContainerSpec, Pod, PodPhase, PodSpec, WorkloadSpec};
use lidc_k8s::resources::Resources;
use lidc_k8s::scheduler::Scheduler;
use lidc_ndn::face::FaceId;
use lidc_ndn::name::{Name, NameComponent};
use lidc_ndn::packet::{Data, Interest};
use lidc_ndn::tables::cs::{ContentStore, CsConfig};
use lidc_ndn::tables::fib::Fib;
use lidc_ndn::tables::pit::{Pit, PitKey};
use lidc_simcore::engine::{Actor, Ctx, Msg, Sim};
use lidc_simcore::metrics::Metrics;
use lidc_simcore::metrics_keys;
use lidc_simcore::time::{SimDuration, SimTime};

use crate::alloc::AllocCount;

const BATCHES: usize = 5;

/// What the workload looked like, as far as probe inputs go.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Median Data payload, bytes.
    pub payload_bytes: usize,
    /// Segment size the file server cuts, bytes.
    pub segment_bytes: usize,
    /// Entries resident in the router's Content Store at the end.
    pub cs_len: usize,
    /// The router Content Store's byte budget.
    pub cs_budget_bytes: u64,
    /// Router FIB entries.
    pub fib_len: usize,
    /// Jobs resident on the busiest cluster's API server at the end.
    pub jobs_per_cluster: usize,
}

/// Probe costs, nanoseconds per call unless named otherwise.
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    pub dispatch_ns_per_event: f64,
    pub incr_ns: f64,
    pub incr_allocs: f64,
    pub encode_sign_ns: f64,
    pub decode_verify_ns: f64,
    pub pit_cycle_ns: f64,
    pub cs_lookup_hit_ns: f64,
    pub cs_lookup_miss_ns: f64,
    pub cs_admit_ns: f64,
    pub fib_lpm_ns: f64,
    pub classify_ns: f64,
    pub segment_data_ns: f64,
    pub reconcile_pass_ns: f64,
    pub schedule_pass_ns: f64,
}

/// Median over [`BATCHES`] batches of `iters` calls, in ns per call.
fn time_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut samples: Vec<Duration> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples[BATCHES / 2].as_nanos() as f64 / iters as f64
}

/// Iterations that keep a probe near `budget` given one call's cost.
fn iters_for(one_call: Duration, budget: Duration) -> u64 {
    let per_batch = budget.as_nanos() / BATCHES as u128;
    (per_batch / one_call.as_nanos().max(1)).clamp(2, 100_000) as u64
}

struct Ticker {
    left: u64,
}

struct Tick;

impl Actor for Ticker {
    fn on_message(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
        if self.left > 0 {
            self.left -= 1;
            ctx.schedule_self(SimDuration::from_nanos(1), Tick);
        }
    }
}

/// One event through the default engine loop: pop, deliver to an actor that
/// does nothing but schedule the next, apply the effect, push.
fn dispatch_ns() -> f64 {
    const EVENTS: u64 = 200_000;
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut sim = Sim::new(1);
            let ticker = sim.spawn("ticker", Ticker { left: EVENTS });
            sim.send(ticker, Tick);
            let t0 = Instant::now();
            let events = sim.run();
            t0.elapsed().as_nanos() as f64 / events.max(1) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

/// `Metrics::incr` on a registry already holding the whole key schema.
fn incr_cost() -> (f64, f64) {
    let mut metrics = Metrics::new();
    for key in metrics_keys::ALL {
        metrics.incr(key, 1);
    }
    let keys = [
        metrics_keys::NDN_RX_INTERESTS,
        metrics_keys::NDN_CS_MISSES,
        metrics_keys::NDN_INTERESTS_FORWARDED,
        metrics_keys::NDN_RX_DATA,
        metrics_keys::NDN_PIT_SATISFIED,
        metrics_keys::GATEWAY_STATUS_QUERIES,
    ];
    const CALLS: u64 = 60_000;
    let a0 = AllocCount::now();
    let ns = time_ns(CALLS, |i| metrics.incr(keys[i as usize % keys.len()], 1));
    let allocs = AllocCount::now().since(a0).calls as f64 / (CALLS * BATCHES as u64) as f64;
    black_box(metrics.counter(keys[0]));
    (ns, allocs)
}

fn status_name(i: u64) -> Name {
    status_prefix()
        .child_str("site-07")
        .child_str(&format!("job-{i:06}"))
}

fn sign(name: Name, payload: &Bytes) -> Data {
    Data::new(name, payload.clone())
        .with_freshness(SimDuration::from_secs(60))
        .sign_digest()
}

fn packet_costs(payload: &Bytes) -> (f64, f64) {
    let name = data_prefix()
        .child_str("bench")
        .child(NameComponent::segment(7));
    let t0 = Instant::now();
    let signed = sign(name.clone(), payload);
    let iters = iters_for(t0.elapsed(), Duration::from_millis(150));
    let sign_ns = time_ns(iters, |_| {
        black_box(sign(name.clone(), payload));
    });
    let verify_ns = time_ns(iters, |_| {
        black_box(signed.verify(None));
    });
    (sign_ns, verify_ns)
}

/// Insert → out-record → match → take: what one Interest/Data exchange does
/// to a forwarder's PIT.
fn pit_cycle_ns() -> f64 {
    let mut pit = Pit::new();
    let now = SimTime::ZERO;
    // A few resident entries, as on a forwarder with requests in flight.
    for i in 0..8 {
        let resident = Interest::new(status_name(1_000_000 + i)).with_nonce(i as u32);
        pit.insert(&resident, FaceId::from_raw(1), now);
    }
    let interests: Vec<Interest> = (0..64)
        .map(|i| Interest::new(status_name(i)).with_nonce(i as u32))
        .collect();
    let mut keys: Vec<PitKey> = Vec::new();
    time_ns(20_000, |i| {
        let interest = &interests[i as usize % interests.len()];
        pit.insert(interest, FaceId::from_raw(2), now);
        pit.add_out_record(
            &PitKey::of(interest),
            FaceId::from_raw(3),
            interest.nonce,
            now,
        );
        pit.match_data_into(&interest.name, &mut keys);
        for key in &keys {
            black_box(pit.take(key));
        }
    })
}

fn cs_costs(shape: &Shape, payload: &Bytes) -> (f64, f64, f64) {
    let now = SimTime::ZERO;
    let mut cs = ContentStore::with_config(CsConfig {
        budget_bytes: shape.cs_budget_bytes,
        ..Default::default()
    });
    let base = data_prefix().child_str("bench").child_str("probe");
    let seg_name = |i: u64| base.clone().child(NameComponent::segment(i));
    let resident = shape.cs_len.clamp(1, 512) as u64;
    for i in 0..resident {
        cs.insert(Data::new(seg_name(i), payload.clone()), now);
    }
    let hits: Vec<Interest> = (0..resident).map(|i| Interest::new(seg_name(i))).collect();
    let miss = Interest::new(seg_name(u64::MAX));
    let hit_ns = time_ns(20_000, |i| {
        black_box(cs.lookup(&hits[i as usize % hits.len()], now));
    });
    let miss_ns = time_ns(20_000, |_| {
        black_box(cs.lookup(&miss, now));
    });
    // Admission of names never seen before, into the store as the workload
    // left it: over budget this evicts on every call, under budget it grows.
    const ADMITS: u64 = 2_000;
    let mut fresh = (0..ADMITS * BATCHES as u64)
        .map(|i| Data::new(seg_name(1_000_000 + i), payload.clone()))
        .collect::<Vec<_>>()
        .into_iter();
    let admit_ns = time_ns(ADMITS, |_| {
        cs.insert(fresh.next().expect("one Data per admit"), now);
    });
    (hit_ns, miss_ns, admit_ns)
}

fn fib_lpm_ns(shape: &Shape) -> f64 {
    let mut fib = Fib::new();
    fib.add_nexthop(compute_prefix(), FaceId::from_raw(1), 0);
    fib.add_nexthop(data_prefix(), FaceId::from_raw(1), 0);
    let clusters = (shape.fib_len / 2).max(1) as u64;
    for i in 0..clusters {
        let site = format!("site-{i:02}");
        fib.add_nexthop(
            status_prefix().child_str(&site),
            FaceId::from_raw(10 + i),
            1,
        );
        fib.add_nexthop(
            data_prefix().child_str("results").child_str(&site),
            FaceId::from_raw(10 + i),
            1,
        );
    }
    let names: Vec<Name> = (0..16).map(status_name).collect();
    time_ns(50_000, |i| {
        black_box(fib.lookup(&names[i as usize % names.len()]));
    })
}

fn classify_ns() -> f64 {
    let compute = ComputeRequest::new("SIM", 2, 4)
        .with_param("size", "360000000000")
        .with_param("tag", "5eed-417")
        .to_name();
    let status = status_name(417);
    time_ns(20_000, |i| {
        black_box(classify(if i % 2 == 0 { &compute } else { &status }));
    })
}

fn segment_data_ns(segment_bytes: usize) -> f64 {
    let base = data_prefix().child_str("bench").child_str("probe");
    let content = Content::synthetic(64 * segment_bytes as u64, 0x5EED);
    let fresh = SimDuration::from_secs(60);
    let t0 = Instant::now();
    black_box(segment_data(&base, &content, 0, segment_bytes, fresh));
    let iters = iters_for(t0.elapsed(), Duration::from_millis(200));
    time_ns(iters, |i| {
        black_box(segment_data(&base, &content, i % 64, segment_bytes, fresh));
    })
}

/// A steady Job-controller pass and an idle scheduler pass over an API
/// server holding the workload's resident job population.
fn k8s_pass_costs(shape: &Shape) -> (f64, f64) {
    let now = SimTime::ZERO;
    let mut api = ApiServer::new("probe");
    const NODES: usize = 8;
    for n in 0..NODES {
        api.add_node(
            Node::new(format!("node-{n}"), Resources::new(1 << 14, 1 << 14)),
            now,
        );
    }
    let template = PodSpec::single(ContainerSpec {
        name: "w".into(),
        image: "w".into(),
        requests: Resources::new(1, 1),
        workload: WorkloadSpec::Forever,
    });
    for j in 0..shape.jobs_per_cluster.max(1) {
        let job = format!("job-{j:05}");
        api.create_job(Job::new(ObjectMeta::named(&job), template.clone(), 0), now)
            .expect("distinct job names");
        let pod = format!("{job}-0");
        let mut meta = ObjectMeta::named(&pod);
        meta.labels.insert("job".into(), job);
        let uid = api
            .create_pod(Pod::new(meta, template.clone()), now)
            .expect("distinct pod names");
        api.bind_pod(&ObjectKey::named(&pod), &format!("node-{}", j % NODES), now);
        api.set_pod_phase(uid, PodPhase::Running);
    }
    // Settle: the first pass flips every job to Running.
    reconcile_jobs(&mut api, now);
    let t0 = Instant::now();
    black_box(reconcile_jobs(&mut api, now));
    let iters = iters_for(t0.elapsed(), Duration::from_millis(100));
    let reconcile = time_ns(iters, |_| {
        black_box(reconcile_jobs(&mut api, now));
    });
    let scheduler = Scheduler::default();
    let schedule = time_ns(iters, |_| {
        black_box(scheduler.schedule(&mut api, now).len());
    });
    (reconcile, schedule)
}

/// Run every probe at the workload's shape.
pub fn run(shape: &Shape) -> Costs {
    let payload = Bytes::from(vec![0xA5u8; shape.payload_bytes]);
    let (incr_ns, incr_allocs) = incr_cost();
    let (encode_sign_ns, decode_verify_ns) = packet_costs(&payload);
    let (cs_lookup_hit_ns, cs_lookup_miss_ns, cs_admit_ns) = cs_costs(shape, &payload);
    let (reconcile_pass_ns, schedule_pass_ns) = k8s_pass_costs(shape);
    Costs {
        dispatch_ns_per_event: dispatch_ns(),
        incr_ns,
        incr_allocs,
        encode_sign_ns,
        decode_verify_ns,
        pit_cycle_ns: pit_cycle_ns(),
        cs_lookup_hit_ns,
        cs_lookup_miss_ns,
        cs_admit_ns,
        fib_lpm_ns: fib_lpm_ns(shape),
        classify_ns: classify_ns(),
        segment_data_ns: segment_data_ns(shape.segment_bytes),
        reconcile_pass_ns,
        schedule_pass_ns,
    }
}
