//! Microbenchmarks (wall-clock, criterion): the hot paths underneath every
//! LIDC request — name parsing, TLV codecs, forwarder tables, gateway
//! classification — plus the real (rayon-parallel) alignment kernel.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lidc_baseline::chaos::{run_lidc_chaos, ChaosConfig};
use lidc_core::cluster::{LidcCluster, LidcClusterConfig};
use lidc_core::naming::{classify, ComputeRequest, RequestKind};
use lidc_genomics::aligner::{
    align_parallel, align_sequential, extend_diagonal, extend_diagonal_scalar, Reference,
};
use lidc_genomics::pack::PackedSeq;
use lidc_genomics::sequence::sample_reads;
use lidc_ndn::face::FaceId;
use lidc_ndn::name::Name;
use lidc_ndn::packet::{Data, Interest};
use lidc_ndn::tables::cs::ContentStore;
use lidc_ndn::tables::fib::Fib;
use lidc_ndn::tables::pit::Pit;
use lidc_simcore::time::{SimDuration, SimTime};

fn bench_naming(c: &mut Criterion) {
    let mut g = c.benchmark_group("naming");
    let uri = "/ndn/k8s/compute/mem=4&cpu=2&app=BLAST&ref=HUMAN&srr=SRR2931415&tag=17";
    let name = Name::parse(uri).unwrap();
    let request = ComputeRequest::new("BLAST", 2, 4)
        .with_param("srr", "SRR2931415")
        .with_param("ref", "HUMAN")
        .with_param("tag", "17");

    g.bench_function("name_parse", |b| b.iter(|| Name::parse(black_box(uri)).unwrap()));
    g.bench_function("name_to_uri", |b| b.iter(|| black_box(&name).to_uri()));
    g.bench_function("compute_request_to_name", |b| {
        b.iter(|| black_box(&request).to_name())
    });
    g.bench_function("compute_request_from_name", |b| {
        b.iter(|| ComputeRequest::from_name(black_box(&name)).unwrap())
    });
    g.bench_function("classify", |b| {
        b.iter(|| match classify(black_box(&name)) {
            RequestKind::Compute(r) => r.cpu_cores,
            _ => unreachable!(),
        })
    });
    g.bench_function("http_url_parse", |b| {
        b.iter(|| {
            ComputeRequest::from_http_url(black_box(
                "https://lidc.example/compute?mem=4&cpu=2&app=BLAST&srr=SRR2931415",
            ))
            .unwrap()
        })
    });
    g.finish();
}

fn bench_tlv(c: &mut Criterion) {
    let mut g = c.benchmark_group("tlv");
    let interest = Interest::new(
        Name::parse("/ndn/k8s/compute/mem=4&cpu=2&app=BLAST&srr=SRR2931415").unwrap(),
    )
    .with_nonce(0xDEAD_BEEF)
    .with_lifetime(SimDuration::from_secs(4));
    let interest_wire = interest.encode();
    let data = Data::new(
        Name::parse("/ndn/k8s/data/sra/SRR2931415").unwrap(),
        vec![7u8; 1024],
    )
    .with_freshness(SimDuration::from_secs(60))
    .sign_digest();
    let data_wire = data.encode();

    g.throughput(Throughput::Bytes(interest_wire.len() as u64));
    g.bench_function("interest_encode", |b| b.iter(|| black_box(&interest).encode()));
    g.bench_function("interest_decode", |b| {
        b.iter(|| Interest::decode(black_box(&interest_wire)).unwrap())
    });
    g.throughput(Throughput::Bytes(data_wire.len() as u64));
    g.bench_function("data_encode_sign", |b| {
        b.iter(|| {
            Data::new(
                Name::parse("/ndn/k8s/data/sra/SRR2931415").unwrap(),
                vec![7u8; 1024],
            )
            .sign_digest()
            .encode()
        })
    });
    g.bench_function("data_decode_verify", |b| {
        b.iter(|| {
            let d = Data::decode(black_box(&data_wire)).unwrap();
            assert!(d.verify(None));
            d
        })
    });
    g.finish();
}

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");

    // FIB longest-prefix match over a realistically mixed route table.
    for &routes in &[16usize, 256, 4096] {
        let mut fib = Fib::new();
        for i in 0..routes {
            let prefix = Name::parse(&format!("/ndn/k8s/status/cluster-{i}")).unwrap();
            fib.add_nexthop(prefix, FaceId::from_raw(i as u64), (i % 7) as u32);
        }
        fib.add_nexthop(Name::parse("/ndn/k8s/compute").unwrap(), FaceId::from_raw(9999), 0);
        let lookup = Name::parse(&format!(
            "/ndn/k8s/status/cluster-{}/job-42",
            routes / 2
        ))
        .unwrap();
        g.bench_with_input(BenchmarkId::new("fib_lpm", routes), &routes, |b, _| {
            b.iter(|| fib.lookup(black_box(&lookup)).unwrap().prefix.len())
        });
    }

    // PIT insert + consume cycle (scratch-buffer matching, as the
    // forwarder's Data path uses it).
    g.bench_function("pit_insert_match_take", |b| {
        let mut pit = Pit::new();
        let now = SimTime::ZERO;
        let mut n = 0u32;
        let mut keys = Vec::with_capacity(4);
        b.iter(|| {
            n = n.wrapping_add(1);
            let name = Name::parse(&format!("/svc/job{}", n % 1024)).unwrap();
            let interest = Interest::new(name.clone()).with_nonce(n);
            let (_, _) = pit.insert(&interest, FaceId::from_raw(1), now);
            pit.match_data_into(&name, &mut keys);
            for k in &keys {
                pit.take(k);
            }
            keys.len()
        })
    });

    // Content-store insert + hit at capacity (LRU churn).
    g.bench_function("cs_insert_lookup", |b| {
        let mut cs = ContentStore::new(1024);
        let now = SimTime::ZERO;
        let mut n = 0u64;
        b.iter(|| {
            n = n.wrapping_add(1);
            let name = Name::parse(&format!("/data/obj{}", n % 2048)).unwrap();
            let data = Data::new(name.clone(), vec![1u8; 64]).sign_digest();
            cs.insert(data, now);
            cs.lookup(&Interest::new(name), now).is_some()
        })
    });
    g.finish();
}

/// Content Store eviction and admission under the two-tier budget.
///
/// `cs_evict/count` churns a full store so every insert evicts one LRU
/// entry by *entry capacity*; `cs_evict/bytes` does the same with the
/// *byte budget* as the binding constraint (capacity far away). Both
/// measure the per-insert eviction cost the forwarder pays under sustained
/// Data arrival.
fn bench_cs_eviction(c: &mut Criterion) {
    use lidc_ndn::tables::cs::CsConfig;

    let now = SimTime::ZERO;
    let mut g = c.benchmark_group("cs_evict");

    g.bench_function("count", |b| {
        // 2048 names cycling through 1024 slots: steady-state count-driven
        // eviction on every insert. Packets are pre-built (unsigned — the
        // CS neither verifies nor hashes) so the loop measures the store.
        let packets: Vec<Data> = (0..2048)
            .map(|i| Data::new(Name::parse(&format!("/data/obj{i}")).unwrap(), vec![7u8; 64]))
            .collect();
        let mut cs = ContentStore::new(1024);
        let mut n = 0usize;
        b.iter(|| {
            n = n.wrapping_add(1);
            cs.insert(black_box(&packets[n % packets.len()]).clone(), now);
            cs.len()
        })
    });

    g.bench_function("bytes", |b| {
        // 4 KiB entries against a 1 MiB budget (~250 resident): every
        // insert evicts by bytes while the entry capacity never binds.
        let payload = bytes::Bytes::from(vec![7u8; 4096]);
        let packets: Vec<Data> = (0..512)
            .map(|i| {
                Data::new(
                    Name::parse(&format!("/data/blob{i}")).unwrap(),
                    payload.clone(),
                )
            })
            .collect();
        let mut cs = ContentStore::with_config(CsConfig {
            capacity: 1 << 20,
            budget_bytes: 1 << 20,
            ..CsConfig::default()
        });
        let mut n = 0usize;
        b.iter(|| {
            n = n.wrapping_add(1);
            cs.insert(black_box(&packets[n % packets.len()]).clone(), now);
            cs.bytes_used()
        })
    });
    g.finish();
}

/// Mixed-size churn: a bulk segment stream (16 × 1 MiB segments per step)
/// interleaved with probes of 64 hot small results, the workload the
/// paper's data-intensive transfers inflict on gateway-path caches. The
/// count-only store lets the stream flush the hot set (hit rate collapses
/// toward 0); the byte-budgeted, segment-aware store confines the stream
/// to the bulk class share and keeps serving the hot set. Each bench
/// asserts its regime's hit rate so a policy regression fails loudly
/// instead of skewing the timing comparison.
fn bench_cs_churn(c: &mut Criterion) {
    use lidc_ndn::tables::cs::{ContentStore, CsConfig};

    const HOT: usize = 64;
    const STEPS: usize = 512;
    const BULK_PER_STEP: usize = 16;

    let now = SimTime::ZERO;
    let segment = bytes::Bytes::from(vec![7u8; 1 << 20]);
    let bulk: Vec<Data> = (0..STEPS * BULK_PER_STEP)
        .map(|i| {
            Data::new(
                Name::parse(&format!("/lake/run{}/seg={}", i / 256, i % 256)).unwrap(),
                segment.clone(),
            )
        })
        .collect();
    let hot: Vec<Data> = (0..HOT)
        .map(|i| Data::new(Name::parse(&format!("/hot/result{i}")).unwrap(), vec![1u8; 512]))
        .collect();

    // One churn pass: returns the small-object hit rate over all probes.
    let run = |config: CsConfig| -> f64 {
        let mut cs = ContentStore::with_config(config);
        for (step, chunk) in bulk.chunks(BULK_PER_STEP).enumerate() {
            for seg in chunk {
                cs.insert(seg.clone(), now);
            }
            let probe = &hot[step % HOT];
            if cs.lookup(&Interest::new(probe.name.clone()), now).is_none() {
                cs.insert(probe.clone(), now);
            }
        }
        cs.hits() as f64 / STEPS as f64
    };

    let mut g = c.benchmark_group("cs_churn");
    g.sample_size(10);
    g.throughput(Throughput::Elements((STEPS * (BULK_PER_STEP + 1)) as u64));

    g.bench_function("mixed_count_only", |b| {
        b.iter(|| {
            let rate = run(CsConfig::count_only(1024));
            assert!(
                rate < 0.3,
                "count-only hit rate {rate:.2}: the collapse this bench documents vanished"
            );
            rate
        })
    });
    g.bench_function("mixed_budgeted", |b| {
        b.iter(|| {
            let rate = run(CsConfig {
                capacity: 1024,
                budget_bytes: 64 << 20,
                ..CsConfig::default()
            });
            assert!(
                rate > 0.7,
                "budgeted hit rate {rate:.2}: small objects flushed by bulk traffic"
            );
            rate
        })
    });
    g.finish();
}

/// Burst dispatch: N same-instant compute Interests traverse a client
/// forwarder, a WAN link, the gateway forwarder, and the gateway app, and
/// the submit-acks return. This is the paper's fan-in scenario (§V–§VII):
/// the 1024-point is what gateway dispatch batching and the wire-batch link
/// model exist for.
fn bench_burst(c: &mut Criterion) {
    use lidc_ndn::face::{FaceIdAlloc, LinkProps};
    use lidc_ndn::forwarder::{AppRx, Forwarder, ForwarderConfig, Rx};
    use lidc_ndn::net::{attach_app, connect};
    use lidc_ndn::packet::{ContentType, Packet};
    use lidc_simcore::engine::{Actor, Ctx, Msg, Sim};

    /// Counts successful acks only — a NACKed or nack-bodied reply must
    /// fail the bench's completeness assert, not masquerade as the (much
    /// cheaper) job-creation path and corrupt the pre/post comparison.
    struct Sink {
        acks: u64,
    }
    impl Actor for Sink {
        fn on_message(&mut self, msg: Msg, _ctx: &mut Ctx<'_>) {
            if let Ok(rx) = msg.downcast::<AppRx>() {
                if let Packet::Data(d) = &rx.packet {
                    if d.content_type != ContentType::Nack {
                        self.acks += 1;
                    }
                }
            }
        }
    }

    fn run_burst(n: usize) -> u64 {
        let mut sim = Sim::new(42);
        let alloc = FaceIdAlloc::new();
        let cluster = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig {
            nodes: 4,
            load_datasets: false,
            ..LidcClusterConfig::named("burst")
        });
        let client_fwd = sim.spawn(
            "client-fwd",
            Forwarder::new("client-fwd", ForwarderConfig::default()),
        );
        let (to_gw, _from_gw) = connect(
            &mut sim,
            client_fwd,
            cluster.gateway_fwd,
            &alloc,
            LinkProps::with_latency(SimDuration::from_millis(1)),
        );
        cluster.register_on(&mut sim, client_fwd, to_gw, 0);
        let sink = sim.spawn("sink", Sink { acks: 0 });
        let sink_face = attach_app(&mut sim, client_fwd, sink, &alloc);
        for i in 0..n {
            let name = Name::parse(&format!(
                "/ndn/k8s/compute/mem=1&cpu=1&app=BURST&size=1000000&tag={i}"
            ))
            .unwrap();
            let interest = Interest::new(name)
                .must_be_fresh(true)
                .with_nonce(i as u32 + 1);
            sim.send(client_fwd, Rx {
                face: sink_face,
                packet: Packet::Interest(interest),
            });
        }
        sim.run_until(sim.now() + SimDuration::from_millis(100));
        sim.actor::<Sink>(sink).unwrap().acks
    }

    let mut g = c.benchmark_group("burst");
    g.sample_size(10);
    for &n in &[1usize, 64, 1024] {
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("gateway_link_dispatch", n), &n, |b, &n| {
            b.iter(|| {
                let acks = run_burst(black_box(n));
                assert_eq!(acks, n as u64, "every Interest acked in-horizon");
                acks
            })
        });
    }
    g.finish();
}

/// K8s control-loop pass cost against a large resident pod population:
/// `jobs_pass` is the Job controller pass reading the persistent
/// pods-by-job index (O(jobs)); `jobs_pass_swept` measures the per-pass
/// O(pods) grouping sweep it replaced (PR 2's implementation, kept inline
/// here as the measured baseline); `schedule_pass_idle` is a scheduler
/// pass with nothing pending (usage accounting now reads the persistent
/// per-node index instead of sweeping every pod).
fn bench_k8s_reconcile(c: &mut Criterion) {
    use lidc_k8s::apiserver::ApiServer;
    use lidc_k8s::cluster::reconcile_jobs;
    use lidc_k8s::job::Job;
    use lidc_k8s::meta::{ObjectKey, ObjectMeta};
    use lidc_k8s::node::Node;
    use lidc_k8s::pod::{ContainerSpec, Pod, PodPhase, PodSpec, WorkloadSpec};
    use lidc_k8s::resources::Resources;
    use lidc_k8s::scheduler::Scheduler;
    use std::collections::HashMap;

    const NODES: usize = 64;
    const JOBS: usize = 512;
    const PODS_PER_JOB: usize = 8;

    let now = SimTime::ZERO;
    let mut api = ApiServer::new("bench");
    for n in 0..NODES {
        api.add_node(
            Node::new(format!("node-{n:03}"), Resources::new(1 << 14, 1 << 14)),
            now,
        );
    }
    let template = PodSpec::single(ContainerSpec {
        name: "w".into(),
        image: "w".into(),
        requests: Resources::new(1, 1),
        workload: WorkloadSpec::Forever,
    });
    for j in 0..JOBS {
        let job_name = format!("job-{j:04}");
        api.create_job(Job::new(ObjectMeta::named(&job_name), template.clone(), 0), now)
            .unwrap();
        for p in 0..PODS_PER_JOB {
            let mut meta = ObjectMeta::named(format!("{job_name}-{p}"));
            meta.labels.insert("job".into(), job_name.clone());
            let uid = api.create_pod(Pod::new(meta, template.clone()), now).unwrap();
            let key = ObjectKey::named(format!("{job_name}-{p}"));
            api.bind_pod(&key, &format!("node-{:03}", (j * PODS_PER_JOB + p) % NODES), now);
            api.set_pod_phase(uid, PodPhase::Running);
        }
    }
    // Settle: the first pass flips every job to Running.
    reconcile_jobs(&mut api, now);

    let mut g = c.benchmark_group("k8s_reconcile");
    g.sample_size(10);
    g.throughput(Throughput::Elements(JOBS as u64));
    g.bench_function("jobs_pass", |b| {
        b.iter(|| black_box(reconcile_jobs(&mut api, now)))
    });
    g.bench_function("jobs_pass_swept", |b| {
        // The replaced implementation's total pass cost: PR 2 grouped every
        // resident pod by owning job per pass (the sweep below) and then
        // ran the controller body. The body's per-job reads are identical
        // in both implementations, so sweep + `reconcile_jobs` models the
        // old pass; `jobs_pass` above is the new one.
        b.iter(|| {
            let mut owned: HashMap<String, Vec<ObjectKey>> = HashMap::new();
            for (k, p) in api.pods.iter() {
                if let Some(job) = p.meta.labels.get("job") {
                    owned.entry(job.clone()).or_default().push(k.clone());
                }
            }
            black_box(owned.len());
            black_box(reconcile_jobs(&mut api, now))
        })
    });
    let scheduler = Scheduler::default();
    g.bench_function("schedule_pass_idle", |b| {
        b.iter(|| black_box(scheduler.schedule(&mut api, now).len()))
    });
    g.finish();
}

/// The alignment kernel. `align/seq` and `align/par` run the full
/// seed-and-extend pipeline over the same 2k-read workload the seed's
/// `aligner/{sequential,parallel}_2k_reads` benches used (ids renamed with
/// the packed-kernel PR; BENCH_micro.json carries the old numbers as the
/// baseline). `align/extend` is the extension-dominated kernel bench —
/// long reads on known diagonals, no seeding — and `align/extend_scalar`
/// is the scalar zip-filter kernel (the seed implementation's extension
/// loop over the 2-bit alphabet) on the identical workload: the pre/post
/// pair behind the ≥2× acceptance number.
fn bench_align(c: &mut Criterion) {
    let mut g = c.benchmark_group("align");
    g.sample_size(10);
    let reference = Reference::synthesize(200_000, 16, 0xFEED);
    let reads = sample_reads(&reference.seq, 2_000, 100, 0.01, 0xBEEF);
    g.throughput(Throughput::Elements(reads.len() as u64));
    g.bench_function("seq", |b| {
        b.iter(|| align_sequential(black_box(&reference), black_box(&reads)).len())
    });
    g.bench_function("par", |b| {
        b.iter(|| align_parallel(black_box(&reference), black_box(&reads)).len())
    });

    // Extension-dominated: 256 × 4096-base reads. Most score along their
    // true (fully in-bounds) diagonal; every 16th diagonal is shifted to
    // hang half off a reference boundary so the clipping branch is part
    // of the measured kernel. Both benches iterate the identical
    // (read, diagonal) list.
    const EXT_READ_LEN: usize = 4096;
    let ext_reads = sample_reads(&reference.seq, 256, EXT_READ_LEN, 0.01, 0xF00D);
    let diagonals: Vec<i64> = ext_reads
        .iter()
        .enumerate()
        .map(|(i, r)| match i % 32 {
            0 => -((EXT_READ_LEN / 2) as i64),
            16 => (reference.seq.len() - EXT_READ_LEN / 2) as i64,
            _ => r.true_pos as i64,
        })
        .collect();
    let packed_reads: Vec<(PackedSeq, i64)> = ext_reads
        .iter()
        .zip(&diagonals)
        .map(|(r, &d)| (PackedSeq::from_ascii(&r.seq), d))
        .collect();
    g.throughput(Throughput::Bytes((ext_reads.len() * EXT_READ_LEN) as u64));
    g.bench_function("extend", |b| {
        let packed_ref = reference.packed();
        b.iter(|| {
            packed_reads
                .iter()
                .map(|(read, diag)| extend_diagonal(read, black_box(packed_ref), *diag).matches)
                .sum::<u32>()
        })
    });
    g.bench_function("extend_scalar", |b| {
        b.iter(|| {
            ext_reads
                .iter()
                .zip(&diagonals)
                .map(|(r, &d)| {
                    extend_diagonal_scalar(&r.seq, black_box(&reference.seq), d).matches
                })
                .sum::<u32>()
        })
    });
    g.finish();
}

/// End-to-end recovery cost: a full (small) chaos run — overlay deploy,
/// job stream, node crash + permanent cluster outage, rerouting, and
/// completion — measured as wall-clock per simulated recovery.
fn bench_chaos_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("chaos");
    g.sample_size(10);
    g.bench_function("recovery_latency", |b| {
        b.iter(|| {
            let mut cfg = ChaosConfig::standard(42);
            cfg.jobs = 4;
            cfg.horizon = SimDuration::from_mins(10);
            black_box(run_lidc_chaos(&cfg).completed)
        })
    });
    // The verification-heavy path: a byzantine gateway forges every reply,
    // so every hop verifies and the broken packets ride the full
    // reject → strike → resubmit pipeline. Compared against
    // `recovery_latency` (honest traffic, verification still on) in the
    // trajectory, this prices the integrity machinery under attack.
    g.bench_function("verify_overhead", |b| {
        b.iter(|| {
            let mut cfg = ChaosConfig::byzantine(42);
            cfg.jobs = 4;
            cfg.horizon = SimDuration::from_mins(10);
            black_box(run_lidc_chaos(&cfg).completed)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_naming,
    bench_tlv,
    bench_tables,
    bench_cs_eviction,
    bench_cs_churn,
    bench_burst,
    bench_k8s_reconcile,
    bench_align,
    bench_chaos_recovery
);
criterion_main!(benches);
