//! Dispatch-mode equivalence: the same gateway-pipeline workload must
//! produce identical replies, identical domain metrics, and identical
//! CS/PIT end state in both execution modes:
//!
//! 1. sequential — batching off, every message through `on_message`;
//! 2. batched — engine `on_batch` coalescing + forwarder wire batching +
//!    the gateway's amortized batch handlers.
//!
//! This is the safety net for the batching refactors: any ordering bug in
//! burst coalescing or the per-link flush shows up as a divergence here,
//! and the golden digest in `tests/golden/` pins the result itself.

mod common;

use std::collections::BTreeMap;

use common::assert_golden;
use lidc_core::cluster::{LidcCluster, LidcClusterConfig};
use lidc_ndn::crypto::{sha256, to_hex};
use lidc_ndn::face::{FaceIdAlloc, LinkProps};
use lidc_ndn::forwarder::{AppRx, Forwarder, ForwarderConfig, Rx};
use lidc_ndn::name::Name;
use lidc_ndn::net::{attach_app, connect};
use lidc_ndn::packet::{ContentType, Interest, Packet};
use lidc_simcore::engine::{Actor, ActorId, Ctx, Msg, Sim};
use lidc_simcore::time::SimDuration;

/// Records every reply the burst produces (name, content-type, payload).
struct Sink {
    replies: Vec<(String, String, Vec<u8>)>,
}

impl Actor for Sink {
    fn on_message(&mut self, msg: Msg, _ctx: &mut Ctx<'_>) {
        if let Ok(rx) = msg.downcast::<AppRx>() {
            match rx.packet {
                Packet::Data(d) => self.replies.push((
                    d.name.to_uri(),
                    format!("{:?}", d.content_type),
                    d.content.to_vec(),
                )),
                Packet::Nack(n) => {
                    self.replies
                        .push((n.interest.name.to_uri(), format!("nack:{:?}", n.reason), vec![]))
                }
                Packet::Interest(_) => {}
            }
        }
    }
}

/// End-state fingerprint of one run.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    /// Sorted replies (ordering within one instant is not part of the
    /// equivalence contract; the *set* of replies is).
    replies: Vec<(String, String, Vec<u8>)>,
    /// Every metrics counter except the batching observability counters,
    /// which exist only in the batched mode.
    counters: BTreeMap<String, u64>,
    /// (cached names, PIT size) per forwarder: two clients, gateway, lake.
    tables: Vec<(Vec<String>, usize)>,
    /// Gateway statistics struct.
    gateway_stats: String,
}

/// Interests per client forwarder in one same-instant burst.
const BURST: u32 = 72;

fn send_burst(sim: &mut Sim, fwd: ActorId, face: lidc_ndn::face::FaceId, tag_base: u32) {
    let send = |sim: &mut Sim, interest: Interest| {
        sim.send(fwd, Rx {
            face,
            packet: Packet::Interest(interest),
        });
    };
    // One same-instant burst mixing every request kind the gateway serves:
    // compute requests across two apps with status checks *interleaved*
    // (so the batch path must keep side effects in arrival order), plus a
    // malformed compute.
    for i in 0..BURST {
        let app = if i % 3 == 0 { "EQAPP" } else { "EQOTHER" };
        let tag = tag_base + i;
        let name = Name::parse(&format!(
            "/ndn/k8s/compute/mem=1&cpu=1&app={app}&size=500000&tag={tag}"
        ))
        .unwrap();
        send(sim, Interest::new(name).must_be_fresh(true).with_nonce(1000 + tag));
        if i % 6 == 0 {
            let name =
                Name::parse(&format!("/ndn/k8s/status/eq/job-{}", 9000 + tag)).unwrap();
            send(sim, Interest::new(name).must_be_fresh(true).with_nonce(5000 + tag));
        }
    }
    send(
        sim,
        Interest::new(Name::parse("/ndn/k8s/compute/mem=broken").unwrap())
            .must_be_fresh(true)
            .with_nonce(7000 + tag_base),
    );
}

fn run(batching: bool) -> Fingerprint {
    let mut sim = Sim::new(99);
    sim.set_batching(batching);
    let alloc = FaceIdAlloc::new();
    let cluster = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig {
        nodes: 2,
        load_datasets: false,
        // Result cache on: a compute whose key a same-instant neighbor
        // populated must hit (or miss) identically in every mode.
        result_cache_capacity: 8,
        ..LidcClusterConfig::named("eq")
    });
    // Two client forwarders receiving same-instant bursts.
    let mut clients = Vec::new();
    for c in 0..2 {
        let client_fwd = sim.spawn(
            format!("client-fwd-{c}"),
            Forwarder::new(format!("client-fwd-{c}"), ForwarderConfig::default()),
        );
        let (to_gw, _) = connect(
            &mut sim,
            client_fwd,
            cluster.gateway_fwd,
            &alloc,
            LinkProps::with_latency(SimDuration::from_millis(2)),
        );
        cluster.register_on(&mut sim, client_fwd, to_gw, 0);
        let sink = sim.spawn(format!("sink-{c}"), Sink { replies: vec![] });
        let sink_face = attach_app(&mut sim, client_fwd, sink, &alloc);
        clients.push((client_fwd, sink, sink_face));
    }

    for (c, (client_fwd, _, sink_face)) in clients.iter().enumerate() {
        send_burst(&mut sim, *client_fwd, *sink_face, (c as u32) * 10_000);
    }
    sim.run_until(sim.now() + SimDuration::from_millis(100));

    // Second wave, also same-instant: status checks for the jobs the acks
    // named (the ack body carries `job-id=<cluster>/job-<n>`), exercising
    // the batched status path against live jobs.
    for (client_fwd, sink, sink_face) in &clients {
        let job_ids: Vec<String> = sim
            .actor::<Sink>(*sink)
            .unwrap()
            .replies
            .iter()
            .filter_map(|(_, _, content)| {
                let text = String::from_utf8_lossy(content);
                text.lines()
                    .find_map(|l| l.strip_prefix("job-id=").map(|s| s.to_owned()))
            })
            .collect();
        assert!(!job_ids.is_empty(), "acks carried job ids");
        for (i, job) in job_ids.iter().enumerate() {
            let name = Name::parse(&format!("/ndn/k8s/status/{job}")).unwrap();
            sim.send(*client_fwd, Rx {
                face: *sink_face,
                packet: Packet::Interest(
                    Interest::new(name).must_be_fresh(true).with_nonce(40_000 + i as u32),
                ),
            });
        }
    }
    sim.run_until(sim.now() + SimDuration::from_millis(100));

    let mut replies: Vec<(String, String, Vec<u8>)> = clients
        .iter()
        .flat_map(|(_, sink, _)| sim.actor::<Sink>(*sink).unwrap().replies.clone())
        .collect();
    replies.sort();
    // Runtime metric-key drift guard: every key this run recorded must
    // be in the registry the static lint checks literals against.
    let bad = lidc_simcore::metrics_keys::unregistered(
        sim.metrics_ref().counter_names().chain(sim.metrics_ref().histogram_names()),
    );
    assert!(bad.is_empty(), "unregistered metric keys recorded: {bad:?}");
    let counters: BTreeMap<String, u64> = sim
        .metrics_ref()
        .counter_names()
        .filter(|name| !name.contains("batch"))
        .map(|name| (name.to_owned(), sim.metrics_ref().counter(name)))
        .collect();
    let tables = [
        clients[0].0,
        clients[1].0,
        cluster.gateway_fwd,
        cluster.dl_fwd,
    ]
    .iter()
    .map(|&fwd| {
        let f = sim.actor::<Forwarder>(fwd).unwrap();
        (
            f.cs().names().map(|n| n.to_uri()).collect::<Vec<_>>(),
            f.pit().len(),
        )
    })
    .collect();
    Fingerprint {
        replies,
        counters,
        tables,
        gateway_stats: format!("{:?}", cluster.gateway_stats(&sim)),
    }
}

#[test]
fn sequential_and_batched_dispatch_agree() {
    let sequential = run(false);
    assert!(!sequential.replies.is_empty());
    // The batched run must equal `sequential`, so pinning its digest pins
    // both.
    assert_golden(
        "batch_equivalence_sha256",
        &to_hex(&sha256(format!("{sequential:?}").as_bytes())),
    );
    let batched = run(true);
    assert_eq!(sequential.replies, batched.replies, "reply sets diverge");
    assert_eq!(sequential.counters, batched.counters, "metrics diverge");
    assert_eq!(sequential.tables, batched.tables, "CS/PIT end-state diverges");
    assert_eq!(sequential.gateway_stats, batched.gateway_stats, "gateway stats diverge");
}

#[test]
fn batched_path_actually_batched() {
    // Guard against the equivalence test silently testing nothing: the
    // batched run must register engine bursts and link flushes.
    let mut sim = Sim::new(5);
    let alloc = FaceIdAlloc::new();
    let cluster = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig {
        nodes: 2,
        load_datasets: false,
        ..LidcClusterConfig::named("eq2")
    });
    let client_fwd = sim.spawn(
        "client-fwd",
        Forwarder::new("client-fwd", ForwarderConfig::default()),
    );
    let (to_gw, _) = connect(
        &mut sim,
        client_fwd,
        cluster.gateway_fwd,
        &alloc,
        LinkProps::with_latency(SimDuration::from_millis(2)),
    );
    cluster.register_on(&mut sim, client_fwd, to_gw, 0);
    let sink = sim.spawn("sink", Sink { replies: vec![] });
    let sink_face = attach_app(&mut sim, client_fwd, sink, &alloc);
    for i in 0..16 {
        let name = Name::parse(&format!(
            "/ndn/k8s/compute/mem=1&cpu=1&app=EQAPP&size=500000&tag={i}"
        ))
        .unwrap();
        sim.send(client_fwd, Rx {
            face: sink_face,
            packet: Packet::Interest(Interest::new(name).must_be_fresh(true).with_nonce(1 + i)),
        });
    }
    sim.run_until(sim.now() + SimDuration::from_millis(100));
    assert_eq!(sim.actor::<Sink>(sink).unwrap().replies.len(), 16);
    let m = sim.metrics_ref();
    assert!(m.counter("sim.batch.bursts") > 0, "engine coalesced bursts");
    assert!(m.counter("ndn.batch.link_flushes") > 0, "links flushed batches");
    assert!(m.counter("gateway.batch.bursts") > 0, "gateway saw a burst");
    assert!(m.counter("sim.batch.max_size") >= 16);
    let drained = sim.drain_stats(cluster.gateway_app);
    assert!(drained.max_batch >= 16, "gateway drained the burst in one call");
    // ContentType unused warning guard.
    let _ = ContentType::Blob;
}
