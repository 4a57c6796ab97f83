//! End-to-end forwarding tests: consumer ↔ forwarder mesh ↔ producer.
//!
//! These exercise the full NFD pipeline across multi-hop topologies: Data
//! retrieval, Content-Store caching, PIT aggregation, NACK propagation,
//! loss recovery via consumer retransmission, and anycast to the nearest
//! producer — the network-layer behaviours LIDC builds on.

use lidc_ndn::app::{Consumer, ConsumerEvent, Producer, RetxTimer};
use lidc_ndn::face::{FaceId, FaceIdAlloc, LinkProps};
use lidc_ndn::forwarder::{AppRx, Forwarder, ForwarderConfig, Rx};
use lidc_ndn::name::Name;
use lidc_ndn::net::{attach_app, connect};
use lidc_ndn::packet::{Data, Interest, Packet};
use lidc_ndn::strategy::Multicast;
use lidc_ndn::name;
use lidc_simcore::engine::{Actor, ActorId, Ctx, Msg, Sim};
use lidc_simcore::time::{SimDuration, SimTime};

/// A producer actor serving a prefix with fixed content and a per-reply tag.
struct ProducerApp {
    producer: Option<Producer>,
    prefix: Name,
    tag: &'static str,
    served: u64,
    /// Respond after this delay (simulated application processing).
    delay: SimDuration,
}

struct DelayedReply(Data);

impl Actor for ProducerApp {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<AppRx>() {
            Ok(rx) => {
                if let Packet::Interest(i) = rx.packet {
                    assert!(
                        self.prefix.is_prefix_of(&i.name),
                        "producer got interest outside its prefix"
                    );
                    self.served += 1;
                    let data = Data::new(i.name.clone(), self.tag.as_bytes())
                        .with_freshness(SimDuration::from_secs(60))
                        .sign_digest();
                    if self.delay.is_zero() {
                        self.producer.unwrap().reply(ctx, data);
                    } else {
                        ctx.schedule_self(self.delay, DelayedReply(data));
                    }
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(d) = msg.downcast::<DelayedReply>() {
            self.producer.unwrap().reply(ctx, d.0);
        }
    }
}

/// A consumer actor that records every resolution event.
struct ConsumerApp {
    consumer: Option<Consumer>,
    events: Vec<(SimTime, String)>,
}

struct Fetch(Interest, u32);

impl Actor for ConsumerApp {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<Fetch>() {
            Ok(f) => {
                self.consumer.as_mut().unwrap().express(ctx, f.0, f.1);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<AppRx>() {
            Ok(rx) => {
                if let Some(ev) = self.consumer.as_mut().unwrap().on_app_rx(&rx) {
                    self.events.push((ctx.now(), describe(&ev)));
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(t) = msg.downcast::<RetxTimer>() {
            if let Some(ev) = self.consumer.as_mut().unwrap().on_timer(ctx, &t) {
                self.events.push((ctx.now(), describe(&ev)));
            }
        }
    }
}

fn describe(ev: &ConsumerEvent) -> String {
    match ev {
        ConsumerEvent::Data(d) => format!(
            "data:{}:{}",
            d.name,
            String::from_utf8_lossy(&d.content)
        ),
        ConsumerEvent::Nack(reason, i) => format!("nack:{reason:?}:{}", i.name),
        ConsumerEvent::Timeout(i) => format!("timeout:{}", i.name),
    }
}

struct World {
    sim: Sim,
    alloc: FaceIdAlloc,
}

impl World {
    fn new(seed: u64) -> Self {
        World {
            sim: Sim::new(seed),
            alloc: FaceIdAlloc::new(),
        }
    }

    fn forwarder(&mut self, label: &str) -> ActorId {
        // Zero app-face latency keeps the timing arithmetic in these tests
        // exact: all delay comes from the links under test.
        let config = ForwarderConfig {
            app_face_latency: SimDuration::ZERO,
            ..Default::default()
        };
        self.sim.spawn(label, Forwarder::new(label, config))
    }

    fn producer(
        &mut self,
        fwd: ActorId,
        prefix: &str,
        tag: &'static str,
        delay: SimDuration,
    ) -> ActorId {
        let app = self.sim.spawn(
            format!("producer-{tag}"),
            ProducerApp {
                producer: None,
                prefix: Name::parse(prefix).unwrap(),
                tag,
                served: 0,
                delay,
            },
        );
        let face = attach_app(&mut self.sim, fwd, app, &self.alloc);
        self.sim.actor_mut::<ProducerApp>(app).unwrap().producer =
            Some(Producer::new(fwd, face));
        self.sim
            .actor_mut::<Forwarder>(fwd)
            .unwrap()
            .register_prefix(Name::parse(prefix).unwrap(), face, 0);
        app
    }

    fn consumer(&mut self, fwd: ActorId) -> ActorId {
        let app = self.sim.spawn(
            "consumer",
            ConsumerApp {
                consumer: None,
                events: vec![],
            },
        );
        let face = attach_app(&mut self.sim, fwd, app, &self.alloc);
        self.sim.actor_mut::<ConsumerApp>(app).unwrap().consumer =
            Some(Consumer::new(fwd, face));
        app
    }

    fn events(&self, app: ActorId) -> Vec<String> {
        self.sim
            .actor::<ConsumerApp>(app)
            .unwrap()
            .events
            .iter()
            .map(|(_, e)| e.clone())
            .collect()
    }

    /// Event strings with their virtual arrival times.
    fn timed_events(&self, app: ActorId) -> Vec<(SimTime, String)> {
        self.sim.actor::<ConsumerApp>(app).unwrap().events.clone()
    }

    fn served(&self, app: ActorId) -> u64 {
        self.sim.actor::<ProducerApp>(app).unwrap().served
    }
}

const MS: fn(u64) -> SimDuration = SimDuration::from_millis;

#[test]
fn two_hop_interest_data_exchange() {
    let mut w = World::new(1);
    let edge = w.forwarder("edge");
    let core = w.forwarder("core");
    let (edge_to_core, _) = connect(
        &mut w.sim,
        edge,
        core,
        &w.alloc,
        LinkProps::with_latency(MS(10)),
    );
    let producer = w.producer(core, "/data", "payload", SimDuration::ZERO);
    let consumer = w.consumer(edge);
    w.sim
        .actor_mut::<Forwarder>(edge)
        .unwrap()
        .register_prefix(name!("/data"), edge_to_core, 0);

    w.sim
        .send(consumer, Fetch(Interest::new(name!("/data/obj1")), 0));
    w.sim.run();

    let events = w.timed_events(consumer);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].1, "data:/data/obj1:payload");
    assert_eq!(w.served(producer), 1);
    // consumer→edge is an app face (0 delay), edge→core 10 ms, producer app
    // face 0, and the same back: 20 ms round trip.
    assert_eq!(events[0].0, SimTime::ZERO + MS(20));
}

#[test]
fn content_store_serves_second_request() {
    let mut w = World::new(2);
    let edge = w.forwarder("edge");
    let core = w.forwarder("core");
    let (edge_to_core, _) = connect(
        &mut w.sim,
        edge,
        core,
        &w.alloc,
        LinkProps::with_latency(MS(10)),
    );
    let producer = w.producer(core, "/data", "payload", SimDuration::ZERO);
    let c1 = w.consumer(edge);
    let c2 = w.consumer(edge);
    w.sim
        .actor_mut::<Forwarder>(edge)
        .unwrap()
        .register_prefix(name!("/data"), edge_to_core, 0);

    w.sim.send(c1, Fetch(Interest::new(name!("/data/obj")), 0));
    w.sim.run();
    // Second consumer asks later: the edge CS answers without upstream.
    let t_ask = w.sim.now();
    w.sim.send(c2, Fetch(Interest::new(name!("/data/obj")), 0));
    w.sim.run();

    assert_eq!(w.served(producer), 1, "producer hit exactly once");
    let events = w.timed_events(c2);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].1, "data:/data/obj:payload");
    assert_eq!(
        events[0].0, t_ask,
        "cache hit resolved without any link traversal"
    );
    assert_eq!(w.sim.metrics_ref().counter("ndn.cs_hits"), 1);
}

#[test]
fn pit_aggregates_concurrent_identical_requests() {
    let mut w = World::new(3);
    let edge = w.forwarder("edge");
    let core = w.forwarder("core");
    let (edge_to_core, _) = connect(
        &mut w.sim,
        edge,
        core,
        &w.alloc,
        LinkProps::with_latency(MS(10)),
    );
    // Slow producer so all requests arrive while the first is pending.
    let producer = w.producer(core, "/data", "payload", MS(100));
    let consumers: Vec<ActorId> = (0..5).map(|_| w.consumer(edge)).collect();
    w.sim
        .actor_mut::<Forwarder>(edge)
        .unwrap()
        .register_prefix(name!("/data"), edge_to_core, 0);

    for c in &consumers {
        w.sim.send(*c, Fetch(Interest::new(name!("/data/hot")), 0));
    }
    w.sim.run();

    assert_eq!(w.served(producer), 1, "one upstream fetch for five consumers");
    for c in &consumers {
        assert_eq!(w.events(*c), vec!["data:/data/hot:payload"]);
    }
    assert_eq!(w.sim.metrics_ref().counter("ndn.pit_aggregated"), 4);
}

#[test]
fn no_route_produces_nack() {
    let mut w = World::new(4);
    let edge = w.forwarder("edge");
    let consumer = w.consumer(edge);
    w.sim
        .send(consumer, Fetch(Interest::new(name!("/nowhere/x")), 0));
    w.sim.run();
    let events = w.events(consumer);
    assert_eq!(events.len(), 1);
    assert!(events[0].starts_with("nack:NoRoute"), "got {events:?}");
    assert_eq!(w.sim.metrics_ref().counter("ndn.no_route"), 1);
}

#[test]
fn nack_propagates_across_hops() {
    let mut w = World::new(5);
    let edge = w.forwarder("edge");
    let core = w.forwarder("core");
    let (edge_to_core, _) = connect(
        &mut w.sim,
        edge,
        core,
        &w.alloc,
        LinkProps::with_latency(MS(5)),
    );
    // Edge routes /void upstream, but core has no route at all.
    w.sim
        .actor_mut::<Forwarder>(edge)
        .unwrap()
        .register_prefix(name!("/void"), edge_to_core, 0);
    let consumer = w.consumer(edge);
    w.sim.send(consumer, Fetch(Interest::new(name!("/void/x")), 0));
    w.sim.run();
    let events = w.events(consumer);
    assert_eq!(events.len(), 1);
    assert!(events[0].starts_with("nack:NoRoute"), "got {events:?}");
}

#[test]
fn lossy_link_recovered_by_retransmission() {
    let mut w = World::new(6);
    let edge = w.forwarder("edge");
    let core = w.forwarder("core");
    // 60% loss each way; with 20 retries the fetch still succeeds.
    let (edge_to_core, _) = connect(
        &mut w.sim,
        edge,
        core,
        &w.alloc,
        LinkProps {
            latency: MS(5),
            loss: 0.6,
            ..Default::default()
        },
    );
    let producer = w.producer(core, "/data", "payload", SimDuration::ZERO);
    let consumer = w.consumer(edge);
    w.sim
        .actor_mut::<Forwarder>(edge)
        .unwrap()
        .register_prefix(name!("/data"), edge_to_core, 0);

    let interest = Interest::new(name!("/data/lossy")).with_lifetime(MS(50));
    w.sim.send(consumer, Fetch(interest, 20));
    w.sim.run();

    let events = w.events(consumer);
    assert_eq!(events.len(), 1);
    assert!(
        events[0].starts_with("data:"),
        "retransmissions recovered the loss: {events:?}"
    );
    assert!(w.sim.metrics_ref().counter("ndn.link_loss_drops") > 0);
    let _ = producer;
}

#[test]
fn anycast_best_route_reaches_nearest_producer() {
    // Consumer at edge; same prefix served by two producers, one 5 ms away
    // (near) and one 50 ms away (far). BestRoute must use the near one.
    let mut w = World::new(7);
    let edge = w.forwarder("edge");
    let near = w.forwarder("near");
    let far = w.forwarder("far");
    let (edge_to_near, _) = connect(
        &mut w.sim,
        edge,
        near,
        &w.alloc,
        LinkProps::with_latency(MS(5)),
    );
    let (edge_to_far, _) = connect(
        &mut w.sim,
        edge,
        far,
        &w.alloc,
        LinkProps::with_latency(MS(50)),
    );
    let p_near = w.producer(near, "/svc", "near", SimDuration::ZERO);
    let p_far = w.producer(far, "/svc", "far", SimDuration::ZERO);
    {
        let fwd = w.sim.actor_mut::<Forwarder>(edge).unwrap();
        fwd.register_prefix(name!("/svc"), edge_to_near, 5);
        fwd.register_prefix(name!("/svc"), edge_to_far, 50);
    }
    let consumer = w.consumer(edge);
    w.sim.send(consumer, Fetch(Interest::new(name!("/svc/job1")), 0));
    w.sim.run();

    let events = w.timed_events(consumer);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].1, "data:/svc/job1:near");
    assert_eq!(w.served(p_near), 1);
    assert_eq!(w.served(p_far), 0);
    assert_eq!(events[0].0, SimTime::ZERO + MS(10), "5 ms each way");
}

#[test]
fn multicast_strategy_reaches_all_producers() {
    let mut w = World::new(8);
    let edge = w.forwarder("edge");
    let a = w.forwarder("a");
    let b = w.forwarder("b");
    let (edge_to_a, _) = connect(&mut w.sim, edge, a, &w.alloc, LinkProps::with_latency(MS(5)));
    let (edge_to_b, _) = connect(&mut w.sim, edge, b, &w.alloc, LinkProps::with_latency(MS(9)));
    let p_a = w.producer(a, "/svc", "a", SimDuration::ZERO);
    let p_b = w.producer(b, "/svc", "b", SimDuration::ZERO);
    {
        let fwd = w.sim.actor_mut::<Forwarder>(edge).unwrap();
        fwd.register_prefix(name!("/svc"), edge_to_a, 1);
        fwd.register_prefix(name!("/svc"), edge_to_b, 1);
        fwd.set_strategy(name!("/svc"), Box::new(Multicast::new()));
    }
    let consumer = w.consumer(edge);
    w.sim.send(consumer, Fetch(Interest::new(name!("/svc/q")), 0));
    w.sim.run();

    assert_eq!(w.served(p_a), 1);
    assert_eq!(w.served(p_b), 1);
    // Consumer sees one answer (first back wins; the second is unsolicited
    // at the PIT and dropped).
    assert_eq!(w.events(consumer), vec!["data:/svc/q:a"]);
    assert_eq!(w.sim.metrics_ref().counter("ndn.unsolicited_data"), 1);
}

#[test]
fn three_hop_chain_with_bandwidth_delay() {
    let mut w = World::new(9);
    let f1 = w.forwarder("f1");
    let f2 = w.forwarder("f2");
    let f3 = w.forwarder("f3");
    let props = LinkProps {
        latency: MS(10),
        bandwidth_bps: Some(8_000_000), // 1 MB/s
        ..Default::default()
    };
    let (f1_to_f2, _) = connect(&mut w.sim, f1, f2, &w.alloc, props);
    let (f2_to_f3, _) = connect(&mut w.sim, f2, f3, &w.alloc, props);
    let _producer = w.producer(f3, "/deep", "x", SimDuration::ZERO);
    {
        w.sim
            .actor_mut::<Forwarder>(f1)
            .unwrap()
            .register_prefix(name!("/deep"), f1_to_f2, 0);
        w.sim
            .actor_mut::<Forwarder>(f2)
            .unwrap()
            .register_prefix(name!("/deep"), f2_to_f3, 0);
    }
    let consumer = w.consumer(f1);
    w.sim.send(consumer, Fetch(Interest::new(name!("/deep/obj")), 0));
    w.sim.run();
    let events = w.events(consumer);
    assert_eq!(events.len(), 1);
    assert!(events[0].starts_with("data:/deep/obj"));
    // 4 link traversals × ≥10 ms latency plus serialisation > 40 ms.
    assert!(w.sim.now() > SimTime::ZERO + MS(40));
}

#[test]
fn face_down_blocks_traffic_and_up_restores() {
    let mut w = World::new(10);
    let edge = w.forwarder("edge");
    let core = w.forwarder("core");
    let (edge_to_core, _) = connect(
        &mut w.sim,
        edge,
        core,
        &w.alloc,
        LinkProps::with_latency(MS(5)),
    );
    let _producer = w.producer(core, "/data", "x", SimDuration::ZERO);
    w.sim
        .actor_mut::<Forwarder>(edge)
        .unwrap()
        .register_prefix(name!("/data"), edge_to_core, 0);
    let consumer = w.consumer(edge);

    // Take the face down: the strategy sees no eligible hop → NACK.
    w.sim.send(
        edge,
        lidc_ndn::forwarder::SetFaceUp {
            face: edge_to_core,
            up: false,
        },
    );
    w.sim.send(consumer, Fetch(Interest::new(name!("/data/a")), 0));
    w.sim.run();
    assert!(w.events(consumer)[0].starts_with("nack:NoRoute"));

    // Bring it back: traffic flows.
    w.sim.send(
        edge,
        lidc_ndn::forwarder::SetFaceUp {
            face: edge_to_core,
            up: true,
        },
    );
    w.sim.send(consumer, Fetch(Interest::new(name!("/data/b")), 0));
    w.sim.run();
    let events = w.events(consumer);
    assert_eq!(events.len(), 2);
    assert!(events[1].starts_with("data:/data/b"));
}

#[test]
fn deterministic_replay_same_seed() {
    fn run(seed: u64) -> (u64, Vec<String>) {
        let mut w = World::new(seed);
        let edge = w.forwarder("edge");
        let core = w.forwarder("core");
        let (edge_to_core, _) = connect(
            &mut w.sim,
            edge,
            core,
            &w.alloc,
            LinkProps {
                latency: MS(5),
                loss: 0.3,
                ..Default::default()
            },
        );
        let _p = w.producer(core, "/d", "x", SimDuration::ZERO);
        w.sim
            .actor_mut::<Forwarder>(edge)
            .unwrap()
            .register_prefix(name!("/d"), edge_to_core, 0);
        let c = w.consumer(edge);
        for i in 0..10 {
            let interest =
                Interest::new(name!("/d").child_str(&format!("obj{i}"))).with_lifetime(MS(40));
            w.sim.send(c, Fetch(interest, 5));
        }
        w.sim.run();
        (w.sim.events_processed(), w.events(c))
    }
    assert_eq!(run(42), run(42));
    assert_ne!(run(42).0, run(43).0);
}

#[test]
fn same_instant_burst_travels_as_wire_batches() {
    // A 32-Interest same-instant burst crosses the edge→core link. With
    // wire batching the forwarder flushes the whole burst as one RxBatch
    // per direction instead of 32 events each way.
    let mut w = World::new(7);
    let edge = w.forwarder("edge");
    let core = w.forwarder("core");
    let (edge_to_core, _) = connect(&mut w.sim, edge, core, &w.alloc, LinkProps::with_latency(MS(5)));
    let p = w.producer(core, "/d", "x", SimDuration::ZERO);
    w.sim
        .actor_mut::<Forwarder>(edge)
        .unwrap()
        .register_prefix(name!("/d"), edge_to_core, 0);
    let c = w.consumer(edge);
    for i in 0..32 {
        let interest = Interest::new(name!("/d").child_str(&format!("obj{i}")));
        w.sim.send(c, Fetch(interest, 0));
    }
    w.sim.run();
    assert_eq!(w.events(c).len(), 32, "every Interest satisfied");
    assert_eq!(w.served(p), 32);
    // Interests went out in one flush; Data came back in one flush.
    let m = w.sim.metrics_ref();
    assert_eq!(m.counter("ndn.batch.link_flushes"), 2);
    assert_eq!(m.counter("ndn.batch.link_packets"), 64);
}

#[test]
fn rx_batch_ingress_matches_per_packet_ingress() {
    // Injecting a burst through one RxBatch event produces the same
    // forwarder end-state as per-packet Rx events.
    fn run(batched: bool) -> (u64, u64, usize) {
        let mut w = World::new(3);
        let edge = w.forwarder("edge");
        let core = w.forwarder("core");
        let (edge_to_core, _) =
            connect(&mut w.sim, edge, core, &w.alloc, LinkProps::with_latency(MS(2)));
        let _p = w.producer(core, "/d", "x", SimDuration::ZERO);
        w.sim
            .actor_mut::<Forwarder>(edge)
            .unwrap()
            .register_prefix(name!("/d"), edge_to_core, 0);
        let c = w.consumer(edge);
        let face = w
            .sim
            .actor::<ConsumerApp>(c)
            .unwrap()
            .consumer
            .as_ref()
            .unwrap()
            .face();
        let packets: Vec<Packet> = (0..8)
            .map(|i| {
                Packet::Interest(
                    Interest::new(name!("/d").child_str(&format!("obj{i}")))
                        .with_nonce(1000 + i as u32),
                )
            })
            .collect();
        if batched {
            lidc_ndn::net::inject_burst(&mut w.sim, edge, face, packets);
        } else {
            for packet in packets {
                w.sim.send(edge, Rx { face, packet });
            }
        }
        w.sim.run();
        let m = w.sim.metrics_ref();
        (
            m.counter("ndn.rx_interests"),
            m.counter("ndn.pit_satisfied"),
            w.sim
                .actor::<Forwarder>(edge)
                .unwrap()
                .cs()
                .len(),
        )
    }
    assert_eq!(run(true), run(false));
    // 8 entries satisfied on each of the two forwarders.
    assert_eq!(run(true).1, 16);
}

/// Swallows whatever the forwarder delivers to its app face.
struct Sink;

impl Actor for Sink {
    fn on_message(&mut self, _msg: Msg, _ctx: &mut Ctx<'_>) {}
}

/// The instant at which [`struck_forwarder`]'s forged replies arrive.
fn strike_instant() -> SimTime {
    SimTime::ZERO + MS(1)
}

/// A forwarder whose producer face answered one pending Interest with
/// `strikes` unsigned replies, all at [`strike_instant`]. An unverifiable
/// Data leaves its PIT entry in place, so every copy would still have
/// satisfied it and counts one quarantine strike against the face.
fn struck_forwarder(strikes: u64) -> (World, ActorId, FaceId) {
    let mut w = World::new(11);
    let fwd = w.forwarder("edge");
    let producer = w.sim.spawn("producer", Sink);
    let pface = attach_app(&mut w.sim, fwd, producer, &w.alloc);
    w.sim
        .actor_mut::<Forwarder>(fwd)
        .unwrap()
        .register_prefix(name!("/lab"), pface, 0);
    let consumer = w.sim.spawn("consumer", Sink);
    let cface = attach_app(&mut w.sim, fwd, consumer, &w.alloc);
    let interest = Interest::new(name!("/lab/x"))
        .with_nonce(1)
        .with_lifetime(SimDuration::from_secs(120));
    w.sim.send(fwd, Rx {
        face: cface,
        packet: Packet::Interest(interest),
    });
    for _ in 0..strikes {
        let forged = Data::new(name!("/lab/x"), &b"forged"[..]);
        w.sim.send_after(MS(1), fwd, Rx {
            face: pface,
            packet: Packet::Data(forged),
        });
    }
    w.sim.run();
    let m = w.sim.metrics_ref();
    assert_eq!(m.counter("ndn.verify_failed"), strikes);
    assert_eq!(m.counter("ndn.quarantine_strikes"), strikes);
    (w, fwd, pface)
}

/// The quarantine rule: a face is quarantined while its strikes, halved
/// every 30 s, stand at or above 3. Three strikes at one instant reach
/// the threshold exactly; two do not.
#[test]
fn three_verify_strikes_at_one_instant_quarantine_the_ingress_face() {
    let (w, fwd, pface) = struck_forwarder(2);
    let fwd = w.sim.actor::<Forwarder>(fwd).unwrap();
    assert!(!fwd.is_quarantined(pface, strike_instant()));

    let (w, fwd, pface) = struck_forwarder(3);
    let fwd = w.sim.actor::<Forwarder>(fwd).unwrap();
    assert!(fwd.is_quarantined(pface, strike_instant()));
}

/// Six strikes decay to exactly the threshold (3.0) one half-life later,
/// which still quarantines, and fall below it a second after that.
#[test]
fn verify_strikes_halve_every_thirty_seconds() {
    let (w, fwd, pface) = struck_forwarder(6);
    let fwd = w.sim.actor::<Forwarder>(fwd).unwrap();
    let at = strike_instant();
    assert!(fwd.is_quarantined(pface, at + SimDuration::from_secs(30)));
    assert!(!fwd.is_quarantined(pface, at + SimDuration::from_secs(31)));
}
