//! The benchmark's own data consumer: an actor that pipelines segment
//! Interests over real forwarders and records per-segment simulated
//! latency. Two ways to fetch:
//!
//! - [`StartFetch`] drives the product's [`SegmentFetch`] state machine
//!   (windowed pipelining + whole-object reassembly), the path `lidc fetch`
//!   takes; `segment_cold` uses it.
//! - [`StartStream`] drives [`Consumer`] directly and keeps each payload as
//!   it arrived (a reference-counted handle, no copy), so the consumer
//!   costs little and the forwarder's read path is what the repetition
//!   measures; `segment_cached` uses it.

use bytes::Bytes;

use lidc_datalake::segment::{FetchProgress, SegmentFetch};
use lidc_ndn::app::{Consumer, ConsumerEvent, RetxTimer};
use lidc_ndn::face::FaceIdAlloc;
use lidc_ndn::forwarder::AppRx;
use lidc_ndn::name::{Name, NameComponent, TT_SEGMENT};
use lidc_ndn::net::attach_app;
use lidc_ndn::packet::Interest;
use lidc_simcore::engine::{Actor, ActorId, Ctx, Msg, Sim};
use lidc_simcore::time::SimTime;

/// Interest retransmissions per segment. No workload loses packets, so a
/// retransmission would show up as a latency outlier and a failed check.
const RETRIES: u32 = 3;

/// Fetch and reassemble `base` with a pipeline of `window` Interests.
pub struct StartFetch {
    pub base: Name,
    pub window: usize,
}

/// Fetch segments `0..segments` of `base` with a pipeline of `window`
/// Interests, keeping every payload as it arrived.
pub struct StartStream {
    pub base: Name,
    pub segments: u64,
    pub window: usize,
}

enum Mode {
    Reassemble(Box<SegmentFetch>),
    Stream { segments: u64, next: u64 },
}

/// A segment-streaming consumer.
pub struct BenchConsumer {
    consumer: Option<Consumer>,
    base: Name,
    mode: Option<Mode>,
    /// Instant each segment's Interest was first expressed (index = segment).
    asked_at: Vec<Option<SimTime>>,
    /// Ask → Data simulated latency per delivered segment, in arrival order.
    pub latencies_s: Vec<f64>,
    /// Payload bytes of each delivered segment, in arrival order.
    pub payload_bytes: Vec<usize>,
    /// [`StartFetch`]: the reassembled object once every segment arrived.
    pub done: Option<Bytes>,
    /// [`StartStream`]: each segment's payload (index = segment).
    pub received: Vec<Option<Bytes>>,
    /// Interests that exhausted their retransmissions or were NACKed.
    pub failed: u64,
}

impl BenchConsumer {
    /// Spawn a consumer and attach it to forwarder `fwd`.
    pub fn deploy(sim: &mut Sim, fwd: ActorId, alloc: &FaceIdAlloc, label: String) -> ActorId {
        let id = sim.spawn(
            label,
            BenchConsumer {
                consumer: None,
                base: Name::root(),
                mode: None,
                asked_at: Vec::new(),
                latencies_s: Vec::new(),
                payload_bytes: Vec::new(),
                done: None,
                received: Vec::new(),
                failed: 0,
            },
        );
        let face = attach_app(sim, fwd, id, alloc);
        sim.actor_mut::<BenchConsumer>(id)
            .expect("consumer just spawned")
            .consumer = Some(Consumer::new(fwd, face));
        id
    }

    /// Which segment of the object being fetched `name` refers to.
    fn segment_of(&self, name: &Name) -> Option<usize> {
        if !self.base.is_prefix_of(name) || name.len() != self.base.len() + 1 {
            return None;
        }
        let comp = name.get(self.base.len())?;
        (comp.typ() == TT_SEGMENT)
            .then(|| comp.as_number())
            .flatten()
            .map(|n| n as usize)
    }

    fn express(&mut self, interest: Interest, ctx: &mut Ctx<'_>) {
        if let Some(seg) = self.segment_of(&interest.name) {
            if self.asked_at.len() <= seg {
                self.asked_at.resize(seg + 1, None);
            }
            self.asked_at[seg].get_or_insert(ctx.now());
        }
        self.consumer
            .as_mut()
            .expect("deployed")
            .express(ctx, interest, RETRIES);
    }

    /// Express the next unrequested segment of a stream, if any is left.
    fn express_next(&mut self, ctx: &mut Ctx<'_>) {
        let Some(Mode::Stream { segments, next }) = &mut self.mode else {
            return;
        };
        if *next < *segments {
            let name = self.base.clone().child(NameComponent::segment(*next));
            *next += 1;
            self.express(Interest::new(name), ctx);
        }
    }
}

impl Actor for BenchConsumer {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<StartFetch>() {
            Ok(start) => {
                self.base = start.base.clone();
                let mut fetch = SegmentFetch::new(start.base, start.window);
                let first = fetch.start();
                self.mode = Some(Mode::Reassemble(Box::new(fetch)));
                for interest in first {
                    self.express(interest, ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<StartStream>() {
            Ok(start) => {
                self.base = start.base;
                self.received = vec![None; start.segments as usize];
                self.mode = Some(Mode::Stream {
                    segments: start.segments,
                    next: 0,
                });
                for _ in 0..start.window {
                    self.express_next(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<AppRx>() {
            Ok(rx) => {
                match self.consumer.as_mut().expect("deployed").on_app_rx(&rx) {
                    Some(ConsumerEvent::Data(data)) => {
                        let Some(seg) = self.segment_of(&data.name) else {
                            return;
                        };
                        if let Some(Some(asked)) = self.asked_at.get(seg) {
                            self.latencies_s.push(ctx.now().since(*asked).as_secs_f64());
                            self.payload_bytes.push(data.content.len());
                        }
                        match &mut self.mode {
                            Some(Mode::Reassemble(fetch)) => match fetch.on_data(&data) {
                                FetchProgress::Done(bytes) => self.done = Some(bytes),
                                FetchProgress::Continue(next) => {
                                    for interest in next {
                                        self.express(interest, ctx);
                                    }
                                }
                            },
                            Some(Mode::Stream { .. }) => {
                                if let Some(slot) = self.received.get_mut(seg) {
                                    *slot = Some(data.content);
                                }
                                self.express_next(ctx);
                            }
                            None => {}
                        }
                    }
                    Some(ConsumerEvent::Nack(..)) | Some(ConsumerEvent::Timeout(_)) => {
                        self.failed += 1;
                    }
                    None => {}
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(timer) = msg.downcast::<RetxTimer>() {
            if let Some(ConsumerEvent::Timeout(_)) = self
                .consumer
                .as_mut()
                .expect("deployed")
                .on_timer(ctx, &timer)
            {
                self.failed += 1;
            }
        }
    }
}
