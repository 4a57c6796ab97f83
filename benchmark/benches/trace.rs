//! Outside-in tracing: the harness drives the engine's default loop itself
//! and records one span per `Sim::step()`, attributed to the layer of the
//! actor whose drain statistics advanced.
//!
//! Nothing here reaches into the product: the loop below is the body of
//! `Sim::run()` in its default mode, and the only observation points are
//! `Sim::step`, `Sim::drain_stats`, `Sim::queue_len` and
//! `Sim::foreground_queue_len`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use lidc_simcore::engine::{ActorId, Sim};

use crate::alloc::AllocCount;

/// Raw spans kept per run; everything is aggregated per layer regardless.
const RAW_SPAN_CAP: usize = 10_000;
/// Steps between re-sorts of the actor scan order (busiest first).
const RESORT_EVERY: u64 = 4096;
/// An early first sort, so short pieces are scanned in a useful order too.
const FIRST_SORT: u64 = 256;

/// A layer an actor's step time is attributed to; the name is the module
/// path of the actor's type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    NdnForwarder,
    CoreGateway,
    CoreClient,
    CorePlacement,
    K8sCluster,
    DatalakeFileserver,
    HarnessConsumer,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::NdnForwarder,
        Layer::CoreGateway,
        Layer::CoreClient,
        Layer::CorePlacement,
        Layer::K8sCluster,
        Layer::DatalakeFileserver,
        Layer::HarnessConsumer,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::NdnForwarder => "ndn.forwarder",
            Layer::CoreGateway => "core.gateway",
            Layer::CoreClient => "core.client",
            Layer::CorePlacement => "core.placement",
            Layer::K8sCluster => "k8s.cluster",
            Layer::DatalakeFileserver => "datalake.fileserver",
            Layer::HarnessConsumer => "harness.consumer",
        }
    }
}

/// Per-layer aggregate over a traced repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerAgg {
    /// Wall time inside `step()` calls that delivered to this layer.
    pub busy: Duration,
    /// `step()` calls (= handler invocations) attributed to this layer.
    pub steps: u64,
    /// Messages those calls delivered.
    pub msgs: u64,
}

/// One recorded span. `parent` is always the repetition span; spans of one
/// run share the run id written in the trace file header.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

struct Watched {
    id: ActorId,
    layer: Layer,
    batches: u64,
    messages: u64,
}

/// Step-level tracer for one repetition.
pub struct Tracer {
    watched: Vec<Watched>,
    /// Layer charged when no watched actor advanced (the world's only
    /// actors without a public handle).
    fallback: Layer,
    epoch: Instant,
    raw: Vec<Span>,
    agg: [LayerAgg; Layer::ALL.len()],
    steps: u64,
    /// `step()` calls after which no watched actor had advanced.
    pub fallback_steps: u64,
    /// Largest `Sim::queue_len()` seen after a step.
    pub queue_len_peak: usize,
}

impl Tracer {
    pub fn new(actors: &[(ActorId, Layer)], fallback: Layer) -> Self {
        Tracer {
            watched: actors
                .iter()
                .map(|&(id, layer)| Watched {
                    id,
                    layer,
                    batches: 0,
                    messages: 0,
                })
                .collect(),
            fallback,
            epoch: Instant::now(),
            raw: Vec::with_capacity(RAW_SPAN_CAP),
            agg: [LayerAgg::default(); Layer::ALL.len()],
            steps: 0,
            fallback_steps: 0,
            queue_len_peak: 0,
        }
    }

    /// Bring the watch list in line with actors that already ran (set-up
    /// drains the deploy-time messages before the traced part starts).
    fn resync(&mut self, sim: &Sim) {
        for w in &mut self.watched {
            let d = sim.drain_stats(w.id);
            w.batches = d.batches;
            w.messages = d.messages;
        }
    }

    /// The default engine loop (`Sim::run` without horizon mode), one span
    /// per step.
    pub fn run(&mut self, sim: &mut Sim) {
        self.resync(sim);
        loop {
            if sim.foreground_queue_len() == 0 {
                break;
            }
            let start = Instant::now();
            let more = sim.step();
            let end = Instant::now();
            if !more {
                break;
            }
            self.attribute(sim, start, end);
        }
    }

    fn attribute(&mut self, sim: &Sim, start: Instant, end: Instant) {
        let hit = self
            .watched
            .iter()
            .position(|w| sim.drain_stats(w.id).batches != w.batches);
        let (layer, msgs) = match hit {
            Some(i) => {
                let w = &mut self.watched[i];
                let d = sim.drain_stats(w.id);
                let msgs = d.messages - w.messages;
                w.batches = d.batches;
                w.messages = d.messages;
                (w.layer, msgs)
            }
            None => {
                self.fallback_steps += 1;
                (self.fallback, 1)
            }
        };
        let slot = &mut self.agg[layer as usize];
        slot.busy += end - start;
        slot.steps += 1;
        slot.msgs += msgs;
        if self.raw.len() < RAW_SPAN_CAP {
            self.raw.push(Span {
                layer,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
        self.queue_len_peak = self.queue_len_peak.max(sim.queue_len());
        self.steps += 1;
        if self.steps.is_multiple_of(RESORT_EVERY) || self.steps == FIRST_SORT {
            self.watched.sort_by_key(|w| std::cmp::Reverse(w.batches));
        }
    }

    pub fn layer(&self, layer: Layer) -> LayerAgg {
        self.agg[layer as usize]
    }

    /// Total wall time inside attributed `step()` spans.
    pub fn span_total(&self) -> Duration {
        self.agg.iter().map(|a| a.busy).sum()
    }

    /// The trace file: header, per-layer aggregates, then the first
    /// [`RAW_SPAN_CAP`] raw spans (`parent` 0 = the repetition span).
    pub fn to_json(&self, run_id: &str, workload: &str, rep_wall: Duration) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"run_id\":\"{run_id}\",\"workload\":\"{workload}\",\
             \"repetition_span\":{{\"id\":0,\"wall_ns\":{}}},\"steps\":{},\"layers\":{{",
            rep_wall.as_nanos(),
            self.steps
        );
        for (i, layer) in Layer::ALL.iter().enumerate() {
            let a = self.layer(*layer);
            let _ = write!(
                s,
                "{}\"{}\":{{\"busy_ns\":{},\"steps\":{},\"msgs\":{}}}",
                if i == 0 { "" } else { "," },
                layer.name(),
                a.busy.as_nanos(),
                a.steps,
                a.msgs
            );
        }
        s.push_str("},\"spans\":[");
        for (i, span) in self.raw.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"id\":{},\"parent\":0,\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                i + 1,
                span.layer.name(),
                span.start_ns,
                span.end_ns
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// Runs the measured pieces of a repetition and accumulates their wall time
/// and allocations. Untraced, a piece is one `Sim::run()`; traced, it is the
/// same loop stepped by the [`Tracer`]. Work a workload does between pieces
/// (byte-for-byte output checks) is outside the measurement.
pub struct Runner {
    pub wall: Duration,
    pub alloc: AllocCount,
    pub tracer: Option<Tracer>,
}

impl Runner {
    pub fn timed() -> Self {
        Runner {
            wall: Duration::ZERO,
            alloc: AllocCount::default(),
            tracer: None,
        }
    }

    pub fn traced(tracer: Tracer) -> Self {
        Runner {
            wall: Duration::ZERO,
            alloc: AllocCount::default(),
            tracer: Some(tracer),
        }
    }

    /// Measure one piece driven through the engine.
    pub fn drive(&mut self, sim: &mut Sim) {
        let mut tracer = self.tracer.take();
        self.measure(|| match tracer.as_mut() {
            Some(t) => t.run(sim),
            None => {
                sim.run();
            }
        });
        self.tracer = tracer;
    }

    /// Measure one piece that is a plain call into the product.
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let a0 = AllocCount::now();
        let t0 = Instant::now();
        let out = f();
        self.wall += t0.elapsed();
        self.alloc = self.alloc.plus(AllocCount::now().since(a0));
        out
    }
}
