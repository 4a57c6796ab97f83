//! The discrete-event engine: actors, messages, and the scheduler.
//!
//! Design notes:
//!
//! * **Determinism.** One serial loop pops events in canonical-key order
//!   `(time, sent_at, source, seq)`: delivery time, the instant the sender
//!   recorded the send, the sender's actor id (`u32::MAX` for harness
//!   sends), and a per-sender monotone counter. Two events for the same
//!   instant therefore fire in a fixed order that depends only on who sent
//!   them and when. The golden fingerprints under `tests/golden/` pin this
//!   order, so it stays exactly as it is (see docs/DETERMINISM.md).
//! * **Per-actor RNG streams.** [`Ctx::rng`] draws from a stream derived
//!   once per actor from the master seed, so an actor's draws depend only
//!   on its own history. Harness-level draws through [`Sim::rng`] use the
//!   master stream.
//! * **Messages are `Box<dyn Any + Send>`.** Each subsystem (NDN, K8s, LIDC)
//!   defines its own message structs and downcasts on receipt. This keeps
//!   `lidc-simcore` free of domain types and lets independently developed
//!   crates share one event loop.
//! * **Effects, not re-entrancy.** While an actor handles a message it
//!   records *effects* (sends, spawns, kills) in its [`Ctx`]; the engine
//!   applies them after the handler returns. This sidesteps aliasing issues
//!   without `RefCell` gymnastics and keeps handler execution atomic in
//!   virtual time.
//! * **Batched dispatch.** A maximal run of *consecutive* (in key order)
//!   events addressed to the same actor at the same instant is delivered as
//!   one [`Actor::on_batch`] call instead of one handler invocation per
//!   message. The default `on_batch` loops [`Actor::on_message`], so
//!   untouched actors behave exactly as before; actors on burst-heavy paths
//!   (the LIDC gateway, the NDN forwarder) override it to amortize
//!   per-delivery work. The contract:
//!
//!   * messages within a batch are in their original FIFO (key) order;
//!   * only *consecutive* same-destination events coalesce — an interleaved
//!     event for another actor ends the batch, so cross-actor delivery
//!     order is exactly what sequential dispatch would produce;
//!   * effects recorded while handling a batch are applied after the whole
//!     batch, which yields the same queue contents as per-message dispatch
//!     (same-instant effects always sort after already-queued events);
//!   * batching can be disabled with [`Sim::set_batching`] (equivalence
//!     tests run both modes and compare end states).
//! * **Background timers.** [`Ctx::schedule_self_background`] events fire in
//!   order like any other, but they alone do not keep [`Sim::run`] alive.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::metrics::Metrics;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// A type-erased message. Use [`Msg::downcast`] (inherited from `Box<dyn
/// Any>`) to recover the concrete type.
pub type Msg = Box<dyn Any + Send>;

/// Identifies an actor registered with a [`Sim`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(u32);

impl ActorId {
    /// Raw index (useful for diagnostics and per-actor RNG derivation).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// A simulated component: it receives messages and reacts by recording
/// effects on the [`Ctx`].
pub trait Actor: Send + 'static {
    /// Handle one message delivered at the current virtual time.
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>);

    /// Handle a coalesced burst of messages, all addressed to this actor at
    /// the same virtual instant, in FIFO order (see the module docs for the
    /// full contract). Implementations must consume every message in
    /// `msgs`. The default drains the buffer through [`Actor::on_message`],
    /// preserving per-message behavior for actors that don't opt in.
    fn on_batch(&mut self, msgs: &mut Vec<Msg>, ctx: &mut Ctx<'_>) {
        for msg in msgs.drain(..) {
            self.on_message(msg, ctx);
        }
    }

    /// Called once when the actor is registered, before any message.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
}

/// Object-safe shim adding downcasting on top of [`Actor`]; blanket-implemented.
trait AnyActor: Actor {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Actor> AnyActor for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The `source` stamp for events enqueued from outside any handler
/// ([`Sim::send`]/[`Sim::send_after`]). Sorts after every actor id, so a
/// harness send at instant `t` lands after same-instant actor sends — the
/// order the harness observes anyway (it only runs between `run` calls).
const HARNESS_SOURCE: u32 = u32::MAX;

/// The canonical event key: `(time, sent_at, source, seq)` (see the module
/// docs).
type EventKey = (SimTime, SimTime, u32, u64);

enum Effect {
    Send {
        at: SimTime,
        to: ActorId,
        msg: Msg,
        background: bool,
        /// Instant the sender recorded the send (its `now`).
        sent_at: SimTime,
        /// Sender actor id (or [`HARNESS_SOURCE`]).
        source: u32,
        /// Per-sender monotone counter.
        seq: u64,
    },
    Spawn {
        id: ActorId,
        label: String,
        actor: Box<dyn AnyActor>,
    },
    Kill {
        id: ActorId,
    },
    Halt,
}

/// The handler-side view of the engine: scheduling, randomness, metrics.
pub struct Ctx<'a> {
    self_id: ActorId,
    now: SimTime,
    rng: &'a mut DetRng,
    metrics: &'a mut Metrics,
    next_actor_id: &'a mut u32,
    /// This actor's per-sender send counter (part of the canonical event
    /// key; lives in the actor's slot).
    send_seq: &'a mut u64,
    effects: &'a mut Vec<Effect>,
}

impl Ctx<'_> {
    /// The id of the actor currently handling a message.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's deterministic RNG stream, derived once from the master
    /// seed. Draws depend only on the actor's own history, never on what
    /// other actors ran first.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Record a send effect stamped with the canonical event key (see the
    /// module docs): `sent_at` = now, `source` = self, `seq` = this actor's
    /// next send counter.
    fn push_send(&mut self, at: SimTime, to: ActorId, msg: Msg, background: bool) {
        let seq = *self.send_seq;
        *self.send_seq += 1;
        self.effects.push(Effect::Send {
            at,
            to,
            msg,
            background,
            sent_at: self.now,
            source: self.self_id.0,
            seq,
        });
    }

    /// Deliver `msg` to `to` at the current instant (after the current
    /// handler completes).
    pub fn send<M: Send + 'static>(&mut self, to: ActorId, msg: M) {
        self.send_after(SimDuration::ZERO, to, msg);
    }

    /// Deliver `msg` to `to` after `delay`.
    pub fn send_after<M: Send + 'static>(&mut self, delay: SimDuration, to: ActorId, msg: M) {
        self.push_send(self.now + delay, to, Box::new(msg), false);
    }

    /// Schedule a message to self after `delay` (a timer).
    pub fn schedule_self<M: Send + 'static>(&mut self, delay: SimDuration, msg: M) {
        self.send_after(delay, self.self_id, msg);
    }

    /// Schedule a *background* (daemon) timer to self: the event fires in
    /// order like any other, but pending background events alone do not keep
    /// [`Sim::run`] alive. Use for unbounded periodic work (load
    /// advertisement, cache refresh) so simulations terminate when all
    /// *foreground* work — requests, jobs, replies — has drained.
    pub fn schedule_self_background<M: Send + 'static>(&mut self, delay: SimDuration, msg: M) {
        self.push_send(self.now + delay, self.self_id, Box::new(msg), true);
    }

    /// Register a new actor; it starts receiving messages immediately.
    /// Returns its id synchronously so the spawner can address it.
    pub fn spawn<A: Actor>(&mut self, label: impl Into<String>, actor: A) -> ActorId {
        let id = ActorId(*self.next_actor_id);
        *self.next_actor_id += 1;
        self.effects.push(Effect::Spawn {
            id,
            label: label.into(),
            actor: Box::new(actor),
        });
        id
    }

    /// Remove an actor. Pending messages to it are silently dropped (the
    /// `sim.dropped_messages` counter records how many).
    pub fn kill(&mut self, id: ActorId) {
        self.effects.push(Effect::Kill { id });
    }

    /// Stop the simulation after the current handler completes.
    pub fn halt(&mut self) {
        self.effects.push(Effect::Halt);
    }
}

struct Scheduled {
    time: SimTime,
    /// Instant the sender recorded the send (≤ `time`).
    sent_at: SimTime,
    /// Sender actor id, or [`HARNESS_SOURCE`].
    source: u32,
    /// Per-sender monotone counter.
    seq: u64,
    to: ActorId,
    msg: Msg,
    background: bool,
}

impl Scheduled {
    /// The canonical dispatch key (total order: `(source, seq)` pairs are
    /// unique).
    fn key(&self) -> EventKey {
        (self.time, self.sent_at, self.source, self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Per-actor message-drain statistics (batched-dispatch observability).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Messages delivered to this actor.
    pub messages: u64,
    /// Handler invocations (each serving one batch of ≥ 1 messages).
    pub batches: u64,
    /// Largest single batch delivered.
    pub max_batch: u64,
}

impl DrainStats {
    /// Mean messages per handler invocation (0 when never delivered).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.messages as f64 / self.batches as f64
        }
    }
}

struct Slot {
    actor: Option<Box<dyn AnyActor>>,
    label: String,
    drain: DrainStats,
    /// This actor's private RNG stream (see [`Ctx::rng`]).
    rng: DetRng,
    /// Per-sender send counter (canonical event key component).
    send_seq: u64,
}

/// The discrete-event simulator.
pub struct Sim {
    now: SimTime,
    /// Per-sender send counter for harness-level sends (see
    /// [`HARNESS_SOURCE`]).
    harness_seq: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// Queued events that are *not* background timers; [`Sim::run`] stops
    /// when this reaches zero even if daemon timers remain queued.
    foreground_queued: usize,
    slots: Vec<Slot>,
    next_actor_id: u32,
    rng: DetRng,
    metrics: Metrics,
    halted: bool,
    events_processed: u64,
    /// Same-instant coalescing switch (see module docs); on by default.
    batching: bool,
    /// Reused delivery buffer for batched dispatch.
    batch_buf: Vec<Msg>,
    /// Root for deriving per-actor RNG streams (never drawn from directly).
    actor_rng_root: DetRng,
}

impl Sim {
    /// Create an engine seeded with `seed` (see docs/DETERMINISM.md).
    pub fn new(seed: u64) -> Self {
        let rng = DetRng::new(seed);
        let actor_rng_root = rng.derive_str("actor-streams");
        Sim {
            now: SimTime::ZERO,
            harness_seq: 0,
            queue: BinaryHeap::new(),
            foreground_queued: 0,
            slots: Vec::new(),
            next_actor_id: 0,
            rng,
            metrics: Metrics::new(),
            halted: false,
            events_processed: 0,
            batching: true,
            batch_buf: Vec::new(),
            actor_rng_root,
        }
    }

    /// Enable or disable same-instant batch coalescing (on by default).
    /// With batching off every message is delivered through
    /// [`Actor::on_message`] individually — the pre-batching behavior,
    /// kept for batch/sequential equivalence testing.
    pub fn set_batching(&mut self, on: bool) {
        self.batching = on;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The engine RNG (for harness-level draws such as workload generation).
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// The metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Read-only metrics access.
    pub fn metrics_ref(&self) -> &Metrics {
        &self.metrics
    }

    /// Register a top-level actor and invoke its `on_start`.
    pub fn spawn<A: Actor>(&mut self, label: impl Into<String>, actor: A) -> ActorId {
        let id = ActorId(self.next_actor_id);
        self.next_actor_id += 1;
        self.install(id, label.into(), Box::new(actor));
        id
    }

    /// Slots are indexed by actor id; ids are allocated eagerly (so handlers
    /// can address children synchronously) but installed lazily, possibly out
    /// of order when spawns nest. Grow the table on demand to keep the
    /// id→index invariant regardless of installation order.
    fn ensure_slot(&mut self, idx: usize) {
        while self.slots.len() <= idx {
            let id = self.slots.len() as u64;
            self.slots.push(Slot {
                actor: None,
                label: String::new(),
                drain: DrainStats::default(),
                rng: self.actor_rng_root.derive(id),
                send_seq: 0,
            });
        }
    }

    fn install(&mut self, id: ActorId, label: String, actor: Box<dyn AnyActor>) {
        let idx = id.0 as usize;
        self.ensure_slot(idx);
        debug_assert!(self.slots[idx].actor.is_none(), "actor id reused");
        self.slots[idx] = Slot {
            actor: Some(actor),
            label,
            drain: DrainStats::default(),
            rng: self.actor_rng_root.derive(u64::from(id.0)),
            send_seq: 0,
        };
        self.run_start_hook(id);
    }

    fn run_start_hook(&mut self, id: ActorId) {
        let idx = id.0 as usize;
        let Some(mut actor) = self.slots[idx].actor.take() else {
            return;
        };
        let mut rng = self.slots[idx].rng.clone();
        let mut send_seq = self.slots[idx].send_seq;
        let mut effects = Vec::new();
        {
            let mut ctx = Ctx {
                self_id: id,
                now: self.now,
                rng: &mut rng,
                metrics: &mut self.metrics,
                next_actor_id: &mut self.next_actor_id,
                send_seq: &mut send_seq,
                effects: &mut effects,
            };
            actor.on_start(&mut ctx);
        }
        self.slots[idx].rng = rng;
        self.slots[idx].send_seq = send_seq;
        if self.slots[idx].actor.is_none() {
            self.slots[idx].actor = Some(actor);
        }
        self.apply_effects(effects);
    }

    /// The human label an actor was registered under.
    pub fn label(&self, id: ActorId) -> &str {
        &self.slots[id.0 as usize].label
    }

    /// Whether an actor is still alive.
    pub fn is_alive(&self, id: ActorId) -> bool {
        self.slots
            .get(id.0 as usize)
            .map(|s| s.actor.is_some())
            .unwrap_or(false)
    }

    /// Immutable access to a registered actor's concrete state.
    pub fn actor<T: Actor>(&self, id: ActorId) -> Option<&T> {
        self.slots
            .get(id.0 as usize)?
            .actor
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable access to a registered actor's concrete state (harness use).
    pub fn actor_mut<T: Actor>(&mut self, id: ActorId) -> Option<&mut T> {
        self.slots
            .get_mut(id.0 as usize)?
            .actor
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Remove an actor from outside a handler.
    pub fn kill(&mut self, id: ActorId) {
        if let Some(slot) = self.slots.get_mut(id.0 as usize) {
            slot.actor = None;
        }
    }

    /// Enqueue a message for delivery at the current instant.
    pub fn send<M: Send + 'static>(&mut self, to: ActorId, msg: M) {
        self.schedule(self.now, to, Box::new(msg), false);
    }

    /// Enqueue a message for delivery after `delay`.
    pub fn send_after<M: Send + 'static>(&mut self, delay: SimDuration, to: ActorId, msg: M) {
        self.schedule(self.now + delay, to, Box::new(msg), false);
    }

    /// Enqueue a harness-level event, stamped with [`HARNESS_SOURCE`].
    fn schedule(&mut self, at: SimTime, to: ActorId, msg: Msg, background: bool) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.harness_seq;
        self.harness_seq += 1;
        if !background {
            self.foreground_queued += 1;
        }
        self.queue.push(Reverse(Scheduled {
            time: at,
            sent_at: self.now,
            source: HARNESS_SOURCE,
            seq,
            to,
            msg,
            background,
        }));
    }

    fn apply_effects(&mut self, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send {
                    at,
                    to,
                    msg,
                    background,
                    sent_at,
                    source,
                    seq,
                } => {
                    debug_assert!(at >= self.now, "scheduling into the past");
                    if !background {
                        self.foreground_queued += 1;
                    }
                    self.queue.push(Reverse(Scheduled {
                        time: at,
                        sent_at,
                        source,
                        seq,
                        to,
                        msg,
                        background,
                    }));
                }
                Effect::Spawn { id, label, actor } => self.install(id, label, actor),
                Effect::Kill { id } => self.kill(id),
                Effect::Halt => self.halted = true,
            }
        }
    }

    /// Dispatch the next event — plus, when batching is enabled, every
    /// consecutively-queued event for the same actor at the same instant
    /// (delivered as one [`Actor::on_batch`] call). Returns `false` when the
    /// queue is empty or the simulation has been halted.
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event from the past");
        if !ev.background {
            self.foreground_queued -= 1;
        }
        self.now = ev.time;
        let to = ev.to;
        let mut batch = std::mem::take(&mut self.batch_buf);
        batch.clear();
        batch.push(ev.msg);
        if self.batching {
            // Pop the maximal run of consecutive events for `to` at this
            // instant; stopping at the first event for another actor
            // preserves cross-actor delivery order.
            while let Some(Reverse(head)) = self.queue.peek() {
                if head.time != ev.time || head.to != to {
                    break;
                }
                let Reverse(next) = self.queue.pop().expect("peeked");
                if !next.background {
                    self.foreground_queued -= 1;
                }
                batch.push(next.msg);
            }
        }
        self.deliver_batch(to, batch);
        true
    }

    /// Deliver one coalesced batch to `to` and apply the handler's effects.
    fn deliver_batch(&mut self, to: ActorId, mut batch: Vec<Msg>) {
        self.events_processed += batch.len() as u64;
        let idx = to.0 as usize;
        let taken = self.slots.get_mut(idx).and_then(|s| s.actor.take());
        let Some(mut actor) = taken else {
            self.metrics.incr("sim.dropped_messages", batch.len() as u64);
            batch.clear();
            self.batch_buf = batch;
            return;
        };
        {
            let slot = &mut self.slots[idx];
            slot.drain.messages += batch.len() as u64;
            slot.drain.batches += 1;
            slot.drain.max_batch = slot.drain.max_batch.max(batch.len() as u64);
        }
        if batch.len() > 1 {
            self.metrics.incr("sim.batch.bursts", 1);
            self.metrics
                .incr("sim.batch.coalesced_messages", batch.len() as u64 - 1);
            self.metrics.set_max("sim.batch.max_size", batch.len() as u64);
        }
        let mut rng = self.slots[idx].rng.clone();
        let mut send_seq = self.slots[idx].send_seq;
        let mut effects = Vec::new();
        {
            let mut ctx = Ctx {
                self_id: to,
                now: self.now,
                rng: &mut rng,
                metrics: &mut self.metrics,
                next_actor_id: &mut self.next_actor_id,
                send_seq: &mut send_seq,
                effects: &mut effects,
            };
            if batch.len() == 1 {
                let msg = batch.pop().expect("one message");
                actor.on_message(msg, &mut ctx);
            } else {
                actor.on_batch(&mut batch, &mut ctx);
                debug_assert!(batch.is_empty(), "on_batch must drain its input");
            }
        }
        batch.clear();
        self.batch_buf = batch;
        self.slots[idx].rng = rng;
        self.slots[idx].send_seq = send_seq;
        // The actor may have killed itself via ctx.kill(self_id); only put it
        // back if nothing reclaimed the slot meanwhile.
        if self.slots[idx].actor.is_none() {
            self.slots[idx].actor = Some(actor);
        }
        // A self-kill effect is applied after reinstatement, so it still wins.
        self.apply_effects(effects);
    }

    /// Run until all *foreground* work drains or the simulation halts.
    /// Background (daemon) timers — see [`Ctx::schedule_self_background`] —
    /// are processed in order while foreground events remain, but pending
    /// background timers alone do not keep the run alive. Returns the number
    /// of events processed by this call.
    pub fn run(&mut self) -> u64 {
        let start = self.events_processed;
        while self.foreground_queued > 0 && self.step() {}
        self.events_processed - start
    }

    /// Run until virtual time would exceed `deadline` (events at exactly
    /// `deadline` are processed). Later events stay queued.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start = self.events_processed;
        loop {
            if self.halted {
                break;
            }
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.time <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < deadline && !self.halted {
            self.now = deadline;
        }
        self.events_processed - start
    }

    /// Run for `dur` of virtual time from now.
    pub fn run_for(&mut self, dur: SimDuration) -> u64 {
        let deadline = self.now + dur;
        self.run_until(deadline)
    }

    /// Per-actor drain statistics (messages, handler invocations, largest
    /// batch). Zeroes for ids never delivered to.
    pub fn drain_stats(&self, id: ActorId) -> DrainStats {
        self.slots
            .get(id.0 as usize)
            .map(|s| s.drain)
            .unwrap_or_default()
    }

    /// Per-actor drain stats as a report table (busiest actors first),
    /// for experiment artifacts and diagnostics.
    pub fn dispatch_report(&self) -> crate::report::Table {
        let mut table = crate::report::Table::new(
            "Dispatch drain stats",
            &["actor", "messages", "batches", "mean batch", "max batch"],
        );
        let mut rows: Vec<(usize, &Slot)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.drain.batches > 0)
            .collect();
        rows.sort_by(|a, b| b.1.drain.messages.cmp(&a.1.drain.messages).then(a.0.cmp(&b.0)));
        for (idx, slot) in rows {
            table.push_row(vec![
                format!("{} (#{idx})", slot.label),
                slot.drain.messages.to_string(),
                slot.drain.batches.to_string(),
                format!("{:.2}", slot.drain.mean_batch()),
                slot.drain.max_batch.to_string(),
            ]);
        }
        table
    }

    /// Number of queued (undelivered) events, background timers included.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of queued *foreground* (non-daemon) events.
    pub fn foreground_queue_len(&self) -> usize {
        self.foreground_queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        count: u64,
        echo_to: Option<ActorId>,
    }
    struct Bump(u64);

    impl Actor for Counter {
        fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            if let Ok(b) = msg.downcast::<Bump>() {
                self.count += b.0;
                if let Some(to) = self.echo_to {
                    ctx.send(to, Bump(b.0));
                }
            }
        }
    }

    #[test]
    fn delivers_in_time_order() {
        struct Recorder {
            seen: Vec<u64>,
        }
        struct Tag(u64);
        impl Actor for Recorder {
            fn on_message(&mut self, msg: Msg, _ctx: &mut Ctx<'_>) {
                self.seen.push(msg.downcast::<Tag>().unwrap().0);
            }
        }
        let mut sim = Sim::new(0);
        let r = sim.spawn("rec", Recorder { seen: vec![] });
        sim.send_after(SimDuration::from_secs(3), r, Tag(3));
        sim.send_after(SimDuration::from_secs(1), r, Tag(1));
        sim.send_after(SimDuration::from_secs(2), r, Tag(2));
        sim.run();
        assert_eq!(sim.actor::<Recorder>(r).unwrap().seen, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(3));
    }

    #[test]
    fn same_instant_is_fifo() {
        struct Recorder {
            seen: Vec<u64>,
        }
        struct Tag(u64);
        impl Actor for Recorder {
            fn on_message(&mut self, msg: Msg, _ctx: &mut Ctx<'_>) {
                self.seen.push(msg.downcast::<Tag>().unwrap().0);
            }
        }
        let mut sim = Sim::new(0);
        let r = sim.spawn("rec", Recorder { seen: vec![] });
        for i in 0..10 {
            sim.send(r, Tag(i));
        }
        sim.run();
        assert_eq!(
            sim.actor::<Recorder>(r).unwrap().seen,
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ping_pong_advances_time() {
        let mut sim = Sim::new(0);
        let a = sim.spawn(
            "a",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        let b = sim.spawn(
            "b",
            Counter {
                count: 0,
                echo_to: Some(a),
            },
        );
        sim.send(b, Bump(5));
        sim.run();
        assert_eq!(sim.actor::<Counter>(a).unwrap().count, 5);
        assert_eq!(sim.actor::<Counter>(b).unwrap().count, 5);
    }

    #[test]
    fn messages_to_dead_actors_are_counted() {
        let mut sim = Sim::new(0);
        let a = sim.spawn(
            "a",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        sim.send_after(SimDuration::from_secs(1), a, Bump(1));
        sim.kill(a);
        assert!(!sim.is_alive(a));
        sim.run();
        assert_eq!(sim.metrics_ref().counter("sim.dropped_messages"), 1);
    }

    #[test]
    fn spawn_from_handler_and_message_new_actor() {
        struct Spawner {
            child: Option<ActorId>,
        }
        struct Go;
        impl Actor for Spawner {
            fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
                if msg.downcast::<Go>().is_ok() {
                    let child = ctx.spawn(
                        "child",
                        Counter {
                            count: 0,
                            echo_to: None,
                        },
                    );
                    self.child = Some(child);
                    ctx.send(child, Bump(7));
                }
            }
        }
        let mut sim = Sim::new(0);
        let s = sim.spawn("spawner", Spawner { child: None });
        sim.send(s, Go);
        sim.run();
        let child = sim.actor::<Spawner>(s).unwrap().child.unwrap();
        assert_eq!(sim.actor::<Counter>(child).unwrap().count, 7);
    }

    #[test]
    fn on_start_runs_and_can_schedule() {
        struct Starter {
            started: bool,
            fired: bool,
        }
        struct Timer;
        impl Actor for Starter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.started = true;
                ctx.schedule_self(SimDuration::from_millis(10), Timer);
            }
            fn on_message(&mut self, msg: Msg, _ctx: &mut Ctx<'_>) {
                if msg.downcast::<Timer>().is_ok() {
                    self.fired = true;
                }
            }
        }
        let mut sim = Sim::new(0);
        let s = sim.spawn(
            "starter",
            Starter {
                started: false,
                fired: false,
            },
        );
        assert!(sim.actor::<Starter>(s).unwrap().started);
        sim.run();
        assert!(sim.actor::<Starter>(s).unwrap().fired);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(10));
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Sim::new(0);
        let a = sim.spawn(
            "a",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        sim.send_after(SimDuration::from_secs(1), a, Bump(1));
        sim.send_after(SimDuration::from_secs(10), a, Bump(1));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(sim.actor::<Counter>(a).unwrap().count, 1);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(sim.queue_len(), 1);
        sim.run();
        assert_eq!(sim.actor::<Counter>(a).unwrap().count, 2);
    }

    #[test]
    fn self_kill_takes_effect() {
        struct Quitter {
            handled: u32,
        }
        struct Die;
        impl Actor for Quitter {
            fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
                if msg.downcast::<Die>().is_ok() {
                    self.handled += 1;
                    ctx.kill(ctx.self_id());
                }
            }
        }
        let mut sim = Sim::new(0);
        let q = sim.spawn("quitter", Quitter { handled: 0 });
        sim.send(q, Die);
        sim.send_after(SimDuration::from_secs(1), q, Die);
        sim.run();
        assert!(!sim.is_alive(q));
        assert_eq!(sim.metrics_ref().counter("sim.dropped_messages"), 1);
    }

    #[test]
    fn halt_stops_the_world() {
        struct Halter;
        struct Now;
        impl Actor for Halter {
            fn on_message(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
                ctx.halt();
            }
        }
        let mut sim = Sim::new(0);
        let h = sim.spawn("halter", Halter);
        let c = sim.spawn(
            "c",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        sim.send(h, Now);
        sim.send_after(SimDuration::from_secs(1), c, Bump(1));
        sim.run();
        assert_eq!(sim.actor::<Counter>(c).unwrap().count, 0, "halt preempted");
    }

    #[test]
    fn background_timers_do_not_keep_run_alive() {
        struct Beacon {
            ticks: u64,
        }
        struct Tick;
        impl Actor for Beacon {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule_self_background(SimDuration::from_secs(5), Tick);
            }
            fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
                if msg.downcast::<Tick>().is_ok() {
                    self.ticks += 1;
                    ctx.schedule_self_background(SimDuration::from_secs(5), Tick);
                }
            }
        }
        let mut sim = Sim::new(0);
        let b = sim.spawn("beacon", Beacon { ticks: 0 });
        let c = sim.spawn(
            "c",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        // Foreground work 12s out: the beacon's 5s and 10s ticks fire while
        // the foreground event is pending, then run() stops.
        sim.send_after(SimDuration::from_secs(12), c, Bump(1));
        sim.run();
        assert_eq!(sim.actor::<Counter>(c).unwrap().count, 1);
        assert_eq!(sim.actor::<Beacon>(b).unwrap().ticks, 2);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(12));
        assert_eq!(sim.foreground_queue_len(), 0);
        assert_eq!(sim.queue_len(), 1, "daemon tick still queued");
        // run_until *does* drive background time forward.
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(31));
        assert_eq!(sim.actor::<Beacon>(b).unwrap().ticks, 6);
    }

    #[test]
    fn same_instant_burst_coalesces_into_one_batch() {
        struct Batcher {
            batches: Vec<usize>,
        }
        struct Tag(#[allow(dead_code)] u64);
        impl Actor for Batcher {
            fn on_message(&mut self, _msg: Msg, _ctx: &mut Ctx<'_>) {
                self.batches.push(1);
            }
            fn on_batch(&mut self, msgs: &mut Vec<Msg>, _ctx: &mut Ctx<'_>) {
                self.batches.push(msgs.len());
                msgs.clear();
            }
        }
        let mut sim = Sim::new(0);
        let b = sim.spawn("batcher", Batcher { batches: vec![] });
        for i in 0..10 {
            sim.send(b, Tag(i));
        }
        sim.send_after(SimDuration::from_secs(1), b, Tag(99));
        sim.run();
        // 10 same-instant messages → one batch; the later singleton goes
        // through on_message.
        assert_eq!(sim.actor::<Batcher>(b).unwrap().batches, vec![10, 1]);
        assert_eq!(sim.events_processed(), 11);
        assert_eq!(sim.metrics_ref().counter("sim.batch.bursts"), 1);
        assert_eq!(sim.metrics_ref().counter("sim.batch.coalesced_messages"), 9);
        assert_eq!(sim.metrics_ref().counter("sim.batch.max_size"), 10);
        let stats = sim.drain_stats(b);
        assert_eq!(stats.messages, 11);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.max_batch, 10);
    }

    #[test]
    fn interleaved_destinations_split_batches() {
        struct Recorder {
            seen: Vec<u64>,
        }
        struct Tag(u64);
        impl Actor for Recorder {
            fn on_message(&mut self, msg: Msg, _ctx: &mut Ctx<'_>) {
                self.seen.push(msg.downcast::<Tag>().unwrap().0);
            }
            fn on_batch(&mut self, msgs: &mut Vec<Msg>, _ctx: &mut Ctx<'_>) {
                for msg in msgs.drain(..) {
                    self.seen.push(msg.downcast::<Tag>().unwrap().0);
                }
            }
        }
        let mut sim = Sim::new(0);
        let a = sim.spawn("a", Recorder { seen: vec![] });
        let b = sim.spawn("b", Recorder { seen: vec![] });
        // a a b a: only the leading `a a` run coalesces.
        sim.send(a, Tag(0));
        sim.send(a, Tag(1));
        sim.send(b, Tag(2));
        sim.send(a, Tag(3));
        sim.run();
        assert_eq!(sim.actor::<Recorder>(a).unwrap().seen, vec![0, 1, 3]);
        assert_eq!(sim.actor::<Recorder>(b).unwrap().seen, vec![2]);
        assert_eq!(sim.drain_stats(a).batches, 2, "run split by b's event");
        assert_eq!(sim.drain_stats(a).max_batch, 2);
    }

    #[test]
    fn batching_off_restores_per_message_delivery() {
        struct Batcher {
            calls: Vec<usize>,
        }
        struct Tag;
        impl Actor for Batcher {
            fn on_message(&mut self, _msg: Msg, _ctx: &mut Ctx<'_>) {
                self.calls.push(1);
            }
            fn on_batch(&mut self, msgs: &mut Vec<Msg>, _ctx: &mut Ctx<'_>) {
                self.calls.push(msgs.len());
                msgs.clear();
            }
        }
        let mut sim = Sim::new(0);
        sim.set_batching(false);
        let b = sim.spawn("b", Batcher { calls: vec![] });
        for _ in 0..5 {
            sim.send(b, Tag);
        }
        sim.run();
        assert_eq!(sim.actor::<Batcher>(b).unwrap().calls, vec![1; 5]);
        assert_eq!(sim.metrics_ref().counter("sim.batch.bursts"), 0);
    }

    #[test]
    fn batched_messages_to_dead_actor_all_counted_dropped() {
        let mut sim = Sim::new(0);
        let a = sim.spawn(
            "a",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        for _ in 0..4 {
            sim.send_after(SimDuration::from_secs(1), a, Bump(1));
        }
        sim.kill(a);
        sim.run();
        assert_eq!(sim.metrics_ref().counter("sim.dropped_messages"), 4);
    }

    #[test]
    fn dispatch_report_lists_busy_actors() {
        let mut sim = Sim::new(0);
        let a = sim.spawn(
            "busy",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        for _ in 0..3 {
            sim.send(a, Bump(1));
        }
        sim.run();
        let table = sim.dispatch_report();
        assert_eq!(table.rows.len(), 1);
        assert!(table.rows[0][0].starts_with("busy"));
        assert_eq!(table.rows[0][1], "3");
    }

    /// An actor that folds one draw from its RNG stream into `sum` per
    /// message.
    struct Worker {
        sum: u64,
    }
    struct Work(u64);
    impl Actor for Worker {
        fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            let w = msg.downcast::<Work>().unwrap();
            let draw = ctx.rng().next_below(1000);
            self.sum = self.sum.wrapping_add(w.0).wrapping_add(draw);
        }
    }

    #[test]
    fn per_actor_rng_streams_are_insensitive_to_neighbors() {
        // Actor a's draws must not depend on whether actor b ran first at
        // the same instant.
        fn sum_of(extra_first: bool) -> u64 {
            let mut sim = Sim::new(11);
            let b = sim.spawn("b", Worker { sum: 0 });
            let a = sim.spawn("a", Worker { sum: 0 });
            if extra_first {
                sim.send(b, Work(0));
            }
            sim.send(a, Work(0));
            sim.run();
            sim.actor::<Worker>(a).unwrap().sum
        }
        assert_eq!(sum_of(false), sum_of(true));
    }

    #[test]
    fn identical_seeds_identical_traces() {
        fn trace(seed: u64) -> (u64, SimTime) {
            struct Jitter {
                hops: u32,
            }
            struct Hop;
            impl Actor for Jitter {
                fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
                    if msg.downcast::<Hop>().is_ok() && self.hops < 100 {
                        self.hops += 1;
                        let d = SimDuration::from_nanos(ctx.rng().next_below(1000) + 1);
                        ctx.schedule_self(d, Hop);
                    }
                }
            }
            let mut sim = Sim::new(seed);
            let j = sim.spawn("jitter", Jitter { hops: 0 });
            sim.send(j, Hop);
            sim.run();
            (sim.events_processed(), sim.now())
        }
        assert_eq!(trace(1234), trace(1234));
        assert_ne!(trace(1234).1, trace(4321).1);
    }
}
