//! The NDN forwarding daemon (NFD-equivalent), as a simulation actor.
//!
//! Implements the NFD forwarding pipeline: Content Store lookup, PIT
//! aggregation, dead-nonce loop suppression, FIB longest-prefix match,
//! per-prefix strategy choice, reverse-path Data delivery, NACKs, and PIT
//! expiry. Faces connect either to peer forwarders (with latency/bandwidth/
//! loss) or to local application actors (producers, consumers, the LIDC
//! gateway).
//!
//! # Wire batching
//!
//! Outbound link transmissions are *staged* during a handler invocation and
//! flushed once at the end: every packet bound for the same link face with
//! the same computed arrival instant travels in a single scheduler event (a
//! [`RxBatch`]) instead of one event per packet. Per-packet semantics —
//! loss draws, serialisation delay, `busy_until` FIFO queueing, counters —
//! are computed at staging time, so timing and state are bit-identical to
//! per-packet delivery; only the number of scheduler events shrinks. The
//! forwarder's batched ingress ([`Actor::on_batch`]) processes a coalesced
//! burst of [`Rx`]/[`RxBatch`] messages in arrival order, reusing the
//! PIT/CS scratch buffers across the whole burst, and flushes staged
//! transmissions once per burst. This is what keeps the 4096-node scaling
//! runs out of scheduler churn.

use std::collections::VecDeque;

use lidc_simcore::engine::{Actor, Ctx, Msg};
use lidc_simcore::time::SimTime;

use crate::face::{Face, FaceId, FaceKind};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::name::Name;
use crate::packet::{Data, Interest, Nack, NackReason, Packet};
use crate::strategy::{BestRoute, Strategy, StrategyCtx};
use crate::tables::cs::{ContentStore, CsConfig};
use crate::tables::fib::{Fib, NextHop};
use crate::tables::pit::{InsertOutcome, Pit, PitKey};

/// A packet arriving at the forwarder on a face. Sent by peer forwarders
/// *and* by local applications injecting packets through their app face.
#[derive(Debug)]
pub struct Rx {
    /// The receiving face (from this forwarder's perspective).
    pub face: FaceId,
    /// The packet.
    pub packet: Packet,
}

/// A burst of packets crossing one link in a single scheduler event: they
/// all arrive on `face` at the same instant, in transmission order. Sent by
/// peer forwarders' wire-batch flush (see the module docs).
#[derive(Debug)]
pub struct RxBatch {
    /// The receiving face (from this forwarder's perspective).
    pub face: FaceId,
    /// The packets, in the order they were transmitted.
    pub packets: Vec<Packet>,
}

/// A packet the forwarder delivers to a local application actor.
#[derive(Debug)]
pub struct AppRx {
    /// The app's face on the forwarder.
    pub face: FaceId,
    /// The packet.
    pub packet: Packet,
}

/// Runtime face addition (topology churn).
#[derive(Debug)]
pub struct AddFace {
    /// Fully-specified face (id allocated by the caller).
    pub face: Face,
}

/// Runtime face removal; routes through the face are dropped.
#[derive(Debug)]
pub struct RemoveFace {
    /// The face to destroy.
    pub face: FaceId,
}

/// Administrative up/down.
#[derive(Debug)]
pub struct SetFaceUp {
    /// The face.
    pub face: FaceId,
    /// New state.
    pub up: bool,
}

/// Runtime link degradation (fault injection): rewrites the mutable
/// degradation fields of a link face's [`LinkProps`](crate::face::LinkProps)
/// in place. `latency_factor: 1.0, extra_loss: 0.0, corrupt: 0.0` heals the
/// link; the base latency/bandwidth/loss are never touched.
#[derive(Debug)]
pub struct DegradeLink {
    /// The link face.
    pub face: FaceId,
    /// Multiplier applied to the link's propagation latency.
    pub latency_factor: f64,
    /// Loss probability added to the link's base loss.
    pub extra_loss: f64,
    /// Per-packet corruption probability. What a corrupted packet turns
    /// into is the sender's [`CorruptionMode`].
    pub corrupt: f64,
}

/// What the link model does to a packet its corruption draw selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorruptionMode {
    /// Honest corruption: flip one seeded bit of a Data packet (content or
    /// signature bytes) and transmit the damaged packet — the error travels
    /// downstream until signature verification catches it at the next
    /// verify point (`ndn.link_corrupt_flips`). Interests and Nacks carry
    /// no signature for a verifier to check, so they are still dropped at
    /// the link (`ndn.link_corrupt_drops`), as is the rare Data with no
    /// flippable bytes.
    #[default]
    BitFlip,
    /// Legacy idealization: the corrupted packet is dropped *at the link*,
    /// before it ever reaches the peer (`ndn.link_corrupt_drops`) — as if
    /// every hop ran a perfect checksum. Kept behind this flag for
    /// scenarios pinned to the PR-6 corruption semantics.
    Drop,
}

/// Register a route (RIB entry flattened straight into the FIB).
#[derive(Debug)]
pub struct RegisterPrefix {
    /// Name prefix.
    pub prefix: Name,
    /// Next-hop face.
    pub face: FaceId,
    /// Routing cost.
    pub cost: u32,
}

/// Remove a route.
#[derive(Debug)]
pub struct UnregisterPrefix {
    /// Name prefix.
    pub prefix: Name,
    /// Next-hop face.
    pub face: FaceId,
}

/// Install a strategy for a prefix (longest-prefix-match choice).
pub struct SetStrategy {
    /// Prefix the strategy governs.
    pub prefix: Name,
    /// The strategy instance.
    pub strategy: Box<dyn Strategy>,
}

impl std::fmt::Debug for SetStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SetStrategy({} -> {})", self.prefix, self.strategy.strategy_name())
    }
}

/// Internal PIT-expiry timer.
#[derive(Debug)]
struct PitExpire {
    key: PitKey,
    version: u64,
}

/// Forwarder tuning knobs.
#[derive(Debug, Clone)]
pub struct ForwarderConfig {
    /// Content Store capacity in packets (0 disables caching).
    pub cs_capacity: usize,
    /// Content Store byte budget over payload + name cost (0 = no byte
    /// limit). `Default::default()` pairs the default capacity (4096) with
    /// its derived budget (one default-sized 1 MiB segment per slot); when
    /// overriding `cs_capacity` by struct update, use
    /// [`ForwarderConfig::for_cs_capacity`] (or set this field too) so the
    /// budget tracks the new capacity instead of staying at 4 GiB. See
    /// [`crate::tables::cs::CsConfig`] for the segment-aware admission
    /// policy the budget enables.
    pub cs_budget_bytes: u64,
    /// Dead nonce list capacity.
    pub dnl_capacity: usize,
    /// Delivery latency to application faces. Real NFD apps sit behind a
    /// unix/TCP socket (the paper's NodePort exposure), so the hop is small
    /// but never zero; a nonzero default also keeps request/response
    /// timestamps strictly ordered in single-cluster worlds.
    pub app_face_latency: lidc_simcore::time::SimDuration,
    /// Verify every Data's signature before it can satisfy PIT entries or
    /// enter the Content Store (the cache-poisoning defense; see
    /// docs/INTEGRITY.md). An unverifiable Data counts `ndn.verify_failed`,
    /// leaves the PIT untouched (retransmissions and alternate upstreams
    /// keep working), and — when it would have been cached — counts
    /// `ndn.cs_poison_rejected` and records a quarantine strike against the
    /// ingress face. Default on; turn off only for benches isolating
    /// non-crypto forwarding cost.
    pub verify_data: bool,
    /// What the link corruption model does to a packet it damages.
    pub corruption: CorruptionMode,
    /// Decayed verification-failure strike count at which an ingress face
    /// is quarantined: while at or above this, the face is skipped as a
    /// next hop whenever an alternate exists (`ndn.quarantine_skips`).
    pub quarantine_threshold: f64,
    /// Half-life of the decaying strike counter: a face that stops failing
    /// verification re-earns trust on this timescale.
    pub quarantine_halflife: lidc_simcore::time::SimDuration,
}

impl Default for ForwarderConfig {
    fn default() -> Self {
        ForwarderConfig {
            cs_capacity: 4096,
            cs_budget_bytes: crate::tables::cs::default_budget_bytes(4096),
            dnl_capacity: 8192,
            app_face_latency: lidc_simcore::time::SimDuration::from_micros(50),
            verify_data: true,
            corruption: CorruptionMode::BitFlip,
            quarantine_threshold: 3.0,
            quarantine_halflife: lidc_simcore::time::SimDuration::from_secs(30),
        }
    }
}

impl ForwarderConfig {
    /// Defaults with a Content Store of `capacity` entries and the byte
    /// budget derived from it (one default-sized 1 MiB segment per slot) —
    /// the coherent way to resize the store, keeping the two tiers of the
    /// budget coupled.
    pub fn for_cs_capacity(capacity: usize) -> Self {
        ForwarderConfig {
            cs_capacity: capacity,
            cs_budget_bytes: crate::tables::cs::default_budget_bytes(capacity),
            ..Default::default()
        }
    }
}

/// Dead Nonce List: remembers (name, nonce) pairs of satisfied/expired
/// Interests so late loops are detected. FIFO-bounded.
#[derive(Debug, Default)]
struct DeadNonceList {
    set: FxHashSet<(Name, u32)>,
    order: VecDeque<(Name, u32)>,
    capacity: usize,
}

impl DeadNonceList {
    fn new(capacity: usize) -> Self {
        DeadNonceList {
            set: FxHashSet::default(),
            order: VecDeque::new(),
            capacity,
        }
    }

    fn insert(&mut self, name: Name, nonce: u32) {
        if self.capacity == 0 {
            return;
        }
        let key = (name, nonce);
        if self.set.insert(key.clone()) {
            self.order.push_back(key);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }

    fn contains(&self, name: &Name, nonce: u32) -> bool {
        // HashSet<(Name, u32)> needs an owned-typed key to probe, but a
        // `Name` clone is an O(1) refcount bump (no heap allocation) under
        // the arena representation, so this probe is allocation-free.
        self.set.contains(&(name.clone(), nonce))
    }
}

/// Per-out-link staging bucket (per-link fan-out; see the module docs):
/// every packet staged for one link during the current handler, in
/// staging order. Face `busy_until` is monotone, so per-bucket arrivals are
/// nondecreasing and same-arrival flush groups are *contiguous runs* — the
/// flush needs no hash pass, and a hub's fan-out over N links is N
/// independent bucket walks instead of one interleaved scan.
struct TxBucket {
    /// The peer forwarder.
    peer: lidc_simcore::engine::ActorId,
    /// The peer's face for this link.
    peer_face: FaceId,
    /// `(absolute arrival instant, packet)`, arrivals nondecreasing.
    txs: Vec<(lidc_simcore::time::SimTime, Packet)>,
}

/// The forwarder actor.
pub struct Forwarder {
    label: String,
    config: ForwarderConfig,
    faces: FxHashMap<FaceId, Face>,
    fib: Fib,
    pit: Pit,
    cs: ContentStore,
    dnl: DeadNonceList,
    /// Per-prefix strategies; longest-prefix-match choice with the root
    /// prefix always present (BestRoute by default).
    strategies: Vec<(Name, Box<dyn Strategy>)>,
    /// Reused buffer for PIT data-match results: Data arrivals fill this in
    /// place instead of allocating a fresh Vec per packet.
    pit_match_scratch: Vec<PitKey>,
    /// Link transmissions staged during the current handler invocation,
    /// bucketed by out-link in first-staged face order.
    tx_buckets: Vec<TxBucket>,
    /// Recycled bucket buffers (flushing empties a bucket but keeps its
    /// allocation for the next handler).
    tx_spare: Vec<Vec<(lidc_simcore::time::SimTime, Packet)>>,
    /// Decaying per-face verification-failure strikes:
    /// `face → (strike count at last update, last update instant)`. Point
    /// lookups only — never iterated — so map order cannot leak into
    /// behavior. See [`ForwarderConfig::quarantine_threshold`].
    quarantine: FxHashMap<FaceId, (f64, SimTime)>,
}

impl Forwarder {
    /// Create a forwarder with the given diagnostics label and config.
    pub fn new(label: impl Into<String>, config: ForwarderConfig) -> Self {
        Forwarder {
            label: label.into(),
            faces: FxHashMap::default(),
            fib: Fib::new(),
            pit: Pit::new(),
            cs: ContentStore::with_config(CsConfig {
                capacity: config.cs_capacity,
                budget_bytes: config.cs_budget_bytes,
                ..Default::default()
            }),
            dnl: DeadNonceList::new(config.dnl_capacity),
            strategies: vec![(Name::root(), Box::new(BestRoute::new()))],
            pit_match_scratch: Vec::new(),
            tx_buckets: Vec::new(),
            tx_spare: Vec::new(),
            quarantine: FxHashMap::default(),
            config,
        }
    }

    /// Diagnostics label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Add a face (pre-run topology building or via [`AddFace`]).
    pub fn add_face(&mut self, face: Face) {
        self.faces.insert(face.id, face);
    }

    /// Face lookup (tests/diagnostics).
    pub fn face(&self, id: FaceId) -> Option<&Face> {
        self.faces.get(&id)
    }

    /// Register a route.
    pub fn register_prefix(&mut self, prefix: Name, face: FaceId, cost: u32) {
        self.fib.add_nexthop(prefix, face, cost);
    }

    /// Remove a route.
    pub fn unregister_prefix(&mut self, prefix: &Name, face: FaceId) {
        self.fib.remove_nexthop(prefix, face);
    }

    /// Install `strategy` for `prefix`, replacing any previous choice.
    pub fn set_strategy(&mut self, prefix: Name, strategy: Box<dyn Strategy>) {
        if let Some(slot) = self.strategies.iter_mut().find(|(p, _)| *p == prefix) {
            slot.1 = strategy;
        } else {
            self.strategies.push((prefix, strategy));
        }
    }

    /// The Content Store (tests/diagnostics).
    pub fn cs(&self) -> &ContentStore {
        &self.cs
    }

    /// The FIB (tests/diagnostics).
    pub fn fib(&self) -> &Fib {
        &self.fib
    }

    /// The PIT (tests/diagnostics).
    pub fn pit(&self) -> &Pit {
        &self.pit
    }

    /// Strike count for `face` decayed to `now` (a pure function of the
    /// stored `(count, last_update)` pair).
    fn decayed_strikes(&self, face: FaceId, now: SimTime) -> f64 {
        let Some((count, at)) = self.quarantine.get(&face) else {
            return 0.0;
        };
        let dt = now.since(*at).as_secs_f64();
        let halflife = self.config.quarantine_halflife.as_secs_f64().max(1e-9);
        count * 0.5f64.powf(dt / halflife)
    }

    /// True while `face`'s decayed strikes sit at or above the quarantine
    /// threshold (public for tests/diagnostics).
    pub fn is_quarantined(&self, face: FaceId, now: SimTime) -> bool {
        self.decayed_strikes(face, now) >= self.config.quarantine_threshold
    }

    /// Record one verification-failure strike against an ingress face.
    fn record_verify_strike(&mut self, face: FaceId, now: SimTime, ctx: &mut Ctx<'_>) {
        let strikes = self.decayed_strikes(face, now) + 1.0;
        self.quarantine.insert(face, (strikes, now));
        ctx.metrics().incr("ndn.quarantine_strikes", 1);
    }

    /// Handling of a Data that failed signature verification: count it, and
    /// when it was a poisoning attempt (PIT entries would have been
    /// satisfied), strike the ingress face and tell the strategy so
    /// forwarding steers away.
    /// The PIT is deliberately left untouched — downstream retransmissions
    /// and alternate upstreams still have a live entry to satisfy.
    fn on_verify_failed(
        &mut self,
        in_face: FaceId,
        name: &Name,
        poisoned: bool,
        ctx: &mut Ctx<'_>,
    ) {
        ctx.metrics().incr("ndn.verify_failed", 1);
        if !poisoned {
            return;
        }
        ctx.metrics().incr("ndn.cs_poison_rejected", 1);
        self.record_verify_strike(in_face, ctx.now(), ctx);
        if let Some(fib_entry) = self.fib.lookup(name) {
            let prefix = fib_entry.prefix.clone();
            let sidx = self.strategy_index_for(name);
            // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
            self.strategies[sidx].1.on_failure(&prefix, in_face);
        }
    }

    fn strategy_index_for(&self, name: &Name) -> usize {
        let mut best: usize = 0;
        let mut best_len: isize = -1;
        for (i, (prefix, _)) in self.strategies.iter().enumerate() {
            if prefix.is_prefix_of(name) && (prefix.len() as isize) > best_len {
                best = i;
                best_len = prefix.len() as isize;
            }
        }
        best
    }

    fn send_packet(&mut self, face_id: FaceId, packet: Packet, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let Some(face) = self.faces.get_mut(&face_id) else {
            ctx.metrics().incr("ndn.tx_no_such_face", 1);
            return;
        };
        if !face.up {
            face.counters.dropped += 1;
            ctx.metrics().incr("ndn.tx_face_down", 1);
            return;
        }
        match packet {
            Packet::Interest(_) => face.counters.out_interests += 1,
            Packet::Data(_) => face.counters.out_data += 1,
            Packet::Nack(_) => face.counters.out_nacks += 1,
        }
        match face.kind.clone() {
            FaceKind::App { actor } => {
                ctx.send_after(self.config.app_face_latency, actor, AppRx {
                    face: face_id,
                    packet,
                });
            }
            FaceKind::Link {
                peer,
                peer_face,
                props,
            } => {
                // `effective_loss` folds in fault-injected extra loss; with
                // no degradation active it equals `loss`, so the RNG draw
                // count (and thus every seeded run) is unchanged.
                let loss = props.effective_loss();
                if loss > 0.0 && ctx.rng().next_bool(loss) {
                    // lidc-lint: allow(panic-path) reason="send_packet's guarded head already resolved face_id and returned on a miss; the map is untouched since"
                    let face = self.faces.get_mut(&face_id).expect("face exists");
                    face.counters.dropped += 1;
                    ctx.metrics().incr("ndn.link_loss_drops", 1);
                    return;
                }
                // Corruption: one draw decides *whether* the packet is
                // damaged (no draw at all while the link is healthy, so
                // seeded runs without corruption faults are unchanged);
                // the mode decides what the damage looks like. BitFlip
                // draws one extra u64 to pick the bit — only on the
                // already-rare corrupting branch.
                let mut packet = packet;
                if props.corrupt > 0.0 && ctx.rng().next_bool(props.corrupt) {
                    let flipped = match (&self.config.corruption, &mut packet) {
                        (CorruptionMode::BitFlip, Packet::Data(data)) => {
                            let bit = ctx.rng().next_u64();
                            data.flip_bit(bit)
                        }
                        // Drop mode, Interests, Nacks, and unflippable Data
                        // all fall back to the link-level drop.
                        _ => false,
                    };
                    if flipped {
                        ctx.metrics().incr("ndn.link_corrupt_flips", 1);
                    } else {
                        // lidc-lint: allow(panic-path) reason="send_packet's guarded head already resolved face_id and returned on a miss; the map is untouched since"
                        let face = self.faces.get_mut(&face_id).expect("face exists");
                        face.counters.dropped += 1;
                        ctx.metrics().incr("ndn.link_corrupt_drops", 1);
                        return;
                    }
                }
                // Serialisation delay only matters on rate-limited links.
                let transmit = match props.bandwidth_bps {
                    Some(_) => props.transmit_time(packet.encoded_size()),
                    None => lidc_simcore::time::SimDuration::ZERO,
                };
                // lidc-lint: allow(panic-path) reason="send_packet's guarded head already resolved face_id and returned on a miss; the map is untouched since"
                let face = self.faces.get_mut(&face_id).expect("face exists");
                let start = face.busy_until.max(now);
                face.busy_until = start + transmit;
                let arrival = face.busy_until + props.effective_latency();
                // Stage instead of scheduling: the end-of-handler flush
                // merges same-(link, arrival) packets into one event.
                self.stage_tx(peer, peer_face, arrival, packet);
            }
        }
    }

    /// Stage one link transmission into its out-link bucket (created on
    /// first use this handler, in staging order). The bucket count is the
    /// handler's distinct out-link count — single digits even on a hub — so
    /// a linear probe beats hashing per packet.
    fn stage_tx(
        &mut self,
        peer: lidc_simcore::engine::ActorId,
        peer_face: FaceId,
        arrival: lidc_simcore::time::SimTime,
        packet: Packet,
    ) {
        if let Some(bucket) = self.tx_buckets.iter_mut().find(|b| b.peer_face == peer_face) {
            debug_assert!(
                bucket.txs.last().is_none_or(|(a, _)| *a <= arrival),
                "per-face arrivals must be nondecreasing"
            );
            bucket.txs.push((arrival, packet));
        } else {
            let mut txs = self.tx_spare.pop().unwrap_or_default();
            txs.push((arrival, packet));
            self.tx_buckets.push(TxBucket {
                peer,
                peer_face,
                txs,
            });
        }
    }

    /// Emit every staged link transmission, one scheduler event per
    /// `(link, arrival instant)` group, bucket by bucket in first-staged
    /// face order. Called once at the end of each handler invocation (per
    /// message when the engine delivers singly, per burst under batched
    /// dispatch). Per-bucket arrivals are nondecreasing, so same-arrival
    /// groups are contiguous runs — no hash pass, and each out-link's
    /// fan-out walks independently.
    fn flush_tx(&mut self, ctx: &mut Ctx<'_>) {
        if self.tx_buckets.is_empty() {
            return;
        }
        let now = ctx.now();
        let mut buckets = std::mem::take(&mut self.tx_buckets);
        for bucket in &mut buckets {
            let mut txs = bucket.txs.drain(..).peekable();
            while let Some((arrival, packet)) = txs.next() {
                let delay = arrival.since(now);
                if txs.peek().is_some_and(|(a, _)| *a == arrival) {
                    let mut packets = vec![packet];
                    while let Some((a, _)) = txs.peek() {
                        if *a != arrival {
                            break;
                        }
                        // lidc-lint: allow(panic-path) reason="the peek on the same iterator just returned an entry with this arrival time"
                        packets.push(txs.next().expect("peeked").1);
                    }
                    ctx.metrics().incr("ndn.batch.link_flushes", 1);
                    ctx.metrics()
                        .incr("ndn.batch.link_packets", packets.len() as u64);
                    ctx.send_after(delay, bucket.peer, RxBatch {
                        face: bucket.peer_face,
                        packets,
                    });
                } else {
                    ctx.send_after(delay, bucket.peer, Rx {
                        face: bucket.peer_face,
                        packet,
                    });
                }
            }
        }
        // Recycle the emptied bucket buffers for the next handler.
        for bucket in buckets {
            self.tx_spare.push(bucket.txs);
        }
    }

    fn nack_to(&mut self, face: FaceId, reason: NackReason, interest: Interest, ctx: &mut Ctx<'_>) {
        self.send_packet(face, Packet::Nack(Nack::new(reason, interest)), ctx);
    }

    fn on_interest(&mut self, in_face: FaceId, mut interest: Interest, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        ctx.metrics().incr("ndn.rx_interests", 1);
        if let Some(face) = self.faces.get_mut(&in_face) {
            face.counters.in_interests += 1;
        }
        // Hop limit.
        if let Some(h) = interest.hop_limit {
            if h == 0 {
                ctx.metrics().incr("ndn.hop_limit_drops", 1);
                return;
            }
            interest.hop_limit = Some(h - 1);
        }
        // Dead-nonce loop suppression.
        if let Some(nonce) = interest.nonce {
            if self.dnl.contains(&interest.name, nonce) {
                ctx.metrics().incr("ndn.duplicate_nonce", 1);
                self.nack_to(in_face, NackReason::Duplicate, interest, ctx);
                return;
            }
        }
        // Content Store.
        if let Some(data) = self.cs.lookup(&interest, now) {
            ctx.metrics().incr("ndn.cs_hits", 1);
            self.send_packet(in_face, Packet::Data(data), ctx);
            return;
        }
        ctx.metrics().incr("ndn.cs_misses", 1);
        // PIT.
        let key = PitKey::of(&interest);
        let (outcome, version) = self.pit.insert(&interest, in_face, now);
        match outcome {
            InsertOutcome::DuplicateNonce => {
                ctx.metrics().incr("ndn.duplicate_nonce", 1);
                self.nack_to(in_face, NackReason::Duplicate, interest, ctx);
            }
            InsertOutcome::Aggregated => {
                ctx.metrics().incr("ndn.pit_aggregated", 1);
                self.schedule_expiry(&key, version, ctx);
            }
            outcome @ (InsertOutcome::New | InsertOutcome::Retransmission) => {
                self.schedule_expiry(&key, version, ctx);
                self.forward_interest(
                    in_face,
                    interest,
                    key,
                    outcome == InsertOutcome::Retransmission,
                    ctx,
                );
            }
        }
    }

    fn schedule_expiry(&mut self, key: &PitKey, version: u64, ctx: &mut Ctx<'_>) {
        if let Some(ttl) = self.pit.time_to_expiry(key, ctx.now()) {
            ctx.schedule_self(ttl, PitExpire {
                key: key.clone(),
                version,
            });
        }
    }

    fn forward_interest(
        &mut self,
        in_face: FaceId,
        interest: Interest,
        key: PitKey,
        is_retransmission: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(entry) = self.fib.lookup(&interest.name) else {
            ctx.metrics().incr("ndn.no_route", 1);
            self.pit.take(&key);
            self.nack_to(in_face, NackReason::NoRoute, interest, ctx);
            return;
        };
        let prefix = entry.prefix.clone();
        let mut eligible: Vec<NextHop> = entry
            .nexthops
            .iter()
            .filter(|nh| {
                nh.face != in_face
                    && self
                        .faces
                        .get(&nh.face)
                        .map(|f| f.up)
                        .unwrap_or(false)
            })
            .copied()
            .collect();
        // Quarantine filter: skip next hops whose face is serving
        // unverifiable Data — but only while an untainted alternate
        // exists (availability beats purity when every route is suspect).
        if !self.quarantine.is_empty() {
            let now = ctx.now();
            let suspect = eligible
                .iter()
                .filter(|nh| self.is_quarantined(nh.face, now))
                .count();
            if suspect > 0 && suspect < eligible.len() {
                eligible.retain(|nh| !self.is_quarantined(nh.face, now));
                ctx.metrics().incr("ndn.quarantine_skips", suspect as u64);
            }
        }
        let sidx = self.strategy_index_for(&interest.name);
        let selected = {
            // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
            let (_, strategy) = &mut self.strategies[sidx];
            let mut sctx = StrategyCtx {
                interest: &interest,
                nexthops: &eligible,
                prefix: &prefix,
                in_face,
                is_retransmission,
                now: ctx.now(),
                rng: ctx.rng(),
            };
            strategy.select(&mut sctx)
        };
        if selected.is_empty() {
            ctx.metrics().incr("ndn.no_route", 1);
            self.pit.take(&key);
            self.nack_to(in_face, NackReason::NoRoute, interest, ctx);
            return;
        }
        for out_face in selected {
            self.pit
                .add_out_record(&key, out_face, interest.nonce, ctx.now());
            self.send_packet(out_face, Packet::Interest(interest.clone()), ctx);
        }
        ctx.metrics().incr("ndn.interests_forwarded", 1);
    }

    fn on_data(&mut self, in_face: FaceId, data: Data, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        ctx.metrics().incr("ndn.rx_data", 1);
        if let Some(face) = self.faces.get_mut(&in_face) {
            face.counters.in_data += 1;
        }
        let mut keys = std::mem::take(&mut self.pit_match_scratch);
        self.pit.match_data_into(&data.name, &mut keys);
        // Verify gate, *before* CS admission and PIT satisfaction: an
        // unverifiable Data is never cached and never consumes the PIT
        // entries it targeted.
        if self.config.verify_data && !data.verify(None) {
            let poisoned = !keys.is_empty();
            keys.clear();
            self.pit_match_scratch = keys;
            self.on_verify_failed(in_face, &data.name, poisoned, ctx);
            return;
        }
        if keys.is_empty() {
            self.pit_match_scratch = keys;
            ctx.metrics().incr("ndn.unsolicited_data", 1);
            return;
        }
        // Insert into the CS, then surface what the two-tier budget did:
        // eviction counts/bytes and admission rejections are lifetime
        // counters on the store, so deltas around the insert attribute the
        // work to metrics without the store knowing about the metrics sink.
        let (ev0, evb0, rej0) = (
            self.cs.evictions(),
            self.cs.evicted_bytes(),
            self.cs.admission_rejections(),
        );
        self.cs.insert(data.clone(), now);
        let evicted = self.cs.evictions() - ev0;
        if evicted > 0 {
            ctx.metrics().incr("ndn.cs_evict.count", evicted);
            ctx.metrics()
                .incr("ndn.cs_evict.bytes", self.cs.evicted_bytes() - evb0);
        }
        let rejected = self.cs.admission_rejections() - rej0;
        if rejected > 0 {
            ctx.metrics().incr("ndn.cs_admission_rejected", rejected);
        }
        ctx.metrics()
            .set_max("ndn.cs_bytes_used_peak", self.cs.bytes_used());
        for key in keys.drain(..) {
            let Some(entry) = self.pit.take(&key) else {
                continue;
            };
            // Strategy RTT feedback for the upstream that answered.
            if let Some(out) = entry.out_record(in_face) {
                let rtt = now.since(out.sent_at);
                if let Some(fib_entry) = self.fib.lookup(&entry.interest.name) {
                    let prefix = fib_entry.prefix.clone();
                    let sidx = self.strategy_index_for(&entry.interest.name);
                    // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
                    self.strategies[sidx].1.on_data(&prefix, in_face, rtt);
                }
            }
            // Retire nonces.
            for rec in &entry.in_records {
                if let Some(n) = rec.nonce {
                    self.dnl.insert(entry.interest.name.clone(), n);
                }
            }
            for rec in &entry.out_records {
                if let Some(n) = rec.nonce {
                    self.dnl.insert(entry.interest.name.clone(), n);
                }
            }
            for face in entry.return_faces(in_face) {
                self.send_packet(face, Packet::Data(data.clone()), ctx);
            }
            ctx.metrics().incr("ndn.pit_satisfied", 1);
        }
        self.pit_match_scratch = keys;
    }

    fn on_nack(&mut self, in_face: FaceId, nack: Nack, ctx: &mut Ctx<'_>) {
        ctx.metrics().incr("ndn.rx_nacks", 1);
        if let Some(face) = self.faces.get_mut(&in_face) {
            face.counters.in_nacks += 1;
        }
        let key = PitKey::of(&nack.interest);
        let Some(entry) = self.pit.get_mut(&key) else {
            return;
        };
        entry.out_records.retain(|r| r.face != in_face);
        let exhausted = entry.out_records.is_empty();
        // Strategy failure feedback.
        if let Some(fib_entry) = self.fib.lookup(&nack.interest.name) {
            let prefix = fib_entry.prefix.clone();
            let sidx = self.strategy_index_for(&nack.interest.name);
            // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
            self.strategies[sidx].1.on_failure(&prefix, in_face);
        }
        if exhausted {
            if let Some(entry) = self.pit.take(&key) {
                for rec in &entry.in_records {
                    self.nack_to(rec.face, nack.reason, entry.interest.clone(), ctx);
                }
            }
        }
    }

    /// A face went down: rescue or terminate every PIT entry referencing it.
    ///
    /// Entries whose Interest went upstream over the dead face are retried
    /// over an alternate next hop (presented to the strategy as a
    /// retransmission so rotating strategies escape the broken path);
    /// entries whose only downstream was the dead face are dropped; entries
    /// with no usable alternate are NACKed to their requesters instead of
    /// silently timing out.
    fn on_face_down(&mut self, dead: FaceId, ctx: &mut Ctx<'_>) {
        // Collect affected keys first (canonically ordered so the rescue
        // sequence — and thus RNG draws and packet order — is deterministic
        // regardless of hash-map iteration order).
        let mut affected: Vec<PitKey> = Vec::new();
        for key in self.pit.keys() {
            let touches = self.pit.get(key).is_some_and(|e| {
                e.in_records.iter().any(|r| r.face == dead)
                    || e.out_records.iter().any(|r| r.face == dead)
            });
            if touches {
                affected.push(key.clone());
            }
        }
        affected.sort_by(|a, b| {
            a.name
                .cmp(&b.name)
                .then(a.can_be_prefix.cmp(&b.can_be_prefix))
                .then(a.must_be_fresh.cmp(&b.must_be_fresh))
        });
        for key in affected {
            let Some(entry) = self.pit.get_mut(&key) else {
                continue;
            };
            let went_upstream = entry.out_records.iter().any(|r| r.face == dead);
            entry.in_records.retain(|r| r.face != dead);
            entry.out_records.retain(|r| r.face != dead);
            if entry.in_records.is_empty() {
                // Nobody is waiting downstream any more.
                self.pit.take(&key);
                continue;
            }
            if !went_upstream {
                // Only a downstream requester died; the Interest is still
                // in flight on live faces.
                continue;
            }
            let interest = entry.interest.clone();
            let in_faces: Vec<FaceId> = entry.in_records.iter().map(|r| r.face).collect();
            let out_faces: Vec<FaceId> = entry.out_records.iter().map(|r| r.face).collect();
            // Tell the strategy the face failed for this prefix.
            let (prefix, eligible) = match self.fib.lookup(&interest.name) {
                Some(fib_entry) => {
                    let prefix = fib_entry.prefix.clone();
                    let eligible: Vec<NextHop> = fib_entry
                        .nexthops
                        .iter()
                        .filter(|nh| {
                            nh.face != dead
                                && !out_faces.contains(&nh.face)
                                && !in_faces.contains(&nh.face)
                                && self.faces.get(&nh.face).map(|f| f.up).unwrap_or(false)
                        })
                        .copied()
                        .collect();
                    (Some(prefix), eligible)
                }
                None => (None, Vec::new()),
            };
            let sidx = self.strategy_index_for(&interest.name);
            if let Some(prefix) = &prefix {
                // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
                self.strategies[sidx].1.on_failure(prefix, dead);
            }
            let selected = match &prefix {
                Some(prefix) if !eligible.is_empty() => {
                    // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
                    let (_, strategy) = &mut self.strategies[sidx];
                    let mut sctx = StrategyCtx {
                        interest: &interest,
                        nexthops: &eligible,
                        prefix,
                        in_face: in_faces[0],
                        is_retransmission: true,
                        now: ctx.now(),
                        rng: ctx.rng(),
                    };
                    strategy.select(&mut sctx)
                }
                _ => Vec::new(),
            };
            if !selected.is_empty() {
                for out_face in selected {
                    self.pit.add_out_record(&key, out_face, interest.nonce, ctx.now());
                    self.send_packet(out_face, Packet::Interest(interest.clone()), ctx);
                }
                ctx.metrics().incr("ndn.face_down_rerouted", 1);
            } else if out_faces.is_empty() {
                // No surviving upstream and no alternate: terminate the
                // entry with a NACK to every waiting requester.
                self.pit.take(&key);
                for in_face in in_faces {
                    self.nack_to(in_face, NackReason::NoRoute, interest.clone(), ctx);
                }
                ctx.metrics().incr("ndn.face_down_nacked", 1);
            }
        }
    }

    fn on_pit_expire(&mut self, key: PitKey, version: u64, ctx: &mut Ctx<'_>) {
        if let Some(entry) = self.pit.expire_if_stale(&key, version, ctx.now()) {
            ctx.metrics().incr("ndn.pit_expired", 1);
            if let Some(fib_entry) = self.fib.lookup(&entry.interest.name) {
                let prefix = fib_entry.prefix.clone();
                let sidx = self.strategy_index_for(&entry.interest.name);
                for out in &entry.out_records {
                    // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
                    self.strategies[sidx].1.on_failure(&prefix, out.face);
                }
            }
        }
    }
}

impl Forwarder {
    /// Ingest one packet that arrived on `face` (shared by [`Rx`] and
    /// [`RxBatch`] handling).
    fn on_packet(&mut self, face: FaceId, packet: Packet, ctx: &mut Ctx<'_>) {
        if let Some(f) = self.faces.get(&face) {
            if !f.up {
                ctx.metrics().incr("ndn.rx_face_down", 1);
                return;
            }
        } else {
            ctx.metrics().incr("ndn.rx_no_such_face", 1);
            return;
        }
        match packet {
            Packet::Interest(i) => self.on_interest(face, i, ctx),
            Packet::Data(d) => self.on_data(face, d, ctx),
            Packet::Nack(n) => self.on_nack(face, n, ctx),
        }
    }

    /// Dispatch one message, *without* flushing staged transmissions — the
    /// `Actor` impl flushes once per handler invocation so a batched burst
    /// shares one flush.
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<Rx>() {
            Ok(rx) => {
                let rx = *rx;
                self.on_packet(rx.face, rx.packet, ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RxBatch>() {
            Ok(batch) => {
                let batch = *batch;
                for packet in batch.packets {
                    self.on_packet(batch.face, packet, ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PitExpire>() {
            Ok(e) => {
                self.on_pit_expire(e.key.clone(), e.version, ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<AddFace>() {
            Ok(f) => {
                self.add_face(f.face);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RemoveFace>() {
            Ok(f) => {
                self.faces.remove(&f.face);
                self.fib.remove_face(f.face);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SetFaceUp>() {
            Ok(s) => {
                let was_up = match self.faces.get_mut(&s.face) {
                    Some(face) => {
                        let was = face.up;
                        face.up = s.up;
                        was
                    }
                    None => return,
                };
                if was_up && !s.up {
                    self.on_face_down(s.face, ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<DegradeLink>() {
            Ok(d) => {
                if let Some(face) = self.faces.get_mut(&d.face) {
                    if let FaceKind::Link { props, .. } = &mut face.kind {
                        props.latency_factor = d.latency_factor;
                        props.extra_loss = d.extra_loss;
                        props.corrupt = d.corrupt;
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RegisterPrefix>() {
            Ok(r) => {
                self.register_prefix(r.prefix, r.face, r.cost);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<UnregisterPrefix>() {
            Ok(u) => {
                self.unregister_prefix(&u.prefix, u.face);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<SetStrategy>() {
            Ok(s) => {
                let s = *s;
                self.set_strategy(s.prefix, s.strategy);
            }
            Err(_) => {
                ctx.metrics().incr("ndn.unknown_message", 1);
            }
        }
    }
}

impl Actor for Forwarder {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        self.handle(msg, ctx);
        self.flush_tx(ctx);
    }

    /// Batched ingress: a same-instant burst of messages is processed in
    /// arrival order with the PIT/CS scratch buffers warm, and all staged
    /// link transmissions leave in one flush (one scheduler event per link
    /// and arrival instant).
    fn on_batch(&mut self, msgs: &mut Vec<Msg>, ctx: &mut Ctx<'_>) {
        for msg in msgs.drain(..) {
            self.handle(msg, ctx);
        }
        self.flush_tx(ctx);
    }
}
