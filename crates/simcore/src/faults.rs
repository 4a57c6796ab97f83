//! Seeded fault injection: typed fault schedules and the controller actor
//! that applies and heals them mid-run.
//!
//! ## Determinism contract
//!
//! Chaos runs must be bit-identical across repeated runs with the same
//! master seed. Two rules make that hold:
//!
//! 1. **The schedule is pre-generated, never drawn during the run.** A
//!    [`FaultSchedule`] is either built explicitly or generated from a
//!    *dedicated RNG stream* derived from the master seed (e.g.
//!    `DetRng::new(seed).derive_str("faults")`). [`DetRng::derive_str`] does
//!    not advance the parent, so the fault stream is decorrelated from — and
//!    independent of the consumption order of — every other stream in the
//!    simulation. The same seed therefore yields the same schedule no matter
//!    what else the run does.
//! 2. **Application is a single actor.** The [`FaultController`] converts
//!    the schedule into ordinary timed messages to itself at [`StartFaults`]
//!    time; the engine dispatches them in canonical-key order like any other
//!    event, so the interleaving of fault firings with workload traffic is
//!    identical on every run.
//!
//! Fault timers use [`Ctx::schedule_self_background`] (daemon timers), so a
//! pending heal far in the future never keeps [`Sim::run`](crate::Sim::run)
//! from quiescing once the workload itself has drained.
//!
//! The controller is deliberately ignorant of the stack above it: applying a
//! [`FaultKind`] to forwarders, API servers, or gateways is delegated to a
//! [`FaultHook`] closure supplied by the scenario harness, which maps each
//! kind onto the control messages of the world it built (face up/down,
//! node-ready flips, link degradation, FIB mutation, …). The controller owns
//! the *when* (timing, flapping, healing, metrics, the timeline); the hook
//! owns the *how*.

use std::fmt;

use crate::engine::{Actor, ActorId, Ctx, Msg, Sim};
use crate::time::{SimDuration, SimTime};

/// A typed fault. The taxonomy covers the adversities the LIDC paper's
/// location-independence claim must survive.
///
/// Targets are symbolic names (cluster names, link labels, node names);
/// resolving them to actor or face identifiers is the [`FaultHook`]'s job.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// An entire cluster becomes unreachable (its WAN attachment is cut).
    ClusterOutage {
        /// Cluster name.
        cluster: String,
    },
    /// A single worker node crashes (pods on it are lost).
    NodeCrash {
        /// Cluster the node belongs to.
        cluster: String,
        /// Node name within the cluster.
        node: String,
    },
    /// A link goes administratively down at both ends.
    LinkDown {
        /// Link label (by convention, the cluster whose WAN link it is).
        link: String,
    },
    /// A link stays up but degrades: latency multiplied, loss added.
    LinkDegrade {
        /// Link label.
        link: String,
        /// Multiplier applied to the link's propagation latency (≥ 1.0).
        latency_factor: f64,
        /// Additional loss probability added to the link's base loss.
        extra_loss: f64,
    },
    /// A producer (gateway/cluster) slows down: its link latency is
    /// multiplied without any loss, modelling an overloaded endpoint.
    SlowProducer {
        /// Producer label (cluster name).
        producer: String,
        /// Latency multiplier (≥ 1.0).
        factor: f64,
    },
    /// Routing goes stale: a prefix advertisement for one cluster is
    /// withdrawn without the cluster actually dying.
    StaleFib {
        /// The prefix whose route goes stale.
        prefix: String,
        /// Cluster whose advertisement is withdrawn.
        cluster: String,
    },
    /// A link corrupts a fraction of packets in flight. How a corrupted
    /// packet manifests is the receiving stack's choice: the NDN layer's
    /// legacy mode drops it *at the link* (an idealization), while its
    /// bit-flip mode delivers the damaged bytes downstream so signature
    /// verification catches them at the first verify point (see
    /// docs/INTEGRITY.md).
    PacketCorrupt {
        /// Link label.
        link: String,
        /// Per-packet corruption probability.
        probability: f64,
    },
    /// A producer turns byzantine: it keeps answering, but with wrong
    /// bytes. `signed = false` serves unsigned garbage (fails signature
    /// verification at the first hop); `signed = true` serves correctly
    /// signed Data under the wrong name (verifiable, but never matches
    /// the consumer's Interest, so it dies as unsolicited Data).
    ByzantineProducer {
        /// Cluster whose producer misbehaves.
        cluster: String,
        /// Whether the wrong bytes carry a valid signature.
        signed: bool,
    },
    /// A correlated region failure: one firing takes down the declared
    /// set of member clusters (and their WAN links) together, modelling
    /// a shared power/fiber domain rather than independent outages.
    RegionOutage {
        /// Region label.
        region: String,
        /// Member cluster names that fail and heal as one unit.
        members: Vec<String>,
    },
}

impl FaultKind {
    /// Stable per-kind metrics key under the `fault.` namespace.
    pub fn metric_key(&self) -> &'static str {
        match self {
            FaultKind::ClusterOutage { .. } => "fault.cluster_outage",
            FaultKind::NodeCrash { .. } => "fault.node_crash",
            FaultKind::LinkDown { .. } => "fault.link_down",
            FaultKind::LinkDegrade { .. } => "fault.link_degrade",
            FaultKind::SlowProducer { .. } => "fault.slow_producer",
            FaultKind::StaleFib { .. } => "fault.stale_fib",
            FaultKind::PacketCorrupt { .. } => "fault.packet_corrupt",
            FaultKind::ByzantineProducer { .. } => "fault.byzantine_producer",
            FaultKind::RegionOutage { .. } => "fault.region_outage",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::ClusterOutage { cluster } => write!(f, "cluster-outage({cluster})"),
            FaultKind::NodeCrash { cluster, node } => write!(f, "node-crash({cluster}/{node})"),
            FaultKind::LinkDown { link } => write!(f, "link-down({link})"),
            FaultKind::LinkDegrade { link, latency_factor, extra_loss } => {
                write!(f, "link-degrade({link} x{latency_factor} +loss={extra_loss})")
            }
            FaultKind::SlowProducer { producer, factor } => {
                write!(f, "slow-producer({producer} x{factor})")
            }
            FaultKind::StaleFib { prefix, cluster } => {
                write!(f, "stale-fib({prefix} @ {cluster})")
            }
            FaultKind::PacketCorrupt { link, probability } => {
                write!(f, "packet-corrupt({link} p={probability})")
            }
            FaultKind::ByzantineProducer { cluster, signed } => {
                write!(f, "byzantine-producer({cluster} signed={signed})")
            }
            FaultKind::RegionOutage { region, members } => {
                write!(f, "region-outage({region}: {})", members.join("+"))
            }
        }
    }
}

/// Whether a firing applies the fault or heals it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Apply the fault.
    Inject,
    /// Undo the fault (restore healthy state).
    Heal,
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Inject => write!(f, "inject"),
            FaultAction::Heal => write!(f, "heal"),
        }
    }
}

/// One timed fault: when it starts, how long it lasts, whether it flaps.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Offset from [`StartFaults`] at which the fault is injected.
    pub at: SimDuration,
    /// How long the fault persists before it is healed; `None` = permanent.
    pub duration: Option<SimDuration>,
    /// When set, the fault *flaps*: it toggles between injected and healed
    /// every `flap_period` for the whole `duration` (ignored when the fault
    /// is permanent). Models an unstable link rather than a clean cut.
    pub flap_period: Option<SimDuration>,
    /// What breaks.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// A fault injected at `at` and never healed.
    pub fn permanent(at: SimDuration, kind: FaultKind) -> Self {
        FaultEvent { at, duration: None, flap_period: None, kind }
    }

    /// A fault injected at `at` and healed after `duration`.
    pub fn transient(at: SimDuration, duration: SimDuration, kind: FaultKind) -> Self {
        FaultEvent { at, duration: Some(duration), flap_period: None, kind }
    }

    /// A flapping fault: toggles every `flap_period` within `duration`.
    pub fn flapping(
        at: SimDuration,
        duration: SimDuration,
        flap_period: SimDuration,
        kind: FaultKind,
    ) -> Self {
        FaultEvent { at, duration: Some(duration), flap_period: Some(flap_period), kind }
    }

    /// The individual `(offset, action)` firings this event expands to,
    /// in chronological order. A transient fault yields an inject and a
    /// heal; a flapping fault yields the full toggle train, always ending
    /// healed at `at + duration`.
    pub fn firings(&self) -> Vec<(SimDuration, FaultAction)> {
        let mut out = vec![(self.at, FaultAction::Inject)];
        let Some(duration) = self.duration else {
            return out;
        };
        let end = self.at + duration;
        if let Some(period) = self.flap_period {
            if !period.is_zero() {
                let mut t = self.at + period;
                let mut injected = true;
                while t < end {
                    injected = !injected;
                    out.push((t, if injected { FaultAction::Inject } else { FaultAction::Heal }));
                    t += period;
                }
            }
        }
        // Always end healed at the boundary (the flap loop stops strictly
        // before `end`, so this never duplicates a firing).
        out.push((end, FaultAction::Heal));
        out
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{} ", self.at)?;
        match self.duration {
            Some(d) => write!(f, "for {} ", d)?,
            None => write!(f, "permanent ")?,
        }
        if let Some(p) = self.flap_period {
            write!(f, "flap {} ", p)?;
        }
        write!(f, "{}", self.kind)
    }
}

/// An ordered collection of timed faults — the full chaos plan for a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Append an event (builder style).
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.push(event);
        self
    }

    /// Append an event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
        self.events.sort_by(|a, b| {
            a.at.cmp(&b.at).then_with(|| a.kind.to_string().cmp(&b.kind.to_string()))
        });
    }

    /// The events, sorted by injection time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A stable, human-readable dump of the schedule — one line per event.
    /// Two schedules are identical iff their fingerprints match; used by the
    /// determinism tests to compare schedules across runs.
    pub fn fingerprint(&self) -> String {
        let mut s = String::new();
        for e in &self.events {
            s.push_str(&e.to_string());
            s.push('\n');
        }
        s
    }

    /// Generate a randomized schedule from a *dedicated* RNG stream.
    ///
    /// Call with a stream derived from the master seed, e.g.
    /// `&mut DetRng::new(seed).derive_str("faults")` — never with a stream
    /// another component also draws from, or the schedule would depend on
    /// unrelated consumption order. Draws are made in a fixed order per
    /// event, so the same `(stream state, profile)` always yields the same
    /// schedule.
    pub fn generate(rng: &mut crate::rng::DetRng, profile: &ChaosProfile) -> Self {
        let mut schedule = FaultSchedule::new();
        let horizon = profile.horizon.as_nanos().max(1);
        let draw_at =
            |rng: &mut crate::rng::DetRng| SimDuration::from_nanos(rng.next_below(horizon));
        let draw_dur = |rng: &mut crate::rng::DetRng| {
            let mean = profile.mean_duration.as_secs_f64().max(1e-9);
            let d = rng.next_exponential(mean).clamp(mean * 0.1, mean * 4.0);
            SimDuration::from_secs_f64(d)
        };
        for _ in 0..profile.outages {
            let (at, dur) = (draw_at(rng), draw_dur(rng));
            if let Some(cluster) = rng.choose(&profile.clusters) {
                schedule.push(FaultEvent::transient(
                    at,
                    dur,
                    FaultKind::ClusterOutage { cluster: cluster.clone() },
                ));
            }
        }
        for _ in 0..profile.node_crashes {
            let (at, dur) = (draw_at(rng), draw_dur(rng));
            if let Some(cluster) = rng.choose(&profile.clusters) {
                let node = rng.next_below(profile.nodes_per_cluster.max(1) as u64);
                schedule.push(FaultEvent::transient(
                    at,
                    dur,
                    FaultKind::NodeCrash {
                        cluster: cluster.clone(),
                        node: format!("{cluster}-node-{node}"),
                    },
                ));
            }
        }
        for _ in 0..profile.link_degrades {
            let (at, dur) = (draw_at(rng), draw_dur(rng));
            if let Some(link) = rng.choose(&profile.links) {
                let latency_factor = 2.0 + rng.next_f64() * 8.0;
                let extra_loss = rng.next_f64() * 0.1;
                schedule.push(FaultEvent::transient(
                    at,
                    dur,
                    FaultKind::LinkDegrade { link: link.clone(), latency_factor, extra_loss },
                ));
            }
        }
        // The integrity kinds draw *after* the original three families so a
        // profile with `byzantine = region_outages = 0` consumes exactly the
        // draws it did before they existed (schedules stay stable per seed).
        for _ in 0..profile.byzantine {
            let (at, dur) = (draw_at(rng), draw_dur(rng));
            let signed = rng.next_bool(0.5);
            if let Some(cluster) = rng.choose(&profile.clusters) {
                schedule.push(FaultEvent::transient(
                    at,
                    dur,
                    FaultKind::ByzantineProducer { cluster: cluster.clone(), signed },
                ));
            }
        }
        for _ in 0..profile.region_outages {
            let (at, dur) = (draw_at(rng), draw_dur(rng));
            if let Some((region, members)) = rng.choose(&profile.regions) {
                schedule.push(FaultEvent::transient(
                    at,
                    dur,
                    FaultKind::RegionOutage { region: region.clone(), members: members.clone() },
                ));
            }
        }
        schedule
    }
}

/// Parameters for [`FaultSchedule::generate`].
#[derive(Debug, Clone)]
pub struct ChaosProfile {
    /// Faults are injected within `[0, horizon)`.
    pub horizon: SimDuration,
    /// Cluster names eligible for outages and node crashes.
    pub clusters: Vec<String>,
    /// Link labels eligible for degradation.
    pub links: Vec<String>,
    /// Nodes per cluster (node names are `<cluster>-node-<i>`, matching the
    /// names the chaos worlds give their Kubernetes nodes).
    pub nodes_per_cluster: usize,
    /// Number of cluster outages to draw.
    pub outages: usize,
    /// Number of node crashes to draw.
    pub node_crashes: usize,
    /// Number of link degradations to draw.
    pub link_degrades: usize,
    /// Number of byzantine-producer episodes to draw (default 0: the
    /// integrity kinds are opt-in so pre-existing seeds keep their
    /// schedules). Keep rates low — a byzantine producer poisons every
    /// answer it gives, so storms of them can starve a small federation.
    pub byzantine: usize,
    /// Number of correlated region outages to draw (default 0).
    pub region_outages: usize,
    /// Region definitions eligible for [`FaultKind::RegionOutage`]:
    /// `(region label, member clusters)`.
    pub regions: Vec<(String, Vec<String>)>,
    /// Mean fault duration (exponential, clamped to `[0.1, 4] × mean`).
    pub mean_duration: SimDuration,
}

impl Default for ChaosProfile {
    fn default() -> Self {
        ChaosProfile {
            horizon: SimDuration::from_secs(60),
            clusters: Vec::new(),
            links: Vec::new(),
            nodes_per_cluster: 3,
            outages: 1,
            node_crashes: 1,
            link_degrades: 1,
            byzantine: 0,
            region_outages: 0,
            regions: Vec::new(),
            mean_duration: SimDuration::from_secs(10),
        }
    }
}

/// Scenario-supplied applicator: maps a [`FaultKind`] onto the control
/// messages of the world the scenario built. Must be **idempotent** (a heal
/// of an already-healthy target, or a re-inject during a flap, is a no-op)
/// because flap trains can fire the same action twice at boundaries.
pub type FaultHook = Box<dyn FnMut(&FaultKind, FaultAction, &mut Ctx<'_>) + Send>;

/// Kick off a deployed [`FaultController`]'s schedule. All fault timers are
/// measured from the instant this message is handled.
pub struct StartFaults;

/// One scheduled firing (internal timer message).
struct Fire {
    idx: usize,
    action: FaultAction,
}

/// The actor that applies and heals faults per a [`FaultSchedule`].
///
/// On [`StartFaults`] it expands every event into its firing train and
/// schedules each firing as a background timer to itself; each firing calls
/// the [`FaultHook`], bumps `fault.injected` / `fault.healed` plus the
/// per-kind counter, and appends to the timeline.
pub struct FaultController {
    schedule: FaultSchedule,
    hook: FaultHook,
    timeline: Vec<(SimTime, String)>,
}

impl FaultController {
    /// Create a controller (not yet spawned) for `schedule`.
    pub fn new(schedule: FaultSchedule, hook: FaultHook) -> Self {
        FaultController { schedule, hook, timeline: Vec::new() }
    }

    /// Spawn a controller into `sim` and send it [`StartFaults`] so the
    /// schedule begins at the current instant. Returns the controller's id.
    pub fn deploy(sim: &mut Sim, schedule: FaultSchedule, hook: FaultHook) -> ActorId {
        let id = sim.spawn("fault-controller", FaultController::new(schedule, hook));
        sim.send(id, StartFaults);
        id
    }

    /// The chronological `(time, "action kind")` record of every firing.
    pub fn timeline(&self) -> &[(SimTime, String)] {
        &self.timeline
    }

    /// Stable text dump of the timeline — one line per firing. Used by the
    /// determinism tests and the golden files to compare runs.
    pub fn timeline_text(&self) -> String {
        let mut s = String::new();
        for (t, line) in &self.timeline {
            s.push_str(&format!("{t} {line}\n"));
        }
        s
    }

    /// The schedule this controller executes.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }
}

impl Actor for FaultController {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<StartFaults>() {
            Ok(_) => {
                for (idx, event) in self.schedule.events.iter().enumerate() {
                    for (offset, action) in event.firings() {
                        ctx.schedule_self_background(offset, Fire { idx, action });
                    }
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(fire) = msg.downcast::<Fire>() {
            let kind = self.schedule.events[fire.idx].kind.clone();
            (self.hook)(&kind, fire.action, ctx);
            match fire.action {
                FaultAction::Inject => ctx.metrics().incr("fault.injected", 1),
                FaultAction::Heal => ctx.metrics().incr("fault.healed", 1),
            }
            // lidc-lint: allow(metric-key) reason="kind.metric_key() expands to the fault.* family, every member of which is a registered constant in metrics_keys.rs"
            ctx.metrics().incr(kind.metric_key(), 1);
            self.timeline.push((ctx.now(), format!("{} {}", fire.action, kind)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn outage(c: &str) -> FaultKind {
        FaultKind::ClusterOutage { cluster: c.into() }
    }

    #[test]
    fn transient_fault_fires_inject_then_heal() {
        let e = FaultEvent::transient(
            SimDuration::from_secs(5),
            SimDuration::from_secs(10),
            outage("a"),
        );
        assert_eq!(
            e.firings(),
            vec![
                (SimDuration::from_secs(5), FaultAction::Inject),
                (SimDuration::from_secs(15), FaultAction::Heal),
            ]
        );
    }

    #[test]
    fn permanent_fault_never_heals() {
        let e = FaultEvent::permanent(SimDuration::from_secs(1), outage("a"));
        assert_eq!(e.firings(), vec![(SimDuration::from_secs(1), FaultAction::Inject)]);
    }

    #[test]
    fn flapping_fault_toggles_and_ends_healed() {
        let e = FaultEvent::flapping(
            SimDuration::from_secs(0),
            SimDuration::from_secs(10),
            SimDuration::from_secs(3),
            outage("a"),
        );
        let f = e.firings();
        assert_eq!(f.first().unwrap().1, FaultAction::Inject);
        assert_eq!(*f.last().unwrap(), (SimDuration::from_secs(10), FaultAction::Heal));
        // 0:inject, 3:heal, 6:inject, 9:heal, 10:heal(final)
        assert_eq!(f.len(), 5);
        for pair in f.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "chronological");
        }
    }

    #[test]
    fn generate_is_deterministic_per_stream() {
        let profile = ChaosProfile {
            clusters: vec!["a".into(), "b".into()],
            links: vec!["a".into(), "b".into()],
            outages: 3,
            node_crashes: 3,
            link_degrades: 3,
            ..Default::default()
        };
        let root = DetRng::new(42);
        let s1 = FaultSchedule::generate(&mut root.derive_str("faults"), &profile);
        // Consuming a sibling stream must not perturb the fault stream.
        let mut sibling = root.derive_str("workload");
        for _ in 0..100 {
            sibling.next_u64();
        }
        let s2 = FaultSchedule::generate(&mut root.derive_str("faults"), &profile);
        assert_eq!(s1.fingerprint(), s2.fingerprint());
        assert_eq!(s1.len(), 9);
    }

    #[test]
    fn generate_draws_integrity_kinds_after_legacy_families() {
        let legacy = ChaosProfile {
            clusters: vec!["a".into(), "b".into()],
            links: vec!["a".into(), "b".into()],
            ..Default::default()
        };
        let extended = ChaosProfile {
            byzantine: 2,
            region_outages: 1,
            regions: vec![("west-coast".into(), vec!["a".into(), "b".into()])],
            ..legacy.clone()
        };
        let root = DetRng::new(7);
        let s_legacy = FaultSchedule::generate(&mut root.derive_str("faults"), &legacy);
        let s_ext = FaultSchedule::generate(&mut root.derive_str("faults"), &extended);
        // The legacy families draw first, so their events are byte-identical
        // whether or not the integrity kinds are enabled.
        for e in s_legacy.events() {
            assert!(s_ext.events().contains(e), "legacy event perturbed: {e}");
        }
        assert_eq!(s_ext.len(), s_legacy.len() + 3);
        let byz = s_ext
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::ByzantineProducer { .. }))
            .count();
        let region = s_ext
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::RegionOutage { .. }))
            .count();
        assert_eq!((byz, region), (2, 1));
        assert!(s_ext.fingerprint().contains("region-outage(west-coast: a+b)"));
    }

    #[test]
    fn controller_fires_hooks_and_records_timeline() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;

        let schedule = FaultSchedule::new()
            .with(FaultEvent::transient(
                SimDuration::from_secs(1),
                SimDuration::from_secs(2),
                outage("edge"),
            ))
            .with(FaultEvent::permanent(SimDuration::from_secs(2), outage("core")));
        let injects = Arc::new(AtomicU32::new(0));
        let heals = Arc::new(AtomicU32::new(0));
        let (i2, h2) = (injects.clone(), heals.clone());
        let mut sim = Sim::new(7);
        let ctl = FaultController::deploy(
            &mut sim,
            schedule,
            Box::new(move |_kind, action, _ctx| match action {
                FaultAction::Inject => {
                    i2.fetch_add(1, Ordering::SeqCst);
                }
                FaultAction::Heal => {
                    h2.fetch_add(1, Ordering::SeqCst);
                }
            }),
        );
        // Fault timers are background; a foreground event must outlast them.
        struct Sink;
        impl Actor for Sink {
            fn on_message(&mut self, _msg: Msg, _ctx: &mut Ctx<'_>) {}
        }
        struct Tick;
        let sink = sim.spawn("sink", Sink);
        sim.send_after(SimDuration::from_secs(10), sink, Tick);
        sim.run();
        assert_eq!(injects.load(Ordering::SeqCst), 2);
        assert_eq!(heals.load(Ordering::SeqCst), 1);
        let ctl = sim.actor::<FaultController>(ctl).unwrap();
        assert_eq!(ctl.timeline().len(), 3);
        assert!(ctl.timeline_text().contains("inject cluster-outage(edge)"));
        assert!(ctl.timeline_text().contains("heal cluster-outage(edge)"));
        assert_eq!(sim.metrics_ref().counter("fault.injected"), 2);
        assert_eq!(sim.metrics_ref().counter("fault.healed"), 1);
        assert_eq!(sim.metrics_ref().counter("fault.cluster_outage"), 3);
    }
}
