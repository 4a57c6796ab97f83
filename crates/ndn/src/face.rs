//! Faces: the forwarder's attachment points.
//!
//! A face is either a **link** to a peer forwarder (with latency, bandwidth
//! and loss — the WAN model) or an **application** face to a local producer
//! or consumer actor. Face ids are allocated by a [`FaceIdAlloc`] owned by
//! the testbed builder so ids stay unique across a whole simulated world
//! (and deterministic: the allocator is just a counter).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lidc_simcore::engine::ActorId;
use lidc_simcore::time::{SimDuration, SimTime};

/// Identifies a face. Unique within a simulated world.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaceId(u64);

impl FaceId {
    /// Construct from a raw id (tests and allocators).
    pub const fn from_raw(id: u64) -> Self {
        FaceId(id)
    }

    /// The raw id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for FaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "face{}", self.0)
    }
}

impl fmt::Display for FaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "face{}", self.0)
    }
}

/// Allocates world-unique face ids. Cheap to clone; all clones share the
/// counter. Determinism holds because the simulation is single-threaded.
#[derive(Clone, Default)]
pub struct FaceIdAlloc {
    next: Arc<AtomicU64>,
}

impl FaceIdAlloc {
    /// New allocator starting at 1 (0 is reserved as "invalid" by
    /// convention, though nothing enforces it).
    pub fn new() -> Self {
        FaceIdAlloc {
            next: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Allocate the next id.
    pub fn alloc(&self) -> FaceId {
        FaceId(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

impl fmt::Debug for FaceIdAlloc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FaceIdAlloc(next={})", self.next.load(Ordering::Relaxed))
    }
}

/// Properties of the link behind a link face.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProps {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Link rate in bits/second; `None` means infinite (no serialisation
    /// delay).
    pub bandwidth_bps: Option<u64>,
    /// Independent per-packet loss probability in `[0, 1]`.
    pub loss: f64,
    /// Runtime degradation: multiplier on `latency` (1.0 = healthy). Fault
    /// injection flips this mid-run; [`LinkProps::effective_latency`] applies
    /// it.
    pub latency_factor: f64,
    /// Runtime degradation: loss probability *added* to `loss` (0.0 =
    /// healthy). Applied by [`LinkProps::effective_loss`].
    pub extra_loss: f64,
    /// Runtime degradation: per-packet corruption probability. The
    /// forwarder flips one seeded bit of a corrupted Data in flight and
    /// lets signature verification catch the damage downstream; a
    /// corrupted Interest or Nack is dropped at the link.
    pub corrupt: f64,
}

impl Default for LinkProps {
    fn default() -> Self {
        LinkProps {
            latency: SimDuration::from_micros(100),
            bandwidth_bps: None,
            loss: 0.0,
            latency_factor: 1.0,
            extra_loss: 0.0,
            corrupt: 0.0,
        }
    }
}

impl LinkProps {
    /// A lossless link with the given latency and unlimited bandwidth.
    pub fn with_latency(latency: SimDuration) -> Self {
        LinkProps {
            latency,
            ..Default::default()
        }
    }

    /// Serialisation (transmission) delay for a packet of `bytes` bytes.
    pub fn transmit_time(&self, bytes: usize) -> SimDuration {
        match self.bandwidth_bps {
            None => SimDuration::ZERO,
            Some(bps) => {
                let secs = (bytes as f64 * 8.0) / bps as f64;
                SimDuration::from_secs_f64(secs)
            }
        }
    }

    /// Propagation delay with the runtime degradation factor applied.
    pub fn effective_latency(&self) -> SimDuration {
        if self.latency_factor == 1.0 {
            self.latency
        } else {
            self.latency.mul_f64(self.latency_factor.max(0.0))
        }
    }

    /// Loss probability with the runtime degradation added, clamped to
    /// `[0, 1]`.
    pub fn effective_loss(&self) -> f64 {
        (self.loss + self.extra_loss).clamp(0.0, 1.0)
    }

    /// Reset all runtime degradation (latency factor, extra loss,
    /// corruption) to healthy values. Base `latency`/`loss` are untouched.
    pub fn heal(&mut self) {
        self.latency_factor = 1.0;
        self.extra_loss = 0.0;
        self.corrupt = 0.0;
    }
}

/// What is on the other end of a face.
#[derive(Debug, Clone, PartialEq)]
pub enum FaceKind {
    /// A peer forwarder; packets delivered to `peer` arrive tagged with
    /// `peer_face` (the peer's view of this link).
    Link {
        /// The peer forwarder actor.
        peer: ActorId,
        /// The face id the peer assigned to this link.
        peer_face: FaceId,
        /// Link properties (symmetric by construction in the builder).
        props: LinkProps,
    },
    /// A local application (producer/consumer/gateway) actor.
    App {
        /// The application actor.
        actor: ActorId,
    },
}

/// Per-face packet counters (mirrors NFD's face counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaceCounters {
    /// Interests received on this face.
    pub in_interests: u64,
    /// Interests sent out this face.
    pub out_interests: u64,
    /// Data received on this face.
    pub in_data: u64,
    /// Data sent out this face.
    pub out_data: u64,
    /// Nacks received.
    pub in_nacks: u64,
    /// Nacks sent.
    pub out_nacks: u64,
    /// Packets dropped by the loss model when sending on this face.
    pub dropped: u64,
}

/// A face table entry.
#[derive(Debug, Clone)]
pub struct Face {
    /// This face's id.
    pub id: FaceId,
    /// What's attached.
    pub kind: FaceKind,
    /// Administrative and link state; a down face sends nothing.
    pub up: bool,
    /// Counters.
    pub counters: FaceCounters,
    /// The link is busy transmitting until this instant (FIFO queueing).
    pub busy_until: SimTime,
}

impl Face {
    /// Create an up face.
    pub fn new(id: FaceId, kind: FaceKind) -> Self {
        Face {
            id,
            kind,
            up: true,
            counters: FaceCounters::default(),
            busy_until: SimTime::ZERO,
        }
    }

    /// True if this is an application face.
    pub fn is_app(&self) -> bool {
        matches!(self.kind, FaceKind::App { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_sequential_and_shared() {
        let alloc = FaceIdAlloc::new();
        let clone = alloc.clone();
        assert_eq!(alloc.alloc(), FaceId::from_raw(1));
        assert_eq!(clone.alloc(), FaceId::from_raw(2));
        assert_eq!(alloc.alloc(), FaceId::from_raw(3));
    }

    #[test]
    fn transmit_time_zero_without_bandwidth() {
        let props = LinkProps::with_latency(SimDuration::from_millis(5));
        assert_eq!(props.transmit_time(1_000_000), SimDuration::ZERO);
    }

    #[test]
    fn transmit_time_scales_with_size() {
        let props = LinkProps {
            latency: SimDuration::ZERO,
            bandwidth_bps: Some(8_000_000), // 1 MB/s
            ..Default::default()
        };
        assert_eq!(props.transmit_time(1_000_000), SimDuration::from_secs(1));
        assert_eq!(props.transmit_time(500_000), SimDuration::from_millis(500));
        assert_eq!(props.transmit_time(0), SimDuration::ZERO);
    }

    #[test]
    fn face_kind_predicates() {
        use lidc_simcore::engine::ActorId;
        // ActorId has no public constructor besides Sim::spawn; fabricate via
        // a tiny sim.
        use lidc_simcore::engine::{Actor, Ctx, Msg, Sim};
        struct Nop;
        impl Actor for Nop {
            fn on_message(&mut self, _m: Msg, _c: &mut Ctx<'_>) {}
        }
        let mut sim = Sim::new(0);
        let a: ActorId = sim.spawn("nop", Nop);
        let app = Face::new(FaceId::from_raw(1), FaceKind::App { actor: a });
        assert!(app.is_app());
        let link = Face::new(
            FaceId::from_raw(2),
            FaceKind::Link {
                peer: a,
                peer_face: FaceId::from_raw(3),
                props: LinkProps::default(),
            },
        );
        assert!(!link.is_app());
        assert!(link.up);
    }
}
