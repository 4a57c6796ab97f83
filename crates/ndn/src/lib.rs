//! # lidc-ndn — Named Data Networking substrate
//!
//! A from-scratch NDN implementation sufficient to reproduce the LIDC
//! paper's network layer (DESIGN.md §2: the NFD substitution):
//!
//! * [`name`] — hierarchical names with URI parse/print and canonical order.
//! * [`tlv`] — the NDN v0.3 Type-Length-Value wire encoding.
//! * [`packet`] — Interest / Data / NACK packets with signatures.
//! * [`crypto`] — SHA-256 and HMAC-SHA256 (no external crypto crates), on
//!   a SHA-NI kernel where the CPU has one.
//! * [`tables`] — FIB (longest-prefix match), PIT (aggregation), CS (LRU
//!   cache with freshness).
//! * [`strategy`] — best-route, multicast, round-robin, and smoothed-RTT
//!   adaptive forwarding strategies.
//! * [`forwarder`] — the NFD-like forwarding daemon as a simulation actor.
//! * [`net`] — topology wiring (links with latency/bandwidth/loss).
//! * [`app`] — consumer (with retransmission) and producer helpers.
//!
//! ## A two-node example
//!
//! ```
//! use lidc_ndn::prelude::*;
//! use lidc_ndn::name;
//! use lidc_simcore::prelude::*;
//!
//! let mut sim = Sim::new(7);
//! let alloc = FaceIdAlloc::new();
//! let a = sim.spawn("fwd-a", Forwarder::new("a", ForwarderConfig::default()));
//! let b = sim.spawn("fwd-b", Forwarder::new("b", ForwarderConfig::default()));
//! let (fa, _fb) = lidc_ndn::net::connect(
//!     &mut sim, a, b, &alloc,
//!     LinkProps::with_latency(SimDuration::from_millis(5)),
//! );
//! // Route /data through the link from a's side.
//! sim.actor_mut::<Forwarder>(a).unwrap().register_prefix(name!("/data"), fa, 0);
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: `crypto::compress_blocks` allows the crate's one
// `unsafe` block, the feature-checked call into the SHA-NI kernel.
#![deny(unsafe_code)]

pub mod app;
pub mod crypto;
pub mod face;
pub mod forwarder;
pub mod fxhash;
#[macro_use]
pub mod name;
pub mod net;
pub mod packet;
pub mod strategy;
pub mod tables;
pub mod tlv;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::app::{Consumer, ConsumerEvent, Producer, RetxTimer};
    pub use crate::face::{Face, FaceId, FaceIdAlloc, FaceKind, LinkProps};
    pub use crate::forwarder::{
        AddFace, AppRx, DegradeLink, Forwarder, ForwarderConfig, RegisterPrefix, RemoveFace, Rx,
        SetFaceUp, SetStrategy, UnregisterPrefix,
    };
    pub use crate::name::{Name, NameComponent};
    pub use crate::packet::{
        ContentType, Data, Interest, Nack, NackReason, Packet, Signature, SignatureType,
    };
    pub use crate::strategy::{BestRoute, Multicast, RoundRobin, RttEstimating, Strategy};
    pub use crate::tables::cs::ContentStore;
    pub use crate::tables::fib::{Fib, NextHop};
    pub use crate::tables::pit::{Pit, PitKey};
}
