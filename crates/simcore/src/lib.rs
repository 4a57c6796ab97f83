//! # lidc-simcore — deterministic discrete-event simulation core
//!
//! Every subsystem in the LIDC reproduction (the NDN forwarders, the
//! Kubernetes control planes, the gateways, the WAN links) runs on top of
//! this crate. It provides:
//!
//! * **Virtual time** ([`SimTime`], [`SimDuration`]) with integer-nanosecond
//!   resolution and paper-style formatting (`8h9m50s`).
//! * **A discrete-event engine** ([`Sim`]) that dispatches typed messages to
//!   registered [`Actor`]s in deterministic `(time, sent_at, source, seq)`
//!   order.
//! * **Deterministic randomness** ([`DetRng`]) — a single `u64` seed fans out
//!   into independent, reproducible streams.
//! * **Metrics** ([`Metrics`], [`Histogram`]) and **report emission**
//!   ([`Table`], [`Report`]) used by the experiment harnesses to regenerate
//!   the paper's tables.
//!
//! The engine is one serial loop, and determinism is a design requirement
//! (docs/DETERMINISM.md): the same seed yields the same schedule, every
//! metric readout, every reply, and every actor end state. Events dispatch
//! in canonical-key order, and [`engine::Ctx::rng`] draws from a stream
//! derived per actor from the master seed (see [`engine`]'s module docs).
//! Real parallelism is used only where real computation happens (the
//! genomics aligner kernel).
//!
//! ## Example
//!
//! ```
//! use lidc_simcore::prelude::*;
//!
//! struct Ping { peer: Option<ActorId>, got: u32 }
//! struct Tick;
//!
//! impl Actor for Ping {
//!     fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
//!         if msg.downcast::<Tick>().is_ok() {
//!             self.got += 1;
//!             if let Some(p) = self.peer {
//!                 ctx.send_after(SimDuration::from_millis(5), p, Tick);
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(42);
//! let a = sim.spawn("a", Ping { peer: None, got: 0 });
//! let b = sim.spawn("b", Ping { peer: Some(a), got: 0 });
//! sim.send(b, Tick);
//! sim.run();
//! assert_eq!(sim.actor::<Ping>(a).unwrap().got, 1);
//! assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(5));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bytesize;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod metrics_keys;
pub mod report;
pub mod rng;
pub mod time;

pub use bytesize::{format_bytes, parse_bytes, ByteSize};
pub use engine::{Actor, ActorId, Ctx, Msg, Sim};
pub use faults::{
    ChaosProfile, FaultAction, FaultController, FaultEvent, FaultHook, FaultKind, FaultSchedule,
    StartFaults,
};
pub use metrics::{Histogram, HistogramSummary, Metrics};
pub use report::{Report, Table};
pub use rng::{DetRng, SplitMix64};
pub use time::{SimDuration, SimTime};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::bytesize::{format_bytes, ByteSize};
    pub use crate::engine::{Actor, ActorId, Ctx, Msg, Sim};
    pub use crate::faults::{
        FaultAction, FaultController, FaultEvent, FaultKind, FaultSchedule, StartFaults,
    };
    pub use crate::metrics::{Histogram, Metrics};
    pub use crate::report::{Report, Table};
    pub use crate::rng::DetRng;
    pub use crate::time::{SimDuration, SimTime};
}
