//! Topology wiring helpers.
//!
//! Links are symmetric: [`connect`] creates a face on each forwarder
//! pointing at the other, sharing the same [`LinkProps`]. Applications
//! attach through [`attach_app`], which creates the app's face on the
//! forwarder (the application addresses the forwarder with [`Rx`] messages
//! tagged with that face id, and receives [`crate::forwarder::AppRx`]).
//!
//! Links are **wire-batched**: a forwarder stages every outbound packet
//! during a handler invocation and flushes same-(link, arrival) groups as
//! single [`RxBatch`] scheduler events (see `forwarder.rs` module docs).
//! Burst injectors should use [`inject_batch`]/[`inject_burst`] so a whole
//! same-instant burst costs one event on the ingress side too.

use lidc_simcore::engine::{ActorId, Ctx, Sim};

use crate::face::{Face, FaceId, FaceIdAlloc, FaceKind, LinkProps};
use crate::forwarder::{Forwarder, Rx, RxBatch};
use crate::packet::Packet;

/// Connect two forwarders with a symmetric link (pre-run, by direct state
/// access). Returns `(face on a, face on b)`.
///
/// # Panics
/// Panics if either actor is not a [`Forwarder`].
pub fn connect(
    sim: &mut Sim,
    a: ActorId,
    b: ActorId,
    alloc: &FaceIdAlloc,
    props: LinkProps,
) -> (FaceId, FaceId) {
    let fa = alloc.alloc();
    let fb = alloc.alloc();
    sim.actor_mut::<Forwarder>(a)
        .expect("actor a is a Forwarder")
        .add_face(Face::new(
            fa,
            FaceKind::Link {
                peer: b,
                peer_face: fb,
                props,
            },
        ));
    sim.actor_mut::<Forwarder>(b)
        .expect("actor b is a Forwarder")
        .add_face(Face::new(
            fb,
            FaceKind::Link {
                peer: a,
                peer_face: fa,
                props,
            },
        ));
    (fa, fb)
}

/// Attach an application actor to a forwarder (pre-run). Returns the app's
/// face id on the forwarder.
///
/// # Panics
/// Panics if `fwd` is not a [`Forwarder`].
pub fn attach_app(sim: &mut Sim, fwd: ActorId, app: ActorId, alloc: &FaceIdAlloc) -> FaceId {
    let id = alloc.alloc();
    sim.actor_mut::<Forwarder>(fwd)
        .expect("fwd is a Forwarder")
        .add_face(Face::new(id, FaceKind::App { actor: app }));
    id
}

/// Inject a packet into a forwarder as if it arrived on `face` (application
/// send path).
pub fn inject(ctx: &mut Ctx<'_>, fwd: ActorId, face: FaceId, packet: Packet) {
    ctx.send(fwd, Rx { face, packet });
}

/// Inject a same-instant burst of packets as one scheduler event (the
/// wire-batch ingress path). No-op for an empty burst.
pub fn inject_batch(ctx: &mut Ctx<'_>, fwd: ActorId, face: FaceId, packets: Vec<Packet>) {
    if packets.is_empty() {
        return;
    }
    ctx.send(fwd, RxBatch { face, packets });
}

/// [`inject_batch`] from outside a handler (harness/bench use).
pub fn inject_burst(sim: &mut Sim, fwd: ActorId, face: FaceId, packets: Vec<Packet>) {
    if packets.is_empty() {
        return;
    }
    sim.send(fwd, RxBatch { face, packets });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forwarder::ForwarderConfig;
    use lidc_simcore::time::SimDuration;

    #[test]
    fn connect_installs_symmetric_faces() {
        let mut sim = Sim::new(0);
        let alloc = FaceIdAlloc::new();
        let a = sim.spawn("a", Forwarder::new("a", ForwarderConfig::default()));
        let b = sim.spawn("b", Forwarder::new("b", ForwarderConfig::default()));
        let props = LinkProps::with_latency(SimDuration::from_millis(10));
        let (fa, fb) = connect(&mut sim, a, b, &alloc, props);
        let fwd_a = sim.actor::<Forwarder>(a).unwrap();
        let face_a = fwd_a.face(fa).unwrap();
        match &face_a.kind {
            FaceKind::Link {
                peer, peer_face, ..
            } => {
                assert_eq!(*peer, b);
                assert_eq!(*peer_face, fb);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        let fwd_b = sim.actor::<Forwarder>(b).unwrap();
        assert!(fwd_b.face(fb).is_some());
        assert_ne!(fa, fb, "world-unique ids");
    }

    #[test]
    fn attach_app_creates_app_face() {
        use lidc_simcore::engine::{Actor, Ctx as ECtx, Msg};
        struct Nop;
        impl Actor for Nop {
            fn on_message(&mut self, _m: Msg, _c: &mut ECtx<'_>) {}
        }
        let mut sim = Sim::new(0);
        let alloc = FaceIdAlloc::new();
        let fwd = sim.spawn("fwd", Forwarder::new("fwd", ForwarderConfig::default()));
        let app = sim.spawn("app", Nop);
        let face = attach_app(&mut sim, fwd, app, &alloc);
        let f = sim.actor::<Forwarder>(fwd).unwrap().face(face).unwrap();
        assert!(f.is_app());
    }
}
