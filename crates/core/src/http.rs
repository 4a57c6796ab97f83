//! HTTP(S) front-end for the LIDC framework (§II: "HTTP(s)-based naming of
//! computational jobs can also match them to appropriate endpoints").
//!
//! The [`HttpBridge`] is a protocol translator deployed next to any NDN
//! forwarder: it accepts (simulated) HTTP requests, rewrites them into the
//! same semantic names the NDN clients use, expresses the Interests, and
//! maps the replies back onto HTTP status codes. Science users who cannot
//! speak NDN still get location-independent compute:
//!
//! | HTTP | NDN name |
//! |---|---|
//! | `POST /compute?mem=4&cpu=2&app=BLAST&srr=…` | `/ndn/k8s/compute/mem=4&cpu=2&…` |
//! | `GET /status/<cluster>/<job>` | `/ndn/k8s/status/<cluster>/<job>` |
//! | `GET /data/<path…>` | `/ndn/k8s/data/<path…>` |

use std::collections::HashMap;

use lidc_ndn::app::{Consumer, ConsumerEvent, RetxTimer};
use lidc_ndn::face::FaceIdAlloc;
use lidc_ndn::forwarder::AppRx;
use lidc_ndn::name::Name;
use lidc_ndn::net::attach_app;
use lidc_ndn::packet::{ContentType, Interest};
use lidc_simcore::engine::{Actor, ActorId, Ctx, Msg, Sim};
use lidc_simcore::time::SimDuration;

use crate::naming::{compute_prefix, data_prefix, status_prefix, ComputeRequest};

/// A minimal HTTP request (the simulation carries no headers/bodies beyond
/// what the bridge needs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// `GET` / `POST`.
    pub method: String,
    /// Path plus optional query string, e.g. `/compute?app=BLAST&cpu=2`.
    pub target: String,
}

impl HttpRequest {
    /// Convenience constructor.
    pub fn new(method: impl Into<String>, target: impl Into<String>) -> Self {
        HttpRequest {
            method: method.into(),
            target: target.into(),
        }
    }
}

/// A minimal HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (`202` accepted, `200` ok, `400/404/502/504`).
    pub status: u16,
    /// Body text/bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Send an HTTP request through the bridge; the bridge answers the sender
/// with an [`HttpReply`] carrying the same `tag`.
#[derive(Debug)]
pub struct HttpCall {
    /// The request.
    pub request: HttpRequest,
    /// Who receives the [`HttpReply`].
    pub reply_to: ActorId,
    /// Correlation tag echoed in the reply.
    pub tag: u64,
}

/// The bridge's answer to an [`HttpCall`].
#[derive(Debug)]
pub struct HttpReply {
    /// Correlation tag from the call.
    pub tag: u64,
    /// The response.
    pub response: HttpResponse,
}

struct PendingHttp {
    reply_to: ActorId,
    tag: u64,
}

/// The HTTP→NDN protocol translator actor.
pub struct HttpBridge {
    consumer: Option<Consumer>,
    /// Target name → waiting callers, in arrival order. Identical calls
    /// share one Interest, so one reply (or NACK, or timeout) answers
    /// every caller waiting on the name.
    pending: HashMap<Name, Vec<PendingHttp>>,
    /// Requests translated (diagnostics).
    pub translated: u64,
    /// Requests rejected before hitting the network (diagnostics).
    pub rejected: u64,
}

impl HttpBridge {
    /// Deploy a bridge attached to `fwd` (an access router or a cluster's
    /// gateway NFD).
    pub fn deploy(
        sim: &mut Sim,
        fwd: ActorId,
        alloc: &FaceIdAlloc,
        label: impl Into<String>,
    ) -> ActorId {
        let bridge = sim.spawn(label.into(), HttpBridge {
            consumer: None,
            pending: HashMap::new(),
            translated: 0,
            rejected: 0,
        });
        let face = attach_app(sim, fwd, bridge, alloc);
        sim.actor_mut::<HttpBridge>(bridge).unwrap().consumer = Some(Consumer::new(fwd, face));
        bridge
    }

    /// Rewrite an HTTP target into the NDN name it denotes.
    pub fn translate(request: &HttpRequest) -> Result<Name, HttpResponse> {
        let target = request.target.as_str();
        if let Some(query) = target
            .strip_prefix("/compute?")
            .or_else(|| target.strip_prefix("/compute/?"))
        {
            let url = format!("https://lidc/compute?{query}");
            return match ComputeRequest::from_http_url(&url) {
                Ok(req) => Ok(req.to_name()),
                Err(e) => Err(HttpResponse {
                    status: 400,
                    body: format!("bad compute query: {e:?}").into_bytes(),
                }),
            };
        }
        if let Some(rest) = target.strip_prefix("/status/") {
            let mut name = status_prefix();
            for part in rest.split('/').filter(|p| !p.is_empty()) {
                name = name.child_str(part);
            }
            if name.len() == status_prefix().len() {
                return Err(HttpResponse {
                    status: 400,
                    body: b"missing job id".to_vec(),
                });
            }
            return Ok(name);
        }
        if let Some(rest) = target.strip_prefix("/data/") {
            let mut name = data_prefix();
            for part in rest.split('/').filter(|p| !p.is_empty()) {
                name = name.child_str(part);
            }
            if name.len() == data_prefix().len() {
                return Err(HttpResponse {
                    status: 400,
                    body: b"missing data path".to_vec(),
                });
            }
            return Ok(name);
        }
        Err(HttpResponse {
            status: 404,
            body: format!("no such route: {target}").into_bytes(),
        })
    }

    fn success_status(name: &Name) -> u16 {
        // Compute submissions are accepted-for-processing; reads are plain OK.
        if compute_prefix().is_prefix_of(name) {
            202
        } else {
            200
        }
    }

    fn respond(&mut self, name: &Name, response: HttpResponse, ctx: &mut Ctx<'_>) {
        for pending in self.pending.remove(name).unwrap_or_default() {
            ctx.send(pending.reply_to, HttpReply {
                tag: pending.tag,
                response: response.clone(),
            });
        }
    }
}

impl Actor for HttpBridge {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<HttpCall>() {
            Ok(call) => {
                match Self::translate(&call.request) {
                    Ok(name) => {
                        self.translated += 1;
                        ctx.metrics().incr("http.translated", 1);
                        self.pending.entry(name.clone()).or_default().push(PendingHttp {
                            reply_to: call.reply_to,
                            tag: call.tag,
                        });
                        let must_be_fresh = !data_prefix().is_prefix_of(&name);
                        let interest = Interest::new(name)
                            .must_be_fresh(must_be_fresh)
                            .with_lifetime(SimDuration::from_secs(4));
                        self.consumer
                            .as_mut()
                            // lidc-lint: allow(panic-path) reason="deploy() installs the consumer before the bridge id escapes, so no message can arrive while it is None"
                            .expect("deployed")
                            .express(ctx, interest, 2);
                    }
                    Err(response) => {
                        self.rejected += 1;
                        ctx.metrics().incr("http.rejected", 1);
                        ctx.send(call.reply_to, HttpReply {
                            tag: call.tag,
                            response,
                        });
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<AppRx>() {
            Ok(rx) => {
                // lidc-lint: allow(panic-path) reason="deploy() installs the consumer before the bridge id escapes, so no message can arrive while it is None"
                match self.consumer.as_mut().expect("deployed").on_app_rx(&rx) {
                    Some(ConsumerEvent::Data(data)) => {
                        let name = data.name.clone();
                        let response = if data.content_type == ContentType::Nack {
                            HttpResponse {
                                status: 404,
                                body: data.content.to_vec(),
                            }
                        } else {
                            HttpResponse {
                                status: Self::success_status(&name),
                                body: data.content.to_vec(),
                            }
                        };
                        self.respond(&name, response, ctx);
                    }
                    Some(ConsumerEvent::Nack(reason, interest)) => {
                        let response = HttpResponse {
                            status: 502,
                            body: format!("network nack: {reason:?}").into_bytes(),
                        };
                        self.respond(&interest.name.clone(), response, ctx);
                    }
                    Some(ConsumerEvent::Timeout(interest)) => {
                        let response = HttpResponse {
                            status: 504,
                            body: b"gateway timeout".to_vec(),
                        };
                        self.respond(&interest.name.clone(), response, ctx);
                    }
                    None => {}
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(t) = msg.downcast::<RetxTimer>() {
            if let Some(ConsumerEvent::Timeout(interest)) =
                // lidc-lint: allow(panic-path) reason="deploy() installs the consumer before the bridge id escapes, so no message can arrive while it is None"
                self.consumer.as_mut().expect("deployed").on_timer(ctx, &t)
            {
                let response = HttpResponse {
                    status: 504,
                    body: b"gateway timeout".to_vec(),
                };
                self.respond(&interest.name.clone(), response, ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{LidcCluster, LidcClusterConfig};
    use crate::status::SubmitAck;
    use lidc_simcore::engine::Sim;

    /// Test double collecting HTTP replies.
    struct WebUser {
        replies: Vec<(u64, HttpResponse)>,
    }
    impl Actor for WebUser {
        fn on_message(&mut self, msg: Msg, _ctx: &mut Ctx<'_>) {
            if let Ok(r) = msg.downcast::<HttpReply>() {
                self.replies.push((r.tag, r.response));
            }
        }
    }

    fn world() -> (Sim, LidcCluster, ActorId, ActorId) {
        let mut sim = Sim::new(9);
        let alloc = FaceIdAlloc::new();
        let cluster = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig::named("edge"));
        let bridge = HttpBridge::deploy(&mut sim, cluster.gateway_fwd, &alloc, "http-bridge");
        let user = sim.spawn("browser", WebUser { replies: vec![] });
        (sim, cluster, bridge, user)
    }

    fn call(sim: &mut Sim, bridge: ActorId, user: ActorId, tag: u64, method: &str, target: &str) {
        sim.send(bridge, HttpCall {
            request: HttpRequest::new(method, target),
            reply_to: user,
            tag,
        });
    }

    #[test]
    fn translation_table() {
        let name = HttpBridge::translate(&HttpRequest::new(
            "POST",
            "/compute?mem=4&cpu=2&app=BLAST&srr=SRR2931415&ref=HUMAN",
        ))
        .unwrap();
        assert!(compute_prefix().is_prefix_of(&name));
        let name =
            HttpBridge::translate(&HttpRequest::new("GET", "/status/edge/job-0")).unwrap();
        assert_eq!(name.to_uri(), "/ndn/k8s/status/edge/job-0");
        let name = HttpBridge::translate(&HttpRequest::new("GET", "/data/sra/SRR2931415")).unwrap();
        assert_eq!(name.to_uri(), "/ndn/k8s/data/sra/SRR2931415");
        assert_eq!(
            HttpBridge::translate(&HttpRequest::new("GET", "/nope")).unwrap_err().status,
            404
        );
        assert_eq!(
            HttpBridge::translate(&HttpRequest::new("GET", "/compute?cpu=2")).unwrap_err().status,
            400,
            "missing app"
        );
        assert_eq!(
            HttpBridge::translate(&HttpRequest::new("GET", "/status/")).unwrap_err().status,
            400
        );
    }

    #[test]
    fn http_submit_status_and_fetch_full_cycle() {
        let (mut sim, _cluster, bridge, user) = world();
        call(
            &mut sim,
            bridge,
            user,
            1,
            "POST",
            "/compute?mem=4&cpu=2&app=BLAST&srr=SRR2931415&ref=HUMAN",
        );
        sim.run();
        let (job_id, _) = {
            let replies = &sim.actor::<WebUser>(user).unwrap().replies;
            assert_eq!(replies.len(), 1);
            let (tag, response) = &replies[0];
            assert_eq!(*tag, 1);
            assert_eq!(response.status, 202, "{}", response.body_text());
            let ack = SubmitAck::from_text(&response.body_text()).expect("ack body");
            (ack.job_id, ack.cluster)
        };

        // Poll status over HTTP until completed.
        call(&mut sim, bridge, user, 2, "GET", &format!("/status/{job_id}"));
        sim.run();
        {
            let replies = &sim.actor::<WebUser>(user).unwrap().replies;
            let (_, response) = &replies[1];
            assert_eq!(response.status, 200);
            assert!(response.body_text().contains("state="));
        }

        // Data fetch over HTTP (catalog object fits one segment).
        call(&mut sim, bridge, user, 3, "GET", "/data/_catalog");
        sim.run();
        let replies = &sim.actor::<WebUser>(user).unwrap().replies;
        let (_, response) = &replies[2];
        assert_eq!(response.status, 200);
        assert!(response.body_text().contains("/ndn/k8s/data/"));
    }

    /// Two identical calls in flight share one Interest; the one reply
    /// must answer both callers, in arrival order.
    #[test]
    fn duplicate_http_calls_are_all_answered() {
        let (mut sim, _cluster, bridge, user) = world();
        call(&mut sim, bridge, user, 1, "GET", "/data/_catalog");
        call(&mut sim, bridge, user, 2, "GET", "/data/_catalog");
        sim.run();
        let replies = &sim.actor::<WebUser>(user).unwrap().replies;
        let answered: Vec<(u64, u16)> = replies.iter().map(|(t, r)| (*t, r.status)).collect();
        assert_eq!(answered, [(1, 200), (2, 200)]);
    }

    #[test]
    fn http_errors_mapped_to_status_codes() {
        let (mut sim, _cluster, bridge, user) = world();
        // Unknown data object → application NACK → 404.
        call(&mut sim, bridge, user, 1, "GET", "/data/does-not-exist");
        // Unknown job → 404.
        call(&mut sim, bridge, user, 2, "GET", "/status/edge/job-999");
        // Bad query → 400 without touching the network.
        call(&mut sim, bridge, user, 3, "POST", "/compute?cpu=notanumber&app=X");
        sim.run();
        let replies = &sim.actor::<WebUser>(user).unwrap().replies;
        assert_eq!(replies.len(), 3);
        let by_tag: std::collections::HashMap<u64, u16> =
            replies.iter().map(|(t, r)| (*t, r.status)).collect();
        assert_eq!(by_tag[&1], 404);
        assert_eq!(by_tag[&2], 404);
        assert_eq!(by_tag[&3], 400);
        let bridge_state = sim.actor::<HttpBridge>(bridge).unwrap();
        assert_eq!(bridge_state.rejected, 1);
        assert_eq!(bridge_state.translated, 2);
    }

    #[test]
    fn http_and_ndn_share_one_result_cache_entry() {
        // An HTTP submission and an NDN submission of the same computation
        // dedupe through the gateway result cache — the naming front-end
        // does not fragment the namespace.
        let mut sim = Sim::new(10);
        let alloc = FaceIdAlloc::new();
        let cluster = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig {
            result_cache_capacity: 8,
            ..LidcClusterConfig::named("edge")
        });
        let bridge = HttpBridge::deploy(&mut sim, cluster.gateway_fwd, &alloc, "http-bridge");
        let user = sim.spawn("browser", WebUser { replies: vec![] });
        let client = crate::client::ScienceClient::deploy(
            crate::client::ClientConfig::default(),
            &mut sim,
            cluster.gateway_fwd,
            &alloc,
            "ndn-user",
        );
        sim.send(client, crate::client::Submit(
            ComputeRequest::new("BLAST", 2, 4)
                .with_param("srr", "SRR2931415")
                .with_param("ref", "HUMAN"),
        ));
        sim.run();
        call(
            &mut sim,
            bridge,
            user,
            7,
            "POST",
            "/compute?mem=4&cpu=2&app=BLAST&srr=SRR2931415&ref=HUMAN",
        );
        sim.run();
        let replies = &sim.actor::<WebUser>(user).unwrap().replies;
        let (_, response) = &replies[0];
        assert_eq!(response.status, 202);
        let ack = SubmitAck::from_text(&response.body_text()).unwrap();
        assert_eq!(ack.state, "Completed", "served from the result cache");
        assert_eq!(cluster.gateway_stats(&sim).jobs_created, 1, "no second job");
    }
}
