//! The pod scheduler: filter + score, never overcommitting a node.
//!
//! Mirrors kube-scheduler's two-phase design. Filtering removes nodes that
//! are not ready, violate an explicit `node_name` constraint, or lack free
//! resources for the pod's requests. Scoring prefers the least-allocated
//! survivor, which spreads load. Binding writes `status.node`.

use crate::apiserver::ApiServer;
use crate::meta::ObjectKey;
use crate::resources::Resources;
use lidc_simcore::time::SimTime;

/// The scheduler.
#[derive(Debug, Default, Clone)]
pub struct Scheduler;

impl Scheduler {
    /// Bind every schedulable pending pod. Returns the bound pod keys.
    ///
    /// Per-node usage comes from the API server's **persistent** usage
    /// index ([`ApiServer::node_usage`]), which [`ApiServer::bind_pod`]
    /// updates as each pod binds, and the work list comes from its
    /// **pending-pod** index ([`ApiServer::pending_pods`], already in
    /// creation-uid order) — no per-pass O(pods) sweep remains anywhere in
    /// this function.
    pub fn schedule(&self, api: &mut ApiServer, now: SimTime) -> Vec<ObjectKey> {
        let pending: Vec<(ObjectKey, Resources, Option<String>)> = api
            .pending_pods()
            .map(|k| {
                // lidc-lint: allow(panic-path) reason="pending_pods yields keys of pods present in api.pods"
                let p = &api.pods[k];
                (k.clone(), p.spec.total_requests(), p.spec.node_name.clone())
            })
            .collect();
        if pending.is_empty() {
            return Vec::new();
        }

        let mut bound = Vec::new();
        for (key, requests, node_constraint) in pending {
            let Some(node) = self.pick_node(api, &requests, node_constraint.as_deref()) else {
                continue; // stays pending; retried next reconcile
            };
            // bind_pod charges the usage index, so the next pick sees it.
            if api.bind_pod(&key, &node, now) {
                bound.push(key);
            }
        }
        bound
    }

    fn pick_node(
        &self,
        api: &ApiServer,
        requests: &Resources,
        constraint: Option<&str>,
    ) -> Option<String> {
        let candidates = api
            .nodes
            .values()
            .filter(|n| n.ready && !n.cordoned)
            .filter(|n| constraint.is_none_or(|c| c == n.meta.name))
            .filter(|n| {
                let free = n.allocatable.saturating_sub(&api.node_usage(&n.meta.name));
                requests.fits_in(&free)
            });
        // Deterministic tie-break by node name via max_by with name-reversed
        // comparison: take the best score, then lexicographically smallest.
        let mut best: Option<(f64, &str)> = None;
        for n in candidates {
            let score = self.score(api, &n.meta.name, requests);
            let better = match best {
                None => true,
                Some((bs, bn)) => {
                    score > bs + 1e-12 || ((score - bs).abs() <= 1e-12 && n.meta.name.as_str() < bn)
                }
            };
            if better {
                best = Some((score, &n.meta.name));
            }
        }
        best.map(|(_, name)| name.to_owned())
    }

    /// Least-allocated score: one minus the node's dominant utilisation
    /// after placing `requests`. Higher is better.
    fn score(&self, api: &ApiServer, node: &str, requests: &Resources) -> f64 {
        // lidc-lint: allow(panic-path) reason="score is only called with node names drawn from api.nodes iteration in schedule()"
        let allocatable = api.nodes[node].allocatable;
        let used_after = api.node_usage(node) + *requests;
        1.0 - used_after.dominant_utilisation(&allocatable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::ObjectMeta;
    use crate::node::Node;
    use crate::pod::{ContainerSpec, Pod, PodPhase, PodSpec, WorkloadSpec};
    use lidc_simcore::time::SimDuration;

    const T0: SimTime = SimTime::ZERO;

    fn api_with_nodes(nodes: &[(&str, u64, u64)]) -> ApiServer {
        let mut api = ApiServer::new("test");
        for (name, cores, gib) in nodes {
            api.add_node(Node::new(*name, Resources::new(*cores, *gib)), T0);
        }
        api
    }

    fn make_pod(name: &str, cores: u64, gib: u64) -> Pod {
        Pod::new(
            ObjectMeta::named(name),
            PodSpec::single(ContainerSpec {
                name: "c".into(),
                image: "i".into(),
                requests: Resources::new(cores, gib),
                workload: WorkloadSpec::run_for(SimDuration::from_secs(1)),
            }),
        )
    }

    #[test]
    fn binds_to_fitting_node_only() {
        let mut api = api_with_nodes(&[("small", 1, 1), ("big", 8, 16)]);
        api.create_pod(make_pod("p", 4, 8), T0).unwrap();
        let bound = Scheduler.schedule(&mut api, T0);
        assert_eq!(bound.len(), 1);
        let pod = &api.pods[&bound[0]];
        assert_eq!(pod.status.node.as_deref(), Some("big"));
        assert!(pod.status.ip.is_some());
    }

    #[test]
    fn unschedulable_pod_stays_pending() {
        let mut api = api_with_nodes(&[("n", 2, 2)]);
        api.create_pod(make_pod("too-big", 4, 4), T0).unwrap();
        let bound = Scheduler.schedule(&mut api, T0);
        assert!(bound.is_empty());
        let pod = api.pods.values().next().unwrap();
        assert_eq!(pod.status.phase, PodPhase::Pending);
        assert!(pod.status.node.is_none());
    }

    #[test]
    fn never_overcommits() {
        let mut api = api_with_nodes(&[("n1", 4, 8), ("n2", 4, 8)]);
        for i in 0..10 {
            api.create_pod(make_pod(&format!("p{i}"), 2, 4), T0).unwrap();
        }
        // Mark bound pods running so they hold resources.
        let scheduler = Scheduler;
        let bound = scheduler.schedule(&mut api, T0);
        assert_eq!(bound.len(), 4, "2 fit per node");
        for key in &bound {
            let uid = api.pods[key].meta.uid;
            api.set_pod_phase(uid, PodPhase::Running);
        }
        api.debug_check_pod_indexes().unwrap();
        for node in ["n1", "n2"] {
            let used = api.node_usage(node);
            assert!(
                used.fits_in(&api.nodes[node].allocatable),
                "{node} overcommitted: {used}"
            );
        }
        // Releasing one pod frees space for exactly one more.
        let first = bound[0].clone();
        let uid = api.pods[&first].meta.uid;
        api.set_pod_phase(uid, PodPhase::Succeeded);
        let more = scheduler.schedule(&mut api, T0);
        assert_eq!(more.len(), 1);
    }

    #[test]
    fn node_name_constraint_respected() {
        let mut api = api_with_nodes(&[("a", 8, 8), ("b", 8, 8)]);
        let mut p = make_pod("pinned", 1, 1);
        p.spec.node_name = Some("b".into());
        api.create_pod(p, T0).unwrap();
        let bound = Scheduler.schedule(&mut api, T0);
        assert_eq!(api.pods[&bound[0]].status.node.as_deref(), Some("b"));
    }

    #[test]
    fn not_ready_nodes_excluded() {
        let mut api = api_with_nodes(&[("a", 8, 8)]);
        api.nodes.get_mut("a").unwrap().ready = false;
        api.create_pod(make_pod("p", 1, 1), T0).unwrap();
        assert!(Scheduler.schedule(&mut api, T0).is_empty());
    }

    #[test]
    fn cordoned_nodes_excluded_until_uncordoned() {
        let mut api = api_with_nodes(&[("a", 8, 8), ("b", 8, 8)]);
        // "a" wins the deterministic tie-break, so cordoning it must move
        // the pod to "b"; cordoning both must leave the pod pending.
        api.set_node_cordoned("a", true);
        api.create_pod(make_pod("p1", 1, 1), T0).unwrap();
        let bound = Scheduler.schedule(&mut api, T0);
        assert_eq!(api.pods[&bound[0]].status.node.as_deref(), Some("b"));
        api.set_node_cordoned("b", true);
        api.create_pod(make_pod("p2", 1, 1), T0).unwrap();
        assert!(Scheduler.schedule(&mut api, T0).is_empty());
        api.debug_check_pod_indexes().unwrap();
        api.set_node_cordoned("a", false);
        let bound = Scheduler.schedule(&mut api, T0);
        assert_eq!(api.pods[&bound[0]].status.node.as_deref(), Some("a"));
    }

    #[test]
    fn least_allocated_spreads() {
        let mut api = api_with_nodes(&[("a", 8, 8), ("b", 8, 8)]);
        api.create_pod(make_pod("p1", 2, 2), T0).unwrap();
        api.create_pod(make_pod("p2", 2, 2), T0).unwrap();
        let bound = Scheduler.schedule(&mut api, T0);
        for key in &bound {
            let uid = api.pods[key].meta.uid;
            api.set_pod_phase(uid, PodPhase::Running);
        }
        let nodes: Vec<_> = bound
            .iter()
            .map(|k| api.pods[k].status.node.clone().unwrap())
            .collect();
        assert_ne!(nodes[0], nodes[1], "spread across both nodes");
    }

    #[test]
    fn deterministic_tie_break_by_name() {
        let mut api = api_with_nodes(&[("zeta", 4, 4), ("alpha", 4, 4)]);
        api.create_pod(make_pod("p", 1, 1), T0).unwrap();
        let bound = Scheduler.schedule(&mut api, T0);
        assert_eq!(api.pods[&bound[0]].status.node.as_deref(), Some("alpha"));
    }

    #[test]
    fn random_workload_never_overcommits_property() {
        use lidc_simcore::rng::DetRng;
        let mut rng = DetRng::new(0x5EED);
        for trial in 0..30 {
            let mut api = api_with_nodes(&[("a", 6, 12), ("b", 4, 8), ("c", 2, 4)]);
            let s = Scheduler;
            for i in 0..40 {
                let cores = rng.next_below(4) + 1;
                let gib = rng.next_below(6) + 1;
                api.create_pod(make_pod(&format!("t{trial}-p{i}"), cores, gib), T0)
                    .unwrap();
                let bound = s.schedule(&mut api, T0);
                for key in &bound {
                    let uid = api.pods[key].meta.uid;
                    api.set_pod_phase(uid, PodPhase::Running);
                }
                // Occasionally finish a random running pod.
                if rng.next_bool(0.3) {
                    if let Some(k) = api
                        .pods
                        .iter()
                        .filter(|(_, p)| p.status.phase == PodPhase::Running)
                        .map(|(k, _)| k.clone())
                        .next()
                    {
                        let uid = api.pods[&k].meta.uid;
                        api.set_pod_phase(uid, PodPhase::Succeeded);
                    }
                }
                api.debug_check_pod_indexes().unwrap();
                for node in ["a", "b", "c"] {
                    assert!(
                        api.node_usage(node).fits_in(&api.nodes[node].allocatable),
                        "overcommit on {node}"
                    );
                }
            }
        }
    }
}
