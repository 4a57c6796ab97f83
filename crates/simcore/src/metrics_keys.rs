//! The metrics-key registry: the workspace's observability schema.
//!
//! Every counter/histogram/peak key recorded in non-test code MUST be
//! declared here, and every key declared here must be recorded somewhere —
//! `lidc-lint`'s `metric-key` rule enforces both directions statically,
//! and `tests/` drift guards re-check the recorded side at runtime (the
//! suites assert their recorded keys ⊆ [`ALL`]). A typo'd key is a silent
//! observability hole: the dashboards read zero while the sim happily
//! counts into a name nobody queries. Keys recorded only from test
//! regions (engine/metrics unit tests) are deliberately NOT registered.
//!
//! Workflow for a new metric: add the `pub const` with a doc comment,
//! reference it (or its exact literal) at the recording site, and the
//! lint goes green; drop the recording site and the lint flags the orphan
//! here until the const is removed too.

// ---------------------------------------------------------------- engine --

/// Batched-delivery bursts the engine coalesced (one per `on_batch` call).
pub const SIM_BATCH_BURSTS: &str = "sim.batch.bursts";
/// Messages that rode inside a coalesced batch instead of solo delivery.
pub const SIM_BATCH_COALESCED: &str = "sim.batch.coalesced_messages";
/// Largest single delivered batch (peak, `set_max`).
pub const SIM_BATCH_MAX_SIZE: &str = "sim.batch.max_size";
/// Messages dropped because their destination actor was dead.
pub const SIM_DROPPED_MESSAGES: &str = "sim.dropped_messages";

// ---------------------------------------------------------------- faults --

/// Fault activations applied by the controller.
pub const FAULT_INJECTED: &str = "fault.injected";
/// Fault heals (expiry or explicit) applied by the controller.
pub const FAULT_HEALED: &str = "fault.healed";
/// Faults the baseline adapter could not map onto its topology.
pub const FAULT_UNMAPPED: &str = "fault.unmapped";
/// Per-kind activation counters (`FaultKind::metric_key`).
pub const FAULT_CLUSTER_OUTAGE: &str = "fault.cluster_outage";
/// See [`FAULT_CLUSTER_OUTAGE`].
pub const FAULT_NODE_CRASH: &str = "fault.node_crash";
/// See [`FAULT_CLUSTER_OUTAGE`].
pub const FAULT_LINK_DOWN: &str = "fault.link_down";
/// See [`FAULT_CLUSTER_OUTAGE`].
pub const FAULT_LINK_DEGRADE: &str = "fault.link_degrade";
/// See [`FAULT_CLUSTER_OUTAGE`].
pub const FAULT_PACKET_CORRUPT: &str = "fault.packet_corrupt";
/// See [`FAULT_CLUSTER_OUTAGE`].
pub const FAULT_BYZANTINE_PRODUCER: &str = "fault.byzantine_producer";
/// See [`FAULT_CLUSTER_OUTAGE`].
pub const FAULT_REGION_OUTAGE: &str = "fault.region_outage";

// ------------------------------------------------------------- ndn plane --

/// Interests received by forwarders.
pub const NDN_RX_INTERESTS: &str = "ndn.rx_interests";
/// Data packets received by forwarders.
pub const NDN_RX_DATA: &str = "ndn.rx_data";
/// NACKs received by forwarders.
pub const NDN_RX_NACKS: &str = "ndn.rx_nacks";
/// Packets received on a face currently down.
pub const NDN_RX_FACE_DOWN: &str = "ndn.rx_face_down";
/// Packets received naming a face the forwarder doesn't have.
pub const NDN_RX_NO_SUCH_FACE: &str = "ndn.rx_no_such_face";
/// Transmissions dropped because the egress face was down.
pub const NDN_TX_FACE_DOWN: &str = "ndn.tx_face_down";
/// Transmissions dropped because the egress face doesn't exist.
pub const NDN_TX_NO_SUCH_FACE: &str = "ndn.tx_no_such_face";
/// Interests forwarded upstream after FIB lookup.
pub const NDN_INTERESTS_FORWARDED: &str = "ndn.interests_forwarded";
/// Interests NACKed for want of a FIB route.
pub const NDN_NO_ROUTE: &str = "ndn.no_route";
/// Interests dropped by the dead-nonce list.
pub const NDN_DUPLICATE_NONCE: &str = "ndn.duplicate_nonce";
/// Interests dropped at hop limit zero.
pub const NDN_HOP_LIMIT_DROPS: &str = "ndn.hop_limit_drops";
/// Interests aggregated onto an existing PIT entry.
pub const NDN_PIT_AGGREGATED: &str = "ndn.pit_aggregated";
/// PIT entries satisfied by Data.
pub const NDN_PIT_SATISFIED: &str = "ndn.pit_satisfied";
/// PIT entries expired by the sweeper.
pub const NDN_PIT_EXPIRED: &str = "ndn.pit_expired";
/// Content-store hits.
pub const NDN_CS_HITS: &str = "ndn.cs_hits";
/// Content-store misses.
pub const NDN_CS_MISSES: &str = "ndn.cs_misses";
/// Data rejected by CS admission policy.
pub const NDN_CS_ADMISSION_REJECTED: &str = "ndn.cs_admission_rejected";
/// CS evictions (entry count).
pub const NDN_CS_EVICT_COUNT: &str = "ndn.cs_evict.count";
/// CS evictions (bytes reclaimed).
pub const NDN_CS_EVICT_BYTES: &str = "ndn.cs_evict.bytes";
/// Peak CS occupancy in bytes (`set_max`).
pub const NDN_CS_BYTES_USED_PEAK: &str = "ndn.cs_bytes_used_peak";
/// Data arriving with no matching PIT entry.
pub const NDN_UNSOLICITED_DATA: &str = "ndn.unsolicited_data";
/// Interests NACKed because every viable next hop was down.
pub const NDN_FACE_DOWN_NACKED: &str = "ndn.face_down_nacked";
/// Interests rerouted around a down next hop.
pub const NDN_FACE_DOWN_REROUTED: &str = "ndn.face_down_rerouted";
/// Packets dropped by link-loss fault injection.
pub const NDN_LINK_LOSS_DROPS: &str = "ndn.link_loss_drops";
/// Interests, Nacks and unflippable Data dropped by link-corruption fault
/// injection.
pub const NDN_LINK_CORRUPT_DROPS: &str = "ndn.link_corrupt_drops";
/// Data packets bit-flipped in flight by link-corruption fault injection
/// (honest mode: the damage travels downstream until verification).
pub const NDN_LINK_CORRUPT_FLIPS: &str = "ndn.link_corrupt_flips";
/// Data packets that failed signature verification at a forwarder.
pub const NDN_VERIFY_FAILED: &str = "ndn.verify_failed";
/// Unverifiable Data that would have satisfied a PIT entry and been
/// cached — the cache-poisoning attempts the verify gate refused.
pub const NDN_CS_POISON_REJECTED: &str = "ndn.cs_poison_rejected";
/// Verification-failure strikes recorded against an ingress face.
pub const NDN_QUARANTINE_STRIKES: &str = "ndn.quarantine_strikes";
/// Next hops excluded from forwarding because their face is quarantined.
pub const NDN_QUARANTINE_SKIPS: &str = "ndn.quarantine_skips";
/// Messages a forwarder did not understand.
pub const NDN_UNKNOWN_MESSAGE: &str = "ndn.unknown_message";
/// Link-level batch flushes (egress coalescing).
pub const NDN_BATCH_LINK_FLUSHES: &str = "ndn.batch.link_flushes";
/// Packets carried by link-level batches.
pub const NDN_BATCH_LINK_PACKETS: &str = "ndn.batch.link_packets";

// ---------------------------------------------------------- compute plane --

/// Jobs admitted by the LIDC gateway.
pub const GATEWAY_JOBS_CREATED: &str = "gateway.jobs_created";
/// Gateway result-cache hits (dedup of identical submissions).
pub const GATEWAY_CACHE_HITS: &str = "gateway.cache_hits";
/// Results published into the namespace by the gateway.
pub const GATEWAY_RESULTS_PUBLISHED: &str = "gateway.results_published";
/// Status Interests answered by the gateway.
pub const GATEWAY_STATUS_QUERIES: &str = "gateway.status_queries";
/// Submissions rejected by gateway validation.
pub const GATEWAY_VALIDATION_FAILURES: &str = "gateway.validation_failures";
/// Request bursts the gateway absorbed via batch delivery.
pub const GATEWAY_BATCH_BURSTS: &str = "gateway.batch.bursts";
/// Requests that arrived inside gateway batches.
pub const GATEWAY_BATCH_REQUESTS: &str = "gateway.batch.requests";
/// Replies a byzantine gateway deliberately mangled (fault injection).
pub const GATEWAY_BYZANTINE_REPLIES: &str = "gateway.byzantine_replies";
/// Runs submitted by workload clients.
pub const CLIENT_SUBMISSIONS: &str = "client.submissions";
/// Runs that completed successfully end-to-end.
pub const CLIENT_COMPLETED_RUNS: &str = "client.completed_runs";
/// Runs that terminally failed.
pub const CLIENT_FAILED_RUNS: &str = "client.failed_runs";
/// Submissions rejected before admission.
pub const CLIENT_REJECTED_RUNS: &str = "client.rejected_runs";
/// Client resubmissions after a NACK/timeout.
pub const CLIENT_RESUBMISSIONS: &str = "client.resubmissions";
/// Result payload fetches completed by clients.
pub const CLIENT_RESULTS_FETCHED: &str = "client.results_fetched";
/// Data a client rejected on receive because its signature did not
/// verify (defense-in-depth behind the forwarder gate).
pub const CLIENT_VERIFY_FAILED: &str = "client.verify_failed";
/// HTTP-ingress requests translated into native submissions.
pub const HTTP_TRANSLATED: &str = "http.translated";
/// HTTP-ingress requests rejected at translation.
pub const HTTP_REJECTED: &str = "http.rejected";

// ------------------------------------------------------ k8s + baselines --

/// Messages the k8s control-plane actors did not understand.
pub const K8S_UNKNOWN_MESSAGE: &str = "k8s.unknown_message";
/// Jobs created by the centralized baseline controller.
pub const CENTRAL_JOBS_CREATED: &str = "central.jobs_created";
/// Objects served whole by the datalake file server.
pub const DATALAKE_OBJECTS_SERVED: &str = "datalake.objects_served";
/// Segments served by the datalake file server.
pub const DATALAKE_SEGMENTS_SERVED: &str = "datalake.segments_served";
/// Datalake requests for objects that don't exist.
pub const DATALAKE_NOT_FOUND: &str = "datalake.not_found";

/// Every registered key, for runtime drift guards. Keep in declaration
/// order; the uniqueness test sorts a copy.
pub const ALL: &[&str] = &[
    SIM_BATCH_BURSTS,
    SIM_BATCH_COALESCED,
    SIM_BATCH_MAX_SIZE,
    SIM_DROPPED_MESSAGES,
    FAULT_INJECTED,
    FAULT_HEALED,
    FAULT_UNMAPPED,
    FAULT_CLUSTER_OUTAGE,
    FAULT_NODE_CRASH,
    FAULT_LINK_DOWN,
    FAULT_LINK_DEGRADE,
    FAULT_PACKET_CORRUPT,
    FAULT_BYZANTINE_PRODUCER,
    FAULT_REGION_OUTAGE,
    NDN_RX_INTERESTS,
    NDN_RX_DATA,
    NDN_RX_NACKS,
    NDN_RX_FACE_DOWN,
    NDN_RX_NO_SUCH_FACE,
    NDN_TX_FACE_DOWN,
    NDN_TX_NO_SUCH_FACE,
    NDN_INTERESTS_FORWARDED,
    NDN_NO_ROUTE,
    NDN_DUPLICATE_NONCE,
    NDN_HOP_LIMIT_DROPS,
    NDN_PIT_AGGREGATED,
    NDN_PIT_SATISFIED,
    NDN_PIT_EXPIRED,
    NDN_CS_HITS,
    NDN_CS_MISSES,
    NDN_CS_ADMISSION_REJECTED,
    NDN_CS_EVICT_COUNT,
    NDN_CS_EVICT_BYTES,
    NDN_CS_BYTES_USED_PEAK,
    NDN_UNSOLICITED_DATA,
    NDN_FACE_DOWN_NACKED,
    NDN_FACE_DOWN_REROUTED,
    NDN_LINK_LOSS_DROPS,
    NDN_LINK_CORRUPT_DROPS,
    NDN_LINK_CORRUPT_FLIPS,
    NDN_VERIFY_FAILED,
    NDN_CS_POISON_REJECTED,
    NDN_QUARANTINE_STRIKES,
    NDN_QUARANTINE_SKIPS,
    NDN_UNKNOWN_MESSAGE,
    NDN_BATCH_LINK_FLUSHES,
    NDN_BATCH_LINK_PACKETS,
    GATEWAY_JOBS_CREATED,
    GATEWAY_CACHE_HITS,
    GATEWAY_RESULTS_PUBLISHED,
    GATEWAY_STATUS_QUERIES,
    GATEWAY_VALIDATION_FAILURES,
    GATEWAY_BATCH_BURSTS,
    GATEWAY_BATCH_REQUESTS,
    GATEWAY_BYZANTINE_REPLIES,
    CLIENT_SUBMISSIONS,
    CLIENT_COMPLETED_RUNS,
    CLIENT_FAILED_RUNS,
    CLIENT_REJECTED_RUNS,
    CLIENT_RESUBMISSIONS,
    CLIENT_RESULTS_FETCHED,
    CLIENT_VERIFY_FAILED,
    HTTP_TRANSLATED,
    HTTP_REJECTED,
    K8S_UNKNOWN_MESSAGE,
    CENTRAL_JOBS_CREATED,
    DATALAKE_OBJECTS_SERVED,
    DATALAKE_SEGMENTS_SERVED,
    DATALAKE_NOT_FOUND,
];

/// True when `key` is registered. Runtime complement of the static
/// `metric-key` lint rule — the suites assert this over every key they
/// actually recorded.
pub fn is_registered(key: &str) -> bool {
    ALL.contains(&key)
}

/// The subset of `keys` that is not registered, sorted and deduplicated —
/// empty means the run stayed inside the schema.
pub fn unregistered<'a>(keys: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    let mut bad: Vec<String> = keys
        .into_iter()
        .filter(|k| !is_registered(k))
        .map(|k| k.to_string())
        .collect();
    bad.sort();
    bad.dedup();
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drift guard's static half: no duplicate declarations.
    #[test]
    fn registry_keys_are_unique() {
        let mut sorted: Vec<&str> = ALL.to_vec();
        sorted.sort();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(before, sorted.len(), "duplicate key in metrics_keys::ALL");
    }

    #[test]
    fn membership_helpers() {
        assert!(is_registered("sim.batch.bursts"));
        assert!(!is_registered("sim.batch.burts"));
        assert_eq!(
            unregistered(["ndn.cs_hits", "nope.a", "nope.a", "fault.healed"]),
            vec!["nope.a".to_string()]
        );
    }
}
