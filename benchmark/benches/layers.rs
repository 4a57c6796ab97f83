//! The per-layer table: step spans, exact counts and probe costs combined
//! into the metrics `--trace 1` prints. Names are `<module path>.<metric>`.
//!
//! A value of -1 means "not measured on this workload" (the layer cannot be
//! stepped from outside, or a counter key the product no longer records);
//! 0 is a measured zero.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::probes::Costs;
use crate::trace::{Layer, Tracer};
use crate::workloads::{Counters, Outcome};

pub const NOT_MEASURED: f64 = -1.0;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simcore.engine.events_per_op", "count"),
    ("simcore.engine.mean_batch", "count"),
    ("simcore.engine.dispatch_ns_per_event", "ns"),
    ("simcore.engine.busy_share", "ratio"),
    ("simcore.engine.queue_len_peak", "count"),
    ("simcore.metrics.incr_ns", "ns"),
    ("simcore.metrics.incr_allocs", "count"),
    ("simcore.metrics.bumps_per_op", "count"),
    ("simcore.faults.injected_per_run", "count"),
    ("ndn.forwarder.msgs_per_op", "count"),
    ("ndn.forwarder.ns_per_msg", "ns"),
    ("ndn.forwarder.busy_share", "ratio"),
    ("ndn.forwarder.self_share", "ratio"),
    ("ndn.forwarder.verify_failed_per_op", "count"),
    ("ndn.packet.encode_sign_ns", "ns"),
    ("ndn.packet.decode_verify_ns", "ns"),
    ("ndn.packet.payload_kib_p50", "KiB"),
    ("ndn.packet.probe_share", "ratio"),
    ("ndn.tables.pit.cycle_ns", "ns"),
    ("ndn.tables.pit.satisfied_per_op", "count"),
    ("ndn.tables.cs.hit_ratio", "ratio"),
    ("ndn.tables.cs.lookup_hit_ns", "ns"),
    ("ndn.tables.cs.lookup_miss_ns", "ns"),
    ("ndn.tables.cs.admit_ns", "ns"),
    ("ndn.tables.cs.evictions_per_op", "count"),
    ("ndn.tables.cs.bytes_used_peak_mib", "MiB"),
    ("ndn.tables.cs.poison_rejected_per_op", "count"),
    ("ndn.tables.fib.lpm_ns", "ns"),
    ("core.naming.classify_ns", "ns"),
    ("core.gateway.msgs_per_op", "count"),
    ("core.gateway.ns_per_msg", "ns"),
    ("core.gateway.busy_share", "ratio"),
    ("core.gateway.status_queries_per_op", "count"),
    ("core.gateway.jobs_created_per_op", "count"),
    ("core.client.ns_per_msg", "ns"),
    ("core.client.busy_share", "ratio"),
    ("core.client.polls_per_op", "count"),
    ("core.client.resubmits_per_op", "count"),
    ("core.client.turnaround_p50_s", "s"),
    ("core.placement.busy_share", "ratio"),
    ("core.placement.reports_per_op", "count"),
    ("core.placement.spread", "ratio"),
    ("k8s.cluster.msgs_per_op", "count"),
    ("k8s.cluster.ns_per_msg", "ns"),
    ("k8s.cluster.busy_share", "ratio"),
    ("k8s.cluster.reconcile_pass_ns", "ns"),
    ("k8s.cluster.schedule_pass_ns", "ns"),
    ("datalake.fileserver.ns_per_msg", "ns"),
    ("datalake.fileserver.busy_share", "ratio"),
    ("datalake.fileserver.segments_served_per_op", "count"),
    ("datalake.segment.segment_data_ns", "ns"),
    ("harness.consumer_busy_share", "ratio"),
    ("harness.trace.overhead_share", "ratio"),
    ("harness.trace.attributed_share", "ratio"),
    ("harness.trace.probe_coverage", "ratio"),
];

/// Counters bumped by amounts other than one (byte totals, batch sizes,
/// high-water marks): left out of the `Metrics::incr` call estimate.
const NON_UNIT_KEYS: &[&str] = &[
    "ndn.cs_evict.bytes",
    "ndn.cs_bytes_used_peak",
    "ndn.batch.link_packets",
    "ndn.parallel.packets",
    "sim.batch.max_size",
    "sim.batch.coalesced_messages",
    "gateway.batch.requests",
];

/// What one traced repetition measured.
pub struct TracedRep<'a> {
    pub outcome: &'a Outcome,
    pub tracer: &'a Tracer,
    pub traced_wall: Duration,
}

pub struct Table(BTreeMap<&'static str, f64>);

impl Table {
    /// Every metric present, nothing measured yet.
    pub fn unmeasured() -> Self {
        Table(
            PER_LAYER
                .iter()
                .map(|(name, _)| (*name, NOT_MEASURED))
                .collect(),
        )
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self.0.get_mut(name).expect("metric is listed in PER_LAYER");
        *slot = if value.is_finite() {
            value
        } else {
            NOT_MEASURED
        };
    }

    fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(NOT_MEASURED)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, self.0[name], *unit))
    }

    /// Probe costs: measured on every workload.
    pub fn fill_probes(&mut self, costs: &Costs, payload_bytes: usize) {
        self.set(
            "simcore.engine.dispatch_ns_per_event",
            costs.dispatch_ns_per_event,
        );
        self.set("simcore.metrics.incr_ns", costs.incr_ns);
        self.set("simcore.metrics.incr_allocs", costs.incr_allocs);
        self.set("ndn.packet.encode_sign_ns", costs.encode_sign_ns);
        self.set("ndn.packet.decode_verify_ns", costs.decode_verify_ns);
        self.set("ndn.packet.payload_kib_p50", payload_bytes as f64 / 1024.0);
        self.set("ndn.tables.pit.cycle_ns", costs.pit_cycle_ns);
        self.set("ndn.tables.cs.lookup_hit_ns", costs.cs_lookup_hit_ns);
        self.set("ndn.tables.cs.lookup_miss_ns", costs.cs_lookup_miss_ns);
        self.set("ndn.tables.cs.admit_ns", costs.cs_admit_ns);
        self.set("ndn.tables.fib.lpm_ns", costs.fib_lpm_ns);
        self.set("core.naming.classify_ns", costs.classify_ns);
        self.set("datalake.segment.segment_data_ns", costs.segment_data_ns);
        self.set("k8s.cluster.reconcile_pass_ns", costs.reconcile_pass_ns);
        self.set("k8s.cluster.schedule_pass_ns", costs.schedule_pass_ns);
    }

    /// Exact counts read from actor fields by the workload itself.
    pub fn fill_facts(&mut self, outcome: &Outcome) {
        for (name, _) in PER_LAYER {
            self.set_opt(name, outcome.facts.get(name).copied());
        }
    }

    /// Counts from `Metrics::counters()` and busy times from step spans.
    pub fn fill_traced(&mut self, rep: &TracedRep<'_>, costs: &Costs, timed_wall: Duration) {
        let c = &rep.outcome.counters;
        let ops = rep.outcome.ops.max(1) as f64;
        let wall_ns = rep.traced_wall.as_nanos() as f64;
        // A key that must be non-zero here but is absent has been renamed.
        let need = |key: &str| c.get(key).map(|v| v as f64);
        // Fault-path keys are legitimately absent on fault-free workloads.
        let zero_ok = |key: &str| c.get(key).unwrap_or(0) as f64;
        let per_op = |v: Option<f64>| v.map(|v| v / ops);

        let events = rep.outcome.events as f64;
        let steps: u64 = Layer::ALL.iter().map(|l| rep.tracer.layer(*l).steps).sum();
        self.set("simcore.engine.events_per_op", events / ops);
        self.set("simcore.engine.mean_batch", events / steps.max(1) as f64);
        self.set(
            "simcore.engine.busy_share",
            events * costs.dispatch_ns_per_event / wall_ns,
        );
        self.set(
            "simcore.engine.queue_len_peak",
            rep.tracer.queue_len_peak as f64,
        );

        let bumps = unit_bumps(c, "");
        self.set("simcore.metrics.bumps_per_op", bumps / ops);
        self.set("simcore.faults.injected_per_run", zero_ok("fault.injected"));

        for (layer, prefix) in [
            (Layer::NdnForwarder, "ndn.forwarder"),
            (Layer::CoreGateway, "core.gateway"),
            (Layer::CoreClient, "core.client"),
            (Layer::CorePlacement, "core.placement"),
            (Layer::K8sCluster, "k8s.cluster"),
            (Layer::DatalakeFileserver, "datalake.fileserver"),
        ] {
            let agg = rep.tracer.layer(layer);
            let busy_ns = agg.busy.as_nanos() as f64;
            for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with(prefix)) {
                match &name[prefix.len()..] {
                    ".msgs_per_op" => self.set(name, agg.msgs as f64 / ops),
                    ".ns_per_msg" if agg.msgs > 0 => self.set(name, busy_ns / agg.msgs as f64),
                    ".busy_share" => self.set(name, busy_ns / wall_ns),
                    _ => {}
                }
            }
        }
        self.set(
            "core.placement.reports_per_op",
            rep.tracer.layer(Layer::CorePlacement).msgs as f64 / ops,
        );
        self.set(
            "harness.consumer_busy_share",
            rep.tracer.layer(Layer::HarnessConsumer).busy.as_nanos() as f64 / wall_ns,
        );

        let rx_data = need("ndn.rx_data").unwrap_or(0.0);
        let pit_cycles = need("ndn.pit_satisfied").unwrap_or(0.0);
        let cs_hits = zero_ok("ndn.cs_hits");
        let cs_misses = zero_ok("ndn.cs_misses");
        let admits = rx_data - zero_ok("ndn.unsolicited_data") - zero_ok("ndn.verify_failed");
        let lpm = zero_ok("ndn.interests_forwarded") + zero_ok("ndn.no_route");
        let status = zero_ok("gateway.status_queries");
        let created = zero_ok("gateway.jobs_created");
        let segments = zero_ok("datalake.segments_served");
        // Forwarders verify every Data on ingress; the science client
        // re-verifies every reply it consumes.
        let client_verifies = status + created + zero_ok("client.results_fetched");
        // Every reply is signed where it is produced; a segment's signature
        // is part of `segment_data`.
        let signs = status + created + zero_ok("datalake.objects_served");

        self.set(
            "ndn.forwarder.verify_failed_per_op",
            zero_ok("ndn.verify_failed") / ops,
        );
        self.set_opt(
            "ndn.tables.pit.satisfied_per_op",
            per_op(need("ndn.pit_satisfied")),
        );
        self.set(
            "ndn.tables.cs.evictions_per_op",
            zero_ok("ndn.cs_evict.count") / ops,
        );
        self.set(
            "ndn.tables.cs.poison_rejected_per_op",
            zero_ok("ndn.cs_poison_rejected") / ops,
        );
        self.set("core.gateway.status_queries_per_op", status / ops);
        self.set("core.gateway.jobs_created_per_op", created / ops);
        self.set("datalake.fileserver.segments_served_per_op", segments / ops);

        let fwd = rep.tracer.layer(Layer::NdnForwarder);
        let fwd_children = fwd.msgs as f64 * costs.dispatch_ns_per_event
            + pit_cycles * costs.pit_cycle_ns
            + cs_hits * costs.cs_lookup_hit_ns
            + cs_misses * costs.cs_lookup_miss_ns
            + admits * costs.cs_admit_ns
            + lpm * costs.fib_lpm_ns
            + rx_data * costs.decode_verify_ns
            + unit_bumps(c, "ndn.") * costs.incr_ns;
        let fwd_busy = fwd.busy.as_nanos() as f64;
        self.set(
            "ndn.forwarder.self_share",
            (1.0 - fwd_children / fwd_busy.max(1.0)).max(0.0),
        );

        let packet_ns = (signs + segments) * costs.encode_sign_ns
            + (rx_data + client_verifies) * costs.decode_verify_ns;
        self.set("ndn.packet.probe_share", packet_ns / wall_ns);

        let reconstructed = events * costs.dispatch_ns_per_event
            + bumps * costs.incr_ns
            + pit_cycles * costs.pit_cycle_ns
            + cs_hits * costs.cs_lookup_hit_ns
            + cs_misses * costs.cs_lookup_miss_ns
            + admits * costs.cs_admit_ns
            + lpm * costs.fib_lpm_ns
            + (rx_data + client_verifies) * costs.decode_verify_ns
            + signs * costs.encode_sign_ns
            + (status + created) * costs.classify_ns
            + segments * costs.segment_data_ns;
        let span_ns = rep.tracer.span_total().as_nanos() as f64;
        self.set(
            "harness.trace.probe_coverage",
            reconstructed / span_ns.max(1.0),
        );
        self.set("harness.trace.attributed_share", span_ns / wall_ns);
        self.set(
            "harness.trace.overhead_share",
            wall_ns / (timed_wall.as_nanos() as f64).max(1.0) - 1.0,
        );
    }
}

/// Sum of unit-increment counters under `prefix`: an estimate of the
/// `Metrics::incr` calls the run made.
fn unit_bumps(c: &Counters, prefix: &str) -> f64 {
    c.iter()
        .filter(|(k, _)| k.starts_with(prefix) && !NON_UNIT_KEYS.contains(k))
        .map(|(_, v)| v)
        .sum::<u64>() as f64
}
