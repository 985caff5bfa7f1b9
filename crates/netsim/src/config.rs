//! Simulation configuration.

use crate::fluid::SimMode;
use hypatia_fault::FaultSchedule;
use hypatia_routing::incremental::RoutingConfig;
use hypatia_util::{DataRate, SimDuration};
use std::sync::Arc;

/// Configuration knobs of a packet-level simulation, mirroring the paper's
/// experiment parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Line rate of every link (ISL and GSL devices alike; the paper sets
    /// these uniform per experiment, e.g. 10 Mbit/s in §4–§5).
    pub link_rate: DataRate,
    /// Drop-tail queue capacity per device, packets (paper: 100).
    pub queue_packets: usize,
    /// Forwarding-state recomputation granularity (paper default: 100 ms).
    pub fstate_step: SimDuration,
    /// Track per-device utilization at this bucket width (e.g. 1 s for the
    /// paper's Fig. 10/14/15); `None` disables tracking.
    pub utilization_bucket: Option<SimDuration>,
    /// Freeze the network at its t = 0 state: forwarding is computed once
    /// and link delays are evaluated at t = 0 forever. This is the paper's
    /// "static network" baseline (gray line of Fig. 10).
    pub freeze_at_epoch: bool,
    /// Override for ISL devices only (paper §7 flags capacity heterogeneity
    /// as an easy extension: laser ISLs and radio GSLs need not match).
    /// `None` = use `link_rate`.
    pub isl_rate: Option<DataRate>,
    /// Override for GSL devices only. `None` = use `link_rate`.
    pub gsl_rate: Option<DataRate>,
    /// Per-transmission loss probability on GSL links in `[0, 1)` — a
    /// weather/channel impairment stand-in (paper §7: "incorporating a
    /// weather model would enable work on reliability"). Deterministic:
    /// driven by a seeded PRNG.
    pub gsl_loss_rate: f64,
    /// Seed for the loss process.
    pub loss_seed: u64,
    /// Record up to this many per-packet trace events (0 = off).
    pub trace_limit: usize,
    /// Per-flow trace sampling: record packet events only for flows whose
    /// flow hash is divisible by this value (1 = record every flow, the
    /// default). Sampling keeps each selected flow's records *complete* —
    /// a journey is either fully traced or not traced at all — which is
    /// what makes sampled traces usable for per-flow time series at
    /// million-flow scale.
    pub trace_sample_every: u64,
    /// Loop-free multipath forwarding: spread flows over downhill
    /// alternates within this delay-stretch bound (e.g. `Some(1.2)` allows
    /// detours up to 20% longer). `None` = single shortest path (paper
    /// default). Addresses the paper's §5.4 routing/TE takeaway.
    pub multipath_stretch: Option<f64>,
    /// Background forwarding-state prefetch: number of worker threads that
    /// compute upcoming time-steps while the event loop consumes the
    /// current one (0 = compute inline, the default). States are consumed
    /// strictly in step order, so the simulation is bit-identical for any
    /// value — this is purely a wall-clock knob.
    pub fstate_threads: usize,
    /// How many forwarding-state steps may be computed ahead when
    /// `fstate_threads > 0` (bounds prefetch memory).
    pub fstate_prefetch: usize,
    /// Fault-injection scenario: a compiled, time-sorted schedule of
    /// satellite/ISL/GSL failures and repairs (see `hypatia-fault`).
    /// Fault events are applied mid-flight as simulator events,
    /// forwarding recomputation routes around whatever is down, and
    /// packets caught on a failing component are dropped and traced.
    /// `None` (the default) — and an empty schedule — leave every
    /// simulation result bit-identical to the fault-free simulator.
    pub faults: Option<Arc<FaultSchedule>>,
    /// How forwarding states are recomputed across steps: incremental
    /// repair of the previous snapshot's trees (the default), falling back
    /// to full Dijkstra above the churn threshold. `RoutingConfig::full()`
    /// recomputes every snapshot — the test oracle; output is
    /// byte-identical either way.
    pub routing: RoutingConfig,
    /// Number of spatial shards the event engine partitions the node set
    /// into. With `1` (the default) one shard owns every node and the
    /// event loop runs on the calling thread; `N > 1` executes shards in
    /// parallel up to a conservative lookahead horizon derived from the
    /// minimum cross-shard propagation delay. Every
    /// simulation observable is bit-identical for any value — this is
    /// purely a wall-clock knob. Clamped to the satellite count.
    pub sim_shards: usize,
    /// How bulk flows are simulated: packet-level for everything (the
    /// default), analytically via the max-min fluid solver, or hybrid —
    /// fluid bulk flows whose aggregate per-link load is subtracted from
    /// device capacity so packet-level traffic sees the residual (see
    /// [`crate::fluid`]).
    pub sim_mode: SimMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link_rate: DataRate::from_mbps(10),
            queue_packets: 100,
            fstate_step: SimDuration::from_millis(100),
            utilization_bucket: None,
            freeze_at_epoch: false,
            isl_rate: None,
            gsl_rate: None,
            gsl_loss_rate: 0.0,
            loss_seed: 7,
            trace_limit: 0,
            trace_sample_every: 1,
            multipath_stretch: None,
            fstate_threads: 0,
            fstate_prefetch: 4,
            faults: None,
            routing: RoutingConfig::default(),
            sim_shards: 1,
            sim_mode: SimMode::default(),
        }
    }
}

impl SimConfig {
    /// Builder-style: set the link rate.
    pub fn with_link_rate(mut self, rate: DataRate) -> Self {
        self.link_rate = rate;
        self
    }

    /// Builder-style: set the queue size in packets.
    pub fn with_queue_packets(mut self, packets: usize) -> Self {
        assert!(packets > 0, "queue must hold at least one packet");
        self.queue_packets = packets;
        self
    }

    /// Builder-style: set the forwarding-state granularity.
    pub fn with_fstate_step(mut self, step: SimDuration) -> Self {
        assert!(!step.is_zero(), "forwarding step must be positive");
        self.fstate_step = step;
        self
    }

    /// Builder-style: enable utilization tracking.
    pub fn with_utilization_bucket(mut self, bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket must be positive");
        self.utilization_bucket = Some(bucket);
        self
    }

    /// Builder-style: freeze the network at its t = 0 state.
    pub fn frozen(mut self) -> Self {
        self.freeze_at_epoch = true;
        self
    }

    /// Builder-style: give ISLs a different rate than GSLs.
    pub fn with_isl_rate(mut self, rate: DataRate) -> Self {
        self.isl_rate = Some(rate);
        self
    }

    /// Builder-style: give GSLs a different rate than ISLs.
    pub fn with_gsl_rate(mut self, rate: DataRate) -> Self {
        self.gsl_rate = Some(rate);
        self
    }

    /// Builder-style: drop each GSL transmission with probability `p`.
    pub fn with_gsl_loss(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss rate must be in [0, 1): {p}");
        self.gsl_loss_rate = p;
        self
    }

    /// Builder-style: enable loop-free multipath with the given stretch.
    pub fn with_multipath(mut self, stretch: f64) -> Self {
        assert!(stretch >= 1.0, "stretch must be >= 1.0: {stretch}");
        self.multipath_stretch = Some(stretch);
        self
    }

    /// Builder-style: enable per-packet tracing with the given buffer size.
    pub fn with_trace_limit(mut self, limit: usize) -> Self {
        self.trace_limit = limit;
        self
    }

    /// Builder-style: trace only flows whose flow hash divides `every`
    /// (1 = trace every flow).
    pub fn with_trace_sampling(mut self, every: u64) -> Self {
        assert!(every >= 1, "sampling interval must be at least 1");
        self.trace_sample_every = every;
        self
    }

    /// Builder-style: compute forwarding states for upcoming steps on
    /// `threads` background workers, at most `prefetch` steps ahead.
    /// Results are identical to inline computation for any thread count.
    pub fn with_fstate_prefetch(mut self, threads: usize, prefetch: usize) -> Self {
        assert!(prefetch > 0 || threads == 0, "prefetch depth must be positive");
        self.fstate_threads = threads;
        self.fstate_prefetch = prefetch;
        self
    }

    /// Builder-style: inject the given fault scenario.
    pub fn with_faults(mut self, schedule: Arc<FaultSchedule>) -> Self {
        self.faults = Some(schedule);
        self
    }

    /// Builder-style: set the incremental-repair churn threshold — the
    /// fraction of flipped edges between snapshots above which a full
    /// recompute is cheaper than a repair.
    pub fn with_repair_churn_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold >= 0.0, "churn threshold must be non-negative: {threshold}");
        self.routing.repair_churn_threshold = threshold;
        self
    }

    /// Builder-style: partition the event engine into `shards` spatial
    /// shards executed in parallel (1 = one shard, no worker threads).
    /// Results are bit-identical for every value.
    pub fn with_sim_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard is required");
        self.sim_shards = shards;
        self
    }

    /// Builder-style: pick how bulk flows are simulated (packet, fluid,
    /// or hybrid). Packet-level behaviour is unchanged unless fluid
    /// flows are actually installed.
    pub fn with_sim_mode(mut self, mode: SimMode) -> Self {
        self.sim_mode = mode;
        self
    }

    /// Effective rate for an ISL device.
    pub fn effective_isl_rate(&self) -> DataRate {
        self.isl_rate.unwrap_or(self.link_rate)
    }

    /// Effective rate for a GSL device.
    pub fn effective_gsl_rate(&self) -> DataRate {
        self.gsl_rate.unwrap_or(self.link_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypatia_routing::incremental::RoutingMode;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.link_rate, DataRate::from_mbps(10));
        assert_eq!(c.queue_packets, 100);
        assert_eq!(c.fstate_step, SimDuration::from_millis(100));
        assert!(c.utilization_bucket.is_none());
        assert!(!c.freeze_at_epoch);
        assert_eq!(c.gsl_loss_rate, 0.0);
        assert_eq!(c.effective_isl_rate(), c.link_rate);
        assert_eq!(c.effective_gsl_rate(), c.link_rate);
        assert!(c.faults.is_none(), "fault injection is off by default");
        assert_eq!(c.routing.mode, RoutingMode::Incremental, "incremental repair is the default");
        assert_eq!(c.sim_shards, 1, "one shard is the default");
        assert_eq!(c.trace_sample_every, 1, "every flow is traced by default");
        assert_eq!(c.sim_mode, SimMode::Packet, "packet-level simulation is the default");
    }

    #[test]
    fn trace_sampling_builder() {
        let c = SimConfig::default().with_trace_sampling(8);
        assert_eq!(c.trace_sample_every, 8);
    }

    #[test]
    #[should_panic]
    fn zero_trace_sampling_rejected() {
        SimConfig::default().with_trace_sampling(0);
    }

    #[test]
    fn shard_builder() {
        let c = SimConfig::default().with_sim_shards(4);
        assert_eq!(c.sim_shards, 4);
    }

    #[test]
    #[should_panic]
    fn zero_shards_rejected() {
        SimConfig::default().with_sim_shards(0);
    }

    #[test]
    fn routing_builders() {
        let c = SimConfig::default().with_repair_churn_threshold(0.3);
        assert_eq!(c.routing.mode, RoutingMode::Incremental);
        assert_eq!(c.routing.repair_churn_threshold, 0.3);
    }

    #[test]
    #[should_panic]
    fn negative_churn_threshold_rejected() {
        SimConfig::default().with_repair_churn_threshold(-0.1);
    }

    #[test]
    fn sim_mode_builder() {
        let c = SimConfig::default().with_sim_mode(SimMode::Hybrid);
        assert_eq!(c.sim_mode, SimMode::Hybrid);
    }

    #[test]
    fn heterogeneous_rates() {
        let c = SimConfig::default()
            .with_isl_rate(DataRate::from_gbps(1))
            .with_gsl_rate(DataRate::from_mbps(100));
        assert_eq!(c.effective_isl_rate(), DataRate::from_gbps(1));
        assert_eq!(c.effective_gsl_rate(), DataRate::from_mbps(100));
        assert_eq!(c.link_rate, DataRate::from_mbps(10), "base rate untouched");
    }

    #[test]
    fn gsl_loss_builder() {
        let c = SimConfig::default().with_gsl_loss(0.01);
        assert_eq!(c.gsl_loss_rate, 0.01);
    }

    #[test]
    #[should_panic]
    fn loss_rate_of_one_rejected() {
        SimConfig::default().with_gsl_loss(1.0);
    }

    #[test]
    fn builder_chains() {
        let c = SimConfig::default()
            .with_link_rate(DataRate::from_gbps(1))
            .with_queue_packets(50)
            .with_fstate_step(SimDuration::from_millis(50))
            .with_utilization_bucket(SimDuration::from_secs(1))
            .frozen();
        assert_eq!(c.link_rate, DataRate::from_gbps(1));
        assert_eq!(c.queue_packets, 50);
        assert_eq!(c.fstate_step, SimDuration::from_millis(50));
        assert_eq!(c.utilization_bucket, Some(SimDuration::from_secs(1)));
        assert!(c.freeze_at_epoch);
    }

    #[test]
    #[should_panic]
    fn zero_queue_rejected() {
        SimConfig::default().with_queue_packets(0);
    }
}
