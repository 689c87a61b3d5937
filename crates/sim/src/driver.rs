//! The discrete-event simulation driver.
//!
//! The driver owns one [`QueueManager`] per site, one [`RequestIssuer`] per
//! live transaction incarnation, the simulated network, the metrics
//! collection and the execution logs. It advances a deterministic event
//! queue whose events are transaction arrivals, message deliveries, ends of
//! local-computation phases, restart timers and periodic deadlock scans.
//!
//! Restarted transactions (T/O rejections, 2PL deadlock victims) are
//! re-incarnated under a **fresh transaction id** so that messages still in
//! flight for the aborted incarnation can never be confused with the new
//! attempt; metrics are nevertheless attributed to the original submission
//! (system time is measured from the first arrival).

use std::collections::BTreeMap;

use dbmodel::{
    AccessMode, Catalog, CcMethod, LogSet, PhysicalItemId, SiteId, Timestamp, Transaction, TsTuple,
    TxnId,
};
use metrics::{SimMetrics, TxnOutcome};
use network::{Envelope, LatencyModel, MsgCategory, NetworkModel};
use pam::{ReplyMsg, RequestMsg};
use selection::StlSelector;
use simkit::dist::{Distribution, Exponential};
use simkit::event::EventQueue;
use simkit::rng::SimRng;
use simkit::time::SimTime;
use unified_cc::{QmEvent, QueueManager, RequestIssuer, RiAction, RiOutput, WaitForGraph};

use crate::config::{MethodPolicy, SimConfig};
use crate::report::SimReport;
use crate::workload::{WorkloadGenerator, WorkloadTxn};

/// Network payloads exchanged in the simulation.
#[derive(Debug, Clone)]
enum NetMsg {
    /// Request-issuer → queue-manager traffic; `origin` is the issuing site.
    ToQm { origin: SiteId, msg: RequestMsg },
    /// Queue-manager → request-issuer traffic.
    ToRi(ReplyMsg),
}

/// Simulation events.
#[derive(Debug, Clone)]
enum Event {
    /// Arrival of workload transaction `root`.
    Arrival { root: usize },
    /// Delivery of a network message.
    Deliver(Envelope<NetMsg>),
    /// End of the local computing phase of an incarnation.
    ExecutionDone(TxnId),
    /// Resubmission of workload transaction `root` after an abort.
    Restart { root: usize, method: CcMethod },
    /// Periodic global deadlock scan.
    DeadlockScan,
}

/// Book-keeping for one live incarnation.
struct LiveTxn {
    ri: RequestIssuer,
    root: usize,
    first_arrival: SimTime,
}

/// The simulation engine.
pub struct Simulation {
    config: SimConfig,
    catalog: Catalog,
    workload: Vec<WorkloadTxn>,
    events: EventQueue<Event>,
    qms: BTreeMap<SiteId, QueueManager>,
    live: BTreeMap<TxnId, LiveTxn>,
    network: NetworkModel,
    metrics: SimMetrics,
    logs: LogSet,
    rng: SimRng,
    compute_dist: Exponential,
    selector: StlSelector,
    next_txn_id: u64,
    ts_counter: u64,
    committed_roots: usize,
    grant_times: BTreeMap<(TxnId, PhysicalItemId), SimTime>,
    selection_counts: BTreeMap<CcMethod, u64>,
}

impl Simulation {
    /// Build a simulation from a configuration. Panics on an invalid
    /// configuration (call [`SimConfig::validate`] first to get the error).
    pub fn new(config: SimConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid simulation config: {e}"));
        let catalog = Catalog::generate(config.num_sites, config.num_items, config.replication);
        let mut workload_gen = WorkloadGenerator::new(&config);
        let workload = workload_gen.generate(config.num_transactions);
        let rng = SimRng::new(config.seed).fork(0xD217E);
        let latency = LatencyModel::new(
            config.local_delay,
            config.remote_delay,
            SimRng::new(config.seed).fork(0x4E7),
        );
        let qms = catalog
            .sites()
            .iter()
            .map(|&s| {
                (
                    s,
                    QueueManager::from_catalog(
                        s,
                        &catalog,
                        config.initial_value,
                        config.enforcement,
                    ),
                )
            })
            .collect();
        let mut events = EventQueue::new();
        for (root, txn) in workload.iter().enumerate() {
            events.schedule(txn.arrival, Event::Arrival { root });
        }
        events.schedule(
            SimTime::ZERO + config.deadlock_scan_period,
            Event::DeadlockScan,
        );
        let compute_mean = config.local_compute.as_secs_f64().max(1e-9);
        Simulation {
            catalog,
            workload,
            events,
            qms,
            live: BTreeMap::new(),
            network: NetworkModel::new(latency),
            metrics: SimMetrics::new(),
            logs: LogSet::new(),
            rng,
            compute_dist: Exponential::with_mean(compute_mean),
            selector: StlSelector::new(),
            next_txn_id: 0,
            ts_counter: 0,
            committed_roots: 0,
            grant_times: BTreeMap::new(),
            selection_counts: BTreeMap::new(),
            config,
        }
    }

    /// Run the simulation to completion and produce the report.
    pub fn run(config: SimConfig) -> SimReport {
        let mut sim = Simulation::new(config);
        sim.run_to_completion();
        sim.into_report()
    }

    /// Advance until every workload transaction has committed, the event
    /// queue is exhausted, or the simulated-time cap is reached.
    pub fn run_to_completion(&mut self) {
        let deadline = SimTime::ZERO + self.config.max_sim_time;
        while let Some(scheduled) = self.events.pop() {
            if scheduled.at > deadline {
                break;
            }
            self.handle_event(scheduled.at, scheduled.payload);
            if self.committed_roots >= self.workload.len() {
                break;
            }
        }
        let end = self.events.now();
        self.metrics.set_time_span(SimTime::ZERO, end);
    }

    /// The catalog used by this run.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Diagnostics: the incarnations still live (not yet fully released),
    /// with their per-item progress. Useful when a run does not drain.
    pub fn live_transactions(&self) -> Vec<String> {
        self.live
            .iter()
            .map(|(txn, live)| {
                format!(
                    "{txn} ({}) {}",
                    live.ri.txn().method,
                    live.ri.progress_summary()
                )
            })
            .collect()
    }

    /// Consume the simulation and produce its report.
    pub fn into_report(self) -> SimReport {
        let serializable = sercheck::check_serializable(&self.logs);
        SimReport::new(
            self.metrics,
            self.network.stats().clone(),
            self.logs,
            serializable,
            self.committed_roots,
            self.workload.len(),
            self.selection_counts,
        )
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle_event(&mut self, now: SimTime, event: Event) {
        match event {
            Event::Arrival { root } => {
                let method = self.pick_method(root);
                self.launch_incarnation(now, root, method, now);
            }
            Event::Restart { root, method } => {
                let first_arrival = self.workload[root].arrival;
                self.launch_incarnation(now, root, method, first_arrival);
            }
            Event::Deliver(envelope) => match envelope.payload {
                NetMsg::ToQm { origin, msg } => self.deliver_to_qm(now, envelope.to, origin, msg),
                NetMsg::ToRi(reply) => self.deliver_to_ri(now, reply),
            },
            Event::ExecutionDone(txn) => {
                let output = match self.live.get_mut(&txn) {
                    Some(live) => live.ri.on_execution_done(),
                    None => return,
                };
                self.apply_ri_output(now, txn, output);
            }
            Event::DeadlockScan => {
                self.deadlock_scan(now);
                if self.committed_roots < self.workload.len() {
                    self.events
                        .schedule(now + self.config.deadlock_scan_period, Event::DeadlockScan);
                }
            }
        }
    }

    fn pick_method(&mut self, root: usize) -> CcMethod {
        let choice = match self.config.method_policy {
            MethodPolicy::Static(m) => m,
            MethodPolicy::Mix { p_2pl, p_to } => {
                let x = self.rng.next_f64();
                if x < p_2pl {
                    CcMethod::TwoPhaseLocking
                } else if x < p_2pl + p_to {
                    CcMethod::TimestampOrdering
                } else {
                    CcMethod::PrecedenceAgreement
                }
            }
            MethodPolicy::DynamicStl => {
                let spec = &self.workload[root];
                let txn = Transaction::builder(TxnId(u64::MAX), spec.origin)
                    .reads(spec.reads.iter().copied())
                    .writes(spec.writes.iter().copied())
                    .build();
                self.selector
                    .select(&txn, &self.catalog, &self.metrics)
                    .method
            }
        };
        *self.selection_counts.entry(choice).or_insert(0) += 1;
        choice
    }

    fn launch_incarnation(
        &mut self,
        now: SimTime,
        root: usize,
        method: CcMethod,
        first_arrival: SimTime,
    ) {
        let spec = self.workload[root].clone();
        self.next_txn_id += 1;
        let txn_id = TxnId(self.next_txn_id);
        // Timestamps follow simulated time but are strictly increasing across
        // incarnations, so a restarted T/O transaction always retries with a
        // larger timestamp.
        self.ts_counter = self.ts_counter.max(now.as_micros()) + 1;
        let ts = TsTuple::new(Timestamp(self.ts_counter), self.config.pa_backoff_interval);

        let txn = Transaction::builder(txn_id, spec.origin)
            .method(method)
            .reads(spec.reads.iter().copied())
            .writes(spec.writes.iter().copied())
            .build();
        let accesses: Vec<(PhysicalItemId, AccessMode)> = self
            .catalog
            .translate_txn(&txn)
            .expect("workload items exist in the catalog")
            .into_iter()
            .map(|op| (op.item, op.mode))
            .collect();
        let mut ri = RequestIssuer::new(txn, ts, accesses);
        let output = ri.start();
        self.live.insert(
            txn_id,
            LiveTxn {
                ri,
                root,
                first_arrival,
            },
        );
        self.apply_ri_output(now, txn_id, output);
    }

    fn deliver_to_qm(&mut self, now: SimTime, site: SiteId, origin: SiteId, msg: RequestMsg) {
        // Per-request acceptance accounting for the STL estimators: an Access
        // answered immediately with a reject/backoff is a denial, anything
        // else is an acceptance.
        let access_info = match &msg {
            RequestMsg::Access {
                txn, mode, method, ..
            } => Some((*txn, *mode, *method)),
            _ => None,
        };
        let output = {
            let qm = self.qms.get_mut(&site).expect("site exists");
            qm.handle(origin, &msg)
        };
        if let Some((txn, mode, method)) = access_info {
            let denied = output.replies.iter().any(|r| {
                r.txn() == txn && matches!(r, ReplyMsg::Reject { .. } | ReplyMsg::Backoff { .. })
            });
            self.metrics.record_request_outcome(method, mode, denied);
        }
        for event in &output.events {
            match *event {
                QmEvent::GrantIssued {
                    item, txn, access, ..
                } => {
                    self.metrics.record_grant(item, access);
                    self.grant_times.entry((txn, item)).or_insert(now);
                }
                QmEvent::Implemented {
                    item, txn, access, ..
                } => {
                    self.logs.record(item, txn, access);
                    if let Some(granted_at) = self.grant_times.remove(&(txn, item)) {
                        let method = self
                            .live
                            .get(&txn)
                            .map(|l| l.ri.txn().method)
                            .unwrap_or(CcMethod::TwoPhaseLocking);
                        self.metrics
                            .record_lock_hold(method, now - granted_at, false);
                    }
                }
                // The simulator finds deadlocks by its periodic scan.
                QmEvent::WaitEdge { .. } => {}
            }
        }
        for reply in output.replies {
            let txn = reply.txn();
            let Some(dest) = self.live.get(&txn).map(|l| l.ri.txn().origin) else {
                continue;
            };
            let category = match reply {
                ReplyMsg::Ack { .. } => MsgCategory::Ack,
                ReplyMsg::Grant { .. } => MsgCategory::Grant,
                ReplyMsg::Reject { .. } => MsgCategory::Reject,
                ReplyMsg::Backoff { .. } => MsgCategory::Backoff,
            };
            let envelope = self
                .network
                .send(now, site, dest, category, NetMsg::ToRi(reply));
            let at = envelope.deliver_at;
            self.events.schedule(at, Event::Deliver(envelope));
        }
    }

    fn deliver_to_ri(&mut self, now: SimTime, reply: ReplyMsg) {
        let txn = reply.txn();
        let output = match self.live.get_mut(&txn) {
            Some(live) => live.ri.on_reply(&reply),
            // The incarnation was aborted; the stale reply is dropped.
            None => return,
        };
        self.apply_ri_output(now, txn, output);
    }

    fn apply_ri_output(&mut self, now: SimTime, txn: TxnId, output: RiOutput) {
        let (origin, method, root, first_arrival, accessed): (
            SiteId,
            CcMethod,
            usize,
            SimTime,
            Vec<(PhysicalItemId, AccessMode)>,
        ) = {
            let live = self.live.get(&txn).expect("live incarnation");
            (
                live.ri.txn().origin,
                live.ri.txn().method,
                live.root,
                live.first_arrival,
                live.ri.accessed_items().collect(),
            )
        };
        // Route outgoing messages.
        for msg in output.sends {
            let category = match msg {
                RequestMsg::Access { .. } => MsgCategory::Request,
                RequestMsg::UpdatedTs { .. } => MsgCategory::TimestampUpdate,
                RequestMsg::Release { .. } | RequestMsg::Demote { .. } => MsgCategory::Release,
                RequestMsg::Abort { .. } => MsgCategory::Abort,
            };
            let dest = msg.item().site;
            let envelope =
                self.network
                    .send(now, origin, dest, category, NetMsg::ToQm { origin, msg });
            let at = envelope.deliver_at;
            self.events.schedule(at, Event::Deliver(envelope));
        }
        // Apply lifecycle actions.
        let mut fully_released = false;
        for action in output.actions {
            match action {
                RiAction::StartExecution => {
                    let compute = simkit::time::Duration::from_secs_f64(
                        self.compute_dist.sample(&mut self.rng),
                    );
                    self.events
                        .schedule(now + compute, Event::ExecutionDone(txn));
                }
                RiAction::BackoffRound => {
                    self.metrics.record_backoff_round(method);
                }
                RiAction::Committed => {
                    self.metrics
                        .record_commit(method, now.saturating_since(first_arrival));
                    self.committed_roots += 1;
                }
                RiAction::FullyReleased => {
                    fully_released = true;
                }
                RiAction::Restart { rejected } => {
                    let outcome = if rejected {
                        TxnOutcome::RejectedRestart
                    } else {
                        TxnOutcome::DeadlockRestart
                    };
                    self.metrics.record_restart(method, outcome);
                    // Any lock the aborted incarnation held counts as an
                    // aborted hold.
                    for (item, _) in &accessed {
                        if let Some(granted_at) = self.grant_times.remove(&(txn, *item)) {
                            self.metrics
                                .record_lock_hold(method, now - granted_at, true);
                        }
                    }
                    self.events.schedule(
                        now + self.config.restart_delay,
                        Event::Restart { root, method },
                    );
                    self.live.remove(&txn);
                }
            }
        }
        if fully_released {
            // The incarnation holds nothing more; drop its issuer. (Release
            // messages produce no replies, so nothing will look it up again.)
            self.live.remove(&txn);
        }
    }

    fn deadlock_scan(&mut self, now: SimTime) {
        // Count currently blocked transactions (for the "blocked by
        // deadlocked transactions" observation of Section 5).
        let mut edges: Vec<(TxnId, TxnId)> = Vec::new();
        for qm in self.qms.values() {
            qm.wait_edges_into(&mut edges);
        }
        let waiting: std::collections::BTreeSet<TxnId> =
            edges.iter().map(|&(waiter, _)| waiter).collect();
        for _ in &waiting {
            self.metrics.record_blocked_observation();
        }
        let graph = WaitForGraph::from_edges(edges);
        let victims = graph.choose_victims(|txn| {
            self.live
                .get(&txn)
                .map(|l| l.ri.txn().method == CcMethod::TwoPhaseLocking)
                .unwrap_or(false)
        });
        for victim in victims {
            let output = match self.live.get_mut(&victim) {
                Some(live) => live.ri.abort_for_deadlock(),
                None => continue,
            };
            self.apply_ri_output(now, victim, output);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use network::DelaySpec;
    use simkit::time::Duration;

    fn small_config(policy: MethodPolicy) -> SimConfig {
        SimConfig {
            seed: 7,
            num_sites: 3,
            num_items: 60,
            arrival_rate: 200.0,
            txn_size: 3,
            read_fraction: 0.5,
            num_transactions: 300,
            local_compute: Duration::from_millis(2),
            local_delay: DelaySpec::Uniform(20, 100),
            remote_delay: DelaySpec::Uniform(200, 2_000),
            method_policy: policy,
            ..SimConfig::default()
        }
    }

    #[test]
    fn static_2pl_run_commits_everything_and_is_serializable() {
        let report = Simulation::run(small_config(MethodPolicy::Static(
            CcMethod::TwoPhaseLocking,
        )));
        assert_eq!(report.committed, report.submitted);
        assert!(report.serializable().is_ok(), "{:?}", report.serializable());
        assert!(report.metrics.mean_system_time() > 0.0);
        assert!(report.messages.total() > 0);
    }

    #[test]
    fn static_to_run_restarts_but_commits_everything() {
        let report = Simulation::run(small_config(MethodPolicy::Static(
            CcMethod::TimestampOrdering,
        )));
        assert_eq!(report.committed, report.submitted);
        assert!(report.serializable().is_ok());
        // Under contention some rejections must have occurred.
        assert!(
            report
                .metrics
                .method(CcMethod::TimestampOrdering)
                .restarts()
                > 0
        );
        // T/O never deadlocks.
        assert_eq!(
            report
                .metrics
                .method(CcMethod::TimestampOrdering)
                .deadlock_aborts
                .get(),
            0
        );
    }

    #[test]
    fn static_pa_run_never_restarts() {
        let report = Simulation::run(small_config(MethodPolicy::Static(
            CcMethod::PrecedenceAgreement,
        )));
        assert_eq!(report.committed, report.submitted);
        assert!(report.serializable().is_ok());
        assert_eq!(
            report
                .metrics
                .method(CcMethod::PrecedenceAgreement)
                .restarts(),
            0,
            "PA is restart-free (Corollary 1)"
        );
    }

    #[test]
    fn mixed_run_is_serializable_and_only_2pl_deadlocks() {
        let report = Simulation::run(small_config(MethodPolicy::Mix {
            p_2pl: 0.34,
            p_to: 0.33,
        }));
        assert_eq!(report.committed, report.submitted);
        assert!(report.serializable().is_ok());
        assert_eq!(
            report
                .metrics
                .method(CcMethod::TimestampOrdering)
                .deadlock_aborts
                .get(),
            0
        );
        assert_eq!(
            report
                .metrics
                .method(CcMethod::PrecedenceAgreement)
                .deadlock_aborts
                .get(),
            0
        );
    }

    #[test]
    fn dynamic_run_uses_all_methods_and_completes() {
        let report = Simulation::run(small_config(MethodPolicy::DynamicStl));
        assert_eq!(report.committed, report.submitted);
        assert!(report.serializable().is_ok());
        assert!(
            report.selection_counts.len() >= 2,
            "warm-up alone exercises several methods: {:?}",
            report.selection_counts
        );
    }

    #[test]
    fn same_seed_same_report_different_seed_differs() {
        let a = Simulation::run(small_config(MethodPolicy::Static(
            CcMethod::TwoPhaseLocking,
        )));
        let b = Simulation::run(small_config(MethodPolicy::Static(
            CcMethod::TwoPhaseLocking,
        )));
        assert_eq!(a.metrics.mean_system_time(), b.metrics.mean_system_time());
        assert_eq!(a.messages.total(), b.messages.total());
        let mut cfg = small_config(MethodPolicy::Static(CcMethod::TwoPhaseLocking));
        cfg.seed = 8;
        let c = Simulation::run(cfg);
        assert_ne!(a.metrics.mean_system_time(), c.metrics.mean_system_time());
    }
}
