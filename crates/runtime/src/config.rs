//! Configuration of the sharded execution runtime.

use std::time::Duration;

use dbmodel::{CcMethod, ReplicationPolicy, Value};
use unified_cc::EnforcementMode;

/// How the runtime assigns a concurrency-control method to a transaction
/// that does not pin one explicitly (see [`crate::TxnSpec::method`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcPolicy {
    /// Every transaction runs under the same method.
    Static(CcMethod),
    /// Probabilistic mix: a transaction runs 2PL with probability `p_2pl`,
    /// T/O with probability `p_to`, PA otherwise.
    Mix {
        /// Probability of assigning 2PL.
        p_2pl: f64,
        /// Probability of assigning T/O.
        p_to: f64,
    },
    /// Pick the method with the smallest estimated system-throughput loss
    /// using the live metrics (paper, Section 5).
    DynamicStl,
}

/// Errors reported by [`RuntimeConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_shards` must be at least 1.
    NoShards,
    /// `num_items` must be at least 1.
    NoItems,
    /// Mix probabilities must be in `[0, 1]` and sum to at most 1.
    BadMix,
    /// The tracing-plane settings are internally inconsistent.
    BadTrace(String),
    /// The reply-plane sizing is internally inconsistent.
    BadReplyPlane(String),
    /// A wait bound is zero (the runtime would spin).
    BadTimeout(String),
    /// The fault schedule does not match the runtime shape.
    BadFaults(String),
    /// The snapshot-plane settings are internally inconsistent.
    BadSnapshot(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoShards => write!(f, "num_shards must be at least 1"),
            ConfigError::NoItems => write!(f, "num_items must be at least 1"),
            ConfigError::BadMix => {
                write!(f, "mix probabilities must be in [0,1] and sum to at most 1")
            }
            ConfigError::BadTrace(why) => write!(f, "bad trace settings: {why}"),
            ConfigError::BadReplyPlane(why) => write!(f, "bad reply-plane settings: {why}"),
            ConfigError::BadTimeout(why) => write!(f, "bad timeout settings: {why}"),
            ConfigError::BadFaults(why) => write!(f, "bad fault schedule: {why}"),
            ConfigError::BadSnapshot(why) => write!(f, "bad snapshot settings: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of a [`crate::Database`].
///
/// One shard thread is spawned per site; the catalog distributes the
/// logical items over the shards according to `replication`, exactly as the
/// simulator does over sites.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of shard threads (= sites). Each owns the queue manager of the
    /// physical items placed at its site.
    pub num_shards: u32,
    /// Number of logical data items.
    pub num_items: u64,
    /// How copies of logical items are placed across shards.
    pub replication: ReplicationPolicy,
    /// Initial value of every physical item.
    pub initial_value: Value,
    /// Semi-lock enforcement (the paper's proposal) or the lock-all ablation.
    pub enforcement: EnforcementMode,
    /// Method assignment for transactions that do not pin a method.
    pub policy: CcPolicy,
    /// PA's backoff interval `INT` (in timestamp units).
    pub pa_backoff_interval: u64,
    /// Bound of each shard's command inbox — a `VecDeque` behind one
    /// mutex (`transport::ring`) — rounded up to the next power of two.
    /// Only commands that find the shard's core busy, or a backlog ahead
    /// of them, queue there; clients block (backpressure) while it is
    /// full.
    pub shard_inbox_capacity: usize,
    /// Bound of each reusable reply mailbox (rounded up to the next power
    /// of two). Must exceed the replies one incarnation can have
    /// outstanding while its client is between drains — in this runtime,
    /// a couple of replies per accessed item — or delivering shards
    /// briefly yield for the consumer.
    pub reply_mailbox_capacity: usize,
    /// Maximum concurrently open transactions: the reply-mailbox slab
    /// holds one reusable mailbox per open transaction and `begin` fails
    /// with [`crate::TxnError::ReplyPlaneExhausted`] — after a bounded
    /// wait — once this many stay open. It also sizes the slot field in
    /// the low bits of every transaction id (the id is its reply
    /// address): 16 bits at the default 65,536, leaving 48 bits of
    /// begin-order sequence.
    pub reply_max_clients: usize,
    /// Period of the deadlock detector's *backstop* scan and of its
    /// stranded-transaction sweep. It is not the detection latency: a
    /// deadlock is found by the scan its closing wait edge asks for, about
    /// one thread wake-up after the edge is queued. The periodic scan is
    /// there so that liveness never rests on that path — a victim it has
    /// to find is counted in
    /// [`crate::StatsSnapshot::deadlock_backstop_victims`] — and the sweep
    /// (fault recovery: queue entries of transactions no client will
    /// finish) runs on this tick only, cleaning a suspect on its second.
    pub deadlock_scan_interval: Duration,
    /// Restart attempts per transaction before giving up with
    /// [`crate::TxnError::TooManyRestarts`].
    pub max_restarts: u32,
    /// Bound on one incarnation's wait for grants/replies in `begin`.
    /// An incarnation that sees nothing for this long is aborted and
    /// restarted (with backoff, counted in
    /// [`crate::StatsSnapshot::timeout_restarts`]); a transaction that
    /// exhausts `max_restarts` this way fails with
    /// [`crate::TxnError::ShardUnavailable`] instead of blocking forever
    /// on a dead or partitioned shard.
    pub request_timeout: Duration,
    /// Bound on the commit-time wait for the transaction's trailing
    /// normal grants (the T/O demote conversation). On expiry the commit
    /// returns [`crate::TxnError::ShardUnavailable`]; the writes were
    /// already implemented at demote time, so the outcome is "decided
    /// but unacknowledged", exactly like a timed-out distributed commit.
    pub commit_timeout: Duration,
    /// Per-shard bound on the diagnostic oneshot conversations
    /// ([`crate::Database::waiting_transactions`],
    /// [`crate::Database::log_snapshot`] and the fast-path apply
    /// round-trip). A shard that stays silent past the deadline is
    /// skipped (diagnostics) or reported unavailable (fast path).
    pub diagnostic_timeout: Duration,
    /// Base delay between restart attempts (doubled per attempt up to 128×,
    /// plus a per-transaction jitter to break symmetry).
    pub restart_backoff: Duration,
    /// Seed for the method-mix sampler.
    pub seed: u64,
    /// Route invariant-confluent transactions (commutative adds, blind
    /// puts, read-only shapes — see [`selection::classify`]) around the
    /// queue managers through the shard's direct-apply bypass. Off forces
    /// every transaction through full coordination — the route switch
    /// the benchmark's must-fail test flips to prove that a
    /// `counter_bypass` run which lost its bypass is refused.
    pub confluence_fastpath: bool,
    /// The at-apply refusal check of the bypass: the queue manager refuses
    /// a fast-path transaction whenever a touched slot has queued or
    /// granted coordinated work. **Disabling this admits non-serializable
    /// histories** — it exists only as the mutation switch proving the
    /// check is load-bearing (see the runtime's mutation test).
    pub confluence_check: bool,
    /// Serve read-only-classified transactions (see
    /// [`selection::is_read_only`]) from the per-item version chains at
    /// the global read watermark — the fourth method. No grants, no wait
    /// edges, no restart exposure. Off forces read-only transactions
    /// through whatever coordinated method the selector picks — the
    /// route switch the benchmark's must-fail test flips on `read_mostly`.
    pub snapshot_reads: bool,
    /// The watermark check of the snapshot plane: a snapshot read serves
    /// the newest version stamped at or below the global read watermark.
    /// **Disabling this serves the raw chain head instead — uncommitted
    /// prefixes of in-flight multi-item writers become visible and the
    /// history stops being serializable.** It exists only as the mutation
    /// switch proving the watermark is load-bearing (see the runtime's
    /// mutation test).
    pub snapshot_validation: bool,
    /// Committed versions retained per item **above** what the global
    /// read watermark needs: each item keeps every version a watermark
    /// read could serve plus at most this many newer ones, with a hard
    /// cap of 4× this value against a stalled watermark. Must be at
    /// least 1.
    pub version_retain: usize,
    /// Deterministic fault injection on the client→shard message plane:
    /// `Some(schedule)` arms a [`faultsim::FaultPlane`] with the given
    /// seeded schedule (drop / duplicate / delay / partition per link,
    /// scheduled shard crashes). The schedule must cover exactly
    /// `num_shards` links. `None` (default) is the reliable plane.
    pub faults: Option<faultsim::FaultSchedule>,
    /// Suppress re-delivered duplicate `Access` messages at the queue
    /// manager (keyed by the queued incarnation — TxnIds are never
    /// reused, so a second `Access` from the same incarnation at an item
    /// it already queued at is always a transport-level duplicate).
    /// **Disabling this admits double-queued entries** — it exists only
    /// as the mutation switch proving the guard is load-bearing under
    /// the duplicate-injection schedule.
    pub dedup_access: bool,
    /// The flight-recorder tracing plane: [`trace::TraceLevel::Off`]
    /// records nothing (and allocates nothing), `Counters` keeps phase
    /// counters and the Section-5 span accumulators, `Full` (default)
    /// adds the per-lane event rings, transport dwell stamps and the
    /// anomaly postmortem dumps.
    pub trace: trace::TraceConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            num_shards: 4,
            num_items: 64,
            replication: ReplicationPolicy::SingleCopy,
            initial_value: 0,
            enforcement: EnforcementMode::SemiLock,
            policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
            pa_backoff_interval: 1_000,
            shard_inbox_capacity: 256,
            reply_mailbox_capacity: 256,
            reply_max_clients: 65536,
            deadlock_scan_interval: Duration::from_millis(5),
            max_restarts: 256,
            request_timeout: Duration::from_secs(30),
            commit_timeout: Duration::from_secs(30),
            diagnostic_timeout: Duration::from_secs(1),
            restart_backoff: Duration::from_micros(200),
            seed: 0,
            confluence_fastpath: true,
            confluence_check: true,
            snapshot_reads: true,
            snapshot_validation: true,
            version_retain: unified_cc::DEFAULT_VERSION_RETAIN,
            faults: None,
            dedup_access: true,
            trace: trace::TraceConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// Check the configuration for internal consistency.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_shards == 0 {
            return Err(ConfigError::NoShards);
        }
        if self.num_items == 0 {
            return Err(ConfigError::NoItems);
        }
        if let CcPolicy::Mix { p_2pl, p_to } = self.policy {
            let ok = (0.0..=1.0).contains(&p_2pl)
                && (0.0..=1.0).contains(&p_to)
                && p_2pl + p_to <= 1.0 + 1e-9;
            if !ok {
                return Err(ConfigError::BadMix);
            }
        }
        self.trace.validate().map_err(ConfigError::BadTrace)?;
        if self.reply_max_clients == 0 {
            return Err(ConfigError::BadReplyPlane(
                "reply_max_clients must be at least 1".into(),
            ));
        }
        for (name, value) in [
            ("request_timeout", self.request_timeout),
            ("commit_timeout", self.commit_timeout),
            ("diagnostic_timeout", self.diagnostic_timeout),
        ] {
            if value.is_zero() {
                return Err(ConfigError::BadTimeout(format!("{name} must be nonzero")));
            }
        }
        if self.version_retain == 0 {
            return Err(ConfigError::BadSnapshot(
                "version_retain must be at least 1 (the head version is always kept)".into(),
            ));
        }
        if let Some(schedule) = &self.faults {
            if schedule.num_links() != self.num_shards as usize {
                return Err(ConfigError::BadFaults(format!(
                    "schedule covers {} links but the runtime has {} shards",
                    schedule.num_links(),
                    self.num_shards
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(RuntimeConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_shards_and_items_are_rejected() {
        let c = RuntimeConfig {
            num_shards: 0,
            ..RuntimeConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::NoShards));
        let c = RuntimeConfig {
            num_items: 0,
            ..RuntimeConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::NoItems));
    }

    #[test]
    fn bad_mix_is_rejected() {
        let mut c = RuntimeConfig {
            policy: CcPolicy::Mix {
                p_2pl: 0.8,
                p_to: 0.5,
            },
            ..RuntimeConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::BadMix));
        c.policy = CcPolicy::Mix {
            p_2pl: 0.4,
            p_to: 0.3,
        };
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn bad_reply_plane_sizing_is_rejected() {
        let c = RuntimeConfig {
            reply_max_clients: 0,
            ..RuntimeConfig::default()
        };
        assert!(matches!(c.validate(), Err(ConfigError::BadReplyPlane(_))));
        let c = RuntimeConfig {
            reply_max_clients: 1,
            ..RuntimeConfig::default()
        };
        assert_eq!(c.validate(), Ok(()), "a one-mailbox plane is valid");
    }

    #[test]
    fn zero_version_retain_is_rejected() {
        let c = RuntimeConfig {
            version_retain: 0,
            ..RuntimeConfig::default()
        };
        assert!(matches!(c.validate(), Err(ConfigError::BadSnapshot(_))));
    }

    #[test]
    fn zero_timeouts_are_rejected() {
        for patch in [
            |c: &mut RuntimeConfig| c.request_timeout = Duration::ZERO,
            |c: &mut RuntimeConfig| c.commit_timeout = Duration::ZERO,
            |c: &mut RuntimeConfig| c.diagnostic_timeout = Duration::ZERO,
        ] {
            let mut c = RuntimeConfig::default();
            patch(&mut c);
            assert!(matches!(c.validate(), Err(ConfigError::BadTimeout(_))));
        }
    }

    #[test]
    fn fault_schedule_link_count_must_match_shards() {
        let schedule = faultsim::FaultSchedule::generate(faultsim::FaultProfile::default(), 1, 2);
        let c = RuntimeConfig {
            num_shards: 4,
            faults: Some(schedule.clone()),
            ..RuntimeConfig::default()
        };
        assert!(matches!(c.validate(), Err(ConfigError::BadFaults(_))));
        let c = RuntimeConfig {
            num_shards: 2,
            faults: Some(schedule),
            ..RuntimeConfig::default()
        };
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn bad_trace_config_is_rejected() {
        let c = RuntimeConfig {
            trace: trace::TraceConfig {
                ring_capacity: 0,
                ..trace::TraceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        assert!(matches!(c.validate(), Err(ConfigError::BadTrace(_))));
        let c = RuntimeConfig {
            trace: trace::TraceConfig {
                level: trace::TraceLevel::Off,
                ring_capacity: 0,
                ..trace::TraceConfig::default()
            },
            ..RuntimeConfig::default()
        };
        assert_eq!(c.validate(), Ok(()), "ring capacity is ignored when off");
    }
}
