//! Metric collection for simulation runs.

use std::collections::BTreeMap;

use dbmodel::{AccessMode, CcMethod, PhysicalItemId};
use simkit::stats::{Counter, Histogram, RunningStat};
use simkit::time::{Duration, SimTime};

/// How a transaction attempt (one incarnation) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The incarnation executed and committed.
    Committed,
    /// The incarnation was rejected by the T/O rule and restarted.
    RejectedRestart,
    /// The incarnation was aborted as a deadlock victim and restarted.
    DeadlockRestart,
}

/// Statistics broken down for one concurrency-control method.
#[derive(Debug, Clone)]
pub struct MethodStats {
    /// Committed transactions.
    pub committed: Counter,
    /// Transaction restarts caused by T/O rejections.
    pub rejections: Counter,
    /// Transaction restarts caused by deadlock victim selection.
    pub deadlock_aborts: Counter,
    /// PA backoff rounds performed.
    pub backoff_rounds: Counter,
    /// System time (submission to execution) of committed transactions, in
    /// seconds.
    pub system_time: Histogram,
    /// Lock-hold time (grant to release) of requests whose transaction
    /// committed, in seconds.
    pub lock_time_ok: RunningStat,
    /// Lock-hold time of requests whose transaction was aborted, in seconds.
    pub lock_time_aborted: RunningStat,
    /// Per-request acceptance outcomes, split by access mode: `(accepted,
    /// rejected-or-backed-off)` counts for reads and writes. For T/O the
    /// second component counts rejections; for PA it counts backoffs.
    pub read_requests: (u64, u64),
    /// See [`MethodStats::read_requests`].
    pub write_requests: (u64, u64),
}

impl Default for MethodStats {
    fn default() -> Self {
        MethodStats {
            committed: Counter::new(),
            rejections: Counter::new(),
            deadlock_aborts: Counter::new(),
            backoff_rounds: Counter::new(),
            // 10 ms buckets, up to 20 s of system time before overflow.
            system_time: Histogram::new(0.010, 2000),
            lock_time_ok: RunningStat::new(),
            lock_time_aborted: RunningStat::new(),
            read_requests: (0, 0),
            write_requests: (0, 0),
        }
    }
}

impl MethodStats {
    /// Mean system time in seconds (the paper's `S`) for this method.
    pub fn mean_system_time(&self) -> f64 {
        self.system_time.mean()
    }

    /// Total restarts (rejections plus deadlock aborts).
    pub fn restarts(&self) -> u64 {
        self.rejections.get() + self.deadlock_aborts.get()
    }

    /// Probability that a read request is rejected (T/O) or backed off (PA).
    pub fn read_denial_prob(&self) -> f64 {
        self.sample().read_denial_prob()
    }

    /// Probability that a write request is rejected (T/O) or backed off (PA).
    pub fn write_denial_prob(&self) -> f64 {
        self.sample().write_denial_prob()
    }

    /// Probability that a transaction incarnation aborts due to deadlock.
    pub fn deadlock_abort_prob(&self) -> f64 {
        self.sample().deadlock_abort_prob()
    }

    /// The scalars the STL protocol parameters derive from.
    pub fn sample(&self) -> MethodSample {
        MethodSample {
            committed: self.committed.get(),
            rejections: self.rejections.get(),
            deadlock_aborts: self.deadlock_aborts.get(),
            lock_time_ok: self.lock_time_ok,
            lock_time_aborted: self.lock_time_aborted,
            read_requests: self.read_requests,
            write_requests: self.write_requests,
        }
    }

    /// Fold another method's statistics into this one (used to combine
    /// per-thread metric stripes into one view).
    pub fn merge_from(&mut self, other: &MethodStats) {
        self.committed.add(other.committed.get());
        self.rejections.add(other.rejections.get());
        self.deadlock_aborts.add(other.deadlock_aborts.get());
        self.backoff_rounds.add(other.backoff_rounds.get());
        self.system_time.merge(&other.system_time);
        self.lock_time_ok.merge(&other.lock_time_ok);
        self.lock_time_aborted.merge(&other.lock_time_aborted);
        self.read_requests.0 += other.read_requests.0;
        self.read_requests.1 += other.read_requests.1;
        self.write_requests.0 += other.write_requests.0;
        self.write_requests.1 += other.write_requests.1;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The scalars of one method that the STL protocol parameters derive from:
/// [`MethodStats`] without its latency histogram, so it copies and merges
/// in O(1).
#[derive(Debug, Clone, Copy, Default)]
pub struct MethodSample {
    /// Committed transactions.
    pub committed: u64,
    /// Restarts caused by T/O rejections.
    pub rejections: u64,
    /// Restarts caused by deadlock victim selection.
    pub deadlock_aborts: u64,
    /// See [`MethodStats::lock_time_ok`].
    pub lock_time_ok: RunningStat,
    /// See [`MethodStats::lock_time_aborted`].
    pub lock_time_aborted: RunningStat,
    /// See [`MethodStats::read_requests`].
    pub read_requests: (u64, u64),
    /// See [`MethodStats::read_requests`].
    pub write_requests: (u64, u64),
}

impl MethodSample {
    /// Probability that a read request is rejected (T/O) or backed off (PA).
    pub fn read_denial_prob(&self) -> f64 {
        ratio(
            self.read_requests.1,
            self.read_requests.0 + self.read_requests.1,
        )
    }

    /// Probability that a write request is rejected (T/O) or backed off (PA).
    pub fn write_denial_prob(&self) -> f64 {
        ratio(
            self.write_requests.1,
            self.write_requests.0 + self.write_requests.1,
        )
    }

    /// Probability that a transaction incarnation aborts due to deadlock.
    pub fn deadlock_abort_prob(&self) -> f64 {
        let attempts = self.committed + self.rejections + self.deadlock_aborts;
        ratio(self.deadlock_aborts, attempts)
    }

    fn merge_from(&mut self, other: &MethodSample) {
        self.committed += other.committed;
        self.rejections += other.rejections;
        self.deadlock_aborts += other.deadlock_aborts;
        self.lock_time_ok.merge(&other.lock_time_ok);
        self.lock_time_aborted.merge(&other.lock_time_aborted);
        self.read_requests.0 += other.read_requests.0;
        self.read_requests.1 += other.read_requests.1;
        self.write_requests.0 += other.write_requests.0;
        self.write_requests.1 += other.write_requests.1;
    }
}

/// The system-wide scalars the STL model and protocol parameters derive
/// from: per-method [`MethodSample`]s and the grant / commit totals, with
/// no per-item map and no histogram. Taking one off a [`SimMetrics`] and
/// folding it into another are O(1), so a sharded embedder can probe for
/// parameter drift without merging its per-item tables; folding the
/// samples of every shard in shard order yields exactly the sample of the
/// merged collection.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsSample {
    /// Per-method scalars, in [`CcMethod::ALL`] order.
    pub methods: [MethodSample; 3],
    /// Read locks granted, all items.
    pub read_grants: u64,
    /// Write locks granted, all items.
    pub write_grants: u64,
    /// Committed transactions, all methods.
    pub committed: u64,
    /// Length of the measured span in seconds (the receiver's is kept by
    /// [`MetricsSample::merge_from`]).
    pub elapsed_secs: f64,
}

impl MetricsSample {
    /// The scalars of one method.
    pub fn method(&self, m: CcMethod) -> &MethodSample {
        let index = CcMethod::ALL
            .iter()
            .position(|&x| x == m)
            .expect("CcMethod::ALL lists every method");
        &self.methods[index]
    }

    /// Fold another sample into this one.
    pub fn merge_from(&mut self, other: &MetricsSample) {
        for (mine, theirs) in self.methods.iter_mut().zip(&other.methods) {
            mine.merge_from(theirs);
        }
        self.read_grants += other.read_grants;
        self.write_grants += other.write_grants;
        self.committed += other.committed;
    }

    /// Total system throughput λA in grants per second.
    pub fn system_throughput(&self) -> f64 {
        rate(self.read_grants + self.write_grants, self.elapsed_secs)
    }

    /// Average read-lock throughput λ̄r over `items` read-granting items.
    pub fn avg_read_throughput(&self, items: usize) -> f64 {
        avg_rate(self.read_grants, items, self.elapsed_secs)
    }

    /// Average write-lock throughput λ̄w over `items` write-granting items.
    pub fn avg_write_throughput(&self, items: usize) -> f64 {
        avg_rate(self.write_grants, items, self.elapsed_secs)
    }

    /// Fraction of granted locks that were read locks (Q_r).
    pub fn read_fraction(&self) -> f64 {
        ratio(self.read_grants, self.read_grants + self.write_grants)
    }

    /// Committed transactions per second.
    pub fn commit_throughput(&self) -> f64 {
        rate(self.committed, self.elapsed_secs)
    }
}

/// All metrics of one simulation run.
#[derive(Debug, Clone)]
pub struct SimMetrics {
    per_method: BTreeMap<CcMethod, MethodStats>,
    /// Read locks granted per physical item.
    read_grants: BTreeMap<PhysicalItemId, u64>,
    /// Write locks granted per physical item.
    write_grants: BTreeMap<PhysicalItemId, u64>,
    /// Running sums of the two maps above, so the system-wide rates (and
    /// [`SimMetrics::sample`]) never walk them.
    read_grant_total: u64,
    write_grant_total: u64,
    /// Committed transactions across all methods.
    pub total_committed: Counter,
    /// Transactions observed blocked (waiting for at least one grant) when a
    /// deadlock scan ran; a proxy for the paper's "transactions blocked by
    /// deadlocked transactions".
    pub blocked_observations: Counter,
    /// Overall system-time statistics in seconds.
    pub overall_system_time: RunningStat,
    start: SimTime,
    end: SimTime,
}

impl Default for SimMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl SimMetrics {
    /// Create an empty metrics collection.
    pub fn new() -> Self {
        SimMetrics {
            per_method: CcMethod::ALL
                .iter()
                .map(|&m| (m, MethodStats::default()))
                .collect(),
            read_grants: BTreeMap::new(),
            write_grants: BTreeMap::new(),
            read_grant_total: 0,
            write_grant_total: 0,
            total_committed: Counter::new(),
            blocked_observations: Counter::new(),
            overall_system_time: RunningStat::new(),
            start: SimTime::ZERO,
            end: SimTime::ZERO,
        }
    }

    /// Record the simulated time span covered by the run (used to turn counts
    /// into rates).
    pub fn set_time_span(&mut self, start: SimTime, end: SimTime) {
        self.start = start;
        self.end = end.max(start);
    }

    /// The simulated wall-clock length of the run in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// The statistics of one method.
    pub fn method(&self, m: CcMethod) -> &MethodStats {
        &self.per_method[&m]
    }

    /// Mutable access to the statistics of one method.
    pub fn method_mut(&mut self, m: CcMethod) -> &mut MethodStats {
        self.per_method.get_mut(&m).expect("all methods present")
    }

    /// Record a committed transaction and its system time.
    pub fn record_commit(&mut self, method: CcMethod, system_time: Duration) {
        let secs = system_time.as_secs_f64();
        self.method_mut(method).committed.incr();
        self.method_mut(method).system_time.record(secs);
        self.total_committed.incr();
        self.overall_system_time.record(secs);
    }

    /// Record a restart of a transaction incarnation.
    pub fn record_restart(&mut self, method: CcMethod, outcome: TxnOutcome) {
        match outcome {
            TxnOutcome::RejectedRestart => self.method_mut(method).rejections.incr(),
            TxnOutcome::DeadlockRestart => self.method_mut(method).deadlock_aborts.incr(),
            TxnOutcome::Committed => {}
        }
    }

    /// Record a PA backoff round (one per transaction incarnation that had to
    /// back off its timestamp).
    pub fn record_backoff_round(&mut self, method: CcMethod) {
        self.method_mut(method).backoff_rounds.incr();
    }

    /// Record that a lock was granted on an item (feeds the per-queue
    /// throughputs λr(j), λw(j) of the STL model).
    pub fn record_grant(&mut self, item: PhysicalItemId, mode: AccessMode) {
        let (map, total) = match mode {
            AccessMode::Read => (&mut self.read_grants, &mut self.read_grant_total),
            AccessMode::Write => (&mut self.write_grants, &mut self.write_grant_total),
        };
        *map.entry(item).or_insert(0) += 1;
        *total += 1;
    }

    /// Record the hold time of one lock (grant to release/demote), noting
    /// whether the owning transaction incarnation was aborted.
    pub fn record_lock_hold(&mut self, method: CcMethod, held: Duration, aborted: bool) {
        let stats = self.method_mut(method);
        if aborted {
            stats.lock_time_aborted.record(held.as_secs_f64());
        } else {
            stats.lock_time_ok.record(held.as_secs_f64());
        }
    }

    /// Record the acceptance outcome of one request: `denied` is a T/O
    /// rejection or PA backoff.
    pub fn record_request_outcome(&mut self, method: CcMethod, mode: AccessMode, denied: bool) {
        let stats = self.method_mut(method);
        let slot = match mode {
            AccessMode::Read => &mut stats.read_requests,
            AccessMode::Write => &mut stats.write_requests,
        };
        if denied {
            slot.1 += 1;
        } else {
            slot.0 += 1;
        }
    }

    /// Record that a transaction was observed blocked during a deadlock scan.
    pub fn record_blocked_observation(&mut self) {
        self.blocked_observations.incr();
    }

    /// Fold another collection into this one. Counts, histograms and
    /// running statistics combine exactly (the merged result equals what
    /// sequential recording of both event streams would have produced);
    /// the receiver's time span is kept, so set it before deriving rates.
    ///
    /// This is the epoch-boundary half of commit-path-free metrics: client
    /// threads record into private stripes, and only the selector's re-fit
    /// (or a final report) pays for merging them.
    pub fn merge_from(&mut self, other: &SimMetrics) {
        for (&method, stats) in &other.per_method {
            self.method_mut(method).merge_from(stats);
        }
        for (&item, &count) in &other.read_grants {
            *self.read_grants.entry(item).or_insert(0) += count;
        }
        for (&item, &count) in &other.write_grants {
            *self.write_grants.entry(item).or_insert(0) += count;
        }
        self.read_grant_total += other.read_grant_total;
        self.write_grant_total += other.write_grant_total;
        self.total_committed.add(other.total_committed.get());
        self.blocked_observations
            .add(other.blocked_observations.get());
        self.overall_system_time.merge(&other.overall_system_time);
    }

    /// Read-lock throughput of one item, in grants per simulated second
    /// (the paper's λr(j)).
    pub fn read_throughput(&self, item: PhysicalItemId) -> f64 {
        rate(
            self.read_grants.get(&item).copied().unwrap_or(0),
            self.elapsed_secs(),
        )
    }

    /// Write-lock throughput of one item (λw(j)).
    pub fn write_throughput(&self, item: PhysicalItemId) -> f64 {
        rate(
            self.write_grants.get(&item).copied().unwrap_or(0),
            self.elapsed_secs(),
        )
    }

    /// The measured `(λ_r(j), λ_w(j))` of every item that granted at least
    /// one lock, in grants per second. This is the per-item rate table an
    /// epoch snapshot freezes so cached selections stay a pure function of
    /// the transaction's access sets; the values equal what
    /// [`SimMetrics::read_throughput`] / [`SimMetrics::write_throughput`]
    /// return for the same item at the same instant.
    pub fn item_rates(&self) -> BTreeMap<PhysicalItemId, (f64, f64)> {
        let elapsed = self.elapsed_secs();
        let mut rates: BTreeMap<PhysicalItemId, (f64, f64)> = BTreeMap::new();
        for (&item, &count) in &self.read_grants {
            rates.entry(item).or_default().0 = rate(count, elapsed);
        }
        for (&item, &count) in &self.write_grants {
            rates.entry(item).or_default().1 = rate(count, elapsed);
        }
        rates
    }

    /// How many items granted at least one read lock, and how many at least
    /// one write lock: the denominators of λ̄r and λ̄w.
    pub fn granted_item_counts(&self) -> (usize, usize) {
        (self.read_grants.len(), self.write_grants.len())
    }

    /// The system-wide scalars of this collection (O(1): no per-item map is
    /// walked).
    pub fn sample(&self) -> MetricsSample {
        MetricsSample {
            methods: CcMethod::ALL.map(|m| self.method(m).sample()),
            read_grants: self.read_grant_total,
            write_grants: self.write_grant_total,
            committed: self.total_committed.get(),
            elapsed_secs: self.elapsed_secs(),
        }
    }

    /// Average read-lock throughput over all items that granted at least one
    /// lock (the paper's λ̄r).
    pub fn avg_read_throughput(&self) -> f64 {
        avg_rate(
            self.read_grant_total,
            self.read_grants.len(),
            self.elapsed_secs(),
        )
    }

    /// Average write-lock throughput over all items (λ̄w).
    pub fn avg_write_throughput(&self) -> f64 {
        avg_rate(
            self.write_grant_total,
            self.write_grants.len(),
            self.elapsed_secs(),
        )
    }

    /// Total system throughput λA: the sum of all per-item read and write
    /// throughputs.
    pub fn system_throughput(&self) -> f64 {
        rate(
            self.read_grant_total + self.write_grant_total,
            self.elapsed_secs(),
        )
    }

    /// Fraction of granted locks that were read locks (the paper's Q_r).
    pub fn read_fraction(&self) -> f64 {
        ratio(
            self.read_grant_total,
            self.read_grant_total + self.write_grant_total,
        )
    }

    /// Committed transactions per simulated second.
    pub fn commit_throughput(&self) -> f64 {
        rate(self.total_committed.get(), self.elapsed_secs())
    }

    /// Mean system time over all committed transactions, in seconds (the
    /// paper's `S`).
    pub fn mean_system_time(&self) -> f64 {
        self.overall_system_time.mean()
    }
}

fn rate(count: u64, elapsed_secs: f64) -> f64 {
    if elapsed_secs <= 0.0 {
        0.0
    } else {
        count as f64 / elapsed_secs
    }
}

/// The mean per-item rate of `total` grants spread over `items` items.
fn avg_rate(total: u64, items: usize, elapsed_secs: f64) -> f64 {
    if items == 0 {
        return 0.0;
    }
    rate(total, elapsed_secs) / items as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmodel::{LogicalItemId, SiteId};

    fn pi(i: u64, s: u32) -> PhysicalItemId {
        PhysicalItemId::new(LogicalItemId(i), SiteId(s))
    }

    fn m() -> SimMetrics {
        let mut m = SimMetrics::new();
        m.set_time_span(SimTime::ZERO, SimTime::from_secs(10));
        m
    }

    #[test]
    fn commit_updates_method_and_overall() {
        let mut metrics = m();
        metrics.record_commit(CcMethod::TwoPhaseLocking, Duration::from_millis(50));
        metrics.record_commit(CcMethod::TwoPhaseLocking, Duration::from_millis(150));
        metrics.record_commit(CcMethod::TimestampOrdering, Duration::from_millis(100));
        assert_eq!(metrics.method(CcMethod::TwoPhaseLocking).committed.get(), 2);
        assert_eq!(metrics.total_committed.get(), 3);
        assert!((metrics.method(CcMethod::TwoPhaseLocking).mean_system_time() - 0.1).abs() < 0.01);
        assert!((metrics.mean_system_time() - 0.1).abs() < 0.01);
        assert!((metrics.commit_throughput() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn restart_counters_split_by_cause() {
        let mut metrics = m();
        metrics.record_restart(CcMethod::TimestampOrdering, TxnOutcome::RejectedRestart);
        metrics.record_restart(CcMethod::TwoPhaseLocking, TxnOutcome::DeadlockRestart);
        metrics.record_restart(CcMethod::TwoPhaseLocking, TxnOutcome::Committed);
        assert_eq!(
            metrics.method(CcMethod::TimestampOrdering).rejections.get(),
            1
        );
        assert_eq!(
            metrics
                .method(CcMethod::TwoPhaseLocking)
                .deadlock_aborts
                .get(),
            1
        );
        assert_eq!(metrics.method(CcMethod::TwoPhaseLocking).restarts(), 1);
    }

    #[test]
    fn throughputs_are_rates_over_elapsed_time() {
        let mut metrics = m();
        for _ in 0..20 {
            metrics.record_grant(pi(1, 0), AccessMode::Read);
        }
        for _ in 0..10 {
            metrics.record_grant(pi(1, 0), AccessMode::Write);
            metrics.record_grant(pi(2, 0), AccessMode::Write);
        }
        assert!((metrics.read_throughput(pi(1, 0)) - 2.0).abs() < 1e-9);
        assert!((metrics.write_throughput(pi(1, 0)) - 1.0).abs() < 1e-9);
        assert_eq!(metrics.read_throughput(pi(9, 9)), 0.0);
        assert!((metrics.system_throughput() - 4.0).abs() < 1e-9);
        assert!((metrics.avg_write_throughput() - 1.0).abs() < 1e-9);
        assert!((metrics.read_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn request_outcome_probabilities() {
        let mut metrics = m();
        for _ in 0..8 {
            metrics.record_request_outcome(CcMethod::TimestampOrdering, AccessMode::Read, false);
        }
        for _ in 0..2 {
            metrics.record_request_outcome(CcMethod::TimestampOrdering, AccessMode::Read, true);
        }
        metrics.record_request_outcome(CcMethod::TimestampOrdering, AccessMode::Write, true);
        let stats = metrics.method(CcMethod::TimestampOrdering);
        assert!((stats.read_denial_prob() - 0.2).abs() < 1e-9);
        assert!((stats.write_denial_prob() - 1.0).abs() < 1e-9);
        assert_eq!(
            metrics
                .method(CcMethod::PrecedenceAgreement)
                .read_denial_prob(),
            0.0
        );
    }

    #[test]
    fn lock_hold_split_by_abort() {
        let mut metrics = m();
        metrics.record_lock_hold(
            CcMethod::PrecedenceAgreement,
            Duration::from_millis(10),
            false,
        );
        metrics.record_lock_hold(
            CcMethod::PrecedenceAgreement,
            Duration::from_millis(30),
            false,
        );
        metrics.record_lock_hold(
            CcMethod::PrecedenceAgreement,
            Duration::from_millis(100),
            true,
        );
        let stats = metrics.method(CcMethod::PrecedenceAgreement);
        assert!((stats.lock_time_ok.mean() - 0.02).abs() < 1e-9);
        assert!((stats.lock_time_aborted.mean() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn deadlock_abort_probability_uses_attempts() {
        let mut metrics = m();
        metrics.record_commit(CcMethod::TwoPhaseLocking, Duration::from_millis(10));
        metrics.record_commit(CcMethod::TwoPhaseLocking, Duration::from_millis(10));
        metrics.record_commit(CcMethod::TwoPhaseLocking, Duration::from_millis(10));
        metrics.record_restart(CcMethod::TwoPhaseLocking, TxnOutcome::DeadlockRestart);
        let p = metrics
            .method(CcMethod::TwoPhaseLocking)
            .deadlock_abort_prob();
        assert!((p - 0.25).abs() < 1e-9);
    }

    #[test]
    fn merge_from_matches_sequential_recording() {
        // The same event stream recorded once sequentially and once split
        // over two collections must produce identical aggregates.
        let mut all = m();
        let mut a = SimMetrics::new();
        let mut b = SimMetrics::new();
        for i in 0..120u64 {
            let target = if i % 3 == 0 { &mut a } else { &mut b };
            let method = CcMethod::ALL[(i % 3) as usize];
            let ms = 10 + (i % 7) * 13;
            all.record_commit(method, Duration::from_millis(ms));
            target.record_commit(method, Duration::from_millis(ms));
            all.record_grant(pi(i % 5, 0), AccessMode::Read);
            target.record_grant(pi(i % 5, 0), AccessMode::Read);
            if i % 4 == 0 {
                all.record_grant(pi(i % 5, 0), AccessMode::Write);
                target.record_grant(pi(i % 5, 0), AccessMode::Write);
                all.record_request_outcome(method, AccessMode::Write, i % 8 == 0);
                target.record_request_outcome(method, AccessMode::Write, i % 8 == 0);
                all.record_restart(method, TxnOutcome::RejectedRestart);
                target.record_restart(method, TxnOutcome::RejectedRestart);
                all.record_lock_hold(method, Duration::from_millis(ms), i % 8 == 0);
                target.record_lock_hold(method, Duration::from_millis(ms), i % 8 == 0);
            }
        }
        let mut merged = SimMetrics::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        merged.set_time_span(SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(merged.total_committed.get(), all.total_committed.get());
        assert!((merged.mean_system_time() - all.mean_system_time()).abs() < 1e-12);
        assert!((merged.system_throughput() - all.system_throughput()).abs() < 1e-9);
        assert!((merged.read_fraction() - all.read_fraction()).abs() < 1e-12);
        assert_eq!(merged.item_rates(), all.item_rates());
        for &method in &CcMethod::ALL {
            let (x, y) = (merged.method(method), all.method(method));
            assert_eq!(x.committed.get(), y.committed.get());
            assert_eq!(x.restarts(), y.restarts());
            assert_eq!(x.read_requests, y.read_requests);
            assert_eq!(x.write_requests, y.write_requests);
            assert!((x.mean_system_time() - y.mean_system_time()).abs() < 1e-12);
            assert!((x.lock_time_ok.mean() - y.lock_time_ok.mean()).abs() < 1e-12);
            assert!((x.deadlock_abort_prob() - y.deadlock_abort_prob()).abs() < 1e-12);
        }
    }

    #[test]
    fn folded_stripe_samples_equal_the_sample_of_the_merge() {
        // Two stripes with overlapping items and all three methods.
        let mut stripes = [SimMetrics::new(), SimMetrics::new()];
        for i in 0..90u64 {
            let stripe = &mut stripes[(i % 2) as usize];
            let method = CcMethod::ALL[(i % 3) as usize];
            stripe.record_commit(method, Duration::from_millis(10 + i));
            stripe.record_grant(pi(i % 7, 0), AccessMode::Read);
            stripe.record_lock_hold(method, Duration::from_millis(5 + i % 11), i % 9 == 0);
            if i % 4 == 0 {
                stripe.record_grant(pi(i % 5, 1), AccessMode::Write);
                stripe.record_request_outcome(method, AccessMode::Read, i % 8 == 0);
                stripe.record_restart(method, TxnOutcome::DeadlockRestart);
            }
        }
        let mut merged = SimMetrics::new();
        let mut folded = MetricsSample {
            elapsed_secs: 10.0,
            ..MetricsSample::default()
        };
        for stripe in &stripes {
            merged.merge_from(stripe);
            folded.merge_from(&stripe.sample());
        }
        merged.set_time_span(SimTime::ZERO, SimTime::from_secs(10));
        let whole = merged.sample();
        assert_eq!(
            (folded.read_grants, folded.write_grants, folded.committed),
            (whole.read_grants, whole.write_grants, whole.committed)
        );
        // The running totals are the sums of the per-item maps.
        let (reads, writes) = merged.granted_item_counts();
        assert_eq!((reads, writes), (7, 5));
        let by_item: f64 = (0..7)
            .map(|i| merged.read_throughput(pi(i, 0)))
            .sum::<f64>()
            + (0..5)
                .map(|i| merged.write_throughput(pi(i, 1)))
                .sum::<f64>();
        assert!((by_item - folded.system_throughput()).abs() < 1e-9);
        for (probe, full) in [
            (folded.system_throughput(), merged.system_throughput()),
            (folded.read_fraction(), merged.read_fraction()),
            (folded.commit_throughput(), merged.commit_throughput()),
            (
                folded.avg_read_throughput(reads),
                merged.avg_read_throughput(),
            ),
            (
                folded.avg_write_throughput(writes),
                merged.avg_write_throughput(),
            ),
        ] {
            assert_eq!(probe.to_bits(), full.to_bits());
        }
        for &method in &CcMethod::ALL {
            let (probe, full) = (folded.method(method), merged.method(method));
            assert_eq!(probe.committed, full.committed.get());
            assert_eq!(
                probe.lock_time_ok.mean().to_bits(),
                full.lock_time_ok.mean().to_bits()
            );
            assert_eq!(
                probe.lock_time_aborted.mean().to_bits(),
                full.lock_time_aborted.mean().to_bits()
            );
            assert_eq!(probe.read_denial_prob(), full.read_denial_prob());
            assert_eq!(probe.deadlock_abort_prob(), full.deadlock_abort_prob());
        }
    }

    #[test]
    fn zero_elapsed_time_gives_zero_rates() {
        let mut metrics = SimMetrics::new();
        metrics.record_grant(pi(1, 0), AccessMode::Read);
        assert_eq!(metrics.read_throughput(pi(1, 0)), 0.0);
        assert_eq!(metrics.system_throughput(), 0.0);
        assert_eq!(metrics.commit_throughput(), 0.0);
    }

    #[test]
    fn backoff_and_blocked_counters() {
        let mut metrics = m();
        metrics.record_backoff_round(CcMethod::PrecedenceAgreement);
        metrics.record_backoff_round(CcMethod::PrecedenceAgreement);
        metrics.record_blocked_observation();
        assert_eq!(
            metrics
                .method(CcMethod::PrecedenceAgreement)
                .backoff_rounds
                .get(),
            2
        );
        assert_eq!(metrics.blocked_observations.get(), 1);
    }
}
