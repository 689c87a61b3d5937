//! Invariant-confluence classification: which transaction shapes may skip
//! queue-manager coordination entirely.
//!
//! Bailis et al.'s coordination-avoidance result (see PAPERS.md) proves
//! that operations whose effects are *invariant confluent* — any
//! interleaving of their per-item applications preserves the registered
//! invariants and admits a serial order — need no grants, no precedence
//! entries and no deadlock exposure. For this engine the provable shapes
//! are:
//!
//! * **commutative single-item increments/decrements** (`add` ops):
//!   `x += a; x += b` reaches the same state in either order;
//! * **disjoint-key blind writes** (`put` ops): last-writer-wins on an
//!   item nobody is coordinating over;
//! * **read-only transactions** over items with no in-flight writers.
//!
//! Classification is deliberately a *pure* function of the transaction's
//! [`OpProfile`] and its read/write-set sizes — never of the fitted model,
//! the loss estimates or the memoized [`crate::StlTable`] the protocol
//! choice reads. A table hit, a quantized loss or a stale epoch can
//! therefore never flip a transaction onto a bypass its fresh evaluation
//! would refuse (the property-tested contract).
//!
//! [`route`] folds the two verdicts into the one decision the runtime
//! acts on: the [`Route`]s a shape is eligible for, in fallback order.
//!
//! The classifier only decides *eligibility*. The dynamic safety half —
//! "no in-flight writers", "nobody is coordinating over this key" — is
//! checked by the owning queue manager at apply time, which refuses the
//! bypass whenever a touched slot has queued or granted coordinated work.

/// Bit-set of the operation kinds one transaction performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OpProfile(u8);

impl OpProfile {
    /// Plain reads (the transaction's read set).
    pub const READS: OpProfile = OpProfile(1);
    /// Commutative increments/decrements (`add` ops).
    pub const ADDS: OpProfile = OpProfile(1 << 1);
    /// Blind absolute writes (`put` ops).
    pub const PUTS: OpProfile = OpProfile(1 << 2);
    /// Read-modify-write writes: items whose new value is computed from
    /// values observed under coordination. Never confluent.
    pub const RMW_WRITES: OpProfile = OpProfile(1 << 3);

    /// The profile of a transaction performing none of the known op kinds.
    pub const fn empty() -> OpProfile {
        OpProfile(0)
    }

    /// Union with another profile.
    #[must_use]
    pub const fn with(self, other: OpProfile) -> OpProfile {
        OpProfile(self.0 | other.0)
    }

    /// True when every bit of `other` is set in `self`.
    pub const fn contains(self, other: OpProfile) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when no op kind is recorded.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The raw bit pattern.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Rebuild a profile from its raw bit pattern.
    pub const fn from_bits(raw: u8) -> OpProfile {
        OpProfile(raw)
    }
}

/// How a classified transaction is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Confluence {
    /// Through the queue managers: grants, precedence, the full protocol.
    Coordinated,
    /// Around them: a single direct apply at the owning shard, subject to
    /// the queue manager's at-apply refusal check.
    ConfluentFastPath,
}

/// Largest read+write footprint eligible for the fast path. A bypass
/// apply holds the shard's core for the whole transaction; bounding the
/// footprint bounds the latency it can impose on queued coordinated work.
pub const FAST_PATH_MAX_OPS: usize = 16;

/// Classify a transaction shape: `profile` says which op kinds it
/// performs, `reads`/`writes` are its read- and write-set sizes.
///
/// Pure in `(profile, reads, writes)` by construction — the shape's
/// losses, and whichever [`crate::StlTable`] buckets they quantize to,
/// play no part.
pub fn classify(profile: OpProfile, reads: usize, writes: usize) -> Confluence {
    if profile.is_empty() || profile.contains(OpProfile::RMW_WRITES) {
        return Confluence::Coordinated;
    }
    if reads + writes > FAST_PATH_MAX_OPS {
        return Confluence::Coordinated;
    }
    Confluence::ConfluentFastPath
}

/// True when the shape is a pure read-only transaction: it performs reads
/// and nothing else. Such a transaction can be served from the versioned
/// snapshot plane at the global read watermark without any coordination at
/// all — no grants, no wait edges, no restart exposure — because a
/// watermark read observes only fully committed state.
///
/// Pure in `(profile, reads, writes)` like [`classify`], and for the same
/// reason: routing must never depend on what the selector has memoized.
/// Unlike the fast path there is no footprint bound — a snapshot read
/// holds no locks and blocks nobody, so its size only costs itself.
pub fn is_read_only(profile: OpProfile, reads: usize, writes: usize) -> bool {
    profile == OpProfile::READS && writes == 0 && reads > 0
}

/// One way a transaction can run, least coordination first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Served from the item version chains at the global read watermark:
    /// no coordination at all ([`is_read_only`] shapes).
    Snapshot,
    /// One direct apply at the owning shard, around the queue managers
    /// ([`Confluence::ConfluentFastPath`] shapes).
    Bypass,
    /// Through the queue managers under 2PL, T/O or PA.
    Coordinated,
}

/// The routes a shape is eligible for, in the order to try them:
/// `Snapshot → Bypass → Coordinated`. A refusal on one route (a version
/// chain pruned past the watermark, coordinated work in flight on a
/// touched slot) falls back to the next; the chain always ends in
/// [`Route::Coordinated`], which never refuses.
///
/// Pure in `(profile, reads, writes)` — it is [`is_read_only`] and
/// [`classify`] asked once, together — so a transaction is routed the
/// same in warm-up, on exploration rounds and in steady state.
pub fn route(profile: OpProfile, reads: usize, writes: usize) -> impl Iterator<Item = Route> {
    let snapshot = is_read_only(profile, reads, writes).then_some(Route::Snapshot);
    let bypass = (classify(profile, reads, writes) == Confluence::ConfluentFastPath)
        .then_some(Route::Bypass);
    snapshot
        .into_iter()
        .chain(bypass)
        .chain([Route::Coordinated])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_shapes_are_confluent() {
        // Read-only, increment-only, blind-put-only, and their mixes.
        assert_eq!(
            classify(OpProfile::READS, 4, 0),
            Confluence::ConfluentFastPath
        );
        assert_eq!(
            classify(OpProfile::ADDS, 0, 2),
            Confluence::ConfluentFastPath
        );
        assert_eq!(
            classify(OpProfile::PUTS, 0, 3),
            Confluence::ConfluentFastPath
        );
        assert_eq!(
            classify(OpProfile::READS.with(OpProfile::ADDS), 2, 2),
            Confluence::ConfluentFastPath
        );
    }

    #[test]
    fn rmw_and_unknown_shapes_stay_coordinated() {
        assert_eq!(
            classify(OpProfile::RMW_WRITES, 0, 2),
            Confluence::Coordinated
        );
        assert_eq!(
            classify(OpProfile::READS.with(OpProfile::RMW_WRITES), 2, 1),
            Confluence::Coordinated,
            "one rmw write poisons the whole transaction"
        );
        assert_eq!(
            classify(OpProfile::empty(), 0, 0),
            Confluence::Coordinated,
            "an empty profile says nothing about the ops — stay safe"
        );
    }

    #[test]
    fn footprint_bound_is_enforced() {
        assert_eq!(
            classify(OpProfile::ADDS, 0, FAST_PATH_MAX_OPS),
            Confluence::ConfluentFastPath
        );
        assert_eq!(
            classify(OpProfile::ADDS, 1, FAST_PATH_MAX_OPS),
            Confluence::Coordinated
        );
    }

    #[test]
    fn read_only_classifier_requires_pure_reads() {
        assert!(is_read_only(OpProfile::READS, 1, 0));
        assert!(is_read_only(OpProfile::READS, 64, 0), "no footprint bound");
        assert!(
            !is_read_only(OpProfile::READS.with(OpProfile::ADDS), 2, 1),
            "any write op kind disqualifies"
        );
        assert!(
            !is_read_only(OpProfile::READS, 2, 1),
            "a write-set entry disqualifies"
        );
        assert!(
            !is_read_only(OpProfile::empty(), 0, 0),
            "empty shape says nothing"
        );
        assert!(
            !is_read_only(OpProfile::READS, 0, 0),
            "zero reads is not a read-only txn"
        );
        assert!(!is_read_only(OpProfile::PUTS, 0, 2));
    }

    fn routes(profile: OpProfile, reads: usize, writes: usize) -> Vec<Route> {
        route(profile, reads, writes).collect()
    }

    #[test]
    fn confluent_shapes_route_to_the_bypass_and_rmw_shapes_coordinate() {
        use Route::{Bypass, Coordinated};
        // 2 adds, no reads: confluent; the same access sets as rmw writes
        // coordinate, and so does a shape that says nothing about its ops.
        assert_eq!(routes(OpProfile::ADDS, 0, 2), [Bypass, Coordinated]);
        assert_eq!(routes(OpProfile::ADDS, 1, 2), [Bypass, Coordinated]);
        assert_eq!(routes(OpProfile::RMW_WRITES, 0, 2), [Coordinated]);
        assert_eq!(routes(OpProfile::RMW_WRITES, 1, 2), [Coordinated]);
        assert_eq!(routes(OpProfile::empty(), 0, 0), [Coordinated]);
    }

    #[test]
    fn only_pure_reads_route_to_the_snapshot_plane() {
        use Route::{Bypass, Coordinated, Snapshot};
        // Every read-only shape falls back to the bypass before it
        // coordinates...
        for reads in 1..=FAST_PATH_MAX_OPS {
            assert_eq!(
                routes(OpProfile::READS, reads, 0),
                [Snapshot, Bypass, Coordinated],
                "{reads} reads"
            );
        }
        // ...up to the bypass footprint bound; a snapshot read has no
        // bound of its own, and past it a refusal coordinates directly.
        assert_eq!(
            routes(OpProfile::READS, FAST_PATH_MAX_OPS + 1, 0),
            [Snapshot, Coordinated]
        );
        // A writer never routes to the snapshot plane...
        assert_eq!(
            routes(OpProfile::READS.with(OpProfile::PUTS), 1, 1),
            [Bypass, Coordinated]
        );
        // ...nor does a read-only access set whose ops are not all reads.
        assert_eq!(
            routes(OpProfile::READS.with(OpProfile::ADDS), 3, 0),
            [Bypass, Coordinated]
        );
    }

    #[test]
    fn profile_bits_round_trip() {
        let p = OpProfile::READS.with(OpProfile::PUTS);
        assert_eq!(OpProfile::from_bits(p.bits()), p);
        assert!(p.contains(OpProfile::READS));
        assert!(!p.contains(OpProfile::ADDS));
        assert!(OpProfile::empty().is_empty());
    }
}
