//! The replication catalog: which sites hold a physical copy of each logical
//! data item, and how logical operations translate into physical ones.
//!
//! The paper allows each logical item to be "stored redundantly at different
//! computer sites"; to execute a transaction "the system first translates all
//! the logical operations into their corresponding physical operations" and
//! ships them to the holding sites. This reproduction uses the standard
//! read-one / write-all translation: a logical read accesses one chosen copy
//! (the copy at the reader's own site if it exists, otherwise the
//! lowest-numbered site holding one), and a logical write accesses every
//! copy.

use std::collections::BTreeMap;

use crate::ids::{LogicalItemId, PhysicalItemId, SiteId, TxnId};
use crate::op::{AccessMode, PhysicalOp};

/// How copies are assigned to sites when a catalog is generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplicationPolicy {
    /// Every logical item has exactly one copy, placed round-robin.
    SingleCopy,
    /// Every logical item is replicated at every site.
    FullReplication,
    /// Every logical item has `k` copies, placed on consecutive sites starting
    /// from a round-robin offset.
    KCopies(usize),
}

/// Errors reported by catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The logical item is not in the catalog.
    UnknownItem(LogicalItemId),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownItem(item) => write!(f, "unknown logical item {item}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// The replication catalog.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    copies: BTreeMap<LogicalItemId, Vec<SiteId>>,
    sites: Vec<SiteId>,
}

impl Catalog {
    /// Create an empty catalog over the given sites.
    pub fn new(sites: Vec<SiteId>) -> Self {
        Catalog {
            copies: BTreeMap::new(),
            sites,
        }
    }

    /// Generate a catalog with `num_items` logical items over `num_sites`
    /// sites using the given replication policy.
    pub fn generate(num_sites: u32, num_items: u64, policy: ReplicationPolicy) -> Self {
        assert!(num_sites > 0, "need at least one site");
        let sites: Vec<SiteId> = (0..num_sites).map(SiteId).collect();
        let mut catalog = Catalog::new(sites.clone());
        for i in 0..num_items {
            let item = LogicalItemId(i);
            let holders: Vec<SiteId> = match policy {
                ReplicationPolicy::SingleCopy => {
                    vec![sites[(i % num_sites as u64) as usize]]
                }
                ReplicationPolicy::FullReplication => sites.clone(),
                ReplicationPolicy::KCopies(k) => {
                    let k = k.clamp(1, num_sites as usize);
                    (0..k)
                        .map(|off| sites[((i + off as u64) % num_sites as u64) as usize])
                        .collect()
                }
            };
            catalog.add_item(item, holders);
        }
        catalog
    }

    /// Register a logical item and the sites holding its copies. Duplicate
    /// sites are collapsed; the holder list is kept sorted.
    pub fn add_item(&mut self, item: LogicalItemId, mut holders: Vec<SiteId>) {
        holders.sort_unstable();
        holders.dedup();
        for s in &holders {
            if !self.sites.contains(s) {
                self.sites.push(*s);
            }
        }
        self.sites.sort_unstable();
        self.copies.insert(item, holders);
    }

    /// All sites known to the catalog.
    pub fn sites(&self) -> &[SiteId] {
        &self.sites
    }

    /// Number of logical items.
    pub fn num_items(&self) -> usize {
        self.copies.len()
    }

    /// All logical items in the catalog, in id order.
    pub fn items(&self) -> impl Iterator<Item = LogicalItemId> + '_ {
        self.copies.keys().copied()
    }

    /// The sites holding copies of `item`.
    pub fn holders(&self, item: LogicalItemId) -> Result<&[SiteId], CatalogError> {
        self.copies
            .get(&item)
            .map(|v| v.as_slice())
            .ok_or(CatalogError::UnknownItem(item))
    }

    /// All physical copies of `item`.
    pub fn physical_copies(
        &self,
        item: LogicalItemId,
    ) -> Result<Vec<PhysicalItemId>, CatalogError> {
        Ok(self
            .holders(item)?
            .iter()
            .map(|&s| PhysicalItemId::new(item, s))
            .collect())
    }

    /// Every physical item in the system (all copies of all items).
    pub fn all_physical_items(&self) -> Vec<PhysicalItemId> {
        self.copies
            .iter()
            .flat_map(|(&item, holders)| holders.iter().map(move |&s| PhysicalItemId::new(item, s)))
            .collect()
    }

    /// The copy a read issued from `reader_site` accesses under the
    /// read-one rule: the local copy if one exists, otherwise the copy at the
    /// lowest-numbered holding site.
    pub fn read_copy(
        &self,
        item: LogicalItemId,
        reader_site: SiteId,
    ) -> Result<PhysicalItemId, CatalogError> {
        let holders = self.holders(item)?;
        let site = if holders.contains(&reader_site) {
            reader_site
        } else {
            *holders.first().ok_or(CatalogError::UnknownItem(item))?
        };
        Ok(PhysicalItemId::new(item, site))
    }

    /// Append `txn`'s physical accesses to `out` under the read-one /
    /// write-all rule: its reads first, one copy each (see
    /// [`Catalog::read_copy`]), then its writes, every copy in holder
    /// order. The one place the rule is applied to a whole transaction;
    /// the caller owns (and may reuse) the buffer. On an unknown item the
    /// accesses of the items before it are already appended.
    pub fn append_accesses(
        &self,
        txn: &crate::txn::Transaction,
        out: &mut Vec<(PhysicalItemId, AccessMode)>,
    ) -> Result<(), CatalogError> {
        for &item in txn.read_set() {
            out.push((self.read_copy(item, txn.origin)?, AccessMode::Read));
        }
        for &item in txn.write_set() {
            let holders = self.holders(item)?;
            out.extend(
                holders
                    .iter()
                    .map(|&site| (PhysicalItemId::new(item, site), AccessMode::Write)),
            );
        }
        Ok(())
    }

    /// Translate a whole transaction's logical operations (reads then writes)
    /// into physical operations.
    pub fn translate_txn(
        &self,
        txn: &crate::txn::Transaction,
    ) -> Result<Vec<PhysicalOp>, CatalogError> {
        let mut accesses = Vec::with_capacity(txn.size());
        self.append_accesses(txn, &mut accesses)?;
        Ok(accesses
            .into_iter()
            .map(|(item, mode)| PhysicalOp {
                txn: txn.id,
                item,
                mode,
            })
            .collect())
    }

    /// Helper used by workload generation and the STL estimator: which site a
    /// transaction id would naturally originate from under round-robin
    /// placement of users across sites.
    pub fn origin_for(&self, txn: TxnId) -> SiteId {
        let n = self.sites.len().max(1);
        self.sites[(txn.0 % n as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Transaction;

    fn li(i: u64) -> LogicalItemId {
        LogicalItemId(i)
    }

    #[test]
    fn generate_single_copy_places_round_robin() {
        let c = Catalog::generate(3, 6, ReplicationPolicy::SingleCopy);
        assert_eq!(c.num_items(), 6);
        assert_eq!(c.holders(li(0)).unwrap(), &[SiteId(0)]);
        assert_eq!(c.holders(li(1)).unwrap(), &[SiteId(1)]);
        assert_eq!(c.holders(li(5)).unwrap(), &[SiteId(2)]);
        assert_eq!(c.sites().len(), 3);
    }

    #[test]
    fn generate_full_replication_places_everywhere() {
        let c = Catalog::generate(4, 3, ReplicationPolicy::FullReplication);
        for i in 0..3 {
            assert_eq!(c.holders(li(i)).unwrap().len(), 4);
        }
        assert_eq!(c.all_physical_items().len(), 12);
    }

    #[test]
    fn generate_k_copies_clamps_and_wraps() {
        let c = Catalog::generate(3, 4, ReplicationPolicy::KCopies(2));
        for i in 0..4 {
            assert_eq!(c.holders(li(i)).unwrap().len(), 2, "item {i}");
        }
        // k larger than the number of sites clamps to all sites.
        let c2 = Catalog::generate(2, 1, ReplicationPolicy::KCopies(10));
        assert_eq!(c2.holders(li(0)).unwrap().len(), 2);
    }

    #[test]
    fn unknown_item_is_an_error() {
        let c = Catalog::generate(2, 2, ReplicationPolicy::SingleCopy);
        assert_eq!(
            c.holders(li(99)).unwrap_err(),
            CatalogError::UnknownItem(li(99))
        );
        assert!(c.read_copy(li(99), SiteId(0)).is_err());
    }

    #[test]
    fn read_copy_prefers_local_site() {
        let mut c = Catalog::new(vec![SiteId(0), SiteId(1), SiteId(2)]);
        c.add_item(li(1), vec![SiteId(1), SiteId(2)]);
        assert_eq!(
            c.read_copy(li(1), SiteId(2)).unwrap(),
            PhysicalItemId::new(li(1), SiteId(2))
        );
        assert_eq!(
            c.read_copy(li(1), SiteId(0)).unwrap(),
            PhysicalItemId::new(li(1), SiteId(1)),
            "falls back to lowest-numbered holder"
        );
    }

    #[test]
    fn translate_read_one_write_all() {
        let c = Catalog::generate(3, 3, ReplicationPolicy::FullReplication);
        let t = Transaction::builder(TxnId(9), SiteId(1))
            .read(li(0))
            .write(li(2))
            .build();
        let phys = c.translate_txn(&t).unwrap();
        let reads: Vec<_> = phys.iter().filter(|p| p.mode.is_read()).collect();
        let writes: Vec<_> = phys.iter().filter(|p| p.mode.is_write()).collect();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].item.site, SiteId(1), "read-one picks local copy");
        assert_eq!(writes.len(), 3, "write-all hits every copy");
    }

    #[test]
    fn add_item_dedups_holders_and_learns_sites() {
        let mut c = Catalog::new(vec![]);
        c.add_item(li(0), vec![SiteId(2), SiteId(0), SiteId(2)]);
        assert_eq!(c.holders(li(0)).unwrap(), &[SiteId(0), SiteId(2)]);
        assert_eq!(c.sites(), &[SiteId(0), SiteId(2)]);
    }

    #[test]
    fn origin_for_is_stable_round_robin() {
        let c = Catalog::generate(4, 1, ReplicationPolicy::SingleCopy);
        assert_eq!(c.origin_for(TxnId(0)), SiteId(0));
        assert_eq!(c.origin_for(TxnId(5)), SiteId(1));
        assert_eq!(c.origin_for(TxnId(7)), SiteId(3));
    }
}
