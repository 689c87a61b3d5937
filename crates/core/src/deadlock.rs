//! Wait-for-graph deadlock detection for the 2PL transactions in the mix.
//!
//! The paper's Theorem 3 shows that in the unified system only 2PL-type
//! transactions can block the system: T/O transactions either proceed or are
//! rejected (and restart), and PA transactions either proceed or back off
//! their timestamps (at most once). Corollary 2 sharpens this: *every*
//! deadlock cycle contains at least one 2PL transaction. The detector below
//! exploits that result — when a cycle is found, the victim is chosen among
//! the 2PL transactions in the cycle (the youngest one), which is always
//! possible; finding a cycle with no 2PL member indicates a transient state
//! (e.g. a PA transaction whose timestamp update is still in flight) and is
//! not acted upon.
//!
//! The simulator runs detection as a periodic global scan over the wait-for
//! edges reported by every queue manager, which corresponds to a centralised
//! snapshot-based detector — adequate for a simulation study, and the
//! detection period is exposed as an experiment knob (parameter (6) in the
//! paper's list).

use std::collections::{BTreeMap, BTreeSet};

use dbmodel::TxnId;

/// A directed wait-for graph over transactions.
#[derive(Debug, Clone, Default)]
pub struct WaitForGraph {
    edges: BTreeMap<TxnId, BTreeSet<TxnId>>,
    nodes: BTreeSet<TxnId>,
}

impl WaitForGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        WaitForGraph::default()
    }

    /// Build a graph from `(waiter, holder)` edges.
    pub fn from_edges<I: IntoIterator<Item = (TxnId, TxnId)>>(edges: I) -> Self {
        let mut g = WaitForGraph::new();
        for (waiter, holder) in edges {
            g.add_edge(waiter, holder);
        }
        g
    }

    /// Add one `waiter → holder` edge.
    pub fn add_edge(&mut self, waiter: TxnId, holder: TxnId) {
        if waiter == holder {
            return;
        }
        self.nodes.insert(waiter);
        self.nodes.insert(holder);
        self.edges.entry(waiter).or_default().insert(holder);
    }

    /// Number of distinct transactions appearing in the graph.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.values().map(|s| s.len()).sum()
    }

    /// True if `waiter` is (transitively or directly) recorded as waiting.
    pub fn is_waiting(&self, waiter: TxnId) -> bool {
        self.edges.contains_key(&waiter)
    }

    /// Find every elementary deadlock cycle reachable in the graph, reported
    /// as disjoint sets of transactions. Each strongly-connected component
    /// with more than one node (or with a self-loop, which we exclude at
    /// insertion) is a deadlock.
    pub fn find_deadlocks(&self) -> Vec<Vec<TxnId>> {
        // Tarjan's strongly-connected components, iteratively.
        #[derive(Default, Clone)]
        struct NodeData {
            index: Option<usize>,
            lowlink: usize,
            on_stack: bool,
        }
        let node_list: Vec<TxnId> = self.nodes.iter().copied().collect();
        let idx_of: BTreeMap<TxnId, usize> =
            node_list.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        let mut data = vec![NodeData::default(); node_list.len()];
        let mut index = 0usize;
        let mut stack: Vec<usize> = Vec::new();
        let mut sccs: Vec<Vec<TxnId>> = Vec::new();

        // Iterative Tarjan to avoid recursion limits on long wait chains.
        enum Frame {
            Enter(usize),
            Resume(usize, usize),
        }
        for start in 0..node_list.len() {
            if data[start].index.is_some() {
                continue;
            }
            let mut call_stack = vec![Frame::Enter(start)];
            while let Some(frame) = call_stack.pop() {
                match frame {
                    Frame::Enter(v) => {
                        data[v].index = Some(index);
                        data[v].lowlink = index;
                        index += 1;
                        stack.push(v);
                        data[v].on_stack = true;
                        call_stack.push(Frame::Resume(v, 0));
                    }
                    Frame::Resume(v, mut child_idx) => {
                        let succs: Vec<usize> = self
                            .edges
                            .get(&node_list[v])
                            .map(|s| s.iter().filter_map(|t| idx_of.get(t).copied()).collect())
                            .unwrap_or_default();
                        let mut descended = false;
                        while child_idx < succs.len() {
                            let w = succs[child_idx];
                            child_idx += 1;
                            if data[w].index.is_none() {
                                call_stack.push(Frame::Resume(v, child_idx));
                                call_stack.push(Frame::Enter(w));
                                descended = true;
                                break;
                            } else if data[w].on_stack {
                                data[v].lowlink = data[v].lowlink.min(data[w].index.unwrap());
                            }
                        }
                        if descended {
                            continue;
                        }
                        // All children processed.
                        if data[v].lowlink == data[v].index.unwrap() {
                            let mut component = Vec::new();
                            loop {
                                let w = stack.pop().expect("stack non-empty");
                                data[w].on_stack = false;
                                component.push(node_list[w]);
                                if w == v {
                                    break;
                                }
                            }
                            if component.len() > 1 {
                                component.sort_unstable();
                                sccs.push(component);
                            }
                        }
                        // Propagate lowlink to the parent frame, if any.
                        if let Some(Frame::Resume(parent, _)) = call_stack.last() {
                            let parent = *parent;
                            data[parent].lowlink = data[parent].lowlink.min(data[v].lowlink);
                        }
                    }
                }
            }
        }
        sccs
    }

    /// Pick one victim per deadlock cycle: among the transactions of the
    /// cycle that the `is_eligible` predicate accepts (the unified system
    /// passes "is a 2PL transaction"), the one with the largest transaction
    /// id (the *youngest*, since ids are assigned in arrival order). Cycles
    /// with no eligible member yield no victim.
    pub fn choose_victims<F>(&self, is_eligible: F) -> Vec<TxnId>
    where
        F: Fn(TxnId) -> bool,
    {
        self.find_deadlocks()
            .into_iter()
            .filter_map(|cycle| cycle.into_iter().filter(|&t| is_eligible(t)).max())
            .collect()
    }

    /// Victims that break *every* deadlock in the graph:
    /// [`WaitForGraph::choose_victims`], then again on what is left once
    /// those victims are taken out, until no component with an eligible
    /// member remains. One victim per component leaves a cycle standing
    /// whenever the component holds several that do not all pass through
    /// the victim. A detector that scans periodically picks those up on its
    /// next round; one that scans only when a new edge asks for it must
    /// clear the graph in one go — the leftover cycle gains no new edge.
    pub fn choose_victims_exhaustively<F>(mut self, is_eligible: F) -> Vec<TxnId>
    where
        F: Fn(TxnId) -> bool,
    {
        let mut all = Vec::new();
        loop {
            let victims = self.choose_victims(&is_eligible);
            if victims.is_empty() {
                return all;
            }
            for victim in &victims {
                self.nodes.remove(victim);
                self.edges.remove(victim);
            }
            for holders in self.edges.values_mut() {
                holders.retain(|holder| !victims.contains(holder));
            }
            all.extend(victims);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }

    #[test]
    fn empty_graph_has_no_deadlocks() {
        let g = WaitForGraph::new();
        assert!(g.find_deadlocks().is_empty());
        assert_eq!(g.num_nodes(), 0);
    }

    #[test]
    fn chain_without_cycle_is_clean() {
        let g = WaitForGraph::from_edges([(t(1), t(2)), (t(2), t(3)), (t(3), t(4))]);
        assert!(g.find_deadlocks().is_empty());
        assert!(g.is_waiting(t(1)));
        assert!(!g.is_waiting(t(4)));
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn two_cycle_is_detected() {
        let g = WaitForGraph::from_edges([(t(1), t(2)), (t(2), t(1))]);
        let dl = g.find_deadlocks();
        assert_eq!(dl, vec![vec![t(1), t(2)]]);
    }

    #[test]
    fn self_edges_are_ignored() {
        let mut g = WaitForGraph::new();
        g.add_edge(t(1), t(1));
        assert!(g.find_deadlocks().is_empty());
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn long_cycle_and_attached_waiters() {
        // 1 -> 2 -> 3 -> 1 (cycle), with 4 and 5 waiting on the cycle.
        let g = WaitForGraph::from_edges([
            (t(1), t(2)),
            (t(2), t(3)),
            (t(3), t(1)),
            (t(4), t(1)),
            (t(5), t(4)),
        ]);
        let dl = g.find_deadlocks();
        assert_eq!(dl.len(), 1);
        assert_eq!(dl[0], vec![t(1), t(2), t(3)]);
    }

    #[test]
    fn multiple_disjoint_cycles() {
        let g = WaitForGraph::from_edges([
            (t(1), t(2)),
            (t(2), t(1)),
            (t(10), t(11)),
            (t(11), t(12)),
            (t(12), t(10)),
        ]);
        let mut dl = g.find_deadlocks();
        dl.sort();
        assert_eq!(dl.len(), 2);
        assert_eq!(dl[0], vec![t(1), t(2)]);
        assert_eq!(dl[1], vec![t(10), t(11), t(12)]);
    }

    #[test]
    fn victim_is_youngest_eligible() {
        let g = WaitForGraph::from_edges([(t(1), t(2)), (t(2), t(3)), (t(3), t(1))]);
        // Only 1 and 2 are 2PL-type; victim must be the younger of them.
        let victims = g.choose_victims(|txn| txn.0 <= 2);
        assert_eq!(victims, vec![t(2)]);
        // No eligible member: no victim (transient non-2PL cycle).
        let victims = g.choose_victims(|txn| txn.0 >= 100);
        assert!(victims.is_empty());
    }

    #[test]
    fn exhaustive_victims_break_every_cycle_of_a_component() {
        // A figure of eight: 1 <-> 2 and 2 <-> 3 share node 2, one
        // component. Its youngest member, 3, leaves 1 <-> 2 standing.
        let g = WaitForGraph::from_edges([
            (t(1), t(2)),
            (t(2), t(1)),
            (t(2), t(3)),
            (t(3), t(2)),
            (t(9), t(3)),
        ]);
        assert_eq!(g.choose_victims(|_| true), vec![t(3)]);
        assert_eq!(
            g.clone().choose_victims_exhaustively(|_| true),
            [t(3), t(2)]
        );
        // A single ring needs its one victim and no more …
        let ring = WaitForGraph::from_edges([(t(1), t(2)), (t(2), t(3)), (t(3), t(1))]);
        assert_eq!(ring.choose_victims_exhaustively(|_| true), [t(3)]);
        // … and a leftover cycle with no eligible member ends the search.
        assert_eq!(g.choose_victims_exhaustively(|txn| txn == t(3)), [t(3)]);
    }

    #[test]
    fn big_random_graph_does_not_overflow_stack() {
        // A long chain ending in a small cycle exercises the iterative SCC.
        let mut edges = Vec::new();
        for i in 0..5000u64 {
            edges.push((t(i), t(i + 1)));
        }
        edges.push((t(5000), t(4990)));
        let g = WaitForGraph::from_edges(edges);
        let dl = g.find_deadlocks();
        assert_eq!(dl.len(), 1);
        assert_eq!(dl[0].len(), 11);
    }
}
