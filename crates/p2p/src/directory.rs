//! The cluster's fingerprint → holders directory.
//!
//! Models the tracker/supernode of a P2P image-distribution system: a map
//! from content fingerprint to the set of nodes currently holding it. The
//! directory stores only metadata; content always flows node-to-node.

use std::collections::{HashMap, HashSet};

use gear_hash::Fingerprint;

/// A node identifier within one cluster.
pub(crate) type RawNode = usize;

/// Tracks which nodes hold which Gear files.
#[derive(Debug, Default)]
pub struct PeerDirectory {
    holders: HashMap<Fingerprint, HashSet<RawNode>>,
    /// Round-robin cursor so peer load spreads across holders.
    cursor: usize,
}

impl PeerDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `node` now holds `fingerprint`.
    pub(crate) fn announce(&mut self, fingerprint: Fingerprint, node: RawNode) {
        self.holders.entry(fingerprint).or_default().insert(node);
    }

    /// Removes `node` as a holder of `fingerprint` (cache eviction).
    pub(crate) fn withdraw(&mut self, fingerprint: Fingerprint, node: RawNode) {
        if let Some(set) = self.holders.get_mut(&fingerprint) {
            set.remove(&node);
            if set.is_empty() {
                self.holders.remove(&fingerprint);
            }
        }
    }

    /// All holders of `fingerprint` other than `asker`, in the order a
    /// degrading fetch should try them: rotated among candidates so repeated
    /// lookups spread load, with the rest serving as fallbacks for when the
    /// preferred peer's transfer fails.
    pub(crate) fn holders_except(
        &mut self,
        fingerprint: Fingerprint,
        asker: RawNode,
    ) -> Vec<RawNode> {
        let Some(set) = self.holders.get(&fingerprint) else {
            return Vec::new();
        };
        let mut candidates: Vec<RawNode> = set.iter().copied().filter(|n| *n != asker).collect();
        if candidates.is_empty() {
            return candidates;
        }
        candidates.sort_unstable();
        self.cursor = self.cursor.wrapping_add(1);
        let start = self.cursor % candidates.len();
        candidates.rotate_left(start);
        candidates
    }

    /// Site-scoped discovery for hierarchical topologies: all holders of
    /// `fingerprint` other than `asker`, same-site holders first.
    ///
    /// `site_of[n]` is node `n`'s site. Within each group (same-site, then
    /// foreign) holders come in ascending node-id order, so the answer is a
    /// pure function of the directory contents — no rotation cursor. A
    /// hierarchical fetch drains the LAN candidates before it ever
    /// considers crossing the backbone.
    pub(crate) fn holders_scoped(
        &self,
        fingerprint: Fingerprint,
        asker: RawNode,
        site_of: &[u32],
    ) -> Vec<RawNode> {
        let Some(set) = self.holders.get(&fingerprint) else {
            return Vec::new();
        };
        let my_site = site_of.get(asker).copied();
        let mut candidates: Vec<RawNode> = set.iter().copied().filter(|n| *n != asker).collect();
        candidates.sort_unstable();
        candidates.sort_by_key(|n| site_of.get(*n).copied() != my_site);
        candidates
    }

    /// Number of distinct fingerprints known to the cluster.
    pub fn distinct_files(&self) -> usize {
        self.holders.len()
    }

    /// Total replica count across nodes.
    pub fn replicas(&self) -> usize {
        self.holders.values().map(HashSet::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u8) -> Fingerprint {
        Fingerprint::of(&[n])
    }

    #[test]
    fn announce_locate_withdraw() {
        let mut dir = PeerDirectory::new();
        assert!(dir.holders_except(fp(1), 0).is_empty());
        dir.announce(fp(1), 1);
        dir.announce(fp(1), 2);
        // Node 0 finds everyone else.
        let holders = dir.holders_except(fp(1), 0);
        assert_eq!(holders.len(), 2);
        assert!(holders.contains(&1) && holders.contains(&2));
        // A holder never locates itself.
        dir.withdraw(fp(1), 2);
        assert!(dir.holders_except(fp(1), 1).is_empty());
        assert_eq!(dir.holders_except(fp(1), 0), vec![1]);
        dir.withdraw(fp(1), 1);
        assert_eq!(dir.distinct_files(), 0);
    }

    #[test]
    fn rotation_spreads_load() {
        let mut dir = PeerDirectory::new();
        for node in 1..=4 {
            dir.announce(fp(9), node);
        }
        let mut seen = HashSet::new();
        for _ in 0..16 {
            seen.insert(dir.holders_except(fp(9), 0)[0]);
        }
        assert!(seen.len() >= 3, "round-robin should reach most holders: {seen:?}");
    }

    #[test]
    fn replica_accounting() {
        let mut dir = PeerDirectory::new();
        dir.announce(fp(1), 0);
        dir.announce(fp(1), 1);
        dir.announce(fp(2), 0);
        assert_eq!(dir.distinct_files(), 2);
        assert_eq!(dir.replicas(), 3);
    }

    #[test]
    fn scoped_discovery_prefers_the_asker_site() {
        let mut dir = PeerDirectory::new();
        // Sites: nodes 0..3 in site 0, 3..6 in site 1.
        let site_of = [0u32, 0, 0, 1, 1, 1];
        for node in [1, 2, 4, 5] {
            dir.announce(fp(7), node);
        }
        assert_eq!(dir.holders_scoped(fp(7), 0, &site_of), vec![1, 2, 4, 5]);
        assert_eq!(dir.holders_scoped(fp(7), 3, &site_of), vec![4, 5, 1, 2]);
        // A holder never sees itself, whichever site it asks from.
        assert_eq!(dir.holders_scoped(fp(7), 4, &site_of), vec![5, 1, 2]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        const NODES: usize = 12;
        const FILES: u8 = 6;

        #[derive(Debug, Clone)]
        enum Op {
            Announce(u8, usize),
            Withdraw(u8, usize),
        }

        fn ops() -> impl Strategy<Value = Vec<Op>> {
            proptest::collection::vec(
                (0..FILES, 0..NODES, any::<bool>()).prop_map(|(file, node, announce)| {
                    if announce {
                        Op::Announce(file, node)
                    } else {
                        Op::Withdraw(file, node)
                    }
                }),
                0..64,
            )
        }

        fn apply(dir: &mut PeerDirectory, ops: &[Op]) {
            for op in ops {
                match *op {
                    Op::Announce(file, node) => dir.announce(fp(file), node),
                    Op::Withdraw(file, node) => dir.withdraw(fp(file), node),
                }
            }
        }

        /// Ground truth: the surviving holder set per file.
        fn model(ops: &[Op]) -> HashMap<u8, HashSet<usize>> {
            let mut holders: HashMap<u8, HashSet<usize>> = HashMap::new();
            for op in ops {
                match *op {
                    Op::Announce(file, node) => {
                        holders.entry(file).or_default().insert(node);
                    }
                    Op::Withdraw(file, node) => {
                        if let Some(set) = holders.get_mut(&file) {
                            set.remove(&node);
                        }
                    }
                }
            }
            holders.retain(|_, set| !set.is_empty());
            holders
        }

        proptest! {
            /// Two directories fed the same registration history answer
            /// every lookup identically — lookups are a pure function of
            /// the history (plus the shared rotation cursor).
            #[test]
            fn lookups_are_deterministic(ops in ops(), asker in 0..NODES) {
                let mut a = PeerDirectory::new();
                let mut b = PeerDirectory::new();
                apply(&mut a, &ops);
                apply(&mut b, &ops);
                for file in 0..FILES {
                    prop_assert_eq!(
                        a.holders_except(fp(file), asker),
                        b.holders_except(fp(file), asker)
                    );
                }
            }

            /// A lookup returns exactly the announced-and-not-withdrawn
            /// holders, minus the asker — rotation reorders, never edits.
            #[test]
            fn lookups_match_the_registration_history(ops in ops(), asker in 0..NODES) {
                let mut dir = PeerDirectory::new();
                apply(&mut dir, &ops);
                let truth = model(&ops);
                for file in 0..FILES {
                    let mut got = dir.holders_except(fp(file), asker);
                    got.sort_unstable();
                    let mut want: Vec<usize> = truth
                        .get(&file)
                        .map(|set| set.iter().copied().filter(|n| *n != asker).collect())
                        .unwrap_or_default();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
                let replicas: usize = truth.values().map(HashSet::len).sum();
                prop_assert_eq!(dir.replicas(), replicas);
                prop_assert_eq!(dir.distinct_files(), truth.len());
            }

            /// Site-scoped discovery returns the same holder *set* as the
            /// flat lookup, with every same-site holder strictly before
            /// every foreign one, each group in ascending id order — and is
            /// cursor-free, so repeated lookups never change.
            #[test]
            fn scoped_discovery_is_sited_and_stable(
                ops in ops(),
                asker in 0..NODES,
                site_count in 1u32..4,
            ) {
                let mut dir = PeerDirectory::new();
                apply(&mut dir, &ops);
                let site_of: Vec<u32> =
                    (0..NODES).map(|n| n as u32 % site_count).collect();
                let truth = model(&ops);
                for file in 0..FILES {
                    let got = dir.holders_scoped(fp(file), asker, &site_of);
                    prop_assert_eq!(
                        got.clone(),
                        dir.holders_scoped(fp(file), asker, &site_of),
                        "scoped lookups must be repeatable"
                    );
                    let mut sorted = got.clone();
                    sorted.sort_unstable();
                    let mut want: Vec<usize> = truth
                        .get(&file)
                        .map(|set| set.iter().copied().filter(|n| *n != asker).collect())
                        .unwrap_or_default();
                    want.sort_unstable();
                    prop_assert_eq!(sorted, want, "same holder set as the flat lookup");
                    // Same-site prefix, foreign suffix, ids ascending in each.
                    let my_site = site_of[asker];
                    let boundary =
                        got.iter().take_while(|n| site_of[**n] == my_site).count();
                    prop_assert!(
                        got[boundary..].iter().all(|n| site_of[*n] != my_site),
                        "foreign holder before a same-site one: {:?}",
                        got
                    );
                    prop_assert!(got[..boundary].windows(2).all(|w| w[0] < w[1]));
                    prop_assert!(got[boundary..].windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }
}
