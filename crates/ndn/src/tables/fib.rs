//! Forwarding Information Base: name prefixes → ranked next hops.
//!
//! Lookup is longest-prefix match in the NDN sense (component-granular, not
//! byte-granular). The implementation keeps a `HashMap` keyed by prefix and
//! walks the lookup name's prefixes from longest to shortest — O(k) map
//! probes for a k-component name, which beats a trie for the short names
//! LIDC uses while staying trivially correct (property-tested against a
//! naive reference in this module).
//!
//! The walk probes with **borrowed prefix views** (`&name.components()[..k]`
//! through `Name`'s `Borrow<[NameComponent]>` bridge), so a lookup performs
//! zero heap allocations regardless of the name's depth.

use crate::face::FaceId;
use crate::fxhash::FxHashMap;
use crate::name::{Name, NameComponent, NameSlice};

/// One candidate next hop for a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextHop {
    /// Outgoing face.
    pub face: FaceId,
    /// Routing cost; lower is preferred.
    pub cost: u32,
}

/// A FIB entry: the prefix plus its next hops sorted by ascending cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FibEntry {
    /// Registered prefix.
    pub prefix: Name,
    /// Next hops, ascending cost (ties broken by face id for determinism).
    pub nexthops: Vec<NextHop>,
}

/// The forwarding table.
#[derive(Debug, Default)]
pub struct Fib {
    entries: FxHashMap<Name, FibEntry>,
    /// Shortest registered prefix length (valid while non-empty): the LPM
    /// walk never probes below it.
    min_len: usize,
    /// Longest registered prefix length (valid while non-empty): the LPM
    /// walk never probes above it.
    max_len: usize,
}

impl Fib {
    /// Empty FIB.
    pub fn new() -> Self {
        Fib::default()
    }

    /// Number of entries (prefixes).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no prefixes are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Add (or update the cost of) a next hop for `prefix`.
    pub fn add_nexthop(&mut self, prefix: Name, face: FaceId, cost: u32) {
        if self.entries.is_empty() {
            self.min_len = prefix.len();
            self.max_len = prefix.len();
        } else {
            self.min_len = self.min_len.min(prefix.len());
            self.max_len = self.max_len.max(prefix.len());
        }
        let entry = self.entries.entry(prefix.clone()).or_insert_with(|| FibEntry {
            prefix,
            nexthops: Vec::new(),
        });
        match entry.nexthops.iter_mut().find(|nh| nh.face == face) {
            Some(nh) => nh.cost = cost,
            None => entry.nexthops.push(NextHop { face, cost }),
        }
        entry
            .nexthops
            .sort_by_key(|nh| (nh.cost, nh.face.raw()));
    }

    /// Remove one next hop; drops the entry when it was the last hop.
    /// Returns true if something was removed.
    pub fn remove_nexthop(&mut self, prefix: &Name, face: FaceId) -> bool {
        let Some(entry) = self.entries.get_mut(prefix) else {
            return false;
        };
        let before = entry.nexthops.len();
        entry.nexthops.retain(|nh| nh.face != face);
        let removed = entry.nexthops.len() != before;
        if entry.nexthops.is_empty() {
            self.entries.remove(prefix);
            self.recompute_len_bounds(prefix.len());
        }
        removed
    }

    /// Refresh `min_len`/`max_len` after removing an entry of length
    /// `removed_len` (only scans when the removed entry was extremal).
    fn recompute_len_bounds(&mut self, removed_len: usize) {
        if self.entries.is_empty() {
            self.min_len = 0;
            self.max_len = 0;
            return;
        }
        if removed_len == self.min_len || removed_len == self.max_len {
            // min/max are order-insensitive reductions, so scanning the
            // hash map directly is fine (two passes on a cold path beats
            // an order-dependent fold).
            self.min_len = self.entries.keys().map(Name::len).min().unwrap_or(0);
            self.max_len = self.entries.keys().map(Name::len).max().unwrap_or(0);
        }
    }

    /// Remove an entire entry. Returns true if it existed.
    pub fn remove_entry(&mut self, prefix: &Name) -> bool {
        let removed = self.entries.remove(prefix).is_some();
        if removed {
            self.recompute_len_bounds(prefix.len());
        }
        removed
    }

    /// Exact-match lookup (management use).
    pub fn entry(&self, prefix: &Name) -> Option<&FibEntry> {
        self.entries.get(prefix)
    }

    /// Longest-prefix-match lookup: the entry with the most components whose
    /// prefix matches `name`. Allocation-free: probes with borrowed prefix
    /// slices of `name`, never materializing owned prefixes.
    pub fn lookup(&self, name: &Name) -> Option<&FibEntry> {
        self.lookup_components(name.components())
    }

    /// Longest-prefix-match over a borrowed view (see [`NameSlice`]).
    pub fn lookup_slice(&self, name: NameSlice<'_>) -> Option<&FibEntry> {
        self.lookup_components(name.components())
    }

    /// Longest-prefix-match over a raw component slice. The walk is bounded
    /// by the shortest/longest registered prefix lengths, so only prefixes
    /// that could possibly match are hashed.
    pub fn lookup_components(&self, comps: &[NameComponent]) -> Option<&FibEntry> {
        if self.entries.is_empty() {
            return None;
        }
        let hi = self.max_len.min(comps.len());
        for k in (self.min_len..=hi).rev() {
            if let Some(entry) = self.entries.get(&comps[..k]) {
                return Some(entry);
            }
        }
        None
    }

    /// Iterate entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &FibEntry> {
        // lidc-lint: allow(unordered-iter) reason="order-unspecified accessor by contract; only property tests consume it, and they assert order-insensitive invariants"
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(id: u64) -> FaceId {
        FaceId::from_raw(id)
    }

    #[test]
    fn lpm_prefers_longest() {
        let mut fib = Fib::new();
        fib.add_nexthop(name!("/ndn"), f(1), 10);
        fib.add_nexthop(name!("/ndn/k8s"), f(2), 10);
        fib.add_nexthop(name!("/ndn/k8s/compute"), f(3), 10);
        let hit = fib.lookup(&name!("/ndn/k8s/compute/mem=4")).unwrap();
        assert_eq!(hit.prefix, name!("/ndn/k8s/compute"));
        let hit = fib.lookup(&name!("/ndn/k8s/data/x")).unwrap();
        assert_eq!(hit.prefix, name!("/ndn/k8s"));
        let hit = fib.lookup(&name!("/ndn/other")).unwrap();
        assert_eq!(hit.prefix, name!("/ndn"));
        assert!(fib.lookup(&name!("/web/x")).is_none());
    }

    #[test]
    fn root_prefix_matches_everything() {
        let mut fib = Fib::new();
        fib.add_nexthop(Name::root(), f(9), 1);
        assert_eq!(fib.lookup(&name!("/anything/at/all")).unwrap().prefix, Name::root());
    }

    #[test]
    fn nexthops_sorted_by_cost_then_face() {
        let mut fib = Fib::new();
        fib.add_nexthop(name!("/a"), f(3), 20);
        fib.add_nexthop(name!("/a"), f(1), 10);
        fib.add_nexthop(name!("/a"), f(2), 10);
        let hops = &fib.entry(&name!("/a")).unwrap().nexthops;
        assert_eq!(
            hops.iter().map(|nh| nh.face).collect::<Vec<_>>(),
            vec![f(1), f(2), f(3)]
        );
    }

    #[test]
    fn add_same_face_updates_cost() {
        let mut fib = Fib::new();
        fib.add_nexthop(name!("/a"), f(1), 10);
        fib.add_nexthop(name!("/a"), f(1), 5);
        let hops = &fib.entry(&name!("/a")).unwrap().nexthops;
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].cost, 5);
    }

    #[test]
    fn remove_last_nexthop_drops_entry() {
        let mut fib = Fib::new();
        fib.add_nexthop(name!("/a"), f(1), 10);
        assert!(fib.remove_nexthop(&name!("/a"), f(1)));
        assert!(fib.entry(&name!("/a")).is_none());
        assert!(!fib.remove_nexthop(&name!("/a"), f(1)));
        assert!(fib.is_empty());
    }

    /// Naive reference implementation for the property test.
    fn naive_lpm<'a>(entries: &'a [(Name, FaceId)], lookup: &Name) -> Option<&'a Name> {
        entries
            .iter()
            .filter(|(p, _)| p.is_prefix_of(lookup))
            .max_by_key(|(p, _)| p.len())
            .map(|(p, _)| p)
    }

    #[test]
    fn lookup_slice_and_components_agree_with_lookup() {
        let mut fib = Fib::new();
        fib.add_nexthop(name!("/ndn"), f(1), 10);
        fib.add_nexthop(name!("/ndn/k8s/compute"), f(3), 10);
        let lookup = name!("/ndn/k8s/compute/mem=4/extra");
        let by_name = fib.lookup(&lookup).map(|e| &e.prefix);
        let by_slice = fib.lookup_slice(lookup.as_slice()).map(|e| &e.prefix);
        let by_comps = fib.lookup_components(lookup.components()).map(|e| &e.prefix);
        assert_eq!(by_name, by_slice);
        assert_eq!(by_name, by_comps);
        assert_eq!(by_name, Some(&name!("/ndn/k8s/compute")));
        // Borrowed-view lookups on truncated slices match owned-prefix
        // lookups at every depth.
        for k in 0..=lookup.len() {
            assert_eq!(
                fib.lookup_components(&lookup.components()[..k]).map(|e| &e.prefix),
                fib.lookup(&lookup.prefix(k)).map(|e| &e.prefix),
                "depth {k}"
            );
        }
    }

    #[test]
    fn binary_components_route_correctly() {
        // Non-UTF-8 components: prefixes and lookups must match on raw
        // bytes, not on any text interpretation.
        let bin_a = NameComponent::generic(vec![0u8, 159, 146, 150]); // invalid UTF-8
        let bin_b = NameComponent::generic(vec![255u8, 0, 254]);
        let long_bin = NameComponent::generic(vec![0xEEu8; 200]); // spills inline cap
        let p1 = Name::root().child(bin_a.clone());
        let p2 = Name::root().child(bin_a.clone()).child(bin_b.clone());
        let p3 = Name::root().child(long_bin.clone());
        let mut fib = Fib::new();
        fib.add_nexthop(p1.clone(), f(1), 1);
        fib.add_nexthop(p2.clone(), f(2), 1);
        fib.add_nexthop(p3.clone(), f(3), 1);
        assert!(bin_a.as_str().is_none(), "component is genuinely non-UTF-8");

        let deep = p2.clone().child(NameComponent::generic(vec![9u8]));
        assert_eq!(fib.lookup(&deep).unwrap().prefix, p2, "longest binary prefix wins");
        let sibling = p1.clone().child(NameComponent::generic(vec![255u8, 0, 255]));
        assert_eq!(fib.lookup(&sibling).unwrap().prefix, p1, "near-miss byte falls back");
        let long_child = p3.clone().child(bin_b.clone());
        assert_eq!(fib.lookup(&long_child).unwrap().prefix, p3, "spilled values match by content");
        // A name sharing no prefix does not match.
        assert!(fib.lookup(&Name::root().child(bin_b)).is_none());
        // Borrowed views agree on binary names too.
        for probe in [&deep, &sibling, &long_child] {
            assert_eq!(
                fib.lookup(probe).map(|e| &e.prefix),
                fib.lookup_components(probe.components()).map(|e| &e.prefix),
            );
        }
    }

    #[test]
    fn length_bounds_track_removals() {
        let mut fib = Fib::new();
        fib.add_nexthop(name!("/a"), f(1), 1);
        fib.add_nexthop(name!("/a/b/c/d/e"), f(2), 1);
        let deep = name!("/a/b/c/d/e/f/g");
        assert_eq!(fib.lookup(&deep).unwrap().prefix, name!("/a/b/c/d/e"));
        fib.remove_nexthop(&name!("/a/b/c/d/e"), f(2));
        assert_eq!(fib.lookup(&deep).unwrap().prefix, name!("/a"));
        fib.remove_entry(&name!("/a"));
        assert!(fib.lookup(&deep).is_none());
        assert!(fib.is_empty());
        // Re-adding after emptiness resets the bounds.
        fib.add_nexthop(name!("/x/y"), f(3), 1);
        assert_eq!(fib.lookup(&name!("/x/y/z")).unwrap().prefix, name!("/x/y"));
        assert!(fib.lookup(&name!("/x")).is_none());
    }

    #[test]
    fn lpm_matches_naive_reference_on_random_tables() {
        use lidc_simcore::rng::DetRng;
        let mut rng = DetRng::new(0xF1B);
        let vocab = ["a", "b", "c", "data", "compute"];
        for _ in 0..200 {
            let mut fib = Fib::new();
            let mut entries: Vec<(Name, FaceId)> = Vec::new();
            let n_entries = rng.next_below(12) + 1;
            for i in 0..n_entries {
                let depth = rng.next_below(4) + 1;
                let mut n = Name::root();
                for _ in 0..depth {
                    n = n.child_str(vocab[rng.next_below(vocab.len() as u64) as usize]);
                }
                // Skip duplicate prefixes in the reference to keep it simple.
                if entries.iter().any(|(p, _)| *p == n) {
                    continue;
                }
                fib.add_nexthop(n.clone(), f(i), 1);
                entries.push((n, f(i)));
            }
            for _ in 0..20 {
                let depth = rng.next_below(5);
                let mut lookup = Name::root();
                for _ in 0..depth {
                    lookup = lookup.child_str(vocab[rng.next_below(vocab.len() as u64) as usize]);
                }
                let got = fib.lookup(&lookup).map(|e| &e.prefix);
                let want = naive_lpm(&entries, &lookup);
                assert_eq!(got, want, "lookup {lookup}");
            }
        }
    }
}
