//! Content Store: the forwarder's in-network cache.
//!
//! # Two-tier budget
//!
//! The store enforces **two** limits at once: an entry-count capacity (how
//! many Data packets may be resident) and a **byte budget** (how much memory
//! they may collectively occupy, payload + name). Count-only budgeting —
//! the seed behaviour — let one multi-GiB BLAST result segment occupy the
//! same "one slot" as a 1 KiB status object, so a bulk transfer could pin
//! gigabytes while tiny hot results were evicted around it. With a byte
//! budget ([`CsConfig::budget_bytes`]; 0 means *no byte limit*), every
//! insert evicts LRU entries until both limits hold, and any single Data
//! whose cost exceeds what its class may ever use is **refused outright**
//! (an admission rejection) instead of mass-evicting live entries it would
//! immediately crowd out.
//!
//! # Segment-aware admission
//!
//! Entries are split into two cost classes by [`CsConfig::bulk_threshold`]:
//! *bulk* entries (cost ≥ threshold — in practice the 1 MiB segments of a
//! segmented lake object, cf. `lidc-datalake`'s `DEFAULT_SEGMENT_SIZE`) and
//! *small* entries (status objects, submit acks, small results). Bulk
//! entries may only use the budget left after a configurable
//! [`CsConfig::protected_fraction`] is reserved for small entries, so a
//! multi-segment bulk transfer saturates its own share and then recycles
//! its *own* LRU segments — it can never flush the store of hot small
//! results while the small class is within its reserve. Each class has its
//! own intrusive LRU list; exact global LRU order (used for count-driven
//! eviction) is recovered by comparing the two tails' recency ticks.
//!
//! # Probe path
//!
//! The probe path is allocation-free: exact lookups hit the name-ordered
//! `BTreeMap` directly, prefix lookups range-scan it with a **borrowed**
//! component slice (no owned `Name` is built), and recency is tracked by
//! intrusive doubly-linked LRU lists over a slab of reusable slots — a
//! cache hit relinks indices instead of allocating. Byte accounting is pure
//! arithmetic ([`ContentStore::cost_of`]) and adds no allocation anywhere.

use std::collections::BTreeMap;
use std::ops::Bound;

use crate::name::{Name, NameComponent};
use crate::packet::{name_body_len, Data, Interest};
use lidc_simcore::time::SimTime;

/// Slab slot index; `NONE` marks list ends and free slots.
const NONE: usize = usize::MAX;

/// Cost-class boundary: entries this large or larger are *bulk* (segment
/// class). Matches the data lake's default segment payload size
/// (`lidc_datalake::segment::DEFAULT_SEGMENT_SIZE`, 1 MiB) so a segmented
/// object's full-size segments classify as bulk; a cross-crate test in
/// `lidc-datalake` pins the two constants together.
pub const DEFAULT_BULK_THRESHOLD: u64 = 1 << 20;

/// The byte budget a count-capacity deserves by default: one default-sized
/// segment per entry slot. `ForwarderConfig` and the overlay derive their
/// `cs_budget_bytes` defaults from this.
pub fn default_budget_bytes(capacity: usize) -> u64 {
    (capacity as u64).saturating_mul(DEFAULT_BULK_THRESHOLD)
}

/// Content Store tuning knobs (see the module docs for the policy).
#[derive(Debug, Clone)]
pub struct CsConfig {
    /// Entry capacity in packets. 0 disables the store entirely.
    pub capacity: usize,
    /// Byte budget over payload + name cost. **0 means no byte limit**
    /// (count-only budgeting, the seed behaviour) — it does *not* mean
    /// "reject everything"; disabling the store is `capacity: 0`.
    pub budget_bytes: u64,
    /// Entries with cost ≥ this are the bulk (segment) class.
    pub bulk_threshold: u64,
    /// Fraction of `budget_bytes` reserved for sub-threshold entries; bulk
    /// entries may never occupy more than `(1 - fraction) × budget_bytes`.
    /// Clamped to `[0, 1]`. Irrelevant when `budget_bytes` is 0.
    pub protected_fraction: f64,
}

impl Default for CsConfig {
    fn default() -> Self {
        CsConfig {
            capacity: 4096,
            budget_bytes: default_budget_bytes(4096),
            bulk_threshold: DEFAULT_BULK_THRESHOLD,
            protected_fraction: 0.25,
        }
    }
}

impl CsConfig {
    /// Count-only config: `capacity` entries, no byte limit.
    pub fn count_only(capacity: usize) -> Self {
        CsConfig {
            capacity,
            budget_bytes: 0,
            ..CsConfig::default()
        }
    }
}

#[derive(Debug, Clone)]
struct CsRecord {
    data: Data,
    /// Instant after which this record no longer satisfies MustBeFresh.
    fresh_until: Option<SimTime>,
    /// Index of this record's slot in the LRU slab.
    slot: usize,
}

/// One slab slot: a doubly-linked LRU list node in its class's list. Freed
/// slots are recycled through a free list, so steady-state churn allocates
/// nothing.
#[derive(Debug, Clone)]
struct Slot {
    name: Name,
    prev: usize,
    next: usize,
    /// Monotonic recency stamp; comparing the two class tails' ticks
    /// recovers the exact global LRU entry.
    tick: u64,
    /// Byte cost ([`ContentStore::cost_of`]) charged to the budget.
    cost: u64,
    /// Which class list this slot is linked into.
    bulk: bool,
}

/// The Content Store.
#[derive(Debug)]
pub struct ContentStore {
    config: CsConfig,
    /// `budget_bytes` minus the small-class reserve (0 when unbudgeted).
    bulk_budget: u64,
    /// Name-ordered records (canonical order enables prefix range scans).
    records: BTreeMap<Name, CsRecord>,
    /// LRU slab shared by both class lists.
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Small-class list; `head` is most-recent, `tail` least-recent.
    small_head: usize,
    small_tail: usize,
    /// Bulk-class list.
    bulk_head: usize,
    bulk_tail: usize,
    /// Monotonic recency counter.
    tick: u64,
    /// Bytes held by each class (`bytes_used()` is their sum).
    bytes_small: u64,
    bytes_bulk: u64,
    hits: u64,
    misses: u64,
    /// Slots observed stale during the current MustBeFresh probe; reused
    /// across lookups so eviction stays allocation-free in steady state.
    stale_scratch: Vec<usize>,
    /// Lifetime count of records evicted because a MustBeFresh probe
    /// observed them stale (diagnostics).
    stale_evictions: u64,
    /// Lifetime LRU evictions (count- or byte-driven) and their bytes.
    evictions: u64,
    evicted_bytes: u64,
    /// Subset of `evictions` forced by the byte budget rather than the
    /// entry capacity.
    byte_evictions: u64,
    /// Data refused at admission (cost exceeds what its class may ever
    /// hold).
    admission_rejections: u64,
}

impl ContentStore {
    /// Create a count-only store holding at most `capacity` Data packets
    /// with **no byte limit** (the pre-byte-budget behaviour). A capacity of
    /// zero disables caching entirely.
    pub fn new(capacity: usize) -> Self {
        Self::with_config(CsConfig::count_only(capacity))
    }

    /// Create a store with the full two-tier budget configuration.
    pub fn with_config(config: CsConfig) -> Self {
        let protected =
            (config.budget_bytes as f64 * config.protected_fraction.clamp(0.0, 1.0)) as u64;
        let bulk_budget = config.budget_bytes.saturating_sub(protected);
        ContentStore {
            bulk_budget,
            config,
            records: BTreeMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            small_head: NONE,
            small_tail: NONE,
            bulk_head: NONE,
            bulk_tail: NONE,
            tick: 0,
            bytes_small: 0,
            bytes_bulk: 0,
            hits: 0,
            misses: 0,
            stale_scratch: Vec::new(),
            stale_evictions: 0,
            evictions: 0,
            evicted_bytes: 0,
            byte_evictions: 0,
            admission_rejections: 0,
        }
    }

    /// The byte cost an entry for `data` is charged against the budget:
    /// payload length plus encoded name length. Pure arithmetic (no
    /// encoding, no allocation).
    pub fn cost_of(data: &Data) -> u64 {
        data.content.len() as u64 + name_body_len(&data.name) as u64
    }

    /// Number of cached packets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Bytes currently held (sum of [`ContentStore::cost_of`] over every
    /// resident record).
    pub fn bytes_used(&self) -> u64 {
        self.bytes_small + self.bytes_bulk
    }

    /// The configured byte budget (0 = no byte limit).
    pub fn budget_bytes(&self) -> u64 {
        self.config.budget_bytes
    }

    /// Lifetime cache hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime cache misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime LRU evictions (count- and byte-driven; stale-probe
    /// evictions are counted separately).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total bytes reclaimed by LRU evictions.
    pub fn evicted_bytes(&self) -> u64 {
        self.evicted_bytes
    }

    /// Lifetime evictions forced by the byte budget specifically.
    pub fn byte_evictions(&self) -> u64 {
        self.byte_evictions
    }

    /// Lifetime Data refused at admission (oversized for their class
    /// budget).
    pub fn admission_rejections(&self) -> u64 {
        self.admission_rejections
    }

    fn unlink(&mut self, slot: usize) {
        let Slot {
            prev, next, bulk, ..
        // lidc-lint: allow(panic-path) reason="slot indexes come from the records map or the intrusive lists, which only ever hold live arena entries"
        } = self.slots[slot];
        if prev != NONE {
            // lidc-lint: allow(panic-path) reason="prev != NONE is a live neighbor index maintained by this arena's lists"
            self.slots[prev].next = next;
        } else if bulk {
            self.bulk_head = next;
        } else {
            self.small_head = next;
        }
        if next != NONE {
            // lidc-lint: allow(panic-path) reason="next != NONE is a live neighbor index maintained by this arena's lists"
            self.slots[next].prev = prev;
        } else if bulk {
            self.bulk_tail = prev;
        } else {
            self.small_tail = prev;
        }
    }

    fn link_front(&mut self, slot: usize) {
        // lidc-lint: allow(panic-path) reason="slot indexes come from the records map or the intrusive lists, which only ever hold live arena entries"
        let bulk = self.slots[slot].bulk;
        let head = if bulk { self.bulk_head } else { self.small_head };
        // lidc-lint: allow(panic-path) reason="slot indexes come from the records map or the intrusive lists, which only ever hold live arena entries"
        self.slots[slot].prev = NONE;
        // lidc-lint: allow(panic-path) reason="slot indexes come from the records map or the intrusive lists, which only ever hold live arena entries"
        self.slots[slot].next = head;
        if head != NONE {
            // lidc-lint: allow(panic-path) reason="head != NONE is the live list head maintained by this arena"
            self.slots[head].prev = slot;
        }
        if bulk {
            self.bulk_head = slot;
            if self.bulk_tail == NONE {
                self.bulk_tail = slot;
            }
        } else {
            self.small_head = slot;
            if self.small_tail == NONE {
                self.small_tail = slot;
            }
        }
    }

    fn alloc_slot(&mut self, name: Name, cost: u64, bulk: bool) -> usize {
        let slot = Slot {
            name,
            prev: NONE,
            next: NONE,
            tick: self.tick,
            cost,
            bulk,
        };
        match self.free.pop() {
            Some(i) => {
                // lidc-lint: allow(panic-path) reason="the free list only holds indexes of previously allocated slots"
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        }
    }

    /// Whether cost `c` classifies as bulk (segment class).
    fn is_bulk(&self, cost: u64) -> bool {
        cost >= self.config.bulk_threshold
    }

    /// Charge `cost` to a class's byte counter.
    fn charge(&mut self, cost: u64, bulk: bool) {
        if bulk {
            self.bytes_bulk += cost;
        } else {
            self.bytes_small += cost;
        }
    }

    /// Release `cost` from a class's byte counter.
    fn release(&mut self, cost: u64, bulk: bool) {
        if bulk {
            self.bytes_bulk -= cost;
        } else {
            self.bytes_small -= cost;
        }
    }

    /// Insert a Data packet observed at `now`.
    ///
    /// Admission: with a byte budget in force, a Data whose cost exceeds
    /// what its class may ever occupy (the whole budget for small entries,
    /// the unprotected share for bulk ones) is refused without evicting
    /// anything — it could only be admitted by flushing live entries it
    /// would immediately crowd out again. Otherwise the entry is linked
    /// MRU and LRU entries are evicted until the entry capacity, the bulk
    /// class share, and the total byte budget all hold.
    pub fn insert(&mut self, data: Data, now: SimTime) {
        if self.config.capacity == 0 {
            return;
        }
        let cost = Self::cost_of(&data);
        let bulk = self.is_bulk(cost);
        if self.config.budget_bytes > 0 {
            let class_budget = if bulk {
                self.bulk_budget
            } else {
                self.config.budget_bytes
            };
            if cost > class_budget {
                // Refused: any resident entry under this name stays.
                self.admission_rejections += 1;
                return;
            }
        }
        let name = data.name.clone();
        let fresh_until = data.freshness.map(|f| now + f);
        self.tick += 1;
        match self.records.get_mut(&name) {
            Some(rec) => {
                let slot = rec.slot;
                rec.data = data;
                rec.fresh_until = fresh_until;
                // Re-account: the replacement may change cost and class.
                self.unlink(slot);
                // lidc-lint: allow(panic-path) reason="slot was found in the records map for this name just above"
                let (old_cost, old_bulk) = (self.slots[slot].cost, self.slots[slot].bulk);
                self.release(old_cost, old_bulk);
                // lidc-lint: allow(panic-path) reason="slot was found in the records map for this name just above"
                self.slots[slot].cost = cost;
                // lidc-lint: allow(panic-path) reason="slot was found in the records map for this name just above"
                self.slots[slot].bulk = bulk;
                // lidc-lint: allow(panic-path) reason="slot was found in the records map for this name just above"
                self.slots[slot].tick = self.tick;
                self.charge(cost, bulk);
                self.link_front(slot);
            }
            None => {
                let slot = self.alloc_slot(name.clone(), cost, bulk);
                self.link_front(slot);
                self.charge(cost, bulk);
                self.records.insert(
                    name,
                    CsRecord {
                        data,
                        fresh_until,
                        slot,
                    },
                );
            }
        }
        self.enforce_budgets();
    }

    /// The exact global LRU entry: the older of the two class tails.
    fn global_lru(&self) -> usize {
        match (self.small_tail, self.bulk_tail) {
            (NONE, b) => b,
            (s, NONE) => s,
            (s, b) => {
                // lidc-lint: allow(panic-path) reason="both candidate heads were checked against NONE by the match arms"
                if self.slots[s].tick <= self.slots[b].tick {
                    s
                } else {
                    b
                }
            }
        }
    }

    /// Evict LRU entries until the entry capacity, the bulk-class share,
    /// and the total byte budget all hold. Admission pre-checks guarantee
    /// the just-inserted (MRU) entry is never its own victim.
    fn enforce_budgets(&mut self) {
        while self.records.len() > self.config.capacity {
            let victim = self.global_lru();
            if victim == NONE {
                break;
            }
            self.evict_for_pressure(victim, false);
        }
        if self.config.budget_bytes == 0 {
            return;
        }
        // Bulk class share first: a segment stream recycles its own LRU
        // segments instead of touching the small class.
        while self.bytes_bulk > self.bulk_budget {
            let victim = self.bulk_tail;
            if victim == NONE {
                break;
            }
            self.evict_for_pressure(victim, true);
        }
        // Total budget. Reaching here over budget implies the small class
        // exceeds its reserve (bulk is already within its share), so plain
        // global-LRU choice cannot starve a within-reserve small class.
        while self.bytes_used() > self.config.budget_bytes {
            let victim = self.global_lru();
            if victim == NONE {
                break;
            }
            self.evict_for_pressure(victim, true);
        }
    }

    fn evict_for_pressure(&mut self, slot: usize, byte_driven: bool) {
        // lidc-lint: allow(panic-path) reason="slot comes from a list head the caller checked against NONE"
        let cost = self.slots[slot].cost;
        self.evict_slot(slot);
        self.evictions += 1;
        self.evicted_bytes += cost;
        if byte_driven {
            self.byte_evictions += 1;
        }
    }

    /// Remove the record occupying `slot`, release its bytes, and recycle
    /// the slot.
    fn evict_slot(&mut self, slot: usize) {
        self.unlink(slot);
        // lidc-lint: allow(panic-path) reason="slot indexes come from the records map or the intrusive lists, which only ever hold live arena entries"
        let (cost, bulk) = (self.slots[slot].cost, self.slots[slot].bulk);
        self.release(cost, bulk);
        // lidc-lint: allow(panic-path) reason="slot indexes come from the records map or the intrusive lists, which only ever hold live arena entries"
        let name = std::mem::take(&mut self.slots[slot].name);
        self.records.remove(&name);
        self.free.push(slot);
    }

    fn mark_used(&mut self, slot: usize) {
        self.tick += 1;
        // lidc-lint: allow(panic-path) reason="slot comes from the records map lookup performed by the caller"
        self.slots[slot].tick = self.tick;
        // lidc-lint: allow(panic-path) reason="slot comes from the records map lookup performed by the caller"
        let head = if self.slots[slot].bulk {
            self.bulk_head
        } else {
            self.small_head
        };
        if head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    /// Find a cached Data satisfying `interest` at `now`.
    ///
    /// Exact-name match unless `CanBePrefix`; `MustBeFresh` filters records
    /// past their freshness period. The leftmost (canonical-order) match
    /// wins, as in NFD. The probe itself performs no heap allocation; a hit
    /// returns an O(1) clone of the cached packet (refcount bumps).
    ///
    /// Records a `MustBeFresh` probe observes stale are **evicted**: stale
    /// Data can never satisfy a fresh Interest again, and leaving it
    /// resident would pin an LRU slot and lengthen every CanBePrefix range
    /// scan over it until capacity pressure finally wins (the stale-pinning
    /// bug). Eviction frees the slot (and its bytes) for live content
    /// immediately.
    pub fn lookup(&mut self, interest: &Interest, now: SimTime) -> Option<Data> {
        let must_be_fresh = interest.must_be_fresh;
        let mut stale = std::mem::take(&mut self.stale_scratch);
        stale.clear();
        // Capture the packet clone (O(1) refcount bumps) during the probe:
        // one map traversal per hit, no re-find.
        let found: Option<(usize, Data)> = if interest.can_be_prefix {
            // Range-scan from the prefix using the borrowed component
            // slice; `Name: Borrow<[NameComponent]>` makes this key-free.
            let prefix: &[NameComponent] = interest.name.components();
            let mut hit = None;
            for (name, rec) in self
                .records
                .range::<[NameComponent], _>((Bound::Included(prefix), Bound::Unbounded))
            {
                if prefix.len() > name.len() || *prefix != name.components()[..prefix.len()] {
                    break;
                }
                if Self::satisfies_freshness(rec, must_be_fresh, now) {
                    hit = Some((rec.slot, rec.data.clone()));
                    break;
                }
                // Only reachable under MustBeFresh: the record is stale.
                stale.push(rec.slot);
            }
            hit
        } else {
            match self.records.get(&interest.name) {
                Some(rec) if Self::satisfies_freshness(rec, must_be_fresh, now) => {
                    Some((rec.slot, rec.data.clone()))
                }
                Some(rec) => {
                    stale.push(rec.slot);
                    None
                }
                None => None,
            }
        };
        for slot in stale.drain(..) {
            self.evict_slot(slot);
            self.stale_evictions += 1;
        }
        self.stale_scratch = stale;
        match found {
            Some((slot, data)) => {
                self.mark_used(slot);
                self.hits += 1;
                Some(data)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Lifetime count of records evicted by stale-observing MustBeFresh
    /// probes.
    pub fn stale_evictions(&self) -> u64 {
        self.stale_evictions
    }

    fn satisfies_freshness(rec: &CsRecord, must_be_fresh: bool, now: SimTime) -> bool {
        if !must_be_fresh {
            return true;
        }
        match rec.fresh_until {
            Some(t) => now < t,
            // No freshness period means "never fresh" under MustBeFresh
            // (spec: FreshnessPeriod absent ⇒ non-fresh immediately).
            None => false,
        }
    }

    /// Drop every record (management/diagnostics).
    pub fn clear(&mut self) {
        self.records.clear();
        self.slots.clear();
        self.free.clear();
        self.small_head = NONE;
        self.small_tail = NONE;
        self.bulk_head = NONE;
        self.bulk_tail = NONE;
        self.bytes_small = 0;
        self.bytes_bulk = 0;
    }

    /// Iterate cached names in canonical order (diagnostics).
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.records.keys()
    }

    /// Iterate cached `(name, Data)` pairs in canonical order (diagnostics;
    /// lets tests recompute the byte accounting from first principles).
    pub fn entries(&self) -> impl Iterator<Item = (&Name, &Data)> {
        self.records.iter().map(|(name, rec)| (name, &rec.data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidc_simcore::time::SimDuration;

    fn data(uri: &str) -> Data {
        Data::new(name!(uri), &b"content"[..]).sign_digest()
    }

    fn sized_data(uri: &str, bytes: usize) -> Data {
        Data::new(name!(uri), vec![7u8; bytes]).sign_digest()
    }

    fn fresh_data(uri: &str, fresh: SimDuration) -> Data {
        Data::new(name!(uri), &b"content"[..])
            .with_freshness(fresh)
            .sign_digest()
    }

    /// A store with a byte budget sized in small units for readable tests:
    /// bulk threshold 100 bytes, budget `budget` bytes, 25% protected.
    fn budgeted(capacity: usize, budget: u64) -> ContentStore {
        ContentStore::with_config(CsConfig {
            capacity,
            budget_bytes: budget,
            bulk_threshold: 100,
            protected_fraction: 0.25,
        })
    }

    const T0: SimTime = SimTime::ZERO;

    #[test]
    fn exact_match_hit_and_miss() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/a/b"), T0);
        assert!(cs.lookup(&Interest::new(name!("/a/b")), T0).is_some());
        assert!(cs.lookup(&Interest::new(name!("/a")), T0).is_none(), "no prefix without CanBePrefix");
        assert!(cs.lookup(&Interest::new(name!("/a/b/c")), T0).is_none());
        assert_eq!(cs.hits(), 1);
        assert_eq!(cs.misses(), 2);
    }

    #[test]
    fn prefix_match_with_can_be_prefix() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/a/b/seg=0"), T0);
        let i = Interest::new(name!("/a/b")).can_be_prefix(true);
        assert!(cs.lookup(&i, T0).is_some());
        // A sibling prefix must not match.
        let i = Interest::new(name!("/a/c")).can_be_prefix(true);
        assert!(cs.lookup(&i, T0).is_none());
    }

    #[test]
    fn prefix_match_returns_leftmost() {
        let mut cs = ContentStore::new(10);
        cs.insert(data("/a/b/seg=1"), T0);
        cs.insert(data("/a/b/seg=0"), T0);
        let i = Interest::new(name!("/a/b")).can_be_prefix(true);
        let hit = cs.lookup(&i, T0).unwrap();
        assert_eq!(hit.name, name!("/a/b/seg=0"), "canonical-leftmost wins");
    }

    #[test]
    fn must_be_fresh_semantics() {
        let mut cs = ContentStore::new(10);
        cs.insert(fresh_data("/f", SimDuration::from_secs(10)), T0);
        cs.insert(data("/stale"), T0);
        let fresh_interest = |uri: &str| Interest::new(name!(uri)).must_be_fresh(true);
        // Within the freshness window.
        assert!(cs
            .lookup(&fresh_interest("/f"), T0 + SimDuration::from_secs(5))
            .is_some());
        // Data without FreshnessPeriod is never fresh under MustBeFresh, but
        // matches a plain Interest (probed first: a MustBeFresh miss evicts).
        assert!(cs
            .lookup(&Interest::new(name!("/stale")), T0 + SimDuration::from_hours(1))
            .is_some());
        assert!(cs.lookup(&fresh_interest("/stale"), T0).is_none());
        // Past the freshness window: a MustBeFresh probe misses and evicts
        // the stale record (see `stale_probe_evicts_record`).
        assert!(cs
            .lookup(&fresh_interest("/f"), T0 + SimDuration::from_secs(10))
            .is_none());
        assert_eq!(cs.stale_evictions(), 2);
    }

    #[test]
    fn stale_probe_evicts_record() {
        // Regression (stale pinning): a MustBeFresh probe that observes a
        // stale record must evict it — otherwise the dead entry occupies an
        // LRU slot and is re-walked by every CanBePrefix scan until
        // capacity pressure finally reclaims it.
        let mut cs = ContentStore::new(2);
        cs.insert(fresh_data("/a", SimDuration::from_secs(1)), T0);
        cs.insert(data("/b"), T0);
        assert_eq!(cs.len(), 2);
        // Probe /a after its freshness lapsed: miss, and the slot frees.
        let t = T0 + SimDuration::from_secs(5);
        assert!(cs.lookup(&Interest::new(name!("/a")).must_be_fresh(true), t).is_none());
        assert_eq!(cs.len(), 1, "stale record no longer occupies capacity");
        assert_eq!(cs.stale_evictions(), 1);
        // The freed slot admits new content without evicting live /b.
        cs.insert(fresh_data("/c", SimDuration::from_secs(60)), t);
        assert_eq!(cs.len(), 2);
        assert!(cs.lookup(&Interest::new(name!("/b")), t).is_some(), "/b survived");
        assert!(cs.lookup(&Interest::new(name!("/c")), t).is_some());
        // A later exact lookup for /a misses outright (it was evicted).
        assert!(cs.lookup(&Interest::new(name!("/a")), t).is_none());
    }

    #[test]
    fn prefix_scan_evicts_every_stale_record_it_walks() {
        let mut cs = ContentStore::new(10);
        // Three stale-by-then segments plus one fresh one under /a.
        for seg in 0..3 {
            cs.insert(
                fresh_data(&format!("/a/seg={seg}"), SimDuration::from_secs(1)),
                T0,
            );
        }
        let t = T0 + SimDuration::from_secs(5);
        cs.insert(fresh_data("/a/seg=3", SimDuration::from_secs(60)), t);
        cs.insert(data("/z"), T0);
        // The fresh prefix probe walks the three stale records (canonical
        // order) before hitting seg=3; all three are evicted.
        let i = Interest::new(name!("/a")).can_be_prefix(true).must_be_fresh(true);
        let hit = cs.lookup(&i, t).unwrap();
        assert_eq!(hit.name, name!("/a/seg=3"));
        assert_eq!(cs.len(), 2, "stale seg=0..2 evicted, seg=3 and /z remain");
        assert_eq!(cs.stale_evictions(), 3);
        // A second identical probe walks nothing stale.
        assert!(cs.lookup(&i, t).is_some());
        assert_eq!(cs.stale_evictions(), 3);
    }

    #[test]
    fn lru_eviction_order() {
        let mut cs = ContentStore::new(2);
        cs.insert(data("/one"), T0);
        cs.insert(data("/two"), T0);
        // Touch /one so /two becomes LRU.
        assert!(cs.lookup(&Interest::new(name!("/one")), T0).is_some());
        cs.insert(data("/three"), T0);
        assert_eq!(cs.len(), 2);
        assert!(cs.lookup(&Interest::new(name!("/one")), T0).is_some());
        assert!(cs.lookup(&Interest::new(name!("/two")), T0).is_none(), "/two evicted");
        assert!(cs.lookup(&Interest::new(name!("/three")), T0).is_some());
    }

    #[test]
    fn reinsert_same_name_replaces() {
        let mut cs = ContentStore::new(2);
        cs.insert(data("/a"), T0);
        let newer = Data::new(name!("/a"), &b"v2"[..]).sign_digest();
        cs.insert(newer.clone(), T0);
        assert_eq!(cs.len(), 1);
        let got = cs.lookup(&Interest::new(name!("/a")), T0).unwrap();
        assert_eq!(got.content, newer.content);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let mut cs = ContentStore::new(0);
        cs.insert(data("/a"), T0);
        assert!(cs.is_empty());
        assert!(cs.lookup(&Interest::new(name!("/a")), T0).is_none());
    }

    #[test]
    fn zero_capacity_disables_even_with_budget() {
        // capacity 0 disables the store regardless of the byte budget —
        // config plumbing must not read "budget set" as "store enabled".
        let mut cs = ContentStore::with_config(CsConfig {
            capacity: 0,
            budget_bytes: 1 << 30,
            ..CsConfig::default()
        });
        cs.insert(data("/a"), T0);
        assert!(cs.is_empty());
        assert_eq!(cs.bytes_used(), 0);
    }

    #[test]
    fn zero_budget_means_no_byte_limit() {
        // budget_bytes 0 is "count-only" (the seed behaviour), NOT "reject
        // everything" — config plumbing must not invert the two zeros.
        let mut cs = ContentStore::new(4);
        assert_eq!(cs.budget_bytes(), 0);
        for i in 0..4 {
            cs.insert(sized_data(&format!("/big/{i}"), 10 << 20), T0);
        }
        assert_eq!(cs.len(), 4, "arbitrarily large Data admitted");
        assert_eq!(cs.admission_rejections(), 0);
        assert_eq!(cs.byte_evictions(), 0);
        assert!(cs.bytes_used() > 40 << 20);
    }

    #[test]
    fn clear_empties() {
        let mut cs = ContentStore::new(4);
        cs.insert(data("/a"), T0);
        cs.insert(data("/b"), T0);
        cs.clear();
        assert!(cs.is_empty());
        assert_eq!(cs.names().count(), 0);
        assert_eq!(cs.bytes_used(), 0);
    }

    // --- byte budget ---------------------------------------------------------

    #[test]
    fn bytes_used_tracks_payload_and_name() {
        let mut cs = budgeted(16, 10_000);
        let d = sized_data("/x", 50);
        let cost = ContentStore::cost_of(&d);
        assert!(cost > 50, "cost includes the name");
        cs.insert(d, T0);
        assert_eq!(cs.bytes_used(), cost);
        // Replacement re-accounts instead of double-charging.
        let d2 = sized_data("/x", 70);
        let cost2 = ContentStore::cost_of(&d2);
        cs.insert(d2, T0);
        assert_eq!(cs.bytes_used(), cost2);
        assert_eq!(cs.len(), 1);
    }

    #[test]
    fn byte_budget_evicts_lru_until_it_fits() {
        let mut cs = budgeted(100, 200);
        // Three ~66-byte (payload + name) entries fit; the fourth forces
        // LRU eviction by bytes even though the entry capacity (100) is
        // nowhere near.
        for i in 0..3 {
            cs.insert(sized_data(&format!("/s/{i}"), 60), T0);
        }
        assert_eq!(cs.len(), 3);
        assert!(cs.lookup(&Interest::new(name!("/s/0")), T0).is_some(), "refresh /s/0");
        cs.insert(sized_data("/s/3", 60), T0);
        assert!(cs.bytes_used() <= 200, "budget holds");
        assert!(cs.byte_evictions() >= 1);
        assert!(cs.lookup(&Interest::new(name!("/s/1")), T0).is_none(), "LRU /s/1 evicted");
        assert!(cs.lookup(&Interest::new(name!("/s/0")), T0).is_some(), "refreshed entry survives");
    }

    #[test]
    fn oversized_data_refused_without_flushing() {
        let mut cs = budgeted(16, 300);
        cs.insert(sized_data("/small/a", 40), T0);
        cs.insert(sized_data("/small/b", 40), T0);
        let before = cs.len();
        // Larger than the whole budget: refused, nothing evicted.
        cs.insert(sized_data("/huge", 400), T0);
        assert_eq!(cs.len(), before, "live entries untouched");
        assert_eq!(cs.admission_rejections(), 1);
        assert!(cs.lookup(&Interest::new(name!("/huge")), T0).is_none());
        assert!(cs.lookup(&Interest::new(name!("/small/a")), T0).is_some());
        assert!(cs.lookup(&Interest::new(name!("/small/b")), T0).is_some());
    }

    #[test]
    fn bulk_stream_cannot_flush_small_entries() {
        // Budget 1000, threshold 100, 25% protected ⇒ bulk may use ≤ 750.
        let mut cs = budgeted(1000, 1000);
        // Hot small results: ~4 × 50ish bytes, well within the 250 reserve.
        for i in 0..4 {
            cs.insert(sized_data(&format!("/hot/{i}"), 40), T0);
        }
        let small_before = cs.len();
        // A long bulk segment stream (each ≥ threshold).
        for seg in 0..50 {
            cs.insert(sized_data(&format!("/bulk/obj/seg={seg}"), 120), T0);
        }
        // Every hot small entry survived the stream.
        for i in 0..4 {
            assert!(
                cs.lookup(&Interest::new(name!(&format!("/hot/{i}"))), T0).is_some(),
                "/hot/{i} flushed by bulk traffic"
            );
        }
        assert!(cs.bytes_used() <= 1000);
        assert!(cs.byte_evictions() > 0, "bulk stream recycled its own segments");
        assert!(cs.len() >= small_before, "bulk evictions stayed in the bulk class");
    }

    #[test]
    fn bulk_larger_than_bulk_share_is_refused() {
        // Bulk share is 750 of 1000; an 800-byte segment can never fit the
        // bulk class even though it is under the total budget.
        let mut cs = budgeted(16, 1000);
        cs.insert(sized_data("/hot/x", 40), T0);
        cs.insert(sized_data("/bulk/seg=0", 800), T0);
        assert_eq!(cs.admission_rejections(), 1);
        assert!(cs.lookup(&Interest::new(name!("/hot/x")), T0).is_some());
        assert!(cs.lookup(&Interest::new(name!("/bulk/seg=0")), T0).is_none());
    }

    #[test]
    fn small_entries_may_use_whole_budget() {
        // Without bulk pressure the reserve is not a cap on small entries.
        let mut cs = budgeted(100, 1000);
        for i in 0..12 {
            cs.insert(sized_data(&format!("/s/{i}"), 60), T0);
        }
        assert!(cs.bytes_used() <= 1000);
        assert!(cs.bytes_used() > 750, "small class exceeded the 25% reserve");
    }

    // --- LRU/slab invariants ------------------------------------------------

    /// Walk one class list front-to-back, returning the names in recency
    /// order and checking the back-links along the way.
    fn list_order(cs: &ContentStore, head: usize, tail: usize) -> Vec<Name> {
        let mut out = Vec::new();
        let mut prev = NONE;
        let mut cur = head;
        while cur != NONE {
            assert_eq!(cs.slots[cur].prev, prev, "back-link consistent");
            out.push(cs.slots[cur].name.clone());
            prev = cur;
            cur = cs.slots[cur].next;
        }
        assert_eq!(tail, prev, "tail is the last reachable slot");
        out
    }

    fn lru_order(cs: &ContentStore) -> Vec<Name> {
        let mut out = list_order(cs, cs.small_head, cs.small_tail);
        out.extend(list_order(cs, cs.bulk_head, cs.bulk_tail));
        out
    }

    #[test]
    fn lru_invariant_slab_consistent() {
        // Property-style check: after a mixed workload, the linked lists
        // visit exactly the resident records, slots recycle through the
        // free list, every record's slot points back at its name, and the
        // byte counters equal the per-class cost sums.
        use lidc_simcore::rng::DetRng;
        let mut rng = DetRng::new(5);
        let mut cs = budgeted(8, 4000);
        for step in 0..500u64 {
            let id = rng.next_below(20);
            let uri = format!("/obj/{id}");
            if rng.next_bool(0.5) {
                // Mix classes: every third object is bulk-sized.
                let size = if id.is_multiple_of(3) { 150 } else { 30 };
                cs.insert(sized_data(&uri, size), T0);
            } else {
                let _ = cs.lookup(&Interest::new(Name::parse(&uri).unwrap()), T0);
            }
            assert!(cs.len() <= 8, "capacity respected at step {step}");
            assert!(cs.bytes_used() <= 4000, "budget respected at step {step}");
            let order = lru_order(&cs);
            assert_eq!(order.len(), cs.records.len(), "lists cover all records");
            let (mut small_sum, mut bulk_sum) = (0u64, 0u64);
            for name in &order {
                let rec = &cs.records[name];
                assert_eq!(&cs.slots[rec.slot].name, name, "slot back-pointer");
                if cs.slots[rec.slot].bulk {
                    bulk_sum += cs.slots[rec.slot].cost;
                } else {
                    small_sum += cs.slots[rec.slot].cost;
                }
            }
            assert_eq!(cs.bytes_small, small_sum, "small byte counter exact");
            assert_eq!(cs.bytes_bulk, bulk_sum, "bulk byte counter exact");
            assert_eq!(
                cs.slots.len(),
                cs.records.len() + cs.free.len(),
                "every slot is either live or free"
            );
        }
    }

    #[test]
    fn mru_is_list_head_after_hit() {
        let mut cs = ContentStore::new(3);
        cs.insert(data("/a"), T0);
        cs.insert(data("/b"), T0);
        cs.insert(data("/c"), T0);
        let _ = cs.lookup(&Interest::new(name!("/a")), T0);
        assert_eq!(lru_order(&cs)[0], name!("/a"));
        assert_eq!(*lru_order(&cs).last().unwrap(), name!("/b"));
    }

    #[test]
    fn count_eviction_is_global_lru_across_classes() {
        // Capacity pressure picks the globally least-recent entry, whichever
        // class list holds it (tick comparison across the two tails).
        let mut cs = budgeted(3, 0);
        cs.insert(sized_data("/bulk/seg=0", 150), T0); // bulk, oldest
        cs.insert(sized_data("/s/a", 10), T0);
        cs.insert(sized_data("/s/b", 10), T0);
        cs.insert(sized_data("/s/c", 10), T0); // over capacity: evict bulk
        assert!(cs.lookup(&Interest::new(name!("/bulk/seg=0")), T0).is_none());
        assert_eq!(cs.len(), 3);
        // Now the small /s/a is oldest; a bulk insert evicts it by count.
        cs.insert(sized_data("/bulk/seg=1", 150), T0);
        assert!(cs.lookup(&Interest::new(name!("/s/a")), T0).is_none());
        assert!(cs.lookup(&Interest::new(name!("/s/b")), T0).is_some());
    }
}
