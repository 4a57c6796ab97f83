//! Pending Interest Table.
//!
//! The PIT is what makes NDN request routing stateful: it aggregates
//! identical Interests from many consumers (one upstream transmission serves
//! them all — the `ablate_aggregation` experiment measures this) and routes
//! returning Data back along the reverse paths.

use crate::face::FaceId;
use crate::fxhash::FxHashMap;
use crate::name::Name;
use crate::packet::Interest;
use lidc_simcore::time::{SimDuration, SimTime};

/// PIT entries are keyed on the Interest name plus the selectors that change
/// matching semantics (mirrors NFD, which keys on the whole Interest minus
/// the nonce).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PitKey {
    /// Interest name.
    pub name: Name,
    /// CanBePrefix selector.
    pub can_be_prefix: bool,
    /// MustBeFresh selector.
    pub must_be_fresh: bool,
}

impl PitKey {
    /// Key for an Interest.
    pub fn of(interest: &Interest) -> Self {
        PitKey {
            name: interest.name.clone(),
            can_be_prefix: interest.can_be_prefix,
            must_be_fresh: interest.must_be_fresh,
        }
    }
}

/// A downstream (requester) record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InRecord {
    /// Face the Interest arrived on.
    pub face: FaceId,
    /// Its nonce (for loop suppression on the return path).
    pub nonce: Option<u32>,
    /// When this record lapses.
    pub expiry: SimTime,
}

/// An upstream (forwarded-to) record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutRecord {
    /// Face the Interest was sent out of.
    pub face: FaceId,
    /// When it was sent (for RTT measurement).
    pub sent_at: SimTime,
    /// Nonce used upstream.
    pub nonce: Option<u32>,
}

/// Marker for "this entry is not in `prefix_keys`".
const NO_PREFIX_IDX: usize = usize::MAX;

/// One pending Interest.
#[derive(Debug, Clone)]
pub struct PitEntry {
    /// The representative Interest (first to create the entry). Its name
    /// and selectors are the entry's key — see [`PitEntry::key`].
    pub interest: Interest,
    /// Downstream records.
    pub in_records: Vec<InRecord>,
    /// Upstream records.
    pub out_records: Vec<OutRecord>,
    /// Entry expiry = max over in-record expiries.
    pub expiry: SimTime,
    /// Version stamp: incremented on every refresh so stale expiry timers
    /// can be recognised and ignored.
    pub version: u64,
    /// This entry's position in the PIT's `prefix_keys` list
    /// ([`NO_PREFIX_IDX`] for exact-match entries), maintained via
    /// `swap_remove` fix-up so removal is O(1) instead of an O(n) scan.
    prefix_idx: usize,
}

impl PitEntry {
    /// True if `face` already has an in-record with the same nonce (i.e.
    /// this arrival is a duplicate rather than a retransmission).
    pub fn is_duplicate_from(&self, face: FaceId, nonce: Option<u32>) -> bool {
        self.in_records
            .iter()
            .any(|r| r.face == face && r.nonce == nonce && nonce.is_some())
    }

    /// Downstream faces to return Data to (excluding `except`, typically the
    /// face the Data arrived on).
    pub fn return_faces(&self, except: FaceId) -> Vec<FaceId> {
        let mut faces: Vec<FaceId> = self
            .in_records
            .iter()
            .map(|r| r.face)
            .filter(|f| *f != except)
            .collect();
        faces.sort_unstable();
        faces.dedup();
        faces
    }

    /// The out-record for `face`, if any.
    pub fn out_record(&self, face: FaceId) -> Option<&OutRecord> {
        self.out_records.iter().find(|r| r.face == face)
    }

    /// This entry's key (constructed on demand; an O(1) name clone).
    pub fn key(&self) -> PitKey {
        PitKey::of(&self.interest)
    }
}

/// Outcome of inserting an Interest.
#[derive(Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A new entry was created: the Interest should be forwarded.
    New,
    /// Aggregated into an existing entry that already has an outstanding
    /// upstream transmission: do not forward again.
    Aggregated,
    /// Same downstream retransmitted (same face, new nonce): the strategy
    /// may choose to try another upstream.
    Retransmission,
    /// Exact duplicate (same face, same nonce): drop / NACK as a loop.
    DuplicateNonce,
}

/// The Pending Interest Table.
///
/// Data matching is split by selector: exact-name entries are found with
/// two O(1) map probes (cheap `Name` clones — refcount bumps, no heap
/// allocation), and only the usually-tiny population of `CanBePrefix`
/// entries is scanned.
#[derive(Debug, Default)]
pub struct Pit {
    entries: FxHashMap<PitKey, PitEntry>,
    /// Keys of entries with `can_be_prefix` set — the only ones that need a
    /// scan on Data arrival. Kept in sync by insert/take/expire.
    prefix_keys: Vec<PitKey>,
}

impl Pit {
    /// Empty PIT.
    pub fn new() -> Self {
        Pit::default()
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record the arrival of `interest` on `face` at `now`.
    ///
    /// Returns the outcome plus the entry's new version (for scheduling the
    /// expiry timer).
    pub fn insert(
        &mut self,
        interest: &Interest,
        face: FaceId,
        now: SimTime,
    ) -> (InsertOutcome, u64) {
        let key = PitKey::of(interest);
        let expiry = now + interest.lifetime;
        // Entry API: the probe key is moved into the map on the New path,
        // so insertion costs exactly one key construction.
        match self.entries.entry(key) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                let prefix_idx = if interest.can_be_prefix {
                    self.prefix_keys.push(slot.key().clone());
                    self.prefix_keys.len() - 1
                } else {
                    NO_PREFIX_IDX
                };
                slot.insert(PitEntry {
                    interest: interest.clone(),
                    in_records: vec![InRecord {
                        face,
                        nonce: interest.nonce,
                        expiry,
                    }],
                    out_records: Vec::new(),
                    expiry,
                    version: 0,
                    prefix_idx,
                });
                (InsertOutcome::New, 0)
            }
            std::collections::hash_map::Entry::Occupied(slot) => {
                let entry = slot.into_mut();
                if entry.is_duplicate_from(face, interest.nonce) {
                    return (InsertOutcome::DuplicateNonce, entry.version);
                }
                let from_same_face = entry.in_records.iter().any(|r| r.face == face);
                match entry.in_records.iter_mut().find(|r| r.face == face) {
                    Some(rec) => {
                        rec.nonce = interest.nonce;
                        rec.expiry = expiry;
                    }
                    None => entry.in_records.push(InRecord {
                        face,
                        nonce: interest.nonce,
                        expiry,
                    }),
                }
                entry.expiry = entry.expiry.max(expiry);
                entry.version += 1;
                if from_same_face {
                    (InsertOutcome::Retransmission, entry.version)
                } else {
                    (InsertOutcome::Aggregated, entry.version)
                }
            }
        }
    }

    /// Record that the Interest was forwarded out `face`.
    pub fn add_out_record(&mut self, key: &PitKey, face: FaceId, nonce: Option<u32>, now: SimTime) {
        if let Some(entry) = self.entries.get_mut(key) {
            match entry.out_records.iter_mut().find(|r| r.face == face) {
                Some(rec) => {
                    rec.sent_at = now;
                    rec.nonce = nonce;
                }
                None => entry.out_records.push(OutRecord {
                    face,
                    sent_at: now,
                    nonce,
                }),
            }
        }
    }

    /// Find the entry a Data packet satisfies. NDN matching: the Data name
    /// must equal the Interest name, or extend it when CanBePrefix is set.
    /// When several entries match, all are returned (e.g. a prefix Interest
    /// and an exact Interest for the same object).
    pub fn match_data(&self, data_name: &Name) -> Vec<PitKey> {
        let mut keys = Vec::new();
        self.match_data_into(data_name, &mut keys);
        keys
    }

    /// [`Pit::match_data`] into a caller-owned buffer (cleared first), so a
    /// steady-state forwarder reuses one allocation across all Data
    /// arrivals. Exact entries cost two hash probes (the key holds an O(1)
    /// `Name` clone); only `CanBePrefix` entries are scanned.
    pub fn match_data_into(&self, data_name: &Name, out: &mut Vec<PitKey>) {
        out.clear();
        // One probe key serves both selector variants (flip the bool
        // between probes) — a single O(1) Name clone for the common case.
        let mut probe = PitKey {
            name: data_name.clone(),
            can_be_prefix: false,
            must_be_fresh: false,
        };
        let hit_plain = self.entries.contains_key(&probe);
        probe.must_be_fresh = true;
        let hit_fresh = self.entries.contains_key(&probe);
        if hit_plain && hit_fresh {
            let mut plain = probe.clone();
            plain.must_be_fresh = false;
            out.push(plain);
            out.push(probe);
        } else if hit_plain {
            probe.must_be_fresh = false;
            out.push(probe);
        } else if hit_fresh {
            out.push(probe);
        }
        for key in &self.prefix_keys {
            if key.name.is_prefix_of(data_name) {
                out.push(key.clone());
            }
        }
        sort_match_keys(out);
    }

    /// Look up an entry.
    pub fn get(&self, key: &PitKey) -> Option<&PitEntry> {
        self.entries.get(key)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &PitKey) -> Option<&mut PitEntry> {
        self.entries.get_mut(key)
    }

    /// Remove and return an entry (when satisfied by Data or fully NACKed).
    pub fn take(&mut self, key: &PitKey) -> Option<PitEntry> {
        let entry = self.entries.remove(key)?;
        self.forget_prefix_key(&entry);
        Some(entry)
    }

    /// Expire the entry if `version` is still current and its expiry has
    /// passed. Returns the entry when it was expired.
    pub fn expire_if_stale(&mut self, key: &PitKey, version: u64, now: SimTime) -> Option<PitEntry> {
        let entry = self.entries.get(key)?;
        if entry.version != version || entry.expiry > now {
            return None;
        }
        let entry = self.entries.remove(key)?;
        self.forget_prefix_key(&entry);
        Some(entry)
    }

    /// Drop the removed entry's `prefix_keys` slot in O(1): `swap_remove`
    /// at its recorded index, then repoint the entry whose key was swapped
    /// into that index. (The old implementation `position()`-scanned the
    /// whole list per removal, turning Data arrival handling quadratic
    /// under prefix-heavy workloads.)
    fn forget_prefix_key(&mut self, removed: &PitEntry) {
        let idx = removed.prefix_idx;
        if idx == NO_PREFIX_IDX {
            return;
        }
        debug_assert!(removed.interest.can_be_prefix);
        self.prefix_keys.swap_remove(idx);
        if let Some(moved_key) = self.prefix_keys.get(idx) {
            // O(1) Name clone; the moved entry must still exist.
            let moved_key = moved_key.clone();
            if let Some(entry) = self.entries.get_mut(&moved_key) {
                entry.prefix_idx = idx;
            } else {
                debug_assert!(false, "prefix_keys points at a live entry");
            }
        }
    }

    /// Check the `prefix_keys` ↔ entry index invariant (test support).
    #[doc(hidden)]
    pub fn debug_check_prefix_invariant(&self) -> Result<(), String> {
        let prefix_entries = self
            .entries
            .values()
            .filter(|e| e.interest.can_be_prefix)
            .count();
        if prefix_entries != self.prefix_keys.len() {
            return Err(format!(
                "{} CanBePrefix entries but {} prefix keys",
                prefix_entries,
                self.prefix_keys.len()
            ));
        }
        for (i, key) in self.prefix_keys.iter().enumerate() {
            match self.entries.get(key) {
                None => return Err(format!("prefix_keys[{i}] has no entry: {key:?}")),
                Some(entry) if entry.prefix_idx != i => {
                    return Err(format!(
                        "prefix_keys[{i}] entry records index {}",
                        entry.prefix_idx
                    ));
                }
                Some(_) => {}
            }
        }
        if self
            .entries
            .values()
            .any(|e| !e.interest.can_be_prefix && e.prefix_idx != NO_PREFIX_IDX)
        {
            return Err("exact entry carries a prefix index".to_owned());
        }
        Ok(())
    }

    /// The time until `key`'s entry expires (for scheduling).
    pub fn time_to_expiry(&self, key: &PitKey, now: SimTime) -> Option<SimDuration> {
        self.entries.get(key).map(|e| e.expiry.since(now))
    }

    /// Iterate entry keys in unspecified order (diagnostics/tests).
    pub fn keys(&self) -> impl Iterator<Item = &PitKey> {
        // lidc-lint: allow(unordered-iter) reason="order-unspecified accessor by contract; behaviour-affecting consumers must sort (the face-down sweep collects and sorts canonically)"
        self.entries.keys()
    }
}

/// The deterministic ordering of data-match results: by name, exact
/// matches before prefix matches, plain before MustBeFresh.
fn sort_match_keys(out: &mut [PitKey]) {
    out.sort_by(|a, b| {
        a.name
            .cmp(&b.name)
            .then(a.can_be_prefix.cmp(&b.can_be_prefix))
            .then(a.must_be_fresh.cmp(&b.must_be_fresh))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(id: u64) -> FaceId {
        FaceId::from_raw(id)
    }

    fn interest(uri: &str, nonce: u32) -> Interest {
        Interest::new(name!(uri)).with_nonce(nonce)
    }

    #[test]
    fn first_arrival_is_new() {
        let mut pit = Pit::new();
        let i = interest("/a/b", 1);
        let (outcome, _) = pit.insert(&i, f(1), SimTime::ZERO);
        assert_eq!(outcome, InsertOutcome::New);
        assert_eq!(pit.len(), 1);
    }

    #[test]
    fn second_consumer_aggregates() {
        let mut pit = Pit::new();
        let now = SimTime::ZERO;
        pit.insert(&interest("/a/b", 1), f(1), now);
        let (outcome, _) = pit.insert(&interest("/a/b", 2), f(2), now);
        assert_eq!(outcome, InsertOutcome::Aggregated);
        assert_eq!(pit.len(), 1, "one entry for both consumers");
        let key = PitKey::of(&interest("/a/b", 1));
        assert_eq!(pit.get(&key).unwrap().in_records.len(), 2);
    }

    #[test]
    fn same_face_new_nonce_is_retransmission() {
        let mut pit = Pit::new();
        pit.insert(&interest("/a", 1), f(1), SimTime::ZERO);
        let (outcome, _) = pit.insert(&interest("/a", 99), f(1), SimTime::ZERO);
        assert_eq!(outcome, InsertOutcome::Retransmission);
    }

    #[test]
    fn same_face_same_nonce_is_duplicate() {
        let mut pit = Pit::new();
        pit.insert(&interest("/a", 7), f(1), SimTime::ZERO);
        let (outcome, _) = pit.insert(&interest("/a", 7), f(1), SimTime::ZERO);
        assert_eq!(outcome, InsertOutcome::DuplicateNonce);
    }

    #[test]
    fn selectors_separate_entries() {
        let mut pit = Pit::new();
        let exact = interest("/a", 1);
        let prefix = interest("/a", 2).can_be_prefix(true);
        pit.insert(&exact, f(1), SimTime::ZERO);
        pit.insert(&prefix, f(1), SimTime::ZERO);
        assert_eq!(pit.len(), 2, "different selectors, different entries");
    }

    #[test]
    fn data_matching_exact_and_prefix() {
        let mut pit = Pit::new();
        pit.insert(&interest("/a/b", 1), f(1), SimTime::ZERO);
        pit.insert(&interest("/a", 2).can_be_prefix(true), f(2), SimTime::ZERO);
        pit.insert(&interest("/a", 3), f(3), SimTime::ZERO); // exact /a
        let matched = pit.match_data(&name!("/a/b"));
        assert_eq!(matched.len(), 2, "exact /a/b and prefix /a match");
        assert!(matched.iter().any(|k| k.name == name!("/a/b") && !k.can_be_prefix));
        assert!(matched.iter().any(|k| k.name == name!("/a") && k.can_be_prefix));
        let matched = pit.match_data(&name!("/a"));
        assert_eq!(matched.len(), 2, "exact /a and prefix /a");
    }

    #[test]
    fn return_faces_excludes_arrival_face() {
        let mut pit = Pit::new();
        pit.insert(&interest("/a", 1), f(1), SimTime::ZERO);
        pit.insert(&interest("/a", 2), f(2), SimTime::ZERO);
        let key = PitKey::of(&interest("/a", 1));
        let entry = pit.get(&key).unwrap();
        assert_eq!(entry.return_faces(f(2)), vec![f(1)]);
        assert_eq!(entry.return_faces(f(9)), vec![f(1), f(2)]);
    }

    #[test]
    fn out_records_updated_not_duplicated() {
        let mut pit = Pit::new();
        let i = interest("/a", 1);
        pit.insert(&i, f(1), SimTime::ZERO);
        let key = PitKey::of(&i);
        pit.add_out_record(&key, f(5), Some(1), SimTime::ZERO);
        pit.add_out_record(&key, f(5), Some(2), SimTime::ZERO + SimDuration::from_secs(1));
        let entry = pit.get(&key).unwrap();
        assert_eq!(entry.out_records.len(), 1);
        assert_eq!(entry.out_records[0].nonce, Some(2));
        assert!(entry.out_record(f(5)).is_some());
        assert!(entry.out_record(f(6)).is_none());
    }

    #[test]
    fn expiry_respects_version() {
        let mut pit = Pit::new();
        let i = interest("/a", 1);
        let (_, v0) = pit.insert(&i, f(1), SimTime::ZERO);
        let key = PitKey::of(&i);
        let t_exp = SimTime::ZERO + i.lifetime;
        // A refresh bumps the version; the old timer must not fire.
        let (_, v1) = pit.insert(&interest("/a", 2), f(2), SimTime::ZERO + SimDuration::from_secs(1));
        assert_ne!(v0, v1);
        assert!(pit.expire_if_stale(&key, v0, t_exp).is_none(), "stale timer ignored");
        // Current-version timer before expiry: also ignored.
        assert!(pit.expire_if_stale(&key, v1, SimTime::ZERO).is_none());
        // Current-version timer at/after expiry: entry removed.
        let t_exp2 = SimTime::ZERO + SimDuration::from_secs(1) + i.lifetime;
        assert!(pit.expire_if_stale(&key, v1, t_exp2).is_some());
        assert!(pit.is_empty());
    }

    #[test]
    fn prefix_index_invariant_across_churn() {
        // Interleave inserts (mixed selectors), takes, and expiries and
        // assert the prefix_keys ↔ entry index bookkeeping stays exact —
        // the swap_remove fix-up must repoint the moved key every time.
        use lidc_simcore::rng::DetRng;
        let mut rng = DetRng::new(11);
        let mut pit = Pit::new();
        let mut step_time = SimTime::ZERO;
        for step in 0..2000u64 {
            let id = rng.next_below(24);
            let prefixy = rng.next_bool(0.5);
            let uri = format!("/churn/{id}");
            let i = Interest::new(Name::parse(&uri).unwrap())
                .with_nonce(step as u32)
                .can_be_prefix(prefixy);
            let key = PitKey::of(&i);
            match rng.next_below(4) {
                0 | 1 => {
                    let (_, _) = pit.insert(&i, f(rng.next_below(4)), step_time);
                }
                2 => {
                    let _ = pit.take(&key);
                }
                _ => {
                    // Expire with the entry's current version (if present);
                    // far-future `now` guarantees the expiry has passed.
                    if let Some(version) = pit.get(&key).map(|e| e.version) {
                        let far = step_time + SimDuration::from_secs(3600);
                        let _ = pit.expire_if_stale(&key, version, far);
                    }
                }
            }
            // Matching must agree with the invariant at every step.
            pit.debug_check_prefix_invariant()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            if step % 7 == 0 {
                step_time += SimDuration::from_millis(250);
            }
        }
        // Drain everything through take and re-check.
        let keys: Vec<PitKey> = pit.entries.keys().cloned().collect();
        for key in keys {
            pit.take(&key);
            pit.debug_check_prefix_invariant().unwrap();
        }
        assert!(pit.is_empty());
        assert!(pit.prefix_keys.is_empty());
    }

    #[test]
    fn take_removes() {
        let mut pit = Pit::new();
        let i = interest("/a", 1);
        pit.insert(&i, f(1), SimTime::ZERO);
        let key = PitKey::of(&i);
        assert!(pit.take(&key).is_some());
        assert!(pit.take(&key).is_none());
    }
}
