//! Property-based tests for the NDN substrate (DESIGN.md §7): codec
//! round-trips, FIB longest-prefix-match against a naive reference, PIT
//! aggregation invariants, and Content-Store capacity/LRU invariants.

use bytes::Bytes;
use lidc_ndn::crypto::{hmac_sha256, sha256};
use lidc_ndn::face::FaceId;
use lidc_ndn::name::{Name, NameComponent};
use lidc_ndn::packet::{ContentType, Data, Interest};
use lidc_ndn::tables::cs::ContentStore;
use lidc_ndn::tables::fib::Fib;
use lidc_ndn::tables::pit::{InsertOutcome, Pit};
use lidc_ndn::tlv::{types, TlvReader};
use lidc_simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;

// --- generators -----------------------------------------------------------

/// Generic-component text that survives the URI round trip unambiguously
/// (no `=`; never all-periods; nonempty).
fn component_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9_][a-zA-Z0-9._~+,-]{0,15}").unwrap()
}

prop_compose! {
    fn arb_component()(
        kind in 0u8..4,
        text in component_text(),
        n in proptest::num::u64::ANY,
        digest in proptest::array::uniform32(proptest::num::u8::ANY),
    ) -> NameComponent {
        match kind {
            0 => NameComponent::from_str_generic(&text),
            1 => NameComponent::segment(n),
            2 => NameComponent::version(n),
            _ => NameComponent::implicit_digest(digest),
        }
    }
}

prop_compose! {
    fn arb_name()(components in proptest::collection::vec(arb_component(), 0..8)) -> Name {
        let mut name = Name::root();
        for c in components {
            name = name.child(c);
        }
        name
    }
}

prop_compose! {
    fn arb_text_name()(parts in proptest::collection::vec(component_text(), 1..6)) -> Name {
        let mut name = Name::root();
        for p in parts {
            name = name.child_str(&p);
        }
        name
    }
}

// --- name properties -------------------------------------------------------

proptest! {
    #[test]
    fn name_uri_round_trip(name in arb_name()) {
        let uri = name.to_uri();
        let parsed = Name::parse(&uri).unwrap();
        prop_assert_eq!(parsed, name);
    }

    #[test]
    fn prefix_relation_is_reflexive_and_preserved_by_join(
        a in arb_name(),
        b in arb_name(),
    ) {
        prop_assert!(a.is_prefix_of(&a));
        let joined = a.join(&b);
        prop_assert!(a.is_prefix_of(&joined));
        prop_assert_eq!(joined.len(), a.len() + b.len());
        prop_assert_eq!(joined.prefix(a.len()), a.clone());
        // parent() strips exactly one component.
        if !joined.is_empty() {
            prop_assert_eq!(joined.parent().len(), joined.len() - 1);
        }
    }

    #[test]
    fn prefix_of_is_antisymmetric_up_to_equality(a in arb_name(), b in arb_name()) {
        if a.is_prefix_of(&b) && b.is_prefix_of(&a) {
            prop_assert_eq!(a, b);
        }
    }
}

// --- packet codec properties ------------------------------------------------

/// Content that is empty a third of the time.
fn arb_content(max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        proptest::collection::vec(any::<u8>(), 1..max),
        proptest::collection::vec(any::<u8>(), 1..max),
    ]
}

/// The signed portion as it sits on the wire: the Data body from the Name
/// TLV up to, not including, the SignatureValue TLV. The reference for the
/// bytes `sign_*` and `verify` stream into the hasher.
fn signed_portion_on_wire(wire: &[u8]) -> &[u8] {
    let body = TlvReader::new(wire).read_expected(types::DATA).unwrap();
    let mut r = TlvReader::new(body);
    loop {
        let end = body.len() - r.remaining();
        let (typ, _) = r.read_tlv().unwrap();
        if typ == types::SIGNATURE_VALUE {
            return &body[..end];
        }
    }
}

proptest! {
    #[test]
    fn interest_wire_round_trip(
        name in arb_name(),
        can_be_prefix in any::<bool>(),
        must_be_fresh in any::<bool>(),
        nonce in any::<Option<u32>>(),
        lifetime_ms in 1u64..120_000,
        params in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut interest = Interest::new(name)
            .can_be_prefix(can_be_prefix)
            .must_be_fresh(must_be_fresh)
            .with_lifetime(SimDuration::from_millis(lifetime_ms))
            .with_app_params(Bytes::from(params));
        interest.nonce = nonce;
        let wire = interest.encode();
        prop_assert_eq!(wire.len(), interest.encoded_size());
        let decoded = Interest::decode(&wire).unwrap();
        prop_assert_eq!(decoded, interest);
    }

    #[test]
    fn data_wire_round_trip_and_signature(
        name in arb_name(),
        content in arb_content(256),
        freshness_ms in 0u64..600_000,
        with_meta in any::<bool>(),
        kind in 0u8..3,
    ) {
        let content_type = match kind {
            0 => ContentType::Blob,
            1 => ContentType::Link,
            _ => ContentType::Nack,
        };
        // Blob without freshness leaves MetaInfo out entirely.
        let mut data = Data::new(name, content).with_content_type(content_type);
        if with_meta {
            data = data.with_freshness(SimDuration::from_millis(freshness_ms));
        }
        let data = data.sign_digest();
        let wire = data.encode();
        prop_assert_eq!(wire.len(), data.encoded_size());
        let digest = sha256(signed_portion_on_wire(&wire));
        prop_assert_eq!(data.signature.value.as_ref(), &digest[..]);
        prop_assert!(data.verify(None), "digest signature verifies");
        let decoded = Data::decode(&wire).unwrap();
        prop_assert!(decoded.verify(None), "digest signature verifies");
        prop_assert_eq!(decoded, data);
    }

    #[test]
    fn data_tamper_detected(
        name in arb_text_name(),
        content in proptest::collection::vec(any::<u8>(), 1..128),
        flip in any::<u8>(),
    ) {
        let data = Data::new(name, content.clone()).sign_digest();
        let mut tampered = data.clone();
        let idx = (flip as usize) % content.len();
        let mut bytes = content;
        bytes[idx] ^= 0x01;
        tampered.content = Bytes::from(bytes);
        prop_assert!(data.verify(None));
        prop_assert!(!tampered.verify(None), "bit flip must break the digest");
    }

    #[test]
    fn hmac_signature_requires_right_key(
        name in arb_text_name(),
        content in arb_content(64),
        freshness_ms in 0u64..600_000,
        with_meta in any::<bool>(),
        key in proptest::collection::vec(any::<u8>(), 1..100),
        other_key in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let mut data = Data::new(name, content);
        if with_meta {
            data = data.with_freshness(SimDuration::from_millis(freshness_ms));
        }
        // The KeyLocator names the key inside the signed portion.
        let data = data.sign_hmac(Name::parse("/keys/k1").unwrap(), &key);
        let mac = hmac_sha256(&key, signed_portion_on_wire(&data.encode()));
        prop_assert_eq!(data.signature.value.as_ref(), &mac[..]);
        prop_assert!(data.verify(Some(&key)));
        if other_key != key {
            prop_assert!(!data.verify(Some(&other_key)));
        }
    }
}

// --- decoding hostile input -------------------------------------------------

/// Walk every TLV element of `input`, descending into element values a few
/// levels deep, stopping at the first decode error.
fn tlv_walk(input: &[u8], depth: u32) {
    let mut r = TlvReader::new(input);
    while !r.is_empty() {
        match r.read_tlv() {
            Ok((_, value)) if depth < 4 => tlv_walk(value, depth + 1),
            Ok(_) => {}
            Err(_) => break,
        }
    }
}

/// Feed `wire` to every decoder; each call must return (Ok or Err) rather
/// than panic.
fn decode_everything(wire: &[u8]) {
    let bytes = Bytes::copy_from_slice(wire);
    let _ = Interest::decode(&bytes);
    let _ = Data::decode(&bytes);
    tlv_walk(wire, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Decoding never panics: not on arbitrary short byte strings, and not
    /// on a valid Interest or Data encoding with one byte overwritten.
    #[test]
    fn decode_never_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..=64),
        name in arb_text_name(),
        content in proptest::collection::vec(any::<u8>(), 0..16),
        offset in any::<u32>(),
        byte in any::<u8>(),
    ) {
        decode_everything(&garbage);
        let mut interest = Interest::new(name.clone())
            .can_be_prefix(true)
            .must_be_fresh(true)
            .with_nonce(7)
            .with_app_params(Bytes::from(content.clone()));
        interest.hop_limit = Some(9);
        let data = Data::new(name, content)
            .with_freshness(SimDuration::from_secs(10))
            .with_final_block_id(NameComponent::segment(3))
            .sign_hmac(Name::parse("/keys/k1").unwrap(), b"key");
        for wire in [interest.encode(), data.encode()] {
            let mut wire = wire.to_vec();
            let at = offset as usize % wire.len();
            wire[at] = byte;
            decode_everything(&wire);
        }
    }
}

// --- FIB: longest-prefix match vs naive reference ---------------------------

proptest! {
    #[test]
    fn fib_lpm_matches_naive_reference(
        routes in proptest::collection::vec((arb_text_name(), 0u64..8, 0u32..100), 1..40),
        lookup in arb_text_name(),
        extra in component_text(),
    ) {
        let mut fib = Fib::new();
        let mut table: Vec<(Name, FaceId)> = Vec::new();
        for (prefix, face, cost) in &routes {
            let face = FaceId::from_raw(*face);
            fib.add_nexthop(prefix.clone(), face, *cost);
            table.push((prefix.clone(), face));
        }
        // Look up both an arbitrary name and a guaranteed-matching child.
        let child = routes[0].0.clone().child_str(&extra);
        for name in [lookup, child] {
            let expected_len = table
                .iter()
                .filter(|(p, _)| p.is_prefix_of(&name))
                .map(|(p, _)| p.len())
                .max();
            match (fib.lookup(&name), expected_len) {
                (None, None) => {}
                (Some(entry), Some(len)) => {
                    prop_assert_eq!(entry.prefix.len(), len);
                    prop_assert!(entry.prefix.is_prefix_of(&name));
                    prop_assert!(!entry.nexthops.is_empty());
                    // Next hops sorted by ascending cost.
                    prop_assert!(entry
                        .nexthops
                        .windows(2)
                        .all(|w| w[0].cost <= w[1].cost));
                }
                (got, want) => {
                    return Err(TestCaseError::fail(format!(
                        "lpm mismatch for {}: fib={:?} naive={:?}",
                        name.to_uri(),
                        got.map(|e| e.prefix.to_uri()),
                        want
                    )));
                }
            }
        }
    }
}

// --- PIT aggregation invariants ---------------------------------------------

proptest! {
    #[test]
    fn pit_aggregates_distinct_faces_once(
        name in arb_text_name(),
        faces in proptest::collection::btree_set(0u64..32, 1..10),
    ) {
        let mut pit = Pit::new();
        let now = SimTime::ZERO;
        let faces: Vec<FaceId> = faces.into_iter().map(FaceId::from_raw).collect();
        for (i, face) in faces.iter().enumerate() {
            let interest = Interest::new(name.clone()).with_nonce(i as u32 + 1);
            let (outcome, _) = pit.insert(&interest, *face, now);
            if i == 0 {
                prop_assert_eq!(outcome, InsertOutcome::New);
            } else {
                prop_assert_eq!(outcome, InsertOutcome::Aggregated);
            }
        }
        prop_assert_eq!(pit.len(), 1, "one entry regardless of fan-in");
        let keys = pit.match_data(&name);
        prop_assert_eq!(keys.len(), 1);
        let entry = pit.get(&keys[0]).unwrap();
        // Data returns to every downstream except the one it came from.
        let back = entry.return_faces(faces[0]);
        prop_assert_eq!(back.len(), faces.len() - 1);
        prop_assert!(!back.contains(&faces[0]));
    }

    #[test]
    fn pit_duplicate_nonce_detected(
        name in arb_text_name(),
        face in 0u64..8,
        nonce in any::<u32>(),
    ) {
        let mut pit = Pit::new();
        let now = SimTime::ZERO;
        let face = FaceId::from_raw(face);
        let interest = Interest::new(name.clone()).with_nonce(nonce);
        let (first, _) = pit.insert(&interest, face, now);
        prop_assert_eq!(first, InsertOutcome::New);
        let (dup, _) = pit.insert(&interest, face, now);
        prop_assert_eq!(dup, InsertOutcome::DuplicateNonce);
        // A new nonce from the same face is a retransmission, not a loop.
        let retx = Interest::new(name).with_nonce(nonce.wrapping_add(1));
        let (again, _) = pit.insert(&retx, face, now);
        prop_assert_eq!(again, InsertOutcome::Retransmission);
    }
}

// --- Content Store invariants -------------------------------------------------

proptest! {
    #[test]
    fn cs_never_exceeds_capacity_and_serves_exact_bytes(
        capacity in 1usize..32,
        inserts in proptest::collection::vec(
            (component_text(), proptest::collection::vec(any::<u8>(), 0..32)),
            1..64,
        ),
    ) {
        let mut cs = ContentStore::new(capacity);
        let now = SimTime::ZERO;
        let mut last: Option<(Name, Vec<u8>)> = None;
        for (suffix, content) in inserts {
            let name = Name::parse("/data").unwrap().child_str(&suffix);
            let data = Data::new(name.clone(), content.clone()).sign_digest();
            cs.insert(data, now);
            prop_assert!(cs.len() <= capacity, "len {} > capacity {}", cs.len(), capacity);
            last = Some((name, content));
        }
        // The most recently inserted entry must still be resident (LRU).
        let (name, content) = last.unwrap();
        let got = cs.lookup(&Interest::new(name), now).expect("MRU entry resident");
        prop_assert_eq!(got.content.as_ref(), content.as_slice());
    }

    /// Byte-budget invariants: after ANY insert/lookup sequence (lookups
    /// evict observed-stale records, inserts evict LRU by count, class
    /// share, and total budget), the store never exceeds `budget_bytes`,
    /// and `bytes_used` equals the payload+name cost summed over exactly
    /// the resident entries.
    #[test]
    fn cs_bytes_used_never_exceeds_budget_and_is_exact(
        budget in 300u64..4000,
        capacity in 2usize..24,
        ops in proptest::collection::vec(
            (0u8..24, 0usize..500, any::<bool>(), any::<bool>()),
            1..120,
        ),
    ) {
        use lidc_ndn::tables::cs::CsConfig;
        let mut cs = ContentStore::with_config(CsConfig {
            capacity,
            budget_bytes: budget,
            bulk_threshold: 100,
            protected_fraction: 0.25,
        });
        let now = SimTime::ZERO;
        for (id, size, is_lookup, fresh) in ops {
            let name = Name::parse(&format!("/data/obj-{id}")).unwrap();
            if is_lookup {
                let _ = cs.lookup(&Interest::new(name).must_be_fresh(fresh), now);
            } else {
                let mut data = Data::new(name, vec![7u8; size]);
                if fresh {
                    data = data.with_freshness(SimDuration::from_secs(60));
                }
                cs.insert(data.sign_digest(), now);
            }
            prop_assert!(
                cs.bytes_used() <= budget,
                "bytes_used {} > budget {budget}",
                cs.bytes_used()
            );
            prop_assert!(cs.len() <= capacity);
            let expected: u64 = cs.entries().map(|(_, d)| ContentStore::cost_of(d)).sum();
            prop_assert_eq!(cs.bytes_used(), expected, "byte accounting drifted");
        }
    }

    /// Oversized Data (cost beyond what its class may ever hold) is
    /// refused at admission without evicting a single live entry.
    #[test]
    fn cs_oversized_data_rejected_without_flushing(
        resident in proptest::collection::vec((0u8..8, 1usize..60), 1..8),
        oversize in 2000usize..4000,
    ) {
        use lidc_ndn::tables::cs::CsConfig;
        let mut cs = ContentStore::with_config(CsConfig {
            capacity: 32,
            budget_bytes: 1000,
            bulk_threshold: 100,
            protected_fraction: 0.25,
        });
        let now = SimTime::ZERO;
        for (id, size) in resident {
            let name = Name::parse(&format!("/small/{id}")).unwrap();
            cs.insert(Data::new(name, vec![1u8; size]).sign_digest(), now);
        }
        let before: Vec<Name> = cs.names().cloned().collect();
        let bytes_before = cs.bytes_used();
        cs.insert(
            Data::new(Name::parse("/huge").unwrap(), vec![2u8; oversize]).sign_digest(),
            now,
        );
        prop_assert_eq!(cs.admission_rejections(), 1);
        prop_assert_eq!(cs.bytes_used(), bytes_before, "no bytes charged");
        let after: Vec<Name> = cs.names().cloned().collect();
        prop_assert_eq!(after, before, "resident set untouched");
        prop_assert!(cs.lookup(&Interest::new(Name::parse("/huge").unwrap()), now).is_none());
    }

    #[test]
    fn cs_must_be_fresh_respects_expiry(
        fresh_ms in 1u64..10_000,
        probe_ms in 0u64..20_000,
    ) {
        let mut cs = ContentStore::new(8);
        let name = Name::parse("/data/x").unwrap();
        let data = Data::new(name.clone(), &b"v"[..])
            .with_freshness(SimDuration::from_millis(fresh_ms))
            .sign_digest();
        cs.insert(data, SimTime::ZERO);
        let probe_at = SimTime::ZERO + SimDuration::from_millis(probe_ms);
        let fresh_hit = cs
            .lookup(&Interest::new(name.clone()).must_be_fresh(true), probe_at)
            .is_some();
        prop_assert_eq!(fresh_hit, probe_ms < fresh_ms, "freshness boundary");
        if fresh_hit {
            // Still fresh: a plain probe also hits.
            prop_assert!(cs.lookup(&Interest::new(name), probe_at).is_some());
            prop_assert_eq!(cs.stale_evictions(), 0);
        } else {
            // Observed stale: the MustBeFresh probe evicted the record, so
            // it no longer occupies capacity (stale-pinning fix) and even a
            // plain probe misses.
            prop_assert!(cs.lookup(&Interest::new(name), probe_at).is_none());
            prop_assert_eq!(cs.len(), 0);
            prop_assert_eq!(cs.stale_evictions(), 1);
        }
    }
}

// --- arena/small-name representation properties ------------------------------

proptest! {
    /// The hybrid (inline/shared) representation round-trips through URI
    /// form for arbitrary component mixes, including deep names that spill
    /// past the inline table and long values that spill past the inline
    /// buffer.
    #[test]
    fn representation_uri_round_trip(
        components in proptest::collection::vec(arb_component(), 0..12),
        long_tail in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut name = Name::from_components(components);
        if !long_tail.is_empty() {
            name = name.child(NameComponent::generic(long_tail));
        }
        let parsed = Name::parse(&name.to_uri()).unwrap();
        prop_assert_eq!(parsed, name);
    }

    /// Hash/Eq agreement between owned prefixes and borrowed component
    /// slices — the contract that makes allocation-free FIB/PIT/CS probes
    /// sound. This must hold across representations (small names, shared
    /// tables, prefix views of both).
    #[test]
    fn owned_prefix_and_borrowed_slice_agree(
        name in arb_name(),
        extra in proptest::collection::vec(arb_component(), 0..6),
    ) {
        use std::borrow::Borrow;
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut deep = name;
        for c in extra {
            deep = deep.child(c);
        }
        for k in 0..=deep.len() {
            let owned = deep.prefix(k);
            let borrowed = &deep.components()[..k];
            // Eq agreement.
            let owned_slice: &[NameComponent] = owned.borrow();
            prop_assert_eq!(owned_slice, borrowed);
            // Hash agreement.
            let mut h1 = DefaultHasher::new();
            let mut h2 = DefaultHasher::new();
            owned.hash(&mut h1);
            borrowed.hash(&mut h2);
            prop_assert_eq!(h1.finish(), h2.finish(), "hash mismatch at k={}", k);
            // The slice probes a map keyed by owned names.
            let mut map = std::collections::HashMap::new();
            map.insert(owned.clone(), k);
            prop_assert_eq!(map.get(borrowed), Some(&k));
        }
    }

    /// NDN canonical ordering is preserved by the new representation: it
    /// equals the reference component-wise comparison (type, then value
    /// length, then value bytes; shorter name first on ties), and agrees
    /// with the std lexicographic order on component slices that BTreeMap
    /// range scans rely on.
    #[test]
    fn canonical_order_matches_reference(a in arb_name(), b in arb_name()) {
        use std::cmp::Ordering;
        let reference = a
            .components()
            .iter()
            .zip(b.components())
            .map(|(x, y)| x.canonical_cmp(y))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or_else(|| a.len().cmp(&b.len()));
        prop_assert_eq!(a.cmp(&b), reference);
        prop_assert_eq!(a.components().cmp(b.components()), reference);
        // Hash/Eq consistency: equal names hash equal.
        if reference == Ordering::Equal {
            prop_assert_eq!(&a, &b);
        }
    }

    /// prefix()/parent()/push() interactions preserve value semantics even
    /// when tables are shared between clones (hidden-tail hygiene).
    #[test]
    fn prefix_views_are_isolated(
        name in arb_name(),
        cut in 0usize..12,
        tail in component_text(),
    ) {
        let original = name.clone();
        let k = cut.min(name.len());
        let mut p = name.prefix(k);
        p.push(NameComponent::from_str_generic(&tail));
        // The original is untouched by edits to the prefix view.
        prop_assert_eq!(&name, &original);
        prop_assert_eq!(p.len(), k + 1);
        prop_assert_eq!(p.parent(), original.prefix(k));
        prop_assert_eq!(p.get(k).unwrap().as_str(), Some(tail.as_str()));
    }
}

// --- FIB: borrowed prefix views and binary components -----------------------

prop_compose! {
    fn arb_binary_name()(
        comps in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..80),
            1..6,
        ),
    ) -> Name {
        let mut name = Name::root();
        for bytes in comps {
            name = name.child(NameComponent::generic(bytes));
        }
        name
    }
}

proptest! {
    /// FIB longest-prefix match over borrowed views agrees with the naive
    /// reference and with owned-prefix lookups, for arbitrary binary
    /// (non-UTF-8) components spanning the inline/shared value boundary.
    #[test]
    fn fib_lpm_borrowed_views_match_naive_on_binary_names(
        routes in proptest::collection::vec((arb_binary_name(), 0u64..8), 1..20),
        probe in arb_binary_name(),
        extra in proptest::collection::vec(any::<u8>(), 1..40),
    ) {
        let mut fib = Fib::new();
        let mut table: Vec<Name> = Vec::new();
        for (prefix, face) in &routes {
            fib.add_nexthop(prefix.clone(), FaceId::from_raw(*face), 1);
            if !table.contains(prefix) {
                table.push(prefix.clone());
            }
        }
        // Probe an arbitrary name and a guaranteed-matching child.
        let child = routes[0].0.clone().child(NameComponent::generic(extra));
        for name in [probe, child] {
            let naive: Option<&Name> = table
                .iter()
                .filter(|p| p.is_prefix_of(&name))
                .max_by_key(|p| p.len());
            let owned = fib.lookup(&name).map(|e| &e.prefix);
            let borrowed = fib.lookup_components(name.components()).map(|e| &e.prefix);
            let sliced = fib.lookup_slice(name.as_slice()).map(|e| &e.prefix);
            prop_assert_eq!(owned, naive);
            prop_assert_eq!(borrowed, naive);
            prop_assert_eq!(sliced, naive);
            // Borrowed-view lookups on truncated prefixes agree with
            // owned-prefix lookups at every depth.
            for k in 0..=name.len() {
                prop_assert_eq!(
                    fib.lookup_components(&name.components()[..k]).map(|e| &e.prefix),
                    fib.lookup(&name.prefix(k)).map(|e| &e.prefix),
                    "depth {}", k
                );
            }
        }
    }
}

// --- end-to-end integrity: signing, bit flips, cache admission --------------

proptest! {
    /// Sign → (optionally flip one seeded bit of the signed portion) →
    /// verify: verification accepts **iff** nothing was flipped, for both
    /// signature flavours. This is the exact pipeline a Data packet rides
    /// through a corrupting link (see docs/INTEGRITY.md).
    #[test]
    fn verification_accepts_iff_no_bit_flipped(
        name in arb_text_name(),
        content in proptest::collection::vec(any::<u8>(), 0..128),
        hmac in any::<bool>(),
        key in proptest::collection::vec(any::<u8>(), 1..32),
        flip in any::<Option<u64>>(),
    ) {
        let data = if hmac {
            Data::new(name, content).sign_hmac(Name::parse("/keys/k1").unwrap(), &key)
        } else {
            Data::new(name, content).sign_digest()
        };
        let mut received = data.clone();
        let flipped = match flip {
            Some(bit) => received.flip_bit(bit),
            None => false,
        };
        // Both flavours carry a 32-byte signature, so a flip always lands.
        prop_assert_eq!(flipped, flip.is_some());
        let key = if hmac { Some(&key[..]) } else { None };
        prop_assert_eq!(received.verify(key), !flipped, "verify ⇔ unflipped");
    }
}

/// How the scripted producer answers one request in the cache-admission
/// property below.
#[derive(Debug, Clone, Copy)]
enum ReplyKind {
    /// Honest: digest-signed under the requested name.
    Signed,
    /// Unsigned garbage under the requested name (byzantine producer).
    Unsigned,
    /// Digest-signed, then one seeded bit flipped (corrupting link).
    Tampered(u64),
    /// Correctly signed under a name nobody asked for (signed-wrong-name
    /// byzantine variant: verification passes, PIT matching must hold).
    WrongName,
}

prop_compose! {
    fn arb_tampered()(bit in proptest::num::u64::ANY) -> ReplyKind {
        ReplyKind::Tampered(bit)
    }
}

fn arb_reply_kind() -> impl Strategy<Value = ReplyKind> {
    prop_oneof![
        Just(ReplyKind::Signed),
        Just(ReplyKind::Unsigned),
        arb_tampered(),
        Just(ReplyKind::WrongName),
    ]
}

/// Replies to the i-th arriving Interest per `script[i]`.
struct ScriptedProducer {
    producer: Option<lidc_ndn::app::Producer>,
    script: Vec<ReplyKind>,
    served: usize,
}

impl lidc_simcore::engine::Actor for ScriptedProducer {
    fn on_message(&mut self, msg: lidc_simcore::engine::Msg, ctx: &mut lidc_simcore::engine::Ctx<'_>) {
        use lidc_ndn::packet::Packet;
        if let Ok(rx) = msg.downcast::<lidc_ndn::forwarder::AppRx>() {
            if let Packet::Interest(interest) = rx.packet {
                let kind = self.script[self.served % self.script.len()];
                self.served += 1;
                let honest = Data::new(interest.name.clone(), &b"payload"[..])
                    .with_freshness(SimDuration::from_secs(60));
                let reply = match kind {
                    ReplyKind::Signed => honest.sign_digest(),
                    ReplyKind::Unsigned => honest,
                    ReplyKind::Tampered(bit) => {
                        let mut d = honest.sign_digest();
                        d.flip_bit(bit);
                        d
                    }
                    ReplyKind::WrongName => {
                        Data::new(interest.name.child_str("wrong"), &b"payload"[..])
                            .with_freshness(SimDuration::from_secs(60))
                            .sign_digest()
                    }
                };
                self.producer.unwrap().reply(ctx, reply);
            }
        }
    }
}

/// Fires one Interest per scripted reply, 1 ms apart.
struct ScriptedConsumer {
    consumer: Option<lidc_ndn::app::Consumer>,
}
struct Express(Interest);

impl lidc_simcore::engine::Actor for ScriptedConsumer {
    fn on_message(&mut self, msg: lidc_simcore::engine::Msg, ctx: &mut lidc_simcore::engine::Ctx<'_>) {
        let msg = match msg.downcast::<Express>() {
            Ok(e) => {
                self.consumer.as_mut().unwrap().express(ctx, e.0, 0);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<lidc_ndn::forwarder::AppRx>() {
            Ok(rx) => {
                self.consumer.as_mut().unwrap().on_app_rx(&rx);
                return;
            }
            Err(m) => m,
        };
        if let Ok(t) = msg.downcast::<lidc_ndn::app::RetxTimer>() {
            self.consumer.as_mut().unwrap().on_timer(ctx, &t);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cache-admission safety: for **any** sequence of producer behaviours
    /// — honest, unsigned, bit-flipped, or signed-under-the-wrong-name —
    /// the forwarder's Content Store ends up holding exactly the honest
    /// replies and nothing that fails verification. The two broken
    /// flavours are counted at the verification gate; the wrong-name
    /// flavour verifies but dies at PIT matching.
    #[test]
    fn no_reply_sequence_admits_unverifiable_data_into_the_cs(
        script in proptest::collection::vec(arb_reply_kind(), 1..24),
        seed in any::<u64>(),
    ) {
        use lidc_ndn::app::{Consumer, Producer};
        use lidc_ndn::face::FaceIdAlloc;
        use lidc_ndn::forwarder::{Forwarder, ForwarderConfig};
        use lidc_ndn::net::attach_app;
        use lidc_simcore::engine::Sim;

        let mut sim = Sim::new(seed);
        let alloc = FaceIdAlloc::new();
        let fwd = sim.spawn("fwd", Forwarder::new("fwd", ForwarderConfig::default()));
        let producer = sim.spawn("producer", ScriptedProducer {
            producer: None,
            script: script.clone(),
            served: 0,
        });
        let pface = attach_app(&mut sim, fwd, producer, &alloc);
        sim.actor_mut::<ScriptedProducer>(producer).unwrap().producer =
            Some(Producer::new(fwd, pface));
        let prefix = Name::parse("/lab").unwrap();
        sim.actor_mut::<Forwarder>(fwd)
            .unwrap()
            .register_prefix(prefix.clone(), pface, 0);
        let consumer = sim.spawn("consumer", ScriptedConsumer { consumer: None });
        let cface = attach_app(&mut sim, fwd, consumer, &alloc);
        sim.actor_mut::<ScriptedConsumer>(consumer).unwrap().consumer =
            Some(Consumer::new(fwd, cface));
        for (i, _) in script.iter().enumerate() {
            let interest = Interest::new(prefix.clone().child_str(&format!("obj{i}")))
                .with_lifetime(SimDuration::from_millis(500));
            sim.send_after(SimDuration::from_millis(i as u64), consumer, Express(interest));
        }
        sim.run();

        let signed = script.iter().filter(|k| matches!(k, ReplyKind::Signed)).count();
        let broken = script
            .iter()
            .filter(|k| matches!(k, ReplyKind::Unsigned | ReplyKind::Tampered(_)))
            .count();
        let fwd = sim.actor::<Forwarder>(fwd).unwrap();
        let mut cached = 0usize;
        for (name, data) in fwd.cs().entries() {
            prop_assert!(data.verify(None), "unverifiable Data cached: {name}");
            cached += 1;
        }
        prop_assert_eq!(cached, signed, "exactly the honest replies were cached");
        prop_assert_eq!(
            sim.metrics_ref().counter("ndn.verify_failed"),
            broken as u64,
            "every broken reply was refused at the verification gate"
        );
        prop_assert_eq!(
            sim.metrics_ref().counter("ndn.cs_poison_rejected"),
            broken as u64,
            "every broken reply would have satisfied a PIT entry"
        );
    }
}
