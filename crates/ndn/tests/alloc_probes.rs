//! Allocation accounting for the forwarder's hot probes.
//!
//! The PR's acceptance contract: FIB longest-prefix match, PIT data
//! matching (into a reused buffer), and Content Store lookups perform
//! **zero heap allocations per probe** on the borrowed-view path. A
//! counting global allocator measures exactly that. The counter also
//! covers the supporting cast: `Name::parse` of small names, wire decode
//! of small packets, `clone`/`prefix`/`parent`, and dead-nonce probes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts allocation calls **per thread** —
/// the test harness runs tests concurrently, so a process-global counter
/// would charge one test's setup allocations to another test's measured
/// window (a real flake observed in CI).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator can be called during TLS teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn current() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls made by this thread while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = current();
    let out = f();
    (current() - before, out)
}

use lidc_ndn::face::FaceId;
use lidc_ndn::name::Name;
use lidc_ndn::packet::{Data, Interest};
use lidc_ndn::tables::cs::ContentStore;
use lidc_ndn::tables::fib::Fib;
use lidc_ndn::tables::pit::{Pit, PitKey};
use lidc_simcore::time::SimTime;

const PROBES: usize = 64;

#[test]
fn fib_lpm_probe_allocates_nothing() {
    let mut fib = Fib::new();
    for i in 0..512 {
        let prefix = Name::parse(&format!("/ndn/k8s/status/cluster-{i}")).unwrap();
        fib.add_nexthop(prefix, FaceId::from_raw(i), 1);
    }
    fib.add_nexthop(Name::parse("/ndn/k8s/compute").unwrap(), FaceId::from_raw(9999), 0);
    let hit = Name::parse("/ndn/k8s/status/cluster-256/job-42").unwrap();
    let miss = Name::parse("/web/service/other").unwrap();
    let (n, found) = allocs_during(|| {
        let mut found = 0usize;
        for _ in 0..PROBES {
            if fib.lookup(&hit).is_some() {
                found += 1;
            }
            if fib.lookup(&miss).is_some() {
                found += 1;
            }
            if fib.lookup_components(&hit.components()[..2]).is_some() {
                found += 1;
            }
        }
        found
    });
    assert_eq!(found, PROBES, "hit matched, miss and short prefix did not");
    assert_eq!(n, 0, "FIB longest-prefix match must not allocate");
}

#[test]
fn pit_data_match_into_reused_buffer_allocates_nothing() {
    let mut pit = Pit::new();
    let now = SimTime::ZERO;
    let exact = Interest::new(Name::parse("/svc/job-7").unwrap()).with_nonce(1);
    let prefix = Interest::new(Name::parse("/svc").unwrap())
        .can_be_prefix(true)
        .with_nonce(2);
    pit.insert(&exact, FaceId::from_raw(1), now);
    pit.insert(&prefix, FaceId::from_raw(2), now);
    let data_name = Name::parse("/svc/job-7").unwrap();
    let other_name = Name::parse("/elsewhere/x").unwrap();
    // Warm the scratch buffer once (its first growth is the one allowed
    // allocation, amortized across the forwarder's lifetime).
    let mut scratch: Vec<PitKey> = Vec::with_capacity(8);
    let (n, matched) = allocs_during(|| {
        let mut matched = 0usize;
        for _ in 0..PROBES {
            pit.match_data_into(&data_name, &mut scratch);
            matched += scratch.len();
            pit.match_data_into(&other_name, &mut scratch);
            matched += scratch.len();
        }
        matched
    });
    assert_eq!(matched, 2 * PROBES, "exact + prefix matched every round");
    assert_eq!(n, 0, "PIT data matching into a reused buffer must not allocate");
}

#[test]
fn cs_probes_allocate_nothing() {
    // Byte-budgeted, segment-aware config: probes must stay allocation-free
    // with the two-tier budget active, not just in count-only mode. Half
    // the entries land in the bulk class (cost ≥ threshold) so both LRU
    // lists participate in the probed relinks.
    let mut cs = ContentStore::with_config(lidc_ndn::tables::cs::CsConfig {
        capacity: 128,
        budget_bytes: 1 << 20,
        bulk_threshold: 64,
        protected_fraction: 0.25,
    });
    let now = SimTime::ZERO;
    for i in 0..64 {
        let name = Name::parse(&format!("/data/obj-{i}/seg=0")).unwrap();
        let size = if i % 2 == 0 { 32 } else { 128 };
        cs.insert(Data::new(name, vec![7u8; size]).sign_digest(), now);
    }
    let exact = Interest::new(Name::parse("/data/obj-17/seg=0").unwrap());
    let prefix_hit = Interest::new(Name::parse("/data/obj-17").unwrap()).can_be_prefix(true);
    let miss = Interest::new(Name::parse("/data/unknown").unwrap());
    let (n, hits) = allocs_during(|| {
        let mut hits = 0usize;
        for _ in 0..PROBES {
            // A hit clones the cached packet: refcount bumps only.
            hits += usize::from(cs.lookup(&exact, now).is_some());
            hits += usize::from(cs.lookup(&prefix_hit, now).is_some());
            hits += usize::from(cs.lookup(&miss, now).is_some());
        }
        hits
    });
    assert_eq!(hits, 2 * PROBES, "exact and prefix hits, miss misses");
    assert_eq!(n, 0, "CS lookups (incl. LRU maintenance) must not allocate");
}

#[test]
fn small_name_plane_operations_allocate_nothing() {
    // Parse of a typical LIDC name: all components fit inline.
    let (n, name) = allocs_during(|| Name::parse("/ndn/k8s/compute/mem=4&cpu=6&app=BLAST").unwrap());
    assert_eq!(n, 0, "small-name parse must not allocate");

    // Wire decode of a small Interest (name + nonce): zero-copy + inline.
    let wire = Interest::new(name.clone()).with_nonce(7).encode();
    let (n, decoded) = allocs_during(|| Interest::decode(&wire).unwrap());
    assert_eq!(n, 0, "small Interest decode must not allocate");
    assert_eq!(decoded.name, name);

    // Request-path name manipulation.
    let (n, _keep) = allocs_during(|| {
        let c = name.clone();
        let p = c.prefix(2);
        let q = p.parent();
        (c, p, q)
    });
    assert_eq!(n, 0, "clone/prefix/parent must not allocate");
}

#[test]
fn data_verify_allocates_nothing() {
    // Signing and verifying hash the signed portion where it lies. The only
    // allocation left is the signature value itself, one `Bytes`, measured
    // here rather than assumed so the bound follows the `bytes` stand-in.
    let (value_allocs, _) = allocs_during(|| bytes::Bytes::copy_from_slice(&[0u8; 32]));
    let name = Name::parse("/ndn/k8s/data/sra/SRR2931415/seg=3").unwrap();
    for content_len in [64, 1 << 20] {
        let unsigned = Data::new(name.clone(), vec![0x5au8; content_len]);
        let (n, signed) = allocs_during(|| unsigned.sign_digest());
        assert!(
            n <= value_allocs,
            "sign_digest of {content_len} B made {n} allocations, more than its 32-byte value ({value_allocs})"
        );
        let (n, ok) = allocs_during(|| signed.verify(None));
        assert!(ok);
        assert_eq!(n, 0, "verify of {content_len} B digest-signed Data must not allocate");
    }
    let key = b"shared-cluster-key";
    let hmac = Data::new(name, vec![0x5au8; 64]).sign_hmac(Name::parse("/keys/a").unwrap(), key);
    let (n, ok) = allocs_during(|| hmac.verify(Some(key)));
    assert!(ok);
    assert_eq!(n, 0, "verify of HMAC-signed Data must not allocate");
}

#[test]
fn interest_lifecycle_steady_state_allocations_are_bounded() {
    // End-to-end sanity: a full insert+match+take PIT cycle allocates only
    // for the entry state it must keep (records vecs, map growth), not for
    // probing. After warm-up with a stable name set, the match+take path
    // allocation count per cycle stays small and constant.
    let mut pit = Pit::new();
    let now = SimTime::ZERO;
    let names: Vec<Name> = (0..16)
        .map(|i| Name::parse(&format!("/svc/job-{i}")).unwrap())
        .collect();
    let mut scratch: Vec<PitKey> = Vec::with_capacity(8);
    // Warm up.
    for (i, name) in names.iter().enumerate() {
        let interest = Interest::new(name.clone()).with_nonce(i as u32);
        pit.insert(&interest, FaceId::from_raw(1), now);
        pit.match_data_into(name, &mut scratch);
        for k in scratch.clone() {
            pit.take(&k);
        }
    }
    // Steady state: probe-only work is allocation-free.
    let (n, _) = allocs_during(|| {
        for name in &names {
            pit.match_data_into(name, &mut scratch);
            assert!(scratch.is_empty(), "all entries were taken");
        }
    });
    assert_eq!(n, 0, "steady-state PIT probing must not allocate");
}
