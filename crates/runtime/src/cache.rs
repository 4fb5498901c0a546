//! A thread-safe byte cache for the live runtime: `lobster-cache`'s
//! priority-indexed eviction mechanics plus actual payload storage, behind
//! one lock. Lock hold times are short (metadata + `Vec` moves); payload
//! generation and simulated I/O happen outside the lock.
//!
//! Misses are single-flight: [`ShardCache::get_or_claim`] hands the first
//! miss on an id a [`Claim`], and later lookups of that id wait for the
//! claim to be filled instead of fetching it again (the paper's "fetch a
//! sample once per residency", §4.4).

use lobster_cache::{EvictOrder, NodeCache};
use lobster_data::SampleId;
use lobster_metrics::{Counter, Instruments, TraceEvent};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};

/// Shared, capacity-bounded sample cache.
pub struct ShardCache {
    inner: Mutex<Inner>,
    /// Signalled when a claim is filled or dropped.
    released: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    instruments: Instruments,
    hits_m: Counter,
    misses_m: Counter,
    evictions_m: Counter,
}

struct Inner {
    meta: NodeCache,
    payload: HashMap<u32, Arc<Vec<u8>>>,
    /// Ids an outstanding [`Claim`] is fetching.
    in_flight: HashSet<u32>,
    /// Lookups blocked in [`ShardCache::get_or_claim`] on an in-flight id.
    waiters: usize,
}

impl Inner {
    /// The resident payload of `id`, its priority key refreshed.
    fn touch(&mut self, id: SampleId, touch_key: u64) -> Option<Arc<Vec<u8>>> {
        let bytes = self.payload.get(&id.0).cloned()?;
        self.meta.set_key(id, touch_key);
        Some(bytes)
    }

    /// Admit `bytes` under `key`, dropping the evicted payloads. Returns
    /// whether it was admitted and how many residents it evicted.
    fn admit(&mut self, id: SampleId, bytes: Arc<Vec<u8>>, key: u64) -> (bool, usize) {
        let outcome = self.meta.insert(id, bytes.len() as u64, key);
        for victim in &outcome.evicted {
            self.payload.remove(&victim.0);
        }
        if outcome.inserted {
            self.payload.insert(id.0, bytes);
        }
        (outcome.inserted, outcome.evicted.len())
    }
}

/// Outcome of [`ShardCache::get_or_claim`].
pub enum Lookup<'a> {
    /// The sample is resident; its priority key has been refreshed.
    Hit(Arc<Vec<u8>>),
    /// The sample is missing and now claimed by the caller, who fetches it
    /// and hands it over with [`Claim::fill`].
    Claim(Claim<'a>),
}

/// The right to fetch one missing sample. Other lookups of the id wait
/// until it is filled; dropping it unfilled (cancellation, unwind) wakes
/// them so one of them fetches instead.
pub struct Claim<'a> {
    cache: &'a ShardCache,
    id: SampleId,
    open: bool,
}

impl Claim<'_> {
    /// Insert the fetched payload and release the claim. Returns false if
    /// the cache could not admit it (the waiters then fetch it themselves).
    pub fn fill(mut self, bytes: Arc<Vec<u8>>, key: u64) -> bool {
        self.open = false;
        let mut inner = self.cache.inner.lock();
        let (inserted, evicted) = inner.admit(self.id, bytes, key);
        self.cache.release(inner, self.id);
        self.cache.note_evictions(evicted);
        inserted
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.open {
            self.cache.release(self.cache.inner.lock(), self.id);
        }
    }
}

impl ShardCache {
    pub fn new(capacity_bytes: u64) -> ShardCache {
        ShardCache::with_instruments(capacity_bytes, Instruments::disabled())
    }

    /// A cache that also feeds the observability layer: `engine.cache_hits`
    /// / `engine.cache_misses` / `engine.cache_evictions` counters and
    /// `evict` trace instants. With a disabled bundle this is identical to
    /// [`ShardCache::new`].
    pub fn with_instruments(capacity_bytes: u64, instruments: Instruments) -> ShardCache {
        ShardCache {
            inner: Mutex::new(Inner {
                meta: NodeCache::new(capacity_bytes, EvictOrder::SmallestKeyFirst),
                payload: HashMap::new(),
                in_flight: HashSet::new(),
                waiters: 0,
            }),
            released: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hits_m: instruments.counter("engine.cache_hits"),
            misses_m: instruments.counter("engine.cache_misses"),
            evictions_m: instruments.counter("engine.cache_evictions"),
            instruments,
        }
    }

    /// Look up a sample; counts a hit or miss. On hit the priority key is
    /// refreshed to `touch_key`.
    pub fn get(&self, id: SampleId, touch_key: u64) -> Option<Arc<Vec<u8>>> {
        let hit = self.inner.lock().touch(id, touch_key);
        self.count(hit.is_some());
        hit
    }

    /// Look up a sample, claiming it on a miss. A lookup of an id another
    /// claim is fetching waits for that claim to be released, then looks
    /// again. Counts exactly one hit or miss, for the final outcome.
    pub fn get_or_claim(&self, id: SampleId, touch_key: u64) -> Lookup<'_> {
        let mut inner = self.inner.lock();
        while inner.in_flight.contains(&id.0) {
            inner.waiters += 1;
            inner = self
                .released
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            inner.waiters -= 1;
        }
        let hit = inner.touch(id, touch_key);
        if hit.is_none() {
            inner.in_flight.insert(id.0);
        }
        drop(inner);
        self.count(hit.is_some());
        match hit {
            Some(bytes) => Lookup::Hit(bytes),
            None => Lookup::Claim(Claim {
                cache: self,
                id,
                open: true,
            }),
        }
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hits_m.inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.misses_m.inc();
        }
    }

    /// Drop `id`'s claim and wake its waiters, if any.
    fn release(&self, mut inner: MutexGuard<'_, Inner>, id: SampleId) {
        inner.in_flight.remove(&id.0);
        let wake = inner.waiters > 0;
        drop(inner);
        if wake {
            self.released.notify_all();
        }
    }

    fn note_evictions(&self, evicted: usize) {
        if evicted > 0 {
            self.evictions_m.add(evicted as u64);
            self.instruments.trace(|| {
                TraceEvent::instant("evict", "cache", self.instruments.now_us())
                    .arg_u("victims", evicted as u64)
                    .arg_s("reason", "capacity")
            });
        }
    }

    /// Residency check without stats or key refresh.
    pub fn contains(&self, id: SampleId) -> bool {
        self.inner.lock().meta.contains(id)
    }

    /// Insert a sample with a priority key; evicted payloads are dropped.
    /// Returns false if the sample could not be admitted.
    pub fn insert(&self, id: SampleId, bytes: Arc<Vec<u8>>, key: u64) -> bool {
        let (inserted, evicted) = self.inner.lock().admit(id, bytes, key);
        self.note_evictions(evicted);
        inserted
    }

    /// Explicitly evict (policy-driven). Returns true if resident.
    pub fn evict(&self, id: SampleId) -> bool {
        let mut inner = self.inner.lock();
        let was = inner.meta.evict(id);
        if was {
            inner.payload.remove(&id.0);
        }
        drop(inner);
        if was {
            self.evictions_m.inc();
            self.instruments.trace(|| {
                TraceEvent::instant("evict", "cache", self.instruments.now_us())
                    .arg_u("sample", id.0 as u64)
                    .arg_s("reason", "policy")
            });
        }
        was
    }

    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().meta.used_bytes()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().meta.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn hit_ratio(&self) -> f64 {
        let h = self.hit_count();
        let m = self.miss_count();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![0xAB; n])
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let c = ShardCache::new(1000);
        assert!(c.get(SampleId(1), 0).is_none());
        c.insert(SampleId(1), payload(100), 1);
        assert!(c.get(SampleId(1), 2).is_some());
        assert_eq!(c.hit_count(), 1);
        assert_eq!(c.miss_count(), 1);
        assert_eq!(c.hit_ratio(), 0.5);
    }

    #[test]
    fn eviction_drops_payload_and_capacity_is_respected() {
        let c = ShardCache::new(250);
        c.insert(SampleId(1), payload(100), 1);
        c.insert(SampleId(2), payload(100), 2);
        // Needs an eviction: key 1 goes.
        assert!(c.insert(SampleId(3), payload(100), 3));
        assert!(!c.contains(SampleId(1)));
        assert!(c.used_bytes() <= 250);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn explicit_evict_roundtrip() {
        let c = ShardCache::new(1000);
        c.insert(SampleId(9), payload(10), 0);
        assert!(c.evict(SampleId(9)));
        assert!(!c.evict(SampleId(9)));
        assert!(c.is_empty());
    }

    /// Block until some lookup is waiting on an in-flight id; fails the
    /// test instead of hanging if none ever does.
    fn await_waiter(c: &ShardCache) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while c.inner.lock().waiters == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no lookup waited on the claim"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_waiter_is_served_by_the_claimed_fetch() {
        let c = ShardCache::new(1000);
        let Lookup::Claim(claim) = c.get_or_claim(SampleId(5), 0) else {
            panic!("empty cache must hand out a claim");
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| matches!(c.get_or_claim(SampleId(5), 1), Lookup::Hit(_)));
            await_waiter(&c);
            claim.fill(payload(10), 0);
            assert!(waiter.join().unwrap(), "the waiter must see the fill");
        });
        assert_eq!((c.hit_count(), c.miss_count()), (1, 1));
    }

    #[test]
    fn a_dropped_claim_hands_the_fetch_to_a_waiter() {
        let c = ShardCache::new(1000);
        let Lookup::Claim(claim) = c.get_or_claim(SampleId(6), 0) else {
            panic!("empty cache must hand out a claim");
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match c.get_or_claim(SampleId(6), 1) {
                Lookup::Claim(mine) => mine.fill(payload(10), 1),
                Lookup::Hit(_) => false,
            });
            await_waiter(&c);
            // A cancelled or unwound fetch releases the claim unfilled.
            drop(claim);
            assert!(waiter.join().unwrap(), "the waiter must fetch it itself");
        });
        assert_eq!((c.hit_count(), c.miss_count()), (0, 2));
        assert!(c.contains(SampleId(6)));
    }

    #[test]
    fn two_loaders_missing_one_id_fetch_it_once() {
        use crate::store::SyntheticStore;
        use lobster_data::{Dataset, SizeDistribution};
        use std::sync::Barrier;
        use std::time::Duration;

        // A loader's miss path: look up, fetch from the store on a claim,
        // fill. Returns whether this loader fetched.
        fn load(c: &ShardCache, store: &SyntheticStore, id: SampleId) -> bool {
            match c.get_or_claim(id, 0) {
                Lookup::Hit(_) => false,
                Lookup::Claim(claim) => {
                    claim.fill(Arc::new(store.fetch(id)), 0);
                    true
                }
            }
        }

        let ds = Dataset::generate("sf", 4, SizeDistribution::Constant { bytes: 64 }, 1);
        for round in 0..200 {
            let store = SyntheticStore::new(ds.clone(), Duration::from_millis(2), 0.0);
            let c = ShardCache::new(1 << 20);
            let start = Barrier::new(2);
            let fetched = std::thread::scope(|s| {
                let loaders: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            load(&c, &store, SampleId(1))
                        })
                    })
                    .collect();
                loaders
                    .into_iter()
                    .map(|l| l.join().expect("loader thread panicked"))
                    .filter(|&did_fetch| did_fetch)
                    .count()
            });
            assert_eq!(store.fetch_count(), 1, "round {round}: one store fetch");
            assert_eq!(fetched, 1, "round {round}: one loader fetched");
            assert_eq!((c.hit_count(), c.miss_count()), (1, 1), "round {round}");
        }
    }

    #[test]
    fn concurrent_access_is_safe_and_consistent() {
        let c = Arc::new(ShardCache::new(100_000));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    let id = SampleId(t * 1000 + i);
                    c.insert(id, Arc::new(vec![t as u8; 50]), i as u64);
                    assert!(c.get(id, i as u64).is_some() || !c.contains(id));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.used_bytes() <= 100_000);
    }
}
