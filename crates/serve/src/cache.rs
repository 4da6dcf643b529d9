//! The service's result cache: memoized whole-experiment outcomes
//! keyed by content hash.
//!
//! The modeled virtual clocks are bit-reproducible, so a
//! canonical-deck + fault-plan content hash fully determines the final
//! field bits and recovery ledger, and replaying the experiment is
//! pure waste.  The cache therefore stores `Arc<RunResult>` — the
//! exact allocation handed to earlier subscribers, its `"result"` bytes
//! rendered when it was built — and a hit copies those bytes into its
//! response.
//!
//! Plain LRU under one mutex: entries are tiny (a checksum, a ledger),
//! lookups are rare next to the seconds-long misses they save, and the
//! determinism argument wants exactly one eviction policy with no
//! sampling. Counters are monotonic and exposed for the `serve.*`
//! telemetry and the bench gates.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::proto::RunResult;

struct Lru {
    map: HashMap<u64, (Arc<RunResult>, u64)>,
    clock: u64,
}

/// Shared memoized-result store.
pub struct ResultCache {
    inner: Mutex<Lru>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Lru { map: HashMap::new(), clock: 0 }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a content hash, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<RunResult>> {
        let mut lru = self.inner.lock().unwrap();
        lru.clock += 1;
        let stamp = lru.clock;
        match lru.map.get_mut(&key) {
            Some((res, last)) => {
                *last = stamp;
                let res = Arc::clone(res);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(res)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) a result, evicting the least-recently-used
    /// entry beyond capacity.
    pub fn insert(&self, key: u64, result: Arc<RunResult>) {
        let mut lru = self.inner.lock().unwrap();
        lru.clock += 1;
        let stamp = lru.clock;
        lru.map.insert(key, (result, stamp));
        self.insertions.fetch_add(1, Ordering::Relaxed);
        while lru.map.len() > self.capacity {
            // Oldest stamp; key tiebreak keeps eviction deterministic
            // even if stamps ever collided.
            let victim = lru
                .map
                .iter()
                .map(|(k, (_, s))| (*s, *k))
                .min()
                .map(|(_, k)| k)
                .expect("non-empty beyond capacity");
            lru.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
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

    pub fn insertion_count(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::LedgerWire;

    fn result(tag: u64) -> Arc<RunResult> {
        let ledger = LedgerWire::from_ledger(&Default::default());
        Arc::new(RunResult::done(tag, 1, (1, 1), 0.0, ledger))
    }

    #[test]
    fn hit_returns_the_same_allocation() {
        let cache = ResultCache::new(4);
        let r = result(7);
        cache.insert(7, Arc::clone(&r));
        let got = cache.get(7).expect("hit");
        assert!(Arc::ptr_eq(&got, &r), "hits must share the original allocation");
        assert_eq!((cache.hit_count(), cache.miss_count()), (1, 0));
        assert!(cache.get(8).is_none());
        assert_eq!((cache.hit_count(), cache.miss_count()), (1, 1));
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let cache = ResultCache::new(2);
        cache.insert(1, result(1));
        cache.insert(2, result(2));
        assert!(cache.get(1).is_some()); // warm 1; 2 is now coldest
        cache.insert(3, result(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none(), "coldest entry must be evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.eviction_count(), 1);
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        let cache = Arc::new(ResultCache::new(8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let key = (t * 37 + i) % 16;
                        match c.get(key) {
                            Some(r) => assert_eq!(r.bits_fnv32(), Some(key)),
                            None => c.insert(key, result(key)),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(cache.len() <= 8);
        // One lookup per iteration, every one accounted for.
        assert_eq!(cache.hit_count() + cache.miss_count(), 4 * 200);
    }
}
