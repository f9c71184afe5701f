//! The content-addressed artifact cache: validated problem instances and routing
//! tables, keyed by their stable structural fingerprints.
//!
//! The daemon's two expensive per-submit artifacts are (a) whole-instance validation
//! of a `Problem` and (b) the all-pairs routing table build.  Both are pure functions
//! of structural content, so they are cached under the fingerprints of
//! `Problem::fingerprint` / `Problem::routing_key`: a re-submitted instance (the
//! common case for a service fed by a scheduler-in-the-loop) pays neither cost.
//!
//! Eviction is FIFO at a fixed capacity per shard — predictable, and sufficient
//! because entries are `Arc`s: evicting one never invalidates a session already
//! holding it.  Hit/miss counters are surfaced through the daemon's `status` command.

use crate::engine::{lock, ProblemInstance};
use bsa::network::RoutingTable;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// One FIFO-evicted shard: fingerprint → shared artifact.
struct Shard<T> {
    map: HashMap<u64, Arc<T>>,
    order: VecDeque<u64>,
    hits: u64,
    misses: u64,
}

impl<T> Shard<T> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn get(&mut self, key: u64) -> Option<Arc<T>> {
        match self.map.get(&key) {
            Some(v) => {
                self.hits += 1;
                Some(Arc::clone(v))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: u64, value: Arc<T>, capacity: usize) {
        if self.map.contains_key(&key) {
            // A concurrent submit already inserted the same content; keep the first.
            return;
        }
        while self.map.len() >= capacity.max(1) {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
        self.map.insert(key, value);
        self.order.push_back(key);
    }
}

/// Hit/miss/occupancy counters of one shard, as reported by `status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Entries currently cached.
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (and led to a build + insert).
    pub misses: u64,
}

/// The daemon-wide artifact cache.
pub struct ArtifactCache {
    problems: Mutex<Shard<ProblemInstance>>,
    tables: Mutex<Shard<RoutingTable>>,
    capacity: usize,
}

impl ArtifactCache {
    /// An empty cache holding at most `capacity` entries **per shard**.
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            problems: Mutex::new(Shard::new()),
            tables: Mutex::new(Shard::new()),
            capacity,
        }
    }

    /// Looks up a validated problem instance by `Problem::fingerprint`.
    pub fn get_problem(&self, key: u64) -> Option<Arc<ProblemInstance>> {
        lock(&self.problems).get(key)
    }

    /// Caches a validated problem instance.
    pub fn insert_problem(&self, key: u64, instance: Arc<ProblemInstance>) {
        lock(&self.problems).insert(key, instance, self.capacity);
    }

    /// Looks up a routing table by `Problem::routing_key`.
    pub fn get_table(&self, key: u64) -> Option<Arc<RoutingTable>> {
        lock(&self.tables).get(key)
    }

    /// Caches a built routing table.
    pub fn insert_table(&self, key: u64, table: Arc<RoutingTable>) {
        lock(&self.tables).insert(key, table, self.capacity);
    }

    /// Counters of the problem shard.
    pub fn problem_stats(&self) -> ShardStats {
        let s = lock(&self.problems);
        ShardStats {
            entries: s.map.len(),
            hits: s.hits,
            misses: s.misses,
        }
    }

    /// Counters of the routing-table shard.
    pub fn table_stats(&self) -> ShardStats {
        let s = lock(&self.tables);
        ShardStats {
            entries: s.map.len(),
            hits: s.hits,
            misses: s.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_counts_hits_and_misses_and_evicts_fifo() {
        let mut shard: Shard<u64> = Shard::new();
        assert!(shard.get(1).is_none());
        shard.insert(1, Arc::new(10), 2);
        shard.insert(2, Arc::new(20), 2);
        assert_eq!(*shard.get(1).unwrap(), 10);
        shard.insert(3, Arc::new(30), 2); // evicts key 1 (FIFO)
        assert!(shard.get(1).is_none());
        assert_eq!(*shard.get(2).unwrap(), 20);
        assert_eq!(*shard.get(3).unwrap(), 30);
        assert_eq!(shard.hits, 3);
        assert_eq!(shard.misses, 2);
    }

    #[test]
    fn duplicate_insert_keeps_the_first_value() {
        let mut shard: Shard<u64> = Shard::new();
        shard.insert(7, Arc::new(1), 4);
        shard.insert(7, Arc::new(2), 4);
        assert_eq!(*shard.get(7).unwrap(), 1);
        assert_eq!(shard.map.len(), 1);
    }
}
