//! The VM-wide permission decision cache.
//!
//! Stack-inspection checks are highly cacheable: the set of domains on a
//! stack, the demanded permission, and the running user fully determine the
//! decision, and all three change far more slowly than checks are issued.
//! [`DecisionCache`] memoizes **granted** decisions keyed by
//! `(context fingerprint, demand, running user)`; denials are deliberately
//! never cached, so every denial re-runs the full walk and re-derives the
//! exact refusing-domain audit message (the audit-exactness invariant).
//!
//! The map is keyed by hashes, but a hit must match exactly: each entry
//! stores the demand and user it was derived for, and a lookup whose
//! demand or user differs is a miss. The key hasher is unkeyed and
//! invertible, so two different demands can be made to share a key; a
//! key match alone would grant one on the strength of the other.
//!
//! Invalidation is epoch-based: every entry records the epoch it was derived
//! under, and anything that can change a decision — `set_policy`,
//! `set_security_manager`, a user-resolver change — bumps the epoch, which
//! kills every stale entry at once without a sweep. Entries are *inserted*
//! with the epoch captured **before** the policy walk began, so a reload
//! that races a concurrent walk invalidates the in-flight result too: the
//! walker's captured epoch no longer matches and its insert can never serve
//! a future lookup.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jmp_obs::{DemandCell, DemandLedger};
use jmp_security::{ContextFingerprint, Permission};
use parking_lot::RwLock;

/// Shard count; must be a power of two. Spreads lock contention across
/// concurrently-checking threads.
const SHARDS: usize = 16;

/// Per-shard entry cap. A full shard is cleared rather than evicted
/// entry-by-entry — decisions are cheap to re-derive and workloads with more
/// than `SHARDS * SHARD_CAP` distinct live keys are not the target.
const SHARD_CAP: usize = 4096;

/// Key of one cached decision: the fingerprint of the visible domain set
/// plus a hash of `(demand, running user)`. The key only picks the slot;
/// [`CachedGrant`] holds the demand and user that a hit must equal.
type Key = (u64, u64);

/// A fast multiply-xor hasher (FxHash-style) for the hot path. The warm
/// check hashes the demanded permission once and the 128-bit key once per
/// lookup; a keyed SipHash there costs more than the lookup itself. It is
/// not collision resistant — colliding demands are easy to construct — so
/// lookups compare the stored demand and user before serving a hit.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// One cached granted decision: the exact demand and user it answers, the
/// epoch it was derived under, and the demand-ledger cell recorded during
/// the original walk (when the ledger accepted the demand). A warm hit
/// bumps the cell directly, so the always-on demand ledger costs the hot
/// path no hashing and no strings.
#[derive(Debug)]
struct CachedGrant {
    demand: Permission,
    user: Option<Box<str>>,
    epoch: u64,
    demand_cell: Option<Arc<DemandCell>>,
}

type Shard = HashMap<Key, CachedGrant, BuildHasherDefault<FxHasher>>;

/// A sharded, epoch-invalidated map of granted access-control decisions.
#[derive(Debug, Default)]
pub struct DecisionCache {
    epoch: AtomicU64,
    shards: [RwLock<Shard>; SHARDS],
}

pub(crate) fn demand_key(demand: &Permission, user: Option<&str>) -> u64 {
    let mut hasher = FxHasher::default();
    demand.hash(&mut hasher);
    user.hash(&mut hasher);
    hasher.finish()
}

impl DecisionCache {
    /// Creates an empty cache at epoch 0.
    pub fn new() -> DecisionCache {
        DecisionCache::default()
    }

    /// The current epoch. Capture it **before** walking the policy, and pass
    /// the captured value to [`DecisionCache::insert_granted`].
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Bumps the epoch, logically discarding every cached decision.
    pub fn invalidate(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    fn shard(&self, key: &Key) -> &RwLock<Shard> {
        // The fingerprint half is already avalanche-mixed; its low bits pick
        // the shard.
        &self.shards[(key.0 as usize) & (SHARDS - 1)]
    }

    /// Looks up a granted decision for this exact `(context, demand, user)`
    /// triple derived under the current epoch; `true` means granted. A key
    /// match whose stored demand or user differs is a miss. Allocation-free.
    /// On a hit, the demand-ledger cell captured during the original walk (if
    /// any) is bumped through `ledger` while the shard guard is held —
    /// handing the `Arc` out instead would cost the hot path a clone+drop
    /// pair of shared-cache-line RMWs, roughly doubling the always-on
    /// ledger's warm cost.
    pub fn lookup_granted(
        &self,
        fingerprint: ContextFingerprint,
        demand: &Permission,
        user: Option<&str>,
        ledger: &DemandLedger,
    ) -> bool {
        let key = (fingerprint.hash, demand_key(demand, user));
        let current = self.epoch();
        let shard = self.shard(&key).read();
        let Some(entry) = shard.get(&key) else {
            return false;
        };
        if entry.epoch != current || entry.user.as_deref() != user || entry.demand != *demand {
            return false;
        }
        if let Some(cell) = &entry.demand_cell {
            if ledger.enabled() {
                ledger.bump(cell, true);
            }
        }
        true
    }

    /// Records a granted decision derived while the epoch was
    /// `derived_epoch`, carrying the demand-ledger cell (if any) the walk
    /// recorded. The demand and user are cloned into the entry (the only
    /// allocation on the cache's paths); a colliding entry is replaced. A
    /// stale insert (the epoch moved during the walk) is stored but can
    /// never match a future lookup, so a policy reload racing a walk never
    /// resurrects a pre-reload decision.
    pub fn insert_granted(
        &self,
        fingerprint: ContextFingerprint,
        demand: &Permission,
        user: Option<&str>,
        derived_epoch: u64,
        demand_cell: Option<Arc<DemandCell>>,
    ) {
        let key = (fingerprint.hash, demand_key(demand, user));
        let mut shard = self.shard(&key).write();
        if shard.len() >= SHARD_CAP && !shard.contains_key(&key) {
            shard.clear();
        }
        shard.insert(
            key,
            CachedGrant {
                demand: demand.clone(),
                user: user.map(Box::from),
                epoch: derived_epoch,
                demand_cell,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmp_security::FileActions;

    fn fp(hash: u64) -> ContextFingerprint {
        ContextFingerprint { hash, unique: 1 }
    }

    fn ledger() -> DemandLedger {
        DemandLedger::new(8)
    }

    #[test]
    fn lookup_returns_only_current_epoch_entries() {
        let cache = DecisionCache::new();
        let ledger = ledger();
        let demand = Permission::runtime("x");
        assert!(!cache.lookup_granted(fp(1), &demand, None, &ledger));
        cache.insert_granted(fp(1), &demand, None, cache.epoch(), None);
        assert!(cache.lookup_granted(fp(1), &demand, None, &ledger));
        cache.invalidate();
        assert!(!cache.lookup_granted(fp(1), &demand, None, &ledger));
    }

    #[test]
    fn key_covers_fingerprint_demand_and_user() {
        let cache = DecisionCache::new();
        let ledger = ledger();
        let read = Permission::file("/a", FileActions::READ);
        let write = Permission::file("/a", FileActions::WRITE);
        cache.insert_granted(fp(1), &read, Some("alice"), cache.epoch(), None);
        assert!(cache.lookup_granted(fp(1), &read, Some("alice"), &ledger));
        assert!(!cache.lookup_granted(fp(2), &read, Some("alice"), &ledger));
        assert!(!cache.lookup_granted(fp(1), &write, Some("alice"), &ledger));
        assert!(!cache.lookup_granted(fp(1), &read, Some("bob"), &ledger));
        assert!(!cache.lookup_granted(fp(1), &read, None, &ledger));
    }

    #[test]
    fn stale_insert_never_serves_lookups() {
        let cache = DecisionCache::new();
        let ledger = ledger();
        let demand = Permission::runtime("x");
        // A walker captured the epoch, then a reload raced it.
        let captured = cache.epoch();
        cache.invalidate();
        cache.insert_granted(fp(1), &demand, None, captured, None);
        assert!(
            !cache.lookup_granted(fp(1), &demand, None, &ledger),
            "pre-reload decision must not survive the reload"
        );
        // A post-reload derivation does serve.
        cache.insert_granted(fp(1), &demand, None, cache.epoch(), None);
        assert!(cache.lookup_granted(fp(1), &demand, None, &ledger));
    }

    #[test]
    fn hit_bumps_the_stored_demand_cell() {
        let cache = DecisionCache::new();
        let ledger = ledger();
        let demand = Permission::runtime("x");
        let cell = ledger
            .record(
                None,
                "file:/apps/x",
                None,
                "permission runtime \"x\"",
                true,
                false,
                1,
            )
            .unwrap();
        cache.insert_granted(fp(1), &demand, None, cache.epoch(), Some(Arc::clone(&cell)));
        assert!(cache.lookup_granted(fp(1), &demand, None, &ledger));
        assert!(cache.lookup_granted(fp(1), &demand, None, &ledger));
        let rows = ledger.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].granted, 3, "1 record + 2 warm hits");

        // A disabled ledger stops the bump-through but not the hit.
        ledger.set_enabled(false);
        assert!(cache.lookup_granted(fp(1), &demand, None, &ledger));
        ledger.set_enabled(true);
        assert_eq!(ledger.rows()[0].granted, 3);
    }

    #[test]
    fn full_shard_clears_and_keeps_accepting() {
        let cache = DecisionCache::new();
        let ledger = ledger();
        let demand = Permission::runtime("x");
        // Drive one shard past its cap; all keys here land in shard 0.
        for i in 0..(SHARD_CAP as u64 + 10) {
            cache.insert_granted(fp(i * SHARDS as u64), &demand, None, cache.epoch(), None);
        }
        // The overflow cleared the shard (dropping the earliest entries) but
        // later inserts still land and serve.
        assert!(!cache.lookup_granted(fp(0), &demand, None, &ledger));
        let last = (SHARD_CAP as u64 + 9) * SHARDS as u64;
        assert!(cache.lookup_granted(fp(last), &demand, None, &ledger));
    }
}
