//! Cross-shard transactions: the client-side buffer of a
//! coordinator-logged, presumed-abort two-phase commit.
//!
//! A [`ShardTxn`] mirrors the [`ShardedStore`]
//! mutation surface but *buffers* instead of applying: every call
//! routes through the store's [`ShardRouter`] and appends a
//! [`WalRecord`] to the owning participant's buffer. OIDs are predicted
//! from each shard's next-OID counter at
//! [`begin`](ShardTxn::begin)-time, so later records in the buffer can
//! reference objects earlier records will create — the same
//! deterministic assignment the replay path relies on.
//!
//! [`ShardedStore::commit`](crate::ShardedStore::commit) then drives
//! the protocol:
//!
//! 1. **Prepare** — each participant validates its buffer, appends a
//!    durable `TxnPrepare` frame binding the post-apply store root, and
//!    parks the records (applying nothing).
//! 2. **Decide** — one `TxnCommit` decision frame in the coordinator
//!    log (`txn.log/`, same checksummed rotating-segment format as the
//!    shard WALs) makes the outcome durable.
//! 3. **Outcome** — each participant applies its buffer and appends a
//!    `TxnCommit` outcome frame; recovery completes this phase if the
//!    process dies mid-way.
//!
//! A transaction whose participants all collapse to **one shard** skips
//! the protocol entirely: its records take the ordinary one-phase
//! validate → log → apply path, no prepare, no coordinator frame.
//!
//! Crashes are simulated at every phase boundary by the failpoints
//! below ([`TXN_PREPARE_CRASH`], [`TXN_DECIDE_CRASH`],
//! [`TXN_OUTCOME_CRASH`], plus [per-participant](participant_probe)
//! variants): an injected fault propagates with **no cleanup**, exactly
//! like a kill, and the transaction-resolution pass of
//! `ShardedStore::open` must make the store whole again.

use aqua_algebra::{NodeId, Tree};
use aqua_object::{AttrId, ClassId, Oid, Value};
use std::collections::BTreeMap;

use crate::codec::WalRecord;
use crate::shard::{ShardRouter, ShardedStore};

/// Failpoint checked before *each* participant's prepare — arming it
/// simulates a coordinator crash mid-prepare (no decision logged, so
/// recovery presumes abort).
pub const TXN_PREPARE_CRASH: &str = "txn.prepare.crash";

/// Failpoint checked after every prepare succeeded but before the
/// decision frame reaches the coordinator log — the classic 2PC window:
/// all participants are parked, nobody knows the outcome.
pub const TXN_DECIDE_CRASH: &str = "txn.decide.crash";

/// Failpoint checked before *each* participant's outcome application —
/// arming it simulates a crash after the decision was durable but
/// before every participant applied it (recovery must roll forward).
pub const TXN_OUTCOME_CRASH: &str = "txn.outcome.crash";

/// The per-participant spelling of a phase failpoint: arming
/// `participant_probe(TXN_PREPARE_CRASH, 1)` = `"txn.prepare.crash.1"`
/// kills the protocol exactly when it reaches participant 1.
pub fn participant_probe(phase: &str, participant: u32) -> String {
    format!("{phase}.{participant}")
}

/// What [`ShardedStore::commit`](crate::ShardedStore::commit) did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnReceipt {
    /// The coordinator-assigned transaction id — `None` when the
    /// transaction collapsed to one shard and took the one-phase fast
    /// path (no prepare, no coordinator frame).
    pub txn_id: Option<u64>,
    /// The participant shards, ascending.
    pub participants: Vec<u32>,
    /// Total records applied across participants.
    pub records: usize,
}

impl TxnReceipt {
    /// Whether the commit skipped the 2PC protocol entirely.
    pub fn fast_path(&self) -> bool {
        self.txn_id.is_none()
    }
}

/// A buffered cross-shard transaction. See the module docs for the
/// protocol; see [`ShardTxn::begin`] for the single-writer contract.
#[derive(Debug, Clone)]
pub struct ShardTxn {
    router: ShardRouter,
    /// Buffered records per participant shard, in program order.
    buffers: BTreeMap<u32, Vec<WalRecord>>,
    /// Predicted next OID per shard: the shard's object count at
    /// `begin`, advanced by every buffered insert.
    next_oid: Vec<u64>,
}

impl ShardTxn {
    /// Start buffering against `store`. The predictions this snapshots
    /// (per-shard next OIDs) stay valid only while the store is not
    /// mutated outside the transaction — the usual single-writer
    /// discipline of `&mut ShardedStore`. A transaction that aborted
    /// cleanly left the store untouched, so the same `ShardTxn` can be
    /// retried as-is.
    pub fn begin(store: &ShardedStore) -> ShardTxn {
        ShardTxn {
            router: *store.router(),
            buffers: BTreeMap::new(),
            next_oid: store
                .shards()
                .iter()
                .map(|s| s.store().len() as u64)
                .collect(),
        }
    }

    /// The participant shards buffered so far, ascending.
    pub fn participants(&self) -> Vec<u32> {
        self.buffers.keys().copied().collect()
    }

    /// The records buffered for one participant (empty if none).
    pub fn records_for(&self, shard: u32) -> &[WalRecord] {
        self.buffers.get(&shard).map_or(&[], Vec::as_slice)
    }

    /// Total records buffered across participants.
    pub fn len(&self) -> usize {
        self.buffers.values().map(Vec::len).sum()
    }

    /// Whether nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    fn push(&mut self, shard: u32, rec: WalRecord) {
        self.buffers.entry(shard).or_default().push(rec);
    }

    /// Buffer an object insert into the shard owning `owner`. Returns
    /// the `(shard, oid)` the insert *will* produce on commit —
    /// deterministic OID assignment makes the prediction exact.
    pub fn insert(&mut self, owner: &str, class: ClassId, row: Vec<Value>) -> (usize, Oid) {
        let sh = self.router.route_name(owner) as u32;
        let oid = Oid(self.next_oid[sh as usize]);
        self.next_oid[sh as usize] += 1;
        self.push(sh, WalRecord::Insert { class, row });
        (sh as usize, oid)
    }

    /// Buffer an attribute update on the shard owning `owner` (OIDs are
    /// shard-local, so the owning path names the shard).
    pub fn update(&mut self, owner: &str, oid: Oid, attr: AttrId, value: Value) {
        let sh = self.router.route_name(owner) as u32;
        self.push(sh, WalRecord::Update { oid, attr, value });
    }

    /// Buffer creating (or wholly replacing) a tree extent.
    pub fn create_tree(&mut self, name: &str, tree: Tree) {
        let sh = self.router.route_name(name) as u32;
        self.push(
            sh,
            WalRecord::TreeCreate {
                name: name.to_owned(),
                tree,
            },
        );
    }

    /// Buffer inserting `child` under `parent` at `index` in a tree.
    pub fn tree_insert_child(&mut self, name: &str, parent: NodeId, index: usize, child: Tree) {
        let sh = self.router.route_name(name) as u32;
        self.push(
            sh,
            WalRecord::TreeInsertChild {
                name: name.to_owned(),
                parent: parent.0,
                index: index.min(u32::MAX as usize) as u32,
                child,
            },
        );
    }

    /// Buffer removing the subtree rooted at `at` from a tree.
    pub fn tree_remove_subtree(&mut self, name: &str, at: NodeId) {
        let sh = self.router.route_name(name) as u32;
        self.push(
            sh,
            WalRecord::TreeRemoveSubtree {
                name: name.to_owned(),
                at: at.0,
            },
        );
    }

    /// Buffer point-updating one tree node's payload OID.
    pub fn tree_set_oid(&mut self, name: &str, at: NodeId, oid: Oid) {
        let sh = self.router.route_name(name) as u32;
        self.push(
            sh,
            WalRecord::TreeSetOid {
                name: name.to_owned(),
                at: at.0,
                oid,
            },
        );
    }

    /// Buffer creating (or resetting) a list extent.
    pub fn create_list(&mut self, name: &str) {
        let sh = self.router.route_name(name) as u32;
        self.push(
            sh,
            WalRecord::ListCreate {
                name: name.to_owned(),
            },
        );
    }

    /// Buffer appending an object to a list.
    pub fn list_push(&mut self, name: &str, oid: Oid) {
        let sh = self.router.route_name(name) as u32;
        self.push(
            sh,
            WalRecord::ListPush {
                name: name.to_owned(),
                oid,
            },
        );
    }

    /// Buffer appending a labeled NULL to a list.
    pub fn list_push_hole(&mut self, name: &str, label: &str) {
        let sh = self.router.route_name(name) as u32;
        self.push(
            sh,
            WalRecord::ListPushHole {
                name: name.to_owned(),
                label: label.to_owned(),
            },
        );
    }

    /// Buffer removing the element at `index` from a list.
    pub fn list_remove(&mut self, name: &str, index: usize) {
        let sh = self.router.route_name(name) as u32;
        self.push(
            sh,
            WalRecord::ListRemove {
                name: name.to_owned(),
                index: index.min(u32::MAX as usize) as u32,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedConfig;
    use aqua_object::{AttrDef, AttrType, ClassDef};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "aqua-txn-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn buffers_route_like_the_store_and_predict_oids() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("route");
        let (mut ss, _) = ShardedStore::open(&dir, ShardedConfig::with_shards(4)).unwrap();
        let class = ss
            .define_class(
                ClassDef::new("Note", vec![AttrDef::stored("pitch", AttrType::Str)]).unwrap(),
            )
            .unwrap();
        // Pre-populate one shard so predictions start past zero.
        ss.create_list("p0/song").unwrap();
        let (warm, _) = ss.insert("p0/song", class, vec![Value::str("E")]).unwrap();

        let mut txn = ShardTxn::begin(&ss);
        assert!(txn.is_empty());
        let (sh, oid) = txn.insert("p0/song", class, vec![Value::str("F")]);
        assert_eq!(sh, ss.shard_of("p0/song"));
        assert_eq!(
            oid.0,
            ss.shard(sh).store().len() as u64,
            "prediction = the shard's next OID"
        );
        txn.list_push("p0/song", oid);
        let (_, oid2) = txn.insert("p0/song", class, vec![Value::str("G")]);
        assert_eq!(oid2.0, oid.0 + 1, "predictions advance per buffered insert");

        txn.create_list("p1/song");
        assert_eq!(txn.len(), 4);
        let parts = txn.participants();
        assert_eq!(
            parts.len(),
            if sh == ss.shard_of("p1/song") { 1 } else { 2 }
        );
        assert_eq!(txn.records_for(sh as u32).len(), 3);
        let _ = warm;
        let _ = std::fs::remove_dir_all(&dir);
    }
}
