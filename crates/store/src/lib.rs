//! # aqua-store — indices and storage structures for AQUA
//!
//! The optimization story of the paper (§4, "Why Split?") assumes the
//! backend can answer a cheap alphabet-predicate *sublinearly*: "Assume
//! that we can use an index to efficiently locate all nodes in T that
//! match d." This crate supplies those access methods over the in-memory
//! substrate:
//!
//! * [`AttrIndex`] — a secondary index `value → OIDs` over a class
//!   extent (used by the conjunctive-select rewrite, experiment B2).
//! * [`TreeNodeIndex`] — `value → tree nodes`, the index the
//!   `sub_select`-via-`split` rewrite probes for root-predicate
//!   candidates (experiment B1).
//! * [`ListPosIndex`] — a positional index `value → element positions`
//!   for lists (accelerates fixed-offset list patterns).
//! * [`StructuralIndex`] — preorder/postorder interval numbering for
//!   O(1) ancestor/descendant tests (experiment B8).
//! * [`ColumnStats`] — per-attribute statistics feeding the optimizer's
//!   cost model.
//!
//! On top of the access methods sits the **durability subsystem**
//! (PR 5): a checksummed, segmented write-ahead log of extent mutations
//! ([`wal`]), atomic snapshot checkpoints ([`snapshot`]), and a
//! panic-free typed recovery path ([`recovery`]) that rebuilds every
//! registered index from snapshot + WAL tail on open. The four indices
//! are epoch-stamped: probing one after the store mutated yields
//! [`StoreError::StaleIndex`] instead of stale candidates.

pub mod attr_index;
pub mod cert;
pub mod codec;
pub mod error;
pub mod merkle;
pub mod positional;
pub mod rebalance;
pub mod recovery;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod structural;
pub mod txn;
pub mod wal;

pub use attr_index::{AttrIndex, TreeNodeIndex, ATTR_INDEX_PROBE, TREE_INDEX_PROBE};
pub use cert::{SplitCertificate, CERT_TAMPER_PROBE};
pub use codec::{crc32, IndexSpec, WalRecord};
pub use error::{Result, StoreError, TxnError};
pub use merkle::{list_root, store_root, tree_root, MerkleTree, Root};
pub use positional::{ListPosIndex, LIST_INDEX_PROBE};
pub use rebalance::{
    RebalanceReport, REBALANCE_BEGIN_CRASH, REBALANCE_CLEANUP_CRASH, REBALANCE_COMMIT_CRASH,
    REBALANCE_DECIDE_CRASH, REBALANCE_MOVED_CRASH, REBALANCE_OUTCOME_CRASH,
    REBALANCE_PREPARE_CRASH,
};
pub use recovery::{DurableConfig, DurableStore, RebuiltIndexes, RecoveryReport, RECOVER_PROBE};
pub use shard::{
    fold_shard_roots, shard_dir_name, ExtentPath, ShardLayoutMeta, ShardRouter, ShardedConfig,
    ShardedRecoveryReport, ShardedStore, REBALANCE_LOG_DIR, SHARD_FOLD_PROBE, SHARD_META,
    SHARD_ROUTE_PROBE, TXN_LOG_DIR,
};
pub use snapshot::{
    list_snapshots, read_snapshot, write_snapshot, SnapshotManifest, SnapshotState,
    INTEGRITY_CORRUPT_PROBE, SNAPSHOT_WRITE_PROBE,
};
pub use stats::ColumnStats;
pub use structural::{StructuralIndex, STRUCTURAL_PROBE};
pub use txn::{
    participant_probe, ShardTxn, TxnReceipt, TXN_DECIDE_CRASH, TXN_OUTCOME_CRASH, TXN_PREPARE_CRASH,
};
pub use wal::{list_segments, scan_segment, SegmentScan, Wal, WalConfig, WAL_APPEND_PROBE};

/// Serialization for unit tests around the process-global failpoint
/// registry: a failpoint one test arms fires in any sibling test that
/// crosses the same boundary meanwhile, and may spend an `arm_times`
/// budget there instead of in the arming test. Tests that arm a
/// failpoint hold the lock exclusively ([`arming`](test_lock::arming));
/// tests that only run through failpoint-checked paths share it
/// ([`passing`](test_lock::passing)).
#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

    static FAILPOINTS: RwLock<()> = RwLock::new(());

    /// Held for the whole of a test that arms a failpoint.
    pub(crate) fn arming() -> RwLockWriteGuard<'static, ()> {
        FAILPOINTS.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Held for the whole of a test that crosses failpoint-checked
    /// store paths without arming any.
    pub(crate) fn passing() -> RwLockReadGuard<'static, ()> {
        FAILPOINTS.read().unwrap_or_else(|e| e.into_inner())
    }
}
