//! Sharded, path-addressed multi-extent store.
//!
//! A [`ShardedStore`] partitions the extent namespace across N
//! [`DurableStore`] shards behind a grovedb-style path hierarchy:
//! extent names are `/`-separated paths ([`ExtentPath`], the string
//! spelling of a `Vec<Vec<u8>>` path), and the [`ShardRouter`] maps a
//! path to its owning shard by hashing the path's *top-level segment* —
//! so an entire subtree (`"s3/doc"`, `"s3/song"`, `"s3/a/b"`) co-locates
//! on one shard and single-subtree queries never cross shards, while
//! distinct top-level names spread by hash.
//!
//! Each shard is a full PR 5/6 durable store: its own WAL segment
//! stream, its own snapshot manifests, its own self-verifying merkle
//! store root. That makes recovery embarrassingly parallel —
//! [`ShardedStore::open`] recovers every shard concurrently on the
//! [`aqua_exec`] pool — and makes the global integrity story a fold:
//! per-shard store roots combine into one [global root](fold_shard_roots)
//! (each leaf domain-tagged with its shard ordinal), so the
//! self-verification PR 6 proves per shard extends to the whole store.
//!
//! Routing is **stable**: the shard of a path is a pure function of
//! `(path, shard_count)`, and the shard count is pinned by a layout
//! manifest (`shards.meta`) written at creation — reopening with a
//! different count is refused with [`StoreError::ShardLayout`] instead
//! of silently re-routing extents away from their data.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use aqua_guard::{failpoint, Metrics};
use aqua_object::{ClassDef, ClassId, Oid, Value};

use aqua_algebra::{List, NodeId, Tree};

use crate::codec::{IndexSpec, WalRecord};
use crate::error::{Result, StoreError, TxnError};
use crate::merkle::{self, Root, Sha256};
use crate::recovery::{DurableConfig, DurableStore, RecoveryReport};
use crate::txn::{
    participant_probe, ShardTxn, TxnReceipt, TXN_DECIDE_CRASH, TXN_OUTCOME_CRASH, TXN_PREPARE_CRASH,
};
use crate::wal::{list_segments, scan_segment, Wal, WalConfig};

/// The layout manifest file pinning the shard count.
pub const SHARD_META: &str = "shards.meta";

/// Directory of the coordinator transaction log (decision frames only),
/// in the same rotating-segment format as the shard WALs.
pub const TXN_LOG_DIR: &str = "txn.log";

/// Directory of the rebalance migration log (`RebalanceBegin` /
/// `RebalanceMoved` / `RebalanceCommit` frames, same rotating-segment
/// format). Advisory: the durable migration *stanza* in `shards.meta`
/// plus per-shard state inspection are the correctness ground truth;
/// this log exists for observability and to let a resume skip
/// re-deriving what already moved.
pub const REBALANCE_LOG_DIR: &str = "rebalance.log";

/// Failpoint checked at the top of every routed mutation — arm it to
/// inject shard-level faults without involving the transaction layer.
pub const SHARD_ROUTE_PROBE: &str = "store.shard.route";

/// Failpoint checked before the global-root fold in
/// [`ShardedStore::open`] — arm it to simulate a store whose per-shard
/// recoveries succeed but whose integrity fold cannot be served.
pub const SHARD_FOLD_PROBE: &str = "store.shard.fold";

/// A path-addressed extent name: the `/`-separated string spelling of a
/// `Vec<Vec<u8>>` path hierarchy. `"s3/doc"` is the extent `doc` under
/// the top-level subtree `s3`; `""` is the root path (depth 0).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExtentPath {
    segments: Vec<Vec<u8>>,
}

impl ExtentPath {
    /// The empty (root) path.
    pub fn root() -> ExtentPath {
        ExtentPath {
            segments: Vec::new(),
        }
    }

    /// Parse a `/`-separated extent name. Empty segments are dropped, so
    /// `"a//b"`, `"/a/b"`, and `"a/b"` all name the same path; `""` is
    /// the root path.
    pub fn parse(name: &str) -> ExtentPath {
        ExtentPath {
            segments: name
                .split('/')
                .filter(|s| !s.is_empty())
                .map(|s| s.as_bytes().to_vec())
                .collect(),
        }
    }

    /// Build from raw segments (the `Vec<Vec<u8>>` spelling).
    pub fn from_segments(segments: Vec<Vec<u8>>) -> ExtentPath {
        ExtentPath { segments }
    }

    /// The path's segments, top-level first.
    pub fn segments(&self) -> &[Vec<u8>] {
        &self.segments
    }

    /// Nesting depth (0 for the root path).
    pub fn depth(&self) -> usize {
        self.segments.len()
    }

    /// Append one segment, returning the child path.
    pub fn child(&self, segment: &[u8]) -> ExtentPath {
        let mut segments = self.segments.clone();
        segments.push(segment.to_vec());
        ExtentPath { segments }
    }
}

impl fmt::Display for ExtentPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{}", String::from_utf8_lossy(s))?;
        }
        Ok(())
    }
}

/// Maps extent paths to shards. Pure function of `(path, shard_count)`:
/// the same path always routes to the same shard, across processes and
/// across recovery. Routing keys on the **top-level segment** only, so a
/// whole path subtree co-locates on one shard; the root path routes to
/// shard 0.
///
/// The router is **epoch-aware**: every completed layout change bumps
/// the monotonically increasing layout epoch pinned in `shards.meta`,
/// and during a migration the router carries a *dual-route window* —
/// [`route`](Self::route) answers with the new layout's owner while
/// [`route_old`](Self::route_old) still knows the previous one, so
/// lookups can try the new home first and fall back to wherever a
/// not-yet-moved subtree still lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
    /// Layout epoch this router was built from (0 for ad-hoc routers).
    epoch: u64,
    /// During a migration window: the shard count being migrated
    /// *away from* — the fallback layout for dual-route lookups.
    from: Option<usize>,
}

impl ShardRouter {
    /// A router over `shards` shards (clamped to ≥ 1), outside any
    /// migration window, at the unpinned epoch 0.
    pub fn new(shards: usize) -> ShardRouter {
        ShardRouter {
            shards: shards.max(1),
            epoch: 0,
            from: None,
        }
    }

    /// A settled (non-migrating) router at a pinned layout epoch.
    pub fn at_epoch(shards: usize, epoch: u64) -> ShardRouter {
        ShardRouter {
            epoch,
            ..ShardRouter::new(shards)
        }
    }

    /// A dual-route window: `route` targets the `to` layout, `route_old`
    /// still answers for the `from` layout being migrated away from.
    pub fn migrating(from: usize, to: usize, epoch: u64) -> ShardRouter {
        ShardRouter {
            shards: to.max(1),
            epoch,
            from: Some(from.max(1)),
        }
    }

    /// How many shards this router spreads over (the *target* layout
    /// during a migration window).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The layout epoch this router answers for.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a migration window is open (dual-route active).
    pub fn is_migrating(&self) -> bool {
        self.from.is_some()
    }

    /// FNV-1a over the top-level segment. 64-bit, fixed offsets: stable
    /// across platforms and process runs by construction.
    fn hash_top(segment: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in segment {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The shard owning `path`. The root path (depth 0) lives on shard 0.
    pub fn route(&self, path: &ExtentPath) -> usize {
        match path.segments().first() {
            None => 0,
            Some(top) => (Self::hash_top(top) % self.shards as u64) as usize,
        }
    }

    /// [`route`](Self::route) on the string spelling of a path.
    pub fn route_name(&self, name: &str) -> usize {
        self.route(&ExtentPath::parse(name))
    }

    /// The shard that owned `path` under the layout being migrated away
    /// from — `None` outside a migration window, or when both layouts
    /// agree on the owner (nothing to fall back to).
    pub fn route_old(&self, path: &ExtentPath) -> Option<usize> {
        let from = self.from?;
        let old = match path.segments().first() {
            None => 0,
            Some(top) => (Self::hash_top(top) % from as u64) as usize,
        };
        (old != self.route(path)).then_some(old)
    }

    /// [`route_old`](Self::route_old) on the string spelling of a path.
    pub fn route_old_name(&self, name: &str) -> Option<usize> {
        self.route_old(&ExtentPath::parse(name))
    }
}

/// Tuning for a [`ShardedStore`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Shard count used when *creating* the store. Reopening an existing
    /// directory must agree with its pinned layout (see
    /// [`StoreError::ShardLayout`]).
    pub shards: usize,
    /// Per-shard durable-store tuning (every shard gets a clone).
    pub shard: DurableConfig,
    /// Worker threads for parallel shard recovery (0 = one per shard,
    /// capped at the hardware parallelism).
    pub recovery_threads: usize,
    /// Layout epoch the opener expects (`None` = accept whatever is
    /// pinned). A stale opener — one still pinned to the epoch a
    /// completed rebalance superseded — is refused with a typed
    /// [`StoreError::ShardLayout`] *by epoch*, not by raw shard count:
    /// two layouts can even share a count and still be different
    /// routings' generations.
    pub pin_epoch: Option<u64>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 1,
            shard: DurableConfig::default(),
            recovery_threads: 0,
            pin_epoch: None,
        }
    }
}

impl ShardedConfig {
    /// Default per-shard tuning at `shards` shards.
    pub fn with_shards(shards: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            ..ShardedConfig::default()
        }
    }

    /// Resolve the recovery degree for `shards` shards.
    fn recovery_degree(&self, shards: usize) -> usize {
        let cap = if self.recovery_threads == 0 {
            aqua_exec::available_threads()
        } else {
            self.recovery_threads
        };
        cap.clamp(1, shards.max(1))
    }
}

/// What [`ShardedStore::open`] found and did: one [`RecoveryReport`] per
/// shard, plus the global root folded from the per-shard roots the
/// recoveries self-verified.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedRecoveryReport {
    /// Per-shard reports, in shard order.
    pub shards: Vec<RecoveryReport>,
    /// Fold of the per-shard store roots (see [`fold_shard_roots`]).
    pub global_root: Root,
    /// Worker threads the parallel recovery actually used.
    pub recovery_threads: usize,
    /// Prepared transactions the resolution pass rolled forward.
    pub txns_committed: u64,
    /// Prepared transactions the resolution pass rolled back (includes
    /// the presumed ones).
    pub txns_aborted: u64,
    /// Rolled-back transactions with *no* decision anywhere — aborted by
    /// presumption (the prepare was durable but the coordinator never
    /// decided, so the client was never acknowledged).
    pub txns_resolved_by_presumption: u64,
    /// Torn-tail bytes truncated from the coordinator log.
    pub coordinator_bytes_truncated: u64,
    /// Subtree moves the open completed while resuming an interrupted
    /// rebalance (0 when no migration stanza was pinned).
    pub rebalance_resumed_moves: u64,
    /// The layout epoch the store serves at (after any resume).
    pub layout_epoch: u64,
}

impl ShardedRecoveryReport {
    /// Whether every shard — and the coordinator log — recovered
    /// without damage.
    pub fn clean(&self) -> bool {
        self.shards.iter().all(RecoveryReport::clean) && self.coordinator_bytes_truncated == 0
    }

    /// Total WAL frames replayed across shards.
    pub fn frames_replayed(&self) -> u64 {
        self.shards.iter().map(|r| r.frames_replayed).sum()
    }

    /// Total torn-tail bytes truncated across shards.
    pub fn bytes_truncated(&self) -> u64 {
        self.shards.iter().map(|r| r.bytes_truncated).sum()
    }

    /// Stamp every shard's report into `m`, plus the shard counters
    /// (`shard_recoveries` counts per-shard opens) and what the
    /// transaction-resolution pass decided.
    pub fn stamp(&self, m: &Metrics) {
        for r in &self.shards {
            r.stamp(m);
        }
        m.shard_recoveries.add(self.shards.len() as u64);
        m.txn_committed.add(self.txns_committed);
        m.txn_aborted.add(self.txns_aborted);
        m.txn_presumed_abort.add(self.txns_resolved_by_presumption);
        m.rebalance_resumed.add(self.rebalance_resumed_moves);
    }

    /// Single-line JSON for CI artifacts.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"shards\":{},\"recovery_threads\":{},\"global_root\":\"{}\",\
             \"txns_committed\":{},\"txns_aborted\":{},\"txns_resolved_by_presumption\":{},\
             \"coordinator_bytes_truncated\":{},\"rebalance_resumed_moves\":{},\
             \"layout_epoch\":{},\"reports\":[",
            self.shards.len(),
            self.recovery_threads,
            self.global_root.to_hex(),
            self.txns_committed,
            self.txns_aborted,
            self.txns_resolved_by_presumption,
            self.coordinator_bytes_truncated,
            self.rebalance_resumed_moves,
            self.layout_epoch,
        );
        for (i, r) in self.shards.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&r.to_json());
        }
        s.push_str("]}");
        s
    }
}

impl fmt::Display for ShardedRecoveryReport {
    /// Compact human rendering: a totals line, the transaction
    /// resolution verdicts when any, then one indented line per shard
    /// (each the shard's own [`RecoveryReport`] rendering).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shards on {} threads: {} frames replayed, {}, global root {}",
            self.shards.len(),
            self.recovery_threads,
            self.frames_replayed(),
            if self.clean() {
                "clean".to_string()
            } else {
                format!(
                    "{} bytes truncated ({} coordinator)",
                    self.bytes_truncated() + self.coordinator_bytes_truncated,
                    self.coordinator_bytes_truncated
                )
            },
            &self.global_root.to_hex()[..12],
        )?;
        if self.txns_committed + self.txns_aborted > 0 {
            write!(
                f,
                "; txns: {} rolled forward, {} rolled back ({} by presumption)",
                self.txns_committed, self.txns_aborted, self.txns_resolved_by_presumption
            )?;
        }
        if self.rebalance_resumed_moves > 0 {
            write!(
                f,
                "; rebalance resumed: {} subtree moves completed (now epoch {})",
                self.rebalance_resumed_moves, self.layout_epoch
            )?;
        }
        for (i, r) in self.shards.iter().enumerate() {
            write!(f, "\n  shard {i:03}: {r}")?;
        }
        Ok(())
    }
}

/// Fold per-shard store roots into the global root. Each leaf is
/// domain-tagged with its shard ordinal, so shard order (and count) is
/// bound into the fold — swapping two shards' contents changes the
/// global root even if the multiset of roots is unchanged.
pub fn fold_shard_roots(roots: &[Root]) -> Root {
    let leaves: Vec<Root> = roots
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut h = Sha256::new();
            h.update(b"aqua-shard-v1");
            h.update(&(i as u32).to_le_bytes());
            h.update(&r.0);
            Root(h.finish())
        })
        .collect();
    merkle::merkle_root(&leaves)
}

/// Directory name of shard `i`.
pub fn shard_dir_name(i: usize) -> String {
    format!("shard-{i:03}")
}

/// The parsed layout manifest (`shards.meta`): the pinned shard count,
/// the monotonically increasing layout epoch, and — while a rebalance
/// is in flight — the durable migration stanza naming the target count.
/// The stanza is written (and fsync'd) *before* the first subtree
/// moves, so any open that sees it knows to resume the migration before
/// the global-root fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayoutMeta {
    /// The settled shard count (the *source* count mid-migration).
    pub shards: usize,
    /// Layout epoch; bumped by every completed rebalance.
    pub epoch: u64,
    /// Migration stanza: the shard count being migrated to, if a
    /// rebalance began but has not committed its final layout.
    pub migrating_to: Option<usize>,
}

impl ShardLayoutMeta {
    /// A settled layout (no migration in flight).
    pub fn settled(shards: usize, epoch: u64) -> ShardLayoutMeta {
        ShardLayoutMeta {
            shards: shards.max(1),
            epoch,
            migrating_to: None,
        }
    }

    /// The epoch the layout will have once any in-flight migration
    /// resolves — what a [`ShardedConfig::pin_epoch`] check compares
    /// against, since `open` resumes the migration before serving.
    pub fn resolved_epoch(&self) -> u64 {
        self.epoch + u64::from(self.migrating_to.is_some())
    }
}

fn meta_corrupt(dir: &Path, msg: impl Into<String>) -> StoreError {
    StoreError::ShardLayout {
        dir: dir.display().to_string(),
        msg: msg.into(),
    }
}

/// Read and verify `shards.meta`. The file is framed exactly like a WAL
/// record — `[payload len u32 LE][crc32 u32 LE][payload]` — so a torn
/// write, a truncation, or a bit flip is caught by length or checksum
/// and refused with a typed [`StoreError::ShardLayout`] instead of
/// being trusted as written.
pub(crate) fn read_meta(dir: &Path) -> Result<Option<ShardLayoutMeta>> {
    let path = dir.join(SHARD_META);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io("read", path.display(), e)),
    };
    if bytes.len() < 8 {
        return Err(meta_corrupt(
            dir,
            format!(
                "{SHARD_META} torn: {} bytes is shorter than a frame",
                bytes.len()
            ),
        ));
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("width")) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("width"));
    if bytes.len() != 8 + len {
        return Err(meta_corrupt(
            dir,
            format!(
                "{SHARD_META} torn: frame claims {len} payload bytes, file carries {}",
                bytes.len().saturating_sub(8)
            ),
        ));
    }
    let payload = &bytes[8..];
    if crate::codec::crc32(payload) != crc {
        return Err(meta_corrupt(
            dir,
            format!("{SHARD_META} failed its checksum (bit flip or torn rewrite)"),
        ));
    }
    let text = std::str::from_utf8(payload)
        .map_err(|_| meta_corrupt(dir, format!("{SHARD_META} payload is not UTF-8")))?;
    let mut lines = text.lines();
    if lines.next() != Some("aqua-shards v2") {
        return Err(meta_corrupt(dir, "unrecognized shards.meta header"));
    }
    let shards = lines
        .next()
        .and_then(|l| l.strip_prefix("shards "))
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| meta_corrupt(dir, "shards.meta carries no valid shard count"))?;
    let epoch = lines
        .next()
        .and_then(|l| l.strip_prefix("epoch "))
        .and_then(|n| n.parse::<u64>().ok())
        .filter(|&e| e >= 1)
        .ok_or_else(|| meta_corrupt(dir, "shards.meta carries no valid layout epoch"))?;
    let migrating_to = match lines.next() {
        None => None,
        Some(l) => Some(
            l.strip_prefix("migrating_to ")
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .ok_or_else(|| meta_corrupt(dir, "shards.meta carries an invalid stanza line"))?,
        ),
    };
    if lines.next().is_some() {
        return Err(meta_corrupt(dir, "shards.meta carries trailing lines"));
    }
    Ok(Some(ShardLayoutMeta {
        shards,
        epoch,
        migrating_to,
    }))
}

/// Durably write `shards.meta`: CRC-framed payload, tmp + fsync +
/// atomic rename (+ directory fsync), so a crash leaves either the old
/// manifest or the new one — never a torn mix.
pub(crate) fn write_meta(dir: &Path, meta: ShardLayoutMeta) -> Result<()> {
    let mut payload = format!(
        "aqua-shards v2\nshards {}\nepoch {}\n",
        meta.shards, meta.epoch
    );
    if let Some(to) = meta.migrating_to {
        use std::fmt::Write as _;
        let _ = writeln!(payload, "migrating_to {to}");
    }
    let mut bytes = Vec::with_capacity(8 + payload.len());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crate::codec::crc32(payload.as_bytes()).to_le_bytes());
    bytes.extend_from_slice(payload.as_bytes());

    let path = dir.join(SHARD_META);
    let tmp = dir.join(format!("{SHARD_META}.tmp"));
    {
        let mut f =
            std::fs::File::create(&tmp).map_err(|e| StoreError::io("create", tmp.display(), e))?;
        use std::io::Write as _;
        f.write_all(&bytes)
            .map_err(|e| StoreError::io("write", tmp.display(), e))?;
        f.sync_all()
            .map_err(|e| StoreError::io("fsync", tmp.display(), e))?;
    }
    std::fs::rename(&tmp, &path).map_err(|e| StoreError::io("rename", path.display(), e))?;
    // Make the rename itself durable (best effort on platforms where
    // directories cannot be opened for sync).
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// What a scan of the coordinator log yields: every decision, the next
/// coordinator LSN, and how many torn-tail bytes were discarded.
struct TxnLogScan {
    /// `txn_id → committed` for every decision frame.
    decisions: BTreeMap<u64, bool>,
    /// LSN the next decision frame will take.
    next_lsn: u64,
    /// Torn-tail bytes truncated (and orphan segments dropped).
    bytes_truncated: u64,
}

/// Scan (and repair) the coordinator log: decision frames only, strict
/// LSN continuity, torn tails truncated exactly like a shard WAL. A
/// checksum-valid frame that is not a decision — or a decision that
/// contradicts an earlier one for the same transaction — is
/// [`TxnError::DecisionUnreadable`]: the CRC vouches for the bytes, so
/// this is writer garbage recovery refuses to guess around.
fn scan_txn_log(dir: &Path) -> Result<TxnLogScan> {
    let mut out = TxnLogScan {
        decisions: BTreeMap::new(),
        next_lsn: 1,
        bytes_truncated: 0,
    };
    let segs = list_segments(dir)?;
    for (i, (_, path)) in segs.iter().enumerate() {
        let scan = scan_segment(path)?;
        for (lsn, rec, _) in &scan.frames {
            if *lsn != out.next_lsn {
                return Err(TxnError::DecisionUnreadable {
                    path: path.display().to_string(),
                    msg: format!("expected lsn {}, log continues at {lsn}", out.next_lsn),
                }
                .into());
            }
            let (txn_id, committed) = match rec {
                WalRecord::TxnCommit { txn_id } => (*txn_id, true),
                WalRecord::TxnAbort { txn_id } => (*txn_id, false),
                other => {
                    return Err(TxnError::DecisionUnreadable {
                        path: path.display().to_string(),
                        msg: format!("frame at lsn {lsn} is not a decision: {other:?}"),
                    }
                    .into())
                }
            };
            match out.decisions.get(&txn_id) {
                Some(prev) if *prev != committed => {
                    return Err(TxnError::DecisionUnreadable {
                        path: path.display().to_string(),
                        msg: format!(
                            "txn {txn_id} decided {} at lsn {lsn} but {} earlier",
                            verdict(committed),
                            verdict(*prev)
                        ),
                    }
                    .into())
                }
                _ => {
                    out.decisions.insert(txn_id, committed);
                }
            }
            out.next_lsn += 1;
        }
        if scan.torn() {
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| StoreError::io("open", path.display(), e))?;
            f.set_len(scan.valid_len)
                .map_err(|e| StoreError::io("truncate", path.display(), e))?;
            f.sync_data()
                .map_err(|e| StoreError::io("fsync", path.display(), e))?;
            out.bytes_truncated += scan.file_len - scan.valid_len;
            for (_, later) in &segs[i + 1..] {
                if let Ok(meta) = std::fs::metadata(later) {
                    out.bytes_truncated += meta.len();
                }
                std::fs::remove_file(later)
                    .map_err(|e| StoreError::io("remove", later.display(), e))?;
            }
            break;
        }
    }
    Ok(out)
}

fn verdict(committed: bool) -> &'static str {
    if committed {
        "commit"
    } else {
        "abort"
    }
}

/// The coordinator frame spelling a decision.
fn decision_record(txn_id: u64, committed: bool) -> WalRecord {
    if committed {
        WalRecord::TxnCommit { txn_id }
    } else {
        WalRecord::TxnAbort { txn_id }
    }
}

/// The failpoint names a [`two_phase_commit`](ShardedStore::two_phase_commit)
/// run checks at its phase boundaries. User commits pass the `txn.*`
/// spellings; rebalance subtree moves pass the `rebalance.*` spellings so
/// chaos harnesses can kill one protocol without disturbing the other.
pub(crate) struct PhaseProbes {
    pub prepare: &'static str,
    pub decide: &'static str,
    pub outcome: &'static str,
}

/// Probe names for ordinary cross-shard transaction commits.
pub(crate) const TXN_PROBES: PhaseProbes = PhaseProbes {
    prepare: TXN_PREPARE_CRASH,
    decide: TXN_DECIDE_CRASH,
    outcome: TXN_OUTCOME_CRASH,
};

/// N [`DurableStore`] shards behind a [`ShardRouter`]. Every mutation
/// routes to the owning shard's validate → log → apply path; recovery
/// opens all shards in parallel; integrity folds per-shard roots into a
/// [global root](Self::global_root). Cross-shard writes commit through
/// the two-phase protocol of [`commit`](Self::commit) (see
/// [`crate::txn`]).
#[derive(Debug)]
pub struct ShardedStore {
    pub(crate) dir: PathBuf,
    pub(crate) router: ShardRouter,
    pub(crate) shards: Vec<DurableStore>,
    /// Coordinator decision log (`txn.log/`).
    pub(crate) txn_log: Wal,
    /// Next transaction id — past every id the coordinator log or any
    /// participant has ever seen, so ids never repeat across crashes.
    pub(crate) next_txn_id: u64,
    /// Per-shard tuning, kept so a rebalance can open the shards a grow
    /// adds with the same configuration the existing ones run.
    pub(crate) shard_cfg: DurableConfig,
    pub(crate) metrics: Option<Metrics>,
}

impl ShardedStore {
    /// Open (and recover) the sharded store in `dir`, creating it with
    /// `cfg.shards` shards if absent. Existing directories pin their
    /// layout (count + epoch) in `shards.meta`; a disagreeing
    /// `cfg.shards` (other than the "use what's there" default of
    /// matching) is refused with [`StoreError::ShardLayout`], and a
    /// `cfg.pin_epoch` that disagrees with the resolved layout epoch is
    /// refused the same way — the stale-opener guard. Shards recover
    /// **in parallel** on the [`aqua_exec`] pool, each through the full
    /// self-verifying [`DurableStore::open`] path. If a migration
    /// stanza is pinned, the interrupted rebalance is **resumed to
    /// completion** (after transaction resolution, before the
    /// global-root fold), so the store always serves a settled layout.
    pub fn open(dir: &Path, cfg: ShardedConfig) -> Result<(ShardedStore, ShardedRecoveryReport)> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("create_dir", dir.display(), e))?;
        let meta = match read_meta(dir)? {
            Some(pinned) => {
                // Mid-migration the store answers for both layouts, so
                // an opener naming either count is current enough.
                let agreeable = cfg.shards == 0
                    || cfg.shards == pinned.shards
                    || pinned.migrating_to == Some(cfg.shards);
                if !agreeable {
                    return Err(StoreError::ShardLayout {
                        dir: dir.display().to_string(),
                        msg: format!(
                            "store is pinned at {} shards (epoch {}), reopen asked for {} \
                             (routing must stay stable: same path → same shard; change the \
                             layout with rebalance, not by reopening)",
                            pinned.shards, pinned.epoch, cfg.shards
                        ),
                    });
                }
                pinned
            }
            None => {
                // A coordinator log with no layout pin means the
                // manifest was lost or deleted: re-deriving a shard
                // count here could re-route extents (and orphan
                // prepares) away from their data.
                if dir.join(TXN_LOG_DIR).is_dir() {
                    return Err(StoreError::ShardLayout {
                        dir: dir.display().to_string(),
                        msg: format!(
                            "coordinator log {TXN_LOG_DIR}/ exists but {SHARD_META} is missing; \
                             refusing to re-derive a shard count"
                        ),
                    });
                }
                let meta = ShardLayoutMeta::settled(cfg.shards.max(1), 1);
                write_meta(dir, meta)?;
                meta
            }
        };
        // Stale-opener guard, checked by *epoch* before any recovery
        // work: a pinned opener that predates a completed (or
        // about-to-be-resumed) rebalance must not see the new layout.
        if let Some(pin) = cfg.pin_epoch {
            if pin != meta.resolved_epoch() {
                return Err(StoreError::ShardLayout {
                    dir: dir.display().to_string(),
                    msg: format!(
                        "opener is pinned to layout epoch {pin} but the store resolves to \
                         epoch {} — reopen without the stale pin",
                        meta.resolved_epoch()
                    ),
                });
            }
        }

        let shards = meta.shards;
        // Mid-migration both layouts' shards must come up: the source
        // ones still hold unmoved subtrees, the target ones receive.
        let open_count = meta.migrating_to.map_or(shards, |to| shards.max(to));
        let dirs: Vec<PathBuf> = (0..open_count)
            .map(|i| dir.join(shard_dir_name(i)))
            .collect();
        let degree = cfg.recovery_degree(open_count);
        let shard_cfg = &cfg.shard;
        let opened: Vec<(DurableStore, RecoveryReport)> =
            aqua_exec::try_par_map(&dirs, degree, |_, d| {
                DurableStore::open(d, shard_cfg.clone())
            })?;

        let mut stores = Vec::with_capacity(open_count);
        let mut report = ShardedRecoveryReport {
            recovery_threads: degree,
            ..ShardedRecoveryReport::default()
        };
        for (ds, rep) in opened {
            report.shards.push(rep);
            stores.push(ds);
        }

        // Transaction resolution: every orphaned prepare must be rolled
        // forward or back *before* the global root fold, so the fold
        // certifies a store with no half-applied transactions.
        let txn_dir = dir.join(TXN_LOG_DIR);
        std::fs::create_dir_all(&txn_dir)
            .map_err(|e| StoreError::io("create_dir", txn_dir.display(), e))?;
        let scan = scan_txn_log(&txn_dir)?;
        report.coordinator_bytes_truncated = scan.bytes_truncated;
        let mut decisions = scan.decisions;
        let mut txn_log = Wal::open(
            &txn_dir,
            scan.next_lsn,
            WalConfig {
                segment_bytes: cfg.shard.segment_bytes,
            },
        )?;

        // Participant evidence: an outcome frame replayed from any
        // shard's WAL is durable proof of the coordinator's decision —
        // strong enough to survive losing the coordinator log entirely.
        // Re-log any decision the coordinator lost, and refuse a log
        // that *contradicts* an applied outcome.
        let mut relogged = false;
        for s in &stores {
            for &(txn_id, committed) in s.replayed_txn_outcomes() {
                match decisions.get(&txn_id) {
                    Some(prev) if *prev != committed => {
                        return Err(TxnError::DecisionUnreadable {
                            path: txn_dir.display().to_string(),
                            msg: format!(
                                "coordinator log says {} for txn {txn_id} but a participant \
                                 durably applied {}",
                                verdict(*prev),
                                verdict(committed)
                            ),
                        }
                        .into());
                    }
                    Some(_) => {}
                    None => {
                        txn_log.append_with_root(&decision_record(txn_id, committed), None)?;
                        decisions.insert(txn_id, committed);
                        relogged = true;
                    }
                }
            }
        }

        // Resolve every pending prepare. With a decision (logged or
        // evidenced): follow it. Without: presumed abort — the prepare
        // was durable but no decision exists anywhere, so the client
        // was never acknowledged and rollback is the consistent choice.
        //
        // Divergence checks must see the store *as recovery found it*:
        // resolving a shard removes its pending entry, so a transaction
        // spanning shards 0 and 1 would otherwise lose shard 0's trace
        // by the time shard 1's copy is examined. Snapshot the evidence
        // first.
        let traces: Vec<BTreeSet<u64>> = stores
            .iter()
            .map(|s| {
                s.pending_txns()
                    .into_iter()
                    .chain(s.replayed_txn_outcomes().iter().map(|&(t, _)| t))
                    .collect()
            })
            .collect();
        let mut committed_ids = BTreeSet::new();
        let mut aborted_ids = BTreeSet::new();
        let mut presumed_ids = BTreeSet::new();
        for i in 0..stores.len() {
            for txn_id in stores[i].pending_txns() {
                let decision = decisions.get(&txn_id).copied();
                if decision == Some(true) {
                    // Every participant the prepare enrolled must hold
                    // its half (pending or already applied) — a missing
                    // one diverged from what the coordinator certified.
                    let participants: Vec<u32> = stores[i]
                        .pending_participants(txn_id)
                        .map(<[u32]>::to_vec)
                        .unwrap_or_default();
                    for &p in &participants {
                        let ps = p as usize;
                        let has_trace = ps < stores.len() && traces[ps].contains(&txn_id);
                        if !has_trace {
                            return Err(TxnError::ParticipantDiverged {
                                txn_id,
                                shard: ps,
                                expected: "a pending prepare or an applied outcome".to_string(),
                                actual: "no trace of the transaction".to_string(),
                            }
                            .into());
                        }
                    }
                }
                let commit = match decision {
                    Some(d) => d,
                    None => {
                        txn_log.append_with_root(&decision_record(txn_id, false), None)?;
                        decisions.insert(txn_id, false);
                        relogged = true;
                        presumed_ids.insert(txn_id);
                        false
                    }
                };
                stores[i].txn_resolve(txn_id, commit).map_err(|e| match e {
                    // A roll-forward landing off the prepare's root
                    // binding is divergence, localized to this shard.
                    StoreError::IntegrityMismatch {
                        expected, actual, ..
                    } => TxnError::ParticipantDiverged {
                        txn_id,
                        shard: i,
                        expected,
                        actual,
                    }
                    .into(),
                    e => e,
                })?;
                if commit {
                    committed_ids.insert(txn_id);
                } else {
                    aborted_ids.insert(txn_id);
                }
            }
        }
        if relogged {
            txn_log.sync()?;
        }
        report.txns_committed = committed_ids.len() as u64;
        report.txns_aborted = aborted_ids.len() as u64;
        report.txns_resolved_by_presumption = presumed_ids.len() as u64;

        // Ids never repeat: start past everything any log has seen.
        let max_seen = decisions
            .keys()
            .max()
            .copied()
            .into_iter()
            .chain(
                stores
                    .iter()
                    .flat_map(|s| s.replayed_txn_outcomes().iter().map(|&(t, _)| t)),
            )
            .max()
            .unwrap_or(0);

        let router = match meta.migrating_to {
            None => ShardRouter::at_epoch(shards, meta.epoch),
            Some(to) => ShardRouter::migrating(shards, to, meta.epoch),
        };
        let mut ss = ShardedStore {
            dir: dir.to_path_buf(),
            router,
            shards: stores,
            txn_log,
            next_txn_id: max_seen + 1,
            shard_cfg: cfg.shard.clone(),
            metrics: None,
        };
        if let Some(to) = meta.migrating_to {
            // Resume the interrupted rebalance before the fold: the
            // domain-tagged global root must match the settled layout.
            report.rebalance_resumed_moves = ss.resume_rebalance(meta, to)?;
        } else {
            ss.sweep_rebalance_leftovers()?;
        }
        report.layout_epoch = ss.layout_epoch();
        failpoint::check(SHARD_FOLD_PROBE)?;
        report.global_root = ss.global_root();
        Ok((ss, report))
    }

    /// Where the store lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The router (stable for the life of the directory).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The layout epoch this store serves at (bumped by every completed
    /// rebalance; distinct from the per-shard *mutation* epochs of
    /// [`epochs`](Self::epochs)).
    pub fn layout_epoch(&self) -> u64 {
        self.router.epoch()
    }

    /// The shard owning the named extent. Outside a migration this is
    /// the router's pure hash; inside the dual-route window, lookups
    /// try the new layout's owner first and fall back to the old
    /// layout's owner while the subtree has not moved yet.
    pub fn shard_of(&self, name: &str) -> usize {
        let new = self.router.route_name(name);
        if let Some(old) = self.router.route_old_name(name) {
            let holds = |s: usize| {
                let st = &self.shards[s];
                st.tree(name).is_some() || st.list(name).is_some()
            };
            if !holds(new) && holds(old) {
                return old;
            }
        }
        new
    }

    /// Shard `i`, read-only.
    pub fn shard(&self, i: usize) -> &DurableStore {
        &self.shards[i]
    }

    /// Shard `i`, mutable (for shard-local maintenance like
    /// [`DurableStore::refresh_indexes`]).
    pub fn shard_mut(&mut self, i: usize) -> &mut DurableStore {
        &mut self.shards[i]
    }

    /// All shards, in shard order.
    pub fn shards(&self) -> &[DurableStore] {
        &self.shards
    }

    /// Arm every shard with `m` so WAL/checkpoint traffic is counted,
    /// and the coordinator so transaction phases are.
    pub fn set_metrics(&mut self, m: Metrics) {
        for s in &mut self.shards {
            s.set_metrics(m.clone());
        }
        self.metrics = Some(m);
    }

    /// The failpoint-guarded routing path every mutation goes through.
    fn route_checked(&self, name: &str) -> Result<usize> {
        failpoint::check(SHARD_ROUTE_PROBE)?;
        Ok(self.shard_of(name))
    }

    /// Per-shard mutation epochs, in shard order.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(DurableStore::epoch).collect()
    }

    /// The global root: fold of every shard's store root. With
    /// authentication on this is the one hash that commits the entire
    /// sharded state.
    pub fn global_root(&self) -> Root {
        fold_shard_roots(
            &self
                .shards
                .iter()
                .map(DurableStore::store_root)
                .collect::<Vec<_>>(),
        )
    }

    /// Define a class on **every** shard (schema is global; each shard's
    /// deterministic [`ClassId`] assignment sees the same definition
    /// sequence, so the ids agree across shards).
    pub fn define_class(&mut self, def: ClassDef) -> Result<ClassId> {
        failpoint::check(SHARD_ROUTE_PROBE)?;
        let mut id = None;
        for s in &mut self.shards {
            let got = s.define_class(def.clone())?;
            match id {
                None => id = Some(got),
                Some(prev) => debug_assert_eq!(prev, got, "class ids agree across shards"),
            }
        }
        id.ok_or_else(|| StoreError::ShardLayout {
            dir: self.dir.display().to_string(),
            msg: "store has zero shards".to_string(),
        })
    }

    /// Insert an object into the shard owning `owner` (the extent path
    /// that will reference it). Returns `(shard, oid)` — OIDs are
    /// shard-local.
    pub fn insert(&mut self, owner: &str, class: ClassId, row: Vec<Value>) -> Result<(usize, Oid)> {
        let sh = self.route_checked(owner)?;
        let oid = self.shards[sh].insert(class, row)?;
        Ok((sh, oid))
    }

    /// Durably create (or wholly replace) a tree extent at `name`.
    pub fn create_tree(&mut self, name: &str, tree: Tree) -> Result<()> {
        let sh = self.route_checked(name)?;
        self.shards[sh].create_tree(name, tree)
    }

    /// Durably insert `child` under `parent` in the named tree.
    pub fn tree_insert_child(
        &mut self,
        name: &str,
        parent: NodeId,
        index: usize,
        child: Tree,
    ) -> Result<()> {
        let sh = self.route_checked(name)?;
        self.shards[sh].tree_insert_child(name, parent, index, child)
    }

    /// Durably remove the subtree rooted at `at` from the named tree.
    pub fn tree_remove_subtree(&mut self, name: &str, at: NodeId) -> Result<()> {
        let sh = self.route_checked(name)?;
        self.shards[sh].tree_remove_subtree(name, at)
    }

    /// Durably point-update one tree node's payload OID.
    pub fn tree_set_oid(&mut self, name: &str, at: NodeId, oid: Oid) -> Result<()> {
        let sh = self.route_checked(name)?;
        self.shards[sh].tree_set_oid(name, at, oid)
    }

    /// Durably create (or reset) a list extent at `name`.
    pub fn create_list(&mut self, name: &str) -> Result<()> {
        let sh = self.route_checked(name)?;
        self.shards[sh].create_list(name)
    }

    /// Durably append to the named list.
    pub fn list_push(&mut self, name: &str, oid: Oid) -> Result<()> {
        let sh = self.route_checked(name)?;
        self.shards[sh].list_push(name, oid)
    }

    /// Durably append a labeled NULL to the named list.
    pub fn list_push_hole(&mut self, name: &str, label: &str) -> Result<()> {
        let sh = self.route_checked(name)?;
        self.shards[sh].list_push_hole(name, label)
    }

    /// Durably remove the element at `index` from the named list.
    pub fn list_remove(&mut self, name: &str, index: usize) -> Result<()> {
        let sh = self.route_checked(name)?;
        self.shards[sh].list_remove(name, index)
    }

    /// Register an index spec on the shard owning its extent
    /// (class-wide [`IndexSpec::Attr`] specs broadcast to every shard —
    /// each shard's extent is shard-local).
    pub fn register_index(&mut self, spec: IndexSpec) -> Result<()> {
        failpoint::check(SHARD_ROUTE_PROBE)?;
        match &spec {
            IndexSpec::Attr { .. } => {
                for s in &mut self.shards {
                    s.register_index(spec.clone())?;
                }
                Ok(())
            }
            IndexSpec::TreeNode { tree: name, .. } | IndexSpec::Structural { tree: name } => {
                let sh = self.shard_of(&name.clone());
                self.shards[sh].register_index(spec)
            }
            IndexSpec::ListPos { list: name, .. } => {
                let sh = self.shard_of(&name.clone());
                self.shards[sh].register_index(spec)
            }
        }
    }

    /// The named tree extent (from its owning shard).
    pub fn tree(&self, name: &str) -> Option<&Tree> {
        self.shards[self.shard_of(name)].tree(name)
    }

    /// The named list extent (from its owning shard).
    pub fn list(&self, name: &str) -> Option<&List> {
        self.shards[self.shard_of(name)].list(name)
    }

    /// Force every shard's WAL to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        for s in &mut self.shards {
            s.sync()?;
        }
        Ok(())
    }

    /// Checkpoint every shard. Returns the snapshot paths, shard order.
    pub fn checkpoint(&mut self) -> Result<Vec<PathBuf>> {
        self.shards
            .iter_mut()
            .map(DurableStore::checkpoint)
            .collect()
    }

    /// Rebuild every shard's registered indexes at its current epoch.
    pub fn refresh_indexes(&mut self) -> Result<u32> {
        let mut n = 0;
        for s in &mut self.shards {
            n += s.refresh_indexes()?;
        }
        Ok(n)
    }

    /// Begin buffering a cross-shard transaction against this store.
    pub fn begin(&self) -> ShardTxn {
        ShardTxn::begin(self)
    }

    /// Commit a buffered transaction atomically. See
    /// [`commit_gated`](Self::commit_gated).
    pub fn commit(&mut self, txn: &ShardTxn) -> Result<TxnReceipt> {
        self.commit_gated(txn, || true)
    }

    /// Commit a buffered transaction atomically, with a caller-supplied
    /// gate polled at each phase boundary *before the decision is
    /// logged* — the deadline-propagation hook: a gate returning `false`
    /// aborts cleanly (typed [`TxnError::Aborted`], nothing applied
    /// anywhere, safe to retry), never blocks, and is never consulted
    /// again once the commit decision is durable.
    ///
    /// Single-shard transactions skip the protocol: their records take
    /// the ordinary one-phase validate → log → apply path. Multi-shard
    /// transactions run presumed-abort two-phase commit: durable
    /// `TxnPrepare` frames on every participant, one decision frame in
    /// the coordinator log, then outcome frames as each participant
    /// applies. An error *after* the decision propagates raw — the
    /// transaction is committed, and the next
    /// [`open`](ShardedStore::open) completes the roll-forward.
    pub fn commit_gated(
        &mut self,
        txn: &ShardTxn,
        mut gate: impl FnMut() -> bool,
    ) -> Result<TxnReceipt> {
        let participants = txn.participants();
        if participants.is_empty() {
            return Ok(TxnReceipt {
                txn_id: None,
                participants,
                records: 0,
            });
        }
        if !gate() {
            return Err(TxnError::Aborted {
                txn_id: self.next_txn_id,
                reason: "gate refused before any phase ran".to_string(),
            }
            .into());
        }
        if let [only] = participants.as_slice() {
            // One-phase fast path: a single participant needs no
            // coordination — the shard's own WAL is the whole story.
            let sh = *only as usize;
            let records = txn.records_for(*only);
            for rec in records {
                self.shards[sh].apply_record(rec.clone())?;
            }
            self.shards[sh].sync()?;
            return Ok(TxnReceipt {
                txn_id: None,
                participants,
                records: records.len(),
            });
        }

        let buffers: BTreeMap<u32, Vec<WalRecord>> = participants
            .iter()
            .map(|&p| (p, txn.records_for(p).to_vec()))
            .collect();
        let txn_id = self.two_phase_commit(&buffers, gate, &TXN_PROBES)?;
        Ok(TxnReceipt {
            txn_id: Some(txn_id),
            participants,
            records: txn.len(),
        })
    }

    /// The multi-participant, presumed-abort two-phase-commit core —
    /// shared by cross-shard commits ([`commit_gated`](Self::commit_gated))
    /// and by rebalance subtree moves, which differ only in the buffers
    /// they prepare and the failpoint names (`probes`) checked at each
    /// phase boundary. Durable prepares per participant (ascending), one
    /// decision frame in the coordinator log, then outcome application.
    /// Injected faults propagate with **no cleanup** (simulated kills);
    /// gate refusals abort cleanly before the decision. Returns the
    /// committed transaction's id.
    pub(crate) fn two_phase_commit(
        &mut self,
        buffers: &BTreeMap<u32, Vec<WalRecord>>,
        mut gate: impl FnMut() -> bool,
        probes: &PhaseProbes,
    ) -> Result<u64> {
        let participants: Vec<u32> = buffers.keys().copied().collect();
        let txn_id = self.next_txn_id;
        self.next_txn_id += 1;
        let started = Instant::now();

        // Phase 1: durable prepares, in participant order. An injected
        // crash propagates with no cleanup (recovery presumes abort); a
        // real validation/I/O failure aborts cleanly right here.
        for &p in &participants {
            failpoint::check(probes.prepare)?;
            failpoint::check(&participant_probe(probes.prepare, p))?;
            if !gate() {
                self.abort_prepared(txn_id, &participants, p)?;
                return Err(TxnError::Aborted {
                    txn_id,
                    reason: format!("gate refused before participant {p} prepared"),
                }
                .into());
            }
            if let Err(e) =
                self.shards[p as usize].txn_prepare(txn_id, &participants, buffers[&p].clone())
            {
                if matches!(e, StoreError::Injected { .. }) {
                    // A failpoint inside the prepare path is a simulated
                    // crash, not a refusal: leave everything in place.
                    return Err(e);
                }
                self.abort_prepared(txn_id, &participants, p)?;
                return Err(TxnError::PrepareFailed {
                    txn_id,
                    shard: p as usize,
                    msg: e.to_string(),
                }
                .into());
            }
            if let Some(m) = &self.metrics {
                m.txn_prepared.inc();
            }
        }

        // Decision point. The gate gets its last word here — after this
        // frame is durable the transaction is committed, period.
        if !gate() {
            self.abort_prepared(txn_id, &participants, u32::MAX)?;
            return Err(TxnError::Aborted {
                txn_id,
                reason: "gate refused between prepare and decide (deadline expired)".to_string(),
            }
            .into());
        }
        failpoint::check(probes.decide)?;
        self.txn_log
            .append_with_root(&decision_record(txn_id, true), None)?;
        self.txn_log.sync()?;
        if let Some(m) = &self.metrics {
            m.txn_decide_us.record(started.elapsed().as_micros() as u64);
        }

        // Phase 2: outcomes. Errors (injected or real) propagate raw —
        // the decision is durable and recovery rolls the rest forward.
        for &p in &participants {
            failpoint::check(probes.outcome)?;
            failpoint::check(&participant_probe(probes.outcome, p))?;
            self.shards[p as usize].txn_resolve(txn_id, true)?;
        }
        if let Some(m) = &self.metrics {
            m.txn_committed.inc();
        }
        Ok(txn_id)
    }

    /// Clean pre-decision abort: log the abort decision, then roll back
    /// every participant before `upto` that already prepared. Leaves the
    /// store exactly as it was before the transaction began.
    fn abort_prepared(&mut self, txn_id: u64, participants: &[u32], upto: u32) -> Result<()> {
        self.txn_log
            .append_with_root(&decision_record(txn_id, false), None)?;
        self.txn_log.sync()?;
        for &p in participants.iter().take_while(|&&p| p < upto) {
            self.shards[p as usize].txn_resolve(txn_id, false)?;
        }
        if let Some(m) = &self.metrics {
            m.txn_aborted.inc();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_object::{AttrDef, AttrType};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "aqua-shard-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn note_class() -> ClassDef {
        ClassDef::new("Note", vec![AttrDef::stored("pitch", AttrType::Str)]).unwrap()
    }

    #[test]
    fn empty_path_routes_to_shard_zero() {
        for n in [1, 2, 4, 7] {
            let r = ShardRouter::new(n);
            assert_eq!(r.route(&ExtentPath::root()), 0);
            assert_eq!(r.route_name(""), 0);
            assert_eq!(r.route_name("/"), 0, "slashes alone are the root path");
        }
    }

    #[test]
    fn deep_nesting_routes_with_its_top_segment() {
        let r = ShardRouter::new(4);
        let top = r.route_name("s7");
        let mut path = ExtentPath::parse("s7");
        // 64 levels deep: still co-located with the top-level subtree.
        for d in 0..64 {
            path = path.child(format!("lvl{d}").as_bytes());
            assert_eq!(r.route(&path), top, "depth {} re-routed", path.depth());
        }
        assert_eq!(path.depth(), 65);
        // Normalization: doubled and leading slashes don't change the route.
        assert_eq!(r.route_name("s7//doc"), top);
        assert_eq!(r.route_name("/s7/doc"), top);
    }

    #[test]
    fn routing_is_a_pure_function_and_spreads() {
        let r = ShardRouter::new(4);
        let mut hit = [false; 4];
        for i in 0..64 {
            let name = format!("s{i}/doc");
            let a = r.route_name(&name);
            assert_eq!(a, r.route_name(&name), "same path, same shard");
            assert_eq!(
                a,
                ShardRouter::new(4).route_name(&name),
                "router-independent"
            );
            hit[a] = true;
        }
        assert!(
            hit.iter().all(|&h| h),
            "64 top-level names reach all 4 shards"
        );
    }

    /// Top-level names that all hash to one shard of 4 (found by search;
    /// deterministic because the hash is).
    fn colliding_names(router: &ShardRouter, want: usize) -> Vec<String> {
        let target = router.route_name("collide0");
        let mut out = vec!["collide0".to_string()];
        let mut i = 1u64;
        while out.len() < want {
            let name = format!("collide{i}");
            if router.route_name(&name) == target {
                out.push(name);
            }
            i += 1;
        }
        out
    }

    #[test]
    fn all_extents_on_one_shard_still_works() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("onehot");
        let cfg = ShardedConfig::with_shards(4);
        let (mut ss, rep) = ShardedStore::open(&dir, cfg.clone()).unwrap();
        assert!(rep.clean());
        let names = colliding_names(ss.router(), 6);
        let hot = ss.shard_of(&names[0]);
        let class = ss.define_class(note_class()).unwrap();
        for n in &names {
            let list = format!("{n}/song");
            assert_eq!(ss.shard_of(&list), hot, "co-located with its top segment");
            ss.create_list(&list).unwrap();
            let (sh, oid) = ss.insert(&list, class, vec![Value::str("E")]).unwrap();
            assert_eq!(sh, hot);
            ss.list_push(&list, oid).unwrap();
        }
        // Three shards stayed pristine, one took everything.
        let busy: Vec<usize> = (0..4).filter(|&i| ss.shard(i).epoch() > 0).collect();
        let lists: usize = ss.shards().iter().map(|s| s.lists().len()).sum();
        assert_eq!(lists, names.len());
        // define_class broadcasts, so count only extent-carrying shards.
        assert_eq!(
            busy.iter()
                .filter(|&&i| !ss.shard(i).lists().is_empty())
                .count(),
            1
        );
        ss.sync().unwrap();
        drop(ss);
        let (back, rep) = ShardedStore::open(&dir, cfg).unwrap();
        assert!(rep.clean());
        for n in &names {
            assert_eq!(back.list(&format!("{n}/song")).unwrap().len(), 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn routing_is_stable_across_recovery() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("stable");
        let cfg = ShardedConfig::with_shards(4);
        let (mut ss, _) = ShardedStore::open(&dir, cfg.clone()).unwrap();
        let class = ss.define_class(note_class()).unwrap();
        let mut routed = Vec::new();
        for i in 0..16 {
            let name = format!("p{i}/song");
            ss.create_list(&name).unwrap();
            let (sh, oid) = ss.insert(&name, class, vec![Value::str("A")]).unwrap();
            ss.list_push(&name, oid).unwrap();
            routed.push((name, sh));
        }
        ss.sync().unwrap();
        let root_before = ss.global_root();
        drop(ss);

        let (back, rep) = ShardedStore::open(&dir, cfg).unwrap();
        assert!(rep.clean());
        assert_eq!(rep.global_root, root_before, "report certifies the fold");
        assert_eq!(back.global_root(), root_before);
        for (name, sh) in &routed {
            assert_eq!(back.shard_of(name), *sh, "{name} re-routed after recovery");
            assert!(
                back.shard(*sh).list(name).is_some(),
                "{name} lives where the router says"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_count_change_is_refused() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("pin");
        let (_ss, _) = ShardedStore::open(&dir, ShardedConfig::with_shards(4)).unwrap();
        let err = ShardedStore::open(&dir, ShardedConfig::with_shards(2)).unwrap_err();
        assert!(matches!(err, StoreError::ShardLayout { .. }), "got {err:?}");
        // shards: 0 means "use what's pinned".
        let (ss, _) = ShardedStore::open(
            &dir,
            ShardedConfig {
                shards: 0,
                ..ShardedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(ss.shard_count(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_recovery_matches_serial_recovery() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("par");
        let cfg = ShardedConfig::with_shards(4);
        let (mut ss, _) = ShardedStore::open(&dir, cfg.clone()).unwrap();
        let class = ss.define_class(note_class()).unwrap();
        for i in 0..12 {
            let name = format!("t{i}/song");
            ss.create_list(&name).unwrap();
            for p in ["E", "F", "G"] {
                let (_, oid) = ss.insert(&name, class, vec![Value::str(p)]).unwrap();
                ss.list_push(&name, oid).unwrap();
            }
        }
        ss.sync().unwrap();
        drop(ss);

        let serial = ShardedConfig {
            recovery_threads: 1,
            ..cfg.clone()
        };
        let parallel = ShardedConfig {
            recovery_threads: 4,
            ..cfg
        };
        let (s1, r1) = ShardedStore::open(&dir, serial).unwrap();
        let root1 = s1.global_root();
        drop(s1);
        let (s4, r4) = ShardedStore::open(&dir, parallel).unwrap();
        // Each open starts a fresh (empty) WAL segment, so
        // segments_scanned drifts by one between opens; everything the
        // replay *produced* must agree exactly.
        for (a, b) in r1.shards.iter().zip(&r4.shards) {
            assert_eq!(a.frames_replayed, b.frames_replayed);
            assert_eq!(a.next_lsn, b.next_lsn);
            assert_eq!(a.extent_roots, b.extent_roots);
        }
        assert_eq!(r1.global_root, r4.global_root);
        assert_eq!(s4.global_root(), root1);
        assert_eq!(r4.recovery_threads, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn global_root_binds_shard_order() {
        let a = Root([1; 32]);
        let b = Root([2; 32]);
        assert_ne!(fold_shard_roots(&[a, b]), fold_shard_roots(&[b, a]));
        assert_ne!(fold_shard_roots(&[a]), fold_shard_roots(&[a, a]));
    }

    /// Two extent names `ss` routes to different shards.
    fn split_pair(ss: &ShardedStore) -> (String, String) {
        let a = "x0/song".to_string();
        let sa = ss.shard_of(&a);
        let mut i = 1u32;
        loop {
            let b = format!("x{i}/song");
            if ss.shard_of(&b) != sa {
                return (a, b);
            }
            i += 1;
        }
    }

    #[test]
    fn single_shard_txn_takes_the_fast_path() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("fastpath");
        let (mut ss, _) = ShardedStore::open(&dir, ShardedConfig::with_shards(4)).unwrap();
        let class = ss.define_class(note_class()).unwrap();
        ss.create_list("p0/song").unwrap();

        let mut txn = ss.begin();
        let (_, oid) = txn.insert("p0/song", class, vec![Value::str("E")]);
        txn.list_push("p0/song", oid);
        let receipt = ss.commit(&txn).unwrap();
        assert!(receipt.fast_path());
        assert_eq!(receipt.records, 2);
        assert_eq!(ss.list("p0/song").unwrap().len(), 1);
        // No coordination happened: the coordinator log holds no decision.
        let scan = scan_txn_log(&dir.join(TXN_LOG_DIR)).unwrap();
        assert!(scan.decisions.is_empty(), "fast path logged a decision");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_shard_commit_applies_atomically_and_survives_reopen() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("2pc");
        let cfg = ShardedConfig::with_shards(4);
        let (mut ss, _) = ShardedStore::open(&dir, cfg.clone()).unwrap();
        let class = ss.define_class(note_class()).unwrap();
        let (a, b) = split_pair(&ss);
        ss.create_list(&a).unwrap();
        ss.create_list(&b).unwrap();

        let mut txn = ss.begin();
        let (_, oa) = txn.insert(&a, class, vec![Value::str("E")]);
        txn.list_push(&a, oa);
        let (_, ob) = txn.insert(&b, class, vec![Value::str("F")]);
        txn.list_push(&b, ob);
        let receipt = ss.commit(&txn).unwrap();
        assert!(!receipt.fast_path());
        assert_eq!(receipt.participants.len(), 2);
        assert_eq!(receipt.records, 4);
        assert_eq!(ss.list(&a).unwrap().len(), 1);
        assert_eq!(ss.list(&b).unwrap().len(), 1);
        let root = ss.global_root();
        drop(ss);

        let (back, rep) = ShardedStore::open(&dir, cfg).unwrap();
        assert!(rep.clean(), "{rep}");
        assert_eq!(rep.txns_committed + rep.txns_aborted, 0, "nothing pending");
        assert_eq!(back.global_root(), root);
        assert_eq!(back.list(&a).unwrap().len(), 1);
        assert_eq!(back.list(&b).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn txn_ids_advance_and_never_reuse_across_reopen() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("ids");
        let cfg = ShardedConfig::with_shards(4);
        let (mut ss, _) = ShardedStore::open(&dir, cfg.clone()).unwrap();
        let class = ss.define_class(note_class()).unwrap();
        let (a, b) = split_pair(&ss);
        ss.create_list(&a).unwrap();
        ss.create_list(&b).unwrap();
        let mut first = None;
        for _ in 0..2 {
            let mut txn = ss.begin();
            let (_, oa) = txn.insert(&a, class, vec![Value::str("E")]);
            txn.list_push(&a, oa);
            txn.list_push_hole(&b, "rest");
            let id = ss.commit(&txn).unwrap().txn_id.unwrap();
            if let Some(prev) = first {
                assert!(id > prev, "ids must advance: {prev} then {id}");
            }
            first = Some(id);
        }
        drop(ss);
        let (mut back, _) = ShardedStore::open(&dir, cfg).unwrap();
        let mut txn = back.begin();
        txn.list_push_hole(&a, "r");
        txn.list_push_hole(&b, "r");
        let id = back.commit(&txn).unwrap().txn_id.unwrap();
        assert!(id > first.unwrap(), "reopen must not reuse decided ids");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gate_refusal_mid_prepare_aborts_cleanly_and_retries() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("gate");
        let (mut ss, _) = ShardedStore::open(&dir, ShardedConfig::with_shards(4)).unwrap();
        let class = ss.define_class(note_class()).unwrap();
        let (a, b) = split_pair(&ss);
        ss.create_list(&a).unwrap();
        ss.create_list(&b).unwrap();
        let root_before = ss.global_root();

        let mut txn = ss.begin();
        let (_, oa) = txn.insert(&a, class, vec![Value::str("E")]);
        txn.list_push(&a, oa);
        txn.list_push_hole(&b, "rest");

        // Polls: 1 = before any phase, 2 = before first prepare,
        // 3 = before second prepare → refuse with one shard prepared.
        let mut polls = 0u32;
        let err = ss
            .commit_gated(&txn, || {
                polls += 1;
                polls < 3
            })
            .unwrap_err();
        assert!(
            matches!(err, StoreError::Txn(TxnError::Aborted { .. })),
            "got {err:?}"
        );
        assert_eq!(ss.global_root(), root_before, "abort left residue");
        assert_eq!(ss.list(&a).unwrap().len(), 0);

        // A cleanly aborted transaction left the store untouched, so the
        // same buffer (same OID predictions) retries verbatim.
        let receipt = ss.commit(&txn).unwrap();
        assert_eq!(receipt.records, 3);
        assert_eq!(ss.list(&a).unwrap().len(), 1);
        assert_eq!(ss.list(&b).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prepare_crash_is_presumed_abort_on_reopen() {
        let _lock = crate::test_lock::arming();
        let dir = temp_dir("presume");
        let cfg = ShardedConfig::with_shards(4);
        let (mut ss, _) = ShardedStore::open(&dir, cfg.clone()).unwrap();
        let class = ss.define_class(note_class()).unwrap();
        let (a, b) = split_pair(&ss);
        ss.create_list(&a).unwrap();
        ss.create_list(&b).unwrap();
        ss.sync().unwrap();
        let root_before = ss.global_root();

        let mut txn = ss.begin();
        let (_, oa) = txn.insert(&a, class, vec![Value::str("E")]);
        txn.list_push(&a, oa);
        txn.list_push_hole(&b, "rest");
        // Crash when the protocol reaches the *second* participant: the
        // first holds a durable orphaned prepare, no decision exists.
        let second = txn.participants()[1];
        failpoint::arm_times(&participant_probe(TXN_PREPARE_CRASH, second), "kill", 1);
        let err = ss.commit(&txn).unwrap_err();
        assert!(matches!(err, StoreError::Injected { .. }), "got {err:?}");
        drop(ss); // simulated process death: no cleanup ran

        let (back, rep) = ShardedStore::open(&dir, cfg).unwrap();
        assert_eq!(rep.txns_aborted, 1, "{rep}");
        assert_eq!(rep.txns_resolved_by_presumption, 1, "{rep}");
        assert_eq!(rep.txns_committed, 0);
        assert_eq!(back.global_root(), root_before, "rollback incomplete");
        assert_eq!(back.list(&a).unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcome_crash_is_rolled_forward_on_reopen() {
        let _lock = crate::test_lock::arming();
        let dir = temp_dir("forward");
        let cfg = ShardedConfig::with_shards(4);
        let (mut ss, _) = ShardedStore::open(&dir, cfg.clone()).unwrap();
        let class = ss.define_class(note_class()).unwrap();
        let (a, b) = split_pair(&ss);
        ss.create_list(&a).unwrap();
        ss.create_list(&b).unwrap();
        ss.sync().unwrap();

        let mut txn = ss.begin();
        let (_, oa) = txn.insert(&a, class, vec![Value::str("E")]);
        txn.list_push(&a, oa);
        let (_, ob) = txn.insert(&b, class, vec![Value::str("F")]);
        txn.list_push(&b, ob);
        // Crash after the decision is durable but before the second
        // participant applies: recovery must finish the commit.
        let second = txn.participants()[1];
        failpoint::arm_times(&participant_probe(TXN_OUTCOME_CRASH, second), "kill", 1);
        let err = ss.commit(&txn).unwrap_err();
        assert!(matches!(err, StoreError::Injected { .. }), "got {err:?}");
        drop(ss);

        let (back, rep) = ShardedStore::open(&dir, cfg).unwrap();
        assert_eq!(rep.txns_committed, 1, "{rep}");
        assert_eq!(rep.txns_resolved_by_presumption, 0);
        assert_eq!(back.list(&a).unwrap().len(), 1, "committed txn lost");
        assert_eq!(back.list(&b).unwrap().len(), 1, "roll-forward incomplete");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_missing_with_coordinator_log_refuses_to_open() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("metagone");
        let cfg = ShardedConfig::with_shards(4);
        drop(ShardedStore::open(&dir, cfg.clone()).unwrap());
        std::fs::remove_file(dir.join(SHARD_META)).unwrap();
        let err = ShardedStore::open(&dir, cfg).unwrap_err();
        match err {
            StoreError::ShardLayout { msg, .. } => {
                assert!(msg.contains(TXN_LOG_DIR), "{msg}");
            }
            other => panic!("expected ShardLayout, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn route_and_fold_probes_inject_typed_faults() {
        let _lock = crate::test_lock::arming();
        let dir = temp_dir("probes");
        let cfg = ShardedConfig::with_shards(2);
        {
            let (mut ss, _) = ShardedStore::open(&dir, cfg.clone()).unwrap();
            failpoint::arm_times(SHARD_ROUTE_PROBE, "routing fault", 1);
            let err = ss.create_list("p0/song").unwrap_err();
            assert!(matches!(err, StoreError::Injected { .. }), "got {err:?}");
            ss.create_list("p0/song").unwrap();
        }
        failpoint::arm_times(SHARD_FOLD_PROBE, "fold fault", 1);
        let err = ShardedStore::open(&dir, cfg.clone()).unwrap_err();
        assert!(matches!(err, StoreError::Injected { .. }), "got {err:?}");
        let (ss, rep) = ShardedStore::open(&dir, cfg).unwrap();
        assert!(rep.clean());
        assert!(ss.list("p0/song").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn txn_metrics_stamp_and_count() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("txnmetrics");
        let (mut ss, rep) = ShardedStore::open(&dir, ShardedConfig::with_shards(4)).unwrap();
        let m = Metrics::new();
        rep.stamp(&m);
        ss.set_metrics(m.clone());
        let class = ss.define_class(note_class()).unwrap();
        let (a, b) = split_pair(&ss);
        ss.create_list(&a).unwrap();
        ss.create_list(&b).unwrap();

        let mut txn = ss.begin();
        let (_, oa) = txn.insert(&a, class, vec![Value::str("E")]);
        txn.list_push(&a, oa);
        txn.list_push_hole(&b, "rest");
        ss.commit(&txn).unwrap();
        let mut polls = 0u32;
        let _ = ss.commit_gated(&txn, || {
            polls += 1;
            polls < 2
        });
        let snap = m.snapshot();
        assert_eq!(snap.txn_prepared, 2, "one prepare per participant");
        assert_eq!(snap.txn_committed, 1);
        assert_eq!(snap.txn_aborted, 1);
        assert_eq!(snap.txn_decide_us.count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_round_trips_with_and_without_stanza() {
        let dir = temp_dir("metart");
        std::fs::create_dir_all(&dir).unwrap();
        for meta in [
            ShardLayoutMeta::settled(4, 1),
            ShardLayoutMeta::settled(1, 7),
            ShardLayoutMeta {
                shards: 2,
                epoch: 3,
                migrating_to: Some(4),
            },
        ] {
            write_meta(&dir, meta).unwrap();
            assert_eq!(read_meta(&dir).unwrap(), Some(meta));
            assert_eq!(
                meta.resolved_epoch(),
                meta.epoch + u64::from(meta.migrating_to.is_some())
            );
        }
        assert_eq!(read_meta(&temp_dir("metanone")).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_or_flipped_meta_is_refused_typed() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("metacorrupt");
        let (_ss, _) = ShardedStore::open(&dir, ShardedConfig::with_shards(2)).unwrap();
        let path = dir.join(SHARD_META);
        let pristine = std::fs::read(&path).unwrap();

        // Torn rewrite: every strict prefix must be refused, not trusted.
        for cut in 0..pristine.len() {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let err = ShardedStore::open(&dir, ShardedConfig::with_shards(2)).unwrap_err();
            assert!(
                matches!(err, StoreError::ShardLayout { .. }),
                "cut at {cut}: got {err:?}"
            );
        }

        // Bit flip anywhere — length word, checksum word, or payload —
        // must be caught by the frame, never parsed as written.
        for byte in 0..pristine.len() {
            let mut flipped = pristine.clone();
            flipped[byte] ^= 0x40;
            std::fs::write(&path, &flipped).unwrap();
            let err = ShardedStore::open(&dir, ShardedConfig::with_shards(2)).unwrap_err();
            assert!(
                matches!(err, StoreError::ShardLayout { .. }),
                "flip at {byte}: got {err:?}"
            );
        }

        std::fs::write(&path, &pristine).unwrap();
        let (ss, rep) = ShardedStore::open(&dir, ShardedConfig::with_shards(2)).unwrap();
        assert!(rep.clean());
        assert_eq!(ss.shard_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_epoch_pin_is_refused_typed() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("stalepin");
        let cfg = ShardedConfig::with_shards(1);
        let (ss, _) = ShardedStore::open(&dir, cfg.clone()).unwrap();
        assert_eq!(ss.layout_epoch(), 1, "fresh stores pin epoch 1");
        drop(ss);
        // The current epoch is accepted; a stale (or future) pin is not.
        let pinned = ShardedConfig {
            pin_epoch: Some(1),
            ..cfg.clone()
        };
        let (ss, _) = ShardedStore::open(&dir, pinned).unwrap();
        drop(ss);
        for stale in [2, 9] {
            let err = ShardedStore::open(
                &dir,
                ShardedConfig {
                    pin_epoch: Some(stale),
                    ..cfg.clone()
                },
            )
            .unwrap_err();
            assert!(matches!(err, StoreError::ShardLayout { .. }), "got {err:?}");
            assert!(err.to_string().contains("epoch"), "got {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
