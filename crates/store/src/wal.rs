//! Append-only write-ahead log of extent mutations.
//!
//! The WAL is *logical*: each frame carries one [`WalRecord`] naming an
//! operation (insert this row, remove that subtree), and replaying the
//! frames through the same code paths that served the original
//! mutations reproduces the state exactly — including OID and
//! [`NodeId`](aqua_algebra::NodeId) assignment, which are deterministic.
//!
//! ## Frame format
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! payload = [lsn: u64 LE] [record: WalRecord encoding] [root: 32 bytes]?
//! ```
//!
//! The optional trailing `root` is the **post-apply store root** (see
//! [`crate::merkle`]): when the store runs authenticated, every commit
//! binds the state it produced, and recovery re-derives and compares
//! the roots instead of trusting replay blindly. A frame either ends
//! exactly after its record (unauthenticated) or carries exactly 32
//! more bytes; anything else in a checksum-valid frame is corruption.
//!
//! `crc` is [`crc32`] over the payload. A torn write — the tail of the
//! last frame missing after a crash — shows up as a short header, a
//! length past end-of-file, or a checksum mismatch, and the scanner
//! reports the valid prefix so recovery can truncate there
//! ([`SegmentScan`]). Frames are capped at [`MAX_FRAME`] bytes so a
//! corrupted length field can never drive a giant allocation.
//!
//! ## Segments
//!
//! The log is a directory of segment files named `wal-{first_lsn:020}.log`
//! (zero-padded so lexicographic order is LSN order). Appends roll to a
//! new segment once the current one passes the configured size;
//! checkpointing prunes segments wholly covered by a snapshot.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use aqua_guard::failpoint;

use crate::codec::{crc32, Dec, Enc, WalRecord};
use crate::error::{Result, StoreError};
use crate::merkle::Root;

/// Failpoint checked on every WAL append and sync; arm it to simulate a
/// full disk or a failing fsync.
pub const WAL_APPEND_PROBE: &str = "store.wal.append";

/// Bytes of frame header preceding the payload (length + checksum).
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single frame's payload. A length field beyond this
/// is treated as corruption, never allocated.
pub const MAX_FRAME: u32 = 1 << 26; // 64 MiB

/// Tuning for the log writer.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Roll to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 64 * 1024,
        }
    }
}

/// Segment file name for the segment whose first frame is `first_lsn`.
pub fn segment_file_name(first_lsn: u64) -> String {
    format!("wal-{first_lsn:020}.log")
}

/// Parse a segment file name back to its first LSN.
pub fn segment_first_lsn(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// All WAL segments in `dir`, sorted ascending by first LSN.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(StoreError::io("read_dir", dir.display(), e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read_dir", dir.display(), e))?;
        if let Some(lsn) = entry.file_name().to_str().and_then(segment_first_lsn) {
            out.push((lsn, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// The append side of the log. One live segment file at a time; frames
/// carry consecutive LSNs starting from the `next_lsn` the writer was
/// opened with.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    seg_path: PathBuf,
    seg_len: u64,
    next_lsn: u64,
    cfg: WalConfig,
}

impl Wal {
    /// Open a writer in `dir` whose next frame will carry `next_lsn`.
    /// Appends to the segment named for `next_lsn` if one exists (a
    /// reopen with no intervening writes), otherwise creates it.
    pub fn open(dir: &Path, next_lsn: u64, cfg: WalConfig) -> Result<Wal> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io("create_dir", dir.display(), e))?;
        let seg_path = dir.join(segment_file_name(next_lsn));
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&seg_path)
            .map_err(|e| StoreError::io("open", seg_path.display(), e))?;
        let seg_len = file
            .metadata()
            .map_err(|e| StoreError::io("stat", seg_path.display(), e))?
            .len();
        Ok(Wal {
            dir: dir.to_path_buf(),
            file,
            seg_path,
            seg_len,
            next_lsn,
            cfg,
        })
    }

    /// The LSN the next append will be assigned.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Path of the segment currently being appended to.
    pub fn current_segment(&self) -> &Path {
        &self.seg_path
    }

    /// Append one record; returns its LSN. The frame is written and
    /// flushed (but not fsynced — see [`Wal::sync`]) before the LSN is
    /// handed out, preserving WAL-before-apply ordering for callers.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64> {
        self.append_with_root(rec, None)
    }

    /// [`append`](Self::append) with the post-apply store root bound
    /// into the frame (authenticated mode).
    pub fn append_with_root(&mut self, rec: &WalRecord, root: Option<&Root>) -> Result<u64> {
        failpoint::check(WAL_APPEND_PROBE)?;
        let lsn = self.next_lsn;
        let mut enc = Enc::new();
        enc.u64(lsn);
        rec.encode(&mut enc);
        let mut payload = enc.finish();
        if let Some(r) = root {
            payload.extend_from_slice(&r.0);
        }
        debug_assert!(payload.len() <= MAX_FRAME as usize);
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file
            .write_all(&frame)
            .map_err(|e| StoreError::io("append", self.seg_path.display(), e))?;
        self.seg_len += frame.len() as u64;
        self.next_lsn = lsn + 1;
        if self.seg_len >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        Ok(lsn)
    }

    /// Force the current segment to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        failpoint::check(WAL_APPEND_PROBE)?;
        self.file
            .sync_data()
            .map_err(|e| StoreError::io("fsync", self.seg_path.display(), e))
    }

    fn rotate(&mut self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| StoreError::io("fsync", self.seg_path.display(), e))?;
        let seg_path = self.dir.join(segment_file_name(self.next_lsn));
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&seg_path)
            .map_err(|e| StoreError::io("open", seg_path.display(), e))?;
        self.seg_path = seg_path;
        self.seg_len = 0;
        Ok(())
    }
}

/// Result of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan {
    /// Checksum-valid frames, in file order: LSN, record, and the
    /// post-apply store root when the writer ran authenticated.
    pub frames: Vec<(u64, WalRecord, Option<Root>)>,
    /// Length of the valid prefix. Bytes past this are a torn tail.
    pub valid_len: u64,
    /// Total file length.
    pub file_len: u64,
}

impl SegmentScan {
    /// Whether the file carried bytes beyond the last valid frame.
    pub fn torn(&self) -> bool {
        self.valid_len < self.file_len
    }
}

/// Scan a segment, stopping at the first torn or checksum-failing
/// frame. A frame whose checksum passes but whose record does not
/// decode is *not* a torn tail — the checksum vouches for the bytes, so
/// the writer produced garbage — and surfaces as
/// [`StoreError::Corrupt`].
pub fn scan_segment(path: &Path) -> Result<SegmentScan> {
    let bytes = std::fs::read(path).map_err(|e| StoreError::io("read", path.display(), e))?;
    let name = path.display().to_string();
    let mut frames = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = bytes.len() - pos;
        if rest == 0 {
            break;
        }
        if rest < FRAME_HEADER {
            break; // torn header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if !(8..=MAX_FRAME).contains(&len) || (len as usize) > rest - FRAME_HEADER {
            break; // insane or torn length
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len as usize];
        if crc32(payload) != crc {
            break; // torn or bit-flipped payload
        }
        let mut dec = Dec::new(payload, &name);
        let lsn = dec.u64()?;
        let rec = WalRecord::decode(&mut dec)?;
        // A frame ends exactly at its record, or carries a 32-byte
        // post-apply root. Any other tail in a checksummed frame means
        // the writer produced garbage.
        let rest = &payload[dec.pos()..];
        let root = match rest.len() {
            0 => None,
            32 => Some(Root(rest.try_into().expect("length checked"))),
            _ => {
                let offset = (pos + FRAME_HEADER + dec.pos()) as u64;
                return Err(StoreError::Corrupt {
                    path: name,
                    offset,
                    what: "trailing bytes after record in checksummed frame".into(),
                });
            }
        };
        frames.push((lsn, rec, root));
        pos += FRAME_HEADER + len as usize;
    }
    Ok(SegmentScan {
        frames,
        valid_len: pos as u64,
        file_len: bytes.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_object::Oid;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "aqua-wal-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn push(name: &str, oid: u64) -> WalRecord {
        WalRecord::ListPush {
            name: name.into(),
            oid: Oid(oid),
        }
    }

    #[test]
    fn append_scan_round_trip() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("rt");
        let mut wal = Wal::open(&dir, 1, WalConfig::default()).unwrap();
        for i in 0..5 {
            assert_eq!(wal.append(&push("l", i)).unwrap(), i + 1);
        }
        wal.sync().unwrap();
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1);
        let scan = scan_segment(&segs[0].1).unwrap();
        assert_eq!(scan.frames.len(), 5);
        assert!(!scan.torn());
        assert_eq!(scan.frames[0].0, 1);
        assert_eq!(scan.frames[4], (5, push("l", 4), None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_and_sort() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("rot");
        let mut wal = Wal::open(&dir, 1, WalConfig { segment_bytes: 64 }).unwrap();
        for i in 0..20 {
            wal.append(&push("l", i)).unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 1, "small segment size must rotate");
        // Contiguous LSNs across segments, in listing order.
        let mut expect = 1u64;
        for (first, path) in &segs {
            let scan = scan_segment(path).unwrap();
            if let Some((lsn, _, _)) = scan.frames.first() {
                assert_eq!(*lsn, *first, "segment named for its first LSN");
            }
            for (lsn, _, _) in scan.frames {
                assert_eq!(lsn, expect);
                expect += 1;
            }
        }
        assert_eq!(expect, 21);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_yields_valid_prefix() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("torn");
        let mut wal = Wal::open(&dir, 1, WalConfig::default()).unwrap();
        for i in 0..4 {
            wal.append(&push("l", i)).unwrap();
        }
        drop(wal);
        let (_, path) = &list_segments(&dir).unwrap()[0];
        let full = std::fs::read(path).unwrap();
        // Every possible kill offset leaves a clean valid prefix.
        for cut in 0..full.len() {
            std::fs::write(path, &full[..cut]).unwrap();
            let scan = scan_segment(path).unwrap();
            assert!(scan.valid_len <= cut as u64);
            for (i, (lsn, rec, _)) in scan.frames.iter().enumerate() {
                assert_eq!(*lsn, i as u64 + 1);
                assert_eq!(rec, &push("l", i as u64));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_detected_by_checksum() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("flip");
        let mut wal = Wal::open(&dir, 1, WalConfig::default()).unwrap();
        for i in 0..3 {
            wal.append(&push("l", i)).unwrap();
        }
        drop(wal);
        let (_, path) = &list_segments(&dir).unwrap()[0];
        let full = std::fs::read(path).unwrap();
        for byte in 0..full.len() {
            let mut flipped = full.clone();
            flipped[byte] ^= 0x10;
            std::fs::write(path, &flipped).unwrap();
            let scan = scan_segment(path).unwrap();
            // The flip lands in some frame; every frame before it is intact.
            assert!(scan.frames.len() < 3, "flip at byte {byte} undetected");
            for (i, (lsn, rec, _)) in scan.frames.iter().enumerate() {
                assert_eq!(*lsn, i as u64 + 1);
                assert_eq!(rec, &push("l", i as u64));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn root_bound_frames_round_trip() {
        let _lock = crate::test_lock::passing();
        let dir = temp_dir("root");
        let mut wal = Wal::open(&dir, 1, WalConfig::default()).unwrap();
        let r0 = Root(crate::merkle::sha256(b"state-0"));
        let r1 = Root(crate::merkle::sha256(b"state-1"));
        wal.append_with_root(&push("l", 0), Some(&r0)).unwrap();
        wal.append(&push("l", 1)).unwrap(); // unauthenticated frame mixes fine
        wal.append_with_root(&push("l", 2), Some(&r1)).unwrap();
        wal.sync().unwrap();
        let scan = scan_segment(&list_segments(&dir).unwrap()[0].1).unwrap();
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.frames[0].2, Some(r0));
        assert_eq!(scan.frames[1].2, None);
        assert_eq!(scan.frames[2].2, Some(r1));
        assert!(!scan.torn());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record whose frame lands *exactly* on the segment cap must
    /// rotate cleanly: the full frame stays in the old segment, the
    /// next frame opens the new one, and nothing is torn.
    #[test]
    fn record_landing_exactly_at_segment_cap_rotates_cleanly() {
        let _lock = crate::test_lock::passing();
        // Measure one frame, then set the cap to a whole number of them.
        let probe_dir = temp_dir("cap-probe");
        let mut wal = Wal::open(&probe_dir, 1, WalConfig::default()).unwrap();
        wal.append(&push("l", 0)).unwrap();
        wal.sync().unwrap();
        let frame_len = std::fs::metadata(&list_segments(&probe_dir).unwrap()[0].1)
            .unwrap()
            .len();
        let _ = std::fs::remove_dir_all(&probe_dir);

        let dir = temp_dir("cap");
        let cfg = WalConfig {
            segment_bytes: 3 * frame_len,
        };
        let mut wal = Wal::open(&dir, 1, cfg).unwrap();
        for i in 0..7 {
            wal.append(&push("l", i)).unwrap();
        }
        wal.sync().unwrap();
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 3, "7 frames at 3 per segment: 3+3+1");
        assert_eq!(segs[0].0, 1);
        assert_eq!(segs[1].0, 4, "rotation happened exactly at the cap");
        assert_eq!(segs[2].0, 7);
        let first = scan_segment(&segs[0].1).unwrap();
        assert_eq!(first.frames.len(), 3);
        assert!(!first.torn(), "the boundary frame is whole, not split");
        assert_eq!(
            std::fs::metadata(&segs[0].1).unwrap().len(),
            3 * frame_len,
            "old segment closed exactly at the cap"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn armed_failpoint_fails_append_typed() {
        let _lock = crate::test_lock::arming();
        let dir = temp_dir("fp");
        let mut wal = Wal::open(&dir, 1, WalConfig::default()).unwrap();
        let _fp = failpoint::scoped(WAL_APPEND_PROBE, "disk full");
        let err = wal.append(&push("l", 0)).unwrap_err();
        assert!(matches!(err, StoreError::Injected { .. }));
        drop(_fp);
        assert_eq!(wal.append(&push("l", 0)).unwrap(), 1, "lsn not burned");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
