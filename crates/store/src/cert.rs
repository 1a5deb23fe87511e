//! Split reassembly certificates.
//!
//! The paper's §5 correctness claim — `split` decomposes a tree into
//! pieces that reassemble *exactly* — becomes a runtime guarantee here:
//! guarded split execution can emit a [`SplitCertificate`] carrying
//! canonical serializations and hashes of every piece, the
//! concatenation labels, and the merkle root of the extent the match
//! came from. The independent `aqua-check` crate (which deliberately
//! shares **no** code with this engine) re-parses the certificate,
//! recomputes the piece hashes, performs the reassembly itself, and
//! recomputes the extent root from the reassembled tree. Equality means
//! the pieces really concatenate back into the committed extent.
//!
//! ## Canonical tree serialization
//!
//! A tree serializes as `nnodes:u32le` followed by, per node in
//! preorder, the node's *payload bytes* (exactly the layout leaf hashes
//! use, see [`crate::merkle`]) and `nchildren:u32le`. Preorder +
//! child counts fully determine the shape; the payload bytes embed the
//! OID, class, and attribute values at emission time, so the checker
//! needs no access to the object store. The **piece hash** is SHA-256
//! over these bytes.
//!
//! ## Text format
//!
//! ```text
//! AQUA-SPLIT-CERT v1
//! extent: tree:doc
//! extent-root: <hex64>
//! alpha: <hex of label utf-8>
//! cuts: <hex>,<hex>,...        ("-" when no cuts)
//! piece context <hash hex64> <tree hex>
//! piece matched <hash hex64> <tree hex>
//! piece descendant <hash hex64> <tree hex>   (one per cut, in order)
//! end
//! ```
//!
//! Labels are hex-encoded so arbitrary label text cannot break the
//! line structure. Reassembly is `context ∘_alpha matched ∘_{cut_i}
//! descendant_i` where `∘_l` replaces every hole labeled `l`.

use aqua_algebra::tree::split::SplitPieces;
use aqua_algebra::{Payload, Tree};
use aqua_guard::failpoint;
use aqua_object::ObjectStore;

use crate::error::{Result, StoreError};
use crate::merkle::{self, sha256, Root};

/// Failpoint that flips a byte in an emitted certificate's first piece
/// hash — the tamper `aqua-check` must catch.
pub const CERT_TAMPER_PROBE: &str = "split.cert.tamper";

/// One serialized piece of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertPiece {
    /// `"context"`, `"matched"`, or `"descendant"`.
    pub role: &'static str,
    /// SHA-256 over the canonical tree bytes.
    pub hash: Root,
    /// The canonical tree bytes.
    pub bytes: Vec<u8>,
}

/// A reassembly certificate for one split match. See the module docs
/// for what it claims and how `aqua-check` verifies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitCertificate {
    /// The extent the match came from, `IntegrityMismatch` spelling
    /// (`"tree:doc"`).
    pub extent: String,
    /// Merkle root of that extent at emission time.
    pub extent_root: Root,
    /// The label joining context to matched.
    pub alpha: String,
    /// The labels joining matched to each descendant, in order.
    pub cuts: Vec<String>,
    /// context, matched, then the descendants in cut order.
    pub pieces: Vec<CertPiece>,
}

/// Canonical serialization of `tree` (see the module docs).
pub fn canonical_tree_bytes(store: &ObjectStore, tree: &Tree) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + tree.len() * 24);
    out.extend_from_slice(&(tree.len() as u32).to_le_bytes());
    for n in tree.iter_preorder() {
        match tree.payload(n) {
            Payload::Cell(c) => merkle::put_cell(&mut out, store, c.contents(), None),
            Payload::Hole(l) => merkle::put_hole(&mut out, &l.0),
        }
        out.extend_from_slice(&(tree.children(n).len() as u32).to_le_bytes());
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for chunk in s.as_bytes().chunks(2) {
        let hi = (chunk[0] as char).to_digit(16)?;
        let lo = (chunk[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

impl SplitCertificate {
    /// Emit a certificate for `pieces` split out of the named extent,
    /// whose committed merkle root is `extent_root`. The
    /// [`CERT_TAMPER_PROBE`] failpoint, when armed, flips a byte in the
    /// first piece hash so the detection path can be proven live.
    pub fn emit(
        store: &ObjectStore,
        extent: &str,
        extent_root: Root,
        pieces: &SplitPieces,
    ) -> SplitCertificate {
        let mut out = Vec::with_capacity(2 + pieces.descendants.len());
        for (role, tree) in [("context", &pieces.context), ("matched", &pieces.matched)] {
            let bytes = canonical_tree_bytes(store, tree);
            out.push(CertPiece {
                role,
                hash: Root(sha256(&bytes)),
                bytes,
            });
        }
        for d in &pieces.descendants {
            let bytes = canonical_tree_bytes(store, d);
            out.push(CertPiece {
                role: "descendant",
                hash: Root(sha256(&bytes)),
                bytes,
            });
        }
        if failpoint::check(CERT_TAMPER_PROBE).is_err() {
            out[0].hash.0[0] ^= 0xff;
        }
        SplitCertificate {
            extent: extent.to_string(),
            extent_root,
            alpha: pieces.alpha.0.clone(),
            cuts: pieces.cut_labels.iter().map(|l| l.0.clone()).collect(),
            pieces: out,
        }
    }

    /// Render to the line-oriented text format `aqua-check` parses.
    pub fn to_text(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("AQUA-SPLIT-CERT v1\n");
        s.push_str(&format!("extent: {}\n", self.extent));
        s.push_str(&format!("extent-root: {}\n", self.extent_root.to_hex()));
        s.push_str(&format!("alpha: {}\n", hex(self.alpha.as_bytes())));
        if self.cuts.is_empty() {
            s.push_str("cuts: -\n");
        } else {
            let cuts: Vec<String> = self.cuts.iter().map(|c| hex(c.as_bytes())).collect();
            s.push_str(&format!("cuts: {}\n", cuts.join(",")));
        }
        for p in &self.pieces {
            s.push_str(&format!(
                "piece {} {} {}\n",
                p.role,
                p.hash.to_hex(),
                hex(&p.bytes)
            ));
        }
        s.push_str("end\n");
        s
    }

    /// Parse the text format back (engine-side convenience for fixtures
    /// and tests; `aqua-check` has its own independent parser).
    pub fn parse(text: &str) -> Result<SplitCertificate> {
        let bad = |what: &str| StoreError::Corrupt {
            path: "split certificate".to_string(),
            offset: 0,
            what: what.to_string(),
        };
        let mut lines = text.lines();
        if lines.next() != Some("AQUA-SPLIT-CERT v1") {
            return Err(bad("missing AQUA-SPLIT-CERT v1 header"));
        }
        let field = |line: Option<&str>, key: &str| -> Result<String> {
            line.and_then(|l| l.strip_prefix(key))
                .map(|v| v.trim().to_string())
                .ok_or_else(|| bad(&format!("missing {key} line")))
        };
        let extent = field(lines.next(), "extent:")?;
        let root_hex = field(lines.next(), "extent-root:")?;
        let extent_root = Root::from_hex(&root_hex).ok_or_else(|| bad("bad extent-root hex"))?;
        let alpha_hex = field(lines.next(), "alpha:")?;
        let alpha = String::from_utf8(unhex(&alpha_hex).ok_or_else(|| bad("bad alpha hex"))?)
            .map_err(|_| bad("alpha is not utf-8"))?;
        let cuts_raw = field(lines.next(), "cuts:")?;
        let cuts = if cuts_raw == "-" {
            Vec::new()
        } else {
            cuts_raw
                .split(',')
                .map(|c| {
                    String::from_utf8(unhex(c).ok_or_else(|| bad("bad cut hex"))?)
                        .map_err(|_| bad("cut label is not utf-8"))
                })
                .collect::<Result<Vec<_>>>()?
        };
        let mut pieces = Vec::new();
        for line in lines {
            if line == "end" {
                return Ok(SplitCertificate {
                    extent,
                    extent_root,
                    alpha,
                    cuts,
                    pieces,
                });
            }
            let rest = line
                .strip_prefix("piece ")
                .ok_or_else(|| bad("expected piece or end line"))?;
            let mut parts = rest.splitn(3, ' ');
            let role = match parts.next() {
                Some("context") => "context",
                Some("matched") => "matched",
                Some("descendant") => "descendant",
                _ => return Err(bad("unknown piece role")),
            };
            let hash = parts
                .next()
                .and_then(Root::from_hex)
                .ok_or_else(|| bad("bad piece hash hex"))?;
            let bytes = parts
                .next()
                .and_then(unhex)
                .ok_or_else(|| bad("bad piece tree hex"))?;
            pieces.push(CertPiece { role, hash, bytes });
        }
        Err(bad("missing end line"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_algebra::tree::split::split_pieces;
    use aqua_algebra::TreeBuilder;
    use aqua_object::{AttrDef, AttrType, ClassDef, ClassId, Oid, Value};
    use aqua_pattern::parser::{parse_tree_pattern, PredEnv};
    use aqua_pattern::tree_match::MatchConfig;

    fn fixture() -> (ObjectStore, ClassId, Tree) {
        let mut store = ObjectStore::new();
        let class = store
            .define_class(
                ClassDef::new("N", vec![AttrDef::stored("label", AttrType::Str)]).unwrap(),
            )
            .unwrap();
        let mut oid = |l: &str| {
            store
                .insert_named("N", &[("label", Value::str(l))])
                .unwrap()
        };
        let (a, b, d, f, c) = (oid("a"), oid("b"), oid("d"), oid("f"), oid("c"));
        let mut tb = TreeBuilder::new();
        let dn = tb.node(d, vec![]);
        let fn_ = tb.node(f, vec![]);
        let bn = tb.node(b, vec![dn, fn_]);
        let cn = tb.node(c, vec![]);
        let an = tb.node(a, vec![bn, cn]);
        (store, class, tb.finish(an).unwrap())
    }

    /// Match `b` and cut all its children, so the certificate has a
    /// context, a matched piece, and two descendants.
    fn pieces_of(store: &ObjectStore, class: ClassId, tree: &Tree) -> SplitPieces {
        let cp = parse_tree_pattern("b(!?*)", &PredEnv::with_default_attr("label"))
            .unwrap()
            .compile(class, store.class(class))
            .unwrap();
        let mut ps = split_pieces(store, tree, &cp, &MatchConfig::default()).unwrap();
        assert!(!ps.is_empty(), "pattern must match the fixture");
        ps.remove(0)
    }

    #[test]
    fn certificate_round_trips_through_text() {
        let _lock = crate::test_lock::passing();
        let (store, class, tree) = fixture();
        let pieces = pieces_of(&store, class, &tree);
        let root = merkle::tree_root(&store, &tree);
        let cert = SplitCertificate::emit(&store, "tree:t", root, &pieces);
        assert_eq!(cert.pieces.len(), 2 + pieces.descendants.len());
        let text = cert.to_text();
        let back = SplitCertificate::parse(&text).unwrap();
        assert_eq!(back, cert);
    }

    #[test]
    fn canonical_bytes_are_content_sensitive() {
        let (store, _class, tree) = fixture();
        let b1 = canonical_tree_bytes(&store, &tree);
        let mut store2 = store.clone();
        store2
            .update(Oid(1), aqua_object::AttrId(0), Value::str("B"))
            .unwrap();
        assert_ne!(b1, canonical_tree_bytes(&store2, &tree));
        let t2 = tree.remove_subtree(tree.children(tree.root())[1]).unwrap();
        assert_ne!(b1, canonical_tree_bytes(&store, &t2));
    }

    #[test]
    fn tamper_failpoint_flips_a_piece_hash() {
        let _lock = crate::test_lock::arming();
        let (store, class, tree) = fixture();
        let pieces = pieces_of(&store, class, &tree);
        let root = merkle::tree_root(&store, &tree);
        let clean = SplitCertificate::emit(&store, "tree:t", root, &pieces);
        let tampered = {
            let _fp = failpoint::scoped(CERT_TAMPER_PROBE, "tamper");
            SplitCertificate::emit(&store, "tree:t", root, &pieces)
        };
        assert_ne!(clean.pieces[0].hash, tampered.pieces[0].hash);
        assert_eq!(clean.pieces[0].bytes, tampered.pieces[0].bytes);
        // The tamper is visible to any checker: recomputing the hash
        // from the (untouched) bytes no longer matches.
        assert_eq!(
            Root(sha256(&tampered.pieces[0].bytes)),
            clean.pieces[0].hash
        );
    }

    #[test]
    fn malformed_text_is_rejected_typed() {
        let _lock = crate::test_lock::passing();
        assert!(SplitCertificate::parse("nope").is_err());
        assert!(SplitCertificate::parse("AQUA-SPLIT-CERT v1\nextent: t\n").is_err());
        let (store, class, tree) = fixture();
        let pieces = pieces_of(&store, class, &tree);
        let root = merkle::tree_root(&store, &tree);
        let text = SplitCertificate::emit(&store, "tree:t", root, &pieces).to_text();
        let no_end = text.replace("end\n", "");
        assert!(SplitCertificate::parse(&no_end).is_err());
    }
}
