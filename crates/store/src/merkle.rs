//! Authenticated extents: merkle roots over the structural interval
//! columns.
//!
//! Every tree and list extent is summarized by a 32-byte **root hash**
//! computed over its *rows* — for a tree, one leaf per node in preorder
//! covering `(pre, post)` interval numbers plus the node's payload (OID,
//! class, and every stored attribute value, or the hole label); for a
//! list, one leaf per position. Leaves combine pairwise (SHA-256, with
//! distinct leaf/branch domain tags) into a merkle root, and the roots
//! of all extents fold into a single **store root**.
//!
//! The hash schema is deliberately *specification-simple* so that an
//! independent checker (the `aqua-check` crate, which shares no code
//! with this module) can recompute the same root from a certificate's
//! canonical piece serialization. Byte-for-byte layout:
//!
//! ```text
//! tree leaf  = SHA256(0x00 "TL" pre:u32le post:u32le payload)
//! list leaf  = SHA256(0x00 "LL" pos:u32le payload)
//! payload    = 0x01 oid:u64le class:u32le nvals:u32le value*   (cell)
//!            | 0x02 len:u32le label-utf8                       (hole)
//! value      = 0x00 | 0x01 b:u8 | 0x02 i64le | 0x03 f64-bits-le
//!            | 0x04 len:u32le utf8 | 0x05 oid:u64le
//! branch     = SHA256(0x01 left right)      (odd last node promoted)
//! empty root = SHA256("AQUA-EMPTY")
//! store root = SHA256("AQUA-STORE" (kind:u8 len:u32le name root)*)
//!              kind = 0x01 tree | 0x02 list, extents sorted by
//!              (kind, name)
//! ```
//!
//! [`tree_leaves`]/[`list_leaves`] build the leaf columns,
//! [`MerkleTree`] folds them, and [`first_divergence`] names the first
//! leaf where two columns disagree — recovery maps that back through
//! the interval numbering to report the divergent *subtree*, not just
//! the extent.

use std::fmt;

use aqua_algebra::list::ListElem;
use aqua_algebra::{List, Payload, Tree};
use aqua_object::{ClassId, ObjectStore, Oid, Value};

/// A 32-byte merkle root (SHA-256). The `Default` root (all zeros) is
/// what an empty fold reports — no real SHA-256 output collides with it.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Root(pub [u8; 32]);

impl Root {
    /// Render as lowercase hex.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parse from 64 hex characters.
    pub fn from_hex(s: &str) -> Option<Root> {
        let s = s.trim();
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = (hi * 16 + lo) as u8;
        }
        Some(Root(out))
    }
}

impl fmt::Debug for Root {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Root({})", self.to_hex())
    }
}

impl fmt::Display for Root {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

// ---------------------------------------------------------------------
// SHA-256 (FIPS 180-4), dependency-free.
// ---------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 over byte slices.
#[derive(Clone)]
pub struct Sha256 {
    h: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            h: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total: 0,
        }
    }

    fn compress(state: &mut [u32; 8], block: &[u8]) {
        let mut w = [0u32; 64];
        for (i, c) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                Self::compress(&mut self.h, &self.buf);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            Self::compress(&mut self.h, block);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finish and return the digest. Padding is written into the block
    /// buffer directly: the `0x80` marker and zero fill, one extra block
    /// when the 8-byte length no longer fits, then the big-endian bit
    /// length.
    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total.wrapping_mul(8);
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            Self::compress(&mut self.h, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        Self::compress(&mut self.h, &self.buf);
        let mut out = [0u8; 32];
        for (i, v) in self.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&v.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

// ---------------------------------------------------------------------
// Leaf schema
// ---------------------------------------------------------------------

/// A payload override for predictive hashing: hash as if one pending
/// write had already been applied. The durable write path uses this to
/// compute the *post-apply* root of an `Insert` or `Update` before the
/// record is logged, preserving log-before-apply ordering, without
/// cloning the store.
#[derive(Debug, Clone, Copy)]
pub enum Override<'a> {
    /// Attribute `attr` of `oid` reads `value`.
    Attr {
        /// The updated object.
        oid: Oid,
        /// Positional attribute id.
        attr: usize,
        /// The value it will hold.
        value: &'a Value,
    },
    /// `oid` is a not-yet-inserted object of `class` with `row` (an
    /// insert can resolve a dangling reference an extent already holds).
    Insert {
        /// The OID the insert will be assigned.
        oid: Oid,
        /// The new object's class.
        class: ClassId,
        /// Its attribute row.
        row: &'a [Value],
    },
}

impl Override<'_> {
    /// The OID whose cells hash differently under this override.
    pub fn oid(&self) -> Oid {
        match self {
            Override::Attr { oid, .. } | Override::Insert { oid, .. } => *oid,
        }
    }
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0x00),
        Value::Bool(b) => {
            out.push(0x01);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(0x02);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(0x03);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(0x04);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Ref(o) => {
            out.push(0x05);
            out.extend_from_slice(&o.0.to_le_bytes());
        }
    }
}

pub(crate) fn put_cell(out: &mut Vec<u8>, store: &ObjectStore, oid: Oid, ov: Option<Override<'_>>) {
    out.push(0x01);
    out.extend_from_slice(&oid.0.to_le_bytes());
    let (class, values) = match (ov, store.get(oid)) {
        (Some(Override::Insert { oid: o, class, row }), _) if o == oid => (class, row),
        (_, Ok(obj)) => (obj.class(), obj.values()),
        // A dangling OID still hashes deterministically: class u32::MAX,
        // zero attributes. (Extents may legitimately reference OIDs the
        // caller constructed out of band, e.g. `Oid(0)` placeholders.)
        (_, Err(_)) => {
            out.extend_from_slice(&u32::MAX.to_le_bytes());
            out.extend_from_slice(&0u32.to_le_bytes());
            return;
        }
    };
    out.extend_from_slice(&class.0.to_le_bytes());
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for (i, v) in values.iter().enumerate() {
        match ov {
            Some(Override::Attr {
                oid: o,
                attr,
                value,
            }) if o == oid && attr == i => put_value(out, value),
            _ => put_value(out, v),
        }
    }
}

pub(crate) fn put_hole(out: &mut Vec<u8>, label: &str) {
    out.push(0x02);
    out.extend_from_slice(&(label.len() as u32).to_le_bytes());
    out.extend_from_slice(label.as_bytes());
}

/// The leaf-hash column of a tree extent: one hash per node in preorder,
/// each covering the node's `(pre, post)` interval numbers and its
/// payload (OID + class + attribute values, or hole label).
pub fn tree_leaves(store: &ObjectStore, tree: &Tree, ov: Option<Override<'_>>) -> Vec<Root> {
    // Stream the tree's cached columnar view: the preorder sequence and
    // the pre/post interval columns come straight out of `Tree::cols`
    // (the same single-clock numbering as `interval_numbering`, so leaf
    // hashes — and therefore roots — are unchanged by the flat layout).
    let cols = tree.cols();
    let (pre_col, post_col) = (cols.pre_col(), cols.post_col());
    let mut leaves = Vec::with_capacity(tree.len());
    let mut bytes = Vec::with_capacity(64);
    for &n in cols.preorder_nodes() {
        let (pre, post) = (pre_col[n.index()], post_col[n.index()]);
        bytes.clear();
        bytes.push(0x00);
        bytes.extend_from_slice(b"TL");
        bytes.extend_from_slice(&pre.to_le_bytes());
        bytes.extend_from_slice(&post.to_le_bytes());
        match tree.payload(n) {
            Payload::Cell(c) => put_cell(&mut bytes, store, c.contents(), ov),
            Payload::Hole(l) => put_hole(&mut bytes, &l.0),
        }
        leaves.push(Root(sha256(&bytes)));
    }
    leaves
}

/// The leaf-hash column of a list extent: one hash per position.
pub fn list_leaves(store: &ObjectStore, list: &List, ov: Option<Override<'_>>) -> Vec<Root> {
    let mut leaves = Vec::with_capacity(list.len());
    for (pos, elem) in list.elems().iter().enumerate() {
        let mut bytes = Vec::with_capacity(32);
        bytes.push(0x00);
        bytes.extend_from_slice(b"LL");
        bytes.extend_from_slice(&(pos as u32).to_le_bytes());
        match elem {
            ListElem::Cell(c) => put_cell(&mut bytes, store, c.contents(), ov),
            ListElem::Hole(l) => put_hole(&mut bytes, &l.0),
        }
        leaves.push(Root(sha256(&bytes)));
    }
    leaves
}

// ---------------------------------------------------------------------
// Merkle fold
// ---------------------------------------------------------------------

/// Root of an empty leaf column.
pub fn empty_root() -> Root {
    Root(sha256(b"AQUA-EMPTY"))
}

/// Fold a leaf column into its merkle root (pairwise SHA-256 with a
/// `0x01` branch tag; an odd last node is promoted unchanged).
pub fn merkle_root(leaves: &[Root]) -> Root {
    if leaves.is_empty() {
        return empty_root();
    }
    let mut level: Vec<Root> = leaves.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                let mut h = Sha256::new();
                h.update(&[0x01]);
                h.update(&pair[0].0);
                h.update(&pair[1].0);
                next.push(Root(h.finish()));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    level[0]
}

/// Merkle root of a tree extent.
pub fn tree_root(store: &ObjectStore, tree: &Tree) -> Root {
    merkle_root(&tree_leaves(store, tree, None))
}

/// Merkle root of a list extent.
pub fn list_root(store: &ObjectStore, list: &List) -> Root {
    merkle_root(&list_leaves(store, list, None))
}

/// Index of the first leaf where two columns disagree (`None` if equal
/// including length). This is what localizes a
/// [`StoreError::IntegrityMismatch`](crate::StoreError::IntegrityMismatch)
/// to a subtree.
pub fn first_divergence(a: &[Root], b: &[Root]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x != y)
}

/// A leaf column plus its root: the merkle-ized view of one extent kept
/// by the snapshot manifest and the structural index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    /// Leaf hashes, in row (preorder / position) order.
    pub leaves: Vec<Root>,
    /// The folded root.
    pub root: Root,
}

impl MerkleTree {
    /// Fold `leaves`.
    pub fn from_leaves(leaves: Vec<Root>) -> MerkleTree {
        let root = merkle_root(&leaves);
        MerkleTree { leaves, root }
    }
}

/// Fold per-extent roots into the store root. `extents` must be sorted
/// by `(kind, name)`; kind is `0x01` for trees, `0x02` for lists.
pub fn store_root<'a>(extents: impl IntoIterator<Item = (u8, &'a str, Root)>) -> Root {
    let mut h = Sha256::new();
    h.update(b"AQUA-STORE");
    for (kind, name, root) in extents {
        h.update(&[kind]);
        h.update(&(name.len() as u32).to_le_bytes());
        h.update(name.as_bytes());
        h.update(&root.0);
    }
    Root(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_algebra::TreeBuilder;
    use aqua_object::{AttrDef, AttrType, ClassDef};

    /// FIPS 180-4 test vectors pin the implementation.
    #[test]
    fn sha256_known_vectors() {
        let hex = |d: [u8; 32]| Root(d).to_hex();
        assert_eq!(
            hex(sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // Multi-block + streaming equivalence.
        let long = vec![b'a'; 1_000];
        let mut st = Sha256::new();
        for chunk in long.chunks(37) {
            st.update(chunk);
        }
        assert_eq!(st.finish(), sha256(&long));
        assert_eq!(
            hex(sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Padding boundaries: 55 bytes is the longest message whose
        // length field fits its last block, 56 and 63 force an extra
        // padding block, 64/119/120 repeat the cases one block later.
        // Digests of `n` repeated `a` bytes, from an independent
        // SHA-256 implementation.
        for (n, digest) in [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
            (
                120,
                "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
            ),
        ] {
            assert_eq!(hex(sha256(&vec![b'a'; n])), digest, "{n}-byte message");
        }
    }

    /// Streaming must equal one-shot wherever the message is split,
    /// including splits that leave the padding marker or the length
    /// field straddling a block boundary.
    #[test]
    fn sha256_streaming_equals_one_shot_at_every_split() {
        let msg: Vec<u8> = (0..130u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = sha256(&msg);
        for k in 0..=msg.len() {
            let mut st = Sha256::new();
            st.update(&msg[..k]);
            st.update(&msg[k..]);
            assert_eq!(st.finish(), whole, "split at {k}");
        }
    }

    fn fixture() -> (ObjectStore, Tree, List) {
        let mut store = ObjectStore::new();
        store
            .define_class(
                ClassDef::new(
                    "Note",
                    vec![
                        AttrDef::stored("pitch", AttrType::Str),
                        AttrDef::stored("duration", AttrType::Int),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        let mut oids = Vec::new();
        for (p, d) in [("E", 4i64), ("G", 2), ("A", 8)] {
            oids.push(
                store
                    .insert_named(
                        "Note",
                        &[("pitch", Value::str(p)), ("duration", Value::Int(d))],
                    )
                    .unwrap(),
            );
        }
        let mut b = TreeBuilder::new();
        let k1 = b.node(oids[1], vec![]);
        let k2 = b.node(oids[2], vec![]);
        let r = b.node(oids[0], vec![k1, k2]);
        let tree = b.finish(r).unwrap();
        let list = List::from_oids(oids);
        (store, tree, list)
    }

    #[test]
    fn roots_are_deterministic_and_content_sensitive() {
        let (store, tree, list) = fixture();
        let r1 = tree_root(&store, &tree);
        let r2 = tree_root(&store, &tree);
        assert_eq!(r1, r2, "same content, same root");
        assert_ne!(r1, list_root(&store, &list), "domain separation");
        assert_ne!(r1, empty_root());

        // An attribute change flips the tree root (attrs are a column).
        let mut store2 = store.clone();
        store2
            .update(aqua_object::Oid(1), aqua_object::AttrId(1), Value::Int(7))
            .unwrap();
        assert_ne!(tree_root(&store2, &tree), r1);

        // A structural change flips it too (intervals are a column).
        let t2 = tree.remove_subtree(tree.children(tree.root())[1]).unwrap();
        assert_ne!(tree_root(&store, &t2), r1);
    }

    #[test]
    fn override_predicts_post_update_root() {
        let (mut store, tree, _) = fixture();
        let v = Value::Int(7);
        let predicted = merkle_root(&tree_leaves(
            &store,
            &tree,
            Some(Override::Attr {
                oid: aqua_object::Oid(1),
                attr: 1,
                value: &v,
            }),
        ));
        store
            .update(aqua_object::Oid(1), aqua_object::AttrId(1), v.clone())
            .unwrap();
        assert_eq!(predicted, tree_root(&store, &tree));
    }

    #[test]
    fn insert_override_predicts_a_resolved_dangling_cell() {
        let (mut store, tree, _) = fixture();
        // The next insert gets OID 3; a list already holds it dangling.
        let list = List::from_oids(vec![aqua_object::Oid(0), aqua_object::Oid(3)]);
        let class = store.class_id("Note").unwrap();
        let row = vec![Value::str("C"), Value::Int(1)];
        let ov = Override::Insert {
            oid: aqua_object::Oid(3),
            class,
            row: &row,
        };
        let predicted = merkle_root(&list_leaves(&store, &list, Some(ov)));
        assert_ne!(predicted, list_root(&store, &list), "the cell resolves");
        let untouched = merkle_root(&tree_leaves(&store, &tree, Some(ov)));
        assert_eq!(untouched, tree_root(&store, &tree));
        assert_eq!(store.insert(class, row).unwrap(), aqua_object::Oid(3));
        assert_eq!(predicted, list_root(&store, &list));
    }

    #[test]
    fn divergence_localizes_to_the_changed_row() {
        let (store, tree, _) = fixture();
        let a = tree_leaves(&store, &tree, None);
        let v = Value::str("B");
        let ov = Override::Attr {
            oid: aqua_object::Oid(2),
            attr: 0,
            value: &v,
        };
        let b = tree_leaves(&store, &tree, Some(ov));
        // Oid(2) sits at preorder rank 2 in the fixture tree.
        assert_eq!(first_divergence(&a, &b), Some(2));
        assert_eq!(first_divergence(&a, &a), None);
        assert_eq!(first_divergence(&a, &a[..2]), Some(2));
    }

    #[test]
    fn merkle_fold_shape() {
        let l: Vec<Root> = (0..5u8).map(|i| Root(sha256(&[i]))).collect();
        // Promoting the odd node: root(5 leaves) must differ from
        // root(first 4) and from any reordering.
        let r5 = merkle_root(&l);
        let r4 = merkle_root(&l[..4]);
        assert_ne!(r5, r4);
        let mut swapped = l.clone();
        swapped.swap(0, 1);
        assert_ne!(merkle_root(&swapped), r5);
        assert_eq!(merkle_root(&[]), empty_root());
        assert_eq!(merkle_root(&l[..1]), l[0], "single leaf promotes to root");
    }

    #[test]
    fn hex_round_trip() {
        let r = Root(sha256(b"x"));
        assert_eq!(Root::from_hex(&r.to_hex()), Some(r));
        assert_eq!(Root::from_hex("zz"), None);
        assert_eq!(Root::from_hex(&"a".repeat(63)), None);
    }
}
