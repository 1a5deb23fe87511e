//! B13 — durability costs: WAL append throughput, cold-open replay
//! rate, and snapshot-assisted cold-open latency.
//!
//! Four rows, one per durability phase:
//!
//! * `wal_append_1k_ops` — a fresh `DurableStore` absorbing a 1k-op
//!   seeded mutation storm (validate → log → apply per op).
//! * `replay_cold_open_2k_frames` — opening a directory whose entire
//!   state lives in the WAL: every frame checksummed, decoded, and
//!   replayed, then all four indexes rebuilt.
//! * `cold_open_snapshot_tail` — the same state after a checkpoint:
//!   snapshot load plus a short WAL tail, the steady-state restart
//!   shape.
//! * `authenticated_insert_populated` — 32 inserts into an
//!   authenticated store that already holds ~4k objects referenced from
//!   16 extents. Each insert binds its post-apply store root, which
//!   rehashes only the extents whose cells hold the new OID — none
//!   here — so it hashes nothing, but still pays a scan of every
//!   extent cell for the OID: O(total cells) per insert.
//!
//! `AQUA_BENCH_QUICK` shrinks iterations for the CI gate;
//! `AQUA_BENCH_JSON=<path>` dumps the rows for `bench_gate`.

use std::path::PathBuf;

use aqua_algebra::{NodeId, TreeBuilder};
use aqua_bench::timing::{ms, time_median, Timed};
use aqua_bench::Table;
use aqua_object::{Oid, Value};
use aqua_store::{DurableConfig, DurableStore};
use aqua_workload::storm::{MutationStorm, BOOT_OPS};

struct Out {
    table: Table,
    rows: Vec<(&'static str, Timed)>,
    iters: usize,
}

impl Out {
    fn new() -> Out {
        Out {
            table: Table::new(&["phase", "median ms"]),
            rows: Vec::new(),
            iters: aqua_bench::iters_for(10, 3),
        }
    }

    fn row(&mut self, name: &'static str, t: Timed) {
        self.table.row(vec![name.into(), ms(t)]);
        self.rows.push((name, t));
    }

    fn json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"b13_recovery\",\n");
        s.push_str(&format!("  \"iters\": {},\n", self.iters));
        s.push_str("  \"rows\": [\n");
        for (i, (name, t)) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"bench\":\"b13\",\"name\":\"{name}\",\"median_ms\":{:.4},\"result_size\":{}}}{comma}\n",
                t.secs * 1e3,
                t.result_size
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn scratch(tag: &str, n: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aqua-b13-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> DurableConfig {
    DurableConfig {
        segment_bytes: 64 * 1024,
        checkpoint_every: 0,
        prune: true,
        // Root tracking off: these rows isolate raw durability costs so
        // they stay comparable with the recorded baseline; the
        // authenticated deltas are b14's job.
        authenticate: false,
    }
}

/// WAL append throughput: fresh store, 1k storm ops straight through
/// the validate → log → apply path.
fn bench_append(out: &mut Out) {
    const OPS: u64 = BOOT_OPS + 1000;
    let storm = MutationStorm::new(7);
    let mut n = 0;
    let t = time_median(out.iters, || {
        let dir = scratch("append", n);
        n += 1;
        let (mut ds, _) = DurableStore::open(&dir, cfg()).expect("fresh open");
        let applied = storm.apply(&mut ds, 0..OPS).expect("storm applies") as usize;
        drop(ds);
        let _ = std::fs::remove_dir_all(&dir);
        applied
    });
    out.row("wal_append_1k_ops", t);
}

/// Cold-open replay rate: the whole state lives in the WAL; every
/// frame is checksummed, decoded, replayed, and the indexes rebuilt.
fn bench_replay(out: &mut Out) {
    const OPS: u64 = BOOT_OPS + 2000;
    let storm = MutationStorm::new(7);
    let dir = scratch("replay", 0);
    {
        let (mut ds, _) = DurableStore::open(&dir, cfg()).expect("fresh open");
        storm.apply(&mut ds, 0..OPS).expect("storm applies");
        ds.sync().expect("sync");
    }
    let t = time_median(out.iters, || {
        let (ds, rep) = DurableStore::open(&dir, cfg()).expect("cold open");
        assert_eq!(ds.epoch(), OPS);
        rep.frames_replayed as usize
    });
    out.row("replay_cold_open_2k_frames", t);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot-assisted cold open: a checkpoint covers the bulk, the WAL
/// holds a 200-op tail — the steady-state restart shape.
fn bench_snapshot_open(out: &mut Out) {
    const BULK: u64 = BOOT_OPS + 2000;
    const TAIL: u64 = 200;
    let storm = MutationStorm::new(7);
    let dir = scratch("snap", 0);
    {
        let (mut ds, _) = DurableStore::open(&dir, cfg()).expect("fresh open");
        storm.apply(&mut ds, 0..BULK).expect("storm applies");
        ds.checkpoint().expect("checkpoint");
        storm
            .apply(&mut ds, BULK..BULK + TAIL)
            .expect("tail applies");
        ds.sync().expect("sync");
    }
    let t = time_median(out.iters, || {
        let (ds, rep) = DurableStore::open(&dir, cfg()).expect("cold open");
        assert_eq!(ds.epoch(), BULK + TAIL);
        assert_eq!(rep.frames_replayed, TAIL);
        rep.frames_replayed as usize
    });
    out.row("cold_open_snapshot_tail", t);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Authenticated inserts into a populated store: 4096 objects, each
/// referenced once from one of 8 trees (256 nodes) or 8 lists (256
/// cells), then batches of 32 fresh inserts timed through the full
/// validate → bind root → log → apply path.
fn bench_authenticated_insert(out: &mut Out) {
    const EXTENTS: usize = 8;
    const CELLS: usize = 256;
    const BATCH: usize = 32;
    let dir = scratch("auth-insert", 0);
    let (mut ds, _) = DurableStore::open(
        &dir,
        DurableConfig {
            authenticate: true,
            ..cfg()
        },
    )
    .expect("fresh open");
    let class = ds
        .define_class(MutationStorm::class_def())
        .expect("define class");
    let mut next_row = {
        let mut i = 0i64;
        move || {
            i += 1;
            vec![
                Value::str(["C", "E", "G"][i as usize % 3]),
                Value::Int(i % 8 + 1),
            ]
        }
    };
    for _ in 0..2 * EXTENTS * CELLS {
        ds.insert(class, next_row()).expect("populate");
    }
    for e in 0..EXTENTS {
        let base = (2 * e * CELLS) as u64;
        let mut b = TreeBuilder::new();
        let leaves: Vec<NodeId> = (1..CELLS as u64)
            .map(|k| b.node(Oid(base + k), vec![]))
            .collect();
        let root = b.node(Oid(base), leaves);
        let tree = b.finish(root).expect("flat tree");
        ds.create_tree(&format!("t{e}"), tree).expect("tree");
        let list = format!("l{e}");
        ds.create_list(&list).expect("list");
        for k in 0..CELLS as u64 {
            ds.list_push(&list, Oid(base + CELLS as u64 + k))
                .expect("push");
        }
    }
    let t = time_median(out.iters, || {
        for _ in 0..BATCH {
            ds.insert(class, next_row()).expect("authenticated insert");
        }
        BATCH
    });
    out.row("authenticated_insert_populated", t);
    drop(ds);
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let mut out = Out::new();
    bench_append(&mut out);
    bench_replay(&mut out);
    bench_snapshot_open(&mut out);
    bench_authenticated_insert(&mut out);
    out.table
        .print("B13 — durability: WAL append, replay, cold open");
    if let Ok(path) = std::env::var("AQUA_BENCH_JSON") {
        std::fs::write(&path, out.json()).expect("write AQUA_BENCH_JSON");
        eprintln!("wrote {path}");
    }
}
