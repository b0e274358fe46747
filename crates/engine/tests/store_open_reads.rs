//! Opening a warm pile store reads segment headers and nothing else, so
//! what it reads does not grow with the number of records.
//!
//! The store counts every byte it reads from a segment file under the
//! `engine.store.read_bytes` counter. The counter is process-global, so
//! this binary holds one test: no other test can read a store between
//! the two samples of one open.

use ddtr_engine::store::pages::CHUNK_BYTES;
use ddtr_engine::testing::TempCacheDir;
use ddtr_engine::PileStore;
use std::path::Path;

/// Fills `dir` with `n` records shaped like real cache lines.
fn build_store(dir: &Path, n: usize) {
    let mut store = PileStore::open(dir).expect("store opens");
    let payload = vec![b'x'; 160];
    for i in 0..n {
        store
            .append(format!("bench-key-{i:06}").as_bytes(), &payload)
            .expect("append");
    }
    store.flush().expect("flush");
}

/// Bytes one open of the store under `dir` reads, and its segment count.
fn open_reads(dir: &Path) -> (u64, usize) {
    let read_bytes = ddtr_obs::counter(ddtr_obs::names::ENGINE_STORE_READ_BYTES);
    let before = read_bytes.get();
    let store = PileStore::open(dir).expect("store opens");
    (read_bytes.get() - before, store.segment_count())
}

#[test]
fn warm_open_reads_the_same_bytes_at_10k_and_100k_entries() {
    // `DDTR_OBS=0` would turn the counter off and every read into 0.
    ddtr_obs::set_enabled(true);
    let mut reads = Vec::new();
    for n in [10_000, 100_000] {
        let tmp = TempCacheDir::new(&format!("open-reads-{n}"));
        build_store(tmp.path(), n);
        let (read, segments) = open_reads(tmp.path());
        println!("{n:>7} entries: open read {read} bytes from {segments} segment(s)");
        assert!(read > 0, "open of the {n}-entry store read nothing");
        assert!(
            read <= (CHUNK_BYTES * segments) as u64,
            "open of the {n}-entry store read {read} bytes from {segments} segment(s), \
             more than {CHUNK_BYTES} per segment"
        );
        reads.push(read);
    }
    assert_eq!(
        reads[0], reads[1],
        "warm open read more at 100k entries than at 10k: open is no longer O(segments)"
    );
}
