//! Property-based tests of the pile store.
//!
//! Three families: (1) arbitrary put/get sequences behave exactly like a
//! `HashMap` model, before and after a reopen; (2) JSONL export →
//! import round-trips every cache entry to byte-identical lookups;
//! (3) truncating the segment at *every* byte offset of the last record
//! always leaves a store that opens and serves every earlier record —
//! the crash-safety contract has no bad offset.

use ddtr_apps::{AppKind, AppParams};
use ddtr_ddt::DdtKind;
use ddtr_engine::store::format::PAGE;
use ddtr_engine::testing::TempCacheDir;
use ddtr_engine::{CacheKey, PileStore, SimCache, Simulator};
use ddtr_mem::MemoryConfig;
use ddtr_trace::NetworkPreset;
use proptest::prelude::*;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::path::Path;

fn key_name(i: usize) -> String {
    format!("model-key-{i:02}")
}

fn segment_of(dir: &Path) -> std::path::PathBuf {
    std::fs::read_dir(dir)
        .expect("read dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "ddts"))
        .expect("one segment")
}

proptest! {
    /// Any sequence of appends over a small key space reads back exactly
    /// like a `HashMap` (latest insert wins) — through the live handle
    /// and again through a fresh open of the same directory.
    #[test]
    fn append_get_matches_hashmap_model(
        ops in prop::collection::vec((0usize..6, prop::collection::vec(0u8..255, 0..24)), 0..40)
    ) {
        let tmp = TempCacheDir::new("prop-model");
        let mut model: HashMap<usize, Vec<u8>> = HashMap::new();
        {
            let mut store = PileStore::open(tmp.path()).expect("open");
            for (slot, payload) in &ops {
                store.append(key_name(*slot).as_bytes(), payload).expect("append");
                model.insert(*slot, payload.clone());
                // Read-your-writes while the handle is live.
                prop_assert_eq!(
                    store.get(key_name(*slot).as_bytes()).expect("get"),
                    model.get(slot).cloned()
                );
            }
            for slot in 0..6 {
                prop_assert_eq!(
                    store.get(key_name(slot).as_bytes()).expect("get"),
                    model.get(&slot).cloned()
                );
            }
        }
        // And the same truth from a cold process.
        let mut reopened = PileStore::open(tmp.path()).expect("reopen");
        for slot in 0..6 {
            prop_assert_eq!(
                reopened.get(key_name(slot).as_bytes()).expect("get"),
                model.get(&slot).cloned()
            );
        }
        prop_assert!(reopened.verify().expect("verify").is_clean());
    }

    /// Export to the JSONL interchange format and import into a fresh
    /// directory gives byte-identical lookups for every key.
    #[test]
    fn jsonl_export_import_round_trips_byte_identically(
        fps in prop::collection::vec(0u64..u64::MAX, 1..12)
    ) {
        let tmp = TempCacheDir::new("prop-export");
        let trace = NetworkPreset::DartmouthBerry.generate(10);
        let params = AppParams::default();
        let combo = [DdtKind::Array, DdtKind::Dll];
        let log = Simulator::new(MemoryConfig::embedded_default())
            .run(AppKind::Drr, combo, &params, &trace);
        let mut ids = Vec::new();
        {
            let mut cache = SimCache::open(tmp.path()).expect("open");
            for fp in &fps {
                // Distinct trace fingerprints make distinct cache keys
                // without re-running the simulator.
                let key = CacheKey::new(
                    AppKind::Drr, combo, &params, &trace, *fp,
                    &MemoryConfig::embedded_default(),
                );
                ids.push(key.id());
                cache.insert(&key, log.clone());
            }
        }
        let dump = tmp.join("dump.jsonl");
        let exported = SimCache::export_store(tmp.path(), &dump).expect("export");
        let fresh = TempCacheDir::new("prop-import");
        let report = SimCache::import_store(fresh.path(), &dump).expect("import");
        prop_assert_eq!(exported, report.imported, "every exported line imports");
        prop_assert_eq!(report.skipped, 0);
        let mut original = PileStore::open(tmp.path()).expect("open original");
        let mut round_tripped = PileStore::open(fresh.path()).expect("open imported");
        for id in &ids {
            let a = original.get(id.as_bytes()).expect("get original");
            let b = round_tripped.get(id.as_bytes()).expect("get imported");
            prop_assert!(a.is_some(), "original must hold {id}");
            prop_assert_eq!(a, b, "byte-identical payload for {}", id);
        }
    }

    /// Truncating the segment at every single byte offset of the last
    /// record leaves a store that opens without panicking, serves every
    /// earlier record, and reports the tear (or a clean shorter store at
    /// the record boundary).
    #[test]
    fn truncation_at_every_offset_of_the_last_record_stays_readable(
        klen in 1usize..32,
        vlen in 0usize..64,
        earlier in 0usize..4,
    ) {
        let tmp = TempCacheDir::new("prop-trunc");
        let prev_end = {
            let mut store = PileStore::open(tmp.path()).expect("open");
            for i in 0..earlier {
                store
                    .append(format!("early-{i}").as_bytes(), b"stable payload")
                    .expect("append");
            }
            store.flush().expect("flush");
            let end = if earlier == 0 {
                0
            } else {
                std::fs::metadata(segment_of(tmp.path())).expect("meta").len() - PAGE
            };
            let key = vec![b'k'; klen];
            let payload = vec![0xA5u8; vlen];
            store.append(&key, &payload).expect("append last");
            end
        };
        let seg = segment_of(tmp.path());
        let full = std::fs::metadata(&seg).expect("meta").len();
        let last_key = vec![b'k'; klen];
        // Walk backwards over every byte of the last record.
        for cut in (PAGE + prev_end..full).rev() {
            OpenOptions::new()
                .write(true)
                .open(&seg)
                .expect("open rw")
                .set_len(cut)
                .expect("truncate");
            let mut store = PileStore::open(tmp.path()).expect("open after cut");
            for i in 0..earlier {
                prop_assert_eq!(
                    store.get(format!("early-{i}").as_bytes()).expect("get"),
                    Some(b"stable payload".to_vec()),
                    "record {} must survive a tail cut at {}", i, cut
                );
            }
            // The cut record itself must read as a miss, never garbage.
            let got = store.get(&last_key).expect("get cut record");
            prop_assert!(got.is_none(), "torn record served at cut {}", cut);
            // And a full verify walks the damage without panicking.
            let report = store.verify().expect("verify");
            prop_assert_eq!(report.records_ok(), earlier as u64, "cut {}", cut);
        }
    }
}
