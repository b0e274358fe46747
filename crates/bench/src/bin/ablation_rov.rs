//! Ablation — **roving pointers**: quantify when the `(O)` variants pay
//! off, sweeping the access pattern from fully sequential to fully random.
//!
//! Run with `cargo run -p ddtr_bench --bin ablation_rov --release`.

use ddtr_ddt::{DdtKind, TestRecord};
use ddtr_mem::{MemoryConfig, MemorySystem};

type Rec = TestRecord<32>;

const N: usize = 128;
const OPS: usize = 512;

/// Deterministic access-position stream mixing sequential steps with
/// random jumps at the given percentage.
fn positions(random_pct: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(OPS);
    let mut pos = 0usize;
    let mut noise = 13usize;
    for i in 0..OPS {
        noise = noise
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let _ = i;
        if noise % 100 < random_pct {
            pos = noise / 7 % N;
        } else {
            pos = (pos + 1) % N;
        }
        out.push(pos);
    }
    out
}

fn run(kind: DdtKind, random_pct: usize) -> u64 {
    let mut mem = MemorySystem::new(MemoryConfig::default());
    let mut ddt = kind.instantiate::<Rec>(&mut mem);
    for i in 0..N as u64 {
        ddt.insert(Rec { id: i, tag: 0 }, &mut mem);
    }
    let before = mem.stats().accesses();
    for pos in positions(random_pct) {
        ddt.get_nth(pos, &mut mem);
    }
    mem.stats().accesses() - before
}

fn main() {
    println!("Ablation — roving-pointer benefit vs access randomness ({N} records, {OPS} positional reads)\n");
    println!(
        "{:>8} | {:>10} {:>10} {:>8} | {:>10} {:>10} {:>8}",
        "random%", "SLL", "SLL(O)", "gain", "SLL(AR)", "SLL(ARO)", "gain"
    );
    for random_pct in [0usize, 10, 25, 50, 75, 100] {
        let sll = run(DdtKind::Sll, random_pct);
        let sll_o = run(DdtKind::SllRov, random_pct);
        let chunk = run(DdtKind::SllChunk, random_pct);
        let chunk_o = run(DdtKind::SllChunkRov, random_pct);
        let gain = |a: u64, b: u64| format!("{:.1}x", a as f64 / b as f64);
        println!(
            "{random_pct:>8} | {sll:>10} {sll_o:>10} {:>8} | {chunk:>10} {chunk_o:>8} {:>8}",
            gain(sll, sll_o),
            gain(chunk, chunk_o),
        );
    }
    println!("\nShape check: the roving gain is largest for sequential access and");
    println!("decays toward 1x as the pattern randomises; chunked variants start");
    println!("from a far lower base cost, so their roving gain is smaller.");
}
