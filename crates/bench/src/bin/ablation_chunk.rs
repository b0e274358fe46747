//! Ablation — **chunk capacity**: sweep the records-per-chunk capacity of
//! the chunked (unrolled) list DDTs and report the traversal-cost versus
//! slack-footprint trade-off.
//!
//! Run with `cargo run -p ddtr_bench --bin ablation_chunk --release`.

use ddtr_ddt::{ChunkedDdt, Ddt, TestRecord};
use ddtr_mem::{MemoryConfig, MemorySystem};

type Rec = TestRecord<48>;

fn main() {
    println!("Ablation — chunk capacity sweep (SLL(AR), 200 records)\n");
    println!(
        "{:>9} | {:>14} | {:>14} | {:>14} | {:>12}",
        "capacity", "seq accesses", "rand accesses", "search acc.", "footprint B"
    );
    for capacity in [2usize, 4, 8, 16, 32, 64] {
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut list = ChunkedDdt::<Rec>::with_chunk_capacity(&mut mem, false, false, capacity);
        for i in 0..200 {
            list.insert(Rec { id: i, tag: i }, &mut mem);
        }
        let cost = |mem: &mut MemorySystem, f: &mut dyn FnMut(&mut MemorySystem)| {
            let before = mem.stats().accesses();
            f(mem);
            mem.stats().accesses() - before
        };
        let seq = cost(&mut mem, &mut |m| {
            for i in 0..200 {
                list.get_nth(i, m);
            }
        });
        let rand = cost(&mut mem, &mut |m| {
            let mut idx = 7usize;
            for _ in 0..200 {
                idx = (idx * 73 + 11) % 200;
                list.get_nth(idx, m);
            }
        });
        let search = cost(&mut mem, &mut |m| {
            for i in 0..200 {
                list.get((i * 37) % 200, m);
            }
        });
        println!(
            "{capacity:>9} | {seq:>14} | {rand:>14} | {search:>14} | {:>12}",
            list.footprint_bytes()
        );
    }
    println!("\nShape check: larger chunks cut positional-walk accesses (fewer");
    println!("header hops) and amortise per-chunk headers, but key searches");
    println!("barely improve (probes dominate) and the last chunk's slack slots");
    println!("grow with capacity; the library default of 8 keeps the walk cheap");
    println!("without committing kilobytes of slack per container.");
}
