//! Quickstart: a buffered-durable hash map on simulated HTM + NVM.
//!
//! Demonstrates the full lifecycle from the paper's Listing 1: create an
//! NVM heap, format the epoch system, run HTM-synchronized operations,
//! make them durable via epoch advancement, crash, and recover.
//!
//! ```sh
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- --metrics-json m.json \
//!     --metrics-series s.jsonl --trace-out trace.json
//! ```

use bd_htm::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // The shared observability flags every experiment binary accepts:
    // --metrics-json, --metrics-series, --trace-out (see bench::cli).
    let mut sink = bench::MetricsSink::from_args();

    // 64 MiB of simulated NVM, zero added latency (semantics only).
    let heap = Arc::new(NvmHeap::new(NvmConfig::for_tests(64 << 20)));
    let esys = EpochSys::format(
        Arc::clone(&heap),
        sink.epoch_config(EpochConfig::default().with_epoch_len(Duration::from_millis(5))),
    );
    let htm = Arc::new(Htm::new(HtmConfig::default()));
    sink.attach_htm(&htm);
    sink.attach_esys(&esys);
    let map = BdhtHashMap::new(1 << 12, Arc::clone(&esys), Arc::clone(&htm));

    // A background thread advances epochs every 5 ms, persisting buffered
    // writes without ever touching the transactional critical path.
    let ticker = EpochTicker::spawn(Arc::clone(&esys));

    println!("inserting 10,000 pairs under HTM...");
    for k in 0..10_000u64 {
        map.insert(k, k * k);
    }
    assert_eq!(map.get(1234), Some(1234 * 1234));

    // Wait until everything inserted so far is durable (frontier catches
    // up to the epochs our operations ran in).
    let target = esys.current_epoch();
    while esys.persisted_frontier() + 1 < target {
        std::thread::sleep(Duration::from_millis(5));
    }
    ticker.stop();

    let stats = htm.stats().snapshot();
    println!(
        "HTM: {} commits, {} aborts ({:.2}% commit ratio), {} fallbacks",
        stats.commits,
        stats.total_aborts(),
        stats.commit_ratio() * 100.0,
        stats.fallbacks
    );
    let nvm = heap.stats().snapshot();
    println!(
        "NVM: {} line write-backs, {} XPLines touched, write amplification {:.2}",
        nvm.lines_written_back,
        nvm.xplines_touched,
        nvm.write_amplification()
    );

    // One unified report covering the whole pre-crash run: HTM, NVM
    // traffic, epoch stats, allocator footprint, latency histograms —
    // plus the time series and Perfetto trace if their flags were given.
    sink.write();

    // Full-system crash: everything not written back to media is lost.
    println!("simulating a crash...");
    let image = heap.crash();

    // Reboot: recover the epoch system, then rebuild the table's DRAM
    // index from the surviving KV blocks.
    let heap2 = Arc::new(NvmHeap::from_image(image));
    let (esys2, live) = EpochSys::recover(heap2, EpochConfig::default(), 2);
    println!("recovery found {} live KV blocks", live.len());
    let map2 = BdhtHashMap::recover(
        1 << 12,
        esys2,
        Arc::new(Htm::new(HtmConfig::default())),
        &live,
    );

    let mut survived = 0;
    for k in 0..10_000u64 {
        if map2.get(k) == Some(k * k) {
            survived += 1;
        }
    }
    println!(
        "{survived}/10000 inserts survived the crash (all durable epochs; \
         the last one or two epochs of work are intentionally sacrificed \
         by buffered durability)"
    );
    // The sacrificed tail is the last 1–2 epochs of inserts; its size
    // depends on scheduler timing (how many inserts landed in the final
    // epochs), so the floor is deliberately loose.
    assert!(survived >= 7000, "unexpectedly large data loss: {survived}");
}
