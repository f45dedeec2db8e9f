//! Persister-pool microbench (PR 9: sharded epoch write-back).
//!
//! Seals a fixed stream of fat epoch batches — `--batches` epochs of
//! `--blocks` class-512 blocks each — against a heap with real per-line
//! write-back latency (`--writeback-ns`, nvm-sim spins on the flushing
//! thread), then times how long the background pipeline takes to make
//! all of it durable. Two pool widths are timed through the identical
//! public path ([`Persister::spawn`]):
//!
//! * **serial** — `persist_workers = 1`: one persist thread writes each
//!   batch back as a single chunk, the single-persister baseline.
//! * **pooled** — `persist_workers = N` (`--workers`): each batch's
//!   flush plan is partitioned into N line-aligned chunks that the N
//!   persist threads claim; the per-line spins overlap across threads
//!   while the fence and the frontier publish stay single and ordered.
//!
//! Throughput is durable words per second over the whole run (workload
//! start → `flush_all` return), so sealing, chunking, joining, fencing
//! and publish overhead all count against the pool. The ratio
//! pooled/serial is what ci.sh gates on (`--min-ratio`).
//!
//! ```sh
//! cargo run --release -p bench --bin persist_pool -- \
//!     --workers 4 --min-ratio 1.3 --metrics-json BENCH_persist_pool.json
//! ```

use bdhtm_core::{EpochConfig, EpochSys, Persister};
use nvm_sim::{NvmConfig, NvmHeap};
use persist_alloc::Header;
use std::sync::Arc;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: persist_pool [--workers N] [--batches N] [--blocks N] \
         [--writeback-ns N] [--min-ratio F] [--metrics-json <path>]"
    );
    std::process::exit(2);
}

/// One timed run at the given pool width; returns durable words per
/// second. Every run uses a fresh heap, so the allocation sequence —
/// and therefore the flush plan the pool sees — is identical across
/// widths.
fn run_mode(workers: usize, batches: usize, blocks: usize, writeback_ns: u64) -> f64 {
    let mut nc = NvmConfig::for_tests(64 << 20);
    nc.writeback_ns = writeback_ns;
    let heap = Arc::new(NvmHeap::new(nc));
    let es = EpochSys::format(
        heap,
        EpochConfig::manual()
            .with_persist_workers(workers)
            // Deep enough that sealing never stalls on the pipeline
            // bound: the run measures write-back throughput, not
            // backpressure policy.
            .with_pipeline_depth(batches + 2)
            .with_max_buffered_words(0),
    );
    let persister = Persister::spawn(Arc::clone(&es));

    let t0 = Instant::now();
    for _ in 0..batches {
        for _ in 0..blocks {
            let e = es.begin_op();
            // 508 payload words + 4 header words = one class-512 block:
            // 64 cache lines of write-back each.
            let blk = es.p_new(508);
            Header::set_epoch(es.heap(), blk, e);
            es.p_track(blk);
            es.end_op();
        }
        es.advance(); // seals the previous epoch's batch
    }
    es.flush_all(); // blocks until the frontier covers everything above
    let elapsed = t0.elapsed().as_secs_f64();
    persister.stop();

    let words = es.stats().snapshot().words_persisted;
    assert_eq!(es.buffered_words(), 0, "run must drain to zero");
    assert!(
        words >= (batches * blocks * 512) as u64,
        "every sealed block must have been written back"
    );
    words as f64 / elapsed
}

fn main() {
    let mut workers = 4usize;
    let mut batches = 6usize;
    let mut blocks = 16usize;
    // Long enough per line that nvm-sim's latency injection yields the
    // core between deadline checks: concurrent persist threads overlap
    // their waits even on single-core CI hosts.
    let mut writeback_ns = 20_000u64;
    let mut min_ratio: Option<f64> = None;

    // The shared parser owns --metrics-json (here: the pool-comparison
    // report, its own small schema) so the flag spellings stay uniform
    // across every binary; everything else is this binary's.
    let common = bench::CommonArgs::parse();
    let json_path = common.metrics_json.clone();
    let mut args = common.rest.iter().cloned();
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workers" => workers = val().parse().unwrap_or_else(|_| usage()),
            "--batches" => batches = val().parse().unwrap_or_else(|_| usage()),
            "--blocks" => blocks = val().parse().unwrap_or_else(|_| usage()),
            "--writeback-ns" => writeback_ns = val().parse().unwrap_or_else(|_| usage()),
            "--min-ratio" => min_ratio = Some(val().parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    if workers == 0 {
        usage();
    }

    // Warm-up pass (thread spawn, allocator, page faults) at token
    // size, then the two timed widths. Serial first so any turbo or
    // thermal drift on small containers biases *against* the pool.
    run_mode(workers, 2, 8, writeback_ns);
    let serial = run_mode(1, batches, blocks, writeback_ns);
    let pooled = run_mode(workers, batches, blocks, writeback_ns);
    let ratio = pooled / serial.max(1.0);

    println!(
        "# persist_pool: {batches} batches x {blocks} class-512 blocks, \
         {writeback_ns} ns/line write-back"
    );
    println!("{:<10} {:>14} words/s", "serial", serial as u64);
    println!(
        "{:<10} {:>14} words/s",
        format!("pool({workers})"),
        pooled as u64
    );
    println!("{:<10} {:>14.3}x", "ratio", ratio);

    if let Some(path) = &json_path {
        let json = format!(
            "{{\"comparison\":\"persist-pool\",\"workers\":{workers},\
             \"batches\":{batches},\"blocks\":{blocks},\
             \"writeback_ns\":{writeback_ns},\
             \"serial_words_per_sec\":{serial:.0},\
             \"pooled_words_per_sec\":{pooled:.0},\
             \"ratio\":{ratio:.4},\"min_ratio\":{}}}",
            min_ratio.map_or("null".to_string(), |r| format!("{r}"))
        );
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("persist-pool comparison written to {path}");
    }

    if let Some(min) = min_ratio {
        if ratio < min {
            eprintln!("persist_pool: pooled/serial ratio {ratio:.3} below required {min:.3}");
            std::process::exit(1);
        }
    }
}
