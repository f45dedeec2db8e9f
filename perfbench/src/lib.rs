//! The repository benchmark: seeded YCSB workloads over the three BDL
//! structures in the production topology (default `EpochConfig`, one
//! `EpochTicker`, one `Persister`, Optane device latencies), reporting
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! separate traced run. See `README.md` in this directory.

pub mod backend;
pub mod layers;
pub mod run;
pub mod spans;
pub mod stats;

pub use backend::KvBackend;
pub use run::{run, Keys, Metric, Report, RunConfig};

use bdhtm_core::EpochConfig;
use hashtable::BdSpash;
use nvm_sim::NvmConfig;
use skiplist::BdlSkiplist;
use std::path::{Path, PathBuf};
use veb::PhtmVeb;

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// A second seed, not used while the benchmark was written, that also
/// runs clean: later claims can be re-checked on it.
pub const HELD_OUT_SEED: u64 = 8191;

/// NVM bytes one live key costs: each of the three structures keeps one
/// 64-B KV block per key in NVM (measured: `space_amp` = 4.0 after the
/// clean shutdown, 64 B per 16 user bytes); its index lives in DRAM.
pub const NVM_BYTES_PER_KEY: u64 = 64;

/// Flight-recorder slots per thread in the traced run (the default of 64
/// covers microseconds of a client's history; this covers a few epochs).
pub const TRACE_FLIGHT_SLOTS: usize = 1 << 17;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Structure {
    PhtmVeb,
    BdSpash,
    BdlSkiplist,
}

/// One workload: a structure, a key space, a distribution, a mix and a
/// client count.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub structure: Structure,
    pub universe_bits: u32,
    pub keys: Keys,
    pub read_fraction: f64,
    pub clients: usize,
}

pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "write-zipf-veb",
        structure: Structure::PhtmVeb,
        universe_bits: 20,
        keys: Keys::Zipf(0.99),
        read_fraction: 0.2,
        clients: 1,
    },
    WorkloadDef {
        name: "read-uniform-spash",
        structure: Structure::BdSpash,
        universe_bits: 20,
        keys: Keys::Uniform,
        read_fraction: 0.95,
        clients: 1,
    },
    WorkloadDef {
        name: "write-contended-skiplist",
        structure: Structure::BdlSkiplist,
        universe_bits: 12,
        keys: Keys::Zipf(0.99),
        read_fraction: 0.2,
        clients: 2,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Structure {
    pub fn name(self) -> &'static str {
        match self {
            Structure::PhtmVeb => "PHTM-vEB",
            Structure::BdSpash => "BD-Spash",
            Structure::BdlSkiplist => "BDL-Skiplist",
        }
    }
}

impl WorkloadDef {
    /// Heap capacity sized to the data: every key of the universe live,
    /// plus a quarter for blocks retired but not yet reclaimed and a
    /// fixed slack. Recovery scan time follows capacity, not live data,
    /// so an oversized heap would inflate `recovery_s`.
    pub fn heap_capacity(&self) -> usize {
        let data = (1u64 << self.universe_bits) * NVM_BYTES_PER_KEY;
        let bytes = data + data / 4 + (8 << 20);
        bytes.next_multiple_of(1 << 20) as usize
    }

    /// The production configuration of this workload.
    pub fn config(&self, seed: u64, seconds: f64, trace: bool, trace_dir: &Path) -> RunConfig {
        let mut epoch = EpochConfig::default();
        if trace {
            epoch = epoch.with_flight_slots(TRACE_FLIGHT_SLOTS);
        }
        RunConfig {
            workload: self.name.to_string(),
            universe_bits: self.universe_bits,
            keys: self.keys,
            read_fraction: self.read_fraction,
            clients: self.clients,
            seed,
            seconds,
            warmup_seconds: 0.5,
            stream_ops: 1 << 22,
            nvm: NvmConfig::optane(self.heap_capacity()),
            epoch,
            min_setups: 3,
            min_recoveries: 5,
            min_repeat_seconds: 5.0,
            trace,
            trace_dir: trace_dir.to_path_buf(),
        }
    }

    pub fn run(&self, cfg: &RunConfig) -> Report {
        match self.structure {
            Structure::PhtmVeb => run::<PhtmVeb>(cfg),
            Structure::BdSpash => run::<BdSpash>(cfg),
            Structure::BdlSkiplist => run::<BdlSkiplist>(cfg),
        }
    }
}

/// The commit of the checkout, read from `.git` without running git;
/// "unknown" outside a git checkout (e.g. an exported tree).
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run header: everything a reader needs to reproduce the run.
pub fn header(def: &WorkloadDef, cfg: &RunConfig, root: &Path) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let dist = match cfg.keys {
        Keys::Uniform => "uniform".to_string(),
        Keys::Zipf(theta) => format!("scrambled zipf {theta}"),
    };
    vec![
        ("workload", def.name.to_string()),
        ("structure", def.structure.name().to_string()),
        ("nproc", nproc.to_string()),
        ("seed", cfg.seed.to_string()),
        (
            "universe",
            format!("2^{} keys, prefilled with the even half", cfg.universe_bits),
        ),
        ("distribution", dist),
        (
            "mix",
            format!(
                "{:.1}% reads, writes split evenly between insert and remove",
                cfg.read_fraction * 100.0
            ),
        ),
        (
            "op_stream",
            format!(
                "{} pre-generated ops per client, replayed from the start if exhausted",
                cfg.stream_ops
            ),
        ),
        ("clients", format!("{} closed-loop", cfg.clients)),
        (
            "window",
            format!(
                "{} s after {} s warm-up{}",
                cfg.seconds,
                cfg.warmup_seconds,
                if cfg.trace {
                    ", alternating untraced/traced quarters"
                } else {
                    ""
                }
            ),
        ),
        ("epoch_len", format!("{:?}", cfg.epoch.epoch_len)),
        ("pipeline_depth", cfg.epoch.pipeline_depth.to_string()),
        (
            "persist_workers",
            cfg.epoch.effective_persist_workers().to_string(),
        ),
        (
            "nvm_latency",
            format!(
                "read {} ns, write-back {} ns, fence {} ns",
                cfg.nvm.read_ns, cfg.nvm.writeback_ns, cfg.nvm.fence_ns
            ),
        ),
        (
            "heap_capacity",
            format!(
                "{} MiB (sized to 2^{} keys)",
                cfg.nvm.capacity_bytes >> 20,
                cfg.universe_bits
            ),
        ),
        ("flight_slots", cfg.epoch.flight_slots.to_string()),
        ("git_commit", git_commit(root)),
    ]
}

/// Where traced runs write their span files, under the working directory.
pub fn trace_dir(root: &Path) -> PathBuf {
    root.join(".bench_out")
}
