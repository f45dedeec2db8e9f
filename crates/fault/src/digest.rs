//! Single source of truth for the pinned behavior-preservation digest.
//!
//! [`pinned_digest`](crate::pinned_digest) folds the verdicts of the
//! pinned-seed plain and torn crash sweeps over every structure family
//! into one FNV-1a value;
//! [`pinned_pipelined_digest`](crate::pinned_pipelined_digest) does the
//! same for the pipelined and pipelined-torn sweeps. CI recomputes both
//! (`fault_sweep --digest --check`) and fails if either drifts from its
//! constant below — the cheapest possible "this refactor changed no
//! crash-point schedule and no recovery outcome" gate.
//!
//! If a change *intentionally* alters sweep behavior (new crash points,
//! different workload, a real recovery fix), update the matching
//! constant here — and only here; ci.sh and the sweep binary both read
//! these constants.

/// The seed the pinned digest is defined over (ci.sh exports it as
/// `FAULT_SEED=0xBD15EED`; also the sweep binary's default).
pub const PINNED_SWEEP_SEED: u64 = 0xBD1_5EED;

/// Expected value of `pinned_digest(PINNED_SWEEP_SEED)`.
pub const PINNED_SWEEP_DIGEST: u64 = 0xc80a_d789_4b7a_0701;

/// Expected value of `pinned_pipelined_digest(PINNED_SWEEP_SEED)`: the
/// same fold over the pipelined and pipelined-torn sweeps, whose
/// hand-driven write-back schedule the synchronous sweeps never cross.
pub const PINNED_PIPELINED_DIGEST: u64 = 0xb585_fdf1_1ef8_94b9;
