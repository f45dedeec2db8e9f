//! Flush plans: the device ranges one sealed batch writes back, and
//! their split into the chunks that persist steps claim.
//!
//! A plan lists one line-aligned range per live tracked block — with
//! word-contiguous neighbors coalesced into one ranged flush — followed
//! by the retirement-record headers. [`partition_plan`] cuts it into at
//! most one word-balanced chunk per attached persist worker, only at
//! cache-line boundaries, so the chunks together issue exactly the
//! per-line device schedule the whole plan would. With one persist
//! worker (or none: the synchronous drain) the plan stays a single
//! chunk, byte-for-byte the serial persister's device-op sequence,
//! which is what keeps the pinned sweep digests stable.

use nvm_sim::{NvmAddr, WORDS_PER_LINE};
use persist_alloc::{Header, CLASS_WORDS, HDR_WORDS};

use super::facade::EpochSys;
use super::pipeline::EpochBatch;

/// One contiguous, line-aligned device range scheduled for write-back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct FlushRange {
    pub(super) start: NvmAddr,
    pub(super) words: u64,
}

/// Splits a flush plan into at most `parts` word-balanced chunks,
/// preserving range order and cutting only at cache-line boundaries —
/// the line is the clwb unit, so a split range issues the identical
/// per-line device schedule the unsplit range would.
pub(super) fn partition_plan(plan: Vec<FlushRange>, parts: usize) -> Vec<Vec<FlushRange>> {
    let total: u64 = plan.iter().map(|r| r.words).sum();
    if parts <= 1 || total == 0 {
        return vec![plan];
    }
    let target = total.div_ceil(parts as u64).max(WORDS_PER_LINE);
    let mut out: Vec<Vec<FlushRange>> = Vec::with_capacity(parts);
    let mut cur: Vec<FlushRange> = Vec::new();
    let mut cur_words = 0u64;
    for r in plan {
        let mut rest = r;
        while rest.words > 0 {
            if out.len() + 1 >= parts {
                // Final chunk: takes everything that remains.
                cur.push(rest);
                cur_words += rest.words;
                break;
            }
            let room = target.saturating_sub(cur_words);
            let take = (room - room % WORDS_PER_LINE).min(rest.words);
            if take == 0 {
                // Chunk is full (a sub-line remainder counts as full):
                // close it. `cur` is never empty here because an empty
                // chunk has `room == target >= WORDS_PER_LINE`.
                out.push(std::mem::take(&mut cur));
                cur_words = 0;
                continue;
            }
            cur.push(FlushRange {
                start: rest.start,
                words: take,
            });
            cur_words += take;
            rest = FlushRange {
                start: NvmAddr(rest.start.0 + take),
                words: rest.words - take,
            };
            if cur_words >= target {
                out.push(std::mem::take(&mut cur));
                cur_words = 0;
            }
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

impl EpochSys {
    /// Builds the batch's flush plan: one [`FlushRange`] per live
    /// tracked block, with word-contiguous neighbors coalesced into a
    /// single ranged flush, followed by the retirement-record header
    /// lines (never merged — headers end mid-line). Returns the plan
    /// and the number of flushes saved by coalescing.
    ///
    /// Coalescing is digest-neutral: blocks are line-aligned and the
    /// size classes are line-multiples, so a merge happens only when
    /// the previous range ends exactly on the next block's first line —
    /// the merged range issues the identical per-line clwb schedule the
    /// two separate ranges would (the device flushes ranges line by
    /// line). The guard below makes that precondition explicit.
    pub(super) fn build_flush_plan(&self, batch: &EpochBatch) -> (Vec<FlushRange>, u64) {
        debug_assert!(batch.normalized, "flush plans need sorted unique blocks");
        let heap = self.heap();
        let mut plan: Vec<FlushRange> =
            Vec::with_capacity(batch.persist.len() + batch.retire.len());
        let mut coalesced = 0u64;
        for &(blk, _) in &batch.persist {
            // A block freed after tracking (tracked then retired in a
            // later epoch of the same batch window) has no live header:
            // skip it, exactly as the serial persister always has.
            if let Some((_, class)) = Header::state(heap, blk) {
                let words = CLASS_WORDS[class];
                match plan.last_mut() {
                    Some(last)
                        if last.start.0 + last.words == blk.0
                            && (last.start.0 + last.words) % WORDS_PER_LINE == 0 =>
                    {
                        last.words += words;
                        coalesced += 1;
                    }
                    _ => plan.push(FlushRange { start: blk, words }),
                }
            }
        }
        for &blk in &batch.retire {
            plan.push(FlushRange {
                start: blk,
                words: HDR_WORDS,
            });
        }
        (plan, coalesced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(start: u64, words: u64) -> FlushRange {
        FlushRange {
            start: NvmAddr(start),
            words,
        }
    }

    fn words_of(chunks: &[Vec<FlushRange>]) -> u64 {
        chunks.iter().flatten().map(|r| r.words).sum()
    }

    #[test]
    fn partition_preserves_words_and_order() {
        let plan = vec![range(0, 32), range(64, 128), range(512, 8), range(1024, 4)];
        let total: u64 = plan.iter().map(|r| r.words).sum();
        for parts in 1..=6 {
            let chunks = partition_plan(plan.clone(), parts);
            assert!(chunks.len() <= parts.max(1), "at most {parts} chunks");
            assert_eq!(words_of(&chunks), total, "no words lost at {parts}");
            // Flattened back, the per-line schedule is the original's:
            // same starts in the same order, splits only at line
            // boundaries within an original range.
            let flat: Vec<FlushRange> = chunks.into_iter().flatten().collect();
            let mut orig = plan.iter();
            let mut cur = *orig.next().unwrap();
            for r in flat {
                if cur.words == 0 {
                    cur = *orig.next().unwrap();
                }
                assert_eq!(r.start, cur.start, "order/contiguity preserved");
                assert!(r.words <= cur.words);
                assert!(
                    r.words == cur.words || r.words % WORDS_PER_LINE == 0,
                    "splits only at line boundaries"
                );
                cur = FlushRange {
                    start: NvmAddr(cur.start.0 + r.words),
                    words: cur.words - r.words,
                };
            }
            assert_eq!(cur.words, 0, "every original range fully covered");
            assert!(orig.next().is_none());
        }
    }

    #[test]
    fn partition_balances_one_giant_range() {
        // Coalescing can merge a whole extent into one range; the
        // partitioner must still split it so workers share the lines.
        let chunks = partition_plan(vec![range(0, 4096)], 4);
        assert_eq!(chunks.len(), 4);
        for c in &chunks {
            let w: u64 = c.iter().map(|r| r.words).sum();
            assert_eq!(w, 1024, "even line-aligned split");
        }
    }

    #[test]
    fn partition_serial_and_empty_edges() {
        assert_eq!(partition_plan(vec![], 4), vec![Vec::new()]);
        let plan = vec![range(0, 8)];
        assert_eq!(partition_plan(plan.clone(), 1), vec![plan.clone()]);
        // Fewer words than parts: degenerates gracefully.
        let chunks = partition_plan(plan.clone(), 8);
        assert_eq!(words_of(&chunks), 8);
    }
}
