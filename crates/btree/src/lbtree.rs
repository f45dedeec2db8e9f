//! LB+Tree: DRAM inner nodes, NVM leaves, strict per-update write-back
//! (Liu et al., VLDB 2020).

use crate::stripes::LeafStripes;
use crate::LEAF_CAP;
use htm_sim::sync::RwLock;
use nvm_sim::{NvmAddr, NvmHeap};
use persist_alloc::{Header, PAlloc, RecoveredBlock, HDR_WORDS};
use std::sync::Arc;

/// Block tag for LB+Tree leaves.
pub const LBTREE_LEAF_TAG: u64 = 0x4C42_5452; // "LBTR"

const L_COUNT: u64 = 0;
const L_PAIRS: u64 = 3;
const LEAF_PAYLOAD: u64 = L_PAIRS + 2 * LEAF_CAP as u64;

/// Inner fanout before splitting.
const INNER_CAP: usize = 64;

enum Node {
    Inner { keys: Vec<u64>, kids: Vec<Node> },
    Leaf(NvmAddr),
}

/// The LB+Tree: log-depth DRAM traversal, strictly durable NVM leaves
/// with unsorted entries (insertions append; removals swap with the
/// last entry), rebuilt from the leaf layer after a crash.
pub struct LbTree {
    heap: Arc<NvmHeap>,
    alloc: Arc<PAlloc>,
    root: RwLock<Node>,
    leaves: LeafStripes,
}

impl LbTree {
    pub fn new(heap: Arc<NvmHeap>) -> Self {
        let alloc = Arc::new(PAlloc::new(Arc::clone(&heap)));
        let leaf = Self::new_leaf(&heap, &alloc);
        Self {
            heap,
            alloc,
            root: RwLock::new(Node::Leaf(leaf)),
            leaves: LeafStripes::new(),
        }
    }

    fn new_leaf(heap: &NvmHeap, alloc: &PAlloc) -> NvmAddr {
        let leaf = alloc.alloc_for_payload(LEAF_PAYLOAD);
        Header::set_tag(heap, leaf, LBTREE_LEAF_TAG);
        Header::set_epoch(heap, leaf, 0);
        heap.persist_range(leaf, HDR_WORDS + 1);
        heap.fence();
        leaf
    }

    pub fn heap(&self) -> &Arc<NvmHeap> {
        &self.heap
    }

    pub fn nvm_bytes(&self) -> u64 {
        self.alloc.stats().bytes_in_use()
    }

    /// Approximate DRAM held by the inner tree (Table 3). Only the inner
    /// tree lives in DRAM, so LB+Tree's DRAM footprint is a small
    /// fraction of the vEB trees'.
    pub fn dram_bytes(&self) -> u64 {
        fn walk(n: &Node) -> u64 {
            match n {
                Node::Leaf(_) => 16,
                Node::Inner { keys, kids } => {
                    (keys.len() * 8 + kids.len() * 8) as u64
                        + 48
                        + kids.iter().map(walk).sum::<u64>()
                }
            }
        }
        walk(&self.root.read())
    }

    #[inline]
    fn pw(&self, leaf: NvmAddr, idx: u64) -> NvmAddr {
        leaf.offset(HDR_WORDS + idx)
    }

    fn count(&self, leaf: NvmAddr) -> u64 {
        self.heap
            .word(self.pw(leaf, L_COUNT))
            .load(std::sync::atomic::Ordering::Acquire)
    }

    fn pair(&self, leaf: NvmAddr, i: u64) -> (u64, u64) {
        let k = self
            .heap
            .word(self.pw(leaf, L_PAIRS + 2 * i))
            .load(std::sync::atomic::Ordering::Acquire);
        let v = self
            .heap
            .word(self.pw(leaf, L_PAIRS + 2 * i + 1))
            .load(std::sync::atomic::Ordering::Acquire);
        (k, v)
    }

    fn descend(node: &Node, key: u64) -> NvmAddr {
        let mut n = node;
        loop {
            match n {
                Node::Leaf(a) => return *a,
                Node::Inner { keys, kids } => {
                    let i = keys.partition_point(|&k| k <= key);
                    n = &kids[i];
                }
            }
        }
    }

    /// Inserts or updates; returns the previous value. Strictly durable
    /// on return.
    pub fn insert(&self, key: u64, value: u64) -> Option<u64> {
        loop {
            let guard = self.root.read();
            let leaf = Self::descend(&guard, key);
            let _ll = self.leaves.lock(leaf);
            self.heap.charge_media_read(); // leaf visit
            let n = self.count(leaf);
            // In-place update?
            for i in 0..n {
                let (k, _) = self.pair(leaf, i);
                if k == key {
                    let va = self.pw(leaf, L_PAIRS + 2 * i + 1);
                    let old = self
                        .heap
                        .word(va)
                        .load(std::sync::atomic::Ordering::Acquire);
                    self.heap.write(va, value);
                    self.heap.clwb(va);
                    self.heap.fence();
                    return Some(old);
                }
            }
            if (n as usize) < LEAF_CAP {
                // Append the pair, persist it, then publish via count —
                // the LB+Tree unsorted-leaf discipline.
                let e = self.pw(leaf, L_PAIRS + 2 * n);
                self.heap.write(e, key);
                self.heap.write(e.offset(1), value);
                self.heap.persist_range(e, 2);
                self.heap.fence();
                self.heap.write(self.pw(leaf, L_COUNT), n + 1);
                self.heap.clwb(self.pw(leaf, L_COUNT));
                self.heap.fence();
                return None;
            }
            // Leaf full: split under the structure write lock.
            drop(_ll);
            drop(guard);
            self.split_leaf(key);
        }
    }

    /// Removes `key`, returning its value. Durable on return.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let guard = self.root.read();
        let leaf = Self::descend(&guard, key);
        let _ll = self.leaves.lock(leaf);
        self.heap.charge_media_read();
        let n = self.count(leaf);
        for i in 0..n {
            let (k, v) = self.pair(leaf, i);
            if k == key {
                // Swap with the last entry, persist, shrink.
                if i != n - 1 {
                    let (lk, lv) = self.pair(leaf, n - 1);
                    let e = self.pw(leaf, L_PAIRS + 2 * i);
                    self.heap.write(e, lk);
                    self.heap.write(e.offset(1), lv);
                    self.heap.persist_range(e, 2);
                    self.heap.fence();
                }
                self.heap.write(self.pw(leaf, L_COUNT), n - 1);
                self.heap.clwb(self.pw(leaf, L_COUNT));
                self.heap.fence();
                return Some(v);
            }
        }
        None
    }

    /// Lock-free lookup, validated against the leaf's stripe version.
    pub fn get(&self, key: u64) -> Option<u64> {
        let guard = self.root.read();
        let leaf = Self::descend(&guard, key);
        self.heap.charge_media_read();
        self.leaves.read(leaf, || {
            (0..self.count(leaf))
                .map(|i| self.pair(leaf, i))
                .find(|&(k, _)| k == key)
                .map(|(_, v)| v)
        })
    }

    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Splits the (full) leaf on the path to `key`.
    fn split_leaf(&self, key: u64) {
        let mut root = self.root.write();
        // Re-descend: the tree may have changed before we got the lock.
        let (new_keys, split) = {
            let leaf = Self::descend(&root, key);
            if (self.count(leaf) as usize) < LEAF_CAP {
                return; // someone split it for us
            }
            // Gather, sort, redistribute into two fresh leaves.
            let n = self.count(leaf);
            let mut pairs: Vec<(u64, u64)> = (0..n).map(|i| self.pair(leaf, i)).collect();
            pairs.sort_unstable();
            let mid = pairs.len() / 2;
            let sep = pairs[mid].0;
            let left = Self::new_leaf(&self.heap, &self.alloc);
            let right = Self::new_leaf(&self.heap, &self.alloc);
            for (dst, part) in [(left, &pairs[..mid]), (right, &pairs[mid..])] {
                for (i, (k, v)) in part.iter().enumerate() {
                    let e = self.pw(dst, L_PAIRS + 2 * i as u64);
                    self.heap.write(e, *k);
                    self.heap.write(e.offset(1), *v);
                }
                self.heap.write(self.pw(dst, L_COUNT), part.len() as u64);
                self.heap.persist_range(dst, HDR_WORDS + LEAF_PAYLOAD);
            }
            self.heap.fence();
            (vec![(leaf, sep, left, right)], true)
        };
        if split {
            for (old, sep, left, right) in new_keys {
                Self::replace_leaf(&mut root, old, sep, left, right);
                self.alloc.free(old);
            }
            // Split inner nodes that grew beyond capacity.
            Self::split_inner(&mut root);
        }
    }

    fn replace_leaf(node: &mut Node, old: NvmAddr, sep: u64, left: NvmAddr, right: NvmAddr) {
        match node {
            Node::Leaf(a) if *a == old => {
                *node = Node::Inner {
                    keys: vec![sep],
                    kids: vec![Node::Leaf(left), Node::Leaf(right)],
                };
            }
            Node::Leaf(_) => unreachable!("stale leaf replacement"),
            Node::Inner { keys, kids } => {
                // Find the child containing `old` by scanning (splits are
                // rare; linear scan under the write lock is fine).
                let i = kids
                    .iter()
                    .position(|k| matches!(k, Node::Leaf(a) if *a == old))
                    .or_else(|| Some(keys.partition_point(|&k| k <= sep)))
                    .unwrap();
                match &mut kids[i] {
                    Node::Leaf(a) if *a == old => {
                        keys.insert(keys.partition_point(|&k| k <= sep), sep);
                        kids[i] = Node::Leaf(right);
                        kids.insert(i, Node::Leaf(left));
                    }
                    child => Self::replace_leaf(child, old, sep, left, right),
                }
            }
        }
    }

    fn split_inner(node: &mut Node) {
        if let Node::Inner { keys, kids } = node {
            for kid in kids.iter_mut() {
                Self::split_inner(kid);
            }
            // Split over-full children.
            let mut i = 0;
            while i < kids.len() {
                let too_big =
                    matches!(&kids[i], Node::Inner { kids: g, .. } if g.len() > INNER_CAP);
                if too_big {
                    if let Node::Inner {
                        keys: ckeys,
                        kids: ckids,
                    } = std::mem::replace(&mut kids[i], Node::Leaf(NvmAddr::NULL))
                    {
                        let mid = ckeys.len() / 2;
                        let sep = ckeys[mid];
                        let rkeys = ckeys[mid + 1..].to_vec();
                        let lkeys = ckeys[..mid].to_vec();
                        let mut lkids = ckids;
                        let rkids = lkids.split_off(mid + 1);
                        keys.insert(keys.partition_point(|&k| k <= sep), sep);
                        kids[i] = Node::Inner {
                            keys: rkeys,
                            kids: rkids,
                        };
                        kids.insert(
                            i,
                            Node::Inner {
                                keys: lkeys,
                                kids: lkids,
                            },
                        );
                    }
                }
                i += 1;
            }
            if kids.len() > INNER_CAP && keys.len() >= 3 {
                // Root grew: push down into two halves.
                let mid = keys.len() / 2;
                let sep = keys[mid];
                let rkeys = keys[mid + 1..].to_vec();
                let lkeys = keys[..mid].to_vec();
                let rkids = kids.split_off(mid + 1);
                let lkids = std::mem::take(kids);
                *node = Node::Inner {
                    keys: vec![sep],
                    kids: vec![
                        Node::Inner {
                            keys: lkeys,
                            kids: lkids,
                        },
                        Node::Inner {
                            keys: rkeys,
                            kids: rkids,
                        },
                    ],
                };
            }
        }
    }

    /// Rebuilds the DRAM inner tree from the persisted leaf layer
    /// (LB+Tree's recovery strategy, like PHTM-vEB's).
    pub fn recover(heap: Arc<NvmHeap>, blocks: &[RecoveredBlock]) -> LbTree {
        let (alloc, _) = (PAlloc::recover(Arc::clone(&heap)).0, ());
        let alloc = Arc::new(alloc);
        let t = LbTree {
            heap: Arc::clone(&heap),
            alloc,
            root: RwLock::new(Node::Leaf(NvmAddr::NULL)),
            leaves: LeafStripes::new(),
        };
        // Collect every pair from every surviving leaf, rebuild bulk.
        let mut pairs = Vec::new();
        for b in blocks {
            if b.tag != LBTREE_LEAF_TAG || b.state != persist_alloc::BlockState::Allocated {
                continue;
            }
            let n = heap.read(b.addr.offset(HDR_WORDS + L_COUNT));
            for i in 0..n.min(LEAF_CAP as u64) {
                let k = heap.read(b.addr.offset(HDR_WORDS + L_PAIRS + 2 * i));
                let v = heap.read(b.addr.offset(HDR_WORDS + L_PAIRS + 2 * i + 1));
                pairs.push((k, v));
            }
            t.alloc.free(b.addr);
        }
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0);
        // Build a fresh leaf layer and inner tree.
        let mut leaves = Vec::new();
        for chunk in pairs.chunks(LEAF_CAP / 2) {
            let leaf = Self::new_leaf(&t.heap, &t.alloc);
            for (i, (k, v)) in chunk.iter().enumerate() {
                let e = t.pw(leaf, L_PAIRS + 2 * i as u64);
                t.heap.write(e, *k);
                t.heap.write(e.offset(1), *v);
            }
            t.heap.write(t.pw(leaf, L_COUNT), chunk.len() as u64);
            t.heap.persist_range(leaf, HDR_WORDS + LEAF_PAYLOAD);
            leaves.push((chunk[0].0, leaf));
        }
        t.heap.fence();
        let root = if leaves.is_empty() {
            Node::Leaf(Self::new_leaf(&t.heap, &t.alloc))
        } else {
            Self::build_inner(&leaves)
        };
        *t.root.write() = root;
        t
    }

    fn build_inner(leaves: &[(u64, NvmAddr)]) -> Node {
        if leaves.len() == 1 {
            return Node::Leaf(leaves[0].1);
        }
        let mut level: Vec<(u64, Node)> = leaves.iter().map(|&(k, a)| (k, Node::Leaf(a))).collect();
        while level.len() > 1 {
            let mut next = Vec::new();
            for group in level.chunks_mut(INNER_CAP / 2) {
                let first_key = group[0].0;
                let keys: Vec<u64> = group[1..].iter().map(|(k, _)| *k).collect();
                let kids: Vec<Node> = group
                    .iter_mut()
                    .map(|(_, n)| std::mem::replace(n, Node::Leaf(NvmAddr::NULL)))
                    .collect();
                next.push((first_key, Node::Inner { keys, kids }));
            }
            level = next;
        }
        level.pop().unwrap().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvm_sim::NvmConfig;
    use std::collections::BTreeMap;

    fn tree() -> LbTree {
        LbTree::new(Arc::new(NvmHeap::new(NvmConfig::for_tests(64 << 20))))
    }

    #[test]
    fn basic_semantics() {
        let t = tree();
        assert_eq!(t.insert(5, 50), None);
        assert_eq!(t.insert(5, 51), Some(50));
        assert_eq!(t.get(5), Some(51));
        assert_eq!(t.remove(5), Some(51));
        assert_eq!(t.get(5), None);
    }

    #[test]
    fn splits_preserve_data() {
        let t = tree();
        let n = 20_000u64;
        for k in 0..n {
            t.insert(k, k * 2);
        }
        for k in 0..n {
            assert_eq!(t.get(k), Some(k * 2), "key {k} lost in split");
        }
    }

    #[test]
    fn matches_oracle() {
        let t = tree();
        let mut oracle = BTreeMap::new();
        let mut rng = 21u64;
        for i in 0..15_000u64 {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            let key = rng % 8192;
            match rng % 3 {
                0 => assert_eq!(t.insert(key, i), oracle.insert(key, i)),
                1 => assert_eq!(t.remove(key), oracle.remove(&key)),
                _ => assert_eq!(t.get(key), oracle.get(&key).copied()),
            }
        }
    }

    #[test]
    fn inserts_survive_crash_via_leaf_rebuild() {
        let t = tree();
        for k in 0..5000 {
            t.insert(k, k + 7);
        }
        let heap2 = Arc::new(NvmHeap::from_image(t.heap().crash()));
        let (_, blocks) = PAlloc::recover(Arc::clone(&heap2));
        let t2 = LbTree::recover(heap2, &blocks);
        for k in 0..5000 {
            assert_eq!(t2.get(k), Some(k + 7), "durable key {k} lost");
        }
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let t = Arc::new(tree());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..4000u64 {
                        let k = tid * 1_000_000 + i;
                        t.insert(k, k + 3);
                    }
                });
            }
        });
        for tid in 0..4u64 {
            for i in 0..4000u64 {
                let k = tid * 1_000_000 + i;
                assert_eq!(t.get(k), Some(k + 3), "lost {k}");
            }
        }
    }

    impl crate::tests::Map for LbTree {
        fn insert(&self, key: u64, value: u64) -> Option<u64> {
            LbTree::insert(self, key, value)
        }
        fn remove(&self, key: u64) -> Option<u64> {
            LbTree::remove(self, key)
        }
        fn get(&self, key: u64) -> Option<u64> {
            LbTree::get(self, key)
        }
    }

    #[test]
    fn lbtree_matches_oracle_under_contention() {
        crate::tests::contended_oracle_check(&tree());
    }

    #[test]
    fn dram_footprint_is_modest() {
        let t = tree();
        for k in 0..50_000u64 {
            t.insert(k, k);
        }
        // Inner tree only: far below the 16 B/key the data would need.
        assert!(t.dram_bytes() < 50_000 * 8);
        assert!(t.nvm_bytes() > 50_000 * 16 / 2);
    }
}
