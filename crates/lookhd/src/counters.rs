//! Counter-based training state (§III-D, Fig. 6 steps D–F).
//!
//! Instead of bundling an encoded hypervector per training sample, LookHD
//! keeps one counter per pre-stored chunk hypervector per class and simply
//! increments counters while streaming the training set. The class
//! hypervector is materialized *once*, at the end:
//!
//! ```text
//! C = Σ_chunks P_c ⊙ ( Σ_addr count[c][addr] · LUT_c[addr] )
//! ```
//!
//! This factorization is exactly equal to bundling every encoded sample —
//! a property pinned by tests in [`crate::trainer`].
//!
//! Counters are stored densely (a `q^r` array per class and chunk, like
//! the FPGA register file) while the whole set is small, and as hash maps
//! when its address space is too large to materialize (the software-sweep
//! regime). Both stores hold the same integers.

use std::collections::HashMap;

use hdc::{HdcError, Result};

use crate::chunking::ChunkLayout;

/// Cap on the dense cells of one counter set, `k · Σ_chunks q^len(chunk)`
/// (2^24 `u32` cells = 64 MiB). Every Table-I profile at its paper `q`
/// and `r = 5` stays under it (SPEECH: 26 · 125,968 ≈ 3.3 M cells);
/// a larger set is stored sparsely.
pub const DENSE_COUNTER_LIMIT_CELLS: usize = 1 << 24;

#[derive(Debug, Clone, PartialEq, Eq)]
enum CounterStore {
    Dense(Vec<u32>),
    Sparse(HashMap<u64, u32>),
}

impl CounterStore {
    fn new(rows: usize, dense: bool) -> Self {
        if dense {
            Self::Dense(vec![0; rows])
        } else {
            Self::Sparse(HashMap::new())
        }
    }

    fn increment(&mut self, addr: u64) {
        match self {
            Self::Dense(v) => v[addr as usize] += 1,
            Self::Sparse(m) => *m.entry(addr).or_insert(0) += 1,
        }
    }

    fn get(&self, addr: u64) -> u32 {
        match self {
            Self::Dense(v) => v[addr as usize],
            Self::Sparse(m) => m.get(&addr).copied().unwrap_or(0),
        }
    }

    fn nonzero(&self) -> Box<dyn Iterator<Item = (u64, u32)> + '_> {
        match self {
            Self::Dense(v) => Box::new(
                v.iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(a, &c)| (a as u64, c)),
            ),
            Self::Sparse(m) => Box::new(m.iter().map(|(&a, &c)| (a, c))),
        }
    }

    fn total(&self) -> u64 {
        match self {
            Self::Dense(v) => v.iter().map(|&c| c as u64).sum(),
            Self::Sparse(m) => m.values().map(|&c| c as u64).sum(),
        }
    }

    fn merge(&mut self, other: &Self) {
        match (self, other) {
            (Self::Dense(a), Self::Dense(b)) => {
                for (x, &y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
            (Self::Sparse(a), Self::Sparse(b)) => {
                for (&addr, &count) in b {
                    *a.entry(addr).or_insert(0) += count;
                }
            }
            // Same layout and class count ⇒ same storage flavour; mixed
            // merges cannot occur.
            _ => unreachable!("counter stores of one shape share a storage flavour"),
        }
    }
}

/// Per-class, per-chunk occurrence counters over the chunk address space.
///
/// `PartialEq` compares the exact counter contents (the online-vs-batch
/// differential tests assert streamed counters equal batch counters bit
/// for bit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkCounters {
    layout: ChunkLayout,
    /// `stores[class][chunk]`.
    stores: Vec<Vec<CounterStore>>,
}

impl ChunkCounters {
    /// Creates zeroed counters for `n_classes` classes over `layout`,
    /// dense when the whole set fits [`DENSE_COUNTER_LIMIT_CELLS`] and
    /// sparse otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `n_classes == 0`.
    pub fn new(layout: ChunkLayout, n_classes: usize) -> Result<Self> {
        if n_classes == 0 {
            return Err(HdcError::invalid_config("k", "need at least one class"));
        }
        let cells = layout.total_table_rows().saturating_mul(n_classes as u128);
        let dense = cells <= DENSE_COUNTER_LIMIT_CELLS as u128;
        let stores = (0..n_classes)
            .map(|_| {
                (0..layout.n_chunks())
                    .map(|c| CounterStore::new(layout.table_rows(c), dense))
                    .collect()
            })
            .collect();
        Ok(Self { layout, stores })
    }

    /// Records one training sample: increments the counter addressed by
    /// each chunk (Fig. 6 step D). `addrs` comes from
    /// [`crate::encoder::LookupEncoder::addresses`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] for an out-of-range class and
    /// [`HdcError::InvalidDataset`] if `addrs.len()` differs from the chunk
    /// count.
    pub fn observe(&mut self, class: usize, addrs: &[u64]) -> Result<()> {
        if class >= self.stores.len() {
            return Err(HdcError::UnknownClass {
                label: class,
                n_classes: self.stores.len(),
            });
        }
        if addrs.len() != self.layout.n_chunks() {
            return Err(HdcError::invalid_dataset(format!(
                "expected {} chunk addresses, got {}",
                self.layout.n_chunks(),
                addrs.len()
            )));
        }
        for (chunk, &addr) in addrs.iter().enumerate() {
            debug_assert!(addr < self.layout.table_rows(chunk) as u64);
            self.stores[class][chunk].increment(addr);
        }
        Ok(())
    }

    /// The count for `(class, chunk, addr)`.
    ///
    /// # Panics
    ///
    /// Panics if `class`/`chunk` are out of range (dense stores also panic
    /// on out-of-range addresses).
    pub fn count(&self, class: usize, chunk: usize, addr: u64) -> u32 {
        self.stores[class][chunk].get(addr)
    }

    /// Iterates over the non-zero `(addr, count)` pairs of one chunk.
    ///
    /// # Panics
    ///
    /// Panics if `class`/`chunk` are out of range.
    pub fn nonzero(&self, class: usize, chunk: usize) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.stores[class][chunk].nonzero()
    }

    /// Number of samples observed for `class` (every chunk sees each sample
    /// once, so chunk 0's total is the sample count).
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn samples_seen(&self, class: usize) -> u64 {
        self.stores[class][0].total()
    }

    /// Element-wise adds `other`'s counters into this set — the merge step
    /// of sharded counter training. Counter addition is associative and
    /// commutative, so merging per-shard counter sets in any order yields
    /// exactly the counters of a serial pass over the same samples.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if the layouts differ and
    /// [`HdcError::InvalidDataset`] if the class counts differ.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        if other.layout != self.layout {
            return Err(HdcError::invalid_config(
                "layout",
                "cannot merge counters over different chunk layouts",
            ));
        }
        if other.n_classes() != self.n_classes() {
            return Err(HdcError::invalid_dataset(format!(
                "cannot merge {}-class counters into {}-class counters",
                other.n_classes(),
                self.n_classes()
            )));
        }
        for (mine, theirs) in self.stores.iter_mut().zip(&other.stores) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                a.merge(b);
            }
        }
        Ok(())
    }

    /// Number of classes `k`.
    pub fn n_classes(&self) -> usize {
        self.stores.len()
    }

    /// The layout these counters are defined over.
    pub fn layout(&self) -> &ChunkLayout {
        &self.layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> ChunkLayout {
        ChunkLayout::new(10, 5, 4).unwrap()
    }

    #[test]
    fn observe_and_count() {
        let mut c = ChunkCounters::new(layout(), 2).unwrap();
        c.observe(0, &[3, 7]).unwrap();
        c.observe(0, &[3, 9]).unwrap();
        c.observe(1, &[3, 7]).unwrap();
        assert_eq!(c.count(0, 0, 3), 2);
        assert_eq!(c.count(0, 1, 7), 1);
        assert_eq!(c.count(0, 1, 9), 1);
        assert_eq!(c.count(1, 0, 3), 1);
        assert_eq!(c.count(1, 1, 9), 0);
        assert_eq!(c.samples_seen(0), 2);
        assert_eq!(c.samples_seen(1), 1);
        assert_eq!(c.n_classes(), 2);
    }

    #[test]
    fn nonzero_iterates_exactly_the_touched_addresses() {
        let mut c = ChunkCounters::new(layout(), 1).unwrap();
        c.observe(0, &[3, 7]).unwrap();
        c.observe(0, &[3, 8]).unwrap();
        let mut chunk0: Vec<(u64, u32)> = c.nonzero(0, 0).collect();
        chunk0.sort();
        assert_eq!(chunk0, vec![(3, 2)]);
        let mut chunk1: Vec<(u64, u32)> = c.nonzero(0, 1).collect();
        chunk1.sort();
        assert_eq!(chunk1, vec![(7, 1), (8, 1)]);
    }

    fn sparse_stores(c: &ChunkCounters) -> usize {
        c.stores
            .iter()
            .flatten()
            .filter(|s| matches!(s, CounterStore::Sparse(_)))
            .count()
    }

    #[test]
    fn sparse_store_used_for_huge_address_spaces() {
        // q=8, r=10 → 8^10 ≈ 1.07e9 rows per chunk: must not allocate that.
        let big = ChunkLayout::new(20, 10, 8).unwrap();
        let mut c = ChunkCounters::new(big, 1).unwrap();
        c.observe(0, &[123_456_789, 1]).unwrap();
        assert_eq!(c.count(0, 0, 123_456_789), 1);
        assert_eq!(c.count(0, 0, 42), 0);
        assert_eq!(c.samples_seen(0), 1);
        assert_eq!(sparse_stores(&c), 2);
        // SPEECH at q = 16, r = 5: every full chunk has exactly 2^20 rows,
        // and 26 classes × 124 chunks of them would be ~13 GB dense.
        let speech = ChunkLayout::new(617, 5, 16).unwrap();
        let mut c = ChunkCounters::new(speech, 26).unwrap();
        let addrs: Vec<u64> = (0..speech.n_chunks())
            .map(|chunk| speech.table_rows(chunk) as u64 - 1)
            .collect();
        c.observe(25, &addrs).unwrap();
        assert_eq!(c.count(25, 0, (1 << 20) - 1), 1);
        assert_eq!(c.count(25, 123, 255), 1);
        assert_eq!(c.count(0, 0, (1 << 20) - 1), 0);
        assert_eq!(c.samples_seen(25), 1);
        assert_eq!(sparse_stores(&c), 26 * 124);
    }

    #[test]
    fn table_one_profiles_keep_dense_counters_at_their_paper_q() {
        for app in lookhd_datasets::apps::App::ALL {
            let p = app.profile();
            let layout = ChunkLayout::new(p.n_features, 5, p.paper_q_lookhd).unwrap();
            let c = ChunkCounters::new(layout, p.n_classes).unwrap();
            assert_eq!(sparse_stores(&c), 0, "{}", p.name);
        }
    }

    #[test]
    fn validates_inputs() {
        let mut c = ChunkCounters::new(layout(), 2).unwrap();
        assert!(matches!(
            c.observe(5, &[0, 0]),
            Err(HdcError::UnknownClass { .. })
        ));
        assert!(c.observe(0, &[0]).is_err());
        assert!(ChunkCounters::new(layout(), 0).is_err());
    }

    #[test]
    fn merge_equals_serial_observation() {
        let samples: Vec<(usize, [u64; 2])> = vec![
            (0, [3, 7]),
            (1, [3, 9]),
            (0, [3, 7]),
            (1, [1, 7]),
            (0, [2, 9]),
        ];
        let mut serial = ChunkCounters::new(layout(), 2).unwrap();
        for (class, addrs) in &samples {
            serial.observe(*class, addrs).unwrap();
        }
        let mut left = ChunkCounters::new(layout(), 2).unwrap();
        let mut right = ChunkCounters::new(layout(), 2).unwrap();
        for (class, addrs) in &samples[..2] {
            left.observe(*class, addrs).unwrap();
        }
        for (class, addrs) in &samples[2..] {
            right.observe(*class, addrs).unwrap();
        }
        left.merge(&right).unwrap();
        for class in 0..2 {
            assert_eq!(left.samples_seen(class), serial.samples_seen(class));
            for chunk in 0..2 {
                for addr in 0..10 {
                    assert_eq!(
                        left.count(class, chunk, addr),
                        serial.count(class, chunk, addr),
                        "class {class} chunk {chunk} addr {addr}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_validates_shape() {
        let mut a = ChunkCounters::new(layout(), 2).unwrap();
        let b = ChunkCounters::new(layout(), 3).unwrap();
        assert!(a.merge(&b).is_err());
        let other_layout = ChunkLayout::new(20, 5, 4).unwrap();
        let c = ChunkCounters::new(other_layout, 2).unwrap();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn sparse_stores_merge_too() {
        let big = ChunkLayout::new(20, 10, 8).unwrap();
        let mut a = ChunkCounters::new(big, 1).unwrap();
        let mut b = ChunkCounters::new(big, 1).unwrap();
        a.observe(0, &[123_456_789, 1]).unwrap();
        b.observe(0, &[123_456_789, 2]).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.count(0, 0, 123_456_789), 2);
        assert_eq!(a.count(0, 1, 1), 1);
        assert_eq!(a.count(0, 1, 2), 1);
    }
}
