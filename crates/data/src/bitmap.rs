/// A fixed-length packed bitset over row positions.
///
/// The detection engine stores one bitmap per (attribute, value) pair with
/// rows laid out in **rank order**. The size of a pattern in the whole
/// dataset (`s_D`) is then the popcount of the AND of its term bitmaps, and
/// its size in the top-k (`s_Rk`) is the popcount of the same AND restricted
/// to the first `k` bits — both computed by [`intersect_counts`] in a single
/// fused pass, with no intermediate bitmap materialized. The detection
/// engine's batched child kernel instead materializes a parent pattern's
/// AND once, from [`Bitmap::blocks`], and counts all of its children
/// against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    blocks: Vec<u64>,
    len: usize,
}

const BITS: usize = 64;

impl Bitmap {
    /// Creates an all-zero bitmap covering `len` positions.
    pub fn new(len: usize) -> Self {
        Bitmap {
            blocks: vec![0; len.div_ceil(BITS)],
            len,
        }
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.blocks[i / BITS] |= 1u64 << (i % BITS);
    }

    /// Clears bit `i` (no-op if it was already clear).
    ///
    /// Used by the live-monitor path: when a ranking edit changes which
    /// tuple occupies a rank position, the position's old (attribute,
    /// value) bit is cleared and the new one set, instead of rebuilding
    /// the whole index.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.blocks[i / BITS] &= !(1u64 << (i % BITS));
    }

    /// Grows the bitmap by one position, appended clear. Used when a new
    /// tuple is inserted into a live ranking.
    pub fn push_zero(&mut self) {
        if self.len.is_multiple_of(BITS) {
            self.blocks.push(0);
        }
        self.len += 1;
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.blocks[i / BITS] >> (i % BITS) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Number of set bits among the first `k` positions.
    pub fn count_prefix(&self, k: usize) -> usize {
        let k = k.min(self.len);
        let full = k / BITS;
        let mut total: usize = self.blocks[..full]
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum();
        let rem = k % BITS;
        if rem > 0 {
            let mask = (1u64 << rem) - 1;
            total += (self.blocks[full] & mask).count_ones() as usize;
        }
        total
    }

    /// The packed 64-bit blocks, position `i` at bit `i % 64` of block
    /// `i / 64`; bits past [`Bitmap::len`] in the last block are clear.
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }
}

/// Computes `(|AND maps|, |AND maps ∩ [0, k)|)` in one pass.
///
/// With an empty `maps` slice the AND is the universe: returns
/// `(len, min(k, len))` where `len` is taken as `universe_len`.
pub fn intersect_counts(maps: &[&Bitmap], k: usize, universe_len: usize) -> (usize, usize) {
    intersect_counts_iter(maps.iter().copied(), k, universe_len)
}

/// Iterator form of [`intersect_counts`]: the same fused full/prefix
/// popcount without requiring the caller to materialize a `&[&Bitmap]`
/// slice — the detection hot path maps pattern terms to bitmaps lazily, so
/// a pattern evaluation performs **zero heap allocations**.
///
/// The iterator is re-walked once per 64-bit block, so it must be `Clone`
/// and cheap to advance (a slice iterator plus a map closure is).
pub fn intersect_counts_iter<'a, I>(maps: I, k: usize, universe_len: usize) -> (usize, usize)
where
    I: Iterator<Item = &'a Bitmap> + Clone,
{
    let mut probe = maps.clone();
    let Some(first) = probe.next() else {
        return (universe_len, k.min(universe_len));
    };
    let len = first.len;
    debug_assert!(maps.clone().all(|m| m.len == len));
    let k = k.min(len);
    let n_blocks = first.blocks.len();
    let k_full = k / BITS;
    let k_rem = k % BITS;
    let mut full = 0usize;
    let mut prefix = 0usize;
    for b in 0..n_blocks {
        // First map copied, remaining ANDed in: avoids a !0 sentinel and
        // lets LLVM unroll the common 1–3 term case.
        let mut acc = first.blocks[b];
        for m in maps.clone().skip(1) {
            acc &= m.blocks()[b];
        }
        let ones = acc.count_ones() as usize;
        full += ones;
        if b < k_full {
            prefix += ones;
        } else if b == k_full && k_rem > 0 {
            prefix += (acc & ((1u64 << k_rem) - 1)).count_ones() as usize;
        }
    }
    (full, prefix)
}

/// Computes `|AND maps ∩ [0, k)|` alone — the prefix half of
/// [`intersect_counts_iter`] — walking **only** the blocks that overlap
/// the first `k` positions instead of the whole universe.
///
/// This is the engine's prefix-only recount: when a stored node is
/// re-activated its `s_D` is already known, so only the top-`k` term of
/// the pair is needed, and for `k ≪ n` the truncated scan touches a
/// `k/n` fraction of the blocks the fused pass would.
///
/// With an empty `maps` iterator the AND is the universe: returns
/// `min(k, universe_len)`.
pub fn intersect_prefix_iter<'a, I>(maps: I, k: usize, universe_len: usize) -> usize
where
    I: Iterator<Item = &'a Bitmap> + Clone,
{
    let mut probe = maps.clone();
    let Some(first) = probe.next() else {
        return k.min(universe_len);
    };
    let len = first.len;
    debug_assert!(maps.clone().all(|m| m.len == len));
    let k = k.min(len);
    let k_full = k / BITS;
    let k_rem = k % BITS;
    let mut prefix = 0usize;
    for b in 0..k_full {
        let mut acc = first.blocks[b];
        for m in maps.clone().skip(1) {
            acc &= m.blocks()[b];
        }
        prefix += acc.count_ones() as usize;
    }
    if k_rem > 0 {
        let mut acc = first.blocks[k_full];
        for m in maps.clone().skip(1) {
            acc &= m.blocks()[k_full];
        }
        prefix += (acc & ((1u64 << k_rem) - 1)).count_ones() as usize;
    }
    prefix
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_bits(bits: &[u8]) -> Bitmap {
        let mut m = Bitmap::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b == 1 {
                m.set(i);
            }
        }
        m
    }

    #[test]
    fn set_get_count() {
        let mut m = Bitmap::new(130);
        assert_eq!(m.count_ones(), 0);
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(129);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(129));
        assert!(!m.get(1));
        assert_eq!(m.count_ones(), 4);
    }

    #[test]
    fn prefix_counts() {
        let m = from_bits(&[1, 0, 1, 1, 0, 1]);
        assert_eq!(m.count_prefix(0), 0);
        assert_eq!(m.count_prefix(1), 1);
        assert_eq!(m.count_prefix(3), 2);
        assert_eq!(m.count_prefix(4), 3);
        assert_eq!(m.count_prefix(6), 4);
        assert_eq!(m.count_prefix(100), 4); // clamped
    }

    #[test]
    fn prefix_across_block_boundary() {
        let mut m = Bitmap::new(200);
        for i in 0..200 {
            if i % 3 == 0 {
                m.set(i);
            }
        }
        for k in [0, 1, 63, 64, 65, 127, 128, 129, 199, 200] {
            let expect = (0..k).filter(|i| i % 3 == 0).count();
            assert_eq!(m.count_prefix(k), expect, "k={k}");
        }
    }

    #[test]
    fn intersect_empty_is_universe() {
        assert_eq!(intersect_counts(&[], 3, 10), (10, 3));
        assert_eq!(intersect_counts(&[], 30, 10), (10, 10));
    }

    #[test]
    fn intersect_two_maps() {
        let a = from_bits(&[1, 1, 0, 1, 1, 0, 1]);
        let b = from_bits(&[1, 0, 0, 1, 0, 0, 1]);
        let (full, pre) = intersect_counts(&[&a, &b], 4, 7);
        assert_eq!(full, 3); // positions 0, 3, 6
        assert_eq!(pre, 2); // positions 0, 3
    }

    #[test]
    fn intersect_matches_naive_on_random_maps() {
        // Deterministic xorshift so the test needs no rng dependency.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 517;
        for _case in 0..20 {
            let sets: Vec<Vec<bool>> = (0..3)
                .map(|_| (0..n).map(|_| next() % 3 == 0).collect())
                .collect();
            let maps: Vec<Bitmap> = sets
                .iter()
                .map(|s| {
                    let mut m = Bitmap::new(n);
                    for (i, &b) in s.iter().enumerate() {
                        if b {
                            m.set(i);
                        }
                    }
                    m
                })
                .collect();
            let refs: Vec<&Bitmap> = maps.iter().collect();
            let k = (next() % (n as u64 + 1)) as usize;
            let naive_full = (0..n).filter(|&i| sets.iter().all(|s| s[i])).count();
            let naive_pre = (0..k).filter(|&i| sets.iter().all(|s| s[i])).count();
            assert_eq!(intersect_counts(&refs, k, n), (naive_full, naive_pre));
        }
    }

    #[test]
    fn prefix_iter_matches_fused_pair() {
        let a = from_bits(&[1, 1, 0, 1, 1, 0, 1]);
        let b = from_bits(&[1, 0, 0, 1, 0, 0, 1]);
        for k in 0..=7 {
            let (_, pre) = intersect_counts(&[&a, &b], k, 7);
            assert_eq!(intersect_prefix_iter([&a, &b].into_iter(), k, 7), pre);
        }
        // Empty maps: the universe, clamped.
        assert_eq!(intersect_prefix_iter(std::iter::empty(), 3, 10), 3);
        assert_eq!(intersect_prefix_iter(std::iter::empty(), 30, 10), 10);
        // Multi-block universes, k on and around block boundaries.
        let mut big_a = Bitmap::new(300);
        let mut big_b = Bitmap::new(300);
        for i in 0..300 {
            if i % 3 == 0 {
                big_a.set(i);
            }
            if i % 2 == 0 {
                big_b.set(i);
            }
        }
        for k in [0, 1, 63, 64, 65, 128, 200, 299, 300, 999] {
            let (_, pre) = intersect_counts(&[&big_a, &big_b], k, 300);
            assert_eq!(
                intersect_prefix_iter([&big_a, &big_b].into_iter(), k, 300),
                pre,
                "k={k}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        Bitmap::new(5).set(5);
    }

    #[test]
    fn clear_and_push_zero() {
        let mut m = Bitmap::new(65);
        m.set(0);
        m.set(64);
        m.clear(64);
        m.clear(3); // already clear: no-op
        assert!(m.get(0) && !m.get(64) && !m.get(3));
        assert_eq!(m.count_ones(), 1);
        // Growing appends clear bits and extends blocks on the boundary.
        for _ in 0..64 {
            m.push_zero();
        }
        assert_eq!(m.len(), 129);
        assert!(!m.get(128));
        m.set(128);
        assert_eq!(m.count_prefix(129), 2);
        assert_eq!(m.count_prefix(128), 1);
    }
}
