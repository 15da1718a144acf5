//! Order-preserving packing of unsigned tuples into short integer keys.
//!
//! The schedule builder and the ISI statistic sort millions of small
//! tuples. Packing each tuple into as few `u64` words as its fields'
//! actual ranges need lets the sort compare and move one to three
//! plain integers per tuple. On the paper's Fig. 5 traffic (a
//! few hundred steps, eight crossbars, millions of flows) every key
//! fits one word.
//!
//! A [`KeyLayout`] places the fields most significant first. A field
//! that does not fit in the bits left in the current word starts the next
//! one, so no field straddles two words. Comparing two packed
//! `[u64; W]` keys lexicographically therefore compares the tuples
//! lexicographically, provided every field value is at most the maximum
//! the layout was built for.

/// Bit placement of `F` unsigned fields in a packed key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyLayout<const F: usize> {
    /// `(word, shift, width)` per field, most significant field first.
    place: [(usize, u32, u32); F],
    words: usize,
}

/// The most words any layout in this crate needs: every field is at most
/// 64 bits wide and the widest keys (four fields: 32 + 32 + 64 + 64 bits,
/// or six fields of at most 32 bits plus a flag) fill three words.
pub(crate) const MAX_WORDS: usize = 3;

impl<const F: usize> KeyLayout<F> {
    /// The layout for fields whose values never exceed `max[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the fields need more than [`MAX_WORDS`] words.
    pub(crate) fn new(max: [u64; F]) -> Self {
        let mut place = [(0, 0, 0); F];
        let (mut word, mut used) = (0usize, 0u32);
        for (slot, &m) in place.iter_mut().zip(&max) {
            let width = u64::BITS - m.leading_zeros();
            if used + width > u64::BITS {
                word += 1;
                used = 0;
            }
            used += width;
            *slot = (word, u64::BITS - used, width);
        }
        assert!(
            word < MAX_WORDS,
            "packed key needs more than {MAX_WORDS} words"
        );
        Self {
            place,
            words: word + 1,
        }
    }

    /// Words per packed key (`1..=MAX_WORDS`).
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Packs one tuple. `W` must be at least [`KeyLayout::words`].
    #[inline]
    pub(crate) fn pack<const W: usize>(&self, fields: [u64; F]) -> [u64; W] {
        let mut key = [0u64; W];
        for (&v, &(word, shift, width)) in fields.iter().zip(&self.place) {
            if width > 0 {
                debug_assert!(
                    width == 64 || v >> width == 0,
                    "field exceeds its layout maximum"
                );
                key[word] |= v << shift;
            }
        }
        key
    }

    /// Field `i` of a packed key.
    #[inline]
    pub(crate) fn field<const W: usize>(&self, key: &[u64; W], i: usize) -> u64 {
        let (word, shift, width) = self.place[i];
        match width {
            0 => 0,
            64 => key[word],
            _ => (key[word] >> shift) & ((1u64 << width) - 1),
        }
    }

    /// `key` with field `i` zeroed — for comparing keys on every field
    /// but one.
    #[inline]
    pub(crate) fn without<const W: usize>(&self, mut key: [u64; W], i: usize) -> [u64; W] {
        let (word, shift, width) = self.place[i];
        if width > 0 {
            let mask = if width == 64 {
                u64::MAX
            } else {
                ((1u64 << width) - 1) << shift
            };
            key[word] &= !mask;
        }
        key
    }
}

/// Inputs below this size are sorted in one piece.
const MIN_BUCKETED: usize = 1 << 16;

/// Sorts packed keys ascending.
///
/// Large inputs are first scattered by the top bits of their first word
/// — the leading bits of the most significant field, since layouts pack
/// from the top — into about `n / 256` buckets with one counting pass,
/// and each bucket is then sorted on its own: cache-sized sorts instead
/// of one sort over the whole input. The result is the same as one
/// `sort_unstable` over the keys.
pub(crate) fn sort_keys<const W: usize>(keys: &mut Vec<[u64; W]>) {
    let n = keys.len();
    if n < MIN_BUCKETED {
        keys.sort_unstable();
        return;
    }
    let bits = (n.ilog2() - 8).min(16);
    let bucket = |k: &[u64; W]| (k[0] >> (u64::BITS - bits)) as usize;
    let mut starts = vec![0usize; (1 << bits) + 1];
    for k in keys.iter() {
        starts[bucket(k) + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut next = starts.clone();
    let mut out = vec![[0u64; W]; n];
    for k in keys.iter() {
        let b = bucket(k);
        out[next[b]] = *k;
        next[b] += 1;
    }
    for w in starts.windows(2) {
        out[w[0]..w[1]].sort_unstable();
    }
    *keys = out;
}

/// Calls `$body` with the const `$w` bound to the word count of
/// `$layout`, so one generic body serves one-, two- and three-word keys.
macro_rules! with_words {
    ($layout:expr, $w:ident => $body:expr) => {
        match $layout.words() {
            1 => {
                const $w: usize = 1;
                $body
            }
            2 => {
                const $w: usize = 2;
                $body
            }
            _ => {
                const $w: usize = $crate::keys::MAX_WORDS;
                $body
            }
        }
    };
}
pub(crate) use with_words;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_order_matches_tuple_order() {
        let tuples: Vec<[u64; 4]> = vec![
            [3, 0, 7, 1],
            [3, 0, 7, 0],
            [0, 9, 0, 5],
            [3, 1, 0, 0],
            [0, 9, 0, 4],
            [2, 0, 0, 9],
        ];
        for max in [[3, 9, 7, 9], [u64::from(u32::MAX), 9, u64::MAX, u64::MAX]] {
            let layout = KeyLayout::new(max);
            with_words!(layout, W => {
                let mut keys: Vec<[u64; W]> = tuples.iter().map(|&t| layout.pack(t)).collect();
                keys.sort_unstable();
                let back: Vec<[u64; 4]> = keys
                    .iter()
                    .map(|k| [0, 1, 2, 3].map(|i| layout.field(k, i)))
                    .collect();
                let mut expect = tuples.clone();
                expect.sort_unstable();
                assert_eq!(back, expect, "layout {max:?}");
            });
        }
    }

    #[test]
    fn narrow_fields_share_one_word() {
        let layout = KeyLayout::new([500, 7, 4095, 7, 1, 2_500_000]);
        assert_eq!(layout.words(), 1);
        let wide = KeyLayout::new([u64::from(u32::MAX); 6]);
        assert_eq!(wide.words(), 3);
        let isi = KeyLayout::new([u64::from(u32::MAX), u64::from(u32::MAX), u64::MAX, u64::MAX]);
        assert_eq!(isi.words(), 3);
    }

    #[test]
    fn bucketed_sort_matches_a_plain_sort() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // skewed top bits (a narrow first field) and full-width words
        let mut keys: Vec<[u64; 2]> = (0..MIN_BUCKETED * 2)
            .map(|i| {
                [
                    (next() % 5) << 61 | next() >> 8,
                    if i % 3 == 0 { 0 } else { next() },
                ]
            })
            .collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        sort_keys(&mut keys);
        assert_eq!(keys, expect);
    }

    #[test]
    fn without_clears_exactly_one_field() {
        let layout = KeyLayout::new([15, 15, 0, 15]);
        let k: [u64; 1] = layout.pack([1, 2, 0, 3]);
        let cleared = layout.without(k, 1);
        assert_eq!(
            [0, 1, 2, 3].map(|i| layout.field(&cleared, i)),
            [1, 0, 0, 3]
        );
    }
}
