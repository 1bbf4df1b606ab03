//! Bitmask walks shared by the router's request sets and iSLIP.

/// The set bits of a mask, lowest first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bits(pub u64);

impl Iterator for Bits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

/// The set bits of `mask` in round-robin order from bit `start`:
/// ascending from `start`, then wrapping round to bit 0. This is the
/// order a rotating-pointer scan over `start, start+1, ..` visits them.
#[inline]
pub(crate) fn rotated(mask: u64, start: usize) -> impl Iterator<Item = usize> {
    let hi = if start < 64 {
        mask & (u64::MAX << start)
    } else {
        0
    };
    Bits(hi).chain(Bits(mask & !hi))
}

/// A mask with the low `n` bits set.
#[inline]
pub(crate) fn low_bits(n: usize) -> u64 {
    u64::MAX.checked_shr(64 - n as u32).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_ascend() {
        assert_eq!(Bits(0b1010_0110).collect::<Vec<_>>(), vec![1, 2, 5, 7]);
        assert_eq!(Bits(0).count(), 0);
        assert_eq!(Bits(1 << 63).collect::<Vec<_>>(), vec![63]);
    }

    #[test]
    fn rotation_matches_a_pointer_scan() {
        for mask in [0u64, 1, 0b1011_0101, u64::MAX, 1 << 63 | 1] {
            for start in [0usize, 1, 3, 7, 63, 64] {
                let scan: Vec<usize> = (0..64)
                    .map(|k| (start + k) % 64)
                    .filter(|&b| mask >> b & 1 == 1)
                    .collect();
                assert_eq!(
                    rotated(mask, start).collect::<Vec<_>>(),
                    scan,
                    "{mask:#x} @ {start}"
                );
            }
        }
    }

    #[test]
    fn low_bit_masks() {
        assert_eq!(low_bits(0), 0);
        assert_eq!(low_bits(4), 0b1111);
        assert_eq!(low_bits(64), u64::MAX);
    }
}
