//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`). Guards each
//! journal frame and published record, so a torn or bit-flipped record
//! is detected instead of trusted, and the NoC attaches it to every
//! packet so the receiver can detect flit corruption and request a
//! retransmission. Bitwise implementation: at these rates a lookup
//! table buys nothing, and the loop is self-evidently the published
//! algorithm.

/// CRC-32 of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffff_u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value() {
        // The canonical CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn empty_and_sensitivity() {
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_ne!(crc32(b"abc"), crc32(b"cba"));
    }
}
