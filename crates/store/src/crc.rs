//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), in tree.
//!
//! Every durable frame this crate writes — WAL records, run-file blocks and indices —
//! carries a CRC32 of its payload, so torn or bit-flipped tails are
//! *detected* and recovery can truncate to the longest valid prefix instead of
//! replaying garbage. The table is computed at compile time; no dependency, no
//! runtime initialization.

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut index = 0;
    while index < 256 {
        let mut crc = index as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[index] = crc;
        index += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// The CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for byte in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ *byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Standard check vectors for CRC-32/ISO-HDLC.
    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn detects_single_bit_flips() {
        let payload = b"a record that must arrive intact".to_vec();
        let reference = crc32(&payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut corrupt = payload.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&corrupt),
                    reference,
                    "flip at {byte}:{bit} undetected"
                );
            }
        }
    }
}
