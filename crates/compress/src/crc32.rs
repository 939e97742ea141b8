//! CRC-32 (IEEE 802.3 polynomial), used to checksum compressed frames.
//!
//! Implemented slice-by-8: eight 256-entry tables let the inner loop fold
//! eight message bytes per iteration with no data-dependent branches,
//! roughly an order of magnitude faster than the classic one-table
//! byte-at-a-time loop on frame-sized inputs. The tables derive from the
//! same reflected polynomial, so the function is value-identical to the
//! byte-wise kernel for every input.

/// Reflected polynomial for CRC-32/ISO-HDLC.
const POLY: u32 = 0xEDB88320;

/// The eight slice-by-8 lookup tables. `TABLES[0]` is the classic
/// byte-at-a-time table; `TABLES[k][i]` advances `TABLES[k-1][i]` by one
/// more zero byte, so `TABLES[k][b]` is the CRC contribution of byte `b`
/// seen `k` positions before the end of an 8-byte group.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Box<[[u32; 256]; 8]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Box::new([[0u32; 256]; 8]);
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *slot = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Computes the CRC-32 (IEEE) of `data`.
///
/// ```
/// assert_eq!(gear_compress::crc32(b"123456789"), 0xCBF43926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let t = tables();
    let mut crc = 0xFFFF_FFFFu32;
    let (groups, rest) = data.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in groups {
        let lo = u32::from_le_bytes([b0, b1, b2, b3]) ^ crc;
        let hi = u32::from_le_bytes([b4, b5, b6, b7]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in rest {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value() {
        // Standard CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flip() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    /// The slice-by-8 kernel must be value-identical to the reference
    /// one-table loop at every length (covering all remainder sizes).
    #[test]
    fn matches_bytewise_reference_at_all_lengths() {
        let bytewise = |data: &[u8]| -> u32 {
            let t = tables();
            let mut crc = 0xFFFF_FFFFu32;
            for &b in data {
                crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            !crc
        };
        let mut x = 0xA5A5_5A5Au32;
        let data: Vec<u8> = (0..257)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }
}
