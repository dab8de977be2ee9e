//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), slicing-by-8.
//!
//! One shared implementation backs every on-disk integrity check of the
//! durable store: the per-page checksum in the page header, the per-record
//! checksum of the metadata write-ahead log, and the whole-file checksum of
//! the manifest. Dependency-free by necessity (the build environment has no
//! crate registry). [`crc32_update`] folds eight bytes per step through eight
//! lookup tables built at compile time (about 4x faster than one byte per
//! step on a 4 KB page); the byte-at-a-time loop over the first table
//! finishes the last few bytes and is the reference the tests compare
//! against. The output is bit-identical to the classic algorithm, so stores
//! written by either read back under the other.

/// The eight slicing tables for the reflected polynomial `0xEDB88320`.
/// `tables[0]` is the classic byte-at-a-time table; `tables[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (IEEE, as used by gzip/zlib/PNG).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Feeds more bytes into a running (pre-inverted) CRC state. Start from
/// `0xFFFF_FFFF`, xor with `0xFFFF_FFFF` when done; [`crc32`] does both for
/// the single-slice case, this form lets callers checksum discontiguous
/// regions (e.g. a page minus its checksum slot) without copying.
pub fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    crc32_update_bytewise(state, chunks.remainder())
}

/// The byte-at-a-time form of [`crc32_update`]: finishes the tail shorter
/// than one 8-byte step, and is the reference the sliced loop is tested
/// against.
fn crc32_update_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = (state >> 8) ^ CRC_TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// Finishes a running CRC state started at `0xFFFF_FFFF`.
#[inline]
pub fn crc32_finish(state: u32) -> u32 {
    state ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"incremental checksums must compose";
        let one_shot = crc32(data);
        let mut state = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(crc32_finish(state), one_shot);
    }

    /// Deterministic, non-repeating test bytes.
    fn pseudo_random_bytes(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_matches_bytewise_for_every_length_and_alignment() {
        let data = pseudo_random_bytes(4096 + 8);
        for start in 0..8 {
            for len in 0..=4096 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32_update(0xFFFF_FFFF, slice),
                    crc32_update_bytewise(0xFFFF_FFFF, slice),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_across_page_checksum_splits() {
        // The page content CRC hashes `[..12]`, skips the 4-byte slot, then
        // hashes `[16..]`, so the sliced loop must compose across any split,
        // in particular the ones that misalign it around the slot.
        use crate::page::{PAGE_CHECKSUM_OFFSET, PAGE_SIZE};
        let page = pseudo_random_bytes(PAGE_SIZE);
        let whole = crc32_update_bytewise(0xFFFF_FFFF, &page);
        for split in 0..=PAGE_SIZE {
            let state = crc32_update(0xFFFF_FFFF, &page[..split]);
            assert_eq!(crc32_update(state, &page[split..]), whole, "split {split}");
        }
        let slot_end = PAGE_CHECKSUM_OFFSET + 4;
        let reference = crc32_update_bytewise(
            crc32_update_bytewise(0xFFFF_FFFF, &page[..PAGE_CHECKSUM_OFFSET]),
            &page[slot_end..],
        );
        for a in 0..=PAGE_CHECKSUM_OFFSET {
            for b in slot_end..=slot_end + 24 {
                let mut state = crc32_update(0xFFFF_FFFF, &page[..a]);
                state = crc32_update(state, &page[a..PAGE_CHECKSUM_OFFSET]);
                state = crc32_update(state, &page[slot_end..b]);
                state = crc32_update(state, &page[b..]);
                assert_eq!(state, reference, "splits {a} and {b}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 4096];
        let clean = crc32(&data);
        for bit in [0usize, 1, 9, 4095 * 8 + 7] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), clean, "bit {bit} flip went undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&data), clean);
    }
}
