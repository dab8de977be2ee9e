//! The 4 KB page and its fixed-size object-record codec.
//!
//! The paper sets the disk page size to 4 KB; every index implementation in
//! this repository stores spatial objects in pages of that size. An object
//! record is 64 bytes (id, dataset id, MBR), so a page holds up to 63 records
//! after a 16-byte header.
//!
//! Header layout: bytes 0..4 magic, 4..6 record count, 6..12 reserved,
//! 12..16 a CRC-32 of the rest of the page ([`PAGE_CHECKSUM_OFFSET`]).
//!
//! # Who stamps the checksum, and when
//!
//! Each page carries a private "checksum known valid" bit next to its bytes,
//! so the CRC of a page is computed once per write, not once per layer:
//! - [`Page::from_objects`] stamps the page it builds, and [`Page::empty`]
//!   hands out a clone of one shared frame that was stamped once.
//! - [`Page::stamp_checksum`], and a [`Page::verify_checksum`] that passes,
//!   set the bit; [`Page::as_bytes_mut`] clears it.
//! - The [`crate::StorageManager`] stamps on its write paths only pages whose
//!   bit is clear (pages mutated by hand), and verifies every page it reads
//!   from the device, surfacing [`StorageError::CorruptPage`] on a mismatch.
//!
//! Code that builds pages by hand only has to leave the slot alone.
//!
//! # Shared frames
//!
//! A page's bytes live in a reference-counted frame: cloning a page (into
//! the buffer pool, out of an in-memory file, back to a reader) bumps a
//! count instead of copying 4 KB. [`Page::as_bytes_mut`] copies the frame
//! first if anyone else holds it, so mutating one handle never changes what
//! another sees.

use crate::crc::{crc32_finish, crc32_update};
use crate::error::{StorageError, StorageResult};
use odyssey_geom::{Aabb, DatasetId, ObjectId, SpatialObject, Vec3};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, LazyLock};

/// Size of one disk page in bytes (the paper's configuration).
pub const PAGE_SIZE: usize = 4096;

/// Bytes occupied by the page header (record count + reserved space).
pub const PAGE_HEADER_SIZE: usize = 16;

/// Size of one serialized object record in bytes.
pub const RECORD_SIZE: usize = 64;

/// Maximum number of object records stored in one page.
pub const OBJECTS_PER_PAGE: usize = (PAGE_SIZE - PAGE_HEADER_SIZE) / RECORD_SIZE;

/// Byte offset of the page checksum inside the (reserved area of the) page
/// header: bytes 12..16 hold a CRC-32 of every other byte of the page.
pub const PAGE_CHECKSUM_OFFSET: usize = 12;

/// Magic bytes identifying an object page (helps catch corruption in tests).
const PAGE_MAGIC: [u8; 4] = *b"SOPG";

/// Index of a page within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId(pub u64);

impl PageId {
    /// Raw page index.
    #[inline]
    pub fn index(self) -> u64 {
        self.0
    }
}

/// An in-memory image of one disk page.
///
/// A page is always exactly [`PAGE_SIZE`] bytes. Helper methods encode and
/// decode object records; raw byte access is available for the few callers
/// (e.g. R-tree node pages) that use their own layout. Clones share one
/// frame until either side mutates it (see the module docs).
#[derive(Clone)]
pub struct Page {
    bytes: Arc<[u8]>,
    /// Set only while the checksum slot is known to match the contents.
    checksum_valid: bool,
}

/// Pages compare by content; whether the checksum was already checked is
/// not part of a page's value.
impl PartialEq for Page {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Page {}

/// The stamped empty object page every [`Page::empty`] call shares.
static EMPTY_PAGE: LazyLock<Page> = LazyLock::new(|| {
    let mut page = Page::zeroed();
    page.as_bytes_mut()[..4].copy_from_slice(&PAGE_MAGIC);
    page.stamp_checksum();
    page
});

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("records", &self.record_count().unwrap_or(0))
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::empty()
    }
}

impl Page {
    /// Returns a zeroed page with a valid, stamped empty-object-page header:
    /// a clone of one shared frame, so bulk pre-allocation neither allocates
    /// nor checksums per page.
    pub fn empty() -> Self {
        EMPTY_PAGE.clone()
    }

    /// An all-zero frame (not a valid object page) for a device read or a
    /// page builder to fill in place.
    pub(crate) fn zeroed() -> Self {
        Page {
            bytes: std::iter::repeat_n(0u8, PAGE_SIZE).collect(),
            checksum_valid: false,
        }
    }

    /// Wraps raw bytes as a page.
    ///
    /// # Panics
    /// Panics if `bytes` is not exactly [`PAGE_SIZE`] long.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        assert_eq!(
            bytes.len(),
            PAGE_SIZE,
            "a page must be exactly {PAGE_SIZE} bytes"
        );
        Page {
            bytes: bytes.into(),
            checksum_valid: false,
        }
    }

    /// Builds a page holding the given object records.
    ///
    /// # Errors
    /// Returns [`StorageError::PageOverflow`] if more than
    /// [`OBJECTS_PER_PAGE`] objects are supplied.
    pub fn from_objects(objects: &[SpatialObject]) -> StorageResult<Self> {
        if objects.len() > OBJECTS_PER_PAGE {
            return Err(StorageError::PageOverflow {
                requested: objects.len(),
                capacity: OBJECTS_PER_PAGE,
            });
        }
        let mut page = Page::zeroed();
        page.as_bytes_mut()[..4].copy_from_slice(&PAGE_MAGIC);
        page.set_record_count(objects.len() as u16);
        for (i, obj) in objects.iter().enumerate() {
            encode_record(obj, page.record_slice_mut(i));
        }
        page.stamp_checksum();
        Ok(page)
    }

    /// Raw byte view of the page.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable raw byte view of the page. Copies the frame first if it is
    /// shared, and forgets that the checksum was valid: the storage manager
    /// re-stamps the page when it is written.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        self.checksum_valid = false;
        Arc::make_mut(&mut self.bytes)
    }

    /// Whether the checksum slot is known to match the contents (the page
    /// was stamped, or verified, and not mutated since). Lets the write path
    /// skip recomputing the CRC of pages that are already stamped.
    #[inline]
    pub(crate) fn checksum_known_valid(&self) -> bool {
        self.checksum_valid
    }

    /// Number of object records stored in the page.
    ///
    /// # Errors
    /// Returns [`StorageError::Corrupt`] if the header is not an object page
    /// header or the count exceeds the page capacity.
    pub fn record_count(&self) -> StorageResult<usize> {
        if self.bytes[..4] != PAGE_MAGIC {
            return Err(StorageError::Corrupt("missing object-page magic".into()));
        }
        let count = u16::from_le_bytes([self.bytes[4], self.bytes[5]]) as usize;
        if count > OBJECTS_PER_PAGE {
            return Err(StorageError::Corrupt(format!(
                "record count {count} exceeds page capacity {OBJECTS_PER_PAGE}"
            )));
        }
        Ok(count)
    }

    fn set_record_count(&mut self, count: u16) {
        self.as_bytes_mut()[4..6].copy_from_slice(&count.to_le_bytes());
    }

    fn record_slice(&self, i: usize) -> &[u8] {
        let start = PAGE_HEADER_SIZE + i * RECORD_SIZE;
        &self.bytes[start..start + RECORD_SIZE]
    }

    fn record_slice_mut(&mut self, i: usize) -> &mut [u8] {
        let start = PAGE_HEADER_SIZE + i * RECORD_SIZE;
        &mut self.as_bytes_mut()[start..start + RECORD_SIZE]
    }

    /// CRC-32 of the page contents, excluding the checksum slot itself.
    fn content_checksum(&self) -> u32 {
        let state = crc32_update(0xFFFF_FFFF, &self.bytes[..PAGE_CHECKSUM_OFFSET]);
        crc32_finish(crc32_update(state, &self.bytes[PAGE_CHECKSUM_OFFSET + 4..]))
    }

    /// Writes the content checksum into the header's checksum slot and marks
    /// it known valid. Called by [`Page::from_objects`], and by the storage
    /// manager's write paths for pages mutated since their last stamp.
    pub fn stamp_checksum(&mut self) {
        let crc = self.content_checksum();
        self.as_bytes_mut()[PAGE_CHECKSUM_OFFSET..PAGE_CHECKSUM_OFFSET + 4]
            .copy_from_slice(&crc.to_le_bytes());
        self.checksum_valid = true;
    }

    /// Recomputes the checksum of the contents and compares it with the
    /// stored one, whatever the page's known-valid bit says; a match sets the
    /// bit, so writing the page back unchanged costs no second CRC.
    pub fn verify_checksum(&mut self) -> bool {
        let stored = u32::from_le_bytes(
            self.bytes[PAGE_CHECKSUM_OFFSET..PAGE_CHECKSUM_OFFSET + 4]
                .try_into()
                .expect("checksum slot is 4 bytes"), // analyzer: allow(fixed 4-byte checksum slot)
        );
        self.checksum_valid = stored == self.content_checksum();
        self.checksum_valid
    }

    /// Decodes every object record stored in the page.
    pub fn objects(&self) -> StorageResult<Vec<SpatialObject>> {
        let count = self.record_count()?;
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            out.push(decode_record(self.record_slice(i))?);
        }
        Ok(out)
    }

    /// Decodes the records of the page directly into `out`, avoiding an
    /// intermediate allocation on hot read paths.
    pub fn objects_into(&self, out: &mut Vec<SpatialObject>) -> StorageResult<usize> {
        let count = self.record_count()?;
        out.reserve(count);
        for i in 0..count {
            out.push(decode_record(self.record_slice(i))?);
        }
        Ok(count)
    }
}

fn encode_record(obj: &SpatialObject, buf: &mut [u8]) {
    debug_assert_eq!(buf.len(), RECORD_SIZE);
    buf[0..8].copy_from_slice(&obj.id.0.to_le_bytes());
    buf[8..10].copy_from_slice(&obj.dataset.0.to_le_bytes());
    // bytes 10..16 reserved.
    let mut off = 16;
    for v in [
        obj.mbr.min.x,
        obj.mbr.min.y,
        obj.mbr.min.z,
        obj.mbr.max.x,
        obj.mbr.max.y,
        obj.mbr.max.z,
    ] {
        buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
        off += 8;
    }
}

fn decode_record(buf: &[u8]) -> StorageResult<SpatialObject> {
    debug_assert_eq!(buf.len(), RECORD_SIZE);
    let id = u64::from_le_bytes(buf[0..8].try_into().expect("record id slice")); // analyzer: allow(fixed-width slice of a RECORD_SIZE buffer)
    let dataset = u16::from_le_bytes(buf[8..10].try_into().expect("record dataset slice")); // analyzer: allow(fixed-width slice of a RECORD_SIZE buffer)
    let mut vals = [0f64; 6];
    for (i, v) in vals.iter_mut().enumerate() {
        let off = 16 + i * 8;
        // analyzer: allow(fixed-width slice of a RECORD_SIZE buffer)
        *v = f64::from_le_bytes(buf[off..off + 8].try_into().expect("record float slice"));
    }
    let min = Vec3::new(vals[0], vals[1], vals[2]);
    let max = Vec3::new(vals[3], vals[4], vals[5]);
    if !(min.is_finite() && max.is_finite()) {
        return Err(StorageError::Corrupt("non-finite MBR in record".into()));
    }
    Ok(SpatialObject::new(
        ObjectId(id),
        DatasetId(dataset),
        Aabb::from_min_max(min, max),
    ))
}

/// Packs a slice of objects into as many pages as needed, filling each page
/// to capacity in order.
pub fn pack_objects(objects: &[SpatialObject]) -> Vec<Page> {
    objects
        .chunks(OBJECTS_PER_PAGE)
        .map(|chunk| Page::from_objects(chunk).expect("chunk size bounded by OBJECTS_PER_PAGE")) // analyzer: allow(chunk len is bounded by OBJECTS_PER_PAGE)
        .collect()
}

/// Number of pages needed to store `n` objects.
#[inline]
pub fn pages_needed(n: usize) -> u64 {
    (n as u64).div_ceil(OBJECTS_PER_PAGE as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(id: u64, ds: u16, lo: f64, hi: f64) -> SpatialObject {
        SpatialObject::new(
            ObjectId(id),
            DatasetId(ds),
            Aabb::from_min_max(Vec3::splat(lo), Vec3::splat(hi)),
        )
    }

    #[test]
    fn layout_constants_are_consistent() {
        assert_eq!(PAGE_SIZE, 4096);
        assert_eq!(OBJECTS_PER_PAGE, 63);
        const { assert!(PAGE_HEADER_SIZE + OBJECTS_PER_PAGE * RECORD_SIZE <= PAGE_SIZE) };
    }

    #[test]
    fn empty_page_has_zero_records() {
        let p = Page::empty();
        assert_eq!(p.record_count().unwrap(), 0);
        assert!(p.objects().unwrap().is_empty());
        assert_eq!(p.as_bytes().len(), PAGE_SIZE);
    }

    #[test]
    fn roundtrip_objects() {
        let objs: Vec<_> = (0..OBJECTS_PER_PAGE as u64)
            .map(|i| obj(i, (i % 5) as u16, i as f64, i as f64 + 1.0))
            .collect();
        let page = Page::from_objects(&objs).unwrap();
        assert_eq!(page.record_count().unwrap(), OBJECTS_PER_PAGE);
        assert_eq!(page.objects().unwrap(), objs);
    }

    #[test]
    fn overflow_is_detected() {
        let objs: Vec<_> = (0..OBJECTS_PER_PAGE as u64 + 1)
            .map(|i| obj(i, 0, 0.0, 1.0))
            .collect();
        assert!(matches!(
            Page::from_objects(&objs),
            Err(StorageError::PageOverflow { .. })
        ));
    }

    #[test]
    fn corrupt_magic_detected() {
        let mut p = Page::from_objects(&[obj(1, 2, 0.0, 1.0)]).unwrap();
        p.as_bytes_mut()[0] = b'X';
        assert!(matches!(p.record_count(), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn corrupt_count_detected() {
        let mut p = Page::empty();
        p.as_bytes_mut()[4..6].copy_from_slice(&1000u16.to_le_bytes());
        assert!(matches!(p.record_count(), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn corrupt_float_detected() {
        let mut p = Page::from_objects(&[obj(1, 2, 0.0, 1.0)]).unwrap();
        // Overwrite the MBR with NaN bits.
        let nan = f64::NAN.to_le_bytes();
        p.as_bytes_mut()[PAGE_HEADER_SIZE + 16..PAGE_HEADER_SIZE + 24].copy_from_slice(&nan);
        assert!(p.objects().is_err());
    }

    #[test]
    fn bytes_roundtrip() {
        let objs = vec![obj(7, 3, -1.0, 2.5)];
        let page = Page::from_objects(&objs).unwrap();
        let restored = Page::from_bytes(page.as_bytes().to_vec());
        assert_eq!(restored.objects().unwrap(), objs);
        assert_eq!(restored, page);
    }

    #[test]
    #[should_panic(expected = "exactly")]
    fn wrong_size_bytes_panics() {
        let _ = Page::from_bytes(vec![0u8; 100]);
    }

    #[test]
    fn pack_objects_splits_into_pages() {
        let objs: Vec<_> = (0..150u64).map(|i| obj(i, 0, 0.0, 1.0)).collect();
        let pages = pack_objects(&objs);
        assert_eq!(pages.len(), 3);
        let total: usize = pages.iter().map(|p| p.record_count().unwrap()).sum();
        assert_eq!(total, 150);
        // Order is preserved.
        let mut all = Vec::new();
        for p in &pages {
            p.objects_into(&mut all).unwrap();
        }
        assert_eq!(all, objs);
    }

    #[test]
    fn pages_needed_math() {
        assert_eq!(pages_needed(0), 0);
        assert_eq!(pages_needed(1), 1);
        assert_eq!(pages_needed(OBJECTS_PER_PAGE), 1);
        assert_eq!(pages_needed(OBJECTS_PER_PAGE + 1), 2);
        assert_eq!(pages_needed(10 * OBJECTS_PER_PAGE), 10);
    }

    #[test]
    fn objects_into_appends() {
        let p1 = Page::from_objects(&[obj(1, 0, 0.0, 1.0)]).unwrap();
        let p2 = Page::from_objects(&[obj(2, 0, 0.0, 1.0)]).unwrap();
        let mut out = Vec::new();
        p1.objects_into(&mut out).unwrap();
        p2.objects_into(&mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, ObjectId(1));
        assert_eq!(out[1].id, ObjectId(2));
    }

    #[test]
    fn checksum_stamp_and_verify() {
        // Freshly built pages are stamped, and known to be.
        assert!(Page::empty().checksum_known_valid());
        assert!(Page::empty().verify_checksum());
        let mut p = Page::from_objects(&[obj(1, 2, 0.0, 1.0)]).unwrap();
        assert!(p.checksum_known_valid());
        assert!(p.verify_checksum());
        // Any mutation invalidates until restamped — including mutations of
        // the reserved header bytes outside the checksum slot.
        p.as_bytes_mut()[PAGE_HEADER_SIZE + 3] ^= 0x40;
        assert!(!p.checksum_known_valid());
        assert!(!p.verify_checksum());
        p.stamp_checksum();
        assert!(p.checksum_known_valid());
        assert!(p.verify_checksum());
        // Raw bytes are not trusted until verified, even when they match.
        let mut raw = Page::from_bytes(p.as_bytes().to_vec());
        assert!(!raw.checksum_known_valid());
        assert!(raw.verify_checksum());
        assert!(raw.checksum_known_valid());
        p.as_bytes_mut()[6] ^= 0x01;
        assert!(!p.verify_checksum());
        // Corrupting the slot itself is also detected.
        p.stamp_checksum();
        p.as_bytes_mut()[PAGE_CHECKSUM_OFFSET] ^= 0xFF;
        assert!(!p.verify_checksum());
    }

    #[test]
    fn clones_share_a_frame_until_one_is_mutated() {
        let a = Page::from_objects(&[obj(1, 2, 0.0, 1.0)]).unwrap();
        let mut b = a.clone();
        assert_eq!(a.as_bytes().as_ptr(), b.as_bytes().as_ptr());
        assert_eq!(
            Page::empty().as_bytes().as_ptr(),
            Page::empty().as_bytes().as_ptr()
        );
        b.as_bytes_mut()[PAGE_HEADER_SIZE] ^= 0xFF;
        assert_ne!(a.as_bytes().as_ptr(), b.as_bytes().as_ptr());
        assert_ne!(a, b);
        assert_eq!(a.objects().unwrap(), vec![obj(1, 2, 0.0, 1.0)]);
        assert!(a.checksum_known_valid());
        assert!(!b.checksum_known_valid());
        // Mutating the sole holder of a frame does not copy it.
        let before = b.as_bytes().as_ptr();
        b.as_bytes_mut()[PAGE_HEADER_SIZE] ^= 0xFF;
        assert_eq!(b.as_bytes().as_ptr(), before);
        assert_eq!(a, b);
    }

    #[test]
    fn debug_format_shows_record_count() {
        let p = Page::from_objects(&[obj(1, 0, 0.0, 1.0), obj(2, 0, 0.0, 1.0)]).unwrap();
        assert!(format!("{p:?}").contains('2'));
    }
}
