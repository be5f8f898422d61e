//! Physical memory shared by the functional and cycle-level simulators:
//! a contiguous flat fast-path region backed by sparse overflow pages.
//!
//! [`Program::load`](crate::program::Program::load) reserves one flat
//! region covering the program image and the stack — the footprint of
//! every bundled workload — so the hot read/write/fetch routines reduce
//! to a bounds check plus a slice copy. Accesses outside the region fall
//! back to 4 KiB overflow pages (with a one-entry last-page cache), which
//! preserves the sparse 64-bit address space and the zeroed-DRAM
//! convention: reads of untouched memory return zero everywhere.
//!
//! The region is a 16 MiB reservation, but a program writes only a small
//! part of it. A bitmap of *held* flat pages — every page a write has
//! touched, plus those a frozen base holds — lets clones, serialization
//! and footprint accounting visit only the pages the program wrote, so
//! their cost follows the program, not the reservation.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use std::collections::HashMap;
use std::sync::Arc;

/// Size of one backing page in bytes.
pub const PAGE_SIZE: u64 = 4096;
const PAGE_MASK: u64 = PAGE_SIZE - 1;

/// Upper bound on the flat region (guards against absurd reservations;
/// the bundled workloads need 16 MiB). Also the sanity cap the artifact
/// decoders apply to serialized flat-region and image lengths.
pub(crate) const FLAT_MAX: u64 = 64 * 1024 * 1024;

/// Minimum *allocation* size for the flat buffer (its logical length is
/// unaffected). Sized just above glibc's mmap-threshold cap (32 MiB) so
/// `alloc_zeroed` is always served by fresh `mmap` pages — the kernel
/// hands them out pre-zeroed, making a 16 MiB reservation cost
/// microseconds instead of a ~0.8 ms memset of recycled heap memory.
/// Virtual-only: untouched pages never become resident, and a fresh CPU
/// per SimPoint is the common case in campaigns. On allocators without
/// the heuristic this degrades to a slightly larger memset, nothing
/// worse.
const FLAT_ALLOC_FLOOR: usize = 33 * 1024 * 1024;

type Page = [u8; PAGE_SIZE as usize];

const ZERO_PAGE: Page = [0; PAGE_SIZE as usize];

/// A sparse 64-bit physical address space: one contiguous flat region for
/// the program's footprint, 4 KiB overflow pages everywhere else.
///
/// Reads of untouched memory return zero, matching the zeroed-DRAM
/// convention the bare-metal workloads rely on. All accesses are
/// little-endian and may be misaligned (accesses that straddle the flat
/// boundary or a page boundary fall back to a byte-wise path).
#[derive(Debug)]
pub struct Memory {
    /// Base address of the flat region (page-aligned); meaningless while
    /// `flat` is empty.
    flat_base: u64,
    /// Flat backing store for `[flat_base, flat_base + flat.len())`.
    /// A `Vec` so the allocation can be padded to [`FLAT_ALLOC_FLOOR`]
    /// while the logical length stays the reserved size.
    flat: Vec<u8>,
    /// One bit per flat page: set ⇒ the page's authoritative copy lives
    /// in `flat`. In owned mode these are the pages written since the
    /// reservation (every other page is zero); in copy-on-write mode,
    /// the pages written since the freeze (every other page reads from
    /// the base).
    held: Vec<u64>,
    /// Overflow page table: page number → index into `page_store`.
    page_index: HashMap<u64, u32>,
    /// Page storage; indices stay stable so `last_page` and clones remain
    /// valid (pages migrated into the flat region are orphaned in place).
    page_store: Vec<Box<Page>>,
    /// One-entry cache `(page_number, page_store index)` for the last
    /// overflow page touched by a `&mut` access.
    last_page: (u64, u32),
    /// Copy-on-write base for the flat region. `None` is *owned* mode:
    /// `flat` is authoritative. [`Memory::freeze_flat`] moves the flat
    /// contents and their page set behind this `Arc`; from then on
    /// `flat` is a same-length local overlay holding only the pages
    /// written since. Checkpoints freeze once after capture so every
    /// per-SimPoint clone shares the base instead of copying the
    /// footprint.
    base: Option<Arc<FlatBase>>,
}

/// The frozen flat contents a copy-on-write [`Memory`] reads through to.
#[derive(Debug)]
struct FlatBase {
    bytes: Vec<u8>,
    /// The pages `bytes` holds (every other page is zero).
    held: Vec<u64>,
}

/// Sentinel page number that can never match a real address (addresses
/// divide by `PAGE_SIZE`, so `u64::MAX` is unreachable).
const NO_PAGE: (u64, u32) = (u64::MAX, 0);

/// Allocates a zero-filled flat buffer of logical length `len`, padded to
/// [`FLAT_ALLOC_FLOOR`] so `alloc_zeroed` stays on the untouched-mmap
/// path (see the constant's doc comment).
fn zeroed_flat(len: usize) -> Vec<u8> {
    let mut flat = vec![0u8; len.max(FLAT_ALLOC_FLOOR)];
    flat.truncate(len);
    flat
}

/// An all-clear page bitmap for a flat region of `len` bytes.
fn page_bitmap(len: usize) -> Vec<u64> {
    vec![0; len.div_ceil(PAGE_SIZE as usize).div_ceil(64)]
}

#[inline]
fn bit_is_set(words: &[u64], page: usize) -> bool {
    (words[page / 64] >> (page % 64)) & 1 != 0
}

/// The set bit positions (page indices) of a bitmap, ascending.
fn set_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.enumerate().flat_map(|(i, mut word)| {
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                i * 64 + bit
            })
        })
    })
}

impl Clone for Memory {
    /// Copies only the held flat pages into a fresh buffer, which comes
    /// back from the kernel already zeroed (see [`FLAT_ALLOC_FLOOR`]), so
    /// a clone costs O(pages held) and its resident size is the
    /// program's real footprint, not the reservation. An owned clone
    /// also skips held pages that read as zero; in copy-on-write mode
    /// such a page may shadow a non-zero base page, so it is kept, and
    /// the base itself is shared, not copied.
    fn clone(&self) -> Memory {
        let mut flat = Vec::new();
        let mut held = page_bitmap(self.flat.len());
        if !self.flat.is_empty() {
            flat = zeroed_flat(self.flat.len());
            for page in set_bits(self.held.iter().copied()) {
                let range = page * PAGE_SIZE as usize..(page + 1) * PAGE_SIZE as usize;
                let src = &self.flat[range.clone()];
                if self.base.is_some() || src != ZERO_PAGE {
                    flat[range].copy_from_slice(src);
                    held[page / 64] |= 1 << (page % 64);
                }
            }
        }
        Memory {
            flat_base: self.flat_base,
            flat,
            held,
            page_index: self.page_index.clone(),
            page_store: self.page_store.clone(),
            last_page: self.last_page,
            base: self.base.clone(),
        }
    }
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            flat_base: 0,
            flat: Vec::new(),
            held: Vec::new(),
            page_index: HashMap::new(),
            page_store: Vec::new(),
            last_page: NO_PAGE,
            base: None,
        }
    }
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// One past the last flat-region address (equals `flat_base` when no
    /// region is reserved).
    #[inline]
    fn flat_end(&self) -> u64 {
        self.flat_base + self.flat.len() as u64
    }

    /// Reserves a zero-filled flat backing region covering `[start, end)`
    /// (page-aligned outward, capped at 64 MiB). Existing overflow pages
    /// inside the region migrate into it, so this is safe to call after
    /// writes. A second call is a no-op: the single region is sized for
    /// the program footprint at load and never moves, which keeps clones
    /// and checkpoints layout-compatible.
    pub fn reserve_flat(&mut self, start: u64, end: u64) {
        if !self.flat.is_empty() || end <= start {
            return;
        }
        let start = start & !PAGE_MASK;
        let end = end.checked_add(PAGE_MASK).map_or(!PAGE_MASK, |e| e & !PAGE_MASK);
        let len = (end - start).min(FLAT_MAX);
        self.flat_base = start;
        // `vec![0; n]` lowers to `alloc_zeroed`; padding the request past
        // FLAT_ALLOC_FLOOR keeps it on the untouched-mmap path (see the
        // constant's doc comment). `truncate` only adjusts the length.
        self.flat = zeroed_flat(len as usize);
        self.held = page_bitmap(len as usize);
        // Migrate overlapping overflow pages; their `page_store` slots are
        // orphaned (not freed) so other indices stay valid.
        let first_pn = start / PAGE_SIZE;
        let last_pn = first_pn + len / PAGE_SIZE;
        for pn in first_pn..last_pn {
            if let Some(idx) = self.page_index.remove(&pn) {
                let page = (pn - first_pn) as usize;
                let dst = page * PAGE_SIZE as usize;
                self.flat[dst..dst + PAGE_SIZE as usize]
                    .copy_from_slice(&self.page_store[idx as usize][..]);
                self.held[page / 64] |= 1 << (page % 64);
            }
        }
        self.last_page = NO_PAGE;
    }

    /// Converts the flat region from owned to copy-on-write: the current
    /// contents and their page set move behind a shared `Arc`, and `flat`
    /// becomes an all-zero same-length overlay holding no pages.
    /// Subsequent clones share the base and copy only pages written
    /// after the freeze.
    ///
    /// Reads and writes behave identically before and after freezing
    /// (writes materialize the touched page from the base first), so
    /// freezing a checkpoint's memory cannot change simulation results.
    /// A no-op when already frozen or when no flat region exists.
    pub fn freeze_flat(&mut self) {
        if self.base.is_some() || self.flat.is_empty() {
            return;
        }
        let len = self.flat.len();
        let bytes = std::mem::replace(&mut self.flat, zeroed_flat(len));
        let held = std::mem::replace(&mut self.held, page_bitmap(len));
        self.base = Some(Arc::new(FlatBase { bytes, held }));
    }

    /// Whether the flat region is in copy-on-write mode (see
    /// [`Memory::freeze_flat`]).
    pub fn is_frozen(&self) -> bool {
        self.base.is_some()
    }

    /// Number of flat pages held in the local buffer rather than the
    /// copy-on-write base: in copy-on-write mode, those written since
    /// the freeze; in owned mode, every flat page held.
    pub fn dirty_page_count(&self) -> usize {
        self.held.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Word `i` of the page set this memory holds: its own pages plus
    /// those of its copy-on-write base.
    #[inline]
    fn held_word(&self, i: usize) -> u64 {
        self.held[i] | self.base.as_ref().map_or(0, |b| b.held[i])
    }

    /// Ensures every flat page overlapping `[off, off + len)` (flat
    /// offsets, `len > 0`) is held locally, ahead of a write. The steady
    /// state — one page, already held — is a single bit test inline;
    /// taking pages is out of line.
    #[inline]
    fn hold(&mut self, off: u64, len: u64) {
        let page = (off / PAGE_SIZE) as usize;
        if (off & PAGE_MASK) + len > PAGE_SIZE || !bit_is_set(&self.held, page) {
            self.take_pages(off, len);
        }
    }

    /// Marks every page of `[off, off + len)` held, first copying each
    /// newly held one out of the copy-on-write base if the base holds it
    /// (otherwise the local page is already zero).
    #[cold]
    #[inline(never)]
    fn take_pages(&mut self, off: u64, len: u64) {
        let first = (off / PAGE_SIZE) as usize;
        let last = ((off + len - 1) / PAGE_SIZE) as usize;
        for page in first..=last {
            if bit_is_set(&self.held, page) {
                continue;
            }
            if let Some(base) = &self.base {
                if bit_is_set(&base.held, page) {
                    let b = page * PAGE_SIZE as usize;
                    self.flat[b..b + PAGE_SIZE as usize]
                        .copy_from_slice(&base.bytes[b..b + PAGE_SIZE as usize]);
                }
            }
            self.held[page / 64] |= 1 << (page % 64);
        }
    }

    /// The buffer holding the authoritative copy of the flat page that
    /// contains flat offset `off` (the local buffer if held or owned, the
    /// shared base otherwise).
    #[inline]
    fn flat_src(&self, off: u64) -> &[u8] {
        match &self.base {
            None => &self.flat,
            Some(base) => {
                if bit_is_set(&self.held, (off / PAGE_SIZE) as usize) {
                    &self.flat
                } else {
                    &base.bytes
                }
            }
        }
    }

    /// Number of distinct overflow pages that have been written (the flat
    /// region is not counted).
    pub fn page_count(&self) -> usize {
        self.page_index.len()
    }

    /// Bytes of backing storage held: the held flat pages (local or in
    /// the copy-on-write base) plus the overflow pages. Unwritten pages
    /// of the flat reservation are not counted.
    pub fn footprint_bytes(&self) -> usize {
        let flat_pages: usize =
            (0..self.held.len()).map(|i| self.held_word(i).count_ones() as usize).sum();
        (flat_pages + self.page_index.len()) * PAGE_SIZE as usize
    }

    /// Iterates over `(page_base_address, page_bytes)` for all held
    /// pages: the held flat pages in ascending order, then the overflow
    /// pages. Pages not listed read as zero.
    pub fn pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        // In CoW mode each flat page reads from whichever buffer is
        // authoritative for it (reserve_flat page-aligns the region, so
        // pages are always full).
        let flat = set_bits((0..self.held.len()).map(|i| self.held_word(i))).map(move |page| {
            let off = page * PAGE_SIZE as usize;
            let src = self.flat_src(off as u64);
            (self.flat_base + off as u64, &src[off..off + PAGE_SIZE as usize])
        });
        let overflow = self
            .page_index
            .iter()
            .map(|(pn, &idx)| (pn * PAGE_SIZE, &self.page_store[idx as usize][..]));
        flat.chain(overflow)
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&Page> {
        let pn = addr / PAGE_SIZE;
        if self.last_page.0 == pn {
            return Some(&self.page_store[self.last_page.1 as usize]);
        }
        self.page_index.get(&pn).map(|&idx| &*self.page_store[idx as usize])
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut Page {
        let pn = addr / PAGE_SIZE;
        if self.last_page.0 != pn {
            let idx = match self.page_index.get(&pn) {
                Some(&idx) => idx,
                None => {
                    let idx = self.page_store.len() as u32;
                    self.page_store.push(Box::new(ZERO_PAGE));
                    self.page_index.insert(pn, idx);
                    idx
                }
            };
            self.last_page = (pn, idx);
        }
        &mut self.page_store[self.last_page.1 as usize]
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        let off = addr.wrapping_sub(self.flat_base);
        if off < self.flat.len() as u64 {
            return self.flat_src(off)[off as usize];
        }
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let off = addr.wrapping_sub(self.flat_base);
        if off < self.flat.len() as u64 {
            self.hold(off, 1);
            self.flat[off as usize] = value;
            return;
        }
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `size` little-endian bytes starting at `addr` into a u64.
    #[inline]
    pub fn read(&self, addr: u64, size: u64) -> u64 {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let off = addr.wrapping_sub(self.flat_base);
        let flen = self.flat.len() as u64;
        if off < flen && size <= flen - off {
            // In CoW mode a page-straddling access may span a dirty and a
            // clean page; fall back to the byte-wise path for those.
            if self.base.is_some() && (off & PAGE_MASK) + size > PAGE_SIZE {
                let mut v = 0u64;
                for i in 0..size {
                    v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
                }
                return v;
            }
            let src = self.flat_src(off);
            let off = off as usize;
            // Fixed-width loads per size (a runtime-length copy_from_slice
            // would lower to an actual memcpy call on this hot path).
            return match size {
                1 => u64::from(src[off]),
                2 => {
                    u64::from(u16::from_le_bytes(src[off..off + 2].try_into().unwrap_or_default()))
                }
                4 => {
                    u64::from(u32::from_le_bytes(src[off..off + 4].try_into().unwrap_or_default()))
                }
                _ => u64::from_le_bytes(src[off..off + 8].try_into().unwrap_or_default()),
            };
        }
        self.read_overflow(addr, size)
    }

    fn read_overflow(&self, addr: u64, size: u64) -> u64 {
        let in_page = addr & PAGE_MASK;
        let overlaps_flat = addr < self.flat_end() && addr.wrapping_add(size) > self.flat_base;
        if !overlaps_flat && in_page + size <= PAGE_SIZE {
            let Some(p) = self.page(addr) else { return 0 };
            let off = in_page as usize;
            let mut buf = [0u8; 8];
            buf[..size as usize].copy_from_slice(&p[off..off + size as usize]);
            u64::from_le_bytes(buf)
        } else {
            let mut v = 0u64;
            for i in 0..size {
                v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
            }
            v
        }
    }

    /// Writes the low `size` bytes of `value` little-endian at `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, size: u64, value: u64) {
        debug_assert!(matches!(size, 1 | 2 | 4 | 8));
        let off = addr.wrapping_sub(self.flat_base);
        let flen = self.flat.len() as u64;
        if off < flen && size <= flen - off {
            self.hold(off, size);
            let off = off as usize;
            // Fixed-width stores per size, as in [`Memory::read`].
            match size {
                1 => self.flat[off] = value as u8,
                2 => self.flat[off..off + 2].copy_from_slice(&(value as u16).to_le_bytes()),
                4 => self.flat[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes()),
                _ => self.flat[off..off + 8].copy_from_slice(&value.to_le_bytes()),
            }
            return;
        }
        self.write_overflow(addr, size, value);
    }

    fn write_overflow(&mut self, addr: u64, size: u64, value: u64) {
        let in_page = addr & PAGE_MASK;
        let overlaps_flat = addr < self.flat_end() && addr.wrapping_add(size) > self.flat_base;
        if !overlaps_flat && in_page + size <= PAGE_SIZE {
            let p = self.page_mut(addr);
            let off = in_page as usize;
            p[off..off + size as usize].copy_from_slice(&value.to_le_bytes()[..size as usize]);
        } else {
            for i in 0..size {
                self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
            }
        }
    }

    /// Reads a 32-bit instruction word (must be 4-byte aligned for speed;
    /// falls back gracefully otherwise).
    #[inline]
    pub fn fetch(&self, pc: u64) -> u32 {
        self.read(pc, 4) as u32
    }

    /// Copies a byte slice into memory at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut addr = addr;
        let mut rest = bytes;
        while !rest.is_empty() {
            let fo = addr.wrapping_sub(self.flat_base);
            let flen = self.flat.len() as u64;
            let n = if fo < flen {
                let n = rest.len().min((flen - fo) as usize);
                self.hold(fo, n as u64);
                let fo = fo as usize;
                self.flat[fo..fo + n].copy_from_slice(&rest[..n]);
                n
            } else {
                let off = (addr & PAGE_MASK) as usize;
                let mut room = PAGE_SIZE as usize - off;
                if addr < self.flat_base {
                    // Stop at the flat region so the next chunk lands in it.
                    room = room.min((self.flat_base - addr) as usize);
                }
                let n = room.min(rest.len());
                self.page_mut(addr)[off..off + n].copy_from_slice(&rest[..n]);
                n
            };
            addr += n as u64;
            rest = &rest[n..];
        }
    }

    /// Copies `len` bytes out of memory starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| self.read_u8(addr.wrapping_add(i))).collect()
    }

    /// The flat region as `(base, one-past-end)`, or `None` when no
    /// region has been reserved.
    pub fn flat_range(&self) -> Option<(u64, u64)> {
        if self.flat.is_empty() {
            None
        } else {
            Some((self.flat_base, self.flat_end()))
        }
    }

    /// Serializes the full memory state: the flat-region geometry, the
    /// freeze flag, and every non-zero held page in address order. Zero
    /// pages are skipped — reads of unbacked memory return zero anyway,
    /// so the decoded memory reads identically at every address. The
    /// cost follows the pages held, not the flat reservation.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_bool(self.is_frozen());
        match self.flat_range() {
            None => w.put_bool(false),
            Some((base, end)) => {
                w.put_bool(true);
                w.put_u64(base);
                w.put_u64(end - base);
            }
        }
        let mut pages: Vec<(u64, &[u8])> =
            self.pages().filter(|&(_, p)| p != &ZERO_PAGE[..]).collect();
        pages.sort_by_key(|&(base, _)| base);
        w.put_usize(pages.len());
        for (base, bytes) in pages {
            w.put_u64(base);
            w.put_raw(bytes);
        }
    }

    /// Decodes a memory serialized by [`Memory::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a structurally invalid buffer
    /// (absurd flat length, page count beyond the bytes present).
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Memory, CodecError> {
        let frozen = r.bool()?;
        let mut mem = Memory::new();
        if r.bool()? {
            let base = r.u64()?;
            let len = r.u64()?;
            let end = base.checked_add(len).ok_or(CodecError::Invalid("flat range"))?;
            if len == 0 || len > FLAT_MAX {
                return Err(CodecError::Invalid("flat length"));
            }
            mem.reserve_flat(base, end);
            if mem.flat_range() != Some((base, end)) {
                return Err(CodecError::Invalid("flat geometry"));
            }
        }
        let n = r.seq_len(8 + PAGE_SIZE as usize)?;
        for _ in 0..n {
            let base = r.u64()?;
            let bytes = r.take(PAGE_SIZE as usize)?;
            mem.write_bytes(base, bytes);
        }
        if frozen {
            mem.freeze_flat();
        }
        Ok(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_by_default() {
        let m = Memory::new();
        assert_eq!(m.read(0x8000_0000, 8), 0);
        assert_eq!(m.read_u8(42), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn read_write_widths() {
        let mut m = Memory::new();
        m.write(0x1000, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(0x1000, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read(0x1000, 4), 0x5566_7788);
        assert_eq!(m.read(0x1004, 4), 0x1122_3344);
        assert_eq!(m.read(0x1000, 2), 0x7788);
        assert_eq!(m.read(0x1000, 1), 0x88);
        m.write(0x1002, 2, 0xAABB);
        assert_eq!(m.read(0x1000, 8), 0x1122_3344_AABB_7788);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 3; // 8-byte access straddles the boundary
        m.write(addr, 8, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.read(addr, 8), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn bulk_bytes_round_trip() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        m.write_bytes(PAGE_SIZE - 100, &data);
        assert_eq!(m.read_bytes(PAGE_SIZE - 100, data.len()), data);
    }

    #[test]
    fn flat_region_round_trip() {
        let mut m = Memory::new();
        m.reserve_flat(0x8000_0000, 0x8000_0000 + 2 * PAGE_SIZE);
        assert_eq!(m.read(0x8000_0000, 8), 0, "flat region starts zeroed");
        m.write(0x8000_0008, 8, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read(0x8000_0008, 8), 0x0123_4567_89AB_CDEF);
        assert_eq!(m.page_count(), 0, "flat writes allocate no overflow pages");
        assert_eq!(m.flat_range(), Some((0x8000_0000, 0x8000_0000 + 2 * PAGE_SIZE)));
        assert_eq!(m.footprint_bytes(), PAGE_SIZE as usize, "only the written page is held");
    }

    #[test]
    fn accesses_straddling_the_flat_boundary() {
        let mut m = Memory::new();
        m.reserve_flat(0x8000_0000, 0x8000_0000 + PAGE_SIZE);
        // Starts 4 bytes below the flat base, ends 4 bytes inside it.
        m.write(0x8000_0000 - 4, 8, 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.read(0x8000_0000 - 4, 8), 0xAABB_CCDD_EEFF_0011);
        assert_eq!(m.read(0x8000_0000, 4), 0xAABB_CCDD);
        // Starts 4 bytes before the flat end, ends 4 bytes past it.
        let end = 0x8000_0000 + PAGE_SIZE;
        m.write(end - 4, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(end - 4, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read(end, 4), 0x1122_3344);
        assert_eq!(m.page_count(), 2, "both sides spill into overflow pages");
    }

    #[test]
    fn reserve_flat_migrates_existing_pages() {
        let mut m = Memory::new();
        m.write(0x8000_0010, 8, 0xDEAD_BEEF_1234_5678);
        m.write(0x7FFF_FFF8, 8, 0x0BAD_CAFE_0BAD_CAFE); // below the region
        assert_eq!(m.page_count(), 2);
        m.reserve_flat(0x8000_0000, 0x8000_0000 + PAGE_SIZE);
        assert_eq!(m.read(0x8000_0010, 8), 0xDEAD_BEEF_1234_5678, "page content migrated");
        assert_eq!(m.read(0x7FFF_FFF8, 8), 0x0BAD_CAFE_0BAD_CAFE, "outside page untouched");
        assert_eq!(m.page_count(), 1, "migrated page left the overflow table");
    }

    #[test]
    fn reserve_flat_is_idempotent_and_capped() {
        let mut m = Memory::new();
        m.reserve_flat(0, u64::MAX);
        assert_eq!(m.flat_range(), Some((0, FLAT_MAX)), "reservation capped");
        assert_eq!(m.footprint_bytes(), 0, "a reservation holds no pages until written");
        m.reserve_flat(0x9000_0000, 0xA000_0000);
        assert_eq!(m.flat_range(), Some((0, FLAT_MAX)), "second reservation is a no-op");
    }

    #[test]
    fn clone_is_independent() {
        let mut m = Memory::new();
        m.reserve_flat(0x8000_0000, 0x8000_0000 + PAGE_SIZE);
        m.write(0x8000_0000, 8, 1);
        m.write(0x1000, 8, 2); // overflow page
        let mut c = m.clone();
        c.write(0x8000_0000, 8, 3);
        c.write(0x1000, 8, 4);
        c.write(0x2000, 8, 5); // new page only in the clone
        assert_eq!(m.read(0x8000_0000, 8), 1);
        assert_eq!(m.read(0x1000, 8), 2);
        assert_eq!(m.read(0x2000, 8), 0);
        assert_eq!(c.read(0x8000_0000, 8), 3);
        assert_eq!(c.read(0x1000, 8), 4);
        assert_eq!(c.read(0x2000, 8), 5);
    }

    #[test]
    fn sparse_clone_reproduces_every_flat_byte() {
        let mut m = Memory::new();
        m.reserve_flat(0x8000_0000, 0x8000_0000 + 8 * PAGE_SIZE);
        // Scattered writes, including across a page boundary and in the
        // last page, with zero pages in between (which the sparse clone
        // skips).
        m.write(0x8000_0000, 8, 0x0102_0304_0506_0708);
        m.write(0x8000_0000 + PAGE_SIZE - 3, 8, 0x1111_2222_3333_4444);
        m.write(0x8000_0000 + 7 * PAGE_SIZE + 8, 4, 0xDEAD_BEEF);
        let c = m.clone();
        for pn in 0..8 {
            for off in (0..PAGE_SIZE).step_by(8) {
                let addr = 0x8000_0000 + pn * PAGE_SIZE + off;
                assert_eq!(m.read(addr, 8), c.read(addr, 8), "mismatch at {addr:#x}");
            }
        }
    }

    /// A scattered-content memory used by the CoW tests.
    fn seeded() -> Memory {
        let mut m = Memory::new();
        m.reserve_flat(0x8000_0000, 0x8000_0000 + 4 * PAGE_SIZE);
        m.write(0x8000_0000, 8, 0x0102_0304_0506_0708);
        m.write(0x8000_0000 + PAGE_SIZE - 3, 8, 0x1111_2222_3333_4444);
        m.write(0x8000_0000 + 3 * PAGE_SIZE + 8, 4, 0xDEAD_BEEF);
        m.write(0x1000, 8, 0xABCD); // overflow page
        m
    }

    #[test]
    fn freeze_preserves_every_byte() {
        let owned = seeded();
        let mut frozen = seeded();
        frozen.freeze_flat();
        assert!(frozen.is_frozen() && !owned.is_frozen());
        for off in (0..4 * PAGE_SIZE).step_by(4) {
            let addr = 0x8000_0000 + off;
            assert_eq!(owned.read(addr, 4), frozen.read(addr, 4), "mismatch at {addr:#x}");
        }
        assert_eq!(frozen.read(0x1000, 8), 0xABCD);
        assert_eq!(frozen.footprint_bytes(), owned.footprint_bytes());
    }

    #[test]
    fn frozen_clones_share_the_base_and_write_independently() {
        let mut m = seeded();
        m.freeze_flat();
        let mut a = m.clone();
        let mut b = m.clone();
        assert_eq!(a.dirty_page_count(), 0, "fresh clone has no private pages");
        a.write(0x8000_0000, 8, 111);
        b.write(0x8000_0000, 8, 222);
        assert_eq!(m.read(0x8000_0000, 8), 0x0102_0304_0506_0708);
        assert_eq!(a.read(0x8000_0000, 8), 111);
        assert_eq!(b.read(0x8000_0000, 8), 222);
        assert_eq!(a.dirty_page_count(), 1);
        // Reads around the written word still come from the base.
        assert_eq!(a.read(0x8000_0000 + PAGE_SIZE - 3, 8), 0x1111_2222_3333_4444);
    }

    #[test]
    fn cow_write_materializes_the_rest_of_the_page() {
        let mut m = seeded();
        m.freeze_flat();
        let mut c = m.clone();
        // Write one byte into page 0: the other bytes of that page must
        // be copied from the base, not zeroed.
        c.write_u8(0x8000_0000 + 100, 7);
        assert_eq!(c.read(0x8000_0000, 8), 0x0102_0304_0506_0708);
        assert_eq!(c.read_u8(0x8000_0000 + 100), 7);
    }

    #[test]
    fn cow_straddling_access_spans_dirty_and_clean_pages() {
        let mut m = seeded();
        m.freeze_flat();
        let mut c = m.clone();
        let boundary = 0x8000_0000 + PAGE_SIZE;
        // Dirty page 1 only; page 0 stays in the base. The seeded value
        // straddles the 0/1 boundary, so a read mixes both sources.
        c.write(boundary + 16, 8, 1);
        assert_eq!(c.read(0x8000_0000 + PAGE_SIZE - 3, 8), 0x1111_2222_3333_4444);
        // A straddling write must materialize both pages.
        let mut d = m.clone();
        d.write(boundary - 4, 8, 0x9999_8888_7777_6666);
        assert_eq!(d.read(boundary - 4, 8), 0x9999_8888_7777_6666);
        assert_eq!(d.dirty_page_count(), 2);
        assert_eq!(d.read(0x8000_0000, 8), 0x0102_0304_0506_0708, "rest of page 0 intact");
    }

    #[test]
    fn cow_clone_of_a_dirty_clone_carries_private_pages() {
        let mut m = seeded();
        m.freeze_flat();
        let mut a = m.clone();
        a.write(0x8000_0000 + 2 * PAGE_SIZE, 8, 0xFEED);
        let b = a.clone();
        assert_eq!(b.read(0x8000_0000 + 2 * PAGE_SIZE, 8), 0xFEED);
        assert_eq!(b.read(0x8000_0000, 8), 0x0102_0304_0506_0708);
        assert_eq!(b.dirty_page_count(), 1);
    }

    #[test]
    fn frozen_pages_iterator_matches_owned() {
        let owned = seeded();
        let mut frozen = seeded();
        frozen.freeze_flat();
        let collect = |m: &Memory| {
            let mut v: Vec<(u64, Vec<u8>)> = m.pages().map(|(b, p)| (b, p.to_vec())).collect();
            v.sort_by_key(|(b, _)| *b);
            v
        };
        assert_eq!(collect(&owned), collect(&frozen));
        // Dirtied pages show their private contents.
        let mut c = frozen.clone();
        c.write(0x8000_0000, 8, 42);
        let pages = collect(&c);
        assert_eq!(u64::from_le_bytes(pages[1].1[..8].try_into().unwrap()), 42);
    }

    #[test]
    fn freeze_is_idempotent() {
        let mut m = seeded();
        m.freeze_flat();
        let base = m.base.clone().unwrap();
        m.freeze_flat();
        assert!(Arc::ptr_eq(&base, m.base.as_ref().unwrap()));
    }

    /// Reads every backed page of both memories and asserts bit equality.
    fn assert_reads_identical(a: &Memory, b: &Memory) {
        let collect = |m: &Memory| {
            let mut v: Vec<(u64, Vec<u8>)> = m
                .pages()
                .filter(|(_, p)| p.iter().any(|&x| x != 0))
                .map(|(base, p)| (base, p.to_vec()))
                .collect();
            v.sort_by_key(|(base, _)| *base);
            v
        };
        assert_eq!(collect(a), collect(b), "non-zero page contents must match");
        assert_eq!(a.flat_range(), b.flat_range());
        assert_eq!(a.is_frozen(), b.is_frozen());
    }

    #[test]
    fn encode_decode_round_trips_owned_and_frozen() {
        for freeze in [false, true] {
            let mut m = seeded();
            if freeze {
                m.freeze_flat();
            }
            let mut w = ByteWriter::new();
            m.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let d = Memory::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_reads_identical(&m, &d);
            assert_eq!(d.read(0x1000, 8), 0xABCD, "overflow page restored");
            assert_eq!(d.read(0x8000_0000, 8), 0x0102_0304_0506_0708);
        }
    }

    #[test]
    fn decode_rejects_absurd_flat_and_page_lengths() {
        let mut w = ByteWriter::new();
        w.put_bool(false);
        w.put_bool(true);
        w.put_u64(0x8000_0000);
        w.put_u64(u64::MAX - 0x8000_0000); // overflows FLAT_MAX
        let bytes = w.into_bytes();
        assert!(Memory::decode(&mut ByteReader::new(&bytes)).is_err());

        let mut w = ByteWriter::new();
        w.put_bool(false);
        w.put_bool(false);
        w.put_u64(u64::MAX); // page count with no bytes behind it
        let bytes = w.into_bytes();
        assert_eq!(
            Memory::decode(&mut ByteReader::new(&bytes)).map(|_| ()),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn every_truncation_of_an_encoded_memory_errors() {
        let mut m = seeded();
        m.freeze_flat();
        let mut w = ByteWriter::new();
        m.encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let res = Memory::decode(&mut r).and_then(|_| r.finish());
            assert!(res.is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn pages_iterator_covers_flat_and_overflow() {
        let mut m = Memory::new();
        m.reserve_flat(0x8000_0000, 0x8000_0000 + 2 * PAGE_SIZE);
        m.write(0x1000, 1, 7);
        m.write(0x8000_0000 + PAGE_SIZE + 8, 1, 9);
        // Pages held: the written overflow page and the written flat
        // page, not the untouched rest of the reservation.
        let mut bases: Vec<u64> = m.pages().map(|(b, _)| b).collect();
        bases.sort_unstable();
        assert_eq!(bases, vec![0x1000, 0x8000_0000 + PAGE_SIZE]);
        assert!(m.pages().all(|(_, p)| p.len() == PAGE_SIZE as usize));
    }
}
