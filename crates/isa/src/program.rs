//! Loadable program images produced by the assembler.

use crate::image::{DecodedImage, SharedImage};
use crate::mem::Memory;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A position-fixed, bare-metal program image (text followed by data).
///
/// Produced by [`crate::asm::Assembler::assemble`]; loaded into a simulator
/// with [`Program::load`].
#[derive(Clone, Debug)]
pub struct Program {
    base: u64,
    text_len: usize,
    image: Vec<u8>,
    symbols: HashMap<String, u64>,
    stack_top: u64,
    /// Text segment predecoded on first use (clones share the `Arc`);
    /// excluded from [`Program::fingerprint`] — it is a pure function of
    /// the other fields.
    decoded: OnceLock<SharedImage>,
    /// [`Program::fingerprint`], hashed on first use. `Program` has no
    /// mutator, so it never goes stale; clones carry it.
    fingerprint: OnceLock<u64>,
}

impl Program {
    pub(crate) fn new(
        base: u64,
        text_len: usize,
        image: Vec<u8>,
        symbols: HashMap<String, u64>,
        stack_top: u64,
    ) -> Program {
        Program {
            base,
            text_len,
            image,
            symbols,
            stack_top,
            decoded: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Load address of the first text byte; also the entry point.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Entry-point address (equal to [`Program::base`]).
    pub fn entry(&self) -> u64 {
        self.base
    }

    /// Initial stack-pointer value simulators should install.
    pub fn stack_top(&self) -> u64 {
        self.stack_top
    }

    /// Size of the text (code) section in bytes.
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// The full image (text + data) as raw bytes.
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// Address of a label defined during assembly, if present.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Stable content fingerprint (FNV-1a over the image and load
    /// geometry), used as a cache key by artifact stores: two programs
    /// with the same fingerprint execute identically, so profiling and
    /// checkpoint artifacts derived from one are valid for the other.
    /// Hashed once per program; later calls (and clones) read the cache.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut eat = |bytes: &[u8]| {
                for &b in bytes {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            eat(&self.base.to_le_bytes());
            eat(&(self.text_len as u64).to_le_bytes());
            eat(&self.stack_top.to_le_bytes());
            eat(&self.image);
            h
        })
    }

    /// Copies the image into `mem` at its base address, first reserving a
    /// contiguous flat region covering the image and the stack so the hot
    /// read/write paths skip the overflow page table entirely.
    pub fn load(&self, mem: &mut Memory) {
        let image_end = self.base + self.image.len() as u64;
        mem.reserve_flat(self.base, self.stack_top.max(image_end));
        mem.write_bytes(self.base, &self.image);
    }

    /// The text segment predecoded into a dense instruction table,
    /// computed once per program and shared behind [`Arc`] by every
    /// simulator (functional CPUs, detailed cores, checkpoints, worker
    /// threads).
    pub fn decoded_image(&self) -> SharedImage {
        self.decoded
            .get_or_init(|| {
                Arc::new(DecodedImage::decode_text(self.base, &self.image[..self.text_len]))
            })
            .clone()
    }

    /// Number of static instructions in the text section.
    pub fn inst_count(&self) -> usize {
        self.text_len / 4
    }
}
