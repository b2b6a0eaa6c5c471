//! Sectioned on-disk index containers: zero-copy persistence for every
//! distance-oracle backend in the workspace.
//!
//! Construction and querying are separate phases of a hub-labelling system:
//! indexes are built once (minutes of CPU on continental road networks) and
//! served many times, so a production deployment wants to `save` a built
//! index and `load` it in milliseconds instead of re-running construction.
//! This module defines the file format and the [`PersistentIndex`] trait the
//! backends implement; the `hc2l-oracle` crate surfaces both as
//! `Oracle::save(path)` / `OracleBuilder::load(path)`.
//!
//! # File format (`FORMAT_VERSION` 2)
//!
//! A container is a flat sequence of byte *sections* addressed by a table of
//! contents, preceded by a fixed 64-byte header. All integers are
//! little-endian.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic  b"HC2LIDX\0"
//!      8     4  format version (u32) — bumped on any layout change
//!     12     4  method tag (u32)     — which backend wrote the file
//!     16     4  section count (u32)
//!     20     4  reserved (0)
//!     24     8  checksum (u64)       — FNV-1a over header fields + sections
//!     32     8  total file size (u64)
//!     40    24  reserved (0)
//!     64   24n  table of contents: n entries of
//!               { tag: u32, reserved: u32, offset: u64, length: u64 }
//!      …        section payloads, each starting at a 64-byte-aligned offset
//!               (zero padding between sections; none after the last)
//! ```
//!
//! Section **tags** are small integers private to each backend (tag 0 is
//! conventionally the backend's scalar metadata). Each payload is either a
//! raw array of fixed-width little-endian values (one array per section, so
//! a loaded section can be reinterpreted in place) or an opaque metadata
//! blob written with [`MetaWriter`].
//!
//! The 64-byte **alignment** of every section start means that on a
//! little-endian host a section holding `u32`/`u64`/[`Pod`] values can be
//! viewed directly as a typed slice of the loaded buffer
//! ([`Container::section_pods`]) — no per-element decode, no copy — which is
//! what the borrowed (`Borrowed`) instantiations of the flat label arenas
//! run queries on. The same layout is what makes the memory-mapped load
//! path ([`Container::open_mmap`]) possible: a mapping is page-aligned, so
//! every section is 64-byte aligned in memory and queries run straight out
//! of the page cache.
//!
//! The **checksum** covers the version, method tag, section count and every
//! section's (tag, length, payload); a flipped byte anywhere surfaces as
//! [`DecodeError::ChecksumMismatch`] instead of a wrong distance.
//!
//! # Robustness contract
//!
//! *Corrupt* files (truncation, bit rot, partial writes) always fail with a
//! typed [`DecodeError`] — the checksum catches them before any backend
//! decoding runs. On top of that, the backends' `read_sections`/`from_parts`
//! validators re-check every structural invariant their query paths index
//! by, so even a checksum-*valid* but hand-crafted file cannot cause memory
//! unsafety, a hang, or a silent wrong answer; the residual worst case for
//! adversarial input is a bounds-check panic at query time on invariants
//! that would require rebuilding the index to verify (e.g. that an LCA
//! sparse table really encodes a tree).
//!
//! # Versioning policy
//!
//! `FORMAT_VERSION` identifies the container layout *and* the per-backend
//! section schemas; any incompatible change to either bumps it. Readers
//! accept the versions in [`MIN_FORMAT_VERSION`]`..=`[`FORMAT_VERSION`] and
//! reject everything else with [`DecodeError::UnsupportedVersion`] — newer
//! files are never guessed at, and indexes are cheap to rebuild, so no
//! forward migration is attempted. The checksum hashes the version the file
//! *itself* declares, so accepting an older version needs no checksum
//! special-casing.
//!
//! Version history:
//!
//! * **v1** — initial sectioned format.
//! * **v2** — added optional per-backend label *cut-bound* sections
//!   (per-block lower bounds for pruned query kernels): HC2L tags 10/11,
//!   HL tags 5/6, PHL tags 3/4.
//!
//!   Every backend has since stopped writing them and ignores them on read,
//!   so they are never validated either; the tags stay reserved. HC2L's
//!   level scans almost never span enough blocks for a skip to pay, and
//!   HL's and PHL's merge-joins ran faster without the bounds (see
//!   `crate::kernels`). The version was not bumped, because the change is
//!   compatible both ways: current readers skip the sections in older
//!   files, and older readers treat the sections as optional (their owned
//!   loaders rebuild the bounds, their views run unpruned).

use std::fmt;
use std::path::Path;

/// Magic bytes identifying an index container file.
pub const MAGIC: [u8; 8] = *b"HC2LIDX\0";

/// Current container format version (see the module docs for the policy).
pub const FORMAT_VERSION: u32 = 2;

/// Oldest container format version still accepted by the reader.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Alignment of every section payload within the file.
pub const SECTION_ALIGN: u64 = 64;

/// Size of the fixed header.
pub const HEADER_BYTES: usize = 64;

/// Size of one table-of-contents entry.
pub const TOC_ENTRY_BYTES: usize = 24;

/// Method tags stored in the container header. The `hc2l-oracle` crate maps
/// its `Method` enum onto these; backends accept the tags that denote their
/// own index layout (HC2L also accepts `HC2L_PARALLEL`).
pub mod method_tag {
    /// Hierarchical Cut 2-Hop Labelling, built with any thread count.
    pub const HC2L: u32 = 1;
    /// Legacy: read as [`HC2L`], never written (the old HC2Lp build tag).
    pub const HC2L_PARALLEL: u32 = 2;
    /// Hierarchical 2-Hop Index.
    pub const H2H: u32 = 3;
    /// Pruned Highway Labelling.
    pub const PHL: u32 = 4;
    /// Hub Labelling.
    pub const HL: u32 = 5;
    /// Contraction Hierarchies.
    pub const CH: u32 = 6;
}

/// A decode failure: a malformed/corrupt container or label arena.
///
/// This is the one typed error every `from_bytes`/`from_parts`/`read_*` path
/// in the workspace reports — the container reader and the arena validators
/// share it, so callers never see a panic on bad input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the structure it claims to hold.
    Truncated,
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is outside
    /// [`MIN_FORMAT_VERSION`]`..=`[`FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The stored checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum recomputed from the file.
        computed: u64,
    },
    /// The header's method tag maps to no known backend.
    UnknownMethod {
        /// Tag found in the header.
        tag: u32,
    },
    /// A backend was asked to load a container written by another method.
    MethodMismatch {
        /// The canonical tag of the loading backend.
        expected: u32,
        /// Tag found in the header.
        found: u32,
    },
    /// A section the backend's schema requires is absent.
    MissingSection {
        /// The missing section's tag.
        tag: u32,
    },
    /// A section's byte length is not a multiple of its element width.
    BadSectionLen {
        /// The offending section's tag.
        tag: u32,
    },
    /// A structural invariant does not hold (non-monotone offsets,
    /// inconsistent array lengths, out-of-range indices, …).
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated"),
            DecodeError::BadMagic => write!(f, "not an index container (bad magic)"),
            DecodeError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported container version {found} \
                     (this reader accepts versions {MIN_FORMAT_VERSION} to {FORMAT_VERSION})"
                )
            }
            DecodeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: header says {stored:#018x}, contents hash to {computed:#018x}"
            ),
            DecodeError::UnknownMethod { tag } => write!(f, "unknown method tag {tag}"),
            DecodeError::MethodMismatch { expected, found } => write!(
                f,
                "container was written by method tag {found}, expected {expected}"
            ),
            DecodeError::MissingSection { tag } => write!(f, "required section {tag} missing"),
            DecodeError::BadSectionLen { tag } => {
                write!(
                    f,
                    "section {tag} length is not a multiple of the element width"
                )
            }
            DecodeError::Malformed(what) => write!(f, "malformed index data: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A persistence failure: the I/O layer or the decode layer.
#[derive(Debug)]
pub enum PersistError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file's contents could not be decoded.
    Decode(DecodeError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "index file I/O failed: {e}"),
            PersistError::Decode(e) => write!(f, "index file invalid: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Decode(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<DecodeError> for PersistError {
    fn from(e: DecodeError) -> Self {
        PersistError::Decode(e)
    }
}

/// Fixed-width little-endian value, the element of a container's array
/// sections: [`ContainerWriter::push_pods`] encodes one and
/// [`Container::read_pod_vec`] decodes one on any host. Types that are also
/// [`Pod`] can additionally be viewed in place ([`Container::section_pods`]).
pub trait PodValue: Copy {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Appends the little-endian encoding to `out`.
    fn write_le(self, out: &mut Vec<u8>);
    /// Decodes from exactly [`PodValue::WIDTH`] bytes.
    fn read_le(bytes: &[u8]) -> Self;
}

impl PodValue for u32 {
    const WIDTH: usize = 4;
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        u32::from_le_bytes(bytes[..4].try_into().expect("a 4-byte slice"))
    }
}

impl PodValue for u64 {
    const WIDTH: usize = 8;
    fn write_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes[..8].try_into().expect("an 8-byte slice"))
    }
}

/// Marker for values whose in-memory representation equals their on-disk
/// encoding: fixed width, no padding bytes, every bit pattern valid, fields
/// little-endian on a little-endian host.
///
/// # Safety
///
/// Implementors must guarantee `size_of::<Self>() == Self::WIDTH`, that the
/// type contains no padding and no invalid bit patterns, and that
/// [`PodValue::write_le`] emits exactly the type's little-endian memory
/// representation. Only then may a `&[u8]` section be reinterpreted as
/// `&[Self]` ([`Container::section_pods`]).
pub unsafe trait Pod: PodValue {}

// SAFETY: primitive integers are padding-free and valid for any bit pattern;
// their encoding is their little-endian byte representation.
unsafe impl Pod for u32 {}
// SAFETY: as above.
unsafe impl Pod for u64 {}

/// The layout of one section: its tag and payload length in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionSpec {
    /// Backend-private section tag.
    pub tag: u32,
    /// Payload length in bytes (excluding alignment padding).
    pub len: u64,
}

#[inline]
fn align_up(x: u64) -> u64 {
    (x + (SECTION_ALIGN - 1)) & !(SECTION_ALIGN - 1)
}

/// Exact size in bytes of the container file a given section layout
/// produces: header, table of contents, and 64-byte-aligned payloads. This
/// is what `DistanceOracle::index_bytes` reports.
pub fn file_size(specs: &[SectionSpec]) -> u64 {
    let mut end = HEADER_BYTES as u64 + (specs.len() * TOC_ENTRY_BYTES) as u64;
    let mut cursor = align_up(end);
    for s in specs {
        end = cursor + s.len;
        cursor = align_up(end);
    }
    end
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn container_checksum(version: u32, method_tag: u32, sections: &[(u32, Vec<u8>)]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &version.to_le_bytes());
    h = fnv1a(h, &method_tag.to_le_bytes());
    h = fnv1a(h, &(sections.len() as u32).to_le_bytes());
    for (tag, payload) in sections {
        h = fnv1a(h, &tag.to_le_bytes());
        h = fnv1a(h, &(payload.len() as u64).to_le_bytes());
        h = fnv1a(h, payload);
    }
    h
}

/// Assembles a container file section by section.
///
/// The measuring variant ([`ContainerWriter::measuring`]) records section
/// layouts without encoding any payload, so `index_bytes`-style size
/// reporting costs no serialisation of the (potentially multi-GB) arenas.
#[derive(Debug, Clone)]
pub struct ContainerWriter {
    method_tag: u32,
    /// When set, `push_pods` only records each section's layout; payloads
    /// are not encoded and `finish`/`write_to` must not be called.
    measure_only: bool,
    sections: Vec<(u32, Vec<u8>)>,
    specs: Vec<SectionSpec>,
}

impl ContainerWriter {
    /// A writer stamping the given method tag into the header.
    pub fn new(method_tag: u32) -> Self {
        ContainerWriter {
            method_tag,
            measure_only: false,
            sections: Vec::new(),
            specs: Vec::new(),
        }
    }

    /// A layout-only writer: accepts the same `push_*` calls but records
    /// only each section's (tag, length), skipping payload encoding.
    pub fn measuring(method_tag: u32) -> Self {
        ContainerWriter {
            measure_only: true,
            ..ContainerWriter::new(method_tag)
        }
    }

    /// The method tag this container will carry.
    pub fn method_tag(&self) -> u32 {
        self.method_tag
    }

    fn record(&mut self, tag: u32, len: u64) {
        assert!(
            self.specs.iter().all(|s| s.tag != tag),
            "duplicate section tag {tag}"
        );
        self.specs.push(SectionSpec { tag, len });
    }

    /// Appends a raw payload section. Tags must be unique within a file.
    pub fn push_section(&mut self, tag: u32, payload: Vec<u8>) {
        self.record(tag, payload.len() as u64);
        if !self.measure_only {
            self.sections.push((tag, payload));
        }
    }

    /// Appends a section holding a raw array of fixed-width little-endian
    /// values (the zero-copy-readable section shape).
    pub fn push_pods<T: PodValue>(&mut self, tag: u32, values: &[T]) {
        self.record(tag, (values.len() * T::WIDTH) as u64);
        if self.measure_only {
            return;
        }
        let mut payload = Vec::with_capacity(values.len() * T::WIDTH);
        for &v in values {
            v.write_le(&mut payload);
        }
        self.sections.push((tag, payload));
    }

    /// The layout of the sections pushed so far.
    pub fn specs(&self) -> Vec<SectionSpec> {
        self.specs.clone()
    }

    /// Serialises the container into one byte buffer (in-memory path; the
    /// file path [`ContainerWriter::write_to`] streams instead of
    /// assembling the whole file).
    pub fn finish(&self) -> Vec<u8> {
        let total = file_size(&self.specs) as usize;
        let mut out = Vec::with_capacity(total);
        self.emit(&mut out).expect("writing to a Vec cannot fail");
        debug_assert_eq!(out.len(), total);
        out
    }

    /// Writes the container to a file, streaming header, table of contents
    /// and sections so no whole-file buffer is assembled (the section
    /// payloads themselves are the only serialised copy in memory).
    ///
    /// The write is **crash-safe**: the bytes stream into a uniquely named
    /// sibling temp file, which is fsynced and then atomically renamed over
    /// `path` (followed by an fsync of the containing directory on unix, so
    /// the rename itself is durable). A crash — or a `kill -9` — at any
    /// instant leaves `path` holding either the complete previous file or
    /// the complete new one, never a torn mix; a failed write cleans up its
    /// temp file and leaves `path` untouched. A killed process can leave a
    /// stale `*.tmp.<pid>.<n>` sibling behind, which the next successful
    /// save to the same path does not disturb and loaders never look at.
    pub fn write_to(&self, path: &Path) -> Result<(), PersistError> {
        let tmp = tmp_sibling(path);
        let result = (|| -> Result<(), PersistError> {
            let file = std::fs::File::create(&tmp)?;
            let mut out = std::io::BufWriter::new(file);
            self.emit(&mut out)?;
            std::io::Write::flush(&mut out)?;
            out.get_ref().sync_all()?;
            std::fs::rename(&tmp, path)?;
            #[cfg(unix)]
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::File::open(parent)?.sync_all()?;
            }
            Ok(())
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Emits header + TOC + aligned payloads into any sink.
    fn emit<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        assert!(
            !self.measure_only,
            "a measuring writer has no payloads to serialise"
        );
        let total = file_size(&self.specs);
        out.write_all(&MAGIC)?;
        out.write_all(&FORMAT_VERSION.to_le_bytes())?;
        out.write_all(&self.method_tag.to_le_bytes())?;
        out.write_all(&(self.sections.len() as u32).to_le_bytes())?;
        out.write_all(&0u32.to_le_bytes())?;
        let checksum = container_checksum(FORMAT_VERSION, self.method_tag, &self.sections);
        out.write_all(&checksum.to_le_bytes())?;
        out.write_all(&total.to_le_bytes())?;
        out.write_all(&[0u8; HEADER_BYTES - 40])?;

        // Table of contents, then the payloads at their aligned offsets.
        let mut offset = align_up((HEADER_BYTES + self.sections.len() * TOC_ENTRY_BYTES) as u64);
        for (tag, payload) in &self.sections {
            out.write_all(&tag.to_le_bytes())?;
            out.write_all(&0u32.to_le_bytes())?;
            out.write_all(&offset.to_le_bytes())?;
            out.write_all(&(payload.len() as u64).to_le_bytes())?;
            offset = align_up(offset + payload.len() as u64);
        }
        let mut at = (HEADER_BYTES + self.sections.len() * TOC_ENTRY_BYTES) as u64;
        const PAD: [u8; SECTION_ALIGN as usize] = [0u8; SECTION_ALIGN as usize];
        for (_, payload) in &self.sections {
            let start = align_up(at);
            out.write_all(&PAD[..(start - at) as usize])?;
            // Failpoint: fires once per section, so a chaos test can fail
            // (or stall, for the kill-during-save window) a save that has
            // already emitted a valid-looking header and some payloads.
            match crate::failpoints::act("container.write.section") {
                Some(crate::failpoints::FailAction::IoError) => {
                    return Err(crate::failpoints::injected("container.write.section"));
                }
                Some(crate::failpoints::FailAction::Torn(n)) => {
                    out.write_all(&payload[..n.min(payload.len())])?;
                    return Err(crate::failpoints::injected("container.write.section"));
                }
                _ => {}
            }
            out.write_all(payload)?;
            at = start + payload.len() as u64;
        }
        Ok(())
    }
}

/// A unique sibling path for [`ContainerWriter::write_to`]'s temp file:
/// same directory (so the final rename cannot cross filesystems), name
/// disambiguated by pid and a process-wide counter (so concurrent saves to
/// the same target never clobber each other's partial bytes).
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "index".to_string());
    path.with_file_name(format!("{name}.tmp.{}.{seq}", std::process::id()))
}

/// One parsed table-of-contents entry.
#[derive(Debug, Clone, Copy)]
struct TocEntry {
    tag: u32,
    offset: u64,
    len: u64,
}

/// Direct `mmap`/`munmap` declarations for the memory-mapped load path.
///
/// The workspace builds offline with no libc crate; these mirror the POSIX
/// prototypes (std already links the platform libc, so the symbols resolve).
/// Constants are the Linux/macOS values, which agree for the two flags used.
/// Gated to 64-bit targets: the declaration fixes `offset` as `i64`, which
/// only matches the C `off_t` where it is 64 bits — 32-bit hosts take the
/// buffered-read fallback instead of an FFI-mismatched call.
#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// A read-only private file mapping, unmapped on drop.
#[cfg(all(unix, target_pointer_width = "64"))]
struct MmapRegion {
    ptr: *const u8,
    len: usize,
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl MmapRegion {
    /// Maps `len` bytes of an open file read-only. Returns `None` when the
    /// kernel refuses (zero-length files, exotic filesystems, resource
    /// limits) so the caller can fall back to the buffered read path.
    fn map(file: &std::fs::File, len: usize) -> Option<Self> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return None;
        }
        // SAFETY: a fresh PROT_READ + MAP_PRIVATE mapping of a file we hold
        // open; no existing mapping is affected (addr hint is null).
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::map_failed() || ptr.is_null() {
            return None;
        }
        Some(MmapRegion {
            ptr: ptr as *const u8,
            len,
        })
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: the mapping covers `len` readable bytes for as long as
        // this region lives (munmap only runs in `drop`).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly what mmap returned; the region is
        // unmapped once, here.
        unsafe {
            sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
        }
    }
}

// SAFETY: the mapping is read-only and never remapped after construction;
// sharing the raw pointer across threads is no different from sharing a
// `&[u8]`.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Send for MmapRegion {}
// SAFETY: as for Send — the mapping is an immutable byte view, so shared
// references from any number of threads are sound.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Sync for MmapRegion {}

#[cfg(all(unix, target_pointer_width = "64"))]
impl std::fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapRegion")
            .field("len", &self.len)
            .finish()
    }
}

/// Who holds a loaded container's bytes.
#[derive(Debug)]
enum Backing {
    /// One heap buffer in `u64` units so every 64-byte-aligned section
    /// start is at least 8-byte aligned in memory. The `usize` is the file
    /// length in bytes (the buffer rounds up to 8).
    Owned(Vec<u64>, usize),
    /// A read-only file mapping ([`Container::open_mmap`]): page-aligned by
    /// the kernel, so section alignment holds a fortiori and the borrowed
    /// `Frozen*Ref` views query straight out of the mapping with no copy.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(MmapRegion),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            // SAFETY: the `u64` buffer is fully initialised and the view
            // stays within its allocation (`len <= buf.len() * 8`).
            Backing::Owned(buf, len) => unsafe {
                std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), *len)
            },
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(region) => region.bytes(),
        }
    }
}

/// A loaded, validated container.
///
/// The whole file lives in one 8-byte-aligned buffer — an owned heap
/// allocation ([`Container::open`], [`Container::from_bytes`]) or a
/// read-only file mapping ([`Container::open_mmap`]); sections are handed
/// out as byte slices ([`Container::section`]), as zero-copy typed slices
/// ([`Container::section_pods`], little-endian hosts), or as freshly decoded
/// vectors ([`Container::read_pod_vec`], any host).
#[derive(Debug)]
pub struct Container {
    backing: Backing,
    method_tag: u32,
    toc: Vec<TocEntry>,
}

impl Clone for Container {
    /// Cloning always produces an *owned* container (a mapped backing is
    /// copied into a heap buffer; re-validation is skipped since the bytes
    /// were already checked).
    fn clone(&self) -> Self {
        let bytes = self.bytes();
        let words = bytes.len().div_ceil(8);
        let mut buf = vec![0u64; words];
        // SAFETY: a `u64` buffer may always be viewed as initialised bytes;
        // the view covers exactly the allocation's first `words * 8` bytes.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), words * 8) };
        dst[..bytes.len()].copy_from_slice(bytes);
        Container {
            backing: Backing::Owned(buf, bytes.len()),
            method_tag: self.method_tag,
            toc: self.toc.clone(),
        }
    }
}

impl Container {
    /// Parses and validates a container from its raw bytes (header, table of
    /// contents, alignment, checksum). The bytes are copied once into the
    /// aligned backing buffer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let words = bytes.len().div_ceil(8);
        let mut buf = vec![0u64; words];
        // SAFETY: a `u64` buffer may always be viewed as initialised bytes;
        // the view covers exactly the allocation's first `words * 8` bytes.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), words * 8) };
        dst[..bytes.len()].copy_from_slice(bytes);
        Container::from_backing(Backing::Owned(buf, bytes.len()))
    }

    /// Reads and parses a container file: one read straight into the
    /// aligned backing buffer (no transient second copy of the file), then
    /// the same in-place validation as [`Container::from_bytes`].
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        use std::io::Read;
        let mut file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| PersistError::Decode(DecodeError::Truncated))?;
        let words = len.div_ceil(8);
        let mut buf = vec![0u64; words];
        // SAFETY: as in `from_bytes` — an initialised `u64` buffer viewed as
        // bytes, within its allocation.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), words * 8) };
        file.read_exact(&mut dst[..len])?;
        Ok(Container::from_backing(Backing::Owned(buf, len))?)
    }

    /// Memory-maps and validates a container file: the sections are served
    /// straight out of the read-only mapping — no heap copy of the (possibly
    /// multi-GB) arenas, and physical pages are shared between every process
    /// serving the same index file.
    ///
    /// Checksum validation still reads every byte once (faulting the pages
    /// in), preserving the corruption-detection contract of
    /// [`Container::open`]; what the mapping saves is the allocation and the
    /// copy, and it keeps the index evictable under memory pressure.
    ///
    /// Falls back to the buffered [`Container::open`] read path when the
    /// platform has no `mmap` or the kernel refuses the mapping (for
    /// instance a zero-length file), so callers can use this
    /// unconditionally; [`Container::is_mapped`] reports which path served.
    pub fn open_mmap(path: &Path) -> Result<Self, PersistError> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            let file = std::fs::File::open(path)?;
            let len = usize::try_from(file.metadata()?.len())
                .map_err(|_| PersistError::Decode(DecodeError::Truncated))?;
            if let Some(region) = MmapRegion::map(&file, len) {
                return Ok(Container::from_backing(Backing::Mapped(region))?);
            }
        }
        Container::open(path)
    }

    /// Whether this container serves its sections from a file mapping
    /// (the [`Container::open_mmap`] fast path) rather than a heap buffer.
    pub fn is_mapped(&self) -> bool {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            matches!(self.backing, Backing::Mapped(_))
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            false
        }
    }

    /// Validates a backing holding the bytes of a container file.
    fn from_backing(backing: Backing) -> Result<Self, DecodeError> {
        let (method_tag, toc) = Container::validate(backing.bytes())?;
        Ok(Container {
            backing,
            method_tag,
            toc,
        })
    }

    /// Parses and checks a container image: header, table of contents,
    /// alignment, checksum.
    fn validate(bytes: &[u8]) -> Result<(u32, Vec<TocEntry>), DecodeError> {
        if bytes.len() < HEADER_BYTES {
            return Err(DecodeError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let version = u32_at(8);
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(DecodeError::UnsupportedVersion { found: version });
        }
        let method_tag = u32_at(12);
        let count_raw = u32_at(16);
        // lint:allow(truncating-cast): u32 → usize is lossless (usize ≥ 32 bits)
        let count = count_raw as usize;
        let stored_checksum = u64_at(24);
        let stored_size = u64_at(32);
        if stored_size != bytes.len() as u64 {
            return Err(DecodeError::Truncated);
        }
        let toc_end = HEADER_BYTES
            .checked_add(
                count
                    .checked_mul(TOC_ENTRY_BYTES)
                    .ok_or(DecodeError::Truncated)?,
            )
            .ok_or(DecodeError::Truncated)?;
        if bytes.len() < toc_end {
            return Err(DecodeError::Truncated);
        }

        let mut toc = Vec::with_capacity(count);
        for i in 0..count {
            let at = HEADER_BYTES + i * TOC_ENTRY_BYTES;
            let entry = TocEntry {
                tag: u32_at(at),
                offset: u64_at(at + 8),
                len: u64_at(at + 16),
            };
            if !entry.offset.is_multiple_of(SECTION_ALIGN) {
                return Err(DecodeError::Malformed("section offset not 64-byte aligned"));
            }
            if entry.offset < toc_end as u64 {
                return Err(DecodeError::Malformed("section overlaps the header"));
            }
            let end = entry
                .offset
                .checked_add(entry.len)
                .ok_or(DecodeError::Truncated)?;
            if end > bytes.len() as u64 {
                return Err(DecodeError::Truncated);
            }
            if toc.iter().any(|e: &TocEntry| e.tag == entry.tag) {
                return Err(DecodeError::Malformed("duplicate section tag"));
            }
            toc.push(entry);
        }

        // Verify the checksum over the parsed sections.
        let mut h = fnv1a(FNV_OFFSET, &version.to_le_bytes());
        h = fnv1a(h, &method_tag.to_le_bytes());
        h = fnv1a(h, &count_raw.to_le_bytes());
        for e in &toc {
            h = fnv1a(h, &e.tag.to_le_bytes());
            h = fnv1a(h, &e.len.to_le_bytes());
            // lint:allow(truncating-cast): offset/len bounds-checked against bytes.len() above, so both fit in usize
            h = fnv1a(h, &bytes[e.offset as usize..(e.offset + e.len) as usize]);
        }
        if h != stored_checksum {
            return Err(DecodeError::ChecksumMismatch {
                stored: stored_checksum,
                computed: h,
            });
        }

        Ok((method_tag, toc))
    }

    /// The whole file as bytes.
    fn bytes(&self) -> &[u8] {
        self.backing.bytes()
    }

    /// Length of the container file in bytes (what
    /// `DistanceOracle::index_bytes` reports for a loaded index).
    pub fn file_len(&self) -> usize {
        self.bytes().len()
    }

    /// The method tag stored in the header.
    pub fn method_tag(&self) -> u32 {
        self.method_tag
    }

    /// The layout of the stored sections.
    pub fn specs(&self) -> Vec<SectionSpec> {
        self.toc
            .iter()
            .map(|e| SectionSpec {
                tag: e.tag,
                len: e.len,
            })
            .collect()
    }

    /// Whether a section with this tag is present.
    pub fn has_section(&self, tag: u32) -> bool {
        self.toc.iter().any(|e| e.tag == tag)
    }

    /// The raw payload of a section.
    pub fn section(&self, tag: u32) -> Result<&[u8], DecodeError> {
        let e = self
            .toc
            .iter()
            .find(|e| e.tag == tag)
            .ok_or(DecodeError::MissingSection { tag })?;
        Ok(&self.bytes()[e.offset as usize..(e.offset + e.len) as usize])
    }

    /// Zero-copy typed view of a section: reinterprets the loaded bytes as a
    /// slice of [`Pod`] values without decoding. Only available on
    /// little-endian hosts (the on-disk encoding *is* the little-endian
    /// memory representation there); big-endian hosts must use
    /// [`Container::read_pod_vec`].
    pub fn section_pods<T: Pod>(&self, tag: u32) -> Result<&[T], DecodeError> {
        if cfg!(target_endian = "big") {
            return Err(DecodeError::Malformed(
                "zero-copy section views require a little-endian host",
            ));
        }
        let bytes = self.section(tag)?;
        if bytes.len() % std::mem::size_of::<T>() != 0 {
            return Err(DecodeError::BadSectionLen { tag });
        }
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        // SAFETY: `Pod` guarantees `T` is padding-free, valid for any bit
        // pattern and laid out as its little-endian encoding; the buffer is
        // 8-byte aligned and sections start at 64-byte offsets, so the
        // pointer is aligned for any `Pod` type in the workspace.
        Ok(unsafe {
            std::slice::from_raw_parts(
                bytes.as_ptr().cast::<T>(),
                bytes.len() / std::mem::size_of::<T>(),
            )
        })
    }

    /// Decodes a section into an owned vector, value by value. This is the
    /// load path on big-endian hosts, where [`Container::section_pods`]
    /// refuses to view the little-endian bytes in place, and the owned
    /// loaders' path on every host.
    pub fn read_pod_vec<T: PodValue>(&self, tag: u32) -> Result<Vec<T>, DecodeError> {
        let bytes = self.section(tag)?;
        if bytes.len() % T::WIDTH != 0 {
            return Err(DecodeError::BadSectionLen { tag });
        }
        let mut values = Vec::with_capacity(bytes.len() / T::WIDTH);
        let mut at = 0;
        while at < bytes.len() {
            values.push(T::read_le(&bytes[at..]));
            at += T::WIDTH;
        }
        Ok(values)
    }
}

/// An index that can be persisted to (and restored from) a sectioned
/// container file.
///
/// Backends implement [`PersistentIndex::write_sections`] /
/// [`PersistentIndex::read_sections`]; the save/load entry points, the
/// section layout and the exact on-disk size derive from those, so the
/// reported `index_bytes` can never drift from what `save_to` writes.
pub trait PersistentIndex: Sized {
    /// The canonical method tag written into the container header.
    const METHOD_TAG: u32;

    /// Whether this backend can load a container carrying `tag` (HC2L also
    /// accepts the legacy parallel-build tag).
    fn accepts_tag(tag: u32) -> bool {
        tag == Self::METHOD_TAG
    }

    /// Serialises the index into container sections.
    fn write_sections(&self, w: &mut ContainerWriter);

    /// Reconstructs the index from a loaded container's sections.
    fn read_sections(c: &Container) -> Result<Self, DecodeError>;

    /// The section layout `save_to` would write, derived from
    /// [`PersistentIndex::write_sections`] itself so it can never drift
    /// from the real serialisation — run against a *measuring* writer, so
    /// no arena payload is actually encoded (only small metadata blobs
    /// are).
    fn section_layout(&self) -> Vec<SectionSpec> {
        let mut w = ContainerWriter::measuring(Self::METHOD_TAG);
        self.write_sections(&mut w);
        w.specs()
    }

    /// Exact size in bytes of the container file `save_to` writes.
    fn serialized_bytes(&self) -> usize {
        file_size(&self.section_layout()) as usize
    }

    /// Saves the index to a container file.
    fn save_to(&self, path: &Path) -> Result<(), PersistError> {
        let mut w = ContainerWriter::new(Self::METHOD_TAG);
        self.write_sections(&mut w);
        w.write_to(path)
    }

    /// Loads an index from a container file, checking the method tag.
    fn load_from(path: &Path) -> Result<Self, PersistError> {
        let c = Container::open(path)?;
        if !Self::accepts_tag(c.method_tag()) {
            return Err(DecodeError::MethodMismatch {
                expected: Self::METHOD_TAG,
                found: c.method_tag(),
            }
            .into());
        }
        Ok(Self::read_sections(&c)?)
    }
}

/// Fixed-order scalar metadata encoder (each field occupies one
/// little-endian `u64` slot; `f64` fields are stored via their bit pattern).
#[derive(Debug, Default)]
pub struct MetaWriter {
    buf: Vec<u8>,
}

impl MetaWriter {
    /// An empty metadata blob.
    pub fn new() -> Self {
        MetaWriter::default()
    }

    /// Appends an integer field.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a float field.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u64(v as u64)
    }

    /// The encoded blob.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reader matching [`MetaWriter`]'s encoding; fields must be read in the
/// order they were written.
#[derive(Debug)]
pub struct MetaReader<'a> {
    bytes: &'a [u8],
}

impl<'a> MetaReader<'a> {
    /// Starts reading a metadata blob.
    pub fn new(bytes: &'a [u8]) -> Self {
        MetaReader { bytes }
    }

    /// Reads the next integer field.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        if self.bytes.len() < 8 {
            return Err(DecodeError::Truncated);
        }
        let v = u64::from_le_bytes(self.bytes[..8].try_into().unwrap());
        self.bytes = &self.bytes[8..];
        Ok(v)
    }

    /// Reads the next integer field as a `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Malformed("metadata field overflow"))
    }

    /// Reads the next float field.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads the next boolean field.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        Ok(self.u64()? != 0)
    }

    /// Asserts the whole blob was consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing metadata bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_writer() -> ContainerWriter {
        let mut w = ContainerWriter::new(method_tag::HL);
        w.push_pods::<u32>(1, &[1, 2, 3]);
        w.push_pods::<u64>(2, &[10, 20]);
        let mut meta = MetaWriter::new();
        meta.u64(7).f64(0.25).bool(true);
        w.push_section(0, meta.finish());
        w
    }

    #[test]
    fn round_trip_preserves_sections() {
        let w = sample_writer();
        let bytes = w.finish();
        assert_eq!(bytes.len(), file_size(&w.specs()) as usize);
        let c = Container::from_bytes(&bytes).unwrap();
        assert_eq!(c.method_tag(), method_tag::HL);
        assert_eq!(c.read_pod_vec::<u32>(1).unwrap(), vec![1, 2, 3]);
        assert_eq!(c.read_pod_vec::<u64>(2).unwrap(), vec![10, 20]);
        assert_eq!(c.section_pods::<u32>(1).unwrap(), &[1, 2, 3]);
        assert_eq!(c.section_pods::<u64>(2).unwrap(), &[10, 20]);
        let mut meta = MetaReader::new(c.section(0).unwrap());
        assert_eq!(meta.u64().unwrap(), 7);
        assert_eq!(meta.f64().unwrap(), 0.25);
        assert!(meta.bool().unwrap());
        meta.finish().unwrap();
    }

    #[test]
    fn sections_are_aligned() {
        let w = sample_writer();
        let bytes = w.finish();
        let c = Container::from_bytes(&bytes).unwrap();
        for spec in c.specs() {
            let payload = c.section(spec.tag).unwrap();
            assert_eq!(
                (payload.as_ptr() as usize - c.bytes().as_ptr() as usize) % SECTION_ALIGN as usize,
                0
            );
        }
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let bytes = sample_writer().finish();
        // Truncation.
        assert_eq!(
            Container::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err(),
            DecodeError::Truncated
        );
        assert_eq!(
            Container::from_bytes(&[]).unwrap_err(),
            DecodeError::Truncated
        );
        // Bad magic.
        let mut b = bytes.clone();
        b[0] ^= 0xFF;
        assert_eq!(
            Container::from_bytes(&b).unwrap_err(),
            DecodeError::BadMagic
        );
        // Wrong version; the message names the whole accepted range.
        let mut b = bytes.clone();
        b[8] = 0xEE;
        let err = Container::from_bytes(&b).unwrap_err();
        assert_eq!(err, DecodeError::UnsupportedVersion { found: 0xEE });
        assert_eq!(
            err.to_string(),
            format!(
                "unsupported container version 238 \
                 (this reader accepts versions {MIN_FORMAT_VERSION} to {FORMAT_VERSION})"
            )
        );
        assert!(err.to_string().contains("versions 1 to 2"));
        // A flipped payload byte fails the checksum.
        let mut b = bytes.clone();
        let last = b.len() - 1;
        b[last] ^= 0x01;
        assert!(matches!(
            Container::from_bytes(&b).unwrap_err(),
            DecodeError::ChecksumMismatch { .. }
        ));
        // A flipped checksum byte fails too.
        let mut b = bytes.clone();
        b[24] ^= 0x01;
        assert!(matches!(
            Container::from_bytes(&b).unwrap_err(),
            DecodeError::ChecksumMismatch { .. }
        ));
    }

    /// Rewrites a serialised container's header to declare `version`,
    /// recomputing the checksum the way the writer would have (the checksum
    /// hashes the declared version, so older-version files verify as-is).
    fn restamp_version(bytes: &mut [u8], version: u32) {
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let method_tag = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let mut h = fnv1a(FNV_OFFSET, &version.to_le_bytes());
        h = fnv1a(h, &method_tag.to_le_bytes());
        h = fnv1a(h, &(count as u32).to_le_bytes());
        for i in 0..count {
            let at = HEADER_BYTES + i * TOC_ENTRY_BYTES;
            let tag = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap()) as usize;
            h = fnv1a(h, &tag.to_le_bytes());
            h = fnv1a(h, &(len as u64).to_le_bytes());
            let payload = bytes[offset..offset + len].to_vec();
            h = fnv1a(h, &payload);
        }
        bytes[24..32].copy_from_slice(&h.to_le_bytes());
    }

    #[test]
    fn older_format_versions_still_load() {
        let mut bytes = sample_writer().finish();
        restamp_version(&mut bytes, MIN_FORMAT_VERSION);
        let c = Container::from_bytes(&bytes).unwrap();
        assert_eq!(c.read_pod_vec::<u32>(1).unwrap(), vec![1, 2, 3]);
        assert!(c.has_section(2));
        assert!(!c.has_section(42));
    }

    #[test]
    fn newer_and_ancient_format_versions_are_rejected_typed() {
        for bad in [0, FORMAT_VERSION + 1, 999] {
            let mut bytes = sample_writer().finish();
            restamp_version(&mut bytes, bad);
            assert_eq!(
                Container::from_bytes(&bytes).unwrap_err(),
                DecodeError::UnsupportedVersion { found: bad }
            );
        }
    }

    #[test]
    fn missing_sections_and_bad_lengths_are_reported() {
        let bytes = sample_writer().finish();
        let c = Container::from_bytes(&bytes).unwrap();
        assert_eq!(
            c.section(99).unwrap_err(),
            DecodeError::MissingSection { tag: 99 }
        );
        // Section 1 holds three u32s (12 bytes): not a whole number of u64s.
        assert_eq!(
            c.read_pod_vec::<u64>(1).unwrap_err(),
            DecodeError::BadSectionLen { tag: 1 }
        );
    }

    #[test]
    fn pod_sections_decode_owned_exactly_as_viewed_in_place() {
        // The on-disk encoding is little-endian whatever the host, and the
        // owned decode (the big-endian load path) yields the same values as
        // the in-place view.
        let mut bytes = Vec::new();
        0x0102_0304u32.write_le(&mut bytes);
        0x0102_0304_0506_0708u64.write_le(&mut bytes);
        assert_eq!(bytes, [4, 3, 2, 1, 8, 7, 6, 5, 4, 3, 2, 1]);

        let narrow = [0, 1, 0x0102_0304, u32::MAX];
        let wide = [0, 1, 0x0102_0304_0506_0708, u64::MAX];
        let mut w = ContainerWriter::new(0);
        w.push_pods(1, &narrow);
        w.push_pods(2, &wide);
        let c = Container::from_bytes(&w.finish()).unwrap();
        assert_eq!(c.read_pod_vec::<u32>(1).unwrap(), narrow);
        assert_eq!(c.read_pod_vec::<u64>(2).unwrap(), wide);
        assert_eq!(c.section_pods::<u32>(1).unwrap(), narrow);
        assert_eq!(c.section_pods::<u64>(2).unwrap(), wide);
    }

    #[test]
    fn file_size_matches_serialisation_for_edge_cases() {
        for w in [
            ContainerWriter::new(0),
            {
                let mut w = ContainerWriter::new(1);
                w.push_pods::<u32>(5, &[]);
                w
            },
            sample_writer(),
        ] {
            assert_eq!(w.finish().len(), file_size(&w.specs()) as usize);
        }
    }

    #[test]
    #[should_panic]
    fn duplicate_tags_panic_at_write_time() {
        let mut w = ContainerWriter::new(0);
        w.push_pods::<u32>(1, &[1]);
        w.push_pods::<u32>(1, &[2]);
    }

    fn scratch_file(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hc2l-container-{tag}-{}.hc2l", std::process::id()))
    }

    #[test]
    fn mmap_open_serves_identical_sections() {
        let w = sample_writer();
        let path = scratch_file("mmap");
        w.write_to(&path).unwrap();
        let mapped = Container::open_mmap(&path).unwrap();
        let read = Container::open(&path).unwrap();
        assert!(!read.is_mapped());
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(mapped.is_mapped());
        assert_eq!(mapped.method_tag(), read.method_tag());
        assert_eq!(mapped.file_len(), read.file_len());
        assert_eq!(
            mapped.section_pods::<u32>(1).unwrap(),
            read.section_pods::<u32>(1).unwrap()
        );
        assert_eq!(
            mapped.section_pods::<u64>(2).unwrap(),
            read.section_pods::<u64>(2).unwrap()
        );
        assert_eq!(mapped.section(0).unwrap(), read.section(0).unwrap());
        // Mapped sections keep the 64-byte alignment contract.
        for spec in mapped.specs() {
            let payload = mapped.section(spec.tag).unwrap();
            assert_eq!(
                (payload.as_ptr() as usize - mapped.bytes().as_ptr() as usize)
                    % SECTION_ALIGN as usize,
                0
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_open_detects_corruption() {
        let path = scratch_file("mmap-corrupt");
        let mut bytes = sample_writer().finish();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Container::open_mmap(&path).unwrap_err(),
            PersistError::Decode(DecodeError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_open_falls_back_on_empty_files() {
        // mmap refuses zero-length mappings; the fallback read path must
        // still report the usual typed truncation error.
        let path = scratch_file("mmap-empty");
        std::fs::write(&path, []).unwrap();
        assert!(matches!(
            Container::open_mmap(&path).unwrap_err(),
            PersistError::Decode(DecodeError::Truncated)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cloning_a_mapped_container_produces_an_owned_copy() {
        let path = scratch_file("mmap-clone");
        sample_writer().write_to(&path).unwrap();
        let mapped = Container::open_mmap(&path).unwrap();
        let clone = mapped.clone();
        assert!(!clone.is_mapped());
        assert_eq!(clone.file_len(), mapped.file_len());
        // The clone survives the original (and its mapping) being dropped.
        drop(mapped);
        std::fs::remove_file(&path).ok();
        assert_eq!(clone.read_pod_vec::<u32>(1).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn containers_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Container>();
    }

    fn sibling_temp_files(path: &std::path::Path) -> Vec<std::path::PathBuf> {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let mut found = Vec::new();
        for entry in std::fs::read_dir(path.parent().unwrap()).unwrap() {
            let entry = entry.unwrap();
            let entry_name = entry.file_name().to_string_lossy().into_owned();
            if entry_name.starts_with(&format!("{name}.tmp.")) {
                found.push(entry.path());
            }
        }
        found
    }

    #[test]
    fn write_to_replaces_atomically_and_leaves_no_temp_residue() {
        let path = scratch_file("atomic");
        sample_writer().write_to(&path).unwrap();
        let before = std::fs::read(&path).unwrap();
        // Overwrite with a different container: the target must end up as
        // the complete new file, with no temp siblings left behind.
        let mut w = ContainerWriter::new(method_tag::HL);
        w.push_pods::<u32>(1, &[9, 9, 9, 9]);
        w.write_to(&path).unwrap();
        let after = std::fs::read(&path).unwrap();
        assert_ne!(before, after);
        assert_eq!(after, w.finish());
        Container::from_bytes(&after).unwrap();
        assert!(sibling_temp_files(&path).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn failed_write_leaves_the_old_file_intact_and_cleans_its_temp() {
        use crate::failpoints;
        let path = scratch_file("atomic-fail");
        sample_writer().write_to(&path).unwrap();
        let before = std::fs::read(&path).unwrap();

        // An injected I/O error after the header + first payload: the
        // atomic path must report it, keep `path` byte-identical, and
        // remove its partial temp file.
        for action in [
            failpoints::FailAction::IoError,
            failpoints::FailAction::Torn(5),
        ] {
            failpoints::configure_window("container.write.section", action, 1, 1);
            let mut w = ContainerWriter::new(method_tag::HL);
            w.push_pods::<u32>(1, &[4, 5, 6]);
            w.push_pods::<u64>(2, &[40, 50]);
            let err = w.write_to(&path).unwrap_err();
            assert!(
                err.to_string().contains("injected failure"),
                "expected the injected error, got: {err}"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                before,
                "old index was disturbed"
            );
            Container::open(&path).unwrap();
            assert!(
                sibling_temp_files(&path).is_empty(),
                "temp file left behind"
            );
            failpoints::clear("container.write.section");
        }
        std::fs::remove_file(&path).ok();
    }
}
