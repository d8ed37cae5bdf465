//! Immutable run files: CRC-framed blocks of entries in the caller's order.
//!
//! A run file is how sealed state leaves memory — a checkpoint (the server's command
//! log, compacted), or a batch written by the trace's codec. The layout (SSTable-style):
//!
//! ```text
//! header:  b"KPGRUN01" ++ u32 version
//! blocks:  [u32 LE block length][u32 LE crc32(block)][entries]*
//!          where entries = ([u32 LE entry length][entry bytes])*
//! index:   u32 count ++ per block { u64 offset, u32 length, u32 entries }
//! footer:  u64 index offset ++ u64 total entries ++ u32 crc32(index) ++ b"KPGRUN01"
//! ```
//!
//! Entries are opaque byte strings, stored and read back in the order the caller
//! pushed them. The caller marks *key boundaries* as it pushes; a block is only ever
//! cut at a key boundary, so a key's entries never span blocks. Blocks and the index
//! carry CRCs; [`RunReader::open`] validates the footer and index eagerly and each
//! block on read, so a damaged run is detected, not misread.
//!
//! A run that *replaces* another as the thing recovery trusts is written under a
//! temporary name and committed by [`RunWriter::commit`]: fsync, rename, directory
//! fsync. The rename is the commit point — before it the old run is in force and the
//! new one is ignorable garbage, after it the new one is complete by construction.

use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::bytes::{get_bytes, get_u32, get_u64, put_u32, put_u64};
use crate::crc::crc32;

const MAGIC: &[u8; 8] = b"KPGRUN01";
const VERSION: u32 = 2;
const FOOTER_LEN: u64 = 8 + 8 + 4 + 8;

/// The default block payload size writers aim for before cutting at the next key
/// boundary.
pub const DEFAULT_BLOCK_BYTES: usize = 32 * 1024;

struct IndexEntry {
    offset: u64,
    length: u32,
    entries: u32,
}

/// What a finished run contains, returned by [`RunWriter::finish`].
pub struct RunMeta {
    /// Total entries written.
    pub entries: u64,
}

/// Streams entries into a run file. Entries must be pushed in their final order; the
/// writer only frames and indexes them.
pub struct RunWriter {
    file: BufWriter<crate::io::File>,
    offset: u64,
    block: Vec<u8>,
    block_entries: u32,
    index: Vec<IndexEntry>,
    block_bytes: usize,
    total: u64,
}

impl RunWriter {
    /// Creates `path` (truncating any existing file) and writes the header. Blocks
    /// are cut at the first key boundary after `block_bytes` of entry payload.
    pub fn create(path: impl AsRef<Path>, block_bytes: usize) -> io::Result<RunWriter> {
        let mut file = BufWriter::new(crate::io::create(path)?);
        file.write_all(MAGIC)?;
        let mut version = Vec::new();
        put_u32(&mut version, VERSION);
        file.write_all(&version)?;
        Ok(RunWriter {
            file,
            offset: MAGIC.len() as u64 + 4,
            block: Vec::new(),
            block_entries: 0,
            index: Vec::new(),
            block_bytes: block_bytes.max(1),
            total: 0,
        })
    }

    /// Appends one entry. `key_boundary` says a block may be cut only before this
    /// entry: the current block is flushed first if it is over budget, so the entries
    /// between two boundaries never span blocks.
    pub fn push(&mut self, entry: &[u8], key_boundary: bool) -> io::Result<()> {
        if key_boundary && self.block.len() >= self.block_bytes {
            self.flush_block()?;
        }
        put_u32(&mut self.block, entry.len() as u32);
        self.block.extend_from_slice(entry);
        self.block_entries += 1;
        self.total += 1;
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let mut header = Vec::new();
        put_u32(&mut header, self.block.len() as u32);
        put_u32(&mut header, crc32(&self.block));
        self.file.write_all(&header)?;
        self.file.write_all(&self.block)?;
        self.index.push(IndexEntry {
            offset: self.offset,
            length: self.block.len() as u32,
            entries: self.block_entries,
        });
        self.offset += header.len() as u64 + self.block.len() as u64;
        self.block.clear();
        self.block_entries = 0;
        Ok(())
    }

    /// Flushes the final block, writes the index and footer, and fsyncs the file.
    pub fn finish(mut self) -> io::Result<RunMeta> {
        self.flush_block()?;
        let index_offset = self.offset;
        let mut index = Vec::new();
        put_u32(&mut index, self.index.len() as u32);
        for entry in &self.index {
            put_u64(&mut index, entry.offset);
            put_u32(&mut index, entry.length);
            put_u32(&mut index, entry.entries);
        }
        self.file.write_all(&index)?;
        let mut footer = Vec::new();
        put_u64(&mut footer, index_offset);
        put_u64(&mut footer, self.total);
        put_u32(&mut footer, crc32(&index));
        footer.extend_from_slice(MAGIC);
        self.file.write_all(&footer)?;
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        Ok(RunMeta {
            entries: self.total,
        })
    }

    /// [`RunWriter::finish`], then the atomic commit: renames the finished (fsynced)
    /// file to `to` and fsyncs `to`'s directory. An error before the rename leaves `to`
    /// untouched; an error after it (the directory fsync) leaves the new run in place
    /// under a name a crash may or may not keep — either way a complete file.
    pub fn commit(self, to: impl AsRef<Path>) -> io::Result<RunMeta> {
        let to = to.as_ref();
        let from = self.file.get_ref().path().to_path_buf();
        let meta = self.finish()?;
        crate::io::rename(from, to)?;
        let dir = to.parent().filter(|dir| !dir.as_os_str().is_empty());
        crate::io::sync_dir(dir.unwrap_or(Path::new(".")))?;
        Ok(meta)
    }
}

/// Reads a run file: the index is validated at open, blocks are CRC-checked on read.
pub struct RunReader {
    file: crate::io::File,
    path: PathBuf,
    blocks: Vec<IndexEntry>,
    entries: u64,
}

impl RunReader {
    /// Opens and validates `path` (magic, version, footer, index CRC).
    pub fn open(path: impl AsRef<Path>) -> io::Result<RunReader> {
        let path = path.as_ref().to_path_buf();
        let mut file = crate::io::open_read(&path)?;
        let total_len = file.seek(SeekFrom::End(0))?;
        let corrupt = |message: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {message}", path.display()),
            )
        };
        if total_len < MAGIC.len() as u64 + 4 + FOOTER_LEN {
            return Err(corrupt("file too short for a run"));
        }
        let mut header = [0u8; 12];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut header)?;
        if &header[..8] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        if get_u32(&header, &mut 8) != Some(VERSION) {
            return Err(corrupt("unsupported version"));
        }
        let mut footer = vec![0u8; FOOTER_LEN as usize];
        file.seek(SeekFrom::Start(total_len - FOOTER_LEN))?;
        file.read_exact(&mut footer)?;
        if &footer[FOOTER_LEN as usize - 8..] != MAGIC {
            return Err(corrupt("bad footer magic"));
        }
        let mut pos = 0usize;
        let index_offset = get_u64(&footer, &mut pos).expect("footer sized");
        let entries = get_u64(&footer, &mut pos).expect("footer sized");
        let index_crc = get_u32(&footer, &mut pos).expect("footer sized");
        if index_offset > total_len - FOOTER_LEN {
            return Err(corrupt("index offset out of bounds"));
        }
        let index_len = (total_len - FOOTER_LEN - index_offset) as usize;
        let mut index = vec![0u8; index_len];
        file.seek(SeekFrom::Start(index_offset))?;
        file.read_exact(&mut index)?;
        if crc32(&index) != index_crc {
            return Err(corrupt("index checksum mismatch"));
        }
        let mut pos = 0usize;
        let count = get_u32(&index, &mut pos).ok_or_else(|| corrupt("index truncated"))?;
        let mut blocks = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let offset = get_u64(&index, &mut pos).ok_or_else(|| corrupt("index truncated"))?;
            let length = get_u32(&index, &mut pos).ok_or_else(|| corrupt("index truncated"))?;
            let block_entries =
                get_u32(&index, &mut pos).ok_or_else(|| corrupt("index truncated"))?;
            blocks.push(IndexEntry {
                offset,
                length,
                entries: block_entries,
            });
        }
        Ok(RunReader {
            file,
            path,
            blocks,
            entries,
        })
    }

    /// The number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The total number of entries across all blocks.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Reads and CRC-checks block `index`, returning its entries in order.
    pub fn read_block(&mut self, index: usize) -> io::Result<Vec<Vec<u8>>> {
        let corrupt = |path: &Path, message: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {message}", path.display()),
            )
        };
        let block = &self.blocks[index];
        let mut frame = vec![0u8; 8 + block.length as usize];
        self.file.seek(SeekFrom::Start(block.offset))?;
        self.file.read_exact(&mut frame)?;
        let mut pos = 0usize;
        let length = get_u32(&frame, &mut pos).expect("frame sized");
        let expected = get_u32(&frame, &mut pos).expect("frame sized");
        if length != block.length {
            return Err(corrupt(&self.path, "block length disagrees with index"));
        }
        let payload = &frame[pos..];
        if crc32(payload) != expected {
            return Err(corrupt(&self.path, "block checksum mismatch"));
        }
        let mut entries = Vec::with_capacity(block.entries as usize);
        let mut cursor = 0usize;
        while cursor < payload.len() {
            let entry = get_bytes(payload, &mut cursor)
                .ok_or_else(|| corrupt(&self.path, "entry truncated inside block"))?;
            entries.push(entry);
        }
        if entries.len() != block.entries as usize {
            return Err(corrupt(&self.path, "entry count disagrees with index"));
        }
        Ok(entries)
    }

    /// All entries of every block, in order.
    pub fn read_all(&mut self) -> io::Result<Vec<Vec<u8>>> {
        let mut all = Vec::new();
        for index in 0..self.block_count() {
            all.extend(self.read_block(index)?);
        }
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_file(tag: &str) -> PathBuf {
        use kpg_sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("kpg-run-{tag}-{}-{unique}.run", std::process::id()))
    }

    #[test]
    fn round_trips_with_small_blocks() {
        let (temp, path) = (temp_file("roundtrip-tmp"), temp_file("roundtrip"));
        let mut writer = RunWriter::create(&temp, 32).unwrap();
        let entries: Vec<Vec<u8>> = (0..100u32)
            .map(|key| format!("key-{key:04}").into_bytes())
            .collect();
        for entry in &entries {
            writer.push(entry, true).unwrap();
        }
        let meta = writer.commit(&path).unwrap();
        assert!(!temp.exists(), "commit renamed the finished run into place");
        assert_eq!(meta.entries, 100);
        let mut reader = RunReader::open(&path).unwrap();
        assert_eq!(reader.entries(), 100);
        assert!(reader.block_count() > 1, "expected multiple blocks");
        assert_eq!(reader.read_all().unwrap(), entries);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn key_boundaries_hold_keys_together() {
        let path = temp_file("boundaries");
        let mut writer = RunWriter::create(&path, 16).unwrap();
        // 10 keys, 5 entries each; only the first entry of a key is a boundary.
        for key in 0..10u32 {
            for entry in 0..5u32 {
                let bytes = format!("{key:03}/{entry}").into_bytes();
                writer.push(&bytes, entry == 0).unwrap();
            }
        }
        writer.finish().unwrap();
        let mut reader = RunReader::open(&path).unwrap();
        assert!(reader.block_count() > 1, "expected multiple blocks");
        // Every block must start at a key boundary (entry suffix "/0").
        for index in 0..reader.block_count() {
            let first = &reader.read_block(index).unwrap()[0];
            assert!(first.ends_with(b"/0"), "block split a key: {first:?}");
        }
        assert_eq!(reader.read_all().unwrap().len(), 50);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn damage_is_detected() {
        let path = temp_file("damage");
        let mut writer = RunWriter::create(&path, 64).unwrap();
        for key in 0..50u32 {
            writer.push(&key.to_le_bytes(), true).unwrap();
        }
        writer.finish().unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // Flip one byte somewhere in the middle (block payload) and at the end
        // (index/footer): either open or the block read must error.
        for position in [pristine.len() / 2, pristine.len() - 10] {
            let mut corrupt = pristine.clone();
            corrupt[position] ^= 0x10;
            std::fs::write(&path, &corrupt).unwrap();
            let failed = match RunReader::open(&path) {
                Err(_) => true,
                Ok(mut reader) => {
                    (0..reader.block_count()).any(|index| reader.read_block(index).is_err())
                }
            };
            assert!(failed, "corruption at byte {position} went undetected");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_run_round_trips() {
        let path = temp_file("empty");
        let writer = RunWriter::create(&path, 64).unwrap();
        let meta = writer.finish().unwrap();
        assert_eq!(meta.entries, 0);
        let mut reader = RunReader::open(&path).unwrap();
        assert_eq!(reader.block_count(), 0);
        assert!(reader.read_all().unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_one_runs_are_refused() {
        // A complete version-1 run, built by hand: one block of one entry, and an
        // index that still carries each block's first entry.
        let entry = b"key";
        let mut block = Vec::new();
        put_u32(&mut block, entry.len() as u32);
        block.extend_from_slice(entry);
        let mut bytes = MAGIC.to_vec();
        put_u32(&mut bytes, 1);
        let block_offset = bytes.len() as u64;
        put_u32(&mut bytes, block.len() as u32);
        put_u32(&mut bytes, crc32(&block));
        bytes.extend_from_slice(&block);
        let index_offset = bytes.len() as u64;
        let mut index = Vec::new();
        put_u32(&mut index, 1);
        put_u64(&mut index, block_offset);
        put_u32(&mut index, block.len() as u32);
        put_u32(&mut index, 1);
        put_u32(&mut index, entry.len() as u32);
        index.extend_from_slice(entry);
        bytes.extend_from_slice(&index);
        put_u64(&mut bytes, index_offset);
        put_u64(&mut bytes, 1);
        put_u32(&mut bytes, crc32(&index));
        bytes.extend_from_slice(MAGIC);

        let path = temp_file("version-one");
        std::fs::write(&path, &bytes).unwrap();
        let error = RunReader::open(&path)
            .err()
            .expect("a version-1 run opened");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        let message = error.to_string();
        assert!(message.contains(&path.display().to_string()), "{message}");
        assert!(message.contains("unsupported version"), "{message}");
        std::fs::remove_file(&path).unwrap();
    }
}
