//! The batch ⇄ run-file codec: a sealed batch written to a `kpg_store` sorted-run file
//! ([`spill_batch`]) and read back into memory ([`StoredLayer::materialize`]).
//!
//! Every layer of a [`Spine`](crate::spine::Spine) lives in memory; no spine or operator
//! code calls this module. It is the building block a future spill reuses, and that
//! spill must arrive together with the policy that triggers it.
//!
//! Serialization goes through [`StoreData`], a small total codec: `store` appends a
//! self-delimiting encoding, `load` reads it back or returns `None` on truncation or
//! malformed input. One run-file entry is the concatenation `key ++ val ++ time ++
//! diff`, so entries of a sorted batch are themselves sorted byte strings grouped by
//! key, exactly what the run format's key-boundary blocks expect.

use std::io;
use std::path::{Path, PathBuf};

use kpg_store::run::DEFAULT_BLOCK_BYTES;
use kpg_store::{RunReader, RunWriter};

use crate::cursor::Cursor;
use crate::description::Description;
use crate::{Batch, Builder};

/// A total, self-delimiting byte codec for data written to sorted-run files.
///
/// `load` must consume exactly the bytes `store` produced and reject truncation with
/// `None` (never panic): run files are re-verified by CRC, but the decoder is the last
/// line of defense and also what tests drive byte by byte. Encoding is deterministic;
/// no order on the encoded bytes themselves is required.
pub trait StoreData: Sized {
    /// Appends a self-delimiting encoding of `self`.
    fn store(&self, bytes: &mut Vec<u8>);
    /// Decodes a value at `*pos`, advancing it; `None` on truncation or bad input.
    fn load(bytes: &[u8], pos: &mut usize) -> Option<Self>;
}

macro_rules! store_le_int {
    ($($ty:ty),*) => {$(
        impl StoreData for $ty {
            fn store(&self, bytes: &mut Vec<u8>) {
                bytes.extend_from_slice(&self.to_le_bytes());
            }
            fn load(bytes: &[u8], pos: &mut usize) -> Option<Self> {
                const WIDTH: usize = std::mem::size_of::<$ty>();
                let slice = bytes.get(*pos..*pos + WIDTH)?;
                *pos += WIDTH;
                Some(<$ty>::from_le_bytes(slice.try_into().expect("sized slice")))
            }
        }
    )*};
}

store_le_int!(u64, i64);

impl StoreData for isize {
    fn store(&self, bytes: &mut Vec<u8>) {
        (*self as i64).store(bytes);
    }
    fn load(bytes: &[u8], pos: &mut usize) -> Option<Self> {
        isize::try_from(i64::load(bytes, pos)?).ok()
    }
}

/// Decodes one run-file entry back into an update tuple; `None` unless the entry is
/// exactly one encoded `(key, val, time, diff)`.
fn decode_entry<K, V, T, R>(bytes: &[u8]) -> Option<(K, V, T, R)>
where
    K: StoreData,
    V: StoreData,
    T: StoreData,
    R: StoreData,
{
    let mut pos = 0;
    let key = K::load(bytes, &mut pos)?;
    let val = V::load(bytes, &mut pos)?;
    let time = T::load(bytes, &mut pos)?;
    let diff = R::load(bytes, &mut pos)?;
    (pos == bytes.len()).then_some((key, val, time, diff))
}

/// A batch written to a sorted-run file: the file, the batch's description and its
/// update count — everything [`StoredLayer::materialize`] needs to rebuild it.
pub struct StoredLayer<B: Batch> {
    path: PathBuf,
    description: Description<B::Time>,
    len: usize,
}

/// Writes `batch`'s updates to a sorted-run file at `path` and returns the layer
/// handle. Entries are emitted in cursor order (key, then value, then time), with
/// block boundaries only between keys. If a write fails, the partial file is removed.
pub fn spill_batch<B>(batch: &B, path: &Path) -> io::Result<StoredLayer<B>>
where
    B: Batch,
    B::Key: StoreData,
    B::Val: StoreData,
    B::Time: StoreData,
    B::Diff: StoreData,
{
    let writer = RunWriter::create(path, DEFAULT_BLOCK_BYTES)?;
    let len = write_entries(batch, writer).inspect_err(|_| {
        // Best effort: the write error is the one worth reporting.
        let _ = kpg_store::io::remove_file(path);
    })?;
    Ok(StoredLayer {
        path: path.to_path_buf(),
        description: batch.description().clone(),
        len,
    })
}

/// Pushes every update of `batch` into `writer`, finishes the run, and returns the
/// number of entries written.
fn write_entries<B>(batch: &B, mut writer: RunWriter) -> io::Result<usize>
where
    B: Batch,
    B::Key: StoreData,
    B::Val: StoreData,
    B::Time: StoreData,
    B::Diff: StoreData,
{
    let mut cursor = batch.cursor();
    let mut entry = Vec::new();
    let mut len = 0usize;
    let mut updates = Vec::new();
    while cursor.key_valid() {
        let mut key_boundary = true;
        while cursor.val_valid() {
            updates.clear();
            cursor.map_times(|time, diff| updates.push((time.clone(), diff.clone())));
            for (time, diff) in updates.drain(..) {
                entry.clear();
                cursor.key().store(&mut entry);
                cursor.val().store(&mut entry);
                time.store(&mut entry);
                diff.store(&mut entry);
                writer.push(&entry, key_boundary)?;
                key_boundary = false;
                len += 1;
            }
            cursor.step_val();
        }
        cursor.step_key();
    }
    writer.finish()?;
    Ok(len)
}

impl<B: Batch> StoredLayer<B> {
    /// The number of updates in the stored batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the stored batch holds no updates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stored batch's description.
    pub fn description(&self) -> &Description<B::Time> {
        &self.description
    }

    /// The run file backing this layer.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads the whole run back into an in-memory batch.
    ///
    /// A missing, truncated or damaged file is an error, never a panic: the run's own
    /// checks (footer, index and block CRCs) report what they find, and an entry that
    /// does not decode is `InvalidData` naming the file.
    pub fn materialize(&self) -> io::Result<B>
    where
        B::Key: StoreData,
        B::Val: StoreData,
        B::Time: StoreData,
        B::Diff: StoreData,
    {
        let mut reader = RunReader::open(&self.path)?;
        let mut builder = B::Builder::with_capacity(self.len);
        for block in 0..reader.block_count() {
            for entry in reader.read_block(block)? {
                let (key, val, time, diff) = decode_entry(&entry).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}: undecodable entry", self.path.display()),
                    )
                })?;
                builder.push(key, val, time, diff);
            }
        }
        Ok(builder.done(
            self.description.lower().clone(),
            self.description.upper().clone(),
            self.description.since().clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::cursor_to_updates;
    use crate::ord_batch::{OrdValBatch, OrdValBuilder};
    use crate::BatchReader;
    use kpg_timestamp::rng::SmallRng;
    use kpg_timestamp::Antichain;

    type TestBatch = OrdValBatch<u64, u64, u64, isize>;

    fn temp_run_dir(tag: &str) -> PathBuf {
        use kpg_sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("kpg-stored-{tag}-{}-{unique}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A seeded batch of 600 keys, three values per key and three times per value:
    /// 5 400 entries of 36 bytes, about six blocks at the default block size.
    fn seeded_batch(seed: u64) -> TestBatch {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut builder = OrdValBuilder::with_capacity(600 * 3 * 3);
        for key in 0..600u64 {
            for slot in 0..3u64 {
                let val = slot * 1_000 + rng.gen_range(0..1_000u64);
                for time in 0..3u64 {
                    let diff =
                        rng.gen_range(1..4isize) * if rng.gen_range(0..2u32) == 0 { 1 } else { -1 };
                    builder.push(key * 17, val, time, diff);
                }
            }
        }
        builder.done(
            Antichain::from_elem(0),
            Antichain::from_elem(3),
            Antichain::from_elem(0),
        )
    }

    #[test]
    fn spilled_batch_materializes_to_the_same_batch() {
        let batch = seeded_batch(0x5EED_5711);
        let dir = temp_run_dir("round-trip");
        let path = dir.join("layer.run");
        let stored = spill_batch(&batch, &path).unwrap();
        assert!(
            RunReader::open(&path).unwrap().block_count() >= 3,
            "the batch must span several blocks"
        );
        assert_eq!(stored.len(), batch.len());
        assert_eq!(stored.description(), batch.description());
        assert_eq!(stored.path(), path);

        let restored = stored.materialize().unwrap();
        assert_eq!(restored.len(), batch.len());
        assert_eq!(restored.description(), batch.description());
        assert_eq!(
            cursor_to_updates(&mut restored.cursor()),
            cursor_to_updates(&mut batch.cursor())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spilling_into_a_missing_directory_is_an_error() {
        let dir = temp_run_dir("missing");
        let path = dir.join("absent").join("layer.run");
        let Err(error) = spill_batch(&seeded_batch(1), &path) else {
            panic!("spilled into a directory that does not exist");
        };
        assert_eq!(error.kind(), io::ErrorKind::NotFound);
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_truncated_run_does_not_materialize() {
        let dir = temp_run_dir("truncated");
        let path = dir.join("layer.run");
        let stored = spill_batch(&seeded_batch(2), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let error = stored
            .materialize()
            .expect_err("a truncated run materialized");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flipped_block_byte_does_not_materialize() {
        let dir = temp_run_dir("flipped");
        let path = dir.join("layer.run");
        let stored = spill_batch(&seeded_batch(3), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Past the 12-byte header and the first block's 8-byte frame: entry payload.
        bytes[64] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let error = stored
            .materialize()
            .expect_err("a damaged run materialized");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("checksum"), "{error}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_undecodable_entry_is_invalid_data_naming_the_file() {
        let dir = temp_run_dir("undecodable");
        let path = dir.join("layer.run");
        let mut writer = RunWriter::create(&path, DEFAULT_BLOCK_BYTES).unwrap();
        writer.push(b"not an update", true).unwrap();
        writer.finish().unwrap();
        let stored: StoredLayer<TestBatch> = StoredLayer {
            path: path.clone(),
            description: Description::new(
                Antichain::from_elem(0),
                Antichain::from_elem(1),
                Antichain::from_elem(0),
            ),
            len: 1,
        };
        let error = stored.materialize().expect_err("garbage materialized");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        let message = error.to_string();
        assert!(message.contains(&path.display().to_string()), "{message}");
        assert!(message.contains("undecodable"), "{message}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn primitives_round_trip_and_reject_truncation() {
        let mut bytes = Vec::new();
        42u64.store(&mut bytes);
        (-7i64).store(&mut bytes);
        (-9isize).store(&mut bytes);

        let mut pos = 0;
        assert_eq!(u64::load(&bytes, &mut pos), Some(42));
        assert_eq!(i64::load(&bytes, &mut pos), Some(-7));
        assert_eq!(isize::load(&bytes, &mut pos), Some(-9));
        assert_eq!(pos, bytes.len());

        for cut in 0..bytes.len() {
            let short = &bytes[..cut];
            let mut pos = 0;
            let full = (
                u64::load(short, &mut pos),
                i64::load(short, &mut pos),
                isize::load(short, &mut pos),
            );
            assert!(full.2.is_none(), "truncation at {cut} decoded fully");
        }
    }
}
