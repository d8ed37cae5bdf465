//! Little-endian primitive framing shared by the WAL and run formats.
//!
//! Readers are *total*: they return `None` on truncation instead of panicking, which
//! is what lets recovery code treat any undecodable suffix as a torn tail.

/// Appends a `u32` little-endian.
pub fn put_u32(bytes: &mut Vec<u8>, value: u32) {
    bytes.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(bytes: &mut Vec<u8>, value: u64) {
    bytes.extend_from_slice(&value.to_le_bytes());
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(bytes: &mut Vec<u8>, payload: &[u8]) {
    put_u32(bytes, payload.len() as u32);
    bytes.extend_from_slice(payload);
}

/// Reads a `u32` little-endian at `*pos`, advancing it.
pub fn get_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let slice = bytes.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes(slice.try_into().expect("4-byte slice")))
}

/// Reads a `u64` little-endian at `*pos`, advancing it.
pub fn get_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let slice = bytes.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes(slice.try_into().expect("8-byte slice")))
}

/// Reads a length-prefixed byte string at `*pos`, advancing it.
pub fn get_bytes(bytes: &[u8], pos: &mut usize) -> Option<Vec<u8>> {
    let length = get_u32(bytes, pos)? as usize;
    let slice = bytes.get(*pos..*pos + length)?;
    *pos += length;
    Some(slice.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_rejects_truncation() {
        let mut buffer = Vec::new();
        put_u32(&mut buffer, 7);
        put_u64(&mut buffer, u64::MAX - 3);
        put_bytes(&mut buffer, b"payload");
        let mut pos = 0;
        assert_eq!(get_u32(&buffer, &mut pos), Some(7));
        assert_eq!(get_u64(&buffer, &mut pos), Some(u64::MAX - 3));
        assert_eq!(get_bytes(&buffer, &mut pos), Some(b"payload".to_vec()));
        assert_eq!(pos, buffer.len());
        for cut in 0..buffer.len() {
            let mut pos = 0;
            let short = &buffer[..cut];
            let decoded = (
                get_u32(short, &mut pos),
                get_u64(short, &mut pos),
                get_bytes(short, &mut pos),
            );
            assert!(
                decoded.2.is_none(),
                "truncation at {cut} still decoded fully: {decoded:?}"
            );
        }
    }
}
