//! Offline shim for the `bytes` crate: the subset of `Bytes`, `BytesMut`,
//! `Buf` and `BufMut` that this workspace uses, implemented over
//! `Arc<Vec<u8>>` / `Vec<u8>`. The build environment has no crates.io
//! access, so the real crate cannot be fetched.

use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, immutable byte buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
}

impl Bytes {
    /// Copies a slice into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data)
    }

    /// Copies the bytes into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.as_ref().clone()
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: Arc::new(v) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes {
            data: Arc::new(v.to_vec()),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Clears the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Reserves capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Write-side trait: little-endian putters used by the trace writer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, n: u32) {
        self.put_slice(&n.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, n: u64) {
        self.put_slice(&n.to_le_bytes());
    }

    /// Appends a little-endian `i32`.
    fn put_i32_le(&mut self, n: i32) {
        self.put_slice(&n.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, n: i64) {
        self.put_slice(&n.to_le_bytes());
    }

    /// Appends `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Read-side trait: little-endian getters used by the trace reader.
///
/// Like the real `bytes::Buf`, getters panic when the buffer is too short;
/// callers bounds-check first (see `pythia-core::trace::take`).
pub trait Buf {
    /// Consumes and returns the next `n` bytes.
    fn take_bytes(&mut self, n: usize) -> &[u8];

    /// Consumes a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take_bytes(4).try_into().unwrap())
    }

    /// Consumes a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_bytes(8).try_into().unwrap())
    }

    /// Consumes a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        i64::from_le_bytes(self.take_bytes(8).try_into().unwrap())
    }
}

impl Buf for &[u8] {
    #[inline]
    fn take_bytes(&mut self, n: usize) -> &[u8] {
        let (head, tail) = self.split_at(n);
        *self = tail;
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(42);
        buf.put_i64_le(-9);
        buf.put_slice(b"xyz");
        let frozen = buf.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 42);
        assert_eq!(r.get_i64_le(), -9);
        assert_eq!(r, b"xyz");
    }

    #[test]
    fn bytes_clone_shares() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(&*b, &*c);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
    }
}
