//! An offline, in-workspace stand-in for the `bytes` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the small slice of the `bytes` 1.x API the wire
//! encoders use: [`Bytes`], [`BytesMut`], and the [`Buf`]/[`BufMut`]
//! cursor traits. Backing storage is a plain `Vec<u8>` — zero-copy
//! sharing is irrelevant at simulation scale; only the API shape matters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Deref;

/// An immutable byte buffer (the product of [`BytesMut::freeze`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bytes {
    data: Vec<u8>,
}

impl Bytes {
    /// Copies the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        Bytes { data }
    }
}

/// A growable byte buffer with little-endian put methods.
#[derive(Debug, Clone, Default)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data }
    }

    /// Copies the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Write-cursor operations (little-endian, mirroring `bytes::BufMut`).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends `count` copies of `val`.
    fn put_bytes(&mut self, val: u8, count: usize) {
        for _ in 0..count {
            self.put_slice(&[val]);
        }
    }

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian u16.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian i32.
    fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian i64.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, count: usize) {
        self.data.resize(self.data.len() + count, val);
    }
}

/// Read-cursor operations (little-endian, mirroring `bytes::Buf`).
///
/// # Panics
///
/// All getters panic when fewer than the required bytes remain, exactly
/// like the real crate; decoders guard with [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Copies `dst.len()` bytes out, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Skips `n` bytes.
    fn advance(&mut self, n: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian u16.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian u32.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian u64.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian i32.
    fn get_i32_le(&mut self) -> i32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        i32::from_le_bytes(b)
    }

    /// Reads a little-endian i64.
    fn get_i64_le(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_le_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "buffer underflow");
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "buffer underflow");
        *self = &self[n..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(0xAB);
        buf.put_u16_le(0x1234);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(0x0102_0304_0506_0708);
        buf.put_i32_le(-7);
        buf.put_i64_le(-9);
        buf.put_slice(&[1, 2, 3]);
        buf.put_bytes(0xFF, 2);
        let frozen = buf.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u16_le(), 0x1234);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), 0x0102_0304_0506_0708);
        assert_eq!(r.get_i32_le(), -7);
        assert_eq!(r.get_i64_le(), -9);
        let mut three = [0u8; 3];
        r.copy_to_slice(&mut three);
        assert_eq!(three, [1, 2, 3]);
        r.advance(1);
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.get_u8(), 0xFF);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bytes_derefs_to_slice() {
        let b: Bytes = vec![1u8, 2, 3].into();
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..2], &[1, 2]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
    }
}
