//! Offline stand-in for the one type of the `bytes` crate the workspace
//! uses: [`Bytes`], the immutable buffer `sekitei-spec`'s encoders return.
//! Encoding and decoding go through `sekitei_model::codec`.

#![allow(clippy::all, clippy::pedantic, clippy::nursery)]
use std::ops::Deref;

/// Immutable byte buffer (stand-in for `bytes::Bytes`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes(Vec<u8>);

impl Bytes {
    /// Copy into a plain vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.clone()
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_the_vector_it_was_built_from() {
        let b = Bytes::from(vec![7, 0xDE, 0xAD]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(&b[..], &[7, 0xDE, 0xAD]);
        assert_eq!(b.as_ref(), b.to_vec().as_slice());
        assert!(Bytes::default().is_empty());
    }
}
