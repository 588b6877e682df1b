//! Stand-in for the one `bytes` type the store uses: a cheaply clonable,
//! immutable byte buffer.

use std::ops::Deref;
use std::sync::Arc;

/// Reference-counted immutable bytes; `clone` shares the allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes(Arc::from(data))
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes(Arc::from(v))
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}
