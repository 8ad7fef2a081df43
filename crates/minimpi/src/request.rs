//! Nonblocking-operation requests (`MPI_Request` equivalents).

use crate::datatype::MpiType;
use crate::p2p::Tag;

/// Handle for a pending nonblocking operation, completed by
/// [`crate::Communicator::wait`] or [`crate::Communicator::waitall`].
///
/// Send requests are already complete when created (sends are eager and
/// buffered); receive requests perform their matching at wait time.
#[derive(Debug)]
pub enum Request<T: MpiType> {
    /// A completed nonblocking send.
    Send {
        /// Destination (communicator-local), kept for diagnostics.
        dest: usize,
        /// Message tag.
        tag: Tag,
        /// Marker for the element type.
        _marker: std::marker::PhantomData<T>,
    },
    /// A pending nonblocking receive.
    Recv {
        /// Source filter (`None` = any source).
        src: Option<usize>,
        /// Tag filter (`None` = any tag).
        tag: Option<Tag>,
    },
}

impl<T: MpiType> Request<T> {
    /// Creates a (completed) send request.
    pub fn send(dest: usize, tag: Tag) -> Self {
        Request::Send {
            dest,
            tag,
            _marker: std::marker::PhantomData,
        }
    }

    /// Creates a pending receive request.
    pub fn recv(src: Option<usize>, tag: Option<Tag>) -> Self {
        Request::Recv { src, tag }
    }

    /// Whether this is a receive request.
    pub fn is_recv(&self) -> bool {
        matches!(self, Request::Recv { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let s: Request<f64> = Request::send(3, 7);
        assert!(!s.is_recv());
        let r: Request<f64> = Request::recv(Some(1), None);
        assert!(r.is_recv());
    }
}
