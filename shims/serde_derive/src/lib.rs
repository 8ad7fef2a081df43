//! Empty: nothing in the workspace derives `Serialize` or `Deserialize`.
//! The crate stays, unused, until the next `Cargo.lock` regeneration drops it.
