//! Store error type.

use isobar::IsobarError;
use std::error::Error;
use std::fmt;
use std::io;

/// Errors produced by the checkpoint store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The file is not a store, or its structure is damaged.
    Corrupt(&'static str),
    /// A requested `(step, variable)` pair does not exist.
    NotFound {
        /// Requested time step.
        step: u32,
        /// Requested variable name.
        name: String,
    },
    /// The embedded ISOBAR container failed to decode.
    Isobar(IsobarError),
    /// An embedded integrity checksum did not match the bytes it
    /// covers — a stored container or the index region.
    ChecksumMismatch {
        /// File offset of the structure that failed verification.
        offset: u64,
        /// The checksum the store claims.
        expected: u64,
        /// The checksum computed over the actual bytes.
        actual: u64,
    },
    /// A variable name exceeds the 64 KiB format limit.
    NameTooLong(usize),
    /// The path is a regular file carrying the retired single-file
    /// (v1/v2) store magic; only store directories are supported.
    SingleFileUnsupported,
}

impl StoreError {
    /// Whether this error is an integrity-checksum mismatch — damage
    /// detection, as opposed to structural corruption or I/O failure.
    pub fn is_checksum_mismatch(&self) -> bool {
        matches!(self, StoreError::ChecksumMismatch { .. })
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(what) => write!(f, "corrupt store: {what}"),
            StoreError::NotFound { step, name } => {
                write!(f, "no variable '{name}' at step {step}")
            }
            StoreError::Isobar(e) => write!(f, "store payload error: {e}"),
            StoreError::ChecksumMismatch {
                offset,
                expected,
                actual,
            } => write!(
                f,
                "store checksum mismatch at byte offset {offset}: \
                 stored {expected:#018x}, computed {actual:#018x}"
            ),
            StoreError::NameTooLong(len) => {
                write!(
                    f,
                    "variable name of {len} bytes exceeds the 65535-byte limit"
                )
            }
            StoreError::SingleFileUnsupported => {
                write!(f, "single-file (v1/v2) stores are no longer supported")
            }
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Isobar(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<IsobarError> for StoreError {
    fn from(e: IsobarError) -> Self {
        StoreError::Isobar(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StoreError::NotFound {
            step: 7,
            name: "density".into(),
        };
        assert!(e.to_string().contains("density"));
        assert!(e.to_string().contains('7'));
        assert!(StoreError::NameTooLong(70_000)
            .to_string()
            .contains("70000"));
    }

    #[test]
    fn checksum_mismatch_is_detectable_and_descriptive() {
        let e = StoreError::ChecksumMismatch {
            offset: 42,
            expected: 1,
            actual: 2,
        };
        assert!(e.is_checksum_mismatch());
        assert!(e.to_string().contains("offset 42"));
        assert!(!StoreError::Corrupt("x").is_checksum_mismatch());
    }

    #[test]
    fn sources_are_chained() {
        let e: StoreError = IsobarError::Truncated.into();
        assert!(Error::source(&e).is_some());
        let e: StoreError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(Error::source(&e).is_some());
    }
}
