//! Error type shared by the ISOBAR pipeline.

use isobar_codecs::CodecError;
use std::error::Error;
use std::fmt;

/// Errors produced while compressing or decompressing ISOBAR streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsobarError {
    /// Input length is not a multiple of the element width.
    MisalignedInput {
        /// Input length in bytes.
        len: usize,
        /// Element width in bytes.
        width: usize,
    },
    /// Element width outside the supported 1..=64 range.
    BadWidth(usize),
    /// The container is structurally invalid.
    Corrupt(&'static str),
    /// The container ended prematurely.
    Truncated,
    /// The embedded solver failed to decode its stream.
    Codec(CodecError),
    /// An embedded integrity checksum did not match the bytes it
    /// covers — a chunk, frame, or whole-stream check. The offset
    /// locates the damaged structure (or the checksum field itself for
    /// whole-stream checks) in the container or stream.
    ChecksumMismatch {
        /// Byte offset of the structure that failed verification.
        offset: u64,
        /// The checksum the container claims.
        expected: u64,
        /// The checksum computed over the actual bytes.
        actual: u64,
    },
    /// A format this build no longer reads, refused by name: the
    /// `ISBS` stream framing or a version-1 (checksum-less) container.
    Retired(&'static str),
    /// An underlying error, located at a byte offset in the input.
    At {
        /// Byte offset (from the start of the container or stream) of
        /// the structure that failed to parse.
        offset: u64,
        /// The underlying error.
        source: Box<IsobarError>,
    },
}

impl IsobarError {
    /// Attach a byte offset to this error. Errors that already carry an
    /// offset are returned unchanged — the innermost (first-attached)
    /// location is the most precise one.
    pub fn at(self, offset: u64) -> IsobarError {
        match self {
            e @ IsobarError::At { .. } => e,
            // Checksum mismatches are born with their own (more
            // precise) location; a refusal has none.
            e @ (IsobarError::ChecksumMismatch { .. } | IsobarError::Retired(_)) => e,
            e => IsobarError::At {
                offset,
                source: Box::new(e),
            },
        }
    }

    /// Whether this error (possibly behind [`IsobarError::At`]) is a
    /// checksum mismatch — the signal telemetry counts separately from
    /// structural corruption.
    pub fn is_checksum_mismatch(&self) -> bool {
        match self {
            IsobarError::ChecksumMismatch { .. } => true,
            IsobarError::At { source, .. } => source.is_checksum_mismatch(),
            _ => false,
        }
    }
}

impl fmt::Display for IsobarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsobarError::MisalignedInput { len, width } => {
                write!(
                    f,
                    "input of {len} bytes is not a multiple of element width {width}"
                )
            }
            IsobarError::BadWidth(w) => write!(f, "unsupported element width {w}"),
            IsobarError::Corrupt(what) => write!(f, "corrupt ISOBAR container: {what}"),
            IsobarError::Truncated => write!(f, "truncated ISOBAR container"),
            IsobarError::Codec(e) => write!(f, "solver error: {e}"),
            IsobarError::ChecksumMismatch {
                offset,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch at byte offset {offset}: \
                 stored {expected:#018x}, computed {actual:#018x}"
            ),
            IsobarError::Retired(what) => write!(f, "{what} is no longer supported"),
            IsobarError::At { offset, source } => {
                write!(f, "at byte offset {offset}: {source}")
            }
        }
    }
}

impl Error for IsobarError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IsobarError::Codec(e) => Some(e),
            IsobarError::At { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<CodecError> for IsobarError {
    fn from(e: CodecError) -> Self {
        IsobarError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        let e = IsobarError::MisalignedInput { len: 10, width: 8 };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("8"));
        assert!(IsobarError::Truncated.to_string().contains("truncated"));
    }

    #[test]
    fn at_wraps_once_and_reports_offset() {
        let e = IsobarError::Truncated.at(28);
        assert!(e.to_string().contains("offset 28"));
        assert!(Error::source(&e).is_some());
        // Re-attaching keeps the innermost (most precise) offset.
        let e = e.at(999);
        assert!(e.to_string().contains("offset 28"));
    }

    #[test]
    fn checksum_mismatch_keeps_its_own_offset() {
        let e = IsobarError::ChecksumMismatch {
            offset: 42,
            expected: 1,
            actual: 2,
        };
        assert!(e.is_checksum_mismatch());
        // at() must not bury the precise location under a wrapper.
        let e = e.at(999);
        assert!(matches!(
            e,
            IsobarError::ChecksumMismatch { offset: 42, .. }
        ));
        // ...and detection sees through an At wrapper.
        let wrapped = IsobarError::At {
            offset: 7,
            source: Box::new(IsobarError::ChecksumMismatch {
                offset: 7,
                expected: 0,
                actual: 1,
            }),
        };
        assert!(wrapped.is_checksum_mismatch());
        assert!(!IsobarError::Truncated.is_checksum_mismatch());
    }

    #[test]
    fn codec_errors_are_wrapped_with_source() {
        let e: IsobarError = CodecError::UnexpectedEof.into();
        assert!(matches!(e, IsobarError::Codec(_)));
        assert!(Error::source(&e).is_some());
    }
}
