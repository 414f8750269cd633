//! The shared error type for fallible experiment-framework paths.
//!
//! The lint policy (`sgp-xtask lint`, rule `no-panic-in-lib`) forbids
//! `unwrap`/`expect` in library code unless the invariant is locally
//! provable. Paths whose failure depends on the *environment* — env
//! vars, I/O — cannot prove anything locally, so they return `SgpError`
//! instead and the binaries decide how to die.

use std::fmt;

/// An error from the experiment framework.
#[derive(Debug)]
pub enum SgpError {
    /// A configuration input (typically an environment variable) was
    /// present but unparseable.
    Config {
        /// Which knob was misconfigured (e.g. `SGP_SCALE`).
        what: &'static str,
        /// The offending value.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
    /// An I/O failure while reading inputs or writing results.
    Io(std::io::Error),
}

impl fmt::Display for SgpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgpError::Config { what, value, expected } => {
                write!(f, "invalid {what}: `{value}` (expected {expected})")
            }
            SgpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for SgpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SgpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SgpError {
    fn from(e: std::io::Error) -> Self {
        SgpError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SgpError::Config {
            what: "SGP_SCALE",
            value: "huge".into(),
            expected: "tiny|small|default|large",
        };
        let s = e.to_string();
        assert!(s.contains("SGP_SCALE"));
        assert!(s.contains("huge"));
        assert!(s.contains("tiny|small|default|large"));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: SgpError = io.into();
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
