//! Error types for NPD-index construction and querying.

use std::fmt;

use bytes::{Buf, BufMut};

use disks_roadnet::codec::{Decode, Encode};
use disks_roadnet::{DecodeError, NodeId};

/// Errors raised while building or loading an NPD-index.
#[derive(Debug)]
pub enum IndexError {
    /// A shortcut distance overflowed the fragment-graph weight width.
    WeightOverflow { distance: u64 },
    /// Binary decoding of a persisted index failed.
    Decode(DecodeError),
    /// The persisted index does not match the partitioning it is loaded for.
    FragmentMismatch { expected: u32, found: u32 },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::WeightOverflow { distance } => {
                write!(f, "shortcut distance {distance} exceeds the u32 weight width")
            }
            IndexError::Decode(e) => write!(f, "index decode error: {e}"),
            IndexError::FragmentMismatch { expected, found } => {
                write!(f, "index is for fragment {found}, expected {expected}")
            }
            IndexError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Decode(e) => Some(e),
            IndexError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for IndexError {
    fn from(e: DecodeError) -> Self {
        IndexError::Decode(e)
    }
}

impl From<std::io::Error> for IndexError {
    fn from(e: std::io::Error) -> Self {
        IndexError::Io(e)
    }
}

/// Errors raised at query time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query radius exceeds the index `maxR` (route through a
    /// [`crate::BiLevelIndex`] instead, §5.5).
    RadiusExceedsMaxR { r: u64, max_r: u64 },
    /// A D-function with no terms.
    EmptyQuery,
    /// A `Term::Node` query location that the DL component does not index
    /// (it is neither in this fragment nor an indexed external node under
    /// the configured [`crate::DlScope`]).
    UnindexedQueryLocation(NodeId),
    /// Engine materialization failed (e.g. a shortcut weight overflow) while
    /// serving the query.
    Engine(String),
    /// A worker panicked while evaluating the task (caught by the worker
    /// supervisor and shipped back typed). Fragment tasks are stateless, so
    /// the coordinator may retry.
    WorkerPanic(String),
    /// The listed fragments never answered within the configured deadline,
    /// across `attempts` dispatch attempts.
    WorkerTimeout { fragments: Vec<u32>, attempts: u32 },
    /// Admission control shed the query before dispatch: its estimated cost
    /// would push some worker past the configured in-flight budget. The
    /// client should back off for at least `retry_after_millis` (grows
    /// monotonically with the measured pressure at shed time). Shedding
    /// happens coordinator-side, so a shed query costs zero wire bytes.
    Overloaded { retry_after_millis: u64 },
}

impl QueryError {
    /// Whether re-dispatching the same fragment task can plausibly succeed.
    ///
    /// Fragment tasks are stateless and idempotent, so transient failures
    /// (a panicking or stalled worker) are retryable; semantic rejections
    /// (radius over `maxR`, empty query, unindexed location) are
    /// deterministic and retrying them is futile. `Overloaded` is not
    /// *immediately* retryable — the same submission would be shed again;
    /// the client must wait out `retry_after_millis` first.
    pub fn is_retryable(&self) -> bool {
        matches!(self, QueryError::WorkerPanic(_) | QueryError::WorkerTimeout { .. })
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::RadiusExceedsMaxR { r, max_r } => {
                write!(f, "query radius {r} exceeds index maxR {max_r}")
            }
            QueryError::EmptyQuery => write!(f, "query has no terms"),
            QueryError::UnindexedQueryLocation(n) => {
                write!(f, "query location {n} is not indexed by the DL component")
            }
            QueryError::Engine(msg) => write!(f, "engine error: {msg}"),
            QueryError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            QueryError::WorkerTimeout { fragments, attempts } => {
                write!(f, "fragments {fragments:?} unresponsive after {attempts} attempts")
            }
            QueryError::Overloaded { retry_after_millis } => {
                write!(f, "cluster overloaded; retry after {retry_after_millis}ms")
            }
        }
    }
}

impl std::error::Error for QueryError {}

// Wire codec for `QueryError` so `Response::Failed` carries the typed error
// end-to-end instead of a display string the coordinator would have to sniff.
impl Encode for QueryError {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            QueryError::RadiusExceedsMaxR { r, max_r } => {
                0u8.encode(buf);
                r.encode(buf);
                max_r.encode(buf);
            }
            QueryError::EmptyQuery => 1u8.encode(buf),
            QueryError::UnindexedQueryLocation(n) => {
                2u8.encode(buf);
                n.encode(buf);
            }
            QueryError::Engine(msg) => {
                3u8.encode(buf);
                msg.encode(buf);
            }
            QueryError::WorkerPanic(msg) => {
                4u8.encode(buf);
                msg.encode(buf);
            }
            QueryError::WorkerTimeout { fragments, attempts } => {
                5u8.encode(buf);
                fragments.encode(buf);
                attempts.encode(buf);
            }
            QueryError::Overloaded { retry_after_millis } => {
                6u8.encode(buf);
                retry_after_millis.encode(buf);
            }
        }
    }
}
impl Decode for QueryError {
    fn decode(buf: &mut impl Buf) -> Result<Self, DecodeError> {
        match u8::decode(buf)? {
            0 => {
                Ok(QueryError::RadiusExceedsMaxR { r: u64::decode(buf)?, max_r: u64::decode(buf)? })
            }
            1 => Ok(QueryError::EmptyQuery),
            2 => Ok(QueryError::UnindexedQueryLocation(NodeId::decode(buf)?)),
            3 => Ok(QueryError::Engine(String::decode(buf)?)),
            4 => Ok(QueryError::WorkerPanic(String::decode(buf)?)),
            5 => Ok(QueryError::WorkerTimeout {
                fragments: Vec::decode(buf)?,
                attempts: u32::decode(buf)?,
            }),
            6 => Ok(QueryError::Overloaded { retry_after_millis: u64::decode(buf)? }),
            // 7 is retired (an earlier build's slot-reference NACK), not
            // reused.
            tag => Err(DecodeError::BadTag { context: "QueryError", tag }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn query_error_round_trips() {
        let cases = vec![
            QueryError::RadiusExceedsMaxR { r: 77, max_r: 42 },
            QueryError::EmptyQuery,
            QueryError::UnindexedQueryLocation(NodeId(9)),
            QueryError::Engine("overflow".into()),
            QueryError::WorkerPanic("index out of bounds".into()),
            QueryError::WorkerTimeout { fragments: vec![1, 3], attempts: 3 },
            QueryError::Overloaded { retry_after_millis: 12 },
        ];
        for e in cases {
            let mut buf = BytesMut::new();
            e.encode(&mut buf);
            let mut bytes = buf.freeze();
            assert_eq!(QueryError::decode(&mut bytes).unwrap(), e);
            assert!(!bytes.has_remaining(), "full consumption for {e}");
        }
        // A retired tag stays unassigned.
        assert_eq!(
            QueryError::decode(&mut &[7u8, 0, 0, 0, 0][..]),
            Err(DecodeError::BadTag { context: "QueryError", tag: 7 })
        );
    }

    #[test]
    fn retryability_classification() {
        assert!(QueryError::WorkerPanic("x".into()).is_retryable());
        assert!(QueryError::WorkerTimeout { fragments: vec![0], attempts: 1 }.is_retryable());
        assert!(!QueryError::EmptyQuery.is_retryable());
        assert!(!QueryError::RadiusExceedsMaxR { r: 2, max_r: 1 }.is_retryable());
        assert!(!QueryError::Engine("x".into()).is_retryable());
        assert!(!QueryError::Overloaded { retry_after_millis: 5 }.is_retryable());
    }
}
