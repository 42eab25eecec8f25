//! Engine error types.

use std::fmt;

/// Convenience alias for engine results.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Errors produced by the engine substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A referenced table does not exist in the catalog.
    TableNotFound {
        /// Name of the missing table.
        name: String,
    },
    /// A table with this name already exists.
    TableAlreadyExists {
        /// Name of the conflicting table.
        name: String,
    },
    /// A referenced column does not exist in the schema.
    ColumnNotFound {
        /// Name of the missing column.
        name: String,
    },
    /// A value had an unexpected type for the target column or operation.
    TypeMismatch {
        /// What was expected.
        expected: &'static str,
        /// What was found.
        found: String,
    },
    /// A row's arity does not match the table schema.
    ArityMismatch {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of values in the row.
        found: usize,
    },
    /// The requested number of segments is invalid (must be ≥ 1).
    InvalidSegmentCount {
        /// The requested count.
        requested: usize,
    },
    /// An aggregate or iteration reported a domain-specific failure.
    AggregateError {
        /// Description of the failure.
        message: String,
    },
    /// Invalid argument supplied to an engine API.
    InvalidArgument {
        /// Description of the problem.
        message: String,
    },
    /// A segment worker thread panicked.  The scan fan-out catches the panic
    /// and surfaces it as an error instead of aborting the coordinator.
    WorkerPanicked {
        /// The panic payload's message, when one was available.
        message: String,
    },
    /// A referenced model does not exist in the model catalog — either no
    /// entry under the name at all, or (for grouped registries) no model for
    /// the requested group key.
    ModelNotFound {
        /// Name of the missing model (catalog entry).
        name: String,
        /// The group key that had no model, rendered for display; `None`
        /// when the name itself was missing.
        group: Option<String>,
    },
    /// A [`crate::Scorer`] appended a number of predictions other than the
    /// rows of the chunk it was given, which would misalign every
    /// prediction after it.
    PredictionCount {
        /// Rows in the chunk.
        rows: usize,
        /// Predictions the scorer appended for it.
        predictions: usize,
    },
    /// A durable-storage operation failed: an I/O error on the WAL, snapshot
    /// or manifest files, or on-disk corruption detected during recovery.
    Storage {
        /// Description of the failure (operation context plus the underlying
        /// I/O or corruption detail).
        message: String,
    },
}

impl EngineError {
    /// Helper for constructing [`EngineError::AggregateError`] from anything
    /// displayable.
    pub fn aggregate<E: fmt::Display>(err: E) -> Self {
        EngineError::AggregateError {
            message: err.to_string(),
        }
    }

    /// Helper for constructing [`EngineError::InvalidArgument`].
    pub fn invalid<E: fmt::Display>(err: E) -> Self {
        EngineError::InvalidArgument {
            message: err.to_string(),
        }
    }

    /// Helper for constructing [`EngineError::Storage`] with operation
    /// context prepended to the underlying failure.
    pub fn storage<E: fmt::Display>(context: &str, err: E) -> Self {
        EngineError::Storage {
            message: format!("{context}: {err}"),
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::TableNotFound { name } => write!(f, "table not found: {name}"),
            EngineError::TableAlreadyExists { name } => {
                write!(f, "table already exists: {name}")
            }
            EngineError::ColumnNotFound { name } => write!(f, "column not found: {name}"),
            EngineError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            EngineError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "arity mismatch: schema has {expected} columns, row has {found}"
                )
            }
            EngineError::InvalidSegmentCount { requested } => {
                write!(f, "invalid segment count: {requested}")
            }
            EngineError::AggregateError { message } => write!(f, "aggregate error: {message}"),
            EngineError::InvalidArgument { message } => write!(f, "invalid argument: {message}"),
            EngineError::WorkerPanicked { message } => {
                write!(f, "segment worker panicked: {message}")
            }
            EngineError::ModelNotFound { name, group } => match group {
                Some(group) => write!(f, "model not found: {name} has no model for group {group}"),
                None => write!(f, "model not found: {name}"),
            },
            EngineError::PredictionCount { rows, predictions } => write!(
                f,
                "scorer appended {predictions} predictions for a chunk of {rows} rows"
            ),
            EngineError::Storage { message } => write!(f, "storage error: {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_details() {
        assert!(EngineError::TableNotFound {
            name: "points".into()
        }
        .to_string()
        .contains("points"));
        assert!(EngineError::ArityMismatch {
            expected: 3,
            found: 2
        }
        .to_string()
        .contains('3'));
        assert!(EngineError::aggregate("bad state")
            .to_string()
            .contains("bad state"));
        assert!(EngineError::invalid("k must be > 0")
            .to_string()
            .contains("k must be"));
    }
}
