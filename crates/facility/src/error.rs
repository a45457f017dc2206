use std::error::Error;
use std::fmt;

/// Errors from facility-location problem construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum FacilityError {
    /// Assignment rows have inconsistent lengths.
    RaggedAssignment {
        /// Expected row length (clients).
        expected: usize,
        /// Offending row length.
        actual: usize,
        /// Index of the offending facility row.
        facility: usize,
    },
    /// An opening or assignment cost was NaN or negative.
    InvalidCost {
        /// The offending value.
        value: f64,
    },
    /// Opening-cost vector length does not match the assignment rows.
    CostCountMismatch {
        /// Number of opening costs supplied.
        costs: usize,
        /// Number of facilities in the assignment matrix.
        facilities: usize,
    },
    /// A row-major assignment buffer does not hold `facilities × clients`
    /// entries.
    FlatLengthMismatch {
        /// `facilities × clients`.
        expected: usize,
        /// Length of the supplied buffer.
        actual: usize,
    },
    /// The instance exceeds the enumeration solver's facility limit.
    TooManyFacilities {
        /// Facility count of the instance.
        facilities: usize,
        /// Solver limit.
        limit: usize,
    },
}

impl fmt::Display for FacilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FacilityError::RaggedAssignment {
                expected,
                actual,
                facility,
            } => write!(
                f,
                "assignment row for facility {facility} has {actual} entries, expected {expected}"
            ),
            FacilityError::InvalidCost { value } => {
                write!(f, "cost {value} is not a non-negative number")
            }
            FacilityError::CostCountMismatch { costs, facilities } => {
                write!(
                    f,
                    "{costs} opening costs supplied for {facilities} facilities"
                )
            }
            FacilityError::FlatLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "assignment buffer has {actual} entries, expected {expected}"
                )
            }
            FacilityError::TooManyFacilities { facilities, limit } => {
                write!(
                    f,
                    "instance has {facilities} facilities, enumeration limit is {limit}"
                )
            }
        }
    }
}

impl Error for FacilityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_key_numbers() {
        let e = FacilityError::TooManyFacilities {
            facilities: 30,
            limit: 24,
        };
        assert!(e.to_string().contains("30"));
        assert!(e.to_string().contains("24"));
    }
}
