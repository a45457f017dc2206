use crate::FacilityError;

/// An uncapacitated facility location instance.
///
/// `F` facilities with individual opening costs, `C` clients with an
/// `F × C` assignment-cost matrix. Assignment costs may be
/// `f64::INFINITY` (facility cannot serve that client); opening costs must
/// be finite.
#[derive(Debug, Clone, PartialEq)]
pub struct FacilityProblem {
    open_costs: Vec<f64>,
    /// Row-major, one contiguous buffer: `a(f, c)` is at `f · C + c`.
    assignment: Vec<f64>,
    clients: usize,
}

/// A set of open facilities together with its total cost.
///
/// `open` is sorted ascending. `cost` is `f64::INFINITY` when some client
/// cannot be served by any open facility (including the empty set with at
/// least one client).
#[derive(Debug, Clone, PartialEq)]
pub struct FacilitySolution {
    /// Indices of open facilities, sorted ascending.
    pub open: Vec<usize>,
    /// Total cost: opening costs plus per-client best assignment.
    pub cost: f64,
}

impl FacilityProblem {
    /// Creates an instance with per-facility opening costs.
    ///
    /// # Errors
    ///
    /// * [`FacilityError::CostCountMismatch`] if `open_costs.len()` differs
    ///   from the number of assignment rows;
    /// * [`FacilityError::RaggedAssignment`] if rows differ in length;
    /// * [`FacilityError::InvalidCost`] if any opening cost is not finite
    ///   non-negative, or any assignment cost is NaN or negative
    ///   (assignment costs may be `+∞`).
    pub fn new(open_costs: Vec<f64>, assignment: Vec<Vec<f64>>) -> Result<Self, FacilityError> {
        if open_costs.len() != assignment.len() {
            return Err(FacilityError::CostCountMismatch {
                costs: open_costs.len(),
                facilities: assignment.len(),
            });
        }
        let clients = assignment.first().map_or(0, Vec::len);
        let mut flat = Vec::with_capacity(assignment.len() * clients);
        for (fi, row) in assignment.iter().enumerate() {
            if row.len() != clients {
                return Err(FacilityError::RaggedAssignment {
                    expected: clients,
                    actual: row.len(),
                    facility: fi,
                });
            }
            flat.extend_from_slice(row);
        }
        FacilityProblem::from_flat(open_costs, clients, flat)
    }

    /// Creates an instance from a row-major assignment buffer: facility
    /// `f`'s row is `assignment[f · clients .. (f + 1) · clients]`, so a
    /// caller that builds the matrix row by row (the best-response
    /// reduction) needs no allocation per row.
    ///
    /// # Errors
    ///
    /// * [`FacilityError::FlatLengthMismatch`] if `assignment.len()` is
    ///   not `open_costs.len() · clients`;
    /// * [`FacilityError::InvalidCost`] under the same conditions as
    ///   [`FacilityProblem::new`].
    pub fn from_flat(
        open_costs: Vec<f64>,
        clients: usize,
        assignment: Vec<f64>,
    ) -> Result<Self, FacilityError> {
        if open_costs.len().checked_mul(clients) != Some(assignment.len()) {
            return Err(FacilityError::FlatLengthMismatch {
                expected: open_costs.len().saturating_mul(clients),
                actual: assignment.len(),
            });
        }
        for &a in &assignment {
            if a.is_nan() || a < 0.0 {
                return Err(FacilityError::InvalidCost { value: a });
            }
        }
        for &c in &open_costs {
            if !c.is_finite() || c < 0.0 {
                return Err(FacilityError::InvalidCost { value: c });
            }
        }
        Ok(FacilityProblem {
            open_costs,
            assignment,
            clients,
        })
    }

    /// Creates an instance where every facility costs `open_cost` to open —
    /// the shape produced by the selfish-peers best-response reduction
    /// (opening cost `α` per link).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FacilityProblem::new`].
    pub fn with_uniform_open_cost(
        open_cost: f64,
        assignment: Vec<Vec<f64>>,
    ) -> Result<Self, FacilityError> {
        let f = assignment.len();
        FacilityProblem::new(vec![open_cost; f], assignment)
    }

    /// Number of facilities.
    #[must_use]
    pub fn facility_count(&self) -> usize {
        self.open_costs.len()
    }

    /// Number of clients.
    #[must_use]
    pub fn client_count(&self) -> usize {
        self.clients
    }

    /// Opening cost of facility `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of bounds.
    #[must_use]
    pub fn open_cost(&self, f: usize) -> f64 {
        self.open_costs[f]
    }

    /// Assignment cost of serving client `c` from facility `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` or `c` is out of bounds.
    #[must_use]
    pub fn assignment_cost(&self, f: usize, c: usize) -> f64 {
        self.assignment_row(f)[c]
    }

    /// The assignment-cost row of facility `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of bounds.
    #[must_use]
    pub fn assignment_row(&self, f: usize) -> &[f64] {
        assert!(f < self.facility_count(), "facility {f} out of bounds");
        &self.assignment[f * self.clients..(f + 1) * self.clients]
    }

    /// Total cost of opening exactly the facilities in `open`.
    ///
    /// Duplicate indices are counted once. Returns `f64::INFINITY` when a
    /// client has no serving facility.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn cost_of(&self, open: &[usize]) -> f64 {
        let mut mask = vec![false; self.facility_count()];
        let mut total = 0.0;
        for &f in open {
            if !mask[f] {
                mask[f] = true;
                total += self.open_costs[f];
            }
        }
        for c in 0..self.clients {
            let mut best = f64::INFINITY;
            for (f, &is_open) in mask.iter().enumerate() {
                if is_open {
                    let a = self.assignment[f * self.clients + c];
                    if a < best {
                        best = a;
                    }
                }
            }
            total += best;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FacilityProblem {
        FacilityProblem::with_uniform_open_cost(2.0, vec![vec![1.0, 5.0], vec![5.0, 1.0]]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let p = tiny();
        assert_eq!(p.facility_count(), 2);
        assert_eq!(p.client_count(), 2);
        assert_eq!(p.open_cost(1), 2.0);
        assert_eq!(p.assignment_cost(0, 1), 5.0);
        assert_eq!(p.assignment_row(1), &[5.0, 1.0]);
    }

    #[test]
    fn cost_of_subsets() {
        let p = tiny();
        assert_eq!(p.cost_of(&[]), f64::INFINITY);
        assert_eq!(p.cost_of(&[0]), 2.0 + 1.0 + 5.0);
        assert_eq!(p.cost_of(&[0, 1]), 4.0 + 1.0 + 1.0);
        // Duplicates counted once.
        assert_eq!(p.cost_of(&[0, 0]), p.cost_of(&[0]));
    }

    #[test]
    fn empty_clients_cost_is_open_costs_only() {
        let p = FacilityProblem::new(vec![3.0, 4.0], vec![vec![], vec![]]).unwrap();
        assert_eq!(p.client_count(), 0);
        assert_eq!(p.cost_of(&[]), 0.0);
        assert_eq!(p.cost_of(&[1]), 4.0);
    }

    #[test]
    fn rejects_ragged_rows() {
        let r = FacilityProblem::with_uniform_open_cost(1.0, vec![vec![1.0], vec![1.0, 2.0]]);
        assert!(matches!(
            r,
            Err(FacilityError::RaggedAssignment { facility: 1, .. })
        ));
    }

    #[test]
    fn rejects_bad_costs() {
        assert!(matches!(
            FacilityProblem::with_uniform_open_cost(f64::NAN, vec![vec![1.0]]),
            Err(FacilityError::InvalidCost { .. })
        ));
        assert!(matches!(
            FacilityProblem::with_uniform_open_cost(1.0, vec![vec![-0.5]]),
            Err(FacilityError::InvalidCost { .. })
        ));
        assert!(matches!(
            FacilityProblem::with_uniform_open_cost(f64::INFINITY, vec![vec![1.0]]),
            Err(FacilityError::InvalidCost { .. })
        ));
        // Infinite assignment costs are allowed.
        assert!(FacilityProblem::with_uniform_open_cost(1.0, vec![vec![f64::INFINITY]]).is_ok());
    }

    #[test]
    fn rejects_cost_count_mismatch() {
        let r = FacilityProblem::new(vec![1.0], vec![vec![1.0], vec![2.0]]);
        assert!(matches!(
            r,
            Err(FacilityError::CostCountMismatch {
                costs: 1,
                facilities: 2
            })
        ));
    }

    #[test]
    fn flat_constructor_matches_row_constructor() {
        let flat = FacilityProblem::from_flat(vec![2.0, 2.0], 2, vec![1.0, 5.0, 5.0, 1.0]);
        assert_eq!(flat.unwrap(), tiny());
        assert!(matches!(
            FacilityProblem::from_flat(vec![2.0, 2.0], 2, vec![1.0, 5.0, 5.0]),
            Err(FacilityError::FlatLengthMismatch {
                expected: 4,
                actual: 3
            })
        ));
        assert!(matches!(
            FacilityProblem::from_flat(vec![2.0], 1, vec![f64::NAN]),
            Err(FacilityError::InvalidCost { .. })
        ));
        assert!(matches!(
            FacilityProblem::from_flat(vec![2.0, 2.0], usize::MAX, vec![]),
            Err(FacilityError::FlatLengthMismatch { .. })
        ));
        let empty = FacilityProblem::from_flat(vec![3.0, 4.0], 0, Vec::new()).unwrap();
        assert_eq!(empty.facility_count(), 2);
        assert_eq!(empty.assignment_row(1), &[] as &[f64]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn assignment_row_rejects_out_of_range_facility_without_clients() {
        let p = FacilityProblem::new(vec![3.0], vec![vec![]]).unwrap();
        let _ = p.assignment_row(1);
    }
}
