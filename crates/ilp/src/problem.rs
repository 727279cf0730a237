//! Problem construction API.

use std::fmt;

/// Handle to a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

/// Whether a variable is continuous or integer-constrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds (binary = integer in `[0, 1]`).
    Integer,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ rhs`
    Le,
    /// `Σ aᵢxᵢ ≥ rhs`
    Ge,
    /// `Σ aᵢxᵢ = rhs`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    /// Kept for diagnostics (Debug output of the problem).
    #[allow(dead_code)]
    pub name: String,
    pub kind: VarKind,
    pub lo: f64,
    pub hi: f64,
    pub obj: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    /// Sparse row: (variable index, coefficient).
    pub terms: Vec<(usize, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A linear (or mixed-integer linear) program.
///
/// Construct via [`ProblemBuilder`]; solve with [`Problem::solve`] (MILP,
/// respecting integrality) or [`crate::solve_lp`] (relaxation).
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

/// Incremental builder for [`Problem`].
#[derive(Debug, Clone)]
pub struct ProblemBuilder {
    problem: Problem,
}

impl ProblemBuilder {
    /// Starts a maximization problem.
    pub fn maximize() -> Self {
        Self::with_sense(Sense::Maximize)
    }

    /// Starts a minimization problem.
    pub fn minimize() -> Self {
        Self::with_sense(Sense::Minimize)
    }

    /// Starts a problem with the given sense.
    pub fn with_sense(sense: Sense) -> Self {
        ProblemBuilder {
            problem: Problem {
                sense,
                vars: Vec::new(),
                constraints: Vec::new(),
            },
        }
    }

    /// Adds a variable with bounds `[lo, hi]` and objective coefficient
    /// `obj`. `hi` may be `f64::INFINITY`.
    ///
    /// # Panics
    /// Panics if `lo` is not finite, `lo > hi`, or `obj` is not finite.
    pub fn add_var(&mut self, name: &str, kind: VarKind, lo: f64, hi: f64, obj: f64) -> VarId {
        assert!(lo.is_finite(), "lower bound must be finite (var {name})");
        assert!(
            !hi.is_nan() && hi >= lo,
            "invalid bounds [{lo}, {hi}] for {name}"
        );
        assert!(obj.is_finite(), "objective coefficient must be finite");
        let id = VarId(self.problem.vars.len());
        self.problem.vars.push(Variable {
            name: name.to_string(),
            kind,
            lo,
            hi,
            obj,
        });
        id
    }

    /// Adds a binary (0/1 integer) variable.
    pub fn add_binary(&mut self, name: &str, obj: f64) -> VarId {
        self.add_var(name, VarKind::Integer, 0.0, 1.0, obj)
    }

    /// Adds a general constraint `Σ terms cmp rhs`.
    ///
    /// # Panics
    /// Panics if a coefficient or `rhs` is non-finite, or a variable id is
    /// out of range.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], cmp: Cmp, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        let mut row = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v.0 < self.problem.vars.len(), "variable out of range");
            assert!(c.is_finite(), "constraint coefficient must be finite");
            row.push((v.0, c));
        }
        self.problem.constraints.push(Constraint {
            terms: row,
            cmp,
            rhs,
        });
    }

    /// Adds `Σ terms ≤ rhs`.
    pub fn add_le(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.add_constraint(terms, Cmp::Le, rhs);
    }

    /// Adds `Σ terms ≥ rhs`.
    pub fn add_ge(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.add_constraint(terms, Cmp::Ge, rhs);
    }

    /// Adds `Σ terms = rhs`.
    pub fn add_eq(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.add_constraint(terms, Cmp::Eq, rhs);
    }

    /// Finalizes the problem.
    pub fn build(self) -> Problem {
        self.problem
    }
}

impl Problem {
    /// Whether any variable is integer-constrained.
    pub fn has_integers(&self) -> bool {
        self.vars.iter().any(|v| v.kind == VarKind::Integer)
    }

    /// Solves the problem, respecting integrality constraints.
    ///
    /// # Errors
    /// Returns [`crate::SolveError`] if the problem is infeasible,
    /// unbounded, or exceeds the branch-and-bound node limit.
    pub fn solve(&self) -> Result<Solution, crate::SolveError> {
        crate::solve(self)
    }

    /// Evaluates the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, &xi)| v.obj * xi).sum()
    }

    /// Checks whether `x` satisfies all constraints and bounds within
    /// tolerance `tol` (integrality included for integer variables).
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        for (v, &xi) in self.vars.iter().zip(x) {
            if xi < v.lo - tol || xi > v.hi + tol {
                return false;
            }
            if v.kind == VarKind::Integer && (xi - xi.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(j, a)| a * x[j]).sum();
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Ge => lhs >= c.rhs - tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Objective value in the problem's own sense.
    pub objective: f64,
    /// Value per variable, indexed by [`VarId`] order.
    pub values: Vec<f64>,
}

impl Solution {
    /// The value of a variable.
    ///
    /// # Panics
    /// Panics if the id does not belong to the solved problem.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "objective {:.6} over {} vars",
            self.objective,
            self.values.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = ProblemBuilder::maximize();
        let x = b.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
        let y = b.add_binary("y", 2.0);
        assert_eq!(x, VarId(0));
        assert_eq!(y, VarId(1));
        let p = b.build();
        assert!(p.has_integers());
    }

    #[test]
    #[should_panic(expected = "lower bound must be finite")]
    fn rejects_infinite_lower_bound() {
        let mut b = ProblemBuilder::maximize();
        b.add_var("x", VarKind::Continuous, f64::NEG_INFINITY, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid bounds")]
    fn rejects_crossed_bounds() {
        let mut b = ProblemBuilder::maximize();
        b.add_var("x", VarKind::Continuous, 2.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "variable out of range")]
    fn rejects_foreign_var() {
        let mut b = ProblemBuilder::maximize();
        b.add_le(&[(VarId(3), 1.0)], 1.0);
    }

    #[test]
    fn feasibility_checker() {
        let mut b = ProblemBuilder::maximize();
        let x = b.add_var("x", VarKind::Integer, 0.0, 5.0, 1.0);
        let y = b.add_var("y", VarKind::Continuous, 0.0, 5.0, 1.0);
        b.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        b.add_ge(&[(y, 1.0)], 1.0);
        b.add_eq(&[(x, 2.0)], 4.0);
        let p = b.build();
        assert!(p.is_feasible(&[2.0, 1.5], 1e-9));
        assert!(!p.is_feasible(&[2.5, 1.0], 1e-9)); // x not integer
        assert!(!p.is_feasible(&[2.0, 3.0], 1e-9)); // sum > 4
        assert!(!p.is_feasible(&[2.0, 0.0], 1e-9)); // y < 1
        assert!(!p.is_feasible(&[1.0, 1.0], 1e-9)); // 2x != 4
        assert!(!p.is_feasible(&[1.0], 1e-9)); // wrong arity
        assert_eq!(p.objective_value(&[2.0, 1.5]), 3.5);
    }
}
