//! The driver-function iteration loop.
//!
//! Many MADlib methods are iterative (Section 3.1.2): logistic regression
//! via iteratively reweighted least squares, k-means, gradient descent, and
//! the MCMC methods of Section 5.2.  The paper's solution is a *driver UDF*
//! that controls the iteration from a scripting language while all heavy
//! lifting stays inside the database engine: each iteration is one
//! data-parallel pass (a UDA over the source table, parameterized by the
//! previous state), and convergence is tested on the (small) states only.
//!
//! The paper's driver stages its state in a temp table keyed by iteration
//! number (Figure 3) because the state has to survive between a Python
//! driver's SQL statements.  Here the driver is the Rust caller of the pass,
//! so [`iterate`] hands the state to the next pass as its argument and keeps
//! only the last one: the same loop, with no table in between.

/// Where an [`iterate`] loop stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct Iterated<S> {
    /// The last state: the initial one when no step ran.
    pub state: S,
    /// Steps run (at most `max_iterations`).
    pub iterations: usize,
    /// Whether the convergence test stopped the loop, as opposed to the
    /// iteration cap.
    pub converged: bool,
}

/// Runs a driver loop from `initial`: `step(previous, iteration)` runs one
/// pass (iterations count from 1), and `converged(previous, next)` decides
/// after each step whether to stop.  At `max_iterations` steps the loop
/// stops unconverged; `max_iterations == 0` returns `initial` untouched.
///
/// # Errors
/// The first error a step returns, which ends the loop.
pub fn iterate<S, E>(
    max_iterations: usize,
    initial: S,
    mut step: impl FnMut(&S, usize) -> Result<S, E>,
    mut converged: impl FnMut(&S, &S) -> bool,
) -> Result<Iterated<S>, E> {
    let mut state = initial;
    for iteration in 1..=max_iterations {
        let next = step(&state, iteration)?;
        let done = converged(&state, &next);
        state = next;
        if done {
            return Ok(Iterated {
                state,
                iterations: iteration,
                converged: true,
            });
        }
    }
    Ok(Iterated {
        state,
        iterations: max_iterations,
        converged: false,
    })
}

/// Standard convergence test: relative L2 movement of the state vector.
///
/// Returns true when `‖next − previous‖ ≤ tolerance · (1 + ‖previous‖)`.
pub fn l2_relative_convergence(previous: &[f64], next: &[f64], tolerance: f64) -> bool {
    if previous.len() != next.len() {
        return false;
    }
    let mut diff = 0.0;
    let mut base = 0.0;
    for (p, n) in previous.iter().zip(next) {
        diff += (p - n) * (p - n);
        base += p * p;
    }
    diff.sqrt() <= tolerance * (1.0 + base.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;

    #[test]
    fn converges_on_fixed_point() {
        // x_{k+1} = (x_k + 2/x_k)/2 converges to sqrt(2).
        let outcome = iterate(
            100,
            vec![1.0],
            |state: &Vec<f64>, _| Ok::<_, EngineError>(vec![(state[0] + 2.0 / state[0]) / 2.0]),
            |previous, next| l2_relative_convergence(previous, next, 1e-6),
        )
        .unwrap();
        assert!(outcome.converged);
        assert!((outcome.state[0] - 2.0_f64.sqrt()).abs() < 1e-6);
        assert!(outcome.iterations < 20);
    }

    #[test]
    fn stops_at_iteration_cap_without_error_by_default() {
        let (mut steps, mut tests) = (Vec::new(), Vec::new());
        let outcome = iterate(
            5,
            0.0,
            |state: &f64, iteration| {
                steps.push(iteration);
                Ok::<_, EngineError>(state + 1.0)
            },
            |previous, next| {
                tests.push((*previous, *next));
                false // never converges
            },
        )
        .unwrap();
        assert!(!outcome.converged);
        assert_eq!(outcome.iterations, 5);
        assert_eq!(outcome.state, 5.0);
        assert_eq!(steps, [1, 2, 3, 4, 5], "steps are numbered from 1");
        let pairs = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 5.0)];
        assert_eq!(tests, pairs, "the test sees (previous, next)");
    }

    #[test]
    fn step_errors_propagate() {
        let result = iterate(
            100,
            0.0,
            |_: &f64, iteration| {
                if iteration >= 2 {
                    Err(EngineError::aggregate("numerical failure"))
                } else {
                    Ok(1.0)
                }
            },
            |_, _| false,
        );
        assert!(result.is_err());
    }

    #[test]
    fn l2_relative_convergence_behaviour() {
        assert!(l2_relative_convergence(&[1.0, 1.0], &[1.0, 1.0], 1e-9));
        assert!(!l2_relative_convergence(&[1.0, 1.0], &[2.0, 1.0], 1e-3));
        assert!(!l2_relative_convergence(&[1.0], &[1.0, 2.0], 1.0));
        // Scale invariance: large states tolerate proportionally large moves.
        assert!(l2_relative_convergence(&[1e9], &[1e9 + 1.0], 1e-6));
    }

    #[test]
    fn zero_max_iterations_returns_initial_state() {
        let outcome = iterate(
            0,
            7.0,
            |_: &f64, _| -> Result<f64, EngineError> { unreachable!("no iterations expected") },
            |_, _| true,
        )
        .unwrap();
        assert_eq!(outcome.iterations, 0);
        assert_eq!(outcome.state, 7.0);
        assert!(!outcome.converged);
    }
}
