//! Units of quantum work.

use pauli::PauliString;
use qsim::Circuit;

/// One dispatchable quantum task: prepare the state of `circuit` and
/// estimate every observable on it.
///
/// This is the natural batching grain of Algorithm 1: a `(data point,
/// ansatz)` pair shares one prepared state across `q` observables.
#[derive(Clone, Debug)]
pub struct CircuitJob {
    /// Caller-assigned identifier; results are matched by it.
    pub id: u64,
    /// The state-preparation circuit (encoding + bound ansatz).
    pub circuit: Circuit,
    /// Observables to estimate on the prepared state.
    pub observables: Vec<PauliString>,
    /// Measurement shots per observable; `None` = exact expectations.
    pub shots: Option<usize>,
    /// Remaining deadline budget in simulated ns, measured from the
    /// start of the batch this job is submitted in; `None` = no
    /// deadline. The pool never dispatches (or retries) a job past its
    /// budget — it resolves to a typed deadline error instead.
    pub sim_budget_ns: Option<u64>,
}

impl CircuitJob {
    /// Creates a job, validating qubit counts.
    pub fn new(
        id: u64,
        circuit: Circuit,
        observables: Vec<PauliString>,
        shots: Option<usize>,
    ) -> Self {
        assert!(!observables.is_empty(), "job without observables");
        assert!(
            observables
                .iter()
                .all(|o| o.num_qubits() == circuit.num_qubits()),
            "observable/circuit qubit mismatch"
        );
        if let Some(s) = shots {
            assert!(s > 0, "zero shots");
        }
        CircuitJob {
            id,
            circuit,
            observables,
            shots,
            sim_budget_ns: None,
        }
    }

    /// Attaches a deadline budget (simulated ns from batch start).
    pub fn with_budget(mut self, sim_budget_ns: u64) -> Self {
        self.sim_budget_ns = Some(sim_budget_ns);
        self
    }
}

/// The result of one [`CircuitJob`].
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// Mirrors the job id.
    pub id: u64,
    /// One estimate per observable, in job order.
    pub values: Vec<f64>,
    /// Which device ran the job.
    pub device: usize,
    /// Simulated device-occupancy time in nanoseconds (latency model).
    pub sim_busy_ns: u64,
    /// Simulated completion time in nanoseconds relative to batch start
    /// (pool dispatch) or to submission (direct `execute`) — i.e. the
    /// job's simulated latency, including queueing, retries, and
    /// backoff.
    pub sim_completed_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::Gate;

    #[test]
    fn job_construction_and_cost() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        let job = CircuitJob::new(7, c, vec![PauliString::parse("ZZ").unwrap()], Some(100));
        assert_eq!(job.id, 7);
        assert_eq!(job.shots, Some(100));
        assert_eq!(job.sim_budget_ns, None);
    }

    #[test]
    #[should_panic]
    fn mismatched_observable_panics() {
        let c = Circuit::new(2);
        let _ = CircuitJob::new(0, c, vec![PauliString::parse("ZZZ").unwrap()], None);
    }

    #[test]
    #[should_panic]
    fn empty_observables_panic() {
        let c = Circuit::new(1);
        let _ = CircuitJob::new(0, c, vec![], None);
    }
}
