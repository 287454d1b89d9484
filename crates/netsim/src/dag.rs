//! A dependency-aware transfer scheduler over bandwidth-limited links.
//!
//! A collective is expressed as a DAG of *transfers*: each transfer moves a
//! number of bytes across one directed link and may depend on earlier
//! transfers (a chip can only forward a chunk after receiving it). Links
//! serve transfers one at a time in ready order (FIFO per link), which
//! models a store-and-forward ring schedule faithfully enough to validate
//! the closed-form costs of Appendix A.1.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use esti_hal::Seconds;

/// Identifier of a directed link registered with [`DagSim::add_link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Identifier of a transfer registered with [`DagSim::add_transfer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransferId(pub usize);

#[derive(Debug, Clone)]
struct Transfer {
    link: LinkId,
    bytes: f64,
    unmet: usize,
    ready: Seconds,
    finish: Option<Seconds>,
    dependents: Vec<TransferId>,
}

/// Min-heap entry: (ready time, id); earliest-ready-first.
#[derive(Debug, PartialEq)]
struct Pending {
    ready: Seconds,
    id: usize,
}

impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; break ties by id for determinism.
        other
            .ready
            .partial_cmp(&self.ready)
            .unwrap_or(Ordering::Equal)
            .then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The transfer-DAG simulator.
///
/// # Examples
///
/// ```
/// use esti_netsim::DagSim;
///
/// let mut sim = DagSim::new();
/// let link = sim.add_link(100.0); // 100 bytes/s
/// let a = sim.add_transfer(link, 50.0, &[]);
/// let b = sim.add_transfer(link, 50.0, &[a]);
/// let makespan = sim.run();
/// assert_eq!(makespan, 1.0); // two sequential half-second transfers
/// assert_eq!(sim.finish_time(b), Some(1.0));
/// ```
#[derive(Debug, Default)]
pub struct DagSim {
    link_bandwidth: Vec<f64>,
    link_free: Vec<Seconds>,
    transfers: Vec<Transfer>,
    completed: usize,
}

impl DagSim {
    /// Creates an empty simulator.
    #[must_use]
    pub fn new() -> Self {
        DagSim::default()
    }

    /// Registers a directed link with the given bandwidth in bytes/s.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not positive.
    pub fn add_link(&mut self, bandwidth: f64) -> LinkId {
        assert!(bandwidth > 0.0, "link bandwidth must be positive");
        self.link_bandwidth.push(bandwidth);
        self.link_free.push(0.0);
        LinkId(self.link_bandwidth.len() - 1)
    }

    /// Registers a transfer of `bytes` over `link` that may start only after
    /// every transfer in `deps` has finished.
    ///
    /// # Panics
    ///
    /// Panics if `link` or any dependency id is unknown, or `bytes` is
    /// negative.
    pub fn add_transfer(&mut self, link: LinkId, bytes: f64, deps: &[TransferId]) -> TransferId {
        assert!(link.0 < self.link_bandwidth.len(), "unknown link {link:?}");
        assert!(bytes >= 0.0, "transfer bytes must be non-negative");
        let id = TransferId(self.transfers.len());
        for &d in deps {
            assert!(d.0 < self.transfers.len(), "dependency {d:?} not yet registered");
        }
        self.transfers.push(Transfer {
            link,
            bytes,
            unmet: deps.len(),
            ready: 0.0,
            finish: None,
            dependents: Vec::new(),
        });
        for &d in deps {
            self.transfers[d.0].dependents.push(id);
        }
        id
    }

    /// Runs the simulation to completion and returns the makespan (the
    /// latest finish time, or `0.0` with no transfers).
    ///
    /// Deterministic: ties are broken by transfer id.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or if the dependency graph has a cycle
    /// (impossible through the public API, which only allows backward
    /// dependencies).
    pub fn run(&mut self) -> Seconds {
        assert_eq!(self.completed, 0, "DagSim::run may only be called once");
        let mut heap = BinaryHeap::new();
        for (i, t) in self.transfers.iter().enumerate() {
            if t.unmet == 0 {
                heap.push(Pending { ready: 0.0, id: i });
            }
        }
        let mut makespan: Seconds = 0.0;
        while let Some(Pending { ready, id }) = heap.pop() {
            let link = self.transfers[id].link.0;
            let start = ready.max(self.link_free[link]);
            let finish = start + self.transfers[id].bytes / self.link_bandwidth[link];
            self.link_free[link] = finish;
            self.transfers[id].finish = Some(finish);
            self.completed += 1;
            makespan = makespan.max(finish);
            let dependents = self.transfers[id].dependents.clone();
            for dep in dependents {
                let t = &mut self.transfers[dep.0];
                t.unmet -= 1;
                t.ready = t.ready.max(finish);
                if t.unmet == 0 {
                    heap.push(Pending { ready: t.ready, id: dep.0 });
                }
            }
        }
        assert_eq!(self.completed, self.transfers.len(), "dependency cycle detected");
        makespan
    }

    /// Finish time of a transfer after [`DagSim::run`], or `None` before.
    #[must_use]
    pub fn finish_time(&self, id: TransferId) -> Option<Seconds> {
        self.transfers.get(id.0).and_then(|t| t.finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sim_runs_to_zero() {
        assert_eq!(DagSim::new().run(), 0.0);
    }

    #[test]
    fn sequential_dependency_chain() {
        let mut sim = DagSim::new();
        let l = sim.add_link(10.0);
        let a = sim.add_transfer(l, 10.0, &[]);
        let b = sim.add_transfer(l, 20.0, &[a]);
        let c = sim.add_transfer(l, 10.0, &[b]);
        assert_eq!(sim.run(), 4.0);
        assert_eq!(sim.finish_time(a), Some(1.0));
        assert_eq!(sim.finish_time(b), Some(3.0));
        assert_eq!(sim.finish_time(c), Some(4.0));
    }

    #[test]
    fn independent_links_run_in_parallel() {
        let mut sim = DagSim::new();
        let l1 = sim.add_link(10.0);
        let l2 = sim.add_link(10.0);
        sim.add_transfer(l1, 100.0, &[]);
        sim.add_transfer(l2, 100.0, &[]);
        assert_eq!(sim.run(), 10.0);
    }

    #[test]
    fn shared_link_serializes() {
        let mut sim = DagSim::new();
        let l = sim.add_link(10.0);
        sim.add_transfer(l, 100.0, &[]);
        sim.add_transfer(l, 100.0, &[]);
        assert_eq!(sim.run(), 20.0);
    }

    #[test]
    fn join_waits_for_slowest_parent() {
        let mut sim = DagSim::new();
        let fast = sim.add_link(100.0);
        let slow = sim.add_link(1.0);
        let out = sim.add_link(10.0);
        let a = sim.add_transfer(fast, 100.0, &[]); // 1s
        let b = sim.add_transfer(slow, 5.0, &[]); // 5s
        let c = sim.add_transfer(out, 10.0, &[a, b]); // starts at 5s
        assert_eq!(sim.run(), 6.0);
        assert_eq!(sim.finish_time(c), Some(6.0));
    }

    #[test]
    fn zero_byte_transfer_is_instant_dependency() {
        let mut sim = DagSim::new();
        let l = sim.add_link(10.0);
        let a = sim.add_transfer(l, 0.0, &[]);
        let b = sim.add_transfer(l, 10.0, &[a]);
        assert_eq!(sim.run(), 1.0);
        assert_eq!(sim.finish_time(b), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "may only be called once")]
    fn run_twice_panics() {
        let mut sim = DagSim::new();
        let l = sim.add_link(1.0);
        sim.add_transfer(l, 1.0, &[]);
        sim.run();
        sim.run();
    }

    #[test]
    #[should_panic(expected = "not yet registered")]
    fn forward_dependency_rejected() {
        let mut sim = DagSim::new();
        let l = sim.add_link(1.0);
        sim.add_transfer(l, 1.0, &[TransferId(5)]);
    }
}
