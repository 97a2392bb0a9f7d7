//! Discrete-event cluster scaling model — regenerates Tables 3/4 and
//! Fig. 8.
//!
//! Scaling to 96 coprocessors cannot be *measured* on this machine, so the
//! elapsed-time-vs-nodes curves come from a discrete-event simulation of
//! the master–worker protocol with three cost components (constants
//! documented in DESIGN.md §6):
//!
//! 1. **data distribution** — the master unicasts the brain data to each
//!    node over the shared 10 GbE link (serialized at the master's NIC);
//! 2. **task dispatch** — a fixed per-task message latency, serialized at
//!    the master;
//! 3. **task compute** — per-task times supplied by the caller (derived
//!    from the `fcma-sim` time model), processed greedily: a finishing
//!    node immediately receives the next task.
//!
//! Load imbalance emerges naturally: with `T` tasks on `n` nodes, the
//! makespan is driven by `ceil(T/n)` waves, which is what bends the
//! speedup curve at high node counts (Fig. 8's 59.8×/73.5× at 96).

/// A node loss event for degraded-mode simulation: `node` stops
/// accepting work at `at_sec` and any task it is running at that moment
/// is lost and must be re-executed elsewhere.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NodeFailure {
    /// Index of the failing node.
    node: usize,
    /// Simulation time of the failure, seconds.
    at_sec: f64,
}

/// Cost parameters of the cluster.
#[derive(Debug, Clone)]
pub struct ClusterModel {
    /// Bytes of brain data each node receives up front. Zero for the
    /// online case, where the scanner streams data to every node as it is
    /// acquired (Fig. 1) and selection runs on already-resident data.
    pub data_bytes: f64,
    /// Effective link bandwidth at the master, bytes/second.
    pub link_bytes_per_sec: f64,
    /// Per-task dispatch latency at the master, seconds.
    pub dispatch_sec: f64,
    /// Fixed serial portion executed once regardless of node count
    /// (result collection, sorting, final classifier training).
    pub serial_sec: f64,
}

impl Default for ClusterModel {
    fn default() -> Self {
        ClusterModel {
            data_bytes: 0.0,
            // 10 GbE with protocol overhead ≈ 1 GB/s effective.
            link_bytes_per_sec: 1.0e9,
            dispatch_sec: 2.0e-3,
            serial_sec: 0.0,
        }
    }
}

impl ClusterModel {
    /// Simulate processing `task_secs` (one entry per task, any order)
    /// on `n_nodes` nodes. Returns elapsed wall-clock seconds.
    ///
    /// # Panics
    /// Panics if `n_nodes` is zero.
    pub fn simulate(&self, task_secs: &[f64], n_nodes: usize) -> f64 {
        assert!(n_nodes > 0, "simulate: need at least one node");
        // Phase 1: serialized unicast of the data to each node.
        let per_node_xfer = self.data_bytes / self.link_bytes_per_sec;
        let mut node_free: Vec<f64> =
            (0..n_nodes).map(|i| (i + 1) as f64 * per_node_xfer).collect();
        // Phase 2: greedy dynamic dispatch (the master serializes sends).
        let mut master_free = 0.0f64;
        for &t in task_secs {
            // Next node to become available.
            let (idx, &free) = node_free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN times"))
                .expect("n_nodes > 0");
            let dispatch_done = master_free.max(free) + self.dispatch_sec;
            master_free = dispatch_done;
            node_free[idx] = dispatch_done + t;
        }
        node_free.into_iter().fold(0.0, f64::max) + self.serial_sec
    }

    /// Degraded-mode simulation: like [`Self::simulate`], but nodes
    /// listed in `failures` die at their failure times. A task caught
    /// mid-execution on a dying node is requeued and re-dispatched (the
    /// threaded driver's recovery protocol), so failures cost both the
    /// lost node and the wasted partial work. Returns
    /// [`f64::INFINITY`] if every node dies with tasks still pending.
    ///
    /// # Panics
    /// Panics if `n_nodes` is zero or a failure names a node `>=
    /// n_nodes`.
    fn simulate_degraded(
        &self,
        task_secs: &[f64],
        n_nodes: usize,
        failures: &[NodeFailure],
    ) -> f64 {
        assert!(n_nodes > 0, "simulate_degraded: need at least one node");
        assert!(
            failures.iter().all(|f| f.node < n_nodes),
            "simulate_degraded: failure names a nonexistent node"
        );
        let fail_at = |node: usize| -> f64 {
            failures
                .iter()
                .filter(|f| f.node == node)
                .map(|f| f.at_sec)
                .fold(f64::INFINITY, f64::min)
        };
        let per_node_xfer = self.data_bytes / self.link_bytes_per_sec;
        let mut node_free: Vec<f64> =
            (0..n_nodes).map(|i| (i + 1) as f64 * per_node_xfer).collect();
        let mut dead = vec![false; n_nodes];
        let mut master_free = 0.0f64;
        let mut pending: std::collections::VecDeque<f64> = task_secs.iter().copied().collect();
        while let Some(t) = pending.pop_front() {
            // Next live node to become available.
            let Some((idx, &free)) = node_free
                .iter()
                .enumerate()
                .filter(|&(i, _)| !dead[i])
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN times"))
            else {
                return f64::INFINITY; // every node died with work pending
            };
            let dispatch_done = master_free.max(free) + self.dispatch_sec;
            master_free = dispatch_done;
            let would_finish = dispatch_done + t;
            let dies_at = fail_at(idx);
            if would_finish >= dies_at {
                // The node dies mid-task (or before starting it): the
                // partial work is lost, the task goes back in the queue,
                // and the master notices at the failure time.
                dead[idx] = true;
                node_free[idx] = dies_at.max(free);
                pending.push_back(t);
            } else {
                node_free[idx] = would_finish;
            }
        }
        // Dead nodes contribute their death time (when the master
        // noticed the loss); live nodes their last completion.
        node_free.into_iter().fold(0.0, f64::max) + self.serial_sec
    }

    /// Elapsed healthy-vs-degraded times for a sweep of node counts:
    /// `(nodes, healthy_sec, degraded_sec)` where the degraded column
    /// loses the first `failed_fraction` of nodes at `fail_at_sec`.
    ///
    /// # Panics
    /// If a node count is zero.
    pub fn degraded_sweep(
        &self,
        task_secs: &[f64],
        node_counts: &[usize],
        failed_fraction: f64,
        fail_at_sec: f64,
    ) -> Vec<(usize, f64, f64)> {
        node_counts
            .iter()
            .map(|&n| {
                let failed = ((n as f64 * failed_fraction) as usize).min(n.saturating_sub(1));
                let failures: Vec<NodeFailure> =
                    (0..failed).map(|node| NodeFailure { node, at_sec: fail_at_sec }).collect();
                (n, self.simulate(task_secs, n), self.simulate_degraded(task_secs, n, &failures))
            })
            .collect()
    }

    /// Elapsed times for a sweep of node counts.
    ///
    /// # Panics
    /// If a node count is zero.
    pub fn sweep(&self, task_secs: &[f64], node_counts: &[usize]) -> Vec<(usize, f64)> {
        node_counts.iter().map(|&n| (n, self.simulate(task_secs, n))).collect()
    }

    /// Speedups relative to one node (Fig. 8's y-axis).
    ///
    /// # Panics
    /// If a node count is zero.
    pub fn speedups(&self, task_secs: &[f64], node_counts: &[usize]) -> Vec<(usize, f64)> {
        let t1 = self.simulate(task_secs, 1);
        node_counts.iter().map(|&n| (n, t1 / self.simulate(task_secs, n))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, secs: f64) -> Vec<f64> {
        vec![secs; n]
    }

    #[test]
    fn one_node_is_sum_of_tasks_plus_overheads() {
        let m = ClusterModel { data_bytes: 1e9, ..Default::default() };
        let tasks = uniform(10, 1.0);
        let t = m.simulate(&tasks, 1);
        // 1s transfer + 10 tasks + 10 dispatches.
        assert!((t - (1.0 + 10.0 + 10.0 * 2.0e-3)).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn perfect_divisible_work_scales_nearly_linearly() {
        let m = ClusterModel::default(); // no data transfer
        let tasks = uniform(960, 1.0);
        let t1 = m.simulate(&tasks, 1);
        let t96 = m.simulate(&tasks, 96);
        let speedup = t1 / t96;
        assert!(speedup > 80.0, "speedup {speedup}");
        assert!(speedup <= 96.0 + 1e-9);
    }

    #[test]
    fn wave_quantization_bends_the_curve() {
        let m = ClusterModel::default();
        // 100 tasks on 96 nodes: 2 waves — efficiency ≈ 100/(96·2).
        let tasks = uniform(100, 1.0);
        let t = m.simulate(&tasks, 96);
        assert!((t - 2.0).abs() < 0.1, "t = {t}");
        let t1 = m.simulate(&tasks, 1);
        let eff = t1 / t / 96.0;
        assert!((0.4..0.7).contains(&eff), "efficiency {eff}");
    }

    #[test]
    fn broadcast_cost_grows_with_nodes() {
        let m = ClusterModel { data_bytes: 0.5e9, ..Default::default() };
        let tasks = uniform(96, 0.01); // tiny compute: transfer-dominated
        let t8 = m.simulate(&tasks, 8);
        let t96 = m.simulate(&tasks, 96);
        assert!(t96 > t8, "transfer-bound time must grow: {t8} vs {t96}");
        // 96 nodes x 0.5 GB / 1 GB/s = 48 s of serialized unicast.
        assert!(t96 >= 48.0, "t96 = {t96}");
    }

    #[test]
    fn speedups_are_monotone_for_divisible_work() {
        let m = ClusterModel { data_bytes: 0.4e9, ..Default::default() };
        let tasks = uniform(2592, 2.0); // 18 folds x 144 tasks
        let nodes = [1usize, 8, 16, 32, 64, 96];
        let sp = m.speedups(&tasks, &nodes);
        for w in sp.windows(2) {
            assert!(w[1].1 > w[0].1, "speedup not monotone: {sp:?}");
        }
        // Near-linear at 96 with mild efficiency loss, as in Fig. 8.
        let (_, s96) = sp.last().copied().unwrap();
        assert!((50.0..96.0).contains(&s96), "96-node speedup {s96}");
    }

    #[test]
    fn heterogeneous_tasks_balance_dynamically() {
        let m = ClusterModel::default();
        // Two long tasks + many short ones: dynamic dispatch should
        // interleave so the makespan is near the critical path.
        let mut tasks = vec![5.0, 5.0];
        tasks.extend(uniform(20, 0.5));
        let t = m.simulate(&tasks, 4);
        // Critical path: a node running one long task (5s); the rest fill
        // elsewhere. Ideal ≈ max(5, 20/4·0.5 + 5/2...) ≈ 5s.
        assert!(t < 7.0, "makespan {t} suggests static-like imbalance");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_zero_nodes() {
        let _ = ClusterModel::default().simulate(&[1.0], 0);
    }

    #[test]
    fn serial_tail_is_additive() {
        let m = ClusterModel { serial_sec: 2.0, ..Default::default() };
        let tasks = uniform(8, 1.0);
        let t = m.simulate(&tasks, 8);
        assert!(t >= 3.0, "serial tail missing: {t}");
    }

    #[test]
    fn no_failures_matches_healthy_simulation() {
        let m = ClusterModel { data_bytes: 1e8, ..Default::default() };
        let tasks = uniform(50, 1.0);
        let a = m.simulate(&tasks, 4);
        let b = m.simulate_degraded(&tasks, 4, &[]);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn losing_nodes_mid_run_slows_the_sweep() {
        let m = ClusterModel::default();
        let tasks = uniform(64, 1.0);
        let healthy = m.simulate(&tasks, 8);
        // Half the cluster dies a quarter of the way through.
        let failures: Vec<NodeFailure> =
            (0..4).map(|node| NodeFailure { node, at_sec: healthy / 4.0 }).collect();
        let degraded = m.simulate_degraded(&tasks, 8, &failures);
        assert!(degraded > healthy, "degraded {degraded} vs healthy {healthy}");
        assert!(degraded.is_finite());
        // Surviving half should still finish in bounded time: worse than
        // healthy, far better than serial.
        let serial = m.simulate(&tasks, 1);
        assert!(degraded < serial, "degraded {degraded} vs serial {serial}");
    }

    #[test]
    fn total_loss_is_infinite() {
        let m = ClusterModel::default();
        let tasks = uniform(8, 1.0);
        let failures: Vec<NodeFailure> =
            (0..2).map(|node| NodeFailure { node, at_sec: 0.0 }).collect();
        assert!(m.simulate_degraded(&tasks, 2, &failures).is_infinite());
    }

    #[test]
    fn degraded_sweep_pairs_healthy_and_degraded() {
        let m = ClusterModel::default();
        let tasks = uniform(96, 1.0);
        let rows = m.degraded_sweep(&tasks, &[4, 8, 16], 0.25, 2.0);
        assert_eq!(rows.len(), 3);
        for (n, healthy, degraded) in rows {
            assert!(healthy > 0.0 && degraded.is_finite(), "n={n}");
            assert!(degraded >= healthy - 1e-9, "n={n}: {degraded} < {healthy}");
        }
    }

    #[test]
    #[should_panic(expected = "nonexistent node")]
    fn rejects_failure_on_missing_node() {
        let _ = ClusterModel::default().simulate_degraded(
            &[1.0],
            2,
            &[NodeFailure { node: 5, at_sec: 0.0 }],
        );
    }
}
