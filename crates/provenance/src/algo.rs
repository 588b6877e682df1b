//! Graph algorithms over the lineage DAG: topological ordering.

use crate::graph::{LineageGraph, RunIdx};
use std::collections::VecDeque;

/// Topological order of run nodes over dependency edges (dependencies
/// first). Returns `None` if the dependency edges contain a cycle (which
/// the execution layer never produces, but hand-built graphs might).
pub fn topo_order(graph: &LineageGraph) -> Option<Vec<RunIdx>> {
    let n = graph.run_count();
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<RunIdx>> = vec![Vec::new(); n];
    for idx in graph.run_indexes() {
        for &dep in &graph.run(idx).deps {
            indegree[idx.0 as usize] += 1;
            dependents[dep.0 as usize].push(idx);
        }
    }
    let mut queue: VecDeque<RunIdx> = graph
        .run_indexes()
        .filter(|r| indegree[r.0 as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(r) = queue.pop_front() {
        order.push(r);
        for &d in &dependents[r.0 as usize] {
            indegree[d.0 as usize] -= 1;
            if indegree[d.0 as usize] == 0 {
                queue.push_back(d);
            }
        }
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn chain() -> LineageGraph {
        let mut g = LineageGraph::new();
        g.add_run(1, "etl", 10, false, &[], &strs(&["a"]), &[]);
        g.add_run(2, "clean", 20, false, &strs(&["a"]), &strs(&["b"]), &[1]);
        g.add_run(3, "train", 30, false, &strs(&["b"]), &strs(&["m"]), &[2]);
        g.add_run(
            4,
            "infer",
            40,
            false,
            &strs(&["b", "m"]),
            &strs(&["p"]),
            &[2, 3],
        );
        g
    }

    #[test]
    fn topo_respects_dependencies() {
        let g = chain();
        let order = topo_order(&g).unwrap();
        let pos: Vec<usize> = (0..4)
            .map(|i| {
                order
                    .iter()
                    .position(|r| g.run(*r).run_id == i as u64 + 1)
                    .unwrap()
            })
            .collect();
        assert!(pos[0] < pos[1]);
        assert!(pos[1] < pos[2]);
        assert!(pos[2] < pos[3]);
    }
}
