//! A counter-gated dataflow DAG executor.
//!
//! The paper's Sections 1 and 5 argue that counters are "a particularly
//! elegant and efficient mechanism for expressing dataflow style
//! synchronization": `Check` expresses a data dependency, `Increment`
//! broadcasts availability. This module turns that observation into a
//! general executor: a DAG of tasks where every node runs as soon as *its
//! own* dependencies are satisfied — the ragged-barrier idea applied to an
//! arbitrary dependence graph instead of a 1-D stencil.
//!
//! One counter per node carries the synchronization; because counters are
//! monotonic, the result is deterministic and equal to sequential execution
//! in dependency order (Section 6 applied to the generated program).

use mc_counter::{check_all, Counter, MonotonicCounter};
use std::sync::OnceLock;

/// Handle to a node added to a [`DataflowGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(usize);

type Task<T> = Box<dyn Fn(&[&T]) -> T + Send + Sync>;

struct Node<T> {
    name: String,
    deps: Vec<NodeId>,
    task: Task<T>,
}

/// A directed acyclic graph of tasks synchronized by one counter per node.
///
/// Nodes can only depend on previously added nodes, so the graph is acyclic
/// by construction and `NodeId` order is a valid topological order.
///
/// # Example
///
/// ```
/// use mc_patterns::DataflowGraph;
///
/// let mut g = DataflowGraph::new();
/// let a = g.node("a", [], |_| 2u64);
/// let b = g.node("b", [], |_| 3u64);
/// let sum = g.node("sum", [a, b], |inputs| inputs[0] + inputs[1]);
/// let sq = g.node("square", [sum], |inputs| inputs[0] * inputs[0]);
/// let results = g.run();
/// assert_eq!(results[sq.index()], 25);
/// ```
pub struct DataflowGraph<T> {
    nodes: Vec<Node<T>>,
}

impl NodeId {
    /// The node's index into the result vector of
    /// [`DataflowGraph::run`] / [`run_sequential`](DataflowGraph::run_sequential).
    pub fn index(self) -> usize {
        self.0
    }
}

impl<T> Default for DataflowGraph<T> {
    fn default() -> Self {
        DataflowGraph { nodes: Vec::new() }
    }
}

impl<T: Send + Sync> DataflowGraph<T> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a node computing `task(inputs)` where `inputs` are the results
    /// of `deps`, in the order given.
    ///
    /// # Panics
    ///
    /// Panics if a dependency refers to a node not yet added (this is what
    /// keeps the graph acyclic by construction).
    pub fn node(
        &mut self,
        name: impl Into<String>,
        deps: impl IntoIterator<Item = NodeId>,
        task: impl Fn(&[&T]) -> T + Send + Sync + 'static,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        let deps: Vec<NodeId> = deps.into_iter().collect();
        for d in &deps {
            assert!(
                d.0 < id.0,
                "node may only depend on previously added nodes (dep {} >= self {})",
                d.0,
                id.0
            );
        }
        self.nodes.push(Node {
            name: name.into(),
            deps,
            task: Box::new(task),
        });
        id
    }

    /// The name of a node (diagnostics).
    pub fn name(&self, id: NodeId) -> &str {
        &self.nodes[id.0].name
    }

    fn execute_node<'a>(node: &Node<T>, results: &'a [OnceLock<T>]) -> T {
        let inputs: Vec<&'a T> = node
            .deps
            .iter()
            .map(|d| {
                results[d.0]
                    .get()
                    .expect("dependency result missing: counter protocol violated")
            })
            .collect();
        (node.task)(&inputs)
    }

    /// Runs every node as its own thread; each node waits (via its
    /// dependencies' counters) exactly until its own inputs exist, then
    /// computes, publishes, and broadcasts. Returns results indexed by
    /// [`NodeId::index`].
    pub fn run(&self) -> Vec<T> {
        let n = self.nodes.len();
        let done: Vec<Counter> = (0..n).map(|_| Counter::default()).collect();
        let results: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
        std::thread::scope(|scope| {
            for (i, node) in self.nodes.iter().enumerate() {
                let (done, results) = (&done, &results);
                scope.spawn(move || {
                    check_all(node.deps.iter().map(|d| (&done[d.0], 1)));
                    let value = Self::execute_node(node, results);
                    results[i]
                        .set(value)
                        .unwrap_or_else(|_| unreachable!("node {i} computed twice"));
                    done[i].increment(1);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every node must have completed"))
            .collect()
    }

    /// Sequential execution in `NodeId` (topological) order — the Section 6
    /// "ignore the multithreaded keyword" reference; [`run`](Self::run)
    /// must produce identical results.
    pub fn run_sequential(&self) -> Vec<T> {
        let results: Vec<OnceLock<T>> = (0..self.nodes.len()).map(|_| OnceLock::new()).collect();
        for (i, node) in self.nodes.iter().enumerate() {
            let value = Self::execute_node(node, &results);
            results[i]
                .set(value)
                .unwrap_or_else(|_| unreachable!("node {i} computed twice"));
        }
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("sequential execution is total"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_runs() {
        let g: DataflowGraph<u32> = DataflowGraph::new();
        assert!(g.is_empty());
        assert!(g.run().is_empty());
    }

    #[test]
    fn linear_chain() {
        let mut g = DataflowGraph::new();
        let mut prev = g.node("source", [], |_| 1u64);
        for i in 0..10 {
            prev = g.node(format!("x{i}"), [prev], |inp| inp[0] * 2);
        }
        let out = g.run();
        assert_eq!(out[prev.index()], 1024);
        assert_eq!(g.len(), 11);
    }

    #[test]
    fn diamond_dependencies() {
        let mut g = DataflowGraph::new();
        let top = g.node("top", [], |_| 10u64);
        let left = g.node("left", [top], |i| i[0] + 1);
        let right = g.node("right", [top], |i| i[0] * 2);
        let join = g.node("join", [left, right], |i| i[0] + i[1]);
        let out = g.run();
        assert_eq!(out[join.index()], 11 + 20);
    }

    #[test]
    fn run_equals_run_sequential() {
        let mut g = DataflowGraph::new();
        let a = g.node("a", [], |_| 0.1f64);
        let b = g.node("b", [a], |i| i[0] + 1e10);
        let c = g.node("c", [a, b], |i| i[0] + i[1] - 1e10); // order-sensitive fp
        let d = g.node("d", [b, c], |i| i[0] * i[1]);
        let seq = g.run_sequential();
        for _ in 0..5 {
            let par = g.run();
            for (x, y) in par.iter().zip(&seq) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let _ = d;
    }

    #[test]
    fn independent_nodes_all_execute() {
        let mut g = DataflowGraph::new();
        for i in 0..16u64 {
            g.node(format!("n{i}"), [], move |_| i * i);
        }
        let out = g.run();
        assert_eq!(out.len(), 16);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn wide_fan_in() {
        let mut g = DataflowGraph::new();
        let leaves: Vec<NodeId> = (0..20u64)
            .map(|i| g.node(format!("leaf{i}"), [], move |_| i))
            .collect();
        let sum = g.node("sum", leaves, |inputs| inputs.iter().copied().sum());
        assert_eq!(g.run()[sum.index()], (0..20).sum());
    }

    #[test]
    fn names_are_preserved() {
        let mut g: DataflowGraph<u8> = DataflowGraph::new();
        let a = g.node("alpha", [], |_| 0);
        assert_eq!(g.name(a), "alpha");
    }

    #[test]
    #[should_panic(expected = "previously added")]
    fn forward_dependency_rejected() {
        let mut g: DataflowGraph<u8> = DataflowGraph::new();
        let a = g.node("a", [], |_| 0);
        // Forge an id that does not exist yet.
        let bogus = NodeId(5);
        g.node("b", [a, bogus], |_| 0);
    }
}
