//! Dataflow graph structure: nodes, edges, and timestamp transforms along edges.

use kpg_timestamp::Time;

/// Identifies a node (operator) within a dataflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies an edge (channel) within a dataflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeId(pub usize);

/// How timestamps are transformed along an edge, for progress-tracking purposes.
///
/// Data is re-timestamped by the node at the edge's source (a feedback node increments
/// the round of everything it forwards; a leave node strips rounds); the matching
/// transform on the outgoing edge tells the progress tracker how the node's *output
/// frontier* maps onto the times its successors may observe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeTransform {
    /// Times pass through unchanged.
    Identity,
    /// The iteration round at `depth` is incremented by one (a loop feedback edge).
    Feedback {
        /// The loop nesting depth whose round coordinate advances (1 or 2).
        depth: usize,
    },
    /// The iteration rounds at `depth` and deeper are reset to zero (a loop exit edge).
    Leave {
        /// The loop nesting depth being exited.
        depth: usize,
    },
}

impl EdgeTransform {
    /// Applies the transform to a single time.
    pub fn apply(&self, time: &Time) -> Time {
        match self {
            EdgeTransform::Identity => *time,
            EdgeTransform::Feedback { depth } => time.advanced(*depth, 1),
            EdgeTransform::Leave { depth } => time.left(*depth),
        }
    }
}

/// A directed edge from one node's output to another node's input port.
#[derive(Clone, Debug)]
pub struct EdgeDesc {
    /// The source node.
    pub from: NodeId,
    /// The destination node.
    pub to: NodeId,
    /// The destination input port.
    pub port: usize,
    /// The timestamp transform applied along the edge for progress tracking.
    pub transform: EdgeTransform,
}

/// The structural description of a dataflow: shared by all workers, who each instantiate
/// their own operator state for every node.
#[derive(Clone, Debug, Default)]
pub struct DataflowGraph {
    /// The number of nodes; node ids are `0..nodes`.
    pub nodes: usize,
    /// Human-readable operator names, for debugging.
    pub names: Vec<String>,
    /// The number of input ports of each node.
    pub input_ports: Vec<usize>,
    /// All edges.
    pub edges: Vec<EdgeDesc>,
}

impl DataflowGraph {
    /// The edges leaving `node`.
    pub fn edges_from(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, &EdgeDesc)> {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.from == node)
            .map(|(i, e)| (EdgeId(i), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transforms_map_times() {
        let t = Time::from_coords([3, 2, 0]);
        assert_eq!(EdgeTransform::Identity.apply(&t), t);
        assert_eq!(
            EdgeTransform::Feedback { depth: 1 }.apply(&t),
            Time::from_coords([3, 3, 0])
        );
        assert_eq!(
            EdgeTransform::Leave { depth: 1 }.apply(&t),
            Time::from_coords([3, 0, 0])
        );
    }

    #[test]
    fn graph_edge_queries() {
        let graph = DataflowGraph {
            nodes: 3,
            names: vec!["a".into(), "b".into(), "c".into()],
            input_ports: vec![0, 1, 2],
            edges: vec![
                EdgeDesc {
                    from: NodeId(0),
                    to: NodeId(1),
                    port: 0,
                    transform: EdgeTransform::Identity,
                },
                EdgeDesc {
                    from: NodeId(1),
                    to: NodeId(2),
                    port: 1,
                    transform: EdgeTransform::Identity,
                },
            ],
        };
        assert_eq!(graph.edges_from(NodeId(1)).count(), 1);
        assert_eq!(graph.edges_from(NodeId(2)).count(), 0);
    }
}
