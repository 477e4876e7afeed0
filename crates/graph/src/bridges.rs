//! Bridge (cut-edge) detection.
//!
//! A bridge is an edge whose removal disconnects the graph. For the
//! failure analysis of §3 these are the links with *no* runtime detour:
//! milestone routing cannot route around them, so a deployment review
//! should flag them (`examples/failure_resilience.rs` counts the plan
//! traffic that crosses them). Classic Tarjan low-link algorithm, implemented
//! iteratively so deep topologies cannot overflow the stack.

use crate::adjacency::Graph;
use crate::node::NodeId;

/// Returns all bridges as `(a, b)` pairs with `a < b`, sorted.
pub fn bridges(graph: &Graph) -> Vec<(NodeId, NodeId)> {
    let n = graph.node_count();
    let mut disc = vec![0u32; n]; // discovery time, 0 = unvisited
    let mut low = vec![0u32; n];
    let mut timer = 1u32;
    let mut result = Vec::new();

    // Iterative DFS: (node, parent, neighbor cursor).
    let mut stack: Vec<(usize, Option<usize>, usize)> = Vec::new();
    for root in 0..n {
        if disc[root] != 0 {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        stack.push((root, None, 0));
        while let Some(&mut (v, parent, ref mut cursor)) = stack.last_mut() {
            let neighbors = graph.neighbors(NodeId::from_index(v));
            if *cursor < neighbors.len() {
                let u = neighbors[*cursor].index();
                *cursor += 1;
                if disc[u] == 0 {
                    disc[u] = timer;
                    low[u] = timer;
                    timer += 1;
                    stack.push((u, Some(v), 0));
                } else if Some(u) != parent {
                    low[v] = low[v].min(disc[u]);
                }
            } else {
                stack.pop();
                if let Some(p) = parent {
                    low[p] = low[p].min(low[v]);
                    if low[v] > disc[p] {
                        let (a, b) = if p < v { (p, v) } else { (v, p) };
                        result.push((NodeId::from_index(a), NodeId::from_index(b)));
                    }
                }
            }
        }
    }
    result.sort_unstable();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_edge_of_a_path_is_a_bridge() {
        let mut g = Graph::new(4);
        for i in 1..4 {
            g.add_edge(NodeId(i - 1), NodeId(i));
        }
        assert_eq!(
            bridges(&g),
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(3)),
            ]
        );
    }

    #[test]
    fn cycles_have_no_bridges() {
        let mut g = Graph::new(5);
        for i in 0..5 {
            g.add_edge(NodeId(i), NodeId((i + 1) % 5));
        }
        assert!(bridges(&g).is_empty());
    }

    #[test]
    fn lollipop_has_one_bridge() {
        // Triangle 0-1-2 plus pendant edge 2-3.
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        assert_eq!(bridges(&g), vec![(NodeId(2), NodeId(3))]);
    }

    #[test]
    fn bridge_between_two_cycles() {
        // Two triangles joined by edge 2-3.
        let mut g = Graph::new(6);
        for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            g.add_edge(NodeId(a), NodeId(b));
        }
        assert_eq!(bridges(&g), vec![(NodeId(2), NodeId(3))]);
    }

    #[test]
    fn disconnected_components_handled() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(2), NodeId(3));
        assert_eq!(
            bridges(&g),
            vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]
        );
    }

    #[test]
    fn removal_of_a_bridge_disconnects() {
        // Differential check on a random-ish fixed graph: removing each
        // reported bridge disconnects; removing each non-bridge does not.
        let mut g = Graph::new(8);
        for (a, b) in [
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 3),
            (5, 6),
            (6, 7),
        ] {
            g.add_edge(NodeId(a), NodeId(b));
        }
        let bs = bridges(&g);
        for (a, b) in g.edges() {
            let mut without = Graph::new(8);
            for (x, y) in g.edges() {
                if (x, y) != (a, b) {
                    without.add_edge(x, y);
                }
            }
            let disconnects = !without.is_connected();
            assert_eq!(
                bs.contains(&(a, b)),
                disconnects,
                "edge ({a},{b}) misclassified"
            );
        }
    }
}
