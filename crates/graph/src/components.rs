//! Connected components.
//!
//! Algorithm 1 of the paper (balanced partitioning) explicitly handles
//! disconnected inputs, and Algorithm 2 re-distributes the connected
//! components that appear after removing a vertex cut. Both use the helpers
//! in this module.

use crate::graph::Graph;
use crate::types::Vertex;

/// Result of a connected-components computation.
#[derive(Debug, Clone)]
pub struct ComponentLabels {
    /// Component id per vertex (`0..num_components`).
    pub label: Vec<u32>,
    /// Number of vertices per component id.
    pub sizes: Vec<usize>,
}

impl ComponentLabels {
    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.sizes.len()
    }

    /// Groups all vertices by component, ordered by component id. Vertices
    /// outside the mask (label `u32::MAX`) are skipped.
    pub fn groups(&self) -> Vec<Vec<Vertex>> {
        let mut out = vec![Vec::new(); self.sizes.len()];
        for (v, &l) in self.label.iter().enumerate() {
            if l != u32::MAX {
                out[l as usize].push(v as Vertex);
            }
        }
        out
    }
}

/// Computes connected components with an iterative DFS.
pub fn connected_components(g: &Graph) -> ComponentLabels {
    connected_components_masked(g, None)
}

/// Connected components of the graph induced by the vertices where
/// `mask[v] == true`. Vertices outside the mask get label `u32::MAX` and do
/// not contribute to any component. With `mask == None` all vertices are
/// considered.
pub fn connected_components_masked(g: &Graph, mask: Option<&[bool]>) -> ComponentLabels {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    let mut stack = Vec::new();
    let alive = |v: usize| mask.is_none_or(|m| m[v]);
    for start in 0..n {
        if label[start] != u32::MAX || !alive(start) {
            continue;
        }
        let comp = sizes.len() as u32;
        let mut size = 0usize;
        label[start] = comp;
        stack.push(start as Vertex);
        while let Some(v) = stack.pop() {
            size += 1;
            for e in g.neighbors(v) {
                let u = e.to as usize;
                if alive(u) && label[u] == u32::MAX {
                    label[u] = comp;
                    stack.push(e.to);
                }
            }
        }
        sizes.push(size);
    }
    ComponentLabels { label, sizes }
}

/// `true` if the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    if g.num_vertices() == 0 {
        return true;
    }
    connected_components(g).num_components() == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::toy::paper_figure1;

    #[test]
    fn single_component() {
        let g = paper_figure1();
        let cc = connected_components(&g);
        assert_eq!(cc.num_components(), 1);
        assert_eq!(cc.sizes[0], 16);
        assert!(is_connected(&g));
    }

    #[test]
    fn multiple_components_and_sizes() {
        // Two triangles and an isolated vertex.
        let g = GraphBuilder::from_edges(
            7,
            &[
                (0, 1, 1),
                (1, 2, 1),
                (0, 2, 1),
                (3, 4, 1),
                (4, 5, 1),
                (3, 5, 1),
            ],
        );
        let cc = connected_components(&g);
        assert_eq!(cc.num_components(), 3);
        let mut sizes = cc.sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 3, 3]);
        assert!(!is_connected(&g));
        assert_eq!(cc.groups().iter().map(|g| g.len()).sum::<usize>(), 7);
    }

    #[test]
    fn masked_components_ignore_removed_vertices() {
        // Path 0-1-2-3-4; masking out 2 splits it in two.
        let g = GraphBuilder::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]);
        let mask = vec![true, true, false, true, true];
        let cc = connected_components_masked(&g, Some(&mask));
        assert_eq!(cc.num_components(), 2);
        assert_eq!(cc.label[2], u32::MAX);
        let mut sizes = cc.sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2]);
    }

    #[test]
    fn groups_skip_masked_out_vertices() {
        let g = GraphBuilder::from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]);
        let mask = [true, true, false, true, true];
        let cc = connected_components_masked(&g, Some(&mask[..]));
        assert_eq!(cc.groups(), [vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = Graph::with_vertices(0);
        assert!(is_connected(&g));
    }

    use crate::graph::Graph;
}
