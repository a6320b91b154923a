//! Compressed-sparse-row graph representation.

use std::fmt;

/// An immutable directed graph in compressed-sparse-row form.
///
/// Vertices are `0..num_vertices()` (`u32`); edges of vertex `v` occupy
/// `offsets[v]..offsets[v+1]` in the edge array. Optional per-edge weights
/// share the edge array's indexing.
///
/// # Examples
///
/// ```
/// use batmem_graph::CsrBuilder;
///
/// let g = CsrBuilder::new(3)
///     .edge(0, 1)
///     .edge(0, 2)
///     .edge(2, 0)
///     .build();
/// assert_eq!(g.degree(0), 2);
/// assert_eq!(g.neighbors(2), &[0]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Csr {
    num_vertices: u32,
    offsets: Vec<u64>,
    edges: Vec<u32>,
    weights: Option<Vec<u32>>,
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Csr")
            .field("num_vertices", &self.num_vertices)
            .field("num_edges", &self.edges.len())
            .field("weighted", &self.weights.is_some())
            .finish()
    }
}

impl Csr {
    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Whether per-edge weights are present.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices()`.
    pub fn degree(&self, v: u32) -> u32 {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as u32
    }

    /// Start of `v`'s adjacency run in the edge array.
    pub fn edge_start(&self, v: u32) -> u64 {
        self.offsets[v as usize]
    }

    /// Neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.edges[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Edge weights of `v`, parallel to [`Csr::neighbors`].
    ///
    /// Returns an empty slice for unweighted graphs.
    pub fn weights_of(&self, v: u32) -> &[u32] {
        match &self.weights {
            None => &[],
            Some(w) => {
                let v = v as usize;
                &w[self.offsets[v] as usize..self.offsets[v + 1] as usize]
            }
        }
    }

    /// The full offsets array (length `num_vertices() + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The full edge array.
    pub fn edges(&self) -> &[u32] {
        &self.edges
    }

    /// A vertex of maximal out-degree (a good traversal source for
    /// power-law graphs; ties break to the lowest id).
    pub fn max_degree_vertex(&self) -> u32 {
        (0..self.num_vertices).max_by_key(|&v| (self.degree(v), std::cmp::Reverse(v))).unwrap_or(0)
    }

    /// The memory footprint, in bytes, of the graph's device-visible arrays
    /// (offsets as 8-byte, edges as 4-byte, weights as 4-byte entries).
    pub fn footprint_bytes(&self) -> u64 {
        let w = if self.weights.is_some() { 4 * self.edges.len() as u64 } else { 0 };
        8 * (self.offsets.len() as u64) + 4 * self.edges.len() as u64 + w
    }

    /// Returns this graph with per-edge `weights`, given in edge-array
    /// order (parallel to [`Csr::edges`]); any existing weights are
    /// replaced.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != num_edges()`.
    pub fn with_weights(mut self, weights: Vec<u32>) -> Csr {
        assert_eq!(weights.len(), self.edges.len(), "with_weights needs one weight per edge");
        self.weights = Some(weights);
        self
    }

    /// Returns an undirected (symmetrized, deduplicated, loop-free) copy of
    /// this graph: for every edge `u -> v` with `u != v`, both `u -> v` and
    /// `v -> u` appear exactly once, and each adjacency run is sorted.
    /// Weights are dropped.
    ///
    /// Algorithms that require symmetric adjacency (e.g. Jones-Plassmann
    /// coloring, k-core) should run on a symmetrized graph.
    pub fn symmetrized(&self) -> Csr {
        // Counting-sort both directions of every non-loop edge by source...
        let n = self.num_vertices as usize;
        let mut offsets = vec![0u64; n + 1];
        for v in 0..self.num_vertices {
            for &t in self.neighbors(v) {
                if t != v {
                    offsets[v as usize + 1] += 1;
                    offsets[t as usize + 1] += 1;
                }
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut edges = vec![0u32; offsets[n] as usize];
        for v in 0..self.num_vertices {
            for &t in self.neighbors(v) {
                if t != v {
                    edges[cursor[v as usize] as usize] = t;
                    cursor[v as usize] += 1;
                    edges[cursor[t as usize] as usize] = v;
                    cursor[t as usize] += 1;
                }
            }
        }
        // ...then sort and deduplicate each run, compacting the runs in
        // place: the write position `len` never passes the read position.
        let mut len = 0;
        let mut start = 0;
        for v in 0..n {
            let end = offsets[v + 1] as usize;
            edges[start..end].sort_unstable();
            offsets[v] = len as u64;
            let first = len;
            for i in start..end {
                let t = edges[i];
                if len == first || edges[len - 1] != t {
                    edges[len] = t;
                    len += 1;
                }
            }
            start = end;
        }
        offsets[n] = len as u64;
        edges.truncate(len);
        edges.shrink_to_fit();
        let csr = Csr { num_vertices: self.num_vertices, offsets, edges, weights: None };
        debug_assert_eq!(csr.check_invariants(), Ok(()));
        csr
    }

    /// Checks the CSR invariants; used by tests and the builder.
    ///
    /// Invariants: offsets are monotone, start at 0, end at `num_edges`,
    /// and every edge target is a valid vertex.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.offsets.len() != self.num_vertices as usize + 1 {
            return Err(format!(
                "offsets length {} != num_vertices + 1 ({})",
                self.offsets.len(),
                self.num_vertices + 1
            ));
        }
        if self.offsets.first() != Some(&0) {
            return Err("offsets must start at 0".into());
        }
        if *self.offsets.last().unwrap() != self.edges.len() as u64 {
            return Err("offsets must end at num_edges".into());
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be monotone".into());
        }
        if let Some(&bad) = self.edges.iter().find(|&&t| t >= self.num_vertices) {
            return Err(format!("edge target {bad} out of range"));
        }
        if let Some(w) = &self.weights {
            if w.len() != self.edges.len() {
                return Err("weights length must match edges".into());
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`Csr`] graphs from an edge list.
///
/// Edges may be added in any order; `build` counting-sorts them by source.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    num_vertices: u32,
    srcs: Vec<u32>,
    dsts: Vec<u32>,
    weights: Vec<u32>,
    weighted: bool,
}

impl CsrBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: u32) -> Self {
        Self {
            num_vertices,
            srcs: Vec::new(),
            dsts: Vec::new(),
            weights: Vec::new(),
            weighted: false,
        }
    }

    /// A builder with room for `edges` unweighted edges, for generators
    /// that know their edge count up front.
    pub(crate) fn with_capacity(num_vertices: u32, edges: usize) -> Self {
        Self {
            srcs: Vec::with_capacity(edges),
            dsts: Vec::with_capacity(edges),
            ..Self::new(num_vertices)
        }
    }

    /// Adds an unweighted directed edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, or if weighted edges were
    /// previously added.
    pub fn edge(mut self, src: u32, dst: u32) -> Self {
        self.push_edge(src, dst);
        self
    }

    /// [`CsrBuilder::edge`] in place.
    pub(crate) fn push_edge(&mut self, src: u32, dst: u32) {
        assert!(!self.weighted, "cannot mix weighted and unweighted edges");
        self.push(src, dst, 0);
    }

    /// Adds a weighted directed edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, or if unweighted edges
    /// were previously added.
    pub fn weighted_edge(mut self, src: u32, dst: u32, weight: u32) -> Self {
        assert!(
            self.weighted || self.srcs.is_empty(),
            "cannot mix weighted and unweighted edges"
        );
        self.weighted = true;
        self.push(src, dst, weight);
        self
    }

    fn push(&mut self, src: u32, dst: u32, weight: u32) {
        assert!(src < self.num_vertices, "edge source {src} out of range");
        assert!(dst < self.num_vertices, "edge target {dst} out of range");
        self.srcs.push(src);
        self.dsts.push(dst);
        if self.weighted {
            self.weights.push(weight);
        }
    }

    /// Adds many unweighted edges.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CsrBuilder::edge`].
    pub fn edges<I: IntoIterator<Item = (u32, u32)>>(mut self, iter: I) -> Self {
        for (s, d) in iter {
            self.push_edge(s, d);
        }
        self
    }

    /// Number of edges added so far.
    pub fn len(&self) -> usize {
        self.srcs.len()
    }

    /// Whether no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }

    /// Finalizes the CSR: counting-sorts edges by source vertex (stable, so
    /// insertion order of a vertex's edges is preserved).
    pub fn build(self) -> Csr {
        let n = self.num_vertices as usize;
        let mut offsets = vec![0u64; n + 1];
        for &s in &self.srcs {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut edges = vec![0u32; self.srcs.len()];
        let mut weights = if self.weighted { vec![0u32; self.srcs.len()] } else { Vec::new() };
        for i in 0..self.srcs.len() {
            let s = self.srcs[i] as usize;
            let at = cursor[s] as usize;
            edges[at] = self.dsts[i];
            if self.weighted {
                weights[at] = self.weights[i];
            }
            cursor[s] += 1;
        }
        let csr = Csr {
            num_vertices: self.num_vertices,
            offsets,
            edges,
            weights: if self.weighted { Some(weights) } else { None },
        };
        debug_assert_eq!(csr.check_invariants(), Ok(()));
        csr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        CsrBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
            .build()
    }

    #[test]
    fn builder_produces_sorted_adjacency_runs() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[0]);
        assert_eq!(g.degree(1), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn build_is_stable_within_vertex() {
        let g = CsrBuilder::new(2).edge(0, 1).edge(0, 0).edge(0, 1).build();
        assert_eq!(g.neighbors(0), &[1, 0, 1]);
    }

    #[test]
    fn weighted_edges_parallel_neighbors() {
        let g = CsrBuilder::new(3)
            .weighted_edge(0, 1, 10)
            .weighted_edge(0, 2, 20)
            .weighted_edge(1, 2, 5)
            .build();
        assert!(g.is_weighted());
        assert_eq!(g.weights_of(0), &[10, 20]);
        assert_eq!(g.weights_of(1), &[5]);
        assert_eq!(g.weights_of(2), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "cannot mix")]
    fn mixing_weighted_and_unweighted_panics() {
        let _ = CsrBuilder::new(2).edge(0, 1).weighted_edge(1, 0, 3);
    }

    #[test]
    fn with_weights_attaches_in_edge_order() {
        let g = diamond().with_weights(vec![1, 2, 3, 4, 5]);
        assert_eq!(g.weights_of(0), &[1, 2]);
        assert_eq!(g.weights_of(3), &[5]);
        g.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "one weight per edge")]
    fn with_weights_checks_the_length() {
        let _ = diamond().with_weights(vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = CsrBuilder::new(2).edge(0, 5);
    }

    #[test]
    fn isolated_vertices_have_zero_degree() {
        let g = CsrBuilder::new(10).edge(0, 9).build();
        for v in 1..9 {
            assert_eq!(g.degree(v), 0);
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn max_degree_vertex_breaks_ties_low() {
        let g = CsrBuilder::new(3).edge(0, 1).edge(2, 1).build();
        assert_eq!(g.max_degree_vertex(), 0);
    }

    #[test]
    fn footprint_counts_arrays() {
        let g = diamond();
        // offsets: 5 * 8, edges: 5 * 4.
        assert_eq!(g.footprint_bytes(), 40 + 20);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = CsrBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn debug_is_compact() {
        let s = format!("{:?}", diamond());
        assert!(s.contains("num_vertices: 4"));
        assert!(s.contains("num_edges: 5"));
    }
}
