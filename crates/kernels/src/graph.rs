//! Graphs and generators for the BFS / PageRank evaluation.
//!
//! The paper evaluates both graph kernels on a 2^15-node graph. We generate
//! synthetic graphs with two standard models: uniform (Erdős–Rényi-flavoured
//! fixed average degree) and RMAT (Kronecker, power-law-ish), both
//! undirected and reproducible by seed.

use sdv_engine::Rng;

/// An undirected graph in CSR form.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Number of vertices.
    pub n: usize,
    /// Row offsets, length `n + 1`.
    pub row_ptr: Vec<u32>,
    /// Neighbour lists, ascending within each vertex.
    pub adj: Vec<u32>,
}

impl Graph {
    /// Build from an edge list (deduplicated, self-loops dropped, both
    /// directions inserted).
    ///
    /// One flat CSR pass, no per-vertex list: count degrees, prefix-sum them
    /// into segment starts, scatter both directions of every edge, then sort
    /// and deduplicate each segment while compacting `adj` in place.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut row_ptr = vec![0u32; n + 1];
        for &(u, v) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge ({u},{v}) out of range");
            if u != v {
                row_ptr[u as usize + 1] += 1;
                row_ptr[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut fill = row_ptr[..n].to_vec();
        let mut adj = vec![0u32; row_ptr[n] as usize];
        for &(u, v) in edges {
            if u != v {
                adj[fill[u as usize] as usize] = v;
                fill[u as usize] += 1;
                adj[fill[v as usize] as usize] = u;
                fill[v as usize] += 1;
            }
        }
        // Compact as we go: `kept <= lo`, so no write reaches an entry that
        // is still to be read.
        let mut kept = 0;
        for i in 0..n {
            let (lo, hi) = (row_ptr[i] as usize, row_ptr[i + 1] as usize);
            let start = kept;
            row_ptr[i] = start as u32;
            adj[lo..hi].sort_unstable();
            for k in lo..hi {
                if kept == start || adj[kept - 1] != adj[k] {
                    adj[kept] = adj[k];
                    kept += 1;
                }
            }
        }
        row_ptr[n] = kept as u32;
        adj.truncate(kept);
        Self { n, row_ptr, adj }
    }

    /// Number of directed edges stored (2× undirected edge count).
    pub fn num_edges(&self) -> usize {
        self.adj.len()
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.row_ptr[v + 1] - self.row_ptr[v]) as usize
    }

    /// Neighbours of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.row_ptr[v] as usize..self.row_ptr[v + 1] as usize]
    }

    /// Uniform random graph: `n * avg_degree / 2` undirected edges at
    /// uniform endpoints.
    pub fn uniform(n: usize, avg_degree: usize, seed: u64) -> Self {
        Self::from_edges(n, &uniform_edges(n, avg_degree, seed))
    }

    /// RMAT (Kronecker) graph with the canonical (0.57, 0.19, 0.19, 0.05)
    /// partition probabilities; `n = 2^scale` vertices.
    pub fn rmat(scale: u32, avg_degree: usize, seed: u64) -> Self {
        Self::from_edges(1 << scale, &rmat_edges(scale, avg_degree, seed))
    }

    /// The paper's evaluation instance: 2^15 vertices.
    pub fn paper_graph(seed: u64) -> Self {
        Self::uniform(1 << 15, 16, seed)
    }

    /// Host-side reference BFS. Returns levels (u32::MAX = unreachable).
    pub fn bfs_reference(&self, src: usize) -> Vec<u32> {
        let mut level = vec![u32::MAX; self.n];
        level[src] = 0;
        let mut frontier = vec![src as u32];
        let mut l = 0u32;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in self.neighbors(u as usize) {
                    if level[v as usize] == u32::MAX {
                        level[v as usize] = l + 1;
                        next.push(v);
                    }
                }
            }
            frontier = next;
            l += 1;
        }
        level
    }

    /// Host-side reference PageRank (pull, damping `d`, `iters` iterations).
    #[allow(clippy::needless_range_loop)] // vertex ids index several arrays
    pub fn pagerank_reference(&self, d: f64, iters: usize) -> Vec<f64> {
        let n = self.n as f64;
        let mut pr = vec![1.0 / n; self.n];
        let mut contrib = vec![0.0; self.n];
        for _ in 0..iters {
            for v in 0..self.n {
                let deg = self.degree(v);
                contrib[v] = if deg > 0 { pr[v] / deg as f64 } else { 0.0 };
            }
            for v in 0..self.n {
                let s: f64 = self.neighbors(v).iter().map(|&u| contrib[u as usize]).sum();
                pr[v] = (1.0 - d) / n + d * s;
            }
        }
        pr
    }
}

/// The edge list of [`Graph::uniform`].
fn uniform_edges(n: usize, avg_degree: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(seed);
    let m = n * avg_degree / 2;
    (0..m).map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32)).collect()
}

/// The edge list of [`Graph::rmat`].
fn rmat_edges(scale: u32, avg_degree: usize, seed: u64) -> Vec<(u32, u32)> {
    let n = 1usize << scale;
    let mut rng = Rng::new(seed);
    let m = n * avg_degree / 2;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            let r = rng.f64();
            let (bu, bv) = if r < 0.57 {
                (0, 0)
            } else if r < 0.76 {
                (0, 1)
            } else if r < 0.95 {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | bu;
            v = (v << 1) | bv;
        }
        edges.push((u, v));
    }
    edges
}

/// A SELL-style sliced layout of a graph's adjacency, used by the vectorized
/// BFS and PageRank: vertices grouped into slices of `c`, each slice stored
/// column-major and padded to its maximum degree with a sentinel vertex.
#[derive(Debug, Clone)]
pub struct SlicedGraph {
    /// Slice height.
    pub c: usize,
    /// Vertex count.
    pub n: usize,
    /// Sentinel vertex used as padding (must never satisfy update
    /// predicates; the kernels use the BFS source / a dedicated convention).
    pub pad: u32,
    /// Per-slice offset into `adj`, length `num_slices + 1`.
    pub slice_ptr: Vec<u64>,
    /// Per-slice padded width.
    pub slice_width: Vec<u32>,
    /// Column-major adjacency with padding.
    pub adj: Vec<u32>,
    /// Degrees per vertex (f64, for PageRank's contribution division).
    pub deg: Vec<f64>,
}

impl SlicedGraph {
    /// Build with slice height `c` and padding sentinel `pad`. Vertices are
    /// kept in natural order (no σ-sorting) so BFS level masks line up with
    /// vertex ids.
    pub fn new(g: &Graph, c: usize, pad: u32) -> Self {
        assert!(c > 0, "slice height must be positive");
        // `pad == n` is allowed: PageRank points padding at a phantom
        // vertex whose contribution slot is pinned to zero.
        assert!((pad as usize) <= g.n, "sentinel must be a vertex or the phantom n");
        let num_slices = g.n.div_ceil(c);
        let mut slice_ptr = Vec::with_capacity(num_slices + 1);
        let mut slice_width = Vec::with_capacity(num_slices);
        let mut adj = Vec::new();
        slice_ptr.push(0u64);
        for s in 0..num_slices {
            let lo = s * c;
            let hi = ((s + 1) * c).min(g.n);
            let h = hi - lo;
            let w = (lo..hi).map(|v| g.degree(v)).max().unwrap_or(0);
            for j in 0..w {
                for v in lo..hi {
                    let nb = g.neighbors(v);
                    adj.push(if j < nb.len() { nb[j] } else { pad });
                }
            }
            slice_width.push(w as u32);
            slice_ptr.push(slice_ptr[s] + (w * h) as u64);
        }
        let deg = (0..g.n).map(|v| g.degree(v) as f64).collect();
        Self { c, n: g.n, pad, slice_ptr, slice_width, adj, deg }
    }

    /// Number of slices.
    pub fn num_slices(&self) -> usize {
        self.slice_width.len()
    }

    /// Stored adjacency entries including padding.
    pub fn stored(&self) -> usize {
        self.adj.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i as u32, i as u32 + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    /// The per-vertex-list build that the flat CSR pass replaced, kept as
    /// the reference it must equal.
    fn from_edges_reference(n: usize, edges: &[(u32, u32)]) -> Graph {
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            if u != v {
                lists[u as usize].push(v);
                lists[v as usize].push(u);
            }
        }
        let mut row_ptr = vec![0u32];
        let mut adj = Vec::new();
        for mut l in lists {
            l.sort_unstable();
            l.dedup();
            adj.extend_from_slice(&l);
            row_ptr.push(adj.len() as u32);
        }
        Graph { n, row_ptr, adj }
    }

    #[test]
    fn from_edges_equals_the_per_vertex_list_reference() {
        let hand = vec![(0, 1), (1, 0), (2, 2), (1, 3), (0, 1), (3, 1), (6, 6), (6, 0), (3, 6)];
        let cases = [
            ("paper_graph(0x6AF)", 1 << 15, uniform_edges(1 << 15, 16, 0x6AF)),
            ("uniform(1 << 11, 16, 0x6AF)", 1 << 11, uniform_edges(1 << 11, 16, 0x6AF)),
            ("rmat(12, 16, 5)", 1 << 12, rmat_edges(12, 16, 5)),
            ("self-loops and duplicates", 8, hand),
        ];
        for (what, n, edges) in cases {
            let (g, want) = (Graph::from_edges(n, &edges), from_edges_reference(n, &edges));
            assert_eq!(g.n, want.n, "{what}");
            assert_eq!(g.row_ptr, want.row_ptr, "{what}");
            assert_eq!(g.adj, want.adj, "{what}");
        }
    }

    #[test]
    fn from_edges_symmetric_dedup() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 0), (2, 2), (1, 3)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert_eq!(g.neighbors(2), &[] as &[u32], "self-loop dropped");
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn uniform_degree_is_near_target() {
        let g = Graph::uniform(4096, 16, 3);
        let avg = g.num_edges() as f64 / g.n as f64;
        assert!((12.0..=16.5).contains(&avg), "avg degree {avg} (dedup loses a little)");
    }

    #[test]
    fn rmat_is_skewed() {
        let g = Graph::rmat(12, 16, 5);
        let max_deg = (0..g.n).map(|v| g.degree(v)).max().unwrap();
        let avg = g.num_edges() as f64 / g.n as f64;
        assert!(max_deg as f64 > 6.0 * avg, "RMAT should have hubs: max {max_deg}, avg {avg}");
    }

    #[test]
    fn generators_deterministic() {
        assert_eq!(Graph::uniform(500, 8, 7).adj, Graph::uniform(500, 8, 7).adj);
        assert_eq!(Graph::rmat(9, 8, 7).adj, Graph::rmat(9, 8, 7).adj);
    }

    #[test]
    fn bfs_reference_on_path() {
        let g = path_graph(5);
        assert_eq!(g.bfs_reference(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.bfs_reference(2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_reference_unreachable() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let l = g.bfs_reference(0);
        assert_eq!(l[0], 0);
        assert_eq!(l[1], 1);
        assert_eq!(l[2], u32::MAX);
        assert_eq!(l[3], u32::MAX);
    }

    #[test]
    fn pagerank_reference_sums_to_one() {
        let g = Graph::uniform(256, 8, 1);
        let pr = g.pagerank_reference(0.85, 30);
        let s: f64 = pr.iter().sum();
        // Dangling mass leaks slightly; uniform graphs rarely have isolated
        // vertices at degree 8, so the sum should be very close to 1.
        assert!((s - 1.0).abs() < 0.05, "sum {s}");
        assert!(pr.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn pagerank_star_center_ranks_highest() {
        let edges: Vec<(u32, u32)> = (1..16).map(|i| (0, i as u32)).collect();
        let g = Graph::from_edges(16, &edges);
        let pr = g.pagerank_reference(0.85, 50);
        let max_idx = (0..16).max_by(|&a, &b| pr[a].partial_cmp(&pr[b]).unwrap()).unwrap();
        assert_eq!(max_idx, 0);
    }

    #[test]
    fn sliced_graph_roundtrip() {
        let g = Graph::uniform(300, 6, 9);
        let s = SlicedGraph::new(&g, 64, 0);
        assert_eq!(s.num_slices(), 5);
        // Every real adjacency entry must appear in the sliced layout at the
        // right (vertex, j) position.
        for v in 0..g.n {
            let slice = v / s.c;
            let lane = v % s.c;
            let h = (g.n.min((slice + 1) * s.c)) - slice * s.c;
            let base = s.slice_ptr[slice] as usize;
            let nb = g.neighbors(v);
            for (j, &expected) in nb.iter().enumerate() {
                assert_eq!(s.adj[base + j * h + lane], expected, "v={v} j={j}");
            }
            // Padding beyond the degree.
            for j in nb.len()..s.slice_width[slice] as usize {
                assert_eq!(s.adj[base + j * h + lane], s.pad);
            }
        }
    }

    #[test]
    fn sliced_graph_degrees() {
        let g = path_graph(10);
        let s = SlicedGraph::new(&g, 4, 0);
        assert_eq!(s.deg[0], 1.0);
        assert_eq!(s.deg[5], 2.0);
        assert_eq!(s.deg[9], 1.0);
    }

    #[test]
    fn paper_graph_scale() {
        let g = Graph::paper_graph(1);
        assert_eq!(g.n, 1 << 15);
        assert!(g.num_edges() > 400_000, "2^15 nodes x ~16 degree");
    }
}
