//! # onion-graph
//!
//! Graph substrate for the OnionBots (DSN 2015) reproduction: the undirected
//! [`graph::Graph`] structure the overlay simulations mutate, the k-regular
//! [`generators`] the paper's evaluation starts from, the centrality and
//! diameter [`metrics`] it reports, and the connected-component analysis
//! ([`components`]) behind the partitioning experiments. Measurement-phase
//! traversals freeze the slab into a read-only [`csr::CsrSnapshot`] and fan
//! BFS sources across the deterministic multi-source kernel
//! ([`metrics::parallel_bfs_from_sources`]) under the [`budget`]-governed
//! thread budget.
//!
//! ```
//! use onion_graph::generators::random_regular;
//! use onion_graph::metrics::average_degree_centrality;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let (graph, _ids) = random_regular(100, 10, &mut rng);
//! let centrality = average_degree_centrality(&graph);
//! assert!((centrality - 10.0 / 99.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod components;
pub mod csr;
pub mod generators;
pub mod graph;
pub mod metrics;

pub use csr::CsrSnapshot;
pub use graph::{Graph, NodeId};

#[cfg(test)]
mod property_tests {
    //! Property-based tests of the core graph invariants.

    use crate::components::{component_count, largest_component_size};
    use crate::csr::CsrSnapshot;
    use crate::generators::random_regular;
    use crate::graph::Graph;
    use crate::metrics::{
        average_degree_centrality, bfs_distances, diameter, parallel_bfs_from_sources, BfsStats,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Applies a random churn trace (node adds, edge adds/removes, node
    /// removals — i.e. tombstones) to a small seed graph.
    fn churned_graph(ops: &[(usize, usize, u8)]) -> Graph {
        let (mut g, mut ids) = Graph::with_nodes(8);
        for &(a, b, op) in ops {
            match op {
                0 => ids.push(g.add_node()),
                1 | 2 => {
                    g.add_edge(ids[a % ids.len()], ids[b % ids.len()]);
                }
                3 => {
                    g.remove_edge(ids[a % ids.len()], ids[b % ids.len()]);
                }
                _ => {
                    g.remove_node(ids[a % ids.len()]);
                }
            }
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Randomly interleaved edge insertions/removals never violate the
        /// graph's structural invariants.
        #[test]
        fn random_mutations_preserve_invariants(ops in prop::collection::vec((0usize..20, 0usize..20, prop::bool::ANY), 1..200)) {
            let (mut g, ids) = Graph::with_nodes(20);
            for (a, b, add) in ops {
                if add {
                    g.add_edge(ids[a], ids[b]);
                } else {
                    g.remove_edge(ids[a], ids[b]);
                }
                prop_assert!(g.check_invariants().is_ok());
            }
        }

        /// Deleting nodes never increases the number of edges and keeps
        /// invariants intact.
        #[test]
        fn node_deletions_preserve_invariants(seed in 0u64..1000, deletions in 1usize..30) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut g, ids) = random_regular(40, 4, &mut rng);
            let mut prev_edges = g.edge_count();
            for id in ids.iter().take(deletions) {
                g.remove_node(*id);
                prop_assert!(g.edge_count() <= prev_edges);
                prev_edges = g.edge_count();
                prop_assert!(g.check_invariants().is_ok());
            }
        }

        /// BFS distances satisfy the triangle property along edges: adjacent
        /// nodes' distances from any source differ by at most 1.
        #[test]
        fn bfs_distance_is_lipschitz_along_edges(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, ids) = random_regular(30, 4, &mut rng);
            let dist = bfs_distances(&g, ids[0]);
            for (a, b) in g.edges() {
                if let (Some(da), Some(db)) = (dist.get(a), dist.get(b)) {
                    prop_assert!(da.abs_diff(db) <= 1);
                }
            }
        }

        /// Slab-core invariants under arbitrary interleaved mutations:
        /// the degree sum is exactly twice the edge count, neighbor lists
        /// stay strictly sorted (no self loops, no parallel edges), and
        /// deleted ids are never handed out again.
        #[test]
        fn slab_invariants_under_churn(ops in prop::collection::vec((0usize..24, 0usize..24, 0u8..5), 1..250)) {
            let (mut g, mut ids) = Graph::with_nodes(8);
            let mut deleted: Vec<crate::graph::NodeId> = Vec::new();
            for (a, b, op) in ops {
                match op {
                    0 => {
                        let id = g.add_node();
                        prop_assert!(!ids.contains(&id), "fresh id must be new");
                        prop_assert!(!deleted.contains(&id), "deleted ids are never reused");
                        ids.push(id);
                    }
                    1 | 2 => { g.add_edge(ids[a % ids.len()], ids[b % ids.len()]); }
                    3 => { g.remove_edge(ids[a % ids.len()], ids[b % ids.len()]); }
                    _ => {
                        let victim = ids[a % ids.len()];
                        if g.remove_node(victim).is_some() {
                            deleted.push(victim);
                        }
                    }
                }
                // check_invariants covers symmetry, sortedness (hence no
                // parallel edges), self loops and the half-edge count.
                prop_assert!(g.check_invariants().is_ok());
                let degree_sum: usize = g.nodes().iter().map(|&n| g.degree(n).unwrap()).sum();
                prop_assert_eq!(degree_sum, 2 * g.edge_count());
                for &n in &g.nodes() {
                    let list = g.neighbors(n).unwrap();
                    prop_assert!(list.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
                }
            }
        }

        /// A `CsrSnapshot` round-trips the slab graph under random churn:
        /// live nodes, neighbor slices (order included) and the
        /// tombstone/isolated distinction all survive the freeze.
        #[test]
        fn csr_snapshot_roundtrips_the_slab_under_churn(ops in prop::collection::vec((0usize..32, 0usize..32, 0u8..5), 1..250)) {
            let g = churned_graph(&ops);
            let csr = CsrSnapshot::build(&g);
            prop_assert_eq!(csr.id_bound(), g.id_bound());
            prop_assert_eq!(csr.node_count(), g.node_count());
            prop_assert_eq!(csr.edge_count(), g.edge_count());
            prop_assert_eq!(csr.live_nodes(), g.nodes());
            for i in 0..g.id_bound() {
                let node = crate::graph::NodeId(i);
                prop_assert_eq!(csr.contains(node), g.contains(node));
                match g.neighbors(node) {
                    Some(neighbors) => prop_assert_eq!(csr.neighbors(node), neighbors),
                    None => prop_assert_eq!(csr.neighbors(node), &[] as &[crate::graph::NodeId]),
                }
            }
        }

        /// The multi-source kernel is byte-identical to sequential
        /// per-source `bfs_distances` at every thread count, on churned
        /// graphs whose id space contains tombstones.
        #[test]
        fn parallel_kernel_equals_sequential_bfs_at_any_thread_count(ops in prop::collection::vec((0usize..32, 0usize..32, 0u8..5), 1..120)) {
            let g = churned_graph(&ops);
            // Sweep every id ever allocated: live sources and tombstoned
            // sources must both behave identically at any thread count.
            let sources: Vec<crate::graph::NodeId> =
                (0..g.id_bound()).map(crate::graph::NodeId).collect();
            let csr = CsrSnapshot::build(&g);
            let reference: Vec<BfsStats> = sources
                .iter()
                .map(|&s| {
                    let map = bfs_distances(&g, s);
                    BfsStats {
                        eccentricity: map.max().unwrap_or(0),
                        total_distance: map.total() as u64,
                        reached: map.reached_count(),
                    }
                })
                .collect();
            for threads in [1usize, 2, 8] {
                let kernel = parallel_bfs_from_sources(&csr, &sources, threads);
                prop_assert_eq!(&kernel, &reference, "threads={}", threads);
            }
        }

        /// Bulk edge insertion (unsorted batch, one deferred sort per
        /// touched list) is equivalent to sequential `add_edge` over the
        /// same batch — same resulting graph, same number of edges added —
        /// for arbitrary batches full of duplicates, self loops and
        /// references to tombstoned nodes, against arbitrary churned base
        /// graphs. The partitioned variant must agree at every thread
        /// count and under degenerate shard bounds.
        #[test]
        fn bulk_insertion_equals_sequential_insertion_under_churn(
            ops in prop::collection::vec((0usize..24, 0usize..24, 0u8..5), 0..120),
            batch in prop::collection::vec((0usize..40, 0usize..40), 0..150),
            cuts in prop::collection::vec(0usize..40, 0..6),
        ) {
            let base = churned_graph(&ops);
            let bound = base.id_bound().max(1);
            let edges: Vec<(crate::graph::NodeId, crate::graph::NodeId)> = batch
                .iter()
                .map(|&(a, b)| (crate::graph::NodeId(a % bound), crate::graph::NodeId(b % bound)))
                .collect();

            let mut sequential = base.clone();
            let mut seq_added = 0usize;
            for &(a, b) in &edges {
                if sequential.add_edge(a, b) {
                    seq_added += 1;
                }
            }

            let mut bulk = base.clone();
            prop_assert_eq!(bulk.add_edges_bulk(&edges), seq_added);
            prop_assert_eq!(&bulk, &sequential);
            prop_assert!(bulk.check_invariants().is_ok());

            for threads in [1usize, 3, 8] {
                let mut partitioned = base.clone();
                prop_assert_eq!(
                    partitioned.add_edges_bulk_partitioned(&edges, &cuts, threads),
                    seq_added,
                    "threads={}", threads
                );
                prop_assert_eq!(&partitioned, &sequential, "threads={}", threads);
            }
        }

        /// Partitioned per-node edge removal equals selecting every drop
        /// against the prior graph and then applying them with
        /// `remove_edge` — same graph, each edge counted once even when
        /// both endpoints select it — at every thread count, for arbitrary
        /// cut vectors, tombstoned entries in `nodes`, and selections
        /// that name non-neighbors or repeat a peer.
        #[test]
        fn partitioned_removal_equals_select_then_remove(
            ops in prop::collection::vec((0usize..24, 0usize..24, 0u8..5), 0..120),
            picks in prop::collection::vec(0usize..40, 0..30),
            cuts in prop::collection::vec(0usize..40, 0..6),
            salt in 0usize..5,
        ) {
            use crate::graph::NodeId;
            let base = churned_graph(&ops);
            let bound = base.id_bound().max(1);
            let mut nodes: Vec<NodeId> = picks.iter().map(|&p| NodeId(p % bound)).collect();
            nodes.sort_unstable();
            nodes.dedup();
            // Drop every peer whose id hits the salt (two such peers drop
            // each other), plus a repeat of the first and a non-neighbor.
            let select = |neighbors: &[NodeId], drops: &mut Vec<NodeId>| {
                drops.extend(neighbors.iter().filter(|p| p.0 % 5 == salt));
                drops.extend(neighbors.first());
                drops.extend(neighbors.first());
                drops.push(NodeId(bound + 7));
            };

            let mut expected = base.clone();
            let mut expected_removed = 0usize;
            let mut drops = Vec::new();
            for &node in &nodes {
                let Some(neighbors) = base.neighbors(node) else { continue };
                drops.clear();
                select(neighbors, &mut drops);
                for &peer in &drops {
                    if expected.remove_edge(node, peer) {
                        expected_removed += 1;
                    }
                }
            }

            for threads in [1usize, 3, 8] {
                let mut partitioned = base.clone();
                let removed = partitioned.remove_edges_partitioned(
                    &nodes,
                    &cuts,
                    threads,
                    |_| (),
                    |_, neighbors, drops| select(neighbors, drops),
                );
                prop_assert_eq!(removed, expected_removed, "threads={}", threads);
                prop_assert_eq!(&partitioned, &expected, "threads={}", threads);
                prop_assert!(partitioned.check_invariants().is_ok());
            }
        }

        /// Degree centrality of a k-regular graph is exactly k/(n-1) and the
        /// diameter of a connected instance is sane.
        #[test]
        fn regular_graph_metrics_are_consistent(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 40usize;
            let k = 6usize;
            let (g, _) = random_regular(n, k, &mut rng);
            prop_assert!((average_degree_centrality(&g) - k as f64 / (n - 1) as f64).abs() < 1e-12);
            if component_count(&g) == 1 {
                let d = diameter(&g).unwrap();
                prop_assert!(d >= 2);
                prop_assert!(d < n);
            }
            prop_assert!(largest_component_size(&g) <= n);
        }
    }
}
