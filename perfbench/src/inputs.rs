//! Seeded inputs: the graphs each workload writes to an IPGB file before
//! timing, and the arc lists the oracles check results against.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use ipregel_graph::generators::rmat::{rmat_edges, RmatParams};
use ipregel_graph::loaders::binary::{read_binary, write_binary};
use ipregel_graph::{Graph, NeighborMode};

/// A generated graph over the dense ids `0..n`.
pub struct Input {
    /// Number of vertices.
    pub n: usize,
    /// Directed arcs, each undirected edge present in both directions.
    pub arcs: Vec<(u32, u32)>,
    /// The vertices traversals start from.
    pub sources: Vec<u32>,
}

/// Graph500 R-MAT with `2^scale` vertices and `8 · 2^scale` sampled
/// edges, symmetrised, without self-loops or duplicate arcs: about 16
/// arcs per vertex, with hubs holding most of them.
pub fn rmat(scale: u32, seed: u64) -> Input {
    let n = 1u32 << scale;
    let mut arcs = Vec::with_capacity(16 * n as usize);
    for (u, v) in rmat_edges(n, 8 * u64::from(n), RmatParams::GRAPH500, seed) {
        if u != v {
            arcs.push((u, v));
            arcs.push((v, u));
        }
    }
    arcs.sort_unstable();
    arcs.dedup();
    // Any vertex with an arc: R-MAT's giant component holds nearly all
    // of them, so every such source reaches about the same set.
    let mut has_arc = vec![false; n as usize];
    arcs.iter().for_each(|&(u, _)| has_arc[u as usize] = true);
    let sources = (0..n).filter(|&v| has_arc[v as usize]).collect();
    Input {
        n: n as usize,
        arcs,
        sources,
    }
}

impl Input {
    /// Write the graph as an IPGB file at `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        write_binary(&mut w, 0, self.n as u32, &self.arcs, None)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        w.flush()?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()
    }
}

/// Load the IPGB file at `path` with both neighbour directions, as the
/// pull engine and selection bypass need.
pub fn load(path: &Path) -> Graph {
    let file = File::open(path).expect("benchmark input file was written before timing");
    read_binary(BufReader::new(file), NeighborMode::Both)
        .expect("benchmark input file is a valid IPGB graph")
}

/// Where a workload keeps its input file for the length of one run.
pub fn input_path(dir: &Path, workload: &str, seed: u64) -> PathBuf {
    dir.join(format!("{workload}-seed{seed}.ipgb"))
}
