//! Output checks, each against a computation the benchmark carries out
//! itself or a property the method must have — never against a stored
//! copy of earlier output.

use crate::load::Kept;
use crate::stack::{Stack, MODEL_SEED, WIDTHS};
use lsdgnn_framework::{SampleRequest, SamplingBackend};
use lsdgnn_graph::{AttributeStore, CsrGraph, NodeId};
use lsdgnn_nn::{Matrix, SageMaxLayer};
use lsdgnn_sampler::SampleBlock;

/// The streaming sampler's contract against the CSR graph: a node with
/// degree ≤ fanout yields its whole adjacency list; otherwise exactly
/// `fanout` children, child `g` from contiguous group `g` of the list
/// (groups of `n / k` entries, the first `n % k` one longer).
pub fn sample_contract(g: &CsrGraph, req: &SampleRequest, block: &SampleBlock) -> bool {
    if block.roots != req.roots
        || block.num_hops() != req.hops as usize
        || !block.has_adjacency()
        || block.adj_offsets.last().map(|&e| e as usize) != Some(block.nodes.len())
    {
        return false;
    }
    let r = block.roots.len();
    let k = req.fanout;
    (0..block.num_parents()).all(|j| {
        let v = if j < r {
            block.roots[j]
        } else {
            block.nodes[j - r]
        };
        let list = g.neighbors(v);
        let kids = block.children(j);
        if list.len() <= k {
            return kids == list;
        }
        if kids.len() != k {
            return false;
        }
        let (base, extra) = (list.len() / k, list.len() % k);
        let mut start = 0;
        kids.iter().enumerate().all(|(grp, kid)| {
            let len = base + usize::from(grp < extra);
            let hit = list[start..start + len].contains(kid);
            start += len;
            hit
        })
    })
}

/// Gathered rows equal the attribute store's rows, entry by entry.
pub fn rows_match(attrs: &AttributeStore, fetch: &[NodeId], rows: &Matrix, slots: &[u32]) -> bool {
    slots.len() == fetch.len()
        && rows.shape().1 == attrs.attr_len()
        && fetch.iter().zip(slots).all(|(&v, &s)| {
            (s as usize) < rows.shape().0 && bits(rows.row(s as usize)) == bits(attrs.get(v))
        })
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

pub fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape() && (0..a.shape().0).all(|r| bits(a.row(r)) == bits(b.row(r)))
}

fn rows_of(m: &Matrix, range: std::ops::Range<usize>) -> Matrix {
    let rows: Vec<&[f32]> = range.map(|r| m.row(r)).collect();
    Matrix::from_rows(&rows)
}

/// Root embeddings recomputed one request at a time through the
/// unpooled nested `SageMaxLayer::forward`, with layers rebuilt from
/// the served model's widths and seeds and features read straight from
/// the attribute store.
pub fn nested_forward(attrs: &AttributeStore, block: &SampleBlock) -> Matrix {
    let layers: Vec<SageMaxLayer> = WIDTHS
        .windows(2)
        .enumerate()
        .map(|(i, w)| SageMaxLayer::new(w[0], w[1], MODEL_SEED + 17 * i as u64))
        .collect();
    let r = block.roots.len();
    let h = layers.len();
    let entries: Vec<&[f32]> = block
        .roots
        .iter()
        .chain(&block.nodes)
        .map(|&v| attrs.get(v))
        .collect();
    let mut cur = Matrix::from_rows(&entries);
    for (k, layer) in layers.iter().enumerate() {
        // Layer k+1 embeds roots plus hops 0..h-k-1; children of entry j
        // are node-plane positions adj_offsets[j-1]..adj_offsets[j].
        let targets = r + block.hop_offsets[h - 1 - k] as usize;
        let adjacency: Vec<Vec<usize>> = (0..targets)
            .map(|j| {
                let start = if j == 0 {
                    0
                } else {
                    block.adj_offsets[j - 1] as usize
                };
                (start..block.adj_offsets[j] as usize).collect()
            })
            .collect();
        let nodes = rows_of(&cur, 0..targets);
        let neighbors = rows_of(&cur, r..cur.shape().0);
        cur = layer.forward(&nodes, &neighbors, &adjacency);
    }
    cur
}

/// Checks a reply kept from a timed phase against the same request
/// served alone by the backend (the batching check) and against the
/// independent computations above.
pub fn kept_reply(stack: &Stack, req: &SampleRequest, kept: &Kept) -> bool {
    let alone = stack.backend.sample_block(req);
    let ok = sample_contract(&stack.graph, req, &alone)
        && match kept {
            Kept::Embeddings(emb) => same_bits(emb, &nested_forward(&stack.attrs, &alone)),
            Kept::Gathered { block, rows_match } => *rows_match && block.digest() == alone.digest(),
            Kept::Block(block) => block.digest() == alone.digest(),
        };
    stack.backend.recycle(alone);
    ok
}
