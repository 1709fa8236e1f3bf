//! Control flow graph (paper §IV, Definition 1).
//!
//! A [`Cfg`] is a directed graph `G = (V, E, v0, S)`: nodes either fork/join
//! control flow or are **state nodes** (clock boundaries; `wait()` calls in
//! the paper's SystemC input). Every DFG operation is associated with a CFG
//! edge (its *birth* edge).
//!
//! Two refinements over the paper's minimal definition:
//!
//! * State nodes are tagged [`StateKind::Hard`] (explicit `wait()` in the
//!   source) or [`StateKind::Soft`] (inserted to give the scheduler extra
//!   cycles under a latency budget). Timing treats both as clock boundaries;
//!   code-motion legality only allows *sinking* an operation across soft
//!   states (see [`crate::span`]).
//! * Edges record which branch of a fork they implement, so the interpreter
//!   and netlist generator can evaluate conditions.
//!
//! All derived facts (topological orders, dominators, latency tables,
//! reachability, loop membership, same-cycle co-execution) live in
//! [`CfgInfo`], an immutable analysis snapshot produced by [`Cfg::analyze`].
//! The analysis groups edges by source and by target node once, and every
//! pass walks those two arrays. One dominator routine runs twice over the
//! forward DAG, for node dominators and node post-dominators, and edge
//! dominance is read off those node trees: edge `a` dominates edge `b`
//! when `a` is the only forward edge into its head and that head
//! dominates `b`'s tail (post-dominance mirrors it). Same-cycle pairs come
//! from walks through non-state nodes.

use crate::error::{Error, Result};
use crate::OpId;
use std::fmt;

/// Identifier of a CFG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a CFG edge. DFG operations are born on, and scheduled to,
/// edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Whether a state node came from the source program or was inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateKind {
    /// An explicit synchronization point (`wait()`): observable, operations
    /// may not be sunk across it.
    Hard,
    /// A scheduler-inserted state from a latency budget: operations may sink
    /// across it freely.
    Soft,
}

/// The kind of a CFG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The unique start node `v0`.
    Start,
    /// A clock boundary.
    State(StateKind),
    /// A two-way conditional fork; the branch condition is a DFG operation.
    Fork,
    /// A control join (including loop headers).
    Join,
    /// A structural node with no special meaning.
    Plain,
}

impl NodeKind {
    /// True for state nodes of either kind.
    #[must_use]
    pub fn is_state(self) -> bool {
        matches!(self, NodeKind::State(_))
    }
}

#[derive(Debug, Clone)]
struct NodeData {
    kind: NodeKind,
    /// Branch condition for `Fork` nodes (filled in during elaboration).
    cond: Option<OpId>,
    name: Option<String>,
}

#[derive(Debug, Clone)]
struct EdgeData {
    from: NodeId,
    to: NodeId,
    /// Which fork branch this edge implements (`Some(true)` = taken branch).
    branch: Option<bool>,
    /// Filled by back-edge classification in [`Cfg::analyze`]; edges added
    /// with [`Cfg::add_back_edge`] are pre-marked.
    back: bool,
}

/// Mutable control flow graph. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Cfg {
    name: String,
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    start: Option<NodeId>,
}

impl Cfg {
    /// Creates an empty CFG with a design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Cfg {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            start: None,
        }
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a node of the given kind and returns its id. The first `Start`
    /// node added becomes the CFG's start node.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            kind,
            cond: None,
            name: None,
        });
        if kind == NodeKind::Start && self.start.is_none() {
            self.start = Some(id);
        }
        id
    }

    /// Re-kinds a node (used by the builder to turn a provisional tail node
    /// into a state/fork/join as the design grows).
    ///
    /// # Panics
    ///
    /// Panics if `n` is the start node and `kind` is not [`NodeKind::Start`].
    pub fn set_node_kind(&mut self, n: NodeId, kind: NodeKind) {
        if self.start == Some(n) {
            assert_eq!(kind, NodeKind::Start, "cannot re-kind the start node");
        }
        self.nodes[n.0 as usize].kind = kind;
    }

    /// Attaches a human-readable name to a node.
    pub fn set_node_name(&mut self, n: NodeId, name: impl Into<String>) {
        self.nodes[n.0 as usize].name = Some(name.into());
    }

    /// Sets the branch condition of a fork node.
    pub fn set_cond(&mut self, n: NodeId, cond: OpId) {
        self.nodes[n.0 as usize].cond = Some(cond);
    }

    /// Branch condition of a fork node, if set.
    #[must_use]
    pub fn cond(&self, n: NodeId) -> Option<OpId> {
        self.nodes[n.0 as usize].cond
    }

    /// Adds a forward edge and returns its id.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> EdgeId {
        self.add_edge_impl(from, to, None, false)
    }

    /// Adds a forward edge labeled with a fork branch value.
    pub fn add_branch_edge(&mut self, from: NodeId, to: NodeId, taken: bool) -> EdgeId {
        self.add_edge_impl(from, to, Some(taken), false)
    }

    /// Adds an edge known to be a loop back edge (from loop bottom to loop
    /// header). Back edges are excluded from the forward subgraph used by
    /// timing analysis.
    pub fn add_back_edge(&mut self, from: NodeId, to: NodeId) -> EdgeId {
        self.add_edge_impl(from, to, None, true)
    }

    fn add_edge_impl(
        &mut self,
        from: NodeId,
        to: NodeId,
        branch: Option<bool>,
        back: bool,
    ) -> EdgeId {
        assert!(
            (from.0 as usize) < self.nodes.len(),
            "edge from unknown node {from}"
        );
        assert!(
            (to.0 as usize) < self.nodes.len(),
            "edge to unknown node {to}"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData {
            from,
            to,
            branch,
            back,
        });
        id
    }

    /// The unique start node.
    ///
    /// # Panics
    ///
    /// Panics if no start node has been added yet.
    #[must_use]
    pub fn start(&self) -> NodeId {
        self.start.expect("CFG has no start node")
    }

    /// Number of nodes.
    #[must_use]
    pub fn len_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn len_edges(&self) -> usize {
        self.edges.len()
    }

    /// Kind of node `n`.
    #[must_use]
    pub fn node_kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.0 as usize].kind
    }

    /// Source node of edge `e`.
    #[must_use]
    pub fn edge_from(&self, e: EdgeId) -> NodeId {
        self.edges[e.0 as usize].from
    }

    /// Target node of edge `e`.
    #[must_use]
    pub fn edge_to(&self, e: EdgeId) -> NodeId {
        self.edges[e.0 as usize].to
    }

    /// Branch label of edge `e` (set when leaving a fork).
    #[must_use]
    pub fn edge_branch(&self, e: EdgeId) -> Option<bool> {
        self.edges[e.0 as usize].branch
    }

    /// Whether edge `e` is a loop back edge.
    #[must_use]
    pub fn edge_is_back(&self, e: EdgeId) -> bool {
        self.edges[e.0 as usize].back
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Outgoing edges of a node (forward and back).
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.edge_ids().filter(move |&e| self.edge_from(e) == n)
    }

    /// Splits edge `e` by inserting `k` **soft** state nodes along it.
    ///
    /// Edge `e` keeps its identity as the first segment (so operation birth
    /// edges remain valid); `k` new edges are appended, one leaving each new
    /// state. Returns the ids of the `k` new edges in control-flow order.
    ///
    /// This is how a latency budget of `k+1` cycles is expressed for the
    /// region represented by `e` (see DESIGN.md §6).
    pub fn insert_soft_states(&mut self, e: EdgeId, k: u32) -> Vec<EdgeId> {
        let orig_to = self.edge_to(e);
        let mut new_edges = Vec::with_capacity(k as usize);
        if k == 0 {
            return new_edges;
        }
        let mut states = Vec::with_capacity(k as usize);
        for _ in 0..k {
            states.push(self.add_node(NodeKind::State(StateKind::Soft)));
        }
        // Retarget e to the first soft state, then chain s1 -> s2 -> ... -> orig_to.
        self.edges[e.0 as usize].to = states[0];
        for (i, &s) in states.iter().enumerate() {
            let next = if i + 1 < states.len() {
                states[i + 1]
            } else {
                orig_to
            };
            new_edges.push(self.add_edge(s, next));
        }
        new_edges
    }

    /// Runs all whole-graph analyses and returns an immutable snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MalformedCfg`] if the graph has no start node,
    /// unreachable nodes, a forward cycle, a state-free cycle (which would be
    /// a zero-latency control loop), or an irreducible back edge.
    pub fn analyze(&self) -> Result<CfgInfo> {
        CfgInfo::build(self)
    }
}

/// Immutable analysis snapshot of a [`Cfg`].
///
/// Indexes are dense over the CFG's node/edge ids at the time of analysis;
/// mutating the CFG invalidates the snapshot (by value — the snapshot does
/// not borrow the graph).
#[derive(Debug, Clone)]
pub struct CfgInfo {
    n_nodes: usize,
    n_edges: usize,
    start: NodeId,
    node_kind: Vec<NodeKind>,
    edge_from: Vec<NodeId>,
    edge_to: Vec<NodeId>,
    edge_back: Vec<bool>,
    /// Forward edges sorted topologically (by source node position, then id).
    edge_topo: Vec<EdgeId>,
    edge_topo_pos: Vec<u32>,
    /// Bit `(e, f)`: forward path `head(e) ->* tail(f)` exists, or `e == f`.
    reach: BitMatrix,
    /// Entry `e * n_edges + f`: `latency(e, f)` per paper Def. V.1, or
    /// [`NO_LATENCY`] when `f` is unreachable.
    latency: Vec<u32>,
    /// Hard-state-only latency (counts only `Hard` states), laid out like
    /// `latency`; used for sink legality.
    hard_latency: Vec<u32>,
    /// Node dominators over the forward subgraph, from the start node.
    dom: DomTree,
    /// Node post-dominators over the forward subgraph, toward a virtual
    /// exit (vertex `n_nodes`) that follows every node without forward
    /// successors.
    pdom: DomTree,
    /// Per edge: a forward edge that is the only forward edge into its
    /// head, and one that is the only forward edge out of its tail.
    sole_in: Vec<bool>,
    sole_out: Vec<bool>,
    /// Loop membership bitmask per edge (bit i = natural loop of back edge i).
    edge_loops: Vec<u64>,
    /// Back edges in discovery order (defines loop bit indices).
    back_edges: Vec<EdgeId>,
    /// Bit `(e, f)`: some execution evaluates both edges in one clock
    /// cycle (zero-state directed path between them, in the full graph).
    same_cycle: BitMatrix,
}

/// Marks an unreachable pair in the flat latency tables.
const NO_LATENCY: u32 = u32::MAX;

/// A dense square matrix of bits over edge pairs, in one allocation.
#[derive(Debug, Clone)]
struct BitMatrix {
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        BitMatrix {
            words_per_row,
            words: vec![0; words_per_row * n],
        }
    }

    fn get(&self, r: usize, c: usize) -> bool {
        self.words[r * self.words_per_row + c / 64] & (1 << (c % 64)) != 0
    }

    fn set(&mut self, r: usize, c: usize) {
        self.words[r * self.words_per_row + c / 64] |= 1 << (c % 64);
    }
}

/// Edge ids grouped by one end node in one flat array (compressed sparse
/// rows): node `n`'s edges are `edges[first[n]..first[n + 1]]`, in id
/// order. Back edges included.
struct Adjacency {
    first: Vec<u32>,
    edges: Vec<EdgeId>,
}

impl Adjacency {
    /// Groups edge `e` under node `end[e]`.
    fn new(n_nodes: usize, end: &[NodeId]) -> Adjacency {
        let mut first = vec![0u32; n_nodes + 1];
        for n in end {
            first[n.0 as usize + 1] += 1;
        }
        for i in 0..n_nodes {
            first[i + 1] += first[i];
        }
        let mut next = first.clone();
        let mut edges = vec![EdgeId(0); end.len()];
        for (e, n) in end.iter().enumerate() {
            let slot = &mut next[n.0 as usize];
            edges[*slot as usize] = EdgeId(e as u32);
            *slot += 1;
        }
        Adjacency { first, edges }
    }

    fn of(&self, n: NodeId) -> &[EdgeId] {
        let i = n.0 as usize;
        &self.edges[self.first[i] as usize..self.first[i + 1] as usize]
    }
}

/// A dominator tree over vertices `0..n`: each vertex's immediate
/// dominator (the root's is itself) and its position in the topological
/// order the tree was built in, where dominators come first.
#[derive(Debug, Clone)]
struct DomTree {
    idom: Vec<u32>,
    pos: Vec<u32>,
}

impl DomTree {
    /// `true` when vertex `a` dominates vertex `b` (reflexive). Walks up
    /// from `b` only while it is later in the order than `a`.
    fn dominates(&self, a: u32, mut b: u32) -> bool {
        while self.pos[b as usize] > self.pos[a as usize] {
            b = self.idom[b as usize];
        }
        a == b
    }
}

/// Immediate dominators of a DAG whose vertices are listed by `order`,
/// topologically and root first, where `preds(v)` yields the predecessors
/// of `v`. One Cooper–Harvey–Kennedy pass is exact here: every predecessor
/// comes before its vertex, so its dominator is final when it is read.
fn immediate_dominators<I: IntoIterator<Item = u32>>(
    order: &[u32],
    preds: impl Fn(u32) -> I,
) -> DomTree {
    let mut pos = vec![0u32; order.len()];
    for (i, &v) in order.iter().enumerate() {
        pos[v as usize] = i as u32;
    }
    let mut idom = vec![u32::MAX; order.len()];
    idom[order[0] as usize] = order[0];
    for &v in &order[1..] {
        let mut dom: Option<u32> = None;
        for p in preds(v) {
            let Some(mut a) = dom else {
                dom = Some(p);
                continue;
            };
            let mut b = p;
            while a != b {
                while pos[a as usize] > pos[b as usize] {
                    a = idom[a as usize];
                }
                while pos[b as usize] > pos[a as usize] {
                    b = idom[b as usize];
                }
            }
            dom = Some(a);
        }
        idom[v as usize] = dom.expect("every vertex but the root has a predecessor");
    }
    DomTree { idom, pos }
}

impl CfgInfo {
    fn build(cfg: &Cfg) -> Result<CfgInfo> {
        let n_nodes = cfg.len_nodes();
        let n_edges = cfg.len_edges();
        let start = cfg
            .start
            .ok_or_else(|| Error::MalformedCfg("no start node".into()))?;

        let node_kind: Vec<NodeKind> = cfg.nodes.iter().map(|n| n.kind).collect();
        let edge_from: Vec<NodeId> = cfg.edges.iter().map(|e| e.from).collect();
        let edge_to: Vec<NodeId> = cfg.edges.iter().map(|e| e.to).collect();
        let out = Adjacency::new(n_nodes, &edge_from);
        let inn = Adjacency::new(n_nodes, &edge_to);

        // ---- back-edge classification (DFS from start over the full graph),
        // honoring pre-marked back edges. It visits exactly the nodes the
        // forward subgraph reaches: its tree edges are forward.
        let mut edge_back: Vec<bool> = cfg.edges.iter().map(|e| e.back).collect();
        let reachable = classify_back_edges(&out, &edge_to, start, &mut edge_back);
        let fwd = |e: &&EdgeId| !edge_back[e.0 as usize];

        // ---- topological order over forward subgraph (must be a DAG)
        let node_topo = topo_nodes(&out, &edge_to, &edge_back, &reachable)?;
        if node_topo.len() != n_nodes {
            return Err(Error::MalformedCfg(format!(
                "{} of {} nodes unreachable from start",
                n_nodes - node_topo.len(),
                n_nodes
            )));
        }

        // ---- node dominators and post-dominators on the forward DAG
        let order: Vec<u32> = node_topo.iter().map(|n| n.0).collect();
        let dom = immediate_dominators(&order, |v| {
            inn.of(NodeId(v))
                .iter()
                .filter(fwd)
                .map(|e| edge_from[e.0 as usize].0)
        });
        let exit = n_nodes as u32;
        let succs = |v: u32| {
            out.of(NodeId(v))
                .iter()
                .filter(fwd)
                .map(|e| edge_to[e.0 as usize].0)
        };
        let rev_order: Vec<u32> = std::iter::once(exit)
            .chain(order.iter().rev().copied())
            .collect();
        let pdom = immediate_dominators(&rev_order, |v| {
            let sink = succs(v).next().is_none();
            succs(v).chain(sink.then_some(exit))
        });

        // Reducibility: every back edge must target a node that forward-
        // dominates its source.
        for e in 0..n_edges {
            if edge_back[e] {
                let (u, h) = (edge_from[e], edge_to[e]);
                if !dom.dominates(h.0, u.0) {
                    return Err(Error::MalformedCfg(format!(
                        "irreducible back edge e{e}: header {h} does not dominate {u}"
                    )));
                }
            }
        }

        let mut edge_topo: Vec<EdgeId> = Vec::with_capacity(n_edges);
        for &n in &node_topo {
            edge_topo.extend(out.of(n).iter().filter(fwd));
        }
        let mut edge_topo_pos = vec![u32::MAX; n_edges];
        for (i, &e) in edge_topo.iter().enumerate() {
            edge_topo_pos[e.0 as usize] = i as u32;
        }
        let sole = |edges: &[EdgeId]| edges.iter().filter(fwd).count() == 1;
        let sole_in = (0..n_edges)
            .map(|e| !edge_back[e] && sole(inn.of(edge_to[e])))
            .collect();
        let sole_out = (0..n_edges)
            .map(|e| !edge_back[e] && sole(out.of(edge_from[e])))
            .collect();

        // ---- reachability and latency tables (per source edge, DP in topo order)
        let mut reach = BitMatrix::new(n_edges);
        let mut latency = vec![NO_LATENCY; n_edges * n_edges];
        let mut hard_latency = vec![NO_LATENCY; n_edges * n_edges];
        let w = |n: NodeId, hard_only: bool| -> u32 {
            match node_kind[n.0 as usize] {
                NodeKind::State(StateKind::Hard) => 1,
                NodeKind::State(StateKind::Soft) => u32::from(!hard_only),
                _ => 0,
            }
        };
        // dist[n] = min #states (inclusive) on forward paths head(e) ->* n.
        // Back edges get rows too: their heads start forward paths as well.
        let mut dist = vec![u32::MAX; n_nodes];
        let mut hdist = vec![u32::MAX; n_nodes];
        for r in 0..n_edges {
            let head = edge_to[r];
            dist.fill(u32::MAX);
            hdist.fill(u32::MAX);
            dist[head.0 as usize] = w(head, false);
            hdist[head.0 as usize] = w(head, true);
            // The dominator tree's positions are topological positions.
            let from = dom.pos[head.0 as usize] as usize;
            for &n in &node_topo[from..] {
                let (dn, hn) = (dist[n.0 as usize], hdist[n.0 as usize]);
                if dn == u32::MAX {
                    continue;
                }
                for oe in out.of(n).iter().filter(fwd) {
                    let t = edge_to[oe.0 as usize];
                    dist[t.0 as usize] = dist[t.0 as usize].min(dn + w(t, false));
                    hdist[t.0 as usize] = hdist[t.0 as usize].min(hn + w(t, true));
                }
            }
            // Edge f is reachable from e when its source node (tail(f)) got
            // a distance; latency is the accumulated state count at that
            // node.
            let row = r * n_edges;
            for f in 0..n_edges {
                if f == r {
                    reach.set(r, f);
                    latency[row + f] = 0;
                    hard_latency[row + f] = 0;
                } else if !edge_back[f] && dist[edge_from[f].0 as usize] != u32::MAX {
                    reach.set(r, f);
                    latency[row + f] = dist[edge_from[f].0 as usize];
                    hard_latency[row + f] = hdist[edge_from[f].0 as usize];
                }
            }
        }

        // ---- natural loops: a back edge's header plus the nodes that reach
        // its source without passing the header.
        let back_edges: Vec<EdgeId> = (0..n_edges as u32)
            .map(EdgeId)
            .filter(|&e| edge_back[e.0 as usize])
            .collect();
        if back_edges.len() > 64 {
            return Err(Error::MalformedCfg(format!(
                "too many loops: {} back edges (max 64)",
                back_edges.len()
            )));
        }
        let mut node_loops = vec![0u64; n_nodes];
        for (bit, &be) in back_edges.iter().enumerate() {
            let mask = 1u64 << bit;
            let (u, h) = (edge_from[be.0 as usize], edge_to[be.0 as usize]);
            node_loops[h.0 as usize] |= mask;
            node_loops[u.0 as usize] |= mask;
            // A self-loop's source is its header, where the walk stops.
            let mut stack = if u == h { Vec::new() } else { vec![u] };
            while let Some(n) = stack.pop() {
                for e in inn.of(n) {
                    let p = edge_from[e.0 as usize];
                    if node_loops[p.0 as usize] & mask == 0 {
                        node_loops[p.0 as usize] |= mask;
                        stack.push(p);
                    }
                }
            }
        }
        let edge_loops = (0..n_edges)
            .map(|e| node_loops[edge_from[e].0 as usize] & node_loops[edge_to[e].0 as usize])
            .collect();

        let same_cycle = same_cycle(&out, &inn, &edge_to, &node_kind)?;

        Ok(CfgInfo {
            n_nodes,
            n_edges,
            start,
            node_kind,
            edge_from,
            edge_to,
            edge_back,
            edge_topo,
            edge_topo_pos,
            reach,
            latency,
            hard_latency,
            dom,
            pdom,
            sole_in,
            sole_out,
            edge_loops,
            back_edges,
            same_cycle,
        })
    }

    // ------------------------------------------------------------------
    // queries
    // ------------------------------------------------------------------

    /// The start node.
    #[must_use]
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// Number of edges at analysis time.
    #[must_use]
    pub fn len_edges(&self) -> usize {
        self.n_edges
    }

    /// Number of nodes at analysis time.
    #[must_use]
    pub fn len_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Node kind.
    #[must_use]
    pub fn node_kind(&self, n: NodeId) -> NodeKind {
        self.node_kind[n.0 as usize]
    }

    /// Whether `e` was classified as a loop back edge.
    #[must_use]
    pub fn is_back_edge(&self, e: EdgeId) -> bool {
        self.edge_back[e.0 as usize]
    }

    /// Forward edges in topological order (by source node).
    #[must_use]
    pub fn edge_topo(&self) -> &[EdgeId] {
        &self.edge_topo
    }

    /// Position of `e` in the forward-edge topological order
    /// (`u32::MAX` for back edges).
    #[must_use]
    pub fn edge_topo_pos(&self, e: EdgeId) -> u32 {
        self.edge_topo_pos[e.0 as usize]
    }

    /// `true` when a forward path `head(e) ->* tail(f)` exists or `e == f`.
    #[must_use]
    pub fn reaches(&self, e: EdgeId, f: EdgeId) -> bool {
        self.reach.get(e.0 as usize, f.0 as usize)
    }

    /// Paper Definition V.1: the minimum number of state nodes on forward
    /// paths between `e` and `f`; `None` when `f` is not forward-reachable
    /// from `e`. `latency(e, e) == Some(0)`.
    #[must_use]
    pub fn latency(&self, e: EdgeId, f: EdgeId) -> Option<u32> {
        let l = self.latency[e.0 as usize * self.n_edges + f.0 as usize];
        (l != NO_LATENCY).then_some(l)
    }

    /// Like [`CfgInfo::latency`] but counting only **hard** states; used to
    /// decide whether sinking an operation would cross a `wait()`.
    #[must_use]
    pub fn hard_latency(&self, e: EdgeId, f: EdgeId) -> Option<u32> {
        let l = self.hard_latency[e.0 as usize * self.n_edges + f.0 as usize];
        (l != NO_LATENCY).then_some(l)
    }

    /// `true` when edge `a` dominates edge `b` in the forward edge graph
    /// (every control path executing `b` executed `a` first). Reflexive.
    /// Read off the node dominator tree: `a` must be the only forward edge
    /// into its head, and that head must dominate `b`'s tail.
    #[must_use]
    pub fn edge_dominates(&self, a: EdgeId, b: EdgeId) -> bool {
        let (a, b) = (a.0 as usize, b.0 as usize);
        a == b
            || (self.sole_in[a]
                && !self.edge_back[b]
                && self.dom.dominates(self.edge_to[a].0, self.edge_from[b].0))
    }

    /// `true` when edge `a` post-dominates edge `b` (every execution of `b`
    /// eventually executes `a` before leaving the forward region). Reflexive.
    /// Read off the node post-dominator tree: `a` must be the only forward
    /// edge out of its tail, and that tail must post-dominate `b`'s head.
    #[must_use]
    pub fn edge_postdominates(&self, a: EdgeId, b: EdgeId) -> bool {
        let (a, b) = (a.0 as usize, b.0 as usize);
        a == b
            || (self.sole_out[a]
                && !self.edge_back[b]
                && self.pdom.dominates(self.edge_from[a].0, self.edge_to[b].0))
    }

    /// Loop-membership bitmask of edge `e` (bit *i* set when `e` lies inside
    /// the natural loop of the *i*-th back edge).
    #[must_use]
    pub fn loops_of(&self, e: EdgeId) -> u64 {
        self.edge_loops[e.0 as usize]
    }

    /// Back edges discovered, in loop-bit order.
    #[must_use]
    pub fn back_edges(&self) -> &[EdgeId] {
        &self.back_edges
    }

    /// `true` when some execution evaluates both edges within the same clock
    /// cycle (used for resource-conflict detection).
    #[must_use]
    pub fn same_cycle(&self, e: EdgeId, f: EdgeId) -> bool {
        self.same_cycle.get(e.0 as usize, f.0 as usize)
    }

    /// Heap bytes the snapshot holds: its per-node and per-edge tables
    /// plus the four edge-pair tables (`reach` and `same_cycle` one bit
    /// per pair, `latency` and `hard_latency` four bytes per pair).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use crate::vec_heap_bytes as b;
        b(&self.node_kind)
            + b(&self.edge_from)
            + b(&self.edge_to)
            + b(&self.edge_back)
            + b(&self.edge_topo)
            + b(&self.edge_topo_pos)
            + b(&self.reach.words)
            + b(&self.latency)
            + b(&self.hard_latency)
            + b(&self.dom.idom)
            + b(&self.dom.pos)
            + b(&self.pdom.idom)
            + b(&self.pdom.pos)
            + b(&self.sole_in)
            + b(&self.sole_out)
            + b(&self.edge_loops)
            + b(&self.back_edges)
            + b(&self.same_cycle.words)
    }

    /// Source node of `e` (snapshot copy).
    #[must_use]
    pub fn edge_from(&self, e: EdgeId) -> NodeId {
        self.edge_from[e.0 as usize]
    }

    /// Target node of `e` (snapshot copy).
    #[must_use]
    pub fn edge_to(&self, e: EdgeId) -> NodeId {
        self.edge_to[e.0 as usize]
    }
}

/// Marks retreating edges (those closing a cycle on the DFS stack) as back
/// edges, beside the pre-marked ones, which the DFS does not follow.
/// Returns which nodes the DFS from `start` visited.
fn classify_back_edges(
    out: &Adjacency,
    edge_to: &[NodeId],
    start: NodeId,
    edge_back: &mut [bool],
) -> Vec<bool> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; out.first.len() - 1];
    // stack of (node, index of its next out-edge)
    let mut stack: Vec<(NodeId, usize)> = vec![(start, 0)];
    color[start.0 as usize] = Color::Gray;
    while let Some(&mut (n, ref mut idx)) = stack.last_mut() {
        let Some(&e) = out.of(n).get(*idx) else {
            color[n.0 as usize] = Color::Black;
            stack.pop();
            continue;
        };
        *idx += 1;
        if edge_back[e.0 as usize] {
            continue;
        }
        let t = edge_to[e.0 as usize];
        match color[t.0 as usize] {
            Color::White => {
                color[t.0 as usize] = Color::Gray;
                stack.push((t, 0));
            }
            Color::Gray => edge_back[e.0 as usize] = true,
            Color::Black => {}
        }
    }
    color.iter().map(|&c| c == Color::Black).collect()
}

/// Kahn's algorithm over the forward edges of the `reachable` nodes,
/// taking the smallest ready id first among those made ready together.
fn topo_nodes(
    out: &Adjacency,
    edge_to: &[NodeId],
    edge_back: &[bool],
    reachable: &[bool],
) -> Result<Vec<NodeId>> {
    let fwd_targets = |n: NodeId| {
        out.of(n)
            .iter()
            .filter(|e| !edge_back[e.0 as usize])
            .map(|e| edge_to[e.0 as usize])
    };
    let mut indeg = vec![0usize; reachable.len()];
    for n in (0..reachable.len()).filter(|&n| reachable[n]) {
        for t in fwd_targets(NodeId(n as u32)) {
            indeg[t.0 as usize] += 1;
        }
    }
    let mut ready: Vec<NodeId> = (0..reachable.len() as u32)
        .rev()
        .map(NodeId)
        .filter(|n| reachable[n.0 as usize] && indeg[n.0 as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(reachable.len());
    let mut newly = Vec::new();
    while let Some(n) = ready.pop() {
        order.push(n);
        for t in fwd_targets(n) {
            indeg[t.0 as usize] -= 1;
            if indeg[t.0 as usize] == 0 {
                newly.push(t);
            }
        }
        newly.sort_unstable_by(|a, b| b.cmp(a));
        ready.append(&mut newly);
    }
    if order.len() != reachable.iter().filter(|&&r| r).count() {
        return Err(Error::MalformedCfg(
            "forward subgraph contains a cycle (missing back-edge classification)".into(),
        ));
    }
    Ok(order)
}

/// Same-cycle co-execution, by walks through non-state nodes over the full
/// graph: from each non-state node `s`, every edge into `s` shares a cycle
/// with every edge out of a node the walk reaches, `s` included. A walk
/// that comes back to `s` is a state-free control cycle; nodes are tried
/// in id order, so the error names the lowest such node.
fn same_cycle(
    out: &Adjacency,
    inn: &Adjacency,
    edge_to: &[NodeId],
    node_kind: &[NodeKind],
) -> Result<BitMatrix> {
    let n_edges = edge_to.len();
    let mut sc = BitMatrix::new(n_edges);
    for e in 0..n_edges {
        sc.set(e, e);
    }
    let mut walked = vec![u32::MAX; node_kind.len()];
    let mut reached = Vec::new();
    for s in (0..node_kind.len() as u32).map(NodeId) {
        if node_kind[s.0 as usize].is_state() {
            continue;
        }
        walked[s.0 as usize] = s.0;
        reached.clear();
        reached.push(s);
        let mut i = 0;
        while let Some(&n) = reached.get(i) {
            i += 1;
            for f in out.of(n) {
                let t = edge_to[f.0 as usize];
                if t == s {
                    return Err(Error::MalformedCfg(format!(
                        "state-free control cycle through {s} (a loop must contain a state)"
                    )));
                }
                if !node_kind[t.0 as usize].is_state() && walked[t.0 as usize] != s.0 {
                    walked[t.0 as usize] = s.0;
                    reached.push(t);
                }
            }
        }
        for e in inn.of(s) {
            for &n in &reached {
                for f in out.of(n) {
                    sc.set(e.0 as usize, f.0 as usize);
                    sc.set(f.0 as usize, e.0 as usize);
                }
            }
        }
    }
    Ok(sc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the resizer CFG of paper Fig. 4(a):
    ///
    /// ```text
    /// Loop_top -e1-> If_top -e2-> s0 -e4-> If_bottom
    ///                       -e3-> s1 -e5-> If_bottom
    /// If_bottom -e6-> s2 -e7-> Loop_bottom -e8(back)-> Loop_top
    /// start -e0-> Loop_top
    /// ```
    ///
    /// Edge ids: e0=0, e1=1, e2=2, e3=3, e4=4, e5=5, e6=6, e7=7, e8=8.
    pub(crate) fn resizer_cfg() -> (Cfg, [EdgeId; 9]) {
        let mut g = Cfg::new("resizer");
        let start = g.add_node(NodeKind::Start);
        let loop_top = g.add_node(NodeKind::Join);
        let if_top = g.add_node(NodeKind::Fork);
        let s0 = g.add_node(NodeKind::State(StateKind::Hard));
        let s1 = g.add_node(NodeKind::State(StateKind::Hard));
        let if_bottom = g.add_node(NodeKind::Join);
        let s2 = g.add_node(NodeKind::State(StateKind::Hard));
        let loop_bottom = g.add_node(NodeKind::Plain);
        g.set_node_name(loop_top, "Loop_top");
        g.set_node_name(if_top, "If_top");
        g.set_node_name(if_bottom, "If_bottom");
        g.set_node_name(loop_bottom, "Loop_bottom");
        let e0 = g.add_edge(start, loop_top);
        let e1 = g.add_edge(loop_top, if_top);
        let e2 = g.add_branch_edge(if_top, s0, true);
        let e3 = g.add_branch_edge(if_top, s1, false);
        let e4 = g.add_edge(s0, if_bottom);
        let e5 = g.add_edge(s1, if_bottom);
        let e6 = g.add_edge(if_bottom, s2);
        let e7 = g.add_edge(s2, loop_bottom);
        let e8 = g.add_back_edge(loop_bottom, loop_top);
        (g, [e0, e1, e2, e3, e4, e5, e6, e7, e8])
    }

    #[test]
    fn paper_fig4_latencies() {
        let (g, e) = resizer_cfg();
        let info = g.analyze().unwrap();
        // Paper: latency(e4,e6) = 0, latency(e1,e7) = 2, latency(e3,e4) undefined.
        assert_eq!(info.latency(e[4], e[6]), Some(0));
        assert_eq!(info.latency(e[1], e[7]), Some(2));
        assert_eq!(info.latency(e[3], e[4]), None);
        // More: crossing a single wait.
        assert_eq!(info.latency(e[2], e[4]), Some(1));
        assert_eq!(info.latency(e[1], e[6]), Some(1));
        assert_eq!(info.latency(e[6], e[7]), Some(1));
        assert_eq!(info.latency(e[1], e[1]), Some(0));
    }

    #[test]
    fn back_edge_classified() {
        let (g, e) = resizer_cfg();
        let info = g.analyze().unwrap();
        assert!(info.is_back_edge(e[8]));
        for (i, edge) in e.iter().enumerate().take(8) {
            assert!(
                !info.is_back_edge(*edge),
                "e{i} wrongly classified as back edge"
            );
        }
    }

    #[test]
    fn auto_back_edge_detection() {
        // Same graph but the back edge added as a normal edge: DFS must find it.
        let mut g = Cfg::new("auto");
        let start = g.add_node(NodeKind::Start);
        let h = g.add_node(NodeKind::Join);
        let s = g.add_node(NodeKind::State(StateKind::Hard));
        let b = g.add_node(NodeKind::Plain);
        g.add_edge(start, h);
        g.add_edge(h, s);
        g.add_edge(s, b);
        let back = g.add_edge(b, h);
        let info = g.analyze().unwrap();
        assert!(info.is_back_edge(back));
    }

    #[test]
    fn edge_dominance_matches_fig4() {
        let (g, e) = resizer_cfg();
        let info = g.analyze().unwrap();
        // e1 and e2 dominate e4; e3 does not; e5 does not.
        assert!(info.edge_dominates(e[1], e[4]));
        assert!(info.edge_dominates(e[2], e[4]));
        assert!(!info.edge_dominates(e[3], e[4]));
        assert!(!info.edge_dominates(e[5], e[4]));
        // e1 dominates everything in the body.
        for i in 1..=7 {
            assert!(info.edge_dominates(e[1], e[i]), "e1 should dominate e{i}");
        }
        // e2 does not dominate e6 (path via e3/e5 avoids it).
        assert!(!info.edge_dominates(e[2], e[6]));
        // Reflexive.
        assert!(info.edge_dominates(e[4], e[4]));
    }

    #[test]
    fn edge_postdominance_matches_fig4() {
        let (g, e) = resizer_cfg();
        let info = g.analyze().unwrap();
        // e6 post-dominates e2, e3, e4, e5, e1.
        for i in [1, 2, 3, 4, 5] {
            assert!(
                info.edge_postdominates(e[6], e[i]),
                "e6 should post-dominate e{i}"
            );
        }
        // e4 does not post-dominate e1 (other branch).
        assert!(!info.edge_postdominates(e[4], e[1]));
        // e7 post-dominates e6.
        assert!(info.edge_postdominates(e[7], e[6]));
    }

    #[test]
    fn reachability() {
        let (g, e) = resizer_cfg();
        let info = g.analyze().unwrap();
        assert!(info.reaches(e[1], e[4]));
        assert!(info.reaches(e[1], e[7]));
        assert!(!info.reaches(e[3], e[4]));
        assert!(!info.reaches(e[7], e[1])); // only via back edge
        assert!(info.reaches(e[4], e[4]));
    }

    #[test]
    fn loop_membership() {
        let (g, e) = resizer_cfg();
        let info = g.analyze().unwrap();
        assert_eq!(info.back_edges().len(), 1);
        // e0 (entry) is outside the loop; e1..e7 inside.
        assert_eq!(info.loops_of(e[0]), 0);
        for (i, edge) in e.iter().enumerate().take(8).skip(1) {
            assert_eq!(info.loops_of(*edge), 1, "e{i} should be in loop 0");
        }
    }

    /// `start -> top -> s -> bottom` with back edge `bottom -> top`.
    fn one_loop_cfg() -> (Cfg, [EdgeId; 4]) {
        let mut g = Cfg::new("one_loop");
        let start = g.add_node(NodeKind::Start);
        let top = g.add_node(NodeKind::Join);
        let s = g.add_node(NodeKind::State(StateKind::Hard));
        let bottom = g.add_node(NodeKind::Plain);
        let e0 = g.add_edge(start, top);
        let e1 = g.add_edge(top, s);
        let e2 = g.add_edge(s, bottom);
        let back = g.add_back_edge(bottom, top);
        (g, [e0, e1, e2, back])
    }

    #[test]
    fn a_back_edge_reaches_itself_and_its_headers_paths() {
        let (g, [e0, e1, e2, back]) = one_loop_cfg();
        let info = g.analyze().unwrap();
        assert!(info.reaches(back, back));
        assert_eq!(info.latency(back, back), Some(0));
        assert_eq!(info.hard_latency(back, back), Some(0));
        // head(back) is `top`: its forward paths reach e1 and e2, not e0.
        assert_eq!(info.latency(back, e1), Some(0));
        assert_eq!(info.latency(back, e2), Some(1));
        assert!(!info.reaches(back, e0));
        // Forward edges still never reach the back edge.
        assert!(!info.reaches(e2, back));
    }

    #[test]
    fn a_self_loop_holds_only_its_own_node() {
        // start -> a -> w, with `w` a state looping on itself.
        let mut g = Cfg::new("self_loop");
        let start = g.add_node(NodeKind::Start);
        let a = g.add_node(NodeKind::Plain);
        let w = g.add_node(NodeKind::State(StateKind::Hard));
        let e0 = g.add_edge(start, a);
        let e1 = g.add_edge(a, w);
        let back = g.add_back_edge(w, w);
        let info = g.analyze().unwrap();
        let loops: Vec<u64> = [e0, e1, back].map(|e| info.loops_of(e)).to_vec();
        assert_eq!(loops, [0, 0, 1]);
    }

    #[test]
    fn same_cycle_pairs() {
        let (g, e) = resizer_cfg();
        let info = g.analyze().unwrap();
        // e1 and e2 evaluate in the same cycle (no state between).
        assert!(info.same_cycle(e[1], e[2]));
        assert!(info.same_cycle(e[2], e[1]));
        // e2 and e4 are separated by wait s0.
        assert!(!info.same_cycle(e[2], e[4]));
        // e4 and e6 share a cycle (If_bottom is not a state).
        assert!(info.same_cycle(e[4], e[6]));
        // e7 and e1: connected around the loop with no intervening state!
        assert!(info.same_cycle(e[7], e[1]));
        // e2 and e3 are exclusive branches: never the same cycle.
        assert!(!info.same_cycle(e[2], e[3]));
    }

    #[test]
    fn soft_state_insertion_extends_latency() {
        let mut g = Cfg::new("soft");
        let start = g.add_node(NodeKind::Start);
        let a = g.add_node(NodeKind::Plain);
        let b = g.add_node(NodeKind::Plain);
        g.add_edge(start, a);
        let e1 = g.add_edge(a, b);
        let new_edges = g.insert_soft_states(e1, 2);
        assert_eq!(new_edges.len(), 2);
        let info = g.analyze().unwrap();
        // e1 to the last new edge crosses 2 soft states.
        assert_eq!(info.latency(e1, new_edges[1]), Some(2));
        // Hard latency stays 0: sinking across soft states is allowed.
        assert_eq!(info.hard_latency(e1, new_edges[1]), Some(0));
    }

    #[test]
    fn state_free_loop_rejected() {
        let mut g = Cfg::new("bad");
        let start = g.add_node(NodeKind::Start);
        let h = g.add_node(NodeKind::Join);
        let b = g.add_node(NodeKind::Plain);
        g.add_edge(start, h);
        g.add_edge(h, b);
        g.add_back_edge(b, h);
        let err = g.analyze().unwrap_err();
        assert!(matches!(err, Error::MalformedCfg(_)));
    }

    #[test]
    fn unreachable_node_rejected() {
        let mut g = Cfg::new("unreach");
        let start = g.add_node(NodeKind::Start);
        let a = g.add_node(NodeKind::Plain);
        let orphan = g.add_node(NodeKind::Plain);
        let _ = orphan;
        g.add_edge(start, a);
        let err = g.analyze().unwrap_err();
        assert!(matches!(err, Error::MalformedCfg(_)));
    }

    #[test]
    fn no_start_rejected() {
        let mut g = Cfg::new("nostart");
        let a = g.add_node(NodeKind::Plain);
        let b = g.add_node(NodeKind::Plain);
        g.add_edge(a, b);
        assert!(g.analyze().is_err());
    }

    #[test]
    fn straight_line_chain_latencies() {
        // start -> p0 -s-> p1 -s-> p2 (two states in a row)
        let mut g = Cfg::new("chain");
        let start = g.add_node(NodeKind::Start);
        let s1 = g.add_node(NodeKind::State(StateKind::Hard));
        let s2 = g.add_node(NodeKind::State(StateKind::Hard));
        let end = g.add_node(NodeKind::Plain);
        let e0 = g.add_edge(start, s1);
        let e1 = g.add_edge(s1, s2);
        let e2 = g.add_edge(s2, end);
        let info = g.analyze().unwrap();
        assert_eq!(info.latency(e0, e1), Some(1));
        assert_eq!(info.latency(e0, e2), Some(2));
        assert_eq!(info.latency(e1, e2), Some(1));
    }
}
