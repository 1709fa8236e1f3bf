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

    /// Incoming edges of a node (forward and back).
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.edge_ids().filter(move |&e| self.edge_to(e) == n)
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
    /// Topological order of nodes over the forward subgraph.
    node_topo: Vec<NodeId>,
    /// Position of each node in `node_topo`.
    node_topo_pos: Vec<u32>,
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
    /// Immediate dominator of each edge in the edge graph (None for roots).
    edge_idom: Vec<Option<EdgeId>>,
    edge_dom_depth: Vec<u32>,
    /// Immediate post-dominator of each edge (towards virtual exit).
    edge_ipdom: Vec<Option<EdgeId>>,
    edge_pdom_depth: Vec<u32>,
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

        // ---- back-edge classification (DFS from start over the full graph),
        // honoring pre-marked back edges.
        let mut edge_back: Vec<bool> = cfg.edges.iter().map(|e| e.back).collect();
        Self::classify_back_edges(cfg, start, &mut edge_back)?;

        // ---- forward adjacency
        let mut fwd_out: Vec<Vec<EdgeId>> = vec![Vec::new(); n_nodes];
        for e in 0..n_edges {
            if !edge_back[e] {
                fwd_out[edge_from[e].0 as usize].push(EdgeId(e as u32));
            }
        }

        // ---- topological order over forward subgraph (must be a DAG)
        let node_topo = Self::topo_nodes(n_nodes, start, &fwd_out, &edge_to)?;
        let mut node_topo_pos = vec![u32::MAX; n_nodes];
        for (i, &n) in node_topo.iter().enumerate() {
            node_topo_pos[n.0 as usize] = i as u32;
        }
        // Reachability check: all nodes reachable from start.
        if node_topo.len() != n_nodes {
            return Err(Error::MalformedCfg(format!(
                "{} of {} nodes unreachable from start",
                n_nodes - node_topo.len(),
                n_nodes
            )));
        }

        // Reducibility: every back edge must target a node that forward-
        // dominates its source. We check using node dominators.
        let node_idom =
            Self::node_dominators(n_nodes, start, &node_topo, &node_topo_pos, cfg, &edge_back);
        for e in 0..n_edges {
            if edge_back[e] {
                let (u, h) = (edge_from[e], edge_to[e]);
                if !Self::node_dominates(&node_idom, &node_topo_pos, h, u) {
                    return Err(Error::MalformedCfg(format!(
                        "irreducible back edge e{e}: header {h} does not dominate {u}"
                    )));
                }
            }
        }

        let mut edge_topo: Vec<EdgeId> = (0..n_edges as u32)
            .map(EdgeId)
            .filter(|&e| !edge_back[e.0 as usize])
            .collect();
        edge_topo.sort_by_key(|&e| (node_topo_pos[edge_from[e.0 as usize].0 as usize], e.0));
        let mut edge_topo_pos = vec![u32::MAX; n_edges];
        for (i, &e) in edge_topo.iter().enumerate() {
            edge_topo_pos[e.0 as usize] = i as u32;
        }

        // ---- reachability and latency tables (per source edge, DP in topo order)
        let mut reach = BitMatrix::new(n_edges);
        let mut latency = vec![NO_LATENCY; n_edges * n_edges];
        let mut hard_latency = vec![NO_LATENCY; n_edges * n_edges];
        for &e in &edge_topo {
            let row = e.0 as usize * n_edges..(e.0 as usize + 1) * n_edges;
            Self::latency_from(
                e,
                n_nodes,
                &node_topo,
                &node_topo_pos,
                &fwd_out,
                &edge_from,
                &edge_to,
                &edge_back,
                &node_kind,
                &mut reach,
                &mut latency[row.clone()],
                &mut hard_latency[row],
            );
        }

        // ---- edge dominators / post-dominators on the forward edge graph
        let (edge_idom, edge_dom_depth) =
            Self::edge_dominators(n_edges, &edge_topo, &edge_from, &edge_to, &edge_back);
        let (edge_ipdom, edge_pdom_depth) =
            Self::edge_postdominators(n_edges, &edge_topo, &edge_from, &edge_to, &edge_back);

        // ---- natural loops
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
        let edge_loops = Self::loop_membership(
            cfg,
            &back_edges,
            &edge_back,
            &edge_from,
            &edge_to,
            n_nodes,
            n_edges,
        );

        // ---- same-cycle co-execution on the state-free full graph
        let same_cycle =
            Self::compute_same_cycle(n_nodes, n_edges, &edge_from, &edge_to, &node_kind)?;

        Ok(CfgInfo {
            n_nodes,
            n_edges,
            start,
            node_kind,
            edge_from,
            edge_to,
            edge_back,
            node_topo,
            node_topo_pos,
            edge_topo,
            edge_topo_pos,
            reach,
            latency,
            hard_latency,
            edge_idom,
            edge_dom_depth,
            edge_ipdom,
            edge_pdom_depth,
            edge_loops,
            back_edges,
            same_cycle,
        })
    }

    fn classify_back_edges(cfg: &Cfg, start: NodeId, edge_back: &mut [bool]) -> Result<()> {
        // Iterative DFS; gray-set detection marks retreating edges as back
        // edges (in addition to any pre-marked ones).
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = cfg.len_nodes();
        let mut color = vec![Color::White; n];
        // stack of (node, out-edge iterator index)
        let out: Vec<Vec<EdgeId>> = (0..n)
            .map(|i| cfg.out_edges(NodeId(i as u32)).collect())
            .collect();
        let mut stack: Vec<(NodeId, usize)> = vec![(start, 0)];
        color[start.0 as usize] = Color::Gray;
        while let Some(&mut (n_id, ref mut idx)) = stack.last_mut() {
            let o = &out[n_id.0 as usize];
            if *idx < o.len() {
                let e = o[*idx];
                *idx += 1;
                if edge_back[e.0 as usize] {
                    continue; // pre-marked, skip traversal through it? No: still traverse target.
                }
                let t = cfg.edge_to(e);
                match color[t.0 as usize] {
                    Color::White => {
                        color[t.0 as usize] = Color::Gray;
                        stack.push((t, 0));
                    }
                    Color::Gray => {
                        edge_back[e.0 as usize] = true;
                    }
                    Color::Black => {}
                }
            } else {
                color[n_id.0 as usize] = Color::Black;
                stack.pop();
            }
        }
        Ok(())
    }

    fn topo_nodes(
        n_nodes: usize,
        start: NodeId,
        fwd_out: &[Vec<EdgeId>],
        edge_to: &[NodeId],
    ) -> Result<Vec<NodeId>> {
        // Kahn's algorithm restricted to nodes reachable from start.
        let mut reachable = vec![false; n_nodes];
        let mut stack = vec![start];
        reachable[start.0 as usize] = true;
        while let Some(n) = stack.pop() {
            for &e in &fwd_out[n.0 as usize] {
                let t = edge_to[e.0 as usize];
                if !reachable[t.0 as usize] {
                    reachable[t.0 as usize] = true;
                    stack.push(t);
                }
            }
        }
        let mut indeg = vec![0usize; n_nodes];
        for (n, outs) in fwd_out.iter().enumerate() {
            if !reachable[n] {
                continue;
            }
            for &e in outs {
                indeg[edge_to[e.0 as usize].0 as usize] += 1;
            }
        }
        let mut order = Vec::with_capacity(n_nodes);
        let mut ready: Vec<NodeId> = (0..n_nodes)
            .filter(|&i| reachable[i] && indeg[i] == 0)
            .map(|i| NodeId(i as u32))
            .collect();
        // Deterministic order: smallest id first.
        ready.sort();
        ready.reverse();
        while let Some(n) = ready.pop() {
            order.push(n);
            let mut newly = Vec::new();
            for &e in &fwd_out[n.0 as usize] {
                let t = edge_to[e.0 as usize];
                indeg[t.0 as usize] -= 1;
                if indeg[t.0 as usize] == 0 {
                    newly.push(t);
                }
            }
            newly.sort();
            newly.reverse();
            // keep `ready` roughly sorted for determinism
            for t in newly {
                ready.push(t);
            }
        }
        let n_reach = reachable.iter().filter(|&&r| r).count();
        if order.len() != n_reach {
            return Err(Error::MalformedCfg(
                "forward subgraph contains a cycle (missing back-edge classification)".into(),
            ));
        }
        Ok(order)
    }

    #[allow(clippy::too_many_arguments)]
    fn latency_from(
        e: EdgeId,
        n_nodes: usize,
        node_topo: &[NodeId],
        node_topo_pos: &[u32],
        fwd_out: &[Vec<EdgeId>],
        edge_from: &[NodeId],
        edge_to: &[NodeId],
        edge_back: &[bool],
        node_kind: &[NodeKind],
        reach: &mut BitMatrix,
        lat_row: &mut [u32],
        hard_row: &mut [u32],
    ) {
        // dist[n] = min #states (inclusive) on forward paths head(e) ->* n.
        let head = edge_to[e.0 as usize]; // head of edge e is its target node
        let w = |n: NodeId, hard_only: bool| -> u32 {
            match node_kind[n.0 as usize] {
                NodeKind::State(StateKind::Hard) => 1,
                NodeKind::State(StateKind::Soft) => u32::from(!hard_only),
                _ => 0,
            }
        };
        let mut dist = vec![u32::MAX; n_nodes];
        let mut hdist = vec![u32::MAX; n_nodes];
        dist[head.0 as usize] = w(head, false);
        hdist[head.0 as usize] = w(head, true);
        let start_pos = node_topo_pos[head.0 as usize] as usize;
        for &n in &node_topo[start_pos..] {
            let dn = dist[n.0 as usize];
            if dn == u32::MAX {
                continue;
            }
            let hn = hdist[n.0 as usize];
            for &oe in &fwd_out[n.0 as usize] {
                let t = edge_to[oe.0 as usize];
                let nd = dn + w(t, false);
                let nh = hn + w(t, true);
                if nd < dist[t.0 as usize] {
                    dist[t.0 as usize] = nd;
                }
                if nh < hdist[t.0 as usize] {
                    hdist[t.0 as usize] = nh;
                }
            }
        }
        // Edge f is reachable from e when its source node (tail(f)) got a
        // distance; latency is the accumulated state count at that node.
        let r = e.0 as usize;
        for f in 0..lat_row.len() {
            if f == r {
                reach.set(r, f);
                lat_row[f] = 0;
                hard_row[f] = 0;
                continue;
            }
            if edge_back[f] {
                continue; // latency is a forward-path notion
            }
            let src = edge_from[f];
            let d = dist[src.0 as usize];
            if d != u32::MAX {
                reach.set(r, f);
                lat_row[f] = d;
                hard_row[f] = hdist[src.0 as usize];
            }
        }
    }

    fn node_dominators(
        n_nodes: usize,
        start: NodeId,
        node_topo: &[NodeId],
        node_topo_pos: &[u32],
        cfg: &Cfg,
        edge_back: &[bool],
    ) -> Vec<Option<NodeId>> {
        // Cooper–Harvey–Kennedy iterative algorithm on the forward subgraph.
        let mut idom: Vec<Option<NodeId>> = vec![None; n_nodes];
        idom[start.0 as usize] = Some(start);
        let preds: Vec<Vec<NodeId>> = (0..n_nodes)
            .map(|i| {
                cfg.in_edges(NodeId(i as u32))
                    .filter(|&e| !edge_back[e.0 as usize])
                    .map(|e| cfg.edge_from(e))
                    .collect()
            })
            .collect();
        let intersect = |idom: &[Option<NodeId>], pos: &[u32], mut a: NodeId, mut b: NodeId| {
            while a != b {
                while pos[a.0 as usize] > pos[b.0 as usize] {
                    a = idom[a.0 as usize].unwrap();
                }
                while pos[b.0 as usize] > pos[a.0 as usize] {
                    b = idom[b.0 as usize].unwrap();
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &n in node_topo {
                if n == start {
                    continue;
                }
                let mut new_idom: Option<NodeId> = None;
                for &p in &preds[n.0 as usize] {
                    if idom[p.0 as usize].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, node_topo_pos, cur, p),
                    });
                }
                if new_idom != idom[n.0 as usize] && new_idom.is_some() {
                    idom[n.0 as usize] = new_idom;
                    changed = true;
                }
            }
        }
        idom
    }

    fn node_dominates(idom: &[Option<NodeId>], _pos: &[u32], a: NodeId, mut b: NodeId) -> bool {
        // Walk up from b.
        loop {
            if a == b {
                return true;
            }
            match idom[b.0 as usize] {
                Some(p) if p != b => b = p,
                _ => return false,
            }
        }
    }

    /// Dominators over the *edge graph*: vertices are forward edges, with an
    /// arc `e -> f` when `head(e) == tail(f)`. Roots are the edges leaving
    /// the start node.
    fn edge_dominators(
        n_edges: usize,
        edge_topo: &[EdgeId],
        edge_from: &[NodeId],
        edge_to: &[NodeId],
        edge_back: &[bool],
    ) -> (Vec<Option<EdgeId>>, Vec<u32>) {
        // Predecessor edges of f: forward edges e with head(e)==tail(f).
        let mut idom: Vec<Option<EdgeId>> = vec![None; n_edges];
        let mut depth: Vec<u32> = vec![0; n_edges];
        let pos: Vec<u32> = {
            let mut p = vec![u32::MAX; n_edges];
            for (i, &e) in edge_topo.iter().enumerate() {
                p[e.0 as usize] = i as u32;
            }
            p
        };
        let preds: Vec<Vec<EdgeId>> = (0..n_edges)
            .map(|f| {
                if edge_back[f] {
                    return Vec::new();
                }
                let tail = edge_from[f];
                (0..n_edges)
                    .filter(|&e| !edge_back[e] && edge_to[e] == tail)
                    .map(|e| EdgeId(e as u32))
                    .collect()
            })
            .collect();
        // Iterative CHK over the edge graph in topo order. A root edge (no
        // predecessors, i.e. leaving the start node) is marked by self-idom.
        let mut changed = true;
        while changed {
            changed = false;
            for &f in edge_topo {
                let fi = f.0 as usize;
                let ps = &preds[fi];
                if ps.is_empty() {
                    if idom[fi] != Some(f) {
                        idom[fi] = Some(f);
                        changed = true;
                    }
                    continue;
                }
                let mut new_idom: Option<EdgeId> = None;
                let mut hit_root_split = false;
                for &p in ps {
                    if idom[p.0 as usize].is_none() {
                        continue; // pred not yet processed
                    }
                    new_idom = match new_idom {
                        None => Some(p),
                        Some(cur) => match Self::intersect_generic(&idom, &pos, cur, p) {
                            Some(c) => Some(c),
                            None => {
                                hit_root_split = true;
                                Some(cur)
                            }
                        },
                    };
                }
                if hit_root_split {
                    // Paths diverge all the way to distinct roots: dominated
                    // only by the virtual root → treat as root-like (self).
                    new_idom = Some(f);
                }
                if new_idom.is_some() && idom[fi] != new_idom {
                    idom[fi] = new_idom;
                    changed = true;
                }
            }
        }
        // Depths (self-idom = root, depth 0).
        for &f in edge_topo {
            let fi = f.0 as usize;
            let mut d = 0;
            let mut cur = f;
            while let Some(p) = idom[cur.0 as usize] {
                if p == cur {
                    break;
                }
                d += 1;
                cur = p;
                if d > n_edges as u32 {
                    break; // defensive
                }
            }
            depth[fi] = d;
        }
        (idom, depth)
    }

    fn edge_postdominators(
        n_edges: usize,
        edge_topo: &[EdgeId],
        edge_from: &[NodeId],
        edge_to: &[NodeId],
        edge_back: &[bool],
    ) -> (Vec<Option<EdgeId>>, Vec<u32>) {
        // Same construction on the reversed edge graph; roots are edges with
        // no forward successors (they post-dominate themselves).
        let succs: Vec<Vec<EdgeId>> = (0..n_edges)
            .map(|e| {
                if edge_back[e] {
                    return Vec::new();
                }
                let head = edge_to[e];
                (0..n_edges)
                    .filter(|&f| !edge_back[f] && edge_from[f] == head)
                    .map(|f| EdgeId(f as u32))
                    .collect()
            })
            .collect();
        let rev_topo: Vec<EdgeId> = edge_topo.iter().rev().copied().collect();
        let pos: Vec<u32> = {
            let mut p = vec![u32::MAX; n_edges];
            for (i, &e) in rev_topo.iter().enumerate() {
                p[e.0 as usize] = i as u32;
            }
            p
        };
        let mut ipdom: Vec<Option<EdgeId>> = vec![None; n_edges];
        let mut changed = true;
        while changed {
            changed = false;
            for &f in &rev_topo {
                let fi = f.0 as usize;
                let ss = &succs[fi];
                if ss.is_empty() {
                    if ipdom[fi] != Some(f) {
                        ipdom[fi] = Some(f);
                        changed = true;
                    }
                    continue;
                }
                let mut new_ipdom: Option<EdgeId> = None;
                let mut hit_root_split = false;
                for &s in ss {
                    if ipdom[s.0 as usize].is_none() {
                        continue;
                    }
                    new_ipdom = match new_ipdom {
                        None => Some(s),
                        Some(cur) => match Self::intersect_generic(&ipdom, &pos, cur, s) {
                            Some(c) => Some(c),
                            None => {
                                hit_root_split = true;
                                Some(cur)
                            }
                        },
                    };
                }
                if hit_root_split {
                    new_ipdom = Some(f);
                }
                if new_ipdom.is_some() && ipdom[fi] != new_ipdom {
                    ipdom[fi] = new_ipdom;
                    changed = true;
                }
            }
        }
        let mut depth = vec![0u32; n_edges];
        for &f in &rev_topo {
            let fi = f.0 as usize;
            let mut d = 0;
            let mut cur = f;
            while let Some(p) = ipdom[cur.0 as usize] {
                if p == cur {
                    break;
                }
                d += 1;
                cur = p;
                if d > n_edges as u32 {
                    break;
                }
            }
            depth[fi] = d;
        }
        (ipdom, depth)
    }

    fn intersect_generic(
        idom: &[Option<EdgeId>],
        pos: &[u32],
        a: EdgeId,
        b: EdgeId,
    ) -> Option<EdgeId> {
        let (mut a, mut b) = (a, b);
        loop {
            if a == b {
                return Some(a);
            }
            while pos[a.0 as usize] > pos[b.0 as usize] {
                match idom[a.0 as usize] {
                    Some(p) if p != a => a = p,
                    _ => return None,
                }
            }
            while pos[b.0 as usize] > pos[a.0 as usize] {
                match idom[b.0 as usize] {
                    Some(p) if p != b => b = p,
                    _ => return None,
                }
            }
            if a == b {
                return Some(a);
            }
            match (idom[a.0 as usize], idom[b.0 as usize]) {
                (Some(pa), _) if pa != a => a = pa,
                (_, Some(pb)) if pb != b => b = pb,
                _ => return None,
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn loop_membership(
        cfg: &Cfg,
        back_edges: &[EdgeId],
        edge_back: &[bool],
        edge_from: &[NodeId],
        edge_to: &[NodeId],
        n_nodes: usize,
        n_edges: usize,
    ) -> Vec<u64> {
        let mut node_loops = vec![0u64; n_nodes];
        for (bit, &be) in back_edges.iter().enumerate() {
            let (u, h) = (edge_from[be.0 as usize], edge_to[be.0 as usize]);
            // Natural loop: h plus nodes that reach u without passing h.
            let mut in_loop = vec![false; n_nodes];
            in_loop[h.0 as usize] = true;
            let mut stack = vec![u];
            in_loop[u.0 as usize] = true;
            while let Some(n) = stack.pop() {
                for e in cfg.in_edges(n) {
                    let p = cfg.edge_from(e);
                    if !in_loop[p.0 as usize] {
                        in_loop[p.0 as usize] = true;
                        stack.push(p);
                    }
                }
            }
            for (i, &m) in in_loop.iter().enumerate() {
                if m {
                    node_loops[i] |= 1 << bit;
                }
            }
        }
        let _ = edge_back;
        (0..n_edges)
            .map(|e| node_loops[edge_from[e].0 as usize] & node_loops[edge_to[e].0 as usize])
            .collect()
    }

    fn compute_same_cycle(
        n_nodes: usize,
        n_edges: usize,
        edge_from: &[NodeId],
        edge_to: &[NodeId],
        node_kind: &[NodeKind],
    ) -> Result<BitMatrix> {
        // Zero-state reachability between nodes on the full graph with state
        // nodes removed. Detect state-free cycles (illegal).
        let is_state = |n: NodeId| node_kind[n.0 as usize].is_state();
        // node-to-node closure among non-state nodes
        let mut adj = vec![vec![false; n_nodes]; n_nodes];
        for e in 0..n_edges {
            let (u, v) = (edge_from[e], edge_to[e]);
            if !is_state(u) && !is_state(v) {
                adj[u.0 as usize][v.0 as usize] = true;
            }
        }
        // Floyd–Warshall style closure (CFGs are small).
        let mut closure = adj.clone();
        for k in 0..n_nodes {
            if is_state(NodeId(k as u32)) {
                continue;
            }
            let reach_k = closure[k].clone();
            for row in closure.iter_mut() {
                if !row[k] {
                    continue;
                }
                for (dst, &via) in row.iter_mut().zip(&reach_k) {
                    *dst = *dst || via;
                }
            }
        }
        for (i, row) in closure.iter().enumerate() {
            if row[i] {
                return Err(Error::MalformedCfg(format!(
                    "state-free control cycle through n{i} (a loop must contain a state)"
                )));
            }
        }
        // Edges e,f co-execute in one cycle iff e==f, or head(e) reaches
        // tail(f) through non-state nodes (or vice versa). head/tail
        // themselves must not be states for the connection to be state-free;
        // if head(e) is a state, e's evaluation ends that cycle.
        let mut sc = BitMatrix::new(n_edges);
        let zreach = |a: NodeId, b: NodeId| -> bool {
            if is_state(a) || is_state(b) {
                return false;
            }
            a == b || closure[a.0 as usize][b.0 as usize]
        };
        for e in 0..n_edges {
            for f in 0..n_edges {
                if e == f {
                    sc.set(e, f);
                    continue;
                }
                let he = edge_to[e]; // head of e
                let tf = edge_from[f]; // tail of f
                let hf = edge_to[f];
                let te = edge_from[e];
                if zreach(he, tf) || zreach(hf, te) {
                    sc.set(e, f);
                }
            }
        }
        Ok(sc)
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

    /// Nodes in forward topological order.
    #[must_use]
    pub fn node_topo(&self) -> &[NodeId] {
        &self.node_topo
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
    #[must_use]
    pub fn edge_dominates(&self, a: EdgeId, b: EdgeId) -> bool {
        if self.edge_back[a.0 as usize] || self.edge_back[b.0 as usize] {
            return a == b;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.edge_idom[cur.0 as usize] {
                Some(p) if p != cur => cur = p,
                _ => return false,
            }
        }
    }

    /// `true` when edge `a` post-dominates edge `b` (every execution of `b`
    /// eventually executes `a` before leaving the forward region). Reflexive.
    #[must_use]
    pub fn edge_postdominates(&self, a: EdgeId, b: EdgeId) -> bool {
        if self.edge_back[a.0 as usize] || self.edge_back[b.0 as usize] {
            return a == b;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.edge_ipdom[cur.0 as usize] {
                Some(p) if p != cur => cur = p,
                _ => return false,
            }
        }
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

    /// Position of a node in the forward topological order.
    #[must_use]
    pub fn node_topo_pos(&self, n: NodeId) -> u32 {
        self.node_topo_pos[n.0 as usize]
    }

    /// Depth of `e` in the edge dominator tree (0 for root edges).
    #[must_use]
    pub fn edge_dom_depth(&self, e: EdgeId) -> u32 {
        self.edge_dom_depth[e.0 as usize]
    }

    /// Depth of `e` in the edge post-dominator tree (0 for exit edges).
    #[must_use]
    pub fn edge_pdom_depth(&self, e: EdgeId) -> u32 {
        self.edge_pdom_depth[e.0 as usize]
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
            + b(&self.node_topo)
            + b(&self.node_topo_pos)
            + b(&self.edge_topo)
            + b(&self.edge_topo_pos)
            + b(&self.reach.words)
            + b(&self.latency)
            + b(&self.hard_latency)
            + b(&self.edge_idom)
            + b(&self.edge_dom_depth)
            + b(&self.edge_ipdom)
            + b(&self.edge_pdom_depth)
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
