//! A [`Design`] bundles the CFG and DFG of one behavioral process plus the
//! cross-references between them.

use crate::cfg::{Cfg, CfgInfo};
use crate::dfg::{Dfg, OpId};
use crate::error::{Error, Result};
use crate::op::OpKind;
use crate::span::OpSpans;

/// One synthesizable behavioral process: control flow graph, data flow
/// graph, and the birth mapping stored inside the DFG.
#[derive(Debug, Clone)]
pub struct Design {
    /// Control flow graph.
    pub cfg: Cfg,
    /// Data flow graph (operations carry their birth edges).
    pub dfg: Dfg,
}

impl Design {
    /// Creates a design from its two graphs.
    #[must_use]
    pub fn new(cfg: Cfg, dfg: Dfg) -> Self {
        Design { cfg, dfg }
    }

    /// Design name (from the CFG).
    #[must_use]
    pub fn name(&self) -> &str {
        self.cfg.name()
    }

    /// Validates both graphs and their cross-references, then returns the
    /// CFG analysis snapshot.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::MalformedCfg`] / [`Error::MalformedDfg`], and
    /// returns [`Error::BadBirth`] when an operation is born on a
    /// nonexistent or backward CFG edge.
    pub fn validate(&self) -> Result<CfgInfo> {
        let info = self.cfg.analyze()?;
        self.dfg.validate()?;
        for o in self.dfg.op_ids() {
            let b = self.dfg.birth(o);
            if (b.0 as usize) >= self.cfg.len_edges() {
                return Err(Error::BadBirth(format!("{o} born on nonexistent edge {b}")));
            }
            if info.is_back_edge(b) {
                return Err(Error::BadBirth(format!("{o} born on back edge {b}")));
            }
        }
        // Fork nodes must have conditions that are live 1-bit ops.
        for n in self.cfg.node_ids() {
            if self.cfg.node_kind(n) == crate::cfg::NodeKind::Fork {
                match self.cfg.cond(n) {
                    None => {
                        return Err(Error::MalformedCfg(format!(
                            "fork node {n} has no branch condition"
                        )))
                    }
                    Some(c) => {
                        if self.dfg.is_dead(c) {
                            return Err(Error::MalformedCfg(format!(
                                "fork node {n} condition {c} is dead"
                            )));
                        }
                    }
                }
            }
        }
        Ok(info)
    }

    /// Validates and computes operation spans in one call — the usual entry
    /// point for timing analysis.
    ///
    /// # Errors
    ///
    /// See [`Design::validate`] and [`OpSpans::compute`].
    pub fn analyze(&self) -> Result<(CfgInfo, OpSpans)> {
        let info = self.validate()?;
        let spans = OpSpans::compute(&self.dfg, &info)?;
        Ok((info, spans))
    }

    /// Ids of `Read`/`Input` operations (the design's data sources), in id
    /// order.
    #[must_use]
    pub fn inputs(&self) -> Vec<OpId> {
        self.dfg
            .op_ids()
            .filter(|&o| matches!(self.dfg.op(o).kind(), OpKind::Input | OpKind::Read))
            .collect()
    }

    /// Ids of `Write` operations (the design's observable outputs), in id
    /// order.
    #[must_use]
    pub fn outputs(&self) -> Vec<OpId> {
        self.dfg
            .op_ids()
            .filter(|&o| self.dfg.op(o).kind() == OpKind::Write)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::NodeKind;
    use crate::op::Op;

    #[test]
    fn birth_on_back_edge_rejected() {
        let mut cfg = Cfg::new("t");
        let start = cfg.add_node(NodeKind::Start);
        let h = cfg.add_node(NodeKind::Join);
        let s = cfg.add_node(NodeKind::State(crate::cfg::StateKind::Hard));
        let b = cfg.add_node(NodeKind::Plain);
        cfg.add_edge(start, h);
        cfg.add_edge(h, s);
        cfg.add_edge(s, b);
        let back = cfg.add_back_edge(b, h);
        let mut dfg = Dfg::new();
        dfg.add_op(Op::new(OpKind::Input, 8), back, &[]);
        let d = Design::new(cfg, dfg);
        assert!(matches!(d.validate(), Err(Error::BadBirth(_))));
    }

    #[test]
    fn fork_without_condition_rejected() {
        let mut cfg = Cfg::new("t");
        let start = cfg.add_node(NodeKind::Start);
        let f = cfg.add_node(NodeKind::Fork);
        let a = cfg.add_node(NodeKind::State(crate::cfg::StateKind::Hard));
        let b = cfg.add_node(NodeKind::State(crate::cfg::StateKind::Hard));
        cfg.add_edge(start, f);
        cfg.add_branch_edge(f, a, true);
        cfg.add_branch_edge(f, b, false);
        let d = Design::new(cfg, Dfg::new());
        assert!(d.validate().is_err());
    }
}
