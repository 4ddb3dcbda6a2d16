//! Graphviz export of data-flow graphs — the thesis's `draw`/`drawpic`
//! utilities (§4.8, Fig. 4.21) re-imagined for DOT.
//!
//! Value edges are solid and labelled with their operand slot; control
//! token arcs (§4.6) are dashed — matching the thesis's figures where
//! control arcs are drawn distinctly from data arcs.

use std::fmt::Write as _;

use crate::graph::{Actor, ChanRef, ContextGraph};

/// Render one context graph as a DOT digraph named `label`.
#[must_use]
pub fn to_dot(label: &str, graph: &ContextGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{label}\" {{");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=ellipse, fontname=\"Helvetica\"];");
    for id in 0..graph.len() {
        let (text, shape) = describe(graph.payload(id));
        let _ = writeln!(out, "  n{id} [label=\"{text}\", shape={shape}];");
    }
    for id in 0..graph.len() {
        for (slot, v) in graph.vins(id).iter().enumerate() {
            let tail = if graph.payload(v.node).value_outs() > 1 {
                format!(" taillabel=\"{}\"", v.out)
            } else {
                String::new()
            };
            let _ = writeln!(out, "  n{} -> n{id} [label=\"{slot}\"{tail}];", v.node);
        }
        for c in graph.ctrl_preds(id) {
            let _ = writeln!(out, "  n{c} -> n{id} [style=dashed, color=gray50];");
        }
    }
    out.push_str("}\n");
    out
}

fn describe(actor: &Actor) -> (String, &'static str) {
    match actor {
        Actor::Const(v) => (v.to_string(), "plaintext"),
        Actor::Label(l) => (format!("&{l}"), "plaintext"),
        Actor::Copy => ("copy".into(), "ellipse"),
        Actor::Neg => ("−".into(), "circle"),
        Actor::Not => ("~".into(), "circle"),
        Actor::Bin(op) => (op.mnemonic().to_string(), "circle"),
        Actor::Fetch => ("mem?".into(), "box"),
        Actor::Store => ("mem!".into(), "box"),
        Actor::Recv(cr) => (format!("?{}", chan_suffix(*cr)), "box"),
        Actor::Send(cr) => (format!("!{}", chan_suffix(*cr)), "box"),
        Actor::Fork { iterative: true, .. } => ("ifork".into(), "diamond"),
        Actor::Fork { iterative: false, .. } => ("rfork".into(), "diamond"),
        Actor::ChanNew => ("chan".into(), "diamond"),
        Actor::Now => ("now".into(), "box"),
        Actor::Wait => ("wait".into(), "box"),
        Actor::End => ("end".into(), "doublecircle"),
    }
}

fn chan_suffix(cr: ChanRef) -> &'static str {
    match cr {
        ChanRef::InReg => "in",
        ChanRef::OutReg => "out",
        ChanRef::Value => "",
    }
}

/// Compile a program and render every context as DOT, concatenated (one
/// digraph per context).
///
/// # Errors
///
/// Any [`crate::CompileError`] from compilation.
pub fn program_to_dot(src: &str, opts: &crate::Options) -> Result<String, crate::CompileError> {
    let ast = crate::parse::parse(src).map_err(|e| crate::CompileError::Parse(e.to_string()))?;
    let resolved =
        crate::sema::analyse(&ast).map_err(|e| crate::CompileError::Sema(e.to_string()))?;
    let graphs = crate::codegen::context_graphs(&resolved, opts)
        .map_err(|e| crate::CompileError::Codegen(e.to_string()))?;
    let mut out = String::new();
    for (label, g) in &graphs {
        out.push_str(&to_dot(label, g));
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Actor, ContextGraph, ValueRef};
    use qm_isa::Opcode;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut g = ContextGraph::new();
        let a = g.add(Actor::Const(1), &[], &[]);
        let b = g.add(Actor::Const(2), &[], &[]);
        let s = g.add(Actor::Bin(Opcode::Plus), &[ValueRef::of(a), ValueRef::of(b)], &[]);
        let _e = g.add(Actor::End, &[], &[s]);
        let dot = to_dot("t", &g);
        assert!(dot.starts_with("digraph \"t\""));
        assert!(dot.contains("n0 -> n2"));
        assert!(dot.contains("style=dashed"), "control arcs are dashed");
        assert!(dot.contains("plus"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn whole_programs_render() {
        let src = "\
var x:
seq
  x := 0
  while x < 3
    x := x + 1
  screen ! x
";
        let dot = program_to_dot(src, &crate::Options::default()).unwrap();
        assert!(dot.matches("digraph").count() >= 4, "main + loop contexts");
        assert!(dot.contains("rfork") || dot.contains("ifork"));
    }
}
