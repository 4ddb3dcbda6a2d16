//! Level-order traversal and the level-order conjugate tree.
//!
//! A *level-order traversal* (thesis §3.3) visits the nodes of a binary
//! tree from the **deepest to the shallowest** level, left-to-right within
//! each level. Evaluating that sequence on a simple queue machine computes
//! the expression the tree denotes (thesis lemma + corollaries 1–2 of
//! §3.3). [`level_order_sequence`] is the thesis's linear-time
//! algorithm (Fig. 3.3): build the *level-order conjugate tree* by a
//! reverse post-order walk, then emit it with an in-order walk. The
//! tests check it against a plain sort of the nodes by `(depth desc,
//! left-to-right)`.

use crate::expr::{Op, ParseTree};

/// A node of the level-order conjugate tree: a *tree of right-only trees*.
///
/// `left` descends one level deeper in the original tree; `right` chains
/// together nodes that share a level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjugateTree {
    /// Operator carried over from the original parse-tree node.
    pub op: Op,
    /// Subtree holding all strictly deeper levels.
    pub left: Option<Box<ConjugateTree>>,
    /// Right-only chain of the remaining same-level nodes, left-to-right.
    pub right: Option<Box<ConjugateTree>>,
}

/// Build the level-order conjugate tree `δ(T)` of a parse tree.
///
/// This is a direct transliteration of the thesis's `BuildConjugate`
/// procedure (Fig. 3.3): the parse tree is walked in **reverse post-order**
/// (root, right subtree, left subtree) and each visited node is pushed onto
/// the front of the same-level chain one level below the current conjugate
/// position.
#[must_use]
pub fn conjugate_tree(tree: &ParseTree) -> ConjugateTree {
    // Sentinel root; its `left` ends up holding δ(T).
    let mut sentinel = ConjugateTree { op: Op::Literal(0), left: None, right: None };
    build_conjugate(&mut sentinel, tree);
    *sentinel.left.expect("non-empty parse tree yields non-empty conjugate")
}

fn build_conjugate(conj: &mut ConjugateTree, parse: &ParseTree) {
    match conj.left.take() {
        None => {
            conj.left =
                Some(Box::new(ConjugateTree { op: parse.op().clone(), left: None, right: None }));
        }
        Some(mut old) => {
            // Push `parse`'s operator in front of the existing chain head:
            // the old head's contents move into a fresh node spliced onto
            // the chain, and the head takes the new contents.
            let tmp = ConjugateTree { op: old.op.clone(), left: None, right: old.right.take() };
            old.right = Some(Box::new(tmp));
            old.op = parse.op().clone();
            conj.left = Some(old);
        }
    }
    let down = conj.left.as_mut().expect("just installed");
    if let Some(r) = parse.right() {
        build_conjugate(down, r);
    }
    if let Some(l) = parse.left() {
        build_conjugate(down, l);
    }
}

/// In-order traversal `ι(T)` of a conjugate tree.
#[must_use]
pub fn in_order(conj: &ConjugateTree) -> Vec<Op> {
    let mut out = Vec::new();
    in_order_into(conj, &mut out);
    out
}

fn in_order_into(conj: &ConjugateTree, out: &mut Vec<Op>) {
    if let Some(l) = &conj.left {
        in_order_into(l, out);
    }
    out.push(conj.op.clone());
    if let Some(r) = &conj.right {
        in_order_into(r, out);
    }
}

/// The level-order traversal `Π(T)` via the conjugate tree —
/// `ι(δ(T)) = Π(T)` (thesis lemma, §3.3).
///
/// The returned operator sequence is a valid simple-queue-machine program
/// for the expression `tree` denotes.
#[must_use]
pub fn level_order_sequence(tree: &ParseTree) -> Vec<Op> {
    in_order(&conjugate_tree(tree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ParseTree;

    /// Reference implementation of `Π(T)`: explicitly collect `(level,
    /// left-to-right rank)` pairs and sort by the level-order relation `π_T`.
    fn level_order_naive(tree: &ParseTree) -> Vec<Op> {
        let mut nodes: Vec<(usize, usize, Op)> = Vec::with_capacity(tree.node_count());
        let mut rank = 0usize;
        collect(tree, 0, &mut rank, &mut nodes);
        // Deeper levels first; stable left-to-right rank within a level.
        nodes.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        nodes.into_iter().map(|(_, _, op)| op).collect()
    }

    fn collect(
        tree: &ParseTree,
        level: usize,
        rank: &mut usize,
        out: &mut Vec<(usize, usize, Op)>,
    ) {
        // In-order ranking gives the left-to-right order within every level.
        if let Some(l) = tree.left() {
            collect(l, level + 1, rank, out);
        }
        out.push((level, *rank, tree.op().clone()));
        *rank += 1;
        if let Some(r) = tree.right() {
            collect(r, level + 1, rank, out);
        }
    }

    /// The level `Γ_T(n)` of every node, in in-order visitation order.
    fn levels_in_order(tree: &ParseTree) -> Vec<usize> {
        let mut nodes = Vec::new();
        let mut rank = 0;
        collect(tree, 0, &mut rank, &mut nodes);
        nodes.into_iter().map(|(lvl, _, _)| lvl).collect()
    }

    fn mnemonics(ops: &[Op]) -> Vec<String> {
        ops.iter().map(Op::mnemonic).collect()
    }

    #[test]
    fn thesis_figure_3_1_level_order() {
        // f ← ab + (c − d)/e: level order is c d a b sub e mul div add
        // (Table 3.1 queue machine column).
        let tree = ParseTree::parse_infix("a*b + (c-d)/e").unwrap();
        let seq = level_order_sequence(&tree);
        assert_eq!(
            mnemonics(&seq),
            vec!["fetch c", "fetch d", "fetch a", "fetch b", "sub", "fetch e", "mul", "div", "add"]
        );
    }

    #[test]
    fn conjugate_agrees_with_naive_on_examples() {
        for src in [
            "a",
            "-a",
            "a+b",
            "a*b+c",
            "-(a-b)",
            "(-a)*b",
            "a*(-b)",
            "a/(a+b) + (a+b)*c",
            "((a+b)*(-c))/d",
            "-(-(-(a)))",
            "(a+b)*(c+d) - (e/f)*(g-h)",
        ] {
            let tree = ParseTree::parse_infix(src).unwrap();
            assert_eq!(level_order_sequence(&tree), level_order_naive(&tree), "mismatch for {src}");
        }
    }

    #[test]
    fn single_node_tree() {
        let tree = ParseTree::var("x");
        assert_eq!(mnemonics(&level_order_sequence(&tree)), vec!["fetch x"]);
    }

    #[test]
    fn unary_chain_is_reversed_depth_order() {
        let tree = ParseTree::parse_infix("-(-(-x))").unwrap();
        assert_eq!(mnemonics(&level_order_sequence(&tree)), vec!["fetch x", "neg", "neg", "neg"]);
    }

    #[test]
    fn levels_match_definition() {
        let tree = ParseTree::parse_infix("a*b + (c-d)/e").unwrap();
        // In-order: a * b + c - d / e  → levels 2 1 2 0 3 2 3 1 2
        assert_eq!(levels_in_order(&tree), vec![2, 1, 2, 0, 3, 2, 3, 1, 2]);
    }

    #[test]
    fn sequence_length_equals_node_count() {
        let tree = ParseTree::parse_infix("(a+b)*(c+d) - e").unwrap();
        assert_eq!(level_order_sequence(&tree).len(), tree.node_count());
    }
}
