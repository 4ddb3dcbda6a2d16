//! Recursive-descent parser for the OCCAM subset.
//!
//! Declarations (`var`, `chan`, `proc`) precede the process they scope
//! over at the same indentation, per OCCAM convention. Constructors take
//! their component processes in an indented block. Unlike strict OCCAM,
//! expressions use conventional operator precedence (OCCAM required full
//! parenthesisation; accepting both is harmless).

use std::collections::HashMap;

use crate::ast::{BinOp, Decl, Expr, Lvalue, Param, ProcDef, Process, Replicator};
use crate::lex::{lex, SpannedTok, Tok};

/// Parse error with source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<crate::lex::LexError> for ParseError {
    fn from(e: crate::lex::LexError) -> Self {
        ParseError { line: e.line, msg: e.msg }
    }
}

/// Deepest nesting a program may have, counted from the outermost
/// process inward. Every construct (`seq`, `par`, `if`, `while`,
/// replicators, procedure bodies) is a level, and so are a declaration
/// scope, the body of a `while` or an `if` branch (a sequence when it
/// holds several processes) and every expression level (operators,
/// parentheses and index brackets). A procedure call counts as deep as
/// the body it calls, since later passes expand it in place. Those
/// passes walk the syntax tree recursively; the cap keeps each of them
/// well within a 2 MiB thread stack, so untrusted source fails here
/// with an error instead of overflowing a compiler thread's stack.
pub const MAX_NESTING: usize = 64;

/// The precedence of comparisons, which do not chain.
const COMPARISON: usize = 2;

/// Parse an OCCAM source text into its top-level process.
///
/// # Errors
///
/// [`ParseError`] on any lexical or syntactic problem, and on nesting
/// deeper than [`MAX_NESTING`].
pub fn parse(src: &str) -> Result<Process, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, depth: 0, deepest: 0, proc_depth: HashMap::new() };
    let process = p.process()?;
    p.expect(&Tok::Eof)?;
    Ok(process)
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Constructs and expression levels open around the next token.
    depth: usize,
    /// The deepest level reached so far, calls included.
    deepest: usize,
    /// Per procedure name, the levels its body reaches below its
    /// definition, callees included (the deepest of any procedures
    /// sharing the name).
    proc_depth: HashMap<String, usize>,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos.min(self.toks.len() - 1)].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].tok.clone();
        if self.pos < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { line: self.line(), msg: msg.into() })
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), ParseError> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {tok:?}, found {:?}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    /// One level deeper: a construct, a parenthesis, a unary operator or
    /// an index. The caller steps back out (`depth -= 1`) when done; a
    /// failed parse is abandoned whole, so error paths need not.
    fn nest(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        self.fits(0).map(drop)
    }

    /// `height`, when something that many levels tall (an expression,
    /// or a called procedure's body) fits the budget at the current
    /// depth.
    fn fits(&mut self, height: usize) -> Result<usize, ParseError> {
        if self.depth + height > MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.deepest = self.deepest.max(self.depth + height);
        Ok(height)
    }

    // Every function on a recursive path below keeps its frame small
    // (the rare branches live in functions of their own), so that the
    // deepest program the budget admits parses on a small stack.

    /// Declarations followed by a statement: the OCCAM "process".
    fn process(&mut self) -> Result<Process, ParseError> {
        self.nest()?;
        let mut decls: Vec<Decl> = Vec::new();
        let mut procs: Vec<ProcDef> = Vec::new();
        loop {
            if self.at_keyword("var") || self.at_keyword("chan") {
                self.declaration(&mut decls)?;
            } else if self.at_keyword("proc") {
                procs.push(self.proc_def()?);
            } else {
                break;
            }
        }
        if decls.is_empty() && procs.is_empty() {
            let stmt = self.statement()?;
            self.depth -= 1;
            return Ok(stmt);
        }
        // The scope is a level of its own around the statement.
        self.nest()?;
        let stmt = self.statement()?;
        self.depth -= 2;
        Ok(Process::Scope(decls, procs, Box::new(stmt)))
    }

    /// `var a, v[n]:` or `chan c:`.
    fn declaration(&mut self, decls: &mut Vec<Decl>) -> Result<(), ParseError> {
        let is_var = self.at_keyword("var");
        self.bump();
        loop {
            let name = self.ident()?;
            if is_var && *self.peek() == Tok::LBracket {
                self.bump();
                let len = match self.bump() {
                    Tok::Int(n) if n > 0 && n <= i64::from(u32::MAX) => {
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        {
                            n as u32
                        }
                    }
                    other => {
                        return self.err(format!(
                            "array length must be a positive literal, found {other:?}"
                        ))
                    }
                };
                self.expect(&Tok::RBracket)?;
                decls.push(Decl::Array(name, len));
            } else if is_var {
                decls.push(Decl::Scalar(name));
            } else {
                decls.push(Decl::Chan(name));
            }
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Tok::Colon)?;
        self.expect(&Tok::Newline)
    }

    /// `proc name(params) =` and its indented body.
    fn proc_def(&mut self) -> Result<ProcDef, ParseError> {
        self.bump();
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let mode = self.ident()?;
                let param = match mode.as_str() {
                    "value" => Param::Value(self.ident()?),
                    "var" => Param::Var(self.ident()?),
                    // Bare name defaults to `var` like OCCAM 1.
                    _ => Param::Var(mode),
                };
                params.push(param);
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Eq)?;
        self.expect(&Tok::Newline)?;
        self.expect(&Tok::Indent)?;
        let outer = std::mem::replace(&mut self.deepest, self.depth);
        let body = self.process()?;
        let below = self.deepest - self.depth;
        self.deepest = self.deepest.max(outer);
        let known = self.proc_depth.entry(name.clone()).or_default();
        *known = (*known).max(below);
        self.expect(&Tok::Dedent)?;
        // Optional trailing ':' line closing the definition.
        if *self.peek() == Tok::Colon {
            self.bump();
            self.expect(&Tok::Newline)?;
        }
        Ok(ProcDef { name, params, body })
    }

    fn replicator(&mut self) -> Result<Option<Replicator>, ParseError> {
        if let Tok::Ident(_) = self.peek() {
            let var = self.ident()?;
            self.expect(&Tok::Eq)?;
            self.expect(&Tok::LBracket)?;
            let start = self.expr()?;
            if !self.at_keyword("for") {
                return self.err("expected 'for' in replicator");
            }
            self.bump();
            let count = self.expr()?;
            self.expect(&Tok::RBracket)?;
            Ok(Some(Replicator { var, start, count }))
        } else {
            Ok(None)
        }
    }

    fn block(&mut self) -> Result<Vec<Process>, ParseError> {
        self.expect(&Tok::Newline)?;
        if *self.peek() != Tok::Indent {
            return Ok(Vec::new()); // empty constructor body (e.g. `seq` alone)
        }
        self.bump();
        let mut out = Vec::new();
        while *self.peek() != Tok::Dedent {
            out.push(self.process()?);
        }
        self.bump(); // Dedent
        Ok(out)
    }

    fn statement(&mut self) -> Result<Process, ParseError> {
        let keyword = ["seq", "par", "while", "if"].into_iter().find(|kw| self.at_keyword(kw));
        match keyword {
            Some(kw @ ("seq" | "par")) => {
                self.bump();
                let rep = self.replicator()?;
                let body = self.block()?;
                Ok(if kw == "seq" { Process::Seq(rep, body) } else { Process::Par(rep, body) })
            }
            Some("while") => {
                self.bump();
                let cond = self.expr()?;
                // A body of several processes is a sequence: a level.
                self.nest()?;
                let mut body = self.block()?;
                self.depth -= 1;
                let inner = match body.len() {
                    1 => body.remove(0),
                    _ => Process::Seq(None, body),
                };
                Ok(Process::While(cond, Box::new(inner)))
            }
            Some(_) => self.if_construct(),
            None => self.primitive(),
        }
    }

    fn if_construct(&mut self) -> Result<Process, ParseError> {
        self.bump();
        self.expect(&Tok::Newline)?;
        self.expect(&Tok::Indent)?;
        let mut branches = Vec::new();
        while *self.peek() != Tok::Dedent {
            let guard = self.expr()?;
            self.expect(&Tok::Newline)?;
            self.expect(&Tok::Indent)?;
            // The branch, and its body when that is a sequence: levels.
            self.nest()?;
            let mut body = Vec::new();
            while *self.peek() != Tok::Dedent {
                body.push(self.process()?);
            }
            self.depth -= 1;
            self.bump();
            let inner = match body.len() {
                1 => body.into_iter().next().expect("len checked"),
                _ => Process::Seq(None, body),
            };
            branches.push((guard, inner));
        }
        self.bump();
        Ok(Process::If(branches))
    }

    /// `skip`, `wait`, a call, an assignment, an output or an input.
    fn primitive(&mut self) -> Result<Process, ParseError> {
        match self.peek().clone() {
            Tok::Ident(kw) if kw == "skip" => {
                self.bump();
                self.expect(&Tok::Newline)?;
                Ok(Process::Skip)
            }
            Tok::Ident(kw) if kw == "wait" => {
                self.bump();
                // `wait now after e` (thesis syntax); `now after` optional.
                if self.at_keyword("now") {
                    self.bump();
                    if self.at_keyword("after") {
                        self.bump();
                    }
                }
                let e = self.expr()?;
                self.expect(&Tok::Newline)?;
                Ok(Process::Wait(e))
            }
            Tok::Ident(_) => {
                let name = self.ident()?;
                match self.peek().clone() {
                    Tok::LParen => {
                        self.bump();
                        let mut args = Vec::new();
                        if *self.peek() != Tok::RParen {
                            loop {
                                args.push(self.expr()?);
                                if *self.peek() == Tok::Comma {
                                    self.bump();
                                } else {
                                    break;
                                }
                            }
                        }
                        self.expect(&Tok::RParen)?;
                        // Later passes expand the callee's body here.
                        let callee = self.proc_depth.get(&name).copied().unwrap_or(0);
                        self.fits(callee + 1)?;
                        self.expect(&Tok::Newline)?;
                        Ok(Process::Call(name, args))
                    }
                    Tok::LBracket => {
                        self.bump();
                        let idx = self.expr()?;
                        self.expect(&Tok::RBracket)?;
                        self.expect(&Tok::Assign)?;
                        let e = self.expr()?;
                        self.expect(&Tok::Newline)?;
                        Ok(Process::Assign(Lvalue::Index(name, Box::new(idx)), e))
                    }
                    Tok::Assign => {
                        self.bump();
                        let e = self.expr()?;
                        self.expect(&Tok::Newline)?;
                        Ok(Process::Assign(Lvalue::Var(name), e))
                    }
                    Tok::Bang => {
                        self.bump();
                        let e = self.expr()?;
                        self.expect(&Tok::Newline)?;
                        Ok(Process::Output(name, e))
                    }
                    Tok::Query => {
                        self.bump();
                        let lv = self.lvalue()?;
                        self.expect(&Tok::Newline)?;
                        Ok(Process::Input(name, lv))
                    }
                    other => self.err(format!("unexpected {other:?} after identifier")),
                }
            }
            other => self.err(format!("expected a process, found {other:?}")),
        }
    }

    fn lvalue(&mut self) -> Result<Lvalue, ParseError> {
        let name = self.ident()?;
        if *self.peek() == Tok::LBracket {
            self.bump();
            let idx = self.expr()?;
            self.expect(&Tok::RBracket)?;
            Ok(Lvalue::Index(name, Box::new(idx)))
        } else {
            Ok(Lvalue::Var(name))
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.binary(0)?.0)
    }

    /// The binary operator at the next token and its precedence, from
    /// 0 (loosest) up.
    fn binary_op(&self) -> Option<(BinOp, usize)> {
        Some(match self.peek() {
            Tok::Pipe => (BinOp::Or, 0),
            Tok::Ident(s) if s == "or" => (BinOp::Or, 0),
            Tok::Amp => (BinOp::And, 1),
            Tok::Ident(s) if s == "and" => (BinOp::And, 1),
            Tok::Eq => (BinOp::Eq, COMPARISON),
            Tok::Ne => (BinOp::Ne, COMPARISON),
            Tok::Lt => (BinOp::Lt, COMPARISON),
            Tok::Gt => (BinOp::Gt, COMPARISON),
            Tok::Le => (BinOp::Le, COMPARISON),
            Tok::Ge => (BinOp::Ge, COMPARISON),
            Tok::Shl => (BinOp::Shl, 3),
            Tok::Shr => (BinOp::Shr, 3),
            Tok::Plus => (BinOp::Add, 4),
            Tok::Minus => (BinOp::Sub, 4),
            Tok::Star => (BinOp::Mul, 5),
            Tok::Slash => (BinOp::Div, 5),
            Tok::Backslash => (BinOp::Mod, 5),
            _ => return None,
        })
    }

    /// An expression of operators of precedence `min` or tighter, and
    /// its height. Operators associate to the left; a comparison takes
    /// no comparison as its left operand.
    fn binary(&mut self, min: usize) -> Result<(Expr, usize), ParseError> {
        let (mut lhs, mut height) = self.unary_expr()?;
        let mut max = usize::MAX;
        while let Some((op, level)) = self.binary_op().filter(|&(_, l)| (min..=max).contains(&l)) {
            self.bump();
            let (rhs, rhs_height) = self.binary(level + 1)?;
            height = self.fits(1 + height.max(rhs_height))?;
            lhs = Expr::bin(op, lhs, rhs);
            if level == COMPARISON {
                max = COMPARISON - 1;
            }
        }
        Ok((lhs, height))
    }

    fn unary_expr(&mut self) -> Result<(Expr, usize), ParseError> {
        let neg = match self.peek() {
            Tok::Minus => true,
            Tok::Ident(kw) if kw == "not" => false,
            _ => return self.atom(),
        };
        self.bump();
        self.nest()?;
        let (inner, height) = self.unary_expr()?;
        self.depth -= 1;
        Ok(match (neg, inner) {
            // Fold negated literals so `-1` is a constant, not a
            // negation node.
            (true, Expr::Const(v)) => (Expr::Const(v.wrapping_neg()), height),
            (true, other) => (Expr::Neg(Box::new(other)), self.fits(height + 1)?),
            (false, other) => (Expr::Not(Box::new(other)), self.fits(height + 1)?),
        })
    }

    fn atom(&mut self) -> Result<(Expr, usize), ParseError> {
        if *self.peek() != Tok::LParen {
            return self.leaf();
        }
        self.bump();
        self.nest()?;
        let inner = self.binary(0)?;
        self.depth -= 1;
        self.expect(&Tok::RParen)?;
        Ok(inner)
    }

    /// A literal, a keyword constant, a variable or an array element.
    fn leaf(&mut self) -> Result<(Expr, usize), ParseError> {
        let e = match self.bump() {
            Tok::Int(n) => {
                if n > i64::from(i32::MAX) {
                    return self.err("integer literal exceeds 32 bits");
                }
                #[allow(clippy::cast_possible_truncation)]
                Expr::Const(n as i32)
            }
            Tok::Ident(name) => match name.as_str() {
                "true" => Expr::Const(-1),
                "false" => Expr::Const(0),
                "now" => Expr::Now,
                _ if *self.peek() == Tok::LBracket => return self.index(name),
                _ => Expr::Var(name),
            },
            other => return self.err(format!("expected an expression, found {other:?}")),
        };
        Ok((e, 1))
    }

    /// `name[index]`, from the `[`.
    fn index(&mut self, name: String) -> Result<(Expr, usize), ParseError> {
        self.bump();
        self.nest()?;
        let (idx, height) = self.binary(0)?;
        self.depth -= 1;
        self.expect(&Tok::RBracket)?;
        Ok((Expr::Index(name, Box::new(idx)), self.fits(height + 1)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thesis_iteration_example_parses() {
        // Fig. 4.6's program.
        let src = "\
var sum, result:
seq
  sum := 0
  seq k = [1 for 10]
    sum := sum + k
  result := sum
";
        let p = parse(src).unwrap();
        match p {
            Process::Scope(decls, procs, body) => {
                assert_eq!(decls.len(), 2);
                assert!(procs.is_empty());
                match *body {
                    Process::Seq(None, stmts) => {
                        assert_eq!(stmts.len(), 3);
                        assert!(matches!(stmts[1], Process::Seq(Some(_), _)));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dynamic_process_creation_example() {
        // Fig. 4.7.
        let src = "\
var n:
seq
  n := 4
  par i = [1 for n]
    skip
";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn channels_and_io() {
        let src = "\
chan c:
par
  c ! 5 + 1
  var x:
  c ? x
";
        let p = parse(src).unwrap();
        match p {
            Process::Scope(_, _, body) => match *body {
                Process::Par(None, branches) => {
                    assert!(matches!(branches[0], Process::Output(..)));
                    assert!(matches!(branches[1], Process::Scope(..)));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn if_with_guards() {
        let src = "\
var x, y:
if
  x < 0
    y := 0 - x
  true
    y := x
";
        let p = parse(src).unwrap();
        match p {
            Process::Scope(_, _, body) => match *body {
                Process::If(branches) => assert_eq!(branches.len(), 2),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn while_loop() {
        let src = "\
var i:
while i < 10
  i := i + 1
";
        assert!(
            matches!(parse(src).unwrap(), Process::Scope(_, _, b) if matches!(*b, Process::While(..)))
        );
    }

    #[test]
    fn procedure_definition_and_call() {
        let src = "\
proc double(value x, var y) =
  y := x * 2
seq
  var a:
  double(21, a)
";
        let p = parse(src).unwrap();
        match p {
            Process::Scope(decls, procs, _) => {
                assert!(decls.is_empty());
                assert_eq!(procs.len(), 1);
                assert_eq!(procs[0].name, "double");
                assert_eq!(procs[0].params.len(), 2);
                assert!(matches!(procs[0].params[0], Param::Value(_)));
                assert!(matches!(procs[0].params[1], Param::Var(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arrays_parse() {
        let src = "\
var v[8], i:
seq
  v[0] := 1
  i := v[0] + v[1]
";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn expression_precedence() {
        let src = "var x:\nx := 1 + 2 * 3\n";
        match parse(src).unwrap() {
            Process::Scope(_, _, b) => match *b {
                Process::Assign(_, e) => {
                    assert_eq!(
                        e,
                        Expr::bin(
                            BinOp::Add,
                            Expr::Const(1),
                            Expr::bin(BinOp::Mul, Expr::Const(2), Expr::Const(3))
                        )
                    );
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_report_lines() {
        let e = parse("var x:\nx := := 1\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn wait_now_after() {
        let src = "wait now after 100\n";
        assert!(matches!(parse(src).unwrap(), Process::Wait(_)));
    }

    fn assigned(src: &str) -> Expr {
        match parse(&format!("var a, b, c, d:\nx := {src}\n")) {
            Ok(Process::Scope(_, _, b)) => match *b {
                Process::Assign(_, e) => e,
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("{src}: {other:?}"),
        }
    }

    #[test]
    fn operators_associate_left_and_comparisons_do_not_chain() {
        let v = |n: &str| Expr::Var(n.into());
        assert_eq!(
            assigned("a - b - c"),
            Expr::bin(BinOp::Sub, Expr::bin(BinOp::Sub, v("a"), v("b")), v("c"))
        );
        assert_eq!(
            assigned("a = b or c < d and a"),
            Expr::bin(
                BinOp::Or,
                Expr::bin(BinOp::Eq, v("a"), v("b")),
                Expr::bin(BinOp::And, Expr::bin(BinOp::Lt, v("c"), v("d")), v("a"))
            )
        );
        assert_eq!(
            assigned("a << b + c * -d"),
            Expr::bin(
                BinOp::Shl,
                v("a"),
                Expr::bin(
                    BinOp::Add,
                    v("b"),
                    Expr::bin(BinOp::Mul, v("c"), Expr::Neg(Box::new(v("d"))))
                )
            )
        );
        assert_eq!(assigned("-5 \\ -(3)"), Expr::bin(BinOp::Mod, Expr::Const(-5), Expr::Const(-3)));
        let e = parse("var a, b, c:\nx := a < b < c\n").unwrap_err();
        assert_eq!((e.line, e.msg.as_str()), (2, "expected Newline, found Lt"));
    }

    #[test]
    fn nesting_past_the_budget_is_an_error_at_its_line() {
        let deep = |k: usize| format!("var x:\nseq\n  x := {}1{}\n", "(".repeat(k), ")".repeat(k));
        assert!(parse(&deep(MAX_NESTING - 3)).is_ok());
        let e = parse(&deep(MAX_NESTING - 2)).unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.msg, format!("nesting deeper than {MAX_NESTING} levels"));
        // An operator chain is as deep as its syntax tree, though it
        // needs no parentheses.
        let chain = |k: usize| format!("var x:\nx := x{}\n", " + x".repeat(k));
        assert!(parse(&chain(MAX_NESTING - 3)).is_ok());
        assert!(parse(&chain(MAX_NESTING - 2)).is_err());
        // A call is as deep as the body it expands.
        let calls = |k: usize| {
            let mut src = String::from("proc p0() =\n  skip\n");
            for i in 1..k {
                src += &format!("proc p{i}() =\n  p{}()\n", i - 1);
            }
            src + &format!("p{}()\n", k - 1)
        };
        assert!(parse(&calls(MAX_NESTING / 2 - 1)).is_ok());
        assert!(parse(&calls(MAX_NESTING / 2)).is_err());
    }
}
