//! Reference interpreter for the OCCAM subset.
//!
//! Executes a *resolved* program (see [`crate::sema`]) directly over the
//! AST with the machine's exact arithmetic (wrapping two's complement,
//! division by zero yields zero, Booleans are all-ones/all-zeroes). Used
//! as the differential-testing oracle for the full compile-and-simulate
//! pipeline and as a debugging aid.
//!
//! Concurrency is interpreted *sequentially*: `par` branches run in
//! order, and channels are unbounded FIFO buffers. This matches OCCAM's
//! observable behaviour exactly for programs whose `par` branches are
//! independent or communicate producer-before-consumer; programs that
//! need true rendezvous interleaving (e.g. a later branch feeding an
//! earlier one) are reported as [`InterpError::ChannelEmpty`].

use std::collections::{HashMap, VecDeque};

use crate::ast::{BinOp, Decl, Expr, Lvalue, Param, Process, Replicator};
use crate::sema::{Resolved, SymKind};

/// Interpreter failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// A channel read found no buffered value (the program needs true
    /// rendezvous concurrency, which this oracle does not model).
    ChannelEmpty(String),
    /// Array index out of bounds.
    Bounds {
        /// Array name.
        array: String,
        /// Offending index.
        index: i32,
    },
    /// A `while` loop exceeded the iteration budget.
    Diverged,
    /// Malformed program reached the interpreter (compiler-checked cases).
    Malformed(String),
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::ChannelEmpty(c) => write!(f, "read from empty channel {c}"),
            InterpError::Bounds { array, index } => {
                write!(f, "index {index} out of bounds for {array}")
            }
            InterpError::Diverged => write!(f, "while loop exceeded the iteration budget"),
            InterpError::Malformed(m) => write!(f, "malformed program: {m}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Final state of an interpreted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpOutcome {
    /// Values sent to `screen`.
    pub output: Vec<i32>,
    /// Final contents of every array, by unique name.
    pub arrays: HashMap<String, Vec<i32>>,
}

/// The interpreter.
pub struct Interp<'a> {
    r: &'a Resolved,
    vars: HashMap<String, i32>,
    arrays: HashMap<String, Vec<i32>>,
    /// Array-parameter name → array it is bound to (call-time aliasing).
    aliases: HashMap<String, String>,
    channels: HashMap<String, VecDeque<i32>>,
    output: Vec<i32>,
    input: VecDeque<i32>,
    clock: i64,
    budget: u64,
}

const BOOL_TRUE: i32 = -1;
const BOOL_FALSE: i32 = 0;

impl<'a> Interp<'a> {
    /// New interpreter over a resolved program, with optional host input
    /// for `keyboard`.
    #[must_use]
    pub fn new(r: &'a Resolved, input: Vec<i32>) -> Self {
        let mut arrays = HashMap::new();
        for (name, kind) in &r.syms {
            if let SymKind::Array { len, .. } = kind {
                arrays.insert(name.clone(), vec![0i32; *len as usize]);
            }
        }
        Interp {
            r,
            vars: HashMap::new(),
            aliases: HashMap::new(),
            arrays,
            channels: HashMap::new(),
            output: Vec::new(),
            input: input.into(),
            clock: 0,
            budget: 10_000_000,
        }
    }

    /// Run the program to completion.
    ///
    /// # Errors
    ///
    /// See [`InterpError`].
    pub fn run(mut self) -> Result<InterpOutcome, InterpError> {
        let main = self.r.main.clone();
        self.process(&main)?;
        Ok(InterpOutcome { output: self.output, arrays: self.arrays })
    }

    fn spend(&mut self) -> Result<(), InterpError> {
        self.budget = self.budget.checked_sub(1).ok_or(InterpError::Diverged)?;
        Ok(())
    }

    fn expr(&mut self, e: &Expr) -> Result<i32, InterpError> {
        Ok(match e {
            Expr::Const(v) => *v,
            Expr::Now => {
                self.clock += 1;
                #[allow(clippy::cast_possible_truncation)]
                {
                    self.clock as i32
                }
            }
            Expr::Var(name) => match self.r.syms.get(name) {
                Some(SymKind::Array { addr, .. }) => {
                    #[allow(clippy::cast_possible_wrap)]
                    {
                        *addr as i32
                    }
                }
                Some(SymKind::Chan { host: true }) => 0,
                _ => self.vars.get(name).copied().unwrap_or(0),
            },
            Expr::Index(name, idx) => {
                let i = self.expr(idx)?;
                self.array_read(name, i)?
            }
            Expr::Neg(x) => self.expr(x)?.wrapping_neg(),
            Expr::Not(x) => !self.expr(x)?,
            Expr::Bin(op, a, b) => {
                let a = self.expr(a)?;
                let b = self.expr(b)?;
                binop(*op, a, b)
            }
        })
    }

    fn resolve_array(&self, name: &str) -> Result<String, InterpError> {
        if self.arrays.contains_key(name) {
            Ok(name.to_string())
        } else {
            Err(InterpError::Malformed(format!("unknown array {name}")))
        }
    }

    fn array_read(&mut self, name: &str, index: i32) -> Result<i32, InterpError> {
        let name = self.alias_of(name);
        let key = self.resolve_array(&name)?;
        let arr = &self.arrays[&key];
        let Ok(i) = usize::try_from(index) else {
            return Err(InterpError::Bounds { array: key, index });
        };
        arr.get(i).copied().ok_or(InterpError::Bounds { array: key, index })
    }

    fn array_write(&mut self, name: &str, index: i32, value: i32) -> Result<(), InterpError> {
        let name = self.alias_of(name);
        let key = self.resolve_array(&name)?;
        let len = self.arrays[&key].len();
        let idx = usize::try_from(index).ok().filter(|&i| i < len);
        match idx {
            Some(i) => {
                self.arrays.get_mut(&key).expect("resolved")[i] = value;
                Ok(())
            }
            None => Err(InterpError::Bounds { array: key, index }),
        }
    }

    /// Array parameters alias their argument arrays; aliases live in a
    /// string-valued side map encoded in `vars` as interned ids.
    fn alias_of(&self, name: &str) -> String {
        let mut current = name.to_string();
        let mut hops = 0;
        while let Some(next) = self.aliases.get(&current) {
            current.clone_from(next);
            hops += 1;
            if hops > 32 {
                break;
            }
        }
        current
    }

    fn lvalue(&mut self, lv: &Lvalue, value: i32) -> Result<(), InterpError> {
        match lv {
            Lvalue::Var(x) => {
                self.vars.insert(x.clone(), value);
                Ok(())
            }
            Lvalue::Index(a, idx) => {
                let i = self.expr(idx)?;
                self.array_write(a, i, value)
            }
        }
    }

    fn chan_key(&mut self, name: &str) -> String {
        match self.r.syms.get(name) {
            Some(SymKind::Chan { host: true }) => "host".into(),
            Some(SymKind::Chan { host: false }) => name.to_string(),
            // Channel id received through a parameter: its *value*
            // identifies the channel.
            _ => format!("#{}", self.vars.get(name).copied().unwrap_or(0)),
        }
    }

    fn process(&mut self, p: &Process) -> Result<(), InterpError> {
        self.spend()?;
        match p {
            Process::Skip => Ok(()),
            Process::Wait(e) => {
                let t = i64::from(self.expr(e)?);
                self.clock = self.clock.max(t);
                Ok(())
            }
            Process::Assign(lv, e) => {
                let v = self.expr(e)?;
                self.lvalue(lv, v)
            }
            Process::Output(c, e) => {
                let v = self.expr(e)?;
                let key = self.chan_key(c);
                if key == "host" {
                    self.output.push(v);
                } else {
                    self.channels.entry(key).or_default().push_back(v);
                }
                Ok(())
            }
            Process::Input(c, lv) => {
                let key = self.chan_key(c);
                let v = if key == "host" {
                    self.input.pop_front().ok_or(InterpError::ChannelEmpty(key))?
                } else {
                    self.channels
                        .get_mut(&key)
                        .and_then(VecDeque::pop_front)
                        .ok_or(InterpError::ChannelEmpty(key))?
                };
                self.lvalue(lv, v)
            }
            Process::Seq(rep, ps) | Process::Par(rep, ps) => match rep {
                Some(r) => self.replicated(r, ps),
                None => {
                    for q in ps {
                        self.process(q)?;
                    }
                    Ok(())
                }
            },
            Process::If(branches) => {
                for (cond, body) in branches {
                    if self.expr(cond)? != 0 {
                        return self.process(body);
                    }
                }
                Ok(())
            }
            Process::While(cond, body) => {
                while self.expr(cond)? != 0 {
                    self.spend()?;
                    self.process(body)?;
                }
                Ok(())
            }
            Process::Scope(decls, _, body) => {
                for d in decls {
                    match d {
                        Decl::Scalar(n) => {
                            self.vars.insert(n.clone(), 0);
                        }
                        Decl::Chan(n) => {
                            self.channels.entry(n.clone()).or_default();
                        }
                        Decl::Array(..) => {}
                    }
                }
                self.process(body)
            }
            Process::Call(name, args) => self.call(name, args),
        }
    }

    fn replicated(&mut self, rep: &Replicator, ps: &[Process]) -> Result<(), InterpError> {
        let start = self.expr(&rep.start)?;
        let count = self.expr(&rep.count)?;
        for v in 0..count.max(0) {
            self.vars.insert(rep.var.clone(), start.wrapping_add(v));
            for q in ps {
                self.process(q)?;
            }
        }
        Ok(())
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Result<(), InterpError> {
        let Some(SymKind::Proc { index }) = self.r.syms.get(name) else {
            return Err(InterpError::Malformed(format!("{name} is not a procedure")));
        };
        let proc = self.r.procs[*index].clone();
        // Evaluate arguments, bind parameters (names are unique, so no
        // save/restore is needed; recursion shadows by design since each
        // level re-binds before body entry — value snapshots below keep
        // recursive frames separate).
        let mut saved_vars = Vec::new();
        let mut saved_aliases = Vec::new();
        let mut var_backbinds = Vec::new();
        for (param, arg) in proc.params.iter().zip(args) {
            let pname = param.name().to_string();
            match self.r.syms.get(&pname) {
                Some(SymKind::ArrayParam) => {
                    let Expr::Var(an) = arg else {
                        return Err(InterpError::Malformed(format!(
                            "array parameter {pname} needs an array name"
                        )));
                    };
                    saved_aliases.push((pname.clone(), self.aliases.get(&pname).cloned()));
                    let target = self.alias_of(an);
                    self.aliases.insert(pname, target);
                }
                _ => {
                    let v = self.expr(arg)?;
                    saved_vars.push((pname.clone(), self.vars.get(&pname).copied()));
                    self.vars.insert(pname.clone(), v);
                    if matches!(param, Param::Var(_)) {
                        if let Expr::Var(an) = arg {
                            var_backbinds.push((pname, an.clone()));
                        }
                    }
                }
            }
        }
        self.process(&proc.body)?;
        for (pname, an) in var_backbinds {
            let v = self.vars.get(&pname).copied().unwrap_or(0);
            self.vars.insert(an, v);
        }
        for (pname, old) in saved_vars {
            match old {
                Some(v) => self.vars.insert(pname, v),
                None => self.vars.remove(&pname),
            };
        }
        for (pname, old) in saved_aliases {
            match old {
                Some(v) => self.aliases.insert(pname, v),
                None => self.aliases.remove(&pname),
            };
        }
        Ok(())
    }
}

fn binop(op: BinOp, a: i32, b: i32) -> i32 {
    let boolean = |v: bool| if v { BOOL_TRUE } else { BOOL_FALSE };
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Mod => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Shl => a.wrapping_shl(b.rem_euclid(32) as u32),
        BinOp::Shr => a.wrapping_shr(b.rem_euclid(32) as u32),
        BinOp::Eq => boolean(a == b),
        BinOp::Ne => boolean(a != b),
        BinOp::Lt => boolean(a < b),
        BinOp::Gt => boolean(a > b),
        BinOp::Le => boolean(a <= b),
        BinOp::Ge => boolean(a >= b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::sema::analyse;

    fn run_src(src: &str) -> InterpOutcome {
        let r = analyse(&parse(src).unwrap()).unwrap();
        Interp::new(&r, vec![]).run().unwrap()
    }

    #[test]
    fn sum_loop() {
        let out = run_src(
            "var sum:\nseq\n  sum := 0\n  seq k = [1 for 10]\n    sum := sum + k\n  screen ! sum\n",
        );
        assert_eq!(out.output, vec![55]);
    }

    #[test]
    fn arrays_and_if() {
        let out = run_src(
            "\
var v[4], i, best:
seq
  seq i = [0 for 4]
    v[i] := (i * 7) \\ 5
  best := 0
  seq i = [0 for 4]
    if
      v[i] > best
        best := v[i]
  screen ! best
",
        );
        assert_eq!(out.output, vec![4]);
    }

    #[test]
    fn channels_buffer_within_par() {
        let out = run_src(
            "\
chan c:
var x:
seq
  par
    c ! 41
    seq
      c ? x
      screen ! x + 1
",
        );
        assert_eq!(out.output, vec![42]);
    }

    #[test]
    fn procedures_and_recursion() {
        let out = run_src(
            "\
proc fact(value n, var r) =
  if
    n <= 1
      r := 1
    true
      var sub:
      seq
        fact(n - 1, sub)
        r := n * sub
var f:
seq
  fact(6, f)
  screen ! f
",
        );
        assert_eq!(out.output, vec![720]);
    }

    #[test]
    fn array_params_alias() {
        let out = run_src(
            "\
proc fill(v, value n) =
  var i:
  seq i = [0 for n]
    v[i] := i + 1
var d[5], s, i:
seq
  fill(d, 5)
  s := 0
  seq i = [0 for 5]
    s := s + d[i]
  screen ! s
",
        );
        assert_eq!(out.output, vec![15]);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let r = analyse(&parse("var v[2], x:\nx := v[5]\n").unwrap()).unwrap();
        assert!(matches!(Interp::new(&r, vec![]).run(), Err(InterpError::Bounds { .. })));
    }

    #[test]
    fn divergent_loop_is_cut_off() {
        let r = analyse(&parse("var x:\nwhile true\n  x := x + 1\n").unwrap()).unwrap();
        let mut i = Interp::new(&r, vec![]);
        i.budget = 1000;
        assert_eq!(i.run(), Err(InterpError::Diverged));
    }
}
