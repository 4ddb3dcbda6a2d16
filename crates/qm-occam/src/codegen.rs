//! Code generation: resolved OCCAM → contexts + splicing protocol (§4.2).
//!
//! Every constructor is compiled by *dynamic data-flow graph splicing*:
//!
//! * `while` → a chain of contexts: the parent `rfork`s a *test* context
//!   and transmits the loop-live set `L`; the test evaluates the condition,
//!   selects the *body* or *terminator* address, `ifork`s it (inheriting
//!   the out channel) and forwards `L`; the body computes and `ifork`s the
//!   test again; the terminator sends the live-out subset straight back to
//!   the parent (thesis Fig. 4.6).
//! * `if` → the parent evaluates the guards, selects a branch address with
//!   the `sel` lowering (`(a ∧ c) ∨ (b ∧ ¬c)`), `rfork`s it and exchanges
//!   the union interface; every branch echoes unmodified values.
//! * `par` → one `rfork` per component (Fig. 4.9).
//! * replicated `par` → a spawner loop `rfork`ing one context per
//!   instance plus a collector loop receiving one completion token per
//!   instance on a shared done-channel (Fig. 4.10).
//! * procedure instantiation → `rfork` of the (reentrant) procedure
//!   context; value parameters flow in, `var` parameters flow back
//!   (Fig. 4.5).
//!
//! Side effects are sequenced with control tokens (§4.6): one `K$io`
//! token for channel I/O and timing, and one `K$a$<array>` token per
//! array with multiple-readers/single-writer ordering. Control tokens are
//! part of context interfaces, so cross-context side-effect ordering rides
//! the same channels as data.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Display;

use qm_core::dfg::analysis;
use qm_isa::asm::Listing;
use qm_isa::Opcode;

use crate::ast::{BinOp, Decl, Expr, Lvalue, Param, Process, Replicator};
use crate::emit::{wire_end, Emitter};
use crate::graph::{Actor, ChanRef, ContextGraph, NodeId, ValueRef};
use crate::sema::{Resolved, SymKind};
use crate::Options;

/// Code generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// The program has a shape the code generator does not support (e.g.
    /// a procedure body capturing an outer variable) or an error it
    /// detects (e.g. a constant index out of bounds).
    Program(String),
    /// A result offset exceeds the queue page: the context is too large
    /// for one page.
    PageOverflow {
        /// Label of the context.
        label: String,
        /// The largest result offset.
        offset: usize,
    },
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("codegen error: ")?;
        match self {
            CodegenError::Program(msg) => f.write_str(msg),
            CodegenError::PageOverflow { label, offset } => write!(
                f,
                "context {label} too large: result offset {offset} exceeds the queue page"
            ),
        }
    }
}

impl std::error::Error for CodegenError {}

/// Generate assembly for a resolved program: its [`with_listing`]
/// listing, printed.
///
/// # Errors
///
/// [`CodegenError`] for unsupported shapes (e.g. procedure bodies
/// capturing outer variables) or contexts exceeding the queue page.
pub fn generate(resolved: &Resolved, opts: &Options) -> Result<String, CodegenError> {
    with_listing(resolved, opts, |listing, _| listing.to_string())
}

/// Emit every context of a resolved program into one listing, whose
/// labels borrow from the context graphs, and pass it with the number of
/// contexts to `f`.
///
/// # Errors
///
/// Same failures as [`generate`]; `f` runs only on success.
pub fn with_listing<R>(
    resolved: &Resolved,
    opts: &Options,
    f: impl FnOnce(&Listing<'_>, usize) -> R,
) -> Result<R, CodegenError> {
    let graphs = context_graphs(resolved, opts)?;
    let mut listing = Listing::default();
    let mut emitter = Emitter::default();
    for (label, graph) in &graphs {
        match emitter.emit(&mut listing, label, graph, opts.priority_scheduling) {
            Err(_) if opts.loop_unrolling => {
                // Unrolling inflated a context past its queue page: degrade
                // gracefully by recompiling with loops kept as contexts (the
                // §4.3 granularity trade-off, resource-pressure edition).
                return with_listing(resolved, &Options { loop_unrolling: false, ..*opts }, f);
            }
            emitted => emitted?,
        }
    }
    Ok(f(&listing, graphs.len()))
}

/// Build the per-context data-flow graphs without emitting code (used by
/// [`crate::draw`] and by tests that inspect graph structure).
///
/// # Errors
///
/// Same failures as [`generate`].
pub fn context_graphs(
    resolved: &Resolved,
    opts: &Options,
) -> Result<Vec<(String, ContextGraph)>, CodegenError> {
    let mut c = Compiler::new(resolved, opts);
    c.build_context("main".into(), &[], Some(&[]), false, |c, ctx| {
        c.stmt(ctx, &resolved.main, &NameSet::default())
    })?;
    Ok(c.contexts)
}

// ----------------------------------------------------------------------
// Names
// ----------------------------------------------------------------------

/// An interned name — a scalar, channel, array, parameter, control token
/// or compiler temporary — as an index into [`Names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Name(u32);

impl Name {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// The I/O + timing control token (interned first).
const K_IO: Name = Name(0);

/// One interned name.
#[derive(Debug)]
struct NameInfo<'a> {
    text: Cow<'a, str>,
    kind: Option<&'a SymKind>,
    /// A control token (`K$…`).
    is_k: bool,
    /// An array some statement writes (see [`written_arrays`]).
    written: bool,
    /// The array's control token `K$a$<name>`, once interned.
    token: Option<Name>,
}

/// The program's names, interned once. Source names borrow from the
/// resolved program; the names the compiler makes (array control tokens,
/// loop temporaries) contain `$`, which no source name can, and are
/// unique by construction.
#[derive(Debug)]
struct Names<'a> {
    syms: &'a HashMap<String, SymKind>,
    info: Vec<NameInfo<'a>>,
    ids: HashMap<&'a str, Name>,
}

impl<'a> Names<'a> {
    fn new(syms: &'a HashMap<String, SymKind>) -> Self {
        let mut names = Names { syms, info: Vec::new(), ids: HashMap::new() };
        let k_io = names.intern("K$io");
        debug_assert_eq!(k_io, K_IO);
        names
    }

    fn push(&mut self, text: Cow<'a, str>) -> Name {
        let name = Name(u32::try_from(self.info.len()).expect("fewer than 2^32 names"));
        let syms = self.syms;
        self.info.push(NameInfo {
            kind: syms.get(&*text),
            is_k: text.starts_with("K$"),
            written: false,
            token: None,
            text,
        });
        name
    }

    /// The name spelled `text` in the program.
    fn intern(&mut self, text: &'a str) -> Name {
        if let Some(&name) = self.ids.get(text) {
            return name;
        }
        let name = self.push(Cow::Borrowed(text));
        self.ids.insert(text, name);
        name
    }

    /// A new compiler temporary spelled `text`.
    fn temporary(&mut self, text: String) -> Name {
        self.push(Cow::Owned(text))
    }

    /// The control token `K$a$<array>` sequencing accesses to `array`.
    fn token(&mut self, array: Name) -> Name {
        if let Some(k) = self.info[array.index()].token {
            return k;
        }
        let k = self.push(Cow::Owned(format!("K$a${}", self.text(array))));
        self.info[array.index()].token = Some(k);
        k
    }

    fn text(&self, name: Name) -> &str {
        &self.info[name.index()].text
    }

    fn kind(&self, name: Name) -> Option<&'a SymKind> {
        self.info[name.index()].kind
    }

    fn is_k(&self, name: Name) -> bool {
        self.info[name.index()].is_k
    }

    /// Whether accesses to array `name` must be sequenced. Array
    /// parameters always thread their token (the bound array may be
    /// written through an alias); named arrays only when some statement
    /// writes them.
    fn k_needed(&self, name: Name) -> bool {
        self.kind(name) == Some(&SymKind::ArrayParam) || self.info[name.index()].written
    }

    /// The control tokens in `set`.
    fn tokens(&self, set: &NameSet) -> NameSet {
        let mut out = NameSet::default();
        for n in set.iter().filter(|&n| self.is_k(n)) {
            out.insert(n);
        }
        out
    }

    /// The members of `set` in lexicographic order of their spelling:
    /// the order of every context interface.
    fn sorted(&self, set: &NameSet) -> Vec<Name> {
        let mut out: Vec<Name> = set.iter().collect();
        out.sort_by(|&a, &b| self.text(a).cmp(self.text(b)));
        out
    }
}

/// A set of names: a bitset over name indices.
#[derive(Debug, Clone, Default)]
struct NameSet(Vec<u64>);

impl NameSet {
    fn of(names: &[Name]) -> Self {
        let mut set = NameSet::default();
        for &n in names {
            set.insert(n);
        }
        set
    }

    fn insert(&mut self, name: Name) {
        let word = name.index() / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (name.index() % 64);
    }

    fn remove(&mut self, name: Name) {
        if let Some(w) = self.0.get_mut(name.index() / 64) {
            *w &= !(1 << (name.index() % 64));
        }
    }

    fn contains(&self, name: Name) -> bool {
        self.0.get(name.index() / 64).is_some_and(|w| w & (1 << (name.index() % 64)) != 0)
    }

    fn union_with(&mut self, other: &NameSet) {
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (w, o) in self.0.iter_mut().zip(&other.0) {
            *w |= o;
        }
    }

    fn intersect_with(&mut self, other: &NameSet) {
        for (i, w) in self.0.iter_mut().enumerate() {
            *w &= other.0.get(i).copied().unwrap_or(0);
        }
    }

    fn subtract(&mut self, other: &NameSet) {
        for (w, o) in self.0.iter_mut().zip(&other.0) {
            *w &= !o;
        }
    }

    fn iter(&self) -> impl Iterator<Item = Name> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    #[allow(clippy::cast_possible_truncation)]
                    Name(i as u32 * 64 + b)
                })
            })
        })
    }
}

/// Use/def facts of one process (over scalars, channels and control
/// tokens, with locally-declared names removed), computed once per
/// program.
#[derive(Debug, Default)]
struct Facts {
    /// Names the process reads.
    uses: NameSet,
    /// Names the process may assign.
    defs: NameSet,
    /// Names the process assigns on every execution path (the only safe
    /// liveness kills). `if`/`while`/replications may run zero
    /// branches/iterations, so they never kill.
    must: NameSet,
}

// ----------------------------------------------------------------------
// Contexts
// ----------------------------------------------------------------------

/// Interface of a compiled child context.
#[derive(Debug, Clone)]
struct ChildPlan {
    label: String,
    /// Names in the order the child receives them on its in channel.
    inputs: Vec<Name>,
    /// Names in the order the child sends them on its out channel.
    outputs: Vec<Name>,
}

/// Side-effect sequencing state for one control token.
#[derive(Debug, Clone, Default)]
struct Tail {
    /// Write barriers: nodes every subsequent access must follow.
    barrier: Vec<NodeId>,
    /// Reads since the last barrier (a new barrier must follow them all).
    reads: Vec<NodeId>,
}

/// A context under construction.
struct Ctx {
    g: ContextGraph,
    /// The current value of each bound name, by name index.
    bindings: Vec<Option<ValueRef>>,
    tails: Vec<(Name, Tail)>,
    recv_ins: Vec<(Name, NodeId)>,
    /// Per-splice-channel send/recv chains, keyed by the channel value's
    /// producing node.
    chan_chains: HashMap<(NodeId, u8), NodeId>,
    /// Program-order chain through *every* potentially blocking channel
    /// operation (§4.6's strict single control token). A context may
    /// block on any channel op; chaining them in program order guarantees
    /// it blocks in the same order a sequential execution would, which is
    /// what makes the rendezvous protocol deadlock-free.
    io_chain: Option<NodeId>,
    /// First chained channel op (the prologue receives are linked in
    /// front of it during finalisation).
    first_io: Option<NodeId>,
}

impl Ctx {
    fn new(names: usize) -> Self {
        Ctx {
            g: ContextGraph::new(),
            bindings: vec![None; names],
            tails: Vec::new(),
            recv_ins: Vec::new(),
            chan_chains: HashMap::new(),
            io_chain: None,
            first_io: None,
        }
    }

    /// Thread `node` onto the program-order channel-operation chain.
    fn link_io(&mut self, node: NodeId) {
        if let Some(prev) = self.io_chain.replace(node) {
            self.g.add_ctrl(prev, node);
        } else {
            self.first_io = Some(node);
        }
    }

    fn bind(&mut self, name: Name, v: ValueRef) {
        if name.index() >= self.bindings.len() {
            self.bindings.resize(name.index() + 1, None);
        }
        self.bindings[name.index()] = Some(v);
    }

    fn bound(&self, name: Name) -> Option<ValueRef> {
        self.bindings.get(name.index()).copied().flatten()
    }

    /// Every name bound in this context.
    fn bound_names(&self) -> NameSet {
        let mut set = NameSet::default();
        for (i, b) in self.bindings.iter().enumerate() {
            if b.is_some() {
                #[allow(clippy::cast_possible_truncation)]
                set.insert(Name(i as u32));
            }
        }
        set
    }

    fn tail(&mut self, name: Name) -> &mut Tail {
        let i = match self.tails.iter().position(|&(n, _)| n == name) {
            Some(i) => i,
            None => {
                self.tails.push((name, Tail::default()));
                self.tails.len() - 1
            }
        };
        &mut self.tails[i].1
    }

    /// Control predecessors for a *read* access under token `name`.
    fn read_ctrl(&mut self, name: Name) -> Vec<NodeId> {
        self.tail(name).barrier.clone()
    }

    /// Control predecessors for a *barrier* access (write / transfer).
    fn barrier_ctrl(&mut self, name: Name) -> Vec<NodeId> {
        let t = self.tail(name);
        let mut c = t.barrier.clone();
        c.extend(t.reads.iter().copied());
        c.sort_unstable();
        c.dedup();
        c
    }

    fn note_read(&mut self, name: Name, node: NodeId) {
        self.tail(name).reads.push(node);
    }

    fn note_barrier(&mut self, name: Name, node: NodeId) {
        self.set_barrier(name, &[node]);
    }

    fn set_barrier(&mut self, name: Name, nodes: &[NodeId]) {
        let t = self.tail(name);
        t.barrier.clear();
        t.barrier.extend_from_slice(nodes);
        t.reads.clear();
    }

    /// Chain an operation on a run-time channel value: the previous
    /// operation on it, if any.
    fn chan_ctrl(&mut self, chan: ValueRef, node: NodeId) -> Option<NodeId> {
        self.chan_chains.insert((chan.node, chan.out), node)
    }
}

/// The prologue receive of `name`.
fn recv_node(recv_ins: &[(Name, NodeId)], name: Name) -> NodeId {
    recv_ins.iter().rev().find(|&&(n, _)| n == name).expect("input node known").1
}

struct Compiler<'a> {
    r: &'a Resolved,
    opts: &'a Options,
    names: Names<'a>,
    /// Facts of every process of the program, by address (the program
    /// is borrowed for the whole compilation, so addresses are stable).
    facts: HashMap<*const Process, Facts>,
    contexts: Vec<(String, ContextGraph)>,
    fresh: usize,
    /// Interface of each procedure, by index, once compiled.
    proc_plans: Vec<Option<ChildPlan>>,
}

impl<'a> Compiler<'a> {
    fn new(r: &'a Resolved, opts: &'a Options) -> Self {
        let mut names = Names::new(&r.syms);
        for array in written_arrays(r) {
            let n = names.intern(array);
            names.info[n.index()].written = true;
        }
        let mut c = Compiler {
            r,
            opts,
            names,
            facts: HashMap::new(),
            contexts: Vec::new(),
            fresh: 0,
            proc_plans: vec![None; r.procs.len()],
        };
        c.analyse(&r.main);
        for p in &r.procs {
            c.analyse(&p.body);
        }
        c
    }

    fn fresh_label(&mut self, base: impl Display) -> String {
        let n = self.fresh;
        self.fresh += 1;
        format!("{base}_{n}")
    }

    fn fresh_name(&mut self, base: &str) -> Name {
        let n = self.fresh;
        self.fresh += 1;
        self.names.temporary(format!("{base}${n}"))
    }

    fn facts(&self, p: &Process) -> &Facts {
        &self.facts[&std::ptr::from_ref(p)]
    }

    /// The value `name` holds in `ctx`.
    fn value(&self, ctx: &mut Ctx, name: Name) -> Result<ValueRef, CodegenError> {
        if let Some(v) = ctx.bound(name) {
            return Ok(v);
        }
        if self.names.is_k(name) {
            // Control tokens materialise lazily as a zero word.
            let v = ValueRef::of(ctx.g.add(Actor::Const(0), &[], &[]));
            ctx.bind(name, v);
            return Ok(v);
        }
        Err(CodegenError::Program(format!(
            "no binding for {} in this context (procedure bodies may only reference \
             their parameters)",
            self.names.text(name)
        )))
    }

    // ------------------------------------------------------------------
    // Context construction
    // ------------------------------------------------------------------

    /// Build a context: prologue receives for `live_in`, the body closure,
    /// then (when `live_out` is `Some`) epilogue sends on the out channel.
    /// Returns the interface plan; `allow_pi` enables §4.5 input
    /// sequencing (only safe when this context has a single, matching
    /// sender).
    fn build_context(
        &mut self,
        label: String,
        live_in: &[Name],
        live_out: Option<&[Name]>,
        allow_pi: bool,
        body: impl FnOnce(&mut Self, &mut Ctx) -> Result<(), CodegenError>,
    ) -> Result<ChildPlan, CodegenError> {
        let mut ctx = Ctx::new(self.names.info.len());
        for &name in live_in {
            let n = ctx.g.add(Actor::Recv(ChanRef::InReg), &[], &[]);
            ctx.bind(name, ValueRef::of(n));
            if self.names.is_k(name) {
                ctx.note_barrier(name, n);
            }
            ctx.recv_ins.push((name, n));
        }
        body(self, &mut ctx)?;
        if let Some(outs) = live_out {
            let mut prev: Option<NodeId> = None;
            for &name in outs {
                let v = self.value(&mut ctx, name)?;
                let mut ctrl: Vec<NodeId> = prev.into_iter().collect();
                if self.names.is_k(name) {
                    ctrl.extend(ctx.barrier_ctrl(name));
                }
                if prev.is_none() {
                    // Deadlock avoidance: drain every input before the
                    // first output send — the parent sends all inputs
                    // before receiving any output, and both sides block
                    // on the rendezvous.
                    ctrl.extend(ctx.recv_ins.iter().map(|&(_, n)| n));
                }
                let s = ctx.g.add(Actor::Send(ChanRef::OutReg), &[v], &ctrl);
                ctx.link_io(s);
                prev = Some(s);
            }
        }
        // Input sequencing: order the prologue receives.
        let inputs: Vec<Name> = if allow_pi && self.opts.input_sequencing && ctx.recv_ins.len() > 1
        {
            let nodes: Vec<NodeId> = ctx.recv_ins.iter().map(|&(_, n)| n).collect();
            analysis::analyse(&ctx.g, &nodes)
                .input_sequence()
                .iter()
                .map(|&(n, _)| {
                    ctx.recv_ins.iter().find(|&&(_, m)| m == n).expect("input node known").0
                })
                .collect()
        } else {
            live_in.to_vec()
        };
        // Chain the receives in the chosen order (they all share the in
        // channel, so order is semantically load-bearing).
        for pair in inputs.windows(2) {
            let (from, to) = (recv_node(&ctx.recv_ins, pair[0]), recv_node(&ctx.recv_ins, pair[1]));
            ctx.g.add_ctrl(from, to);
        }
        // Drain the inputs before any other channel operation can block
        // the context (same rationale as link_io).
        if let (Some(&last_in), Some(first_io)) = (inputs.last(), ctx.first_io) {
            let from = recv_node(&ctx.recv_ins, last_in);
            ctx.g.add_ctrl(from, first_io);
        }
        let end = ctx.g.add(Actor::End, &[], &[]);
        wire_end(&mut ctx.g, end);
        self.contexts.push((label.clone(), ctx.g));
        Ok(ChildPlan { label, inputs, outputs: live_out.map(<[Name]>::to_vec).unwrap_or_default() })
    }

    /// Parent-side splice: fork `target`, send `inputs` (translated
    /// through `map`: child name → parent name, or taken from
    /// `in_vals`), then receive `outputs` (rfork only). `spawn_only`
    /// skips the receives (replicated `par` bodies report on a
    /// done-channel instead).
    #[allow(clippy::too_many_arguments)]
    fn splice(
        &mut self,
        ctx: &mut Ctx,
        target: ValueRef,
        (inputs, outputs): (&[Name], &[Name]),
        iterative: bool,
        local: bool,
        map: &[(Name, Name)],
        in_vals: &[(Name, ValueRef)],
        spawn_only: bool,
    ) -> Result<(), CodegenError> {
        // Later entries win, as in a map built by successive inserts.
        let resolve =
            |name: Name| map.iter().rev().find(|&&(c, _)| c == name).map_or(name, |&(_, p)| p);
        let fork = ctx.g.add(Actor::Fork { iterative, local }, &[target], &[]);
        let c_in = ValueRef { node: fork, out: 0 };
        let mut last_send: Option<NodeId> = None;
        for &name in inputs {
            let parent_name = resolve(name);
            let v = match in_vals.iter().rev().find(|&&(n, _)| n == name) {
                Some(&(_, v)) => v,
                None => self.value(ctx, parent_name)?,
            };
            let is_k = self.names.is_k(parent_name);
            let ctrl = if is_k { ctx.barrier_ctrl(parent_name) } else { Vec::new() };
            let s = ctx.g.add(Actor::Send(ChanRef::Value), &[c_in, v], &ctrl);
            ctx.link_io(s);
            if let Some(c) = ctx.chan_ctrl(c_in, s) {
                ctx.g.add_ctrl(c, s);
            }
            if is_k {
                ctx.note_barrier(parent_name, s);
            }
            last_send = Some(s);
        }
        if iterative || spawn_only {
            return Ok(());
        }
        let c_out = ValueRef { node: fork, out: 1 };
        for (i, &name) in outputs.iter().enumerate() {
            let parent_name = resolve(name);
            // Deadlock avoidance: never wait for an output before every
            // input has been handed over.
            let ctrl = if i == 0 { last_send.as_slice() } else { &[] };
            let r = ctx.g.add(Actor::Recv(ChanRef::Value), &[c_out], ctrl);
            ctx.link_io(r);
            if let Some(c) = ctx.chan_ctrl(c_out, r) {
                ctx.g.add_ctrl(c, r);
            }
            ctx.bind(parent_name, ValueRef::of(r));
            if self.names.is_k(parent_name) {
                ctx.note_barrier(parent_name, r);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn const_node(&self, ctx: &mut Ctx, v: i32) -> ValueRef {
        ValueRef::of(ctx.g.add(Actor::Const(v), &[], &[]))
    }

    fn expr(&mut self, ctx: &mut Ctx, e: &'a Expr) -> Result<ValueRef, CodegenError> {
        Ok(match e {
            Expr::Const(v) => self.const_node(ctx, *v),
            Expr::Var(name) => {
                let name = self.names.intern(name);
                match self.names.kind(name) {
                    Some(SymKind::Array { addr, .. }) =>
                    {
                        #[allow(clippy::cast_possible_wrap)]
                        self.const_node(ctx, *addr as i32)
                    }
                    Some(SymKind::Chan { host: true }) => self.const_node(ctx, 0),
                    _ => self.value(ctx, name)?,
                }
            }
            Expr::Index(name, idx) => {
                let addr = self.addr_value(ctx, name, idx)?;
                let name = self.names.intern(name);
                if self.names.k_needed(name) {
                    let k = self.names.token(name);
                    let ctrl = ctx.read_ctrl(k);
                    let f = ctx.g.add(Actor::Fetch, &[addr], &ctrl);
                    ctx.note_read(k, f);
                    ValueRef::of(f)
                } else {
                    // Never-written (host-constant) array: reads need no
                    // sequencing.
                    ValueRef::of(ctx.g.add(Actor::Fetch, &[addr], &[]))
                }
            }
            Expr::Neg(inner) => {
                if let Expr::Const(v) = **inner {
                    return Ok(self.const_node(ctx, v.wrapping_neg()));
                }
                let v = self.expr(ctx, inner)?;
                ValueRef::of(ctx.g.add(Actor::Neg, &[v], &[]))
            }
            Expr::Not(inner) => {
                let v = self.expr(ctx, inner)?;
                ValueRef::of(ctx.g.add(Actor::Not, &[v], &[]))
            }
            Expr::Bin(op, a, b) => {
                let va = self.expr(ctx, a)?;
                let vb = self.expr(ctx, b)?;
                ValueRef::of(ctx.g.add(Actor::Bin(binop_opcode(*op)), &[va, vb], &[]))
            }
            Expr::Now => {
                let ctrl = ctx.barrier_ctrl(K_IO);
                let n = ctx.g.add(Actor::Now, &[], &ctrl);
                ctx.note_barrier(K_IO, n);
                ValueRef::of(n)
            }
        })
    }

    /// Byte address of `name[idx]`.
    fn addr_value(
        &mut self,
        ctx: &mut Ctx,
        name: &'a str,
        idx: &'a Expr,
    ) -> Result<ValueRef, CodegenError> {
        let array = self.names.intern(name);
        match self.names.kind(array) {
            Some(SymKind::Array { addr, len }) => {
                if let Expr::Const(k) = idx {
                    if *k < 0 || (*k as u32) >= *len {
                        return Err(CodegenError::Program(format!(
                            "constant index {k} out of bounds for {name}[{len}]"
                        )));
                    }
                    #[allow(clippy::cast_possible_wrap, clippy::cast_sign_loss)]
                    return Ok(self.const_node(ctx, (*addr + 4 * (*k as u32)) as i32));
                }
                #[allow(clippy::cast_possible_wrap)]
                let base = self.const_node(ctx, *addr as i32);
                self.indexed_addr(ctx, base, idx)
            }
            _ => {
                let base = self.value(ctx, array)?;
                self.indexed_addr(ctx, base, idx)
            }
        }
    }

    fn indexed_addr(
        &mut self,
        ctx: &mut Ctx,
        base: ValueRef,
        idx: &'a Expr,
    ) -> Result<ValueRef, CodegenError> {
        let iv = self.expr(ctx, idx)?;
        let two = self.const_node(ctx, 2);
        let scaled = ctx.g.add(Actor::Bin(Opcode::Lshift), &[iv, two], &[]);
        Ok(ValueRef::of(ctx.g.add(Actor::Bin(Opcode::Plus), &[base, ValueRef::of(scaled)], &[])))
    }

    /// The run-time channel word for a named channel.
    fn chan_value(&mut self, ctx: &mut Ctx, name: &'a str) -> Result<ValueRef, CodegenError> {
        let chan = self.names.intern(name);
        match self.names.kind(chan) {
            Some(SymKind::Chan { host: true }) => Ok(self.const_node(ctx, 0)),
            _ => self.value(ctx, chan),
        }
    }

    /// `sel(cond, a, b)` lowering: `(a ∧ cond) ∨ (b ∧ ¬cond)`.
    fn sel(&mut self, ctx: &mut Ctx, cond: ValueRef, a: ValueRef, b: ValueRef) -> ValueRef {
        // OCCAM truth is "any non-zero"; the mask trick needs the
        // canonical all-ones/all-zeroes encoding, so normalise first
        // (`ne` produces exactly that).
        let zero = self.const_node(ctx, 0);
        let c = ctx.g.add(Actor::Bin(Opcode::Ne), &[cond, zero], &[]);
        let cond = ValueRef::of(c);
        let t1 = ctx.g.add(Actor::Bin(Opcode::And), &[a, cond], &[]);
        let ncond = ctx.g.add(Actor::Not, &[cond], &[]);
        let t2 = ctx.g.add(Actor::Bin(Opcode::And), &[b, ValueRef::of(ncond)], &[]);
        ValueRef::of(ctx.g.add(Actor::Bin(Opcode::Or), &[ValueRef::of(t1), ValueRef::of(t2)], &[]))
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn stmts(
        &mut self,
        ctx: &mut Ctx,
        ps: &'a [Process],
        live_after: &NameSet,
    ) -> Result<(), CodegenError> {
        // Backward live sets: lives[i] is the set live after ps[i]. Only
        // *unconditional* definitions kill liveness — an `if`/`while`
        // may leave the old value in place, which the echo protocol must
        // then transmit.
        let mut lives: Vec<NameSet> = Vec::with_capacity(ps.len());
        let mut live = live_after.clone();
        for (i, p) in ps.iter().enumerate().rev() {
            let before = if i == 0 {
                NameSet::default()
            } else {
                let f = self.facts(p);
                let mut l = live.clone();
                l.subtract(&f.must);
                l.union_with(&f.uses);
                l
            };
            lives.push(std::mem::replace(&mut live, before));
        }
        for (p, live) in ps.iter().zip(lives.iter().rev()) {
            self.stmt(ctx, p, live)?;
        }
        Ok(())
    }

    fn stmt(
        &mut self,
        ctx: &mut Ctx,
        p: &'a Process,
        live_after: &NameSet,
    ) -> Result<(), CodegenError> {
        match p {
            Process::Skip => Ok(()),
            Process::Assign(Lvalue::Var(x), e) => {
                let v = self.expr(ctx, e)?;
                ctx.bind(self.names.intern(x), v);
                Ok(())
            }
            Process::Assign(Lvalue::Index(a, idx), e) => {
                let v = self.expr(ctx, e)?;
                let addr = self.addr_value(ctx, a, idx)?;
                self.store(ctx, a, addr, v);
                Ok(())
            }
            Process::Output(c, e) => {
                let v = self.expr(ctx, e)?;
                let cv = self.chan_value(ctx, c)?;
                let ctrl = ctx.barrier_ctrl(K_IO);
                let s = ctx.g.add(Actor::Send(ChanRef::Value), &[cv, v], &ctrl);
                ctx.link_io(s);
                ctx.note_barrier(K_IO, s);
                Ok(())
            }
            Process::Input(c, lv) => {
                let cv = self.chan_value(ctx, c)?;
                let ctrl = ctx.barrier_ctrl(K_IO);
                let r = ctx.g.add(Actor::Recv(ChanRef::Value), &[cv], &ctrl);
                ctx.link_io(r);
                ctx.note_barrier(K_IO, r);
                match lv {
                    Lvalue::Var(x) => ctx.bind(self.names.intern(x), ValueRef::of(r)),
                    Lvalue::Index(a, idx) => {
                        let addr = self.addr_value(ctx, a, idx)?;
                        self.store(ctx, a, addr, ValueRef::of(r));
                    }
                }
                Ok(())
            }
            Process::Wait(e) => {
                let v = self.expr(ctx, e)?;
                let ctrl = ctx.barrier_ctrl(K_IO);
                let w = ctx.g.add(Actor::Wait, &[v], &ctrl);
                ctx.link_io(w);
                ctx.note_barrier(K_IO, w);
                Ok(())
            }
            Process::Scope(decls, _, body) => {
                for d in decls {
                    match d {
                        Decl::Scalar(n) => {
                            let z = self.const_node(ctx, 0);
                            ctx.bind(self.names.intern(n), z);
                        }
                        Decl::Chan(n) => {
                            let c = ctx.g.add(Actor::ChanNew, &[], &[]);
                            ctx.bind(self.names.intern(n), ValueRef::of(c));
                        }
                        Decl::Array(..) => {}
                    }
                }
                self.stmt(ctx, body, live_after)
            }
            Process::Seq(None, ps) => self.stmts(ctx, ps, live_after),
            Process::Seq(Some(rep), ps) => self.gen_replicated_seq(ctx, rep, ps, live_after),
            Process::Par(None, ps) => self.gen_par(ctx, ps, live_after),
            Process::Par(Some(rep), ps) => self.gen_replicated_par(ctx, rep, ps),
            Process::If(branches) => self.gen_if(ctx, branches, live_after),
            Process::While(cond, body) => self.gen_while(ctx, p, cond, body, live_after),
            Process::Call(name, args) => self.gen_call(ctx, name, args),
        }
    }

    /// `array[addr] := v`, sequenced under the array's control token.
    fn store(&mut self, ctx: &mut Ctx, array: &'a str, addr: ValueRef, v: ValueRef) {
        let array = self.names.intern(array);
        let k = self.names.token(array);
        let ctrl = ctx.barrier_ctrl(k);
        let st = ctx.g.add(Actor::Store, &[addr, v], &ctrl);
        ctx.note_barrier(k, st);
    }

    // ------------------------------------------------------------------
    // Constructs
    // ------------------------------------------------------------------

    /// Shared loop machinery (Fig. 4.6): returns after wiring the parent's
    /// rfork/sends/recvs. `l` must be sorted and contain every name the
    /// condition and body touch; `outs ⊆ l` flows back to the parent.
    fn gen_loop(
        &mut self,
        ctx: &mut Ctx,
        l: &[Name],
        outs: &[Name],
        cond: impl FnOnce(&mut Self, &mut Ctx) -> Result<ValueRef, CodegenError>,
        body: impl FnOnce(&mut Self, &mut Ctx) -> Result<(), CodegenError>,
    ) -> Result<(), CodegenError> {
        let test_l = self.fresh_label("test");
        let body_l = self.fresh_label("body");
        let term_l = self.fresh_label("term");
        // Terminator: echo the live-outs to the inherited out channel.
        self.build_context(term_l.clone(), l, Some(outs), false, |_, _| Ok(()))?;
        // Body: compute, then ifork the test and forward L.
        self.build_context(body_l.clone(), l, None, false, |c, bctx| {
            body(c, bctx)?;
            let lbl = bctx.g.add(Actor::Label(test_l.clone()), &[], &[]);
            c.splice(bctx, ValueRef::of(lbl), (l, &[]), true, true, &[], &[], true)
        })?;
        // Test: evaluate the condition, select body/terminator, ifork it.
        self.build_context(test_l.clone(), l, None, false, |c, tctx| {
            let cv = cond(c, tctx)?;
            let bl = ValueRef::of(tctx.g.add(Actor::Label(body_l), &[], &[]));
            let tl = ValueRef::of(tctx.g.add(Actor::Label(term_l), &[], &[]));
            let target = c.sel(tctx, cv, bl, tl);
            c.splice(tctx, target, (l, &[]), true, true, &[], &[], true)
        })?;
        // Parent: rfork the test, send L, receive the outs.
        let lbl = ctx.g.add(Actor::Label(test_l), &[], &[]);
        self.splice(ctx, ValueRef::of(lbl), (l, outs), false, true, &[], &[], false)
    }

    /// The interface `(ins, outs)` of a spliced construct (loop, `if`,
    /// `par` branch) whose parts use `uses` and may define `defs`, as
    /// sets. Outputs are the live (or, without live-value analysis, all)
    /// defs plus every control token the parts touch. Echo semantics: a
    /// part's defs are may-defs (a branch or loop may not run), so every
    /// output value must also arrive as an input to echo back.
    fn interface(
        &self,
        ctx: &Ctx,
        uses: &NameSet,
        defs: &NameSet,
        live_after: &NameSet,
    ) -> (NameSet, NameSet) {
        let mut outs = defs.clone();
        let mut ins = uses.clone();
        if self.opts.live_value_analysis {
            outs.intersect_with(live_after);
        } else {
            // No live-value analysis: ship the whole bound environment
            // across the interface (the unoptimized baseline of §4.4).
            ins.union_with(&ctx.bound_names());
        }
        // Control tokens always round-trip: a construct that only *reads*
        // an array must still hand its token back, or the parent's next
        // write races with the construct's reads.
        outs.union_with(&self.names.tokens(uses));
        outs.union_with(&self.names.tokens(defs));
        ins.union_with(&outs);
        (ins, outs)
    }

    fn gen_while(
        &mut self,
        ctx: &mut Ctx,
        p: &'a Process,
        cond: &'a Expr,
        body: &'a Process,
        live_after: &NameSet,
    ) -> Result<(), CodegenError> {
        // The loop's own facts: the body's plus the condition's uses.
        let f = self.facts(p);
        let (l, outs) = self.interface(ctx, &f.uses, &f.defs, live_after);
        self.gen_loop(
            ctx,
            &self.names.sorted(&l),
            &self.names.sorted(&outs),
            |c, tctx| c.expr(tctx, cond),
            |c, bctx| c.stmt(bctx, body, &l),
        )
    }

    /// Is `seq i = [c0 for c1] ps` small and primitive enough to expand
    /// in place? Returns the constant bounds when it is.
    fn unrollable(&self, rep: &Replicator, ps: &[Process]) -> Option<(i32, i32)> {
        if !self.opts.loop_unrolling {
            return None;
        }
        let (Expr::Const(start), Expr::Const(count)) = (&rep.start, &rep.count) else {
            return None;
        };
        if !(0..=16).contains(count) {
            return None;
        }
        fn primitive_cost(p: &Process) -> Option<usize> {
            match p {
                Process::Skip => Some(0),
                Process::Assign(..) => Some(1),
                Process::Seq(None, ps) => ps.iter().map(primitive_cost).sum::<Option<usize>>(),
                _ => None, // constructs, I/O and declarations stay loops
            }
        }
        let cost: usize = ps.iter().map(primitive_cost).sum::<Option<usize>>()?;
        #[allow(clippy::cast_sign_loss)]
        if cost * (*count as usize) > 48 {
            return None;
        }
        Some((*start, *count))
    }

    /// `(uses, defs)` of the block `ps`.
    fn block_facts(&self, ps: &[Process]) -> (NameSet, NameSet) {
        let mut uses = NameSet::default();
        let mut defs = NameSet::default();
        for p in ps {
            let f = self.facts(p);
            uses.union_with(&f.uses);
            defs.union_with(&f.defs);
        }
        (uses, defs)
    }

    fn gen_replicated_seq(
        &mut self,
        ctx: &mut Ctx,
        rep: &'a Replicator,
        ps: &'a [Process],
        live_after: &NameSet,
    ) -> Result<(), CodegenError> {
        let i_name = self.names.intern(&rep.var);
        if let Some((start, count)) = self.unrollable(rep, ps) {
            // Expand in place: the body joins this context's acyclic
            // graph with the index bound to a constant (§4.3's trade-off,
            // biased toward larger graphs per context).
            for v in start..start.wrapping_add(count) {
                let c = self.const_node(ctx, v);
                ctx.bind(i_name, c);
                for p in ps {
                    self.stmt(ctx, p, live_after)?;
                }
            }
            return Ok(());
        }
        let lim = self.fresh_name("lim");
        let start_v = self.expr(ctx, &rep.start)?;
        let count_v = self.expr(ctx, &rep.count)?;
        let lim_v = ctx.g.add(Actor::Bin(Opcode::Plus), &[start_v, count_v], &[]);
        ctx.bind(i_name, start_v);
        ctx.bind(lim, ValueRef::of(lim_v));
        let (u, mut d) = self.block_facts(ps);
        d.insert(i_name);
        let (mut l, outs) = self.interface(ctx, &u, &d, live_after);
        l.insert(i_name);
        l.insert(lim);
        self.gen_loop(
            ctx,
            &self.names.sorted(&l),
            &self.names.sorted(&outs),
            |c, tctx| {
                let iv = c.value(tctx, i_name)?;
                let lv = c.value(tctx, lim)?;
                Ok(ValueRef::of(tctx.g.add(Actor::Bin(Opcode::Lt), &[iv, lv], &[])))
            },
            |c, bctx| {
                c.stmts(bctx, ps, &l)?;
                let iv = c.value(bctx, i_name)?;
                let one = c.const_node(bctx, 1);
                let next = bctx.g.add(Actor::Bin(Opcode::Plus), &[iv, one], &[]);
                bctx.bind(i_name, ValueRef::of(next));
                Ok(())
            },
        )
    }

    fn gen_if(
        &mut self,
        ctx: &mut Ctx,
        branches: &'a [(Expr, Process)],
        live_after: &NameSet,
    ) -> Result<(), CodegenError> {
        let mut all_u = NameSet::default();
        let mut all_d = NameSet::default();
        for (_, p) in branches {
            let f = self.facts(p);
            all_u.union_with(&f.uses);
            all_d.union_with(&f.defs);
        }
        let (in_set, out_set) = self.interface(ctx, &all_u, &all_d, live_after);
        let (ins, outs) = (self.names.sorted(&in_set), self.names.sorted(&out_set));
        // Branch contexts (echo semantics for values they don't write).
        let mut labels = Vec::with_capacity(branches.len());
        for (bi, (_, p)) in branches.iter().enumerate() {
            let label = self.fresh_label(format_args!("ifb{bi}"));
            self.build_context(label.clone(), &ins, Some(&outs), false, |c, bctx| {
                c.stmt(bctx, p, &out_set)
            })?;
            labels.push(label);
        }
        let skip_l = self.fresh_label("ifskip");
        self.build_context(skip_l.clone(), &ins, Some(&outs), false, |_, _| Ok(()))?;
        // Parent: evaluate guards, select the branch address, splice.
        let mut target = ValueRef::of(ctx.g.add(Actor::Label(skip_l), &[], &[]));
        for ((cond, _), label) in branches.iter().zip(labels).rev() {
            let cv = self.expr(ctx, cond)?;
            let bl = ValueRef::of(ctx.g.add(Actor::Label(label), &[], &[]));
            target = self.sel(ctx, cv, bl, target);
        }
        self.splice(ctx, target, (&ins, &outs), false, true, &[], &[], false)
    }

    fn gen_par(
        &mut self,
        ctx: &mut Ctx,
        ps: &'a [Process],
        live_after: &NameSet,
    ) -> Result<(), CodegenError> {
        // Build every branch context first.
        let mut plans = Vec::with_capacity(ps.len());
        let mut branch_writes: Vec<NameSet> = Vec::with_capacity(ps.len());
        for (bi, p) in ps.iter().enumerate() {
            let f = self.facts(p);
            let (in_set, out_set) = self.interface(ctx, &f.uses, &f.defs, live_after);
            let (ins, outs) = (self.names.sorted(&in_set), self.names.sorted(&out_set));
            branch_writes.push(self.names.tokens(&f.defs));
            let label = self.fresh_label(format_args!("parb{bi}"));
            let plan = self.build_context(label, &ins, Some(&outs), true, |c, bctx| {
                c.stmt(bctx, p, &out_set)
            })?;
            plans.push(plan);
        }
        // Parent: fork + send everything first…
        let mut forks = Vec::with_capacity(plans.len());
        let mut last_sends = Vec::with_capacity(plans.len());
        for (plan, writes) in plans.iter().zip(&branch_writes) {
            let lbl = ctx.g.add(Actor::Label(plan.label.clone()), &[], &[]);
            let fork = ctx.g.add(
                Actor::Fork { iterative: false, local: false },
                &[ValueRef::of(lbl)],
                &[],
            );
            let c_in = ValueRef { node: fork, out: 0 };
            let mut last: Option<NodeId> = None;
            for &name in &plan.inputs {
                let v = self.value(ctx, name)?;
                let is_k = self.names.is_k(name);
                let write_handoff = is_k && writes.contains(name);
                let ctrl = if write_handoff {
                    // The branch will write under this token: it must
                    // observe every earlier read too (write barrier).
                    ctx.barrier_ctrl(name)
                } else if is_k {
                    // Read-only replicated token handoff.
                    ctx.read_ctrl(name)
                } else {
                    Vec::new()
                };
                let s = ctx.g.add(Actor::Send(ChanRef::Value), &[c_in, v], &ctrl);
                ctx.link_io(s);
                if let Some(c) = ctx.chan_ctrl(c_in, s) {
                    ctx.g.add_ctrl(c, s);
                }
                if write_handoff {
                    ctx.note_barrier(name, s);
                } else if is_k {
                    ctx.note_read(name, s);
                }
                last = Some(s);
            }
            forks.push(fork);
            last_sends.push(last);
        }
        // …then receive every branch's outputs; merge control tokens.
        let mut k_recvs: Vec<(Name, Vec<NodeId>)> = Vec::new();
        for ((plan, fork), last) in plans.iter().zip(&forks).zip(&last_sends) {
            let c_out = ValueRef { node: *fork, out: 1 };
            for (i, &name) in plan.outputs.iter().enumerate() {
                // Deadlock avoidance: drain this branch's sends first.
                let ctrl = if i == 0 { last.as_slice() } else { &[] };
                let r = ctx.g.add(Actor::Recv(ChanRef::Value), &[c_out], ctrl);
                ctx.link_io(r);
                if let Some(c) = ctx.chan_ctrl(c_out, r) {
                    ctx.g.add_ctrl(c, r);
                }
                ctx.bind(name, ValueRef::of(r));
                if self.names.is_k(name) {
                    match k_recvs.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, recvs)) => recvs.push(r),
                        None => k_recvs.push((name, vec![r])),
                    }
                }
            }
        }
        for (name, recvs) in k_recvs {
            ctx.set_barrier(name, &recvs);
        }
        Ok(())
    }

    fn gen_replicated_par(
        &mut self,
        ctx: &mut Ctx,
        rep: &'a Replicator,
        ps: &'a [Process],
    ) -> Result<(), CodegenError> {
        let i_name = self.names.intern(&rep.var);
        let (mut u, d) = self.block_facts(ps);
        u.remove(i_name);
        // Control tokens the instances need copies of / the parent must
        // resynchronise after the join.
        let mut k_names = self.names.tokens(&u);
        k_names.union_with(&self.names.tokens(&d));
        let done = self.fresh_name("done");
        let cnum = ctx.g.add(Actor::ChanNew, &[], &[]);
        ctx.bind(done, ValueRef::of(cnum));
        // Instance context: receives (i, done, ins…), computes, reports.
        let mut ins = u.clone();
        ins.insert(i_name);
        ins.insert(done);
        ins.union_with(&k_names);
        let ins = self.names.sorted(&ins);
        let inst_l = self.fresh_label("parn");
        // Control tokens stay live through the instance body so nested
        // constructs hand them back — the done token must follow every
        // store, including those made inside nested loop contexts.
        let inst_plan = self.build_context(inst_l, &ins, None, true, |c, bctx| {
            c.stmts(bctx, ps, &k_names)?;
            // Completion token, after every side effect in here.
            let dv = c.value(bctx, done)?;
            let one = c.const_node(bctx, 1);
            let mut ctrl: Vec<NodeId> = Vec::new();
            for (_, t) in &bctx.tails {
                ctrl.extend(&t.barrier);
                ctrl.extend(&t.reads);
            }
            ctrl.sort_unstable();
            ctrl.dedup();
            let done_send = bctx.g.add(Actor::Send(ChanRef::Value), &[dv, one], &ctrl);
            bctx.link_io(done_send);
            Ok(())
        })?;
        let spawn = |c: &mut Self, ctx: &mut Ctx| {
            let lbl = ctx.g.add(Actor::Label(inst_plan.label.clone()), &[], &[]);
            c.splice(ctx, ValueRef::of(lbl), (&inst_plan.inputs, &[]), false, false, &[], &[], true)
        };
        // Constant instance count: inline the spawner and collector —
        // the parent forks every instance and gathers every completion
        // token straight from its own acyclic graph.
        if let (Expr::Const(start), Expr::Const(count), true) =
            (&rep.start, &rep.count, self.opts.loop_unrolling)
        {
            if (0..=16).contains(count) {
                let (start, count) = (*start, *count);
                for v in start..start.wrapping_add(count) {
                    let c = self.const_node(ctx, v);
                    ctx.bind(i_name, c);
                    spawn(self, ctx)?;
                }
                let done_v = self.value(ctx, done)?;
                let mut recvs = Vec::new();
                for _ in 0..count {
                    let r = ctx.g.add(Actor::Recv(ChanRef::Value), &[done_v], &[]);
                    ctx.link_io(r);
                    if let Some(c) = ctx.chan_ctrl(done_v, r) {
                        ctx.g.add_ctrl(c, r);
                    }
                    recvs.push(r);
                }
                if !recvs.is_empty() {
                    // Zero instances leave the prior ordering in force.
                    for name in k_names.iter() {
                        ctx.set_barrier(name, &recvs);
                    }
                }
                return Ok(());
            }
        }
        // Spawner loop: rfork one instance per index value.
        let lim = self.fresh_name("lim");
        let cnt = self.fresh_name("cnt");
        let start_v = self.expr(ctx, &rep.start)?;
        let count_v = self.expr(ctx, &rep.count)?;
        let lim_v = ctx.g.add(Actor::Bin(Opcode::Plus), &[start_v, count_v], &[]);
        ctx.bind(i_name, start_v);
        ctx.bind(cnt, count_v);
        ctx.bind(lim, ValueRef::of(lim_v));
        let mut l1 = u;
        l1.union_with(&NameSet::of(&[i_name, lim, done]));
        l1.union_with(&k_names);
        let l1 = self.names.sorted(&l1);
        self.gen_loop(
            ctx,
            &l1,
            &[],
            |c, tctx| {
                let iv = c.value(tctx, i_name)?;
                let lv = c.value(tctx, lim)?;
                Ok(ValueRef::of(tctx.g.add(Actor::Bin(Opcode::Lt), &[iv, lv], &[])))
            },
            |c, bctx| {
                spawn(c, bctx)?;
                let iv = c.value(bctx, i_name)?;
                let one = c.const_node(bctx, 1);
                let next = bctx.g.add(Actor::Bin(Opcode::Plus), &[iv, one], &[]);
                bctx.bind(i_name, ValueRef::of(next));
                Ok(())
            },
        )?;
        // Collector loop: one completion token per instance.
        let j = self.fresh_name("j");
        let sync = self.fresh_name("sync");
        let zero = self.const_node(ctx, 0);
        ctx.bind(j, zero);
        ctx.bind(sync, zero);
        let l2 = self.names.sorted(&NameSet::of(&[j, cnt, done, sync]));
        self.gen_loop(
            ctx,
            &l2,
            &[sync],
            |c, tctx| {
                let jv = c.value(tctx, j)?;
                let cv = c.value(tctx, cnt)?;
                Ok(ValueRef::of(tctx.g.add(Actor::Bin(Opcode::Lt), &[jv, cv], &[])))
            },
            |c, bctx| {
                let dv = c.value(bctx, done)?;
                let r = bctx.g.add(Actor::Recv(ChanRef::Value), &[dv], &[]);
                bctx.link_io(r);
                bctx.bind(sync, ValueRef::of(r));
                let jv = c.value(bctx, j)?;
                let one = c.const_node(bctx, 1);
                let next = bctx.g.add(Actor::Bin(Opcode::Plus), &[jv, one], &[]);
                bctx.bind(j, ValueRef::of(next));
                Ok(())
            },
        )?;
        // Re-establish every control token after the join.
        let sync_node = self.value(ctx, sync)?.node;
        for name in k_names.iter() {
            ctx.set_barrier(name, &[sync_node]);
        }
        Ok(())
    }

    fn gen_call(
        &mut self,
        ctx: &mut Ctx,
        name: &'a str,
        args: &'a [Expr],
    ) -> Result<(), CodegenError> {
        let r = self.r;
        let Some(SymKind::Proc { index }) = r.syms.get(name) else {
            return Err(CodegenError::Program(format!("{name} is not a procedure")));
        };
        let plan = self.proc_plan(*index)?;
        let params = &r.procs[*index].params;
        if params.len() != args.len() {
            return Err(CodegenError::Program(format!(
                "{name}: {} arguments for {} parameters",
                args.len(),
                params.len()
            )));
        }
        // Child-name → parent-name translation + explicit input values.
        let mut map: Vec<(Name, Name)> = vec![(K_IO, K_IO)];
        let mut in_vals: Vec<(Name, ValueRef)> = Vec::with_capacity(args.len());
        let mut out_binds: Vec<(Name, Name)> = Vec::new();
        for (param, arg) in params.iter().zip(args) {
            let pname = param.name();
            let child = self.names.intern(pname);
            match &r.syms[pname] {
                SymKind::ValueParam => {
                    let v = self.expr(ctx, arg)?;
                    in_vals.push((child, v));
                }
                SymKind::VarParam => {
                    let Expr::Var(argname) = arg else {
                        return Err(CodegenError::Program(format!(
                            "{name}: var parameter {pname} needs a scalar variable"
                        )));
                    };
                    let parent = self.names.intern(argname);
                    let v = self.value(ctx, parent)?;
                    in_vals.push((child, v));
                    out_binds.push((child, parent));
                }
                SymKind::ArrayParam => {
                    let Expr::Var(argname) = arg else {
                        return Err(CodegenError::Program(format!(
                            "{name}: array parameter {pname} needs an array name"
                        )));
                    };
                    let v = self.expr(ctx, arg)?;
                    in_vals.push((child, v));
                    let parent = self.names.intern(argname);
                    map.push((self.names.token(child), self.names.token(parent)));
                }
                other => {
                    return Err(CodegenError::Program(format!(
                        "parameter {pname} has unexpected kind {other:?}"
                    )))
                }
            }
        }
        map.extend(out_binds);
        let lbl = ctx.g.add(Actor::Label(plan.label), &[], &[]);
        self.splice(
            ctx,
            ValueRef::of(lbl),
            (&plan.inputs, &plan.outputs),
            false,
            false,
            &map,
            &in_vals,
            false,
        )
    }

    fn proc_plan(&mut self, index: usize) -> Result<ChildPlan, CodegenError> {
        if let Some(plan) = &self.proc_plans[index] {
            return Ok(plan.clone());
        }
        let r = self.r;
        let rp = &r.procs[index];
        // Fixed interface order (recursion-safe): params, then K tokens.
        let mut ins: Vec<Name> = rp.params.iter().map(|p| self.names.intern(p.name())).collect();
        let mut k_ins: Vec<Name> = Vec::new();
        for p in &rp.params {
            if r.syms[p.name()] == SymKind::ArrayParam {
                let array = self.names.intern(p.name());
                k_ins.push(self.names.token(array));
            }
        }
        k_ins.push(K_IO);
        k_ins.sort_by(|&a, &b| self.names.text(a).cmp(self.names.text(b)));
        ins.extend(&k_ins);
        let mut outs: Vec<Name> = Vec::new();
        for p in &rp.params {
            if matches!(p, Param::Var(_)) && r.syms[p.name()] == SymKind::VarParam {
                outs.push(self.names.intern(p.name()));
            }
        }
        outs.extend(k_ins);
        let label = self.fresh_label(format_args!("proc_{}", sanitize(&rp.name)));
        let plan = ChildPlan { label: label.clone(), inputs: ins.clone(), outputs: outs.clone() };
        self.proc_plans[index] = Some(plan.clone());
        let out_set = NameSet::of(&outs);
        self.build_context(label, &ins, Some(&outs), false, |c, bctx| {
            c.stmt(bctx, &rp.body, &out_set)
        })?;
        Ok(plan)
    }

    // ------------------------------------------------------------------
    // Use/def analysis (drives context interfaces)
    // ------------------------------------------------------------------

    /// Compute the facts of `p` and of every process inside it.
    fn analyse(&mut self, p: &'a Process) {
        let mut f = Facts::default();
        match p {
            Process::Skip => {}
            Process::Assign(Lvalue::Var(x), e) => {
                self.expr_uses(e, &mut f.uses);
                let x = self.names.intern(x);
                f.defs.insert(x);
                f.must.insert(x);
            }
            Process::Assign(Lvalue::Index(a, i), e) => {
                self.expr_uses(e, &mut f.uses);
                self.expr_uses(i, &mut f.uses);
                self.array_write(a, &mut f);
            }
            Process::Output(c, e) => {
                self.expr_uses(e, &mut f.uses);
                self.chan_uses(c, &mut f.uses);
                f.defs.insert(K_IO);
            }
            Process::Input(c, lv) => {
                self.chan_uses(c, &mut f.uses);
                f.defs.insert(K_IO);
                match lv {
                    Lvalue::Var(x) => {
                        let x = self.names.intern(x);
                        f.defs.insert(x);
                        f.must.insert(x);
                    }
                    Lvalue::Index(a, i) => {
                        self.expr_uses(i, &mut f.uses);
                        self.array_write(a, &mut f);
                    }
                }
            }
            Process::Wait(e) => {
                self.expr_uses(e, &mut f.uses);
                f.uses.insert(K_IO);
                f.defs.insert(K_IO);
            }
            Process::Seq(rep, ps) | Process::Par(rep, ps) => {
                for q in ps {
                    self.analyse(q);
                }
                let (mut iu, mut id) = self.block_facts(ps);
                if let Some(r) = rep {
                    self.expr_uses(&r.start, &mut f.uses);
                    self.expr_uses(&r.count, &mut f.uses);
                    let var = self.names.intern(&r.var);
                    iu.remove(var);
                    id.remove(var);
                } else {
                    for q in ps {
                        f.must.union_with(&self.facts(q).must);
                    }
                }
                f.uses.union_with(&iu);
                f.defs.union_with(&id);
            }
            Process::If(branches) => {
                for (c, q) in branches {
                    self.analyse(q);
                    self.expr_uses(c, &mut f.uses);
                    let qf = self.facts(q);
                    f.uses.union_with(&qf.uses);
                    f.defs.union_with(&qf.defs);
                }
            }
            Process::While(c, q) => {
                self.analyse(q);
                self.expr_uses(c, &mut f.uses);
                let qf = self.facts(q);
                f.uses.union_with(&qf.uses);
                f.defs.union_with(&qf.defs);
            }
            Process::Scope(decls, _, body) => {
                self.analyse(body);
                let bf = self.facts(body);
                f.uses.clone_from(&bf.uses);
                f.defs.clone_from(&bf.defs);
                f.must.clone_from(&bf.must);
                for decl in decls {
                    match decl {
                        Decl::Scalar(n) | Decl::Chan(n) => {
                            let n = self.names.intern(n);
                            f.uses.remove(n);
                            f.defs.remove(n);
                            f.must.remove(n);
                        }
                        Decl::Array(n, _) => {
                            let array = self.names.intern(n);
                            let k = self.names.token(array);
                            f.uses.remove(k);
                            f.defs.remove(k);
                        }
                    }
                }
            }
            Process::Call(name, args) => {
                for a in args {
                    self.expr_uses(a, &mut f.uses);
                }
                f.uses.insert(K_IO);
                f.defs.insert(K_IO);
                let r = self.r;
                if let Some(SymKind::Proc { index }) = r.syms.get(name) {
                    for (param, arg) in r.procs[*index].params.iter().zip(args) {
                        let Expr::Var(an) = arg else { continue };
                        match r.syms.get(param.name()) {
                            Some(SymKind::VarParam) => {
                                let an = self.names.intern(an);
                                f.uses.insert(an);
                                f.defs.insert(an);
                                f.must.insert(an);
                            }
                            Some(SymKind::ArrayParam) => {
                                let an = self.names.intern(an);
                                if self.names.k_needed(an) {
                                    let k = self.names.token(an);
                                    f.uses.insert(k);
                                    f.defs.insert(k);
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        self.facts.insert(std::ptr::from_ref(p), f);
    }

    /// Facts of a store into `array`: it reads the array parameter's
    /// base, and reads and writes the array's control token.
    fn array_write(&mut self, array: &'a str, f: &mut Facts) {
        let array = self.names.intern(array);
        if self.names.kind(array) == Some(&SymKind::ArrayParam) {
            f.uses.insert(array);
        }
        let k = self.names.token(array);
        f.uses.insert(k);
        f.defs.insert(k);
    }

    fn expr_uses(&mut self, e: &'a Expr, u: &mut NameSet) {
        match e {
            Expr::Const(_) => {}
            Expr::Now => u.insert(K_IO),
            Expr::Var(n) => {
                let n = self.names.intern(n);
                match self.names.kind(n) {
                    Some(
                        SymKind::Array { .. } | SymKind::Chan { host: true } | SymKind::Proc { .. },
                    )
                    | None => {}
                    _ => u.insert(n),
                }
            }
            Expr::Index(n, i) => {
                let n = self.names.intern(n);
                if self.names.kind(n) == Some(&SymKind::ArrayParam) {
                    u.insert(n);
                }
                if self.names.k_needed(n) {
                    u.insert(self.names.token(n));
                }
                self.expr_uses(i, u);
            }
            Expr::Neg(x) | Expr::Not(x) => self.expr_uses(x, u),
            Expr::Bin(_, a, b) => {
                self.expr_uses(a, u);
                self.expr_uses(b, u);
            }
        }
    }

    fn chan_uses(&mut self, c: &'a str, u: &mut NameSet) {
        let c = self.names.intern(c);
        if self.names.kind(c) != Some(&SymKind::Chan { host: true }) {
            u.insert(c);
        }
        u.insert(K_IO);
    }
}

/// Arrays (by unique name) that some statement writes, including writes
/// through procedure array parameters (propagated to call-site arguments
/// by fixpoint).
fn written_arrays(r: &Resolved) -> BTreeSet<&str> {
    let mut param_writes: Vec<BTreeSet<&str>> = r.procs.iter().map(|_| BTreeSet::new()).collect();
    loop {
        let mut changed = false;
        for i in 0..r.procs.len() {
            let mut w = BTreeSet::new();
            collect_writes(&r.procs[i].body, r, &param_writes, &mut w);
            if w != param_writes[i] {
                param_writes[i] = w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut written = BTreeSet::new();
    collect_writes(&r.main, r, &param_writes, &mut written);
    for p in &r.procs {
        collect_writes(&p.body, r, &param_writes, &mut written);
    }
    written
}

fn collect_writes<'a>(
    p: &'a Process,
    r: &'a Resolved,
    param_writes: &[BTreeSet<&'a str>],
    out: &mut BTreeSet<&'a str>,
) {
    match p {
        Process::Assign(Lvalue::Index(a, _), _) | Process::Input(_, Lvalue::Index(a, _)) => {
            out.insert(a);
        }
        Process::Assign(..)
        | Process::Input(..)
        | Process::Output(..)
        | Process::Skip
        | Process::Wait(_) => {}
        Process::Seq(_, ps) | Process::Par(_, ps) => {
            for q in ps {
                collect_writes(q, r, param_writes, out);
            }
        }
        Process::If(branches) => {
            for (_, q) in branches {
                collect_writes(q, r, param_writes, out);
            }
        }
        Process::While(_, q) | Process::Scope(_, _, q) => {
            collect_writes(q, r, param_writes, out);
        }
        Process::Call(name, args) => {
            let Some(SymKind::Proc { index }) = r.syms.get(name) else { return };
            for (param, arg) in r.procs[*index].params.iter().zip(args) {
                if param_writes[*index].contains(param.name()) {
                    if let Expr::Var(an) = arg {
                        out.insert(an);
                    }
                }
            }
        }
    }
}

fn binop_opcode(op: BinOp) -> Opcode {
    match op {
        BinOp::Add => Opcode::Plus,
        BinOp::Sub => Opcode::Minus,
        BinOp::Mul => Opcode::Mul,
        BinOp::Div => Opcode::Div,
        BinOp::Mod => Opcode::Mod,
        BinOp::And => Opcode::And,
        BinOp::Or => Opcode::Or,
        BinOp::Shl => Opcode::Lshift,
        BinOp::Shr => Opcode::Rshift,
        BinOp::Eq => Opcode::Eq,
        BinOp::Ne => Opcode::Ne,
        BinOp::Lt => Opcode::Lt,
        BinOp::Gt => Opcode::Gt,
        BinOp::Le => Opcode::Le,
        BinOp::Ge => Opcode::Ge,
    }
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}
