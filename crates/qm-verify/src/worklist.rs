//! The fixpoint solver the two worklist passes share.
//!
//! The queue pass and the deep pass both solve one context at a time
//! with a FIFO worklist of program points: pop a point, step its
//! instruction from the point's in-state, and join the out-state into
//! each successor, queueing the successor when it is new or its state
//! changed. Which states the passes see, how often each point joins
//! (the deep pass widens after eight joins) and where a round-budget
//! stop lands are all defined by that per-point schedule, so it is the
//! contract.
//!
//! Compiled programs are straight lines: iteration and choice become
//! forked contexts, so the worklist pops a point, finds one new
//! successor and nothing else queued, and pops that successor next with
//! the very state it was just given. [`Worklist::solve`] keeps exactly
//! that schedule but steps such a *run* in place on one working state,
//! storing no in-state for the points after the run's head. A stored
//! in-state is needed again only when a later join reaches one of those
//! points or the round budget stops the context; the solver then
//! *materializes* the run: it re-walks the run from a copy of the
//! head's in-state taken when the run began, storing each point's
//! state. Every point of a run was stepped exactly once and joined by
//! nothing since (a join materializes first), and a step is a function
//! of its in-state, so the re-walk regenerates exactly the states the
//! per-point worklist stores. The per-point worklist itself survives as
//! a test oracle ([`PER_POINT`]).

use std::collections::VecDeque;

use qm_isa::UWord;

use crate::decoded::{DecodedCode, Succs};

/// One worklist analysis: its abstract state, its transfer function and
/// its join.
pub(crate) trait Dataflow {
    /// Abstract state at one program point.
    type State: Clone;
    /// What one step leaves at its point besides the out-state.
    type Step: Copy;

    /// Step the instruction at `addr`: `state` holds the in-state and
    /// is left holding the out-state.
    fn step(&mut self, addr: UWord, state: &mut Self::State) -> Self::Step;

    /// The successors of a step.
    fn succs(step: &Self::Step) -> Succs;

    /// Join `from` into `into`, the `joins`-th join into that point;
    /// true when `into` changed.
    fn merge(&mut self, into: &mut Self::State, from: &Self::State, joins: usize) -> bool;
}

/// [`Worklist`] index entry for a word that is not a program point.
const NO_POINT: u32 = u32::MAX;

/// Where a point's in-state lives.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// In [`Worklist::states`].
    Stored(u32),
    /// Not stored: the point was stepped in place inside this run.
    InRun(u32),
}

/// One program point of the context under analysis.
struct Point<S> {
    slot: Slot,
    /// Joins into the in-state so far.
    joins: u32,
    /// The latest step from the in-state.
    last: Option<S>,
}

/// A straight-line run stepped in place: the head's in-state as the run
/// began, and the run's points (head first) in `chain[start..end]`.
struct Run {
    head_state: u32,
    start: u32,
    end: u32,
    /// Some point of the run still has no stored in-state.
    live: bool,
}

#[cfg(test)]
thread_local! {
    /// Test oracle switch: solve with the per-point worklist, which
    /// stores every point's in-state and steps a copy of it.
    pub(crate) static PER_POINT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// What the in-place solver did, for the differential's coverage
    /// floor: runs materialized, and joins past the eighth into one
    /// point.
    static COVERAGE: std::cell::Cell<[usize; 2]> = const { std::cell::Cell::new([0; 2]) };
}

#[cfg(test)]
fn cover(what: usize) {
    COVERAGE.with(|c| {
        let mut v = c.get();
        v[what] += 1;
        c.set(v);
    });
}

/// The program points of one context's worklist analysis: per-point
/// data in discovery order, a dense per-word index from address to
/// point, the stored in-states, the runs and the worklist. One table
/// serves every context of a pass; [`solve`](Self::solve) resets only
/// the index entries the previous context set, so a context allocates
/// only when it outgrows every earlier one.
pub(crate) struct Worklist<'a, D: Dataflow> {
    code: &'a DecodedCode<'a>,
    /// Per object word: the id of its point, or [`NO_POINT`].
    index: Vec<u32>,
    addrs: Vec<UWord>,
    points: Vec<Point<D::Step>>,
    states: Vec<D::State>,
    runs: Vec<Run>,
    /// The points of every run, run after run.
    chain: Vec<u32>,
    work: VecDeque<u32>,
}

impl<'a, D: Dataflow> Worklist<'a, D> {
    pub(crate) fn new(code: &'a DecodedCode<'a>) -> Self {
        Worklist {
            code,
            index: vec![NO_POINT; code.len()],
            addrs: Vec::new(),
            points: Vec::new(),
            states: Vec::new(),
            runs: Vec::new(),
            chain: Vec::new(),
            work: VecDeque::new(),
        }
    }

    /// Forget the previous context; `entry` becomes the first point,
    /// queued.
    fn start(&mut self, entry: UWord, state: D::State) {
        for &addr in &self.addrs {
            if let Some(w) = self.code.index(addr) {
                self.index[w] = NO_POINT;
            }
        }
        self.addrs.clear();
        self.points.clear();
        self.states.clear();
        self.runs.clear();
        self.chain.clear();
        self.work.clear();
        self.add_stored(entry, state);
    }

    /// Make `addr` a new point.
    fn add(&mut self, addr: UWord, slot: Slot) -> u32 {
        let id = u32::try_from(self.points.len()).expect("fewer points than object words");
        if let Some(w) = self.code.index(addr) {
            self.index[w] = id;
        }
        self.addrs.push(addr);
        self.points.push(Point { slot, joins: 0, last: None });
        id
    }

    /// Store `state` as a new point's in-state and queue the point.
    fn add_stored(&mut self, addr: UWord, state: D::State) {
        let slot = Slot::Stored(self.push_state(state));
        let id = self.add(addr, slot);
        self.work.push_back(id);
    }

    fn push_state(&mut self, state: D::State) -> u32 {
        let at = u32::try_from(self.states.len()).expect("fewer states than steps");
        self.states.push(state);
        at
    }

    /// The id of the point at `addr`, when `addr` is one.
    fn find(&self, addr: UWord) -> Option<u32> {
        let id = self.index[self.code.index(addr)?];
        (id != NO_POINT).then_some(id)
    }

    /// The stored in-state of point `id`.
    fn stored(&self, id: u32) -> u32 {
        match self.points[id as usize].slot {
            Slot::Stored(at) => at,
            Slot::InRun(_) => unreachable!("point {id} was stepped in place and not materialized"),
        }
    }

    /// Give every point of `run` a stored in-state by re-walking the run
    /// from its head's in-state.
    fn materialize(&mut self, d: &mut D, run: u32) {
        let r = &mut self.runs[run as usize];
        if !r.live {
            return;
        }
        r.live = false;
        #[cfg(test)]
        cover(0);
        let (start, end) = (r.start as usize, r.end as usize);
        let mut state = self.states[r.head_state as usize].clone();
        for k in start..end - 1 {
            // The repeat step's record is dropped: each point keeps its
            // last step from the schedule itself.
            d.step(self.addrs[self.chain[k] as usize], &mut state);
            let next = self.chain[k + 1];
            self.points[next as usize].slot = Slot::Stored(self.push_state(state.clone()));
        }
    }

    /// Start a run at `head`, stepped just now from its stored in-state,
    /// which nothing has joined into since.
    fn begin_run(&mut self, head: u32) -> u32 {
        let head_state = self.push_state(self.states[self.stored(head) as usize].clone());
        let start = u32::try_from(self.chain.len()).expect("fewer run points than steps");
        self.chain.push(head);
        self.runs.push(Run { head_state, start, end: start + 1, live: true });
        u32::try_from(self.runs.len() - 1).expect("fewer runs than steps")
    }

    /// Solve the context rooted at `entry` from `init`: step points until
    /// the worklist drains (`None`) or `budget` steps are spent (`Some`
    /// of the point the next step would have taken). After a budget stop
    /// every point has a stored in-state ([`state`](Self::state)).
    pub(crate) fn solve(
        &mut self,
        d: &mut D,
        entry: UWord,
        init: D::State,
        budget: usize,
    ) -> Option<UWord> {
        #[cfg(test)]
        if PER_POINT.with(std::cell::Cell::get) {
            return self.solve_per_point(d, entry, init, budget);
        }
        self.start(entry, init.clone());
        let mut state = init;
        // The point the run continues with, its in-state in `state`.
        let mut next: Option<u32> = None;
        // The run in progress, once it has a point after its head.
        let mut run: Option<u32> = None;
        let mut rounds = 0usize;
        loop {
            let i = match next.take() {
                Some(i) => i,
                None => {
                    // A drained worklist: the fixpoint, no budget stop.
                    let i = self.work.pop_front()?;
                    run = None;
                    state.clone_from(&self.states[self.stored(i) as usize]);
                    i
                }
            };
            let addr = self.addrs[i as usize];
            rounds += 1;
            if rounds > budget {
                for r in 0..self.runs.len() {
                    self.materialize(d, u32::try_from(r).expect("fewer runs than steps"));
                }
                return Some(addr);
            }
            let step = d.step(addr, &mut state);
            self.points[i as usize].last = Some(step);
            let succs = D::succs(&step);
            // The per-point worklist would add the one new successor and
            // pop it straight away with this state: step it in place.
            if let &[succ] = succs.as_slice() {
                if self.work.is_empty() && self.find(succ).is_none() {
                    let r = match run {
                        Some(r) => r,
                        None => self.begin_run(i),
                    };
                    let id = self.add(succ, Slot::InRun(r));
                    self.chain.push(id);
                    self.runs[r as usize].end += 1;
                    run = Some(r);
                    next = Some(id);
                    continue;
                }
            }
            run = None;
            for &succ in succs.as_slice() {
                match self.find(succ) {
                    None => self.add_stored(succ, state.clone()),
                    Some(j) => {
                        if let Slot::InRun(r) = self.points[j as usize].slot {
                            self.materialize(d, r);
                        }
                        let at = self.stored(j) as usize;
                        let p = &mut self.points[j as usize];
                        p.joins += 1;
                        #[cfg(test)]
                        if p.joins > 8 {
                            cover(1);
                        }
                        if d.merge(&mut self.states[at], &state, p.joins as usize) {
                            self.work.push_back(j);
                        }
                    }
                }
            }
        }
    }

    /// The per-point worklist: every point stores its in-state, and each
    /// step runs on a copy of it.
    #[cfg(test)]
    fn solve_per_point(
        &mut self,
        d: &mut D,
        entry: UWord,
        init: D::State,
        budget: usize,
    ) -> Option<UWord> {
        self.start(entry, init);
        let mut rounds = 0usize;
        while let Some(i) = self.work.pop_front() {
            rounds += 1;
            let addr = self.addrs[i as usize];
            if rounds > budget {
                return Some(addr);
            }
            let mut out = self.state(i).clone();
            let step = d.step(addr, &mut out);
            self.points[i as usize].last = Some(step);
            for &succ in D::succs(&step).as_slice() {
                match self.find(succ) {
                    None => self.add_stored(succ, out.clone()),
                    Some(j) => {
                        let at = self.stored(j) as usize;
                        let p = &mut self.points[j as usize];
                        p.joins += 1;
                        if d.merge(&mut self.states[at], &out, p.joins as usize) {
                            self.work.push_back(j);
                        }
                    }
                }
            }
        }
        None
    }

    /// The in-state of point `id`: the join over every path seen. Every
    /// point has one after a budget stop; before that, only the points
    /// no run stepped in place.
    pub(crate) fn state(&self, id: u32) -> &D::State {
        &self.states[self.stored(id) as usize]
    }

    /// The latest step of point `id`. After a drained worklist it saw
    /// the fixpoint: the worklist pops a point after every change to its
    /// in-state.
    pub(crate) fn last(&self, id: u32) -> Option<D::Step> {
        self.points[id as usize].last
    }

    /// Every point as `(addr, id)`, ascending by address.
    pub(crate) fn by_addr(&self) -> Vec<(UWord, u32)> {
        let mut order: Vec<(UWord, u32)> = self.addrs.iter().copied().zip(0..).collect();
        order.sort_unstable();
        order
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use qm_core::rng::{check, Gen};
    use qm_isa::asm::{assemble, Object};

    use super::{COVERAGE, PER_POINT};
    use crate::decoded::DecodedCode;
    use crate::wiring::WiringPass;
    use crate::VerifyOptions;

    /// Contexts of a generated program: `main`, then `c1`, `c2`, ….
    fn ctx_label(k: u64) -> String {
        if k == 0 {
            "main".into()
        } else {
            format!("c{k}")
        }
    }

    fn window(g: &mut Gen) -> String {
        format!("r{}", g.range(0u8..16))
    }

    fn src(g: &mut Gen, ctxs: u64) -> String {
        match g.weighted(&[8, 2, 3, 1, 1]) {
            0 => window(g),
            1 => format!("r{}", g.range(17u8..=28)),
            2 => format!("#{}", g.range(-15i32..=15)),
            3 => format!("#{}", g.range(-100_000i32..100_000)),
            _ => format!("#{}", ctx_label(g.below(ctxs))),
        }
    }

    fn dst(g: &mut Gen) -> String {
        match g.weighted(&[24, 3, 3, 1]) {
            0 => window(g),
            1 => "dummy".into(),
            2 => format!("r{}", g.range(17u8..=28)),
            _ => (*g.pick(&["pc", "qp", "pom"])).into(),
        }
    }

    fn inc(g: &mut Gen) -> String {
        match g.below(3) {
            0 => String::new(),
            _ => format!("+{}", g.range(1u8..=3)),
        }
    }

    /// A `dup` offset inside the window, past it, or past small pages.
    fn dup_off(g: &mut Gen) -> u8 {
        match g.below(3) {
            0 => g.range(0u8..16),
            1 => g.range(16u8..64),
            _ => g.range(64u8..=255),
        }
    }

    /// One context body of `len` items with `labels` branch labels.
    fn context(g: &mut Gen, k: u64, ctxs: u64, out: &mut String) {
        let len = g.range(1usize..24);
        let labels = g.range(1usize..4);
        let mut at: Vec<usize> = (0..labels).map(|_| g.range(0..=len)).collect();
        at.sort_unstable();
        let label = |g: &mut Gen| format!("L{k}_{}", g.below(labels as u64));
        writeln!(out, "{}:", ctx_label(k)).unwrap();
        for i in 0..=len {
            for (j, &a) in at.iter().enumerate() {
                if a == i {
                    writeln!(out, "L{k}_{j}:").unwrap();
                }
            }
            if i == len {
                break;
            }
            let line = match g.weighted(&[10, 3, 2, 2, 2, 4, 2, 2, 1, 1, 1]) {
                0 => {
                    let op =
                        g.pick(&["plus", "minus", "mul", "and", "or", "xor", "lt", "eq", "ne"]);
                    let dsts =
                        if g.below(4) == 0 { format!("{},{}", dst(g), dst(g)) } else { dst(g) };
                    format!("{op}{} {},{} :{dsts}", inc(g), src(g, ctxs), src(g, ctxs))
                }
                1 => match g.below(2) {
                    0 => format!("dup1 :r{}", dup_off(g)),
                    _ => format!("dup2 :r{},r{}", dup_off(g), dup_off(g)),
                },
                2 => format!("recv{} {},#0 :{}", inc(g), g.pick(&["#0", "r17"]), dst(g)),
                3 => format!("send{} {},{}", inc(g), g.pick(&["#0", "r18"]), src(g, ctxs)),
                4 => match g.below(2) {
                    0 => format!("fetch{} #d{},#0 :{}", inc(g), g.below(2), dst(g)),
                    _ => format!("store{} #d{},{}", inc(g), g.below(2), src(g, ctxs)),
                },
                5 => {
                    let cond = match g.below(4) {
                        0 => "#0".into(),
                        1 => "#-1".into(),
                        _ => window(g),
                    };
                    let op = g.pick(&["bne", "beq"]);
                    if g.below(12) == 0 {
                        format!("{op}{} {cond},{}", inc(g), window(g))
                    } else {
                        format!("{op}{} {cond},@{}", inc(g), label(g))
                    }
                }
                6 => {
                    // Forks: a constant target, staged through the
                    // window, or a runtime one.
                    let target = ctx_label(g.below(ctxs));
                    match g.below(4) {
                        0 => format!("trap{} #0,#{target} :{},{}", inc(g), window(g), window(g)),
                        1 => format!("trap #1,#{target} :{}", window(g)),
                        2 => format!("plus #{target},#0 :r5\ntrap+1 #0,r5 :r0,r1"),
                        _ => format!("trap #7,{} :r0,r1", window(g)),
                    }
                }
                7 => {
                    let e = g.pick(&["#4", "#5", "#6", "#9", "r3"]);
                    format!("trap{} {e},#3 :{}", inc(g), dst(g))
                }
                8 => {
                    // A counting loop: its head joins until widening.
                    let n = g.range(20i32..200);
                    format!(
                        "plus #0,#0 :r20\nW{k}_{i}: plus r20,#{} :r20\nlt r20,#{n} :r0\n\
                         bne+1 r0,@W{k}_{i}",
                        g.range(1i32..=5)
                    )
                }
                9 => "trap #2,#0".into(),
                _ => ".word 7".into(),
            };
            writeln!(out, "{line}").unwrap();
        }
        if g.below(6) != 0 {
            writeln!(out, "trap #2,#0").unwrap();
        }
    }

    /// Assembly with branches both ways, loops, forks, pointer writes
    /// and data words.
    fn program(g: &mut Gen) -> String {
        let ctxs = g.range(1u64..=3);
        let mut out = String::new();
        for k in 0..ctxs {
            context(g, k, ctxs, &mut out);
        }
        out.push_str("d0: .word 5\nd1: .word -3\n");
        out
    }

    /// Shallow and deep JSON of `obj`, each context limited to
    /// `budget` steps.
    fn reports(obj: &Object, opts: &VerifyOptions, budget: usize) -> (String, String) {
        let code = DecodedCode::new(obj);
        let entry = obj.symbol("main").unwrap_or_else(|| obj.base());
        let model = WiringPass::new(&code).build_model(entry);
        let shallow = crate::shallow_report(&code, &model, entry, opts, budget).to_json();
        let deep = crate::deep::deep_report(&code, entry, opts, budget).to_json();
        (shallow, deep)
    }

    #[test]
    fn in_place_worklist_matches_per_point_oracle() {
        COVERAGE.with(|c| c.set([0; 2]));
        check(400, |g| {
            let src = program(g);
            let obj = assemble(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
            let opts = VerifyOptions { page_words: *g.pick(&[256, 64, 8]) };
            let full = DecodedCode::new(&obj).round_budget();
            let budget = if g.below(4) == 0 { g.range(1usize..=40) } else { full };
            PER_POINT.with(|p| p.set(true));
            let oracle = reports(&obj, &opts, budget);
            PER_POINT.with(|p| p.set(false));
            let in_place = reports(&obj, &opts, budget);
            assert_eq!(in_place.0, oracle.0, "shallow report differs\n{src}");
            assert_eq!(in_place.1, oracle.1, "deep report differs\n{src}");
        });
        // The property must reach the cases where in-place stepping
        // could go wrong: runs regenerated for a join or a budget stop,
        // and points joined often enough to widen.
        let [materialized, widened] = COVERAGE.with(std::cell::Cell::get);
        println!("runs materialized: {materialized}, joins past the eighth: {widened}");
        assert!(materialized >= 200, "only {materialized} runs materialized");
        assert!(widened >= 50, "only {widened} joins past the eighth");
    }
}
