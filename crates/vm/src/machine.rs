//! The CEK-style abstract machine, run on one value stack.
//!
//! Closures are flat (§3.5): a closure copies its free variables when it is
//! created, so no environment frame outlives its activation. A frame is
//! therefore a run of stack slots — a procedure's arguments, or a `let`'s
//! evaluated right-hand sides left where they were pushed — named by a small
//! frame record; the pending operands of calls, primitives and `let`s sit
//! above it. A continuation records the stack heights it keeps alive, and
//! returning to it cuts the stacks back to them. Entering a procedure moves
//! its arguments down to the top continuation's height, so tail calls run
//! in constant stack. Pairs, vectors, closures, and strings live in
//! append-only heaps whose allocation volume feeds the simulated collector
//! cost (see [`crate::CostModel`]); every closure's captured values sit in
//! one shared arena, at the closure record's `start..start + len`.
//!
//! # Step accounting
//!
//! Every step of the driver loop costs one unit of fuel, and the run's step
//! count is the fuel it consumed. A call-free tree in operand position (an
//! operand of a call, primitive or `let`, or an `if` test) is evaluated in
//! place, without a continuation, when at least its
//! [`simple_cost`](Resolved::simple_cost) of fuel remains. It is charged
//! in the order the loop would charge it — one step on entering a
//! primitive, two per constant or variable, then the primitive is applied,
//! then one step for returning its value — so a run-time error inside the
//! tree reports the loop's counters. With less fuel left the tree takes the
//! loop's path, so out-of-fuel fires at exactly the same step.

use crate::cost::{CostModel, Counters};
use crate::prims::check_table;
use crate::resolve::{resolve, Code, LambdaCode, Resolved, VarRef};
use crate::value::{ClosId, PairId, StrId, Value, VecId};
use fdi_lang::{Const, Label, Program, Sym};
use std::cell::Cell;
use std::collections::HashMap;

/// Run configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Machine steps before aborting with "out of fuel".
    pub fuel: u64,
    /// Seed of the deterministic `random` primitive.
    pub seed: u64,
    /// Cost model.
    pub model: CostModel,
    /// Cap on bytes written by `display`/`write`.
    pub max_output: usize,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            fuel: 2_000_000_000,
            seed: 0x5eed_cafe,
            model: CostModel::default(),
            max_output: 1 << 20,
        }
    }
}

/// A successful run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `write`-style rendering of the final value.
    pub value: String,
    /// Cost counters.
    pub counters: Counters,
    /// Text written by `display`/`write`/`newline`.
    pub output: String,
}

/// A failed run.
#[derive(Debug, Clone)]
pub struct VmError {
    /// What went wrong.
    pub message: String,
    /// Counters at the time of the error.
    pub counters: Counters,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for VmError {}

/// What a caller watches of a run, through [`run_observed`]. Both hooks
/// default to doing nothing; the machine is compiled per observer, so the
/// no-op `()` that [`run`] passes costs nothing.
pub trait Observer {
    /// A procedure was entered from the call expression at `site`, charged
    /// `cost` mutator units of linkage: `call_overhead + call_per_arg ×
    /// argc`, plus the per-element spread cost at `apply` sites — exactly
    /// the overhead inlining the site would eliminate.
    fn call(&mut self, _site: Label, _cost: u64) {}

    /// Whether the tag check of argument `arg` of the primitive at `prim`
    /// is proven redundant, exempting it from
    /// [`CostModel::type_check_cost`]. Asked once per static check position
    /// before the run starts.
    fn check_elided(&self, _prim: Label, _arg: usize) -> bool {
        false
    }
}

impl Observer for () {}

/// Resolves and runs `program`.
///
/// # Errors
///
/// Returns [`VmError`] for Scheme run-time errors (type errors, arity
/// mismatches, `(error …)`) and for fuel exhaustion.
///
/// # Examples
///
/// ```
/// let p = fdi_lang::parse_and_lower("(+ 1 2)").unwrap();
/// let out = fdi_vm::run(&p, &fdi_vm::RunConfig::default()).unwrap();
/// assert_eq!(out.value, "3");
/// ```
pub fn run(program: &Program, config: &RunConfig) -> Result<Outcome, VmError> {
    run_observed(program, config, &mut ())
}

/// Like [`run`], reporting the run to `observer`: the profiler
/// (`fdi-profile`) tallies each call site's calls and cost, and check
/// elimination (`fdi-checks`) elides the tag checks it proved redundant.
///
/// # Errors
///
/// Exactly [`run`]'s contract.
pub fn run_observed<O: Observer>(
    program: &Program,
    config: &RunConfig,
    observer: &mut O,
) -> Result<Outcome, VmError> {
    let resolved = resolve(program);
    Machine::new(program, &resolved, config, observer).run()
}

/// What a test can see of a run besides its outcome.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct Probe {
    /// The value stack's capacity at the end: an upper bound on its
    /// high-water mark.
    pub(crate) stack_capacity: usize,
    /// Continuations pushed over the whole run.
    pub(crate) kont_pushes: u64,
}

/// [`run`] under the default configuration, also reporting its [`Probe`].
#[cfg(test)]
pub(crate) fn run_probed(program: &Program) -> Result<(Outcome, Probe), VmError> {
    let resolved = resolve(program);
    let mut observer = ();
    let mut m = Machine::new(program, &resolved, &RunConfig::default(), &mut observer);
    let outcome = m.run()?;
    Ok((outcome, m.probe))
}

/// Parent of an activation's outermost frame.
const NO_FRAME: u32 = u32::MAX;

/// An environment frame: stack slots from `base` on.
struct Frame {
    base: u32,
    /// The enclosing frame within the same activation, or [`NO_FRAME`].
    parent: u32,
}

/// A compound expression waiting for the value of one of its parts.
struct Kont {
    /// The expression; its [`Code`] says what to do with the value.
    label: Label,
    /// How far its evaluation has got (the next part to evaluate).
    next: u32,
    /// Frame-stack height it keeps alive; its frame is the top one.
    fp: u32,
    /// Value-stack height it keeps alive: its frames and operands so far.
    sp: u32,
    /// The running closure's captures when it was pushed.
    caps: u32,
}

/// What the machine does next: evaluate the expression at a label, or
/// return a value to the top continuation.
type Control = Result<Label, Value>;

/// The stacks and closure register of one run.
struct Regs {
    /// Frame slots and pending operands.
    stack: Vec<Value>,
    /// Frame records; the current environment is the last one.
    frames: Vec<Frame>,
    kont: Vec<Kont>,
    /// Where the running closure's captures start in the capture arena
    /// (unused at top level, where nothing is captured).
    caps: u32,
    #[cfg(test)]
    kont_pushes: u64,
}

impl Regs {
    fn push_kont(&mut self, label: Label, next: usize) {
        #[cfg(test)]
        {
            self.kont_pushes += 1;
        }
        self.kont.push(Kont {
            label,
            next: next as u32,
            fp: self.frames.len() as u32,
            sp: self.stack.len() as u32,
            caps: self.caps,
        });
    }

    /// Cuts the stacks back to what `k` keeps alive and reinstates its
    /// closure.
    fn restore(&mut self, k: &Kont) {
        self.stack.truncate(k.sp as usize);
        self.frames.truncate(k.fp as usize);
        self.caps = k.caps;
    }

    /// Makes the slots from `base` to the top a frame inside the current one.
    fn push_frame(&mut self, base: usize) {
        let parent = self.frames.len() as u32 - 1;
        self.frames.push(Frame {
            base: base as u32,
            parent,
        });
    }
}

/// A closure record: its λ and its captured values,
/// `captures[start..start + len]` in the machine's capture arena.
#[derive(Clone, Copy)]
struct ClosureData {
    lambda: Label,
    start: u32,
    len: u32,
}

pub(crate) struct Machine<'p, O> {
    pub(crate) program: &'p Program,
    /// Tag checks per primitive label (see [`check_table`]).
    pub(crate) checks: Vec<u32>,
    res: &'p Resolved,
    pub(crate) pairs: Vec<(Cell<Value>, Cell<Value>)>,
    pub(crate) vectors: Vec<Vec<Cell<Value>>>,
    closures: Vec<ClosureData>,
    /// Every closure's captured values, one run after another.
    captures: Vec<Value>,
    pub(crate) strings: Vec<String>,
    str_of_sym: HashMap<Sym, StrId>,
    /// Cost counters, except `steps`, which [`Self::counters`] derives
    /// from the fuel.
    pub(crate) counters: Counters,
    pub(crate) model: CostModel,
    /// Fuel at the start of the run.
    start_fuel: u64,
    fuel: u64,
    pub(crate) rng: u64,
    pub(crate) output: String,
    pub(crate) max_output: usize,
    observer: &'p mut O,
    #[cfg(test)]
    probe: Probe,
}

impl<'p, O: Observer> Machine<'p, O> {
    /// A machine about to run `res`, reporting to `observer`.
    fn new(
        program: &'p Program,
        res: &'p Resolved,
        config: &RunConfig,
        observer: &'p mut O,
    ) -> Machine<'p, O> {
        Machine {
            program,
            checks: check_table(res, &*observer),
            res,
            pairs: Vec::new(),
            vectors: Vec::new(),
            closures: Vec::new(),
            captures: Vec::new(),
            strings: Vec::new(),
            str_of_sym: HashMap::new(),
            counters: Counters::default(),
            model: config.model,
            start_fuel: config.fuel,
            fuel: config.fuel,
            rng: config.seed,
            output: String::new(),
            max_output: config.max_output,
            observer,
            #[cfg(test)]
            probe: Probe::default(),
        }
    }

    /// The counters so far; every step consumed one unit of fuel.
    fn counters(&self) -> Counters {
        Counters {
            steps: self.start_fuel - self.fuel,
            ..self.counters
        }
    }

    pub(crate) fn error<T>(&self, message: impl Into<String>) -> Result<T, VmError> {
        Err(VmError {
            message: message.into(),
            counters: self.counters(),
        })
    }

    // --- heap ---------------------------------------------------------------

    pub(crate) fn alloc_pair(&mut self, car: Value, cdr: Value) -> Value {
        self.counters.words_allocated += self.model.pair_words;
        self.counters.pairs_made += 1;
        self.pairs.push((Cell::new(car), Cell::new(cdr)));
        Value::Pair(PairId((self.pairs.len() - 1) as u32))
    }

    pub(crate) fn alloc_vector(&mut self, elems: Vec<Value>) -> Value {
        self.counters.words_allocated += self.model.vector_base_words + elems.len() as u64;
        self.vectors
            .push(elems.into_iter().map(Cell::new).collect());
        Value::Vector(VecId((self.vectors.len() - 1) as u32))
    }

    pub(crate) fn alloc_string(&mut self, s: String) -> Value {
        self.counters.words_allocated += 1 + (s.len() as u64).div_ceil(8);
        self.strings.push(s);
        Value::Str(StrId((self.strings.len() - 1) as u32))
    }

    /// Allocates a closure over the captures pushed since `start`.
    fn alloc_closure(&mut self, lambda: Label, start: usize) -> Value {
        let len = self.captures.len() - start;
        self.counters.words_allocated += self.model.closure_base_words + len as u64;
        self.counters.closures_made += 1;
        self.closures.push(ClosureData {
            lambda,
            start: start as u32,
            len: len as u32,
        });
        Value::Closure(ClosId((self.closures.len() - 1) as u32))
    }

    pub(crate) fn str_value(&mut self, sym: Sym) -> Value {
        if let Some(&id) = self.str_of_sym.get(&sym) {
            return Value::Str(id);
        }
        let s = self.program.interner().name(sym).to_string();
        self.strings.push(s);
        let id = StrId((self.strings.len() - 1) as u32);
        self.str_of_sym.insert(sym, id);
        Value::Str(id)
    }

    fn value_of_const(&mut self, c: Const) -> Value {
        match c {
            Const::Bool(b) => Value::Bool(b),
            Const::Int(n) => Value::Int(n),
            Const::Float(bits) => Value::Float(f64::from_bits(bits)),
            Const::Char(ch) => Value::Char(ch),
            Const::Str(s) => self.str_value(s),
            Const::Symbol(s) => Value::Sym(s),
            Const::Nil => Value::Nil,
            Const::Unspecified => Value::Unspec,
        }
    }

    fn lambda_code(&self, label: Label) -> &'p LambdaCode {
        match self.res.code(label) {
            Code::Lambda(lc) => lc,
            other => panic!("expected lambda code at {label}, found {other:?}"),
        }
    }

    #[inline(always)]
    fn lookup(&self, vr: VarRef, r: &Regs) -> Value {
        match vr {
            VarRef::Env { depth, slot } => {
                let mut f = r.frames.len() - 1;
                for _ in 0..depth {
                    f = r.frames[f].parent as usize;
                }
                r.stack[r.frames[f].base as usize + slot as usize]
            }
            VarRef::Capture(i) => self.captures[r.caps as usize + i as usize],
        }
    }

    // --- the driver loop ----------------------------------------------------

    pub(crate) fn run(&mut self) -> Result<Outcome, VmError> {
        let mut r = Regs {
            stack: Vec::new(),
            frames: vec![Frame {
                base: 0,
                parent: NO_FRAME,
            }],
            kont: Vec::new(),
            caps: 0,
            #[cfg(test)]
            kont_pushes: 0,
        };
        let mut control: Control = Ok(self.res.root());
        loop {
            if self.fuel == 0 {
                return self.error("out of fuel");
            }
            self.fuel -= 1;
            control = match control {
                Ok(label) => self.eval(label, &mut r)?,
                Err(value) => {
                    let Some(k) = r.kont.pop() else {
                        #[cfg(test)]
                        {
                            self.probe = Probe {
                                stack_capacity: r.stack.capacity(),
                                kont_pushes: r.kont_pushes,
                            };
                        }
                        return Ok(Outcome {
                            value: self.render(value, true),
                            counters: self.counters(),
                            output: std::mem::take(&mut self.output),
                        });
                    };
                    r.restore(&k);
                    self.resume(&k, value, &mut r)?
                }
            };
        }
    }

    /// One step evaluating the expression at `label`.
    fn eval(&mut self, label: Label, r: &mut Regs) -> Result<Control, VmError> {
        Ok(match self.res.code(label) {
            Code::Const(c) => Err(self.value_of_const(*c)),
            Code::Var(vr) => Err(self.lookup(*vr, r)),
            Code::Prim(_, ops) | Code::Call(ops) | Code::Let(ops, _) => {
                return self.operands(label, ops, 0, r)
            }
            Code::Apply(f, _) => {
                r.push_kont(label, 1);
                Ok(*f)
            }
            Code::Begin(parts) => {
                if parts.len() > 1 {
                    r.push_kont(label, 1);
                }
                Ok(parts[0])
            }
            Code::If(c, t, e) => {
                if self.push_simple(*c, r)? {
                    let test = r.stack.pop().expect("the test's value was pushed");
                    self.branch(test, *t, *e)
                } else {
                    r.push_kont(label, 0);
                    Ok(*c)
                }
            }
            Code::Letrec(lambdas, body) => {
                self.counters.mutator += self.model.let_per_binding * lambdas.len() as u64;
                // Reserve every closure's captures, then fill them in place:
                // each may capture any sibling through the frame.
                let base = r.stack.len();
                let first = self.captures.len();
                for &f in lambdas {
                    let start = self.captures.len();
                    let slots = self.lambda_code(f).capture_plan.len();
                    self.captures.resize(start + slots, Value::Unspec);
                    let v = self.alloc_closure(f, start);
                    r.stack.push(v);
                }
                r.push_frame(base);
                let mut slot = first;
                for &f in lambdas {
                    for &vr in &self.lambda_code(f).capture_plan {
                        self.captures[slot] = self.lookup(vr, r);
                        slot += 1;
                    }
                }
                Ok(*body)
            }
            Code::Lambda(lc) => {
                let start = self.captures.len();
                for &vr in &lc.capture_plan {
                    let v = self.lookup(vr, r);
                    self.captures.push(v);
                }
                Err(self.alloc_closure(label, start))
            }
            Code::ClRef(e, _) => {
                r.push_kont(label, 0);
                Ok(*e)
            }
            Code::Dead => panic!("evaluating dead code at {label}"),
        })
    }

    /// One step returning `value` to the continuation `k`, whose stacks are
    /// already restored.
    fn resume(&mut self, k: &Kont, value: Value, r: &mut Regs) -> Result<Control, VmError> {
        let next = k.next as usize;
        Ok(match self.res.code(k.label) {
            Code::Prim(_, ops) | Code::Call(ops) | Code::Let(ops, _) => {
                r.stack.push(value);
                return self.operands(k.label, ops, next, r);
            }
            Code::Apply(_, arg) if next == 1 => {
                // Keep the procedure on the stack while the list evaluates.
                r.stack.push(value);
                r.push_kont(k.label, 2);
                Ok(*arg)
            }
            Code::Apply(..) => {
                let f = r.stack[k.sp as usize - 1];
                let argc = self.spread(value, &mut r.stack)?;
                let spread = self.model.apply_per_elem * argc as u64;
                Ok(self.enter(k.label, f, argc, spread, r)?)
            }
            Code::Begin(parts) => {
                if next + 1 < parts.len() {
                    r.push_kont(k.label, next + 1);
                }
                Ok(parts[next])
            }
            Code::If(_, t, e) => self.branch(value, *t, *e),
            Code::ClRef(_, index) => {
                self.counters.mutator += self.model.cl_ref_cost;
                let Value::Closure(cid) = value else {
                    return self.error(format!(
                        "cl-ref: expected procedure, got {}",
                        value.type_name()
                    ));
                };
                let clo = self.closures[cid.0 as usize];
                if *index >= clo.len {
                    return self.error("cl-ref: index out of range");
                }
                Err(self.captures[(clo.start + index) as usize])
            }
            other => unreachable!("no continuation at {other:?}"),
        })
    }

    /// Pushes the values of `ops[next..]` — the operands of the `Call`,
    /// `Prim` or `Let` at `label` — then performs it on them. A compound
    /// operand suspends the evaluation on it.
    #[inline(always)]
    fn operands(
        &mut self,
        label: Label,
        ops: &[Label],
        mut next: usize,
        r: &mut Regs,
    ) -> Result<Control, VmError> {
        while let Some(&e) = ops.get(next) {
            next += 1;
            if !self.push_simple(e, r)? {
                r.push_kont(label, next);
                return Ok(Ok(e));
            }
        }
        let base = r.stack.len() - ops.len();
        match self.res.code(label) {
            Code::Prim(..) => Ok(Err(self.apply_prim(label, &r.stack[base..])?)),
            Code::Call(_) => Ok(Ok(self.enter(label, r.stack[base], ops.len() - 1, 0, r)?)),
            Code::Let(_, body) => {
                self.counters.mutator += self.model.let_per_binding * ops.len() as u64;
                r.push_frame(base);
                Ok(Ok(*body))
            }
            other => unreachable!("no operands at {other:?}"),
        }
    }

    /// An `if` whose test gave `test` picks its branch.
    #[inline(always)]
    fn branch(&mut self, test: Value, then: Label, els: Label) -> Control {
        self.counters.mutator += self.model.if_cost;
        Ok(if test.is_truthy() { then } else { els })
    }

    /// Pushes the value of `e`, evaluated in place, when it is a call-free
    /// tree and enough fuel remains to charge all its steps; `false`
    /// otherwise, for the loop to evaluate it step by step.
    #[inline(always)]
    fn push_simple(&mut self, e: Label, r: &mut Regs) -> Result<bool, VmError> {
        let cost = self.res.simple_cost(e);
        if cost == 0 || self.fuel < u64::from(cost) {
            return Ok(false);
        }
        self.eval_simple(e, r)?;
        Ok(true)
    }

    /// Pushes the value of the call-free tree at `e`, charging its steps
    /// in the loop's order. The caller has checked that the fuel suffices.
    #[inline(always)]
    fn eval_simple(&mut self, e: Label, r: &mut Regs) -> Result<(), VmError> {
        let v = match self.res.code(e) {
            Code::Const(c) => self.value_of_const(*c),
            Code::Var(vr) => self.lookup(*vr, r),
            Code::Prim(_, ops) => return self.eval_simple_prim(e, ops, r),
            other => unreachable!("not a call-free tree: {other:?}"),
        };
        self.fuel -= 2;
        r.stack.push(v);
        Ok(())
    }

    /// [`Self::eval_simple`] on a primitive application `e`.
    fn eval_simple_prim(&mut self, e: Label, ops: &[Label], r: &mut Regs) -> Result<(), VmError> {
        self.fuel -= 1;
        let base = r.stack.len();
        for &op in ops {
            self.eval_simple(op, r)?;
        }
        let v = self.apply_prim(e, &r.stack[base..])?;
        r.stack.truncate(base);
        r.stack.push(v);
        self.fuel -= 1;
        Ok(())
    }

    /// Performs a procedure call on the top `argc` stack values: arity
    /// check, rest-list collection, cost accounting (reported to the
    /// observer against the call expression at `site`). Moves the callee's frame down
    /// to the top continuation's stack height and returns its body.
    fn enter(
        &mut self,
        site: Label,
        f: Value,
        argc: usize,
        extra_cost: u64,
        r: &mut Regs,
    ) -> Result<Label, VmError> {
        let Value::Closure(cid) = f else {
            return self.error(format!("call: expected procedure, got {}", f.type_name()));
        };
        let clo = self.closures[cid.0 as usize];
        let lc = self.lambda_code(clo.lambda);
        if argc < lc.params || (!lc.rest && argc != lc.params) {
            return self.error(format!(
                "call: procedure expects {}{} arguments, got {}",
                lc.params,
                if lc.rest { "+" } else { "" },
                argc
            ));
        }
        let cost = self.model.call_overhead + self.model.call_per_arg * argc as u64 + extra_cost;
        self.counters.calls += 1;
        self.counters.mutator += cost;
        self.observer.call(site, cost);
        let args = r.stack.len() - argc;
        if lc.rest {
            let mut rest = Value::Nil;
            for i in (args + lc.params..r.stack.len()).rev() {
                rest = self.alloc_pair(r.stack[i], rest);
            }
            r.stack.truncate(args + lc.params);
            r.stack.push(rest);
        }
        let (sp, fp) = r
            .kont
            .last()
            .map_or((0, 0), |k| (k.sp as usize, k.fp as usize));
        let len = r.stack.len() - args;
        r.stack.copy_within(args.., sp);
        r.stack.truncate(sp + len);
        r.frames.truncate(fp);
        r.frames.push(Frame {
            base: sp as u32,
            parent: NO_FRAME,
        });
        r.caps = clo.start;
        Ok(lc.body)
    }

    /// The primitive operator at a `Prim` code label.
    pub(crate) fn prim_op(&self, label: Label) -> fdi_lang::PrimOp {
        match self.res.code(label) {
            Code::Prim(p, _) => *p,
            other => panic!("expected prim at {label}, found {other:?}"),
        }
    }

    /// Pushes the elements of the list `v` (for `apply`); returns how many.
    fn spread(&self, mut v: Value, stack: &mut Vec<Value>) -> Result<usize, VmError> {
        let mut n = 0;
        loop {
            match v {
                Value::Nil => return Ok(n),
                Value::Pair(p) => {
                    let (car, cdr) = &self.pairs[p.0 as usize];
                    stack.push(car.get());
                    v = cdr.get();
                    n += 1;
                }
                other => {
                    return self.error(format!(
                        "apply: expected a proper list, got {}",
                        other.type_name()
                    ))
                }
            }
            if n > 1_000_000 {
                return self.error("apply: argument list too long (or cyclic)");
            }
        }
    }
}
