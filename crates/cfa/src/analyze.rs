//! The analysis driver: a worklist solver for the relation `A` of Fig. 4.
//!
//! `walk` translates each expression form into graph structure (values,
//! edges, listeners); the solver loop then propagates abstract values to a
//! fixpoint, moving only each popped node's new values and growing the graph
//! as closures reach call sites and conditionals activate their branches. Polymorphic splitting is implemented by the
//! `SplitLet`/`SplitRec` edge transfers plus lazy body instantiation per
//! (λ, environment, contour) triple.

use crate::domain::{
    AbsClosure, AbsConst, AbsEnvId, AbsEnvTable, AbsVal, ClosureId, ClosureTable, ContourId,
    ContourTable, ValSet,
};
use crate::graph::{FlowGraph, Listener, ListenerId, NodeId, NodeKey, Transfer, WalkEnv};
use crate::policy::{AbortReason, AnalysisLimits, Polyvariance};
use crate::result::{valset_bucket, AnalysisStats, FlowAnalysis, VALSET_BUCKETS};
use fdi_lang::{Binder, Const, ExprKind, FreeVars, Label, PrimOp, Program, VarId};
use fdi_telemetry::Telemetry;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Runs the flow analysis over `program` with the given polyvariance policy.
///
/// # Examples
///
/// ```
/// use fdi_cfa::{analyze, Polyvariance};
///
/// let p = fdi_lang::parse_and_lower("((lambda (x) x) 1)").unwrap();
/// let f = analyze(&p, Polyvariance::PolymorphicSplitting);
/// assert!(!f.stats().aborted);
/// ```
pub fn analyze(program: &Program, policy: Polyvariance) -> FlowAnalysis {
    analyze_with_limits(program, policy, AnalysisLimits::default())
}

thread_local! {
    static ANALYZE_COUNT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of analysis runs performed **by this thread** since it started.
///
/// A diagnostics counter for reuse-regression tests: code that should
/// analyze a program once and share the [`FlowAnalysis`] across many
/// transform configurations (threshold sweeps, the batch engine's
/// content-addressed cache) asserts the delta across a call. Thread-local on
/// purpose, so concurrent tests and worker pools don't pollute each other.
pub fn analyze_count() -> u64 {
    ANALYZE_COUNT.with(std::cell::Cell::get)
}

/// Like [`analyze`] but with explicit safety limits.
pub fn analyze_with_limits(
    program: &Program,
    policy: Polyvariance,
    limits: AnalysisLimits,
) -> FlowAnalysis {
    analyze_instrumented(program, policy, limits, &Telemetry::off())
}

/// Like [`analyze_with_limits`], emitting convergence telemetry: sampled
/// worklist counters (steps, contours, closures, nodes and their deltas)
/// every 1024 solver steps, plus the final value-set size histogram and a
/// `cfa.done` instant. The analysis result is identical regardless of the
/// telemetry handle; with the handle off, the solver loop pays one branch
/// per sample window.
pub fn analyze_instrumented(
    program: &Program,
    policy: Polyvariance,
    limits: AnalysisLimits,
    telemetry: &Telemetry,
) -> FlowAnalysis {
    ANALYZE_COUNT.with(|c| c.set(c.get() + 1));
    let start = Instant::now();
    let _span = telemetry.span("cfa.solve", "cfa");
    let mut a = Analyzer::new(program, policy, limits);
    a.telemetry = telemetry.clone();
    let root = program.root();
    a.walk(root, ContourId::EMPTY, WalkEnv::EMPTY);
    a.run();
    a.finish(start)
}

struct Analyzer<'p> {
    program: &'p Program,
    policy: Polyvariance,
    limits: AnalysisLimits,
    contours: ContourTable,
    envs: AbsEnvTable,
    closures: ClosureTable,
    fv: FreeVars,
    graph: FlowGraph,
    walk_envs: Vec<(VarId, ContourId, WalkEnv)>,
    instantiated: HashSet<(Label, AbsEnvId, ContourId)>,
    call_memo: HashSet<(Label, ContourId, ClosureId)>,
    if_done: HashSet<(Label, ContourId, WalkEnv, bool)>,
    spine_memo: HashSet<(NodeId, Option<NodeId>, Option<NodeId>)>,
    /// Variable-reference labels that are recursive occurrences (inside the
    /// right-hand sides of their own `letrec`).
    rec_uses: HashSet<Label>,
    letrec_siblings: HashMap<Label, Vec<VarId>>,
    call_sites: Vec<(Label, ContourId)>,
    steps: u64,
    arity_mismatches: u64,
    aborted: bool,
    abort_reason: Option<AbortReason>,
    telemetry: Telemetry,
    /// `(contours, nodes)` at the previous telemetry sample, for deltas.
    sampled: (u64, u64),
}

impl<'p> Analyzer<'p> {
    fn new(program: &'p Program, policy: Polyvariance, limits: AnalysisLimits) -> Analyzer<'p> {
        let fv = FreeVars::compute(program);
        let mut rec_uses = HashSet::new();
        let mut letrec_siblings = HashMap::new();
        for l in program.reachable() {
            if let ExprKind::Letrec(bindings, _) = program.expr(l) {
                let vars: Vec<VarId> = bindings.iter().map(|&(v, _)| v).collect();
                letrec_siblings.insert(l, vars.clone());
                let var_set: HashSet<VarId> = vars.into_iter().collect();
                for &(_, rhs) in bindings {
                    mark_recursive_uses(program, rhs, &var_set, &mut rec_uses);
                }
            }
        }
        Analyzer {
            program,
            policy,
            limits,
            contours: ContourTable::new(),
            envs: AbsEnvTable::new(),
            closures: ClosureTable::new(),
            fv,
            graph: FlowGraph::new(),
            walk_envs: Vec::new(),
            instantiated: HashSet::new(),
            call_memo: HashSet::new(),
            if_done: HashSet::new(),
            spine_memo: HashSet::new(),
            rec_uses,
            letrec_siblings,
            call_sites: Vec::new(),
            steps: 0,
            arity_mismatches: 0,
            aborted: false,
            abort_reason: None,
            telemetry: Telemetry::off(),
            sampled: (0, 0),
        }
    }

    /// Records the first limit that fired; later aborts keep the original
    /// reason.
    fn abort(&mut self, reason: AbortReason) {
        if !self.aborted {
            self.aborted = true;
            self.abort_reason = Some(reason);
        }
    }

    // --- walk environments -------------------------------------------------

    fn env_extend(&mut self, env: WalkEnv, v: VarId, c: ContourId) -> WalkEnv {
        self.walk_envs.push((v, c, env));
        WalkEnv(Some((self.walk_envs.len() - 1) as u32))
    }

    fn env_lookup(&self, mut env: WalkEnv, v: VarId) -> Option<ContourId> {
        while let Some(i) = env.0 {
            let (w, c, parent) = self.walk_envs[i as usize];
            if w == v {
                return Some(c);
            }
            env = parent;
        }
        None
    }

    // --- graph helpers ------------------------------------------------------

    fn expr_node(&mut self, l: Label, k: ContourId) -> NodeId {
        self.graph.node(NodeKey::ExprAt(l, k))
    }

    fn var_node(&mut self, v: VarId, k: ContourId) -> NodeId {
        self.graph.node(NodeKey::VarAt(v, k))
    }

    /// Adds an edge and propagates the source's current values across it.
    fn edge(&mut self, src: NodeId, dst: NodeId, t: Transfer) {
        if self.graph.add_edge(src, dst, t) {
            let vals = self.graph.vals_handle(src);
            if !vals.is_empty() {
                self.propagate(dst, t, &vals);
            }
        }
    }

    /// Propagates `vals` across one edge. Copy edges union the snapshot in
    /// directly; only split edges materialize a rewritten set.
    fn propagate(&mut self, dst: NodeId, t: Transfer, vals: &ValSet) {
        match t {
            Transfer::Copy => {
                self.graph.union_into(dst, vals);
            }
            _ => {
                let out = self.apply_transfer(t, vals);
                self.graph.union_into(dst, &out);
            }
        }
    }

    /// Attaches a listener and processes the node's current values.
    fn attach(&mut self, node: NodeId, listener: Listener) {
        let lid = self.graph.add_listener(node, listener);
        self.process_listener(lid);
    }

    fn apply_transfer(&mut self, t: Transfer, vals: &ValSet) -> ValSet {
        match t {
            Transfer::Copy => vals.clone(),
            Transfer::SplitLet { bind, use_site } => vals
                .iter()
                .map(|v| self.split_val(v, bind, use_site, false))
                .collect(),
            Transfer::SplitRec { bind, use_site } => vals
                .iter()
                .map(|v| self.split_val(v, bind, use_site, true))
                .collect(),
        }
    }

    /// The polymorphic-splitting substitution `κ[l′/l]` applied to one value.
    /// Only closures are rewritten; for `letrec` splits the closure
    /// environment entries of the letrec's own variables are substituted too,
    /// so recursive references evaluate in the split contour (§3.2's `last`
    /// example).
    fn split_val(&mut self, v: AbsVal, bind: Label, use_site: Label, letrec: bool) -> AbsVal {
        let AbsVal::Clo(cid) = v else {
            return v;
        };
        let c = self.closures.get(cid);
        let new_contour = self.contours.subst(c.contour, bind, use_site);
        let new_env = if letrec {
            let bindings: Vec<(VarId, ContourId)> = self
                .envs
                .bindings(c.env)
                .iter()
                .map(|&(w, cw)| {
                    if self.program.var(w).binder == Binder::Letrec(bind) {
                        (w, self.contours.subst(cw, bind, use_site))
                    } else {
                        (w, cw)
                    }
                })
                .collect();
            self.envs.intern(bindings)
        } else {
            c.env
        };
        if new_contour == c.contour && new_env == c.env {
            return v;
        }
        AbsVal::Clo(self.closures.intern(AbsClosure {
            lambda: c.lambda,
            env: new_env,
            contour: new_contour,
        }))
    }

    // --- the walk (building graph structure for each expression) -----------

    fn walk(&mut self, l: Label, k: ContourId, env: WalkEnv) -> NodeId {
        let result = self.expr_node(l, k);
        if self.graph.node_count() > self.limits.max_nodes {
            self.abort(AbortReason::Nodes);
            return result;
        }
        match self.program.expr(l).clone() {
            ExprKind::Const(c) => {
                let v = abs_const(c);
                self.graph.add_val(result, v);
            }
            ExprKind::Var(v) => self.walk_var(l, k, env, v, result),
            ExprKind::Prim(p, args) => self.walk_prim(l, k, env, p, &args, result),
            ExprKind::Call(parts) => {
                for &e in &parts {
                    self.walk(e, k, env);
                }
                self.call_sites.push((l, k));
                let fnode = self.expr_node(parts[0], k);
                self.attach(fnode, Listener::Call { call: l, kappa: k });
            }
            ExprKind::Apply(f, arg) => {
                self.walk(f, k, env);
                self.walk(arg, k, env);
                self.call_sites.push((l, k));
                let fnode = self.expr_node(f, k);
                self.attach(fnode, Listener::Apply { call: l, kappa: k });
            }
            ExprKind::Begin(parts) => {
                let mut last = result;
                for &e in &parts {
                    last = self.walk(e, k, env);
                }
                self.edge(last, result, Transfer::Copy);
            }
            ExprKind::If(c, _, _) => {
                let test = self.walk(c, k, env);
                self.attach(
                    test,
                    Listener::IfGuard {
                        iff: l,
                        kappa: k,
                        env,
                    },
                );
            }
            ExprKind::Let(bindings, body) => {
                let kb = self.policy.binding_contour(
                    &mut self.contours,
                    k,
                    l,
                    self.limits.max_contour_len,
                );
                let mut env2 = env;
                for &(x, e) in &bindings {
                    let rhs = self.walk(e, kb, env);
                    let xn = self.var_node(x, kb);
                    self.edge(rhs, xn, Transfer::Copy);
                    env2 = self.env_extend(env2, x, kb);
                }
                let b = self.walk(body, k, env2);
                self.edge(b, result, Transfer::Copy);
            }
            ExprKind::Letrec(bindings, body) => {
                let kb = self.policy.binding_contour(
                    &mut self.contours,
                    k,
                    l,
                    self.limits.max_contour_len,
                );
                let mut env2 = env;
                for &(y, _) in &bindings {
                    env2 = self.env_extend(env2, y, kb);
                }
                for &(y, f) in &bindings {
                    let rhs = self.walk(f, kb, env2);
                    let yn = self.var_node(y, kb);
                    self.edge(rhs, yn, Transfer::Copy);
                }
                let b = self.walk(body, k, env2);
                self.edge(b, result, Transfer::Copy);
            }
            ExprKind::Lambda(_) => {
                let free = self.fv.get(l).map(<[VarId]>::to_vec).unwrap_or_default();
                let bindings: Vec<(VarId, ContourId)> = free
                    .iter()
                    .map(|&v| {
                        let c = self
                            .env_lookup(env, v)
                            .expect("free variable of lambda is in scope");
                        (v, c)
                    })
                    .collect();
                let renv = self.envs.intern(bindings);
                let cid = self.closures.intern(AbsClosure {
                    lambda: l,
                    env: renv,
                    contour: k,
                });
                self.graph.add_val(result, AbsVal::Clo(cid));
            }
            ExprKind::ClRef(e, n) => {
                let en = self.walk(e, k, env);
                self.attach(
                    en,
                    Listener::ClRefRead {
                        dest: result,
                        index: n,
                    },
                );
            }
        }
        result
    }

    fn walk_var(&mut self, l: Label, _k: ContourId, env: WalkEnv, v: VarId, result: NodeId) {
        let c_bind = self
            .env_lookup(env, v)
            .expect("variable reference is in scope");
        let src = self.var_node(v, c_bind);
        if !self.policy.splits() {
            self.edge(src, result, Transfer::Copy);
            return;
        }
        match self.program.var(v).binder {
            Binder::Lambda(_) => self.edge(src, result, Transfer::Copy),
            Binder::Let(bl) => self.edge(
                src,
                result,
                Transfer::SplitLet {
                    bind: bl,
                    use_site: l,
                },
            ),
            Binder::Letrec(bl) => {
                if self.rec_uses.contains(&l) {
                    self.edge(src, result, Transfer::Copy);
                } else {
                    let t = Transfer::SplitRec {
                        bind: bl,
                        use_site: l,
                    };
                    self.edge(src, result, t);
                    // Seed the split binding nodes of every sibling so the
                    // split closure's recursive references resolve.
                    let c_new = self.contours.subst(c_bind, bl, l);
                    if c_new != c_bind {
                        let siblings = self.letrec_siblings.get(&bl).cloned().unwrap_or_default();
                        for w in siblings {
                            let from = self.var_node(w, c_bind);
                            let to = self.var_node(w, c_new);
                            self.edge(from, to, t);
                        }
                    }
                }
            }
        }
    }

    fn walk_prim(
        &mut self,
        l: Label,
        k: ContourId,
        env: WalkEnv,
        p: PrimOp,
        args: &[Label],
        result: NodeId,
    ) {
        let arg_nodes: Vec<NodeId> = args.iter().map(|&a| self.walk(a, k, env)).collect();
        match p {
            PrimOp::Cons => {
                let car = self.graph.node(NodeKey::PairCar(l, k));
                let cdr = self.graph.node(NodeKey::PairCdr(l, k));
                self.edge(arg_nodes[0], car, Transfer::Copy);
                self.edge(arg_nodes[1], cdr, Transfer::Copy);
                self.graph.add_val(result, AbsVal::Pair(l, k));
            }
            PrimOp::Car => self.attach(arg_nodes[0], Listener::CarRead { dest: result }),
            PrimOp::Cdr => self.attach(arg_nodes[0], Listener::CdrRead { dest: result }),
            PrimOp::SetCar => {
                self.attach(arg_nodes[0], Listener::SetCarWrite { src: arg_nodes[1] });
                self.graph.add_val(result, AbsVal::Const(AbsConst::Unspec));
            }
            PrimOp::SetCdr => {
                self.attach(arg_nodes[0], Listener::SetCdrWrite { src: arg_nodes[1] });
                self.graph.add_val(result, AbsVal::Const(AbsConst::Unspec));
            }
            PrimOp::Vector => {
                let elem = self.graph.node(NodeKey::VecElem(l, k));
                for &a in &arg_nodes {
                    self.edge(a, elem, Transfer::Copy);
                }
                self.graph.add_val(result, AbsVal::Vector(l, k));
            }
            PrimOp::MakeVector => {
                let elem = self.graph.node(NodeKey::VecElem(l, k));
                if arg_nodes.len() == 2 {
                    self.edge(arg_nodes[1], elem, Transfer::Copy);
                } else {
                    self.graph.add_val(elem, AbsVal::Const(AbsConst::Unspec));
                }
                self.graph.add_val(result, AbsVal::Vector(l, k));
            }
            PrimOp::VectorRef => self.attach(arg_nodes[0], Listener::VecRead { dest: result }),
            PrimOp::VectorSet => {
                self.attach(arg_nodes[0], Listener::VecWrite { src: arg_nodes[2] });
                self.graph.add_val(result, AbsVal::Const(AbsConst::Unspec));
            }
            _ => {
                for &a in &arg_nodes {
                    self.attach(
                        a,
                        Listener::PrimEval {
                            prim: p,
                            label: l,
                            kappa: k,
                        },
                    );
                }
                self.recompute_prim(p, l, k);
            }
        }
    }

    // --- listener processing ------------------------------------------------

    /// Fires a listener on the values that reached its node since it last
    /// fired — the full set when it is attached — in sorted order, so each
    /// value fires each listener exactly once. Values that handlers add to
    /// the node meanwhile wait for its next pop.
    fn process_listener(&mut self, lid: ListenerId) {
        let listener = self.graph.listener(lid);
        let mut prim_dirty = false;
        for v in self.graph.take_unseen(lid).iter() {
            match listener {
                Listener::Call { call, kappa } => self.handle_call(call, kappa, v),
                Listener::Apply { call, kappa } => self.handle_apply(call, kappa, v),
                Listener::IfGuard { iff, kappa, env } => self.handle_if(iff, kappa, env, v),
                Listener::CarRead { dest } => {
                    if let AbsVal::Pair(pl, pk) = v {
                        let src = self.graph.node(NodeKey::PairCar(pl, pk));
                        self.edge(src, dest, Transfer::Copy);
                    }
                }
                Listener::CdrRead { dest } => {
                    if let AbsVal::Pair(pl, pk) = v {
                        let src = self.graph.node(NodeKey::PairCdr(pl, pk));
                        self.edge(src, dest, Transfer::Copy);
                    }
                }
                Listener::SetCarWrite { src } => {
                    if let AbsVal::Pair(pl, pk) = v {
                        let dst = self.graph.node(NodeKey::PairCar(pl, pk));
                        self.edge(src, dst, Transfer::Copy);
                    }
                }
                Listener::SetCdrWrite { src } => {
                    if let AbsVal::Pair(pl, pk) = v {
                        let dst = self.graph.node(NodeKey::PairCdr(pl, pk));
                        self.edge(src, dst, Transfer::Copy);
                    }
                }
                Listener::VecRead { dest } => {
                    if let AbsVal::Vector(vl, vk) = v {
                        let src = self.graph.node(NodeKey::VecElem(vl, vk));
                        self.edge(src, dest, Transfer::Copy);
                    }
                }
                Listener::VecWrite { src } => {
                    if let AbsVal::Vector(vl, vk) = v {
                        let dst = self.graph.node(NodeKey::VecElem(vl, vk));
                        self.edge(src, dst, Transfer::Copy);
                    }
                }
                Listener::PrimEval { .. } => prim_dirty = true,
                Listener::ClRefRead { dest, index } => self.handle_cl_ref(dest, index, v),
                Listener::Spine { elems, spine } => self.handle_spine(elems, spine, v),
            }
        }
        if prim_dirty {
            if let Listener::PrimEval { prim, label, kappa } = listener {
                self.recompute_prim(prim, label, kappa);
            }
        }
    }

    fn recompute_prim(&mut self, p: PrimOp, l: Label, k: ContourId) {
        let ExprKind::Prim(_, args) = self.program.expr(l) else {
            unreachable!("PrimEval listener on non-prim label");
        };
        let arg_sets: Vec<std::sync::Arc<ValSet>> = args
            .iter()
            .map(|&a| {
                self.graph
                    .try_node(NodeKey::ExprAt(a, k))
                    .map(|n| self.graph.vals_handle(n))
                    .unwrap_or_default()
            })
            .collect();
        let refs: Vec<&ValSet> = arg_sets.iter().map(|s| &**s).collect();
        let out = crate::prims::abstract_prim(p, &refs);
        if !out.is_empty() {
            let result = self.expr_node(l, k);
            self.graph.union_into(result, &out);
        }
    }

    fn handle_if(&mut self, iff: Label, k: ContourId, env: WalkEnv, v: AbsVal) {
        let ExprKind::If(_, t, e) = *self.program.expr(iff) else {
            unreachable!("IfGuard on non-if label");
        };
        let result = self.expr_node(iff, k);
        if v.is_truthy() && self.if_done.insert((iff, k, env, true)) {
            let tn = self.walk(t, k, env);
            self.edge(tn, result, Transfer::Copy);
        }
        if v.may_be_false() && self.if_done.insert((iff, k, env, false)) {
            let en = self.walk(e, k, env);
            self.edge(en, result, Transfer::Copy);
        }
    }

    /// Instantiates a closure body: binds the restricted environment plus
    /// parameters and walks the body, once per (λ, env, contour).
    fn instantiate(&mut self, cid: ClosureId, kb: ContourId) {
        let c = self.closures.get(cid);
        if !self.instantiated.insert((c.lambda, c.env, kb)) {
            return;
        }
        let ExprKind::Lambda(lam) = self.program.expr(c.lambda).clone() else {
            unreachable!("closure over non-lambda");
        };
        let mut env = WalkEnv::EMPTY;
        for &(w, cw) in self.envs.bindings(c.env).to_vec().iter() {
            env = self.env_extend(env, w, cw);
        }
        for &p in &lam.params {
            env = self.env_extend(env, p, kb);
        }
        if let Some(r) = lam.rest {
            env = self.env_extend(env, r, kb);
        }
        self.walk(lam.body, kb, env);
    }

    fn handle_call(&mut self, call: Label, k: ContourId, v: AbsVal) {
        let AbsVal::Clo(cid) = v else { return };
        if !self.call_memo.insert((call, k, cid)) {
            return;
        }
        let c = self.closures.get(cid);
        let ExprKind::Lambda(lam) = self.program.expr(c.lambda).clone() else {
            unreachable!("closure over non-lambda");
        };
        let ExprKind::Call(parts) = self.program.expr(call).clone() else {
            unreachable!("Call listener on non-call label");
        };
        let args = &parts[1..];
        if !lam.accepts(args.len()) {
            self.arity_mismatches += 1;
            return;
        }
        let kb = self
            .policy
            .body_contour(&mut self.contours, c.contour, call, k);
        self.instantiate(cid, kb);
        for (j, &p) in lam.params.iter().enumerate() {
            let an = self.expr_node(args[j], k);
            let pn = self.var_node(p, kb);
            self.edge(an, pn, Transfer::Copy);
        }
        if let Some(r) = lam.rest {
            let rn = self.var_node(r, kb);
            let extras = &args[lam.params.len()..];
            if extras.is_empty() {
                self.graph.add_val(rn, AbsVal::Const(AbsConst::Nil));
            } else {
                // The rest list is approximated by one abstract pair keyed by
                // the call label: car ⊇ every extra argument, cdr ∋ nil and
                // the pair itself.
                let pv = AbsVal::Pair(call, kb);
                self.graph.add_val(rn, pv);
                let car = self.graph.node(NodeKey::PairCar(call, kb));
                let cdr = self.graph.node(NodeKey::PairCdr(call, kb));
                for &e in extras {
                    let en = self.expr_node(e, k);
                    self.edge(en, car, Transfer::Copy);
                }
                self.graph.add_val(cdr, AbsVal::Const(AbsConst::Nil));
                self.graph.add_val(cdr, pv);
            }
        }
        let body = self.expr_node(lam.body, kb);
        let result = self.expr_node(call, k);
        self.edge(body, result, Transfer::Copy);
    }

    fn handle_apply(&mut self, call: Label, k: ContourId, v: AbsVal) {
        let AbsVal::Clo(cid) = v else { return };
        if !self.call_memo.insert((call, k, cid)) {
            return;
        }
        let c = self.closures.get(cid);
        let ExprKind::Lambda(lam) = self.program.expr(c.lambda).clone() else {
            unreachable!("closure over non-lambda");
        };
        let ExprKind::Apply(_, arg) = *self.program.expr(call) else {
            unreachable!("Apply listener on non-apply label");
        };
        let kb = self
            .policy
            .body_contour(&mut self.contours, c.contour, call, k);
        self.instantiate(cid, kb);
        let list_node = self.expr_node(arg, k);
        for &p in &lam.params {
            let pn = self.var_node(p, kb);
            self.attach_spine(list_node, Some(pn), None);
        }
        if let Some(r) = lam.rest {
            let rn = self.var_node(r, kb);
            self.attach_spine(list_node, None, Some(rn));
        }
        let body = self.expr_node(lam.body, kb);
        let result = self.expr_node(call, k);
        self.edge(body, result, Transfer::Copy);
    }

    fn attach_spine(&mut self, node: NodeId, elems: Option<NodeId>, spine: Option<NodeId>) {
        if self.spine_memo.insert((node, elems, spine)) {
            self.attach(node, Listener::Spine { elems, spine });
        }
    }

    fn handle_spine(&mut self, elems: Option<NodeId>, spine: Option<NodeId>, v: AbsVal) {
        match v {
            AbsVal::Pair(pl, pk) => {
                if let Some(e) = elems {
                    let car = self.graph.node(NodeKey::PairCar(pl, pk));
                    self.edge(car, e, Transfer::Copy);
                }
                if let Some(s) = spine {
                    self.graph.add_val(s, v);
                }
                let cdr = self.graph.node(NodeKey::PairCdr(pl, pk));
                self.attach_spine(cdr, elems, spine);
            }
            AbsVal::Const(AbsConst::Nil) => {
                if let Some(s) = spine {
                    self.graph.add_val(s, v);
                }
            }
            _ => {}
        }
    }

    fn handle_cl_ref(&mut self, dest: NodeId, index: u32, v: AbsVal) {
        let AbsVal::Clo(cid) = v else { return };
        let c = self.closures.get(cid);
        let layout: &[VarId] = match self.program.pinned_captures(c.lambda) {
            Some(p) => p,
            None => match self.fv.get(c.lambda) {
                Some(f) => f,
                None => return,
            },
        };
        let Some(&fv) = layout.get(index as usize) else {
            return;
        };
        if let Some(cv) = self.envs.lookup(c.env, fv) {
            let src = self.var_node(fv, cv);
            self.edge(src, dest, Transfer::Copy);
        }
    }

    // --- the solver loop ----------------------------------------------------

    fn run(&mut self) {
        while let Some(n) = self.graph.pop_dirty() {
            self.steps += 1;
            if self.steps > self.limits.max_steps as u64 {
                self.abort(AbortReason::Steps);
                return;
            }
            if self.graph.node_count() > self.limits.max_nodes {
                self.abort(AbortReason::Nodes);
                return;
            }
            // Checking the clock every step would dominate the solver loop;
            // every 1024 steps keeps overshoot of the shared pipeline
            // deadline bounded to microseconds. Convergence telemetry rides
            // the same cadence so the solver's hot path stays one branch.
            if self.steps & 0x3ff == 0 {
                if self.telemetry.enabled() {
                    self.sample_convergence();
                }
                if let Some(deadline) = self.limits.deadline {
                    if Instant::now() >= deadline {
                        self.abort(AbortReason::Deadline);
                        return;
                    }
                }
            }
            // Semi-naive step: every successor already holds the transfer of
            // the values `n` had at its previous pop (or all of them, if the
            // edge is newer), and transfers are element-wise, so sending only
            // the delta grows each successor exactly as the full set would.
            let delta = self.graph.take_delta(n);
            let mut i = 0;
            while i < self.graph.succ_count(n) {
                let (dst, t) = self.graph.succ(n, i);
                self.propagate(dst, t, &delta);
                i += 1;
            }
            let mut j = 0;
            while j < self.graph.listener_count(n) {
                let lid = self.graph.listener_at(n, j);
                self.process_listener(lid);
                j += 1;
            }
        }
    }

    /// One convergence sample: absolute counters plus the delta of contours
    /// and nodes created since the previous sample (the per-iteration growth
    /// a splitting blowup shows up in first).
    fn sample_convergence(&mut self) {
        let contours = self.contours.len() as u64;
        let nodes = self.graph.node_count() as u64;
        let (c0, n0) = self.sampled;
        self.telemetry.counter("cfa.steps", self.steps);
        self.telemetry.counter("cfa.contours", contours);
        self.telemetry
            .counter("cfa.closures", self.closures.len() as u64);
        self.telemetry.counter("cfa.nodes", nodes);
        self.telemetry
            .counter("cfa.contours_delta", contours.saturating_sub(c0));
        self.telemetry
            .counter("cfa.nodes_delta", nodes.saturating_sub(n0));
        self.sampled = (contours, nodes);
    }

    fn finish(mut self, start: Instant) -> FlowAnalysis {
        if self.telemetry.enabled() {
            self.sample_convergence();
        }
        let mut stats = AnalysisStats {
            nodes: self.graph.node_count(),
            edges: self.graph.edge_count(),
            steps: self.steps,
            contours: self.contours.len(),
            closures: self.closures.len(),
            duration: start.elapsed(),
            aborted: self.aborted,
            abort_reason: self.abort_reason,
            arity_mismatches: self.arity_mismatches,
            valset_histogram: [0; 8],
        };
        let (exprs, vars) = self.graph.into_tables();
        for entries in exprs.values() {
            for (_, vs) in entries {
                stats.valset_histogram[valset_bucket(vs.len())] += 1;
            }
        }
        for vs in vars.values() {
            stats.valset_histogram[valset_bucket(vs.len())] += 1;
        }
        if self.telemetry.enabled() {
            let buckets: Vec<(&str, u64)> = VALSET_BUCKETS
                .iter()
                .copied()
                .zip(stats.valset_histogram.iter().copied())
                .collect();
            self.telemetry.histogram("cfa.valset_sizes", &buckets);
            self.telemetry.instant(
                "cfa.done",
                "cfa",
                &[
                    ("steps", stats.steps.to_string()),
                    ("contours", stats.contours.to_string()),
                    ("aborted", stats.aborted.to_string()),
                ],
            );
        }
        FlowAnalysis::new(
            exprs,
            vars,
            self.contours,
            self.envs,
            self.closures,
            self.call_sites,
            self.policy,
            stats,
            self.limits.max_contour_len,
        )
    }
}

/// Marks variable-reference labels within `root` that refer to `vars`.
fn mark_recursive_uses(
    program: &Program,
    root: Label,
    vars: &HashSet<VarId>,
    out: &mut HashSet<Label>,
) {
    let mut stack = vec![root];
    while let Some(l) = stack.pop() {
        if let ExprKind::Var(v) = program.expr(l) {
            if vars.contains(v) {
                out.insert(l);
            }
        }
        program.for_each_child(l, |c| stack.push(c));
    }
}

/// Maps a concrete constant to its abstract value (`AbstractValOf`).
pub fn abs_const(c: Const) -> AbsVal {
    match c {
        Const::Bool(true) => AbsVal::Const(AbsConst::True),
        Const::Bool(false) => AbsVal::Const(AbsConst::False),
        Const::Int(_) | Const::Float(_) => AbsVal::Const(AbsConst::Num),
        Const::Char(_) => AbsVal::Const(AbsConst::Char),
        Const::Str(_) => AbsVal::Const(AbsConst::Str),
        Const::Symbol(s) => AbsVal::Const(AbsConst::Sym(s)),
        Const::Nil => AbsVal::Const(AbsConst::Nil),
        Const::Unspecified => AbsVal::Const(AbsConst::Unspec),
    }
}
