//! The resolver: compiles a [`Program`] into directly-executable code with
//! flat-closure variable addressing.
//!
//! Every variable reference becomes either an environment access
//! (`frame depth` + `slot`) within the current procedure activation, or an
//! indexed read of the current closure's capture record. Capture records are
//! laid out in first-occurrence free-variable order — the same order the
//! inliner's `cl-ref` indices use (§3.5), so `(cl-ref w i)` is a real indexed
//! load.
//!
//! The resolver also prices every *call-free* tree — a constant, a variable,
//! or a primitive whose operands are all call-free — at the number of
//! machine steps it takes in operand position, so the machine can evaluate
//! it in place and charge those steps at once ([`Resolved::simple_cost`]).

use fdi_lang::{ExprKind, FreeVars, Label, PrimOp, Program, VarId};
use std::collections::HashMap;

/// A resolved variable reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarRef {
    /// `slot` of the frame `depth` levels up within the current activation.
    Env {
        /// Frames to walk up.
        depth: u16,
        /// Slot within that frame.
        slot: u16,
    },
    /// Indexed read of the current closure's capture record.
    Capture(u16),
}

/// Resolved code, indexed by the same [`Label`] space as the program.
#[derive(Debug, Clone, PartialEq)]
pub enum Code {
    /// A literal constant.
    Const(fdi_lang::Const),
    /// A resolved variable reference.
    Var(VarRef),
    /// A primitive application.
    Prim(PrimOp, Vec<Label>),
    /// A procedure call.
    Call(Vec<Label>),
    /// `(apply f lst)`.
    Apply(Label, Label),
    /// A sequence.
    Begin(Vec<Label>),
    /// A conditional.
    If(Label, Label, Label),
    /// `let`: evaluate right-hand sides, push one frame.
    Let(Vec<Label>, Label),
    /// `letrec`: push a frame of closures (created with backpatching).
    Letrec(Vec<Label>, Label),
    /// Closure creation.
    Lambda(LambdaCode),
    /// `(cl-ref e n)`.
    ClRef(Label, u32),
    /// Placeholder for unreachable arena slots.
    Dead,
}

/// Compilation of one λ-expression.
#[derive(Debug, Clone, PartialEq)]
pub struct LambdaCode {
    /// Number of required parameters.
    pub params: usize,
    /// Whether a rest list is collected.
    pub rest: bool,
    /// Body label.
    pub body: Label,
    /// How to fill each capture slot at creation time, in free-variable
    /// order.
    pub capture_plan: Vec<VarRef>,
}

/// A whole resolved program.
#[derive(Debug, Clone)]
pub struct Resolved {
    code: Vec<Code>,
    /// Per label: the steps of a call-free tree, or 0 (see
    /// [`Self::simple_cost`]).
    simple: Vec<u32>,
    root: Label,
}

impl Resolved {
    /// The code at `label`.
    pub fn code(&self, label: Label) -> &Code {
        &self.code[label.0 as usize]
    }

    /// The root label.
    pub fn root(&self) -> Label {
        self.root
    }

    /// The machine steps the expression at `label` takes in operand
    /// position when it is call-free: 2 for a constant or a variable (one
    /// to evaluate it, one to return its value), 2 + the operands' costs for
    /// a primitive whose operands are all call-free, and 0 for anything else.
    pub fn simple_cost(&self, label: Label) -> u32 {
        self.simple[label.0 as usize]
    }

    /// Every label with its code, in label order.
    pub(crate) fn codes(&self) -> impl Iterator<Item = (Label, &Code)> {
        self.code
            .iter()
            .enumerate()
            .map(|(i, c)| (Label(i as u32), c))
    }
}

/// Lexical address book during resolution: the frames of the current
/// procedure activation (innermost last).
struct Scope {
    /// Frames: each a list of variables (slot order).
    frames: Vec<Vec<VarId>>,
    /// The λ's own free variables, in capture order.
    captures: HashMap<VarId, u16>,
}

impl Scope {
    fn resolve(&self, v: VarId) -> Option<VarRef> {
        for (up, frame) in self.frames.iter().rev().enumerate() {
            if let Some(slot) = frame.iter().position(|&w| w == v) {
                return Some(VarRef::Env {
                    depth: up as u16,
                    slot: slot as u16,
                });
            }
        }
        self.captures.get(&v).map(|&i| VarRef::Capture(i))
    }
}

/// Compiles `program` to [`Resolved`] code.
///
/// # Panics
///
/// Panics on ill-formed programs (unbound variables); run
/// [`fdi_lang::validate`] first if the input is untrusted.
pub fn resolve(program: &Program) -> Resolved {
    let fv = FreeVars::compute(program);
    let mut scope = Scope {
        frames: vec![Vec::new()],
        captures: HashMap::new(),
    };
    let mut res = Resolved {
        code: vec![Code::Dead; program.expr_count()],
        simple: vec![0; program.expr_count()],
        root: program.root(),
    };
    walk(program, &fv, program.root(), &mut scope, &mut res);
    res
}

fn walk(program: &Program, fv: &FreeVars, label: Label, scope: &mut Scope, res: &mut Resolved) {
    let out = match program.expr(label) {
        ExprKind::Const(c) => Code::Const(*c),
        ExprKind::Var(v) => Code::Var(
            scope
                .resolve(*v)
                .unwrap_or_else(|| panic!("unresolved variable {v} at {label}")),
        ),
        ExprKind::Prim(p, args) => {
            for &a in args {
                walk(program, fv, a, scope, res);
            }
            Code::Prim(*p, args.clone())
        }
        ExprKind::Call(parts) => {
            for &e in parts {
                walk(program, fv, e, scope, res);
            }
            Code::Call(parts.clone())
        }
        ExprKind::Apply(f, arg) => {
            walk(program, fv, *f, scope, res);
            walk(program, fv, *arg, scope, res);
            Code::Apply(*f, *arg)
        }
        ExprKind::Begin(parts) => {
            for &e in parts {
                walk(program, fv, e, scope, res);
            }
            Code::Begin(parts.clone())
        }
        ExprKind::If(c, t, e) => {
            walk(program, fv, *c, scope, res);
            walk(program, fv, *t, scope, res);
            walk(program, fv, *e, scope, res);
            Code::If(*c, *t, *e)
        }
        ExprKind::Let(bindings, body) => {
            for &(_, e) in bindings {
                walk(program, fv, e, scope, res);
            }
            scope
                .frames
                .push(bindings.iter().map(|&(x, _)| x).collect());
            walk(program, fv, *body, scope, res);
            scope.frames.pop();
            Code::Let(bindings.iter().map(|&(_, e)| e).collect(), *body)
        }
        ExprKind::Letrec(bindings, body) => {
            scope
                .frames
                .push(bindings.iter().map(|&(y, _)| y).collect());
            for &(_, f) in bindings {
                walk(program, fv, f, scope, res);
            }
            walk(program, fv, *body, scope, res);
            scope.frames.pop();
            Code::Letrec(bindings.iter().map(|&(_, f)| f).collect(), *body)
        }
        ExprKind::Lambda(lam) => {
            let computed = fv.get(label).expect("free vars computed for reachable λ");
            // Pinned layouts come first (cl-ref indices point into them);
            // any remaining free variables are appended.
            let free: Vec<fdi_lang::VarId> = match program.pinned_captures(label) {
                Some(pins) => {
                    let mut out = pins.to_vec();
                    out.extend(computed.iter().copied().filter(|v| !pins.contains(v)));
                    out
                }
                None => computed.to_vec(),
            };
            let free = &free[..];
            // The capture plan addresses the *enclosing* scope.
            let capture_plan: Vec<VarRef> = free
                .iter()
                .map(|&z| {
                    scope
                        .resolve(z)
                        .unwrap_or_else(|| panic!("unresolved capture {z} at {label}"))
                })
                .collect();
            // Inside the λ: fresh activation; frame 0 holds params (+ rest).
            let mut inner_frame: Vec<VarId> = lam.params.clone();
            inner_frame.extend(lam.rest);
            let mut inner = Scope {
                frames: vec![inner_frame],
                captures: free
                    .iter()
                    .enumerate()
                    .map(|(i, &z)| (z, i as u16))
                    .collect(),
            };
            walk(program, fv, lam.body, &mut inner, res);
            Code::Lambda(LambdaCode {
                params: lam.params.len(),
                rest: lam.rest.is_some(),
                body: lam.body,
                capture_plan,
            })
        }
        ExprKind::ClRef(e, n) => {
            walk(program, fv, *e, scope, res);
            Code::ClRef(*e, *n)
        }
    };
    // Operands are resolved (and priced) before the expression using them.
    let cost = |op: &Label| res.simple[op.0 as usize];
    res.simple[label.0 as usize] = match &out {
        Code::Const(_) | Code::Var(_) => 2,
        Code::Prim(_, ops) if ops.iter().all(|op| cost(op) != 0) => {
            2 + ops.iter().map(cost).sum::<u32>()
        }
        _ => 0,
    };
    res.code[label.0 as usize] = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_lang::parse_and_lower;

    #[test]
    fn resolves_params_to_frame_zero() {
        let p = parse_and_lower("(lambda (a b) b)").unwrap();
        let r = resolve(&p);
        let Code::Lambda(lam) = r.code(r.root()) else {
            panic!()
        };
        let Code::Var(v) = r.code(lam.body) else {
            panic!()
        };
        assert_eq!(*v, VarRef::Env { depth: 0, slot: 1 });
    }

    #[test]
    fn resolves_let_frames_by_depth() {
        let p = parse_and_lower("(lambda (a) (let ((x 1)) (cons a x)))").unwrap();
        let r = resolve(&p);
        let Code::Lambda(lam) = r.code(r.root()) else {
            panic!()
        };
        let Code::Let(_, body) = r.code(lam.body) else {
            panic!()
        };
        let Code::Prim(_, args) = r.code(*body) else {
            panic!()
        };
        assert_eq!(
            *r.code(args[0]),
            Code::Var(VarRef::Env { depth: 1, slot: 0 })
        );
        assert_eq!(
            *r.code(args[1]),
            Code::Var(VarRef::Env { depth: 0, slot: 0 })
        );
    }

    #[test]
    fn free_variables_become_captures_in_fv_order() {
        let p = parse_and_lower("(lambda (a b) (lambda () (cons b a)))").unwrap();
        let r = resolve(&p);
        let Code::Lambda(outer) = r.code(r.root()) else {
            panic!()
        };
        let Code::Lambda(inner) = r.code(outer.body) else {
            panic!()
        };
        // b occurs first in the inner body → capture 0 reads slot 1.
        assert_eq!(
            inner.capture_plan,
            vec![
                VarRef::Env { depth: 0, slot: 1 },
                VarRef::Env { depth: 0, slot: 0 },
            ]
        );
        let Code::Prim(_, args) = r.code(inner.body) else {
            panic!()
        };
        assert_eq!(*r.code(args[0]), Code::Var(VarRef::Capture(0)));
        assert_eq!(*r.code(args[1]), Code::Var(VarRef::Capture(1)));
    }

    #[test]
    fn transitive_captures_chain() {
        // The middle λ captures `a` only to hand it to the innermost one.
        let p = parse_and_lower("(lambda (a) (lambda () (lambda () a)))").unwrap();
        let r = resolve(&p);
        let Code::Lambda(l1) = r.code(r.root()) else {
            panic!()
        };
        let Code::Lambda(l2) = r.code(l1.body) else {
            panic!()
        };
        let Code::Lambda(l3) = r.code(l2.body) else {
            panic!()
        };
        assert_eq!(l2.capture_plan, vec![VarRef::Env { depth: 0, slot: 0 }]);
        assert_eq!(l3.capture_plan, vec![VarRef::Capture(0)]);
    }

    #[test]
    fn call_free_trees_are_priced_by_their_steps() {
        let p = parse_and_lower("(lambda (a f) (cons (+ (* a 2) a) (- (f a) 1)))").unwrap();
        let r = resolve(&p);
        let Code::Lambda(lam) = r.code(r.root()) else {
            panic!()
        };
        let Code::Prim(_, args) = r.code(lam.body) else {
            panic!()
        };
        // (+ (* a 2) a) = 2 + (2 + 2 + 2) + 2; a call anywhere below → 0.
        assert_eq!(r.simple_cost(args[0]), 10);
        assert_eq!(r.simple_cost(args[1]), 0);
        assert_eq!(r.simple_cost(lam.body), 0);
        assert_eq!(r.simple_cost(r.root()), 0);
    }

    #[test]
    fn variadic_rest_occupies_last_slot() {
        let p = parse_and_lower("(lambda (a . r) r)").unwrap();
        let r = resolve(&p);
        let Code::Lambda(lam) = r.code(r.root()) else {
            panic!()
        };
        assert_eq!(lam.params, 1);
        assert!(lam.rest);
        let Code::Var(v) = r.code(lam.body) else {
            panic!()
        };
        assert_eq!(*v, VarRef::Env { depth: 0, slot: 1 });
    }
}
