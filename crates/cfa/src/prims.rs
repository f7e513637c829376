//! `AbstractResultOf` (§3.2): abstract transfer functions for primitives.
//!
//! Most primitives map to a fixed abstract constant (`+` ↦ `number`), but
//! predicates are evaluated precisely over their arguments' abstract values —
//! `(null? x)` with `F(x) = {nil}` yields `{true}`, which is what drives the
//! conditional pruning of §3.4 (and the `map`/`make-network` examples).

use crate::domain::{AbsConst, AbsVal, ValSet};
use fdi_lang::PrimOp;

/// Abstract result of applying `prim` to arguments with the given abstract
/// values. Data-structure primitives (`cons`, `car`, …) are handled by the
/// analyzer's graph rules, not here.
///
/// Divergent/erroneous-only primitives (`error`) return ⊥ (the empty set),
/// which lets downstream conditionals prune both branches.
pub fn abstract_prim(prim: PrimOp, args: &[&ValSet]) -> ValSet {
    use AbsConst::*;
    use PrimOp::*;
    // Before any argument has a value, every primitive is still unevaluated
    // (⊥) — except literal constructors with no value-dependence.
    let konst = |c: AbsConst| ValSet::singleton(AbsVal::Const(c));
    let bools = || {
        let mut s = konst(True);
        s.insert(AbsVal::Const(False));
        s
    };
    let any_arg_empty = args.iter().any(|a| a.is_empty());
    match prim {
        // Arithmetic: always numbers. A nullary (+)/(*) is a literal.
        Add | Sub | Mul | Div | Quotient | Remainder | Modulo | Abs | Min | Max | Gcd | Sqrt
        | Expt | Exp | Log | Sin | Cos | Atan | Floor | Ceiling | Truncate | Round
        | ExactToInexact | InexactToExact | Random | StringLength | CharToInteger
        | VectorLength => {
            if any_arg_empty {
                ValSet::new()
            } else {
                konst(Num)
            }
        }
        NumEq | Lt | Gt | Le | Ge | ZeroP | PositiveP | NegativeP | EvenP | OddP | StringEqP
        | StringLtP | CharEqP | CharLtP => {
            if any_arg_empty {
                ValSet::new()
            } else {
                bools()
            }
        }
        StringAppend | SymbolToString | NumberToString | SubstringOp => {
            if any_arg_empty {
                ValSet::new()
            } else {
                konst(Str)
            }
        }
        StringRef | IntegerToChar => {
            if any_arg_empty {
                ValSet::new()
            } else {
                konst(Char)
            }
        }
        StringToSymbol => {
            if any_arg_empty {
                ValSet::new()
            } else {
                konst(AnySym)
            }
        }
        Display | Write | Newline => {
            if any_arg_empty {
                ValSet::new()
            } else {
                konst(Unspec)
            }
        }
        // `error` never returns: its abstract value is ⊥.
        ErrorOp => ValSet::new(),
        Not => unary_pred(args, |v| Some(v == AbsVal::Const(False))),
        NullP => unary_pred(args, |v| Some(v == AbsVal::Const(Nil))),
        PairP => unary_pred(args, |v| Some(matches!(v, AbsVal::Pair(..)))),
        VectorP => unary_pred(args, |v| Some(matches!(v, AbsVal::Vector(..)))),
        ProcedureP => unary_pred(args, |v| Some(matches!(v, AbsVal::Clo(_)))),
        NumberP | IntegerP => unary_pred(args, |v| match v {
            AbsVal::Const(Num) => Some(true),
            _ => Some(false),
        }),
        BooleanP => unary_pred(args, |v| {
            Some(matches!(v, AbsVal::Const(True) | AbsVal::Const(False)))
        }),
        SymbolP => unary_pred(args, |v| {
            Some(matches!(v, AbsVal::Const(Sym(_)) | AbsVal::Const(AnySym)))
        }),
        StringP => unary_pred(args, |v| Some(matches!(v, AbsVal::Const(Str)))),
        CharP => unary_pred(args, |v| Some(matches!(v, AbsVal::Const(Char)))),
        EqP | EqvP => binary_identity(args, false),
        EqualP => binary_identity(args, true),
        // Data ops are wired by the analyzer; returning ⊥ here keeps misuse
        // visible in tests.
        Cons | Car | Cdr | SetCar | SetCdr | MakeVector | Vector | VectorRef | VectorSet => {
            ValSet::new()
        }
    }
}

/// Evaluates a unary predicate pointwise; `None` from `f` means "unknown"
/// (contributes both booleans).
fn unary_pred(args: &[&ValSet], f: impl Fn(AbsVal) -> Option<bool>) -> ValSet {
    let mut out = ValSet::new();
    if let [arg] = args {
        for v in arg.iter() {
            match f(v) {
                Some(true) => {
                    out.insert(AbsVal::Const(AbsConst::True));
                }
                Some(false) => {
                    out.insert(AbsVal::Const(AbsConst::False));
                }
                None => {
                    out.insert(AbsVal::Const(AbsConst::True));
                    out.insert(AbsVal::Const(AbsConst::False));
                }
            }
        }
    }
    out
}

/// Abstract `eq?`/`eqv?`/`equal?` over pairs of argument values, stopping
/// as soon as the result holds both booleans (nothing can add to it then).
///
/// Precision rules: two *distinct* abstract kinds are definitely not
/// equivalent; the same precise symbol (or boolean, or nil) is definitely
/// equivalent under `eqv?`; merged constants (numbers, chars, strings) and
/// same-site pairs/vectors/closures yield both booleans. `equal?` is
/// structural, so same-kind compound values also yield both booleans.
fn binary_identity(args: &[&ValSet], structural: bool) -> ValSet {
    use AbsConst::*;
    let mut out = ValSet::new();
    let [a, b] = args else {
        return out;
    };
    for va in a.iter() {
        for vb in b.iter() {
            let verdicts: (bool, bool) = match (va, vb) {
                (AbsVal::Const(ca), AbsVal::Const(cb)) => match (ca, cb) {
                    (True, True) | (False, False) | (Nil, Nil) | (Unspec, Unspec) => (true, false),
                    (Sym(x), Sym(y)) if x == y => (true, false),
                    (Num, Num) | (Char, Char) => (true, true),
                    (Str, Str) => {
                        if structural {
                            (true, true)
                        } else {
                            // eq? on strings is identity; could be either.
                            (true, true)
                        }
                    }
                    (Sym(_), AnySym) | (AnySym, Sym(_)) | (AnySym, AnySym) => (true, true),
                    _ => (false, true),
                },
                (AbsVal::Pair(l1, k1), AbsVal::Pair(l2, k2)) => {
                    if structural {
                        (true, true)
                    } else if l1 == l2 && k1 == k2 {
                        // Same allocation site: maybe the same pair.
                        (true, true)
                    } else {
                        // Different sites are different objects.
                        (false, true)
                    }
                }
                (AbsVal::Vector(l1, k1), AbsVal::Vector(l2, k2))
                    if (structural || (l1 == l2 && k1 == k2)) =>
                {
                    (true, true)
                }
                (AbsVal::Clo(c1), AbsVal::Clo(c2)) if c1 == c2 => (true, true),
                // Mixed kinds are never equivalent.
                _ => (false, true),
            };
            if verdicts.0 {
                out.insert(AbsVal::Const(True));
            }
            if verdicts.1 {
                out.insert(AbsVal::Const(False));
            }
            if out.len() == 2 {
                return out;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::ContourId;
    use fdi_lang::{Label, Sym};

    fn s(vals: &[AbsVal]) -> ValSet {
        vals.iter().copied().collect()
    }

    const T: AbsVal = AbsVal::Const(AbsConst::True);
    const F: AbsVal = AbsVal::Const(AbsConst::False);
    const NIL: AbsVal = AbsVal::Const(AbsConst::Nil);
    const NUM: AbsVal = AbsVal::Const(AbsConst::Num);

    #[test]
    fn arithmetic_returns_number() {
        let a = s(&[NUM]);
        assert_eq!(abstract_prim(PrimOp::Add, &[&a, &a]), s(&[NUM]));
        // Strict in ⊥: unevaluated args give ⊥ (right-to-divergence pruning).
        let bot = ValSet::new();
        assert!(abstract_prim(PrimOp::Add, &[&a, &bot]).is_empty());
    }

    #[test]
    fn null_pred_is_precise() {
        assert_eq!(abstract_prim(PrimOp::NullP, &[&s(&[NIL])]), s(&[T]));
        let pair = AbsVal::Pair(Label(1), ContourId::EMPTY);
        assert_eq!(abstract_prim(PrimOp::NullP, &[&s(&[pair])]), s(&[F]));
        assert_eq!(
            abstract_prim(PrimOp::NullP, &[&s(&[NIL, pair])]),
            s(&[T, F])
        );
    }

    #[test]
    fn not_is_precise() {
        assert_eq!(abstract_prim(PrimOp::Not, &[&s(&[F])]), s(&[T]));
        assert_eq!(abstract_prim(PrimOp::Not, &[&s(&[NIL, NUM])]), s(&[F]));
    }

    #[test]
    fn eqv_on_symbols_prunes_case_dispatch() {
        let open = AbsVal::Const(AbsConst::Sym(Sym(1)));
        let close = AbsVal::Const(AbsConst::Sym(Sym(2)));
        assert_eq!(
            abstract_prim(PrimOp::EqvP, &[&s(&[open]), &s(&[open])]),
            s(&[T])
        );
        assert_eq!(
            abstract_prim(PrimOp::EqvP, &[&s(&[open]), &s(&[close])]),
            s(&[F])
        );
        assert_eq!(
            abstract_prim(PrimOp::EqvP, &[&s(&[open, close]), &s(&[open])]),
            s(&[T, F])
        );
    }

    #[test]
    fn eqv_on_numbers_is_unknown() {
        assert_eq!(
            abstract_prim(PrimOp::EqvP, &[&s(&[NUM]), &s(&[NUM])]),
            s(&[T, F])
        );
    }

    #[test]
    fn eq_on_distinct_alloc_sites_is_false() {
        let p1 = AbsVal::Pair(Label(1), ContourId::EMPTY);
        let p2 = AbsVal::Pair(Label(2), ContourId::EMPTY);
        assert_eq!(abstract_prim(PrimOp::EqP, &[&s(&[p1]), &s(&[p2])]), s(&[F]));
        assert_eq!(
            abstract_prim(PrimOp::EqP, &[&s(&[p1]), &s(&[p1])]),
            s(&[T, F])
        );
        // equal? is structural: same kind may be equal.
        assert_eq!(
            abstract_prim(PrimOp::EqualP, &[&s(&[p1]), &s(&[p2])]),
            s(&[T, F])
        );
    }

    #[test]
    fn mixed_kinds_are_never_eqv() {
        assert_eq!(
            abstract_prim(PrimOp::EqvP, &[&s(&[NUM]), &s(&[NIL])]),
            s(&[F])
        );
    }

    #[test]
    fn error_is_bottom() {
        let a = s(&[NUM]);
        assert!(abstract_prim(PrimOp::ErrorOp, &[&a]).is_empty());
    }

    #[test]
    fn type_predicates() {
        let clo = AbsVal::Clo(crate::domain::ClosureId(0));
        assert_eq!(abstract_prim(PrimOp::ProcedureP, &[&s(&[clo])]), s(&[T]));
        assert_eq!(abstract_prim(PrimOp::NumberP, &[&s(&[NUM])]), s(&[T]));
        assert_eq!(abstract_prim(PrimOp::SymbolP, &[&s(&[NUM])]), s(&[F]));
        let v = AbsVal::Vector(Label(3), ContourId::EMPTY);
        assert_eq!(abstract_prim(PrimOp::VectorP, &[&s(&[v])]), s(&[T]));
        assert_eq!(abstract_prim(PrimOp::PairP, &[&s(&[v])]), s(&[F]));
    }
}
