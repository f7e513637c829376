//! Concrete primitive semantics for the machine.

use crate::machine::{Machine, Observer, VmError};
use crate::resolve::{Code, Resolved};
use crate::value::Value;
use fdi_lang::{Label, PrimOp};

macro_rules! numeric_fold {
    ($self:ident, $vals:expr, $int_op:expr, $float_op:expr) => {{
        let mut acc = $vals[0];
        for &v in &$vals[1..] {
            acc = match (acc, v) {
                (Value::Int(a), Value::Int(b)) => match $int_op(a, b) {
                    Some(n) => Value::Int(n),
                    None => return $self.error("integer overflow"),
                },
                (a, b) => {
                    let (x, y) = ($self.as_f64(a)?, $self.as_f64(b)?);
                    Value::Float($float_op(x, y))
                }
            };
        }
        Ok(acc)
    }};
}

macro_rules! numeric_cmp {
    ($self:ident, $vals:expr, $cmp:expr) => {{
        for w in $vals.windows(2) {
            let (a, b) = ($self.as_f64(w[0])?, $self.as_f64(w[1])?);
            if !$cmp(a, b) {
                return Ok(Value::Bool(false));
            }
        }
        Ok(Value::Bool(true))
    }};
}

/// The tag checks each primitive application performs, indexed by label (0
/// at other labels): one per checked argument position that `observer`
/// does not elide.
pub(crate) fn check_table(res: &Resolved, observer: &impl Observer) -> Vec<u32> {
    res.codes()
        .map(|(label, code)| {
            let Code::Prim(p, ops) = code else {
                return 0;
            };
            let checked = |pos: usize| pos < ops.len() && !observer.check_elided(label, pos);
            p.checked_args()
                .iter()
                .map(|&(idx, _)| match idx {
                    u8::MAX => (0..ops.len()).filter(|&pos| checked(pos)).count() as u32,
                    idx => u32::from(checked(idx as usize)),
                })
                .sum()
        })
        .collect()
}

impl<O: Observer> Machine<'_, O> {
    /// Applies the primitive at `label` to `vals`, charging its cost —
    /// including its tag checks from the run's check table.
    pub(crate) fn apply_prim(&mut self, label: Label, vals: &[Value]) -> Result<Value, VmError> {
        let p = self.prim_op(label);
        let checks = u64::from(self.checks[label.0 as usize]);
        self.counters.prims += 1;
        self.counters.checks += checks;
        self.counters.mutator += self.model.prim_cost + self.model.type_check_cost * checks;
        self.prim(p, vals)
    }

    fn as_f64(&self, v: Value) -> Result<f64, VmError> {
        match v {
            Value::Int(n) => Ok(n as f64),
            Value::Float(x) => Ok(x),
            other => self.error(format!("expected number, got {}", other.type_name())),
        }
    }

    fn as_int(&self, v: Value, who: &str) -> Result<i64, VmError> {
        match v {
            Value::Int(n) => Ok(n),
            other => self.error(format!(
                "{who}: expected integer, got {}",
                other.type_name()
            )),
        }
    }

    fn float1(&self, vals: &[Value], f: impl Fn(f64) -> f64) -> Result<Value, VmError> {
        Ok(Value::Float(f(self.as_f64(vals[0])?)))
    }

    pub(crate) fn prim(&mut self, p: PrimOp, vals: &[Value]) -> Result<Value, VmError> {
        use PrimOp::*;
        match p {
            Cons => Ok(self.alloc_pair(vals[0], vals[1])),
            Car => match vals[0] {
                Value::Pair(id) => Ok(self.pairs[id.0 as usize].0.get()),
                other => self.error(format!("car: expected pair, got {}", other.type_name())),
            },
            Cdr => match vals[0] {
                Value::Pair(id) => Ok(self.pairs[id.0 as usize].1.get()),
                other => self.error(format!("cdr: expected pair, got {}", other.type_name())),
            },
            SetCar => match vals[0] {
                Value::Pair(id) => {
                    self.pairs[id.0 as usize].0.set(vals[1]);
                    Ok(Value::Unspec)
                }
                other => self.error(format!(
                    "set-car!: expected pair, got {}",
                    other.type_name()
                )),
            },
            SetCdr => match vals[0] {
                Value::Pair(id) => {
                    self.pairs[id.0 as usize].1.set(vals[1]);
                    Ok(Value::Unspec)
                }
                other => self.error(format!(
                    "set-cdr!: expected pair, got {}",
                    other.type_name()
                )),
            },
            MakeVector => {
                let n = self.as_int(vals[0], "make-vector")?;
                if !(0..=16_000_000).contains(&n) {
                    return self.error("make-vector: bad length");
                }
                let fill = vals.get(1).copied().unwrap_or(Value::Unspec);
                Ok(self.alloc_vector(vec![fill; n as usize]))
            }
            Vector => Ok(self.alloc_vector(vals.to_vec())),
            VectorRef => match vals[0] {
                Value::Vector(id) => {
                    let i = self.as_int(vals[1], "vector-ref")?;
                    let v = &self.vectors[id.0 as usize];
                    match usize::try_from(i).ok().and_then(|i| v.get(i)) {
                        Some(cell) => Ok(cell.get()),
                        None => self.error(format!("vector-ref: index {i} out of range")),
                    }
                }
                other => self.error(format!(
                    "vector-ref: expected vector, got {}",
                    other.type_name()
                )),
            },
            VectorSet => match vals[0] {
                Value::Vector(id) => {
                    let i = self.as_int(vals[1], "vector-set!")?;
                    let v = &self.vectors[id.0 as usize];
                    match usize::try_from(i).ok().and_then(|i| v.get(i)) {
                        Some(cell) => {
                            cell.set(vals[2]);
                            Ok(Value::Unspec)
                        }
                        None => self.error(format!("vector-set!: index {i} out of range")),
                    }
                }
                other => self.error(format!(
                    "vector-set!: expected vector, got {}",
                    other.type_name()
                )),
            },
            VectorLength => match vals[0] {
                Value::Vector(id) => Ok(Value::Int(self.vectors[id.0 as usize].len() as i64)),
                other => self.error(format!(
                    "vector-length: expected vector, got {}",
                    other.type_name()
                )),
            },
            Add => {
                if vals.is_empty() {
                    return Ok(Value::Int(0));
                }
                numeric_fold!(self, vals, |a: i64, b: i64| a.checked_add(b), |a, b| a + b)
            }
            Mul => {
                if vals.is_empty() {
                    return Ok(Value::Int(1));
                }
                numeric_fold!(self, vals, |a: i64, b: i64| a.checked_mul(b), |a, b| a * b)
            }
            Sub => {
                if vals.len() == 1 {
                    return match vals[0] {
                        Value::Int(n) => Ok(Value::Int(-n)),
                        Value::Float(x) => Ok(Value::Float(-x)),
                        other => {
                            self.error(format!("-: expected number, got {}", other.type_name()))
                        }
                    };
                }
                numeric_fold!(self, vals, |a: i64, b: i64| a.checked_sub(b), |a, b| a - b)
            }
            Div => {
                if vals.iter().skip(1).any(|&v| matches!(v, Value::Int(0))) {
                    return self.error("/: division by zero");
                }
                if vals.len() == 1 {
                    return Ok(Value::Float(1.0 / self.as_f64(vals[0])?));
                }
                // Exact division only when it stays integral.
                let all_int = vals.iter().all(|v| matches!(v, Value::Int(_)));
                if all_int {
                    let mut acc = self.as_int(vals[0], "/")?;
                    let mut exact = true;
                    for &v in &vals[1..] {
                        let b = self.as_int(v, "/")?;
                        if acc % b != 0 {
                            exact = false;
                            break;
                        }
                        acc /= b;
                    }
                    if exact {
                        return Ok(Value::Int(acc));
                    }
                }
                let mut acc = self.as_f64(vals[0])?;
                for &v in &vals[1..] {
                    acc /= self.as_f64(v)?;
                }
                Ok(Value::Float(acc))
            }
            Quotient => {
                let (a, b) = (
                    self.as_int(vals[0], "quotient")?,
                    self.as_int(vals[1], "quotient")?,
                );
                if b == 0 {
                    return self.error("quotient: division by zero");
                }
                Ok(Value::Int(a.wrapping_div(b)))
            }
            Remainder => {
                let (a, b) = (
                    self.as_int(vals[0], "remainder")?,
                    self.as_int(vals[1], "remainder")?,
                );
                if b == 0 {
                    return self.error("remainder: division by zero");
                }
                Ok(Value::Int(a.wrapping_rem(b)))
            }
            Modulo => {
                let (a, b) = (
                    self.as_int(vals[0], "modulo")?,
                    self.as_int(vals[1], "modulo")?,
                );
                if b == 0 {
                    return self.error("modulo: division by zero");
                }
                if a == i64::MIN && b == -1 {
                    return Ok(Value::Int(0));
                }
                let m = a % b;
                Ok(Value::Int(if m != 0 && (m < 0) != (b < 0) {
                    m + b
                } else {
                    m
                }))
            }
            Abs => match vals[0] {
                Value::Int(n) => Ok(Value::Int(n.abs())),
                Value::Float(x) => Ok(Value::Float(x.abs())),
                other => self.error(format!("abs: expected number, got {}", other.type_name())),
            },
            Min => {
                let mut acc = vals[0];
                for &v in &vals[1..] {
                    if self.as_f64(v)? < self.as_f64(acc)? {
                        acc = v;
                    }
                }
                Ok(acc)
            }
            Max => {
                let mut acc = vals[0];
                for &v in &vals[1..] {
                    if self.as_f64(v)? > self.as_f64(acc)? {
                        acc = v;
                    }
                }
                Ok(acc)
            }
            Gcd => {
                let (mut a, mut b) = (
                    self.as_int(vals[0], "gcd")?.unsigned_abs(),
                    self.as_int(vals[1], "gcd")?.unsigned_abs(),
                );
                while b != 0 {
                    (a, b) = (b, a % b);
                }
                Ok(Value::Int(a as i64))
            }
            Sqrt => self.float1(vals, f64::sqrt),
            Exp => self.float1(vals, f64::exp),
            Log => self.float1(vals, f64::ln),
            Sin => self.float1(vals, f64::sin),
            Cos => self.float1(vals, f64::cos),
            Atan => {
                if vals.len() == 2 {
                    let (y, x) = (self.as_f64(vals[0])?, self.as_f64(vals[1])?);
                    Ok(Value::Float(y.atan2(x)))
                } else {
                    self.float1(vals, f64::atan)
                }
            }
            Expt => match (vals[0], vals[1]) {
                (Value::Int(a), Value::Int(b)) if (0..=62).contains(&b) => {
                    match a.checked_pow(b as u32) {
                        Some(n) => Ok(Value::Int(n)),
                        None => self.error("expt: integer overflow"),
                    }
                }
                _ => {
                    let (a, b) = (self.as_f64(vals[0])?, self.as_f64(vals[1])?);
                    Ok(Value::Float(a.powf(b)))
                }
            },
            Floor => self.round_like(vals[0], f64::floor),
            Ceiling => self.round_like(vals[0], f64::ceil),
            Truncate => self.round_like(vals[0], f64::trunc),
            Round => self.round_like(vals[0], |x| {
                // R4RS round-to-even.
                let r = x.round();
                if (x - x.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
                    r - (x.signum())
                } else {
                    r
                }
            }),
            ExactToInexact => Ok(Value::Float(self.as_f64(vals[0])?)),
            InexactToExact => match vals[0] {
                Value::Int(n) => Ok(Value::Int(n)),
                Value::Float(x) if x.fract() == 0.0 && x.abs() < 9e18 => Ok(Value::Int(x as i64)),
                _ => self.error("inexact->exact: not representable"),
            },
            NumEq => numeric_cmp!(self, vals, |a, b| a == b),
            Lt => numeric_cmp!(self, vals, |a, b| a < b),
            Gt => numeric_cmp!(self, vals, |a, b| a > b),
            Le => numeric_cmp!(self, vals, |a, b| a <= b),
            Ge => numeric_cmp!(self, vals, |a, b| a >= b),
            ZeroP => Ok(Value::Bool(self.as_f64(vals[0])? == 0.0)),
            PositiveP => Ok(Value::Bool(self.as_f64(vals[0])? > 0.0)),
            NegativeP => Ok(Value::Bool(self.as_f64(vals[0])? < 0.0)),
            EvenP => Ok(Value::Bool(self.as_int(vals[0], "even?")? % 2 == 0)),
            OddP => Ok(Value::Bool(self.as_int(vals[0], "odd?")? % 2 != 0)),
            Not => Ok(Value::Bool(!vals[0].is_truthy())),
            NullP => Ok(Value::Bool(vals[0] == Value::Nil)),
            PairP => Ok(Value::Bool(matches!(vals[0], Value::Pair(_)))),
            VectorP => Ok(Value::Bool(matches!(vals[0], Value::Vector(_)))),
            NumberP => Ok(Value::Bool(matches!(
                vals[0],
                Value::Int(_) | Value::Float(_)
            ))),
            IntegerP => Ok(Value::Bool(match vals[0] {
                Value::Int(_) => true,
                Value::Float(x) => x.fract() == 0.0,
                _ => false,
            })),
            BooleanP => Ok(Value::Bool(matches!(vals[0], Value::Bool(_)))),
            SymbolP => Ok(Value::Bool(matches!(vals[0], Value::Sym(_)))),
            StringP => Ok(Value::Bool(matches!(vals[0], Value::Str(_)))),
            CharP => Ok(Value::Bool(matches!(vals[0], Value::Char(_)))),
            ProcedureP => Ok(Value::Bool(matches!(vals[0], Value::Closure(_)))),
            EqP | EqvP => Ok(Value::Bool(self.eqv(vals[0], vals[1]))),
            EqualP => Ok(Value::Bool(self.equal(vals[0], vals[1], 0)?)),
            StringLength => match vals[0] {
                Value::Str(id) => Ok(Value::Int(
                    self.strings[id.0 as usize].chars().count() as i64
                )),
                other => self.error(format!(
                    "string-length: expected string, got {}",
                    other.type_name()
                )),
            },
            StringRef => match vals[0] {
                Value::Str(id) => {
                    let i = self.as_int(vals[1], "string-ref")?;
                    match self.strings[id.0 as usize].chars().nth(i.max(0) as usize) {
                        Some(c) if i >= 0 => Ok(Value::Char(c)),
                        _ => self.error("string-ref: index out of range"),
                    }
                }
                other => self.error(format!(
                    "string-ref: expected string, got {}",
                    other.type_name()
                )),
            },
            StringAppend => {
                let mut out = String::new();
                for &v in vals {
                    match v {
                        Value::Str(id) => out.push_str(&self.strings[id.0 as usize]),
                        other => {
                            return self.error(format!(
                                "string-append: expected string, got {}",
                                other.type_name()
                            ))
                        }
                    }
                }
                Ok(self.alloc_string(out))
            }
            SubstringOp => match vals[0] {
                Value::Str(id) => {
                    let s: Vec<char> = self.strings[id.0 as usize].chars().collect();
                    let a = self.as_int(vals[1], "substring")?;
                    let b = self.as_int(vals[2], "substring")?;
                    if a < 0 || b < a || b as usize > s.len() {
                        return self.error("substring: bad range");
                    }
                    let out: String = s[a as usize..b as usize].iter().collect();
                    Ok(self.alloc_string(out))
                }
                other => self.error(format!(
                    "substring: expected string, got {}",
                    other.type_name()
                )),
            },
            StringEqP | StringLtP => match (vals[0], vals[1]) {
                (Value::Str(a), Value::Str(b)) => {
                    let (a, b) = (&self.strings[a.0 as usize], &self.strings[b.0 as usize]);
                    Ok(Value::Bool(if p == StringEqP { a == b } else { a < b }))
                }
                _ => self.error("string comparison: expected strings"),
            },
            SymbolToString => match vals[0] {
                Value::Sym(s) => Ok(self.str_value(s)),
                other => self.error(format!(
                    "symbol->string: expected symbol, got {}",
                    other.type_name()
                )),
            },
            StringToSymbol => match vals[0] {
                Value::Str(id) => {
                    let name = self.strings[id.0 as usize].clone();
                    let sym = self.intern_symbol(&name);
                    Ok(Value::Sym(sym))
                }
                other => self.error(format!(
                    "string->symbol: expected string, got {}",
                    other.type_name()
                )),
            },
            NumberToString => {
                let s = match vals[0] {
                    Value::Int(n) => n.to_string(),
                    Value::Float(x) => format_float(x),
                    other => {
                        return self.error(format!(
                            "number->string: expected number, got {}",
                            other.type_name()
                        ))
                    }
                };
                Ok(self.alloc_string(s))
            }
            CharToInteger => match vals[0] {
                Value::Char(c) => Ok(Value::Int(c as i64)),
                other => self.error(format!(
                    "char->integer: expected char, got {}",
                    other.type_name()
                )),
            },
            IntegerToChar => {
                let n = self.as_int(vals[0], "integer->char")?;
                match u32::try_from(n).ok().and_then(char::from_u32) {
                    Some(c) => Ok(Value::Char(c)),
                    None => self.error("integer->char: bad code point"),
                }
            }
            CharEqP | CharLtP => match (vals[0], vals[1]) {
                (Value::Char(a), Value::Char(b)) => {
                    Ok(Value::Bool(if p == CharEqP { a == b } else { a < b }))
                }
                _ => self.error("char comparison: expected chars"),
            },
            Display => {
                let s = self.render(vals[0], false);
                self.emit(&s);
                Ok(Value::Unspec)
            }
            Write => {
                let s = self.render(vals[0], true);
                self.emit(&s);
                Ok(Value::Unspec)
            }
            Newline => {
                self.emit("\n");
                Ok(Value::Unspec)
            }
            ErrorOp => {
                let mut msg = String::from("error:");
                for &v in vals {
                    msg.push(' ');
                    msg.push_str(&self.render(v, false));
                }
                self.error(msg)
            }
            Random => {
                let n = self.as_int(vals[0], "random")?;
                if n <= 0 {
                    return self.error("random: bound must be positive");
                }
                self.rng = self
                    .rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Ok(Value::Int(((self.rng >> 33) % n as u64) as i64))
            }
        }
    }

    fn round_like(&self, v: Value, f: impl Fn(f64) -> f64) -> Result<Value, VmError> {
        match v {
            Value::Int(n) => Ok(Value::Int(n)),
            Value::Float(x) => Ok(Value::Float(f(x))),
            other => self.error(format!("expected number, got {}", other.type_name())),
        }
    }

    fn emit(&mut self, s: &str) {
        if self.output.len() + s.len() <= self.max_output {
            self.output.push_str(s);
        }
    }

    /// `eqv?`: identity on heap objects, value equality on immediates.
    pub(crate) fn eqv(&self, a: Value, b: Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x == y,
            _ => a == b,
        }
    }

    /// `equal?`: structural, with a depth guard against cycles.
    pub(crate) fn equal(&self, a: Value, b: Value, depth: usize) -> Result<bool, VmError> {
        if depth > 10_000 {
            return self.error("equal?: structure too deep (or cyclic)");
        }
        Ok(match (a, b) {
            (Value::Pair(x), Value::Pair(y)) => {
                let (xa, xd) = (&self.pairs[x.0 as usize].0, &self.pairs[x.0 as usize].1);
                let (ya, yd) = (&self.pairs[y.0 as usize].0, &self.pairs[y.0 as usize].1);
                self.equal(xa.get(), ya.get(), depth + 1)?
                    && self.equal(xd.get(), yd.get(), depth + 1)?
            }
            (Value::Vector(x), Value::Vector(y)) => {
                let (xs, ys) = (&self.vectors[x.0 as usize], &self.vectors[y.0 as usize]);
                if xs.len() != ys.len() {
                    return Ok(false);
                }
                for (xe, ye) in xs.iter().zip(ys) {
                    if !self.equal(xe.get(), ye.get(), depth + 1)? {
                        return Ok(false);
                    }
                }
                true
            }
            (Value::Str(x), Value::Str(y)) => {
                self.strings[x.0 as usize] == self.strings[y.0 as usize]
            }
            _ => self.eqv(a, b),
        })
    }

    /// Renders a value; `write_style` quotes strings and characters.
    pub(crate) fn render(&self, v: Value, write_style: bool) -> String {
        let mut out = String::new();
        self.render_into(v, write_style, &mut out, 0);
        out
    }

    fn render_into(&self, v: Value, w: bool, out: &mut String, depth: usize) {
        if depth > 64 || out.len() > 65_536 {
            out.push_str("...");
            return;
        }
        match v {
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(x) => out.push_str(&format_float(x)),
            Value::Bool(true) => out.push_str("#t"),
            Value::Bool(false) => out.push_str("#f"),
            Value::Char(c) if w => out.push_str(&format!("#\\{c}")),
            Value::Char(c) => out.push(c),
            Value::Sym(s) => out.push_str(self.program.interner().name(s)),
            Value::Str(id) if w => out.push_str(&format!("{:?}", self.strings[id.0 as usize])),
            Value::Str(id) => out.push_str(&self.strings[id.0 as usize]),
            Value::Nil => out.push_str("()"),
            Value::Unspec => out.push_str("#!unspecified"),
            Value::Closure(_) => out.push_str("#<procedure>"),
            Value::Vector(id) => {
                out.push_str("#(");
                for (i, e) in self.vectors[id.0 as usize].iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    if i > 256 {
                        out.push_str("...");
                        break;
                    }
                    self.render_into(e.get(), w, out, depth + 1);
                }
                out.push(')');
            }
            Value::Pair(_) => {
                out.push('(');
                let mut cur = v;
                let mut count = 0;
                loop {
                    match cur {
                        Value::Pair(id) => {
                            if count > 0 {
                                out.push(' ');
                            }
                            if count > 4096 {
                                out.push_str("...");
                                break;
                            }
                            let (car, cdr) = &self.pairs[id.0 as usize];
                            self.render_into(car.get(), w, out, depth + 1);
                            cur = cdr.get();
                            count += 1;
                        }
                        Value::Nil => break,
                        other => {
                            out.push_str(" . ");
                            self.render_into(other, w, out, depth + 1);
                            break;
                        }
                    }
                }
                out.push(')');
            }
        }
    }

    fn intern_symbol(&mut self, _name: &str) -> fdi_lang::Sym {
        // The program interner is immutable at run time; dynamic symbols get
        // a reserved bucket. string->symbol of statically-known names works;
        // novel names map to a fresh synthetic symbol.
        // (No benchmark creates novel symbols dynamically.)
        match self.program.interner().get(_name) {
            Some(s) => s,
            None => fdi_lang::Sym(u32::MAX),
        }
    }
}

fn format_float(x: f64) -> String {
    if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}
