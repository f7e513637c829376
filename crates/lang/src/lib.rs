//! The core labeled language of *Flow-directed Inlining* (PLDI 1996), §3.1.
//!
//! This crate provides:
//!
//! * an arena-based abstract syntax tree ([`Program`], [`ExprKind`]) in which
//!   every expression carries a unique [`Label`] and every binding a unique
//!   [`VarId`] — the two name spaces the flow analysis is keyed on;
//! * a macro expander ([`expand_program`]) from the R4RS-like
//!   surface syntax (`define`, `cond`, `case`, `let*`, named `let`, `do`,
//!   `and`, `or`, `quote`, …) into the core forms of the paper's Fig. 4
//!   grammar;
//! * a lowering pass ([`lower_program`]) performing
//!   scope resolution and α-renaming, with a tree-shaken Scheme prelude of
//!   library procedures (`map`, `assq`, `append`, …) prepended exactly as the
//!   paper prepends "necessary library procedures" to its benchmarks;
//! * free-variable computation, the size metric driving the `Inline?`
//!   threshold predicate, an unparser back to S-expressions, and a
//!   well-formedness validator used to check transformation outputs.
//!
//! # Examples
//!
//! ```
//! use fdi_lang::parse_and_lower;
//!
//! let program = parse_and_lower("(define (id x) x) (id 42)").unwrap();
//! assert!(program.size() > 0);
//! ```

mod ast;
mod consts;
mod error;
mod expand;
mod fv;
mod intern;
mod lower;
mod prelude;
mod prims;
mod size;
mod unparse;
mod validate;

pub use ast::{map_expr_refs, Binder, ExprKind, Label, LambdaInfo, Program, VarId, VarInfo};
pub use consts::Const;
pub use error::FrontendError;
pub use expand::{expand_expr_standalone, expand_program, ExpandError};
pub use fv::{free_vars_of_lambda, FreeVars};
pub use intern::{Interner, Sym};
pub use lower::{lower_program, LowerError};
pub use prelude::{with_prelude, PRELUDE};
pub use prims::{ArgKind, PrimOp, PrimSig};
pub use size::{expr_size, node_size};
pub use unparse::{unparse, unparse_expr};
pub use validate::{validate, ValidateError};

/// Parses, expands, and lowers a surface program in one step.
///
/// This is the front end used throughout the workspace: reader → macro
/// expander → prelude injection → α-renaming/labeling.
///
/// # Errors
///
/// Returns a typed [`FrontendError`] when the reader, expander, or lowerer
/// rejects the program.
///
/// # Examples
///
/// ```
/// let p = fdi_lang::parse_and_lower("(let ((x 1)) (+ x x))").unwrap();
/// assert!(fdi_lang::validate(&p).is_ok());
/// ```
pub fn parse_and_lower(src: &str) -> Result<Program, FrontendError> {
    PARSE_COUNT.with(|c| c.set(c.get() + 1));
    let data = fdi_sexpr::parse(src)?;
    let data = with_prelude(&data);
    let core = expand_program(&data)?;
    let program = lower_program(&core)?;
    debug_assert!(
        validate(&program).is_ok(),
        "lowering produced ill-formed AST: {:?}",
        validate(&program)
    );
    Ok(program)
}

thread_local! {
    static PARSE_COUNT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of [`parse_and_lower`] runs performed **by this thread** since it
/// started.
///
/// A diagnostics counter for reuse-regression tests: code that should parse
/// a source once and reuse the lowered program (threshold sweeps, fixpoint
/// iteration, the batch engine's artifact cache) asserts the delta across a
/// call. Thread-local on purpose — concurrent tests and worker pools don't
/// pollute each other's counts.
///
/// # Examples
///
/// ```
/// let before = fdi_lang::parse_count();
/// fdi_lang::parse_and_lower("(+ 1 2)").unwrap();
/// assert_eq!(fdi_lang::parse_count() - before, 1);
/// ```
pub fn parse_count() -> u64 {
    PARSE_COUNT.with(std::cell::Cell::get)
}
