//! Program intermediate representation for nAdroid-rs.
//!
//! nAdroid analyzes Dalvik bytecode lifted to Jimple through Soot. This
//! crate is the equivalent substrate for the Rust reproduction: a compact,
//! three-address IR carrying exactly the information the analyses consume —
//!
//! - field **uses** ([`Op::Load`], i.e. `getfield`) and **frees**
//!   ([`Op::StoreNull`], i.e. `putfield null`);
//! - heap allocation sites ([`Op::New`]) for the points-to abstraction;
//! - Android framework interactions as explicit intrinsics
//!   ([`AndroidOp`]): posting, binding, registering, spawning, cancelling;
//! - structured control flow ([`Stmt::If`] with null-check conditions,
//!   [`Stmt::Sync`], [`Stmt::Loop`]) so the if-guard / intra-allocation /
//!   lockset analyses are direct.
//!
//! Programs are built programmatically with [`ProgramBuilder`] or parsed
//! from a textual DSL with [`parse_program`]; [`print_program`] renders
//! the canonical form back (the two round-trip).
//!
//! # Example
//!
//! ```
//! use nadroid_ir::parse_program;
//!
//! let app = parse_program(
//!     r#"
//!     app ConnectBotMini
//!     activity Console {
//!         field bound: Console
//!         cb onServiceConnected    { bound = new Console }
//!         cb onServiceDisconnected { bound = null }
//!         cb onCreateContextMenu   { use bound }
//!     }
//!     "#,
//! )?;
//! assert_eq!(app.classes().count(), 1);
//! let printed = nadroid_ir::print_program(&app);
//! let reparsed = nadroid_ir::parse_program(&printed)?;
//! assert_eq!(app, reparsed);
//! # Ok::<(), nadroid_ir::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod fnv;
mod ids;
mod instr;
mod parse;
mod program;

pub mod print;
pub mod walk;

pub use builder::{MethodBuilder, ProgramBuilder};
pub use fnv::Fnv64;
pub use ids::{ClassId, FieldId, InstrId, Local, MethodId};
pub use instr::{AndroidOp, Block, Callee, Cond, Instr, Op, Stmt};
pub use parse::{parse_program, ParseError};
pub use print::print_program;
pub use program::{Class, Field, Manifest, Method, Program, OUTER_FIELD};
