//! Parser for the textual application DSL.
//!
//! The DSL has two layers that may be mixed freely:
//!
//! - the **canonical** instruction syntax emitted by
//!   [`crate::print_program`] (`t3 = load this Main.svc`, `free this
//!   Main.svc`, ...), and
//! - **sugar** statements for hand-written fixtures (`svc = new Service`,
//!   `use svc`, `if svc != null { ... }`, `post Worker`, ...), which lower
//!   to the same instructions [`crate::MethodBuilder`]'s helpers emit.
//!
//! Parsing runs in three stages, each paying per token rather than per
//! heap object:
//!
//! 1. **Lex** the whole text into 12-byte tokens: a kind, the byte offset
//!    of the token's first byte, and an identifier's length or an
//!    integer's value. Names stay in the text; the parser slices them out
//!    where it keeps them, and decides on kinds (and, for keywords, on
//!    bytes) everywhere else.
//! 2. **Parse** every token into one flat AST. All of a program's
//!    statements sit in pre-order in one arena: an `if`, `loop` or `sync`
//!    records how many nodes its nested blocks hold, a call's arguments
//!    are a range of one shared list of locals, and a class's fields and
//!    methods are ranges of two program-wide lists. The whole text is
//!    parsed before any name is resolved, so every syntax error comes
//!    before any name error.
//! 3. **Resolve** names while lowering the AST into a [`Program`]:
//!    classes, fields and method declarations are collected first, so
//!    each may be referenced before its declaration. Lowering walks
//!    slices of the arena and sizes the vectors it fills from the AST.
//!
//! Tokens, statements and declarations carry byte offsets, not lines. An
//! error blames one offset, and [`parse_program`] turns it into a line on
//! the error path only: 1 plus the `\n` bytes before it. An error at the
//! end of the input blames the last token; one that blames no offset (the
//! text holds no token, or a manifest entry names an unknown class) is at
//! line 0.

use crate::builder::{MethodBuilder, ProgramBuilder};
use crate::ids::{ClassId, FieldId, Local, MethodId};
use crate::instr::{AndroidOp, Cond};
use crate::program::{Program, OUTER_FIELD};
use nadroid_android::listeners::RegistrationApi;
use nadroid_android::{CallbackKind, ClassRole};
use nadroid_obs as obs;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Error produced when the DSL text is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    line: u32,
    msg: String,
}

impl ParseError {
    /// The 1-based source line of the error.
    #[must_use]
    pub fn line(&self) -> u32 {
        self.line
    }

    /// The error message.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// An error before it has a line: the byte offset it blames, or `None`
/// for line 0.
#[derive(Debug)]
struct Fault {
    at: Option<u32>,
    msg: String,
}

fn fault(at: impl Into<Option<u32>>, msg: impl Into<String>) -> Fault {
    Fault {
        at: at.into(),
        msg: msg.into(),
    }
}

impl Fault {
    /// The public error: the offset becomes 1 plus the `\n` bytes before
    /// it.
    fn into_error(self, src: &str) -> ParseError {
        let line = self.at.map_or(0, |at| {
            let newlines = src.as_bytes()[..at as usize]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            // At most `u32::MAX` bytes precede a `u32` offset.
            1 + newlines as u32
        });
        ParseError {
            line,
            msg: self.msg,
        }
    }
}

type Result<T> = std::result::Result<T, Fault>;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ident,
    Int,
    LBrace,
    RBrace,
    LParen,
    RParen,
    Eq,
    EqEq,
    NotEq,
    Colon,
    Dot,
    Comma,
    Question,
}

impl Kind {
    /// The text of a punctuation token.
    fn text(self) -> &'static str {
        match self {
            Kind::Ident => "identifier",
            Kind::Int => "integer",
            Kind::LBrace => "{",
            Kind::RBrace => "}",
            Kind::LParen => "(",
            Kind::RParen => ")",
            Kind::Eq => "=",
            Kind::EqEq => "==",
            Kind::NotEq => "!=",
            Kind::Colon => ":",
            Kind::Dot => ".",
            Kind::Comma => ",",
            Kind::Question => "?",
        }
    }
}

/// One token in 12 bytes. Offsets fit `u32` because [`parse_program`]
/// rejects longer texts before lexing.
#[derive(Debug, Clone, Copy)]
struct Token {
    kind: Kind,
    /// The byte offset of the token's first byte.
    at: u32,
    /// An identifier's length in bytes, or an integer's value.
    val: u32,
}

/// ASCII whitespace: the ASCII part of `char::is_whitespace`.
fn is_blank(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | 0x0b | 0x0c | b'\r' | b' ')
}

/// An ASCII byte that continues an identifier: a letter, a digit, `_` or
/// `$`, the ASCII part of the identifier rules.
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'$'
}

/// The `char` that starts at byte `i`, a non-ASCII one.
fn char_at(src: &str, i: usize) -> char {
    src[i..]
        .chars()
        .next()
        .expect("lexing stops on char boundaries")
}

/// The end of the identifier that continues at byte `i`: letters, digits,
/// `_` and `$` continue it. Runs of ASCII bytes are consumed by direct
/// byte tests; a `char` is decoded only at a non-ASCII byte.
fn ident_end(src: &str, mut i: usize) -> usize {
    let bytes = src.as_bytes();
    loop {
        while bytes.get(i).copied().is_some_and(is_ident_byte) {
            i += 1;
        }
        match bytes.get(i) {
            Some(b) if !b.is_ascii() => {
                let c = char_at(src, i);
                if !c.is_alphanumeric() {
                    return i;
                }
                i += c.len_utf8();
            }
            _ => return i,
        }
    }
}

/// Offsets are `u32`, so a text may hold at most `u32::MAX` bytes.
fn check_len(len: usize) -> Result<()> {
    if u32::try_from(len).is_ok() {
        Ok(())
    } else {
        Err(fault(
            None,
            format!(
                "input of {len} bytes is too large (at most {} bytes)",
                u32::MAX
            ),
        ))
    }
}

/// Split the source into tokens, each written once. A run of ASCII
/// blanks is skipped before a token's first byte is dispatched, a run of
/// ASCII identifier bytes is consumed by direct byte tests, and a `char`
/// is decoded only at a non-ASCII byte, so Unicode letters and digits
/// continue identifiers and Unicode whitespace separates tokens.
fn lex(src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut toks = Vec::with_capacity(src.len() / 4);
    let mut i = 0;
    loop {
        while bytes.get(i).copied().is_some_and(is_blank) {
            i += 1;
        }
        let Some(&b) = bytes.get(i) else {
            return Ok(toks);
        };
        // `check_len` bounds every offset and length by `u32::MAX`.
        let at = i as u32;
        let (kind, len, val) = match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => {
                let len = ident_end(src, i + 1) - i;
                (Kind::Ident, len, len as u32)
            }
            b'0'..=b'9' => {
                let len = bytes[i..].iter().take_while(|d| d.is_ascii_digit()).count();
                let n = bytes[i..i + len]
                    .iter()
                    .try_fold(0u32, |n, d| {
                        n.checked_mul(10)?.checked_add(u32::from(d - b'0'))
                    })
                    .ok_or_else(|| fault(at, "integer literal too large"))?;
                (Kind::Int, len, n)
            }
            0x80..=0xff => {
                let c = char_at(src, i);
                if c.is_whitespace() {
                    i += c.len_utf8();
                    continue;
                }
                if !c.is_alphabetic() {
                    return Err(fault(at, format!("unexpected character {c:?}")));
                }
                let len = ident_end(src, i + c.len_utf8()) - i;
                (Kind::Ident, len, len as u32)
            }
            _ => {
                let next = bytes.get(i + 1).copied();
                let kind = match b {
                    b'/' if next == Some(b'/') => {
                        i = bytes[i..]
                            .iter()
                            .position(|&c| c == b'\n')
                            .map_or(bytes.len(), |n| i + n);
                        continue;
                    }
                    b'/' => return Err(fault(at, "unexpected `/` (use `//` for comments)")),
                    b'{' => Kind::LBrace,
                    b'}' => Kind::RBrace,
                    b'(' => Kind::LParen,
                    b')' => Kind::RParen,
                    b':' => Kind::Colon,
                    b'.' => Kind::Dot,
                    b',' => Kind::Comma,
                    b'?' => Kind::Question,
                    b'=' if next == Some(b'=') => Kind::EqEq,
                    b'=' => Kind::Eq,
                    b'!' if next == Some(b'=') => Kind::NotEq,
                    b'!' => return Err(fault(at, "unexpected `!`")),
                    _ => {
                        let c = char::from(b);
                        return Err(fault(at, format!("unexpected character {c:?}")));
                    }
                };
                (kind, kind.text().len(), 0)
            }
        };
        toks.push(Token { kind, at, val });
        i += len;
    }
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// A parsed program; every name borrows from the source text. Fields,
/// methods, statements and call arguments each sit in one program-wide
/// vector, in source order.
#[derive(Debug, Default)]
struct Ast<'a> {
    name: &'a str,
    classes: Vec<AstClass<'a>>,
    /// Every class's fields, class by class: `(name, type)`.
    fields: Vec<(&'a str, Option<&'a str>)>,
    /// Every class's methods, class by class.
    methods: Vec<AstMethod<'a>>,
    /// Every method body, method by method, each in pre-order.
    stmts: Vec<Node<'a>>,
    /// Every call's argument locals, call by call.
    args: Vec<Local>,
    main_activity: Option<&'a str>,
    receivers: Vec<&'a str>,
}

#[derive(Debug)]
struct AstClass<'a> {
    role: ClassRole,
    name: &'a str,
    outer: Option<&'a str>,
    looper: Option<&'a str>,
    /// The class's range of [`Ast::fields`].
    fields: Range<usize>,
    /// The class's range of [`Ast::methods`].
    methods: Range<usize>,
    at: u32,
}

#[derive(Debug)]
struct AstMethod<'a> {
    is_cb: bool,
    name: &'a str,
    params: u16,
    locals: Option<u16>,
    /// The body's range of [`Ast::stmts`].
    body: Range<usize>,
    /// The number of top-level statements in the body.
    top: usize,
    at: u32,
}

/// A statement and the byte offset of its first token.
type Node<'a> = (u32, AstStmt<'a>);

/// A reference to a field from statement position.
#[derive(Debug, Clone, Copy)]
enum Path<'a> {
    /// Bare name: a field of the enclosing class, via `this`.
    This(&'a str),
    /// `outer.f`: a field of the lexically enclosing class, via `$outer`.
    Outer(&'a str),
    /// `Class.f`: a field of a component class, via its static instance.
    Static(&'a str, &'a str),
}

#[derive(Debug, Clone, Copy)]
enum Rhs<'a> {
    New(&'a str),
    Null,
    Call(&'a str),
    Path(Path<'a>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UseMode {
    Deref,
    Ret,
    Arg,
}

#[derive(Debug, Clone, Copy)]
enum Operand<'a> {
    Local(Local),
    Class(&'a str),
    Field(&'a str),
}

#[derive(Debug)]
enum AstStmt<'a> {
    // Canonical three-address forms.
    CNew {
        dst: Local,
        class: &'a str,
    },
    CStatic {
        dst: Local,
        class: &'a str,
    },
    CLoad {
        dst: Local,
        base: Local,
        class: &'a str,
        field: &'a str,
    },
    CStore {
        base: Local,
        class: &'a str,
        field: &'a str,
        src: Local,
    },
    CFree {
        base: Local,
        class: &'a str,
        field: &'a str,
    },
    CMove {
        dst: Local,
        src: Local,
    },
    CNull {
        dst: Local,
    },
    CCall {
        dst: Option<Local>,
        target: Option<(&'a str, &'a str)>,
        recv: Option<Local>,
        /// The call's range of [`Ast::args`].
        args: Range<usize>,
    },
    CReturn {
        val: Option<Local>,
    },
    CAndroid {
        op: &'static str,
        operand: Option<Operand<'a>>,
        api: Option<RegistrationApi>,
    },
    // Sugar forms.
    SAssign {
        path: Path<'a>,
        rhs: Rhs<'a>,
    },
    SUse {
        path: Path<'a>,
        mode: UseMode,
    },
    SCall {
        name: &'a str,
    },
    // Structured statements: the nested blocks' nodes follow the
    // statement's own node, the then-block before the else-block.
    If {
        cond: AstCond<'a>,
        then_len: u32,
        else_len: u32,
    },
    Loop {
        len: u32,
    },
    Sync {
        lock: Operand<'a>,
        len: u32,
    },
}

#[derive(Debug, Clone, Copy)]
enum AstCond<'a> {
    Canon {
        non_null: bool,
        base: Local,
        class: &'a str,
        field: &'a str,
    },
    Sugar {
        non_null: bool,
        path: Path<'a>,
    },
    Opaque,
}

// ---------------------------------------------------------------------------
// Parser (tokens -> AST)
// ---------------------------------------------------------------------------

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Token>,
    pos: usize,
    ast: Ast<'a>,
}

/// The local a name denotes: `this`, or `tN` for any digits `N`. A method
/// has at most `u16::MAX` slots, so `N` must stay below it.
fn local_of(name: &str, at: u32) -> Result<Option<Local>> {
    if name == "this" {
        return Ok(Some(Local::THIS));
    }
    let Some(rest) = name.strip_prefix('t') else {
        return Ok(None);
    };
    if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return Ok(None);
    }
    match rest.parse::<u16>() {
        Ok(n) if n < u16::MAX => Ok(Some(Local(n))),
        _ => Err(fault(at, "too many locals")),
    }
}

impl<'a> Parser<'a> {
    /// The name an identifier token spells.
    fn text(&self, t: Token) -> &'a str {
        let start = t.at as usize;
        &self.src[start..start + t.val as usize]
    }

    /// A token as messages show it.
    fn shown(&self, t: Token) -> String {
        match t.kind {
            Kind::Ident => format!("`{}`", self.text(t)),
            Kind::Int => format!("`{}`", t.val),
            k => format!("`{}`", k.text()),
        }
    }

    fn peek_kind(&self) -> Option<Kind> {
        self.toks.get(self.pos).map(|t| t.kind)
    }

    /// The offset an error here blames: the current token's, or the last
    /// token's at the end of the input, or none when there is no token.
    fn here(&self) -> Option<u32> {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|t| t.at)
    }

    fn next(&mut self) -> Result<Token> {
        let t = *self
            .toks
            .get(self.pos)
            .ok_or_else(|| fault(self.here(), "unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: Kind) -> Result<()> {
        let got = self.next()?;
        if got.kind == want {
            Ok(())
        } else {
            Err(fault(
                got.at,
                format!("expected `{}`, found {}", want.text(), self.shown(got)),
            ))
        }
    }

    /// The next identifier and its offset.
    fn ident_at(&mut self) -> Result<(u32, &'a str)> {
        let t = self.next()?;
        if t.kind == Kind::Ident {
            Ok((t.at, self.text(t)))
        } else {
            Err(fault(
                t.at,
                format!("expected identifier, found {}", self.shown(t)),
            ))
        }
    }

    fn ident(&mut self) -> Result<&'a str> {
        self.ident_at().map(|(_, s)| s)
    }

    fn int(&mut self) -> Result<u32> {
        let t = self.next()?;
        if t.kind == Kind::Int {
            Ok(t.val)
        } else {
            Err(fault(
                t.at,
                format!("expected integer, found {}", self.shown(t)),
            ))
        }
    }

    /// Consume the keyword `kw` if it comes next, comparing bytes.
    fn eat_ident(&mut self, kw: &str) -> bool {
        let hit = self.toks.get(self.pos).is_some_and(|t| {
            t.kind == Kind::Ident
                && t.val as usize == kw.len()
                && self.src.as_bytes()[t.at as usize..].starts_with(kw.as_bytes())
        });
        self.pos += usize::from(hit);
        hit
    }

    fn eat(&mut self, k: Kind) -> bool {
        let hit = self.peek_kind() == Some(k);
        self.pos += usize::from(hit);
        hit
    }

    /// The whole program: every token after `app <Name>` must begin a
    /// class or the manifest, so nothing trails it.
    fn program(mut self) -> Result<Ast<'a>> {
        if !self.eat_ident("app") {
            return Err(fault(self.here(), "program must start with `app <Name>`"));
        }
        self.ast.name = self.ident()?;
        while let Some(&t) = self.toks.get(self.pos) {
            if t.kind != Kind::Ident {
                return Err(fault(
                    t.at,
                    format!("expected class or manifest, found {}", self.shown(t)),
                ));
            }
            let kw = self.text(t);
            self.pos += 1;
            if kw == "manifest" {
                self.expect(Kind::LBrace)?;
                while !self.eat(Kind::RBrace) {
                    let (at, entry) = self.ident_at()?;
                    match entry {
                        "main" => self.ast.main_activity = Some(self.ident()?),
                        "receiver" => {
                            let r = self.ident()?;
                            self.ast.receivers.push(r);
                        }
                        other => {
                            return Err(fault(at, format!("unknown manifest entry `{other}`")))
                        }
                    }
                }
            } else if let Some(role) = ClassRole::from_keyword(kw) {
                self.class(role, t.at)?;
            } else {
                return Err(fault(t.at, format!("unknown declaration keyword `{kw}`")));
            }
        }
        Ok(self.ast)
    }

    fn class(&mut self, role: ClassRole, at: u32) -> Result<()> {
        let name = self.ident()?;
        let outer = if self.eat_ident("in") {
            Some(self.ident()?)
        } else {
            None
        };
        let looper = if self.eat_ident("on") {
            Some(self.ident()?)
        } else {
            None
        };
        self.expect(Kind::LBrace)?;
        let (fields, methods) = (self.ast.fields.len(), self.ast.methods.len());
        while !self.eat(Kind::RBrace) {
            let (m_at, member) = self.ident_at()?;
            match member {
                "field" => {
                    let fname = self.ident()?;
                    let ty = if self.eat(Kind::Colon) {
                        Some(self.ident()?)
                    } else {
                        None
                    };
                    self.ast.fields.push((fname, ty));
                }
                kw @ ("cb" | "fn") => {
                    let name = self.ident()?;
                    self.method(kw == "cb", name, m_at)?;
                }
                other => {
                    // Bare callback-name sugar: `onCreate { ... }`.
                    let is_cb = CallbackKind::from_method_name(other, role).is_some();
                    if is_cb || matches!(self.peek_kind(), Some(Kind::LBrace | Kind::LParen)) {
                        self.method(is_cb, other, m_at)?;
                    } else {
                        return Err(fault(
                            m_at,
                            format!("unknown class member `{other}` (expected field/cb/fn)"),
                        ));
                    }
                }
            }
        }
        self.ast.classes.push(AstClass {
            role,
            name,
            outer,
            looper,
            fields: fields..self.ast.fields.len(),
            methods: methods..self.ast.methods.len(),
            at,
        });
        Ok(())
    }

    fn method(&mut self, is_cb: bool, name: &'a str, at: u32) -> Result<()> {
        let mut params = 0u16;
        let mut locals = None;
        if self.eat(Kind::LParen) {
            while !self.eat(Kind::RParen) {
                let (a_at, kw) = self.ident_at()?;
                self.expect(Kind::Eq)?;
                let n = self.int()?;
                match kw {
                    "params" => {
                        // `this` takes a slot too, so at most u16::MAX - 1.
                        params = u16::try_from(n)
                            .ok()
                            .filter(|&n| n < u16::MAX)
                            .ok_or_else(|| fault(a_at, "too many parameters"))?;
                    }
                    "locals" => {
                        locals =
                            Some(u16::try_from(n).map_err(|_| fault(a_at, "too many locals"))?);
                    }
                    other => {
                        return Err(fault(a_at, format!("unknown method attribute `{other}`")))
                    }
                }
                let _ = self.eat(Kind::Comma);
            }
        }
        self.expect(Kind::LBrace)?;
        let start = self.ast.stmts.len();
        let top = self.block()?;
        self.ast.methods.push(AstMethod {
            is_cb,
            name,
            params,
            locals,
            body: start..self.ast.stmts.len(),
            top,
            at,
        });
        Ok(())
    }

    /// The statements up to the closing `}` (the `{` is consumed), pushed
    /// to the arena; returns how many are at this block's top level.
    fn block(&mut self) -> Result<usize> {
        let mut top = 0;
        while !self.eat(Kind::RBrace) {
            self.stmt()?;
            top += 1;
        }
        Ok(top)
    }

    /// A nested block whose `{` is consumed: the number of nodes it adds.
    fn nested(&mut self) -> Result<u32> {
        let start = self.ast.stmts.len();
        self.block()?;
        // Fewer nodes than tokens, and tokens have `u32` offsets.
        Ok((self.ast.stmts.len() - start) as u32)
    }

    fn local(&mut self) -> Result<Local> {
        let (at, id) = self.ident_at()?;
        local_of(id, at)?
            .ok_or_else(|| fault(at, format!("expected local (`this`/`tN`), found `{id}`")))
    }

    /// Parse `Class.field` (canonical qualified field).
    fn qfield(&mut self) -> Result<(&'a str, &'a str)> {
        let class = self.ident()?;
        self.expect(Kind::Dot)?;
        let field = self.ident()?;
        Ok((class, field))
    }

    /// Parse a sugar field path starting from an already-consumed ident.
    fn path_from(&mut self, first: &'a str) -> Result<Path<'a>> {
        if self.eat(Kind::Dot) {
            let field = self.ident()?;
            if first == "outer" {
                Ok(Path::Outer(field))
            } else {
                Ok(Path::Static(first, field))
            }
        } else {
            Ok(Path::This(first))
        }
    }

    /// Parse an operand that is either a local, or a class/field name.
    fn operand(&mut self) -> Result<Operand<'a>> {
        let (at, id) = self.ident_at()?;
        Ok(match local_of(id, at)? {
            Some(l) => Operand::Local(l),
            None => {
                if id.chars().next().is_some_and(char::is_uppercase) {
                    Operand::Class(id)
                } else {
                    Operand::Field(id)
                }
            }
        })
    }

    fn android_stmt(&mut self, op: &'static str, takes_operand: bool) -> Result<AstStmt<'a>> {
        let operand = if takes_operand {
            Some(self.operand()?)
        } else {
            None
        };
        Ok(AstStmt::CAndroid {
            op,
            operand,
            api: None,
        })
    }

    /// One statement, pushed to the arena with the nodes of its nested
    /// blocks after it.
    fn stmt(&mut self) -> Result<()> {
        let (at, first) = self.ident_at()?;
        // Canonical `tN = ...`, the printed form's commonest statement, is
        // told apart before any keyword (no keyword names a local).
        if let Some(dst) = local_of(first, at)? {
            self.expect(Kind::Eq)?;
            let stmt = self.canon_rhs(dst, at)?;
            self.ast.stmts.push((at, stmt));
            return Ok(());
        }
        let stmt = match first {
            "store" => {
                let base = self.local()?;
                let (class, field) = self.qfield()?;
                self.expect(Kind::Eq)?;
                let src = self.local()?;
                AstStmt::CStore {
                    base,
                    class,
                    field,
                    src,
                }
            }
            "free" => {
                let base = self.local()?;
                let (class, field) = self.qfield()?;
                AstStmt::CFree { base, class, field }
            }
            "return" => {
                // `return` may be followed by a local, or by nothing.
                let mut val = None;
                if let Some(&t) = self.toks.get(self.pos) {
                    if t.kind == Kind::Ident {
                        val = local_of(self.text(t), t.at)?;
                        self.pos += usize::from(val.is_some());
                    }
                }
                AstStmt::CReturn { val }
            }
            "call" => self.call_stmt(None)?,
            "use" | "useret" | "usearg" => {
                let id = self.ident()?;
                let path = self.path_from(id)?;
                let mode = match first {
                    "use" => UseMode::Deref,
                    "useret" => UseMode::Ret,
                    _ => UseMode::Arg,
                };
                AstStmt::SUse { path, mode }
            }
            "post" => self.android_stmt("post", true)?,
            "send" => self.android_stmt("send", true)?,
            "execute" => self.android_stmt("execute", true)?,
            "start" | "spawn" => self.android_stmt("start", true)?,
            "bindservice" | "bind" => self.android_stmt("bind", true)?,
            "unbindservice" | "unbind" => self.android_stmt("unbind", true)?,
            "registerreceiver" | "register" => self.android_stmt("register", true)?,
            "unregisterreceiver" | "unregister" => self.android_stmt("unregister", true)?,
            "removeposts" => self.android_stmt("removeposts", true)?,
            "acquire" => self.android_stmt("acquire", true)?,
            "release" => self.android_stmt("release", true)?,
            "show" => self.android_stmt("show", true)?,
            "dismiss" => self.android_stmt("dismiss", true)?,
            "schedule" => self.android_stmt("schedule", true)?,
            "cancelalarm" => self.android_stmt("cancelalarm", true)?,
            "startactivity" | "launch" => self.android_stmt("startactivity", true)?,
            "publish" => self.android_stmt("publish", false)?,
            "finish" => self.android_stmt("finish", false)?,
            "listen" => {
                let (api_at, api_name) = self.ident_at()?;
                let api = RegistrationApi::from_method_name(api_name).ok_or_else(|| {
                    fault(
                        api_at,
                        format!("unknown listener-registration API `{api_name}`"),
                    )
                })?;
                let operand = Some(self.operand()?);
                AstStmt::CAndroid {
                    op: "listen",
                    operand,
                    api: Some(api),
                }
            }
            "if" => return self.if_stmt(at),
            "loop" => {
                self.expect(Kind::LBrace)?;
                let k = self.open(at, AstStmt::Loop { len: 0 });
                let len = self.nested()?;
                self.ast.stmts[k].1 = AstStmt::Loop { len };
                return Ok(());
            }
            "sync" => {
                let lock = self.operand()?;
                self.expect(Kind::LBrace)?;
                let k = self.open(at, AstStmt::Sync { lock, len: 0 });
                let len = self.nested()?;
                self.ast.stmts[k].1 = AstStmt::Sync { lock, len };
                return Ok(());
            }
            _ => {
                // Sugar assignment: `<path> = ...`.
                let path = self.path_from(first)?;
                self.expect(Kind::Eq)?;
                let (r_at, r) = self.ident_at()?;
                let rhs = match r {
                    "new" => Rhs::New(self.ident()?),
                    "null" => Rhs::Null,
                    "call" => Rhs::Call(self.ident()?),
                    kw => {
                        if local_of(kw, r_at)?.is_some() {
                            return Err(fault(
                                r_at,
                                "locals cannot be assigned to fields in sugar; use canonical `store`",
                            ));
                        }
                        Rhs::Path(self.path_from(kw)?)
                    }
                };
                AstStmt::SAssign { path, rhs }
            }
        };
        self.ast.stmts.push((at, stmt));
        Ok(())
    }

    /// Push a structured statement before its nested blocks are parsed;
    /// returns its index, so their lengths can be filled in after.
    fn open(&mut self, at: u32, stmt: AstStmt<'a>) -> usize {
        self.ast.stmts.push((at, stmt));
        self.ast.stmts.len() - 1
    }

    fn canon_rhs(&mut self, dst: Local, at: u32) -> Result<AstStmt<'a>> {
        match self.ident()? {
            "new" => Ok(AstStmt::CNew {
                dst,
                class: self.ident()?,
            }),
            "static" => Ok(AstStmt::CStatic {
                dst,
                class: self.ident()?,
            }),
            "load" => {
                let base = self.local()?;
                let (class, field) = self.qfield()?;
                Ok(AstStmt::CLoad {
                    dst,
                    base,
                    class,
                    field,
                })
            }
            "move" => Ok(AstStmt::CMove {
                dst,
                src: self.local()?,
            }),
            "null" => Ok(AstStmt::CNull { dst }),
            "call" => self.call_stmt(Some(dst)),
            other => Err(fault(at, format!("unknown assignment rhs `{other}`"))),
        }
    }

    fn call_stmt(&mut self, dst: Option<Local>) -> Result<AstStmt<'a>> {
        let (at, name) = self.ident_at()?;
        let target = if name == "opaque" {
            None
        } else if self.eat(Kind::Dot) {
            Some((name, self.ident()?))
        } else if self.peek_kind() == Some(Kind::LParen) {
            return Err(fault(
                at,
                "canonical calls need a qualified target (`Class.method`) or `opaque`",
            ));
        } else if dst.is_some() {
            return Err(fault(at, "sugar `call <name>` cannot assign to a local"));
        } else {
            return Ok(AstStmt::SCall { name });
        };
        let (recv, args) = self.call_args()?;
        Ok(AstStmt::CCall {
            dst,
            target,
            recv,
            args,
        })
    }

    /// `(recv=tR, tA, tB)`: the receiver, and the arguments' range of
    /// [`Ast::args`].
    fn call_args(&mut self) -> Result<(Option<Local>, Range<usize>)> {
        self.expect(Kind::LParen)?;
        let start = self.ast.args.len();
        let mut recv = None;
        let mut first = true;
        while !self.eat(Kind::RParen) {
            if !first {
                self.expect(Kind::Comma)?;
            }
            first = false;
            if self.eat_ident("recv") {
                self.expect(Kind::Eq)?;
                recv = Some(self.local()?);
            } else {
                let arg = self.local()?;
                self.ast.args.push(arg);
            }
        }
        Ok((recv, start..self.ast.args.len()))
    }

    fn if_stmt(&mut self, at: u32) -> Result<()> {
        let cond = if self.eat(Kind::Question) {
            AstCond::Opaque
        } else if self.eat_ident("notnull") {
            let base = self.local()?;
            let (class, field) = self.qfield()?;
            AstCond::Canon {
                non_null: true,
                base,
                class,
                field,
            }
        } else if self.eat_ident("isnull") {
            let base = self.local()?;
            let (class, field) = self.qfield()?;
            AstCond::Canon {
                non_null: false,
                base,
                class,
                field,
            }
        } else {
            // Sugar: `if <path> != null` / `if <path> == null`.
            let id = self.ident()?;
            let path = self.path_from(id)?;
            let op = self.next()?;
            let non_null = match op.kind {
                Kind::NotEq => true,
                Kind::EqEq => false,
                _ => {
                    return Err(fault(
                        op.at,
                        format!("expected `!=` or `==`, found {}", self.shown(op)),
                    ))
                }
            };
            if !self.eat_ident("null") {
                return Err(fault(
                    op.at,
                    "null-check conditions must compare against `null`",
                ));
            }
            AstCond::Sugar { non_null, path }
        };
        self.expect(Kind::LBrace)?;
        let k = self.open(
            at,
            AstStmt::If {
                cond,
                then_len: 0,
                else_len: 0,
            },
        );
        let then_len = self.nested()?;
        let else_len = if self.eat_ident("else") {
            self.expect(Kind::LBrace)?;
            self.nested()?
        } else {
            0
        };
        self.ast.stmts[k].1 = AstStmt::If {
            cond,
            then_len,
            else_len,
        };
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Lowering (AST -> Program)
// ---------------------------------------------------------------------------

/// Name resolution tables, keyed by names borrowed from the source.
struct Lowerer<'a> {
    classes: HashMap<&'a str, ClassId>,
    /// (class, field name) -> id, including `$outer` fields.
    fields: HashMap<(ClassId, &'a str), FieldId>,
    methods: HashMap<(ClassId, &'a str), MethodId>,
    /// The lexically enclosing class of each class, by class index.
    outers: Vec<Option<ClassId>>,
}

impl Lowerer<'_> {
    fn field(&self, class: ClassId, name: &str, at: u32) -> Result<FieldId> {
        self.fields
            .get(&(class, name))
            .copied()
            .ok_or_else(|| fault(at, format!("unknown field `{name}`")))
    }

    fn class(&self, name: &str, at: impl Into<Option<u32>>) -> Result<ClassId> {
        self.classes
            .get(name)
            .copied()
            .ok_or_else(|| fault(at, format!("unknown class `{name}`")))
    }

    fn method(&self, class: ClassId, name: &str) -> Option<MethodId> {
        self.methods.get(&(class, name)).copied()
    }
}

/// Parse DSL text into a [`Program`].
///
/// When a recorder is installed on the calling thread, the parse runs in
/// a `parse` span and adds to the `ir.parse_bytes` counter.
///
/// # Errors
///
/// Returns [`ParseError`] with the offending line when the text is
/// lexically or grammatically malformed, names an unknown class, field,
/// or method, or is too long for 32-bit offsets.
pub fn parse_program(src: &str) -> std::result::Result<Program, ParseError> {
    let _span = obs::span("parse");
    obs::counter("ir.parse_bytes", src.len() as u64);
    parse(src).map_err(|f| f.into_error(src))
}

fn parse(src: &str) -> Result<Program> {
    check_len(src.len())?;
    let ast = Parser {
        src,
        toks: lex(src)?,
        pos: 0,
        ast: Ast::default(),
    }
    .program()?;
    lower(&ast)
}

fn lower(ast: &Ast<'_>) -> Result<Program> {
    let helpers = ast
        .classes
        .iter()
        .filter(|c| c.role.is_framework_helper())
        .count();
    let n_fields = ast.fields.len() + helpers;
    let mut b = ProgramBuilder::new(ast.name);
    b.reserve(
        ast.classes.len(),
        n_fields,
        ast.methods.len(),
        ast.stmts.len(),
    );
    let mut lo = Lowerer {
        classes: HashMap::with_capacity(ast.classes.len()),
        fields: HashMap::with_capacity(n_fields),
        methods: HashMap::with_capacity(ast.methods.len()),
        outers: vec![None; ast.classes.len()],
    };

    // Pass 1a: classes (outer links resolved in a second sweep so an inner
    // class may precede its outer).
    let mut ids = Vec::with_capacity(ast.classes.len());
    for c in &ast.classes {
        let Entry::Vacant(slot) = lo.classes.entry(c.name) else {
            return Err(fault(c.at, format!("duplicate class `{}`", c.name)));
        };
        let fields = c.fields.len() + usize::from(c.role.is_framework_helper());
        let id = b.add_unique_class(c.name, c.role, fields, c.methods.len());
        ids.push(*slot.insert(id));
    }
    for (c, &cid) in ast.classes.iter().zip(&ids) {
        if let Some(outer_name) = c.outer {
            let outer = lo.class(outer_name, c.at)?;
            b.set_outer(cid, outer);
            lo.outers[cid.index()] = Some(outer);
        }
        if let Some(looper_name) = c.looper {
            let looper = lo.class(looper_name, c.at)?;
            // Class ids number `ast.classes` in order.
            if ast.classes[looper.index()].role != ClassRole::LooperThread {
                return Err(fault(
                    c.at,
                    format!("`on {looper_name}`: target must be a looperthread class"),
                ));
            }
            b.set_looper(cid, looper);
        }
    }

    // Pass 1b: fields (types may reference any class). Framework-helper
    // classes get their implicit `$outer` back-reference created here, in
    // class order, so field numbering is stable under print/parse
    // round-trips. The table rejects duplicates, so the builder need not.
    for (c, &cid) in ast.classes.iter().zip(&ids) {
        for &(fname, ty) in &ast.fields[c.fields.clone()] {
            let ty = match ty {
                Some(t) => Some(lo.class(t, c.at)?),
                None => None,
            };
            let Entry::Vacant(slot) = lo.fields.entry((cid, fname)) else {
                return Err(fault(c.at, format!("duplicate field `{fname}`")));
            };
            slot.insert(b.add_unique_field(cid, fname.to_owned(), ty));
        }
        if c.role.is_framework_helper() {
            if let Entry::Vacant(slot) = lo.fields.entry((cid, OUTER_FIELD)) {
                slot.insert(b.outer_field(cid));
            }
        }
    }

    // Pass 1c: method declarations (so calls may reference forward).
    let mut mids = Vec::with_capacity(ast.methods.len());
    for (c, &cid) in ast.classes.iter().zip(&ids) {
        for m in &ast.methods[c.methods.clone()] {
            let Entry::Vacant(slot) = lo.methods.entry((cid, m.name)) else {
                return Err(fault(m.at, format!("duplicate method `{}`", m.name)));
            };
            mids.push(*slot.insert(b.declare_unique_method(cid, m.name.to_owned())));
        }
    }

    // Pass 2: method bodies.
    let mut mids = mids.into_iter();
    for (c, &cid) in ast.classes.iter().zip(&ids) {
        for m in &ast.methods[c.methods.clone()] {
            let mid = mids.next().expect("one id per declared method");
            let callback = if m.is_cb {
                Some(
                    CallbackKind::from_method_name(m.name, c.role).ok_or_else(|| {
                        fault(
                            m.at,
                            format!("`{}` is not a known callback for role `{}`", m.name, c.role),
                        )
                    })?,
                )
            } else {
                None
            };
            let mut mb = b.body(mid);
            mb.reserve_stmts(m.top);
            if m.params > 0 {
                mb.params(m.params);
            }
            if let Some(n) = m.locals {
                mb.reserve_locals(n);
            }
            let ctx = BodyCtx {
                class: cid,
                name: c.name,
                lo: &lo,
                args: &ast.args,
            };
            lower_block(&mut mb, &ctx, &ast.stmts[m.body.clone()])?;
            // Sugar statements allocate temporaries past a `locals=N`
            // header, so the limit is checked once the body is lowered.
            if mb.num_locals() > u32::from(u16::MAX) {
                return Err(fault(m.at, "too many locals"));
            }
            match callback {
                Some(k) => mb.finish_callback(k),
                None => mb.finish(),
            };
        }
    }

    // Manifest.
    if let Some(main) = ast.main_activity {
        let id = lo.class(main, None)?;
        b.set_main_activity(id);
    }
    for r in &ast.receivers {
        let id = lo.class(r, None)?;
        b.declare_receiver(id);
    }

    Ok(b.build())
}

struct BodyCtx<'l, 'a> {
    class: ClassId,
    /// The class's name. Most qualified names in a body name its own
    /// class, which then resolves without a hash lookup.
    name: &'a str,
    lo: &'l Lowerer<'a>,
    /// [`Ast::args`], which calls index by range.
    args: &'l [Local],
}

impl BodyCtx<'_, '_> {
    fn class_named(&self, name: &str, at: u32) -> Result<ClassId> {
        if name == self.name {
            Ok(self.class)
        } else {
            self.lo.class(name, at)
        }
    }

    /// Resolve a sugar path to (base local, field id), emitting any loads
    /// needed to materialize the base.
    fn resolve_path(
        &self,
        mb: &mut MethodBuilder<'_>,
        path: &Path<'_>,
        at: u32,
    ) -> Result<(Local, FieldId)> {
        match *path {
            Path::This(f) => Ok((Local::THIS, self.lo.field(self.class, f, at)?)),
            Path::Outer(f) => {
                let outer_cls = self.lo.outers[self.class.index()].ok_or_else(|| {
                    fault(
                        at,
                        "`outer.` used in a class without an `in <Outer>` clause",
                    )
                })?;
                let outer_f = self.lo.field(self.class, OUTER_FIELD, at).map_err(|_| {
                    fault(
                        at,
                        "class has no `$outer` field (is it a framework helper?)",
                    )
                })?;
                let t = mb.new_local();
                mb.load(t, Local::THIS, outer_f);
                Ok((t, self.lo.field(outer_cls, f, at)?))
            }
            Path::Static(cname, f) => {
                let cls = self.class_named(cname, at)?;
                let t = mb.new_local();
                mb.load_static(t, cls);
                Ok((t, self.lo.field(cls, f, at)?))
            }
        }
    }

    /// Resolve an Android-op operand into a local, creating wired instances
    /// for class operands and loading fields for field operands.
    fn resolve_operand(
        &self,
        mb: &mut MethodBuilder<'_>,
        op: &Operand<'_>,
        at: u32,
    ) -> Result<Local> {
        match *op {
            Operand::Local(l) => Ok(l),
            Operand::Class(name) => {
                let cls = self.class_named(name, at)?;
                Ok(mb.new_wired(cls))
            }
            Operand::Field(name) => {
                let f = self.lo.field(self.class, name, at)?;
                let t = mb.new_local();
                mb.load(t, Local::THIS, f);
                Ok(t)
            }
        }
    }
}

/// Split a nested block's `len` nodes off the front of `rest`.
fn take<'n, 'a>(rest: &mut &'n [Node<'a>], len: u32) -> &'n [Node<'a>] {
    let (block, tail) = rest.split_at(len as usize);
    *rest = tail;
    block
}

fn lower_block(
    mb: &mut MethodBuilder<'_>,
    ctx: &BodyCtx<'_, '_>,
    mut nodes: &[Node<'_>],
) -> Result<()> {
    while let Some(((at, stmt), rest)) = nodes.split_first() {
        nodes = rest;
        lower_stmt(mb, ctx, stmt, *at, &mut nodes)?;
    }
    Ok(())
}

/// Lower one statement; a structured one takes its nested blocks' nodes
/// off the front of `rest`.
fn lower_stmt(
    mb: &mut MethodBuilder<'_>,
    ctx: &BodyCtx<'_, '_>,
    stmt: &AstStmt<'_>,
    at: u32,
    rest: &mut &[Node<'_>],
) -> Result<()> {
    let lo = ctx.lo;
    match stmt {
        AstStmt::CNew { dst, class } => {
            let c = ctx.class_named(class, at)?;
            mb.new_obj(*dst, c);
        }
        AstStmt::CStatic { dst, class } => {
            let c = ctx.class_named(class, at)?;
            mb.load_static(*dst, c);
        }
        AstStmt::CLoad {
            dst,
            base,
            class,
            field,
        } => {
            let c = ctx.class_named(class, at)?;
            let f = lo.field(c, field, at)?;
            mb.load(*dst, *base, f);
        }
        AstStmt::CStore {
            base,
            class,
            field,
            src,
        } => {
            let c = ctx.class_named(class, at)?;
            let f = lo.field(c, field, at)?;
            mb.store(*base, f, *src);
        }
        AstStmt::CFree { base, class, field } => {
            let c = ctx.class_named(class, at)?;
            let f = lo.field(c, field, at)?;
            mb.store_null(*base, f);
        }
        AstStmt::CMove { dst, src } => {
            mb.mov(*dst, *src);
        }
        AstStmt::CNull { dst } => {
            mb.null(*dst);
        }
        AstStmt::CCall {
            dst,
            target,
            recv,
            args,
        } => {
            let args = ctx.args[args.clone()].to_vec();
            match *target {
                Some((cname, mname)) => {
                    let c = ctx.class_named(cname, at)?;
                    let m = lo
                        .method(c, mname)
                        .ok_or_else(|| fault(at, format!("unknown method `{cname}.{mname}`")))?;
                    mb.invoke(*dst, m, *recv, args);
                }
                None => {
                    mb.invoke_opaque(*dst, *recv, args);
                }
            }
        }
        AstStmt::CReturn { val } => {
            mb.ret(*val);
        }
        AstStmt::CAndroid { op, operand, api } => {
            let l = match operand {
                Some(o) => Some(ctx.resolve_operand(mb, o, at)?),
                None => None,
            };
            let aop = match *op {
                "post" => AndroidOp::Post {
                    runnable: l.expect("post operand"),
                },
                "send" => AndroidOp::SendMessage {
                    handler: l.expect("send operand"),
                },
                "execute" => AndroidOp::Execute {
                    task: l.expect("execute operand"),
                },
                "start" => AndroidOp::Start {
                    thread: l.expect("start operand"),
                },
                "bind" => AndroidOp::BindService {
                    connection: l.expect("bind operand"),
                },
                "unbind" => AndroidOp::UnbindService {
                    connection: l.expect("unbind operand"),
                },
                "register" => AndroidOp::RegisterReceiver {
                    receiver: l.expect("register operand"),
                },
                "unregister" => AndroidOp::UnregisterReceiver {
                    receiver: l.expect("unregister operand"),
                },
                "removeposts" => AndroidOp::RemoveCallbacksAndMessages {
                    handler: l.expect("removeposts operand"),
                },
                "acquire" => AndroidOp::AcquireWakeLock {
                    lock: l.expect("acquire operand"),
                },
                "release" => AndroidOp::ReleaseWakeLock {
                    lock: l.expect("release operand"),
                },
                "show" => AndroidOp::ShowDialog {
                    dialog: l.expect("show operand"),
                },
                "dismiss" => AndroidOp::DismissDialog {
                    dialog: l.expect("dismiss operand"),
                },
                "schedule" => AndroidOp::ScheduleAlarm {
                    target: l.expect("schedule operand"),
                },
                "cancelalarm" => AndroidOp::CancelAlarm {
                    target: l.expect("cancelalarm operand"),
                },
                "startactivity" => AndroidOp::StartActivity {
                    activity: l.expect("startactivity operand"),
                },
                "publish" => AndroidOp::PublishProgress,
                "finish" => AndroidOp::Finish,
                "listen" => AndroidOp::RegisterListener {
                    api: api.expect("listen api"),
                    listener: l.expect("listen operand"),
                },
                other => unreachable!("unhandled android op {other}"),
            };
            mb.android(aop);
        }
        AstStmt::SAssign { path, rhs } => match *rhs {
            Rhs::New(cname) => {
                let cls = ctx.class_named(cname, at)?;
                let (base, f) = ctx.resolve_path(mb, path, at)?;
                let t = mb.new_wired(cls);
                mb.store(base, f, t);
            }
            Rhs::Null => {
                let (base, f) = ctx.resolve_path(mb, path, at)?;
                mb.store_null(base, f);
            }
            Rhs::Call(mname) => {
                let m = lo
                    .method(ctx.class, mname)
                    .ok_or_else(|| fault(at, format!("unknown method `{mname}`")))?;
                let (base, f) = ctx.resolve_path(mb, path, at)?;
                let t = mb.new_local();
                mb.invoke(Some(t), m, Some(Local::THIS), vec![]);
                mb.store(base, f, t);
            }
            Rhs::Path(src) => {
                let (sbase, sf) = ctx.resolve_path(mb, &src, at)?;
                let t = mb.new_local();
                mb.load(t, sbase, sf);
                let (dbase, df) = ctx.resolve_path(mb, path, at)?;
                mb.store(dbase, df, t);
            }
        },
        AstStmt::SUse { path, mode } => {
            let (base, f) = ctx.resolve_path(mb, path, at)?;
            let t = mb.new_local();
            mb.load(t, base, f);
            match mode {
                UseMode::Deref => {
                    mb.deref(t);
                }
                UseMode::Ret => {
                    mb.ret(Some(t));
                }
                UseMode::Arg => {
                    mb.invoke_opaque(None, None, vec![t]);
                }
            }
        }
        AstStmt::SCall { name } => {
            let m = lo
                .method(ctx.class, name)
                .ok_or_else(|| fault(at, format!("unknown method `{name}`")))?;
            mb.invoke(None, m, Some(Local::THIS), vec![]);
        }
        AstStmt::If {
            cond,
            then_len,
            else_len,
        } => {
            let then_blk = take(rest, *then_len);
            let else_blk = take(rest, *else_len);
            let cond = match *cond {
                AstCond::Opaque => Cond::Opaque,
                AstCond::Canon {
                    non_null,
                    base,
                    class,
                    field,
                } => {
                    let c = ctx.class_named(class, at)?;
                    let field = lo.field(c, field, at)?;
                    if non_null {
                        Cond::NotNull { base, field }
                    } else {
                        Cond::IsNull { base, field }
                    }
                }
                AstCond::Sugar { non_null, path } => {
                    let (base, field) = ctx.resolve_path(mb, &path, at)?;
                    if non_null {
                        Cond::NotNull { base, field }
                    } else {
                        Cond::IsNull { base, field }
                    }
                }
            };
            mb.try_if_cond(
                cond,
                |mb| lower_block(mb, ctx, then_blk),
                |mb| lower_block(mb, ctx, else_blk),
            )?;
        }
        AstStmt::Loop { len } => {
            let body = take(rest, *len);
            mb.try_loop(|mb| lower_block(mb, ctx, body))?;
        }
        AstStmt::Sync { lock, len } => {
            let body = take(rest, *len);
            let lock = ctx.resolve_operand(mb, lock, at)?;
            mb.try_sync(lock, |mb| lower_block(mb, ctx, body))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Op;
    use crate::print::print_program;

    fn parse_ok(src: &str) -> Program {
        parse_program(src).unwrap_or_else(|e| panic!("{e}\nsource:\n{src}"))
    }

    /// The lexer's ASCII byte tests are the `char` rules the non-ASCII
    /// path applies, restricted to ASCII.
    #[test]
    fn byte_tests_agree_with_the_char_rules() {
        for b in 0..0x80u8 {
            let c = char::from(b);
            assert_eq!(is_blank(b), c.is_whitespace(), "byte {b:#04x}");
            let continues = c.is_alphanumeric() || c == '_' || c == '$';
            assert_eq!(is_ident_byte(b), continues, "byte {b:#04x}");
            let starts = c.is_alphabetic() || c == '_' || c == '$';
            let one_ident =
                matches!(lex(&c.to_string()).as_deref(), Ok([t]) if t.kind == Kind::Ident);
            assert_eq!(one_ident, starts, "byte {b:#04x}");
        }
    }

    #[test]
    fn a_token_takes_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Token>(), 12);
    }

    /// A text too long for `u32` offsets is a structured error at line 0,
    /// not a wrapped offset.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn offsets_never_wrap() {
        let max = u32::MAX as usize;
        assert!(check_len(max).is_ok());
        let err = check_len(max + 1).unwrap_err().into_error("");
        assert_eq!(err.line(), 0);
        assert!(err.message().contains("too large"), "{err}");
    }

    /// Nested blocks follow their statement in pre-order, so each lowers
    /// into its own arm, in order, and prints back as written.
    #[test]
    fn nested_blocks_lower_from_their_ranges() {
        let src = r#"app A

class C {
  fn f(params=0, locals=7) {
      if ? {
        if ? {
          t1 = null
        } else {
          t2 = null
        }
        t3 = null
      } else {
        loop {
          t4 = null
        }
      }
      sync this {
        t5 = null
      }
      t6 = null
  }
}
"#;
        assert_eq!(print_program(&parse_ok(src)), src);
    }

    #[test]
    fn parses_minimal_app() {
        let p = parse_ok("app A\nactivity M { }");
        assert_eq!(p.name(), "A");
        assert_eq!(p.classes().count(), 1);
    }

    #[test]
    fn sugar_lowering_produces_expected_ops() {
        let p = parse_ok(
            r#"
            app A
            activity M {
                field f: M
                cb onCreate { f = new M }
                cb onClick { use f }
                cb onDestroy { f = null }
            }
            "#,
        );
        let ops: Vec<_> = p.instrs().into_iter().map(|(_, i)| i.op.clone()).collect();
        assert!(ops.iter().any(|o| matches!(o, Op::New { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::Load { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::StoreNull { .. })));
        assert!(ops.iter().any(|o| matches!(
            o,
            Op::Invoke {
                recv: Some(_),
                callee: crate::instr::Callee::Opaque,
                ..
            }
        )));
    }

    #[test]
    fn guard_sugar() {
        let p = parse_ok(
            r#"
            app A
            activity M {
                field f
                cb onClick { if f != null { use f } else { f = new M } }
            }
            "#,
        );
        let m = p
            .method_by_name(p.class_by_name("M").unwrap(), "onClick")
            .unwrap();
        match &p.method(m).body().0[0] {
            crate::instr::Stmt::If {
                cond: Cond::NotNull { .. },
                then_blk,
                else_blk,
            } => {
                assert_eq!(then_blk.instr_count(), 2);
                assert_eq!(else_blk.instr_count(), 2);
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn android_sugar_wires_outer() {
        let p = parse_ok(
            r#"
            app A
            activity M {
                field f
                cb onClick { post R }
            }
            runnable R in M {
                cb run { use outer.f }
            }
            "#,
        );
        let r = p.class_by_name("R").unwrap();
        let outer = p.field_by_name(r, OUTER_FIELD).expect("$outer pre-created");
        assert_eq!(p.field(outer).owner(), r);
        // post R lowered to: new R; store R.$outer = this; post.
        let m = p.class_by_name("M").unwrap();
        let onclick = p.method(p.method_by_name(m, "onClick").unwrap());
        assert_eq!(onclick.body().instr_count(), 3);
    }

    #[test]
    fn unknown_outer_field_errors() {
        let err = parse_program(
            r#"
            app A
            activity M { cb onClick { post R } }
            runnable R in M { cb run { use outer.missing } }
            "#,
        )
        .unwrap_err();
        assert!(err.message().contains("unknown field"), "{err}");
    }

    #[test]
    fn cross_class_static_access() {
        let p = parse_ok(
            r#"
            app A
            activity M { field f }
            service S { cb onStartCommand { M.f = null } }
            "#,
        );
        let ops: Vec<_> = p.instrs().into_iter().map(|(_, i)| i.op.clone()).collect();
        assert!(ops.iter().any(|o| matches!(o, Op::LoadStatic { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::StoreNull { .. })));
    }

    #[test]
    fn canonical_round_trip() {
        let src = r#"
            app RT
            activity Main {
                field svc: Helper
                cb onCreate { svc = new Helper  bind Conn }
                cb onClick {
                    if svc != null { use svc }
                    post Work
                }
                cb onDestroy { svc = null }
                fn getSvc { useret svc }
            }
            class Helper { }
            connection Conn in Main {
                cb onServiceConnected { outer.svc = new Helper }
                cb onServiceDisconnected { outer.svc = null }
            }
            runnable Work in Main {
                cb run { use outer.svc }
            }
            manifest { main Main }
        "#;
        let p1 = parse_ok(src);
        let printed1 = print_program(&p1);
        let p2 = parse_ok(&printed1);
        assert_eq!(p1, p2, "parse(print(p)) == p\n{printed1}");
        assert_eq!(print_program(&p2), printed1);
    }

    #[test]
    fn lowering_errors_carry_statement_lines() {
        let err = parse_program("app A\nactivity M {\n  cb onClick {\n    use missing\n  }\n}")
            .unwrap_err();
        assert_eq!(err.line(), 4, "{err}");
        let err = parse_program("app A\nactivity M {\n  cb onClick {\n    t1 = new Nope\n  }\n}")
            .unwrap_err();
        assert_eq!(err.line(), 4, "{err}");
        assert!(err.message().contains("unknown class"), "{err}");
    }

    #[test]
    fn errors_carry_lines() {
        let err =
            parse_program("app A\nactivity M {\n  field f\n  cb bogusCallback { }\n}").unwrap_err();
        assert_eq!(err.line(), 4);
        assert!(err.message().contains("not a known callback"));
    }

    #[test]
    fn sync_and_loop_parse() {
        let p = parse_ok(
            r#"
            app A
            activity M {
                field f
                field lock
                cb onClick { sync lock { use f } loop { f = null } }
            }
            "#,
        );
        let m = p
            .method_by_name(p.class_by_name("M").unwrap(), "onClick")
            .unwrap();
        let body = &p.method(m).body().0;
        // load lock; sync; loop
        assert!(body
            .iter()
            .any(|s| matches!(s, crate::instr::Stmt::Sync { .. })));
        assert!(body
            .iter()
            .any(|s| matches!(s, crate::instr::Stmt::Loop { .. })));
    }

    #[test]
    fn asynctask_shape() {
        let p = parse_ok(
            r#"
            app A
            activity M {
                field data
                cb onClick { execute T }
            }
            asynctask T in M {
                cb onPreExecute { outer.data = new M }
                cb doInBackground { publish }
                cb onProgressUpdate { use outer.data }
                cb onPostExecute { outer.data = null }
            }
            "#,
        );
        let t = p.class_by_name("T").unwrap();
        assert_eq!(p.class(t).methods().len(), 4);
    }

    #[test]
    fn opaque_calls_and_params() {
        let p = parse_ok(
            r#"
            app A
            class C {
                fn helper(params=2, locals=5) {
                    t3 = move t1
                    call opaque(recv=t3, t2)
                    return t3
                }
            }
            "#,
        );
        let c = p.class_by_name("C").unwrap();
        let m = p.method(p.method_by_name(c, "helper").unwrap());
        assert_eq!(m.param_count(), 2);
        assert_eq!(m.num_locals(), 5);
    }

    #[test]
    fn looper_clause_parses_and_round_trips() {
        let p = parse_ok(
            r#"
            app L
            activity M { cb onClick { send H } }
            looperthread Worker { }
            handler H in M on Worker { cb handleMessage { } }
            "#,
        );
        let worker = p.class_by_name("Worker").unwrap();
        let h = p.class_by_name("H").unwrap();
        assert_eq!(p.class(h).looper(), Some(worker));
        let printed = print_program(&p);
        assert!(printed.contains("handler H in M on Worker {"), "{printed}");
        assert_eq!(parse_ok(&printed), p);
    }

    #[test]
    fn looper_target_must_be_looperthread() {
        let err = parse_program(
            "app L
activity M { }
handler H on M { cb handleMessage { } }",
        )
        .unwrap_err();
        assert!(err.message().contains("looperthread"), "{err}");
    }

    #[test]
    fn wake_lock_ops_parse_and_round_trip() {
        let p = parse_ok(
            r#"
            app W
            activity M {
                field wl: M
                cb onResume { t1 = load this M.wl  acquire t1 }
                cb onPause { t1 = load this M.wl  release t1 }
            }
            "#,
        );
        let printed = print_program(&p);
        assert!(printed.contains("acquire t1"), "{printed}");
        assert!(printed.contains("release t1"), "{printed}");
        assert_eq!(parse_ok(&printed), p);
    }

    #[test]
    fn predicate_ops_parse_and_round_trip() {
        let p = parse_ok(
            r#"
            app P
            activity M {
                field dlg: D
                field rcv: R
                cb onCreate { show dlg  schedule rcv  startactivity B }
                cb onPause { dismiss dlg  cancelalarm rcv }
            }
            dialog D in M { cb onShow { } }
            receiver R { cb onAlarm { } }
            activity B { }
            "#,
        );
        let printed = print_program(&p);
        for op in [
            "show ",
            "dismiss ",
            "schedule ",
            "cancelalarm ",
            "startactivity ",
        ] {
            assert!(printed.contains(op), "missing {op:?} in:\n{printed}");
        }
        assert_eq!(parse_ok(&printed), p);
    }

    #[test]
    fn launch_is_sugar_for_startactivity() {
        let p = parse_ok(
            r#"
            app L
            activity M { cb onClick { launch B } }
            activity B { }
            "#,
        );
        let printed = print_program(&p);
        assert!(printed.contains("startactivity"), "{printed}");
        assert_eq!(parse_ok(&printed), p);
    }

    #[test]
    fn manifest_receiver() {
        let p = parse_ok(
            r#"
            app A
            activity M { }
            receiver R { cb onReceive { } }
            manifest { main M receiver R }
            "#,
        );
        assert_eq!(p.manifest().declared_receivers().len(), 1);
        assert!(p.manifest().main_activity().is_some());
    }
}
