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
//! Parsing is two-pass: the text is first parsed into an AST that borrows
//! its names from the source, so every syntax error is reported before
//! any name error; lowering then resolves names, with declarations
//! collected first so classes, fields, and methods may be referenced
//! before their declaration.

use crate::builder::{MethodBuilder, ProgramBuilder};
use crate::ids::{ClassId, FieldId, Local, MethodId};
use crate::instr::{AndroidOp, Cond};
use crate::program::{Program, OUTER_FIELD};
use nadroid_android::listeners::RegistrationApi;
use nadroid_android::{CallbackKind, ClassRole};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// Error produced when the DSL text is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    line: u32,
    msg: String,
}

impl ParseError {
    fn new(line: u32, msg: impl Into<String>) -> Self {
        ParseError {
            line,
            msg: msg.into(),
        }
    }

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

type Result<T> = std::result::Result<T, ParseError>;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(u32),
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

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(n) => write!(f, "`{n}`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::EqEq => write!(f, "`==`"),
            Tok::NotEq => write!(f, "`!=`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Question => write!(f, "`?`"),
        }
    }
}

/// What the lexer does with a byte, looked up once per byte in
/// [`BYTE_CLASS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ByteClass {
    /// ASCII whitespace other than `\n`: skipped.
    Blank,
    /// `\n`: skipped, and the line advances.
    Newline,
    /// An ASCII letter, `_` or `$`: starts or continues an identifier.
    Ident,
    /// An ASCII digit: starts an integer or continues an identifier.
    Digit,
    /// Any other ASCII byte: punctuation, or an error.
    Other,
    /// A byte of a multi-byte `char`, decoded before it is classified.
    NonAscii,
}

/// The [`ByteClass`] of every byte value. `Blank` is exactly the ASCII
/// part of `char::is_whitespace` less `\n`, and `Ident` and `Digit` the
/// ASCII part of the identifier rules, so the table agrees with the
/// `char` path it short-cuts.
const BYTE_CLASS: [ByteClass; 256] = {
    let mut table = [ByteClass::Other; 256];
    let mut b = 0;
    while b < table.len() {
        #[allow(clippy::cast_possible_truncation)]
        let byte = b as u8;
        table[b] = match byte {
            b'\n' => ByteClass::Newline,
            b'\t' | 0x0b | 0x0c | b'\r' | b' ' => ByteClass::Blank,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => ByteClass::Ident,
            b'0'..=b'9' => ByteClass::Digit,
            0x80..=0xff => ByteClass::NonAscii,
            _ => ByteClass::Other,
        };
        b += 1;
    }
    table
};

fn class_of(b: u8) -> ByteClass {
    BYTE_CLASS[usize::from(b)]
}

/// The `char` that starts at byte `i`, a non-ASCII one.
fn char_at(src: &str, i: usize) -> char {
    src[i..]
        .chars()
        .next()
        .expect("lexing stops on char boundaries")
}

/// The end of the identifier that continues at byte `i`: letters, digits,
/// `_` and `$` continue it. ASCII bytes are classified by table; a `char`
/// is decoded only at a non-ASCII byte.
fn ident_end(src: &str, mut i: usize) -> usize {
    let bytes = src.as_bytes();
    while let Some(&b) = bytes.get(i) {
        match class_of(b) {
            ByteClass::Ident | ByteClass::Digit => i += 1,
            ByteClass::NonAscii => {
                let c = char_at(src, i);
                if !c.is_alphanumeric() {
                    break;
                }
                i += c.len_utf8();
            }
            _ => break,
        }
    }
    i
}

/// Split the source into tokens, each with its line. Scans bytes through
/// [`BYTE_CLASS`], consuming runs of blanks and of identifier bytes in
/// tight loops, and decodes a `char` only at a non-ASCII byte, so Unicode
/// letters and digits continue identifiers and Unicode whitespace
/// separates tokens. Only `\n` advances the line.
fn lex(src: &str) -> Result<Vec<(Tok<'_>, u32)>> {
    let bytes = src.as_bytes();
    let mut toks = Vec::with_capacity(src.len() / 4);
    let mut line: u32 = 1;
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        let (tok, len) = match class_of(b) {
            ByteClass::Blank | ByteClass::Newline => {
                while let Some(&b) = bytes.get(i) {
                    match class_of(b) {
                        ByteClass::Blank => {}
                        ByteClass::Newline => line += 1,
                        _ => break,
                    }
                    i += 1;
                }
                continue;
            }
            ByteClass::Ident => {
                let end = ident_end(src, i + 1);
                (Tok::Ident(&src[i..end]), end - i)
            }
            ByteClass::Digit => {
                let len = bytes[i..].iter().take_while(|d| d.is_ascii_digit()).count();
                let n = bytes[i..i + len]
                    .iter()
                    .try_fold(0u32, |n, d| {
                        n.checked_mul(10)?.checked_add(u32::from(d - b'0'))
                    })
                    .ok_or_else(|| ParseError::new(line, "integer literal too large"))?;
                (Tok::Int(n), len)
            }
            ByteClass::NonAscii => {
                let c = char_at(src, i);
                if c.is_whitespace() {
                    i += c.len_utf8();
                    continue;
                }
                if !c.is_alphabetic() {
                    return Err(ParseError::new(line, format!("unexpected character {c:?}")));
                }
                let end = ident_end(src, i + c.len_utf8());
                (Tok::Ident(&src[i..end]), end - i)
            }
            ByteClass::Other => {
                let next = bytes.get(i + 1).copied();
                match b {
                    b'/' if next == Some(b'/') => {
                        match bytes[i..].iter().position(|&c| c == b'\n') {
                            Some(n) => {
                                line += 1;
                                i += n + 1;
                            }
                            None => i = bytes.len(),
                        }
                        continue;
                    }
                    b'/' => {
                        return Err(ParseError::new(
                            line,
                            "unexpected `/` (use `//` for comments)",
                        ))
                    }
                    b'{' => (Tok::LBrace, 1),
                    b'}' => (Tok::RBrace, 1),
                    b'(' => (Tok::LParen, 1),
                    b')' => (Tok::RParen, 1),
                    b':' => (Tok::Colon, 1),
                    b'.' => (Tok::Dot, 1),
                    b',' => (Tok::Comma, 1),
                    b'?' => (Tok::Question, 1),
                    b'=' if next == Some(b'=') => (Tok::EqEq, 2),
                    b'=' => (Tok::Eq, 1),
                    b'!' if next == Some(b'=') => (Tok::NotEq, 2),
                    b'!' => return Err(ParseError::new(line, "unexpected `!`")),
                    _ => {
                        let c = char::from(b);
                        return Err(ParseError::new(line, format!("unexpected character {c:?}")));
                    }
                }
            }
        };
        toks.push((tok, line));
        i += len;
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// A parsed program; every name borrows from the source text.
#[derive(Debug)]
struct AstProgram<'a> {
    name: &'a str,
    classes: Vec<AstClass<'a>>,
    main_activity: Option<&'a str>,
    receivers: Vec<&'a str>,
}

#[derive(Debug)]
struct AstClass<'a> {
    role: ClassRole,
    name: &'a str,
    outer: Option<&'a str>,
    looper: Option<&'a str>,
    fields: Vec<(&'a str, Option<&'a str>)>,
    methods: Vec<AstMethod<'a>>,
    line: u32,
}

#[derive(Debug)]
struct AstMethod<'a> {
    is_cb: bool,
    name: &'a str,
    params: u16,
    locals: Option<u16>,
    body: Vec<(u32, AstStmt<'a>)>,
    line: u32,
}

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
        args: Vec<Local>,
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
    // Structured statements (nested statements carry their lines).
    If {
        cond: AstCond<'a>,
        then_blk: Vec<(u32, AstStmt<'a>)>,
        else_blk: Vec<(u32, AstStmt<'a>)>,
        line: u32,
    },
    Loop {
        body: Vec<(u32, AstStmt<'a>)>,
    },
    Sync {
        lock: Operand<'a>,
        body: Vec<(u32, AstStmt<'a>)>,
        line: u32,
    },
}

#[derive(Debug)]
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
    toks: Vec<(Tok<'a>, u32)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|&(t, _)| t)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(0, |&(_, l)| l)
    }

    fn next(&mut self) -> Result<Tok<'a>> {
        let t = self
            .peek()
            .ok_or_else(|| ParseError::new(self.line(), "unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: Tok<'_>) -> Result<()> {
        let line = self.line();
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            Err(ParseError::new(
                line,
                format!("expected {want}, found {got}"),
            ))
        }
    }

    fn ident(&mut self) -> Result<&'a str> {
        let line = self.line();
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError::new(
                line,
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn int(&mut self) -> Result<u32> {
        let line = self.line();
        match self.next()? {
            Tok::Int(n) => Ok(n),
            other => Err(ParseError::new(
                line,
                format!("expected integer, found {other}"),
            )),
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        self.eat(Tok::Ident(kw))
    }

    fn eat(&mut self, t: Tok<'_>) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// The whole program: every token after `app <Name>` must begin a
    /// class or the manifest, so nothing trails it.
    fn program(&mut self) -> Result<AstProgram<'a>> {
        let line = self.line();
        if !self.eat_ident("app") {
            return Err(ParseError::new(
                line,
                "program must start with `app <Name>`",
            ));
        }
        let name = self.ident()?;
        let mut classes = Vec::new();
        let mut main_activity = None;
        let mut receivers = Vec::new();
        while let Some(tok) = self.peek() {
            let line = self.line();
            let Tok::Ident(kw) = tok else {
                return Err(ParseError::new(
                    line,
                    format!("expected class or manifest, found {tok}"),
                ));
            };
            if kw == "manifest" {
                self.pos += 1;
                self.expect(Tok::LBrace)?;
                while !self.eat(Tok::RBrace) {
                    let l = self.line();
                    match self.ident()? {
                        "main" => main_activity = Some(self.ident()?),
                        "receiver" => receivers.push(self.ident()?),
                        other => {
                            return Err(ParseError::new(
                                l,
                                format!("unknown manifest entry `{other}`"),
                            ))
                        }
                    }
                }
            } else if let Some(role) = ClassRole::from_keyword(kw) {
                self.pos += 1;
                classes.push(self.class(role, line)?);
            } else {
                return Err(ParseError::new(
                    line,
                    format!("unknown declaration keyword `{kw}`"),
                ));
            }
        }
        Ok(AstProgram {
            name,
            classes,
            main_activity,
            receivers,
        })
    }

    fn class(&mut self, role: ClassRole, line: u32) -> Result<AstClass<'a>> {
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
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.eat(Tok::RBrace) {
            let l = self.line();
            match self.ident()? {
                "field" => {
                    let fname = self.ident()?;
                    let ty = if self.eat(Tok::Colon) {
                        Some(self.ident()?)
                    } else {
                        None
                    };
                    fields.push((fname, ty));
                }
                kw @ ("cb" | "fn") => methods.push(self.method(kw == "cb", l)?),
                other => {
                    // Bare callback-name sugar: `onCreate { ... }`.
                    let is_cb = CallbackKind::from_method_name(other, role).is_some();
                    if is_cb || matches!(self.peek(), Some(Tok::LBrace | Tok::LParen)) {
                        methods.push(self.method_tail(is_cb, other, l)?);
                    } else {
                        return Err(ParseError::new(
                            l,
                            format!("unknown class member `{other}` (expected field/cb/fn)"),
                        ));
                    }
                }
            }
        }
        Ok(AstClass {
            role,
            name,
            outer,
            looper,
            fields,
            methods,
            line,
        })
    }

    fn method(&mut self, is_cb: bool, line: u32) -> Result<AstMethod<'a>> {
        let name = self.ident()?;
        self.method_tail(is_cb, name, line)
    }

    fn method_tail(&mut self, is_cb: bool, name: &'a str, line: u32) -> Result<AstMethod<'a>> {
        let mut params = 0u16;
        let mut locals = None;
        if self.eat(Tok::LParen) {
            while !self.eat(Tok::RParen) {
                let l = self.line();
                let kw = self.ident()?;
                self.expect(Tok::Eq)?;
                let n = self.int()?;
                match kw {
                    "params" => {
                        // `this` takes a slot too, so at most u16::MAX - 1.
                        params = u16::try_from(n)
                            .ok()
                            .filter(|&n| n < u16::MAX)
                            .ok_or_else(|| ParseError::new(l, "too many parameters"))?;
                    }
                    "locals" => {
                        locals = Some(
                            u16::try_from(n).map_err(|_| ParseError::new(l, "too many locals"))?,
                        );
                    }
                    other => {
                        return Err(ParseError::new(
                            l,
                            format!("unknown method attribute `{other}`"),
                        ))
                    }
                }
                let _ = self.eat(Tok::Comma);
            }
        }
        self.expect(Tok::LBrace)?;
        let body = self.block()?;
        Ok(AstMethod {
            is_cb,
            name,
            params,
            locals,
            body,
            line,
        })
    }

    fn block(&mut self) -> Result<Vec<(u32, AstStmt<'a>)>> {
        let mut out = Vec::new();
        while !self.eat(Tok::RBrace) {
            let line = self.line();
            out.push((line, self.stmt()?));
        }
        Ok(out)
    }

    /// The local a name denotes: `this`, or `tN` for any digits `N`.
    /// A method has at most `u16::MAX` slots, so `N` must stay below it.
    fn local_of(name: &str, line: u32) -> Result<Option<Local>> {
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
            _ => Err(ParseError::new(line, "too many locals")),
        }
    }

    fn local(&mut self) -> Result<Local> {
        let line = self.line();
        let id = self.ident()?;
        Self::local_of(id, line)?.ok_or_else(|| {
            ParseError::new(line, format!("expected local (`this`/`tN`), found `{id}`"))
        })
    }

    /// Parse `Class.field` (canonical qualified field).
    fn qfield(&mut self) -> Result<(&'a str, &'a str)> {
        let class = self.ident()?;
        self.expect(Tok::Dot)?;
        let field = self.ident()?;
        Ok((class, field))
    }

    /// Parse a sugar field path starting from an already-consumed ident.
    fn path_from(&mut self, first: &'a str) -> Result<Path<'a>> {
        if self.eat(Tok::Dot) {
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
        let line = self.line();
        let id = self.ident()?;
        Ok(match Self::local_of(id, line)? {
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

    fn stmt(&mut self) -> Result<AstStmt<'a>> {
        let line = self.line();
        let first = self.ident()?;
        match first {
            "store" => {
                let base = self.local()?;
                let (class, field) = self.qfield()?;
                self.expect(Tok::Eq)?;
                let src = self.local()?;
                Ok(AstStmt::CStore {
                    base,
                    class,
                    field,
                    src,
                })
            }
            "free" => {
                let base = self.local()?;
                let (class, field) = self.qfield()?;
                Ok(AstStmt::CFree { base, class, field })
            }
            "return" => {
                // `return` may be followed by a local, or by nothing.
                if let Some(Tok::Ident(id)) = self.peek() {
                    if let Some(l) = Self::local_of(id, self.line())? {
                        self.pos += 1;
                        return Ok(AstStmt::CReturn { val: Some(l) });
                    }
                }
                Ok(AstStmt::CReturn { val: None })
            }
            "call" => self.call_stmt(None),
            "use" | "useret" | "usearg" => {
                let id = self.ident()?;
                let path = self.path_from(id)?;
                let mode = match first {
                    "use" => UseMode::Deref,
                    "useret" => UseMode::Ret,
                    _ => UseMode::Arg,
                };
                Ok(AstStmt::SUse { path, mode })
            }
            "post" => self.android_stmt("post", true),
            "send" => self.android_stmt("send", true),
            "execute" => self.android_stmt("execute", true),
            "start" | "spawn" => self.android_stmt("start", true),
            "bindservice" | "bind" => self.android_stmt("bind", true),
            "unbindservice" | "unbind" => self.android_stmt("unbind", true),
            "registerreceiver" | "register" => self.android_stmt("register", true),
            "unregisterreceiver" | "unregister" => self.android_stmt("unregister", true),
            "removeposts" => self.android_stmt("removeposts", true),
            "acquire" => self.android_stmt("acquire", true),
            "release" => self.android_stmt("release", true),
            "show" => self.android_stmt("show", true),
            "dismiss" => self.android_stmt("dismiss", true),
            "schedule" => self.android_stmt("schedule", true),
            "cancelalarm" => self.android_stmt("cancelalarm", true),
            "startactivity" | "launch" => self.android_stmt("startactivity", true),
            "publish" => self.android_stmt("publish", false),
            "finish" => self.android_stmt("finish", false),
            "listen" => {
                let l = self.line();
                let api_name = self.ident()?;
                let api = RegistrationApi::from_method_name(api_name).ok_or_else(|| {
                    ParseError::new(l, format!("unknown listener-registration API `{api_name}`"))
                })?;
                let operand = Some(self.operand()?);
                Ok(AstStmt::CAndroid {
                    op: "listen",
                    operand,
                    api: Some(api),
                })
            }
            "if" => self.if_stmt(line),
            "loop" => {
                self.expect(Tok::LBrace)?;
                Ok(AstStmt::Loop {
                    body: self.block()?,
                })
            }
            "sync" => {
                let lock = self.operand()?;
                self.expect(Tok::LBrace)?;
                Ok(AstStmt::Sync {
                    lock,
                    body: self.block()?,
                    line,
                })
            }
            _ => {
                // Assignment: canonical `tN = ...` or sugar `<path> = ...`.
                if let Some(dst) = Self::local_of(first, line)? {
                    self.expect(Tok::Eq)?;
                    self.canon_rhs(dst, line)
                } else {
                    let path = self.path_from(first)?;
                    self.expect(Tok::Eq)?;
                    let rline = self.line();
                    let rhs = match self.ident()? {
                        "new" => Rhs::New(self.ident()?),
                        "null" => Rhs::Null,
                        "call" => Rhs::Call(self.ident()?),
                        kw => {
                            if Self::local_of(kw, rline)?.is_some() {
                                return Err(ParseError::new(
                                    rline,
                                    "locals cannot be assigned to fields in sugar; use canonical `store`",
                                ));
                            }
                            Rhs::Path(self.path_from(kw)?)
                        }
                    };
                    Ok(AstStmt::SAssign { path, rhs })
                }
            }
        }
    }

    fn canon_rhs(&mut self, dst: Local, line: u32) -> Result<AstStmt<'a>> {
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
            other => Err(ParseError::new(
                line,
                format!("unknown assignment rhs `{other}`"),
            )),
        }
    }

    fn call_stmt(&mut self, dst: Option<Local>) -> Result<AstStmt<'a>> {
        let line = self.line();
        let name = self.ident()?;
        if name == "opaque" {
            let (recv, args) = self.call_args()?;
            return Ok(AstStmt::CCall {
                dst,
                target: None,
                recv,
                args,
            });
        }
        if self.eat(Tok::Dot) {
            let method = self.ident()?;
            let (recv, args) = self.call_args()?;
            return Ok(AstStmt::CCall {
                dst,
                target: Some((name, method)),
                recv,
                args,
            });
        }
        if matches!(self.peek(), Some(Tok::LParen)) {
            return Err(ParseError::new(
                line,
                "canonical calls need a qualified target (`Class.method`) or `opaque`",
            ));
        }
        if dst.is_some() {
            return Err(ParseError::new(
                line,
                "sugar `call <name>` cannot assign to a local",
            ));
        }
        Ok(AstStmt::SCall { name })
    }

    fn call_args(&mut self) -> Result<(Option<Local>, Vec<Local>)> {
        self.expect(Tok::LParen)?;
        let mut recv = None;
        let mut args = Vec::new();
        let mut first = true;
        while !self.eat(Tok::RParen) {
            if !first {
                self.expect(Tok::Comma)?;
            }
            first = false;
            if self.eat_ident("recv") {
                self.expect(Tok::Eq)?;
                recv = Some(self.local()?);
            } else {
                args.push(self.local()?);
            }
        }
        Ok((recv, args))
    }

    fn if_stmt(&mut self, line: u32) -> Result<AstStmt<'a>> {
        let cond = if self.eat(Tok::Question) {
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
            let l = self.line();
            let non_null = match self.next()? {
                Tok::NotEq => true,
                Tok::EqEq => false,
                other => {
                    return Err(ParseError::new(
                        l,
                        format!("expected `!=` or `==`, found {other}"),
                    ))
                }
            };
            if !self.eat_ident("null") {
                return Err(ParseError::new(
                    l,
                    "null-check conditions must compare against `null`",
                ));
            }
            AstCond::Sugar { non_null, path }
        };
        self.expect(Tok::LBrace)?;
        let then_blk = self.block()?;
        let else_blk = if self.eat_ident("else") {
            self.expect(Tok::LBrace)?;
            self.block()?
        } else {
            Vec::new()
        };
        Ok(AstStmt::If {
            cond,
            then_blk,
            else_blk,
            line,
        })
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
    fn field(&self, class: ClassId, name: &str, line: u32) -> Result<FieldId> {
        self.fields
            .get(&(class, name))
            .copied()
            .ok_or_else(|| ParseError::new(line, format!("unknown field `{name}`")))
    }

    fn class(&self, name: &str, line: u32) -> Result<ClassId> {
        self.classes
            .get(name)
            .copied()
            .ok_or_else(|| ParseError::new(line, format!("unknown class `{name}`")))
    }

    fn method(&self, class: ClassId, name: &str) -> Option<MethodId> {
        self.methods.get(&(class, name)).copied()
    }
}

/// Parse DSL text into a [`Program`].
///
/// # Errors
///
/// Returns [`ParseError`] with the offending line when the text is
/// lexically or grammatically malformed, or names an unknown class,
/// field, or method.
pub fn parse_program(src: &str) -> Result<Program> {
    let ast = Parser {
        toks: lex(src)?,
        pos: 0,
    }
    .program()?;
    lower(&ast)
}

fn lower(ast: &AstProgram<'_>) -> Result<Program> {
    let mut b = ProgramBuilder::new(ast.name);
    let n_fields = ast
        .classes
        .iter()
        .map(|c| c.fields.len() + usize::from(c.role.is_framework_helper()))
        .sum();
    let n_methods = ast.classes.iter().map(|c| c.methods.len()).sum();
    let mut lo = Lowerer {
        classes: HashMap::with_capacity(ast.classes.len()),
        fields: HashMap::with_capacity(n_fields),
        methods: HashMap::with_capacity(n_methods),
        outers: vec![None; ast.classes.len()],
    };

    // Pass 1a: classes (outer links resolved in a second sweep so an inner
    // class may precede its outer).
    let mut ids = Vec::with_capacity(ast.classes.len());
    for c in &ast.classes {
        let Entry::Vacant(slot) = lo.classes.entry(c.name) else {
            return Err(ParseError::new(
                c.line,
                format!("duplicate class `{}`", c.name),
            ));
        };
        ids.push(*slot.insert(b.add_unique_class(c.name, c.role)));
    }
    for (c, &cid) in ast.classes.iter().zip(&ids) {
        if let Some(outer_name) = c.outer {
            let outer = lo.class(outer_name, c.line)?;
            b.set_outer(cid, outer);
            lo.outers[cid.index()] = Some(outer);
        }
        if let Some(looper_name) = c.looper {
            let looper = lo.class(looper_name, c.line)?;
            // Class ids number `ast.classes` in order.
            if ast.classes[looper.index()].role != ClassRole::LooperThread {
                return Err(ParseError::new(
                    c.line,
                    format!("`on {looper_name}`: target must be a looperthread class"),
                ));
            }
            b.set_looper(cid, looper);
        }
    }

    // Pass 1b: fields (types may reference any class). Framework-helper
    // classes get their implicit `$outer` back-reference created here, in
    // class order, so field numbering is stable under print/parse
    // round-trips.
    for (c, &cid) in ast.classes.iter().zip(&ids) {
        for &(fname, ty) in &c.fields {
            let ty = match ty {
                Some(t) => Some(lo.class(t, c.line)?),
                None => None,
            };
            if lo.fields.contains_key(&(cid, fname)) {
                return Err(ParseError::new(
                    c.line,
                    format!("duplicate field `{fname}`"),
                ));
            }
            lo.fields.insert((cid, fname), b.add_field(cid, fname, ty));
        }
        if c.role.is_framework_helper() {
            if let Entry::Vacant(slot) = lo.fields.entry((cid, OUTER_FIELD)) {
                slot.insert(b.outer_field(cid));
            }
        }
    }

    // Pass 1c: method declarations (so calls may reference forward).
    let mut mids = Vec::with_capacity(n_methods);
    for (c, &cid) in ast.classes.iter().zip(&ids) {
        for m in &c.methods {
            let Entry::Vacant(slot) = lo.methods.entry((cid, m.name)) else {
                return Err(ParseError::new(
                    m.line,
                    format!("duplicate method `{}`", m.name),
                ));
            };
            mids.push(*slot.insert(b.declare_method(cid, m.name)));
        }
    }

    // Pass 2: method bodies.
    let mut mids = mids.into_iter();
    for (c, &cid) in ast.classes.iter().zip(&ids) {
        for m in &c.methods {
            let mid = mids.next().expect("one id per declared method");
            let callback = if m.is_cb {
                Some(
                    CallbackKind::from_method_name(m.name, c.role).ok_or_else(|| {
                        ParseError::new(
                            m.line,
                            format!("`{}` is not a known callback for role `{}`", m.name, c.role),
                        )
                    })?,
                )
            } else {
                None
            };
            let mut mb = b.body(mid);
            if m.params > 0 {
                mb.params(m.params);
            }
            if let Some(n) = m.locals {
                mb.reserve_locals(n);
            }
            let ctx = BodyCtx {
                class: cid,
                lo: &lo,
            };
            lower_block(&mut mb, &ctx, &m.body)?;
            // Sugar statements allocate temporaries past a `locals=N`
            // header, so the limit is checked once the body is lowered.
            if mb.num_locals() > u32::from(u16::MAX) {
                return Err(ParseError::new(m.line, "too many locals"));
            }
            match callback {
                Some(k) => mb.finish_callback(k),
                None => mb.finish(),
            };
        }
    }

    // Manifest.
    if let Some(main) = ast.main_activity {
        let id = lo.class(main, 0)?;
        b.set_main_activity(id);
    }
    for r in &ast.receivers {
        let id = lo.class(r, 0)?;
        b.declare_receiver(id);
    }

    Ok(b.build())
}

struct BodyCtx<'l, 'a> {
    class: ClassId,
    lo: &'l Lowerer<'a>,
}

impl BodyCtx<'_, '_> {
    /// Resolve a sugar path to (base local, field id), emitting any loads
    /// needed to materialize the base.
    fn resolve_path(
        &self,
        mb: &mut MethodBuilder<'_>,
        path: &Path<'_>,
        line: u32,
    ) -> Result<(Local, FieldId)> {
        match *path {
            Path::This(f) => Ok((Local::THIS, self.lo.field(self.class, f, line)?)),
            Path::Outer(f) => {
                let outer_cls = self.lo.outers[self.class.index()].ok_or_else(|| {
                    ParseError::new(
                        line,
                        "`outer.` used in a class without an `in <Outer>` clause",
                    )
                })?;
                let outer_f = self.lo.field(self.class, OUTER_FIELD, line).map_err(|_| {
                    ParseError::new(
                        line,
                        "class has no `$outer` field (is it a framework helper?)",
                    )
                })?;
                let t = mb.new_local();
                mb.load(t, Local::THIS, outer_f);
                Ok((t, self.lo.field(outer_cls, f, line)?))
            }
            Path::Static(cname, f) => {
                let cls = self.lo.class(cname, line)?;
                let t = mb.new_local();
                mb.load_static(t, cls);
                Ok((t, self.lo.field(cls, f, line)?))
            }
        }
    }

    /// Resolve an Android-op operand into a local, creating wired instances
    /// for class operands and loading fields for field operands.
    fn resolve_operand(
        &self,
        mb: &mut MethodBuilder<'_>,
        op: &Operand<'_>,
        line: u32,
    ) -> Result<Local> {
        match *op {
            Operand::Local(l) => Ok(l),
            Operand::Class(name) => {
                let cls = self.lo.class(name, line)?;
                Ok(mb.new_wired(cls))
            }
            Operand::Field(name) => {
                let f = self.lo.field(self.class, name, line)?;
                let t = mb.new_local();
                mb.load(t, Local::THIS, f);
                Ok(t)
            }
        }
    }
}

fn lower_block(
    mb: &mut MethodBuilder<'_>,
    ctx: &BodyCtx<'_, '_>,
    stmts: &[(u32, AstStmt<'_>)],
) -> Result<()> {
    for (line, s) in stmts {
        lower_stmt(mb, ctx, s, *line)?;
    }
    Ok(())
}

fn lower_stmt(
    mb: &mut MethodBuilder<'_>,
    ctx: &BodyCtx<'_, '_>,
    stmt: &AstStmt<'_>,
    line: u32,
) -> Result<()> {
    let lo = ctx.lo;
    match stmt {
        AstStmt::CNew { dst, class } => {
            let c = lo.class(class, line)?;
            mb.new_obj(*dst, c);
        }
        AstStmt::CStatic { dst, class } => {
            let c = lo.class(class, line)?;
            mb.load_static(*dst, c);
        }
        AstStmt::CLoad {
            dst,
            base,
            class,
            field,
        } => {
            let c = lo.class(class, line)?;
            let f = lo.field(c, field, line)?;
            mb.load(*dst, *base, f);
        }
        AstStmt::CStore {
            base,
            class,
            field,
            src,
        } => {
            let c = lo.class(class, line)?;
            let f = lo.field(c, field, line)?;
            mb.store(*base, f, *src);
        }
        AstStmt::CFree { base, class, field } => {
            let c = lo.class(class, line)?;
            let f = lo.field(c, field, line)?;
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
        } => match *target {
            Some((cname, mname)) => {
                let c = lo.class(cname, line)?;
                let m = lo.method(c, mname).ok_or_else(|| {
                    ParseError::new(line, format!("unknown method `{cname}.{mname}`"))
                })?;
                mb.invoke(*dst, m, *recv, args.clone());
            }
            None => {
                mb.invoke_opaque(*dst, *recv, args.clone());
            }
        },
        AstStmt::CReturn { val } => {
            mb.ret(*val);
        }
        AstStmt::CAndroid { op, operand, api } => {
            let l = match operand {
                Some(o) => Some(ctx.resolve_operand(mb, o, line)?),
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
                let cls = lo.class(cname, line)?;
                let (base, f) = ctx.resolve_path(mb, path, line)?;
                let t = mb.new_wired(cls);
                mb.store(base, f, t);
            }
            Rhs::Null => {
                let (base, f) = ctx.resolve_path(mb, path, line)?;
                mb.store_null(base, f);
            }
            Rhs::Call(mname) => {
                let m = lo
                    .method(ctx.class, mname)
                    .ok_or_else(|| ParseError::new(line, format!("unknown method `{mname}`")))?;
                let (base, f) = ctx.resolve_path(mb, path, line)?;
                let t = mb.new_local();
                mb.invoke(Some(t), m, Some(Local::THIS), vec![]);
                mb.store(base, f, t);
            }
            Rhs::Path(src) => {
                let (sbase, sf) = ctx.resolve_path(mb, &src, line)?;
                let t = mb.new_local();
                mb.load(t, sbase, sf);
                let (dbase, df) = ctx.resolve_path(mb, path, line)?;
                mb.store(dbase, df, t);
            }
        },
        AstStmt::SUse { path, mode } => {
            let (base, f) = ctx.resolve_path(mb, path, line)?;
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
                .ok_or_else(|| ParseError::new(line, format!("unknown method `{name}`")))?;
            mb.invoke(None, m, Some(Local::THIS), vec![]);
        }
        AstStmt::If {
            cond,
            then_blk,
            else_blk,
            line,
        } => {
            let cond = match cond {
                AstCond::Opaque => Cond::Opaque,
                AstCond::Canon {
                    non_null,
                    base,
                    class,
                    field,
                } => {
                    let c = lo.class(class, *line)?;
                    let f = lo.field(c, field, *line)?;
                    if *non_null {
                        Cond::NotNull {
                            base: *base,
                            field: f,
                        }
                    } else {
                        Cond::IsNull {
                            base: *base,
                            field: f,
                        }
                    }
                }
                AstCond::Sugar { non_null, path } => {
                    let (base, f) = ctx.resolve_path(mb, path, *line)?;
                    if *non_null {
                        Cond::NotNull { base, field: f }
                    } else {
                        Cond::IsNull { base, field: f }
                    }
                }
            };
            mb.try_if_cond(
                cond,
                |mb| lower_block(mb, ctx, then_blk),
                |mb| lower_block(mb, ctx, else_blk),
            )?;
        }
        AstStmt::Loop { body } => {
            mb.try_loop(|mb| lower_block(mb, ctx, body))?;
        }
        AstStmt::Sync { lock, body, line } => {
            let lock = ctx.resolve_operand(mb, lock, *line)?;
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

    /// The table's ASCII classes are the `char` rules the non-ASCII path
    /// applies, restricted to ASCII.
    #[test]
    fn byte_classes_agree_with_the_char_rules() {
        for b in 0..=u8::MAX {
            let c = char::from(b);
            let expected = if !b.is_ascii() {
                ByteClass::NonAscii
            } else if c == '\n' {
                ByteClass::Newline
            } else if c.is_whitespace() {
                ByteClass::Blank
            } else if c.is_alphabetic() || c == '_' || c == '$' {
                ByteClass::Ident
            } else if c.is_alphanumeric() {
                ByteClass::Digit
            } else {
                ByteClass::Other
            };
            assert_eq!(class_of(b), expected, "byte {b:#04x}");
        }
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
