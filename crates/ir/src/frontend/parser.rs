//! Recursive-descent parser for the behavioral DSL.

use super::ast::{BinOp, Dir, Expr, Port, Proc, Stmt, UnOp};
use super::lexer::{Tok, Token};
use crate::error::{Error, Result};

/// Deepest nesting of parentheses, unary operators and blocks the parser
/// accepts. Parsing and elaboration recurse once per level, so the cap
/// bounds their stack use on untrusted source.
pub const MAX_NESTING: usize = 64;

/// Deepest expression tree the parser builds. An operator chain
/// (`a + 1 + 1 …`) is parsed in a loop, but elaborated and dropped by
/// recursion, one frame per level.
pub const MAX_EXPR_DEPTH: usize = 256;

/// Parses a token stream (from [`super::lexer::lex`]) into one [`Proc`].
///
/// # Errors
///
/// Returns [`Error::Parse`] with the offending source position, including
/// for input nested past [`MAX_NESTING`] or [`MAX_EXPR_DEPTH`].
pub fn parse(tokens: &[Token]) -> Result<Proc> {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        nesting: 0,
    };
    let proc = p.proc()?;
    p.expect_eof()?;
    Ok(proc)
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    /// Open parentheses, unary operators and blocks around `pos`.
    nesting: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].kind
    }

    fn here(&self) -> (u32, u32) {
        let t = &self.toks[self.pos];
        (t.line, t.col)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        let (line, col) = self.here();
        Err(Error::Parse {
            line,
            col,
            msg: msg.into(),
        })
    }

    /// Enters one more nesting level; the caller leaves it with
    /// `self.nesting -= 1` (an error ends the parse anyway).
    fn nest(&mut self) -> Result<()> {
        self.nesting += 1;
        if self.nesting > MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        Ok(())
    }

    /// The depth of an expression node over children `depth` levels deep.
    fn deeper(&self, depth: usize) -> Result<usize> {
        if depth >= MAX_EXPR_DEPTH {
            return self.err(format!("expression deeper than {MAX_EXPR_DEPTH} levels"));
        }
        Ok(depth + 1)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            self.err(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if *self.peek() == Tok::Eof {
            Ok(())
        } else {
            self.err("expected end of input")
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => self.err(format!("expected {what}")),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            _ => self.err(format!("expected keyword '{kw}'")),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn int(&mut self, what: &str) -> Result<i64> {
        match *self.peek() {
            Tok::Int(v) => {
                self.bump();
                Ok(v)
            }
            _ => self.err(format!("expected {what}")),
        }
    }

    fn ty(&mut self) -> Result<(u16, bool)> {
        let name = self.ident("type like u16 or i8")?;
        let (signed, digits) = match name.as_bytes() {
            [b'u', rest @ ..] if !rest.is_empty() => (false, &name[1..]),
            [b'i', rest @ ..] if !rest.is_empty() => (true, &name[1..]),
            _ => return self.err(format!("unknown type '{name}'")),
        };
        let width: u16 = digits
            .parse()
            .ok()
            .filter(|&w| (1..=64).contains(&w))
            .ok_or_else(|| {
                let (line, col) = self.here();
                Error::Parse {
                    line,
                    col,
                    msg: format!("bad width in type '{name}'"),
                }
            })?;
        Ok((width, signed))
    }

    fn proc(&mut self) -> Result<Proc> {
        self.keyword("proc")?;
        let name = self.ident("process name")?;
        self.expect(&Tok::LParen, "'('")?;
        let mut ports = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                let dir = if self.peek_keyword("in") {
                    self.bump();
                    Dir::In
                } else if self.peek_keyword("out") {
                    self.bump();
                    Dir::Out
                } else {
                    return self.err("expected 'in' or 'out'");
                };
                let pname = self.ident("port name")?;
                self.expect(&Tok::Colon, "':'")?;
                let (width, signed) = self.ty()?;
                ports.push(Port {
                    name: pname,
                    dir,
                    width,
                    signed,
                });
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma, "','")?;
            }
        }
        let body = self.block()?;
        Ok(Proc { name, ports, body })
    }

    fn block(&mut self) -> Result<Vec<Stmt>> {
        self.nest()?;
        self.expect(&Tok::LBrace, "'{'")?;
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if *self.peek() == Tok::Eof {
                return self.err("unexpected end of input inside block");
            }
            stmts.push(self.stmt()?);
        }
        self.nesting -= 1;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt> {
        if self.peek_keyword("let") {
            self.bump();
            let name = self.ident("variable name")?;
            let ty = if self.eat(&Tok::Colon) {
                Some(self.ty()?)
            } else {
                None
            };
            self.expect(&Tok::Assign, "'='")?;
            let expr = self.expr()?;
            self.expect(&Tok::Semi, "';'")?;
            return Ok(Stmt::Let { name, ty, expr });
        }
        if self.peek_keyword("if") {
            self.bump();
            let cond = self.expr()?;
            let then_body = self.block()?;
            let else_body = if self.peek_keyword("else") {
                self.bump();
                self.block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond,
                then_body,
                else_body,
            });
        }
        if self.peek_keyword("while") {
            self.bump();
            let cond = self.expr()?;
            let body = self.block()?;
            return Ok(Stmt::While { cond, body });
        }
        if self.peek_keyword("loop") {
            self.bump();
            let body = self.block()?;
            return Ok(Stmt::Loop { body });
        }
        if self.peek_keyword("for") {
            self.bump();
            let var = self.ident("induction variable")?;
            self.keyword("in")?;
            let start = self.int("range start")?;
            self.expect(&Tok::DotDot, "'..'")?;
            let end = self.int("range end")?;
            let unroll = if self.peek_keyword("unroll") {
                self.bump();
                true
            } else {
                false
            };
            let body = self.block()?;
            return Ok(Stmt::For {
                var,
                start,
                end,
                unroll,
                body,
            });
        }
        if self.peek_keyword("wait") {
            self.bump();
            self.expect(&Tok::Semi, "';'")?;
            return Ok(Stmt::Wait);
        }
        if self.peek_keyword("budget") {
            self.bump();
            let Ok(n) = u32::try_from(self.int("budget size")?) else {
                return self.err(format!("budget must be between 0 and {}", u32::MAX));
            };
            self.expect(&Tok::Semi, "';'")?;
            return Ok(Stmt::Budget(n));
        }
        if self.peek_keyword("write") {
            self.bump();
            self.expect(&Tok::LParen, "'('")?;
            let port = self.ident("port name")?;
            self.expect(&Tok::Comma, "','")?;
            let expr = self.expr()?;
            self.expect(&Tok::RParen, "')'")?;
            self.expect(&Tok::Semi, "';'")?;
            return Ok(Stmt::Write { port, expr });
        }
        // assignment: ident = expr ;
        let name = self.ident("statement")?;
        self.expect(&Tok::Assign, "'=' (assignment)")?;
        let expr = self.expr()?;
        self.expect(&Tok::Semi, "';'")?;
        Ok(Stmt::Assign { name, expr })
    }

    fn expr(&mut self) -> Result<Expr> {
        Ok(self.binary(0)?.0)
    }

    /// Precedence climbing. Levels (loosest first): `|`, `^`, `&`,
    /// comparisons, shifts, `+ -`, `* / %`. Returns the expression and its
    /// tree depth.
    fn binary(&mut self, level: u8) -> Result<(Expr, usize)> {
        const LEVELS: usize = 7;
        if level as usize >= LEVELS {
            return self.unary();
        }
        let (mut lhs, mut depth) = self.binary(level + 1)?;
        loop {
            let op = match (level, self.peek()) {
                (0, Tok::Pipe) => BinOp::Or,
                (1, Tok::Caret) => BinOp::Xor,
                (2, Tok::Amp) => BinOp::And,
                (3, Tok::EqEq) => BinOp::Eq,
                (3, Tok::NotEq) => BinOp::Ne,
                (3, Tok::Lt) => BinOp::Lt,
                (3, Tok::Le) => BinOp::Le,
                (3, Tok::Gt) => BinOp::Gt,
                (3, Tok::Ge) => BinOp::Ge,
                (4, Tok::Shl) => BinOp::Shl,
                (4, Tok::Shr) => BinOp::Shr,
                (5, Tok::Plus) => BinOp::Add,
                (5, Tok::Minus) => BinOp::Sub,
                (6, Tok::Star) => BinOp::Mul,
                (6, Tok::Slash) => BinOp::Div,
                (6, Tok::Percent) => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let (rhs, rhs_depth) = self.binary(level + 1)?;
            depth = self.deeper(depth.max(rhs_depth))?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, depth))
    }

    fn unary(&mut self) -> Result<(Expr, usize)> {
        let op = match self.peek() {
            Tok::Minus => UnOp::Neg,
            Tok::Tilde | Tok::Bang => UnOp::Not,
            _ => return self.primary(),
        };
        self.nest()?;
        self.bump();
        let (e, depth) = self.unary()?;
        self.nesting -= 1;
        Ok((Expr::Unary(op, Box::new(e)), self.deeper(depth)?))
    }

    fn primary(&mut self) -> Result<(Expr, usize)> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok((Expr::Int(v), 1))
            }
            Tok::LParen => {
                self.nest()?;
                self.bump();
                let e = self.binary(0)?;
                self.expect(&Tok::RParen, "')'")?;
                self.nesting -= 1;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.bump();
                if name == "read" {
                    self.expect(&Tok::LParen, "'('")?;
                    let port = self.ident("port name")?;
                    self.expect(&Tok::RParen, "')'")?;
                    Ok((Expr::Read(port), 1))
                } else {
                    Ok((Expr::Ident(name), 1))
                }
            }
            _ => self.err("expected expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::lexer::lex;

    fn parse_src(src: &str) -> Result<Proc> {
        parse(&lex(src).unwrap())
    }

    #[test]
    fn parses_minimal_proc() {
        let p = parse_src("proc p(in a: u8, out y: u8) { write(y, read(a) + 1); }").unwrap();
        assert_eq!(p.name, "p");
        assert_eq!(p.ports.len(), 2);
        assert_eq!(p.body.len(), 1);
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse_src("proc p(out y: u8) { let x = 1 + 2 * 3; write(y, x); }").unwrap();
        match &p.body[0] {
            Stmt::Let {
                expr: Expr::Binary(BinOp::Add, _, rhs),
                ..
            } => {
                assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comparison_binds_looser_than_arith() {
        let p = parse_src("proc p(out y: u1) { let c = 1 + 2 > 2; write(y, c); }").unwrap();
        match &p.body[0] {
            Stmt::Let {
                expr: Expr::Binary(BinOp::Gt, lhs, _),
                ..
            } => {
                assert!(matches!(**lhs, Expr::Binary(BinOp::Add, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_control_flow() {
        let src = "proc p(in a: u8, out y: u8) {
            loop {
                let x = read(a);
                if x > 3 { wait; y0 = x; } else { wait; y0 = x + 1; }
                for i in 0..4 unroll { y0 = y0 * 2; }
                while x < 10 { x = x + 1; wait; }
                budget 2;
                wait;
                write(y, y0);
            }
        }";
        let p = parse_src(src).unwrap();
        assert!(matches!(p.body[0], Stmt::Loop { .. }));
    }

    #[test]
    fn error_reports_position() {
        let err = parse_src("proc p() { let = 3; }").unwrap_err();
        match err {
            Error::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other}"),
        }
    }

    /// `body` inside a process with one input `a` and one output `o`; the
    /// process body is the first nesting level.
    fn proc_with(body: &str) -> String {
        format!("proc p(in a: u16, out o: u16) {{ {body} }}")
    }

    /// `Some((col, msg))` when `src` fails to parse on line 1.
    fn parse_error(src: &str) -> Option<(u32, String)> {
        match parse_src(src) {
            Err(Error::Parse { line: 1, col, msg }) => Some((col, msg)),
            _ => None,
        }
    }

    #[test]
    fn nesting_cap_counts_parentheses_unary_operators_and_blocks() {
        let inner = MAX_NESTING - 1;
        let parens = |n: usize| {
            proc_with(&format!(
                "write(o, {}read(a){});",
                "(".repeat(n),
                ")".repeat(n)
            ))
        };
        let negs = |n: usize| proc_with(&format!("write(o, {}read(a));", "- ".repeat(n)));
        let ifs = |n: usize| {
            proc_with(&format!(
                "{}wait;{}",
                "if read(a) > 1 { ".repeat(n),
                " }".repeat(n)
            ))
        };
        for src in [parens(inner), negs(inner), ifs(inner)] {
            assert!(parse_src(&src).is_ok(), "{src}");
        }
        for src in [parens(inner + 1), negs(inner + 1), ifs(inner + 1)] {
            let (_, msg) = parse_error(&src).expect("a parse error");
            assert!(msg.contains("nesting deeper than 64"), "{msg}");
        }
        // The error points at the first parenthesis past the cap.
        let src = parens(inner + 1);
        let run = src.find("write(o, ").unwrap() + "write(o, ".len();
        let (col, _) = parse_error(&src).unwrap();
        assert_eq!(col as usize, run + inner + 1);
    }

    #[test]
    fn expression_depth_cap_admits_the_deepest_chain_and_rejects_one_more() {
        // `read(a) + 1 + …` of n terms is a tree n levels deep.
        let chain = |n: usize| proc_with(&format!("write(o, read(a){});", " + 1".repeat(n - 1)));
        assert!(parse_src(&chain(MAX_EXPR_DEPTH)).is_ok());
        let (_, msg) = parse_error(&chain(MAX_EXPR_DEPTH + 1)).expect("a parse error");
        assert!(msg.contains("expression deeper than 256"), "{msg}");
        // Unary operators deepen the tree too.
        let src = proc_with(&format!(
            "write(o, -(read(a){}));",
            " + 1".repeat(MAX_EXPR_DEPTH - 1)
        ));
        assert!(parse_error(&src).is_some_and(|(_, m)| m.contains("expression deeper")));
    }

    #[test]
    fn budget_past_u32_is_rejected_not_truncated() {
        let p = parse_src(&proc_with(&format!("budget {};", u32::MAX))).unwrap();
        assert_eq!(p.body[0], Stmt::Budget(u32::MAX));
        for n in ["4294967296", "4294967298"] {
            let (_, msg) = parse_error(&proc_with(&format!("budget {n};"))).expect(n);
            assert!(
                msg.contains("budget must be between 0 and 4294967295"),
                "{msg}"
            );
        }
    }

    #[test]
    fn rejects_bad_type() {
        assert!(parse_src("proc p(in a: q8) { }").is_err());
        assert!(parse_src("proc p(in a: u0) { }").is_err());
        assert!(parse_src("proc p(in a: u65) { }").is_err());
    }
}
