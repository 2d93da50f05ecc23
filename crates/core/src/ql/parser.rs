//! Recursive-descent parser for ScrubQL.
//!
//! The grammar (clauses after FROM may appear in any order, matching the
//! paper's figures which place the `@[...]` target clause before *or* after
//! `group by`):
//!
//! ```text
//! query    := SELECT item (',' item)* FROM from_list clause* [';']
//! item     := (agg | k '*' agg | agg '*' k | expr) [AS ident]
//! agg      := COUNT '(' '*' ')' | AGG '(' [DISTINCT | int ','] expr ')'
//! clause   := WHERE expr
//!           | '@' '[' target ']'
//!           | GROUP BY expr (',' expr)*
//!           | WINDOW duration [SLIDE duration]
//!           | SAMPLE (HOSTS pct)? (EVENTS pct)?
//!           | START (NOW | AT int | IN duration)
//!           | DURATION duration
//! from     := ident (',' ident)* | ident (JOIN ident ON equijoin)*
//! target   := ALL | attr (= v | IN list) | target AND/OR target | NOT target
//! duration := int unit          -- e.g. 10 s, 20 m, 1 h
//! pct      := number '%' | float-in-(0,1]
//! ```
//!
//! Aggregates are a fact of the parse tree, not of the expression tree: the
//! three `agg` forms of `item` are the only place an aggregate call is
//! admitted (`k`, a numeric literal, is Figure 13's `1000*AVG(cost)`).
//! `k * AGG(arg)` becomes `AGG(k * arg)`, which is exact for SUM and AVG by
//! any `k` and for MIN and MAX by `k >= 0` (a non-negative scale keeps the
//! order); other scalings, other arithmetic around an aggregate, and an
//! aggregate call anywhere else are rejected where the parser meets them.

use crate::error::{ScrubError, ScrubResult};
use crate::expr::{BinOp, Expr, FieldRef, ScalarFn, UnaryOp};
use crate::value::Value;

use super::ast::{duration_ms, AggFn, QuerySpec, SampleSpec, SelectItem, StartSpec, TargetExpr};
use super::lexer::{lex, Token, TokenKind};

/// Parse a ScrubQL query string into a [`QuerySpec`].
pub fn parse_query(src: &str) -> ScrubResult<QuerySpec> {
    Parser::new(src)?.query()
}

/// Parse just an expression (used in tests and by tooling).
pub fn parse_expr(src: &str) -> ScrubResult<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Where the expression being parsed sits; an aggregate call met
    /// inside it is rejected with this site's error.
    site: Site,
}

/// The places an expression can sit. None of them admits an aggregate
/// call: `select_item` reads the admitted aggregate forms itself.
#[derive(Clone, Copy)]
enum Site {
    /// A select expression, or a bare `parse_expr`.
    Select,
    /// `WHERE` or `GROUP BY`.
    Clause(&'static str),
    JoinOn,
    AggArg,
}

impl Site {
    fn agg_error(self) -> ScrubError {
        match self {
            Site::Select => ScrubError::Unsupported(
                "aggregate in unsupported position; use AGG(expr), k*AGG(expr) or \
                 AGG(expr)*k as a select item"
                    .into(),
            ),
            Site::Clause(ctx) => {
                ScrubError::Validate(format!("aggregates are not allowed in {ctx}"))
            }
            Site::JoinOn => equijoin_only(),
            Site::AggArg => ScrubError::Unsupported("nested aggregates are not supported".into()),
        }
    }
}

impl Parser {
    fn new(src: &str) -> ScrubResult<Parser> {
        Ok(Parser {
            tokens: lex(src)?,
            pos: 0,
            site: Site::Select,
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn here(&self) -> usize {
        self.tokens[self.pos].pos
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        k
    }

    fn err<T>(&self, msg: impl Into<String>) -> ScrubResult<T> {
        Err(ScrubError::Parse {
            pos: self.here(),
            msg: msg.into(),
        })
    }

    /// Is the current token the given (case-insensitive) keyword?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> ScrubResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected `{kw}`, found {}", self.peek().describe()))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> ScrubResult<()> {
        if self.eat(&kind) {
            Ok(())
        } else {
            self.err(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().describe()
            ))
        }
    }

    fn expect_eof(&mut self) -> ScrubResult<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            self.err(format!("unexpected {}", self.peek().describe()))
        }
    }

    fn ident(&mut self) -> ScrubResult<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {}", other.describe())),
        }
    }

    // ----- query ---------------------------------------------------------

    fn query(&mut self) -> ScrubResult<QuerySpec> {
        self.expect_kw("select")?;
        let select = self.select_list()?;
        self.expect_kw("from")?;
        let from = self.parse_from_list()?;

        let mut q = QuerySpec {
            select,
            from,
            where_clause: None,
            group_by: Vec::new(),
            window_ms: None,
            slide_ms: None,
            target: TargetExpr::All,
            sample: SampleSpec::default(),
            start: StartSpec::Now,
            duration_ms: None,
        };

        let mut saw_target = false;
        loop {
            if self.eat(&TokenKind::At) {
                if saw_target {
                    return self.err("duplicate target clause");
                }
                saw_target = true;
                self.expect(TokenKind::LBracket)?;
                q.target = self.target()?;
                self.expect(TokenKind::RBracket)?;
            } else if self.at_kw("where") {
                self.bump();
                if q.where_clause.is_some() {
                    return self.err("duplicate WHERE clause");
                }
                q.where_clause = Some(self.expr_at(Site::Clause("WHERE"))?);
            } else if self.at_kw("group") {
                self.bump();
                self.expect_kw("by")?;
                if !q.group_by.is_empty() {
                    return self.err("duplicate GROUP BY clause");
                }
                loop {
                    q.group_by.push(self.expr_at(Site::Clause("GROUP BY"))?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            } else if self.at_kw("window") {
                self.bump();
                if q.window_ms.is_some() {
                    return self.err("duplicate WINDOW clause");
                }
                q.window_ms = Some(self.duration()?);
                if self.eat_kw("slide") {
                    q.slide_ms = Some(self.duration()?);
                }
            } else if self.at_kw("sample") {
                self.bump();
                let mut any = false;
                if self.eat_kw("hosts") {
                    q.sample.host_fraction = self.fraction()?;
                    any = true;
                }
                if self.eat_kw("events") {
                    q.sample.event_fraction = self.fraction()?;
                    any = true;
                }
                if !any {
                    return self.err("SAMPLE needs `hosts <pct>` and/or `events <pct>`");
                }
            } else if self.at_kw("start") {
                self.bump();
                if self.eat_kw("now") {
                    q.start = StartSpec::Now;
                } else if self.eat_kw("at") {
                    match self.bump() {
                        TokenKind::Int(v) => q.start = StartSpec::At(v),
                        other => {
                            return self.err(format!(
                                "expected absolute start time (ms), found {}",
                                other.describe()
                            ));
                        }
                    }
                } else if self.eat_kw("in") {
                    q.start = StartSpec::In(self.duration()?);
                } else {
                    return self.err("expected `now`, `at <ms>` or `in <duration>` after START");
                }
            } else if self.at_kw("duration") {
                self.bump();
                if q.duration_ms.is_some() {
                    return self.err("duplicate DURATION clause");
                }
                q.duration_ms = Some(self.duration()?);
            } else if self.at_kw("having") {
                return Err(ScrubError::Unsupported(
                    "HAVING is not part of ScrubQL; filter in the client or tighten WHERE".into(),
                ));
            } else if self.at_kw("order") {
                return Err(ScrubError::Unsupported(
                    "ORDER BY is not part of ScrubQL; sort results in the client".into(),
                ));
            } else {
                break;
            }
        }

        self.eat(&TokenKind::Semi);
        self.expect_eof()?;
        Ok(q)
    }

    fn select_list(&mut self) -> ScrubResult<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(items)
    }

    /// One select item. An aggregate is admitted as `AGG(args)`,
    /// `k * AGG(args)` or `AGG(args) * k`, then an optional alias. A scale
    /// is folded into the argument, `AGG(k * arg)`, where that is exact:
    /// SUM and AVG by any `k`, MIN and MAX by `k >= 0`. Any other
    /// arithmetic around an aggregate is `Unsupported`.
    fn select_item(&mut self) -> ScrubResult<SelectItem> {
        // Read `k *` only in front of an aggregate call; anything else is
        // re-read from `start` as a select expression.
        let start = self.pos;
        let lead = match (self.number(), self.eat(&TokenKind::Star)) {
            (Some(k), true) => Some(k),
            _ => {
                self.pos = start;
                None
            }
        };
        let Some((func, arg)) = self.agg_call()? else {
            self.pos = start;
            let expr = self.expr_at(Site::Select)?;
            let alias = self.alias()?;
            return Ok(SelectItem::Expr { expr, alias });
        };
        let scale = match lead {
            Some(k) => Some((k, true)),
            None if self.eat(&TokenKind::Star) => {
                let k = self.number().ok_or_else(|| Site::Select.agg_error())?;
                Some((k, false))
            }
            None => None,
        };
        if self.continues_expr() {
            return Err(Site::Select.agg_error());
        }
        let Some((k, k_first)) = scale else {
            let alias = self.alias()?;
            return Ok(SelectItem::Agg { func, arg, alias });
        };
        let exact = match func {
            AggFn::Sum | AggFn::Avg => true,
            AggFn::Min | AggFn::Max => k.as_f64().is_some_and(|k| !k.is_sign_negative()),
            _ => false,
        };
        if !exact {
            return Err(ScrubError::Unsupported(format!(
                "{} cannot be scaled by {k}: only SUM and AVG by any constant, and MIN and \
                 MAX by one >= 0, scale exactly",
                func.name()
            )));
        }
        let k = Box::new(Expr::Literal(k));
        let arg = arg.map(|a| {
            let (lhs, rhs) = if k_first {
                (k, Box::new(a))
            } else {
                (Box::new(a), k)
            };
            Expr::Binary {
                op: BinOp::Mul,
                lhs,
                rhs,
            }
        });
        let alias = self.alias()?.or_else(|| Some("expr".into()));
        Ok(SelectItem::Agg { func, arg, alias })
    }

    fn alias(&mut self) -> ScrubResult<Option<String>> {
        if self.eat_kw("as") {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    fn parse_from_list(&mut self) -> ScrubResult<Vec<String>> {
        let mut types = vec![self.ident()?];
        loop {
            if self.eat(&TokenKind::Comma) {
                types.push(self.ident()?);
            } else if self.at_kw("join") || self.at_kw("inner") || self.at_kw("left") {
                if self.eat_kw("left") || self.eat_kw("outer") || self.eat_kw("full") {
                    return Err(ScrubError::Unsupported(
                        "only inner equi-joins on the request id are supported".into(),
                    ));
                }
                self.eat_kw("inner");
                self.expect_kw("join")?;
                let rhs = self.ident()?;
                self.expect_kw("on")?;
                let cond = self.expr_at(Site::JoinOn)?;
                let lhs_types = types.clone();
                check_equijoin_on_request_id(&cond, &lhs_types, &rhs)?;
                types.push(rhs);
            } else {
                break;
            }
        }
        Ok(types)
    }

    // ----- target clause --------------------------------------------------

    fn target(&mut self) -> ScrubResult<TargetExpr> {
        self.target_or()
    }

    fn target_or(&mut self) -> ScrubResult<TargetExpr> {
        let mut lhs = self.target_and()?;
        while self.eat_kw("or") {
            let rhs = self.target_and()?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn target_and(&mut self) -> ScrubResult<TargetExpr> {
        let mut lhs = self.target_not()?;
        while self.eat_kw("and") {
            let rhs = self.target_not()?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn target_not(&mut self) -> ScrubResult<TargetExpr> {
        if self.eat_kw("not") {
            Ok(TargetExpr::Not(Box::new(self.target_not()?)))
        } else {
            self.target_prim()
        }
    }

    fn target_prim(&mut self) -> ScrubResult<TargetExpr> {
        if self.eat(&TokenKind::LParen) {
            let t = self.target()?;
            self.expect(TokenKind::RParen)?;
            return Ok(t);
        }
        if self.eat_kw("all") {
            return Ok(TargetExpr::All);
        }
        let attr = self.ident()?;
        let attr_lc = attr.to_ascii_lowercase();
        let values = self.target_values()?;
        match attr_lc.as_str() {
            "service" | "services" => Ok(TargetExpr::Service(values)),
            "server" | "servers" | "host" | "hosts" => Ok(TargetExpr::Host(values)),
            "dc" | "datacenter" | "datacenters" => Ok(TargetExpr::Dc(values)),
            _ => Err(ScrubError::Parse {
                pos: self.here(),
                msg: format!("unknown target attribute `{attr}` (expected Service/Server/DC)"),
            }),
        }
    }

    fn target_values(&mut self) -> ScrubResult<Vec<String>> {
        if self.eat(&TokenKind::Eq) {
            Ok(vec![self.target_value()?])
        } else if self.eat_kw("in") {
            if self.eat(&TokenKind::LParen) {
                let mut vs = vec![self.target_value()?];
                while self.eat(&TokenKind::Comma) {
                    vs.push(self.target_value()?);
                }
                self.expect(TokenKind::RParen)?;
                Ok(vs)
            } else {
                // `Service in BidServers` — single unparenthesized set name
                Ok(vec![self.target_value()?])
            }
        } else {
            self.err("expected `=` or `in` in target clause")
        }
    }

    fn target_value(&mut self) -> ScrubResult<String> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            TokenKind::Str(s) => Ok(s),
            other => Err(ScrubError::Parse {
                pos: self.here(),
                msg: format!("expected host/service name, found {}", other.describe()),
            }),
        }
    }

    // ----- misc literals ---------------------------------------------------

    /// `10 s`, `20 m`, `500 ms`, ...
    fn duration(&mut self) -> ScrubResult<i64> {
        let count = match self.bump() {
            TokenKind::Int(v) if v > 0 => v,
            other => {
                return self.err(format!(
                    "expected positive duration count, found {}",
                    other.describe()
                ));
            }
        };
        let unit = self.ident()?;
        match duration_ms(count, &unit) {
            Some(ms) => Ok(ms),
            None if duration_ms(1, &unit).is_some() => {
                self.err(format!("duration {count} {unit} overflows"))
            }
            None => self.err(format!("unknown duration unit `{unit}`")),
        }
    }

    /// A numeric literal, possibly negated; nothing is consumed otherwise.
    fn number(&mut self) -> Option<Value> {
        let neg = *self.peek() == TokenKind::Minus;
        let v = match self.tokens[self.pos + usize::from(neg)].kind {
            TokenKind::Int(v) => Value::Long(if neg { -v } else { v }),
            TokenKind::Float(v) => Value::Double(if neg { -v } else { v }),
            _ => return None,
        };
        self.pos += usize::from(neg) + 1;
        Some(v)
    }

    /// `10%` or a float in (0, 1].
    fn fraction(&mut self) -> ScrubResult<f64> {
        let v = match self.bump() {
            TokenKind::Int(v) => v as f64,
            TokenKind::Float(v) => v,
            other => {
                return self.err(format!(
                    "expected sampling fraction, found {}",
                    other.describe()
                ));
            }
        };
        let frac = if self.eat(&TokenKind::Percent) {
            v / 100.0
        } else {
            v
        };
        if frac <= 0.0 || frac > 1.0 {
            return self.err(format!("sampling fraction {frac} outside (0, 1]"));
        }
        Ok(frac)
    }

    // ----- expressions -----------------------------------------------------

    fn expr(&mut self) -> ScrubResult<Expr> {
        self.or_expr()
    }

    fn expr_at(&mut self, site: Site) -> ScrubResult<Expr> {
        self.site = site;
        self.expr()
    }

    /// Does the expression grammar go on from here: a binary operator or a
    /// postfix predicate?
    fn continues_expr(&self) -> bool {
        use TokenKind::*;
        matches!(
            self.peek(),
            Plus | Minus | Star | Slash | Percent | Eq | Ne | Lt | Le | Gt | Ge
        ) || ["and", "or", "is", "in", "not", "between"]
            .iter()
            .any(|kw| self.at_kw(kw))
    }

    fn or_expr(&mut self) -> ScrubResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.at_kw("or") {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> ScrubResult<Expr> {
        let mut lhs = self.not_expr()?;
        while self.at_kw("and") {
            self.bump();
            let rhs = self.not_expr()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> ScrubResult<Expr> {
        if self.at_kw("not") {
            self.bump();
            let e = self.not_expr()?;
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            })
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> ScrubResult<Expr> {
        let lhs = self.add_expr()?;

        // postfix predicates: IS [NOT] NULL, [NOT] IN (...), [NOT] BETWEEN
        if self.at_kw("is") {
            self.bump();
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        let negated = if self.at_kw("not")
            && (matches!(self.peek2(), TokenKind::Ident(s) if s.eq_ignore_ascii_case("in") || s.eq_ignore_ascii_case("between")))
        {
            self.bump();
            true
        } else {
            false
        };
        if self.at_kw("in") {
            self.bump();
            self.expect(TokenKind::LParen)?;
            let mut list = vec![self.literal()?];
            while self.eat(&TokenKind::Comma) {
                list.push(self.literal()?);
            }
            self.expect(TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.at_kw("between") {
            self.bump();
            let lo = self.add_expr()?;
            self.expect_kw("and")?;
            let hi = self.add_expr()?;
            let range = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(Expr::Binary {
                    op: BinOp::Ge,
                    lhs: Box::new(lhs.clone()),
                    rhs: Box::new(lo),
                }),
                rhs: Box::new(Expr::Binary {
                    op: BinOp::Le,
                    lhs: Box::new(lhs),
                    rhs: Box::new(hi),
                }),
            };
            return Ok(if negated {
                Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(range),
                }
            } else {
                range
            });
        }
        if negated {
            return self.err("expected IN or BETWEEN after NOT");
        }

        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn add_expr(&mut self) -> ScrubResult<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> ScrubResult<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> ScrubResult<Expr> {
        if self.eat(&TokenKind::Minus) {
            let e = self.unary_expr()?;
            // fold literal negation
            return Ok(match e {
                Expr::Literal(Value::Int(v)) => Expr::Literal(Value::Int(-v)),
                Expr::Literal(Value::Long(v)) => Expr::Literal(Value::Long(-v)),
                Expr::Literal(Value::Double(v)) => Expr::Literal(Value::Double(-v)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> ScrubResult<Expr> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Literal(Value::Long(v)))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::Literal(Value::Double(v)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::Str(s)))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                // keywords-as-literals
                if name.eq_ignore_ascii_case("true") {
                    self.bump();
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("false") {
                    self.bump();
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                if name.eq_ignore_ascii_case("null") {
                    self.bump();
                    return Ok(Expr::Literal(Value::Null));
                }
                self.bump();
                // function call? (`call` refuses an aggregate here)
                if matches!(self.peek(), TokenKind::LParen) {
                    return self.call(name);
                }
                // qualified field?
                if self.eat(&TokenKind::Dot) {
                    let field = self.ident()?;
                    return Ok(Expr::Field(FieldRef::qualified(name, field)));
                }
                Ok(Expr::Field(FieldRef::bare(name)))
            }
            other => self.err(format!("expected expression, found {}", other.describe())),
        }
    }

    /// `AGG(args)` at the cursor, or `None` with nothing consumed.
    fn agg_call(&mut self) -> ScrubResult<Option<(AggFn, Option<Expr>)>> {
        let func = match (self.peek(), self.peek2()) {
            (TokenKind::Ident(name), TokenKind::LParen) => agg_by_name(name),
            _ => None,
        };
        let Some(func) = func else {
            return Ok(None);
        };
        self.bump();
        self.bump();
        let func = match func {
            // `COUNT(DISTINCT x)` is sugar for COUNT_DISTINCT(x)
            AggFn::Count if self.eat_kw("distinct") => AggFn::CountDistinct,
            AggFn::TopK(_) => {
                let k = match self.bump() {
                    TokenKind::Int(k) if k > 0 => k as usize,
                    other => {
                        return self.err(format!(
                            "TOP expects a positive integer k, found {}",
                            other.describe()
                        ));
                    }
                };
                self.expect(TokenKind::Comma)?;
                AggFn::TopK(k)
            }
            f => f,
        };
        let arg = if func == AggFn::Count && self.eat(&TokenKind::Star) {
            None
        } else {
            Some(self.expr_at(Site::AggArg)?)
        };
        self.expect(TokenKind::RParen)?;
        Ok(Some((func, arg)))
    }

    /// Parse a scalar call after having consumed `name`, at `(`.
    fn call(&mut self, name: String) -> ScrubResult<Expr> {
        if agg_by_name(&name).is_some() {
            return Err(self.site.agg_error());
        }
        self.expect(TokenKind::LParen)?;
        let func = ScalarFn::by_name(&name).ok_or(ScrubError::Parse {
            pos: self.here(),
            msg: format!("unknown function `{name}`"),
        })?;
        let mut args = Vec::new();
        if !matches!(self.peek(), TokenKind::RParen) {
            args.push(self.expr()?);
            while self.eat(&TokenKind::Comma) {
                args.push(self.expr()?);
            }
        }
        self.expect(TokenKind::RParen)?;
        if args.len() != func.arity() {
            return self.err(format!(
                "{name} expects {} argument(s), got {}",
                func.arity(),
                args.len()
            ));
        }
        Ok(Expr::Call { func, args })
    }

    fn literal(&mut self) -> ScrubResult<Value> {
        let neg = self.eat(&TokenKind::Minus);
        let v = match self.bump() {
            TokenKind::Int(v) => Value::Long(if neg { -v } else { v }),
            TokenKind::Float(v) => Value::Double(if neg { -v } else { v }),
            TokenKind::Str(s) if !neg => Value::Str(s),
            TokenKind::Ident(s) if !neg && s.eq_ignore_ascii_case("true") => Value::Bool(true),
            TokenKind::Ident(s) if !neg && s.eq_ignore_ascii_case("false") => Value::Bool(false),
            TokenKind::Ident(s) if !neg && s.eq_ignore_ascii_case("null") => Value::Null,
            other => {
                return self.err(format!("expected literal, found {}", other.describe()));
            }
        };
        Ok(v)
    }
}

/// The aggregate a call name denotes; `TOP`'s k is read by `agg_call`.
fn agg_by_name(name: &str) -> Option<AggFn> {
    Some(match name.to_ascii_lowercase().as_str() {
        "count" => AggFn::Count,
        "sum" => AggFn::Sum,
        "avg" | "mean" => AggFn::Avg,
        "min" => AggFn::Min,
        "max" => AggFn::Max,
        "count_distinct" | "countdistinct" => AggFn::CountDistinct,
        "top" | "topk" | "top_k" => AggFn::TopK(0),
        _ => return None,
    })
}

/// Validate that an explicit `JOIN ... ON` condition is exactly the
/// request-id equi-join — the only join ScrubQL admits (§3.2/§11).
fn check_equijoin_on_request_id(
    cond: &Expr,
    lhs_types: &[String],
    rhs_type: &str,
) -> ScrubResult<()> {
    if let Expr::Binary {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = cond
    {
        if let (Expr::Field(a), Expr::Field(b)) = (lhs.as_ref(), rhs.as_ref()) {
            let ok_side = |f: &FieldRef, allowed: &dyn Fn(&str) -> bool| {
                f.field == "request_id" && f.event_type.as_deref().map(allowed).unwrap_or(true)
            };
            let in_lhs = |t: &str| lhs_types.iter().any(|x| x == t);
            let is_rhs = |t: &str| t == rhs_type;
            let fwd = ok_side(a, &in_lhs) && ok_side(b, &is_rhs);
            let rev = ok_side(a, &is_rhs) && ok_side(b, &in_lhs);
            if fwd || rev {
                return Ok(());
            }
        }
    }
    Err(equijoin_only())
}

fn equijoin_only() -> ScrubError {
    ScrubError::Unsupported(
        "joins are restricted to equi-joins on the request identifier \
         (ON a.request_id = b.request_id)"
            .into(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_9_spam_query() {
        let q = parse_query(
            "Select bid.user_id, COUNT(*)\n\
             from bid\n\
             @[Service in BidServers and Server = host1]\n\
             group by bid.user_id;",
        )
        .unwrap();
        assert_eq!(q.from, vec!["bid"]);
        assert_eq!(q.select.len(), 2);
        assert!(matches!(
            q.select[1],
            SelectItem::Agg {
                func: AggFn::Count,
                arg: None,
                ..
            }
        ));
        assert_eq!(q.group_by.len(), 1);
        assert!(matches!(q.target, TargetExpr::And(_, _)));
    }

    #[test]
    fn figure_13_cpm_query_with_scaled_avg() {
        let q = parse_query(
            "Select 1000*AVG(impression.cost)\n\
             from impression\n\
             where impression.line_item_id = 42\n\
             @[Servers in (h1, h2, h3)];",
        )
        .unwrap();
        assert_eq!(q.from, vec!["impression"]);
        match &q.select[0] {
            SelectItem::Agg {
                func: AggFn::Avg,
                arg: Some(arg),
                ..
            } => {
                // wrapper folded into the argument: 1000 * cost
                let refs = arg.field_refs();
                assert_eq!(refs.len(), 1);
                assert_eq!(refs[0].field, "cost");
            }
            other => panic!("unexpected select item {other:?}"),
        }
        assert!(q.where_clause.is_some());
        assert!(matches!(&q.target, TargetExpr::Host(hs) if hs.len() == 3));
    }

    #[test]
    fn sampling_clause_figure_11_style() {
        let q = parse_query(
            "select COUNT(*) from impression \
             @[Service in PresentationServers and DC = DC1] \
             sample hosts 10% events 10% window 10 s group by impression.exchange_id",
        )
        .unwrap();
        assert!((q.sample.host_fraction - 0.1).abs() < 1e-12);
        assert!((q.sample.event_fraction - 0.1).abs() < 1e-12);
        assert_eq!(q.window_ms, Some(10_000));
    }

    #[test]
    fn sliding_window_clause() {
        let q = parse_query("select COUNT(*) from bid window 10 s slide 2 s").unwrap();
        assert_eq!(q.window_ms, Some(10_000));
        assert_eq!(q.slide_ms, Some(2_000));
        let q = parse_query("select COUNT(*) from bid window 10 s").unwrap();
        assert_eq!(q.slide_ms, None);
    }

    #[test]
    fn span_clauses() {
        let q =
            parse_query("select COUNT(*) from bid start in 5 m duration 20 m window 10 s").unwrap();
        assert_eq!(q.start, StartSpec::In(300_000));
        assert_eq!(q.duration_ms, Some(1_200_000));
        let q = parse_query("select COUNT(*) from bid start at 1234").unwrap();
        assert_eq!(q.start, StartSpec::At(1234));
        let q = parse_query("select COUNT(*) from bid start now").unwrap();
        assert_eq!(q.start, StartSpec::Now);
        let e = parse_query("select COUNT(*) from bid window 9999999999999999 h").unwrap_err();
        assert!(e.to_string().contains("overflows"), "{e}");
    }

    #[test]
    fn implicit_join_by_comma() {
        let q = parse_query("select COUNT(*) from bid, exclusion").unwrap();
        assert_eq!(q.from, vec!["bid", "exclusion"]);
        assert!(q.is_join());
    }

    #[test]
    fn explicit_equijoin_on_request_id_allowed() {
        let q = parse_query(
            "select COUNT(*) from auction join impression \
             on auction.request_id = impression.request_id",
        )
        .unwrap();
        assert_eq!(q.from, vec!["auction", "impression"]);
    }

    #[test]
    fn non_request_id_join_rejected() {
        let e = parse_query(
            "select COUNT(*) from auction join impression \
             on auction.line_item_id = impression.line_item_id",
        )
        .unwrap_err();
        assert!(matches!(e, ScrubError::Unsupported(_)));
    }

    #[test]
    fn outer_join_rejected() {
        let e = parse_query("select COUNT(*) from a left join b on a.request_id = b.request_id")
            .unwrap_err();
        assert!(matches!(e, ScrubError::Unsupported(_)));
    }

    #[test]
    fn non_equi_join_condition_rejected() {
        let e = parse_query("select COUNT(*) from a join b on a.request_id < b.request_id")
            .unwrap_err();
        assert!(matches!(e, ScrubError::Unsupported(_)));
    }

    #[test]
    fn having_and_order_by_unsupported() {
        assert!(matches!(
            parse_query("select COUNT(*) from bid group by bid.x having COUNT(*) > 1"),
            Err(ScrubError::Unsupported(_))
        ));
        assert!(matches!(
            parse_query("select bid.x from bid order by bid.x"),
            Err(ScrubError::Unsupported(_))
        ));
    }

    #[test]
    fn aggregates_all_forms() {
        let q = parse_query(
            "select COUNT(*), COUNT(bid.x), SUM(bid.x), AVG(bid.x), MIN(bid.x), \
             MAX(bid.x), TOP(5, bid.x), COUNT_DISTINCT(bid.x) from bid",
        )
        .unwrap();
        let funcs: Vec<AggFn> = q
            .select
            .iter()
            .map(|s| match s {
                SelectItem::Agg { func, .. } => func.clone(),
                _ => panic!("expected aggregate"),
            })
            .collect();
        assert_eq!(
            funcs,
            vec![
                AggFn::Count,
                AggFn::Count,
                AggFn::Sum,
                AggFn::Avg,
                AggFn::Min,
                AggFn::Max,
                AggFn::TopK(5),
                AggFn::CountDistinct
            ]
        );
    }

    #[test]
    fn nested_aggregates_rejected() {
        assert!(parse_query("select SUM(AVG(bid.x)) from bid").is_err());
        assert!(matches!(
            parse_query("select AVG(bid.x) + AVG(bid.y) from bid"),
            Err(ScrubError::Unsupported(_))
        ));
    }

    /// A scale is admitted where folding it into the argument is exact;
    /// every other wrapper is refused rather than answered wrongly.
    #[test]
    fn aggregate_scaling_admitted_only_where_exact() {
        let x = || Box::new(Expr::Field(FieldRef::qualified("bid", "x")));
        let k = |v: Value| Box::new(Expr::Literal(v));
        let mul = |lhs, rhs| {
            Some(Expr::Binary {
                op: BinOp::Mul,
                lhs,
                rhs,
            })
        };
        let expr = || Some("expr".to_string());
        let admitted = [
            (
                "1000*AVG(bid.x)",
                AggFn::Avg,
                mul(k(Value::Long(1000)), x()),
                expr(),
            ),
            (
                "SUM(bid.x) * -2",
                AggFn::Sum,
                mul(x(), k(Value::Long(-2))),
                expr(),
            ),
            (
                "-1.5 * SUM(bid.x)",
                AggFn::Sum,
                mul(k(Value::Double(-1.5)), x()),
                expr(),
            ),
            (
                "MIN(bid.x) * 0.5 as m",
                AggFn::Min,
                mul(x(), k(Value::Double(0.5))),
                Some("m".into()),
            ),
            (
                "0 * MAX(bid.x)",
                AggFn::Max,
                mul(k(Value::Long(0)), x()),
                expr(),
            ),
            ("MAX(bid.x)", AggFn::Max, Some(*x()), None),
        ];
        for (item, func, arg, alias) in admitted {
            let q = parse_query(&format!("select {item} from bid")).unwrap();
            assert_eq!(
                q.select,
                vec![SelectItem::Agg { func, arg, alias }],
                "{item}"
            );
        }
        for item in [
            "SUM(bid.x)+5",
            "5+SUM(bid.x)",
            "SUM(bid.x)%2",
            "SUM(bid.x)/3",
            "MAX(bid.x)*-1",
            "-0.0 * MIN(bid.x)",
            "2*COUNT(*)",
            "TOP(3, bid.x) * 2",
            "2 * 3 * SUM(bid.x)",
            "2 * SUM(bid.x) * 3",
            "abs(SUM(bid.x))",
        ] {
            assert!(
                matches!(
                    parse_query(&format!("select {item} from bid")),
                    Err(ScrubError::Unsupported(_))
                ),
                "{item}"
            );
        }
    }

    /// No string means anything (a NUL-led literal is a literal), and a
    /// bare expression holds no aggregate.
    #[test]
    fn nul_string_literals_are_plain_strings() {
        let q = parse_query("select abs(bid.x in ('\0agg:sum')) from bid").unwrap();
        assert!(matches!(q.select[0], SelectItem::Expr { .. }), "{q:?}");
        assert!(parse_expr("COUNT(*)").is_err());
    }

    #[test]
    fn nonlinear_agg_wrapper_rejected() {
        assert!(matches!(
            parse_query("select AVG(bid.x) * bid.y from bid"),
            Err(ScrubError::Unsupported(_))
        ));
    }

    #[test]
    fn where_expression_forms() {
        let q = parse_query(
            "select bid.x from bid where bid.x in (1, 2, 3) and bid.y not in ('a') \
             and bid.z is not null and bid.w between 1 and 10 and not bid.flag",
        )
        .unwrap();
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn expression_precedence() {
        // 1 + 2 * 3 = 7, not 9
        let e = parse_expr("1 + 2 * 3").unwrap();
        let r = e
            .resolve(&crate::expr::SlotBinder::new())
            .unwrap()
            .eval(&[]);
        assert_eq!(r, Value::Long(7));
        let e = parse_expr("(1 + 2) * 3").unwrap();
        let r = e
            .resolve(&crate::expr::SlotBinder::new())
            .unwrap()
            .eval(&[]);
        assert_eq!(r, Value::Long(9));
    }

    #[test]
    fn negative_literals() {
        let e = parse_expr("-5").unwrap();
        assert_eq!(e, Expr::Literal(Value::Long(-5)));
        let q = parse_query("select bid.x from bid where bid.x in (-1, -2.5)").unwrap();
        match q.where_clause.unwrap() {
            Expr::InList { list, .. } => {
                assert_eq!(list, vec![Value::Long(-1), Value::Double(-2.5)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aliases() {
        let q = parse_query("select AVG(bid.cost) as cpm, bid.x as ex from bid group by bid.x")
            .unwrap();
        assert_eq!(q.headers(), vec!["cpm", "ex"]);
    }

    #[test]
    fn target_clause_forms() {
        let q = parse_query("select COUNT(*) from bid @[all]").unwrap();
        assert_eq!(q.target, TargetExpr::All);
        let q = parse_query("select COUNT(*) from bid @[Service in (A, B) or DC = 'DC2']").unwrap();
        assert!(matches!(q.target, TargetExpr::Or(_, _)));
        let q = parse_query("select COUNT(*) from bid @[not Server = host9]").unwrap();
        assert!(matches!(q.target, TargetExpr::Not(_)));
        assert!(parse_query("select COUNT(*) from bid @[Planet = mars]").is_err());
    }

    #[test]
    fn duplicate_clauses_rejected() {
        assert!(parse_query("select COUNT(*) from bid where 1=1 where 2=2").is_err());
        assert!(parse_query("select COUNT(*) from bid @[all] @[all]").is_err());
        assert!(parse_query("select COUNT(*) from bid window 1 s window 2 s").is_err());
        assert!(parse_query("select COUNT(*) from bid duration 1 m duration 2 m").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_query("select COUNT(*) from bid garbage garbage").is_err());
    }

    #[test]
    fn unknown_function_rejected() {
        assert!(parse_query("select FROB(bid.x) from bid").is_err());
    }

    #[test]
    fn scalar_functions_in_where() {
        let q = parse_query(
            "select bid.x from bid where starts_with(bid.city, 'san') and length(bid.city) > 3",
        )
        .unwrap();
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn bad_sampling_fractions_rejected() {
        assert!(parse_query("select COUNT(*) from bid sample hosts 0%").is_err());
        assert!(parse_query("select COUNT(*) from bid sample events 150%").is_err());
        assert!(parse_query("select COUNT(*) from bid sample").is_err());
    }

    #[test]
    fn fraction_without_percent_sign() {
        let q = parse_query("select COUNT(*) from bid sample events 0.25").unwrap();
        assert!((q.sample.event_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn count_distinct_sugar() {
        let q = parse_query("select COUNT(distinct bid.user_id) from bid").unwrap();
        assert!(matches!(
            q.select[0],
            SelectItem::Agg {
                func: AggFn::CountDistinct,
                ..
            }
        ));
    }

    #[test]
    fn count_distinct_and_top() {
        let q = parse_query("select COUNT_DISTINCT(bid.user_id), TOP(10, bid.user_id) from bid")
            .unwrap();
        assert!(matches!(
            q.select[0],
            SelectItem::Agg {
                func: AggFn::CountDistinct,
                ..
            }
        ));
        assert!(matches!(
            q.select[1],
            SelectItem::Agg {
                func: AggFn::TopK(10),
                ..
            }
        ));
    }
}
