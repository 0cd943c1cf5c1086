//! Recursive-descent parser for the aimdb SQL dialect.
//!
//! Grammar highlights:
//! - classic DDL/DML: CREATE/DROP TABLE, CREATE/DROP INDEX, INSERT, UPDATE,
//!   DELETE, SELECT with comma-joins, `JOIN ... ON`, WHERE, GROUP BY,
//!   ORDER BY, LIMIT;
//! - transactions: BEGIN / COMMIT / ROLLBACK;
//! - self-driving surface: EXPLAIN, ANALYZE, `SET knob = value`;
//! - AISQL (DB4AI §2.2): `CREATE MODEL`, `DROP MODEL`, `PREDICT ... GIVEN`.

use aimdb_common::{AimError, DataType, Result, Value};

use crate::ast::*;
use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::lexer::{tokenize, Token};

/// Parse a string of one or more `;`-separated statements.
///
/// ```
/// use aimdb_sql::parser::parse;
/// use aimdb_sql::Statement;
///
/// let stmts = parse("CREATE TABLE t (a INT); SELECT a FROM t WHERE a > 1;").unwrap();
/// assert_eq!(stmts.len(), 2);
/// assert!(matches!(stmts[1], Statement::Select(_)));
/// ```
pub fn parse(input: &str) -> Result<Vec<Statement>> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut stmts = Vec::new();
    while !p.at_end() {
        if p.eat_token(&Token::Semi) {
            continue;
        }
        stmts.push(p.statement()?);
    }
    Ok(stmts)
}

/// Parse exactly one statement.
pub fn parse_one(input: &str) -> Result<Statement> {
    let mut stmts = parse(input)?;
    match stmts.len() {
        1 => Ok(stmts.remove(0)),
        n => Err(AimError::Parse(format!("expected 1 statement, got {n}"))),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| AimError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_token(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(t) if t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(AimError::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_token(&mut self, t: Token) -> Result<()> {
        if self.eat_token(&t) {
            Ok(())
        } else {
            Err(AimError::Parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(AimError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn peek_is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(t) if t.is_kw(kw))
    }

    // ---- statements -----------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        let t = self
            .peek()
            .ok_or_else(|| AimError::Parse("empty statement".into()))?
            .clone();
        match &t {
            t if t.is_kw("CREATE") => self.create(),
            t if t.is_kw("DROP") => self.drop(),
            t if t.is_kw("INSERT") => self.insert(),
            t if t.is_kw("SELECT") => Ok(Statement::Select(self.select()?)),
            t if t.is_kw("UPDATE") => self.update(),
            t if t.is_kw("DELETE") => self.delete(),
            t if t.is_kw("BEGIN") => {
                self.pos += 1;
                Ok(Statement::Begin)
            }
            t if t.is_kw("COMMIT") => {
                self.pos += 1;
                Ok(Statement::Commit)
            }
            t if t.is_kw("ROLLBACK") || t.is_kw("ABORT") => {
                self.pos += 1;
                Ok(Statement::Rollback)
            }
            t if t.is_kw("EXPLAIN") => {
                self.pos += 1;
                // `EXPLAIN ANALYZE SELECT ...` executes under a trace;
                // `EXPLAIN ANALYZE [table]` keeps its old meaning (explain
                // the stats-rebuild statement).
                let analyze_select = matches!(self.peek(), Some(t) if t.is_kw("ANALYZE"))
                    && matches!(self.peek2(), Some(t) if t.is_kw("SELECT"));
                if analyze_select {
                    self.pos += 1;
                    let inner = self.statement()?;
                    Ok(Statement::ExplainAnalyze(Box::new(inner)))
                } else {
                    let inner = self.statement()?;
                    Ok(Statement::Explain(Box::new(inner)))
                }
            }
            t if t.is_kw("ANALYZE") => {
                self.pos += 1;
                let table = match self.peek() {
                    Some(Token::Ident(_)) => Some(self.ident()?),
                    _ => None,
                };
                Ok(Statement::Analyze { table })
            }
            t if t.is_kw("SET") => {
                self.pos += 1;
                let knob = self.ident()?;
                self.expect_token(Token::Eq)?;
                let value = self.literal_value()?;
                Ok(Statement::Set { knob, value })
            }
            t if t.is_kw("SHOW") => {
                self.pos += 1;
                Ok(Statement::Show {
                    knob: self.ident()?,
                })
            }
            t if t.is_kw("PREDICT") => {
                self.pos += 1;
                let model = self.ident()?;
                self.expect_kw("GIVEN")?;
                self.expect_token(Token::LParen)?;
                let inputs = self.expr_list(Token::RParen)?;
                Ok(Statement::Predict { model, inputs })
            }
            other => Err(AimError::Parse(format!("unexpected token {other:?}"))),
        }
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        if self.eat_kw("TABLE") {
            let name = self.ident()?;
            self.expect_token(Token::LParen)?;
            let mut columns = Vec::new();
            loop {
                let cname = self.ident()?;
                let tname = self.ident()?;
                let data_type = DataType::parse(&tname)?;
                let mut not_null = false;
                if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    not_null = true;
                }
                columns.push(ColumnDef {
                    name: cname,
                    data_type,
                    not_null,
                });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(Token::RParen)?;
            Ok(Statement::CreateTable { name, columns })
        } else if self.eat_kw("INDEX") {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            self.expect_token(Token::LParen)?;
            let column = self.ident()?;
            self.expect_token(Token::RParen)?;
            Ok(Statement::CreateIndex {
                name,
                table,
                column,
            })
        } else if self.eat_kw("MODEL") {
            let name = self.ident()?;
            self.expect_kw("KIND")?;
            let kname = self.ident()?;
            let kind = ModelKind::parse(&kname)
                .ok_or_else(|| AimError::Parse(format!("unknown model kind {kname}")))?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            self.expect_token(Token::LParen)?;
            let mut features = vec![self.ident()?];
            while self.eat_token(&Token::Comma) {
                features.push(self.ident()?);
            }
            self.expect_token(Token::RParen)?;
            let label = if self.eat_kw("LABEL") {
                Some(self.ident()?)
            } else {
                None
            };
            let mut params = Vec::new();
            if self.eat_kw("WITH") {
                self.expect_token(Token::LParen)?;
                loop {
                    let k = self.ident()?;
                    self.expect_token(Token::Eq)?;
                    let v = self.literal_value()?;
                    params.push((k, v));
                    if !self.eat_token(&Token::Comma) {
                        break;
                    }
                }
                self.expect_token(Token::RParen)?;
            }
            Ok(Statement::CreateModel {
                name,
                kind,
                table,
                features,
                label,
                params,
            })
        } else {
            Err(AimError::Parse(
                "CREATE must be followed by TABLE, INDEX or MODEL".into(),
            ))
        }
    }

    fn drop(&mut self) -> Result<Statement> {
        self.expect_kw("DROP")?;
        if self.eat_kw("TABLE") {
            Ok(Statement::DropTable {
                name: self.ident()?,
            })
        } else if self.eat_kw("INDEX") {
            Ok(Statement::DropIndex {
                name: self.ident()?,
            })
        } else if self.eat_kw("MODEL") {
            Ok(Statement::DropModel {
                name: self.ident()?,
            })
        } else {
            Err(AimError::Parse(
                "DROP must be followed by TABLE, INDEX or MODEL".into(),
            ))
        }
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat_token(&Token::LParen) {
            let mut cols = vec![self.ident()?];
            while self.eat_token(&Token::Comma) {
                cols.push(self.ident()?);
            }
            self.expect_token(Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_token(Token::LParen)?;
            rows.push(self.expr_list(Token::RParen)?);
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let mut items = Vec::new();
        loop {
            if self.eat_token(&Token::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        let mut joins = Vec::new();
        if self.eat_kw("FROM") {
            from.push(self.table_ref()?);
            loop {
                if self.eat_token(&Token::Comma) {
                    from.push(self.table_ref()?);
                } else if self.eat_kw("JOIN") || {
                    if self.peek_is_kw("INNER") {
                        self.pos += 1;
                        self.expect_kw("JOIN")?;
                        true
                    } else {
                        false
                    }
                } {
                    let table = self.table_ref()?;
                    self.expect_kw("ON")?;
                    let on = self.expr()?;
                    joins.push(JoinClause { table, on });
                } else {
                    break;
                }
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.expr()?);
            while self.eat_token(&Token::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.next()? {
                Token::Int(n) if n >= 0 => Some(n as usize),
                other => {
                    return Err(AimError::Parse(format!(
                        "LIMIT expects a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Select {
            items,
            from,
            joins,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        // bare alias (not a clause keyword) or AS alias
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            match self.peek() {
                Some(Token::Ident(s)) if !is_clause_keyword(s) => Some(self.ident()?),
                _ => None,
            }
        };
        Ok(TableRef { name, alias })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_token(Token::Eq)?;
            let e = self.expr()?;
            assignments.push((col, e));
            if !self.eat_token(&Token::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            where_clause,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            where_clause,
        })
    }

    // ---- expressions ----------------------------------------------------

    fn expr_list(&mut self, terminator: Token) -> Result<Vec<Expr>> {
        let mut out = Vec::new();
        if self.eat_token(&terminator) {
            return Ok(out);
        }
        loop {
            out.push(self.expr()?);
            if self.eat_token(&Token::Comma) {
                continue;
            }
            self.expect_token(terminator)?;
            return Ok(out);
        }
    }

    /// Entry point: lowest precedence (OR).
    pub(crate) fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // postfix predicates
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.peek_is_kw("NOT")
            && matches!(self.peek2(), Some(t) if t.is_kw("BETWEEN") || t.is_kw("IN") || t.is_kw("LIKE"))
        {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.eat_kw("BETWEEN") {
            let lo = self.additive()?;
            self.expect_kw("AND")?;
            let hi = self.additive()?;
            let between = Expr::Between {
                expr: Box::new(left),
                lo: Box::new(lo),
                hi: Box::new(hi),
            };
            return Ok(if negated {
                Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(between),
                }
            } else {
                between
            });
        }
        if self.eat_kw("IN") {
            self.expect_token(Token::LParen)?;
            let list = self.expr_list(Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = match self.next()? {
                Token::Str(s) => s,
                other => {
                    return Err(AimError::Parse(format!(
                        "LIKE expects a string pattern, found {other:?}"
                    )))
                }
            };
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern,
                negated,
            });
        }
        if negated {
            return Err(AimError::Parse(
                "NOT must be followed by BETWEEN, IN or LIKE here".into(),
            ));
        }
        let op = match self.peek() {
            Some(Token::Eq) => BinaryOp::Eq,
            Some(Token::Neq) => BinaryOp::Neq,
            Some(Token::Lt) => BinaryOp::Lt,
            Some(Token::Lte) => BinaryOp::Lte,
            Some(Token::Gt) => BinaryOp::Gt,
            Some(Token::Gte) => BinaryOp::Gte,
            _ => return Ok(left),
        };
        self.pos += 1;
        let right = self.additive()?;
        Ok(Expr::binary(left, op, right))
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => return Ok(left),
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = Expr::binary(left, op, right);
        }
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Mod,
                _ => return Ok(left),
            };
            self.pos += 1;
            let right = self.unary()?;
            left = Expr::binary(left, op, right);
        }
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_token(&Token::Minus) {
            let inner = self.unary()?;
            // fold literal negation for cleaner plans
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.next()? {
            Token::Int(i) => Ok(Expr::Literal(Value::Int(i))),
            Token::Float(f) => Ok(Expr::Literal(Value::Float(f))),
            Token::Str(s) => Ok(Expr::Literal(Value::Text(s))),
            Token::LParen => {
                let e = self.expr()?;
                self.expect_token(Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                if RESERVED.iter().any(|k| name.eq_ignore_ascii_case(k)) {
                    return Err(AimError::Parse(format!(
                        "reserved word {name} cannot start an expression"
                    )));
                }
                if name.eq_ignore_ascii_case("TRUE") {
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                if name.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if self.eat_token(&Token::LParen) {
                    // function call; COUNT(*) handled specially
                    if name.eq_ignore_ascii_case("COUNT") && self.eat_token(&Token::Star) {
                        self.expect_token(Token::RParen)?;
                        return Ok(Expr::Function {
                            name: "COUNT".into(),
                            args: vec![],
                        });
                    }
                    let args = self.expr_list(Token::RParen)?;
                    return Ok(Expr::Function { name, args });
                }
                if self.eat_token(&Token::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column {
                    qualifier: None,
                    name,
                })
            }
            other => Err(AimError::Parse(format!(
                "unexpected token in expression: {other:?}"
            ))),
        }
    }

    fn literal_value(&mut self) -> Result<Value> {
        match self.expr()? {
            Expr::Literal(v) => Ok(v),
            other => Err(AimError::Parse(format!(
                "expected a literal value, found {other:?}"
            ))),
        }
    }
}

/// Words that may never begin an expression (they would otherwise lex as
/// ordinary identifiers and silently become column references).
const RESERVED: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "LIMIT", "JOIN", "INNER", "ON", "VALUES",
    "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "TABLE", "INDEX", "MODEL", "INTO", "BY",
];

fn is_clause_keyword(s: &str) -> bool {
    const KW: &[&str] = &[
        "WHERE", "GROUP", "ORDER", "LIMIT", "JOIN", "INNER", "ON", "SET", "VALUES", "AS", "AND",
        "OR", "NOT", "LABEL", "WITH", "KIND", "GIVEN", "UNION",
    ];
    KW.iter().any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table() {
        let s = parse_one("CREATE TABLE t (id INT NOT NULL, name TEXT, score FLOAT)").unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "t");
                assert_eq!(columns.len(), 3);
                assert!(columns[0].not_null);
                assert!(!columns[1].not_null);
                assert_eq!(columns[2].data_type, DataType::Float);
            }
            other => panic!("wrong stmt {other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let s = parse_one("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
            }
            other => panic!("wrong stmt {other:?}"),
        }
    }

    #[test]
    fn select_full_clause_set() {
        let s = parse_one(
            "SELECT a, SUM(b) AS total FROM t WHERE a > 1 AND b <= 2.5 \
             GROUP BY a ORDER BY total DESC LIMIT 10",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.items.len(), 2);
                assert_eq!(sel.from.len(), 1);
                assert!(sel.where_clause.is_some());
                assert_eq!(sel.group_by.len(), 1);
                assert_eq!(sel.order_by.len(), 1);
                assert!(sel.order_by[0].desc);
                assert_eq!(sel.limit, Some(10));
            }
            other => panic!("wrong stmt {other:?}"),
        }
    }

    #[test]
    fn joins_explicit_and_comma() {
        let s = parse_one("SELECT * FROM a, b JOIN c ON a.x = c.x WHERE a.x = b.y").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.from.len(), 2);
                assert_eq!(sel.joins.len(), 1);
                assert_eq!(sel.joins[0].table.name, "c");
            }
            other => panic!("wrong stmt {other:?}"),
        }
    }

    #[test]
    fn table_alias() {
        let s = parse_one("SELECT o.id FROM orders o WHERE o.id = 1").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.from[0].alias.as_deref(), Some("o"));
            }
            other => panic!("wrong stmt {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        // a + b * 2 = c OR d  parses as ((a + (b*2)) = c) OR d
        let s = parse_one("SELECT * FROM t WHERE a + b * 2 = c OR d").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let w = sel.where_clause.unwrap();
        match w {
            Expr::Binary {
                op: BinaryOp::Or,
                left,
                ..
            } => match *left {
                Expr::Binary {
                    op: BinaryOp::Eq,
                    left,
                    ..
                } => match *left {
                    Expr::Binary {
                        op: BinaryOp::Add,
                        right,
                        ..
                    } => {
                        assert!(matches!(
                            *right,
                            Expr::Binary {
                                op: BinaryOp::Mul,
                                ..
                            }
                        ));
                    }
                    other => panic!("expected Add, got {other:?}"),
                },
                other => panic!("expected Eq, got {other:?}"),
            },
            other => panic!("expected Or at top, got {other:?}"),
        }
    }

    #[test]
    fn between_in_like_not() {
        let s = parse_one(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1,2) AND c NOT LIKE 'x%' AND d IS NOT NULL",
        )
        .unwrap();
        let Statement::Select(sel) = s else { panic!() };
        let conj = sel.where_clause.unwrap();
        assert_eq!(conj.conjuncts().len(), 4);
    }

    #[test]
    fn count_star() {
        let s = parse_one("SELECT COUNT(*) FROM t").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        match &sel.items[0] {
            SelectItem::Expr {
                expr: Expr::Function { name, args },
                ..
            } => {
                assert_eq!(name, "COUNT");
                assert!(args.is_empty());
            }
            other => panic!("wrong item {other:?}"),
        }
    }

    #[test]
    fn update_delete() {
        let s = parse_one("UPDATE t SET a = a + 1, b = 'z' WHERE id = 3").unwrap();
        assert!(matches!(s, Statement::Update { ref assignments, .. } if assignments.len() == 2));
        let s = parse_one("DELETE FROM t WHERE id = 3").unwrap();
        assert!(matches!(s, Statement::Delete { .. }));
    }

    #[test]
    fn transactions_and_admin() {
        assert_eq!(parse_one("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse_one("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(parse_one("ROLLBACK").unwrap(), Statement::Rollback);
        let s = parse_one("SET work_mem = 4096").unwrap();
        assert!(
            matches!(s, Statement::Set { ref knob, value: Value::Int(4096) } if knob == "work_mem")
        );
        let s = parse_one("-- why\nshow work_mem;").unwrap();
        assert!(matches!(s, Statement::Show { ref knob } if knob == "work_mem"));
        assert!(parse_one("SHOW").is_err());
        let s = parse_one("ANALYZE t").unwrap();
        assert!(matches!(s, Statement::Analyze { table: Some(ref t) } if t == "t"));
        let s = parse_one("EXPLAIN SELECT * FROM t").unwrap();
        assert!(matches!(s, Statement::Explain(_)));
    }

    #[test]
    fn explain_analyze_forms() {
        let s = parse_one("EXPLAIN ANALYZE SELECT a FROM t WHERE a > 1").unwrap();
        match s {
            Statement::ExplainAnalyze(inner) => {
                assert!(matches!(*inner, Statement::Select(_)))
            }
            other => panic!("expected ExplainAnalyze, got {other:?}"),
        }
        // bare EXPLAIN ANALYZE keeps its old meaning: explain the
        // stats-rebuild statement
        let s = parse_one("EXPLAIN ANALYZE t").unwrap();
        match s {
            Statement::Explain(inner) => {
                assert!(matches!(*inner, Statement::Analyze { table: Some(ref t) } if t == "t"))
            }
            other => panic!("expected Explain(Analyze), got {other:?}"),
        }
        let s = parse_one("EXPLAIN ANALYZE").unwrap();
        assert!(matches!(s, Statement::Explain(_)));
        assert!(parse_one("EXPLAIN ANALYZE SELECT").is_err());
    }

    #[test]
    fn create_model_full() {
        let s = parse_one(
            "CREATE MODEL stay KIND LINEAR ON patients (age, severity) LABEL days WITH (epochs = 50, lr = 0.1)",
        )
        .unwrap();
        match s {
            Statement::CreateModel {
                name,
                kind,
                table,
                features,
                label,
                params,
            } => {
                assert_eq!(name, "stay");
                assert_eq!(kind, ModelKind::Linear);
                assert_eq!(table, "patients");
                assert_eq!(features, vec!["age", "severity"]);
                assert_eq!(label.as_deref(), Some("days"));
                assert_eq!(params.len(), 2);
                assert_eq!(params[1].1, Value::Float(0.1));
            }
            other => panic!("wrong stmt {other:?}"),
        }
    }

    #[test]
    fn predict_statement_and_scalar() {
        let s = parse_one("PREDICT stay GIVEN (63, 2.5)").unwrap();
        assert!(
            matches!(s, Statement::Predict { ref model, ref inputs } if model == "stay" && inputs.len() == 2)
        );
        // PREDICT as a scalar function inside a query (hybrid DB&AI)
        let s =
            parse_one("SELECT name FROM patients WHERE PREDICT(stay, age, severity) > 3").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert!(sel.where_clause.is_some());
    }

    #[test]
    fn multiple_statements() {
        let stmts =
            parse("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;").unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn negative_literals_fold() {
        let s = parse_one("SELECT * FROM t WHERE a = -5").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        match sel.where_clause.unwrap() {
            Expr::Binary { right, .. } => assert_eq!(*right, Expr::Literal(Value::Int(-5))),
            other => panic!("wrong expr {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_one("SELEC * FROM t").is_err());
        assert!(parse_one("SELECT FROM").is_err());
        assert!(parse_one("CREATE VIEW v").is_err());
        assert!(parse_one("SELECT * FROM t LIMIT -1").is_err());
        assert!(parse_one("INSERT INTO t VALUES (1); SELECT 1").is_err()); // parse_one rejects 2
    }
}
