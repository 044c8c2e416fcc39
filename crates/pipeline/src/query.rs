//! A Dremel-like SQL query engine for performance forensics.
//!
//! §5: "Job owners and administrators can issue SQL-like queries against
//! this data using Dremel to conduct performance forensics, e.g., to find
//! the most aggressive antagonists for a job in a particular time window."
//!
//! Supported grammar (case-insensitive keywords):
//!
//! ```text
//! SELECT <item> [, <item>]* FROM <table>
//!   [WHERE <expr>] [GROUP BY <col> [, <col>]*]
//!   [ORDER BY <key> [ASC|DESC] [, ...]] [LIMIT <n>]
//!
//! item  := * | col | COUNT(*) | COUNT(col) | SUM(col) | AVG(col)
//!        | MIN(col) | MAX(col)
//! expr  := cmp (AND|OR cmp)*        -- AND binds tighter than OR
//! cmp   := term (= | != | < | <= | > | >=) term
//!        | term BETWEEN term AND term
//!        | term LIKE 'pattern'       -- % matches any run of characters
//! term  := col | number | 'string' | TRUE | FALSE
//! ```

use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt;

/// A scalar cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing / null.
    Null,
    /// Boolean.
    Bool(bool),
    /// Numeric (all numbers are f64).
    Num(f64),
    /// String.
    Str(String),
}

impl Value {
    /// Numeric view, if the value is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Num(_) => 2,
            Value::Str(_) => 3,
        }
    }

    fn cmp_total(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self, other) {
            (Value::Num(a), Value::Num(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n:.4}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One record: column → value.
pub type Row = BTreeMap<String, Value>;

/// A named table of rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            rows: Vec::new(),
        }
    }

    /// Builds a table from serializable records, flattening nested objects
    /// with dotted column names (`action.cpu_rate`).
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn from_records<T: Serialize>(
        name: impl Into<String>,
        records: &[T],
    ) -> Result<Self, serde_json::Error> {
        let mut rows = Vec::with_capacity(records.len());
        for r in records {
            let mut row = Row::new();
            flatten(String::new(), serde_json::to_value(r)?, &mut row);
            rows.push(row);
        }
        Ok(Table {
            name: name.into(),
            rows,
        })
    }
}

/// Moves `v`'s scalars into `out` under dotted column names; keys and
/// strings are moved, not copied.
fn flatten(prefix: String, v: serde_json::Value, out: &mut Row) {
    match v {
        serde_json::Value::Object(map) => {
            for (k, v) in map {
                let key = if prefix.is_empty() {
                    k
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(key, v, out);
            }
        }
        serde_json::Value::Array(items) => {
            out.insert(format!("{prefix}.len"), Value::Num(items.len() as f64));
            // Index the first few elements (suspect lists etc.).
            for (i, item) in items.into_iter().take(5).enumerate() {
                flatten(format!("{prefix}.{i}"), item, out);
            }
        }
        serde_json::Value::Null => {
            out.insert(prefix, Value::Null);
        }
        serde_json::Value::Bool(b) => {
            out.insert(prefix, Value::Bool(b));
        }
        serde_json::Value::Number(n) => {
            out.insert(prefix, Value::Num(n.as_f64().unwrap_or(0.0)));
        }
        serde_json::Value::String(s) => {
            out.insert(prefix, Value::Str(s));
        }
    }
}

/// Query-engine errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Lexical or syntactic problem, with a description.
    Parse(String),
    /// The FROM table does not exist.
    UnknownTable(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(m) => write!(f, "parse error: {m}"),
            QueryError::UnknownTable(t) => write!(f, "unknown table: {t}"),
        }
    }
}

impl std::error::Error for QueryError {}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64),
    Str(String),
    Star,
    Comma,
    LParen,
    RParen,
    Op(String),
}

fn lex(input: &str) -> Result<Vec<Tok>, QueryError> {
    let mut toks = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                while i < chars.len() && chars[i] != '\'' {
                    s.push(chars[i]);
                    i += 1;
                }
                if i >= chars.len() {
                    return Err(QueryError::Parse("unterminated string".into()));
                }
                i += 1; // closing quote
                toks.push(Tok::Str(s));
            }
            '=' => {
                toks.push(Tok::Op("=".into()));
                i += 1;
            }
            '!' | '<' | '>' => {
                let mut op = c.to_string();
                if i + 1 < chars.len() && chars[i + 1] == '=' {
                    op.push('=');
                    i += 1;
                }
                if op == "!" {
                    return Err(QueryError::Parse("lone '!'".into()));
                }
                toks.push(Tok::Op(op));
                i += 1;
            }
            c if c.is_ascii_digit() || c == '-' || c == '.' => {
                let start = i;
                i += 1;
                while i < chars.len()
                    && (chars[i].is_ascii_digit()
                        || chars[i] == '.'
                        || chars[i] == 'e'
                        || chars[i] == 'E'
                        || chars[i] == '+'
                        || (chars[i] == '-' && matches!(chars[i - 1], 'e' | 'E')))
                {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                let n: f64 = text
                    .parse()
                    .map_err(|_| QueryError::Parse(format!("bad number '{text}'")))?;
                toks.push(Tok::Num(n));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
                {
                    i += 1;
                }
                toks.push(Tok::Ident(chars[start..i].iter().collect()));
            }
            other => return Err(QueryError::Parse(format!("unexpected char '{other}'"))),
        }
    }
    Ok(toks)
}

// ----------------------------------------------------------------- ast ---

#[derive(Debug, Clone, PartialEq)]
enum Agg {
    CountStar,
    Count(String),
    Sum(String),
    Avg(String),
    Min(String),
    Max(String),
}

#[derive(Debug, Clone, PartialEq)]
enum SelectItem {
    AllColumns,
    Column(String),
    Aggregate(Agg),
}

#[derive(Debug, Clone, PartialEq)]
enum Term {
    Column(String),
    Lit(Value),
}

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Cmp(Term, String, Term),
    Between(Term, Term, Term),
    Like(Term, String),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
}

/// A parsed statement. Parsing first tells a caller which table the
/// `FROM` reads ([`Query::table`]), so it can materialise that one alone
/// before [`Dataset::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    select: Vec<SelectItem>,
    from: String,
    filter: Option<Expr>,
    group_by: Vec<String>,
    order_by: Vec<(String, bool)>, // (key, descending)
    limit: Option<usize>,
}

impl Query {
    /// Parses one statement of the module's grammar.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::Parse`] on lexical or syntax errors.
    pub fn parse(sql: &str) -> Result<Query, QueryError> {
        let toks = lex(sql)?;
        Parser { toks, pos: 0 }.query()
    }

    /// The table the `FROM` clause names.
    pub fn table(&self) -> &str {
        &self.from
    }
}

// ---------------------------------------------------------------- parser --

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(w)) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(QueryError::Parse(format!("expected {kw}")))
        }
    }

    fn ident(&mut self) -> Result<String, QueryError> {
        match self.next() {
            Some(Tok::Ident(w)) => Ok(w),
            other => Err(QueryError::Parse(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }

    fn select_item(&mut self) -> Result<SelectItem, QueryError> {
        if matches!(self.peek(), Some(Tok::Star)) {
            self.pos += 1;
            return Ok(SelectItem::AllColumns);
        }
        let name = self.ident()?;
        if matches!(self.peek(), Some(Tok::LParen)) {
            self.pos += 1;
            let arg_star = matches!(self.peek(), Some(Tok::Star));
            let arg = if arg_star {
                self.pos += 1;
                String::new()
            } else {
                self.ident()?
            };
            match self.next() {
                Some(Tok::RParen) => {}
                _ => return Err(QueryError::Parse("expected ')'".into())),
            }
            let lower = name.to_ascii_lowercase();
            let agg = match (lower.as_str(), arg_star) {
                ("count", true) => Agg::CountStar,
                ("count", false) => Agg::Count(arg),
                ("sum", false) => Agg::Sum(arg),
                ("avg", false) => Agg::Avg(arg),
                ("min", false) => Agg::Min(arg),
                ("max", false) => Agg::Max(arg),
                _ => return Err(QueryError::Parse(format!("unknown aggregate {name}"))),
            };
            Ok(SelectItem::Aggregate(agg))
        } else {
            Ok(SelectItem::Column(name))
        }
    }

    fn term(&mut self) -> Result<Term, QueryError> {
        match self.next() {
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("true") => {
                Ok(Term::Lit(Value::Bool(true)))
            }
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("false") => {
                Ok(Term::Lit(Value::Bool(false)))
            }
            Some(Tok::Ident(w)) => Ok(Term::Column(w)),
            Some(Tok::Num(n)) => Ok(Term::Lit(Value::Num(n))),
            Some(Tok::Str(s)) => Ok(Term::Lit(Value::Str(s))),
            other => Err(QueryError::Parse(format!("expected term, got {other:?}"))),
        }
    }

    fn comparison(&mut self) -> Result<Expr, QueryError> {
        let lhs = self.term()?;
        if self.keyword("between") {
            let lo = self.term()?;
            self.expect_keyword("and")?;
            let hi = self.term()?;
            return Ok(Expr::Between(lhs, lo, hi));
        }
        if self.keyword("like") {
            match self.next() {
                Some(Tok::Str(p)) => return Ok(Expr::Like(lhs, p)),
                other => {
                    return Err(QueryError::Parse(format!(
                        "LIKE expects a string pattern, got {other:?}"
                    )))
                }
            }
        }
        let op = match self.next() {
            Some(Tok::Op(op)) => op,
            other => {
                return Err(QueryError::Parse(format!(
                    "expected operator, got {other:?}"
                )))
            }
        };
        let rhs = self.term()?;
        Ok(Expr::Cmp(lhs, op, rhs))
    }

    fn conjunction(&mut self) -> Result<Expr, QueryError> {
        let mut e = self.comparison()?;
        while self.keyword("and") {
            let rhs = self.comparison()?;
            e = Expr::And(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn expr(&mut self) -> Result<Expr, QueryError> {
        let mut e = self.conjunction()?;
        while self.keyword("or") {
            let rhs = self.conjunction()?;
            e = Expr::Or(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn query(&mut self) -> Result<Query, QueryError> {
        self.expect_keyword("select")?;
        let mut select = vec![self.select_item()?];
        while matches!(self.peek(), Some(Tok::Comma)) {
            self.pos += 1;
            select.push(self.select_item()?);
        }
        self.expect_keyword("from")?;
        let from = self.ident()?;
        let filter = if self.keyword("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.keyword("group") {
            self.expect_keyword("by")?;
            group_by.push(self.ident()?);
            while matches!(self.peek(), Some(Tok::Comma)) {
                self.pos += 1;
                group_by.push(self.ident()?);
            }
        }
        let mut order_by = Vec::new();
        if self.keyword("order") {
            self.expect_keyword("by")?;
            loop {
                // An ORDER BY key is a column name or an aggregate (which
                // sorts by the matching output column, e.g. `count(*)`).
                let key = match self.select_item()? {
                    SelectItem::Column(c) => c,
                    SelectItem::Aggregate(a) => agg_name(&a),
                    SelectItem::AllColumns => {
                        return Err(QueryError::Parse("cannot ORDER BY *".into()))
                    }
                };
                let desc = if self.keyword("desc") {
                    true
                } else {
                    self.keyword("asc");
                    false
                };
                order_by.push((key, desc));
                if matches!(self.peek(), Some(Tok::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let limit = if self.keyword("limit") {
            match self.next() {
                Some(Tok::Num(n)) if n >= 0.0 => Some(n as usize),
                _ => return Err(QueryError::Parse("expected LIMIT count".into())),
            }
        } else {
            None
        };
        if self.pos != self.toks.len() {
            return Err(QueryError::Parse(format!(
                "trailing input at token {}",
                self.pos
            )));
        }
        Ok(Query {
            select,
            from,
            filter,
            group_by,
            order_by,
            limit,
        })
    }
}

// -------------------------------------------------------------- executor --

/// Query result: column names plus value rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for (i, c) in self.columns.iter().enumerate() {
            write!(f, "{:<w$}  ", c, w = widths[i])?;
        }
        writeln!(f)?;
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                write!(f, "{:<w$}  ", cell, w = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

fn eval_term(term: &Term, row: &Row) -> Value {
    match term {
        Term::Column(c) => row.get(c).cloned().unwrap_or(Value::Null),
        Term::Lit(v) => v.clone(),
    }
}

/// `%`-wildcard matcher: exact dynamic program over bytes, O(n·m).
fn like_match(text: &str, pattern: &str) -> bool {
    let t = text.as_bytes();
    let n = t.len();
    // dp[j] = pattern-so-far matches t[..j].
    let mut dp = vec![false; n + 1];
    dp[0] = true;
    for &pc in pattern.as_bytes() {
        if pc == b'%' {
            // '%' absorbs any suffix extension: prefix-or over dp.
            let mut any = false;
            for slot in dp.iter_mut() {
                any = any || *slot;
                *slot = any;
            }
        } else {
            let mut next = vec![false; n + 1];
            for j in 1..=n {
                next[j] = dp[j - 1] && t[j - 1] == pc;
            }
            dp = next;
        }
    }
    dp[n]
}

fn eval_expr(expr: &Expr, row: &Row) -> bool {
    match expr {
        Expr::And(a, b) => eval_expr(a, row) && eval_expr(b, row),
        Expr::Or(a, b) => eval_expr(a, row) || eval_expr(b, row),
        Expr::Between(t, lo, hi) => {
            let v = eval_term(t, row);
            let lo = eval_term(lo, row);
            let hi = eval_term(hi, row);
            if v == Value::Null || lo == Value::Null || hi == Value::Null {
                return false;
            }
            v.cmp_total(&lo) != std::cmp::Ordering::Less
                && v.cmp_total(&hi) != std::cmp::Ordering::Greater
        }
        Expr::Like(t, pattern) => match eval_term(t, row) {
            Value::Str(s) => like_match(&s, pattern),
            _ => false,
        },
        Expr::Cmp(l, op, r) => {
            let lv = eval_term(l, row);
            let rv = eval_term(r, row);
            if lv == Value::Null || rv == Value::Null {
                return false;
            }
            let ord = lv.cmp_total(&rv);
            match op.as_str() {
                "=" => ord == std::cmp::Ordering::Equal,
                "!=" => ord != std::cmp::Ordering::Equal,
                "<" => ord == std::cmp::Ordering::Less,
                "<=" => ord != std::cmp::Ordering::Greater,
                ">" => ord == std::cmp::Ordering::Greater,
                ">=" => ord != std::cmp::Ordering::Less,
                _ => false,
            }
        }
    }
}

fn agg_name(a: &Agg) -> String {
    match a {
        Agg::CountStar => "count(*)".into(),
        Agg::Count(c) => format!("count({c})"),
        Agg::Sum(c) => format!("sum({c})"),
        Agg::Avg(c) => format!("avg({c})"),
        Agg::Min(c) => format!("min({c})"),
        Agg::Max(c) => format!("max({c})"),
    }
}

fn compute_agg(a: &Agg, rows: &[&Row]) -> Value {
    let nums = |col: &str| -> Vec<f64> {
        rows.iter()
            .filter_map(|r| r.get(col).and_then(Value::as_num))
            .collect()
    };
    match a {
        Agg::CountStar => Value::Num(rows.len() as f64),
        Agg::Count(c) => Value::Num(
            rows.iter()
                .filter(|r| !matches!(r.get(c.as_str()), None | Some(Value::Null)))
                .count() as f64,
        ),
        Agg::Sum(c) => Value::Num(nums(c).iter().sum()),
        Agg::Avg(c) => {
            let v = nums(c);
            if v.is_empty() {
                Value::Null
            } else {
                Value::Num(v.iter().sum::<f64>() / v.len() as f64)
            }
        }
        Agg::Min(c) => nums(c)
            .into_iter()
            .fold(None::<f64>, |m, x| Some(m.map_or(x, |m| m.min(x))))
            .map_or(Value::Null, Value::Num),
        Agg::Max(c) => nums(c)
            .into_iter()
            .fold(None::<f64>, |m, x| Some(m.map_or(x, |m| m.max(x))))
            .map_or(Value::Null, Value::Num),
    }
}

/// A registry of named tables that accepts SQL-like queries.
///
/// # Examples
///
/// ```
/// use cpi2_pipeline::Dataset;
/// use serde::Serialize;
///
/// #[derive(Serialize)]
/// struct Incident { victim: &'static str, correlation: f64 }
///
/// let mut ds = Dataset::new();
/// ds.insert_records("incidents", &[
///     Incident { victim: "websearch", correlation: 0.46 },
///     Incident { victim: "bigtable", correlation: 0.2 },
/// ]).unwrap();
/// let r = ds
///     .query("SELECT victim FROM incidents WHERE correlation >= 0.35")
///     .unwrap();
/// assert_eq!(r.rows.len(), 1);
/// assert_eq!(r.rows[0][0].to_string(), "websearch");
/// ```
#[derive(Debug, Default)]
pub struct Dataset {
    tables: BTreeMap<String, Table>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Registers (or replaces) a table.
    pub fn insert(&mut self, table: Table) {
        self.tables.insert(table.name.clone(), table);
    }

    /// Registers a table built from serializable records.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn insert_records<T: Serialize>(
        &mut self,
        name: &str,
        records: &[T],
    ) -> Result<(), serde_json::Error> {
        self.insert(Table::from_records(name, records)?);
        Ok(())
    }

    /// Executes a query.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError`] on syntax errors or unknown tables.
    pub fn query(&self, sql: &str) -> Result<QueryResult, QueryError> {
        self.run(&Query::parse(sql)?)
    }

    /// Executes a parsed query.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::UnknownTable`] if its table is not registered.
    pub fn run(&self, q: &Query) -> Result<QueryResult, QueryError> {
        let table = self
            .tables
            .get(&q.from)
            .ok_or_else(|| QueryError::UnknownTable(q.from.clone()))?;

        let filtered: Vec<&Row> = table
            .rows
            .iter()
            .filter(|r| match q.filter.as_ref() {
                Some(e) => eval_expr(e, r),
                None => true,
            })
            .collect();

        let has_agg = q
            .select
            .iter()
            .any(|s| matches!(s, SelectItem::Aggregate(_)));

        let (columns, mut rows) = if !q.group_by.is_empty() || has_agg {
            self.grouped(q, &filtered)
        } else {
            self.plain(q, table, &filtered)
        };

        // ORDER BY over output columns.
        if !q.order_by.is_empty() {
            let keys: Vec<(usize, bool)> = q
                .order_by
                .iter()
                .filter_map(|(k, desc)| columns.iter().position(|c| c == k).map(|i| (i, *desc)))
                .collect();
            rows.sort_by(|a, b| {
                for &(i, desc) in &keys {
                    let ord = a[i].cmp_total(&b[i]);
                    if ord != std::cmp::Ordering::Equal {
                        return if desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(n) = q.limit {
            rows.truncate(n);
        }
        Ok(QueryResult { columns, rows })
    }

    fn plain(&self, q: &Query, table: &Table, filtered: &[&Row]) -> (Vec<String>, Vec<Vec<Value>>) {
        let mut columns = Vec::new();
        for item in &q.select {
            match item {
                SelectItem::AllColumns => {
                    // Union of keys across all rows, sorted.
                    let mut keys: Vec<String> =
                        table.rows.iter().flat_map(|r| r.keys().cloned()).collect();
                    keys.sort();
                    keys.dedup();
                    columns.extend(keys);
                }
                SelectItem::Column(c) => columns.push(c.clone()),
                // `execute` routes any aggregate select to `grouped()`;
                // if one slips through, name the column like `grouped()`
                // would rather than crash the query engine.
                SelectItem::Aggregate(a) => columns.push(agg_name(a)),
            }
        }
        let rows = filtered
            .iter()
            .map(|r| {
                columns
                    .iter()
                    .map(|c| r.get(c).cloned().unwrap_or(Value::Null))
                    .collect()
            })
            .collect();
        (columns, rows)
    }

    fn grouped(&self, q: &Query, filtered: &[&Row]) -> (Vec<String>, Vec<Vec<Value>>) {
        let mut columns = Vec::new();
        for item in &q.select {
            match item {
                SelectItem::Column(c) => columns.push(c.clone()),
                SelectItem::Aggregate(a) => columns.push(agg_name(a)),
                SelectItem::AllColumns => columns.push("*".into()),
            }
        }
        // Group rows by the GROUP BY key tuple (whole input = one group if
        // no GROUP BY).
        let mut groups: BTreeMap<String, Vec<&Row>> = BTreeMap::new();
        for r in filtered {
            let key = q
                .group_by
                .iter()
                .map(|c| r.get(c).cloned().unwrap_or(Value::Null).to_string())
                .collect::<Vec<_>>()
                .join("\u{1f}");
            groups.entry(key).or_default().push(r);
        }
        if groups.is_empty() && q.group_by.is_empty() {
            groups.insert(String::new(), Vec::new());
        }
        let rows = groups
            .values()
            .map(|members| {
                q.select
                    .iter()
                    .map(|item| match item {
                        SelectItem::Column(c) => members
                            .first()
                            .and_then(|r| r.get(c).cloned())
                            .unwrap_or(Value::Null),
                        SelectItem::Aggregate(a) => compute_agg(a, members),
                        SelectItem::AllColumns => Value::Null,
                    })
                    .collect()
            })
            .collect();
        (columns, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn sample_dataset() -> Result<Dataset, serde_json::Error> {
        #[derive(Serialize)]
        struct Inc {
            job: &'static str,
            antagonist: &'static str,
            correlation: f64,
            acted: bool,
        }
        let recs = vec![
            Inc {
                job: "websearch",
                antagonist: "video",
                correlation: 0.46,
                acted: true,
            },
            Inc {
                job: "websearch",
                antagonist: "mapreduce",
                correlation: 0.39,
                acted: true,
            },
            Inc {
                job: "websearch",
                antagonist: "video",
                correlation: 0.52,
                acted: true,
            },
            Inc {
                job: "bigtable",
                antagonist: "compile",
                correlation: 0.20,
                acted: false,
            },
            Inc {
                job: "bigtable",
                antagonist: "video",
                correlation: 0.41,
                acted: true,
            },
        ];
        let mut ds = Dataset::new();
        ds.insert_records("incidents", &recs)?;
        Ok(ds)
    }

    #[test]
    fn select_star() -> TestResult {
        let ds = sample_dataset()?;
        let r = ds.query("SELECT * FROM incidents")?;
        assert_eq!(r.rows.len(), 5);
        assert!(r.columns.contains(&"correlation".to_string()));
        Ok(())
    }

    #[test]
    fn where_filters() -> TestResult {
        let ds = sample_dataset()?;
        let r = ds.query("SELECT antagonist FROM incidents WHERE correlation >= 0.4")?;
        assert_eq!(r.rows.len(), 3);
        Ok(())
    }

    #[test]
    fn where_string_and_bool() -> TestResult {
        let ds = sample_dataset()?;
        let r =
            ds.query("SELECT correlation FROM incidents WHERE job = 'bigtable' AND acted = true")?;
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Num(0.41));
        Ok(())
    }

    #[test]
    fn or_precedence() -> TestResult {
        let ds = sample_dataset()?;
        // AND binds tighter: job='bigtable' OR (job='websearch' AND corr>0.5)
        let r = ds.query(
            "SELECT job FROM incidents WHERE job = 'bigtable' OR job = 'websearch' AND correlation > 0.5",
        )?;
        assert_eq!(r.rows.len(), 3);
        Ok(())
    }

    #[test]
    fn group_by_with_aggregates() -> TestResult {
        // The §5 forensics query: most aggressive antagonists for a job.
        let ds = sample_dataset()?;
        let r = ds.query(
            "SELECT antagonist, count(*), avg(correlation) FROM incidents \
             WHERE job = 'websearch' GROUP BY antagonist ORDER BY count(*) DESC",
        )?;
        assert_eq!(
            r.columns,
            vec!["antagonist", "count(*)", "avg(correlation)"]
        );
        assert_eq!(r.rows[0][0], Value::Str("video".into()));
        assert_eq!(r.rows[0][1], Value::Num(2.0));
        assert_eq!(r.rows[0][2], Value::Num(0.49));
        Ok(())
    }

    #[test]
    fn global_aggregate_without_group_by() -> TestResult {
        let ds = sample_dataset()?;
        let r = ds.query("SELECT count(*), max(correlation) FROM incidents")?;
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Num(5.0));
        assert_eq!(r.rows[0][1], Value::Num(0.52));
        Ok(())
    }

    #[test]
    fn order_and_limit() -> TestResult {
        let ds = sample_dataset()?;
        let r = ds.query(
            "SELECT antagonist, correlation FROM incidents ORDER BY correlation DESC LIMIT 2",
        )?;
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][1], Value::Num(0.52));
        assert_eq!(r.rows[1][1], Value::Num(0.46));
        Ok(())
    }

    #[test]
    fn min_sum_aggregates() -> TestResult {
        let ds = sample_dataset()?;
        let r = ds.query("SELECT min(correlation), sum(correlation) FROM incidents")?;
        assert_eq!(r.rows[0][0], Value::Num(0.2));
        let Value::Num(s) = r.rows[0][1] else {
            return Err("sum(correlation) should be numeric".into());
        };
        assert!((s - 1.98).abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn parse_names_the_table_before_any_is_built() -> TestResult {
        let q = Query::parse("select count(*) from samples where cpi > 2")?;
        assert_eq!(q.table(), "samples");
        assert_eq!(
            Dataset::new().run(&q),
            Err(QueryError::UnknownTable("samples".into()))
        );
        let q = Query::parse("SELECT * FROM incidents")?;
        assert_eq!(sample_dataset()?.run(&q)?.rows.len(), 5);
        Ok(())
    }

    #[test]
    fn unknown_table_error() -> TestResult {
        let ds = sample_dataset()?;
        assert_eq!(
            ds.query("SELECT * FROM nope"),
            Err(QueryError::UnknownTable("nope".into()))
        );
        Ok(())
    }

    #[test]
    fn parse_errors() -> TestResult {
        let ds = sample_dataset()?;
        assert!(matches!(
            ds.query("FROM incidents"),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            ds.query("SELECT * FROM incidents WHERE"),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            ds.query("SELECT * FROM incidents LIMIT 'x'"),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            ds.query("SELECT * FROM incidents trailing"),
            Err(QueryError::Parse(_))
        ));
        Ok(())
    }

    #[test]
    fn null_columns_excluded_by_where() -> TestResult {
        let ds = sample_dataset()?;
        let r = ds.query("SELECT job FROM incidents WHERE nonexistent > 1")?;
        assert!(r.rows.is_empty());
        Ok(())
    }

    #[test]
    fn nested_records_flatten() -> TestResult {
        #[derive(Serialize)]
        struct Outer {
            name: &'static str,
            inner: Inner,
            list: Vec<u32>,
        }
        #[derive(Serialize)]
        struct Inner {
            x: f64,
        }
        let mut ds = Dataset::new();
        ds.insert_records(
            "t",
            &[Outer {
                name: "a",
                inner: Inner { x: 3.5 },
                list: vec![7, 8],
            }],
        )?;
        let r = ds.query("SELECT inner.x, list.len, list.0 FROM t")?;
        assert_eq!(
            r.rows[0],
            vec![Value::Num(3.5), Value::Num(2.0), Value::Num(7.0)]
        );
        Ok(())
    }

    #[test]
    fn display_renders_table() -> TestResult {
        let ds = sample_dataset()?;
        let r = ds.query("SELECT job, correlation FROM incidents LIMIT 1")?;
        let text = r.to_string();
        assert!(text.contains("job"));
        assert!(text.contains("websearch"));
        Ok(())
    }

    #[test]
    fn lexer_rejects_garbage() {
        assert!(lex("SELECT # FROM t").is_err());
        assert!(lex("SELECT 'unterminated").is_err());
    }
}

#[cfg(test)]
mod like_between_tests {
    use super::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn ds() -> Result<Dataset, serde_json::Error> {
        #[derive(serde::Serialize)]
        struct R {
            job: &'static str,
            cpi: f64,
        }
        let mut ds = Dataset::new();
        ds.insert_records(
            "t",
            &[
                R {
                    job: "websearch-leaf",
                    cpi: 1.0,
                },
                R {
                    job: "websearch-root",
                    cpi: 2.0,
                },
                R {
                    job: "bigtable",
                    cpi: 3.0,
                },
                R {
                    job: "search-proxy",
                    cpi: 4.0,
                },
            ],
        )?;
        Ok(ds)
    }

    #[test]
    fn between_inclusive() -> TestResult {
        let r = ds()?.query("SELECT job FROM t WHERE cpi BETWEEN 2 AND 3")?;
        assert_eq!(r.rows.len(), 2);
        Ok(())
    }

    #[test]
    fn like_prefix() -> TestResult {
        let r = ds()?.query("SELECT job FROM t WHERE job LIKE 'websearch%'")?;
        assert_eq!(r.rows.len(), 2);
        Ok(())
    }

    #[test]
    fn like_suffix_and_infix() -> TestResult {
        let r = ds()?.query("SELECT job FROM t WHERE job LIKE '%leaf'")?;
        assert_eq!(r.rows.len(), 1);
        let r = ds()?.query("SELECT job FROM t WHERE job LIKE '%search%'")?;
        assert_eq!(r.rows.len(), 3);
        Ok(())
    }

    #[test]
    fn like_exact_without_wildcard() -> TestResult {
        let r = ds()?.query("SELECT job FROM t WHERE job LIKE 'bigtable'")?;
        assert_eq!(r.rows.len(), 1);
        let r = ds()?.query("SELECT job FROM t WHERE job LIKE 'bigtab'")?;
        assert_eq!(r.rows.len(), 0);
        Ok(())
    }

    #[test]
    fn like_on_number_is_false() -> TestResult {
        let r = ds()?.query("SELECT job FROM t WHERE cpi LIKE '1%'")?;
        assert!(r.rows.is_empty());
        Ok(())
    }

    #[test]
    fn between_in_conjunction() -> TestResult {
        let r = ds()?.query("SELECT job FROM t WHERE cpi BETWEEN 1 AND 3 AND job LIKE 'web%'")?;
        assert_eq!(r.rows.len(), 2);
        Ok(())
    }

    #[test]
    fn like_match_unit() {
        assert!(like_match("abc", "abc"));
        assert!(like_match("abc", "a%c"));
        assert!(like_match("abc", "%"));
        assert!(like_match("abc", "%b%"));
        assert!(!like_match("abc", "b%"));
        assert!(!like_match("abc", "%b"));
        assert!(like_match("aXXbYYc", "a%b%c"));
        assert!(!like_match("ab", "a%b%c"));
    }
}

#[cfg(test)]
mod like_dp_tests {
    use super::like_match;

    #[test]
    fn suffix_pattern_on_repeated_text() {
        // The greedy-segment approach gets this wrong; the DP must not.
        assert!(like_match("abcabc", "%abc"));
        assert!(like_match("abcabc", "abc%"));
        assert!(like_match("abcabc", "%bca%"));
        assert!(!like_match("abcabc", "%abd"));
    }

    #[test]
    fn empty_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "a"));
        assert!(!like_match("a", ""));
    }

    #[test]
    fn consecutive_wildcards() {
        assert!(like_match("xyz", "%%"));
        assert!(like_match("xyz", "x%%z"));
    }
}
