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
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

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
type Row = BTreeMap<String, Value>;

/// Every cell of one record.
fn full_row(record: &impl Serialize) -> Row {
    let mut row = Row::new();
    flatten(String::new(), record.to_value(), &mut row);
    row
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
            for (i, item) in ARRAY_COLUMNS.iter().zip(items) {
                flatten(format!("{prefix}.{i}"), item, out);
            }
        }
        v => {
            out.insert(prefix, scalar(v));
        }
    }
}

/// The array elements that get a column (`suspects.0` … `suspects.4`).
const ARRAY_COLUMNS: [&str; 5] = ["0", "1", "2", "3", "4"];

/// A JSON scalar as a cell.
fn scalar(v: serde_json::Value) -> Value {
    match v {
        serde_json::Value::Bool(b) => Value::Bool(b),
        serde_json::Value::Number(n) => Value::Num(n.as_f64().unwrap_or(0.0)),
        serde_json::Value::String(s) => Value::Str(s),
        _ => Value::Null,
    }
}

/// The cell [`flatten`] files under a column below `v`, where `rest` is
/// what is left of the column's dotted name. The name is followed down
/// the record: no key is built and no other cell is copied.
fn cell_at(v: &serde_json::Value, rest: &str, at_root: bool) -> Option<Value> {
    // What `key` leaves of the name; no dot follows an empty prefix.
    let after = |dot: bool, key: &str| {
        let rest = if dot { rest.strip_prefix('.')? } else { rest };
        rest.strip_prefix(key)
    };
    match v {
        // Of two paths that spell one name `flatten` keeps the later.
        serde_json::Value::Object(map) => {
            let mut keys = map.iter().rev();
            keys.find_map(|(k, v)| cell_at(v, after(!at_root, k)?, at_root && k.is_empty()))
        }
        serde_json::Value::Array(items) => {
            if after(true, "len") == Some("") {
                return Some(Value::Num(items.len() as f64));
            }
            let mut indexed = ARRAY_COLUMNS.iter().zip(items);
            indexed.find_map(|(i, item)| cell_at(item, after(true, i)?, false))
        }
        v => rest.is_empty().then(|| scalar(v.clone())),
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
    Like(Term, String),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
}

/// A parsed statement. Parsing comes first: the statement says which
/// table ([`Query::table`]) and which columns [`Query::scan`] reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    select: Vec<SelectItem>,
    from: String,
    filter: Option<Expr>,
    group_by: Vec<String>,
    order_by: Vec<(String, bool)>, // (output column, descending)
    limit: Option<usize>,
    /// Every column named (select, aggregates, WHERE, GROUP BY), sorted.
    reads: Vec<String>,
}

impl Query {
    /// Parses one statement of the module's grammar.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::Parse`] on lexical or syntax errors, for a
    /// `*` beside an aggregate or GROUP BY, and for an ORDER BY key that
    /// is not an output column.
    pub fn parse(sql: &str) -> Result<Query, QueryError> {
        let mut parser = Parser {
            toks: lex(sql)?,
            pos: 0,
            reads: Vec::new(),
        };
        let q = parser.query()?;
        q.refuse_wrong_answers()?;
        Ok(q)
    }

    /// A group has no `*` to show, and a sort on a column the output
    /// lacks would be dropped (under `*` one no row has sorts nothing).
    fn refuse_wrong_answers(&self) -> Result<(), QueryError> {
        if self.selects_all() {
            if self.is_grouped() {
                return Err(QueryError::Parse(
                    "cannot select * beside an aggregate or GROUP BY".into(),
                ));
            }
            return Ok(());
        }
        let columns = self.columns(&[]);
        match self.order_by.iter().find(|(k, _)| !columns.contains(k)) {
            Some((key, _)) => Err(QueryError::Parse(format!(
                "ORDER BY {key}: not an output column"
            ))),
            None => Ok(()),
        }
    }

    /// The table the `FROM` clause names.
    pub fn table(&self) -> &str {
        &self.from
    }

    fn selects_all(&self) -> bool {
        self.select.contains(&SelectItem::AllColumns)
    }

    /// Whether the output is a row per group rather than per input row.
    fn is_grouped(&self) -> bool {
        let has_agg = self
            .select
            .iter()
            .any(|s| matches!(s, SelectItem::Aggregate(_)));
        !self.group_by.is_empty() || has_agg
    }

    /// The output columns; `star` is what `*` expands to.
    fn columns(&self, star: &[String]) -> Vec<String> {
        let mut columns = Vec::new();
        for item in &self.select {
            match item {
                SelectItem::AllColumns => columns.extend_from_slice(star),
                SelectItem::Column(c) => columns.push(c.clone()),
                SelectItem::Aggregate(a) => columns.push(agg_name(a)),
            }
        }
        columns
    }
}

// ---------------------------------------------------------------- parser --

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Every column name met so far.
    reads: Vec<String>,
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

    /// An identifier that names a column.
    fn column(&mut self) -> Result<String, QueryError> {
        let name = self.ident()?;
        self.reads.push(name.clone());
        Ok(name)
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
                self.column()?
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
            self.reads.push(name.clone());
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
            Some(Tok::Ident(w)) => {
                self.reads.push(w.clone());
                Ok(Term::Column(w))
            }
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
            // `t BETWEEN lo AND hi` is `t >= lo AND t <= hi`, nulls included.
            return Ok(Expr::And(
                Box::new(Expr::Cmp(lhs.clone(), ">=".into(), lo)),
                Box::new(Expr::Cmp(lhs, "<=".into(), hi)),
            ));
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
            group_by.push(self.column()?);
            while matches!(self.peek(), Some(Tok::Comma)) {
                self.pos += 1;
                group_by.push(self.column()?);
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
        self.reads.sort_unstable();
        self.reads.dedup();
        Ok(Query {
            select,
            from,
            filter,
            group_by,
            order_by,
            limit,
            reads: std::mem::take(&mut self.reads),
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

/// How the executor reads a row: a cell by name, null if the row lacks it.
trait Cells {
    fn cell(&self, column: &str) -> &Value;
}

impl Cells for &Row {
    fn cell(&self, column: &str) -> &Value {
        self.get(column).unwrap_or(&Value::Null)
    }
}

/// The columns a statement reads, and one record's cells in that order.
impl Cells for (&[String], Vec<Value>) {
    fn cell(&self, column: &str) -> &Value {
        let slot = self.0.iter().position(|c| c == column);
        slot.map_or(&Value::Null, |i| &self.1[i])
    }
}

fn eval_term<'a>(term: &'a Term, row: &'a impl Cells) -> &'a Value {
    match term {
        Term::Column(c) => row.cell(c),
        Term::Lit(v) => v,
    }
}

/// `%`-wildcard matcher over bytes: a literal advances both sides, and a
/// mismatch falls back to the last `%`, which absorbs one byte more.
/// Exact (a run fitted at its leftmost place loses nothing: the next `%`
/// absorbs what a later fit would skip), O(n·m) at worst, no allocation.
fn like_match(text: &str, pattern: &str) -> bool {
    let (t, p) = (text.as_bytes(), pattern.as_bytes());
    let (mut i, mut j) = (0, 0);
    // (pattern position after the last `%`, text position it absorbs to)
    let mut retry: Option<(usize, usize)> = None;
    while i < t.len() {
        if p.get(j) == Some(&b'%') {
            j += 1;
            retry = Some((j, i));
        } else if p.get(j) == Some(&t[i]) {
            i += 1;
            j += 1;
        } else if let Some((after, absorbed)) = retry {
            (i, j) = (absorbed + 1, after);
            retry = Some((after, absorbed + 1));
        } else {
            return false;
        }
    }
    p[j..].iter().all(|&c| c == b'%')
}

fn eval_expr(expr: &Expr, row: &impl Cells) -> bool {
    match expr {
        Expr::And(a, b) => eval_expr(a, row) && eval_expr(b, row),
        Expr::Or(a, b) => eval_expr(a, row) || eval_expr(b, row),
        Expr::Like(t, pattern) => match eval_term(t, row) {
            Value::Str(s) => like_match(s, pattern),
            _ => false,
        },
        Expr::Cmp(l, op, r) => {
            let lv = eval_term(l, row);
            let rv = eval_term(r, row);
            if *lv == Value::Null || *rv == Value::Null {
                return false;
            }
            let ord = lv.cmp_total(rv);
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

/// What one select item keeps of its group's rows, folded in row order.
#[derive(Debug, Clone)]
struct Acc {
    /// Rows for `count(*)`, non-null cells for `count(c)`, else numeric cells.
    count: usize,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
    /// A bare column shows its group's first row.
    first: Option<Value>,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            count: 0,
            // `Iterator::sum` of nothing, whose sign differs between
            // toolchains: `sum(c)` is the standard library's sum of the
            // cells, to the bit.
            sum: std::iter::empty::<f64>().sum(),
            min: None,
            max: None,
            first: None,
        }
    }

    fn fold(&mut self, item: &SelectItem, row: &impl Cells) {
        match item {
            SelectItem::Column(c) if self.first.is_none() => {
                self.first = Some(row.cell(c).clone());
            }
            // Parsing refuses `*` in a grouped statement.
            SelectItem::Column(_) | SelectItem::AllColumns => {}
            SelectItem::Aggregate(Agg::CountStar) => self.count += 1,
            SelectItem::Aggregate(Agg::Count(c)) => {
                if *row.cell(c) != Value::Null {
                    self.count += 1;
                }
            }
            SelectItem::Aggregate(Agg::Sum(c) | Agg::Avg(c) | Agg::Min(c) | Agg::Max(c)) => {
                if let Some(x) = row.cell(c).as_num() {
                    self.count += 1;
                    self.sum += x;
                    self.min = Some(self.min.map_or(x, |m| m.min(x)));
                    self.max = Some(self.max.map_or(x, |m| m.max(x)));
                }
            }
        }
    }

    fn finish(self, item: &SelectItem) -> Value {
        match item {
            SelectItem::Column(_) | SelectItem::AllColumns => self.first.unwrap_or(Value::Null),
            SelectItem::Aggregate(Agg::CountStar | Agg::Count(_)) => Value::Num(self.count as f64),
            SelectItem::Aggregate(Agg::Sum(_)) => Value::Num(self.sum),
            SelectItem::Aggregate(Agg::Avg(_)) if self.count == 0 => Value::Null,
            SelectItem::Aggregate(Agg::Avg(_)) => Value::Num(self.sum / self.count as f64),
            SelectItem::Aggregate(Agg::Min(_)) => self.min.map_or(Value::Null, Value::Num),
            SelectItem::Aggregate(Agg::Max(_)) => self.max.map_or(Value::Null, Value::Num),
        }
    }
}

impl Query {
    /// Answers the statement in one pass over `records`, keeping of each
    /// the columns it names. A record is serialised whole (the vendored
    /// serde has no field-selective path) — but not if no column is named,
    /// nor once `LIMIT` is met with no ORDER BY to wait for.
    pub fn scan<T: Serialize>(&self, records: impl IntoIterator<Item = T>) -> QueryResult {
        let records = records.into_iter();
        if self.selects_all() {
            return self.over(&records.map(|r| full_row(&r)).collect::<Vec<_>>());
        }
        let pruned = |r: T| {
            let record = (!self.reads.is_empty()).then(|| r.to_value());
            let cell = |col: &String| cell_at(record.as_ref()?, col, true);
            let cells = self.reads.iter().map(|c| cell(c).unwrap_or(Value::Null));
            (self.reads.as_slice(), cells.collect::<Vec<_>>())
        };
        self.execute(&[], records.map(pruned))
    }

    /// Answers the statement over rows that hold every cell: `*`'s path,
    /// and the reference the pruned path is held to in the tests.
    fn over(&self, rows: &[Row]) -> QueryResult {
        // `*` is the union of keys across all rows, sorted.
        let mut star = BTreeSet::new();
        if self.selects_all() {
            star.extend(rows.iter().flat_map(Row::keys).cloned());
        }
        self.execute(&star.into_iter().collect::<Vec<_>>(), rows.iter())
    }

    /// The one executor: WHERE, a fold into per-group accumulators or a
    /// projection, ORDER BY, LIMIT. `star` is what `*` expands to.
    fn execute<R: Cells>(&self, star: &[String], mut rows: impl Iterator<Item = R>) -> QueryResult {
        let (columns, grouped) = (self.columns(star), self.is_grouped());
        let accs = vec![Acc::new(); self.select.len()];
        // Groups are keyed by their GROUP BY cells as displayed; without
        // GROUP BY the input is one group, there even if no row survives.
        let mut groups: BTreeMap<String, Vec<Acc>> = BTreeMap::new();
        let (mut whole, mut key) = (accs.clone(), String::new());
        let mut out: Vec<Vec<Value>> = Vec::new();
        // With nothing to fold or sort, the first LIMIT survivors answer.
        let waits = grouped || !self.order_by.is_empty();
        let enough = self.limit.filter(|_| !waits).unwrap_or(usize::MAX);
        while out.len() < enough {
            let Some(row) = rows.next() else { break };
            if self.filter.as_ref().is_some_and(|e| !eval_expr(e, &row)) {
                continue;
            }
            if !grouped {
                out.push(columns.iter().map(|c| row.cell(c).clone()).collect());
                continue;
            }
            key.clear();
            for (i, c) in self.group_by.iter().enumerate() {
                let sep = if i > 0 { "\u{1f}" } else { "" };
                let _ = write!(key, "{sep}{}", row.cell(c));
            }
            if !self.group_by.is_empty() && !groups.contains_key(&key) {
                groups.insert(key.clone(), accs.clone());
            }
            let group = groups.get_mut(&key).unwrap_or(&mut whole);
            for (acc, item) in group.iter_mut().zip(&self.select) {
                acc.fold(item, &row);
            }
        }
        if grouped && self.group_by.is_empty() {
            groups.insert(key, whole);
        }
        out.extend(groups.into_values().map(|group| {
            let cells = group.into_iter().zip(&self.select);
            cells.map(|(acc, item)| acc.finish(item)).collect()
        }));

        // ORDER BY over output columns (under `*`, a key no row has sorts
        // nothing).
        if !self.order_by.is_empty() {
            let keys: Vec<(usize, bool)> = self
                .order_by
                .iter()
                .filter_map(|(k, desc)| columns.iter().position(|c| c == k).map(|i| (i, *desc)))
                .collect();
            out.sort_by(|a, b| {
                for &(i, desc) in &keys {
                    let ord = a[i].cmp_total(&b[i]);
                    if ord != std::cmp::Ordering::Equal {
                        return if desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(n) = self.limit {
            out.truncate(n);
        }
        QueryResult { columns, rows: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::{TestCaseError, TestRng};

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    /// Parses `sql` and scans `records` with it.
    pub(super) fn ask<T: Serialize>(records: &[T], sql: &str) -> Result<QueryResult, QueryError> {
        Ok(Query::parse(sql)?.scan(records))
    }

    /// The reference the pruned path is held to: every record flattened
    /// whole, then the one executor over those full rows.
    fn full_rows<T: Serialize>(q: &Query, records: &[T]) -> QueryResult {
        q.over(&records.iter().map(full_row).collect::<Vec<_>>())
    }

    #[derive(Serialize)]
    struct Inc {
        job: &'static str,
        antagonist: &'static str,
        correlation: f64,
        acted: bool,
    }

    fn incidents() -> Vec<Inc> {
        let inc = |job, antagonist, correlation, acted| Inc {
            job,
            antagonist,
            correlation,
            acted,
        };
        vec![
            inc("websearch", "video", 0.46, true),
            inc("websearch", "mapreduce", 0.39, true),
            inc("websearch", "video", 0.52, true),
            inc("bigtable", "compile", 0.20, false),
            inc("bigtable", "video", 0.41, true),
        ]
    }

    #[test]
    fn select_star() -> TestResult {
        let r = ask(&incidents(), "SELECT * FROM incidents")?;
        assert_eq!(r.rows.len(), 5);
        assert!(r.columns.contains(&"correlation".to_string()));
        Ok(())
    }

    #[test]
    fn where_filters() -> TestResult {
        let sql = "SELECT antagonist FROM incidents WHERE correlation >= 0.4";
        assert_eq!(ask(&incidents(), sql)?.rows.len(), 3);
        Ok(())
    }

    #[test]
    fn where_string_and_bool() -> TestResult {
        let sql = "SELECT correlation FROM incidents WHERE job = 'bigtable' AND acted = true";
        let r = ask(&incidents(), sql)?;
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Num(0.41));
        Ok(())
    }

    #[test]
    fn or_precedence() -> TestResult {
        // AND binds tighter: job='bigtable' OR (job='websearch' AND corr>0.5)
        let r = ask(
            &incidents(),
            "SELECT job FROM incidents WHERE job = 'bigtable' OR job = 'websearch' AND correlation > 0.5",
        )?;
        assert_eq!(r.rows.len(), 3);
        Ok(())
    }

    #[test]
    fn group_by_with_aggregates() -> TestResult {
        // The §5 forensics query: most aggressive antagonists for a job.
        let r = ask(
            &incidents(),
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
        let r = ask(
            &incidents(),
            "SELECT count(*), max(correlation) FROM incidents",
        )?;
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Num(5.0));
        assert_eq!(r.rows[0][1], Value::Num(0.52));
        Ok(())
    }

    #[test]
    fn order_and_limit() -> TestResult {
        let r = ask(
            &incidents(),
            "SELECT antagonist, correlation FROM incidents ORDER BY correlation DESC LIMIT 2",
        )?;
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][1], Value::Num(0.52));
        assert_eq!(r.rows[1][1], Value::Num(0.46));
        Ok(())
    }

    #[test]
    fn min_sum_aggregates() -> TestResult {
        let sql = "SELECT min(correlation), sum(correlation) FROM incidents";
        let r = ask(&incidents(), sql)?;
        assert_eq!(r.rows[0][0], Value::Num(0.2));
        let Value::Num(s) = r.rows[0][1] else {
            return Err("sum(correlation) should be numeric".into());
        };
        assert!((s - 1.98).abs() < 1e-12);
        Ok(())
    }

    /// The statement names its table; the caller picks the records.
    #[test]
    fn parse_names_the_table_before_any_is_built() -> TestResult {
        let q = Query::parse("select count(*) from samples where cpi > 2")?;
        assert_eq!(q.table(), "samples");
        Ok(())
    }

    #[test]
    fn parse_errors() {
        for sql in [
            "FROM incidents",
            "SELECT * FROM incidents WHERE",
            "SELECT * FROM incidents LIMIT 'x'",
            "SELECT * FROM incidents trailing",
        ] {
            assert!(
                matches!(Query::parse(sql), Err(QueryError::Parse(_))),
                "{sql}"
            );
        }
    }

    #[test]
    fn null_columns_excluded_by_where() -> TestResult {
        let sql = "SELECT job FROM incidents WHERE nonexistent > 1";
        assert!(ask(&incidents(), sql)?.rows.is_empty());
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
        let records = [Outer {
            name: "a",
            inner: Inner { x: 3.5 },
            list: vec![7, 8],
        }];
        let r = ask(&records, "SELECT inner.x, list.len, list.0 FROM t")?;
        assert_eq!(
            r.rows[0],
            vec![Value::Num(3.5), Value::Num(2.0), Value::Num(7.0)]
        );
        Ok(())
    }

    #[test]
    fn display_renders_table() -> TestResult {
        let r = ask(
            &incidents(),
            "SELECT job, correlation FROM incidents LIMIT 1",
        )?;
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

    /// Both used to answer 200: the first with its rows unsorted (the
    /// unresolvable key was dropped), the second with a column named `*`
    /// full of nulls.
    #[test]
    fn statements_once_answered_wrongly_are_refused() -> TestResult {
        let recs = incidents();
        for (sql, names) in [
            (
                "SELECT job FROM incidents ORDER BY correlation DESC",
                "correlation",
            ),
            (
                "SELECT job, count(*) FROM incidents GROUP BY job ORDER BY avg(correlation)",
                "avg(correlation)",
            ),
            ("SELECT *, count(*) FROM incidents", "*"),
            ("SELECT * FROM incidents GROUP BY job", "*"),
        ] {
            match ask(&recs, sql) {
                Err(QueryError::Parse(message)) => assert!(message.contains(names), "{message}"),
                other => panic!("{sql}: {other:?}"),
            }
        }
        // Under `*` any column is an output column; one that no row has
        // leaves the order alone.
        let sorted = ask(&recs, "SELECT * FROM incidents ORDER BY correlation DESC")?;
        let top = ask(&recs, "SELECT * FROM incidents WHERE correlation > 0.5")?;
        assert_eq!(sorted.rows[0], top.rows[0]);
        let untouched = ask(&recs, "SELECT * FROM incidents ORDER BY nowhere DESC")?;
        assert_eq!(untouched, ask(&recs, "SELECT * FROM incidents")?);
        Ok(())
    }

    /// A sample-shaped record that counts how often it is serialised.
    struct Counted<'a> {
        calls: &'a std::cell::Cell<usize>,
        i: usize,
    }

    impl Serialize for Counted<'_> {
        fn to_value(&self) -> serde_json::Value {
            #[derive(Serialize)]
            struct Sample {
                jobname: String,
                platforminfo: &'static str,
                timestamp: usize,
                cpu_usage: f64,
                cpi: f64,
                task: (u32, u32),
            }
            self.calls.set(self.calls.get() + 1);
            let sample = Sample {
                jobname: format!("job-{}", self.i % 7),
                platforminfo: "westmere",
                timestamp: self.i,
                cpu_usage: 0.25,
                cpi: 1.0 + (self.i % 4) as f64,
                task: (self.i as u32, 0),
            };
            sample.to_value()
        }
    }

    /// What a statement costs, as counts: records serialised, and cells
    /// kept of each (a pruned row holds the statement's columns alone).
    #[test]
    fn a_statement_serialises_and_keeps_only_what_it_names() -> TestResult {
        let calls = std::cell::Cell::new(0);
        let records: Vec<Counted> = (0..512).map(|i| Counted { calls: &calls, i }).collect();
        for (sql, serialised, kept) in [
            ("SELECT count(*) FROM samples", 0, vec![]),
            (
                "SELECT count(*) FROM samples WHERE cpi > 2",
                512,
                vec!["cpi"],
            ),
            (
                "SELECT jobname, count(*), avg(cpi) FROM samples WHERE cpi > 1.5 \
                 GROUP BY jobname ORDER BY count(*) DESC LIMIT 10",
                512,
                vec!["cpi", "jobname"],
            ),
            (
                "SELECT cpi, task.0 FROM samples LIMIT 5",
                5,
                vec!["cpi", "task.0"],
            ),
            ("SELECT cpi FROM samples LIMIT 0", 0, vec!["cpi"]),
            (
                "SELECT cpi FROM samples ORDER BY cpi LIMIT 5",
                512,
                vec!["cpi"],
            ),
        ] {
            let q = Query::parse(sql)?;
            calls.set(0);
            let scanned = q.scan(&records);
            assert_eq!(calls.get(), serialised, "{sql}");
            assert_eq!(q.reads, kept, "{sql}");
            assert_eq!(scanned, full_rows(&q, &records), "{sql}");
        }
        // `*` reads every cell of every record, as it always did.
        let q = Query::parse("SELECT * FROM samples WHERE cpi > 100")?;
        calls.set(0);
        let all = q.scan(&records);
        assert_eq!((calls.get(), all.rows.len()), (512, 0));
        assert_eq!(all.columns.len(), 8, "{:?}", all.columns);
        Ok(())
    }

    /// Groups come out in the order of their key cells as displayed and
    /// joined by U+001F: a separator after the last cell would put `x\u{1}`
    /// before `x`.
    #[test]
    fn groups_order_by_their_displayed_key() -> TestResult {
        #[derive(Serialize)]
        struct R {
            name: &'static str,
            v: f64,
        }
        let r = |name, v| R { name, v };
        let records = [r("x\u{1}", 1.0), r("x", 10.0), r("x", 2.5), r("w", 0.5)];
        let by_one = ask(&records, "SELECT name, count(*) FROM t GROUP BY name")?;
        let names: Vec<String> = by_one.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, ["w", "x", "x\u{1}"]);
        // With a second cell the separator does follow `x`, and sorts after
        // U+0001; numbers key as displayed: "10" sorts before "2.5000".
        let by_two = ask(&records, "SELECT name, v FROM t GROUP BY name, v")?;
        let key = |r: &Vec<Value>| format!("{}|{}", r[0], r[1]);
        let keys: Vec<String> = by_two.rows.iter().map(key).collect();
        assert_eq!(keys, ["w|0.5000", "x\u{1}|1", "x|10", "x|2.5000"]);
        Ok(())
    }

    /// The sums the accumulators replaced were `Iterator::sum`s, whose empty
    /// value is the toolchain's (`+0.0` before Rust 1.83, `-0.0` since).
    #[test]
    fn an_empty_sum_keeps_its_sign() -> TestResult {
        let r = ask(
            &incidents(),
            "SELECT sum(correlation), sum(nowhere) FROM incidents WHERE correlation > 9",
        )?;
        let empty: f64 = std::iter::empty::<f64>().sum();
        for cell in &r.rows[0] {
            assert_eq!(cell.as_num().map(f64::to_bits), Some(empty.to_bits()));
        }
        Ok(())
    }

    // ------------------------------------ the scan equals the full rows --

    #[derive(Debug, Clone, Serialize)]
    struct Fields {
        job: String,
        cpi: f64,
        acted: bool,
        note: Option<String>,
        inner: Nested,
        list: Vec<Point>,
    }

    /// [`Fields`], sometimes with two keys that spell a nested cell's name
    /// outright: `list.len` before `list` and `inner.x` after `inner`. The
    /// later path wins either way.
    #[derive(Debug, Clone)]
    struct Wide {
        fields: Fields,
        shadow: Option<f64>,
    }

    impl Serialize for Wide {
        fn to_value(&self) -> serde_json::Value {
            let mut record = self.fields.to_value();
            if let (serde_json::Value::Object(pairs), Some(shadow)) = (&mut record, self.shadow) {
                pairs.insert(0, ("list.len".into(), shadow.to_value()));
                pairs.push(("inner.x".into(), shadow.to_value()));
            }
            record
        }
    }

    #[derive(Debug, Clone, Serialize)]
    struct Nested {
        x: f64,
        tag: String,
    }

    #[derive(Debug, Clone, Serialize)]
    struct Point {
        w: f64,
        s: String,
    }

    /// Strings over the characters an escaper, a LIKE matcher and a group key
    /// must not trip on: a quote, a backslash, the wildcard, a C0 byte.
    const TEXT: &str = "[ab\"\\%\u{1}]{0,4}";

    /// Quarter steps, so that equalities and groups are hit.
    fn quarters() -> impl Strategy<Value = f64> {
        (0..12u8).prop_map(|q| f64::from(q) * 0.25)
    }

    fn wide_strategy() -> impl Strategy<Value = Wide> {
        (
            TEXT,
            quarters(),
            any::<bool>(),
            prop::option::of(TEXT),
            (quarters(), TEXT),
            // 0–7 elements: `.len` and `.0`–`.4` exist, `.5` never does.
            (
                prop::collection::vec((quarters(), TEXT), 0..8),
                prop::option::of(quarters()),
            ),
        )
            .prop_map(|(job, cpi, acted, note, (x, tag), (list, shadow))| Wide {
                fields: Fields {
                    job,
                    cpi,
                    acted,
                    note,
                    inner: Nested { x, tag },
                    list: list.into_iter().map(|(w, s)| Point { w, s }).collect(),
                },
                shadow,
            })
    }

    /// Present scalars, dotted and indexed cells, cells only some records
    /// have, names no record has (two of them a cell's name and more), and
    /// names of an object and an array (which are not cells).
    const COLUMNS: [&str; 17] = [
        "job",
        "cpi",
        "acted",
        "note",
        "inner.x",
        "inner.tag",
        "list.len",
        "list.0.w",
        "list.2.s",
        "list.4.s",
        "list.5.w",
        "nowhere",
        "inner.nowhere",
        "cpix",
        "list.length",
        "inner",
        "list.0",
    ];

    fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
        from[rng.below(from.len() as u64) as usize]
    }

    fn literal(rng: &mut TestRng) -> String {
        match rng.below(4) {
            0 => format!("'{}'", TEXT.generate(rng)),
            1 => pick(rng, &["TRUE", "false"]).into(),
            _ => format!("{}", quarters().generate(rng)),
        }
    }

    fn condition(rng: &mut TestRng, depth: u32) -> String {
        let column = pick(rng, &COLUMNS);
        match rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => {
                let op = pick(rng, &["=", "!=", "<", "<=", ">", ">="]);
                format!("{column} {op} {}", literal(rng))
            }
            1 => format!("{column} >= {}", pick(rng, &COLUMNS)),
            2 => format!("{column} BETWEEN {} AND {}", literal(rng), literal(rng)),
            3 => {
                let parts: Vec<String> = (0..rng.below(4)).map(|_| TEXT.generate(rng)).collect();
                format!("{column} LIKE '{}'", parts.join("%"))
            }
            4 => format!(
                "{} AND {}",
                condition(rng, depth - 1),
                condition(rng, depth - 1)
            ),
            _ => format!(
                "{} OR {}",
                condition(rng, depth - 1),
                condition(rng, depth - 1)
            ),
        }
    }

    /// One statement of the grammar over table `t`: plain, aggregate or
    /// GROUP BY, with or without WHERE, ORDER BY and LIMIT.
    fn statement(seed: u64) -> String {
        let rng = &mut TestRng::from_seed(seed);
        let aggregate = |rng: &mut TestRng| match rng.below(6) {
            0 => "count(*)".to_string(),
            _ => {
                let func = pick(rng, &["count", "sum", "avg", "min", "max"]);
                format!("{func}({})", pick(rng, &COLUMNS))
            }
        };
        let several = |rng: &mut TestRng, item: &dyn Fn(&mut TestRng) -> String| -> Vec<String> {
            (0..1 + rng.below(3)).map(|_| item(rng)).collect()
        };
        let column = |rng: &mut TestRng| pick(rng, &COLUMNS).to_string();
        let mut group_by = Vec::new();
        let (select, sortable) = match rng.below(4) {
            0 => (vec!["*".to_string()], COLUMNS.map(String::from).to_vec()),
            1 => {
                let select = several(rng, &column);
                (select.clone(), select)
            }
            2 => {
                let select = several(rng, &aggregate);
                (select.clone(), select)
            }
            _ => {
                group_by = several(rng, &column);
                let mut select = group_by.clone();
                select.push(column(rng));
                select.extend(several(rng, &aggregate));
                (select.clone(), select)
            }
        };
        let mut sql = format!("SELECT {} FROM t", select.join(", "));
        if rng.below(3) > 0 {
            sql += &format!(" WHERE {}", condition(rng, 2));
        }
        if !group_by.is_empty() {
            sql += &format!(" GROUP BY {}", group_by.join(", "));
        }
        if rng.below(2) == 0 {
            let keys: Vec<String> = (0..1 + rng.below(2))
                .map(|_| {
                    let key = &sortable[rng.below(sortable.len() as u64) as usize];
                    format!("{key}{}", pick(rng, &["", " ASC", " DESC"]))
                })
                .collect();
            sql += &format!(" ORDER BY {}", keys.join(", "));
        }
        match rng.below(3) {
            0 => {}
            1 => sql += " LIMIT 0",
            _ => sql += &format!(" LIMIT {}", 1 + rng.below(5)),
        }
        sql
    }

    /// A result with its numbers as bit patterns: `-0` is not `0` (an empty
    /// `sum` has the sign the toolchain gives it) and a NaN equals itself.
    fn to_bits(r: &QueryResult) -> (Vec<String>, Vec<Vec<String>>) {
        let cell = |v: &Value| match v {
            Value::Num(n) => format!("{:#018x}", n.to_bits()),
            other => format!("{other:?}"),
        };
        let rows = r.rows.iter().map(|row| row.iter().map(cell).collect());
        (r.columns.clone(), rows.collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// `Query::scan` keeps of each record only the cells the statement
        /// names and may stop early; the reference flattens every record
        /// whole. Both must give one answer, to the bit: this holds
        /// `cell_at` to `flatten`.
        #[test]
        fn scanning_records_answers_as_the_full_table_does(
            recs in prop::collection::vec(wide_strategy(), 0..24),
            seed in any::<u64>(),
        ) {
            let sql = statement(seed);
            let q = match Query::parse(&sql) {
                Ok(q) => q,
                Err(e) => return Err(TestCaseError::fail(format!("{sql}: {e}"))),
            };
            let (scanned, full) = (q.scan(&recs), full_rows(&q, &recs));
            prop_assert_eq!(to_bits(&scanned), to_bits(&full), "{}\n{:?}\n{:?}", sql, scanned, full);
        }
    }
}

#[cfg(test)]
mod like_between_tests {
    use super::tests::ask;
    use super::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    #[derive(Serialize)]
    struct R {
        job: &'static str,
        cpi: f64,
    }

    fn recs() -> [R; 4] {
        [
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
        ]
    }

    #[test]
    fn between_inclusive() -> TestResult {
        let r = ask(&recs(), "SELECT job FROM t WHERE cpi BETWEEN 2 AND 3")?;
        assert_eq!(r.rows.len(), 2);
        Ok(())
    }

    #[test]
    fn like_prefix() -> TestResult {
        let r = ask(&recs(), "SELECT job FROM t WHERE job LIKE 'websearch%'")?;
        assert_eq!(r.rows.len(), 2);
        Ok(())
    }

    #[test]
    fn like_suffix_and_infix() -> TestResult {
        let r = ask(&recs(), "SELECT job FROM t WHERE job LIKE '%leaf'")?;
        assert_eq!(r.rows.len(), 1);
        let r = ask(&recs(), "SELECT job FROM t WHERE job LIKE '%search%'")?;
        assert_eq!(r.rows.len(), 3);
        Ok(())
    }

    #[test]
    fn like_exact_without_wildcard() -> TestResult {
        let r = ask(&recs(), "SELECT job FROM t WHERE job LIKE 'bigtable'")?;
        assert_eq!(r.rows.len(), 1);
        let r = ask(&recs(), "SELECT job FROM t WHERE job LIKE 'bigtab'")?;
        assert_eq!(r.rows.len(), 0);
        Ok(())
    }

    #[test]
    fn like_on_number_is_false() -> TestResult {
        let r = ask(&recs(), "SELECT job FROM t WHERE cpi LIKE '1%'")?;
        assert!(r.rows.is_empty());
        Ok(())
    }

    #[test]
    fn between_in_conjunction() -> TestResult {
        let sql = "SELECT job FROM t WHERE cpi BETWEEN 1 AND 3 AND job LIKE 'web%'";
        assert_eq!(ask(&recs(), sql)?.rows.len(), 2);
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
