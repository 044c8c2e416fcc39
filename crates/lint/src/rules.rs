//! The invariant rules: determinism (D), panic-freedom (S), lock
//! discipline (L), telemetry hygiene (T) and hot-path allocation (P),
//! run over a [`FileModel`].
//!
//! Detection is split from policy: [`collect_sites`] runs the detectors
//! over a file and returns raw sites (with token indexes, so the
//! whole-program passes in [`crate::reach`] can attribute them to
//! functions), while [`check_sites`] filters those sites down to the
//! rules enabled for the file and applies waivers.
//! Sanctioned sites — `#[cfg(test)]` regions, `clock_line_allow`
//! matches, `spawn_allowed` files — are dropped at collection time and
//! are invisible to both the per-file rules and the transitive passes.

use crate::callgraph::AnalyzedFile;
use crate::lexer::{Tok, TokKind};
use crate::lockorder::fn_locks;
use crate::model::FileModel;
use crate::parser::ParsedFile;
use std::fmt;

/// A lint rule identifier — also the name used in waiver comments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D: wall-clock reads (`Instant::now`, `SystemTime`, `std::time`).
    Clock,
    /// D: `std::thread::spawn` outside the worker pool.
    ThreadSpawn,
    /// D: iteration over `HashMap`/`HashSet` (order-unstable).
    MapIter,
    /// S: `.unwrap()` / `.expect(` / `panic!` / `unreachable!` in hot
    /// paths.
    Panic,
    /// S: `[expr]` slice indexing in hot paths.
    SliceIndex,
    /// L: taking a lock while a prior guard is live in the same scope.
    NestedLock,
    /// T: non-literal metric name passed to the telemetry registry.
    MetricName,
    /// P: per-call allocation inside a fn marked `// lint: hot-path`.
    HotPathAlloc,
    /// P (whole-program): allocation reachable from a hot-path fn
    /// through the call graph.
    TransitiveAlloc,
    /// S (whole-program): a panic site reachable from a core/perf entry
    /// point through the call graph.
    PanicReach,
    /// L (whole-program): a cycle in the interprocedural lock-order
    /// graph (potential deadlock).
    LockCycle,
    /// Waiver-syntax problems (missing reason, unknown rule, unused
    /// waiver).
    Waiver,
}

impl Rule {
    /// The waiver / output name of the rule.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Clock => "clock",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::MapIter => "map-iter",
            Rule::Panic => "panic",
            Rule::SliceIndex => "slice-index",
            Rule::NestedLock => "nested-lock",
            Rule::MetricName => "metric-name",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::TransitiveAlloc => "transitive-alloc",
            Rule::PanicReach => "panic-reach",
            Rule::LockCycle => "lock-cycle",
            Rule::Waiver => "waiver",
        }
    }

    /// True if `name` names a rule a waiver can suppress.
    pub fn is_waivable(name: &str) -> bool {
        use Rule::*;
        let waivable = [
            Clock,
            ThreadSpawn,
            MapIter,
            Panic,
            SliceIndex,
            NestedLock,
            MetricName,
            HotPathAlloc,
            TransitiveAlloc,
            PanicReach,
            LockCycle,
        ];
        waivable.iter().any(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, keyed `path:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable diagnostic.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Which rules run for one file, plus file-specific allowances.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    /// D: clock reads.
    pub clock: bool,
    /// D: thread spawns.
    pub spawn: bool,
    /// D: map iteration.
    pub map_iter: bool,
    /// S: panic sites.
    pub panics: bool,
    /// S: slice indexing.
    pub slice_index: bool,
    /// L: nested locks.
    pub locks: bool,
    /// T: metric-name literals.
    pub metric_name: bool,
    /// Clock reads are allowed on lines containing one of these
    /// substrings (the telemetry-gated `measure.then(Instant::now)`
    /// sites).
    pub clock_line_allow: Vec<&'static str>,
    /// `thread::spawn` is allowed anywhere in this file (the worker
    /// pool).
    pub spawn_allowed: bool,
}

impl RuleSet {
    /// Every rule on, no allowances — what fixtures run under.
    pub fn all() -> RuleSet {
        RuleSet {
            clock: true,
            spawn: true,
            map_iter: true,
            panics: true,
            slice_index: true,
            locks: true,
            metric_name: true,
            clock_line_allow: Vec::new(),
            spawn_allowed: false,
        }
    }
}

/// One raw detector hit, before policy filtering and waivers.
#[derive(Debug, Clone)]
pub struct RawSite {
    /// Index of the triggering token.
    pub tok: usize,
    /// 1-based source line.
    pub line: usize,
    /// The base rule the site violates.
    pub rule: Rule,
    /// Short backticked pattern (`` `Vec::new()` ``, `` `.unwrap()` ``),
    /// reused by the whole-program passes for their own messages.
    pub pattern: String,
    /// Full per-file diagnostic.
    pub message: String,
}

type Raw = Vec<RawSite>;

fn site(out: &mut Raw, tok: usize, line: usize, rule: Rule, pattern: &str, message: String) {
    out.push(RawSite {
        tok,
        line,
        rule,
        pattern: pattern.to_string(),
        message,
    });
}

/// Runs the detectors `rules` enables over `model`, plus the panic,
/// slice-index and allocation detectors everywhere (the whole-program
/// passes consume those across files), and returns the raw sites with
/// sanctioned-site scoping (test regions, `clock_line_allow`,
/// `spawn_allowed`) already applied. [`check_sites`] decides which are
/// *enforced* per-file.
pub fn collect_sites(model: &FileModel, parsed: &ParsedFile, rules: &RuleSet) -> Vec<RawSite> {
    let mut raw = Vec::new();
    if rules.clock {
        clock_rule(model, rules, &mut raw);
    }
    if rules.spawn && !rules.spawn_allowed {
        spawn_rule(model, &mut raw);
    }
    if rules.map_iter {
        map_iter_rule(model, &mut raw);
    }
    panic_rule(model, &mut raw);
    slice_index_rule(model, &mut raw);
    if rules.locks {
        lock_rule(model, parsed, &mut raw);
    }
    if rules.metric_name {
        metric_rule(model, &mut raw);
    }
    alloc_rule(model, &mut raw);
    raw.sort_by_key(|a| (a.line, a.rule, a.tok));
    raw
}

/// True if `site` is enforced as a per-file finding under `rules`.
/// `hot_ranges` are the `// lint: hot-path` fn bodies (for
/// [`Rule::HotPathAlloc`], which is annotation-scoped rather than
/// file-scoped).
pub fn site_enabled(s: &RawSite, rules: &RuleSet, hot_ranges: &[(usize, usize)]) -> bool {
    match s.rule {
        Rule::Clock => rules.clock,
        Rule::ThreadSpawn => rules.spawn,
        Rule::MapIter => rules.map_iter,
        Rule::Panic => rules.panics,
        Rule::SliceIndex => rules.slice_index,
        Rule::NestedLock => rules.locks,
        Rule::MetricName => rules.metric_name,
        // Opt-in per fn: on wherever a `// lint: hot-path` marks one.
        Rule::HotPathAlloc => hot_ranges.iter().any(|&(s0, e0)| s.tok >= s0 && s.tok < e0),
        _ => false,
    }
}

/// A waiver consumed while suppressing a finding: (waiver line, rule
/// name as written in the waiver).
pub type UsedWaiver = (usize, String);

/// Applies waiver policy to one raw finding: returns `None` when a
/// reasoned waiver suppresses it (recording the waiver in `used`), a
/// [`Rule::Waiver`] finding when the waiver lacks a reason, or the
/// finding itself. `names` are the waiver rule names that can suppress
/// it, in priority order (a transitive finding accepts both its base
/// rule name and its pass name).
pub fn waiver_filter(
    path: &str,
    model: &FileModel,
    line: usize,
    names: &[&str],
    rule: Rule,
    message: String,
    used: &mut Vec<UsedWaiver>,
) -> Option<Finding> {
    for name in names {
        if let Some(w) = model.waiver_for(line, name) {
            used.push((w.line, w.rule.clone()));
            if w.has_reason {
                return None;
            }
            return Some(Finding {
                path: path.to_string(),
                line: w.line,
                rule: Rule::Waiver,
                message: format!(
                    "waiver for `{name}` has no reason; write `// lint: allow({name}) — <reason>`"
                ),
            });
        }
    }
    Some(Finding {
        path: path.to_string(),
        line,
        rule,
        message,
    })
}

/// Findings for malformed waivers: an unknown rule name is a typo that
/// silently waives nothing.
pub fn waiver_syntax_findings(path: &str, model: &FileModel, out: &mut Vec<Finding>) {
    for ws in model.waivers.values() {
        for w in ws {
            if !Rule::is_waivable(&w.rule) {
                out.push(Finding {
                    path: path.to_string(),
                    line: w.line,
                    rule: Rule::Waiver,
                    message: format!("waiver names unknown rule `{}`", w.rule),
                });
            }
        }
    }
}

/// Filters one analyzed file's sites down to the rules its policy
/// enforces and applies waivers; returns unwaived findings plus
/// waiver-syntax findings, recording consumed waivers in `used`.
pub fn check_sites(file: &AnalyzedFile, used: &mut Vec<UsedWaiver>) -> Vec<Finding> {
    let hot_ranges: Vec<(usize, usize)> = file
        .parsed
        .fns
        .iter()
        .filter(|f| f.is_hot_path)
        .filter_map(|f| f.body)
        .collect();
    let mut out = Vec::new();
    for s in &file.sites {
        if !site_enabled(s, &file.rules, &hot_ranges) {
            continue;
        }
        let (path, model) = (&file.path, &file.model);
        let names = [s.rule.name()];
        if let Some(f) = waiver_filter(path, model, s.line, &names, s.rule, s.message.clone(), used)
        {
            out.push(f);
        }
    }
    waiver_syntax_findings(&file.path, &file.model, &mut out);
    out.sort_by_key(|a| (a.line, a.rule));
    out.dedup();
    out
}

/// Nested-lock sites: an acquisition while a guard of the same fn is
/// live. Fns nested in another fn are scanned as part of it.
fn lock_rule(model: &FileModel, parsed: &ParsedFile, out: &mut Raw) {
    for (li, f) in parsed.fns.iter().enumerate() {
        if f.is_test || parsed.enclosing_fn(f.fn_tok).is_some() {
            continue;
        }
        for (a, _) in fn_locks(model, parsed, li).acquires {
            let Some(holder) = a.holder else { continue };
            let message = format!(
                "`.{}()` while guard `{holder}` is still live: nested locking risks deadlock \
                 under shard contention",
                model.toks[a.tok].text
            );
            site(out, a.tok, a.line, Rule::NestedLock, "nested lock", message);
        }
    }
}

/// True if tokens at `i..` match the `::`-separated ident path `parts`
/// (e.g. `["Instant", "now"]` matches `Instant :: now`).
fn path_at(toks: &[Tok], i: usize, parts: &[&str]) -> bool {
    let mut j = i;
    for (n, part) in parts.iter().enumerate() {
        if n > 0 {
            if !(toks.get(j).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':')))
            {
                return false;
            }
            j += 2;
        }
        if !toks.get(j).is_some_and(|t| t.is_ident(part)) {
            return false;
        }
        j += 1;
    }
    true
}

fn clock_rule(model: &FileModel, rules: &RuleSet, out: &mut Raw) {
    let toks = &model.toks;
    for i in 0..toks.len() {
        if model.in_test(i) {
            continue;
        }
        let hit = if path_at(toks, i, &["Instant", "now"]) {
            Some(("`Instant::now()`", "`Instant::now()` wall-clock read"))
        } else if toks[i].is_ident("SystemTime") {
            Some(("`SystemTime`", "`SystemTime` wall-clock read"))
        } else if path_at(toks, i, &["std", "time"]) {
            Some((
                "`std::time`",
                "`std::time` clock type in a determinism-critical crate",
            ))
        } else {
            None
        };
        let Some((pat, msg)) = hit else { continue };
        let line = toks[i].line;
        let text = model.line_text(line);
        if rules.clock_line_allow.iter().any(|p| text.contains(p)) {
            continue;
        }
        // `use std::time::Instant;` on an allowlisted file is implied by
        // its allowed call sites; elsewhere the import itself is banned.
        site(out, i, line, Rule::Clock, pat, msg.to_string());
    }
}

fn spawn_rule(model: &FileModel, out: &mut Raw) {
    let toks = &model.toks;
    for i in 0..toks.len() {
        if model.in_test(i) {
            continue;
        }
        if path_at(toks, i, &["thread", "spawn"]) {
            site(
                out,
                i,
                toks[i].line,
                Rule::ThreadSpawn,
                "`thread::spawn`",
                "`thread::spawn` outside the worker pool breaks the \
                 deterministic sharding contract"
                    .to_string(),
            );
        }
    }
}

fn map_iter_rule(model: &FileModel, out: &mut Raw) {
    const ITER_METHODS: [&str; 5] = ["iter", "iter_mut", "keys", "values", "values_mut"];
    let toks = &model.toks;
    for i in 0..toks.len() {
        if model.in_test(i) {
            continue;
        }
        // `name . iter ( )` where `name` is a known map binding.
        if i >= 2
            && toks[i].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i].text.as_str())
            && toks[i - 1].is_punct('.')
            && toks[i - 2].kind == TokKind::Ident
            && model.map_names.contains(&toks[i - 2].text)
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            site(
                out,
                i,
                toks[i].line,
                Rule::MapIter,
                "hash-ordered iteration",
                format!(
                    "iteration over hash-ordered `{}` (`.{}()`): order is \
                     not deterministic — use BTreeMap/BTreeSet or sort",
                    toks[i - 2].text,
                    toks[i].text
                ),
            );
        }
        // `for … in [&][mut] path.to.name {`
        if toks[i].is_ident("for") {
            if let Some((tok, line, name)) = for_loop_over_map(model, i) {
                site(
                    out,
                    tok,
                    line,
                    Rule::MapIter,
                    "hash-ordered iteration",
                    format!(
                        "`for … in &{name}` iterates a hash-ordered map: \
                         order is not deterministic — use BTreeMap/BTreeSet \
                         or sort"
                    ),
                );
            }
        }
    }
}

/// If the `for` loop starting at token `i` iterates `&map` (a bare
/// possibly-dotted path ending in a known map name), returns
/// (token, line, name).
fn for_loop_over_map(model: &FileModel, i: usize) -> Option<(usize, usize, String)> {
    let toks = &model.toks;
    // Find `in` before the loop body `{`.
    let mut j = i + 1;
    let mut in_idx = None;
    while j < toks.len() && !toks[j].is_punct('{') {
        if toks[j].is_ident("in") {
            in_idx = Some(j);
            break;
        }
        j += 1;
    }
    let mut k = in_idx? + 1;
    while k < toks.len() && (toks[k].is_punct('&') || toks[k].is_ident("mut")) {
        k += 1;
    }
    // Accept only a plain path `a.b.c` up to the `{`: any call or other
    // punctuation means the iterated value is not the raw map.
    let mut last_ident: Option<usize> = None;
    while k < toks.len() && !toks[k].is_punct('{') {
        match toks[k].kind {
            TokKind::Ident => last_ident = Some(k),
            TokKind::Punct if toks[k].is_punct('.') => {}
            _ => return None,
        }
        k += 1;
    }
    let last = last_ident?;
    if model.map_names.contains(&toks[last].text) {
        Some((last, toks[last].line, toks[last].text.clone()))
    } else {
        None
    }
}

fn panic_rule(model: &FileModel, out: &mut Raw) {
    let toks = &model.toks;
    for i in 0..toks.len() {
        if model.in_test(i) {
            continue;
        }
        let t = &toks[i];
        // `.unwrap()` exactly (not `.unwrap_or…`).
        if i >= 1
            && t.is_ident("unwrap")
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
            && toks.get(i + 2).is_some_and(|p| p.is_punct(')'))
        {
            site(
                out,
                i,
                t.line,
                Rule::Panic,
                "`.unwrap()`",
                "`.unwrap()` in a hot path: propagate the error or handle \
                 the None case"
                    .to_string(),
            );
        }
        if i >= 1
            && t.is_ident("expect")
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            site(
                out,
                i,
                t.line,
                Rule::Panic,
                "`.expect(…)`",
                "`.expect(…)` in a hot path: propagate the error or handle \
                 the None case"
                    .to_string(),
            );
        }
        for mac in ["panic", "unreachable", "todo", "unimplemented"] {
            if t.is_ident(mac) && toks.get(i + 1).is_some_and(|p| p.is_punct('!')) {
                site(
                    out,
                    i,
                    t.line,
                    Rule::Panic,
                    &format!("`{mac}!`"),
                    format!("`{mac}!` in a hot path: return an error instead"),
                );
            }
        }
    }
}

fn slice_index_rule(model: &FileModel, out: &mut Raw) {
    let toks = &model.toks;
    for i in 1..toks.len() {
        if model.in_test(i) {
            continue;
        }
        if !toks[i].is_punct('[') {
            continue;
        }
        // Indexing only: `expr[…]` — the previous token ends an
        // expression. `#[attr]`, `&[…]`, `= […]`, `vec![…]`, `: [T; N]`
        // are not indexing.
        let prev = &toks[i - 1];
        let is_index = prev.kind == TokKind::Ident && !is_keyword(&prev.text)
            || prev.is_punct(')')
            || prev.is_punct(']');
        if !is_index {
            continue;
        }
        // `[..]` (full-range) cannot panic.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('.'))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(']'))
        {
            continue;
        }
        site(
            out,
            i,
            toks[i].line,
            Rule::SliceIndex,
            "`[…]` indexing",
            "`[…]` indexing can panic: use `.get(…)` or prove the bound \
             and waive"
                .to_string(),
        );
    }
}

/// Keywords that may directly precede `[` without it being indexing
/// (`return [a, b]`, `break [x]`, `in [1, 2]`…).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "return" | "break" | "in" | "if" | "else" | "match" | "mut" | "ref" | "move" | "as" | "let"
    )
}

/// Collects per-call allocation sites (`Vec::new`, `with_capacity`,
/// `.collect`, `vec!`) across the whole file. Per-file enforcement is
/// scoped to `// lint: hot-path` fn bodies by [`site_enabled`]; the
/// transitive pass consumes every site.
fn alloc_rule(model: &FileModel, out: &mut Raw) {
    let toks = &model.toks;
    for i in 0..toks.len() {
        if model.in_test(i) {
            continue;
        }
        let t = &toks[i];
        let hit = if path_at(toks, i, &["Vec", "new"]) {
            Some("`Vec::new()`")
        } else if t.is_ident("with_capacity")
            && i >= 2
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            Some("`with_capacity(…)`")
        } else if t.is_ident("collect")
            && i >= 1
            && toks[i - 1].is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|p| p.is_punct('(') || p.is_punct(':'))
        {
            Some("`.collect()`")
        } else if t.is_ident("vec") && toks.get(i + 1).is_some_and(|p| p.is_punct('!')) {
            Some("`vec!`")
        } else if t.is_ident("format") && toks.get(i + 1).is_some_and(|p| p.is_punct('!')) {
            Some("`format!`")
        } else if i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|p| p.is_punct('('))
        {
            // Owned copies of a borrowed value. Token-level, so a `Copy`
            // or `Arc` `.clone()` is flagged too: write `*x` for the
            // first, waive the second with its reason.
            match t.text.as_str() {
                "clone" => Some("`.clone()`"),
                "to_string" => Some("`.to_string()`"),
                "to_owned" => Some("`.to_owned()`"),
                "to_vec" => Some("`.to_vec()`"),
                _ => None,
            }
        } else {
            None
        };
        if let Some(what) = hit {
            site(
                out,
                i,
                t.line,
                Rule::HotPathAlloc,
                what,
                format!(
                    "{what} inside a `lint: hot-path` fn: reuse a \
                     cleared scratch buffer instead of allocating per \
                     call"
                ),
            );
        }
    }
}

const METRIC_METHODS: [&str; 4] = ["counter", "gauge", "histogram", "event"];

fn metric_rule(model: &FileModel, out: &mut Raw) {
    let toks = &model.toks;
    for i in 1..toks.len() {
        if model.in_test(i) {
            continue;
        }
        if toks[i].kind == TokKind::Ident
            && METRIC_METHODS.contains(&toks[i].text.as_str())
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            match toks.get(i + 2) {
                // Literal name: fine. Empty call (`registry.counter()`)
                // is someone else's API: skip.
                Some(t) if t.kind == TokKind::Str || t.is_punct(')') => {}
                Some(t) => site(
                    out,
                    i + 2,
                    t.line,
                    Rule::MetricName,
                    "dynamic metric name",
                    format!(
                        "metric name passed to `.{}(…)` must be a string \
                         literal (dynamic names create unbounded \
                         cardinality)",
                        toks[i].text
                    ),
                ),
                None => {}
            }
        }
    }
}
